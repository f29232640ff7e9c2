"""Deduplication operators over a documents table (training-data pipeline).

Beyond the reference's sample-level overlap dedup (``compact.go:37``), a
web-scale training pipeline needs document-level dedup.  All operators here
are Ray-Data-first:

* :func:`exact_dedup` — hash-partition on a content hash, keep the min-id
  row per hash (a groupby-aggregate, no row loops).
* :func:`minhash_lsh_pairs` / :func:`minhash_lsh_dedup` — shingle ->
  MinHash signature (actor-pool stage, hasher built once per actor) ->
  LSH band explosion -> groupby((band, band_hash)) -> candidate pairs ->
  optional exact-Jaccard verification.  The band groupby is the only
  shuffle, and it moves (band_hash, doc_id) rows, never documents.
* :func:`simhash_dedup` — 64-bit SimHash; near-dups found with EXACT
  recall at Hamming<=h via the pigeonhole (h+1)-block index: a pair
  within h bits agrees on at least one of h+1 bit blocks, so bucketing
  once per block + in-bucket Hamming verification misses nothing.
* :func:`ngram_jaccard_pairs` — exact n-gram Jaccard over LSH candidates
  (the verification leg; never all-pairs at scale).
* :func:`embedding_neardup_pairs` — cosine near-dup over an embedding
  column; brute-force per-batch matmul against a broadcast matrix at small
  scale, LSH-bucketed (random hyperplanes) at large scale.

Determinism: all hashes are process-independent (functions/hashing.py), all
pair outputs are (min_id, max_id)-ordered and de-duplicated.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import (
    MinHasher,
    char_ngram_hashes,
    poly_hash_column,
    popcount64,
    simhash64,
)
from . import common
from .common import shard_apply
from .common import mix64 as _mix64


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def add_content_hash(batch: pa.Table, text_col: str = "text", out_col: str = "content_hash") -> pa.Table:
    """int64 content hash + byte-length columns, fully vectorized.

    One O(total_bytes) buffer pass (``poly_hash_column``), no per-row Python.
    A companion ``n_bytes`` column rides along as an independent cheap
    discriminator: dedup keys use (hash, length), which keeps accidental
    64-bit birthday collisions from merging distinct documents unless they
    also agree on length (poly_hash_column docstring)."""
    hashes = poly_hash_column(batch[text_col]).astype(np.int64)
    nbytes = pc.cast(pc.binary_length(pc.fill_null(batch[text_col], "")), pa.int64())
    return batch.append_column(out_col, pa.array(hashes)).append_column("n_bytes", nbytes)


def exact_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
                precomputed: bool = False):
    """Keep exactly one row (min id) per distinct text.

    ``precomputed=True`` means the input already carries ``content_hash`` /
    ``n_bytes`` columns (e.g. the curation pipeline computes them in its
    fused prep pass) — the hashing stage is skipped.

    Returns a Dataset of ``(content_hash, n_bytes, doc_id)`` winners.  The
    shuffle moves only (hash, len, id) triples — documents never move —
    and, like the pair pipelines, the min is a SHARDED SEGMENT KERNEL, not
    a Ray per-key aggregate: content hashes are near-unique, so a
    ``groupby(hash).aggregate(Min)`` pays Python-level per-key cost on
    ~n_docs keys (the exact anti-pattern removed from the LSH pair dedup).
    A per-batch combiner keeps one id per (hash, len, batch) first, so
    pre-shuffle volume is already collapsed.
    """

    def min_per_hash(table: pa.Table) -> pa.Table:
        h = table["content_hash"].to_numpy(zero_copy_only=False)
        nb = table["n_bytes"].to_numpy(zero_copy_only=False)
        ids = table[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, nb, h))
        h_s, nb_s, id_s = h[order], nb[order], ids[order]
        first = np.ones(len(h_s), dtype=bool)
        first[1:] = (h_s[1:] != h_s[:-1]) | (nb_s[1:] != nb_s[:-1])
        return pa.table(
            {
                "content_hash": pa.array(h_s[first]),
                "n_bytes": pa.array(nb_s[first]),
                id_col: pa.array(id_s[first]),
            }
        )

    def partial(batch: pa.Table) -> pa.Table:
        hashed = batch if precomputed else add_content_hash(batch, text_col)
        return min_per_hash(hashed.select(["content_hash", "n_bytes", id_col]))

    return shard_apply(ds, ["content_hash"], min_per_hash, prepare=partial)


def exact_dedup_rows(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Full deduplicated rows (not just winner ids): keep the min-id row per
    distinct text.

    Two stages, both bounded: (1) :func:`exact_dedup`'s (hash, len) groupby
    over narrow rows picks winners; (2) winner markers and full rows are
    co-partitioned by a hash shard of the id (tag-union — NO driver-side id
    set, winners can be nearly the whole corpus at scale) and the shard task
    keeps rows whose id is marked.  Full rows cross the wire once.
    """
    winners = exact_dedup(ds, id_col=id_col, text_col=text_col)
    schema = ds.schema()
    data_cols = list(schema.names)
    data_types = {c: t for c, t in zip(schema.names, schema.types)}

    def mark_rows(batch: pa.Table) -> pa.Table:
        # full-width null rows but the id, so the union's schema matches the
        # doc rows and both sides shard on the id column
        cols = {c: pa.nulls(batch.num_rows, data_types[c]) for c in data_cols}
        cols[id_col] = pc.cast(batch[id_col], data_types[id_col])
        cols["_mark"] = pa.array(np.ones(batch.num_rows, bool))
        return pa.table(cols)

    def doc_rows(batch: pa.Table) -> pa.Table:
        return batch.append_column("_mark", pa.array(np.zeros(batch.num_rows, bool)))

    marks = winners.map_batches(mark_rows, batch_format="pyarrow")
    docs = ds.map_batches(doc_rows, batch_format="pyarrow")

    def keep_winners(group: pa.Table) -> pa.Table:
        is_mark = group["_mark"].to_numpy(zero_copy_only=False)
        ids = group[id_col].to_numpy().astype(np.int64, copy=False)
        keep = ~is_mark & np.isin(ids, ids[is_mark])
        return group.filter(pa.array(keep)).select(data_cols)

    return shard_apply([docs, marks], [id_col], keep_winners, coalesce=False)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

class MinHashSignatures:
    """Actor-pool stage: documents batch -> LSH band rows.

    Emits ``num_bands`` rows per document: (band, band_hash, doc_id).
    Hasher state (the k permutations) is built once per actor.
    """

    def __init__(self, num_perm: int = 128, num_bands: int = 32, ngram: int = 5,
                 id_col: str = "doc_id", text_col: str = "text",
                 emit_size: bool = False) -> None:
        self.mh = MinHasher(num_perm=num_perm)
        self.num_bands = num_bands
        self.ngram = ngram
        self.id_col = id_col
        self.text_col = text_col
        # emit_size: also carry each doc's DISTINCT shingle count on its
        # band rows (+8 B/row, no extra shuffle) so the bucket stage can
        # prune candidate pairs with the exact bound
        # J(A,B) <= min(|A|,|B|)/max(|A|,|B|) before any payload moves
        self.emit_size = emit_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy().astype(np.int64, copy=False)
        texts = batch[self.text_col].to_pylist()
        n = len(ids)
        nb = self.num_bands
        bhashes = np.empty(n * nb, dtype=np.int64)
        sizes = np.empty(n, dtype=np.int64) if self.emit_size else None
        # per-doc loop with numpy inner vectorization: the (n_shingles x
        # num_perm) block stays cache-resident — measured faster than any
        # whole-batch reduceat formulation (see hashing.MinHasher note)
        for i, text in enumerate(texts):
            # unique first: MinHash is set-based (duplicates never change
            # the min), and the n x num_perm multiply is the kernel's cost
            h = np.unique(char_ngram_hashes(text or "", self.ngram))
            sig = self.mh.signature(h)
            bh = self.mh.band_hashes(sig, nb)
            bhashes[i * nb : (i + 1) * nb] = np.array(bh, dtype=np.uint64).astype(np.int64)
            if sizes is not None:
                sizes[i] = len(h)
        cols = {
            "band": pa.array(np.tile(np.arange(nb, dtype=np.int32), n)),
            "band_hash": pa.array(bhashes),
            "doc_id": pa.array(np.repeat(ids, nb)),
        }
        if sizes is not None:
            cols["n_sh"] = pa.array(np.repeat(sizes, nb))
        return pa.table(cols)



def dedup_pairs_sharded(pairs, value_col: str | None = None,
                        reduce: str = "max"):
    """Distinct (a, b) pairs — hash-shard then ONE vectorized lexsort/unique
    per shard, optionally keeping the max/min ``value_col`` per pair.

    Replaces ``groupby(["a", "b"]).aggregate(...)``: Ray's hash aggregate
    pays Python-level per-key cost, and LSH candidate sets run to ~40+ pairs
    per doc on templated corpora (209k pairs at sf0.1) — the aggregate was
    5x the cost of the whole signature+bucket pipeline.  Here the shuffle
    moves the same (a, b) rows but the dedup is a segment mask after one
    lexsort per shard."""

    def uniq(group: pa.Table) -> pa.Table:
        a = group["a"].to_numpy().astype(np.int64, copy=False)
        b = group["b"].to_numpy().astype(np.int64, copy=False)
        if value_col is None:
            order = np.lexsort((b, a))
        else:
            v = group[value_col].to_numpy().astype(np.float64, copy=False)
            order = np.lexsort((-v if reduce == "max" else v, b, a))
        a_s, b_s = a[order], b[order]
        first = np.ones(len(a_s), dtype=bool)
        first[1:] = (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])
        cols = {"a": pa.array(a_s[first]), "b": pa.array(b_s[first])}
        if value_col is not None:
            cols[value_col] = pa.array(
                group[value_col].to_numpy(zero_copy_only=False)[order][first],
                pa.float64(),
            )
        return pa.table(cols)

    return shard_apply(pairs, ["a", "b"], uniq)



def _segment_pairs(sort_keys: tuple[np.ndarray, ...], ids: np.ndarray,
                   vals: np.ndarray | None = None):
    """(a, b) id pairs within each segment of equal sort_keys — ONE lexsort
    for the whole shard, then a Python loop over only the multi-member
    segments (the rare duplicate buckets), numpy triu inside.  This is the
    tiny-group killer: one grouped task handles thousands of LSH buckets
    instead of one map_groups kernel call per bucket.

    With ``vals`` (a per-row int array aligned with ``ids``, constant per
    id) also returns (va, vb) per pair — used to carry shingle-set sizes
    for exact size-ratio pruning."""
    n = len(ids)
    empty = np.empty(0, np.int64)
    if n < 2:
        return (empty, empty) if vals is None else (empty, empty, empty, empty)
    order = np.lexsort((ids,) + sort_keys)
    keys_s = [k[order] for k in sort_keys]
    ids_s = ids[order]
    vals_s = vals[order] if vals is not None else None
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for k in keys_s:
        new[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    ends = np.r_[starts[1:], n]
    multi = (ends - starts) >= 2
    out_a, out_b, out_va, out_vb = [], [], [], []
    for a0, b0 in zip(starts[multi], ends[multi]):
        u, first = np.unique(ids_s[a0:b0], return_index=True)
        if len(u) < 2:
            continue
        ia, ib = np.triu_indices(len(u), k=1)
        out_a.append(u[ia])
        out_b.append(u[ib])
        if vals_s is not None:
            v = vals_s[a0:b0][first]
            out_va.append(v[ia])
            out_vb.append(v[ib])
    if not out_a:
        return (empty, empty) if vals is None else (empty, empty, empty, empty)
    a_cat, b_cat = np.concatenate(out_a), np.concatenate(out_b)
    if vals is None:
        return a_cat, b_cat
    return a_cat, b_cat, np.concatenate(out_va), np.concatenate(out_vb)


def minhash_lsh_pairs(ds, num_perm: int = 128, num_bands: int = 32, ngram: int = 5,
                      id_col: str = "doc_id", text_col: str = "text",
                      concurrency=(1, 8), size_ratio: float | None = None):
    """Candidate near-dup pairs via MinHash+LSH; distinct (a<b) pairs.

    The bucket stage groups by a HASH SHARD of (band, band_hash) — not the
    raw bucket key — so one vectorized task covers thousands of buckets
    (segment boundaries after one lexsort) instead of paying per-tiny-group
    map_groups overhead on ~32 x n_docs mostly-singleton buckets.

    ``size_ratio``: exact-safe candidate pruning for a downstream Jaccard
    threshold t — J(A,B) = |A∩B|/|A∪B| <= min(|A|,|B|)/max(|A|,|B|), so any
    pair whose distinct-shingle-count ratio is < t can NEVER verify at >= t
    and is dropped INSIDE the bucket stage (sizes ride the band rows; no
    extra shuffle, no driver state).  LSH banding at r=4 admits ~23% of
    s=0.3 pairs, so on templated corpora this kills the large majority of
    candidates before the shingle-payload shuffle and exact verify."""
    band_rows = ds.map_batches(
        MinHashSignatures,
        fn_constructor_kwargs=dict(
            num_perm=num_perm, num_bands=num_bands, ngram=ngram,
            id_col=id_col, text_col=text_col,
            emit_size=size_ratio is not None,
        ),
        batch_format="pyarrow",
        concurrency=concurrency,
    )

    def shard_pairs(group: pa.Table) -> pa.Table:
        band = group["band"].to_numpy().astype(np.int64, copy=False)
        bh = group["band_hash"].to_numpy().astype(np.int64, copy=False)
        ids = group["doc_id"].to_numpy().astype(np.int64, copy=False)
        if size_ratio is None:
            a, b = _segment_pairs((bh, band), ids)
        else:
            nsh = group["n_sh"].to_numpy().astype(np.int64, copy=False)
            a, b, va, vb = _segment_pairs((bh, band), ids, vals=nsh)
            lo = np.minimum(va, vb).astype(np.float64)
            hi = np.maximum(va, vb).astype(np.float64)
            # keep iff min/max >= t (hi == 0 means both empty: J = 1,
            # keep); 1e-12 slack so float division never drops an exact
            # boundary ratio
            keep = (hi == 0) | (lo >= (size_ratio - 1e-12) * hi)
            a, b = a[keep], b[keep]
        return pa.table({"a": pa.array(a), "b": pa.array(b)})

    pairs = shard_apply(band_rows, ["band", "band_hash"], shard_pairs)
    # distinct pairs (a pair can surface in several bands)
    return dedup_pairs_sharded(pairs)


_EMPTY_PAIRS = {
    "a": pa.array([], pa.int64()),
    "b": pa.array([], pa.int64()),
    "jaccard": pa.array([], pa.float64()),
}


# default driver budget for the ngram CSR routing build: below it the
# (doc -> pair-shards) map is driver numpy + one ray.put (2 int rows per
# candidate pair, ~32 B/pair transient); above it the map is built as a
# Dataset and tag-unioned with bloom-pruned payload rows instead
NGRAM_MAX_DRIVER_PAIRS = 20_000_000


def _shingle_rows_driver_csr(ds, cand, pair_shards_fn, ngram: int,
                             id_col: str, text_col: str):
    """Fast-path shingle routing for :func:`ngram_jaccard_pairs`: the
    (doc -> pair-shards) map as a driver-built CSR (sorted ids, offsets,
    flat shard list) broadcast once via ``ray.put`` — ints only, bounded
    by the candidate count; each payload crosses the wire once per
    distinct (doc, shard), never once per pair side."""
    import ray

    # vectorized CSR build: stack (doc, shard) for both pair sides, dedup
    # with one lexsort + segment mask, derive offsets by cumsum — all
    # C-speed (a Python dict-of-sets loop here would serialize the set
    # inserts on the driver)
    doc_parts, shard_parts = [], []
    for batch in cand.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        a_np = batch["a"].to_numpy().astype(np.int64, copy=False)
        b_np = batch["b"].to_numpy().astype(np.int64, copy=False)
        ps = pair_shards_fn(a_np, b_np)
        doc_parts += [a_np, b_np]
        shard_parts += [ps, ps]
    doc = np.concatenate(doc_parts)
    shard = np.concatenate(shard_parts)
    order = np.lexsort((shard, doc))
    doc, shard = doc[order], shard[order]
    keep = np.ones(len(doc), dtype=bool)
    keep[1:] = (doc[1:] != doc[:-1]) | (shard[1:] != shard[:-1])
    doc, flat_shards = doc[keep], shard[keep]
    new_doc = np.ones(len(doc), dtype=bool)
    new_doc[1:] = doc[1:] != doc[:-1]
    ids_sorted = doc[new_doc]
    counts = np.diff(np.r_[np.flatnonzero(new_doc), len(doc)])
    offs = np.zeros(len(ids_sorted) + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    route_ref = ray.put((ids_sorted, offs, flat_shards))

    # shingle rows: payload computed ONCE per involved doc, replicated only
    # into the shards that need it (CSR expansion, vectorized)
    def shingle_rows(batch: pa.Table) -> pa.Table:
        ids_s, off, fl = ray.get(route_ref)
        did = batch[id_col].to_numpy().astype(np.int64, copy=False)
        pos = np.searchsorted(ids_s, did)
        pos[pos >= len(ids_s)] = 0
        mask = ids_s[pos] == did if len(ids_s) else np.zeros(len(did), bool)
        sel = batch.filter(pa.array(mask))
        sid = sel[id_col].to_numpy().astype(np.int64, copy=False)
        spos = np.searchsorted(ids_s, sid)
        reps = off[spos + 1] - off[spos]
        row = np.repeat(np.arange(len(sid), dtype=np.int64), reps)
        within = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        shards = fl[off[spos][row] + within]
        # large_binary: the CSR expansion replicates each doc's shingle
        # bytes into every pair shard that needs it, and at a 50k-doc
        # corpus one expanded batch crossed binary()'s int32 offset
        # limit ("offset overflow while concatenating arrays" — found by
        # the round-4 sf1 sweep).  Payloads ship UNIQUE-SORTED (verify
        # relies on it): smaller bytes on the wire, no re-sort on receipt.
        payloads = pa.array(
            [
                np.unique(char_ngram_hashes(t or "", ngram))
                .view(np.int64).tobytes()
                for t in sel[text_col].to_pylist()
            ],
            pa.large_binary(),
        )
        return pa.table(
            {
                "_pshard": pa.array(shards),
                "key": pa.array(sid[row]),
                "a": pa.nulls(len(row), pa.int64()),
                "b": pa.nulls(len(row), pa.int64()),
                "payload": payloads.take(pa.array(row)),
            }
        )

    return ds.map_batches(shingle_rows, batch_format="pyarrow")


def _bloom_bits_for(n_cand: int | None) -> int:
    """Size the escalation's candidate-id Bloom prefilter from the
    candidate-pair count instead of a fixed bitmap (round-3 ADVICE item 4):
    ~20 bits per distinct id (<= 2 ids per pair, 4 hashes -> FP rate
    ~= (1 - e^{-4/20})^4 ~ 0.1%), rounded up to a power of two.  Floor
    1<<24 bits (2 MB — below that the broadcast is free anyway), cap
    1<<30 bits (128 MB, the largest bitmap worth shipping to every
    worker; past it the FP rate degrades gracefully, costing only
    shipped shingle bytes, never correctness — ``expand`` drops
    unmatched keys)."""
    bits = 1 << 24
    if n_cand is not None:
        while bits < min(20 * max(n_cand, 1) * 2, 1 << 30):
            bits <<= 1
    return bits


def _shingle_rows_sharded(ds, cand, pair_shards_fn, ngram: int,
                          id_col: str, text_col: str,
                          n_cand: int | None = None):
    """Escalated shingle routing for :func:`ngram_jaccard_pairs`: the
    (doc -> pair-shard) map never touches the driver.  Route rows
    (key, pair_shard) distinct-per-batch come straight off the candidate
    pairs; payload rows (key, shingle bytes) are computed once per doc
    that SURVIVES a candidate-id Bloom prefilter (bitmap-bounded driver
    memory, false positives only cost shipped bytes); one key-hash
    tag-union exchange co-locates them, and each routing shard dedups
    its (key, shard) rows and CSR-expands payloads to exactly the pair
    shards that need them.  Costs one extra payload hop vs the
    driver-CSR fast path — the price of unbounded candidate counts."""
    import ray

    from .joins import bloom_mask, build_bloom

    bits = _bloom_bits_for(n_cand)
    words = build_bloom(cand, "a", num_bits=bits) \
        | build_bloom(cand, "b", num_bits=bits)
    words_ref = ray.put(words)

    def route_partial(batch: pa.Table) -> pa.Table:
        a_np = batch["a"].to_numpy().astype(np.int64, copy=False)
        b_np = batch["b"].to_numpy().astype(np.int64, copy=False)
        ps = pair_shards_fn(a_np, b_np)
        key = np.r_[a_np, b_np]
        sh = np.r_[ps, ps]
        order = np.lexsort((sh, key))
        key, sh = key[order], sh[order]
        keep = np.ones(len(key), dtype=bool)
        keep[1:] = (key[1:] != key[:-1]) | (sh[1:] != sh[:-1])
        key, sh = key[keep], sh[keep]
        return pa.table({
            "key": pa.array(key, pa.int64()),
            "_pshard": pa.array(sh, pa.int64()),
            "payload": pa.nulls(len(key), pa.large_binary()),
            "_side": pa.array(np.zeros(len(key), np.int64)),
        })

    def doc_partial(batch: pa.Table) -> pa.Table:
        w = ray.get(words_ref)
        sel = batch.filter(pa.array(bloom_mask(batch[id_col], w)))
        sid = pc.cast(sel[id_col], pa.int64()).to_numpy(
            zero_copy_only=False)
        # unique-sorted, matching the CSR fast path (verify relies on it)
        payloads = pa.array(
            [np.unique(char_ngram_hashes(t or "", ngram))
             .view(np.int64).tobytes()
             for t in sel[text_col].to_pylist()],
            pa.large_binary(),
        )
        return pa.table({
            "key": pa.array(sid, pa.int64()),
            "_pshard": pa.array(np.zeros(len(sid), np.int64)),
            "payload": payloads,
            "_side": pa.array(np.ones(len(sid), np.int64)),
        })

    def expand(t: pa.Table) -> pa.Table:
        side = t["_side"].to_numpy(zero_copy_only=False)
        rt = t.filter(pa.array(side == 0))
        pl = t.filter(pa.array(side == 1))
        empty = pa.table({
            "_pshard": pa.array([], pa.int64()),
            "key": pa.array([], pa.int64()),
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "payload": pa.array([], pa.large_binary()),
        })
        if rt.num_rows == 0 or pl.num_rows == 0:
            return empty
        rk = rt["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        rs = rt["_pshard"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((rs, rk))
        rk, rs = rk[order], rs[order]
        keep = np.ones(len(rk), dtype=bool)
        keep[1:] = (rk[1:] != rk[:-1]) | (rs[1:] != rs[:-1])
        rk, rs = rk[keep], rs[keep]
        pk = pl["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        lo = np.searchsorted(rk, pk, side="left")
        hi = np.searchsorted(rk, pk, side="right")
        cnt = hi - lo
        rows = np.repeat(np.arange(len(pk), dtype=np.int64), cnt)
        within = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(cnt) - cnt, cnt)
        shards = rs[lo[rows] + within]
        return pa.table({
            "_pshard": pa.array(shards, pa.int64()),
            "key": pa.array(pk[rows], pa.int64()),
            "a": pa.nulls(len(rows), pa.int64()),
            "b": pa.nulls(len(rows), pa.int64()),
            "payload": pl["payload"].take(pa.array(rows)),
        })

    return shard_apply([cand.map_batches(route_partial, batch_format="pyarrow"),
                        ds.map_batches(doc_partial, batch_format="pyarrow")],
                       ["key"], expand)


def ngram_jaccard_pairs(ds, threshold: float = 0.8, ngram: int = 5,
                        id_col: str = "doc_id", text_col: str = "text",
                        max_driver_pairs: int | None = None, **lsh_kw):
    """Near-dup pairs with exact n-gram Jaccard >= threshold, in two
    bounded stages (no shingle amplification through the LSH shuffle):

    1. **Candidates**: MinHash+LSH band rows carrying ``doc_id`` ONLY
       (:func:`minhash_lsh_pairs`) — the wide shuffle moves (band_hash, id)
       pairs, never text-sized payloads.
    2. **Exact verify**: shingle-hash arrays are computed ONCE per involved
       doc and routed in a SINGLE shuffle straight to the pair shards that
       need them — a driver-built CSR map (doc -> shards of its candidate
       pairs, ints only, broadcast via ``ray.put``) replaces the former
       tag-union attach stage, so each payload crosses the wire once per
       distinct (doc, shard), never once per pair side.

    Scale note: below ``max_driver_pairs`` candidates (default
    :data:`NGRAM_MAX_DRIVER_PAIRS`) the driver holds only the distinct
    candidate ids (int64) and everything text-sized stays in tasks;
    above it even that int map escalates off the driver — the routing
    build becomes a Dataset tag-union (:func:`_shingle_rows_sharded`,
    bloom-pruned payloads, one extra payload hop) and the driver holds
    only the candidate count and a fixed-size bloom bitmap.
    """
    import ray
    import ray.data

    cand = minhash_lsh_pairs(
        ds, ngram=ngram, id_col=id_col, text_col=text_col,
        size_ratio=threshold,  # exact-safe: J <= min/max size ratio
        **{k: v for k, v in lsh_kw.items() if k in ("num_perm", "num_bands", "concurrency")},
    ).materialize()
    n_cand = cand.count()
    if n_cand == 0:
        return ray.data.from_arrow(pa.table(_EMPTY_PAIRS))
    cap = NGRAM_MAX_DRIVER_PAIRS if max_driver_pairs is None \
        else max_driver_pairs

    # Routing map: each pair lives in ONE pair-shard (one ``verify`` call);
    # a doc's shingle payload must reach exactly the pair-shards holding
    # its pairs.  Shard assignment is a 2D BLOCK partition — shard(a,b) =
    # (h(a) % NA) * G + h(b) % G — so a doc's pairs land in at most
    # NA + G ≈ 2*sqrt(NUM_SHARDS) shards no matter how many pairs it has (vs min(NUM_SHARDS, n_pairs) under
    # flat mix(a,b) hashing: at sf1 every doc shipped its ~8 KB payload
    # to all 64 shards, a 4x-avoidable shuffle), while a hub doc's pairs
    # still spread over G shards for skew.  Below the cap: CSR routing
    # (sorted ids, offsets, flat shard list) built driver-side and
    # broadcast once via ray.put — ints only.  Above the cap: the same
    # map as a Dataset tag-union (_shingle_rows_sharded), nothing
    # driver-side.
    G = max(1, int(np.sqrt(common.NUM_SHARDS)))
    NA = max(1, common.NUM_SHARDS // G)

    def pair_shards(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ha = _mix64(a.astype(np.uint64)) % np.uint64(NA)
        hb = _mix64(b.astype(np.uint64)) % np.uint64(G)
        return (ha * np.uint64(G) + hb).astype(np.int64)

    if n_cand > cap:
        sh_rows = _shingle_rows_sharded(
            ds, cand, pair_shards, ngram, id_col, text_col, n_cand=n_cand)
    else:
        sh_rows = _shingle_rows_driver_csr(
            ds, cand, pair_shards, ngram, id_col, text_col)

    def pair_rows(batch: pa.Table) -> pa.Table:
        a_np = batch["a"].to_numpy().astype(np.int64, copy=False)
        b_np = batch["b"].to_numpy().astype(np.int64, copy=False)
        return pa.table(
            {
                "_pshard": pa.array(pair_shards(a_np, b_np)),
                "key": pa.nulls(len(a_np), pa.int64()),
                "a": pa.array(a_np),
                "b": pa.array(b_np),
                "payload": pa.nulls(len(a_np), pa.large_binary()),
            }
        )

    pr_rows = cand.map_batches(pair_rows, batch_format="pyarrow")

    def verify(group: pa.Table) -> pa.Table:
        """One pair-shard: payloads for both docs of every pair are present;
        exact Jaccard, keep >= threshold.

        Vectorized: each payload is uniqued/sorted ONCE per doc (not once
        per pair it appears in), then pairs are grouped by their ``a`` doc
        and each run issues a single batched ``searchsorted`` of all its
        ``b``-side shingles into the shared sorted ``a`` payload, with a
        cumsum segment fold — O(P_doc log S) numpy calls per distinct doc
        instead of a Python sort-per-pair loop (the sf1 battery's dominant
        cost: intra-replica near-dup clusters make pairs quadratic in
        replica count while docs stay linear)."""
        # filter BEFORE to_numpy: a null-bearing int64 column converts to
        # float64 (NaN nulls), silently corrupting ids >= 2^53
        is_sh = pc.is_valid(group["payload"])
        sh = group.filter(is_sh)
        keys = sh["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(keys, kind="stable")
        keys_s = keys[order]
        payload_col = sh["payload"].take(pa.array(order))
        # payloads arrive unique-sorted from the shingle builders
        payloads = [
            np.frombuffer(p, dtype=np.int64).view(np.uint64)
            for p in payload_col.to_pylist()
        ]
        sizes = np.fromiter((len(p) for p in payloads), np.int64,
                            count=len(payloads))
        pr = group.filter(pc.invert(is_sh))
        a = pr["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = pr["b"].to_numpy(zero_copy_only=False).astype(np.int64)

        def locate(x: np.ndarray) -> np.ndarray:
            pos = np.searchsorted(keys_s, x)
            pos[pos >= len(keys_s)] = 0
            ok = keys_s[pos] == x if len(keys_s) else np.zeros(len(x), bool)
            pos[~ok] = -1
            return pos

        pos_a, pos_b = locate(a), locate(b)
        ok = (pos_a >= 0) & (pos_b >= 0)  # doc missing (shouldn't happen)
        a, b, pos_a, pos_b = a[ok], b[ok], pos_a[ok], pos_b[ok]
        if len(a) == 0:
            return pa.table(_EMPTY_PAIRS)

        # group pairs by a-doc: one searchsorted per run, segment-folded
        run_order = np.argsort(pos_a, kind="stable")
        pa_s, pb_s = pos_a[run_order], pos_b[run_order]
        starts = np.flatnonzero(np.r_[True, pa_s[1:] != pa_s[:-1]])
        ends = np.r_[starts[1:], len(pa_s)]
        inter_s = np.zeros(len(pa_s), np.int64)
        for s, e in zip(starts, ends):
            hay = payloads[pa_s[s]]
            segs = [payloads[k] for k in pb_s[s:e]]
            lens = sizes[pb_s[s:e]]
            if len(hay) == 0 or lens.sum() == 0:
                continue
            needles = segs[0] if e - s == 1 else np.concatenate(segs)
            idx = np.searchsorted(hay, needles)
            idx[idx >= len(hay)] = 0
            hits = hay[idx] == needles
            csum = np.r_[0, np.cumsum(hits, dtype=np.int64)]
            offs = np.r_[0, np.cumsum(lens)]
            inter_s[s:e] = csum[offs[1:]] - csum[offs[:-1]]
        inter = np.empty_like(inter_s)
        inter[run_order] = inter_s  # back to input pair order
        union = sizes[pos_a] + sizes[pos_b] - inter
        sims = np.where(union == 0, 1.0,
                        inter / np.maximum(union, 1))
        keep = sims >= threshold
        return pa.table(
            {
                "a": pa.array(a[keep], pa.int64()),
                "b": pa.array(b[keep], pa.int64()),
                "jaccard": pa.array(sims[keep], pa.float64()),
            }
        )

    # ``by`` on the pair-shard itself: hashing 64 pair-shard ids onto 64
    # shards collides, and a merged group would hold a doc's payload twice
    return shard_apply([sh_rows, pr_rows], ["_pshard"], verify, by=("_pshard",))


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

class SimHashStage:
    """Actor-pool stage: add a 64-bit SimHash column (int64, bit-preserved)."""

    def __init__(self, ngram: int = 5, id_col: str = "doc_id", text_col: str = "text") -> None:
        self.ngram = ngram
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        sims = np.array(
            [np.uint64(simhash64(char_ngram_hashes(t or "", self.ngram))).astype(np.int64)
             for t in batch[self.text_col].to_pylist()],
            dtype=np.int64,
        )
        return pa.table({self.id_col: batch[self.id_col], "simhash": pa.array(sims)})


def _simhash_block_spans(num_blocks: int) -> list[tuple[int, int]]:
    """(shift, width) spans partitioning the 64 hash bits into
    ``num_blocks`` near-equal contiguous blocks."""
    spans, pos = [], 0
    for i in range(num_blocks):
        w = 64 // num_blocks + (1 if i < 64 % num_blocks else 0)
        spans.append((pos, w))
        pos += w
    return spans


def simhash_pairs_from_hashes(hashed, max_hamming: int = 3,
                              num_blocks: int | None = None,
                              id_col: str = "doc_id"):
    """GUARANTEED-RECALL near-dup pairs over a (id, ``simhash``) dataset.

    Pigeonhole blocking (the 4-block permuted-prefix index): the 64 bits
    split into ``num_blocks = max_hamming + 1`` near-equal contiguous
    blocks, every doc is indexed once per block, and a pair differing in
    <= max_hamming bits MUST agree exactly on at least one block — so
    verifying full Hamming inside each (block, value) bucket finds every
    qualifying pair (round 2's single high-16-prefix table missed pairs
    whose differing bits fell in the prefix).  Shuffle volume is
    num_blocks ids+hash rows per doc; duplicate discoveries (a pair can
    agree on several blocks, in different shards) collapse in one final
    narrow (a, b)-keyed exchange."""
    from .keyed import sharded_grouped_agg

    if num_blocks is None:
        num_blocks = min(max_hamming + 1, 64)
    num_blocks = max(1, min(num_blocks, 64))
    spans = _simhash_block_spans(num_blocks)

    def explode_blocks(batch: pa.Table) -> pa.Table:
        h = batch["simhash"].to_numpy().astype(np.uint64)
        ids = pc.cast(batch[id_col], pa.int64()).to_numpy(
            zero_copy_only=False)
        n = len(h)
        parts = []
        for bi, (shift, width) in enumerate(spans):
            val = (h >> np.uint64(shift)) & np.uint64((1 << width) - 1)
            # bucket id folds the block index in so the same value in
            # different blocks never collides
            bucket = (val.astype(np.int64) << np.int64(7)) | np.int64(bi)
            parts.append(pa.table({
                id_col: pa.array(ids, pa.int64()),
                "simhash": batch["simhash"],
                "bucket": pa.array(bucket, pa.int64()),
            }))
        return pa.concat_tables(parts)

    def shard_pairs(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy().astype(np.int64, copy=False)
        hs = group["simhash"].to_numpy().astype(np.uint64)
        bucket = group["bucket"].to_numpy().astype(np.int64, copy=False)
        n = len(ids)
        a_out, b_out, d_out = [], [], []
        if n:
            order = np.lexsort((ids, bucket))
            ids_s, hs_s, bk_s = ids[order], hs[order], bucket[order]
            new = np.zeros(n, dtype=bool)
            new[0] = True
            new[1:] = bk_s[1:] != bk_s[:-1]
            starts = np.flatnonzero(new)
            ends = np.r_[starts[1:], n]
            multi = (ends - starts) >= 2
            for a0, b0 in zip(starts[multi], ends[multi]):
                uniq, idx = np.unique(ids_s[a0:b0], return_index=True)
                sub = hs_s[a0:b0][idx]
                for i in range(len(uniq)):
                    x = sub[i] ^ sub[i + 1 :]
                    ham = popcount64(x)
                    for j in np.flatnonzero(ham <= max_hamming):
                        a_out.append(int(uniq[i]))
                        b_out.append(int(uniq[i + 1 + j]))
                        d_out.append(int(ham[j]))
        return pa.table({"a": pa.array(a_out, pa.int64()), "b": pa.array(b_out, pa.int64()),
                         "hamming": pa.array(d_out, pa.int64())})

    pairs = shard_apply(hashed, ["bucket"], shard_pairs, prepare=explode_blocks)
    # collapse multi-block duplicate discoveries (hamming is identical
    # for a given pair, so min is just dedup)
    return sharded_grouped_agg(pairs, ["a", "b"], [("hamming", "min")])


def simhash_dedup(ds, max_hamming: int = 3, num_blocks: int | None = None,
                  id_col: str = "doc_id", text_col: str = "text",
                  concurrency=(1, 8)):
    """Near-dup pairs by SimHash with EXACT recall at ``max_hamming``:
    hash with the :class:`SimHashStage` actor pool, then the pigeonhole
    multi-block index of :func:`simhash_pairs_from_hashes` (which see
    for the recall argument and shuffle-volume cost)."""
    hashed = ds.map_batches(
        SimHashStage, fn_constructor_kwargs=dict(id_col=id_col, text_col=text_col),
        batch_format="pyarrow", concurrency=concurrency,
    )
    return simhash_pairs_from_hashes(
        hashed, max_hamming=max_hamming, num_blocks=num_blocks,
        id_col=id_col)


# ---------------------------------------------------------------------------
# Embedding near-dup
# ---------------------------------------------------------------------------

def _exact_pairs_blockwise(ids: np.ndarray, unit: np.ndarray, threshold: float,
                           block: int = 1024):
    """All-pairs cosine >= threshold over one (bounded) vector set, computed
    in (block x n) matmul tiles so memory stays O(block * n), not O(n^2)."""
    n = len(ids)
    out_a, out_b, out_s = [], [], []
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        sim = unit[i0:i1] @ unit.T  # (b, n)
        rows, cols = np.nonzero(sim >= threshold)
        g_rows = rows + i0
        keep = cols > g_rows  # strict upper triangle in global index space
        out_a.append(ids[g_rows[keep]])
        out_b.append(ids[cols[keep]])
        out_s.append(sim[rows[keep], cols[keep]])
    if not out_a:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64)
    return (
        np.concatenate(out_a).astype(np.int64),
        np.concatenate(out_b).astype(np.int64),
        np.concatenate(out_s).astype(np.float64),
    )


def _bucket_pairs_capped(ids: np.ndarray, unit: np.ndarray, threshold: float,
                         max_bucket: int, seed: int, depth: int = 0,
                         max_depth: int = 40):
    """Pairs within one LSH bucket with a hard size cap.

    Oversized buckets split RECURSIVELY (local, no extra shuffle) at the
    MEDIAN of a fresh random projection — a balanced cut that halves even
    tight angular clusters, where a sign-of-hyperplane cut never separates
    anything; depth is therefore ~log2(n / max_bucket).  Pairs straddling a
    cut are the (standard LSH) recall loss; other tables re-surface them.
    Exactly-identical projections (duplicate vectors) cannot split and fall
    back to the blockwise exact scan, which bounds MEMORY at
    O(block x n) even though compute stays O(n^2) — the honest floor for a
    bucket of indistinguishable vectors."""
    if len(ids) <= max_bucket or depth >= max_depth:
        return _exact_pairs_blockwise(ids, unit, threshold)
    rng = np.random.RandomState((seed * 7919 + depth * 104729) % (2**31))
    proj = unit @ rng.randn(unit.shape[1])
    med = np.median(proj)
    m = proj <= med
    if m.all() or not m.any():  # all projections identical -> unsplittable
        return _exact_pairs_blockwise(ids, unit, threshold)
    out_a, out_b, out_s = [], [], []
    for mm in (m, ~m):
        a, b, s = _bucket_pairs_capped(
            ids[mm], unit[mm], threshold, max_bucket, seed, depth + 1, max_depth
        )
        out_a.append(a)
        out_b.append(b)
        out_s.append(s)
    return np.concatenate(out_a), np.concatenate(out_b), np.concatenate(out_s)


def embedding_neardup_pairs(ds, threshold: float = 0.95, id_col: str = "vec_id",
                            vec_col: str = "embedding", num_planes: int = 8,
                            num_tables: int = 4, seed: int = 7,
                            max_bucket: int = 4096):
    """Cosine near-dup pairs over an embedding column — multi-table
    random-hyperplane LSH with bounded buckets.

    * ``num_tables`` independent tables of ``num_planes`` hyperplanes each:
      a pair is a candidate if it collides in ANY table (recall compounds:
      1 - (1 - p^k)^T), then exact cosine verifies within the bucket; the
      final groupby((a, b)) dedups cross-table rediscoveries.
    * **Bounded buckets**: a bucket larger than ``max_bucket`` splits
      recursively on fresh hyperplanes inside the grouped task (no extra
      shuffle); degenerate all-identical buckets fall back to a blockwise
      exact scan with O(block x n) memory.  Expected bucket size is
      n / 2^num_planes per table — size num_planes so that stays near
      ``max_bucket`` at corpus scale.
    * ``num_planes=0`` degenerates to a single bucket = exact all-pairs
      (only viable at small scale; the blockwise scan keeps memory flat).

    The shuffle moves ``num_tables`` copies of (table, bucket, id, vec) —
    vectors are the payload, so at 100 TB keep num_tables modest and rely
    on num_planes for selectivity.
    """
    def add_buckets(batch: pa.Table) -> pa.Table:
        from .similarity import _to_matrix

        vecs = _to_matrix(batch[vec_col])
        n = len(vecs)
        ids = batch[id_col].to_numpy().astype(np.int64, copy=False)
        tables_out = []
        for t in range(max(1, num_tables if num_planes else 1)):
            if num_planes:
                rng = np.random.RandomState((seed * 1_000_003 + t) % (2**31))
                planes = rng.randn(vecs.shape[1], num_planes)
                signs = (vecs @ planes) > 0
                bucket = (signs @ (np.int64(1) << np.arange(num_planes, dtype=np.int64))).astype(np.int64)
            else:
                bucket = np.zeros(n, dtype=np.int64)
            tables_out.append(
                pa.table(
                    {
                        "table": pa.nulls(n, pa.int32()).fill_null(t),
                        "bucket": pa.array(bucket),
                        id_col: pa.array(ids),
                        "vec": pa.array([v.tobytes() for v in vecs], pa.binary()),
                    }
                )
            )
        return pa.concat_tables(tables_out)

    table_seed = {"v": seed}

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy()
        uniq, idx = np.unique(ids, return_index=True)
        vecs = np.stack(
            [np.frombuffer(group["vec"][int(i)].as_py(), dtype=np.float64) for i in idx]
        )
        norms = np.linalg.norm(vecs, axis=1)
        norms[norms == 0] = 1.0
        unit = vecs / norms[:, None]
        t_id = int(group["table"][0].as_py()) if group.num_rows else 0
        # num_planes=0 is the documented EXACT mode: the cap's median
        # split would silently drop cross-cut pairs once the corpus
        # outgrows max_bucket (surfaced by the round-4 10x sf1 sweep —
        # 2k vectors never split, 20k lost ~half the oracle's pairs), so
        # exact mode always takes the blockwise O(block x n)-memory scan
        cap = max_bucket if num_planes else len(uniq) + 1
        a, b, s = _bucket_pairs_capped(
            uniq.astype(np.int64), unit, threshold, cap,
            seed=table_seed["v"] * 31 + t_id,
        )
        return pa.table(
            {
                "a": pa.array(a),
                "b": pa.array(b),
                "cosine": pa.array(s),
            }
        )

    pairs = (
        ds.map_batches(add_buckets, batch_format="pyarrow")
        .groupby(["table", "bucket"])
        .map_groups(bucket_pairs, batch_format="pyarrow")
    )
    return dedup_pairs_sharded(pairs, value_col="cosine", reduce="max")


# ---------------------------------------------------------------------------
# Edit-distance (Levenshtein) similarity join
# ---------------------------------------------------------------------------

def _seg_bounds(length: int, d: int) -> list[tuple[int, int]]:
    """Even partition of [0, length) into d+1 contiguous segments."""
    return [
        (i * length // (d + 1), (i + 1) * length // (d + 1))
        for i in range(d + 1)
    ]


def _lev_batch(a_list: list[bytes], b_list: list[bytes],
               cap: int | None = None) -> np.ndarray:
    """Levenshtein distance for N byte-string pairs, vectorized over the
    PAIR axis: the classic DP grid is walked once (len_a x len_b scalar
    steps, strings are short keys), each cell updating an N-vector.
    O(N * La * Lb) total work but only La*Lb numpy dispatches.  BYTE-level
    edits — the DuckDB ``levenshtein`` convention.

    With ``cap`` set, the DP is BAND-LIMITED to |i - j| <= cap: any
    alignment leaving the band costs > cap edits, so distances <= cap are
    exact and larger ones are reported as cap + 1 — 2*cap+1 column
    dispatches per row instead of len_b (a ~6x cut at the max_dist=2 /
    key_len=32 defaults of :func:`edit_distance_pairs`)."""
    n = len(a_list)
    if n == 0:
        return np.empty(0, np.int64)
    la = np.array([len(s) for s in a_list], np.int64)
    lb = np.array([len(s) for s in b_list], np.int64)
    ma, mb = int(la.max()), int(lb.max())
    A = np.zeros((n, ma), np.int64)
    B = np.zeros((n, mb), np.int64)
    for r, s in enumerate(a_list):
        if s:
            A[r, : len(s)] = np.frombuffer(s, np.uint8)
    for r, s in enumerate(b_list):
        if s:
            B[r, : len(s)] = np.frombuffer(s, np.uint8)
    out = np.empty(n, np.int64)
    done = la == 0
    out[done] = lb[done]
    big = (cap + 1) if cap is not None else (ma + mb + 1)
    prev = np.broadcast_to(np.arange(mb + 1, dtype=np.int64), (n, mb + 1)).copy()
    if cap is not None:
        np.minimum(prev, big, out=prev)
        out[done] = np.minimum(out[done], big)
    for i in range(1, ma + 1):
        jlo = max(1, i - cap) if cap is not None else 1
        jhi = min(mb, i + cap) if cap is not None else mb
        if cap is not None:
            cur = np.full_like(prev, big)
            if i <= cap:
                cur[:, 0] = i
        else:
            cur = np.empty_like(prev)
            cur[:, 0] = i
        ai = A[:, i - 1]
        for j in range(jlo, jhi + 1):
            sub = prev[:, j - 1] + (ai != B[:, j - 1])
            cur[:, j] = np.minimum(np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1), sub)
            if cap is not None:
                np.minimum(cur[:, j], big, out=cur[:, j])
        hit = la == i
        if hit.any():
            out[hit] = cur[hit, lb[hit]]
        prev = cur
    return out


def edit_distance_pairs(ds, max_dist: int = 2, key_len: int = 32,
                        id_col: str = "doc_id", text_col: str = "text"):
    """Near-dup pairs by Levenshtein distance <= ``max_dist`` over the
    ``key_len``-char text prefix — the title/short-string fuzzy join.

    Candidate generation is PassJoin-style pigeonhole banding: each key is
    partitioned into d+1 contiguous segments (the "chunk" role); if
    lev(a, b) <= d then a must contain one of b's segments EXACTLY, at a
    position shifted by at most d (the "window" role) — so chunk rows
    bucket with window substrings keyed by (segment idx, chunk length,
    content) and every true pair is caught by the theorem, never all
    pairs.  Both roles are emitted per record (self-join symmetry).  The
    wide exchange moves (bucket_hash, id, key) rows — keys are capped at
    ``key_len`` chars, so payloads are band-row-sized, not document-sized
    (the round-1 ngram lesson).  Exact verification (vectorized pair-axis
    DP) runs INSIDE the bucket task where both keys are already present;
    a final narrow exchange dedups (a, b, dist) rows.
    """

    d = int(max_dist)

    from ..functions.hashing import stable_hash64

    def _bkey(i: int, plen: int, sub: bytes) -> int:
        # process-independent (Python's hash() is per-process salted)
        return stable_hash64(b"%d\x1f%d\x1f" % (i, plen) + sub) & ((1 << 63) - 1)

    def emit(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy().astype(np.int64, copy=False)
        texts = batch[text_col].to_pylist()
        out_b, out_id, out_key, out_role = [], [], [], []
        for did, t in zip(ids, texts):
            # key = first key_len CHARS (SQL substr convention), edits
            # counted over its UTF-8 BYTES (SQL levenshtein convention)
            key = (t or "")[:key_len].encode("utf-8")
            la = len(key)
            # chunk role: own segments, bucket tagged with own length
            for i, (s, e) in enumerate(_seg_bounds(la, d)):
                out_b.append(_bkey(i, la, key[s:e]))
                out_id.append(did)
                out_key.append(key)
                out_role.append(0)
            # window role: substrings matching any partner length within d
            # (partner lengths are BYTE lengths — no key_len cap, multibyte
            # chars make byte length exceed the char cap)
            seen = set()
            for lb in range(max(la - d, 0), la + d + 1):
                for i, (s, e) in enumerate(_seg_bounds(lb, d)):
                    seglen = e - s
                    for p in range(max(s - d, 0), min(s + d, la - seglen) + 1):
                        k = (i, lb, key[p : p + seglen])
                        if k not in seen:
                            seen.add(k)
                            out_b.append(_bkey(*k))
                            out_id.append(did)
                            out_key.append(key)
                            out_role.append(1)
        return pa.table({
            "_bucket": pa.array(out_b, pa.int64()),
            "_id": pa.array(out_id, pa.int64()),
            "_key": pa.array(out_key, pa.binary()),
            "_role": pa.array(out_role, pa.int8()),
        })

    def verify(group: pa.Table) -> pa.Table:
        n = group.num_rows
        bucket = group["_bucket"].to_numpy(zero_copy_only=False)
        ids = group["_id"].to_numpy(zero_copy_only=False)
        role = group["_role"].to_numpy(zero_copy_only=False)
        keys = group["_key"].to_pylist()
        order = np.lexsort((ids, role, bucket))
        bucket, ids, role = bucket[order], ids[order], role[order]
        keys = [keys[i] for i in order]
        starts = np.flatnonzero(
            np.r_[True, bucket[1:] != bucket[:-1]]
        )
        ends = np.r_[starts[1:], n]
        pair_a, pair_b, ka, kb = [], [], [], []
        seen: set[tuple[int, int]] = set()
        for s, e in zip(starts, ends):
            # roles are contiguous (sorted): chunks first, then windows
            mid = s + int((role[s:e] == 0).sum())
            if mid == s or mid == e:
                continue
            for ci in range(s, mid):
                for wi in range(mid, e):
                    x, y = int(ids[ci]), int(ids[wi])
                    if x == y:
                        continue
                    p = (x, y) if x < y else (y, x)
                    if p in seen:
                        continue
                    seen.add(p)
                    pair_a.append(p[0])
                    pair_b.append(p[1])
                    ka.append(keys[ci])
                    kb.append(keys[wi])
        dist = _lev_batch(ka, kb, cap=d)  # banded: exact for dist <= d
        keep = dist <= d
        return pa.table({
            "a": pa.array(np.array(pair_a, np.int64)[keep], pa.int64()),
            "b": pa.array(np.array(pair_b, np.int64)[keep], pa.int64()),
            "dist": pa.array(dist[keep], pa.int64()),
        })

    pairs = shard_apply(ds, ["_bucket"], verify, prepare=emit)
    deduped = dedup_pairs_sharded(pairs, value_col="dist", reduce="min")

    def int_dist(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.column_names.index("dist"), "dist",
            pc.cast(pc.round(batch["dist"]), pa.int64()),
        )

    return deduped.map_batches(int_dist, batch_format="pyarrow")


MINHASH_INDEX_BUCKETS = 16


def build_minhash_index(ds, index_dir: str, num_perm: int = 128,
                        num_bands: int = 32, ngram: int = 5,
                        id_col: str = "doc_id", text_col: str = "text",
                        concurrency=(1, 8)) -> dict:
    """Build a PERSISTED MinHash-LSH band index — the online-dedup pattern:
    index the corpus once, then stream NEW documents against it
    (:func:`minhash_index_query`) without re-signing the corpus.

    Layout: ``{index_dir}/bands/band_p=<b>/bucket_p=<band_hash % 16>/``
    hive partitions of (band, band_hash, doc_id) rows + ``meta.json``
    pinning the signature parameters (a query MUST hash with the same
    permutations — enforced by reading them back).  A query touches only
    the (band, bucket) partitions its new docs' band hashes land in — a
    directory-level read skip, the LSH analogue of the IVF index's
    probed-cells-only search.
    """
    import json
    import os

    band_rows = ds.map_batches(
        MinHashSignatures,
        fn_constructor_kwargs=dict(
            num_perm=num_perm, num_bands=num_bands, ngram=ngram,
            id_col=id_col, text_col=text_col,
        ),
        batch_format="pyarrow",
        concurrency=concurrency,
    )

    def add_parts(batch: pa.Table) -> pa.Table:
        bh = batch["band_hash"].to_numpy().astype(np.uint64)
        return batch.append_column(
            "band_p", batch["band"]
        ).append_column(
            "bucket_p",
            pa.array((bh % np.uint64(MINHASH_INDEX_BUCKETS)).astype(np.int64)),
        )

    # SORT by the partition cols before writing: write_parquet emits one
    # file per (block x partition value) pair, so unsorted blocks that all
    # span all 512 (band, bucket) partitions explode into tens of
    # thousands of tiny files (measured 30k at sf0.1 — a 59 s query of
    # per-file open overhead); sorted blocks each cover a contiguous
    # partition range, capping files at ~blocks + partitions.
    band_rows.map_batches(add_parts, batch_format="pyarrow").sort(
        ["band_p", "bucket_p"]
    ).write_parquet(
        os.path.join(index_dir, "bands"), partition_cols=["band_p", "bucket_p"]
    )
    meta = {"num_perm": num_perm, "num_bands": num_bands, "ngram": ngram,
            "buckets": MINHASH_INDEX_BUCKETS}
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta


def minhash_index_query(index_dir: str, new_ds,
                        id_col: str = "doc_id", text_col: str = "text",
                        concurrency=(1, 8)):
    """Candidate pairs between NEW documents and an indexed corpus.

    The new batch signs with the index's pinned parameters; its band
    hashes select the (band, bucket) partitions to read — partitions no
    new hash lands in are never opened (see the read-skip pytest).  The
    new side's band rows are assumed index-batch-sized (the use case:
    daily crawl increment vs corpus index) and broadcast once via
    ``ray.put``; matches join in the read tasks, then the standard pair
    dedup.  Returns distinct (a, b) with a = indexed doc, b = new doc
    (a != b).  At corpus-sized "new" batches, co-partition both sides by
    (band, band_hash) instead (minhash_lsh_pairs' bucket stage).
    """
    import json
    import os

    import ray
    import ray.data

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)

    new_rows = new_ds.map_batches(
        MinHashSignatures,
        fn_constructor_kwargs=dict(
            num_perm=meta["num_perm"], num_bands=meta["num_bands"],
            ngram=meta["ngram"], id_col=id_col, text_col=text_col,
        ),
        batch_format="pyarrow",
        concurrency=concurrency,
    ).to_pandas()  # bounded: num_bands rows per NEW doc

    buckets = int(meta.get("buckets", MINHASH_INDEX_BUCKETS))
    new_rows["bucket"] = (
        new_rows["band_hash"].to_numpy().astype(np.uint64)
        % np.uint64(buckets)
    ).astype(np.int64)
    new_ref = ray.put(new_rows)

    # directory-level read skip: only partitions holding a new hash
    files = []
    for (band, bucket), _g in new_rows.groupby(["band", "bucket"]):
        d = os.path.join(index_dir, "bands",
                         f"band_p={int(band)}", f"bucket_p={int(bucket)}")
        if os.path.isdir(d):
            files.extend(
                os.path.join(d, f) for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            )
    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64())})
    if not files:
        return ray.data.from_arrow(empty)

    def match(batch: pa.Table, _r=new_ref) -> pa.Table:
        nr = ray.get(_r)
        import pandas as pd

        got = batch.select(["band", "band_hash", "doc_id"]).to_pandas()
        j = got.merge(nr[["band", "band_hash", "doc_id"]],
                      on=["band", "band_hash"], suffixes=("_old", "_new"))
        j = j[j["doc_id_old"] != j["doc_id_new"]]
        return pa.table({
            "a": pa.array(j["doc_id_old"].to_numpy(np.int64)),
            "b": pa.array(j["doc_id_new"].to_numpy(np.int64)),
        })

    matches = ray.data.read_parquet(files).map_batches(
        match, batch_format="pyarrow"
    )
    return dedup_pairs_sharded(matches)
