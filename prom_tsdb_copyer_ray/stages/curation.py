"""Corpus-curation operators for LLM training-data preparation.

The reference engine's job is filter/transform/rollup over time-series
records (``copyer.go:92-156`` per-record map, ``main.go:153-158``
predicates); a 100 TB *training-data* pipeline needs the same shapes over
documents: repetition/quality statistics, benchmark decontamination,
stratified + weighted sampling, normalization, chunking, and sequence
packing.  Every operator here is a vectorized Arrow/NumPy batch kernel —
no per-row Python in any hot path — and each has a DuckDB-mirrorable
definition so the driver can value-check it (pipelines/queries.py).

Scale notes per operator are in the docstrings; the common theme: per-doc
statistics are embarrassingly parallel ``map_batches`` (docs are single
rows — no grouping shuffle at all), decontamination broadcasts the
benchmark-gram set once (``ray.put``) instead of shuffle-joining the
corpus, and sequence packing is a two-pass distributed prefix-sum (scan)
whose exchanged state is two ints per *block*, not per row.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import token_count

# Tokenization shared with functions.text.token_count / the SQL oracles:
# split trimmed text on runs of blank characters.  Keep IDENTICAL to the
# DuckDB expression `regexp_split_to_array(trim(text, ' \t\r\n'), '[ \t\r\n]+')`.
_WS = " \t\r\n"
_TOKEN_SPLIT = r"[ \t\r\n]+"
# Deterministic Lehmer ranks (MINSTD): exact in int64 on both engines —
# DuckDB mirrors `(id * 48271) % 2147483647` literally.
_LEHMER_A = 48271
_LEHMER_M = 2147483647


def _flat_tokens(texts: pa.ChunkedArray | pa.Array) -> tuple[pa.Array, np.ndarray, int]:
    """Whitespace tokens of a string column, flattened.

    Returns ``(flat_tokens, row_idx, n_rows)`` where ``row_idx[i]`` is the
    row the i-th token came from.  Empty / blank-only rows contribute zero
    tokens (the SQL side guards with a CASE on the trimmed string).  Fully
    vectorized: one trim + one regex split + offsets math.
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    s = pc.fill_null(pc.cast(texts, pa.string()), "")
    trimmed = pc.utf8_trim(s, _WS)
    lists = pc.split_pattern_regex(trimmed, _TOKEN_SPLIT)
    lengths = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(s)
    flat = pc.list_flatten(lists)
    row_idx = np.repeat(np.arange(n, dtype=np.int64), lengths)
    # a blank row splits to [''] — drop that artifact (real tokens are
    # never empty: trim removed boundary blanks and the split pattern is +)
    keep = pc.not_equal(flat, "")
    if not bool(pc.all(keep).as_py() if len(flat) else True):
        keep_np = keep.to_numpy(zero_copy_only=False)
        flat = flat.filter(keep)
        row_idx = row_idx[keep_np]
    return flat, row_idx, n


def lehmer_rank(ids: np.ndarray) -> np.ndarray:
    """Deterministic pseudo-random rank of an int64 id column; SQL-exact."""
    return (ids.astype(np.int64) * _LEHMER_A) % _LEHMER_M


# ---------------------------------------------------------------------------
# Repetition statistics (Gopher-style quality signals)
# ---------------------------------------------------------------------------

def repetition_stats_batch(batch: pa.Table, text_col: str = "text",
                           id_col: str = "doc_id") -> pa.Table:
    """Per-document token-repetition counters (integer, SQL-mirrorable).

    Emits ``n_tokens``, ``n_distinct_tokens`` and ``max_gram2_count`` (the
    highest occurrence count of any adjacent token 2-gram).  Downstream
    filters derive the Gopher-style ratios (duplicate-token fraction,
    top-2-gram fraction); integers keep the DuckDB value-hash exact.

    Scale: documents are single rows, so this is a pure ``map_batches``
    stage — no shuffle.  The kernel is one dictionary-encode plus
    ``np.unique`` passes over the flattened token stream (no per-row loop).
    """
    flat, row_idx, n = _flat_tokens(batch[text_col])
    n_tokens = np.bincount(row_idx, minlength=n).astype(np.int64)
    n_distinct = np.zeros(n, dtype=np.int64)
    max_g2 = np.zeros(n, dtype=np.int64)
    if len(flat):
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        k = len(enc.dictionary)
        uniq_pairs = np.unique(row_idx * k + codes)
        np.add.at(n_distinct, uniq_pairs // k, 1)
        # adjacent 2-grams within a row
        if len(codes) > 1:
            adj = row_idx[:-1] == row_idx[1:]
            g_row = row_idx[:-1][adj]
            pair_code = codes[:-1][adj] * k + codes[1:][adj]
            if len(pair_code):
                # re-factorize pair codes so the (row, pair) composite
                # cannot overflow int64 regardless of vocabulary size
                pu, pinv = np.unique(pair_code, return_inverse=True)
                comp, counts = np.unique(g_row * len(pu) + pinv, return_counts=True)
                np.maximum.at(max_g2, comp // len(pu), counts)
    return pa.table({
        id_col: batch[id_col],
        "n_tokens": pa.array(n_tokens, pa.int64()),
        "n_distinct_tokens": pa.array(n_distinct, pa.int64()),
        "max_gram2_count": pa.array(max_g2, pa.int64()),
    })


def add_repetition_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    return ds.map_batches(
        lambda b: repetition_stats_batch(b, text_col, id_col),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Benchmark decontamination (n-gram overlap)
# ---------------------------------------------------------------------------

def _gram_strings(texts, n: int) -> tuple[pa.Array, np.ndarray, np.ndarray, int]:
    """All token n-gram strings (tokens joined by ``\\x01``) of a column.

    Returns ``(grams, gram_row, valid, n_rows)``: position i is the gram
    starting at flat-token i; ``valid`` masks grams that would span two
    documents.  Vectorized: n shifted zero-copy slices of the flat token
    array joined element-wise.
    """
    flat, row_idx, rows = _flat_tokens(texts)
    total = len(flat)
    if total < n:
        return pa.array([], pa.string()), np.empty(0, np.int64), np.empty(0, bool), rows
    m = total - n + 1
    slices = [flat.slice(i, m) for i in range(n)]
    grams = pc.binary_join_element_wise(*slices, "\x01")
    valid = row_idx[:m] == row_idx[n - 1:]
    return grams, row_idx[:m], valid, rows


def decontaminate(ds, id_col: str = "doc_id", text_col: str = "text",
                  bench_mod: int = 53, n: int = 4):
    """Flag documents sharing any token ``n``-gram with a benchmark set.

    The benchmark here is the deterministic slice ``id % bench_mod == 0``
    (stand-in for a held-out eval suite).  Two passes over the corpus:

    1. benchmark pass — per-batch DISTINCT gram strings of benchmark docs
       only, set-unioned on the driver and broadcast once via ``ray.put``
       (real decontamination benchmarks are MB-scale suites, orders of
       magnitude smaller than the corpus; the broadcast replaces a
       corpus-wide shuffle join on gram hash);
    2. scoring pass — vectorized ``pc.is_in`` membership of every doc's
       grams against the broadcast set; emits ``(id, n_hit_grams)`` for
       contaminated non-benchmark docs only.

    Exact string grams (not hashes) so a DuckDB semi-join oracle matches
    bit-for-bit.
    """
    import ray

    def bench_grams(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(ids % bench_mod == 0))
        grams, _, valid, _ = _gram_strings(sub[text_col], n)
        if len(grams) == 0:
            return pa.table({"g": pa.array([], pa.string())})
        return pa.table({"g": pc.unique(grams.filter(pa.array(valid)))})

    gram_set: set[str] = set()
    for part in ds.map_batches(bench_grams, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        gram_set.update(part["g"].to_pylist())
    bench_ref = ray.put(pa.array(sorted(gram_set), pa.string()))

    def score(batch: pa.Table) -> pa.Table:
        bench = ray.get(bench_ref)  # zero-copy from the local object store
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        grams, gram_row, valid, rows = _gram_strings(batch[text_col], n)
        hits = np.zeros(rows, dtype=np.int64)
        if len(grams) and len(bench):
            hit = pc.is_in(grams, value_set=bench).to_numpy(zero_copy_only=False)
            hit &= valid
            np.add.at(hits, gram_row[hit], 1)
        keep = (hits > 0) & (ids % bench_mod != 0)
        return pa.table({
            id_col: pa.array(ids[keep], pa.int64()),
            "n_hit_grams": pa.array(hits[keep], pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Sampling: stratified per group + weighted source mixing
# ---------------------------------------------------------------------------

def stratified_sample(ds, key_cols: list[str], id_col: str = "doc_id",
                      k: int = 5):
    """Deterministic k-per-group sample: smallest Lehmer rank wins.

    ``rank = (id * 48271) % 2147483647`` — exact integer math both engines
    can do, so the SQL oracle is a ``row_number() OVER (PARTITION BY ...
    ORDER BY rank, id)`` filter.  Composition: add the rank column, then
    :func:`stages.keyed.topk_per_group` ascending (per-batch combiner keeps
    k rows per group per batch — the shuffle moves winners only).
    """
    from .keyed import topk_per_group

    def add_rank(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return batch.append_column("rank", pa.array(lehmer_rank(ids), pa.int64()))

    ranked = ds.map_batches(add_rank, batch_format="pyarrow")
    return topk_per_group(ranked, list(key_cols), "rank", k,
                          tiebreak_col=id_col, descending=False)


def mix_sources(ds, weight_fn_sql_mirrored, id_col: str = "doc_id",
                source_col: str = "source"):
    """Weighted per-source downsampling (domain mixing).

    Keeps a row iff ``rank(id) * 10 < w10(source) * M`` — i.e. keep
    probability ``w10/10`` per source, decided by exact integer math on the
    deterministic Lehmer rank (no floats, no RNG state; identical row set
    on every engine and every run).  ``weight_fn_sql_mirrored(sources) ->
    int ndarray`` returns tenths (0..10) per row.

    Scale: pure filter — no shuffle; downstream per-source counts use the
    sharded segment aggregate.
    """
    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        w10 = weight_fn_sql_mirrored(batch[source_col])
        mask = lehmer_rank(ids) * 10 < w10.astype(np.int64) * _LEHMER_M
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Normalization + chunking
# ---------------------------------------------------------------------------

def normalize_text_batch(batch: pa.Table, text_col: str = "text",
                         id_col: str = "doc_id") -> pa.Table:
    """NFC-normalize, lowercase, collapse blank runs to single spaces, trim.

    Mirrors DuckDB ``trim(regexp_replace(lower(nfc_normalize(text)),
    '[ \\t\\r\\n]+', ' ', 'g'))`` — both engines are Unicode-aware for
    lower() and RE2 for the replace, so outputs agree byte-for-byte.

    NFC note: ``pc.utf8_normalize(form="NFC")`` in pyarrow 16 emits
    DECOMPOSED output (observed: NFC of U+013A -> l + U+0301), so it cannot
    be used.  ASCII is NFC-invariant, so the kernel stays fully vectorized
    on ASCII rows (one regex scan to find the exceptions) and only
    non-ASCII rows take the scalar ``unicodedata.normalize`` path.
    """
    s = pc.fill_null(pc.cast(batch[text_col], pa.string()), "")
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    non_ascii = pc.match_substring_regex(s, r"[^\x00-\x7F]")
    if bool(pc.any(non_ascii).as_py() or False):
        import unicodedata

        idx = np.flatnonzero(non_ascii.to_numpy(zero_copy_only=False))
        vals = s.to_pylist()
        for i in idx:
            vals[i] = unicodedata.normalize("NFC", vals[i])
        s = pa.array(vals, pa.string())
    norm = pc.utf8_lower(s)
    norm = pc.replace_substring_regex(norm, pattern=_TOKEN_SPLIT, replacement=" ")
    norm = pc.utf8_trim(norm, " ")
    return pa.table({
        id_col: batch[id_col],
        "norm_text": norm,
        "n_chars_norm": pc.cast(pc.utf8_length(norm), pa.int64()),
    })


def add_normalized_text(ds, text_col: str = "text", id_col: str = "doc_id"):
    return ds.map_batches(
        lambda b: normalize_text_batch(b, text_col, id_col), batch_format="pyarrow"
    )


def chunk_docs(ds, size: int, text_col: str = "text", id_col: str = "doc_id"):
    """Split each document into fixed-size character chunks (flat-map).

    Emits ``(id, chunk_idx, chunk_text)`` with ``ceil(len/size)`` chunks
    per doc; empty docs emit nothing.  Vectorized: the per-batch loop runs
    over CHUNK POSITIONS (max ceil(max_len/size) iterations), each doing a
    column-level slice + filter — never over rows.  At 100 TB this is the
    map stage that feeds tokenize/pack; output rows carry only the chunk
    text, so total output bytes ≈ input text bytes.
    """
    def fn(batch: pa.Table) -> pa.Table:
        s = pc.fill_null(pc.cast(batch[text_col], pa.string()), "")
        lens = pc.utf8_length(s).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(lens) == 0 or lens.max() == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "chunk_idx": pa.array([], pa.int64()),
                             "chunk_text": pa.array([], pa.string())})
        ids = batch[id_col]
        parts = []
        for i in range(int(math.ceil(lens.max() / size))):
            mask = pa.array(lens > i * size)
            sub = pc.utf8_slice_codeunits(s.combine_chunks() if isinstance(s, pa.ChunkedArray) else s,
                                          start=i * size, stop=(i + 1) * size)
            parts.append(pa.table({
                id_col: ids.filter(mask),
                "chunk_idx": pa.array(np.full(int(np.count_nonzero(mask)), i, np.int64)),
                "chunk_text": sub.filter(mask),
            }))
        return pa.concat_tables(parts)

    return ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Sequence packing (distributed prefix-sum scan)
# ---------------------------------------------------------------------------

def pack_sequences(ds, seq_len: int, id_col: str = "doc_id",
                   text_col: str = "text"):
    """Greedy stream-packing of documents into fixed token-budget sequences.

    Semantics (SQL-mirrorable): documents ordered by id form one token
    stream; a document belongs to the sequence where it STARTS —
    ``seq_id = floor(tokens_before / seq_len)`` with ``tokens_before`` the
    exclusive prefix sum of token counts in id order.  Output: one row per
    sequence with ``n_docs`` and ``n_tokens``.

    Execution is a two-pass distributed SCAN (the classic prefix-sum
    pattern — Ray Data has no native scan operator):

    1. project ``(id, n_tok)`` (two ints/doc — the only state that moves),
       sort by id, materialize so both passes see identical blocks;
    2. block-metadata pass: one ``(min_id, block_sum)`` row PER BLOCK to
       the driver (KBs at any scale), exclusive-cumsum → per-block offsets;
    3. assignment pass over the same blocks: within-block cumsum + the
       block offset, then per-block partial (seq_id, n_docs, n_tokens)
       rows into the sharded segment aggregate (a boundary-spanning
       sequence merges there).

    Scale: the sort moves 16 bytes/doc; the driver sees one row per block;
    no stage materializes text.
    """
    from .keyed import sharded_grouped_agg

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            id_col: pc.cast(batch[id_col], pa.int64()),
            "n_tok": token_count(batch[text_col]),
        })

    pairs = ds.map_batches(project, batch_format="pyarrow").sort(id_col).materialize()

    def block_meta(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"min_id": pa.array([], pa.int64()),
                             "bsum": pa.array([], pa.int64())})
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table({
            "min_id": pa.array([int(ids.min())], pa.int64()),
            "bsum": pa.array([int(batch["n_tok"].to_numpy(zero_copy_only=False).sum())],
                             pa.int64()),
        })

    metas = sorted(
        (r["min_id"], r["bsum"])
        for r in pairs.map_batches(block_meta, batch_size=None,
                                   batch_format="pyarrow").take_all()
    )
    offsets: dict[int, int] = {}
    acc = 0
    for min_id, bsum in metas:
        offsets[min_id] = acc
        acc += bsum

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"seq_id": pa.array([], pa.int64()),
                             "n_docs": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64())})
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        ntok = batch["n_tok"].to_numpy(zero_copy_only=False).astype(np.int64)
        before = offsets[int(ids.min())] + np.cumsum(ntok) - ntok
        return pa.table({
            "seq_id": pa.array(before // seq_len, pa.int64()),
            "n_docs": pa.array(np.ones(len(ntok), np.int64)),
            "n_tokens": pa.array(ntok, pa.int64()),
        })

    parts = pairs.map_batches(assign, batch_size=None, batch_format="pyarrow")
    return sharded_grouped_agg(parts, ["seq_id"],
                               [("n_docs", "sum"), ("n_tokens", "sum")])


def duplicate_gram_stats(ds, id_col: str = "doc_id", text_col: str = "text",
                         n: int = 3):
    """Per-doc duplicate n-gram statistics (RefinedWeb-style dup analysis).

    For every document: ``n_grams`` = its DISTINCT token ``n``-grams, and
    ``n_dup_grams`` = how many of those also occur in at least one OTHER
    document.  The dup fraction (``n_dup_grams / n_grams``) is the standard
    cross-document contamination signal used to drop boilerplate-heavy
    pages before training.

    Scale shape — two narrow exchanges, no all-pairs anywhere:

    1. per-batch combiner: distinct (gram, doc_id) pairs (Arrow
       ``group_by``), hash-sharded by GRAM so a gram's global document set
       lands in one shard task;
    2. per shard: one sort + segment sizes = each gram's document
       frequency; rows fold to per-doc partial (n_grams, n_dup_grams)
       counts before leaving the task;
    3. final: the sharded segment sum by doc id (``sharded_grouped_agg``).

    Exact gram STRINGS move through shuffle 1 so a DuckDB join oracle
    matches bit-for-bit; at extreme scale swap in 64-bit gram hashes (the
    only change is the pair projection) and accept the ~n²/2⁶⁴ collision
    odds.  Docs with fewer than ``n`` tokens emit nothing (no grams).
    """
    from .common import shard_apply
    from .keyed import _segment_starts, sharded_grouped_agg

    def pairs(batch: pa.Table) -> pa.Table:
        grams, gram_row, valid, _ = _gram_strings(batch[text_col], n)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = pa.array(valid)
        t = pa.table({
            "g": grams.filter(keep),
            id_col: pa.array(ids[gram_row[valid]], pa.int64()),
        })
        return t.group_by(["g", id_col]).aggregate([])  # distinct per batch

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([("g", "ascending"), (id_col, "ascending")])
        # cross-batch distinct: a (gram, doc) pair can arrive once per batch
        firsts = _segment_starts(t, ["g", id_col])
        t = t.filter(pa.array(firsts))
        starts = np.flatnonzero(_segment_starts(t, ["g"]))
        sizes = np.diff(np.r_[starts, t.num_rows])
        dup_flag = np.repeat(sizes >= 2, sizes).astype(np.int64)
        agg = (
            pa.table({
                id_col: t[id_col],
                "n_grams": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
                "n_dup_grams": pa.array(dup_flag, pa.int64()),
            })
            .group_by(id_col)
            .aggregate([("n_grams", "sum"), ("n_dup_grams", "sum")])
        )
        return pa.table({
            id_col: agg[id_col],
            "n_grams": agg["n_grams_sum"],
            "n_dup_grams": agg["n_dup_grams_sum"],
        })

    sharded = shard_apply(ds, ["g"], per_shard, prepare=pairs)
    return sharded_grouped_agg(
        sharded, [id_col], [("n_grams", "sum"), ("n_dup_grams", "sum")]
    )


def global_shuffle_order(ds, id_col: str = "doc_id"):
    """Deterministic global training-data shuffle: every row gets a unique
    shuffle position.

    Rank = Lehmer permutation of the id (exact integer math both engines
    can run literally), then a DISTRIBUTED range-partitioned sort by rank,
    then global positions via the block-offset scan (one ``(min_rank,
    count)`` row per block to the driver — KBs at any scale; the classic
    two-pass prefix-sum, same machinery as :func:`pack_sequences`).

    This is how a 100 TB corpus gets a reproducible epoch order without
    ``random_shuffle``'s full materialization: the sort moves 16 bytes/row
    and the output (id, rank, pos) joins back to payloads by id wherever
    the training loader runs.
    """

    def project(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "rank": pa.array(lehmer_rank(ids), pa.int64()),
        })

    pairs = ds.map_batches(project, batch_format="pyarrow").sort("rank").materialize()

    def block_meta(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"min_rank": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        r = batch["rank"].to_numpy(zero_copy_only=False)
        return pa.table({
            "min_rank": pa.array([int(r.min())], pa.int64()),
            "cnt": pa.array([batch.num_rows], pa.int64()),
        })

    metas = sorted(
        (row["min_rank"], row["cnt"])
        for row in pairs.map_batches(
            block_meta, batch_size=None, batch_format="pyarrow"
        ).take_all()
    )
    offsets: dict[int, int] = {}
    acc = 0
    for min_rank, cnt in metas:
        offsets[min_rank] = acc
        acc += cnt

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "rank": pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64())})
        r = batch["rank"].to_numpy(zero_copy_only=False)
        base = offsets[int(r.min())]
        # rows within a sorted block are rank-ordered; ranks are unique
        # (Lehmer is a permutation and ids are unique)
        order = np.argsort(r, kind="stable")
        pos = np.empty(len(r), dtype=np.int64)
        pos[order] = base + np.arange(len(r), dtype=np.int64)
        return batch.append_column("pos", pa.array(pos, pa.int64()))

    return pairs.map_batches(assign, batch_size=None, batch_format="pyarrow")


def quantile_threshold_filter(ds, key_col: str, id_col: str = "doc_id",
                              text_col: str = "text", q: float = 0.25):
    """Per-group quantile-threshold quality filter with summary.

    For each group (e.g. language): threshold = the group's exact
    ``quantile_disc(q)`` of per-doc token counts; keep docs at or above it;
    emit one summary row per group (threshold, kept count, kept token
    mass).  This is the standard "drop the shortest quartile per language"
    curation step.

    Scale shape: token counting is a shuffle-free combiner pass; the exact
    quantile runs on the projected (key, n_tokens) pairs
    (:func:`~..stages.keyed.group_quantiles` — the one honest per-value
    exchange); thresholds are O(groups) rows, collected once on the driver
    and BROADCAST into the filter closure (``ray.put`` pattern — groups are
    languages/sources, never corpus-scale); the final summary is a
    bounded-key aggregate.
    """
    import ray

    from .keyed import group_quantiles

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            key_col: batch[key_col],
            "n_tokens": token_count(batch[text_col]),
        })

    pairs = ds.map_batches(project, batch_format="pyarrow")
    qname = f"p{q * 100:g}"
    th_rows = group_quantiles(pairs, [key_col], "n_tokens", qs=(q,)).take_all()
    thresholds = {r[key_col]: int(r[qname]) for r in th_rows}
    th_ref = ray.put(thresholds)

    def partial(batch: pa.Table) -> pa.Table:
        th = ray.get(th_ref)
        th_keys = pa.array(list(th), pa.string())
        th_vals = np.fromiter(th.values(), dtype=np.int64, count=len(th))
        ntok = token_count(batch[text_col]).to_numpy(zero_copy_only=False)
        # vectorized dict lookup: index_in against the broadcast key list
        idx = pc.fill_null(
            pc.index_in(pc.cast(batch[key_col], pa.string()), value_set=th_keys), -1
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        miss = idx < 0
        bounds = th_vals[np.where(miss, 0, idx)] if len(th) else np.zeros(len(idx), np.int64)
        bounds[miss] = 0
        keep = pa.array(ntok >= bounds)
        t = pa.table({
            key_col: batch[key_col].filter(keep),
            "n_tokens": pa.array(ntok, pa.int64()).filter(keep),
        })
        return t.group_by(key_col).aggregate(
            [("n_tokens", "count"), ("n_tokens", "sum")]
        )

    agg = ds.map_batches(partial, batch_format="pyarrow")
    # groups are bounded (languages) -> Ray's per-key aggregate is fine here
    final = agg.groupby(key_col).sum(["n_tokens_count", "n_tokens_sum"])

    def finish(batch: pa.Table) -> pa.Table:
        th = ray.get(th_ref)
        keys = batch[key_col].to_pylist()
        return pa.table({
            key_col: batch[key_col],
            qname: pa.array([th.get(k, 0) for k in keys], pa.int64()),
            "n_kept": pc.cast(batch["sum(n_tokens_count)"], pa.int64()),
            "sum_tokens_kept": pc.cast(batch["sum(n_tokens_sum)"], pa.int64()),
        })

    return final.map_batches(finish, batch_format="pyarrow")


def profile_columns(ds, cols: list[str]):
    """Data-quality profile: per column, non-null / null counts and the
    EXACT distinct cardinality, in one battery (the assertion pass a
    pipeline runs before training on a new corpus drop).

    Scale shape: null counts are per-batch scalars summed on the driver
    (no shuffle); distincts collapse per batch to (column, value) string
    pairs (a true combiner — each batch contributes a value once) and
    cross-batch dedup happens in ONE pair-hash exchange, counting per
    shard — the same shape as count_distinct_per_group with the column
    name as the key.  Values profile by their string cast (identity only,
    never returned).  Output: column, n_nonnull, n_null, n_distinct.
    """
    from .common import shard_apply

    def counts(batch: pa.Table) -> pa.Table:
        rows = []
        for c in cols:
            col = batch[c]
            nulls = col.null_count
            rows.append({"column": c, "nn": len(col) - nulls, "nu": nulls})
        return pa.Table.from_pylist(rows)

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        pieces = []
        for c in cols:
            vals = pc.cast(batch[c], pa.large_string())
            u = pc.unique(pc.drop_null(vals))
            pieces.append(pa.table({
                "column": pa.array([c] * len(u), pa.string()),
                "val": u,
            }))
        return pa.concat_tables(pieces)

    def shard_count(t: pa.Table) -> pa.Table:
        g = t.group_by(["column", "val"]).aggregate([])
        return g.group_by(["column"]).aggregate([([], "count_all")]) \
                .rename_columns(["column", "nd"])

    cnt_rows = ds.map_batches(counts, batch_format="pyarrow").take_all()
    nd_rows = shard_apply(ds, ["column", "val"], shard_count,
                          prepare=distinct_pairs).take_all()
    nn = {c: 0 for c in cols}
    nu = {c: 0 for c in cols}
    for r in cnt_rows:
        nn[r["column"]] += r["nn"]
        nu[r["column"]] += r["nu"]
    nd = {c: 0 for c in cols}
    for r in nd_rows:
        nd[r["column"]] += r["nd"]
    import ray

    return ray.data.from_arrow(pa.table({
        "column": pa.array(cols, pa.string()),
        "n_nonnull": pa.array([nn[c] for c in cols], pa.int64()),
        "n_null": pa.array([nu[c] for c in cols], pa.int64()),
        "n_distinct": pa.array([nd[c] for c in cols], pa.int64()),
    }))


def dup_span_stats(ds, text_col: str = "text", id_col: str = "doc_id",
                   window: int = 40, stride: int = 8):
    """Exact substring-duplication signal (the fixed-window form of
    Lee et al. 2022's exact substring dedup): every ``window``-char
    slice at ``stride`` offsets is a span key; a span occurring in >= 2
    DISTINCT docs is duplicated, and each doc reports how many of its
    spans are.  The high-dup-fraction docs are the boilerplate /
    mirrored content exact n-gram dedup misses at token granularity.

    Scale shape: span extraction is a per-POSITION column kernel loop
    (ceil(max_len/stride) vectorized ``utf8_slice_codeunits`` calls — the
    chunk_docs pattern, no per-row Python); ONE wide exchange moves
    (span, doc_id) rows — fixed ``window`` bytes each, the bounded-payload
    lesson from the round-1 ngram review; per shard a lexsort marks
    multi-doc spans and folds (doc, n, n_dup) partials; a narrow
    doc-sharded sum finishes.  At 100 TB swap the span string for its
    64-bit rolling hash (same shape, 8-byte rows, collision probability
    ~n^2/2^64 documented) — the string key keeps this SQL-oracle-exact.

    Output: (doc_id, n_windows, n_dup) — docs shorter than ``window``
    have no spans and emit nothing (SQL GROUP BY parity).
    """
    from ..stages.common import shard_apply
    from ..stages.keyed import _segment_starts, sharded_grouped_agg

    def spans(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(pc.cast(batch[text_col], pa.string()), "")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        ids = pc.cast(batch[id_col], pa.int64())
        lens = pc.utf8_length(text).to_numpy(zero_copy_only=False)
        max_k = int(max(0, (lens.max() - window) // stride + 1)) if len(lens) else 0
        win_parts, id_parts = [], []
        for k in range(max_k):
            start = k * stride
            keep = lens >= start + window
            if not keep.any():
                break
            mask = pa.array(keep)
            win_parts.append(
                pc.utf8_slice_codeunits(text.filter(mask), start, start + window)
            )
            id_parts.append(ids.filter(mask))
        if not win_parts:
            return pa.table({"win": pa.array([], pa.string()),
                             id_col: pa.array([], pa.int64())})
        return pa.table({
            "win": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in win_parts]),
            id_col: pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in id_parts]),
        })

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([("win", "ascending"), (id_col, "ascending")])
        ids = t[id_col].to_numpy(zero_copy_only=False)
        new_win = _segment_starts(t, ["win"])
        starts = np.flatnonzero(new_win)
        sizes = np.diff(np.r_[starts, t.num_rows])
        # distinct docs per span: within a span segment ids are sorted
        new_doc = np.ones(t.num_rows, dtype=bool)
        new_doc[1:] = (ids[1:] != ids[:-1])
        new_doc |= new_win
        ndocs = np.add.reduceat(new_doc.astype(np.int64), starts)
        is_dup = np.repeat(ndocs > 1, sizes)
        # fold to per-doc partials within the shard
        order = np.argsort(ids, kind="stable")
        ids_s, dup_s = ids[order], is_dup[order]
        dstarts = np.flatnonzero(np.r_[True, ids_s[1:] != ids_s[:-1]])
        return pa.table({
            id_col: pa.array(ids_s[dstarts]),
            "n_windows": pa.array(
                np.diff(np.r_[dstarts, len(ids_s)]).astype(np.int64)),
            "n_dup": pa.array(
                np.add.reduceat(dup_s.astype(np.int64), dstarts)),
        })

    partials = shard_apply(ds, ["win"], per_shard, prepare=spans)
    return sharded_grouped_agg(
        partials, [id_col], [("n_windows", "sum"), ("n_dup", "sum")],
    )


def global_positions(ds, key_col: str):
    """Exact global 0-based positions by ascending UNIQUE int64 ``key_col``
    — :func:`global_shuffle_order`'s two-pass block-offset scan generalized
    to any caller-built sort key (e.g. an order-preserving composite for a
    ranking): distributed range-partitioned sort moves the narrow
    projection only, then one (min_key, count) row per block reaches the
    driver for exclusive offsets.  Appends ``pos``."""
    pairs = ds.sort(key_col).materialize()

    def block_meta(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"min_key": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        r = batch[key_col].to_numpy(zero_copy_only=False)
        return pa.table({
            "min_key": pa.array([int(r.min())], pa.int64()),
            "cnt": pa.array([batch.num_rows], pa.int64()),
        })

    metas = sorted(
        (row["min_key"], row["cnt"])
        for row in pairs.map_batches(
            block_meta, batch_size=None, batch_format="pyarrow"
        ).take_all()
    )
    offsets: dict[int, int] = {}
    acc = 0
    for min_key, cnt in metas:
        offsets[min_key] = acc
        acc += cnt

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("pos", pa.array([], pa.int64()))
        r = batch[key_col].to_numpy(zero_copy_only=False)
        base = offsets[int(r.min())]
        order = np.argsort(r, kind="stable")
        pos = np.empty(len(r), dtype=np.int64)
        pos[order] = base + np.arange(len(r), dtype=np.int64)
        return batch.append_column("pos", pa.array(pos, pa.int64()))

    return pairs.map_batches(assign, batch_size=None, batch_format="pyarrow")


def quarantine_split(ds, rules: list, out_dir: str | None = None):
    """Data-quality gate with a dead-letter side channel: rows failing any
    rule are tagged with the FIRST failing rule's name (rule order is the
    severity order) and, when ``out_dir`` is given, written to a
    quarantine Parquet directory from inside the tasks (one part file per
    worker batch — no extra pass, no shuffle); clean rows flow on.

    ``rules`` is ``[(name, fn)]`` where ``fn(batch) -> bool numpy array``
    (True = BAD) is a vectorized predicate.  Returns the dataset of input
    rows + ``_quarantine_reason`` (empty string = clean) so callers can
    filter either side; the engine's validate-then-quarantine analogue of
    the reference's hard error on unsupported sample types
    (copyer.go:108-127) — at 100 TB you quarantine and continue instead
    of aborting the copy."""
    import os
    import uuid

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    def tag(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        reason = np.full(n, "", dtype=object)
        open_slots = np.ones(n, dtype=bool)
        for name, fn in rules:
            bad = np.asarray(fn(batch), dtype=bool) & open_slots
            reason[bad] = name
            open_slots &= ~bad
        out = batch.append_column(
            "_quarantine_reason", pa.array(reason.tolist(), pa.string())
        )
        if out_dir is not None:
            q = out.filter(pa.array(~open_slots))
            if q.num_rows:
                import pyarrow.parquet as pq

                pq.write_table(
                    q, os.path.join(out_dir, f"part-{uuid.uuid4().hex}.parquet")
                )
        return out

    return ds.map_batches(tag, batch_format="pyarrow")
