"""Equi-join operators — Ray Data (2.49) has no native join.

Two scale regimes, matching the brief's broadcast-vs-shuffle guidance:

* :func:`broadcast_join` — the small side is collected to the driver ONCE,
  ``ray.put`` into the object store, and every ``map_batches`` task probes it
  zero-copy.  No shuffle at all; the only data movement is the one broadcast.
  Use when the build side fits in worker memory (dimension tables: nation,
  customer at modest scale).  Supports inner / left / semi / anti.
* :func:`shuffle_join` — both sides co-partitioned by a hash shard of the
  key through ONE tag-union groupby (the asof_join pattern,
  stages/windowed.py), then a vectorized sorted-merge probe per shard.
  Use when both sides are large.  Inner only (the regimes a fact-fact join
  needs); many-to-many handled by arange-expansion, no per-row Python.

Both are deterministic: output rows are a pure function of the input
multisets; no ordering assumptions survive the shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .common import shard_apply


def _int_keys(table: pa.Table, key: str) -> np.ndarray:
    return pc.cast(table[key], pa.int64()).to_numpy(zero_copy_only=False)


def broadcast_join(ds, right_table: pa.Table, left_key: str, right_key: str,
                   right_cols: list[str] | None = None, how: str = "inner"):
    """Join a Dataset against a SMALL pyarrow table (broadcast once).

    ``right_cols`` are appended to matching left rows (null-filled for
    ``how="left"`` misses).  ``how="semi"`` / ``"anti"`` keep/drop left rows
    on key existence and append nothing.  Duplicate right keys: inner/left
    emit one output row per (left row, matching right row) pair.
    """
    import ray

    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"unknown how: {how}")
    right_cols = list(right_cols or [])
    rkeys = pc.cast(right_table[right_key], pa.int64()).to_numpy(zero_copy_only=False)
    order = np.argsort(rkeys, kind="stable")
    rkeys_s = rkeys[order]
    rt_sorted = right_table.take(pa.array(order))
    r_ref = ray.put((rkeys_s, rt_sorted.select(right_cols) if right_cols else None))
    rtypes = [right_table.schema.field(c).type for c in right_cols]

    def _null_extend(batch: pa.Table) -> pa.Table:
        for c, t in zip(right_cols, rtypes):
            batch = batch.append_column(c, pa.nulls(batch.num_rows, t))
        return batch

    def probe(batch: pa.Table) -> pa.Table:
        keys_s, rdata = ray.get(r_ref)
        lk = _int_keys(batch, left_key)
        if len(keys_s) == 0:  # empty build side: no take() on a 0-row table
            if how == "anti":
                return batch
            if how in ("inner", "semi"):
                return batch.slice(0, 0) if how == "semi" else _null_extend(batch.slice(0, 0))
            return _null_extend(batch)  # left: every row null-extended
        lo = np.searchsorted(keys_s, lk, side="left")
        hi = np.searchsorted(keys_s, lk, side="right")
        cnt = hi - lo
        if how == "semi":
            return batch.filter(pa.array(cnt > 0))
        if how == "anti":
            return batch.filter(pa.array(cnt == 0))
        if how == "left":
            cnt = np.maximum(cnt, 1)  # misses keep one null-extended row
        rows = np.repeat(np.arange(len(lk), dtype=np.int64), cnt)
        within = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(cnt) - cnt, cnt
        )
        ridx = lo[rows] + within
        matched = ridx < hi[rows]  # false only for left-join null rows
        out = batch.take(pa.array(rows))
        for c in right_cols:
            col = rdata[c].take(pa.array(np.where(matched, ridx, 0)))
            if how == "left":
                col = pc.if_else(pa.array(matched), col, pa.nulls(len(rows), col.type))
            out = out.append_column(c, col)
        return out

    return ds.map_batches(probe, batch_format="pyarrow")


def shuffle_join(left_ds, right_ds, left_key: str, right_key: str,
                 right_cols: list[str] | None = None, how: str = "inner"):
    """Equi-join of two Datasets: ONE co-partitioning shuffle (tag-union by
    hash shard of the key), then a vectorized sorted-merge probe per shard.
    ``how="inner"`` outputs left columns + ``right_cols``; ``"left"`` also
    emits unmatched left rows null-extended; ``"full"`` additionally emits
    unmatched RIGHT rows (left columns null — include the right key in
    ``right_cols``, under a non-colliding name, to see it).  ``"semi"`` /
    ``"anti"`` keep/drop left rows on key existence (left columns only).

    Partitioning assumption (documented per the brief): a single key's rows
    (both sides) fit in one shard group; a pathologically hot key wants
    salting + broadcast of its right rows instead.
    """
    if how not in ("inner", "left", "full", "semi", "anti"):
        raise ValueError(f"unknown how: {how}")
    if how in ("semi", "anti"):
        right_cols = []
    left_cols = list(left_ds.schema().names)
    lschema = left_ds.schema()

    def norm_left(batch: pa.Table) -> pa.Table:
        k = _int_keys(batch, left_key)
        batch = batch.append_column("_jk", pa.array(k))
        for c, t in zip(rt_names, rt_types):
            batch = batch.append_column("_r_" + c, pa.nulls(batch.num_rows, t))
        return batch.append_column(
            "_is_r", pa.nulls(batch.num_rows, pa.int8()).fill_null(0)
        )

    rt_names = list(right_cols or [])
    rt_types: list = []

    rschema = right_ds.schema()
    for c in rt_names:
        rt_types.append(rschema.types[rschema.names.index(c)])

    def norm_right(batch: pa.Table) -> pa.Table:
        k = _int_keys(batch, right_key)
        cols = {c: pa.nulls(len(k), t) for c, t in zip(lschema.names, lschema.types)}
        cols["_jk"] = pa.array(k)
        for c in rt_names:
            cols["_r_" + c] = batch[c]
        t = pa.table(cols)
        # right rows are marked by a null left key column set: use a flag
        return t.append_column("_is_r", pa.nulls(len(k), pa.int8()).fill_null(1))

    lefts = left_ds.map_batches(norm_left, batch_format="pyarrow")
    rights = right_ds.map_batches(norm_right, batch_format="pyarrow")

    def probe(group: pa.Table) -> pa.Table:
        is_r = group["_is_r"].to_numpy(zero_copy_only=False).astype(np.int8) == 1
        lt = group.filter(pa.array(~is_r))
        rt = group.filter(pa.array(is_r))
        empty = lt.slice(0, 0).select(left_cols)
        for c, t in zip(rt_names, rt_types):
            empty = empty.append_column(c, pa.nulls(0, t))
        def right_only(mask: np.ndarray) -> pa.Table:
            """Unmatched right rows: left columns null, right cols filled."""
            sub = rt.filter(pa.array(mask))
            out = pa.table(
                {c: pa.nulls(sub.num_rows, t)
                 for c, t in zip(lschema.names, lschema.types)}
            ).select(left_cols)
            for c in rt_names:
                out = out.append_column(c, sub["_r_" + c])
            return out

        def null_extend(sub: pa.Table) -> pa.Table:
            out = sub.select(left_cols)
            for c, t in zip(rt_names, rt_types):
                out = out.append_column(c, pa.nulls(sub.num_rows, t))
            return out

        if lt.num_rows == 0:
            return right_only(np.ones(rt.num_rows, bool)) if how == "full" else empty
        if rt.num_rows == 0:
            if how == "anti":
                return lt.select(left_cols)
            if how in ("left", "full"):
                return null_extend(lt)
            return empty
        lk = lt["_jk"].to_numpy(zero_copy_only=False)
        rk = rt["_jk"].to_numpy(zero_copy_only=False)
        r_order = np.argsort(rk, kind="stable")
        rk_s = rk[r_order]
        lo = np.searchsorted(rk_s, lk, side="left")
        hi = np.searchsorted(rk_s, lk, side="right")
        cnt = hi - lo
        if how == "semi":
            return lt.filter(pa.array(cnt > 0)).select(left_cols)
        if how == "anti":
            return lt.filter(pa.array(cnt == 0)).select(left_cols)
        rows = np.repeat(np.arange(len(lk), dtype=np.int64), cnt)
        within = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(cnt) - cnt, cnt
        )
        ridx = r_order[lo[rows] + within]
        out = lt.take(pa.array(rows)).select(left_cols)
        for c in rt_names:
            out = out.append_column(c, rt["_r_" + c].take(pa.array(ridx)))
        pieces = [out]
        if how in ("left", "full") and (cnt == 0).any():
            pieces.append(null_extend(lt.filter(pa.array(cnt == 0))))
        if how == "full":
            matched_r = np.zeros(rt.num_rows, dtype=bool)
            matched_r[ridx] = True
            if not matched_r.all():
                pieces.append(right_only(~matched_r))
        return pa.concat_tables(pieces) if len(pieces) > 1 else out

    return shard_apply([lefts, rights], ["_jk"], probe)


def build_bloom(ds, key: str, num_bits: int = 1 << 20,
                num_hashes: int = 4) -> np.ndarray:
    """Distributed Bloom-filter build over a key column: each batch sets
    its bits into a local bitmap (one packed-uint64 row per batch), the
    tiny bitmap rows are OR-reduced on the driver.  Returns the bitmap
    (uint64 words) — `ray.put` it once and probe with :func:`bloom_mask`.

    ``num_bits`` must be a power of two.  Double hashing
    (h1 + i*h2, Kirsch–Mitzenmacher) from the same 64-bit key hash used by
    every shard kernel, so the filter is deterministic.
    """
    if num_bits & (num_bits - 1):
        raise ValueError("num_bits must be a power of two")
    from .common import mix64
    from ..functions.hashing import poly_hash_column

    n_words = num_bits // 64

    def _base_hash(col) -> np.ndarray:
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            return poly_hash_column(col, fold63=False)
        return mix64(pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False))

    def per_batch(batch: pa.Table) -> pa.Table:
        words = np.zeros(n_words, dtype=np.uint64)
        h1 = _base_hash(batch[key])
        h2 = mix64(h1) | np.uint64(1)
        mask = np.uint64(num_bits - 1)
        with np.errstate(over="ignore"):
            for i in range(num_hashes):
                pos = (h1 + np.uint64(i) * h2) & mask
                np.bitwise_or.at(
                    words, (pos >> np.uint64(6)).astype(np.int64),
                    np.uint64(1) << (pos & np.uint64(63)),
                )
        return pa.table({"bitmap": pa.array([words.tobytes()], pa.binary())})

    parts = ds.map_batches(per_batch, batch_format="pyarrow").take_all()
    out = np.zeros(n_words, dtype=np.uint64)
    for row in parts:
        out |= np.frombuffer(row["bitmap"], dtype=np.uint64)
    return out


def bloom_mask(col, words: np.ndarray, num_hashes: int = 4) -> np.ndarray:
    """Vectorized Bloom membership test for a key column against a bitmap
    from :func:`build_bloom`.  Returns a bool mask (true = maybe present;
    false = DEFINITELY absent)."""
    from .common import mix64
    from ..functions.hashing import poly_hash_column

    num_bits = len(words) * 64
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        h1 = poly_hash_column(col, fold63=False)
    else:
        h1 = mix64(pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False))
    h2 = mix64(h1) | np.uint64(1)
    mask = np.uint64(num_bits - 1)
    present = np.ones(len(h1), dtype=bool)
    with np.errstate(over="ignore"):
        for i in range(num_hashes):
            pos = (h1 + np.uint64(i) * h2) & mask
            bit = (words[(pos >> np.uint64(6)).astype(np.int64)]
                   >> (pos & np.uint64(63))) & np.uint64(1)
            present &= bit.astype(bool)
    return present


def bloom_semi_join(fact_ds, dim_ds, fact_key: str, dim_key: str,
                    num_bits: int = 1 << 20, num_hashes: int = 4,
                    exact: bool = True):
    """Semi-join a huge fact stream against a dim key set through a Bloom
    PREFILTER: the filter is built distributively (:func:`build_bloom`),
    broadcast once via ``ray.put`` (``num_bits/8`` bytes regardless of dim
    cardinality — the memory-bounded alternative to broadcasting the key
    set itself), and probed vectorized per batch, so only Bloom survivors
    (true matches + ~(1-e^(-kn/m))^k false positives) reach the exact
    stage.  With ``exact=True`` survivors are verified with
    :func:`broadcast_join` how="semi" — the result is EXACTLY the SQL
    semi-join; at scales where even the key set can't broadcast, pass
    exact=False and shuffle-join the (already tiny) survivor stream.
    """
    import ray

    words = build_bloom(dim_ds, dim_key, num_bits, num_hashes)
    words_ref = ray.put(words)

    def prefilter(batch: pa.Table) -> pa.Table:
        w = ray.get(words_ref)
        return batch.filter(pa.array(bloom_mask(batch[fact_key], w, num_hashes)))

    survivors = fact_ds.map_batches(prefilter, batch_format="pyarrow")
    if not exact:
        return survivors
    dim_keys = dim_ds.select_columns([dim_key]).take_all()
    dim_table = pa.table({dim_key: pa.array(
        sorted({r[dim_key] for r in dim_keys})
    )})
    return broadcast_join(survivors, dim_table, fact_key, dim_key, how="semi")


def set_op(left_ds, right_ds, cols: list[str], op: str):
    """SQL set operations with DISTINCT semantics: ``EXCEPT`` (distinct
    left rows absent from right) and ``INTERSECT`` (distinct rows present
    on both sides), over the given column tuple.

    Scale shape: each side's batches collapse to their distinct tuples
    (Arrow ``group_by`` combiner) tagged with a side bit, ONE tuple-hash
    exchange co-locates equal tuples, and a per-shard sort + segment scan
    decides membership — the exchange moves distinct tuples only, never
    the datasets.
    """
    if op not in ("except", "intersect"):
        raise ValueError(f"unknown set op: {op}")
    from .keyed import _segment_starts

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            g = batch.select(cols).group_by(cols).aggregate([])
            return g.append_column("_side", pa.array(
                np.full(g.num_rows, side, np.int64)))
        return fn

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in cols])
        new = _segment_starts(t, cols)
        starts = np.flatnonzero(new)
        sizes = np.diff(np.r_[starts, t.num_rows])
        side = t["_side"].to_numpy(zero_copy_only=False)
        has_l = np.add.reduceat(side == 0, starts) > 0
        has_r = np.add.reduceat(side == 1, starts) > 0
        keep = (has_l & ~has_r) if op == "except" else (has_l & has_r)
        return t.drop_columns("_side").take(pa.array(starts[keep]))

    return shard_apply([left_ds.map_batches(tag(0), batch_format="pyarrow"),
                        right_ds.map_batches(tag(1), batch_format="pyarrow")],
                       cols, per_shard)


def _probe_sorted_right(lk: np.ndarray, keys_s: np.ndarray):
    """Inner-join expansion indices of ``lk`` against a SORTED right key
    array: returns (left_row_idx, right_sorted_idx) with one entry per
    matching pair (shared by the broadcast and hybrid probes)."""
    lo = np.searchsorted(keys_s, lk, side="left")
    hi = np.searchsorted(keys_s, lk, side="right")
    cnt = hi - lo
    rows = np.repeat(np.arange(len(lk), dtype=np.int64), cnt)
    within = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(cnt) - cnt, cnt
    )
    return rows, lo[rows] + within


def skew_aware_join(left_ds, right_ds, left_key: str, right_key: str,
                    right_cols: list[str] | None = None,
                    hot_threshold: int = 100_000):
    """Inner equi-join that survives pathological key skew: HOT keys (an
    exact census says >= ``hot_threshold`` left rows) are joined by
    broadcasting their right rows and probing inline — those rows ride the
    exchange pre-joined, spread over the shards by a row counter — while
    COLD keys take the ordinary co-partitioning tag-union.  Without this, a key
    holding 30% of a 100 TB fact table lands 30% of the data on one shard
    of :func:`shuffle_join`.

    Cost model (documented per the brief): the census pass reads ONLY the
    key column (column-pruned) and exchanges per-batch (key, count)
    partials; the right side is read twice (hot collect + cold shuffle);
    the bounded assumptions are |hot keys| <= n_left / hot_threshold and
    right rows per hot key small enough to broadcast (a hot key on BOTH
    sides is a cross-product nobody can compute).  Output rows are the same
    multiset as ``shuffle_join(..., how="inner")``.
    """
    import ray

    from .keyed import sharded_grouped_agg

    right_cols = list(right_cols or [])

    def count_partial(batch: pa.Table) -> pa.Table:
        k = _int_keys(batch, left_key)
        return pa.table({"_k": pa.array(k), "_n": pa.array(np.ones(len(k), np.int64))})

    counts = sharded_grouped_agg(
        left_ds.select_columns([left_key]).map_batches(
            count_partial, batch_format="pyarrow"),
        ["_k"], [("_n", "sum")],
    )

    def only_hot(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater_equal(batch["_n"], pa.scalar(hot_threshold, pa.int64()))
        ).select(["_k"])

    hot_parts = [
        b for b in counts.map_batches(only_hot, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow") if b.num_rows
    ]
    if not hot_parts:
        return shuffle_join(left_ds, right_ds, left_key, right_key,
                            right_cols=right_cols)
    hot_keys = np.sort(
        pa.concat_tables(hot_parts)["_k"].to_numpy(zero_copy_only=False)
    )
    hot_ref = ray.put(hot_keys)

    def _hot_mask(k: np.ndarray, hk: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(hk, k)
        return (idx < len(hk)) & (hk[np.minimum(idx, len(hk) - 1)] == k)

    def right_hot(batch: pa.Table) -> pa.Table:
        k = _int_keys(batch, right_key)
        return batch.filter(pa.array(_hot_mask(k, ray.get(hot_ref))))

    rhot_parts = [
        b for b in right_ds.map_batches(right_hot, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow") if b.num_rows
    ]
    rhot = (pa.concat_tables(rhot_parts) if rhot_parts
            else right_ds.schema().base_schema.empty_table())
    rk = pc.cast(rhot[right_key], pa.int64()).to_numpy(zero_copy_only=False)
    r_order = np.argsort(rk, kind="stable")
    rhot_ref = ray.put((rk[r_order], rhot.select(right_cols).take(pa.array(r_order))))

    left_cols = list(left_ds.schema().names)
    lschema = left_ds.schema()
    rschema = right_ds.schema()
    rt_types = [rschema.types[rschema.names.index(c)] for c in right_cols]
    out_cols = left_cols + right_cols

    def norm_left(batch: pa.Table) -> pa.Table:
        k = _int_keys(batch, left_key)
        hk = ray.get(hot_ref)
        hot = _hot_mask(k, hk)
        cold_t = batch.filter(pa.array(~hot))
        cold = cold_t.append_column("_jk", pa.array(k[~hot]))
        for c, t in zip(right_cols, rt_types):
            cold = cold.append_column(c, pa.nulls(cold.num_rows, t))
        cold = cold.append_column(
            "_done", pa.nulls(cold.num_rows, pa.int8()).fill_null(0))
        # hot rows: probe the broadcast inline, ride the exchange pre-joined;
        # their ``_jk`` is a row counter, so they spread over every shard
        # instead of landing on their hot key's
        keys_s, rdata = ray.get(rhot_ref)
        ht = batch.filter(pa.array(hot))
        rows, ridx = _probe_sorted_right(k[hot], keys_s)
        done = ht.take(pa.array(rows))
        done = done.append_column("_jk", pa.array(np.arange(len(rows), dtype=np.int64)))
        for c in right_cols:
            done = done.append_column(c, rdata[c].take(pa.array(ridx)))
        done = done.append_column(
            "_done", pa.nulls(done.num_rows, pa.int8()).fill_null(1))
        return pa.concat_tables([cold, done])

    def norm_right(batch: pa.Table) -> pa.Table:
        k = _int_keys(batch, right_key)
        cold = batch.filter(pa.array(~_hot_mask(k, ray.get(hot_ref))))
        ck = pc.cast(cold[right_key], pa.int64()).to_numpy(zero_copy_only=False)
        cols = {c: pa.nulls(cold.num_rows, t)
                for c, t in zip(lschema.names, lschema.types)}
        cols["_jk"] = pa.array(ck)
        for c in right_cols:
            cols[c] = cold[c]
        t = pa.table(cols)
        return t.append_column(
            "_done", pa.nulls(t.num_rows, pa.int8()).fill_null(2))

    def probe(group: pa.Table) -> pa.Table:
        done_f = group["_done"].to_numpy(zero_copy_only=False)
        out_done = group.filter(pa.array(done_f == 1)).select(out_cols)
        lt = group.filter(pa.array(done_f == 0))
        rt = group.filter(pa.array(done_f == 2))
        if lt.num_rows == 0 or rt.num_rows == 0:
            return out_done
        lk = lt["_jk"].to_numpy(zero_copy_only=False)
        rk_ = rt["_jk"].to_numpy(zero_copy_only=False)
        r_ord = np.argsort(rk_, kind="stable")
        rows, pos = _probe_sorted_right(lk, rk_[r_ord])
        ridx = r_ord[pos]
        out = lt.take(pa.array(rows)).select(left_cols)
        for c in right_cols:
            out = out.append_column(c, rt[c].take(pa.array(ridx)))
        return pa.concat_tables([out_done, out.select(out_cols)])

    lefts = left_ds.map_batches(norm_left, batch_format="pyarrow")
    rights = right_ds.map_batches(norm_right, batch_format="pyarrow")
    return shard_apply([lefts, rights], ["_jk"], probe)
