"""Custom windowed operators Ray Data lacks natively (brief: "custom operators").

All are compositions of ``map_batches`` + the shared hash-shard exchange
(:func:`.common.shard_apply`) with vectorized NumPy bodies (option (a) of
the custom-operator ladder) and document their partitioning assumption: one
group = one partition key's full history, bounded because inputs are
*collapsed* tier rows, not raw samples.

* :func:`sliding_window_sum` — rolling aggregate over aligned tier windows
  (e.g. trailing 1h sum of 5m counts), per key.  Prefix-sum + searchsorted:
  O(n log n) per group, no Python loops.
* :func:`asof_join` — for every left row, the latest right row with
  ``right.ts <= left.ts`` within the same key (DuckDB ``ASOF JOIN``
  semantics).  Broadcast-free: co-partition both sides by key through one
  groupby over the union (sides tagged), then a vectorized searchsorted per
  group.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .common import shard_apply
from .keyed import _segment_starts


def sliding_window_sum(
    tier_ds,
    key_cols: list[str],
    window_col: str = "window_start",
    value_col: str = "n",
    trail_ms: int = 3_600_000,
    out_col: str = "sliding_sum",
):
    """Trailing-window sum over aligned windows per key.

    For each row, sums ``value_col`` over rows of the same key whose window
    start lies in ``(window - trail_ms, window]`` — matching SQL
    ``SUM(v) OVER (PARTITION BY key ORDER BY w RANGE BETWEEN trail-step
    PRECEDING AND CURRENT ROW)``.
    """


    def per_shard(group: pa.Table) -> pa.Table:
        """Many keys per task (hash shard): one sort, then a per-key-segment
        prefix-sum — group count stays O(shards) at any key cardinality
        (raw-key map_groups would make one kernel call per key)."""
        t = group.sort_by(
            [(c, "ascending") for c in key_cols] + [(window_col, "ascending")]
        )
        w = t[window_col].to_numpy().astype(np.int64, copy=False)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        starts = np.flatnonzero(_segment_starts(t, key_cols))
        ends = np.r_[starts[1:], t.num_rows]
        sums = np.empty(len(w), dtype=np.float64)
        for a, b in zip(starts, ends):
            csum = np.concatenate([[0.0], np.cumsum(v[a:b])])
            lo = np.searchsorted(w[a:b], w[a:b] - (trail_ms - 1), side="left")
            sums[a:b] = csum[1 : b - a + 1] - csum[lo]
        return t.append_column(out_col, pa.array(sums, pa.float64()))

    return shard_apply(tier_ds, key_cols, per_shard)


def rolling_quantile(
    ds,
    key_cols: list[str],
    order_col: str,
    value_col: str,
    window: int = 5,
    q: float = 0.5,
    out_col: str = "rolling_q",
):
    """SQL ``quantile_cont(v, q) OVER (PARTITION BY key ORDER BY o, v ROWS
    BETWEEN window-1 PRECEDING AND CURRENT ROW)`` — the moving-median /
    rolling-quantile smoother.

    Order is made total by the value tiebreak (ROWS frames over duplicate
    order keys are otherwise peer-order-dependent).  Per shard: one sort,
    then ``window`` shifted copies of the value column masked at key-segment
    starts and ONE ``np.nanquantile`` across them — vectorized in the
    window size, not the row count.  Partial leading windows use the rows
    available, like SQL.  Exactness: pass an int64 ``value_col`` (callers
    pre-scale) — interpolation then lands on exact binary fractions for
    q in {0, .25, .5, .75, 1}, matching DuckDB bit-for-bit.
    """

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [(c, "ascending") for c in key_cols]
            + [(order_col, "ascending"), (value_col, "ascending")]
        )
        n = t.num_rows
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        starts = np.flatnonzero(_segment_starts(t, key_cols))
        sizes = np.diff(np.r_[starts, n])
        seg_start = np.repeat(starts, sizes)
        idx = np.arange(n, dtype=np.int64)
        stack = np.full((window, n), np.nan)
        for j in range(window):
            src = idx - j
            ok = src >= seg_start
            stack[j, ok] = v[src[ok]]
        out = np.nanquantile(stack, q, axis=0)
        return t.append_column(out_col, pa.array(out, pa.float64()))

    return shard_apply(ds, key_cols, per_shard)


def range_join(
    left_ds,
    right_ds,
    key_col: str,
    left_ts: str = "ts",
    right_start: str = "start",
    right_end: str = "end",
    right_id_col: str = "interval_id",
    bucket_ms: int = 3_600_000,
):
    """Interval (range) join: every left row paired with every right interval
    ``[start, end]`` (ms, inclusive) of the same key that contains its
    timestamp — a third custom operator Ray Data lacks (inner join, possibly
    many matches per row).

    Partitioning: both sides co-partition by (hash shard of key, coarse time
    bucket).  A left row lives in exactly ONE bucket (its ts), so no output
    dedup is needed; each interval is REPLICATED into every bucket it
    overlaps.  Partitioning assumption (documented per the brief): intervals
    are short relative to ``bucket_ms`` (sessions, SLAs — replication factor
    ~= 1 + len/bucket); degenerate corpus-spanning intervals would replicate
    per bucket and belong in a broadcast join instead.

    Per group the matching is one lexsort + two searchsorted per interval
    (key segment, then ts range) — output assembled by vectorized arange
    concatenation, no per-row Python.
    """
    left_cols: list[str] = left_ds.schema().names

    def norm_left(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch[left_ts], pa.int64()).to_numpy(zero_copy_only=False)
        batch = batch.append_column("_bucket", pa.array(ts // bucket_ms))
        batch = batch.append_column("_r_start", pa.nulls(batch.num_rows, pa.int64()))
        batch = batch.append_column("_r_end", pa.nulls(batch.num_rows, pa.int64()))
        batch = batch.append_column("_r_id", pa.nulls(batch.num_rows, pa.int64()))
        return batch

    def explode_right(batch: pa.Table) -> pa.Table:
        keys = pc.cast(batch[key_col], pa.int64()).to_numpy(zero_copy_only=False)
        s = pc.cast(batch[right_start], pa.int64()).to_numpy(zero_copy_only=False)
        e = pc.cast(batch[right_end], pa.int64()).to_numpy(zero_copy_only=False)
        rid = pc.cast(batch[right_id_col], pa.int64()).to_numpy(zero_copy_only=False)
        b0 = s // bucket_ms
        b1 = e // bucket_ms
        reps = (b1 - b0 + 1).astype(np.int64)
        row = np.repeat(np.arange(len(s), dtype=np.int64), reps)
        within = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        bucket = b0[row] + within
        cols = {c: pa.nulls(len(row), t) for c, t in zip(left_schema_names, left_schema_types)}
        cols["_bucket"] = pa.array(bucket)
        cols["_r_start"] = pa.array(s[row])
        cols["_r_end"] = pa.array(e[row])
        cols["_r_id"] = pa.array(rid[row])
        cols[key_col] = pa.array(keys[row])  # overwrite null with the key
        return pa.table(cols)

    lschema = left_ds.schema()
    left_schema_names = list(lschema.names)
    left_schema_types = list(lschema.types)

    def per_group(group: pa.Table) -> pa.Table:
        is_right = pc.is_valid(group["_r_id"]).to_numpy(zero_copy_only=False)
        lt = group.filter(pa.array(~is_right))
        rt = group.filter(pa.array(is_right))
        if lt.num_rows == 0 or rt.num_rows == 0:
            out = lt.slice(0, 0).select(left_cols)
            return out.append_column(right_id_col + "_right", pa.array([], pa.int64()))
        lkey = pc.cast(lt[key_col], pa.int64()).to_numpy(zero_copy_only=False)
        lts = pc.cast(lt[left_ts], pa.int64()).to_numpy(zero_copy_only=False)
        lorder = np.lexsort((lts, lkey))
        lkey_s, lts_s = lkey[lorder], lts[lorder]
        rkey = pc.cast(rt[key_col], pa.int64()).to_numpy(zero_copy_only=False)
        rs = rt["_r_start"].to_numpy(zero_copy_only=False).astype(np.int64)
        re_ = rt["_r_end"].to_numpy(zero_copy_only=False).astype(np.int64)
        rid = rt["_r_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # key segment bounds for each interval, then the ts slice inside it
        k_lo = np.searchsorted(lkey_s, rkey, side="left")
        k_hi = np.searchsorted(lkey_s, rkey, side="right")
        take_idx, out_rid = [], []
        for i in range(len(rkey)):
            a = k_lo[i] + np.searchsorted(lts_s[k_lo[i] : k_hi[i]], rs[i], side="left")
            b = k_lo[i] + np.searchsorted(lts_s[k_lo[i] : k_hi[i]], re_[i], side="right")
            if b > a:
                take_idx.append(lorder[a:b])
                out_rid.append(np.full(b - a, rid[i], dtype=np.int64))
        if not take_idx:
            out = lt.slice(0, 0).select(left_cols)
            return out.append_column(right_id_col + "_right", pa.array([], pa.int64()))
        out = lt.take(pa.array(np.concatenate(take_idx))).select(left_cols)
        return out.append_column(
            right_id_col + "_right", pa.array(np.concatenate(out_rid))
        )

    lefts = left_ds.map_batches(norm_left, batch_format="pyarrow")
    rights = right_ds.map_batches(explode_right, batch_format="pyarrow")
    return shard_apply([lefts, rights], [key_col], per_group, by=("_bucket",),
                       coalesce=False)


def asof_join(
    left_ds,
    right_ds,
    key_cols: list[str],
    left_ts: str = "ts",
    right_ts: str = "ts",
    right_value_cols: list[str] | None = None,
    suffix: str = "_right",
):
    """As-of join: latest right row with ts <= left ts, per key.

    Implementation: tag each side, union (one shuffle co-partitions both
    sides by key), then per key group: sort right by ts, vectorized
    ``searchsorted`` of left timestamps.  Left rows with no match keep nulls.
    Partitioning assumption: one key's full right history fits in one group
    (right side is a collapsed/dimension-like table, not raw events).
    """
    right_value_cols = right_value_cols or []

    def tag(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.append_column("_side", pa.nulls(batch.num_rows, pa.string()).fill_null(side))

        return fn

    def norm_left(batch: pa.Table) -> pa.Table:
        for c in right_value_cols:
            rc = c + suffix
            if rc not in batch.column_names:
                batch = batch.append_column(rc, pa.nulls(batch.num_rows, pa.float64()))
        if "_r_ts" not in batch.column_names:
            batch = batch.append_column("_r_ts", pa.nulls(batch.num_rows, pa.int64()))
        return batch

    def norm_right(batch: pa.Table) -> pa.Table:
        cols = {k: batch[k] for k in key_cols}
        cols["_r_ts"] = pc.cast(batch[right_ts], pa.int64())
        for c in right_value_cols:
            cols[c + suffix] = pc.cast(batch[c], pa.float64())
        return pa.table(cols)

    left_tagged = left_ds.map_batches(norm_left, batch_format="pyarrow").map_batches(
        tag("l"), batch_format="pyarrow"
    )
    right_tagged = right_ds.map_batches(norm_right, batch_format="pyarrow").map_batches(
        tag("r"), batch_format="pyarrow"
    )


    def per_shard(group: pa.Table) -> pa.Table:
        """Many keys per task (hash shard of the key, not the raw key —
        raw-key map_groups is one kernel call per key, unusable at millions
        of keys).  Per shard: sort both sides once, then a per-key-segment
        vectorized searchsorted; the segment walk is a dict lookup per key,
        not a task per key."""
        side = np.array(group["_side"].to_pylist())
        is_left = side == "l"
        left_t = group.filter(pa.array(is_left)).drop_columns("_side")
        right_t = group.filter(pa.array(~is_left))
        if left_t.num_rows == 0 or right_t.num_rows == 0:
            return left_t.slice(0, 0)
        lt_s = left_t.sort_by([(c, "ascending") for c in key_cols])
        rt_s = right_t.sort_by(
            [(c, "ascending") for c in key_cols] + [("_r_ts", "ascending")]
        )
        lts = pc.cast(lt_s[left_ts], pa.int64()).to_numpy(zero_copy_only=False)
        rts = rt_s["_r_ts"].to_numpy(zero_copy_only=False).astype(np.int64)
        l_starts = np.flatnonzero(_segment_starts(lt_s, key_cols))
        l_ends = np.r_[l_starts[1:], lt_s.num_rows]
        r_starts = np.flatnonzero(_segment_starts(rt_s, key_cols))
        r_ends = np.r_[r_starts[1:], rt_s.num_rows]
        r_keys = rt_s.select(key_cols).take(pa.array(r_starts)).to_pylist()
        r_index = {tuple(d.values()): (int(a), int(b))
                   for d, a, b in zip(r_keys, r_starts, r_ends)}
        l_keys = lt_s.select(key_cols).take(pa.array(l_starts)).to_pylist()
        match = np.full(lt_s.num_rows, -1, dtype=np.int64)
        for d, a, b in zip(l_keys, l_starts, l_ends):
            rr = r_index.get(tuple(d.values()))
            if rr is None:
                continue
            ra, rb = rr
            idx = np.searchsorted(rts[ra:rb], lts[a:b], side="right") - 1
            seg = match[a:b]
            ok = idx >= 0
            seg[ok] = ra + idx[ok]
        matched = match >= 0
        out = lt_s.filter(pa.array(matched))
        idx_m = match[matched]
        out = out.set_column(
            out.column_names.index("_r_ts"), "_r_ts",
            pa.array(rts[idx_m], pa.int64()),
        )
        for c in right_value_cols:
            rc = c + suffix
            vals = rt_s[rc].to_numpy(zero_copy_only=False)[idx_m]
            out = out.set_column(
                out.column_names.index(rc), rc,
                pa.array(vals.astype(np.float64), pa.float64()),
            )
        return out

    return shard_apply([left_tagged, right_tagged], key_cols, per_shard)


def counter_increase(
    ds,
    key_cols: list[str],
    ts_col: str,
    order_cols: list[str],
    value_col: str,
    window_ms: int,
):
    """PromQL-style ``increase()``: adjacent-sample counter deltas with
    reset handling, summed per aligned window.

    Per key (series), samples ordered by ``(ts_col, *order_cols)``; each
    sample after the first contributes ``v - prev`` when the counter grew,
    else ``v`` (a counter reset restarts from zero — Prometheus
    ``extrapolatedRate`` reset rule, minus the extrapolation).  Deltas are
    attributed to the aligned window of the *current* sample; a key's first
    sample contributes nothing (SQL: ``lag() ... WHERE prev IS NOT NULL``),
    so a (key, window) holding only a first sample emits no row.

    Output: key cols + ``window_start`` (int64 ms) + ``n_deltas`` +
    ``increase``.  Same shuffle shape as :func:`running_sum`: ONE exchange
    of (key, ts, order, value) rows hash-sharded by key — a shard task
    covers thousands of series via segment boundaries after one sort.
    Partitioning assumption: one key's full sample history fits in one
    shard group (series histories, not the whole corpus).
    """

    cols = list(key_cols) + [ts_col] + list(order_cols) + [value_col]

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(cols)

    sort_keys = [(c, "ascending") for c in list(key_cols) + [ts_col] + list(order_cols)]

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by(sort_keys)
        ts = t[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        first = _segment_starts(t, list(key_cols))
        delta = np.empty(len(v), dtype=np.float64)
        delta[0] = 0.0
        delta[1:] = v[1:] - v[:-1]
        adj = np.where(delta < 0, v, delta)  # reset -> counter restarted at v
        w = (ts // window_ms) * window_ms
        keep = ~first  # rows that have an in-key predecessor
        kept = t.filter(pa.array(keep))
        w_k, adj_k = w[keep], adj[keep]
        # group boundaries over (key, window) on the kept rows
        gstart = _segment_starts(kept, list(key_cols))
        gstart[1:] |= w_k[1:] != w_k[:-1]
        starts = np.flatnonzero(gstart)
        counts = np.diff(np.r_[starts, len(w_k)]).astype(np.int64)
        out = {c: kept[c].take(pa.array(starts)) for c in key_cols}
        out["window_start"] = pa.array(w_k[starts], pa.int64())
        out["n_deltas"] = pa.array(counts, pa.int64())
        out["increase"] = pa.array(np.add.reduceat(adj_k, starts), pa.float64())
        return pa.table(out)

    return shard_apply(ds, key_cols, per_shard, prepare=project)


def time_weighted_avg(
    ds,
    key_cols: list[str],
    ts_col: str,
    order_cols: list[str],
    value_col: str,
    window_ms: int,
):
    """Time-weighted average per aligned window (the TimescaleDB
    ``time_weight('locf')`` shape): each sample's value is held until the
    key's next sample in the SAME window, the window's last sample is
    carried to the window end, and the average weights values by that held
    duration: ``twa = sum(v*dur) / sum(dur)``.

    ``value_col`` must be an integer column (callers pre-scale floats with
    the milli-unit convention) so both sums are EXACT int64 and the final
    quotient is bit-identical across engines and block layouts.  Output:
    key cols + ``window_start`` (int64 ms) + ``n_samples`` + ``twa``
    (float64, in the caller's scaled units).

    Same exchange shape as :func:`counter_increase`: ONE hash-shard
    shuffle of (key, ts, order, value) rows; per-shard lexsort + vectorized
    adjacent diffs + ``reduceat`` per (key, window) segment.  Partitioning
    assumption: one key's history fits in one shard group.
    """

    cols = list(key_cols) + [ts_col] + list(order_cols) + [value_col]

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(cols)

    sort_keys = [(c, "ascending") for c in list(key_cols) + [ts_col] + list(order_cols)]

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by(sort_keys)
        n = t.num_rows
        ts = t[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        first = _segment_starts(t, list(key_cols))
        w = (ts // window_ms) * window_ms
        # duration each sample's value is held: to the next sample of the
        # same (key, window), else to the window end (LOCF)
        dur = (w + window_ms) - ts
        same = np.zeros(n, dtype=bool)
        if n > 1:
            same[:-1] = (~first[1:]) & (w[1:] == w[:-1])
            idx = np.flatnonzero(same)
            dur[idx] = ts[idx + 1] - ts[idx]
        gstart = first.copy()
        gstart[1:] |= w[1:] != w[:-1]
        starts = np.flatnonzero(gstart)
        counts = np.diff(np.r_[starts, n]).astype(np.int64)
        num = np.add.reduceat(v * dur, starts)
        den = np.add.reduceat(dur, starts)
        out = {c: t[c].take(pa.array(starts)) for c in key_cols}
        out["window_start"] = pa.array(w[starts], pa.int64())
        out["n_samples"] = pa.array(counts, pa.int64())
        out["twa"] = pa.array(num.astype(np.float64) / den.astype(np.float64),
                              pa.float64())
        return pa.table(out)

    return shard_apply(ds, key_cols, per_shard, prepare=project)


def watermark_window_counts(ds, id_col: str, ts_col: str, key_cols: list[str],
                            window_ms: int, lateness_ms: int,
                            out_count: str = "n"):
    """Streaming tumbling-window counts with a late-data watermark, replayed
    deterministically on a batch engine.

    Semantics (SQL-mirrorable): events are processed in ``id_col`` order
    (the arrival order); the watermark at each event is the max event time
    seen BEFORE it; an event is dropped as too-late when ``ts < watermark -
    lateness_ms``; survivors count into their ``window_ms`` tumbling window
    per key.  This is the standard watermark/allowed-lateness model
    (Dataflow-style) made a pure function of the table by pinning arrival
    order to ``id_col``.

    Execution: the running max over a global order is a SCAN — same
    two-pass shape as curation.pack_sequences: sort by id (moves only
    (id, ts, keys) rows), one (min_id, block_max) row per block to the
    driver, exclusive prefix-max as block seeds, then a per-block
    vectorized ``np.maximum.accumulate`` + window count combiner into the
    sharded final aggregate.
    """
    from .keyed import sharded_grouped_agg

    keys = list(key_cols)

    def project(batch: pa.Table) -> pa.Table:
        cols = {
            id_col: pc.cast(batch[id_col], pa.int64()),
            "_tms": pc.cast(batch[ts_col], pa.int64()),
        }
        for k in keys:
            cols[k] = batch[k]
        return pa.table(cols)

    pairs = ds.map_batches(project, batch_format="pyarrow").sort(id_col).materialize()

    def block_meta(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"min_id": pa.array([], pa.int64()),
                             "bmax": pa.array([], pa.int64())})
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table({
            "min_id": pa.array([int(ids.min())], pa.int64()),
            "bmax": pa.array(
                [int(batch["_tms"].to_numpy(zero_copy_only=False).max())],
                pa.int64()),
        })

    metas = sorted(
        (r["min_id"], r["bmax"])
        for r in pairs.map_batches(block_meta, batch_size=None,
                                   batch_format="pyarrow").take_all()
    )
    seeds: dict[int, int] = {}
    acc = np.iinfo(np.int64).min
    for min_id, bmax in metas:
        seeds[min_id] = acc  # exclusive: max of all PRIOR blocks
        acc = max(acc, bmax)

    def count_kept(batch: pa.Table) -> pa.Table:
        empty = pa.table({**{k: pa.array([], pa.string()) for k in keys},
                          "window_start": pa.array([], pa.int64()),
                          out_count: pa.array([], pa.int64())})
        if batch.num_rows == 0:
            return empty
        tms = batch["_tms"].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        seed = seeds[int(ids.min())]
        run = np.maximum.accumulate(np.r_[seed, tms[:-1]])  # exclusive
        keep = (run == np.iinfo(np.int64).min) | (tms >= run - lateness_ms)
        kept = batch.filter(pa.array(keep))
        w = (kept["_tms"].to_numpy(zero_copy_only=False) // window_ms) * window_ms
        return pa.table({**{k: kept[k] for k in keys},
                         "window_start": pa.array(w, pa.int64()),
                         out_count: pa.array(np.ones(len(w), np.int64))})

    parts = pairs.map_batches(count_kept, batch_size=None, batch_format="pyarrow")
    return sharded_grouped_agg(parts, keys + ["window_start"],
                               [(out_count, "sum")])


def sliding_distinct(ds, key_col: str, day_col: str, window: int,
                     out_count: str = "n_active"):
    """EXACT trailing-window COUNT(DISTINCT key) per day — e.g. weekly
    active users for every day — without re-counting each window.

    A key active on day d is counted by every window position
    ``d0 in [d, d+window-1]``; the union of those per-key ranges is a set
    of coverage intervals, so the answer at any d0 is a prefix sum of
    (+1 at interval start, -1 past interval end) boundary deltas.  Output:
    one row per day PRESENT in the data (d0, count).

    Scale shape: per-batch DISTINCT (key, day) combiner -> ONE key-hash
    exchange -> per-shard interval merge per key segment (vectorized
    segmented running max, merge_intervals' kernel) -> boundary deltas
    into a small sharded sum -> driver-side cumsum over the sorted
    boundaries.  Boundary cardinality is O(distinct days), thousands of
    rows at any corpus scale (documented driver-side bound — days, not
    data)."""
    import ray  # noqa: F401  (symmetry with sibling operators)

    from .keyed import sharded_grouped_agg

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            key_col: pc.cast(batch[key_col], pa.int64()),
            day_col: pc.cast(batch[day_col], pa.int64()),
        })
        return t.group_by([key_col, day_col]).aggregate([])

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.group_by([key_col, day_col]).aggregate([])  # x-batch dedup
        t = t.sort_by([(key_col, "ascending"), (day_col, "ascending")])
        d = t[day_col].to_numpy(zero_copy_only=False)
        lo, hi = d, d + window - 1  # coverage range of one active day
        n = t.num_rows
        new_key = _segment_starts(t, [key_col])
        # days are sorted within each key, so hi is nondecreasing within a
        # segment: a new coverage interval starts where lo jumps past the
        # previous day's hi (or at a key boundary)
        prev_hi = np.r_[np.int64(np.iinfo(np.int64).min), hi[:-1]]
        prev_hi[new_key] = np.iinfo(np.int64).min
        is_start = lo > prev_hi
        sidx = np.flatnonzero(is_start)  # every key boundary is a start
        int_start = lo[sidx]
        int_end = hi[np.r_[sidx[1:], n] - 1]
        bounds = np.concatenate([int_start, int_end + 1])
        deltas = np.concatenate([
            np.ones(len(int_start), np.int64),
            -np.ones(len(int_end), np.int64),
        ])
        return pa.table({"b": pa.array(bounds, pa.int64()),
                         "delta": pa.array(deltas, pa.int64())})

    deltas = sharded_grouped_agg(
        shard_apply(ds, [key_col], per_shard, prepare=partial, coalesce=False),
        ["b"], [("delta", "sum")],
    )

    # driver-side: O(distinct days) boundary rows + the distinct day set
    days = set()
    for part in (
        ds.map_batches(
            lambda b: pa.table(
                {day_col: pc.unique(pc.cast(b[day_col], pa.int64()))}
            ),
            batch_format="pyarrow",
        ).iter_batches(batch_format="pyarrow")
    ):
        days.update(part[day_col].to_pylist())
    bl = deltas.to_pandas().sort_values("b")
    bvals = bl["b"].to_numpy()
    csum = np.cumsum(bl["delta"].to_numpy())
    q = np.array(sorted(days), dtype=np.int64)
    pos = np.searchsorted(bvals, q, side="right") - 1
    counts = np.where(pos >= 0, csum[np.maximum(pos, 0)], 0).astype(np.int64)
    return pa.table({
        "d0": pa.array(q, pa.int64()),
        out_count: pa.array(counts, pa.int64()),
    })


def merge_intervals(ds, key_cols: list[str], start_col: str, end_col: str):
    """Coalesce transitively-overlapping (or touching) intervals per key
    into covering spans: the classic gaps-and-islands merge.  A new span
    starts where an interval's start exceeds the running max end of the
    key's earlier intervals (``s > prev_max``; touching ``s == prev_max``
    merges, SQL parity with the max() OVER ... 1 PRECEDING formulation).

    Output: key cols + ``start`` + ``end`` (int64) + ``n_intervals``.
    Same exchange shape as the other keyed kernels: ONE hash-shard shuffle
    of (key, start, end) triples, per-shard lexsort + a segmented running
    max (vectorized via a per-segment offset trick) + ``reduceat``.
    Partitioning assumption: one key's intervals fit in one shard group.
    """

    cols = list(key_cols) + [start_col, end_col]

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            **{k: batch[k] for k in key_cols},
            start_col: pc.cast(batch[start_col], pa.int64()),
            end_col: pc.cast(batch[end_col], pa.int64()),
        })

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in cols])
        n = t.num_rows
        s = t[start_col].to_numpy(zero_copy_only=False).astype(np.int64)
        e = t[end_col].to_numpy(zero_copy_only=False).astype(np.int64)
        first = _segment_starts(t, list(key_cols))
        # segmented running max of e: shift each key's values into a
        # disjoint band, one global cummax, shift back
        lo = min(s.min(), e.min())
        span = e.max() - lo + 1
        seg_id = np.cumsum(first) - 1
        m = np.maximum.accumulate(e - lo + seg_id * span) - seg_id * span + lo
        new = first.copy()
        new[1:] |= s[1:] > m[:-1]
        starts = np.flatnonzero(new)
        out = {c: t[c].take(pa.array(starts)) for c in key_cols}
        out["start"] = pa.array(s[starts], pa.int64())
        out["end"] = pa.array(np.maximum.reduceat(e, starts), pa.int64())
        out["n_intervals"] = pa.array(
            np.diff(np.r_[starts, n]).astype(np.int64), pa.int64()
        )
        return pa.table(out)

    return shard_apply(ds, key_cols, per_shard, prepare=project)


def rolling_sigma_outliers(
    ds,
    key_cols: list[str],
    order_cols: list[str],
    value_col: str,
    window: int = 16,
    k: int = 3,
    out_col: str = "is_anomaly",
):
    """Rolling k-sigma anomaly flags per key over a trailing ``window``-ROWS
    frame — the streaming outlier detector (SQL ``ROWS BETWEEN window-1
    PRECEDING AND CURRENT ROW`` mean/variance test).

    A row with pre-scaled int64 value ``c`` is anomalous iff

        ``(c*n - S)^2 > k^2 * (n*Q - S^2)``

    where ``S``/``Q``/``n`` are the frame's sum, sum-of-squares and row
    count — the |c - mean| > k*sigma_pop rule cross-multiplied into EXACT
    int64 arithmetic, so the flag is bit-identical to the SQL oracle (no
    float mean/variance in either engine).  Bounds: with centi-scaled
    values |c| <= 5e4 and window <= 64 every intermediate stays < 2^63.
    Note the max z-score in an n-row frame is sqrt(n-1), so ``window``
    must exceed ``k*k + 1`` for any point to be flaggable (k=3 needs
    window >= 11).  Overflow bound: the per-shard PREFIX sum of c^2 must
    stay < 2^63 — at centi-scale |c| <= 5e4 that is ~3.7e9 samples per
    key segment; longer single-series histories want a per-segment chunked
    cumsum (document of record, not a test-scale concern).

    Scale shape: one key-hash exchange of (key, order, c) rows, per-shard
    lexsort + segment-aware prefix sums (frame start = max(segment start,
    i-window+1) — vectorized, no Python loop).  Partial leading frames use
    the rows available, like SQL; a singleton frame is never anomalous
    (dev = 0).  Appends ``out_col`` (bool) to the input rows.
    """

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [(c, "ascending") for c in key_cols]
            + [(c, "ascending") for c in order_cols]
        )
        n = t.num_rows
        c = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.flatnonzero(_segment_starts(t, key_cols))
        sizes = np.diff(np.r_[starts, n])
        seg_start = np.repeat(starts, sizes)
        idx = np.arange(n, dtype=np.int64)
        j = np.maximum(seg_start, idx - window + 1)
        ps = np.r_[0, np.cumsum(c)]
        pq = np.r_[0, np.cumsum(c * c)]
        s = ps[idx + 1] - ps[j]
        q = pq[idx + 1] - pq[j]
        m = idx + 1 - j
        dev = c * m - s
        flag = dev * dev > (k * k) * (m * q - s * s)
        return t.append_column(out_col, pa.array(flag, pa.bool_()))

    return shard_apply(ds, key_cols, per_shard)


def lttb_indices(x: np.ndarray, y: np.ndarray, n_out: int) -> np.ndarray:
    """Largest-Triangle-Three-Buckets downsample: indices of the points
    that preserve the series' visual shape at ``n_out`` points (Steinarsson
    2013, the standard time-series viz downsampler).

    Spec (the fixture oracle reimplements exactly this, so every float op
    below is part of the contract):

    - ``x`` strictly ascending; if ``len(x) <= n_out`` all indices return.
    - first and last points are always kept.
    - interior bucket boundaries use INTEGER floor division (not the
      paper's float steps): ``b[j] = 1 + (j * (n - 2)) // (n_out - 2)``
      for ``j = 0 .. n_out - 2`` (so ``b[n_out - 2] == n - 1``), bucket
      ``j`` covering ``[b[j], b[j + 1])``; the "next bucket" of the last
      interior bucket is the final point alone.
    - per bucket, the candidate maximizing twice-the-triangle-area
      ``|dx * (y_c - y_a) - (x_a - x_c) * dy|`` with the previously
      selected point ``a`` and the next bucket's float64 mean point wins;
      ties keep the LOWEST index (np.argmax first-max), making the result
      bit-deterministic in float64.

    O(n) per series; runs per-group on the already-collapsed window series,
    never on raw events."""
    n = len(x)
    if n_out < 3:
        raise ValueError("n_out must be >= 3")
    if n <= n_out:
        return np.arange(n, dtype=np.int64)
    xf = x.astype(np.float64)
    yf = y.astype(np.float64)
    nb = n_out - 2
    j = np.arange(nb + 2, dtype=np.int64)
    b = 1 + (j * (n - 2)) // nb          # b[nb] == n - 1; sentinel b[nb+1]
    b[nb + 1] = n
    out = np.empty(n_out, dtype=np.int64)
    out[0] = 0
    a = 0
    for i in range(nb):
        nlo, nhi = b[i + 1], b[i + 2]
        avg_x = float(xf[nlo:nhi].mean())
        avg_y = float(yf[nlo:nhi].mean())
        lo, hi = b[i], b[i + 1]
        dx = xf[a] - avg_x
        dy = avg_y - yf[a]
        area2 = np.abs(dx * (yf[lo:hi] - yf[a]) - (xf[a] - xf[lo:hi]) * dy)
        a = lo + int(np.argmax(area2))
        out[i + 1] = a
    out[n_out - 1] = n - 1
    return out


def holt_linear(y: np.ndarray, alpha: float, gamma: float) -> tuple:
    """Holt double exponential smoothing (PromQL ``holt_winters`` family):
    level/trend recursion over one series, returning the final
    ``(level, trend)``.

    Spec (the fixture oracle mirrors every float op in order):
    ``l_0 = y_0``, ``t_0 = y_1 - y_0``; for ``i >= 1``
    ``l_i = alpha * y_i + (1 - alpha) * (l_prev + t_prev)`` then
    ``t_i = gamma * (l_i - l_prev) + (1 - gamma) * t_prev``.
    Requires ``len(y) >= 2``.  Sequential by definition — runs per-group on
    the collapsed window series, never on raw events."""
    if len(y) < 2:
        raise ValueError("holt_linear needs >= 2 points")
    yf = y.astype(np.float64)
    level = float(yf[0])
    trend = float(yf[1]) - float(yf[0])
    for i in range(1, len(yf)):
        prev = level
        level = alpha * float(yf[i]) + (1.0 - alpha) * (level + trend)
        trend = gamma * (level - prev) + (1.0 - gamma) * trend
    return level, trend


def extrapolated_rate(
    ds,
    key_cols: list[str],
    ts_col: str,
    order_cols: list[str],
    cents_col: str,
    window_ms: int,
):
    """Prometheus ``rate()`` with its FULL extrapolation semantics
    (promql extrapolatedRate), per aligned window: within-window
    reset-adjusted increase (exact int64 cents), then boundary
    extrapolation — each window edge gets the gap to its first/last sample
    unless that gap exceeds 1.1x the average sample interval (then half an
    average interval), and the start gap is further capped by the
    time-to-zero of the counter.  Windows need >= 2 samples spanning > 0 ms
    (PromQL emits nothing otherwise; the zero-span guard also keeps the
    factor finite on tied timestamps, which real Prometheus series can't
    have).

    Every float op below is ordered to match the SQL oracle exactly; the
    only divisions are float/float with identical operand sequences.
    Output: key cols + ``window_start`` + ``n_samples`` + ``xrate_per_s``
    (value-units/sec, cents/100/window-seconds, rounded to 6).
    Same single key-hash exchange as :func:`counter_increase`.
    """

    cols = list(key_cols) + [ts_col] + list(order_cols) + [cents_col]
    win_s = float(window_ms) / 1000.0

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(cols)

    sort_keys = [(c, "ascending") for c in list(key_cols) + [ts_col] + list(order_cols)]

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by(sort_keys)
        ts = t[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cv = t[cents_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = (ts // window_ms) * window_ms
        seg = _segment_starts(t, list(key_cols))
        seg[1:] |= w[1:] != w[:-1]
        starts = np.flatnonzero(seg)
        counts = np.diff(np.r_[starts, len(w)]).astype(np.int64)
        # within-segment reset-adjusted deltas (int64, exact)
        contrib = np.zeros(len(cv), dtype=np.int64)
        if len(cv) > 1:
            delta = cv[1:] - cv[:-1]
            adj = np.where(delta < 0, cv[1:], delta)
            contrib[1:] = np.where(seg[1:], 0, adj)
        inc = np.add.reduceat(contrib, starts).astype(np.int64)
        first_t, last_t = ts[starts], ts[starts + counts - 1]
        first_v = cv[starts]
        keep = (counts >= 2) & (last_t > first_t)
        kt = pa.Table.from_arrays(
            [t[c].take(pa.array(starts[keep])) for c in key_cols], names=key_cols
        )
        n = counts[keep]
        inc, first_v = inc[keep], first_v[keep]
        w0 = w[starts][keep]
        si = (last_t[keep] - first_t[keep]).astype(np.float64)
        ai = si / (n - 1)
        d0 = (first_t[keep] - w0).astype(np.float64)
        d1 = (w0 + window_ms - last_t[keep]).astype(np.float64)
        ds0 = np.where(d0 >= 1.1 * ai, ai / 2.0, d0)
        de0 = np.where(d1 >= 1.1 * ai, ai / 2.0, d1)
        inc_f = inc.astype(np.float64)
        fv_f = first_v.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            dz = si * (fv_f / inc_f)
        ds1 = np.where((inc > 0) & (first_v >= 0) & (dz < ds0), dz, ds0)
        rate = inc_f * ((si + ds1 + de0) / si) / 100.0 / win_s
        out = {c: kt[c] for c in key_cols}
        out["window_start"] = pa.array(w0, pa.int64())
        out["n_samples"] = pa.array(n, pa.int64())
        out["xrate_per_s"] = pa.array(np.round(rate, 6), pa.float64())
        return pa.table(out)

    return shard_apply(ds, key_cols, per_shard, prepare=project)
