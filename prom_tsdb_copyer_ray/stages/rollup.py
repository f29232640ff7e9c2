"""Tier rollup: samples -> 5m chunks -> 1h -> 1d continuous aggregates.

This is the engine's replacement for the reference's block write + merge
compaction (operators O11 + O14):

* :func:`rollup_raw` — the analogue of ``NewBlockWriter``/``Flush``
  (``copyer.go:82,157-163``): sort samples by time per series, dedup
  identical-timestamp samples (keep-first — deterministically the min-value
  one; the compactor's overlap-dedup semantics, ``compact.go:37``),
  aggregate count/sum/min/max/first/last per tier window, and
  delta-of-delta + Gorilla-XOR encode the raw points into a chunk struct.
  Series with zero in-range samples emit nothing (operator O9,
  ``copyer.go:142-145``).
* :func:`rollup_up` — the continuous-aggregate merge (the analogue of
  ``LeveledCompactor.Compact``, ``compact.go:18-45``, but *parallel*: the
  reference's strictly sequential compaction is its scaling ceiling,
  ``README.md:64-65``): merge finer-tier rows into the coarser window with
  the partial+final pattern (sum-of-sums, min-of-mins, first/last by time),
  and encode a **gap-filled** grid of finer-window means as the coarser
  chunk (missing finer slots -> NaN points, ts = finer window starts).

* :func:`rollup_cascade` — both in one pass: each group's raw samples are
  rolled into 5m chunks and, in the same kernel call, merged into every
  coarser tier whose window divides the group window (1h and 1d for the
  default day window).  A coarser window then lies whole inside one group,
  so the rows equal the ``rollup_raw`` -> ``rollup_up`` chain's (the
  VLDB 2020 compressed-time-series view of tiers as mergeable aggregates)
  at one exchange instead of three.  All tiers come back in one Dataset,
  told apart by the ``tier`` column.

Partitioning / skew design: every rollup runs through the shared hash-shard
exchange, :func:`stages.common.shard_apply` (its docstring holds the design),
keyed by ``series_key`` with ``by=("_gw",)`` — a coarse *group* window
(default 1 day for the raw tier) — so the shuffle key is ``(_gw, _shard)``
(time-major, so output blocks are time-clustered for the day-partitioned
write), with ``_shard`` one of ``common.NUM_SHARDS`` (64) hash shards of the
series, the one shard count every exchange uses.  The shard count is not
the stage's parallelism: the sort's block count is (``fanin()`` for the raw
exchange, the input's blocks for ``rollup_up``); the shards only split each
task's rows into kernel calls.  One ``map_groups`` call covers MANY
(series, tier-window) cells and processes them fully vectorized (lexsort +
``np.*.reduceat``); within a shard a hot series is bounded by the group
window (the memory-bounding role the reference's ``-S`` slice duration
plays, ``main.go:121``), and the cascade's coarser tiers add at most a
fraction of the group's 5m rows to that bound.
Every rollup sizes its input with ``size_input`` first, never by a probe:
an upper bound on its rows is known before it executes (a caller's bound,
a materialized count or Parquet footer row counts), and only an input of
unknown size is materialized to count it.  Under ``shard_apply``'s size
rule an input of fewer than ``SMALL_ROWS`` rows skips the exchange: one
task calls the kernel once per group window, in window order, and a lazy
input fuses with it, so a small ``run_copy`` (read -> extract -> cascade
-> write) is one task in one Ray Data execution.  A larger one streams
into the exchange unmaterialized.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..codec import encode_timestamps_many, encode_values_many
from ..windows import MS_1D, TIER_PARENT, TIERS, window_start_np
from .common import shard_apply, size_input

LABEL_COLS = ("__name__", "domain", "lang")
MERGE_GROUP_FACTOR = 16  # coarser windows per rollup_up group window

CHUNK_FIELDS = [
    ("series_key", pa.string()),
    ("__name__", pa.string()),
    ("domain", pa.string()),
    ("lang", pa.string()),
    ("tier", pa.string()),
    ("window_start", pa.int64()),
    ("min_ts", pa.int64()),
    ("max_ts", pa.int64()),
    ("n_samples", pa.int64()),
    ("ts_bytes", pa.binary()),
    ("val_bytes", pa.binary()),
    ("agg_count", pa.int64()),
    ("agg_sum", pa.float64()),
    ("agg_min", pa.float64()),
    ("agg_max", pa.float64()),
    ("agg_first", pa.float64()),
    ("agg_last", pa.float64()),
]
CHUNK_SCHEMA = pa.schema(CHUNK_FIELDS)


def _series_codes(table: pa.Table) -> tuple[np.ndarray, pa.Array]:
    """Dictionary-encode series_key -> (int codes ndarray, dictionary array)."""
    col = table["series_key"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    d = col.dictionary_encode()
    return d.indices.to_numpy().astype(np.int64, copy=False), d.dictionary


def _take_str(col, order: np.ndarray, idx: np.ndarray) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.take(pa.array(order[idx]))


def _build_chunk_table(
    tier: str,
    group: pa.Table,
    order: np.ndarray,
    starts: np.ndarray,
    series_col: pa.Array,
    wstart: np.ndarray,
    min_ts: np.ndarray,
    max_ts: np.ndarray,
    n_samples: np.ndarray,
    ts_bytes: pa.BinaryArray,
    val_bytes: pa.BinaryArray,
    agg_count: np.ndarray,
    agg_sum: np.ndarray,
    agg_min: np.ndarray,
    agg_max: np.ndarray,
    agg_first: np.ndarray,
    agg_last: np.ndarray,
) -> pa.Table:
    n = len(starts)
    cols = {
        "series_key": series_col,
        "__name__": _take_str(group["__name__"], order, starts)
        if "__name__" in group.column_names
        else pa.nulls(n, pa.string()).fill_null(""),
        "domain": _take_str(group["domain"], order, starts)
        if "domain" in group.column_names
        else pa.nulls(n, pa.string()).fill_null(""),
        "lang": _take_str(group["lang"], order, starts)
        if "lang" in group.column_names
        else pa.nulls(n, pa.string()).fill_null(""),
        "tier": pa.nulls(n, pa.string()).fill_null(tier),
        "window_start": pa.array(wstart, pa.int64()),
        "min_ts": pa.array(min_ts, pa.int64()),
        "max_ts": pa.array(max_ts, pa.int64()),
        "n_samples": pa.array(n_samples, pa.int64()),
        "ts_bytes": ts_bytes,
        "val_bytes": val_bytes,
        "agg_count": pa.array(agg_count, pa.int64()),
        "agg_sum": pa.array(agg_sum, pa.float64()),
        "agg_min": pa.array(agg_min, pa.float64()),
        "agg_max": pa.array(agg_max, pa.float64()),
        "agg_first": pa.array(agg_first, pa.float64()),
        "agg_last": pa.array(agg_last, pa.float64()),
    }
    return pa.table(cols)


def _segment_starts(codes_s: np.ndarray, win_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start / end offsets of the runs of equal ``(codes_s, win_s)`` in rows
    sorted by both — one (series, window) cell per run."""
    newgrp = np.empty(len(codes_s), dtype=bool)
    newgrp[0] = True
    np.logical_or(codes_s[1:] != codes_s[:-1], win_s[1:] != win_s[:-1], out=newgrp[1:])
    starts = np.flatnonzero(newgrp)
    return starts, np.r_[starts[1:], len(codes_s)]


def dedup_segments(codes: np.ndarray, ts: np.ndarray, tiebreak: tuple, d_ms: int):
    """Sort samples by (series, ts), keep the first of each identical
    (series, ts) — the compactor's overlap-dedup rule, ``compact.go:37`` —
    and cut the kept samples into (series, tier-window) segments.

    ``tiebreak`` holds the lexsort keys (least significant first) that order
    duplicates by payload, never by nondeterministic input order, so
    keep-first is well-defined.  Returns ``(order, codes_s, ts_s, win,
    starts, ends)``: ``order`` indexes the kept samples in the input, in
    sorted order; ``win`` is each one's tier window start; segment ``j`` is
    kept samples ``starts[j]:ends[j]``.
    """
    order = np.lexsort((*tiebreak, ts, codes))
    codes_s, ts_s = codes[order], ts[order]
    keep = np.empty(len(ts_s), dtype=bool)
    keep[0] = True
    np.logical_or(codes_s[1:] != codes_s[:-1], ts_s[1:] != ts_s[:-1], out=keep[1:])
    order, codes_s, ts_s = order[keep], codes_s[keep], ts_s[keep]
    win = window_start_np(ts_s, d_ms)
    starts, ends = _segment_starts(codes_s, win)
    return order, codes_s, ts_s, win, starts, ends


def _rollup_raw_group(group: pa.Table, tier: str) -> pa.Table:
    """One (shard, group-window) of raw samples -> tier chunk rows (vectorized)."""
    group = group.combine_chunks()
    codes, dictionary = _series_codes(group)
    ts = group["ts"].to_numpy().astype(np.int64, copy=False)
    val = group["value"].to_numpy().astype(np.float64, copy=False)
    # duplicates keep the min value
    order, codes_s, ts_s, win, starts, ends = dedup_segments(codes, ts, (val,), TIERS[tier])
    val_s = val[order]

    sums = np.add.reduceat(val_s, starts)
    mins = np.minimum.reduceat(val_s, starts)
    maxs = np.maximum.reduceat(val_s, starts)
    counts = (ends - starts).astype(np.int64)

    # all chunks of the group encoded in ONE vectorized pass (codec.py)
    chunk_offsets = np.append(starts, len(ts_s))
    ts_bytes = encode_timestamps_many(ts_s, chunk_offsets)
    val_bytes = encode_values_many(val_s, chunk_offsets)

    series_col = dictionary.take(pa.array(codes_s[starts]))
    return _build_chunk_table(
        tier, group, order, starts, series_col,
        win[starts], ts_s[starts], ts_s[ends - 1], counts,
        ts_bytes, val_bytes,
        counts, sums, mins, maxs, val_s[starts], val_s[ends - 1],
    )


def _rollup_merge_group(group: pa.Table, tier: str, finer_ms: int) -> pa.Table:
    """One (shard, group-window) of finer-tier rows -> coarser chunk rows.

    Within one series, finer windows are disjoint, so ordering by min_ts
    equals ordering by window_start — one lexsort serves first/last picking
    and the gap-fill grid construction.
    """
    d_ms = TIERS[tier]
    group = group.combine_chunks()
    codes, dictionary = _series_codes(group)
    wstarts = group["window_start"].to_numpy().astype(np.int64, copy=False)
    cw = window_start_np(wstarts, d_ms)

    order = np.lexsort((wstarts, cw, codes))
    codes_s, cw_s, w_s = codes[order], cw[order], wstarts[order]
    cnt = group["agg_count"].to_numpy().astype(np.int64, copy=False)[order]
    s = group["agg_sum"].to_numpy().astype(np.float64, copy=False)[order]
    mn = group["agg_min"].to_numpy()[order]
    mx = group["agg_max"].to_numpy()[order]
    first = group["agg_first"].to_numpy()[order]
    last = group["agg_last"].to_numpy()[order]
    min_ts = group["min_ts"].to_numpy().astype(np.int64, copy=False)[order]
    max_ts = group["max_ts"].to_numpy().astype(np.int64, copy=False)[order]

    starts, ends = _segment_starts(codes_s, cw_s)

    counts = np.add.reduceat(cnt, starts)
    sums = np.add.reduceat(s, starts)
    mins = np.minimum.reduceat(mn, starts)
    maxs = np.maximum.reduceat(mx, starts)
    g_min_ts = np.minimum.reduceat(min_ts, starts)
    g_max_ts = np.maximum.reduceat(max_ts, starts)

    means = s / cnt
    n_slots = d_ms // finer_ms
    # vectorized gap-filled grid for ALL chunks at once: chunk j owns flat
    # slots [j*n_slots, (j+1)*n_slots); a finer row lands at slot
    # (w_s - its coarse window) // finer_ms — then one batch encode pass
    n_chunks = len(starts)
    grid_ts = np.repeat(cw_s[starts], n_slots) + np.tile(
        np.arange(n_slots, dtype=np.int64) * finer_ms, n_chunks
    )
    grid_vals = np.full(n_chunks * n_slots, np.nan, dtype=np.float64)
    chunk_of_row = np.repeat(np.arange(n_chunks, dtype=np.int64), ends - starts)
    grid_vals[chunk_of_row * n_slots + (w_s - cw_s) // finer_ms] = means
    grid_offsets = np.arange(n_chunks + 1, dtype=np.int64) * n_slots
    ts_bytes = encode_timestamps_many(grid_ts, grid_offsets)
    val_bytes = encode_values_many(grid_vals, grid_offsets)
    n_samples = np.full(n_chunks, n_slots, dtype=np.int64)

    series_col = dictionary.take(pa.array(codes_s[starts]))
    return _build_chunk_table(
        tier, group, order, starts, series_col,
        cw_s[starts], g_min_ts, g_max_ts, n_samples,
        ts_bytes, val_bytes,
        counts, sums, mins, maxs, first[starts], last[ends - 1],
    )


def with_group_window(ts_col: str, group_window_ms: int):
    """``prepare`` step for :func:`shard_apply`: append the coarse group
    window ``_gw`` of ``ts_col`` (the rollup's time-major ``by`` column)."""

    def fn(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col].to_numpy().astype(np.int64)
        return batch.append_column("_gw", pa.array(window_start_np(ts, group_window_ms)))

    return fn


def cascade_tiers(group_window_ms: int) -> tuple[str, ...]:
    """The tiers a group window of samples holds whole: 5m and every coarser
    tier whose window divides ``group_window_ms`` (1h and 1d for a day)."""
    if group_window_ms % TIERS["5m"] != 0:
        raise ValueError(f"group window {group_window_ms} not a multiple of tier 5m")
    return tuple(t for t, d in TIERS.items() if group_window_ms % d == 0)


def cascade_kernel(first, merge, tiers, metrics_sink=None, first_step: str = "rollup_raw"):
    """Kernel: one group -> the rows of every tier in ``tiers`` in one table,
    told apart by their ``tier`` column.

    ``first(group, tiers[0])`` builds the finest tier; ``merge(finer, tier)``
    builds each next one from the rows just built, so a coarser tier never
    needs an exchange of its own.  With a metrics sink, each step's wall time
    (``{first_step}_{tier}_group_ms``, then ``rollup_up_{tier}_group_ms``)
    reaches it in one awaited call per group.
    """

    def kernel(group: pa.Table) -> pa.Table:
        import time

        from ..state import metrics

        out, timings = [], {}
        for tier in tiers:
            t0 = time.monotonic()
            out.append(merge(out[-1], tier) if out else first(group, tier))
            step = "rollup_up" if len(out) > 1 else first_step
            timings[f"{step}_{tier}_group_ms"] = (time.monotonic() - t0) * 1000
        metrics.record(metrics_sink, timings)
        return out[0] if len(out) == 1 else pa.concat_tables(out, promote_options="default")

    return kernel


def rollup_samples(samples_ds, kernel, group_window_ms: int,
                   rows: int | None = None):
    """Samples Dataset -> ``kernel`` applied per (group window, series shard):
    the one wide exchange over raw samples (or one task under
    ``SMALL_ROWS``).  ``rows``: an upper bound on the samples, if known."""
    samples_ds, rows = size_input(samples_ds, rows)
    return shard_apply(
        samples_ds, ["series_key"], kernel,
        prepare=with_group_window("ts", group_window_ms), by=("_gw",),
        rows=rows,
    )


def _merge_finer(finer: pa.Table, tier: str) -> pa.Table:
    return _rollup_merge_group(finer, tier, TIERS[TIER_PARENT[tier]])


def rollup_raw(
    samples_ds,
    tier: str = "5m",
    group_window_ms: int = MS_1D,
    metrics_sink=None,
):
    """Raw samples Dataset -> one tier's chunk Dataset."""
    if group_window_ms % TIERS[tier] != 0:
        raise ValueError(f"group window {group_window_ms} not a multiple of tier {tier}")
    return rollup_samples(
        samples_ds, cascade_kernel(_rollup_raw_group, None, (tier,), metrics_sink),
        group_window_ms)


def rollup_cascade(samples_ds, group_window_ms: int = MS_1D, metrics_sink=None,
                   rows: int | None = None):
    """Raw samples Dataset -> the rows of every :func:`cascade_tiers` tier
    (5m, 1h and 1d for a day window) from one exchange: each group's 5m rows
    are merged into its 1h rows, and those into its 1d rows, in the same
    kernel call.  A coarser window lies whole inside one group window, so
    the rows equal the :func:`rollup_raw` -> :func:`rollup_up` chain's.
    ``rows``: an upper bound on the samples, if known."""
    tiers = cascade_tiers(group_window_ms)
    return rollup_samples(
        samples_ds, cascade_kernel(_rollup_raw_group, _merge_finer, tiers, metrics_sink),
        group_window_ms, rows=rows)


def rollup_up(finer_ds, tier: str, metrics_sink=None):
    """Finer-tier chunk Dataset -> coarser tier (partial+final merge shuffle).

    Group window = ``tier * MERGE_GROUP_FACTOR`` so one vectorized call
    merges many coarser windows (map_groups overhead amortized, same as
    rollup_raw).
    """
    kernel = cascade_kernel(_merge_finer, None, (tier,), metrics_sink, first_step="rollup_up")
    # no coalesce hop: merge inputs are already collapsed chunk rows in
    # O(partitions) blocks; an extra repartition is a pure latency barrier
    finer_ds, rows = size_input(finer_ds)
    return shard_apply(
        finer_ds, ["series_key"], kernel,
        prepare=with_group_window("window_start", TIERS[tier] * MERGE_GROUP_FACTOR),
        by=("_gw",), coalesce=False, rows=rows,
    )


def decode_tier_points(tier_table: pa.Table) -> pa.Table:
    """Decode chunk rows back to (series_key, ts, value) points (verify path).

    The inverse of the encode stage; used by golden tests and the ``verify``
    pipeline (the reference's old-vs-new comparison, ``README.md:76-107``).
    """
    from ..codec import decode_chunk

    keys, names, domains, langs, ts_out, val_out = [], [], [], [], [], []
    cols = ("series_key", "__name__", "domain", "lang", "n_samples", "ts_bytes", "val_bytes")
    for sk, nm, dm, lg, n, tsb, vb in zip(*(tier_table[c].to_pylist() for c in cols)):
        t_arr, v_arr = decode_chunk(tsb, vb, n)
        keys.extend([sk] * n)
        names.extend([nm] * n)
        domains.extend([dm] * n)
        langs.extend([lg] * n)
        ts_out.append(t_arr)
        val_out.append(v_arr)
    return pa.table(
        {
            "series_key": pa.array(keys, pa.string()),
            "__name__": pa.array(names, pa.string()),
            "domain": pa.array(domains, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "ts": pa.array(np.concatenate(ts_out) if ts_out else np.empty(0, np.int64)),
            "value": pa.array(np.concatenate(val_out) if val_out else np.empty(0, np.float64)),
        }
    )
