"""Histogram-valued series (the reference's 2nd/3rd sample types).

The reference's inner copy loop switches on THREE value types — float,
native ``Histogram`` (integer bucket counts), ``FloatHistogram`` — and
hard-errors on anything else (``copyer.go:108-127``, error ``copyer.go:21``).
The float path is the main engine (stages/rollup.py); this module adds both
histogram paths with the same posture:

* Sample model: a histogram sample is ``(ts, h_count int64, h_sum float64,
  h_buckets list<float64>)`` — cumulative-bucket counts over a fixed
  per-series upper-bound layout.  ``value_type`` distinguishes the native
  ``histogram`` (counts must be integral — enforced, mirroring the
  reference's hard-typed switch) from ``float_histogram``.
* Rollup semantics: histograms are cumulative gauges, so a window's rolled
  value is the **last sample by ts** (exactly what TSDB downsampling keeps),
  plus ``n_samples`` observed in the window; identical-ts duplicates dedup
  keep-first with a deterministic payload tiebreak.
* **Chunk encoding**: like float tiers (ts_bytes/val_bytes), histogram tier
  rows ship their bucket payload bit-encoded — ``histogram`` buckets as
  delta-of-delta over the cumulative int counts (codec.py's int64 stream
  codec), ``float_histogram`` buckets as Gorilla-XOR — via the vectorized
  batch encoders (all rows of a group in one pass).  The working
  ``h_buckets`` list column stays alongside for queries; the bytes are the
  storage/ship representation (round-trip pytest-verified).
* Type routing: :func:`route_samples` splits a mixed-type samples Dataset by
  ``value_type`` and raises the reference's hard error on unknown types.

Grouping uses the same (time-major group window, hash shard) shuffle key as
the float rollup, and the same sort / keep-first dedup / window-segment step
(``rollup.dedup_segments``) with its own payload tiebreak.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import poly_hash_windows
from ..windows import MS_1D, TIERS
from .rollup import _series_codes, cascade_kernel, cascade_tiers, dedup_segments, rollup_samples


def _bucket_hash(group: pa.Table) -> np.ndarray:
    """Deterministic per-row uint64 hash of the h_buckets payload — the last
    lexsort tiebreaker that makes identical-(series, ts) dedup keep-first
    well-defined regardless of Ray's shuffle/block ordering (vectorized
    windowed polynomial hash over the flattened list buffer)."""
    buckets = group["h_buckets"]
    if isinstance(buckets, pa.ChunkedArray):
        buckets = buckets.combine_chunks()
    flat = np.ascontiguousarray(
        pc.list_flatten(buckets).to_numpy(zero_copy_only=False).astype(np.float64)
    ).view(np.uint64)
    lens = pc.list_value_length(buckets).to_numpy(zero_copy_only=False).astype(np.int64)
    offs = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    return poly_hash_windows(flat, offs)

SUPPORTED_VALUE_TYPES = ("float", "histogram", "float_histogram")
HISTOGRAM_TYPES = ("histogram", "float_histogram")


class UnsupportedValueTypeError(ValueError):
    """The reference's ErrUnsupportValueType (copyer.go:21) analogue."""


def route_samples(samples_ds, value_type_col: str = "value_type"):
    """Split a mixed samples Dataset into
    ``{"float": ds, "histogram": ds, "float_histogram": ds}`` — the
    reference's three-way switch (``copyer.go:108-127``).

    The input executes once, here: the type-checked samples are
    materialized before the split, so each view re-runs only its filter.
    Unknown value types raise :class:`UnsupportedValueTypeError` from the
    check (aborting the job — the reference aborts the slice,
    ``copyer.go:123-126``).
    """

    def check(batch: pa.Table) -> pa.Table:
        types = pc.unique(batch[value_type_col]).to_pylist()
        bad = [t for t in types if t not in SUPPORTED_VALUE_TYPES]
        if bad:
            raise UnsupportedValueTypeError(f"不支持的数据格式: {bad}")
        return batch

    checked = samples_ds.map_batches(check, batch_format="pyarrow").materialize()
    out = {}
    for vt in SUPPORTED_VALUE_TYPES:
        out[vt] = checked.map_batches(
            lambda b, vt=vt: b.filter(pc.equal(b[value_type_col], vt)),
            batch_format="pyarrow",
        )
    return out


def encode_hist_buckets_many(flat: np.ndarray, offsets: np.ndarray,
                             value_type: str) -> pa.BinaryArray:
    """Bit-encode many cumulative bucket arrays in one vectorized pass; one
    ``pa.BinaryArray`` element per array.

    ``histogram``: integral counts — delta-of-delta over the cumulative
    int64 series (cumulative counts are monotone, deltas are per-bucket
    counts; dod compresses the usual smooth shapes to a few bits/bucket).
    Non-integral counts hard-error, mirroring the reference's typed switch.
    ``float_histogram``: Gorilla-XOR over the float64 counts.
    """
    from ..codec import encode_timestamps_many, encode_values_many

    if value_type == "histogram":
        ints = flat.astype(np.int64)
        if not np.array_equal(ints.astype(np.float64), flat):
            raise UnsupportedValueTypeError(
                "不支持的数据格式: histogram bucket counts must be integral "
                "(use value_type='float_histogram' for float counts)"
            )
        return encode_timestamps_many(ints, offsets)
    if value_type == "float_histogram":
        return encode_values_many(flat.astype(np.float64), offsets)
    raise UnsupportedValueTypeError(f"不支持的数据格式: {value_type!r}")


def decode_hist_buckets(buf: bytes, n_buckets: int, value_type: str) -> np.ndarray:
    """Inverse of the bucket chunk encoding (float64 out for both types)."""
    from ..codec import decode_timestamps, decode_values

    if value_type == "histogram":
        return decode_timestamps(buf, n_buckets).astype(np.float64)
    if value_type == "float_histogram":
        return decode_values(buf, n_buckets)
    raise UnsupportedValueTypeError(f"不支持的数据格式: {value_type!r}")


def _rollup_hist_group(group: pa.Table, tier: str, value_type: str) -> pa.Table:
    """One (shard, group-window) of histogram samples -> per-(series, tier
    window) last-histogram rows (vectorized)."""
    group = group.combine_chunks()
    codes, dictionary = _series_codes(group)
    ts = group["ts"].to_numpy().astype(np.int64, copy=False)
    # ties on (series, ts) break by payload (min h_count, then min h_sum,
    # then bucket-payload hash) — the float path's min-value tiebreak
    cnt_key = group["h_count"].to_numpy().astype(np.int64, copy=False)
    sum_key = group["h_sum"].to_numpy().astype(np.float64, copy=False)
    order, codes_s, ts_s, win, starts, ends = dedup_segments(
        codes, ts, (_bucket_hash(group), sum_key, cnt_key), TIERS[tier])
    last_idx = order[ends - 1]

    take_last = pa.array(last_idx)
    kept = group["h_buckets"].take(take_last)
    if isinstance(kept, pa.ChunkedArray):
        kept = kept.combine_chunks()
    flat = pc.list_flatten(kept).to_numpy(zero_copy_only=False).astype(np.float64)
    lens = pc.list_value_length(kept).to_numpy(zero_copy_only=False).astype(np.int64)
    offs = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    bucket_bytes = encode_hist_buckets_many(flat, offs, value_type)
    return pa.table(
        {
            "series_key": dictionary.take(pa.array(codes_s[starts])),
            "tier": pa.nulls(len(starts), pa.string()).fill_null(tier),
            "value_type": pa.nulls(len(starts), pa.string()).fill_null(value_type),
            "window_start": pa.array(win[starts], pa.int64()),
            "min_ts": pa.array(ts_s[starts], pa.int64()),
            "max_ts": pa.array(ts_s[ends - 1], pa.int64()),
            "n_samples": pa.array((ends - starts).astype(np.int64)),
            "h_count": pc.cast(group["h_count"].take(take_last), pa.int64()),
            "h_sum": pc.cast(group["h_sum"].take(take_last), pa.float64()),
            "h_buckets": kept,
            "h_buckets_bytes": bucket_bytes,
            "n_buckets": pa.array(lens),
        }
    )


def finer_as_samples(finer: pa.Table) -> pa.Table:
    """Histogram tier rows -> samples for the next coarser pass (ts :=
    max_ts carries last-ness; last-of-lasts == last)."""
    return pa.table({"series_key": finer["series_key"], "ts": finer["max_ts"],
                     "h_count": finer["h_count"], "h_sum": finer["h_sum"],
                     "h_buckets": finer["h_buckets"]})


def _check_value_type(value_type: str) -> None:
    if value_type not in HISTOGRAM_TYPES:
        raise UnsupportedValueTypeError(f"不支持的数据格式: {value_type!r}")


def rollup_histograms(
    samples_ds,
    tier: str = "5m",
    group_window_ms: int = MS_1D,
    value_type: str = "float_histogram",
):
    """Histogram samples -> per-(series, window) last-histogram rows.

    Input columns: ``series_key, ts (int64 ms), h_count, h_sum, h_buckets``.
    Output: one row per (series_key, window_start) with the window's last
    histogram (as the working list column AND bit-encoded
    ``h_buckets_bytes``/``n_buckets``, the float tiers' ts_bytes/val_bytes
    analogue), its observation count, and min/max ts — mergeable upward by
    re-applying the same operator at a coarser tier (last-of-lasts, on
    :func:`finer_as_samples` of the finer rows).  ``value_type`` selects
    the bucket codec (int dod vs Gorilla) and is stamped on every output
    row.
    """
    _check_value_type(value_type)
    if group_window_ms % TIERS[tier] != 0:
        raise ValueError(f"group window {group_window_ms} not a multiple of tier {tier}")
    kernel = cascade_kernel(lambda g, t: _rollup_hist_group(g, t, value_type), None, (tier,))
    return rollup_samples(samples_ds, kernel, group_window_ms)


def rollup_histogram_cascade(samples_ds, group_window_ms: int = MS_1D,
                             value_type: str = "float_histogram"):
    """Histogram samples -> the rows of every ``cascade_tiers`` tier from
    one exchange: the kernel re-applied, in the same call, to the finer
    rows it just built (the float :func:`rollup.rollup_cascade` shape)."""
    _check_value_type(value_type)

    def first(group: pa.Table, tier: str) -> pa.Table:
        return _rollup_hist_group(group, tier, value_type)

    def merge(finer: pa.Table, tier: str) -> pa.Table:
        return _rollup_hist_group(finer_as_samples(finer), tier, value_type)

    return rollup_samples(
        samples_ds, cascade_kernel(first, merge, cascade_tiers(group_window_ms)),
        group_window_ms)


def histogram_quantile(tier_table: pa.Table, q: float, les: list[float]) -> pa.Table:
    """Per-row quantile estimate from cumulative buckets (promql-style linear
    interpolation within the located bucket; +Inf bucket -> highest finite le)."""
    out = []
    les_arr = np.asarray(les, dtype=np.float64)
    for buckets in tier_table["h_buckets"].to_pylist():
        b = np.asarray(buckets, dtype=np.float64)
        total = b[-1]
        if total <= 0:
            out.append(float("nan"))
            continue
        rank = q * total
        i = int(np.searchsorted(b, rank, side="left"))
        i = min(i, len(b) - 1)
        if not np.isfinite(les_arr[i]):
            out.append(float(les_arr[i - 1]) if i > 0 else float("nan"))
            continue
        lo = les_arr[i - 1] if i > 0 else 0.0
        cb = b[i - 1] if i > 0 else 0.0
        width = les_arr[i] - lo
        inbucket = b[i] - cb
        frac = 0.0 if inbucket <= 0 else (rank - cb) / inbucket
        out.append(float(lo + width * frac))
    return tier_table.append_column(f"q{q}", pa.array(out, pa.float64()))


def histogram_quantile_cols(batch: pa.Table, q: float, les: list[float],
                            bucket_cols: list[str], total_col: str,
                            out_col: str = "q") -> pa.Table:
    """Vectorized promql-style ``histogram_quantile`` over COLUMN-encoded
    cumulative buckets (one int64 column per finite ``le`` + the +Inf
    total column) — the batch-kernel companion of
    :func:`histogram_quantile` (which walks a list column per row).

    Linear interpolation inside the located bucket; rank in the +Inf
    bucket returns the highest finite ``le``; an empty histogram returns
    NaN.  The arithmetic mirrors the SQL expression
    ``lo + (hi - lo) * ((rank - cb) / (ci - cb))`` term-for-term so a
    DuckDB oracle matches to the ulp.
    """
    k = len(les)
    cum = np.stack(
        [batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
         for c in bucket_cols + [total_col]],
        axis=1,
    )
    total = cum[:, -1]
    rank = q * total
    i = np.minimum((cum < rank[:, None]).sum(axis=1), k)
    les_ext = np.asarray(list(les) + [np.inf], dtype=np.float64)
    rows = np.arange(len(total))
    lo = np.where(i > 0, les_ext[np.maximum(i - 1, 0)], 0.0)
    hi = les_ext[i]
    cb = np.where(i > 0, cum[rows, np.maximum(i - 1, 0)], 0.0)
    ci = cum[rows, i]
    inb = ci - cb
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(inb <= 0, 0.0, (rank - cb) / np.where(inb <= 0, 1.0, inb))
        val = lo + (hi - lo) * frac
    val = np.where(i >= k, les_ext[k - 1] if k > 0 else np.nan, val)
    val = np.where(total <= 0, np.nan, val)
    return batch.append_column(out_col, pa.array(val, pa.float64()))
