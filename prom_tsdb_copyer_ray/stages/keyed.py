"""Sharded per-key kernels: top-k per group, sessionization, group quantiles.

Operators Ray Data lacks natively, all built on the same scale shape:
partial work inside ``map_batches`` where semantics allow (the ``prepare``
combiner), then ONE hash-shard exchange, :func:`.common.shard_apply` — its
docstring holds the partitioning and skew design — so a single vectorized
task covers thousands of keys via segment boundaries after one sort.

* :func:`sharded_grouped_agg` — the partial+final grouped aggregate
  (sum / min / max): rows in, one row per key out.  It owns the per-batch
  Arrow ``group_by`` combiner, so its callers only project the columns
  its specs read; the other aggregates here compose on it.
* :func:`topk_per_group` — top-k rows per key by a value column.  The
  per-batch partial top-k is a true combiner: only ``k`` rows per (key,
  batch) ever reach the shuffle.
* :func:`sessionize` — gap-based sessions per key (split where the time
  since the previous event exceeds ``gap_ms``), aggregated to one row per
  session.  Partitioning assumption (documented per the brief): one key's
  full event history fits in one shard group — keys are users, not the
  whole corpus.
* :func:`group_quantiles` — exact per-key quantiles with DuckDB
  ``quantile_disc`` semantics (``sorted[ceil(q*n)-1]``).  Continuous values
  cannot be combined per batch, so the shuffle moves (key, value) pairs —
  the honest cost of an *exact* quantile; at extreme scale callers should
  bin values first and accept approximation.

Determinism: every kernel sorts with explicit tiebreaks; outputs are pure
functions of the input multiset.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .common import key_hash64, shard_apply


def _segment_starts(t: pa.Table, key_cols: list[str]) -> np.ndarray:
    """Boolean new-segment mask over a table already sorted by key_cols.

    Nulls form one group, as in SQL ``GROUP BY``: a null key equals the
    null before it and differs from any value (``sort_by`` puts nulls
    last)."""
    n = t.num_rows
    new = np.zeros(n, dtype=bool)
    if n == 0:
        return new
    new[0] = True
    for c in key_cols:
        col = t[c]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        neq = pc.not_equal(col.slice(1), col.slice(0, n - 1))
        if col.null_count:
            null = col.is_null().to_numpy(zero_copy_only=False)
            neq = pc.fill_null(neq, True).to_numpy(zero_copy_only=False)
            neq &= ~(null[1:] & null[:-1])
        else:
            neq = neq.to_numpy(zero_copy_only=False)
        new[1:] |= neq
    return new


def _topk_kernel(table: pa.Table, key_cols: list[str], value_col: str, k: int,
                 tiebreak_col: str | None, descending: bool) -> pa.Table:
    if table.num_rows == 0:
        return table
    order = [(c, "ascending") for c in key_cols]
    order.append((value_col, "descending" if descending else "ascending"))
    if tiebreak_col is not None:
        order.append((tiebreak_col, "ascending"))
    t = table.sort_by(order)
    new = _segment_starts(t, key_cols)
    starts = np.flatnonzero(new)
    sizes = np.diff(np.r_[starts, t.num_rows])
    rank = np.arange(t.num_rows, dtype=np.int64) - np.repeat(starts, sizes)
    return t.filter(pa.array(rank < k))


def topk_per_group(ds, key_cols: list[str], value_col: str, k: int,
                   tiebreak_col: str | None = None, descending: bool = True):
    """Top-k rows per key: per-batch combiner, then one shard groupby.

    Ties are broken by ``tiebreak_col`` ascending (pass the row's unique id
    for a fully deterministic result).  The combiner bounds shuffle volume
    at k rows per (key, batch) — at 100 TB the exchange moves winners, not
    the dataset."""

    def topk(t: pa.Table) -> pa.Table:
        return _topk_kernel(t, key_cols, value_col, k, tiebreak_col, descending)

    return shard_apply(ds, key_cols, topk, prepare=topk, coalesce=False)


def sessionize(ds, key_col: str, ts_col: str, gap_ms: int,
               value_col: str | None = None):
    """Gap-based sessions per key -> one aggregate row per session.

    A new session starts when the gap since the key's previous event
    exceeds ``gap_ms``.  Output columns: key, ``session_start_ms``,
    ``session_end_ms``, ``n_events`` (+ ``sum_value`` when ``value_col``).
    One shuffle of (key, ts[, value]) triples; per-shard work is a lexsort
    plus ``np.add.reduceat`` over session segments."""

    def project(batch: pa.Table) -> pa.Table:
        cols = {
            key_col: pc.cast(batch[key_col], pa.int64()),
            ts_col: pc.cast(batch[ts_col], pa.int64()),
        }
        if value_col is not None:
            cols[value_col] = pc.cast(batch[value_col], pa.float64())
        return pa.table(cols)

    def per_shard(group: pa.Table) -> pa.Table:
        n = group.num_rows
        key = group[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ts, key))
        key_s, ts_s = key[order], ts[order]
        brk = np.ones(n, dtype=bool)
        brk[1:] = (key_s[1:] != key_s[:-1]) | (ts_s[1:] - ts_s[:-1] > gap_ms)
        starts = np.flatnonzero(brk)
        ends = np.r_[starts[1:], n]
        out = {
            key_col: pa.array(key_s[starts], pa.int64()),
            "session_start_ms": pa.array(ts_s[starts], pa.int64()),
            "session_end_ms": pa.array(ts_s[ends - 1], pa.int64()),
            "n_events": pa.array((ends - starts).astype(np.int64), pa.int64()),
        }
        if value_col is not None:
            v = group[value_col].to_numpy(zero_copy_only=False)[order]
            out["sum_value"] = pa.array(np.add.reduceat(v, starts), pa.float64())
        return pa.table(out)

    return shard_apply(ds, [key_col], per_shard, prepare=project, coalesce=False)


def count_distinct_per_group(ds, key_cols: list[str], value_col: str,
                             out_col: str = "n_distinct"):
    """Exact COUNT(DISTINCT value) per key.

    Scale shape: two :func:`sharded_grouped_agg` exchanges.  The first
    dedups (key, value) pairs sharded by the PAIR hash (so a value seen in
    many batches dedups globally inside one shard; its per-batch combiner
    already drops in-batch repeats); the second sums a ones column per
    key, its combiner collapsing each block of distinct pairs to per-key
    counts first.  For approximate needs at extreme cardinality swap the
    dedup for a mergeable sketch; this operator is the exact path."""
    keys = list(key_cols)

    def valid(batch: pa.Table) -> pa.Table:
        # SQL COUNT(DISTINCT) ignores NULL values
        return batch.filter(pc.is_valid(batch[value_col]))

    def ones(batch: pa.Table) -> pa.Table:
        return batch.select(keys).append_column(
            out_col, pa.array(np.ones(batch.num_rows, np.int64)))

    pairs = sharded_grouped_agg(ds.map_batches(valid, batch_format="pyarrow"),
                                keys + [value_col], [])
    return sharded_grouped_agg(pairs.map_batches(ones, batch_format="pyarrow"),
                               keys, [(out_col, "sum")])


_REDUCERS = {"sum": np.add, "min": np.minimum, "max": np.maximum}


def sharded_grouped_agg(ds, key_cols: list[str], agg_specs: list[tuple[str, str]]):
    """Grouped aggregate over MANY keys, partial+final: rows in, one row
    per key out, replacing Ray's per-key hash aggregate (Python-level
    per-key cost — unusable at 1e5+ keys).

    ``agg_specs`` is ``[(col, fn)]`` with fn in {"sum", "min", "max"};
    output: key cols + agg cols, same names.  Each batch is first combined
    by an Arrow ``group_by(key_cols).aggregate(agg_specs)`` (the partial:
    at most one row per key and batch crosses the exchange; nulls are
    skipped, as in SQL), then one hash-shard exchange merges the partials
    with a lexsort + ``reduceat`` per agg column — sum, min and max are
    their own combiners.  Columns outside the keys and specs are dropped
    by the partial, so a caller only projects what the specs read (a
    ``COUNT(*)`` is a ones column summed; a key dedup is an empty spec).
    Exactness note: float sums are re-associated — use integer-valued or
    pre-scaled columns when bit-exact results matter."""
    key_cols = list(key_cols)
    agg_specs = list(agg_specs)
    spec_col = {f"{col}_{fn}": col for col, fn in agg_specs}

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(key_cols).aggregate(agg_specs)
        return g.rename_columns([spec_col.get(c, c) for c in g.column_names])

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in key_cols])
        starts = np.flatnonzero(_segment_starts(t, key_cols))
        out = t.select(key_cols).take(pa.array(starts))
        for col, fn in agg_specs:
            vals = t[col].to_numpy(zero_copy_only=False)
            out = out.append_column(
                col, pa.array(_REDUCERS[fn].reduceat(vals, starts), t[col].type)
            )
        return out

    return shard_apply(ds, key_cols, per_shard, prepare=partial)


def mode_per_group(ds, key_cols: list[str], value_col: str,
                   count_col: str = "n"):
    """Most frequent value per key (deterministic: ties break to the
    smallest value).  Composition: a :func:`sharded_grouped_agg` count
    over (key, value), then the :func:`topk_per_group` kernel with k=1
    ordered by (count desc, value asc).  Two narrow shuffles; no per-key
    Python."""
    cols = list(key_cols) + [value_col]

    def ones(batch: pa.Table) -> pa.Table:
        return batch.select(cols).append_column(
            count_col, pa.array(np.ones(batch.num_rows, np.int64)))

    counts = sharded_grouped_agg(ds.map_batches(ones, batch_format="pyarrow"),
                                 cols, [(count_col, "sum")])
    return topk_per_group(counts, list(key_cols), count_col, 1,
                          tiebreak_col=value_col)


def group_quantiles(ds, key_cols: list[str], value_col: str,
                    qs: tuple[float, ...] = (0.5, 0.9, 0.99)):
    """Exact per-key quantiles, DuckDB ``quantile_disc`` semantics.

    For each key and each q, returns ``sorted_values[ceil(q*n) - 1]``.
    Output: key cols + one ``p<q*100>`` column per q (e.g. p50, p90, p99).
    """

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(list(key_cols) + [value_col])

    qnames = [f"p{q * 100:g}" for q in qs]

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [(c, "ascending") for c in key_cols] + [(value_col, "ascending")]
        )
        new = _segment_starts(t, key_cols)
        starts = np.flatnonzero(new)
        sizes = np.diff(np.r_[starts, t.num_rows])
        v = t[value_col].to_numpy(zero_copy_only=False)
        keys = t.select(key_cols).take(pa.array(starts))
        out = {c: keys[c] for c in key_cols}
        for q, name in zip(qs, qnames):
            idx = starts + np.ceil(q * sizes).astype(np.int64) - 1
            out[name] = pa.array(v[np.maximum(idx, starts)], pa.float64())
        return pa.table(out)

    return shard_apply(ds, key_cols, per_shard, prepare=project, coalesce=False)


def window_rank(ds, key_cols: list[str], order_cols: list[str],
                out_col: str = "rn"):
    """Per-row rank within key groups — SQL ``row_number() OVER (PARTITION
    BY keys ORDER BY order_cols)`` (make the last order col a unique id for
    full determinism).

    Window functions need every row of a key in one place: one shuffle of
    the narrow (keys, order cols) projection by key-hash shard, then a
    per-shard lexsort + segment arange covers thousands of keys per task.
    Rank starts at 1 (SQL parity).  Output: input columns + ``out_col``.
    """
    cols = list(key_cols) + list(order_cols)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(cols)

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in cols])
        starts = np.flatnonzero(_segment_starts(t, list(key_cols)))
        sizes = np.diff(np.r_[starts, t.num_rows])
        rn = np.arange(t.num_rows, dtype=np.int64) - np.repeat(starts, sizes) + 1
        return t.append_column(out_col, pa.array(rn, pa.int64()))

    return shard_apply(ds, key_cols, per_shard, prepare=project)


def running_sum(ds, key_cols: list[str], order_cols: list[str],
                value_col: str, out_col: str = "running"):
    """Per-row running total within key groups — SQL ``sum(value) OVER
    (PARTITION BY keys ORDER BY order_cols ROWS UNBOUNDED PRECEDING)``.

    Same shuffle shape as :func:`window_rank`.  The kernel is one global
    ``np.cumsum`` minus per-segment offsets — EXACT for integer values (the
    cross-engine-checked query feeds scaled integer milli-units); for float
    values the offset subtraction re-associates additions, so results can
    differ from SQL's sequential sum in the last ulps (document/round when
    comparing engines).
    """
    cols = list(key_cols) + list(order_cols)
    sel = cols + ([value_col] if value_col not in cols else [])

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(sel)

    def per_shard(t: pa.Table) -> pa.Table:
        integral = pa.types.is_integer(t.schema.field(value_col).type)
        out_type = pa.int64() if integral else pa.float64()
        t = t.sort_by([(c, "ascending") for c in cols])
        starts = np.flatnonzero(_segment_starts(t, list(key_cols)))
        v = t[value_col].to_numpy(zero_copy_only=False).astype(
            np.int64 if integral else np.float64
        )
        cs = np.cumsum(v)
        seg_base = np.r_[cs[:1] * 0, cs[starts[1:] - 1]]  # total before segment
        offs = np.repeat(seg_base, np.diff(np.r_[starts, t.num_rows]))
        return t.append_column(out_col, pa.array(cs - offs, out_type))

    return shard_apply(ds, key_cols, per_shard, prepare=project)


def pivot_counts(ds, key_cols: list[str], cat_col: str, categories: list[str],
                 value_col: str | None = None):
    """Pivot a BOUNDED categorical column into wide per-category aggregate
    columns, one output row per key (long -> wide reshape).

    Output columns: ``key_cols`` + ``n_<cat>`` (int64 count per category)
    and, when ``value_col`` is given, ``v_<cat>`` (float64 sum per
    category).  Rows whose category is not in ``categories`` (or is null)
    are dropped — the caller names the domain explicitly, mirroring the
    reference's closed value-type switch (copyer.go:108-127) where the
    handled kinds are enumerated up front.

    Scale shape: each row becomes one WIDE one-hot row (the category axis
    is folded into fixed columns before the exchange), and
    :func:`sharded_grouped_agg`'s per-batch combiner collapses a batch to
    at most ``keys_in_batch`` of them before its one exchange — so the
    shuffle moves ``O(distinct keys x len(categories))`` cells, never the
    events, and no stage is per-key Python.  ``len(categories)`` must be
    small (it is the output schema width); high-cardinality pivots should
    stay long and use :func:`sharded_grouped_agg` directly.
    """
    cats = list(categories)
    cat_arr = pa.array(cats, pa.string())
    n_names = [f"n_{c}" for c in cats]
    v_names = [f"v_{c}" for c in cats] if value_col is not None else []

    def one_hot(batch: pa.Table) -> pa.Table:
        ci = pc.index_in(batch[cat_col], value_set=cat_arr)
        known = pc.is_valid(ci)
        t = batch.filter(known)
        hit = (ci.filter(known).to_numpy(zero_copy_only=False)[:, None]
               == np.arange(len(cats)))
        cols = {k: t[k] for k in key_cols}
        for j, name in enumerate(n_names):
            cols[name] = pa.array(hit[:, j].astype(np.int64))
        if value_col is not None:
            v = pc.cast(t[value_col], pa.float64()).to_numpy(zero_copy_only=False)
            v = np.nan_to_num(v, nan=0.0)
            for j, name in enumerate(v_names):
                cols[name] = pa.array(np.where(hit[:, j], v, 0.0))
        return pa.table(cols)

    return sharded_grouped_agg(ds.map_batches(one_hot, batch_format="pyarrow"),
                               list(key_cols), [(c, "sum") for c in n_names + v_names])


def group_linear_trend(ds, key_cols: list[str], x_col: str, y_col: str,
                       out_col: str = "slope", predict_at: int | None = None):
    """Least-squares slope of y over x per key (the PromQL ``deriv()``
    trend analog, reference sample semantics copyer.go:108-127 applied as
    an aggregate): ``slope = (n*Sxy - Sx*Sy) / (n*Sxx - Sx*Sx)``.

    With ``predict_at=xp`` the output is instead the PromQL
    ``predict_linear()`` extrapolation at the fixed abscissa ``xp``:
    ``pred = (Sy - slope*Sx)/n + slope*xp`` — the intercept-plus-slope
    closed form evaluated in that exact float op order (document and
    mirror it in any SQL oracle; the inputs are exact int64 sums so the
    result is bit-identical across engines and block layouts).

    ``x_col`` and ``y_col`` MUST be integer columns (callers pre-scale
    floats; see q_running_total's milli-unit convention) so every
    sufficient statistic is an EXACT int64 sum — the merge is then fully
    associative and the final quotient is bit-identical across block
    layouts and engines.  Keys whose denominator is 0 (single sample, or
    all x equal) are dropped, like the reference's empty-series skip
    (copyer.go:142-145).

    Scale shape: five int columns per row into :func:`sharded_grouped_agg`,
    whose per-batch combiner collapses each batch to one row per key, so
    the exchange moves O(keys) rows.
    Overflow bound (documented, not checked): ``n * Sxx`` must stay under
    2^63 — center x near 0 (subtract a fixed epoch origin) before calling.
    """
    keys = list(key_cols)

    def partial(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch[x_col], pa.int64())
        y = pc.cast(batch[y_col], pa.int64())
        return pa.table(
            {**{k: batch[k] for k in keys},
             "_n": pa.array(np.ones(batch.num_rows, np.int64)),
             "_sx": x, "_sy": y,
             "_sxy": pc.multiply_checked(x, y),
             "_sxx": pc.multiply_checked(x, x)}
        )

    merged = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"), keys,
        [(c, "sum") for c in ("_n", "_sx", "_sy", "_sxy", "_sxx")],
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["_n"].to_numpy(zero_copy_only=False)
        sx = batch["_sx"].to_numpy(zero_copy_only=False)
        sy = batch["_sy"].to_numpy(zero_copy_only=False)
        sxy = batch["_sxy"].to_numpy(zero_copy_only=False)
        sxx = batch["_sxx"].to_numpy(zero_copy_only=False)
        den = n * sxx - sx * sx
        keep = den != 0
        num = n * sxy - sx * sy
        slope = num[keep].astype(np.float64) / den[keep].astype(np.float64)
        out = batch.select(keys).filter(pa.array(keep))
        if predict_at is not None:
            pred = (sy[keep].astype(np.float64) - slope * sx[keep].astype(np.float64)) \
                / n[keep].astype(np.float64) + slope * float(predict_at)
            return out.append_column(out_col, pa.array(pred, pa.float64()))
        return out.append_column(out_col, pa.array(slope, pa.float64()))

    return merged.map_batches(finish, batch_format="pyarrow")


def grouped_corr(ds, key_cols: list[str], x_col: str, y_col: str,
                 out_col: str = "corr"):
    """Pearson correlation of y vs x per key, exact sufficient statistics.

    ``corr = (n*Sxy - Sx*Sy) / (sqrt(n*Sxx - Sx^2) * sqrt(n*Syy - Sy^2))``
    — algebraically the sample correlation (the n-1 factors cancel).  Like
    :func:`group_linear_trend`, ``x_col``/``y_col`` MUST be integer columns
    (callers pre-scale floats) so the six statistics are EXACT int64 sums:
    the merge is associative and the result is bit-identical across block
    layouts, enabling a float-exact SQL oracle (same formula, same IEEE
    ops).  Keys with zero variance in either column are dropped (SQL corr
    returns NULL there).

    Scale shape: six int columns per row into :func:`sharded_grouped_agg`
    (one row per key and batch crosses its exchange).  Overflow bound
    (documented, not checked): ``n * Sxx`` and ``n * Syy`` must stay under
    2^63 — center/pre-scale accordingly.
    """
    keys = list(key_cols)
    stats = ("_n", "_sx", "_sy", "_sxy", "_sxx", "_syy")

    def partial(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch[x_col], pa.int64())
        y = pc.cast(batch[y_col], pa.int64())
        return pa.table(
            {**{k: batch[k] for k in keys},
             "_n": pa.array(np.ones(batch.num_rows, np.int64)),
             "_sx": x, "_sy": y,
             "_sxy": pc.multiply_checked(x, y),
             "_sxx": pc.multiply_checked(x, x),
             "_syy": pc.multiply_checked(y, y)}
        )

    merged = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"), keys,
        [(c, "sum") for c in stats],
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["_n"].to_numpy(zero_copy_only=False)
        sx = batch["_sx"].to_numpy(zero_copy_only=False)
        sy = batch["_sy"].to_numpy(zero_copy_only=False)
        sxy = batch["_sxy"].to_numpy(zero_copy_only=False)
        sxx = batch["_sxx"].to_numpy(zero_copy_only=False)
        syy = batch["_syy"].to_numpy(zero_copy_only=False)
        dx = n * sxx - sx * sx
        dy = n * syy - sy * sy
        keep = (dx > 0) & (dy > 0)
        num = (n * sxy - sx * sy)[keep].astype(np.float64)
        r = num / (np.sqrt(dx[keep].astype(np.float64))
                   * np.sqrt(dy[keep].astype(np.float64)))
        out = batch.select(keys).filter(pa.array(keep))
        return out.append_column(out_col, pa.array(r, pa.float64()))

    return merged.map_batches(finish, batch_format="pyarrow")


def group_concat(ds, key_cols: list[str], value_col: str,
                 order_cols: list[str], sep: str = ",",
                 out_col: str = "agg"):
    """SQL ``string_agg(value, sep ORDER BY order_cols)`` per key.

    Order MUST be total for determinism — pass tiebreak columns (e.g.
    ``[ts, value]``); the kernel additionally breaks remaining ties by the
    value itself.  Per shard: one ``sort_by`` over (key, order, value),
    then a zero-copy Arrow list build from segment offsets +
    ``pc.binary_join`` — no Python per key.

    Partitioning assumption (documented): one key's concatenated payload
    fits in a task — keys are users/series, not the corpus.  The exchange
    moves (key, order, value) rows once.
    """
    keys = list(key_cols)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(keys + list(order_cols) + [value_col])

    def per_shard(t: pa.Table) -> pa.Table:
        order = [(c, "ascending") for c in keys + list(order_cols)]
        order.append((value_col, "ascending"))
        t = t.sort_by(order)
        starts = np.flatnonzero(_segment_starts(t, keys))
        offsets = np.r_[starts, t.num_rows].astype(np.int32)
        vals = t[value_col]
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), vals)
        joined = pc.binary_join(lists, sep)
        out = t.select(keys).take(pa.array(starts))
        return out.append_column(out_col, joined)

    return shard_apply(ds, keys, per_shard, prepare=project, coalesce=False)


def transition_counts(ds, key_col: str, order_cols: list[str],
                      state_col: str, out_count: str = "n"):
    """First-order Markov transition counts: for each (from_state,
    to_state), how many consecutive event pairs within a key's totally
    ordered timeline make that transition — SQL ``lead() OVER (PARTITION
    BY key ORDER BY order_cols)`` + GROUP BY.

    ``order_cols`` must be a TOTAL order within each key (include a unique
    id as the last column) or lead() itself is ambiguous.  One key-hash
    exchange of (key, order, state) rows; per shard a lexsort + shifted
    compare masked at segment ends, then local (from, to) counts; final
    O(|states|^2) sharded sum."""
    keys_in = [key_col] + list(order_cols)
    sel = list(dict.fromkeys(keys_in + [state_col]))  # dedupe, keep order

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(sel)

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in keys_in])
        n = t.num_rows
        same_key = ~_segment_starts(t, [key_col])[1:]  # row i+1 same key as i
        states = t[state_col]
        if isinstance(states, pa.ChunkedArray):
            states = states.combine_chunks()
        vocab = states.unique()
        codes = pc.index_in(states, value_set=vocab).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        frm = codes[:-1][same_key]
        to = codes[1:][same_key]
        pair = frm * len(vocab) + to
        uniq, cnt = np.unique(pair, return_counts=True)
        return pa.table({
            "from_state": pc.take(vocab, pa.array(uniq // len(vocab))),
            "to_state": pc.take(vocab, pa.array(uniq % len(vocab))),
            out_count: pa.array(cnt.astype(np.int64), pa.int64()),
        })

    shard_counts = shard_apply(ds, [key_col], per_shard, prepare=project)
    return sharded_grouped_agg(shard_counts, ["from_state", "to_state"],
                               [(out_count, "sum")])


def robust_stats(ds, key_cols: list[str], value_col: str,
                 med_col: str = "med", mad_col: str = "mad"):
    """Per-key robust location/scale: median and MAD
    (``median(|x - median(x)|)``), SQL ``median()`` / ``mad()`` semantics
    (quantile_cont 0.5: mean of the two middle order statistics).

    Exactness: pass an int64 ``value_col`` (callers pre-scale) — the
    midpoint of two ints is an exact binary fraction, so both medians
    match DuckDB bit-for-bit.  One key-hash exchange; BOTH passes run
    inside the same shard task (sort -> per-segment median gather ->
    absolute deviations -> second sort -> second gather), no second
    shuffle.  The honest cost of exact medians is shuffling (key, value)
    rows — same note as :func:`group_quantiles`.
    """
    keys = list(key_cols)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(keys + [value_col])

    def _seg_median(v: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
        """Median per segment of a value array sorted within segments."""
        lo = starts + (sizes - 1) // 2
        hi = starts + sizes // 2
        return (v[lo] + v[hi]) / 2.0

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in keys + [value_col]])
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        starts = np.flatnonzero(_segment_starts(t, keys))
        sizes = np.diff(np.r_[starts, t.num_rows])
        med = _seg_median(v, starts, sizes)
        dev = np.abs(v - np.repeat(med, sizes))
        # second pass: sort deviations within segments (argsort of
        # (segment, dev) — segments already contiguous)
        seg_id = np.repeat(np.arange(len(starts), dtype=np.int64), sizes)
        order = np.lexsort((dev, seg_id))
        mad = _seg_median(dev[order], starts, sizes)
        out = t.select(keys).take(pa.array(starts))
        return out.append_column(med_col, pa.array(med, pa.float64())) \
                  .append_column(mad_col, pa.array(mad, pa.float64()))

    return shard_apply(ds, keys, per_shard, prepare=project)


def impute_median(ds, key_cols: list[str], value_col: str,
                  out_col: str = "imputed"):
    """Data-cleaning imputation: null values filled with their key group's
    median of the non-null values — SQL ``COALESCE(v, quantile_cont(v, 0.5)
    OVER (PARTITION BY key))``.  All-null groups stay null.

    Exactness: int64 ``value_col`` (callers pre-scale) makes the
    interpolated median exact, like :func:`robust_stats`.  One key-hash
    exchange; per shard one sort (nulls last within segments) + a
    per-segment midpoint gather + fill — no second pass."""
    keys = list(key_cols)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(keys + [value_col])

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [(c, "ascending") for c in keys + [value_col]]
        )  # arrow default: nulls sort AFTER values
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        starts = np.flatnonzero(_segment_starts(t, keys))
        sizes = np.diff(np.r_[starts, t.num_rows])
        # non-null count per segment (nulls are NaN, sorted last)
        valid = (~np.isnan(v)).astype(np.int64)
        csum = np.r_[0, np.cumsum(valid)]
        m = csum[starts + sizes] - csum[starts]
        has = m > 0
        med = np.full(len(starts), np.nan)
        lo = starts[has] + (m[has] - 1) // 2
        hi = starts[has] + m[has] // 2
        med[has] = (v[lo] + v[hi]) / 2.0
        filled = np.where(np.isnan(v), np.repeat(med, sizes), v)
        return t.append_column(out_col, pa.array(filled, pa.float64()))

    return shard_apply(ds, keys, per_shard, prepare=project)


def cooccurrence_pairs(ds, key_col: str, item_col: str,
                       out_count: str = "n_keys", marginals: bool = False,
                       bounded_final: bool = False):
    """Market-basket co-occurrence: for every unordered item pair, the
    number of keys (users/baskets/docs) where BOTH items occur —
    ``SELECT a.item, b.item, count(*) FROM distinct(key,item) a JOIN b
    USING (key) WHERE a.item < b.item GROUP BY 1,2``.

    Scale shape: per-batch DISTINCT (key, item) combiner (bounds the
    exchange at one row per (key, item, batch)), ONE key-hash exchange,
    per-shard triu pair generation over key segments (item sets per key
    are small — that is the operator's documented assumption; a key with
    thousands of distinct items wants a co-occurrence-count sketch
    instead), then an O(|items|^2) final sum.

    ``marginals=True`` additionally emits, from the SAME exchange (keys
    partition across shards, so per-shard distincts sum exactly), the
    association-measure denominators: per-item distinct-key counts
    (``tag="item"``, item in ``ta``) and the global distinct-key count
    (``tag="key"``); pair rows get ``tag="pair"``.  This is what lets
    PMI/lift/Jaccard scoring run off ONE pass instead of three.

    ``bounded_final=True`` declares the item vocabulary small (e.g. event
    types): the per-shard partials (≤ shards × |items|² rows) are summed on
    the driver instead of through a second exchange — one shuffle total.
    Leave False for open vocabularies (terms, urls)."""

    def partial(batch: pa.Table) -> pa.Table:
        return batch.select([key_col, item_col]).group_by(
            [key_col, item_col]
        ).aggregate([])

    def per_shard(t: pa.Table) -> pa.Table:
        def build(tag, ta, tb, n):
            cols = {"ta": ta, "tb": tb, out_count: n}
            if marginals:
                cols = {"tag": tag, **cols}
            return pa.table(cols)

        def empty():
            return build(pa.array([], pa.string()), pa.array([], pa.string()),
                         pa.array([], pa.string()), pa.array([], pa.int64()))

        t = t.group_by([key_col, item_col]).aggregate([])  # x-batch dedup
        t = t.sort_by([(key_col, "ascending"), (item_col, "ascending")])
        items = t[item_col]
        if isinstance(items, pa.ChunkedArray):
            items = items.combine_chunks()
        codes = pc.index_in(items, value_set=items.unique()).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        vocab = items.unique()
        starts = np.flatnonzero(_segment_starts(t, [key_col]))
        ends = np.r_[starts[1:], t.num_rows]
        parts = []
        if marginals:
            # per-item distinct-key counts + this shard's distinct-key
            # count, straight off the deduped (key, item) rows
            item_n = np.bincount(codes, minlength=len(vocab)).astype(np.int64)
            parts.append(build(
                pa.array(["item"] * len(vocab) + ["key"]),
                pa.concat_arrays([vocab.cast(pa.string()), pa.array([""])]),
                pa.array([""] * (len(vocab) + 1)),
                pa.array(np.r_[item_n, len(starts)]),
            ))
        a_parts, b_parts = [], []
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2:
                continue
            iu, ju = np.triu_indices(m, k=1)
            a_parts.append(codes[s:e][iu])
            b_parts.append(codes[s:e][ju])
        if a_parts:
            a = np.concatenate(a_parts)
            b = np.concatenate(b_parts)
            # count per (a, b) code pair locally: one lexsort + reduceat
            order = np.lexsort((b, a))
            a_s, b_s = a[order], b[order]
            first = np.ones(len(a_s), dtype=bool)
            first[1:] = (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])
            st = np.flatnonzero(first)
            n = np.diff(np.r_[st, len(a_s)]).astype(np.int64)
            parts.append(build(
                pa.array(["pair"] * len(st)),
                pc.take(vocab, pa.array(a_s[st])),
                pc.take(vocab, pa.array(b_s[st])),
                pa.array(n, pa.int64()),
            ))
        return pa.concat_tables(parts) if parts else empty()

    shard_counts = shard_apply(ds, [key_col], per_shard, prepare=partial)
    keys = (["tag"] if marginals else []) + ["ta", "tb"]
    if bounded_final:
        import ray.data

        parts = [b for b in shard_counts.iter_batches(batch_format="pyarrow")
                 if b.num_rows]
        if not parts:
            cols = {k: pa.array([], pa.string()) for k in keys}
            cols[out_count] = pa.array([], pa.int64())
            return ray.data.from_arrow(pa.table(cols))
        final = (pa.concat_tables(parts).group_by(keys)
                 .aggregate([(out_count, "sum")])
                 .rename_columns(keys + [out_count]))
        return ray.data.from_arrow(final)
    return sharded_grouped_agg(shard_counts, keys,
                               [(out_count, "sum")])


def grouping_sets_agg(ds, dim_cols: list[str], sets: list[list[str]],
                      agg_specs: list[tuple[str, str, str]],
                      fill: str = "(all)"):
    """Multi-level aggregate in ONE pass over the data (SQL GROUPING SETS /
    CUBE / ROLLUP): every grouping set's totals computed together, absent
    dimensions filled with the ``fill`` sentinel (callers pick a value that
    cannot collide with real data; sentinel not NULL so downstream keyed
    kernels never see null keys).

    ``agg_specs`` is ``[(src_col, fn, out_name)]`` with fn in {"count",
    "sum", "min", "max"} (src_col ignored for "count").

    Scale shape: each row is emitted once per set (absent dims filled) into
    ONE :func:`sharded_grouped_agg`, whose per-batch combiner collapses
    them — so the data is scanned once and the exchange carries
    O(keys x len(sets)) partial rows.  The classic alternative — one
    groupby per set — scans (or shuffles) the dataset len(sets) times.
    """
    dims = list(dim_cols)
    merge_fn = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}

    def expand(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        vals = {out: pa.array(np.ones(n, np.int64)) if fn == "count" else batch[src]
                for src, fn, out in agg_specs}
        dim_strs = {d: pc.cast(batch[d], pa.string()) for d in dims}
        filled = pa.repeat(pa.scalar(fill, pa.string()), n)
        return pa.concat_tables([
            pa.table({**{d: dim_strs[d] if d in s else filled for d in dims}, **vals})
            for s in sets
        ])

    return sharded_grouped_agg(
        ds.map_batches(expand, batch_format="pyarrow"), dims,
        [(out, merge_fn[fn]) for (_, fn, out) in agg_specs],
    )


def cube_agg(ds, dim_cols: list[str], agg_specs: list[tuple[str, str, str]],
             fill: str = "(all)"):
    """SQL CUBE: :func:`grouping_sets_agg` over every subset of dims."""
    from itertools import combinations

    sets = [list(c) for r in range(len(dim_cols), -1, -1)
            for c in combinations(dim_cols, r)]
    return grouping_sets_agg(ds, dim_cols, sets, agg_specs, fill)


def percent_rank(ds, key_cols: list[str], order_cols: list[str],
                 carry_cols: list[str] | None = None, out_col: str = "pr"):
    """SQL ``percent_rank() OVER (PARTITION BY keys ORDER BY order_cols)``:
    ``(rank - 1) / (n - 1)`` where tied order values SHARE a rank and a
    single-row partition gets 0.0.

    Same scale shape as :func:`window_rank` (one narrow key-hash-shard
    exchange, per-shard lexsort + segment kernels over thousands of keys
    per task).  ``carry_cols`` ride along for row identity without
    affecting tie groups; the quotient of two small exact ints is
    bit-identical across engines.
    """
    carry = list(carry_cols or [])
    cols = list(key_cols) + list(order_cols) + carry

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(cols)

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in cols])
        n = t.num_rows
        kmask = _segment_starts(t, list(key_cols))
        rmask = _segment_starts(t, list(key_cols) + list(order_cols))
        kstarts = np.flatnonzero(kmask)
        ksizes = np.diff(np.r_[kstarts, n])
        kfirst = np.repeat(kstarts, ksizes)
        rstarts = np.flatnonzero(rmask)
        rsizes = np.diff(np.r_[rstarts, n])
        rfirst = np.repeat(rstarts, rsizes)
        rank = (rfirst - kfirst).astype(np.float64)  # rank - 1
        size = np.repeat(ksizes, ksizes).astype(np.float64)
        with np.errstate(invalid="ignore"):
            pr = np.where(size > 1, rank / (size - 1), 0.0)
        return t.append_column(out_col, pa.array(pr, pa.float64()))

    return shard_apply(ds, key_cols, per_shard, prepare=project)


def ratio_to_total(ds, key_cols: list[str], value_col: str,
                   carry_cols: list[str] | None = None,
                   out_col: str = "share"):
    """Ratio-to-report: ``v / sum(v) OVER (PARTITION BY key)`` — each row's
    share of its group total.  Two passes like
    :func:`standardize_per_group`: exact int64 group sums
    (:func:`sharded_grouped_agg`) broadcast once via ``ray.put``, then a
    SHUFFLE-FREE vectorized divide (sorted-key-hash searchsorted gather).
    ``value_col`` must be integer; zero-total groups are dropped (SQL:
    division by 0 -> engine-dependent; both sides filter them)."""
    import ray

    keys = list(key_cols)
    carry = list(carry_cols or [])

    def partial(batch: pa.Table) -> pa.Table:
        y = pc.cast(batch[value_col], pa.int64())
        return pa.table({**{k: batch[k] for k in keys}, "_sy": y})

    stats = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"), keys,
        [("_sy", "sum")],
    ).to_pandas()
    kh = key_hash64(pa.Table.from_pandas(stats[keys]), keys)
    if len(np.unique(kh)) != len(kh):  # same guard as standardize_per_group
        raise ValueError("64-bit key-hash collision in ratio_to_total stats")
    order = np.argsort(kh)
    stats_ref = ray.put((
        kh[order], stats["_sy"].to_numpy().astype(np.int64)[order]
    ))

    def transform(batch: pa.Table) -> pa.Table:
        kh_s, tot_s = ray.get(stats_ref)
        h = key_hash64(batch, keys)
        pos = np.searchsorted(kh_s, h)
        pos[pos >= len(kh_s)] = 0
        ok = kh_s[pos] == h if len(kh_s) else np.zeros(len(h), bool)
        v = pc.cast(batch[value_col], pa.int64()).to_numpy(zero_copy_only=False)
        tot = tot_s[pos]
        keep = ok & (tot != 0)
        share = v[keep].astype(np.float64) / tot[keep].astype(np.float64)
        out = batch.select(keys + carry + [value_col]).filter(pa.array(keep))
        return out.append_column(out_col, pa.array(share, pa.float64()))

    return ds.map_batches(transform, batch_format="pyarrow")


def standardize_per_group(ds, key_cols: list[str], value_col: str,
                          carry_cols: list[str] | None = None,
                          out_col: str = "z"):
    """Per-group z-score standardization (feature normalization):
    ``z = (v - mean) / stddev_pop`` per key, computed in TWO passes —
    pass 1 reduces each key to exact int64 sufficient statistics (n, Sy,
    Syy) via :func:`sharded_grouped_agg`; the tiny
    per-key stats table returns to the driver, is broadcast once with
    ``ray.put``, and pass 2 is a shuffle-free vectorized transform
    (sorted-key-hash ``searchsorted`` gather + float math mirrored
    term-for-term by the SQL oracle: mean = Sy/n,
    var = (n*Syy - Sy*Sy)/n^2).

    ``value_col`` must be integer (milli-unit convention).  Zero-variance
    keys are dropped (SQL: WHERE n*Syy - Sy*Sy > 0).  Overflow bound:
    ``n * Syy`` per key must stay under 2^63.  Output: key cols + carry
    cols + value_col + ``out_col``.
    """
    import ray

    keys = list(key_cols)
    carry = list(carry_cols or [])

    def partial(batch: pa.Table) -> pa.Table:
        y = pc.cast(batch[value_col], pa.int64())
        return pa.table({**{k: batch[k] for k in keys},
                         "_n": pa.array(np.ones(batch.num_rows, np.int64)),
                         "_sy": y, "_syy": pc.multiply_checked(y, y)})

    stats = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"), keys,
        [(c, "sum") for c in ("_n", "_sy", "_syy")],
    )
    st = pa.Table.from_pylist(stats.take_all())
    n = st["_n"].to_numpy(zero_copy_only=False).astype(np.int64)
    sy = st["_sy"].to_numpy(zero_copy_only=False).astype(np.int64)
    syy = st["_syy"].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = n * syy - sy * sy > 0
    st = st.filter(pa.array(keep))
    nf = n[keep].astype(np.float64)
    mean = sy[keep].astype(np.float64) / nf
    var = (n[keep] * syy[keep] - sy[keep] * sy[keep]).astype(np.float64) / (nf * nf)
    # broadcast lookup: sorted combined key hash -> (mean, std).  A 64-bit
    # collision between distinct keys would corrupt the gather, so fail
    # loudly (deterministic; practically unreachable at sane key counts).
    kh = key_hash64(st, keys)
    order = np.argsort(kh, kind="stable")
    kh_s = kh[order]
    if len(kh_s) > 1 and (kh_s[1:] == kh_s[:-1]).any():
        raise ValueError("64-bit key-hash collision in standardize_per_group")
    lookup_ref = ray.put((kh_s, mean[order], np.sqrt(var)[order]))

    def transform(batch: pa.Table) -> pa.Table:
        kh_sorted, mu, sd = ray.get(lookup_ref)
        ph = key_hash64(batch, keys)
        if len(kh_sorted) == 0:
            hit = np.zeros(len(ph), dtype=bool)
            pos_c = np.zeros(len(ph), dtype=np.int64)
        else:
            pos_c = np.minimum(np.searchsorted(kh_sorted, ph),
                               len(kh_sorted) - 1)
            hit = kh_sorted[pos_c] == ph
        batch = batch.filter(pa.array(hit))
        ii = pos_c[hit]
        v = pc.cast(batch[value_col], pa.int64()).to_numpy(zero_copy_only=False)
        z = (v.astype(np.float64) - mu[ii]) / sd[ii]
        out = batch.select(keys + carry + [value_col])
        return out.append_column(out_col, pa.array(z, pa.float64()))

    return ds.map_batches(transform, batch_format="pyarrow")


def ntile(ds, key_cols: list[str], order_cols: list[str], n: int,
          carry_cols: list[str] | None = None, out_col: str = "tile"):
    """SQL ``ntile(n) OVER (PARTITION BY keys ORDER BY order_cols)``:
    rows of each partition split into ``n`` buckets, the first
    ``count % n`` buckets one row larger (standard SQL fill order).

    Make the last order col unique for determinism (ntile depends on row
    order, not value ties).  Same narrow key-shard exchange + per-shard
    segment kernel as :func:`window_rank`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    carry = list(carry_cols or [])
    cols = list(key_cols) + list(order_cols) + carry

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(cols)

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in list(key_cols) + list(order_cols)])
        starts = np.flatnonzero(_segment_starts(t, list(key_cols)))
        sizes = np.diff(np.r_[starts, t.num_rows])
        r = np.arange(t.num_rows, dtype=np.int64) - np.repeat(starts, sizes)
        c = np.repeat(sizes, sizes).astype(np.int64)
        q, r0 = c // n, c % n
        big = r0 * (q + 1)  # rows covered by the (q+1)-sized buckets
        with np.errstate(divide="ignore", invalid="ignore"):
            tile = np.where(
                r < big,
                r // np.maximum(q + 1, 1),
                r0 + np.where(q > 0, (r - big) // np.maximum(q, 1), 0),
            ) + 1
        return t.append_column(out_col, pa.array(tile.astype(np.int64)))

    return shard_apply(ds, key_cols, per_shard, prepare=project)


def lag_column(ds, key_cols: list[str], order_cols: list[str],
               value_col: str, carry_cols: list[str] | None = None,
               out_col: str = "prev"):
    """SQL ``lag(value) OVER (PARTITION BY keys ORDER BY order_cols)``,
    keeping only rows that HAVE a predecessor (lag-is-null rows dropped,
    like :func:`counter_increase`'s first-sample rule — null-free output).

    Same narrow key-shard exchange + per-shard lexsort as the other window
    kernels; the lag itself is one vectorized shift masked at key segment
    starts.  Make the last order col unique for determinism.
    """
    carry = list(carry_cols or [])
    cols = list(key_cols) + list(order_cols) + carry + [value_col]
    sort_cols = list(key_cols) + list(order_cols)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(cols)

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in sort_cols])
        first = _segment_starts(t, list(key_cols))
        prev = t[value_col].combine_chunks().slice(0, t.num_rows - 1)
        t = t.filter(pa.array(~first))
        return t.append_column(out_col, prev.filter(pa.array(~first[1:])))

    return shard_apply(ds, key_cols, per_shard, prepare=project)


def cohort_retention(ds, user_col: str, ts_col: str,
                     day_ms: int = 86_400_000):
    """Cohort retention matrix: users bucketed by the aligned day of their
    FIRST activity (the cohort), counted once per (cohort, day-offset)
    they were active — the classic product-analytics rollup.

    Scale shape: each batch collapses to its DISTINCT (user, day) pairs
    (Arrow group_by combiner), ONE exchange shards those pairs by user so
    a shard task derives every resident user's cohort (= min day, first
    row after one lexsort) and per-user offsets vectorized; per-shard
    (cohort, offset) partial counts then merge through a tiny
    :func:`sharded_grouped_agg` (key count is bounded by days x offsets,
    not users).  No broadcast, no per-user state on the driver.

    Output: ``cohort_start`` (int64 ms) + ``offset_days`` + ``n_users``.
    """

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            user_col: pc.cast(batch[user_col], pa.int64()),
            "_day": pc.divide(pc.cast(batch[ts_col], pa.int64()), day_ms),
        })
        return t.group_by([user_col, "_day"]).aggregate([])

    def per_shard(group: pa.Table) -> pa.Table:
        # cross-batch duplicates of a (user, day) pair survive the partial
        # distinct; dedup after the exchange
        t = group.group_by([user_col, "_day"]).aggregate([])
        t = t.sort_by([(user_col, "ascending"), ("_day", "ascending")])
        u = t[user_col].to_numpy(zero_copy_only=False)
        d = t["_day"].to_numpy(zero_copy_only=False).astype(np.int64)
        first = np.ones(len(u), dtype=bool)
        first[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(first)
        sizes = np.diff(np.r_[starts, len(u)])
        cohort = np.repeat(d[starts], sizes)
        off = d - cohort
        pair = np.stack([cohort, off], axis=1)
        uniq, counts = np.unique(pair, axis=0, return_counts=True)
        return pa.table({
            "cohort_start": pa.array(uniq[:, 0] * day_ms, pa.int64()),
            "offset_days": pa.array(uniq[:, 1], pa.int64()),
            "n_users": pa.array(counts.astype(np.int64), pa.int64()),
        })

    partials = shard_apply(ds, [user_col], per_shard, prepare=partial)
    return sharded_grouped_agg(
        partials, ["cohort_start", "offset_days"], [("n_users", "sum")],
    )


def unpivot(ds, id_cols: list[str], value_cols: list[str],
            var_col: str = "variable", val_col: str = "value",
            var_names: list[str] | None = None):
    """Wide -> long reshape (SQL UNPIVOT / pandas melt), the inverse of
    :func:`pivot_counts`: each input row becomes ``len(value_cols)`` rows
    of (ids, variable name, value).  Pure shuffle-free flat map: one
    column-slice concat per batch, value columns cast to a common float64
    (int-only inputs stay int64)."""
    names = list(var_names or value_cols)
    if len(names) != len(value_cols):
        raise ValueError("var_names must match value_cols")

    def fn(batch: pa.Table) -> pa.Table:
        out_type = (
            pa.int64()
            if all(pa.types.is_integer(batch.schema.field(c).type)
                   for c in value_cols)
            else pa.float64()
        )
        pieces = []
        for c, nm in zip(value_cols, names):
            t = batch.select(id_cols)
            t = t.append_column(
                var_col, pa.array([nm] * batch.num_rows, pa.string()))
            t = t.append_column(val_col, pc.cast(batch[c], out_type))
            pieces.append(t)
        return pa.concat_tables(pieces)

    return ds.map_batches(fn, batch_format="pyarrow")


def funnel_counts(ds, user_col: str, type_col: str, ts_col: str,
                  steps: list[str]):
    """Ordered conversion funnel: how many users completed step 1, then
    step 2 STRICTLY after their first step-1 event, then step 3 strictly
    after that, ... (classic product-analytics funnel; each step's
    anchor is the EARLIEST qualifying event, the standard greedy rule —
    earliest anchors maximize what later steps can match).

    Scale shape: rows are pre-filtered to funnel event types and collapse
    per batch to (user, step, min ts) triples — at most len(steps) rows
    per (user, batch) — then ONE user-hash exchange... except the greedy
    anchor needs every qualifying ts, not the batch min (a later step must
    find events AFTER the anchor, and the batch min may be before it), so
    the combiner keeps (user, step, ts) DISTINCT pairs instead.  Per shard
    one lexsort + len(steps) masked ``minimum.reduceat`` passes over user
    segments.  Output: step (1-based), step_name, n_users (users whose
    chain reached the step).
    """
    step_arr = pa.array(steps, pa.string())

    def partial(batch: pa.Table) -> pa.Table:
        si = pc.index_in(batch[type_col], value_set=step_arr)
        keep = pc.is_valid(si)
        t = pa.table({
            user_col: pc.cast(batch[user_col], pa.int64()),
            "_step": pc.cast(si, pa.int64()),
            "_ts": pc.cast(batch[ts_col], pa.int64()),
        }).filter(keep)
        return t.group_by([user_col, "_step", "_ts"]).aggregate([])

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.group_by([user_col, "_step", "_ts"]).aggregate([])  # x-batch dedup
        t = t.sort_by([(user_col, "ascending"), ("_ts", "ascending")])
        u = t[user_col].to_numpy(zero_copy_only=False)
        st = t["_step"].to_numpy(zero_copy_only=False)
        ts = t["_ts"].to_numpy(zero_copy_only=False).astype(np.float64)
        first = np.ones(len(u), dtype=bool)
        first[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(first)
        sizes = np.diff(np.r_[starts, len(u)])
        anchor = np.full(len(starts), -np.inf)
        counts = np.zeros(len(steps), dtype=np.int64)
        for i in range(len(steps)):
            prev = np.repeat(anchor, sizes)
            cand = np.where((st == i) & (ts > prev), ts, np.inf)
            anchor = np.minimum.reduceat(cand, starts)
            counts[i] = int(np.isfinite(anchor).sum())
            if counts[i] == 0:
                break
        return pa.table({
            "step": pa.array(np.arange(1, len(steps) + 1, dtype=np.int64)),
            "n_users": pa.array(counts, pa.int64()),
        })

    partials = shard_apply(ds, [user_col], per_shard, prepare=partial)
    final = sharded_grouped_agg(partials, ["step"], [("n_users", "sum")])

    def add_name(batch: pa.Table) -> pa.Table:
        idx = pc.subtract(pc.cast(batch["step"], pa.int64()), 1)
        return pa.table({
            "step": pc.cast(batch["step"], pa.int64()),
            "step_name": pc.take(step_arr, idx),
            "n_users": pc.cast(batch["n_users"], pa.int64()),
        })

    return final.map_batches(add_name, batch_format="pyarrow")


def mad_outliers(ds, key_cols: list[str], value_col: str, k: int = 3):
    """Per-key robust outlier counts: rows with ``|v - median| > k * MAD``
    (the classic robust z-score rule; the reference's per-series semantics
    of "inspect each series independently", copyer.go:92-156, as a quality
    gate).

    Exactness: ``value_col`` must be int64 (callers pre-scale).  Both the
    median and the MAD are midpoints of two ints, so the comparison runs
    entirely in doubled/quadrupled integer units — ``2*dev2 > k*mad4``
    with ``dev2 = |2v - (lo+hi)|`` and ``mad4 = dev2_lo + dev2_hi`` — no
    float rounding anywhere; bit-exact vs SQL ``abs(v - median(v)) >
    k*mad(v)``.  One key-hash exchange of (key, value); both passes inside
    one shard task (robust_stats' shape).  Output: key cols + n_outliers
    + n_total.
    """
    keys = list(key_cols)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(keys + [value_col])

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in keys + [value_col]])
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.flatnonzero(_segment_starts(t, keys))
        sizes = np.diff(np.r_[starts, t.num_rows])
        lo = starts + (sizes - 1) // 2
        hi = starts + sizes // 2
        med2 = v[lo] + v[hi]                       # 2 * median, exact int
        dev2 = np.abs(2 * v - np.repeat(med2, sizes))  # 2 * |v - med|
        seg_id = np.repeat(np.arange(len(starts), dtype=np.int64), sizes)
        order = np.lexsort((dev2, seg_id))
        dev2_s = dev2[order]
        mad4 = dev2_s[lo] + dev2_s[hi]             # 4 * MAD, exact int
        is_out = 2 * dev2 > k * np.repeat(mad4, sizes)
        n_out = np.add.reduceat(is_out.astype(np.int64), starts)
        out = t.select(keys).take(pa.array(starts))
        return out.append_column("n_outliers", pa.array(n_out, pa.int64())) \
                  .append_column("n_total", pa.array(sizes, pa.int64()))

    return shard_apply(ds, keys, per_shard, prepare=project)


def group_first_last(ds, key_cols: list[str], order_cols: list[str],
                     value_col: str, first_col: str = "first_v", last_col: str = "last_v"):
    """SQL ``first_value`` / ``last_value`` per key over a TOTAL order
    (make the last order col a unique id) — the windowed analogue of the
    rollup tiers' first/last-by-ts aggregate (SURVEY.md §2 O14).

    Combiner-bounded: each batch is reduced to its per-key first and last
    candidate rows (2 rows per key per batch) BEFORE the exchange, so the
    shuffle moves O(keys x batches), never the input.  Final: per-shard
    lexsort by (key, order), first/last row per segment.  Values are
    copied, not computed — no float hazard.
    """
    keys = list(key_cols)
    order = list(order_cols)
    cols = keys + order + [value_col]

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(cols).sort_by([(c, "ascending") for c in keys + order])
        starts = np.flatnonzero(_segment_starts(t, keys))
        sizes = np.diff(np.r_[starts, t.num_rows])
        idx = np.unique(np.concatenate([starts, starts + sizes - 1]))
        return t.take(pa.array(idx))

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in keys + order])
        starts = np.flatnonzero(_segment_starts(t, keys))
        sizes = np.diff(np.r_[starts, t.num_rows])
        vcol = t[value_col]
        out = t.select(keys).take(pa.array(starts))
        return out.append_column(first_col, vcol.take(pa.array(starts))) \
                  .append_column(last_col,
                                 vcol.take(pa.array(starts + sizes - 1)))

    return shard_apply(ds, keys, per_shard, prepare=partial)


def dense_rank(ds, key_cols: list[str], order_cols: list[str],
               carry_cols: list[str] | None = None, out_col: str = "dr"):
    """SQL ``dense_rank() OVER (PARTITION BY keys ORDER BY order_cols)``:
    tied order tuples share a rank and ranks have no gaps.

    window_rank's exchange shape (one narrow key-hash shard exchange,
    per-shard lexsort + segment kernels); ``carry_cols`` ride along for
    row identity without affecting tie groups.
    """
    carry = list(carry_cols or [])
    cols = list(key_cols) + list(order_cols) + carry

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(cols)

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in list(key_cols) + list(order_cols)])
        n = t.num_rows
        kmask = _segment_starts(t, list(key_cols))
        rmask = _segment_starts(t, list(key_cols) + list(order_cols))
        kstarts = np.flatnonzero(kmask)
        ksizes = np.diff(np.r_[kstarts, n])
        # dense rank = distinct-order-tuple counter since the key start
        cum = np.cumsum(rmask.astype(np.int64))
        dr = cum - np.repeat(cum[kstarts], ksizes) + 1
        return t.append_column(out_col, pa.array(dr, pa.int64()))

    return shard_apply(ds, key_cols, per_shard, prepare=project)


def winsorized_mean(ds, key_cols: list[str], value_col: str,
                    q_lo: float = 0.1, q_hi: float = 0.9,
                    out_col: str = "w_mean",
                    scale: float = 100.0):
    """Per-key winsorized mean: values clamped to the key's
    [quantile_disc(q_lo), quantile_disc(q_hi)] before averaging — the
    robust-mean quality signal (outliers bounded, not dropped).

    Exactness: int64 ``value_col`` pre-scaled by ``scale`` (pass
    ``scale=1.0`` for plain ints); thresholds are order statistics
    (exact), the clamped sum is exact int64, and the mean is emitted as
    ``(sum / scale) / n`` — mirror the SAME division sequence in the SQL
    oracle for bit-identity (sums stay < 2^53 at any per-key cardinality
    that fits a shard).  group_quantiles' exchange shape.  Output: key
    cols + n + ``out_col``.
    """
    keys = list(key_cols)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(keys + [value_col])

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in keys + [value_col]])
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.flatnonzero(_segment_starts(t, keys))
        sizes = np.diff(np.r_[starts, t.num_rows])
        ilo = starts + np.maximum(np.ceil(q_lo * sizes).astype(np.int64) - 1, 0)
        ihi = starts + np.maximum(np.ceil(q_hi * sizes).astype(np.int64) - 1, 0)
        lo = np.repeat(v[ilo], sizes)
        hi = np.repeat(v[ihi], sizes)
        clamped = np.minimum(np.maximum(v, lo), hi)
        sums = np.add.reduceat(clamped, starts)
        mean = (sums.astype(np.float64) / scale) / sizes
        out = t.select(keys).take(pa.array(starts))
        return out.append_column("n", pa.array(sizes, pa.int64())) \
                  .append_column(out_col, pa.array(mean, pa.float64()))

    return shard_apply(ds, keys, per_shard, prepare=project, coalesce=False)


def lead_intervals(ds, key_cols: list[str], order_col: str, id_col: str,
                   value_col: str, from_col: str = "valid_from", to_col: str = "valid_to"):
    """SCD type-2 validity intervals from a changelog: each change row
    becomes (key, value, valid_from = its order value, valid_to = the NEXT
    change's order value, NULL for the current row) — SQL ``lead(order)
    OVER (PARTITION BY keys ORDER BY order, id)``.

    Same narrow key-shard exchange as :func:`lag_column`; the lead is one
    vectorized shift nulled at key segment ENDS.  Ties on ``order_col``
    are totally ordered by ``id_col``.
    """
    keys = list(key_cols)
    cols = keys + [order_col, id_col, value_col]

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(cols)

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in keys + [order_col, id_col]])
        n = t.num_rows
        first = _segment_starts(t, keys)
        is_last = np.r_[first[1:], True]
        order_vals = t[order_col]
        # next row's order value (last slot wraps, masked by is_last)
        idx = np.r_[np.arange(1, n, dtype=np.int64), 0]
        nxt = pc.if_else(
            pa.array(is_last),
            pa.nulls(n, t.schema.field(order_col).type),
            order_vals.take(pa.array(idx)),
        )
        return pa.table({
            **{c: t[c] for c in keys + [value_col]},
            from_col: order_vals,
            to_col: nxt,
        })

    return shard_apply(ds, key_cols, per_shard, prepare=project)


def ohlc_agg(ds, key_cols: list[str], order_cols: list[str],
             value_col: str):
    """Open/high/low/close per key over a TOTAL order (make the last order
    col unique) — the classic candlestick / M4-style bucket downsample;
    open/close are the rollup tiers' first/last-by-ts semantics
    (SURVEY.md §2 O14) plus the min/max extremes in one aggregate.

    Combiner-bounded: each batch collapses to ONE row per key carrying
    (first order tuple, open, last order tuple, close, high, low); the
    exchange moves O(keys x batches).  Merge: two in-task lexsorts pick
    the global first/last, reduceat folds high/low.  Values are copied,
    not computed — no float hazard.
    """
    keys = list(key_cols)
    order = list(order_cols)
    ocols = [f"_o{i}" for i in range(len(order))]
    zcols = [f"_z{i}" for i in range(len(order))]

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(keys + order + [value_col]).sort_by(
            [(c, "ascending") for c in keys + order]
        )
        starts = np.flatnonzero(_segment_starts(t, keys))
        ends = np.r_[starts[1:], t.num_rows] - 1
        v = t[value_col].to_numpy(zero_copy_only=False)
        vmax = np.maximum.reduceat(v, starts)
        vmin = np.minimum.reduceat(v, starts)
        out = {c: t[c].take(pa.array(starts)) for c in keys}
        for oc, c in zip(ocols, order):
            out[oc] = t[c].take(pa.array(starts))
        out["open"] = t[value_col].take(pa.array(starts))
        for zc, c in zip(zcols, order):
            out[zc] = t[c].take(pa.array(ends))
        out["close"] = t[value_col].take(pa.array(ends))
        out["high"] = pa.array(vmax)
        out["low"] = pa.array(vmin)
        return pa.table(out)

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in keys + ocols])
        starts = np.flatnonzero(_segment_starts(t, keys))
        sizes = np.diff(np.r_[starts, t.num_rows])
        opens = t["open"].take(pa.array(starts))
        high = np.maximum.reduceat(
            t["high"].to_numpy(zero_copy_only=False), starts)
        low = np.minimum.reduceat(
            t["low"].to_numpy(zero_copy_only=False), starts)
        # close: global last by the z order tuple (descending pick via
        # lexsort ascending + segment ends)
        t2 = t.sort_by([(c, "ascending") for c in keys + zcols])
        ends = np.r_[starts[1:], t.num_rows] - 1  # same segment layout
        closes = t2["close"].take(pa.array(ends))
        return pa.table({
            **{c: t[c].take(pa.array(starts)) for c in keys},
            "open": opens, "high": pa.array(high),
            "low": pa.array(low), "close": closes,
        })

    return shard_apply(ds, keys, per_shard, prepare=partial)


def max_drawdown(ds, key_cols: list[str], order_cols: list[str],
                 value_col: str, out_col: str = "max_dd"):
    """Largest peak-to-trough drop of each key's value series over its
    total order — the monitoring/finance drawdown stat
    (``max_i (max_{j<=i} v_j - v_i)``, 0 for monotone series).

    Exact for int64 values (callers pre-scale floats).  One narrow
    key-shard exchange; the kernel is a segment-reset running max via the
    offset trick (one ``np.maximum.accumulate`` over values lifted by
    ``segment_id * span`` with ``span`` sized to the shard's actual value
    range, so no cross-segment carry at ANY value magnitude; when
    ``n_segments * span`` would overflow int64 — astronomically wide
    shards — it falls back to a per-segment loop).  Output: key cols +
    ``out_col`` + n.
    """
    keys = list(key_cols)
    cols = keys + list(order_cols) + [value_col]

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(cols)

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in keys + list(order_cols)])
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.flatnonzero(_segment_starts(t, keys))
        sizes = np.diff(np.r_[starts, t.num_rows])
        seg_id = np.repeat(np.arange(len(starts), dtype=np.int64), sizes)
        vmin = int(v.min())
        span = int(v.max()) - vmin + 1
        if len(starts) * span < (1 << 62):  # lifted values stay in int64
            off = seg_id * np.int64(span)
            run_max = np.maximum.accumulate((v - vmin) + off) - off
            dd = run_max - (v - vmin)
        else:  # degenerate width: exact per-segment fallback
            dd = np.empty(len(v), dtype=np.int64)
            ends = np.r_[starts[1:], len(v)]
            for s, e_ in zip(starts, ends):
                dd[s:e_] = np.maximum.accumulate(v[s:e_]) - v[s:e_]
        mdd = np.maximum.reduceat(dd, starts)
        out = t.select(keys).take(pa.array(starts))
        return out.append_column(out_col, pa.array(mdd, pa.int64())) \
                  .append_column("n", pa.array(sizes, pa.int64()))

    return shard_apply(ds, key_cols, per_shard, prepare=project)


def cume_dist(ds, key_cols: list[str], order_cols: list[str],
              carry_cols: list[str] | None = None, out_col: str = "cd"):
    """SQL ``cume_dist() OVER (PARTITION BY keys ORDER BY order_cols)``:
    (# rows with order <= current) / n, tied order tuples share the
    value.  percent_rank's exchange shape; the quotient of two small
    exact ints is bit-identical across engines.
    """
    carry = list(carry_cols or [])
    cols = list(key_cols) + list(order_cols) + carry

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(cols)

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in list(key_cols) + list(order_cols)])
        n = t.num_rows
        kmask = _segment_starts(t, list(key_cols))
        rmask = _segment_starts(t, list(key_cols) + list(order_cols))
        kstarts = np.flatnonzero(kmask)
        ksizes = np.diff(np.r_[kstarts, n])
        kfirst = np.repeat(kstarts, ksizes)
        rstarts = np.flatnonzero(rmask)
        rsizes = np.diff(np.r_[rstarts, n])
        rlast = np.repeat(rstarts + rsizes - 1, rsizes)  # end of the tie run
        cd = (rlast - kfirst + 1).astype(np.float64) / np.repeat(
            ksizes, ksizes).astype(np.float64)
        return t.append_column(out_col, pa.array(cd, pa.float64()))

    return shard_apply(ds, key_cols, per_shard, prepare=project)


def skyline_table(t: pa.Table, x_col: str, y_col: str) -> pa.Table:
    """One-shot skyline kernel (see :func:`pareto_skyline`): lexsort
    (x desc, y desc) + running max of y over strictly-greater-x rows via
    the segment-boundary trick.  Pure function of the table — the
    semilattice property (sky(A ∪ B) == sky(sky A ∪ sky B)) is
    hypothesis-tested directly on this kernel."""
    n = t.num_rows
    if n == 0:
        return t
    x = t[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
    y = t[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((-y, -x))
    xs, ys = x[order], y[order]
    new_seg = np.r_[True, xs[1:] != xs[:-1]]
    seg_first_idx = np.flatnonzero(new_seg)
    sizes = np.diff(np.r_[seg_first_idx, n])
    seg_first = np.repeat(seg_first_idx, sizes)
    cmax = np.maximum.accumulate(ys)
    prev_max = np.where(
        seg_first > 0,
        cmax[np.maximum(seg_first - 1, 0)],
        np.iinfo(np.int64).min,
    )
    dominated = (prev_max >= ys) | (ys[seg_first] > ys)
    return t.take(pa.array(np.sort(order[~dominated])))


def pareto_skyline(ds, x_col: str, y_col: str):
    """Pareto frontier (skyline) maximizing BOTH int64 columns: keep the rows
    no other row strictly dominates (``b.x >= a.x AND b.y >= a.y AND (b.x >
    a.x OR b.y > a.y)`` — SQL NOT-EXISTS semantics; coordinate-equal
    duplicates all survive).

    Scale shape: the skyline operator is a SEMILATTICE —
    ``sky(A ∪ B) == sky(sky(A) ∪ sky(B))`` — so each batch reduces to its
    local frontier (typically O(sqrt) of the batch) and one tiny final task
    finishes; no shuffle of the input, block layout cannot change the
    result.  Kernel: one lexsort (x desc, y desc), running max of y from
    strictly-greater-x rows via the segment-boundary trick — no Python
    loop."""

    def sky(t: pa.Table) -> pa.Table:
        return skyline_table(t, x_col, y_col)

    # final pass: one block AND one batch (batch_size=None = whole block) —
    # a split batch would compute two independent frontiers
    return (
        ds.map_batches(sky, batch_format="pyarrow")
        .repartition(1)
        .map_batches(sky, batch_format="pyarrow", batch_size=None)
    )


def cusum_extrema(ds, key_cols: list[str], order_cols: list[str],
                  value_col: str):
    """CUSUM change-point statistic per key: over the key's totally ordered
    int64 values, the maximum absolute centered cumulative deviation

        ``cusum_max = max_i |n * S_i - i * S_n|``

    (the |CUSUM| of (v - mean) cross-multiplied by n — EXACT int64, no
    float mean in either engine; a large value means the series' level
    shifted somewhere).  Output: key cols + ``cusum_max`` + ``n_points``.
    One key-hash exchange, per-shard lexsort + segment-offset prefix sums —
    the rolling_sigma_outliers shuffle shape.  Bounds: n * |S_i| <=
    n^2 * max|v|; centi-scaled metrics stay in int64 up to ~100M rows/key.
    """

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [(c, "ascending") for c in key_cols]
            + [(c, "ascending") for c in order_cols]
        )
        n = t.num_rows
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.flatnonzero(_segment_starts(t, key_cols))
        sizes = np.diff(np.r_[starts, n])
        seg_start = np.repeat(starts, sizes)
        idx = np.arange(n, dtype=np.int64)
        cs = np.cumsum(v)
        base = np.where(seg_start > 0, cs[np.maximum(seg_start - 1, 0)], 0)
        s_i = cs - base                      # within-segment prefix sum
        i = idx - seg_start + 1              # within-segment 1-based index
        seg_n = np.repeat(sizes, sizes)
        seg_end = starts + sizes - 1
        s_n = np.repeat(s_i[seg_end], sizes)
        d = np.abs(seg_n * s_i - i * s_n)
        out = t.select(list(key_cols)).take(pa.array(starts))
        out = out.append_column(
            "cusum_max", pa.array(np.maximum.reduceat(d, starts), pa.int64())
        )
        return out.append_column(
            "n_points", pa.array(sizes.astype(np.int64), pa.int64())
        )

    return shard_apply(ds, key_cols, per_shard)
