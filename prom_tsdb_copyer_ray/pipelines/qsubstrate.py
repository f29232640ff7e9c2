"""shared query substrate."""
from __future__ import annotations  # noqa: F401

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.matchers import Matcher, make_filter_fn
from ..functions.relabel import make_relabel_fn
from ..functions.text import WORD_RE
from ..stages.keyed import sharded_grouped_agg
from ..windows import MS_1D, MS_1H, MS_5M, aligned_windows, ts_to_ms, window_start
from .registry import GuardedRegistry

# composite (ts, id) ordering trick: ts_ms * 2^22 + id is order-preserving
# while id < 4,194,304 (testdata event_id max ~1e5 at sf1)
_COMP = 1 << 22


def _read(sf_dir: str, name: str, columns=None):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns)


def _collect_stable(ds):
    """``to_pandas`` that survives an ALL-EMPTY Dataset: Ray drops the
    schema of zero-row results (``to_pandas()`` -> a (0, 0) frame), which
    breaks the driver's column-sorted compare against a DuckDB oracle that
    correctly returns 0 rows WITH columns.  Found by the sf1 sweep —
    ``absent_series`` is legitimately empty at 10x user density.  Only for
    queries whose results are bounded by construction (censuses, alert
    complements); big results must stay lazy Datasets."""
    import pandas as pd

    df = ds.to_pandas()
    if len(df.columns) == 0:
        sch = ds.schema()
        if sch is not None:  # row-lambda stages can erase even the schema
            df = pd.DataFrame(
                {n: pd.Series([], dtype=t.to_pandas_dtype())
                 for n, t in zip(sch.names, sch.types)})
    return df


def _finalize(ds, renames: dict[str, str], rounds: dict[str, int] | None = None):
    """Rename aggregate columns and apply fixed rounding (both small maps)."""

    def fn(batch: pa.Table) -> pa.Table:
        for old, new in renames.items():
            if old in batch.column_names:
                batch = batch.rename_columns(
                    [new if c == old else c for c in batch.column_names]
                )
        for col, nd in (rounds or {}).items():
            batch = batch.set_column(
                batch.column_names.index(col),
                col,
                pc.round(batch[col], ndigits=nd),
            )
        return batch

    return ds.map_batches(fn, batch_format="pyarrow")


def _rollup_events(sf_dir: str, d_ms: int):
    """(event_type, window_start, n, sum_value, min_value, max_value) per
    ``d_ms`` window of events — the partial+final rollup (SURVEY.md §4).

    Keys = (type, window): cardinality grows with the time span, so the
    merge is the sharded segment kernel, not a per-key Ray aggregate
    (float sums are re-associated; every sum_value consumer rounds to 4
    decimals on both sides)."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def project(batch: pa.Table) -> pa.Table:
        v = batch["value"]
        return pa.table({
            "event_type": batch["event_type"],
            "window_start": window_start(ts_to_ms(batch["ts"]), d_ms),
            "n": pc.cast(pc.is_valid(v), pa.int64()),
            "sum_value": v,
            "min_value": v,
            "max_value": v,
        })

    return sharded_grouped_agg(
        ds.map_batches(project, batch_format="pyarrow"),
        ["event_type", "window_start"],
        [("n", "sum"), ("sum_value", "sum"),
         ("min_value", "min"), ("max_value", "max")],
    )


def _round_sum(ds):
    return _finalize(ds, {}, {"sum_value": 4})


_ROLLUP_SQL = """
SELECT event_type,
       (epoch_ms(ts) // {d}) * {d} AS window_start,
       count(*) AS n,
       round(sum(value), 4) AS sum_value,
       min(value) AS min_value,
       max(value) AS max_value
FROM events GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Shared per-batch projections (``map_batches`` / ``shard_apply(prepare=)``)
# ---------------------------------------------------------------------------


def _cents(col) -> np.ndarray:
    """rint(col * 100) as int64 — money and event values in exact cents."""
    return np.rint(
        col.to_numpy(zero_copy_only=False).astype(np.float64) * 100.0
    ).astype(np.int64)


def _ts_ms(ts) -> np.ndarray:
    return ts_to_ms(ts).to_numpy(zero_copy_only=False)


def _type_cval(batch: pa.Table) -> pa.Table:
    """(event_type, cval = value in cents)."""
    return pa.table({
        "event_type": batch["event_type"],
        "cval": pa.array(_cents(batch["value"]), pa.int64()),
    })


def _type_vfloor(batch: pa.Table) -> pa.Table:
    """(event_type, vfloor = floor(value), event_id)."""
    v = batch["value"].to_numpy(zero_copy_only=False)
    return pa.table({
        "event_type": batch["event_type"],
        "vfloor": pa.array(np.floor(v).astype(np.int64), pa.int64()),
        "event_id": pc.cast(batch["event_id"], pa.int64()),
    })


def _type_tms_value(batch: pa.Table) -> pa.Table:
    """(event_type, tms, event_id, value as float64)."""
    return pa.table({
        "event_type": batch["event_type"],
        "tms": ts_to_ms(batch["ts"]),
        "event_id": pc.cast(batch["event_id"], pa.int64()),
        "value": pc.cast(batch["value"], pa.float64()),
    })


def _type_tms_cv(batch: pa.Table) -> pa.Table:
    """(event_type, tms, event_id, cv = value in cents)."""
    return pa.table({
        "event_type": batch["event_type"],
        "tms": ts_to_ms(batch["ts"]),
        "event_id": pc.cast(batch["event_id"], pa.int64()),
        "cv": pa.array(_cents(batch["value"]), pa.int64()),
    })


def _type_user_tsms(batch: pa.Table) -> pa.Table:
    """(event_type, user_id, tsms, event_id, value)."""
    return pa.table({
        "event_type": batch["event_type"],
        "user_id": pc.cast(batch["user_id"], pa.int64()),
        "tsms": ts_to_ms(batch["ts"]),
        "event_id": pc.cast(batch["event_id"], pa.int64()),
        "value": batch["value"],
    })


def _trend_xy(batch: pa.Table) -> pa.Table:
    """(event_type, user_id, x = hours since epoch - 473000, y = value
    rounded to 4 dp as int 1e-4 units) — the linear-trend input."""
    v = batch["value"].to_numpy(zero_copy_only=False)
    vm = np.rint(np.round(v, 4) * 10000).astype(np.int64)
    x = pc.subtract(
        pc.divide(ts_to_ms(batch["ts"]), 3600000), 473000
    )
    return pa.table({
        "event_type": batch["event_type"],
        "user_id": pc.cast(batch["user_id"], pa.int64()),
        "x": x,
        "y": pa.array(vm, pa.int64()),
    })


def _user_type(batch: pa.Table) -> pa.Table:
    """(user_id as int64, event_type)."""
    return pa.table({
        "user_id": pc.cast(batch["user_id"], pa.int64()),
        "event_type": batch["event_type"],
    })


def _user_type_tms(batch: pa.Table) -> pa.Table:
    """(user_id, event_type, tms)."""
    return pa.table({
        "user_id": pc.cast(batch["user_id"], pa.int64()),
        "event_type": batch["event_type"],
        "tms": ts_to_ms(batch["ts"]),
    })


def _user_tms_type_id(batch: pa.Table) -> pa.Table:
    """(user_id, tms, event_type, event_id)."""
    return pa.table({
        "user_id": pc.cast(batch["user_id"], pa.int64()),
        "tms": ts_to_ms(batch["ts"]),
        "event_type": batch["event_type"],
        "event_id": pc.cast(batch["event_id"], pa.int64()),
    })


def _user_ts_ms(b: pa.Table) -> pa.Table:
    """(user_id, ts_ms) — the sessionize input."""
    return pa.table({
        "user_id": b["user_id"],
        "ts_ms": ts_to_ms(b["ts"]),
    })


def _doc_size_buckets(batch: pa.Table) -> pa.Table:
    """(doc_id, lang, source, cb = n_chars // 100) — the document
    similarity-graph keys."""
    nb = pc.cast(batch["n_chars"], pa.int64()).to_numpy(zero_copy_only=False)
    return pa.table({
        "doc_id": pc.cast(batch["doc_id"], pa.int64()),
        "lang": batch["lang"],
        "source": batch["source"],
        "cb": pa.array(nb // 100, pa.int64()),
    })


def _canon_pairs(batch: pa.Table) -> pa.Table:
    """Order each (a, b) pair so a <= b."""
    a = batch["a"].to_numpy(zero_copy_only=False)
    b = batch["b"].to_numpy(zero_copy_only=False)
    return pa.table({
        "a": pa.array(np.minimum(a, b)),
        "b": pa.array(np.maximum(a, b)),
    })


# ---------------------------------------------------------------------------
# Shared censuses (SURVEY.md §4 partial+final, operator O14)
# ---------------------------------------------------------------------------
# Every census below reads the named columns, collapses each batch with an
# Arrow ``group_by`` combiner (or a Counter for terms), then runs ONE
# ``sharded_grouped_agg`` exchange that moves census rows only.  A census
# that every consumer scans on the driver returns a DataFrame; one that
# feeds a further Ray stage returns the Dataset.


def _type_count_census(sf_dir: str, col: str, key: str, derive, count: str):
    """(event_type, key = derive(events[col])) -> ``count`` rows."""
    ds = _read(sf_dir, "events", ["event_type", col])

    def partial(batch: pa.Table) -> pa.Table:
        k = derive(batch[col])
        return pa.table({
            "event_type": batch["event_type"],
            key: pa.array(k, pa.int64()),
            count: pa.array(np.ones(len(k), np.int64)),
        })

    return sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", key], [(count, "sum")],
    ).to_pandas()


def hour_census(sf_dir: str):
    """(event_type, hr = epoch hour, c) event counts."""
    return _type_count_census(
        sf_dir, "ts", "hr", lambda ts: _ts_ms(ts) // 3_600_000, "c")


def hod_census(sf_dir: str):
    """(event_type, hod = hour of day 0..23, o) event counts — bounded by
    types x 24."""
    return _type_count_census(
        sf_dir, "ts", "hod", lambda ts: (_ts_ms(ts) // 3_600_000) % 24, "o")


def dow_census(sf_dir: str):
    """(event_type, dow = day of week, Monday 0, n) event counts."""
    return _type_count_census(
        sf_dir, "ts", "dow", lambda ts: ((_ts_ms(ts) // 86_400_000) + 3) % 7,
        "n")


def cent_census(sf_dir: str):
    """(event_type, cv = rint(value * 100), n) event counts — bounded by
    distinct cents x types."""
    return _type_count_census(sf_dir, "value", "cv", _cents, "n")


def dense_hour_counts(sf_dir: str):
    """Per-type DENSE hourly count series.

    Returns ``(series, H)`` where ``series`` is an ordered
    ``{event_type: np.int64[H]}`` over the corpus-global hour grid
    (zeros for absent hours), built from :func:`hour_census`; the dense
    arrays are driver-side metadata bounded by the time range.
    """
    census = hour_census(sf_dir)
    h_lo = int(census["hr"].min())
    h_hi = int(census["hr"].max())
    big_h = h_hi - h_lo + 1
    series: dict[str, np.ndarray] = {}
    for et, grp in census.groupby("event_type", sort=True):
        c = np.zeros(big_h, np.int64)
        c[grp["hr"].to_numpy() - h_lo] = grp["c"].to_numpy()
        series[str(et)] = c
    return series, big_h


def purchase_view_cents(sf_dir: str):
    """(cv, a = purchases, b = views) over the purchase and view events,
    sorted by cv — the two-sample cent census."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        mask = (et == "purchase") | (et == "view")
        return pa.table({
            "cv": pa.array(_cents(batch["value"])[mask]),
            "a": pa.array((et[mask] == "purchase").astype(np.int64)),
            "b": pa.array((et[mask] == "view").astype(np.int64)),
        })

    return sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["cv"], [("a", "sum"), ("b", "sum")],
    ).to_pandas().sort_values("cv")


def weekend_purchase_census(sf_dir: str):
    """(we = weekend day, pu = purchase, n) — the 2 x 2 event table."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = _ts_ms(batch["ts"])
        we = (((tms // 86_400_000) + 3) % 7 >= 5).astype(np.int64)
        pu = pc.cast(pc.equal(batch["event_type"], "purchase"),
                     pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "we": pa.array(we),
            "pu": pa.array(pu),
            "n": pa.array(np.ones(len(we), np.int64)),
        })

    return sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["we", "pu"], [("n", "sum")],
    ).to_pandas()


def user_event_counts(sf_dir: str):
    """(user_id, n) events per user — a Dataset (user-bounded, never
    collected)."""
    ds = _read(sf_dir, "events", ["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"],
            "n": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    return sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id"], [("n", "sum")],
    )


def source_doc_counts(sf_dir: str):
    """(source, n) documents per source — a Dataset, source-bounded."""
    ds = _read(sf_dir, "documents", ["source"])

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "source": batch["source"],
            "n": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    return sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source"], [("n", "sum")],
    )


def user_cent_sums(sf_dir: str):
    """(user_id, x = summed value in cents) — a Dataset."""
    ds = _read(sf_dir, "events", ["user_id", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({"user_id": batch["user_id"],
                         "x": pa.array(_cents(batch["value"]))})

    return sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id"], [("x", "sum")],
    )


def user_ts_spans(sf_dir: str):
    """(user_id, mn, mx) first and last event ms per user — materialized."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def per_user_partial(batch: pa.Table) -> pa.Table:
        tms = _ts_ms(batch["ts"])
        return pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "mn": pa.array(tms, pa.int64()),
            "mx": pa.array(tms, pa.int64()),
        })

    return sharded_grouped_agg(
        ds.map_batches(per_user_partial, batch_format="pyarrow"),
        ["user_id"], [("mn", "min"), ("mx", "max")],
    ).materialize()


def type_hourly_counts(sf_dir: str):
    """(event_type, window_start = 1 h window, n) — a Dataset."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch["event_type"],
            "window_start": window_start(ts_to_ms(batch["ts"]), MS_1H),
            "n": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    return sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "window_start"], [("n", "sum")],
    )


def type_cents_5m(sf_dir: str):
    """(event_type, window_start = 5 min window, cs = summed cents) — a
    Dataset: the collapse-first input of the per-type series kernels."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = _ts_ms(batch["ts"])
        return pa.table({
            "event_type": batch["event_type"],
            "window_start": pa.array((tms // MS_5M) * MS_5M, pa.int64()),
            "cs": pa.array(_cents(batch["value"]), pa.int64()),
        })

    return sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "window_start"], [("cs", "sum")],
    )


def term_census(sf_dir: str):
    """(term, n) corpus vocabulary: lower-cased ``WORD_RE`` tokens of
    every document — a Dataset, vocabulary-bounded."""
    from collections import Counter

    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch["text"].to_pylist():
            counts.update(m.lower() for m in WORD_RE.findall(t or ""))
        terms = list(counts.keys())
        return pa.table({
            "term": pa.array(terms, pa.string()),
            "n": pa.array([counts[t] for t in terms], pa.int64()),
        })

    return sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["term"], [("n", "sum")],
    )


def freq_of_freq_census(sf_dir: str):
    """(m, vm): how many terms occur exactly m times — a second census
    over :func:`term_census` rows, O(distinct counts) rows."""

    def ff_partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "m": pc.cast(batch["n"], pa.int64()),
            "vm": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    return sharded_grouped_agg(
        term_census(sf_dir).map_batches(ff_partial, batch_format="pyarrow"),
        ["m"], [("vm", "sum")],
    ).to_pandas()


QUERIES = GuardedRegistry("QUERIES")
ORACLE_SQL = GuardedRegistry("ORACLE_SQL")

