"""shared query substrate."""
from __future__ import annotations  # noqa: F401

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.matchers import Matcher, make_filter_fn
from ..functions.relabel import make_relabel_fn
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


def _windowed_partial(keys: list[str], d_ms: int, ts_col: str = "ts", val_col: str = "value"):
    """map_batches kernel: per-batch partial (count/sum/min/max) per
    (keys..., window_start) — the pre-aggregation that keeps the groupby
    shuffle small (SURVEY.md §4 partial+final pattern)."""

    def fn(batch: pa.Table) -> pa.Table:
        w = window_start(ts_to_ms(batch[ts_col]), d_ms)
        t = batch.append_column("window_start", w)
        return t.group_by(keys + ["window_start"]).aggregate(
            [(val_col, "count"), (val_col, "sum"), (val_col, "min"), (val_col, "max")]
        )

    return fn


def _final_rollup(ds, keys: list[str], val_col: str = "value"):
    # keys = (labels..., window) — cardinality grows with the time span, so
    # the final merge is the sharded segment kernel, not a per-key Ray
    # aggregate (float sums are re-associated; every sum_value consumer
    # rounds to 4 decimals on both sides)
    from ..stages.keyed import sharded_grouped_agg

    out = sharded_grouped_agg(
        ds, keys,
        [(f"{val_col}_count", "sum"), (f"{val_col}_sum", "sum"),
         (f"{val_col}_min", "min"), (f"{val_col}_max", "max")],
    )

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            list(keys) + ["n", "sum_value", "min_value", "max_value"]
        )

    return out.map_batches(rename, batch_format="pyarrow")


def _rollup_events(sf_dir: str, d_ms: int):
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    part = ds.map_batches(_windowed_partial(["event_type"], d_ms), batch_format="pyarrow")
    return _final_rollup(part, ["event_type", "window_start"])


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


QUERIES = GuardedRegistry("QUERIES")
ORACLE_SQL = GuardedRegistry("ORACLE_SQL")

