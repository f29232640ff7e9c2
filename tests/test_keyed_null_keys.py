"""``sharded_grouped_agg`` over null group keys: nulls form one group, as
in SQL ``GROUP BY`` (pandas ``groupby(dropna=False)``), on the exchange
and on the single-task path alike."""

from __future__ import annotations

import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

KEYS = ["s", "k"]
SPECS = [("v", "sum"), ("lo", "min"), ("hi", "max"), ("x", "sum")]


def _blocks() -> list[pa.Table]:
    rng = np.random.default_rng(5)
    schema = pa.schema([("s", pa.string()), ("k", pa.int64()),
                        ("v", pa.int64()), ("lo", pa.int64()),
                        ("hi", pa.int64()), ("x", pa.float64())])
    out = []
    for _ in range(3):
        n = 40
        s = [None if r < 0.25 else f"t{r * 4:.0f}" for r in rng.random(n)]
        k = [None if r < 0.2 else int(r * 3) for r in rng.random(n)]
        v = rng.integers(-50, 50, n)
        out.append(pa.table({
            "s": pa.array(s, pa.string()),
            "k": pa.array(k, pa.int64()),
            "v": pa.array(v, pa.int64()),
            "lo": pa.array(v, pa.int64()),
            "hi": pa.array(v, pa.int64()),
            "x": pa.array(rng.integers(0, 8, n) * 0.5, pa.float64()),
        }, schema=schema))
    return out


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    # one spelling of the null string key (Arrow gives None, pandas NaN)
    df = df.assign(s=df["s"].where(df["s"].notna(), "<null>"))
    return df.sort_values(KEYS, na_position="last").reset_index(drop=True)


@pytest.mark.parametrize("path", ["exchange", "single_task"])
def test_null_keys_group_like_sql(ray_session, monkeypatch, path):
    import ray

    from prom_tsdb_copyer_ray.stages import common
    from prom_tsdb_copyer_ray.stages.keyed import sharded_grouped_agg

    if path == "exchange":
        monkeypatch.setattr(common, "SMALL_ROWS", 0)
    blocks = _blocks()
    ds = ray.data.from_arrow(blocks)
    assert ds.num_blocks() == len(blocks)

    # the sort exchange may hand back column-less empty blocks
    got = pa.concat_tables(
        [t for t in ray.get(sharded_grouped_agg(ds, KEYS, SPECS).to_arrow_refs())
         if t.num_rows])
    want = (pa.concat_tables(blocks).to_pandas()
            .groupby(KEYS, dropna=False, sort=False)
            .agg(v=("v", "sum"), lo=("lo", "min"), hi=("hi", "max"),
                 x=("x", "sum"))
            .reset_index())

    assert got.schema == blocks[0].schema
    got_df = _sorted(got.to_pandas())
    want_df = _sorted(want)
    assert (got_df["s"] == "<null>").any() and got_df["k"].isna().any()
    pd.testing.assert_frame_equal(got_df, want_df, check_dtype=False)


def test_int_key_hash_fills_nulls():
    """A null int key hashes like 0 — no NaN reaches the uint64 cast."""
    from prom_tsdb_copyer_ray.stages.common import key_hash64

    t = pa.table({"k": pa.array([None, 0, 7, None], pa.int64())})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = key_hash64(t, ["k"])
    assert h.dtype == np.uint64
    assert h[0] == h[1] == h[3] and h[2] != h[0]
