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


@pytest.mark.parametrize("path", ["exchange", "single_task"])
def test_each_batch_is_combined_before_the_exchange(ray_session, monkeypatch, path):
    """Many blocks that repeat a few keys: ``sharded_grouped_agg`` combines
    each block itself, so with one shard the single kernel call of the
    exchange receives at most (distinct keys x input blocks) rows, not the
    raw rows; both paths give the pandas rows."""
    import ray

    from prom_tsdb_copyer_ray.stages import common, keyed

    n_blocks, rows_per_block = 12, 200
    rng = np.random.default_rng(11)
    blocks = []
    for _ in range(n_blocks):
        k = rng.integers(0, 4, rows_per_block)
        v = rng.integers(-50, 50, rows_per_block)
        blocks.append(pa.table({
            # no null keys here: pyarrow 16's multi-key group_by can split
            # a null string key into several groups (still merged after
            # the exchange, but not bounded by the distinct keys)
            "s": pa.array([f"t{x}" for x in k], pa.string()),
            "k": pa.array(k % 2, pa.int64()),
            "v": pa.array(v, pa.int64()),
            "lo": pa.array(v, pa.int64()),
            "hi": pa.array(v, pa.int64()),
            "x": pa.array(rng.integers(0, 8, rows_per_block) * 0.5, pa.float64()),
        }))
    n_keys = len(pa.concat_tables(blocks).to_pandas().groupby(KEYS))

    real = keyed.shard_apply

    def spy(ds, keys, kernel, **kw):
        def counted(t: pa.Table) -> pa.Table:
            out = kernel(t)
            return out.append_column(
                "_in_rows", pa.array([t.num_rows] * out.num_rows, pa.int64()))

        return real(ds, keys, counted, **kw)

    monkeypatch.setattr(keyed, "shard_apply", spy)
    monkeypatch.setattr(common, "NUM_SHARDS", 1)
    if path == "exchange":
        monkeypatch.setattr(common, "SMALL_ROWS", 0)
        ds = ray.data.from_arrow(blocks)
    else:
        ds = ray.data.from_arrow(blocks).materialize()
    assert ds.num_blocks() == n_blocks

    got = pa.concat_tables(
        [t for t in ray.get(keyed.sharded_grouped_agg(ds, KEYS, SPECS).to_arrow_refs())
         if t.num_rows]).to_pandas()
    want = (pa.concat_tables(blocks).to_pandas()
            .groupby(KEYS, dropna=False, sort=False)
            .agg(v=("v", "sum"), lo=("lo", "min"), hi=("hi", "max"),
                 x=("x", "sum"))
            .reset_index())
    pd.testing.assert_frame_equal(_sorted(got.drop(columns="_in_rows")),
                                  _sorted(want), check_dtype=False)
    in_rows = got["_in_rows"].max()
    assert in_rows <= n_keys * (n_blocks if path == "exchange" else 1)
    assert in_rows < n_blocks * rows_per_block


def test_exchange_drops_pandas_schema_metadata(ray_session, monkeypatch):
    """A ``from_pandas`` block carries ``b'pandas'`` schema metadata, which
    Ray's schema unification cannot hash; the exchange drops it, so no
    output block carries metadata."""
    import ray

    from prom_tsdb_copyer_ray.stages import common
    from prom_tsdb_copyer_ray.stages.keyed import sharded_grouped_agg

    monkeypatch.setattr(common, "SMALL_ROWS", 0)
    df = pa.concat_tables(_blocks()).to_pandas()
    ds = ray.data.from_pandas([df.iloc[:60], df.iloc[60:]])
    assert all(b"pandas" in ray.get(r).schema.metadata for r in ds.to_arrow_refs())

    out = [ray.get(r) for r in sharded_grouped_agg(ds, KEYS, SPECS).to_arrow_refs()]
    assert sum(t.num_rows for t in out) > 0
    assert all(t.schema.metadata is None for t in out)
