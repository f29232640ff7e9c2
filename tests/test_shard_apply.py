"""stages.common.shard_apply — the one hash-shard exchange every keyed
operator runs on: per-key results must not depend on the shard count, the
coalesce hop or a ``by`` group column."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from prom_tsdb_copyer_ray.stages.common import shard_apply


def _events(n: int = 3000, n_keys: int = 97, seed: int = 3) -> pa.Table:
    rng = np.random.default_rng(seed)
    k = rng.integers(0, n_keys, n)
    return pa.table({
        "k": pa.array(k, pa.int64()),
        "s": pa.array([f"key{x % 13}" for x in k], pa.string()),
        "v": pa.array(rng.integers(-50, 50, n), pa.int64()),
    })


@pytest.mark.parametrize("num_shards", [1, 7, 64])
@pytest.mark.parametrize("coalesce", [True, False])
@pytest.mark.parametrize("by", [(), ("_b",)])
def test_matches_pandas_oracle(ray_session, num_shards, coalesce, by):
    import ray.data

    t = _events()

    # nested: Ray pickles module-level test functions by reference, and
    # workers cannot import the test module
    def sum_kernel(t: pa.Table) -> pa.Table:
        # kernels carry no empty-input branch: Ray's sort never hands
        # map_groups an empty group
        assert t.num_rows > 0
        assert "_shard" not in t.column_names and "_b" not in t.column_names
        return t.group_by(["k", "s"]).aggregate([("v", "sum"), ("v", "count")])

    def with_bucket(batch: pa.Table) -> pa.Table:
        b = batch["k"].to_numpy() // 10
        return batch.append_column("_b", pa.array(b, pa.int64()))

    out = shard_apply(
        ray.data.from_arrow(t).repartition(9), ["k", "s"], sum_kernel,
        prepare=with_bucket if by else None, by=by, coalesce=coalesce,
        num_shards=num_shards,
    ).to_pandas()
    want = (t.to_pandas().groupby(["k", "s"], as_index=False)["v"]
            .agg(v_sum="sum", v_count="count"))
    got = out.sort_values(["k", "s"]).reset_index(drop=True)
    want = want.sort_values(["k", "s"]).reset_index(drop=True)
    # each key reaches exactly one kernel call: no duplicated keys
    assert not got.duplicated(["k", "s"]).any()
    pd.testing.assert_frame_equal(got[list(want.columns)], want, check_dtype=False)


def test_rollup_raw_independent_of_num_shards(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import pages_to_samples
    from prom_tsdb_copyer_ray.sources.pages import generate_pages
    from prom_tsdb_copyer_ray.stages.rollup import rollup_raw

    samples = pages_to_samples(ray.data.from_arrow(generate_pages(600, seed=9))).materialize()

    def rows(num_shards):
        df = rollup_raw(samples, "5m", num_shards=num_shards).to_pandas()
        return df.sort_values(["series_key", "window_start"]).reset_index(drop=True)

    one, many = rows(1), rows(64)
    assert len(one) > 0
    pd.testing.assert_frame_equal(one, many)
