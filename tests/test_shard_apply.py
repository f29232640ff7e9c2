"""stages.common.shard_apply — the one hash-shard exchange every keyed
operator runs on: per-key results must not depend on the shard count, the
coalesce hop or a ``by`` group column."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from prom_tsdb_copyer_ray.stages.common import materialize_if_small, shard_apply


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


def test_rollup_raw_independent_of_num_shards(ray_session, monkeypatch):
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import pages_to_samples
    from prom_tsdb_copyer_ray.sources.pages import generate_pages
    from prom_tsdb_copyer_ray.stages import common
    from prom_tsdb_copyer_ray.stages.rollup import rollup_raw

    # the input is under SMALL_ROWS: force both runs through the exchange
    monkeypatch.setattr(common, "SMALL_ROWS", 0)

    samples = pages_to_samples(ray.data.from_arrow(generate_pages(600, seed=9))).materialize()

    def rows(num_shards):
        df = rollup_raw(samples, "5m", num_shards=num_shards).to_pandas()
        return df.sort_values(["series_key", "window_start"]).reset_index(drop=True)

    one, many = rows(1), rows(64)
    assert len(one) > 0
    pd.testing.assert_frame_equal(one, many)


@pytest.mark.parametrize("by", [(), ("_b",)])
def test_small_materialized_input_runs_one_task(ray_session, by):
    """A materialized input under ``SMALL_ROWS`` skips the exchange: one
    kernel call per ``by`` value (the ``num_shards=1`` semantics), the same
    rows as the pandas oracle and as the exchange a lazy input takes."""
    import ray.data

    t = _events()

    def sum_kernel(t: pa.Table) -> pa.Table:
        assert t.num_rows > 0
        assert "_shard" not in t.column_names and "_b" not in t.column_names
        out = t.group_by(["k", "s"]).aggregate([("v", "sum"), ("v", "count")])
        return out.append_column("call_rows", pa.array([t.num_rows] * out.num_rows, pa.int64()))

    def with_bucket(batch: pa.Table) -> pa.Table:
        b = batch["k"].to_numpy() // 10
        return batch.append_column("_b", pa.array(b, pa.int64()))

    def run(ds) -> pd.DataFrame:
        df = shard_apply(ds, ["k", "s"], sum_kernel,
                         prepare=with_bucket if by else None, by=by).to_pandas()
        return df.sort_values(["k", "s"]).reset_index(drop=True)

    src = ray.data.from_arrow(t).repartition(9)
    small, lazy = run(src.materialize()), run(src)
    want = (t.to_pandas().groupby(["k", "s"], as_index=False)["v"]
            .agg(v_sum="sum", v_count="count")).sort_values(["k", "s"]).reset_index(drop=True)
    cols = list(want.columns)
    pd.testing.assert_frame_equal(small[cols], want, check_dtype=False)
    pd.testing.assert_frame_equal(lazy[cols], small[cols])
    # each call saw its whole by group; the lazy input was sharded instead
    df = t.to_pandas()
    group_rows = (df["k"] // 10).value_counts() if by else None
    want_calls = (small["k"] // 10).map(group_rows) if by else t.num_rows
    assert (small["call_rows"] == want_calls).all()
    assert (lazy["call_rows"] < small["call_rows"]).any()


def test_small_path_empty_input(ray_session):
    """An empty materialized input never reaches the kernel and yields no rows."""
    import ray.data

    def kernel(t: pa.Table) -> pa.Table:
        raise AssertionError("kernel called on an empty input")

    ds = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())})).materialize()
    assert shard_apply(ds, ["k"], kernel, by=()).count() == 0


def test_materialize_if_small(ray_session, monkeypatch):
    """A small lazy input comes back materialized with all its rows; a large
    one comes back as the same lazy Dataset; a materialized one as itself."""
    import ray.data
    from ray.data.dataset import MaterializedDataset

    from prom_tsdb_copyer_ray.stages import common

    t = _events()
    lazy = ray.data.from_arrow(t).repartition(5).map_batches(lambda b: b, batch_format="pyarrow")
    small = materialize_if_small(lazy)
    assert isinstance(small, MaterializedDataset)
    order = [(c, "ascending") for c in t.column_names]
    got = pa.Table.from_pandas(small.to_pandas(), preserve_index=False)
    assert got.sort_by(order).equals(t.sort_by(order))
    assert materialize_if_small(small) is small
    monkeypatch.setattr(common, "SMALL_ROWS", t.num_rows)
    assert materialize_if_small(lazy) is lazy


def test_materialize_if_small_path_off_executes_nothing(ray_session, monkeypatch):
    """With the single-task path off (``SMALL_ROWS = 0``) a lazy input comes
    back unexecuted: a ``limit(0)`` probe would start every upstream task
    and interrupt it."""
    import ray.data

    from prom_tsdb_copyer_ray.stages import common

    lazy = ray.data.from_arrow(_events()).map_batches(lambda b: b, batch_format="pyarrow")
    monkeypatch.setattr(ray.data.Dataset, "materialize",
                        lambda self: pytest.fail("the input was executed"))
    monkeypatch.setattr(common, "SMALL_ROWS", 0)
    assert materialize_if_small(lazy) is lazy
