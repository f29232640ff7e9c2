"""Equi-join operator tests (broadcast + shuffle, inner/left/semi/anti)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _left():
    return pa.table(
        {
            "k": [1, 1, 2, 3, 5],
            "lid": [10, 11, 12, 13, 14],
        }
    )


def _right():
    return pa.table(
        {
            "rk": [1, 2, 2, 4],
            "name": ["a", "b1", "b2", "d"],
        }
    )


def test_broadcast_join_inner_dups(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.stages.joins import broadcast_join

    out = (
        broadcast_join(ray.data.from_arrow(_left()), _right(), "k", "rk",
                       right_cols=["name"])
        .to_pandas()
        .sort_values(["lid", "name"])
        .reset_index(drop=True)
    )
    # k=1 matches once for two left rows; k=2 matches twice; 3/5 drop
    assert out[["lid", "name"]].values.tolist() == [
        [10, "a"], [11, "a"], [12, "b1"], [12, "b2"],
    ]


def test_broadcast_join_left_semi_anti(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.stages.joins import broadcast_join

    ds = ray.data.from_arrow(_left())
    left = broadcast_join(ds, _right(), "k", "rk", right_cols=["name"], how="left").to_pandas()
    assert len(left) == 6  # 4 matches + 2 null-extended misses
    misses = left[left["name"].isna()]["lid"].sort_values().tolist()
    assert misses == [13, 14]
    semi = broadcast_join(ds, _right(), "k", "rk", how="semi").to_pandas()
    assert sorted(semi["lid"]) == [10, 11, 12]
    anti = broadcast_join(ds, _right(), "k", "rk", how="anti").to_pandas()
    assert sorted(anti["lid"]) == [13, 14]


def test_shuffle_join_inner_matches_broadcast(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.stages.joins import broadcast_join, shuffle_join

    rng = np.random.default_rng(11)
    n = 3000
    left = pa.table(
        {
            "k": pa.array(rng.integers(0, 200, n)),
            "lid": pa.array(np.arange(n)),
        }
    )
    right = pa.table(
        {
            "rk": pa.array(rng.integers(0, 250, 400)),
            "v": pa.array(rng.normal(size=400)),
        }
    )
    lds = ray.data.from_arrow(left).repartition(5)
    rds = ray.data.from_arrow(right).repartition(3)
    got = (
        shuffle_join(lds, rds, "k", "rk", right_cols=["v"])
        .to_pandas()
        .sort_values(["lid", "v"])
        .reset_index(drop=True)
    )
    want = (
        broadcast_join(ray.data.from_arrow(left), right, "k", "rk", right_cols=["v"])
        .to_pandas()
        .sort_values(["lid", "v"])
        .reset_index(drop=True)
    )
    assert got[["lid", "v"]].values.tolist() == want[["lid", "v"]].values.tolist()


def test_shuffle_join_semi_anti(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.stages.joins import shuffle_join

    lds = ray.data.from_arrow(_left())
    rds = ray.data.from_arrow(_right().rename_columns(["rk", "name"]))
    semi = shuffle_join(lds, rds, "k", "rk", how="semi").to_pandas()
    assert sorted(semi["lid"]) == [10, 11, 12]
    anti = shuffle_join(lds, rds, "k", "rk", how="anti").to_pandas()
    assert sorted(anti["lid"]) == [13, 14]
    assert list(anti.columns) == ["k", "lid"]


def test_broadcast_join_empty_right(ray_session):
    """Regression: an empty build side must not crash (take on 0-row table)."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.joins import broadcast_join

    empty = _right().slice(0, 0)
    ds = ray.data.from_arrow(_left())
    left = broadcast_join(ds, empty, "k", "rk", right_cols=["name"], how="left").to_pandas()
    assert len(left) == 5 and left["name"].isna().all()
    assert broadcast_join(ds, empty, "k", "rk", right_cols=["name"]).to_pandas().empty
    assert len(broadcast_join(ds, empty, "k", "rk", how="anti").to_pandas()) == 5
    assert broadcast_join(ds, empty, "k", "rk", how="semi").to_pandas().empty


def test_shuffle_join_hot_key_many_matches(ray_session):
    """A hot key with hundreds of right rows expands correctly (arange
    many-to-many path) across blocks."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.joins import shuffle_join

    left = pa.table({"k": [1, 1, 2], "lid": [0, 1, 2]})
    right = pa.table(
        {"rk": [1] * 500 + [2], "v": [float(i) for i in range(500)] + [9.0]}
    )
    out = shuffle_join(
        ray.data.from_arrow(left).repartition(2),
        ray.data.from_arrow(right).repartition(5),
        "k", "rk", right_cols=["v"],
    ).to_pandas()
    assert len(out) == 2 * 500 + 1
    assert sorted(out[out["lid"] == 0]["v"]) == [float(i) for i in range(500)]
    assert out[out["lid"] == 2]["v"].tolist() == [9.0]


def test_bloom_semi_join_exact_with_false_positives(ray_session):
    """A deliberately tiny bitmap forces false positives through the
    prefilter; the exact verify stage must remove them, and the prefilter
    must never drop a true member (no false negatives by construction)."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.joins import (
        bloom_mask, bloom_semi_join, build_bloom,
    )

    rng = np.random.default_rng(17)
    fact_keys = rng.integers(0, 5000, 8000).astype(np.int64)
    fact = pa.table({
        "id": pa.array(np.arange(8000, dtype=np.int64)),
        "k": pa.array(fact_keys),
    })
    dim_keys = np.unique(rng.integers(0, 5000, 120).astype(np.int64))
    dim = pa.table({"k": pa.array(dim_keys)})
    fact_ds = ray.data.from_arrow(fact).repartition(7)
    dim_ds = ray.data.from_arrow(dim).repartition(3)

    # tiny filter -> false positives are near-certain
    words = build_bloom(dim_ds, "k", num_bits=256, num_hashes=2)
    pre = bloom_mask(fact["k"], words, num_hashes=2)
    truth = np.isin(fact_keys, dim_keys)
    assert (pre & truth).sum() == truth.sum()  # no false negatives
    assert pre.sum() > truth.sum()  # tiny bitmap really lets FPs through
    assert pre.sum() < len(fact_keys)  # and still prunes definite absents

    out = (
        bloom_semi_join(fact_ds, dim_ds, "k", "k", num_bits=256, num_hashes=2)
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    want = fact.to_pandas()[truth].reset_index(drop=True)
    assert out["id"].tolist() == want["id"].tolist()


def test_set_op_except_intersect(ray_session):
    """DISTINCT semantics: duplicates collapse; except drops shared tuples,
    intersect keeps only shared; multi-block invariance."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.joins import set_op

    left = pa.table({"a": [1, 1, 2, 3, 4, 4], "b": [0, 0, 0, 1, 1, 1]})
    right = pa.table({"a": [2, 4, 5], "b": [0, 1, 0]})
    for nparts in (1, 3):
        l = ray.data.from_arrow(left).repartition(nparts)
        r = ray.data.from_arrow(right).repartition(nparts)
        exc = (
            set_op(l, r, ["a", "b"], "except")
            .to_pandas().sort_values(["a", "b"]).values.tolist()
        )
        assert exc == [[1, 0], [3, 1]]
        itc = (
            set_op(l, r, ["a", "b"], "intersect")
            .to_pandas().sort_values(["a", "b"]).values.tolist()
        )
        assert itc == [[2, 0], [4, 1]]


def test_shuffle_join_left_and_full(ray_session):
    """Outer variants: unmatched left rows null-extended; full outer also
    emits unmatched right rows with null left columns."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.joins import shuffle_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 2, 3], pa.int64()),
        "lv": pa.array([10, 20, 21, 30], pa.int64()),
    })).repartition(3)
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([2, 4, 4], pa.int64()),
        "rv": pa.array([200, 400, 401], pa.int64()),
    })).repartition(2)

    lj = shuffle_join(left, right, "k", "rk", right_cols=["rv"],
                      how="left").to_pandas().sort_values(
        ["k", "lv", "rv"], na_position="first").reset_index(drop=True)
    assert lj["k"].tolist() == [1, 2, 2, 3]
    assert lj["rv"].fillna(-1).tolist() == [-1, 200, 200, -1]

    fj = shuffle_join(left, right, "k", "rk",
                      right_cols=["rk", "rv"], how="full").to_pandas()
    # matched: k=2 twice; left-only: 1, 3; right-only: two k=4 rows
    assert len(fj) == 6
    right_only = fj[fj["k"].isna()]
    assert sorted(right_only["rv"].tolist()) == [400, 401]
    assert right_only["rk"].tolist() == [4, 4]
    left_only = fj[fj["rv"].isna()]
    assert sorted(left_only["k"].tolist()) == [1, 3]


class TestSkewAwareJoin:
    """skew_aware_join == shuffle_join output multiset, hot path exercised."""

    def _sides(self, ray_session):
        import ray.data

        rng = np.random.RandomState(11)
        # key 0 holds ~40% of left rows (the hot key); the rest spread thin
        keys = np.where(rng.rand(20_000) < 0.4, 0,
                        rng.randint(1, 2_000, size=20_000)).astype(np.int64)
        left = ray.data.from_arrow(pa.table({
            "k": pa.array(keys),
            "payload": pa.array(np.arange(20_000, dtype=np.int64)),
        })).repartition(8)
        dim_keys = np.arange(0, 2_000, dtype=np.int64)
        right = ray.data.from_arrow(pa.table({
            "k": pa.array(dim_keys),
            "grp": pa.array(dim_keys % 97),
        })).repartition(4)
        return left, right

    def _sorted_df(self, ds):
        df = ds.to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    def test_matches_shuffle_join(self, ray_session):
        from prom_tsdb_copyer_ray.stages.joins import shuffle_join, skew_aware_join

        left, right = self._sides(ray_session)
        want = self._sorted_df(
            shuffle_join(left, right, "k", "k", right_cols=["grp"]))
        got = self._sorted_df(
            skew_aware_join(left, right, "k", "k", right_cols=["grp"],
                            hot_threshold=1_000))
        pd.testing.assert_frame_equal(got[sorted(got.columns)],
                                      want[sorted(want.columns)])

    def test_no_hot_keys_falls_back(self, ray_session):
        from prom_tsdb_copyer_ray.stages.joins import shuffle_join, skew_aware_join

        left, right = self._sides(ray_session)
        want = self._sorted_df(
            shuffle_join(left, right, "k", "k", right_cols=["grp"]))
        got = self._sorted_df(
            skew_aware_join(left, right, "k", "k", right_cols=["grp"],
                            hot_threshold=10**9))
        pd.testing.assert_frame_equal(got[sorted(got.columns)],
                                      want[sorted(want.columns)])

    def test_many_to_many_hot_key(self, ray_session):
        """A hot key with SEVERAL right rows expands per pair on both paths."""
        import ray.data

        from prom_tsdb_copyer_ray.stages.joins import shuffle_join, skew_aware_join

        left = ray.data.from_arrow(pa.table({
            "k": pa.array([0] * 500 + [1, 2, 3], pa.int64()),
            "payload": pa.array(range(503), type=pa.int64()),
        })).repartition(4)
        right = ray.data.from_arrow(pa.table({
            "k": pa.array([0, 0, 1, 2, 9], pa.int64()),
            "grp": pa.array([10, 11, 12, 13, 14], pa.int64()),
        }))
        want = self._sorted_df(
            shuffle_join(left, right, "k", "k", right_cols=["grp"]))
        got = self._sorted_df(
            skew_aware_join(left, right, "k", "k", right_cols=["grp"],
                            hot_threshold=100))
        assert len(got) == 500 * 2 + 2
        pd.testing.assert_frame_equal(got[sorted(got.columns)],
                                      want[sorted(want.columns)])
