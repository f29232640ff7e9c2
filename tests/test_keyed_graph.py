"""Unit tests for the sharded keyed kernels (top-k / sessions / quantiles),
connected components, and term document frequency."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def test_topk_per_group_basic(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import topk_per_group

    t = pa.table(
        {
            "k": ["a"] * 5 + ["b"] * 2 + ["c"],
            "id": [1, 2, 3, 4, 5, 6, 7, 8],
            "v": [10.0, 50.0, 30.0, 50.0, 20.0, 1.0, 2.0, 9.0],
        }
    )
    out = (
        topk_per_group(ray.data.from_arrow(t), ["k"], "v", 2, tiebreak_col="id")
        .to_pandas()
        .sort_values(["k", "id"])
        .reset_index(drop=True)
    )
    # a: two rows with v=50 tie -> lower id (2) first, then id=4
    assert out[out["k"] == "a"]["id"].tolist() == [2, 4]
    # b has only 2 rows, c only 1 (k larger than group size)
    assert out[out["k"] == "b"]["id"].tolist() == [6, 7]
    assert out[out["k"] == "c"]["id"].tolist() == [8]


def test_topk_combiner_matches_many_batches(ray_session):
    """Partial top-k per batch must not change the global result."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import topk_per_group

    rng = np.random.default_rng(7)
    n = 5000
    t = pa.table(
        {
            "k": pa.array((rng.integers(0, 37, n)).astype(str)),
            "id": pa.array(np.arange(n)),
            "v": pa.array(rng.normal(size=n)),
        }
    )
    ds = ray.data.from_arrow(t).repartition(13)  # many small blocks
    out = topk_per_group(ds, ["k"], "v", 3, tiebreak_col="id").to_pandas()
    df = t.to_pandas()
    want = (
        df.sort_values(["k", "v", "id"], ascending=[True, False, True])
        .groupby("k").head(3)
    )
    got = set(map(tuple, out[["k", "id"]].itertuples(index=False)))
    exp = set(map(tuple, want[["k", "id"]].itertuples(index=False)))
    assert got == exp


def test_sessionize_gaps(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import sessionize

    t = pa.table(
        {
            "u": [1, 1, 1, 1, 2],
            "ts_ms": [0, 100, 101, 300, 50],
            "v": [1.0, 2.0, 4.0, 8.0, 16.0],
        }
    )
    out = (
        sessionize(ray.data.from_arrow(t), "u", "ts_ms", gap_ms=100, value_col="v")
        .to_pandas()
        .sort_values(["u", "session_start_ms"])
        .reset_index(drop=True)
    )
    # gap 100 is inclusive (<=): 0->100 stays, 101->300 (199) breaks
    assert out[out["u"] == 1][["session_start_ms", "session_end_ms", "n_events"]].values.tolist() == [
        [0, 101, 3],
        [300, 300, 1],
    ]
    assert out[out["u"] == 1]["sum_value"].tolist() == [7.0, 8.0]
    assert out[out["u"] == 2]["n_events"].tolist() == [1]


def test_group_quantiles_matches_numpy(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import group_quantiles

    rng = np.random.default_rng(3)
    n = 4000
    keys = rng.integers(0, 11, n)
    vals = rng.normal(size=n)
    t = pa.table({"k": pa.array(keys.astype(str)), "v": pa.array(vals)})
    out = (
        group_quantiles(ray.data.from_arrow(t).repartition(7), ["k"], "v",
                        (0.5, 0.9, 0.99))
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    for kk in np.unique(keys):
        s = np.sort(vals[keys == kk])
        for q, col in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            want = s[int(np.ceil(q * len(s))) - 1]
            assert out.loc[str(kk), col] == want


@pytest.mark.parametrize("graph_rows, small_rows", [
    pytest.param(0, None, id="0"),
    pytest.param(0, 0, id="0-exchange"),
    pytest.param(4_000_000, None, id="4000000"),
])
def test_connected_components_chain_and_isolated(ray_session, monkeypatch,
                                                 graph_rows, small_rows):
    """A chain forces multiple propagation rounds; isolated nodes keep
    themselves as component.  Parametrized over every execution path: the
    hash-min loop (``SMALL_GRAPH_ROWS = 0``) with its exchanges on
    ``shard_apply``'s single-task path (default ``SMALL_ROWS``) and on its
    hash exchange (``SMALL_ROWS = 0``), and the single-task vectorized
    solver (default threshold)."""
    import ray.data

    from prom_tsdb_copyer_ray.stages import common, graph

    monkeypatch.setattr(graph, "SMALL_GRAPH_ROWS", graph_rows)
    if small_rows is not None:
        monkeypatch.setattr(common, "SMALL_ROWS", small_rows)
    edges = pa.table({"a": [1, 2, 3, 10, 20], "b": [2, 3, 4, 11, 21]})
    nodes = pa.table({"node": [1, 2, 3, 4, 10, 11, 20, 21, 99]})
    out = (
        graph.connected_components(
            ray.data.from_arrow(edges), ray.data.from_arrow(nodes),
        )
        .to_pandas()
        .set_index("node")["component"]
        .sort_index()
    )
    assert out.to_dict() == {
        1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 20: 20, 21: 20, 99: 99,
    }


def test_connected_components_merges_star_relations(ray_session):
    """Two star relations sharing a member collapse into one component."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.graph import connected_components, group_star_edges

    docs = pa.table(
        {
            "doc_id": [1, 2, 3, 4, 5],
            "g1": ["x", "x", "y", "y", "z"],
            "g2": ["p", "q", "q", "r", "r"],
        }
    )
    ds = ray.data.from_arrow(docs)
    edges = group_star_edges(ds, ["g1"], id_col="doc_id").union(
        group_star_edges(ds, ["g2"], id_col="doc_id")
    )
    out = (
        connected_components(edges, ds, node_col="doc_id")
        .to_pandas()
        .set_index("doc_id")["component"]
        .sort_index()
    )
    # g1 links 1-2 and 3-4; g2 links 2-3 and 4-5 -> all one component
    assert out.to_dict() == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}


def test_group_star_edges_paths_agree(ray_session):
    """The broadcast (combiner + key->min merge) and fallback (key-hash
    co-partition) star-edge builders emit the same edge set, incl.
    multi-block inputs, singleton groups and a null-free dup key."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.graph import group_star_edges

    rng = np.random.default_rng(71)
    n = 400
    docs = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "k1": pa.array([f"g{v}" for v in rng.integers(0, 60, n)]),
        "k2": pa.array(rng.integers(0, 37, n).astype(np.int64)),
    })
    ds = ray.data.from_arrow(docs).repartition(5)

    def edge_set(out_ds):
        df = out_ds.to_pandas()
        return set(zip(df["a"].astype(int), df["b"].astype(int)))

    fast = edge_set(group_star_edges(ds, ["k1", "k2"]))
    slow = edge_set(group_star_edges(ds, ["k1", "k2"], broadcast_keys=0))
    assert fast == slow and len(fast) > 0
    # every edge's a is the group min: a < b always
    assert all(a < b for a, b in fast)


def test_term_df_small(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.stages.textstats import term_document_frequency

    t = pa.table(
        {
            "text": [
                "The cat sat. The CAT!",
                "a cat and a dog",
                "Dog DOG dog 42",
                None,
            ]
        }
    )
    out = term_document_frequency(ray.data.from_arrow(t), top_n=3).to_pandas()
    # df: cat=2, dog=2, a=1, and=1, the=1, sat=1 -> top3 by (df desc, term)
    assert out["term"].tolist() == ["cat", "dog", "a"]
    assert out["df"].tolist() == [2, 2, 1]


def test_count_distinct_per_group(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import count_distinct_per_group

    rng = np.random.default_rng(5)
    n = 6000
    t = pa.table(
        {
            "k": pa.array((rng.integers(0, 7, n)).astype(str)),
            "v": pa.array(rng.integers(0, 300, n)),
        }
    )
    out = (
        count_distinct_per_group(
            ray.data.from_arrow(t).repartition(9), ["k"], "v", out_col="nd"
        )
        .to_pandas()
        .set_index("k")["nd"]
        .sort_index()
    )
    df = t.to_pandas()
    want = df.groupby("k")["v"].nunique()
    assert out.to_dict() == want.to_dict()


def test_count_distinct_ignores_nulls(ray_session):
    """Regression: SQL COUNT(DISTINCT) semantics — NULL is not a value."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import count_distinct_per_group

    t = pa.table(
        {
            "k": ["a", "a", "a", "b"],
            "v": pa.array([1, 1, None, None], pa.int64()),
        }
    )
    out = (
        count_distinct_per_group(ray.data.from_arrow(t), ["k"], "v")
        .to_pandas()
        .set_index("k")["n_distinct"]
        .to_dict()
    )
    # b has only NULLs -> no row at all (SQL would say 0; the group vanishes
    # like an empty GROUP BY group does after a WHERE filter)
    assert out == {"a": 1}


def test_connected_components_missing_endpoint_raises(ray_session, monkeypatch):
    """Regression: an edge endpoint absent from nodes_ds must fail loudly,
    not propagate a neighbor's label silently."""
    import pytest
    import ray.data

    from prom_tsdb_copyer_ray.stages import graph

    edges = pa.table({"a": [1, 5], "b": [2, 99]})
    nodes = pa.table({"node": [1, 2, 99]})  # 5 missing
    for sgr in (0, 4_000_000):  # both the loop and the single-task path
        monkeypatch.setattr(graph, "SMALL_GRAPH_ROWS", sgr)
        with pytest.raises(Exception):
            graph.connected_components(
                ray.data.from_arrow(edges), ray.data.from_arrow(nodes),
            ).materialize()


def test_hll_registers_match_pure_python():
    """Vectorized halving-loop ranks == bit_length reference, incl. edges."""
    import numpy as np

    from prom_tsdb_copyer_ray.stages.sketch import hll_registers

    p = 12
    MASK = (1 << 64) - 1
    rng = np.random.default_rng(13)
    hashes = rng.integers(0, 1 << 63, 5000, dtype=np.uint64) * 2 + 1
    hashes = np.concatenate([hashes, np.array(
        [0, 1, MASK, 1 << 63, (1 << 52) - 1], dtype=np.uint64)])
    regs = hll_registers(hashes, p)
    want = np.zeros(1 << p, dtype=np.uint8)
    for h in hashes.tolist():
        idx = h >> (64 - p)
        rest = (h << p) & MASK
        lz = (64 - p) if rest == 0 else min(64 - rest.bit_length(), 64 - p)
        want[idx] = max(want[idx], lz + 1)
    assert (regs == want).all()


def test_approx_distinct_accuracy(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.stages.sketch import approx_distinct_per_group

    rng = np.random.default_rng(2)
    n = 50_000
    t = pa.table(
        {
            "k": pa.array((rng.integers(0, 3, n)).astype(str)),
            "v": pa.array(rng.integers(0, 8000, n)),
        }
    )
    out = (
        approx_distinct_per_group(ray.data.from_arrow(t).repartition(11), ["k"], "v")
        .to_pandas()
        .set_index("k")["approx_distinct"]
    )
    df = t.to_pandas()
    for kk, true in df.groupby("k")["v"].nunique().items():
        assert abs(out[kk] - true) / true < 0.05  # ~3 sigma at p=12


def test_mode_per_group(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import mode_per_group

    t = pa.table(
        {
            "k": ["a"] * 5 + ["b"] * 3,
            "v": [7, 7, 3, 3, 1, 9, 8, 9],
        }
    )
    out = (
        mode_per_group(ray.data.from_arrow(t).repartition(3), ["k"], "v")
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    # a: 7 and 3 tie at count 2 -> smaller value 3 wins; b: 9 wins with 2
    assert out.loc["a", "v"] == 3 and out.loc["a", "n"] == 2
    assert out.loc["b", "v"] == 9 and out.loc["b", "n"] == 2


def test_sessionize_fuzz_vs_pandas(ray_session):
    """Randomized sessions match a pandas reference implementation."""
    import pandas as pd
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import sessionize

    rng = np.random.default_rng(17)
    n = 4000
    t = pa.table(
        {
            "u": pa.array(rng.integers(0, 60, n)),
            "ts_ms": pa.array(rng.integers(0, 500_000, n)),
            "v": pa.array(rng.normal(size=n)),
        }
    )
    gap = 3000
    got = (
        sessionize(ray.data.from_arrow(t).repartition(7), "u", "ts_ms", gap, value_col="v")
        .to_pandas()
        .sort_values(["u", "session_start_ms"])
        .reset_index(drop=True)
    )
    df = t.to_pandas().sort_values(["u", "ts_ms"])
    df["brk"] = (df["u"].ne(df["u"].shift())) | (
        df["ts_ms"] - df["ts_ms"].shift() > gap
    )
    df["sid"] = df["brk"].cumsum()
    want = (
        df.groupby(["u", "sid"])
        .agg(
            session_start_ms=("ts_ms", "min"),
            session_end_ms=("ts_ms", "max"),
            n_events=("ts_ms", "size"),
            sum_value=("v", "sum"),
        )
        .reset_index()
        .drop(columns="sid")
        .sort_values(["u", "session_start_ms"])
        .reset_index(drop=True)
    )
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(
        got[["u", "session_start_ms", "session_end_ms", "n_events"]],
        want[["u", "session_start_ms", "session_end_ms", "n_events"]].astype(
            {"u": "int64", "n_events": "int64"}
        ),
        check_dtype=False,
    )
    np.testing.assert_allclose(got["sum_value"], want["sum_value"], rtol=1e-9)


def _long_chain_components() -> dict:
    """Components of two interleaved 300-node chains (even ids, odd ids)
    under the distributed loop: plain hash-min would need ~300 rounds and
    exhaust ``max_iters=40``, so two components mean the adaptive pointer
    jump ran, and a jump that read another node's label would merge them."""
    import ray.data

    from prom_tsdb_copyer_ray.stages import graph

    n = 300
    a = [2 * i + side for side in (0, 1) for i in range(n - 1)]
    edges = pa.table({"a": a, "b": [x + 2 for x in a]})
    nodes = pa.table({"node": list(range(2 * n))})
    out = graph.connected_components(
        ray.data.from_arrow(edges), ray.data.from_arrow(nodes), max_iters=40,
    ).to_pandas()
    return out.groupby("component")["node"].apply(lambda s: sorted(s)).to_dict()


def test_connected_components_long_chain_pointer_jumping(ray_session, monkeypatch):
    """300-node chains converge in O(log d) rounds once adaptive pointer
    jumping kicks in; the loop's exchanges take ``shard_apply``'s
    single-task path (the graph is under ``SMALL_ROWS``)."""
    from prom_tsdb_copyer_ray.stages import graph

    monkeypatch.setattr(graph, "SMALL_GRAPH_ROWS", 0)  # force the loop under test
    assert _long_chain_components() == {0: list(range(0, 600, 2)),
                                        1: list(range(1, 600, 2))}


def test_connected_components_long_chain_pointer_jumping_exchange(ray_session,
                                                                  monkeypatch):
    """The same chains with every round on ``shard_apply``'s hash exchange
    (``SMALL_ROWS = 0``): the pointer jump's authority rows (keyed by node)
    and seeker rows (keyed by label) must meet in one shard."""
    from prom_tsdb_copyer_ray.stages import common, graph

    monkeypatch.setattr(graph, "SMALL_GRAPH_ROWS", 0)
    monkeypatch.setattr(common, "SMALL_ROWS", 0)
    assert _long_chain_components() == {0: list(range(0, 600, 2)),
                                        1: list(range(1, 600, 2))}


def test_approx_quantiles_accuracy_and_block_invariance(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.stages.sketch import approx_quantiles_per_group

    rng = np.random.default_rng(23)
    n = 40_000
    t = pa.table(
        {
            "k": pa.array((rng.integers(0, 3, n)).astype(str)),
            "v": pa.array(rng.normal(size=n)),
            "id": pa.array(np.arange(n)),
        }
    )
    outs = []
    for parts in (4, 17):  # bottom-k is a semilattice: block structure is irrelevant
        out = (
            approx_quantiles_per_group(
                ray.data.from_arrow(t).repartition(parts), ["k"], "v", "id", k=2048
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        outs.append(out)
    assert outs[0].equals(outs[1])
    df = t.to_pandas()
    for kk, grp in df.groupby("k"):
        s = np.sort(grp["v"].to_numpy())
        got = outs[0].set_index("k")
        for q, col in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            # assert in RANK space (value-space tail error is density-
            # amplified): the estimate's empirical CDF position must sit
            # within ~3 sigma of q, sigma = sqrt(q(1-q)/k)
            cdf = np.searchsorted(s, got.loc[kk, col], side="right") / len(s)
            assert abs(cdf - q) < 3.5 * np.sqrt(q * (1 - q) / 2048) + 1e-3


def test_window_rank_matches_pandas(ray_session):
    import pandas as pd
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import window_rank

    rng = np.random.default_rng(5)
    n = 3000
    df = pd.DataFrame({
        "k": rng.integers(0, 40, n),
        "v": rng.integers(0, 7, n).astype(float),  # heavy value ties
        "id": np.arange(n, dtype=np.int64),
    })
    ds = ray.data.from_pandas(df).repartition(9)
    out = window_rank(ds, ["k"], ["v", "id"]).to_pandas()
    want = df.copy()
    want["rn"] = (
        want.sort_values(["k", "v", "id"]).groupby("k").cumcount() + 1
    ).reindex(want.index)
    got = out.sort_values(["k", "v", "id"]).reset_index(drop=True)
    want = want.sort_values(["k", "v", "id"]).reset_index(drop=True)
    assert got["rn"].tolist() == want["rn"].tolist()


def test_running_sum_matches_pandas(ray_session):
    import pandas as pd
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import running_sum

    rng = np.random.default_rng(6)
    n = 3000
    df = pd.DataFrame({
        "k": rng.integers(0, 25, n),
        "t": rng.integers(0, 500, n).astype(np.int64),
        "id": np.arange(n, dtype=np.int64),
        "v": rng.integers(-50, 100, n).astype(np.int64),
    })
    ds = ray.data.from_pandas(df).repartition(11)
    out = running_sum(ds, ["k"], ["t", "id"], "v").to_pandas()
    assert out["running"].dtype == np.int64  # integer input stays exact
    srt = df.sort_values(["k", "t", "id"])
    want = srt.assign(running=srt.groupby("k")["v"].cumsum())
    got = out.sort_values(["k", "t", "id"]).reset_index(drop=True)
    assert got["running"].tolist() == want.reset_index(drop=True)["running"].tolist()


def test_pivot_counts_matches_pandas(ray_session):
    """Wide pivot vs pandas pivot_table, multi-block invariance, and
    unknown/null categories dropped."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import pivot_counts

    rng = np.random.default_rng(11)
    n = 4000
    cats = ["a", "b", "c"]
    all_cats = cats + ["zz"]  # zz not in the pivot domain
    cvals = [all_cats[i] for i in rng.integers(0, 4, n)]
    cvals[5] = None
    t = pa.table(
        {
            "k": pa.array((rng.integers(0, 97, n)).astype(np.int64)),
            "c": pa.array(cvals, pa.string()),
            "v": pa.array(np.round(rng.normal(size=n), 3)),
        }
    )
    for nparts in (1, 17):
        ds = ray.data.from_arrow(t).repartition(nparts)
        out = (
            pivot_counts(ds, ["k"], "c", cats, value_col="v")
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        df = t.to_pandas()
        df = df[df["c"].isin(cats)]
        # keys whose every row is an unlisted category must not appear
        assert set(out["k"]) == set(df["k"])
        for cat in cats:
            sub = df[df["c"] == cat].groupby("k")
            wantn = sub.size().reindex(out["k"]).fillna(0).astype(int)
            wantv = sub["v"].sum().reindex(out["k"]).fillna(0.0)
            np.testing.assert_array_equal(out[f"n_{cat}"].values, wantn.values)
            np.testing.assert_allclose(
                out[f"v_{cat}"].values, wantv.values, atol=1e-9
            )


def test_pivot_counts_no_value_col(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import pivot_counts

    t = pa.table({"k": ["x", "x", "y"], "c": ["a", "a", "b"]})
    out = (
        pivot_counts(ray.data.from_arrow(t), ["k"], "c", ["a", "b"])
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert out.columns.tolist() == ["k", "n_a", "n_b"]
    assert out.values.tolist() == [["x", 2, 0], ["y", 0, 1]]


def test_group_linear_trend_matches_polyfit(ray_session):
    """Exact-int sufficient-stats slope vs numpy lstsq per key; block-layout
    invariance; degenerate keys (n=1, constant x) dropped."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import group_linear_trend

    rng = np.random.default_rng(23)
    n = 3000
    k = rng.integers(0, 41, n).astype(np.int64)
    x = rng.integers(0, 500, n).astype(np.int64)
    y = (3 * x + rng.integers(-50, 50, n)).astype(np.int64)
    # degenerate keys: 100 -> single sample, 101 -> constant x
    k = np.r_[k, [100, 101, 101]]
    x = np.r_[x, [7, 9, 9]]
    y = np.r_[y, [1, 2, 5]]
    t = pa.table({"k": k, "x": x, "y": y})
    for nparts in (1, 11):
        ds = ray.data.from_arrow(t).repartition(nparts)
        out = (
            group_linear_trend(ds, ["k"], "x", "y")
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        assert 100 not in set(out["k"]) and 101 not in set(out["k"])
        df = t.to_pandas()
        for key, grp in df.groupby("k"):
            if key >= 100:
                continue
            want = np.polyfit(grp["x"], grp["y"], 1)[0]
            got = out.loc[out["k"] == key, "slope"].iloc[0]
            np.testing.assert_allclose(got, want, rtol=1e-9)


def test_group_linear_trend_predict_matches_polyfit(ray_session):
    """predict_at extrapolation vs numpy polyval(polyfit) per key, and
    block-layout invariance of the exact-int closed form."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import group_linear_trend

    rng = np.random.default_rng(31)
    n = 2000
    k = rng.integers(0, 23, n).astype(np.int64)
    x = rng.integers(0, 400, n).astype(np.int64)
    y = (-2 * x + rng.integers(-30, 30, n)).astype(np.int64)
    t = pa.table({"k": k, "x": x, "y": y})
    xp = 1000
    outs = []
    for nparts in (1, 9):
        ds = ray.data.from_arrow(t).repartition(nparts)
        out = (
            group_linear_trend(ds, ["k"], "x", "y", out_col="pred",
                               predict_at=xp)
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        outs.append(out)
        df = t.to_pandas()
        for key, grp in df.groupby("k"):
            want = np.polyval(np.polyfit(grp["x"], grp["y"], 1), xp)
            got = out.loc[out["k"] == key, "pred"].iloc[0]
            np.testing.assert_allclose(got, want, rtol=1e-9)
    # exact-int sufficient stats => bit-identical across block layouts
    assert (outs[0]["pred"].to_numpy() == outs[1]["pred"].to_numpy()).all()


def test_grouping_sets_matches_pandas(ray_session):
    """CUBE over two dims vs pandas-per-set totals; multi-block invariance;
    min/max aggs alongside count/sum."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import cube_agg

    rng = np.random.default_rng(31)
    n = 2500
    t = pa.table({
        "a": pa.array([f"a{i}" for i in rng.integers(0, 5, n)]),
        "b": pa.array([f"b{i}" for i in rng.integers(0, 7, n)]),
        "v": pa.array(rng.integers(-100, 100, n).astype(np.int64)),
    })
    specs = [("v", "count", "n"), ("v", "sum", "s"),
             ("v", "min", "lo"), ("v", "max", "hi")]
    df = t.to_pandas()
    for nparts in (1, 9):
        out = (
            cube_agg(ray.data.from_arrow(t).repartition(nparts), ["a", "b"], specs)
            .to_pandas().set_index(["a", "b"]).sort_index()
        )
        assert len(out) == (
            len(df.groupby(["a", "b"])) + len(df.groupby("a"))
            + len(df.groupby("b")) + 1
        )
        for keys, grp in (
            list(df.groupby(["a", "b"])) +
            [((a, "(all)"), g) for a, g in df.groupby("a")] +
            [(("(all)", b), g) for b, g in df.groupby("b")] +
            [(("(all)", "(all)"), df)]
        ):
            row = out.loc[keys]
            assert row["n"] == len(grp)
            assert row["s"] == grp["v"].sum()
            assert row["lo"] == grp["v"].min()
            assert row["hi"] == grp["v"].max()


def test_percent_rank_ties_and_blocks(ray_session):
    """Tie groups share a rank; single-row partitions get 0.0; block-layout
    invariant; matches pandas rank(method='min')."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import percent_rank

    rng = np.random.default_rng(43)
    n = 2000
    t = pa.table({
        "k": pa.array(rng.integers(0, 23, n).astype(np.int64)),
        "v": pa.array(rng.integers(0, 40, n).astype(np.int64)),  # many ties
        "id": pa.array(np.arange(n, dtype=np.int64)),
    })
    # a singleton partition
    t = pa.concat_tables([t, pa.table({"k": [999], "v": [5], "id": [n]})])
    df = t.to_pandas()
    grp = df.groupby("k")["v"]
    want = (grp.rank(method="min") - 1) / (grp.transform("size") - 1).clip(lower=1)
    df["want"] = want.fillna(0.0)
    for nparts in (1, 13):
        out = (
            percent_rank(
                ray.data.from_arrow(t).repartition(nparts),
                ["k"], ["v"], carry_cols=["id"],
            ).to_pandas().sort_values("id").reset_index(drop=True)
        )
        np.testing.assert_allclose(out["pr"].values, df["want"].values, atol=0)
        assert out.loc[out["k"] == 999, "pr"].iloc[0] == 0.0


def test_standardize_per_group(ray_session):
    """z = (v - mean)/std_pop per key vs numpy; zero-variance and unseen
    keys dropped; multi-block invariance."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import standardize_per_group

    rng = np.random.default_rng(61)
    n = 3000
    t = pa.table({
        "k": pa.array(rng.integers(0, 29, n).astype(np.int64)),
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array(rng.integers(-500, 500, n).astype(np.int64)),
    })
    # constant-value key -> zero variance -> dropped
    t = pa.concat_tables([t, pa.table({
        "k": pa.array([777, 777], pa.int64()),
        "id": pa.array([n, n + 1], pa.int64()),
        "v": pa.array([42, 42], pa.int64()),
    })])
    df = t.to_pandas()
    for nparts in (1, 9):
        out = (
            standardize_per_group(
                ray.data.from_arrow(t).repartition(nparts),
                ["k"], "v", carry_cols=["id"],
            ).to_pandas().sort_values("id").reset_index(drop=True)
        )
        assert 777 not in set(out["k"])
        want = df[df["k"] != 777].copy()
        g = want.groupby("k")["v"]
        want["z"] = (want["v"] - g.transform("mean")) / g.transform(
            lambda s: s.std(ddof=0))
        np.testing.assert_allclose(
            out["z"].values, want.sort_values("id")["z"].values, rtol=1e-9
        )


def test_ntile_bucket_sizes(ray_session):
    """SQL fill order: first count%n buckets one row larger; partitions
    smaller than n give one row per bucket; multi-block invariant."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import ntile

    rng = np.random.default_rng(71)
    sizes = {0: 10, 1: 7, 2: 3, 3: 1, 4: 23}
    ks, ids = [], []
    i = 0
    for k, sz in sizes.items():
        for _ in range(sz):
            ks.append(k)
            ids.append(i)
            i += 1
    t = pa.table({
        "k": pa.array(ks, pa.int64()),
        "id": pa.array(rng.permutation(ids).astype(np.int64)),
    })
    for nparts in (1, 5):
        out = (
            ntile(ray.data.from_arrow(t).repartition(nparts),
                  ["k"], ["id"], 4)
            .to_pandas().sort_values(["k", "id"]).reset_index(drop=True)
        )
        for k, sz in sizes.items():
            tiles = out[out["k"] == k]["tile"].tolist()
            # monotone over order
            assert tiles == sorted(tiles)
            q, r = divmod(sz, 4)
            want_counts = [q + 1] * r + [q] * (4 - r)
            want_counts = [c for c in want_counts if c > 0]
            got_counts = [tiles.count(b) for b in sorted(set(tiles))]
            assert got_counts == want_counts
            assert sorted(set(tiles)) == list(range(1, len(want_counts) + 1))


def test_heavy_hitters_exact_vs_bruteforce(ray_session):
    """MG sketch + verify must return the exact top-k under Zipf skew with
    a capacity far below the domain; tiny capacity exercises the exact
    fallback; ties break to the smallest item."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.sketch import heavy_hitters_topk

    rng = np.random.default_rng(83)
    v = (rng.zipf(1.3, 20000) % 3000).astype(np.int64)
    t = pa.table({"u": pa.array(v)})
    df = t.to_pandas()
    want = (
        df.groupby("u").size().reset_index(name="n")
        .sort_values(["n", "u"], ascending=[False, True]).head(8)
    )
    for cap in (128, 4):  # 4 forces err >= kth -> exact-recount fallback
        out = heavy_hitters_topk(
            ray.data.from_arrow(t).repartition(11), "u", k=8, capacity=cap
        ).to_pandas()
        assert out["u"].tolist() == want["u"].tolist()
        assert out["n"].tolist() == want["n"].tolist()


def test_mg_compact_bound():
    from prom_tsdb_copyer_ray.stages.sketch import _mg_compact

    items = np.arange(10, dtype=np.int64)
    counts = np.array([100, 90, 80, 5, 4, 3, 3, 2, 2, 1], dtype=np.int64)
    it, ct, thresh = _mg_compact(items, counts, 3)
    assert len(it) <= 3 and thresh == 5
    # residuals undercount by exactly thresh
    assert ct.tolist() == [95, 85, 75]


def test_lag_column_matches_pandas(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import lag_column

    rng = np.random.default_rng(97)
    n = 2000
    t = pa.table({
        "k": pa.array(rng.integers(0, 31, n).astype(np.int64)),
        "o": pa.array(rng.permutation(n).astype(np.int64)),
        "v": pa.array(rng.normal(size=n)),
    })
    df = t.to_pandas().sort_values(["k", "o"])
    df["prev"] = df.groupby("k")["v"].shift(1)
    want = df.dropna(subset=["prev"])
    for nparts in (1, 8):
        out = (
            lag_column(ray.data.from_arrow(t).repartition(nparts),
                       ["k"], ["o"], "v")
            .to_pandas().sort_values(["k", "o"]).reset_index(drop=True)
        )
        np.testing.assert_array_equal(out["o"].values, want["o"].values)
        np.testing.assert_allclose(out["prev"].values, want["prev"].values,
                                   atol=0)


def test_cohort_retention_matches_pandas(ray_session):
    """Retention matrix vs a pandas reference: multi-visit users counted
    once per (cohort, offset); block layout must not matter."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import cohort_retention

    DAY = 86_400_000
    rng = np.random.default_rng(101)
    n = 5000
    t = pa.table({
        "u": pa.array(rng.integers(0, 200, n).astype(np.int64)),
        "tms": pa.array((rng.integers(0, 30, n) * DAY
                         + rng.integers(0, DAY, n)).astype(np.int64)),
    })
    df = t.to_pandas()
    df["day"] = df["tms"] // DAY
    a = df[["u", "day"]].drop_duplicates()
    cohort = a.groupby("u")["day"].min().rename("cohort")
    a = a.join(cohort, on="u")
    want = (
        a.assign(off=a["day"] - a["cohort"])
        .groupby(["cohort", "off"]).size().reset_index(name="n")
        .sort_values(["cohort", "off"]).reset_index(drop=True)
    )
    for nparts in (1, 9):
        out = (
            cohort_retention(
                ray.data.from_arrow(t).repartition(nparts), "u", "tms"
            ).to_pandas().sort_values(["cohort_start", "offset_days"])
            .reset_index(drop=True)
        )
        np.testing.assert_array_equal(
            out["cohort_start"].values, want["cohort"].values * DAY)
        np.testing.assert_array_equal(
            out["offset_days"].values, want["off"].values)
        np.testing.assert_array_equal(out["n_users"].values, want["n"].values)


def test_unpivot_round_trip(ray_session):
    """pivot -> unpivot round-trips to the long counts (zero cells kept as
    explicit 0 rows until filtered); mixed int/float promotes to float."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import pivot_counts, unpivot

    t = pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "c": ["a", "b", "a"],
    })
    wide = pivot_counts(ray.data.from_arrow(t), ["k"], "c", ["a", "b"])
    long = (
        unpivot(wide, ["k"], ["n_a", "n_b"], var_col="c", val_col="n",
                var_names=["a", "b"])
        .to_pandas().sort_values(["k", "c"]).reset_index(drop=True)
    )
    assert long.values.tolist() == [
        [1, "a", 1], [1, "b", 1], [2, "a", 1], [2, "b", 0],
    ]
    # mixed int + float value columns -> float64 output
    w2 = pa.table({"k": [1], "x": pa.array([2], pa.int64()),
                   "y": pa.array([0.5], pa.float64())})
    out = unpivot(ray.data.from_arrow(w2), ["k"], ["x", "y"]).to_pandas()
    assert out["value"].tolist() == [2.0, 0.5]


def test_funnel_counts_greedy_anchor(ray_session):
    """Strict ordering: step events at or before the previous anchor don't
    count; the earliest qualifying event is the anchor; fuzz vs a pure
    Python reference; multi-block invariance."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import funnel_counts

    # hand-built: user 1 completes all; user 2 stalls (click before signup,
    # purchase ts == click anchor doesn't count); user 3 only signs up
    t = pa.table({
        "u": pa.array([1, 1, 1, 2, 2, 2, 2, 3], pa.int64()),
        "et": ["signup", "click", "purchase",
               "click", "signup", "click", "purchase", "signup"],
        "ts": pa.array([10, 20, 30, 5, 10, 20, 20, 99], pa.int64()),
    })
    out = (
        funnel_counts(ray.data.from_arrow(t).repartition(3),
                      "u", "et", "ts", ["signup", "click", "purchase"])
        .to_pandas().sort_values("step")
    )
    assert out["n_users"].tolist() == [3, 2, 1]

    rng = np.random.default_rng(113)
    n = 4000
    steps = ["signup", "click", "purchase"]
    f = pa.table({
        "u": pa.array(rng.integers(0, 120, n).astype(np.int64)),
        "et": pa.array([["signup", "click", "purchase", "view"][i]
                        for i in rng.integers(0, 4, n)]),
        "ts": pa.array(rng.integers(0, 500, n).astype(np.int64)),
    })
    df = f.to_pandas()
    want = [0, 0, 0]
    for _, g in df.groupby("u"):
        anchor = -np.inf
        for i, s in enumerate(steps):
            q = g[(g["et"] == s) & (g["ts"] > anchor)]
            if q.empty:
                break
            anchor = q["ts"].min()
            want[i] += 1
    out = (
        funnel_counts(ray.data.from_arrow(f).repartition(9),
                      "u", "et", "ts", steps)
        .to_pandas().sort_values("step")
    )
    assert out["n_users"].tolist() == want


def test_grouped_corr_vs_numpy(ray_session):
    """Exact sufficient-stat corr equals np.corrcoef per key; zero-variance
    keys dropped; multi-block invariance."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import grouped_corr

    rng = np.random.default_rng(31)
    n = 3000
    k = rng.integers(0, 20, n).astype(np.int64)
    x = rng.integers(-50, 50, n).astype(np.int64)
    y = (x * rng.integers(1, 4, n) + rng.integers(-30, 30, n)).astype(np.int64)
    # one constant-y key (must be dropped) and one single-row key
    k[:10], y[:10] = 77, 5
    k[10] = 88
    t = pa.table({"k": pa.array(k), "x": pa.array(x), "y": pa.array(y)})
    out = (
        grouped_corr(ray.data.from_arrow(t).repartition(7), ["k"], "x", "y")
        .to_pandas().set_index("k")["corr"]
    )
    df = t.to_pandas()
    for key, g in df.groupby("k"):
        if g["x"].nunique() < 2 or g["y"].nunique() < 2:
            assert key not in out.index
            continue
        want = np.corrcoef(g["x"], g["y"])[0, 1]
        assert abs(out[key] - want) < 1e-9, key


def test_group_concat_ordered(ray_session):
    """string_agg semantics: per-key ordered join with separator, ties
    broken by the value; multi-block invariance."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import group_concat

    rng = np.random.default_rng(47)
    n = 2000
    t = pa.table({
        "k": pa.array(rng.integers(0, 60, n).astype(np.int64)),
        "o": pa.array(rng.integers(0, 40, n).astype(np.int64)),
        "v": pa.array([f"w{i}" for i in rng.integers(0, 9, n)]),
    })
    out = (
        group_concat(ray.data.from_arrow(t).repartition(8), ["k"], "v",
                     ["o"], sep="|", out_col="s")
        .to_pandas().set_index("k")["s"]
    )
    df = t.to_pandas()
    for key, g in df.groupby("k"):
        want = "|".join(g.sort_values(["o", "v"])["v"])
        assert out[key] == want, key


def test_cooccurrence_pairs_vs_pandas(ray_session):
    """Unordered item-pair key counts; duplicates within a key collapse;
    multi-block invariance."""
    import itertools

    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import cooccurrence_pairs

    rng = np.random.default_rng(83)
    n = 3000
    t = pa.table({
        "u": pa.array(rng.integers(0, 150, n).astype(np.int64)),
        "it": pa.array([f"i{x}" for x in rng.integers(0, 7, n)]),
    })
    out = (
        cooccurrence_pairs(ray.data.from_arrow(t).repartition(9), "u", "it")
        .to_pandas().set_index(["ta", "tb"])["n_keys"]
    )
    want: dict[tuple[str, str], int] = {}
    df = t.to_pandas()
    for _, g in df.groupby("u"):
        for a, b in itertools.combinations(sorted(set(g["it"])), 2):
            want[(a, b)] = want.get((a, b), 0) + 1
    assert out.to_dict() == want


def test_robust_stats_vs_pandas(ray_session):
    """median + MAD per key with quantile_cont-0.5 semantics (mean of two
    middle order stats); multi-block invariance."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import robust_stats

    rng = np.random.default_rng(97)
    n = 3000
    t = pa.table({
        "k": pa.array(rng.integers(0, 50, n).astype(np.int64)),
        "v": pa.array(rng.integers(-1000, 1000, n).astype(np.int64)),
    })
    out = (
        robust_stats(ray.data.from_arrow(t).repartition(9), ["k"], "v")
        .to_pandas().set_index("k")
    )
    df = t.to_pandas()
    for key, g in df.groupby("k"):
        med = np.median(g["v"])
        mad = np.median(np.abs(g["v"] - med))
        assert out.loc[key, "med"] == med, key
        assert out.loc[key, "mad"] == mad, key


def test_transition_counts_vs_pandas(ray_session):
    """lead()-style consecutive pairs per key under a total order;
    multi-block invariance."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import transition_counts

    rng = np.random.default_rng(107)
    n = 3000
    t = pa.table({
        "u": pa.array(rng.integers(0, 100, n).astype(np.int64)),
        "o": pa.array(rng.integers(0, 50, n).astype(np.int64)),
        "st": pa.array([f"s{x}" for x in rng.integers(0, 5, n)]),
        "rid": pa.array(np.arange(n, dtype=np.int64)),
    })
    out = (
        transition_counts(ray.data.from_arrow(t).repartition(9),
                          "u", ["o", "st", "rid"], "st")
        .to_pandas().set_index(["from_state", "to_state"])["n"]
    )
    df = t.to_pandas().sort_values(["u", "o", "st", "rid"])
    want: dict[tuple[str, str], int] = {}
    for _, g in df.groupby("u"):
        sts = g["st"].tolist()
        for a, b in zip(sts, sts[1:]):
            want[(a, b)] = want.get((a, b), 0) + 1
    assert out.to_dict() == want


def test_impute_median_vs_pandas(ray_session):
    """Nulls filled with the key's non-null median (quantile_cont 0.5);
    all-null keys stay null; multi-block invariance."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import impute_median

    rng = np.random.default_rng(109)
    n = 2000
    v = rng.integers(0, 100, n).astype(np.float64)
    v[rng.random(n) < 0.3] = np.nan
    k = rng.integers(0, 30, n).astype(np.int64)
    k[:20], v[:20] = 99, np.nan  # an all-null key
    t = pa.table({"k": pa.array(k), "v": pa.array(v, pa.float64())})
    out = (
        impute_median(ray.data.from_arrow(t).repartition(7), ["k"], "v",
                      out_col="f")
        .to_pandas()
    )
    df = t.to_pandas()
    med = df.groupby("k")["v"].median()
    for key, g in out.groupby("k"):
        nulls = g[g["v"].isna()]
        if key == 99:
            assert nulls["f"].isna().all()
            continue
        assert np.allclose(nulls["f"], med[key])
        nn = g[~g["v"].isna()]
        assert np.array_equal(nn["f"].values, nn["v"].values)
    # multiset of (k, v) preserved
    a = df.sort_values(["k", "v"]).reset_index(drop=True)
    b = out[["k", "v"]].sort_values(["k", "v"]).reset_index(drop=True)
    assert a.equals(b)


def test_exact_global_quantiles_selection(ray_session):
    """Distributed selection equals numpy order statistics (quantile_disc
    semantics) incl. negative values, duplicates, wide int ranges;
    multi-block invariance."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.sketch import exact_global_quantiles

    rng = np.random.default_rng(137)
    v = np.concatenate([
        rng.integers(-10**12, 10**12, 5000),
        np.full(500, 42),                      # heavy duplicate
        rng.integers(-5, 5, 500),
    ]).astype(np.int64)
    t = pa.table({"v": pa.array(v)})
    qs = (0.01, 0.5, 0.9, 0.999)
    got = exact_global_quantiles(
        ray.data.from_arrow(t).repartition(9), "v", qs, n_buckets=64
    )
    sv = np.sort(v)
    for q in qs:
        want = int(sv[max(int(np.ceil(q * len(v))) - 1, 0)])
        assert got[q] == want, q


def test_pagerank_int_partition_invariant(ray_session, monkeypatch):
    """Integer mass routing is exact/associative: bit-identical ranks
    across block layouts; hub outranks leaves; teleport floor for
    isolated nodes."""
    import ray.data

    from prom_tsdb_copyer_ray.stages import graph
    from prom_tsdb_copyer_ray.stages.graph import pagerank_int

    # star: 0 is the hub of 1..6; 7-8 a pair; 9 isolated
    edges = pa.table({
        "a": pa.array([0, 0, 0, 0, 0, 0, 7], pa.int64()),
        "b": pa.array([1, 2, 3, 4, 5, 6, 8], pa.int64()),
    })
    nodes = pa.table({"node": pa.array(list(range(10)), pa.int64())})
    r1 = (
        pagerank_int(ray.data.from_arrow(edges).repartition(4),
                     ray.data.from_arrow(nodes).repartition(3), iters=4)
        .to_pandas().set_index("node")["rank"]
    )
    r2 = (
        pagerank_int(ray.data.from_arrow(edges),
                     ray.data.from_arrow(nodes), iters=4)
        .to_pandas().set_index("node")["rank"]
    )
    # the distributed loop must be bit-identical to the single-task path
    monkeypatch.setattr(graph, "SMALL_GRAPH_ROWS", 0)
    r3 = (
        pagerank_int(ray.data.from_arrow(edges).repartition(4),
                     ray.data.from_arrow(nodes), iters=4)
        .to_pandas().set_index("node")["rank"]
    )
    assert r1.to_dict() == r2.to_dict()
    assert r1.to_dict() == r3.to_dict()
    assert r1[0] > r1[1]            # hub beats leaf
    assert r1[9] == int(0.15 * 10**9)  # isolated = teleport only
    assert r1[7] == r1[8]           # symmetric pair equal


def test_ratio_to_total_vs_pandas(ray_session):
    """Shares sum to 1 per group and match pandas transform; zero-total
    groups dropped; multi-block invariance."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import ratio_to_total

    rng = np.random.default_rng(139)
    n = 2000
    t = pa.table({
        "k": pa.array(rng.integers(0, 30, n).astype(np.int64)),
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array(rng.integers(0, 50, n).astype(np.int64)),
    })
    out = (
        ratio_to_total(ray.data.from_arrow(t).repartition(7), ["k"], "v",
                       carry_cols=["id"])
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    df = t.to_pandas()
    tot = df.groupby("k")["v"].transform("sum")
    keep = tot != 0
    want = (df["v"][keep] / tot[keep]).reset_index(drop=True)
    got = out["share"].reset_index(drop=True)
    assert len(got) == keep.sum()
    assert np.allclose(got, want.values)
    sums = out.groupby("k")["share"].sum()
    assert np.allclose(sums, 1.0)


def test_mad_outliers_vs_numpy(ray_session):
    """Outlier counts match a direct numpy median/MAD rule, incl. ties,
    constant groups (MAD=0 -> every non-median value is an outlier) and
    multi-block inputs."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import mad_outliers

    rng = np.random.default_rng(97)
    n = 3000
    keys = rng.integers(0, 7, n)
    vals = np.where(keys == 6, 5, rng.integers(-50, 50, n)).astype(np.int64)
    vals[::97] *= 100  # inject outliers
    t = pa.table({"k": pa.array(keys.astype(str)), "v": pa.array(vals)})
    out = (
        mad_outliers(ray.data.from_arrow(t).repartition(6), ["k"], "v", k=3)
        .to_pandas().set_index("k").sort_index()
    )
    for kk in np.unique(keys):
        v = np.sort(vals[keys == kk]).astype(np.float64)
        med = (v[(len(v) - 1) // 2] + v[len(v) // 2]) / 2
        dev = np.sort(np.abs(v - med))
        mad = (dev[(len(v) - 1) // 2] + dev[len(v) // 2]) / 2
        want = int((np.abs(v - med) > 3 * mad).sum())
        assert out.loc[str(kk), "n_outliers"] == want, kk
        assert out.loc[str(kk), "n_total"] == len(v)


def test_group_first_last_vs_pandas(ray_session):
    """first/last value per key over a total order matches pandas, incl.
    duplicate order prefixes broken by the unique id and multi-block."""
    import pandas as pd
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import group_first_last

    rng = np.random.default_rng(101)
    n = 2500
    df = pd.DataFrame({
        "k": rng.integers(0, 40, n).astype(str),
        "ts": rng.integers(0, 50, n).astype(np.int64),  # many ties
        "id": np.arange(n, dtype=np.int64),
        "v": rng.normal(size=n),
    })
    out = (
        group_first_last(
            ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(7),
            ["k"], ["ts", "id"], "v",
        )
        .to_pandas().set_index("k").sort_index()
    )
    s = df.sort_values(["k", "ts", "id"])
    want_first = s.groupby("k")["v"].first()
    want_last = s.groupby("k")["v"].last()
    assert np.allclose(out["first_v"], want_first.loc[out.index], atol=0)
    assert np.allclose(out["last_v"], want_last.loc[out.index], atol=0)


def test_dense_rank_vs_pandas(ray_session):
    """dense_rank matches pandas rank(method='dense'), ties share a rank,
    no gaps; carry col preserved; multi-block invariance."""
    import pandas as pd
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import dense_rank

    rng = np.random.default_rng(103)
    n = 2000
    df = pd.DataFrame({
        "k": rng.integers(0, 5, n).astype(str),
        "o": rng.integers(0, 20, n).astype(np.int64),
        "id": np.arange(n, dtype=np.int64),
    })
    out = (
        dense_rank(
            ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(4),
            ["k"], ["o"], carry_cols=["id"],
        )
        .to_pandas().set_index("id").sort_index()
    )
    want = df.set_index("id")
    want["dr"] = df.groupby("k")["o"].rank(method="dense").astype(np.int64).to_numpy()
    assert (out["dr"] == want["dr"]).all()
    for kk in df["k"].unique():  # no gaps
        drs = np.sort(out.loc[want["k"] == kk, "dr"].unique())
        assert (drs == np.arange(1, len(drs) + 1)).all()


def test_winsorized_mean_vs_numpy(ray_session):
    """Winsorized mean matches a direct numpy clamp at the quantile_disc
    thresholds; multi-block; singleton groups clamp to themselves."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import winsorized_mean

    rng = np.random.default_rng(107)
    n = 3000
    keys = np.r_[rng.integers(0, 6, n - 1), [99]]  # 99 = singleton group
    vals = rng.integers(-1000, 1000, n).astype(np.int64)
    t = pa.table({"k": pa.array(keys.astype(str)), "v": pa.array(vals)})
    out = (
        winsorized_mean(ray.data.from_arrow(t).repartition(5), ["k"], "v",
                        q_lo=0.1, q_hi=0.9)
        .to_pandas().set_index("k").sort_index()
    )
    for kk in np.unique(keys):
        v = np.sort(vals[keys == kk])
        qlo = v[max(int(np.ceil(0.1 * len(v))) - 1, 0)]
        qhi = v[max(int(np.ceil(0.9 * len(v))) - 1, 0)]
        want = (np.clip(v, qlo, qhi).sum() / 100.0) / len(v)
        assert out.loc[str(kk), "w_mean"] == want, kk
        assert out.loc[str(kk), "n"] == len(v)


def test_lead_intervals_vs_pandas(ray_session):
    """SCD-2 validity intervals: valid_to = next change's order value,
    NULL on each key's current row; ties totally ordered by id."""
    import pandas as pd
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import lead_intervals

    rng = np.random.default_rng(109)
    n = 1500
    df = pd.DataFrame({
        "k": rng.integers(0, 30, n).astype(np.int64),
        "ts": rng.integers(0, 80, n).astype(np.int64),  # heavy ties
        "id": np.arange(n, dtype=np.int64),
        "v": rng.normal(size=n),
    })
    out = (
        lead_intervals(
            ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(6),
            ["k"], "ts", "id", "v",
        )
        .to_pandas()
    )
    assert len(out) == n
    s = df.sort_values(["k", "ts", "id"]).reset_index(drop=True)
    s["want_to"] = s.groupby("k")["ts"].shift(-1)
    got = out.sort_values(["k", "valid_from", "v"]).reset_index(drop=True)
    want = s.sort_values(["k", "ts", "v"]).reset_index(drop=True)
    assert (got["k"].to_numpy() == want["k"].to_numpy()).all()
    assert (got["valid_from"].to_numpy() == want["ts"].to_numpy()).all()
    a, b = got["valid_to"].to_numpy(float), want["want_to"].to_numpy(float)
    assert ((a == b) | (np.isnan(a) & np.isnan(b))).all()
    # exactly one open-ended row per key
    assert out[out["valid_to"].isna()].groupby("k").size().eq(1).all()


def test_ohlc_agg_vs_pandas(ray_session):
    """Open/high/low/close per key matches pandas ohlc + first/last over
    the total order; multi-block; tied order broken by the unique id."""
    import pandas as pd
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import ohlc_agg

    rng = np.random.default_rng(113)
    n = 2000
    df = pd.DataFrame({
        "k": rng.integers(0, 25, n).astype(str),
        "ts": rng.integers(0, 40, n).astype(np.int64),
        "id": np.arange(n, dtype=np.int64),
        "v": rng.normal(size=n),
    })
    out = (
        ohlc_agg(
            ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(7),
            ["k"], ["ts", "id"], "v",
        )
        .to_pandas().set_index("k").sort_index()
    )
    s = df.sort_values(["k", "ts", "id"])
    g = s.groupby("k")["v"]
    assert np.array_equal(out["open"], g.first().loc[out.index])
    assert np.array_equal(out["close"], g.last().loc[out.index])
    assert np.array_equal(out["high"], g.max().loc[out.index])
    assert np.array_equal(out["low"], g.min().loc[out.index])


def test_triangle_count_vs_bruteforce(ray_session):
    """Exact triangle counts on random graphs vs an itertools reference;
    duplicate / reversed / self-loop edges tolerated; multi-block."""
    from itertools import combinations

    import ray.data

    from prom_tsdb_copyer_ray.stages.graph import triangle_count

    rng = np.random.default_rng(127)
    for trial, (n, m) in enumerate([(12, 30), (30, 120), (50, 80)]):
        a = rng.integers(0, n, m)
        b = rng.integers(0, n, m)
        # inject noise: self loops + exact dup + reversed dup
        a = np.r_[a, [3, 1, 2]]
        b = np.r_[b, [3, 2, 1]]
        edges = pa.table({"a": pa.array(a, pa.int64()),
                          "b": pa.array(b, pa.int64())})
        got = triangle_count(ray.data.from_arrow(edges).repartition(4))
        es = {(min(x, y), max(x, y)) for x, y in zip(a.tolist(), b.tolist())
              if x != y}
        nodes = sorted({v for e in es for v in e})
        want = sum(
            1 for x, y, z in combinations(nodes, 3)
            if (x, y) in es and (y, z) in es and (x, z) in es
        )
        assert got == want, (trial, got, want)


def test_bm25_scores_vs_reference(ray_session):
    """BM25 matches a direct single-process reference (same tokenizer,
    same quantized idf, same term order); zero-hit docs dropped."""
    import math

    import ray.data

    from prom_tsdb_copyer_ray.stages.textstats import bm25_scores

    docs = [
        "alpha beta gamma alpha",
        "beta beta delta",
        "gamma gamma gamma beta alpha",
        "nothing relevant here",
        "",
        "ALPHA Alpha alpha",
    ]
    terms = ["alpha", "beta"]
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    out = (
        bm25_scores(ray.data.from_arrow(t).repartition(3), terms)
        .to_pandas().set_index("doc_id")["score"].sort_index()
    )
    import re
    toks = [re.findall(r"[A-Za-z]+", d) for d in docs]
    toks = [[w.lower() for w in ws] for ws in toks]
    n = float(len(docs))
    avgdl = sum(len(ws) for ws in toks) / n
    k1, b = 1.2, 0.75
    dfs = [sum(1 for ws in toks if term in ws) for term in terms]
    idfs = [math.floor(math.log((n - df + 0.5) / (df + 0.5) + 1) * 1e6) / 1e6
            for df in dfs]
    want = {}
    for i, ws in enumerate(toks):
        s = 0.0
        hit = False
        for term, idf in zip(terms, idfs):
            tf = float(ws.count(term))
            hit = hit or tf > 0
            s = s + idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * (len(ws) / avgdl)))
        if hit:
            want[i] = round(s, 6)
    assert out.to_dict() == want
    assert 3 not in out.index and 4 not in out.index  # zero-hit dropped


def test_group_star_edges_multi_matches_singles(ray_session):
    """The fused multi-relation builder equals the union of per-relation
    builds, on both its broadcast and co-partition paths."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.graph import (
        group_star_edges,
        group_star_edges_multi,
    )

    rng = np.random.default_rng(131)
    n = 300
    docs = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "k1": pa.array([f"g{v}" for v in rng.integers(0, 40, n)]),
        "k2": pa.array(rng.integers(0, 25, n).astype(np.int64)),
        "k3": pa.array([f"s{v}" for v in rng.integers(0, 10, n)]),
    })
    ds = ray.data.from_arrow(docs).repartition(4)

    def edge_set(out_ds):
        df = out_ds.to_pandas()
        return set(zip(df["a"].astype(int), df["b"].astype(int)))

    want = edge_set(group_star_edges(ds, ["k1", "k2"])) | edge_set(
        group_star_edges(ds, ["k3", "k2"])
    )
    got_b = edge_set(group_star_edges_multi(ds, [["k1", "k2"], ["k3", "k2"]]))
    got_s = edge_set(
        group_star_edges_multi(ds, [["k1", "k2"], ["k3", "k2"]],
                               broadcast_keys=0)
    )
    assert got_b == want and got_s == want and len(want) > 0


def test_max_drawdown_vs_pandas(ray_session):
    """Segment-reset running max matches a per-key pandas cummax; monotone
    series -> 0; multi-block invariance."""
    import pandas as pd
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import max_drawdown

    rng = np.random.default_rng(149)
    n = 2000
    df = pd.DataFrame({
        "k": rng.integers(0, 30, n).astype(str),
        "o": np.arange(n, dtype=np.int64),
        "v": rng.integers(-500, 500, n).astype(np.int64),
    })
    # one strictly increasing key -> drawdown 0
    df.loc[df["k"] == "0", "v"] = np.arange((df["k"] == "0").sum())
    out = (
        max_drawdown(
            ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(6),
            ["k"], ["o"], "v",
        )
        .to_pandas().set_index("k").sort_index()
    )
    s = df.sort_values(["k", "o"])
    want = (s.groupby("k")["v"].cummax() - s["v"]).groupby(s["k"]).max()
    assert (out["max_dd"] == want.loc[out.index]).all()
    assert out.loc["0", "max_dd"] == 0


def test_cume_dist_vs_pandas(ray_session):
    """cume_dist ties share the value; last row of each key gets 1.0."""
    import pandas as pd
    import ray.data

    from prom_tsdb_copyer_ray.stages.keyed import cume_dist

    rng = np.random.default_rng(151)
    n = 1500
    df = pd.DataFrame({
        "k": rng.integers(0, 6, n).astype(str),
        "o": rng.integers(0, 12, n).astype(np.int64),  # heavy ties
        "id": np.arange(n, dtype=np.int64),
    })
    out = (
        cume_dist(
            ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(5),
            ["k"], ["o"], carry_cols=["id"],
        )
        .to_pandas().set_index("id").sort_index()
    )
    # pandas reference: fraction of rows in the key with o <= current
    want = df.set_index("id").groupby("k")["o"].transform(
        lambda s: s.map(lambda x: (s <= x).mean()))
    assert np.array_equal(out["cd"].to_numpy(), want.loc[out.index].to_numpy())
    assert (out.groupby(df.set_index("id").loc[out.index, "k"])["cd"].max() == 1.0).all()
