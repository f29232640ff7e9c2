"""stages.common.shard_apply — the one hash-shard exchange every keyed
operator runs on: per-key results must not depend on the shard count, the
coalesce hop or a ``by`` group column."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from prom_tsdb_copyer_ray.stages.common import parquet_footprint, shard_apply, size_input


def _events(n: int = 3000, n_keys: int = 97, seed: int = 3) -> pa.Table:
    rng = np.random.default_rng(seed)
    k = rng.integers(0, n_keys, n)
    return pa.table({
        "k": pa.array(k, pa.int64()),
        "s": pa.array([f"key{x % 13}" for x in k], pa.string()),
        "v": pa.array(rng.integers(-50, 50, n), pa.int64()),
    })


@pytest.mark.parametrize("n_shards", [1, 7, 64])
@pytest.mark.parametrize("coalesce", [True, False])
@pytest.mark.parametrize("by", [(), ("_b",)])
def test_matches_pandas_oracle(ray_session, monkeypatch, n_shards, coalesce, by):
    import ray.data

    from prom_tsdb_copyer_ray.stages import common

    monkeypatch.setattr(common, "NUM_SHARDS", n_shards)
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

    def rows(n_shards):
        monkeypatch.setattr(common, "NUM_SHARDS", n_shards)
        df = rollup_raw(samples, "5m").to_pandas()
        return df.sort_values(["series_key", "window_start"]).reset_index(drop=True)

    one, many = rows(1), rows(64)
    assert len(one) > 0
    pd.testing.assert_frame_equal(one, many)


def test_shard_count_reaches_the_workers(ray_session, monkeypatch):
    """``NUM_SHARDS`` is read on the driver and rides into the tasks: with
    one shard, an exchange over a 9-block input with no ``by`` makes exactly
    one kernel call.  A count read from the module inside a worker would
    still be 64 there (a worker never sees the driver's monkeypatch) and
    make many calls."""
    import ray.data

    from prom_tsdb_copyer_ray.stages import common

    monkeypatch.setattr(common, "SMALL_ROWS", 0)
    monkeypatch.setattr(common, "NUM_SHARDS", 1)
    t = _events()

    def one_row_per_call(g: pa.Table) -> pa.Table:
        return pa.table({"rows": pa.array([g.num_rows], pa.int64())})

    for coalesce in (True, False):
        out = shard_apply(ray.data.from_arrow(t).repartition(9), ["k", "s"],
                          one_row_per_call, coalesce=coalesce).to_pandas()
        assert out["rows"].tolist() == [t.num_rows]


def test_no_operator_takes_a_shard_count():
    """Every hash exchange uses ``common.NUM_SHARDS``: no function under the
    package takes a ``num_shards`` parameter.  Curate's shard count is its
    on-disk output partitioning, stored in its manifest, not an exchange."""
    import ast
    import pathlib

    import prom_tsdb_copyer_ray

    root = pathlib.Path(prom_tsdb_copyer_ray.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "pipelines" / "curate.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                if any(p is not None and p.arg == "num_shards" for p in params):
                    found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert not found, found


def test_every_exchange_runs_through_shard_apply():
    """No module but ``stages/common.py`` writes its own hash exchange (a
    ``groupby("_<shard column>")``), no function takes a ``small_graph_rows``
    size knob and ``shard_of_ints`` is gone: ``key_hash64`` is the one shard
    function and :data:`SMALL_ROWS` the one size rule."""
    import ast
    import pathlib

    import prom_tsdb_copyer_ray

    root = pathlib.Path(prom_tsdb_copyer_ray.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        text = path.read_text()
        if rel != pathlib.Path("stages", "common.py") and 'groupby("_' in text:
            found.append(f"{rel}: groupby")
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                if any(p is not None and p.arg == "small_graph_rows" for p in params):
                    found.append(f"{rel}:{node.lineno}: small_graph_rows")
            if isinstance(node, ast.FunctionDef) and node.name == "shard_of_ints":
                found.append(f"{rel}:{node.lineno}: shard_of_ints")
    assert not found, found


# Dataset methods that pass their receiver's rows (and their arguments'
# rows) through: a batch function upstream of one of them still feeds
# the exchange.  Any other call (a read, an exchange) ends the chain.
_ROW_PASSING = {"map_batches", "union", "filter", "materialize", "repartition",
                "limit", "select_columns", "drop_columns", "rename_columns"}


def _batch_fns_feeding(expr, defs, assigns):
    """Function defs and lambdas that a Dataset expression runs per batch:
    ``map_batches`` arguments along its chain of row-passing calls,
    through variables assigned in an enclosing scope."""
    import ast

    out, todo, seen = [], [expr], set()
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name):
            if node.id not in seen:
                seen.add(node.id)
                todo.extend(assigns.get(node.id, []))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _ROW_PASSING):
            todo.append(node.func.value)
            if node.func.attr == "map_batches" and node.args:
                for n in ast.walk(node.args[0]):
                    if isinstance(n, ast.Lambda):
                        out.append(n)
                    elif isinstance(n, ast.Name) and n.id in defs:
                        out.append(defs[n.id])
            else:
                todo.extend(node.args)
    return out


def test_no_batch_function_feeding_sharded_grouped_agg_groups():
    """``sharded_grouped_agg`` combines each batch itself (an Arrow
    ``group_by`` before its exchange), so a batch function feeding it only
    projects: one that calls ``.group_by(`` is a second, hand-written
    combiner of the same partial."""
    import ast
    import pathlib

    import prom_tsdb_copyer_ray

    def own(scope):
        """Nodes of ``scope``'s own body, nested function bodies excluded."""
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            n = todo.pop()
            yield n
            if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                todo.extend(ast.iter_child_nodes(n))

    root = pathlib.Path(prom_tsdb_copyer_ray.__file__).parent
    found, n_calls = [], 0
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for call in ast.walk(tree):
            f = getattr(call, "func", None)
            if not (isinstance(call, ast.Call) and call.args
                    and getattr(f, "id", getattr(f, "attr", None)) == "sharded_grouped_agg"):
                continue
            n_calls += 1
            scopes, p = [], parent.get(call)
            while p is not None:
                if isinstance(p, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                    scopes.append(p)
                p = parent.get(p)
            defs, assigns = {}, {}
            for scope in reversed(scopes):  # inner scopes shadow outer ones
                for n in own(scope):
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs[n.name] = n
                    elif isinstance(n, ast.Assign):
                        for tgt in n.targets:
                            if isinstance(tgt, ast.Name):
                                assigns.setdefault(tgt.id, []).append(n.value)
            for fn in _batch_fns_feeding(call.args[0], defs, assigns):
                if any(isinstance(n, ast.Attribute) and n.attr == "group_by"
                       for n in ast.walk(fn)):
                    found.append(f"{path.relative_to(root)}:{call.lineno} <- "
                                 f"{getattr(fn, 'name', 'lambda')}:{fn.lineno}")
    assert n_calls > 100  # the scan sees the battery's calls
    assert not found, found


@pytest.mark.parametrize("by", [(), ("_b",)])
def test_small_materialized_input_runs_one_task(ray_session, by):
    """A materialized input under ``SMALL_ROWS`` skips the exchange: one
    kernel call per ``by`` value (the ``NUM_SHARDS = 1`` semantics), the same
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


def test_list_input_hashes_each_side_before_the_union(ray_session, monkeypatch):
    """A list of inputs (a co-partition's sides) gives the rows of their
    union on both paths, and on the exchange each side is hashed in its own
    map, fused into the side's last map: a map after a ``union`` would be
    its own operator, one more task per input block."""
    import re

    import ray.data

    from prom_tsdb_copyer_ray.stages import common

    t = _events()
    half = t.num_rows // 2

    def sum_kernel(t: pa.Table) -> pa.Table:
        return t.group_by(["k", "s"]).aggregate([("v", "sum"), ("v", "count")])

    def side(batch: pa.Table) -> pa.Table:
        return batch

    def sides(materialize: bool) -> list:
        out = [ray.data.from_arrow(part).repartition(3)
               .map_batches(side, batch_format="pyarrow")
               for part in (t.slice(0, half), t.slice(half))]
        return [d.materialize() for d in out] if materialize else out

    want = (t.to_pandas().groupby(["k", "s"], as_index=False)["v"]
            .agg(v_sum="sum", v_count="count")).sort_values(["k", "s"]).reset_index(drop=True)
    for small in (True, False):  # all-materialized inputs are sized, lazy ones are not
        out = shard_apply(sides(small), ["k", "s"], sum_kernel).materialize()
        got = out.to_pandas().sort_values(["k", "s"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[list(want.columns)], want, check_dtype=False)
    monkeypatch.setattr(common, "SMALL_ROWS", 0)
    out = shard_apply(sides(False), ["k", "s"], sum_kernel).materialize()
    stats = out.stats()
    assert "MapBatches(side)->MapBatches(add_shard)" in stats
    assert not re.search(r"^Operator \d+ MapBatches\(add_shard\):", stats, re.M), stats


def test_small_path_empty_input(ray_session):
    """An empty materialized input never reaches the kernel and yields no rows."""
    import ray.data

    def kernel(t: pa.Table) -> pa.Table:
        raise AssertionError("kernel called on an empty input")

    ds = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())})).materialize()
    assert shard_apply(ds, ["k"], kernel, by=()).count() == 0


def _write_parts(tmp_path, t: pa.Table, n_files: int) -> list[str]:
    import pyarrow.parquet as pq

    step = -(-t.num_rows // n_files)
    paths = []
    for i in range(n_files):
        paths.append(str(tmp_path / f"part-{i:03d}.parquet"))
        pq.write_table(t.slice(i * step, step), paths[-1])
    return paths


def test_size_input_small_executes_once(ray_session, tmp_path):
    """A lazy input of unknown size executes once, fully: it comes back
    materialized with all its rows and its exact count, and the single task
    then runs on the materialized blocks without executing it again; a
    materialized input comes back as itself with its count."""
    import ray.data
    from ray.data.dataset import MaterializedDataset

    t = _events()
    log = str(tmp_path / "calls")

    def counting(b: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("call\n")
        return b

    lazy = ray.data.from_arrow(t).map_batches(counting, batch_format="pyarrow")
    small, rows = size_input(lazy)
    assert isinstance(small, MaterializedDataset) and rows == t.num_rows
    order = [(c, "ascending") for c in t.column_names]
    got = pa.Table.from_pandas(small.to_pandas(), preserve_index=False)
    assert got.sort_by(order).equals(t.sort_by(order))
    assert size_input(small) == (small, t.num_rows)
    assert shard_apply(small, ["k"], lambda g: g, rows=rows).count() == t.num_rows
    with open(log) as f:
        assert f.read().count("call") == 1


def test_size_input_executes_nothing_early(ray_session, tmp_path, monkeypatch):
    """No sizing executes anything before the job runs: a caller's bound is
    kept, a bare Parquet read is sized from its footers (read only until
    they reach ``SMALL_ROWS``) and comes back as the same lazy Dataset, and
    with the single-task path off (``SMALL_ROWS = 0``) a lazy input of
    unknown size comes back unexecuted."""
    import pyarrow.parquet as pq
    import ray.data

    from prom_tsdb_copyer_ray.stages import common

    t = _events()
    paths = _write_parts(tmp_path, t, 6)
    read = ray.data.read_parquet(paths)
    mapped = read.map_batches(lambda b: b, batch_format="pyarrow")
    footers = []
    real = pq.read_metadata
    monkeypatch.setattr(pq, "read_metadata", lambda f: footers.append(f) or real(f))
    monkeypatch.setattr(ray.data.Dataset, "materialize",
                        lambda self: pytest.fail("the input was executed"))
    monkeypatch.setattr(ray.data.Dataset, "limit",
                        lambda self, n: pytest.fail("the input was probed"))

    assert size_input(mapped, 123) == (mapped, 123)
    assert size_input(read) == (read, t.num_rows)
    assert len(footers) == 6
    per_file = -(-t.num_rows // 6)
    footers.clear()
    monkeypatch.setattr(common, "SMALL_ROWS", per_file + 1)
    ds, rows = size_input(read)
    assert ds is read and rows == 2 * per_file and len(footers) == 2
    monkeypatch.setattr(common, "SMALL_ROWS", 0)
    assert size_input(mapped) == (mapped, None)
    # a mapped read has no input files: its size is unknown
    assert parquet_footprint(mapped, 10**9) is None
    rows, nbytes = parquet_footprint(read, 10**9)
    assert rows == t.num_rows and nbytes > 0


@pytest.mark.parametrize("by", [(), ("_b",)])
def test_small_lazy_input_one_call_per_by_value(ray_session, tmp_path, by):
    """The single-task contract: a lazy input of many blocks whose bound is
    under ``SMALL_ROWS`` reaches the kernel exactly once per ``by`` value,
    in one task, with no exchange and without executing it beforehand."""
    import ray.data

    t = _events()
    log = str(tmp_path / "calls")

    def kernel(g: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write(f"{g.num_rows}\n")
        return g.group_by(["k", "s"]).aggregate([("v", "sum")])

    def with_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column("_b", pa.array(batch["k"].to_numpy() // 10, pa.int64()))

    for src in (ray.data.from_arrow(t).repartition(48).map_batches(
                    lambda b: b, batch_format="pyarrow", batch_size=None),
                ray.data.read_parquet(_write_parts(tmp_path, t, 40), override_num_blocks=40)):
        assert src.materialize().num_blocks() >= 40
        open(log, "w").close()
        out = shard_apply(src, ["k", "s"], kernel, prepare=with_bucket if by else None,
                          by=by, rows=t.num_rows).to_pandas()
        with open(log) as f:
            calls = sorted(int(x) for x in f.read().split())
        df = t.to_pandas()
        want_calls = sorted((df["k"] // 10).value_counts()) if by else [t.num_rows]
        assert calls == want_calls
        want = df.groupby(["k", "s"], as_index=False)["v"].sum().rename(columns={"v": "v_sum"})
        got = out.sort_values(["k", "s"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[list(want.columns)], want, check_dtype=False)
