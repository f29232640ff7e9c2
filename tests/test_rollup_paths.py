"""Execution-path independence of the tier chain: ``run_copy`` must write the
same 5m/1h/1d tiers whether ``shard_apply`` runs a small input as one task
or through the hash-shard exchange (forced with ``SMALL_ROWS = 0``)."""

from __future__ import annotations

import json
import os
import sys

import pandas as pd
import pyarrow.parquet as pq
import pytest

from prom_tsdb_copyer_ray.functions.matchers import Matcher
from prom_tsdb_copyer_ray.sources.pages import generate_pages
from prom_tsdb_copyer_ray.stages import common

TIERS = ("5m", "1h", "1d")
PAGES = generate_pages(1500, seed=11, span_ms=3 * 86_400_000)


def _tier_df(out: str, tier: str) -> pd.DataFrame:
    df = pq.read_table(os.path.join(out, "tiers", tier)).to_pandas()
    keep = [c for c in df.columns if c not in ("window_day", "window_group")]
    return df[keep].sort_values(["series_key", "window_start"]).reset_index(drop=True)


def _leaf_file_counts(out: str, tier: str) -> list[int]:
    return [len([f for f in files if f.endswith(".parquet")])
            for _, dirs, files in os.walk(os.path.join(out, "tiers", tier)) if not dirs]


def _run(tmp_path, monkeypatch, small: bool, **kw) -> tuple[str, dict]:
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import run_copy

    monkeypatch.setattr(common, "SMALL_ROWS", 50_000 if small else 0)
    out = str(tmp_path / ("small" if small else "shuffle"))
    manifests = run_copy(lambda: ray.data.from_arrow(PAGES).repartition(6), out, **kw)
    for tier in TIERS:
        assert manifests[tier]["status"] == "complete"
        with open(os.path.join(out, "manifests", f"{tier}.json")) as f:
            assert json.load(f)["status"] == "complete"
    return out, manifests


@pytest.mark.parametrize("group_window_ms", [None, 2 * 3_600_000],
                         ids=["day", "subday_2h"])
def test_single_task_equals_shuffle(ray_session, tmp_path, monkeypatch, group_window_ms):
    small, m_small = _run(tmp_path, monkeypatch, True, group_window_ms=group_window_ms)
    big, m_big = _run(tmp_path, monkeypatch, False, group_window_ms=group_window_ms)
    for tier in TIERS:
        a, b = _tier_df(small, tier), _tier_df(big, tier)
        assert len(a) > 0
        pd.testing.assert_frame_equal(a, b)
        assert sorted(m_small[tier]["days"]) == sorted(m_big[tier]["days"])
        # the single-task path writes one block per tier: one file per leaf
        assert set(_leaf_file_counts(small, tier)) == {1}
    # the forced exchange really ran: its sort partitions split the leaves
    assert max(_leaf_file_counts(big, "1d")) > 1


def _parquet_pages(tmp_path, n_files: int = 5) -> list[str]:
    step = -(-PAGES.num_rows // n_files)
    files = []
    for i in range(n_files):
        files.append(str(tmp_path / f"pages-{i}.parquet"))
        pq.write_table(PAGES.slice(i * step, step), files[-1])
    return files


def test_run_copy_sizes_parquet_from_footers(ray_session, tmp_path, monkeypatch):
    """``run_copy`` over a Parquet read sizes its rollup from the footers:
    no ``Dataset.limit`` probe and no early ``materialize`` on either side of
    ``SMALL_ROWS``.  A bound at or above ``SMALL_ROWS`` (patched low) streams
    the extraction into the exchange and writes the same tiers as the
    single task; so does the memory guard, which materializes the samples
    (once) when the pages would not fit one Ray block."""
    import ray.data
    from ray.data import DataContext

    from prom_tsdb_copyer_ray.pipelines.copy import run_copy

    files = _parquet_pages(tmp_path)
    calls = []

    def engine_calls(name: str) -> None:
        # Ray calls both itself (groupby looks for a cached schema through
        # limit(1), a write executes through materialize()); only the
        # engine's own calls count
        real = getattr(ray.data.Dataset, name)

        def spy(self, *a):
            if sys._getframe(1).f_globals["__name__"].startswith("prom_tsdb_copyer_ray"):
                calls.append(name)
            return real(self, *a)

        monkeypatch.setattr(ray.data.Dataset, name, spy)

    engine_calls("limit")
    engine_calls("materialize")

    def go(name: str, small_rows: int) -> str:
        monkeypatch.setattr(common, "SMALL_ROWS", small_rows)
        out = str(tmp_path / name)
        run_copy(lambda: ray.data.read_parquet(files), out, input_files=files)
        return out

    small = go("small", 50_000)
    big = go("big", 2 * PAGES.num_rows // 3)  # two of five files reach it
    assert calls == []
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", 1024)
    guarded = go("guarded", 50_000)
    assert calls == ["materialize"]
    for tier in TIERS:
        want = _tier_df(small, tier)
        assert len(want) > 0
        pd.testing.assert_frame_equal(_tier_df(big, tier), want)
        pd.testing.assert_frame_equal(_tier_df(guarded, tier), want)
        assert set(_leaf_file_counts(small, tier)) == {1}
        assert set(_leaf_file_counts(guarded, tier)) == {1}
    assert max(_leaf_file_counts(big, "1d")) > 1


def test_all_samples_filtered(ray_session, tmp_path, monkeypatch):
    """A matcher set that drops every sample: both paths finish with
    complete, empty manifests instead of crashing on zero rows."""
    nothing = [Matcher("=", "__name__", "no_such_metric")]
    for small in (True, False):
        out, manifests = _run(tmp_path, monkeypatch, small, matchers=nothing)
        for tier in TIERS:
            assert manifests[tier]["days"] == {}
            assert sum(_leaf_file_counts(out, tier)) == 0


def test_run_copy_calls_the_traced_layers(ray_session, tmp_path, monkeypatch):
    """``rollbench --trace 1`` times a job by patching ``pipelines.copy``'s
    layer functions and ``state.manifest.invalidate_days``: the tier loop
    must reach every layer through those names.  A day-mode run makes one
    cascade and one write; a tier the cascade cannot build comes from
    ``rollup_up`` over the finer tier."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from prom_tsdb_copyer_ray.pipelines import copy
    from prom_tsdb_copyer_ray.state import manifest
    from prom_tsdb_copyer_ray.windows import MS_1D, ts_to_ms

    calls = []

    def spy(mod, name, arg):
        orig = getattr(mod, name)

        def wrapped(*a, **kw):
            calls.append((name, a[arg] if arg is not None else None))
            return orig(*a, **kw)

        monkeypatch.setattr(mod, name, wrapped)

    spy(copy, "pages_to_samples", None)
    spy(copy, "rollup_raw", 1)
    spy(copy, "rollup_cascade", None)
    spy(copy, "rollup_up", 1)
    spy(copy, "write_tier", 2)
    spy(copy, "write_tiers", 2)
    spy(copy, "read_tier", 1)
    spy(manifest, "invalidate_days", 1)

    day = ts_to_ms(PAGES["warc_ts"]).to_numpy() // MS_1D
    late = np.arange(len(day)) % 7 == 0  # a late file inside committed days
    base, extra = str(tmp_path / "base.parquet"), str(tmp_path / "late.parquet")
    pq.write_table(PAGES.filter(pa.array(~late)), base)
    pq.write_table(PAGES.filter(pa.array(late)), extra)
    out = str(tmp_path / "out")

    def go(files, out=out, **kw):
        calls.clear()
        copy.run_copy(lambda: ray.data.read_parquet(files), out, input_files=files, **kw)
        return sorted(calls, key=repr)

    computed = [("pages_to_samples", None), ("rollup_cascade", None),
                ("write_tiers", {t: t for t in TIERS})]
    assert go([base]) == computed
    assert go([base]) == []  # unchanged input: every tier is skipped
    evicted = [("invalidate_days", t) for t in TIERS]
    assert go([base, extra]) == sorted(computed + evicted, key=repr)

    # a run that lost its 1h and 1d commits reads the finer tier back
    for tier in ("1h", "1d"):
        os.remove(manifest.manifest_path(out, tier))
    assert go([base, extra]) == [("read_tier", "5m"), ("rollup_up", "1d"), ("rollup_up", "1h"),
                                 ("write_tier", "1d"), ("write_tier", "1h")]

    # a 2 h group window holds 5m and 1h whole; 1d is rolled up from 1h
    assert go([base], out=str(tmp_path / "out2h"), group_window_ms=2 * 3_600_000) == [
        ("pages_to_samples", None), ("read_tier", "1h"), ("rollup_cascade", None),
        ("rollup_up", "1d"), ("write_tier", "1d"), ("write_tiers", {"5m": "5m", "1h": "1h"})]


# -- cascade = chain -----------------------------------------------------------
# run_copy / run_copy_samples build 1h and 1d inside the 5m kernel whenever
# their window divides the group window; the tiers must equal the
# rollup_raw -> rollup_up("1h") -> rollup_up("1d") chain on every group
# window and on both execution paths.

GROUP_WINDOWS = [86_400_000, 2 * 3_600_000, 30 * 60_000]
GW_IDS = ["1d", "2h", "30min"]


def _sorted_df(table_or_ds) -> pd.DataFrame:
    df = table_or_ds.to_pandas()
    return df.sort_values(["series_key", "window_start"]).reset_index(drop=True)


def _float_chain(samples, gw: int) -> dict:
    from prom_tsdb_copyer_ray.stages.rollup import rollup_raw, rollup_up

    t5 = rollup_raw(samples, "5m", group_window_ms=gw).materialize()
    t1h = rollup_up(t5, "1h").materialize()
    return {"5m": t5, "1h": t1h, "1d": rollup_up(t1h, "1d").materialize()}


@pytest.mark.parametrize("small", [True, False], ids=["single_task", "exchange"])
@pytest.mark.parametrize("gw", GROUP_WINDOWS, ids=GW_IDS)
def test_run_copy_cascade_equals_chain(ray_session, tmp_path, monkeypatch, gw, small):
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import pages_to_samples

    chain = _float_chain(pages_to_samples(ray.data.from_arrow(PAGES)).materialize(), gw)
    out, _ = _run(tmp_path, monkeypatch, small, group_window_ms=gw)
    for tier in TIERS:
        want = _sorted_df(chain[tier])
        assert len(want) > 0
        pd.testing.assert_frame_equal(_tier_df(out, tier), want)


def _mixed_samples():
    """Float, histogram and float_histogram samples over three days, with
    duplicate (series, ts) pairs."""
    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(5)
    n = 6000
    ts = 1_704_067_200_000 + rng.integers(0, 3 * 86_400_000, n)
    ts[::50] = ts[1::50]  # duplicates
    kind = rng.integers(0, 3, n)
    vt = np.array(["float", "histogram", "float_histogram"])[kind]
    series = np.char.add(vt, rng.integers(0, 7, n).astype(str))
    count = rng.integers(0, 1000, n)
    buckets = [None if k == 0 else [float(c // 4), float(c // 2), float(c)] if k == 1
               else [c * 0.25, c * 0.5, float(c)] for k, c in zip(kind, count)]
    return pa.table({
        "series_key": pa.array(series, pa.string()),
        "ts": pa.array(ts, pa.int64()),
        "value_type": pa.array(vt, pa.string()),
        "value": pa.array(np.where(kind == 0, rng.normal(size=n), np.nan), pa.float64()),
        "h_count": pa.array(count, pa.int64()),
        "h_sum": pa.array(count * 1.5, pa.float64()),
        "h_buckets": pa.array(buckets, pa.list_(pa.float64())),
    })


@pytest.mark.parametrize("small", [True, False], ids=["single_task", "exchange"])
@pytest.mark.parametrize("gw", GROUP_WINDOWS, ids=GW_IDS)
def test_run_copy_samples_cascade_equals_chain(ray_session, tmp_path, monkeypatch, gw, small):
    import pyarrow.compute as pc
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import run_copy_samples
    from prom_tsdb_copyer_ray.stages.histograms import (
        HISTOGRAM_TYPES,
        finer_as_samples,
        rollup_histograms,
    )

    t = _mixed_samples()

    def of_type(vt, cols):
        return ray.data.from_arrow(t.filter(pc.equal(t["value_type"], vt)).select(cols))

    want = {}
    floats = of_type("float", ["series_key", "ts", "value"]).materialize()
    for tier, ds in _float_chain(floats, gw).items():
        want[tier] = ds
    for vt in HISTOGRAM_TYPES:
        finer = rollup_histograms(
            of_type(vt, ["series_key", "ts", "h_count", "h_sum", "h_buckets"]), "5m",
            group_window_ms=gw, value_type=vt).materialize()
        want[f"{vt}_5m"] = finer
        for tier in ("1h", "1d"):
            finer = rollup_histograms(
                finer.map_batches(finer_as_samples, batch_format="pyarrow"), tier,
                value_type=vt).materialize()
            want[f"{vt}_{tier}"] = finer

    monkeypatch.setattr(common, "SMALL_ROWS", 50_000 if small else 0)
    out = str(tmp_path / "out")
    manifests = run_copy_samples(ray.data.from_arrow(t), out, group_window_ms=gw)
    assert sorted(manifests) == sorted(want)
    for key, ds in want.items():
        assert manifests[key]["status"] == "complete"
        got = _tier_df(out, key)
        exp = _sorted_df(ds)
        assert len(exp) > 0
        pd.testing.assert_frame_equal(got, exp[got.columns], check_dtype=False)
        assert sum(d["n_rows"] for d in manifests[key]["days"].values()) == len(exp)


def test_metrics_one_record_per_cascade_call(monkeypatch):
    """The cascade kernel reports every tier's wall time in ONE sink call."""
    from prom_tsdb_copyer_ray.pipelines.copy import PageToSamples
    from prom_tsdb_copyer_ray.stages import rollup
    from prom_tsdb_copyer_ray.state import metrics

    calls = []
    monkeypatch.setattr(metrics, "record", lambda sink, timings: calls.append(timings))
    kernel = rollup.cascade_kernel(rollup._rollup_raw_group, rollup._merge_finer,
                                   rollup.cascade_tiers(86_400_000), metrics_sink="sink")
    out = kernel(PageToSamples("strict")(PAGES.slice(0, 300)))
    assert set(out["tier"].to_pylist()) == set(TIERS)
    assert len(calls) == 1
    assert set(calls[0]) == {"rollup_raw_5m_group_ms", "rollup_up_1h_group_ms",
                             "rollup_up_1d_group_ms"}


# -- the one write ---------------------------------------------------------------

def test_sink_skips_empty_blocks(tmp_path):
    """Ray's sort emits zero-row, zero-column blocks for empty key ranges;
    the sink writes nothing for them and commits the rest."""
    import types

    import pyarrow as pa
    from ray.data.datasource import WriteResult

    from prom_tsdb_copyer_ray.pipelines.copy import PageToSamples
    from prom_tsdb_copyer_ray.stages import rollup
    from prom_tsdb_copyer_ray.state.manifest import TierSink

    rows = rollup.cascade_kernel(rollup._rollup_raw_group, rollup._merge_finer, TIERS)(
        PageToSamples("strict")(PAGES))
    out = str(tmp_path / "out")
    sink = TierSink(out, {t: t for t in TIERS})
    sink.on_write_start()
    written = [sink.write([pa.table({}), rows.slice(0, 0)], types.SimpleNamespace(task_idx=0)),
               sink.write([pa.table({}), rows, pa.table({})], types.SimpleNamespace(task_idx=1))]
    assert written[0] == []
    sink.on_write_complete(WriteResult(rows.num_rows, 0, written))
    for tier in TIERS:
        n = rows.filter(pa.compute.equal(rows["tier"], tier)).num_rows
        days = sink.manifests[tier]["days"]
        assert sum(d["n_rows"] for d in days.values()) == n > 0
        assert sum(_leaf_file_counts(out, tier)) == len(days) > 1
        assert len(_tier_df(out, tier)) == n


def _tree(root: str) -> dict:
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            with open(os.path.join(d, f), "rb") as fh:
                out[os.path.relpath(os.path.join(d, f), root)] = fh.read()
    return out


def test_crash_inside_the_one_write(ray_session, tmp_path, monkeypatch):
    """The sink fails after its first file: no manifest changes, and a re-run
    cleans the partial day dirs and writes tiers byte-identical to a clean
    run."""
    import pyarrow as pa
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import run_copy
    from prom_tsdb_copyer_ray.state import manifest
    from prom_tsdb_copyer_ray.windows import MS_1D, ts_to_ms

    day = ts_to_ms(PAGES["warc_ts"]).to_numpy() // MS_1D
    first = day == day.min()
    old, new = str(tmp_path / "old.parquet"), str(tmp_path / "new.parquet")
    pq.write_table(PAGES.filter(pa.array(first)), old)
    pq.write_table(PAGES.filter(pa.array(~first)), new)  # brand-new days only

    def go(out, files):
        return run_copy(lambda: ray.data.read_parquet(files), out, input_files=files)

    ref = str(tmp_path / "ref")
    go(ref, [old])
    go(ref, [old, new])
    out = str(tmp_path / "out")
    go(out, [old])
    manifests_before = _tree(os.path.join(out, "manifests"))
    tiers_before = _tree(os.path.join(out, "tiers"))

    class FailingSink(manifest.TierSink):
        def _write_file(self, table, path):
            super()._write_file(table, path)
            raise RuntimeError("injected sink failure")

    monkeypatch.setattr(manifest, "TierSink", FailingSink)
    with pytest.raises(Exception, match="injected sink failure"):
        go(out, [old, new])
    monkeypatch.undo()
    assert _tree(os.path.join(out, "manifests")) == manifests_before
    # the one file written before the failure is left behind
    assert len(set(_tree(os.path.join(out, "tiers"))) - set(tiers_before)) == 1

    go(out, [old, new])
    assert _tree(os.path.join(out, "tiers")) == _tree(os.path.join(ref, "tiers"))
    assert _tree(os.path.join(out, "manifests")) == _tree(os.path.join(ref, "manifests"))
