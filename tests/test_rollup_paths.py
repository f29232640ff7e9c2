"""Execution-path independence of the tier chain: ``run_copy`` must write the
same 5m/1h/1d tiers whether ``shard_apply`` runs a small input as one task
or through the hash-shard exchange (forced with ``SMALL_ROWS = 0``)."""

from __future__ import annotations

import json
import os

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
    must reach every layer through those names, once per tier that runs."""
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
    spy(copy, "rollup_up", 1)
    spy(copy, "write_tier", 2)
    spy(copy, "read_tier", 1)
    spy(manifest, "invalidate_days", 1)

    day = ts_to_ms(PAGES["warc_ts"]).to_numpy() // MS_1D
    late = np.arange(len(day)) % 7 == 0  # a late file inside committed days
    base, extra = str(tmp_path / "base.parquet"), str(tmp_path / "late.parquet")
    pq.write_table(PAGES.filter(pa.array(~late)), base)
    pq.write_table(PAGES.filter(pa.array(late)), extra)
    out = str(tmp_path / "out")

    def go(files):
        calls.clear()
        copy.run_copy(lambda: ray.data.read_parquet(files), out, input_files=files)
        return sorted(calls, key=repr)

    computed = [("pages_to_samples", None), ("rollup_raw", "5m"), ("rollup_up", "1d"),
                ("rollup_up", "1h"), ("write_tier", "1d"), ("write_tier", "1h"),
                ("write_tier", "5m")]
    assert go([base]) == computed
    assert go([base]) == []  # unchanged input: every tier is skipped
    evicted = [("invalidate_days", t) for t in TIERS]
    assert go([base, extra]) == sorted(computed + evicted, key=repr)

    # a run that lost its 1h and 1d commits reads the finer tier back
    for tier in ("1h", "1d"):
        os.remove(manifest.manifest_path(out, tier))
    assert go([base, extra]) == [("read_tier", "5m"), ("rollup_up", "1d"), ("rollup_up", "1h"),
                                 ("write_tier", "1d"), ("write_tier", "1h")]
