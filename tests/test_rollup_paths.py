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
