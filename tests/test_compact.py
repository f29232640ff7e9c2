"""File-compaction tests: content preservation, idempotence, crash repair."""

from __future__ import annotations

import os
import shutil

import pandas as pd
import pyarrow.parquet as pq

from prom_tsdb_copyer_ray.sources.pages import generate_pages
from prom_tsdb_copyer_ray.stages import common


def _tier_df(out: str, tier: str) -> pd.DataFrame:
    df = pq.read_table(os.path.join(out, "tiers", tier)).to_pandas()
    cols = [c for c in df.columns if c != "chunk"]
    return df[cols].sort_values(["series_key", "window_start"]).reset_index(drop=True)


def test_compact_tier_preserves_content(ray_session, tmp_path, monkeypatch):
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.compact import _leaf_dirs, compact_tier
    from prom_tsdb_copyer_ray.pipelines.copy import run_copy

    # the distributed path: a small input's single task writes one file per
    # partition, and this fixture needs multi-file partitions
    monkeypatch.setattr(common, "SMALL_ROWS", 0)
    out = str(tmp_path / "out")
    pages = generate_pages(2000, seed=7)
    run_copy(lambda: ray.data.from_arrow(pages).repartition(16), out)

    tier_dir = os.path.join(out, "tiers", "5m")
    before = _tier_df(out, "5m")
    multi = [l for l in _leaf_dirs(tier_dir)
             if len([f for f in os.listdir(l) if f.endswith(".parquet")]) >= 2]
    assert multi, "fixture must produce multi-file partitions"

    stats = compact_tier(out, "5m", parallel=True)
    assert stats["leaves_compacted"] == len(multi)
    for leaf in _leaf_dirs(tier_dir):
        assert len([f for f in os.listdir(leaf) if f.endswith(".parquet")]) == 1
    after = _tier_df(out, "5m")
    pd.testing.assert_frame_equal(before, after)

    # idempotent: second run compacts nothing
    stats2 = compact_tier(out, "5m")
    assert stats2["leaves_compacted"] == 0

    # resume untouched: rerunning the copy skips everything (manifests intact)
    m = run_copy(lambda: ray.data.from_arrow(pages).repartition(16), out)
    assert all(v["status"] == "complete" for k, v in m.items() if k != "_metrics")
    pd.testing.assert_frame_equal(_tier_df(out, "5m"), after)


def test_compact_repair_interrupted_swap(ray_session, tmp_path):
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.compact import (
        COMPACT_SUFFIX,
        OLD_SUFFIX,
        _leaf_dirs,
        compact_tier,
    )
    from prom_tsdb_copyer_ray.pipelines.copy import run_copy

    out = str(tmp_path / "out")
    run_copy(lambda: ray.data.from_arrow(generate_pages(800, seed=8)).repartition(8), out)
    tier_dir = os.path.join(out, "tiers", "5m")
    before = _tier_df(out, "5m")
    leaf = _leaf_dirs(tier_dir)[0]

    # simulate a crash between swap steps 2 and 3: leaf gone, .old + .compact left
    shutil.copytree(leaf, leaf + COMPACT_SUFFIX)
    os.rename(leaf, leaf + OLD_SUFFIX)
    assert not os.path.isdir(leaf)

    compact_tier(out, "5m")  # repairs, then compacts
    assert os.path.isdir(leaf)
    assert not os.path.isdir(leaf + OLD_SUFFIX)
    assert not os.path.isdir(leaf + COMPACT_SUFFIX)
    pd.testing.assert_frame_equal(before, _tier_df(out, "5m"))


def test_compact_subday_groups(ray_session, tmp_path):
    """Compaction over the sub-day (window_group=) layout: leaves are the
    group dirs; content preserved; group-level resume intact."""
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.compact import _leaf_dirs, compact_tier
    from prom_tsdb_copyer_ray.pipelines.copy import run_copy

    out = str(tmp_path / "out")
    pages = generate_pages(1500, seed=9)
    run_copy(lambda: ray.data.from_arrow(pages).repartition(12), out,
             group_window_ms=2 * 3600 * 1000)
    tier_dir = os.path.join(out, "tiers", "5m")
    leaves = _leaf_dirs(tier_dir)
    assert any("window_group=" in l for l in leaves)
    before = _tier_df(out, "5m")
    compact_tier(out, "5m")
    for leaf in _leaf_dirs(tier_dir):
        assert len([f for f in os.listdir(leaf) if f.endswith(".parquet")]) == 1
    pd.testing.assert_frame_equal(before, _tier_df(out, "5m"))
    m = run_copy(lambda: ray.data.from_arrow(pages).repartition(12), out,
                 group_window_ms=2 * 3600 * 1000)
    assert all(v["status"] == "complete" for k, v in m.items() if k != "_metrics")
