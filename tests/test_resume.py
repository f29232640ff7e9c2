"""Checkpoint/resume tests (state/manifest.py; SURVEY.md §4 resume row)."""

from __future__ import annotations

import json
import os
import shutil

import pytest

from prom_tsdb_copyer_ray.sources.pages import generate_pages
from prom_tsdb_copyer_ray.state.manifest import (
    clean_uncommitted_days,
    completed_days,
    load_manifest,
    manifest_path,
    manifest_summary,
    read_tier,
    tier_dir,
    write_tier,
)


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path / "out")


def _run(out_dir, n_pages=1500, span_days=3):
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import run_copy

    pages = generate_pages(n_pages, seed=42, span_ms=span_days * 86_400_000)
    return run_copy(
        lambda: ray.data.from_arrow(pages), out_dir, concurrency=(1, 2)
    )


def test_full_run_writes_all_tiers(ray_session, out_dir):
    manifests = _run(out_dir)
    for tier in ("5m", "1h", "1d"):
        assert manifests[tier]["status"] == "complete"
        assert len(manifests[tier]["days"]) >= 3
        assert read_tier(out_dir, tier).count() > 0
    summary = manifest_summary(out_dir)
    assert summary["5m"]["n_rows"] > summary["1h"]["n_rows"] > summary["1d"]["n_rows"]


def test_resume_skips_completed_tiers(ray_session, out_dir):
    _run(out_dir)
    before = {t: json.load(open(manifest_path(out_dir, t))) for t in ("5m", "1h", "1d")}
    manifests = _run(out_dir)  # second run: all tiers complete -> no rewrites
    after = {t: json.load(open(manifest_path(out_dir, t))) for t in ("5m", "1h", "1d")}
    assert before == after
    assert manifests["5m"]["days"] == before["5m"]["days"]


def test_resume_after_partial_crash(ray_session, out_dir):
    """Simulate a crash after the 5m tier: later tiers absent -> only they run."""
    _run(out_dir)
    golden = {t: read_tier(out_dir, t).to_pandas() for t in ("5m", "1h", "1d")}

    # "crash": drop 1h + 1d outputs and manifests entirely
    for t in ("1h", "1d"):
        shutil.rmtree(tier_dir(out_dir, t))
        os.remove(manifest_path(out_dir, t))

    _run(out_dir)
    for t in ("1h", "1d"):
        got = read_tier(out_dir, t).to_pandas()
        got = got.sort_values(["series_key", "window_start"]).reset_index(drop=True)
        want = golden[t].sort_values(["series_key", "window_start"]).reset_index(drop=True)
        assert got.equals(want)


def test_collect_metrics_timing_histograms(ray_session, out_dir):
    """O18: run_copy(collect_metrics=True) returns per-stage wall-time
    histograms (the reference's --show-metrics duration histograms)."""
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import run_copy

    pages = generate_pages(800, seed=42, span_ms=86_400_000)
    manifests = run_copy(
        lambda: ray.data.from_arrow(pages), out_dir, concurrency=(1, 2),
        collect_metrics=True,
    )
    m = manifests["_metrics"]
    assert "extract_batch_ms" in m
    assert "rollup_raw_5m_group_ms" in m
    assert "rollup_up_1h_group_ms" in m
    for hist in m.values():
        assert hist["count"] > 0
        assert hist["max_ms"] >= hist["p90_ms"] >= hist["p50_ms"] >= 0
        assert hist["sum_ms"] >= hist["max_ms"]
    # sink is destroyed after drain: a second plain run records nothing
    manifests2 = run_copy(
        lambda: ray.data.from_arrow(pages), out_dir, concurrency=(1, 2)
    )
    assert "_metrics" not in manifests2


def test_metrics_sink_dies_with_a_failed_run(ray_session, out_dir, monkeypatch):
    """A run that fails after its 5m write leaves no metrics sink behind: the
    re-run skips 5m, so no extraction sample may reach its ``_metrics``.  A
    2 h group window commits 5m and 1h in one write and rolls 1d up after
    it, so the failure is injected into the 1d write."""
    import ray.data

    from prom_tsdb_copyer_ray.pipelines import copy

    pages = generate_pages(800, seed=42, span_ms=86_400_000)
    gw = 2 * 3_600_000
    write_tier_orig = copy.write_tier

    def write_tier_failing_1d(ds, out, tier, **kw):
        if tier == "1d":
            raise RuntimeError("injected 1d write failure")
        return write_tier_orig(ds, out, tier, **kw)

    monkeypatch.setattr(copy, "write_tier", write_tier_failing_1d)
    with pytest.raises(RuntimeError, match="injected"):
        copy.run_copy(lambda: ray.data.from_arrow(pages), out_dir, group_window_ms=gw,
                      concurrency=(1, 2), collect_metrics=True)
    monkeypatch.undo()
    assert load_manifest(out_dir, "5m")["status"] == "complete"

    manifests = copy.run_copy(lambda: ray.data.from_arrow(pages), out_dir,
                              group_window_ms=gw, concurrency=(1, 2), collect_metrics=True)
    assert all(manifests[t]["status"] == "complete" for t in ("5m", "1h", "1d"))
    assert "extract_batch_ms" not in manifests["_metrics"]
    assert "rollup_up_1d_group_ms" in manifests["_metrics"]


def test_subday_group_resume_recomputes_only_killed_group(ray_session, out_dir):
    """Sub-day checkpoint (the reference's 2 h slice analogue): kill one
    (day, group) part; resume rewrites ONLY that group window."""
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import pages_to_samples
    from prom_tsdb_copyer_ray.stages.rollup import rollup_raw
    from prom_tsdb_copyer_ray.state.manifest import completed_groups

    GW = 6 * 3600 * 1000  # 6 h groups -> 4 per day
    pages = generate_pages(1500, seed=42, span_ms=2 * 86_400_000)
    samples = pages_to_samples(ray.data.from_arrow(pages), concurrency=(1, 2))
    write_tier(rollup_raw(samples, "5m", group_window_ms=GW), out_dir, "5m",
               group_window_ms=GW)
    groups = completed_groups(out_dir, "5m")
    assert all(g is not None for g in groups.values())
    n_groups = sum(len(g) for g in groups.values())
    assert n_groups >= 5  # checkpoint unit finer than days
    golden = read_tier(out_dir, "5m").to_pandas()

    # kill one group: drop its manifest entry AND its dir (simulated crash
    # leaves it re-writable either way; clean_uncommitted handles a dir
    # without a manifest entry)
    victim_day = str(sorted(groups)[0])
    m = load_manifest(out_dir, "5m")
    victim_group = sorted(m["days"][victim_day]["groups"])[1]
    del m["days"][victim_day]["groups"][victim_group]
    with open(manifest_path(out_dir, "5m"), "w") as f:
        json.dump(m, f)

    def snapshot():
        out = {}
        td = tier_dir(out_dir, "5m")
        for day in os.listdir(td):
            for grp in os.listdir(os.path.join(td, day)):
                gd = os.path.join(td, day, grp)
                out[(day, grp)] = sorted(
                    (f, os.path.getmtime(os.path.join(gd, f))) for f in os.listdir(gd)
                )
        return out

    before = snapshot()
    removed = clean_uncommitted_days(out_dir, "5m")
    assert removed == [int(victim_day)]
    victim_key = (f"window_day={victim_day}", f"window_group={victim_group}")
    assert not os.path.isdir(os.path.join(tier_dir(out_dir, "5m"), *victim_key))

    samples2 = pages_to_samples(ray.data.from_arrow(pages), concurrency=(1, 2))
    write_tier(rollup_raw(samples2, "5m", group_window_ms=GW), out_dir, "5m",
               group_window_ms=GW)

    after = snapshot()
    untouched = {k: v for k, v in before.items() if k != victim_key}
    assert {k: after[k] for k in untouched} == untouched  # other groups untouched
    assert victim_key in after  # killed group recomputed
    got = read_tier(out_dir, "5m").to_pandas()
    key = ["series_key", "window_start"]
    assert got.sort_values(key).reset_index(drop=True).equals(
        golden.sort_values(key).reset_index(drop=True)
    )


def test_day_level_resume_skips_manifested_days(ray_session, out_dir):
    """Partition-level checkpoint: manifested days are not rewritten; an
    unmanifested (partial/crashed) day dir is cleaned and recomputed."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.rollup import rollup_raw
    from prom_tsdb_copyer_ray.pipelines.copy import pages_to_samples

    pages = generate_pages(1500, seed=42, span_ms=3 * 86_400_000)
    samples = pages_to_samples(ray.data.from_arrow(pages), concurrency=(1, 2))
    write_tier(rollup_raw(samples, "5m"), out_dir, "5m")
    days = sorted(completed_days(out_dir, "5m"))
    assert len(days) >= 3
    golden = read_tier(out_dir, "5m").to_pandas()

    # simulate a crashed run: last day has data but no manifest entry
    m = load_manifest(out_dir, "5m")
    victim = str(days[-1])
    del m["days"][victim]
    with open(manifest_path(out_dir, "5m"), "w") as f:
        json.dump(m, f)
    # fingerprint surviving day dirs so we can prove they are not rewritten
    def snapshot(day):
        d = os.path.join(tier_dir(out_dir, "5m"), f"window_day={day}")
        return sorted((f, os.path.getmtime(os.path.join(d, f))) for f in os.listdir(d))

    before = {d: snapshot(d) for d in days[:-1]}

    removed = clean_uncommitted_days(out_dir, "5m")
    assert removed == [int(victim)]

    samples2 = pages_to_samples(ray.data.from_arrow(pages), concurrency=(1, 2))
    write_tier(rollup_raw(samples2, "5m"), out_dir, "5m")

    assert {d: snapshot(d) for d in days[:-1]} == before  # completed days untouched
    assert set(completed_days(out_dir, "5m")) == set(days)
    got = read_tier(out_dir, "5m").to_pandas()
    key = ["series_key", "window_start"]
    assert got.sort_values(key).reset_index(drop=True).equals(
        golden.sort_values(key).reset_index(drop=True)
    )


def test_late_data_invalidation(ray_session, out_dir, tmp_path):
    """input_files late-data path: a new file whose footer stats touch an
    already-committed day evicts exactly that day; the resumed run's tiers
    equal a from-scratch run over the full input; unchanged inputs skip."""
    import pyarrow.parquet as pq
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import run_copy
    from prom_tsdb_copyer_ray.windows import MS_1D

    day_span = 3 * 86_400_000
    pages_a = generate_pages(900, seed=42, span_ms=day_span)
    pages_b = generate_pages(900, seed=43, span_ms=day_span)  # same days: LATE
    fa = str(tmp_path / "a.parquet")
    fb = str(tmp_path / "b.parquet")
    pq.write_table(pages_a, fa)
    pq.write_table(pages_b, fb)

    # run 1: file A only
    run_copy(lambda: ray.data.read_parquet([fa]), out_dir,
             concurrency=(1, 2), input_files=[fa])
    m1 = load_manifest(out_dir, "5m")
    assert m1["status"] == "complete" and len(m1["days"]) >= 3

    # run 2: unchanged inputs -> pure skip (manifests byte-stable)
    before = json.load(open(manifest_path(out_dir, "5m")))
    run_copy(lambda: ray.data.read_parquet([fa]), out_dir,
             concurrency=(1, 2), input_files=[fa])
    assert json.load(open(manifest_path(out_dir, "5m"))) == before

    # run 3: file B appears with rows in the SAME committed days
    run_copy(lambda: ray.data.read_parquet([fa, fb]), out_dir,
             concurrency=(1, 2), input_files=[fa, fb])

    # reference: a from-scratch run over both files
    ref_dir = str(tmp_path / "ref")
    run_copy(lambda: ray.data.read_parquet([fa, fb]), ref_dir,
             concurrency=(1, 2))
    for tier in ("5m", "1h", "1d"):
        got = read_tier(out_dir, tier).to_pandas()
        want = read_tier(ref_dir, tier).to_pandas()
        key = ["series_key", "window_start"]
        got = got.sort_values(key).reset_index(drop=True)
        want = want.sort_values(key).reset_index(drop=True)
        assert len(got) == len(want), tier
        assert got["n_samples"].tolist() == want["n_samples"].tolist(), tier
        assert got["ts_bytes"].tolist() == want["ts_bytes"].tolist(), tier

    # run 4: unchanged again -> skip again
    before = json.load(open(manifest_path(out_dir, "5m")))
    run_copy(lambda: ray.data.read_parquet([fa, fb]), out_dir,
             concurrency=(1, 2), input_files=[fa, fb])
    assert json.load(open(manifest_path(out_dir, "5m"))) == before


def test_new_file_with_only_new_days_is_ingested(ray_session, out_dir, tmp_path):
    """Review regression: a changed input whose footer days do NOT overlap
    any committed day must still trigger a run (the old logic derived
    must_run only from evictions, silently skipped the new file, and then
    recorded it as processed — permanent data loss)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import run_copy
    from prom_tsdb_copyer_ray.windows import MS_1D

    from prom_tsdb_copyer_ray.windows import ts_to_ms

    pages = generate_pages(1200, seed=42, span_ms=4 * MS_1D)
    ts = ts_to_ms(pages["warc_ts"]).to_numpy()
    day = ts // MS_1D  # absolute day buckets (same key as window_day)
    cut = int(np.sort(np.unique(day))[len(np.unique(day)) // 2])
    f1 = str(tmp_path / "early.parquet")
    f2 = str(tmp_path / "late.parquet")
    pq.write_table(pages.filter(pa.array(day < cut)), f1)
    pq.write_table(pages.filter(pa.array(day >= cut)), f2)
    early_days = {int(d) * MS_1D for d in np.unique(day[day < cut])}
    all_days = {int(d) * MS_1D for d in np.unique(day)}
    assert early_days < all_days  # f2 brings strictly NEW days only

    run_copy(lambda: ray.data.read_parquet([f1]), out_dir,
             concurrency=(1, 2), input_files=[f1])
    m1 = load_manifest(out_dir, "5m")
    assert {int(d) for d in m1["days"]} == early_days

    # f2 appears: its days are disjoint from every committed day
    run_copy(lambda: ray.data.read_parquet([f1, f2]), out_dir,
             concurrency=(1, 2), input_files=[f1, f2])
    m = load_manifest(out_dir, "5m")
    assert {int(d) for d in m["days"]} == all_days, \
        "new-day-only file must be ingested"
    total = sum(d["n_rows"] for d in m["days"].values())

    # from-scratch reference row count
    ref = str(tmp_path / "ref")
    run_copy(lambda: ray.data.read_parquet([f1, f2]), ref, concurrency=(1, 2))
    ref_total = sum(
        d["n_rows"] for d in load_manifest(ref, "5m")["days"].values()
    )
    assert total == ref_total
