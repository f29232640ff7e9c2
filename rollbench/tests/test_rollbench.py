"""Tests of the rollup benchmark itself.

    python -m pytest rollbench/tests -q

The smoke runs use a tiny corpus, so they check plumbing (metrics present,
units, exit codes), not performance.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rollbench.corpus import tier_files, write_inputs
from rollbench.harness import ROOT

TINY = ["--pages", "300", "--late-pages", "60", "--seconds", "1"]


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "rollbench", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def test_same_seed_same_input_digest(tmp_path):
    a = write_inputs(str(tmp_path / "a"), seed=5, pages=200, late_pages=40)
    b = write_inputs(str(tmp_path / "b"), seed=5, pages=200, late_pages=40)
    c = write_inputs(str(tmp_path / "c"), seed=6, pages=200, late_pages=40)
    assert a.digest == b.digest
    assert a.digest != c.digest
    assert len(a.base_files) == 7


def test_late_file_touches_one_committed_day(tmp_path):
    inp = write_inputs(str(tmp_path), seed=3, pages=300, late_pages=60)
    day = lambda t: set((t["warc_ts"].cast(pa.int64()).to_numpy() // 86_400_000).tolist())
    base_days = sorted(day(inp.base_pages))
    assert day(inp.late_pages) == {base_days[inp.late_day]}


@pytest.mark.parametrize("workload", ["flagship", "late_resume", "verify"])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    rc, result = _run("--workload", workload, "--seed", "1", "--trace", "0", *TINY)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for m in _spec()["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]


def test_traced_run_reports_every_per_layer_metric():
    rc, result = _run("--workload", "late_resume", "--seed", "2", "--trace", "1", *TINY)
    assert rc == 0 and result["correct"] is True
    metrics = result["metrics"]
    for m in _spec()["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["manifest.days_evicted"]["value"] == 3  # one day in each tier
    assert metrics["late.reextract_ratio"]["value"] > 1
    assert metrics["verify.chunks"]["value"] > 0
    assert metrics["verify.bad_rows"]["value"] == 0
    assert metrics["jobs.failed_frac"]["value"] == 0


def test_no_result_without_the_engine(tmp_path):
    """Given only BENCHMARK.json and the benchmark, the run fails cleanly."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "rollbench"), tmp_path / "rollbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "rollbench/run.py", "--workload", "flagship", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "check failed: engine_import" in proc.stderr


@pytest.fixture(scope="module")
def ray_one_cpu():
    from rollbench.harness import RayCluster

    cluster = RayCluster(1)
    cluster.start()
    yield
    cluster.stop()


def test_corrupted_chunk_is_counted_in_failed_frac(ray_one_cpu, tmp_path):
    from rollbench.corpus import oracle_digests
    from rollbench.run import measure
    from rollbench.workloads import Bench, Verify

    inp = write_inputs(str(tmp_path / "in"), seed=4, pages=300, late_pages=60)
    bench = Bench(str(tmp_path), inp, oracle_digests(inp.base_pages, "base:" + inp.digest), None)
    bench.warm_up()
    assert bench.check_committed() == []

    victim = tier_files(bench.committed, "5m")[0]
    t = pq.read_table(victim)
    col = t.column_names.index("ts_bytes")
    bad = t["ts_bytes"].to_pylist()
    bad[0] = b"\xff" * len(bad[0])  # first timestamp decodes outside its window
    pq.write_table(t.set_column(col, "ts_bytes", pa.array(bad, pa.binary())), victim)

    jobs, _ = measure(Verify(bench), seconds=0)
    assert len(jobs) == 1
    assert "verify_bad_rows.5m" in jobs[0]["failed"]
    assert sum(bool(j["failed"]) for j in jobs) / len(jobs) == 1.0
