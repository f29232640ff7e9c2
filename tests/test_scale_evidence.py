"""Smokes for the scale-evidence runners (round-3 verdict items 2 & 4).

Each runner owns a Ray session, so these run in SUBPROCESSES — they must
not touch the session-scoped ray_session fixture.  Tiny scale here; the
BASELINE.md entries come from the full-size manual runs of
scripts/scale_evidence.py.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "scripts", "scale_evidence.py")
SF = "/root/testdata/sf0.001"


sys.path.insert(0, os.path.join(REPO, "scripts"))
from scale_evidence import single_store_ratio  # noqa: E402


def _run(mode, *extra):
    proc = subprocess.run(
        [sys.executable, SCRIPT, mode, "--sf-dir", SF, *extra],
        capture_output=True, text=True, timeout=900, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = [l for l in proc.stdout.strip().splitlines()
            if l.startswith("{")][-1]
    return json.loads(line)


@pytest.mark.scale
def test_capped_object_store_completes():
    """Flagship completes with the object store capped at 0.25 GB —
    streaming executor backpressures/spills rather than OOMing."""
    out = _run("capped", "--cpus", "8", "--store-gb", "0.25",
               "--replicate", "4", "--heavy", "4")
    assert out["tiers"]["5m"]["status"] == "complete"
    assert out["tiers"]["1d"]["status"] == "complete"
    assert out["n_pages"] > 0 and out["wall_s"] > 0


@pytest.mark.scale
def test_simulated_multinode_flagship():
    """Flagship on a 4-raylet simulated cluster: blocks shuffle BETWEEN
    object stores; output identical shape, all tiers complete, and all
    4 nodes were alive."""
    out = _run("multinode", "--cpus", "8", "--nodes", "4",
               "--store-gb", "0.6", "--replicate", "2", "--heavy", "1")
    assert out["n_nodes"] == 4
    assert out["tiers"]["5m"]["status"] == "complete"
    assert out["tiers"]["1h"]["status"] == "complete"
    assert out["tiers"]["1d"]["status"] == "complete"


@pytest.mark.scale
def test_simulated_multinode_battery_subset():
    """Battery queries (top-5 by committed single-store time) on a
    2-raylet simulated cluster at sf0.001: every oracled query in the
    subset must match its DuckDB oracle byte-for-byte even when its
    shuffles cross object stores (round-4 verdict item 5)."""
    out = _run("multinode-battery", "--cpus", "8", "--nodes", "2",
               "--store-gb", "0.6", "--top", "5")
    assert out["n_nodes"] == 2
    assert out["n_queries"] == 5
    assert out["n_oracled"] >= 1
    assert out["n_oracle_failures"] == 0, out["failures"]
    assert out["total_s"] > 0


def test_single_store_ratio_skips_queries_without_prior():
    """A query with no committed single-store time must not count against
    a 0 s prior: the ratio covers only queries that have one."""
    timings = {"a": 2.0, "b": 3.0, "new": 50.0}
    prior = {"a": 1.0, "b": 1.5}
    out = single_store_ratio(timings, prior)
    assert out == {"single_store_total_s": 2.5, "ratio_vs_single_store": 2.0,
                   "n_missing": 1}
    assert single_store_ratio({"new": 1.0}, {})["ratio_vs_single_store"] is None
