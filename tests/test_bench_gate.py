"""Regression-gate tests for bench.py (round-4 verdict items 2/8).

The gate must compare against the last *committed* BENCH_DETAIL.json, not
the on-disk file the run is about to overwrite — the round-4 gate
self-compared after overwrite and missed a real 1.89x regression
(bloom_lookup).  These tests plant a slow query and assert it is flagged,
and pin the prior-source resolution order (env override > git HEAD >
working tree).
"""

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import find_regressions, load_prior_detail, multinode_battery_headline


def test_planted_slowdown_is_flagged():
    prior = {"fast_q": 1.0, "slow_q": 2.0, "tiny_q": 0.1}
    now = {"fast_q": 1.1, "slow_q": 4.0, "tiny_q": 0.3}
    regs = find_regressions(now, prior)
    assert [r["query"] for r in regs] == ["slow_q"]
    assert regs[0]["ratio"] == 2.0
    assert regs[0]["prior_s"] == 2.0 and regs[0]["now_s"] == 4.0


def test_subsecond_jitter_not_flagged():
    # >1.5x ratio but below the 0.5 s absolute floor: host variance, not a
    # regression (bloom_lookup-sized queries jitter 2x run to run)
    regs = find_regressions({"q": 0.9}, {"q": 0.5})
    assert regs == []


def test_new_and_missing_queries_ignored():
    regs = find_regressions({"new_q": 99.0}, {"gone_q": 1.0})
    assert regs == []


def test_cold_build_annotation():
    # a regression whose run built its persisted /tmp index is annotated,
    # not suppressed: the r04 ivf_index_topk/bloom_lookup 'regressions'
    # were cold index builds (3.10 s cold vs 0.52 s warm back-to-back)
    prior = {"ivf": 1.0, "real": 1.0}
    now = {"ivf": 3.1, "real": 2.0}
    regs = find_regressions(now, prior, cold_builds=["ivf"])
    by_name = {r["query"]: r for r in regs}
    assert by_name["ivf"]["cold_build"] is True
    assert "cold_build" not in by_name["real"]


def test_multinode_headline_counts_failures():
    # passes = oracled - failures, labelled by the subset size actually run
    entry = {"n_queries": 12, "n_oracled": 10, "n_oracle_failures": 3,
             "ratio_vs_single_store": 1.4}
    assert multinode_battery_headline(entry) == {
        "multinode_battery_top12": "7/10 oracle-pass, 1.4x single-store"}


def test_worst_first_ordering():
    prior = {"a": 1.0, "b": 1.0}
    now = {"a": 2.0, "b": 5.0}
    regs = find_regressions(now, prior)
    assert [r["query"] for r in regs] == ["b", "a"]


@pytest.fixture()
def git_repo(tmp_path):
    """A throwaway git repo with a committed BENCH_DETAIL.json that differs
    from the working-tree copy — the exact overwrite-then-compare hazard."""
    repo = tmp_path / "repo"
    repo.mkdir()
    committed = {"queries": {"planted": 1.0, "stable": 2.0}}
    detail = repo / "BENCH_DETAIL.json"
    detail.write_text(json.dumps(committed))
    env = {**os.environ,
           "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"}
    for cmd in (["git", "init", "-q"],
                ["git", "add", "BENCH_DETAIL.json"],
                ["git", "commit", "-qm", "detail"]):
        subprocess.run(cmd, cwd=repo, check=True, env=env)
    # simulate the in-round overwrite: working tree now holds THIS run's
    # (slow) timings — self-comparing against it would hide the regression
    detail.write_text(json.dumps({"queries": {"planted": 9.0, "stable": 2.0}}))
    return repo


def test_prior_comes_from_git_head_not_working_tree(git_repo, monkeypatch):
    monkeypatch.delenv("BENCH_PRIOR_DETAIL", raising=False)
    prior = load_prior_detail(str(git_repo))
    assert prior == {"planted": 1.0, "stable": 2.0}
    # end-to-end: the planted 9x slowdown IS flagged against the committed prior
    regs = find_regressions({"planted": 9.0, "stable": 2.0}, prior)
    assert [r["query"] for r in regs] == ["planted"]
    # ...and would NOT be flagged against the overwritten working-tree file
    # (the round-4 blind spot this fix closes)
    with open(git_repo / "BENCH_DETAIL.json") as fh:
        self_prior = json.load(fh)["queries"]
    assert find_regressions({"planted": 9.0}, self_prior) == []


def test_env_override_wins(git_repo, tmp_path, monkeypatch):
    override = tmp_path / "other.json"
    override.write_text(json.dumps({"queries": {"planted": 3.0}}))
    monkeypatch.setenv("BENCH_PRIOR_DETAIL", str(override))
    assert load_prior_detail(str(git_repo)) == {"planted": 3.0}


def test_working_tree_fallback_outside_git(tmp_path, monkeypatch):
    monkeypatch.delenv("BENCH_PRIOR_DETAIL", raising=False)
    d = tmp_path / "nogit"
    d.mkdir()
    (d / "BENCH_DETAIL.json").write_text(json.dumps({"queries": {"x": 1.5}}))
    assert load_prior_detail(str(d)) == {"x": 1.5}


def test_missing_everything_is_empty(tmp_path, monkeypatch):
    monkeypatch.delenv("BENCH_PRIOR_DETAIL", raising=False)
    d = tmp_path / "empty"
    d.mkdir()
    assert load_prior_detail(str(d)) == {}
