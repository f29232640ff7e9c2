"""The benchmark's workloads and the checks run on every job's output.

Load model: one closed-loop client.  A job is one batch call into the
engine; the next job starts only after the previous one has finished and
been checked.  Preparing a job (restoring committed state) and checking its
output are not timed.

* ``flagship``    -- fresh ``run_copy`` of the 7-day corpus into an empty
  target; every layer is busy.
* ``late_resume`` -- restore the committed 7-day output, add one late file
  touching one committed day, rerun ``run_copy(input_files=...)``.
* ``verify``      -- ``verify_tier_chunks`` on the committed 5m/1h/1d tiers
  plus ``decoded_points`` on the 5m tier; extraction and shuffles idle.
"""

from __future__ import annotations

import contextlib
import os
import shutil

from .corpus import TIERS, Inputs, output_digests, tier_files


class NoTrace:
    """Tracer stand-in for the timed jobs: records nothing."""

    enabled = False

    def span(self, name, **attrs):
        return contextlib.nullcontext({"attrs": {}})


NO_TRACE = NoTrace()


def output_stats(out_dir: str, raw_points: int) -> dict:
    """Storage cost of a written output: Parquet files across the tiers."""
    files = tier_files(out_dir)
    nbytes = sum(os.path.getsize(f) for f in files)
    return {"output_files": len(files), "output_bytes": nbytes,
            "output_bytes_per_point": nbytes / raw_points}


def copy_job(files: list[str], out_dir: str) -> dict:
    """The user-facing batch job: pages files -> checkpointed tiers."""
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import run_copy

    return run_copy(lambda: ray.data.read_parquet(list(files)), out_dir,
                    input_files=list(files))


def verify_job(committed: str, tr=NO_TRACE) -> dict:
    """Audit every committed tier and decode the 5m tier's points."""
    from prom_tsdb_copyer_ray.pipelines.verify import decoded_points, verify_tier_chunks
    from prom_tsdb_copyer_ray.state.manifest import read_tier

    audits, ds5 = {}, None
    for tier in TIERS:
        with tr.span(f"manifest.read.{tier}"):
            ds = read_tier(committed, tier)
            if tr.enabled:
                ds = ds.materialize()
        if tier == "5m":
            ds5 = ds
        with tr.span(f"verify.{tier}") as sp:
            audits[tier] = verify_tier_chunks(ds)
            sp["attrs"].update(audits[tier])
    with tr.span("verify.decode") as sp:
        points = decoded_points(ds5).count()
        sp["attrs"]["points"] = points
    return {"audits": audits, "decoded_5m_points": points}


def check_digests(out_dir: str, expected: dict, prefix: str) -> list[str]:
    got = output_digests(out_dir)
    return [f"{prefix}.{t}" for t in TIERS if got[t] != expected[t]["digest"]]


class Bench:
    """Per-run state shared by the workloads: inputs, expected digests and
    the committed 7-day output that ``late_resume`` and ``verify`` start
    from."""

    def __init__(self, run_dir: str, inputs: Inputs, expected_base: dict,
                 expected_combined: dict | None) -> None:
        self.run_dir = run_dir
        self.inputs = inputs
        self.expected_base = expected_base
        self.expected_combined = expected_combined
        self.committed = os.path.join(run_dir, "committed")
        self._n = 0

    def warm_up(self) -> None:
        """The warm-up job: a fresh run over the base corpus, kept as the
        committed output."""
        copy_job(self.inputs.base_files, self.committed)

    def check_committed(self) -> list[str]:
        return check_digests(self.committed, self.expected_base, "committed_digest")

    def job_dir(self) -> str:
        self._n += 1
        return os.path.join(self.run_dir, f"job-{self._n}")


class Flagship:
    name = "flagship"

    def __init__(self, bench: Bench) -> None:
        self.b = bench
        self.pages = bench.inputs.base_pages.num_rows
        self.raw_points = self.points = bench.expected_base["5m"]["points"]

    def prepare(self) -> str:
        return self.b.job_dir()

    def run(self, out_dir: str, tr=NO_TRACE) -> dict:
        return copy_job(self.b.inputs.base_files, out_dir)

    def check(self, out_dir: str, info: dict) -> list[str]:
        return check_digests(out_dir, self.b.expected_base, "tier_digest")

    def finish(self, out_dir: str) -> None:
        shutil.rmtree(out_dir, ignore_errors=True)


class LateResume(Flagship):
    name = "late_resume"

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        self.pages = bench.inputs.base_pages.num_rows + bench.inputs.late_pages.num_rows
        self.raw_points = self.points = bench.expected_combined["5m"]["points"]

    def prepare(self) -> str:
        out = self.b.job_dir()
        shutil.copytree(self.b.committed, out)
        return out

    def run(self, out_dir: str, tr=NO_TRACE) -> dict:
        return copy_job(self.b.inputs.all_files, out_dir)

    def check(self, out_dir: str, info: dict) -> list[str]:
        return check_digests(out_dir, self.b.expected_combined, "late_digest")


class Verify:
    name = "verify"

    def __init__(self, bench: Bench) -> None:
        self.b = bench
        exp = bench.expected_base
        self.pages = bench.inputs.base_pages.num_rows
        self.raw_points = exp["5m"]["points"]
        # every tier's chunks are decoded by the audit, the 5m tier once more
        self.points = sum(exp[t]["points"] for t in TIERS) + exp["5m"]["points"]

    def prepare(self) -> str:
        return self.b.committed

    def run(self, out_dir: str, tr=NO_TRACE) -> dict:
        return verify_job(out_dir, tr)

    def check(self, out_dir: str, info: dict) -> list[str]:
        exp = self.b.expected_base
        failed = []
        for t in TIERS:
            audit = info["audits"][t]
            if audit["bad_rows"] != 0:
                failed.append(f"verify_bad_rows.{t}")
            if audit["rows"] != exp[t]["rows"]:
                failed.append(f"verify_rows.{t}")
        if info["decoded_5m_points"] != exp["5m"]["points"]:
            failed.append("verify_decoded_points")
        return failed

    def finish(self, out_dir: str) -> None:
        pass


WORKLOADS = {w.name: w for w in (Flagship, LateResume, Verify)}
