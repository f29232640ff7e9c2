#!/usr/bin/env python3
"""Rollup benchmark: one workload, one seed, one closed-loop client.

    python3 rollbench/run.py --workload flagship --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run generates its seeded inputs,
starts a local Ray with ``num_cpus`` = ``nproc``, runs one untimed warm-up
job (part of ``setup_s``; its output is the committed state that
``late_resume`` and ``verify`` start from), then runs jobs back to back for
``--seconds`` and checks every job's output.  ``--trace 1`` instead runs
one untimed-overhead job and one traced job and reports the per-layer
metrics.  The last stdout line is the JSON result; details (host facts,
per-job samples, spans) go to ``.rollbench/results/``.

Exit codes: 0 all checks passed; 1 a named check failed (printed as
``check failed: <name>``); 2 the run could not start; 3 timeout.
"""

from __future__ import annotations

import time

T_START = time.time()

import argparse
import json
import os
import shutil
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from rollbench.harness import (  # noqa: E402
    WORK, BenchTimeout, CheckFailed, Deadline, RayCluster, RssSampler, host_facts, nproc,
)

DEFAULT_PAGES = 6000
DEFAULT_LATE_PAGES = 1000
RUN_TIMEOUT_S = 170  # the whole run, set-up included


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("flagship", "late_resume", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pages", type=int, default=DEFAULT_PAGES,
                    help="base corpus size (pages over 7 days)")
    ap.add_argument("--late-pages", type=int, default=DEFAULT_LATE_PAGES)
    return ap.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_engine() -> None:
    import ray  # noqa: F401
    import ray.data  # noqa: F401

    import prom_tsdb_copyer_ray.pipelines.copy  # noqa: F401
    import prom_tsdb_copyer_ray.pipelines.verify  # noqa: F401


def measure(workload, seconds: float) -> tuple[list[dict], float]:
    """Closed loop: jobs back to back until ``seconds`` have passed.
    Returns per-job samples and the peak RSS in bytes."""
    from rollbench.workloads import output_stats

    jobs = []
    with RssSampler() as rss:
        stop_at = time.perf_counter() + seconds
        while not jobs or time.perf_counter() < stop_at:
            out = workload.prepare()
            t0 = time.perf_counter()
            info = workload.run(out)
            wall = time.perf_counter() - t0
            jobs.append({"wall_s": wall, "failed": workload.check(out, info),
                         **output_stats(out, workload.raw_points)})
            workload.finish(out)
    return jobs, rss.peak_bytes


def end_to_end(workload, jobs, peak_rss: int, setup_s: float) -> dict:
    walls = [j["wall_s"] for j in jobs]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "pages_per_s": statistics.median(workload.pages / w for w in walls),
        "points_per_s": statistics.median(workload.points / w for w in walls),
        "peak_rss_mb": peak_rss / 1e6,
        "output_bytes_per_point": statistics.median(j["output_bytes_per_point"] for j in jobs),
        "output_files": statistics.median(j["output_files"] for j in jobs),
    }


def traced(workload, bench, run_id: str) -> tuple[list[dict], dict, list]:
    from rollbench.corpus import output_digests
    from rollbench.trace import Tracer, layer_metrics, microbenches, traced_job
    from rollbench.workloads import copy_job, verify_job

    out = workload.prepare()
    t0 = time.perf_counter()
    info = workload.run(out)
    untraced_s = time.perf_counter() - t0
    jobs = [{"wall_s": untraced_s, "failed": workload.check(out, info)}]
    workload.finish(out)

    tr = Tracer(run_id)
    out = workload.prepare()
    info = traced_job(workload, out, tr)
    failed = workload.check(out, info)
    if workload.name == "late_resume":
        # the resumed output must equal a fresh run over the combined input
        fresh = bench.job_dir()
        copy_job(bench.inputs.all_files, fresh)
        if output_digests(fresh) != output_digests(out):
            failed.append("late_equals_fresh")
        shutil.rmtree(fresh, ignore_errors=True)
    if workload.name != "verify":
        # audit the job's output so the verify layer is traced on every workload
        with tr.span("verify"):
            audits = verify_job(out, tr)["audits"]
        failed += [f"verify_bad_rows.{t}" for t, a in audits.items() if a["bad_rows"]]
    jobs.append({"wall_s": tr.total("verify" if workload.name == "verify" else "copy"),
                 "failed": failed})
    micro = microbenches(tr, bench.inputs.base_pages)
    metrics = layer_metrics(tr, workload, out, untraced_s, micro,
                            bench.inputs.late_pages.num_rows)
    workload.finish(out)
    metrics["jobs.failed_frac"] = sum(bool(j["failed"]) for j in jobs) / len(jobs)
    return jobs, metrics, tr.spans


def run(args, t_start: float) -> int:
    try:
        import_engine()
    except ImportError as e:
        print(f"check failed: engine_import ({e})", file=sys.stderr)
        return 2
    import_s = time.time() - t_start

    from rollbench.corpus import oracle_digests, write_inputs
    from rollbench.workloads import WORKLOADS, Bench

    wanted = declared_metrics(args.trace)
    num_cpus = nproc()
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir = os.path.join(WORK, "runs", run_id)
    cluster = RayCluster(num_cpus)
    host = host_facts(num_cpus)
    try:
        inputs = write_inputs(os.path.join(run_dir, "in"), args.seed, args.pages,
                              args.late_pages)
        expected_base = oracle_digests(inputs.base_pages, "base:" + inputs.digest)
        expected_combined = None
        if args.workload == "late_resume":
            import pyarrow as pa

            expected_combined = oracle_digests(
                pa.concat_tables([inputs.base_pages, inputs.late_pages]),
                "combined:" + inputs.digest)

        t0 = time.perf_counter()
        cluster.start()
        ray_up_s = time.perf_counter() - t0
        bench = Bench(run_dir, inputs, expected_base, expected_combined)
        t0 = time.perf_counter()
        bench.warm_up()
        warmup_s = time.perf_counter() - t0
        setup_failed = bench.check_committed()
        if setup_failed:
            raise CheckFailed(", ".join(setup_failed))
        setup_s = import_s + ray_up_s + warmup_s
        workload = WORKLOADS[args.workload](bench)

        spans = []
        if args.trace:
            jobs, metrics, spans = traced(workload, bench, run_id)
        else:
            jobs, peak_rss = measure(workload, args.seconds)
            metrics = end_to_end(workload, jobs, peak_rss, setup_s)
    except CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    finally:
        cluster.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"check failed: metrics_missing ({', '.join(missing)})", file=sys.stderr)
        return 1
    failed = [j for j in jobs if j["failed"]]
    host["loadavg_end"] = list(os.getloadavg())
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pages": args.pages, "late_pages": args.late_pages,
        "input_digest": inputs.digest, "late_day": inputs.late_day, "host": host,
        "setup": {"import_s": import_s, "ray_up_s": ray_up_s, "warmup_s": warmup_s},
        "jobs": jobs, "metrics": metrics, "spans": spans,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    detail_path = os.path.join(WORK, "results", f"{run_id}.json")
    with open(detail_path, "w") as f:
        json.dump(detail, f, indent=1)
    print(json.dumps({"host": host, "input_digest": inputs.digest, "detail": detail_path,
                      "job_walls_s": [j["wall_s"] for j in jobs]}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }), flush=True)
    for j in failed:
        print(f"check failed: {', '.join(j['failed'])}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with Deadline(RUN_TIMEOUT_S):
            return run(args, T_START)
    except BenchTimeout as e:
        print(f"check failed: timeout ({e})", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
