#!/usr/bin/env python
"""Scale-evidence runners (round-3 verdict items 2 & 4) — each owns its
Ray session, so run them standalone (never inside another Ray job):

  python scripts/scale_evidence.py capped    [--store-gb 4] [--replicate 160]
      flagship on the scaling corpus with the object store capped far
      below the shuffle working set: proves the streaming executor
      SPILLS instead of OOMing (at 100 TB plasma never fits the
      shuffle).  Prints wall / peak RSS / spilled MB.

  python scripts/scale_evidence.py multinode [--nodes 4] [--replicate 40]
      flagship on a simulated multi-node cluster (ray.cluster_utils.
      Cluster: N raylets + N plasma stores on this host), so the three
      tier shuffles move blocks BETWEEN object stores — the closest this
      sandbox gets to cross-node transfer.  No code path special-cases
      single-node: the pipeline is identical, only ray.init differs.

  python scripts/scale_evidence.py multinode-battery [--nodes 4] [--top 50]
      the query battery's heaviest queries (top N by the last committed
      BENCH_DETAIL timings) on the same simulated cluster, each checked
      against its DuckDB oracle (round-4 verdict item 5: the battery's
      diverse shuffles — graph CC, LSH bands, range joins — had only
      ever run single-store).  Reports subset total vs the single-store
      timings and per-query oracle pass/fail.

Results are recorded in BASELINE.md; pytest smokes at tiny scale live in
tests/test_scale_evidence.py (marked 'scale').
"""
from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def single_store_ratio(timings: dict, prior: dict) -> dict:
    """Multi-store vs single-store battery time over the queries that HAVE a
    committed single-store timing; a query without one would otherwise add
    its multi-store time against a 0 s prior and inflate the ratio."""
    with_prior = [n for n in timings if n in prior]
    single = sum(prior[n] for n in with_prior)
    multi = sum(timings[n] for n in with_prior)
    return {
        "single_store_total_s": round(single, 1),
        "ratio_vs_single_store": round(multi / single, 2) if single else None,
        "n_missing": len(timings) - len(with_prior),
    }


def run_capped(args) -> dict:
    import ray

    import bench

    ray.init(
        address="local",
        num_cpus=args.cpus,
        object_store_memory=int(args.store_gb * (1 << 30)),
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    flag = bench.run_flagship(args.sf_dir, args.replicate, args.heavy)
    out = {
        "mode": "capped-object-store",
        "object_store_gb": args.store_gb,
        "num_cpus": args.cpus,
        "replicate": args.replicate,
        "heavy": args.heavy,
        "wall_s": round(flag["wall_s"], 3),
        "n_pages": flag["n_pages"],
        "pages_per_s": round(flag["pages_per_s"], 1),
        "peak_rss_mb": flag["peak_rss_mb"],
        "spilled_mb": bench._spill_stats_mb(),
        "tiers": flag["tiers"],
    }
    ray.shutdown()
    return out


def run_multinode(args) -> dict:
    # simulated fixed-size cluster: N raylets, N plasma stores, one host.
    # Ray Data schedules read/extract/shuffle tasks across all nodes and
    # blocks transfer between object stores over the loopback transport.
    import ray

    import bench

    cluster = _start_cluster(args)
    n_alive = len([n for n in ray.nodes() if n["Alive"]])
    flag = bench.run_flagship(args.sf_dir, args.replicate, args.heavy)
    out = {
        "mode": "simulated-multinode",
        "n_nodes": n_alive,
        "cpus_per_node": args.cpus // args.nodes,
        "object_store_gb_per_node": args.store_gb,
        "replicate": args.replicate,
        "heavy": args.heavy,
        "wall_s": round(flag["wall_s"], 3),
        "n_pages": flag["n_pages"],
        "pages_per_s": round(flag["pages_per_s"], 1),
        "peak_rss_mb": flag["peak_rss_mb"],
        "tiers": flag["tiers"],
    }
    ray.shutdown()
    cluster.shutdown()
    return out


def _start_cluster(args):
    """Bring up the simulated fixed-size cluster (N raylets, N plasma
    stores on this host) and connect the driver to it."""
    os.environ.setdefault("RAY_DEDUP_LOGS", "1")
    import ray
    from ray.cluster_utils import Cluster

    store = int(args.store_gb * (1 << 30))
    cluster = Cluster(
        initialize_head=True,
        head_node_args={
            "num_cpus": args.cpus // args.nodes,
            "object_store_memory": store,
            "include_dashboard": False,
        },
    )
    for _ in range(args.nodes - 1):
        cluster.add_node(num_cpus=args.cpus // args.nodes,
                         object_store_memory=store)
    cluster.wait_for_nodes()
    ray.init(address=cluster.address, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return cluster


def run_multinode_battery(args) -> dict:
    """Top-N battery queries across the simulated cluster, each compared
    against its DuckDB oracle with the driver's exact semantics."""
    import time

    import ray

    import bench

    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "scripts"))
    import oracle_sweep

    import duckdb
    import pandas as pd

    # subset = heaviest N queries of the last committed single-store
    # battery — the shuffles worth exercising across object stores
    prior = bench.load_prior_detail(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    cluster = _start_cluster(args)
    n_alive = len([n for n in ray.nodes() if n["Alive"]])
    from prom_tsdb_copyer_ray.pipelines.queries import QUERIES
    import __ray_entry__ as entry

    osql = entry.oracle_sql()
    ranked = [n for n, _ in sorted(prior.items(), key=lambda kv: -kv[1])
              if n in QUERIES and n not in bench.SKIP_IN_BENCH]
    subset = ranked[:args.top] if ranked else list(QUERIES)[:args.top]

    con = duckdb.connect()
    for t in oracle_sweep.TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{args.sf_dir}/{t}.parquet')")

    import gc

    timings, failures, n_oracled = {}, [], 0
    t0 = time.monotonic()
    for name in subset:
        tq = time.monotonic()
        got = None
        try:
            got = QUERIES[name](args.sf_dir)
            got = got.to_pandas() if hasattr(got, "to_pandas") else got
            timings[name] = round(time.monotonic() - tq, 3)
            if name in osql:
                n_oracled += 1
                g = oracle_sweep.norm(got)
                w = oracle_sweep.norm(con.execute(osql[name]).df())
                assert list(g.columns) == list(w.columns), (
                    f"cols {list(g.columns)} != {list(w.columns)}")
                pd.testing.assert_frame_equal(g, w, check_dtype=False)
        except Exception as ex:  # noqa: BLE001 - report and continue
            timings.setdefault(name, round(time.monotonic() - tq, 3))
            failures.append({"query": name, "err": str(ex)[:200]})
        del got
        gc.collect()
    total = time.monotonic() - t0
    out = {
        "mode": "simulated-multinode-battery",
        "n_nodes": n_alive,
        "cpus_per_node": args.cpus // args.nodes,
        "object_store_gb_per_node": args.store_gb,
        "sf": args.sf_dir,
        "subset": f"top-{args.top} by committed BENCH_DETAIL time",
        "n_queries": len(subset),
        "n_oracled": n_oracled,
        "n_oracle_failures": len(failures),
        "failures": failures,
        "total_s": round(total, 1),
        **single_store_ratio(timings, prior),
        "timings": timings,
    }
    ray.shutdown()
    cluster.shutdown()
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["capped", "multinode",
                                     "multinode-battery"])
    ap.add_argument("--sf-dir", default=os.environ.get(
        "GRAFT_SF_DIR", "/root/testdata/sf0.1"))
    ap.add_argument("--cpus", type=int, default=32)
    ap.add_argument("--nodes", type=int, default=4)
    ap.add_argument("--store-gb", type=float, default=None)
    ap.add_argument("--replicate", type=int, default=None)
    ap.add_argument("--heavy", type=int, default=None)
    ap.add_argument("--top", type=int, default=50,
                    help="multinode-battery: top-N queries by committed time")
    args = ap.parse_args()
    if args.mode == "capped":
        # defaults: the 8 GB scaling corpus with a 4 GB store
        args.store_gb = args.store_gb or 4.0
        args.replicate = args.replicate or 160
        args.heavy = args.heavy or 40
        print(json.dumps(run_capped(args)))
    elif args.mode == "multinode-battery":
        args.store_gb = args.store_gb or 2.0
        print(json.dumps(run_multinode_battery(args)))
    else:
        # defaults: the per-round 200k-page corpus, 2 GB store per node
        args.store_gb = args.store_gb or 2.0
        args.replicate = args.replicate or 40
        args.heavy = args.heavy or 1
        print(json.dumps(run_multinode(args)))


if __name__ == "__main__":
    main()
