"""CLI entry point (operator O20, ``parseArgs`` ``main.go:113-165`` analogue).

Flag surface mirrors the reference's (env-var mirrors ``COPYER_*`` included),
re-mapped to the Ray engine:

  source                 pages Parquet path/dir (the source TSDB dir analogue)
  target                 output dir for tiers + manifests
  -l/--label-query       matchers ``k=v|k!=v|k=~v|k!~v`` (default: all series)
  -L/--label-append      blind-upsert relabels ``k=v`` (``main.go:43-45``)
  -F/--from, -T/--to     time range (RFC3339-ish, O16); default: discovered
  -S/--query-duration    group-window minutes (memory knob, ``main.go:121``)
  -t/--thread            max concurrent extraction tasks (``pool.go`` analogue)
  --show-metrics         print the manifest summary (O18 analogue)

Run via ``python -m prom_tsdb_copyer_ray.cli SOURCE TARGET [flags]`` — the
module is `ray job submit`-able (it owns its Ray session, guarded).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

# the reference accepts these two layouts with/without zone (main.go:21-24)
_TIME_LAYOUTS = ["%Y-%m-%dT%H:%M:%S%z", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d%z", "%Y-%m-%d"]


def parse_time_ms(s: str) -> int:
    """O16: try layouts with/without zone; naive times use the LOCAL zone.

    Reference parity: ``tryParseTimeWithZone`` falls back to
    ``time.ParseInLocation(..., time.Local)`` (main.go:21-33), so a zone-less
    ``-F/-T`` selects the same range here as there on any host timezone.
    ``datetime.astimezone()`` on a naive datetime attaches the system local
    zone.  Pass an explicit offset (e.g. ``+00:00``) for zone-independence.
    """
    for layout in _TIME_LAYOUTS:
        try:
            dt = datetime.strptime(s, layout)
        except ValueError:
            continue
        if dt.tzinfo is None:
            dt = dt.astimezone()  # naive -> system local zone, like time.Local
        return int(dt.timestamp() * 1000)
    raise ValueError(f"unparseable time: {s!r}")


def _env_default(name: str, default):
    return os.environ.get(f"COPYER_{name}", default)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="prom-tsdb-copyer-ray", description=__doc__)
    p.add_argument("source", help="pages parquet file/dir (url, warc_ts, html, text, lang)")
    p.add_argument("target", help="output directory (tiers/ + manifests/)")
    p.add_argument("-l", "--label-query", action="append", default=None,
                   help="matcher k=v | k!=v | k=~v | k!~v (repeatable)")
    p.add_argument("-L", "--label-append", action="append", default=None,
                   help="blind-upsert label k=v (repeatable; overwrites without checking)")
    p.add_argument("-F", "--from", dest="time_from", default=_env_default("FROM", None))
    p.add_argument("-T", "--to", dest="time_to", default=_env_default("TO", None))
    p.add_argument("-S", "--query-duration-min", type=int,
                   default=int(_env_default("QUERY_DURATION", 24 * 60)),
                   help="rollup group-window minutes (memory knob)")
    p.add_argument("-t", "--thread", type=int, default=int(_env_default("THREAD", 0)),
                   help="max concurrent extraction tasks/actors (0 = let Ray "
                        "schedule up to num_cpus)")
    p.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    p.add_argument("--validate", choices=["strict", "count", "off"], default="strict")
    p.add_argument("--retention-before", action="append", default=None,
                   metavar="[TIER=]TIME",
                   help="after the copy, DELETE committed day partitions "
                        "older than TIME and ratchet the manifest retention "
                        "watermark (a resume treats expired days as done). "
                        "Repeatable with TIER=TIME (e.g. 5m=2024-02-01 "
                        "1h=2023-01-01) for the classic keep-raw-short / "
                        "keep-downsampled-long policy; bare TIME applies "
                        "to every tier")
    p.add_argument("--compact-after", action="store_true",
                   help="merge each committed partition's part files into "
                        "one sorted file after the copy (compact.go analog)")
    p.add_argument("--format", choices=["parquet", "jsonl", "csv", "orc"],
                   default="parquet",
                   help="pages source format (parquet gets predicate/"
                        "partition pushdown; others normalize then filter)")
    p.add_argument("--show-metrics", action="store_true")
    p.add_argument("--dry-run", action="store_true",
                   help="print the backfill plan (per tier: day partitions "
                        "pending vs committed) from Parquet footers + "
                        "manifests ALONE — no data pages read, nothing "
                        "written")
    return p


def plan_dry_run(source: str, target: str, t_from, t_to) -> dict:
    """Metadata-only backfill plan: source day span from footer time stats
    (O2 machinery), minus each tier's committed days from its manifest —
    what a resume would actually compute, without reading a data page."""
    from .sources.parquet import range_from_metadata
    from .state.manifest import completed_days, retention_watermark
    from .windows import MS_1D

    rng = range_from_metadata(source, "warc_ts")
    plan: dict = {"source_range_ms": None, "tiers": {}}
    if rng is None:
        plan["note"] = "no footer stats; a run would scan to discover range"
        return plan
    lo, hi, _n = rng
    if t_from is not None:
        lo = max(lo, t_from)
    if t_to is not None:
        hi = min(hi, t_to)
    plan["source_range_ms"] = [int(lo), int(hi)]
    # manifest day keys are window-day START ms (state/manifest.add_day)
    days = ([d * MS_1D for d in range(lo // MS_1D, hi // MS_1D + 1)]
            if lo <= hi else [])
    for tier in ("5m", "1h", "1d"):
        done = completed_days(target, tier)
        wm = retention_watermark(target, tier)
        pending = [d for d in days if d not in done and d >= wm]
        plan["tiers"][tier] = {
            "days_total": len(days),
            "days_done": len(days) - len(pending),
            "pending_days": pending,
        }
    return plan


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .functions.matchers import default_matchers, parse_matchers
    from .pipelines.copy import run_copy
    from .state.manifest import manifest_summary

    matchers = (
        parse_matchers(args.label_query) if args.label_query else default_matchers()
    )
    relabels = {}
    for kv in args.label_append or []:
        k, _, v = kv.partition("=")
        relabels[k] = v

    t_from = parse_time_ms(args.time_from) if args.time_from else None
    t_to = parse_time_ms(args.time_to) if args.time_to else None

    if args.dry_run:
        if args.format != "parquet":
            print(json.dumps({"note": "dry-run needs parquet footers"}))
            ray.shutdown()
            return 0
        print(json.dumps(plan_dry_run(args.source, args.target, t_from, t_to),
                         sort_keys=True))
        ray.shutdown()
        return 0

    def pages_factory():
        # -F/-T push into the Parquet scan (file pruning + row-group stats +
        # exact row filter) and `=` matchers on physical page columns push
        # too; the FULL matcher set still runs at sample level in run_copy
        # (page-level pushing only ever removes pages whose samples the
        # label kernel would drop anyway), so apply_residual=False here.
        from .sources.parquet import read_pruned

        if args.format != "parquet":
            # no pushdown for row formats: normalize, then the same -F/-T
            # page filter parquet's residual would apply
            from .sources import formats as fmt

            reader = {"jsonl": fmt.read_pages_jsonl, "csv": fmt.read_pages_csv,
                      "orc": fmt.read_pages_orc}[args.format]
            ds = reader(args.source)
            if t_from is not None or t_to is not None:
                import pyarrow.compute as pc

                from .windows import ts_to_ms

                def tfilter(batch):
                    ms = ts_to_ms(batch["warc_ts"])
                    keep = None
                    if t_from is not None:
                        keep = pc.greater_equal(ms, t_from)
                    if t_to is not None:
                        hi = pc.less(ms, t_to)
                        keep = hi if keep is None else pc.and_(keep, hi)
                    return batch.filter(keep)

                ds = ds.map_batches(tfilter, batch_format="pyarrow")
            return ds
        return read_pruned(
            args.source,
            ts_col="warc_ts",
            t_from_ms=t_from,
            t_to_ms=t_to,
            matchers=matchers,
            apply_residual=False,
        )

    # late-data invalidation (parquet only): record the input file set so a
    # re-run recomputes exactly the days new/grown files touch.  DISABLED
    # when -F/-T bounds the read: eviction assumes the run re-reads the
    # full input, and a time-pruned recompute would permanently drop
    # evicted days outside the bounds (review finding).
    input_files = None
    if args.format == "parquet" and t_from is None and t_to is None:
        from .sources.parquet import list_parquet_files

        input_files = list_parquet_files(args.source)

    manifests = run_copy(
        pages_factory,
        args.target,
        matchers=matchers,
        relabels=relabels or None,
        validate=args.validate,
        input_files=input_files,
        # -t > 0 caps concurrent extraction tasks (the reference's -T worker
        # cap); 0 = unbounded (Ray's scheduler packs up to num_cpus)
        concurrency=args.thread if args.thread > 0 else None,
        # -S: the rollup group window is the memory knob, exactly like the
        # reference's slice duration (main.go:121)
        group_window_ms=args.query_duration_min * 60_000,
        collect_metrics=args.show_metrics,
    )
    if args.retention_before:
        from .state.manifest import apply_retention_to_tier

        for spec in args.retention_before:
            tier_part, sep, time_part = spec.partition("=")
            if sep and tier_part in ("5m", "1h", "1d"):
                apply_retention_to_tier(args.target, tier_part,
                                        parse_time_ms(time_part))
            else:
                cutoff = parse_time_ms(spec)
                for tier in ("5m", "1h", "1d"):
                    apply_retention_to_tier(args.target, tier, cutoff)
    if args.compact_after:
        # the reference compacts merged blocks after all copies finish
        # (copyer.go:234-252) — here: parallel per-partition file merge
        from .pipelines.compact import compact_tier

        for tier in ("5m", "1h", "1d"):
            compact_tier(args.target, tier)
    if args.show_metrics:
        out = manifest_summary(args.target)
        # per-stage wall-time histograms (copyer.go:22-34 analogue)
        out["_timing"] = manifests.get("_metrics", {})
        print(json.dumps(out, sort_keys=True))
    else:
        print(json.dumps({t: m["status"] for t, m in manifests.items()}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
