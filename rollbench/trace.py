"""The traced run: spans around each layer call and the per-layer metrics.

The timed runs never trace.  A traced run times one untraced job, then runs
the same job again with a span recorded around every call into a layer,
and ``materialize()`` after each call so a layer's Ray work finishes inside
its own span.  For the copy workloads the spans come from wrapping the
engine functions ``run_copy`` calls (``pages_to_samples``, ``rollup_raw``,
``rollup_up``, ``write_tier``, ``read_tier``, ``invalidate_days``) for the
duration of that one job, so the real orchestration is what gets traced.
Each span carries the ``Dataset.stats()`` rows of the operators its call
executed.  After a copy job the traced run audits its output with the
verify job, so the ``verify`` layer is traced on every workload.  Spans
stay in memory and are written out when the run ends.

Layers are the engine's modules: ``extract`` (stages/extract.py via
pipelines/copy.py), ``rollup`` (stages/rollup.py), ``manifest``
(state/manifest.py), ``verify`` (pipelines/verify.py) and ``copy``
(run_copy's own orchestration).  ``codec`` and ``kernel`` are in-process,
single-core microbenchmarks with no Ray.
"""

from __future__ import annotations

import contextlib
import os
import re
import statistics
import time

import numpy as np

from .corpus import TIERS, read_tier_table, tier_files

LAYERS = ("extract", "rollup", "manifest", "verify", "copy")


class Tracer:
    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "run_id": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "attrs": dict(attrs)}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, prefix: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == prefix or s["name"].startswith(prefix + ".")]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their children cover
        (children of one span run one after another)."""
        child = {s["id"]: 0.0 for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            layer = s["name"].split(".")[0]
            if layer in out:
                out[layer] += (s["end"] - s["start"]) - child[s["id"]]
        return out


# -- Dataset.stats() --------------------------------------------------------

def operator_rows(ds) -> list[dict]:
    """One row per operator this dataset's own execution ran (stops at the
    previously materialized parent)."""
    rows = []

    def walk(summary, top: bool) -> None:
        if not top and summary.dataset_uuid != "unknown_uuid":
            return
        for op in summary.operators_stats:
            blocks = re.search(r"(\d+) blocks produced", op.block_execution_summary_str or "")
            rows.append({
                "op": op.operator_name,
                "wall_s": (op.wall_time or {}).get("sum", 0.0),
                "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                "udf_s": (op.udf_time or {}).get("sum", 0.0),
                "rows": (op.output_num_rows or {}).get("sum", 0),
                "tasks": (op.task_rows or {}).get("count", 0),
                "blocks": int(blocks.group(1)) if blocks else 0,
            })
        for parent in summary.parents:
            walk(parent, False)

    walk(ds._get_stats_summary(), True)
    return rows


def block_rows(ds) -> list[int]:
    return [m.num_rows for b in ds.iter_internal_ref_bundles() for _, m in b.blocks]


# -- instrumentation of the copy path ----------------------------------------

@contextlib.contextmanager
def instrument(tr: Tracer):
    """Wrap the layer functions ``run_copy`` calls with spans for one job."""
    import prom_tsdb_copyer_ray.pipelines.copy as copy_mod
    import prom_tsdb_copyer_ray.state.manifest as manifest_mod

    orig = {n: getattr(copy_mod, n) for n in
            ("pages_to_samples", "rollup_raw", "rollup_up", "write_tier", "read_tier")}
    orig_invalidate = manifest_mod.invalidate_days

    def pages_to_samples(pages_ds, *a, **kw):
        with tr.span("extract") as sp:
            ds = orig["pages_to_samples"](pages_ds, *a, **kw).materialize()
            sp["attrs"].update(ops=operator_rows(ds), rows_out=ds.count())
        return ds

    def rollup(fn, tier, finer_ds, *a, **kw):
        with tr.span(f"rollup.{tier}") as sp:
            rows_in = finer_ds.count()
            ds = orig[fn](finer_ds, tier, *a, **kw).materialize()
            sp["attrs"].update(ops=operator_rows(ds), rows_in=rows_in, rows_out=ds.count(),
                               block_rows=block_rows(ds))
        return ds

    def write_tier(ds, out_dir, tier, *a, **kw):
        days_before = len(manifest_mod.load_manifest(out_dir, tier)["days"])
        with tr.span(f"manifest.write.{tier}") as sp:
            m = orig["write_tier"](ds, out_dir, tier, *a, **kw)
        files = tier_files(out_dir, tier)
        sp["attrs"].update(files=len(files), bytes=sum(os.path.getsize(f) for f in files),
                           days_written=len(m["days"]) - days_before)
        return m

    def read_tier(out_dir, tier):
        with tr.span(f"manifest.read.{tier}"):
            return orig["read_tier"](out_dir, tier).materialize()

    def invalidate_days(out_dir, tier, days):
        with tr.span(f"manifest.evict.{tier}") as sp:
            evicted = orig_invalidate(out_dir, tier, days)
            sp["attrs"]["evicted"] = len(evicted)
        return evicted

    patched = {
        "pages_to_samples": pages_to_samples,
        "rollup_raw": lambda ds, tier="5m", *a, **kw: rollup("rollup_raw", tier, ds, *a, **kw),
        "rollup_up": lambda ds, tier, *a, **kw: rollup("rollup_up", tier, ds, *a, **kw),
        "write_tier": write_tier,
        "read_tier": read_tier,
    }
    try:
        for name, fn in patched.items():
            setattr(copy_mod, name, fn)
        manifest_mod.invalidate_days = invalidate_days
        yield
    finally:
        for name, fn in orig.items():
            setattr(copy_mod, name, fn)
        manifest_mod.invalidate_days = orig_invalidate


def traced_job(workload, out_dir: str, tr: Tracer):
    root = "verify" if workload.name == "verify" else "copy"
    with tr.span(root):
        if root == "verify":
            return workload.run(out_dir, tr)
        with instrument(tr):
            return workload.run(out_dir)


# -- in-process microbenchmarks (one core, no Ray) ---------------------------

def _rate(tr: Tracer, name: str, fn, work: int, min_s: float = 0.3, max_reps: int = 30) -> float:
    times = []
    with tr.span(name, work=work):
        while sum(times) < min_s and len(times) < max_reps:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    return work / statistics.median(times)


def microbenches(tr: Tracer, pages) -> dict:
    """Per-core kernel and codec throughput on this run's base corpus."""
    from prom_tsdb_copyer_ray.codec import (decode_chunk, encode_timestamps_many,
                                            encode_values_many)
    from prom_tsdb_copyer_ray.stages.extract import PageToSamples
    from prom_tsdb_copyer_ray.stages.rollup import _rollup_merge_group, _rollup_raw_group
    from prom_tsdb_copyer_ray.windows import TIERS as TIER_MS

    extractor = PageToSamples("strict")
    samples = extractor(pages)
    t5 = _rollup_raw_group(samples, "5m")
    n_samples = t5["n_samples"].to_numpy()
    offsets = np.concatenate([[0], np.cumsum(n_samples)])
    ts_bufs, val_bufs = t5["ts_bytes"].to_pylist(), t5["val_bytes"].to_pylist()

    def decode_all():
        return [decode_chunk(a, b, int(n)) for a, b, n in zip(ts_bufs, val_bufs, n_samples)]

    decoded = decode_all()
    ts = np.concatenate([d[0] for d in decoded])
    vals = np.concatenate([d[1] for d in decoded])
    points = int(offsets[-1])
    return {
        "samples": samples.num_rows,
        "kernel.extract_pages_per_s": _rate(tr, "kernel.extract", lambda: extractor(pages),
                                            pages.num_rows),
        "kernel.rollup_raw_rows_per_s": _rate(tr, "kernel.rollup_raw",
                                              lambda: _rollup_raw_group(samples, "5m"),
                                              samples.num_rows),
        "kernel.rollup_merge_rows_per_s": _rate(
            tr, "kernel.rollup_merge",
            lambda: _rollup_merge_group(t5, "1h", TIER_MS["5m"]), t5.num_rows),
        "codec.encode_ts_pts_per_s": _rate(tr, "codec.encode_ts",
                                           lambda: encode_timestamps_many(ts, offsets), points),
        "codec.encode_val_pts_per_s": _rate(tr, "codec.encode_val",
                                            lambda: encode_values_many(vals, offsets), points),
        "codec.decode_pts_per_s": _rate(tr, "codec.decode", decode_all, points),
    }


# -- per-layer metrics ------------------------------------------------------

def _sum_ops(spans: list[dict], key: str) -> float:
    return float(sum(op[key] for s in spans for op in s["attrs"].get("ops", [])))


def layer_metrics(tr: Tracer, workload, out_dir: str, untraced_s: float, micro: dict,
                  late_pages: int) -> dict:
    """Every per-layer metric; a layer the traced run does not reach reads 0."""
    m: dict[str, float] = {}
    extract = tr.named("extract")
    m["extract.wall_s"] = tr.total("extract")
    m["extract.cpu_s"] = _sum_ops(extract, "cpu_s")
    pages_in = sum(op["rows"] for s in extract for op in s["attrs"]["ops"]
                   if op["op"].startswith("ReadParquet"))
    samples_out = sum(s["attrs"]["rows_out"] for s in extract)
    m["extract.pages_in"] = pages_in
    m["extract.samples_out"] = samples_out

    for tier in TIERS:
        spans = [s for s in tr.spans if s["name"] == f"rollup.{tier}"]
        wall, udf = tr.total(f"rollup.{tier}"), _sum_ops(spans, "udf_s")
        blocks = [r for s in spans for r in s["attrs"]["block_rows"]]
        m[f"rollup.{tier}.wall_s"] = wall
        m[f"rollup.{tier}.udf_s"] = udf
        m[f"rollup.{tier}.exchange_s"] = wall - udf
        m[f"rollup.{tier}.rows_in"] = sum(s["attrs"]["rows_in"] for s in spans)
        m[f"rollup.{tier}.rows_out"] = sum(s["attrs"]["rows_out"] for s in spans)
        m[f"rollup.{tier}.blocks_out"] = len(blocks)
        m[f"rollup.{tier}.tasks"] = _sum_ops(spans, "tasks")
        m[f"rollup.{tier}.shard_skew"] = (max(blocks) / statistics.mean(blocks)
                                          if blocks and sum(blocks) else 0.0)

    t5 = read_tier_table(out_dir, "5m")
    samples_in = m["rollup.5m.rows_in"] or micro["samples"]
    m["rollup.5m.dedup_kept_frac"] = float(np.sum(t5["agg_count"].to_numpy())) / samples_in

    for key in ("encode_ts_pts_per_s", "encode_val_pts_per_s", "decode_pts_per_s"):
        m[f"codec.{key}"] = micro[f"codec.{key}"]
    points = {}
    for tier in TIERS:
        t = t5 if tier == "5m" else read_tier_table(out_dir, tier)
        nbytes = sum(len(b) for b in t["ts_bytes"].to_pylist()) + \
            sum(len(b) for b in t["val_bytes"].to_pylist())
        points[tier] = int(np.sum(t["n_samples"].to_numpy()))
        m[f"codec.bytes_per_point.{tier}"] = nbytes / points[tier]
    for key in ("rollup_raw_rows_per_s", "rollup_merge_rows_per_s", "extract_pages_per_s"):
        m[f"kernel.{key}"] = micro[f"kernel.{key}"]

    for tier in TIERS:
        writes = [s for s in tr.spans if s["name"] == f"manifest.write.{tier}"]
        m[f"manifest.write.{tier}.wall_s"] = tr.total(f"manifest.write.{tier}")
        m[f"manifest.write.{tier}.files"] = writes[-1]["attrs"]["files"] if writes else 0
        m[f"manifest.write.{tier}.bytes"] = writes[-1]["attrs"]["bytes"] if writes else 0
    for tier in TIERS:
        m[f"manifest.read.{tier}.wall_s"] = tr.total(f"manifest.read.{tier}")
    m["manifest.days_evicted"] = sum(s["attrs"]["evicted"] for s in tr.named("manifest.evict"))
    m["manifest.days_rewritten"] = sum(s["attrs"]["days_written"]
                                       for s in tr.named("manifest.write"))
    late = workload.name == "late_resume"
    m["late.pages_reextracted"] = pages_in if late else 0
    m["late.reextract_ratio"] = pages_in / late_pages if late else 0.0

    for tier in TIERS:
        m[f"verify.{tier}.wall_s"] = tr.total(f"verify.{tier}")
    audits = [s["attrs"] for s in tr.spans if s["name"] in {f"verify.{t}" for t in TIERS}]
    m["verify.chunks"] = sum(a["rows"] for a in audits)
    # the audit decodes every chunk of every tier, decoded_points the 5m tier again
    m["verify.points_decoded"] = sum(points.values()) + sum(
        s["attrs"]["points"] for s in tr.spans if s["name"] == "verify.decode")
    m["verify.bad_rows"] = sum(a["bad_rows"] for a in audits)

    for layer, s in tr.self_times().items():
        m[f"self_s.{layer}"] = s
    traced = tr.total("verify" if workload.name == "verify" else "copy")
    m["trace.traced_s"] = traced
    m["trace.untraced_s"] = untraced_s
    m["trace.overhead_s"] = traced - untraced_s
    return m

