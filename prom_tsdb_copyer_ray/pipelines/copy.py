"""The flagship copy/rollup pipeline (operator O15, ``doCopy`` analogue).

End-to-end plan (SURVEY.md §3 Ray translation)::

    pages Dataset
      -> map_batches(_extract_batch, task pool)   # extraction, O8
      -> matcher filter kernel                    # O5 (before relabel, as
                                                  #  Select() runs before the
                                                  #  label rewrite, copyer.go:91)
      -> relabel kernel                           # O7
      -> rollup_cascade -> 5m + 1h + 1d rows      # O11 (encode) + O14 (merge)
      -> write_tiers: one TierSink write          # resumable, state/manifest
                      + every tier's manifest

The cascade is one ``stages.common.shard_apply`` call: an input of fewer
than ``SMALL_ROWS`` rows runs as one task, a larger one takes the hash-shard
sort exchange.  Each (group window, shard) call builds the 5m rows and
merges them into every coarser tier whose window divides the group window
(1h and 1d in the default day mode), and no tier is held in the object
store.  The size is known before anything executes: the pages' Parquet
footer row counts times the extractor's fixed fan-out
(``SAMPLES_PER_PAGE``) bound the samples.  So a day-mode run is ONE Ray
Data execution: small, the read tasks feed one fused extract -> cascade ->
write task; large, the extraction streams into the one exchange and the
write.  Only a pages input whose size the footers cannot give (a mapped or
non-Parquet Dataset) is extracted and materialized first, and so is a small
one whose pages would not fit one Ray block (the single task then receives
samples, not pages).

:func:`_run_tiers` is the one resumable 5m -> 1h -> 1d loop.
:func:`run_copy` drives it once; :func:`run_copy_samples` drives it for the
float samples and for each histogram type.  A complete tier is skipped (a
resumed run never recomputes it).  A tier the cascade does not build (a
sub-day group window that the tier's window does not divide, or a coarser
tier lost on resume) is rolled up from the finer tier with
``rollup_up`` — read back from Parquet, or kept in the object store when
this loop built it — so no lineage executes twice.

:func:`build_tiers` is the all-in-memory variant for driver queries/tests:
it materializes the collapsed 5m tier (small relative to input) before
branching so the extraction stage runs exactly once.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..functions.matchers import Matcher, make_filter_fn
from ..functions.relabel import make_relabel_fn
from ..stages import common
from ..stages.extract import SAMPLE_LABELS, SAMPLES_PER_PAGE, PageToSamples
from ..stages.rollup import cascade_tiers, rollup_cascade, rollup_raw, rollup_up
from ..state.manifest import load_manifest, read_tier, record_inputs, write_tier, write_tiers
from ..state.metrics import create_sink, drain_sink
from ..windows import MS_1D, TIER_PARENT, TIERS


_EXTRACTORS: dict[str, PageToSamples] = {}


def _extract_batch(batch, validate: str, metrics_sink=None):
    """Task-pool extraction kernel with per-worker-process singleton state.

    Ray reuses worker processes across tasks, so the extractor (compiled
    regexes etc.) is constructed once per worker — the same setup-once
    semantics as an actor ``__init__`` — while task scheduling avoids the
    actor-pool admission stalls seen when a large backlog of read output
    pins the object store before any actor starts (actors stuck "pending").
    """
    import time

    from ..state import metrics

    ex = _EXTRACTORS.get(validate)
    if ex is None:
        ex = _EXTRACTORS[validate] = PageToSamples(validate)
    t0 = time.monotonic()
    out = ex(batch)
    metrics.record(metrics_sink, {"extract_batch_ms": (time.monotonic() - t0) * 1000})
    return out


def pages_to_samples(
    pages_ds,
    matchers: Sequence[Matcher] | None = None,
    relabels: Mapping[str, str] | None = None,
    validate: str = "strict",
    batch_size: int = 4096,
    concurrency=None,
    metrics_sink=None,
):
    """pages -> filtered/relabeled samples Dataset (extraction stage).

    The task pool keeps once-per-worker extractor state through the module
    singleton and fuses with the read.  ``concurrency`` (int, or a
    (min, max) tuple whose max is taken) caps concurrent tasks — the CLI's
    ``-t`` / the reference's ``-T`` knob; ``None`` lets Ray pack up to the
    CPU count.
    """
    import functools

    max_tasks = None
    if concurrency is not None:
        max_tasks = int(concurrency[-1]) if isinstance(concurrency, (tuple, list)) else int(concurrency)
    samples = pages_ds.map_batches(
        functools.partial(_extract_batch, validate=validate, metrics_sink=metrics_sink),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=max_tasks,
    )
    if matchers:
        samples = samples.map_batches(make_filter_fn(matchers), batch_format="pyarrow")
    if relabels:
        samples = samples.map_batches(
            make_relabel_fn(relabels, SAMPLE_LABELS), batch_format="pyarrow"
        )
    return samples


def _sized_samples(pages_ds, samples_ds):
    """``(samples_ds, rows)``: ``rows`` bounds the samples from the pages'
    Parquet footers (``None`` when the footers cannot tell).

    A small bound lets the rollup fuse with the read's extraction, so one
    task holds every page of the job; that is allowed only while the pages'
    uncompressed footer bytes fit one Ray block
    (``DataContext.target_max_block_size``).  Otherwise the samples are
    materialized here, so the single task receives samples, never pages.
    """
    import ray.data
    from ray.data.context import DEFAULT_TARGET_MAX_BLOCK_SIZE

    if common.SMALL_ROWS <= 0:
        return samples_ds, None
    footprint = common.parquet_footprint(pages_ds, -(-common.SMALL_ROWS // SAMPLES_PER_PAGE))
    if footprint is None:
        return samples_ds, None
    pages, nbytes = footprint
    rows = pages * SAMPLES_PER_PAGE
    block = ray.data.DataContext.get_current().target_max_block_size or DEFAULT_TARGET_MAX_BLOCK_SIZE
    if rows < common.SMALL_ROWS and nbytes > block:
        samples_ds = samples_ds.materialize()
        return samples_ds, samples_ds.count()
    return samples_ds, rows


def build_tiers(
    pages_ds,
    matchers: Sequence[Matcher] | None = None,
    relabels: Mapping[str, str] | None = None,
    validate: str = "strict",
    tiers: Sequence[str] = ("5m", "1h", "1d"),
    group_window_ms: int | None = None,
    **kw,
):
    """In-memory tier chain; returns {tier: Dataset}.

    The 5m tier is materialized before fan-out (collapsed chunk rows, orders
    of magnitude smaller than the raw input) so upstream extraction executes
    once, not once per consumer.
    """
    samples = pages_to_samples(pages_ds, matchers, relabels, validate, **kw)
    out = {}
    t5 = rollup_raw(samples, "5m", group_window_ms=group_window_ms or MS_1D).materialize()
    out["5m"] = t5
    if "1h" in tiers or "1d" in tiers:
        t1h = rollup_up(t5, "1h").materialize()
        out["1h"] = t1h
        if "1d" in tiers:
            out["1d"] = rollup_up(t1h, "1d")
    return {t: out[t] for t in tiers}


def _run_tiers(out_dir: str, cascade, next_tier, must_run: bool,
               group_window_ms: int, prefix: str = "") -> dict:
    """The resumable 5m -> 1h -> 1d chain; returns {prefix + tier: manifest}.

    A tier whose manifest is complete is skipped unless ``must_run``.  When
    5m runs, ``cascade()`` builds the rows of every ``cascade_tiers`` tier
    from one exchange, and one :func:`write_tiers` commits all of the
    pending ones.  A pending tier the cascade did not build — one whose
    window does not divide a sub-day group window, or a coarser tier lost
    on resume — is built by ``next_tier(finer, tier)`` from the finer tier:
    in memory when the finer tier was built by this loop, else read back
    from its Parquet.  Such a tier is materialized when a later one consumes
    it (its write and the next tier both read it); the last one streams
    into its write.
    """
    manifests = {prefix + t: load_manifest(out_dir, prefix + t) for t in TIERS}
    pending = [t for t in TIERS
               if must_run or manifests[prefix + t]["status"] != "complete"]
    built: tuple[str, ...] = ()
    if pending and pending[0] not in TIER_PARENT:
        built = cascade_tiers(group_window_ms)
        manifests |= write_tiers(cascade(), out_dir,
                                 {t: prefix + t for t in built if t in pending},
                                 group_window_ms)
    finer = None
    for tier in pending:
        if tier in built:
            continue
        if finer is None:
            finer = read_tier(out_dir, prefix + TIER_PARENT[tier])
        ds = next_tier(finer, tier)
        if tier in TIER_PARENT.values() and tier != pending[-1]:
            ds = ds.materialize()
        manifests[prefix + tier] = write_tier(ds, out_dir, prefix + tier,
                                              group_window_ms=group_window_ms)
        finer = ds
    return manifests


def run_copy_samples(samples_ds, out_dir: str, group_window_ms: int | None = None) -> dict:
    """Mixed-value-type samples -> typed, checkpointed tiers.

    The reference's inner loop switches per sample among float / Histogram /
    FloatHistogram appenders writing into one block (``copyer.go:108-127``);
    here each type drives the tier loop on its own because the tier schemas
    differ (float chunks vs encoded bucket payloads):

    * ``float`` rows -> the standard 5m/1h/1d chunk cascade
      (``rollup_cascade``), manifests ``5m``/``1h``/``1d``;
    * ``histogram`` / ``float_histogram`` rows -> last-per-window histogram
      tiers with bit-encoded buckets (stages/histograms.py), manifests
      ``histogram_5m`` etc.  Coarser histogram tiers re-apply the same
      kernel on the finer rows (last-of-lasts; ts := finer max_ts).

    The input executes once: :func:`route_samples` materializes the
    type-checked samples before the split, and unknown value types
    hard-error there (the reference aborts, ``copyer.go:123-126``).  Every
    tier is recomputed and its write is resumable (day / sub-day group
    checkpoints).  Returns {manifest_key: manifest}.
    """
    import pyarrow as pa

    from ..stages.histograms import (
        HISTOGRAM_TYPES,
        finer_as_samples,
        rollup_histogram_cascade,
        rollup_histograms,
        route_samples,
    )

    gw = group_window_ms or MS_1D
    routed = route_samples(samples_ds)
    manifests: dict = {}

    def float_cols(batch: pa.Table) -> pa.Table:
        return batch.drop_columns([c for c in ("value_type", "h_count", "h_sum", "h_buckets")
                                   if c in batch.column_names])

    def hist_cols(batch: pa.Table) -> pa.Table:
        keep = ["series_key", "ts", "h_count", "h_sum", "h_buckets"]
        return batch.select([c for c in keep if c in batch.column_names])

    fs = routed["float"].map_batches(float_cols, batch_format="pyarrow").materialize()
    if fs.count():
        manifests |= _run_tiers(
            out_dir, lambda: rollup_cascade(fs, gw),
            lambda finer, tier: rollup_up(finer, tier), True, gw,
        )

    for vt in HISTOGRAM_TYPES:
        hs = routed[vt].map_batches(hist_cols, batch_format="pyarrow").materialize()
        if not hs.count():
            continue
        manifests |= _run_tiers(
            out_dir,
            lambda: rollup_histogram_cascade(hs, gw, value_type=vt),
            lambda finer, tier: rollup_histograms(
                finer.map_batches(finer_as_samples, batch_format="pyarrow"), tier,
                value_type=vt),
            True, gw, prefix=f"{vt}_",
        )
    return manifests


def _evict_changed_inputs(out_dir: str, input_files: Sequence[str]) -> bool:
    """Late-data check: True when any input file is new or grown since the
    last recorded run; every committed day such a file touches (by its
    Parquet footer time stats) is first evicted from every tier."""
    import os

    from ..sources.parquet import file_time_stats
    from ..state.manifest import invalidate_days, load_inputs

    recorded = load_inputs(out_dir)
    changed = [f for f in input_files if recorded.get(f) != os.path.getsize(f)]
    if changed and recorded:  # evict committed days the changed files touch
        days: set[int] | None = set()
        for f in changed:
            mn, mx, _n = file_time_stats(f, "warc_ts")
            if mn is None or mx is None:
                days = None  # no stats -> conservative full eviction
                break
            d0 = (mn // MS_1D) * MS_1D
            d1 = (mx // MS_1D) * MS_1D
            days.update(range(d0, d1 + MS_1D, MS_1D))
        for tier in TIERS:
            invalidate_days(out_dir, tier, days)
    return bool(changed)


def run_copy(
    pages_ds_factory,
    out_dir: str,
    matchers: Sequence[Matcher] | None = None,
    relabels: Mapping[str, str] | None = None,
    validate: str = "strict",
    group_window_ms: int | None = None,
    collect_metrics: bool = False,
    input_files: Sequence[str] | None = None,
    **kw,
) -> dict:
    """Checkpointed end-to-end run; returns {tier: manifest}.

    ``collect_metrics=True`` stands up a zero-CPU metrics sink for the run
    (state/metrics.py), killed when the run ends however it ends:
    extraction batches and rollup groups report wall-time samples, folded
    into histograms under the ``"_metrics"`` key of the returned dict — the
    reference's ``--show-metrics`` duration histograms
    (``copyer.go:22-34``).

    ``pages_ds_factory`` is a zero-arg callable returning the pages Dataset
    (a factory so a resumed run whose 5m tier is already complete never even
    constructs the read).  Each tier is written resumably, day-partitioned;
    a tier whose manifest is complete is skipped.

    ``input_files`` enables LATE-DATA invalidation: the run records the
    input file set (path + size) in ``manifests/inputs.json``; on resume,
    files that are new or grown since the last successful run have their
    Parquet FOOTER time stats read (metadata only — the O2 machinery), and
    every day they touch is evicted from every tier's checkpoint before
    the run, so late rows landing in an already-committed day recompute
    exactly those days instead of being silently skipped.  A new file
    without footer stats conservatively evicts everything.  Any input
    change re-runs every tier (a changed file whose days are all new would
    otherwise be skipped as "complete" yet recorded as processed);
    ``write_tier``'s committed-day filter keeps the recompute to the evicted
    and brand-new days, which also covers append-only ingest.  CONTRACT:
    pass ``input_files`` only when ``pages_ds_factory`` reads the FULL
    input — eviction + a time-pruned factory would drop evicted days
    outside the bounds (the CLI disables this under -F/-T for that reason).
    """
    gw = group_window_ms or MS_1D
    sink = create_sink() if collect_metrics else None
    try:
        must_run = input_files is not None and _evict_changed_inputs(out_dir, input_files)

        def cascade():
            pages = pages_ds_factory()
            samples, rows = _sized_samples(pages, pages_to_samples(
                pages, matchers, relabels, validate, metrics_sink=sink, **kw,
            ))
            return rollup_cascade(samples, gw, metrics_sink=sink, rows=rows)

        manifests = _run_tiers(
            out_dir, cascade,
            lambda finer, tier: rollup_up(finer, tier, metrics_sink=sink), must_run, gw,
        )
        if input_files is not None:
            record_inputs(out_dir, list(input_files))
        if sink is not None:
            manifests["_metrics"] = drain_sink(sink)
        return manifests
    finally:
        if sink is not None:
            import ray

            ray.kill(sink)
