"""End-to-end training-data curation flagship.

The copy flagship (pipelines/copy.py) is the reference's pipeline shape —
read -> per-record map -> tier shuffles -> resumable partitioned write
(``doCopy``, copyer.go:224-254).  This module is the same shape for corpus
curation, the other headline workload of a 100 TB engine:

    read documents -> normalize (curation.normalize_text_batch)
                   -> repetition/quality stats (curation.repetition_stats_batch)
                   -> threshold filter
                   -> exact content dedup (min-id winner per normalized text)
                   -> hash-shard partitioned Parquet + manifest (resumable)

Scale shape:

* every per-doc stage is a shuffle-free vectorized ``map_batches``;
* dedup winners are decided on (hash, n_bytes, id) triples through the
  sharded segment-min kernel — documents themselves never shuffle; the
  winner id-set per batch is re-derived with a broadcast-free co-partition
  trick: the winner triples are tiny (3 ints/doc) and flow back as a second
  pass membership filter via ``ray.put`` of the per-shard winner ids (at
  real scale: a manifest-side winner table + semi-join; documented);
* output is hive-partitioned by ``shard = fmix64(doc_id) % num_shards`` so
  a crashed run redoes only uncommitted shards (write-then-manifest, the
  same commit protocol as state/manifest.py).

Checkpoint protocol (per shard): data dirs are written first, the manifest
row (counts + wall time) is committed after, atomically.  On resume the
WRITE of committed shards is skipped — but normalization and the dedup
winner pass always run over the FULL corpus, because winners are a global
property: filtering committed shards before dedup would recompute winners
over the missing shards only and resurrect duplicates whose smaller-id
twin lives in a committed shard (regression-tested).  Input growth
invalidates everything: curation dedup is global, so any new doc can
change any shard's winner set — the input file fingerprint
(``inputs.json``, the copy flagship's late-data protocol) triggers a full
recompute rather than a silently-stale skip.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.hashing import poly_hash_column
from ..stages.common import fmix64
from ..stages.curation import normalize_text_batch, repetition_stats_batch


def _shard_col(ids: np.ndarray, num_shards: int) -> np.ndarray:
    return (fmix64(ids.astype(np.int64)) % np.uint64(num_shards)).astype(np.int64)


def _prep_batch(batch: pa.Table, num_shards: int, min_tokens: int,
                distinct_mult: int) -> pa.Table:
    """normalize + stats + quality filter + content hash, one pass."""
    norm = normalize_text_batch(batch)
    stats = repetition_stats_batch(
        pa.table({"doc_id": batch["doc_id"], "text": norm["norm_text"]})
    )
    n_tok = stats["n_tokens"].to_numpy(zero_copy_only=False)
    n_dis = stats["n_distinct_tokens"].to_numpy(zero_copy_only=False)
    keep = (n_tok >= min_tokens) & (n_dis * distinct_mult >= n_tok)
    t = pa.table({
        "doc_id": batch["doc_id"],
        "lang": batch["lang"],
        "source": batch["source"],
        "norm_text": norm["norm_text"],
        "n_tokens": stats["n_tokens"],
    }).filter(pa.array(keep))
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    h = poly_hash_column(t["norm_text"]).astype(np.int64)
    nb = pc.cast(pc.binary_length(t["norm_text"]), pa.int64())
    return (
        t.append_column("content_hash", pa.array(h))
        .append_column("n_bytes", nb)
        .append_column("shard", pa.array(_shard_col(ids, num_shards)))
    )


def manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "manifest.json")


def load_manifest(out_dir: str) -> dict:
    p = manifest_path(out_dir)
    if not os.path.exists(p):
        return {"shards": {}, "status": "empty"}
    with open(p) as f:
        return json.load(f)


def run_curate(input_path: str, out_dir: str, *, num_shards: int = 16,
               min_tokens: int = 30, distinct_mult: int = 3,
               resume: bool = True) -> dict:
    """Run the curation flagship; returns the manifest summary dict.

    Ray must already be initialised by the caller (driver contract)."""
    import ray
    import ray.data

    from ..stages.dedup import exact_dedup

    t0 = time.monotonic()
    manifest = load_manifest(out_dir) if resume else {"shards": {}, "status": "empty"}
    data_dir = os.path.join(out_dir, "docs")

    # input-growth invalidation: global dedup means any new doc can change
    # any shard's winner set -> full recompute (never a stale skip)
    import glob as _glob

    in_files = sorted(
        _glob.glob(os.path.join(input_path, "*.parquet"))
        if os.path.isdir(input_path) else [input_path]
    )
    fingerprint = {f: os.path.getsize(f) for f in in_files}
    inputs_p = os.path.join(out_dir, "inputs.json")
    if resume and manifest["shards"] and os.path.exists(inputs_p):
        with open(inputs_p) as f:
            recorded = json.load(f)
        if recorded != fingerprint:
            manifest = {"shards": {}, "status": "empty"}
            shutil.rmtree(data_dir, ignore_errors=True)

    done = {int(s) for s in manifest["shards"]}
    todo = [s for s in range(num_shards) if s not in done]
    if not todo:
        manifest["status"] = "complete"
        return manifest

    # clean partial output of a crashed run (write-then-manifest protocol)
    if os.path.isdir(data_dir):
        for name in os.listdir(data_dir):
            if name.startswith("shard=") and int(name.split("=", 1)[1]) not in done:
                shutil.rmtree(os.path.join(data_dir, name))

    ds = ray.data.read_parquet(
        input_path, columns=["doc_id", "lang", "source", "text"]
    )
    # the FULL corpus is prepped regardless of done shards: dedup winners
    # are global (see module docstring; skipping here resurrects dups)
    prepped = ds.map_batches(
        lambda b: _prep_batch(b, num_shards, min_tokens, distinct_mult),
        batch_format="pyarrow",
    ).materialize()  # two consumers: winner pass + write pass

    winners = exact_dedup(prepped, id_col="doc_id", text_col="norm_text",
                          precomputed=True)
    win_df = winners.to_pandas()
    win_ids = (
        np.sort(win_df["doc_id"].to_numpy(dtype=np.int64))
        if "doc_id" in win_df.columns and len(win_df)
        else np.empty(0, np.int64)  # fully-filtered corpus: no winners
    )  # ids only — 8 bytes/doc; at larger scale: write winners parquet and
    # semi-join per shard instead of a driver array (stages/joins.py)
    win_ref = ray.put(win_ids)

    def keep_winners(batch: pa.Table) -> pa.Table:
        w = ray.get(win_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(w, ids)
        pos = np.clip(pos, 0, max(len(w) - 1, 0))
        hit = (w[pos] == ids) if len(w) else np.zeros(len(ids), bool)
        return batch.filter(pa.array(hit)).drop_columns(
            ["content_hash", "n_bytes"]
        )

    kept = prepped.map_batches(keep_winners, batch_format="pyarrow")
    if done:  # resume: only the WRITE of committed shards is skipped
        done_arr = np.array(sorted(done), dtype=np.int64)

        def drop_done(batch: pa.Table) -> pa.Table:
            sh = batch["shard"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(~np.isin(sh, done_arr)))

        kept = kept.map_batches(drop_done, batch_format="pyarrow")
    kept.write_parquet(data_dir, partition_cols=["shard"])

    # commit: enumerate written shard dirs, manifest AFTER the data
    # (a fully-filtered corpus writes no dirs at all — still commits empty)
    wall = time.monotonic() - t0
    os.makedirs(data_dir, exist_ok=True)
    for name in sorted(os.listdir(data_dir)):
        if not name.startswith("shard="):
            continue
        sh = int(name.split("=", 1)[1])
        if sh in done:
            continue
        sdir = os.path.join(data_dir, name)
        rows = sum(
            pq.ParquetFile(os.path.join(sdir, f)).metadata.num_rows
            for f in os.listdir(sdir) if f.endswith(".parquet")
        )
        manifest["shards"][str(sh)] = {"n_docs": rows, "wall_s": round(wall, 3)}
    missing = [s for s in range(num_shards)
               if str(s) not in manifest["shards"]]
    for s in missing:  # shards with zero kept docs still commit (empty)
        manifest["shards"][str(s)] = {"n_docs": 0, "wall_s": round(wall, 3)}
    manifest["status"] = "complete"
    manifest["num_shards"] = num_shards
    manifest["params"] = {"min_tokens": min_tokens, "distinct_mult": distinct_mult}
    tmp = manifest_path(out_dir) + ".tmp"
    os.makedirs(out_dir, exist_ok=True)
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, manifest_path(out_dir))
    with open(inputs_p + ".tmp", "w") as f:
        json.dump(fingerprint, f, indent=1, sort_keys=True)
    os.replace(inputs_p + ".tmp", inputs_p)
    return manifest


def curate_summary(ds, *, min_tokens: int = 30, distinct_mult: int = 3,
                   num_shards: int = 16):
    """The curation pipeline's per-lang summary as a Dataset (driver query):
    normalize -> filter -> exact dedup -> per-lang (n_docs, sum tokens).
    SQL-mirrorable end to end (dedup = min doc_id per normalized text)."""
    import ray

    from ..stages.dedup import exact_dedup
    from ..stages.keyed import sharded_grouped_agg

    prepped = ds.map_batches(
        lambda b: _prep_batch(b, num_shards, min_tokens, distinct_mult),
        batch_format="pyarrow",
    ).materialize()
    winners = exact_dedup(prepped, id_col="doc_id", text_col="norm_text",
                          precomputed=True)
    win_ids = np.sort(winners.to_pandas()["doc_id"].to_numpy(dtype=np.int64))
    win_ref = ray.put(win_ids)

    def partial(batch: pa.Table) -> pa.Table:
        w = ray.get(win_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.clip(np.searchsorted(w, ids), 0, max(len(w) - 1, 0))
        hit = (w[pos] == ids) if len(w) else np.zeros(len(ids), bool)
        t = batch.filter(pa.array(hit))
        return pa.table({
            "lang": t["lang"],
            "n_docs": pa.array(np.ones(t.num_rows, np.int64)),
            "sum_tokens": pc.cast(t["n_tokens"], pa.int64()),
        })

    parts = prepped.map_batches(partial, batch_format="pyarrow")
    return sharded_grouped_agg(
        parts, ["lang"], [("n_docs", "sum"), ("sum_tokens", "sum")]
    )
