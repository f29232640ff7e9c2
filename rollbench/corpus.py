"""Seeded benchmark inputs, tier digests and the cached oracle digests.

The base corpus is ``generate_pages`` over seven days (hot domains,
duplicate rows, >5m gaps), written as one Parquet file per day.  The late
file is a second seeded ``generate_pages`` batch that lands inside one
committed day.  The engine only ever receives the files.

A tier digest is a sha256 over the tier's rows sorted by
``(series_key, window_start)``, including the encoded chunk bytes.  The
expected digests come from the pure-pandas oracle in ``tests/oracle.py``,
whose decoded points are re-encoded with the engine's codec; the oracle
costs seconds, so its digests are cached per input digest.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .harness import ROOT, WORK

MS_1D = 86_400_000
TIERS = ("5m", "1h", "1d")
DAYS = 7
# generate_pages pushes rows up to (n // max(1, n // 37)) x 400 s, at most
# 8.1 h, past its span to force gaps; these spans keep the base corpus
# inside 7 days and the late file inside one day.
BASE_SPAN_MS = DAYS * MS_1D - 9 * 3_600_000
LATE_SPAN_MS = 15 * 3_600_000

DIGEST_COLS = (
    "series_key", "__name__", "domain", "lang", "tier", "window_start", "min_ts",
    "max_ts", "n_samples", "ts_bytes", "val_bytes", "agg_count", "agg_sum",
    "agg_min", "agg_max", "agg_first", "agg_last",
)
_BYTES_COLS = {"series_key", "__name__", "domain", "lang", "tier", "ts_bytes", "val_bytes"}


@dataclass
class Inputs:
    base_files: list[str]
    late_file: str
    late_day: int
    base_pages: pa.Table
    late_pages: pa.Table
    digest: str

    @property
    def all_files(self) -> list[str]:
        return [*self.base_files, self.late_file]


def _file_sha(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.basename(p).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def write_inputs(in_dir: str, seed: int, pages: int, late_pages: int) -> Inputs:
    """Generate and write the seeded corpus; same seed -> same digest."""
    from prom_tsdb_copyer_ray.sources.pages import generate_pages

    os.makedirs(in_dir, exist_ok=True)
    base = generate_pages(pages, seed=seed, span_ms=BASE_SPAN_MS)
    ts = base["warc_ts"].cast(pa.int64()).to_numpy()
    day = ts // MS_1D - ts.min() // MS_1D
    base_files = []
    for d in range(DAYS):
        path = os.path.join(in_dir, f"pages-day{d}.parquet")
        pq.write_table(base.filter(pa.array(day == d)), path)
        base_files.append(path)

    # the late batch lands in one committed day (never the first or last)
    late_day = 1 + seed % (DAYS - 2)
    late = generate_pages(late_pages, seed=seed + 7919, span_ms=LATE_SPAN_MS)
    # both batches start on the generator's first day
    late_ts = pa.array(late["warc_ts"].cast(pa.int64()).to_numpy() + late_day * MS_1D,
                       pa.timestamp("ms"))
    late = late.set_column(late.schema.get_field_index("warc_ts"), "warc_ts", late_ts)
    late_file = os.path.join(in_dir, "pages-late.parquet")
    pq.write_table(late, late_file)
    return Inputs(base_files, late_file, late_day, base, late,
                  _file_sha([*base_files, late_file]))


def _canonical(table: pa.Table) -> pa.Table:
    table = table.select(list(DIGEST_COLS)).combine_chunks()
    return table.sort_by([("series_key", "ascending"), ("window_start", "ascending")])


def tier_digest(table: pa.Table) -> str:
    """Order-independent sha256 of a tier's chunk rows."""
    t = _canonical(table)
    h = hashlib.sha256(str(t.num_rows).encode())
    for name in DIGEST_COLS:
        values = t[name].to_pylist()
        h.update(name.encode())
        if name in _BYTES_COLS:
            raw = [v.encode() if isinstance(v, str) else v for v in values]
            h.update(np.array([len(v) for v in raw], np.int64).tobytes())
            h.update(b"".join(raw))
        else:
            dtype = np.float64 if name.startswith("agg_") and name != "agg_count" else np.int64
            h.update(np.asarray(values, dtype=dtype).tobytes())
    return h.hexdigest()


def read_tier_table(out_dir: str, tier: str) -> pa.Table:
    """A written tier as one Arrow table (hive partition columns dropped)."""
    files = tier_files(out_dir, tier)
    if not files:
        return pa.table({c: [] for c in DIGEST_COLS})
    return pa.concat_tables([pq.read_table(f).select(list(DIGEST_COLS)) for f in files])


def output_digests(out_dir: str) -> dict[str, str]:
    return {t: tier_digest(read_tier_table(out_dir, t)) for t in TIERS}


def tier_files(out_dir: str, tier: str = "") -> list[str]:
    """Parquet files of one tier, or of all tiers when ``tier`` is empty."""
    root = os.path.join(out_dir, "tiers", tier)
    return sorted(os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs
                  if f.endswith(".parquet"))


def _load_oracle():
    path = os.path.join(ROOT, "tests", "oracle.py")
    spec = importlib.util.spec_from_file_location("rollbench_oracle", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod, path


def _oracle_table(df) -> pa.Table:
    from prom_tsdb_copyer_ray.codec import encode_timestamps_many, encode_values_many

    pts = list(df["points"])
    counts = np.array([len(p[0]) for p in pts], np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    ts = np.concatenate([p[0] for p in pts]).astype(np.int64) if pts else np.empty(0, np.int64)
    vals = (np.concatenate([np.asarray(p[1], np.float64) for p in pts])
            if pts else np.empty(0, np.float64))
    cols = {c: df[c].to_numpy() for c in DIGEST_COLS if c not in ("ts_bytes", "val_bytes")}
    cols["ts_bytes"] = pa.array(encode_timestamps_many(ts, offsets), pa.binary())
    cols["val_bytes"] = pa.array(encode_values_many(vals, offsets), pa.binary())
    return pa.table(cols)


def oracle_digests(pages: pa.Table, inputs_key: str) -> dict:
    """{tier: {"digest", "rows", "points"}} of the oracle tiers, cached per
    (input, oracle source, codec source)."""
    mod, path = _load_oracle()
    h = hashlib.sha256(inputs_key.encode())
    for src in (path, os.path.join(ROOT, "prom_tsdb_copyer_ray", "codec.py")):
        with open(src, "rb") as f:
            h.update(f.read())
    cache = os.path.join(WORK, "cache", f"oracle-{h.hexdigest()[:24]}.json")
    if os.path.exists(cache):
        with open(cache) as f:
            return json.load(f)
    out = {}
    for tier, df in mod.oracle_tiers(pages).items():
        t = _oracle_table(df)
        out[tier] = {"digest": tier_digest(t), "rows": t.num_rows,
                     "points": int(np.sum(t["n_samples"].to_numpy()))}
    os.makedirs(os.path.dirname(cache), exist_ok=True)
    tmp = f"{cache}.{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        json.dump(out, f)
    os.replace(tmp, cache)
    return out
