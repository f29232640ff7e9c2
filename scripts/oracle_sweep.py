#!/usr/bin/env python
"""Pre-validation sweep: run EVERY oracled query against DuckDB with the
driver's exact compare semantics (sorted columns, floats rounded to 9 dp,
object columns stringified, mergesort row order) at a given sf dir.

Usage: python scripts/oracle_sweep.py [/root/testdata/sf0.01] [name,...]

The float rounding matters: queries whose outputs are tolerance-checked
floats (e.g. increase_5m) sort rows differently across engines if compared
raw — the driver normalizes first, so this script must too.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 2)[0])

import duckdb  # noqa: E402
import numpy as np  # noqa: E402
import pandas as pd  # noqa: E402

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            # bytes (codec chunks) hex-encode: str() of arbitrary bytes can
            # fail to decode
            df[c] = df[c].map(lambda v: v.hex() if isinstance(v, bytes) else v).astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(9)
        elif str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="mergesort") \
        .reset_index(drop=True)


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2].split(",")) if len(sys.argv) > 2 else None
    exclude: set[str] = set()
    if only and any(n.startswith("-") for n in only):
        # "-a,b,c" = full battery MINUS the named queries (for big-corpus
        # sweeps where a few ORACLES are data-quadratic in DuckDB)
        exclude = {n.lstrip("-") for n in only}
        only = None

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')")
    qs, osql = entry.queries(), entry.oracle_sql()
    fails, n_run = [], 0
    t0 = time.time()
    for name in sorted(qs):
        if name not in osql or (only and name not in only) or name in exclude:
            continue
        n_run += 1
        tq = time.time()
        try:
            got = qs[name](sf_dir)
            got = got.to_pandas() if hasattr(got, "to_pandas") else got
            g, w = norm(got), norm(con.execute(osql[name]).df())
            assert list(g.columns) == list(w.columns), (
                f"cols {list(g.columns)} != {list(w.columns)}")
            pd.testing.assert_frame_equal(g, w, check_dtype=False)
            if os.environ.get("SWEEP_VERBOSE"):
                print(f"ok {name} {time.time() - tq:.1f}s", flush=True)
        except Exception as ex:  # noqa: BLE001 - report and continue
            fails.append(name)
            print(f"FAIL {name}: {str(ex)[:200]}", flush=True)
    print(f"SWEEP DONE: {n_run} queries, {len(fails)} failures, "
          f"{time.time() - t0:.0f}s", flush=True)
    ray.shutdown()
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
