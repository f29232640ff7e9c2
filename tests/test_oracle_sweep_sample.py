"""Round-3 (VERDICT item 8): scripts/oracle_sweep.py promoted into the
test gate.  test_driver_conformance already runs the FULL battery at
sf0.001; this adds a deterministic ROTATING ~30-query sample at sf0.01 —
the driver's correctness scale — so scale-dependent regressions (integer
overflow in micro-floored sums, quantile boundary flips, skew-path
switches) surface in CI without a 10-minute full sweep.  The window
advances by 30 names per calendar day, covering the whole battery every
~11 days while staying deterministic within a run."""

from __future__ import annotations

import datetime
import os
import sys

import duckdb
import pandas as pd

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "scripts"))
from oracle_sweep import TABLES, norm  # noqa: E402

SF_DIR = "/root/testdata/sf0.01"
SAMPLE = 30


def _sample_names(names: list[str]) -> list[str]:
    k = (datetime.date.today().toordinal() * SAMPLE) % len(names)
    rot = names[k:] + names[:k]
    return rot[:SAMPLE]


def test_rotating_sweep_sample_sf001(ray_session):
    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    qs, osql = entry.queries(), entry.oracle_sql()
    names = _sample_names(sorted(osql))
    failures = []
    for name in names:
        try:
            res = qs[name](SF_DIR)
            got = res if isinstance(res, pd.DataFrame) else res.to_pandas()
            want = con.execute(osql[name]).df()
            got, want = norm(got), norm(want)
            assert list(got.columns) == list(want.columns), "columns"
            assert len(got) == len(want), f"rows {len(got)}!={len(want)}"
            pd.testing.assert_frame_equal(
                got, want, check_dtype=False, obj=name)
        except Exception as e:  # collect all, report once
            failures.append(f"{name}: {type(e).__name__}: {e}")
    assert not failures, (
        f"sf0.01 rotating sweep sample ({len(names)} queries): "
        + "; ".join(failures))


def test_norm_binary_column():
    """Binary columns (codec chunks) normalize to hex, not a decode error;
    equal frames normalize equal whatever their row order."""
    a = pd.DataFrame({"k": [2, 1], "b": [b"\x8c\x01", b"\x00"]})
    got = norm(a)
    assert got["b"].tolist() == ["00", "8c01"]
    pd.testing.assert_frame_equal(got, norm(a.iloc[::-1]))
