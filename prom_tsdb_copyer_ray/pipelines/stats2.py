"""Session-10 statistics wave: rank correlation, robust slope, changepoint
and runs-test analytics over the events stream — all census-bounded.

Every operator here follows the census protocol established by
ks_statistic / chi2_independence / mannwhitney_u (pipelines/queries.py):
a per-batch Arrow ``group_by`` combiner collapses the stream to a census
bounded by the VALUE DOMAIN (distinct cents x 24 hours, day count, type
count) — never by corpus size — one sharded exchange moves only census
rows, and the driver-final scan does exact integer math (Python bignums
where int64 could overflow).  Final float statistics are computed by the
LITERAL same op sequence the SQL oracle runs (cast exact ints to double,
multiply/divide/sqrt in the same order), so results are bit-identical:
IEEE-754 casts, products and sqrt are correctly rounded, and no
re-associated float sum ever occurs.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.common import shard_apply
from ..stages.keyed import sharded_grouped_agg
from ..windows import ts_to_ms
from .qsubstrate import _cents, _read


_MS_1D = 86_400_000


def q_spearman_corr(sf_dir: str):
    """Spearman rank correlation between event value and hour-of-day.

    Joint (hour, cent-value) census (bounded by value domain x 24) ->
    one sharded exchange -> driver-final midranks.  Midranks are kept in
    DOUBLED units (exact int64, the mannwhitney_u protocol); the moment
    sums fit int64 up to ~1e6 rows and the final Pearson combination runs
    in Python bignums.  rho = num / sqrt(d1 * d2) is ONE mirrored float
    expression over exact ints -> bit-identical to the SQL oracle."""
    ds = _read(sf_dir, "events", ["ts", "value"])

    def census_partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "hod": pa.array((tms // 3_600_000) % 24, pa.int64()),
            "cv": pa.array(_cents(batch["value"])),
            "n": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(census_partial, batch_format="pyarrow"),
        ["hod", "cv"], [("n", "sum")],
    ).to_pandas()

    # doubled midranks per marginal: r2(v) = 2*(count below) + count(v) + 1
    def doubled_midranks(keys: np.ndarray, counts: np.ndarray):
        order = np.argsort(keys, kind="stable")
        k, c = keys[order], counts[order]
        below = np.concatenate([[0], np.cumsum(c)[:-1]])
        return k, 2 * below + c + 1

    hod = census["hod"].to_numpy()
    cv = census["cv"].to_numpy()
    n_cell = census["n"].to_numpy()

    import pandas as pd

    hm = pd.DataFrame({"k": hod, "n": n_cell}).groupby("k")["n"].sum()
    vm = pd.DataFrame({"k": cv, "n": n_cell}).groupby("k")["n"].sum()
    hk, hr2 = doubled_midranks(hm.index.to_numpy(), hm.to_numpy())
    vk, vr2 = doubled_midranks(vm.index.to_numpy(), vm.to_numpy())
    rx = vr2[np.searchsorted(vk, cv)]       # value midranks (doubled)
    ry = hr2[np.searchsorted(hk, hod)]      # hour midranks (doubled)

    n = int(n_cell.sum())
    sx = int(np.sum(n_cell * rx))
    sy = int(np.sum(n_cell * ry))
    sxx = int(np.sum(n_cell * rx * rx))
    syy = int(np.sum(n_cell * ry * ry))
    sxy = int(np.sum(n_cell * rx * ry))
    num = n * sxy - sx * sy                  # Python bignum from here on
    d1 = n * sxx - sx * sx
    d2 = n * syy - sy * sy
    rho = float(num) / math.sqrt(float(d1) * float(d2))
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "rho": pa.array([rho], pa.float64()),
    })


def q_kendall_tau(sf_dir: str):
    """Kendall tau-b between hour-of-day and the 50-unit value bucket
    (binned tau keeps the census at 24 x ~10 cells, so concordant /
    discordant pair counting is an exact driver-side scan over the tiny
    grid — and the SQL oracle is a trivial census self-join).  Tie
    corrections are exact ints; tau mirrors the SQL float expression."""
    ds = _read(sf_dir, "events", ["ts", "value"])

    def census_partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "hod": pa.array((tms // 3_600_000) % 24, pa.int64()),
            "vb": pa.array(_cents(batch["value"]) // 5000, pa.int64()),
            "n": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(census_partial, batch_format="pyarrow"),
        ["hod", "vb"], [("n", "sum")],
    ).to_pandas()

    h = census["hod"].to_numpy()
    v = census["vb"].to_numpy()
    cnt = census["n"].to_numpy()
    conc = 0
    disc = 0
    for i in range(len(cnt)):
        gt = (h > h[i])
        conc += int(cnt[i]) * int(cnt[gt & (v > v[i])].sum())
        disc += int(cnt[i]) * int(cnt[gt & (v < v[i])].sum())
    n = int(cnt.sum())
    n0 = n * (n - 1) // 2
    th = {int(k): 0 for k in set(h.tolist())}
    tv = {int(k): 0 for k in set(v.tolist())}
    for i in range(len(cnt)):
        th[int(h[i])] += int(cnt[i])
        tv[int(v[i])] += int(cnt[i])
    t1 = sum(c * (c - 1) // 2 for c in th.values())
    t2 = sum(c * (c - 1) // 2 for c in tv.values())
    tau = float(conc - disc) / math.sqrt(float(n0 - t1) * float(n0 - t2))
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "concordant": pa.array([conc], pa.int64()),
        "discordant": pa.array([disc], pa.int64()),
        "tau_b": pa.array([tau], pa.float64()),
    })


def q_theil_sen(sf_dir: str):
    """Theil-Sen robust slope of mean event value over hour-of-day: the
    24-cell hourly (sum-cents, count) census gives every pairwise slope
    as ONE division of exact ints — (s_j*c_i - s_i*c_j) / ((j-i)*c_i*c_j)
    — and the estimator is the lower median of the 276 doubles, matching
    DuckDB quantile_disc(0.5) exactly.  Final /100 converts cents to
    value units."""
    ds = _read(sf_dir, "events", ["ts", "value"])

    def census_partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "hod": pa.array((tms // 3_600_000) % 24, pa.int64()),
            "s": pa.array(_cents(batch["value"])),
            "c": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(census_partial, batch_format="pyarrow"),
        ["hod"], [("s", "sum"), ("c", "sum")],
    ).to_pandas().sort_values("hod")

    hod = census["hod"].to_numpy()
    s = census["s"].to_numpy()
    c = census["c"].to_numpy()
    slopes = []
    for i in range(len(hod)):
        for j in range(i + 1, len(hod)):
            num = int(s[j]) * int(c[i]) - int(s[i]) * int(c[j])
            den = int(hod[j] - hod[i]) * int(c[i]) * int(c[j])
            slopes.append(float(num) / float(den))
    slopes.sort()
    med = slopes[(len(slopes) - 1) // 2]
    return pa.table({
        "n_pairs": pa.array([len(slopes)], pa.int64()),
        "theil_sen_slope": pa.array([med / 100.0], pa.float64()),
    })


def q_changepoint(sf_dir: str):
    """Binary-segmentation changepoint over the daily mean event value:
    the split k maximizing the between-segment SSE reduction
    S_L^2/n_L + S_R^2/n_R - S^2/n.  The daily (sum-cents, count) census
    is one sharded exchange; each candidate's gain is computed in MICRO
    units with EXACT integer division ((S^2 * 1e6) // n, Python bignums /
    SQL HUGEINT), so the argmax and the min-day tiebreak are exact-int
    comparisons — no float enters until the reported gain."""
    ds = _read(sf_dir, "events", ["ts", "value"])

    def census_partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "day_ms": pa.array((tms // _MS_1D) * _MS_1D, pa.int64()),
            "s": pa.array(_cents(batch["value"])),
            "c": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(census_partial, batch_format="pyarrow"),
        ["day_ms"], [("s", "sum"), ("c", "sum")],
    ).to_pandas().sort_values("day_ms")

    days = census["day_ms"].to_numpy()
    s = [int(x) for x in census["s"].to_numpy()]
    c = [int(x) for x in census["c"].to_numpy()]
    s_tot, n_tot = sum(s), sum(c)
    base = (s_tot * s_tot * 1_000_000) // n_tot
    best_gain, best_day = None, None
    sl = nl = 0
    for k in range(len(days) - 1):
        sl += s[k]
        nl += c[k]
        sr, nr = s_tot - sl, n_tot - nl
        gain = (sl * sl * 1_000_000) // nl + (sr * sr * 1_000_000) // nr - base
        if best_gain is None or gain > best_gain:
            best_gain, best_day = gain, int(days[k + 1])
    return pa.table({
        "split_day_ms": pa.array([best_day], pa.int64()),
        "gain": pa.array([float(best_gain) / 1e6], pa.float64()),
    })


def q_runs_test(sf_dir: str):
    """Wald-Wolfowitz runs test per event type: is the above/below-
    global-median sign sequence (time order) random?  Two-phase plan:
    (1) global lower-median of cent values from the value census;
    (2) the sign stream shards by (type, day) — a group holds every row
    of its (type, day) cells, so local (first_sign, last_sign, n_runs,
    n_above, n_below) per day is exact — and the driver stitches
    consecutive present days (subtracting one run when the sign carries
    over), the max_concurrency two-phase-scan pattern.  Ties (value ==
    median) are excluded per the standard test.  z mirrors the SQL float
    expression over exact ints (Python bignums; SQL HUGEINT)."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "event_id", "value"])

    def vcensus(batch: pa.Table) -> pa.Table:
        return pa.table({
            "cv": pa.array(_cents(batch["value"])),
            "n": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(vcensus, batch_format="pyarrow"),
        ["cv"], [("n", "sum")],
    ).to_pandas().sort_values("cv")
    cum = census["n"].to_numpy().cumsum()
    n_all = int(cum[-1])
    med = int(census["cv"].to_numpy()[
        np.searchsorted(cum, (n_all - 1) // 2 + 1)
    ])

    def prep(batch: pa.Table) -> pa.Table:
        cv = _cents(batch["value"])
        keep = cv != med
        t = batch.filter(pa.array(keep))
        tus = pc.cast(t["ts"], pa.int64())  # microsecond order = SQL ORDER BY ts
        out = pa.table({
            "event_type": t["event_type"],
            "day_ms": pa.array(
                (tus.to_numpy(zero_copy_only=False) // (_MS_1D * 1000))
                * _MS_1D,
                pa.int64(),
            ),
            "ts_us": tus,
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "sign": pa.array((cv[keep] > med).astype(np.int64)),
        })
        return out

    def per_day(group: pa.Table) -> pa.Table:
        et = np.asarray(group["event_type"].to_pylist(), dtype=object)
        day = group["day_ms"].to_numpy(zero_copy_only=False)
        tsu = group["ts_us"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        sign = group["sign"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, tsu, day, et))
        et, day, sign = et[order], day[order], sign[order]
        seg_new = np.ones(len(et), bool)
        seg_new[1:] = (et[1:] != et[:-1]) | (day[1:] != day[:-1])
        starts = np.flatnonzero(seg_new)
        ends = np.r_[starts[1:], len(et)] - 1
        flips = np.zeros(len(et), np.int64)
        flips[1:] = (sign[1:] != sign[:-1]).astype(np.int64)
        flips[starts] = 0
        cflips = np.cumsum(flips)
        # runs per segment = 1 + internal flips (flips[start] forced to 0)
        runs = (cflips[ends] - cflips[starts] + 1).astype(np.int64)
        csum = np.cumsum(sign)
        n_above = csum[ends] - np.where(starts > 0, csum[starts - 1], 0)
        return pa.table({
            "event_type": pa.array(et[starts].tolist(), pa.string()),
            "day_ms": pa.array(day[starts], pa.int64()),
            "first_sign": pa.array(sign[starts], pa.int64()),
            "last_sign": pa.array(sign[ends], pa.int64()),
            "runs": pa.array(runs, pa.int64()),
            "n_above": pa.array(n_above.astype(np.int64)),
            "n_total": pa.array((ends - starts + 1).astype(np.int64)),
        })

    parts = (
        shard_apply(ds, ["event_type", "day_ms"], per_day, prepare=prep,
                    coalesce=False)
        .to_pandas()
        .sort_values(["event_type", "day_ms"])
    )

    rows = {"event_type": [], "n_runs": [], "n_above": [],
            "n_below": [], "z": []}
    for et, g in parts.groupby("event_type", sort=True):
        runs = int(g["runs"].sum())
        last = g["last_sign"].to_numpy()[:-1]
        first = g["first_sign"].to_numpy()[1:]
        runs -= int((last == first).sum())  # sign carries across day cuts
        a = int(g["n_above"].sum())
        n = int(g["n_total"].sum())
        b = n - a
        ab2 = 2 * a * b  # Python bignum
        z = (
            float(runs * n - n - ab2)
            * math.sqrt(float(n - 1))
            / math.sqrt(float(ab2 * (ab2 - n)))
        )
        rows["event_type"].append(et)
        rows["n_runs"].append(runs)
        rows["n_above"].append(a)
        rows["n_below"].append(b)
        rows["z"].append(z)
    return pa.table({
        "event_type": pa.array(rows["event_type"], pa.string()),
        "n_runs": pa.array(rows["n_runs"], pa.int64()),
        "n_above": pa.array(rows["n_above"], pa.int64()),
        "n_below": pa.array(rows["n_below"], pa.int64()),
        "z": pa.array(rows["z"], pa.float64()),
    })
