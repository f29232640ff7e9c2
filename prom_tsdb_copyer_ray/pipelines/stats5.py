"""Round-3 continuation statistics waves (module 2): spatial/serial
autocorrelation counterparts, ecological dispersion indices, inequality
and variance-homogeneity families — all over the established census
substrates (dense hourly grid, cent-value census, per-user totals), so
NO new exchange shape is introduced.

Float protocol as everywhere in this battery: exact integers (Python
bignums where scaled squares exceed int64 — the SQL side casts to
HUGEINT) until ONE mirrored float expression; sqrt/division of the
identical exact operands is IEEE-correctly-rounded and so cross-engine
exact; ln is micro-floored.

Reference parity note: the reference engine (prom-tsdb-copyer,
cmd/main.go) exposes copy/verify over TSDB blocks only; this analytics
battery is the Ray-Data generalization required by the north rule
(continuous aggregates over web-page-derived series).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.keyed import sharded_grouped_agg
from ..windows import ts_to_ms
from .qsubstrate import (
    WORD_RE,
    _read,
    cent_census,
    dense_hour_counts,
    dow_census,
    hod_census,
    source_doc_counts,
    term_census,
    user_cent_sums,
    user_event_counts,
    weekend_purchase_census,
)
from .stats3 import _ntile_1based


def _user_event_times(batch: pa.Table) -> pa.Table:
    """(user_id, tms, event_id) — the per-user gap kernels' input."""
    return pa.table({
        "user_id": pc.cast(batch["user_id"], pa.int64()),
        "tms": ts_to_ms(batch["ts"]),
        "event_id": pc.cast(batch["event_id"], pa.int64()),
    })


# ---------------------------------------------------------------------------
# wave 10: dispersion / homogeneity family (dense hourly grid + user totals)
# ---------------------------------------------------------------------------

def q_geary_c(sf_dir: str):
    """Geary's C with lag-1 chain adjacency per type — the local
    counterpart of Moran's I (moran_lag1): for the hourly series with
    symmetric chain weights, C = H * sum_t (c_t - c_{t+1})^2 /
    (2 * (H*S2 - S1^2)).  Exact integers to one mirrored division;
    C ~ 1 under no autocorrelation, < 1 for positive autocorrelation."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "geary_c": []}
    for et in sorted(series):
        c = series[et]
        s1 = int(c.sum())
        s2 = int(np.dot(c, c))
        d = np.diff(c)
        sd2 = int(np.dot(d, d))
        den = 2 * (big_h * s2 - s1 * s1)
        g = 0.0 if den == 0 else float(big_h * sd2) / float(den)
        out["event_type"].append(et)
        out["geary_c"].append(round(g, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "geary_c": pa.array(out["geary_c"], pa.float64()),
    })


def q_dispersion_indices(sf_dir: str):
    """Ecological dispersion family per type over the hourly counts —
    all exact rationals of (H, S1, S2):

    * Morisita's index I_d = H*(S2 - S1) / (S1^2 - S1) (1 = random,
      > 1 clumped);
    * Lloyd's patchiness m*/mean = H*(S2 - S1) / S1^2 with the
      population-variance convention (documented: sigma^2 =
      (H*S2 - S1^2)/H^2);
    * moment negative-binomial k = S1^2*(H-1) /
      (H*(H*S2 - S1^2 - (H-1)*S1)) (sample-variance convention),
      0.0 when the series is under/equi-dispersed (denominator <= 0).
    """
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "morisita": [], "patchiness": [], "nb_k": []}
    for et in sorted(series):
        c = series[et]
        s1 = int(c.sum())
        s2 = int(np.dot(c, c))
        mor_den = s1 * s1 - s1
        mor = (0.0 if mor_den == 0
               else float(big_h * (s2 - s1)) / float(mor_den))
        pat = (0.0 if s1 == 0
               else float(big_h * (s2 - s1)) / float(s1 * s1))
        k_den = big_h * (big_h * s2 - s1 * s1 - (big_h - 1) * s1)
        nb_k = (0.0 if k_den <= 0
                else float(s1 * s1 * (big_h - 1)) / float(k_den))
        out["event_type"].append(et)
        out["morisita"].append(round(mor, 6))
        out["patchiness"].append(round(pat, 6))
        out["nb_k"].append(round(nb_k, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "morisita": pa.array(out["morisita"], pa.float64()),
        "patchiness": pa.array(out["patchiness"], pa.float64()),
        "nb_k": pa.array(out["nb_k"], pa.float64()),
    })


def q_hoover_index(sf_dir: str):
    """Hoover (Robin Hood) index of per-user total event value: the
    share of total value that would have to be redistributed for
    perfect equality, Hoover = sum_i |x_i - mean| / (2 * sum x) =
    sum_i |n*x_i - S| / (2*n*S).  Scale shape: the theil_index
    substrate — one user-keyed exchange, (S, n) broadcast back, then a
    shuffle-free per-batch integer partial; the user census never
    reaches the driver.  Exact integers to one mirrored division."""
    census = user_cent_sums(sf_dir)

    def sn_partial(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False)
        return pa.table({"s": pa.array([int(x.sum())], pa.int64()),
                         "n": pa.array([batch.num_rows], pa.int64())})

    sn = census.map_batches(sn_partial, batch_format="pyarrow").to_pandas()
    s_tot, n_users = int(sn["s"].sum()), int(sn["n"].sum())

    def term_partial(batch: pa.Table, s=s_tot, n=n_users) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False).astype(np.int64)
        total = int(np.abs(n * x - s).sum())
        return pa.table({"m": pa.array([total], pa.int64())})

    total = int(census.map_batches(
        term_partial, batch_format="pyarrow").to_pandas()["m"].sum())
    den = 2 * n_users * s_tot
    hoover = 0.0 if den == 0 else float(total) / float(den)
    return pa.table({
        "n_users": pa.array([n_users], pa.int64()),
        "hoover": pa.array([round(hoover, 6)], pa.float64()),
    })


def q_variance_homogeneity(sf_dir: str):
    """Hartley's F_max and Cochran's C over the k types' hourly count
    series (the dense grid gives every group the same n = H, the
    textbook premise of both tests): with exact integer variance
    NUMERATORS nu_j = H*S2_j - S1_j^2 (the common denominator
    H^2*(H-1) cancels in both ratios), F_max = max nu / min nu and
    C = max nu / sum nu — exact integers to one mirrored division
    each.  max_type is the lexicographically-smallest type attaining
    the max (exact integer comparisons, deterministic both engines)."""
    series, big_h = dense_hour_counts(sf_dir)
    nus: dict[str, int] = {}
    for et in sorted(series):
        c = series[et]
        s1 = int(c.sum())
        s2 = int(np.dot(c, c))
        nus[et] = big_h * s2 - s1 * s1
    types = sorted(nus)
    mx = max(nus[t] for t in types)
    mn = min(nus[t] for t in types)
    tot = sum(nus.values())
    max_type = min(t for t in types if nus[t] == mx)
    fmax = 0.0 if mn == 0 else float(mx) / float(mn)
    coc = 0.0 if tot == 0 else float(mx) / float(tot)
    return pa.table({
        "k_groups": pa.array([len(types)], pa.int64()),
        "max_type": pa.array([max_type], pa.string()),
        "fmax": pa.array([round(fmax, 6)], pa.float64()),
        "cochran_c": pa.array([round(coc, 6)], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 11: modern dependence + change-detection tests (dense hourly grid)
# ---------------------------------------------------------------------------

def q_chatterjee_xi(sf_dir: str):
    """Chatterjee's rank correlation xi (2020) of each type's hourly
    series against time — a consistent test of functional dependence
    y = f(t) that classical correlations miss.  With x = hour order
    (distinct, so no x-tie randomization is needed) and the tie-aware
    form: r_i = #{j: y_j <= y_i}, l_i = #{j: y_j >= y_i},
    xi = 1 - H * sum_t |r_{t+1} - r_t| / (2 * sum_i l_i*(H - l_i)).
    Exact integers to one mirrored division; 0 ~ independence,
    1 = perfect monotone dependence."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "xi": []}
    for et in sorted(series):
        c = series[et]
        sc = np.sort(c)
        r = np.searchsorted(sc, c, side="right").astype(np.int64)
        l_ge = big_h - np.searchsorted(sc, c, side="left").astype(np.int64)
        num = big_h * int(np.abs(np.diff(r)).sum())
        den = 2 * int(np.dot(l_ge, big_h - l_ge))
        xi = 0.0 if den == 0 else 1.0 - float(num) / float(den)
        out["event_type"].append(et)
        out["xi"].append(round(xi, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "xi": pa.array(out["xi"], pa.float64()),
    })


def q_cusum_squares(sf_dir: str):
    """CUSUM-of-squares variance-stability scan (Brown-Durbin-Evans
    shape) per type: S_t = sum_{s<=t} c_s^2; the statistic is
    max_{t<H} |S_t/S_H - t/H| = max |H*S_t - t*S_H| / (H*S_H) — the
    cross-multiplied numerator is an exact integer, so the argmax
    position (first t attaining the max) is deterministic on both
    engines; ONE mirrored division at the end."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "stat": [], "at_pos": []}
    for et in sorted(series):
        c = series[et].astype(object)
        c2 = np.cumsum(c * c)
        s_h = int(c2[-1])
        if s_h == 0 or big_h < 2:
            out["event_type"].append(et)
            out["stat"].append(0.0)
            out["at_pos"].append(0)
            continue
        t = np.arange(1, big_h, dtype=object)
        d = np.abs(big_h * c2[:-1] - t * s_h)
        best = int(np.argmax(d))          # first max — matches SQL t ASC
        out["event_type"].append(et)
        out["stat"].append(round(float(int(d[best]))
                                 / float(big_h * s_h), 6))
        out["at_pos"].append(best + 1)
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "at_pos": pa.array(out["at_pos"], pa.int64()),
        "stat": pa.array(out["stat"], pa.float64()),
    })


def q_records_count(sf_dir: str):
    """Upper-records test per type: the number of running-maximum
    records in the hourly series (the first hour counts) and the
    position of the last record — a classic distribution-free
    trend/stationarity diagnostic (i.i.d. series have ~H_n records,
    the n-th harmonic number).  Fully exact integers — no floats, so
    the oracle row is exact at every scale."""
    series, _big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "n_records": [], "last_record_pos": []}
    for et in sorted(series):
        c = series[et]
        run = np.maximum.accumulate(c)
        is_rec = np.concatenate([[True], c[1:] > run[:-1]])
        out["event_type"].append(et)
        out["n_records"].append(int(is_rec.sum()))
        out["last_record_pos"].append(int(np.flatnonzero(is_rec)[-1]) + 1)
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n_records": pa.array(out["n_records"], pa.int64()),
        "last_record_pos": pa.array(out["last_record_pos"], pa.int64()),
    })


def q_buishand_range(sf_dir: str):
    """Buishand's range homogeneity test per type: with rescaled
    partial sums S*_t = C_t - (t/H)*S1 (S*_0 = S*_H = 0), the range
    R = max S* - min S* and the statistic Q = (R/H-scaled...) — we
    keep the H-scaled EXACT integer A_t = H*C_t - t*S1 (A_H = 0 is in
    the scan, so max >= 0 >= min), R_scaled = max A - min A, and
    Q = (R_scaled/H) / (sqrt(s^2) * sqrt(H)) with the sample variance
    s^2 = (H*S2 - S1^2)/(H*(H-1)) — one mirrored float chain."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "r_scaled": [], "q": []}
    for et in sorted(series):
        c = series[et].astype(object)
        s1 = int(np.sum(c))
        s2 = int(np.dot(c, c))
        t = np.arange(1, big_h + 1, dtype=object)
        a = big_h * np.cumsum(c) - t * s1
        rh = int(max(a.max(), 0) - min(a.min(), 0))
        var_num = big_h * s2 - s1 * s1
        if var_num <= 0 or big_h < 2:
            q = 0.0
        else:
            vs = float(var_num) / float(big_h * (big_h - 1))
            q = (float(rh) / float(big_h)) \
                / (math.sqrt(vs) * math.sqrt(float(big_h)))
        out["event_type"].append(et)
        out["r_scaled"].append(rh)
        out["q"].append(round(q, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "r_scaled": pa.array(out["r_scaled"], pa.int64()),
        "q": pa.array(out["q"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 12: distribution distances over the cent-value census
# ---------------------------------------------------------------------------

def _cent_profiles(sf_dir: str):
    """Per-type sorted cent-value census {type: (values, counts)} — the
    cliffs_delta substrate (one (type, cv) exchange, census-bounded)."""
    census = cent_census(sf_dir)
    prof = {}
    for et, grp in census.groupby("event_type", sort=True):
        g = grp.sort_values("cv")
        prof[str(et)] = (g["cv"].to_numpy(np.int64),
                         g["n"].to_numpy(np.int64))
    return prof


def _merged_support(av, an, bv, bn):
    """Union support (v, a_n, b_n) of two sorted censuses."""
    mv = np.union1d(av, bv)
    a_full = np.zeros(len(mv), np.int64)
    b_full = np.zeros(len(mv), np.int64)
    a_full[np.searchsorted(mv, av)] = an
    b_full[np.searchsorted(mv, bv)] = bn
    return mv, a_full, b_full


def q_emd_cents(sf_dir: str):
    """1-Wasserstein (earth-mover) distance between every type pair's
    cent-value distribution: W1 = integral |F_A - F_B| dv =
    sum_i |n_B*CA_i - n_A*CB_i| * (v_{i+1} - v_i) / (n_A*n_B) over the
    merged support with inclusive cumulative counts CA/CB — exact
    integers to one mirrored division (result in cents)."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "w1_cents": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            mv, a_n, b_n = _merged_support(*prof[ta], *prof[tb])
            na, nb = int(a_n.sum()), int(b_n.sum())
            ca = np.cumsum(a_n)
            cb = np.cumsum(b_n)
            gap = np.diff(mv)
            num = int(np.dot(np.abs(nb * ca[:-1] - na * cb[:-1]), gap))
            w1 = 0.0 if na * nb == 0 else float(num) / float(na * nb)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["w1_cents"].append(round(w1, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "w1_cents": pa.array(out["w1_cents"], pa.float64()),
    })


def q_energy_distance(sf_dir: str):
    """Szekely's energy distance between every type pair's cent-value
    distribution (V-statistic convention): E = 2*E|X-Y| - E|X-X'| -
    E|Y-Y'|.  Each pairwise-|difference| sum is computed in O(support)
    from the merged census via strictly-below cumulative (count, sum)
    pairs: sum_{x,y}|x-y| = sum_rows [b_n*(v*WA<v - SA<v) +
    a_n*(v*WB<v - SB<v)]; the three sums combine over the common
    denominator na^2*nb^2 as exact (big)integers to ONE mirrored
    division (result in cents)."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "energy_cents": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            mv, a_n, b_n = _merged_support(*prof[ta], *prof[tb])
            na, nb = int(a_n.sum()), int(b_n.sum())
            wa_lt = np.cumsum(a_n) - a_n
            wb_lt = np.cumsum(b_n) - b_n
            sa_lt = np.cumsum(mv * a_n) - mv * a_n
            sb_lt = np.cumsum(mv * b_n) - mv * b_n
            ta_term = mv * wa_lt - sa_lt
            tb_term = mv * wb_lt - sb_lt
            gab = int(np.dot(b_n, ta_term)) + int(np.dot(a_n, tb_term))
            gaa = int(np.dot(a_n, ta_term))
            gbb = int(np.dot(b_n, tb_term))
            den = na * na * nb * nb
            num = 2 * (gab * na * nb - gaa * nb * nb - gbb * na * na)
            e = 0.0 if den == 0 else float(num) / float(den)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["energy_cents"].append(round(e, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "energy_cents": pa.array(out["energy_cents"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 13: blocked / grouped homogeneity tests (dense hourly grid)
# ---------------------------------------------------------------------------

def q_quade_test(sf_dir: str):
    """Quade's range-weighted rank test (the Friedman sibling that
    weights informative blocks): blocks = the H dense-grid hours,
    treatments = the k types.  Within-block doubled midranks r2_bj
    (the friedman_test machinery) and doubled midrank weights q2_b of
    the block RANGES (max - min count per hour) give the exact-integer
    cells S2_bj = q2_b * (r2_bj - (k+1)); Conover's
    T = (b-1) * sum_j S_j^2 / (b * sum_bj S_bj^2 - sum_j S_j^2) is
    scale-invariant, so the doubled units cancel and the statistic is
    exact integers to ONE mirrored division."""
    series, big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    k = len(types)
    mat = np.stack([series[t] for t in types])      # k x H
    order = np.argsort(mat, axis=0, kind="stable")
    srt = np.take_along_axis(mat, order, axis=0)
    below = np.zeros((k, big_h), np.int64)
    peers = np.zeros((k, big_h), np.int64)
    for j in range(k):
        below[j] = (srt < srt[j][None, :]).sum(axis=0)
        peers[j] = (srt == srt[j][None, :]).sum(axis=0)
    r2 = np.empty((k, big_h), np.int64)
    np.put_along_axis(r2, order, 2 * below + peers + 1, axis=0)

    rng = mat.max(axis=0) - mat.min(axis=0)         # block ranges, exact
    vals, inv, counts = np.unique(rng, return_inverse=True,
                                  return_counts=True)
    below_b = np.concatenate([[0], np.cumsum(counts)[:-1]])
    q2 = (2 * below_b + counts + 1)[inv].astype(np.int64)

    s2 = q2[None, :] * (r2 - (k + 1))               # k x H exact cells
    s_j = s2.sum(axis=1)
    sum_sj2 = sum(int(x) * int(x) for x in s_j)
    a2s = int((s2.astype(object) ** 2).sum())
    den = big_h * a2s - sum_sj2
    t_stat = 0.0 if den == 0 else \
        float((big_h - 1) * sum_sj2) / float(den)
    return pa.table({
        "k_types": pa.array([k], pa.int64()),
        "n_blocks": pa.array([big_h], pa.int64()),
        "t_stat": pa.array([round(t_stat, 6)], pa.float64()),
    })


def q_levene_mean(sf_dir: str):
    """Classical (mean-centered) Levene variance-homogeneity test
    across the k types' hourly series — the |x - mean| counterpart of
    brown_forsythe's |x - median|: the dense grid gives every group
    n = H, so with H-scaled exact deviations Z_ij = |H*c_ij - S1_j|
    every moment is an exact (big)integer and the statistic reduces to
    W = (N-k)*H*NUM1 / ((k-1)*k^2*NUM2) with
    NUM1 = sum_j (k*U_j - U)^2, NUM2 = sum_ij (H*Z_ij - U_j)^2 —
    ONE mirrored division (SQL side in HUGEINT)."""
    series, big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    k = len(types)
    n_tot = k * big_h
    u_js = []
    num2 = 0
    for et in types:
        c = series[et]
        s1 = int(c.sum())
        z = np.abs(big_h * c.astype(object) - s1)
        u_j = int(z.sum())
        u_js.append(u_j)
        num2 += int(((big_h * z - u_j) ** 2).sum())
    u = sum(u_js)
    num1 = sum((k * uj - u) ** 2 for uj in u_js)
    den = (k - 1) * k * k * num2
    w = 0.0 if den == 0 else \
        float((n_tot - k) * big_h * num1) / float(den)
    return pa.table({
        "k_groups": pa.array([k], pa.int64()),
        "n": pa.array([n_tot], pa.int64()),
        "w_stat": pa.array([round(w, 6)], pa.float64()),
    })


def q_bartlett(sf_dir: str):
    """Bartlett's variance-homogeneity test across the k types' hourly
    series (equal n = H): with exact integer variance numerators
    nu_j = H*S2_j - S1_j^2 and s_j^2 = nu_j/(H*(H-1)) as ONE mirrored
    double, the statistic is chi2 = (H-1)*(k*fl(sp^2) - sum_j
    fl(s_j^2))/1e6 / C with micro-floored logs fl(x) = floor(ln(x)*1e6)
    and the exact rational correction C = (3k(H-1)+k+1)/(3k(H-1));
    degenerate (any nu_j <= 0) emits 0.0 on both engines."""
    series, big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    k = len(types)
    nus = []
    for et in types:
        c = series[et]
        s1 = int(c.sum())
        s2 = int(np.dot(c, c))
        nus.append(big_h * s2 - s1 * s1)
    if min(nus) <= 0 or big_h < 2 or k < 2:
        chi2 = 0.0
    else:
        den_v = float(big_h * (big_h - 1))
        fls = [math.floor(math.log(float(nu) / den_v) * 1e6)
               for nu in nus]
        flp = math.floor(
            math.log(float(sum(nus)) / float(k * big_h * (big_h - 1)))
            * 1e6)
        num_i = (big_h - 1) * (k * flp - sum(fls))
        chi2 = (float(num_i) / 1e6) \
            * float(3 * k * (big_h - 1)) \
            / float(3 * k * (big_h - 1) + k + 1)
    return pa.table({
        "k_groups": pa.array([k], pa.int64()),
        "n_per_group": pa.array([big_h], pa.int64()),
        "chi2": pa.array([round(chi2, 6)], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 14: association / agreement / concordance
# ---------------------------------------------------------------------------

def q_gk_lambda(sf_dir: str):
    """Goodman-Kruskal lambda — proportional-reduction-in-error
    association between event type and day-of-week (the
    mantel_haenszel epoch-day calendar convention, dow =
    (epoch_day + 3) % 7): lambda_{c|r} = (sum_r max_c n_rc - max_c
    n_+c) / (N - max_c n_+c), the transposed lambda_{r|c}, and the
    symmetric blend over the pooled numerators.  One (type, dow)
    census exchange; all-exact integers to three mirrored divisions
    (max over exact counts is deterministic)."""
    census = dow_census(sf_dir)
    pivot = census.pivot_table(index="event_type", columns="dow",
                               values="n", fill_value=0,
                               aggfunc="sum").to_numpy(np.int64)
    n = int(pivot.sum())
    sum_row_max = int(pivot.max(axis=1).sum())
    sum_col_max = int(pivot.max(axis=0).sum())
    max_col_tot = int(pivot.sum(axis=0).max())
    max_row_tot = int(pivot.sum(axis=1).max())
    l_cr = (0.0 if n == max_col_tot
            else float(sum_row_max - max_col_tot)
            / float(n - max_col_tot))
    l_rc = (0.0 if n == max_row_tot
            else float(sum_col_max - max_row_tot)
            / float(n - max_row_tot))
    den_s = 2 * n - max_col_tot - max_row_tot
    l_sym = (0.0 if den_s == 0
             else float(sum_row_max + sum_col_max
                        - max_col_tot - max_row_tot) / float(den_s))
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "lambda_c_given_r": pa.array([round(l_cr, 6)], pa.float64()),
        "lambda_r_given_c": pa.array([round(l_rc, 6)], pa.float64()),
        "lambda_sym": pa.array([round(l_sym, 6)], pa.float64()),
    })


def q_agreement_coefs(sf_dir: str):
    """Scott's pi and Gwet's AC1 chance-corrected agreement between
    every type pair's mean-binarized hourly indicator (the cohen_kappa
    design, bit_t = 1 iff c_t*H > S1) — the two standard alternatives
    to kappa under marginal imbalance.  With pooled marginal
    2H*pi_bar = a1 + b1, both reduce over the common denominator 4H^2
    to exact integers and ONE mirrored division each:
    pi  = (4H*agree - q1^2 - q0^2) / (4H^2 - q1^2 - q0^2),
    AC1 = (4H*agree - 2*q1*q0) / (4H^2 - 2*q1*q0)
    with q1 = a1 + b1, q0 = 2H - q1."""
    series, big_h = dense_hour_counts(sf_dir)
    bits = {}
    for et, c in series.items():
        s1 = int(c.sum())
        bits[et] = ((c * big_h) > s1).astype(np.int64)
    types = sorted(bits)
    out = {"type_a": [], "type_b": [], "scott_pi": [], "gwet_ac1": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            x, y = bits[ta], bits[tb]
            agree = int(np.count_nonzero(x == y))
            q1 = int(x.sum()) + int(y.sum())
            q0 = 2 * big_h - q1
            den_pi = 4 * big_h * big_h - q1 * q1 - q0 * q0
            num_pi = 4 * big_h * agree - q1 * q1 - q0 * q0
            den_ac = 4 * big_h * big_h - 2 * q1 * q0
            num_ac = 4 * big_h * agree - 2 * q1 * q0
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["scott_pi"].append(
                0.0 if den_pi == 0
                else round(float(num_pi) / float(den_pi), 6))
            out["gwet_ac1"].append(
                0.0 if den_ac == 0
                else round(float(num_ac) / float(den_ac), 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "scott_pi": pa.array(out["scott_pi"], pa.float64()),
        "gwet_ac1": pa.array(out["gwet_ac1"], pa.float64()),
    })


def q_lins_ccc(sf_dir: str):
    """Lin's concordance correlation coefficient between every type
    pair's aligned hourly series — agreement with the 45-degree line,
    not just linearity: the H^2 denominators of covariance, variances
    and squared mean gap all cancel, leaving
    CCC = 2*(H*Sxy - Sx*Sy) / (H*Sxx - Sx^2 + H*Syy - Sy^2 +
    (Sx - Sy)^2) — exact integers to ONE mirrored division."""
    series, big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    out = {"type_a": [], "type_b": [], "ccc": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            x, y = series[ta], series[tb]
            sx, sy = int(x.sum()), int(y.sum())
            sxx = int(np.dot(x, x))
            syy = int(np.dot(y, y))
            sxy = int(np.dot(x, y))
            num = 2 * (big_h * sxy - sx * sy)
            den = (big_h * sxx - sx * sx + big_h * syy - sy * sy
                   + (sx - sy) * (sx - sy))
            ccc = 0.0 if den == 0 else float(num) / float(den)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["ccc"].append(round(ccc, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "ccc": pa.array(out["ccc"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 15: two-sample distribution tests over the cent-value census
# (merged-support cumulative identities — the emd_cents substrate).
# ---------------------------------------------------------------------------

def q_ks_two_sample(sf_dir: str):
    """Two-sample Kolmogorov-Smirnov distance between every type pair's
    cent-value distribution: D = max_v |F_A(v) - F_B(v)| evaluated as
    the exact integer max of |n_B*CA_v - n_A*CB_v| over the merged
    support (inclusive cumulative counts), divided once; ``at_cv`` is
    the smallest cent value attaining the max (deterministic)."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "d_stat": [], "at_cv": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            mv, a_n, b_n = _merged_support(*prof[ta], *prof[tb])
            na, nb = int(a_n.sum()), int(b_n.sum())
            diff = nb * np.cumsum(a_n) - na * np.cumsum(b_n)
            ad = np.abs(diff)
            k = int(ad.argmax())  # numpy argmax = first max = smallest cv
            d = 0.0 if na * nb == 0 else float(int(ad[k])) / float(na * nb)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["d_stat"].append(round(d, 6))
            out["at_cv"].append(int(mv[k]))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "d_stat": pa.array(out["d_stat"], pa.float64()),
        "at_cv": pa.array(out["at_cv"], pa.int64()),
    })


def q_kuiper_two_sample(sf_dir: str):
    """Two-sample Kuiper statistic V = D+ + D- (sup of F_A-F_B plus sup
    of F_B-F_A, each floored at 0) — both sups are exact integer maxima
    of +/-(n_B*CA - n_A*CB) over the merged support, summed over the
    common denominator n_A*n_B before ONE mirrored division.  Unlike KS
    it is equally sensitive in both tails (cyclic-data heritage)."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "kuiper_v": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            _, a_n, b_n = _merged_support(*prof[ta], *prof[tb])
            na, nb = int(a_n.sum()), int(b_n.sum())
            diff = nb * np.cumsum(a_n) - na * np.cumsum(b_n)
            dp = max(0, int(diff.max()))
            dm = max(0, int(-diff.min()))
            v = 0.0 if na * nb == 0 else float(dp + dm) / float(na * nb)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["kuiper_v"].append(round(v, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "kuiper_v": pa.array(out["kuiper_v"], pa.float64()),
    })


def q_cvm_two_sample(sf_dir: str):
    """Two-sample Cramer-von Mises criterion (Anderson 1962 form):
    T = n_A*n_B/N^2 * sum_z (F_A(z) - F_B(z))^2 over all N pooled
    observations z.  On the merged census this is
    sum_v (a_v+b_v) * (n_B*CA_v - n_A*CB_v)^2 / (N^2 * n_A * n_B)
    — exact (big)integers to ONE mirrored division."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "cvm_t": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            _, a_n, b_n = _merged_support(*prof[ta], *prof[tb])
            na, nb = int(a_n.sum()), int(b_n.sum())
            big_n = na + nb
            diff = nb * np.cumsum(a_n) - na * np.cumsum(b_n)
            num = sum(int(w) * int(d) * int(d)
                      for w, d in zip(a_n + b_n, diff))
            den = big_n * big_n * na * nb
            t = 0.0 if den == 0 else float(num) / float(den)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["cvm_t"].append(round(t, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "cvm_t": pa.array(out["cvm_t"], pa.float64()),
    })


def q_cucconi(sf_dir: str):
    """Cucconi (1968) joint location-scale two-sample test between every
    type pair's cent values, with doubled midranks for ties: with
    d_v = 2*W<v + (a_v+b_v) + 1 (an exact integer; rank r = d/2),
    S2d = sum_A a_v*d_v^2 and the contra-rank square sum
    S2d' = 4*(N+1)^2*n_A - 4*(N+1)*S1d + S2d, the standardized pair is
    U = (6*S2d - 4*n_A*(N+1)*(2N+1)) / sqrt(D/5) and
    V = (6*S2d' - 4*n_A*(N+1)*(2N+1)) / sqrt(D/5) with
    D = 16*n_A*n_B*(N+1)*(2N+1)*(8N+11), and
    C = (U^2 + V^2 - 2*rho*U*V) / (2*(1 - rho^2)) with
    rho = 2*(N^2-4)/((2N+1)*(8N+11)) - 1.  All integer terms exact
    (Python bignums / HUGEINT); U, V, rho, C form one token-identical
    mirrored double chain."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "cucconi_c": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            _, a_n, b_n = _merged_support(*prof[ta], *prof[tb])
            na, nb = int(a_n.sum()), int(b_n.sum())
            big_n = na + nb
            if na == 0 or nb == 0 or big_n < 3:
                c_stat = 0.0
            else:
                tot = a_n + b_n
                w_lt = np.cumsum(tot) - tot
                d = 2 * w_lt + tot + 1
                s1d = sum(int(a) * int(dd) for a, dd in zip(a_n, d))
                s2d = sum(int(a) * int(dd) * int(dd)
                          for a, dd in zip(a_n, d))
                s2dc = (4 * (big_n + 1) * (big_n + 1) * na
                        - 4 * (big_n + 1) * s1d + s2d)
                num_u = 6 * s2d - 4 * na * (big_n + 1) * (2 * big_n + 1)
                num_v = 6 * s2dc - 4 * na * (big_n + 1) * (2 * big_n + 1)
                big_d = (16 * na * nb * (big_n + 1) * (2 * big_n + 1)
                         * (8 * big_n + 11))
                u = float(num_u) / math.sqrt(float(big_d) / 5.0)
                v = float(num_v) / math.sqrt(float(big_d) / 5.0)
                rho = (float(2 * (big_n * big_n - 4))
                       / float((2 * big_n + 1) * (8 * big_n + 11)) - 1.0)
                c_stat = ((u * u + v * v - 2.0 * rho * u * v)
                          / (2.0 * (1.0 - rho * rho)))
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["cucconi_c"].append(round(c_stat, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "cucconi_c": pa.array(out["cucconi_c"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 16: contingency-table effect sizes over the (type, day-of-week)
# census (the gk_lambda substrate; dow = (epoch_day + 3) % 7).
# ---------------------------------------------------------------------------

def _type_dow_pivot(sf_dir: str) -> np.ndarray:
    """The (type, dow) contingency census as a dense int64 pivot with
    rows = sorted observed types, cols = sorted observed dows — ONE
    (type, dow) census exchange (<= types x 7 rows)."""
    census = dow_census(sf_dir)
    return census.pivot_table(index="event_type", columns="dow",
                              values="n", fill_value=0,
                              aggfunc="sum").to_numpy(np.int64)


_PICO = 10 ** 12


def q_cramers_v_dow(sf_dir: str):
    """Pearson chi-square of the (type, dow) contingency table and its
    three classical effect sizes — Cramer's V, Tschuprow's T and the
    Pearson contingency coefficient C.  Per-cell terms have varying
    denominators N*R_r*C_c, so each is pico-floored EXACTLY on both
    engines: t_rc = (10^12 * (N*n_rc - R_r*C_c)^2) // (N*R_r*C_c)
    (bignum / HUGEINT floor division), summed as exact integers;
    chi2, V, T, C then form mirrored double chains."""
    piv = _type_dow_pivot(sf_dir)
    n = int(piv.sum())
    rows = [int(x) for x in piv.sum(axis=1)]
    cols = [int(x) for x in piv.sum(axis=0)]
    r_cnt, c_cnt = piv.shape
    chi2_pico = 0
    for i, rr in enumerate(rows):
        for j, cc in enumerate(cols):
            cell = int(piv[i, j])
            diff = n * cell - rr * cc
            chi2_pico += (_PICO * diff * diff) // (n * rr * cc)
    chi2 = float(chi2_pico) / 1e12
    kmin = min(r_cnt - 1, c_cnt - 1)
    v = (0.0 if n * kmin == 0
         else math.sqrt(float(chi2_pico) / (1e12 * float(n * kmin))))
    kgeo = (r_cnt - 1) * (c_cnt - 1)
    t = (0.0 if n == 0 or kgeo == 0
         else math.sqrt(float(chi2_pico)
                        / (1e12 * float(n) * math.sqrt(float(kgeo)))))
    c_coef = math.sqrt(float(chi2_pico) / float(chi2_pico + _PICO * n))
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "chi2": pa.array([round(chi2, 6)], pa.float64()),
        "cramers_v": pa.array([round(v, 6)], pa.float64()),
        "tschuprow_t": pa.array([round(t, 6)], pa.float64()),
        "pearson_c": pa.array([round(c_coef, 6)], pa.float64()),
    })


def q_gk_tau(sf_dir: str):
    """Goodman-Kruskal tau — proportional reduction in classification
    VARIATION (the variance analogue of gk_lambda) both ways over the
    (type, dow) table: tau_{c|r} = (N*sum_r S_r/R_r - sum_c C_c^2) /
    (N^2 - sum_c C_c^2) with S_r = sum_c n_rc^2.  The per-row /
    per-column fractions are pico-floored exactly (u_r = (10^12*S_r)
    // R_r), keeping every sum an exact (big)integer to ONE mirrored
    division per direction."""
    piv = _type_dow_pivot(sf_dir)
    n = int(piv.sum())
    rows = [int(x) for x in piv.sum(axis=1)]
    cols = [int(x) for x in piv.sum(axis=0)]
    srr = sum(rr * rr for rr in rows)
    scc = sum(cc * cc for cc in cols)
    u_sum = sum((_PICO * int(np.dot(piv[i], piv[i]))) // rows[i]
                for i in range(piv.shape[0]) if rows[i] > 0)
    t_sum = sum((_PICO * int(np.dot(piv[:, j], piv[:, j]))) // cols[j]
                for j in range(piv.shape[1]) if cols[j] > 0)
    den_cr = _PICO * (n * n - scc)
    den_rc = _PICO * (n * n - srr)
    tau_cr = (0.0 if den_cr == 0
              else float(n * u_sum - _PICO * scc) / float(den_cr))
    tau_rc = (0.0 if den_rc == 0
              else float(n * t_sum - _PICO * srr) / float(den_rc))
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "tau_c_given_r": pa.array([round(tau_cr, 6)], pa.float64()),
        "tau_r_given_c": pa.array([round(tau_rc, 6)], pa.float64()),
    })


def q_yule_coefs(sf_dir: str):
    """Yule's Q (association) and Y (colligation) of the 2x2
    weekend x purchase table (the cohens_h margin convention:
    weekend = dow >= 5, dow = (epoch_day + 3) % 7):
    Q = (ad - bc)/(ad + bc), Y = (sqrt(ad) - sqrt(bc)) /
    (sqrt(ad) + sqrt(bc)) — exact integer cell products, mirrored
    sqrt/division chain, 0.0 when ad + bc = 0."""
    census = weekend_purchase_census(sf_dir)
    cell = {(int(r["we"]), int(r["pu"])): int(r["n"])
            for _, r in census.iterrows()}
    a = cell.get((1, 1), 0)
    b = cell.get((1, 0), 0)
    c = cell.get((0, 1), 0)
    d = cell.get((0, 0), 0)
    if a * d + b * c == 0:
        q = y = 0.0
    else:
        q = float(a * d - b * c) / float(a * d + b * c)
        y = ((math.sqrt(float(a * d)) - math.sqrt(float(b * c)))
             / (math.sqrt(float(a * d)) + math.sqrt(float(b * c))))
    return pa.table({
        "yule_q": pa.array([round(q, 6)], pa.float64()),
        "yule_y": pa.array([round(y, 6)], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 17: multi-rater agreement over the dense hourly grid (types as
# raters of hours; the agreement_coefs mean-binarization convention).
# ---------------------------------------------------------------------------

def q_fleiss_kappa(sf_dir: str):
    """Fleiss' kappa across ALL types at once (multi-rater
    generalization of the pairwise agreement_coefs): each type "rates"
    each hour 1 iff its hourly count exceeds its own mean (exact
    cross-multiplication c*H > S).  With A = sum_i sum_j n_ij^2 - H*n
    and B = sum_j C_j^2, kappa = (A*H*n - B*(n-1)) /
    ((n-1)*(H^2*n^2 - B)) — all exact integers to ONE mirrored
    division (n = number of rater types)."""
    series, big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    nr = len(types)
    if nr < 2:
        return pa.table({"n_raters": pa.array([nr], pa.int64()),
                         "fleiss_kappa": pa.array([0.0], pa.float64())})
    bits = np.stack([
        (series[t] * big_h > int(series[t].sum())).astype(np.int64)
        for t in types])
    n1 = bits.sum(axis=0)
    n0 = nr - n1
    a_sum = int(np.dot(n1, n1) + np.dot(n0, n0)) - big_h * nr
    c1 = int(n1.sum())
    c0 = big_h * nr - c1
    b_sum = c1 * c1 + c0 * c0
    den = (nr - 1) * (big_h * big_h * nr * nr - b_sum)
    kappa = (0.0 if den == 0
             else float(a_sum * big_h * nr - b_sum * (nr - 1))
             / float(den))
    return pa.table({
        "n_raters": pa.array([nr], pa.int64()),
        "fleiss_kappa": pa.array([round(kappa, 6)], pa.float64()),
    })


def q_kripp_alpha(sf_dir: str):
    """Krippendorff's alpha (nominal, binary, complete data) for the
    same types-rate-hours panel: with pairable values N = H*n,
    alpha = 1 - ((N-1) * sum_i n_i1*n_i0) / ((n-1) * C1 * C0) — the
    coincidence-matrix form reduces to exact integers; 0.0 when a
    margin is empty (undefined chance disagreement)."""
    series, big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    nr = len(types)
    if nr < 2:
        return pa.table({"kripp_alpha": pa.array([0.0], pa.float64())})
    bits = np.stack([
        (series[t] * big_h > int(series[t].sum())).astype(np.int64)
        for t in types])
    n1 = bits.sum(axis=0)
    n0 = nr - n1
    disc = int(np.dot(n1, n0))
    c1 = int(n1.sum())
    c0 = big_h * nr - c1
    big_n = big_h * nr
    den = (nr - 1) * c1 * c0
    alpha = (0.0 if den == 0
             else 1.0 - float((big_n - 1) * disc) / float(den))
    return pa.table({
        "kripp_alpha": pa.array([round(alpha, 6)], pa.float64()),
    })


def q_weighted_kappa(sf_dir: str):
    """Linear- and quadratic-weighted Cohen's kappa between every type
    pair's quintile-coded hourly series (the rfm ntile remainder rule,
    deterministic tie order (count, hr)): with joint census O over the
    5x5 grid and margins R/C, kappa_w = 1 - H*sum w_ij*O_ij /
    sum w_ij*R_i*C_j for disagreement weights w = |i-j| (linear) and
    (i-j)^2 (quadratic) — exact integers to ONE mirrored division
    each."""
    series, big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    codes = {}
    for t in types:
        c = series[t]
        order = np.lexsort((np.arange(big_h), c))  # (c, hr) mergesort
        q = np.empty(big_h, np.int64)
        for rank0, idx in enumerate(order):
            q[idx] = _ntile_1based(rank0 + 1, big_h, 5)
        codes[t] = q
    out = {"type_a": [], "type_b": [], "kappa_lin": [], "kappa_quad": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            qa, qb = codes[ta], codes[tb]
            joint = np.zeros((5, 5), np.int64)
            np.add.at(joint, (qa - 1, qb - 1), 1)
            rr = joint.sum(axis=1)
            cc = joint.sum(axis=0)
            idx = np.arange(5)
            wl = np.abs(idx[:, None] - idx[None, :])
            wq = wl * wl
            o_lin = int((wl * joint).sum())
            o_quad = int((wq * joint).sum())
            e_lin = int((wl * np.outer(rr, cc)).sum())
            e_quad = int((wq * np.outer(rr, cc)).sum())
            kl = 0.0 if e_lin == 0 else 1.0 - float(big_h * o_lin) / float(e_lin)
            kq = (0.0 if e_quad == 0
                  else 1.0 - float(big_h * o_quad) / float(e_quad))
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["kappa_lin"].append(round(kl, 6))
            out["kappa_quad"].append(round(kq, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "kappa_lin": pa.array(out["kappa_lin"], pa.float64()),
        "kappa_quad": pa.array(out["kappa_quad"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 18: signal-complexity family over the dense hourly grid.
# ---------------------------------------------------------------------------

def _var_numerator(x: np.ndarray) -> int:
    """Exact integer population-variance numerator n*S2 - S1^2 (the
    common denominator n^2 is applied by the caller)."""
    n = len(x)
    return n * int(np.dot(x, x)) - int(x.sum()) ** 2


def q_hjorth_params(sf_dir: str):
    """Hjorth descriptors of each type's hourly series: activity =
    population variance, mobility = sqrt(var(dx)/var(x)), complexity =
    mobility(dx)/mobility(x).  Each variance keeps its exact integer
    numerator nu_k (denominators H^2, (H-1)^2, (H-2)^2 cross-multiply
    into the ratios), so mobility and complexity are mirrored
    sqrt-of-exact-ratio chains."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "activity": [], "mobility": [],
           "complexity": []}
    for et in sorted(series):
        x = series[et]
        d1 = np.diff(x)
        d2 = np.diff(d1)
        nu0 = _var_numerator(x) if big_h >= 3 else 0
        nu1 = _var_numerator(d1) if big_h >= 3 else 0
        nu2 = _var_numerator(d2) if big_h >= 3 else 0
        act = float(nu0) / float(big_h * big_h)
        mob = (0.0 if nu0 == 0
               else math.sqrt(float(nu1 * big_h * big_h)
                              / float(nu0 * (big_h - 1) * (big_h - 1))))
        mob2 = (0.0 if nu1 == 0
                else math.sqrt(float(nu2 * (big_h - 1) * (big_h - 1))
                               / float(nu1 * (big_h - 2) * (big_h - 2))))
        comp = 0.0 if mob == 0.0 else mob2 / mob
        out["event_type"].append(et)
        out["activity"].append(round(act, 6))
        out["mobility"].append(round(mob, 6))
        out["complexity"].append(round(comp, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "activity": pa.array(out["activity"], pa.float64()),
        "mobility": pa.array(out["mobility"], pa.float64()),
        "complexity": pa.array(out["complexity"], pa.float64()),
    })


def q_sample_entropy(sf_dir: str):
    """Sample entropy SampEn(m=2, r) of each type's hourly series
    (Richman-Moorman): both template lengths use the same H-2 starts;
    B = pairs i<j with Chebyshev distance of the length-2 templates
    <= r, A = same for length-3; r is the exact lower-median of the
    absolute first differences (quantile_disc semantics,
    sorted[ceil(n/2)-1]).  Counts are exact integers; SampEn is
    reported through the micro-floored-ln protocol:
    (floor(1e6*ln(B)) - floor(1e6*ln(A))) / 1e6."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "r_tol": [], "b_cnt": [], "a_cnt": [],
           "sampen": []}
    for et in sorted(series):
        x = series[et]
        ad = np.sort(np.abs(np.diff(x)))
        r = int(ad[(len(ad) + 1) // 2 - 1]) if len(ad) else 0
        n_t = big_h - 2
        if n_t < 2:
            b_cnt = a_cnt = 0
        else:
            x0 = x[:n_t]
            x1 = x[1:n_t + 1]
            x2 = x[2:n_t + 2]
            # row-blocked strict-upper-triangle template match: O(H^2)
            # compute (inherent to exact SampEn pair counts) but
            # O(blk * H) memory — the full H x H matrices plus
            # np.triu_indices materialized ~5 GB at a 26k-hour grid
            # (round-3 verdict pair-statistics family).  Bandwidth
            # tricks: narrowest exact dtype for the diffs, columns
            # sliced to j > s (only pairs i < j are needed), and the
            # row-vs-col mask applied only on the small triangle part.
            b_cnt = a_cnt = 0
            vmax = int(x.max())
            dt = (np.int16 if vmax < (1 << 14)
                  else np.int32 if vmax < (1 << 30) else np.int64)
            w0, w1, w2 = x0.astype(dt), x1.astype(dt), x2.astype(dt)
            blk = 2048
            for s in range(0, n_t, blk):
                e = min(s + blk, n_t)

                def _count(cols, mask):
                    m2 = ((np.abs(w0[s:e, None] - w0[None, cols]) <= r)
                          & (np.abs(w1[s:e, None] - w1[None, cols]) <= r))
                    if mask is not None:
                        m2 &= mask
                    bc = int(m2.sum())
                    ac = int((m2 & (np.abs(w2[s:e, None]
                                           - w2[None, cols]) <= r)).sum())
                    return bc, ac

                if e - s > 1:  # triangle: cols s+1..e-1, need col > row
                    cols = slice(s + 1, e)
                    mask = (np.arange(s + 1, e)[None, :]
                            > np.arange(s, e)[:, None])
                    bc, ac = _count(cols, mask)
                    b_cnt += bc
                    a_cnt += ac
                if e < n_t:  # rectangle: cols e..n_t-1, always col > row
                    bc, ac = _count(slice(e, n_t), None)
                    b_cnt += bc
                    a_cnt += ac
        if a_cnt == 0 or b_cnt == 0:
            se = 0.0
        else:
            se = (math.floor(1e6 * math.log(float(b_cnt)))
                  - math.floor(1e6 * math.log(float(a_cnt)))) / 1e6
        out["event_type"].append(et)
        out["r_tol"].append(r)
        out["b_cnt"].append(b_cnt)
        out["a_cnt"].append(a_cnt)
        out["sampen"].append(round(se, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "r_tol": pa.array(out["r_tol"], pa.int64()),
        "b_cnt": pa.array(out["b_cnt"], pa.int64()),
        "a_cnt": pa.array(out["a_cnt"], pa.int64()),
        "sampen": pa.array(out["sampen"], pa.float64()),
    })


def q_katz_fd(sf_dir: str):
    """Katz fractal dimension of each type's hourly series:
    KFD = ln(n) / (ln(n) + ln(d) - ln(L)) with n = H-1 steps, total
    path length L = sum |dx| and extent d = max |x_i - x_0| — all
    three logs of exact integers micro-floored (the bm25 protocol),
    then ONE mirrored integer division."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "katz_fd": []}
    for et in sorted(series):
        x = series[et]
        big_l = int(np.abs(np.diff(x)).sum())
        d = int(np.abs(x - x[0]).max())
        n = big_h - 1
        if big_l == 0 or d == 0 or n < 1:
            k = 0.0
        else:
            ln_n = math.floor(1e6 * math.log(float(n)))
            ln_d = math.floor(1e6 * math.log(float(d)))
            ln_l = math.floor(1e6 * math.log(float(big_l)))
            den = ln_n + ln_d - ln_l
            k = 0.0 if den == 0 else float(ln_n) / float(den)
        out["event_type"].append(et)
        out["katz_fd"].append(round(k, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "katz_fd": pa.array(out["katz_fd"], pa.float64()),
    })


def q_mean_crossings(sf_dir: str):
    """Mean-crossing count and rate of each type's hourly series: with
    exact signs s_i = sign(H*x_i - S1) (cross-multiplication, no
    float mean), crossings = #{i : s_i * s_{i+1} < 0} — strict sign
    flips only, zeros break runs without counting.  rate =
    crossings/(H-1) as one mirrored division."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "crossings": [], "rate": []}
    for et in sorted(series):
        x = series[et]
        s1 = int(x.sum())
        s = np.sign(big_h * x.astype(object) - s1).astype(np.int64)
        cross = int(((s[:-1] * s[1:]) < 0).sum())
        rate = 0.0 if big_h < 2 else float(cross) / float(big_h - 1)
        out["event_type"].append(et)
        out["crossings"].append(cross)
        out["rate"].append(round(rate, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "crossings": pa.array(out["crossings"], pa.int64()),
        "rate": pa.array(out["rate"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 19: robust scale estimators over the cent-value census.
# ---------------------------------------------------------------------------

def _order_stat(vals: np.ndarray, cnts: np.ndarray, k: int) -> int:
    """Exact k-th (1-based) order statistic from a sorted census."""
    cum = np.cumsum(cnts)
    return int(vals[int(np.searchsorted(cum, k))])


def q_gini_mean_diff(sf_dir: str):
    """Gini mean difference per type (U-statistic convention):
    GMD = 2 * sum_{i<j} |x_i - x_j| / (n*(n-1)), with the pairwise-sum
    computed in O(support) from the census via the strictly-below
    cumulative identity (the energy_distance gaa term), plus the
    relative GMD (= GMD/mean = 2*gaa / ((n-1)*S1), twice the Gini
    coefficient).  Exact integers to one mirrored division each."""
    prof = _cent_profiles(sf_dir)
    out = {"event_type": [], "gmd_cents": [], "gmd_rel": []}
    for et in sorted(prof):
        v, a = prof[et]
        n = int(a.sum())
        wa_lt = np.cumsum(a) - a
        sa_lt = np.cumsum(v * a) - v * a
        gaa = sum(int(aa) * (int(vv) * int(w) - int(s))
                  for aa, vv, w, s in zip(a, v, wa_lt, sa_lt))
        s1 = int(np.dot(v, a))
        gmd = (0.0 if n < 2
               else float(2 * gaa) / float(n * (n - 1)))
        rel = (0.0 if n < 2 or s1 == 0
               else float(2 * gaa) / float((n - 1) * s1))
        out["event_type"].append(et)
        out["gmd_cents"].append(round(gmd, 6))
        out["gmd_rel"].append(round(rel, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "gmd_cents": pa.array(out["gmd_cents"], pa.float64()),
        "gmd_rel": pa.array(out["gmd_rel"], pa.float64()),
    })


def q_robust_spread(sf_dir: str):
    """Median / MAD / quartile spread per type in exact cents —
    quantile_disc semantics (sorted[ceil(q*n)-1]) throughout, the MAD
    re-censuses |cv - med|; qcd = (Q3-Q1)/(Q3+Q1) is the one mirrored
    division."""
    prof = _cent_profiles(sf_dir)
    out = {"event_type": [], "med_cents": [], "mad_cents": [],
           "q1_cents": [], "q3_cents": [], "iqr_cents": [], "qcd": []}
    for et in sorted(prof):
        v, a = prof[et]
        n = int(a.sum())
        med = _order_stat(v, a, -(-n // 2))
        q1 = _order_stat(v, a, -(-n // 4))
        q3 = _order_stat(v, a, -(-(3 * n) // 4))
        av = np.abs(v - med)
        order = np.argsort(av, kind="mergesort")
        mad = _order_stat(av[order], a[order], -(-n // 2))
        qcd = (0.0 if q3 + q1 == 0
               else float(q3 - q1) / float(q3 + q1))
        out["event_type"].append(et)
        out["med_cents"].append(med)
        out["mad_cents"].append(mad)
        out["q1_cents"].append(q1)
        out["q3_cents"].append(q3)
        out["iqr_cents"].append(q3 - q1)
        out["qcd"].append(round(qcd, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "med_cents": pa.array(out["med_cents"], pa.int64()),
        "mad_cents": pa.array(out["mad_cents"], pa.int64()),
        "q1_cents": pa.array(out["q1_cents"], pa.int64()),
        "q3_cents": pa.array(out["q3_cents"], pa.int64()),
        "iqr_cents": pa.array(out["iqr_cents"], pa.int64()),
        "qcd": pa.array(out["qcd"], pa.float64()),
    })


def q_qn_scale(sf_dir: str):
    """Rousseeuw-Croux Qn per type (raw order statistic, no
    consistency constant): the k-th smallest of the C(n,2) pairwise
    absolute differences, k = C(h,2) with h = n//2 + 1 — found by
    integer binary search over d with the O(support) census count
    N(d) = sum_v a_v*(cum(v+d) - cum(v)) + sum_v C(a_v, 2); the
    pairwise multiset is never materialized (the hodges_lehmann
    probe pattern).  Exact integer output (cents)."""
    prof = _cent_profiles(sf_dir)
    out = {"event_type": [], "n": [], "qn_cents": []}
    for et in sorted(prof):
        v, a = prof[et]
        n = int(a.sum())
        if n < 2:
            qn = 0
        else:
            h = n // 2 + 1
            k = h * (h - 1) // 2
            cum = np.cumsum(a)
            within = int((a.astype(object) * (a - 1) // 2).sum())

            def n_le(d: int) -> int:
                hi = np.searchsorted(v, v + d, side="right")
                between = int(np.dot(a, cum[hi - 1] - cum))
                return between + within

            lo_d, hi_d = 0, int(v[-1] - v[0])
            while lo_d < hi_d:
                mid = (lo_d + hi_d) // 2
                if n_le(mid) >= k:
                    hi_d = mid
                else:
                    lo_d = mid + 1
            qn = lo_d
        out["event_type"].append(et)
        out["n"].append(n)
        out["qn_cents"].append(qn)
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n": pa.array(out["n"], pa.int64()),
        "qn_cents": pa.array(out["qn_cents"], pa.int64()),
    })


# ---------------------------------------------------------------------------
# wave 20: vocabulary richness estimators over the freq-of-freq census
# (the chao1/ace substrate — stats4.freq_of_freq).
# ---------------------------------------------------------------------------

def q_jackknife_richness(sf_dir: str):
    """First- and second-order jackknife richness estimators of the
    unseen vocabulary (Burnham-Overton, abundance form):
    jack1 = V + V1*(N-1)/N and
    jack2 = V + V1*(2N-3)/N - V2*(N-2)^2/(N*(N-1)) — exact integer
    terms, mirrored left-to-right double chains."""
    from .stats4 import freq_of_freq

    f = freq_of_freq(sf_dir)
    n, v, v1, v2 = f["n"], f["v"], f["v1"], f["v2"]
    if n < 2:
        j1 = j2 = float(v)
    else:
        j1 = float(v) + float(v1 * (n - 1)) / float(n)
        j2 = (float(v) + float(v1 * (2 * n - 3)) / float(n)
              - float(v2 * (n - 2) * (n - 2)) / float(n * (n - 1)))
    return pa.table({
        "vocab": pa.array([v], pa.int64()),
        "jack1": pa.array([round(j1, 6)], pa.float64()),
        "jack2": pa.array([round(j2, 6)], pa.float64()),
    })


def q_menhinick_dugast(sf_dir: str):
    """Menhinick richness R = V/sqrt(N) (mirrored sqrt) and Dugast's
    Uber index U = ln(N)^2 / (ln N - ln V) through the micro-floored-ln
    protocol: U = (ln_n*ln_n) / (1e6*(ln_n - ln_v)) over the floored
    integer logs — one mirrored division; 0.0 when V = N or V < 2."""
    from .stats4 import freq_of_freq

    f = freq_of_freq(sf_dir)
    n, v = f["n"], f["v"]
    men = 0.0 if n == 0 else float(v) / math.sqrt(float(n))
    if n < 2 or v < 2 or v == n:
        uber = 0.0
    else:
        ln_n = math.floor(1e6 * math.log(float(n)))
        ln_v = math.floor(1e6 * math.log(float(v)))
        uber = (0.0 if ln_n == ln_v
                else float(ln_n * ln_n) / float(1000000 * (ln_n - ln_v)))
    return pa.table({
        "vocab": pa.array([v], pa.int64()),
        "menhinick": pa.array([round(men, 6)], pa.float64()),
        "dugast_uber": pa.array([round(uber, 6)], pa.float64()),
    })


def q_brillouin_index(sf_dir: str):
    """Brillouin diversity of the term distribution:
    H_B = (ln N! - sum_m V_m * ln m!) / N, with every log factorial
    expanded as the exact integer sum of micro-floored logs
    LF(k) = sum_{i=2..k} floor(1e6*ln i) (identical single-libm floors
    on both engines) — exact integers to ONE mirrored division."""
    census = term_census(sf_dir).to_pandas()
    m_arr = census["n"].to_numpy(np.int64)
    big_n = int(m_arr.sum())
    if big_n < 2:
        hb = 0.0
    else:
        max_m = int(m_arr.max())
        lf = [0, 0]  # LF(0) = LF(1) = 0
        acc = 0
        for i in range(2, max(max_m, big_n) + 1):
            acc += math.floor(1e6 * math.log(float(i)))
            lf.append(acc)
        num = lf[big_n] - sum(lf[int(m)] for m in m_arr)
        hb = float(num) / float(1000000 * big_n)
    return pa.table({
        "n_tokens": pa.array([big_n], pa.int64()),
        "brillouin": pa.array([round(hb, 6)], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 21: bivariate dependence between aligned hourly type pairs.
# ---------------------------------------------------------------------------

def q_hoeffding_d(sf_dir: str):
    """Hoeffding's D independence statistic for every aligned hourly
    type pair, tie-adjusted with midranks and SAS-convention bivariate
    ranks Q_i = 1 + c_ll + (c_el + c_le)/2 + c_ee/4: with the
    integer-scaled 2R, 2S, 4Q,
    D = 30 * ((n-2)(n-3)*A1 + A2 - 2(n-2)*A3) /
        (16 * n(n-1)(n-2)(n-3)(n-4)),
    A1 = sum (4Q-4)(4Q-8), A2 = sum (2R-2)(2R-4)(2S-2)(2S-4),
    A3 = sum (2R-4)(2S-4)(4Q-4) — all exact (big)integers to ONE
    mirrored division.

    The rank counts come from the exact O(H log H) merge/searchsorted
    kernels in ``functions/pairstats.py`` (bit-identical to the H x H
    comparison matrices they replaced — round-3 verdict item: H ~ 26k
    hours made those matrices ~700 MB per pair and minutes-slow); the
    O(H) bignum folds below are unchanged and milliseconds."""
    from ..functions.pairstats import bivariate_rank_counts, rank_lt_eq

    series, big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    out = {"type_a": [], "type_b": [], "hoeffding_d": []}
    n = big_h
    ranks = {t: rank_lt_eq(series[t]) for t in types}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            if n < 5:
                out["type_a"].append(ta)
                out["type_b"].append(tb)
                out["hoeffding_d"].append(0.0)
                continue
            x, y = series[ta], series[tb]
            # doubled midranks
            xl, xe = ranks[ta]
            yl, ye = ranks[tb]
            r2 = 2 * xl + xe + 1
            s2 = 2 * yl + ye + 1
            c_ll, c_el, c_le, c_ee = bivariate_rank_counts(x, y)
            q4 = 4 + 4 * c_ll + 2 * (c_el + c_le) + c_ee
            a1 = sum(int(q) * (int(q) - 4) for q in (q4 - 4))
            a2 = sum((int(r) - 2) * (int(r) - 4)
                     * (int(s) - 2) * (int(s) - 4)
                     for r, s in zip(r2, s2))
            a3 = sum((int(r) - 4) * (int(s) - 4) * (int(q) - 4)
                     for r, s, q in zip(r2, s2, q4))
            num = 30 * ((n - 2) * (n - 3) * a1 + a2
                        - 2 * (n - 2) * a3)
            den = (16 * n * (n - 1) * (n - 2) * (n - 3) * (n - 4))
            d = float(num) / float(den)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["hoeffding_d"].append(round(d, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "hoeffding_d": pa.array(out["hoeffding_d"], pa.float64()),
    })


def q_blomqvist_beta(sf_dir: str):
    """Blomqvist's beta (medial correlation) per aligned type pair:
    with exact lower medians (quantile_disc semantics) mx, my,
    beta = (n1 - n2)/(n1 + n2) where n1 = strictly-concordant and
    n2 = strictly-discordant quadrant counts (points ON a median are
    excluded).  Exact integers to one mirrored division."""
    series, big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    out = {"type_a": [], "type_b": [], "blomqvist_beta": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            x, y = series[ta], series[tb]
            mx = int(np.sort(x)[(big_h + 1) // 2 - 1])
            my = int(np.sort(y)[(big_h + 1) // 2 - 1])
            n1 = int((((x > mx) & (y > my))
                      | ((x < mx) & (y < my))).sum())
            n2 = int((((x > mx) & (y < my))
                      | ((x < mx) & (y > my))).sum())
            beta = (0.0 if n1 + n2 == 0
                    else float(n1 - n2) / float(n1 + n2))
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["blomqvist_beta"].append(round(beta, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "blomqvist_beta": pa.array(out["blomqvist_beta"], pa.float64()),
    })


def q_dcor(sf_dir: str):
    """Szekely-Rizzo distance correlation per aligned type pair
    (V-statistic): with integer distance matrices a_ij = |x_i-x_j|,
    b_ij = |y_i-y_j| and P = sum a_ij*b_ij, ra_i = sum_j a_ij,
    n^4 * dCov^2 = n^2*P + Sa*Sb - 2n*sum_i ra_i*rb_i (exact bigints;
    the same identity gives n^4*dVar for each margin), then
    dCor = sqrt(nc / sqrt(vx*vy)) as one mirrored chain.

    P and the row sums ra_i come from the exact O(H log H) merge
    kernels in ``functions/pairstats.py`` (P = 2 * sum_{i<j}
    |dx||dy| via x-sorted merge-by-y prefix sums; ra via sorted prefix
    sums) — bit-identical to the blocked H x H distance matrices they
    replaced; the O(H) bignum fold for q is unchanged."""
    from ..functions.pairstats import (abs_dist_row_sums,
                                       abs_prod_pair_sum, exact_dot)

    series, big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    n = big_h
    rows = {t: abs_dist_row_sums(series[t]) for t in types}

    def dstats(x, y, ra, rb):
        p = 2 * abs_prod_pair_sum(x, y)
        q = exact_dot(ra, rb)
        sa, sb = int(ra.sum()), int(rb.sum())
        return n * n * p + sa * sb - 2 * n * q

    out = {"type_a": [], "type_b": [], "dcor": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            x, y = series[ta], series[tb]
            ra, rb = rows[ta], rows[tb]
            nc = dstats(x, y, ra, rb)
            vx = dstats(x, x, ra, ra)
            vy = dstats(y, y, rb, rb)
            if vx <= 0 or vy <= 0 or nc <= 0:
                d = 0.0
            else:
                d = math.sqrt(float(nc)
                              / math.sqrt(float(vx) * float(vy)))
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["dcor"].append(round(d, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "dcor": pa.array(out["dcor"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 22: homogeneity / long-memory extras over the dense hourly grid.
# ---------------------------------------------------------------------------

def q_snht(sf_dir: str):
    """Alexandersson's Standard Normal Homogeneity Test per type:
    T_k = [k*zbar1^2 + (H-k)*zbar2^2] collapses to
    T_k = D_k^2 * H / (nu0 * k * (H-k)) with D_k = H*S1k - k*S1 and
    the population-variance numerator nu0 = H*S2 - S1^2.  The argmax
    is taken over the mirrored double u_k = D_k^2 / (k*(H-k))
    (identical doubles on both engines; ties -> smallest k); t_max is
    one further mirrored division."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "at_k": [], "t_max": []}
    for et in sorted(series):
        x = series[et]
        s1 = int(x.sum())
        nu0 = big_h * int(np.dot(x, x)) - s1 * s1
        best_u, best_k, best_d2 = -1.0, 0, 0
        cum = 0
        for k in range(1, big_h):
            cum += int(x[k - 1])
            d = big_h * cum - k * s1
            u = float(d * d) / float(k * (big_h - k))
            if u > best_u:
                best_u, best_k, best_d2 = u, k, d * d
        if nu0 == 0 or best_k == 0:
            out["event_type"].append(et)
            out["at_k"].append(0)
            out["t_max"].append(0.0)
            continue
        t_max = (float(best_d2 * big_h)
                 / float(nu0 * best_k * (big_h - best_k)))
        out["event_type"].append(et)
        out["at_k"].append(best_k)
        out["t_max"].append(round(t_max, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "at_k": pa.array(out["at_k"], pa.int64()),
        "t_max": pa.array(out["t_max"], pa.float64()),
    })


def q_foster_stuart(sf_dir: str):
    """Foster-Stuart records test per type: counts of strict upper (U)
    and lower (L) records after the first observation, the trend
    statistic d = U - L and the dispersion statistic s = U + L — all
    exact integers (no float column at all)."""
    series, _ = dense_hour_counts(sf_dir)
    out = {"event_type": [], "n_upper": [], "n_lower": [], "fs_d": [],
           "fs_s": []}
    for et in sorted(series):
        x = series[et]
        run_max = np.maximum.accumulate(x[:-1])
        run_min = np.minimum.accumulate(x[:-1])
        up = int((x[1:] > run_max).sum())
        lo = int((x[1:] < run_min).sum())
        out["event_type"].append(et)
        out["n_upper"].append(up)
        out["n_lower"].append(lo)
        out["fs_d"].append(up - lo)
        out["fs_s"].append(up + lo)
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n_upper": pa.array(out["n_upper"], pa.int64()),
        "n_lower": pa.array(out["n_lower"], pa.int64()),
        "fs_d": pa.array(out["fs_d"], pa.int64()),
        "fs_s": pa.array(out["fs_s"], pa.int64()),
    })


_RS_WINDOWS = (64, 256)


def q_rs_hurst(sf_dir: str):
    """Classic rescaled-range (R/S) analysis per type at window sizes
    64 and 256 (non-overlapping full windows): per window the range of
    mean-adjusted cumulative deviations is the exact integer
    max-min of (w*cum_t - t*S1w), the sample std uses the exact
    numerator nu_w = w*S2 - S1^2, each window's R/S is the mirrored
    double (rng/w) / sqrt(nu/(w*(w-1))) micro-floored to an integer
    (identical floors both engines; zero-variance windows skipped),
    and the implied Hurst exponent is (ln(sum256*n64) -
    ln(sum64*n256)) / (1e6*ln 4) through micro-floored logs with the
    literal 1386294 = floor(1e6*ln 4)."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "rs64": [], "rs256": [], "hurst_rs": []}
    for et in sorted(series):
        x = series[et]
        sums = {}
        cnts = {}
        for w in _RS_WINDOWS:
            tot = 0
            used = 0
            for j in range(big_h // w):
                seg = x[j * w:(j + 1) * w]
                s1 = int(seg.sum())
                s2 = int(np.dot(seg, seg))
                nu = w * s2 - s1 * s1
                cum = np.cumsum(seg)
                devs = w * cum - np.arange(1, w + 1) * s1
                rng = int(devs.max()) - int(devs.min())
                if nu > 0 and rng > 0:
                    rs = ((float(rng) / float(w))
                          / math.sqrt(float(nu) / float(w * (w - 1))))
                    tot += math.floor(1e6 * rs)
                    used += 1
            sums[w], cnts[w] = tot, used
        rs64 = (0.0 if cnts[64] == 0
                else float(sums[64]) / float(1000000 * cnts[64]))
        rs256 = (0.0 if cnts[256] == 0
                 else float(sums[256]) / float(1000000 * cnts[256]))
        if sums[64] <= 0 or sums[256] <= 0:
            hurst = 0.0
        else:
            ln_p = math.floor(1e6 * math.log(float(sums[256]
                                                   * cnts[64])))
            ln_q = math.floor(1e6 * math.log(float(sums[64]
                                                   * cnts[256])))
            hurst = float(ln_p - ln_q) / float(1386294)
        out["event_type"].append(et)
        out["rs64"].append(round(rs64, 6))
        out["rs256"].append(round(rs256, 6))
        out["hurst_rs"].append(round(hurst, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "rs64": pa.array(out["rs64"], pa.float64()),
        "rs256": pa.array(out["rs256"], pa.float64()),
        "hurst_rs": pa.array(out["hurst_rs"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 23: two-sample score tests with exact permutation-moment
# standardization (the generic pattern: ANY integer score function s_v
# over the pooled census gives z = (N*T - n1*S1) /
# sqrt(n1*n2*(N*S2 - S1^2)/(N-1)) with T = sum_A a_v*s_v and the
# pooled moments S1/S2 — every term an exact (big)integer).
# ---------------------------------------------------------------------------

def _perm_z(t_stat: int, s1: int, s2: int, n1: int, n2: int) -> float:
    big_n = n1 + n2
    if big_n < 2 or n1 == 0 or n2 == 0:
        return 0.0
    num = big_n * t_stat - n1 * s1
    # the variance numerator n1*n2*(N*s2 - s1^2) is kept as TWO exact
    # integers rounded separately and multiplied in IEEE double: the single
    # exact product exceeds DuckDB's INT128 for 4th-moment scores at sf1
    # (mood: dev^4 terms; savage: 1e8-scaled scores), so the oracle CANNOT
    # mirror a one-rounding float(exact_product) — both sides now do
    # float(n1*n2) * float(N*s2 - s1^2), bit-identical ops in either engine
    vn2 = big_n * s2 - s1 * s1
    if vn2 <= 0:
        return 0.0
    var_d = float(n1 * n2) * float(vn2)
    return float(num) / math.sqrt(var_d / float(big_n - 1))


def q_mood_squared_ranks(sf_dir: str):
    """Mood's squared-rank dispersion test between every type pair's
    cent values: score s_v = (d_v - (N+1))^2 over doubled midranks
    (4x the classical squared deviation from the mid-rank), exact
    integer permutation moments, one mirrored z chain."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "mood_z": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            _, a_n, b_n = _merged_support(*prof[ta], *prof[tb])
            na, nb = int(a_n.sum()), int(b_n.sum())
            tot = a_n + b_n
            w_lt = np.cumsum(tot) - tot
            d = 2 * w_lt + tot + 1
            big_n = na + nb
            t_stat = s1 = s2 = 0
            for av, tv, dv in zip(a_n, tot, d):
                sc = (int(dv) - (big_n + 1)) ** 2
                t_stat += int(av) * sc
                s1 += int(tv) * sc
                s2 += int(tv) * sc * sc
            z = _perm_z(t_stat, s1, s2, na, nb)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["mood_z"].append(round(z, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "mood_z": pa.array(out["mood_z"], pa.float64()),
    })


_SAVAGE_SCALE = 10 ** 8


def q_savage_scores(sf_dir: str):
    """Savage (exponential-scores) location test between every type
    pair: the rank-k harmonic increment floor(1e8/(N-k+1)) accumulates
    to HS(i); a tie block spanning ranks lo..hi scores the exact
    integer floor-average (HS(hi) - HS(lo-1)) // t.  Scores stay
    integers end-to-end; z via the permutation-moment chain."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "savage_z": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            _, a_n, b_n = _merged_support(*prof[ta], *prof[tb])
            na, nb = int(a_n.sum()), int(b_n.sum())
            big_n = na + nb
            hs = [0]
            for k in range(1, big_n + 1):
                hs.append(hs[-1] + _SAVAGE_SCALE // (big_n - k + 1))
            tot = a_n + b_n
            w_lt = np.cumsum(tot) - tot
            t_stat = s1 = s2 = 0
            for av, tv, wv in zip(a_n, tot, w_lt):
                if tv == 0:
                    continue
                sv = (hs[int(wv) + int(tv)] - hs[int(wv)]) // int(tv)
                t_stat += int(av) * sv
                s1 += int(tv) * sv
                s2 += int(tv) * sv * sv
            z = _perm_z(t_stat, s1, s2, na, nb)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["savage_z"].append(round(z, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "savage_z": pa.array(out["savage_z"], pa.float64()),
    })


def q_fligner_policello(sf_dir: str):
    """Fligner-Policello robust rank-order test between every type
    pair (no equal-variance assumption): with doubled mid-placements
    p_v = 2*CB<v + b_v of A in B (and q_v symmetric),
    z = (sum p - sum q) / (2*sqrt(A/(n_A*n_B))) where
    A = n_B*(n_A*Sp2 - Sp^2) + n_A*(n_B*Sq2 - Sq^2) + Sp*Sq — all
    exact (big)integers to one mirrored chain."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "fp_z": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            _, a_n, b_n = _merged_support(*prof[ta], *prof[tb])
            na, nb = int(a_n.sum()), int(b_n.sum())
            cca = np.cumsum(a_n)
            ccb = np.cumsum(b_n)
            p = 2 * ccb - b_n
            q = 2 * cca - a_n
            sp = sum(int(a) * int(x) for a, x in zip(a_n, p))
            sq = sum(int(b) * int(x) for b, x in zip(b_n, q))
            spp = sum(int(a) * int(x) * int(x) for a, x in zip(a_n, p))
            sqq = sum(int(b) * int(x) * int(x) for b, x in zip(b_n, q))
            a_int = (nb * (na * spp - sp * sp)
                     + na * (nb * sqq - sq * sq) + sp * sq)
            if na == 0 or nb == 0 or a_int <= 0:
                z = 0.0
            else:
                z = (float(sp - sq)
                     / (2.0 * math.sqrt(float(a_int) / float(na * nb))))
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["fp_z"].append(round(z, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "fp_z": pa.array(out["fp_z"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 24: k-sample / goodness-of-fit extensions.
# ---------------------------------------------------------------------------

def q_ad_ksample(sf_dir: str):
    """Scholz-Stephens k-sample Anderson-Darling statistic (tie-
    adjusted "version 1") across ALL types' cent-value distributions
    at once: with doubled mid-counts 2M_ij = 2*cum_ij - f_ij and
    db_j = 2*PC_j - l_j, each (sample, support) cell contributes the
    pico-floored exact term
    (10^12 * l_j * X_ij^2) // (n_i * N * D_j) with
    X_ij = N*(2M_ij) - n_i*db_j and D_j = db_j*(2N - db_j) - N*l_j
    (rows with D_j <= 0 — a support value covering the whole pool —
    are skipped); A2_akN = (N-1)*S / (N*10^12) as ONE mirrored
    division."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    all_v = np.union1d(
        np.concatenate([prof[t][0] for t in types]),
        np.array([], np.int64))
    full = {}
    for t in types:
        v, a = prof[t]
        f = np.zeros(len(all_v), np.int64)
        f[np.searchsorted(all_v, v)] = a
        full[t] = f
    pooled = sum(full[t] for t in types)
    big_n = int(pooled.sum())
    pc = np.cumsum(pooled)
    db = 2 * pc - pooled
    dj = db * (2 * big_n - db) - big_n * pooled
    s_sum = 0
    for t in types:
        f = full[t]
        n_i = int(f.sum())
        if n_i == 0:
            continue
        cum = np.cumsum(f)
        m2 = 2 * cum - f
        for lj, m2j, dbj, djj in zip(pooled, m2, db, dj):
            if djj <= 0 or lj == 0:
                continue
            x = big_n * int(m2j) - n_i * int(dbj)
            s_sum += (10 ** 12 * int(lj) * x * x) // (n_i * big_n
                                                      * int(djj))
    a2 = (0.0 if big_n < 2
          else float((big_n - 1) * s_sum)
          / float(big_n * 10 ** 12))
    return pa.table({
        "k_samples": pa.array([len(types)], pa.int64()),
        "n_pooled": pa.array([big_n], pa.int64()),
        "a2_akn": pa.array([round(a2, 6)], pa.float64()),
    })


def q_freeman_tukey(sf_dir: str):
    """Freeman-Tukey chi-square of the (type, dow) table:
    T^2 = 4*sum (sqrt(O) - sqrt(E))^2 = 8N - (8/N)*sum sqrt(O*R*C*N)
    — each cell's sqrt of the exact integer product is micro-floored
    identically on both engines, then ONE mirrored chain."""
    piv = _type_dow_pivot(sf_dir)
    n = int(piv.sum())
    rows = [int(x) for x in piv.sum(axis=1)]
    cols = [int(x) for x in piv.sum(axis=0)]
    s_sum = 0
    for i, rr in enumerate(rows):
        for j, cc in enumerate(cols):
            cell = int(piv[i, j])
            s_sum += math.floor(1e6 * math.sqrt(float(cell * rr * cc
                                                      * n)))
    ft = (0.0 if n == 0
          else 8.0 * float(n) - float(8 * s_sum) / float(1000000 * n))
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "freeman_tukey": pa.array([round(ft, 6)], pa.float64()),
    })


def q_neyman_chi2(sf_dir: str):
    """Neyman's modified chi-square of the (type, dow) table:
    sum over NON-EMPTY cells of (O-E)^2/O = (N*O - R*C)^2/(N^2*O),
    pico-floored exactly per cell (bignum/HUGEINT floor division),
    summed as integers to ONE mirrored division."""
    piv = _type_dow_pivot(sf_dir)
    n = int(piv.sum())
    rows = [int(x) for x in piv.sum(axis=1)]
    cols = [int(x) for x in piv.sum(axis=0)]
    s_sum = 0
    for i, rr in enumerate(rows):
        for j, cc in enumerate(cols):
            cell = int(piv[i, j])
            if cell == 0:
                continue
            diff = n * cell - rr * cc
            s_sum += (10 ** 12 * diff * diff) // (n * n * cell)
    chi2 = 0.0 if n == 0 else float(s_sum) / 1e12
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "neyman_chi2": pa.array([round(chi2, 6)], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 25: combined rank tests + robust location estimators.
# ---------------------------------------------------------------------------

def q_lepage(sf_dir: str):
    """Lepage's combined location-scale test between type pairs:
    L = z_W^2 + z_AB^2, the Wilcoxon z over doubled-midrank scores
    d_v plus the Ansari-Bradley z over the outside-in scores
    min(d_v, 2(N+1) - d_v) — both standardized by the exact
    permutation-moment chain (stats5._perm_z); L ~ chi2_2 under the
    null."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "lepage_l": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            _, a_n, b_n = _merged_support(*prof[ta], *prof[tb])
            na, nb = int(a_n.sum()), int(b_n.sum())
            big_n = na + nb
            tot = a_n + b_n
            w_lt = np.cumsum(tot) - tot
            d = 2 * w_lt + tot + 1
            tw = s1w = s2w = 0
            tab = s1ab = s2ab = 0
            for av, tv, dv in zip(a_n, tot, d):
                dv = int(dv)
                ab = min(dv, 2 * (big_n + 1) - dv)
                tw += int(av) * dv
                s1w += int(tv) * dv
                s2w += int(tv) * dv * dv
                tab += int(av) * ab
                s1ab += int(tv) * ab
                s2ab += int(tv) * ab * ab
            zw = _perm_z(tw, s1w, s2w, na, nb)
            zab = _perm_z(tab, s1ab, s2ab, na, nb)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["lepage_l"].append(round(zw * zw + zab * zab, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "lepage_l": pa.array(out["lepage_l"], pa.float64()),
    })


def q_location_estimates(sf_dir: str):
    """Classical robust location estimates per type in exact cents:
    Tukey's trimean (Q1 + 2*med + Q3)/4, Gastwirth's estimator
    (3*x_(ceil(n/3)) + 4*med + 3*x_(ceil(2n/3)))/10 and the midhinge
    (Q1+Q3)/2 — every order statistic exact (ceil-index convention),
    one mirrored division each."""
    prof = _cent_profiles(sf_dir)
    out = {"event_type": [], "trimean": [], "gastwirth": [],
           "midhinge": []}
    for et in sorted(prof):
        v, a = prof[et]
        n = int(a.sum())
        med = _order_stat(v, a, (n + 1) // 2)
        q1 = _order_stat(v, a, (n + 3) // 4)
        q3 = _order_stat(v, a, (3 * n + 3) // 4)
        x33 = _order_stat(v, a, (n + 2) // 3)
        x66 = _order_stat(v, a, (2 * n + 2) // 3)
        out["event_type"].append(et)
        out["trimean"].append(round(float(q1 + 2 * med + q3)
                                    / 4.0, 6))
        out["gastwirth"].append(round(float(3 * x33 + 4 * med + 3 * x66)
                                      / 10.0, 6))
        out["midhinge"].append(round(float(q1 + q3) / 2.0, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "trimean": pa.array(out["trimean"], pa.float64()),
        "gastwirth": pa.array(out["gastwirth"], pa.float64()),
        "midhinge": pa.array(out["midhinge"], pa.float64()),
    })


def q_trimmed_means(sf_dir: str):
    """10%-trimmed and 10%-winsorized means per type in exact cents
    (k = n // 10 cut from each end): the trimmed sum clips the census
    cumulative to [k, n-k], the winsorized sum adds k copies of each
    boundary order statistic — exact integers to one mirrored
    division each."""
    prof = _cent_profiles(sf_dir)
    out = {"event_type": [], "trimmed_mean": [], "winsor_mean": []}
    for et in sorted(prof):
        v, a = prof[et]
        n = int(a.sum())
        k = n // 10
        cum = np.cumsum(a)
        prev = cum - a
        lo_c = np.maximum(prev, k)
        hi_c = np.minimum(cum, n - k)
        w = np.maximum(hi_c - lo_c, 0)
        trim = sum(int(x) * int(y) for x, y in zip(v, w))
        xlo = _order_stat(v, a, k + 1)
        xhi = _order_stat(v, a, n - k)
        tm = (0.0 if n - 2 * k <= 0
              else float(trim) / float(n - 2 * k))
        wm = (0.0 if n == 0
              else float(trim + k * xlo + k * xhi) / float(n))
        out["event_type"].append(et)
        out["trimmed_mean"].append(round(tm, 6))
        out["winsor_mean"].append(round(wm, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "trimmed_mean": pa.array(out["trimmed_mean"], pa.float64()),
        "winsor_mean": pa.array(out["winsor_mean"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 26: Benford digits, weekly harmonic, lagged cross-correlation.
# ---------------------------------------------------------------------------

# floor(1e6 * log10(1 + 1/d)) for d = 1..9 — LITERAL constants shared
# with the SQL oracle (the _FC24 trig-literal convention).
_BENFORD_P = [301029, 176091, 124938, 96910, 79181, 66946, 57991,
              51152, 45757]


def q_benford_first_digit(sf_dir: str):
    """Benford's-law first-digit test over positive cent values:
    digit census O_d (d = first decimal digit of cv), chi2 =
    sum_d (1e6*O_d - N*P_d)^2 / (1e6*N*P_d) with the micro-floored
    log10 literals P_d — pico-floored per digit (9 exact integer
    terms), one mirrored division.  Also reports the maximum absolute
    proportion deviation (exact cross-multiplied argmax, smallest
    digit on ties)."""
    prof = _cent_profiles(sf_dir)
    counts = [0] * 10
    for et in sorted(prof):
        v, a = prof[et]
        for vv, aa in zip(v, a):
            if vv > 0:
                counts[int(str(int(vv))[0])] += int(aa)
    n = sum(counts[1:])
    chi2_pico = 0
    best_dev = -1
    best_d = 0
    for d in range(1, 10):
        o = counts[d]
        p = _BENFORD_P[d - 1]
        diff = 10 ** 6 * o - n * p
        if n > 0:
            chi2_pico += (10 ** 12 * diff * diff) // (10 ** 6 * n * p)
        dev = abs(diff)
        if dev > best_dev:
            best_dev, best_d = dev, d
    chi2 = 0.0 if n == 0 else float(chi2_pico) / float(10 ** 12)
    max_dev = (0.0 if n == 0
               else float(best_dev) / float(10 ** 6 * n))
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "benford_chi2": pa.array([round(chi2, 6)], pa.float64()),
        "max_dev_digit": pa.array([best_d], pa.int64()),
        "max_dev": pa.array([round(max_dev, 6)], pa.float64()),
    })


_FC168 = [math.floor(1e6 * math.cos(2 * math.pi * d / 168))
          for d in range(168)]
_FS168 = [math.floor(1e6 * math.sin(2 * math.pi * d / 168))
          for d in range(168)]


def q_weekly_harmonic(sf_dir: str):
    """First-harmonic (168 h weekly cycle) DFT amplitude of each
    type's hour-of-week activity profile — the weekly counterpart of
    diurnal_amplitude: A = sum_d T_d*FC_d, B = sum_d T_d*FS_d over
    the 168-cell hour-of-week census with micro-floored trig literals
    (module constants injected verbatim into the SQL oracle), ratio =
    sqrt(A^2+B^2)/(1e6*N) as one mirrored chain."""
    from ..windows import ts_to_ms

    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": batch["event_type"],
            "d": pa.array(((tms // 3_600_000) % 168).astype(np.int64)),
            "t": pa.array(np.ones(len(tms), np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "d"], [("t", "sum")],
    ).to_pandas()
    out = {"event_type": [], "n": [], "amp_ratio": []}
    for et, grp in census.groupby("event_type", sort=True):
        d = grp["d"].to_numpy()
        t = grp["t"].to_numpy()
        a = sum(int(tt) * _FC168[int(dd)] for dd, tt in zip(d, t))
        b = sum(int(tt) * _FS168[int(dd)] for dd, tt in zip(d, t))
        n = int(t.sum())
        ratio = (0.0 if n == 0
                 else math.sqrt(float(a * a + b * b))
                 / float(1000000 * n))
        out["event_type"].append(str(et))
        out["n"].append(n)
        out["amp_ratio"].append(round(ratio, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n": pa.array(out["n"], pa.int64()),
        "amp_ratio": pa.array(out["amp_ratio"], pa.float64()),
    })


_CCF_LAGS = (0, 1, 2, 3)


def q_cross_corr_lags(sf_dir: str):
    """Lagged cross-correlation between aligned hourly type pairs:
    ccf(k) = Pearson r of (x_t, y_{t+k}) for k = 0..3 over the
    overlapping H-k hours — exact int64 six-statistic numerators, one
    mirrored sqrt chain per (pair, lag) row."""
    series, big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    out = {"type_a": [], "type_b": [], "lag": [], "ccf": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            x, y = series[ta], series[tb]
            for k in _CCF_LAGS:
                n = big_h - k
                if n < 2:
                    c = 0.0
                else:
                    xs = x[:n]
                    ys = y[k:k + n]
                    sx, sy = int(xs.sum()), int(ys.sum())
                    sxx = int(np.dot(xs, xs))
                    syy = int(np.dot(ys, ys))
                    sxy = int(np.dot(xs, ys))
                    vx = n * sxx - sx * sx
                    vy = n * syy - sy * sy
                    num = n * sxy - sx * sy
                    c = (0.0 if vx <= 0 or vy <= 0
                         else float(num)
                         / math.sqrt(float(vx) * float(vy)))
                out["type_a"].append(ta)
                out["type_b"].append(tb)
                out["lag"].append(k)
                out["ccf"].append(round(c, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "lag": pa.array(out["lag"], pa.int64()),
        "ccf": pa.array(out["ccf"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 27: token-length profile, sequential change detection, activity
# concentration.
# ---------------------------------------------------------------------------

def q_word_length_stats(sf_dir: str):
    """Token-length profile of the corpus: exact mean and population
    variance of [A-Za-z]+ token lengths (integer moment sums) plus
    the Shannon entropy of the length distribution through the
    micro-floored-ln protocol: H = (N*LN(N) - sum_l c_l*LN(c_l)) /
    (1e6*N) with LN(k) = floor(1e6*ln k).  One (len, count) census
    exchange (O(max token length) rows)."""
    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter()
        for t in batch["text"].to_pylist():
            counts.update(len(m) for m in WORD_RE.findall(t or ""))
        ls = sorted(counts)
        return pa.table({
            "l": pa.array(ls, pa.int64()),
            "c": pa.array([counts[x] for x in ls], pa.int64()),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["l"], [("c", "sum")],
    ).to_pandas()
    ls = census["l"].to_numpy(np.int64)
    cs = census["c"].to_numpy(np.int64)
    n = int(cs.sum())
    s1 = int(np.dot(ls, cs))
    s2 = int(np.dot(ls * ls, cs))
    mean = 0.0 if n == 0 else float(s1) / float(n)
    var = 0.0 if n == 0 else float(n * s2 - s1 * s1) / float(n * n)
    if n < 2:
        ent = 0.0
    else:
        ln_n = math.floor(1e6 * math.log(float(n)))
        s_ln = sum(int(c) * math.floor(1e6 * math.log(float(c)))
                   for c in cs if c > 0)
        ent = float(n * ln_n - s_ln) / float(1000000 * n)
    return pa.table({
        "n_tokens": pa.array([n], pa.int64()),
        "mean_len": pa.array([round(mean, 6)], pa.float64()),
        "var_len": pa.array([round(var, 6)], pa.float64()),
        "len_entropy": pa.array([round(ent, 6)], pa.float64()),
    })


def q_page_hinkley(sf_dir: str):
    """Page-Hinkley sequential upward-change detector (delta = 0) per
    type: with H-scaled centered prefix sums HS_k = H*cum_k - k*S1,
    PH = max_k (HS_k - min({0} U {HS_j : j < k})) — exact integers
    (the running minimum is over the strictly-preceding prefix
    seeded with the initial 0); the report
    normalizes by H (cents of... counts) and gives the exact argmax
    position (smallest k on ties)."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "ph_stat": [], "at_k": []}
    for et in sorted(series):
        x = series[et]
        s1 = int(x.sum())
        hs = big_h * np.cumsum(x) - np.arange(1, big_h + 1) * s1
        run_min = np.minimum.accumulate(np.concatenate([[0], hs]))[:-1]
        gap = hs - run_min
        k = int(gap.argmax())
        out["event_type"].append(et)
        out["ph_stat"].append(round(float(int(gap[k]))
                                    / float(big_h), 6))
        out["at_k"].append(k + 1)
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "ph_stat": pa.array(out["ph_stat"], pa.float64()),
        "at_k": pa.array(out["at_k"], pa.int64()),
    })


def q_activity_gini(sf_dir: str):
    """Gini concentration of each type's activity across the dense
    hour grid: G = sum_{i<j}|c_i - c_j| / (H * S1), computed in
    O(H log H) from the sorted-counts identity
    sum_{i<j}|c_i-c_j| = sum_i (2i - H - 1)*c_(i) — exact integers to
    one mirrored division (0 = uniform activity, ->1 = one hot
    hour)."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "activity_gini": []}
    for et in sorted(series):
        x = np.sort(series[et])
        coef = 2 * np.arange(1, big_h + 1) - big_h - 1
        gaa = int(np.dot(coef, x))
        s1 = int(x.sum())
        g = 0.0 if s1 == 0 else float(gaa) / float(big_h * s1)
        out["event_type"].append(et)
        out["activity_gini"].append(round(g, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "activity_gini": pa.array(out["activity_gini"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 28: mode statistics, iterative outlier scan, Tukey quick test.
# ---------------------------------------------------------------------------

def q_mode_stats(sf_dir: str):
    """Mode of each type's cent-value census (smallest cent on count
    ties — deterministic) plus Pearson's second skewness coefficient
    3*(mean - median)/s with the exact sample-variance numerator:
    skew2 = 3*(n*mean_num - n^2*med) / (n * sqrt(n*(n*S2-S1^2)/(n-1)))
    ... reduced to the mirrored chain
    3.0*(S1 - n*med) / (n * sqrt((n*S2 - S1^2)/(n*(n-1))))."""
    prof = _cent_profiles(sf_dir)
    out = {"event_type": [], "mode_cents": [], "mode_count": [],
           "pearson_skew2": []}
    for et in sorted(prof):
        v, a = prof[et]
        n = int(a.sum())
        k = int(a.argmax())  # first max = smallest cv (v sorted)
        med = _order_stat(v, a, (n + 1) // 2)
        s1 = int(np.dot(v, a))
        s2 = int(np.dot(v * v, a))
        nu = n * s2 - s1 * s1
        if n < 2 or nu <= 0:
            skew = 0.0
        else:
            skew = (3.0 * float(s1 - n * med)
                    / (float(n)
                       * math.sqrt(float(nu) / float(n * (n - 1)))))
        out["event_type"].append(et)
        out["mode_cents"].append(int(v[k]))
        out["mode_count"].append(int(a[k]))
        out["pearson_skew2"].append(round(skew, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "mode_cents": pa.array(out["mode_cents"], pa.int64()),
        "mode_count": pa.array(out["mode_count"], pa.int64()),
        "pearson_skew2": pa.array(out["pearson_skew2"], pa.float64()),
    })


_ESD_ROUNDS = 3


def q_generalized_esd(sf_dir: str):
    """Generalized (iterative) extreme studentized deviate test per
    type, 3 rounds: each round finds the value with the max exact
    deviation |n*v - S1| (tie -> smallest cent), reports
    R = |n*v - S1| * sqrt((n-1) / (n*(n*S2 - S1^2))) as one mirrored
    chain, then removes ONE occurrence and updates the exact moments.
    Output: (event_type, round, at_cv, r_stat)."""
    prof = _cent_profiles(sf_dir)
    out = {"event_type": [], "round": [], "at_cv": [], "r_stat": []}
    for et in sorted(prof):
        v, a = prof[et]
        a = a.copy()
        n = int(a.sum())
        s1 = int(np.dot(v, a))
        s2 = int(np.dot(v * v, a))
        for rnd in range(1, _ESD_ROUNDS + 1):
            nu = n * s2 - s1 * s1
            if n < 3 or nu <= 0:
                out["event_type"].append(et)
                out["round"].append(rnd)
                out["at_cv"].append(0)
                out["r_stat"].append(0.0)
                continue
            live = a > 0
            dev = np.abs(n * v.astype(object) - s1)
            dev[~live] = -1
            k = int(dev.argmax())  # ties -> smallest cv
            r = (float(int(dev[k]))
                 * math.sqrt(float(n - 1) / float(n * nu)))
            out["event_type"].append(et)
            out["round"].append(rnd)
            out["at_cv"].append(int(v[k]))
            out["r_stat"].append(round(r, 6))
            a[k] -= 1
            n -= 1
            s1 -= int(v[k])
            s2 -= int(v[k]) * int(v[k])
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "round": pa.array(out["round"], pa.int64()),
        "at_cv": pa.array(out["at_cv"], pa.int64()),
        "r_stat": pa.array(out["r_stat"], pa.float64()),
    })


def q_tukey_quick(sf_dir: str):
    """Tukey's quick (pocket) test between type pairs: t_ab = #{a >
    max(B)} + #{b < min(A)} and the mirror-image t_ba — pure integer
    exceedance counts (T >= 7 is the folk 5% line).  Exact census
    comparisons, no float column."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "t_ab": [], "t_ba": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            va, aa = prof[ta]
            vb, ab = prof[tb]
            max_b, min_b = int(vb[-1]), int(vb[0])
            max_a, min_a = int(va[-1]), int(va[0])
            t_ab = (int(aa[va > max_b].sum())
                    + int(ab[vb < min_a].sum()))
            t_ba = (int(ab[vb > max_a].sum())
                    + int(aa[va < min_b].sum()))
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["t_ab"].append(t_ab)
            out["t_ba"].append(t_ba)
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "t_ab": pa.array(out["t_ab"], pa.int64()),
        "t_ba": pa.array(out["t_ba"], pa.int64()),
    })


# ---------------------------------------------------------------------------
# wave 29: proportion / dispersion / circular quick tests.
# ---------------------------------------------------------------------------

def q_two_prop_z(sf_dir: str):
    """Two-sample proportion z-test of weekend vs weekday purchase
    rate (the cohens_h margins): with x1/n1 weekend purchases/total
    and x2/n2 weekday, z = (x1*n2 - x2*n1) /
    sqrt((x1+x2)*(n1+n2-x1-x2)*n1*n2/(n1+n2)) — exact integers to one
    mirrored chain."""
    census = weekend_purchase_census(sf_dir)
    cell = {(int(r["we"]), int(r["pu"])): int(r["n"])
            for _, r in census.iterrows()}
    x1 = cell.get((1, 1), 0)
    n1 = x1 + cell.get((1, 0), 0)
    x2 = cell.get((0, 1), 0)
    n2 = x2 + cell.get((0, 0), 0)
    big = (x1 + x2) * (n1 + n2 - x1 - x2) * n1 * n2
    if n1 == 0 or n2 == 0 or big == 0:
        z = 0.0
    else:
        z = (float(x1 * n2 - x2 * n1)
             / math.sqrt(float(big) / float(n1 + n2)))
    return pa.table({
        "n_weekend": pa.array([n1], pa.int64()),
        "n_weekday": pa.array([n2], pa.int64()),
        "prop_z": pa.array([round(z, 6)], pa.float64()),
    })


def q_poisson_dispersion(sf_dir: str):
    """Poisson index-of-dispersion test per type over the dense hourly
    grid: chi2 = sum (c - cbar)^2 / cbar = (H*S2 - S1^2)/S1 (~chi2
    with H-1 df under a homogeneous Poisson) and the variance-to-mean
    ratio VMR = (H*S2 - S1^2)/(H*S1) — exact integers, one mirrored
    division each."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "disp_chi2": [], "vmr": []}
    for et in sorted(series):
        x = series[et]
        s1 = int(x.sum())
        nu = big_h * int(np.dot(x, x)) - s1 * s1
        chi2 = 0.0 if s1 == 0 else float(nu) / float(s1)
        vmr = 0.0 if s1 == 0 else float(nu) / float(big_h * s1)
        out["event_type"].append(et)
        out["disp_chi2"].append(round(chi2, 6))
        out["vmr"].append(round(vmr, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "disp_chi2": pa.array(out["disp_chi2"], pa.float64()),
        "vmr": pa.array(out["vmr"], pa.float64()),
    })


def q_coef_variation(sf_dir: str):
    """Coefficient of variation per type over cent values — both the
    moment form cv = n*sqrt((n*S2-S1^2)/(n*(n-1)))/S1 and the robust
    quartile form (Q3-Q1)/med (exact order statistics) — mirrored
    chains."""
    prof = _cent_profiles(sf_dir)
    out = {"event_type": [], "cv": [], "cv_quartile": []}
    for et in sorted(prof):
        v, a = prof[et]
        n = int(a.sum())
        s1 = int(np.dot(v, a))
        s2 = int(np.dot(v * v, a))
        nu = n * s2 - s1 * s1
        cv = (0.0 if n < 2 or s1 == 0 or nu <= 0
              else float(n)
              * math.sqrt(float(nu) / float(n * (n - 1)))
              / float(s1))
        med = _order_stat(v, a, (n + 1) // 2)
        q1 = _order_stat(v, a, (n + 3) // 4)
        q3 = _order_stat(v, a, (3 * n + 3) // 4)
        cvq = 0.0 if med == 0 else float(q3 - q1) / float(med)
        out["event_type"].append(et)
        out["cv"].append(round(cv, 6))
        out["cv_quartile"].append(round(cvq, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "cv": pa.array(out["cv"], pa.float64()),
        "cv_quartile": pa.array(out["cv_quartile"], pa.float64()),
    })


def q_rayleigh_test(sf_dir: str):
    """Rayleigh test of hour-of-day uniformity per type (circular
    statistics on the 24-cell clock with the _FC24/_FS24 micro-floored
    trig LITERALS): z = n*Rbar^2 = (A^2+B^2)/(1e12*n) and circular
    variance 1 - Rbar — exact integer A/B sums, mirrored chains."""
    from .stats3 import _FC24, _FS24
    from ..windows import ts_to_ms

    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": batch["event_type"],
            "d": pa.array(((tms // 3_600_000) % 24).astype(np.int64)),
            "t": pa.array(np.ones(len(tms), np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "d"], [("t", "sum")],
    ).to_pandas()
    out = {"event_type": [], "rayleigh_z": [], "circ_var": []}
    for et, grp in census.groupby("event_type", sort=True):
        d = grp["d"].to_numpy()
        t = grp["t"].to_numpy()
        a = sum(int(tt) * _FC24[int(dd)] for dd, tt in zip(d, t))
        b = sum(int(tt) * _FS24[int(dd)] for dd, tt in zip(d, t))
        n = int(t.sum())
        z = (0.0 if n == 0
             else float(a * a + b * b) / float(10 ** 12 * n))
        cvar = (0.0 if n == 0
                else 1.0 - math.sqrt(float(a * a + b * b))
                / float(1000000 * n))
        out["event_type"].append(str(et))
        out["rayleigh_z"].append(round(z, 6))
        out["circ_var"].append(round(cvar, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "rayleigh_z": pa.array(out["rayleigh_z"], pa.float64()),
        "circ_var": pa.array(out["circ_var"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 30: concentration / inequality analytics.
# ---------------------------------------------------------------------------

def q_lorenz_points(sf_dir: str):
    """Lorenz-curve ordinates of each type's cent-value distribution
    at p = 10..90%: L(p) = (sum of the bottom ceil(p*n) values) /
    (total), with exact census-clipped partial sums (the trimmed_means
    clipping identity) — one mirrored division per ordinate.  Output
    is the (event_type, p_pct, lorenz) long table."""
    prof = _cent_profiles(sf_dir)
    out = {"event_type": [], "p_pct": [], "lorenz": []}
    for et in sorted(prof):
        v, a = prof[et]
        n = int(a.sum())
        s1 = int(np.dot(v, a))
        cum = np.cumsum(a)
        prev = cum - a
        for p in range(10, 100, 10):
            k = -(-(p * n) // 100)  # ceil(p*n/100)
            w = np.maximum(np.minimum(cum, k) - prev, 0)
            bot = sum(int(x) * int(y) for x, y in zip(v, w))
            lz = 0.0 if s1 == 0 else float(bot) / float(s1)
            out["event_type"].append(et)
            out["p_pct"].append(p)
            out["lorenz"].append(round(lz, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "p_pct": pa.array(out["p_pct"], pa.int64()),
        "lorenz": pa.array(out["lorenz"], pa.float64()),
    })


def q_user_hhi(sf_dir: str):
    """Herfindahl-Hirschman concentration of event activity across
    users: HHI = sum_u (n_u/N)^2 = S2/N^2 and the effective user
    count N^2/S2 — the user census folds to (S2, N) inside the
    sharded exchange and never reaches the driver (hoover scale
    shape).  Exact integers to one mirrored division each."""
    census = user_event_counts(sf_dir)

    def fold(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False)
        return pa.table({
            "s1": pa.array([int(n.sum())], pa.int64()),
            "s2": pa.array([int(np.dot(n, n))], pa.int64()),
            "u": pa.array([len(n)], pa.int64()),
        })

    f = census.map_batches(fold, batch_format="pyarrow").to_pandas()
    s1, s2, users = int(f["s1"].sum()), int(f["s2"].sum()), int(f["u"].sum())
    hhi = 0.0 if s1 == 0 else float(s2) / float(s1 * s1)
    eff = 0.0 if s2 == 0 else float(s1 * s1) / float(s2)
    return pa.table({
        "n_users": pa.array([users], pa.int64()),
        "hhi": pa.array([round(hhi, 6)], pa.float64()),
        "effective_users": pa.array([round(eff, 6)], pa.float64()),
    })


TOPK_USERS = 10


def q_topk_user_share(sf_dir: str):
    """Share of all events produced by the 10 most active users
    (ties broken by smaller user_id — deterministic): per-shard
    top-k candidates merge to one exact global top-k; share =
    top_sum/N mirrored."""
    ds = _read(sf_dir, "events", ["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "n": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id"], [("n", "sum")],
    )

    def shard_top(batch: pa.Table) -> pa.Table:
        t = batch.sort_by([("n", "descending"), ("user_id", "ascending")])
        head = t.slice(0, TOPK_USERS)
        return pa.table({"user_id": head["user_id"], "n": head["n"]})

    cand = census.map_batches(
        shard_top, batch_format="pyarrow").to_pandas()
    n_total = int(census.map_batches(
        lambda b: pa.table({"s": pa.array(
            [int(b["n"].to_numpy(zero_copy_only=False).sum())],
            pa.int64())}),
        batch_format="pyarrow").to_pandas()["s"].sum())
    cand = cand.sort_values(["n", "user_id"],
                            ascending=[False, True],
                            kind="mergesort").head(TOPK_USERS)
    top_sum = int(cand["n"].sum())
    share = 0.0 if n_total == 0 else float(top_sum) / float(n_total)
    return pa.table({
        "n_events": pa.array([n_total], pa.int64()),
        "topk_sum": pa.array([top_sum], pa.int64()),
        "topk_share": pa.array([round(share, 6)], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 31: temporal user-behavior analytics over per-user ordered
# inter-event gaps (one user-hash exchange; per-shard lexsort +
# segment masks — the transition_counts shape).
# ---------------------------------------------------------------------------

SESSION_GAP_MS = 1_800_000  # 30 min


def _user_gap_partials(sf_dir: str):
    """Per-shard exact partials over per-user consecutive event gaps
    (order: ts, event_id): gap moments (n, S1, S2) and consecutive-gap
    pair six-stats over gaps in whole SECONDS (gap_ms // 1000 — the
    millisecond squares overflow int64 partials), plus session splits
    at SESSION_GAP_MS (milliseconds).  Returns the summed dict of
    exact Python ints."""
    from ..stages.common import shard_apply
    from ..stages.keyed import _segment_starts

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])

    def per_shard(group: pa.Table) -> pa.Table:
        cols = ["n_users", "n_events", "n_gaps", "g1", "g2",
                "pn", "px", "py", "pxx", "pyy", "pxy",
                "n_sessions", "in_session_ms"]
        t = group.sort_by([("user_id", "ascending"), ("tms", "ascending"),
                       ("event_id", "ascending")])
        same = ~_segment_starts(t, ["user_id"])[1:]
        tms = t["tms"].to_numpy(zero_copy_only=False)
        gaps = (tms[1:] - tms[:-1])[same]
        diffs_s = (tms[1:] - tms[:-1]) // 1000  # moments in SECONDS
        gaps_s = diffs_s[same]
        pair_same = same[1:] & same[:-1]
        gx = diffs_s[:-1][pair_same]
        gy = diffs_s[1:][pair_same]
        brk = int((gaps > SESSION_GAP_MS).sum())
        n_users = int(_segment_starts(t, ["user_id"]).sum())
        vals = {
            "n_users": n_users,
            "n_events": t.num_rows,
            "n_gaps": len(gaps_s),
            "g1": int(gaps_s.sum()),
            "g2": int(sum(int(g) * int(g) for g in gaps_s)),
            "pn": len(gx),
            "px": int(gx.sum()),
            "py": int(gy.sum()),
            "pxx": int(sum(int(g) * int(g) for g in gx)),
            "pyy": int(sum(int(g) * int(g) for g in gy)),
            "pxy": int(sum(int(a) * int(b) for a, b in zip(gx, gy))),
            "n_sessions": n_users + brk,
            "in_session_ms": int(gaps[gaps <= SESSION_GAP_MS].sum()),
        }
        return pa.table({c: pa.array([vals[c]], pa.int64())
                         for c in cols})

    parts = shard_apply(ds, ["user_id"], per_shard, prepare=_user_event_times,
                        coalesce=False).to_pandas()
    return {c: int(parts[c].sum()) for c in parts.columns}


def q_session_stats(sf_dir: str):
    """Sessionization census (30-minute inactivity gap): number of
    sessions, mean events per session and mean in-session duration in
    seconds — exact integer partials (sessions = users + gap breaks;
    duration = sum of within-session gaps), mirrored divisions."""
    p = _user_gap_partials(sf_dir)
    ns = p["n_sessions"]
    ev = (0.0 if ns == 0 else float(p["n_events"]) / float(ns))
    dur = (0.0 if ns == 0
           else float(p["in_session_ms"]) / float(1000 * ns))
    return pa.table({
        "n_sessions": pa.array([ns], pa.int64()),
        "avg_events": pa.array([round(ev, 6)], pa.float64()),
        "avg_duration_s": pa.array([round(dur, 6)], pa.float64()),
    })


def q_interevent_burstiness(sf_dir: str):
    """Goh-Barabasi burstiness of pooled per-user inter-event gaps:
    B = (sigma - mu)/(sigma + mu) reduces over the population-variance
    numerator nu = n*S2 - S1^2 to the clean mirrored chain
    (sqrt(nu) - S1)/(sqrt(nu) + S1) — -1 regular, 0 Poisson, ->1
    bursty."""
    p = _user_gap_partials(sf_dir)
    n, s1, s2 = p["n_gaps"], p["g1"], p["g2"]
    nu = n * s2 - s1 * s1
    if n == 0 or (nu <= 0 and s1 == 0):
        b = 0.0
    else:
        b = ((math.sqrt(float(nu)) - float(s1))
             / (math.sqrt(float(nu)) + float(s1)))
    return pa.table({
        "n_gaps": pa.array([n], pa.int64()),
        "burstiness": pa.array([round(b, 6)], pa.float64()),
    })


def q_interevent_memory(sf_dir: str):
    """Goh-Barabasi memory coefficient: Pearson correlation of
    consecutive inter-event gap pairs (g_i, g_{i+1}) within each
    user's timeline, pooled — exact six-statistic integers, one
    mirrored sqrt chain."""
    p = _user_gap_partials(sf_dir)
    n = p["pn"]
    vx = n * p["pxx"] - p["px"] * p["px"]
    vy = n * p["pyy"] - p["py"] * p["py"]
    num = n * p["pxy"] - p["px"] * p["py"]
    m = (0.0 if n < 2 or vx <= 0 or vy <= 0
         else float(num) / math.sqrt(float(vx) * float(vy)))
    return pa.table({
        "n_pairs": pa.array([n], pa.int64()),
        "memory_coef": pa.array([round(m, 6)], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 32: gap / lifetime / per-user count distributions.
# ---------------------------------------------------------------------------

def q_gap_quantiles(sf_dir: str):
    """Exact order statistics of the pooled per-user inter-event gaps
    in whole seconds (quantile_disc ceil-index semantics): median,
    p90, p99 and max — the gap multiset leaves the shards as a
    (gap_s, count) census (O(distinct gaps) rows)."""
    from ..stages.common import shard_apply
    from ..stages.keyed import _segment_starts

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([("user_id", "ascending"), ("tms", "ascending"),
                       ("event_id", "ascending")])
        same = ~_segment_starts(t, ["user_id"])[1:]
        tms = t["tms"].to_numpy(zero_copy_only=False)
        gaps = ((tms[1:] - tms[:-1]) // 1000)[same]
        vals, cnts = np.unique(gaps, return_counts=True)
        return pa.table({"g": pa.array(vals.astype(np.int64)),
                         "c": pa.array(cnts.astype(np.int64))})

    census = sharded_grouped_agg(
        shard_apply(ds, ["user_id"], per_shard, prepare=_user_event_times, coalesce=False),
        ["g"], [("c", "sum")],
    ).to_pandas().sort_values("g")
    g = census["g"].to_numpy(np.int64)
    c = census["c"].to_numpy(np.int64)
    n = int(c.sum())
    med = _order_stat(g, c, (n + 1) // 2) if n else 0
    p90 = _order_stat(g, c, (9 * n + 9) // 10) if n else 0
    p99 = _order_stat(g, c, (99 * n + 99) // 100) if n else 0
    mx = int(g[-1]) if n else 0
    return pa.table({
        "n_gaps": pa.array([n], pa.int64()),
        "med_gap_s": pa.array([med], pa.int64()),
        "p90_gap_s": pa.array([p90], pa.int64()),
        "p99_gap_s": pa.array([p99], pa.int64()),
        "max_gap_s": pa.array([mx], pa.int64()),
    })


def q_user_lifetimes(sf_dir: str):
    """Per-user lifetime census: share of single-event users and the
    mean activity span in seconds ((max-min)//1000 per user, exact
    integer fold inside the user-keyed exchange) — mirrored
    divisions."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    from ..windows import ts_to_ms

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "lo": ts_to_ms(batch["ts"]),
            "hi": ts_to_ms(batch["ts"]),
            "n": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id"], [("lo", "min"), ("hi", "max"), ("n", "sum")],
    )

    def fold(batch: pa.Table) -> pa.Table:
        lo = batch["lo"].to_numpy(zero_copy_only=False)
        hi = batch["hi"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False)
        return pa.table({
            "users": pa.array([len(n)], pa.int64()),
            "single": pa.array([int((n == 1).sum())], pa.int64()),
            "span_s": pa.array([int(((hi - lo) // 1000).sum())],
                               pa.int64()),
        })

    f = census.map_batches(fold, batch_format="pyarrow").to_pandas()
    users = int(f["users"].sum())
    single = int(f["single"].sum())
    span = int(f["span_s"].sum())
    return pa.table({
        "n_users": pa.array([users], pa.int64()),
        "single_share": pa.array(
            [round(0.0 if users == 0
                   else float(single) / float(users), 6)],
            pa.float64()),
        "avg_span_s": pa.array(
            [round(0.0 if users == 0
                   else float(span) / float(users), 6)],
            pa.float64()),
    })


def q_events_per_user(sf_dir: str):
    """Per-user event-count distribution: mean, population variance
    and dispersion index (VMR) — exact integer count moments folded
    in-shard (the user_hhi shape)."""
    census = user_event_counts(sf_dir)

    def fold(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False)
        return pa.table({
            "u": pa.array([len(n)], pa.int64()),
            "s1": pa.array([int(n.sum())], pa.int64()),
            "s2": pa.array([int(np.dot(n, n))], pa.int64()),
        })

    f = census.map_batches(fold, batch_format="pyarrow").to_pandas()
    u, s1, s2 = int(f["u"].sum()), int(f["s1"].sum()), int(f["s2"].sum())
    nu = u * s2 - s1 * s1
    mean = 0.0 if u == 0 else float(s1) / float(u)
    var = 0.0 if u == 0 else float(nu) / float(u * u)
    vmr = 0.0 if s1 == 0 else float(nu) / float(u * s1)
    return pa.table({
        "n_users": pa.array([u], pa.int64()),
        "mean_events": pa.array([round(mean, 6)], pa.float64()),
        "var_events": pa.array([round(var, 6)], pa.float64()),
        "vmr_events": pa.array([round(vmr, 6)], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 33: corpus composition analytics over the documents table.
# ---------------------------------------------------------------------------

def q_doc_tokens_by_lang(sf_dir: str):
    """Per-language document token-count profile: doc count, exact
    mean tokens/doc and exact median / p90 order statistics — the
    per-doc [A-Za-z]+ token counts leave the batches as a
    (lang, tokens, docs) census."""
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter()
        for lang, t in zip(batch["lang"].to_pylist(),
                           batch["text"].to_pylist()):
            counts[(lang or "", len(WORD_RE.findall(t or "")))] += 1
        keys = sorted(counts)
        return pa.table({
            "lang": pa.array([k[0] for k in keys], pa.string()),
            "tok": pa.array([k[1] for k in keys], pa.int64()),
            "docs": pa.array([counts[k] for k in keys], pa.int64()),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang", "tok"], [("docs", "sum")],
    ).to_pandas()
    out = {"lang": [], "n_docs": [], "mean_tokens": [],
           "med_tokens": [], "p90_tokens": []}
    for lang, grp in census.groupby("lang", sort=True):
        g = grp.sort_values("tok")
        tok = g["tok"].to_numpy(np.int64)
        d = g["docs"].to_numpy(np.int64)
        n = int(d.sum())
        s1 = int(np.dot(tok, d))
        out["lang"].append(str(lang))
        out["n_docs"].append(n)
        out["mean_tokens"].append(round(
            0.0 if n == 0 else float(s1) / float(n), 6))
        out["med_tokens"].append(_order_stat(tok, d, (n + 1) // 2))
        out["p90_tokens"].append(_order_stat(tok, d, (9 * n + 9) // 10))
    return pa.table({
        "lang": pa.array(out["lang"], pa.string()),
        "n_docs": pa.array(out["n_docs"], pa.int64()),
        "mean_tokens": pa.array(out["mean_tokens"], pa.float64()),
        "med_tokens": pa.array(out["med_tokens"], pa.int64()),
        "p90_tokens": pa.array(out["p90_tokens"], pa.int64()),
    })


def q_source_concentration(sf_dir: str):
    """Concentration of documents across sources: source count, HHI
    of source shares (= S2/N^2 over the source census) and the top
    source's share (argmax tie -> lexicographically smallest
    source)."""
    census = source_doc_counts(sf_dir).to_pandas().sort_values("source")
    n_arr = census["n"].to_numpy(np.int64)
    n = int(n_arr.sum())
    s2 = int(np.dot(n_arr, n_arr))
    k = int(n_arr.argmax())  # first max = smallest source name
    hhi = 0.0 if n == 0 else float(s2) / float(n * n)
    top = 0.0 if n == 0 else float(int(n_arr[k])) / float(n)
    return pa.table({
        "n_sources": pa.array([len(n_arr)], pa.int64()),
        "hhi": pa.array([round(hhi, 6)], pa.float64()),
        "top_source": pa.array([str(census["source"].iloc[k])],
                               pa.string()),
        "top_share": pa.array([round(top, 6)], pa.float64()),
    })


def q_lang_entropy(sf_dir: str):
    """Shannon entropy of the document language distribution
    (micro-floored-ln protocol: H = (N*LN(N) - sum c*LN(c)) /
    (1e6*N)) plus the language count."""
    ds = _read(sf_dir, "documents", ["lang"])

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "lang": batch["lang"],
            "n": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang"], [("n", "sum")],
    ).to_pandas()
    c = census["n"].to_numpy(np.int64)
    n = int(c.sum())
    if n < 2:
        ent = 0.0
    else:
        ln_n = math.floor(1e6 * math.log(float(n)))
        s_ln = sum(int(x) * math.floor(1e6 * math.log(float(x)))
                   for x in c if x > 0)
        ent = float(n * ln_n - s_ln) / float(1000000 * n)
    return pa.table({
        "n_langs": pa.array([len(c)], pa.int64()),
        "lang_entropy": pa.array([round(ent, 6)], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 34: threshold exceedances + calendar profiles.
# ---------------------------------------------------------------------------

def q_mean_excess(sf_dir: str):
    """Peaks-over-threshold summary per type: with the exact P95 cent
    threshold u (quantile_disc semantics), the count of strict
    exceedances and their mean excess sum(v - u)/count — exact census
    integers to one mirrored division (the mean-excess plot ordinate
    at u, the POT/GPD diagnostic)."""
    prof = _cent_profiles(sf_dir)
    out = {"event_type": [], "threshold": [], "n_exceed": [],
           "mean_excess": []}
    for et in sorted(prof):
        v, a = prof[et]
        n = int(a.sum())
        u = _order_stat(v, a, (19 * n + 19) // 20)  # ceil(0.95 n)
        mask = v > u
        cnt = int(a[mask].sum())
        tot = sum(int(x - u) * int(c) for x, c in zip(v[mask], a[mask]))
        me = 0.0 if cnt == 0 else float(tot) / float(cnt)
        out["event_type"].append(et)
        out["threshold"].append(u)
        out["n_exceed"].append(cnt)
        out["mean_excess"].append(round(me, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "threshold": pa.array(out["threshold"], pa.int64()),
        "n_exceed": pa.array(out["n_exceed"], pa.int64()),
        "mean_excess": pa.array(out["mean_excess"], pa.float64()),
    })


def q_peak_hour_share(sf_dir: str):
    """Peak hour-of-day per type: the hod with the max event count
    (tie -> smallest hod) and its share of the type's events — exact
    integer argmax + one mirrored division."""
    census = hod_census(sf_dir)
    out = {"event_type": [], "peak_hod": [], "peak_share": []}
    for et, grp in census.groupby("event_type", sort=True):
        g = grp.sort_values("hod")
        d = g["hod"].to_numpy(np.int64)
        c = g["o"].to_numpy(np.int64)
        k = int(c.argmax())
        tot = int(c.sum())
        out["event_type"].append(str(et))
        out["peak_hod"].append(int(d[k]))
        out["peak_share"].append(round(
            0.0 if tot == 0 else float(int(c[k])) / float(tot), 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "peak_hod": pa.array(out["peak_hod"], pa.int64()),
        "peak_share": pa.array(out["peak_share"], pa.float64()),
    })


def q_weekend_lift(sf_dir: str):
    """Weekend activity lift per type: hourly-rate ratio
    (we_events/we_hours)/(wd_events/wd_hours) over the corpus-global
    hour calendar (dow = (epoch_day + 3) % 7, weekend = dow >= 5;
    hour buckets counted once, from the dense-grid hour range) —
    exact integers to one mirrored cross-multiplied division."""
    from ..windows import ts_to_ms

    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        hr = tms // 3_600_000
        we = (((hr // 24) + 3) % 7 >= 5).astype(np.int64)
        return pa.table({
            "event_type": batch["event_type"],
            "we": pa.array(we),
            "n": pa.array(np.ones(len(we), np.int64)),
            "hlo": pa.array(hr.astype(np.int64)),
            "hhi": pa.array(hr.astype(np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "we"],
        [("n", "sum"), ("hlo", "min"), ("hhi", "max")],
    ).to_pandas()
    h_lo = int(census["hlo"].min())
    h_hi = int(census["hhi"].max())
    hrs = np.arange(h_lo, h_hi + 1)
    we_mask = ((hrs // 24) + 3) % 7 >= 5
    we_h = int(we_mask.sum())
    wd_h = int((~we_mask).sum())
    out = {"event_type": [], "weekend_lift": []}
    for et, grp in census.groupby("event_type", sort=True):
        a = int(grp[grp["we"] == 1]["n"].sum())
        b = int(grp[grp["we"] == 0]["n"].sum())
        den = b * we_h
        lift = 0.0 if den == 0 else float(a * wd_h) / float(den)
        out["event_type"].append(str(et))
        out["weekend_lift"].append(round(lift, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "weekend_lift": pa.array(out["weekend_lift"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 35: OLS trend + Granger causality over the dense hourly grid
# (exact bordered-determinant RSS identities — no float regression).
# ---------------------------------------------------------------------------

def q_ols_trend(sf_dir: str):
    """OLS linear trend of each type's hourly series on t = 0..H-1:
    slope = (n*Sty - St*Sy)/(n*Stt - St^2) and
    R^2 = (n*Sty - St*Sy)^2 / ((n*Stt - St^2)(n*Syy - Sy^2)) — exact
    integer moment sums, one mirrored division each."""
    series, big_h = dense_hour_counts(sf_dir)
    t = np.arange(big_h, dtype=np.int64)
    st = int(t.sum())
    stt = int(np.dot(t, t))
    out = {"event_type": [], "slope_per_hour": [], "r2": []}
    for et in sorted(series):
        y = series[et]
        sy = int(y.sum())
        syy = int(np.dot(y, y))
        sty = int(np.dot(t, y))
        num = big_h * sty - st * sy
        dx = big_h * stt - st * st
        dy = big_h * syy - sy * sy
        slope = 0.0 if dx == 0 else float(num) / float(dx)
        r2 = (0.0 if dx == 0 or dy == 0
              else float(num * num) / float(dx * dy))
        out["event_type"].append(et)
        out["slope_per_hour"].append(round(slope, 6))
        out["r2"].append(round(r2, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "slope_per_hour": pa.array(out["slope_per_hour"], pa.float64()),
        "r2": pa.array(out["r2"], pa.float64()),
    })


def q_granger_1lag(sf_dir: str):
    """One-lag Granger causality F-test for every ORDERED type pair
    (cause -> effect): y_t = effect count, predictors [1, y_{t-1}]
    (restricted) vs [1, y_{t-1}, cause_{t-1}] (unrestricted).  Both
    RSS values come from the exact bordered-determinant identity
    RSS = det([[X'X, X'y], [y'X, y'y]]) / det(X'X), so
    F = (D3r*D3u - D4u*D2r) * (n-3) / (D2r*D4u) is ONE mirrored
    division of exact (big)integers (adjugate quadratic-form
    expansion; all moments are int64-bounded hourly-count sums)."""
    series, big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    n = big_h - 1
    out = {"cause": [], "effect": [], "f_stat": []}
    for ta in types:
        for tb in types:
            if ta == tb:
                continue
            y = series[tb][1:]
            x1 = series[tb][:-1]
            x2 = series[ta][:-1]
            s_y = int(y.sum())
            s_1 = int(x1.sum())
            s_2 = int(x2.sum())
            syy = int(np.dot(y, y))
            s11 = int(np.dot(x1, x1))
            s22 = int(np.dot(x2, x2))
            s12 = int(np.dot(x1, x2))
            sy1 = int(np.dot(y, x1))
            sy2 = int(np.dot(y, x2))
            c11 = s11 * s22 - s12 * s12
            c12 = -(s_1 * s22 - s12 * s_2)
            c13 = s_1 * s12 - s11 * s_2
            c22 = n * s22 - s_2 * s_2
            c23 = -(n * s12 - s_1 * s_2)
            c33 = n * s11 - s_1 * s_1
            d3u = n * c11 + s_1 * c12 + s_2 * c13
            q = (s_y * s_y * c11 + sy1 * sy1 * c22 + sy2 * sy2 * c33
                 + 2 * s_y * sy1 * c12 + 2 * s_y * sy2 * c13
                 + 2 * sy1 * sy2 * c23)
            d4u = syy * d3u - q
            d2r = n * s11 - s_1 * s_1
            d3r = (syy * d2r
                   - (s_y * s_y * s11 - 2 * s_y * sy1 * s_1
                      + sy1 * sy1 * n))
            num = (d3r * d3u - d4u * d2r) * (n - 3)
            den = d2r * d4u
            f = 0.0 if den <= 0 or num < 0 else float(num) / float(den)
            out["cause"].append(ta)
            out["effect"].append(tb)
            out["f_stat"].append(round(f, 6))
    return pa.table({
        "cause": pa.array(out["cause"], pa.string()),
        "effect": pa.array(out["effect"], pa.string()),
        "f_stat": pa.array(out["f_stat"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 36: standardized effect sizes, profile divergence, run lengths.
# ---------------------------------------------------------------------------

def q_effect_sizes(sf_dir: str):
    """Standardized mean-difference effect sizes between type pairs'
    cent values: Cohen's d with the pooled SD, the Hedges small-sample
    correction g = d*(1 - 3/(4*(n1+n2) - 9)), and Glass's delta
    (control SD = type_a) — exact integer moments, mirrored chains."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "cohens_d": [], "hedges_g": [],
           "glass_delta": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            va, aa = prof[ta]
            vb, ab = prof[tb]
            n1, n2 = int(aa.sum()), int(ab.sum())
            s1a = int(np.dot(va, aa))
            s2a = int(np.dot(va * va, aa))
            s1b = int(np.dot(vb, ab))
            s2b = int(np.dot(vb * vb, ab))
            nua = n1 * s2a - s1a * s1a  # n1^2 * (n1-1) * var / ...
            nub = n2 * s2b - s1b * s1b
            # pooled var numerator: ((nua/n1) + (nub/n2)) / (n1+n2-2)
            # mean diff = s1a/n1 - s1b/n2 = (s1a*n2 - s1b*n1)/(n1*n2)
            md_num = s1a * n2 - s1b * n1
            if n1 < 2 or n2 < 2 or n1 + n2 < 3:
                d = g = gd = 0.0
            else:
                pool = (float(nua * n2 + nub * n1)
                        / float(n1 * n2 * (n1 + n2 - 2)))
                d = (0.0 if pool <= 0.0
                     else float(md_num)
                     / (float(n1 * n2) * math.sqrt(pool)))
                g = d * (1.0 - 3.0 / float(4 * (n1 + n2) - 9))
                sda = (0.0 if nua <= 0
                       else math.sqrt(float(nua)
                                      / float(n1 * (n1 - 1))))
                gd = (0.0 if sda == 0.0
                      else float(md_num) / (float(n1 * n2) * sda))
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["cohens_d"].append(round(d, 6))
            out["hedges_g"].append(round(g, 6))
            out["glass_delta"].append(round(gd, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "cohens_d": pa.array(out["cohens_d"], pa.float64()),
        "hedges_g": pa.array(out["hedges_g"], pa.float64()),
        "glass_delta": pa.array(out["glass_delta"], pa.float64()),
    })


def q_kl_vs_pooled(sf_dir: str):
    """KL divergence of each type's hour-of-day profile from the
    pooled profile: KL = (1/N_t) * sum_d c_d * (LN(c_d * M) -
    LN(N_t * m_d)) / 1e6 with micro-floored logs of the exact integer
    products (c = type count at hod d, m = pooled count, N_t/M the
    totals) — cells with c_d = 0 contribute 0."""
    census = hod_census(sf_dir)
    pooled = census.groupby("hod")["o"].sum().to_dict()
    big_m = int(sum(pooled.values()))
    out = {"event_type": [], "kl_bits_e": []}
    for et, grp in census.groupby("event_type", sort=True):
        n_t = int(grp["o"].sum())
        acc = 0
        for _, row in grp.iterrows():
            c = int(row["o"])
            m = int(pooled[int(row["hod"])])
            if c > 0:
                acc += c * (math.floor(1e6 * math.log(float(c * big_m)))
                            - math.floor(1e6 * math.log(float(n_t
                                                               * m))))
        kl = (0.0 if n_t == 0
              else float(acc) / float(1000000 * n_t))
        out["event_type"].append(str(et))
        out["kl_bits_e"].append(round(kl, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "kl_bits_e": pa.array(out["kl_bits_e"], pa.float64()),
    })


def q_longest_run(sf_dir: str):
    """Longest run of consecutive above-median hours per type (strict
    c > exact median; gaps-and-islands on the dense grid) plus the
    number of maximal above-median runs — pure integers."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "longest_run": [], "n_runs": []}
    for et in sorted(series):
        x = series[et]
        med = int(np.sort(x)[(big_h + 1) // 2 - 1])
        above = x > med
        best = cur = runs = 0
        prev = False
        for b in above:
            if b:
                cur += 1
                if not prev:
                    runs += 1
                best = max(best, cur)
            else:
                cur = 0
            prev = bool(b)
        out["event_type"].append(et)
        out["longest_run"].append(best)
        out["n_runs"].append(runs)
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "longest_run": pa.array(out["longest_run"], pa.int64()),
        "n_runs": pa.array(out["n_runs"], pa.int64()),
    })


# ---------------------------------------------------------------------------
# wave 37: pairwise distribution overlap / homogeneity measures.
# ---------------------------------------------------------------------------

def q_tv_overlap(sf_dir: str):
    """Total-variation distance between every type pair's cent-value
    distribution, TV = sum_v |n_B*a_v - n_A*b_v| / (2*n_A*n_B), and
    the overlap coefficient sum min(p, q) = 1 - TV — exact integers
    to one mirrored division."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "tv_dist": [], "overlap": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            _, a_n, b_n = _merged_support(*prof[ta], *prof[tb])
            na, nb = int(a_n.sum()), int(b_n.sum())
            num = sum(abs(nb * int(a) - na * int(b))
                      for a, b in zip(a_n, b_n))
            den = 2 * na * nb
            tv = 0.0 if den == 0 else float(num) / float(den)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["tv_dist"].append(round(tv, 6))
            out["overlap"].append(round(1.0 - tv, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "tv_dist": pa.array(out["tv_dist"], pa.float64()),
        "overlap": pa.array(out["overlap"], pa.float64()),
    })


def q_chi2_homogeneity(sf_dir: str):
    """Two-sample chi-square homogeneity test on the merged cent
    support: chi2 = sum_v (n_B*a_v - n_A*b_v)^2 /
    (n_A*n_B*(a_v+b_v)) (the N factors cancel) — per-support-row terms have
    varying denominators, so each is pico-floored exactly
    (bignum/HUGEINT floor division) before the integer sum."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "chi2": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            _, a_n, b_n = _merged_support(*prof[ta], *prof[tb])
            na, nb = int(a_n.sum()), int(b_n.sum())
            big_n = na + nb
            acc = 0
            for a, b in zip(a_n, b_n):
                a, b = int(a), int(b)
                if a + b == 0:
                    continue
                diff = nb * a - na * b
                acc += (10 ** 12 * diff * diff) \
                    // (na * nb * (a + b))
            chi2 = (0.0 if na == 0 or nb == 0
                    else float(acc) / 1e12)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["chi2"].append(round(chi2, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "chi2": pa.array(out["chi2"], pa.float64()),
    })


def q_active_hours_jaccard(sf_dir: str):
    """Jaccard similarity of the active-hour sets (hours with at
    least one event) between type pairs over the dense grid — pure
    integer counts + one mirrored division."""
    series, big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    out = {"type_a": [], "type_b": [], "n_both": [], "jaccard": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            a = series[ta] > 0
            b = series[tb] > 0
            inter = int((a & b).sum())
            union = int((a | b).sum())
            j = 0.0 if union == 0 else float(inter) / float(union)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["n_both"].append(inter)
            out["jaccard"].append(round(j, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "n_both": pa.array(out["n_both"], pa.int64()),
        "jaccard": pa.array(out["jaccard"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 38: classical ANOVA + shape diagnostics.
# ---------------------------------------------------------------------------

def q_anova_f(sf_dir: str):
    """Classical one-way ANOVA of cent values across the k types:
    with pico-floored per-group terms t_i = (1e12*S1_i^2)//n_i,
    SSB_pico = sum t_i - (1e12*S1^2)//N and SSW_pico = 1e12*S2 -
    sum t_i, F = SSB_pico*(N-k) / (SSW_pico*(k-1)) and
    eta^2 = SSB_pico/(SSB_pico + SSW_pico) — exact integers to one
    mirrored division each."""
    prof = _cent_profiles(sf_dir)
    types = sorted(prof)
    k = len(types)
    t_sum = 0
    s1_tot = 0
    s2_tot = 0
    n_tot = 0
    for et in types:
        v, a = prof[et]
        n_i = int(a.sum())
        s1_i = int(np.dot(v, a))
        s2_tot += int(np.dot(v * v, a))
        s1_tot += s1_i
        n_tot += n_i
        if n_i > 0:
            t_sum += (10 ** 12 * s1_i * s1_i) // n_i
    ssb = t_sum - (10 ** 12 * s1_tot * s1_tot) // n_tot if n_tot else 0
    ssw = 10 ** 12 * s2_tot - t_sum
    f = (0.0 if k < 2 or n_tot <= k or ssw <= 0
         else float(ssb * (n_tot - k)) / float(ssw * (k - 1)))
    eta2 = (0.0 if ssb + ssw <= 0
            else float(ssb) / float(ssb + ssw))
    return pa.table({
        "k_groups": pa.array([k], pa.int64()),
        "anova_f": pa.array([round(f, 6)], pa.float64()),
        "eta_sq": pa.array([round(eta2, 6)], pa.float64()),
    })


def q_dow_uniformity(sf_dir: str):
    """Chi-square of each type's day-of-week profile against the
    uniform distribution: chi2 = (7*sum c_d^2 - n^2)/n — exact
    integers to ONE mirrored division (E = n/7 cancels)."""
    census = dow_census(sf_dir)
    out = {"event_type": [], "chi2_uniform": []}
    for et, grp in census.groupby("event_type", sort=True):
        c = grp["n"].to_numpy(np.int64)
        n = int(c.sum())
        s2 = int(np.dot(c, c))
        chi2 = 0.0 if n == 0 else float(7 * s2 - n * n) / float(n)
        out["event_type"].append(str(et))
        out["chi2_uniform"].append(round(chi2, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "chi2_uniform": pa.array(out["chi2_uniform"], pa.float64()),
    })


def q_quantile_skew(sf_dir: str):
    """Quantile-based skewness per type: Bowley
    (Q3 + Q1 - 2*med)/(Q3 - Q1) and Kelly
    (P90 + P10 - 2*med)/(P90 - P10) — exact ceil-index order
    statistics, one mirrored division each."""
    prof = _cent_profiles(sf_dir)
    out = {"event_type": [], "bowley_skew": [], "kelly_skew": []}
    for et in sorted(prof):
        v, a = prof[et]
        n = int(a.sum())
        med = _order_stat(v, a, (n + 1) // 2)
        q1 = _order_stat(v, a, (n + 3) // 4)
        q3 = _order_stat(v, a, (3 * n + 3) // 4)
        p10 = _order_stat(v, a, (n + 9) // 10)
        p90 = _order_stat(v, a, (9 * n + 9) // 10)
        bow = (0.0 if q3 == q1
               else float(q3 + q1 - 2 * med) / float(q3 - q1))
        kel = (0.0 if p90 == p10
               else float(p90 + p10 - 2 * med) / float(p90 - p10))
        out["event_type"].append(et)
        out["bowley_skew"].append(round(bow, 6))
        out["kelly_skew"].append(round(kel, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "bowley_skew": pa.array(out["bowley_skew"], pa.float64()),
        "kelly_skew": pa.array(out["kelly_skew"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 39: outlier censuses + uniform GOF.
# ---------------------------------------------------------------------------

def q_outlier_counts(sf_dir: str):
    """Outlier counts per type under two classical rules, all in exact
    integer comparisons: Tukey fences (v < Q1 - 1.5*IQR or v > Q3 +
    1.5*IQR, cross-multiplied by 2: 2*v vs 5*Q1 - 3*Q3 and
    5*Q3 - 3*Q1) and the robust-z rule |v - med| > 3*MAD."""
    prof = _cent_profiles(sf_dir)
    out = {"event_type": [], "iqr_low": [], "iqr_high": [],
           "robust_z_cnt": []}
    for et in sorted(prof):
        v, a = prof[et]
        n = int(a.sum())
        med = _order_stat(v, a, (n + 1) // 2)
        q1 = _order_stat(v, a, (n + 3) // 4)
        q3 = _order_stat(v, a, (3 * n + 3) // 4)
        av = np.abs(v - med)
        order = np.argsort(av, kind="mergesort")
        mad = _order_stat(av[order], a[order], (n + 1) // 2)
        lo_cnt = int(a[2 * v < 5 * q1 - 3 * q3].sum())
        hi_cnt = int(a[2 * v > 5 * q3 - 3 * q1].sum())
        rz_cnt = int(a[np.abs(v - med) > 3 * mad].sum())
        out["event_type"].append(et)
        out["iqr_low"].append(lo_cnt)
        out["iqr_high"].append(hi_cnt)
        out["robust_z_cnt"].append(rz_cnt)
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "iqr_low": pa.array(out["iqr_low"], pa.int64()),
        "iqr_high": pa.array(out["iqr_high"], pa.int64()),
        "robust_z_cnt": pa.array(out["robust_z_cnt"], pa.int64()),
    })


def q_ks_uniform_value(sf_dir: str):
    """One-sample Kolmogorov-Smirnov distance of each type's cent
    values from the uniform distribution on [min, max]:
    D = max_v |F(v) - (v-lo)/(hi-lo)| as the exact integer max of
    |cum_v*(hi-lo) - n*(v-lo)| over the support, one mirrored
    division; ``at_cv`` is the smallest cent attaining it."""
    prof = _cent_profiles(sf_dir)
    out = {"event_type": [], "d_stat": [], "at_cv": []}
    for et in sorted(prof):
        v, a = prof[et]
        n = int(a.sum())
        lo, hi = int(v[0]), int(v[-1])
        rng = hi - lo
        if rng == 0 or n == 0:
            out["event_type"].append(et)
            out["d_stat"].append(0.0)
            out["at_cv"].append(lo)
            continue
        cum = np.cumsum(a)
        dev = np.abs(cum * rng - n * (v - lo))
        k = int(dev.argmax())
        d = float(int(dev[k])) / float(n * rng)
        out["event_type"].append(et)
        out["d_stat"].append(round(d, 6))
        out["at_cv"].append(int(v[k]))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "d_stat": pa.array(out["d_stat"], pa.float64()),
        "at_cv": pa.array(out["at_cv"], pa.int64()),
    })


# ---------------------------------------------------------------------------
# wave 40: value-mass concentration.
# ---------------------------------------------------------------------------

def q_half_value_point(sf_dir: str):
    """The half-value point per type: the smallest cent value v* where
    the cumulative VALUE mass reaches half the total (2*cumsum(v*a) >=
    S_v — exact integer comparison), plus the share of EVENTS at or
    below it (one mirrored division).  A Pareto-style "how few cheap
    events carry half the money" diagnostic."""
    prof = _cent_profiles(sf_dir)
    out = {"event_type": [], "half_value_cv": [], "events_below": []}
    for et in sorted(prof):
        v, a = prof[et]
        n = int(a.sum())
        if len(v) and int(v.min()) < 0:
            # cumsum(v*a) is only monotone for non-negative values; a
            # negative cent value would make searchsorted silently
            # return a wrong half-value point — fail loudly instead.
            raise ValueError(
                f"q_half_value_point: negative cent value for {et!r} "
                f"(min {int(v.min())}); half-value mass point is "
                "undefined for signed values")
        mass = np.cumsum(v * a)
        s_v = int(mass[-1])
        k = int(np.searchsorted(2 * mass, s_v))
        cnt = int(np.cumsum(a)[k])
        share = 0.0 if n == 0 else float(cnt) / float(n)
        out["event_type"].append(et)
        out["half_value_cv"].append(int(v[k]))
        out["events_below"].append(round(share, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "half_value_cv": pa.array(out["half_value_cv"], pa.int64()),
        "events_below": pa.array(out["events_below"], pa.float64()),
    })


def q_user_gini(sf_dir: str):
    """Gini coefficient of per-user event counts via the
    COUNT-OF-COUNTS census (c -> number of users with activity c):
    the user census folds in-shard to O(distinct activity levels)
    rows, then the strictly-below cumulative identity gives the exact
    pairwise-|difference| sum; G = gaa/(U*S1) (population
    convention)."""
    census = user_event_counts(sf_dir)

    def ff(batch: pa.Table) -> pa.Table:
        return pa.table({"c": pc.cast(batch["n"], pa.int64()),
                         "u": pa.array(np.ones(batch.num_rows, np.int64))})

    cc = sharded_grouped_agg(
        census.map_batches(ff, batch_format="pyarrow"),
        ["c"], [("u", "sum")],
    ).to_pandas().sort_values("c")
    c = cc["c"].to_numpy(np.int64)
    u = cc["u"].to_numpy(np.int64)
    users = int(u.sum())
    s1 = int(np.dot(c, u))
    w_lt = np.cumsum(u) - u
    s_lt = np.cumsum(c * u) - c * u
    gaa = sum(int(uu) * (int(vv) * int(w) - int(s))
              for uu, vv, w, s in zip(u, c, w_lt, s_lt))
    g = 0.0 if users * s1 == 0 else float(gaa) / float(users * s1)
    return pa.table({
        "n_users": pa.array([users], pa.int64()),
        "user_gini": pa.array([round(g, 6)], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 41: longitudinal product analytics.
# ---------------------------------------------------------------------------

def q_value_trend(sf_dir: str):
    """OLS trend of event VALUE (cents) against the epoch-day index
    per type — slope in cents/day and R², from exact event-level
    moment sums (one (type) x 6-moment exchange, no census needed)."""
    from ..windows import ts_to_ms

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        day = (tms // 86_400_000).astype(np.int64)
        cv = np.rint(batch["value"].to_numpy(zero_copy_only=False)
                     * 100.0).astype(np.int64)
        return pa.table({
            "event_type": batch["event_type"],
            "n": pa.array(np.ones(len(cv), np.int64)),
            "sd": pa.array(day),
            "sv": pa.array(cv),
            "sdd": pa.array(day * day),
            "svv": pa.array(cv * cv),
            "sdv": pa.array(day * cv),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type"],
        [("n", "sum"), ("sd", "sum"), ("sv", "sum"), ("sdd", "sum"),
         ("svv", "sum"), ("sdv", "sum")],
    ).to_pandas()
    out = {"event_type": [], "slope_cents_day": [], "r2": []}
    for _, r in census.sort_values("event_type").iterrows():
        n = int(r["n"])
        sd, sv = int(r["sd"]), int(r["sv"])
        sdd, svv, sdv = int(r["sdd"]), int(r["svv"]), int(r["sdv"])
        dx = n * sdd - sd * sd
        dy = n * svv - sv * sv
        num = n * sdv - sd * sv
        slope = 0.0 if dx == 0 else float(num) / float(dx)
        r2 = (0.0 if dx == 0 or dy == 0
              else float(num * num) / float(dx * dy))
        out["event_type"].append(str(r["event_type"]))
        out["slope_cents_day"].append(round(slope, 6))
        out["r2"].append(round(r2, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "slope_cents_day": pa.array(out["slope_cents_day"],
                                    pa.float64()),
        "r2": pa.array(out["r2"], pa.float64()),
    })


def q_returning_share(sf_dir: str):
    """Share of events that occur AFTER their user's first active
    day: from the (user, day, n) census, returning = N - sum of each
    user's first-day count — exact integers, one mirrored division."""
    from ..windows import ts_to_ms

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "day": pa.array((tms // 86_400_000).astype(np.int64)),
            "n": pa.array(np.ones(len(tms), np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id", "day"], [("n", "sum")],
    )

    # Re-key by USER so each user's (day, n) rows are co-located —
    # the census above is hashed on (user, day), which would split a
    # user across folds and miscount the first day.
    from ..stages.common import shard_apply
    from ..stages.keyed import _segment_starts

    def fold(group: pa.Table) -> pa.Table:
        t = group.sort_by([("user_id", "ascending"),
                       ("day", "ascending")])
        starts = _segment_starts(t, ["user_id"])
        n = t["n"].to_numpy(zero_copy_only=False)
        return pa.table({
            "total": pa.array([int(n.sum())], pa.int64()),
            "first": pa.array([int(n[starts].sum())], pa.int64()),
        })

    f = shard_apply(census, ["user_id"], fold, coalesce=False).to_pandas()
    total, first = int(f["total"].sum()), int(f["first"].sum())
    share = (0.0 if total == 0
             else float(total - first) / float(total))
    return pa.table({
        "n_events": pa.array([total], pa.int64()),
        "returning_share": pa.array([round(share, 6)], pa.float64()),
    })


def q_stickiness(sf_dir: str):
    """DAU/WAU stickiness: sum of daily active users over days,
    sum of weekly active users over ISO-ish weeks (epoch_day // 7),
    and the ratio mean(DAU)/mean(WAU) = (S_dau * n_weeks) /
    (S_wau * n_days) — exact integers from two distinct-count
    censuses, one mirrored division."""
    from ..windows import ts_to_ms

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        day = (tms // 86_400_000).astype(np.int64)
        return pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "day": pa.array(day),
            "wk": pa.array(day // 7),
            "n": pa.array(np.ones(len(day), np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id", "day", "wk"], [("n", "sum")],
    )

    # Fold the distinct counts per USER-keyed shard (users are disjoint
    # across shards, so per-shard distinct (user,day)/(user,wk) counts
    # sum exactly) instead of collecting the full (user, day) census to
    # the driver — n_users x n_days rows is unbounded at scale.  The
    # driver receives only per-shard scalars plus the O(days) distinct
    # day/week values (time-range-bounded metadata), as tagged rows.
    from ..stages.common import shard_apply
    from ..stages.keyed import _segment_starts

    def fold(t: pa.Table) -> pa.Table:
        kinds: list[str] = []
        vals: list[int] = []
        if t.num_rows:
            t = t.sort_by([("user_id", "ascending"),
                           ("wk", "ascending")])
            kinds.append("ud")
            vals.append(t.num_rows)  # rows are distinct (user, day)
            kinds.append("uw")
            # _segment_starts yields a new-segment BOOL MASK; its sum is
            # the distinct (user, wk) count in this user-disjoint shard
            vals.append(int(_segment_starts(
                t, ["user_id", "wk"]).sum()))
            for d in np.unique(t["day"].to_numpy(zero_copy_only=False)):
                kinds.append("day")
                vals.append(int(d))
            for w in np.unique(t["wk"].to_numpy(zero_copy_only=False)):
                kinds.append("wk")
                vals.append(int(w))
        return pa.table({"kind": pa.array(kinds, pa.string()),
                         "v": pa.array(vals, pa.int64())})

    f = shard_apply(census, ["user_id"], fold, coalesce=False).to_pandas()
    s_dau = int(f.loc[f["kind"] == "ud", "v"].sum())
    s_wau = int(f.loc[f["kind"] == "uw", "v"].sum())
    n_days = int(f.loc[f["kind"] == "day", "v"].nunique())
    n_weeks = int(f.loc[f["kind"] == "wk", "v"].nunique())
    ratio = (0.0 if s_wau * n_days == 0
             else float(s_dau * n_weeks) / float(s_wau * n_days))
    return pa.table({
        "sum_dau": pa.array([s_dau], pa.int64()),
        "sum_wau": pa.array([s_wau], pa.int64()),
        "stickiness": pa.array([round(ratio, 6)], pa.float64()),
    })
