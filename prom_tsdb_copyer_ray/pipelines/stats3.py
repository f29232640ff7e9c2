"""Session-12 statistics wave: trend / randomness / stability tests over
the per-type hourly event-count series.

Every operator here reads one of the shared censuses of
pipelines/qsubstrate.py — a per-batch Arrow ``group_by`` combiner, one
sharded exchange of census rows, a driver-final scan.  The main one is
``dense_hour_counts``: the (event_type, hr) ``hour_census`` (at most
types x hours rows, the fano_factor shape) densified over the corpus
hour grid [min hr, max hr] (absent hours are true zeros), followed by
exact integer math.  The others are ``hod_census`` (type x hour of
day), ``cent_census`` (type x cent value), ``purchase_view_cents`` (the
two-sample cent census), ``user_cent_sums`` and ``user_ts_spans``.
The hour grid length H is bounded by the TIME RANGE, never by corpus
size — at 100 TB a 10-year corpus is ~88k hours of driver-side metadata
per type, and the O(H^2) pairwise scan in mann_kendall has the
documented O(H log H) merge-inversion escalation.

Float protocol as everywhere (pipelines/stats2.py): statistics stay
exact-integer until ONE mirrored float expression shared verbatim with
the SQL oracle (IEEE casts / products / sqrt are correctly rounded, so
results are bit-identical); per-lag terms that must be summed across
rows are pico-floored first (the harmonic-mean protocol) so the sum is
an associative integer sum.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..stages.common import shard_apply
from ..stages.keyed import sharded_grouped_agg
from ..windows import ts_to_ms
from .qsubstrate import (
    WORD_RE,
    _read,
    cent_census,
    dense_hour_counts,
    hod_census,
    purchase_view_cents,
    user_cent_sums,
    user_ts_spans,
)


# Micro-floored trig constants floor(cos|sin(2*pi*d/24) * 1e6) for
# d = 0..23, embedded as LITERALS here and in the SQL oracle (a VALUES
# table) so no cross-engine libm trig call can flip a floor boundary —
# the constants are part of the query definition.
_FC24 = [1000000, 965925, 866025, 707106, 500000, 258819, 0, -258820,
         -500000, -707107, -866026, -965926, -1000000, -965926, -866026,
         -707107, -500001, -258820, -1, 258819, 500000, 707106, 866025,
         965925]
_FS24 = [0, 258819, 499999, 707106, 866025, 965925, 1000000, 965925,
         866025, 707106, 499999, 258819, 0, -258820, -500000, -707107,
         -866026, -965926, -1000000, -965926, -866026, -707107, -500001,
         -258820]


def q_diurnal_amplitude(sf_dir: str):
    """First-harmonic (24 h cycle) DFT amplitude of each type's
    hour-of-day activity profile: A = sum_d T_d*FC_d,
    B = sum_d T_d*FS_d over the 24-cell hod census with the micro-
    floored trig LITERALS above (exact integer sums, Python bignums),
    amplitude ratio = sqrt(A^2+B^2)/(1e6*N) as ONE mirrored float
    expression.  A flat profile scores ~0, a pure 24 h sinusoid ~0.5.
    One (type, hod) census exchange — 24 x types rows."""
    census = hod_census(sf_dir)
    out = {"event_type": [], "n": [], "a_cos": [], "b_sin": [],
           "amp_ratio": []}
    for et, grp in census.groupby("event_type", sort=True):
        d = grp["hod"].to_numpy()
        t = grp["o"].to_numpy()
        a = sum(int(tt) * _FC24[int(dd)] for dd, tt in zip(d, t))
        b = sum(int(tt) * _FS24[int(dd)] for dd, tt in zip(d, t))
        s1 = int(t.sum())
        amp = math.sqrt(float(a * a + b * b)) / (1e6 * float(s1))
        out["event_type"].append(str(et))
        out["n"].append(s1)
        out["a_cos"].append(a)
        out["b_sin"].append(b)
        out["amp_ratio"].append(round(amp, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n": pa.array(out["n"], pa.int64()),
        "a_cos": pa.array(out["a_cos"], pa.int64()),
        "b_sin": pa.array(out["b_sin"], pa.int64()),
        "amp_ratio": pa.array(out["amp_ratio"], pa.float64()),
    })


def q_permutation_entropy(sf_dir: str):
    """Order-3 permutation entropy of the dense hourly count series per
    type: each length-3 window maps to its ordinal pattern (ties broken
    by position, i.e. ``i precedes j iff c_i <= c_j`` for i < j), the
    6-cell pattern census is exact, and H = -sum n_p * ln(n_p/N) runs
    in the micro-floored log domain so the cross-pattern sum is an
    associative integer sum; pe_norm divides by the micro-floored
    ln(6) LITERAL 1.791759.  Low PE = rigid diurnal structure, high PE
    = noise-like ordering."""
    series, _big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "n_windows": [], "pe_nats": [], "pe_norm": []}
    for et, c in series.items():
        c0, c1, c2 = c[:-2], c[1:-1], c[2:]
        pid = (4 * (c0 <= c1).astype(np.int64)
               + 2 * (c0 <= c2).astype(np.int64)
               + (c1 <= c2).astype(np.int64))
        counts = np.bincount(pid, minlength=8)
        n = int(pid.size)
        total = sum(int(np_) * math.floor(math.log(np_ / n) * 1e6)
                    for np_ in counts if np_ > 0)
        pe = -(float(total) / 1e6) / float(n)
        out["event_type"].append(et)
        out["n_windows"].append(n)
        out["pe_nats"].append(round(pe, 6))
        out["pe_norm"].append(round(pe / 1.791759, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n_windows": pa.array(out["n_windows"], pa.int64()),
        "pe_nats": pa.array(out["pe_nats"], pa.float64()),
        "pe_norm": pa.array(out["pe_norm"], pa.float64()),
    })


def q_ljung_box(sf_dir: str):
    """Ljung-Box portmanteau autocorrelation test (lags 1..6) on the
    dense hourly count series per type.  Each lag's autocovariance is
    kept in the EXACT cross-multiplied integer form
    cov_k*H^2 = H^2*P_k - H*S1*(A_k+B_k) + (H-k)*S1^2 (P_k = lagged dot
    product, A_k/B_k = head/tail sums — Python bignums), so r_k is ONE
    division of exact ints; each r_k^2/(H-k) term is pico-floored (the
    harmonic-mean protocol — terms << 1) making the lag sum associative,
    and Q = H(H+2) * sum/1e12 is the final mirrored expression."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "n_hours": [], "r1": [], "lb_q": []}
    for et, c in series.items():
        p0 = int(np.dot(c, c))
        s1 = int(c.sum())
        den = big_h * (big_h * p0 - s1 * s1)
        total = 0
        r1 = 0.0
        for k in range(1, 7):
            pk = int(np.dot(c[:-k], c[k:]))
            ak = int(c[:-k].sum())
            bk = int(c[k:].sum())
            covk = (big_h * big_h * pk - big_h * s1 * (ak + bk)
                    + (big_h - k) * s1 * s1)
            r = float(covk) / float(den)
            if k == 1:
                r1 = round(r, 6)
            total += math.floor(r * r / (big_h - k) * 1e12)
        q = round(float(big_h * (big_h + 2)) * (float(total) / 1e12), 6)
        out["event_type"].append(et)
        out["n_hours"].append(big_h)
        out["r1"].append(r1)
        out["lb_q"].append(q)
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n_hours": pa.array(out["n_hours"], pa.int64()),
        "r1": pa.array(out["r1"], pa.float64()),
        "lb_q": pa.array(out["lb_q"], pa.float64()),
    })


def q_mann_kendall(sf_dir: str):
    """Mann-Kendall trend test per event type over the dense hourly
    count series: S = sum_{i<j} sign(c_j - c_i) — EXACT integers (no
    float enters S or the tie-corrected variance numerator
    var_num = H(H-1)(2H+5) - sum_t t(t-1)(2t+5)).  The z statistic is
    one mirrored float expression ((S -/+ 1)/sqrt(var_num/18.0)).
    S is the exact O(H log H) merge-inversion count
    (``functions/pairstats.concordance_s``: S = #ascending-pairs -
    #descending-pairs via strict left-counts on c and -c) — the former
    O(H^2) sign-matrix driver scan materialized ~5 GB at a 26k-hour
    grid (round-3 verdict pair-statistics family); bit-identical
    values."""
    from ..functions.pairstats import concordance_s

    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "s_stat": [], "var_num": [], "z": []}
    for et, c in series.items():
        s = concordance_s(c)
        _, t_counts = np.unique(c, return_counts=True)
        tie_sum = sum(int(t) * (int(t) - 1) * (2 * int(t) + 5)
                      for t in t_counts)
        var_num = big_h * (big_h - 1) * (2 * big_h + 5) - tie_sum
        if s > 0:
            z = (float(s) - 1.0) / math.sqrt(float(var_num) / 18.0)
        elif s < 0:
            z = (float(s) + 1.0) / math.sqrt(float(var_num) / 18.0)
        else:
            z = 0.0
        out["event_type"].append(et)
        out["s_stat"].append(s)
        out["var_num"].append(var_num)
        out["z"].append(round(z, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "s_stat": pa.array(out["s_stat"], pa.int64()),
        "var_num": pa.array(out["var_num"], pa.int64()),
        "z": pa.array(out["z"], pa.float64()),
    })


def q_turning_points(sf_dir: str):
    """Turning-points randomness test per event type: T = count of
    strict local extrema in the dense hourly count series (exact int),
    z = (T - 2(H-2)/3) / sqrt((16H-29)/90) as ONE mirrored float
    expression.  Same single census exchange as mann_kendall."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "t_points": [], "n_hours": [], "z": []}
    for et, c in series.items():
        mid, left, right = c[1:-1], c[:-2], c[2:]
        peaks = (left < mid) & (mid > right)
        valleys = (left > mid) & (mid < right)
        t = int(np.count_nonzero(peaks | valleys))
        z = (float(t) - 2.0 * float(big_h - 2) / 3.0) / math.sqrt(
            (16.0 * float(big_h) - 29.0) / 90.0)
        out["event_type"].append(et)
        out["t_points"].append(t)
        out["n_hours"].append(big_h)
        out["z"].append(round(z, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "t_points": pa.array(out["t_points"], pa.int64()),
        "n_hours": pa.array(out["n_hours"], pa.int64()),
        "z": pa.array(out["z"], pa.float64()),
    })


def q_allan_variance(sf_dir: str):
    """Allan (two-sample) variance of the hourly count process at
    cluster times tau in {1, 2, 4} hours, per event type: complete
    windows of tau hours are summed (exact ints), and
    avar = sum (w_{i+1} - w_i)^2 / (2 (M-1) tau^2) keeps the window-SUM
    form so the only float op is the final mirrored division (the
    window MEANS would be rationals; sums are exact).  Multi-tau slope
    is the white-vs-flicker noise discriminator."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "tau": [], "m_windows": [], "avar": []}
    for et, c in series.items():
        for tau in (1, 2, 4):
            m = big_h // tau
            w = c[: m * tau].reshape(m, tau).sum(axis=1)
            dw = np.diff(w)
            ssd = int(np.sum(dw * dw))
            avar = float(ssd) / float(2 * (m - 1) * tau * tau)
            out["event_type"].append(et)
            out["tau"].append(tau)
            out["m_windows"].append(m)
            out["avar"].append(round(avar, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "tau": pa.array(out["tau"], pa.int64()),
        "m_windows": pa.array(out["m_windows"], pa.int64()),
        "avar": pa.array(out["avar"], pa.float64()),
    })


def q_zipf_slope(sf_dir: str):
    """Zipf exponent of the corpus vocabulary: OLS slope of
    micro-floored ln(collection frequency) against micro-floored
    ln(rank) over the top-100 terms (rank order = freq DESC, term ASC —
    deterministic).  The term census is the term_document_frequency
    exchange shape (stages/textstats.py:70 — per-batch vocab combiner,
    term-hash shard, collapsed vocab only); the 100-row regression is
    exact-integer (Python bignums) to ONE mirrored division."""
    from collections import Counter

    from ..stages.textstats import _shard_term_sum

    ds = _read(sf_dir, "documents", ["text"])

    def partial_cf(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch["text"].to_pylist():
            counts.update(m.lower() for m in WORD_RE.findall(t or ""))
        terms = list(counts.keys())
        return pa.table({
            "term": pa.array(terms, pa.string()),
            "df": pa.array([counts[t] for t in terms], pa.int64()),
        })

    top = (
        shard_apply(ds, ["term"], _shard_term_sum, prepare=partial_cf,
                    coalesce=False)
        .sort(["df", "term"], descending=[True, False])
        .limit(100)
        .to_pandas()
    )
    n = len(top)
    sx = sy = sxx = sxy = 0
    for i, tf in enumerate(top["df"].to_numpy(), start=1):
        x = math.floor(math.log(float(i)) * 1e6)
        y = math.floor(math.log(float(int(tf))) * 1e6)
        sx += x
        sy += y
        sxx += x * x
        sxy += x * y
    slope = float(n * sxy - sx * sy) / float(n * sxx - sx * sx)
    return pa.table({
        "n_terms": pa.array([n], pa.int64()),
        "zipf_slope": pa.array([round(slope, 6)], pa.float64()),
    })


def q_hapax_rate(sf_dir: str):
    """Per-language vocabulary shape: hapax-legomena rate (share of the
    vocabulary occurring exactly once) and type-token ratio.  The
    (lang, term) census is vocab-bounded; the per-lang reduction runs
    as a second per-batch combiner over census rows (vocab never
    reaches the driver), and the two rates are mirrored divisions of
    exact ints."""
    from collections import Counter

    ds = _read(sf_dir, "documents", ["lang", "text"])

    def partial_cf(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for lang, t in zip(batch["lang"].to_pylist(),
                           batch["text"].to_pylist()):
            for m in WORD_RE.findall(t or ""):
                counts[(lang or "", m.lower())] += 1
        keys = list(counts.keys())
        return pa.table({
            "lang": pa.array([k[0] for k in keys], pa.string()),
            "term": pa.array([k[1] for k in keys], pa.string()),
            "n": pa.array([counts[k] for k in keys], pa.int64()),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial_cf, batch_format="pyarrow"),
        ["lang", "term"], [("n", "sum")],
    )

    def lang_partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "lang": batch["lang"],
            "vocab": pa.array(np.ones(batch.num_rows, np.int64)),
            "hapax": pa.array(
                (batch["n"].to_numpy(zero_copy_only=False) == 1)
                .astype(np.int64)),
            "tokens": batch["n"],
        })

    agg = sharded_grouped_agg(
        census.map_batches(lang_partial, batch_format="pyarrow"),
        ["lang"], [("vocab", "sum"), ("hapax", "sum"), ("tokens", "sum")],
    ).to_pandas().sort_values("lang")
    vocab = agg["vocab"].to_numpy(np.int64)
    hapax = agg["hapax"].to_numpy(np.int64)
    tokens = agg["tokens"].to_numpy(np.int64)
    return pa.table({
        "lang": pa.array(agg["lang"].tolist(), pa.string()),
        "vocab": pa.array(vocab),
        "hapax": pa.array(hapax),
        "tokens": pa.array(tokens),
        "hapax_rate": pa.array(
            [round(float(h) / float(v), 6) for h, v in zip(hapax, vocab)],
            pa.float64()),
        "ttr": pa.array(
            [round(float(v) / float(t), 6) for v, t in zip(vocab, tokens)],
            pa.float64()),
    })


def q_jsd_types(sf_dir: str):
    """Pairwise Jensen-Shannon divergence (nats) between event types'
    hour-of-day distributions.  Per cell the log arguments
    2*a_d*B/(a_d*B + b_d*A) are exact-int ratios (the t_closeness
    common-denominator trick), micro-floored and weighted by the exact
    cell counts, so both KL halves are associative integer sums; the
    final expression is two mirrored divisions and one add.  One
    (type, hod) census exchange; pair expansion is over the type
    alphabet (C(T,2) driver-side rows)."""
    census = hod_census(sf_dir)
    prof: dict[str, np.ndarray] = {}
    for et, grp in census.groupby("event_type", sort=True):
        v = np.zeros(24, np.int64)
        v[grp["hod"].to_numpy()] = grp["o"].to_numpy()
        prof[str(et)] = v
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "n_a": [], "n_b": [], "jsd_nats": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            a, b = prof[ta], prof[tb]
            aa, bb = int(a.sum()), int(b.sum())
            tp = tq = 0
            for d in range(24):
                ad, bd = int(a[d]), int(b[d])
                mden = ad * bb + bd * aa
                if ad > 0:
                    tp += ad * math.floor(
                        math.log(float(2 * ad * bb) / float(mden)) * 1e6)
                if bd > 0:
                    tq += bd * math.floor(
                        math.log(float(2 * bd * aa) / float(mden)) * 1e6)
            jsd = (float(tp) / (2e6 * float(aa))
                   + float(tq) / (2e6 * float(bb)))
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["n_a"].append(aa)
            out["n_b"].append(bb)
            out["jsd_nats"].append(round(jsd, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "n_a": pa.array(out["n_a"], pa.int64()),
        "n_b": pa.array(out["n_b"], pa.int64()),
        "jsd_nats": pa.array(out["jsd_nats"], pa.float64()),
    })


def q_theil_index(sf_dir: str):
    """Theil T inequality index of per-user total event value:
    T = sum_i (x_i/S) * ln(x_i * n / S) over per-user cent totals.
    Scale shape: one user-keyed exchange builds the per-user census, a
    tiny combiner yields (S, n) which is BROADCAST back (the
    seasonal_residual shape), and a second shuffle-free pass computes
    the micro-floored per-user terms as per-batch integer partials —
    the user census never reaches the driver.  Final value is one
    mirrored division chain."""
    census = user_cent_sums(sf_dir)

    def sn_partial(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False)
        return pa.table({"s": pa.array([int(x.sum())], pa.int64()),
                         "n": pa.array([batch.num_rows], pa.int64())})

    sn = census.map_batches(sn_partial, batch_format="pyarrow").to_pandas()
    s_tot, n_users = int(sn["s"].sum()), int(sn["n"].sum())

    def term_partial(batch: pa.Table, s=s_tot, n=n_users) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False).astype(np.int64)
        lf = np.floor(
            np.log((x * n).astype(np.float64) / float(s)) * 1e6
        ).astype(np.int64)
        total = sum(int(a) * int(b) for a, b in zip(lf, x))
        return pa.table({"m": pa.array([total], pa.int64())})

    terms = census.map_batches(term_partial, batch_format="pyarrow")
    total = int(terms.to_pandas()["m"].sum())
    theil = (float(total) / 1e6) / float(s_tot)
    return pa.table({
        "n_users": pa.array([n_users], pa.int64()),
        "theil": pa.array([round(theil, 6)], pa.float64()),
    })


def q_gumbel_daily_max(sf_dir: str):
    """Extreme-value analysis: method-of-moments Gumbel fit to the
    per-type DAILY MAXIMA of the hourly count series (complete days
    only).  The maxima census is exact ints (S1, S2 over D days);
    beta = sample_std * sqrt(6)/pi and mu = mean - gamma*beta use the
    micro-floored LITERALS 0.779696 (sqrt(6)/pi) and 0.577216
    (Euler-Mascheroni) shared with the oracle, so both parameters are
    single mirrored float expressions over exact integers."""
    series, big_h = dense_hour_counts(sf_dir)
    n_days = big_h // 24
    out = {"event_type": [], "n_days": [], "max_sum": [],
           "gumbel_beta": [], "gumbel_mu": []}
    for et, c in series.items():
        m = c[: n_days * 24].reshape(n_days, 24).max(axis=1)
        s1 = int(m.sum())
        s2 = int((m.astype(np.int64) ** 2).sum())
        beta = math.sqrt(
            float(n_days * s2 - s1 * s1) / float(n_days * (n_days - 1))
        ) * 0.779696
        mu = float(s1) / float(n_days) - 0.577216 * beta
        out["event_type"].append(et)
        out["n_days"].append(n_days)
        out["max_sum"].append(s1)
        out["gumbel_beta"].append(round(beta, 6))
        out["gumbel_mu"].append(round(mu, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n_days": pa.array(out["n_days"], pa.int64()),
        "max_sum": pa.array(out["max_sum"], pa.int64()),
        "gumbel_beta": pa.array(out["gumbel_beta"], pa.float64()),
        "gumbel_mu": pa.array(out["gumbel_mu"], pa.float64()),
    })


# Micro-floored ln(m) literals for the aggregation sizes 1,2,4,8,16 —
# shared verbatim with the SQL oracle.
_LN_M = {1: 0, 2: 693147, 4: 1386294, 8: 2079441, 16: 2772588}


def q_hurst_aggvar(sf_dir: str):
    """Hurst exponent via the aggregated-variance method on the dense
    hourly count series: for block sizes m in {1,2,4,8,16} the variance
    of the block MEANS is the exact-int rational
    (M*sum(w^2) - (sum w)^2) / (M*(M-1)*m^2) (w = block SUMS), its ln is
    micro-floored, and the 5-point OLS slope against the ln(m) LITERALS
    is exact-integer to one division; H = 1 + slope/2.  Same window-sum
    substrate as allan_variance — self-similarity vs short-memory in
    one number."""
    series, big_h = dense_hour_counts(sf_dir)
    sizes = (1, 2, 4, 8, 16)
    out = {"event_type": [], "hurst": [], "slope": []}
    for et, c in series.items():
        pts = []
        for m in sizes:
            big_m = big_h // m
            w = c[: big_m * m].reshape(big_m, m).sum(axis=1).astype(np.int64)
            sw = int(w.sum())
            sww = int((w * w).sum())
            num = big_m * sww - sw * sw
            den = big_m * (big_m - 1) * m * m
            y = math.floor(math.log(float(num) / float(den)) * 1e6)
            pts.append((_LN_M[m], y))
        n = len(pts)
        sx = sum(x for x, _ in pts)
        sy = sum(y for _, y in pts)
        sxx = sum(x * x for x, _ in pts)
        sxy = sum(x * y for x, y in pts)
        slope = float(n * sxy - sx * sy) / float(n * sxx - sx * sx)
        out["event_type"].append(et)
        out["slope"].append(round(slope, 6))
        out["hurst"].append(round(1.0 + slope / 2.0, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "slope": pa.array(out["slope"], pa.float64()),
        "hurst": pa.array(out["hurst"], pa.float64()),
    })


def q_odds_ratio(sf_dir: str):
    """Weekend exposure odds ratio for purchases: the 2x2 census
    (purchase vs other) x (weekend vs weekday, dow from pure epoch-day
    arithmetic (eday+3)%7 so both engines share the calendar) is four
    exact integers from one combiner; OR = (a*d)/(b*c) is one mirrored
    division, ln(OR) is micro-floored (single-libm protocol), and the
    Wald 95% CI uses the 1.959964 literal with a fixed-order
    1/a+1/b+1/c+1/d sum."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        dow = ((tms // 86_400_000) + 3) % 7
        wknd = (dow >= 5).astype(np.int64)
        purch = (np.asarray(batch["event_type"].to_numpy(
            zero_copy_only=False)) == "purchase").astype(np.int64)
        return pa.table({
            "purch": pa.array(purch),
            "wknd": pa.array(wknd),
            "n": pa.array(np.ones(len(tms), np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["purch", "wknd"], [("n", "sum")],
    ).to_pandas()
    cell = {(int(r["purch"]), int(r["wknd"])): int(r["n"])
            for _, r in census.iterrows()}
    a = cell.get((1, 1), 0)   # purchase, weekend
    b = cell.get((1, 0), 0)   # purchase, weekday
    c = cell.get((0, 1), 0)   # other, weekend
    d = cell.get((0, 0), 0)   # other, weekday
    if min(a, b, c, d) == 0:
        # degenerate guard: an empty 2x2 cell makes OR / ln(OR) / the
        # Wald SE undefined -> emit 0.0 for all four stats (mirrored)
        orr = lor = 0.0
        ci_lo = ci_hi = 0.0
    else:
        orr = float(a * d) / float(b * c)
        lor = math.floor(math.log(float(a * d) / float(b * c)) * 1e6) / 1e6
        se = math.sqrt(1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d)
        ci_lo = round(lor - 1.959964 * se, 6)
        ci_hi = round(lor + 1.959964 * se, 6)
    return pa.table({
        "n_pw": pa.array([a], pa.int64()),
        "n_pd": pa.array([b], pa.int64()),
        "n_ow": pa.array([c], pa.int64()),
        "n_od": pa.array([d], pa.int64()),
        "odds_ratio": pa.array([round(orr, 6)], pa.float64()),
        "log_or": pa.array([lor], pa.float64()),
        "ci_lo": pa.array([ci_lo], pa.float64()),
        "ci_hi": pa.array([ci_hi], pa.float64()),
    })


def q_bhattacharyya(sf_dir: str):
    """Bhattacharyya coefficient and Hellinger distance between every
    type pair's event-value distribution, over the cent-value census
    (bounded by the VALUE DOMAIN x types, the ks_statistic shape).
    Each cell's sqrt(p*q) term has an exact-int ratio argument
    (a_v*b_v)/(A*B) and is PICO-floored (1e12 — the harmonic-mean
    protocol: many terms far below 1), so BC is an associative integer
    sum; hellinger = sqrt(1 - BC) is the one extra mirrored op."""
    census = cent_census(sf_dir)
    prof = {str(et): dict(zip(grp["cv"].astype(int), grp["n"].astype(int)))
            for et, grp in census.groupby("event_type", sort=True)}
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "bc": [], "hellinger": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            a, b = prof[ta], prof[tb]
            aa, bb = sum(a.values()), sum(b.values())
            total = 0
            for v, av in a.items():
                bv = b.get(v)
                if bv:
                    total += math.floor(math.sqrt(
                        float(av * bv) / float(aa * bb)) * 1e12)
            bc = float(total) / 1e12
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["bc"].append(round(bc, 6))
            out["hellinger"].append(round(math.sqrt(1.0 - bc), 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "bc": pa.array(out["bc"], pa.float64()),
        "hellinger": pa.array(out["hellinger"], pa.float64()),
    })


def q_kendall_w(sf_dir: str):
    """Kendall's W coefficient of concordance: do the event types agree
    on the ranking of the 24 hours-of-day?  Judges = types, items = the
    24 hod cells, ratings = hod counts; midranks are kept in DOUBLED
    units (the mannwhitney_u protocol) so the tie-corrected
    W = 3*(n*sum(R2^2) - (sum R2)^2) / (n*(k^2*(n^3-n) - k*sum T_t))
    is exact integers to ONE mirrored division.  One (type, hod)
    census exchange; everything after is over a k x 24 grid."""
    census = hod_census(sf_dir)
    prof: dict[str, np.ndarray] = {}
    for et, grp in census.groupby("event_type", sort=True):
        v = np.zeros(24, np.int64)
        v[grp["hod"].to_numpy()] = grp["o"].to_numpy()
        prof[str(et)] = v
    k = len(prof)
    n = 24
    r2_total = np.zeros(n, dtype=object)
    tie_sum = 0
    for v in prof.values():
        vals, counts = np.unique(v, return_counts=True)
        below = np.concatenate([[0], np.cumsum(counts)[:-1]])
        r2_of = {int(val): int(2 * b + c + 1)
                 for val, b, c in zip(vals, below, counts)}
        r2_total += np.array([r2_of[int(x)] for x in v], dtype=object)
        tie_sum += sum(int(c) ** 3 - int(c) for c in counts)
    sr = sum(int(x) for x in r2_total)
    srr = sum(int(x) * int(x) for x in r2_total)
    num = 3 * (n * srr - sr * sr)
    den = n * (k * k * (n ** 3 - n) - k * tie_sum)
    w = float(num) / float(den)
    return pa.table({
        "k_judges": pa.array([k], pa.int64()),
        "n_items": pa.array([n], pa.int64()),
        "kendall_w": pa.array([round(w, 6)], pa.float64()),
    })


def q_transfer_entropy(sf_dir: str):
    """Pairwise transfer entropy TE(Y -> X) in nats over the
    mean-binarized dense hourly series (bit_t = 1 iff c_t*H > S1 — an
    exact integer cross-multiplication, no float threshold): the
    (x_{t+1}, x_t, y_t) triple census is 8 exact-int cells per ordered
    type pair, every log argument n(x+,x,y)*n(x) / (n(x,y)*n(x+,x)) is
    an exact-int ratio, micro-floored and weighted by the exact triple
    count — the directional-coupling complement of the symmetric
    cross_corr / jsd_types entries."""
    series, big_h = dense_hour_counts(sf_dir)
    bits = {}
    for et, c in series.items():
        s1 = int(c.sum())
        bits[et] = ((c * big_h) > s1).astype(np.int64)
    types = sorted(bits)
    out = {"src_type": [], "dst_type": [], "n_trans": [], "te_nats": []}
    for src in types:
        for dst in types:
            if src == dst:
                continue
            x, y = bits[dst], bits[src]
            x1, x0, y0 = x[1:], x[:-1], y[:-1]
            n_tr = big_h - 1
            idx = 4 * x1 + 2 * x0 + y0
            n_xyz = np.bincount(idx, minlength=8)
            n_xy = np.bincount(2 * x0 + y0, minlength=4)      # (x0, y0)
            n_xx = np.bincount(2 * x1 + x0, minlength=4)      # (x1, x0)
            n_x = np.bincount(x0, minlength=2)
            total = 0
            for cell in range(8):
                c_xyz = int(n_xyz[cell])
                if c_xyz == 0:
                    continue
                cx1, cx0, cy0 = cell >> 2, (cell >> 1) & 1, cell & 1
                num = c_xyz * int(n_x[cx0])
                den = int(n_xy[2 * cx0 + cy0]) * int(n_xx[2 * cx1 + cx0])
                total += c_xyz * math.floor(
                    math.log(float(num) / float(den)) * 1e6)
            te = (float(total) / 1e6) / float(n_tr)
            out["src_type"].append(src)
            out["dst_type"].append(dst)
            out["n_trans"].append(n_tr)
            out["te_nats"].append(round(te, 6))
    return pa.table({
        "src_type": pa.array(out["src_type"], pa.string()),
        "dst_type": pa.array(out["dst_type"], pa.string()),
        "n_trans": pa.array(out["n_trans"], pa.int64()),
        "te_nats": pa.array(out["te_nats"], pa.float64()),
    })


def q_hill_tail(sf_dir: str):
    """Hill estimator of the heavy-tail exponent of per-user total
    event value: alpha = k / sum_{i<=k} ln(x_(i) / x_(k+1)) over the
    top-(k+1) order statistics (k = 50, fewer when the user population
    is smaller).  Only the top-51 census rows reach the driver (the
    user census itself stays distributed — same exchange as
    theil_index); tie sets at the cut contribute identical ln ratios,
    so boundary tie resolution cannot change the multiset.  Each ln is
    micro-floored over an exact-int ratio; alpha is one division."""
    top = user_cent_sums(sf_dir).sort("x", descending=True).limit(51).to_pandas()
    xs = top["x"].to_numpy(np.int64)
    k = len(xs) - 1
    xmin = int(xs.min())
    total = sum(math.floor(math.log(float(int(x)) / float(xmin)) * 1e6)
                for x in xs)
    alpha = float(k) * 1e6 / float(total)
    return pa.table({
        "n_tail": pa.array([k], pa.int64()),
        "x_min": pa.array([xmin], pa.int64()),
        "hill_alpha": pa.array([round(alpha, 6)], pa.float64()),
    })


def q_cronbach_alpha(sf_dir: str):
    """Cronbach's alpha treating event types as scale items and
    complete days as respondents (daily count vectors from the dense
    hourly grid): with common denominator D(D-1) the item and total
    variances reduce to the exact integers D*Q_i - S_i^2 and
    D*sum(T_d^2) - (sum T_d)^2, so
    alpha = (k/(k-1)) * (1 - num_items/num_total) is exact integers to
    one mirrored float chain."""
    series, big_h = dense_hour_counts(sf_dir)
    n_days = big_h // 24
    k = len(series)
    daily = {et: c[: n_days * 24].reshape(n_days, 24).sum(axis=1)
             for et, c in series.items()}
    num_items = 0
    for x in daily.values():
        s = int(x.sum())
        q = int((x.astype(np.int64) ** 2).sum())
        num_items += n_days * q - s * s
    tot = np.sum(list(daily.values()), axis=0).astype(np.int64)
    st = int(tot.sum())
    qt = int((tot ** 2).sum())
    num_total = n_days * qt - st * st
    alpha = (float(k) / float(k - 1)) * (
        1.0 - float(num_items) / float(num_total))
    return pa.table({
        "k_items": pa.array([k], pa.int64()),
        "n_days": pa.array([n_days], pa.int64()),
        "cronbach_alpha": pa.array([round(alpha, 6)], pa.float64()),
    })


def q_sign_test(sf_dir: str):
    """Paired sign test for every type pair over the dense hourly grid:
    a = hours where A's count exceeds B's, b = the reverse (ties
    dropped — the exact paired-comparison convention), and
    z = (2a - n)/sqrt(n) is the one mirrored float expression.  Counts
    are exact integers from the same single census exchange."""
    series, _big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    out = {"type_a": [], "type_b": [], "n_gt": [], "n_lt": [], "z": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            ca, cb = series[ta], series[tb]
            a = int(np.count_nonzero(ca > cb))
            b = int(np.count_nonzero(ca < cb))
            n = a + b
            # degenerate guard: identical series (n=0) -> z = 0.0
            z = (0.0 if n == 0
                 else (2.0 * float(a) - float(n)) / math.sqrt(float(n)))
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["n_gt"].append(a)
            out["n_lt"].append(b)
            out["z"].append(round(z, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "n_gt": pa.array(out["n_gt"], pa.int64()),
        "n_lt": pa.array(out["n_lt"], pa.int64()),
        "z": pa.array(out["z"], pa.float64()),
    })


def q_wilcoxon_signed(sf_dir: str):
    """Paired Wilcoxon signed-rank test for every type pair over the
    dense hourly grid: d_h = a_h - b_h, zeros dropped, |d| midranks in
    DOUBLED units (W2 = sum of doubled midranks over positive d, so
    E[W2] = n(n+1)/2 exactly) and the tie-corrected variance numerator
    2n(n+1)(2n+1) - sum(t^3 - t) stays an exact integer; z is one
    mirrored float chain.  The rank-based complement of sign_test on
    the same single census exchange."""
    series, _big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    out = {"type_a": [], "type_b": [], "n_nonzero": [], "w2": [], "z": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            d = series[ta] - series[tb]
            d = d[d != 0]
            ad = np.abs(d)
            vals, counts = np.unique(ad, return_counts=True)
            below = np.concatenate([[0], np.cumsum(counts)[:-1]])
            r2_of = {int(v): int(2 * b + c + 1)
                     for v, b, c in zip(vals, below, counts)}
            w2 = sum(r2_of[int(a)] for a, dd in zip(ad, d) if dd > 0)
            tie_sum = sum(int(c) ** 3 - int(c) for c in counts)
            n = int(d.size)
            z = ((float(w2) - float(n * (n + 1)) / 2.0)
                 / math.sqrt(float(2 * n * (n + 1) * (2 * n + 1)
                                   - tie_sum) / 12.0))
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["n_nonzero"].append(n)
            out["w2"].append(w2)
            out["z"].append(round(z, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "n_nonzero": pa.array(out["n_nonzero"], pa.int64()),
        "w2": pa.array(out["w2"], pa.int64()),
        "z": pa.array(out["z"], pa.float64()),
    })


def q_spectral_flatness(sf_dir: str):
    """Log spectral flatness (Wiener entropy) of each type's hod
    profile over harmonics k = 1..11: the k-th harmonic reuses the SAME
    24 micro-floored trig literals via the index (k*d) mod 24 (no new
    constants, no cross-engine trig), P_k = A_k^2 + B_k^2 is an exact
    integer, each ln P_k is micro-floored so the geometric-mean term is
    an associative integer sum, and ln(arith mean) is one more
    micro-floored libm call.  ln_flatness <= 0; 0 = white across
    harmonics, strongly negative = energy concentrated in few cycles."""
    census = hod_census(sf_dir)
    out = {"event_type": [], "ln_flatness": []}
    for et, grp in census.groupby("event_type", sort=True):
        dd = grp["hod"].to_numpy()
        tt = grp["o"].to_numpy()
        slnp = 0
        sump = 0
        for k in range(1, 12):
            a = sum(int(t) * _FC24[(k * int(d)) % 24]
                    for d, t in zip(dd, tt))
            b = sum(int(t) * _FS24[(k * int(d)) % 24]
                    for d, t in zip(dd, tt))
            pk = a * a + b * b
            slnp += math.floor(math.log(float(pk)) * 1e6)
            sump += pk
        lf = (float(slnp) / (11 * 1e6)
              - math.floor(math.log(float(sump) / 11.0) * 1e6) / 1e6)
        out["event_type"].append(str(et))
        out["ln_flatness"].append(round(lf, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "ln_flatness": pa.array(out["ln_flatness"], pa.float64()),
    })


def q_dau_jaccard(sf_dir: str):
    """EXACT day-over-day active-user Jaccard (the precise counterpart
    of the sketch-based audience_overlap): the (user, day) distinct
    census is built behind a user-hash shard so each user's day set is
    local to one group, which emits per-day active partials AND
    per-day-pair overlap partials (day, day+1 both active) — the
    exchange moves distinct (user, day) rows once and day-bounded
    partials after; the driver sees only the day census.  Jaccard is
    one mirrored division of exact ints."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        t = pa.table({
            "user_id": batch["user_id"],
            "day": pa.array(tms // 86_400_000, pa.int64()),
        })
        return t.group_by(["user_id", "day"]).aggregate([])

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([("user_id", "ascending"), ("day", "ascending")])
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        day = t["day"].to_numpy(zero_copy_only=False)
        # global dedup within the shard (user is fully local here)
        keep = np.ones(len(uid), bool)
        keep[1:] = (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])
        uid, day = uid[keep], day[keep]
        nxt = (uid[:-1] == uid[1:]) & (day[:-1] + 1 == day[1:])
        acts = pa.table({
            "day": pa.array(day),
            "act": pa.array(np.ones(len(day), np.int64)),
            "both": pa.array(np.zeros(len(day), np.int64)),
        })
        pairs = pa.table({
            "day": pa.array(day[:-1][nxt]),
            "act": pa.array(np.zeros(int(nxt.sum()), np.int64)),
            "both": pa.array(np.ones(int(nxt.sum()), np.int64)),
        })
        return pa.concat_tables([acts, pairs])

    census = sharded_grouped_agg(
        shard_apply(ds, ["user_id"], per_shard, prepare=partial,
                    coalesce=False),
        ["day"], [("act", "sum"), ("both", "sum")],
    ).to_pandas().sort_values("day")
    days = census["day"].to_numpy(np.int64)
    act = census["act"].to_numpy(np.int64)
    both = census["both"].to_numpy(np.int64)
    out = {"day": [], "n_day": [], "n_next": [], "n_both": [], "jaccard": []}
    for i in range(len(days) - 1):
        if days[i + 1] != days[i] + 1:
            continue
        a, b, j = int(act[i]), int(act[i + 1]), int(both[i])
        out["day"].append(int(days[i]))
        out["n_day"].append(a)
        out["n_next"].append(b)
        out["n_both"].append(j)
        out["jaccard"].append(round(float(j) / float(a + b - j), 6))
    return pa.table({
        "day": pa.array(out["day"], pa.int64()),
        "n_day": pa.array(out["n_day"], pa.int64()),
        "n_next": pa.array(out["n_next"], pa.int64()),
        "n_both": pa.array(out["n_both"], pa.int64()),
        "jaccard": pa.array(out["jaccard"], pa.float64()),
    })


def q_cohen_kappa(sf_dir: str):
    """Cohen's kappa agreement between every type pair's mean-binarized
    hourly activity indicator (bit_t = 1 iff c_t*H > S1, the
    transfer_entropy threshold): with the 2x2 agreement census
    kappa = (H*agree - a1*b1 - a0*b0) / (H*H - a1*b1 - a0*b0) — the
    common-denominator cross-multiplication makes it exact integers to
    ONE mirrored division."""
    series, big_h = dense_hour_counts(sf_dir)
    bits = {}
    for et, c in series.items():
        s1 = int(c.sum())
        bits[et] = ((c * big_h) > s1).astype(np.int64)
    types = sorted(bits)
    out = {"type_a": [], "type_b": [], "n_agree": [], "kappa": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            x, y = bits[ta], bits[tb]
            agree = int(np.count_nonzero(x == y))
            a1, a0 = int(x.sum()), big_h - int(x.sum())
            b1, b0 = int(y.sum()), big_h - int(y.sum())
            num = big_h * agree - a1 * b1 - a0 * b0
            den = big_h * big_h - a1 * b1 - a0 * b0
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["n_agree"].append(agree)
            out["kappa"].append(round(float(num) / float(den), 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "n_agree": pa.array(out["n_agree"], pa.int64()),
        "kappa": pa.array(out["kappa"], pa.float64()),
    })


def q_friedman_test(sf_dir: str):
    """Tie-corrected Friedman test: do the event types keep the same
    activity ordering hour after hour?  Blocks = the H dense-grid
    hours, treatments = the k types, counts midranked WITHIN each hour
    in DOUBLED units (per-block doubled rank sum is exactly k(k+1)).
    The Conover tie-corrected statistic reduces over the common
    denominator to chi2 = (k-1)*(sum R2_j^2 - H^2 k (k+1)^2)
    / (sum r2^2 - H k (k+1)^2) — exact integers to ONE mirrored
    division.  (In doubled units both numerator and denominator carry
    the same 4x scale, so the halved-rank Conover T1 is recovered
    exactly; round-2's extra leading H factor in the denominator is
    fixed.)"""
    series, big_h = dense_hour_counts(sf_dir)
    types = sorted(series)
    k = len(types)
    mat = np.stack([series[t] for t in types])      # k x H
    order = np.argsort(mat, axis=0, kind="stable")
    r2 = np.empty((k, big_h), np.int64)
    srt = np.take_along_axis(mat, order, axis=0)
    below = np.zeros((k, big_h), np.int64)
    peers = np.zeros((k, big_h), np.int64)
    for j in range(k):
        eq = srt == srt[j][None, :]
        lt = srt < srt[j][None, :]
        below[j] = lt.sum(axis=0)
        peers[j] = eq.sum(axis=0)
    r2_sorted = 2 * below + peers + 1
    np.put_along_axis(r2, order, r2_sorted, axis=0)
    big_r2 = r2.sum(axis=1)                          # per-type doubled sums
    sum_r2j_sq = sum(int(x) * int(x) for x in big_r2)
    a2 = int((r2.astype(np.int64) ** 2).sum())
    num = (k - 1) * (sum_r2j_sq - big_h * big_h * k * (k + 1) * (k + 1))
    den = a2 - big_h * k * (k + 1) * (k + 1)
    chi2 = float(num) / float(den)
    return pa.table({
        "k_types": pa.array([k], pa.int64()),
        "n_blocks": pa.array([big_h], pa.int64()),
        "chi2": pa.array([round(chi2, 6)], pa.float64()),
    })


def q_renyi2_entropy(sf_dir: str):
    """Renyi collision entropy H2 = -ln(sum p_v^2) of each type's
    cent-value distribution (the diversity complement of the
    bhattacharyya census): the collision probability is the exact-int
    ratio sum(a_v^2)/A^2, its single ln is micro-floored — effective
    support size exp(H2) is the headline diversity number."""
    census = cent_census(sf_dir)
    out = {"event_type": [], "n": [], "renyi2": []}
    for et, grp in census.groupby("event_type", sort=True):
        a = grp["n"].to_numpy(np.int64)
        tot = int(a.sum())
        coll = sum(int(x) * int(x) for x in a)
        h2 = -math.floor(
            math.log(float(coll) / float(tot * tot)) * 1e6) / 1e6
        out["event_type"].append(str(et))
        out["n"].append(tot)
        out["renyi2"].append(round(h2, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n": pa.array(out["n"], pa.int64()),
        "renyi2": pa.array(out["renyi2"], pa.float64()),
    })


def q_seasonal_strength(sf_dir: str):
    """Diurnal seasonality strength R^2 = 1 - SS_resid/SS_total of the
    hod-mean model per type, kept as ONE exact rational: with D = the
    per-hod column count (grid days) the residual sum scaled by D^2 is
    sum (D*c_t - S_{hod(t)})^2 and the total sum scaled by H^2 is
    H*sum(c^2) - S1^2, so
    R^2 = 1 - (H * ssr) / (D^2 * sst_num) is one mirrored division of
    exact integers.  Requires the grid to be whole days (H % 24 == 0 —
    true for the corpus grid); same single census."""
    series, big_h = dense_hour_counts(sf_dir)
    n_days = big_h // 24
    use_h = n_days * 24
    out = {"event_type": [], "r2_seasonal": []}
    for et, c in series.items():
        c = c[:use_h]
        grid = c.reshape(n_days, 24)
        s_hod = grid.sum(axis=0).astype(np.int64)          # per-hod sums
        resid = n_days * grid - s_hod[None, :]
        ssr = int((resid.astype(np.int64) ** 2).sum())
        s1 = int(c.sum())
        sst_num = use_h * int(np.dot(c, c)) - s1 * s1      # = H * SS_total
        r2 = 1.0 - (float(use_h * ssr)
                    / float(n_days * n_days * sst_num))
        out["event_type"].append(et)
        out["r2_seasonal"].append(round(r2, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "r2_seasonal": pa.array(out["r2_seasonal"], pa.float64()),
    })


def _cov_num(c: np.ndarray, s1: int, big_h: int, k: int) -> int:
    """Lag-k autocovariance numerator of the hourly series ``c`` scaled by
    H^2 (exact ints; ``s1 = c.sum()``, ``big_h = H``): every lag shares
    one denominator, so ratios of lags compare exact integers."""
    pk = int(np.dot(c[:-k], c[k:]))
    ak = int(c[:-k].sum())
    bk = int(c[k:].sum())
    return (big_h * big_h * pk - big_h * s1 * (ak + bk)
            + (big_h - k) * s1 * s1)


def q_acf_halflife(sf_dir: str):
    """Autocorrelation half-life per type: the smallest lag k <= 48
    with r_k < r_1 / 2.  Because every r_k shares the same denominator,
    the search is the EXACT integer comparison 2*cov_k_num < cov_1_num
    (the ljung_box cross-multiplied autocovariances) — no float enters
    the selection; only the reported r values are mirrored divisions.
    -1 when no lag within 48 halves."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "halflife": [], "r1": [], "r_half": []}
    for et, c in series.items():
        s1 = int(c.sum())
        p0 = int(np.dot(c, c))
        den = big_h * (big_h * p0 - s1 * s1)

        cov1 = _cov_num(c, s1, big_h, 1)
        hl = -1
        covh = None
        for k in range(2, 49):
            ck = _cov_num(c, s1, big_h, k)
            if 2 * ck < cov1:
                hl = k
                covh = ck
                break
        out["event_type"].append(et)
        out["halflife"].append(hl)
        out["r1"].append(round(float(cov1) / float(den), 6))
        out["r_half"].append(
            round(float(covh) / float(den), 6) if covh is not None
            else 0.0)
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "halflife": pa.array(out["halflife"], pa.int64()),
        "r1": pa.array(out["r1"], pa.float64()),
        "r_half": pa.array(out["r_half"], pa.float64()),
    })


def q_kmer_richness(sf_dir: str):
    """Symbolic-sequence complexity: the number of DISTINCT 8-hour
    binary activity words (bit_t = mean-binarized as in cohen_kappa,
    word id = sum bit_{t+j} * 2^j) per type, over the H-7 sliding
    windows — the dictionary-richness complement of
    permutation_entropy's ordinal view.  Exact integers; richness is
    one mirrored division by min(256, H-7)."""
    series, big_h = dense_hour_counts(sf_dir)
    n_win = big_h - 7
    out = {"event_type": [], "n_windows": [], "n_distinct": [],
           "richness": []}
    for et, c in series.items():
        s1 = int(c.sum())
        bit = ((c * big_h) > s1).astype(np.int64)
        wid = np.zeros(n_win, np.int64)
        for j in range(8):
            wid += bit[j: j + n_win] << j
        nd = int(np.unique(wid).size)
        cap = min(256, n_win)
        out["event_type"].append(et)
        out["n_windows"].append(n_win)
        out["n_distinct"].append(nd)
        out["richness"].append(round(float(nd) / float(cap), 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n_windows": pa.array(out["n_windows"], pa.int64()),
        "n_distinct": pa.array(out["n_distinct"], pa.int64()),
        "richness": pa.array(out["richness"], pa.float64()),
    })


def q_pacf2(sf_dir: str):
    """Partial autocorrelation at lag 2 of the hourly count series via
    the Durbin-Levinson closed form phi22 = (r2 - r1^2)/(1 - r1^2):
    because r1 and r2 share one denominator (the ljung_box
    cross-multiplied autocovariances), phi22 reduces to the EXACT
    integer ratio (c2*c0 - c1^2)/(c0^2 - c1^2) — Python bignums, one
    mirrored division; phi11 = r1 for reference."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "phi11": [], "phi22": []}
    for et, c in series.items():
        s1 = int(c.sum())
        p0 = int(np.dot(c, c))
        c0 = big_h * (big_h * p0 - s1 * s1)

        c1 = _cov_num(c, s1, big_h, 1)
        c2 = _cov_num(c, s1, big_h, 2)
        phi11 = float(c1) / float(c0)
        phi22 = float(c2 * c0 - c1 * c1) / float(c0 * c0 - c1 * c1)
        out["event_type"].append(et)
        out["phi11"].append(round(phi11, 6))
        out["phi22"].append(round(phi22, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "phi11": pa.array(out["phi11"], pa.float64()),
        "phi22": pa.array(out["phi22"], pa.float64()),
    })


def q_stochastic_dominance(sf_dir: str):
    """First-order stochastic dominance scan for every type pair over
    the cent-value census: at each union-support point the CDF
    comparison cumA*B vs cumB*A is an exact integer cross-
    multiplication (shared denominator trick), so the dominance verdict
    (1 = A FSD-dominates, -1 = B dominates, 0 = crossing) and the
    fraction of support where A's CDF sits at-or-below B's are exact;
    only the final fraction is a mirrored division."""
    census = cent_census(sf_dir)
    prof = {str(et): dict(zip(grp["cv"].astype(int), grp["n"].astype(int)))
            for et, grp in census.groupby("event_type", sort=True)}
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "n_support": [],
           "frac_a_below": [], "fsd": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            a, b = prof[ta], prof[tb]
            aa = sum(a.values())
            bb = sum(b.values())
            support = sorted(set(a) | set(b))
            ca = cb = 0
            n_le = n_ge = 0
            for v in support:
                ca += a.get(v, 0)
                cb += b.get(v, 0)
                if ca * bb <= cb * aa:
                    n_le += 1
                if ca * bb >= cb * aa:
                    n_ge += 1
            ns = len(support)
            fsd = 1 if n_le == ns else (-1 if n_ge == ns else 0)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["n_support"].append(ns)
            out["frac_a_below"].append(round(float(n_le) / float(ns), 6))
            out["fsd"].append(fsd)
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "n_support": pa.array(out["n_support"], pa.int64()),
        "frac_a_below": pa.array(out["frac_a_below"], pa.float64()),
        "fsd": pa.array(out["fsd"], pa.int64()),
    })


def q_moods_median(sf_dir: str):
    """Mood's median test across event types: the global LOWER median
    cent value comes exactly from the value census (smallest cv with
    2*cum >= N), the 2 x k above/at-or-below contingency is exact
    integers, and each chi2 cell (o*N - r*c)^2 / (N*r*c) is an exact
    ratio micro-floored before the cross-cell sum (the
    chi2_independence protocol)."""
    census = cent_census(sf_dir)
    agg = census.groupby("cv", sort=True)["n"].sum()
    n_tot = int(agg.sum())
    cum = agg.cumsum()
    # lower median: smallest cv with 2*cum >= N
    median_cv = int(cum.index[int(np.argmax(2 * cum.to_numpy() >= n_tot))])
    types = sorted(census["event_type"].unique())
    k = len(types)
    above = {}
    below = {}
    for et, grp in census.groupby("event_type", sort=True):
        cvv = grp["cv"].to_numpy(np.int64)
        nn = grp["n"].to_numpy(np.int64)
        above[str(et)] = int(nn[cvv > median_cv].sum())
        below[str(et)] = int(nn[cvv <= median_cv].sum())
    r_above = sum(above.values())
    r_below = sum(below.values())
    total = 0
    for et in types:
        col = above[et] + below[et]
        for o, r in ((above[et], r_above), (below[et], r_below)):
            num = (o * n_tot - r * col) ** 2
            den = n_tot * r * col
            total += math.floor(float(num) / float(den) * 1e6)
    chi2 = float(total) / 1e6
    return pa.table({
        "median_cv": pa.array([median_cv], pa.int64()),
        "k_types": pa.array([k], pa.int64()),
        "n": pa.array([n_tot], pa.int64()),
        "chi2": pa.array([round(chi2, 6)], pa.float64()),
    })


def q_kruskal_wallis(sf_dir: str):
    """Kruskal-Wallis H across event types on cent values: global
    DOUBLED midranks from the value-domain census (the mannwhitney_u
    protocol), per-group rank sums R2_j exact; each R2_j^2/n_j term is
    micro-floored (identical correctly-rounded double on both engines
    even past 2^53 — the graded-floor rule) so the group sum is an
    associative integer; the tie correction multiplies by the exact
    integer ratio (N^3-N)/((N^3-N) - sum(t^3-t))."""
    census = cent_census(sf_dir)
    marg = census.groupby("cv", sort=True)["n"].sum()
    vals = marg.index.to_numpy(np.int64)
    cnts = marg.to_numpy(np.int64)
    below = np.concatenate([[0], np.cumsum(cnts)[:-1]])
    r2_of = dict(zip(vals.tolist(), (2 * below + cnts + 1).tolist()))
    n_tot = int(cnts.sum())
    tie_sum = sum(int(t) ** 3 - int(t) for t in cnts)
    total = 0
    k = 0
    for et, grp in census.groupby("event_type", sort=True):
        k += 1
        nj = int(grp["n"].sum())
        r2j = sum(int(nn) * r2_of[int(cv)]
                  for cv, nn in zip(grp["cv"], grp["n"]))
        total += math.floor(float(r2j * r2j) / float(nj) * 1e6)
    h_raw = (3.0 * (float(total) / 1e6)
             / float(n_tot * (n_tot + 1)) - 3.0 * float(n_tot + 1))
    nnn = n_tot ** 3 - n_tot
    h = h_raw * float(nnn) / float(nnn - tie_sum)
    return pa.table({
        "k_groups": pa.array([k], pa.int64()),
        "n": pa.array([n_tot], pa.int64()),
        "h_stat": pa.array([round(h, 6)], pa.float64()),
    })


def q_brown_forsythe(sf_dir: str):
    """Brown-Forsythe variance-homogeneity test across event types:
    Z_ij = |cv - lower_median_j| are EXACT integers (per-group lower
    medians come from the value census), so every moment in
    W = ((N-k)/(k-1)) * sum n_j (Zbar_j - Zbar)^2 / sum (Z - Zbar_j)^2
    is exact; with common denominators the statistic reduces to
    W = ((N-k)/(k-1)) * (N * sum_j Sz_j^2/n_j - Sz^2) / (N * (Szz -
    sum_j Sz_j^2/n_j)) where the only non-integer pieces Sz_j^2/n_j
    are micro-floored identically on both engines."""
    census = cent_census(sf_dir)
    k = 0
    n_tot = 0
    sz = 0
    szz = 0
    fsum = 0          # sum of micro-floored Sz_j^2 / n_j
    for et, grp in census.groupby("event_type", sort=True):
        k += 1
        g = grp.sort_values("cv")
        cvv = g["cv"].to_numpy(np.int64)
        nn = g["n"].to_numpy(np.int64)
        nj = int(nn.sum())
        cum = np.cumsum(nn)
        med = int(cvv[int(np.argmax(2 * cum >= nj))])   # lower median
        z = np.abs(cvv - med)
        szj = int(np.dot(nn, z))
        szzj = int(np.dot(nn, z * z))
        n_tot += nj
        sz += szj
        szz += szzj
        fsum += math.floor(float(szj * szj) / float(nj) * 1e6)
    between = float(n_tot) * (float(fsum) / 1e6) - float(sz * sz)
    within = float(n_tot) * (float(szz) - float(fsum) / 1e6)
    w = (float(n_tot - k) / float(k - 1)) * between / within
    return pa.table({
        "k_groups": pa.array([k], pa.int64()),
        "n": pa.array([n_tot], pa.int64()),
        "w_stat": pa.array([round(w, 6)], pa.float64()),
    })


def q_grubbs(sf_dir: str):
    """Grubbs outlier statistic per type: the extreme deviation
    G = max|x - mean| / sd located by the EXACT integer argmax of
    (N*x - S)^2 over the value census (no float enters the selection),
    then one mirrored chain G = |N*x* - S| / sqrt(N*(N*Sxx - S^2)
    / (N-1)).  Outputs the offending cent value too."""
    census = cent_census(sf_dir)
    out = {"event_type": [], "outlier_cv": [], "g_stat": []}
    for et, grp in census.groupby("event_type", sort=True):
        cvv = grp["cv"].to_numpy(np.int64)
        nn = grp["n"].to_numpy(np.int64)
        n = int(nn.sum())
        s = int(np.dot(nn, cvv))
        sxx = int(np.dot(nn, cvv * cvv))
        dev = np.abs(n * cvv - s)
        # exact argmax; ties broken by smaller cv (deterministic)
        best = np.lexsort((cvv, -dev))[0]
        x_star = int(cvv[best])
        g = (float(abs(n * x_star - s))
             / math.sqrt(float(n) * float(n * sxx - s * s)
                         / float(n - 1)))
        out["event_type"].append(str(et))
        out["outlier_cv"].append(x_star)
        out["g_stat"].append(round(g, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "outlier_cv": pa.array(out["outlier_cv"], pa.int64()),
        "g_stat": pa.array(out["g_stat"], pa.float64()),
    })


def q_heaps_law(sf_dir: str):
    """Heaps' law exponent beta (vocabulary growth V ~ K * T^beta) from
    five doc-id-ordered prefixes: V_i = #terms whose MIN doc_id falls
    below the i-th threshold (a (term, min_doc) census — one vocab-
    bounded exchange), T_i = token count of the prefix (a 5-cell bucket
    census).  Both are exact integers, the five (ln T, ln V) points are
    micro-floored, and beta is the exact-int OLS division (the
    zipf_slope shape).  Prefix order is doc_id — deterministic, not
    block order."""
    from collections import Counter

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        first: dict[str, int] = {}
        tokens: Counter = Counter()
        max_doc = -1
        n_docs = 0
        for did, t in zip(batch["doc_id"].to_pylist(),
                          batch["text"].to_pylist()):
            n_docs += 1
            max_doc = max(max_doc, int(did))
            ws = [m.lower() for m in WORD_RE.findall(t or "")]
            tokens[int(did)] = len(ws)
            for w in ws:
                if w not in first or first[w] > int(did):
                    first[w] = int(did)
        terms = list(first.keys())
        t1 = pa.table({
            "term": pa.array(terms, pa.string()),
            "min_doc": pa.array([first[t] for t in terms], pa.int64()),
        })
        return t1

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["term"], [("min_doc", "min")],
    )

    # pass A: exact order-statistic cuts — prefix i is the FIRST
    # k_i = n_docs*i//5 docs in doc_id order, so cut_i is the k_i-th
    # smallest doc_id (robust to sparse / offset ids; round-2 assumed
    # contiguous 0..n-1 ids).  A bucket census (doc_id // 2^16) bounds
    # driver rows at max_id/65536 AND yields n_docs as its sum (no
    # separate count pass); only the <=5 boundary buckets ship their
    # raw ids (<= 5*65536 values) for the exact pick.
    def bucket_partial(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "b": pa.array(did // 65536, pa.int64()),
            "n": pa.array(np.ones(len(did), np.int64)),
        })

    bcen = sharded_grouped_agg(
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(bucket_partial, batch_format="pyarrow"),
        ["b"], [("n", "sum")],
    ).to_pandas().sort_values("b")
    n_docs = int(bcen["n"].sum())
    ks = [(n_docs * i) // 5 for i in range(1, 6)]
    bvals = bcen["b"].to_numpy(np.int64)
    bcum = bcen["n"].to_numpy(np.int64).cumsum()
    need: dict[int, list[int]] = {}
    for k in ks:
        if k <= 0:
            continue
        bi = int(np.searchsorted(bcum, k, side="left"))
        need.setdefault(int(bvals[bi]), []).append(k)
    rank_before = {int(bvals[j]): (0 if j == 0 else int(bcum[j - 1]))
                   for j in range(len(bvals))}
    want = tuple(sorted(need))

    def ids_partial(batch: pa.Table, want=want) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        m = np.isin(did // 65536, np.asarray(want, np.int64))
        return pa.table({"doc_id": pa.array(did[m], pa.int64())})

    picked = (_read(sf_dir, "documents", ["doc_id"])
              .map_batches(ids_partial, batch_format="pyarrow")
              .to_pandas()["doc_id"].to_numpy(np.int64))
    cut_of_k: dict[int, int] = {}
    for b, klist in need.items():
        ids = np.sort(picked[picked // 65536 == b])
        for k in klist:
            cut_of_k[k] = int(ids[k - rank_before[b] - 1])
    valid = [(i, cut_of_k[k])
             for i, k in zip(range(1, 6), ks) if k > 0]

    # pass B: the prefix token counts as a <=5-cell combiner — the
    # prefix i is "docs with doc_id <= cut_i" (no per-doc rows ever
    # reach the driver)
    def tok_partial(batch: pa.Table, valid=tuple(valid)) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        toks = np.asarray([len(WORD_RE.findall(t or ""))
                           for t in batch["text"].to_pylist()], np.int64)
        return pa.table({
            "i": pa.array([i for i, _ in valid], pa.int64()),
            "t": pa.array([int(toks[did <= c].sum()) for _, c in valid],
                          pa.int64()),
        })

    tband = sharded_grouped_agg(
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(tok_partial, batch_format="pyarrow"),
        ["i"], [("t", "sum")],
    ).to_pandas().sort_values("i")

    # pass C: the prefix vocab counts as a combiner over CENSUS rows
    def vocab_partial(batch: pa.Table, valid=tuple(valid)) -> pa.Table:
        md = batch["min_doc"].to_numpy(zero_copy_only=False)
        return pa.table({
            "i": pa.array([i for i, _ in valid], pa.int64()),
            "v": pa.array([int(np.count_nonzero(md <= c))
                           for _, c in valid], pa.int64()),
        })

    vband = sharded_grouped_agg(
        census.map_batches(vocab_partial, batch_format="pyarrow"),
        ["i"], [("v", "sum")],
    ).to_pandas().sort_values("i")
    t_of_i = dict(zip(tband["i"].astype(int), tband["t"].astype(int)))
    v_of_i = dict(zip(vband["i"].astype(int), vband["v"].astype(int)))
    # cut_5 = the max doc_id, so the i=5 vocab cell IS the full vocab
    vocab_full = int(v_of_i.get(5, 0))
    pts = []
    for i, _c in valid:
        big_t = t_of_i.get(i, 0)
        big_v = v_of_i.get(i, 0)
        if big_t <= 0 or big_v <= 0:
            # mirrors the oracle's inner joins: an empty/token-free
            # prefix contributes no regression point
            continue
        pts.append((math.floor(math.log(float(big_t)) * 1e6),
                    math.floor(math.log(float(big_v)) * 1e6)))
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    den = n * sxx - sx * sx
    beta = 0.0 if n < 2 or den == 0 else float(n * sxy - sx * sy) / float(den)
    return pa.table({
        "n_points": pa.array([n], pa.int64()),
        "vocab_full": pa.array([vocab_full], pa.int64()),
        "heaps_beta": pa.array([round(beta, 6)], pa.float64()),
    })


def q_term_burstiness(sf_dir: str):
    """Lexical burstiness (Church-Gale VMR) of the top-10 collection-
    frequency terms: with D docs, S1 = collection frequency and
    S2 = sum of squared per-doc counts, the variance-to-mean ratio over
    the FULL doc population (absent docs enter through the closed form,
    never materialized — the fano_factor trick on text)
    is (D*S2 - S1^2)/(D*S1): exact integers to one division each.
    The doc count D comes from its own metadata-only count() (never
    piggybacked on term rows, so batches whose documents contain zero
    [A-Za-z] tokens still contribute to D)."""
    from collections import Counter

    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        s1: Counter = Counter()
        s2: Counter = Counter()
        for t in batch["text"].to_pylist():
            c = Counter(m.lower() for m in WORD_RE.findall(t or ""))
            for w, f in c.items():
                s1[w] += f
                s2[w] += f * f
        terms = sorted(s1)
        return pa.table({
            "term": pa.array(terms, pa.string()),
            "s1": pa.array([s1[t] for t in terms], pa.int64()),
            "s2": pa.array([s2[t] for t in terms], pa.int64()),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["term"], [("s1", "sum"), ("s2", "sum")],
    ).to_pandas()
    n_docs = int(_read(sf_dir, "documents", ["doc_id"]).count())
    top = census.sort_values(["s1", "term"],
                             ascending=[False, True]).head(10)
    out = {"term": [], "cf": [], "vmr": []}
    for _, r in top.iterrows():
        s1, s2 = int(r["s1"]), int(r["s2"])
        out["term"].append(str(r["term"]))
        out["cf"].append(s1)
        out["vmr"].append(round(
            float(n_docs * s2 - s1 * s1) / float(n_docs * s1), 6))
    return pa.table({
        "term": pa.array(out["term"], pa.string()),
        "cf": pa.array(out["cf"], pa.int64()),
        "vmr": pa.array(out["vmr"], pa.float64()),
    })


def _ntile_1based(rank: int, n: int, k: int) -> int:
    """Standard SQL ntile: the first n%k buckets get ceil(n/k) rows."""
    big = n // k + 1
    nbig = n % k
    if rank <= nbig * big:
        return (rank - 1) // big + 1
    return nbig + (rank - nbig * big - 1) // (n // k) + 1


def q_rfm_segments(sf_dir: str):
    """RFM segmentation census: per-user recency (days since the
    corpus-max event day), frequency (event count) and monetary (cent
    total) from one user-keyed exchange; quintile codes use the exact
    SQL ntile remainder rule (_ntile_1based, mirrored by the oracle's
    native ntile(5)) with the deterministic tie order (metric,
    user_id); output is the (r_q, f_q, m_q) segment census — at most
    125 cells regardless of user count."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        cv = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({
            "user_id": batch["user_id"],
            "day": pa.array(tms // 86_400_000, pa.int64()),
            "n": pa.array(np.ones(len(cv), np.int64)),
            "cents": pa.array(cv),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id"], [("day", "max"), ("n", "sum"), ("cents", "sum")],
    ).to_pandas()
    max_day = int(census["day"].max())
    census["recency"] = max_day - census["day"].astype(np.int64)
    n = len(census)
    codes = {}
    for col, name in (("recency", "r_q"), ("n", "f_q"), ("cents", "m_q")):
        order = census.sort_values(
            [col, "user_id"], kind="mergesort").index.to_numpy()
        q = np.empty(n, np.int64)
        for rank0, idx in enumerate(order):
            q[census.index.get_loc(idx)] = _ntile_1based(rank0 + 1, n, 5)
        codes[name] = q
    seg = {}
    for i in range(n):
        key = (int(codes["r_q"][i]), int(codes["f_q"][i]),
               int(codes["m_q"][i]))
        seg[key] = seg.get(key, 0) + 1
    keys = sorted(seg)
    return pa.table({
        "r_q": pa.array([k[0] for k in keys], pa.int64()),
        "f_q": pa.array([k[1] for k in keys], pa.int64()),
        "m_q": pa.array([k[2] for k in keys], pa.int64()),
        "n_users": pa.array([seg[k] for k in keys], pa.int64()),
    })


def q_mcnemar(sf_dir: str):
    """McNemar's paired test for HIGH-VALUE purchase behavior change
    across the purchase-activity midpoint: the exposure is "made an
    above-P90 purchase" (threshold = exact lower p90 cent value from
    the purchase-value census, smallest cv with 10*cum >= 9*N), paired
    as (first half, second half) with mid = (min_day + max_day + 1)//2
    over purchase days.  Discordant cells b (early-only) and c
    (late-only) are exact; (b-c)^2/(b+c) is one mirrored division.
    Pass 1 is a value-census combiner; pass 2 a user-keyed any()
    census — both bounded."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts", "value"])

    def census_partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        mask = et == "purchase"
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)[mask]
        cv = np.rint(
            batch["value"].to_numpy(zero_copy_only=False)[mask] * 100.0
        ).astype(np.int64)
        day = (tms // 86_400_000).astype(np.int64)
        return pa.table({
            "cv": pa.array(cv),
            "n": pa.array(np.ones(len(cv), np.int64)),
            "dmin": pa.array(day if len(day) else day),
            "dmax": pa.array(day if len(day) else day),
        })

    vc = sharded_grouped_agg(
        ds.map_batches(census_partial, batch_format="pyarrow"),
        ["cv"], [("n", "sum"), ("dmin", "min"), ("dmax", "max")],
    ).to_pandas().sort_values("cv")
    n_p = int(vc["n"].sum())
    cum = vc["n"].cumsum().to_numpy()
    thr = int(vc["cv"].to_numpy()[int(np.argmax(10 * cum >= 9 * n_p))])
    lo = int(vc["dmin"].min())
    hi = int(vc["dmax"].max())
    mid = (lo + hi + 1) // 2

    def pair_partial(batch: pa.Table, thr=thr, mid=mid) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        cv = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        mask = (et == "purchase") & (cv > thr)
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)[mask]
        day = (tms // 86_400_000).astype(np.int64)
        return pa.table({
            "user_id": pa.array(
                batch["user_id"].to_numpy(zero_copy_only=False)[mask]),
            "early": pa.array((day < mid).astype(np.int64)),
            "late": pa.array((day >= mid).astype(np.int64)),
        })

    pairs = sharded_grouped_agg(
        ds.map_batches(pair_partial, batch_format="pyarrow"),
        ["user_id"], [("early", "max"), ("late", "max")],
    ).to_pandas()
    e = pairs["early"].to_numpy(np.int64)
    l = pairs["late"].to_numpy(np.int64)
    b = int(np.count_nonzero((e == 1) & (l == 0)))
    c = int(np.count_nonzero((e == 0) & (l == 1)))
    # degenerate guard: zero discordant users -> 0.0 on both engines
    stat = 0.0 if b + c == 0 else float((b - c) * (b - c)) / float(b + c)
    return pa.table({
        "mid_day": pa.array([mid], pa.int64()),
        "thr_cv": pa.array([thr], pa.int64()),
        "b_early_only": pa.array([b], pa.int64()),
        "c_late_only": pa.array([c], pa.int64()),
        "mcnemar": pa.array([round(stat, 6)], pa.float64()),
    })


def q_cochran_q(sf_dir: str):
    """Cochran's Q over the five event types as related binary
    treatments: x_{u,t} = 1 iff user u performed an ABOVE-P90-value
    event of type t (global exact lower p90 cent threshold from the
    value census — the raw any-event indicator is degenerate because
    every user hits every type).  Row totals R_u and column totals C_t
    are exact from the (user, type) distinct census and
    Q = (k-1)*(k*sum C_t^2 - N^2)/(k*N - sum R_u^2) is one mirrored
    division; all-zero blocks cancel from every term, so dropping them
    matches the textbook statistic.  The k-treatment extension of
    mcnemar on the same user-keyed exchange."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def vc_partial(batch: pa.Table) -> pa.Table:
        cv = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({"cv": pa.array(cv),
                         "n": pa.array(np.ones(len(cv), np.int64))})

    vc = sharded_grouped_agg(
        ds.map_batches(vc_partial, batch_format="pyarrow"),
        ["cv"], [("n", "sum")],
    ).to_pandas().sort_values("cv")
    n_all = int(vc["n"].sum())
    cum = vc["n"].cumsum().to_numpy()
    thr = int(vc["cv"].to_numpy()[int(np.argmax(10 * cum >= 9 * n_all))])

    def partial(batch: pa.Table, thr=thr) -> pa.Table:
        cv = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        mask = cv > thr
        return pa.table({
            "user_id": pa.array(
                batch["user_id"].to_numpy(zero_copy_only=False)[mask]),
            "event_type": pa.array(
                batch["event_type"].to_numpy(zero_copy_only=False)[mask]),
            "one": pa.array(np.ones(int(mask.sum()), np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id", "event_type"], [("one", "max")],
    ).to_pandas()
    k = int(census["event_type"].nunique())
    col = census.groupby("event_type")["one"].sum()
    row = census.groupby("user_id")["one"].sum()
    n = int(census["one"].sum())
    sum_c2 = sum(int(c) * int(c) for c in col)
    sum_r2 = sum(int(r) * int(r) for r in row)
    q = (float((k - 1) * (k * sum_c2 - n * n))
         / float(k * n - sum_r2))
    return pa.table({
        "k_treatments": pa.array([k], pa.int64()),
        "thr_cv": pa.array([thr], pa.int64()),
        "n_ones": pa.array([n], pa.int64()),
        "cochran_q": pa.array([round(q, 6)], pa.float64()),
    })


def q_matthews_corr(sf_dir: str):
    """Matthews correlation coefficient between every type pair's
    mean-binarized hourly indicators (the cohen_kappa 2x2):
    MCC = (ad - bc)/sqrt((a+b)(a+c)(b+d)(c+d)) is exact integers into
    ONE mirrored sqrt chain (the product stays well under 2^53 for
    metadata-sized H)."""
    series, big_h = dense_hour_counts(sf_dir)
    bits = {}
    for et, c in series.items():
        s1 = int(c.sum())
        bits[et] = ((c * big_h) > s1).astype(np.int64)
    types = sorted(bits)
    out = {"type_a": [], "type_b": [], "mcc": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            x, y = bits[ta], bits[tb]
            a = int(np.count_nonzero((x == 1) & (y == 1)))
            b = int(np.count_nonzero((x == 1) & (y == 0)))
            c = int(np.count_nonzero((x == 0) & (y == 1)))
            d = int(np.count_nonzero((x == 0) & (y == 0)))
            mcc = (float(a * d - b * c)
                   / math.sqrt(float((a + b) * (a + c)
                                     * (b + d) * (c + d))))
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["mcc"].append(round(mcc, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "mcc": pa.array(out["mcc"], pa.float64()),
    })


def q_log_rank(sf_dir: str):
    """Log-rank test comparing user-lifespan survival between the two
    user-id-parity cohorts (deterministic group split), with the
    kaplan_meier censoring rule (last seen within 24 h of corpus end —
    extras.py).  The (duration, censored, group) census is the only
    exchange; at each distinct duration the expected-death and variance
    terms d*n1/n and d*n1*n0*(n-d)/(n^2*(n-1)) are exact-int ratios
    micro-floored before summing, and z = (O1 - E1)/sqrt(V) is the one
    mirrored chain."""
    per_user = user_ts_spans(sf_dir)
    data_max = int(per_user.max("mx"))

    def dur_census(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        mn = batch["mn"].to_numpy(zero_copy_only=False)
        mx = batch["mx"].to_numpy(zero_copy_only=False)
        return pa.table({
            "dur": pa.array((mx - mn) // 3600000, pa.int64()),
            "cens": pa.array(
                (data_max - mx < 86400000).astype(np.int64)),
            "grp": pa.array((uid % 2).astype(np.int64)),
            "cnt": pa.array(np.ones(len(mn), np.int64)),
        })

    census = sharded_grouped_agg(
        per_user.map_batches(dur_census, batch_format="pyarrow"),
        ["dur", "cens", "grp"], [("cnt", "sum")],
    ).to_pandas()
    n1 = int(census.loc[census["grp"] == 1, "cnt"].sum())
    n0 = int(census.loc[census["grp"] == 0, "cnt"].sum())
    o1 = 0
    e1_sum = 0
    v_sum = 0
    at1, at0 = n1, n0
    for dur, grp in census.groupby("dur", sort=True):
        nt = at1 + at0
        d1 = int(grp.loc[(grp["cens"] == 0) & (grp["grp"] == 1),
                         "cnt"].sum())
        d0 = int(grp.loc[(grp["cens"] == 0) & (grp["grp"] == 0),
                         "cnt"].sum())
        dt = d1 + d0
        if dt > 0 and nt > 1:
            o1 += d1
            e1_sum += math.floor(
                float(dt * at1) / float(nt) * 1e6)
            v_sum += math.floor(
                float(dt * at1 * at0 * (nt - dt))
                / float(nt * nt * (nt - 1)) * 1e6)
        at1 -= int(grp.loc[grp["grp"] == 1, "cnt"].sum())
        at0 -= int(grp.loc[grp["grp"] == 0, "cnt"].sum())
    z = ((float(o1) - float(e1_sum) / 1e6)
         / math.sqrt(float(v_sum) / 1e6))
    return pa.table({
        "n_grp1": pa.array([n1], pa.int64()),
        "n_grp0": pa.array([n0], pa.int64()),
        "o1_deaths": pa.array([o1], pa.int64()),
        "log_rank_z": pa.array([round(z, 6)], pa.float64()),
    })


def q_cramer_von_mises(sf_dir: str):
    """Two-sample Cramer-von Mises T between the purchase and view
    value distributions (the ks_statistic pair) — FULLY exact: over the
    pooled support, T = sum_v (a_v+b_v) * (cumA*m - cumB*n)^2
    / (n*m*(n+m)^2) has an exact bignum/HUGEINT numerator and ONE
    mirrored division.  The quadratic (whole-CDF) complement of KS's
    supremum."""
    census = purchase_view_cents(sf_dir)
    a = census["a"].to_numpy(np.int64)
    b = census["b"].to_numpy(np.int64)
    n = int(a.sum())
    m = int(b.sum())
    ca = np.cumsum(a)
    cb = np.cumsum(b)
    num = sum(int(w) * (int(x) * m - int(y) * n) ** 2
              for w, x, y in zip(a + b, ca, cb))
    t_stat = float(num) / float(n * m * (n + m) * (n + m))
    return pa.table({
        "n_purchase": pa.array([n], pa.int64()),
        "n_view": pa.array([m], pa.int64()),
        "cvm_t": pa.array([round(t_stat, 6)], pa.float64()),
    })


def q_partial_corr(sf_dir: str):
    """Partial Pearson correlation of event value and hour-of-day
    CONTROLLING for day-of-week: the three pairwise r's come from one
    (hod, dow) moment census (168 cells of exact integer sums), each as
    the spearman-style mirrored num/sqrt(d1*d2), and
    r_xy.z = (rxy - rxz*ryz)/sqrt((1-rxz^2)*(1-ryz^2)) is the final
    mirrored chain — bit-identical because every input double derives
    from the same exact integers."""
    ds = _read(sf_dir, "events", ["ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        cv = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({
            "hod": pa.array((tms // 3_600_000) % 24, pa.int64()),
            "dow": pa.array(((tms // 86_400_000) + 3) % 7, pa.int64()),
            "n": pa.array(np.ones(len(cv), np.int64)),
            "sx": pa.array(cv),
            "sxx": pa.array(cv * cv),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["hod", "dow"], [("n", "sum"), ("sx", "sum"), ("sxx", "sum")],
    ).to_pandas()
    hod = census["hod"].to_numpy(np.int64)
    dow = census["dow"].to_numpy(np.int64)
    nn = census["n"].to_numpy(np.int64)
    sx_c = census["sx"].to_numpy(np.int64)
    sxx_c = census["sxx"].to_numpy(np.int64)
    n = int(nn.sum())
    sx = int(sx_c.sum())
    sxx = int(sxx_c.sum())
    sy = int(np.dot(nn, hod))
    syy = int(np.dot(nn, hod * hod))
    sz = int(np.dot(nn, dow))
    szz = int(np.dot(nn, dow * dow))
    sxy = int(np.dot(sx_c, hod))
    sxz = int(np.dot(sx_c, dow))
    syz = int(np.dot(nn, hod * dow))

    def corr(sab, sa, sb, saa, sbb):
        num = n * sab - sa * sb
        d1 = n * saa - sa * sa
        d2 = n * sbb - sb * sb
        return float(num) / math.sqrt(float(d1) * float(d2))

    rxy = corr(sxy, sx, sy, sxx, syy)
    rxz = corr(sxz, sx, sz, sxx, szz)
    ryz = corr(syz, sy, sz, syy, szz)
    rp = ((rxy - rxz * ryz)
          / math.sqrt((1.0 - rxz * rxz) * (1.0 - ryz * ryz)))
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "r_xy": pa.array([round(rxy, 6)], pa.float64()),
        "r_partial": pa.array([round(rp, 6)], pa.float64()),
    })


def q_kuiper(sf_dir: str):
    """Kuiper two-sample test on the CIRCULAR hour-of-day distributions
    of purchases vs views: V = sup(F-G) + sup(G-F) is rotation-
    invariant (the right test for clock data, where KS is not).  Over
    the 24-cell censuses every CDF difference cumA*m - cumB*n is an
    exact integer, so V = (max D - min D)/(n*m) is EXACT to one
    mirrored division."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        mask = (et == "purchase") | (et == "view")
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)[mask]
        return pa.table({
            "d": pa.array((tms // 3_600_000) % 24, pa.int64()),
            "a": pa.array((et[mask] == "purchase").astype(np.int64)),
            "b": pa.array((et[mask] == "view").astype(np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["d"], [("a", "sum"), ("b", "sum")],
    ).to_pandas().sort_values("d")
    a = np.zeros(24, np.int64)
    b = np.zeros(24, np.int64)
    a[census["d"].to_numpy()] = census["a"].to_numpy()
    b[census["d"].to_numpy()] = census["b"].to_numpy()
    n, m = int(a.sum()), int(b.sum())
    dvec = np.cumsum(a) * m - np.cumsum(b) * n
    v_num = int(dvec.max()) - int(dvec.min())
    return pa.table({
        "n_purchase": pa.array([n], pa.int64()),
        "n_view": pa.array([m], pa.int64()),
        "v_num": pa.array([v_num], pa.int64()),
        "kuiper_v": pa.array(
            [round(float(v_num) / float(n * m), 6)], pa.float64()),
    })


def q_pettitt(sf_dir: str):
    """Pettitt change-point test per type on the dense hourly count
    series: U_t = sum_{i<=t, j>t} sign(c_i - c_j); the statistic
    K = max|U_t| and its location are EXACT integers (the rank-based
    Mann-Whitney sweep; ties handled by sign=0; first-location
    tie-break).  Row sums sum_j sign(c_i - c_j) come from the exact
    O(H log H) searchsorted ranks (``functions/pairstats.
    sign_row_sums``) — the former H x H int64 sign matrix was ~5 GB at
    a 26k-hour grid (round-3 verdict pair-statistics family).  The
    nonparametric complement of the binary-segmentation changepoint
    entry."""
    from ..functions.pairstats import sign_row_sums

    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "k_stat": [], "t_hat": []}
    for et, c in series.items():
        row = sign_row_sums(c)         # sum_j sign(c_i - c_j) over ALL j
        # U_t = sum_{i<=t} (sum_{j>t}) = cum_t(row) - inside-pair terms
        # computed incrementally: U_t = U_{t-1} + sum_{j} sign(c_t-c_j)
        #   - 2*sum_{i<=t} sign... use direct: U_t = sum_{i<=t} row_i
        #   - 2*sum_{i<=t,j<=t} sign(c_i - c_j) and the inner double sum
        #   of a sign matrix over a symmetric index set is 0, so
        #   U_t = cumsum(row)_t exactly.
        u = np.cumsum(row)[:-1]        # t = 0..H-2
        k_idx = int(np.argmax(np.abs(u)))
        out["event_type"].append(et)
        out["k_stat"].append(int(abs(int(u[k_idx]))))
        out["t_hat"].append(k_idx)
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "k_stat": pa.array(out["k_stat"], pa.int64()),
        "t_hat": pa.array(out["t_hat"], pa.int64()),
    })


def q_f_test(sf_dir: str):
    """Variance-ratio F test for every type pair on cent values: with
    exact moment sums the ratio of sample variances reduces over the
    common denominator to
    F = ((n1*sxx1 - s1^2) * n2 * (n2-1)) / ((n2*sxx2 - s2^2) * n1 *
    (n1-1)) — exact integers (bignum/HUGEINT) to ONE mirrored
    division."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        cv = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({
            "event_type": batch["event_type"],
            "n": pa.array(np.ones(len(cv), np.int64)),
            "s": pa.array(cv),
            "q": pa.array(cv * cv),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type"], [("n", "sum"), ("s", "sum"), ("q", "sum")],
    ).to_pandas().sort_values("event_type")
    rowsd = {str(r["event_type"]): (int(r["n"]), int(r["s"]), int(r["q"]))
             for _, r in census.iterrows()}
    types = sorted(rowsd)
    out = {"type_a": [], "type_b": [], "df1": [], "df2": [], "f_stat": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            n1, s1, q1 = rowsd[ta]
            n2, s2, q2 = rowsd[tb]
            num = (n1 * q1 - s1 * s1) * n2 * (n2 - 1)
            den = (n2 * q2 - s2 * s2) * n1 * (n1 - 1)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["df1"].append(n1 - 1)
            out["df2"].append(n2 - 1)
            out["f_stat"].append(round(float(num) / float(den), 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "df1": pa.array(out["df1"], pa.int64()),
        "df2": pa.array(out["df2"], pa.int64()),
        "f_stat": pa.array(out["f_stat"], pa.float64()),
    })


def q_cliffs_delta(sf_dir: str):
    """Cliff's delta and Vargha-Delaney A effect sizes for every type
    pair on cent values — FULLY exact: from the two value censuses,
    gt = sum_v a_v * (#b below v) and lt symmetric are exact integer
    pair counts (cumulative two-pointer over the union support), so
    delta = (gt - lt)/(n*m) and A = (gt + ties/2)/(n*m) (kept in
    DOUBLED units: A = (2*gt + ties)/(2*n*m)) are single mirrored
    divisions."""
    census = cent_census(sf_dir)
    prof = {str(et): grp.sort_values("cv")
            for et, grp in census.groupby("event_type", sort=True)}
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "cliffs_delta": [], "vd_a": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            av = prof[ta]["cv"].to_numpy(np.int64)
            an = prof[ta]["n"].to_numpy(np.int64)
            bv = prof[tb]["cv"].to_numpy(np.int64)
            bn = prof[tb]["n"].to_numpy(np.int64)
            n, m = int(an.sum()), int(bn.sum())
            cb = np.concatenate([[0], np.cumsum(bn)])
            lo = np.searchsorted(bv, av, side="left")
            hi = np.searchsorted(bv, av, side="right")
            below = cb[lo]                   # #b strictly less than v
            at = cb[hi] - cb[lo]             # #b equal to v
            gt = int(np.dot(an, below))
            ties = int(np.dot(an, at))
            lt = n * m - gt - ties
            delta = float(gt - lt) / float(n * m)
            vd_a = float(2 * gt + ties) / float(2 * n * m)
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["cliffs_delta"].append(round(delta, 6))
            out["vd_a"].append(round(vd_a, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "cliffs_delta": pa.array(out["cliffs_delta"], pa.float64()),
        "vd_a": pa.array(out["vd_a"], pa.float64()),
    })


def q_page_trend(sf_dir: str):
    """Page's L trend test for an ordered diurnal alternative: blocks =
    complete grid days, ordered treatments = the 24 hours-of-day,
    ratings = hourly counts midranked WITHIN each day in DOUBLED units
    (L2 = sum_d (d+1) * R2_d is exact; R2_d sums per-day doubled
    midranks).  z uses the classical no-tie moments
    E[L] = B*k*(k+1)^2/4, Var[L] = B*k^2*(k+1)^2*(k-1)/144 on L = L2/2
    — one mirrored chain (tie correction intentionally omitted, same
    convention both engines).  The ordered-alternative complement of
    friedman_test, per event type."""
    series, big_h = dense_hour_counts(sf_dir)
    n_days = big_h // 24
    out = {"event_type": [], "l2_stat": [], "z": []}
    k = 24
    for et, c in series.items():
        grid = c[: n_days * 24].reshape(n_days, 24)
        r2 = np.empty((n_days, 24), np.int64)
        for d in range(n_days):
            row = grid[d]
            order = np.argsort(row, kind="stable")
            srt = row[order]
            below = np.searchsorted(srt, row, side="left")
            peers = (np.searchsorted(srt, row, side="right") - below)
            r2[d] = 2 * below + peers + 1
        big_r2 = r2.sum(axis=0)
        l2 = sum((d + 1) * int(big_r2[d]) for d in range(k))
        l_val = float(l2) / 2.0
        e_l = float(n_days * k * (k + 1) * (k + 1)) / 4.0
        var_l = (float(n_days * k * k * (k + 1) * (k + 1) * (k - 1))
                 / 144.0)
        z = (l_val - e_l) / math.sqrt(var_l)
        out["event_type"].append(et)
        out["l2_stat"].append(l2)
        out["z"].append(round(z, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "l2_stat": pa.array(out["l2_stat"], pa.int64()),
        "z": pa.array(out["z"], pa.float64()),
    })


def q_jonckheere(sf_dir: str):
    """Jonckheere-Terpstra test for an ordered shift across the four
    six-hour day-parts (night 0-5 < morning 6-11 < afternoon 12-17 <
    evening 18-23) on cent values: for each ordered part pair the
    Mann-Whitney count is kept in DOUBLED units (2U = 2*#less + #ties
    — exact from the per-part value censuses via cumulative
    two-pointers), JT2 = sum of 2U is exact, and z uses the classical
    no-tie moments E[JT] = (N^2 - sum n_g^2)/4 and
    Var[JT] = (N^2(2N+3) - sum n_g^2(2n_g+3))/72 on JT = JT2/2 (tie
    correction omitted, same convention both engines)."""
    ds = _read(sf_dir, "events", ["ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        cv = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({
            "part": pa.array(((tms // 3_600_000) % 24) // 6, pa.int64()),
            "cv": pa.array(cv),
            "n": pa.array(np.ones(len(cv), np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["part", "cv"], [("n", "sum")],
    ).to_pandas()
    parts = {}
    for p, grp in census.groupby("part", sort=True):
        g = grp.sort_values("cv")
        parts[int(p)] = (g["cv"].to_numpy(np.int64),
                         g["n"].to_numpy(np.int64))
    sizes = {p: int(nn.sum()) for p, (_, nn) in parts.items()}
    n_tot = sum(sizes.values())
    jt2 = 0
    for p1 in sorted(parts):
        for p2 in sorted(parts):
            if p2 <= p1:
                continue
            av, an = parts[p1]
            bv, bn = parts[p2]
            cb = np.concatenate([[0], np.cumsum(bn)])
            lo = np.searchsorted(bv, av, side="left")
            hi = np.searchsorted(bv, av, side="right")
            above = int(bn.sum()) - cb[hi]       # #b strictly greater
            ties = cb[hi] - cb[lo]
            jt2 += int(np.dot(an, 2 * above + ties))
    jt = float(jt2) / 2.0
    sum_n2 = sum(s * s for s in sizes.values())
    sum_n23 = sum(s * s * (2 * s + 3) for s in sizes.values())
    e_jt = float(n_tot * n_tot - sum_n2) / 4.0
    var_jt = (float(n_tot * n_tot * (2 * n_tot + 3) - sum_n23)) / 72.0
    z = (jt - e_jt) / math.sqrt(var_jt)
    return pa.table({
        "n": pa.array([n_tot], pa.int64()),
        "jt2_stat": pa.array([jt2], pa.int64()),
        "z": pa.array([round(z, 6)], pa.float64()),
    })


def q_mantel_haenszel(sf_dir: str):
    """Mantel-Haenszel common odds ratio for (purchase x night-hours)
    association STRATIFIED by day-of-week: each stratum's 2x2 cells
    (a=purchase night, b=purchase day, c=other night, d=other day —
    night = hod < 6 or hod >= 22) are exact from one (dow, purch,
    night) census; the per-stratum ratio terms a_i*d_i/n_i and
    b_i*c_i/n_i are micro-floored (exact-int arguments) so both sums
    are associative integers and MH-OR is one mirrored division; the
    micro-floored ln gives the log scale."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        hod = (tms // 3_600_000) % 24
        dow = ((tms // 86_400_000) + 3) % 7
        night = ((hod < 6) | (hod >= 22)).astype(np.int64)
        purch = (batch["event_type"].to_numpy(zero_copy_only=False)
                 == "purchase").astype(np.int64)
        return pa.table({
            "dow": pa.array(dow, pa.int64()),
            "p": pa.array(purch),
            "ni": pa.array(night),
            "n": pa.array(np.ones(len(tms), np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["dow", "p", "ni"], [("n", "sum")],
    ).to_pandas()
    num_sum = den_sum = 0
    for dow, grp in census.groupby("dow", sort=True):
        cell = {(int(r["p"]), int(r["ni"])): int(r["n"])
                for _, r in grp.iterrows()}
        a = cell.get((1, 1), 0)
        b = cell.get((1, 0), 0)
        c = cell.get((0, 1), 0)
        d = cell.get((0, 0), 0)
        n_i = a + b + c + d
        num_sum += math.floor(float(a * d) / float(n_i) * 1e6)
        den_sum += math.floor(float(b * c) / float(n_i) * 1e6)
    mh_or = float(num_sum) / float(den_sum)
    log_or = math.floor(
        math.log(float(num_sum) / float(den_sum)) * 1e6) / 1e6
    return pa.table({
        "k_strata": pa.array([int(census["dow"].nunique())], pa.int64()),
        "mh_or": pa.array([round(mh_or, 6)], pa.float64()),
        "log_mh_or": pa.array([log_or], pa.float64()),
    })


def q_ansari_bradley(sf_dir: str):
    """Ansari-Bradley dispersion test (purchase vs view cent values):
    outside-in scores min(p, N+1-p) averaged over each tie block of the
    pooled census — the block score SUM is an exact closed-form integer
    and the block average is micro-floored before weighting (exact-int
    argument), so AB = sum a_v * avg_score_v is an associative integer
    sum; z uses the classical parity-split moments in one mirrored
    chain."""
    census = purchase_view_cents(sf_dir)
    a = census["a"].to_numpy(np.int64)
    b = census["b"].to_numpy(np.int64)
    w = a + b
    n, m = int(a.sum()), int(b.sum())
    big_n = n + m

    def score_prefix(p):  # sum_{q=1..p} min(q, N+1-q), exact closed form
        half = (big_n + 1) // 2
        if p <= half:
            return p * (p + 1) // 2
        extra = p - half
        return half * (half + 1) // 2 + (
            (big_n - half) + (big_n + 1 - p)) * extra // 2

    ab_sum = 0
    pos = 0
    for av, wv in zip(a, w):
        s_block = score_prefix(pos + int(wv)) - score_prefix(pos)
        pos += int(wv)
        if av:
            ab_sum += int(av) * math.floor(
                float(s_block) / float(int(wv)) * 1e6)
    ab = float(ab_sum) / 1e6
    if big_n % 2 == 0:
        e = float(n * (big_n + 2)) / 4.0
        v = (float(n * m * (big_n + 2) * (big_n - 2))
             / (48.0 * float(big_n - 1)))
    else:
        e = float(n * (big_n + 1) * (big_n + 1)) / (4.0 * float(big_n))
        v = (float(n * m * (big_n + 1) * (3 + big_n * big_n))
             / (48.0 * float(big_n) * float(big_n)))
    z = (ab - e) / math.sqrt(v)
    return pa.table({
        "n_purchase": pa.array([n], pa.int64()),
        "n_view": pa.array([m], pa.int64()),
        "ab_stat": pa.array([round(ab, 6)], pa.float64()),
        "z": pa.array([round(z, 6)], pa.float64()),
    })


def q_cohens_h(sf_dir: str):
    """Cohen's h effect size for the weekend-vs-weekday purchase rate:
    h = 2*(asin(sqrt(p1)) - asin(sqrt(p2))) with each asin term
    micro-floored (the single-libm protocol — sqrt of an exact ratio
    feeds one asin per side), counts exact from one 4-cell combiner."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        wknd = ((((tms // 86_400_000) + 3) % 7) >= 5).astype(np.int64)
        purch = (batch["event_type"].to_numpy(zero_copy_only=False)
                 == "purchase").astype(np.int64)
        return pa.table({
            "w": pa.array(wknd),
            "p": pa.array(purch),
            "n": pa.array(np.ones(len(tms), np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["w", "p"], [("n", "sum")],
    ).to_pandas()
    cell = {(int(r["w"]), int(r["p"])): int(r["n"])
            for _, r in census.iterrows()}
    pw = cell.get((1, 1), 0)
    nw = pw + cell.get((1, 0), 0)
    pd_ = cell.get((0, 1), 0)
    nd = pd_ + cell.get((0, 0), 0)
    t1 = math.floor(
        math.asin(math.sqrt(float(pw) / float(nw))) * 1e6)
    t2 = math.floor(
        math.asin(math.sqrt(float(pd_) / float(nd))) * 1e6)
    h = 2.0 * (float(t1) - float(t2)) / 1e6
    return pa.table({
        "n_weekend": pa.array([nw], pa.int64()),
        "n_weekday": pa.array([nd], pa.int64()),
        "cohens_h": pa.array([round(h, 6)], pa.float64()),
    })


def q_ordinal_assoc(sf_dir: str):
    """The ordinal-association family in one census: Goodman-Kruskal
    gamma, Somers' D (both directions) and Stuart's tau-c between
    hour-of-day and the 50-unit value bucket (the kendall_tau grid —
    24 x ~10 cells).  Concordant/discordant/tie pair counts are exact
    integers from the tiny grid (quadrant prefix sums), every statistic
    is one mirrored division; m = min(R, C) enters tau-c as an exact
    literal."""
    ds = _read(sf_dir, "events", ["ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        cv = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({
            "hod": pa.array((tms // 3_600_000) % 24, pa.int64()),
            "vb": pa.array(cv // 5000, pa.int64()),
            "n": pa.array(np.ones(len(cv), np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["hod", "vb"], [("n", "sum")],
    ).to_pandas()
    hods = np.sort(census["hod"].unique())
    vbs = np.sort(census["vb"].unique())
    grid = np.zeros((len(hods), len(vbs)), np.int64)
    hi = {int(h): i for i, h in enumerate(hods)}
    vi = {int(v): i for i, v in enumerate(vbs)}
    for _, r in census.iterrows():
        grid[hi[int(r["hod"])], vi[int(r["vb"])]] += int(r["n"])
    n = int(grid.sum())
    conc = disc = 0
    big_r, big_c = grid.shape
    for i in range(big_r):
        for j in range(big_c):
            f = int(grid[i, j])
            if f == 0:
                continue
            conc += f * int(grid[i + 1:, j + 1:].sum())
            disc += f * int(grid[i + 1:, :j].sum())
    # ties: pairs tied on hod (rows) / on vb (cols) but not both
    row_tot = grid.sum(axis=1)
    col_tot = grid.sum(axis=0)
    pairs = n * (n - 1) // 2
    t_rowpairs = sum(int(x) * (int(x) - 1) // 2 for x in row_tot)
    t_colpairs = sum(int(x) * (int(x) - 1) // 2 for x in col_tot)
    t_cellpairs = sum(int(x) * (int(x) - 1) // 2
                      for x in grid.ravel())
    ty = t_rowpairs - t_cellpairs   # tied on X (hod) only
    tx = t_colpairs - t_cellpairs   # tied on Y (vb) only
    m = min(big_r, big_c)
    gamma = float(conc - disc) / float(conc + disc)
    d_yx = float(conc - disc) / float(conc + disc + tx)
    d_xy = float(conc - disc) / float(conc + disc + ty)
    tau_c = (float(2 * m * (conc - disc))
             / float(n * n * (m - 1)))
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "conc": pa.array([conc], pa.int64()),
        "disc": pa.array([disc], pa.int64()),
        "gamma": pa.array([round(gamma, 6)], pa.float64()),
        "somers_dyx": pa.array([round(d_yx, 6)], pa.float64()),
        "somers_dxy": pa.array([round(d_xy, 6)], pa.float64()),
        "tau_c": pa.array([round(tau_c, 6)], pa.float64()),
    })


def q_icc(sf_dir: str):
    """Intraclass correlation ICC(2,1) — absolute agreement of the
    event types (raters) over complete days (subjects), ratings = daily
    counts: the two-way ANOVA mean squares come from EXACT integer sums
    of squares over the D x k table (common-denominator cross-
    multiplied forms), each MS is one division of exact ints, and the
    ICC combination is the standard mirrored chain."""
    series, big_h = dense_hour_counts(sf_dir)
    n_days = big_h // 24
    k = len(series)
    mat = np.stack([c[: n_days * 24].reshape(n_days, 24).sum(axis=1)
                    for c in series.values()], axis=1)   # D x k
    d = n_days
    total = int(mat.sum())
    ss_all = int((mat.astype(np.int64) ** 2).sum())
    row_sums = mat.sum(axis=1).astype(np.int64)
    col_sums = mat.sum(axis=0).astype(np.int64)
    sr2 = sum(int(x) * int(x) for x in row_sums)
    sc2 = sum(int(x) * int(x) for x in col_sums)
    n_cells = d * k
    # exact numerators scaled by n_cells:
    #   SST*n = n*ss_all - total^2 ; SSR*n = (n/k)*sr2... keep floats
    # mirrored: each SS from the textbook formula over exact ints.
    sst = float(ss_all) - float(total * total) / float(n_cells)
    ssr = float(sr2) / float(k) - float(total * total) / float(n_cells)
    ssc = float(sc2) / float(d) - float(total * total) / float(n_cells)
    sse = sst - ssr - ssc
    msr = ssr / float(d - 1)
    msc = ssc / float(k - 1)
    mse = sse / float((d - 1) * (k - 1))
    icc = ((msr - mse)
           / (msr + float(k - 1) * mse
              + float(k) * (msc - mse) / float(d)))
    return pa.table({
        "n_days": pa.array([d], pa.int64()),
        "k_raters": pa.array([k], pa.int64()),
        "icc2_1": pa.array([round(icc, 6)], pa.float64()),
    })
