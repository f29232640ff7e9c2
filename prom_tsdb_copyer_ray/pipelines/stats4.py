"""Round-3 statistics wave: lexical-richness indices over a
frequency-of-frequencies census, plus classical sequence / trend /
goodness-of-fit tests over the established event censuses.

Two substrates, both bounded and both one-exchange:

* **Frequency-of-frequencies census** (:func:`freq_of_freq`): the
  (term, count) vocabulary census collapses ONCE MORE to (m, V_m) =
  "how many terms occur exactly m times" — O(sqrt(N)) distinct counts
  by Zipf, so the driver holds a few hundred rows regardless of corpus
  size.  Yule's K, lexical Simpson, Good-Turing coverage, Sichel's S,
  Herdan's C, Guiraud's R and Honore's H are all exact-integer
  functionals of (N, V, V1, V2, S2) with at most one micro-floored ln
  and one mirrored division each.
* **Dense hourly grid** (stats3.dense_hour_counts): Durbin-Watson,
  Moran's I (lag-1 chain adjacency), Cox-Stuart, KPSS (lag-0) and the
  hod-uniform one-sample KS ride the same (event_type, hr) census as
  the session-12 battery; Cochran-Armitage rides a 12-cell
  (day-part, is_purchase) census.

Float protocol as everywhere: exact integers (Python bignums where
H-scaled squares exceed int64 — the SQL side casts to HUGEINT) until
ONE mirrored float expression; sqrt is IEEE-correctly-rounded and so
cross-engine exact; ln is micro-floored.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.pairstats import concordance_s
from ..stages.keyed import sharded_grouped_agg
from ..windows import ts_to_ms
from .qsubstrate import (
    WORD_RE,
    _read,
    cent_census,
    dense_hour_counts,
    dow_census,
    freq_of_freq_census,
    hod_census,
    purchase_view_cents,
    term_census,
)


# ---------------------------------------------------------------------------
# substrate A: frequency-of-frequencies census
# ---------------------------------------------------------------------------

def freq_of_freq(sf_dir: str) -> dict[str, int]:
    """Exact (N, V, V1, V2, S2) from the corpus term distribution.

    ``qsubstrate.freq_of_freq_census``: pass 1 is the (term, n) vocab
    census (one sharded exchange, vocab-bounded); pass 2, a combiner over
    CENSUS rows, collapses it to (m, V_m) — the freq-of-freq table,
    O(distinct counts) ~ O(sqrt N) rows.  Driver math is exact Python
    ints."""
    ff = freq_of_freq_census(sf_dir)
    m = ff["m"].to_numpy(np.int64)
    vm = ff["vm"].to_numpy(np.int64)
    return {
        "n": int(sum(int(a) * int(b) for a, b in zip(m, vm))),
        "v": int(vm.sum()),
        "v1": int(vm[m == 1].sum()),
        "v2": int(vm[m == 2].sum()),
        "s2": int(sum(int(a) * int(a) * int(b) for a, b in zip(m, vm))),
    }


def q_yule_k(sf_dir: str):
    """Yule's characteristic K = 1e4 * (S2 - N) / N^2 — the classic
    repeat-rate measure of lexical concentration (insensitive to text
    length).  Exact ints to one mirrored division."""
    f = freq_of_freq(sf_dir)
    n, s2 = f["n"], f["s2"]
    k = 0.0 if n == 0 else 1e4 * float(s2 - n) / float(n * n)
    return pa.table({
        "n_tokens": pa.array([n], pa.int64()),
        "vocab": pa.array([f["v"]], pa.int64()),
        "yule_k": pa.array([round(k, 6)], pa.float64()),
    })


def q_simpson_lexical(sf_dir: str):
    """Lexical Simpson index D = sum m(m-1)V_m / (N(N-1)): the
    probability two random token draws (without replacement) are the
    same type.  Exact ints to one mirrored division."""
    f = freq_of_freq(sf_dir)
    n = f["n"]
    coll = f["s2"] - f["n"]          # sum m^2 Vm - sum m Vm = sum m(m-1)Vm
    d = 0.0 if n < 2 else float(coll) / float(n * (n - 1))
    return pa.table({
        "n_tokens": pa.array([n], pa.int64()),
        "simpson_d": pa.array([round(d, 6)], pa.float64()),
    })


def q_good_turing(sf_dir: str):
    """Good-Turing coverage: the probability mass NOT in unseen types,
    1 - V1/N (Turing's estimator of sample coverage).  One mirrored
    division."""
    f = freq_of_freq(sf_dir)
    n, v1 = f["n"], f["v1"]
    cov = 0.0 if n == 0 else 1.0 - float(v1) / float(n)
    return pa.table({
        "n_tokens": pa.array([n], pa.int64()),
        "n_hapax": pa.array([v1], pa.int64()),
        "coverage": pa.array([round(cov, 6)], pa.float64()),
    })


def q_sichel_s(sf_dir: str):
    """Sichel's S = V2/V (share of dis-legomena in the vocabulary) —
    near-constant across text sizes for natural text.  One mirrored
    division."""
    f = freq_of_freq(sf_dir)
    v, v2 = f["v"], f["v2"]
    s = 0.0 if v == 0 else float(v2) / float(v)
    return pa.table({
        "vocab": pa.array([v], pa.int64()),
        "n_dis": pa.array([v2], pa.int64()),
        "sichel_s": pa.array([round(s, 6)], pa.float64()),
    })


def q_herdan_c(sf_dir: str):
    """Herdan's C = ln V / ln N (log type-token ratio).  Both logs
    micro-floored independently (single-libm protocol), then one
    mirrored division of exact ints."""
    f = freq_of_freq(sf_dir)
    n, v = f["n"], f["v"]
    if n <= 1 or v <= 1:
        c = 0.0
    else:
        lv = math.floor(math.log(float(v)) * 1e6)
        ln = math.floor(math.log(float(n)) * 1e6)
        c = float(lv) / float(ln)
    return pa.table({
        "n_tokens": pa.array([n], pa.int64()),
        "vocab": pa.array([v], pa.int64()),
        "herdan_c": pa.array([round(c, 6)], pa.float64()),
    })


def q_guiraud_r(sf_dir: str):
    """Guiraud's R = V / sqrt(N) (root type-token ratio).  sqrt is
    IEEE-exact, so the single float expression is mirrored verbatim."""
    f = freq_of_freq(sf_dir)
    n, v = f["n"], f["v"]
    r = 0.0 if n == 0 else float(v) / math.sqrt(float(n))
    return pa.table({
        "n_tokens": pa.array([n], pa.int64()),
        "vocab": pa.array([v], pa.int64()),
        "guiraud_r": pa.array([round(r, 6)], pa.float64()),
    })


def q_honore_h(sf_dir: str):
    """Honore's H = 100 * ln N * V / (V - V1) (hapax-weighted richness;
    degenerate when EVERY type is a hapax -> 0.0 on both engines).
    ln N micro-floored, then the mirrored chain
    ((100 * lnN) * V) / (V - V1)."""
    f = freq_of_freq(sf_dir)
    n, v, v1 = f["n"], f["v"], f["v1"]
    if n <= 1 or v == v1:
        h = 0.0
    else:
        ln = math.floor(math.log(float(n)) * 1e6) / 1e6
        h = 100.0 * ln * float(v) / float(v - v1)
    return pa.table({
        "vocab": pa.array([v], pa.int64()),
        "n_hapax": pa.array([v1], pa.int64()),
        "honore_h": pa.array([round(h, 6)], pa.float64()),
    })


# ---------------------------------------------------------------------------
# substrate B: dense hourly grid / small censuses
# ---------------------------------------------------------------------------

def q_durbin_watson(sf_dir: str):
    """Durbin-Watson first-order autocorrelation statistic of each
    type's hourly count series: DW = H * sum(diff^2) / (H*sum(c^2) -
    S1^2) — exact integers to one mirrored division (DW ~ 2 means no
    lag-1 autocorrelation; < 2 positive)."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "dw": []}
    for et in sorted(series):
        c = series[et]
        num = int(sum(int(x) * int(x) for x in np.diff(c)))
        s1 = int(c.sum())
        s2 = int(sum(int(x) * int(x) for x in c))
        den = big_h * s2 - s1 * s1
        dw = 0.0 if den == 0 else float(big_h * num) / float(den)
        out["event_type"].append(et)
        out["dw"].append(round(dw, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "dw": pa.array(out["dw"], pa.float64()),
    })


def q_moran_lag1(sf_dir: str):
    """Moran's I with lag-1 chain adjacency over the hour sequence:
    with d_t = H*c_t - S1 (scaled residuals, scale cancels),
    I = H * sum(d_t * d_{t+1}) / ((H-1) * sum(d_t^2)) — exact Python
    bignums (HUGEINT SQL-side) to one mirrored division."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "moran_i": []}
    for et in sorted(series):
        c = series[et]
        s1 = int(c.sum())
        d = [big_h * int(x) - s1 for x in c]
        cross = sum(a * b for a, b in zip(d[:-1], d[1:]))
        den = sum(a * a for a in d)
        i_val = (0.0 if den == 0
                 else float(big_h * cross) / float((big_h - 1) * den))
        out["event_type"].append(et)
        out["moran_i"].append(round(i_val, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "moran_i": pa.array(out["moran_i"], pa.float64()),
    })


def q_cox_stuart(sf_dir: str):
    """Cox-Stuart trend test per type: pair hour t with t + ceil(H/2)
    (middle dropped when H is odd), count sign of the change; z =
    (2*n_up - n) / sqrt(n) with ties dropped (the sign_test shape)."""
    series, big_h = dense_hour_counts(sf_dir)
    half = big_h // 2
    offset = big_h - half
    out = {"event_type": [], "n_up": [], "n_down": [], "z": []}
    for et in sorted(series):
        c = series[et]
        first = c[:half]
        second = c[offset:offset + half]
        up = int(np.count_nonzero(second > first))
        down = int(np.count_nonzero(second < first))
        n = up + down
        z = 0.0 if n == 0 else (2.0 * float(up) - float(n)) / math.sqrt(
            float(n))
        out["event_type"].append(et)
        out["n_up"].append(up)
        out["n_down"].append(down)
        out["z"].append(round(z, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n_up": pa.array(out["n_up"], pa.int64()),
        "n_down": pa.array(out["n_down"], pa.int64()),
        "z": pa.array(out["z"], pa.float64()),
    })


def q_kpss_level(sf_dir: str):
    """KPSS level-stationarity statistic (lag-0 long-run variance) per
    type: with d_t = H*c_t - S1 and partial sums P_t = sum_{u<=t} d_u,
    eta = sum(P_t^2) / (H * sum(d_t^2)) — the H-scaling cancels
    exactly, so the statistic is one mirrored division of exact Python
    bignums (P_t^2 exceeds int64 -> HUGEINT SQL-side)."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "kpss": []}
    for et in sorted(series):
        c = series[et]
        s1 = int(c.sum())
        d = [big_h * int(x) - s1 for x in c]
        num = 0
        run = 0
        for x in d:
            run += x
            num += run * run
        den = sum(x * x for x in d)
        eta = 0.0 if den == 0 else float(num) / float(big_h * den)
        out["event_type"].append(et)
        out["kpss"].append(round(eta, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "kpss": pa.array(out["kpss"], pa.float64()),
    })


def q_ks_uniform_hod(sf_dir: str):
    """One-sample Kolmogorov-Smirnov distance of each type's
    hour-of-day distribution from uniform(24): D = max_t |ECDF(t) -
    (t+1)/24| = max_t |24*K_t - N*(t+1)| / (24*N) — the max runs over
    exact integers, one mirrored division at the end."""
    census = hod_census(sf_dir)
    out = {"event_type": [], "n": [], "ks_d": []}
    for et, grp in census.groupby("event_type", sort=True):
        counts = np.zeros(24, np.int64)
        counts[grp["hod"].to_numpy(np.int64)] = grp["o"].to_numpy(np.int64)
        n = int(counts.sum())
        cum = np.cumsum(counts)
        dmax = max(abs(24 * int(k) - n * (t + 1))
                   for t, k in enumerate(cum))
        d = 0.0 if n == 0 else float(dmax) / float(24 * n)
        out["event_type"].append(str(et))
        out["n"].append(n)
        out["ks_d"].append(round(d, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n": pa.array(out["n"], pa.int64()),
        "ks_d": pa.array(out["ks_d"], pa.float64()),
    })


def q_cochran_armitage(sf_dir: str):
    """Cochran-Armitage trend test of purchase share across the six
    ordered day-parts (hod // 4, scores 0..5): with R_i purchases and
    n_i events per part, T' = N*sum(s*R_i) - R*sum(s*n_i) and
    V' = R*(N-R)*(N*sum(s^2*n_i) - sum(s*n_i)^2) give
    z = T' * sqrt(N) / sqrt(V') — exact ints, two IEEE sqrts, one
    mirrored expression."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        part = ((tms // 3_600_000) % 24) // 4
        purch = (np.asarray(batch["event_type"].to_numpy(
            zero_copy_only=False)) == "purchase").astype(np.int64)
        return pa.table({
            "part": pa.array(part.astype(np.int64)),
            "r": pa.array(purch),
            "n": pa.array(np.ones(len(part), np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["part"], [("r", "sum"), ("n", "sum")],
    ).to_pandas().sort_values("part")
    parts = census["part"].to_numpy(np.int64)
    r_i = census["r"].to_numpy(np.int64)
    n_i = census["n"].to_numpy(np.int64)
    big_n = int(n_i.sum())
    big_r = int(r_i.sum())
    sr = int(sum(int(s) * int(x) for s, x in zip(parts, r_i)))
    sn = int(sum(int(s) * int(x) for s, x in zip(parts, n_i)))
    s2n = int(sum(int(s) * int(s) * int(x) for s, x in zip(parts, n_i)))
    tp = big_n * sr - big_r * sn
    vp = big_r * (big_n - big_r) * (big_n * s2n - sn * sn)
    z = (0.0 if vp <= 0
         else float(tp) * math.sqrt(float(big_n)) / math.sqrt(float(vp)))
    return pa.table({
        "n_events": pa.array([big_n], pa.int64()),
        "n_purchases": pa.array([big_r], pa.int64()),
        "z": pa.array([round(z, 6)], pa.float64()),
    })


# ---------------------------------------------------------------------------
# wave 2: distribution comparison / normality / sketch heavy hitters
# ---------------------------------------------------------------------------

def q_anderson_darling(sf_dir: str):
    """Two-sample Anderson-Darling A^2 between the purchase and view
    value distributions (the cramer_von_mises pair, tail-weighted):
    over the pooled cent-value support, with M = cumA, B = cumA+cumB
    and l = a+b, each term l*(M*N - n*B)^2 / (B*(N-B)) is micro-floored
    with an EXACT integer floor-division (no float hop), the sum is a
    Python bignum (HUGEINT SQL-side), and A^2 = sum / (n*m*1e6) is one
    mirrored division.  The last support point (B = N) drops on both
    engines."""
    census = purchase_view_cents(sf_dir)
    a = census["a"].to_numpy(np.int64)
    b = census["b"].to_numpy(np.int64)
    n = int(a.sum())
    m = int(b.sum())
    big_n = n + m
    ca = np.cumsum(a)
    cb = np.cumsum(b)
    total = 0
    for l, big_m, cbv in zip(a + b, ca, cb):
        big_b = int(big_m) + int(cbv)
        if big_b == 0 or big_b >= big_n:
            continue
        num = int(l) * (int(big_m) * big_n - n * big_b) ** 2
        total += (1_000_000 * num) // (big_b * (big_n - big_b))
    a2 = (0.0 if n == 0 or m == 0
          else float(total) / float(n * m * 1_000_000))
    return pa.table({
        "n_purchase": pa.array([n], pa.int64()),
        "n_view": pa.array([m], pa.int64()),
        "ad_a2": pa.array([round(a2, 6)], pa.float64()),
    })


def q_hodges_lehmann(sf_dir: str):
    """Hodges-Lehmann shift estimator for every type pair: the LOWER
    median (k = (n*m+1)//2-th smallest) of all n*m pairwise cent
    differences a_i - b_j.  The pairwise-difference distribution is a
    weighted convolution of the two cent-value censuses, so the k-th
    order statistic comes from an exact integer binary search over the
    difference range, each probe one O(D) cumsum pass — never the n*m
    pairs, never the D^2 convolution.  The SQL oracle materializes the
    D_a x D_b weighted support instead (bounded by the value DOMAIN,
    not the row count) and takes the same order statistic."""
    census = cent_census(sf_dir)
    prof = {}
    for et, grp in census.groupby("event_type", sort=True):
        g = grp.sort_values("cv")
        prof[str(et)] = (g["cv"].to_numpy(np.int64),
                         g["n"].to_numpy(np.int64))
    types = sorted(prof)
    out = {"type_a": [], "type_b": [], "hl_cents": [], "hl": []}
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            va, caw = prof[ta]
            vb, cbw = prof[tb]
            n = int(caw.sum())
            m = int(cbw.sum())
            k = (n * m + 1) // 2
            cum_b = np.cumsum(cbw)

            def count_le(d: int) -> int:
                # pairs with va - vb <= d  <=>  vb >= va - d
                pos = np.searchsorted(vb, va - d, side="left")
                below = np.where(pos > 0, cum_b[pos - 1], 0)
                return int((caw * (m - below)).sum())

            lo = int(va[0] - vb[-1])
            hi = int(va[-1] - vb[0])
            while lo < hi:
                mid = (lo + hi) // 2
                if count_le(mid) >= k:
                    hi = mid
                else:
                    lo = mid + 1
            out["type_a"].append(ta)
            out["type_b"].append(tb)
            out["hl_cents"].append(lo)
            out["hl"].append(round(lo / 100.0, 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "hl_cents": pa.array(out["hl_cents"], pa.int64()),
        "hl": pa.array(out["hl"], pa.float64()),
    })


def q_jarque_bera(sf_dir: str):
    """Jarque-Bera normality statistic per type from the cent-value
    census moments: the centered sums A2 = n*S2 - S1^2,
    A3 = n^2*S3 - 3n*S1*S2 + 2*S1^3, A4 = n^3*S4 - 4n^2*S1*S3
    + 6n*S1^2*S2 - 3*S1^4 give skew = A3/(A2*sqrt(A2)) and
    kurt = A4/A2^2 - 3 with NO n-powers left over, and
    JB = n*(skew^2/6 + kurt^2/24).  S1..S4 are exact (bignum / HUGEINT
    over census cells); the A-chain runs in doubles with a
    token-identical expression on both engines (IEEE products are
    correctly rounded, so the chain is bit-identical)."""
    census = cent_census(sf_dir)
    out = {"event_type": [], "n": [], "jb": []}
    for et, grp in census.groupby("event_type", sort=True):
        v = [int(x) for x in grp["cv"]]
        c = [int(x) for x in grp["n"]]
        n = sum(c)
        s1 = sum(ci * vi for ci, vi in zip(c, v))
        s2 = sum(ci * vi * vi for ci, vi in zip(c, v))
        s3 = sum(ci * vi ** 3 for ci, vi in zip(c, v))
        s4 = sum(ci * vi ** 4 for ci, vi in zip(c, v))
        fn, f1, f2, f3, f4 = (float(n), float(s1), float(s2), float(s3),
                              float(s4))
        a2 = fn * f2 - f1 * f1
        a3 = fn * fn * f3 - 3.0 * fn * f1 * f2 + 2.0 * f1 * f1 * f1
        a4 = (fn * fn * fn * f4 - 4.0 * fn * fn * f1 * f3
              + 6.0 * fn * f1 * f1 * f2 - 3.0 * f1 * f1 * f1 * f1)
        if a2 <= 0.0:
            jb = 0.0
        else:
            skew = a3 / (a2 * math.sqrt(a2))
            kurt = a4 / (a2 * a2) - 3.0
            jb = fn * (skew * skew / 6.0 + kurt * kurt / 24.0)
        out["event_type"].append(str(et))
        out["n"].append(n)
        out["jb"].append(round(jb, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n": pa.array(out["n"], pa.int64()),
        "jb": pa.array(out["jb"], pa.float64()),
    })


def q_heavy_hitters(sf_dir: str):
    """EXACT corpus heavy hitters (terms with count * 64 > N) through a
    REAL mergeable Misra-Gries sketch: pass 1 compresses each batch's
    term counts to a k=255 MG summary (per-batch undercount <=
    batch_N/256, additive under the sharded merge — Agarwal et al.
    mergeable summaries), so any term above N/64 survives with merged
    lower bound >= 3N/256; the global top 4096 by merged bound
    (<< bound, ~86 possible survivors) broadcast as CANDIDATES for an
    exact recount pass, and the final filter count*64 > N is exact —
    the sketch bounds make the two-pass result EQUAL to the full-census
    answer, which is the SQL oracle."""
    from collections import Counter

    import ray

    from ..stages.keyed import topk_per_group

    ds = _read(sf_dir, "documents", ["text"])
    k_sketch = 255

    def mg_partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        n_batch = 0
        for t in batch["text"].to_pylist():
            toks = [m.lower() for m in WORD_RE.findall(t or "")]
            n_batch += len(toks)
            counts.update(toks)
        # Misra-Gries compression: keep k heaviest, subtract the
        # (k+1)-th count from each survivor (the classic decrement run)
        if len(counts) > k_sketch:
            top = counts.most_common(k_sketch + 1)
            cut = top[k_sketch][1]
            counts = Counter({t: c - cut for t, c in top[:k_sketch]
                              if c > cut})
        terms = sorted(counts)
        t1 = pa.table({
            "term": pa.array(["\x00total"] + terms, pa.string()),
            "n": pa.array([n_batch] + [counts[t] for t in terms],
                          pa.int64()),
        })
        return t1

    import pyarrow.compute as pc

    merged = sharded_grouped_agg(
        ds.map_batches(mg_partial, batch_format="pyarrow"),
        ["term"], [("n", "sum")],
    ).materialize()

    def take_total(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["term"], "\x00total"))

    def drop_total(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.not_equal(batch["term"], "\x00total"))
        return t.append_column(
            "_g", pa.array(np.zeros(t.num_rows, np.int64)))

    big_n = int(merged.map_batches(take_total, batch_format="pyarrow")
                .to_pandas()["n"].sum())
    cand = topk_per_group(
        merged.map_batches(drop_total, batch_format="pyarrow"),
        ["_g"], "n", 4096, tiebreak_col="term",
    ).to_pandas()
    cand_ref = ray.put(set(cand["term"].astype(str)))

    def recount(batch: pa.Table, _c=cand_ref) -> pa.Table:
        cset = ray.get(_c)
        counts: Counter = Counter()
        for t in batch["text"].to_pylist():
            for m in WORD_RE.findall(t or ""):
                w = m.lower()
                if w in cset:
                    counts[w] += 1
        terms = sorted(counts)
        return pa.table({
            "term": pa.array(terms, pa.string()),
            "n": pa.array([counts[t] for t in terms], pa.int64()),
        })

    exact = sharded_grouped_agg(
        ds.map_batches(recount, batch_format="pyarrow"),
        ["term"], [("n", "sum")],
    ).to_pandas()
    keep = exact[exact["n"] * 64 > big_n].sort_values("term")
    return pa.table({
        "term": pa.array(keep["term"].astype(str), pa.string()),
        "n": pa.array(keep["n"].astype(np.int64), pa.int64()),
    })


def q_ccnet_buckets(sf_dir: str):
    """CCNet-style perplexity bucketing: every document scored by the
    corpus unigram LM (:func:`stages.textstats.unigram_logprob` — the
    already-oracled nll), bucketed head/middle/tail at the EXACT
    tercile thresholds of the centi-nat census (t = smallest centi-nll
    with 3*cum >= k*N — the order-statistic-threshold protocol, never a
    float quantile).  Output: per-bucket doc counts + the two
    thresholds; the curation step that keeps the 'head' slice of a
    crawl.  Driver holds the centi-nll census (bounded by the score
    DOMAIN, a few thousand cells)."""
    from ..stages.textstats import unigram_logprob

    scored = unigram_logprob(_read(sf_dir, "documents", ["doc_id", "text"]))

    def partial(batch: pa.Table) -> pa.Table:
        b = np.floor(
            batch["nll"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({"b": pa.array(b), "c": pa.array(np.ones(len(b), np.int64))})

    census = sharded_grouped_agg(
        scored.map_batches(partial, batch_format="pyarrow"),
        ["b"], [("c", "sum")],
    ).to_pandas().sort_values("b")
    b = census["b"].to_numpy(np.int64)
    c = census["c"].to_numpy(np.int64)
    n = int(c.sum())
    cum = np.cumsum(c)
    t1 = int(b[int(np.argmax(3 * cum >= n))])
    t2 = int(b[int(np.argmax(3 * cum >= 2 * n))])
    n_head = int(cum[np.searchsorted(b, t1)])
    n_mid = int(cum[np.searchsorted(b, t2)]) - n_head
    n_tail = n - n_head - n_mid
    return pa.table({
        "bucket": pa.array(["head", "middle", "tail"], pa.string()),
        "n_docs": pa.array([n_head, n_mid, n_tail], pa.int64()),
        "thr_centinll": pa.array([t1, t2, int(b[-1])], pa.int64()),
    })


def q_ge2_index(sf_dir: str):
    """Generalized entropy inequality index GE(2) of event values per
    type: GE(2) = (n*S2/S1^2 - 1)/2 — half the squared coefficient of
    variation, the top-sensitive member of the GE family (theil_index
    is GE(1)).  Exact ints to one mirrored expression."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        cv = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({
            "event_type": batch["event_type"],
            "n": pa.array(np.ones(len(cv), np.int64)),
            "s1": pa.array(cv),
            "s2": pa.array(cv * cv),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type"], [("n", "sum"), ("s1", "sum"), ("s2", "sum")],
    ).to_pandas()
    out = {"event_type": [], "n": [], "ge2": []}
    for _, r in census.sort_values("event_type").iterrows():
        n, s1, s2 = int(r["n"]), int(r["s1"]), int(r["s2"])
        ge2 = (0.0 if s1 == 0
               else (float(n * s2) / float(s1 * s1) - 1.0) / 2.0)
        out["event_type"].append(str(r["event_type"]))
        out["n"].append(n)
        out["ge2"].append(round(ge2, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n": pa.array(out["n"], pa.int64()),
        "ge2": pa.array(out["ge2"], pa.float64()),
    })


def q_g_test(sf_dir: str):
    """G-test (likelihood-ratio) of independence for the
    (event_type x day-of-week) contingency table — chi2_independence's
    information-theoretic sibling: G = 2 * sum O_ij * ln(O_ij * N /
    (R_i * C_j)).  Each cell's ln has an exact-int ratio argument and is
    micro-floored, the weighted sum O_ij * lnhat is an associative
    exact-integer sum (bignum / HUGEINT), and G = 2 * total / 1e6 is one
    mirrored division.  Empty cells contribute zero (lim x ln x = 0) on
    both engines."""
    census = dow_census(sf_dir)
    r_tot = census.groupby("event_type")["n"].sum().to_dict()
    c_tot = census.groupby("dow")["n"].sum().to_dict()
    big_n = int(census["n"].sum())
    total = 0
    for _, row in census.iterrows():
        o = int(row["n"])
        if o == 0:
            continue
        num = o * big_n
        den = int(r_tot[row["event_type"]]) * int(c_tot[int(row["dow"])])
        total += o * math.floor(math.log(float(num) / float(den)) * 1e6)
    g_stat = 2.0 * float(total) / 1e6
    return pa.table({
        "n": pa.array([big_n], pa.int64()),
        "g_stat": pa.array([round(g_stat, 6)], pa.float64()),
    })


def q_pielou_j(sf_dir: str):
    """Pielou's evenness J = H_shannon / ln(k) of the event-type
    distribution: H*N*1e6 = -sum n_i * floor(ln(n_i/N)*1e6) is an exact
    integer, ln k is micro-floored, and J = -sum / (N * lnk_micro) is
    one mirrored division (J = 1 means perfectly even types)."""
    ds = _read(sf_dir, "events", ["event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch["event_type"],
            "n": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type"], [("n", "sum")],
    ).to_pandas()
    counts = [int(x) for x in census["n"]]
    k = len(counts)
    big_n = sum(counts)
    if k <= 1 or big_n == 0:
        j = 0.0
    else:
        tot = -sum(c * math.floor(math.log(float(c) / float(big_n)) * 1e6)
                   for c in counts if c > 0)
        lnk = math.floor(math.log(float(k)) * 1e6)
        j = float(tot) / float(big_n * lnk)
    return pa.table({
        "k_types": pa.array([k], pa.int64()),
        "n": pa.array([big_n], pa.int64()),
        "pielou_j": pa.array([round(j, 6)], pa.float64()),
    })


def q_dixon_q(sf_dir: str):
    """Dixon's Q gap statistics per type, both ends, from the cent-value
    census extremes: Q_low = (x(2)-x(1))/(x(n)-x(1)) and Q_high =
    (x(n)-x(n-1))/(x(n)-x(1)) where x(2)/x(n-1) are the second DISTINCT
    values (ties collapse in the census) — exact ints to one mirrored
    division each; constant series emit 0.0."""
    census = cent_census(sf_dir)
    out = {"event_type": [], "q_low": [], "q_high": []}
    for et, grp in census.groupby("event_type", sort=True):
        v = np.sort(grp["cv"].to_numpy(np.int64))
        rng = int(v[-1] - v[0])
        if len(v) < 2 or rng == 0:
            ql = qh = 0.0
        else:
            ql = float(int(v[1] - v[0])) / float(rng)
            qh = float(int(v[-1] - v[-2])) / float(rng)
        out["event_type"].append(str(et))
        out["q_low"].append(round(ql, 6))
        out["q_high"].append(round(qh, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "q_low": pa.array(out["q_low"], pa.float64()),
        "q_high": pa.array(out["q_high"], pa.float64()),
    })


def q_theil_u(sf_dir: str):
    """Theil's uncertainty coefficient U(type | dow) — the normalized
    mutual information "how much does knowing the weekday reduce type
    entropy": with T1 = -sum n_i * lnhat(n_i/N) (type marginal entropy
    scaled by N*1e6, exact int) and T2 = -sum n_xy * lnhat(n_xy/n_x)
    (conditional), U = (T1 - T2) / T1 — micro-floored lns of exact-int
    ratios, associative integer sums, ONE mirrored division."""
    census = dow_census(sf_dir)
    r_tot = {k: int(v) for k, v in
             census.groupby("event_type")["n"].sum().items()}
    c_tot = {int(k): int(v) for k, v in
             census.groupby("dow")["n"].sum().items()}
    big_n = int(census["n"].sum())
    t1 = -sum(v * math.floor(math.log(float(v) / float(big_n)) * 1e6)
              for v in r_tot.values() if v > 0)
    t2 = 0
    for _, row in census.iterrows():
        o = int(row["n"])
        if o == 0:
            continue
        cx = c_tot[int(row["dow"])]
        t2 -= o * math.floor(math.log(float(o) / float(cx)) * 1e6)
    u = 0.0 if t1 == 0 else float(t1 - t2) / float(t1)
    return pa.table({
        "n": pa.array([big_n], pa.int64()),
        "theil_u": pa.array([round(u, 6)], pa.float64()),
    })


def q_bowker(sf_dir: str):
    """Bowker's symmetry test of per-user MODAL event type across the
    activity midpoint (mid = (min_day + max_day + 1)//2): the k x k
    (early modal, late modal) table from a user-keyed census (modal =
    highest count, ties to the lexicographically smallest type — the
    SQL row_number convention), then chi2 = sum_{i<j, n_ij+n_ji>0}
    (n_ij - n_ji)^2 / (n_ij + n_ji) as a sum of micro-floored
    exact-integer ratios; df counts the non-degenerate pairs.  Users
    active in only one half drop (no pair)."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def bounds_partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        day = (tms // 86_400_000).astype(np.int64)
        return pa.table({
            "g": pa.array(np.zeros(len(day), np.int64)),
            "lo": pa.array(day),
            "hi": pa.array(day),
        })

    b = sharded_grouped_agg(
        ds.map_batches(bounds_partial, batch_format="pyarrow"),
        ["g"], [("lo", "min"), ("hi", "max")],
    ).to_pandas()
    mid = (int(b["lo"][0]) + int(b["hi"][0]) + 1) // 2

    def partial(batch: pa.Table, mid=mid) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        half = ((tms // 86_400_000) >= mid).astype(np.int64)
        return pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "half": pa.array(half),
            "event_type": batch["event_type"],
            "n": pa.array(np.ones(len(half), np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id", "half", "event_type"], [("n", "sum")],
    ).to_pandas()
    # per (user, half) modal type: count desc, type asc
    census = census.sort_values(
        ["user_id", "half", "n", "event_type"],
        ascending=[True, True, False, True], kind="mergesort")
    modal = census.groupby(["user_id", "half"], sort=True).first() \
        .reset_index()
    piv: dict[tuple[str, str], int] = {}
    for uid, grp in modal.groupby("user_id"):
        halves = dict(zip(grp["half"].astype(int), grp["event_type"]))
        if 0 in halves and 1 in halves:
            key = (str(halves[0]), str(halves[1]))
            piv[key] = piv.get(key, 0) + 1
    types = sorted({a for a, _ in piv} | {b for _, b in piv})
    total = 0
    df = 0
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            nij = piv.get((ta, tb), 0)
            nji = piv.get((tb, ta), 0)
            if nij + nji == 0:
                continue
            df += 1
            total += (1_000_000 * (nij - nji) ** 2) // (nij + nji)
    chi2 = float(total) / 1e6
    return pa.table({
        "mid_day": pa.array([mid], pa.int64()),
        "df": pa.array([df], pa.int64()),
        "bowker_chi2": pa.array([round(chi2, 6)], pa.float64()),
    })


def q_chao1(sf_dir: str):
    """Chao1 richness estimator of the unseen vocabulary:
    S = V + V1^2/(2*V2) (bias-corrected V + V1(V1-1)/(2(V2+1)) when
    V2 = 0) — the classic abundance-based species-richness bound, here
    on word types.  Rides the same frequency-of-frequencies census as
    yule_k; exact ints to one mirrored division."""
    f = freq_of_freq(sf_dir)
    v, v1, v2 = f["v"], f["v1"], f["v2"]
    if v2 > 0:
        chao = float(v) + float(v1 * v1) / float(2 * v2)
    else:
        chao = float(v) + float(v1 * (v1 - 1)) / 2.0
    return pa.table({
        "vocab": pa.array([v], pa.int64()),
        "n_hapax": pa.array([v1], pa.int64()),
        "chao1": pa.array([round(chao, 6)], pa.float64()),
    })


def _lang_vocab_census(sf_dir: str):
    """(lang-presence-bitmask -> distinct-term count) from ONE
    term-sharded exchange: the (lang, term) census folds IN-SHARD to at
    most 2^n_langs subset-count cells, so the driver holds the langs'
    full vocabulary Venn diagram in a handful of ints."""
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        seen: set = set()
        for lang, t in zip(batch["lang"].to_pylist(),
                           batch["text"].to_pylist()):
            for m in WORD_RE.findall(t or ""):
                seen.add((lang or "", m.lower()))
        keys = sorted(seen)
        return pa.table({
            "lang": pa.array([k[0] for k in keys], pa.string()),
            "term": pa.array([k[1] for k in keys], pa.string()),
            "one": pa.array(np.ones(len(keys), np.int64)),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang", "term"], [("one", "max")],
    )
    # fold to per-term lang sets INSIDE a term-sharded task, emit
    # (langset, count) combiner rows
    from ..stages.common import shard_apply

    def fold(group: pa.Table) -> pa.Table:
        from collections import Counter as C

        sets: dict[str, frozenset] = {}
        acc: dict[str, set] = {}
        for lang, term in zip(group["lang"].to_pylist(),
                              group["term"].to_pylist()):
            acc.setdefault(term, set()).add(lang)
        cnt: C = C()
        for term, langs in acc.items():
            cnt[",".join(sorted(langs))] += 1
        keys = sorted(cnt)
        return pa.table({
            "langset": pa.array(keys, pa.string()),
            "nterms": pa.array([cnt[k] for k in keys], pa.int64()),
        })

    venn = sharded_grouped_agg(
        shard_apply(census, ["term"], fold),
        ["langset"], [("nterms", "sum")],
    ).to_pandas()
    return {str(r["langset"]): int(r["nterms"])
            for _, r in venn.iterrows()}


def q_lang_vocab_overlap(sf_dir: str):
    """Vocabulary overlap for every language pair: |A and B|,
    |A or B|, Jaccard, Szymkiewicz-Simpson overlap and Dice — all
    exact-integer set sizes from the language Venn census (one
    term-sharded exchange; the driver holds <= 2^k subset counts), each
    coefficient one mirrored division."""
    venn = _lang_vocab_census(sf_dir)
    langs = sorted({l for k in venn for l in k.split(",")})
    out = {"lang_a": [], "lang_b": [], "n_inter": [], "n_union": [],
           "jaccard": [], "overlap": [], "dice": []}
    for i, la in enumerate(langs):
        for lb in langs[i + 1:]:
            va = sum(n for k, n in venn.items() if la in k.split(","))
            vb = sum(n for k, n in venn.items() if lb in k.split(","))
            inter = sum(n for k, n in venn.items()
                        if la in k.split(",") and lb in k.split(","))
            union = va + vb - inter
            out["lang_a"].append(la)
            out["lang_b"].append(lb)
            out["n_inter"].append(inter)
            out["n_union"].append(union)
            out["jaccard"].append(
                round(0.0 if union == 0 else float(inter) / float(union),
                      6))
            mn = min(va, vb)
            out["overlap"].append(
                round(0.0 if mn == 0 else float(inter) / float(mn), 6))
            out["dice"].append(
                round(0.0 if va + vb == 0
                      else float(2 * inter) / float(va + vb), 6))
    return pa.table({
        "lang_a": pa.array(out["lang_a"], pa.string()),
        "lang_b": pa.array(out["lang_b"], pa.string()),
        "n_inter": pa.array(out["n_inter"], pa.int64()),
        "n_union": pa.array(out["n_union"], pa.int64()),
        "jaccard": pa.array(out["jaccard"], pa.float64()),
        "overlap": pa.array(out["overlap"], pa.float64()),
        "dice": pa.array(out["dice"], pa.float64()),
    })


def q_whittaker_beta(sf_dir: str):
    """Whittaker's beta diversity of vocabulary across languages:
    beta = k * S_gamma / sum(S_lang) - 1 (0 = every language shares one
    vocabulary, k-1 = fully disjoint).  Exact ints from the same Venn
    census; one mirrored expression."""
    venn = _lang_vocab_census(sf_dir)
    langs = sorted({l for k in venn for l in k.split(",")})
    k = len(langs)
    gamma = sum(venn.values())
    alpha_sum = sum(sum(n for key, n in venn.items()
                        if la in key.split(","))
                    for la in langs)
    beta = (0.0 if alpha_sum == 0
            else float(k * gamma) / float(alpha_sum) - 1.0)
    return pa.table({
        "k_langs": pa.array([k], pa.int64()),
        "gamma_vocab": pa.array([gamma], pa.int64()),
        "whittaker_beta": pa.array([round(beta, 6)], pa.float64()),
    })


def q_hill_numbers(sf_dir: str):
    """Hill diversity profile of the vocabulary: q=0 is richness V,
    q=2 is the inverse Simpson concentration N^2/S2 (exact integer
    ratio), and q=1 (exp of Shannon entropy) is reported in the LOG
    domain per the no-cross-engine-exp protocol: h1_micronats =
    N*1e6-scaled exact integer entropy divided by N."""
    f = freq_of_freq(sf_dir)
    n, v, s2 = f["n"], f["v"], f["s2"]
    # recompute per-m entropy needs the full (m, vm) census: reuse the
    # helper's aggregates plus one more pass is avoidable — H derives
    # from the census inside freq_of_freq; keep the exact sum here
    from collections import Counter  # noqa: F401  (doc parity)

    # entropy: -sum m*Vm * lnhat(m/N) needs (m, vm) rows; fold it from
    # a second census pass kept inside this query for self-containment
    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter as C

        counts: C = C()
        for t in batch["text"].to_pylist():
            counts.update(m.lower() for m in WORD_RE.findall(t or ""))
        terms = list(counts.keys())
        return pa.table({
            "term": pa.array(terms, pa.string()),
            "n": pa.array([counts[t] for t in terms], pa.int64()),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["term"], [("n", "sum")],
    )

    def ent_partial(batch: pa.Table, n=n) -> pa.Table:
        m = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = np.array([-int(x) * math.floor(
            math.log(float(int(x)) / float(n)) * 1e6) for x in m],
            dtype=object)
        return pa.table({
            "g": pa.array([0], pa.int64()),
            "h": pa.array([int(sum(t))], pa.int64()),
        })

    hsum = sharded_grouped_agg(
        census.map_batches(ent_partial, batch_format="pyarrow"),
        ["g"], [("h", "sum")],
    ).to_pandas()
    h_total = int(hsum["h"].sum())
    h1 = 0.0 if n == 0 else float(h_total) / float(n)  # micro-nats
    q2 = 0.0 if s2 == 0 else float(n * n) / float(s2)
    return pa.table({
        "hill_q0": pa.array([v], pa.int64()),
        "h1_micronats": pa.array([round(h1, 6)], pa.float64()),
        "hill_q2": pa.array([round(q2, 6)], pa.float64()),
    })


def q_mcintosh_d(sf_dir: str):
    """McIntosh diversity U-based index D = (N - sqrt(S2)) /
    (N - sqrt(N)) over the vocabulary abundance vector — exact ints
    into one mirrored sqrt expression."""
    f = freq_of_freq(sf_dir)
    n, s2 = f["n"], f["s2"]
    d = (0.0 if n <= 1
         else (float(n) - math.sqrt(float(s2)))
         / (float(n) - math.sqrt(float(n))))
    return pa.table({
        "n_tokens": pa.array([n], pa.int64()),
        "mcintosh_d": pa.array([round(d, 6)], pa.float64()),
    })


def q_margalef(sf_dir: str):
    """Margalef richness R = (V - 1) / ln N and Berger-Parker dominance
    d = max_m / N from the same frequency census — one micro-floored ln
    and two mirrored divisions."""
    census = term_census(sf_dir)

    def agg_partial(batch: pa.Table) -> pa.Table:
        m = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "g": pa.array([0], pa.int64()),
            "v": pa.array([len(m)], pa.int64()),
            "n": pa.array([int(m.sum())], pa.int64()),
            "mx": pa.array([int(m.max()) if len(m) else 0], pa.int64()),
        })

    a = sharded_grouped_agg(
        census.map_batches(agg_partial, batch_format="pyarrow"),
        ["g"], [("v", "sum"), ("n", "sum"), ("mx", "max")],
    ).to_pandas()
    v = int(a["v"].sum())
    n = int(a["n"].sum())
    mx = int(a["mx"].max())
    if n <= 1:
        r = 0.0
    else:
        lnn = math.floor(math.log(float(n)) * 1e6)
        r = float((v - 1) * 1_000_000) / float(lnn)
    bp = 0.0 if n == 0 else float(mx) / float(n)
    return pa.table({
        "vocab": pa.array([v], pa.int64()),
        "n_tokens": pa.array([n], pa.int64()),
        "margalef_r": pa.array([round(r, 6)], pa.float64()),
        "berger_parker": pa.array([round(bp, 6)], pa.float64()),
    })


def q_ace_richness(sf_dir: str):
    """ACE (abundance-based coverage) richness estimator from the
    frequency-of-frequencies census: with rare species = terms of count
    <= 10, S_ACE = S_abund + S_rare/C + (F1/C) * gamma^2 where
    C = 1 - F1/N_rare and gamma^2 = max(S_rare * sumi / (C * N_rare *
    (N_rare - 1)) - 1, 0), sumi = sum i(i-1)F_i.  Exact integers into a
    token-identical mirrored double chain (divisions and max only);
    degenerate C = 0 (all rare terms are hapax) falls back to the
    Chao1-style bias-corrected form -> 0.0 extra to keep both engines
    aligned we emit S_abund + S_rare (no correction)."""
    ff = freq_of_freq_census(sf_dir)
    m = ff["m"].to_numpy(np.int64)
    vm = ff["vm"].to_numpy(np.int64)
    rare = m <= 10
    s_rare = int(vm[rare].sum())
    s_abund = int(vm[~rare].sum())
    n_rare = int(sum(int(a) * int(b) for a, b in zip(m[rare], vm[rare])))
    f1 = int(vm[m == 1].sum())
    sumi = int(sum(int(a) * (int(a) - 1) * int(b)
                   for a, b in zip(m[rare], vm[rare])))
    if n_rare == 0 or n_rare == f1 or n_rare < 2:
        ace = float(s_abund + s_rare)
    else:
        c = 1.0 - float(f1) / float(n_rare)
        g2 = (float(s_rare) * float(sumi)
              / (c * float(n_rare) * float(n_rare - 1)) - 1.0)
        if g2 < 0.0:
            g2 = 0.0
        ace = (float(s_abund) + float(s_rare) / c
               + float(f1) / c * g2)
    return pa.table({
        "s_rare": pa.array([s_rare], pa.int64()),
        "s_abund": pa.array([s_abund], pa.int64()),
        "ace": pa.array([round(ace, 6)], pa.float64()),
    })


def q_lexical_gini(sf_dir: str):
    """Gini coefficient of the term-frequency distribution (how
    concentrated is token mass across the vocabulary): over abundances
    sorted ascending with tie blocks from the freq-of-freq census, the
    rank sum sum_i (2i - V - 1) x_i has the exact closed form
    sum_blocks m * v * (2a + v - V) (a = terms before the block), and
    G = ranksum / (V * N) — exact bignum ints to one mirrored
    division."""
    f_ff = freq_of_freq(sf_dir)
    # need the (m, vm) rows again: recompute the tiny census (the
    # helper returns aggregates only) — same two passes
    ff = freq_of_freq_census(sf_dir).sort_values("m")
    big_v = f_ff["v"]
    big_n = f_ff["n"]
    ranksum = 0
    a = 0
    for _, row in ff.iterrows():
        mm, vv = int(row["m"]), int(row["vm"])
        ranksum += mm * vv * (2 * a + vv - big_v)
        a += vv
    g = 0.0 if big_v == 0 or big_n == 0 \
        else float(ranksum) / float(big_v * big_n)
    return pa.table({
        "vocab": pa.array([big_v], pa.int64()),
        "n_tokens": pa.array([big_n], pa.int64()),
        "lexical_gini": pa.array([round(g, 6)], pa.float64()),
    })


def q_runs_updown(sf_dir: str):
    """Difference-sign (up/down) runs test per type over the hourly
    series: drop zero diffs, count maximal runs of equal sign R; under
    randomness E[R] = (2n+1)/3 and Var = (16n-13)/90 over the n
    retained signs (the usual tie-dropped convention), z =
    (3R - (2n+1)) / (3*sqrt((16n-13)/90)) as ONE mirrored expression of
    exact ints.  Distinct from runs_test (above/below median) and
    turning_points (local extrema)."""
    series, _big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "n_signs": [], "n_runs": [], "z": []}
    for et in sorted(series):
        d = np.diff(series[et])
        s = np.sign(d)
        s = s[s != 0]
        n = int(s.size)
        if n == 0:
            r = 0
            z = 0.0
        else:
            r = 1 + int(np.count_nonzero(s[1:] != s[:-1]))
            var_n = 16 * n - 13
            z = (0.0 if var_n <= 0 else
                 (3.0 * float(r) - float(2 * n + 1))
                 / (3.0 * math.sqrt(float(var_n) / 90.0)))
        out["event_type"].append(et)
        out["n_signs"].append(n)
        out["n_runs"].append(r)
        out["z"].append(round(z, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n_signs": pa.array(out["n_signs"], pa.int64()),
        "n_runs": pa.array(out["n_runs"], pa.int64()),
        "z": pa.array(out["z"], pa.float64()),
    })


def q_bartels_rvn(sf_dir: str):
    """Bartels' rank von Neumann ratio per type — the rank-based
    randomness test: with doubled midranks r2 over the hourly counts,
    RVN = H * sum (r2_t - r2_{t+1})^2 / (H * sum r2^2 - (sum r2)^2)
    (the common H-scale cancels, tie blocks enter through the exact
    doubled midranks).  Exact bignum/HUGEINT integers to one mirrored
    division; RVN ~ 2 under randomness."""
    series, big_h = dense_hour_counts(sf_dir)
    out = {"event_type": [], "rvn": []}
    for et in sorted(series):
        c = series[et]
        vals, inv, counts = np.unique(c, return_inverse=True,
                                      return_counts=True)
        below = np.concatenate([[0], np.cumsum(counts)[:-1]])
        r2 = (2 * below + counts + 1)[inv].astype(np.int64)
        num = int(sum(int(x) * int(x) for x in np.diff(r2)))
        s1 = int(r2.sum())
        s2 = int(sum(int(x) * int(x) for x in r2))
        den = big_h * s2 - s1 * s1
        rvn = 0.0 if den == 0 else float(big_h * num) / float(den)
        out["event_type"].append(et)
        out["rvn"].append(round(rvn, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "rvn": pa.array(out["rvn"], pa.float64()),
    })


def q_seasonal_mk(sf_dir: str):
    """Seasonal Mann-Kendall trend test per type: the MK statistic
    computed WITHIN each hour-of-day sub-series of the dense hourly
    grid (pairs only between same-hod hours, so the diurnal cycle
    cannot masquerade as trend), S and the tie-corrected variance
    numerator summed across the 24 seasons, z with the +-1 continuity
    correction (the mann_kendall convention).  Exact integers to one
    mirrored float expression."""
    series, big_h = dense_hour_counts(sf_dir)
    # hod of grid position i is (h_lo + i) % 24; reconstruct h_lo parity
    # via the census helper contract: positions are hr - h_lo, so we
    # need h_lo itself — recompute from the events (one tiny aggregate)
    ds = _read(sf_dir, "events", ["ts"])

    def lo_partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        hr = tms // 3_600_000
        return pa.table({
            "g": pa.array([0], pa.int64()),
            "lo": pa.array([int(hr.min())], pa.int64()),
        })

    lo_t = sharded_grouped_agg(
        ds.map_batches(lo_partial, batch_format="pyarrow"),
        ["g"], [("lo", "min")],
    ).to_pandas()
    h_lo = int(lo_t["lo"].min())
    out = {"event_type": [], "s_stat": [], "var_num": [], "z": []}
    for et in sorted(series):
        c = series[et]
        s_tot = 0
        var_num = 0
        for hod in range(24):
            # first grid position with hour-of-day == hod, then stride 24
            x = c[(hod - h_lo) % 24::24]
            nh = len(x)
            if nh < 2:
                continue
            # exact O(nh log nh) merge-inversion S (pairstats kernel) —
            # same values as the former triu sign-matrix scan
            s_tot += concordance_s(x)
            var_num += nh * (nh - 1) * (2 * nh + 5)
            _, t = np.unique(x, return_counts=True)
            var_num -= int(sum(int(u) * (int(u) - 1) * (2 * int(u) + 5)
                               for u in t))
        if s_tot > 0:
            z = (float(s_tot) - 1.0) / math.sqrt(float(var_num) / 18.0)
        elif s_tot < 0:
            z = (float(s_tot) + 1.0) / math.sqrt(float(var_num) / 18.0)
        else:
            z = 0.0
        out["event_type"].append(et)
        out["s_stat"].append(s_tot)
        out["var_num"].append(var_num)
        out["z"].append(round(z, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "s_stat": pa.array(out["s_stat"], pa.int64()),
        "var_num": pa.array(out["var_num"], pa.int64()),
        "z": pa.array(out["z"], pa.float64()),
    })
