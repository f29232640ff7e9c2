"""Session-10 extras: pure-video frame sampling, k-hop graph reachability,
l-diversity privacy audit, interpolated quantiles and exact mode.

House protocols as everywhere (pipelines/queries.py): per-batch Arrow
combiners, censuses bounded by value domain / dim cardinality, exact-int
math until one mirrored float expression shared with the SQL oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.keyed import count_distinct_per_group, sharded_grouped_agg
from .qsubstrate import (
    _doc_size_buckets,
    _read,
    cent_census,
    hod_census,
    hour_census,
    user_ts_spans,
)


def q_video_pure_frames(sf_dir: str):
    """REAL video decode in the battery: every document becomes a 6-frame
    NPMV 'motion netpbm' video (8x8 P5 frames, pixel(f, r, c) =
    (doc_id*31 + f*11 + r*7 + c*3) % 256), REALLY encoded then REALLY
    seek-decoded at stride 2 (frames 0, 2, 4) by the
    PureVideoFrameSampler actor pool — exact integer pixel sums the
    oracle expands arithmetically.  Closes the video path's value check:
    container parse, frame seek, pixel decode and in-batch pooling are
    all real; only MP4-class codecs remain stubbed (need ffmpeg)."""
    from ..stages.multimodal import encode_npmv, sample_pure_video_frames

    ds = _read(sf_dir, "documents", ["doc_id"])

    def to_media(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        r = np.arange(8)[:, None]
        c = np.arange(8)[None, :]
        payloads = []
        for d in ids:
            frames = []
            for f in range(6):
                v = ((int(d) * 31 + f * 11 + r * 7 + c * 3) % 256).astype(
                    np.uint8
                )
                frames.append(b"P5\n8 8\n255\n" + v.tobytes())
            payloads.append(encode_npmv(frames))
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
        })

    feats = sample_pure_video_frames(
        ds.map_batches(to_media, batch_format="pyarrow"),
        stride=2, concurrency=(1, 4), batch_size=128,
    )

    def fin(batch: pa.Table) -> pa.Table:
        s = batch["pixel_sum"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch["media_id"],
            "n_frames": batch["n_frames_sampled"],
            "pixel_sum": batch["pixel_sum"],
            "mean_pixel": pa.array(s.astype(np.float64) / 192.0, pa.float64()),
        })

    return feats.map_batches(fin, batch_format="pyarrow")


# default driver-side node budget for q_khop_reach: below it the
# frontier broadcasts and visited is a Python set; above it both move
# to sharded Datasets and the driver holds only counts
KHOP_MAX_DRIVER_NODES = 5_000_000


def _khop_sharded_hop(edge_rows, frontier_ds):
    """One BFS hop with NOTHING driver-side: (k, v) edge rows (both
    orientations) co-partition with frontier nodes by k-hash; each shard
    emits the distinct v of edges whose k is in the frontier."""
    from ..stages.common import shard_apply

    def tag_frontier(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "k": pc.cast(batch["node"], pa.int64()),
            "v": pa.array(np.zeros(n, np.int64)),
            "_side": pa.array(np.zeros(n, np.int64)),
        })

    def tag_edges(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "k": pc.cast(batch["k"], pa.int64()),
            "v": pc.cast(batch["v"], pa.int64()),
            "_side": pa.array(np.ones(n, np.int64)),
        })

    def per_shard(group: pa.Table) -> pa.Table:
        side = group["_side"].to_numpy(zero_copy_only=False)
        k = group["k"].to_numpy(zero_copy_only=False)
        fk = np.unique(k[side == 0])
        ek = k[side == 1]
        ev = group["v"].to_numpy(zero_copy_only=False)[side == 1]
        nbrs = np.unique(ev[np.isin(ek, fk)])
        return pa.table({"node": pa.array(nbrs, pa.int64())})

    return shard_apply([edge_rows.map_batches(tag_edges, batch_format="pyarrow"),
                        frontier_ds.map_batches(tag_frontier, batch_format="pyarrow")],
                       ["k"], per_shard)


def q_khop_reach(sf_dir: str, max_driver_nodes: int | None = None):
    """3-hop BFS reachability from the min-doc_id seed over the dup
    relation graph (the triangles edge set: star edges of the
    (lang, n_chars//100) and (source, n_chars//100) relations, traversed
    undirected).  Size-aware two-path frontier plan: the bounded edge
    set materializes once; while the reach set fits
    ``max_driver_nodes`` (default :data:`KHOP_MAX_DRIVER_NODES`) each
    hop broadcasts the frontier (ray.put) and a shuffle-free probe pass
    emits per-batch-distinct neighbors with the visited set on the
    driver.  The moment it outgrows the cap (a web-dense dup relation:
    reach ~ the corpus) BOTH structures escalate to sharded Datasets:
    neighbors come from a k-hash co-partition of (edge rows, frontier)
    (:func:`_khop_sharded_hop`) and the visited subtraction + dedup is
    ONE ``set_op(..., "except")`` membership exchange — the driver
    holds only counts.  Both paths are value-identical
    (pytest-forced).  Oracle: WITH RECURSIVE over the identical edge
    definition."""
    import ray
    import ray.data as rd

    from ..stages.graph import group_star_edges_multi
    from ..stages.joins import set_op

    cap = KHOP_MAX_DRIVER_NODES if max_driver_nodes is None \
        else max_driver_nodes
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])

    d = docs.map_batches(_doc_size_buckets, batch_format="pyarrow")
    seed = int(d.min("doc_id"))
    edges = group_star_edges_multi(
        d, [["lang", "cb"], ["source", "cb"]]
    ).materialize()

    def orient(a_col: str, b_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({"k": pc.cast(batch[a_col], pa.int64()),
                             "v": pc.cast(batch[b_col], pa.int64())})
        return fn

    edge_rows = edges.map_batches(orient("a", "b"), batch_format="pyarrow") \
        .union(edges.map_batches(orient("b", "a"), batch_format="pyarrow"))

    def _nodes_ds(nodes: set) -> rd.Dataset:
        return rd.from_arrow(pa.table({
            "node": pa.array(sorted(nodes), pa.int64())}))

    visited = {seed}
    frontier = {seed}
    visited_ds = None
    frontier_ds = None
    sharded = len(visited) > cap
    if sharded:
        visited_ds = _nodes_ds(visited).materialize()
        frontier_ds = visited_ds
        visited_n = len(visited)
    hop_i = 0
    while hop_i < 3:
        if not sharded:
            f_ref = ray.put(np.sort(np.fromiter(frontier, np.int64)))

            def probe(batch: pa.Table, _f=f_ref) -> pa.Table:
                fa = ray.get(_f)
                a = batch["a"].to_numpy(zero_copy_only=False)
                b = batch["b"].to_numpy(zero_copy_only=False)
                nbrs = np.unique(np.r_[b[np.isin(a, fa)], a[np.isin(b, fa)]])
                return pa.table({"node": pa.array(nbrs, pa.int64())})

            hop = edges.map_batches(probe, batch_format="pyarrow").to_pandas()
            new = set(int(x) for x in hop["node"].unique()) - visited
            if not new:
                break
            if len(visited) + len(new) > cap:
                # escalate: spill both sets to Datasets once, keep going
                sharded = True
                visited_n = len(visited) + len(new)
                visited_ds = _nodes_ds(visited | new).materialize()
                frontier_ds = _nodes_ds(new).materialize()
                hop_i += 1
                continue
            visited |= new
            frontier = new
            hop_i += 1
            continue
        nbrs = _khop_sharded_hop(edge_rows, frontier_ds)
        new_ds = set_op(nbrs, visited_ds, ["node"], "except").materialize()
        n_new = new_ds.count()
        if n_new == 0:
            break
        visited_n += n_new
        visited_ds = visited_ds.union(new_ds).materialize()
        frontier_ds = new_ds
        hop_i += 1
    n_reach = visited_n if sharded else len(visited)
    return pa.table({
        "seed": pa.array([seed], pa.int64()),
        "n_reach": pa.array([int(n_reach)], pa.int64()),
    })


def q_l_diversity(sf_dir: str):
    """l-diversity privacy audit (k_anonymity's companion): for each
    quasi-identifier group (lang, n_chars//1000), the number of DISTINCT
    sensitive values (source) — groups with small l leak the sensitive
    attribute even when k-anonymous.  Exact distinct via
    count_distinct_per_group: only distinct (group, source) combiner rows
    cross the exchange."""
    docs = _read(sf_dir, "documents", ["lang", "source", "n_chars"])

    def prep(batch: pa.Table) -> pa.Table:
        nb = pc.cast(batch["n_chars"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "lang": batch["lang"],
            "size_bucket": pa.array(nb // 1000, pa.int64()),
            "source": batch["source"],
        })

    return count_distinct_per_group(
        docs.map_batches(prep, batch_format="pyarrow"),
        ["lang", "size_bucket"], "source", out_col="l",
    )


def _value_census(sf_dir: str):
    ds = _read(sf_dir, "events", ["value"])

    def census(batch: pa.Table) -> pa.Table:
        cv = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({
            "cv": pa.array(cv),
            "n": pa.array(np.ones(len(cv), np.int64)),
        })

    return sharded_grouped_agg(
        ds.map_batches(census, batch_format="pyarrow"),
        ["cv"], [("n", "sum")],
    ).to_pandas().sort_values("cv")


def q_quantile_cont(sf_dir: str):
    """Linearly-interpolated (PERCENTILE_CONT) p50/p90/p99 of event value
    from the cent census: the rank position (n-1)*pct is kept as an exact
    integer (index = //100, fraction = %100), the lo/hi census lookups
    are exact, and the interpolation lo + (hi-lo)*(frac/100) is ONE
    mirrored float expression — the SQL oracle runs the identical
    explicit formula (NOT quantile_cont, whose internal float rank could
    differ in the last ulp)."""
    census = _value_census(sf_dir)
    cv = census["cv"].to_numpy()
    cum = census["n"].to_numpy().cumsum()
    n = int(cum[-1])
    pcts, qvals = [], []
    for pct in (50, 90, 99):
        pos = (n - 1) * pct
        lo0, fi = pos // 100, pos % 100
        hi0 = min(lo0 + 1, n - 1)
        lo = int(cv[np.searchsorted(cum, lo0 + 1)])
        hi = int(cv[np.searchsorted(cum, hi0 + 1)])
        q_cents = float(lo) + float(hi - lo) * (fi / 100.0)
        pcts.append(pct)
        qvals.append(q_cents / 100.0)
    return pa.table({
        "pct": pa.array(pcts, pa.int64()),
        "q_value": pa.array(qvals, pa.float64()),
    })


def q_mode_value(sf_dir: str):
    """Exact mode of the event value (cent units): census argmax with the
    smallest-value tiebreak — deterministic, unlike SQL mode()."""
    census = _value_census(sf_dir)
    cv = census["cv"].to_numpy()
    n = census["n"].to_numpy()
    order = np.lexsort((cv, -n))
    i = order[0]
    return pa.table({
        "mode_value": pa.array([float(cv[i]) / 100.0], pa.float64()),
        "n_mode": pa.array([int(n[i])], pa.int64()),
    })


# --- second extras wave: moment-census statistics + lagged correlation ------


def q_welch_t(sf_dir: str):
    """Welch's unequal-variance t-test for every event-type pair, plus
    the Welch-Satterthwaite degrees of freedom — from the same exact
    per-type moment census as cohens_d (n, sum-cents, sum-sq-cents as
    int64); the t statistic and df are ONE mirrored float sequence over
    exact ints, identical to the SQL oracle's expression tree."""
    from .queries import _type_moment_census

    census = _type_moment_census(sf_dir, keys_hod=False) \
        .sort_values("event_type")
    types = census["event_type"].tolist()
    n = census["_n"].to_numpy().astype(np.int64)
    s = census["_s"].to_numpy().astype(np.int64)
    s2 = census["_s2"].to_numpy().astype(np.int64)
    out = {"type_a": [], "type_b": [], "t_stat": [], "df": []}
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            n1, n2 = float(n[i]), float(n[j])
            m1 = float(s[i]) / n1
            m2 = float(s[j]) / n2
            v1 = float(n[i] * s2[i] - s[i] * s[i]) / (n1 * (n1 - 1.0))
            v2 = float(n[j] * s2[j] - s[j] * s[j]) / (n2 * (n2 - 1.0))
            se1 = v1 / n1
            se2 = v2 / n2
            se = se1 + se2
            t = (m1 - m2) / np.sqrt(se)
            df = (se * se) / ((se1 * se1) / (n1 - 1.0)
                              + (se2 * se2) / (n2 - 1.0))
            out["type_a"].append(types[i])
            out["type_b"].append(types[j])
            out["t_stat"].append(round(float(t), 6))
            out["df"].append(round(float(df), 6))
    return pa.table({
        "type_a": pa.array(out["type_a"], pa.string()),
        "type_b": pa.array(out["type_b"], pa.string()),
        "t_stat": pa.array(out["t_stat"], pa.float64()),
        "df": pa.array(out["df"], pa.float64()),
    })


def q_skew_kurtosis(sf_dir: str):
    """Per-type skewness g1 and excess kurtosis g2 from the (type, cv)
    census.  Central power sums use the chi2/ANOVA floor protocol: each
    per-cell double term cnt*(cv-mean)^k is computed by the IDENTICAL
    op sequence on both engines and floored to an integer BEFORE
    summation, so the cross-shard sum is associative and exact; the
    final g1/g2 combination is one mirrored float expression."""
    import math

    census = cent_census(sf_dir).sort_values(["event_type", "cv"])
    out = {"event_type": [], "n": [], "skewness": [], "ex_kurtosis": []}
    for et, grp in census.groupby("event_type", sort=True):
        cv = grp["cv"].to_numpy().astype(np.int64)
        cnt = grp["n"].to_numpy().astype(np.int64)
        n = int(cnt.sum())
        s = int((cv * cnt).sum())
        mu = float(s) / float(n)
        d = cv.astype(np.float64) - mu
        w = cnt.astype(np.float64)
        p2 = d * d
        p3 = p2 * d
        p4 = p3 * d
        # floor() gives integral doubles; terms can exceed 2**53, where a
        # float sum would lose exactness -> sum as Python ints instead.
        f2 = sum(int(x) for x in np.floor(p2 * w))
        f3 = sum(int(x) for x in np.floor(p3 * w))
        f4 = sum(int(x) for x in np.floor(p4 * w))
        m2 = float(f2) / float(n)
        m3 = float(f3) / float(n)
        m4 = float(f4) / float(n)
        g1 = m3 / (math.sqrt(m2) * m2)
        g2 = m4 / (m2 * m2) - 3.0
        out["event_type"].append(et)
        out["n"].append(n)
        out["skewness"].append(round(g1, 6))
        out["ex_kurtosis"].append(round(g2, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n": pa.array(out["n"], pa.int64()),
        "skewness": pa.array(out["skewness"], pa.float64()),
        "ex_kurtosis": pa.array(out["ex_kurtosis"], pa.float64()),
    })


def q_mean_family(sf_dir: str):
    """Arithmetic / harmonic / log-geometric mean per event type from
    the (type, cv) census, positive values only.  Arithmetic is exact
    ints to one division; harmonic and log-geometric use the bm25 libm
    protocol — the per-cell double term (cnt/cv, resp. cnt*ln(cv)) is
    MICRO-FLOORED before summation so cross-engine sums are associative
    integer sums.  The geometric mean is reported in the cent log
    domain (log_gmean_cents) to avoid a final exp() libm call."""
    import math

    census = cent_census(sf_dir).sort_values(["event_type", "cv"])
    out = {"event_type": [], "n_pos": [], "arith_mean": [],
           "harmonic_mean": [], "log_gmean_cents": []}
    for et, grp in census.groupby("event_type", sort=True):
        cv = grp["cv"].to_numpy().astype(np.int64)
        cnt = grp["n"].to_numpy().astype(np.int64)
        pos = cv > 0
        cvp = cv[pos]
        cnp = cnt[pos]
        n = int(cnp.sum())
        s = int((cvp * cnp).sum())
        arith = (float(s) / float(n)) / 100.0
        # 1/cv terms are tiny (down to ~2e-6): a micro floor would lose
        # ~1e-6 per census cell, 0.5% over 2k cells — floor at pico
        # (1e12) instead; both engines floor the identical double.
        hterm = cnp.astype(np.float64) / cvp.astype(np.float64)
        hf = sum(int(x) for x in np.floor(hterm * 1000000000000.0))
        harm = (float(n) / (float(hf) / 1000000000000.0)) / 100.0
        lf = 0
        for v, c in zip(cvp.tolist(), cnp.tolist()):
            lf += int(math.floor(math.log(float(v)) * 1000000.0)) * c
        lgm = (float(lf) / 1000000.0) / float(n)
        out["event_type"].append(et)
        out["n_pos"].append(n)
        out["arith_mean"].append(round(arith, 6))
        out["harmonic_mean"].append(round(harm, 6))
        out["log_gmean_cents"].append(round(lgm, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n_pos": pa.array(out["n_pos"], pa.int64()),
        "arith_mean": pa.array(out["arith_mean"], pa.float64()),
        "harmonic_mean": pa.array(out["harmonic_mean"], pa.float64()),
        "log_gmean_cents": pa.array(out["log_gmean_cents"], pa.float64()),
    })


def q_cross_corr(sf_dir: str):
    """Lagged cross-correlation between the hourly cent-sum series of
    'click' and 'view' events (lags 0..3 hours, inner join on matching
    hours).  The hourly census is bounded by the time span; all six
    Pearson sums are exact integers (Python bignums on the driver,
    HUGEINT in the oracle); r is ONE mirrored float expression."""
    from ..windows import ts_to_ms

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def census(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch["event_type"],
                        value_set=pa.array(["click", "view"]))
        t = batch.filter(keep)
        cv = np.rint(
            t["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        tms = ts_to_ms(t["ts"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": t["event_type"],
            "hr": pa.array(tms // 3600000, pa.int64()),
            "s": pa.array(cv),
        })

    census_df = sharded_grouped_agg(
        ds.map_batches(census, batch_format="pyarrow"),
        ["event_type", "hr"], [("s", "sum")],
    ).to_pandas()
    x = {int(h): int(v) for h, v in
         census_df[census_df["event_type"] == "click"][["hr", "s"]].values}
    y = {int(h): int(v) for h, v in
         census_df[census_df["event_type"] == "view"][["hr", "s"]].values}
    out = {"lag": [], "n": [], "r": []}
    for lag in (0, 1, 2, 3):
        pairs = [(xv, y[h + lag]) for h, xv in sorted(x.items())
                 if h + lag in y]
        n = len(pairs)
        sx = sum(p[0] for p in pairs)
        sy = sum(p[1] for p in pairs)
        sxx = sum(p[0] * p[0] for p in pairs)
        syy = sum(p[1] * p[1] for p in pairs)
        sxy = sum(p[0] * p[1] for p in pairs)
        r = float(n * sxy - sx * sy) / (
            np.sqrt(float(n * sxx - sx * sx))
            * np.sqrt(float(n * syy - sy * sy)))
        out["lag"].append(lag)
        out["n"].append(n)
        out["r"].append(round(float(r), 6))
    return pa.table({
        "lag": pa.array(out["lag"], pa.int64()),
        "n": pa.array(out["n"], pa.int64()),
        "r": pa.array(out["r"], pa.float64()),
    })


def q_cramers_v(sf_dir: str):
    """Cramér's V effect size of the event_type x hour-of-day
    association: the chi2_independence cell protocol (exact-int
    numerator/denominator per cell, micro-floored before the associative
    sum) followed by one mirrored sqrt(chi2 / (n * min(r-1, c-1)))."""
    import math

    census = hod_census(sf_dir)
    piv = census.pivot_table(index="event_type", columns="hod", values="o",
                             fill_value=0, aggfunc="sum")
    o = piv.to_numpy().astype(np.int64)
    r = o.sum(axis=1, keepdims=True)
    c = o.sum(axis=0, keepdims=True)
    n = int(o.sum())
    num = (o * n - r * c).astype(np.float64) ** 2
    den = (float(n) * (r * c).astype(np.float64))
    cells = np.floor(num / den * 1e6).astype(np.int64)
    chi2 = float(cells.sum()) / 1e6
    mind = min(o.shape[0] - 1, o.shape[1] - 1)
    v = math.sqrt(chi2 / (float(n) * float(mind)))
    return pa.table({
        "cramers_v": pa.array([round(v, 6)], pa.float64()),
        "chi2": pa.array([round(chi2, 6)], pa.float64()),
        "n": pa.array([n], pa.int64()),
    })


def q_mutual_information(sf_dir: str):
    """Mutual information I(event_type; hour-of-day) in nats from the
    contingency census.  Per occupied cell the log argument
    (n*o)/(r*c) is a ratio of EXACT int64 products; its ln is
    micro-floored (bm25 libm protocol) and weighted by the exact count,
    so the cross-cell sum is an associative integer sum; one final
    division by 1e6*n."""
    census = hod_census(sf_dir)
    piv = census.pivot_table(index="event_type", columns="hod", values="o",
                             fill_value=0, aggfunc="sum")
    o = piv.to_numpy().astype(np.int64)
    r = o.sum(axis=1, keepdims=True)
    c = o.sum(axis=0, keepdims=True)
    n = int(o.sum())
    mask = o > 0
    arg = (o[mask] * n).astype(np.float64) / (np.broadcast_to(r * c, o.shape)[mask]).astype(np.float64)
    lf = np.floor(np.log(arg) * 1e6).astype(np.int64)
    total = sum(int(l) * int(w) for l, w in zip(lf, o[mask]))
    mi = (float(total) / 1e6) / float(n)
    return pa.table({
        "mi_nats": pa.array([round(mi, 6)], pa.float64()),
        "n": pa.array([n], pa.int64()),
    })


def q_jackknife_se(sf_dir: str):
    """Leave-one-hour-out jackknife standard error of the per-type mean
    value: each leave-out estimate (S-s_i)/(N-n_i) is ONE division of
    exact ints, micro-floored so the across-groups mean and squared
    deviations are associative integer sums; the final
    sqrt(((g-1)/g) * SSQ) is one mirrored expression.  The grouped
    moment census is the only exchange (types x 24 rows)."""
    import math

    from ..windows import ts_to_ms

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        cv = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({
            "event_type": batch["event_type"],
            "hod": pa.array((tms // 3600000) % 24, pa.int64()),
            "nh": pa.array(np.ones(len(cv), np.int64)),
            "sh": pa.array(cv),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "hod"], [("nh", "sum"), ("sh", "sum")],
    ).to_pandas()
    out = {"event_type": [], "g_groups": [], "jk_se": []}
    for et, grp in census.groupby("event_type", sort=True):
        nh = grp["nh"].to_numpy().astype(np.int64)
        sh = grp["sh"].to_numpy().astype(np.int64)
        n = int(nh.sum())
        s = int(sh.sum())
        g = len(nh)
        tf = [int(math.floor(float(s - si) / float(n - ni) * 1000000.0))
              for si, ni in zip(sh.tolist(), nh.tolist())]
        tbar = (float(sum(tf)) / 1000000.0) / float(g)
        ssq = 0
        for t_i in tf:
            d = float(t_i) / 1000000.0 - tbar
            ssq += int(math.floor((d * d) * 1000000.0))
        se_c = math.sqrt((float(g - 1) / float(g))
                         * (float(ssq) / 1000000.0))
        out["event_type"].append(et)
        out["g_groups"].append(g)
        out["jk_se"].append(round(se_c / 100.0, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "g_groups": pa.array(out["g_groups"], pa.int64()),
        "jk_se": pa.array(out["jk_se"], pa.float64()),
    })


def q_kaplan_meier(sf_dir: str):
    """Kaplan-Meier survival over user lifespans (hours between first
    and last event); users last seen within 24 h of the corpus end are
    right-CENSORED.  Two-phase distributed plan: per-user (min, max)
    combiner + sharded exchange (user-bounded, materialized once — the
    corpus max falls out of the same pass), then a (duration, censored)
    census second exchange bounded by the hour span; the KM product is
    taken in the log domain with the micro-floored ln((n-d)/n) protocol
    so the cumulative sum is an associative integer sum.  Steps where
    deaths == at_risk (log S = -inf) are excluded on both engines."""
    import math

    per_user = user_ts_spans(sf_dir)
    data_max = int(per_user.max("mx"))

    def dur_census(batch: pa.Table) -> pa.Table:
        mn = batch["mn"].to_numpy(zero_copy_only=False)
        mx = batch["mx"].to_numpy(zero_copy_only=False)
        return pa.table({
            "dur": pa.array((mx - mn) // 3600000, pa.int64()),
            "cens": pa.array((data_max - mx < 86400000).astype(np.int64)),
            "cnt": pa.array(np.ones(len(mn), np.int64)),
        })

    census = sharded_grouped_agg(
        per_user.map_batches(dur_census, batch_format="pyarrow"),
        ["dur", "cens"], [("cnt", "sum")],
    ).to_pandas()
    g = census.groupby("dur", sort=True)
    durs = []
    alls = []
    deaths = []
    for dur, grp in g:
        durs.append(int(dur))
        alls.append(int(grp["cnt"].sum()))
        deaths.append(int(grp.loc[grp["cens"] == 0, "cnt"].sum()))
    total = sum(alls)
    out = {"duration_h": [], "at_risk": [], "deaths": [], "log_surv": []}
    bf = 0
    lt = 0
    for dur, a, d in zip(durs, alls, deaths):
        at_risk = total - bf
        bf += a
        if d <= 0 or at_risk <= d:
            continue
        lt += int(math.floor(
            math.log(float(at_risk - d) / float(at_risk)) * 1000000.0))
        out["duration_h"].append(dur)
        out["at_risk"].append(at_risk)
        out["deaths"].append(d)
        out["log_surv"].append(round(float(lt) / 1000000.0, 6))
    return pa.table({
        "duration_h": pa.array(out["duration_h"], pa.int64()),
        "at_risk": pa.array(out["at_risk"], pa.int64()),
        "deaths": pa.array(out["deaths"], pa.int64()),
        "log_surv": pa.array(out["log_surv"], pa.float64()),
    })


def _det3(m):
    """Exact 3x3 determinant over Python ints."""
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def q_linreg_2f(sf_dir: str):
    """Two-feature OLS (value ~ 1 + hour-of-day + day-of-week) solved by
    Cramer's rule over the EXACT integer normal equations: all nine
    moment sums come from the (hod, dow) census (168 cells), the four
    3x3 determinants are exact Python bignums (HUGEINT in the oracle),
    and each beta is ONE mirrored bignum->double division.  trend_slope
    is the single-feature version; this is the multiple-regression
    entry."""
    from ..windows import ts_to_ms

    ds = _read(sf_dir, "events", ["ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        cv = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({
            "h": pa.array((tms // 3600000) % 24, pa.int64()),
            "d": pa.array(((tms // 86400000) + 4) % 7, pa.int64()),
            "n": pa.array(np.ones(len(cv), np.int64)),
            "sy": pa.array(cv),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["h", "d"], [("n", "sum"), ("sy", "sum")],
    ).to_pandas()
    h = census["h"].to_numpy().astype(np.int64)
    d = census["d"].to_numpy().astype(np.int64)
    n = census["n"].to_numpy().astype(np.int64)
    sy = census["sy"].to_numpy().astype(np.int64)
    s1 = int(n.sum())
    sh = int((n * h).sum())
    sd = int((n * d).sum())
    shh = int((n * h * h).sum())
    sdd = int((n * d * d).sum())
    shd = int((n * h * d).sum())
    sy_ = int(sy.sum())
    shy = int((h * sy).sum())
    sdy = int((d * sy).sum())
    a = [[s1, sh, sd], [sh, shh, shd], [sd, shd, sdd]]
    b = [sy_, shy, sdy]
    det = _det3(a)
    betas = []
    for k in range(3):
        ak = [row[:] for row in a]
        for i in range(3):
            ak[i][k] = b[i]
        betas.append(round((float(_det3(ak)) / float(det)) / 100.0, 6))
    return pa.table({
        "n": pa.array([s1], pa.int64()),
        "beta0": pa.array([betas[0]], pa.float64()),
        "beta_hod": pa.array([betas[1]], pa.float64()),
        "beta_dow": pa.array([betas[2]], pa.float64()),
    })


def q_t_closeness(sf_dir: str):
    """t-closeness — the third of the privacy-audit trio (k_anonymity,
    l_diversity): per quasi-identifier group (lang, n_chars//100) the
    total-variation distance between the group's sensitive-attribute
    (source) distribution and the global one.  FULLY exact: with the
    common denominator n_g*n the per-source term |n_gs*n - n_s*n_g| is
    an exact integer, absent sources contribute n_s*n_g exactly, and the
    only float op is the final mirrored division by (2*n_g*n).  One
    (group, source) census exchange, bounded by langs x buckets x
    sources."""
    docs = _read(sf_dir, "documents", ["lang", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        nb = pc.cast(batch["n_chars"], pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "lang": batch["lang"],
            "sb": pa.array(nb // 100, pa.int64()),
            "source": batch["source"],
            "ngs": pa.array(np.ones(len(nb), np.int64)),
        })

    census = sharded_grouped_agg(
        docs.map_batches(partial, batch_format="pyarrow"),
        ["lang", "sb", "source"], [("ngs", "sum")],
    ).to_pandas()
    n = int(census["ngs"].sum())
    ns = census.groupby("source")["ngs"].sum().to_dict()
    out = {"lang": [], "size_bucket": [], "t_close": []}
    for (lang, sb), grp in census.groupby(["lang", "sb"], sort=True):
        ng = int(grp["ngs"].sum())
        present = dict(zip(grp["source"], grp["ngs"]))
        num = 0
        for src, nsv in ns.items():
            ngs = int(present.get(src, 0))
            num += abs(ngs * n - int(nsv) * ng)
        out["lang"].append(lang)
        out["size_bucket"].append(int(sb))
        out["t_close"].append(
            round(float(num) / ((2.0 * float(ng)) * float(n)), 6))
    return pa.table({
        "lang": pa.array(out["lang"], pa.string()),
        "size_bucket": pa.array(out["size_bucket"], pa.int64()),
        "t_close": pa.array(out["t_close"], pa.float64()),
    })


def q_adamic_adar(sf_dir: str):
    """Adamic-Adar link prediction over the dup relation graph (khop's
    star edge set): pairs (a, b) sharing wedge centers score
    sum_w 1/ln(deg(w)), each center term micro-floored (bm25 libm
    protocol) so the per-pair sum is an associative integer sum.  Wedge
    expansion is bounded by a hard degree cap (centers with deg > 64
    are skipped — the house hot-key posture, mirrored in the oracle);
    output is the deterministic top-20 by (score desc, a, b).  The final
    pair census is driver-finalized at test scale; at 100 TB the last
    step escalates to per-shard partial top-k + driver merge (exact:
    integer scores)."""
    import math

    from ..stages.graph import group_star_edges_multi

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])

    d = docs.map_batches(_doc_size_buckets, batch_format="pyarrow")
    edges = group_star_edges_multi(d, [["lang", "cb"], ["source", "cb"]])

    # distributed shape: dedup (a, b) exchange -> mirror to both
    # directions -> per-center map_groups wedge expansion (capped) ->
    # keyed pair-score exchange -> bounded top-20 on the driver
    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "one", pa.array(np.ones(batch.num_rows, np.int64)))

    ded = sharded_grouped_agg(
        edges.map_batches(tag, batch_format="pyarrow"),
        ["a", "b"], [("one", "min")],
    )

    def mirror(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        return pa.table({
            "w": pa.array(np.r_[a, b], pa.int64()),
            "x": pa.array(np.r_[b, a], pa.int64()),
        })

    def wedge(group: pa.Table) -> pa.Table:
        xs = np.unique(group["x"].to_numpy(zero_copy_only=False))
        k = len(xs)
        if k < 2 or k > 64:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64())})
        term = int(math.floor(1000000.0 / math.log(float(k))))
        ii, jj = np.triu_indices(k, 1)
        return pa.table({
            "a": pa.array(xs[ii], pa.int64()),
            "b": pa.array(xs[jj], pa.int64()),
            "s": pa.array(np.full(len(ii), term, np.int64)),
        })

    pair_scores = sharded_grouped_agg(
        ded.map_batches(mirror, batch_format="pyarrow")
        .groupby("w").map_groups(wedge, batch_format="pyarrow"),
        ["a", "b"], [("s", "sum")],
    ).to_pandas()
    pair_scores = pair_scores.sort_values(
        ["s", "a", "b"], ascending=[False, True, True]).head(20)
    return pa.table({
        "a": pa.array(pair_scores["a"].astype(np.int64)),
        "b": pa.array(pair_scores["b"].astype(np.int64)),
        "aa_score": pa.array(
            [round(int(s) / 1000000.0, 6) for s in pair_scores["s"]],
            pa.float64()),
    })


def q_readability(sf_dir: str):
    """LIX-style readability profile per language over exact integer
    text counts — words (\\S+ runs), long words (\\S{6,}) and vowel
    groups, via vectorized Arrow RE2 kernels (pc.count_substring_regex;
    the oracle's regexp_extract_all is the same RE2 family so the
    non-overlapping match counts are identical).  The corpus has no
    sentence punctuation, so the sentence unit is the document:
    lix = words/doc + 100*longwords/words, one mirrored float
    expression over the exact (lang) census."""
    docs = _read(sf_dir, "documents", ["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        txt = batch["text"]
        return pa.table({
            "lang": batch["lang"],
            "n_docs": pa.array(np.ones(batch.num_rows, np.int64)),
            "words": pc.cast(
                pc.count_substring_regex(txt, r"\S+"), pa.int64()),
            "longw": pc.cast(
                pc.count_substring_regex(txt, r"\S{6,}"), pa.int64()),
            "vgroups": pc.cast(
                pc.count_substring_regex(txt, r"[aeiouAEIOU]+"),
                pa.int64()),
        })

    census = sharded_grouped_agg(
        docs.map_batches(partial, batch_format="pyarrow"),
        ["lang"],
        [("n_docs", "sum"), ("words", "sum"), ("longw", "sum"),
         ("vgroups", "sum")],
    ).to_pandas().sort_values("lang")
    wpd = census["words"].to_numpy().astype(np.float64) \
        / census["n_docs"].to_numpy().astype(np.float64)
    lwr = census["longw"].to_numpy().astype(np.float64) \
        / census["words"].to_numpy().astype(np.float64)
    lix = wpd + (100.0 * lwr)
    return pa.table({
        "lang": pa.array(census["lang"].tolist(), pa.string()),
        "n_docs": pa.array(census["n_docs"].astype(np.int64)),
        "words": pa.array(census["words"].astype(np.int64)),
        "longw": pa.array(census["longw"].astype(np.int64)),
        "vgroups": pa.array(census["vgroups"].astype(np.int64)),
        "wpd": pa.array(np.round(wpd, 6), pa.float64()),
        "lix": pa.array(np.round(lix, 6), pa.float64()),
    })


def q_ndcg_at_k(sf_dir: str):
    """NDCG@10 per language — the IR-evaluation entry (bm25/rrf_fusion
    are the rankers; this is the metric).  Deterministic setup: docs are
    ranked within lang by (n_chars desc, doc_id asc); the graded
    relevance is doc_id % 4.  Each DCG term grade/log2(rank+1) is
    micro-floored (bm25 libm protocol; log2 via ln(x)/ln(2.0), mirrored)
    so DCG and ideal-DCG are associative integer sums; ndcg is ONE final
    division.  Top-10 extraction is a per-batch k-truncation combiner +
    one bounded exchange (langs x 10 rows to the driver)."""
    import math

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    k = 10

    def partial(batch: pa.Table) -> pa.Table:
        # per-batch combiner: keep each lang's local top-k candidates
        ids = pc.cast(batch["doc_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        nc = pc.cast(batch["n_chars"], pa.int64()).to_numpy(
            zero_copy_only=False)
        langs = np.asarray(batch["lang"].to_pylist(), dtype=object)
        keep = np.zeros(len(ids), bool)
        for lg in np.unique(langs):
            m = np.flatnonzero(langs == lg)
            order = np.lexsort((ids[m], -nc[m]))[:k]
            keep[m[order]] = True
        return pa.table({
            "lang": pa.array(langs[keep].tolist(), pa.string()),
            "doc_id": pa.array(ids[keep], pa.int64()),
            "n_chars": pa.array(nc[keep], pa.int64()),
        })

    cand = _collect_small(
        docs.map_batches(partial, batch_format="pyarrow"))
    ln2 = math.log(2.0)
    out = {"lang": [], "dcg_f": [], "idcg_f": []}
    df = cand.to_pandas()
    for lg, grp in df.groupby("lang", sort=True):
        ids = grp["doc_id"].to_numpy().astype(np.int64)
        nc = grp["n_chars"].to_numpy().astype(np.int64)
        order = np.lexsort((ids, -nc))[:k]
        grades = (ids[order] % 4).astype(np.int64)
        dcg = 0
        for r, g in enumerate(grades.tolist(), start=1):
            dcg += int(math.floor(
                (float(g) / (math.log(float(r + 1)) / ln2)) * 1000000.0))
        ideal = np.sort(grades)[::-1]
        idcg = 0
        for r, g in enumerate(ideal.tolist(), start=1):
            idcg += int(math.floor(
                (float(g) / (math.log(float(r + 1)) / ln2)) * 1000000.0))
        out["lang"].append(lg)
        out["dcg_f"].append(dcg)
        out["idcg_f"].append(idcg)
    return pa.table({
        "lang": pa.array(out["lang"], pa.string()),
        "dcg": pa.array([round(d / 1000000.0, 6) for d in out["dcg_f"]],
                        pa.float64()),
        # ndcg := 0 when every top-k grade is 0 (idcg = 0) — hit at sf1,
        # where replica-shifted doc_ids preserve id % 4 (oracle mirrors)
        "ndcg": pa.array(
            [0.0 if i == 0 else round(float(d) / float(i), 6)
             for d, i in zip(out["dcg_f"], out["idcg_f"])],
            pa.float64()),
    })


def _collect_small(ds) -> pa.Table:
    """Materialize a bounded Dataset result as one Arrow table."""
    import pyarrow as _pa

    tabs = [b for b in ds.iter_batches(batch_format="pyarrow")]
    return _pa.concat_tables(tabs) if tabs else _pa.table({})


def q_sax_words(sf_dir: str):
    """SAX-style symbolic time-series words: each (event_type, day) is
    PAA-compressed into four 6-hour segment means and each segment is
    quantized into letters a-d against 0.5x/1x/1.5x the type's global
    mean — every comparison is an EXACT integer cross-multiplication
    (seg_s/seg_n > k*S/N <=> c*seg_s*N > d*S*seg_n), so the whole query
    has NO float ops at all.  One (type, day, segment) census exchange
    (bounded by types x days x 4); output is the (type, word) frequency
    census over complete days."""
    from ..windows import ts_to_ms

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        tms = ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False)
        cv = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({
            "event_type": batch["event_type"],
            "day": pa.array(tms // 86400000, pa.int64()),
            "seg": pa.array(((tms // 3600000) % 24) // 6, pa.int64()),
            "n": pa.array(np.ones(len(cv), np.int64)),
            "ss": pa.array(cv),
        })

    census = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "day", "seg"], [("n", "sum"), ("ss", "sum")],
    ).to_pandas()
    gl = census.groupby("event_type").agg(nn=("n", "sum"), tot=("ss", "sum"))
    words = {}
    for (et, day), grp in census.groupby(["event_type", "day"], sort=True):
        if len(grp) != 4:
            continue
        nn = int(gl.loc[et, "nn"])
        tot = int(gl.loc[et, "tot"])
        letters = []
        for _, r in grp.sort_values("seg").iterrows():
            ss, n = int(r["ss"]), int(r["n"])
            idx = ((2 * ss * nn > tot * n) + (ss * nn > tot * n)
                   + (2 * ss * nn > 3 * tot * n))
            letters.append(chr(97 + idx))
        w = "".join(letters)
        words[(et, w)] = words.get((et, w), 0) + 1
    keys = sorted(words)
    return pa.table({
        "event_type": pa.array([k[0] for k in keys], pa.string()),
        "word": pa.array([k[1] for k in keys], pa.string()),
        "n_days": pa.array([words[k] for k in keys], pa.int64()),
    })


def q_media_equalize(sf_dir: str):
    """Histogram equalization through the REAL image decoder: each doc's
    deterministic 8x8 P5 raster is netpbm-encoded, REALLY pixel-decoded
    (stages/multimodal.decode_netpbm), per-image 256-level CDF-remapped
    with the classic integer formula (cdf-cdf_min)*255 // (npix-cdf_min)
    — every step is exact integer arithmetic, so the remapped pixel sums
    are bit-identical to the oracle's arithmetic raster expansion.  One
    map_batches pass, one output row per image, no shuffle."""
    from ..stages.multimodal import decode_netpbm

    ds = _read(sf_dir, "documents", ["doc_id"])

    def to_media(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        r = np.arange(8)[:, None]
        c = np.arange(8)[None, :]
        payloads = []
        for d in ids:
            v = ((int(d) * 31 + r * 7 + c * 3) % 256).astype(np.uint8)
            payloads.append(b"P5\n8 8\n255\n" + v.tobytes())
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
        })

    def equalize(batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_numpy(zero_copy_only=False)
        out_sum, out_min, out_max = [], [], []
        for p in batch["payload"].to_pylist():
            px = decode_netpbm(p).astype(np.int64).ravel()
            npix = len(px)
            order = np.sort(px)
            # cdf(v) = #pixels <= v; cdf_min = cdf of the smallest value
            vals, counts = np.unique(px, return_counts=True)
            cdf = np.cumsum(counts)
            cdf_min = int(cdf[0])
            remap = ((cdf - cdf_min) * 255) // (npix - cdf_min)
            lut = dict(zip(vals.tolist(), remap.tolist()))
            eq = np.array([lut[int(v)] for v in px], np.int64)
            out_sum.append(int(eq.sum()))
            out_min.append(int(eq.min()))
            out_max.append(int(eq.max()))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "eq_sum": pa.array(out_sum, pa.int64()),
            "eq_min": pa.array(out_min, pa.int64()),
            "eq_max": pa.array(out_max, pa.int64()),
        })

    return ds.map_batches(to_media, batch_format="pyarrow") \
        .map_batches(equalize, batch_format="pyarrow")


def q_attribution(sf_dir: str):
    """Last-touch marketing attribution: each purchase is credited to
    the user's most recent prior non-purchase event within 1 h (else
    'none').  Per-user grouped ordered scan (the sessionize exchange
    shape): one groupby(user) shuffle, a vectorized
    maximum.accumulate back-pointer inside each group, and a tiny
    attributed-type census to the driver.  Deterministic tie order
    (ts, event_id) on both engines."""
    from ..windows import ts_to_ms

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "event_id": pc.cast(batch["event_id"], pa.int64()),
            "ms": pa.array(
                ts_to_ms(batch["ts"]).to_numpy(zero_copy_only=False),
                pa.int64()),
            "event_type": batch["event_type"],
        })

    def scan(group: pa.Table) -> pa.Table:
        ms = group["ms"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        et = np.asarray(group["event_type"].to_pylist(), dtype=object)
        order = np.lexsort((eid, ms))
        ms, et = ms[order], et[order]
        idx = np.arange(len(ms))
        nonp = et != "purchase"
        arr = np.where(nonp, idx, -1)
        prior = np.concatenate(([-1], np.maximum.accumulate(arr)[:-1]))
        out = {}
        for i in np.flatnonzero(et == "purchase"):
            j = prior[i]
            att = (str(et[j]) if j >= 0 and ms[i] - ms[j] <= 3600000
                   else "none")
            out[att] = out.get(att, 0) + 1
        keys = sorted(out)
        return pa.table({
            "attributed": pa.array(keys, pa.string()),
            "n_purchases": pa.array([out[k] for k in keys], pa.int64()),
        })

    partial = ds.map_batches(prep, batch_format="pyarrow") \
        .groupby("user_id").map_groups(scan, batch_format="pyarrow")
    census = sharded_grouped_agg(
        partial, ["attributed"], [("n_purchases", "sum")],
    ).to_pandas().sort_values("attributed")
    return pa.table({
        "attributed": pa.array(census["attributed"].tolist(), pa.string()),
        "n_purchases": pa.array(
            census["n_purchases"].astype(np.int64)),
    })


def q_fano_factor(sf_dir: str):
    """Point-process burstiness: the Fano factor (variance/mean) of the
    per-hour event count for each type, over the corpus-wide hour grid
    (absent hours count 0 — they enter through the exact closed form,
    never materialized).  With H hours, S1 = sum of counts and S2 = sum
    of squared counts, F = (H*S2 - S1^2) / (H*S1) — exact integers to
    ONE mirrored division.  One (type, hour) census exchange."""
    census = hour_census(sf_dir)
    h_lo = int(census["hr"].min())
    h_hi = int(census["hr"].max())
    hours = h_hi - h_lo + 1
    out = {"event_type": [], "n_hours": [], "n_events": [], "fano": []}
    for et, grp in census.groupby("event_type", sort=True):
        c = grp["c"].to_numpy().astype(np.int64)
        s1 = int(c.sum())
        s2 = int((c * c).sum())
        fano = float(hours * s2 - s1 * s1) / float(hours * s1)
        out["event_type"].append(et)
        out["n_hours"].append(hours)
        out["n_events"].append(s1)
        out["fano"].append(round(fano, 6))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n_hours": pa.array(out["n_hours"], pa.int64()),
        "n_events": pa.array(out["n_events"], pa.int64()),
        "fano": pa.array(out["fano"], pa.float64()),
    })
