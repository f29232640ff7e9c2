"""Mergeable sketches — the approximate-path counterpart of the exact keyed
kernels (brief: custom operators, "a novel sketch").

:func:`approx_distinct_per_group` is HyperLogLog per key:

* **Combiner**: each batch collapses to ONE row per key — the key plus a
  ``2^p``-byte register array (max leading-zero rank per register).  The
  shuffle therefore moves O(keys x batches) rows of fixed 4 KB payload,
  independent of row count — this is the scale path
  :func:`..keyed.count_distinct_per_group`'s docstring points at when exact
  distinct (key, value)-pair shuffles get too wide.
* **Merge**: registers combine by elementwise ``np.maximum`` — exact,
  commutative, associative, so distributed merge order cannot change the
  result.
* **Estimate**: the classic bias-corrected HLL formula with the
  small-range (linear counting) correction; standard error
  ``1.04 / sqrt(2^p)`` (~1.6% at the default p=12).

Everything is seeded/deterministic (the value hash is the shared splitmix
avalanche), so the expected output is precomputable by an independent
from-the-spec implementation — the fixture-join oracle pattern.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import poly_hash_column
from .common import fmix64, mix64
from .common import shard_apply
from .keyed import _segment_starts


def hll_hash(col) -> np.ndarray:
    """uint64 value hash: shared avalanche for ints, polynomial rolling hash
    for strings (both process-deterministic)."""
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return fmix64(poly_hash_column(col, fold63=False))
    return fmix64(pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False))


def hll_registers(hashes: np.ndarray, p: int) -> np.ndarray:
    """Register array (uint8, length 2^p) for one set of value hashes."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(hashes) == 0:
        return regs
    idx = (hashes >> np.uint64(64 - p)).astype(np.int64)
    rest = hashes << np.uint64(p)
    # rank = leading zeros of the remaining (64-p) bits + 1, capped
    lz = np.full(len(hashes), 64 - p, dtype=np.uint8)
    nz = rest != 0
    # bit_length via log2 is unsafe near 2^64; use a halving loop (6 steps)
    r = rest[nz]
    count = np.zeros(len(r), dtype=np.uint8)
    for shift in (32, 16, 8, 4, 2, 1):
        mask = r < (np.uint64(1) << np.uint64(64 - shift))
        count[mask] += shift
        r[mask] = r[mask] << np.uint64(shift)
    lz[nz] = np.minimum(count, 64 - p)
    rank = (lz + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Bias-corrected HLL estimate with the linear-counting small-range fix."""
    m = float(len(regs))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    e = alpha * m * m / np.sum(np.float64(2.0) ** (-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if e <= 2.5 * m and zeros > 0:
        e = m * np.log(m / zeros)
    return float(e)


def bottomk_sample(hashes: np.ndarray, values: np.ndarray, k: int):
    """k rows with the smallest hashes — a deterministic uniform sample
    (KMV-style): the hash order is a fixed random permutation of rows, so
    the bottom-k of a union equals the bottom-k of merged bottom-ks
    (mergeable, order-independent)."""
    if len(hashes) <= k:
        return hashes, values
    idx = np.argpartition(hashes, k)[:k]
    return hashes[idx], values[idx]


def quantiles_from_sample(values: np.ndarray, qs: tuple[float, ...]) -> list[float]:
    s = np.sort(values)
    out = []
    for q in qs:
        i = int(np.ceil(q * len(s))) - 1
        out.append(float(s[max(i, 0)]))
    return out


def approx_quantiles_per_group(ds, key_cols: list[str], value_col: str,
                               id_col: str, qs: tuple[float, ...] = (0.5, 0.9, 0.99),
                               k: int = 1024):
    """Approximate per-key quantiles via a mergeable bottom-k row sample.

    The scale path for :func:`..keyed.group_quantiles` (which must shuffle
    every (key, value) pair to be exact): each row gets a deterministic
    uniform rank ``fmix64(value_bits ^ mix(id))``; per batch only the k
    lowest-ranked rows per key survive (combiner), merge keeps the k lowest
    of the union (associative), and the estimate applies the
    ``quantile_disc`` formula to the final sample.  Error ~ O(1/sqrt(k))
    quantile deviation; fully deterministic, so fixture-oracle-checkable.
    Output columns: key cols + ``p<q*100>``."""
    qnames = [f"p{q * 100:g}" for q in qs]

    def row_rank(values: pa.ChunkedArray, ids) -> np.ndarray:
        v64 = pc.cast(values, pa.float64()).to_numpy(zero_copy_only=False)
        vbits = v64.view(np.uint64)
        idh = mix64(pc.cast(ids, pa.int64()).to_numpy(zero_copy_only=False))
        with np.errstate(over="ignore"):
            return fmix64(vbits ^ idh)

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(list(key_cols) + [value_col, id_col]).sort_by(
            [(c, "ascending") for c in key_cols]
        )
        ranks = row_rank(t[value_col], t[id_col])
        vals = pc.cast(t[value_col], pa.float64()).to_numpy(zero_copy_only=False)
        new = _segment_starts(t, list(key_cols))
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], t.num_rows]
        keep_rank, keep_val, keep_row = [], [], []
        for i, (a, b) in enumerate(zip(starts, ends)):
            h, v = bottomk_sample(ranks[a:b], vals[a:b], k)
            keep_rank.append(h)
            keep_val.append(v)
            keep_row.append(np.full(len(h), a, dtype=np.int64))
        keys_t = t.select(list(key_cols)).take(pa.array(np.concatenate(keep_row)))
        return keys_t.append_column(
            "_rank", pa.array(np.concatenate(keep_rank).view(np.int64))
        ).append_column("_val", pa.array(np.concatenate(keep_val), pa.float64()))

    def merge(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [(c, "ascending") for c in key_cols]
        )
        ranks = t["_rank"].to_numpy(zero_copy_only=False).view(np.uint64)
        vals = t["_val"].to_numpy(zero_copy_only=False)
        new = _segment_starts(t, list(key_cols))
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], t.num_rows]
        rows = {name: [] for name in qnames}
        for a, b in zip(starts, ends):
            _, v = bottomk_sample(ranks[a:b], vals[a:b], k)
            for name, est in zip(qnames, quantiles_from_sample(v, qs)):
                rows[name].append(est)
        keys_t = t.select(list(key_cols)).take(pa.array(starts))
        for name in qnames:
            keys_t = keys_t.append_column(name, pa.array(rows[name], pa.float64()))
        return keys_t

    return shard_apply(ds, key_cols, merge, prepare=partial, coalesce=False)


def approx_distinct_per_group(ds, key_cols: list[str], value_col: str,
                              p: int = 12, out_col: str = "approx_distinct"):
    """Approximate COUNT(DISTINCT value) per key via HyperLogLog."""
    m = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch[value_col]))
        t = batch.select(list(key_cols) + [value_col]).sort_by(
            [(c, "ascending") for c in key_cols]
        )
        hashes = hll_hash(t[value_col])
        new = _segment_starts(t, list(key_cols))
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], t.num_rows]
        keys_t = t.select(list(key_cols)).take(pa.array(starts))
        regs = [
            hll_registers(hashes[a:b], p).tobytes() for a, b in zip(starts, ends)
        ]
        return keys_t.append_column("_regs", pa.array(regs, pa.binary()))

    def merge(group: pa.Table) -> pa.Table:
        t = group.sort_by([(c, "ascending") for c in key_cols])
        new = _segment_starts(t, list(key_cols))
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], t.num_rows]
        regs_col = t["_regs"].to_pylist()
        ests = []
        for a, b in zip(starts, ends):
            acc = np.zeros(m, dtype=np.uint8)
            for rb in regs_col[a:b]:
                np.maximum(acc, np.frombuffer(rb, dtype=np.uint8), out=acc)
            ests.append(hll_estimate(acc))
        keys_t = t.select(list(key_cols)).take(pa.array(starts))
        return keys_t.append_column(out_col, pa.array(ests, pa.float64()))

    return shard_apply(ds, key_cols, merge, prepare=partial, coalesce=False)


def _mg_compact(items: np.ndarray, counts: np.ndarray, capacity: int):
    """Misra-Gries compaction: keep <= capacity counters by subtracting the
    (capacity+1)-th largest count from all (the exact-counts formulation of
    the MG decrement; Agarwal et al. 2013 mergeable-summaries).  Returns
    (items, residual counts, subtracted amount)."""
    if len(items) <= capacity:
        return items, counts, 0
    # (capacity+1)-th largest
    thresh = np.partition(counts, len(counts) - capacity - 1)[
        len(counts) - capacity - 1
    ]
    keep = counts > thresh
    return items[keep], counts[keep] - thresh, int(thresh)


def heavy_hitters_topk(ds, item_col: str, k: int, capacity: int = 256):
    """EXACT global top-k most frequent items at bounded state, via a
    Misra-Gries sketch + verify pass (the heavy-hitters analogue of the
    Bloom semi-join: the sketch bounds what moves, a second exact pass
    restores exactness).

    Pass 1: each batch's exact counts are MG-compacted to ``capacity``
    counters (undercount <= batch_n/(capacity+1)); counter rows plus one
    deduction row per batch merge through a sharded segment sum.  The
    guarantee: every item with true count > total_deductions survives with
    a positive lower bound, so candidates = items whose upper bound
    (lower + total_deductions) reaches the k-th best lower bound form a
    SUPERSET of the true top-k.  Pass 2 re-counts ONLY the candidates
    (broadcast `ray.put` set, vectorized ``pc.is_in`` + per-batch combiner)
    and takes the exact top-k (ties -> smallest item).

    Output: ``item_col`` + ``n`` (int64), exactly k rows (fewer if the
    domain is smaller).  Item column must be integer.
    """
    import ray

    SENTINEL = np.int64(-(2**62))  # deduction rows (item ids must exceed it)

    def partial(batch: pa.Table) -> pa.Table:
        v = pc.cast(batch[item_col], pa.int64()).to_numpy(zero_copy_only=False)
        items, counts = np.unique(v, return_counts=True)
        if len(items) and items[0] <= SENTINEL:
            raise ValueError("item ids collide with the MG sentinel")
        items, counts, thresh = _mg_compact(items, counts, capacity)
        items = np.r_[items, [SENTINEL]]
        counts = np.r_[counts, [thresh]]
        return pa.table({item_col: pa.array(items, pa.int64()),
                         "n": pa.array(counts.astype(np.int64), pa.int64())})

    from .keyed import sharded_grouped_agg

    merged = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        [item_col], [("n", "sum")],
    )
    st = pa.Table.from_pylist(merged.take_all())
    items = st[item_col].to_numpy(zero_copy_only=False).astype(np.int64)
    lows = st["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    err = int(lows[items == SENTINEL].sum()) if (items == SENTINEL).any() else 0
    real = items != SENTINEL
    items, lows = items[real], lows[real]
    if len(items) == 0:
        return ray.data.from_arrow(pa.table({
            item_col: pa.array([], pa.int64()), "n": pa.array([], pa.int64()),
        }))
    # k-th best lower bound (or the worst if fewer than k survivors)
    kth = np.sort(lows)[::-1][min(k, len(lows)) - 1]
    if err >= kth:
        # an item compacted away everywhere (lower bound 0) could still be
        # in the true top-k: the sketch can't prune safely — recount all.
        # (capacity too small for this skew; raise it to restore pruning.)
        cand = None
    else:
        cand = np.sort(items[lows + err >= kth])
    cand_ref = ray.put(cand)

    def recount(batch: pa.Table) -> pa.Table:
        cs = ray.get(cand_ref)
        v = pc.cast(batch[item_col], pa.int64()).to_numpy(zero_copy_only=False)
        if cs is not None:
            v = v[np.isin(v, cs)]
        it, ct = np.unique(v, return_counts=True)
        return pa.table({item_col: pa.array(it, pa.int64()),
                         "n": pa.array(ct.astype(np.int64), pa.int64())})

    exact = pa.Table.from_pylist(
        ds.map_batches(recount, batch_format="pyarrow").take_all()
    )
    ei = exact[item_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ec = exact["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    # fold partial recounts, then exact top-k with ties to smallest item
    order = np.argsort(ei, kind="stable")
    ei, ec = ei[order], ec[order]
    new = np.ones(len(ei), dtype=bool)
    new[1:] = ei[1:] != ei[:-1]
    starts = np.flatnonzero(new)
    fi = ei[starts]
    fc = np.add.reduceat(ec, starts)
    top = np.lexsort((fi, -fc))[:k]
    out = pa.table({item_col: pa.array(fi[top], pa.int64()),
                    "n": pa.array(fc[top], pa.int64())})
    return ray.data.from_arrow(out)


def exact_global_quantiles(ds, value_col: str, qs: tuple[float, ...],
                           n_buckets: int = 4096, max_passes: int = 8):
    """EXACT global quantiles over an int64 column WITHOUT sorting or
    shuffling values — distributed selection by iterative histogram
    refinement (the classic k-th-element median-at-scale algorithm).

    Semantics: DuckDB ``quantile_disc`` — ``sorted[ceil(q*n) - 1]``, i.e.
    the smallest v with ``count(<= v) >= ceil(q*n)``.

    Each pass is ONE streaming map over the data: every batch emits a
    (q_idx, bucket, count) partial histogram against each unresolved
    quantile's current [lo, hi] bracket (all quantiles share the pass);
    the driver walks the combined counts to the bucket containing the
    k-th element and narrows the bracket by ~n_buckets x.  int64 domains
    resolve in <= ceil(64 / log2(n_buckets)) + 1 passes — 2-3 passes for
    realistic value ranges, each moving only O(n_buckets x |qs|) ints to
    the driver.  The honest alternative (group_quantiles' shuffle of all
    values) moves the dataset; this moves histograms.
    """
    import ray

    # pass 0: n, min, max
    def minmax(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "lo": pa.array([], pa.int64()),
                             "hi": pa.array([], pa.int64())})
        return pa.table({"n": pa.array([len(v)], pa.int64()),
                         "lo": pa.array([int(v.min())], pa.int64()),
                         "hi": pa.array([int(v.max())], pa.int64())})

    tot, glo, ghi = 0, None, None
    for part in ds.map_batches(minmax, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for r in part.to_pylist():
            tot += r["n"]
            glo = r["lo"] if glo is None else min(glo, r["lo"])
            ghi = r["hi"] if ghi is None else max(ghi, r["hi"])
    if tot == 0:
        return {q: None for q in qs}

    ks = [max(int(np.ceil(q * tot)), 1) for q in qs]
    brackets = [[glo, ghi, k] for k in ks]  # [lo, hi, remaining-k]
    answers: dict[int, int] = {}

    for _ in range(max_passes):
        todo = [i for i in range(len(qs)) if i not in answers]
        for i in todo:
            if brackets[i][0] == brackets[i][1]:
                answers[i] = brackets[i][0]
        todo = [i for i in range(len(qs)) if i not in answers]
        if not todo:
            break
        spec = [(i, brackets[i][0], brackets[i][1]) for i in todo]
        spec_ref = ray.put((spec, n_buckets))

        def hist(batch: pa.Table) -> pa.Table:
            sp, nb = ray.get(spec_ref)
            v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
            qi_out, bk_out, ct_out = [], [], []
            for qi, lo, hi in sp:
                width = (hi - lo) // nb + 1  # guarantees (hi-lo)//width < nb
                m = (v >= lo) & (v <= hi)
                if not m.any():
                    continue
                b = (v[m] - lo) // width
                uniq, cnt = np.unique(b, return_counts=True)
                qi_out.extend([qi] * len(uniq))
                bk_out.extend(uniq.tolist())
                ct_out.extend(cnt.tolist())
            return pa.table({"qi": pa.array(qi_out, pa.int64()),
                             "bk": pa.array(bk_out, pa.int64()),
                             "ct": pa.array(ct_out, pa.int64())})

        acc: dict[tuple[int, int], int] = {}
        for part in ds.map_batches(hist, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            for r in part.to_pylist():
                key = (r["qi"], r["bk"])
                acc[key] = acc.get(key, 0) + r["ct"]
        for qi, lo, hi in spec:
            width = (hi - lo) // n_buckets + 1
            k = brackets[qi][2]
            run = 0
            for b in range(n_buckets):
                c = acc.get((qi, b), 0)
                if run + c >= k:
                    new_lo = lo + b * width
                    new_hi = min(hi, new_lo + width - 1)
                    brackets[qi] = [new_lo, new_hi, k - run]
                    break
                run += c
    for i in range(len(qs)):
        if i not in answers:
            assert brackets[i][0] == brackets[i][1], "unresolved bracket"
            answers[i] = brackets[i][0]
    return {q: answers[i] for i, q in enumerate(qs)}


def theta_sketch_per_key(ds, key_col: str, value_col: str, k: int = 256):
    """KMV/theta distinct-value sketch per key: the k smallest DISTINCT
    ``fmix64(value)`` hashes (a deterministic uniform sample of the key's
    value set).  Mergeable: bottom-k of a union == bottom-k of merged
    bottom-ks; dedup inside every stage keeps the sample a SET (KMV needs
    distinct hashes).  Returns one row per key: (key, hashes list<uint64 as
    int64>, n_exact_lt_k flag via len < k)."""

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([key_col, value_col]).group_by(
            [key_col, value_col]
        ).aggregate([])
        t = t.sort_by([(key_col, "ascending")])
        h = fmix64(pc.cast(t[value_col], pa.int64()).to_numpy(zero_copy_only=False))
        new = _segment_starts(t, [key_col])
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], t.num_rows]
        keep_h, keep_row = [], []
        for a, b in zip(starts, ends):
            hh = np.unique(h[a:b])[:k]
            keep_h.append(hh)
            keep_row.append(np.full(len(hh), a, dtype=np.int64))
        keys_t = t.select([key_col]).take(pa.array(np.concatenate(keep_row)))
        return keys_t.append_column(
            "_h", pa.array(np.concatenate(keep_h).view(np.int64))
        )

    def merge(group: pa.Table) -> pa.Table:
        out_keys, out_h = [], []
        t = group.sort_by([(key_col, "ascending")])
        h = t["_h"].to_numpy(zero_copy_only=False).view(np.uint64)
        starts = np.flatnonzero(_segment_starts(t, [key_col]))
        ends = np.r_[starts[1:], t.num_rows]
        keys = t[key_col].to_pylist()
        for a, b in zip(starts, ends):
            hh = np.unique(h[a:b])[:k]
            out_keys.append(keys[a])
            out_h.append(hh.view(np.int64))
        return pa.table({
            key_col: pa.array(out_keys, group[key_col].type),
            "hashes": pa.array([x.tolist() for x in out_h],
                               pa.list_(pa.int64())),
        })

    return shard_apply(ds, [key_col], merge, prepare=partial, coalesce=False)


def theta_intersection_estimate(hashes_a: np.ndarray, hashes_b: np.ndarray,
                                k: int = 256) -> float:
    """Standard theta-sketch intersection: theta = min of the two sketches'
    sampling thresholds (kth-smallest hash scaled to (0,1]; 1.0 when the
    sketch holds the whole set), candidates = hashes below theta, estimate
    = |common candidates| / theta.  Deterministic."""
    two64 = float(2**64)
    ha = hashes_a.astype(np.uint64)
    hb = hashes_b.astype(np.uint64)
    th_a = (float(ha.max()) + 1.0) / two64 if len(ha) >= k else 1.0
    th_b = (float(hb.max()) + 1.0) / two64 if len(hb) >= k else 1.0
    theta = min(th_a, th_b)
    # float(2^64 - 1) rounds to 2^64, which overflows uint64 — keep the
    # threshold a Python int and only narrow when it fits
    lim = int(min(theta * two64, two64 - 1.0))
    common = np.intersect1d(ha, hb)
    if len(common) == 0:
        d = 0
    elif lim >= 2**64:
        d = len(common)
    else:
        d = int((common < np.uint64(lim)).sum())
    return d / theta


def theta_overlap_pairs(ds, key_col: str, value_col: str, k: int = 256,
                        round_nd: int = 4):
    """Approximate pairwise distinct-value overlap between every two keys —
    the sketch path of the exact ``audience_overlap`` join: one bottom-k
    combiner exchange builds a theta sketch per key (O(keys x k) ints
    total), then every pair's intersection is estimated on the bounded
    sketch table (keys are categorical: event types, sources).  Returns
    (ta, tb, est_overlap)."""
    import pandas as pd
    import ray.data

    sk = theta_sketch_per_key(ds, key_col, value_col, k=k)
    rows = []
    for part in sk.iter_batches(batch_format="pyarrow"):
        for r in part.to_pylist():
            rows.append((r[key_col], np.array(r["hashes"], np.int64)))
    rows.sort(key=lambda x: x[0])
    out = {"ta": [], "tb": [], "est_overlap": []}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            est = theta_intersection_estimate(rows[i][1], rows[j][1], k=k)
            out["ta"].append(rows[i][0])
            out["tb"].append(rows[j][0])
            out["est_overlap"].append(round(est, round_nd))
    return ray.data.from_arrow(pa.table({
        "ta": pa.array(out["ta"], pa.string()),
        "tb": pa.array(out["tb"], pa.string()),
        "est_overlap": pa.array(out["est_overlap"], pa.float64()),
    }))
