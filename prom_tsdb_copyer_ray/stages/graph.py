"""Distributed connected components — duplicate-cluster resolution.

Near-dup pipelines (minhash/simhash/embedding pairs) end with PAIRS; turning
pairs into "keep one doc per cluster" needs connected components over the
pair graph.  Ray Data has no iterative graph primitive, so this is the
custom-operator ladder's option (a)+(c): each iteration is a composition of
``map_batches`` + shard ``groupby`` (hash-min label propagation), and the
driver runs the loop with a convergence check on a materialized label table.

Scale shape:

* Per iteration exactly TWO shuffles, both moving (int64, int64[, int64])
  rows: labels+directed edges co-partitioned by source to emit label
  candidates along edges, then candidates by node to take the min.
* The label table (one row per node) is materialized each iteration — it is
  the loop-carried state and is O(nodes), never O(raw data); leaving it lazy
  would re-execute the whole lineage every iteration.
* Iteration count is the graph diameter + 1 (hash-min moves the min label
  one hop per round).  Partitioning assumption (documented per the brief):
  dup clusters are shallow (star-ish), so the loop converges in a handful
  of rounds; a pathological chain graph of length D needs D rounds — use
  path-doubling variants if that ever matters.

Determinism: component id = min node id in the component.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .common import fanin, shard_apply

# a graph of at most this many int rows (2 x edges + nodes for CC, directed
# edges for PageRank; ~4M is <100 MB) is solved inside one task
SMALL_GRAPH_ROWS = 4_000_000


def _solve_cc_in_task(batch: pa.Table, node_col: str) -> pa.Table:
    """Whole-graph CC inside ONE task: vectorized hash-min edge relaxation
    + pointer jumping to fixpoint (O(E+N) numpy work per round, O(log n)
    rounds).  Input is the tagged union the distributed loop also uses:
    rows with a valid ``label`` are nodes, the rest are directed edges."""
    lab_mask = pc.is_valid(batch["label"])
    lab_t = batch.filter(lab_mask)
    edge_t = batch.filter(pc.invert(lab_mask))
    ids = np.unique(lab_t["src"].to_numpy(zero_copy_only=False).astype(np.int64))
    src = edge_t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    dst = edge_t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    si = np.searchsorted(ids, src)
    di = np.searchsorted(ids, dst)
    for arr, idx in ((src, si), (dst, di)):
        if len(arr):
            if len(ids) == 0:
                raise ValueError("edge endpoints absent from nodes_ds (no nodes)")
            bad = (idx >= len(ids)) | (ids[np.minimum(idx, len(ids) - 1)] != arr)
            if bad.any():
                raise ValueError(
                    f"edge endpoints absent from nodes_ds: {arr[bad][:5].tolist()} ..."
                )
    # labels are INDICES into the sorted id array, so min index == min id
    lab = np.arange(len(ids), dtype=np.int64)
    while True:
        l2 = lab.copy()
        if len(si):
            np.minimum.at(l2, di, lab[si])
        while True:  # pointer jump to fixpoint (path compression)
            l3 = l2[l2]
            if np.array_equal(l3, l2):
                break
            l2 = l3
        if np.array_equal(l2, lab):
            break
        lab = l2
    return pa.table({node_col: pa.array(ids), "component": pa.array(ids[lab])})


def connected_components(edges_ds, nodes_ds, node_col: str = "node",
                         a_col: str = "a", b_col: str = "b",
                         max_iters: int = 50):
    """(node, component) for every node, component = min reachable node id.

    ``edges_ds`` holds undirected int64 edges (``a_col``, ``b_col``);
    ``nodes_ds`` the full node universe (isolated nodes keep themselves as
    component).  Every edge endpoint must appear in ``nodes_ds``.

    Size-aware execution: when 2*edges + nodes fits one worker's heap
    (:data:`SMALL_GRAPH_ROWS`), the whole graph collapses into ONE Ray task
    running the vectorized in-memory solver — the iterative loop's
    per-round exchanges are pure overhead at that size (a 5k-node dup graph
    paid ~8 s of scheduling for ~50 ms of math).  Above the threshold the
    distributed hash-min loop runs; ``SMALL_GRAPH_ROWS = 0`` forces it.
    Each round's exchanges are :func:`~.common.shard_apply` calls given the
    loop's row bound, so its size rule picks one task or the exchange.
    """
    def to_directed(batch: pa.Table) -> pa.Table:
        a = pc.cast(batch[a_col], pa.int64()).to_numpy(zero_copy_only=False)
        b = pc.cast(batch[b_col], pa.int64()).to_numpy(zero_copy_only=False)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        return pa.table(
            {
                "src": pa.array(src),
                "dst": pa.array(dst),
                "label": pa.nulls(len(src), pa.int64()),
            }
        )

    edges_bi = (
        edges_ds.map_batches(to_directed, batch_format="pyarrow")
        .repartition(fanin())
        .materialize()
    )
    # row bounds of the loop's exchanges (shard_apply's size rule): a label
    # row per node plus the directed edges into propagate and minimize, a
    # label row per node into the pointer jump
    n_nodes = nodes_ds.count()
    n_rows = edges_bi.count() + n_nodes

    if n_rows <= SMALL_GRAPH_ROWS:
        def tag_nodes(batch: pa.Table) -> pa.Table:
            node = pc.cast(batch[node_col], pa.int64())
            return pa.table(
                {
                    "src": node,
                    "dst": pa.nulls(len(node), pa.int64()),
                    "label": node,
                }
            )

        import functools

        return (
            nodes_ds.map_batches(tag_nodes, batch_format="pyarrow")
            .union(edges_bi)
            .repartition(1)
            .map_batches(
                functools.partial(_solve_cc_in_task, node_col=node_col),
                batch_format="pyarrow",
                batch_size=None,
            )
        )

    def init_labels(batch: pa.Table) -> pa.Table:
        node = pc.cast(batch[node_col], pa.int64())
        return pa.table({"node": node, "label": node})

    labels = nodes_ds.map_batches(init_labels, batch_format="pyarrow").materialize()

    def label_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": batch["node"],
                "dst": pa.nulls(batch.num_rows, pa.int64()),
                "label": batch["label"],
            }
        )

    def propagate(group: pa.Table) -> pa.Table:
        """One source shard: push each node's label along its out-edges,
        and re-emit the node's own label (marked) for the min stage."""
        # filter BEFORE to_numpy: null-bearing int64 columns convert to
        # float64 (NaN nulls), silently corrupting ids >= 2^53
        lab_mask = pc.is_valid(group["label"])
        lab_t = group.filter(lab_mask)
        edge_t = group.filter(pc.invert(lab_mask))
        lsrc = lab_t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        llab = lab_t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(lsrc, kind="stable")
        lsrc_s, llab_s = lsrc[order], llab[order]
        esrc = edge_t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        edst = edge_t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(lsrc_s, esrc)
        if len(esrc):
            if len(lsrc_s) == 0:
                raise ValueError("edge endpoints absent from nodes_ds (no labels in shard)")
            pos = np.minimum(pos, len(lsrc_s) - 1)
            if not (lsrc_s[pos] == esrc).all():
                missing = esrc[lsrc_s[pos] != esrc][:5]
                raise ValueError(
                    f"edge endpoints absent from nodes_ds: {missing.tolist()} ..."
                )
        node = np.concatenate([edst, lsrc_s])
        cand = np.concatenate([llab_s[pos], llab_s])
        own = np.concatenate(
            [np.zeros(len(edst), np.int8), np.ones(len(lsrc_s), np.int8)]
        )
        return pa.table(
            {
                "node": pa.array(node),
                "cand": pa.array(cand),
                "own": pa.array(own),
            }
        )

    def minimize(group: pa.Table) -> pa.Table:
        """One node shard: new label = min candidate; flag changes."""
        node = group["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        cand = group["cand"].to_numpy(zero_copy_only=False).astype(np.int64)
        own = group["own"].to_numpy(zero_copy_only=False).astype(np.int8)
        order = np.lexsort((own, node))
        node_s, cand_s, own_s = node[order], cand[order], own[order]
        new_seg = np.ones(len(node_s), dtype=bool)
        new_seg[1:] = node_s[1:] != node_s[:-1]
        starts = np.flatnonzero(new_seg)
        mins = np.minimum.reduceat(cand_s, starts)
        old = cand_s[np.flatnonzero(own_s)]  # exactly one own row per node
        return pa.table(
            {
                "node": pa.array(node_s[starts]),
                "label": pa.array(mins),
                "changed": pa.array((mins < old).astype(np.int64)),
            }
        )

    def jump_rows(batch: pa.Table) -> pa.Table:
        """Pointer-jumping routing: each node emits an AUTHORITY row keyed
        by itself and a SEEKER row keyed by its current label."""
        node = batch["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        lab = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = np.concatenate([node, lab])
        n = len(node)
        return pa.table(
            {
                "key": pa.array(key),
                "node": pa.array(np.concatenate([node, node])),
                "label": pa.array(np.concatenate([lab, lab])),
                "is_auth": pa.array(
                    np.concatenate([np.ones(n, np.int8), np.zeros(n, np.int8)])
                ),
            }
        )

    def resolve(group: pa.Table) -> pa.Table:
        """label <- label[label] (halves pointer-chain depth per round)."""
        is_auth = group["is_auth"].to_numpy(zero_copy_only=False).astype(np.int8) == 1
        auth = group.filter(pa.array(is_auth))
        seek = group.filter(pa.array(~is_auth))
        akey = auth["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        alab = auth["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(akey, kind="stable")
        akey_s, alab_s = akey[order], alab[order]
        snode = seek["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        skey = seek["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(akey_s, skey)
        # every label IS a node id, so the authority always exists
        return pa.table({"node": pa.array(snode), "label": pa.array(alab_s[pos])})

    # Adaptive pointer jumping: hash-min moves the min label one hop per
    # round (fine for shallow dup graphs); if the loop is still changing
    # after JUMP_AFTER rounds the graph has long chains, so each further
    # round also resolves label <- label[label] — one extra int shuffle per
    # round for O(log diameter) total rounds instead of O(diameter).
    JUMP_AFTER = 12  # above the round count of typical shallow dup graphs
    for it in range(max_iters):
        lab_tagged = labels.map_batches(label_rows, batch_format="pyarrow")
        cands = shard_apply([lab_tagged, edges_bi], ["src"], propagate,
                            rows=n_rows)
        new_labels = shard_apply(cands, ["node"], minimize, rows=n_rows).materialize()
        n_changed = new_labels.sum("changed")
        # lazy projection over the materialized table: consumed once per
        # iteration, so a second materialization would be a pure copy
        labels = new_labels.drop_columns("changed")
        if not n_changed:
            break
        if it >= JUMP_AFTER:
            labels = shard_apply(labels, ["key"], resolve, prepare=jump_rows,
                                 rows=n_nodes)

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({node_col: batch["node"], "component": batch["label"]})

    return labels.map_batches(rename, batch_format="pyarrow")


def group_star_edges(ds, key_cols: list[str], id_col: str = "doc_id",
                     broadcast_keys: int = 4_000_000):
    """Star edges (min_id, other_id) per group of equal ``key_cols`` — the
    standard way a same-key dup relation becomes a graph without emitting
    the quadratic all-pairs.  Emits nothing for singleton groups.

    Thin wrapper over :func:`group_star_edges_multi` with one relation
    (one combiner exchange, broadcast key->min emit, co-partition
    fallback — see there for the shuffle shape)."""
    return group_star_edges_multi(
        ds, [list(key_cols)], id_col=id_col, broadcast_keys=broadcast_keys,
    )


def pagerank_int(edges_ds, nodes_ds, node_col: str = "node",
                 a_col: str = "a", b_col: str = "b",
                 iters: int = 5, scale: int = 10**9):
    """Deterministic integer PageRank over an undirected edge set.

    Float PageRank re-associates mass sums under Ray's nondeterministic
    block order, so the SPEC is integer: every node starts with ``scale``
    mass; each iteration every node sends ``floor(0.85 * m) // deg`` along
    each incident edge and the new mass is ``floor(0.15 * scale)`` plus
    the EXACT int64 sum of incoming sends (associative => bit-identical
    across any partitioning, independently oracle-able — the kmeans
    quantization trick applied to a graph walk).  Degree-0 nodes keep only
    the teleport term; floor residues vanish (the standard integer-PR
    leak, documented — ranks are for ORDERING, not a probability).

    Scale shape: degrees via one sharded count; per iteration ONE dst-hash
    exchange of (dst, sent) int pairs pre-combined per batch with a
    ``np.add.at`` partial; mass lives co-sharded with a stable node order,
    never on the driver (only O(shards) control flow does).  Returns a
    Dataset of (node, rank) with rank the final integer mass.
    """
    import ray  # noqa: F401
    import ray.data

    from .keyed import sharded_grouped_agg

    def to_directed(batch: pa.Table) -> pa.Table:
        a = pc.cast(batch[a_col], pa.int64()).to_numpy(zero_copy_only=False)
        b = pc.cast(batch[b_col], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"src": pa.array(np.concatenate([a, b])),
                         "dst": pa.array(np.concatenate([b, a]))})

    edges = (
        edges_ds.map_batches(to_directed, batch_format="pyarrow")
        .repartition(fanin())
        .materialize()
    )

    def deg_partial(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["src"],
                         "deg": pa.array(np.ones(batch.num_rows, np.int64))})

    # collect degrees + node universe ONCE (ints only, O(nodes) — the same
    # bound CC's label state already accepts; at 10^9 nodes this moves to a
    # co-sharded join, same shape, noted here)
    deg_parts = sharded_grouped_agg(
        edges.map_batches(deg_partial, batch_format="pyarrow"),
        ["node"], [("deg", "sum")],
    ).to_pandas()
    node_parts = nodes_ds.map_batches(
        lambda b: pa.table({"node": pc.unique(pc.cast(b[node_col], pa.int64()))}),
        batch_format="pyarrow",
    ).to_pandas()
    all_nodes = np.sort(np.unique(node_parts["node"].to_numpy()))
    deg = np.zeros(len(all_nodes), dtype=np.int64)
    pos = np.searchsorted(all_nodes, deg_parts["node"].to_numpy())
    deg[pos] = deg_parts["deg"].to_numpy()

    import ray as _ray

    nodes_ref = _ray.put((all_nodes, deg))
    teleport = int(0.15 * scale)
    mass = np.full(len(all_nodes), scale, dtype=np.int64)

    # Size-aware: when the directed edge list fits one worker, all
    # iterations run inside ONE Ray task (integer spec -> bit-identical to
    # the distributed loop, whose per-iteration exchange is pure overhead
    # at this size).  ``SMALL_GRAPH_ROWS = 0`` forces the loop.
    n_edge_rows = edges.count()
    if n_edge_rows == 0:
        final = np.full(len(all_nodes), teleport if iters > 0 else scale, np.int64)
        return ray.data.from_arrow(pa.table({
            "node": pa.array(all_nodes, pa.int64()),
            "rank": pa.array(final, pa.int64()),
        }))
    if n_edge_rows <= SMALL_GRAPH_ROWS:
        def run_all(batch: pa.Table) -> pa.Table:
            nodes_s, deg_s = _ray.get(nodes_ref)
            src = batch["src"].to_numpy(zero_copy_only=False)
            dst = batch["dst"].to_numpy(zero_copy_only=False)
            si = np.searchsorted(nodes_s, src)
            di = np.searchsorted(nodes_s, dst)
            m = np.full(len(nodes_s), scale, dtype=np.int64)
            for _ in range(iters):
                per_edge = (m[si] * 85 // 100) // np.maximum(deg_s[si], 1)
                nm = np.full(len(nodes_s), teleport, dtype=np.int64)
                np.add.at(nm, di, per_edge)
                m = nm
            return pa.table({"node": pa.array(nodes_s, pa.int64()),
                             "rank": pa.array(m)})

        return (
            edges.repartition(1)
            .map_batches(run_all, batch_format="pyarrow", batch_size=None)
        )

    for _ in range(iters):
        mass_ref = _ray.put(mass)

        def send(batch: pa.Table, _m=mass_ref) -> pa.Table:
            nodes_s, deg_s = _ray.get(nodes_ref)
            m = _ray.get(_m)
            src = batch["src"].to_numpy(zero_copy_only=False)
            dst = batch["dst"].to_numpy(zero_copy_only=False)
            si = np.searchsorted(nodes_s, src)
            per_edge = (m[si] * 85 // 100) // np.maximum(deg_s[si], 1)
            return pa.table({"node": pa.array(dst),
                             "recv": pa.array(per_edge)})

        recv = sharded_grouped_agg(
            edges.map_batches(send, batch_format="pyarrow"),
            ["node"], [("recv", "sum")],
        ).to_pandas()
        new_mass = np.full(len(all_nodes), teleport, dtype=np.int64)
        pos = np.searchsorted(all_nodes, recv["node"].to_numpy())
        new_mass[pos] += recv["recv"].to_numpy()
        mass = new_mass

    return ray.data.from_arrow(pa.table({
        "node": pa.array(all_nodes, pa.int64()),
        "rank": pa.array(mass, pa.int64()),
    }))


def triangle_count(edges_ds, a_col: str = "a", b_col: str = "b") -> int:
    """EXACT global triangle count of an undirected simple graph.

    DEGREE-ORDERED orientation: after canonical dedup, each edge points
    to its smaller (degree, id) endpoint, and wedges are generated only
    at a node over its incoming edges — each triangle is produced exactly
    once (at its min-(deg, id) vertex) and the per-apex neighborhood is
    bounded by O(sqrt(E)) REGARDLESS of raw degree, so a hot dup-star hub
    (this repo's primary input shape) can never materialize a quadratic
    wedge set (the plain min-VERTEX orientation did exactly that —
    review finding).

    Exchanges: (1) canonical edges co-partition by hash(lo) for global
    dedup; (2) a narrow (node, deg) sharded count, collected to the
    driver and broadcast via ``ray.put`` (O(nodes) ints — the bound
    pagerank_int already accepts and documents); (3) oriented edges
    co-partition by apex for triu wedge generation; (4) wedges (tag 0)
    and canonical edges (tag 1) co-partition by pair hash for one
    structured-dtype searchsorted membership count.  Only O(shards)
    count rows reach the driver.
    """
    import ray

    import pyarrow.compute as _pc

    from .keyed import sharded_grouped_agg

    def canon(batch: pa.Table) -> pa.Table:
        a = _pc.cast(batch[a_col], pa.int64()).to_numpy(zero_copy_only=False)
        b = _pc.cast(batch[b_col], pa.int64()).to_numpy(zero_copy_only=False)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        m = lo != hi
        return pa.table({"u": pa.array(lo[m]), "v": pa.array(hi[m])})

    def dedup_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by([("u", "ascending"), ("v", "ascending")])
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        keep = np.ones(len(u), dtype=bool)  # global: all (u, *) co-located
        keep[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        return pa.table({"u": pa.array(u[keep]), "v": pa.array(v[keep])})

    edges = shard_apply(edges_ds, ["u"], dedup_shard, prepare=canon).materialize()

    def deg_partial(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        node = np.concatenate([u, v])
        return pa.table({"node": pa.array(node),
                         "deg": pa.array(np.ones(len(node), np.int64))})

    deg_df = sharded_grouped_agg(
        edges.map_batches(deg_partial, batch_format="pyarrow"),
        ["node"], [("deg", "sum")],
    ).to_pandas()
    nodes_s = np.sort(deg_df["node"].to_numpy(np.int64))
    deg_s = deg_df.set_index("node")["deg"].loc[nodes_s].to_numpy(np.int64)
    deg_ref = ray.put((nodes_s, deg_s))

    def orient(batch: pa.Table, _d=deg_ref) -> pa.Table:
        ns, ds_ = ray.get(_d)
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        du = ds_[np.searchsorted(ns, u)]
        dv = ds_[np.searchsorted(ns, v)]
        # apex = smaller (deg, id) endpoint
        u_is_apex = (du < dv) | ((du == dv) & (u < v))
        apex = np.where(u_is_apex, u, v)
        nb = np.where(u_is_apex, v, u)
        return pa.table({"apex": pa.array(apex), "nb": pa.array(nb)})

    def wedges(group: pa.Table) -> pa.Table:
        t = group.sort_by([("apex", "ascending"), ("nb", "ascending")])
        a = t["apex"].to_numpy(zero_copy_only=False)
        nb = t["nb"].to_numpy(zero_copy_only=False)
        new = np.ones(len(a), dtype=bool)
        new[1:] = a[1:] != a[:-1]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(a)]
        wx, wy = [], []
        for s_, e_ in zip(starts, ends):
            m = e_ - s_
            if m < 2:
                continue
            iu, ju = np.triu_indices(m, k=1)
            seg = nb[s_:e_]  # sorted, so pair (x, y) has x < y... by id
            wx.append(seg[iu])
            wy.append(seg[ju])
        if not wx:
            return pa.table({"x": pa.array([], pa.int64()),
                             "y": pa.array([], pa.int64()),
                             "tag": pa.array([], pa.int8())})
        x = np.concatenate(wx)
        y = np.concatenate(wy)
        # canonical pair form for the membership check
        cx = np.minimum(x, y)
        cy = np.maximum(x, y)
        return pa.table({
            "x": pa.array(cx), "y": pa.array(cy),
            "tag": pa.array(np.zeros(len(cx), np.int8)),
        })

    def tag_edges(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        return pa.table({
            "x": pa.array(u), "y": pa.array(v),
            "tag": pa.array(np.ones(len(u), np.int8)),
        })

    def count(group: pa.Table) -> pa.Table:
        tag = group["tag"].to_numpy(zero_copy_only=False)
        x = group["x"].to_numpy(zero_copy_only=False)
        y = group["y"].to_numpy(zero_copy_only=False)
        em, wm = tag == 1, tag == 0
        if not em.any() or not wm.any():
            return pa.table({"n": pa.array([0], pa.int64())})
        ex, ey = x[em], y[em]
        order = np.lexsort((ey, ex))
        comp_e = np.rec.fromarrays([ex[order], ey[order]])
        comp_w = np.rec.fromarrays([x[wm], y[wm]])
        idx = np.minimum(np.searchsorted(comp_e, comp_w), len(comp_e) - 1)
        hitn = int((comp_e[idx] == comp_w).sum())
        return pa.table({"n": pa.array([hitn], pa.int64())})

    wedge_rows = shard_apply(edges.map_batches(orient, batch_format="pyarrow"),
                             ["apex"], wedges)
    counts = shard_apply(
        [wedge_rows, edges.map_batches(tag_edges, batch_format="pyarrow")],
        ["x", "y"], count)
    total = counts.sum("n")
    return int(total or 0)


def group_star_edges_multi(ds, key_sets: list[list[str]],
                           id_col: str = "doc_id", broadcast_keys: int = 4_000_000):
    """Star edges for SEVERAL group relations in ONE pass — the dup
    graphs here union 2+ relations (e.g. (lang, bucket) and (source,
    bucket)), and building them separately pays the combiner exchange,
    the key-table materialization and the broadcast once per relation.

    Keys are canonicalized to a ``\\x1f``-joined string so every relation
    shares one (rel, key) schema; per-batch combiner emits one row per
    (rel, key, batch); ONE sharded merge; the multi-member key->min table
    for ALL relations broadcasts once; ONE shuffle-free emit pass merges
    every relation per batch.  Output: undirected edges (a=group min, b).
    Same fallback note as :func:`group_star_edges` (co-partition when the
    dup-key table outgrows a broadcast).
    """
    import ray

    from .keyed import sharded_grouped_agg

    SEP = "\x1f"

    def _keystr(batch: pa.Table, keys: list[str]) -> pa.Array:
        cols = [pc.cast(batch[c], pa.string()) for c in keys]
        if len(cols) == 1:
            return cols[0]
        return pc.binary_join_element_wise(*cols, SEP)

    def partial(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch[id_col], pa.int64())
        ones = pa.array(np.ones(batch.num_rows, np.int64))
        return pa.concat_tables([
            pa.table({
                "rel": pa.array(np.full(batch.num_rows, rel, np.int64)),
                "k": _keystr(batch, keys),
                "_gmin": ids,
                "_gn": ones,
            })
            for rel, keys in enumerate(key_sets)
        ])

    def keep_multi(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["_gn"], 1)).drop_columns("_gn")

    mins = sharded_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["rel", "k"], [("_gmin", "min"), ("_gn", "sum")],
    ).map_batches(keep_multi, batch_format="pyarrow").materialize()
    n_keys = mins.count()

    empty = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    if n_keys == 0:
        return ds.map_batches(lambda b: empty, batch_format="pyarrow")

    if n_keys <= broadcast_keys:
        mins_ref = ray.put(mins.to_pandas())

        def emit(batch: pa.Table, _r=mins_ref) -> pa.Table:
            mdf = ray.get(_r)
            ids = pc.cast(batch[id_col], pa.int64()).to_numpy(zero_copy_only=False)
            frames = []
            import pandas as pd

            for rel, keys in enumerate(key_sets):
                frames.append(pd.DataFrame({
                    "rel": np.full(len(ids), rel, np.int64),
                    "k": _keystr(batch, keys).to_pandas(),
                    "id": ids,
                }))
            long = pd.concat(frames, ignore_index=True)
            j = long.merge(mdf, on=["rel", "k"], how="inner")
            jid = j["id"].to_numpy().astype(np.int64)
            gmin = j["_gmin"].to_numpy().astype(np.int64)
            m = jid != gmin
            return pa.table({"a": pa.array(gmin[m]), "b": pa.array(jid[m])})

        return ds.map_batches(emit, batch_format="pyarrow")

    # fallback: co-partition the (rel, key, id) rows by key hash
    from ..stages.keyed import _segment_starts

    def explode(batch: pa.Table) -> pa.Table:
        parts = []
        for rel, keys in enumerate(key_sets):
            t = pa.table({
                "rel": pa.array(np.full(batch.num_rows, rel, np.int64)),
                "k": _keystr(batch, keys),
                id_col: pc.cast(batch[id_col], pa.int64()),
            })
            parts.append(t)
        return pa.concat_tables(parts)

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("rel", "ascending"), ("k", "ascending"), (id_col, "ascending")]
        )
        new = _segment_starts(t, ["rel", "k"])
        starts = np.flatnonzero(new)
        sizes = np.diff(np.r_[starts, t.num_rows])
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mins_arr = np.repeat(ids[starts], sizes)
        m = ids != mins_arr
        return pa.table({"a": pa.array(mins_arr[m]), "b": pa.array(ids[m])})

    return shard_apply(ds, ["rel", "k"], per_shard, prepare=explode,
                       coalesce=False)
