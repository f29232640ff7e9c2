"""TPC-H completion wave: the remaining canonical join plans, adapted to
this star schema (no ``partsupp`` table, no commit/receipt dates — Q4/Q21's
EXISTS probes use ship-vs-order-date lateness, Q2/Q9/Q11/Q16 substitute
lineitem-derived supply relations for partsupp).

Every query follows the house protocol (pipelines/queries.py): money in
exact cent x cent micro units (int64) through every exchange, one final
division to DOUBLE identical on both engines; dim tables are read
driver-side (pyarrow) and broadcast; fact-side combiners pre-aggregate
inside map_batches so only partial rows reach the single sharded exchange
(stages/keyed.sharded_grouped_agg).  Broadcast escalation at 100 TB: any
"collected window of orders" broadcast switches to stages/joins.shuffle_join
on orderkey, as documented on q_tpch_q3.

Reference parity note: the reference engine (copyer.go) has no relational
surface — these queries exercise the engine primitives (broadcast/semi/anti
join, distinct-count, argmin join-back, global-scalar two-pass) that the
training-data pipelines share.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.joins import broadcast_join
from ..stages.keyed import count_distinct_per_group, sharded_grouped_agg
from ..windows import ts_to_ms
from .qsubstrate import _cents, _read

_MS_1996_01 = 820_454_400_000
_MS_1996_04 = 828_316_800_000
_MS_1996_07 = 836_179_200_000
_MS_1997_01 = 852_076_800_000
_MS_1998_01 = 883_612_800_000
_MS_1999_01 = 915_148_800_000
_MS_60D = 60 * 86_400_000
_MS_90D = 90 * 86_400_000
# argmin composite: (acctbal_cents + _BAL_OFF) * _COMP_BASE + suppkey.
# acctbal >= -100k$ keeps the shifted cents positive; suppkey < 2^20.
_BAL_OFF = 10_000_000
_COMP_BASE = 1 << 20


def _dim(sf_dir: str, name: str, columns=None) -> pa.Table:
    import pyarrow.parquet as pq_mod

    return pq_mod.read_table(f"{sf_dir}/{name}.parquet", columns=columns)


def _disc1_cents(col) -> np.ndarray:
    return np.rint(
        (1.0 - col.to_numpy(zero_copy_only=False).astype(np.float64)) * 100.0
    ).astype(np.int64)


def _i64(col) -> np.ndarray:
    return pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False)


def _collect(ds) -> pa.Table:
    return pa.concat_tables(ds.iter_batches(batch_format="pyarrow"))


def _nation_lookup(sf_dir: str):
    nation = _dim(sf_dir, "nation", ["n_nationkey", "n_name"])
    keys = _i64(nation["n_nationkey"])
    order = np.argsort(keys, kind="stable")
    return keys[order], np.array(nation["n_name"].to_pylist(), dtype=object)[order]


def q_tpch_q4(sf_dir: str):
    """TPC-H Q4 (order-priority checking).  EXISTS probe adapted to
    'some lineitem shipped >60 days after the order date'.  Plan: the
    one-quarter window of orders is collected and broadcast into the
    lineitem scan; count_distinct_per_group does the sharded
    distinct-order count over the late (orderkey, priority) pairs, its
    per-batch combiner dropping repeats before the exchange."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])

    def ofilt(batch: pa.Table) -> pa.Table:
        ms = ts_to_ms(batch["o_orderdate"])
        keep = pc.and_(
            pc.greater_equal(ms, pa.scalar(_MS_1996_01, pa.int64())),
            pc.less(ms, pa.scalar(_MS_1996_07, pa.int64())),
        )
        t = batch.filter(keep)
        return pa.table({
            "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
            "o_date_ms": ts_to_ms(t["o_orderdate"]),
            "o_orderpriority": t["o_orderpriority"],
        })

    ord_tbl = _collect(orders.map_batches(ofilt, batch_format="pyarrow"))

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    joined = broadcast_join(li, ord_tbl, "l_orderkey", "o_orderkey",
                            right_cols=["o_date_ms", "o_orderpriority"])

    def late_pairs(batch: pa.Table) -> pa.Table:
        ship = ts_to_ms(batch["l_shipdate"])
        keep = pc.greater(
            ship, pc.add(batch["o_date_ms"], pa.scalar(_MS_60D, pa.int64()))
        )
        return batch.filter(keep).select(["l_orderkey", "o_orderpriority"])

    pairs = joined.map_batches(late_pairs, batch_format="pyarrow")
    return count_distinct_per_group(
        pairs, ["o_orderpriority"], "l_orderkey",
        out_col="order_count",
    )


def q_tpch_q7(sf_dir: str):
    """TPC-H Q7 (volume shipping), generalized to ALL ordered nation pairs
    (supp_nation != cust_nation) per ship year in [1996, 1998).  Plan:
    customer nation rides the collected orders broadcast, supplier nation
    broadcasts directly, the pair census pre-aggregates per batch and the
    only exchange is (supp_nation, cust_nation, year) partials — bounded
    by 25 x 24 x years regardless of data size."""
    nkeys, nnames = _nation_lookup(sf_dir)
    cust = _dim(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    supp = _dim(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    ord_tbl = _collect(
        broadcast_join(orders, cust, "o_custkey", "c_custkey",
                       right_cols=["c_nationkey"])
    ).select(["o_orderkey", "c_nationkey"])

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate",
                "l_extendedprice", "l_discount"])

    def prep(batch: pa.Table) -> pa.Table:
        ms = ts_to_ms(batch["l_shipdate"])
        keep = pc.and_(
            pc.greater_equal(ms, pa.scalar(_MS_1996_01, pa.int64())),
            pc.less(ms, pa.scalar(_MS_1998_01, pa.int64())),
        )
        t = batch.filter(keep)
        return pa.table({
            "l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
            "l_suppkey": pc.cast(t["l_suppkey"], pa.int64()),
            "l_year": pc.cast(pc.year(t["l_shipdate"]), pa.int64()),
            "micro": pa.array(
                _cents(t["l_extendedprice"]) * _disc1_cents(t["l_discount"])
            ),
        })

    j1 = broadcast_join(li.map_batches(prep, batch_format="pyarrow"),
                        ord_tbl, "l_orderkey", "o_orderkey",
                        right_cols=["c_nationkey"])
    j2 = broadcast_join(j1, supp, "l_suppkey", "s_suppkey",
                        right_cols=["s_nationkey"])

    def partial(batch: pa.Table) -> pa.Table:
        cn = _i64(batch["c_nationkey"])
        sn = _i64(batch["s_nationkey"])
        keep = cn != sn
        t = batch.filter(pa.array(keep))
        return pa.table({
            "supp_nation": pa.array(
                nnames[np.searchsorted(nkeys, sn[keep])].tolist(), pa.string()
            ),
            "cust_nation": pa.array(
                nnames[np.searchsorted(nkeys, cn[keep])].tolist(), pa.string()
            ),
            "l_year": t["l_year"],
            "micro": t["micro"],
        })

    agg = sharded_grouped_agg(
        j2.map_batches(partial, batch_format="pyarrow"),
        ["supp_nation", "cust_nation", "l_year"], [("micro", "sum")],
    )

    def fin(batch: pa.Table) -> pa.Table:
        rev = batch["micro"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "supp_nation": batch["supp_nation"],
            "cust_nation": batch["cust_nation"],
            "l_year": batch["l_year"],
            "revenue": pa.array(rev / 10000.0, pa.float64()),
        })

    return agg.map_batches(fin, batch_format="pyarrow")


def q_tpch_q8(sf_dir: str):
    """TPC-H Q8 (national market share): NATION_0 suppliers' share of
    PROMO-part revenue in ASIA-region customers' 1996-1998 orders, per
    order year.  Plan: PROMO partkeys and ASIA-customer order windows are
    tiny broadcasts; the (year) census carries two exact micro sums
    (nation numerator / total denominator) so the share is ONE double
    division of identical ints on both engines."""
    region = _dim(sf_dir, "region")
    nation = _dim(sf_dir, "nation")
    asia = region.filter(pc.equal(region["r_name"], "ASIA"))["r_regionkey"]
    asia_nat = nation.filter(
        pc.is_in(pc.cast(nation["n_regionkey"], pa.int64()),
                 value_set=pc.cast(asia, pa.int64()))
    )
    asia_natkeys = np.sort(_i64(asia_nat["n_nationkey"]))

    cust = _dim(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    cust_asia = cust.filter(
        pa.array(np.isin(_i64(cust["c_nationkey"]), asia_natkeys))
    ).select(["c_custkey"])
    part = _dim(sf_dir, "part", ["p_partkey", "p_type"])
    promo = part.filter(pc.equal(part["p_type"], "PROMO")).select(["p_partkey"])
    supp = _dim(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def ofilt(batch: pa.Table) -> pa.Table:
        ms = ts_to_ms(batch["o_orderdate"])
        keep = pc.and_(
            pc.greater_equal(ms, pa.scalar(_MS_1996_01, pa.int64())),
            pc.less(ms, pa.scalar(_MS_1999_01, pa.int64())),
        )
        t = batch.filter(keep)
        return pa.table({
            "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
            "o_custkey": t["o_custkey"],
            "o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
        })

    ord_tbl = _collect(
        broadcast_join(orders.map_batches(ofilt, batch_format="pyarrow"),
                       cust_asia, "o_custkey", "c_custkey", how="semi")
    ).select(["o_orderkey", "o_year"])

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey",
                "l_extendedprice", "l_discount"])
    li1 = broadcast_join(li, promo, "l_partkey", "p_partkey", how="semi")
    li2 = broadcast_join(li1, ord_tbl, "l_orderkey", "o_orderkey",
                         right_cols=["o_year"])
    li3 = broadcast_join(li2, supp, "l_suppkey", "s_suppkey",
                         right_cols=["s_nationkey"])

    def partial(batch: pa.Table) -> pa.Table:
        micro = _cents(batch["l_extendedprice"]) * _disc1_cents(batch["l_discount"])
        nat = _i64(batch["s_nationkey"])
        return pa.table({
            "o_year": batch["o_year"],
            "nat_micro": pa.array(np.where(nat == 0, micro, 0)),
            "tot_micro": pa.array(micro),
        })

    agg = sharded_grouped_agg(
        li3.map_batches(partial, batch_format="pyarrow"),
        ["o_year"], [("nat_micro", "sum"), ("tot_micro", "sum")],
    )

    def fin(batch: pa.Table) -> pa.Table:
        n = batch["nat_micro"].to_numpy(zero_copy_only=False).astype(np.float64)
        d = batch["tot_micro"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "o_year": batch["o_year"],
            "mkt_share": pa.array(n / d, pa.float64()),
        })

    return agg.map_batches(fin, batch_format="pyarrow")


def q_tpch_q9(sf_dir: str):
    """TPC-H Q9 (product-type profit), adapted: cost proxy is
    p_retailprice x quantity (no partsupp supplycost in this schema);
    parts restricted to p_type='ECONOMY'.  amount stays exact int64 micro
    (cents x cents, retail cents x integral qty x 100) through the
    (nation, year) census."""
    nkeys, nnames = _nation_lookup(sf_dir)
    part = _dim(sf_dir, "part", ["p_partkey", "p_type", "p_retailprice"])
    eco = part.filter(pc.equal(part["p_type"], "ECONOMY"))
    eco_tbl = pa.table({
        "p_partkey": pc.cast(eco["p_partkey"], pa.int64()),
        "retail_c": pa.array(_cents(eco["p_retailprice"])),
    })
    supp = _dim(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_shipdate", "l_quantity",
                "l_extendedprice", "l_discount"])
    j1 = broadcast_join(li, eco_tbl, "l_partkey", "p_partkey",
                        right_cols=["retail_c"])
    j2 = broadcast_join(j1, supp, "l_suppkey", "s_suppkey",
                        right_cols=["s_nationkey"])

    def partial(batch: pa.Table) -> pa.Table:
        qty = np.rint(
            batch["l_quantity"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        retail_c = batch["retail_c"].to_numpy(zero_copy_only=False)
        amount = (
            _cents(batch["l_extendedprice"]) * _disc1_cents(batch["l_discount"])
            - retail_c * qty * 100
        )
        sn = _i64(batch["s_nationkey"])
        return pa.table({
            "nation": pa.array(
                nnames[np.searchsorted(nkeys, sn)].tolist(), pa.string()
            ),
            "o_year": pc.cast(pc.year(batch["l_shipdate"]), pa.int64()),
            "micro": pa.array(amount),
        })

    agg = sharded_grouped_agg(
        j2.map_batches(partial, batch_format="pyarrow"),
        ["nation", "o_year"], [("micro", "sum")],
    )

    def fin(batch: pa.Table) -> pa.Table:
        amt = batch["micro"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "nation": batch["nation"],
            "o_year": batch["o_year"],
            "sum_profit": pa.array(amt / 10000.0, pa.float64()),
        })

    return agg.map_batches(fin, batch_format="pyarrow")


def q_tpch_q11(sf_dir: str):
    """TPC-H Q11 (important stock), adapted: a part is 'important' when
    its total lineitem extendedprice exceeds the MEAN per-part value
    (partsupp value -> lineitem revenue; the canonical 0.01% fraction is
    degenerate on this uniform synthetic corpus).  Two-pass global-scalar
    plan: per-partkey cents census (one sharded exchange, bounded by the
    part dim), the global total is the exact int sum of that census, and
    the threshold compare value * n_parts > total is pure int64."""
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_partkey": pc.cast(batch["l_partkey"], pa.int64()),
            "value_c": pa.array(_cents(batch["l_extendedprice"])),
        })

    per_part = sharded_grouped_agg(
        li.map_batches(partial, batch_format="pyarrow"),
        ["l_partkey"], [("value_c", "sum")],
    )
    tbl = _collect(per_part)  # bounded by the part dim cardinality
    total = int(pc.sum(tbl["value_c"]).as_py() or 0)
    vals = tbl["value_c"].to_numpy(zero_copy_only=False)
    out = tbl.filter(pa.array(vals * tbl.num_rows > total))
    return pa.table({
        "l_partkey": out["l_partkey"],
        "value": pa.array(
            out["value_c"].to_numpy(zero_copy_only=False).astype(np.float64)
            / 100.0,
            pa.float64(),
        ),
    })


def q_tpch_q15(sf_dir: str):
    """TPC-H Q15 (top supplier): revenue per supplier over 1996Q1
    shipments, return the max-revenue supplier(s).  Two-pass
    global-scalar plan: per-supplier micro census (bounded by the
    supplier dim), driver max, equality filter, name join driver-side."""
    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"])

    def partial(batch: pa.Table) -> pa.Table:
        ms = ts_to_ms(batch["l_shipdate"])
        keep = pc.and_(
            pc.greater_equal(ms, pa.scalar(_MS_1996_01, pa.int64())),
            pc.less(ms, pa.scalar(_MS_1996_04, pa.int64())),
        )
        t = batch.filter(keep)
        return pa.table({
            "s": pc.cast(t["l_suppkey"], pa.int64()),
            "micro": pa.array(
                _cents(t["l_extendedprice"]) * _disc1_cents(t["l_discount"])
            ),
        })

    per_supp = sharded_grouped_agg(
        li.map_batches(partial, batch_format="pyarrow"),
        ["s"], [("micro", "sum")],
    )
    tbl = _collect(per_supp)  # bounded by the supplier dim
    micro = tbl["micro"].to_numpy(zero_copy_only=False)
    best = tbl.filter(pa.array(micro == micro.max()))

    supp = _dim(sf_dir, "supplier", ["s_suppkey", "s_name"])
    skeys = _i64(supp["s_suppkey"])
    order = np.argsort(skeys, kind="stable")
    snames = np.array(supp["s_name"].to_pylist(), dtype=object)[order]
    sk = best["s"].to_numpy(zero_copy_only=False)
    idx = np.searchsorted(skeys[order], sk)
    return pa.table({
        "s_suppkey": pa.array(sk, pa.int64()),
        "s_name": pa.array(snames[idx].tolist(), pa.string()),
        "total_revenue": pa.array(
            best["micro"].to_numpy(zero_copy_only=False).astype(np.float64)
            / 10000.0,
            pa.float64(),
        ),
    })


def q_tpch_q16(sf_dir: str):
    """TPC-H Q16 (parts/supplier relationship), adapted: distinct
    suppliers who shipped each (brand, type, size) class, for parts not
    Brand#5, not PROMO type, size in the canonical 8-value IN list;
    'complaint' suppliers substituted by s_acctbal < 1000 (no comment
    column).  Distinct counting via count_distinct_per_group — the only
    exchange moves distinct (brand, type, size, suppkey) combiner rows."""
    part = _dim(sf_dir, "part", ["p_partkey", "p_brand", "p_type", "p_size"])
    sizes = pa.array([1, 4, 7, 10, 13, 16, 19, 22], pa.int64())
    keep = pc.and_(
        pc.and_(
            pc.not_equal(part["p_brand"], "Brand#5"),
            pc.not_equal(part["p_type"], "PROMO"),
        ),
        pc.is_in(pc.cast(part["p_size"], pa.int64()), value_set=sizes),
    )
    psel = part.filter(keep)
    part_tbl = pa.table({
        "p_partkey": pc.cast(psel["p_partkey"], pa.int64()),
        "p_brand": psel["p_brand"],
        "p_type": psel["p_type"],
        "p_size": pc.cast(psel["p_size"], pa.int64()),
    })
    supp = _dim(sf_dir, "supplier", ["s_suppkey", "s_acctbal"])
    bad = np.sort(_i64(
        supp.filter(pc.less(supp["s_acctbal"], 1000.0))["s_suppkey"]
    ))

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    j = broadcast_join(li, part_tbl, "l_partkey", "p_partkey",
                       right_cols=["p_brand", "p_type", "p_size"])

    def drop_bad(batch: pa.Table) -> pa.Table:
        sk = _i64(batch["l_suppkey"])
        t = batch.filter(pa.array(~np.isin(sk, bad)))
        return pa.table({
            "p_brand": t["p_brand"],
            "p_type": t["p_type"],
            "p_size": t["p_size"],
            "l_suppkey": pc.cast(t["l_suppkey"], pa.int64()),
        })

    return count_distinct_per_group(
        j.map_batches(drop_bad, batch_format="pyarrow"),
        ["p_brand", "p_type", "p_size"], "l_suppkey",
        out_col="supplier_cnt",
    )


def q_tpch_q17(sf_dir: str):
    """TPC-H Q17 (small-quantity revenue): average yearly revenue lost if
    Brand#3 orders below 20% of the part's average quantity were not
    taken.  Aggregate->broadcast->probe plan: per-part (sum_qty, cnt)
    census (bounded by the brand's parts), broadcast into a second
    lineitem pass; the 20% compare qty*5*cnt < sum_qty is exact int64 and
    the single final division by 700 (cents -> dollars / 7 years) is the
    only float op."""
    part = _dim(sf_dir, "part", ["p_partkey", "p_brand"])
    b3 = pa.table({
        "p_partkey": pc.cast(
            part.filter(pc.equal(part["p_brand"], "Brand#3"))["p_partkey"],
            pa.int64(),
        )
    })

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])

    def qty_partial(batch: pa.Table) -> pa.Table:
        qty = np.rint(
            batch["l_quantity"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        return pa.table({
            "l_partkey": pc.cast(batch["l_partkey"], pa.int64()),
            "sum_q": pa.array(qty),
            "cnt": pa.array(np.ones(len(qty), np.int64)),
        })

    li_b3 = broadcast_join(li, b3, "l_partkey", "p_partkey", how="semi")
    stats = _collect(sharded_grouped_agg(
        li_b3.map_batches(qty_partial, batch_format="pyarrow"),
        ["l_partkey"], [("sum_q", "sum"), ("cnt", "sum")],
    ))

    li2 = broadcast_join(
        _read(sf_dir, "lineitem",
              ["l_partkey", "l_quantity", "l_extendedprice"]),
        stats, "l_partkey", "l_partkey", right_cols=["sum_q", "cnt"],
    )

    def survivors(batch: pa.Table) -> pa.Table:
        qty = np.rint(
            batch["l_quantity"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        sum_q = batch["sum_q"].to_numpy(zero_copy_only=False)
        cnt = batch["cnt"].to_numpy(zero_copy_only=False)
        keep = qty * 5 * cnt < sum_q
        total = int(_cents(batch["l_extendedprice"])[keep].sum())
        return pa.table({"cents": pa.array([total], pa.int64())})

    parts = _collect(li2.map_batches(survivors, batch_format="pyarrow"))
    total_c = int(pc.sum(parts["cents"]).as_py() or 0)
    return pa.table({"avg_yearly": pa.array([total_c / 700.0], pa.float64())})


def q_tpch_q19(sf_dir: str):
    """TPC-H Q19 (discounted revenue): disjunction of three
    (brand, max-size, quantity-range) clauses, adapted to the available
    part attributes.  Part attrs broadcast into the lineitem scan, the OR
    mask fully vectorized, one exact micro scalar out."""
    part = _dim(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])
    part_tbl = pa.table({
        "p_partkey": pc.cast(part["p_partkey"], pa.int64()),
        "p_brand": part["p_brand"],
        "p_size": pc.cast(part["p_size"], pa.int64()),
    })

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])
    j = broadcast_join(li, part_tbl, "l_partkey", "p_partkey",
                       right_cols=["p_brand", "p_size"])

    def partial(batch: pa.Table) -> pa.Table:
        qty = np.rint(
            batch["l_quantity"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        size = batch["p_size"].to_numpy(zero_copy_only=False)
        brand = np.asarray(batch["p_brand"].to_pylist(), dtype=object)
        m1 = (brand == "Brand#1") & (size <= 10) & (qty >= 1) & (qty <= 20)
        m2 = (brand == "Brand#2") & (size <= 20) & (qty >= 5) & (qty <= 30)
        m3 = (brand == "Brand#3") & (size <= 30) & (qty >= 10) & (qty <= 40)
        keep = m1 | m2 | m3
        micro = (
            _cents(batch["l_extendedprice"]) * _disc1_cents(batch["l_discount"])
        )[keep]
        return pa.table({"micro": pa.array([int(micro.sum())], pa.int64())})

    parts = _collect(j.map_batches(partial, batch_format="pyarrow"))
    total = int(pc.sum(parts["micro"]).as_py() or 0)
    return pa.table({"revenue": pa.array([total / 10000.0], pa.float64())})


def q_tpch_q21(sf_dir: str):
    """TPC-H Q21 (suppliers who kept waiting), adapted: in 'F'-status
    orders with >= 2 distinct suppliers, count per supplier the orders
    where THEY were the only one shipping > 90 days after the order date.
    Plan: two combiner-bounded exchanges — (orderkey, suppkey, max late)
    then per-order (n_supp, n_late, sum(late*suppkey)); when n_late == 1
    that weighted sum IS the guilty suppkey, so no third join is needed."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderstatus"])

    def ofilt(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["o_orderstatus"], "F"))
        return pa.table({
            "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
            "o_date_ms": ts_to_ms(t["o_orderdate"]),
        })

    ord_tbl = _collect(orders.map_batches(ofilt, batch_format="pyarrow"))

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])
    j = broadcast_join(li, ord_tbl, "l_orderkey", "o_orderkey",
                       right_cols=["o_date_ms"])

    def late_partial(batch: pa.Table) -> pa.Table:
        ship = ts_to_ms(batch["l_shipdate"]).to_numpy(zero_copy_only=False)
        odate = batch["o_date_ms"].to_numpy(zero_copy_only=False)
        return pa.table({
            "l_orderkey": pc.cast(batch["l_orderkey"], pa.int64()),
            "l_suppkey": pc.cast(batch["l_suppkey"], pa.int64()),
            "late": pa.array((ship > odate + _MS_90D).astype(np.int64)),
        })

    per_pair = sharded_grouped_agg(
        j.map_batches(late_partial, batch_format="pyarrow"),
        ["l_orderkey", "l_suppkey"], [("late", "max")],
    )

    def per_order_partial(batch: pa.Table) -> pa.Table:
        late = batch["late"].to_numpy(zero_copy_only=False)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "l_orderkey": batch["l_orderkey"],
            "n_supp": pa.array(np.ones(len(late), np.int64)),
            "n_late": pa.array(late),
            "late_supp": pa.array(late * sk),
        })

    per_order = sharded_grouped_agg(
        per_pair.map_batches(per_order_partial, batch_format="pyarrow"),
        ["l_orderkey"],
        [("n_supp", "sum"), ("n_late", "sum"), ("late_supp", "sum")],
    )

    def winners(batch: pa.Table) -> pa.Table:
        n_supp = batch["n_supp"].to_numpy(zero_copy_only=False)
        n_late = batch["n_late"].to_numpy(zero_copy_only=False)
        guilty = batch["late_supp"].to_numpy(zero_copy_only=False)[
            (n_supp >= 2) & (n_late == 1)
        ]
        return pa.table({
            "s": pa.array(guilty, pa.int64()),
            "numwait": pa.array(np.ones(len(guilty), np.int64)),
        })

    per_supp = _collect(sharded_grouped_agg(
        per_order.map_batches(winners, batch_format="pyarrow"),
        ["s"], [("numwait", "sum")],
    ))  # bounded by the supplier dim

    supp = _dim(sf_dir, "supplier", ["s_suppkey", "s_name"])
    skeys = _i64(supp["s_suppkey"])
    order = np.argsort(skeys, kind="stable")
    snames = np.array(supp["s_name"].to_pylist(), dtype=object)[order]
    sk = per_supp["s"].to_numpy(zero_copy_only=False)
    idx = np.searchsorted(skeys[order], sk)
    return pa.table({
        "s_suppkey": pa.array(sk, pa.int64()),
        "s_name": pa.array(snames[idx].tolist(), pa.string()),
        "numwait": per_supp["numwait"],
    })


def q_tpch_q22(sf_dir: str):
    """TPC-H Q22 (global sales opportunity), adapted: customers with
    acctbal above the positive-balance average and NO orders in calendar
    1996, counted per nation (no phone column -> nationkey replaces the
    country code; 'no orders ever' is empty on this synthetic corpus so
    the anti-join window is the 1996 year).  The average compare
    bal*n_pos > sum_pos is exact int64; the 1996-active custkey set is a
    distinct census (bounded by the customer dim) collected from one
    sharded exchange."""
    cust = _dim(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])
    bal_c = _cents(cust["c_acctbal"])
    pos = bal_c > 0
    sum_pos = int(bal_c[pos].sum())
    n_pos = int(pos.sum())

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def distinct_part(batch: pa.Table) -> pa.Table:
        ms = ts_to_ms(batch["o_orderdate"])
        keep = pc.and_(
            pc.greater_equal(ms, pa.scalar(_MS_1996_01, pa.int64())),
            pc.less(ms, pa.scalar(_MS_1997_01, pa.int64())),
        )
        return pa.table({
            "ck": pc.cast(batch.filter(keep)["o_custkey"], pa.int64())
        })

    active = _collect(sharded_grouped_agg(
        orders.map_batches(distinct_part, batch_format="pyarrow"),
        ["ck"], [],
    ))["ck"].to_numpy(zero_copy_only=False)

    ck = _i64(cust["c_custkey"])
    keep = (bal_c * n_pos > sum_pos) & ~np.isin(ck, np.sort(active))
    sel = cust.filter(pa.array(keep))
    sel_bal = bal_c[keep]
    nk = _i64(sel["c_nationkey"])
    keys = np.unique(nk)
    numcust = np.array([int((nk == k).sum()) for k in keys], np.int64)
    tot = np.array([int(sel_bal[nk == k].sum()) for k in keys], np.int64)
    return pa.table({
        "c_nationkey": pa.array(keys, pa.int64()),
        "numcust": pa.array(numcust),
        "totacctbal": pa.array(tot.astype(np.float64) / 100.0, pa.float64()),
    })


def q_tpch_q2(sf_dir: str):
    """TPC-H Q2 (minimum-cost supplier), adapted: for each part of size
    >= 40, the minimum-acctbal supplier among those who actually shipped
    it (lineitem replaces partsupp).  Argmin join-back plan: the order-
    preserving composite (acctbal_cents + OFF) * 2^20 + suppkey makes
    min() return the (balance, lowest-suppkey-tiebreak) winner in ONE
    sharded exchange; supplier attrs are recovered by decoding, not by a
    second shuffle."""
    part = _dim(sf_dir, "part", ["p_partkey", "p_size"])
    big = pa.table({
        "p_partkey": pc.cast(
            part.filter(
                pc.greater_equal(pc.cast(part["p_size"], pa.int64()), 40)
            )["p_partkey"],
            pa.int64(),
        )
    })
    supp = _dim(sf_dir, "supplier", ["s_suppkey", "s_name", "s_acctbal"])
    skeys = _i64(supp["s_suppkey"])
    order = np.argsort(skeys, kind="stable")
    skeys_s = skeys[order]
    sbal_c = _cents(supp["s_acctbal"])[order]
    snames = np.array(supp["s_name"].to_pylist(), dtype=object)[order]

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    li_big = broadcast_join(li, big, "l_partkey", "p_partkey", how="semi")

    def comp_partial(batch: pa.Table) -> pa.Table:
        sk = _i64(batch["l_suppkey"])
        bal = sbal_c[np.searchsorted(skeys_s, sk)]
        return pa.table({
            "p_partkey": pc.cast(batch["l_partkey"], pa.int64()),
            "comp": pa.array((bal + _BAL_OFF) * _COMP_BASE + sk),
        })

    per_part = _collect(sharded_grouped_agg(
        li_big.map_batches(comp_partial, batch_format="pyarrow"),
        ["p_partkey"], [("comp", "min")],
    ))  # bounded by the part dim
    comp = per_part["comp"].to_numpy(zero_copy_only=False)
    sk = comp % _COMP_BASE
    bal = comp // _COMP_BASE - _BAL_OFF
    idx = np.searchsorted(skeys_s, sk)
    return pa.table({
        "p_partkey": per_part["p_partkey"],
        "s_suppkey": pa.array(sk, pa.int64()),
        "s_name": pa.array(snames[idx].tolist(), pa.string()),
        "s_acctbal": pa.array(bal.astype(np.float64) / 100.0, pa.float64()),
    })


def q_tpch_q20(sf_dir: str):
    """TPC-H Q20 (potential part promotion), adapted to the star schema:
    partsupp availability is proxied by the supplier's ALL-TIME shipped
    quantity per part — a (suppkey, partkey) pair qualifies when its
    total exceeds TWICE its 1996 shipments (the canonical
    availqty > 0.5*sum(l_quantity) shape) and it actually shipped in
    1996; parts are restricted to '%widget'.  Plan: widget partkeys
    broadcast as a semi filter, ONE lineitem pass computes both sums in
    the same combiner, the (supp, part) census is dim-bounded, and the
    qualifying-supplier set resolves driver-side against the supplier
    dim (reference join semantics: copyer.go has no joins; this follows
    the house aggregate->broadcast->probe pattern)."""
    part = _dim(sf_dir, "part", ["p_partkey", "p_name"])
    widget = pa.table({
        "p_partkey": pc.cast(
            part.filter(pc.ends_with(part["p_name"], "widget"))["p_partkey"],
            pa.int64(),
        )
    })
    lo = int(np.datetime64("1996-01-01", "ms").astype(np.int64))
    hi = int(np.datetime64("1997-01-01", "ms").astype(np.int64))

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_shipdate",
                                    "l_quantity"])
    li_w = broadcast_join(li, widget, "l_partkey", "p_partkey", how="semi")

    def partial(batch: pa.Table) -> pa.Table:
        q = np.rint(
            batch["l_quantity"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        ms = ts_to_ms(batch["l_shipdate"]).to_numpy(zero_copy_only=False)
        in96 = ((ms >= lo) & (ms < hi)).astype(np.int64)
        return pa.table({
            "l_suppkey": pc.cast(batch["l_suppkey"], pa.int64()),
            "l_partkey": pc.cast(batch["l_partkey"], pa.int64()),
            "qall": pa.array(q),
            "q96": pa.array(q * in96),
        })

    per_pair = _collect(sharded_grouped_agg(
        li_w.map_batches(partial, batch_format="pyarrow"),
        ["l_suppkey", "l_partkey"], [("qall", "sum"), ("q96", "sum")],
    ))  # bounded by supplier x part dims
    qall = per_pair["qall"].to_numpy(zero_copy_only=False)
    q96 = per_pair["q96"].to_numpy(zero_copy_only=False)
    sk = per_pair["l_suppkey"].to_numpy(zero_copy_only=False)
    winners = np.unique(sk[(q96 > 0) & (qall > 2 * q96)])

    supp = _dim(sf_dir, "supplier", ["s_suppkey", "s_name"])
    skeys = _i64(supp["s_suppkey"])
    order = np.argsort(skeys, kind="stable")
    idx = order[np.searchsorted(skeys[order], winners)]
    names = np.array(supp["s_name"].to_pylist(), dtype=object)[idx]
    return pa.table({
        "s_suppkey": pa.array(winners, pa.int64()),
        "s_name": pa.array(names.tolist(), pa.string()),
    })


def q_tpch_q13(sf_dir: str):
    """TPC-H Q13 (customer order-count distribution), adapted: per-
    customer count of non-URGENT orders (o_orderpriority != '1-URGENT'
    stands in for the comment NOT LIKE predicate — no o_comment column),
    INCLUDING zero-order customers (the left-join semantics), then the
    histogram (c_count, custdist) ordered custdist desc, c_count desc.
    Plan: one (custkey, n) sharded census over filtered orders (bounded
    by the customer dim), zero-fill against the collected customer keys,
    histogram via np.unique — no wide join anywhere."""
    import pyarrow.compute as pc

    from ..stages.keyed import sharded_grouped_agg

    cust = _dim(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def part(batch: pa.Table) -> pa.Table:
        keep = pc.invert(pc.equal(batch["o_orderpriority"], "1-URGENT"))
        ck = pc.cast(batch.filter(keep)["o_custkey"], pa.int64())
        return pa.table({"ck": ck, "n": pa.array(np.ones(len(ck), np.int64))})

    census = _collect(sharded_grouped_agg(
        orders.map_batches(part, batch_format="pyarrow"),
        ["ck"], [("n", "sum")],
    ))
    ck = np.sort(_i64(cust["c_custkey"]))
    counts = np.zeros(len(ck), np.int64)
    if census.num_rows:
        cck = census["ck"].to_numpy(zero_copy_only=False).astype(np.int64)
        cn = census["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(ck, cck)
        counts[pos] = cn
    vals, dist = np.unique(counts, return_counts=True)
    order = np.lexsort((-vals, -dist))
    return pa.table({
        "c_count": pa.array(vals[order].astype(np.int64)),
        "custdist": pa.array(dist[order].astype(np.int64)),
    })
