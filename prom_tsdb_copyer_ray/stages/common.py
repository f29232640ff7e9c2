"""Shared shuffle shape for the sharded-kernel operators.

One home for the splitmix-style avalanche hash, the key hash, the shuffle
fan-in and the hash-shard exchange itself (:func:`shard_apply`), so a
pipeline-tuning fix applies to every operator at once.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import poly_hash_column

# inputs below this row count run as one task (see shard_apply)
SMALL_ROWS = 50_000


def mix64(x: np.ndarray) -> np.ndarray:
    """Splitmix-style avalanche over int-like input; uint64 out."""
    with np.errstate(over="ignore"):
        x = x.astype(np.uint64)
        x = (x ^ (x >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(33)
    return x


def fmix64(x: np.ndarray) -> np.ndarray:
    """Full murmur3 finalizer (two multiplies).  Use this when the VALUE of
    the hash matters (e.g. HLL register index/rank from the top bits) — the
    single-multiply :func:`mix64` leaves the high bits under-mixed for
    small sequential inputs (measured: 20% low HLL estimates)."""
    with np.errstate(over="ignore"):
        x = x.astype(np.uint64)
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xC4CEB9FE1A85EC53)
        x ^= x >> np.uint64(33)
    return x


def shard_of_ints(x: np.ndarray, num_shards: int) -> np.ndarray:
    """Deterministic hash shard of an int array (int64 out)."""
    return (mix64(x) % np.uint64(num_shards)).astype(np.int64)


def key_hash64(table: pa.Table, key_cols: list[str]) -> np.ndarray:
    """Deterministic combined 64-bit hash over key columns (string or int),
    vectorized: strings hash over the column's data buffer, ints through
    :func:`mix64` — no per-key Python."""
    h = np.zeros(table.num_rows, dtype=np.uint64)
    for c in key_cols:
        col = table[c]
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            ch = poly_hash_column(col, fold63=False)
        else:
            ch = mix64(pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False))
        with np.errstate(over="ignore"):
            h = mix64(h * np.uint64(0x9E3779B97F4A7C15) ^ ch)
    return h


def fanin() -> int:
    """Shuffle fan-in: ``max(8, CPUs // 2)`` partitions.

    Ray's sort exchange is (blocks x partitions) tasks; at the default
    2 blocks/CPU a 32-cpu node pays 64x64 = 4096 ~1.5 ms exchange tasks to
    move a few MB of rows.  Half a partition per CPU keeps the exchange
    linear while still scaling with cluster size (``cluster_resources``
    counts every node's CPUs)."""
    try:
        import ray

        n = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        n = 8
    return max(8, n // 2)


def _apply_by(table: pa.Table, by: list[str], kernel) -> pa.Table:
    """``kernel`` once per distinct ``by`` value (ascending, helper columns
    dropped), results concatenated; no rows -> an empty, column-less table."""
    if not table.num_rows:
        return pa.table({})
    if not by:
        return kernel(table)
    table = table.sort_by([(c, "ascending") for c in by])
    change = np.zeros(table.num_rows, dtype=bool)
    change[0] = True
    for c in by:
        v = table[c].to_numpy()
        change[1:] |= v[1:] != v[:-1]
    bounds = np.append(np.flatnonzero(change), table.num_rows)
    rest = table.drop_columns(by)
    # promote: a kernel may type an all-null column as null in one call;
    # the exchange's separate blocks get the same unification downstream
    return pa.concat_tables(
        [kernel(rest.slice(a, b - a)) for a, b in zip(bounds[:-1], bounds[1:])],
        promote_options="default")


def materialize_if_small(ds):
    """``ds`` materialized if it has fewer than :data:`SMALL_ROWS` rows (so
    :func:`shard_apply` takes its single-task path), else ``ds`` unchanged.

    A lazy input is probed with ``limit(SMALL_ROWS)``, which executes the
    upstream only until it has that many rows.  A small input is then whole
    in the probe and executes once.  A large one stays lazy and streams
    into the exchange, so its blocks are not held in the object store
    beside the sort's; the cost is re-running the probed prefix of its
    upstream, so pass only inputs whose upstream is a streaming map (a
    scan, an extraction), never an exchange.

    A probe that reaches its limit ends its execution early, and Ray Data
    interrupts the upstream tasks still running (``KeyboardInterrupt`` in
    the worker); an interrupted Parquet read can leave its worker stuck on
    a later task.  So ``SMALL_ROWS = 0`` (the path off) probes nothing: a
    ``limit(0)`` probe would start and interrupt every upstream task.
    """
    from ray.data.dataset import MaterializedDataset

    if isinstance(ds, MaterializedDataset) or SMALL_ROWS <= 0:
        return ds
    head = ds.limit(SMALL_ROWS).materialize()
    return head if head.count() < SMALL_ROWS else ds


def shard_apply(ds, keys, kernel, *, prepare=None, by=(), coalesce=True,
                num_shards=64):
    """Hash-shard exchange: every row of a key reaches ONE ``kernel`` call.

    Shape: per batch, the optional ``prepare`` (projection, cast, combiner,
    extra group column) runs, then ``_shard = key_hash64(keys) %
    num_shards`` is appended; with ``coalesce`` the stream is first
    repartitioned to :func:`fanin` blocks; then one sort-based
    ``groupby([*by, "_shard"]).map_groups`` hands each group — the helper
    columns dropped — to ``kernel(table) -> table``.

    Partitioning / skew design: the group key is a hash shard of the key,
    never the raw key, so one vectorized kernel call covers thousands of
    keys (segment boundaries after one in-task sort) and the group count
    stays ``O(num_shards x distinct by)`` at any key cardinality; a raw-key
    ``map_groups`` pays one ~5 ms task per key.  Hash sharding spreads keys
    evenly whatever their order or domain; a single hot key is still one
    group, so operators document their bound ("one key's history fits in a
    task").  ``by`` adds a coarse, ordered group column (the rollup's time
    window ``_gw``) that bounds a group to one slice of time and keeps
    output blocks time-clustered; ``num_shards`` x distinct ``by`` is the
    shuffle parallelism — size it to >= 2-4 tasks per core at cluster
    scale.  ``coalesce`` pays one repartition so the sort exchange is
    (fanin x fanin) tasks instead of (input blocks)^2 — worth it when the
    input arrives in many small blocks, a pure barrier when it is already
    O(fanin) blocks of collapsed rows.

    Size rule: a ``MaterializedDataset`` (its ``count()`` is block
    metadata, free) of fewer than :data:`SMALL_ROWS` rows skips the hash,
    the coalesce and the sort: one ``map_batches`` task runs ``prepare`` on
    the whole input, splits it on ``by`` in ascending order and calls
    ``kernel`` once per ``by`` value — exactly the ``num_shards=1``
    semantics, since each key still reaches one call.  The bound counts
    input rows, before ``prepare`` (which may multiply them, e.g. an
    explode).  Its basis is the rollup kernel only, measured on one core:
    50k rows are ~0.15 s of kernel (340k raw rows/s), against 1.7-3.3 s of
    fixed sort-exchange cost per rollup tier, whose 64 shards x group
    windows make hundreds of ``map_groups`` calls for a few thousand rows.
    Other callers that pass a materialized input take the same path
    untimed; a CPU-heavy kernel there gives up its parallelism for it.  A
    lazy input always takes the exchange: ``shard_apply`` never executes
    its input (a chained exchange would run twice); the rollup stages size
    theirs first with :func:`materialize_if_small`.  ``SMALL_ROWS = 0``
    turns the path off.

    Ray's sort hands ``map_groups`` only non-empty groups, and the
    single-task path only calls ``kernel`` on non-empty ``by`` groups, so a
    kernel needs no empty-input branch; it must still return typed columns
    when a non-empty group yields no rows.  Ray emits a zero-row,
    zero-column block for a key range that received no rows (and the
    single-task path returns one for an empty input); consumers that
    concatenate blocks must tolerate those.
    """
    from ray.data.dataset import MaterializedDataset

    keys = list(keys)
    by = list(by)
    if isinstance(ds, MaterializedDataset) and ds.count() < SMALL_ROWS:
        def one_task(table: pa.Table) -> pa.Table:
            if prepare is not None:
                table = prepare(table)
            return _apply_by(table, by, kernel)

        return ds.repartition(1).map_batches(one_task, batch_size=None,
                                             batch_format="pyarrow")
    helpers = [*by, "_shard"]

    def add_shard(batch: pa.Table) -> pa.Table:
        if prepare is not None:
            batch = prepare(batch)
        shard = key_hash64(batch, keys) % np.uint64(num_shards)
        return batch.append_column("_shard", pa.array(shard.astype(np.int64)))

    def per_group(group: pa.Table) -> pa.Table:
        return kernel(group.drop_columns(helpers))

    out = ds.map_batches(add_shard, batch_format="pyarrow")
    if coalesce:
        out = out.repartition(fanin())
    return out.groupby(helpers).map_groups(per_group, batch_format="pyarrow")
