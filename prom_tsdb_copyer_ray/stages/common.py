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
# hash shards of every exchange's key (see shard_apply); read on the driver
# when a plan is built, never inside a task
NUM_SHARDS = 64


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


def key_hash64(table: pa.Table, key_cols: list[str]) -> np.ndarray:
    """Deterministic combined 64-bit hash over key columns (string or int),
    vectorized: strings hash over the column's data buffer, ints through
    :func:`mix64` (a null int hashes as 0) — no per-key Python."""
    h = np.zeros(table.num_rows, dtype=np.uint64)
    for c in key_cols:
        col = table[c]
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            ch = poly_hash_column(col, fold63=False)
        else:
            ints = pc.fill_null(pc.cast(col, pa.int64()), 0)
            ch = mix64(ints.to_numpy(zero_copy_only=False))
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


def parquet_footprint(ds, stop_rows: int) -> tuple[int, int] | None:
    """``(rows, uncompressed bytes)`` of a bare Parquet read, from the footers
    of ``ds.input_files()``, summed file by file until ``rows`` reaches
    ``stop_rows``; ``None`` when ``ds`` is not one.

    Nothing executes: a footer is a few KB of metadata.  ``input_files()``
    is empty after any map, union or other operator that could add rows
    (only a read and row-preserving or row-dropping steps such as
    ``limit``, ``repartition`` or a pushed-down ``filter=`` keep it), so
    the sum is an upper bound on the rows ``ds`` yields.  A file without a
    readable Parquet footer (another format, a remote path) makes the
    whole answer ``None``.
    """
    import pyarrow.parquet as pq

    files = ds.input_files()
    if not files:
        return None
    rows = nbytes = 0
    for f in sorted(files):
        if rows >= stop_rows:
            break
        try:
            md = pq.read_metadata(f)
        except (OSError, pa.ArrowException):
            return None
        rows += md.num_rows
        nbytes += sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
    return rows, nbytes


def size_input(ds, rows: int | None = None):
    """``(ds, rows)`` for :func:`shard_apply`'s size rule, never by a probe.

    ``rows`` is an upper bound on ``ds``'s row count.  A caller that knows
    one passes it (``run_copy`` scales its pages' footer count by the
    extractor's fan-out).  Else it is the count of a ``MaterializedDataset``
    (block metadata) or the footer row count of a bare Parquet read
    (:func:`parquet_footprint`, summed only until it reaches
    :data:`SMALL_ROWS`); with either, ``ds`` is handed back unexecuted, so
    a large input streams into the exchange.  A lazy input of unknown size
    (mapped, or not Parquet) executes once, fully, with ``materialize()``,
    and its exact count decides.  With the single-task path off
    (``SMALL_ROWS <= 0``) nothing is sized or executed.

    Sizing never ends an execution early: a ``limit`` probe that fills
    interrupts the upstream tasks still running (``KeyboardInterrupt`` in
    the worker), an interrupted Parquet read can leave its worker stuck for
    a later task, and a large input's probed prefix would run twice.
    """
    from ray.data.dataset import MaterializedDataset

    if rows is not None or SMALL_ROWS <= 0:
        return ds, rows
    if isinstance(ds, MaterializedDataset):
        return ds, ds.count()
    footprint = parquet_footprint(ds, SMALL_ROWS)
    if footprint is not None:
        return ds, footprint[0]
    ds = ds.materialize()
    return ds, ds.count()


def shard_apply(ds, keys, kernel, *, prepare=None, by=(), coalesce=True,
                rows=None):
    """Hash-shard exchange: every row of a key reaches ONE ``kernel`` call.

    Shape: per batch, the schema metadata is dropped (a pandas-written
    Parquet file or a ``from_pandas`` block carries a ``b'pandas'`` entry,
    and Ray's ``unify_schemas`` cannot hash a schema whose metadata holds
    one, so it warns and unifies the slow way), the optional ``prepare``
    (projection, cast, combiner, extra group column) runs, then
    ``_shard = key_hash64(keys) % NUM_SHARDS`` is appended; with
    ``coalesce`` the stream is first repartitioned to :func:`fanin`
    blocks; then one sort-based ``groupby([*by, "_shard"]).map_groups``
    hands each group — the helper columns dropped — to
    ``kernel(table) -> table``.  :data:`NUM_SHARDS`
    is read here, on the driver, and rides into the batch closure.

    ``ds`` may be a list of Datasets of one schema — the tagged sides of a
    co-partition.  Each side is hashed in its own map, which fuses into
    that side's last map, and the hashed sides are unioned: Ray Data cannot
    fuse a map across a ``union``, so hashing after it would cost one more
    task per input block.

    Partitioning / skew design: the group key is a hash shard of the key,
    never the raw key, so one vectorized kernel call covers thousands of
    keys (segment boundaries after one in-task sort) and the group count
    stays ``O(NUM_SHARDS x distinct by)`` at any key cardinality; a raw-key
    ``map_groups`` pays one kernel call per key.  Hash sharding spreads keys
    evenly whatever their order or domain; a single hot key is still one
    group, so operators document their bound ("one key's history fits in a
    task").  ``by`` adds a coarse, ordered group column (the rollup's time
    window ``_gw``) that bounds a group to one slice of time and keeps
    output blocks time-clustered.

    Parallelism is the sort's block count, not the shard count.  Ray's
    ``map_groups`` sorts into as many blocks as its input has, then runs
    one ``map_batches(batch_size=None)`` task per sorted block, and that
    task calls ``kernel`` once per group in its block.  So the kernel stage
    runs :func:`fanin` tasks when the exchange coalesces and the input's
    block count when it does not; ``NUM_SHARDS`` x distinct ``by`` only
    sets how many non-empty key ranges those tasks get and how many kernel
    calls (of how many rows) each makes.  ``coalesce`` pays one repartition
    so the sort exchange is (fanin x fanin) tasks instead of (input
    blocks)^2 — worth it when the input arrives in many small blocks, a
    pure barrier when it is already O(fanin) blocks of collapsed rows.

    Size rule: an input known to hold fewer than :data:`SMALL_ROWS` rows
    skips the hash, the coalesce and the sort.  ``rows`` is that knowledge:
    an upper bound on the input's row count, known before it executes
    (:func:`size_input` finds one); without it, the ``count()`` of inputs
    that are all ``MaterializedDataset`` (block metadata, free) is used,
    and any other input takes the exchange — ``shard_apply`` never
    executes its input (a chained exchange would run twice).  A small
    input runs as ``map_batches(one_task, batch_size=SMALL_ROWS)``: ``prepare`` on the whole input, a split on
    ``by`` in ascending order and one ``kernel`` call per ``by`` value —
    exactly the ``NUM_SHARDS = 1`` semantics, since each key still reaches
    one call.  Bundling contract: Ray Data bundles a map's input blocks
    until they hold ``batch_size`` rows or the input ends, so an input of
    fewer rows reaches ONE task as ONE batch, however many blocks it
    arrives in; and a ``map_batches`` chain fuses, so a lazy input (read
    -> extraction -> this map -> a write) runs as one task in one
    execution, with no exchange and no materialized intermediate.  The
    bound counts input rows, before ``prepare`` (which may multiply them,
    e.g. an explode).  Its basis is the rollup kernel only, measured on one
    core: 50k rows are ~0.15 s of kernel (340k raw rows/s), against
    1.7-3.3 s of fixed sort-exchange cost per rollup tier, whose 64 shards
    x group windows make hundreds of ``map_groups`` calls for a few
    thousand rows.  Other callers that pass a materialized input take the
    same path untimed; a CPU-heavy kernel there gives up its parallelism
    for it.  ``SMALL_ROWS = 0`` turns the path off.

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
    first, *rest = ds if isinstance(ds, (list, tuple)) else [ds]
    if rows is None and all(isinstance(d, MaterializedDataset) for d in (first, *rest)):
        rows = sum(d.count() for d in (first, *rest))
    if rows is not None and rows < SMALL_ROWS:
        def one_task(table: pa.Table) -> pa.Table:
            table = table.replace_schema_metadata()
            if prepare is not None:
                table = prepare(table)
            return _apply_by(table, by, kernel)

        ds = first.union(*rest) if rest else first
        return ds.map_batches(one_task, batch_size=SMALL_ROWS, batch_format="pyarrow")
    helpers = [*by, "_shard"]
    n_shards = np.uint64(NUM_SHARDS)

    def add_shard(batch: pa.Table) -> pa.Table:
        batch = batch.replace_schema_metadata()
        if prepare is not None:
            batch = prepare(batch)
        shard = key_hash64(batch, keys) % n_shards
        return batch.append_column("_shard", pa.array(shard.astype(np.int64)))

    def per_group(group: pa.Table) -> pa.Table:
        return kernel(group.drop_columns(helpers))

    first, *rest = (d.map_batches(add_shard, batch_format="pyarrow")
                    for d in (first, *rest))
    out = first.union(*rest) if rest else first
    if coalesce:
        out = out.repartition(fanin())
    return out.groupby(helpers).map_groups(per_group, batch_format="pyarrow")
