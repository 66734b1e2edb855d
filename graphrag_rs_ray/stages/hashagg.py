"""Hash-bucketed grouped aggregation — the scalable groupby.

Ray Data's native ``groupby().aggregate()`` pays per-GROUP Python overhead
(~0.3 ms/group measured on Ray 2.49), which is unusable for
high-cardinality keys (entity ids, triples, vocab terms).  This module
implements the classic two-level pattern instead:

    map_batches: bucket = H(key) % P          (vectorized, no shuffle)
    groupby("bucket")                          (shuffle on ONE small int key)
    map_groups: pyarrow group_by inside bucket (vectorized C++ per bucket)

Per-group Python cost drops from O(#distinct keys) to O(P).  All rows of
one key land in one bucket, so any per-key aggregate stays exact.  P
bounds the rows one ``per_bucket_fn`` call sees: a few × cluster cores
locally; thousands on a real cluster (keeps each reduce partition in
memory).  The number of exchange TASKS follows the input's block count,
not P (see ``hash_grouped_aggregate``).

The hash is pandas' stable 64-bit column hash (vectorized); bucket ids
never appear in outputs, so only run-internal consistency matters.

The per-block-combiner-then-bucketed-merge shape is the classic skew
mitigation from the shuffle literature (cf. PAPERS.md: FP-Hadoop VLDB'15,
"Rock you like a hurricane" EuroSys'18, Hyper Dimension Shuffle VLDB'19):
hot keys collapse to one row per block BEFORE the exchange, so hub
entities cost O(#blocks), not O(#occurrences), on the wire.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import pandas as pd
import pyarrow as pa


def auto_pool(lo: int = 4) -> tuple[int, int]:
    """Autoscaling actor-pool bounds sized to the cluster: (lo, cpus-2).
    Never a fixed pool = all CPUs (that starves sibling stages — measured
    pipeline stall), never a tiny fixed cap (a concurrency=2 pool was the
    bottleneck of several per-op benchmarks); floor 4 because ramping up
    from 1 actor dominates short jobs."""
    hi = max(2, _cluster_cpus() - 2)
    return (min(lo, hi), hi)


def _cluster_cpus() -> int:
    """CPUs of the connected Ray cluster (4 when there is none)."""
    try:
        import ray
        return int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    except Exception:  # noqa: BLE001
        return 4


def _bucket_of(batch: pa.Table, keys: list[str], num_buckets: int) -> pa.Array:
    df = batch.select(keys).to_pandas()
    h = pd.util.hash_pandas_object(df, index=False).to_numpy()
    return pa.array((h % num_buckets).astype("int64"), pa.int64())


def exchange_blocks(ds, max_blocks: int) -> int:
    """Block count to coalesce an exchange input to: one block per
    ``DataContext.target_max_block_size`` of ``ds``'s size, but at least
    one per cluster CPU and at most ``max_blocks``.

    The CPU floor keeps the exchange and the per-bucket work after it
    spread over every CPU of a multi-CPU session; the size term lets a
    big input reach the cap.  Reads plan metadata only (a materialized
    dataset's block metadata, a Parquet read's file metadata) and returns
    ``max_blocks`` when the size is unknown there: ``Dataset.size_bytes()``
    would EXECUTE a lazy plan to learn it.  Pass the dataset the exchange
    input derives from when that one has a known size (an upper bound is
    fine: it only decides how many sort tasks the exchange fans out to)."""
    from ray.data import DataContext

    size = _plan_size_bytes(ds)
    target = DataContext.get_current().target_max_block_size
    if size is None or not target:
        return max_blocks
    n = max(math.ceil(size / target), _cluster_cpus())
    return max(1, min(max_blocks, n))


def _plan_size_bytes(ds) -> int | None:
    """In-memory size of ``ds`` as its plan states it without executing:
    a materialized dataset's block metadata, a read's datasource estimate
    (for Parquet, file bytes scaled by a sampled Arrow/Parquet ratio).
    ``None`` when the plan does not know it (a map may change the size)
    or when this private plan API, checked against Ray 2.49, has moved."""
    try:
        return ds._logical_plan.dag.infer_metadata().size_bytes
    except AttributeError:
        return None


def _plan_num_blocks(ds) -> int | None:
    """Block count ``ds``'s plan fixes without executing: a materialized
    dataset's, or a read's ``override_num_blocks``.  ``None`` for any
    other plan (``Dataset.num_blocks()`` raises on a lazy one) or when
    this private plan API, checked against Ray 2.49, has moved."""
    from ray.data.dataset import MaterializedDataset

    if isinstance(ds, MaterializedDataset):
        return ds.num_blocks()
    dag = getattr(getattr(ds, "_logical_plan", None), "dag", None)
    n = getattr(dag, "_parallelism", -1) if type(dag).__name__ == "Read" else -1
    return n if n > 0 else None


def hash_grouped_aggregate(ds, keys: list[str],
                           per_bucket_fn: Callable[[pa.Table], pa.Table],
                           num_buckets: int = 64):
    """``per_bucket_fn`` receives every row of a bucket (all rows of each
    contained key) as one Arrow table and returns the aggregated rows.

    ``num_buckets`` (P) fixes which rows share a bucket, not the task
    fan-out: the exchange is a Ray sort on ``_bucket``, which runs one map
    and one reduce task per INPUT block.  A small input spread over many
    blocks pays Ray's per-task overhead once per block, so coalesce it
    first (``ds.repartition(exchange_blocks(...))``)."""

    # pandas metadata on a schema (``pa.Table.from_pandas``) makes it
    # unhashable, and Ray's ``unify_schemas`` then logs a warning per
    # sort reduce; dropping it copies no data
    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bucket", _bucket_of(batch, keys, num_buckets)
        ).replace_schema_metadata(None)

    def run_bucket(group: pa.Table) -> pa.Table:
        return per_bucket_fn(
            group.drop_columns(["_bucket"])).replace_schema_metadata(None)

    return (ds.map_batches(add_bucket, batch_format="pyarrow")
              .groupby("_bucket")
              .map_groups(run_bucket, batch_format="pyarrow"))


def bucketed_join(left_ds, right_ds, on: list[str],
                  num_buckets: int = 64, how: str = "inner"):
    """Partitioned hash join of two LARGE datasets (ray_guide joins: "add
    a bucket column to both sides … join matching buckets pairwise"):
    both sides are tagged, union'd, hash-bucketed on the join key, and
    each bucket is joined with a vectorized pandas merge.  No full-table
    broadcast; skewed keys spread only as far as their bucket (salt the
    key upstream for pathological hubs)."""
    left_schema, right_schema = left_ds.schema(), right_ds.schema()
    left_cols, right_cols = left_schema.names, right_schema.names
    if set(left_cols) & set(right_cols) != set(on):
        raise ValueError("bucketed_join: non-key column names must be disjoint")

    # pad both sides to a shared schema (union needs identical schemas)
    def _type_of(schema, name):
        return schema.base_schema.field(name).type

    all_cols = list(left_cols) + [c for c in right_cols if c not in on]

    def tag(side, own_cols, other_schema):
        def fn(t: pa.Table) -> pa.Table:
            arrays, names = [], []
            for c in all_cols:
                names.append(c)
                if c in own_cols:
                    arrays.append(t.column(c))
                else:
                    arrays.append(pa.nulls(t.num_rows, _type_of(other_schema, c)))
            names.append("_side")
            arrays.append(pa.array([side] * t.num_rows, pa.int8()))
            return pa.table(dict(zip(names, arrays)))
        return fn

    unioned = left_ds.map_batches(tag(0, left_cols, right_schema),
                                  batch_format="pyarrow").union(
        right_ds.map_batches(tag(1, right_cols, left_schema), batch_format="pyarrow"))

    def join_bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        # split in Arrow (type-preserving) — a whole-table to_pandas would
        # coerce null-padded int columns to float64
        lt = t.filter(pc.equal(t.column("_side"), 0)).select(list(left_cols)).to_pandas()
        rt = t.filter(pc.equal(t.column("_side"), 1)).select(list(right_cols)).to_pandas()
        out = lt.merge(rt, on=on, how=how)
        return pa.Table.from_pandas(out, preserve_index=False)

    return hash_grouped_aggregate(unioned, on, join_bucket,
                                  num_buckets=num_buckets)


def grouped_arrow_agg(group_keys: list[str], aggregations: list[tuple[str, str]],
                      rename: list[str] | None = None):
    """Build a per-bucket fn running ``pa.Table.group_by().aggregate()``
    (C++ hash aggregation).  ``aggregations`` are (column, fn) pairs as
    pyarrow expects; ``rename`` (optional) renames the FULL output column
    list (keys first, then aggregates)."""

    def fn(t: pa.Table) -> pa.Table:
        out = t.group_by(group_keys).aggregate(aggregations)
        if rename:
            out = out.rename_columns(rename)
        return out

    return fn
