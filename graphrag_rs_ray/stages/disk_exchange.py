"""Disk exchange for volumes beyond the object store (the 64M-page graph
sink, 20M-doc MinHash bands, the incremental fingerprint index): stage a
dataset as hash-partitioned ``shard=K/`` Parquet in one map-only pass,
then reduce each shard in its own task.

Ray Data 2.49 cannot express the per-directory reduce (no
``repartition_by_column``; ``repartition(keys=...)`` exchanges through
the object store), so this module holds the pipelines' only raw Ray
tasks.  Both steps resume through ``state/manifests.py``: data lands
under a temporary name and is moved into place before its manifest is
written, so a crash never leaves a matching manifest over partial data.
"""

from __future__ import annotations

import glob
import math
import os
import shutil
from collections.abc import Callable

import pyarrow as pa

from ..state.manifests import (atomic_write_dir, fingerprint_config,
                               read_manifest, stage_complete,
                               write_manifest)


def stage_parquet(out_dir: str, fingerprint: str, make_ds: Callable,
                  shard_of: Callable | None = None) -> dict:
    """Write ``make_ds()`` to ``out_dir`` unless its manifest already
    carries ``fingerprint`` (then ``make_ds`` is not called); partitioned
    as ``shard=K/`` by ``shard_of(batch) -> int32 array`` when given.
    Returns the manifest, whose ``rows`` is the staged row count."""
    import pyarrow.parquet as pq

    if stage_complete(out_dir, fingerprint):
        return read_manifest(out_dir)

    def write(tmp_dir: str):
        if shard_of is None:
            make_ds().write_parquet(tmp_dir)
            return

        def add_shard(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "shard", pa.array(shard_of(batch), pa.int32()))

        (make_ds().map_batches(add_shard, batch_format="pyarrow")
         .write_parquet(tmp_dir, partition_cols=["shard"]))

    atomic_write_dir(write, out_dir)
    rows = sum(pq.read_metadata(f).num_rows for f in _parquet_files(out_dir))
    return write_manifest(out_dir, os.path.basename(out_dir), fingerprint,
                          rows=rows)


def _parquet_files(d: str) -> list[str]:
    return glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True)


def read_staged(path: str, columns: list[str] | None = None):
    """Read a staged directory in blocks sized from its input:
    ``min(#files, max(cluster CPUs, ceil(size / target_max_block_size)))``,
    where ``size`` is the in-memory size the read's plan metadata states
    (``hashagg._plan_size_bytes``; footer byte counts would give a
    dictionary-encoded extraction checkpoint as 2.1 MB, not its 51 MB).

    The count never exceeds the file count, so Ray plans no
    ``SplitBlocks`` behind the read, and a read Ray does not split fuses
    with the maps after it: each staged file is read and combined in the
    same task instead of crossing the object store raw.  Ray's default
    splits a small read into about one block per MB, one task each.
    Bound: a single-file checkpoint reads as ONE block whatever the CPU
    count; a checkpoint written by >= 32 write tasks (>= 32 files) yields
    >= 32 blocks on a cluster of >= 32 CPUs.  Reads footers and plan
    metadata only; nothing executes here."""
    import ray.data as rd
    from ray.data import DataContext

    from .hashagg import _cluster_cpus, _plan_size_bytes

    ds = rd.read_parquet(path, columns=columns)
    size = _plan_size_bytes(ds)
    target = DataContext.get_current().target_max_block_size
    n = _cluster_cpus()
    if size and target:
        n = max(n, math.ceil(size / target))
    n = max(1, min(len(_parquet_files(path)), n))
    try:   # reuse the probed datasource: a new read samples the files again
        source = ds._logical_plan.dag._datasource
    except AttributeError:
        return rd.read_parquet(path, columns=columns, override_num_blocks=n)
    return rd.read_datasource(source, override_num_blocks=n)


def reduce_shards(in_dirs: list[str], num_shards: int, fn: Callable,
                  out_dir: str | None = None,
                  fingerprint: tuple | None = None):
    """Run ``fn(k, files)`` in one task per shard K, where ``files[i]``
    lists shard K's Parquet files under ``in_dirs[i]`` (maybe none).

    Without ``out_dir``: returns the result refs in shard order.  With
    it: ``fn``'s table (``None`` = no file) goes to a temporary name, is
    moved to ``out_dir/shard=K/part-0.parquet``, then the shard manifest
    ``fingerprint_config(*fingerprint, f"shard={K}")`` is written.
    Shards with a matching manifest are skipped; if none matches,
    ``out_dir`` is cleared first, so no stale shard survives (the
    fingerprint parts must cover ``num_shards`` for that).  Every task
    finishes before a failure is raised, so a rerun redoes only the
    failed shards.  Returns ``{k: rows}`` for every shard."""
    import ray

    def shard_files(k: int) -> list[list[str]]:
        return [sorted(glob.glob(os.path.join(d, f"shard={k}", "*.parquet")))
                for d in in_dirs]

    if out_dir is None:
        @ray.remote(num_cpus=1)
        def shard_result(k: int):
            return fn(k, shard_files(k))

        return [shard_result.remote(k) for k in range(num_shards)]

    def shard_dir(k: int) -> str:
        return os.path.join(out_dir, f"shard={k}")

    def shard_fp(k: int) -> str:
        return fingerprint_config(*fingerprint, f"shard={k}")

    done = [k for k in range(num_shards)
            if stage_complete(shard_dir(k), shard_fp(k))]
    if not done:
        shutil.rmtree(out_dir, ignore_errors=True)

    @ray.remote(num_cpus=1)
    def reduce_shard(k: int) -> int:
        import pyarrow.parquet as pq

        d = shard_dir(k)
        shutil.rmtree(d, ignore_errors=True)      # a crashed run's output
        os.makedirs(d)
        out = fn(k, shard_files(k))
        if out is not None:
            tmp = os.path.join(d, ".part-0.parquet.tmp")
            pq.write_table(out, tmp)
            os.replace(tmp, os.path.join(d, "part-0.parquet"))
        rows = 0 if out is None else out.num_rows
        write_manifest(d, "shard", shard_fp(k), rows=rows)
        return rows

    refs = {k: reduce_shard.remote(k)
            for k in range(num_shards) if k not in done}
    if refs:
        ray.wait(list(refs.values()), num_returns=len(refs))
    rows = {k: read_manifest(shard_dir(k))["rows"] for k in done}
    rows.update(zip(refs, ray.get(list(refs.values()))))
    return dict(sorted(rows.items()))
