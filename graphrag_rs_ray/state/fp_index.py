"""Persisted winnowing-fingerprint index for INCREMENTAL corpus dedup —
the streaming-ingest story: when a new shard of documents arrives, flag
its near-dups against everything already ingested WITHOUT re-reading or
re-fingerprinting the old corpus, then append the shard's fingerprints.

Layout (one directory per ingested batch, manifest-guarded so re-running
a crashed or duplicate ingest is a no-op — a disk exchange,
``stages/disk_exchange.py``):

    <base>/index.json                     — k/w config, ingested batch ids
    <base>/batch=<id>/shard=K/*.parquet   — distinct (doc_id, fp) rows,
                                            hash-partitioned by fp
    <base>/batch=<id>/_manifest.json

At 100 TB the membership check never enters the object store: every
batch is persisted hash-partitioned by fp (shard = fp % FP_SHARDS, a
pure function of the join key), so a new batch's shard=K files only
ever intersect the SAME shard of every prior batch — one disk-local
sorted-set intersection task per shard, however large the index grows.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

from ..stages.disk_exchange import reduce_shards, stage_parquet
from .manifests import fingerprint_config


class FingerprintIndex:
    FP_SHARDS = 64        # hash-partition width of every persisted batch

    def __init__(self, base_dir: str, k: int = 40, w: int = 10):
        self.base_dir = base_dir
        self.k, self.w = k, w
        os.makedirs(base_dir, exist_ok=True)
        self._meta_path = os.path.join(base_dir, "index.json")
        if os.path.exists(self._meta_path):
            with open(self._meta_path) as f:
                meta = json.load(f)
            if (meta["k"], meta["w"]) != (k, w):
                raise ValueError(
                    f"index at {base_dir} was built with k={meta['k']} "
                    f"w={meta['w']}, got k={k} w={w}")
        else:
            self._write_meta([])

    def _write_meta(self, batches: list[str]):
        tmp = self._meta_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"k": self.k, "w": self.w, "batches": batches}, f)
        os.replace(tmp, self._meta_path)

    def batches(self) -> list[str]:
        with open(self._meta_path) as f:
            return json.load(f)["batches"]

    def _batch_dir(self, batch_id: str) -> str:
        return os.path.join(self.base_dir, f"batch={batch_id}")

    def _distinct_fps(self, docs_ds):
        """Distinct (doc_id, fp) rows — computed ENTIRELY map-side: a
        document's fingerprints are all produced by the one map call
        that winnows it, so per-doc ``np.unique`` inside that call is
        exact and the stage needs NO exchange.  (The original
        hash-grouped dedup shuffled one row per raw fingerprint —
        ~45 GB of transient sort spill at 10M docs/batch, measured.)"""
        from ..functions.dedup import Winnower

        if docs_ds.schema() is None or "text" not in docs_ds.schema().names:
            return None
        k, w = self.k, self.w

        class DistinctFps:
            def __init__(self):
                self.wn = Winnower(k=k, w=w)

            def __call__(self, batch: pa.Table) -> pa.Table:
                ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
                out_id, out_fp = [], []
                for d, t in zip(ids,
                                batch.column("text").to_pylist()):
                    _, h = self.wn.fingerprints(t)
                    u = np.unique(h)
                    out_id.append(np.full(u.size, d, np.int64))
                    out_fp.append(u)
                cat = (lambda xs: np.concatenate(xs)
                       if xs else np.empty(0, np.int64))
                return pa.table({"doc_id": pa.array(cat(out_id), pa.int64()),
                                 "fp": pa.array(cat(out_fp), pa.int64())})

        from ..stages.memo import memoized_stage
        fn = memoized_stage(("fpidx_distinct", k, w), DistinctFps)
        return docs_ds.map_batches(fn, batch_format="pyarrow")

    def ingest(self, batch_id: str, docs_ds, min_shared: int = 1):
        """Flag ``docs_ds`` against every batch ALREADY ingested, then
        append this batch's fingerprints (idempotent per batch_id).
        Returns a Dataset (doc_id, n_fps, n_shared_with_corpus,
        dup_of_corpus) covering every doc in the batch.

        Scale shape (reworked after the 10M-docs/batch ladder ENOSPC'd
        the original): the batch's fingerprints are persisted to their
        Parquet batch dir FIRST and read back from disk — no
        object-store copy of the ~40-row-per-doc fp table stays pinned —
        and every per-fp leg feeding the flags sort is pre-aggregated to
        per-(block, doc) partial counts inside ``map_batches`` (the
        per-block-combiner rule), so the union exchange carries ~|docs|
        rows instead of ~|fps|.  The final reduce sums partials, so the
        output is identical."""
        import ray.data as rd

        from ..stages.hashagg import hash_grouped_aggregate

        # --- persist this batch's fps (hash-partitioned by fp), then
        # read them from disk.  Partitioning at write time is what makes
        # the membership check below disk-local: shard = fp % FP_SHARDS
        # is a pure function of the join key, so each shard's new fps
        # only ever need that same shard of every PRIOR batch — no
        # in-store exchange, ever, however large the index grows.
        fpc = fingerprint_config("fp_index", batch_id, self.k, self.w)
        bdir = self._batch_dir(batch_id)
        lazy_fps = self._distinct_fps(docs_ds)
        new_fps = None
        if lazy_fps is not None:
            def shard_of(t: pa.Table) -> np.ndarray:
                f = t.column("fp").to_numpy(zero_copy_only=False)
                # uint64 view: winnow fps are int64 bit patterns and
                # numpy's % keeps the dividend's sign
                return (f.astype(np.int64).view(np.uint64)
                        % np.uint64(self.FP_SHARDS)).astype(np.int32)

            rows = stage_parquet(bdir, fpc, lambda: lazy_fps,
                                 shard_of)["rows"]
            if batch_id not in self.batches():
                self._write_meta(self.batches() + [batch_id])
            if rows:
                new_fps = rd.read_parquet(bdir)

        def _doc_counts(tag: int):
            import pyarrow.compute as pc

            def f(t: pa.Table) -> pa.Table:
                g = t.group_by(["doc_id"]).aggregate([("fp", "count")])
                return pa.table({
                    "doc_id": g.column("doc_id"),
                    "n": pc.cast(g.column("fp_count"), pa.int64()),
                    "tag": pa.array([tag] * g.num_rows, pa.int64())})
            return f

        # --- membership against the already-ingested corpus ------------
        # disk-local per fp shard: this batch's shard=k files intersect
        # the UNION of every prior batch's shard=k files (sorted-set
        # np.isin), emitting per-doc partial shared counts — the index
        # can grow without any membership exchange ever entering the
        # object store (the old distinct+bucketed-join spilled ~33 GB
        # per 10M-doc batch).
        shared = None
        prior = [b for b in self.batches() if b != batch_id]
        if new_fps is not None and prior:
            empty = pa.table({"doc_id": pa.array([], pa.int64()),
                              "n": pa.array([], pa.int64()),
                              "tag": pa.array([], pa.int64())})

            def shard_shared(k: int, files: list[list[str]]) -> pa.Table:
                import pyarrow.dataset as pads
                new_files = files[0]
                old_files = [f for fs in files[1:] for f in fs]
                if not new_files or not old_files:
                    return empty
                t = pads.dataset(new_files).to_table(
                    columns=["doc_id", "fp"])
                if t.num_rows == 0:
                    return empty
                old_fp = np.unique(pads.dataset(old_files).to_table(
                    columns=["fp"]).column("fp").to_numpy(
                    zero_copy_only=False))
                fps = t.column("fp").to_numpy(zero_copy_only=False)
                hit_docs = t.column("doc_id").to_numpy(
                    zero_copy_only=False)[np.isin(fps, old_fp)]
                if hit_docs.size == 0:
                    return empty
                u, c = np.unique(hit_docs, return_counts=True)
                return pa.table({
                    "doc_id": pa.array(u, pa.int64()),
                    "n": pa.array(c.astype(np.int64), pa.int64()),
                    "tag": pa.array(np.ones(u.size, np.int64), pa.int64())})

            shared = rd.from_arrow_refs(reduce_shards(
                [bdir] + [self._batch_dir(b) for b in prior],
                self.FP_SHARDS, shard_shared))

        def per_doc_fps(batch: pa.Table) -> pa.Table:
            return pa.table({"doc_id": batch.column("doc_id"),
                             "n": pa.array([0] * len(batch), pa.int64()),
                             "tag": pa.array([0] * len(batch), pa.int64())})

        base = docs_ds.map_batches(per_doc_fps, batch_format="pyarrow")
        cnt = None
        if new_fps is not None:
            cnt = new_fps.map_batches(_doc_counts(2),
                                      batch_format="pyarrow")
        tagged = base
        for extra in (cnt, shared):
            if extra is not None:
                tagged = tagged.union(extra)

        def reduce(t: pa.Table) -> pa.Table:
            df = t.to_pandas()
            df["sh"] = np.where(df["tag"] == 1, df["n"], 0)
            df["nf"] = np.where(df["tag"] == 2, df["n"], 0)
            agg = df.groupby("doc_id", sort=True)[["sh", "nf"]].sum()
            sh = agg["sh"].to_numpy(np.int64)
            return pa.table({
                "doc_id": pa.array(agg.index.to_numpy(np.int64), pa.int64()),
                "n_fps": pa.array(agg["nf"].to_numpy(np.int64), pa.int64()),
                "n_shared_with_corpus": pa.array(sh, pa.int64()),
                "dup_of_corpus": pa.array((sh >= min_shared).tolist(),
                                          pa.bool_())})

        flags = hash_grouped_aggregate(tagged, ["doc_id"], reduce)

        return flags
