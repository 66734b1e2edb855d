"""Incremental-crawl ingest job — the week-over-week operational story a
100-TB corpus owner actually runs (round-3 verdict #10): each arriving
crawl batch is diffed against the previous snapshot, near-dup-flagged
against EVERYTHING already ingested (``state/fp_index.FingerprintIndex``
— persisted winnow fingerprints, bucketed-join membership, never an
in-memory corpus set), curated (gates → exact → MinHash near-dedup) and
appended to the sharded training corpus, batch by batch.

Resume is BATCH-granular: every batch directory carries a manifest; a
crashed or re-run job skips finished batches (and the fp-index ingest is
idempotent per batch id), so a mid-crawl failure redoes only the batch
in flight.

Synthetic crawl shape (deterministic): batch b covers ids
``[b·(3M/4), b·(3M/4) + M)`` — a 25% re-crawl overlap with batch b−1;
every 5th overlapped id changed text since last crawl (diff → changed),
the rest are byte-identical (diff → same, dropped without re-curation);
every ``i % 7 == 6`` NEW id duplicates an already-ingested doc's text
under a fresh id (diff can't see it — the fp-index flags it).

Run:  python scripts/run_incremental_ingest.py --batches 4 \
          --docs-per-batch 100000 --out /tmp/inc_corpus
Test hook: --crash-after K raises after K batches (resume demo).
"""

import argparse
import json
import os
import shutil
import sys
import time

import numpy as np
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _batch_docs(b: int, m: int, step: int):
    """Deterministic (doc_id, text) generator for crawl batch b —
    self-contained closure (pickled by value into Ray workers; the same
    corpus family as scale_dedup_datapoints: word-id vocabulary, planted
    exact dups at ``i % 33 == 31``)."""
    lo = b * step
    seed, vocab = 424242, 50_000

    def _doc_text(doc_id: int) -> str:
        rng = np.random.Generator(np.random.PCG64(seed + doc_id))
        n = int(rng.integers(80, 200))
        return " ".join(f"w{j}" for j in rng.integers(0, vocab, size=n))

    def gen(t: pa.Table) -> pa.Table:
        ids = t.column("id").to_numpy() + lo
        out = []
        for i in ids:
            i = int(i)
            if b > 0 and i % 7 == 6 and i >= m:
                # new id, already-ingested CONTENT (copy of doc i-m from
                # an earlier batch) — only the fp-index can catch this
                txt = _doc_text(i - m)
            elif i % 33 == 31:
                txt = _doc_text(i - 1)           # in-batch exact dup
            else:
                txt = _doc_text(i)
                if i < lo + (m - step) and i % 5 == 0 and b > 0:
                    # overlapped re-crawl whose text changed this week
                    txt = txt + f" updated in crawl {b}."
            out.append(txt)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(out, pa.string())})
    return gen


def _stage_docs(ds, path: str):
    if os.path.exists(path):
        shutil.rmtree(path)
    os.makedirs(os.path.join(path, "documents.parquet"))
    ds.write_parquet(os.path.join(path, "documents.parquet"))
    return path


def run_job(out: str, batches: int = 4, docs_per_batch: int = 100_000,
            num_shards: int = 8, crash_after: int | None = None,
            fp_k: int = 40, fp_w: int = 10) -> dict:
    import ray.data as rd

    from graphrag_rs_ray.pipelines import training_data as td
    from graphrag_rs_ray.stages.hashagg import semi_filter
    from graphrag_rs_ray.state.fp_index import FingerprintIndex
    from graphrag_rs_ray.state.manifests import (fingerprint_config,
                                                 read_manifest,
                                                 stage_complete,
                                                 write_manifest)

    m = docs_per_batch
    step = 3 * m // 4
    work = out + "_stage"
    os.makedirs(work, exist_ok=True)
    # fp-k/fp-w size the winnow fingerprint density: the default k=40
    # w=10 emits ~120 fps/doc (fine to ~1M docs/batch); at 10M docs per
    # batch that is a ~24 GB exchange against this box's ~50 GB
    # effective spill budget — the ladder runs k=25 w=39 (~2/40 density,
    # the 10M winnow precedent in BASELINE.md)
    idx = FingerprintIndex(os.path.join(work, "fp_index"), k=fp_k, w=fp_w)
    summary = {"batches": [], "redone": 0, "skipped": 0}
    t_all = time.perf_counter()

    for b in range(batches):
        bdir = os.path.join(out, f"batch={b:04d}")
        bfp = fingerprint_config("ingest", b, m, step, num_shards)
        if stage_complete(bdir, bfp):
            summary["skipped"] += 1
            summary["batches"].append(
                {**read_manifest(bdir)["counts"], "batch": b,
                 "resumed": True})
            continue
        t0 = time.perf_counter()
        gen = _batch_docs(b, m, step)
        docs = rd.range(m).repartition(16).map_batches(
            gen, batch_format="pyarrow").materialize()

        # 1. diff vs the previous crawl snapshot: keep added + changed
        if b == 0:
            delta = docs
            n_same = 0
        else:
            prev_gen = _batch_docs(b - 1, m, step)

            def _fp(t: pa.Table) -> pa.Table:
                import hashlib
                return pa.table({
                    "doc_id": t.column("doc_id"),
                    "fp": pa.array([hashlib.md5(x.encode()).hexdigest()
                                    for x in t.column("text").to_pylist()],
                                   pa.string())})

            # prev snapshot contract: (doc_id, fp=md5(text)) rows
            prev = rd.range(m).repartition(16).map_batches(
                prev_gen, batch_format="pyarrow").map_batches(
                _fp, batch_format="pyarrow")
            diff = td.corpus_diff("/unused", docs_ds=docs,
                                  prev_ds=prev).materialize()
            import pyarrow.compute as pc

            def _keep_new(t: pa.Table) -> pa.Table:
                m = pc.or_(pc.equal(t.column("status"), "added"),
                           pc.equal(t.column("status"), "changed"))
                return t.filter(m).select(["doc_id"])

            keep_ids = diff.map_batches(_keep_new, batch_format="pyarrow")
            delta = semi_filter(docs, keep_ids, "doc_id").materialize()
            n_same = docs.count() - delta.count()

        # 2. corpus-level near-dup flags vs everything already ingested
        flags = idx.ingest(f"b{b:04d}", delta).materialize()

        def _dups(t: pa.Table) -> pa.Table:
            return t.filter(t.column("dup_of_corpus")).select(["doc_id"])

        def _survivors(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            return t.filter(pc.invert(t.column("dup_of_corpus"))) \
                    .select(["doc_id"])

        dup_ids = flags.map_batches(_dups, batch_format="pyarrow")
        n_corpus_dup = dup_ids.count()
        # anti filter on the DUP ids (the small side — survivors are ~the
        # whole batch); below the broadcast budget the text never enters
        # an exchange
        keep = semi_filter(delta, dup_ids, "doc_id", anti=True)

        # 3. curate the survivors (gates → exact → near dedup, in-batch)
        sf_b = _stage_docs(keep, os.path.join(work, f"delta_{b:04d}"))
        # everything the curation needs is now on disk — release the
        # in-store datasets so their spilled copies are GC'd before the
        # curation stages start (measured: holding them through the
        # batch body kept ~20-30 GB of spill pinned)
        n_crawled = int(docs.count())
        del docs, delta, keep, flags, dup_ids
        if b > 0:
            del diff, keep_ids
        # gates tuned for the synthetic corpus (no English stopwords in
        # the deterministic word-id vocabulary — same device as
        # scale_dedup_datapoints' curation entry)
        curated = td.corpus_curation(sf_b, lang=None, min_stopword=0.0,
                                     keep_text=True, disk_shuffle=True,
                                     stage_dir=os.path.join(
                                         work, f"curstage_{b:04d}"))
        cur_dir = os.path.join(work, f"curated_{b:04d}")
        if os.path.exists(cur_dir):
            shutil.rmtree(cur_dir)
        os.makedirs(cur_dir)
        curated.write_parquet(cur_dir)

        # 4. append to the sharded corpus (partition-granular manifests)
        man = td.write_corpus_shards(cur_dir, bdir, num_shards=num_shards,
                                     seed=f"inc{b}", input_token=bfp)
        counts = {"n_crawled": n_crawled,
                  "n_unchanged_dropped": int(n_same),
                  "n_corpus_dups_flagged": int(n_corpus_dup),
                  "n_written": int(man["rows"]),
                  "sec": round(time.perf_counter() - t0, 1)}
        write_manifest(bdir, "ingest_batch", bfp, rows=int(man["rows"]),
                       extra={"counts": counts})
        # batch is durable (manifest written) — its staging dirs are
        # dead weight now, and at 10M docs/batch they would otherwise
        # accumulate ~15 GB per batch of scratch
        shutil.rmtree(sf_b, ignore_errors=True)
        shutil.rmtree(cur_dir, ignore_errors=True)
        shutil.rmtree(os.path.join(work, f"curstage_{b:04d}"),
                      ignore_errors=True)
        summary["redone"] += 1
        summary["batches"].append({**counts, "batch": b, "resumed": False})
        if crash_after is not None and b + 1 >= crash_after:
            raise RuntimeError(f"simulated crash after batch {b}")

    summary["total_sec"] = round(time.perf_counter() - t_all, 1)
    summary["corpus_rows"] = sum(x["n_written"] for x in summary["batches"])
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--batches", type=int, default=4)
    ap.add_argument("--docs-per-batch", type=int, default=100_000)
    ap.add_argument("--num-shards", type=int, default=8)
    ap.add_argument("--crash-after", type=int, default=None)
    ap.add_argument("--fp-k", type=int, default=40)
    ap.add_argument("--fp-w", type=int, default=10)
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.op_resource_reservation_enabled = False

    summary = run_job(args.out, args.batches, args.docs_per_batch,
                      args.num_shards, args.crash_after,
                      fp_k=args.fp_k, fp_w=args.fp_w)
    print(json.dumps(summary), flush=True)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
