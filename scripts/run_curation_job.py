"""Webtext curation job entry point — the training-data counterpart of
``run_job.py`` (the ``ray job submit`` path for the curation pipeline).

Usage (local test):
    python scripts/run_curation_job.py --docs-parquet DIR --out /tmp/cur_out
    python scripts/run_curation_job.py --synthetic 100000 --out /tmp/cur_out

On a real cluster:
    ray job submit --working-dir . -- python scripts/run_curation_job.py \
        --docs-parquet s3://bucket/docs/ --out s3://bucket/corpus/ \
        --work-dir s3://bucket/stage/

Pipeline: quality gates (language / token count / punct / stopword) →
exact dedup → MinHash-LSH near-dedup (Jaccard-verified pair drop) →
deterministic shuffle-shard manifest → sharded Parquet training corpus.

Resume is two-granular, the same contract as the KG job:
- the curated survivor table is STAGED under ``--work-dir`` with a
  config-fingerprint manifest — a rerun with the same config skips the
  whole curation phase (the 90% stage);
- the output is written one ``shard=K/`` partition at a time with
  per-partition manifests — a crashed run redoes only the missing
  shards, never the finished ones.

Owns the Ray session (guarded init) — one of the few scripts allowed to.
"""

import argparse
import glob
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _count_rows(d: str) -> int:
    import pyarrow.dataset as pads
    files = glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True)
    return pads.dataset(files).count_rows() if files else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--docs-parquet",
                     help="dir containing documents.parquet")
    src.add_argument("--synthetic", type=int, metavar="N",
                     help="generate N deterministic synthetic docs instead")
    ap.add_argument("--out", required=True, help="corpus output directory")
    ap.add_argument("--work-dir", default=None, help="staging dir for resume")
    ap.add_argument("--num-shards", type=int, default=64)
    ap.add_argument("--min-tokens", type=int, default=20)
    ap.add_argument("--max-punct", type=float, default=0.2)
    ap.add_argument("--min-stopword", type=float, default=0.01)
    ap.add_argument("--lang", default="en",
                    help="language gate; 'any' disables it")
    ap.add_argument("--jaccard-threshold", type=float, default=0.8)
    ap.add_argument("--shuffle-seed", default="shuf")
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.op_resource_reservation_enabled = False

    import ray.data as rd

    from graphrag_rs_ray.pipelines import training_data as td
    from graphrag_rs_ray.state.manifests import (
        fingerprint_config,
        read_manifest,
        stage_complete,
        write_manifest,
    )

    work = args.work_dir or os.path.join(args.out + "_stage")
    os.makedirs(work, exist_ok=True)
    t_start = time.perf_counter()

    # ---- input ----------------------------------------------------------
    if args.synthetic:
        sf_dir = os.path.join(work, f"synth_{args.synthetic}")
        docs_dir = os.path.join(sf_dir, "documents.parquet")
        if not os.path.exists(os.path.join(sf_dir, "_DONE")):
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from scale_dedup_datapoints import gen_batch
            if os.path.exists(docs_dir):
                shutil.rmtree(docs_dir)
            os.makedirs(docs_dir, exist_ok=True)
            (rd.range(args.synthetic).repartition(128)
             .map_batches(gen_batch, batch_format="pyarrow")
             .write_parquet(docs_dir))
            open(os.path.join(sf_dir, "_DONE"), "w").write("1")
        input_token = f"synthetic:{args.synthetic}"
    else:
        sf_dir = args.docs_parquet
        input_token = os.path.abspath(sf_dir)
    n_input = td._docs(sf_dir, columns=("doc_id",)).count()

    lang = None if args.lang == "any" else args.lang
    cur_fp = fingerprint_config(
        "curate", input_token, args.min_tokens, args.max_punct,
        args.min_stopword, lang, args.jaccard_threshold)

    # ---- stage 1: curate (gates -> exact dedup -> near-dedup) -----------
    cur_dir = os.path.join(work, "curated")
    t0 = time.perf_counter()
    if stage_complete(cur_dir, cur_fp):
        resumed_curation = True
    else:
        resumed_curation = False
        if os.path.exists(cur_dir):        # write_parquet APPENDS
            shutil.rmtree(cur_dir)
        os.makedirs(cur_dir)
        curated = td.corpus_curation(
            sf_dir, min_tokens=args.min_tokens, max_punct=args.max_punct,
            min_stopword=args.min_stopword,
            jaccard_threshold=args.jaccard_threshold,
            keep_text=True, lang=lang)
        curated.write_parquet(cur_dir)
        write_manifest(cur_dir, "curated", cur_fp, rows=_count_rows(cur_dir))
    n_curated = read_manifest(cur_dir)["rows"]
    t_curate = time.perf_counter() - t0

    # ---- stage 2: deterministic shuffle -> sharded corpus ---------------
    t0 = time.perf_counter()
    manifest = td.write_corpus_shards(cur_dir, args.out,
                                      num_shards=args.num_shards,
                                      seed=args.shuffle_seed,
                                      input_token=cur_fp)
    t_write = time.perf_counter() - t0

    print(json.dumps({
        "n_input": n_input, "n_curated": n_curated,
        "n_output": manifest["rows"],
        "num_shards": args.num_shards,
        "resumed_curation": resumed_curation,
        "resumed_shards": manifest["resumed_shards"],
        "written_shards": manifest["written_shards"],
        "max_shard_rows": max(manifest["shard_rows"].values()),
        "sec_curate": round(t_curate, 1), "sec_write": round(t_write, 1),
        "sec_total": round(time.perf_counter() - t_start, 1)}),
        flush=True)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
