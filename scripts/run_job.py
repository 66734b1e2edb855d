"""Cluster job entry point — the ``ray job submit`` path of the north star.

Usage (local test):
    python scripts/run_job.py --pages-parquet DIR --out /tmp/kg_out
    python scripts/run_job.py --synthetic 20000 --out /tmp/kg_out

On a real cluster:
    ray job submit --working-dir . -- python scripts/run_job.py \
        --pages-parquet s3://bucket/pages/ --out s3://bucket/graph/ \
        --work-dir s3://bucket/stage/

Reads Parquet web pages (input_hint schema), runs the full KG build
(extract → chunk → mention detect → canonicalize [--fuzzy] → triple
dedup), writes adjacency shards + per-partition manifests, prints a JSON
summary.  Re-running with the same --work-dir and config resumes from the
staged extraction output.  Owns the Ray session (guarded init) — the only
scripts allowed to (bench.py, tests, this)."""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--pages-parquet", help="directory/file of pages parquet")
    src.add_argument("--synthetic", type=int, metavar="N",
                     help="generate N deterministic synthetic pages instead")
    ap.add_argument("--out", required=True, help="graph output directory")
    ap.add_argument("--work-dir", default=None, help="staging dir for resume")
    ap.add_argument("--num-shards", type=int, default=16)
    ap.add_argument("--fuzzy", action="store_true", help="enable fuzzy linking tier")
    ap.add_argument("--link-embedding-threshold", type=float, default=None,
                    help="batched embedding refinement of fuzzy links")
    ap.add_argument("--extractor", default="pattern",
                    help="registry name: pattern | gleaning | custom-registered")
    ap.add_argument("--chunker", default="hierarchical",
                    choices=["hierarchical", "legacy"])
    ap.add_argument("--chunk-size", type=int, default=1000)
    ap.add_argument("--chunk-overlap", type=int, default=100)
    ap.add_argument("--min-confidence", type=float, default=0.7)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--export", default=None, choices=["graphml", "ntriples"],
                    help="also export the built graph for external tools "
                         "(written to <out>_export.<fmt>/)")
    ap.add_argument("--disk-shuffle", action="store_true",
                    help="disk-partitioned triple dedup (for exchange "
                         "volumes beyond the object store; see "
                         "write_graph docstring)")
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.op_resource_reservation_enabled = False

    from graphrag_rs_ray.config import KGConfig
    from graphrag_rs_ray.pipelines.kg import build_kg, write_graph
    from graphrag_rs_ray.sources.pages import pages_dataset

    cfg = KGConfig(chunk_size=args.chunk_size, chunk_overlap=args.chunk_overlap,
                   min_confidence=args.min_confidence, fuzzy_linking=args.fuzzy,
                   link_embedding_threshold=args.link_embedding_threshold,
                   extractor=args.extractor, chunker=args.chunker,
                   num_shards=args.num_shards)

    if args.pages_parquet:
        from graphrag_rs_ray.sources.pages import read_pages_parquet
        pages = read_pages_parquet(args.pages_parquet)
    else:
        pages = pages_dataset(args.synthetic, seed=args.seed)

    t0 = time.perf_counter()
    result = build_kg(pages, cfg, work_dir=args.work_dir)
    manifest = write_graph(result, args.out, num_shards=args.num_shards,
                           disk_shuffle=args.disk_shuffle)
    export_stats = None
    if args.export:
        from graphrag_rs_ray.pipelines.kg import export_graph
        export_stats = export_graph(
            result, f"{args.out.rstrip('/')}_export.{args.export}",
            fmt=args.export)
    elapsed = time.perf_counter() - t0

    print(json.dumps({
        "out": args.out,
        "export": export_stats,
        "seconds": round(elapsed, 2),
        "n_entities": manifest["n_entities"],
        "n_triples": manifest["n_triples"],
        "num_shards": manifest["num_shards"],
        "n_fuzzy_links": manifest["n_fuzzy_links"],
        "triples_per_sec": round(manifest["n_triples"] / elapsed, 1),
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
