"""Scale datapoint for the per-query answer-generation stage: synthesize
N queries with their retrieval shortlists, run the hash-bucketed group
stage at full width, report queries/sec.

    python scripts/scale_query_stages.py [n_queries] [num_cpus]

The stage is per-query local (no cross-query state), so throughput
should scale with the bucket width — this script is the evidence the
10-query oracle fixtures can't provide."""

from __future__ import annotations

import os
import sys
import time

import pyarrow as pa
import ray
import ray.data as rd

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def main() -> None:
    n_queries = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    num_cpus = int(sys.argv[2]) if len(sys.argv) > 2 else 32

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.op_resource_reservation_enabled = False

    import pyarrow.parquet as pq
    docs = pq.read_table("/root/testdata/sf0.01/documents.parquet",
                         columns=["doc_id", "text"])
    doc_ids = [str(i) for i in docs.column("doc_id").to_pylist()]
    texts = docs.column("text").to_pylist()

    # ---- answer generation at scale ---------------------------------
    from graphrag_rs_ray.pipelines.generation import (
        GEN_QUERIES, generated_answers, synthesize_generation_inputs)
    base_q, base_r, base_h = synthesize_generation_inputs(doc_ids, texts)
    reps = (n_queries + len(GEN_QUERIES) - 1) // len(GEN_QUERIES)

    def replicate(tbl: pa.Table, reps: int) -> pa.Table:
        parts = []
        for k in range(reps):
            t = tbl.set_column(
                tbl.column_names.index("query_id"), "query_id",
                pa.array([f"{q}_{k}" for q in
                          tbl.column("query_id").to_pylist()],
                         pa.string()))
            parts.append(t)
        return pa.concat_tables(parts)

    q_tbl = replicate(base_q, reps)
    r_ds = rd.from_arrow(replicate(base_r, reps)).repartition(
        num_cpus * 2).materialize()
    h_ds = rd.from_arrow(replicate(base_h, reps)).repartition(
        num_cpus * 2).materialize()
    nq = len(q_tbl)

    t0 = time.perf_counter()
    out = generated_answers(r_ds, h_ds, q_tbl).count()
    gen_s = time.perf_counter() - t0
    print(f"generated_answers: {out} answers in {gen_s:.1f}s "
          f"({out / gen_s:.0f} q/s at {num_cpus} cpus)")

    ray.shutdown()


if __name__ == "__main__":
    main()
