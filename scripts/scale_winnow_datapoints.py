"""At-scale datapoints for the winnowing family (winnow_dup_pairs +
dup_span_profile) over the SAME planted 1M-doc corpus as
``scale_dedup_datapoints.py`` (reuses its generator and its /tmp cache):
``id % 33 == 31`` is an exact copy of ``id-1``, ``id % 33 == 32`` a 3%
token mutation of ``id-2``.

Quality metrics:
* winnow_dup_pairs — recall of planted exact pairs (identical docs share
  every fingerprint) and planted near pairs;
* dup_span_profile — duplicated-span detection: docs in a planted family
  (id % 33 in {30,31,32}) should be heavy_dup, everything else not (a
  shared ≥49-normalized-char substring between independent random docs
  is essentially impossible).

Run:  python scripts/scale_winnow_datapoints.py [n_docs]
"""

import json
import os
import sys
import time

import pyarrow as pa
import pyarrow.compute as pc

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from scale_dedup_datapoints import gen_batch  # noqa: E402  (same corpus)


def main():
    import ray
    import ray.data as rd

    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    # fingerprint density is ~2/(w+1) per normalized char; the default
    # (k=12, w=5) is the operator default, but at 10M docs that exchange
    # is ~80 GB on this box — pass a MOSS-standard wider window
    # (e.g. k=25 w=19, guarantee t=43) for the big datapoints
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 12
    w = int(sys.argv[3]) if len(sys.argv) > 3 else 5
    skip_span = "--skip-span" in sys.argv

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.op_resource_reservation_enabled = False

    sf_dir = f"/tmp/graft_scale_dedup_{n_docs}"
    docs_dir = os.path.join(sf_dir, "documents.parquet")
    if not os.path.exists(os.path.join(sf_dir, "_DONE")):
        import shutil
        if os.path.exists(docs_dir):
            shutil.rmtree(docs_dir)
        os.makedirs(docs_dir, exist_ok=True)
        (rd.range(n_docs).repartition(128)
         .map_batches(gen_batch, batch_format="pyarrow")
         .write_parquet(docs_dir))
        open(os.path.join(sf_dir, "_DONE"), "w").write("1")

    from graphrag_rs_ray.pipelines import training_data as td

    td._docs(sf_dir).count()   # warm page cache + worker pool untimed

    t0 = time.perf_counter()
    pairs = td.winnow_dup_pairs(sf_dir, k=k, w=w).to_pandas()
    t_pairs = time.perf_counter() - t0
    got = {(min(a, b), max(a, b))
           for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    planted_exact = {(i - 1, i) for i in range(n_docs) if i % 33 == 31}
    planted_near = {(i - 2, i) for i in range(n_docs) if i % 33 == 32}
    print(json.dumps({
        "op": "winnow_dup_pairs", "n_docs": n_docs, "k": k, "w": w,
        "sec": round(t_pairs, 1), "pairs": len(got),
        "recall_planted_exact":
            round(len(got & planted_exact) / len(planted_exact), 4),
        "recall_planted_near":
            round(len(got & planted_near) / len(planted_near), 4)}),
        flush=True)

    # two-path gate at scale: a zero broadcast budget forces the bucketed
    # semi-join path; the pair set must be identical to the broadcast run
    from graphrag_rs_ray.stages import hashagg
    budget, hashagg.BROADCAST_KEY_BYTES = hashagg.BROADCAST_KEY_BYTES, 0
    t0 = time.perf_counter()
    pairs_j = td.winnow_dup_pairs(sf_dir, k=k, w=w).to_pandas()
    t_join = time.perf_counter() - t0
    hashagg.BROADCAST_KEY_BYTES = budget
    got_j = {(min(a, b), max(a, b))
             for a, b in zip(pairs_j["doc_a"], pairs_j["doc_b"])}
    print(json.dumps({
        "op": "winnow_dup_pairs_join_path", "n_docs": n_docs,
        "sec": round(t_join, 1), "pairs": len(got_j),
        "equal_to_broadcast_path": bool(got_j == got)}), flush=True)

    if skip_span:
        ray.shutdown()
        return

    t0 = time.perf_counter()
    prof = td.dup_span_profile(sf_dir)

    def flags(t: pa.Table) -> pa.Table:
        rem = pc.subtract(t.column("doc_id"),
                          pc.multiply(pc.divide(t.column("doc_id"), 33), 33))
        in_family = pc.and_(pc.greater_equal(rem, 30),
                            pc.less_equal(rem, 32))
        hv = t.column("heavy_dup")
        return pa.table({
            "fam_heavy": pc.cast(pc.and_(in_family, hv), pa.int64()),
            "fam": pc.cast(in_family, pa.int64()),
            "other_heavy": pc.cast(pc.and_(pc.invert(in_family), hv),
                                   pa.int64())})

    f = prof.map_batches(flags, batch_format="pyarrow").materialize()
    t_prof = time.perf_counter() - t0
    fam_heavy, fam, other_heavy = f.sum("fam_heavy"), f.sum("fam"), f.sum("other_heavy")
    print(json.dumps({
        "op": "dup_span_profile", "n_docs": n_docs,
        "sec": round(t_prof, 1),
        "family_heavy_recall": round(fam_heavy / fam, 4),
        "false_heavy_on_independent_docs": other_heavy}), flush=True)

    ray.shutdown()


if __name__ == "__main__":
    main()
