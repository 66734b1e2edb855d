"""At-scale datapoint for the training-order shuffle over the same
planted 1M-doc corpus as ``scale_dedup_datapoints.py``: shuffle_shards
wall + structural proof at scale.  Positions are a gapless permutation
(count/min/max/sum identities), shards are balanced (max-min ≤ 1) and
internally contiguous (per-shard min=0, max = count-1), all checked via
distributed aggregates.

Run:  python scripts/scale_order_datapoints.py [n_docs] [n_shards]
"""

import json
import os
import sys
import time

import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from scale_dedup_datapoints import gen_batch  # noqa: E402  (same corpus)


def main():
    import ray
    import ray.data as rd

    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    n_shards = int(sys.argv[2]) if len(sys.argv) > 2 else 64

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
    from graphrag_rs_ray.stages.hashagg import hash_grouped_aggregate

    td._docs(sf_dir).count()   # warm page cache + worker pool untimed

    t0 = time.perf_counter()
    man = td.shuffle_shards(sf_dir, n_shards=n_shards).materialize()
    t_shuf = time.perf_counter() - t0

    # permutation identities (distributed aggregates only)
    n = man.count()
    pos_min, pos_max = man.min("pos"), man.max("pos")
    pos_sum = man.sum("pos")
    perm_ok = (n == n_docs and pos_min == 0 and pos_max == n_docs - 1
               and pos_sum == n_docs * (n_docs - 1) // 2)

    def per_shard(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby("shard")["shard_pos"].agg(["count", "min", "max"])
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    sh = hash_grouped_aggregate(
        man.map_batches(lambda t: pa.table({
            "shard": t.column("shard"), "shard_pos": t.column("shard_pos")}),
            batch_format="pyarrow"),
        ["shard"], per_shard).to_pandas()
    balanced = int(sh["count"].max() - sh["count"].min()) <= 1
    contiguous = bool(((sh["min"] == 0)
                       & (sh["max"] == sh["count"] - 1)).all())
    print(json.dumps({
        "op": "shuffle_shards", "n_docs": n_docs, "n_shards": n_shards,
        "sec": round(t_shuf, 1),
        "docs_per_sec": round(n_docs / t_shuf),
        "permutation_ok": perm_ok, "shards_balanced": balanced,
        "shards_contiguous": contiguous,
        "n_shards_seen": int(len(sh))}), flush=True)

    ray.shutdown()


if __name__ == "__main__":
    main()
