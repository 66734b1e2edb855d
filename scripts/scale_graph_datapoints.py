"""At-scale datapoint for the DISTRIBUTED connected-components path.

The sf test KG saturates at ~900 entities (fixed name vocabulary), so
the sharded path of connected_components is never stressed by the
driver bench — its union-find twin takes over.  This script generates
a seeded sparse random graph at millions of edges, forces the
distributed path (``small_graph_limit=0``), and prints one JSON line
for BASELINE.md.

Run:  python scripts/scale_graph_datapoints.py [n_nodes] [n_edges]
"""

import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def stage_graph(n_nodes: int, n_edges: int, path: str, seed: int = 42):
    rng = np.random.Generator(np.random.PCG64(seed))
    os.makedirs(path, exist_ok=True)
    per = 1_000_000
    written = 0
    shard = 0
    while written < n_edges:
        k = min(per, n_edges - written)
        a = rng.integers(0, n_nodes, size=k)
        b = rng.integers(0, n_nodes, size=k)
        t = pa.table({
            "subj": pa.array([f"n{x}" for x in a], pa.string()),
            "pred": pa.array(["r"] * k, pa.string()),
            "obj": pa.array([f"n{x}" for x in b], pa.string()),
        })
        pq.write_table(t, os.path.join(path, f"part-{shard:04d}.parquet"))
        written += k
        shard += 1
    return path


def main():
    import ray
    import ray.data as rd

    n_nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    n_edges = int(sys.argv[2]) if len(sys.argv) > 2 else 5_000_000

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.op_resource_reservation_enabled = False

    gdir = f"/tmp/graft_scale_graph_{n_nodes}_{n_edges}"
    if not os.path.exists(gdir):
        stage_graph(n_nodes, n_edges, gdir)

    from graphrag_rs_ray.pipelines.communities import connected_components

    tri_ds = rd.read_parquet(gdir)

    def und(t):
        import pyarrow.compute as pc
        keep = t.filter(pc.invert(pc.equal(t.column("subj"), t.column("obj"))))
        return pa.table({"a": keep.column("subj"), "b": keep.column("obj")})

    edges = tri_ds.map_batches(und, batch_format="pyarrow").materialize()

    t0 = time.perf_counter()
    cc = connected_components(edges, num_buckets=64, small_graph_limit=0)
    n_cc_nodes = cc.count()
    t_cc = time.perf_counter() - t0
    print(json.dumps({"op": "connected_components_distributed",
                      "n_nodes": n_cc_nodes, "n_edges": n_edges,
                      "sec": round(t_cc, 1)}), flush=True)

    ray.shutdown()


if __name__ == "__main__":
    main()
