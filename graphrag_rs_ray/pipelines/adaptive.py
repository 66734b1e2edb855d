"""Adaptive strategy-selection dataflow (``retrieval/adaptive.rs``):
four strategy shortlists (vector cosine / graph entity-match / summary
hierarchy / BM25 — each distributed over the chunk corpus, top-k small)
fused per query cohort by the type-selected weights.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.adaptive_retrieval import (
    AdaptiveConfig,
    select_strategy_weights,
    weight_and_fuse,
)
from ..stages.hashagg import hash_grouped_aggregate


def graph_strategy_shortlist(mentions_ds, query: str, top_n: int = 10,
                             num_buckets: int = 16):
    """Graph-signal shortlist: chunks ranked by the number of DISTINCT
    mentioned entities whose name mutually substring-matches a query
    word (the analyzer's key-entity rule, ``retrieval/mod.rs:604-615``,
    applied per chunk — the engine's stand-in for the reference's
    in-memory ``entity_centric_search``)."""
    import ray
    import ray.data as rd

    words = query.lower().split()
    w_ref = ray.put(words)

    def match(t: pa.Table) -> pa.Table:
        ws = ray.get(w_ref)
        cids, eids = [], []
        for cid, name in zip(t.column("chunk_id").to_pylist(),
                             t.column("name").to_pylist()):
            nl = (name or "").lower()
            if any(w in nl or nl in w for w in ws):
                cids.append(cid)
                eids.append(name)
        return pa.table({"chunk_id": pa.array(cids, pa.string()),
                         "name": pa.array(eids, pa.string())})

    def per_bucket(t: pa.Table) -> pa.Table:
        by: dict[str, set] = {}
        for cid, name in zip(t.column("chunk_id").to_pylist(),
                             t.column("name").to_pylist()):
            by.setdefault(cid, set()).add(name)
        cids = sorted(by)
        return pa.table({
            "id": pa.array(cids, pa.string()),
            "score": pa.array([float(len(by[c])) for c in cids],
                              pa.float64())})

    scored = hash_grouped_aggregate(
        mentions_ds.map_batches(match, batch_format="pyarrow"),
        ["chunk_id"], per_bucket, num_buckets=num_buckets)
    top = (scored.sort(["score", "id"], descending=[True, False])
           .limit(top_n).take_all())
    return rd.from_arrow(pa.table({
        "id": pa.array([r["id"] for r in top], pa.string()),
        "score": pa.array([r["score"] for r in top], pa.float64()),
        "rank": pa.array(range(len(top)), pa.int64())}))


def adaptive_fuse(strategy_tables: dict[str, pa.Table],
                  chunk_entities: dict[str, str], query_type: str,
                  confidence: float,
                  cfg: AdaptiveConfig | None = None):
    """Weight-select + truncate + weight + dedup + sort
    (``adaptive.rs:129-254``).  ``strategy_tables`` hold rank-ordered
    (id, score) rows; entities attach from ``chunk_entities``.
    Returns (fused rows, weights, total_before_fusion)."""
    cfg = cfg or AdaptiveConfig()
    weights = select_strategy_weights(query_type, confidence, cfg)
    lists = {}
    for strategy, tbl in strategy_tables.items():
        lists[strategy] = [
            (i, s, chunk_entities.get(i, ""))
            for i, s in zip(tbl.column("id").to_pylist(),
                            tbl.column("score").to_pylist())]
    fused, total = weight_and_fuse(lists, weights, cfg)
    return fused, weights, total
