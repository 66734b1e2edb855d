"""LightRAG query-side dataflows: dual-level keywords, dual retrieval
with merge strategies, and iterative-deepening lazy search over the
ported concept graph.

Scale shape: keyword extraction is a stateless ``map_batches`` over the
query table; dual retrieval's candidate lists are inherently top-k-small
(staged/broadcast); the concept graph for lazy search is the
post-aggregation SMALL side (concept vocabulary ≪ corpus) and rides the
object store once via ``ray.put`` — the corpus-side halves (mentions,
edges, chunk lists) are produced by the distributed concepts pipeline.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.lightrag import (
    SearchConfig,
    build_concept_views,
    fallback_keywords,
    iterative_deepening_search,
    merge_results,
)

MERGE_STRATEGIES = ("interleave", "high_first", "low_first", "weighted")


def synthesize_query_table(names: list[str], n_tuples: int = 12) -> pa.Table:
    """Deterministic query corpus over entity names drawn from the KG
    (no external data): templates chosen to exercise every rule path —
    each intent class, both semantic decomposition patterns (plus their
    case-sensitivity contrast), syntactic clause splits, every logic-form
    pattern, exact/partial/type fuzzy matches, safety/format/length
    validation issues."""
    if not names:
        names = ["Placeholder Entity"]

    def nm(i: int) -> str:
        return names[i % len(names)]

    queries: list[str] = []
    for i in range(n_tuples):
        a, b, c, d = nm(i), nm(i + 1), nm(i + 2), nm(i + 3)
        queries.extend([
            f"what is {a}?",
            f"who is {a} and {b}?",
            f"Who is {a} and {b}?",
            f"how is {a} related to {b}?",
            f"How is {a} connected to {b}?",
            f"when did {a} happen?",
            f"why did {a} cause {b}?",
            f"Compare {a} and {b}",
            f"tell me about {a}",
            f"summarize {a} and {b}",
            f"define the concept of {a}",
            f"{a}",
            f"the {a}",
            f"which person is {a}?",
            f"what is {a}, and how is {b} connected to {c}; also describe {d}",
            f"describe {a}; furthermore explain the meaning of {b}",
            f"is there a connection between {a} and {b}?",
            f"what is the secret of {a}?",
            f"how much harm did {a} cause?",
            f'"{a}" versus "{b}"',
            f"find the important person and company near {a}",
        ])
    # validation edge cases (once each) + an over-long query (>1000 bytes)
    queries.append("???")
    queries.append("   ")
    long_q = "tell me about " + " and ".join(nm(j) for j in range(80))
    queries.append(long_q)
    return pa.table({
        "query_id": pa.array(range(len(queries)), pa.int64()),
        "query": pa.array(queries, pa.string()),
    })


def dual_keywords_stage(t: pa.Table) -> pa.Table:
    out = {"query_id": [], "level": [], "k_idx": [], "keyword": []}
    for qid, q in zip(t.column("query_id").to_pylist(),
                      t.column("query").to_pylist()):
        kw = fallback_keywords(q)
        for level in ("high_level", "low_level"):
            for i, k in enumerate(kw[level]):
                out["query_id"].append(qid)
                out["level"].append(level)
                out["k_idx"].append(i)
                out["keyword"].append(k)
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.int64()),
        "level": pa.array(out["level"], pa.string()),
        "k_idx": pa.array(out["k_idx"], pa.int64()),
        "keyword": pa.array(out["keyword"], pa.string()),
    })


def dual_retrieval_table(high: list[dict], low: list[dict],
                         top_k: int = 10) -> pa.Table:
    """Merged candidates under ALL four strategies (one table, strategy
    column) — the engine-side form of ``dual_retrieval.rs:103-147``
    retrieve() with the candidate lists produced by any scorer."""
    out = {"strategy": [], "rank": [], "doc_id": [], "score": []}
    for strategy in MERGE_STRATEGIES:
        for rank, r in enumerate(merge_results(high, low, top_k,
                                               strategy), 1):
            out["strategy"].append(strategy)
            out["rank"].append(rank)
            out["doc_id"].append(r["id"])
            out["score"].append(r["score"])
    return pa.table({
        "strategy": pa.array(out["strategy"], pa.string()),
        "rank": pa.array(out["rank"], pa.int64()),
        "doc_id": pa.array(out["doc_id"], pa.int64()),
        "score": pa.array(out["score"], pa.float64()),
    })


def concept_views_from_tables(concept_tbl: pa.Table, edges_tbl: pa.Table,
                              mentions_tbl: pa.Table) -> dict:
    """Assemble the broadcast-side lookup views from the concepts
    pipeline's output tables."""
    freq = dict(zip(concept_tbl.column("concept").to_pylist(),
                    (int(x) for x in
                     concept_tbl.column("n_chunks").to_pylist())))
    edges = list(zip(edges_tbl.column("concept_a").to_pylist(),
                     edges_tbl.column("concept_b").to_pylist(),
                     edges_tbl.column("confidence").to_pylist()))
    chunks: dict[str, list[str]] = {}
    for ch, c in zip(mentions_tbl.column("chunk_id").to_pylist(),
                     mentions_tbl.column("concept").to_pylist()):
        chunks.setdefault(c, []).append(ch)
    return build_concept_views(freq, edges, chunks)


def lazy_search_stage(queries_ds, views: dict,
                      cfg: SearchConfig | None = None):
    """Iterative-deepening search per query with the concept graph
    broadcast once (``ray.put``)."""
    import ray

    cfg = cfg or SearchConfig()
    views_ref = ray.put(views)

    def run(t: pa.Table) -> pa.Table:
        v = ray.get(views_ref)
        out = {k: [] for k in ("query_id", "depth_reached", "total_chunks",
                               "total_concepts_explored", "n_initial",
                               "stop_reason")}
        for qid, q in zip(t.column("query_id").to_pylist(),
                          t.column("query").to_pylist()):
            from ..functions.concepts import extract_concepts
            res = iterative_deepening_search(q, v, cfg)
            out["query_id"].append(qid)
            out["depth_reached"].append(res["depth_reached"])
            out["total_chunks"].append(res["total_chunks"])
            out["total_concepts_explored"].append(
                res["total_concepts_explored"])
            out["n_initial"].append(len(extract_concepts(q)))
            out["stop_reason"].append(res["stop_reason"])
        return pa.table({
            "query_id": pa.array(out["query_id"], pa.int64()),
            "depth_reached": pa.array(out["depth_reached"], pa.int64()),
            "total_chunks": pa.array(out["total_chunks"], pa.int64()),
            "total_concepts_explored": pa.array(
                out["total_concepts_explored"], pa.int64()),
            "n_initial": pa.array(out["n_initial"], pa.int64()),
            "stop_reason": pa.array(out["stop_reason"], pa.string()),
        })

    return queries_ds.map_batches(run, batch_format="pyarrow")
