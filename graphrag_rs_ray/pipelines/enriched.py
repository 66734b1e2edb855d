"""Enriched metadata-aware retrieval dataflow
(``retrieval/enriched.rs:57-143`` metadata_search): one distributed
pass over the enriched-chunk table — the base-result shortlist is the
broadcast side, chunk entity names arrive via a ``bucketed_join`` of
the mention rows (never a corpus broadcast).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.enriched_retrieval import (
    EnrichedRetrievalConfig,
    extract_structure_references,
    metadata_boost,
    query_words,
)
from ..stages.hashagg import bucketed_join, hash_grouped_aggregate

_META_COLS = ["chunk_id", "chapter", "section", "subsection", "keywords",
              "summary", "structural_level", "position_in_document"]


def chunk_entity_names(mentions_ds, num_buckets: int = 16):
    """(chunk_id, entities) — sorted-distinct comma-joined entity names
    per chunk (the reference keeps ``chunk.entities`` in insertion
    order; sorted-distinct is the documented deterministic form)."""
    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"chunk_id": t.column("chunk_id"),
                         "name": t.column("name")})

    def per_bucket(t: pa.Table) -> pa.Table:
        by: dict[str, set] = {}
        for cid, name in zip(t.column("chunk_id").to_pylist(),
                             t.column("name").to_pylist()):
            by.setdefault(cid, set()).add(name)
        cids = sorted(by)
        return pa.table({
            "chunk_id": pa.array(cids, pa.string()),
            "entities": pa.array([",".join(sorted(by[c])) for c in cids],
                                 pa.string())})

    return hash_grouped_aggregate(
        mentions_ds.map_batches(prep, batch_format="pyarrow"),
        ["chunk_id"], per_bucket, num_buckets=num_buckets)


def metadata_search(enriched_ds, mentions_ds, base_scores: dict[str, float],
                    query: str,
                    cfg: EnrichedRetrievalConfig | None = None,
                    num_buckets: int = 16):
    """Distributed ``metadata_search``: returns (chunk_id, score,
    base_score, boost, entities) rows for chunks whose metadata boost
    exceeds 0.05 (score = min(base + boost, 1), round 8)."""
    import ray

    cfg = cfg or EnrichedRetrievalConfig()
    qw = query_words(query)
    refs = extract_structure_references(query.lower())
    base_ref = ray.put(base_scores)

    meta = enriched_ds.map_batches(
        lambda t: t.select(_META_COLS), batch_format="pyarrow")
    # materialize: map_groups output has no static schema, and
    # bucketed_join needs both schemas up front
    names = chunk_entity_names(mentions_ds, num_buckets).materialize()
    joined = bucketed_join(meta, names, on=["chunk_id"], how="left",
                           num_buckets=num_buckets)

    def score(t: pa.Table) -> pa.Table:
        base = ray.get(base_ref)
        out = {"chunk_id": [], "score": [], "base_score": [], "boost": [],
               "entities": []}
        rows = t.to_pylist()
        for row in rows:
            has_entities = bool(row.get("entities"))
            if not has_entities and not (row.get("keywords") or []):
                continue                       # enriched.rs:86-87 gate
            boost = metadata_boost(row, qw, refs, cfg)
            if boost > 0.05:
                b = base.get(row["chunk_id"], 0.5)
                out["chunk_id"].append(row["chunk_id"])
                out["score"].append(round(min(b + boost, 1.0),
                                          cfg.round_digits))
                out["base_score"].append(b)
                out["boost"].append(round(boost, cfg.round_digits))
                out["entities"].append(row.get("entities") or "")
        return pa.table({
            "chunk_id": pa.array(out["chunk_id"], pa.string()),
            "score": pa.array(out["score"], pa.float64()),
            "base_score": pa.array(out["base_score"], pa.float64()),
            "boost": pa.array(out["boost"], pa.float64()),
            "entities": pa.array(out["entities"], pa.string())})

    return joined.map_batches(score, batch_format="pyarrow")
