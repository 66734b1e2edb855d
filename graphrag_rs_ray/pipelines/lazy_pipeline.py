"""LazyGraphRAG end-to-end pipeline — port of
``lightrag/lazy_pipeline.rs`` (fixed-size overlap chunking → no-LLM
concept extraction → co-occurrence concept graph → bidirectional
concept↔chunk index), the build half only, composed from the
already-ported stages in ``pipelines/concepts.py``.

Semantics pinned:

- ``chunk_text`` (``:236-271``): byte-offset loop — end = min(start +
  chunk_size, len); emit; break when end hits len; next start =
  end − overlap; ids ``{doc}_{k}``.  The reference slices BYTES (and
  would panic off a UTF-8 boundary); this port slices chars — equal on
  the ASCII corpus, documented.
- ``normalize_concept`` (``:275-283``): lowercase → keep alphanumeric
  or '_' → ``replace(' ', '_')`` — the filter has already removed
  every space, so the replace is dead code (quirk, pinned).
- ``build_graph`` (``:152-173``): bidirectional index maps
  normalized-concept entity ids to the concept's chunk set;
  ``IndexStatistics`` = entity/chunk/mapping counts + the two
  mappings-per averages (``bidirectional_index.rs:368-388``).
- ``PipelineStatistics`` (``:219-234``): document_count counts every
  ``index_document`` call; graph stats = concept count + relation
  count (co-occurrence ≥ 2 edges, ``concept_graph.rs`` builder).
"""

from __future__ import annotations

import pyarrow as pa

from .concepts import concept_edges_from_lists, concept_chunk_lists, \
    mentions_from_lists

CHUNK_SIZE = 512
CHUNK_OVERLAP = 128


def chunk_text(text: str, document_id: str, chunk_size: int = CHUNK_SIZE,
               chunk_overlap: int = CHUNK_OVERLAP) -> list[dict]:
    """``lazy_pipeline.rs:236-271`` fixed-size overlap chunker."""
    chunks = []
    n = len(text)
    if n == 0:
        return chunks
    start = 0
    k = 0
    while start < n:
        end = min(start + chunk_size, n)
        chunks.append({"chunk_id": f"{document_id}_{k}",
                       "doc_id": document_id,
                       "content": text[start:end],
                       "start_offset": start, "end_offset": end})
        if end >= n:
            break
        start = end - chunk_overlap
        k += 1
    return chunks


def normalize_concept(concept: str) -> str:
    """``:275-283`` — space-filter makes the trailing replace a no-op."""
    kept = "".join(c for c in concept.lower()
                   if c.isalnum() or c == "_")
    return kept.replace(" ", "_")


def fixed_chunks(docs_ds, chunk_size: int = CHUNK_SIZE,
                 chunk_overlap: int = CHUNK_OVERLAP):
    """documents (doc_id, text) → chunk rows, stateless map_batches."""

    def stage(t: pa.Table) -> pa.Table:
        cols = {k: [] for k in ("chunk_id", "doc_id", "content",
                                "start_offset", "end_offset")}
        for did, text in zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()):
            for c in chunk_text(text or "", str(did), chunk_size,
                                chunk_overlap):
                for k in cols:
                    cols[k].append(c[k])
        return pa.table({
            "chunk_id": pa.array(cols["chunk_id"], pa.string()),
            "doc_id": pa.array(cols["doc_id"], pa.string()),
            "content": pa.array(cols["content"], pa.string()),
            "start_offset": pa.array(cols["start_offset"], pa.int64()),
            "end_offset": pa.array(cols["end_offset"], pa.int64())})

    return docs_ds.map_batches(stage, batch_format="pyarrow")


def lazy_concept_mentions(chunks_ds):
    """chunk rows → (concept, chunk_id) mention rows via the ported
    no-LLM concept extractor (``concept_graph.rs``)."""
    renamed = chunks_ds.map_batches(
        lambda t: pa.table({"chunk_id": t.column("chunk_id"),
                            "text": t.column("content")}),
        batch_format="pyarrow")
    return mentions_from_lists(concept_chunk_lists(renamed))


def lists_from_mentions(mentions_ds):
    """(concept, chunk_id) rows → per-chunk sorted concept lists (the
    extractor emits sorted+deduped lists, so regrouping + sorting
    reproduces them exactly)."""
    from ..stages.hashagg import hash_grouped_aggregate

    def per_bucket(t: pa.Table) -> pa.Table:
        by_chunk: dict[str, list[str]] = {}
        for c, ch in zip(t.column("concept").to_pylist(),
                         t.column("chunk_id").to_pylist()):
            by_chunk.setdefault(ch, []).append(c)
        ids = sorted(by_chunk)
        return pa.table({
            "chunk_id": pa.array(ids, pa.string()),
            "concepts": pa.array([sorted(by_chunk[i]) for i in ids],
                                 pa.list_(pa.string()))})

    return hash_grouped_aggregate(mentions_ds, ["chunk_id"], per_bucket)


def _distinct(ds, keys: list[str]):
    from ..stages.hashagg import hash_grouped_aggregate

    def per_bucket(t: pa.Table) -> pa.Table:
        return t.select(keys).group_by(keys).aggregate([])

    return hash_grouped_aggregate(ds, keys, per_bucket)


def pipeline_statistics(docs_ds, mentions_ds) -> pa.Table:
    """End-to-end LazyGraphRAG indexing stats → one PipelineStatistics
    row (``lazy_pipeline.rs:219-234``).  Every count is a distributed
    aggregate (hash-bucketed distincts; the materialized pair set cuts
    the diamond so each count is one pass)."""
    document_count = docs_ds.count()
    chunk_count = fixed_chunks(docs_ds).count()
    norm = mentions_ds.map_batches(
        lambda t: pa.table({
            "nc": pa.array([normalize_concept(c) for c in
                            t.column("concept").to_pylist()],
                           pa.string()),
            "chunk_id": t.column("chunk_id")}),
        batch_format="pyarrow")
    pairs = _distinct(norm, ["nc", "chunk_id"]).materialize()
    m = pairs.count()
    e = _distinct(pairs, ["nc"]).count()
    ch = _distinct(pairs, ["chunk_id"]).count()
    concept_count = _distinct(mentions_ds, ["concept"]).count()
    relation_count = concept_edges_from_lists(
        lists_from_mentions(mentions_ds)).count()
    return pa.table({
        "document_count": pa.array([document_count], pa.int64()),
        "chunk_count": pa.array([chunk_count], pa.int64()),
        "concept_count": pa.array([concept_count], pa.int64()),
        "relation_count": pa.array([relation_count], pa.int64()),
        "total_entities": pa.array([e], pa.int64()),
        "total_chunks_indexed": pa.array([ch], pa.int64()),
        "total_mappings": pa.array([m], pa.int64()),
        "avg_chunks_per_entity": pa.array(
            [(m / e) if e > 0 else 0.0], pa.float64()),
        "avg_entities_per_chunk": pa.array(
            [(m / ch) if ch > 0 else 0.0], pa.float64())})
