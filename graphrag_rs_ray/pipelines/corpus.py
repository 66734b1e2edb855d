"""Corpus-module pipelines: document collection metadata, graph-indexer
entity extraction, document concepts, and the corpus knowledge graph.

Reference semantics (re-expressed Ray-Data-first, NOT ported execution):
``corpus/document_manager.rs``, ``corpus/collection_processor.rs``,
``corpus/knowledge_graph.rs``, ``lightrag/graph_indexer.rs``.

Shapes:
- per-document stages (metadata, extraction, concepts) are stateless
  ``map_batches`` passes — embarrassingly parallel, no shuffle;
- grouping stages (concept clusters, co-occurrence relations) run on
  ``hash_grouped_aggregate`` (bucketed exchange, vectorized in-bucket);
- the dense-rank ids the reference assigns by scan order are computed on
  the AGGREGATED (small) outputs; at 100 TB swap them for content-derived
  ids exactly as ``pipelines/kg.py`` does for entities/triples.
"""

from __future__ import annotations

import pyarrow as pa

from graphrag_rs_ray.functions.corpus_index import (
    DEFAULT_ENTITY_TYPES,
    content_hash,
    cooccurrence_relations,
    corpus_graph_stats,
    corpus_stats_row,
    detect_language,
    document_type_from_extension,
    extract_document_concepts,
    extract_from_text,
    global_entities_from_clusters,
    quality_filter,
)
from graphrag_rs_ray.stages.hashagg import (grouped_arrow_agg,
                                             hash_grouped_aggregate)

# extension cycle used to synthesize file paths for the sf documents
# (the tables carry no filenames); doc_id % len cycle keeps the mapping
# SQL-replayable for the oracle.
EXT_CYCLE = ("txt", "pdf", "html", "md", "json", "xml", "dat")


def collection_table(docs_ds):
    """DocumentMetadata rows (``document_manager.rs:9-47,225-264``) over
    the documents table: synthesized ``corpus/doc_<id>.<ext>`` paths
    (extension = doc_id % 7 cycle), title = file stem, DocumentType from
    the extension, byte size, blake2b content hash, the substring-count
    language heuristic, and first-wins duplicate detection by content
    (``add_document``'s find-before-add order; ``load_collection``'s
    index-before-check order would reject every document — pinned in
    tests as a reference quirk, not reproduced)."""

    def meta(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        exts = [EXT_CYCLE[int(i) % len(EXT_CYCLE)] for i in ids]
        paths = [f"corpus/doc_{i}.{e}" for i, e in zip(ids, exts)]
        return pa.table({
            "doc_id": t.column("doc_id"),
            "title": pa.array([f"doc_{i}" for i in ids], pa.string()),
            "path": pa.array(paths, pa.string()),
            "document_type": pa.array(
                [document_type_from_extension(e) for e in exts],
                pa.string()),
            "size_bytes": pa.array(
                [len((x or "").encode("utf-8")) for x in texts],
                pa.int64()),
            "content_hash": pa.array(
                [content_hash(x or "") for x in texts], pa.string()),
            "language": pa.array(
                [detect_language(x or "") for x in texts], pa.string()),
        })

    meta_ds = docs_ds.map_batches(meta, batch_format="pyarrow")

    # first-wins dedup: min doc_id per content hash (hash-bucketed, one
    # small exchange on the hash key), joined back as dup_of
    def first_of_hash(t: pa.Table) -> pa.Table:
        agg = t.group_by("content_hash").aggregate([("doc_id", "min")])
        return agg.rename_columns(["content_hash", "first_doc_id"])

    firsts = hash_grouped_aggregate(
        meta_ds.select_columns(["content_hash", "doc_id"]),
        ["content_hash"], first_of_hash)
    from graphrag_rs_ray.stages.hashagg import bucketed_join
    joined = bucketed_join(meta_ds, firsts, on=["content_hash"])

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        is_dup = pc.not_equal(t.column("doc_id"), t.column("first_doc_id"))
        dup_of = pc.if_else(is_dup, t.column("first_doc_id"),
                            pa.nulls(t.num_rows, pa.int64()))
        return (t.append_column("is_duplicate", is_dup)
                 .append_column("dup_of", dup_of)
                 .drop_columns(["first_doc_id"]))

    return joined.map_batches(finish, batch_format="pyarrow")


def corpus_entities(pages_ds, entity_types=DEFAULT_ENTITY_TYPES):
    """Per-document graph-indexer extraction + the collection
    processor's quality gate (``graph_indexer.rs:62-107``,
    ``collection_processor.rs:215-263``): entity ids are
    ``<doc>_entity_<k>`` with the PRE-dedup scan numbering.  Stateless
    map_batches — the kernel is pure Python per document (window scan),
    vectorization buys nothing on short docs."""

    def extract(t: pa.Table) -> pa.Table:
        cols = {k: [] for k in ("doc_id", "entity_id", "name",
                                "entity_type", "confidence")}
        for did, text in zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()):
            ents = quality_filter(
                extract_from_text(text or "", entity_types))
            for e in ents:
                cols["doc_id"].append(did)
                cols["entity_id"].append(f"{did}_{e['entity_id']}")
                cols["name"].append(e["name"])
                cols["entity_type"].append(e["entity_type"])
                cols["confidence"].append(e["confidence"])
        return pa.table({
            "doc_id": pa.array(cols["doc_id"], pa.string()),
            "entity_id": pa.array(cols["entity_id"], pa.string()),
            "name": pa.array(cols["name"], pa.string()),
            "entity_type": pa.array(cols["entity_type"], pa.string()),
            "confidence": pa.array(cols["confidence"], pa.float64())})

    return pages_ds.map_batches(extract, batch_format="pyarrow")


def corpus_concepts(pages_ds):
    """Per-document concept rows with match positions
    (``collection_processor.rs:265-310``)."""

    def extract(t: pa.Table) -> pa.Table:
        cols = {k: [] for k in ("doc_id", "concept_id", "text", "context",
                                "frequency", "confidence", "pattern_idx",
                                "start", "length")}
        for did, text in zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()):
            for c in extract_document_concepts(did, text or ""):
                cols["doc_id"].append(did)
                for k in ("concept_id", "text", "context", "frequency",
                          "confidence", "pattern_idx", "start", "length"):
                    cols[k].append(c[k])
        return pa.table({
            "doc_id": pa.array(cols["doc_id"], pa.string()),
            "concept_id": pa.array(cols["concept_id"], pa.string()),
            "text": pa.array(cols["text"], pa.string()),
            "context": pa.array(cols["context"], pa.string()),
            "frequency": pa.array(cols["frequency"], pa.int64()),
            "confidence": pa.array(cols["confidence"], pa.float64()),
            "pattern_idx": pa.array(cols["pattern_idx"], pa.int64()),
            "start": pa.array(cols["start"], pa.int64()),
            "length": pa.array(cols["length"], pa.int64())})

    return pages_ds.map_batches(extract, batch_format="pyarrow")


def concept_cluster_table(concepts_ds, collect_limit: int = 2_000_000):
    """Exact-text concept clusters
    (``collection_processor.rs:313-352``): bucketed group by lowercased
    trimmed text (members kept in (doc_id, scan) order), then
    ``cluster_<k>`` ids by sorted canonical text on the aggregated
    vocabulary (pinned determinism; the reference iterates a HashMap).
    The id rank runs on the AGGREGATED table — one row per distinct
    concept text."""

    def norm(t: pa.Table) -> pa.Table:
        canon = [s.lower().strip() for s in t.column("text").to_pylist()]
        return pa.table({
            "canonical_text": pa.array(canon, pa.string()),
            "doc_id": t.column("doc_id"),
            "pattern_idx": t.column("pattern_idx"),
            "start": t.column("start"),
            "concept_id": t.column("concept_id")})

    def per_group(t: pa.Table) -> pa.Table:
        import collections
        rows = sorted(zip(t.column("canonical_text").to_pylist(),
                          t.column("doc_id").to_pylist(),
                          t.column("pattern_idx").to_pylist(),
                          t.column("start").to_pylist(),
                          t.column("concept_id").to_pylist()))
        members = collections.defaultdict(list)
        for canon, _d, _p, _s, cid in rows:
            members[canon].append(cid)
        canons = sorted(members)
        return pa.table({
            "canonical_text": pa.array(canons, pa.string()),
            "member_concept_ids": pa.array(
                [",".join(members[c]) for c in canons], pa.string()),
            "n_members": pa.array([len(members[c]) for c in canons],
                                  pa.int64())})

    grouped = hash_grouped_aggregate(
        concepts_ds.map_batches(norm, batch_format="pyarrow"),
        ["canonical_text"], per_group).materialize()
    import ray.data as rd
    if grouped.count() <= collect_limit:
        rows = sorted(grouped.take_all(),
                      key=lambda r: r["canonical_text"].encode())
        return rd.from_arrow(pa.table({
            "cluster_id": pa.array([f"cluster_{k}"
                                    for k in range(len(rows))], pa.string()),
            "canonical_text": pa.array([r["canonical_text"] for r in rows],
                                       pa.string()),
            "member_concept_ids": pa.array(
                [r["member_concept_ids"] for r in rows], pa.string()),
            "n_members": pa.array([r["n_members"] for r in rows], pa.int64()),
            "document_frequency": pa.array([1] * len(rows), pa.int64()),
            "total_mentions": pa.array([1] * len(rows), pa.int64()),
            "confidence": pa.array([0.8] * len(rows), pa.float64())}))

    # ABOVE-limit path (open concept vocabulary): distributed exact
    # lexicographic rank — bucket by the first two bytes of the encoded
    # text (monotone w.r.t. full bytes order; ties resolve inside the
    # bucket), per-bucket counts roll up to the driver (≤ 65,536 ints),
    # a prefix walk yields bucket base offsets, and within-bucket sorted
    # rank + offset IS the global rank.  Identical ids to the collect
    # path (equality-gated in tests/test_concept_cluster_paths.py).
    import ray

    def bkey(t: pa.Table) -> pa.Table:
        ks = []
        for s in t.column("canonical_text").to_pylist():
            b = s.encode()
            ks.append(((b[0] << 8) | b[1]) if len(b) > 1
                      else ((b[0] << 8) if b else 0))
        return t.append_column("_bk", pa.array(ks, pa.int64()))

    keyed = grouped.map_batches(bkey, batch_format="pyarrow").materialize()
    counts = hash_grouped_aggregate(
        keyed, ["_bk"],
        grouped_arrow_agg(["_bk"], [("canonical_text", "count")],
                          rename=["_bk", "n"])).to_pandas()
    counts = counts.sort_values("_bk")
    offsets, acc = {}, 0
    for bk, n in zip(counts["_bk"], counts["n"]):
        offsets[int(bk)] = acc
        acc += int(n)
    off_ref = ray.put(offsets)

    def rank_bucket(t: pa.Table) -> pa.Table:
        offs = ray.get(off_ref)
        df = t.to_pandas()
        df["_sk"] = [s.encode() for s in df["canonical_text"]]
        df = df.sort_values(["_bk", "_sk"], kind="stable")
        out = []
        local: dict[int, int] = {}
        for bk in df["_bk"]:
            r = local.get(int(bk), 0)
            out.append(offs[int(bk)] + r)
            local[int(bk)] = r + 1
        df["_rank"] = out
        n = len(df)
        return pa.table({
            "cluster_id": pa.array([f"cluster_{k}" for k in df["_rank"]],
                                   pa.string()),
            "canonical_text": pa.array(df["canonical_text"], pa.string()),
            "member_concept_ids": pa.array(df["member_concept_ids"],
                                           pa.string()),
            "n_members": pa.array(df["n_members"], pa.int64()),
            "document_frequency": pa.array([1] * n, pa.int64()),
            "total_mentions": pa.array([1] * n, pa.int64()),
            "confidence": pa.array([0.8] * n, pa.float64())})

    return hash_grouped_aggregate(keyed, ["_bk"], rank_bucket)


def corpus_kg_tables(clusters: list[dict]):
    """Global entities + co-occurrence relations + GraphStats from
    entity-linker clusters (``knowledge_graph.rs:100-336``).  The
    linker pass itself is order-sequential by reference semantics (run
    driver-side on the flat entity rows, like the linking queries); the
    arithmetic here is pure and unit-gated, and every derived column is
    re-checked by the oracle from the staged assignments."""
    ge = global_entities_from_clusters(clusters)
    rels = cooccurrence_relations(clusters)
    stats = corpus_graph_stats(ge, rels)

    ge_tbl = pa.table({
        "id": pa.array([e["id"] for e in ge], pa.string()),
        "canonical_name": pa.array([e["canonical_name"] for e in ge],
                                   pa.string()),
        "entity_type": pa.array([e["entity_type"] for e in ge],
                                pa.string()),
        "document_frequency": pa.array(
            [e["document_frequency"] for e in ge], pa.int64()),
        "total_mentions": pa.array([e["total_mentions"] for e in ge],
                                   pa.int64()),
        "aliases": pa.array([",".join(e["aliases"]) for e in ge],
                            pa.string()),
        "source_documents": pa.array(
            [",".join(e["source_documents"]) for e in ge], pa.string()),
        "n_source_docs": pa.array(
            [len(e["source_documents"]) for e in ge], pa.int64()),
        "confidence_score": pa.array([e["confidence_score"] for e in ge],
                                     pa.float64()),
        "importance_score": pa.array(
            [round(e["importance_score"], 8) for e in ge], pa.float64()),
    })
    rel_tbl = pa.table({
        "id": pa.array([r["id"] for r in rels], pa.string()),
        "source_entity_id": pa.array(
            [r["source_entity_id"] for r in rels], pa.string()),
        "target_entity_id": pa.array(
            [r["target_entity_id"] for r in rels], pa.string()),
        "relation_type": pa.array([r["relation_type"] for r in rels],
                                  pa.string()),
        "confidence": pa.array([round(r["confidence"], 8) for r in rels],
                               pa.float64()),
        "document_frequency": pa.array(
            [r["document_frequency"] for r in rels], pa.int64()),
        "source_documents": pa.array(
            [",".join(r["source_documents"]) for r in rels], pa.string()),
    })
    return ge_tbl, rel_tbl, stats


def corpus_stats_table(n_documents: int, total_extracted: int,
                       clusters: list[dict]) -> pa.Table:
    """One-row CorpusStats + GraphStats
    (``collection_processor.rs:34-102``, ``knowledge_graph.rs:293-336``)."""
    ge = global_entities_from_clusters(clusters)
    rels = cooccurrence_relations(clusters)
    gstats = corpus_graph_stats(ge, rels)
    row = corpus_stats_row(n_documents, total_extracted, ge, rels, gstats)
    cols: dict[str, pa.Array] = {}
    for k in ("documents_processed", "total_entities_extracted",
              "unique_entities_after_linking"):
        cols[k] = pa.array([row[k]], pa.int64())
    for k in ("cross_document_entity_ratio", "avg_entities_per_document",
              "avg_relations_per_document", "entity_confidence_avg",
              "relation_confidence_avg", "cross_document_consistency",
              "overall_quality_score"):
        cols[k] = pa.array([round(row[k], 8)], pa.float64())
    for k in ("total_entities", "total_relations",
              "cross_document_entities", "single_document_entities",
              "largest_component_size"):
        cols[k] = pa.array([gstats[k]], pa.int64())
    for k in ("avg_entity_connections", "graph_density"):
        cols[k] = pa.array([round(gstats[k], 8)], pa.float64())
    return pa.table(cols)
