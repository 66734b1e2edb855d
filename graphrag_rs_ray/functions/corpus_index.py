"""Corpus-module kernels: graph-indexer extraction, document-collection
metadata, document concepts, and the corpus knowledge-graph arithmetic.

Reference (semantics only; re-expressed for Ray Data):
- ``graphrag-core/src/lightrag/graph_indexer.rs:62-131`` — window-based
  capitalized-phrase extraction + entity-type heuristics.
- ``graphrag-core/src/corpus/document_manager.rs:34-47,225-285`` —
  DocumentType mapping, content-hash dedup, language heuristic.
- ``graphrag-core/src/corpus/collection_processor.rs:245-360`` — quality
  filter, document concepts (5 regex patterns + context window), exact
  concept clustering.
- ``graphrag-core/src/corpus/knowledge_graph.rs:100-455`` — global
  entities, co-occurrence relations, importance scores, GraphStats,
  stack-"BFS" related-entity traversal.

Documented deviations (determinism; the reference iterates HashMaps):
- cluster / relation ids are assigned in sorted scan order, not map order;
- content hashes use blake2b (the reference's DefaultHasher is
  process-seeded and not portable);
- regex match offsets are Python codepoint offsets, not byte offsets
  (equal on the ASCII corpora both engines process).
"""

from __future__ import annotations

import hashlib
import math
import re

# ------------------------------------------------------------------ #
# graph_indexer.rs — entity extraction
# ------------------------------------------------------------------ #

DEFAULT_ENTITY_TYPES = ("person", "organization", "location", "other")


def guess_entity_type(text: str, entity_types=DEFAULT_ENTITY_TYPES) -> str:
    """Type heuristics (``graph_indexer.rs:110-131``): known-type
    substring first, then org suffixes, location keywords, short single
    word → person, else other.  Length checks are byte lengths."""
    low = text.lower()
    for et in entity_types:
        if et in low:
            return et
    if low.endswith(("company", "corp", "inc")):
        return "organization"
    if "city" in low or "country" in low or "state" in low:
        return "location"
    if len(text.split()) == 1 and len(text.encode("utf-8")) < 20:
        return "person"
    return "other"


def extract_from_text(text: str,
                      entity_types=DEFAULT_ENTITY_TYPES) -> list[dict]:
    """Stub graph-indexer extraction (``graph_indexer.rs:62-107``):
    3-word all-capitalized windows (conf 0.6, no length gate) scanned
    first, then single capitalized words with byte-length > 2
    (conf 0.5); ids ``entity_<k>`` number the PRE-dedup scan order;
    dedup keeps the first scan occurrence of each name (the reference's
    stable sort-by-name + consecutive dedup)."""
    words = text.split()
    entities: list[dict] = []
    eid = 0
    for i in range(max(len(words) - 2, 0)):
        w0, w1, w2 = words[i], words[i + 1], words[i + 2]
        if w0[:1].isupper() and w1[:1].isupper() and w2[:1].isupper():
            phrase = f"{w0} {w1} {w2}"
            entities.append({
                "entity_id": f"entity_{eid}", "name": phrase,
                "entity_type": guess_entity_type(phrase, entity_types),
                "confidence": 0.6})
            eid += 1
    for word in words:
        if len(word.encode("utf-8")) > 2 and word[:1].isupper():
            entities.append({
                "entity_id": f"entity_{eid}", "name": word,
                "entity_type": guess_entity_type(word, entity_types),
                "confidence": 0.5})
            eid += 1
    # stable sort by name bytes, keep first of each equal run
    entities.sort(key=lambda e: e["name"].encode("utf-8"))
    out: list[dict] = []
    for e in entities:
        if not out or out[-1]["name"] != e["name"]:
            out.append(e)
    return out


def quality_filter(entities: list[dict]) -> list[dict]:
    """Collection-processor quality gate
    (``collection_processor.rs:251-263``): confidence ≥ 0.3, name byte
    length ≥ 2, trimmed non-empty."""
    return [e for e in entities
            if e["confidence"] >= 0.3 and len(e["name"].encode()) >= 2
            and e["name"].strip()]


# ------------------------------------------------------------------ #
# document_manager.rs — collection metadata
# ------------------------------------------------------------------ #

_EXT_TYPES = {"txt": "text", "pdf": "pdf", "html": "html", "htm": "html",
              "md": "markdown", "markdown": "markdown", "json": "json",
              "xml": "xml"}

ENGLISH_INDICATORS = ("the", "and", "or", "but", "in", "on", "at", "to")


def document_type_from_extension(ext: str) -> str:
    """``document_manager.rs:34-47`` (lowercased extension match)."""
    return _EXT_TYPES.get(ext.lower(), "unknown")


def detect_language(content: str):
    """Substring-occurrence language heuristic
    (``document_manager.rs:267-285``): None below 10 bytes; English-
    indicator SUBSTRING hits (non-overlapping, the reference's
    ``matches().count()``) over the whitespace word count > 0.05 → "en",
    else "unknown"."""
    if len(content.encode("utf-8")) < 10:
        return None
    word_count = len(content.split())
    hits = sum(content.count(w) for w in ENGLISH_INDICATORS)
    if word_count > 0 and hits / word_count > 0.05:
        return "en"
    return "unknown"


def content_hash(content: str) -> str:
    """Deterministic stand-in for the reference's DefaultHasher
    (``document_manager.rs:257-264``) — blake2b-64 hex, "hash_" prefix."""
    return "hash_" + hashlib.blake2b(content.encode("utf-8"),
                                     digest_size=8).hexdigest()


# ------------------------------------------------------------------ #
# collection_processor.rs — document concepts
# ------------------------------------------------------------------ #

CONCEPT_PATTERNS = (
    r"\b[A-Z][a-z]+ [a-z]+\b",   # Title case phrases
    r"\b[A-Z][A-Z]+ [A-Z]+\b",   # Acronym phrases
    r"\b\w+ system\b",
    r"\b\w+ process\b",
    r"\b\w+ method\b",
)
_CONCEPT_RES = [re.compile(p) for p in CONCEPT_PATTERNS]


def extract_document_concepts(doc_id: str, text: str) -> list[dict]:
    """Per-document concepts (``collection_processor.rs:265-310``):
    non-overlapping matches per pattern in pattern order, sequential
    ``concept_<doc>_<k>`` ids, context = 100 chars starting 50 before
    the match, frequency 1 / confidence 0.7 constants."""
    concepts: list[dict] = []
    k = 0
    for pidx, rx in enumerate(_CONCEPT_RES):
        for m in rx.finditer(text):
            start = m.start()
            ctx_from = max(start - 50, 0)
            concepts.append({
                "concept_id": f"concept_{doc_id}_{k}",
                "text": m.group(0),
                "document_id": doc_id,
                "frequency": 1,
                "context": text[ctx_from:ctx_from + 100],
                "confidence": 0.7,
                "pattern_idx": pidx,
                "start": start,
                "length": m.end() - start,
            })
            k += 1
    return concepts


# ------------------------------------------------------------------ #
# knowledge_graph.rs — corpus KG arithmetic
# ------------------------------------------------------------------ #

def entity_importance(doc_frequency: int, total_mentions: int,
                      n_source_docs: int) -> float:
    """``knowledge_graph.rs:276-290``: weighted ln-scores over 3."""
    doc_freq_score = math.log(doc_frequency) + 1.0
    mention_score = math.log(total_mentions) + 1.0
    return (doc_freq_score * 0.4 + mention_score * 0.3
            + n_source_docs * 0.3) / 3.0


def global_entities_from_clusters(clusters: list[dict]) -> list[dict]:
    """GlobalEntity rows (``knowledge_graph.rs:148-184``): mention count
    = member count, distinct source documents (sorted; the reference
    collects a HashSet), distinct aliases (sorted), importance from
    cluster document_frequency."""
    out = []
    for c in clusters:
        docs = sorted({m["doc_id"] for m in c["members"]})
        aliases = sorted({m["name"] for m in c["members"]},
                         key=lambda s: s.encode())
        total_mentions = len(c["members"])
        out.append({
            "id": c["cluster_id"],
            "canonical_name": c["canonical_name"],
            "entity_type": c["entity_type"],
            "document_frequency": c["document_frequency"],
            "total_mentions": total_mentions,
            "aliases": aliases,
            "source_documents": docs,
            "confidence_score": c["confidence_score"],
            "importance_score": entity_importance(
                c["document_frequency"], total_mentions, len(docs)),
        })
    return out


def cooccurrence_relations(clusters: list[dict]) -> list[dict]:
    """Co-occurrence relations (``knowledge_graph.rs:186-254``): each
    document's entity list is the cluster-order multiset of clusters
    with a member in that document (a 2-member-in-one-doc cluster
    appears twice → faithful self-pairs); ordered (i<j) pairs keyed
    ``src_tgt``; first occurrence creates conf 0.7 / df 1, repeats add
    0.1 conf (cap 1.0), increment df and append the document.
    Documents are walked in sorted order (pinned; reference: HashMap)."""
    doc_lists: dict[str, list[str]] = {}
    for c in clusters:
        for m in c["members"]:
            doc_lists.setdefault(m["doc_id"], []).append(c["cluster_id"])
    relations: dict[str, dict] = {}
    counter = 0
    for doc_id in sorted(doc_lists, key=lambda s: str(s).encode()):
        ids = doc_lists[doc_id]
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                key = f"{ids[i]}_{ids[j]}"
                rel = relations.get(key)
                if rel is None:
                    relations[key] = {
                        "id": f"rel_{counter}",
                        "source_entity_id": ids[i],
                        "target_entity_id": ids[j],
                        "relation_type": "co_occurs",
                        "confidence": 0.7,
                        "document_frequency": 1,
                        "source_documents": [doc_id],
                    }
                    counter += 1
                else:
                    rel["document_frequency"] += 1
                    rel["source_documents"].append(doc_id)
                    rel["confidence"] = min(rel["confidence"] + 0.1, 1.0)
    return list(relations.values())


def corpus_graph_stats(global_entities: list[dict],
                       relations: list[dict]) -> dict:
    """GraphStats (``knowledge_graph.rs:293-336``): cross-document =
    df>1, avg connections = 2r/n, density over n(n-1)/2, and the
    reference's largest_component simplification (= node count)."""
    n = len(global_entities)
    r = len(relations)
    cross = sum(1 for e in global_entities if e["document_frequency"] > 1)
    stats = {
        "total_entities": n,
        "total_relations": r,
        "cross_document_entities": cross,
        "single_document_entities": n - cross,
        "avg_entity_connections": (2.0 * r / n) if n > 0 else 0.0,
        "graph_density": 0.0,
        "largest_component_size": n,
    }
    if n > 1:
        max_edges = n * (n - 1) // 2
        if max_edges > 0:
            stats["graph_density"] = r / max_edges
    return stats


def corpus_stats_row(n_documents: int, total_entities_extracted: int,
                     global_entities: list[dict],
                     relations: list[dict],
                     graph_stats: dict) -> dict:
    """CorpusStats + QualityMetrics arithmetic
    (``collection_processor.rs:58-102``): ratios guard on zero
    denominators, quality = 0.3/0.3/0.4 weighted combination with
    cross-document consistency = the cross-document entity ratio."""
    row = {
        "documents_processed": n_documents,
        "total_entities_extracted": total_entities_extracted,
        "unique_entities_after_linking": len(global_entities),
        "cross_document_entity_ratio": 0.0,
        "avg_entities_per_document": 0.0,
        "avg_relations_per_document": 0.0,
        "entity_confidence_avg": 0.0,
        "relation_confidence_avg": 0.0,
    }
    if total_entities_extracted > 0:
        row["cross_document_entity_ratio"] = (
            graph_stats["cross_document_entities"] / total_entities_extracted)
    if n_documents > 0:
        row["avg_entities_per_document"] = (
            total_entities_extracted / n_documents)
        # the processor phase tracks no relations (total_relations = 0)
        row["avg_relations_per_document"] = 0.0
    if global_entities:
        row["entity_confidence_avg"] = (
            sum(e["confidence_score"] for e in global_entities)
            / len(global_entities))
    if relations:
        row["relation_confidence_avg"] = (
            sum(r["confidence"] for r in relations) / len(relations))
    row["cross_document_consistency"] = row["cross_document_entity_ratio"]
    row["overall_quality_score"] = (
        row["entity_confidence_avg"] * 0.3
        + row["relation_confidence_avg"] * 0.3
        + row["cross_document_consistency"] * 0.4)
    return row


def query_entities(global_entities: list[dict], query: str,
                   limit: int | None = None) -> list[dict]:
    """Text query over the corpus KG (``knowledge_graph.rs:348-370``)
    + ``get_top_entities`` (``:402-407``): case-insensitive substring
    match on canonical name or any alias, sorted by importance
    descending.  Ties are pinned id-ascending (the reference's stable
    sort keeps HashMap order — nondeterministic)."""
    ql = query.lower()
    res = [e for e in global_entities
           if ql in e["canonical_name"].lower()
           or any(ql in a.lower() for a in e["aliases"])]
    res.sort(key=lambda e: (-e["importance_score"], e["id"]))
    return res if limit is None else res[:limit]


def find_related_entities(edges: list[tuple[str, str]], entity_id: str,
                          max_depth: int) -> list[str]:
    """The reference's stack-pop "BFS" (``knowledge_graph.rs:416-453``):
    DIRECTED edges only, a global visited set, depth gate checked at
    POP time — so a node discovered late on a deep path may block its
    own shallower expansion (faithful; same family as the tools.rs
    traverse quirk).  Neighbor expansion order is pinned to edge-list
    order.  Returns entity ids in discovery order."""
    adj: dict[str, list[str]] = {}
    for s, t in edges:
        adj.setdefault(s, []).append(t)
    related: list[str] = []
    visited = {entity_id}
    stack: list[tuple[str, int]] = [(entity_id, 0)]
    while stack:
        node, depth = stack.pop()
        if depth >= max_depth:
            continue
        for nb in adj.get(node, ()):
            if nb not in visited:
                visited.add(nb)
                stack.append((nb, depth + 1))
                related.append(nb)
    return related
