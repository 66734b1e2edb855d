"""Corpus-module kernels + pipelines (graph_indexer.rs,
document_manager.rs, collection_processor.rs, knowledge_graph.rs)."""

import math

import pyarrow as pa
import pytest

from graphrag_rs_ray.functions.corpus_index import (
    content_hash,
    cooccurrence_relations,
    corpus_graph_stats,
    corpus_stats_row,
    detect_language,
    document_type_from_extension,
    entity_importance,
    extract_document_concepts,
    extract_from_text,
    find_related_entities,
    global_entities_from_clusters,
    guess_entity_type,
    quality_filter,
)


# ------------------------------------------------------------------ #
# graph_indexer.rs
# ------------------------------------------------------------------ #

def test_basic_extraction_reference_case():
    # graph_indexer.rs:146-158 — the reference's own test text
    ents = extract_from_text(
        "John Smith works at Microsoft Corporation in Seattle.")
    assert ents  # reference asserts non-empty
    by_name = {e["name"]: e for e in ents}
    # no 3-word all-capitalized window in this sentence → all singles
    assert set(by_name) == {"John", "Smith", "Microsoft", "Corporation",
                            "Seattle."}
    assert all(e["confidence"] == 0.5 for e in ents)
    # ids number the pre-dedup scan order (singles after 0 windows)
    assert by_name["John"]["entity_id"] == "entity_0"
    assert by_name["Seattle."]["entity_id"] == "entity_4"
    # "corporation" has no org suffix/contains hit → single short word
    assert by_name["Corporation"]["entity_type"] == "person"


def test_window_extraction_and_types():
    ents = extract_from_text("New York City Hall is big")
    names = {e["name"]: e for e in ents}
    assert names["New York City"]["confidence"] == 0.6
    assert names["New York City"]["entity_type"] == "location"  # 'city'
    assert names["York City Hall"]["entity_type"] == "location"
    # singles: New/York/City/Hall (len>2); City→location, rest person
    assert names["City"]["entity_type"] == "location"
    assert names["Hall"]["entity_type"] == "person"
    # window ids precede single ids
    assert names["New York City"]["entity_id"] == "entity_0"
    assert names["York City Hall"]["entity_id"] == "entity_1"
    assert names["New"]["entity_id"] == "entity_2"


def test_dedup_keeps_first_scan_occurrence():
    ents = extract_from_text("Acme Inc Rocks and Acme Inc Rocks again")
    # phrase appears twice in windows; first occurrence (entity_0) wins
    phrases = [e for e in ents if e["name"] == "Acme Inc Rocks"]
    assert len(phrases) == 1
    assert phrases[0]["entity_id"] == "entity_0"
    # the endswith check is on the FULL phrase: "acme inc rocks" ends
    # with "rocks", contains no type keyword, 3 words → other
    assert phrases[0]["entity_type"] == "other"


def test_guess_entity_type_branches():
    assert guess_entity_type("Great Person Here") == "person"  # contains
    assert guess_entity_type("Acme Corp") == "organization"
    assert guess_entity_type("TechCompany") == "organization"
    assert guess_entity_type("Kansas State") == "location"
    assert guess_entity_type("Bob") == "person"
    assert guess_entity_type("B" * 20) == "other"  # single but len>=20
    assert guess_entity_type("Two Words") == "other"
    # contains-check precedence over suffix
    assert guess_entity_type("Locationical Corp") == "location"


def test_two_word_text_no_windows():
    ents = extract_from_text("Hello World")
    assert {e["name"] for e in ents} == {"Hello", "World"}


def test_quality_filter():
    ents = [
        {"name": "OK", "confidence": 0.5},
        {"name": "x", "confidence": 0.5},        # byte len 1
        {"name": "low", "confidence": 0.2},      # conf < 0.3
        {"name": "  ", "confidence": 0.9},       # trimmed empty
    ]
    assert [e["name"] for e in quality_filter(ents)] == ["OK"]


# ------------------------------------------------------------------ #
# document_manager.rs
# ------------------------------------------------------------------ #

def test_document_type_from_extension():
    assert document_type_from_extension("TXT") == "text"
    assert document_type_from_extension("htm") == "html"
    assert document_type_from_extension("markdown") == "markdown"
    assert document_type_from_extension("docx") == "unknown"


def test_detect_language():
    assert detect_language("short") is None            # < 10 bytes
    # substring hits: the×2, at×3 (cat/sat/mat), on×1, to×1 → 7/7 > 0.05
    assert detect_language("the cat sat on the mat today") == "en"
    assert detect_language("zzz qqq www xxx yyy zzz qqq www xxx yyy "
                           "zzz qqq www xxx yyy zzz qqq www xxx yyy "
                           "zzz") == "unknown"


def test_content_hash_deterministic():
    assert content_hash("abc") == content_hash("abc")
    assert content_hash("abc") != content_hash("abd")
    assert content_hash("abc").startswith("hash_")


# ------------------------------------------------------------------ #
# collection_processor.rs — concepts
# ------------------------------------------------------------------ #

def test_document_concepts_patterns_and_ids():
    text = ("The Data system uses a new process method daily. "
            "NASA HQ Team works.")
    cs = extract_document_concepts("d1", text)
    got = [(c["concept_id"], c["text"], c["pattern_idx"]) for c in cs]
    assert got == [
        ("concept_d1_0", "Data system", 0),
        ("concept_d1_1", "Team works", 0),
        ("concept_d1_2", "NASA HQ", 1),
        ("concept_d1_3", "Data system", 2),
        ("concept_d1_4", "new process", 3),
        ("concept_d1_5", "process method", 4),
    ]
    # context = 100 chars from max(start-50, 0)
    c0 = cs[0]
    assert c0["context"] == text[max(c0["start"] - 50, 0):][:100]
    assert c0["frequency"] == 1 and c0["confidence"] == 0.7


# ------------------------------------------------------------------ #
# knowledge_graph.rs
# ------------------------------------------------------------------ #

def _mk_cluster(cid, name, members, conf=1.0, df=None):
    return {"cluster_id": cid, "canonical_name": name,
            "entity_type": "person", "confidence_score": conf,
            "document_frequency": df if df is not None else len(members),
            "members": members}


def test_global_entity_arithmetic():
    c = _mk_cluster("c0", "Alice", [
        {"doc_id": "d1", "name": "Alice"},
        {"doc_id": "d2", "name": "alice"},
        {"doc_id": "d1", "name": "Alice"},
    ], conf=0.85, df=2)
    [ge] = global_entities_from_clusters([c])
    assert ge["total_mentions"] == 3
    assert ge["source_documents"] == ["d1", "d2"]
    assert ge["aliases"] == ["Alice", "alice"]
    expected = ((math.log(2) + 1) * 0.4 + (math.log(3) + 1) * 0.3
                + 2 * 0.3) / 3.0
    assert ge["importance_score"] == pytest.approx(expected)


def test_entity_importance_formula():
    assert entity_importance(1, 1, 1) == pytest.approx(
        (1.0 * 0.4 + 1.0 * 0.3 + 0.3) / 3.0)


def test_cooccurrence_relations_and_self_pair():
    # d1: [c0, c0, c1]  → pairs (c0,c0) (c0,c1) (c0,c1)
    # d2: [c0, c1]      → pair  (c0,c1)
    clusters = [
        _mk_cluster("c0", "A", [{"doc_id": "d1", "name": "A"},
                                {"doc_id": "d1", "name": "A2"},
                                {"doc_id": "d2", "name": "A"}]),
        _mk_cluster("c1", "B", [{"doc_id": "d1", "name": "B"},
                                {"doc_id": "d2", "name": "B"}]),
    ]
    rels = {(r["source_entity_id"], r["target_entity_id"]): r
            for r in cooccurrence_relations(clusters)}
    self_pair = rels[("c0", "c0")]
    assert self_pair["confidence"] == 0.7
    assert self_pair["document_frequency"] == 1
    ab = rels[("c0", "c1")]
    # three occurrences: twice in d1 (both c0 copies), once in d2
    assert ab["document_frequency"] == 3
    assert ab["confidence"] == pytest.approx(0.9)
    assert ab["source_documents"] == ["d1", "d1", "d2"]
    # ids in pinned scan order: (c0,c0) first, then (c0,c1)
    assert self_pair["id"] == "rel_0" and ab["id"] == "rel_1"


def test_cooccurrence_confidence_caps_at_one():
    members = [{"doc_id": f"d{i}", "name": "A"} for i in range(6)]
    clusters = [
        _mk_cluster("c0", "A", members),
        _mk_cluster("c1", "B", [{"doc_id": f"d{i}", "name": "B"}
                                for i in range(6)]),
    ]
    [rel] = cooccurrence_relations(clusters)
    assert rel["document_frequency"] == 6
    assert rel["confidence"] == 1.0  # 0.7 + 5*0.1 capped


def test_corpus_graph_stats():
    ge = [{"document_frequency": 2}, {"document_frequency": 1},
          {"document_frequency": 3}]
    rels = [1, 2]
    s = corpus_graph_stats(ge, rels)
    assert s["total_entities"] == 3 and s["total_relations"] == 2
    assert s["cross_document_entities"] == 2
    assert s["single_document_entities"] == 1
    assert s["avg_entity_connections"] == pytest.approx(4 / 3)
    assert s["graph_density"] == pytest.approx(2 / 3)
    # the reference's simplification: largest component = node count
    assert s["largest_component_size"] == 3


def test_corpus_stats_row_weights():
    ge = [{"confidence_score": 1.0, "document_frequency": 2},
          {"confidence_score": 0.85, "document_frequency": 1}]
    rels = [{"confidence": 0.7}, {"confidence": 0.9}]
    gs = corpus_graph_stats(ge, rels)
    row = corpus_stats_row(4, 10, ge, rels, gs)
    assert row["documents_processed"] == 4
    assert row["cross_document_entity_ratio"] == pytest.approx(0.1)
    assert row["avg_entities_per_document"] == pytest.approx(2.5)
    assert row["avg_relations_per_document"] == 0.0  # phase tracks none
    assert row["entity_confidence_avg"] == pytest.approx(0.925)
    assert row["relation_confidence_avg"] == pytest.approx(0.8)
    assert row["overall_quality_score"] == pytest.approx(
        0.925 * 0.3 + 0.8 * 0.3 + 0.1 * 0.4)


def test_find_related_entities_stack_semantics():
    # a → b → c → d, a → e;  max_depth 2
    edges = [("a", "b"), ("a", "e"), ("b", "c"), ("c", "d")]
    # stack: push b, e (discovery order b, e); pop e (depth1): no out;
    # pop b (depth1): discover c; pop c (depth2): gated → d never found
    assert find_related_entities(edges, "a", 2) == ["b", "e", "c"]
    # directed only: no inbound traversal
    assert find_related_entities(edges, "c", 3) == ["d"]
    assert find_related_entities(edges, "zz", 3) == []


def test_find_related_depth_gate_at_pop():
    # cycle back to a shallow node must not re-admit it (global visited)
    edges = [("a", "b"), ("b", "a"), ("b", "c")]
    assert find_related_entities(edges, "a", 3) == ["b", "c"]


# ------------------------------------------------------------------ #
# pipelines (tiny end-to-end over in-memory data)
# ------------------------------------------------------------------ #

DOCS = pa.table({
    "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
    "text": pa.array([
        "the cat sat on the mat today and then some more text here",
        "zz qq ww ee rr tt yy uu ii oo pp aa ss dd ff gg hh jj kk ll",
        "the cat sat on the mat today and then some more text here",
        "tiny",
    ], pa.string()),
})


def test_collection_table(ray_session):
    import ray.data as rd
    from graphrag_rs_ray.pipelines.corpus import collection_table
    rows = {r["doc_id"]: r
            for r in collection_table(rd.from_arrow(DOCS)).take_all()}
    assert rows[0]["document_type"] == "text"     # .txt
    assert rows[1]["document_type"] == "pdf"
    assert rows[3]["document_type"] == "markdown"  # .md
    assert rows[0]["path"] == "corpus/doc_0.txt"
    assert rows[0]["title"] == "doc_0"
    assert rows[0]["language"] == "en"
    assert rows[1]["language"] == "unknown"
    assert rows[3]["language"] is None             # < 10 bytes
    assert rows[0]["size_bytes"] == len(DOCS.column("text")[0].as_py())
    # doc 2 duplicates doc 0 (same text) — first wins
    assert not rows[0]["is_duplicate"] and rows[0]["dup_of"] is None
    assert rows[2]["is_duplicate"] and rows[2]["dup_of"] == 0


def test_corpus_pipelines_end_to_end(ray_session):
    import ray.data as rd
    from graphrag_rs_ray.pipelines.corpus import (
        concept_cluster_table, corpus_concepts, corpus_entities,
        corpus_kg_tables)
    from graphrag_rs_ray.functions.entity_linker import link_entities

    pages = rd.from_arrow(pa.table({
        "doc_id": pa.array(["d1", "d2"], pa.string()),
        "text": pa.array([
            "Alice Smith Company met Bob Jones at the Acme Data system office.",
            "Alice Smith runs the review process with Carol.",
        ], pa.string())}))
    ents = corpus_entities(pages).take_all()
    assert any(e["name"] == "Alice Smith Company" for e in ents)  # window
    assert all(e["entity_id"].startswith(("d1_entity_", "d2_entity_"))
               for e in ents)

    concepts = corpus_concepts(pages)
    ctbl = concept_cluster_table(concepts).take_all()
    canon = [c["canonical_text"] for c in ctbl]
    assert canon == sorted(canon)
    assert any(c == "data system" for c in canon)

    flat = [{"doc_id": e["doc_id"], "local_entity_id": e["entity_id"],
             "name": e["name"]} for e in ents]
    flat.sort(key=lambda r: (r["doc_id"], r["local_entity_id"]))
    clusters, _ = link_entities(flat, "hybrid")
    ge, rels, stats = corpus_kg_tables(clusters)
    assert ge.num_rows == len(clusters)
    assert stats["total_entities"] == ge.num_rows
    assert stats["largest_component_size"] == ge.num_rows
    if rels.num_rows:
        assert rels.column("relation_type").to_pylist()[0] == "co_occurs"
