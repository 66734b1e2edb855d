"""Pipeline validation — unit tests ported from the reference
(``evaluation/pipeline_validation.rs:595-680``)."""

import pyarrow as pa

# -------------------------------------------------- pipeline validation --


def _docs_ds(rows):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.string()),
        "doc_chars": pa.array([r[1] for r in rows], pa.int64())}))


def _chunks_ds(rows):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "chunk_id": pa.array([r[0] for r in rows], pa.string()),
        "doc_id": pa.array([r[1] for r in rows], pa.string()),
        "text": pa.array([r[2] for r in rows], pa.string())}))


def _mentions_ds(chunk_ids):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "chunk_id": pa.array(chunk_ids, pa.string()),
        "entity_id": pa.array([f"e{i}" for i in range(len(chunk_ids))],
                              pa.string())}))


def _entities_ds(rows):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "name": pa.array([r[0] for r in rows], pa.string()),
        "type": pa.array([r[1] for r in rows], pa.string()),
        "conf": pa.array([r[2] for r in rows], pa.float64()),
        "mention_count": pa.array([r[3] for r in rows], pa.int64())}))


def _triples_ds(rows):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "subj": pa.array([r[0] for r in rows], pa.string()),
        "pred": pa.array([r[1] for r in rows], pa.string()),
        "obj": pa.array([r[2] for r in rows], pa.string()),
        "conf": pa.array([r[3] for r in rows], pa.float64())}))


def _report_map(tbl):
    return {(p, n): (ok, v) for p, n, ok, v in
            zip(tbl.column("phase").to_pylist(), tbl.column("name").to_pylist(),
                tbl.column("passed").to_pylist(), tbl.column("value").to_pylist())}


def test_document_processing_validation(ray_session):
    # pipeline_validation.rs:601-628 — 41-char doc, 2 chunks covering 40
    # chars (97.6% ≥ 0.9): every doc-phase check passes
    from graphrag_rs_ray.pipelines.validation import pipeline_validation_report

    tbl = pipeline_validation_report(
        _docs_ds([("test", 41)]),
        _chunks_ds([("c1", "test", "This is test"),
                    ("c2", "test", "content with multiple words.")]),
        _mentions_ds(["c1"]),
        _entities_ds([("Alice", "person", 0.9, 1)]),
        _triples_ds([("Alice", "knows", "Alice", 0.8)]))
    m = _report_map(tbl)
    for check in ("document_not_empty", "chunks_created", "content_coverage",
                  "no_empty_chunks", "metadata_enrichment"):
        assert m[("Document Processing", check)][0], check
    assert m[("Document Processing", "chunks_count")][1] == 2.0
    assert abs(m[("Document Processing", "coverage_ratio")][1] - 40 / 41) < 1e-6


def test_entity_extraction_validation(ray_session):
    # pipeline_validation.rs:631-657
    from graphrag_rs_ray.pipelines.validation import pipeline_validation_report

    tbl = pipeline_validation_report(
        _docs_ds([("test", 23)]),
        _chunks_ds([("c1", "test", "Alice works at Stanford")]),
        _mentions_ds(["c1"]),
        _entities_ds([("Alice", "person", 0.9, 1)]),
        _triples_ds([("Alice", "works_at", "Alice", 0.9)]))
    m = _report_map(tbl)
    for check in ("entities_extracted", "confidence_scores_valid",
                  "entity_types_populated", "entity_names_valid",
                  "entity_mentions_valid"):
        assert m[("Entity Extraction", check)][0], check
    assert m[("Entity Extraction", "entities_count")][1] == 1.0
    assert abs(m[("Entity Extraction", "avg_confidence")][1] - 0.9) < 1e-9


def test_validation_detects_violations(ray_session):
    # corrupted graph: mention → missing chunk, triple → missing entity,
    # blank entity type, invalid confidence, empty chunk, poor coverage
    from graphrag_rs_ray.pipelines.validation import pipeline_validation_report

    tbl = pipeline_validation_report(
        _docs_ds([("d1", 100), ("d2", 50)]),
        _chunks_ds([("c1", "d1", "short"), ("c2", "d1", "   ")]),
        _mentions_ds(["c1", "missing_chunk"]),
        _entities_ds([("Alice", "person", 0.9, 2),
                      ("Bob", "", 1.5, 1)]),
        _triples_ds([("Alice", "knows", "Bob", 0.9),
                     ("Alice", "knows", "Ghost", 0.8),
                     ("Alice", "", "Bob", 0.7)]))
    m = _report_map(tbl)
    assert m[("Document Processing", "chunks_created")] == (False, 1.0)   # d2
    assert m[("Document Processing", "content_coverage")] == (False, 1.0)  # d1 8/100
    assert m[("Document Processing", "no_empty_chunks")] == (False, 1.0)
    assert m[("Entity Extraction", "confidence_scores_valid")] == (False, 1.0)
    assert m[("Entity Extraction", "entity_types_populated")] == (False, 1.0)
    assert m[("Entity Extraction", "entity_mentions_valid")] == (False, 1.0)
    assert m[("Relationship Extraction", "relationship_types_populated")] == (False, 1.0)
    assert m[("Relationship Extraction", "relationship_entities_exist")] == (False, 1.0)
    assert m[("Graph Construction", "graph_not_empty")][0]


def test_pipeline_report_rollup(ray_session):
    # pipeline_validation.rs:658-680 — all-green rollup: every check passes
    from graphrag_rs_ray.pipelines.validation import pipeline_validation_report
    import pyarrow.compute as pc

    tbl = pipeline_validation_report(
        _docs_ds([("test", 41)]),
        _chunks_ds([("c1", "test", "This is test"),
                    ("c2", "test", "content with multiple words.")]),
        _mentions_ds(["c1"]),
        _entities_ds([("Alice", "person", 0.9, 1),
                      ("Stanford", "organization", 0.8, 1)]),
        _triples_ds([("Alice", "works_at", "Stanford", 0.9)]))
    checks = tbl.filter(pc.equal(tbl.column("kind"), "check"))
    assert all(checks.column("passed").to_pylist())
