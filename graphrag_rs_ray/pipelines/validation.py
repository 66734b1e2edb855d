"""Pipeline phase validation — distributed port of the reference's
evaluation framework (``graphrag-core/src/evaluation/pipeline_validation.rs``).

The reference validates ONE document / one in-memory graph at a time
(``DocumentProcessingValidator::validate(document, chunks)`` etc.).  Here
every check is re-expressed as a corpus-level aggregate over the pipeline's
Datasets — the per-item predicate is identical; a phase check passes when
NO item violates it (the natural distributed reading of "all per-item
validations passed").  Check names, thresholds (coverage ≥ 0.9, entity
density 0.1–10 per chunk, connectivity > 0.1) and conditional emission
follow the reference line-by-line (cited per check below).

Output: one Arrow table, one row per check/metric:

    phase   — Document Processing | Entity Extraction |
              Relationship Extraction | Graph Construction
    name    — check/metric name (reference's snake_case names)
    kind    — 'check' or 'metric'
    passed  — check verdict (metrics: always true)
    value   — violation count for counts-style checks; the measured
              ratio for ratio-style checks/metrics (round 8 — ratio
              summation order is engine-dependent)

Scale notes: per-document rollups are hash-bucketed aggregates; membership
checks (mention→chunk, triple endpoint→entity) are ``bucketed_join`` left
joins (no broadcast of the large side); the driver only ever holds the
per-batch partial-count rows (one per block) and the final ~30-row report.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.hashagg import (
    bucketed_join,
    grouped_arrow_agg,
    hash_grouped_aggregate,
)


def _sum_partials(ds, cols: list[str]) -> dict[str, float]:
    """Reduce per-batch partial-count rows (one row per block) driver-side."""
    totals = {c: 0.0 for c in cols}
    for b in ds.iter_batches(batch_format="pyarrow"):
        for c in cols:
            s = pc.sum(b.column(c)).as_py()
            if s is not None:
                totals[c] += s
    return totals


def _r8(x: float) -> float:
    return round(float(x), 8)


def _doc_phase(docs_ds, chunks_ds, num_buckets: int):
    """``pipeline_validation.rs:45-152`` — per-document checks 1-5,
    aggregated: a check's value is the number of violating documents /
    chunks, metrics are the corpus versions of the reference's."""
    per_doc = hash_grouped_aggregate(
        chunks_ds.map_batches(
            lambda t: pa.table({
                "doc_id": t.column("doc_id"),
                "c_chars": pc.utf8_length(t.column("text")).cast(pa.int64()),
                "c_empty": pc.cast(pc.equal(pc.utf8_length(
                    pc.utf8_trim_whitespace(t.column("text"))), 0), pa.int64()),
                "c_meta": pc.cast(t.column("has_metadata"), pa.int64())
                if "has_metadata" in t.column_names
                else pa.array([0] * t.num_rows, pa.int64()),
            }), batch_format="pyarrow"),
        ["doc_id"],
        grouped_arrow_agg(["doc_id"],
                          [("c_chars", "sum"), ("c_chars", "count"),
                           ("c_empty", "sum"), ("c_meta", "sum")],
                          rename=["doc_id", "chunk_chars", "n_chunks",
                                  "n_empty", "n_meta"]),
        num_buckets=num_buckets)

    joined = bucketed_join(
        docs_ds.map_batches(
            lambda t: pa.table({"doc_id": t.column("doc_id"),
                                "doc_chars": t.column("doc_chars")}),
            batch_format="pyarrow"),
        per_doc, on=["doc_id"], num_buckets=num_buckets, how="left")

    def partials(t: pa.Table) -> pa.Table:
        n_chunks = pc.coalesce(t.column("n_chunks"), pa.scalar(0)).combine_chunks()
        chunk_chars = pc.coalesce(t.column("chunk_chars"), pa.scalar(0))
        doc_chars = t.column("doc_chars")
        has_chunks = pc.greater(n_chunks, 0)
        # coverage check only where chunks exist (rs:77-90)
        cov_bad = pc.and_(has_chunks, pc.less(
            pc.divide(pc.cast(chunk_chars, pa.float64()),
                      pc.cast(pc.max_element_wise(doc_chars, 1), pa.float64())),
            0.9))
        row = {
            "n_docs": t.num_rows,
            "n_empty_docs": pc.sum(pc.cast(pc.equal(doc_chars, 0), pa.int64())).as_py() or 0,
            "n_docs_without_chunks": pc.sum(pc.cast(pc.invert(has_chunks), pa.int64())).as_py() or 0,
            "n_docs_below_coverage": pc.sum(pc.cast(cov_bad, pa.int64())).as_py() or 0,
            "n_empty_chunks": pc.sum(pc.coalesce(t.column("n_empty"), pa.scalar(0))).as_py() or 0,
            "n_meta_chunks": pc.sum(pc.coalesce(t.column("n_meta"), pa.scalar(0))).as_py() or 0,
            "n_chunks": pc.sum(n_chunks).as_py() or 0,
            "chunk_chars": pc.sum(chunk_chars).as_py() or 0,
            "doc_chars": pc.sum(doc_chars).as_py() or 0,
        }
        return pa.table({k: pa.array([v], pa.int64()) for k, v in row.items()})

    c = _sum_partials(joined.map_batches(partials, batch_format="pyarrow"),
                      ["n_docs", "n_empty_docs", "n_docs_without_chunks",
                       "n_docs_below_coverage", "n_empty_chunks",
                       "n_meta_chunks", "n_chunks", "chunk_chars", "doc_chars"])

    rows = [
        # rs:51-61 document_not_empty
        ("check", "document_not_empty", c["n_empty_docs"] == 0, c["n_empty_docs"]),
        # rs:63-74 chunks_created
        ("check", "chunks_created", c["n_docs_without_chunks"] == 0,
         c["n_docs_without_chunks"]),
        # rs:77-90 content_coverage ≥ 0.9
        ("check", "content_coverage", c["n_docs_below_coverage"] == 0,
         c["n_docs_below_coverage"]),
        # rs:92-104 no_empty_chunks
        ("check", "no_empty_chunks", c["n_empty_chunks"] == 0, c["n_empty_chunks"]),
        # rs:106-135 metadata_enrichment — optional, always passes
        ("check", "metadata_enrichment", True,
         _r8(c["n_meta_chunks"] / c["n_chunks"]) if c["n_chunks"] else 0.0),
        # rs:89,137-141 metrics (corpus-level)
        ("metric", "coverage_ratio",
         True, _r8(c["chunk_chars"] / c["doc_chars"]) if c["doc_chars"] else 0.0),
        ("metric", "chunks_count", True, c["n_chunks"]),
        ("metric", "avg_chunk_size", True,
         _r8(c["chunk_chars"] / c["n_chunks"]) if c["n_chunks"] else 0.0),
    ]
    return [("Document Processing", k, n, p, float(v)) for k, n, p, v in rows], c


def _entity_phase(chunks_ds, mentions_ds, entities_ds, num_buckets: int):
    """``pipeline_validation.rs:160-277``."""
    ent_part = entities_ds.map_batches(
        lambda t: pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "bad_conf": pa.array([pc.sum(pc.cast(pc.or_(
                pc.less(t.column("conf"), 0.0),
                pc.greater(t.column("conf"), 1.0)), pa.int64())).as_py() or 0],
                pa.int64()),
            "no_type": pa.array([pc.sum(pc.cast(pc.equal(
                t.column("type"), ""), pa.int64())).as_py() or 0], pa.int64()),
            "no_name": pa.array([pc.sum(pc.cast(pc.equal(pc.utf8_trim_whitespace(
                t.column("name")), ""), pa.int64())).as_py() or 0], pa.int64()),
            "conf_sum": pa.array([pc.sum(pc.cast(t.column("conf"),
                                                 pa.float64())).as_py() or 0.0],
                                 pa.float64()),
            "mention_sum": pa.array([pc.sum(t.column("mention_count")).as_py() or 0],
                                    pa.int64()),
        }), batch_format="pyarrow")
    e = _sum_partials(ent_part, ["n", "bad_conf", "no_type", "no_name",
                                 "conf_sum", "mention_sum"])

    # mention → chunk referential check (rs:224-248): bucketed left join
    chunk_keys = chunks_ds.map_batches(
        lambda t: pa.table({"chunk_id": t.column("chunk_id"),
                            "_present": pa.array([1] * t.num_rows, pa.int8())}),
        batch_format="pyarrow")
    m_joined = bucketed_join(
        mentions_ds.map_batches(
            lambda t: pa.table({"chunk_id": t.column("chunk_id")}),
            batch_format="pyarrow"),
        chunk_keys, on=["chunk_id"], num_buckets=num_buckets, how="left")
    bad_mentions = _sum_partials(
        m_joined.map_batches(
            lambda t: pa.table({"bad": pa.array(
                [pc.sum(pc.cast(pc.is_null(t.column("_present")),
                                pa.int64())).as_py() or 0], pa.int64())}),
            batch_format="pyarrow"), ["bad"])["bad"]

    n = e["n"]
    rows = [
        ("check", "entities_extracted", n > 0, n),                    # rs:166-176
        ("check", "confidence_scores_valid", e["bad_conf"] == 0, e["bad_conf"]),
        ("check", "entity_types_populated", e["no_type"] == 0, e["no_type"]),
        ("check", "entity_names_valid", e["no_name"] == 0, e["no_name"]),
        ("check", "entity_mentions_valid", bad_mentions == 0, bad_mentions),
        ("metric", "entities_count", True, n),                        # rs:251
    ]
    if n > 0:                                                         # rs:252-259
        rows.append(("metric", "avg_confidence", True, _r8(e["conf_sum"] / n)))
        rows.append(("metric", "avg_mentions_per_entity", True,
                     _r8(e["mention_sum"] / n)))
    return [("Entity Extraction", k, nm, p, float(v)) for k, nm, p, v in rows], e


def _rel_phase(entities_ds, triples_ds, n_entities: float, num_buckets: int):
    """``pipeline_validation.rs:285-387``."""
    tri_part = triples_ds.map_batches(
        lambda t: pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "bad_conf": pa.array([pc.sum(pc.cast(pc.or_(
                pc.less(t.column("conf"), 0.0),
                pc.greater(t.column("conf"), 1.0)), pa.int64())).as_py() or 0],
                pa.int64()),
            "no_type": pa.array([pc.sum(pc.cast(pc.equal(
                t.column("pred"), ""), pa.int64())).as_py() or 0], pa.int64()),
            "conf_sum": pa.array([pc.sum(pc.cast(t.column("conf"),
                                                 pa.float64())).as_py() or 0.0],
                                 pa.float64()),
        }), batch_format="pyarrow")
    r = _sum_partials(tri_part, ["n", "bad_conf", "no_type", "conf_sum"])

    # endpoint existence (rs:342-359): explode (subj, obj) → left join on
    # the entity NAME set (triple endpoints are canonical names), count
    # triples with ≥1 missing endpoint once
    def explode(t: pa.Table) -> pa.Table:
        rid = pc.binary_join_element_wise(
            t.column("subj").cast(pa.string()), t.column("pred").cast(pa.string()),
            t.column("obj").cast(pa.string()), "\x1f")
        return pa.concat_tables([
            pa.table({"rid": rid, "name": t.column("subj").cast(pa.string())}),
            pa.table({"rid": rid, "name": t.column("obj").cast(pa.string())})])

    name_keys = entities_ds.map_batches(
        lambda t: pa.table({"name": t.column("name"),
                            "_present": pa.array([1] * t.num_rows, pa.int8())}),
        batch_format="pyarrow")
    ends = bucketed_join(
        triples_ds.map_batches(explode, batch_format="pyarrow"),
        name_keys, on=["name"], num_buckets=num_buckets, how="left")
    per_rid = hash_grouped_aggregate(
        ends.map_batches(
            lambda t: pa.table({
                "rid": t.column("rid"),
                "miss": pc.cast(pc.is_null(t.column("_present")), pa.int64())}),
            batch_format="pyarrow"),
        ["rid"],
        grouped_arrow_agg(["rid"], [("miss", "max")], rename=["rid", "miss"]),
        num_buckets=num_buckets)
    orphans = _sum_partials(
        per_rid.map_batches(
            lambda t: pa.table({"o": pa.array([pc.sum(t.column("miss")).as_py()
                                               or 0], pa.int64())}),
            batch_format="pyarrow"), ["o"])["o"]

    n = r["n"]
    rows = []
    if n_entities > 0:                                               # rs:291-308
        rows.append(("check", "relationships_extracted", n > 0, n))
    rows += [
        ("check", "relationship_confidence_valid", r["bad_conf"] == 0,
         r["bad_conf"]),                                             # rs:311-326
        ("check", "relationship_types_populated", r["no_type"] == 0,
         r["no_type"]),                                              # rs:329-340
        ("check", "relationship_entities_exist", orphans == 0, orphans),
        ("metric", "relationships_count", True, n),                  # rs:366
    ]
    if n_entities > 0:                                               # rs:367-371
        rows.append(("metric", "relationships_per_entity", True,
                     _r8(n / n_entities)))
    if n > 0:                                                        # rs:372-376
        rows.append(("metric", "avg_relationship_confidence", True,
                     _r8(r["conf_sum"] / n)))
    return [("Relationship Extraction", k, nm, p, float(v))
            for k, nm, p, v in rows], r


def _graph_phase(n_docs, n_chunks, n_entities, n_rels):
    """``pipeline_validation.rs:395-484`` (pure arithmetic over counts)."""
    rows = [("check", "graph_not_empty", n_entities > 0 or n_docs > 0,
             n_entities + n_docs)]                                   # rs:406-416
    if n_chunks > 0:                                                 # rs:419-443
        epc = n_entities / n_chunks
        rows.append(("check", "entity_chunk_ratio_reasonable",
                     0.1 <= epc <= 10.0, _r8(epc)))
    if n_entities > 1:                                               # rs:446-467
        conn = n_rels / n_entities
        rows.append(("check", "graph_connectivity", conn > 0.1, _r8(conn)))
    rows += [("metric", "documents", True, n_docs),                  # rs:470-473
             ("metric", "chunks", True, n_chunks),
             ("metric", "entities", True, n_entities),
             ("metric", "relationships", True, n_rels)]
    if n_chunks > 0:
        rows.append(("metric", "entities_per_chunk", True,
                     _r8(n_entities / n_chunks)))
    if n_entities > 1:
        rows.append(("metric", "connectivity", True, _r8(n_rels / n_entities)))
    return [("Graph Construction", k, nm, p, float(v)) for k, nm, p, v in rows]


def pipeline_validation_report(docs_ds, chunks_ds, mentions_ds, entities_ds,
                               triples_ds, num_buckets: int = 16) -> pa.Table:
    """Full four-phase validation report
    (``PipelineValidationReport::from_phases``, rs:489-534) as one table.

    ``docs_ds``: (doc_id, doc_chars) · ``chunks_ds``: (chunk_id, doc_id,
    text[, has_metadata]) · ``mentions_ds``: mention rows (chunk_id, …) ·
    ``entities_ds``: canonical entities (name, type, conf, mention_count)
    · ``triples_ds``: deduped triples (subj, pred, obj, conf)."""
    doc_rows, dc = _doc_phase(docs_ds, chunks_ds, num_buckets)
    ent_rows, ec = _entity_phase(chunks_ds, mentions_ds, entities_ds,
                                 num_buckets)
    rel_rows, rc = _rel_phase(entities_ds, triples_ds, ec["n"], num_buckets)
    graph_rows = _graph_phase(dc["n_docs"], dc["n_chunks"], ec["n"], rc["n"])
    rows = doc_rows + ent_rows + rel_rows + graph_rows
    return pa.table({
        "phase": pa.array([r[0] for r in rows], pa.string()),
        "kind": pa.array([r[1] for r in rows], pa.string()),
        "name": pa.array([r[2] for r in rows], pa.string()),
        "passed": pa.array([bool(r[3]) for r in rows], pa.bool_()),
        "value": pa.array([float(r[4]) for r in rows], pa.float64()),
    })
