"""Canonicalization + dedup aggregates, two-phase (combiner → groupby).

Exact-tier canonicalization is a ``groupby(entity_id)`` merge — possible
without any join because entity ids are content-derived
(``{TYPE}_{normalized_name}``).  Merge semantics follow the reference:
max confidence, summed mentions (``entity/mod.rs:767-788``,
``graph/mod.rs:210-232``), canonical display name = most frequent, ties →
longest (``corpus/entity_linker.rs:468-481``).

Skew design (SURVEY §4): both merges are associative, so each runs as a
per-batch PARTIAL aggregate inside ``map_batches`` (pyarrow ``group_by``,
no shuffle) followed by a global ``groupby`` over the already-collapsed
partials — a hub entity contributes ONE row per block to the shuffle
instead of one row per mention, which is the salted-combine pattern without
needing an explicit salt column.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def partial_entity_agg(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: collapse entity rows to one row per
    (entity_id, name) with summed mentions / max conf / row count."""
    g = batch.group_by(["entity_id", "name", "type"]).aggregate([
        ("conf", "max"), ("mention_count", "sum"), ("chunk_id", "count"),
    ])
    return g.rename_columns(["entity_id", "name", "type", "conf", "mention_count", "name_count"])


def entity_bucket_merge(t: pa.Table) -> pa.Table:
    """Vectorized per-bucket entity merge (pyarrow, no per-key Python):
    canonical name by (total count, length in code points, lexicographic)
    vote (= ``functions/similarity.select_canonical_name`` semantics), max
    conf, summed mentions, output sorted by entity_id.  The type comes
    from the canonical name's row; ids are ``{TYPE}_{name}`` and links
    never cross types, so one id carries one type."""
    per_name = t.group_by(["entity_id", "name", "type"],
                          use_threads=False).aggregate([
        ("conf", "max"), ("mention_count", "sum"), ("name_count", "sum")])
    per_name = per_name.append_column(
        "name_len", pc.utf8_length(per_name.column("name")))
    ranked = per_name.sort_by([
        ("entity_id", "ascending"), ("name_count_sum", "descending"),
        ("name_len", "descending"), ("name", "descending")])
    out = ranked.group_by("entity_id", use_threads=False).aggregate([
        ("name", "first"), ("type", "first"), ("conf_max", "max"),
        ("mention_count_sum", "sum")]).sort_by("entity_id")
    return pa.table({
        "entity_id": out.column("entity_id").cast(pa.string()),
        "name": out.column("name_first").cast(pa.string()),
        "type": out.column("type_first").cast(pa.string()),
        "conf": out.column("conf_max_max").cast(pa.float32()),
        "mention_count": out.column("mention_count_sum_sum").cast(pa.int64()),
    })


def partial_triple_agg(batch: pa.Table) -> pa.Table:
    """Per-batch combiner for triples: one row per (subj, pred, obj) with
    max conf, occurrence count, and a deterministic sample context
    (min chunk_id)."""
    g = batch.group_by(["subj", "pred", "obj"]).aggregate([
        ("conf", "max"), ("chunk_id", "count"), ("chunk_id", "min"),
    ])
    return g.rename_columns(["subj", "pred", "obj", "conf", "n_contexts", "context_sample"])
