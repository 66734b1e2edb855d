"""Semantic entity-merging dataflow (``entity/semantic_merging.rs``):
candidate pair similarities are computed per-type distributed (exact at
threshold ≥ 0.7 — cross-type pairs cap at 0.7, strictly-greater never
fires); the greedy star-grouping pass is sequential by reference
semantics and runs on the collected entity table (bounded by the name
vocabulary; at web scale the blocked-linking device from
``stages/linking.py`` is the candidate-reduction pre-pass — documented,
with the substring-containment caveat: containment pairs that share no
word need a q-gram block).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.semantic_merging import (
    group_similar_entities,
    heuristic_merge_decision,
    merge_entities,
)
from ..stages.hashagg import hash_grouped_aggregate


def candidate_pairs(entities_ds, threshold: float = 0.7,
                    num_buckets: int = 16):
    """(a, b, name_sim, sim) rows for same-type pairs with
    sim > threshold, a < b by entity_id — one hash-bucketed pass per
    TYPE group (``semantic_merging.rs:57-88`` pair enumeration,
    order-free half)."""
    from ..functions.semantic_merging import string_similarity

    def per_bucket(t: pa.Table) -> pa.Table:
        # a hash bucket may hold SEVERAL types — partition first (the
        # same-type shortcut sim = ns·0.7 + 0.3 is only valid per type)
        by_type: dict[str, list] = {}
        for eid, name, typ in zip(t.column("entity_id").to_pylist(),
                                  t.column("name").to_pylist(),
                                  t.column("type").to_pylist()):
            by_type.setdefault(typ, []).append((eid, name))
        a_l, b_l, ns_l, s_l = [], [], [], []
        for typ in sorted(by_type):
            rows = sorted(by_type[typ])
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    ns = string_similarity(rows[i][1], rows[j][1])
                    sim = ns * 0.7 + 0.3
                    if sim > threshold:
                        a_l.append(rows[i][0])
                        b_l.append(rows[j][0])
                        ns_l.append(round(ns, 8))
                        s_l.append(round(sim, 8))
        return pa.table({"a": pa.array(a_l, pa.string()),
                         "b": pa.array(b_l, pa.string()),
                         "name_sim": pa.array(ns_l, pa.float64()),
                         "sim": pa.array(s_l, pa.float64())})

    return hash_grouped_aggregate(
        entities_ds.map_batches(
            lambda t: t.select(["entity_id", "name", "type"]),
            batch_format="pyarrow"),
        ["type"], per_bucket, num_buckets=num_buckets)


def merge_groups_table(entities: list[dict], threshold: float = 0.7):
    """Greedy grouping (sorted by entity_id) + decisions + merged
    entities.  Returns (assignments table with member order, groups
    table)."""
    ents = sorted(entities, key=lambda e: e["entity_id"])
    groups = group_similar_entities(ents, threshold)
    a_cols = {"entity_id": [], "group_id": [], "member_idx": []}
    g_cols = {k: [] for k in (
        "group_id", "n_entities", "should_merge", "confidence",
        "reasoning", "merged_name", "merged_description",
        "merged_confidence", "merged_mentions")}
    for group in groups:
        gid = group[0]["entity_id"]
        for idx, e in enumerate(group):
            a_cols["entity_id"].append(e["entity_id"])
            a_cols["group_id"].append(gid)
            a_cols["member_idx"].append(idx)
        d = heuristic_merge_decision(group)
        merged = merge_entities(group, d)
        g_cols["group_id"].append(gid)
        g_cols["n_entities"].append(len(group))
        g_cols["should_merge"].append(int(d["should_merge"]))
        g_cols["confidence"].append(round(d["confidence"], 8))
        g_cols["reasoning"].append(d["reasoning"])
        g_cols["merged_name"].append(d["merged_name"] or "")
        g_cols["merged_description"].append(d["merged_description"] or "")
        g_cols["merged_confidence"].append(
            round(merged["conf"], 8) if d["should_merge"] else 0.0)
        g_cols["merged_mentions"].append(
            merged["mention_count"] if d["should_merge"] else 0)
    assignments = pa.table({
        "entity_id": pa.array(a_cols["entity_id"], pa.string()),
        "group_id": pa.array(a_cols["group_id"], pa.string()),
        "member_idx": pa.array(a_cols["member_idx"], pa.int64())})
    groups_tbl = pa.table({
        "group_id": pa.array(g_cols["group_id"], pa.string()),
        "n_entities": pa.array(g_cols["n_entities"], pa.int64()),
        "should_merge": pa.array(g_cols["should_merge"], pa.int64()),
        "confidence": pa.array(g_cols["confidence"], pa.float64()),
        "reasoning": pa.array(g_cols["reasoning"], pa.string()),
        "merged_name": pa.array(g_cols["merged_name"], pa.string()),
        "merged_description": pa.array(g_cols["merged_description"],
                                       pa.string()),
        "merged_confidence": pa.array(g_cols["merged_confidence"],
                                      pa.float64()),
        "merged_mentions": pa.array(g_cols["merged_mentions"],
                                    pa.int64())})
    return assignments, groups_tbl
