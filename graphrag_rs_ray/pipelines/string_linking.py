"""String-similarity entity-linking dataflow
(``entity/string_similarity_linker.rs``): pairwise multi-metric
similarities are computed per-type distributed (cross-type pairs are
0.0 by the type rule, so same-type enumeration is exact); the greedy
star clustering pass is order-sequential by reference semantics and
runs on the collected (bounded) entity table — assignments are staged
so the oracle re-derives canonical selection and every link edge's
similarity.  At web scale the blocked-linking device from
``stages/linking.py`` is the candidate-reduction pre-pass (documented).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.string_linker import (
    LinkerConfig,
    link_entities,
    normalize_string,
    similarity_components,
)
from ..stages.hashagg import hash_grouped_aggregate


def similarity_pairs(entities_ds, cfg: LinkerConfig = LinkerConfig(),
                     num_buckets: int = 16):
    """All same-type (a < b by entity_id) pairs with the component and
    combined similarities (``string_similarity_linker.rs:129-167``).
    Exact-after-normalization pairs short-circuit to sim 1.0 with NULL
    components (the reference never computes them on that branch)."""

    def per_bucket(t: pa.Table) -> pa.Table:
        by_type: dict[str, list] = {}
        for eid, name, typ in zip(t.column("entity_id").to_pylist(),
                                  t.column("name").to_pylist(),
                                  t.column("type").to_pylist()):
            by_type.setdefault(typ, []).append((eid, name))
        cols = {"entity_a": [], "entity_b": [], "lev_sim": [],
                "jw_sim": [], "jaccard_sim": [], "sim": [], "linked": []}
        for typ in sorted(by_type):
            rows = sorted(by_type[typ])
            norms = [normalize_string(nm, cfg) for _, nm in rows]
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    cols["entity_a"].append(rows[i][0])
                    cols["entity_b"].append(rows[j][0])
                    if norms[i] == norms[j]:
                        # -1.0 sentinels: the reference never computes
                        # components on the exact branch (NaN-vs-NaN
                        # hash comparisons are unreliable)
                        cols["lev_sim"].append(-1.0)
                        cols["jw_sim"].append(-1.0)
                        cols["jaccard_sim"].append(-1.0)
                        cols["sim"].append(1.0)
                        cols["linked"].append(1)
                        continue
                    comp = similarity_components(norms[i], norms[j], cfg)
                    best = 0.0
                    for v in comp.values():
                        if v is not None:
                            best = max(best, v)
                    cols["lev_sim"].append(round(comp["lev_sim"], 12))
                    cols["jw_sim"].append(round(comp["jw_sim"], 12))
                    cols["jaccard_sim"].append(
                        round(comp["jaccard_sim"], 12))
                    cols["sim"].append(round(best, 12))
                    cols["linked"].append(
                        1 if best >= cfg.min_similarity else 0)
        return pa.table({
            "entity_a": pa.array(cols["entity_a"], pa.string()),
            "entity_b": pa.array(cols["entity_b"], pa.string()),
            "lev_sim": pa.array(cols["lev_sim"], pa.float64()),
            "jw_sim": pa.array(cols["jw_sim"], pa.float64()),
            "jaccard_sim": pa.array(cols["jaccard_sim"], pa.float64()),
            "sim": pa.array(cols["sim"], pa.float64()),
            "linked": pa.array(cols["linked"], pa.int64())})

    return hash_grouped_aggregate(
        entities_ds.map_batches(
            lambda t: t.select(["entity_id", "name", "type"]),
            batch_format="pyarrow"),
        ["type"], per_bucket, num_buckets=num_buckets)


def links_table(entities: list[dict],
                cfg: LinkerConfig = LinkerConfig()):
    """Greedy clustering over the (sorted-by-caller) entity rows.
    Returns (assignments table with seed-cluster ids + member order,
    links table entity_id → canonical_id)."""
    links, clusters, canonicals = link_entities(entities, cfg)
    a_cols = {"cluster_id": [], "entity_id": [], "member_idx": []}
    for cluster in clusters:
        seed_id = entities[cluster[0]]["entity_id"]
        for idx, row in enumerate(cluster):
            a_cols["cluster_id"].append(seed_id)
            a_cols["entity_id"].append(entities[row]["entity_id"])
            a_cols["member_idx"].append(idx)
    assignments = pa.table({
        "cluster_id": pa.array(a_cols["cluster_id"], pa.string()),
        "entity_id": pa.array(a_cols["entity_id"], pa.string()),
        "member_idx": pa.array(a_cols["member_idx"], pa.int64())})
    ids = sorted(links)
    links_tbl = pa.table({
        "entity_id": pa.array(ids, pa.string()),
        "canonical_id": pa.array([links[i] for i in ids], pa.string())})
    return assignments, links_tbl
