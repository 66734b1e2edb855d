"""Derived graph tables + merge operators.

- Bidirectional index (``entity/bidirectional_index.rs:93-123,291-357``):
  entity→chunk lists, chunk→entity lists, co-occurring entity pairs with
  shared-chunk counts ≥ threshold — all derived tables, no materialized
  index object (SURVEY §2.4).
- Incremental entity merge (``graph/incremental.rs:242-257,721-747``):
  KeepExisting / KeepNew / Merge conflict strategies over two entity
  tables.
- Semantic similarity edges (``graph/mod.rs:235-275``): per-entity top-k
  cosine neighbours over a broadcast embedding matrix (the canonical
  entity table is the small side by construction; the scale path is the
  LSH-bucketed variant in ``training_data.lsh_buckets``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate


# ---- bidirectional index ------------------------------------------------

def entity_to_chunks(mentions_ds):
    """entity_id → sorted chunk list + count."""
    def finish(t: pa.Table) -> pa.Table:
        out = t.group_by(["entity_id"]).aggregate([("chunk_id", "distinct")])
        chunks = [sorted(x) for x in out.column("chunk_id_distinct").to_pylist()]
        return pa.table({
            "entity_id": out.column("entity_id"),
            "chunks": pa.array(chunks, pa.list_(pa.string())),
            "n_chunks": pa.array([len(c) for c in chunks], pa.int64()),
        })
    return hash_grouped_aggregate(mentions_ds, ["entity_id"], finish)


def chunk_to_entities(mentions_ds):
    """chunk_id → sorted entity list + count."""
    def finish(t: pa.Table) -> pa.Table:
        out = t.group_by(["chunk_id"]).aggregate([("entity_id", "distinct")])
        ents = [sorted(x) for x in out.column("entity_id_distinct").to_pylist()]
        return pa.table({
            "chunk_id": out.column("chunk_id"),
            "entities": pa.array(ents, pa.list_(pa.string())),
            "n_entities": pa.array([len(e) for e in ents], pa.int64()),
        })
    return hash_grouped_aggregate(mentions_ds, ["chunk_id"], finish)


def co_occurring_entities(mentions_ds, min_shared_chunks: int = 2):
    """Entity pairs sharing ≥ N chunks (``bidirectional_index.rs:291-313``).
    Pairs are emitted per chunk (chunk-local, no self-join) then counted."""
    import pyarrow.compute as pc

    def pairs(t: pa.Table) -> pa.Table:
        out = t.group_by(["chunk_id"]).aggregate([("entity_id", "distinct")])
        a_l, b_l = [], []
        for ents in out.column("entity_id_distinct").to_pylist():
            es = sorted(set(ents))
            for i in range(len(es)):
                for j in range(i + 1, len(es)):
                    a_l.append(es[i]); b_l.append(es[j])
        return pa.table({"entity_a": pa.array(a_l, pa.string()),
                         "entity_b": pa.array(b_l, pa.string())})

    pair_rows = hash_grouped_aggregate(mentions_ds, ["chunk_id"], pairs)
    counted = hash_grouped_aggregate(
        pair_rows, ["entity_a", "entity_b"],
        grouped_arrow_agg(["entity_a", "entity_b"], [("entity_a", "count")],
                          rename=["entity_a", "entity_b", "shared_chunks"]))
    thr = min_shared_chunks
    return counted.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("shared_chunks"), thr)),
        batch_format="pyarrow")


# ---- incremental merge --------------------------------------------------

KEEP_EXISTING, KEEP_NEW, MERGE = "keep_existing", "keep_new", "merge"


def merge_entity_tables(existing_ds, new_ds, strategy: str = MERGE):
    """Merge two canonical entity tables under a conflict strategy
    (``graph/incremental.rs:242-257,721-747``).  Merge semantics: higher
    confidence wins name+type, mention counts sum."""

    def tag(side):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column("_side", pa.array([side] * t.num_rows, pa.int8()))
        return fn

    unioned = existing_ds.map_batches(tag(0), batch_format="pyarrow").union(
        new_ds.map_batches(tag(1), batch_format="pyarrow"))

    def resolve(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        if strategy == KEEP_EXISTING:
            df = df.sort_values(["entity_id", "_side"]).drop_duplicates("entity_id", keep="first")
        elif strategy == KEEP_NEW:
            df = df.sort_values(["entity_id", "_side"]).drop_duplicates("entity_id", keep="last")
        else:
            mc = df.groupby("entity_id", as_index=False)["mention_count"].sum()
            best = (df.sort_values(["entity_id", "conf", "_side"],
                                   ascending=[True, False, False])
                      .drop_duplicates("entity_id", keep="first")
                      .drop(columns=["mention_count"]))
            df = best.merge(mc, on="entity_id")
        df = df.drop(columns=["_side"])
        return pa.table({
            "entity_id": pa.array(df["entity_id"], pa.string()),
            "name": pa.array(df["name"], pa.string()),
            "type": pa.array(df["type"], pa.string()),
            "conf": pa.array(df["conf"], pa.float32()),
            "mention_count": pa.array(df["mention_count"], pa.int64()),
        })

    return hash_grouped_aggregate(unioned, ["entity_id"], resolve)


# ---- semantic similarity edges -----------------------------------------

def _edge_rows(topk_tbl: pa.Table) -> pa.Table:
    return pa.table({
        "subj": topk_tbl.column("src"),
        "pred": pa.array(["SEMANTICALLY_SIMILAR"] * topk_tbl.num_rows,
                         pa.string()),
        "obj": topk_tbl.column("dst"),
        "conf": topk_tbl.column("sim"),
        "rank": topk_tbl.column("rank"),
    })


def semantic_edges(entities_with_embeddings_ds, similarity_threshold: float = 0.8,
                   max_connections: int = 10,
                   max_broadcast_entities: int = 1_000_000):
    """Top-k cosine edges per entity (``graph/mod.rs:235-275``), emitting
    (subj, SEMANTICALLY_SIMILAR, obj, conf, rank), tie-break (sim desc,
    obj asc).  Two paths on one semantics:

    - ≤ ``max_broadcast_entities``: broadcast the (id, embedding) matrix
      once (``ray.put``), per-batch float64 matmul — exact, oracle-checked
      (sims rounded to 12 decimals = DuckDB ``round(list_cosine_similarity
      (a,b), 12)``).
    - above: hyperplane-LSH bucketed blocking (``stages/ann.py``) —
      within-bucket exact cosine, per-node top-k via the hash-bucketed
      aggregate; no driver materialization, no full broadcast.  Recall for
      sim ≥ 0.8 with the default bands ≈ 1 - 6e-8 (see ann.py math);
      ``test_semantic_edges_bucketed`` pins equality on the test corpus."""
    n = entities_with_embeddings_ds.count()
    if n <= max_broadcast_entities:
        return _semantic_edges_broadcast(
            entities_with_embeddings_ds.materialize(),
            similarity_threshold, max_connections)
    return semantic_edges_bucketed(entities_with_embeddings_ds,
                                   similarity_threshold, max_connections)


def _semantic_edges_broadcast(ds, similarity_threshold: float,
                              max_connections: int):
    import ray
    from ..stages.ann import _emb_matrix

    all_tbl = pa.concat_tables(
        [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")])
    ids = np.asarray(all_tbl.column("entity_id").to_pylist(), dtype=object)
    mat = _emb_matrix(all_tbl.column("embedding"))
    norms = np.linalg.norm(mat, axis=1).clip(1e-300)
    ref = ray.put((ids, mat, norms))

    thr, k = similarity_threshold, max_connections

    def edges(batch: pa.Table) -> pa.Table:
        import pandas as pd
        all_ids, m, mn = ray.get(ref)
        bids = np.asarray(batch.column("entity_id").to_pylist(), dtype=object)
        emb = _emb_matrix(batch.column("embedding"))
        en = np.linalg.norm(emb, axis=1).clip(1e-300)
        sims = np.round((emb @ m.T) / np.outer(en, mn), 12)
        src, dst, conf, rank = [], [], [], []
        for i, eid in enumerate(bids):
            row = sims[i]
            hits = np.where(row > thr)[0]
            hits = hits[all_ids[hits] != eid]
            if not len(hits):
                continue
            g = pd.DataFrame({"obj": all_ids[hits], "sim": row[hits]})
            g = g.sort_values(["sim", "obj"], ascending=[False, True]).head(k)
            for r, (o, s) in enumerate(zip(g["obj"], g["sim"]), 1):
                src.append(eid); dst.append(o); conf.append(float(s)); rank.append(r)
        return _edge_rows(pa.table({
            "src": pa.array(src, pa.string()),
            "dst": pa.array(dst, pa.string()),
            "sim": pa.array(conf, pa.float64()),
            "rank": pa.array(rank, pa.int64())}))

    return ds.map_batches(edges, batch_format="pyarrow")


def semantic_edges_bucketed(ds, similarity_threshold: float = 0.8,
                            max_connections: int = 10, n_bands: int = 32,
                            band_bits: int = 4, seed: int = 7):
    """Scale path: LSH-bucketed candidate pairs → exact within-bucket
    cosine → per-node top-k.  Same output schema/semantics as the
    broadcast path (sims > threshold; candidates with sim == threshold
    are filtered after the ≥-threshold candidate pass)."""
    import pyarrow.compute as pc
    from ..stages.ann import lsh_cosine_candidates, topk_directed_edges

    pairs = lsh_cosine_candidates(
        ds, "entity_id", "embedding", threshold=similarity_threshold,
        n_bands=n_bands, band_bits=band_bits, seed=seed)
    pairs = pairs.map_batches(
        lambda t: t.filter(pc.greater(t.column("sim"), similarity_threshold)),
        batch_format="pyarrow")
    topk = topk_directed_edges(pairs, k=max_connections)
    return topk.map_batches(_edge_rows, batch_format="pyarrow")


def merge_triple_tables(a_ds, b_ds):
    """Union + re-dedup of two deduped triple tables (the delta-apply of
    ``graph/incremental.rs:750-771`` at table level): max conf, summed
    context counts, min context sample."""
    return hash_grouped_aggregate(
        a_ds.union(b_ds), ["subj", "pred", "obj"],
        grouped_arrow_agg(["subj", "pred", "obj"],
                          [("conf", "max"), ("n_contexts", "sum"),
                           ("context_sample", "min")],
                          rename=["subj", "pred", "obj", "conf", "n_contexts",
                                  "context_sample"]))

