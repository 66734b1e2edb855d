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

from ..stages.hashagg import bucketed_join, grouped_arrow_agg, hash_grouped_aggregate


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


# ---- PageRank -----------------------------------------------------------

def pagerank(triples_ds, damping: float = 0.85, max_iter: int = 20,
             tolerance: float = 1e-6,
             reset_probabilities: dict[str, float] | None = None,
             max_driver_nodes: int = 5_000_000, num_buckets: int = 64,
             small_graph_limit: int = 2_000_000):
    """Distributed (personalized) PageRank power iteration over the
    triple/edge table (config mirrors ``graph/pagerank.rs:17-52``:
    damping, max_iter, tolerance, personalized reset vector — scores
    teleport to the seed distribution instead of uniformly,
    ``pagerank.rs:184-223``).  Two modes, same semantics:

    - node count ≤ ``max_driver_nodes``: score vector broadcast per
      iteration (``ray.put``), vectorized contribution map over edge
      blocks, hash-bucketed sum — edges never leave the cluster.
    - larger graphs: **Dataset-native** (VERDICT r01 task 4) — scores stay
      a Dataset; each iteration is ``bucketed_join(edges, scores)`` →
      vectorized contribution → bucketed sum → left-join back onto the
      node table; the driver holds ONLY the convergence delta scalar.
    """
    import ray

    edges = triples_ds.map_batches(
        lambda t: t.select(["subj", "obj"]), batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return pa.table({"node": pa.array([], pa.string()),
                         "score": pa.array([], pa.float64())})
    # node count ≤ 2 × edge count — cheap upper bound for mode selection
    if 2 * n_edges > max_driver_nodes:
        return pagerank_dataset(edges, damping, max_iter, tolerance,
                                reset_probabilities, num_buckets=num_buckets,
                                small_graph_limit=small_graph_limit)

    # node set + out-degrees (vectorized)
    deg_df = hash_grouped_aggregate(
        edges, ["subj"],
        grouped_arrow_agg(["subj"], [("obj", "count")], rename=["node", "out_deg"])
    ).to_pandas()
    nodes = set(deg_df["node"])
    obj_nodes = edges.map_batches(
        lambda t: t.select(["obj"]).rename_columns(["node"]),
        batch_format="pyarrow").to_pandas()
    nodes |= set(obj_nodes["node"])
    nodes = sorted(nodes)
    n = len(nodes)
    if n == 0:
        return pa.table({"node": pa.array([], pa.string()),
                         "score": pa.array([], pa.float64())})
    out_deg = dict(zip(deg_df["node"], deg_df["out_deg"].astype(int)))

    if reset_probabilities:
        total = sum(w for v, w in reset_probabilities.items() if v in set(nodes))
        if total <= 0:
            raise ValueError("reset_probabilities contain no known node")
        reset = {v: reset_probabilities.get(v, 0.0) / total for v in nodes}
    else:
        reset = {v: 1.0 / n for v in nodes}
    scores = dict(reset)

    for _ in range(max_iter):
        ref = ray.put((scores, out_deg))

        def contribs(t: pa.Table) -> pa.Table:
            sc, od = ray.get(ref)
            subs = t.column("subj").to_pylist()
            objs = t.column("obj").to_pylist()
            vals = [damping * sc[s] / od[s] for s in subs]
            return pa.table({"node": pa.array(objs, pa.string()),
                             "c": pa.array(vals, pa.float64())})

        summed = hash_grouped_aggregate(
            edges.map_batches(contribs, batch_format="pyarrow"), ["node"],
            grouped_arrow_agg(["node"], [("c", "sum")], rename=["node", "c"])
        ).to_pandas()
        new_scores = {v: (1.0 - damping) * reset[v] for v in nodes}
        for v, c in zip(summed["node"], summed["c"]):
            new_scores[v] += float(c)
        delta = sum(abs(new_scores[v] - scores[v]) for v in nodes)
        scores = new_scores
        if delta < tolerance:
            break

    return pa.table({"node": pa.array(nodes, pa.string()),
                     "score": pa.array([round(scores[v], 10) for v in nodes],
                                       pa.float64())})


def _pagerank_local(edges, damping, max_iter, tolerance,
                    reset_probabilities, round_digits):
    """Small-graph fast path: the same recurrence as the sharded loop
    (new = (1-d)·reset + Σ d·score/out_deg), vectorised with
    ``np.add.at`` over dictionary-encoded node ids."""
    import ray.data as rd

    subj_l, obj_l = [], []
    for b in edges.iter_batches(batch_format="pyarrow"):
        subj_l.extend(b.column("subj").to_pylist())
        obj_l.extend(b.column("obj").to_pylist())
    names = sorted(set(subj_l) | set(obj_l))
    idx = {v: i for i, v in enumerate(names)}
    n = len(names)
    if n == 0:
        return rd.from_arrow(pa.table({"node": pa.array([], pa.string()),
                                       "score": pa.array([], pa.float64())}))
    si = np.fromiter((idx[v] for v in subj_l), dtype=np.int64,
                     count=len(subj_l))
    oi = np.fromiter((idx[v] for v in obj_l), dtype=np.int64,
                     count=len(obj_l))
    out_deg = np.zeros(n, dtype=np.float64)
    np.add.at(out_deg, si, 1.0)

    if reset_probabilities:
        known = sum(w for v, w in reset_probabilities.items() if v in idx)
        if not known or known <= 0:
            raise ValueError("reset_probabilities contain no known node")
        reset = np.array([reset_probabilities.get(v, 0.0) / known
                          for v in names], dtype=np.float64)
        score = reset.copy()
    else:
        reset = np.full(n, 1.0 / n)
        score = reset.copy()

    denom = np.maximum(out_deg, 1)
    for _ in range(max_iter):
        contrib = damping * score / denom
        new = (1.0 - damping) * reset
        np.add.at(new, oi, contrib[si])
        delta = float(np.abs(new - score).sum())
        score = new
        if delta < tolerance:
            break

    return rd.from_arrow(pa.table({
        "node": pa.array(names, pa.string()),
        "score": pa.array(np.round(score, round_digits), pa.float64())}))


def pagerank_dataset(edges, damping: float = 0.85, max_iter: int = 20,
                     tolerance: float = 1e-6,
                     reset_probabilities: dict[str, float] | None = None,
                     num_buckets: int = 64, work_dir: str | None = None,
                     round_digits: int = 10,
                     small_graph_limit: int = 2_000_000):
    """Dataset-native PageRank: scores never leave the cluster.  ``edges``
    is a materialized (subj, obj) Dataset.  Per iteration:

        contribs = bucketed_join(edges, scores[subj])         # shuffle 1
                 → (node=obj, c=d·score/out_deg)  vectorized
        sums     = hash-bucketed sum by node                  # shuffle 2
        scores'  = bucketed_join(nodes, sums, left)           # shuffle 3
        delta    = Dataset.sum(|score' - score|)              # scalar only

    Driver state: the delta scalar and loop counter.  At 10⁹ nodes the
    node/score tables stay sharded; the only growth is 3 shuffles per
    iteration (the price of not broadcasting).

    Each iteration CHECKPOINTS the score table to Parquet under
    ``work_dir`` (two alternating slots; default /tmp) — a hard lineage
    cut, without which Ray re-derives prior iterations through the
    diamond-shaped per-iteration plan (measured: iteration cost doubles
    ≈ every 2 iterations; with the checkpoint it is flat ~1.8 s/iter at
    4 cpus).  The checkpoint doubles as stage-granular resume state, the
    same pattern as the KG sink manifests.

    Two paths, one recurrence (the ``semantic_edges`` pattern): graphs
    with ≤ ``small_graph_limit`` edges run the identical power iteration
    as a local numpy matvec (the per-iteration Ray overhead of 3 shuffles
    + a Parquet checkpoint is seconds — pure waste on a graph that fits
    in one worker's memory); larger graphs take the sharded path above.
    Outputs agree to summation order (``test_pagerank_dataset`` pins
    ≤1e-9); pass ``small_graph_limit=0`` to force the sharded path."""
    import shutil
    import tempfile

    import ray
    import ray.data as rd

    from ..stages.hashagg import bucketed_join

    import os

    n_edges = edges.count()
    if n_edges <= small_graph_limit:
        return _pagerank_local(edges, damping, max_iter, tolerance,
                               reset_probabilities, round_digits)

    own_work_dir = work_dir is None
    if own_work_dir:
        work_dir = tempfile.mkdtemp(prefix="graphrag_pagerank_")

    # node table with out-degree (0 for pure sinks)
    def endpoints(t: pa.Table) -> pa.Table:
        subj = t.column("subj")
        obj = t.column("obj")
        node = pa.concat_tables([pa.table({"node": subj, "is_src": pa.array([1] * t.num_rows, pa.int64())}),
                                 pa.table({"node": obj, "is_src": pa.array([0] * t.num_rows, pa.int64())})])
        return node

    nodes = hash_grouped_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow"), ["node"],
        grouped_arrow_agg(["node"], [("is_src", "sum")],
                          rename=["node", "out_deg"]),
        num_buckets=num_buckets).materialize()
    n = nodes.count()

    if reset_probabilities:
        reset_ref = ray.put(reset_probabilities)
        known = nodes.map_batches(
            lambda t: pa.table({"w": pa.array(
                [reset_probabilities.get(v, 0.0)
                 for v in t.column("node").to_pylist()], pa.float64())}),
            batch_format="pyarrow").sum("w")
        if not known or known <= 0:
            raise ValueError("reset_probabilities contain no known node")

        def init(t: pa.Table) -> pa.Table:
            rp = ray.get(reset_ref)
            r = [rp.get(v, 0.0) / known for v in t.column("node").to_pylist()]
            return pa.table({"node": t.column("node"),
                             "out_deg": t.column("out_deg"),
                             "reset": pa.array(r, pa.float64()),
                             "score": pa.array(r, pa.float64())})
    else:
        def init(t: pa.Table) -> pa.Table:
            r = pa.array([1.0 / n] * t.num_rows, pa.float64())
            return pa.table({"node": t.column("node"),
                             "out_deg": t.column("out_deg"),
                             "reset": r, "score": r})

    scores = nodes.map_batches(init, batch_format="pyarrow").materialize()

    for it in range(max_iter):
        subj_scores = scores.map_batches(
            lambda t: pa.table({"subj": t.column("node"),
                                "s_score": t.column("score"),
                                "s_deg": t.column("out_deg")}),
            batch_format="pyarrow")
        joined = bucketed_join(edges, subj_scores, on=["subj"],
                               num_buckets=num_buckets)

        def contrib(t: pa.Table) -> pa.Table:
            sc = t.column("s_score").to_numpy()
            deg = t.column("s_deg").to_numpy()
            c = damping * sc / np.maximum(deg, 1)
            return pa.table({"node": t.column("obj"),
                             "c": pa.array(c, pa.float64())})

        sums = hash_grouped_aggregate(
            joined.map_batches(contrib, batch_format="pyarrow"), ["node"],
            grouped_arrow_agg(["node"], [("c", "sum")], rename=["node", "c"]),
            num_buckets=num_buckets)

        updated = bucketed_join(scores, sums, on=["node"], how="left",
                                num_buckets=num_buckets)

        def apply(t: pa.Table) -> pa.Table:
            old = t.column("score").to_numpy()
            c = np.nan_to_num(
                t.column("c").to_numpy(zero_copy_only=False).astype(np.float64))
            reset = t.column("reset").to_numpy()
            new = (1.0 - damping) * reset + c
            return pa.table({"node": t.column("node"),
                             "out_deg": t.column("out_deg"),
                             "reset": t.column("reset"),
                             "score": pa.array(new, pa.float64()),
                             "diff": pa.array(np.abs(new - old), pa.float64())})

        ck = os.path.join(work_dir, f"scores_{it % 2}")
        if os.path.exists(ck):                  # write_parquet APPENDS
            shutil.rmtree(ck)
        os.makedirs(ck)
        updated.map_batches(apply, batch_format="pyarrow").write_parquet(ck)
        # one file per upstream block → coalesce on read, or every later
        # round's exchanges fan with the tiny-block count (see the
        # measured hazard note in communities.connected_components)
        full = rd.read_parquet(ck).repartition(num_buckets)
        delta = full.sum("diff")
        scores = full.map_batches(lambda t: t.drop_columns(["diff"]),
                                  batch_format="pyarrow")
        if delta < tolerance:
            break

    def fmt(t: pa.Table) -> pa.Table:
        return pa.table({"node": t.column("node"),
                         "score": pa.array(
                             np.round(t.column("score").to_numpy(), round_digits),
                             pa.float64())})

    out = scores.map_batches(fmt, batch_format="pyarrow").materialize()
    if own_work_dir:
        shutil.rmtree(work_dir, ignore_errors=True)
    return out


# ---- traversal ----------------------------------------------------------

def canonical_und_edges(triples_ds, num_buckets: int = 64):
    """Distinct undirected (a < b) edges from the triple table (self-loops
    dropped) — the edge set every undirected analytic runs on."""
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    def canon(t: pa.Table) -> pa.Table:
        s, o = t.column("subj"), t.column("obj")
        keep = pc.invert(pc.equal(s, o))
        s, o = s.filter(keep), o.filter(keep)
        return pa.table({"a": pc.min_element_wise(s, o),
                         "b": pc.max_element_wise(s, o)})

    return hash_grouped_aggregate(
        triples_ds.map_batches(canon, batch_format="pyarrow"), ["a", "b"],
        grouped_arrow_agg(["a", "b"], [("a", "count")],
                          rename=["a", "b", "_n"]),
        num_buckets=num_buckets).map_batches(
        lambda t: t.select(["a", "b"]), batch_format="pyarrow")


def _triangle_counts_local(edges):
    """Small-graph fast path: per-node triangles = diag(A³)/2 via one
    float32 matmul — on dense graphs (the saturated-vocabulary test KG is
    near-complete) the wedge join materialises Θ(n³) rows while the
    matmul is the same work without the shuffle."""
    import ray.data as rd

    a_l, b_l = [], []
    for t in edges.iter_batches(batch_format="pyarrow"):
        a_l.extend(t.column("a").to_pylist())
        b_l.extend(t.column("b").to_pylist())
    names = sorted(set(a_l) | set(b_l))
    idx = {v: i for i, v in enumerate(names)}
    n = len(names)
    if n == 0:
        return rd.from_arrow(pa.table({
            "node": pa.array([], pa.string()),
            "degree": pa.array([], pa.int64()),
            "triangles": pa.array([], pa.int64()),
            "local_cc": pa.array([], pa.float64())}))
    A = np.zeros((n, n), dtype=np.float32)
    ai = np.fromiter((idx[v] for v in a_l), dtype=np.int64, count=len(a_l))
    bi = np.fromiter((idx[v] for v in b_l), dtype=np.int64, count=len(b_l))
    A[ai, bi] = 1.0
    A[bi, ai] = 1.0
    deg = A.sum(axis=1).astype(np.int64)
    tri = (((A @ A) * A).sum(axis=1) / 2.0).astype(np.int64)
    k = deg.astype(np.float64)
    cc = np.where(k >= 2.0,
                  (2.0 * tri.astype(np.float64)) / np.maximum(k * (k - 1.0), 1.0),
                  0.0)
    return rd.from_arrow(pa.table({
        "node": pa.array(names, pa.string()),
        "degree": pa.array(deg, pa.int64()),
        "triangles": pa.array(tri, pa.int64()),
        "local_cc": pa.array(cc, pa.float64())}))


def triangle_counts(triples_ds, num_buckets: int = 64,
                    small_graph_limit: int = 8_000):
    """Per-node triangle count + local clustering coefficient
    (``graph/analytics.rs:452-484``: the reference iterates ordered
    neighbour pairs, so its per-node `triangles` equals 2T and the
    coefficient is 2T/(k(k-1)); reproduced exactly).

    Distributed enumeration with id-ordered orientation — every triangle
    x<y<z materialises exactly once:

        1. canonical distinct edges (a<b)                      — 1 shuffle
        2. wedges: join edges (x,y)⋈(y,z) on the middle node   — 1 shuffle
        3. close: join wedges⋈edges on (x,z)                   — 1 shuffle
        4. explode each triangle's 3 nodes, hash-sum per node  — 1 shuffle

    Skew note: step 2 fans out quadratically on hub middles.  Ordering by
    id already halves hub fan-out (only greater-id neighbours pair); for
    web-scale hubs switch the orientation to degree-order (lowest-degree
    endpoint anchors the wedge — the standard bound of O(m^1.5) wedges).
    Output: (node, degree, triangles, local_cc); degree = distinct
    undirected neighbours."""
    from ..stages.hashagg import (bucketed_join, grouped_arrow_agg,
                                  hash_grouped_aggregate)

    edges = canonical_und_edges(triples_ds, num_buckets).materialize()

    # dense/small graphs: the matmul path (see _triangle_counts_local);
    # gate on the actual node count (A is n² bytes).  The wedge join
    # below stays the sparse web-scale path — its cost is
    # Σ_y deg⁻(y)·deg⁺(y) wedges, which the id-ordering halves; for
    # pathological hubs switch to degree-ordered orientation (O(m^1.5)).
    n_nodes = hash_grouped_aggregate(
        edges.map_batches(
            lambda t: pa.table({"node": pa.concat_arrays(
                [t.column("a").combine_chunks(),
                 t.column("b").combine_chunks()])}),
            batch_format="pyarrow"), ["node"],
        grouped_arrow_agg(["node"], [("node", "count")],
                          rename=["node", "_n"]),
        num_buckets=num_buckets).count()
    if n_nodes <= small_graph_limit:
        return _triangle_counts_local(edges)

    e1 = edges.map_batches(
        lambda t: pa.table({"y": t.column("b"), "x": t.column("a")}),
        batch_format="pyarrow")
    e2 = edges.map_batches(
        lambda t: pa.table({"y": t.column("a"), "z": t.column("b")}),
        batch_format="pyarrow")
    wedges = bucketed_join(e1, e2, on=["y"], num_buckets=num_buckets)

    closing = edges.map_batches(
        lambda t: pa.table({"x": t.column("a"), "z": t.column("b"),
                            "_e": pa.array([1] * t.num_rows, pa.int8())}),
        batch_format="pyarrow")
    tris = bucketed_join(
        wedges.map_batches(lambda t: t.select(["x", "y", "z"]),
                           batch_format="pyarrow"),
        closing, on=["x", "z"], num_buckets=num_buckets)

    def explode(t: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays(
            [t.column("x").combine_chunks(),
             t.column("y").combine_chunks(),
             t.column("z").combine_chunks()]),
            "t": pa.array([1] * (3 * t.num_rows), pa.int64())})

    per_node_t = hash_grouped_aggregate(
        tris.map_batches(explode, batch_format="pyarrow"), ["node"],
        grouped_arrow_agg(["node"], [("t", "sum")], rename=["node", "tri"]),
        num_buckets=num_buckets)

    deg = hash_grouped_aggregate(
        edges.map_batches(
            lambda t: pa.table({"node": pa.concat_arrays(
                [t.column("a").combine_chunks(),
                 t.column("b").combine_chunks()]),
                "d": pa.array([1] * (2 * t.num_rows), pa.int64())}),
            batch_format="pyarrow"), ["node"],
        grouped_arrow_agg(["node"], [("d", "sum")], rename=["node", "degree"]),
        num_buckets=num_buckets)

    joined = bucketed_join(deg, per_node_t, on=["node"], how="left",
                           num_buckets=num_buckets)

    def finish(t: pa.Table) -> pa.Table:
        k = t.column("degree").to_numpy().astype(np.float64)
        tri = np.nan_to_num(
            t.column("tri").to_numpy(zero_copy_only=False).astype(np.float64))
        # reference counts ordered neighbour pairs => 2T / (k(k-1))
        cc = np.where(k >= 2.0, (2.0 * tri) / np.maximum(k * (k - 1.0), 1.0),
                      0.0)
        return pa.table({"node": t.column("node"),
                         "degree": pc.cast(t.column("degree"), pa.int64()),
                         "triangles": pa.array(tri.astype(np.int64), pa.int64()),
                         "local_cc": pa.array(cc, pa.float64())})

    return joined.map_batches(finish, batch_format="pyarrow")


def _centrality_kernel(t: pa.Table, n_global: int,
                       max_component_nodes: int) -> pa.Table:
    """Per-component all-pairs-BFS centrality over (a, b, component)
    rows — shared by the distributed (per-bucket) and driver-local
    paths, so both emit bit-identical scores."""
    from collections import deque

    df = t.to_pandas()
    out_node, out_deg, out_bet, out_clo = [], [], [], []
    for _, g in df.groupby("component", sort=True):
        adj: dict[str, set] = {}
        for a, b in zip(g["a"], g["b"]):
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        nodes = sorted(adj)
        nc = len(nodes)
        if nc > max_component_nodes:
            raise ValueError(
                f"component has {nc} nodes > max_component_nodes="
                f"{max_component_nodes}; run on a k-hop subgraph")
        idx = {v: i for i, v in enumerate(nodes)}
        D = np.full((nc, nc), np.inf)
        for s in nodes:
            si = idx[s]
            D[si, si] = 0.0
            q, seen = deque([(s, 0)]), {s}
            while q:
                u, d = q.popleft()
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        D[si, idx[w]] = d + 1
                        q.append((w, d + 1))
        denom = ((n_global - 1.0) * (n_global - 2.0) / 2.0) \
            if n_global > 2 else 0.0
        for v in nodes:
            vi = idx[v]
            row, col = D[vi, :], D[:, vi]
            eq = (col[:, None] + row[None, :]) == D
            eq &= np.isfinite(D)
            eq[vi, :] = False
            eq[:, vi] = False
            cnt = int(eq.sum())
            reach_mask = np.isfinite(row)
            reach = int(reach_mask.sum()) - 1
            total = float(row[reach_mask].sum())
            out_node.append(v)
            out_deg.append(len(adj[v]) / (n_global - 1.0)
                           if n_global > 1 else 0.0)
            out_bet.append(cnt / denom if denom > 0 else 0.0)
            out_clo.append(reach / total
                           if reach > 0 and total > 0 else 0.0)
    return pa.table({
        "node": pa.array(out_node, pa.string()),
        "degree_centrality": pa.array(out_deg, pa.float64()),
        "betweenness": pa.array(out_bet, pa.float64()),
        "closeness": pa.array(out_clo, pa.float64()),
    })


def _centrality_scores_local(triples_ds, max_component_nodes: int):
    """Small-graph fast path: canonical edges, union-find components and
    the kernel all on the driver — the distributed twin spends ~3s of
    fixed Ray overhead (edge shuffle + degree agg + CC + tag join) on a
    graph the kernel solves in milliseconds."""
    import ray.data as rd

    from ..functions.unionfind import union_find_labels

    pairs: set[tuple[str, str]] = set()
    for t in triples_ds.iter_batches(batch_format="pyarrow"):
        s, o = t.column("subj"), t.column("obj")
        keep = pc.invert(pc.equal(s, o))
        a = pc.min_element_wise(s.filter(keep), o.filter(keep))
        b = pc.max_element_wise(s.filter(keep), o.filter(keep))
        pairs.update(zip(a.to_pylist(), b.to_pylist()))

    labels = union_find_labels(pairs)
    n_global = len(labels)
    a_col, b_col = zip(*sorted(pairs)) if pairs else ((), ())
    tagged = pa.table({
        "a": pa.array(list(a_col), pa.string()),
        "b": pa.array(list(b_col), pa.string()),
        "component": pa.array([labels[a] for a in a_col], pa.string())})
    return rd.from_arrow(_centrality_kernel(tagged, n_global,
                                            max_component_nodes))


def centrality_scores(triples_ds, num_buckets: int = 64,
                      max_component_nodes: int = 20_000,
                      small_graph_limit: int = 500_000):
    """Per-node centrality (degree / betweenness / closeness),
    ``graph/analytics.rs:182-278``.  Documented deviations from the
    reference, both in the direction of determinism:

    - betweenness counts ordered pairs (s,t) whose shortest DISTANCE
      decomposes through v (d(s,v)+d(v,t)=d(s,t)) — the reference checks
      membership in ONE Dijkstra path whose tie-break is Rust HashSet
      iteration order, i.e. nondeterministic run to run; the
      any-shortest-path criterion is its deterministic closure.
      Normalisation is the reference's: cnt / ((n-1)(n-2)/2), n global.
    - distances are unweighted hops (the reference's own tests use
      weight-1 edges throughout); degree = distinct undirected
      neighbours, normalised by (n-1).

    Two paths, identical scores (the CC/pagerank discipline): inputs
    with ≤ ``small_graph_limit`` triple rows run entirely on the driver
    (``small_graph_limit=0`` forces the distributed path — the equality
    test does); larger inputs distribute.  Shortest paths never cross
    components, so the kernel (all-pairs BFS, vectorised betweenness via
    the D-matrix decomposition test) runs per connected component inside
    ``hash_grouped_aggregate`` — the same pattern as Leiden.  Components
    above ``max_component_nodes`` raise (all-pairs centrality is O(n·m);
    for web-scale graphs run it on a k-hop subgraph, as query
    `centrality` does)."""
    from .communities import connected_components

    if triples_ds.count() <= small_graph_limit:
        return _centrality_scores_local(triples_ds, max_component_nodes)

    edges = canonical_und_edges(triples_ds, num_buckets).materialize()
    deg_tbl = hash_grouped_aggregate(
        edges.map_batches(
            lambda t: pa.table({"node": pa.concat_arrays(
                [t.column("a").combine_chunks(),
                 t.column("b").combine_chunks()])}),
            batch_format="pyarrow"), ["node"],
        grouped_arrow_agg(["node"], [("node", "count")],
                          rename=["node", "_d"]),
        num_buckets=num_buckets).materialize()
    n_global = deg_tbl.count()

    comp = connected_components(edges, num_buckets=num_buckets)
    comp_a = comp.map_batches(
        lambda t: pa.table({"a": t.column("node"),
                            "component": t.column("component")}),
        batch_format="pyarrow")
    tagged = bucketed_join(edges, comp_a, on=["a"], num_buckets=num_buckets)

    def kernel(t: pa.Table) -> pa.Table:
        return _centrality_kernel(t, n_global, max_component_nodes)

    return hash_grouped_aggregate(tagged, ["component"], kernel,
                                  num_buckets=num_buckets)


def graph_statistics_row(triples_ds, num_buckets: int = 64):
    """One-row GraphStatistics (``graph/incremental.rs:420-436`` +
    ``analytics.rs:436-484``): node/edge counts, avg/max degree, number of
    connected components, density, average clustering coefficient (mean of
    local_cc over nodes with ≥2 neighbours).  Everything computed
    distributed; the row itself is tiny."""
    from .communities import connected_components

    tc = triangle_counts(triples_ds, num_buckets).materialize()
    n_nodes = tc.count()
    edges = canonical_und_edges(triples_ds, num_buckets)
    n_edges = edges.count()
    max_deg = int(tc.max("degree")) if n_nodes else 0
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate
    comp = connected_components(edges, num_buckets=num_buckets)
    n_components = hash_grouped_aggregate(
        comp.map_batches(lambda t: pa.table(
            {"component": pc.unique(t.column("component"))}),
            batch_format="pyarrow"),
        ["component"],
        grouped_arrow_agg(["component"], [("component", "count")],
                          rename=["component", "_n"]),
        num_buckets=num_buckets).count()

    cc2 = tc.map_batches(
        lambda t: pa.table({
            "s": t.column("local_cc"),
            "n2": pc.cast(pc.greater_equal(t.column("degree"), 2), pa.int64())}),
        batch_format="pyarrow")
    cc_sum = cc2.sum("s") or 0.0
    cc_n = cc2.sum("n2") or 0
    avg_cc = (cc_sum / cc_n) if cc_n else 0.0
    avg_deg = (2.0 * n_edges) / n_nodes if n_nodes else 0.0
    density = (2.0 * n_edges) / (n_nodes * (n_nodes - 1.0)) \
        if n_nodes > 1 else 0.0

    return pa.table({
        "node_count": pa.array([n_nodes], pa.int64()),
        "edge_count": pa.array([n_edges], pa.int64()),
        "max_degree": pa.array([max_deg], pa.int64()),
        "connected_components": pa.array([n_components], pa.int64()),
        "average_degree": pa.array([round(avg_deg, 9)], pa.float64()),
        "density": pa.array([round(density, 9)], pa.float64()),
        "clustering_coefficient": pa.array([round(avg_cc, 9)], pa.float64()),
    })


def k_hop(triples_ds, seeds: list[str], k: int = 3, direction: str = "both",
          num_buckets: int = 64, small_graph_limit: int = 2_000_000):
    """K-hop neighbourhood expansion (BFS) from a seed set — the batch
    equivalent of ``graph/traversal.rs:85-151`` (whose ``get_neighbors``
    follows relationships in BOTH directions, ``traversal.rs:485-504``).
    Returns (node, hop) with hop = minimum distance (seeds = hop 0).

    Two paths, one recurrence (the connected_components discipline):
    ≤ ``small_graph_limit`` direction-expanded edges → local BFS kernel
    (each distributed round costs seconds of fixed shuffle overhead —
    pure waste when the graph fits one worker; the sf KG saturates at
    ~900 entities, 42 s → <2 s measured at sf0.01); larger graphs run
    the sharded loop: the frontier is a Dataset; each hop is one
    ``bucketed_join(frontier, edges)`` + a min-hop re-aggregate of
    (reached ∪ candidates) — per-round dedup keeps cyclic graphs from
    exploding the frontier.  The driver never holds the reached set.
    Equality pinned in ``test_leiden_traversal::test_k_hop_matches_bfs``."""
    import ray.data as rd

    def edge_rows(t: pa.Table) -> pa.Table:
        fwd = pa.table({"src": t.column("subj"), "dst": t.column("obj")})
        if direction == "out":
            return fwd
        rev = pa.table({"src": t.column("obj"), "dst": t.column("subj")})
        return pa.concat_tables([fwd, rev])

    edges = triples_ds.map_batches(edge_rows, batch_format="pyarrow").materialize()

    if edges.count() <= small_graph_limit:
        from collections import deque
        adj: dict[str, list[str]] = {}
        for r in edges.take_all():
            adj.setdefault(r["src"], []).append(r["dst"])
        dist = {n: 0 for n in set(seeds)}
        dq = deque((n, 0) for n in sorted(set(seeds)))
        while dq:
            u, d = dq.popleft()
            if d >= k:
                continue
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = d + 1
                    dq.append((v, d + 1))
        nodes = sorted(dist)
        return rd.from_arrow(pa.table({
            "node": pa.array(nodes, pa.string()),
            "hop": pa.array([dist[n] for n in nodes], pa.int64())}))

    reached = rd.from_arrow(pa.table({
        "node": pa.array(sorted(set(seeds)), pa.string()),
        "hop": pa.array([0] * len(set(seeds)), pa.int64())})).materialize()

    for h in range(k):
        frontier = reached.filter(expr=f"hop == {h}").map_batches(
            lambda t: pa.table({"src": t.column("node"),
                                "f_hop": t.column("hop")}),
            batch_format="pyarrow")
        if frontier.count() == 0:
            break
        expanded = bucketed_join(edges, frontier, on=["src"],
                                 num_buckets=num_buckets)
        cand = expanded.map_batches(
            lambda t: pa.table({
                "node": t.column("dst"),
                "hop": pa.array(np.full(t.num_rows, h + 1), pa.int64())}),
            batch_format="pyarrow")
        reached = hash_grouped_aggregate(
            reached.union(cand), ["node"],
            grouped_arrow_agg(["node"], [("hop", "min")],
                              rename=["node", "hop"]),
            num_buckets=num_buckets).materialize()

    return reached


def degree_stats(triples_ds, num_buckets: int = 64):
    """Per-node degree table (``graph/analytics.rs:60-88``: every edge
    endpoint occurrence counts, multigraph semantics): out-degree,
    in-degree, total degree, and normalized degree centrality
    degree/(n-1) (``analytics.rs:208-215``)."""

    def endpoints(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.concat_tables([
            pa.table({"node": t.column("subj"),
                      "out_d": pa.array([1] * n, pa.int64()),
                      "in_d": pa.array([0] * n, pa.int64())}),
            pa.table({"node": t.column("obj"),
                      "out_d": pa.array([0] * n, pa.int64()),
                      "in_d": pa.array([1] * n, pa.int64())}),
        ])

    deg = hash_grouped_aggregate(
        triples_ds.map_batches(endpoints, batch_format="pyarrow"), ["node"],
        grouped_arrow_agg(["node"], [("out_d", "sum"), ("in_d", "sum")],
                          rename=["node", "out_deg", "in_deg"]),
        num_buckets=num_buckets).materialize()
    n = deg.count()

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        total = pc.add(t.column("out_deg"), t.column("in_deg"))
        if n > 1:
            cent = pc.divide(pc.cast(total, pa.float64()), float(n - 1))
        else:
            cent = pa.array([0.0] * t.num_rows, pa.float64())
        return pa.table({"node": t.column("node"),
                         "out_deg": t.column("out_deg"),
                         "in_deg": t.column("in_deg"),
                         "degree": total,
                         "degree_centrality": cent})

    return deg.map_batches(finish, batch_format="pyarrow")


# ---- graph statistics ---------------------------------------------------

# ---- link prediction ----------------------------------------------------

def link_prediction(triples_ds, max_center_degree: int = 64,
                    num_buckets: int = 64):
    """Neighborhood-overlap link prediction over the undirected distinct
    graph (extension beyond the reference's analytics surface —
    common-neighbors / Jaccard / Adamic-Adar, Liben-Nowell & Kleinberg
    2003): for every non-adjacent pair (a, b) sharing ≥1 neighbor,

        cn            = |N(a) ∩ N(b)|
        jaccard_micro = 1e6·cn // (deg(a) + deg(b) − cn)
        aa_micro      = Σ_x floor(1e6 / ln(deg(x)))  over common x

    Adamic-Adar terms are quantized PER CENTER before summing, so the
    aggregate is order-free integer arithmetic (libm ``math.log`` ≡
    DuckDB ``ln``).  Wedge centers with degree > ``max_center_degree``
    are skipped — the hub cap that bounds the Θ(Σ deg²) pair emission at
    web scale (part of the operator contract, same discipline as the
    winnowing stop-gram cap); dropped centers also leave the oracle's
    wedge set, so both sides agree exactly.

    Scale shape: one node-bucketed exchange builds neighbor lists, pair
    emission is per-center local (run-sliced inside the bucket), the
    pair aggregation is a second bucketed exchange, degrees arrive by
    ``bucketed_join`` (×2), and adjacency is excluded with a left
    anti-join — no broadcast of any large side."""
    import math

    def und(t: pa.Table) -> pa.Table:
        keep = t.filter(pc.invert(pc.equal(t.column("subj"),
                                           t.column("obj"))))
        return pa.concat_tables([
            pa.table({"a": keep.column("subj"), "b": keep.column("obj")}),
            pa.table({"a": keep.column("obj"), "b": keep.column("subj")}),
        ])

    directed = triples_ds.map_batches(und, batch_format="pyarrow")

    def nbrs(t: pa.Table) -> pa.Table:
        df = t.to_pandas().drop_duplicates(["a", "b"])
        g = df.groupby("a")["b"].agg(list)
        return pa.table({"node": pa.array(g.index, pa.string()),
                         "nbrs": pa.array(g.to_list(),
                                          pa.list_(pa.string()))})

    adj = hash_grouped_aggregate(directed, ["a"], nbrs,
                                 num_buckets=num_buckets).materialize()

    def wedges(t: pa.Table) -> pa.Table:
        out_a, out_b, out_t = [], [], []
        for ns in t.column("nbrs").to_pylist():
            d = len(ns)
            if d < 2 or d > max_center_degree:
                continue
            term = math.floor(1_000_000 / math.log(float(d)))
            ns = sorted(ns)
            for i in range(d):
                for j in range(i + 1, d):
                    out_a.append(ns[i])
                    out_b.append(ns[j])
                    out_t.append(term)
        return pa.table({"pa_": pa.array(out_a, pa.string()),
                         "pb_": pa.array(out_b, pa.string()),
                         "term": pa.array(out_t, pa.int64())})

    pairs = hash_grouped_aggregate(
        adj.map_batches(wedges, batch_format="pyarrow"), ["pa_", "pb_"],
        grouped_arrow_agg(["pa_", "pb_"], [("term", "sum"),
                                           ("term", "count")],
                          rename=["pa_", "pb_", "aa_micro", "cn"]),
        num_buckets=num_buckets).materialize()
    if pairs.count() == 0:     # every center excluded by the hub cap
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "node_a": pa.array([], pa.string()),
            "node_b": pa.array([], pa.string()),
            "cn": pa.array([], pa.int64()),
            "jaccard_micro": pa.array([], pa.int64()),
            "aa_micro": pa.array([], pa.int64())}))

    deg = adj.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "deg": pc.list_value_length(
                                t.column("nbrs")).cast(pa.int64())}),
        batch_format="pyarrow")

    da = deg.map_batches(lambda t: t.rename_columns(["pa_", "deg_a"]),
                         batch_format="pyarrow")
    db = deg.map_batches(lambda t: t.rename_columns(["pb_", "deg_b"]),
                         batch_format="pyarrow")
    j1 = bucketed_join(pairs, da, ["pa_"], num_buckets=num_buckets)
    j2 = bucketed_join(j1, db, ["pb_"], num_buckets=num_buckets)

    edge_keys = directed.map_batches(
        lambda t: pa.table({"pa_": t.column("a"), "pb_": t.column("b"),
                            "is_edge": pa.array([1] * t.num_rows,
                                                pa.int64())}),
        batch_format="pyarrow")
    edge_keys = hash_grouped_aggregate(
        edge_keys, ["pa_", "pb_"],
        grouped_arrow_agg(["pa_", "pb_"], [("is_edge", "max")],
                          rename=["pa_", "pb_", "is_edge"]),
        num_buckets=num_buckets)
    j3 = bucketed_join(j2, edge_keys, ["pa_", "pb_"],
                       num_buckets=num_buckets, how="left")

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["is_edge"].isna()]
        cn = df["cn"].astype("int64")
        denom = (df["deg_a"] + df["deg_b"] - cn).astype("int64")
        return pa.table({
            "node_a": pa.array(df["pa_"], pa.string()),
            "node_b": pa.array(df["pb_"], pa.string()),
            "cn": pa.array(cn, pa.int64()),
            "jaccard_micro": pa.array(cn * 1_000_000 // denom, pa.int64()),
            "aa_micro": pa.array(df["aa_micro"].astype("int64"),
                                 pa.int64()),
        })

    return j3.map_batches(finish, batch_format="pyarrow")
