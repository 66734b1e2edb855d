"""Bucketed (LSH-blocked) similarity paths vs their exact counterparts.

The scale variants must produce the SAME results as the broadcast/exact
variants on the test corpora when the band settings put recall ≈ 1
(see stages/ann.py for the collision math)."""

import numpy as np
import pandas as pd
import pyarrow as pa

SF_DIR = "/root/testdata/sf0.001"


def _pairs_df(ds):
    df = ds.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_cosine_dup_pairs_bucketed_equals_exact(ray_session):
    from graphrag_rs_ray.pipelines import training_data as td
    exact = td.cosine_dup_pairs(SF_DIR, threshold=0.35).to_pandas()
    exact_set = set(zip(exact["vec_a"], exact["vec_b"]))
    bucketed = td.cosine_dup_pairs_bucketed(SF_DIR, threshold=0.35,
                                            band_bits=2, n_bands=48).to_pandas()
    bucket_set = set(zip(bucketed["vec_a"], bucketed["vec_b"]))
    assert bucket_set == exact_set
    # sims are exact cosines (rounded to 12), not estimates
    assert (bucketed["sim"] >= 0.35).all()


def test_semantic_edges_bucketed_equals_broadcast(ray_session):
    import ray.data as rd
    from graphrag_rs_ray.pipelines.graph_ops import (
        _semantic_edges_broadcast, semantic_edges_bucketed)

    # deterministic synthetic entity embeddings with planted near-dups
    rng = np.random.Generator(np.random.PCG64(11))
    base = rng.normal(size=(60, 16))
    rows = []
    for i in range(60):
        rows.append((f"ent{i:03d}", base[i]))
        if i % 5 == 0:   # planted near-duplicate (high cosine partner)
            rows.append((f"ent{i:03d}dup", base[i] + rng.normal(scale=0.05, size=16)))
    tbl = pa.table({
        "entity_id": pa.array([r[0] for r in rows], pa.string()),
        "embedding": pa.array([r[1].tolist() for r in rows],
                              pa.list_(pa.float64())),
    })
    ds = rd.from_arrow(tbl)

    broadcast = _pairs_df(_semantic_edges_broadcast(ds.materialize(), 0.8, 10))
    # threshold 0.8 ⇒ per-plane p≈0.795; 4 bits × 32 bands ⇒ recall ≈ 1-6e-8
    bucketed = _pairs_df(semantic_edges_bucketed(ds, 0.8, 10,
                                                 n_bands=32, band_bits=4))
    assert list(broadcast.columns) == list(bucketed.columns)
    pd.testing.assert_frame_equal(broadcast, bucketed)


def test_ivf_recall(ray_session):
    """IVF top-k must recover most of the exact top-k (recall@10) and all
    of its rows must come from the probed lists (subset of corpus)."""
    from graphrag_rs_ray.pipelines import training_data as td
    exact = td.knn_bruteforce(SF_DIR).to_pandas()
    approx = td.ivf_topk(SF_DIR).to_pandas()
    recalls = []
    for qid in exact["query_id"].unique():
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recalls.append(len(e & a) / len(e))
    # random 64-dim corpus: nprobe=8/32 lists ⇒ recall well above chance
    assert sum(recalls) / len(recalls) >= 0.5, recalls
    # rank-1 hit is the query itself (sim 1.0) and must always survive
    r1 = approx[approx["rank"] == 1]
    assert (r1["query_id"].to_numpy() == r1["vec_id"].to_numpy()).all()
    # deterministic
    approx2 = td.ivf_topk(SF_DIR).to_pandas()
    assert approx.equals(approx2)


def test_hnsw_recall(ray_session):
    """Per-shard HNSW top-k vs exact brute force: high recall@10, the
    self-hit at rank 1, and run-to-run determinism (levels derive from
    key digests, not an RNG)."""
    from graphrag_rs_ray.pipelines import training_data as td
    exact = td.knn_bruteforce(SF_DIR).to_pandas()
    approx = td.hnsw_topk(SF_DIR).to_pandas()
    recalls = []
    for qid in exact["query_id"].unique():
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recalls.append(len(e & a) / len(e))
    # ef_search=48 across 4 shards on the sf0.001 corpus: near-exact
    assert sum(recalls) / len(recalls) >= 0.8, recalls
    r1 = approx[approx["rank"] == 1]
    assert (r1["query_id"].to_numpy() == r1["vec_id"].to_numpy()).all()
    approx2 = td.hnsw_topk(SF_DIR).to_pandas()
    assert approx.sort_values(["query_id", "rank"]).reset_index(drop=True).equals(
        approx2.sort_values(["query_id", "rank"]).reset_index(drop=True))


def test_hnsw_shard_exchange_schemas_hash(ray_session):
    """The embeddings table carries pandas metadata, a dict that makes
    ``hash(schema)`` raise; Ray's ``unify_schemas`` hashes the schemas
    of every sort reduce and logs a warning when that fails.  The blocks
    ``hnsw_shard_candidates`` sends through its shard exchange carry no
    schema metadata."""
    import os

    import pyarrow.parquet as pq
    from graphrag_rs_ray.pipelines import training_data as td

    block = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
    assert block.schema.metadata
    op = td.hnsw_shard_candidates(SF_DIR)._logical_plan.dag
    while op.name != "MapBatches(shard_col)":
        op = op.input_dependencies[0]
    hash(op._fn(block).schema)


def test_driver_collected_maps_drop_schema_metadata(ray_session,
                                                    monkeypatch):
    """``_lowest_vec_rows``' ``smallest`` and ``ngram_dedup_pairs``'
    ``prune`` map pandas-written tables whose blocks the driver then
    collects; a metadata dict left on their schemas makes the driver's
    ``unify_schemas`` log a hash warning.  Their outputs hash."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd
    from graphrag_rs_ray.pipelines import training_data as td

    emb = os.path.join(SF_DIR, "embeddings.parquet")
    assert pq.read_schema(emb).metadata
    hash(td._lowest_vec_rows(emb, 3).schema)

    maps = []
    docs = td._docs

    class Spy:   # records the map ngram_dedup_pairs runs on the corpus
        def __init__(self, ds):
            self.ds = ds

        def map_batches(self, fn, **kw):
            maps.append(fn)
            return self.ds.map_batches(fn, **kw)

    monkeypatch.setattr(td, "_docs", lambda *a, **k: Spy(docs(*a, **k)))
    td.ngram_dedup_pairs(SF_DIR, cand_ds=rd.from_items(
        [{"doc_a": 0, "doc_b": 1}]))
    block = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                          columns=["doc_id", "text"])
    assert block.schema.metadata
    (prune,) = maps
    hash(prune(block).schema)


def test_driver_reads_log_no_schema_hash_warning(ray_session):
    """The vector-store load streams the pandas-written embeddings table
    through ``iter_batches`` and ``lazy_pipeline_stats`` stages and reads
    back rows of the pandas-written documents table; a metadata dict on
    those schemas makes Ray's ``unify_schemas`` log "Failed to hash the
    schemas".  Neither query logs it."""
    import logging

    import __ray_entry__ as e

    records = []

    class Keep(logging.Handler):
        def emit(self, record):
            records.append(record.getMessage())

    log = logging.getLogger("ray.data._internal.arrow_ops.transform_pyarrow")
    handler = Keep(logging.WARNING)
    log.addHandler(handler)
    try:
        e.q_vector_store_stats(SF_DIR).to_pandas()
        e.q_lazy_pipeline_stats(SF_DIR).to_pandas()
    finally:
        log.removeHandler(handler)
    assert not [m for m in records if "Failed to hash the schemas" in m]


def test_hnsw_kernel_exactness_small():
    """On a corpus smaller than ef_search the layer-0 pool is exhaustive:
    HNSW == exact cosine ranking."""
    import numpy as np
    from graphrag_rs_ray.functions.hnsw import HNSWIndex
    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(40, 16))
    idx = HNSWIndex(m=4, ef_construction=32).build(list(range(40)), vecs)
    norm = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    for qi in (0, 7, 23):
        got = [k for k, _ in idx.search(vecs[qi], 5, ef_search=64)]
        sims = norm @ norm[qi]
        exact = sorted(range(40), key=lambda i: (-sims[i], i))[:5]
        assert got == exact


def test_minhash_hot_filter_paths_equal(ray_session, monkeypatch):
    """The broadcast (packed pc.is_in) and bucketed-semi-join hot-bucket
    paths must yield identical candidate pairs; a zero byte budget forces
    the semi-join twin."""
    from graphrag_rs_ray.pipelines import training_data as td
    from graphrag_rs_ray.stages import hashagg

    def norm(df):
        return (df.sort_values(["doc_a", "doc_b"])
                .reset_index(drop=True))

    fast = norm(td.minhash_lsh_candidates(SF_DIR).to_pandas())
    monkeypatch.setattr(hashagg, "BROADCAST_KEY_BYTES", 0)
    slow = norm(td.minhash_lsh_candidates(SF_DIR).to_pandas())
    assert fast.equals(slow)
    assert len(fast) > 0        # planted dups must surface candidates


def test_ngram_dedup_pairs_still_verifies(ray_session):
    """The bucketed-join rework of ngram_dedup_pairs must keep verifying
    candidates (planted exact duplicates in documents reach jaccard 1.0)."""
    from graphrag_rs_ray.pipelines import training_data as td
    df = td.ngram_dedup_pairs(SF_DIR, threshold=0.8).to_pandas()
    assert set(df.columns) == {"doc_a", "doc_b", "jaccard"}
    cand = td.minhash_lsh_candidates(SF_DIR).to_pandas()
    assert len(df) <= len(cand)
    assert (df["jaccard"] >= 0.8).all()
