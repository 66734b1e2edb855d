"""graphrag_rs_ray — a Ray-Data-native knowledge-graph construction engine.

A from-scratch rebuild of the *indexing* capabilities of the reference
GraphRAG engine (mwatts/graphrag-rs) on top of ``ray.data.Dataset``:

    Parquet web pages → HTML→text extraction → hierarchical chunking →
    pattern/gazetteer mention detection → exact + fuzzy canonicalization →
    (subj, pred, obj) triple emission → deduped adjacency-shard Parquet.

Layout:
    functions/  pure deterministic kernels (ported semantics, cited per file)
    sources/    page reader + synthetic page generator + graph import/export
    stages/     map_batches stage wrappers (stateless fns + actor classes)
    pipelines/  end-to-end dataflows (kg construction, training-data ops)
    state/      manifests / checkpoint-resume helpers

Never calls ``ray.init`` — the caller owns the Ray session.
"""

__version__ = "0.1.0"
