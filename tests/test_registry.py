"""Stage registry: config-driven extractor selection (SURVEY §2.13)."""

import pyarrow as pa
import pytest

from graphrag_rs_ray.config import KGConfig


def test_unknown_extractor_rejected():
    from graphrag_rs_ray.stages.registry import make_extractor
    with pytest.raises(ValueError, match="unknown extractor"):
        make_extractor(KGConfig(extractor="nope"))


def test_register_custom_extractor():
    from graphrag_rs_ray.stages.registry import EXTRACTORS, make_extractor

    def factory(cfg):
        return lambda batch: batch
    EXTRACTORS["custom"] = factory
    try:
        assert callable(make_extractor(KGConfig(extractor="custom")))
    finally:
        del EXTRACTORS["custom"]


def test_gleaning_stage_emits_combined_schema():
    from graphrag_rs_ray.stages.kg_extract import COMBINED_SCHEMA
    from graphrag_rs_ray.stages.registry import make_extractor
    stage = make_extractor(KGConfig(extractor="gleaning"))
    out = stage(pa.table({
        "chunk_id": ["c1"], "doc_id": ["d1"],
        "text": ["John Smith works for Acme Inc in New York near a sword."],
    }))
    assert out.schema.names == COMBINED_SCHEMA.names
    kinds = set(out.column("kind").to_pylist())
    assert "e" in kinds and "t" in kinds


def test_build_kg_with_gleaning_extractor(ray_session):
    from graphrag_rs_ray.pipelines.kg import triples_dataset
    from graphrag_rs_ray.sources.pages import pages_dataset
    cfg = KGConfig(extractor="gleaning")
    tri = triples_dataset(pages_dataset(20, seed=11), cfg).to_pandas()
    assert len(tri) > 0
    assert {"subj", "pred", "obj", "conf"} <= set(tri.columns)
    # the gleaning path stamps the fixed LLM confidence (0.9), unlike the
    # pattern path's 0.8 relationship confidence — proves the registry
    # actually switched extractors
    assert (abs(tri["conf"] - 0.9) < 1e-6).all()
