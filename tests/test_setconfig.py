"""TOML configuration system (config/setconfig.rs + config/validation.rs):
schema defaults, serde loading semantics, validation rules, KGConfig
mapping, and the reference's own template corpus."""

import glob
import os

import pytest

from graphrag_rs_ray.setconfig import (
    ConfigError,
    SetConfig,
    load_setconfig,
    loads_setconfig,
    to_kg_config,
    validate_setconfig,
)

TEMPLATES = sorted(glob.glob("/root/reference/config/templates/*.toml"))


def test_defaults_match_reference():
    # setconfig.rs:1060-1351 default fns
    c = SetConfig()
    assert c.mode.approach == "semantic"
    assert c.general.log_level == "info"
    assert c.general.output_dir == "./output"
    te = c.pipeline.text_extraction
    assert (te.chunk_size, te.chunk_overlap, te.min_chunk_size) == (512, 64, 50)
    assert c.pipeline.workflows == ["extract_text", "extract_entities",
                                    "build_graph", "detect_communities"]
    assert c.pipeline.entity_extraction.confidence_threshold == 0.8
    assert c.pipeline.graph_building.min_relation_score == 0.7
    assert c.pipeline.community_detection.algorithm == "leiden"
    assert c.storage.database_type == "sqlite"
    assert c.models.primary_llm == "gpt-4"
    assert c.performance.batch_size == 100
    assert (c.ollama.host, c.ollama.port) == ("http://localhost", 11434)
    assert c.ollama.chat_model == "llama3.1:8b"
    assert c.entity_extraction.max_gleaning_rounds == 3
    assert c.entity_extraction.merge_similarity_threshold == 0.85
    assert c.auto_save.interval_seconds == 300
    assert c.semantic is None and c.hybrid is None


def test_partial_toml_fills_defaults_and_ignores_unknown():
    sc = loads_setconfig("""
[mode]
approach = "algorithmic"
some_unknown_key = 1

[pipeline.text_extraction]
chunk_size = 900

[unknown_section]
x = 2
""")
    assert sc.mode.approach == "algorithmic"
    assert sc.pipeline.text_extraction.chunk_size == 900
    assert sc.pipeline.text_extraction.chunk_overlap == 64  # default kept
    assert sc.ollama.enabled is True


def test_required_subsections_error():
    # setconfig.rs:634-650: [semantic] subsections carry no serde default
    with pytest.raises(ConfigError, match="missing field"):
        loads_setconfig("[semantic]\nenabled = true\n")
    # int for float is accepted (serde), bool for int is not
    sc = loads_setconfig("[pipeline.graph_building]\nmin_relation_score = 1\n")
    assert sc.pipeline.graph_building.min_relation_score == 1.0
    with pytest.raises(ConfigError, match="invalid type"):
        loads_setconfig("[performance]\nbatch_size = true\n")


def test_lazygraphrag_e2_defaults():
    sc = loads_setconfig("""
[experimental]
lazy_graphrag = true

[experimental.lazy_graphrag_config]
max_refinement_iterations = 5

[experimental.e2_graphrag_config]
""")
    lg = sc.experimental.lazy_graphrag_config
    assert lg.max_refinement_iterations == 5
    assert lg.min_concept_length == 3 and lg.max_concept_words == 5
    e2 = sc.experimental.e2_graphrag_config
    assert e2.entity_types == ["PERSON", "ORGANIZATION", "LOCATION",
                               "CONCEPT"]
    assert e2.min_confidence == 0.6


def test_validation_rules():
    # validation.rs:351-426
    sc = loads_setconfig("""
[mode]
approach = "nonsense"

[general]
output_dir = ""

[pipeline.text_extraction]
chunk_size = 100
chunk_overlap = 150

[storage]
database_type = "mysql"

[ollama]
enabled = true
chat_model = ""
""")
    r = validate_setconfig(sc)
    assert not r.is_valid
    msgs = "\n".join(r.errors)
    assert "Invalid pipeline approach" in msgs
    assert "Output directory cannot be empty" in msgs
    assert "Chunk overlap must be less than chunk size" in msgs
    assert "Unknown database type: mysql" in msgs
    assert "Ollama chat model must be specified" in msgs
    assert "Input document path is required" in msgs


def test_hybrid_weight_warnings_and_approach_gates():
    sc = loads_setconfig("""
[mode]
approach = "hybrid"

[hybrid]
enabled = true

[hybrid.weights]
semantic_weight = 0.8
algorithmic_weight = 0.4

[hybrid.embeddings]
[hybrid.entity_extraction]
[hybrid.retrieval]
rrf_constant = 0
[hybrid.graph_construction]
""")
    r = validate_setconfig(sc)
    assert any("should sum to 1.0 (currently: 1.20)" in w
               for w in r.warnings)
    assert any("RRF constant" in e for e in r.errors)
    # missing [semantic] when approach = semantic
    r2 = validate_setconfig(loads_setconfig('[mode]\napproach="semantic"'))
    assert any("[semantic] configuration is missing" in e for e in r2.errors)
    # strict mode adds the mock-LLM warning
    sc3 = loads_setconfig("[ollama]\nenabled = false\n")
    r3 = validate_setconfig(sc3, strict=True)
    assert any("mock LLM" in w for w in r3.warnings)


def test_to_kg_config_mapping():
    # setconfig.rs:1731-1836
    sc = loads_setconfig("""
[mode]
approach = "algorithmic"

[pipeline.text_extraction]
chunk_size = 800
chunk_overlap = 120

[pipeline.entity_extraction]
entity_types = ["PERSON", "LOCATION"]

[algorithmic]
enabled = true
[algorithmic.embeddings]
[algorithmic.entity_extraction]
confidence_threshold = 0.65
[algorithmic.retrieval]
[algorithmic.graph_construction]
""")
    kg = to_kg_config(sc)
    assert kg.chunk_size == 800 and kg.chunk_overlap == 120
    assert kg.extractor == "pattern"
    assert kg.min_confidence == pytest.approx(0.65)
    assert kg.entity_types == ("PERSON", "LOCATION")
    # hybrid reduces gleaning rounds to 2 (setconfig.rs:1786)
    hy = loads_setconfig("""
[mode]
approach = "hybrid"
[hybrid]
[hybrid.weights]
[hybrid.embeddings]
[hybrid.entity_extraction]
[hybrid.retrieval]
[hybrid.graph_construction]
""")
    kgh = to_kg_config(hy)
    assert kgh.extractor == "gleaning"
    assert kgh.extra["max_gleaning_rounds"] == 2


@pytest.mark.skipif(not TEMPLATES, reason="reference templates unavailable")
def test_reference_template_corpus():
    """Every shipped template either parses (with faithful validation
    results) or fails on the same stale-schema fields serde would
    reject ([semantic.graph] instead of [semantic.graph_construction])."""
    parsed, stale = 0, 0
    for path in TEMPLATES:
        try:
            sc = load_setconfig(path)
            validate_setconfig(sc)
            parsed += 1
            assert sc.mode.approach in ("semantic", "algorithmic", "hybrid")
        except ConfigError as e:
            stale += 1
            assert "missing field" in str(e)
    assert parsed >= 6
    # the three pipeline templates predate the graph_construction rename
    assert stale <= 4


def test_json_config_loading(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"mode": {"approach": "algorithmic"}, '
                 '"performance": {"batch_size": 7}}')
    sc = load_setconfig(str(p))
    assert sc.mode.approach == "algorithmic"
    assert sc.performance.batch_size == 7
    bad = tmp_path / "bad.json5"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON5 parse error"):
        load_setconfig(str(bad))


# ----------------------------------------------------------- save side --

def test_toml_save_roundtrip_default(tmp_path):
    from graphrag_rs_ray.setconfig import (SetConfig, dumps_setconfig,
                                           load_setconfig, loads_setconfig,
                                           save_setconfig)
    sc = SetConfig()
    assert loads_setconfig(dumps_setconfig(sc)) == sc
    p = str(tmp_path / "cfg.toml")
    save_setconfig(sc, p)
    body = open(p).read()
    # setconfig.rs:1719-1724 — the reference's exact header comment
    assert body.startswith("# ======")
    assert "# GraphRAG Configuration File" in body
    assert "# Complete configuration with extensive parameters for easy "
    assert load_setconfig(p) == sc


def test_toml_save_roundtrip_modified(tmp_path):
    from graphrag_rs_ray.setconfig import (SetConfig, load_setconfig,
                                           save_setconfig)
    sc = SetConfig()
    sc.mode.approach = "hybrid"
    sc.pipeline.text_extraction.chunk_size = 999
    sc.general.output_dir = 'weird "dir"\nwith\tescapes'
    sc.pipeline.workflows = ["extract_text"]
    sc.performance.worker_threads = 3
    p = str(tmp_path / "cfg.toml")
    save_setconfig(sc, p)
    rt = load_setconfig(p)
    assert rt == sc
    assert rt.general.output_dir == 'weird "dir"\nwith\tescapes'


def test_toml_save_roundtrip_control_chars(tmp_path):
    """Every C0 control character and DEL is escaped on save (TOML
    forbids them raw in basic strings), so the value round-trips."""
    from graphrag_rs_ray.setconfig import (SetConfig, dumps_setconfig,
                                           load_setconfig, save_setconfig)
    sc = SetConfig()
    sc.general.output_dir = "".join(map(chr, range(0x20))) + "a\x7fb"
    assert "\\u007F" in dumps_setconfig(sc)
    p = str(tmp_path / "cfg.toml")
    save_setconfig(sc, p)
    assert load_setconfig(p).general.output_dir == sc.general.output_dir
