"""Config loader family vs the reference's own tests
(``config/{loader,json5_loader,schema_validator}.rs``)."""

import pytest

from graphrag_rs_ray.config_ext import (
    ValidationResult,
    config_format_from_extension,
    convert_raw_config,
    detect_config_format,
    format_mime_type,
    load_config,
    load_json5_config,
    parse_json5_str,
    save_json5_config,
    validate_config,
)


def test_config_format_detection():
    # loader.rs:613-620 — unknown defaults to toml
    assert config_format_from_extension("a.toml") == "toml"
    assert config_format_from_extension("a.json") == "json"
    assert config_format_from_extension("a.yml") == "yaml"
    assert config_format_from_extension("a.xyz") == "toml"


def test_load_config_applies_only_five_fields(tmp_path):
    p = tmp_path / "c.toml"
    p.write_text("""
[entity_extraction]
min_confidence = 0.9
use_gleaning = true

[graph_construction]
extract_relationships = false
relationship_confidence_threshold = 0.55

[parallel_processing]
enabled = false
max_threads = 4

[text_processing]
chunk_size = 123
""")
    cfg = load_config(str(p))
    assert cfg.entities.min_confidence == 0.9
    assert cfg.graph.extract_relationships is False
    assert cfg.graph.relationship_confidence_threshold == 0.55
    assert cfg.parallel.enabled is False
    assert cfg.parallel.num_threads == 4
    # chunk_size arm is a comment in the reference (pinned): defaults
    # untouched elsewhere


def test_load_config_zero_threads_means_cpu_count(tmp_path):
    import os
    p = tmp_path / "c.json"
    p.write_text('{"parallel_processing": {"max_threads": 0}}')
    cfg = load_config(str(p))
    assert cfg.parallel.num_threads == (os.cpu_count() or 1)


def test_load_config_missing_file():
    with pytest.raises(FileNotFoundError, match="not found"):
        load_config("/tmp/definitely/not/here.toml")


def test_parse_json5_with_comments():
    # json5_loader.rs:163-176
    cfg = parse_json5_str("""
    {
        // A comment
        name: "test", /* inline */
        value: 42,
        enabled: true,  // trailing comma next
    }
    """)
    assert cfg == {"name": "test", "value": 42, "enabled": True}


def test_parse_json5_with_single_quotes():
    # :178-188
    cfg = parse_json5_str("{'name': 'single', 'value': 1, "
                          "'enabled': false}")
    assert cfg == {"name": "single", "value": 1, "enabled": False}


def test_json5_roundtrip_and_detect(tmp_path):
    # :190-199 — detect returns None for unknown (unlike loader.rs)
    assert detect_config_format("x.json5") == "json5"
    assert detect_config_format("x.JSON") == "json"
    assert detect_config_format("x.weird") is None
    assert format_mime_type("json5") == "application/json"
    p = tmp_path / "c.json5"
    save_json5_config({"a": 1}, str(p))
    assert load_json5_config(str(p)) == {"a": 1}


def test_validate_simple_config():
    # schema_validator.rs:235-277
    schema = {"type": "object",
              "properties": {"name": {"type": "string"},
                             "count": {"type": "integer",
                                       "minimum": 0}},
              "required": ["name"]}
    validate_config({"name": "x", "count": 3}, schema)
    with pytest.raises(ValueError, match="missing required"):
        validate_config({"count": 3}, schema)
    with pytest.raises(ValueError, match="expected type"):
        validate_config({"name": 5}, schema)
    with pytest.raises(ValueError, match="below minimum"):
        validate_config({"name": "x", "count": -1}, schema)


def test_validate_with_enum():
    # :279-298
    schema = {"type": "object",
              "properties": {"mode": {"type": "string",
                                      "enum": ["fast", "slow"]}}}
    validate_config({"mode": "fast"}, schema)
    with pytest.raises(ValueError, match="enum"):
        validate_config({"mode": "medium"}, schema)


def test_validation_result():
    # :300-312
    ok = ValidationResult.success()
    assert ok.valid and ok.format_errors() == "No validation errors"
    bad = ValidationResult.failure(
        [{"path": "/a", "message": "boom"}])
    assert not bad.valid and "- /a: boom" in bad.format_errors()

