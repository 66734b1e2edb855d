"""Config loading extensions — ports of
``graphrag-core/src/config/{loader,json5_loader,schema_validator}.rs``
(the SetConfig system itself is ``graphrag_rs_ray/setconfig.py``).

Semantics pinned:

- ``loader.rs``: extension → format (toml default for unknown), missing
  file error, per-format parse errors; ``RawConfig`` accepts the FULL
  19-section schema but ``convert_raw_config`` (``:449-505``) applies
  only FIVE fields — entity min_confidence, graph extract_relationships
  + relationship_confidence_threshold, parallel enabled + max_threads
  (0 → cpu count); every other arm is a comment (quirk, pinned).
- ``json5_loader.rs``: JSON5 parsing (the json5 crate; this port ships
  a scanner that strips // and /* */ comments outside strings,
  converts single-quoted strings, quotes bare identifier keys and
  drops trailing commas — covering the reference's own test corpus),
  save falls back to pretty JSON (same as the reference), format
  detection returns None for unknown extensions (unlike loader.rs!),
  extension + MIME tables.
- ``schema_validator.rs``: config-vs-JSON-Schema validation (the
  jsonschema crate; this port implements the subset its tests and
  schemas exercise: type, properties, required, enum, items,
  minimum/maximum, additionalProperties pass-through), error paths
  formatted ``path: message``, ValidationResult success/failure/
  format_errors.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field


# ---------------------------------------------------------- loader --

def config_format_from_extension(path: str) -> str:
    """``loader.rs:28-38`` — toml is the default for unknown."""
    ext = os.path.splitext(path)[1].lstrip(".")
    if ext == "toml":
        return "toml"
    if ext == "json":
        return "json"
    if ext in ("yaml", "yml"):
        return "yaml"
    return "toml"


@dataclass
class LegacyEntitiesConfig:
    min_confidence: float = 0.7


@dataclass
class LegacyGraphConfig:
    extract_relationships: bool = True
    relationship_confidence_threshold: float = 0.8


@dataclass
class LegacyParallelConfig:
    enabled: bool = True
    num_threads: int = 0


@dataclass
class LegacyConfig:
    """The slice of graphrag-core's main ``Config`` that
    ``convert_raw_config`` actually touches."""
    entities: LegacyEntitiesConfig = field(
        default_factory=LegacyEntitiesConfig)
    graph: LegacyGraphConfig = field(default_factory=LegacyGraphConfig)
    parallel: LegacyParallelConfig = field(
        default_factory=LegacyParallelConfig)


def convert_raw_config(raw: dict) -> LegacyConfig:
    """``loader.rs:449-505`` — five applied fields; everything else in
    the 19-section RawConfig is parsed and DROPPED (pinned quirk)."""
    config = LegacyConfig()
    ee = raw.get("entity_extraction", {}) or {}
    if ee.get("min_confidence") is not None:
        config.entities.min_confidence = ee["min_confidence"]
    gc = raw.get("graph_construction", {}) or {}
    if gc.get("extract_relationships") is not None:
        config.graph.extract_relationships = gc["extract_relationships"]
    if gc.get("relationship_confidence_threshold") is not None:
        config.graph.relationship_confidence_threshold = \
            gc["relationship_confidence_threshold"]
    pp = raw.get("parallel_processing", {}) or {}
    if pp.get("enabled") is not None:
        config.parallel.enabled = pp["enabled"]
    if pp.get("max_threads") is not None:
        mt = pp["max_threads"]
        config.parallel.num_threads = (os.cpu_count() or 1) if mt == 0 \
            else mt
    return config


def load_config(path: str) -> LegacyConfig:
    """``loader.rs:40-58``."""
    fmt = config_format_from_extension(path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"Configuration file not found: {path}")
    with open(path) as f:
        content = f.read()
    if fmt == "toml":
        import tomllib
        try:
            raw = tomllib.loads(content)
        except tomllib.TOMLDecodeError as e:
            raise ValueError(f"Failed to parse TOML config: {e}")
    elif fmt == "json":
        try:
            raw = json.loads(content)
        except json.JSONDecodeError as e:
            raise ValueError(f"Failed to parse JSON config: {e}")
    else:
        try:
            import yaml                              # noqa: F401
        except ImportError:
            raise ValueError(
                "YAML support not enabled. Enable 'yaml-support' "
                "feature.")
        raw = yaml.safe_load(content)
    return convert_raw_config(raw or {})


# ----------------------------------------------------------- JSON5 --

def json5_to_json(text: str) -> str:
    """Scanner: strip comments outside strings, normalize
    single-quoted strings, quote bare identifier keys, drop trailing
    commas."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*"
                                     and text[i + 1] == "/"):
                i += 1
            i += 2
        elif c == '"' or c == "'":
            quote = c
            buf = []
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    buf.append(text[i:i + 2])
                    i += 2
                else:
                    buf.append(text[i])
                    i += 1
            i += 1
            inner = "".join(buf)
            if quote == "'":
                inner = inner.replace("\\'", "'").replace('"', '\\"')
            out.append('"' + inner + '"')
        else:
            out.append(c)
            i += 1
    s = "".join(out)
    # bare identifier keys → quoted
    s = re.sub(r'([{,]\s*)([A-Za-z_$][A-Za-z0-9_$]*)(\s*:)',
               r'\1"\2"\3', s)
    # trailing commas
    s = re.sub(r",(\s*[}\]])", r"\1", s)
    return s


def parse_json5_str(contents: str):
    """``json5_loader.rs:59-67``."""
    try:
        return json.loads(json5_to_json(contents))
    except json.JSONDecodeError as e:
        raise ValueError(f"Failed to parse JSON5: {e}")


def load_json5_config(path: str):
    try:
        with open(path) as f:
            contents = f.read()
    except OSError as e:
        raise ValueError(f"Failed to read JSON5 file {path!r}: {e}")
    return parse_json5_str(contents)


def save_json5_config(config, path: str):
    """``:83-101`` — the reference serializes pretty JSON (the json5
    crate has no pretty printer)."""
    with open(path, "w") as f:
        f.write(json.dumps(config, indent=2))


def detect_config_format(path: str) -> str | None:
    """``:104-114`` — None for unknown (loader.rs defaults instead)."""
    ext = os.path.splitext(path)[1].lstrip(".").lower()
    return {"json5": "json5", "json": "json", "toml": "toml",
            "yaml": "yaml", "yml": "yaml"}.get(ext)


def format_extension(fmt: str) -> str:
    return {"json5": "json5", "json": "json", "toml": "toml",
            "yaml": "yaml"}[fmt]


def format_mime_type(fmt: str) -> str:
    return {"json5": "application/json", "json": "application/json",
            "toml": "application/toml",
            "yaml": "application/x-yaml"}[fmt]


# ------------------------------------------------- schema validation --

_TYPES = {"object": dict, "array": list, "string": str,
          "boolean": bool, "null": type(None)}


def _check(value, schema, path: str, errors: list[str]):
    t = schema.get("type")
    if t is not None:
        if t == "integer":
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif t == "number":
            ok = (isinstance(value, (int, float))
                  and not isinstance(value, bool))
        else:
            ok = isinstance(value, _TYPES.get(t, object))
            if t in ("object", "array", "string") \
                    and isinstance(value, bool):
                ok = False
        if not ok:
            errors.append(f"{path or '/'}: expected type '{t}'")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path or '/'}: value not in enum")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path or '/'}: below minimum")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{path or '/'}: above maximum")
    if isinstance(value, dict):
        for req in schema.get("required", []):
            if req not in value:
                errors.append(f"{path or '/'}: missing required "
                              f"property '{req}'")
        props = schema.get("properties", {})
        for k, v in value.items():
            if k in props:
                _check(v, props[k], f"{path}/{k}", errors)
    if isinstance(value, list) and "items" in schema:
        for idx, item in enumerate(value):
            _check(item, schema["items"], f"{path}/{idx}", errors)


def validate_config(config_value, schema_value) -> None:
    """``schema_validator.rs:34-71`` — raises ValueError with
    newline-joined ``path: message`` lines on failure."""
    errors: list[str] = []
    _check(config_value, schema_value, "", errors)
    if errors:
        raise ValueError("Config validation failed:\n"
                         + "\n".join(errors))


def validate_config_file(config_path: str, schema_path: str):
    with open(schema_path) as f:
        schema = json.load(f)
    if config_path.endswith(".json5"):
        cfg = load_json5_config(config_path)
    else:
        with open(config_path) as f:
            cfg = json.load(f)
    validate_config(cfg, schema)


@dataclass
class ValidationResult:
    """``schema_validator.rs:169-232``."""
    valid: bool
    errors: list = field(default_factory=list)

    @staticmethod
    def success() -> "ValidationResult":
        return ValidationResult(True, [])

    @staticmethod
    def failure(errors: list) -> "ValidationResult":
        return ValidationResult(False, errors)

    def format_errors(self) -> str:
        if self.valid:
            return "No validation errors"
        return "\n".join(f"  - {e['path']}: {e['message']}"
                         for e in self.errors)


__all__ = ["config_format_from_extension", "LegacyConfig",
           "convert_raw_config", "load_config", "json5_to_json",
           "parse_json5_str", "load_json5_config", "save_json5_config",
           "detect_config_format", "format_extension",
           "format_mime_type", "validate_config",
           "validate_config_file", "ValidationResult"]
