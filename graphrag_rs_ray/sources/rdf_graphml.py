"""RDF (N-Triples) and GraphML graph import — REAL implementations.

The reference declares both importers but ships them as TODO stubs that
silently import nothing (``pipeline/data_import.rs:533-556``: "TODO:
Implement RDF parsing", "TODO: Implement GraphML parsing").  This module
implements them for real, mapping both formats onto the reference's
import model (``ImportedEntity``/``ImportedRelationship``,
``data_import.rs:60-100``) with the reference's validation + max-errors
abort (``data_import.rs:560+``): parse errors accumulate up to
``ImportConfig.max_errors``, then the import raises ``ImportAborted``.
The reference's sequential early abort depends on row order, so the
distributed contract is "abort if TOTAL errors >= max_errors", checked
at the driver after the parse pass.

N-Triples semantics (documented extension — the reference fixes none):
- ``<s> <p> <o> .`` with an IRI/blank object → one relationship row
  (source = subject term, target = object term, relation_type = the
  predicate's local name).  ``rdf:type`` triples are routed to the
  subject entity's ``entity_type`` instead (local name of the class
  IRI; lexicographic min when several).
- ``<s> <p> "literal" .`` (optional ``^^<dtype>`` / ``@lang`` suffix)
  → a fact about the subject entity: predicate local name ``label``
  (rdfs:label and friends) sets the entity name; any other literal
  predicate becomes an ``attributes`` entry.  Min-per-key keeps the
  merge deterministic under any partitioning.
- One entity row per distinct SUBJECT: ``id`` = the subject term,
  ``name`` = min label literal (default: the subject's local name),
  ``entity_type`` = min rdf:type local name (default ``"Entity"``).
- Blank lines and ``#`` comments are skipped; any other unparseable
  line is an error row and counts toward ``max_errors``.

GraphML semantics: ``<key id=.. for=node|edge attr.name=..>``
declarations map data keys to attribute names; ``<node id=..>`` →
entity (name = its ``name`` data value, default the node id;
entity_type = its ``type`` data value, default ``"Entity"``; remaining
data values → attributes); ``<edge source=.. target=..>`` →
relationship (relation_type = its ``type`` data value, default
``"RELATED_TO"``; remaining data values → attributes).  Nodes missing
``id`` and edges missing ``source``/``target`` are error rows.

Ray design: N-Triples lines stream through ``read_text`` → a stateless
vectorized parse (compiled regexes) → the per-subject entity merge runs
as ``hash_grouped_aggregate`` over the subject key (high-cardinality —
never a native groupby, per the repo rule).  GraphML parallelises per
FILE (``read_binary_files`` → one ElementTree parse per file inside
``map_batches``): XML nesting makes sub-file splits unsound, and
GraphML is an interchange format whose natural shard unit is the file —
documented scale bound.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc


class ImportAborted(Exception):
    pass


@dataclass
class ImportConfig:
    skip_validation: bool = False
    max_errors: int = 10

RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

# <s> <p> <o> .   (object = IRI or blank node)
_NT_RESOURCE = re.compile(
    r'^\s*(?:<([^>]*)>|(_:\S+))\s+<([^>]*)>\s+(?:<([^>]*)>|(_:\S+))\s*\.\s*$')
# <s> <p> "literal"(^^<dtype> | @lang)? .
_NT_LITERAL = re.compile(
    r'^\s*(?:<([^>]*)>|(_:\S+))\s+<([^>]*)>\s+"((?:[^"\\]|\\.)*)"'
    r'(?:\^\^<[^>]*>|@[A-Za-z0-9-]+)?\s*\.\s*$')

_PARSED_SCHEMA = pa.schema([
    ("kind", pa.string()),       # "r"=resource triple, "l"=literal, "x"=error
    ("subj", pa.string()), ("pred_local", pa.string()),
    ("obj", pa.string()),        # resource object term / literal value
    ("obj_local", pa.string()),  # local name of a resource object ("" for literals)
    ("is_type", pa.int32()),     # 1 iff predicate is rdf:type
    ("error", pa.string()),
])


def _local_name(term: str) -> str:
    """Substring after the last '#' or '/', the whole term otherwise."""
    for sep in ("#", "/"):
        idx = term.rfind(sep)
        if idx >= 0 and idx + 1 < len(term):
            return term[idx + 1:]
    return term


_NT_UNESCAPE = re.compile(r"\\(.)")
_NT_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\"}


def _unescape_nt(lit: str) -> str:
    """N-Triples string-literal escapes (subset: the JSON-compatible
    ones).  Single left-to-right pass — a replace() chain corrupts
    ``\\\\t`` (escaped backslash followed by 't'): the earlier
    ``\\t``→TAB replace consumes the second backslash."""
    if "\\" not in lit:
        return lit
    return _NT_UNESCAPE.sub(
        lambda m: _NT_ESCAPES.get(m.group(1), m.group(1)), lit)


def parse_ntriples_batch(batch) -> pa.Table:
    """Stateless line→parsed-triple kernel (one compiled-regex match per
    line; comments/blank lines dropped, malformed lines become error
    rows)."""
    out = {name: [] for name in _PARSED_SCHEMA.names}

    def emit(kind, subj="", pred="", obj="", obj_local="", is_type=0, err=""):
        out["kind"].append(kind); out["subj"].append(subj)
        out["pred_local"].append(pred); out["obj"].append(obj)
        out["obj_local"].append(obj_local); out["is_type"].append(is_type)
        out["error"].append(err)

    for line in batch["text"]:
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        m = _NT_RESOURCE.match(s)
        if m:
            subj = m.group(1) if m.group(1) is not None else m.group(2)
            pred = m.group(3)
            obj = m.group(4) if m.group(4) is not None else m.group(5)
            emit("r", subj, _local_name(pred), obj, _local_name(obj),
                 1 if pred == RDF_TYPE_IRI else 0)
            continue
        m = _NT_LITERAL.match(s)
        if m:
            subj = m.group(1) if m.group(1) is not None else m.group(2)
            emit("l", subj, _local_name(m.group(3)), _unescape_nt(m.group(4)))
            continue
        emit("x", err=f"unparseable N-Triples line: {s[:120]}")
    arrays = {n: pa.array(out[n], _PARSED_SCHEMA.field(n).type)
              for n in _PARSED_SCHEMA.names}
    return pa.table(arrays)


def _entities_from_facts(group: pa.Table) -> pa.Table:
    """Per-bucket subject merge: min label → name, min rdf:type local →
    entity_type, min-per-key literals → sorted-JSON attributes.

    Fully vectorized (columnar groupby-mins + one fragment-join pass for
    the JSON) — the first version looped Python over subjects and cost
    ~0.08 ms/subject, 160 s at 2M subjects."""
    import pandas as pd
    df = group.to_pandas()
    subjects = pd.Index(df["subj"].unique(), name="subj")
    out = pd.DataFrame(index=subjects)

    lit = df[df["kind"] == "l"]
    labels = lit[lit["pred_local"] == "label"].groupby("subj")["obj"].min()
    types = (df[(df["kind"] == "r") & (df["is_type"] == 1)]
             .groupby("subj")["obj_local"].min())

    attrs = lit[lit["pred_local"] != "label"]
    if len(attrs):
        kv = attrs.groupby(["subj", "pred_local"])["obj"].min().reset_index()
        # json.dumps(..., sort_keys=True) equivalence: escape each piece,
        # join fragments in key order within the subject
        frag = (kv["pred_local"].map(json.dumps) + ": "
                + kv["obj"].map(json.dumps))
        kv = kv.assign(frag=frag).sort_values(["subj", "pred_local"])
        attr_json = "{" + kv.groupby("subj")["frag"].agg(", ".join) + "}"
    else:
        attr_json = pd.Series(dtype=object)

    # default name = the subject's local name (same '([^/#]+)$' rule as
    # _local_name for well-formed terms; whole term when no match)
    default_name = (out.index.to_series().str.extract(r"([^/#]+)$",
                                                      expand=False)
                    .fillna(out.index.to_series()))
    out["name"] = labels.reindex(subjects).fillna(default_name)
    out["entity_type"] = types.reindex(subjects).fillna("Entity")
    out["attributes"] = attr_json.reindex(subjects).fillna("{}")
    return pa.table({
        "id": pa.array(subjects.to_numpy(), pa.string()),
        "name": pa.array(out["name"].to_numpy(), pa.string()),
        "entity_type": pa.array(out["entity_type"].to_numpy(), pa.string()),
        "attributes": pa.array(out["attributes"].to_numpy(), pa.string()),
    })


def _nt_split(parsed, cfg: ImportConfig, num_buckets: int):
    """Shared abort check + routing for the N-Triples-shaped parse
    stream (import_rdf and import_turtle)."""
    from ..stages.hashagg import hash_grouped_aggregate

    n_errors = parsed.map_batches(
        lambda t: pa.table({"n": [t.filter(pc.equal(t.column("kind"), "x")).num_rows]}),
        batch_format="pyarrow").sum("n") or 0
    if not cfg.skip_validation and n_errors >= cfg.max_errors:
        raise ImportAborted(f"{n_errors} errors (max {cfg.max_errors})")

    def rels(t: pa.Table) -> pa.Table:
        r = t.filter(pc.and_(pc.equal(t.column("kind"), "r"),
                             pc.equal(t.column("is_type"), 0)))
        return pa.table({
            "source": r.column("subj"),
            "target": r.column("obj"),
            "relation_type": r.column("pred_local"),
            "attributes": pa.array(["{}"] * r.num_rows, pa.string()),
        })

    relationships = parsed.map_batches(rels, batch_format="pyarrow")
    facts = parsed.map_batches(
        lambda t: t.filter(pc.not_equal(t.column("kind"), "x")),
        batch_format="pyarrow")
    entities = hash_grouped_aggregate(facts, ["subj"], _entities_from_facts,
                                      num_buckets=num_buckets)
    errors = parsed.map_batches(
        lambda t: t.filter(pc.equal(t.column("kind"), "x")).select(["error"]),
        batch_format="pyarrow")
    return entities, relationships, errors


def import_rdf(path: str, cfg: ImportConfig | None = None,
               num_buckets: int = 64):
    """N-Triples file(s) → (entities_ds, relationships_ds, errors_ds).
    Raises ``ImportAborted`` when parse-error count reaches
    ``max_errors`` (the distributed-abort contract in the module
    docstring: abort iff TOTAL errors ≥ max)."""
    import ray.data as rd

    cfg = cfg or ImportConfig()
    parsed = (rd.read_text(path)
              .map_batches(parse_ntriples_batch, batch_format="numpy")
              .materialize())
    return _nt_split(parsed, cfg, num_buckets)


# ------------------------------------------------- Turtle-lite front end

_TTL_PREFIX = re.compile(
    r'^\s*@prefix\s+([A-Za-z_][\w.-]*)?:\s*<([^>]*)>\s*\.\s*$')
_TTL_PNAME = re.compile(r'^([A-Za-z_][\w.-]*)?:([^\s<>"]*)$')


def read_turtle_prefixes(path: str) -> dict[str, str]:
    """Collect ``@prefix`` declarations from the header of each ``.ttl``
    file (prefixes are file-scoped state, so this is the one driver-side
    pass — it reads only the leading declaration block of each file,
    never the body).  Files sharing a directory must agree on any prefix
    they both declare (the common one-exporter case); a conflict aborts."""
    import os as _os
    paths = ([path] if _os.path.isfile(path) else
             sorted(_os.path.join(path, f) for f in _os.listdir(path)
                    if f.endswith((".ttl", ".turtle"))))
    prefixes: dict[str, str] = {}
    for p in paths:
        with open(p) as f:
            for line in f:
                s = line.strip()
                if not s or s.startswith("#"):
                    continue
                m = _TTL_PREFIX.match(s)
                if not m:
                    break              # header over — body starts
                name, iri = m.group(1) or "", m.group(2)
                if name in prefixes and prefixes[name] != iri:
                    raise ImportAborted(
                        f"conflicting @prefix {name}: across files")
                prefixes[name] = iri
    return prefixes


def turtle_lines_to_ntriples(batch, prefixes: dict[str, str]):
    """Vectorized Turtle-lite → N-Triples line rewrite: expands prefixed
    names and the ``a`` keyword on ONE-TRIPLE-PER-LINE statements.
    Documented subset (the reference fixes no semantics — its RDF import
    is a stub): ``;`` / ``,`` continuation lines are routed to error rows
    rather than silently misparsed; ``@prefix`` lines pass through as
    comments (already collected by the driver pass)."""
    out = []

    def term(tok: str, pos: int):
        if tok.startswith("<") or tok.startswith("_:") or tok.startswith('"'):
            return tok
        if tok == "a" and pos == 1:
            return f"<{RDF_TYPE_IRI}>"
        m = _TTL_PNAME.match(tok)
        if m and (m.group(1) or "") in prefixes:
            return f"<{prefixes[m.group(1) or '']}{m.group(2)}>"
        return None

    for line in batch["text"]:
        s = line.strip()
        if not s or s.startswith("#") or _TTL_PREFIX.match(s):
            continue
        if s.endswith((";", ",")):
            out.append("\x00turtle-lite: statement continuation "
                       "(';'/',') unsupported: " + s[:100])
            continue
        if not s.endswith("."):
            out.append("\x00turtle-lite: unterminated statement: " + s[:100])
            continue
        body = s[:-1].rstrip()
        # split into 3 terms: quoted literal (with optional suffix) keeps
        # internal spaces — reuse the N-Triples literal tail if present
        mlit = re.match(r'^(\S+)\s+(\S+)\s+("(?:[^"\\]|\\.)*"'
                        r'(?:\^\^\S+|@[A-Za-z0-9-]+)?)$', body)
        if mlit:
            toks = [mlit.group(1), mlit.group(2), mlit.group(3)]
        else:
            toks = body.split()
        if len(toks) != 3:
            out.append("\x00turtle-lite: not a single-triple line: " + s[:100])
            continue
        expanded = [term(t, i) for i, t in enumerate(toks)]
        if any(e is None for e in expanded):
            out.append("\x00turtle-lite: unknown prefix in: " + s[:100])
            continue
        out.append(f"{expanded[0]} {expanded[1]} {expanded[2]} .")
    return {"text": out}


def import_turtle(path: str, cfg: ImportConfig | None = None,
                  num_buckets: int = 64):
    """Turtle-lite import: driver collects the ``@prefix`` headers, a
    stateless rewrite stage expands each line to N-Triples, and the
    N-Triples machinery does the rest (same outputs/abort contract as
    ``import_rdf``).  Lines outside the subset become error rows."""
    import numpy as np
    import ray.data as rd

    cfg = cfg or ImportConfig()
    prefixes = read_turtle_prefixes(path)

    def rewrite_and_parse(batch):
        rewritten = turtle_lines_to_ntriples(batch, prefixes)["text"]
        good = [l for l in rewritten if not l.startswith("\x00")]
        parsed = parse_ntriples_batch({"text": np.array(good, dtype=object)})
        ttl_errs = [l[1:] for l in rewritten if l.startswith("\x00")]
        if ttl_errs:
            err_tbl = pa.table({
                "kind": pa.array(["x"] * len(ttl_errs), pa.string()),
                "subj": pa.array([""] * len(ttl_errs), pa.string()),
                "pred_local": pa.array([""] * len(ttl_errs), pa.string()),
                "obj": pa.array([""] * len(ttl_errs), pa.string()),
                "obj_local": pa.array([""] * len(ttl_errs), pa.string()),
                "is_type": pa.array([0] * len(ttl_errs), pa.int32()),
                "error": pa.array([e[:200] for e in ttl_errs], pa.string()),
            })
            parsed = pa.concat_tables([parsed, err_tbl])
        return parsed

    parsed = (rd.read_text(path)
              .map_batches(rewrite_and_parse, batch_format="numpy")
              .materialize())
    return _nt_split(parsed, cfg, num_buckets)


# ------------------------------------------------------------ export side
#
# The reference's persistence docs list GraphML as "Export format for
# visualization tools (already implemented in core)"
# (``persistence/mod.rs:11``) but no export code exists anywhere in the
# workspace — like the importers, the export side ships aspirationally.
# Here both directions are real and ROUND-TRIP property-tested: importing
# an exported graph reproduces names / types / attributes / edges exactly
# (entity ids come back IRI-wrapped for N-Triples — documented below).

ENT_NS = "http://graft.local/entity/"
ATTR_NS = "http://graft.local/attr/"
REL_NS = "http://graft.local/rel/"
TYPE_NS = "http://graft.local/type/"
LABEL_IRI = "http://www.w3.org/2000/01/rdf-schema#label"


def _iri(ns: str, s: str) -> str:
    from urllib.parse import quote
    return ns + quote(s, safe="")


def _escape_nt(lit: str) -> str:
    return (lit.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t"))


def export_ntriples(entities_ds, rels_ds, out_dir: str) -> dict:
    """Distributed N-Triples sink: one ``part-<sha1>.nt`` shard per batch
    (content-hashed names — re-exporting identical data is idempotent).

    Entity ids / attribute keys / relation types are IRI-wrapped under
    ``http://graft.local/...`` with percent-encoding; ``import_rdf`` of
    the output reproduces name / entity_type / attributes / edges exactly
    for percent-safe ids (round-trip gate in ``tests``).  Bounds, both
    documented: relationship attributes are dropped (no edge attributes
    in plain N-Triples short of reification), and an entity ATTRIBUTE
    literally keyed ``label`` would re-import as the name fold.
    """
    import hashlib
    import os
    import shutil

    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    def write_entities(t: pa.Table) -> pa.Table:
        lines = []
        for row in t.to_pylist():
            s = f"<{_iri(ENT_NS, row['id'])}>"
            lines.append(f'{s} <{LABEL_IRI}> "{_escape_nt(row["name"])}" .')
            if row["entity_type"]:
                lines.append(f"{s} <{RDF_TYPE_IRI}> "
                             f"<{_iri(TYPE_NS, row['entity_type'])}> .")
            for k, v in sorted(json.loads(row["attributes"] or "{}").items()):
                lines.append(f'{s} <{_iri(ATTR_NS, k)}> "{_escape_nt(str(v))}" .')
        return _write_nt_shard(lines, out_dir, "e")

    def write_rels(t: pa.Table) -> pa.Table:
        lines = [f"<{_iri(ENT_NS, r['source'])}> "
                 f"<{_iri(REL_NS, r['relation_type'])}> "
                 f"<{_iri(ENT_NS, r['target'])}> ."
                 for r in t.to_pylist()]
        return _write_nt_shard(lines, out_dir, "r")

    def _write_nt_shard(lines, d, tag):
        if lines:
            content = "\n".join(lines) + "\n"
            h = hashlib.sha1(content.encode()).hexdigest()[:12]
            with open(os.path.join(d, f"part-{tag}-{h}.nt"), "w") as f:
                f.write(content)
        return pa.table({"n": pa.array([len(lines)], pa.int64())})

    n_e = entities_ds.map_batches(write_entities, batch_format="pyarrow").sum("n") or 0
    n_r = rels_ds.map_batches(write_rels, batch_format="pyarrow").sum("n") or 0
    return {"entity_triples": n_e, "relationship_triples": n_r,
            "out_dir": out_dir}


def export_graphml(entities_ds, rels_ds, out_dir: str) -> dict:
    """Distributed GraphML sink: each batch becomes one self-contained
    ``part-<sha1>.graphml`` document (its own key declarations for the
    attribute names it uses).  ``import_graphml`` of the directory
    reproduces ids / names / types / attributes / edges exactly
    (round-trip gate).  Bound, documented: a shard is a valid XML doc
    but not a self-contained subgraph — edges may reference nodes in
    other shards, so single-file visualization tools need a merge pass
    (the importer unions shards natively)."""
    import hashlib
    import os
    import shutil
    from xml.sax.saxutils import escape as _xml_escape, quoteattr

    def escape(s):
        # XML 1.0 line-end normalization folds a literal \r in TEXT
        # content to \n on parse — only a character reference survives
        # (attribute values are covered: quoteattr emits &#13; itself)
        return _xml_escape(s).replace("\r", "&#13;")

    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    def _doc(body_lines, key_lines):
        return "\n".join(
            ['<?xml version="1.0" encoding="UTF-8"?>',
             '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">']
            + key_lines + ['<graph edgedefault="directed">'] + body_lines
            + ["</graph>", "</graphml>"]) + "\n"

    def _write(doc: str, tag: str):
        h = hashlib.sha1(doc.encode()).hexdigest()[:12]
        with open(os.path.join(out_dir, f"part-{tag}-{h}.graphml"), "w") as f:
            f.write(doc)

    def write_entities(t: pa.Table) -> pa.Table:
        rows = t.to_pylist()
        attr_names = sorted({k for r in rows
                             for k in json.loads(r["attributes"] or "{}")})
        key_ids = {"name": "d0", "type": "d1"}
        key_ids.update({k: f"a{i}" for i, k in enumerate(attr_names)})
        key_lines = [f'<key id="{kid}" for="node" attr.name={quoteattr(k)}/>'
                     for k, kid in key_ids.items()]
        body = []
        for r in rows:
            data = [f'<data key="d0">{escape(r["name"])}</data>',
                    f'<data key="d1">{escape(r["entity_type"])}</data>']
            for k, v in sorted(json.loads(r["attributes"] or "{}").items()):
                data.append(f'<data key="{key_ids[k]}">{escape(str(v))}</data>')
            body.append(f'<node id={quoteattr(r["id"])}>{"".join(data)}</node>')
        if body:
            _write(_doc(body, key_lines), "e")
        return pa.table({"n": pa.array([len(rows)], pa.int64())})

    def write_rels(t: pa.Table) -> pa.Table:
        rows = t.to_pylist()
        attr_names = sorted({k for r in rows
                             for k in json.loads(r["attributes"] or "{}")})
        key_ids = {"type": "d3"}
        key_ids.update({k: f"b{i}" for i, k in enumerate(attr_names)})
        key_lines = [f'<key id="{kid}" for="edge" attr.name={quoteattr(k)}/>'
                     for k, kid in key_ids.items()]
        body = []
        for r in rows:
            data = [f'<data key="d3">{escape(r["relation_type"])}</data>']
            for k, v in sorted(json.loads(r["attributes"] or "{}").items()):
                data.append(f'<data key="{key_ids[k]}">{escape(str(v))}</data>')
            body.append(f'<edge source={quoteattr(r["source"])} '
                        f'target={quoteattr(r["target"])}>{"".join(data)}</edge>')
        if body:
            _write(_doc(body, key_lines), "r")
        return pa.table({"n": pa.array([len(rows)], pa.int64())})

    n_e = entities_ds.map_batches(write_entities, batch_format="pyarrow").sum("n") or 0
    n_r = rels_ds.map_batches(write_rels, batch_format="pyarrow").sum("n") or 0
    return {"nodes": n_e, "edges": n_r, "out_dir": out_dir}


# ---------------------------------------------------------------- GraphML

def _strip_ns(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _iter_graphml(source):
    """Streaming GraphML parse over a file-like object: ``iterparse``
    with element clearing — CONSTANT memory in the file size.  Yields
    ``("e", row)`` / ``("r", row)`` / ``("x", message)`` in document
    order.  ``<key>`` declarations are honored as encountered (the
    GraphML spec places them before the ``<graph>`` element)."""
    import xml.etree.ElementTree as ET

    key_names: dict[tuple[str, str], str] = {}

    def data_map(el, kind):
        vals = {}
        for d in el:
            if _strip_ns(d.tag) == "data" and d.get("key"):
                name = key_names.get((kind, d.get("key")), d.get("key"))
                vals[name] = d.text or ""
        return vals

    try:
        stack = []                     # open-element path (parents of el)
        for event, el in ET.iterparse(source, events=("start", "end")):
            if event == "start":
                stack.append(el)
                continue
            stack.pop()                # el just closed
            tag = _strip_ns(el.tag)
            if tag == "key":
                kid = el.get("id")
                if kid:
                    key_names[(el.get("for", "node"), kid)] = \
                        el.get("attr.name", kid)
            elif tag == "node":
                nid = el.get("id")
                if not nid:
                    yield ("x", "node missing id")
                else:
                    vals = data_map(el, "node")
                    name = vals.pop("name", nid)
                    etype = vals.pop("type", "Entity")
                    yield ("e", {"id": nid, "name": name, "entity_type": etype,
                                 "attributes": json.dumps(vals, sort_keys=True)})
            elif tag == "edge":
                src, tgt = el.get("source"), el.get("target")
                if not src or not tgt:
                    yield ("x", "edge missing source/target")
                else:
                    vals = data_map(el, "edge")
                    rtype = vals.pop("type", "RELATED_TO")
                    yield ("r", {"source": src, "target": tgt,
                                 "relation_type": rtype,
                                 "attributes": json.dumps(vals, sort_keys=True)})
            else:
                continue
            # memory bound: drop the processed subtree AND detach it from
            # its parent (the parent otherwise accumulates one empty
            # element per processed node/edge — GBs at 10^8 elements)
            el.clear()
            if stack:
                try:
                    stack[-1].remove(el)
                except ValueError:     # defensive: already detached
                    pass
    except ET.ParseError as ex:
        yield ("x", f"invalid GraphML XML: {ex}")


_GM_COLS = ["kind", "id", "name", "entity_type", "source", "target",
            "relation_type", "attributes", "error"]


def _gm_rows_to_table(rows: list[dict]) -> pa.Table:
    out = {c: [] for c in _GM_COLS}
    for kind, item in rows:
        row = dict.fromkeys(_GM_COLS, None)
        if kind == "x":
            row.update(kind="x", error=str(item)[:200])
        else:
            row.update(item, kind=kind)
        for c in _GM_COLS:
            out[c].append(row[c])
    return pa.table({c: pa.array(out[c], pa.string()) for c in _GM_COLS})


def import_graphml(path: str, cfg: ImportConfig | None = None):
    """GraphML file(s)/dir → (entities_ds, relationships_ds, errors_ds);
    parallel per file (see module docstring for the scale bound).  For
    ONE file too large for per-file memory, use
    ``import_graphml_stream`` (constant-memory iterparse)."""
    import ray.data as rd

    cfg = cfg or ImportConfig()

    def parse(batch) -> pa.Table:
        rows = []
        for blob in batch["bytes"]:
            import io
            rows.extend(_iter_graphml(io.BytesIO(bytes(blob))))
        return _gm_rows_to_table(rows)

    parsed = (rd.read_binary_files(path)
              .map_batches(parse, batch_format="numpy")
              .materialize())
    return _gm_split(parsed, cfg)


def _gm_split(parsed, cfg: ImportConfig):
    """Shared abort check + kind routing for the GraphML import paths."""
    n_errors = parsed.map_batches(
        lambda t: pa.table({"n": [t.filter(pc.equal(t.column("kind"), "x")).num_rows]}),
        batch_format="pyarrow").sum("n") or 0
    if not cfg.skip_validation and n_errors >= cfg.max_errors:
        raise ImportAborted(f"{n_errors} errors (max {cfg.max_errors})")

    def select(kind, cols):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t.column("kind"), kind)).select(cols)
        return fn

    entities = parsed.map_batches(
        select("e", ["id", "name", "entity_type", "attributes"]),
        batch_format="pyarrow")
    rels = parsed.map_batches(
        select("r", ["source", "target", "relation_type", "attributes"]),
        batch_format="pyarrow")
    errors = parsed.map_batches(select("x", ["error"]), batch_format="pyarrow")
    return entities, rels, errors


def import_graphml_stream(path: str, cfg: ImportConfig | None = None,
                          batch_rows: int = 8192):
    """Single-huge-file GraphML path: still one task per FILE (XML
    nesting forbids sub-file splits), but the parse is a GENERATOR UDF
    over ``_iter_graphml`` — it yields bounded row batches as iterparse
    advances, so worker memory is constant in the file size and
    downstream operators stream (``read_binary_files`` in
    ``import_graphml`` would hold the whole file's bytes).  Output is
    identical to ``import_graphml`` (equality-gated in tests)."""
    import os as _os

    import ray.data as rd

    cfg = cfg or ImportConfig()
    paths = ([path] if _os.path.isfile(path) else
             sorted(_os.path.join(path, f) for f in _os.listdir(path)
                    if not f.startswith(".")))

    def parse(batch):
        for p in batch["path"]:
            buf = []
            with open(p, "rb") as f:
                for item in _iter_graphml(f):
                    buf.append(item)
                    if len(buf) >= batch_rows:
                        yield _gm_rows_to_table(buf)
                        buf = []
            if buf:
                yield _gm_rows_to_table(buf)

    parsed = (rd.from_items([{"path": p} for p in paths])
              .repartition(max(len(paths), 1))
              .map_batches(parse, batch_format="numpy")
              .materialize())
    return _gm_split(parsed, cfg)
