"""Hypothesis gates for the RDF/GraphML interchange kernels (pure
functions — no Ray session needed).

Properties:
- render→parse inverse for arbitrary N-Triples terms/literals (the
  renderer here mirrors `export_ntriples`'s line shapes);
- `_escape_nt` / `_unescape_nt` are mutual inverses on any text;
- a parsed literal never leaks its datatype/lang suffix even when the
  literal body ends in escaped quotes;
- `_iter_graphml`, the parse both GraphML importers run, round-trips
  node/edge data through the same escaping the exporter uses
  (XML-1.0-legal payloads).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from graphrag_rs_ray.sources.rdf_graphml import (
    RDF_TYPE_IRI, _escape_nt, _iter_graphml, _local_name, _unescape_nt,
    parse_ntriples_batch)

# IRI bodies: no angle brackets (the N-Triples delimiter), no whitespace
iri_body = st.text(
    alphabet=st.characters(blacklist_characters="<> \t\n\r",
                           blacklist_categories=("Cs",)),
    min_size=1, max_size=40)
# literal payloads: anything except the line separator the reader splits
# on (a real \n inside a literal is escaped by the renderer, so allowed)
literal = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60)


def _parse_lines(lines):
    import numpy as np
    return parse_ntriples_batch({"text": np.array(lines, dtype=object)})


@settings(max_examples=300, deadline=None)
@given(literal)
def test_nt_escape_roundtrip(s):
    assert _unescape_nt(_escape_nt(s)) == s


# escape-dense alphabet: the original strategy almost never produced
# adjacent backslash+specials, which hid a real replace-chain bug
# ('\\' + 't' corrupted to '\\' + TAB on re-import)
escape_dense = st.text(alphabet='\\"tnr\t\n\r x', max_size=30)


@settings(max_examples=500, deadline=None)
@given(escape_dense)
def test_nt_escape_roundtrip_dense(s):
    assert _unescape_nt(_escape_nt(s)) == s


@settings(max_examples=300, deadline=None)
@given(iri_body, iri_body, iri_body)
def test_nt_resource_line_roundtrip(s, p, o):
    t = _parse_lines([f"<{s}> <{p}> <{o}> ."])
    assert t.num_rows == 1
    row = t.to_pylist()[0]
    assert row["kind"] == "r"
    assert row["subj"] == s
    assert row["pred_local"] == _local_name(p)
    assert row["obj"] == o
    assert row["is_type"] == (1 if p == RDF_TYPE_IRI else 0)


@settings(max_examples=300, deadline=None)
@given(iri_body, iri_body, literal,
       st.sampled_from(["", "^^<http://www.w3.org/2001/XMLSchema#string>",
                        "@en", "@zh-Hans"]))
def test_nt_literal_line_roundtrip(s, p, lit, suffix):
    t = _parse_lines([f'<{s}> <{p}> "{_escape_nt(lit)}"{suffix} .'])
    assert t.num_rows == 1
    row = t.to_pylist()[0]
    assert row["kind"] == "l"
    assert row["subj"] == s
    assert row["pred_local"] == _local_name(p)
    assert row["obj"] == lit        # suffix never leaks into the value


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(
    ["", "   ", "# comment", "not a triple", "<a> <b> .", '<a> "x" <b> .']),
    max_size=6))
def test_nt_garbage_never_parses_as_triple(lines):
    t = _parse_lines(lines)
    kinds = set(t.column("kind").to_pylist())
    assert kinds <= {"x"}           # blanks/comments skipped, rest errors


pname_local = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                           whitelist_characters="._-"),
    min_size=1, max_size=20)


@settings(max_examples=300, deadline=None)
@given(pname_local, pname_local, pname_local,
       st.sampled_from(["l", "r", "t"]), literal)
def test_turtle_expansion_matches_direct_ntriples(ls, lp, lo, shape, lit):
    """Rendering a triple with prefixed names and expanding it must parse
    identically to rendering the same triple as raw N-Triples."""
    from graphrag_rs_ray.sources.rdf_graphml import turtle_lines_to_ntriples
    prefixes = {"ex": "http://ex.org/ns/", "": "http://ex.org/default/"}
    s_full = f"http://ex.org/ns/{ls}"
    p_full = f"http://ex.org/ns/{lp}"
    if shape == "l":
        from graphrag_rs_ray.sources.rdf_graphml import _escape_nt
        ttl = f'ex:{ls} ex:{lp} "{_escape_nt(lit)}" .'
        nt = f'<{s_full}> <{p_full}> "{_escape_nt(lit)}" .'
    elif shape == "r":
        ttl = f"ex:{ls} ex:{lp} :{lo} ."
        nt = f"<{s_full}> <{p_full}> <http://ex.org/default/{lo}> ."
    else:
        ttl = f"ex:{ls} a ex:{lo} ."
        nt = (f"<{s_full}> "
              f"<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
              f"<http://ex.org/ns/{lo}> .")
    import numpy as np
    expanded = turtle_lines_to_ntriples(
        {"text": np.array([ttl], dtype=object)}, prefixes)["text"]
    assert len(expanded) == 1 and not expanded[0].startswith("\x00"), ttl
    a = _parse_lines(expanded).to_pylist()
    b = _parse_lines([nt]).to_pylist()
    assert a == b


xml_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=40)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(xml_text, xml_text), min_size=1, max_size=4))
def test_graphml_data_roundtrip(pairs):
    from xml.sax.saxutils import escape, quoteattr
    # one node carrying each (key-name, value) pair, exporter-style
    keys, data = [], []
    for i, (kname, v) in enumerate(pairs):
        keys.append(f'<key id="a{i}" for="node" attr.name={quoteattr(kname)}/>')
        data.append(f'<data key="a{i}">{escape(v)}</data>')
    doc = ("<graphml>" + "".join(keys)
           + '<graph><node id="n0">' + "".join(data)
           + "</node></graph></graphml>")
    import io
    items = list(_iter_graphml(io.BytesIO(doc.encode())))
    ents = [row for kind, row in items if kind == "e"]
    rels = [row for kind, row in items if kind == "r"]
    errors = [row for kind, row in items if kind == "x"]
    assert not errors and len(ents) == 1 and not rels
    import json
    # replay the importer's documented fold: document order, last
    # duplicate wins, then name/type pop out of the attribute map
    vals = {}
    for kname, v in pairs:
        vals[kname] = v
    want_name = vals.pop("name", "n0")
    want_type = vals.pop("type", "Entity")
    assert ents[0]["name"] == want_name
    assert ents[0]["entity_type"] == want_type
    assert json.loads(ents[0]["attributes"]) == vals
