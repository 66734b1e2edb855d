"""Data import (RDF/Turtle/GraphML + validation), graph
export, incremental merge strategies, checkpoint-resume and the graph
sink.  The file keeps its old name, from before the multimodal stubs
were cut, so its test ids stay stable."""

import json
import os

import pyarrow as pa
import pytest


NT_FIXTURE = """\
# a comment line
<http://ex.org/a> <http://www.w3.org/2000/01/rdf-schema#label> "Alpha" .
<http://ex.org/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/ns#Person> .
<http://ex.org/a> <http://ex.org/ns/knows> <http://ex.org/b> .
<http://ex.org/a> <http://ex.org/ns/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex.org/b> <http://ex.org/ns/greeting> "hi"@en .
_:blank1 <http://ex.org/ns/knows> _:blank2 .

not a triple at all
"""


def test_rdf_import(tmp_path):
    from graphrag_rs_ray.sources.rdf_graphml import (ImportAborted,
                                                     ImportConfig, import_rdf)
    p = tmp_path / "g.nt"
    p.write_text(NT_FIXTURE)
    ents, rels, errors = import_rdf(str(p))
    edf = ents.to_pandas().sort_values("id").reset_index(drop=True)
    assert list(edf["id"]) == ["_:blank1", "http://ex.org/a", "http://ex.org/b"]
    a = edf[edf["id"] == "http://ex.org/a"].iloc[0]
    assert a["name"] == "Alpha" and a["entity_type"] == "Person"
    assert a["attributes"] == '{"age": "42"}'
    b = edf[edf["id"] == "http://ex.org/b"].iloc[0]
    assert b["name"] == "b" and b["entity_type"] == "Entity"
    assert b["attributes"] == '{"greeting": "hi"}'
    rdf = rels.to_pandas()
    # rdf:type routed to entity_type, NOT a relationship
    assert sorted(zip(rdf["source"], rdf["target"], rdf["relation_type"])) == [
        ("_:blank1", "_:blank2", "knows"),
        ("http://ex.org/a", "http://ex.org/b", "knows"),
    ]
    assert errors.count() == 1
    with pytest.raises(ImportAborted):
        import_rdf(str(p), ImportConfig(max_errors=1))


TTL_FIXTURE = """\
# Turtle-lite fixture
@prefix ex: <http://ex.org/ns/> .
@prefix doc: <http://ex.org/doc/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

doc:a rdfs:label "Alpha" .
doc:a a ex:Person .
doc:a ex:knows doc:b .
doc:a ex:age "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex.org/doc/b> ex:greeting "hi"@en .
doc:c ex:knows doc:a ;
unknownprefix:x ex:y doc:z .
"""


def test_turtle_import(tmp_path):
    from graphrag_rs_ray.sources.rdf_graphml import (ImportAborted,
                                                     ImportConfig, import_turtle)
    p = tmp_path / "g.ttl"
    p.write_text(TTL_FIXTURE)
    ents, rels, errors = import_turtle(str(p))
    edf = ents.to_pandas().sort_values("id").reset_index(drop=True)
    assert list(edf["id"]) == ["http://ex.org/doc/a", "http://ex.org/doc/b"]
    a = edf.iloc[0]
    assert a["name"] == "Alpha" and a["entity_type"] == "Person"
    assert a["attributes"] == '{"age": "42"}'
    b = edf.iloc[1]
    assert b["name"] == "b" and b["attributes"] == '{"greeting": "hi"}'
    rdf = rels.to_pandas()
    assert sorted(zip(rdf["source"], rdf["target"], rdf["relation_type"])) == [
        ("http://ex.org/doc/a", "http://ex.org/doc/b", "knows"),
    ]
    # the ';' continuation and the unknown prefix each route to an error
    errs = sorted(errors.to_pandas()["error"])
    assert len(errs) == 2
    assert any("continuation" in e for e in errs)
    assert any("unknown prefix" in e for e in errs)
    with pytest.raises(ImportAborted):
        import_turtle(str(p), ImportConfig(max_errors=2))


def test_turtle_prefix_conflict(tmp_path):
    from graphrag_rs_ray.sources.rdf_graphml import (ImportAborted,
                                                     read_turtle_prefixes)
    d = tmp_path / "ttl"
    d.mkdir()
    (d / "a.ttl").write_text("@prefix ex: <http://a/> .\n")
    (d / "b.ttl").write_text("@prefix ex: <http://b/> .\n")
    with pytest.raises(ImportAborted):
        read_turtle_prefixes(str(d))


GRAPHML_FIXTURE = """\
<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="node" attr.name="name"/>
  <key id="d1" for="node" attr.name="type"/>
  <key id="d2" for="node" attr.name="note"/>
  <key id="d3" for="edge" attr.name="type"/>
  <graph edgedefault="directed">
    <node id="n0"><data key="d0">Ada</data><data key="d1">Person</data><data key="d2">x</data></node>
    <node id="n1"><data key="d0">Org Inc</data></node>
    <node id="n2"/>
    <edge source="n0" target="n1"><data key="d3">works_at</data></edge>
    <edge source="n1" target="n2"/>
    <edge source="n0"/>
  </graph>
</graphml>
"""


def test_graphml_import(tmp_path):
    from graphrag_rs_ray.sources.rdf_graphml import (ImportAborted,
                                                     ImportConfig, import_graphml)
    p = tmp_path / "g.graphml"
    p.write_text(GRAPHML_FIXTURE)
    ents, rels, errors = import_graphml(str(p))
    edf = ents.to_pandas().sort_values("id").reset_index(drop=True)
    assert list(edf["id"]) == ["n0", "n1", "n2"]
    assert list(edf["name"]) == ["Ada", "Org Inc", "n2"]
    assert list(edf["entity_type"]) == ["Person", "Entity", "Entity"]
    assert list(edf["attributes"]) == ['{"note": "x"}', "{}", "{}"]
    rdf = rels.to_pandas()
    assert sorted(zip(rdf["source"], rdf["target"], rdf["relation_type"])) == [
        ("n0", "n1", "works_at"), ("n1", "n2", "RELATED_TO"),
    ]
    assert errors.count() == 1          # the source-only edge
    with pytest.raises(ImportAborted):
        import_graphml(str(p), ImportConfig(max_errors=1))


def _graph_tables():
    import ray.data as rd
    ents = pa.table({
        "id": pa.array(["PERSON_ada lovelace", "ORG_acme", "n#3"], pa.string()),
        "name": pa.array(['Ada "the first" Lovelace', "Acme & Söhne", ""], pa.string()),
        "entity_type": pa.array(["Person", "Organization", "Entity"], pa.string()),
        "attributes": pa.array([json.dumps({"born": "1815", "note": "line1\nline2"}),
                                json.dumps({"country": "DE<>&"}), "{}"], pa.string()),
    })
    rels = pa.table({
        "source": pa.array(["PERSON_ada lovelace", "ORG_acme"], pa.string()),
        "target": pa.array(["ORG_acme", "n#3"], pa.string()),
        "relation_type": pa.array(["WORKS_AT", "RELATED_TO"], pa.string()),
        "attributes": pa.array([json.dumps({"since": "1840"}), "{}"], pa.string()),
    })
    return rd.from_arrow(ents), rd.from_arrow(rels), ents, rels


def test_ntriples_export_roundtrip(tmp_path):
    from urllib.parse import quote
    from graphrag_rs_ray.sources.rdf_graphml import (ENT_NS, export_ntriples,
                                                     import_rdf)
    ents_ds, rels_ds, ents, rels = _graph_tables()
    out = str(tmp_path / "nt")
    stats = export_ntriples(ents_ds, rels_ds, out)
    assert stats["relationship_triples"] == 2
    back_e, back_r, errors = import_rdf(out)
    assert errors.count() == 0
    bdf = back_e.to_pandas().set_index("id")
    for row in ents.to_pylist():
        b = bdf.loc[ENT_NS + quote(row["id"], safe="")]
        assert b["name"] == row["name"]
        assert b["entity_type"] == row["entity_type"]
        assert b["attributes"] == json.dumps(
            json.loads(row["attributes"]), sort_keys=True)
    got = sorted(zip(*[back_r.to_pandas()[c] for c in
                       ("source", "target", "relation_type")]))
    want = sorted((ENT_NS + quote(r["source"], safe=""),
                   ENT_NS + quote(r["target"], safe=""),
                   quote(r["relation_type"], safe=""))
                  for r in rels.to_pylist())
    assert got == want   # edge attributes drop by documented N-Triples bound


def test_graphml_export_roundtrip(tmp_path):
    from graphrag_rs_ray.sources.rdf_graphml import (export_graphml,
                                                     import_graphml)
    ents_ds, rels_ds, ents, rels = _graph_tables()
    out = str(tmp_path / "gm")
    stats = export_graphml(ents_ds, rels_ds, out)
    assert stats["nodes"] == 3 and stats["edges"] == 2
    back_e, back_r, errors = import_graphml(out)
    assert errors.count() == 0
    bdf = back_e.to_pandas().set_index("id")
    for row in ents.to_pylist():
        b = bdf.loc[row["id"]]
        assert b["name"] == row["name"]
        assert b["entity_type"] == row["entity_type"]
        assert b["attributes"] == json.dumps(
            json.loads(row["attributes"]), sort_keys=True)
    cols = ("source", "target", "relation_type", "attributes")
    got = sorted(zip(*[back_r.to_pandas()[c] for c in cols]))
    want = sorted((r["source"], r["target"], r["relation_type"],
                   json.dumps(json.loads(r["attributes"]), sort_keys=True))
                  for r in rels.to_pylist())
    assert got == want   # GraphML round-trips edge attributes too


NASTY = ['back\\slash', 'quo"te', "apos'trophe", "tab\there", "nl\nline2",
         "cr\rline2", "xml<&>meta", "uni-héß中文", "  leading spaces",
         "trailing. dot .", "a]]>cdata", "per%2Fcent", "=equals=",
         'attr="inject"', "mixed\\\"\n<&>'" ]


def test_export_roundtrip_adversarial_strings(tmp_path):
    """Escaping gauntlet: every nasty string rides through id-safe slots
    (name/attr values for N-Triples; all slots for GraphML, which can
    carry any XML-1.0-legal chars)."""
    import ray.data as rd
    from urllib.parse import quote
    from graphrag_rs_ray.sources.rdf_graphml import (
        ENT_NS, export_graphml, export_ntriples, import_graphml, import_rdf)

    n = len(NASTY)
    ents = pa.table({
        "id": pa.array([f"id {i}/{s[:4]}" for i, s in enumerate(NASTY)], pa.string()),
        "name": pa.array(NASTY, pa.string()),
        "entity_type": pa.array(["Entity"] * n, pa.string()),
        "attributes": pa.array([json.dumps({"v": s}, sort_keys=True) for s in NASTY],
                               pa.string()),
    })
    rels = pa.table({
        "source": pa.array([f"id {i}/{s[:4]}" for i, s in enumerate(NASTY)], pa.string()),
        "target": pa.array([f"id {(i+1) % n}/{NASTY[(i+1) % n][:4]}"
                            for i in range(n)], pa.string()),
        "relation_type": pa.array(["REL_A"] * n, pa.string()),
        "attributes": pa.array(["{}"] * n, pa.string()),
    })
    e_ds, r_ds = rd.from_arrow(ents), rd.from_arrow(rels)

    # N-Triples: control-char-free subset is exact on every slot
    out = str(tmp_path / "nt")
    export_ntriples(e_ds, r_ds, out)
    back_e, back_r, errors = import_rdf(out)
    assert errors.count() == 0
    bdf = back_e.to_pandas().set_index("id")
    for row in ents.to_pylist():
        b = bdf.loc[ENT_NS + quote(row["id"], safe="")]
        assert b["name"] == row["name"], repr(row["name"])
        assert b["attributes"] == row["attributes"]
    assert back_r.count() == n

    # GraphML: ids/names/attrs exact through XML escaping
    out = str(tmp_path / "gm")
    export_graphml(e_ds, r_ds, out)
    back_e, back_r, errors = import_graphml(out)
    assert errors.count() == 0
    bdf = back_e.to_pandas().set_index("id")
    for row in ents.to_pylist():
        b = bdf.loc[row["id"]]
        assert b["name"] == row["name"], repr(row["name"])
        assert b["attributes"] == row["attributes"]
    got = sorted(zip(back_r.to_pandas()["source"], back_r.to_pandas()["target"]))
    want = sorted(zip(rels.column("source").to_pylist(),
                      rels.column("target").to_pylist()))
    assert got == want


def test_graphml_stream_equals_whole_file(tmp_path):
    """The constant-memory iterparse path and the per-file path produce
    identical tables on a multi-file dir (incl. error rows)."""
    from graphrag_rs_ray.sources.rdf_graphml import (ImportConfig,
                                                     import_graphml,
                                                     import_graphml_stream)
    d = tmp_path / "gm"
    d.mkdir()
    (d / "a.graphml").write_text(GRAPHML_FIXTURE)
    big = ['<?xml version="1.0"?>',
           '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
           '<key id="d0" for="node" attr.name="name"/>',
           '<graph edgedefault="directed">']
    for i in range(5000):
        big.append(f'<node id="m{i}"><data key="d0">N {i}</data></node>')
        big.append(f'<edge source="m{i}" target="m{(i + 1) % 5000}"/>')
    big += ["</graph>", "</graphml>"]
    (d / "b.graphml").write_text("\n".join(big))

    cfg = ImportConfig(max_errors=10)
    a = import_graphml(str(d), cfg)
    b = import_graphml_stream(str(d), cfg, batch_rows=777)
    for x, y in zip(a, b):
        xdf = x.to_pandas().sort_values(list(x.to_pandas().columns)).reset_index(drop=True)
        ydf = y.to_pandas().sort_values(list(y.to_pandas().columns)).reset_index(drop=True)
        assert xdf.equals(ydf)
    assert a[0].count() == 5003 and a[1].count() == 5002


def test_rdf_import_hub_subject_skew(tmp_path):
    """A hub subject with 100k facts lands in ONE merge bucket — the
    vectorized per-bucket fold must absorb it (and the min-folds must
    stay deterministic regardless of line order)."""
    import time
    from graphrag_rs_ray.sources.rdf_graphml import import_rdf
    p = tmp_path / "hub.nt"
    hub = "<http://ex.org/hub>"
    lines = []
    # labels/types/attrs emitted in DESCENDING order — min must win
    for i in range(99999, -1, -1):
        kind = i % 3
        if kind == 0:
            lines.append(f'{hub} <http://www.w3.org/2000/01/rdf-schema#label> "L{i:06d}" .')
        elif kind == 1:
            lines.append(f'{hub} <http://ex.org/ns/k{i % 7}> "v{i:06d}" .')
        else:
            lines.append(f"{hub} <http://ex.org/ns/links> <http://ex.org/o{i}> .")
    p.write_text("\n".join(lines) + "\n")
    t0 = time.perf_counter()
    ents, rels, errors = import_rdf(str(p))
    edf = ents.to_pandas()
    wall = time.perf_counter() - t0
    assert errors.count() == 0
    assert len(edf) == 1
    row = edf.iloc[0]
    assert row["name"] == "L000000"          # min label
    attrs = json.loads(row["attributes"])
    assert len(attrs) == 7
    # per-key min: k(i%7) over kind-1 lines; smallest i with i%3==1 and
    # i%7==j determines v-min per key
    for j, v in attrs.items():
        jn = int(j[1:])
        i = next(x for x in range(100000) if x % 3 == 1 and x % 7 == jn)
        assert v == f"v{i:06d}", (j, v)
    assert rels.count() == sum(1 for i in range(100000) if i % 3 == 2)
    assert wall < 60, wall                   # absorbs the hot bucket


def test_export_built_kg_roundtrip(tmp_path):
    """export_graph(built KG) → import_graphml reproduces the graph."""
    from graphrag_rs_ray.config import KGConfig
    from graphrag_rs_ray.pipelines.kg import build_kg, export_graph
    from graphrag_rs_ray.sources.pages import pages_dataset
    from graphrag_rs_ray.sources.rdf_graphml import import_graphml, import_rdf

    kg = build_kg(pages_dataset(100, seed=3), KGConfig())
    n_ents, n_tris = kg.entities.count(), kg.triples.count()

    out = str(tmp_path / "gm")
    stats = export_graph(kg, out, fmt="graphml")
    assert stats["nodes"] == n_ents and stats["edges"] == n_tris
    back_e, back_r, errors = import_graphml(out)
    assert errors.count() == 0
    assert back_e.count() == n_ents and back_r.count() == n_tris
    edf = back_e.to_pandas()
    kdf = kg.entities.to_pandas()
    assert sorted(zip(edf["id"], edf["name"], edf["entity_type"])) == \
        sorted(zip(kdf["entity_id"], kdf["name"], kdf["type"]))
    assert edf["attributes"].str.contains('"conf"').all()

    out2 = str(tmp_path / "nt")
    stats2 = export_graph(kg, out2, fmt="ntriples")
    assert stats2["relationship_triples"] == n_tris
    e2, r2, err2 = import_rdf(out2)
    assert err2.count() == 0 and e2.count() == n_ents and r2.count() == n_tris

    with pytest.raises(ValueError):
        export_graph(kg, str(tmp_path / "x"), fmt="dot")


def _ents_ds(rows):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "entity_id": pa.array([r[0] for r in rows], pa.string()),
        "name": pa.array([r[1] for r in rows], pa.string()),
        "type": pa.array([r[2] for r in rows], pa.string()),
        "conf": pa.array([r[3] for r in rows], pa.float32()),
        "mention_count": pa.array([r[4] for r in rows], pa.int64()),
    }))


def test_merge_strategies(ray_session):
    from graphrag_rs_ray.pipelines.graph_ops import (
        KEEP_EXISTING, KEEP_NEW, MERGE, merge_entity_tables)
    old = _ents_ds([("PERSON_a", "Alice", "PERSON", 0.9, 5),
                    ("PERSON_b", "Bob", "PERSON", 0.7, 2)])
    new = _ents_ds([("PERSON_a", "ALICE", "PERSON", 0.95, 3),
                    ("PERSON_c", "Carol", "PERSON", 0.8, 1)])

    m = merge_entity_tables(old, new, MERGE).to_pandas().set_index("entity_id")
    assert m.loc["PERSON_a", "name"] == "ALICE"            # higher conf wins
    assert m.loc["PERSON_a", "mention_count"] == 8          # mentions sum
    assert set(m.index) == {"PERSON_a", "PERSON_b", "PERSON_c"}

    ke = merge_entity_tables(old, new, KEEP_EXISTING).to_pandas().set_index("entity_id")
    assert ke.loc["PERSON_a", "name"] == "Alice"
    kn = merge_entity_tables(old, new, KEEP_NEW).to_pandas().set_index("entity_id")
    assert kn.loc["PERSON_a", "name"] == "ALICE"
    assert kn.loc["PERSON_a", "mention_count"] == 3


def test_checkpoint_resume(ray_session, tmp_path):
    """build_kg with a work_dir stages the combined stream; a rerun with
    the same config skips re-extraction (manifest fingerprint) and yields
    identical outputs."""
    from graphrag_rs_ray.config import KGConfig
    from graphrag_rs_ray.pipelines.kg import build_kg
    from graphrag_rs_ray.sources.pages import pages_dataset
    from graphrag_rs_ray.state.manifests import read_manifest

    wd = str(tmp_path / "wd")
    cfg = KGConfig()
    r1 = build_kg(pages_dataset(60, seed=7), cfg, work_dir=wd)
    t1 = r1.triples.to_pandas().sort_values(["subj", "pred", "obj"]).reset_index(drop=True)
    m1 = read_manifest(os.path.join(wd, "combined"))
    assert m1 is not None

    r2 = build_kg(pages_dataset(60, seed=7), cfg, work_dir=wd)
    t2 = r2.triples.to_pandas().sort_values(["subj", "pred", "obj"]).reset_index(drop=True)
    m2 = read_manifest(os.path.join(wd, "combined"))
    assert m2["completed_at"] == m1["completed_at"]   # stage was skipped
    assert t1.equals(t2)

    # changed config → different fingerprint → stage re-runs
    r3 = build_kg(pages_dataset(60, seed=7), KGConfig(chunk_size=500), work_dir=wd)
    r3.triples.count()
    m3 = read_manifest(os.path.join(wd, "combined"))
    assert m3["fingerprint"] != m1["fingerprint"]


def test_write_graph_shard_resume(ray_session, tmp_path):
    """write_graph resume is partition-granular: a matching rerun is a
    no-op, a crashed shard (data without manifest / manifest deleted) is
    the ONLY thing rewritten, and a changed config invalidates all."""
    import shutil

    from graphrag_rs_ray.config import KGConfig
    from graphrag_rs_ray.pipelines.kg import build_kg, write_graph
    from graphrag_rs_ray.sources.pages import pages_dataset
    from graphrag_rs_ray.state.manifests import read_manifest

    out = str(tmp_path / "graph")
    res = build_kg(pages_dataset(40, seed=3), KGConfig())
    m1 = write_graph(res, out, num_shards=4)
    assert m1["n_triples"] > 0
    assert sorted(m1["shard_rows"]) == [f"shard={k}" for k in range(4)]
    assert m1["resumed_shards"] == []

    # full rerun with the same fingerprint: nothing rewritten
    m_top1 = read_manifest(out)
    m2 = write_graph(res, out, num_shards=4)
    assert m2["completed_at"] == m_top1["completed_at"]

    # simulate a crashed shard: drop one shard's manifest (partial data)
    victim = os.path.join(out, "triples", "shard=2")
    os.remove(os.path.join(victim, "_MANIFEST.json"))
    os.remove(os.path.join(out, "_MANIFEST.json"))
    keep_m = {k: read_manifest(os.path.join(out, "triples", f"shard={k}"))
              for k in (0, 1, 3)}
    m3 = write_graph(res, out, num_shards=4)
    assert m3["resumed_shards"] == [0, 1, 3]
    assert m3["n_triples"] == m1["n_triples"]
    assert m3["shard_rows"] == m1["shard_rows"]
    for k in (0, 1, 3):   # untouched survivors: same manifest timestamps
        now = read_manifest(os.path.join(out, "triples", f"shard={k}"))
        assert now["completed_at"] == keep_m[k]["completed_at"]

    # changed shard count → every partition invalid → full rewrite
    m4 = write_graph(res, out, num_shards=2)
    assert m4["resumed_shards"] == []
    assert m4["n_triples"] == m1["n_triples"]
    assert sorted(m4["shard_rows"]) == ["shard=0", "shard=1"]
    shutil.rmtree(out)


def _staged_multifile_build(tmp_path):
    """``build_kg`` over a ``combined/`` checkpoint of >= 3 files: four
    page blocks and a small extraction batch make one write task, so one
    file, per block."""
    from graphrag_rs_ray.config import KGConfig
    from graphrag_rs_ray.pipelines.kg import build_kg
    from graphrag_rs_ray.sources.pages import pages_dataset

    pages = pages_dataset(120, seed=3).repartition(4).materialize()
    work = tmp_path / "work"
    res = build_kg(pages, KGConfig(batch_size=16), work_dir=str(work))
    assert len(list((work / "combined").glob("*.parquet"))) >= 3
    return res


def test_staged_build_reads_checkpoint_fused(ray_session, tmp_path,
                                             monkeypatch):
    """The staged checkpoint is read without ``SplitBlocks``, so each
    branch reads it in the same task as its level-1 combine; the triple
    branch's level-2 window sits behind a streaming boundary instead of
    pulling the read's maps into a min-rows map."""
    import re

    import ray.data as rd

    from graphrag_rs_ray.pipelines.kg import write_graph

    res = _staged_multifile_build(tmp_path)
    written = []
    write_parquet = rd.Dataset.write_parquet

    def capture(ds, *a, **k):
        written.append(ds)
        return write_parquet(ds, *a, **k)

    monkeypatch.setattr(rd.Dataset, "write_parquet", capture)
    write_graph(res, str(tmp_path / "graph"), num_shards=4,
                disk_shuffle=True)
    plans = [re.findall(r"Operator \d+ (.+?):", ds.stats())
             for ds in written]
    assert len(plans) == 2                     # entities, triple shuffle
    assert not [op for ops in plans for op in ops if "SplitBlocks" in op]
    assert plans[0][0].startswith(
        "ReadParquet->MapBatches(entities_only)")
    assert plans[1][0].startswith(
        "ReadParquet->MapBatches(triples_only)")
    assert "StreamingRepartition" in plans[1]


def test_write_graph_disk_shuffle_equals_instore(ray_session, tmp_path):
    """disk_shuffle=True must produce EXACTLY the in-store path's
    triples (same dedup semantics via the shared triple_final_agg), keep
    partition-granular resume, and redo a crashed shard from the staged
    partition without recomputing the build; both for an in-memory build
    and for one resumed from a multi-file ``combined/`` checkpoint, as a
    scale job runs."""
    import pyarrow.dataset as pads

    from graphrag_rs_ray.config import KGConfig
    from graphrag_rs_ray.pipelines.kg import build_kg, hash_subj, write_graph
    from graphrag_rs_ray.sources.pages import pages_dataset
    from graphrag_rs_ray.state.manifests import read_manifest

    def triples_table(out):
        t = (pads.dataset(os.path.join(out, "triples"),
                          partitioning="hive").to_table()
             .to_pandas())
        cols = ["subj", "pred", "obj", "conf", "n_contexts",
                "context_sample"]
        return (t[cols].sort_values(cols[:3]).reset_index(drop=True))

    builds = {"memory": build_kg(pages_dataset(40, seed=3), KGConfig()),
              "staged": _staged_multifile_build(tmp_path)}
    for name, res in builds.items():
        out_a = str(tmp_path / f"{name}_store")
        out_b = str(tmp_path / f"{name}_disk")
        m_a = write_graph(res, out_a, num_shards=4)
        m_b = write_graph(res, out_b, num_shards=4, disk_shuffle=True)
        assert m_b["n_triples"] == m_a["n_triples"] > 0
        assert m_b["shard_rows"] == m_a["shard_rows"]

        ta, tb = triples_table(out_a), triples_table(out_b)
        assert ta.equals(tb)
        # both paths place every triple by the blake2b hash of its subject
        for out in (out_a, out_b):
            t = pads.dataset(os.path.join(out, "triples"),
                             partitioning="hive").to_table(
                                 columns=["subj", "shard"])
            assert t.column("shard").to_pylist() == [
                hash_subj(s, 4) for s in t.column("subj").to_pylist()]

        # crashed-shard redo: only the victim shard is reduced again,
        # from the staged shuffle partition (stage manifest untouched)
        victim = os.path.join(out_b, "triples", "shard=1")
        os.remove(os.path.join(victim, "_MANIFEST.json"))
        os.remove(os.path.join(out_b, "_MANIFEST.json"))
        stage_m = read_manifest(os.path.join(out_b, "_shuffle"))
        m_b2 = write_graph(res, out_b, num_shards=4, disk_shuffle=True)
        assert m_b2["resumed_shards"] == [0, 2, 3]
        assert m_b2["n_triples"] == m_a["n_triples"]
        assert read_manifest(os.path.join(out_b, "_shuffle"))[
            "completed_at"] == stage_m["completed_at"]
        assert triples_table(out_b).equals(ta)


def test_write_graph_empty_result(ray_session, tmp_path):
    """A build with zero triples still writes a complete, resumable
    graph layout: every shard dir exists with a rows=0 manifest and the
    rollup counts are zero."""
    import pyarrow as pa
    import ray.data as rd

    from graphrag_rs_ray.pipelines.kg import KGResult, write_graph
    from graphrag_rs_ray.state.manifests import read_manifest

    empty_tri = rd.from_arrow(pa.table({
        "subj": pa.array([], pa.string()),
        "pred": pa.array([], pa.string()),
        "obj": pa.array([], pa.string())}))
    empty_ent = rd.from_arrow(pa.table({
        "entity_id": pa.array([], pa.string()),
        "name": pa.array([], pa.string())}))
    out = str(tmp_path / "empty_graph")
    m = write_graph(KGResult(entities=empty_ent, triples=empty_tri,
                             links={}), out, num_shards=3)
    assert m["n_triples"] == 0 and m["n_entities"] == 0
    assert m["shard_rows"] == {f"shard={k}": 0 for k in range(3)}
    for k in range(3):
        sm = read_manifest(os.path.join(out, "triples", f"shard={k}"))
        assert sm["rows"] == 0
    # rerun: full fingerprint skip
    m2 = write_graph(KGResult(entities=empty_ent, triples=empty_tri,
                              links={}), out, num_shards=3)
    assert m2["completed_at"] == m["completed_at"]
