"""Build facade (``lib.rs`` orchestrator / ``builder/mod.rs`` stub)
over the repo dataflows."""

import pytest

from graphrag_rs_ray.api import GraphRAG, GraphRAGBuilder, _pages_table

DOC = ("John Smith founded Acme Corp in Boston. "
       "Acme Corp builds fast database engines. "
       "Mary Jones joined Acme Corp as chief engineer. "
       "The Boston office grew quickly under Mary Jones.")


def test_graphrag_lazy_build_and_state(ray_session):
    g = GraphRAG()
    assert not g.is_initialized() and not g.has_documents()
    g.add_document_from_text(DOC)
    assert g.has_documents() and not g.has_graph()
    assert g.get_knowledge_graph() is None
    g.ensure_initialized()
    g.build_graph()
    assert g.is_initialized() and g.has_graph()
    kg = g.get_knowledge_graph()
    assert any(e["name"] == "Acme Corp" for e in kg["entities"])
    assert kg["relationships"] and len(kg["documents"]) == 1


def test_builder_is_reference_stub():
    with pytest.raises(NotImplementedError, match="not yet implemented"):
        GraphRAGBuilder().build()
    assert isinstance(GraphRAG.builder(), GraphRAGBuilder)


def test_build_graph_extracts_once(ray_session, monkeypatch):
    import ray.data as rd
    from graphrag_rs_ray.pipelines import kg

    calls = []
    real = kg.pages_to_chunks

    def counting(pages_ds, cfg):
        calls.append(1)
        return real(pages_ds, cfg)

    g = GraphRAG()
    g.add_document_from_text(DOC)
    g.add_document_from_text("Alice Brown visited Paris with John Smith.")
    monkeypatch.setattr(kg, "pages_to_chunks", counting)
    g.build_graph()
    assert len(calls) == 1
    monkeypatch.undo()

    def rows(ds, keys):
        return sorted(ds.take_all(), key=lambda r: [r[k] for k in keys])

    pages = _pages_table(g._docs)
    ents = kg.entities_dataset(rd.from_arrow(pages), g.config)
    tris = kg.triples_dataset(rd.from_arrow(pages), g.config)
    facade_ents = rows(g._entities, ["entity_id"])
    facade_tris = rows(g._triples, ["subj", "pred", "obj"])
    assert facade_ents and facade_tris
    assert facade_ents == rows(ents, ["entity_id"])
    assert facade_tris == rows(tris, ["subj", "pred", "obj"])
