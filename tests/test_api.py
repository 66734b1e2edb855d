"""Build facade (``lib.rs`` orchestrator / ``builder/mod.rs`` stub)
over the repo dataflows."""

import pytest

from graphrag_rs_ray.api import GraphRAG, GraphRAGBuilder

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
