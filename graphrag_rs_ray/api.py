"""User-facing build facade — port of the reference's ``GraphRAG``
orchestrator (``lib.rs:230-900``) up to graph construction, plus the
``builder/mod.rs`` stub builder.

``GraphRAG`` collects documents and builds the graph lazily through the
repo's own oracle-checked dataflow (``pipelines/kg``: chunking +
canonical entity extraction + deduped triples).  The reference's query
half (``ask``, ``api/simple.rs``, ``api/easy.rs``) is outside this
engine's indexing scope.

Per the repo contract, NOTHING here calls ``ray.init`` — the caller
owns the Ray session (the driver, bench.py, or the test fixture).

``builder/mod.rs`` is a stub in the reference (``build()`` errors
"not yet implemented") — ported faithfully as ``GraphRAGBuilder``.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from .config import KGConfig


def _pages_table(docs: list[dict]) -> pa.Table:
    from .sources.pages import PAGES_SCHEMA
    rows = []
    for d in docs:
        rows.append({"url": f"doc://{d['id']}", "warc_ts": None,
                     "html": None, "text": d["content"],
                     "lang": "en", "title": d["title"]})
    return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)


class GraphRAG:
    """``lib.rs:230-900`` orchestrator over the repo's dataflows."""

    def __init__(self, config: KGConfig | None = None):
        self.config = config if config is not None else KGConfig()
        self._initialized = False
        self._docs: list[dict] = []
        self._entities = None      # materialized Datasets
        self._triples = None

    # ------------------------------------------------- lifecycle --

    @staticmethod
    def builder() -> "GraphRAGBuilder":
        return GraphRAGBuilder()

    def initialize(self):
        self._initialized = True

    def ensure_initialized(self):
        if not self._initialized:
            self.initialize()

    def is_initialized(self) -> bool:
        return self._initialized

    def has_documents(self) -> bool:
        return bool(self._docs)

    def has_graph(self) -> bool:
        return self._entities is not None

    # ------------------------------------------------- documents --

    def add_document_from_text(self, text: str,
                               title: str = "Document"):
        doc_id = "doc_" + hashlib.sha256(
            f"{len(self._docs)}|{text}".encode()).hexdigest()[:16]
        self._docs.append({"id": doc_id, "title": title,
                           "content": text})
        self._entities = None      # graph is stale (lazy rebuild)
        self._triples = None

    # ----------------------------------------------------- graph --

    def build_graph(self):
        """Pages → canonical entities + deduped triples, via the
        flagship dataflow (``pipelines/kg.build_kg``: one extraction
        pass feeds both tables); materialized once (small facade
        corpora)."""
        import ray.data as rd
        from .pipelines.kg import build_kg
        result = build_kg(rd.from_arrow(_pages_table(self._docs)),
                          self.config)
        self._entities = result.entities.materialize()
        self._triples = result.triples.materialize()

    def get_knowledge_graph(self) -> dict | None:
        """Materialized graph view (``lib.rs::get_knowledge_graph``
        shape); None before build."""
        if not self.has_graph():
            return None
        entities = [{"id": r["entity_id"], "name": r["name"],
                     "type": r["type"], "confidence": r["conf"]}
                    for r in self._entities.take_all()]
        relationships = [{"source": r["subj"], "target": r["obj"],
                          "type": r["pred"], "confidence": r["conf"]}
                         for r in self._triples.take_all()]
        return {"entities": entities, "relationships": relationships,
                "documents": list(self._docs)}

    # -------------------------------------------------- level 0 --

    @classmethod
    def from_text(cls, text: str) -> "GraphRAG":
        g = cls()
        g.initialize()
        g.add_document_from_text(text)
        return g

    @classmethod
    def from_file(cls, path: str) -> "GraphRAG":
        with open(path) as f:
            return cls.from_text(f.read())


class GraphRAGBuilder:
    """``builder/mod.rs`` — a stub in the reference (pinned)."""

    def build(self) -> GraphRAG:
        raise NotImplementedError("GraphRAG builder not yet implemented")


__all__ = ["GraphRAG", "GraphRAGBuilder"]
