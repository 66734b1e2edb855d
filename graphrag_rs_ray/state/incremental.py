"""Incremental graph-update manager — port of
``graphrag-core/src/incremental/mod.rs`` (the standalone petgraph-based
manager; the reference's OTHER incremental module,
``graph/incremental.rs``, is covered by ``state/transactions.py``).

Semantics pinned:

- ``add_content`` (``:404-446``): sha256 change detection (unchanged
  docs return an all-zero summary), extraction → incremental apply,
  update record, detector refresh.  The reference's
  ``extract_from_content`` is a STUB returning empty results
  (``:612-618``) — ported as the default, with a pluggable extractor
  hook so the engine's real pattern extractor can drive it
  (documented extension, mirrors the repo's registry device).
- ``apply_incremental_update`` (``:624-670``): entity matched to an
  existing node by case-insensitive label equality
  (``find_similar_entity``, HashMap iteration order → sorted-id
  iteration pinned) → update; else a new node (uuid4 ids → injected
  deterministic counter ids, documented); relationships add Related
  edges with confidence weights; summary counts.
- ``update_node`` (``:448-509``): LatestWins replaces label / extends
  attributes / replaces embeddings; HighestConfidence is a NO-OP in
  the reference (comment-only body — quirk pinned); Merge inserts only
  missing attribute keys (``or_insert``); Manual errors; version += 1
  on every resolved update.  Missing nodes are ADDED with defaults.
- ``add_edge`` (``:511-526``): both endpoints must exist, else
  NotFound.
- ``record_update`` (``:688-698``): history capped at 1000 → drain the
  oldest 100.
- ``rollback`` (``:554-600``): find the record by id, apply inverse
  updates for everything AFTER it in reverse order (AddNode → remove
  node; RemoveNode / others are no-ops in the reference — pinned),
  truncate history.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass
class IncrementalConfig:
    """``incremental/mod.rs:46-92`` defaults."""
    auto_detect_changes: bool = True
    min_entity_confidence: float = 0.7
    max_batch_size: int = 1000
    parallel_updates: bool = True
    conflict_resolution: str = "latest_wins"   # latest_wins |
    #   highest_confidence | merge | manual


@dataclass
class UpdateSummary:
    nodes_added: int = 0
    nodes_updated: int = 0
    nodes_removed: int = 0
    edges_added: int = 0
    edges_updated: int = 0
    edges_removed: int = 0


def _empty_extractor(content: dict) -> dict:
    """``:612-618`` — the reference's extraction stub."""
    return {"entities": [], "relationships": [], "concepts": []}


class IncrementalGraphManager:
    """``incremental/mod.rs:15-742``."""

    def __init__(self, config: IncrementalConfig | None = None,
                 extractor=None, clock=None):
        self.config = config if config is not None else IncrementalConfig()
        self.nodes: dict[str, dict] = {}
        self.edges: list[dict] = []
        self.update_history: list[dict] = []
        self.document_hashes: dict[str, str] = {}
        self._extractor = (extractor if extractor is not None
                           else _empty_extractor)
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._id_counter = 0

    # ------------------------------------------------------ content --

    def _next_id(self) -> str:
        self._id_counter += 1
        return f"node_{self._id_counter:06d}"

    def hash_content(self, content: dict) -> str:
        return hashlib.sha256(content["text"].encode()).hexdigest()

    def has_content_changed(self, content: dict) -> bool:
        if not self.config.auto_detect_changes:
            return True
        h = self.hash_content(content)
        existing = self.document_hashes.get(content["id"])
        return existing != h if existing is not None else True

    def add_content(self, content: dict) -> UpdateSummary:
        if not self.has_content_changed(content):
            return UpdateSummary()
        extraction = self._extractor(content)
        summary = self.apply_incremental_update(extraction)
        self._record_update({
            "id": f"update_{len(self.update_history) + 1:06d}",
            "timestamp": self._clock(),
            "update_type": "batch_update",
            "affected_nodes": [],
            "affected_edges": []})
        self.document_hashes[content["id"]] = self.hash_content(content)
        return summary

    def apply_incremental_update(self, extraction: dict) -> UpdateSummary:
        summary = UpdateSummary()
        for entity in extraction["entities"]:
            existing = self.find_similar_entity(entity)
            if existing is not None:
                self.update_node(existing, {
                    "label": entity["name"],
                    "attributes": entity.get("attributes", {}),
                    "embeddings": None, "node_type": None})
                summary.nodes_updated += 1
            else:
                self._add_node({
                    "id": self._next_id(), "label": entity["name"],
                    "node_type": "entity",
                    "attributes": dict(entity.get("attributes", {})),
                    "embeddings": None, "created_at": self._clock(),
                    "updated_at": self._clock(), "version": 1})
                summary.nodes_added += 1
        for rel in extraction["relationships"]:
            self.add_edge(rel["source"], rel["target"], {
                "edge_type": "related",
                "weight": rel.get("confidence", 0.0),
                "attributes": {}, "created_at": self._clock()})
            summary.edges_added += 1
        return summary

    def find_similar_entity(self, entity: dict) -> str | None:
        target = entity["name"].lower()
        for nid in sorted(self.nodes):        # HashMap order → sorted
            if self.nodes[nid]["label"].lower() == target:
                return nid
        return None

    # -------------------------------------------------------- nodes --

    def _add_node(self, node: dict) -> str:
        self.nodes[node["id"]] = node
        return node["id"]

    def update_node(self, node_id: str, updates: dict):
        node = self.nodes.get(node_id)
        if node is None:
            self._add_node({
                "id": node_id,
                "label": updates.get("label") or "",
                "node_type": updates.get("node_type") or "entity",
                "attributes": dict(updates.get("attributes") or {}),
                "embeddings": updates.get("embeddings"),
                "created_at": self._clock(),
                "updated_at": self._clock(), "version": 1})
            return
        strategy = self.config.conflict_resolution
        if strategy == "latest_wins":
            if updates.get("label") is not None:
                node["label"] = updates["label"]
            if updates.get("attributes") is not None:
                node["attributes"].update(updates["attributes"])
            if updates.get("embeddings") is not None:
                node["embeddings"] = updates["embeddings"]
        elif strategy == "highest_confidence":
            pass    # the reference's arm is comment-only (quirk)
        elif strategy == "merge":
            if updates.get("attributes") is not None:
                for k, v in updates["attributes"].items():
                    node["attributes"].setdefault(k, v)
        else:
            raise RuntimeError("Manual conflict resolution required")
        node["updated_at"] = self._clock()
        node["version"] += 1

    def add_edge(self, source: str, target: str, edge: dict):
        if source not in self.nodes or target not in self.nodes:
            raise KeyError(f"Node not found: {source} or {target}")
        self.edges.append({"source": source, "target": target, **edge})

    def remove_node(self, node_id: str):
        if node_id in self.nodes:
            del self.nodes[node_id]
            self.edges = [e for e in self.edges
                          if e["source"] != node_id
                          and e["target"] != node_id]

    # ------------------------------------------------------ history --

    def _record_update(self, record: dict):
        self.update_history.append(record)
        if len(self.update_history) > 1000:
            del self.update_history[:100]

    def record_external_update(self, update_type: str,
                               affected_nodes: list[str],
                               affected_edges: list[str]) -> str:
        rid = f"update_{len(self.update_history) + 1:06d}"
        self._record_update({"id": rid, "timestamp": self._clock(),
                             "update_type": update_type,
                             "affected_nodes": list(affected_nodes),
                             "affected_edges": list(affected_edges)})
        return rid

    def rollback(self, version_id: str):
        try:
            idx = next(i for i, r in enumerate(self.update_history)
                       if r["id"] == version_id)
        except StopIteration:
            raise KeyError(f"Version not found: {version_id}")
        for record in reversed(self.update_history[idx + 1:]):
            self._apply_inverse_update(record)
        del self.update_history[idx + 1:]

    def _apply_inverse_update(self, record: dict):
        if record["update_type"] == "add_node":
            for node_id in record["affected_nodes"]:
                self.remove_node(node_id)
        # RemoveNode / others: no-op in the reference (pinned)

    # -------------------------------------------------------- stats --

    def stats(self) -> dict:
        return {"node_count": len(self.nodes),
                "edge_count": len(self.edges),
                "update_count": len(self.update_history),
                "last_update": (self.update_history[-1]["timestamp"]
                                if self.update_history else None)}


__all__ = ["IncrementalConfig", "UpdateSummary",
           "IncrementalGraphManager"]
