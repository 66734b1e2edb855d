"""Selective cache invalidation planner.

Port of ``graphrag-core/src/graph/incremental.rs`` cache management:
``InvalidationStrategy`` (:460-470), ``CacheRegion`` (:473-485),
``SelectiveInvalidation`` (:488-618) — ``register_cache_region``,
``invalidate_for_changes`` (entity changes → Relational(depth 2) +
affected Regional; relationship changes → Relational(depth 1) per
endpoint; document/embedding changes → Selective key lists),
``generate_cache_keys_for_change`` (:576-604 key formats), and
``get_invalidation_stats`` (:607-618).

Pure driver-side kernel (the planner's state is tiny — region metadata,
not cache contents); the strategies it emits are what a distributed
cache layer would fan out to workers.  Deviation: the log records a
monotonically increasing sequence number instead of a wall-clock
timestamp (deterministic for tests)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Selective:
    cache_keys: tuple[str, ...]


@dataclass(frozen=True)
class Regional:
    region_id: str


@dataclass(frozen=True)
class Relational:
    entity_id: str
    depth: int


@dataclass
class CacheRegion:
    region_id: str
    entity_ids: set[str] = field(default_factory=set)
    relationship_types: set[str] = field(default_factory=set)
    document_ids: set[str] = field(default_factory=set)


ENTITY_CHANGES = {"entity_added", "entity_updated", "entity_removed"}
RELATIONSHIP_CHANGES = {"relationship_added", "relationship_updated",
                        "relationship_removed"}


@dataclass
class ChangeRecord:
    """change_type ∈ {entity_*, relationship_*, document_*, embedding_*}
    (``ChangeType``, incremental.rs:113-146)."""
    change_type: str
    entity_id: str | None = None
    document_id: str | None = None
    source: str | None = None          # relationship endpoints
    target: str | None = None


class SelectiveInvalidation:
    def __init__(self):
        self.cache_regions: dict[str, CacheRegion] = {}
        self.entity_to_regions: dict[str, set[str]] = {}
        self.invalidation_log: list[tuple[int, object]] = []
        self._seq = 0

    def register_cache_region(self, region: CacheRegion) -> None:
        for eid in region.entity_ids:
            self.entity_to_regions.setdefault(eid, set()).add(region.region_id)
        self.cache_regions[region.region_id] = region

    def _keys_for_change(self, change: ChangeRecord) -> list[str]:
        keys: list[str] = []
        if change.change_type in ("entity_added", "entity_updated"):
            if change.entity_id:
                keys += [f"entity:{change.entity_id}",
                         f"entity_neighbors:{change.entity_id}"]
        elif change.change_type in ("document_added", "document_updated"):
            if change.document_id:
                keys += [f"document:{change.document_id}",
                         f"document_chunks:{change.document_id}"]
        elif change.change_type in ("embedding_added", "embedding_updated"):
            if change.entity_id:
                keys += [f"embedding:{change.entity_id}",
                         f"similarity:{change.entity_id}"]
        return keys

    def invalidate_for_changes(self, changes: list[ChangeRecord]) -> list:
        strategies: list = []
        affected: set[str] = set()
        for change in changes:
            if change.change_type in ENTITY_CHANGES:
                if change.entity_id:
                    affected |= self.entity_to_regions.get(change.entity_id,
                                                           set())
                    strategies.append(Relational(change.entity_id, 2))
            elif change.change_type in RELATIONSHIP_CHANGES:
                if change.source and change.target:
                    strategies.append(Relational(change.source, 1))
                    strategies.append(Relational(change.target, 1))
            else:
                keys = self._keys_for_change(change)
                if keys:
                    strategies.append(Selective(tuple(keys)))
        for region_id in sorted(affected):
            strategies.append(Regional(region_id))
        for s in strategies:
            self._seq += 1
            self.invalidation_log.append((self._seq, s))
        return strategies

    def get_invalidation_stats(self) -> dict:
        return {
            "total_invalidations": len(self.invalidation_log),
            "cache_regions": len(self.cache_regions),
            "entity_mappings": len(self.entity_to_regions),
            "last_invalidation": (self.invalidation_log[-1][0]
                                  if self.invalidation_log else None),
        }
