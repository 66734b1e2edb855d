"""Pipeline configuration.

Mirrors the knobs of the reference's config system (``config/mod.rs``,
``config/setconfig.rs``) that affect the deterministic indexing path;
defaults match the reference's defaults where one exists (cited inline).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class KGConfig:
    # chunking (reference TextProcessor; HOW_IT_WORKS.md documents 1000/100 defaults)
    chunk_size: int = 1000
    chunk_overlap: int = 100
    min_chunk_size: int = 50            # chunking.rs:29
    chunker: str = "hierarchical"       # "hierarchical" | "legacy" (text/mod.rs:123)
                                        # | "rust_code" (chunking_strategies.rs:138)

    # extraction — registry name (SURVEY §2.13): "pattern" | "gleaning"
    # (+ any name added to stages.registry.EXTRACTORS)
    extractor: str = "pattern"
    min_confidence: float = 0.7          # config/mod.rs:859-861
    entity_types: tuple[str, ...] = ("PERSON", "ORGANIZATION", "LOCATION")
    allowed_patterns: tuple[str, ...] = ()
    excluded_patterns: tuple[str, ...] = ()

    # relationships
    relationship_confidence: float = 0.8  # graph/mod.rs:134

    # canonicalization — fuzzy tier is OFF by default, matching the
    # reference's default build path (StringSimilarityLinker is an opt-in
    # step there, not part of GraphBuilder::build_graph)
    fuzzy_linking: bool = False
    min_similarity: float = 0.85         # string_similarity_linker.rs:43
    use_phonetic: bool = False
    # batched hash-embedding refinement of candidate links (None = off)
    link_embedding_threshold: float | None = None
    # fuzzy links broadcast as a dict below this row count; above it the
    # link table stays a Dataset and subj/obj remap via bucketed joins
    link_broadcast_limit: int = 2_000_000

    # physical
    batch_size: int = 256                # chunk rows per extraction batch
    extract_concurrency: int | tuple[int, int] | None = None  # actor pool size (None → tasks)
    num_shards: int = 16                 # adjacency shard count (hash(subj) % P)
