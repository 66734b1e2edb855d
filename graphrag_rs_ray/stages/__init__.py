"""map_batches stage library.

Every stage is either a plain function (stateless task) or a callable class
(actor pool; heavy setup in ``__init__``).  All hot stages run
``batch_format="pyarrow"`` with zero-copy blocks; pandas only where the
kernel needs it.
"""

from .extract_text import extract_text_stage
from .chunk import ChunkStage
from .kg_extract import ExtractKG, COMBINED_SCHEMA, entities_only, triples_only
from .canonicalize import (
    partial_entity_agg, entity_bucket_merge, partial_triple_agg,
)
from .embed import EmbedStage
from .hashagg import auto_pool, bucketed_join, grouped_arrow_agg, hash_grouped_aggregate
from .memo import memoized_stage
from .registry import make_extractor

__all__ = [
    "extract_text_stage", "ChunkStage", "ExtractKG", "COMBINED_SCHEMA",
    "entities_only", "triples_only",
    "partial_entity_agg", "entity_bucket_merge", "partial_triple_agg",
    "EmbedStage", "auto_pool", "bucketed_join", "grouped_arrow_agg",
    "hash_grouped_aggregate", "memoized_stage", "make_extractor",
]
