"""Stage registry: config names → stage factories (SURVEY §2.13).

The reference selects pipeline implementations from TOML config
(``config/mod.rs:46-80``, ``HOW_IT_WORKS.md`` ``[mode] approach``) through
a service registry (``core/registry.rs``).  Here the registry maps the
``KGConfig.extractor`` name to a factory producing a map_batches-ready
extraction stage whose OUTPUT SCHEMA is the shared combined stream
(kind/chunk_id/doc_id/entity_id/name/type/conf/mention_count/subj/pred/
obj) — so every downstream stage (canonicalization, dedup, shards) is
extractor-agnostic.  Registering a real-LLM extractor is one more entry.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import KGConfig
from .kg_extract import ExtractKG


class GleaningCombinedStage:
    """Adapts the gleaning extractor (``stages/gleaning.py``) to the
    combined schema: gleaned entities get a fixed LLM-path confidence and
    mention_count 1 per chunk occurrence (the LLM path has no offset-level
    mentions; cf. ``entity/llm_extractor.rs`` substring-scan note)."""

    LLM_CONF = 0.9

    def __init__(self):
        from .gleaning import GleaningExtractStage
        self.inner = GleaningExtractStage(max_rounds=3)

    def __call__(self, batch: pa.Table) -> pa.Table:
        g = self.inner(batch)
        n = g.num_rows
        conf = [self.LLM_CONF] * n
        mc = [1 if k == "e" else 0 for k in g.column("kind").to_pylist()]
        return pa.table({
            "kind": g.column("kind"),
            "chunk_id": g.column("chunk_id"),
            "doc_id": g.column("doc_id"),
            "entity_id": g.column("entity_id"),
            "name": g.column("name"),
            "type": g.column("type"),
            "conf": pa.array(conf, pa.float32()),
            "mention_count": pa.array(mc, pa.int64()),
            "subj": g.column("subj"),
            "pred": g.column("pred"),
            "obj": g.column("obj"),
        })


EXTRACTORS = {
    "pattern": lambda cfg: ExtractKG(cfg),
    "gleaning": lambda cfg: GleaningCombinedStage(),
}


def make_extractor(cfg: KGConfig):
    name = getattr(cfg, "extractor", "pattern") or "pattern"
    try:
        factory = EXTRACTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown extractor {name!r}; registered: {sorted(EXTRACTORS)}") from None
    return factory(cfg)
