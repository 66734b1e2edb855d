"""Chunk enrichment stage: chapter/section/subsection, keywords, summary,
document position — port of ``text/chunk_enricher.rs:48-142``.

Runs per DOCUMENT: parse layout once, then enrich each chunk by locating
its section via start offset.  In Ray this is a stage over doc rows that
re-chunks and enriches in one pass (chunking is cheap; fusing the two
avoids shipping doc text twice).

Keyword note: the reference's default enricher uses an EMPTY corpus-DF
TF-IDF (``TfIdfKeywordExtractor::new_default`` — total_docs=1), making all
scores 0 and the top-k order an arbitrary HashMap order; we break ties
lexicographically, which is deterministic (documented deviation).
"""

from __future__ import annotations

import pyarrow as pa

from ..config import KGConfig
from ..functions.chunking import chunk_text
from ..functions.keywords import summarize, tfidf_keywords
from ..functions.layout import find_section_containing_offset, heading_path, parse_layout

ENRICHED_SCHEMA = pa.schema([
    ("chunk_id", pa.string()),
    ("doc_id", pa.string()),
    ("text", pa.string()),
    ("start", pa.int64()),
    ("end", pa.int64()),
    ("chapter", pa.string()),
    ("section", pa.string()),
    ("subsection", pa.string()),
    ("structural_level", pa.int32()),
    ("keywords", pa.list_(pa.string())),
    ("summary", pa.string()),
    ("position_in_document", pa.float32()),
])


class EnrichedChunkStage:
    """doc rows (doc_id, text) → enriched chunk rows."""

    def __init__(self, cfg: KGConfig | None = None):
        self.cfg = cfg or KGConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        cols = {name: [] for name in ENRICHED_SCHEMA.names}
        for doc_id, text in zip(batch.column("doc_id").to_pylist(),
                                batch.column("text").to_pylist()):
            if not text:
                continue
            _, sections, _ = parse_layout(text, "plaintext")
            doc_len = max(len(text), 1)
            for i, (content, s, e) in enumerate(
                    chunk_text(text, cfg.chunk_size, cfg.chunk_overlap, cfg.min_chunk_size)):
                chapter = section = subsection = None
                level = None
                sec_idx = find_section_containing_offset(sections, s)
                if sec_idx is not None:
                    path = heading_path(sections, sec_idx)
                    if path:
                        chapter = path[0]
                        if len(path) > 1:
                            section = path[1]
                        if len(path) > 2:
                            subsection = path[2]
                    level = sections[sec_idx].heading.level
                kws = [w for w, _ in tfidf_keywords(content, {}, 1, 5)]
                summary = summarize(content, 150) if len(content) > 150 else None
                cols["chunk_id"].append(f"{doc_id}_{i}")
                cols["doc_id"].append(doc_id)
                cols["text"].append(content)
                cols["start"].append(s)
                cols["end"].append(e)
                cols["chapter"].append(chapter)
                cols["section"].append(section)
                cols["subsection"].append(subsection)
                cols["structural_level"].append(level)
                cols["keywords"].append(kws)
                cols["summary"].append(summary)
                cols["position_in_document"].append(s / doc_len)
        return pa.table({n: pa.array(cols[n], ENRICHED_SCHEMA.field(n).type)
                         for n in ENRICHED_SCHEMA.names})
