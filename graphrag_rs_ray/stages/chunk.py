"""docs → chunks: chunking stage (1 doc row → N chunk rows); semantics in
``functions/chunking.py`` (ports of ``text/chunking.rs:48-152`` and the
legacy ``text/mod.rs:123-168`` chunker, selected by ``KGConfig.chunker``).

A callable class so the config is bound once per worker.  The flat output
keeps chunks of one document inside one output block, which the KG
extraction stage relies on only for efficiency, not correctness (all
per-chunk work is row-local).
"""

from __future__ import annotations

import pyarrow as pa

from ..config import KGConfig
from ..functions.chunking import chunk_text, chunk_text_legacy
from ..functions.code_chunking import chunk_rust_code


class ChunkStage:
    def __init__(self, cfg: KGConfig | None = None):
        self.cfg = cfg or KGConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        doc_ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        langs = (batch.column("lang").to_pylist()
                 if "lang" in batch.column_names else ["en"] * len(doc_ids))
        out_cid, out_did, out_txt, out_s, out_e, out_lang = [], [], [], [], [], []
        for doc_id, text, lang in zip(doc_ids, texts, langs):
            if not text:
                continue
            if cfg.chunker == "legacy":
                pieces = chunk_text_legacy(text, cfg.chunk_size, cfg.chunk_overlap)
            elif cfg.chunker == "rust_code":
                # code-aware item-boundary chunking
                # (chunking_strategies.rs:138-239)
                pieces = chunk_rust_code(text, cfg.min_chunk_size)
            else:
                pieces = chunk_text(text, cfg.chunk_size, cfg.chunk_overlap,
                                    cfg.min_chunk_size)
            for i, (content, s, e) in enumerate(pieces):
                out_cid.append(f"{doc_id}_{i}")
                out_did.append(doc_id)
                out_txt.append(content)
                out_s.append(s)
                out_e.append(e)
                out_lang.append(lang)
        return pa.table({
            "chunk_id": pa.array(out_cid, pa.string()),
            "doc_id": pa.array(out_did, pa.string()),
            "text": pa.array(out_txt, pa.string()),
            "start": pa.array(out_s, pa.int64()),
            "end": pa.array(out_e, pa.int64()),
            "lang": pa.array(out_lang, pa.string()),
        })
