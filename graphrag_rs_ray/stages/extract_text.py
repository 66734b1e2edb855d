"""pages → docs: HTML→text extraction stage.

Stateless ``map_batches`` transform: applies the tag-strip automaton
(``text/parsers/html.rs:21-36`` port in ``functions/html.py``; per-url
byte-identical contract) and DROPS the
``html`` column immediately — on web-scale input the binary column
dominates block size, so it must not flow past this stage
(SURVEY §4 memory note).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.html import extract_page_text


def extract_text_stage(batch: pa.Table) -> pa.Table:
    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist() if "html" in batch.column_names else [None] * len(urls)
    texts = batch.column("text").to_pylist() if "text" in batch.column_names else [None] * len(urls)
    langs = batch.column("lang").to_pylist() if "lang" in batch.column_names else ["en"] * len(urls)
    titles = batch.column("title").to_pylist() if "title" in batch.column_names else [""] * len(urls)
    out_text = [extract_page_text(h, t) for h, t in zip(htmls, texts)]
    return pa.table({
        "doc_id": pa.array(urls, pa.string()),
        "title": pa.array(titles, pa.string()),
        "text": pa.array(out_text, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })
