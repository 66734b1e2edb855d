"""Per-document hierarchical summarization tree (RAPTOR-style).

Reference: ``graphrag-core/src/summarization/mod.rs`` — ``DocumentTree``
(:179-268), ``build_from_chunks`` (:271), ``build_bottom_up`` (:642-657),
``merge_level`` (:660-682, groups of ``merge_size`` in leaf order, node
ids ``level_{L}_{counter}``), ``merge_nodes`` (:685-745, contents joined
with a blank line), leaf ids ``leaf_{chunk_id}`` (:293), extractive
summaries (:759-793; our kernel is the already-ported
``functions/keywords.summarize``, extractive_summarizer.rs semantics —
deviation documented: same family, different sentence scorer).

Ray-Data shape: trees are strictly per-document, so the whole build is
one ``hash_grouped_aggregate`` over ``doc_id`` — each group builds its
own tree bottom-up in a local kernel (bounded by a single document's
chunk count), giving embarrassing parallelism at 10^12-document scale
with no cross-document shuffle at all.  The LLM summarization path of the
reference (LLMConfig.enabled) is out of sandbox scope; the extractive
default (``enabled: false`` in the reference too) is what runs.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.keywords import summarize
from ..functions.textstats import extract_keywords
from ..stages.hashagg import hash_grouped_aggregate

MERGE_SIZE = 5              # HierarchicalConfig::default merge_size (mod.rs:119)
MAX_SUMMARY_LENGTH = 200    # …::default max_summary_length (mod.rs:120)


def _chunk_pos(chunk_id: str) -> int:
    """Leaf order = the chunk index the chunker baked into the id
    (``stages/chunk.py``: ``f"{doc_id}_{i}"``)."""
    return int(chunk_id.rsplit("_", 1)[1])


def _doc_tree_rows(doc_id: str, chunks: list[tuple[str, str]],
                   merge_size: int, max_summary_length: int,
                   with_summary: bool, with_keywords: bool = False):
    """One document's tree as rows
    (node_id, level, parent_id, n_children, n_leaves[, summary]
    [, keywords_csv])."""
    chunks = sorted(chunks, key=lambda c: _chunk_pos(c[0]))
    kw = (lambda content, leaf, child_kws=None:
          node_keywords(content, leaf, child_kws)) if with_keywords \
        else (lambda *_a, **_k: [])
    level_nodes = [  # (node_id, content, n_leaves, keywords)
        (f"leaf_{cid}", text, 1, kw(text, True)) for cid, text in chunks]
    rows = []  # [node_id, level, slot, n_children, n_leaves, content, kws]
    for i, (nid, content, nl, kws) in enumerate(level_nodes):
        rows.append([nid, 0, i, 0, nl, content, kws])

    level = 0
    offset = 0                       # start index of current level in rows
    while len(level_nodes) > 1:
        level += 1
        nxt = []
        for k in range(0, len(level_nodes), merge_size):
            group = level_nodes[k:k + merge_size]
            merged_id = f"level_{level}_{k // merge_size}"
            content = "\n\n".join(g[1] for g in group)
            n_leaves = sum(g[2] for g in group)
            kws = kw(content, False, [g[3] for g in group])
            for j in range(k, k + len(group)):
                rows[offset + j].append(merged_id)     # parent of child j
            nxt.append((merged_id, content, n_leaves, kws))
        new_offset = len(rows)
        for i, (nid, content, nl, kws) in enumerate(nxt):
            rows.append([nid, level, i, min(merge_size, len(level_nodes) - i * merge_size), nl, content, kws])
        offset = new_offset
        level_nodes = nxt
    # top level (or single leaf): no parent
    for r in rows:
        if len(r) == 7:
            r.append(None)

    out = {
        "doc_id": [doc_id] * len(rows),
        "node_id": [r[0] for r in rows],
        "level": [r[1] for r in rows],
        "parent_id": [r[7] for r in rows],
        "n_children": [r[3] for r in rows],
        "n_leaves": [r[4] for r in rows],
    }
    if with_summary:
        out["summary"] = [summarize(r[5], max_summary_length) for r in rows]
    if with_keywords:
        out["keywords_csv"] = [",".join(r[6]) for r in rows]
    return out


def build_document_trees(chunks_ds, merge_size: int = MERGE_SIZE,
                         max_summary_length: int = MAX_SUMMARY_LENGTH,
                         with_summary: bool = True, num_buckets: int = 64,
                         with_keywords: bool = False):
    """chunks (chunk_id, doc_id, text) → tree-node rows, one tree per
    document, built fully inside the ``doc_id`` hash buckets."""

    def build(t: pa.Table) -> pa.Table:
        by_doc: dict[str, list] = {}
        for cid, did, text in zip(t.column("chunk_id").to_pylist(),
                                  t.column("doc_id").to_pylist(),
                                  t.column("text").to_pylist()):
            by_doc.setdefault(did, []).append((cid, text))
        cols = None
        for did in sorted(by_doc):
            rows = _doc_tree_rows(did, by_doc[did], merge_size,
                                  max_summary_length, with_summary,
                                  with_keywords)
            if cols is None:
                cols = {k: list(v) for k, v in rows.items()}
            else:
                for k in cols:
                    cols[k].extend(rows[k])
        schema = {
            "doc_id": pa.string(), "node_id": pa.string(),
            "level": pa.int64(), "parent_id": pa.string(),
            "n_children": pa.int64(), "n_leaves": pa.int64(),
        }
        if with_summary:
            schema["summary"] = pa.string()
        if with_keywords:
            schema["keywords_csv"] = pa.string()
        if cols is None:
            return pa.table({k: pa.array([], v) for k, v in schema.items()})
        return pa.table({k: pa.array(cols[k], schema[k]) for k in schema})

    sel = chunks_ds.map_batches(
        lambda t: t.select(["chunk_id", "doc_id", "text"]),
        batch_format="pyarrow")
    return hash_grouped_aggregate(sel, ["doc_id"], build,
                                  num_buckets=num_buckets)


# ------------------------------------------------------ tree keywords --

def node_keywords(content: str, is_leaf: bool,
                  child_keywords: list[list[str]] | None = None
                  ) -> list[str]:
    """Leaf: top-5 keywords of the content (``mod.rs:317,378`` — the
    text-module extractor whose Rust ties are HashMap-order; the
    pinned first-occurrence variant is used, documented).  Merged:
    child keywords concatenated → sort → dedup → truncate(10)
    (``:693-712``)."""
    if is_leaf:
        return extract_keywords(content, 5)
    merged: list[str] = []
    for kws in (child_keywords or []):
        merged.extend(kws)
    merged.sort()
    out = []
    for k in merged:
        if not out or out[-1] != k:
            out.append(k)
    return out[:10]
