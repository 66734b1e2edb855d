"""Web link-graph dataflows: pages → (src, dst, anchor) edge table →
host-level domain graph → host rank.

The Common-Crawl link-graph workload over the same page table the KG
headline consumes: a stateless extraction map (one pass over html),
one hash-bucketed aggregation for the domain rollup, and the existing
Dataset-native PageRank for host ranking — no driver materialization
anywhere, so the shape survives 10^12 pages.  Kernels in
``functions/weblinks.py``.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.weblinks import extract_links, url_host
from ..stages.hashagg import (
    grouped_arrow_agg,
    hash_grouped_aggregate,
)


def link_edges(pages_ds):
    """Raw outlink edges: one row per extracted anchor, document order
    per page, duplicates preserved.  Pages without html (pre-extracted
    arrivals) contribute no edges — links live in markup only."""

    def extract(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        su, sh, du, dh, an = [], [], [], [], []
        for url, html in zip(urls, htmls):
            if html is None:
                continue
            text = (html.decode("utf-8", errors="replace")
                    if isinstance(html, bytes) else html)
            host = url_host(url)
            for dst, anchor in extract_links(text, url):
                su.append(url)
                sh.append(host)
                du.append(dst)
                dh.append(url_host(dst))
                an.append(anchor)
        return pa.table({"src_url": pa.array(su, pa.string()),
                         "src_host": pa.array(sh, pa.string()),
                         "dst_url": pa.array(du, pa.string()),
                         "dst_host": pa.array(dh, pa.string()),
                         "anchor": pa.array(an, pa.string())})

    return pages_ds.map_batches(extract, batch_format="pyarrow")


def domain_edges(edges_ds):
    """Host-level rollup: (src_host, dst_host, n_links) — one
    hash-bucketed aggregation (host pairs are low-cardinality next to
    edges, so per-block combining collapses most of the exchange)."""

    def ones(batch: pa.Table) -> pa.Table:
        return pa.table({"src_host": batch.column("src_host"),
                         "dst_host": batch.column("dst_host"),
                         "one": pa.array([1] * batch.num_rows, pa.int64())})

    return hash_grouped_aggregate(
        edges_ds.map_batches(ones, batch_format="pyarrow"),
        ["src_host", "dst_host"],
        grouped_arrow_agg(["src_host", "dst_host"], [("one", "sum")],
                          rename=["src_host", "dst_host", "n_links"]))


def host_pagerank(edges_ds, damping: float = 0.85, max_iter: int = 20,
                  **kw):
    """PageRank over the host graph (distinct host→host edges feed the
    existing Dataset-native / small-graph twin implementation)."""
    from .graph_ops import pagerank

    def as_subj_obj(batch: pa.Table) -> pa.Table:
        return pa.table({"subj": batch.column("src_host"),
                         "pred": pa.array(["links_to"] * batch.num_rows,
                                          pa.string()),
                         "obj": batch.column("dst_host")})

    hosts = domain_edges(edges_ds).map_batches(
        as_subj_obj, batch_format="pyarrow")
    return pagerank(hosts, damping=damping, max_iter=max_iter, **kw)


def anchor_text_index(edges_ds):
    """Anchor-text document expansion (the classic web-IR signal: what
    the web CALLS a page): per dst_url — in-link count, distinct anchor
    count, and the top anchor (max frequency, ties to the
    lexicographically-smallest anchor).  One hash-bucketed exchange on
    dst_url; all counting happens inside the bucket."""

    def per_bucket(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        cnt = (df.groupby(["dst_url", "anchor"]).size()
               .rename("c").reset_index()
               .sort_values(["dst_url", "c", "anchor"],
                            ascending=[True, False, True]))
        top = cnt.drop_duplicates("dst_url").set_index("dst_url")
        g = df.groupby("dst_url")
        out = g.size().rename("n_inlinks").to_frame()
        out["n_distinct_anchors"] = g["anchor"].nunique()
        out["top_anchor"] = top["anchor"]
        return pa.table({
            "dst_url": pa.array(out.index, pa.string()),
            "n_inlinks": pa.array(out["n_inlinks"], pa.int64()),
            "n_distinct_anchors": pa.array(out["n_distinct_anchors"],
                                           pa.int64()),
            "top_anchor": pa.array(out["top_anchor"], pa.string()),
        })

    slim = edges_ds.map_batches(
        lambda t: t.select(["dst_url", "anchor"]), batch_format="pyarrow")
    return hash_grouped_aggregate(slim, ["dst_url"], per_bucket)


def boilerplate_blocks(pages_ds, max_link_density_micro: int = 500_000):
    """Per-block boilerplate decisions over html pages (jusText-style
    link-density heuristic, ``functions/boilerplate.py``): one row per
    <p>/<li>/<h*> block with its text/link char counts and the keep
    verdict.  Stateless map — the 100-TB shape."""
    from ..functions.boilerplate import block_rows

    def rows(batch: pa.Table) -> pa.Table:
        urls, tags, texts, tc, lc, kept = [], [], [], [], [], []
        for url, html in zip(batch.column("url").to_pylist(),
                             batch.column("html").to_pylist()):
            if html is None:
                continue
            text = (html.decode("utf-8", errors="replace")
                    if isinstance(html, bytes) else html)
            for r in block_rows(text, max_link_density_micro):
                urls.append(url)
                tags.append(r["tag"])
                texts.append(r["block_text"])
                tc.append(r["text_chars"])
                lc.append(r["link_chars"])
                kept.append(r["kept"])
        return pa.table({"url": pa.array(urls, pa.string()),
                         "tag": pa.array(tags, pa.string()),
                         "block_text": pa.array(texts, pa.string()),
                         "text_chars": pa.array(tc, pa.int64()),
                         "link_chars": pa.array(lc, pa.int64()),
                         "kept": pa.array(kept, pa.bool_())})

    return pages_ds.map_batches(rows, batch_format="pyarrow")


def clean_pages(pages_ds, max_link_density_micro: int = 500_000):
    """Boilerplate-stripped page text: (url, text, n_blocks, n_dropped)
    with link-heavy blocks removed, document order preserved."""
    from ..functions.boilerplate import strip_boilerplate

    def rows(batch: pa.Table) -> pa.Table:
        urls, texts, nb, nd = [], [], [], []
        for url, html in zip(batch.column("url").to_pylist(),
                             batch.column("html").to_pylist()):
            if html is None:
                continue
            h = (html.decode("utf-8", errors="replace")
                 if isinstance(html, bytes) else html)
            text, n_blocks, n_dropped = strip_boilerplate(
                h, max_link_density_micro)
            urls.append(url)
            texts.append(text)
            nb.append(n_blocks)
            nd.append(n_dropped)
        return pa.table({"url": pa.array(urls, pa.string()),
                         "text": pa.array(texts, pa.string()),
                         "n_blocks": pa.array(nb, pa.int64()),
                         "n_dropped": pa.array(nd, pa.int64())})

    return pages_ds.map_batches(rows, batch_format="pyarrow")
