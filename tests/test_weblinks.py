"""Gates for the web link-graph family: href resolution/normalization
kernel cases, extraction hazards (tags in anchors, junk schemes,
duplicates preserved), the generator's byte-identity when links are off,
and the pipeline shapes (edge rows, domain rollup, host pagerank)."""

import pyarrow as pa

from graphrag_rs_ray.functions.weblinks import (
    extract_links,
    normalize_url,
    resolve_href,
    url_host,
)
from graphrag_rs_ray.sources.pages import page_record


def test_resolve_href_cases():
    base = "https://site7.example/abc123"
    assert resolve_href("https://x.example/p", base) == "https://x.example/p"
    assert resolve_href("HTTP://X.Example:80/P", base) == "http://x.example/P"
    assert resolve_href("https://x.example:443/p", base) == "https://x.example/p"
    assert resolve_href("//cdn.example/lib.js", base) == "https://cdn.example/lib.js"
    assert resolve_href("/other", base) == "https://site7.example/other"
    assert resolve_href("rel/page", base) == "https://site7.example/rel/page"
    assert resolve_href("rel", "https://h.example") == "https://h.example/rel"
    assert resolve_href("https://x.example/p#frag", base) == "https://x.example/p"
    for junk in ("#top", "", "  ", "mailto:a@b", "MAILTO:a@b",
                 "javascript:void(0)", "data:text/plain,x", "tel:+1234",
                 "#"):
        assert resolve_href(junk, base) is None


def test_normalize_and_host():
    assert normalize_url("HTTPS://Site1.Example/KeepPath") == \
        "https://site1.example/KeepPath"
    assert url_host("https://a.b.example:8080/x") == "a.b.example"
    assert url_host("not-a-url") == ""


def test_extract_links_order_tags_duplicates():
    html = ('<p>x</p><a href="/a">One</a>'
            '<A HREF="https://h.example/b">Two <em>em</em>\n lines</A>'
            '<a class="z" href="/a">One</a>'          # duplicate kept
            '<a href="mailto:x@y">skip</a>')
    got = extract_links(html, "https://s.example/page")
    assert got == [("https://s.example/a", "One"),
                   ("https://h.example/b", "Two em lines"),
                   ("https://s.example/a", "One")]


def test_link_edge_sql_parity_origin_only_base():
    # the oracle SQL fragment must resolve directory-relative hrefs the
    # way resolve_href does — INCLUDING an origin-only base such as
    # https://host (where the greedy '^(.*/)'-prefix is just the scheme)
    import duckdb
    import __ray_entry__ as e

    pages = [
        ("https://host.example",
         '<a href="rel/page">R</a><a href="/abs">A</a>'),
        ("https://host.example/dir/page",
         '<a href="rel2">R2</a><a href="//cdn.example/x">C</a>'),
        ("https://host.example/",
         '<a href="x">X</a>'),
        ("http://h2.example",
         '<a href="y">Y</a>'),
    ]
    expected = sorted(
        (url, dst, anchor)
        for url, html in pages
        for dst, anchor in extract_links(html, url))
    sql = ("WITH " + e._LINK_EDGE_SQL_BODY.replace(
               "__PAGES__", "staged_pages")
           + "\nSELECT src_url, dst_url, anchor FROM edges")
    con = duckdb.connect()
    con.execute("CREATE TABLE staged_pages(url VARCHAR, html VARCHAR)")
    con.executemany("INSERT INTO staged_pages VALUES (?, ?)", pages)
    got = sorted(tuple(r) for r in con.execute(sql).fetchall())
    con.close()
    assert got == expected


def test_generator_byte_identity_when_links_off():
    for i in (0, 5, 17):
        assert page_record(i, links=0) == page_record(i)
    # links=1+ adds anchors without touching any other field
    a, b = page_record(3), page_record(3, links=2)
    assert a["url"] == b["url"] and a["lang"] == b["lang"]
    if a["html"] is not None:
        assert b"<a href=" in b["html"] and b"<a href=" not in a["html"]
        assert b["html"].startswith(a["html"][:a["html"].index(b"</body>")])


def test_link_pipeline_shapes(ray_session):
    import ray.data as rd

    from graphrag_rs_ray.pipelines.weblinks import (
        domain_edges,
        host_pagerank,
        link_edges,
    )
    from graphrag_rs_ray.sources.pages import pages_dataset

    pages = pages_dataset(60, links=3)
    edges = link_edges(pages).materialize()
    df = edges.to_pandas()
    assert len(df) > 0
    # every kept edge resolved to an absolute normalized URL
    assert df["dst_url"].str.startswith("https://").all()
    assert (df["dst_host"] == df["dst_url"].str.extract(
        r"https://([^/]+)/")[0]).all()
    # junk anchors (mailto / #top) never survive
    assert not df["anchor"].isin(["Mail", "Top"]).any()
    # the duplicated first link is preserved in the raw edge table
    dup = df.groupby(["src_url", "dst_url"]).size()
    assert (dup >= 2).any()

    dom = domain_edges(edges).to_pandas()
    assert dom["n_links"].sum() == len(df)
    assert (dom.groupby(["src_host", "dst_host"]).size() == 1).all()

    ranks = host_pagerank(edges, max_iter=5).to_pandas()
    # no dangling redistribution (pagerank.rs semantics): mass can only
    # leak, never grow
    assert 0 < ranks["score"].sum() <= 1.0 + 1e-9
    assert (ranks["score"] > 0).all()
    assert ranks["node"].str.endswith(".example").all()
    # the 30% hub bias makes a site0-9 host the top-ranked node
    top = ranks.sort_values("score", ascending=False)["node"].iloc[0]
    assert top in {f"site{k}.example" for k in range(10)}


def test_pre_extracted_pages_contribute_no_edges(ray_session):
    import ray.data as rd

    from graphrag_rs_ray.pipelines.weblinks import link_edges

    t = pa.table({"url": ["https://s.example/p"], "html": [None]},
                 schema=pa.schema([("url", pa.string()),
                                   ("html", pa.binary())]))
    assert link_edges(rd.from_arrow(t)).count() == 0


def test_anchor_text_index(ray_session):
    import ray.data as rd

    from graphrag_rs_ray.pipelines.weblinks import anchor_text_index

    edges = pa.table({
        "dst_url": ["u1", "u1", "u1", "u2"],
        "anchor": ["b", "a", "a", "z"],
    })
    out = (anchor_text_index(rd.from_arrow(edges).repartition(3))
           .to_pandas().set_index("dst_url"))
    assert out.loc["u1", "n_inlinks"] == 3
    assert out.loc["u1", "n_distinct_anchors"] == 2
    assert out.loc["u1", "top_anchor"] == "a"     # freq 2 beats freq 1
    assert out.loc["u2", "top_anchor"] == "z"
    # tie -> lexicographically smallest
    tie = pa.table({"dst_url": ["u3", "u3"], "anchor": ["y", "x"]})
    t = anchor_text_index(rd.from_arrow(tie)).to_pandas()
    assert t["top_anchor"].iloc[0] == "x"


def test_boilerplate_kernel():
    from graphrag_rs_ray.functions.boilerplate import (
        block_rows,
        strip_boilerplate,
    )
    html = ('<h1>Title</h1>'
            '<p>Real content sentence with many words here.</p>'
            '<li><a href="/x">Nav link</a></li>'
            '<p>Half <a href="/y">link text longer</a> mix.</p>'
            '<p>   </p>'
            '<li>item with <a href="/z">tiny</a> link in a long line '
            'of plain prose text</li>')
    rows = block_rows(html)
    assert [r["tag"] for r in rows] == ["h", "p", "li", "p", "p", "li"]
    assert [r["kept"] for r in rows] == [True, True, False, False, False,
                                         True]
    # the nav <li> is 100% link text
    nav = rows[2]
    assert nav["link_chars"] == nav["text_chars"] == len("Nav link")
    # whitespace-only block dropped for emptiness, not density
    assert rows[4]["text_chars"] == 0
    text, n_blocks, n_dropped = strip_boilerplate(html)
    assert n_blocks == 6 and n_dropped == 3
    assert text.splitlines()[0] == "Title"
    assert "Nav link" not in text and "Real content" in text


def test_clean_pages_drops_link_section(ray_session):
    from graphrag_rs_ray.pipelines.weblinks import clean_pages
    from graphrag_rs_ray.sources.pages import pages_dataset

    out = clean_pages(pages_dataset(40, links=3)).to_pandas()
    assert len(out) > 0
    assert (out["n_dropped"] > 0).all()       # every html page has nav
    assert not out["text"].str.contains("Link to site").any()
    assert out["text"].str.contains("works for|professor|headquartered",
                                    regex=True).any()


# --------------------------------------------------- property gates --

from hypothesis import given, settings, strategies as st

_URLISH = st.text(
    alphabet="abcXY019:/?&=#._-%", max_size=60).map(
    lambda s: "https://" + s)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcXY019:/?&=#._- %", max_size=60))
def test_resolve_href_contract(href):
    got = resolve_href(href, "https://base.example/dir/page")
    if got is not None:
        assert got.lower().startswith(("http://", "https://"))
        assert "#" not in got


def test_invalid_utf8_html_does_not_crash(ray_session):
    import ray.data as rd

    from graphrag_rs_ray.pipelines.weblinks import clean_pages, link_edges

    bad = b'<p>ok</p><a href="/x">A\xff\xfeB</a>' + b"\xc3("
    t = pa.table({"url": ["https://s.example/p"], "html": [bad]},
                 schema=pa.schema([("url", pa.string()),
                                   ("html", pa.binary())]))
    edges = link_edges(rd.from_arrow(t)).to_pandas()
    assert len(edges) == 1 and edges["dst_url"][0] == "https://s.example/x"
    assert "�" in edges["anchor"][0]          # replacement char
    cp = clean_pages(rd.from_arrow(t)).to_pandas()
    assert cp["n_blocks"][0] >= 1
