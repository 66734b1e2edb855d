"""Cross-implementation goldens for the HTML automaton, taken from the
reference's own tests (``text/parsers/html.rs:168-241``)."""

from graphrag_rs_ray.functions.html import (
    build_hierarchy,
    build_sections,
    extract_page_text,
    extract_text_content,
    parse_headings,
)

REF_DOC = """
<html>
<body>
<h1>Chapter 1: Introduction</h1>
<p>Some introductory text.</p>
<h2>Section 1.1: Background</h2>
<p>Background information.</p>
<h3>Subsection 1.1.1: Details</h3>
<p>Detailed information.</p>
<h2>Section 1.2: Methods</h2>
<p>Methodology.</p>
</body>
</html>
"""


def test_heading_parsing_matches_reference():
    headings = parse_headings(REF_DOC)
    assert [(h.level, h.text) for h in headings] == [
        (1, "Chapter 1: Introduction"),
        (2, "Section 1.1: Background"),
        (3, "Subsection 1.1.1: Details"),
        (2, "Section 1.2: Methods"),
    ]


def test_nested_tags_in_heading():
    # html.rs:223-231
    headings = parse_headings("<h1>Chapter <em>One</em></h1><p>Content</p>")
    assert len(headings) == 1
    assert headings[0].text == "Chapter One"


def test_hierarchy():
    # html.rs:204-220
    content = "<h1>Main</h1>\n<h2>Sub1</h2>\n<h3>SubSub1</h3>\n<h2>Sub2</h2>"
    sections = build_sections(parse_headings(content), content)
    roots = build_hierarchy(sections)
    assert len(sections) == 4
    assert roots == [0]
    assert sections[1].parent_section == 0
    assert sections[2].parent_section == 1
    assert sections[3].parent_section == 0


def test_tag_strip_automaton():
    assert extract_text_content("Chapter <em>One</em>") == "Chapter One"
    assert extract_text_content("<b>bold</b> and <i>italic</i>") == "bold and italic"
    # unmatched '>' outside a tag passes through; '<' opens a tag run
    assert extract_text_content("a < b") == "a"
    # '>' closes (or is a no-op outside a tag) and is never emitted
    assert extract_text_content("x > y") == "x  y"


def test_extract_page_text_prefers_html():
    html = b"<html><body><h1>T</h1><p>Hello world.</p></body></html>"
    assert extract_page_text(html, "fallback") == "THello world."
    assert extract_page_text(None, "fallback") == "fallback"
    assert extract_page_text(b"", "fallback") == "fallback"
    assert extract_page_text(None, None) == ""


def test_extract_page_text_deterministic_bytes():
    """Per-url byte-identical invariant: same input → same sha256."""
    import hashlib
    html = ("<html><body><h1>Café <em>Plan</em></h1>"
            "<p>Nested <b>tags</b> stripped.</p></body></html>").encode()
    h1 = hashlib.sha256(extract_page_text(html, None).encode()).hexdigest()
    h2 = hashlib.sha256(extract_page_text(bytes(html), None).encode()).hexdigest()
    assert h1 == h2
    assert extract_page_text(html, None) == "Café PlanNested tags stripped."
