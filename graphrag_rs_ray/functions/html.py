"""HTML layout parsing + page-text extraction.

Semantics follow the reference's deliberately naive HTML handling
(``graphrag-core/src/text/parsers/html.rs``): a ``<``/``>`` state machine
strips tags (``html.rs:21-36``), headings h1–h6 are found by line scan
(``html.rs:39-80``), and sections/hierarchy come from a level stack
(``html.rs:83-137``).  We intentionally do NOT use a real HTML parser — the
per-url byte-identical text contract is defined by this automaton.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def extract_text_content(tag_content: str) -> str:
    """Strip nested HTML tags with the ``<``/``>`` state machine, then trim.

    Port of ``html.rs:21-36`` (``extract_text_content``).  The full-page
    text-extraction contract is this exact function applied to the whole
    document: every character outside a ``<...>`` run is kept verbatim
    (including all whitespace/newlines), then the result is stripped at
    both ends, matching Rust ``str::trim`` (Unicode whitespace).
    """
    out: list[str] = []
    inside_tag = False
    for ch in tag_content:
        if ch == "<":
            inside_tag = True
        elif ch == ">":
            inside_tag = False
        elif not inside_tag:
            out.append(ch)
    return "".join(out).strip()


# The one pure function that defines the page-text contract.
def extract_page_text(html: bytes | str | None, fallback_text: str | None) -> str:
    """html→text when html is present (automaton, byte-identical per url),
    else the pre-extracted ``text`` column verbatim.

    html bytes are decoded as UTF-8 with replacement (web pages are dirty);
    the decode is deterministic, so the per-url byte-identical invariant
    holds.
    """
    if html is not None and len(html) > 0:
        if isinstance(html, bytes):
            html = html.decode("utf-8", errors="replace")
        return extract_text_content(html)
    return fallback_text if fallback_text is not None else ""


@dataclass
class Heading:
    level: int
    text: str
    start_offset: int
    end_offset: int
    line_number: int = 0


@dataclass
class Section:
    heading: Heading
    content_start: int
    content_end: int
    parent_section: int | None = None
    child_sections: list[int] = field(default_factory=list)


def parse_headings(content: str) -> list[Heading]:
    """Line-scan for ``<h1>``..``</h6>``; port of ``html.rs:39-80``.

    Offsets are cumulative character offsets (the reference uses byte
    offsets; on the ASCII tags involved the boundary positions coincide for
    heading detection — the heading *text* is what downstream consumes).
    """
    headings: list[Heading] = []
    current_offset = 0
    for line_num, line in enumerate(content.split("\n")):
        lower = line.lower()
        for level in range(1, 7):
            open_tag = f"<h{level}"
            close_tag = f"</h{level}>"
            start_idx = lower.find(open_tag)
            if start_idx != -1:
                end_idx = lower.find(close_tag)
                if end_idx != -1:
                    content_start = line[start_idx:].find(">")
                    if content_start != -1:
                        actual_start = start_idx + content_start + 1
                        tag_content = line[actual_start:end_idx]
                        text = extract_text_content(tag_content)
                        if text:
                            headings.append(
                                Heading(
                                    level=level,
                                    text=text,
                                    start_offset=current_offset + start_idx,
                                    end_offset=current_offset + end_idx + len(close_tag),
                                    line_number=line_num,
                                )
                            )
        current_offset += len(line) + 1  # +1 for the newline
    return headings


def build_sections(headings: list[Heading], content: str) -> list[Section]:
    """Port of ``html.rs:83-97``."""
    sections: list[Section] = []
    for i, heading in enumerate(headings):
        content_start = heading.end_offset
        content_end = headings[i + 1].start_offset if i + 1 < len(headings) else len(content)
        sections.append(Section(heading=heading, content_start=content_start, content_end=content_end))
    return sections


def build_hierarchy(sections: list[Section]) -> list[int]:
    """Stack-based parenting; port of ``html.rs:100-137``.

    Mutates ``sections`` (parent/child links) and returns root indices.
    """
    roots: list[int] = []
    stack: list[int] = []
    for idx, section in enumerate(sections):
        level = section.heading.level
        while stack and sections[stack[-1]].heading.level >= level:
            stack.pop()
        if stack:
            sections[stack[-1]].child_sections.append(idx)
            section.parent_section = stack[-1]
        else:
            roots.append(idx)
        stack.append(idx)
    return roots
