"""Web link extraction kernels (pure Python, no Ray): ``<a href>``
anchors → resolved, normalized destination URLs + anchor text.

The Common-Crawl-style link-graph step a web corpus pipeline runs
before host-level ranking (the classic web-graph workload); the
reference's HTML parser strips anchors into plain text
(``text/parsers/html.rs``) and has no link extractor, so this operator
is part of the training-data/webtext surface, not a reference port.

Documented subset (mirrored exactly by the SQL oracle):
- anchors matched as ``<a ... href="...">inner</a>`` (double-quoted
  href; case-insensitive; inner may span lines and contain tags, which
  are stripped; whitespace collapsed);
- skipped: empty hrefs, pure fragments, and mailto:/javascript:/
  data:/tel: schemes;
- resolution: fragment stripped first; ``http(s)://`` absolute kept;
  ``//host/path`` → https; ``/path`` → source origin; other relative
  → joined to the source URL's directory (no ``..`` normalization);
- normalization: scheme+host lowercased, default ``:80``/``:443``
  ports dropped.
"""

from __future__ import annotations

import re

_A_RE = re.compile(r'<a\s[^>]*?href\s*=\s*"([^"]*)"[^>]*>(.*?)</a>',
                   re.IGNORECASE | re.DOTALL)
_TAG_RE = re.compile(r"<[^>]+>")
_WS_RE = re.compile(r"\s+")
_ORIGIN_RE = re.compile(r"^(https?://[^/]+)", re.IGNORECASE)
_SKIP_SCHEMES = ("mailto:", "javascript:", "data:", "tel:")


def normalize_url(url: str) -> str:
    """Lowercase scheme+host, drop default ports, keep path verbatim."""
    m = _ORIGIN_RE.match(url)
    if not m:
        return url
    origin = m.group(1).lower()
    if origin.startswith("https://") and origin.endswith(":443"):
        origin = origin[:-4]
    elif origin.startswith("http://") and origin.endswith(":80"):
        origin = origin[:-3]
    return origin + url[m.end():]


def url_host(url: str) -> str:
    m = _ORIGIN_RE.match(url)
    if not m:
        return ""
    return m.group(1).split("//", 1)[1].split(":", 1)[0].lower()


def resolve_href(href: str, base_url: str) -> str | None:
    """Resolved absolute URL for an href, or None when skipped."""
    h = href.strip()
    hl = h.lower()
    if not h or hl.startswith("#") or hl.startswith(_SKIP_SCHEMES):
        return None
    h = h.split("#", 1)[0]
    if not h:
        return None
    hl = h.lower()
    if hl.startswith(("http://", "https://")):
        dst = h
    elif h.startswith("//"):
        dst = "https:" + h
    elif h.startswith("/"):
        m = _ORIGIN_RE.match(base_url)
        if not m:
            return None
        dst = m.group(1) + h
    else:
        slash = base_url.rfind("/")
        if slash <= len("https:/"):      # origin-only base: append /
            dst = base_url.rstrip("/") + "/" + h
        else:
            dst = base_url[:slash + 1] + h
    return normalize_url(dst)


def extract_links(html: str, base_url: str) -> list[tuple[str, str]]:
    """(dst_url, anchor_text) per anchor, in document order; duplicates
    preserved (the edge table is the raw extraction — aggregation
    dedups downstream)."""
    out: list[tuple[str, str]] = []
    for m in _A_RE.finditer(html):
        dst = resolve_href(m.group(1), base_url)
        if dst is None:
            continue
        anchor = _WS_RE.sub(" ", _TAG_RE.sub("", m.group(2))).strip()
        out.append((dst, anchor))
    return out
