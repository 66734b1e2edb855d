"""Text analysis kernels — port of
``graphrag-core/src/text/analysis.rs`` (section-number extraction,
roman numerals, text statistics).  Heading/underline detection live in
``functions/layout.py`` (same reference file, ported round 1).

Semantics pinned (statistics + section numbers are re-derived by the
DuckDB oracle):

- extract_section_number (``analysis.rs:78-186``), precedence order:
  decimal ``^(\\d+(?:\\.\\d+)*)\\s*[.:]?\\s`` → chapter keyword
  ``(?i)^(chapter|section|part|appendix)\\s+(\\d+|[IVXLCDM]+|[A-Z])\\b``
  (mixed; inner precedence number → roman → alpha, so "Chapter C"
  parses as roman 100, not alpha 3) → roman ``^([IVXLCDM]+)[.:]?\\s``
  → alpha ``^([A-Z])[.:]?\\s``.
- parse_roman_numeral (``:188-213``): reversed scan, subtract when a
  value is smaller than its right neighbour (no validity check —
  "IIII" = 4, "IXX" = 19 quirks preserved).
- calculate_statistics (``:238-280``): whitespace words, sentence
  count = count of ``.!?`` CHARACTERS (min 1), paragraphs =
  ``\\n\\n``-split non-blank segments (min 1), char (not byte) count,
  f32 ratios → f64 (repo-wide discipline).
"""

from __future__ import annotations

import re

_DECIMAL_RE = re.compile(r"^(\d+(?:\.\d+)*)\s*[.:]?\s")
_ROMAN_RE = re.compile(r"^([IVXLCDM]+)[.:]?\s")
_ALPHA_RE = re.compile(r"^([A-Z])[.:]?\s")
_CHAPTER_RE = re.compile(
    r"^(chapter|section|part|appendix)\s+(\d+|[IVXLCDM]+|[A-Z])\b",
    re.IGNORECASE)

_ROMAN_VALUES = {"I": 1, "V": 5, "X": 10, "L": 50, "C": 100, "D": 500,
                 "M": 1000}


def parse_roman_numeral(roman: str) -> int | None:
    result, prev = 0, 0
    for ch in reversed(roman):
        value = _ROMAN_VALUES.get(ch)
        if value is None:
            return None
        if value < prev:
            result -= value
        else:
            result += value
        prev = value
    return result


def extract_section_number(text: str) -> dict | None:
    """→ {raw, format, components} or None (``analysis.rs:78-186``)."""
    m = _DECIMAL_RE.match(text)
    if m:
        comps = [int(s) for s in m.group(1).split(".")]
        if comps:
            return {"raw": m.group(1), "format": "decimal",
                    "components": comps}
    m = _CHAPTER_RE.match(text)
    if m:
        num = m.group(2)
        if num.isdigit():
            return {"raw": f"{m.group(1)} {num}", "format": "mixed",
                    "components": [int(num)]}
        rv = parse_roman_numeral(num)
        if rv is not None:
            return {"raw": f"{m.group(1)} {num}", "format": "mixed",
                    "components": [rv]}
        if len(num) == 1 and "A" <= num <= "Z":
            return {"raw": f"{m.group(1)} {num}", "format": "mixed",
                    "components": [ord(num) - ord("A") + 1]}
    m = _ROMAN_RE.match(text)
    if m:
        rv = parse_roman_numeral(m.group(1))
        if rv is not None:
            return {"raw": m.group(1), "format": "roman",
                    "components": [rv]}
    m = _ALPHA_RE.match(text)
    if m:
        return {"raw": m.group(1), "format": "alphabetic",
                "components": [ord(m.group(1)) - ord("A") + 1]}
    return None


def calculate_statistics(text: str) -> dict:
    """``analysis.rs:238-280``."""
    word_count = len(text.split())
    sentence_count = max(sum(1 for c in text if c in ".!?"), 1)
    paragraph_count = max(
        sum(1 for p in text.split("\n\n") if p.strip()), 1)
    char_count = len(text)
    return {
        "word_count": word_count,
        "sentence_count": sentence_count,
        "paragraph_count": paragraph_count,
        "char_count": char_count,
        "avg_sentence_length": word_count / sentence_count,
        "avg_word_length": (char_count / word_count
                            if word_count > 0 else 0.0),
    }
