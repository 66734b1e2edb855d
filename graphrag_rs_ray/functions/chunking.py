"""Hierarchical text chunking with separator-priority boundary search.

Semantics follow the reference's ``HierarchicalChunker``
(``graphrag-core/src/text/chunking.rs:13-152``): size+overlap chunking where
each cut prefers, in order, ``\\n\\n`` > ``\\n`` > ``. `` > ``! `` > ``? `` >
``; `` > ``: `` > `` `` and a boundary only counts if it lies past 1/4 of the
window; chunks whose trimmed length is under ``min_chunk_size`` (50) are
dropped; the next chunk starts ``overlap`` back from the previous end,
snapped backward to a word boundary.

Deviations (documented; our goldens are frozen from THIS implementation):
- offsets/sizes are in Unicode codepoints, not UTF-8 bytes (the reference
  uses byte indices with char-boundary fix-ups, ``chunking.rs:56-58,90-93``;
  codepoint arithmetic gives the same boundaries on ASCII and is UTF-8-safe
  by construction).
- the reference's backward word-boundary scan mixes byte and char indices
  (``chunking.rs:138`` calls ``chars().nth`` with a byte position); we
  implement the evident intent: walk back to just after the nearest
  whitespace char.
- a forced-progress guard prevents the infinite loop possible in the
  reference when overlap back-off lands at/before the previous start.
"""

from __future__ import annotations

DEFAULT_SEPARATORS: tuple[str, ...] = ("\n\n", "\n", ". ", "! ", "? ", "; ", ": ", " ")
MIN_CHUNK_SIZE = 50


def _word_boundary_backward(text: str, pos: int) -> int:
    """Nearest position at-or-before ``pos`` that follows a whitespace char.

    Port of ``chunking.rs:130-152`` (intent; see module deviations).
    """
    while pos > 0:
        if text[pos - 1].isspace():
            return pos
        pos -= 1
    return pos


def _optimal_boundary(text: str, start: int, max_end: int,
                      separators: tuple[str, ...] = DEFAULT_SEPARATORS) -> int:
    """Separator-priority boundary search; port of ``chunking.rs:105-127``.

    For each separator in priority order, take the LAST occurrence inside
    the window; accept it only if it lies past 1/4 of the window.  Falls
    back to a backward word boundary from ``max_end``.
    """
    window = text[start:max_end]
    quarter = start + (max_end - start) // 4
    for sep in separators:
        pos = window.rfind(sep)
        if pos != -1:
            boundary = start + pos + len(sep)
            if boundary > quarter:
                return boundary
    return _word_boundary_backward(text, max_end)


def chunk_text(text: str, chunk_size: int, overlap: int,
               min_chunk_size: int = MIN_CHUNK_SIZE,
               separators: tuple[str, ...] = DEFAULT_SEPARATORS) -> list[tuple[str, int, int]]:
    """Split ``text`` into overlapping chunks; port of ``chunking.rs:48-102``.

    Returns ``[(chunk_text, start, end), ...]`` with real codepoint offsets
    into ``text`` (``text[start:end] == chunk_text`` always holds — unlike
    the reference's cumulative-position bookkeeping in
    ``text/mod.rs:94-117``, which over-counts under overlap).
    """
    n = len(text)
    chunks: list[tuple[str, int, int]] = []
    start = 0
    while start < n:
        end = min(start + chunk_size, n)
        if end >= n:
            chunk = text[start:]
            if len(chunk.strip()) >= min_chunk_size:
                chunks.append((chunk, start, n))
            break
        optimal = _optimal_boundary(text, start, end, separators)
        if optimal > start:
            end = optimal
        chunk = text[start:end]
        if len(chunk.strip()) >= min_chunk_size:
            chunks.append((chunk, start, end))
        if end >= n:
            break
        next_start = _word_boundary_backward(text, max(end - overlap, 0))
        if next_start <= start:  # forced progress (see module deviations)
            next_start = end
        start = next_start
    return chunks


ABBREVIATIONS = ("Dr", "Mr", "Mrs", "Ms", "Prof", "Jr", "Sr", "Inc", "Corp",
                 "Ltd", "Co", "etc", "vs", "e.g", "i.e", "cf", "pp")


def _is_likely_abbreviation(text: str, period_pos: int) -> bool:
    """Port of ``chunking.rs:199-227``."""
    if period_pos == 0:
        return False
    before = text[:period_pos]
    sp = before.rfind(" ")
    if sp != -1:
        candidate = before[sp + 1:]
        return any(candidate.lower() == a.lower() for a in ABBREVIATIONS)
    if period_pos == 1 and before[:1].isupper():
        return True
    return False


def find_sentence_boundary(text: str, start: int, preferred_end: int) -> int | None:
    """Last sentence end (``.!?`` + whitespace, non-abbreviation) within the
    trailing 300-char window; port of ``chunking.rs:155-196``."""
    if start >= preferred_end:
        return None
    window = text[start:preferred_end]
    search_start = max(len(window) - 300, 0)
    search = window[search_start:]
    last = None
    for i, ch in enumerate(search):
        if ch in ".!?":
            nxt = i + 1
            if nxt >= len(search):
                last = start + search_start + nxt
            else:
                nc = search[nxt]
                if nc in ("\n", " ") and not _is_likely_abbreviation(search, i):
                    last = start + search_start + nxt
    return last


def chunk_text_legacy(text: str, chunk_size: int, overlap: int) -> list[tuple[str, int, int]]:
    """The reference's DEFAULT chunker (``text/mod.rs:123-168``): fixed-size
    windows cut back to the last sentence boundary (abbreviation-guarded),
    next start = end − overlap with forced ≥1 progress."""
    n = len(text)
    chunks: list[tuple[str, int, int]] = []
    start = 0
    while start < n:
        end = min(start + chunk_size, n)
        if end < n:
            actual_end = find_sentence_boundary(text, start, end) or end
        else:
            actual_end = end
        content = text[start:actual_end]
        if content.strip():
            chunks.append((content, start, actual_end))
        if actual_end >= n:
            break
        start = max(start + 1, actual_end - overlap)
    return chunks
