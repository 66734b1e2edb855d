"""Concept extraction (the deterministic LazyGraphRAG indexing path).

Port of ``lightrag/concept_graph.rs:119-264``:
- capitalized noun-phrase regex ``\\b[A-Z][a-z]+(?:\\s+[A-Z][a-z]+)+\\b``,
- general noun-phrase regex ``\\b[A-Z][a-z]+(?:\\s+[A-Z]?[a-z]+){1,4}\\b``,
- top-20 frequency keywords (freq ≥ 2, len ≥ min_length, non-stopword),
- validity: length ≥ min_length (default 3), word count ≤ max_words (5),
  ≤ half stopwords,
- output sorted + deduped.
Edge semantics (``:389-448``): co-occurrence count over shared chunk-id
sets, threshold ≥ 2, confidence = Jaccard of the chunk sets.
"""

from __future__ import annotations

import re

CONCEPT_STOPWORDS = frozenset({
    "the", "a", "an", "and", "or", "but", "in", "on", "at", "to", "for",
    "of", "with", "by", "from", "as", "is", "was", "are", "were", "be",
    "been", "being", "have", "has", "had", "do", "does", "did", "will",
    "would", "should", "could", "may", "might", "must", "can", "this",
    "that", "these", "those", "it", "its", "i", "you", "he", "she", "we",
    "they", "them", "their", "what", "which", "who", "when", "where",
    "why", "how", "all", "each", "every", "both", "few", "more", "most",
    "other", "some", "such", "no", "nor", "not", "only", "own", "same",
    "so", "than", "too", "very", "just", "now",
})

_CAPITALIZED = re.compile(r"\b[A-Z][a-z]+(?:\s+[A-Z][a-z]+)+\b")
_NOUN_PHRASE = re.compile(r"\b[A-Z][a-z]+(?:\s+[A-Z]?[a-z]+){1,4}\b")

MIN_LENGTH = 3
MAX_WORDS = 5


def is_valid_concept(phrase: str, min_length: int = MIN_LENGTH,
                     max_words: int = MAX_WORDS) -> bool:
    if len(phrase) < min_length:
        return False
    words = phrase.split()
    if len(words) > max_words:
        return False
    stop = sum(1 for w in words if w.lower() in CONCEPT_STOPWORDS)
    return stop <= len(words) // 2


_TRIM_NON_ALNUM = re.compile(r"^[\W_]+|[\W_]+$")
_KEYWORD_MEMO: dict[str, str] = {}


def _trim_word(word: str) -> str:
    """Rust ``trim_matches(|c| !c.is_alphanumeric())`` equivalent, memoized."""
    w = _KEYWORD_MEMO.get(word)
    if w is None:
        w = _TRIM_NON_ALNUM.sub("", word.lower())
        if len(_KEYWORD_MEMO) < 500_000:
            _KEYWORD_MEMO[word] = w
    return w


def extract_keywords(text: str, min_length: int = MIN_LENGTH) -> list[str]:
    """Top-20 frequency keywords with freq ≥ 2 (``:222-244``)."""
    counts: dict[str, int] = {}
    for word in text.split():
        w = _trim_word(word)
        if len(w) >= min_length and w not in CONCEPT_STOPWORDS:
            counts[w] = counts.get(w, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    return [w for w, c in ranked if c >= 2]


def extract_concepts(text: str) -> list[str]:
    """Port of ``lightrag/concept_graph.rs:162-194`` — sorted, deduped."""
    concepts: list[str] = []
    for m in _CAPITALIZED.finditer(text):
        if is_valid_concept(m.group(0)):
            concepts.append(m.group(0))
    for m in _NOUN_PHRASE.finditer(text):
        if is_valid_concept(m.group(0)):
            concepts.append(m.group(0))
    concepts.extend(extract_keywords(text))
    return sorted(set(concepts))
