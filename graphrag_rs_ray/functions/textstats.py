"""Text analysis kernels: language-ID, tokenization, stopwords, sentence
split, keyword extraction, quality scoring, fingerprinting.

Ports:
- language detection accent heuristic — ``graphrag-core/src/text/mod.rs:525-545``
- sentence extraction on ``.!?`` — ``text/mod.rs:339-363``
- frequency keyword extraction + stop list — ``text/mod.rs:457-492``
- BM25 tokenizer (lowercase, strip non-alnum, len>2, non-stopword) —
  ``retrieval/bm25.rs:198-208``

Quality scoring and fingerprinting are the training-data
extensions (no reference equivalent; deterministic by construction).
"""

from __future__ import annotations

import hashlib

ES_CHARS = set("ñóéíáú")
PT_CHARS = set("çãõ")
FR_CHARS = set("àèùò")


def detect_language(text: str) -> str:
    """Accent-character heuristic; port of ``text/mod.rs:525-545``.
    Order matters: es → pt → fr → en."""
    chars = set(text)
    if chars & ES_CHARS:
        return "es"
    if chars & PT_CHARS:
        return "pt"
    if chars & FR_CHARS:
        return "fr"
    return "en"


STOP_WORDS = frozenset({
    "the", "be", "to", "of", "and", "a", "in", "that", "have", "i", "it",
    "for", "not", "on", "with", "he", "as", "you", "do", "at", "this", "but",
    "his", "by", "from", "they", "we", "say", "her", "she", "or", "an",
    "will", "my", "one", "all", "would", "there", "their", "what", "so",
    "up", "out", "if", "about", "who", "get", "which", "go", "me",
})


def extract_sentences(text: str) -> list[str]:
    """Split on ``.!?``; port of ``text/mod.rs:339-363``."""
    sentences = []
    current: list[str] = []
    for ch in text:
        if ch in ".!?":
            s = "".join(current).strip()
            if s:
                sentences.append(s)
            current = []
        else:
            current.append(ch)
    s = "".join(current).strip()
    if s:
        sentences.append(s)
    return sentences


def sentence_count(text: str) -> int:
    return len(extract_sentences(text))


def extract_keywords(text: str, max_keywords: int = 10) -> list[str]:
    """Frequency top-k over lowercased words with len>3, non-stopword;
    port of ``text/mod.rs:457-480``.  Ties broken by first occurrence."""
    counts: dict[str, int] = {}
    for w in text.split():
        w = w.lower()
        if len(w) > 3 and w not in STOP_WORDS:
            counts[w] = counts.get(w, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: -kv[1])
    return [w for w, _ in ordered[:max_keywords]]


def bm25_tokenize(text: str) -> list[str]:
    """Lowercase, strip non-alnum per token, keep len>2 non-stopwords;
    port of ``retrieval/bm25.rs:198-208``."""
    out = []
    for tok in text.lower().split():
        tok = "".join(c for c in tok if c.isalnum())
        if tok and len(tok) > 2 and tok not in STOP_WORDS:
            out.append(tok)
    return out


# ---- training-data extensions ------------------------------------------

def quality_stats(text: str) -> dict:
    """Deterministic quality features: length, punctuation ratio,
    stopword ratio, mean word length."""
    n_chars = len(text)
    words = text.split()
    n_words = len(words)
    n_punct = sum(1 for c in text if not c.isalnum() and not c.isspace())
    n_stop = sum(1 for w in words if w.lower() in STOP_WORDS)
    return {
        "n_chars": n_chars,
        "n_words": n_words,
        "punct_ratio": (n_punct / n_chars) if n_chars else 0.0,
        "stopword_ratio": (n_stop / n_words) if n_words else 0.0,
        "mean_word_len": (sum(len(w) for w in words) / n_words) if n_words else 0.0,
    }


def fingerprint(text: str) -> str:
    """Content fingerprint = hex MD5 of the UTF-8 text (DuckDB ``md5()``
    computes the identical value, which makes this oracle-checkable)."""
    return hashlib.md5(text.encode("utf-8")).hexdigest()
