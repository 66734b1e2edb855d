"""TF-IDF keyword extraction + extractive summarization.

Ports:
- ``TfIdfKeywordExtractor`` — ``text/keyword_extraction.rs:9-155``:
  tokenizer keeps alnum + ``-``/``_`` then lowercases, filters len>2,
  stopwords, pure numbers; TF = count/total; IDF = max(ln(N/df), 0) with
  df defaulting to 1 for unseen terms; top-k by score.
- ``ExtractiveSummarizer`` — ``text/extractive_summarizer.rs:108-300``:
  weighted sentence scoring (position 0.3, length 0.2, word-frequency 0.3,
  proper-noun 0.1, numeric 0.1), greedy selection under max_length with a
  90% early exit, original-order output.

Determinism: score ties broken by sentence index / term order.
"""

from __future__ import annotations

import math

TFIDF_STOPWORDS = frozenset({
    "the", "be", "to", "of", "and", "a", "in", "that", "have", "i", "it",
    "for", "not", "on", "with", "he", "as", "you", "do", "at", "this", "but",
    "his", "by", "from", "they", "we", "say", "her", "she", "or", "an",
    "will", "my", "one", "all", "would", "there", "their", "what", "so",
    "up", "out", "if", "about", "who", "get", "which", "go", "me", "when",
    "make", "can", "like", "time", "no", "just", "him", "know", "take",
    "people", "into", "year", "your", "good", "some", "could", "them",
    "see", "other", "than", "then", "now", "look", "only", "come", "its",
    "over", "think", "also", "back", "after", "use", "two", "how", "our",
    "work", "first", "well", "way", "even", "new", "want", "because",
    "any", "these", "give", "day", "most", "us", "is", "was", "are",
    "been", "has", "had", "were", "said", "did",
})


def tfidf_tokenize(text: str) -> list[str]:
    """Port of ``keyword_extraction.rs:69-86``."""
    out = []
    for word in text.split():
        w = "".join(c for c in word if c.isalnum() or c in "-_").lower()
        if w and len(w) > 2 and w not in TFIDF_STOPWORDS and not w.isdigit():
            out.append(w)
    return out


def tfidf_keywords(text: str, df: dict[str, int], total_docs: int,
                   top_k: int = 5) -> list[tuple[str, float]]:
    """Per-doc TF-IDF top-k given corpus document frequencies."""
    tokens = tfidf_tokenize(text)
    if not tokens:
        return []
    total = float(len(tokens))
    counts: dict[str, int] = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    n = max(total_docs, 1)
    scored = []
    for term, c in counts.items():
        idf = max(math.log(n / df.get(term, 1)), 0.0)
        scored.append((term, (c / total) * idf))
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored[:top_k]


# ---- extractive summarizer ----------------------------------------------

def _content_words(s: str) -> list[str]:
    out = []
    for w in s.split():
        w2 = "".join(c for c in w.lower() if c.isalnum() or c == "'")
        w2 = w2.strip("'")
        if w2 and w2 not in TFIDF_STOPWORDS:
            out.append(w2)
    return out


def score_sentence(sentence: str, all_sentences: list[str], position: int,
                   word_counts: dict[str, int]) -> float:
    """Port of ``extractive_summarizer.rs:108-230``."""
    n = len(all_sentences)
    if position == 0:
        pos_score = 2.0
    elif position == n - 1:
        pos_score = 1.5
    else:
        pos_score = 1.0 - (position / n) * 0.5
    total = pos_score * 0.3

    wc = len(sentence.split())
    if wc < 5:
        length_score = 0.3
    elif wc > 40:
        length_score = 0.5
    elif 10 <= wc <= 25:
        length_score = 1.0
    else:
        length_score = 0.7
    total += length_score * 0.2

    sw = _content_words(sentence)
    if sw:
        freq = sum(word_counts.get(w, 0) for w in sw) / len(sw)
        total += min(freq / 3.0, 1.0) * 0.3

    words = sentence.split()
    if words:
        proper = sum(1 for w in words
                     if w[:1].isupper() and len(w) > 2
                     and w.lower() not in TFIDF_STOPWORDS)
        total += min(proper / len(words), 1.0) * 0.1

    numbered = sum(1 for w in words if any(c.isdigit() for c in w))
    if numbered:
        total += min(numbered * 0.3, 1.0) * 0.1
    return total


def summarize(text: str, max_length: int = 150) -> str:
    """Extractive summary; port of ``extractive_summarizer.rs:30-69,232-271``."""
    from .textstats import extract_sentences
    sentences = extract_sentences(text)
    if not sentences:
        return ""
    if len(sentences) == 1:
        s = sentences[0]
        return s if len(s) <= max_length else s[:max(max_length - 3, 0)].rstrip() + "..."

    word_counts: dict[str, int] = {}
    for s in sentences:
        for w in _content_words(s):
            word_counts[w] = word_counts.get(w, 0) + 1

    scored = [(i, score_sentence(s, sentences, i, word_counts))
              for i, s in enumerate(sentences)]
    scored.sort(key=lambda t: (-t[1], t[0]))

    selected: list[int] = []
    cur_len = 0
    for idx, _ in scored:
        sl = len(sentences[idx])
        if cur_len + sl + 1 <= max_length:
            selected.append(idx)
            cur_len += sl + 1
        if cur_len >= max_length * 9 // 10:
            break
    if not selected and scored:
        selected = [scored[0][0]]
    selected.sort()
    out = " ".join(sentences[i] for i in selected)
    if len(out) > max_length:
        out = out[:max(max_length - 3, 0)].rstrip() + "..."
    return out
