"""Property gates for the fourth-session kernels (pure functions —
no Ray, no staging)."""

import math
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from graphrag_rs_ray.functions import similarity, string_linker
from graphrag_rs_ray.functions.similarity import (
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
)
from graphrag_rs_ray.functions.string_linker import (
    levenshtein_similarity,
    normalize_string,
    soundex,
)
from graphrag_rs_ray.functions.textstats import extract_sentences
from graphrag_rs_ray.pipelines.lazy_pipeline import chunk_text

TEXT = st.text(alphabet=string.ascii_letters + string.digits + " .!?',",
               max_size=80)


@settings(max_examples=200, deadline=None)
@given(TEXT, TEXT)
def test_jaro_bounds_symmetry_identity(a, b):
    j = jaro_similarity(a, b)
    assert 0.0 <= j <= 1.0
    assert jaro_similarity(b, a) == j          # symmetric
    if a:
        assert jaro_similarity(a, a) == 1.0
    jw = jaro_winkler_similarity(a, b)
    assert jw >= j - 1e-12                     # bonus never decreases
    assert jw <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(TEXT, TEXT)
def test_similarity_metric_bounds(a, b):
    assert 0.0 <= jaccard_similarity(a, b) <= 1.0
    ls = levenshtein_similarity(a, b)
    assert 0.0 <= ls <= 1.0
    assert jaccard_similarity(a, a) == 1.0


@settings(max_examples=200, deadline=None)
@given(TEXT)
def test_soundex_shape(s):
    code = soundex(s)
    if s:
        assert len(code) == 4
        assert code[1:].strip("0") == code[1:].rstrip("0")  # zero-pad tail
    else:
        assert code == ""


@settings(max_examples=200, deadline=None)
@given(TEXT)
def test_normalize_idempotent(s):
    n = normalize_string(s)
    assert normalize_string(n) == n
    assert "  " not in n and n == n.strip()


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_extract_sentences_reconstructable(text):
    for s in extract_sentences(text):
        assert s == s.strip() and s
        assert not any(c in s for c in ".!?")


@settings(max_examples=100, deadline=None)
@given(st.text(min_size=0, max_size=2000),
       st.integers(min_value=2, max_value=64),
       st.integers(min_value=0, max_value=30))
def test_lazy_chunker_covers_text(text, size, overlap):
    if overlap >= size:
        overlap = size - 1
    chunks = chunk_text(text, "d", chunk_size=size, chunk_overlap=overlap)
    if not text:
        assert chunks == []
        return
    # full coverage: every position falls inside some chunk
    assert chunks[0]["start_offset"] == 0
    assert chunks[-1]["end_offset"] == len(text)
    for a, b in zip(chunks, chunks[1:]):
        assert b["start_offset"] <= a["end_offset"]      # no gaps
        assert b["start_offset"] > a["start_offset"]     # progress
    for c in chunks:
        assert text[c["start_offset"]:c["end_offset"]] == c["content"]


# ---- the bounded Levenshtein kernel -------------------------------------
# Both greedy clusterers and every capped similarity score through
# ``levenshtein_bounded``, so their equality gates cannot see a fault in
# it; these compare it with the full DP.

# a small alphabet (multibyte letters and a space included) keeps many
# pairs within a few edits; arbitrary text covers the rest
WORD = st.one_of(st.text(alphabet="abcé漢 ", max_size=12),
                 st.text(max_size=12))


@st.composite
def _near_pairs(draw):
    """(a, b): independent words, or ``b`` a few random edits of ``a``."""
    a = draw(WORD)
    if draw(st.booleans()):
        return a, draw(WORD)
    b = list(a)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from("ids"))
        pos = draw(st.integers(0, len(b)))
        ch = draw(st.sampled_from("abé漢"))
        if op == "i":
            b.insert(pos, ch)
        elif b and pos < len(b):
            if op == "d":
                del b[pos]
            else:
                b[pos] = ch
    return a, "".join(b)


@settings(max_examples=3000, deadline=None)
@given(_near_pairs(), st.integers(0, 3))
def test_levenshtein_bounded_equals_capped_full_dp(pair, k):
    a, b = pair
    assert similarity.levenshtein_bounded(a, b, k) == min(
        similarity.levenshtein_distance(a, b), k + 1)


@settings(max_examples=1000, deadline=None)
@given(_near_pairs(), st.integers(0, 3))
def test_capped_levenshtein_similarity_bit_identical(pair, k):
    """Both capped similarities equal their full-DP expression exactly
    (char max length in ``similarity``, byte max length in
    ``string_linker``)."""
    a, b = pair
    d = similarity.levenshtein_distance(a, b)
    for got, max_len in (
            (similarity.levenshtein_similarity(a, b, k),
             max(len(a), len(b))),
            (string_linker.levenshtein_similarity(
                a, b, string_linker.LinkerConfig(max_edit_distance=k)),
             max(len(a.encode()), len(b.encode())))):
        want = 0.0 if d > k else 1.0 if max_len == 0 else 1.0 - d / max_len
        assert got == want
