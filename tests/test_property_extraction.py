"""Property-based tests (hypothesis) mirroring the reference's proptest
layer (``tests/property_tests.rs``): extraction robustness + invariants
over arbitrary text, id stability, pipeline-function purity."""

import string

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphrag_rs_ray.functions.entities import (
    PatternEntityExtractor,
    _token_features,
    entity_id_for,
    extract_relationships,
    is_likely_person_name,
)
from graphrag_rs_ray.functions.html import extract_page_text
from graphrag_rs_ray.functions.similarity import (
    compute_similarity_normalized,
    normalize_string,
)
from graphrag_rs_ray.functions.textstats import bm25_tokenize, detect_language

text_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=500)


@settings(max_examples=80, deadline=None)
@given(text_strategy)
def test_extractor_never_crashes_and_mentions_in_bounds(text):
    ex = PatternEntityExtractor(min_confidence=0.5)
    entities = ex.extract(text)
    for e in entities:
        assert 0.0 <= e.confidence <= 1.0
        assert e.entity_id == entity_id_for(e.name, e.entity_type)
        for m in e.mentions:
            assert 0 <= m.start <= m.end <= len(text)
            assert text[m.start:m.end] == e.name
    rels = extract_relationships(entities, text)
    ids = {e.entity_id for e in entities}
    for s, p, o in rels:
        assert s in ids and o in ids and p


@settings(max_examples=80, deadline=None)
@given(text_strategy)
def test_extraction_idempotent(text):
    ex = PatternEntityExtractor(min_confidence=0.7)
    a = [(e.entity_id, e.confidence, len(e.mentions)) for e in ex.extract(text)]
    b = [(e.entity_id, e.confidence, len(e.mentions)) for e in ex.extract(text)]
    assert a == b


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=400), st.one_of(st.none(), st.text(max_size=100)))
def test_extract_page_text_total(html, fallback):
    out = extract_page_text(html, fallback)
    assert isinstance(out, str)
    assert out == extract_page_text(html, fallback)


@settings(max_examples=80, deadline=None)
@given(text_strategy, text_strategy)
def test_similarity_bounds_and_symmetry(a, b):
    s = compute_similarity_normalized(normalize_string(a), normalize_string(b))
    assert 0.0 <= s <= 1.0 + 1e-6
    # exact-normalized match always scores 1.0
    if normalize_string(a) == normalize_string(b):
        assert s == 1.0


@settings(max_examples=60, deadline=None)
@given(text_strategy)
def test_tokenizers_total(text):
    for tok in bm25_tokenize(text):
        assert tok and len(tok) > 2 and tok == tok.lower()
    assert detect_language(text) in ("en", "es", "pt", "fr")


# one whitespace-free raw token, as the extractor's split yields it; the
# head is an upper-case letter because only a token whose raw first
# character is upper case is person-eligible ([5]), so the ``assume``
# below rejects every other head
_ACCENTED = "ÀÉÎÕÜÇÑàéîõüçñß"
_TOKEN = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from(string.ascii_uppercase + "ÀÉÎÕÜÇÑ"),
    st.text(alphabet=string.ascii_letters + _ACCENTED
            + string.digits + ".,'-()!?\"", max_size=10))


@settings(max_examples=300, deadline=None)
@given(_TOKEN, _TOKEN)
def test_two_word_flag_is_person_name_test(w0, w1):
    # _extract_two_word reads the folded flag [8] of two person-eligible
    # tokens in place of is_likely_person_name on their joined cleans
    f0, f1 = _token_features(w0), _token_features(w1)
    assume(f0[5] and f1[5])
    assert (f0[8] and f1[8]) == is_likely_person_name(f0[0] + " " + f1[0])
