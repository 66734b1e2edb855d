"""String-similarity linker kernels vs the reference's own test values
(``entity/string_similarity_linker.rs:473-621``)."""

import math

from graphrag_rs_ray.functions.string_linker import (
    LinkerConfig,
    compute_similarity,
    jaccard_similarity,
    jaro_winkler_similarity,
    levenshtein_similarity,
    link_entities,
    normalize_string,
    soundex,
)
from graphrag_rs_ray.functions.entity_linker import levenshtein_chars


def test_levenshtein_distance():
    # :478-486
    assert levenshtein_chars("kitten", "sitting") == 3
    assert levenshtein_chars("saturday", "sunday") == 3
    assert levenshtein_chars("", "") == 0
    assert levenshtein_chars("abc", "abc") == 0


def test_jaro_winkler_similarity():
    # :488-500
    assert jaro_winkler_similarity("martha", "marhta") > 0.9
    assert jaro_winkler_similarity("dwayne", "duane") > 0.8
    assert jaro_winkler_similarity("abc", "xyz") < 0.3


def test_jaro_winkler_unconditional_prefix_bonus():
    # the reference applies the Winkler bonus with NO 0.7 boost
    # threshold — jaro("abcdxxxx","abcdyyyy") = 2/3, prefix 4 → 0.8
    # (DuckDB's builtin would return 2/3 here; why the oracle replays
    # the matcher instead of calling jaro_winkler_similarity())
    assert math.isclose(jaro_winkler_similarity("abcdxxxx", "abcdyyyy"),
                        2/3 + 4 * 0.1 * (1 - 2/3))


def test_jaccard_similarity():
    # :502-512
    sim = jaccard_similarity("the quick brown fox", "the lazy brown dog")
    assert 0.3 < sim < 0.5
    assert abs(jaccard_similarity("apple orange banana",
                                  "apple orange banana") - 1.0) < 0.001


def test_soundex():
    # :514-523
    assert soundex("Robert") == "R163"
    assert soundex("Rupert") == "R163"
    assert soundex("Rubin") == "R150"
    assert soundex("Smith") == "S530"
    assert soundex("Smyth") == "S530"


def test_entity_normalization():
    # :525-536
    assert normalize_string("John  Smith!") == "john smith"
    assert normalize_string("ACME Corp.") == "acme corp"


def test_levenshtein_similarity_cap_and_byte_maxlen():
    # distance 3 > max_edit_distance 2 → 0.0
    assert levenshtein_similarity("kitten", "sitting") == 0.0
    # distance 1 ≤ 2 → 1 − 1/10 over byte max-length
    assert math.isclose(levenshtein_similarity("jon smith", "john smith"),
                        1.0 - 1 / 10)


def test_link_similar_entities():
    # :587-620 — "New York" / "New York City" link at 0.85 via
    # Jaro-Winkler (lev distance 5 > cap → 0; jaccard 2/3 < 0.85)
    cfg = LinkerConfig(min_similarity=0.85)
    ents = [
        {"entity_id": "e1", "name": "New York", "type": "LOCATION",
         "conf": 0.9},
        {"entity_id": "e2", "name": "New York City", "type": "LOCATION",
         "conf": 0.85},
    ]
    links, clusters, canonicals = link_entities(ents, cfg)
    assert len(links) > 0
    # canonical = higher confidence → e1; e2 links to it
    assert links == {"e2": "e1"}
    assert clusters == [[0, 1]]


def test_canonical_last_maximal_tie():
    # Rust Iterator::max_by returns the LAST maximal element
    cfg = LinkerConfig(min_similarity=0.85)
    ents = [
        {"entity_id": "a", "name": "Acme Inc", "type": "ORG", "conf": 0.8},
        {"entity_id": "b", "name": "Acme Inc!", "type": "ORG", "conf": 0.8},
    ]
    links, _, _ = link_entities(ents, cfg)
    assert links == {"a": "b"}


def test_cross_type_never_links():
    cfg = LinkerConfig()
    e1 = {"entity_id": "x", "name": "Paris", "type": "LOCATION",
          "conf": 0.9}
    e2 = {"entity_id": "y", "name": "Paris", "type": "PERSON",
          "conf": 0.9}
    assert compute_similarity(e1, e2, cfg) == 0.0


def test_phonetic_tier_opt_in():
    cfg = LinkerConfig(use_phonetic=True, min_similarity=0.85)
    e1 = {"entity_id": "x", "name": "Smith", "type": "PERSON", "conf": 0.9}
    e2 = {"entity_id": "y", "name": "Smyth", "type": "PERSON", "conf": 0.9}
    # soundex equal → 0.9 ≥ 0.85 with phonetics on; off it stays below
    assert compute_similarity(e1, e2, cfg) == 0.9
    assert compute_similarity(e1, e2, LinkerConfig()) < 0.9
