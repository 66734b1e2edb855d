"""Similarity-stack goldens taken from the reference's tests
(``string_similarity_linker.rs:471-621``)."""

import pyarrow as pa

from graphrag_rs_ray.functions.similarity import (
    DEFAULT_LINKING,
    LinkingConfig,
    compute_similarity_normalized,
    greedy_cluster,
    jaccard_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    normalize_string,
    select_canonical_name,
    soundex,
)


def test_soundex_reference_goldens():
    # string_similarity_linker.rs:512-520
    assert soundex("Robert") == "R163"
    assert soundex("Rupert") == "R163"
    assert soundex("Rubin") == "R150"
    assert soundex("Smith") == "S530"
    assert soundex("Smyth") == "S530"


def test_levenshtein_reference_goldens():
    # string_similarity_linker.rs:477-484
    assert levenshtein_distance("kitten", "sitting") == 3
    assert levenshtein_distance("saturday", "sunday") == 3
    assert levenshtein_distance("", "abc") == 3
    assert levenshtein_distance("same", "same") == 0


def test_normalization_reference_goldens():
    # string_similarity_linker.rs:523-534
    assert normalize_string("John  Smith!") == "john smith"
    assert normalize_string("ACME Corp.") == "acme corp"


def test_jaro_winkler_prefix_bonus():
    assert jaro_winkler_similarity("martha", "martha") == 1.0
    assert jaro_winkler_similarity("abc", "xyz") == 0.0
    assert jaro_winkler_similarity("dixon", "dicksonx") > 0.7


def test_jaccard():
    assert jaccard_similarity("new york city", "new york") == 2 / 3
    assert jaccard_similarity("", "") == 1.0


def _similarity(a: str, b: str, cfg: LinkingConfig = DEFAULT_LINKING) -> float:
    return compute_similarity_normalized(normalize_string(a, cfg),
                                         normalize_string(b, cfg), cfg)


def test_cross_type_never_links():
    # string_similarity_linker.rs:537-575; linking blocks by type, so an
    # exact name match across types is never compared
    from graphrag_rs_ray.stages.linking import add_block_key, make_block_clusterer
    t = pa.table({"entity_id": ["PERSON_johnsmith", "ORGANIZATION_johnsmith"],
                  "name": ["John Smith", "John Smith"],
                  "type": ["PERSON", "ORGANIZATION"], "conf": [0.9, 0.9]})
    assert make_block_clusterer(LinkingConfig())(add_block_key(t)).num_rows == 0


def test_typo_variants_link():
    s = _similarity("John Smith", "Jon Smith")
    assert s >= 0.85
    s = _similarity("John Smith", "Jhon Smith")
    assert s >= 0.85


def test_greedy_cluster_typos():
    items = [
        ("PERSON_johnsmith", "John Smith", 0.9),
        ("PERSON_jonsmith", "Jon Smith", 0.7),
        ("PERSON_jhonsmith", "Jhon Smith", 0.6),
        ("PERSON_maryjones", "Mary Jones", 0.8),
    ]
    links = greedy_cluster(items)
    assert links.get("PERSON_jonsmith") == "PERSON_johnsmith"
    assert links.get("PERSON_jhonsmith") == "PERSON_johnsmith"
    assert "PERSON_maryjones" not in links
    assert "PERSON_johnsmith" not in links   # canonical maps to nothing


def test_greedy_cluster_deterministic_under_order():
    items = [
        ("PERSON_jonsmith", "Jon Smith", 0.7),
        ("PERSON_maryjones", "Mary Jones", 0.8),
        ("PERSON_johnsmith", "John Smith", 0.9),
    ]
    import itertools
    results = {frozenset(greedy_cluster(list(p)).items())
               for p in itertools.permutations(items)}
    assert len(results) == 1


def test_select_canonical_name():
    # corpus/entity_linker.rs:468-481 — most frequent, ties → longest
    assert select_canonical_name({"NYC": 3, "New York City": 3}) == "New York City"
    assert select_canonical_name({"NYC": 5, "New York City": 3}) == "NYC"


def test_phonetic_config():
    cfg = LinkingConfig(use_phonetic=True, min_similarity=0.85)
    s = _similarity("Smith", "Smyth", cfg)
    assert s >= 0.85


# ---------------------------------------------------------------------------
# Pruned greedy_cluster == reference O(m²) greedy (sound-bound equality gate)
# ---------------------------------------------------------------------------

def _rand_items(n, seed, typo_rate=0.3, shared_prefix=False):
    """Blocks of pronounceable words + planted typo variants, mimicking the
    (type, soundex) block composition the linker actually sees."""
    import numpy as np
    rng = np.random.Generator(np.random.PCG64(seed))
    cons, vow = "bcdfghjklmnpqrstvwz", "aeiou"
    items = []
    for i in range(n):
        if i % 3 == 2 and typo_rate and rng.random() < typo_rate:
            # vowel-swap / char-substitution typo of the previous item
            w = list(items[-1][1].lower())
            pos = int(rng.integers(1, max(2, len(w) - 1)))
            w[pos] = vow[int(rng.integers(0, 5))]
            name = "".join(w).capitalize()
        else:
            syll = int(rng.integers(2, 8))
            w = "".join(cons[int(rng.integers(0, len(cons)))]
                        + vow[int(rng.integers(0, len(vow)))]
                        for _ in range(syll))
            if shared_prefix:
                w = "smith" + w       # dense chance-prefix block regime
            if rng.random() < 0.3:    # some multi-token names
                w += " " + cons[int(rng.integers(0, len(cons)))] + "ox"
            name = w.capitalize()
        items.append((f"PERSON_e{i:05d}", name, float(rng.integers(1, 99)) / 100))
    return items


def test_pruned_equals_reference_random_blocks():
    from graphrag_rs_ray.functions.similarity import greedy_cluster_reference
    for seed in range(8):
        items = _rand_items(120, seed)
        assert greedy_cluster(items) == greedy_cluster_reference(items), seed


def test_pruned_equals_reference_dense_prefix_block():
    # the hot-block regime: long shared prefixes, JW prefix bonus active
    from graphrag_rs_ray.functions.similarity import greedy_cluster_reference
    for seed in (101, 102):
        items = _rand_items(150, seed, shared_prefix=True)
        assert greedy_cluster(items) == greedy_cluster_reference(items), seed


def test_pruned_equals_reference_config_matrix():
    from graphrag_rs_ray.functions.similarity import greedy_cluster_reference
    items = _rand_items(90, 7)
    for cfg in (LinkingConfig(use_phonetic=True),
                LinkingConfig(fuzzy_matching=False),
                LinkingConfig(min_similarity=0.7),
                LinkingConfig(min_similarity=0.95),
                LinkingConfig(use_phonetic=True, min_similarity=0.9),
                LinkingConfig(max_edit_distance=4)):
        assert greedy_cluster(items, cfg) == greedy_cluster_reference(items, cfg), cfg


def test_pruned_equals_reference_edge_strings():
    from graphrag_rs_ray.functions.similarity import greedy_cluster_reference
    # empties, punctuation-only (normalizes to ""), unicode, identical norms,
    # 6+-token names (the Jaccard-only linking class), single chars
    base = [
        ("E00", "", 0.5), ("E01", "!!!", 0.4), ("E02", "  ", 0.3),
        ("E03", "Ünïcode Nâme", 0.9), ("E04", "Unicode Name", 0.8),
        ("E05", "a b c d e f g", 0.7), ("E06", "a b c d e f h", 0.6),
        ("E07", "g f e d c b a", 0.5), ("E08", "x", 0.9), ("E09", "y", 0.2),
        ("E10", "John   Smith!", 0.9), ("E11", "john smith", 0.3),
    ]
    items = base + _rand_items(40, 3)
    for cfg in (LinkingConfig(), LinkingConfig(use_phonetic=True)):
        assert greedy_cluster(items, cfg) == greedy_cluster_reference(items, cfg)
