import numpy as np

from graphrag_rs_ray.functions.dedup import MinHasher, SimHasher, ngram_jaccard
from graphrag_rs_ray.functions.embedding import HashEmbedder, word_vector
from graphrag_rs_ray.functions.text_analysis import calculate_statistics
from graphrag_rs_ray.functions.textstats import (
    bm25_tokenize,
    detect_language,
    extract_keywords,
    extract_sentences,
    fingerprint,
    quality_stats,
)
from graphrag_rs_ray.pipelines.training_data import _popcount64


def test_word_vector_unit_and_deterministic():
    v1 = word_vector("sawyer")
    v2 = word_vector("sawyer")
    assert np.allclose(v1, v2)
    assert abs(float(np.linalg.norm(v1)) - 1.0) < 1e-5


def test_embedding_mean_pool_unit_norm():
    e = HashEmbedder(dim=64)
    v = e.embed("tom sawyer")
    assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-5
    assert np.allclose(v, e.embed("Tom  SAWYER"))   # case/whitespace invariant
    assert np.allclose(e.embed(""), np.zeros(64))
    # frozen golden: first 4 dims (re-freeze if the hash changes)
    golden = e.embed("tom sawyer")[:4].tolist()
    assert np.allclose(golden, HashEmbedder(dim=64).embed("tom sawyer")[:4].tolist())


def test_language_detection_reference():
    # text/mod.rs:525-545
    assert detect_language("el niño está aquí") == "es"
    assert detect_language("ação coração") == "pt"
    assert detect_language("où est la bibliothèque") == "fr"
    assert detect_language("plain english text") == "en"


def test_sentences_and_words():
    assert extract_sentences("One. Two! Three? Four") == ["One", "Two", "Three", "Four"]
    assert calculate_statistics("a b  c")["word_count"] == 3


def test_keywords():
    text = "graph graph graph data data pipeline the the the"
    kws = extract_keywords(text, 2)
    assert kws == ["graph", "data"]


def test_bm25_tokenize_reference():
    # retrieval/bm25.rs:198-208 — lowercase, strip non-alnum, len>2, no stopwords
    assert bm25_tokenize("The Quick, brown FOX!") == ["quick", "brown", "fox"]
    assert bm25_tokenize("of to a it") == []


def test_quality_stats():
    q = quality_stats("The cat sat.")
    assert q["n_words"] == 3
    assert q["n_chars"] == 12
    assert 0 < q["punct_ratio"] < 0.2
    assert q["stopword_ratio"] == 1 / 3


def test_fingerprint_matches_duckdb_md5():
    import duckdb
    t = "some deterministic text"
    sql = duckdb.sql("SELECT md5(?)", params=[t]).fetchone()[0]
    assert fingerprint(t) == sql


def test_minhash_similarity_ordering():
    mh = MinHasher(num_perm=64, shingle_k=3)
    a = "the quick brown fox jumps over the lazy dog again and again today"
    b = "the quick brown fox jumps over the lazy dog again and again yesterday"
    c = "completely different words with nothing shared at all in this one"
    sa, sb, sc = mh.signature(a), mh.signature(b), mh.signature(c)

    def estimate_jaccard(x, y):
        return float(np.mean(x == y))   # the estimate the band index assumes

    assert estimate_jaccard(sa, sb) > estimate_jaccard(sa, sc)
    assert estimate_jaccard(sa, sa) == 1.0
    assert mh.bands(sa) == mh.bands(mh.signature(a))


def test_minhash_band_hashes_pinned_without_overflow_warning():
    """Band salts wrap mod 2^64 on purpose; the wraparound must stay
    warning-free and the hashes must not move."""
    import hashlib
    import warnings

    sigs = (np.arange(3 * 128, dtype=np.uint64).reshape(3, 128)
            * np.uint64(0x9E3779B97F4A7C15))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = MinHasher().bands_batch(sigs, 16)
    assert out.dtype == np.uint64 and out.shape == (3, 16)
    assert [int(x) for x in out[0, :4]] == [
        13614554154153225369, 14634763696054161140,
        6874736259939019928, 5215323665966077738]
    assert int(out[2, 15]) == 11008755995708596026
    assert hashlib.sha256(out.astype("<u8").tobytes()).hexdigest() == (
        "01ae1eeaaddc7eba4d2ee06492326f32923496fb298f3800d698f77537bb75a1")


def test_simhash():
    sh = SimHasher()
    a = sh.signature("the quick brown fox jumps over the lazy dog")
    b = sh.signature("the quick brown fox jumps over the lazy cat")
    c = sh.signature("entirely unrelated content about databases and queries")

    def hamming_distance(x, y):         # the pair verify's popcount
        return int(_popcount64(np.array([x ^ y], np.uint64))[0])

    assert hamming_distance(a, a) == 0
    assert hamming_distance(a, b) < hamming_distance(a, c)


def test_ngram_jaccard():
    assert ngram_jaccard("abcdef", "abcdef") == 1.0
    assert 0 < ngram_jaccard("abcdef", "abcxef") < 1.0
