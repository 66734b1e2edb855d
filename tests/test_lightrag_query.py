"""LightRAG query-side kernel tests — ported from the reference's tests
(`keyword_extraction.rs:196-263`, `dual_retrieval.rs:332-363`,
`query_refinement.rs:395-460`, `iterative_deepening.rs` semantics) plus
pins on the faithful quirks (dead-code early stop, duplicate expansion
entries, last-score-wins)."""

import math

from graphrag_rs_ray.functions.lightrag import (
    RefinementConfig,
    SearchConfig,
    build_concept_views,
    extract_json,
    fallback_keywords,
    iterative_deepening_search,
    merge_concat,
    merge_interleave,
    merge_weighted,
    parse_keywords_response,
    refine_query,
    validate_keywords,
)
from graphrag_rs_ray.pipelines.lightrag import dual_retrieval_table

# ------------------------------------------------ keyword extraction --


def test_extract_json():
    # keyword_extraction.rs:196-212
    assert extract_json('noise {"a": 1} trailing') == '{"a": 1}'
    assert extract_json('{"a": 1}') == '{"a": 1}'
    assert extract_json("no json here") is None
    # first '{' to LAST '}'
    assert extract_json('x {"a": {"b": 2}} y') == '{"a": {"b": 2}}'


def test_parse_keywords_response():
    r = parse_keywords_response(
        'Result: {"high_level": ["theme"], "low_level": ["Alice", "Bob"]}')
    assert r == {"high_level": ["theme"], "low_level": ["Alice", "Bob"]}
    assert parse_keywords_response("garbage") is None
    assert parse_keywords_response('{"high_level": ["x"]}') is None


def test_validate_keywords():
    # keyword_extraction.rs:226-256 — 0 < total <= 20
    assert validate_keywords(["a"], ["b"])
    assert not validate_keywords([], [])
    assert not validate_keywords(["x"] * 15, ["y"] * 6)
    assert validate_keywords(["x"] * 10, ["y"] * 10)


def test_fallback_keywords():
    # words > 3 BYTES, first 10, lowercased, all low-level
    r = fallback_keywords("The Quick fox ab jumped Over THE lazy dogs")
    assert r["high_level"] == []
    assert r["low_level"] == ["quick", "jumped", "over", "lazy", "dogs"]
    many = fallback_keywords(" ".join(f"word{i}" for i in range(15)))
    assert len(many["low_level"]) == 10


# --------------------------------------------------- merge strategies --


def _r(i, s):
    return {"id": i, "score": s}


def test_merge_interleave():
    high = [_r("a", 1.0), _r("b", 0.9), _r("c", 0.8)]
    low = [_r("b", 0.7), _r("d", 0.6)]
    # events: a, b, b(dup), d, c
    assert [m["id"] for m in merge_interleave(high, low, 10)] == \
        ["a", "b", "d", "c"]
    assert [m["id"] for m in merge_interleave(high, low, 3)] == \
        ["a", "b", "d"]


def test_merge_concat():
    high = [_r("a", 1.0), _r("b", 0.9)]
    low = [_r("b", 0.7), _r("c", 0.6)]
    assert [m["id"] for m in merge_concat(high, low, 10)] == ["a", "b", "c"]
    assert [m["id"] for m in merge_concat(low, high, 10)] == ["b", "c", "a"]


def test_merge_weighted():
    high = [_r("a", 1.0), _r("b", 0.5)]
    low = [_r("c", 1.2), _r("b", 2.0)]
    # weighted: b_low 0.8, a 0.6, c 0.48, b_high 0.15 → dedup b,a,c
    merged = merge_weighted(high, low, 10)
    assert [m["id"] for m in merged] == ["b", "a", "c"]
    # rows keep ORIGINAL scores (the low-level b, score 2.0)
    assert merged[0]["score"] == 2.0


def test_dual_retrieval_table_strategies():
    high = [_r(1, 1.0), _r(2, 0.9)]
    low = [_r(2, 0.8), _r(3, 0.7)]
    t = dual_retrieval_table(high, low, top_k=10)
    by_strat = {}
    for row in t.to_pylist():
        by_strat.setdefault(row["strategy"], []).append(row["doc_id"])
    assert by_strat["interleave"] == [1, 2, 3]
    assert by_strat["high_first"] == [1, 2, 3]
    assert by_strat["low_first"] == [2, 3, 1]
    assert by_strat["weighted"][0] == 1      # 1.0*0.6 > 0.8*0.4


# ------------------------------------------- refinement + deepening --


def _views():
    # star around 'alpha' plus a chain: alpha-beta, alpha-gamma,
    # beta-delta; frequencies give ln-scores; chunks per concept
    return build_concept_views(
        {"alpha": 5, "beta": 4, "gamma": 3, "delta": 2},
        [("alpha", "beta", 0.9), ("alpha", "gamma", 0.7),
         ("beta", "delta", 0.5)],
        {"alpha": ["c1", "c2"], "beta": ["c2", "c3"],
         "gamma": ["c4"], "delta": ["c5"]})


def test_refine_query_expansion_and_scores():
    v = _views()
    r = refine_query("q", v, RefinementConfig(use_relevance_feedback=False),
                     initial_concepts=["alpha"])
    # depth 1 expands beta+gamma; depth 2 adds delta (via beta)
    assert set(r["expanded_concepts"]) == {"beta", "gamma", "delta"}
    assert r["relevant_chunk_ids"] == ["c2", "c3", "c4", "c5"]
    # beta connected to alpha: (ln4+1)*1.5
    assert abs(r["relevance_scores"]["beta"]
               - (math.log(4) + 1) * 1.5) < 1e-9
    # iterations reports the configured max (faithful quirk)
    assert r["iterations"] == 3


def test_refine_query_empty():
    # query_refinement.rs:436-447
    r = refine_query("", _views(), initial_concepts=[])
    assert r["initial_concepts"] == []
    assert r["expanded_concepts"] == []
    assert r["iterations"] == 0


def test_refine_feedback_boost():
    v = _views()
    r = refine_query("q", v, RefinementConfig(),
                     initial_concepts=["alpha"])
    nofb = refine_query("q", v,
                        RefinementConfig(use_relevance_feedback=False),
                        initial_concepts=["alpha"])
    # feedback multiplies scores of concepts appearing in retrieved
    # chunks — beta appears in c2/c3 → boosted above its raw score
    assert r["relevance_scores"]["beta"] > nofb["relevance_scores"]["beta"]


def test_deepening_basic_and_stop_reasons():
    v = _views()
    res = iterative_deepening_search("q", v, SearchConfig())
    # NOTE: refine_query (initial concepts) comes from extract_concepts
    # on the query text — 'q' yields none → empty result
    assert res["total_chunks"] == 0

    # drive with a query whose words ARE concepts
    v2 = build_concept_views(
        {"alpha beta": 2}, [], {"alpha beta": ["c1"]})
    res2 = iterative_deepening_search("the alpha beta runs", v2,
                                      SearchConfig())
    assert res2["stop_reason"] in ("NoMoreConcepts", "MaxDepthReached")


def test_deepening_max_chunks_stop():
    chunks = {f"t{i}": [f"c{i}_{j}" for j in range(10)] for i in range(9)}
    freq = {c: 3 for c in chunks}
    edges = [(f"t{i}", f"t{i + 1}", 0.9) for i in range(8)]
    v = build_concept_views(freq, edges, chunks)
    res = iterative_deepening_search("q", v, SearchConfig(max_chunks=15),
                                     initial_concepts=["t0", "t1"])
    assert res["stop_reason"] == "MaxChunksReached"
    assert res["total_chunks"] == 20      # both concepts' chunks visited
    assert res["depth_reached"] == 0
    assert res["depth_results"][0]["new_chunks_found"] == 20


def test_deepening_expansion_accumulates():
    chunks = {f"t{i}": [f"c{i}"] for i in range(4)}
    freq = {c: 3 for c in chunks}
    edges = [("t0", "t1", 0.9), ("t1", "t2", 0.8), ("t2", "t3", 0.7)]
    v = build_concept_views(freq, edges, chunks)
    res = iterative_deepening_search("q", v, SearchConfig(),
                                     initial_concepts=["t0"])
    # depth 0: c0; expand t1; depth 1: c1; expand t2; depth 2: c2
    assert res["total_chunks"] == 3
    assert [d["new_chunks_found"] for d in res["depth_results"]] == [1, 1, 1]
    assert res["stop_reason"] == "MaxDepthReached"


def test_deepening_quality_stop_is_dead_code():
    # the reference reads total_chunks/total_concepts_explored inside
    # the loop but only populates them AFTER it — the quality stop can
    # never fire; pin that QualityThresholdMet is never produced
    chunks = {f"t{i}": [f"c{i}"] for i in range(6)}
    freq = {c: 50 for c in chunks}
    edges = [(f"t{i}", f"t{j}", 0.9) for i in range(6) for j in range(i)]
    v = build_concept_views(freq, edges, chunks)
    res = iterative_deepening_search("q", v, SearchConfig(min_chunks=0))
    assert res["stop_reason"] != "QualityThresholdMet"
