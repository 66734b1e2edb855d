"""Cross-document entity linking (``corpus/entity_linker.rs``) —
strategy kernels on hand entities."""

import pytest

from graphrag_rs_ray.functions.entity_linker import (
    exact_match_linking,
    fuzzy_match_linking,
    hybrid_linking,
    infer_entity_type,
    link_entities,
    lmcd_clustering,
    select_canonical_name,
    string_similarity,
)
from graphrag_rs_ray.functions.similarity import (
    levenshtein_distance as levenshtein_chars,
)


def _e(doc, eid, name):
    return {"doc_id": doc, "local_entity_id": eid, "name": name}


ENTS = [_e("d1", "e1", "Apple"), _e("d2", "e2", "Apple"),
        _e("d1", "e3", "Aple"), _e("d3", "e4", "Zeta Corp")]


def test_string_similarity_and_levenshtein():
    assert string_similarity("Apple", "Apple") == 1.0
    assert levenshtein_chars("Apple", "Aple") == 1
    # 1 - dist/byte-maxlen: 1 - 1/5
    assert string_similarity("Apple", "Aple") == pytest.approx(0.8)
    assert string_similarity("", "") == 1.0
    # char distance over byte maxlen (multibyte names)
    assert string_similarity("café", "cafe") == pytest.approx(1 - 1 / 5)


def test_infer_entity_type():
    # rule ORDER pinned: org check first ('inc' substring quirk incl.)
    assert infer_entity_type("Acme Corp") == "organization"
    assert infer_entity_type("Prince") == "organization"     # 'inc' ⊂
    assert infer_entity_type("Berlin") == "person"           # no space
    assert infer_entity_type("mexico city") == "location"
    assert infer_entity_type("some thing") == "other"
    assert infer_entity_type("") == "other"


def test_select_canonical_name():
    # most frequent wins
    assert select_canonical_name(["A", "B", "B"]) == "B"
    # frequency tie → longest
    assert select_canonical_name(["Al", "Albert"]) == "Albert"
    # full tie → lexicographically greatest (documented determinism)
    assert select_canonical_name(["Xa", "Xb"]) == "Xb"


def test_exact_match_linking():
    clusters, em = exact_match_linking(ENTS)
    # EVERY name gets a cluster, singletons included (rs:159-192)
    assert len(clusters) == 3
    assert em == 1                          # Apple group of 2 → +1
    apple = next(c for c in clusters if c["canonical_name"] == "Apple")
    assert apple["document_frequency"] == 2 and apple["aliases"] == ["Apple"]
    assert apple["confidence_score"] == 1.0


def test_fuzzy_match_linking():
    clusters, fm = fuzzy_match_linking(ENTS, 0.8)
    # seed 'Apple' absorbs 'Apple' (1.0) and 'Aple' (0.8 ≥ 0.8)
    assert fm == 2
    assert len(clusters) == 2
    first = clusters[0]
    assert first["cluster_id"] == "fuzzy_0"
    assert len(first["members"]) == 3
    assert first["canonical_name"] == "Apple"   # most frequent
    assert first["confidence_score"] == 0.8
    assert first["document_frequency"] == 1     # hardcoded quirk


def test_lmcd_clustering():
    clusters, nk = lmcd_clustering(ENTS, 0.7)
    # 'Apple' key; second 'Apple' joins the key; 'Aple' is >0.9-similar?
    # sim(Apple, Aple) = 0.8 → NOT similar → own key; 'Zeta Corp' key
    assert nk == 3
    kinds = [c["kind"] for c in clusters]
    assert kinds.count("lmcd") == 3 and kinds.count("lmcd_singleton") == 0
    key = next(c for c in clusters if c["canonical_name"] == "Apple")
    assert len(key["members"]) == 2
    assert key["confidence_score"] == pytest.approx(0.8)   # thr + 0.1
    # a near-duplicate of an existing key defers to a singleton
    ents2 = [_e("d1", "a", "Springfield"), _e("d2", "b", "Springfeld")]
    c2, nk2 = lmcd_clustering(ents2, 0.7)
    assert nk2 == 1
    single = next(c for c in c2 if c["kind"] == "lmcd_singleton")
    assert single["canonical_name"] == "Springfeld"
    assert single["confidence_score"] == pytest.approx(0.6)  # thr - 0.1


def test_hybrid_linking_and_stats():
    clusters, em, fm = hybrid_linking(ENTS)
    # exact multi-group Apple×2; singles Aple/Zeta Corp fuzzy at 0.85:
    # sim(Aple, Zeta Corp) tiny → two singleton fuzzy clusters
    assert em == 1 and fm == 0
    kinds = sorted(c["kind"] for c in clusters)
    assert kinds == ["exact", "fuzzy", "fuzzy"]
    _, stats = link_entities(ENTS, "hybrid")
    assert stats["entities_processed"] == 4
    assert stats["clusters_created"] == 3
    assert stats["linking_accuracy"] == pytest.approx(1 / 4)
    # semantic = fuzzy at 0.8·thr, counted as semantic_matches
    _, s2 = link_entities(ENTS, "semantic", threshold=1.0)
    assert s2["semantic_matches"] == 2 and s2["fuzzy_matches"] == 0


def test_fuzzy_vectorized_equals_naive_property():
    """The vectorized prefilter pass must make IDENTICAL decisions to
    the direct port, for any input (exact-lower-bound guarantee)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from graphrag_rs_ray.functions.entity_linker import (
        _fuzzy_match_linking_naive, fuzzy_match_linking)

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.text(alphabet="abAB12 çñ中", min_size=0,
                            max_size=14), min_size=0, max_size=40),
           st.sampled_from([0.6, 0.85, 0.95]))
    def check(names, t):
        ents = [{"doc_id": f"d{i % 3}", "local_entity_id": f"e{i}",
                 "name": n} for i, n in enumerate(names)]
        assert (fuzzy_match_linking(ents, t)
                == _fuzzy_match_linking_naive(ents, t))

    check()


def test_hybrid_columnar_equals_dict_path_property():
    """The columnar twin (vectorized exact tier + fuzzy over singletons)
    must produce IDENTICAL clusters, member assignments, and stats to
    the sequential ``link_entities(..., "hybrid")`` path, for any
    input."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from graphrag_rs_ray.functions.entity_linker import (
        hybrid_linking_columnar, link_entities)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(alphabet="abAB12 çñ中", min_size=0,
                            max_size=12), min_size=0, max_size=50))
    def check(names):
        ents = [{"doc_id": f"d{i % 4}", "local_entity_id": f"e{i:03d}",
                 "name": n} for i, n in enumerate(names)]
        clusters, stats = link_entities(ents, "hybrid")
        cc, asg, cstats = hybrid_linking_columnar(
            [e["doc_id"] for e in ents],
            [e["local_entity_id"] for e in ents],
            [e["name"] for e in ents])
        assert cstats == stats
        assert cc["cluster_id"] == [c["cluster_id"] for c in clusters]
        assert cc["kind"] == [c["kind"] for c in clusters]
        assert cc["canonical_name"] == [c["canonical_name"]
                                        for c in clusters]
        assert cc["entity_type"] == [c["entity_type"] for c in clusters]
        assert cc["n_members"] == [len(c["members"]) for c in clusters]
        assert cc["confidence_score"] == [c["confidence_score"]
                                          for c in clusters]
        assert cc["document_frequency"] == [c["document_frequency"]
                                            for c in clusters]
        assert cc["aliases"] == [",".join(c["aliases"]) for c in clusters]
        # assignments: same (row → cluster_id, kind, member_idx) mapping
        want = {}
        for c in clusters:
            for idx, m in enumerate(c["members"]):
                want[(m["doc_id"], m["local_entity_id"])] = (
                    c["cluster_id"], c["kind"], idx)
        got = {(d, l): (cid, k, mi) for d, l, cid, k, mi in zip(
            asg["doc_id"].to_pylist(), asg["local_entity_id"].to_pylist(),
            asg["cluster_id"].to_pylist(), asg["kind"].to_pylist(),
            asg["member_idx"].to_pylist())}
        assert got == want

    check()


def test_hybrid_grouped_equals_columnar(ray_session):
    """The distributed exact tier (hash_grouped_aggregate by name) +
    driver fuzzy fall-through must produce the same cluster set,
    assignment mapping, and stats as the driver-columnar twin, on a
    seeded random corpus with hub names, typo singletons and unicode."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from graphrag_rs_ray.functions.entity_linker import (
        hybrid_linking_columnar)
    from graphrag_rs_ray.pipelines.entity_linking import (
        hybrid_linking_grouped)

    rng = np.random.Generator(np.random.PCG64(42))
    hub_names = [f"Org {i} Aç中" for i in range(40)]     # multi names
    names = [hub_names[int(rng.integers(0, 40))] for _ in range(1500)]
    names += [f"Solo Entity {i}x" for i in range(30)]    # singletons
    names += [f"Solo Entity {i}y" for i in range(30)]    # fuzzy-near
    rng.shuffle(names)
    rows = sorted((f"d{i % 97:03d}", f"e{i:05d}", nm)
                  for i, nm in enumerate(names))
    flat = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.string()),
        "local_entity_id": pa.array([r[1] for r in rows], pa.string()),
        "name": pa.array([r[2] for r in rows], pa.string())})

    cc, asg, stats = hybrid_linking_columnar(
        flat.column("doc_id"), flat.column("local_entity_id"),
        flat.column("name"))
    g_clusters, g_asg, g_stats = hybrid_linking_grouped(
        rd.from_arrow(flat).repartition(7), num_buckets=5)

    assert g_stats == stats

    want_clusters = set(zip(cc["cluster_id"], cc["kind"],
                            cc["canonical_name"], cc["entity_type"],
                            cc["n_members"], cc["confidence_score"],
                            cc["document_frequency"], cc["aliases"]))
    gt = g_clusters.to_pandas()
    got_clusters = set(zip(gt["cluster_id"], gt["kind"],
                           gt["canonical_name"], gt["entity_type"],
                           gt["n_members"], gt["confidence_score"],
                           gt["document_frequency"], gt["aliases"]))
    assert got_clusters == want_clusters

    want_asg = {(d, l): (cid, k, mi) for d, l, cid, k, mi in zip(
        asg["doc_id"].to_pylist(), asg["local_entity_id"].to_pylist(),
        asg["cluster_id"].to_pylist(), asg["kind"].to_pylist(),
        asg["member_idx"].to_pylist())}
    ga = g_asg.to_pandas()
    got_asg = {(d, l): (cid, k, mi) for d, l, cid, k, mi in zip(
        ga["doc_id"], ga["local_entity_id"], ga["cluster_id"],
        ga["kind"], ga["member_idx"])}
    assert got_asg == want_asg


def test_hybrid_grouped_empty_and_all_single(ray_session):
    """Degenerate inputs through the distributed path: empty corpus and
    an all-singleton corpus (exact tier emits nothing)."""
    import pyarrow as pa
    import ray.data as rd

    from graphrag_rs_ray.pipelines.entity_linking import (
        hybrid_linking_grouped)

    def flat(names):
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([f"d{i}" for i in range(len(names))],
                               pa.string()),
            "local_entity_id": pa.array([f"e{i}" for i in range(len(names))],
                                        pa.string()),
            "name": pa.array(names, pa.string())}))

    c0, a0, s0 = hybrid_linking_grouped(flat([]), num_buckets=3)
    assert c0.count() == 0 and a0.count() == 0
    assert s0["entities_processed"] == 0
    assert s0["linking_accuracy"] == 0.0

    c1, a1, s1 = hybrid_linking_grouped(
        flat(["Alpha Corp X", "Beta LLC Y", "Gamma Inc Z"]), num_buckets=3)
    assert s1["exact_matches"] == 0
    assert c1.count() == s1["clusters_created"]
