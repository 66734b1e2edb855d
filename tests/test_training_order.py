"""Gates for the training-order ops: shuffle_shards (naive-equality,
gapless positions, balanced contiguous shards, reshard invariance) and
corpus_diff (cross-snapshot status, empty corpus)."""

import hashlib

import pyarrow as pa
import pytest

from graphrag_rs_ray.pipelines.training_data import shuffle_shards


def _docs_table(n):
    return pa.table({
        "doc_id": pa.array(list(range(n)), pa.int64()),
        "text": pa.array([f"word {'x ' * (i % 7)}" for i in range(n)],
                         pa.string()),
        "source": pa.array([f"s{i % 3}" for i in range(n)], pa.string()),
    })


@pytest.fixture(scope="module")
def shuffled(ray_session):
    import ray.data as rd
    ds = rd.from_arrow(_docs_table(257)).repartition(7)
    return (shuffle_shards("", n_shards=4, docs_ds=ds)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


def test_shuffle_matches_naive(shuffled):
    n = len(shuffled)
    order = sorted(range(n),
                   key=lambda d: (hashlib.md5(f"shuf:{d}".encode())
                                  .hexdigest(), d))
    naive_pos = {d: i for i, d in enumerate(order)}
    for _, r in shuffled.iterrows():
        pos = naive_pos[r["doc_id"]]
        assert r["pos"] == pos
        assert r["shard"] == pos * 4 // n
        assert r["shard_pos"] == pos - (r["shard"] * n + 3) // 4


def test_shuffle_shards_contiguous_and_balanced(shuffled):
    n = len(shuffled)
    assert sorted(shuffled["pos"]) == list(range(n))
    sizes = shuffled.groupby("shard").size()
    assert set(sizes.index) == {0, 1, 2, 3}
    assert sizes.max() - sizes.min() <= 1
    for _, grp in shuffled.groupby("shard"):
        sp = sorted(grp["shard_pos"])
        assert sp == list(range(len(grp)))


def test_shuffle_reshard_invariant(ray_session):
    import ray.data as rd
    a = (shuffle_shards("", n_shards=4,
                        docs_ds=rd.from_arrow(_docs_table(120))
                        .repartition(1))
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (shuffle_shards("", n_shards=4,
                        docs_ds=rd.from_arrow(_docs_table(120))
                        .repartition(11))
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert a.equals(b)
    # a different seed is a different permutation
    c = (shuffle_shards("", n_shards=4, seed="other",
                        docs_ds=rd.from_arrow(_docs_table(120)))
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert not a["pos"].equals(c["pos"])


def test_corpus_diff(ray_session):
    import ray.data as rd

    from graphrag_rs_ray.pipelines.training_data import corpus_diff

    n = 300
    docs = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array([f"document body {i} with words" for i in range(n)],
                         pa.string()),
    })
    out = (corpus_diff("", docs_ds=rd.from_arrow(docs).repartition(5))
           .to_pandas().set_index("doc_id")["status"])
    for d in range(n):
        if d % 11 == 3:
            assert out[d] == "added"
        elif d % 13 == 5:
            assert out[d] == "changed"
        else:
            assert out[d] == "same"
        if d % 17 == 2:
            assert out[1_000_000_000 + d] == "removed"
    # explicit prev snapshot path: one changed, one removed, one added
    prev = pa.table({
        "doc_id": pa.array([0, 1, 999], pa.int64()),
        "fp": pa.array([__import__("hashlib").md5(
            b"document body 0 with words").hexdigest(), "different",
            "whatever"], pa.string()),
    })
    small = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["document body 0 with words", "x", "y"],
                         pa.string()),
    })
    got = (corpus_diff("", docs_ds=rd.from_arrow(small),
                       prev_ds=rd.from_arrow(prev))
           .to_pandas().set_index("doc_id")["status"])
    assert got[0] == "same" and got[1] == "changed"
    assert got[2] == "added" and got[999] == "removed"


def test_empty_corpus_epilogues(ray_session):
    """Driver-side epilogues must survive an empty partition/corpus
    (empty to_pandas has no columns — the KeyError class of failure)."""
    import ray.data as rd

    from graphrag_rs_ray.pipelines import training_data as td

    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
        "source": pa.array([], pa.string())}))
    assert td.corpus_diff("", docs_ds=empty).count() == 0
