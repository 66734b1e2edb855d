"""Planted-data gates for the end-to-end webtext curation pipeline
(annotate → language/quality filter → exact dedup → MinHash-LSH
near-dedup with the drop-larger-id rule)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

BASE = ("the quick brown fox jumps over a lazy dog while the patient "
        "owl watches from a tall tree and the river runs past the old "
        "mill towards a distant sea")


def _mk_corpus(tmp_path):
    near = BASE.replace("patient owl", "ancient owl")
    no_stop = " ".join(f"token{i}" for i in range(30))
    docs = [
        (1, BASE),                                   # survives
        (2, BASE),                                   # exact dup of 1 → dropped
        (3, near),                                   # near dup of 1 → dropped
        (4, "el zorro marrón salta sobre el perro ñoño " * 5),  # es → filtered
        (5, "the short one"),                        # <20 tokens → filtered
        (6, no_stop),                                # stopword_ratio 0 → filtered
        (7, "a completely different story about the sea and the ships "
            "that sail across it carrying the spice of the east to the "
            "harbours of the west every single year"),  # survives
    ]
    sf_dir = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([d for d, _ in docs], pa.int64()),
        "text": pa.array([t for _, t in docs], pa.string()),
    }), os.path.join(sf_dir, "documents.parquet"))
    return sf_dir


def test_curation_survivors_planted(ray_session, tmp_path):
    from graphrag_rs_ray.pipelines import training_data as td
    sf_dir = _mk_corpus(tmp_path)
    surv = td.curation_survivors(sf_dir).to_pandas()
    # 4 (es), 5 (short), 6 (no stopwords) filtered; 2 exact-deduped into 1
    assert sorted(surv["doc_id"]) == [1, 3, 7]
    by_id = surv.set_index("doc_id")
    assert by_id.loc[1, "n_exact_dups"] == 2
    assert by_id.loc[3, "n_exact_dups"] == 1
    assert by_id.loc[7, "n_exact_dups"] == 1


def test_corpus_curation_planted(ray_session, tmp_path):
    from graphrag_rs_ray.pipelines import training_data as td
    sf_dir = _mk_corpus(tmp_path)
    out = td.corpus_curation(sf_dir).to_pandas()
    # near-dup 3 drops (larger id of the verified (1, 3) pair)
    assert sorted(out["doc_id"]) == [1, 7]
    assert list(out.columns) == ["doc_id", "lang_pred", "n_tokens",
                                 "n_chars", "punct_ratio",
                                 "stopword_ratio", "n_exact_dups"]
    assert set(out["lang_pred"]) == {"en"}


def test_corpus_curation_drop_set_stays_off_the_driver(ray_session, tmp_path,
                                                       monkeypatch):
    """With no broadcast budget the verified drop set leaves the
    survivors through the sharded anti filter: the rows equal the
    default run's, and no ``ray.put`` receives an Arrow array holding a
    drop id."""
    import ray
    from graphrag_rs_ray.pipelines import training_data as td
    from graphrag_rs_ray.stages import hashagg
    sf_dir = _mk_corpus(tmp_path)

    def run():
        return (td.corpus_curation(sf_dir).to_pandas()
                .sort_values("doc_id").reset_index(drop=True))

    want = run()
    assert 3 not in set(want["doc_id"])      # the near dup of doc 1
    put, arrays = ray.put, []

    def recording_put(value, *args, **kwargs):
        if isinstance(value, (pa.Array, pa.ChunkedArray)):
            arrays.append(value.to_pylist())
        return put(value, *args, **kwargs)

    monkeypatch.setattr(ray, "put", recording_put)
    monkeypatch.setattr(hashagg, "BROADCAST_KEY_BYTES", 0)
    assert run().equals(want)
    assert not any(3 in a for a in arrays)


def test_ngram_verify_paths_equal(ray_session):
    """Broadcast fast path (candidates ≤ limit) ≡ bucketed-join scale
    path on the same candidate set (two-path discipline gate)."""
    from graphrag_rs_ray.pipelines import training_data as td
    sf = "/root/testdata/sf0.001"
    cand = td.minhash_lsh_candidates(sf).materialize()
    fast = (td.ngram_dedup_pairs(sf, cand_ds=cand).to_pandas()
            .sort_values(["doc_a", "doc_b"]).reset_index(drop=True))
    assert len(fast) > 0, "test corpus unexpectedly has no near-dups"
    sharded = (td.ngram_dedup_pairs(sf, cand_ds=cand, small_cand_limit=0)
               .to_pandas().sort_values(["doc_a", "doc_b"])
               .reset_index(drop=True))
    assert fast.equals(sharded)


def test_corpus_curation_no_candidates(ray_session, tmp_path):
    """Empty LSH candidate set must not break the final filter."""
    from graphrag_rs_ray.pipelines import training_data as td
    sf_dir = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "text": pa.array([BASE], pa.string()),
    }), os.path.join(sf_dir, "documents.parquet"))
    out = td.corpus_curation(sf_dir).to_pandas()
    assert list(out["doc_id"]) == [1]
