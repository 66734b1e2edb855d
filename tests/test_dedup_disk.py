"""Disk-shuffle MinHash candidates (round-4 verdict task 3): the
map-only hash-partitioned Parquet band stage + per-shard local pair
emission must produce EXACTLY the in-store path's (doc_a, doc_b,
n_bands) table — same pairs, same band counts — and resume past
already-reduced shards."""

import os

import pandas as pd
import pytest

from graphrag_rs_ray.pipelines import training_data as td

SF_DIR = "/root/testdata/sf0.001"


def _norm(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    return (df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
            .astype({"doc_a": "int64", "doc_b": "int64",
                     "n_bands": "int64"}))


def test_disk_equals_instore(ray_session, tmp_path):
    instore = _norm(td.minhash_lsh_candidates(SF_DIR))
    disk = _norm(td.minhash_lsh_candidates_disk(
        SF_DIR, stage_dir=str(tmp_path / "stage"), num_shards=8))
    assert len(instore) > 0          # sf0.001 has planted dups
    pd.testing.assert_frame_equal(disk, instore)


def test_disk_resume_skips_done_shards(ray_session, tmp_path):
    stage = str(tmp_path / "stage")
    first = _norm(td.minhash_lsh_candidates_disk(
        SF_DIR, stage_dir=stage, num_shards=8))
    # every shard has an output file; poison one band shard dir — a
    # resumed run must NOT re-read it (its pairs file already exists)
    pairs = sorted(os.listdir(os.path.join(stage, "pairs")))
    assert len(pairs) == 8
    import shutil
    shutil.rmtree(os.path.join(stage, "bands", "shard=3"),
                  ignore_errors=True)
    again = _norm(td.minhash_lsh_candidates_disk(
        SF_DIR, stage_dir=stage, num_shards=8))
    pd.testing.assert_frame_equal(again, first)


def test_disk_feeds_dedup_clusters(ray_session, tmp_path):
    cand = td.minhash_lsh_candidates_disk(
        SF_DIR, stage_dir=str(tmp_path / "stage"), num_shards=4)
    out = td.dedup_clusters(SF_DIR, cand_ds=cand.materialize()).to_pandas()
    ref = td.dedup_clusters(
        SF_DIR, cand_ds=td.minhash_lsh_candidates(SF_DIR).materialize()
    ).to_pandas()
    cols = sorted(out.columns)
    a = out[cols].sort_values(cols).reset_index(drop=True)
    b = ref[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_curation_disk_equals_default(ray_session, tmp_path):
    """corpus_curation(disk_shuffle=True) — Parquet-staged survivors +
    disk candidates — must equal the in-store composition row-for-row."""
    a = td.corpus_curation(SF_DIR, min_stopword=0.0).to_pandas()
    b = td.corpus_curation(SF_DIR, min_stopword=0.0, disk_shuffle=True,
                           stage_dir=str(tmp_path / "cur")).to_pandas()
    cols = sorted(a.columns)
    x = a[cols].sort_values(cols).reset_index(drop=True)
    y = b[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(x, y)


@pytest.mark.parametrize("override", ["survivors_ds", "bands_ds"])
def test_curation_disk_rejects_in_store_overrides(tmp_path, override):
    """The disk path stages its own survivors and candidates, so a
    caller's staged survivors or bands must raise, not be ignored."""
    with pytest.raises(ValueError, match="in-store overrides"):
        td.corpus_curation(SF_DIR, disk_shuffle=True,
                           stage_dir=str(tmp_path / "cur"),
                           **{override: object()})
