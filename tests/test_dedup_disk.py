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


def test_disk_stage_rebuilds_on_changed_settings(ray_session, tmp_path):
    """A second run into the same stage dir with other settings must not
    reuse the first run's bands, nor read its pair files for shards the
    new run does not have."""
    stage = str(tmp_path / "stage")
    td.minhash_lsh_candidates_disk(SF_DIR, num_perm=64, stage_dir=stage,
                                   num_shards=8).materialize()
    again = _norm(td.minhash_lsh_candidates_disk(
        SF_DIR, num_perm=32, stage_dir=stage, num_shards=4))
    pd.testing.assert_frame_equal(
        again, _norm(td.minhash_lsh_candidates(SF_DIR, num_perm=32)))


def test_disk_resume_redoes_truncated_shard(ray_session, tmp_path):
    """A crash in the middle of one shard's pair write: a truncated file
    and no manifest for that shard.  The rerun must redo the shard."""
    import glob

    stage = str(tmp_path / "stage")
    td.minhash_lsh_candidates_disk(SF_DIR, stage_dir=stage,
                                   num_shards=8).materialize()
    pairs = os.path.join(stage, "pairs")
    # shard 3's pair file (flat pairs-KKKK.parquet files are the layout
    # the shard=K/ directories replaced)
    victims = [p for p in glob.glob(os.path.join(pairs, "**", "*.parquet"),
                                    recursive=True)
               if "shard=3" in p or p.endswith("pairs-0003.parquet")]
    assert len(victims) == 1
    with open(victims[0], "r+b") as f:
        f.truncate(os.path.getsize(victims[0]) // 2)
    manifest = os.path.join(pairs, "shard=3", "_MANIFEST.json")
    if os.path.exists(manifest):
        os.remove(manifest)
    again = _norm(td.minhash_lsh_candidates_disk(
        SF_DIR, stage_dir=stage, num_shards=8))
    pd.testing.assert_frame_equal(again,
                                  _norm(td.minhash_lsh_candidates(SF_DIR)))


def test_curation_disk_restages_on_changed_gates(ray_session, tmp_path):
    """Two disk-mode curation runs into one stage dir with different
    ``min_tokens``: each must equal the in-store result for its own
    setting, not reuse the first run's survivors or candidates."""
    stage = str(tmp_path / "cur")

    def norm(df):
        cols = sorted(df.columns)
        return df[cols].sort_values(cols).reset_index(drop=True)

    results = []
    for min_tokens in (20, 60):
        want = norm(td.corpus_curation(SF_DIR, min_tokens=min_tokens,
                                       min_stopword=0.0).to_pandas())
        got = norm(td.corpus_curation(SF_DIR, min_tokens=min_tokens,
                                      min_stopword=0.0, disk_shuffle=True,
                                      stage_dir=stage).to_pandas())
        pd.testing.assert_frame_equal(got, want)
        results.append(want)
    assert len(results[0]) != len(results[1])   # the gate changes the set
