"""Gates for the sharded training-corpus sink: fresh write, whole-job
resume, partition-granular crash resume, and content equality across
resume paths (same contract as the KG graph sink)."""

import os

import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from graphrag_rs_ray.pipelines.training_data import write_corpus_shards
from graphrag_rs_ray.stages import hashagg


def _curated_dir(tmp_path, n=300):
    import ray.data as rd
    d = str(tmp_path / "curated")
    os.makedirs(d)
    rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(n)), pa.int64()),
        "text": pa.array([f"doc {i}" for i in range(n)], pa.string()),
    })).repartition(5).write_parquet(d)
    return d


def _read_all(out):
    return (pads.dataset(out, partitioning="hive").to_table()
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


@pytest.mark.parametrize("budget", ["default", 0])
def test_write_resume_and_crash_recovery(ray_session, tmp_path, monkeypatch,
                                         budget):
    """A zero broadcast budget skips the crash resume's map-side prune:
    the inner join on the missing shards' manifest rows alone keeps
    their docs."""
    if budget != "default":
        monkeypatch.setattr(hashagg, "BROADCAST_KEY_BYTES", budget)
    cur = _curated_dir(tmp_path)
    out = str(tmp_path / "corpus")

    m1 = write_corpus_shards(cur, out, num_shards=8, input_token="t1")
    assert m1["rows"] == 300
    assert m1["written_shards"] == list(range(8))
    assert sorted(int(k) for k in m1["shard_rows"]) == list(range(8))
    first = _read_all(out)
    assert sorted(first["pos"]) == list(range(300))

    # whole-job resume: same token -> immediate manifest return
    m2 = write_corpus_shards(cur, out, num_shards=8, input_token="t1")
    assert m2["fingerprint"] == m1["fingerprint"]

    # crash: top manifest + one shard manifest lost mid-write
    os.remove(os.path.join(out, "_MANIFEST.json"))
    os.remove(os.path.join(out, "shard=5", "_MANIFEST.json"))
    m3 = write_corpus_shards(cur, out, num_shards=8, input_token="t1")
    assert m3["written_shards"] == [5]
    assert sorted(m3["resumed_shards"]) == [0, 1, 2, 3, 4, 6, 7]
    assert m3["rows"] == 300
    assert _read_all(out).equals(first)

    # changed input token invalidates every partition
    m4 = write_corpus_shards(cur, out, num_shards=8, input_token="t2")
    assert m4["written_shards"] == list(range(8))
    assert _read_all(out).equals(first)   # same data, same determinism


def test_empty_corpus_still_completes(ray_session, tmp_path):
    import ray.data as rd

    from graphrag_rs_ray.pipelines.training_data import shuffle_shards

    # empty curated dir (no parquet files at all)
    cur = str(tmp_path / "empty_curated")
    os.makedirs(cur)
    out = str(tmp_path / "empty_corpus")
    m = write_corpus_shards(cur, out, num_shards=4, input_token="e1")
    assert m["rows"] == 0
    assert m["written_shards"] == [0, 1, 2, 3]
    # rerun resumes instantly
    m2 = write_corpus_shards(cur, out, num_shards=4, input_token="e1")
    assert m2["fingerprint"] == m["fingerprint"]

    # a corrupt parquet file is NOT an empty corpus: the error must
    # propagate instead of silently writing rows=0 shard manifests
    bad = str(tmp_path / "bad_curated")
    os.makedirs(bad)
    with open(os.path.join(bad, "part-0.parquet"), "wb") as f:
        f.write(b"this is not a parquet file")
    out_bad = str(tmp_path / "bad_corpus")
    import pytest
    with pytest.raises(Exception):
        write_corpus_shards(bad, out_bad, num_shards=2, input_token="b1")
    assert not os.path.exists(os.path.join(out_bad, "_MANIFEST.json"))

    # shuffle_shards on an empty dataset returns an empty typed table
    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string())}))
    sh = shuffle_shards("", n_shards=4, docs_ds=empty)
    assert sh.count() == 0
    assert set(sh.schema().names) == {"doc_id", "pos", "shard",
                                      "shard_pos"}
