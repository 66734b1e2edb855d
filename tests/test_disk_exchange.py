"""The disk-exchange primitive (``stages/disk_exchange.py``): a staged
write is skipped on a matching fingerprint and rebuilt whole otherwise;
a failed shard reduce leaves neither data nor manifest, and a rerun
reduces only that shard; the refs mode returns one table per shard; a
staged read is never split beyond its files; and no other pipeline
module hand-rolls the exchange."""

import glob
import os
import re

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pytest

from graphrag_rs_ray.stages.disk_exchange import (read_staged, reduce_shards,
                                                  stage_parquet)
from graphrag_rs_ray.state.manifests import read_manifest

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "graphrag_rs_ray")


def _ds(n: int):
    import ray.data as rd
    return rd.from_arrow(pa.table({"x": pa.array(range(n), pa.int64())}))


def _mod4():
    def shard_of(batch: pa.Table):     # nested: Ray ships it by value
        return pc.cast(pc.bit_wise_and(batch.column("x"), 3), pa.int32())
    return shard_of


def _staged_x(d: str) -> list[int]:
    files = glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True)
    return sorted(pads.dataset(files).to_table().column("x").to_pylist())


def test_stage_parquet_fingerprint_gates_rebuild(ray_session, tmp_path):
    out = str(tmp_path / "stage")
    m1 = stage_parquet(out, "fp-a", lambda: _ds(10), _mod4())
    assert m1["rows"] == 10 and m1["fingerprint"] == "fp-a"
    assert sorted(os.listdir(out)) == ["_MANIFEST.json"] + [
        f"shard={k}" for k in range(4)]

    def must_not_run():
        raise AssertionError("make_ds called on a matching fingerprint")

    m2 = stage_parquet(out, "fp-a", must_not_run, _mod4())
    assert m2["completed_at"] == m1["completed_at"]

    # a new fingerprint rebuilds everything: no row of the old stage stays
    m3 = stage_parquet(out, "fp-b", lambda: _ds(3))
    assert m3["rows"] == 3 and m3["fingerprint"] == "fp-b"
    assert _staged_x(out) == [0, 1, 2]
    assert not glob.glob(os.path.join(out, "shard=*"))
    assert not os.path.exists(out + ".tmp")


def test_failed_shard_leaves_no_output_and_rerun_redoes_it(ray_session,
                                                           tmp_path):
    stage = str(tmp_path / "stage")
    out = str(tmp_path / "out")
    calls = str(tmp_path / "calls")
    os.makedirs(calls)
    stage_parquet(stage, "fp", lambda: _ds(40), _mod4())

    def reducer(fail_on):
        def fn(k, files):
            open(os.path.join(calls, f"{k}-{fail_on}"), "w").close()
            if k == fail_on:
                raise RuntimeError(f"reducer failed on shard {k}")
            return pads.dataset(files[0]).to_table()
        return fn

    with pytest.raises(Exception, match="reducer failed on shard 2"):
        reduce_shards([stage], 4, reducer(2), out, ("test",))
    d2 = os.path.join(out, "shard=2")
    assert not os.path.exists(os.path.join(d2, "part-0.parquet"))
    assert read_manifest(d2) is None
    for k in (0, 1, 3):       # every other shard finished and is complete
        assert read_manifest(os.path.join(out, f"shard={k}"))["rows"] == 10

    rows = reduce_shards([stage], 4, reducer(None), out, ("test",))
    assert rows == {0: 10, 1: 10, 2: 10, 3: 10}
    assert sorted(os.listdir(calls)) == ["0-2", "1-2", "2-2", "2-None",
                                         "3-2"]
    assert _staged_x(out) == list(range(40))

    # a changed fingerprint with fewer shards leaves no stale shard dir
    assert reduce_shards([stage], 2, reducer(None), out, ("other",)) == {
        0: 10, 1: 10}
    assert sorted(os.listdir(out)) == ["shard=0", "shard=1"]


def test_refs_mode_returns_one_table_per_shard(ray_session, tmp_path):
    import ray

    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    stage_parquet(a, "fp", lambda: _ds(20), _mod4())
    stage_parquet(b, "fp", lambda: _ds(6), _mod4())

    def fn(k, files):
        return pa.table({"k": [k], "missing_files": [len(files[2])],
                         "rows": [sum(pads.dataset(fs).count_rows()
                                      for fs in files if fs)]})

    refs = reduce_shards([a, b, str(tmp_path / "missing")], 4, fn)
    tables = ray.get(refs)
    assert [t.column("k")[0].as_py() for t in tables] == [0, 1, 2, 3]
    assert [t.column("rows")[0].as_py() for t in tables] == [7, 7, 6, 6]
    assert all(t.column("missing_files")[0].as_py() == 0 for t in tables)


def test_read_staged_blocks_never_exceed_files(ray_session, tmp_path,
                                              monkeypatch):
    """A staged read gets one block per cluster CPU, or per target block
    of its plan-stated size, but never more than its files, so Ray plans
    no ``SplitBlocks`` behind it; deciding runs no plan."""
    import pyarrow.parquet as pq
    from ray.data._internal.plan import ExecutionPlan

    from graphrag_rs_ray.stages import hashagg

    three, one = tmp_path / "three", tmp_path / "one"
    three.mkdir()
    one.mkdir()
    for i in range(3):
        pq.write_table(pa.table({"x": pa.array(range(i * 10, i * 10 + 10),
                                               pa.int64())}),
                       three / f"part-{i}.parquet")
    pq.write_table(pa.table({"x": pa.array(range(5), pa.int64())}),
                   one / "part-0.parquet")

    def must_not_run(*a, **k):
        raise AssertionError("read_staged executed a plan")

    def blocks(d, cpus, size=None):
        with monkeypatch.context() as m:
            m.setattr(hashagg, "_cluster_cpus", lambda: cpus)
            if size is not None:
                m.setattr(hashagg, "_plan_size_bytes", lambda ds: size)
            m.setattr(ExecutionPlan, "execute", must_not_run)
            m.setattr(ExecutionPlan, "execute_to_iterator", must_not_run)
            ds = read_staged(str(d), columns=["x"])
        out = ds.materialize()
        assert sorted(out.to_pandas()["x"]) == _staged_x(str(d))
        return out.num_blocks()

    assert blocks(three, 1) == 1
    assert blocks(three, 2) == 2          # min(files, cpus)
    assert blocks(three, 32) == 3         # never above the file count
    assert blocks(three, 1, size=10**12) == 3
    assert blocks(one, 32) == 1


def test_no_hand_rolled_disk_exchange_left():
    """Resume goes through manifests, and raw Ray tasks live only in the
    disk exchange and the two actor-backed state modules."""
    allowed = {os.path.join("stages", "disk_exchange.py"),
               os.path.join("state", "cache.py"),
               os.path.join("state", "vector_store.py")}
    done_marker = re.compile(r"""["'][A-Za-z_]*_DONE["']""")
    offenders = []
    for path in glob.glob(os.path.join(PKG, "**", "*.py"), recursive=True):
        rel = os.path.relpath(path, PKG)
        with open(path) as f:
            for n, line in enumerate(f, 1):
                if done_marker.search(line):
                    offenders.append(f"{rel}:{n}: _DONE marker")
                if (line.lstrip().startswith("@ray.remote")
                        and rel not in allowed):
                    offenders.append(f"{rel}:{n}: @ray.remote")
    assert offenders == []
