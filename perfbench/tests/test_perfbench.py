"""Self-test of the benchmark: a tiny run reports every metric that
BENCHMARK.json names, with its unit; the correctness gate rejects
corrupted triple and entity shards; a trial that raises fails the run;
and the benchmark refuses to run without the package.

    python3 -m pytest perfbench/tests -q -p no:cacheprovider
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _run(workload: str, trace: int, pages: int = 40):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--pages", str(pages)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(result: dict, spec_key: str):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_workloads_match_spec():
    from perfbench.harness import WORKLOADS
    # web_crawl stays runnable by hand but is not in BENCHMARK.json
    assert [w["name"] for w in SPEC["workloads"]] == [
        n for n in WORKLOADS if n != "web_crawl"]


def test_tiny_run_reports_end_to_end_metrics():
    result = _run("web_crawl", 0)
    _check(result, "end_to_end")
    assert result["metrics"]["triple_precision"]["value"] == 1.0
    assert result["metrics"]["triple_recall"]["value"] == 1.0


def test_tiny_traced_run_reports_per_layer_metrics():
    result = _run("longtail_link", 1)
    _check(result, "per_layer")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["entity_mismatches"] == 0
    assert m["kg_extract.busy_s"] > 0 and m["linking.busy_s"] > 0


def _corrupt(path, change):
    """Rewrite one Parquet file through ``change``; returns the original."""
    table = pq.read_table(path)
    pq.write_table(change(table), path)
    return table


def test_gate_rejects_corrupted_shard():
    from perfbench.harness import WORKLOADS, RaySession, Run
    run = Run(ROOT, WORKLOADS["web_crawl"], seed=5, seconds=0.1,
              trace=False, pages=30)
    os.makedirs(run.work, exist_ok=True)
    session = RaySession(ROOT)
    try:
        run.stage(1)
        t = run.trial(1, 1)
    finally:
        session.close()
    try:
        assert run.gate(t)["ok"]
        ents = sorted(glob.glob(os.path.join(t["out"], "entities",
                                             "*.parquet")))[0]

        def split_row(table):         # one id written as two partial rows
            return pa.concat_tables([table, table.slice(0, 1)])

        def bump_mentions(table):
            i = table.column_names.index("mention_count")
            return table.set_column(i, "mention_count", pc.add(
                table.column("mention_count"), 1))
        for change in (split_row, bump_mentions):
            original = _corrupt(ents, change)
            verdict = run.gate(t)
            assert not verdict["ok"] and verdict["entity_mismatches"] > 0
            pq.write_table(original, ents)
        assert run.gate(t)["ok"]

        shard = sorted(glob.glob(os.path.join(t["out"], "triples",
                                              "shard=*", "*.parquet")))[0]

        def bump_contexts(table):
            i = table.column_names.index("n_contexts")
            return table.set_column(i, "n_contexts", pc.add(
                table.column("n_contexts"), 1))
        _corrupt(shard, bump_contexts)
        verdict = run.gate(t)
        assert not verdict["ok"]
        assert verdict["triple_precision"] < 1.0
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


def test_trial_that_raises_fails_the_run():
    from perfbench.harness import WORKLOADS, Run
    run = Run(ROOT, WORKLOADS["web_crawl"], seed=5, seconds=0.1,
              trace=False, pages=30)
    run.records = os.path.join(run.work, "records")
    good = {"slice": 1, "traced": False, "wall_s": 1.0, "pages": 30,
            "triples": 10, "peak_rss_mb": 1.0, "driver_peak_rss_mb": 1.0,
            "disk_written_mb": 1.0, "error_rows": 0, "tasks_failed": 0,
            "gate": {"ok": True, "triple_precision": 1.0,
                     "triple_recall": 1.0, "entity_mismatches": 0}}
    try:
        args = ([{"stage_s": 0.1}], None, {}, 1.0, 1.0)
        assert run.result([good], [], *args)["correct"]
        out = run.result([good], [{"slice": 2, "error": "boom"}], *args)
        assert not out["correct"] and out["failed"] == 30
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


def test_refuses_to_run_without_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "web_crawl",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", ["web_crawl", "longtail_link"])
def test_staging_is_seeded(name):
    from perfbench.harness import WORKLOADS, Run
    a = Run(ROOT, WORKLOADS[name], seed=11, seconds=1, trace=False, pages=5)
    b = Run(ROOT, WORKLOADS[name], seed=11, seconds=1, trace=False, pages=5)
    c = Run(ROOT, WORKLOADS[name], seed=12, seconds=1, trace=False, pages=5)
    assert a.pages_table(2).equals(b.pages_table(2))
    assert not a.pages_table(2).equals(c.pages_table(2))
