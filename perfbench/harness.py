"""Workloads, seeded input staging, the timed trial loop and its metrics.

One run = one driver process with ``ray.init(num_cpus=nproc)``:

1. stage slice 0 of the workload's input (cached on disk per workload,
   seed, slice size and generator version) and run one untimed warm-up
   trial (worker pool, imports, extractor memos);
2. time trials — ``read_pages_parquet`` → ``build_kg`` → ``write_graph``
   into a fresh directory — until the measured time reaches
   ``--seconds`` (at least ``MIN_TRIALS`` trials);
3. gate every measured trial's written graph against the no-Ray
   reference of its slice;
4. report medians over trials.

On the open vocabulary every trial stages and reads a slice of its own,
so the extractor's per-token memos stay as cold as a crawl that keeps
bringing new names would keep them.  The other workloads time every
trial on slice 1: their memos are hot after the warm-up whatever the
slice, and one slice means one staging and one reference, which leaves
room in the run for more trials.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass

from . import probes, reference
from .longtail import GENERATOR_VERSION

MIN_TRIALS = 3
BUILD_SHARDS = 4               # KGConfig.num_shards (exchange buckets = 4x)


@dataclass(frozen=True)
class Workload:
    name: str
    pages: int                 # pages per slice (one trial's input)
    generator: str             # "pages" (sources.pages) | "longtail"
    # set-up stages build_kg(work_dir=...); the trial resumes from it and
    # writes with the disk shuffle at another shard count than the build's
    restage: bool = False

    @property
    def fuzzy(self) -> bool:
        # the long-tail names carry planted typos for the linker to find
        return self.generator == "longtail"

    @property
    def fresh_slices(self) -> bool:
        return self.generator == "longtail"

    @property
    def write_shards(self) -> int:
        return 2 * BUILD_SHARDS if self.restage else BUILD_SHARDS

    def config(self):
        from graphrag_rs_ray.config import KGConfig
        return KGConfig(num_shards=BUILD_SHARDS, fuzzy_linking=self.fuzzy)


WORKLOADS = {w.name: w for w in (
    # why each workload exists: BENCHMARK.json and README.md
    Workload("web_crawl", pages=4000, generator="pages"),
    Workload("longtail_link", pages=1500, generator="longtail"),
    Workload("restage_disk", pages=4000, generator="pages", restage=True),
)}


def median(xs):
    return statistics.median(xs) if xs else 0.0


class Run:
    def __init__(self, root: str, workload: Workload, seed: int,
                 seconds: float, trace: bool, pages: int | None = None):
        self.root = root
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.pages = pages or workload.pages
        self.cfg = workload.config()
        base = os.path.join(root, ".perfbench")
        # staged inputs depend on the generator and, for a restage, on
        # the extraction that staged them
        sources = ["sources/pages.py"] if workload.generator == "pages" else []
        if workload.restage:
            sources += [*reference.KERNELS, "pipelines/kg.py",
                        "stages/extract_text.py", "stages/chunk.py",
                        "stages/kg_extract.py"]
        gen = ("pages" if workload.generator == "pages"
               else f"longtail{GENERATOR_VERSION}")
        gen += f"-{reference.source_hash(*sources)}"
        self.cache = os.path.join(
            base, "cache", f"{workload.name}-s{seed}-n{self.pages}-{gen}")
        self.work = os.path.join(base, f"run-{os.getpid()}")
        self.records = os.path.join(base, "records")
        self.cache_hits = 0
        self.expected: dict = {}   # slice -> what its written graph must be
        from .spans import Tracer
        self.tracer = Tracer(os.path.join(self.work, "spans"))
        self.watch = Tracer(os.path.join(self.work, "watch"), full=False)

    # ---- staging --------------------------------------------------------

    def stage(self, k: int) -> dict:
        """Stage slice ``k`` (pages, plus the combined extraction for a
        restage workload) once; returns its manifest, whose ``stage_s``
        is the measured staging cost."""
        import pyarrow.parquet as pq
        d = os.path.join(self.cache, f"slice{k}")
        mpath = os.path.join(d, "STAGED.json")
        if os.path.exists(mpath):
            self.cache_hits += 1
            with open(mpath) as f:
                return json.load(f)
        tmp = d + f".tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(os.path.join(tmp, "pages"))
        t0 = time.perf_counter()
        table = self.pages_table(k)
        pq.write_table(table, os.path.join(tmp, "pages", "part-0.parquet"))
        if self.wl.restage:
            from graphrag_rs_ray.pipelines.kg import build_kg
            from graphrag_rs_ray.sources.pages import read_pages_parquet
            build_kg(read_pages_parquet(os.path.join(tmp, "pages")),
                     self.cfg, work_dir=os.path.join(tmp, "work"))
        manifest = {"slice": k, "pages": table.num_rows,
                    "stage_s": time.perf_counter() - t0}
        with open(os.path.join(tmp, "STAGED.json"), "w") as f:
            json.dump(manifest, f)
        shutil.rmtree(d, ignore_errors=True)
        os.replace(tmp, d)
        return manifest

    def pages_table(self, k: int):
        start = k * self.pages
        if self.wl.generator == "longtail":
            from .longtail import pages_table
            return pages_table(start, self.pages, self.seed)
        from graphrag_rs_ray.sources.pages import pages_table
        return pages_table(self.pages, seed=self.seed, start=start)

    def slice_dir(self, k: int, *parts) -> str:
        return os.path.join(self.cache, f"slice{k}", *parts)

    def reference(self, k: int) -> reference.Reference:
        path = self.slice_dir(
            k, f"reference-{reference.source_hash(*reference.KERNELS)}")
        if os.path.exists(os.path.join(path, "meta.json")):
            return reference.load(path)
        import pyarrow.parquet as pq
        ref = reference.extract(pq.read_table(self.slice_dir(
            k, "pages", "part-0.parquet")), self.cfg)
        tmp = path + f".tmp{os.getpid()}"
        reference.save(ref, tmp)
        shutil.rmtree(path, ignore_errors=True)
        os.replace(tmp, path)
        return ref

    # ---- one trial --------------------------------------------------------

    def trial(self, k: int, n: int, traced: bool = False) -> dict:
        """Timed trial ``n``, on slice ``k``.  Every trial runs under a
        tracer: the full one when ``traced``, else the light watch that
        only counts the program's failed chunks and tasks."""
        from graphrag_rs_ray.pipelines import kg
        from graphrag_rs_ray.sources.pages import read_pages_parquet
        from graphrag_rs_ray.state.manifests import (fingerprint_config,
                                                     stage_complete)

        out = os.path.join(self.work, f"out{n}")
        shutil.rmtree(out, ignore_errors=True)
        work_dir = self.slice_dir(k, "work") if self.wl.restage else None
        resumed = int(bool(work_dir) and stage_complete(
            os.path.join(work_dir, "combined"),
            fingerprint_config("combined", self.cfg)))
        probes.reset_peaks([os.getpid()] + probes.ray_workers())
        procs = [os.getpid()] + probes.descendants()
        cpu0 = probes.cpu_seconds(procs)

        tracer = self.tracer if traced else self.watch
        tracer.patch()
        try:
            t0 = time.perf_counter()
            with tracer.span("pages", "read_pages_parquet"):
                pages_ds = read_pages_parquet(self.slice_dir(k, "pages"))
            with tracer.span("build_kg", "build_kg"):
                res = kg.build_kg(pages_ds, self.cfg, work_dir=work_dir)
            with tracer.span("write_graph", "write_graph"):
                manifest = kg.write_graph(res, out,
                                          num_shards=self.wl.write_shards,
                                          disk_shuffle=self.wl.restage)
            wall = time.perf_counter() - t0
            procs += [p for p in probes.descendants() if p not in procs]
            cpu = probes.cpu_seconds(procs) - cpu0
        finally:
            tracer.unpatch()
        spans, ops = tracer.collect()
        workers = probes.ray_workers()
        driver_mb = probes.peak_rss_mb(os.getpid())
        out_bytes, files = probes.dir_bytes(out)
        shuffle_bytes, _ = probes.dir_bytes(os.path.join(out, "_shuffle"))
        t = {"slice": k, "wall_s": wall, "cpu_s": cpu, "traced": traced,
             "pages": self.pages, "triples": manifest["n_triples"],
             "entities": manifest["n_entities"],
             "driver_peak_rss_mb": driver_mb,
             "peak_rss_mb": driver_mb + sum(probes.peak_rss_mb(p)
                                            for p in workers),
             "disk_written_mb": out_bytes / 1e6,
             "shuffle_stage_mb": shuffle_bytes / 1e6,
             "files": files, "shard_rows": manifest["shard_rows"],
             "resumed_stages": resumed + len(manifest["resumed_shards"]),
             "n_links": res.n_links,
             "broadcast_mb": (len(pickle.dumps(res.links)) / 1e6
                              if res.links else 0.0),
             "links": res.links, "out": out,
             # the program's own failures: "x" (failed chunk) rows and
             # failed or retried Ray Data tasks
             "error_rows": sum(s.get("x_rows", 0) for s in spans
                               if s["name"] == "make_extract_fn"),
             "tasks_failed": sum(o["tasks_failed"] for o in ops
                                 if o["op"] == "_dataset")}
        if traced:
            t["spans"], t["ops"] = spans, ops
        return t

    # ---- gate ---------------------------------------------------------------

    def expect(self, k: int) -> dict:
        """The reference's verdict inputs for slice ``k``, computed once."""
        if k in self.expected:
            return self.expected[k]
        ref = self.reference(k)
        links, bad_blocks, planted = {}, 0, None
        if self.wl.fuzzy:
            exact = reference.merge_entities(ref.names)
            links, bad_blocks = reference.expected_links(exact, self.cfg,
                                                         self.seed)
            from .longtail import planted_pairs
            pairs = planted_pairs({e: v[0] for e, v in exact.items()})
            same = sum(links.get(a, a) == links.get(b, b) for a, b in pairs)
            planted = same / len(pairs) if pairs else 1.0
        entities, triples = reference.expected_graph(ref, links)
        # how cold the slice is for the extractor: distinct entity names
        # over entity mentions
        mentions = sum(m for _c, m, _v in ref.names.values())
        self.expected[k] = {
            "entities": entities, "triples": triples, "links": links,
            "bad_blocks": bad_blocks, "planted_recall": planted,
            "error_rows": ref.error_rows,
            "names_per_mention": len(ref.names) / mentions if mentions
            else 0.0}
        return self.expected[k]

    def gate(self, t: dict) -> dict:
        x = self.expect(t["slice"])
        v = reference.check(t["out"], self.wl.write_shards, x["entities"],
                            x["triples"])
        link_mismatches = len(set(x["links"].items())
                              ^ set(t["links"].items()))
        # failed chunks: the program's "x" rows against the reference's
        # (a restage trial runs no extraction)
        errors_ok = self.wl.restage or t["error_rows"] == x["error_rows"]
        return {"triple_precision": v.triple_precision,
                "triple_recall": v.triple_recall,
                "entity_mismatches": v.entity_mismatches + link_mismatches
                + x["bad_blocks"],
                "names_per_mention": x["names_per_mention"],
                "planted_recall": x["planted_recall"],
                "ok": (v.ok and not link_mismatches and not x["bad_blocks"]
                       and errors_ok)}

    # ---- the run -------------------------------------------------------------

    def execute(self) -> dict:
        os.makedirs(self.work, exist_ok=True)
        calib_before = probes.calib_ms()
        phases: dict = {}
        mark = time.perf_counter()

        def phase(name):
            nonlocal mark
            now = time.perf_counter()
            phases[name] = now - mark
            mark = now
        session = RaySession(self.root)
        phase("ray_init_s")
        try:
            staged = [self.stage(0)]
            self.trial(0, 0)                               # warm-up
            shutil.rmtree(os.path.join(self.work, "out0"), ignore_errors=True)
            if not self.wl.fresh_slices:
                staged.append(self.stage(1))
            phase("warmup_s")
            trials, failures, n, measured = [], [], 0, 0.0
            while measured < self.seconds or len(trials) < MIN_TRIALS or (
                    self.trace and sum(t["traced"] for t in trials) < 2):
                n += 1
                k = n if self.wl.fresh_slices else 1
                if self.wl.fresh_slices:
                    staged.append(self.stage(k))
                try:
                    t = self.trial(k, n, traced=self.trace and n % 2 == 0)
                except Exception as ex:  # noqa: BLE001 — count and stop
                    traceback.print_exc()
                    failures.append({"slice": k, "error": repr(ex)[:500]})
                    break
                measured += t["wall_s"]
                trials.append(t)
            phase("trials_s")
            for t in trials:
                t["gate"] = self.gate(t)
            phase("gate_s")
            layer = None
            if self.trace:
                from .layers import per_layer
                layer = per_layer(self, trials)
                phase("replay_s")
            for t in trials:
                del t["out"]
        finally:
            session.close()
            shutil.rmtree(self.work, ignore_errors=True)
        phase("shutdown_s")
        calib_after = probes.calib_ms()
        return self.result(trials, failures, staged, layer, phases,
                           calib_before, calib_after)

    def result(self, trials, failures, staged, layer, phases, calib_before,
               calib_after) -> dict:
        plain = [t for t in trials if not t["traced"]] or trials
        gates = [t["gate"] for t in trials]
        drift = abs(calib_after / calib_before - 1.0) if calib_before else 0.0
        e2e = {
            "wall_s": (median([t["wall_s"] for t in plain]), "s"),
            "pages_per_s": (median([t["pages"] / t["wall_s"] for t in plain]),
                            "1/s"),
            "triples_per_s": (median([t["triples"] / t["wall_s"]
                                      for t in plain]), "1/s"),
            "setup_s": (median([s["stage_s"] for s in staged]), "s"),
            "peak_rss_mb": (median([t["peak_rss_mb"] for t in plain]), "MB"),
            "driver_peak_rss_mb": (median([t["driver_peak_rss_mb"]
                                           for t in plain]), "MB"),
            "disk_written_mb": (median([t["disk_written_mb"] for t in plain]),
                                "MB"),
            "triple_precision": (min((g["triple_precision"] for g in gates),
                                     default=0.0), "ratio"),
            "triple_recall": (min((g["triple_recall"] for g in gates),
                                  default=0.0), "ratio"),
        }
        attempted = self.pages * (len(trials) + len(failures))
        failed = self.pages * len(failures) + sum(
            t["error_rows"] + t["tasks_failed"] for t in trials)
        # a trial that raised fails the run, whatever the others measured
        correct = bool(trials) and not failures and all(g["ok"]
                                                         for g in gates)
        record = {
            "workload": self.wl.name, "seed": self.seed,
            "seconds": self.seconds, "trace": self.trace,
            "pages_per_slice": self.pages, "phases": phases,
            "calib_ms_before": calib_before, "calib_ms_after": calib_after,
            "calib_drift": drift, "drift_flag": drift > probes.DRIFT_LIMIT,
            "cache_hits": self.cache_hits, "failures": failures,
            "trials": [{k: v for k, v in t.items()
                        if k not in ("links", "spans", "ops")}
                       for t in trials],
            "end_to_end": {k: v[0] for k, v in e2e.items()},
            "failed_frac": failed / attempted if attempted else 0.0,
            "entity_mismatches": sum(g["entity_mismatches"] for g in gates),
        }
        if layer is not None:
            record["per_layer"] = {k: v[0] for k, v in layer["metrics"].items()}
            record["layers"] = layer["layers"]
            record["spans"] = layer["spans"]
            record["ops"] = layer["ops"]
        os.makedirs(self.records, exist_ok=True)
        path = os.path.join(self.records,
                            f"{self.wl.name}-s{self.seed}-t{int(self.trace)}.json")
        with open(path, "w") as f:
            json.dump(record, f, indent=1, default=str)
        metrics = layer["metrics"] if layer is not None else e2e
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()},
                "record": path, "drift_flag": record["drift_flag"]}


def nproc() -> int:
    """CPUs this process may use, as ``nproc`` counts them: the affinity
    mask, capped by ``OMP_NUM_THREADS`` when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return max(1, min(n, int(omp))) if omp.isdigit() else n


class RaySession:
    """One local Ray session.  Its files go under ``.perfbench/r`` in the
    checkout when the path leaves room for Ray's unix socket names (at most
    107 bytes); otherwise under Ray's default temp dir.  Either way the
    session directory is removed on close."""

    def __init__(self, root: str):
        import logging

        import ray
        from ray.data import DataContext

        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (root, os.environ.get("PYTHONPATH")) if p)
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        self.temp = os.path.join(root, ".perfbench", "r")
        socket = (f"/session_2026-01-01_00-00-00_000000_{os.getpid()}"
                  "/sockets/plasma_store")
        kwargs = {}
        if len(self.temp) + len(socket) <= 107:
            kwargs["_temp_dir"] = self.temp
        ray.init(num_cpus=nproc(), include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 << 20, **kwargs)
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        DataContext.get_current().enable_progress_bars = False
        node = ray._private.worker._global_node
        self.session_dir = node.get_session_dir_path() if node else None

    def close(self):
        import ray
        started = probes.descendants()
        ray.shutdown()
        probes.wait_gone(started)
        if self.session_dir:
            shutil.rmtree(self.session_dir, ignore_errors=True)
        latest = os.path.join(self.temp, "session_latest")
        if os.path.islink(latest):
            os.remove(latest)
        if os.path.isdir(self.temp) and not os.listdir(self.temp):
            os.rmdir(self.temp)
