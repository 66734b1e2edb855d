"""Spans around the layer calls of the KG-indexing path, recorded from
outside the program.

``Tracer.patch()`` swaps the module attributes that ``pipelines/kg.py``,
``stages/hashagg.py`` and ``stages/linking.py`` look up at call time for
timed wrappers, and restores them on ``unpatch()``.  Ray pickles the
wrappers into its tasks, so a wrapped stage callable records its span in
whichever worker process runs it.  Each process appends one JSON line per
span to ``<trace_dir>/spans-<pid>.jsonl``; the driver reads them back
after the trial.  Executions of Ray Data plans are captured as
``ds.stats()`` summaries (per-operator wall, CPU, UDF time, rows, bytes).

Untraced trials use a light ``Tracer(full=False)``: it wraps only the
extraction factory and captures the plan stats, which is what the run
needs to count the program's own failures ("x" rows, failed or retried
tasks).  Nothing here is imported by the program.
"""

from __future__ import annotations

import json
import os
import re
import time
from contextlib import contextmanager


class Timed:
    """Picklable timed wrapper around one stage callable.  Use
    :func:`timed` to build one: it names the wrapper's class after the
    wrapped callable, which is the name Ray Data gives the operator."""

    def __init__(self, fn, layer: str, name: str, trace_dir: str,
                 count=None):
        self.fn = fn
        self.layer = layer
        self.name = name
        self.trace_dir = trace_dir
        self.count = count
        self.__name__ = type(self).__name__   # Ray Data names operators by it

    def __call__(self, *args, **kwargs):
        t0 = time.time()
        out = self.fn(*args, **kwargs)
        t1 = time.time()
        rec = {"layer": self.layer, "name": self.name, "pid": os.getpid(),
               "t0": t0, "t1": t1}
        if self.count is not None:
            rec.update(self.count(args, out))
        with open(os.path.join(self.trace_dir, f"spans-{os.getpid()}.jsonl"),
                  "a") as f:
            f.write(json.dumps(rec) + "\n")
        return out


_CLASSES: dict = {}


def timed(fn, layer: str, name: str, trace_dir: str, count=None) -> Timed:
    label = getattr(fn, "__name__", type(fn).__name__)
    cls = _CLASSES.get(label)
    if cls is None:
        cls = _CLASSES[label] = type(label, (Timed,), {})
    return cls(fn, layer, name, trace_dir, count)


class TimedFactory:
    """Wraps a factory (class or ``make_*`` function) so every callable it
    builds is a :class:`Timed`."""

    def __init__(self, factory, layer, name, trace_dir, count=None):
        self.factory = factory
        self.args = (layer, name, trace_dir, count)

    def __call__(self, *args, **kwargs):
        return timed(self.factory(*args, **kwargs), *self.args)


# ---- row counters (run in the worker; keep them cheap) -------------------

def _rows(args, out):
    return {"rows_in": args[0].num_rows, "rows_out": out.num_rows}


def _extract_rows(args, out):
    import pyarrow.compute as pc

    from graphrag_rs_ray.functions import entities
    kinds = pc.value_counts(out.column("kind")).to_pylist()
    by = {d["values"]: d["counts"] for d in kinds}
    return {"rows_in": args[0].num_rows, "rows_out": out.num_rows,
            "e_rows": by.get("e", 0), "t_rows": by.get("t", 0),
            "x_rows": by.get("x", 0),
            # this worker's per-token memo after the batch
            "token_memo": len(entities._TOKEN_MEMO)}


def _bucket_rows(args, out):
    import numpy as np
    batch, keys, num_buckets = args
    hist = np.bincount(out.to_numpy(zero_copy_only=False),
                       minlength=num_buckets)
    return {"rows_in": batch.num_rows, "bytes_in": batch.nbytes,
            "keys": list(keys), "num_buckets": num_buckets,
            "hist": hist.tolist()}


def _block_rows(args, out):
    return {"rows_in": len(args[0]), "rows_out": out.num_rows}


def _reduce_rows(args, out):
    return {"rows_out": int(out)}


# (module, attribute, layer, kind, counter); kind "fn" wraps the callable,
# "factory" wraps what the factory returns.
KG = "graphrag_rs_ray.pipelines.kg"
HASHAGG = "graphrag_rs_ray.stages.hashagg"
LINKING = "graphrag_rs_ray.stages.linking"
TARGETS = [
    (KG, "extract_text_stage", "extract_text", "fn", _rows),
    (KG, "ChunkStage", "chunk", "factory", _rows),
    (KG, "make_extract_fn", "kg_extract", "factory", _extract_rows),
    (KG, "entities_only", "canonicalize", "fn", _rows),
    (KG, "triples_only", "canonicalize", "fn", _rows),
    (KG, "partial_entity_agg", "canonicalize", "fn", _rows),
    (KG, "partial_triple_agg", "canonicalize", "fn", _rows),
    (KG, "entity_bucket_merge", "canonicalize", "fn", _rows),
    (KG, "partial_entity_agg_from_final", "canonicalize", "fn", _rows),
    (KG, "triple_final_agg", "canonicalize", "factory", _rows),
    (HASHAGG, "_bucket_of", "hashagg", "fn", _bucket_rows),
    (LINKING, "add_block_key", "linking", "fn", _rows),
    (LINKING, "make_block_clusterer", "linking", "factory", _block_rows),
    (KG, "make_remap_entities", "linking", "factory", _rows),
    (KG, "make_remap_triples", "linking", "factory", _rows),
]
# driver-side calls: planning and driver collects
DRIVER_TARGETS = [
    (KG, "compute_links_ds", "linking"),
    (KG, "links_ds_to_dict", "linking"),
]


class Tracer:
    def __init__(self, trace_dir: str, full: bool = True):
        self.trace_dir = trace_dir
        self.full = full
        self.driver_spans: list[dict] = []
        self.summaries: list = []
        self._saved: list = []

    # ---- driver-side spans -----------------------------------------------

    @contextmanager
    def span(self, layer: str, name: str):
        t0 = time.time()
        try:
            yield
        finally:
            self.driver_spans.append({"layer": layer, "name": name,
                                      "pid": os.getpid(), "t0": t0,
                                      "t1": time.time(), "driver": True})

    def _driver_wrap(self, fn, layer, name):
        tracer = self

        def wrapped(*args, **kwargs):
            with tracer.span(layer, name):
                return fn(*args, **kwargs)
        return wrapped

    # ---- patching ---------------------------------------------------------

    def _set(self, mod, attr, value):
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def patch(self):
        import importlib

        import ray
        import ray.data as rd

        d = self.trace_dir
        os.makedirs(d, exist_ok=True)
        for modname, attr, layer, kind, count in TARGETS:
            if not self.full and attr != "make_extract_fn":
                continue
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            wrap = timed if kind == "fn" else TimedFactory
            self._set(mod, attr, wrap(orig, layer, attr, d, count))
        self._patch_stats(rd)
        if self.full:
            self._patch_full(ray, importlib)

    def _patch_full(self, ray, importlib):
        d = self.trace_dir
        for modname, attr, layer in DRIVER_TARGETS:
            mod = importlib.import_module(modname)
            self._set(mod, attr, self._driver_wrap(getattr(mod, attr),
                                                   layer, attr))

        # per-bucket functions that no target above already times (the
        # bucketed-join reducer) count as exchange work
        hashagg = importlib.import_module(HASHAGG)
        orig_hga = hashagg.hash_grouped_aggregate

        def hash_grouped_aggregate(ds, keys, per_bucket_fn, num_buckets=64):
            if not isinstance(per_bucket_fn, Timed):
                per_bucket_fn = timed(per_bucket_fn, "hashagg",
                                      "per_bucket", d, _rows)
            return orig_hga(ds, keys, per_bucket_fn, num_buckets)
        kg = importlib.import_module(KG)
        self._set(hashagg, "hash_grouped_aggregate", hash_grouped_aggregate)
        self._set(kg, "hash_grouped_aggregate", hash_grouped_aggregate)

        # write_graph's disk-shuffle reduce is a raw Ray task defined inside
        # the function: time it where ``ray.remote`` wraps it
        orig_remote = ray.remote

        def remote(*args, **kwargs):
            def wrap(fn):
                if getattr(fn, "__name__", "") != "reduce_shard":
                    return fn
                inner = timed(fn, "write_graph", "reduce_shard", d,
                              _reduce_rows)

                def reduce_shard(*a, **k):   # ray.remote takes functions only
                    return inner(*a, **k)
                return reduce_shard
            if args and callable(args[0]) and not kwargs:
                return orig_remote(wrap(args[0]))
            deco = orig_remote(*args, **kwargs)
            return lambda fn: deco(wrap(fn))
        self._set(ray, "remote", remote)

    def _patch_stats(self, rd):
        """Capture every plan execution's stats."""
        tracer = self
        orig_mat = rd.Dataset.materialize
        orig_write = rd.Dataset.write_parquet

        def materialize(ds, *a, **k):
            out = orig_mat(ds, *a, **k)
            tracer.summaries.append(out._get_stats_summary())
            return out

        def write_parquet(ds, *a, **k):
            out = orig_write(ds, *a, **k)
            if ds._write_ds is not None:
                tracer.summaries.append(ds._write_ds._get_stats_summary())
            return out
        self._set(rd.Dataset, "materialize", materialize)
        self._set(rd.Dataset, "write_parquet", write_parquet)

    def unpatch(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    # ---- collection ---------------------------------------------------------

    def collect(self) -> tuple[list[dict], list[dict]]:
        """Return (spans, operators) recorded since the last collect and
        reset."""
        spans = list(self.driver_spans)
        for name in os.listdir(self.trace_dir):
            if name.startswith("spans-") and name.endswith(".jsonl"):
                path = os.path.join(self.trace_dir, name)
                with open(path) as f:
                    spans.extend(json.loads(line) for line in f if line.strip())
                os.remove(path)
        ops = operators(self.summaries)
        self.driver_spans = []
        self.summaries = []
        return spans, ops


_BLOCKS = re.compile(r"(\d+) tasks executed, (\d+) blocks produced")


def operators(summaries) -> list[dict]:
    """Flatten ``ds.stats()`` summaries (and their parents) into one row
    per operator, each plan execution counted once.  ``exec`` numbers the
    captured execution that first reached the operator, so the rows of one
    plan (``materialize`` or ``write_parquet``) share it."""
    seen: set = set()
    rows: list[dict] = []

    def visit(s, exec_id):
        key = (s.base_name, s.number, tuple(
            (op.operator_name, op.earliest_start_time)
            for op in s.operators_stats))
        if key in seen:
            return
        seen.add(key)
        for p in s.parents:
            visit(p, exec_id)
        extra = s.extra_metrics or {}
        for op in s.operators_stats:
            m = _BLOCKS.search(op.block_execution_summary_str or "")
            rows.append({
                "exec": exec_id, "op": op.operator_name,
                "sub": bool(op.is_sub_operator),
                "tasks": int(m.group(1)) if m else 0,
                "blocks": int(m.group(2)) if m else 0,
                "wall_s": (op.wall_time or {}).get("sum", 0.0),
                "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                "udf_s": (op.udf_time or {}).get("sum", 0.0),
                "rows": (op.output_num_rows or {}).get("sum", 0),
                "bytes": (op.output_size_bytes or {}).get("sum", 0),
            })
        if s.operators_stats:
            rows.append({"exec": exec_id, "op": "_dataset",
                         "tasks_failed": extra.get("num_tasks_failed", 0),
                         "obj_store_used": extra.get("obj_store_mem_used", 0),
                         "spilled": max(s.global_bytes_spilled or 0,
                                        extra.get("obj_store_mem_spilled",
                                                  0))})

    for i, s in enumerate(summaries):
        visit(s, i)
    return rows


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus the part of it its
    child spans (same process, nested interval) cover."""
    out: dict[str, float] = {}
    by_pid: dict = {}
    for s in spans:
        by_pid.setdefault((s["pid"], s.get("driver", False)), []).append(s)
    for group in by_pid.values():
        group.sort(key=lambda s: (s["t0"], -s["t1"]))
        stack: list = []
        for s in group:
            s["_child"] = 0.0
            while stack and stack[-1]["t1"] <= s["t0"]:
                stack.pop()
            if stack and s["t1"] <= stack[-1]["t1"]:
                stack[-1]["_child"] += s["t1"] - s["t0"]
            stack.append(s)
        for s in group:
            out[s["layer"]] = out.get(s["layer"], 0.0) + max(
                0.0, s["t1"] - s["t0"] - s.pop("_child"))
    return out
