"""Per-layer metrics of a traced run.

Busy time of a layer = self time of its spans (stage callables in the
workers, plus driver-side planning and collects) + the ``ds.stats()``
wall of the operators that are that layer's own work and run no user
code: Parquet reads (``pages`` when they feed extraction, ``build_kg``
when they read a resumed stage), all-to-all exchanges (``hashagg``, or
``linking`` in the plan that blocks entities), the non-UDF part of write
operators (``write_graph``) and the per-group machinery of linking's
``map_groups``.  ``ray.overhead_s`` is the trial wall minus every
layer's busy time: scheduling, serialization, the object store, the
per-group machinery of ``hash_grouped_aggregate``'s ``map_groups``
(fused with ``add_shard`` and writes, so not separable), and user code
that cannot be wrapped from outside (closures such as ``write_graph``'s
``add_shard``).
"""

from __future__ import annotations

import statistics

from . import probes
from .spans import self_times

# driver spans that enclose the whole build; they give build_kg.stage_s
# but are not busy time of their own
ENCLOSING = {"build_kg", "write_graph"}
LAYERS = ("pages", "extract_text", "chunk", "kg_extract", "canonicalize",
          "hashagg", "linking", "build_kg", "write_graph")
# all-to-all exchanges report only sub-operator rows (SortMap, ...)
EXCHANGE_OPS = ("Sort", "Repartition", "Shuffle", "Aggregate")


def trial_layers(t: dict) -> dict:
    spans, ops = t["spans"], [o for o in t["ops"] if o["op"] != "_dataset"]
    busy_spans = [s for s in spans
                  if not (s.get("driver") and s["name"] in ENCLOSING)]
    busy = dict.fromkeys(LAYERS, 0.0)
    busy.update(self_times(busy_spans))
    execs: dict = {}
    for o in ops:
        execs.setdefault(o["exec"], []).append(o["op"])
    for o in ops:
        names = " ".join(execs[o["exec"]])
        if o["op"].startswith("ReadParquet"):
            layer = "pages" if "extract_text_stage" in names else "build_kg"
            busy[layer] += o["wall_s"]
        elif o["sub"] and o["op"].startswith(EXCHANGE_OPS):
            layer = "linking" if "add_block_key" in names else "hashagg"
            busy[layer] += o["wall_s"]
        if o["op"].endswith("Write"):
            busy["write_graph"] += max(0.0, o["wall_s"] - o["udf_s"])
    # linking's blocked clustering runs as a native map_groups: Ray Data's
    # per-group slicing around each cluster_block call is linking's cost
    groups = sum(o["udf_s"] for o in ops if "cluster_block" in o["op"])
    clustered = sum(s["t1"] - s["t0"] for s in spans
                    if s["name"] == "make_block_clusterer")
    busy["linking"] += max(0.0, groups - clustered)
    busy["ray.overhead"] = t["wall_s"] - sum(busy.values())
    return busy


def _sum(spans, name, key):
    return sum(s.get(key, 0) for s in spans if s["name"] == name)


def trial_metrics(t: dict) -> dict:
    spans = t["spans"]
    ops = [o for o in t["ops"] if o["op"] != "_dataset"]
    datasets = [o for o in t["ops"] if o["op"] == "_dataset"]
    busy = trial_layers(t)
    reads = [o for o in ops if o["op"].startswith("ReadParquet")]
    page_reads = [o for o in reads if any(
        "extract_text_stage" in p["op"] for p in ops
        if p["exec"] == o["exec"])]
    buckets = [s for s in spans if s["name"] == "_bucket_of"]
    hists: dict = {}
    for s in buckets:
        h = hists.setdefault((tuple(s["keys"]), s["num_buckets"]),
                             [0] * s["num_buckets"])
        for i, c in enumerate(s["hist"]):
            h[i] += c
    skew = max((max(h) / (sum(h) / len(h)) for h in hists.values()
                if sum(h)), default=0.0)
    blocks = [s for s in spans if s["name"] == "make_block_clusterer"]
    key_rows = _sum(spans, "add_block_key", "rows_in")
    shard_rows = list(t["shard_rows"].values())
    ext_rows = _sum(spans, "make_extract_fn", "rows_out")
    build = [s for s in spans if s.get("driver") and s["name"] == "build_kg"]
    return {
        "pages.read_s": (sum(o["wall_s"] for o in page_reads), "s"),
        "pages.read_mb": (sum(o["bytes"] for o in page_reads) / 1e6, "MB"),
        "pages.blocks": (sum(o["blocks"] for o in page_reads), "count"),
        "extract_text.busy_s": (busy["extract_text"], "s"),
        "chunk.busy_s": (busy["chunk"], "s"),
        "kg_extract.busy_s": (busy["kg_extract"], "s"),
        "kg_extract.entity_rows": (_sum(spans, "make_extract_fn", "e_rows"),
                                   "count"),
        "kg_extract.triple_rows": (_sum(spans, "make_extract_fn", "t_rows"),
                                   "count"),
        "kg_extract.error_rows": (_sum(spans, "make_extract_fn", "x_rows"),
                                  "count"),
        "canonicalize.entity_combine_ratio": (_ratio(
            _sum(spans, "partial_entity_agg", "rows_out"),
            _sum(spans, "partial_entity_agg", "rows_in")), "ratio"),
        "canonicalize.triple_combine_ratio": (_ratio(
            _sum(spans, "partial_triple_agg", "rows_out"),
            _sum(spans, "partial_triple_agg", "rows_in")), "ratio"),
        "canonicalize.busy_s": (busy["canonicalize"], "s"),
        "hashagg.exchange_rows": (sum(s["rows_in"] for s in buckets), "count"),
        "hashagg.exchange_mb": (sum(s["bytes_in"] for s in buckets) / 1e6,
                                "MB"),
        "hashagg.blocks": (len(buckets), "count"),
        "hashagg.bucket_skew": (skew, "ratio"),
        "hashagg.busy_s": (busy["hashagg"], "s"),
        "linking.busy_s": (busy["linking"], "s"),
        "linking.blocks": (len(blocks), "count"),
        "linking.max_block_rows": (max((s["rows_in"] for s in blocks),
                                       default=0), "count"),
        "linking.links": (t["n_links"], "count"),
        "linking.link_ratio": (_ratio(t["n_links"], key_rows), "ratio"),
        "linking.broadcast_mb": (t["broadcast_mb"], "MB"),
        "build_kg.stage_s": (sum(s["t1"] - s["t0"] for s in build), "s"),
        "build_kg.combined_rows": (ext_rows or sum(
            o["rows"] for o in reads if o not in page_reads), "count"),
        "manifests.resumed_stages": (t["resumed_stages"], "count"),
        "write_graph.busy_s": (busy["write_graph"], "s"),
        "write_graph.written_mb": (t["disk_written_mb"]
                                   - t["shuffle_stage_mb"], "MB"),
        "write_graph.shuffle_stage_mb": (t["shuffle_stage_mb"], "MB"),
        "write_graph.files": (t["files"], "count"),
        "write_graph.shard_skew": (_ratio(max(shard_rows, default=0),
                                          statistics.mean(shard_rows)
                                          if shard_rows else 0), "ratio"),
        "ray.overhead_s": (busy["ray.overhead"], "s"),
        "ray.tasks": (sum(o["tasks"] for o in ops)
                      + _count(spans, "reduce_shard"), "count"),
        "ray.tasks_failed": (sum(d["tasks_failed"] for d in datasets),
                             "count"),
        "ray.spilled_mb": (max((d["spilled"] for d in datasets), default=0)
                           / 1e6, "MB"),
        "ray.object_store_peak_mb": (max((d["obj_store_used"]
                                          for d in datasets), default=0)
                                     / 1e6, "MB"),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def _count(spans, name):
    return sum(1 for s in spans if s["name"] == name)


# a failed run reports every metric as zero
EMPTY = {"spans": [], "ops": [], "wall_s": 0.0, "shard_rows": {}, "n_links": 0,
         "broadcast_mb": 0.0, "resumed_stages": 0, "disk_written_mb": 0.0,
         "shuffle_stage_mb": 0.0, "files": 0}


def per_layer(run, trials: list[dict]) -> dict:
    """Median per-layer metrics over the traced trials, the kernel replay
    over the trial slices, and the trace-overhead estimate."""
    import pyarrow.parquet as pq

    traced = [t for t in trials if t["traced"]]
    plain = [t for t in trials if not t["traced"]]
    per = [trial_metrics(t) for t in traced or [EMPTY]]
    metrics = {k: (statistics.median(m[k][0] for m in per), per[0][k][1])
               for k in per[0]}

    replay: dict = {}
    if not run.wl.restage:   # restage trials run no extraction
        runs = [probes.kernel_replay(pq.read_table(run.slice_dir(
            t["slice"], "pages", "part-0.parquet")), run.cfg) for t in trials]
        replay = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    subjects = []
    for t in traced[:1]:
        from .reference import read_graph
        _e, rows = read_graph(t["out"], run.wl.write_shards)
        subjects = [r[0] for r in rows]
    gates = [t["gate"] for t in trials]
    planted = [g["planted_recall"] for g in gates
               if g["planted_recall"] is not None]
    wall_t = statistics.median(t["wall_s"] for t in traced or [EMPTY])
    wall_p = statistics.median(t["wall_s"] for t in plain) if plain else 0.0
    attempted = run.pages * len(trials)
    metrics.update({
        "extract_text.ms_per_page": (replay.get("html_ms_per_page", 0.0),
                                     "ms"),
        "chunk.ms_per_page": (replay.get("chunk_ms_per_page", 0.0), "ms"),
        "chunk.chunks_per_page": (replay.get("chunks_per_page", 0.0),
                                  "ratio"),
        "kg_extract.ner_ms_per_chunk": (replay.get("ner_ms_per_chunk", 0.0),
                                        "ms"),
        "kg_extract.rel_ms_per_chunk": (replay.get("rel_ms_per_chunk", 0.0),
                                        "ms"),
        "kg_extract.emit_ms_per_chunk": (replay.get("emit_ms_per_chunk",
                                                    0.0), "ms"),
        # largest per-token memo of an extraction worker (0 on restage)
        "kg_extract.token_memo_entries": (max(
            (s["token_memo"] for t in traced for s in t["spans"]
             if s["name"] == "make_extract_fn"), default=0), "count"),
        "write_graph.add_shard_us_per_row": (probes.add_shard_us_per_row(
            subjects, run.wl.write_shards), "us"),
        "linking.planted_recall": (min(planted) if planted else 0.0,
                                   "ratio"),
        "failed_frac": (sum(t["error_rows"] + t["tasks_failed"]
                            for t in trials) / attempted
                        if attempted else 0.0, "fraction"),
        "entity_mismatches": (sum(g["entity_mismatches"] for g in gates),
                              "count"),
        "setup.cache_hits": (run.cache_hits, "count"),
        "bench.trials": (len(trials), "count"),
        "host.calib_ms": (probes.calib_ms(), "ms"),
        "trace.overhead_frac": (wall_t / wall_p - 1.0 if wall_p else 0.0,
                                "fraction"),
    })
    layers = {name: statistics.median(trial_layers(t)[name]
                                      for t in traced or [EMPTY])
              for name in (*LAYERS, "ray.overhead")}
    return {"metrics": metrics, "layers": layers,
            "spans": [s for t in traced for s in t["spans"]],
            "ops": [o for t in traced for o in t["ops"]]}
