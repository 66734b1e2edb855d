"""Distributed connected components of an undirected edge table.

Hash-to-min label propagation (iterated ``bucketed_join`` +
min-aggregate, the standard CC-in-MapReduce construction) with a
driver union-find fast path for small graphs.  Component ids are the
lexicographically-smallest member name — stable across runs and
partitionings.  Used by ``dedup_clusters`` and the
``connected_components`` query.
"""

from __future__ import annotations

import logging

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.hashagg import (
    bucketed_join,
    grouped_arrow_agg,
    hash_grouped_aggregate,
)

logger = logging.getLogger(__name__)


def _und_edges(triples_ds):
    """Triples → undirected (a, b) edge rows (self-loops dropped)."""
    def fwd(t: pa.Table) -> pa.Table:
        keep = t.filter(pc.invert(pc.equal(t.column("subj"), t.column("obj"))))
        return pa.table({"a": keep.column("subj"), "b": keep.column("obj")})
    return triples_ds.map_batches(fwd, batch_format="pyarrow")


def connected_components(edges_ds, num_buckets: int = 64, max_rounds: int = 50,
                         small_graph_limit: int = 2_000_000):
    """(a, b) edges → (node, component) with component = min reachable
    node name.  Two paths, identical output (the ``semantic_edges``
    pattern): ≤ ``small_graph_limit`` edges → driver union-find (the
    O(diameter)-round propagation costs seconds of fixed Ray overhead
    per round — pure waste on a small graph); larger → hash-to-min label
    propagation until fixpoint.  ``small_graph_limit=0`` forces the
    distributed path (used by the equality test)."""
    if edges_ds.count() <= small_graph_limit:
        return _connected_components_local(edges_ds)
    # COALESCE before the per-round exchanges: Ray's range-partition
    # sort fans map×reduce with the INPUT BLOCK COUNT, so a small table
    # arriving as hundreds of tiny map_groups-output blocks makes every
    # round quadratically expensive in metadata (measured: 768 blocks ×
    # 90k edges → 363 s/round; repartition(32) → 2.1 s/round, and at
    # 10M docs the un-coalesced round hit 12 min with a 30 GB driver)
    sym = edges_ds.map_batches(
        lambda t: pa.concat_tables([
            pa.table({"a": t.column("a"), "b": t.column("b")}),
            pa.table({"a": t.column("b"), "b": t.column("a")})]),
        batch_format="pyarrow").repartition(num_buckets).materialize()

    labels = hash_grouped_aggregate(
        sym, ["a"],
        grouped_arrow_agg(["a"], [("b", "min")], rename=["node", "nbr_min"]),
        num_buckets=num_buckets).map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "label": pc.min_element_wise(
                                t.column("node"), t.column("nbr_min"))}),
        batch_format="pyarrow").repartition(num_buckets).materialize()

    import os as _os
    import shutil as _shutil
    import tempfile as _tempfile
    import time as _time

    import ray.data as rd

    work_dir = _tempfile.mkdtemp(prefix="graphrag_cc_")
    # Per-round structure (each round = 2 joins + 1 aggregate):
    #   merged  = min(neighbour labels ∪ own) with the OLD label carried
    #             through the aggregate as a second column → the
    #             convergence count needs NO extra join,
    #   shortcut: label(v) ← min(label(v), label(label(v))) — labels are
    #             min-monotone, so pointer doubling squares the
    #             propagation radius: O(log diameter) rounds,
    #   checkpoint to Parquet (alternating slots) — the hard lineage cut
    #   (materialize alone lets diamond-shaped plans re-derive prior
    #   rounds; the iterative-loop rule in CLAUDE.md).
    for _rnd in range(max_rounds):
        _t0 = _time.perf_counter()
        lab_a = labels.map_batches(
            lambda t: pa.table({"a": t.column("node"),
                                "a_label": t.column("label")}),
            batch_format="pyarrow")
        prop = bucketed_join(sym, lab_a, on=["a"], num_buckets=num_buckets)
        cand = prop.map_batches(
            lambda t: pa.table({"node": t.column("b"),
                                "label": t.column("a_label"),
                                "old_label": pa.nulls(t.num_rows, pa.string())}),
            batch_format="pyarrow")
        older = labels.map_batches(
            lambda t: pa.table({"node": t.column("node"),
                                "label": t.column("label"),
                                "old_label": t.column("label")}),
            batch_format="pyarrow")
        merged = hash_grouped_aggregate(
            cand.union(older), ["node"],
            grouped_arrow_agg(["node"],
                              [("label", "min"), ("old_label", "max")],
                              rename=["node", "label", "old_label"]),
            num_buckets=num_buckets).materialize()

        n_changed = merged.map_batches(
            lambda t: pa.table({"chg": pc.cast(pc.invert(pc.equal(
                t.column("label"), t.column("old_label"))), pa.int64())}),
            batch_format="pyarrow").sum("chg")
        if not n_changed:
            logger.debug("cc round %d: converged (%.1fs)", _rnd,
                         _time.perf_counter() - _t0)
            break

        new_labels = merged.map_batches(
            lambda t: t.select(["node", "label"]), batch_format="pyarrow")
        as_map = merged.map_batches(
            lambda t: pa.table({"label": t.column("node"),
                                "label2": t.column("label")}),
            batch_format="pyarrow")
        sc = bucketed_join(new_labels, as_map, on=["label"], how="left",
                           num_buckets=num_buckets)
        shortcut = sc.map_batches(
            lambda t: pa.table({
                "node": t.column("node"),
                "label": pc.min_element_wise(
                    t.column("label"),
                    pc.coalesce(t.column("label2"), t.column("label")))}),
            batch_format="pyarrow")

        ck = _os.path.join(work_dir, f"labels_{_rnd % 2}")
        if _os.path.exists(ck):          # write_parquet APPENDS
            _shutil.rmtree(ck)
        _os.makedirs(ck)
        shortcut.write_parquet(ck)
        # one file per upstream block → coalesce on read (same tiny-
        # block sort hazard as above)
        labels = rd.read_parquet(ck).repartition(num_buckets)
        logger.debug("cc round %d: %.1fs changed=%d", _rnd,
                     _time.perf_counter() - _t0, n_changed)

    out = labels.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "component": t.column("label")}),
        batch_format="pyarrow").materialize()
    _shutil.rmtree(work_dir, ignore_errors=True)
    return out


def _connected_components_local(edges_ds):
    """Small-graph fast path: path-compressing union-find, component
    label = lexicographically-smallest member (same label rule as the
    distributed propagation)."""
    import ray.data as rd

    from ..functions.unionfind import union_find_labels

    labels = union_find_labels(
        (a, c)
        for b in edges_ds.iter_batches(batch_format="pyarrow")
        for a, c in zip(b.column("a").to_pylist(),
                        b.column("b").to_pylist()))
    nodes = sorted(labels)
    return rd.from_arrow(pa.table({
        "node": pa.array(nodes, pa.string()),
        "component": pa.array([labels[v] for v in nodes], pa.string())}))
