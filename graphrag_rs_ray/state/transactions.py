"""The graph consistency report.

Reference surface: ``graphrag-core/src/graph/incremental.rs`` —
``validate_consistency`` (:2496-2539, the ConsistencyReport struct
:439-452): orphaned entities (no relationship touches them), broken
relationships (an endpoint name resolves to no entity row), entities
missing embeddings; ``issues_found`` is their sum.  All three checks are
anti-joins done with broadcast key sets when the entity table is small
and ``bucketed_join`` otherwise — never a Python loop over rows.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def consistency_report(entities_ds, triples_ds,
                       broadcast_limit: int = 2_000_000):
    """Single-row ConsistencyReport (``incremental.rs:439-452,2496-2539``):

      n_entities, n_triples,
      n_orphaned        — entities no relationship touches,
      n_broken          — triples with an endpoint not in the entity set,
      n_missing_embeddings — entity rows whose ``embedding`` is null
                             (0 if the column doesn't exist),
      issues_found      = sum of the three,
      is_consistent     = (issues_found == 0) as int64.

    Membership checks are vectorized ``pc.is_in`` against a broadcast key
    set when the entity table is small (the common case: entities ≪
    triples); for web-scale entity tables the same anti-join runs through
    ``stages/hashagg.bucketed_join`` — flip with ``broadcast_limit``.
    """
    import ray

    ent = entities_ds.materialize()
    tri = triples_ds.materialize()
    n_entities = ent.count()
    n_triples = tri.count()

    has_embedding = "embedding" in ent.schema().names
    if has_embedding:
        def miss(t: pa.Table) -> pa.Table:
            return pa.table({"m": pc.cast(pc.is_null(t.column("embedding")),
                                          pa.int64())})
        n_missing = ent.map_batches(miss, batch_format="pyarrow").sum("m") or 0
    else:
        n_missing = 0

    if n_entities <= broadcast_limit:
        names_ref = ray.put(pa.concat_tables(
            [b.select(["name"]) for b in
             ent.map_batches(lambda t: t.select(["name"]),
                             batch_format="pyarrow").iter_batches(
                                 batch_format="pyarrow")]
        ).column("name").combine_chunks())

        def broken(t: pa.Table) -> pa.Table:
            names = ray.get(names_ref)
            ok = pc.and_(pc.is_in(t.column("subj"), value_set=names),
                         pc.is_in(t.column("obj"), value_set=names))
            return pa.table({"b": pc.cast(pc.invert(ok), pa.int64())})

        n_broken = tri.map_batches(broken, batch_format="pyarrow").sum("b") or 0

        # endpoint name set (small by the same assumption once deduped
        # per block; full distinct happens driver-side over block partials)
        parts = tri.map_batches(
            lambda t: pa.table({"name": pc.unique(pa.concat_arrays(
                [t.column("subj").combine_chunks(),
                 t.column("obj").combine_chunks()]))}),
            batch_format="pyarrow")
        ep = set()
        for b in parts.iter_batches(batch_format="pyarrow"):
            ep.update(b.column("name").to_pylist())
        ep_ref = ray.put(pa.array(sorted(ep), pa.string()))

        def orph(t: pa.Table) -> pa.Table:
            eps = ray.get(ep_ref)
            return pa.table({"o": pc.cast(pc.invert(
                pc.is_in(t.column("name"), value_set=eps)), pa.int64())})

        n_orphaned = ent.map_batches(orph, batch_format="pyarrow").sum("o") or 0
    else:
        from ..stages.hashagg import bucketed_join, grouped_arrow_agg, \
            hash_grouped_aggregate

        # every shuffle output below is MATERIALIZED before a join reads
        # it: ent_names feeds two joins (a diamond), and bucketed_join
        # reads both input schemas, which on a lazy shuffle output is a
        # limit-1 execution back through every upstream sort (a test run
        # once stalled for 30+ min inside such a probe of ``sj``)
        ent_names = hash_grouped_aggregate(
            ent.map_batches(lambda t: t.select(["name"]),
                            batch_format="pyarrow"),
            ["name"], grouped_arrow_agg(["name"], [("name", "count")],
                                        rename=["name", "_n"])).materialize()
        # broken: left-join both endpoints against the entity name set
        sj = bucketed_join(
            tri.map_batches(lambda t: pa.table(
                {"name": t.column("subj"), "oname": t.column("obj")}),
                batch_format="pyarrow"),
            ent_names, on=["name"], how="left").materialize()
        sj2 = bucketed_join(
            sj.map_batches(lambda t: pa.table(
                {"name": t.column("oname"),
                 "s_ok": pc.cast(pc.is_valid(t.column("_n")), pa.int64())}),
                batch_format="pyarrow"),
            ent_names, on=["name"], how="left")
        n_broken = sj2.map_batches(
            lambda t: pa.table({"b": pc.cast(pc.or_(
                pc.equal(t.column("s_ok"), 0),
                pc.is_null(t.column("_n"))), pa.int64())}),
            batch_format="pyarrow").sum("b") or 0

        ep_names = hash_grouped_aggregate(
            tri.map_batches(lambda t: pa.table({"name": pa.concat_arrays(
                [t.column("subj").combine_chunks(),
                 t.column("obj").combine_chunks()])}),
                batch_format="pyarrow"),
            ["name"], grouped_arrow_agg(["name"], [("name", "count")],
                                        rename=["name", "_t"])).materialize()
        oj = bucketed_join(ent.map_batches(
            lambda t: t.select(["name"]), batch_format="pyarrow"),
            ep_names, on=["name"], how="left")
        n_orphaned = oj.map_batches(
            lambda t: pa.table({"o": pc.cast(pc.is_null(t.column("_t")),
                                             pa.int64())}),
            batch_format="pyarrow").sum("o") or 0

    issues = int(n_orphaned) + int(n_broken) + int(n_missing)
    return pa.table({
        "n_entities": pa.array([n_entities], pa.int64()),
        "n_triples": pa.array([n_triples], pa.int64()),
        "n_orphaned": pa.array([int(n_orphaned)], pa.int64()),
        "n_broken": pa.array([int(n_broken)], pa.int64()),
        "n_missing_embeddings": pa.array([int(n_missing)], pa.int64()),
        "issues_found": pa.array([issues], pa.int64()),
        "is_consistent": pa.array([1 if issues == 0 else 0], pa.int64()),
    })
