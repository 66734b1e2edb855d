"""The graph consistency report.

Reference surface: ``graphrag-core/src/graph/incremental.rs`` —
``validate_consistency`` (:2496-2539, the ConsistencyReport struct
:439-452): orphaned entities (no relationship touches them), broken
relationships (an endpoint name resolves to no entity row), entities
missing embeddings; ``issues_found`` is their sum.  The first two are
membership filters (``stages/hashagg.semi_filter``) — never a Python
loop over rows.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def consistency_report(entities_ds, triples_ds):
    """Single-row ConsistencyReport (``incremental.rs:439-452,2496-2539``):

      n_entities, n_triples,
      n_orphaned        — entities no relationship touches,
      n_broken          — triples with an endpoint not in the entity set,
      n_missing_embeddings — entity rows whose ``embedding`` is null
                             (0 if the column doesn't exist),
      issues_found      = sum of the three,
      is_consistent     = (issues_found == 0) as int64.

    ``n_broken`` is ``n_triples`` less the triples whose subject and
    object both pass a semi filter on the entity names; ``n_orphaned``
    counts the entities an anti filter on the endpoint names keeps.
    Each filter broadcasts its key set below
    ``hashagg.BROADCAST_KEY_BYTES`` and runs a bucketed exchange above.
    """
    from ..stages.hashagg import semi_filter

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

    names = ent.select_columns(["name"])
    # materialized before the second filter reads it: the sharded path
    # probes its input's schema, which on a lazy exchange output is a
    # limit-1 execution back through the sort (a test once stalled 30+
    # min inside such a probe)
    subj_ok = semi_filter(tri, names, "subj").materialize()
    n_broken = n_triples - semi_filter(subj_ok, names, "obj").count()
    endpoints = tri.map_batches(lambda t: pa.table({"name": pa.concat_arrays(
        [t.column("subj").combine_chunks(),
         t.column("obj").combine_chunks()])}), batch_format="pyarrow")
    n_orphaned = semi_filter(ent, endpoints, "name", anti=True).count()

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
