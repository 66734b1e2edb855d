"""Versioned graph store: transactions, rollback, time travel, and the
consistency report.

Reference surface: ``graphrag-core/src/graph/incremental.rs`` —
``begin_transaction / commit_transaction / rollback_transaction``
(:2292-2368), ``rollback_delta`` (:2266), ``validate_consistency``
(:2496-2539, the ConsistencyReport struct :439-452).  The reference keeps
the graph in RAM and its transaction rollback is a recorded-but-empty
loop; at 100-TB scale the graph lives in Parquet shards, so this module
implements the same API as *versioned manifests over immutable Parquet
deltas* instead:

- a transaction stages new entity/triple delta directories under
  ``tx_<id>/`` (nothing visible to readers),
- ``commit`` atomically writes ``v<N>.json`` listing the delta dirs of
  every live version (os.replace of a temp file = the commit point),
- ``rollback`` (abort) deletes the staging dirs,
- ``rollback_to(v)`` is NON-destructive: it writes a new version whose
  delta list equals v's — history is append-only lineage, any prior
  version remains checkout-able (time travel), matching the
  manifests-as-resume-state design of the KG sink (``pipelines/kg.py``),
- ``read(version)`` merges the delta chain lazily with the same
  merge semantics as ``pipelines/graph_ops.merge_entity_tables`` /
  ``merge_triple_tables`` — a streaming union + hash-bucketed dedup, so
  reading N deltas is one shuffle, never a driver materialization.

The consistency report mirrors ``validate_consistency``: orphaned
entities (no relationship touches them), broken relationships (an
endpoint name resolves to no entity row), entities missing embeddings;
``issues_found`` is their sum.  All three checks are anti-joins done with
broadcast key sets when the entity table is small and ``bucketed_join``
otherwise — never a Python loop over rows.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid

import pyarrow as pa
import pyarrow.compute as pc


class TransactionError(RuntimeError):
    pass


class Transaction:
    """Staged writes for one transaction; visible only after commit()."""

    def __init__(self, store: "VersionedGraphStore", tx_id: str):
        self.store = store
        self.tx_id = tx_id
        self.status = "active"            # active | committed | aborted
        self._deltas: list[dict] = []     # {"kind": ..., "dir": ...}

    def _stage_dir(self, kind: str) -> str:
        d = os.path.join(self.store.root, f"tx_{self.tx_id}",
                         f"{kind}_{len(self._deltas)}")
        os.makedirs(d, exist_ok=True)
        return d

    def _check_active(self):
        if self.status != "active":
            raise TransactionError(f"transaction {self.tx_id} is {self.status}")

    def write_entities(self, ds) -> "Transaction":
        self._check_active()
        d = self._stage_dir("entities")
        ds.write_parquet(d)
        self._deltas.append({"kind": "entities", "dir": d})
        return self

    def write_triples(self, ds) -> "Transaction":
        self._check_active()
        d = self._stage_dir("triples")
        ds.write_parquet(d)
        self._deltas.append({"kind": "triples", "dir": d})
        return self

    def commit(self) -> int:
        """Atomically publish the staged deltas as a new version; returns
        the new version number (``commit_transaction``,
        ``incremental.rs:2319-2341``)."""
        self._check_active()
        v = self.store._publish(self._deltas, op="commit", tx_id=self.tx_id)
        self.status = "committed"
        return v

    def rollback(self) -> None:
        """Abort: discard staged deltas (``rollback_transaction``,
        ``incremental.rs:2343-2368`` — there it marks Aborted; here the
        staged files are actually removed)."""
        self._check_active()
        shutil.rmtree(os.path.join(self.store.root, f"tx_{self.tx_id}"),
                      ignore_errors=True)
        self._deltas.clear()
        self.status = "aborted"


class VersionedGraphStore:
    """Append-only versioned (entities, triples) store under ``root``."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    # ---- version bookkeeping -------------------------------------------

    def versions(self) -> list[int]:
        out = []
        for f in os.listdir(self.root):
            if f.startswith("v") and f.endswith(".json"):
                try:
                    out.append(int(f[1:-5]))
                except ValueError:
                    pass
        return sorted(out)

    def current_version(self) -> int | None:
        vs = self.versions()
        return vs[-1] if vs else None

    def _manifest_path(self, v: int) -> str:
        return os.path.join(self.root, f"v{v}.json")

    def _load_manifest(self, v: int) -> dict:
        p = self._manifest_path(v)
        if not os.path.exists(p):
            raise TransactionError(f"version {v} does not exist")
        with open(p) as f:
            return json.load(f)

    def _publish(self, new_deltas: list[dict], op: str,
                 tx_id: str | None = None,
                 base_version: int | None = None) -> int:
        cur = self.current_version()
        base = cur if base_version is None else base_version
        prior = self._load_manifest(base)["deltas"] if base is not None else []
        v = (cur + 1) if cur is not None else 0
        manifest = {
            "version": v,
            "op": op,
            "tx_id": tx_id,
            "base_version": base,
            "created_at": time.time(),
            "deltas": prior + new_deltas,
        }
        tmp = self._manifest_path(v) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(tmp, self._manifest_path(v))      # the commit point
        return v

    # ---- transaction API ------------------------------------------------

    def begin(self) -> Transaction:
        """``begin_transaction`` (``incremental.rs:2292-2317``)."""
        return Transaction(self, uuid.uuid4().hex[:12])

    def rollback_to(self, version: int) -> int:
        """Non-destructive rollback: new version with ``version``'s delta
        list (``rollback_delta``, ``incremental.rs:2266``; lineage kept)."""
        target = self._load_manifest(version)
        cur = self.current_version()
        v = (cur + 1) if cur is not None else 0
        manifest = {
            "version": v,
            "op": "rollback_to",
            "tx_id": None,
            "base_version": version,
            "created_at": time.time(),
            "deltas": target["deltas"],
        }
        tmp = self._manifest_path(v) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(tmp, self._manifest_path(v))
        return v

    def history(self) -> list[dict]:
        return [{k: m[k] for k in ("version", "op", "tx_id", "base_version")}
                for m in (self._load_manifest(v) for v in self.versions())]

    # ---- reading --------------------------------------------------------

    def _read_kind(self, kind: str, version: int | None):
        import ray.data as rd
        v = self.current_version() if version is None else version
        if v is None:
            raise TransactionError("store has no committed version")
        dirs = [d["dir"] for d in self._load_manifest(v)["deltas"]
                if d["kind"] == kind]
        if not dirs:
            return None
        ds = rd.read_parquet(dirs[0])
        for d in dirs[1:]:
            ds = ds.union(rd.read_parquet(d))
        return ds

    def read(self, version: int | None = None):
        """(entities_ds, triples_ds) as of ``version`` (default: latest),
        delta chain merged with the standard conflict semantics."""
        from ..pipelines.graph_ops import merge_entity_tables, merge_triple_tables

        ent = self._read_kind("entities", version)
        tri = self._read_kind("triples", version)
        # the union carries duplicate keys across deltas; one bucketed
        # merge collapses them (same one-shuffle cost as a single delta)
        if ent is not None:
            ent = merge_entity_tables(ent, ent.limit(0))
        if tri is not None:
            tri = merge_triple_tables(tri, tri.limit(0))
        return ent, tri


# ---- consistency report -------------------------------------------------

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
