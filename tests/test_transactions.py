"""The graph consistency report (``graph/incremental.rs:2496-2539``)
and the delta merge of entity and triple tables
(``graph/incremental.rs:242-257,750-771``)."""

import pyarrow as pa
import pytest


def _ents(rows):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "entity_id": pa.array([r[0] for r in rows], pa.string()),
        "name": pa.array([r[1] for r in rows], pa.string()),
        "type": pa.array([r[2] for r in rows], pa.string()),
        "conf": pa.array([r[3] for r in rows], pa.float32()),
        "mention_count": pa.array([r[4] for r in rows], pa.int64()),
    }))


def _tris(rows):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "subj": pa.array([r[0] for r in rows], pa.string()),
        "pred": pa.array([r[1] for r in rows], pa.string()),
        "obj": pa.array([r[2] for r in rows], pa.string()),
        "conf": pa.array([r[3] for r in rows], pa.float32()),
        "n_contexts": pa.array([r[4] for r in rows], pa.int64()),
        "context_sample": pa.array([r[5] for r in rows], pa.string()),
    }))


E0 = [("e1", "Alice Smith", "person", 0.9, 3),
      ("e2", "Acme Corp", "organization", 0.8, 2)]
T0 = [("Alice Smith", "works_for", "Acme Corp", 0.9, 2, "c1")]


def test_delta_merge_semantics(ray_session):
    from graphrag_rs_ray.pipelines.graph_ops import (merge_entity_tables,
                                                     merge_triple_tables)
    # delta: e1 again with higher conf (name wins), plus a new entity+triple
    ent = merge_entity_tables(_ents(E0), _ents(
        [("e1", "Alice J. Smith", "person", 0.95, 2),
         ("e3", "Bob", "person", 0.7, 1)]))
    tri = merge_triple_tables(_tris(T0), _tris(
        [("Alice Smith", "works_for", "Acme Corp", 0.95, 1, "c0"),
         ("Bob", "knows", "Alice Smith", 0.7, 1, "c2")]))
    edf = ent.to_pandas().set_index("entity_id")
    assert len(edf) == 3
    assert edf.loc["e1", "name"] == "Alice J. Smith"      # higher conf wins
    assert edf.loc["e1", "mention_count"] == 5            # counts sum
    tdf = tri.to_pandas().set_index(["subj", "pred", "obj"])
    assert len(tdf) == 2
    row = tdf.loc[("Alice Smith", "works_for", "Acme Corp")]
    assert row["n_contexts"] == 3                         # 2 + 1
    assert abs(row["conf"] - 0.95) < 1e-6                 # max conf
    assert row["context_sample"] == "c0"                  # min sample


CE = [("e1", "A", "person", 0.9, 1), ("e2", "B", "person", 0.9, 1),
      ("e3", "C", "person", 0.9, 1)]
CT = [("A", "knows", "B", 0.9, 1, "c"),
      ("B", "knows", "D", 0.9, 1, "c")]     # D: broken endpoint


def _with_emb(ds, null_names):
    def add(t: pa.Table) -> pa.Table:
        emb = [None if n in null_names else [1.0, 0.0]
               for n in t.column("name").to_pylist()]
        return t.append_column("embedding", pa.array(emb, pa.list_(pa.float64())))
    return ds.map_batches(add, batch_format="pyarrow")


@pytest.mark.parametrize("budget", [2_000_000, 0])
def test_consistency_report_counts(ray_session, tmp_path, monkeypatch,
                                   budget):
    """Both filter paths: a 2 MB key budget broadcasts, 0 shards."""
    from graphrag_rs_ray.stages import hashagg
    from graphrag_rs_ray.state.transactions import consistency_report
    monkeypatch.setattr(hashagg, "BROADCAST_KEY_BYTES", budget)
    rep = consistency_report(_with_emb(_ents(CE), {"C"}),
                             _tris(CT)).to_pandas()
    r = rep.iloc[0]
    assert r["n_entities"] == 3 and r["n_triples"] == 2
    assert r["n_orphaned"] == 1          # C touches no relationship
    assert r["n_broken"] == 1            # B -> D
    assert r["n_missing_embeddings"] == 1
    assert r["issues_found"] == 3 and r["is_consistent"] == 0


def test_consistency_report_clean_graph(ray_session, tmp_path):
    from graphrag_rs_ray.state.transactions import consistency_report
    rep = consistency_report(
        _with_emb(_ents(CE[:2]), set()),
        _tris([("A", "knows", "B", 0.9, 1, "c")])).to_pandas()
    r = rep.iloc[0]
    assert r["issues_found"] == 0 and r["is_consistent"] == 1
