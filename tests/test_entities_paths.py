"""Lazy entities path ≡ build_kg entities; reference-schema adapter."""


def test_entities_dataset_matches_build_kg(ray_session):
    from graphrag_rs_ray.config import KGConfig
    from graphrag_rs_ray.pipelines.kg import build_kg, entities_dataset
    from graphrag_rs_ray.sources.pages import pages_dataset

    cfg = KGConfig()
    lazy = (entities_dataset(pages_dataset(60, seed=13), cfg).to_pandas()
            .sort_values("entity_id").reset_index(drop=True))
    full = (build_kg(pages_dataset(60, seed=13), cfg).entities.to_pandas()
            .sort_values("entity_id").reset_index(drop=True))
    assert lazy.equals(full)


def test_exchange_blocks_sizes_from_metadata(ray_session, monkeypatch):
    """One block per target_max_block_size of a known size, at least one
    per cluster CPU, clamped to [1, cap]; a lazy plan's size is unknown,
    so it gets the cap without running anything."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data import DataContext

    from graphrag_rs_ray.stages import hashagg
    from graphrag_rs_ray.stages.hashagg import exchange_blocks

    small = rd.from_arrow(pa.table({"x": list(range(1000))})).materialize()
    cpus = hashagg._cluster_cpus()
    assert exchange_blocks(small, 64) == min(cpus, 64)
    assert exchange_blocks(small, 1) == 1
    with monkeypatch.context() as m:
        m.setattr(hashagg, "_cluster_cpus", lambda: 1)
        assert exchange_blocks(small, 16) == 1
        assert exchange_blocks(rd.from_items([]).materialize(), 16) == 1
    with monkeypatch.context() as m:
        m.setattr(hashagg, "_cluster_cpus", lambda: 32)
        assert exchange_blocks(small, 16) == 16

    def boom(batch):
        raise RuntimeError("exchange_blocks executed the plan")

    lazy = rd.range(100).map_batches(boom, batch_format="pyarrow")
    assert exchange_blocks(lazy, 16) == 16

    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", 1)
    monkeypatch.setattr(hashagg, "_cluster_cpus", lambda: 1)
    assert exchange_blocks(small, 16) == 16
    assert exchange_blocks(small, 7) == 7


def test_small_build_entities_one_block_per_cpu(ray_session):
    """A 60-page build (~250 entities) is far below one target block, so
    the entity exchange gets one block per cluster CPU, not
    num_shards * 4 blocks."""
    from graphrag_rs_ray.config import KGConfig
    from graphrag_rs_ray.pipelines.kg import build_kg
    from graphrag_rs_ray.sources.pages import pages_dataset
    from graphrag_rs_ray.stages.hashagg import _cluster_cpus

    cfg = KGConfig()
    res = build_kg(pages_dataset(60, seed=13), cfg)
    assert cfg.num_shards * 4 == 64 > _cluster_cpus()
    assert res.entities.materialize().num_blocks() == _cluster_cpus()


def test_exact_entities_skips_a_noop_repartition(ray_session, tmp_path,
                                                 monkeypatch):
    """On one CPU the exchange wants one block; a 1-block materialized
    ``combined`` and a 1-file staged one already plan that many, so the
    exact-entities plan has no ``Repartition*`` operator.  On four CPUs
    the same input is still split to one block per CPU.  The entity
    table is the same either way."""
    import pyarrow.parquet as pq
    import ray
    from graphrag_rs_ray.config import KGConfig
    from graphrag_rs_ray.pipelines.kg import (chunks_to_combined,
                                              exact_entities,
                                              pages_to_chunks)
    from graphrag_rs_ray.sources.pages import pages_dataset
    from graphrag_rs_ray.stages import hashagg
    from graphrag_rs_ray.stages.disk_exchange import read_staged

    def op_names(ds):
        names, ops = [], [ds._logical_plan.dag]
        while ops:
            op = ops.pop()
            names.append(op.name)
            ops.extend(op.input_dependencies)
        return names

    def rows(ds):
        return sorted(tuple(r.values()) for r in ds.take_all())

    cfg = KGConfig()
    combined = chunks_to_combined(pages_to_chunks(pages_dataset(60, seed=13),
                                                  cfg), cfg).materialize()
    assert combined.num_blocks() == 1
    pq.write_table(ray.get(combined.to_arrow_refs())[0],
                   str(tmp_path / "part-0.parquet"))
    staged = read_staged(str(tmp_path))
    monkeypatch.setattr(hashagg, "_cluster_cpus", lambda: 4)
    want = rows(exact_entities(combined, cfg))
    assert any(n.startswith("Repartition")
               for n in op_names(exact_entities(combined, cfg)))
    monkeypatch.setattr(hashagg, "_cluster_cpus", lambda: 1)
    for ds in (combined, staged):
        out = exact_entities(ds, cfg)
        assert not any(n.startswith("Repartition") for n in op_names(out))
        assert rows(out) == want


def _fold_entity_merge(t):
    """Plain-Python per-id fold of partial entity rows: summed counts per
    name, canonical name by ``select_canonical_name``, max conf, summed
    mentions."""
    from graphrag_rs_ray.functions.similarity import select_canonical_name

    acc: dict = {}
    for r in t.to_pylist():
        e = acc.setdefault(r["entity_id"], {"names": {}, "type": r["type"],
                                            "conf": r["conf"], "m": 0})
        e["names"][r["name"]] = e["names"].get(r["name"], 0) + r["name_count"]
        e["conf"] = max(e["conf"], r["conf"])
        e["m"] += r["mention_count"]
    return [{"entity_id": eid, "name": select_canonical_name(e["names"]),
             "type": e["type"], "conf": e["conf"], "mention_count": e["m"]}
            for eid, e in sorted(acc.items())]


def test_entity_bucket_merge_equals_python_fold():
    """The Arrow bucket merge equals a per-id Python fold on random
    buckets with count and length ties, multi-byte names (length counts
    code points, not UTF-8 bytes) and several names per id."""
    import random

    import pyarrow as pa

    from graphrag_rs_ray.stages.canonicalize import entity_bucket_merge

    # "Ébc" is 3 code points / 4 bytes, "Abcd" 4 / 4: ranking by bytes
    # would tie them; "東京" (2 / 6) loses to "Tokyo" on length
    names = ["Ébc", "Abcd", "Abc", "Abd", "東京", "Tokyo", "Zoë", "Zoe",
             "ab", "ba"]
    rng = random.Random(11)
    for trial in range(150):
        rows = []
        for _ in range(rng.randrange(1, 60)):
            typ = rng.choice(["ORG", "PERSON"])
            rows.append({"entity_id": f"{typ}_{rng.randrange(6)}",
                         "name": rng.choice(names), "type": typ,
                         "conf": rng.random(),
                         "mention_count": rng.randrange(1, 4),
                         "name_count": rng.randrange(1, 3)})
        t = pa.Table.from_pylist(rows, schema=pa.schema([
            ("entity_id", pa.string()), ("name", pa.string()),
            ("type", pa.string()), ("conf", pa.float32()),
            ("mention_count", pa.int64()), ("name_count", pa.int64())]))
        got = entity_bucket_merge(t)
        assert got.schema == pa.schema([
            ("entity_id", pa.string()), ("name", pa.string()),
            ("type", pa.string()), ("conf", pa.float32()),
            ("mention_count", pa.int64())])
        assert got.to_pylist() == _fold_entity_merge(t), trial

    # code points, not bytes: "Ébc" (4 bytes) and "Abcd" tie on count;
    # the longer in code points wins
    t = pa.table({"entity_id": ["X_1"] * 2, "name": ["Ébc", "Abcd"],
                  "type": ["X"] * 2,
                  "conf": pa.array([0.5, 0.25], pa.float32()),
                  "mention_count": [1, 2], "name_count": [1, 1]})
    assert entity_bucket_merge(t).to_pylist() == [{
        "entity_id": "X_1", "name": "Abcd", "type": "X", "conf": 0.5,
        "mention_count": 3}]
