"""Fuzzy-tier determinism: the blocked greedy clustering must produce
IDENTICAL links regardless of run, batch sizing, or input order — the
property SURVEY §2.6 demands ("deterministic under partitioning")."""

import pyarrow as pa


def _entities_ds(rows, batch_size):
    import ray.data as rd
    t = pa.table({
        "entity_id": pa.array([r[0] for r in rows], pa.string()),
        "name": pa.array([r[1] for r in rows], pa.string()),
        "type": pa.array([r[2] for r in rows], pa.string()),
        "conf": pa.array([r[3] for r in rows], pa.float32()),
        "mention_count": pa.array([1] * len(rows), pa.int64()),
    })
    return rd.from_arrow(t).map_batches(lambda b: b, batch_format="pyarrow",
                                        batch_size=batch_size)


ROWS = [
    ("PERSON_johnsmith", "John Smith", "PERSON", 0.9),
    ("PERSON_jonsmith", "Jon Smith", "PERSON", 0.7),
    ("PERSON_jhonsmith", "Jhon Smith", "PERSON", 0.6),
    ("PERSON_maryjones", "Mary Jones", "PERSON", 0.8),
    ("PERSON_marijones", "Mari Jones", "PERSON", 0.5),
    ("ORGANIZATION_acmeinc", "Acme Inc", "ORGANIZATION", 0.9),
    ("ORGANIZATION_acmeincx", "Acme Incx", "ORGANIZATION", 0.6),
    ("LOCATION_newyork", "New York", "LOCATION", 0.9),
    ("LOCATION_newyorkcity", "New York City", "LOCATION", 0.8),
]


def test_links_invariant_to_batching_and_order(ray_session):
    from graphrag_rs_ray.stages.linking import compute_links

    results = []
    for batch_size in (1, 3, 100):
        for rows in (ROWS, list(reversed(ROWS))):
            links = compute_links(_entities_ds(rows, batch_size))
            results.append(tuple(sorted(links.items())))
    assert len(set(results)) == 1, f"links varied: {set(results)}"
    links = dict(results[0])
    # typo variants collapse to the highest-confidence member
    assert links["PERSON_jonsmith"] == "PERSON_johnsmith"
    assert links["PERSON_jhonsmith"] == "PERSON_johnsmith"
    assert links["PERSON_marijones"] == "PERSON_maryjones"
    # no cross-type links ever
    for src, dst in links.items():
        assert src.split("_")[0] == dst.split("_")[0]


def test_embedding_scored_linking(ray_session):
    """Batched embedding refinement: links that share tokens survive
    (cosine of mean-pooled word vectors high); phonetic-only matches with
    disjoint tokens are rejected."""
    from graphrag_rs_ray.functions.similarity import LinkingConfig
    from graphrag_rs_ray.stages.linking import compute_links

    rows = ROWS + [
        ("PERSON_smith", "Smith", "PERSON", 0.9),
        ("PERSON_smyth", "Smyth", "PERSON", 0.6),   # phonetic match, no shared token
    ]
    cfg = LinkingConfig(use_phonetic=True)
    plain = compute_links(_entities_ds(rows, 50), cfg)
    refined = compute_links(_entities_ds(rows, 50), cfg, embedding_threshold=0.4)
    # string/phonetic tier links Smyth→Smith; embedding tier rejects it
    assert "PERSON_smyth" in plain
    assert "PERSON_smyth" not in refined
    # token-sharing typo variants survive refinement
    assert refined.get("PERSON_jonsmith") == "PERSON_johnsmith"
    assert refined == compute_links(_entities_ds(rows, 3), cfg, embedding_threshold=0.4)


def test_full_fuzzy_pipeline_deterministic(ray_session):
    from graphrag_rs_ray.config import KGConfig
    from graphrag_rs_ray.pipelines.kg import build_kg
    from graphrag_rs_ray.sources.pages import pages_dataset

    outs = []
    for _ in range(2):
        res = build_kg(pages_dataset(80, seed=21), KGConfig(fuzzy_linking=True))
        ents = res.entities.to_pandas().sort_values("entity_id").reset_index(drop=True)
        tris = (res.triples.to_pandas()[["subj", "pred", "obj"]]
                .sort_values(["subj", "pred", "obj"]).reset_index(drop=True))
        outs.append((ents, tris, dict(res.links)))
    assert outs[0][0].equals(outs[1][0])
    assert outs[0][1].equals(outs[1][1])
    assert outs[0][2] == outs[1][2]


def test_fuzzy_broadcast_and_bucketed_paths_equal(ray_session):
    """link_broadcast_limit=0 forces the Dataset/bucketed-join remap
    (the web-scale path); entities and triples must match the broadcast
    path exactly."""
    from graphrag_rs_ray.config import KGConfig
    from graphrag_rs_ray.pipelines.kg import build_kg
    from graphrag_rs_ray.sources.pages import pages_dataset

    def run(limit):
        res = build_kg(pages_dataset(80, seed=21),
                       KGConfig(fuzzy_linking=True,
                                link_broadcast_limit=limit))
        ents = (res.entities.to_pandas().sort_values("entity_id")
                .reset_index(drop=True))
        tris = (res.triples.to_pandas()
                .sort_values(["subj", "pred", "obj"])
                .reset_index(drop=True))
        return res, ents, tris

    fast_res, fast_e, fast_t = run(2_000_000)
    slow_res, slow_e, slow_t = run(0)
    assert fast_res.n_links > 0          # fixture must exercise linking
    assert slow_res.n_links == fast_res.n_links
    assert slow_res.links == {}          # scale path never collects
    assert fast_e.equals(slow_e)
    assert fast_t.equals(slow_t)


def test_fuzzy_build_same_at_full_exchange_fan_out(ray_session, monkeypatch):
    """The entity exchange's block count must not change the graph: a
    one-CPU sizing (one block) and a tiny target_max_block_size (the cap,
    num_shards * 4 blocks, the old fixed fan-out) give the same entities,
    links and triples."""
    from ray.data import DataContext

    from graphrag_rs_ray.config import KGConfig
    from graphrag_rs_ray.pipelines.kg import build_kg
    from graphrag_rs_ray.sources.pages import pages_dataset
    from graphrag_rs_ray.stages import hashagg

    def run(fan_out):
        # the pages dataset snapshots the DataContext it is created
        # under, so only the exchange sizing reads the patched target
        pages = pages_dataset(80, seed=21)
        with monkeypatch.context() as m:
            if fan_out:
                m.setattr(DataContext.get_current(), "target_max_block_size", 1)
            else:
                m.setattr(hashagg, "_cluster_cpus", lambda: 1)
            res = build_kg(pages, KGConfig(fuzzy_linking=True))
        ents = res.entities.materialize()
        tris = (res.triples.to_pandas().sort_values(["subj", "pred", "obj"])
                .reset_index(drop=True))
        return (ents.num_blocks(), res.links, tris,
                ents.to_pandas().sort_values("entity_id").reset_index(drop=True))

    small_blocks, small_links, small_t, small_e = run(fan_out=False)
    wide_blocks, wide_links, wide_t, wide_e = run(fan_out=True)
    assert small_blocks == 1
    assert wide_blocks == KGConfig().num_shards * 4
    assert small_links and small_links == wide_links
    assert small_e.equals(wide_e)
    assert small_t.equals(wide_t)


def _singleton_heavy_rows():
    """Typo families (multi-member blocks) among many one-off names
    (singleton blocks), like an open-vocabulary corpus."""
    import random
    rng = random.Random(7)
    rows = [(eid, name, typ, conf) for eid, name, typ, conf in ROWS]
    rows += [("PERSON_smith", "Smith", "PERSON", 0.9),
             ("PERSON_smyth", "Smyth", "PERSON", 0.6)]
    letters = "bcdfghjklmnpqrstvwxz"
    for i in range(120):
        typ = ("PERSON", "ORGANIZATION", "LOCATION")[i % 3]
        name = "".join(rng.choice(letters) + rng.choice("aeiou")
                       for _ in range(3)).title()
        rows.append((f"{typ}_{name.lower()}{i}", name, typ,
                     round(rng.random(), 3)))
    return rows


def _per_block_reference(rows, embedding_threshold=None):
    """Driver-side expectation: greedy_cluster_reference on every
    (type, soundex) block, then the optional embedding-cosine filter."""
    import numpy as np

    from graphrag_rs_ray.functions.embedding import HashEmbedder
    from graphrag_rs_ray.functions.similarity import (
        LinkingConfig, greedy_cluster_reference, soundex)

    blocks: dict = {}
    for eid, name, typ, conf in rows:
        key = f"{typ}|{soundex(name.split(' ', 1)[0])}"
        blocks.setdefault(key, []).append((eid, name, conf))
    links = {}
    name_of = {r[0]: r[1] for r in rows}
    embedder = HashEmbedder(dim=64)
    for items in blocks.values():
        for src, dst in greedy_cluster_reference(items, LinkingConfig()).items():
            if embedding_threshold is not None:
                a, b = embedder.embed_many([name_of[src], name_of[dst]])
                if float(np.dot(a, b)) < embedding_threshold:
                    continue
            links[src] = dst
    return links, blocks


def test_compute_links_ds_equals_per_block_reference(ray_session):
    """Bucketed blocking (many blocks per hash bucket, empty buckets,
    mostly singleton blocks) links exactly what the reference clusterer
    links block by block, with and without embedding refinement."""
    from graphrag_rs_ray.stages.linking import (compute_links_ds,
                                                links_ds_to_dict)

    rows = _singleton_heavy_rows()
    want, blocks = _per_block_reference(rows)
    singletons = sum(1 for items in blocks.values() if len(items) == 1)
    assert singletons > len(blocks) / 2
    assert want                            # the families do link
    for num_buckets in (3, 4 * len(blocks)):   # shared and empty buckets
        got = links_ds_to_dict(compute_links_ds(
            _entities_ds(rows, 16), num_buckets=num_buckets))
        assert got == want
    refined_want, _ = _per_block_reference(rows, embedding_threshold=0.4)
    assert refined_want != want            # the filter drops something
    refined = links_ds_to_dict(compute_links_ds(
        _entities_ds(rows, 16), embedding_threshold=0.4,
        num_buckets=4 * len(blocks)))
    assert refined == refined_want


def test_broadcast_remap_equals_dict_lookup():
    """The vectorized broadcast remap replaces exactly the linked values
    (nulls and unlinked values pass through) on multi-chunk columns."""
    from graphrag_rs_ray.stages.linking import (make_remap_entities,
                                                make_remap_triples)

    links = {"a": "A", "b": "A", "c": "C"}
    subj = [["a", "x", None], ["b", "c", "c"]]
    obj = [["z", "b", "a"], [None, "y", "a"]]
    batch = pa.table({"subj": pa.chunked_array(subj, pa.string()),
                      "pred": pa.chunked_array([["p"] * 3] * 2, pa.string()),
                      "obj": pa.chunked_array(obj, pa.string())})
    out = make_remap_triples(links)(batch)
    assert out.schema == batch.schema
    flat = [v for chunk in subj for v in chunk]
    assert out.column("subj").to_pylist() == [links.get(v, v) for v in flat]
    flat = [v for chunk in obj for v in chunk]
    assert out.column("obj").to_pylist() == [links.get(v, v) for v in flat]
    assert out.column("pred").equals(batch.column("pred"))
    assert make_remap_triples({})(batch) is batch

    ents = pa.table({"entity_id": pa.array(["c", "q", "a"], pa.string()),
                     "name": pa.array(["n1", "n2", "n3"], pa.string())})
    out = make_remap_entities(links)(ents)
    assert out.column("entity_id").to_pylist() == ["C", "q", "A"]
    assert out.column("name").equals(ents.column("name"))
