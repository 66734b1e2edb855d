"""hash_grouped_aggregate correctness (vs pandas ground truth) and
hub-skew behavior of the two-phase triple dedup."""

import numpy as np
import pandas as pd
import pyarrow as pa


def test_hash_agg_matches_pandas(ray_session):
    import ray.data as rd
    from graphrag_rs_ray.stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    rng = np.random.default_rng(0)
    n = 20000
    df = pd.DataFrame({
        "k": [f"key{i}" for i in rng.integers(0, 3000, n)],
        "v": rng.integers(0, 100, n),
    })
    ds = rd.from_pandas(df).map_batches(lambda t: t, batch_format="pyarrow",
                                        batch_size=1000)
    out = hash_grouped_aggregate(
        ds, ["k"],
        grouped_arrow_agg(["k"], [("v", "sum"), ("v", "count"), ("v", "max")],
                          rename=["k", "v_sum", "v_count", "v_max"]),
        num_buckets=16).to_pandas().sort_values("k").reset_index(drop=True)
    truth = (df.groupby("k", as_index=False)
               .agg(v_sum=("v", "sum"), v_count=("v", "count"), v_max=("v", "max"))
               .sort_values("k").reset_index(drop=True))
    assert len(out) == len(truth)
    assert (out["k"].to_numpy() == truth["k"].to_numpy()).all()
    assert (out["v_sum"].to_numpy() == truth["v_sum"].to_numpy()).all()
    assert (out["v_count"].to_numpy() == truth["v_count"].to_numpy()).all()
    assert (out["v_max"].to_numpy() == truth["v_max"].to_numpy()).all()


def test_hash_agg_output_schemas_hash(ray_session):
    """``pa.Table.from_pandas`` puts a metadata dict on the schema, which
    makes ``hash(schema)`` raise; Ray's ``unify_schemas`` hashes the
    schemas of every exchange and logs a warning per reduce when that
    fails.  The exchange and its output carry no schema metadata, even
    when the input blocks and ``per_bucket_fn`` come from pandas."""
    import ray
    import ray.data as rd
    from graphrag_rs_ray.stages.hashagg import hash_grouped_aggregate

    blocks = [pa.Table.from_pandas(pd.DataFrame(
        {"k": [f"key{(i * 7 + j) % 13}" for j in range(50)],
         "v": list(range(50))})) for i in range(4)]
    assert all(t.schema.metadata for t in blocks)

    def per_bucket(t: pa.Table) -> pa.Table:
        hash(t.schema)              # the exchanged blocks
        df = t.to_pandas().groupby("k", as_index=False)["v"].sum()
        return pa.Table.from_pandas(df, preserve_index=False)

    out = hash_grouped_aggregate(rd.from_arrow(blocks), ["k"], per_bucket,
                                 num_buckets=4)
    tables = ray.get(out.to_arrow_refs())
    for t in tables:
        hash(t.schema)
    got = pa.concat_tables([t for t in tables if t.num_rows]).to_pandas()
    assert dict(zip(got["k"], got["v"])) == (
        pa.concat_tables(blocks).to_pandas().groupby("k")["v"].sum().to_dict())


def test_partial_agg_collapses_hub_keys(ray_session):
    """The per-block combiner must emit ONE row per (s,p,o) per block —
    the skew story: a hub triple crossing the shuffle once per block, not
    once per occurrence."""
    import ray.data as rd
    from graphrag_rs_ray.stages.canonicalize import partial_triple_agg

    n = 5000
    t = pa.table({
        "chunk_id": [f"c{i}" for i in range(n)],
        "doc_id": [f"d{i}" for i in range(n)],
        "subj": ["PERSON_hub"] * n,              # one massive hot key
        "pred": ["WORKS_FOR"] * n,
        "obj": ["ORGANIZATION_megacorp"] * n,
        "conf": pa.array([0.8] * n, pa.float32()),
    })
    out = partial_triple_agg(t)
    assert out.num_rows == 1
    assert out.column("n_contexts")[0].as_py() == n


def test_dedup_triples_hub_correctness(ray_session):
    import ray.data as rd
    from graphrag_rs_ray.config import KGConfig
    from graphrag_rs_ray.pipelines.kg import dedup_triples

    n = 20000
    rows = {
        "chunk_id": [f"c{i}" for i in range(n)],
        "doc_id": [f"d{i}" for i in range(n)],
        "subj": ["PERSON_hub" if i % 2 == 0 else f"PERSON_p{i % 50}" for i in range(n)],
        "pred": ["KNOWS"] * n,
        "obj": ["PERSON_other"] * n,
        "conf": pa.array([0.8] * n, pa.float32()),
    }
    ds = rd.from_arrow(pa.table(rows)).map_batches(
        lambda t: t, batch_format="pyarrow", batch_size=1000)
    out = dedup_triples(ds, KGConfig()).to_pandas()
    assert len(out) == 26                        # hub + 25 odd-residue tail keys
    hub = out[out["subj"] == "PERSON_hub"].iloc[0]
    assert hub["n_contexts"] == n // 2
    assert hub["context_sample"] == "c0"         # deterministic min
