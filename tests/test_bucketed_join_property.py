"""Property test: bucketed_join ≡ pandas merge on randomized inputs
(missing keys, duplicate keys, skewed keys)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bucketed_join_matches_pandas(ray_session, seed):
    import ray.data as rd
    from graphrag_rs_ray.stages.hashagg import bucketed_join

    rng = np.random.default_rng(seed)
    n_l, n_r = 4000, 1500
    left = pd.DataFrame({
        "k": rng.integers(0, 800, n_l),             # dup + missing keys
        "lv": rng.integers(0, 1000, n_l),
    })
    # skew: 25% of left rows share one hot key
    left.loc[: n_l // 4, "k"] = 7
    right = pd.DataFrame({
        "k": rng.integers(0, 1000, n_r),
        "rv": rng.integers(0, 1000, n_r),
    })

    lds = rd.from_pandas(left).map_batches(lambda t: t, batch_format="pyarrow",
                                           batch_size=500)
    rds = rd.from_pandas(right).map_batches(lambda t: t, batch_format="pyarrow",
                                            batch_size=300)
    got = (bucketed_join(lds, rds, on=["k"], num_buckets=16)
           .to_pandas().sort_values(["k", "lv", "rv"]).reset_index(drop=True))
    want = (left.merge(right, on="k", how="inner")
            .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
    assert len(got) == len(want)
    for c in ("k", "lv", "rv"):
        assert (got[c].to_numpy() == want[c].to_numpy()).all()


def test_bucketed_join_rejects_ambiguous_columns(ray_session):
    import ray.data as rd
    from graphrag_rs_ray.stages.hashagg import bucketed_join
    a = rd.from_pandas(pd.DataFrame({"k": [1], "v": [2]}))
    b = rd.from_pandas(pd.DataFrame({"k": [1], "v": [3]}))
    with pytest.raises(ValueError, match="disjoint"):
        bucketed_join(a, b, on=["k"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_semi_filter_matches_pandas_isin(ray_session, monkeypatch, seed):
    """Both paths of ``semi_filter`` keep exactly pandas' ``isin`` rows
    (``~isin`` for ``anti``), nulls included (a null key matches a null),
    over duplicate keys, an empty key set and an empty input."""
    import ray.data as rd
    from graphrag_rs_ray.stages import hashagg

    rng = np.random.default_rng(seed)
    n_l, n_r = 4000, 1500
    # nulls in some blocks only: a block with a null must bucket its
    # other keys as a null-free block does
    k = pa.array(rng.integers(0, 800, n_l), pa.int64(),
                 mask=(rng.random(n_l) < 0.05) & (np.arange(n_l) < n_l // 2))
    left = pa.table({"k": k, "rid": pa.array(np.arange(n_l), pa.int64())})
    keys = pa.table({"key": pa.array(rng.integers(0, 1000, n_r), pa.int64(),
                                     mask=(rng.random(n_r) < 0.02)
                                     & (np.arange(n_r) < 300))})

    def ds(t: pa.Table, rows: int):      # one block per ``rows`` rows
        return rd.from_arrow([t.slice(i, rows)
                              for i in range(0, max(len(t), 1), rows)])

    cases = [(left, keys), (left, keys.slice(0, 0)), (left.slice(0, 0), keys)]
    for budget in (hashagg.BROADCAST_KEY_BYTES, 0):
        monkeypatch.setattr(hashagg, "BROADCAST_KEY_BYTES", budget)
        for lt, kt in cases:
            # float64 isin matches NaN to NaN: pandas' null-matches-null
            isin = (lt.column("k").to_pandas().astype("float64")
                    .isin(kt.column("key").to_pandas().astype("float64")))
            rid = lt.column("rid").to_numpy()
            for anti in (False, True):
                got = hashagg.semi_filter(ds(lt, 500), ds(kt, 300), "k",
                                          anti=anti).to_pandas()
                want = rid[~isin.to_numpy() if anti else isin.to_numpy()]
                assert sorted(got.get("rid", [])) == sorted(want), (budget, anti, len(lt), len(kt))
