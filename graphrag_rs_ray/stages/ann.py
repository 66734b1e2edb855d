"""Random-hyperplane LSH candidate generation — the bucketed scale path
for cosine similarity ops (semantic edges, embedding near-dup, ANN).

Charikar SimHash-LSH (STOC'02): sign patterns of ``band_bits`` random
hyperplanes form one bucket id per band; two vectors with cosine angle θ
collide in one band with p = (1 - θ/π)^band_bits, and in ≥1 of
``n_bands`` bands with 1 - (1 - p)^n_bands.  Defaults are tuned for the
near-dup regime (sim ≥ 0.8 ⇒ per-plane p ≈ 0.795):

    band_bits=4, n_bands=32  ⇒  recall ≈ 1 - (1 - 0.795⁴)^32 ≈ 1 - 6e-8

Pipeline shape (no driver materialization, no full-matrix broadcast):

    map_batches: band rows (band, bucket, id, embedding)   # bands × rows
    hash-bucketed group by (band, bucket)                  # shuffle
    per bucket: exact pairwise cosine on members ≥ threshold
    hash-bucketed dedup of (id_a, id_b) across bands

Embeddings ride along in the band rows (dim × 8 bytes × n_bands per
vector on the wire).  For very wide embeddings prefer candidates-only
rows followed by a ``bucketed_join`` back to the vector table.

Similarities are computed in float64 as dot/(‖a‖·‖b‖) and rounded to 12
decimals — the exact arithmetic DuckDB's ``list_cosine_similarity`` +
``round(,12)`` performs, so downstream outputs stay oracle-comparable.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .hashagg import grouped_arrow_agg, hash_grouped_aggregate


def _planes(dim: int, n_bands: int, band_bits: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.normal(size=(n_bands * band_bits, dim))


def _emb_matrix(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten()
    dim = len(flat) // len(col)
    return np.asarray(flat.to_numpy(zero_copy_only=False),
                      dtype=np.float64).reshape(len(col), dim)


def band_rows(ds, id_col: str, emb_col: str, n_bands: int = 32,
              band_bits: int = 4, seed: int = 7):
    """(id, embedding) → one row per (band, vector): (band, bucket, id,
    embedding) with bucket = packed sign bits of the band's hyperplanes."""
    planes_cache: dict[int, np.ndarray] = {}

    def to_bands(batch: pa.Table) -> pa.Table:
        mat = _emb_matrix(batch.column(emb_col))
        dim = mat.shape[1]
        pl = planes_cache.get(dim)
        if pl is None:
            pl = _planes(dim, n_bands, band_bits, seed)
            planes_cache[dim] = pl
        bits = (mat @ pl.T) > 0                       # (n, bands*bits)
        bits = bits.reshape(len(mat), n_bands, band_bits)
        weights = (1 << np.arange(band_bits, dtype=np.int64))
        buckets = (bits * weights).sum(axis=2)        # (n, bands)
        n = len(mat)
        ids = batch.column(id_col)
        emb = batch.column(emb_col)
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        rep = pa.array(np.repeat(np.arange(n), n_bands), pa.int64())
        return pa.table({
            "band": pa.array(np.tile(np.arange(n_bands, dtype=np.int32), n)),
            "bucket": pa.array(buckets.ravel(), pa.int64()),
            id_col: ids.take(rep),
            emb_col: emb.take(rep),
        })

    return ds.map_batches(to_bands, batch_format="pyarrow")


def lsh_cosine_candidates(ds, id_col: str, emb_col: str,
                          threshold: float = 0.8, n_bands: int = 32,
                          band_bits: int = 4, seed: int = 7,
                          num_buckets: int = 64):
    """Distinct (id_a < id_b, sim) pairs with exact cosine ≥ threshold,
    found via band-bucket blocking — no all-pairs, no broadcast."""

    rows = band_rows(ds, id_col, emb_col, n_bands, band_bits, seed)

    def bucket_pairs(t: pa.Table) -> pa.Table:
        # t holds every member of one or more (band, bucket) groups
        out_a, out_b, out_s = [], [], []
        import pandas as pd
        key = pd.MultiIndex.from_arrays([
            t.column("band").to_numpy(), t.column("bucket").to_numpy()])
        mat = _emb_matrix(t.column(emb_col))
        norms = np.linalg.norm(mat, axis=1)
        ids = np.asarray(t.column(id_col).to_pylist(), dtype=object)
        for _, idx in pd.Series(range(len(t)), index=key).groupby(level=[0, 1]):
            ix = idx.to_numpy()
            if len(ix) < 2:
                continue
            g = mat[ix]
            gn = norms[ix]
            sims = np.round((g @ g.T) / np.outer(gn, gn).clip(1e-300), 12)
            ii, jj = np.triu_indices(len(ix), 1)
            keep = sims[ii, jj] >= threshold
            if not keep.any():
                continue
            gi = ids[ix]
            a, b = gi[ii[keep]], gi[jj[keep]]
            s = sims[ii[keep], jj[keep]]
            swap = a > b
            a2 = np.where(swap, b, a)
            b2 = np.where(swap, a, b)
            out_a.extend(a2.tolist()); out_b.extend(b2.tolist())
            out_s.extend(s.tolist())
        return pa.table({"id_a": pa.array(out_a), "id_b": pa.array(out_b),
                         "sim": pa.array(out_s, pa.float64())})

    pairs = hash_grouped_aggregate(rows, ["band", "bucket"], bucket_pairs,
                                   num_buckets=num_buckets)
    # a pair surfaces once per colliding band — dedup (sims identical)
    return hash_grouped_aggregate(
        pairs, ["id_a", "id_b"],
        grouped_arrow_agg(["id_a", "id_b"], [("sim", "max")],
                          rename=["id_a", "id_b", "sim"]),
        num_buckets=num_buckets)


def topk_directed_edges(pairs_ds, k: int = 10,
                        id_a: str = "id_a", id_b: str = "id_b",
                        sim: str = "sim", num_buckets: int = 64):
    """Undirected (a, b, sim) pairs → per-node top-k directed neighbour
    rows (src, dst, sim, rank), tie-break (sim desc, dst asc)."""

    def both_dirs(t: pa.Table) -> pa.Table:
        fwd = pa.table({"src": t.column(id_a), "dst": t.column(id_b),
                        "sim": t.column(sim)})
        rev = pa.table({"src": t.column(id_b), "dst": t.column(id_a),
                        "sim": t.column(sim)})
        return pa.concat_tables([fwd, rev])

    def topk(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values(["src", "sim", "dst"],
                            ascending=[True, False, True])
        df["rank"] = df.groupby("src").cumcount() + 1
        df = df[df["rank"] <= k]
        return pa.table({
            "src": pa.array(df["src"], pa.string()),
            "dst": pa.array(df["dst"], pa.string()),
            "sim": pa.array(df["sim"], pa.float64()),
            "rank": pa.array(df["rank"], pa.int64()),
        })

    directed = pairs_ds.map_batches(both_dirs, batch_format="pyarrow")
    return hash_grouped_aggregate(directed, ["src"], topk,
                                  num_buckets=num_buckets)
