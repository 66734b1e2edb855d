"""Training-data operators over the local test tables (documents /
embeddings / events) — the web-scale data-prep extensions the scale jobs
run, and the families COVERAGE.md maps to a reference file:

- dedup: exact, MinHash-LSH (in-store and disk), SimHash, n-gram verify,
  transitive clusters, winnowing and the dup-span profile;
- webtext curation (quality gates → exact → near dedup), C4 cleaning and
  PII redaction, the training-order shuffle, the sharded corpus sink and
  the cross-snapshot corpus diff;
- similarity search (kNN, cosine near-dup, IVF, HNSW, LSH buckets), text
  analysis (BM25/TF-IDF statistics) and the temporal graph tables.

Every operator takes ``sf_dir`` and returns a lazy ``ray.data.Dataset``
(aggregates are small; heavy stages are vectorized map_batches).  Operators
with an exact SQL equivalent carry a DuckDB oracle in
``__ray_entry__.oracle_sql`` with IDENTICAL column names.
"""

from __future__ import annotations

import hashlib
import math
import os

from ..stages.disk_exchange import reduce_shards, stage_parquet
from ..state.manifests import (fingerprint_config, read_manifest,
                               stage_complete, write_manifest)

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.dedup import MinHasher, SimHasher
from ..functions.textstats import (
    bm25_tokenize,
    detect_language,
    fingerprint,
    quality_stats,
)


def _docs(sf_dir: str, columns=("doc_id", "text")):
    import ray.data as rd
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=list(columns))


# ---------------------------------------------------------------- dedup --

def exact_dedup(sf_dir: str):
    """Exact dedup groups: one row per distinct md5(text) with the
    representative (min) doc_id and group size.  Hash-partitioned groupby;
    md5 matches DuckDB's ``md5()`` so the oracle is exact."""
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    def add_fp(batch: pa.Table) -> pa.Table:
        # project to (fp, doc_id) BEFORE the exchange: the aggregate
        # never needs the text column, and shipping it through the sort
        # was ~20x the exchange volume (the 20M-doc out-of-disk)
        fps = [fingerprint(t) for t in batch.column("text").to_pylist()]
        return pa.table({"fp": pa.array(fps, pa.string()),
                         "doc_id": batch.column("doc_id")})

    return hash_grouped_aggregate(
        _docs(sf_dir).map_batches(add_fp, batch_format="pyarrow"),
        ["fp"],
        grouped_arrow_agg(["fp"], [("doc_id", "min"), ("doc_id", "count")],
                          rename=["fp", "doc_id", "n_dups"]))


def minhash_signatures(sf_dir: str, num_perm: int = 64, shingle_k: int = 3,
                       docs_ds=None):
    """Per-doc MinHash signature + LSH band hashes (flat band rows).
    Scale path for near-dedup: equal (band, band_hash) ⇒ candidate pair.

    ``docs_ds`` (optional) supplies the (doc_id, text) stream — the
    curation pipeline feeds its quality-filtered exact-dedup survivors
    here instead of the raw corpus."""
    class MinHashStage:
        def __init__(self):
            self.mh = MinHasher(num_perm=num_perm, shingle_k=shingle_k)

        def __call__(self, batch: pa.Table) -> pa.Table:
            texts = batch.column("text").to_pylist()
            ids = np.asarray(batch.column("doc_id").to_pylist(),
                             dtype=np.int64)
            sigs = self.mh.signatures_batch(texts)   # vectorized, one hash pass
            bh = self.mh.bands_batch(sigs, num_bands=16)   # (n, 16)
            n_bands = bh.shape[1]
            return pa.table({
                "doc_id": pa.array(np.repeat(ids, n_bands), pa.int64()),
                "band": pa.array(np.tile(np.arange(n_bands, dtype=np.int32),
                                         len(ids)), pa.int32()),
                "band_hash": pa.array(bh.reshape(-1), pa.uint64()),
            })

    from ..stages.memo import memoized_stage
    fn = memoized_stage(("minhash", num_perm, shingle_k), MinHashStage)
    docs = docs_ds if docs_ds is not None else _docs(sf_dir)
    return docs.map_batches(fn, batch_format="pyarrow", batch_size=None)


def minhash_lsh_candidates(sf_dir: str, num_perm: int = 64, shingle_k: int = 3,
                           bands_ds=None):
    """Candidate near-dup pairs (shingle→minhash→band→bucket groupby).

    Two-phase to dodge per-group Python overhead: (1) a native vectorized
    groupby counts bucket occupancy; only COLLIDING buckets (n>1) are
    kept, and (2) the band rows filtered to those buckets go through the
    pair-emitting map_groups.  On mostly-unique corpora this reduces the
    Python-group count from |docs|×bands to ~|duplicates|.

    Hot-bucket filter: the hot-key set is ~|duplicate buckets| —
    UNBOUNDED in corpus size — so it goes through
    ``stages/hashagg.semi_filter`` (broadcast below its byte budget, a
    bucketed semi-join above), packed to one uint64 key column
    (``(band_hash << 4) ^ band``) on both sides.  The pack drops
    band_hash's top 4 bits, so distinct keys may alias — harmless: the
    filter only PRE-selects rows, the downstream groupby re-groups
    exactly on (band, band_hash) and a false-positive singleton group
    emits no pairs.  No false negatives (the pack is a pure function of
    the key).

    ``bands_ds`` (optional) supplies pre-computed band rows — the query
    layer stages them to Parquet so the band→candidate derivation is
    DuckDB-oracle-checked (the signature math itself is unit-gated)."""
    import pandas as pd
    from ..stages.hashagg import (grouped_arrow_agg, hash_grouped_aggregate,
                                  semi_filter)

    bands = (bands_ds if bands_ds is not None
             else minhash_signatures(sf_dir, num_perm, shingle_k)).materialize()
    counts = hash_grouped_aggregate(
        bands, ["band", "band_hash"],
        grouped_arrow_agg(["band", "band_hash"], [("doc_id", "count")],
                          rename=["band", "band_hash", "n"]))
    hot = counts.filter(expr="n > 1").materialize()

    def packed(t: pa.Table) -> pa.Table:
        b = t.column("band").to_numpy(zero_copy_only=False).astype(np.uint64)
        h = t.column("band_hash").to_numpy(
            zero_copy_only=False).astype(np.uint64)
        return t.append_column("_hot", pa.array((h << np.uint64(4)) ^ b,
                                                pa.uint64()))

    hot_bands = semi_filter(
        bands.map_batches(packed, batch_format="pyarrow"),
        hot.map_batches(lambda t: packed(t).select(["_hot"]),
                        batch_format="pyarrow"),
        "_hot").drop_columns(["_hot"])

    def pairs(group: pd.DataFrame) -> pa.Table:
        ids = sorted(set(group["doc_id"]))
        a, b = [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a.append(ids[i]); b.append(ids[j])
        return pa.table({"doc_a": pa.array(a, pa.int64()),
                         "doc_b": pa.array(b, pa.int64())})

    # native groupby is safe HERE (exception to the hashagg rule): the
    # hot-bucket filter leaves ~|duplicates| groups, not |docs|×bands
    cand = (hot_bands
            .groupby(["band", "band_hash"])
            .map_groups(pairs, batch_format="pandas"))
    return hash_grouped_aggregate(
        cand, ["doc_a", "doc_b"],
        grouped_arrow_agg(["doc_a", "doc_b"], [("doc_a", "count")],
                          rename=["doc_a", "doc_b", "n_bands"]))


def minhash_lsh_candidates_disk(sf_dir: str, num_perm: int = 64,
                                shingle_k: int = 3, docs_ds=None,
                                stage_dir: str | None = None,
                                num_shards: int = 64):
    """Disk-shuffle twin of :func:`minhash_lsh_candidates` for band
    volumes beyond the object-store/spill budget (the round-4 20M-doc
    attempt died at the in-store band exchange against the host's
    ~50 GB effective spill budget — CLAUDE.md).

    A disk exchange (``stages/disk_exchange.py``): the band rows
    stream MAP-ONLY into hash-partitioned Parquet
    (``stage_dir/bands/shard=K/``, shard = band_hash % num_shards — a
    pure function of the group key, so every (band, band_hash) bucket
    lands whole in one shard), then one task per shard reads its files
    and emits that shard's candidate pairs locally (numpy lexsort +
    bucket boundaries; the per-bucket Python pair loop only ever touches
    COLLIDING buckets).  The only object-store exchange left is the
    final (doc_a, doc_b) aggregate over the pair table, which is
    ~|duplicates|-sized by construction.  A pair colliding in several
    bands can surface in several shards (band_hash differs per band), so
    per-shard counts are partial and the small global aggregate sums
    them — output (doc_a, doc_b, n_bands) identical to the in-store path
    (equality-gated in tests/test_dedup_disk.py).

    Resumable: the bands are fingerprinted by the corpus path,
    ``num_perm``, ``shingle_k`` and ``num_shards``, each shard's pairs by
    the bands.  The fingerprint cannot see ``docs_ds``'s rows: give each
    ``docs_ds`` its own ``stage_dir``."""
    import pyarrow.dataset as pads
    import ray.data as rd
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    if stage_dir is None:
        stage_dir = os.path.join("/tmp", "graft_minhash_disk",
                                 os.path.basename(os.path.normpath(sf_dir)))
    bands_dir = os.path.join(stage_dir, "bands")
    pairs_dir = os.path.join(stage_dir, "pairs")

    def shard_of(batch: pa.Table) -> np.ndarray:
        bh = batch.column("band_hash").to_numpy(zero_copy_only=False)
        return (bh % np.uint64(num_shards)).astype(np.int32)

    bands_fp = fingerprint_config("minhash-bands", os.path.abspath(sf_dir),
                                  num_perm, shingle_k, num_shards)
    stage_parquet(bands_dir, bands_fp,
                  lambda: minhash_signatures(sf_dir, num_perm, shingle_k,
                                             docs_ds=docs_ds),
                  shard_of)

    def shard_pairs(k: int, files: list[list[str]]) -> pa.Table:
        empty = pa.table({"doc_a": pa.array([], pa.int64()),
                          "doc_b": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        if not files[0]:
            return empty
        t = pads.dataset(files[0]).to_table(
            columns=["doc_id", "band", "band_hash"])
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        band = t.column("band").to_numpy(zero_copy_only=False).astype(np.int64)
        bh = t.column("band_hash").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, bh, band))
        band, bh, did = band[order], bh[order], did[order]
        n = len(band)
        new = np.empty(n, bool)
        new[0] = True
        new[1:] = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
        starts = np.nonzero(new)[0]
        ends = np.append(starts[1:], n)
        sizes = ends - starts
        hot = np.nonzero(sizes >= 2)[0]       # colliding buckets only
        pair_n: dict = {}
        for gi in hot.tolist():
            ids = sorted(set(did[starts[gi]:ends[gi]].tolist()))
            m = len(ids)
            for i in range(m):
                a = ids[i]
                for j in range(i + 1, m):
                    key = (a, ids[j])
                    pair_n[key] = pair_n.get(key, 0) + 1
        if not pair_n:
            return empty
        keys = sorted(pair_n)
        return pa.table({
            "doc_a": pa.array([k0 for k0, _ in keys], pa.int64()),
            "doc_b": pa.array([k1 for _, k1 in keys], pa.int64()),
            "n": pa.array([pair_n[k2] for k2 in keys], pa.int64())})

    reduce_shards([bands_dir], num_shards, shard_pairs, pairs_dir,
                  ("minhash-pairs", bands_fp))

    pairs = rd.read_parquet(pairs_dir, columns=["doc_a", "doc_b", "n"])
    return hash_grouped_aggregate(
        pairs, ["doc_a", "doc_b"],
        grouped_arrow_agg(["doc_a", "doc_b"], [("n", "sum")],
                          rename=["doc_a", "doc_b", "n_bands"]))


def simhash_signatures(sf_dir: str):
    """64-bit SimHash per document."""
    class SimHashStage:
        def __init__(self):
            self.sh = SimHasher()

        def __call__(self, batch: pa.Table) -> pa.Table:
            sigs = self.sh.signatures_batch(batch.column("text").to_pylist())
            return pa.table({
                "doc_id": batch.column("doc_id"),
                "simhash": pa.array(sigs, pa.uint64()),
            })

    from ..stages.memo import memoized_stage
    fn = memoized_stage("simhash", SimHashStage)
    return _docs(sf_dir).map_batches(fn, batch_format="pyarrow", batch_size=None)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (numpy<2 has no
    bitwise_count; unpackbits on the byte view is vectorized)."""
    return np.unpackbits(x.view(np.uint8).reshape(-1, 8),
                         axis=1).sum(axis=1).astype(np.int64)


def _pair_ids(pairs_ds):
    """Both doc ids of every (doc_a, doc_b) row, as one ``doc_id``
    column."""
    return pairs_ds.map_batches(lambda t: pa.table({"doc_id": pa.concat_arrays(
        [t.column("doc_a").combine_chunks(),
         t.column("doc_b").combine_chunks()])}), batch_format="pyarrow")


def _collision_pairs(rows_ds, key_cols: list[str], pack_fn):
    """Shared exact-recall collision-pair generation for the simhash
    family: ONE hash-bucketed exchange on ``key_cols``; inside each
    bucket the rows are sorted by their uint64-packed key
    (``pack_fn(table)``) and pairs are emitted for runs of length > 1 —
    run detection is vectorized, Python touches only COLLIDING runs.
    A second (doc_a, doc_b) exchange dedups pairs found under multiple
    keys.  (Fused from the earlier occupancy-count + hot-broadcast +
    native-groupby three-exchange shape: same output, one exchange and
    zero broadcasts fewer — at sf scale the stages were pure fixed
    overhead, at web scale the hot-key broadcast was the bound.)"""
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    def bucket_pairs(t: pa.Table) -> pa.Table:
        empty = pa.table({"doc_a": pa.array([], pa.int64()),
                          "doc_b": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        packed = pack_fn(t)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, packed))
        k, d = packed[order], ids[order]
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        ends = np.concatenate((starts[1:], [len(k)]))
        a_parts, b_parts = [], []
        for s, e in zip(starts, ends):      # colliding runs only
            if e - s > 1:
                run = np.unique(d[s:e])
                if len(run) > 1:
                    i, j = np.triu_indices(len(run), 1)
                    a_parts.append(run[i])
                    b_parts.append(run[j])
        if not a_parts:
            return empty
        return pa.table({
            "doc_a": pa.array(np.concatenate(a_parts), pa.int64()),
            "doc_b": pa.array(np.concatenate(b_parts), pa.int64())})

    return hash_grouped_aggregate(
        hash_grouped_aggregate(rows_ds, key_cols, bucket_pairs),
        ["doc_a", "doc_b"],
        grouped_arrow_agg(["doc_a", "doc_b"], [("doc_a", "count")],
                          rename=["doc_a", "doc_b", "n_keys"]),
    ).map_batches(lambda t: t.select(["doc_a", "doc_b"]),
                  batch_format="pyarrow").materialize()


def _hamming_verify(cand, sigs, max_hamming: int, small_cand_limit: int):
    """Exact popcount verify of candidate (doc_a, doc_b) pairs against
    the signature table: broadcast candidate-doc signatures below
    ``small_cand_limit``, bucketed joins above (two-path, same as
    ``ngram_dedup_pairs``)."""
    import ray

    from ..stages.hashagg import bucketed_join, semi_filter

    def _verify_arrays(da, db, sa, sb):
        h = _popcount64(np.bitwise_xor(sa, sb))
        keep = h <= max_hamming
        return pa.table({
            "doc_a": pa.array(da[keep], pa.int64()),
            "doc_b": pa.array(db[keep], pa.int64()),
            "hamming": pa.array(h[keep], pa.int64())})

    n_cand = cand.count()
    if n_cand == 0:
        import ray.data as rd
        return rd.from_arrow(pa.table({"doc_a": pa.array([], pa.int64()),
                                       "doc_b": pa.array([], pa.int64()),
                                       "hamming": pa.array([], pa.int64())}))

    if n_cand <= small_cand_limit:
        # small fast path: the workers keep the candidate docs'
        # signatures, and only those reach the driver (candidates bound
        # the broadcast)
        sig_map: dict[int, int] = {}
        for b in semi_filter(sigs, _pair_ids(cand), "doc_id").iter_batches(
                batch_format="pyarrow"):
            sig_map.update(zip(b.column("doc_id").to_pylist(),
                               b.column("simhash").to_pylist()))
        sref = ray.put(sig_map)

        def verify_small(batch: pa.Table) -> pa.Table:
            sm = ray.get(sref)
            da = batch.column("doc_a").to_numpy(zero_copy_only=False)
            db = batch.column("doc_b").to_numpy(zero_copy_only=False)
            sa = np.array([sm[x] for x in da], np.uint64)
            sb = np.array([sm[x] for x in db], np.uint64)
            return _verify_arrays(da, db, sa, sb)

        return cand.map_batches(verify_small, batch_format="pyarrow")

    def sigs_as(key: str):
        return sigs.map_batches(
            lambda t, k=key: t.rename_columns([k, f"sig_{k[-1]}"]),
            batch_format="pyarrow")

    n_buckets = max(8, min(64, n_cand // 50_000 + 1))
    with_a = bucketed_join(cand, sigs_as("doc_a"), on=["doc_a"],
                           num_buckets=n_buckets
                           ).repartition(n_buckets).materialize()
    with_ab = bucketed_join(with_a, sigs_as("doc_b"), on=["doc_b"],
                            num_buckets=n_buckets)

    def verify(batch: pa.Table) -> pa.Table:
        da = batch.column("doc_a").to_numpy(zero_copy_only=False)
        db = batch.column("doc_b").to_numpy(zero_copy_only=False)
        sa = batch.column("sig_a").to_numpy(zero_copy_only=False).astype(np.uint64)
        sb = batch.column("sig_b").to_numpy(zero_copy_only=False).astype(np.uint64)
        return _verify_arrays(da, db, sa, sb)

    return with_ab.map_batches(verify, batch_format="pyarrow")


def simhash_dup_pairs_manku(sf_dir: str, max_hamming: int = 3,
                            n_blocks: int = 6, sigs_ds=None,
                            small_cand_limit: int = 10_000):
    """SimHash near-dup pairs via Manku/Jain/Sarma 2007 (WWW) permuted
    prefix tables — the WEB-SCALE member of the simhash family.

    The 64-bit signature splits into ``n_blocks`` blocks; any two
    signatures within Hamming distance ≤ ``max_hamming`` agree exactly
    on at least ``n_blocks - max_hamming`` blocks (pigeonhole), so each
    of the C(n_blocks, n_blocks-max_hamming) block subsets becomes one
    "permuted table" whose sort key is the subset's concatenated bits.
    With the defaults (6 blocks → 20 tables, ~32-bit keys) bucket
    occupancy is ~N²/2³² per table instead of the 4×16-bit banding's
    ~N²/2¹⁶ — candidates stay linear far past the banding's ~1M-doc
    wall, at the cost of 20 key rows/doc on the wire instead of 4.
    Same guaranteed recall (exact for distance ≤ max_hamming), same
    exact popcount verify, so output is IDENTICAL to the banding path
    (path-equality gated in tests)."""
    from itertools import combinations

    sigs = (sigs_ds if sigs_ds is not None
            else simhash_signatures(sf_dir)).materialize()
    if not 0 < n_blocks - max_hamming:
        raise ValueError("need n_blocks > max_hamming for pigeonhole "
                         "recall")
    base, rem = divmod(64, n_blocks)
    widths = [base + (1 if i < rem else 0) for i in range(n_blocks)]
    offsets = np.cumsum([0] + widths[:-1])
    subsets = list(combinations(range(n_blocks), n_blocks - max_hamming))

    def to_keys(t: pa.Table) -> pa.Table:
        s = t.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        parts = []
        for ti, subset in enumerate(subsets):
            key = np.zeros_like(s)
            for b in subset:
                blockval = ((s >> np.uint64(offsets[b]))
                            & np.uint64((1 << widths[b]) - 1))
                key = (key << np.uint64(widths[b])) | blockval
            parts.append(pa.table({
                "doc_id": pa.array(ids, pa.int64()),
                "tbl": pa.array(np.full(len(ids), ti, np.int64)),
                "key": pa.array(key, pa.uint64())}))
        return pa.concat_tables(parts)

    rows = sigs.map_batches(to_keys, batch_format="pyarrow")

    # pack (tbl < C(n_blocks, ·) ≤ 64 → 6 bits, key ≤ 64-max_hamming·base
    # bits) into one uint64 run key
    def pack(t: pa.Table) -> np.ndarray:
        tb = t.column("tbl").to_numpy(zero_copy_only=False).astype(np.uint64)
        kv = t.column("key").to_numpy(zero_copy_only=False).astype(np.uint64)
        return (kv << np.uint64(6)) | tb

    cand = _collision_pairs(rows, ["tbl", "key"], pack)
    return _hamming_verify(cand, sigs, max_hamming, small_cand_limit)


def simhash_dup_pairs(sf_dir: str, max_hamming: int = 3, n_bands: int = 4,
                      sigs_ds=None, small_cand_limit: int = 10_000):
    """SimHash near-dup pairs: 64-bit signatures → pigeonhole banding →
    exact Hamming verify.

    The 64-bit signature is sliced into ``n_bands`` equal bands; any two
    signatures within Hamming distance < ``n_bands`` agree exactly on at
    least one band (pigeonhole), so band-equality buckets have guaranteed
    recall for ``max_hamming ≤ n_bands - 1`` (the classic simhash dedup
    layout: 4 × 16-bit bands for distance ≤ 3).  Candidates then get an
    exact vectorized popcount verify.

    Same two-phase bucket discipline as ``minhash_lsh_candidates``
    (vectorized occupancy count first, per-group Python only on colliding
    buckets) and the same two-path verify as ``ngram_dedup_pairs``
    (broadcast the candidate signatures below ``small_cand_limit``,
    bucketed joins above — the signature table is 16 bytes/doc, but at
    web scale even that never ships whole).

    Scale regimes (both exact-recall): band-bucket occupancy grows
    ~N²/2¹⁶ on uniform signatures — fine to ~1M docs; above that,
    ``simhash_dup_pairs_manku`` (permuted-prefix tables, ~N²/2³²
    occupancy) is the web-scale twin producing the IDENTICAL verified
    pair set (path-equality gated in tests).

    ``sigs_ds`` lets the query layer stage the signature rows so the
    band→candidate→verify derivation is DuckDB-oracle-checked
    (``bit_count(xor(...))``); the signature hashing itself stays
    unit-gated via the staged-vocab ``simhash_signatures`` oracle."""
    sigs = (sigs_ds if sigs_ds is not None
            else simhash_signatures(sf_dir)).materialize()
    band_width = 64 // n_bands
    mask = np.uint64((1 << band_width) - 1)

    def to_bands(t: pa.Table) -> pa.Table:
        s = t.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        parts = []
        for b in range(n_bands):
            parts.append(pa.table({
                "doc_id": pa.array(ids, pa.int64()),
                "band": pa.array(np.full(len(ids), b, np.int64())),
                "band_val": pa.array((s >> np.uint64(band_width * b)) & mask,
                                     pa.uint64())}))
        return pa.concat_tables(parts)

    bands = sigs.map_batches(to_bands, batch_format="pyarrow")

    # pack (band, band_val) into one uint64 run key
    pack_shift = np.uint64(band_width)

    def pack(t: pa.Table) -> np.ndarray:
        b = t.column("band").to_numpy(zero_copy_only=False).astype(np.uint64)
        v = t.column("band_val").to_numpy(zero_copy_only=False).astype(np.uint64)
        return (b << pack_shift) | v

    cand = _collision_pairs(bands, ["band", "band_val"], pack)
    return _hamming_verify(cand, sigs, max_hamming, small_cand_limit)


def simhash_vocab(sf_dir: str):
    """Distinct (word, h) rows over the corpus's lowercased whitespace
    tokens, h = the stable 64-bit word hash SimHash votes on.  Staged for
    the simhash oracle: the word hash is not available in SQL, so the
    hashes are an input table and DuckDB re-derives the
    tokenize→vote→pack pipeline."""
    from ..functions.dedup import stable_word_hashes
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    def words(batch: pa.Table) -> pa.Table:
        out = set()
        for t in batch.column("text").to_pylist():
            out.update(t.lower().split())
        ws = sorted(out)
        return pa.table({"word": pa.array(ws, pa.string())})

    distinct = hash_grouped_aggregate(
        _docs(sf_dir).map_batches(words, batch_format="pyarrow"),
        ["word"], grouped_arrow_agg(["word"], [("word", "count")],
                                    rename=["word", "n"]))

    def hashed(batch: pa.Table) -> pa.Table:
        hs = stable_word_hashes(batch.column("word").to_pylist())
        return pa.table({"word": batch.column("word"),
                         "h": pa.array(hs, pa.uint64())})

    return distinct.map_batches(hashed, batch_format="pyarrow")


def ngram_dedup_pairs(sf_dir: str, threshold: float = 0.8, n: int = 3,
                      cand_ds=None, small_cand_limit: int = 10_000):
    """LSH candidates verified by character n-gram Jaccard ≥ threshold.

    Round-2 rework (VERDICT r01 task 5): the candidate pairs are joined
    back to the documents table TWICE via ``bucketed_join`` (doc_a side,
    then doc_b side) instead of broadcasting the whole corpus text into
    the verify stage — at web scale the candidate set is tiny next to the
    corpus, and the join ships only candidate rows + matching texts.
    The documents side is semi-join-pruned first to the candidate doc
    ids (small by construction — LSH collisions) with
    ``stages/hashagg.semi_filter``, so the two join shuffles move
    candidate texts, not the corpus."""
    import ray

    from ..stages.hashagg import bucketed_join, semi_filter

    cand = (cand_ds if cand_ds is not None
            else minhash_lsh_candidates(sf_dir)).map_batches(
        lambda t: t.select(["doc_a", "doc_b"]),
        batch_format="pyarrow").materialize()
    n_cand = cand.count()
    # bucket count sized to the candidate set: 64 buckets on a few
    # hundred pairs is pure exchange overhead (measured ~4.7 s of fixed
    # shuffle cost at sf0.1); target ~50k pairs per bucket
    n_buckets = max(8, min(64, n_cand // 50_000 + 1))

    # ONE corpus read feeds both join sides (the pruned table is
    # candidate-sized, so materializing it is cheap)
    pruned = semi_filter(_docs(sf_dir), _pair_ids(cand), "doc_id").materialize()

    if n_cand <= small_cand_limit:
        # small fast path (two-path discipline, equality-tested): below
        # the limit the candidate TEXTS (≤ 2×n_cand docs — never the
        # corpus) are broadcast once and verified in one stateless pass;
        # the two bucketed joins below are pure exchange overhead at
        # this size (measured ~8 s of fixed shuffle cost at sf0.1 for a
        # few hundred pairs)
        texts: dict[int, str] = {}
        for b in pruned.iter_batches(batch_format="pyarrow"):
            texts.update(zip(b.column("doc_id").to_pylist(),
                             b.column("text").to_pylist()))
        tref = ray.put(texts)

        def verify_small(batch: pa.Table) -> pa.Table:
            from ..functions.dedup import ngram_jaccard
            tx = ray.get(tref)
            keep_a, keep_b, sims = [], [], []
            for x, y in zip(batch.column("doc_a").to_pylist(),
                            batch.column("doc_b").to_pylist()):
                s = ngram_jaccard(tx[x], tx[y], n)
                if s >= threshold:
                    keep_a.append(x); keep_b.append(y); sims.append(round(s, 4))
            return pa.table({"doc_a": pa.array(keep_a, pa.int64()),
                             "doc_b": pa.array(keep_b, pa.int64()),
                             "jaccard": pa.array(sims, pa.float64())})

        return cand.map_batches(verify_small, batch_format="pyarrow")

    def docs_as(key: str):
        return pruned.map_batches(
            lambda t, k=key: t.rename_columns([k, f"text_{k[-1]}"]),
            batch_format="pyarrow")

    # cut between the joins: the second join's schema probe would re-run
    # the first join's full sort on a lazy input, and two all-to-alls in
    # one streaming plan throttle the executor (see dedup_clusters note)
    with_a = bucketed_join(cand, docs_as("doc_a"), on=["doc_a"],
                           num_buckets=n_buckets
                           ).repartition(n_buckets).materialize()
    with_ab = bucketed_join(with_a, docs_as("doc_b"), on=["doc_b"],
                            num_buckets=n_buckets)

    def verify(batch: pa.Table) -> pa.Table:
        from ..functions.dedup import ngram_jaccard
        keep_a, keep_b, sims = [], [], []
        for x, y, ta, tb in zip(batch.column("doc_a").to_pylist(),
                                batch.column("doc_b").to_pylist(),
                                batch.column("text_a").to_pylist(),
                                batch.column("text_b").to_pylist()):
            s = ngram_jaccard(ta, tb, n)
            if s >= threshold:
                keep_a.append(x); keep_b.append(y); sims.append(round(s, 4))
        return pa.table({"doc_a": pa.array(keep_a, pa.int64()),
                         "doc_b": pa.array(keep_b, pa.int64()),
                         "jaccard": pa.array(sims, pa.float64())})

    return with_ab.map_batches(verify, batch_format="pyarrow")


# ----------------------------------------------------- corpus curation --

def curation_survivors(sf_dir: str, min_tokens: int = 20,
                       max_punct: float = 0.2, min_stopword: float = 0.01,
                       lang: str | None = "en"):
    """Annotate → quality-filter → exact-dedup: the first half of the
    webtext curation pipeline.  One vectorized-per-batch annotate pass
    computes language, token/char counts, punct/stopword ratios and the
    md5 fingerprint; quality gates filter inline (no shuffle); exact
    dedup keeps the min-doc_id row per fingerprint via the hash-bucketed
    aggregate (the repo's only-shuffle-when-grouping discipline).

    Returns survivor rows carrying ``text`` (the near-dedup stage still
    needs it) + ``n_exact_dups`` (exact-duplicate group size)."""
    from ..stages.hashagg import hash_grouped_aggregate

    def dedup_bucket(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["fp", "doc_id"])
        first = df.drop_duplicates("fp", keep="first").set_index("fp")
        first["n_exact_dups"] = df.groupby("fp").size().astype("int64")
        return pa.Table.from_pandas(first.reset_index(drop=True),
                                    preserve_index=False)

    annotated = _curation_annotated(sf_dir, min_tokens, max_punct,
                                    min_stopword, lang)
    return hash_grouped_aggregate(annotated, ["fp"], dedup_bucket)


def _curation_annotated(sf_dir: str, min_tokens: int = 20,
                        max_punct: float = 0.2, min_stopword: float = 0.01,
                        lang: str | None = "en"):
    """Annotated + quality-gated doc rows (with text and fp) — the
    shared no-shuffle front half of both survivor paths."""

    def annotate(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        rows = [quality_stats(t) for t in texts]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "text": batch.column("text"),
            "lang_pred": pa.array([detect_language(t) for t in texts],
                                  pa.string()),
            "n_tokens": pa.array([r["n_words"] for r in rows], pa.int64()),
            "n_chars": pa.array([r["n_chars"] for r in rows], pa.int64()),
            # raw IEEE f64 divisions — bit-identical to DuckDB's k*1.0/n
            "punct_ratio": pa.array([r["punct_ratio"] for r in rows],
                                    pa.float64()),
            "stopword_ratio": pa.array([r["stopword_ratio"] for r in rows],
                                       pa.float64()),
            "fp": pa.array([fingerprint(t) for t in texts], pa.string()),
        })

    def keep(batch: pa.Table) -> pa.Table:
        lang_ok = (pc.equal(batch.column("lang_pred"), lang)
                   if lang is not None
                   else pa.array([True] * batch.num_rows, pa.bool_()))
        mask = pc.and_(
            pc.and_(lang_ok,
                    pc.greater_equal(batch.column("n_tokens"),
                                     pa.scalar(min_tokens, pa.int64()))),
            pc.and_(pc.less_equal(batch.column("punct_ratio"), max_punct),
                    pc.greater_equal(batch.column("stopword_ratio"),
                                     min_stopword)))
        return batch.filter(mask)

    return (_docs(sf_dir)
            .map_batches(annotate, batch_format="pyarrow")
            .map_batches(keep, batch_format="pyarrow"))


def curation_survivors_skinny(sf_dir: str, ann_dir: str,
                              min_tokens: int = 20, max_punct: float = 0.2,
                              min_stopword: float = 0.01,
                              lang: str | None = "en",
                              dup_broadcast_limit: int = 20_000_000):
    """Skinny-exchange twin of :func:`curation_survivors` for corpora
    whose text volume exceeds the exchange budget (the 10M-docs/batch
    ingest ladder: shipping annotated TEXT through the exact-dedup sort
    produced ~200 GB of transient spill+fallback).  Identical output
    (equality-gated via the corpus_curation disk-mode test):

    1. the annotated+gated rows stream ONCE to ``ann_dir`` Parquet
       (map-only, no exchange; texts only ever live map-side or on
       disk);
    2. the only exchange is over projected (fp, doc_id) rows — a
       per-fp (rep=min doc_id, n) aggregate;
    3. groups with n > 1 (the duplicate groups — small relative to the
       corpus; bounded by ``dup_broadcast_limit`` rows, above which
       this path REFUSES and the sorted-exchange path must be used)
       broadcast via ``ray.put``, and a final stateless map filters
       non-representative dup members and attaches ``n_exact_dups``
       (1 for every fp not in the broadcast)."""
    import ray
    import ray.data as rd

    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    stage_parquet(ann_dir,
                  fingerprint_config("curation-annotated",
                                     os.path.abspath(sf_dir), min_tokens,
                                     max_punct, min_stopword, lang),
                  lambda: _curation_annotated(sf_dir, min_tokens, max_punct,
                                              min_stopword, lang))
    ann = rd.read_parquet(ann_dir)

    groups = hash_grouped_aggregate(
        ann.map_batches(lambda t: t.select(["fp", "doc_id"]),
                        batch_format="pyarrow"),
        ["fp"],
        grouped_arrow_agg(["fp"], [("doc_id", "min"), ("doc_id", "count")],
                          rename=["fp", "rep", "n"]))
    dups = groups.filter(expr="n > 1").materialize()
    n_dup_groups = dups.count()
    if n_dup_groups > dup_broadcast_limit:
        raise ValueError(
            f"curation_survivors_skinny: {n_dup_groups:,} duplicate "
            f"fp groups exceed dup_broadcast_limit="
            f"{dup_broadcast_limit:,}; use the sorted-exchange "
            "curation_survivors path (or raise the limit if the "
            "driver/workers have the memory).")
    chunks = [b for b in dups.iter_batches(batch_format="pyarrow")
              if b.num_rows]
    dup_tbl = (pa.concat_tables(chunks) if chunks
               else pa.table({"fp": pa.array([], pa.string()),
                              "rep": pa.array([], pa.int64()),
                              "n": pa.array([], pa.int64())}))
    dup_ref = ray.put(dup_tbl)
    _dup_cache: dict = {}

    def finalize(t: pa.Table) -> pa.Table:
        d = _dup_cache.get("m")
        if d is None:
            dt = ray.get(dup_ref)
            d = dict(zip(dt.column("fp").to_pylist(),
                         zip(dt.column("rep").to_pylist(),
                             dt.column("n").to_pylist())))
            _dup_cache["m"] = d
        fps = t.column("fp").to_pylist()
        ids = t.column("doc_id").to_pylist()
        keep_m, n_out = [], []
        for f, i in zip(fps, ids):
            rn = d.get(f)
            if rn is None:
                keep_m.append(True)
                n_out.append(1)
            else:
                keep_m.append(i == rn[0])
                n_out.append(rn[1])
        t = t.append_column("n_exact_dups", pa.array(n_out, pa.int64()))
        return t.filter(pa.array(keep_m, pa.bool_())).drop_columns(["fp"])

    return ann.map_batches(finalize, batch_format="pyarrow")


def corpus_curation(sf_dir: str, min_tokens: int = 20,
                    max_punct: float = 0.2, min_stopword: float = 0.01,
                    jaccard_threshold: float = 0.8,
                    survivors_ds=None, bands_ds=None,
                    keep_text: bool = False, lang: str | None = "en",
                    disk_shuffle: bool = False,
                    stage_dir: str | None = None):
    """End-to-end webtext curation over ``documents``: language-ID +
    quality gates → exact dedup (md5 groups, keep min doc_id) →
    MinHash-LSH near-dedup (banded candidates → char-trigram Jaccard
    verify ≥ threshold → drop the LARGER doc_id of every verified pair —
    the deterministic keep-first policy; no transitive clustering, so the
    decision is per-pair and SQL-replayable).

    Composition of the individually-oracle-checked pieces into the
    pipeline a 100-TB pre-training corpus actually runs: every stage
    streams; the only shuffles are the fp-group and the LSH band group;
    the verified-pair drop set leaves the survivors through
    ``stages/hashagg.semi_filter`` (``anti``): broadcast below its byte
    budget, which near-dup pairs stay under by construction, and a
    bucketed anti-join above it.

    ``survivors_ds`` / ``bands_ds`` let the query layer stage the band
    rows so the whole composition is DuckDB-oracle-checked.  They apply
    to the in-store path only; combining either with ``disk_shuffle``
    raises ``ValueError``.

    ``disk_shuffle=True`` (corpus volumes beyond the object-store/spill
    budget — the 20M-doc curation leg ENOSPC'd the in-store path):
    survivors stream to a Parquet stage instead of materializing in the
    store (their text column is the corpus — the dominant volume), and
    candidates come from :func:`minhash_lsh_candidates_disk`.  Output
    identical (equality-gated in tests/test_dedup_disk.py)."""
    from ..stages.hashagg import semi_filter

    if disk_shuffle and (survivors_ds is not None or bands_ds is not None):
        raise ValueError("corpus_curation: survivors_ds/bands_ds are "
                         "in-store overrides; disk_shuffle=True stages "
                         "its own survivors and candidates")
    if disk_shuffle:
        import shutil
        import ray.data as rd
        stage_dir = stage_dir or os.path.join(
            "/tmp", "graft_curation_stage",
            os.path.basename(os.path.normpath(sf_dir)))
        surv_dir = os.path.join(stage_dir, "survivors")
        surv_fp = fingerprint_config("curation-survivors",
                                     os.path.abspath(sf_dir), min_tokens,
                                     max_punct, min_stopword, lang)
        if not stage_complete(surv_dir, surv_fp):
            # the candidate stages below are built from these survivors
            shutil.rmtree(stage_dir, ignore_errors=True)
        # skinny twin: annotated rows stage once to Parquet; only
        # (fp, doc_id) is exchanged; dup groups broadcast — the text
        # column never enters a shuffle (equality-gated)
        stage_parquet(surv_dir, surv_fp,
                      lambda: curation_survivors_skinny(
                          sf_dir, os.path.join(stage_dir, "annotated"),
                          min_tokens, max_punct, min_stopword, lang=lang))
        surv = rd.read_parquet(surv_dir)
        cand = minhash_lsh_candidates_disk(
            sf_dir, docs_ds=surv.map_batches(
                lambda t: t.select(["doc_id", "text"]),
                batch_format="pyarrow"),
            stage_dir=os.path.join(stage_dir, "minhash"),
            num_shards=128).materialize()
    else:
        surv = (survivors_ds if survivors_ds is not None
                else curation_survivors(sf_dir, min_tokens, max_punct,
                                        min_stopword, lang=lang)
                .materialize())
        bands = bands_ds if bands_ds is not None else minhash_signatures(
            sf_dir, docs_ds=surv.map_batches(
                lambda t: t.select(["doc_id", "text"]),
                batch_format="pyarrow"))
        cand = minhash_lsh_candidates(sf_dir, bands_ds=bands).materialize()

    if cand.count() > 0:
        drop = ngram_dedup_pairs(
            sf_dir, threshold=jaccard_threshold, cand_ds=cand).map_batches(
            lambda t: t.select(["doc_b"]), batch_format="pyarrow")
        surv = semi_filter(surv, drop.materialize(), "doc_id", anti=True)

    cols = ["doc_id", "lang_pred", "n_tokens", "n_chars", "punct_ratio",
            "stopword_ratio", "n_exact_dups"] + (["text"] if keep_text
                                                 else [])
    return surv.map_batches(lambda t: t.select(cols), batch_format="pyarrow")


def dedup_clusters(sf_dir: str, threshold: float = 0.8, n: int = 3,
                   cand_ds=None, verified_ds=None,
                   small_graph_limit: int = 2_000_000,
                   small_map_limit: int = 5_000_000):
    """Transitive near-dup clustering: LSH candidates → char-trigram
    Jaccard verify → connected components over the verified-pair graph →
    one representative (min ``doc_id``) per cluster.

    This is the cluster keep-policy a web-scale curation run actually
    wants (one survivor per duplicate *cluster*, the RefinedWeb/CCNet
    shape) and it genuinely differs from ``corpus_curation``'s per-pair
    drop-larger rule: verified pairs (1,3),(2,3) keep {1,2} per-pair but
    only {1} transitively — duplicate chains collapse to one survivor.

    Scale shape: the verified-pair graph is tiny next to the corpus by
    construction (only LSH-colliding, Jaccard-verified docs appear);
    component labeling reuses the two-path CC machinery
    (``pipelines.communities.connected_components``: driver union-find
    ≤ ``small_graph_limit`` edges, hash-to-min label propagation with
    pointer doubling above).  Assignments flow back onto ``documents``
    via one broadcast map (≤ ``small_map_limit`` clustered docs) or a
    bucketed left join — the corpus itself is never materialized.

    Output per document: ``doc_id``, ``cluster`` (representative =
    smallest member doc_id; singletons map to themselves),
    ``cluster_size``, ``is_kept`` (1 for the representative, else 0 —
    BIGINT per the no-NULL/no-bool oracle column discipline)."""
    import ray

    from ..stages.hashagg import (bucketed_join, exchange_blocks,
                                  grouped_arrow_agg, hash_grouped_aggregate)
    from .communities import connected_components

    # ``verified_ds`` lets a pipeline that already ran the Jaccard
    # verify (corpus_curation, the scale scripts) feed its pairs in
    # without recomputing the two corpus joins
    verified = (verified_ds if verified_ds is not None
                else ngram_dedup_pairs(sf_dir, threshold=threshold, n=n,
                                       cand_ds=cand_ds))

    # CC labels are strings with a lexicographic-min rule; zero-pad the
    # int64 doc ids to a fixed width so lexicographic min == numeric min
    pad = 20

    def to_edges(t: pa.Table) -> pa.Table:
        a = [str(x).zfill(pad) for x in t.column("doc_a").to_pylist()]
        b = [str(x).zfill(pad) for x in t.column("doc_b").to_pylist()]
        return pa.table({"a": pa.array(a, pa.string()),
                         "b": pa.array(b, pa.string())})

    edges = verified.map_batches(to_edges,
                                 batch_format="pyarrow").materialize()
    docs = _docs(sf_dir, columns=("doc_id",))

    def singletons(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        ones = pa.array([1] * batch.num_rows, pa.int64())
        return pa.table({"doc_id": ids, "cluster": ids,
                         "cluster_size": ones, "is_kept": ones})

    if edges.count() == 0:
        return docs.map_batches(singletons, batch_format="pyarrow")

    comp = connected_components(edges, small_graph_limit=small_graph_limit)

    def decode(t: pa.Table) -> pa.Table:
        nodes = [int(v) for v in t.column("node").to_pylist()]
        comps = [int(v) for v in t.column("component").to_pylist()]
        return pa.table({"doc_id": pa.array(nodes, pa.int64()),
                         "cluster": pa.array(comps, pa.int64())})

    assign = comp.map_batches(decode, batch_format="pyarrow").materialize()

    if assign.count() <= small_map_limit:
        # small fast path (two-path discipline, equality-tested): the
        # assignment is clustered-docs-only, broadcast ONCE via ray.put
        amap: dict[int, int] = {}
        for b in assign.iter_batches(batch_format="pyarrow"):
            amap.update(zip(b.column("doc_id").to_pylist(),
                            b.column("cluster").to_pylist()))
        sizes: dict[int, int] = {}
        for c in amap.values():
            sizes[c] = sizes.get(c, 0) + 1
        aref = ray.put((amap, sizes))

        def attach(batch: pa.Table) -> pa.Table:
            m, s = ray.get(aref)
            ids = batch.column("doc_id").to_pylist()
            cl = [m.get(i, i) for i in ids]
            return pa.table({
                "doc_id": pa.array(ids, pa.int64()),
                "cluster": pa.array(cl, pa.int64()),
                "cluster_size": pa.array([s.get(c, 1) for c in cl],
                                         pa.int64()),
                "is_kept": pa.array(
                    [1 if c == i else 0 for i, c in zip(ids, cl)],
                    pa.int64())})

        return docs.map_batches(attach, batch_format="pyarrow")

    # scale path: cluster sizes via the hash-bucketed aggregate, then two
    # bucketed joins (assignment×sizes, documents×assignment) — no
    # driver-side or broadcast copy of the assignment.  MATERIALIZE (and
    # coalesce) between the joins: chaining three all-to-all sorts in
    # one streaming plan throttles the executor to near-idle (measured
    # at 10M docs: load ~0.2, 20+ min stalled; split plans run in
    # normal sort time), and the coalesce is the tiny-block sort-fan
    # rule from communities.connected_components
    sizes_ds = hash_grouped_aggregate(
        assign, ["cluster"],
        grouped_arrow_agg(["cluster"], [("doc_id", "count")],
                          rename=["cluster", "cluster_size"]))
    sizes_ds = sizes_ds.repartition(exchange_blocks(sizes_ds, 64)).materialize()
    with_size = bucketed_join(assign, sizes_ds, on=["cluster"])
    with_size = with_size.repartition(
        exchange_blocks(with_size, 64)).materialize()
    joined = bucketed_join(docs, with_size, on=["doc_id"], how="left")

    def finish(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id")
        # the left join pads misses with nulls, which promotes the int64
        # columns to float64 in the pandas merge — cast back before use
        cl = pc.coalesce(pc.cast(t.column("cluster"), pa.int64()), ids)
        cs = pc.coalesce(pc.cast(t.column("cluster_size"), pa.int64()),
                         pa.scalar(1, pa.int64()))
        kept = pc.cast(pc.equal(cl, ids), pa.int64())
        return pa.table({"doc_id": ids, "cluster": cl,
                         "cluster_size": cs, "is_kept": kept})

    return joined.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------- similarity search --

def _lowest_vec_rows(path: str, n: int) -> pa.Table:
    """The ``n`` rows with the smallest vec_ids, ascending — the
    deterministic query/sample selector every ANN entry point uses.
    Distributed partial min-k (per-block smallest-n, driver merge of
    blocks × n candidate rows), never a whole-table driver read: the
    old ``pq.read_table`` of the full embeddings table is a driver OOM
    at corpus scale."""
    import ray.data as rd

    ds = rd.read_parquet(path, columns=["vec_id", "embedding"])

    def smallest(t: pa.Table) -> pa.Table:   # no pandas metadata: see prune
        return t.take(pc.sort_indices(t.column("vec_id"))[:n]
                      ).replace_schema_metadata(None)

    parts = [b for b in ds.map_batches(
        smallest, batch_format="pyarrow",
        batch_size=None).iter_batches(batch_format="pyarrow")
        if b.num_rows]
    if not parts:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "embedding": pa.array([], pa.list_(pa.float32()))})
    merged = pa.concat_tables(parts, promote_options="permissive")
    return merged.take(pc.sort_indices(merged.column("vec_id"))[:n])


def knn_bruteforce(sf_dir: str, n_queries: int = 5, k: int = 10):
    """Brute-force cosine top-k: the first ``n_queries`` vectors (by vec_id)
    are the query set, broadcast once (``ray.put``); each batch computes a
    numpy matmul partial; global top-k via sort+limit per query."""
    import ray
    import ray.data as rd
    import pandas as pd

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(path, columns=["vec_id", "embedding"])

    head = _lowest_vec_rows(path, n_queries)
    qids = head.column("vec_id").to_pylist()
    qmat = np.array(head.column("embedding").to_pylist(), dtype=np.float64)
    qmat /= np.linalg.norm(qmat, axis=1, keepdims=True)
    qref = ray.put((qids, qmat))

    def score(batch: pa.Table) -> pa.Table:
        ids_, qm = ray.get(qref)
        vecs = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        vecs /= np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
        sims = vecs @ qm.T                      # (n, nq)
        vid = batch.column("vec_id").to_pylist()
        out_q, out_v, out_s = [], [], []
        for qi, qid in enumerate(ids_):
            col = sims[:, qi]
            top = np.argsort(-col)[:k]          # per-batch partial top-k
            for t in top:
                out_q.append(qid); out_v.append(vid[t]); out_s.append(col[t])
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_v, pa.int64()),
                         "score": pa.array(out_s, pa.float64())})

    partial = ds.map_batches(score, batch_format="pyarrow")

    def final_topk(group: pd.DataFrame) -> pa.Table:
        g = group.sort_values(["score", "vec_id"], ascending=[False, True]).head(k)
        return pa.table({
            "query_id": pa.array(g["query_id"].tolist(), pa.int64()),
            "vec_id": pa.array(g["vec_id"].tolist(), pa.int64()),
            "rank": pa.array(range(1, len(g) + 1), pa.int64()),
        })

    return partial.groupby("query_id").map_groups(final_topk, batch_format="pandas")


def cosine_dup_pairs(sf_dir: str, threshold: float = 0.8):
    """Embedding-cosine near-dup pairs (vec_a < vec_b, cosine ≥ threshold).
    Small side (full matrix) broadcast once; per-batch matmul against it.
    Scale path: replace broadcast with LSH bucketing (`lsh_buckets`)."""
    import ray
    import ray.data as rd

    path = os.path.join(sf_dir, "embeddings.parquet")
    import pyarrow.parquet as pq
    all_tbl = pq.read_table(path, columns=["vec_id", "embedding"])
    all_ids = np.asarray(all_tbl.column("vec_id").to_pylist(), dtype=np.int64)
    mat = np.array(all_tbl.column("embedding").to_pylist(), dtype=np.float64)
    mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    ref = ray.put((all_ids, mat))

    ds = rd.read_parquet(path, columns=["vec_id", "embedding"])

    def pairs(batch: pa.Table) -> pa.Table:
        ids_all, m = ray.get(ref)
        vid = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        vecs = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        vecs /= np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
        sims = vecs @ m.T
        rows_a, rows_b = [], []
        for i in range(len(vid)):
            hits = np.where(sims[i] >= threshold)[0]
            for j in hits:
                if vid[i] < ids_all[j]:
                    rows_a.append(int(vid[i])); rows_b.append(int(ids_all[j]))
        return pa.table({"vec_a": pa.array(rows_a, pa.int64()),
                         "vec_b": pa.array(rows_b, pa.int64())})

    return ds.map_batches(pairs, batch_format="pyarrow")


def cosine_dup_pairs_bucketed(sf_dir: str, threshold: float = 0.8,
                              n_bands: int = 32, band_bits: int = 4):
    """Embedding near-dup pairs via hyperplane-LSH blocking
    (``stages/ann.py``) — the scale path for ``cosine_dup_pairs``: no
    full-matrix broadcast, no all-pairs; within-bucket exact cosine, then
    band dedup.  Recall vs the exact op is 1-(1-p^bits)^bands with
    p = 1 - acos(threshold)/π (≈ 1-6e-8 at 0.8 with the defaults);
    ``test_ann_bucketed`` pins exact-path equality on the test corpus."""
    import ray.data as rd
    from ..stages.ann import lsh_cosine_candidates

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(path, columns=["vec_id", "embedding"])
    pairs = lsh_cosine_candidates(ds, "vec_id", "embedding",
                                  threshold=threshold, n_bands=n_bands,
                                  band_bits=band_bits)
    return pairs.map_batches(
        lambda t: t.rename_columns(["vec_a", "vec_b", "sim"]),
        batch_format="pyarrow")


def ivf_index(sf_dir: str, n_queries: int = 5, n_centroids: int = 32,
              nprobe: int = 8, seed: int = 11, sample_size: int = 512,
              kmeans_iters: int = 8):
    """Driver-side IVF index build (deterministic): spherical k-means
    centroids from a fixed sample + per-query probe lists.  Split out of
    ``ivf_topk`` so the assignments/probes can be staged for the oracle."""
    path = os.path.join(sf_dir, "embeddings.parquet")
    head = _lowest_vec_rows(path, max(sample_size, n_queries))
    sample = np.array(head.column("embedding")[:sample_size].to_pylist(),
                      dtype=np.float64)
    sample /= np.maximum(np.linalg.norm(sample, axis=1, keepdims=True), 1e-12)
    rng = np.random.Generator(np.random.PCG64(seed))
    n_centroids = min(n_centroids, len(sample))
    cent = sample[rng.choice(len(sample), size=n_centroids, replace=False)]
    for _ in range(kmeans_iters):                    # spherical k-means
        assign = np.argmax(sample @ cent.T, axis=1)
        for c in range(n_centroids):
            m = sample[assign == c]
            if len(m):
                v = m.sum(axis=0)
                cent[c] = v / max(np.linalg.norm(v), 1e-12)

    qids = head.column("vec_id")[:n_queries].to_pylist()
    qmat = np.array(head.column("embedding")[:n_queries].to_pylist(),
                    dtype=np.float64)
    qmat /= np.linalg.norm(qmat, axis=1, keepdims=True)
    probe = np.argsort(-(qmat @ cent.T), axis=1)[:, :nprobe]   # (nq, nprobe)
    return qids, qmat, cent, probe


def ivf_assignments(sf_dir: str, cent: np.ndarray):
    """(vec_id, cluster) inverted-list assignment — the stateless
    vectorized map every IVF lookup relies on."""
    import ray
    import ray.data as rd

    cref = ray.put(cent)
    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"])

    def assign(batch: pa.Table) -> pa.Table:
        ce = ray.get(cref)
        vecs = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        vecs /= np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
        cid = np.argmax(vecs @ ce.T, axis=1)
        return pa.table({"vec_id": batch.column("vec_id"),
                         "cluster": pa.array(cid, pa.int64())})

    return ds.map_batches(assign, batch_format="pyarrow")


def ivf_topk(sf_dir: str, n_queries: int = 5, k: int = 10,
             n_centroids: int = 32, nprobe: int = 8, seed: int = 11,
             sample_size: int = 512, kmeans_iters: int = 8):
    """IVF approximate nearest neighbour — the index-structured scale path
    for similarity search (complements the LSH candidate path): spherical
    k-means centroids trained on a deterministic sample (driver-side, the
    sample is tiny), every vector assigned to its nearest centroid
    (vectorized map = the inverted lists), queries probe only the
    ``nprobe`` nearest lists.  Same output schema as ``knn_bruteforce``
    (query_id, vec_id, rank); recall vs the exact op is gated by
    ``test_ivf_recall``.  At scale the assignment is a stateless map and
    each probe touches nprobe/n_centroids of the corpus."""
    import ray
    import ray.data as rd
    import pandas as pd

    qids, qmat, cent, probe = ivf_index(
        sf_dir, n_queries=n_queries, n_centroids=n_centroids, nprobe=nprobe,
        seed=seed, sample_size=sample_size, kmeans_iters=kmeans_iters)
    ref = ray.put((qids, qmat, cent, probe))
    path = os.path.join(sf_dir, "embeddings.parquet")

    ds = rd.read_parquet(path, columns=["vec_id", "embedding"])

    def probe_score(batch: pa.Table) -> pa.Table:
        ids_, qm, ce, pr = ray.get(ref)
        vecs = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        vecs /= np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
        cid = np.argmax(vecs @ ce.T, axis=1)         # inverted-list id
        vid = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        out_q, out_v, out_s = [], [], []
        sims = vecs @ qm.T                           # (n, nq)
        for qi, qid in enumerate(ids_):
            mask = np.isin(cid, pr[qi])              # probed lists only
            if not mask.any():
                continue
            col = sims[mask, qi]
            sub_vid = vid[mask]
            top = np.argsort(-col)[:k]               # per-batch partial
            out_q.extend([qid] * len(top))
            out_v.extend(sub_vid[top].tolist())
            out_s.extend(col[top].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_v, pa.int64()),
                         "score": pa.array(out_s, pa.float64())})

    partial = ds.map_batches(probe_score, batch_format="pyarrow")

    def final_topk(group: pd.DataFrame) -> pa.Table:
        g = group.sort_values(["score", "vec_id"], ascending=[False, True]).head(k)
        return pa.table({
            "query_id": pa.array(g["query_id"].tolist(), pa.int64()),
            "vec_id": pa.array(g["vec_id"].tolist(), pa.int64()),
            "rank": pa.array(range(1, len(g) + 1), pa.int64()),
        })

    return partial.groupby("query_id").map_groups(final_topk, batch_format="pandas")


def hnsw_shard_candidates(sf_dir: str, n_queries: int = 5,
                          num_shards: int = 4, m: int = 8,
                          ef_construction: int = 64, ef_search: int = 48):
    """Per-shard HNSW candidate pools (query_id, vec_id, score).

    The distributed-ANN shape the reference's HNSW store
    (``vector/mod.rs:54-178``, feature-gated to ``instant_distance``)
    needs at scale: vectors hash-shard by id, each shard builds its own
    navigable-small-world graph INSIDE the shard's task
    (``functions/hnsw.py`` — deterministic levels, so the graph is
    reproducible under any partitioning), every query fans out to all
    shards, and each shard returns its ef_search layer-0 pool.  Build
    cost is per-shard, so shard count is the memory/build knob; the
    low-cardinality shard groupby is one exchange of the vector table."""
    import ray
    import ray.data as rd

    path = os.path.join(sf_dir, "embeddings.parquet")
    head = _lowest_vec_rows(path, n_queries)
    qids = head.column("vec_id").to_pylist()
    qmat = np.array(head.column("embedding").to_pylist(), dtype=np.float64)
    qref = ray.put((qids, qmat))
    ds = rd.read_parquet(path, columns=["vec_id", "embedding"])

    # the embeddings table's pandas metadata would make the sort's
    # schemas unhashable (see stages/hashagg.hash_grouped_aggregate)
    def shard_col(batch: pa.Table) -> pa.Table:
        vid = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        return batch.append_column(
            "shard", pa.array(vid % num_shards, pa.int64())
        ).replace_schema_metadata(None)

    def build_search(group: pa.Table) -> pa.Table:
        from ..functions.hnsw import HNSWIndex
        ids_, qm = ray.get(qref)
        keys = group.column("vec_id").to_pylist()
        vecs = np.array(group.column("embedding").to_pylist(),
                        dtype=np.float64)
        index = HNSWIndex(m=m, ef_construction=ef_construction).build(
            keys, vecs)
        oq, ov, osc = [], [], []
        for qid, q in zip(ids_, qm):
            for key, s in index.candidates(q, ef_search=ef_search):
                oq.append(qid)
                ov.append(key)
                osc.append(s)
        return pa.table({"query_id": pa.array(oq, pa.int64()),
                         "vec_id": pa.array(ov, pa.int64()),
                         "score": pa.array(osc, pa.float64())})

    return (ds.map_batches(shard_col, batch_format="pyarrow")
              .groupby("shard")          # low-cardinality: num_shards keys
              .map_groups(lambda g: build_search(g.drop_columns(["shard"])),
                          batch_format="pyarrow"))


def hnsw_topk(sf_dir: str, n_queries: int = 5, k: int = 10, cand_ds=None,
              **kw):
    """HNSW ANN top-k: global exact rerank of the per-shard candidate
    pools.  Same output schema as ``knn_bruteforce`` / ``ivf_topk``
    (query_id, vec_id, rank); recall gated by ``test_hnsw_recall``."""
    import pandas as pd

    cand = (cand_ds if cand_ds is not None
            else hnsw_shard_candidates(sf_dir, n_queries=n_queries, **kw))

    def final_topk(group: pd.DataFrame) -> pa.Table:
        g = group.sort_values(["score", "vec_id"],
                              ascending=[False, True]).head(k)
        return pa.table({
            "query_id": pa.array(g["query_id"].tolist(), pa.int64()),
            "vec_id": pa.array(g["vec_id"].tolist(), pa.int64()),
            "rank": pa.array(range(1, len(g) + 1), pa.int64()),
        })

    return cand.groupby("query_id").map_groups(final_topk,
                                               batch_format="pandas")


def lsh_planes(dim: int, n_planes: int = 12, seed: int = 7) -> np.ndarray:
    """The fixed random-hyperplane matrix used by ``lsh_buckets`` —
    exposed so its rows can be staged for the DuckDB oracle
    (sign(list_dot_product) repacked in SQL)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.normal(size=(n_planes, dim))


def lsh_buckets(sf_dir: str, n_planes: int = 12, seed: int = 7):
    """Random-hyperplane LSH bucket id per vector — the IVF/LSH scale path
    for ANN (bucket co-membership ⇒ candidate)."""
    import ray.data as rd

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(path, columns=["vec_id", "embedding"])
    planes_cache = {}

    def bucket(batch: pa.Table) -> pa.Table:
        vecs = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        dim = vecs.shape[1]
        if dim not in planes_cache:
            planes_cache[dim] = lsh_planes(dim, n_planes, seed)
        bits = (vecs @ planes_cache[dim].T) > 0
        ids = np.packbits(bits, axis=1, bitorder="little")
        buckets = np.zeros(len(vecs), dtype=np.int64)
        for i in range(ids.shape[1]):
            buckets |= ids[:, i].astype(np.int64) << (8 * i)
        return pa.table({"vec_id": batch.column("vec_id"),
                         "bucket": pa.array(buckets, pa.int64())})

    return ds.map_batches(bucket, batch_format="pyarrow")


# ------------------------------------------------------- text analysis --

def language_id(sf_dir: str):
    """Accent-heuristic language id (reference ``text/mod.rs:525-545``)."""
    def lang(batch: pa.Table) -> pa.Table:
        preds = [detect_language(t) for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "lang_pred": pa.array(preds, pa.string())})
    return _docs(sf_dir).map_batches(lang, batch_format="pyarrow")


def token_stats(sf_dir: str):
    """Whitespace token count + char count per doc (vectorized Arrow)."""
    def stats(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        # count whitespace-separated tokens via split_pattern lengths
        toks = pc.list_value_length(pc.split_pattern_regex(
            pc.utf8_trim_whitespace(text), r"\s+"))
        empty = pc.equal(pc.utf8_length(pc.utf8_trim_whitespace(text)), 0)
        toks = pc.if_else(empty, pa.scalar(0, pa.int32()), toks)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pc.cast(toks, pa.int64()),
            "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
        })
    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow")


def quality_scores(sf_dir: str):
    """Per-doc quality features (length / punct / stopword ratios)."""
    def q(batch: pa.Table) -> pa.Table:
        rows = [quality_stats(t) for t in batch.column("text").to_pylist()]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_chars": pa.array([r["n_chars"] for r in rows], pa.int64()),
            "n_words": pa.array([r["n_words"] for r in rows], pa.int64()),
            # raw IEEE f64 divisions — bit-identical to DuckDB's k*1.0/n,
            # so the oracle hash matches without rounding
            "punct_ratio": pa.array([r["punct_ratio"] for r in rows], pa.float64()),
            "stopword_ratio": pa.array([r["stopword_ratio"] for r in rows], pa.float64()),
        })
    return _docs(sf_dir).map_batches(q, batch_format="pyarrow")


def doc_fingerprints(sf_dir: str):
    """md5 fingerprint per doc (oracle-exact vs DuckDB md5())."""
    def fp(batch: pa.Table) -> pa.Table:
        fps = [fingerprint(t) for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "fp": pa.array(fps, pa.string())})
    return _docs(sf_dir).map_batches(fp, batch_format="pyarrow")


def winnow_fingerprints(sf_dir: str, k: int = 12, w: int = 5, docs_ds=None):
    """MOSS-style winnowing fingerprints (rolling k-gram hash + rightmost-
    min window selection; ``functions.dedup.Winnower``): one row per
    distinct selected gram, columns (doc_id, pos, fp).

    Zero-staging DuckDB oracle — the whole kernel (normalize, polynomial
    hash mod 2^64, window selection) is re-derived in SQL straight from
    ``documents.text``.  Stateless vectorized map over the docs; at scale
    the output is ~2/(w+1) fingerprints per normalized char, emitted
    block-local with no shuffle."""
    from ..functions.dedup import Winnower

    wn = Winnower(k=k, w=w)

    def fps(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        out_id, out_pos, out_fp = [], [], []
        for d, t in zip(ids, batch.column("text").to_pylist()):
            p, h = wn.fingerprints(t)
            out_id.append(np.full(p.size, d, np.int64))
            out_pos.append(p)
            out_fp.append(h)
        cat = (lambda xs: np.concatenate(xs) if xs else np.empty(0, np.int64))
        return pa.table({"doc_id": pa.array(cat(out_id), pa.int64()),
                         "pos": pa.array(cat(out_pos), pa.int64()),
                         "fp": pa.array(cat(out_fp), pa.int64())})

    docs = docs_ds if docs_ds is not None else _docs(sf_dir)
    return docs.map_batches(fps, batch_format="pyarrow")


def winnow_dup_pairs(sf_dir: str, k: int = 12, w: int = 5,
                     min_shared: int = 4, max_docs_per_fp: int = 16,
                     docs_ds=None):
    """Near-dup candidate pairs from shared winnowing fingerprints: docs
    sharing ≥ ``min_shared`` distinct fingerprint values, with the shared
    count.  Fingerprints held by more than ``max_docs_per_fp`` docs are
    dropped as stop-grams (ubiquitous substrings are non-discriminative —
    and at web scale a hot fingerprint bucket is a quadratic pair bomb);
    the cap is part of the operator contract and the oracle replays it.

    Same hot-key filter as ``minhash_lsh_candidates``: the hot set is
    ~|fps shared by 2..max_docs_per_fp docs| — unbounded in corpus dup
    mass — so it goes through ``stages/hashagg.semi_filter`` (broadcast
    below its byte budget, a bucketed semi-join above; the counts
    exchange runs again on that path).  Path equality is gated by
    ``tests/test_winnow_paths.py::test_winnow_broadcast_and_join_paths_equal``."""
    from ..stages.hashagg import (grouped_arrow_agg, hash_grouped_aggregate,
                                  semi_filter)

    fps = hash_grouped_aggregate(
        winnow_fingerprints(sf_dir, k, w, docs_ds=docs_ds), ["doc_id", "fp"],
        grouped_arrow_agg(["doc_id", "fp"], [("pos", "count")],
                          rename=["doc_id", "fp", "_n"])
    ).select_columns(["doc_id", "fp"]).materialize()
    counts = hash_grouped_aggregate(
        fps, ["fp"],
        grouped_arrow_agg(["fp"], [("doc_id", "count")], rename=["fp", "nd"]))
    hot = counts.filter(expr=f"nd > 1 and nd <= {max_docs_per_fp}")
    hot_fps = semi_filter(fps, hot.select_columns(["fp"]), "fp")

    def bucket_pairs(t: pa.Table) -> pa.Table:
        # whole BUCKET of colliding fps at once: sort, slice contiguous
        # fp-runs (≤ max_docs_per_fp each), emit i<j pairs per run — the
        # Python loop is per RUN, never a per-group Ray dispatch (at 1M
        # docs the native map_groups variant paid ~0.3 ms × millions of
        # colliding fps; measured 977 s -> this shape)
        df = t.to_pandas().sort_values(["fp", "doc_id"])
        fp = df["fp"].to_numpy()
        ids = df["doc_id"].to_numpy()
        starts = np.nonzero(np.concatenate([[True], fp[1:] != fp[:-1]]))[0]
        ends = np.concatenate([starts[1:], [fp.size]])
        a, b = [], []
        for s, e in zip(starts, ends):
            run = ids[s:e]
            for i in range(run.size):
                for j in range(i + 1, run.size):
                    a.append(run[i]); b.append(run[j])
        return pa.table({"doc_a": pa.array(np.array(a, np.int64)),
                         "doc_b": pa.array(np.array(b, np.int64))})

    cand = hash_grouped_aggregate(hot_fps, ["fp"], bucket_pairs)
    shared = hash_grouped_aggregate(
        cand, ["doc_a", "doc_b"],
        grouped_arrow_agg(["doc_a", "doc_b"], [("doc_a", "count")],
                          rename=["doc_a", "doc_b", "n_shared"]))
    return shared.filter(expr=f"n_shared >= {min_shared}")


def dup_span_profile(sf_dir: str, k: int = 40, w: int = 10, docs_ds=None):
    """Duplicate-span profiling (the detection half of Lee+ 2021 exact
    substring dedup): per doc, how many normalized chars are covered by
    winnowing fingerprints SHARED with at least one other document —
    interval union of the [pos, pos+k) spans (islands merged when gaps
    close under k, so overlap and adjacency both collapse; total length
    is rule-independent for adjacency, documented).  Defaults k=40/w=10
    ≈ Lee+'s 50-token bar scaled to normalized chars: any shared
    substring ≥ 49 normalized chars is guaranteed caught; at k=12 the
    corpus's ubiquitous 2-word grams mark 99% of docs (measured), at
    k=40 exactly the planted near-dup family (47/500 at sf0.01).

    Output (all integers): doc_id, norm_len, n_dup_positions, dup_chars,
    heavy_dup (= norm_len > 0 AND dup_chars ≥ 20% of norm_len, as 5·dup ≥
    norm_len).

    Scale shape: fingerprint instances → distinct (doc,fp) → per-fp doc
    counts (hash agg), shared instances via ``bucketed_join`` on fp
    (never a shared-fp broadcast — at web scale the shared set is not
    small), then ONE grouped pass per doc over a union of tagged
    norm-length rows and shared-position rows (no left join, no NaN
    dtype drift)."""
    from ..functions.dedup import Winnower
    from ..stages.hashagg import (bucketed_join, grouped_arrow_agg,
                                  hash_grouped_aggregate)

    docs = docs_ds if docs_ds is not None else _docs(sf_dir)
    fps = winnow_fingerprints(sf_dir, k, w, docs_ds=docs).materialize()

    shared = None
    if fps.schema() is not None:  # every doc shorter than k => no fps
        dfp = hash_grouped_aggregate(
            fps, ["doc_id", "fp"],
            grouped_arrow_agg(["doc_id", "fp"], [("pos", "count")],
                              rename=["doc_id", "fp", "_n"])
        ).select_columns(["doc_id", "fp"])
        counts = hash_grouped_aggregate(
            dfp, ["fp"],
            grouped_arrow_agg(["fp"], [("doc_id", "count")],
                              rename=["fp", "nd"])).materialize()
        if counts.schema() is not None:  # empty agg yields no schema
            shared = (bucketed_join(fps, counts.filter(expr="nd > 1"),
                                    on=["fp"])
                      .map_batches(lambda t: pa.table(
                          {"doc_id": t.column("doc_id"),
                           "pos": t.column("pos"),
                           "nl": pa.array([0] * len(t), pa.int64())}),
                          batch_format="pyarrow"))

    wn = Winnower(k=k, w=w)

    def norm_rows(batch: pa.Table) -> pa.Table:
        nls = [wn.norm_len(t) for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "pos": pa.array([-1] * len(batch), pa.int64()),
                         "nl": pa.array(nls, pa.int64())})

    tagged = docs.map_batches(norm_rows, batch_format="pyarrow")
    if shared is not None:
        tagged = tagged.union(shared)

    def profile(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["doc_id", "pos"])
        out = {"doc_id": [], "norm_len": [], "n_dup_positions": [],
               "dup_chars": []}
        for did, grp in df.groupby("doc_id", sort=False):
            nl = int(grp["nl"].max())
            pos = grp.loc[grp["pos"] >= 0, "pos"].to_numpy()
            pos = np.unique(pos)
            if pos.size:
                brk = np.nonzero(np.diff(pos) > k)[0]
                starts = np.concatenate([[0], brk + 1])
                ends = np.concatenate([brk, [pos.size - 1]])
                dup = int((pos[ends] - pos[starts] + k).sum())
            else:
                dup = 0
            out["doc_id"].append(int(did))
            out["norm_len"].append(nl)
            out["n_dup_positions"].append(int(pos.size))
            out["dup_chars"].append(dup)
        res = pa.table({c: pa.array(v, pa.int64()) for c, v in out.items()})
        heavy = [n > 0 and 5 * d >= n
                 for n, d in zip(out["norm_len"], out["dup_chars"])]
        return res.append_column("heavy_dup", pa.array(heavy, pa.bool_()))

    return hash_grouped_aggregate(tagged, ["doc_id"], profile)


def bm25_df(sf_dir: str):
    """Corpus document frequencies over the BM25 tokenizer
    (``retrieval/bm25.rs:70-113``): two-phase — per-batch distinct
    (term, doc) pairs, then a hash-bucketed vectorized count (vocab is a
    high-cardinality key; see ``stages/hashagg.py``)."""
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    def term_docs(batch: pa.Table) -> pa.Table:
        terms, dids = [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            for t in set(bm25_tokenize(text)):
                terms.append(t); dids.append(did)
        return pa.table({"term": pa.array(terms, pa.string()),
                         "doc_id": pa.array(dids, pa.int64())})

    return hash_grouped_aggregate(
        _docs(sf_dir).map_batches(term_docs, batch_format="pyarrow"),
        ["term"],
        grouped_arrow_agg(["term"], [("doc_id", "count")], rename=["term", "df"]))


def bm25_corpus_stats(sf_dir: str):
    """Global BM25 corpus stats: total docs, total tokens, avg doc length."""
    from ray.data.aggregate import Count, Mean, Sum

    def doclen(batch: pa.Table) -> pa.Table:
        lens = [len(bm25_tokenize(t)) for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "doc_len": pa.array(lens, pa.int64())})

    agg = (_docs(sf_dir)
           .map_batches(doclen, batch_format="pyarrow")
           .aggregate(Count(alias_name="n_docs"),
                      Sum("doc_len", alias_name="total_tokens"),
                      Mean("doc_len", alias_name="avg_doc_len")))
    # Dataset.aggregate returns a plain dict — shape it into a 1-row table
    return pa.table({
        "n_docs": pa.array([int(agg["n_docs"])], pa.int64()),
        "total_tokens": pa.array([int(agg["total_tokens"])], pa.int64()),
        "avg_doc_len": pa.array([float(agg["avg_doc_len"])], pa.float64()),
    })


def bm25_scores(sf_dir: str, query: str = "fast hash join", k1: float = 1.2, b: float = 0.75):
    """BM25 scoring of all documents against a fixed query — the full
    index-side semantics of ``retrieval/bm25.rs:70-153``: normalized TF
    (count/doc_len), Lucene IDF ln(N/df)+1, k1/b length normalization.
    Corpus stats (N, df per query term, avg doc length) are computed
    distributed, broadcast once, then scoring is a stateless map."""
    import ray

    q_terms = sorted(set(bm25_tokenize(query)))
    # prune the DF table to the query terms BEFORE it reaches the driver
    # (the vocabulary is corpus-sized; only |q_terms| rows are needed)
    qt = pa.array(q_terms, pa.string())

    def _keep_q(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column("term"), value_set=qt))

    df_tbl = (bm25_df(sf_dir).map_batches(_keep_q, batch_format="pyarrow")
              .to_pandas())
    df_map = {t: int(v) for t, v in zip(df_tbl["term"], df_tbl["df"])}
    import pyarrow.parquet as _pq
    n_docs = _pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows

    # avg doc length over the bm25 tokenizer
    stats = bm25_corpus_stats(sf_dir)
    avg_len = float(stats.column("avg_doc_len")[0].as_py())
    ref = ray.put((q_terms, df_map))

    def score(batch: pa.Table) -> pa.Table:
        terms, dfm = ray.get(ref)
        out_id, out_score = [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            toks = bm25_tokenize(text)
            dl = len(toks)
            if dl == 0:
                continue
            counts: dict[str, int] = {}
            for t in toks:
                counts[t] = counts.get(t, 0) + 1
            s = 0.0
            for t in terms:
                c = counts.get(t)
                if not c:
                    continue
                df_t = dfm.get(t, 0)
                if df_t == 0:
                    continue
                idf = math.log(n_docs / df_t) + 1.0
                tf = c / dl                       # normalized TF (bm25.rs:88-90)
                s += idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * dl / avg_len))
            if s > 0.0:
                out_id.append(did)
                out_score.append(round(s, 6))
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "score": pa.array(out_score, pa.float64())})

    return _docs(sf_dir).map_batches(score, batch_format="pyarrow")


def bm25_topk(sf_dir: str, query: str = "fast hash join", k: int = 10):
    """BM25 search: global top-k by score (``retrieval/bm25.rs:115-153``
    sort+truncate), deterministic tie-break by doc_id."""
    return (bm25_scores(sf_dir, query=query)
            .sort(["score", "doc_id"], descending=[True, False]).limit(k))


def sentence_stats(sf_dir: str):
    """Sentence count per doc (split on ``.!?``, non-empty trimmed
    segments; ``text/mod.rs:339-363``)."""
    from ..functions.textstats import sentence_count

    def stats(batch: pa.Table) -> pa.Table:
        ns = [sentence_count(t) for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_sentences": pa.array(ns, pa.int64())})

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow")


def tfidf_topk(sf_dir: str, top_k: int = 5):
    """Per-doc TF-IDF top-k keywords with a CORPUS DF table
    (``text/keyword_extraction.rs:37-58,143-153``): DF via hash-bucketed
    count, broadcast once (vocab is the small side), per-doc scoring
    vectorized in the map stage.  Output: (doc_id, rank, term)."""
    import ray
    from ..functions.keywords import tfidf_keywords, tfidf_tokenize
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    def term_docs(batch: pa.Table) -> pa.Table:
        terms, dids = [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            for t in set(tfidf_tokenize(text)):
                terms.append(t); dids.append(did)
        return pa.table({"term": pa.array(terms, pa.string()),
                         "doc_id": pa.array(dids, pa.int64())})

    df_tbl = hash_grouped_aggregate(
        _docs(sf_dir).map_batches(term_docs, batch_format="pyarrow"),
        ["term"],
        grouped_arrow_agg(["term"], [("doc_id", "count")], rename=["term", "df"])
    ).to_pandas()
    df_map = dict(zip(df_tbl["term"], df_tbl["df"].astype(int)))
    import pyarrow.parquet as _pq
    total_docs = _pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    ref = ray.put(df_map)

    def topk(batch: pa.Table) -> pa.Table:
        dfm = ray.get(ref)
        dids, ranks, terms = [], [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            for r, (term, _score) in enumerate(
                    tfidf_keywords(text, dfm, total_docs, top_k), 1):
                dids.append(did); ranks.append(r); terms.append(term)
        return pa.table({"doc_id": pa.array(dids, pa.int64()),
                         "rank": pa.array(ranks, pa.int64()),
                         "term": pa.array(terms, pa.string())})

    return _docs(sf_dir).map_batches(topk, batch_format="pyarrow")


def semantic_chunks(sf_dir: str):
    """Semantic chunking over documents — actor pool (the embedder's
    word-vector memo is per-actor state)."""
    from ..functions.semantic_chunking import SemanticChunker, SemanticChunkerConfig

    class SemanticChunkStage:
        def __init__(self):
            self.chunker = SemanticChunker(SemanticChunkerConfig(
                breakpoint_strategy="percentile", threshold_amount=80.0))

        def __call__(self, batch: pa.Table) -> pa.Table:
            dids, idxs, texts, counts = [], [], [], []
            for did, text in zip(batch.column("doc_id").to_pylist(),
                                 batch.column("text").to_pylist()):
                for i, c in enumerate(self.chunker.chunk(text or "")):
                    dids.append(did); idxs.append(i)
                    texts.append(c["text"]); counts.append(c["sentence_count"])
            return pa.table({"doc_id": pa.array(dids, pa.int64()),
                             "chunk_idx": pa.array(idxs, pa.int64()),
                             "text": pa.array(texts, pa.string()),
                             "sentence_count": pa.array(counts, pa.int64())})

    from ..stages.memo import memoized_stage
    fn = memoized_stage("semantic-chunks", SemanticChunkStage)
    return _docs(sf_dir).map_batches(fn, batch_format="pyarrow", batch_size=None)


# ------------------------------------------------------ temporal graph --

def temporal_edges(sf_dir: str):
    """Timestamped graph edges from the event stream: one edge per
    (user, event_type) with first_seen / last_seen / count — the
    table-shaped equivalent of the reference's temporal graph edges
    (``graph/temporal.rs``: timestamped edges with validity intervals)."""
    import ray.data as rd
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type", "ts"])
    return hash_grouped_aggregate(
        ds, ["user_id", "event_type"],
        grouped_arrow_agg(["user_id", "event_type"],
                          [("ts", "min"), ("ts", "max"), ("ts", "count")],
                          rename=["user_id", "event_type", "first_seen",
                                  "last_seen", "n_events"]))


def temporal_snapshot(sf_dir: str):
    """Temporal-graph snapshot at the corpus-midpoint timestamp
    (``graph/temporal.rs:174-186`` ``snapshot_at``: an edge is active when
    its validity interval [first_seen, last_seen] contains t;
    ``Snapshot::node_degree`` ``:101-107``).  Edge intervals come from the
    event stream (one edge per (user, event_type), as in
    ``temporal_edges``); output = per-node active-edge degree at t."""
    import ray.data as rd
    from ray.data.aggregate import Max, Min
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type", "ts"])
    rng = ds.aggregate(Min("ts", alias_name="lo"), Max("ts", alias_name="hi"))
    lo = pa.scalar(rng["lo"]).cast(pa.timestamp("us")).cast(pa.int64()).as_py()
    hi = pa.scalar(rng["hi"]).cast(pa.timestamp("us")).cast(pa.int64()).as_py()
    mid = (lo + hi) // 2

    intervals = hash_grouped_aggregate(
        ds, ["user_id", "event_type"],
        grouped_arrow_agg(["user_id", "event_type"],
                          [("ts", "min"), ("ts", "max")],
                          rename=["user_id", "event_type", "fs", "ls"]))

    def active(t: pa.Table) -> pa.Table:
        fs = pc.cast(t.column("fs"), pa.int64())
        ls = pc.cast(t.column("ls"), pa.int64())
        mask = pc.and_(pc.less_equal(fs, mid), pc.greater_equal(ls, mid))
        return t.filter(mask).select(["user_id", "event_type"])

    return hash_grouped_aggregate(
        intervals.map_batches(active, batch_format="pyarrow"), ["user_id"],
        grouped_arrow_agg(["user_id"], [("event_type", "count")],
                          rename=["user_id", "n_active"]))


# ------------------------------------------- temporal analytics ---------
# Port of the analytics half of ``graph/temporal.rs:271-407``
# (evolution_metrics, node_churn, top_growing_nodes, temporal_centrality)
# over the same event-derived interval-edge model as ``temporal_snapshot``:
# one edge per (user, event_type) valid over [first_seen, last_seen].
# Node ids are namespaced strings ('u<user_id>' / 'e:<event_type>') so the
# bipartite graph has the reference's generic string-node shape.


def _temporal_interval_edges(sf_dir: str, edges_ds=None):
    """(src, dst, fs, ls) interval edges.  ``edges_ds`` injects a pre-built
    edge table (the ported reference unit tests use the Rust test graph);
    otherwise edges derive from the events table exactly as
    ``temporal_snapshot`` does (timestamps as int64 epoch-µs)."""
    if edges_ds is not None:
        return edges_ds
    import ray.data as rd
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type", "ts"])
    iv = hash_grouped_aggregate(
        ds, ["user_id", "event_type"],
        grouped_arrow_agg(["user_id", "event_type"],
                          [("ts", "min"), ("ts", "max")],
                          rename=["user_id", "event_type", "fs", "ls"]))

    def nodes(t: pa.Table) -> pa.Table:
        uid = pc.binary_join_element_wise(
            pa.array(["u"] * t.num_rows, pa.string()),
            pc.cast(t.column("user_id"), pa.string()), "")
        et = pc.binary_join_element_wise(
            pa.array(["e:"] * t.num_rows, pa.string()),
            pc.cast(t.column("event_type"), pa.string()), "")
        return pa.table({
            "src": uid, "dst": et,
            "fs": pc.cast(pc.cast(t.column("fs"), pa.timestamp("us")),
                          pa.int64()),
            "ls": pc.cast(pc.cast(t.column("ls"), pa.timestamp("us")),
                          pa.int64())})

    return iv.map_batches(nodes, batch_format="pyarrow")


def _temporal_range(edges) -> tuple[int, int]:
    from ray.data.aggregate import Max, Min
    r = edges.aggregate(Min("fs", alias_name="lo"), Max("ls", alias_name="hi"))
    return int(r["lo"]), int(r["hi"])


def _temporal_windows(lo: int, hi: int, granularity: int | None):
    """``evolution_metrics``' window walk (``temporal.rs:273-291``):
    t = start; while t <= end: window [t, t+g]; t += g."""
    g = granularity if granularity else max(1, (hi - lo) // 8)
    starts = list(range(lo, hi + 1, g))
    return g, starts


def _window_expand(starts: list[int], g: int):
    """Edge batch → one row per (window, edge) the edge is active in
    (interval overlap ``temporal.rs:52-60``: fs ≤ w_end AND ls ≥ w_start)."""
    def fn(t: pa.Table) -> pa.Table:
        outs = []
        for w in starts:
            m = pc.and_(pc.less_equal(t.column("fs"), w + g),
                        pc.greater_equal(t.column("ls"), w))
            f = t.filter(m)
            outs.append(pa.table({
                "w": pa.array(np.full(f.num_rows, w, np.int64)),
                "src": f.column("src"), "dst": f.column("dst")}))
        return pa.concat_tables(outs)
    return fn


def _per_window_counts(edges, starts, g, wexp=None):
    """{window → (edge_count, node_count)} — distributed distinct-node
    counting (group (w, node) then count by w), tiny W-row collect.
    Pass a pre-materialized ``wexp`` to share one window expansion
    across consumers (``temporal_centrality`` reuses it for degrees)."""
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    if wexp is None:
        wexp = edges.map_batches(_window_expand(starts, g),
                                 batch_format="pyarrow").materialize()
    ec = hash_grouped_aggregate(
        wexp, ["w"], grouped_arrow_agg(["w"], [("src", "count")],
                                       rename=["w", "n"])).to_pandas()

    def nodes_of(col):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({"w": t.column("w"), "node": t.column(col)})
        return fn

    nodes = wexp.map_batches(nodes_of("src"), batch_format="pyarrow").union(
        wexp.map_batches(nodes_of("dst"), batch_format="pyarrow"))
    distinct = hash_grouped_aggregate(
        nodes, ["w", "node"],
        grouped_arrow_agg(["w", "node"], [("node", "count")],
                          rename=["w", "node", "_c"]))
    nc = hash_grouped_aggregate(
        distinct, ["w"], grouped_arrow_agg(["w"], [("node", "count")],
                                           rename=["w", "n"])).to_pandas()
    e_of = dict(zip(ec["w"], ec["n"]))
    n_of = dict(zip(nc["w"], nc["n"]))
    return {w: (int(e_of.get(w, 0)), int(n_of.get(w, 0))) for w in starts}


def temporal_evolution(sf_dir: str, granularity: int | None = None,
                       edges_ds=None) -> pa.Table:
    """``evolution_metrics`` (``temporal.rs:271-291``): per window —
    node_count, edge_count, density (``:110-119``: E / (N·(N−1)/2),
    integer max_edges), avg_degree (``:294-307``: Σdegree/N = 2E/N).
    Default granularity (hi−lo)//8 over the corpus time range.  All
    ratios are int/int float64 divisions — bit-exact vs the SQL oracle."""
    edges = _temporal_interval_edges(sf_dir, edges_ds).materialize()
    lo, hi = _temporal_range(edges)
    g, starts = _temporal_windows(lo, hi, granularity)
    counts = _per_window_counts(edges, starts, g)
    dens, avg = [], []
    for w in starts:
        e, n = counts[w]
        max_edges = (n * (n - 1)) // 2
        dens.append(e / max_edges if n >= 2 else 0.0)
        avg.append(2.0 * e / n if n else 0.0)
    return pa.table({
        "window_start": pa.array(starts, pa.int64()),
        "node_count": pa.array([counts[w][1] for w in starts], pa.int64()),
        "edge_count": pa.array([counts[w][0] for w in starts], pa.int64()),
        "density": pa.array(dens, pa.float64()),
        "avg_degree": pa.array(avg, pa.float64())})


def temporal_node_churn(sf_dir: str, edges_ds=None):
    """``node_churn`` (``temporal.rs:310-345``): point snapshots at the
    range endpoints (edge active at t iff fs ≤ t ≤ ls, ``:42-49``);
    status = added (end only) / removed (start only) / stable (both)."""
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    edges = _temporal_interval_edges(sf_dir, edges_ds).materialize()
    lo, hi = _temporal_range(edges)

    def flags(col):
        def fn(t: pa.Table) -> pa.Table:
            a0 = pc.and_(pc.less_equal(t.column("fs"), lo),
                         pc.greater_equal(t.column("ls"), lo))
            a1 = pc.and_(pc.less_equal(t.column("fs"), hi),
                         pc.greater_equal(t.column("ls"), hi))
            keep = pc.or_(a0, a1)
            f = pa.table({"node": t.column(col),
                          "at_start": pc.cast(a0, pa.int64()),
                          "at_end": pc.cast(a1, pa.int64())})
            return f.filter(keep)
        return fn

    nodes = edges.map_batches(flags("src"), batch_format="pyarrow").union(
        edges.map_batches(flags("dst"), batch_format="pyarrow"))
    per_node = hash_grouped_aggregate(
        nodes, ["node"],
        grouped_arrow_agg(["node"], [("at_start", "max"), ("at_end", "max")],
                          rename=["node", "s", "e"]))

    def status(t: pa.Table) -> pa.Table:
        s = t.column("s").to_numpy(zero_copy_only=False)
        e = t.column("e").to_numpy(zero_copy_only=False)
        st = np.where(s & e, "stable", np.where(e, "added", "removed"))
        return pa.table({"node": t.column("node"),
                         "status": pa.array(st.tolist(), pa.string())})

    return per_node.map_batches(status, batch_format="pyarrow")


def temporal_top_growing(sf_dir: str, top_k: int = 10,
                         granularity: int | None = None, edges_ds=None):
    """``top_growing_nodes`` (``temporal.rs:348-372``): degree in the
    first window [lo, lo+g] vs the last [hi−g, hi]; nodes present in the
    END snapshot score (end−start)/start (or end when start degree 0);
    top_k by growth desc.  The reference's tie order is HashSet iteration
    (nondeterministic); we fix ties by node asc — documented delta."""
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    edges = _temporal_interval_edges(sf_dir, edges_ds).materialize()
    lo, hi = _temporal_range(edges)
    g = granularity if granularity else max(1, (hi - lo) // 8)

    def window_degrees(ws, we):
        def fn(t: pa.Table) -> pa.Table:
            m = pc.and_(pc.less_equal(t.column("fs"), we),
                        pc.greater_equal(t.column("ls"), ws))
            f = t.filter(m)
            return pa.table({"node": pa.concat_arrays(
                [f.column("src").combine_chunks().cast(pa.string()),
                 f.column("dst").combine_chunks().cast(pa.string())])})
        return hash_grouped_aggregate(
            edges.map_batches(fn, batch_format="pyarrow"), ["node"],
            grouped_arrow_agg(["node"], [("node", "count")],
                              rename=["node", "deg"])).materialize()

    start_deg = window_degrees(lo, lo + g)
    end_deg = window_degrees(hi - g, hi)
    from ..stages.hashagg import bucketed_join
    joined = bucketed_join(
        end_deg.map_batches(lambda t: t.rename_columns(["node", "e"]),
                            batch_format="pyarrow"),
        start_deg.map_batches(lambda t: t.rename_columns(["node", "s"]),
                              batch_format="pyarrow"),
        ["node"], how="left").materialize()

    def growth(t: pa.Table) -> pa.Table:
        e = t.column("e").to_numpy(zero_copy_only=False).astype(np.float64)
        s = pc.fill_null(pc.cast(t.column("s"), pa.int64()), 0) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        gr = np.where(s > 0, (e - s) / np.where(s > 0, s, 1.0), e)
        return pa.table({"node": t.column("node"),
                         "growth": pa.array(gr, pa.float64())})

    return (joined.map_batches(growth, batch_format="pyarrow")
            .sort([("growth"), ("node")], descending=[True, False])
            .limit(top_k))


def temporal_centrality(sf_dir: str, granularity: int | None = None,
                        edges_ds=None):
    """``temporal_centrality`` (``temporal.rs:375-395``) tabled over ALL
    active nodes: per window, centrality = degree / (node_count − 1)
    (0 when the window has ≤ 1 node).  The reference's single-node call
    is a lookup into this table; windows where a node is inactive
    (degree 0 rows) are omitted — documented delta."""
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    edges = _temporal_interval_edges(sf_dir, edges_ds).materialize()
    lo, hi = _temporal_range(edges)
    g, starts = _temporal_windows(lo, hi, granularity)
    wexp = edges.map_batches(_window_expand(starts, g),
                             batch_format="pyarrow").materialize()
    counts = _per_window_counts(edges, starts, g, wexp=wexp)
    nc_of = {w: counts[w][1] for w in starts}

    def nodes(t: pa.Table) -> pa.Table:
        return pa.table({
            "w": pa.concat_arrays([t.column("w").combine_chunks().cast(pa.int64())] * 2),
            "node": pa.concat_arrays(
                [t.column("src").combine_chunks().cast(pa.string()),
                 t.column("dst").combine_chunks().cast(pa.string())])})

    deg = hash_grouped_aggregate(
        wexp.map_batches(nodes, batch_format="pyarrow"), ["w", "node"],
        grouped_arrow_agg(["w", "node"], [("node", "count")],
                          rename=["w", "node", "deg"]))

    def cent(t: pa.Table) -> pa.Table:
        w = t.column("w").to_numpy(zero_copy_only=False)
        d = t.column("deg").to_numpy(zero_copy_only=False).astype(np.float64)
        nc = np.array([nc_of[x] for x in w], np.float64)
        c = np.where(nc > 1, d / np.where(nc > 1, nc - 1.0, 1.0), 0.0)
        return pa.table({"node": t.column("node"),
                         "window_start": pa.array(w, pa.int64()),
                         "centrality": pa.array(c, pa.float64())})

    return deg.map_batches(cent, batch_format="pyarrow")


# ------------------------------------------------------ web cleaning --

def c4_clean(sf_dir: str, min_kept_lines: int = 3, docs_ds=None):
    """C4 document cleaning (Raffel+ 2020 §2.2, `functions.webclean.
    c4_clean`): line filters (terminal punctuation, >= 5 words, no
    'javascript') + doc gates (curly brace, 'lorem ipsum', >= 3 surviving
    lines).  Stateless vectorized-enough map, no shuffle; all counters are
    integers and the cleaned text is a deterministic splice, so the
    DuckDB oracle re-derives everything from ``documents.text`` with zero
    staging."""
    from ..functions.webclean import c4_clean as _c4

    def stats(batch: pa.Table) -> pa.Table:
        rows = [_c4(t, min_kept_lines)
                for t in batch.column("text").to_pylist()]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_lines": pa.array([r["n_lines"] for r in rows], pa.int64()),
            "n_kept_lines": pa.array([r["n_kept_lines"] for r in rows],
                                     pa.int64()),
            "has_brace": pa.array([r["has_brace"] for r in rows], pa.bool_()),
            "has_lorem": pa.array([r["has_lorem"] for r in rows], pa.bool_()),
            "keep": pa.array([r["keep"] for r in rows], pa.bool_()),
            "cleaned": pa.array([r["cleaned"] for r in rows], pa.string()),
        })

    docs = docs_ds if docs_ds is not None else _docs(sf_dir)
    return docs.map_batches(stats, batch_format="pyarrow")


def pii_redact(sf_dir: str, docs_ds=None):
    """PII redaction (CCNet / BigScience-ROOTS style,
    `functions.webclean.pii_redact`): emails → IPv4 → phone numbers
    replaced by typed placeholder tokens in a pinned pass order, with
    per-type non-overlapping match counts.  Stateless map over compiled
    module-level regexes (RE2-compatible: no lookaround, no capture
    groups, no \\b), zero-staging oracle via regexp_replace/g."""
    from ..functions.webclean import pii_redact as _pii

    def redact(batch: pa.Table) -> pa.Table:
        rows = [_pii(t) for t in batch.column("text").to_pylist()]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_email": pa.array([r["n_email"] for r in rows], pa.int64()),
            "n_ip": pa.array([r["n_ip"] for r in rows], pa.int64()),
            "n_phone": pa.array([r["n_phone"] for r in rows], pa.int64()),
            "redacted": pa.array([r["redacted"] for r in rows], pa.string()),
        })

    docs = docs_ds if docs_ds is not None else _docs(sf_dir)
    return docs.map_batches(redact, batch_format="pyarrow")


# --------------------------------------------- training-order shuffle --

def shuffle_shards(sf_dir: str, n_shards: int = 16, seed: str = "shuf",
                   docs_ds=None, bucket_hex: int = 4):
    """Deterministic global training-order shuffle + shard manifest:
    every doc gets its position in the md5-permuted corpus order and
    the output shard that position falls in (contiguous equal chop, the
    way a shuffled stream is cut into training files).  Hash order makes
    the shuffle seeded, rerun- and reshard-invariant — the GPT/LLaMA
    data-order reproducibility requirement — with no random state.

    Scale shape — a distributed exact order-statistic, NOT a global
    sort: docs bucket by the first ``bucket_hex`` md5 hex chars (hex
    order ≡ hash order; 4 chars = 65536 buckets keeps groups ~15M docs
    at 10^12), per-bucket counts roll up to the driver (one int per
    bucket), a prefix walk yields each bucket's base offset, and ranks
    WITHIN a bucket come from one grouped pass — so the only exchange is
    the bucket groupby, never an all-to-all sort of the corpus."""
    import ray
    from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate

    def stats(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        hs = [hashlib.md5(f"{seed}:{d}".encode()).hexdigest() for d in ids]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "h": pa.array(hs, pa.string()),
                         "b": pa.array([int(x[:bucket_hex], 16) for x in hs],
                                       pa.int64()),
                         "one": pa.array([1] * len(ids), pa.int64())})

    docs = (docs_ds if docs_ds is not None else
            _docs(sf_dir, columns=("doc_id",)))
    st = docs.map_batches(stats, batch_format="pyarrow").materialize()

    counts = hash_grouped_aggregate(
        st, ["b"], grouped_arrow_agg(["b"], [("one", "sum")],
                                     rename=["b", "n"])).to_pandas()
    if counts.empty or "b" not in counts.columns:   # empty corpus
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "pos": pa.array([], pa.int64()),
            "shard": pa.array([], pa.int64()),
            "shard_pos": pa.array([], pa.int64())}))
    counts = counts.sort_values("b")
    total = int(counts["n"].sum())
    base = dict(zip(counts["b"].astype(int),
                    counts["n"].cumsum().shift(fill_value=0).astype(int)))
    base_ref = ray.put(base)

    def resolve(t: pa.Table) -> pa.Table:
        bmap = ray.get(base_ref)
        df = t.to_pandas().sort_values(["b", "h", "doc_id"])
        pos = (df["b"].map(bmap).to_numpy(dtype=np.int64)
               + df.groupby("b").cumcount().to_numpy(dtype=np.int64))
        shard = pos * n_shards // total
        start = (shard * total + n_shards - 1) // n_shards
        return pa.table({"doc_id": pa.array(df["doc_id"], pa.int64()),
                         "pos": pa.array(pos, pa.int64()),
                         "shard": pa.array(shard, pa.int64()),
                         "shard_pos": pa.array(pos - start, pa.int64())})

    return hash_grouped_aggregate(st, ["b"], resolve)


# ------------------------------------- sharded training-corpus sink --

def write_corpus_shards(curated_dir: str, out_dir: str,
                        num_shards: int = 64, seed: str = "shuf",
                        input_token: str = "") -> dict:
    """Materialize a curated document table as a shuffled, sharded
    training corpus: ``shard=K/`` Parquet partitions in deterministic
    md5 training order (``shuffle_shards`` manifest joined back onto the
    rows), each partition with a lineage manifest.

    Resume is PARTITION-granular, the same contract as the KG graph sink
    (``pipelines/kg.py::write_graph``): a rerun with the same
    ``(num_shards, seed, input_token)`` returns immediately when the
    top-level manifest matches, otherwise rewrites ONLY the shards whose
    manifest is missing or stale — data always lands before its
    manifest, so a crashed write never looks complete."""
    import glob
    import shutil

    import ray.data as rd

    from ..stages import hashagg

    def shard_fp(k: int) -> str:
        return fingerprint_config("corpus-shard", input_token, num_shards,
                                  seed, f"shard={k}")

    def count_rows(d: str) -> int:
        import pyarrow.dataset as pads
        files = glob.glob(os.path.join(d, "*.parquet"))
        return pads.dataset(files).count_rows() if files else 0

    top_fp = fingerprint_config("corpus", input_token, num_shards, seed)
    if stage_complete(out_dir, top_fp):
        return read_manifest(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    done = {k for k in range(num_shards)
            if stage_complete(os.path.join(out_dir, f"shard={k}"),
                              shard_fp(k))}
    if not done:
        for entry in glob.glob(os.path.join(out_dir, "shard=*")):
            shutil.rmtree(entry)       # config change / first run
    missing = [k for k in range(num_shards) if k not in done]
    for k in missing:                  # data without manifest = crash
        d = os.path.join(out_dir, f"shard={k}")
        if os.path.exists(d):
            shutil.rmtree(d)

    # only a genuinely file-less curated dir counts as an empty corpus;
    # a corrupt file / transient FS error must propagate, not silently
    # complete the job with rows=0 manifests
    if glob.glob(os.path.join(curated_dir, "**", "*.parquet"),
                 recursive=True):
        curated_ds = rd.read_parquet(curated_dir)
        n_curated = curated_ds.count()
    else:
        curated_ds = None
        n_curated = 0
    written = list(missing)
    if missing and n_curated == 0:
        for k in missing:      # an empty corpus still completes: every
            d = os.path.join(out_dir, f"shard={k}")   # shard is empty
            os.makedirs(d, exist_ok=True)
            write_manifest(d, "corpus_shard", shard_fp(k), rows=0)
        missing = []
    if missing:
        # the (doc_id → pos, shard) ORDER manifest is a pure function of
        # (curated ids, seed, num_shards) — stage it beside the shards so
        # a crash-redo reads it back (~2 s) instead of recomputing the
        # distributed order statistic (~31 s at 9.4M docs)
        order_dir = os.path.join(out_dir, "_order")
        stage_parquet(order_dir,
                      fingerprint_config("corpus-order", input_token,
                                         num_shards, seed),
                      lambda: shuffle_shards(
                          "", n_shards=num_shards, seed=seed,
                          docs_ds=curated_ds.map_batches(
                              lambda t: t.select(["doc_id"]),
                              batch_format="pyarrow")))
        manifest_ds = rd.read_parquet(glob.glob(
            os.path.join(order_dir, "*.parquet")))
        if done:
            # RESUME: the inner join on the missing shards' manifest rows
            # keeps only their docs.  When their int64 doc_ids fit the
            # broadcast budget, the curated table also drops finished
            # rows MAP-SIDE first, so the exchange moves only the redone
            # shards' text (measured: a 2-of-64-shard redo paid ~90% of
            # the full write through the unpruned join); above it, a
            # sharded prune would only add a second text exchange.
            todo = pa.array(missing, pa.int64())
            manifest_ds = manifest_ds.map_batches(
                lambda t: t.filter(pc.is_in(t.column("shard"),
                                            value_set=todo)),
                batch_format="pyarrow").materialize()
            if 8 * manifest_ds.count() <= hashagg.BROADCAST_KEY_BYTES:
                curated_ds = hashagg.semi_filter(
                    curated_ds, manifest_ds.select_columns(["doc_id"]),
                    "doc_id")
        joined = hashagg.bucketed_join(curated_ds, manifest_ds, ["doc_id"])
        joined.write_parquet(out_dir, partition_cols=["shard"])
        for k in missing:
            d = os.path.join(out_dir, f"shard={k}")
            os.makedirs(d, exist_ok=True)   # empty shards get a dir too
            write_manifest(d, "corpus_shard", shard_fp(k),
                           rows=count_rows(d))

    shard_rows = {k: read_manifest(
        os.path.join(out_dir, f"shard={k}"))["rows"]
        for k in range(num_shards)}
    return write_manifest(out_dir, "corpus", top_fp,
                          rows=sum(shard_rows.values()),
                          extra={"num_shards": num_shards,
                                 "resumed_shards": sorted(done),
                                 "written_shards": written,
                                 "shard_rows": {str(k): v for k, v
                                                in shard_rows.items()}})


# ------------------------------------------------ corpus snapshot diff --

def corpus_diff(sf_dir: str, docs_ds=None, prev_ds=None):
    """Cross-snapshot corpus diff (the iterative-crawl bookkeeping step):
    per doc_id, status vs the previous snapshot — ``added`` (new id),
    ``removed`` (id gone), ``changed`` (md5(text) differs), ``same``.

    Shape: one bucketed full-outer join on doc_id comparing text
    fingerprints — no text ever crosses the exchange, only (id, md5).
    Without an explicit ``prev_ds`` the previous snapshot derives
    DETERMINISTICALLY from the current table (so the oracle re-derives
    it with zero staging): docs with ``doc_id % 11 == 3`` are treated as
    new (absent from prev), prev text for ``doc_id % 13 == 5`` was the
    first half of the current text (changed), and prev additionally
    held ids ``1_000_000_000 + doc_id`` for ``doc_id % 17 == 2``
    (removed since)."""
    from ..stages.hashagg import hash_grouped_aggregate

    docs = docs_ds if docs_ds is not None else _docs(sf_dir)

    def cur_fp(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        fps = [hashlib.md5(t.encode()).hexdigest()
               for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "fp": pa.array(fps, pa.string()),
                         "side": pa.array([0] * len(ids), pa.int64())})

    def prev_fp(batch: pa.Table) -> pa.Table:
        ids, fps = [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            if d % 11 != 3:                      # existed before
                old = t[:len(t) // 2] if d % 13 == 5 else t
                ids.append(d)
                fps.append(hashlib.md5(old.encode()).hexdigest())
            if d % 17 == 2:                      # a doc removed since
                ids.append(1_000_000_000 + d)
                fps.append(hashlib.md5(f"gone:{d}".encode()).hexdigest())
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "fp": pa.array(fps, pa.string()),
                         "side": pa.array([1] * len(ids), pa.int64())})

    cur = docs.map_batches(cur_fp, batch_format="pyarrow")
    prev = (prev_ds.map_batches(
        lambda t: t.append_column("side", pa.array([1] * t.num_rows,
                                                   pa.int64())),
        batch_format="pyarrow") if prev_ds is not None
        else docs.map_batches(prev_fp, batch_format="pyarrow"))

    def verdict(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        out_id, out_st = [], []
        for d, g in df.groupby("doc_id"):
            sides = dict(zip(g["side"], g["fp"]))
            if 1 not in sides:
                st = "added"
            elif 0 not in sides:
                st = "removed"
            elif sides[0] == sides[1]:
                st = "same"
            else:
                st = "changed"
            out_id.append(int(d))
            out_st.append(st)
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "status": pa.array(out_st, pa.string())})

    both = cur.union(prev)
    return hash_grouped_aggregate(both, ["doc_id"], verdict)
