"""LazyGraphRAG-style concept graph construction (deterministic, no LLM).

Reference path: ``lightrag/concept_graph.rs`` — concepts per chunk, global
concept→chunk-set table, co-occurrence edges (shared-chunk count ≥ 2) with
Jaccard confidence.

Ray design (round-2 rework, VERDICT r01 task 2): ONE extraction pass emits
a ``(chunk_id, concepts: list<string>)`` row per chunk; everything else is
vectorized off that small table —

- mention rows via Arrow ``list_flatten`` / ``list_parent_indices``
  (zero Python loops),
- the concept vocabulary + per-concept chunk counts via the hash-bucketed
  aggregate, broadcast once (documented assumption: the VOCABULARY fits in
  worker memory; chunk sets never materialize anywhere),
- within-chunk pairs as int32-encoded rows built with cached
  ``np.triu_indices`` + fancy indexing (the pair explosion is O(c²) per
  chunk — faithful to the reference — but each pair costs two int32 on
  the wire, pre-collapsed by a per-batch pyarrow combiner BEFORE the
  shuffle, so the exchange ships partial counts, not raw pairs).

``max_concepts_per_chunk`` (optional) truncates each chunk's sorted
concept list before pairing — the same spirit as the reference's top-20
keyword cap (``concept_graph.rs:237-244``); None preserves the uncapped
reference edge semantics.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.concepts import extract_concepts
from ..stages.hashagg import grouped_arrow_agg, hash_grouped_aggregate


def concept_chunk_lists(chunks_ds, max_concepts: int | None = None):
    """chunks → one row per chunk: (chunk_id, concepts list, sorted+deduped
    [, truncated to ``max_concepts``])."""

    def extract(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        if max_concepts is None:
            lists = [extract_concepts(t) for t in texts]
        else:
            lists = [extract_concepts(t)[:max_concepts] for t in texts]
        return pa.table({"chunk_id": batch.column("chunk_id"),
                         "concepts": pa.array(lists, pa.list_(pa.string()))})

    return chunks_ds.map_batches(extract, batch_format="pyarrow")


def mentions_from_lists(lists_ds):
    """(chunk_id, concepts) → (concept, chunk_id) rows — fully vectorized."""

    def flatten(batch: pa.Table) -> pa.Table:
        col = batch.column("concepts")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return pa.table({
            "concept": pc.list_flatten(col),
            "chunk_id": pc.take(batch.column("chunk_id"),
                                pc.list_parent_indices(col)),
        })

    return lists_ds.map_batches(flatten, batch_format="pyarrow")


def concept_mention_rows(chunks_ds, max_concepts: int | None = None):
    """chunks → (concept, chunk_id) rows (one per concept per chunk)."""
    return mentions_from_lists(concept_chunk_lists(chunks_ds, max_concepts))


def concept_table_from_mentions(mentions_ds):
    """concept → n_chunks (hash-bucketed count over mention rows)."""
    return hash_grouped_aggregate(
        mentions_ds, ["concept"],
        grouped_arrow_agg(["concept"], [("chunk_id", "count")],
                          rename=["concept", "n_chunks"]))


_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _triu(k: int) -> tuple[np.ndarray, np.ndarray]:
    t = _TRIU_CACHE.get(k)
    if t is None:
        t = np.triu_indices(k, 1)
        _TRIU_CACHE[k] = t
    return t


def _pair_spans(col: pa.Array):
    """Flattened list column → (flat values, offsets, lengths) for the
    cached-triu pair explosion."""
    flat = pc.list_flatten(col)
    lens = pc.list_value_length(col).to_numpy().astype(np.int64)
    offs = np.concatenate(([0], np.cumsum(lens)))
    return flat, offs, lens


def _concept_edges_bucketed(lists_ds, co_occurrence_threshold: int):
    """Scale path (no driver-collected vocabulary): within-chunk pairs
    ship as STRING pairs (per-batch combined), the per-concept chunk
    counts stay a Dataset, and the Jaccard denominator arrives through
    two bucketed joins — nothing ships whole, the distinct-concept
    table can exceed driver memory.  Same arithmetic as the broadcast
    path (float64 ``n / (na + nb - n)``), so the two paths are
    bit-equal."""
    from ..stages.hashagg import bucketed_join, exchange_blocks

    # materialize + coalesce: counts_ds has TWO consumers (a diamond —
    # the CLAUDE.md materialize-before-diamond rule) and feeds two
    # bucketed joins whose schema probes would otherwise re-run its
    # aggregate; coalescing avoids the tiny-block sort fan
    counts_ds = concept_table_from_mentions(mentions_from_lists(lists_ds))
    counts_ds = counts_ds.repartition(
        exchange_blocks(counts_ds, 64)).materialize()

    def string_pairs(batch: pa.Table) -> pa.Table:
        col = batch.column("concepts")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat, offs, lens = _pair_spans(col)
        vals = flat.to_numpy(zero_copy_only=False)
        ia_parts, ib_parts = [], []
        for o, k in zip(offs[:-1], lens):
            if k > 1:
                i, j = _triu(int(k))
                ia_parts.append(vals[o + i])
                ib_parts.append(vals[o + j])
        if ia_parts:
            ca = np.concatenate(ia_parts)
            cb = np.concatenate(ib_parts)
        else:
            ca = cb = np.empty(0, object)
        t = pa.table({"concept_a": pa.array(ca, pa.string()),
                      "concept_b": pa.array(cb, pa.string())})
        g = t.group_by(["concept_a", "concept_b"]).aggregate(
            [("concept_a", "count")])
        return g.rename_columns(["concept_a", "concept_b", "n"])

    pair_counts = hash_grouped_aggregate(
        lists_ds.map_batches(string_pairs, batch_format="pyarrow"),
        ["concept_a", "concept_b"],
        grouped_arrow_agg(["concept_a", "concept_b"], [("n", "sum")],
                          rename=["concept_a", "concept_b", "count"]))

    thr = co_occurrence_threshold
    pairs_thr = pair_counts.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("count"), thr)),
        batch_format="pyarrow").materialize()   # lineage cut before the
    if pairs_thr.count() == 0:                  # two join consumers
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "concept_a": pa.array([], pa.string()),
            "concept_b": pa.array([], pa.string()),
            "count": pa.array([], pa.int64()),
            "confidence": pa.array([], pa.float64())}))

    def _renamed(side):
        def f(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({side: pa.array([], pa.string()),
                                 f"_n_{side}": pa.array([], pa.int64())})
            return pa.table({side: t.column("concept"),
                             f"_n_{side}": t.column("n_chunks")})
        return f

    j = bucketed_join(pairs_thr,
                      counts_ds.map_batches(_renamed("concept_a"),
                                            batch_format="pyarrow"),
                      ["concept_a"])
    j = j.repartition(exchange_blocks(j, 64)).materialize()
    j = bucketed_join(j,
                      counts_ds.map_batches(_renamed("concept_b"),
                                            batch_format="pyarrow"),
                      ["concept_b"])

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("count").to_numpy().astype(np.float64)
        na = batch.column("_n_concept_a").to_numpy().astype(np.float64)
        nb = batch.column("_n_concept_b").to_numpy().astype(np.float64)
        union = na + nb - n
        conf = np.divide(n, union, out=np.zeros_like(n), where=union != 0)
        return pa.table({
            "concept_a": batch.column("concept_a"),
            "concept_b": batch.column("concept_b"),
            "count": batch.column("count"),
            "confidence": pa.array(conf, pa.float64()),
        })

    return j.map_batches(finish, batch_format="pyarrow")


def concept_edges_from_lists(lists_ds, co_occurrence_threshold: int = 2,
                             vocab_broadcast_limit: int = 5_000_000):
    """Edges with shared-chunk count ≥ threshold and Jaccard confidence
    (``concept_graph.rs:389-448``) from a materialized per-chunk concept
    list table.  Two paths on the vocabulary size:

    * ≤ ``vocab_broadcast_limit`` distinct concepts (the fast path):
      the pair exchange is int32-dictionary-encoded against the sorted
      driver-collected vocabulary (concept lists are sorted, so encoded
      ia < ib holds by construction) and pre-aggregated per batch
      before the shuffle;
    * above it (open-vocabulary web scale), ``_concept_edges_bucketed``
      — string pairs + Dataset counts + bucketed Jaccard joins, no
      driver collection anywhere.  The cap is enforced DURING the
      driver combine (abort as soon as the accumulating distinct count
      crosses the limit), so the driver never holds more than
      ``vocab_broadcast_limit`` entries even on the overflow route."""
    import pandas as pd
    import ray

    # vocabulary counts via per-batch partials + driver combine: lists
    # are deduped per chunk, so value_counts over mention rows == chunks
    # per concept; only (concept, partial) rows ship — no bucket
    # exchange for a driver-collected table (was 1.75 s of 3.8 s)
    def _partial_counts(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t.column("concept").combine_chunks())
        return pa.table({"concept": vc.field("values"),
                         "n_chunks": vc.field("counts")})

    acc: dict[str, int] = {}
    overflow = False
    for b in (mentions_from_lists(lists_ds)
              .map_batches(_partial_counts, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        if b.num_rows == 0:
            continue
        for c, n in zip(b.column("concept").to_pylist(),
                        b.column("n_chunks").to_pylist()):
            acc[c] = acc.get(c, 0) + n
        if len(acc) > vocab_broadcast_limit:
            overflow = True
            break
    if overflow:
        return _concept_edges_bucketed(lists_ds, co_occurrence_threshold)

    counts_df = pd.DataFrame(
        {"concept": pd.Series(list(acc.keys()), dtype=object),
         "n_chunks": pd.Series(list(acc.values()), dtype=np.int64)})
    counts_df = counts_df.sort_values("concept").reset_index(drop=True)
    vocab = counts_df["concept"].tolist()
    n_chunks = counts_df["n_chunks"].astype(np.int64).to_numpy()
    vocab_ref = ray.put((vocab, n_chunks))

    # per-worker memo of the encode Index (the deserialized closure object
    # is cached per worker process, so the dict persists across batches)
    _worker_cache: dict[str, pd.Index] = {}

    def encode_pairs(batch: pa.Table) -> pa.Table:
        idx = _worker_cache.get("idx")
        if idx is None:
            voc, _ = ray.get(vocab_ref)
            idx = pd.Index(voc)
            _worker_cache["idx"] = idx
        col = batch.column("concepts")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        enc = idx.get_indexer(pc.list_flatten(col).to_pandas()).astype(np.int32)
        lens = pc.list_value_length(col).to_numpy().astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(lens)))
        ia_parts, ib_parts = [], []
        for o, k in zip(offs[:-1], lens):
            if k > 1:
                i, j = _triu(int(k))
                ia_parts.append(enc[o + i])
                ib_parts.append(enc[o + j])
        if ia_parts:
            ia = np.concatenate(ia_parts)
            ib = np.concatenate(ib_parts)
        else:
            ia = ib = np.empty(0, np.int32)
        # per-batch combiner: collapse duplicate pairs pre-shuffle
        t = pa.table({"ia": pa.array(ia), "ib": pa.array(ib)})
        g = t.group_by(["ia", "ib"]).aggregate([("ia", "count")])
        return g.rename_columns(["ia", "ib", "n"])

    pair_counts = hash_grouped_aggregate(
        lists_ds.map_batches(encode_pairs, batch_format="pyarrow"),
        ["ia", "ib"],
        grouped_arrow_agg(["ia", "ib"], [("n", "sum")],
                          rename=["ia", "ib", "count"]))

    thr = co_occurrence_threshold

    def finish(batch: pa.Table) -> pa.Table:
        voc, counts = ray.get(vocab_ref)
        batch = batch.filter(pc.greater_equal(batch.column("count"), thr))
        ia = batch.column("ia").to_numpy()
        ib = batch.column("ib").to_numpy()
        n = batch.column("count").to_numpy().astype(np.float64)
        union = counts[ia].astype(np.float64) + counts[ib] - n
        conf = np.divide(n, union, out=np.zeros_like(n), where=union != 0)
        voc_arr = pa.array(voc, pa.string())
        return pa.table({
            "concept_a": pc.take(voc_arr, pa.array(ia)),
            "concept_b": pc.take(voc_arr, pa.array(ib)),
            "count": batch.column("count"),
            "confidence": pa.array(conf, pa.float64()),
        })

    return pair_counts.map_batches(finish, batch_format="pyarrow")
