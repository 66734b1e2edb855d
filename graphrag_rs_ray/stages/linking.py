"""Fuzzy (near-duplicate) entity linking — the non-exact canonicalization
tier.

The reference's greedy single-pass clustering
(``string_similarity_linker.rs:68-127``) is order-dependent and O(n²) over
the WHOLE entity set — not shuffle-friendly.  Equivalent scalable design
(SURVEY §2.6): block entities by ``(type, soundex(first name token))``,
run the reference's greedy clustering INSIDE each block over a
deterministic sort order (by entity_id), emit (entity_id → canonical_id)
link rows.  Cross-block pairs are by construction phonetically dissimilar
first tokens, which at min_similarity=0.85 almost never link — this is the
documented partitioning assumption.

Blocks reach their clusterer through ``hashagg.hash_grouped_aggregate``
keyed on the block key: one exchange into a fixed number of hash
buckets, then one Arrow table per bucket that is sorted by
(block_key, entity_id) and walked block by block.  Block keys are fine,
not coarse — on an open vocabulary there are about 0.62 blocks per
entity and most blocks are singletons — so a native per-block
``map_groups`` would pay Ray's per-group cost for nearly every entity.

The resulting link set is tiny relative to the corpus (typo variants
only), so BELOW ``link_broadcast_limit`` it is broadcast via ``ray.put``
and applied inside ``map_batches`` (vectorized ``index_in`` lookups).
Above the limit (open-vocabulary web scale, where "tiny relative to the
corpus" still exceeds driver memory) the links stay a Dataset end-to-end
and remapping becomes a bucketed left join per remapped column
(``remap_column_bucketed``) — the two-path pattern established by
``semantic_edges``.
"""

from __future__ import annotations

import logging

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.similarity import (LinkingConfig, greedy_cluster,
                                    normalize_string, soundex)


logger = logging.getLogger(__name__)

_VOWELS = frozenset("aeiou ")


def _sub_block_key(name: str, cfg: LinkingConfig) -> str:
    """Secondary blocking key for the opt-in ``max_block_size`` bound:
    (first-2-consonants, length-band-of-8) of the normalized name.
    Consonants rather than raw chars because single-char typos are
    disproportionately vowel substitutions (soundex ignores vowels for
    the same reason) — a vowel-swap variant keeps its consonant skeleton
    and its length, so it stays in its original's sub-block (measured:
    raw first-2-chars cut planted vowel-typo recall 0.64→0.18 at 1M;
    consonants keep it, BASELINE.md).  Typos in the first two consonants
    or across a band boundary still diverge — the measured cost of the
    bound."""
    norm = normalize_string(name or "", cfg)
    cons = "".join(c for c in norm if c not in _VOWELS)[:2]
    return f"{cons}|{len(norm) // 8}"


def add_block_key(batch: pa.Table, dense_keys=None,
                  cfg: LinkingConfig | None = None) -> pa.Table:
    names = batch.column("name").to_pylist()
    types = batch.column("type").to_pylist()
    keys = []
    for n, t in zip(names, types):
        first_tok = (n or "").split(" ", 1)[0]
        key = f"{t}|{soundex(first_tok)}"
        if dense_keys is not None and key in dense_keys:
            key = f"{key}§{_sub_block_key(n, cfg)}"
        keys.append(key)
    return batch.append_column("block_key", pa.array(keys, pa.string()))


def make_block_clusterer(cfg: LinkingConfig, embedding_threshold: float | None = None,
                         embedding_dim: int = 64):
    """Per-bucket blocked greedy clustering.  The returned function gets
    every entity row of one hash bucket of block keys (all rows of each
    contained block), sorts them by (block_key, entity_id), walks the
    block boundaries and runs :func:`greedy_cluster` on each block of two
    or more members; singleton blocks cost nothing beyond the sort.

    Optionally refined by BATCHED hash-embedding scoring (SURVEY §7.2
    step 5): all candidate names of a block are embedded in one batch
    (deterministic hash embedder, one word cache per bucket) and a
    string-similarity link survives only if the embedding cosine also
    clears ``embedding_threshold`` — the candidate-disambiguation role
    the reference assigns to embeddings (``vector/mod.rs:587-644`` +
    ``corpus/entity_linker.rs`` SemanticSimilarity strategy)."""

    def cluster_bucket(t: pa.Table) -> pa.Table:
        t = t.sort_by([("block_key", "ascending"), ("entity_id", "ascending")])
        keys = t.column("block_key").to_pylist()
        ids = t.column("entity_id").to_pylist()
        names = t.column("name").to_pylist()
        confs = t.column("conf").to_pylist()
        embedder = None
        links: dict[str, str] = {}
        n, lo = len(keys), 0
        while lo < n:
            hi = lo + 1
            while hi < n and keys[hi] == keys[lo]:
                hi += 1
            if hi - lo > 1:
                if cfg.max_block_size is not None and hi - lo > cfg.max_block_size:
                    logger.warning("linking block %r has %d entities, over "
                                   "max_block_size=%d", keys[lo], hi - lo,
                                   cfg.max_block_size)
                block = greedy_cluster(
                    list(zip(ids[lo:hi], names[lo:hi], confs[lo:hi])), cfg)
                if block and embedding_threshold is not None:
                    if embedder is None:
                        from ..functions.embedding import HashEmbedder
                        embedder = HashEmbedder(dim=embedding_dim)
                    block = _embedding_filter(
                        block, dict(zip(ids[lo:hi], names[lo:hi])), embedder,
                        embedding_threshold)
                links.update(block)
            lo = hi
        return pa.table({
            "entity_id": pa.array(list(links.keys()), pa.string()),
            "canonical_id": pa.array(list(links.values()), pa.string()),
        })
    return cluster_bucket


def _embedding_filter(links: dict[str, str], name_of: dict[str, str],
                      embedder, threshold: float) -> dict[str, str]:
    """Keep the links of one block whose endpoint names' embedding cosine
    clears ``threshold``."""
    import numpy as np
    ids = sorted({*links.keys(), *links.values()})
    mat = embedder.embed_many([name_of[i] for i in ids])
    row = {i: k for k, i in enumerate(ids)}
    return {src: dst for src, dst in links.items()
            if float(np.dot(mat[row[src]], mat[row[dst]])) >= threshold}  # unit vectors


def compute_links_ds(entities_ds, cfg: LinkingConfig | None = None,
                     embedding_threshold: float | None = None,
                     num_buckets: int = 64):
    """entities Dataset → links Dataset (entity_id, canonical_id) — the
    scale-safe form: link rows never leave the cluster.  One exchange:
    :func:`~.hashagg.hash_grouped_aggregate` keyed on ``block_key`` into
    ``num_buckets`` buckets, so every block lands whole in one bucket and
    greedy clustering runs per block inside the bucket function — Ray
    pays its per-group cost once per bucket, not once per block.  Block
    keys are NOT coarse: on an open vocabulary most blocks are singletons
    (measured about 0.62 blocks per entity, 64% singletons), which is why
    a native per-block ``map_groups`` is ruled out.

    With ``cfg.max_block_size`` set (OPT-IN; default None = faithful
    reference semantics) a cheap pre-pass counts rows per block key
    (the count table has one row per block, at most one per entity) and
    every block above the bound gets the secondary
    :func:`_sub_block_key` appended to its key — the dense
    (type, soundex) quadratic becomes many bounded sub-block quadratics.
    A sub-block still above the bound is clustered whole and logged as a
    warning.  Sub-blocking can miss links whose members straddle a
    sub-block boundary; divergence + planted-typo recall vs the faithful
    path are measured in BASELINE.md
    (scripts/scale_fuzzy_links_datapoints.py --max-block-size)."""
    from .hashagg import hash_grouped_aggregate

    cfg = cfg or LinkingConfig()
    dense_ref = None
    if cfg.max_block_size is not None:
        import ray
        entities_ds = entities_ds.materialize()   # two passes, one execution
        counts: dict[str, int] = {}

        def partial_counts(t: pa.Table) -> pa.Table:
            kb = add_block_key(t)
            vc = pc.value_counts(kb.column("block_key"))
            return pa.table({"block_key": vc.field("values"),
                             "n": vc.field("counts")})

        for b in entities_ds.map_batches(
                partial_counts, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow"):
            for k, c in zip(b.column("block_key").to_pylist(),
                            b.column("n").to_pylist()):
                counts[k] = counts.get(k, 0) + c
        dense = frozenset(k for k, c in counts.items()
                          if c > cfg.max_block_size)
        if dense:
            dense_ref = ray.put(dense)

    if dense_ref is not None:
        import ray

        def key_fn(t: pa.Table) -> pa.Table:
            return add_block_key(t, ray.get(dense_ref), cfg)
    else:
        key_fn = add_block_key
    blocked = entities_ds.map_batches(key_fn, batch_format="pyarrow")
    return hash_grouped_aggregate(
        blocked, ["block_key"],
        make_block_clusterer(cfg, embedding_threshold=embedding_threshold),
        num_buckets=num_buckets)


def links_ds_to_dict(links_ds) -> dict[str, str]:
    """Collect a links Dataset into the broadcastable dict form (the
    ≤``link_broadcast_limit`` fast path only)."""
    links: dict[str, str] = {}
    for b in links_ds.iter_batches(batch_format="pyarrow"):
        if b.num_rows:          # empty blocks carry no columns
            links.update(zip(b.column("entity_id").to_pylist(),
                             b.column("canonical_id").to_pylist()))
    return links


def remap_column_bucketed(ds, links_ds, col: str, num_buckets: int = 64):
    """Remap ``ds[col]`` through (entity_id → canonical_id) with a
    bucketed LEFT join — the above-limit path where the link table never
    ships to the driver or broadcasts whole.  Unlinked values pass
    through unchanged (left join + coalesce)."""
    from .hashagg import bucketed_join

    def rename(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:     # empty blocks carry no columns
            return pa.table({col: pa.array([], pa.string()),
                             "_canon": pa.array([], pa.string())})
        return pa.table({col: t.column("entity_id"),
                         "_canon": t.column("canonical_id")})

    joined = bucketed_join(ds, links_ds.map_batches(
        rename, batch_format="pyarrow"), [col], how="left",
        num_buckets=num_buckets)

    def fold(t: pa.Table) -> pa.Table:
        # an all-miss bucket comes back with a null-TYPED _canon column
        # (pandas → arrow inference); cast before coalesce
        merged = pc.coalesce(pc.cast(t.column("_canon"), pa.string()),
                             t.column(col))
        i = t.column_names.index(col)
        return t.drop_columns(["_canon"]).set_column(
            i, col, pc.cast(merged, pa.string()))

    # MATERIALIZE the remapped output: callers chain two remaps (subj
    # then obj) and feed further exchanges — a lazy chain both stalls
    # the streaming executor (multiple all-to-alls in one plan) and
    # re-runs the first join's full sort for the second join's schema
    # probe (bucketed_join needs schemas; on a lazy input that is a
    # limit-1 execution THROUGH the sort)
    return joined.map_batches(fold,
                              batch_format="pyarrow").materialize()


def compute_links(entities_ds, cfg: LinkingConfig | None = None,
                  stats: dict | None = None,
                  embedding_threshold: float | None = None) -> dict[str, str]:
    """entities Dataset → {entity_id: canonical_id}.  Materializes only the
    link rows (small by assumption, see module docstring).  Pass ``stats``
    to collect linking metrics (mirrors ``corpus/entity_linker.rs:44-85``
    LinkingStatistics: totals + linked counts + ratio)."""
    links = links_ds_to_dict(compute_links_ds(
        entities_ds, cfg, embedding_threshold=embedding_threshold))
    if stats is not None:
        total = entities_ds.count()
        stats.update({
            "total_entities": int(total),
            "linked_entities": len(links),
            "canonical_targets": len(set(links.values())),
            "link_ratio": (len(links) / total) if total else 0.0,
        })
    return links


_LINK_ARRAYS: dict = {}


def _link_arrays(links_ref) -> tuple[pa.Array, pa.Array]:
    """(keys, values) string arrays of a broadcast link map.  Built once
    per worker process for the latest broadcast (Ray worker processes
    are long-lived, so the module-level cache persists across tasks);
    a plain dict is converted on every call."""
    def arrays(links: dict) -> tuple[pa.Array, pa.Array]:
        return (pa.array(list(links.keys()), pa.string()),
                pa.array(list(links.values()), pa.string()))

    if isinstance(links_ref, dict):
        return arrays(links_ref)
    key = links_ref.hex()
    if key not in _LINK_ARRAYS:
        import ray
        _LINK_ARRAYS.clear()           # one broadcast at a time
        _LINK_ARRAYS[key] = arrays(ray.get(links_ref))
    return _LINK_ARRAYS[key]


def _remap_columns(batch: pa.Table, cols: tuple[str, ...],
                   links_ref) -> pa.Table:
    """Replace each linked value of ``cols`` by its canonical id:
    ``index_in`` against the link keys, ``take`` the values, and
    ``coalesce`` with the original so unlinked values pass through."""
    keys, values = _link_arrays(links_ref)
    if not len(keys):
        return batch
    for col in cols:
        i = batch.column_names.index(col)
        old = batch.column(i).cast(pa.string())
        new = pc.coalesce(values.take(pc.index_in(old, value_set=keys)), old)
        batch = batch.set_column(i, col, new)
    return batch


def make_remap_triples(links_ref):
    """Broadcast-remap subj/obj through the link map inside map_batches."""
    def remap(batch: pa.Table) -> pa.Table:
        return _remap_columns(batch, ("subj", "obj"), links_ref)
    return remap


def make_remap_entities(links_ref):
    def remap(batch: pa.Table) -> pa.Table:
        return _remap_columns(batch, ("entity_id",), links_ref)
    return remap
