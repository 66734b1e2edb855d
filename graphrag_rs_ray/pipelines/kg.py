"""The flagship dataflow: Parquet web pages → knowledge-graph shards.

Mirrors the reference's 7-stage indexing path (``graph/mod.rs:89-150``,
``HOW_IT_WORKS.md`` stages 1-5) re-expressed Ray-Data-first:

    read_parquet(pages)                              # url, warc_ts, html, text, lang
      → map_batches(extract_text)                    # automaton; drop html col
      → map_batches(ChunkStage)                      # 1 doc → N chunk rows
      → map_batches(ExtractKG, concurrency=N)        # actor pool → entity+triple rows
      → [entities] partial agg → groupby(entity_id)  # exact canonicalization
      → [fuzzy]   blocked greedy links, broadcast    # near-dup tier
      → [triples] remap → partial agg → groupby(s,p,o)  # exact triple dedup
      → write entities.parquet + triples shards partitioned by hash(subj)%P
        with per-stage manifests (checkpoint-resume)

Single-consumption variants (``triples_dataset``) stay fully lazy — one
streaming pass, no materialization.  ``build_kg`` consumes the combined
extraction stream twice (entities + triples), so it stages it to Parquet
(resumable) or the object store first.

The Parquet checkpoint is read split-free (``read_staged``: never more
blocks than files), so each branch reads it in the same task as its
level-1 combine and only combined partials cross the object store.  Two
Ray 2.49 fusion rules decide this (``logical/rules/operator_fusion.py``):
a read whose output is split (``SplitBlocks``, Ray's default for a small
read) fuses with nothing (``_can_fuse``), and a read never fuses into a
map that asks for a minimum batch of rows (``_can_fuse_map_ops``).
Fusion walks from the sink upstream, so ``write_graph``'s level-2 window
(a 2M-row batch map) would take in the level-1 maps and leave the read
alone; a streaming repartition in front of the window keeps it apart.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pyarrow as pa

from ..config import KGConfig
from ..functions.similarity import LinkingConfig
from ..stages.canonicalize import (
    entity_bucket_merge,
    partial_entity_agg,
    partial_triple_agg,
)
from ..stages.hashagg import (
    _plan_num_blocks,
    exchange_blocks,
    grouped_arrow_agg,
    hash_grouped_aggregate,
)
from ..stages.chunk import ChunkStage
from ..stages.disk_exchange import read_staged, reduce_shards, stage_parquet
from ..stages.extract_text import extract_text_stage
from ..stages.kg_extract import entities_only, make_extract_fn, triples_only
from ..stages.linking import (
    compute_links_ds,
    links_ds_to_dict,
    make_remap_entities,
    make_remap_triples,
    remap_column_bucketed,
)
from ..state.manifests import (
    fingerprint_config,
    read_manifest,
    stage_complete,
    write_manifest,
)


def pages_to_chunks(pages_ds, cfg: KGConfig):
    docs = pages_ds.map_batches(extract_text_stage, batch_format="pyarrow")
    return docs.map_batches(ChunkStage(cfg), batch_format="pyarrow")


class RegistryStage:
    """Actor-pool wrapper: builds the configured extractor once per actor
    from the stage registry (SURVEY §2.13)."""

    def __init__(self, cfg: KGConfig):
        from ..stages.registry import make_extractor
        self.stage = make_extractor(cfg)

    def __call__(self, batch):
        return self.stage(batch)


def chunks_to_combined(chunks_ds, cfg: KGConfig):
    """Extraction stage, selected by ``cfg.extractor`` (registry).

    Pattern path default: stateless tasks with a per-worker-process
    extractor memo (elastic, no pool sizing).  Any other extractor (or an
    explicit ``cfg.extract_concurrency``) runs as an actor pool — capped
    below the cluster CPU count so the read/shuffle stages never starve."""
    from ..stages.registry import EXTRACTORS
    if cfg.extractor not in EXTRACTORS:   # fail on the driver, not in an actor
        raise ValueError(f"unknown extractor {cfg.extractor!r}; "
                         f"registered: {sorted(EXTRACTORS)}")
    if cfg.extractor == "pattern" and cfg.extract_concurrency is None:
        return chunks_ds.map_batches(make_extract_fn(cfg), batch_format="pyarrow",
                                     batch_size=cfg.batch_size)
    from ..stages.hashagg import _cluster_cpus, auto_pool
    conc = cfg.extract_concurrency
    if conc is None:
        conc = auto_pool()
    elif isinstance(conc, int):
        conc = min(conc, max(1, _cluster_cpus() - 2))
    return chunks_ds.map_batches(RegistryStage, fn_constructor_args=(cfg,),
                                 batch_format="pyarrow", batch_size=cfg.batch_size,
                                 concurrency=conc)


def dedup_triples(triples_rows_ds, cfg: KGConfig):
    """(subj, pred, obj) exact dedup: per-batch combiner (pyarrow group_by,
    no shuffle) then a hash-bucketed shuffle with vectorized C++
    aggregation per bucket (Ray's native groupby pays ~0.3 ms Python per
    GROUP — fatal at triple cardinality; see ``stages/hashagg.py``).
    ``context_sample`` is the global-min chunk_id (deterministic);
    ``n_contexts`` preserves the full context count (the reference's
    unbounded ``context: Vec<ChunkId>`` does not scale; SURVEY §2.5)."""
    # batch_size=None → combine over the WHOLE block (max pre-shuffle
    # collapse; a hub triple contributes one row per block to the shuffle)
    partial = triples_partial(triples_rows_ds)
    return hash_grouped_aggregate(
        partial, ["subj", "pred", "obj"], triple_final_agg(),
        num_buckets=cfg.num_shards * 4)


def triples_partial(triples_rows_ds):
    """The pre-exchange combine stage of triple dedup (shared by the
    in-store path above and the disk-shuffle path in ``write_graph``):
    one combine per block, so a block's output never waits for another
    block."""
    return triples_rows_ds.map_batches(partial_triple_agg,
                                       batch_format="pyarrow",
                                       batch_size=None)


def triple_final_agg():
    """The per-group finishing aggregate of triple dedup — ONE
    definition so the in-store and disk-shuffle paths are semantically
    identical by construction."""
    return grouped_arrow_agg(
        ["subj", "pred", "obj"],
        [("conf", "max"), ("n_contexts", "sum"),
         ("context_sample", "min")],
        rename=["subj", "pred", "obj", "conf", "n_contexts",
                "context_sample"])


def triples_dataset(pages_ds, cfg: KGConfig | None = None):
    """Lazy pages → deduped triples (no fuzzy tier): the single-pass
    benchmark path."""
    cfg = cfg or KGConfig()
    combined = chunks_to_combined(pages_to_chunks(pages_ds, cfg), cfg)
    triples = combined.map_batches(triples_only, batch_format="pyarrow")
    return dedup_triples(triples, cfg)


def entities_dataset(pages_ds, cfg: KGConfig | None = None):
    """Lazy pages → canonical entities (exact tier): single streaming pass
    with no materialization — use when triples are not needed."""
    cfg = cfg or KGConfig()
    return exact_entities(
        chunks_to_combined(pages_to_chunks(pages_ds, cfg), cfg), cfg)


def exact_entities(combined, cfg: KGConfig):
    """Exact tier: combined extraction rows → one row per ``entity_id``.

    Ray's sort fans out one task per input block, so the partials are
    coalesced to a block count sized from ``combined`` before the
    exchange (``exchange_blocks``: by size, at least one block per
    cluster CPU, at most ``num_shards * 4``).  Big inputs emit thousands
    of tiny partial blocks (16M pages → 3174 blocks / 2.85M rows;
    uncoalesced, the entity exchange cost 610 s of a 646 s stage) and
    reach the cap; a small build is not split into ``num_shards * 4``
    sort tasks.  The bucket count stays ``num_shards * 4``, so every
    bucket holds the same rows whatever the block count.  The two maps
    keep one partial block per ``combined`` block, so when ``combined``'s
    plan already fixes that count (materialized, or a staged read) and it
    is the target, the repartition (a split and a reduce task per block)
    is skipped."""
    partial = (combined.map_batches(entities_only, batch_format="pyarrow")
               .map_batches(partial_entity_agg, batch_format="pyarrow",
                            batch_size=None))
    n_blocks = exchange_blocks(combined, cfg.num_shards * 4)
    if _plan_num_blocks(combined) != n_blocks:
        partial = partial.repartition(n_blocks)
    return hash_grouped_aggregate(
        partial, ["entity_id"], entity_bucket_merge,
        num_buckets=cfg.num_shards * 4)


@dataclass
class KGResult:
    entities: "object"            # ray.data.Dataset — entities table
    triples: "object"             # ray.data.Dataset — deduped triples
    links: dict[str, str]         # fuzzy-tier map (broadcast path only;
                                  # empty on the bucketed scale path)
    fingerprint: str = ""         # build-config fingerprint (resume token)
    n_links: int = 0              # fuzzy link count (both paths)
    t_partial: "object" = None    # pre-exchange partial triple rows —
                                  # the disk-shuffle sink consumes these
                                  # instead of the in-store dedup


def build_kg(pages_ds, cfg: KGConfig | None = None, work_dir: str | None = None) -> KGResult:
    """Full build.  ``work_dir`` (recommended) stages the combined
    extraction output to Parquet so (a) both downstream branches read it
    without recomputing the extractor and (b) a rerun with the same config
    resumes from it (manifest fingerprint)."""
    import ray

    cfg = cfg or KGConfig()
    if work_dir:
        combined_dir = os.path.join(work_dir, "combined")
        stage_parquet(combined_dir, fingerprint_config("combined", cfg),
                      lambda: chunks_to_combined(pages_to_chunks(pages_ds, cfg),
                                                 cfg))
        combined = read_staged(combined_dir)
    else:
        combined = chunks_to_combined(pages_to_chunks(pages_ds, cfg), cfg).materialize()

    # ---- entities: exact tier -----------------------------------------
    # ``combined`` is materialized or a Parquet read, so the exchange sizes
    entities = exact_entities(combined, cfg)

    links: dict[str, str] = {}
    n_links = 0
    links_ds = None
    if cfg.fuzzy_linking:
        entities = entities.materialize()
        links_ds = compute_links_ds(
            entities,
            LinkingConfig(min_similarity=cfg.min_similarity,
                          use_phonetic=cfg.use_phonetic),
            embedding_threshold=cfg.link_embedding_threshold,
            num_buckets=cfg.num_shards * 4).materialize()
        n_links = links_ds.count()
        if n_links and n_links <= cfg.link_broadcast_limit:
            # fast path: links fit the driver — broadcast dict remap
            links = links_ds_to_dict(links_ds)
            links_ref = ray.put(links)
            entities = hash_grouped_aggregate(
                entities
                .map_batches(make_remap_entities(links_ref), batch_format="pyarrow")
                .map_batches(partial_entity_agg_from_final, batch_format="pyarrow"),
                ["entity_id"], entity_bucket_merge, num_buckets=cfg.num_shards)
        elif n_links:
            # scale path: links stay a Dataset; remap via bucketed left
            # joins — no driver materialization, no whole-set broadcast
            entities = hash_grouped_aggregate(
                remap_column_bucketed(entities, links_ds, "entity_id")
                .map_batches(partial_entity_agg_from_final, batch_format="pyarrow"),
                ["entity_id"], entity_bucket_merge, num_buckets=cfg.num_shards)

    # ---- triples -------------------------------------------------------
    t_rows = combined.map_batches(triples_only, batch_format="pyarrow")
    if links:
        t_rows = t_rows.map_batches(make_remap_triples(links_ref), batch_format="pyarrow")
    elif n_links:
        t_rows = remap_column_bucketed(
            remap_column_bucketed(t_rows, links_ds, "subj"), links_ds, "obj")
    triples = dedup_triples(t_rows, cfg)

    return KGResult(entities=entities, triples=triples, links=links,
                    fingerprint=fingerprint_config("combined", cfg),
                    n_links=n_links, t_partial=triples_partial(t_rows))


def partial_entity_agg_from_final(batch: pa.Table) -> pa.Table:
    """Re-shape final entity rows back into partial-agg rows so the merge
    groupby can run again after fuzzy remapping (name_count := mention_count
    so canonical-name voting weights by corpus frequency)."""
    return pa.table({
        "entity_id": batch.column("entity_id"),
        "name": batch.column("name"),
        "type": batch.column("type"),
        "conf": batch.column("conf"),
        "mention_count": batch.column("mention_count"),
        "name_count": batch.column("mention_count"),
    })


def export_graph(result: KGResult, out_dir: str, fmt: str = "graphml") -> dict:
    """Export a built KG for external/visualization tools via the
    interchange sinks (``sources/rdf_graphml.py``): ``graphml`` or
    ``ntriples``.  Adapts the KG schemas to the import model — entity
    ``conf``/``mention_count`` and triple ``conf``/``n_contexts`` travel
    as attributes (stringified; N-Triples drops edge attributes by that
    sink's documented bound).  Round-trip: ``import_graphml(out)``
    reproduces ids/names/types/attributes exactly."""
    import json as _json

    from ..sources.rdf_graphml import export_graphml, export_ntriples

    def ents_adapter(t: pa.Table) -> pa.Table:
        attrs = [
            _json.dumps({"conf": f"{c:.6f}", "mention_count": str(m)},
                        sort_keys=True)
            for c, m in zip(t.column("conf").to_pylist(),
                            t.column("mention_count").to_pylist())]
        return pa.table({"id": t.column("entity_id"),
                         "name": t.column("name"),
                         "entity_type": t.column("type"),
                         "attributes": pa.array(attrs, pa.string())})

    def rels_adapter(t: pa.Table) -> pa.Table:
        attrs = [
            _json.dumps({"conf": f"{c:.6f}", "n_contexts": str(n)},
                        sort_keys=True)
            for c, n in zip(t.column("conf").to_pylist(),
                            t.column("n_contexts").to_pylist())]
        return pa.table({"source": t.column("subj"),
                         "target": t.column("obj"),
                         "relation_type": t.column("pred"),
                         "attributes": pa.array(attrs, pa.string())})

    ents = result.entities.map_batches(ents_adapter, batch_format="pyarrow")
    rels = result.triples.map_batches(rels_adapter, batch_format="pyarrow")
    if fmt == "graphml":
        return export_graphml(ents, rels, out_dir)
    if fmt == "ntriples":
        return export_ntriples(ents, rels, out_dir)
    raise ValueError(f"unknown export format: {fmt!r}")


def write_graph(result: KGResult, out_dir: str, num_shards: int = 16,
                input_token: str = "", disk_shuffle: bool = False) -> dict:
    """Materialize the graph: ``entities/`` + ``triples/shard=K/`` adjacency
    shards partitioned by hash(subj) % P, each with a manifest (lineage +
    counts) for resume and metrics.

    Resume is PARTITION-granular: a rerun with the same ``(num_shards,
    input_token)`` returns immediately if the top-level manifest matches,
    and otherwise rewrites ONLY the shards (and the entity table) whose
    per-partition manifest is missing or stale — data always lands before
    its manifest, so a crashed write never looks complete.  A failed
    16-shard job with 13 finished shards redoes 3, not 16.
    ``input_token`` identifies the input build; it defaults to the
    KGResult's build-config fingerprint, so a config change upstream
    invalidates the sink even at equal shard count.  Same token = same
    input assumed (the standard same-job-rerun-after-failure contract);
    a changed token or shard count invalidates every partition.

    ``disk_shuffle=True`` replaces the in-object-store triple-dedup sort
    with a DISK-partitioned shuffle for exchange volumes that exceed the
    store (measured at 16M pages: 197.6M partial rows / 22.6 GB sank the
    default 37 GB store — spill storms, then an 85 GB driver OOM):
    the pre-exchange partial rows (``result.t_partial``) stream straight
    to ``_shuffle/shard=K/`` Parquet in ONE map-only pass (no all-to-all
    anywhere), then each shard is reduced by its own task (pyarrow
    ``group_by`` with EXACTLY the in-store path's aggregate —
    ``triple_final_agg``) into its final adjacency shard; both steps are
    ``stages/disk_exchange.py``.  Peak memory per reduce = one shard
    (total/num_shards — num_shards is the memory knob).  On a staged
    build the map-only pass reads the checkpoint split-free in the same
    task as the level-1 combine, and the level-2 window sits behind a
    streaming repartition (module docstring), so only level-1 partials
    cross the object store."""
    import glob
    import shutil

    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    input_token = input_token or getattr(result, "fingerprint", "")
    top_fp = fingerprint_config("graph", num_shards, input_token)
    if stage_complete(out_dir, top_fp):
        return read_manifest(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    def _count(d: str) -> int:
        files = glob.glob(os.path.join(d, "*.parquet"))
        return pads.dataset(files).count_rows() if files else 0

    tri_dir = os.path.join(out_dir, "triples")
    n_entities = stage_parquet(
        os.path.join(out_dir, "entities"),
        fingerprint_config("graph-entities", num_shards, input_token),
        lambda: result.entities)["rows"]

    shard_parts = ("graph", num_shards, input_token)

    def shard_fp(k: int) -> str:
        return fingerprint_config(*shard_parts, f"shard={k}")

    done = {k for k in range(num_shards)
            if stage_complete(os.path.join(tri_dir, f"shard={k}"),
                              shard_fp(k))}
    missing = [k for k in range(num_shards) if k not in done]

    def shard_of(batch: pa.Table) -> pa.Array:
        # one hash per distinct subject: a hub subject repeats
        subj = pc.dictionary_encode(batch.column("subj").combine_chunks())
        shards = pa.array([hash_subj(s, num_shards)
                           for s in subj.dictionary.to_pylist()], pa.int32())
        return shards.take(subj.indices)

    if missing and disk_shuffle:
        stage_dir = os.path.join(out_dir, "_shuffle")
        # Level-2 combine: windows of 2M level-1 partial rows re-combined
        # across blocks with the final aggregate's associative ops.  At
        # 16M pages one combine per block still emitted 197.6M partial
        # rows / 22.6 GB (every block re-emits the saturated vocabulary);
        # the window cut the 64M stage to 9.1 GB.  Safe here because the
        # sink is a terminal write: before the in-store exchange it
        # serialized the stream (sf0.1 headline 1.6 s → 21 s).  The
        # streaming repartition keeps the window from fusing with the
        # level-1 maps, which then fuse with the read (module docstring).
        window = 2_000_000
        stage_parquet(
            stage_dir,
            fingerprint_config("graph-shuffle", num_shards, input_token),
            lambda: result.t_partial
            .repartition(target_num_rows_per_block=window)
            .map_batches(triple_final_agg(), batch_format="pyarrow",
                         batch_size=window),
            shard_of)

        def reduce_triples(k: int, files: list[list[str]]):
            if not files[0]:
                return None
            return triple_final_agg()(pads.dataset(files[0]).to_table(
                columns=["subj", "pred", "obj", "conf", "n_contexts",
                         "context_sample"]))

        reduce_shards([stage_dir], num_shards, reduce_triples, tri_dir,
                      shard_parts)
    elif missing:
        if not done and os.path.exists(tri_dir):
            shutil.rmtree(tri_dir)            # config change / first run
        for k in missing:                     # partial data without a
            d = os.path.join(tri_dir, f"shard={k}")
            if os.path.exists(d):             # manifest = crashed write
                shutil.rmtree(d)

        sharded = result.triples.map_batches(
            lambda b: b.append_column("shard", shard_of(b)),
            batch_format="pyarrow")
        if done:
            todo = pa.array(missing, pa.int32())

            def keep_missing(t: pa.Table) -> pa.Table:
                return t.filter(pc.is_in(t.column("shard"),
                                         value_set=todo))
            sharded = sharded.map_batches(keep_missing,
                                          batch_format="pyarrow")
        sharded.write_parquet(tri_dir, partition_cols=["shard"])
        for k in missing:
            d = os.path.join(tri_dir, f"shard={k}")
            os.makedirs(d, exist_ok=True)  # empty shards get a dir too
            write_manifest(d, "triples_shard", shard_fp(k),
                           rows=_count(d))

    # per-partition lineage rollup from the shard manifests
    shard_counts = {f"shard={k}":
                    read_manifest(os.path.join(tri_dir, f"shard={k}"))["rows"]
                    for k in range(num_shards)}
    n_triples = sum(shard_counts.values())
    manifest = write_manifest(out_dir, "graph", top_fp,
                              rows=n_triples,
                              extra={"n_entities": n_entities, "n_triples": n_triples,
                                     "num_shards": num_shards,
                                     "shard_rows": shard_counts,
                                     "resumed_shards": sorted(done),
                                     "n_fuzzy_links": result.n_links})
    return manifest


def hash_subj(subj: str, num_shards: int) -> int:
    import hashlib
    return int.from_bytes(hashlib.blake2b(subj.encode(), digest_size=4).digest(), "little") % num_shards
