"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in graphrag_rs_ray) calls ``ray.init``/``ray.shutdown``.

- ``entry()``: flagship KG pipeline at smoke scale — sf0.001 documents
  joined with a deterministic synthetic Common-Crawl-style `pages` table
  (BASELINE.json input_hint shape; the sf tables contain no capitalized
  text, so the synthetic pages carry the entity-bearing load).
- ``queries()``: one entry per implemented operator (SURVEY.md §2 +
  training-data extensions).  KG queries synthesize pages at a size scaled
  from ``sf_dir`` (seed-fixed ⇒ deterministic row counts).
- ``oracle_sql()``: DuckDB equivalents with IDENTICAL column names for
  every SQL-expressible operator.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import pyarrow as pa

try:  # engine tuning, not session ownership: see bench.py note
    from ray.data.context import DataContext as _DC
    _DC.get_current().op_resource_reservation_enabled = False
except Exception:  # noqa: BLE001 — ray absent/changed API: keep defaults
    pass

from graphrag_rs_ray.config import KGConfig
from graphrag_rs_ray.pipelines import training_data as td
from graphrag_rs_ray.pipelines.kg import (
    build_kg,
    chunks_to_combined,
    pages_to_chunks,
    triples_dataset,
)


def q_text_clean(sf_dir: str):
    """Whitespace-normalizing text cleaner (``text/mod.rs:327-336``)."""
    import os as _os
    import ray.data as rd

    ds = rd.read_parquet(_os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])

    def clean(batch):
        texts = [" ".join((t or "").split()) for t in batch.column("text").to_pylist()]
        import pyarrow as _pa
        return _pa.table({"doc_id": batch.column("doc_id"),
                          "clean_text": _pa.array(texts, _pa.string())})

    return ds.map_batches(clean, batch_format="pyarrow")
from graphrag_rs_ray.sources.pages import pages_dataset
from graphrag_rs_ray.stages.extract_text import extract_text_stage
from graphrag_rs_ray.stages.kg_extract import entities_only
from graphrag_rs_ray.functions.textstats import STOP_WORDS

_SF_PAGES = {"sf0.001": 200, "sf0.01": 2000, "sf0.1": 100000}

# --------------------------------------------------- oracle staging -----
# VERDICT r01 task 1: derived-table queries become driver-verifiable by
# staging their PROCEDURAL input rows (mentions, raw triples, concept
# mentions ...) to Parquet inside the query fn; the oracle SQL then runs
# the same derivation over read_parquet(<staged>).  The staged rows feed
# BOTH sides, so the oracle independently checks the derivation logic
# (grouping / joining / merging), which is the SQL-expressible half of
# each pipeline.

_STAGE_ROOT = "/tmp/graft_oracle_stage"


def _stage_path(query: str, sf_dir: str, sub: str = "input") -> str:
    sf = os.path.basename(os.path.normpath(sf_dir))
    return os.path.join(_STAGE_ROOT, sf, query, sub)


def _stage(ds, query: str, sf_dir: str, sub: str = "input"):
    """Write a Dataset to the oracle staging dir and read it back, so the
    exact same rows feed the Ray derivation and the DuckDB oracle."""
    import shutil
    import ray.data as rd
    d = _stage_path(query, sf_dir, sub)
    if os.path.exists(d):      # write_parquet APPENDS — never double-stage
        shutil.rmtree(d)
    os.makedirs(d, exist_ok=True)
    ds.write_parquet(d)
    return rd.read_parquet(d)


def _staged_sql(query: str, sub: str = "input") -> str:
    # the driver's oracle runs at sf0.01; tests at other sf rewrite the path
    return f"read_parquet('{_STAGE_ROOT}/sf0.01/{query}/{sub}/*.parquet')"


def _n_pages(sf_dir: str) -> int:
    override = os.environ.get("GRAFT_PAGES")
    if override:
        return int(override)
    return _SF_PAGES.get(os.path.basename(os.path.normpath(sf_dir)), 500)


def _pages_from_documents(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text", "lang"])

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        return pa.table({
            "url": pa.array([f"doc://{i}" for i in ids], pa.string()),
            "warc_ts": pa.array([None] * len(ids), pa.timestamp("us")),
            "html": pa.array([None] * len(ids), pa.binary()),
            "text": batch.column("text"),
            "lang": batch.column("lang"),
            "title": pa.array([""] * len(ids), pa.string()),
        })

    return ds.map_batches(to_pages, batch_format="pyarrow")


def entry() -> Any:
    """Flagship: sf0.001 documents + synthetic pages → deduped triples."""
    sf_dir = "/root/testdata/sf0.001"
    pages = _pages_from_documents(sf_dir).union(pages_dataset(200, seed=42))
    return triples_dataset(pages, KGConfig())


# ----------------------------------------------------------- queries() --

def _kg_pages(sf_dir: str):
    return pages_dataset(_n_pages(sf_dir), seed=42)


_KG_DS_CACHE: dict[tuple, Any] = {}


def _kg_ds(sf_dir: str, kind: str):
    """Materialized per-process checkpoints of the DEFAULT-``KGConfig``
    KG derivation that ~20 queries share (pages → chunks → combined →
    triples / entities), built once per process.
    At 100 TB the graph is built once and
    persisted (``pipelines/kg.write_graph``); downstream analytics read
    the persisted graph rather than re-deriving it per query, and this
    cache models exactly that.  Query fns with a non-default config
    (fuzzy tier, custom chunking) do NOT use it."""
    key = (sf_dir, kind)
    if key not in _KG_DS_CACHE:
        from graphrag_rs_ray.pipelines.kg import dedup_triples, exact_entities
        from graphrag_rs_ray.stages.kg_extract import triples_only
        cfg = KGConfig()
        if kind == "chunks":
            ds = pages_to_chunks(_kg_pages(sf_dir), cfg)
        elif kind == "combined":
            ds = chunks_to_combined(_kg_ds(sf_dir, "chunks"), cfg)
        elif kind == "triples":
            ds = dedup_triples(
                _kg_ds(sf_dir, "combined").map_batches(
                    triples_only, batch_format="pyarrow"), cfg)
        elif kind == "entities":
            ds = exact_entities(_kg_ds(sf_dir, "combined"), cfg)
        else:
            raise KeyError(kind)
        _KG_DS_CACHE[key] = ds.materialize()
    return _KG_DS_CACHE[key]


def _kg_result(sf_dir: str):
    """``build_kg(_kg_pages(sf_dir), KGConfig())`` from the shared
    checkpoints: the default config has no fuzzy tier (links = {}), so
    the result is exactly (entities, triples) over the same materialized
    combined rows (`pipelines/kg.py::build_kg`)."""
    from graphrag_rs_ray.pipelines.kg import KGResult
    return KGResult(entities=_kg_ds(sf_dir, "entities"),
                    triples=_kg_ds(sf_dir, "triples"), links={})


def q_kg_triples(sf_dir: str):
    """Raw extracted triple rows are STAGED, then deduped from the staged
    copy — the dedup aggregation (max conf / context count / min context)
    is oracle-checked; extraction itself is gated by the repo goldens.
    (bench.py times the un-staged ``triples_dataset`` path directly.)"""
    from graphrag_rs_ray.pipelines.kg import dedup_triples
    from graphrag_rs_ray.stages.kg_extract import triples_only
    cfg = KGConfig()
    combined = _kg_ds(sf_dir, "combined")
    t_rows = _stage(combined.map_batches(triples_only, batch_format="pyarrow"),
                    "kg_triples", sf_dir)
    return dedup_triples(t_rows, cfg)


def q_kg_entities(sf_dir: str):
    """Raw entity mention rows staged; canonicalization (two-phase merge:
    per-(id,name) partials → canonical-name vote → totals) oracle-checked."""
    from graphrag_rs_ray.stages.canonicalize import (
        entity_bucket_merge, partial_entity_agg)
    from graphrag_rs_ray.stages.hashagg import hash_grouped_aggregate
    cfg = KGConfig()
    combined = _kg_ds(sf_dir, "combined")
    e_rows = _stage(combined.map_batches(entities_only, batch_format="pyarrow"),
                    "kg_entities", sf_dir)
    return hash_grouped_aggregate(
        e_rows.map_batches(partial_entity_agg, batch_format="pyarrow",
                           batch_size=None),
        ["entity_id"], entity_bucket_merge, num_buckets=cfg.num_shards * 4)


def q_kg_entities_fuzzy(sf_dir: str):
    """Fuzzy-tier canonicalization: the exact-tier entity table and the
    computed link set are BOTH staged, so the remap (links.get(id, id)) +
    re-merge (conf max, mention sum, frequency-weighted name vote) is
    oracle-checked; the link computation itself (blocked greedy
    clustering) stays gated by the determinism/similarity unit tests."""
    import ray
    from graphrag_rs_ray.functions.similarity import LinkingConfig
    from graphrag_rs_ray.pipelines.kg import (
        entities_dataset, partial_entity_agg_from_final)
    from graphrag_rs_ray.stages.canonicalize import entity_bucket_merge
    from graphrag_rs_ray.stages.hashagg import hash_grouped_aggregate
    from graphrag_rs_ray.stages.linking import compute_links, make_remap_entities

    cfg = KGConfig(fuzzy_linking=True)
    exact = _stage(entities_dataset(_kg_pages(sf_dir), cfg).materialize(),
                   "kg_entities_fuzzy", sf_dir, "exact_entities")
    links = compute_links(
        exact, LinkingConfig(min_similarity=cfg.min_similarity,
                             use_phonetic=cfg.use_phonetic),
        embedding_threshold=cfg.link_embedding_threshold)
    links_tbl = pa.table({
        "entity_id": pa.array(sorted(links.keys()), pa.string()),
        "canonical_id": pa.array([links[k] for k in sorted(links.keys())],
                                 pa.string())})
    # write directly (a 0-row Dataset would emit no file for the oracle)
    import pyarrow.parquet as _pq
    ldir = _stage_path("kg_entities_fuzzy", sf_dir, "links")
    import shutil as _sh
    if os.path.exists(ldir):
        _sh.rmtree(ldir)
    os.makedirs(ldir)
    _pq.write_table(links_tbl, os.path.join(ldir, "links.parquet"))
    if not links:
        return exact
    links_ref = ray.put(links)
    return hash_grouped_aggregate(
        exact.map_batches(make_remap_entities(links_ref), batch_format="pyarrow")
             .map_batches(partial_entity_agg_from_final, batch_format="pyarrow"),
        ["entity_id"], entity_bucket_merge, num_buckets=cfg.num_shards)


def q_kg_mentions(sf_dir: str):
    """Per-chunk entity mentions from the 4-phase pattern extractor
    (``entity/mod.rs:97-788``).  Chunks are the sanitized staged rows
    (same device as ``kg_chunks``) and DuckDB replays the ENTIRE
    default-path extractor (``_kg_mentions_sql``: greedy person phases
    as recursive CTEs, org/location scans, dedup + mention counts)."""
    cfg = KGConfig()
    chunks = q_kg_chunks(sf_dir)
    staged = _stage(chunks.map_batches(
        lambda t: t.select(["chunk_id", "doc_id", "text"]),
        batch_format="pyarrow"), "kg_mentions", sf_dir)
    combined = chunks_to_combined(staged, cfg)
    return combined.map_batches(entities_only, batch_format="pyarrow")


def q_kg_chunks(sf_dir: str):
    """Hierarchical chunking (``text/chunking.rs:48-152``) of the
    extracted page texts.  The extracted docs are staged ASCII/control-
    sanitized (1:1 char map — offsets preserved) and DuckDB replays the
    WHOLE chunker (``_kg_chunks_sql``: recursive CTE over start
    positions, separator-priority rfinds, quarter gate, word-boundary
    overlap back-off, min-size trim gate).  Memoized per process (six
    downstream queries consume this sanitized chunk stream; content is
    deterministic, so the stage dir is written once)."""
    if (sf_dir, "san_chunks") in _KG_DS_CACHE:
        return _KG_DS_CACHE[(sf_dir, "san_chunks")]
    import re as _re
    from graphrag_rs_ray.stages.chunk import ChunkStage

    docs = _kg_pages(sf_dir).map_batches(extract_text_stage,
                                         batch_format="pyarrow")

    def san_docs(t: pa.Table) -> pa.Table:
        texts = [_re.sub(r"[^\x09-\x0d\x20-\x7e]", "_", x or "")
                 for x in t.column("text").to_pylist()]
        return pa.table({"doc_id": t.column("doc_id"),
                         "text": pa.array(texts, pa.string()),
                         "lang": t.column("lang")})

    staged = _stage(docs.map_batches(san_docs, batch_format="pyarrow"),
                    "kg_chunks", sf_dir)
    out = staged.map_batches(ChunkStage(KGConfig()),
                             batch_format="pyarrow").materialize()
    _KG_DS_CACHE[(sf_dir, "san_chunks")] = out
    return out


def q_extract_text(sf_dir: str):
    """HTML→text extraction (tag-strip automaton, ``html.rs:21-36``).
    Pages are staged with html DECODED + control/non-ASCII chars mapped
    1:1 to ``_`` (offsets preserved); DuckDB replays the automaton as
    two regex passes — ``<[^>]*(>|$)`` run removal (the state machine
    consumes from each ``<`` to the next ``>`` or EOF) + stray-``>``
    drop + whitespace trim.  Equivalence vs the Python automaton is
    property-gated in tests."""
    import re as _re

    def stage_pages(t: pa.Table) -> pa.Table:
        def san(x):
            return _re.sub(r"[^\x09-\x0d\x20-\x7e]", "_", x)
        hs = [None if h is None else
              san(h.decode("utf-8", errors="replace")
                  if isinstance(h, (bytes, bytearray)) else h)
              for h in t.column("html").to_pylist()]
        ts = [None if x is None else san(x)
              for x in t.column("text").to_pylist()]
        return pa.table({"url": t.column("url"),
                         "title": t.column("title"),
                         "lang": t.column("lang"),
                         "html_s": pa.array(hs, pa.string()),
                         "text_s": pa.array(ts, pa.string())})

    staged = _stage(_kg_pages(sf_dir).map_batches(
        stage_pages, batch_format="pyarrow"), "kg_extract_text", sf_dir)

    def extract(t: pa.Table) -> pa.Table:
        from graphrag_rs_ray.functions.html import extract_page_text
        out = [extract_page_text(h, x)
               for h, x in zip(t.column("html_s").to_pylist(),
                               t.column("text_s").to_pylist())]
        return pa.table({"doc_id": t.column("url"),
                         "title": t.column("title"),
                         "text": pa.array(out, pa.string()),
                         "lang": t.column("lang")})

    return staged.map_batches(extract, batch_format="pyarrow")


def _join_list_col(col: str):
    """Format a list<string> column as a comma-joined string for the
    driver's value-hash compare (list cells hash engine-dependently)."""
    def fmt(t: pa.Table) -> pa.Table:
        arrays = {c: t.column(c) for c in t.column_names}
        arrays[col] = pa.array(
            [",".join(x) for x in t.column(col).to_pylist()], pa.string())
        return pa.table(arrays)
    return fmt


def q_entity_to_chunks(sf_dir: str):
    from graphrag_rs_ray.pipelines.graph_ops import entity_to_chunks
    mentions = _stage(q_kg_mentions(sf_dir), "entity_to_chunks", sf_dir)
    return entity_to_chunks(mentions).map_batches(
        _join_list_col("chunks"), batch_format="pyarrow")


def q_chunk_to_entities(sf_dir: str):
    from graphrag_rs_ray.pipelines.graph_ops import chunk_to_entities
    mentions = _stage(q_kg_mentions(sf_dir), "chunk_to_entities", sf_dir)
    return chunk_to_entities(mentions).map_batches(
        _join_list_col("entities"), batch_format="pyarrow")


def q_co_occurring_entities(sf_dir: str):
    from graphrag_rs_ray.pipelines.graph_ops import co_occurring_entities
    mentions = _stage(q_kg_mentions(sf_dir), "co_occurring_entities", sf_dir)
    return co_occurring_entities(mentions)


def q_semantic_edges(sf_dir: str):
    """Per-entity top-k cosine edges; the (entity_id, embedding) table is
    staged as list<double> so the threshold/top-k/tie-break derivation is
    oracle-checked (sims rounded to 12 decimals on both sides)."""
    from graphrag_rs_ray.pipelines.graph_ops import semantic_edges
    from graphrag_rs_ray.stages.embed import EmbedStage
    from graphrag_rs_ray.stages.memo import memoized_stage
    fn = memoized_stage(("embed", "name", 64), lambda: EmbedStage("name", 64))
    ents = q_kg_entities(sf_dir).map_batches(fn, batch_format="pyarrow",
                                             batch_size=None)

    def fmt(t: pa.Table) -> pa.Table:
        emb = t.column("embedding")
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        return pa.table({"entity_id": t.column("entity_id"),
                         "embedding": emb.cast(pa.list_(pa.float64()))})

    staged = _stage(ents.map_batches(fmt, batch_format="pyarrow"),
                    "semantic_edges", sf_dir)
    return semantic_edges(staged, similarity_threshold=0.8)


def q_gleaning_triples(sf_dir: str):
    """Gleaning extraction (mock-LLM actor pool with response cache,
    ``entity/gleaning_extractor.rs:112-273``) over a small slice of the
    synthetic pages — exercises the LLM-path plumbing deterministically.

    Oracle: the raw PER-ROUND parse stream (what the LLM returned, before
    any merging) is staged, and DuckDB replays the sequential
    entity-merge fold (round-1 last-wins seed, then replace-iff-strictly-
    longer-description — equivalent to first-candidate-at-max), the
    first-wins relationship dedup on (source, target, relation_type), and
    the name→id endpoint resolution (``entity_id_for`` =
    ``type_<normalize_name>``).  Chunk texts are sanitized first so
    ``normalize_name``'s Unicode ``isalnum`` matches the ASCII regex."""
    import re as _re
    from graphrag_rs_ray.stages.gleaning import GleaningExtractStage
    from graphrag_rs_ray.stages.memo import memoized_stage
    import pyarrow.compute as _pc
    n = max(_n_pages(sf_dir) // 10, 50)
    chunks = pages_to_chunks(pages_dataset(n, seed=42), KGConfig())

    def san(t: pa.Table) -> pa.Table:
        texts = [_re.sub(r"[^\x09-\x0d\x20-\x7e]", "_", x or "")
                 for x in t.column("text").to_pylist()]
        return pa.table({"chunk_id": t.column("chunk_id"),
                         "doc_id": t.column("doc_id"),
                         "text": pa.array(texts, pa.string())})

    chunks = chunks.map_batches(san, batch_format="pyarrow")

    def trace_rows(t: pa.Table) -> pa.Table:
        stage = GleaningExtractStage(max_rounds=3)
        cols = {k: [] for k in ("chunk_id", "seq", "round", "kind", "name",
                                "type", "description", "source", "target",
                                "relation_type")}

        def put(cid, seq, rnd, kind, **kw):
            cols["chunk_id"].append(cid)
            cols["seq"].append(seq)
            cols["round"].append(rnd)
            cols["kind"].append(kind)
            for f in ("name", "type", "description", "source", "target",
                      "relation_type"):
                cols[f].append(kw.get(f))

        for cid, text in zip(t.column("chunk_id").to_pylist(),
                             t.column("text").to_pylist()):
            _e, _r, _rounds, trace = stage._glean_chunk(text or "")
            seq = 0
            for rnd, ents, rels in trace:
                for e in ents:
                    put(cid, seq, rnd, "e",
                        name=str(e.get("name", "")),
                        type=str(e.get("type", "UNKNOWN")),
                        description=str(e.get("description", "")))
                    seq += 1
                for r in rels:
                    put(cid, seq, rnd, "t",
                        source=str(r.get("source", "")),
                        target=str(r.get("target", "")),
                        relation_type=str(r.get("relation_type",
                                                "RELATED_TO")))
                    seq += 1
        return pa.table({
            "chunk_id": pa.array(cols["chunk_id"], pa.string()),
            "seq": pa.array(cols["seq"], pa.int64()),
            "round": pa.array(cols["round"], pa.int64()),
            "kind": pa.array(cols["kind"], pa.string()),
            "name": pa.array(cols["name"], pa.string()),
            "type": pa.array(cols["type"], pa.string()),
            "description": pa.array(cols["description"], pa.string()),
            "source": pa.array(cols["source"], pa.string()),
            "target": pa.array(cols["target"], pa.string()),
            "relation_type": pa.array(cols["relation_type"], pa.string())})

    _stage(chunks.map_batches(trace_rows, batch_format="pyarrow"),
           "gleaning_triples", sf_dir)

    fn = memoized_stage("gleaning-3", lambda: GleaningExtractStage(max_rounds=3))
    combined = chunks.map_batches(fn, batch_format="pyarrow", batch_size=None)
    return combined.map_batches(
        lambda t: t.filter(_pc.equal(t.column("kind"), "t"))
                   .select(["chunk_id", "subj", "pred", "obj"]),
        batch_format="pyarrow")


def q_ner_mentions(sf_dir: str):
    """Rule-engine NER (gazetteer/regex/contextual,
    ``nlp/custom_ner.rs``); rules built once per worker process (cheap
    state → stateless tasks, see stages/memo.py).  Chunk texts are
    staged (ASCII-sanitized, same device as ``concept_mentions``) and
    the oracle replays the WHOLE engine in SQL: dictionary occurrences
    via split-cumsum positions, regex matches via the
    parts/matches zip, the contextual word-window rule with its
    first-substring-position quirk, and the greedy
    (start, −conf, emission-order) overlap resolution as a recursive
    CTE."""
    import re as _re
    from graphrag_rs_ray.stages.memo import memoized_stage
    from graphrag_rs_ray.stages.ner import (DEMO_ENTITY_TYPES,
                                            DEMO_RULES, NERStage)

    def ascii_chunks(t: pa.Table) -> pa.Table:
        texts = [_re.sub(r"[^\x00-\x7f]", "_", x or "")
                 for x in t.column("text").to_pylist()]
        return pa.table({"chunk_id": t.column("chunk_id"),
                         "doc_id": t.column("doc_id"),
                         "text": pa.array(texts, pa.string())})

    chunks = _stage(q_kg_chunks(sf_dir).map_batches(
        ascii_chunks, batch_format="pyarrow"), "ner_mentions", sf_dir)
    fn = memoized_stage("demo-ner",
                        lambda: NERStage(DEMO_ENTITY_TYPES, DEMO_RULES))
    return chunks.map_batches(fn, batch_format="pyarrow",
                              batch_size=None)


def q_incremental_update(sf_dir: str):
    """Delta ingest: a second page batch merged into an existing graph
    (entity merge strategies + triple union-dedup) — the table-level
    equivalent of ``graph/incremental.rs`` apply_delta.  Both input graphs
    are staged so the merge semantics (conf-argmax name/type, summed
    mentions, distinct-triple count) are oracle-checked."""
    from graphrag_rs_ray.pipelines.graph_ops import MERGE, merge_entity_tables, merge_triple_tables
    n = max(_n_pages(sf_dir) // 2, 50)
    base = build_kg(pages_dataset(n, seed=42), KGConfig())
    delta = build_kg(pages_dataset(n, seed=4242), KGConfig())
    be = _stage(base.entities, "incremental_update", sf_dir, "base_entities")
    de = _stage(delta.entities, "incremental_update", sf_dir, "delta_entities")
    bt = _stage(base.triples, "incremental_update", sf_dir, "base_triples")
    dt = _stage(delta.triples, "incremental_update", sf_dir, "delta_triples")
    entities = merge_entity_tables(be, de, MERGE)
    triples = merge_triple_tables(bt, dt)
    n_t = triples.count()
    import pyarrow as _pa
    return entities.map_batches(
        lambda t: t.append_column("graph_triples", _pa.array([n_t] * t.num_rows, _pa.int64())),
        batch_format="pyarrow")


def q_connected_components(sf_dir: str):
    """Undirected connected components via hash-to-min label propagation
    (component = lexicographically-smallest reachable node,
    ``pipelines/communities.py``); oracle = DuckDB recursive-CTE
    reachability closure + min(label)."""
    from graphrag_rs_ray.pipelines.communities import connected_components
    triples = _stage(_kg_ds(sf_dir, "triples").map_batches(
        lambda t: t.select(["subj", "pred", "obj"]), batch_format="pyarrow"),
        "connected_components", sf_dir)
    def und(t):
        import pyarrow.compute as pc
        keep = t.filter(pc.invert(pc.equal(t.column("subj"), t.column("obj"))))
        return pa.table({"a": keep.column("subj"), "b": keep.column("obj")})
    return connected_components(
        triples.map_batches(und, batch_format="pyarrow"), num_buckets=16)


def q_doc_tree(sf_dir: str):
    """RAPTOR-style per-document summary-tree STRUCTURE
    (``summarization/mod.rs:642-682``): leaf ids, ``level_{L}_{k}`` inner
    nodes, merge_size-5 grouping, parent links, per-node child/leaf
    counts.  The leaf (chunk) ids are staged; DuckDB re-derives the whole
    tree shape arithmetically (levels L=1..9 cover 5^9 chunks per doc —
    far beyond any document).  Summaries are procedural → the companion
    ``doc_tree_summaries`` query carries them (rows-only)."""
    from graphrag_rs_ray.pipelines.doctree import build_document_trees
    # chunk_size 120 → ~10-20 chunks/doc so the trees are genuinely
    # multi-level (default 1000 gives 1 chunk per synthetic page)
    chunks = pages_to_chunks(_kg_pages(sf_dir),
                             KGConfig(chunk_size=120, chunk_overlap=0,
                                      min_chunk_size=20))
    _stage(chunks.map_batches(lambda t: t.select(["chunk_id", "doc_id"]),
                              batch_format="pyarrow"), "doc_tree", sf_dir)
    return build_document_trees(chunks, with_summary=False)


def q_doc_tree_summaries(sf_dir: str):
    """Full document trees incl. extractive summaries
    (``summarization/mod.rs:759-793`` family via ``keywords.summarize``);
    same chunk config as ``doc_tree`` so the trees are multi-level.
    Pages capped at 20k: the op is strictly per-document (zero cross-doc
    shuffle, cost exactly linear in documents), so a bounded slice is the
    honest bench unit — at web scale you run it per partition.

    Oracle: chunk texts are staged ASCII-sanitized (the
    ``ner_mentions`` device) and DuckDB re-derives the tree structure
    arithmetically, re-assembles every node's content as the ordered
    ``\\n\\n``-join of its leaf texts, and replays the ENTIRE extractive
    summarizer (``_summarizer_sql``: scoring + recursive-CTE greedy
    selection)."""
    import re as _re
    from graphrag_rs_ray.pipelines.doctree import build_document_trees
    pages = _kg_pages(sf_dir)
    if _n_pages(sf_dir) > 20_000:
        pages = pages.limit(20_000)
    chunks = pages_to_chunks(pages,
                             KGConfig(chunk_size=120, chunk_overlap=0,
                                      min_chunk_size=20))

    def ascii_chunks(t: pa.Table) -> pa.Table:
        texts = [_re.sub(r"[^\x00-\x7f]", "_", x or "")
                 for x in t.column("text").to_pylist()]
        return pa.table({"chunk_id": t.column("chunk_id"),
                         "doc_id": t.column("doc_id"),
                         "text": pa.array(texts, pa.string())})

    staged = _stage(chunks.map_batches(ascii_chunks, batch_format="pyarrow"),
                    "doc_tree_summaries", sf_dir)
    return build_document_trees(staged, with_summary=True)


def q_enriched_chunks(sf_dir: str):
    """Chunk enrichment (``text/chunk_enricher.rs:48-142``) over
    ASCII-sanitized documents.  Procedural inputs staged: the chunk rows,
    per-doc lengths, and the parsed SECTION table (plaintext heading
    detection is sequential, like the chunker); DuckDB re-derives
    chapter/section/subsection via the last-containing-offset rule +
    a recursive parent walk, keywords (empty-DF TF-IDF ⇒ all scores 0 ⇒
    lexicographic top-5 — the documented deviation), the FULL extractive
    summary via ``_summarizer_sql`` (only for chunks > 150 chars, else
    NULL), and position_in_document.  Driver-facing transforms on the
    faithful ENRICHED_SCHEMA: keywords list → CSV string,
    structural_level NULL → -1 (numeric-sentinel rule)."""
    import re as _re
    import ray.data as rd
    from graphrag_rs_ray.stages.enrich import EnrichedChunkStage

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])

    def to_ascii(batch: pa.Table) -> pa.Table:
        ids = [f"doc{i}" for i in batch.column("doc_id").to_pylist()]
        texts = [_re.sub(r"[^\x00-\x7f]", "_", x or "")
                 for x in batch.column("text").to_pylist()]
        return pa.table({"doc_id": pa.array(ids, pa.string()),
                         "text": pa.array(texts, pa.string())})

    docs = ds.map_batches(to_ascii, batch_format="pyarrow")

    def doclens(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id"),
            "doc_len": pa.array([max(len(x), 1)
                                 for x in t.column("text").to_pylist()],
                                pa.int64())})

    _stage(docs.map_batches(doclens, batch_format="pyarrow"),
           "enriched_chunks", sf_dir, sub="doclens")

    def section_rows(t: pa.Table) -> pa.Table:
        from graphrag_rs_ray.functions.layout import parse_layout
        cols = {k: [] for k in ("doc_id", "sec_idx", "heading_text",
                                "level", "start_offset", "content_end",
                                "parent")}
        # sentinel row so the staged dir is never empty (synthetic docs
        # may contain zero plaintext headings); '__none__' matches no doc
        cols["doc_id"].append("__none__")
        cols["sec_idx"].append(0)
        cols["heading_text"].append("")
        cols["level"].append(0)
        cols["start_offset"].append(0)
        cols["content_end"].append(0)
        cols["parent"].append(-1)
        for did, text in zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()):
            _, sections, _ = parse_layout(text or "", "plaintext")
            for i, s in enumerate(sections):
                cols["doc_id"].append(did)
                cols["sec_idx"].append(i)
                cols["heading_text"].append(s.heading.text)
                cols["level"].append(s.heading.level)
                cols["start_offset"].append(s.heading.start_offset)
                cols["content_end"].append(s.content_end)
                cols["parent"].append(-1 if s.parent_section is None
                                      else s.parent_section)
        return pa.table({
            "doc_id": pa.array(cols["doc_id"], pa.string()),
            "sec_idx": pa.array(cols["sec_idx"], pa.int64()),
            "heading_text": pa.array(cols["heading_text"], pa.string()),
            "level": pa.array(cols["level"], pa.int32()),
            "start_offset": pa.array(cols["start_offset"], pa.int64()),
            "content_end": pa.array(cols["content_end"], pa.int64()),
            "parent": pa.array(cols["parent"], pa.int64())})

    _stage(docs.map_batches(section_rows, batch_format="pyarrow"),
           "enriched_chunks", sf_dir, sub="sections")

    cfg = KGConfig(chunk_size=400, chunk_overlap=50)
    enriched = docs.map_batches(EnrichedChunkStage(cfg),
                                batch_format="pyarrow")
    _stage(enriched.map_batches(
        lambda t: t.select(["chunk_id", "doc_id", "text", "start", "end"]),
        batch_format="pyarrow"), "enriched_chunks", sf_dir)

    def for_driver(t: pa.Table) -> pa.Table:
        kws = [",".join(x) for x in t.column("keywords").to_pylist()]
        lvl = [(-1 if v is None else v)
               for v in t.column("structural_level").to_pylist()]
        t = t.drop_columns(["keywords", "structural_level"])
        return (t.append_column("keywords_csv", pa.array(kws, pa.string()))
                 .append_column("structural_level", pa.array(lvl, pa.int32())))

    return enriched.map_batches(for_driver, batch_format="pyarrow")


def q_semantic_chunks(sf_dir: str):
    """Semantic chunking (``text/semantic_chunking.rs``): percentile-80
    breakpoints over hash-embedding cosine distances.  The SENTENCES and
    per-adjacent-pair DISTANCES are staged (embeddings are procedural);
    DuckDB replays the percentile threshold (sort-index with the
    ``int(n*p/100)`` clamp), the ``d > thr`` breakpoint flags, and the
    segment assembly (cumsum window + ordered string_agg).  At this
    config (min_chunk_size=1, max_chunk_size=0) the merge/split arms are
    provably no-ops, so assembly is exact."""
    from graphrag_rs_ray.functions.semantic_chunking import (
        SemanticChunker, SemanticChunkerConfig, split_sentences)
    from graphrag_rs_ray.pipelines.training_data import _docs

    def sent_diffs(t: pa.Table) -> pa.Table:
        ch = SemanticChunker(SemanticChunkerConfig(
            breakpoint_strategy="percentile", threshold_amount=80.0))
        dids, idxs, sents, diffs = [], [], [], []
        for did, text in zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()):
            ss = split_sentences(text or "")
            if not ss:
                continue
            ds = (ch._distances(ch.embedder.embed_many(ss))
                  if len(ss) > 1 else [])
            for i, s in enumerate(ss):
                dids.append(did)
                idxs.append(i)
                sents.append(s)
                diffs.append(float(ds[i]) if i < len(ds) else None)
        return pa.table({"doc_id": pa.array(dids, pa.int64()),
                         "sent_idx": pa.array(idxs, pa.int64()),
                         "sentence": pa.array(sents, pa.string()),
                         "diff": pa.array(diffs, pa.float64())})

    _stage(_docs(sf_dir).map_batches(sent_diffs, batch_format="pyarrow"),
           "semantic_chunks", sf_dir)
    return td.semantic_chunks(sf_dir)


def q_consistency_report(sf_dir: str):
    """ConsistencyReport (``graph/incremental.rs:439-452,2496-2539``) over
    a deterministically-corrupted copy of the KG: every 5th entity row
    (by name-hash) dropped → broken relationships + orphan candidates;
    every 3rd embedding nulled → missing embeddings.  The corrupted
    entities + triples are staged; DuckDB recomputes all counts."""
    import hashlib
    from graphrag_rs_ray.state.transactions import consistency_report
    res = _kg_result(sf_dir)

    def corrupt(t: pa.Table) -> pa.Table:
        names = t.column("name").to_pylist()
        h = [int(hashlib.md5(n.encode()).hexdigest()[:8], 16) for n in names]
        keep = pa.array([x % 5 != 0 for x in h])
        kept = t.filter(keep)
        kh = [x for x in h if x % 5 != 0]
        emb = [None if x % 3 == 0
               else [float((x >> i) & 1) for i in range(8)] for x in kh]
        return kept.append_column(
            "embedding", pa.array(emb, pa.list_(pa.float64())))

    ents = _stage(res.entities.map_batches(corrupt, batch_format="pyarrow"),
                  "consistency_report", sf_dir)
    tris = _stage(res.triples.map_batches(
        lambda t: t.select(["subj", "pred", "obj"]), batch_format="pyarrow"),
        "consistency_report", sf_dir, sub="triples")
    import ray.data as rd
    return rd.from_arrow(consistency_report(ents, tris))


def q_chunk_embeddings(sf_dir: str):
    from graphrag_rs_ray.stages.embed import EmbedStage
    from graphrag_rs_ray.stages.memo import memoized_stage
    fn = memoized_stage(("embed", "text", 64), lambda: EmbedStage("text", 64))
    return q_kg_chunks(sf_dir).map_batches(fn, batch_format="pyarrow",
                                           batch_size=None).map_batches(
        lambda t: t.select(["chunk_id", "embedding"]), batch_format="pyarrow")


def q_simhash_dup_pairs_manku(sf_dir: str):
    """Manku/Jain/Sarma 2007 permuted-prefix simhash twin.  CROSS-PATH
    oracle: Ray derives candidates via the 20 permuted-prefix tables,
    DuckDB independently via 4×16 pigeonhole banding — both have exact
    recall for Hamming ≤ 3 and the same popcount verify, so agreement
    proves both constructions."""
    sigs = _stage(td.simhash_signatures(sf_dir),
                  "simhash_dup_pairs_manku", sf_dir)
    return td.simhash_dup_pairs_manku(sf_dir, sigs_ds=sigs)


def q_neural_embeddings(sf_dir: str):
    """Neural-provider seam (rows-only: procedural float32 MLP math has
    no SQL twin): fixed-weight 17 MB encoder loaded once per actor,
    batched encode over documents.  Distributed==local equality is
    unit-gated (``tests/test_neural_embed.py``)."""
    import ray.data as rd

    from graphrag_rs_ray.stages.embed import NeuralEmbedStage
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return docs.map_batches(NeuralEmbedStage, batch_format="pyarrow",
                            batch_size=256, concurrency=2).map_batches(
        lambda t: t.select(["doc_id", "embedding"]),
        batch_format="pyarrow")


def q_concept_mentions(sf_dir: str):
    """Concept extraction per chunk (``lightrag/concept_graph.rs:
    119-264``): capitalized + general noun-phrase regexes, top-20
    freq≥2 keywords (trimmed, non-stopword), validity gates, sorted +
    deduped.  The chunk TEXTS are staged and the oracle replays the
    ENTIRE extraction in SQL (regexp_extract_all matches Python
    finditer on this corpus — verified; keywords re-ranked with the
    same count-desc/word-asc tie-break)."""
    import re as _re
    from graphrag_rs_ray.pipelines.concepts import concept_mention_rows

    def ascii_chunks(t: pa.Table) -> pa.Table:
        # Python/Rust \b is Unicode, RE2's is ASCII — '_' is a word
        # char in BOTH, so mapping non-ASCII to '_' keeps boundary
        # behavior identical across engines (the production pipeline
        # runs on the raw text; this query runs on the staged copy)
        texts = [_re.sub(r"[^\x00-\x7f]", "_", x or "")
                 for x in t.column("text").to_pylist()]
        return pa.table({"chunk_id": t.column("chunk_id"),
                         "text": pa.array(texts, pa.string())})

    chunks = _stage(q_kg_chunks(sf_dir).map_batches(
        ascii_chunks, batch_format="pyarrow"), "concept_mentions",
        sf_dir)
    return concept_mention_rows(chunks)


def q_concept_table(sf_dir: str):
    from graphrag_rs_ray.pipelines.concepts import (
        concept_mention_rows, concept_table_from_mentions)
    mentions = _stage(concept_mention_rows(q_kg_chunks(sf_dir)),
                      "concept_table", sf_dir)
    return concept_table_from_mentions(mentions)


def q_concept_edges(sf_dir: str):
    """Concept co-occurrence edges; the per-chunk concept lists are staged
    as mention rows so the pair/Jaccard derivation is oracle-checked."""
    from graphrag_rs_ray.pipelines.concepts import (
        concept_chunk_lists, concept_edges_from_lists, mentions_from_lists)
    lists = concept_chunk_lists(q_kg_chunks(sf_dir)).materialize()
    _stage(mentions_from_lists(lists), "concept_edges", sf_dir)
    return concept_edges_from_lists(lists)


def q_minhash_lsh_candidates(sf_dir: str):
    """MinHash-LSH candidate pairs; the band rows (doc_id, band,
    band_hash) are staged so the band→candidate derivation (equal-bucket
    self-join + band count) is oracle-checked; the signature/band hashing
    itself stays unit-gated (not SQL-expressible)."""
    bands = _stage(td.minhash_signatures(sf_dir), "minhash_lsh_candidates",
                   sf_dir)
    return td.minhash_lsh_candidates(sf_dir, bands_ds=bands)


def q_lsh_buckets(sf_dir: str):
    """Hyperplane-LSH bucket ids; the plane matrix is staged so DuckDB
    re-derives sign(list_dot_product)→bit-packing from the same planes."""
    import ray.data as rd
    import pyarrow.parquet as _pq
    emb0 = _pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["embedding"])[:1]
    d = len(emb0.column("embedding")[0])
    planes = td.lsh_planes(d)
    ptbl = pa.table({
        "plane_idx": pa.array(range(len(planes)), pa.int64()),
        "plane": pa.array([p.tolist() for p in planes],
                          pa.list_(pa.float64()))})
    _stage(rd.from_arrow(ptbl), "lsh_buckets", sf_dir)
    return td.lsh_buckets(sf_dir)


def q_ngram_dedup_pairs(sf_dir: str):
    """n-gram Jaccard verify of the LSH candidates; the candidate pairs
    are staged and DuckDB independently re-computes the character-trigram
    Jaccard from the documents table."""
    cand = _stage(td.minhash_lsh_candidates(sf_dir).map_batches(
        lambda t: t.select(["doc_a", "doc_b"]), batch_format="pyarrow"),
        "ngram_dedup_pairs", sf_dir)
    return td.ngram_dedup_pairs(sf_dir, cand_ds=cand)


def q_dedup_clusters(sf_dir: str):
    """Transitive near-dup clustering (pairs → connected components →
    min-member representative).  The candidate pairs are staged; DuckDB
    independently re-computes the trigram-Jaccard verify from
    ``documents``, the recursive reachability closure over the verified
    pairs, the min-member cluster label, sizes and the keep flag."""
    cand = _stage(td.minhash_lsh_candidates(sf_dir).map_batches(
        lambda t: t.select(["doc_a", "doc_b"]), batch_format="pyarrow"),
        "dedup_clusters", sf_dir)
    return td.dedup_clusters(sf_dir, cand_ds=cand)


def q_simhash_dup_pairs(sf_dir: str):
    """SimHash near-dup pairs (4×16-bit pigeonhole bands → exact Hamming
    verify ≤ 3).  The signature rows are staged; DuckDB independently
    re-derives band slicing, the band-equality self-join and the
    ``bit_count(xor(...))`` Hamming verify."""
    sigs = _stage(td.simhash_signatures(sf_dir), "simhash_dup_pairs",
                  sf_dir)
    return td.simhash_dup_pairs(sf_dir, sigs_ds=sigs)


def q_corpus_curation(sf_dir: str):
    """End-to-end webtext curation (language/quality gates → exact dedup
    → MinHash-LSH near-dedup).  Only the MinHash band rows over the
    exact-dedup survivors are staged (the signature hashing is not
    SQL-expressible); DuckDB independently re-derives the annotate +
    filter + exact-dedup stages straight from ``documents``, the
    band→candidate self-join, the char-trigram Jaccard verify and the
    drop-larger-id rule."""
    surv = td.curation_survivors(sf_dir).materialize()
    bands = _stage(td.minhash_signatures(sf_dir, docs_ds=surv.map_batches(
        lambda t: t.select(["doc_id", "text"]), batch_format="pyarrow")),
        "corpus_curation", sf_dir)
    return td.corpus_curation(sf_dir, survivors_ds=surv, bands_ds=bands)


def q_simhash_signatures(sf_dir: str):
    """SimHash signatures; the per-word 64-bit hashes (blake2b — not
    available in SQL) are staged as a vocab table and DuckDB re-derives
    tokenize → per-bit vote → signature packing."""
    _stage(td.simhash_vocab(sf_dir), "simhash_signatures", sf_dir)
    return td.simhash_signatures(sf_dir)


def q_ivf_topk(sf_dir: str):
    """IVF ANN top-k; the inverted-list assignments and per-query probe
    lists are staged, and DuckDB re-derives the exact within-probed-lists
    cosine top-k (the scan+rank half of the operator; centroid training
    stays unit-gated)."""
    import ray.data as rd
    qids, qmat, cent, probe = td.ivf_index(sf_dir)
    _stage(td.ivf_assignments(sf_dir, cent), "ivf_topk", sf_dir)
    prows = pa.table({
        "query_id": pa.array([q for i, q in enumerate(qids)
                              for _ in probe[i]], pa.int64()),
        "cluster": pa.array([int(c) for i in range(len(qids))
                             for c in probe[i]], pa.int64())})
    _stage(rd.from_arrow(prows), "ivf_topk", sf_dir, sub="probe")
    return td.ivf_topk(sf_dir)


def q_hnsw_topk(sf_dir: str):
    """HNSW ANN top-k (per-shard navigable-small-world graphs,
    ``vector/mod.rs:54-178`` surface, Malkov-Yashunin algorithm); the
    per-shard ef_search candidate pools are staged and DuckDB re-derives
    the exact within-candidates cosine top-k — the rerank half of the
    operator; graph navigation recall is gated by ``test_hnsw_recall``."""
    cand = _stage(td.hnsw_shard_candidates(sf_dir), "hnsw_topk", sf_dir)
    return td.hnsw_topk(sf_dir, cand_ds=cand)


def _staged_conf_entities(query: str, sf_dir: str):
    """Canonical entities with a deterministic synthetic confidence
    (blake2b of the entity_id — the extractor's constant 0.8 would make
    confidence tie-breaks and averages degenerate)."""
    import hashlib

    ents = _kg_ds(sf_dir, "entities")

    def fin(t: pa.Table) -> pa.Table:
        cs = []
        for eid in t.column("entity_id").to_pylist():
            h = int.from_bytes(hashlib.blake2b(
                eid.encode(), digest_size=8).digest(), "big")
            cs.append(0.05 + (h % 900) / 1000.0)
        return pa.table({"entity_id": t.column("entity_id"),
                         "name": t.column("name"),
                         "type": t.column("type"),
                         "conf": pa.array(cs, pa.float64()),
                         "mention_count": t.column("mention_count")})

    return _stage(ents.map_batches(fin, batch_format="pyarrow"),
                  query, sf_dir, "ents")


def q_semantic_merge_pairs(sf_dir: str):
    """Semantic-merge candidate pairs
    (``entity/semantic_merging.rs:57-88,209-236,519-541``): same-type
    entity pairs with name_sim·0.7 + type·0.3 strictly above the 0.7
    threshold (exact/containment/word-Jaccard name similarity) — the
    order-free half of the grouping, computed per-type distributed
    (cross-type pairs cap at 0.7).  The oracle recomputes ALL pairwise
    similarities (both types) from the staged entities."""
    from graphrag_rs_ray.pipelines.semantic_merge import candidate_pairs
    ents = _staged_conf_entities("semantic_merge_pairs", sf_dir)
    return candidate_pairs(ents, threshold=0.7)


def q_semantic_merge_groups(sf_dir: str):
    """Merge decisions + merged entities per greedy similarity group
    (``semantic_merging.rs:133-185,238-273,333-378``): group-mean
    pairwise name similarity, the >0.8 merge gate with reasoning
    strings, longest-name/confidence best-name (LAST-maximal ties),
    combined descriptions, max(avg conf, decision conf).  The greedy
    star-grouping pass is sequential by reference semantics
    (unit-gated); its assignments are STAGED with member order so the
    oracle re-derives every decision column from the raw entity rows."""
    import ray.data as rd
    from graphrag_rs_ray.pipelines.semantic_merge import merge_groups_table
    ents = _staged_conf_entities("semantic_merge_groups", sf_dir)
    rows = sorted(ents.take_all(), key=lambda e: e["entity_id"])
    assignments, groups = merge_groups_table(rows, threshold=0.7)
    _stage(rd.from_arrow(assignments), "semantic_merge_groups", sf_dir,
           "groups")
    return rd.from_arrow(groups)


def _staged_doc_entities(query: str, sf_dir: str):
    """Distinct per-document entities (doc_id, local_entity_id, name)
    from the mention rows — the linker's flattened input
    (``entity_linker.rs:121-134``), staged.  Mention rows stream from
    the shared materialized ``combined`` checkpoint (one extraction
    pass feeds the whole tool/linking slice, nothing is collected to
    the driver)."""
    from graphrag_rs_ray.stages.hashagg import (
        grouped_arrow_agg, hash_grouped_aggregate)
    mentions = _kg_ds(sf_dir, "combined").map_batches(
        entities_only, batch_format="pyarrow")
    flat = hash_grouped_aggregate(
        mentions.map_batches(
            lambda t: pa.table({"doc_id": t.column("doc_id"),
                                "local_entity_id": t.column("entity_id"),
                                "name": t.column("name")}),
            batch_format="pyarrow"),
        ["doc_id", "local_entity_id"],
        grouped_arrow_agg(["doc_id", "local_entity_id"],
                          [("name", "min")],
                          rename=["doc_id", "local_entity_id", "name"]))
    return _stage(flat, query, sf_dir, "flat")


def _linked_clusters(query: str, sf_dir: str):
    """Returns ``(cluster_cols, stats)`` from the columnar hybrid-linking
    twin.  The flat table was just staged to local Parquet — read it back
    with pyarrow on the driver (the linker is the reference's sequential
    driver-side pass anyway); the previous ``Dataset.take_all()`` + 1.2M
    per-row dicts cost 8s of an 11s query, and only the (small) singleton
    set that reaches the greedy fuzzy pass actually needs row objects."""
    import ray.data as rd
    from graphrag_rs_ray.functions.entity_linker import (
        hybrid_linking_columnar)
    _staged_doc_entities(query, sf_dir)
    import pyarrow.dataset as pads
    tbl = (pads.dataset(_stage_path(query, sf_dir, "flat")).to_table()
           .sort_by([("doc_id", "ascending"),
                     ("local_entity_id", "ascending")]))
    cluster_cols, asg_cols, stats = hybrid_linking_columnar(
        tbl.column("doc_id"), tbl.column("local_entity_id"),
        tbl.column("name"))
    _stage(rd.from_arrow(pa.table(asg_cols)), query, sf_dir, "asg")
    return cluster_cols, stats


def q_entity_clusters(sf_dir: str):
    """Cross-document entity linking, hybrid strategy
    (``corpus/entity_linker.rs:330-375``): same-name multi-groups →
    exact clusters (conf 1.0, doc_freq = size, alias = name), singleton
    fall-through → greedy 0.85 fuzzy star pass (char-distance /
    byte-maxlen similarity, conf 0.85, doc_freq hardcoded 1).  Exact
    clusters and every cluster column are re-derived by the oracle from
    the staged flat entities; the greedy pass's assignments are staged
    (order-sequential, unit-gated).  Deterministic ids replace the
    reference's uuid4 (documented)."""
    import ray.data as rd
    cc, _ = _linked_clusters("entity_clusters", sf_dir)
    return rd.from_arrow(pa.table({
        "cluster_id": pa.array(cc["cluster_id"], pa.string()),
        "kind": pa.array(cc["kind"], pa.string()),
        "canonical_name": pa.array(cc["canonical_name"], pa.string()),
        "entity_type": pa.array(cc["entity_type"], pa.string()),
        "n_members": pa.array(cc["n_members"], pa.int64()),
        "confidence_score": pa.array(cc["confidence_score"], pa.float64()),
        "document_frequency": pa.array(cc["document_frequency"], pa.int64()),
        "aliases": pa.array(cc["aliases"], pa.string())}))


def q_entity_clusters_grouped(sf_dir: str):
    """Same clusters as ``q_entity_clusters``, via the DISTRIBUTED twin
    (``pipelines/entity_linking.hybrid_linking_grouped``): the exact
    tier runs hash-partitioned by surface form with no driver state —
    the corpus-scale path — and only the singleton fall-through reaches
    the driver's sequential fuzzy pass.  Stages its own flat + asg; the
    oracle re-derives the exact tier from flat independently (same SQL
    as ``entity_clusters``, different staged dir)."""
    from graphrag_rs_ray.pipelines.entity_linking import (
        hybrid_linking_grouped)
    flat = _staged_doc_entities("entity_clusters_grouped", sf_dir)
    clusters_ds, asg_ds, _ = hybrid_linking_grouped(flat)
    _stage(asg_ds, "entity_clusters_grouped", sf_dir, "asg")
    return clusters_ds


def q_entity_linking_stats(sf_dir: str):
    """LinkingStats for the hybrid run (``entity_linker.rs:45-87,
    476-487``): processed / clusters / exact / fuzzy match counts and
    accuracy = linked/processed — all recomputed by the oracle from the
    staged flat + assignment tables."""
    import ray.data as rd
    _, stats = _linked_clusters("entity_linking_stats", sf_dir)
    return rd.from_arrow(pa.table({
        "entities_processed": pa.array([stats["entities_processed"]],
                                       pa.int64()),
        "clusters_created": pa.array([stats["clusters_created"]],
                                     pa.int64()),
        "exact_matches": pa.array([stats["exact_matches"]], pa.int64()),
        "fuzzy_matches": pa.array([stats["fuzzy_matches"]], pa.int64()),
        "semantic_matches": pa.array([stats["semantic_matches"]],
                                     pa.int64()),
        "lmcd_clusters": pa.array([stats["lmcd_clusters"]], pa.int64()),
        "linking_accuracy": pa.array(
            [round(stats["linking_accuracy"], 8)], pa.float64())}))


def _staged_linker_entities(query: str, sf_dir: str, limit: int = 120):
    """Bounded canonical-entity set (top-``limit`` by mention count,
    entity_id tie-break, names ≤ 100 chars — the oracle's recursive
    Jaro bitmask needs < 126 positions) with the synthetic blake2b
    confidence (same device as ``_staged_conf_entities``), staged."""
    import hashlib

    import pyarrow.compute as pc

    ents = _kg_ds(sf_dir, "entities")

    def fin(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(pc.utf8_length(t.column("name")), 100))
        cs = []
        for eid in t.column("entity_id").to_pylist():
            h = int.from_bytes(hashlib.blake2b(
                eid.encode(), digest_size=8).digest(), "big")
            cs.append(0.05 + (h % 900) / 1000.0)
        return pa.table({"entity_id": t.column("entity_id"),
                         "name": t.column("name"),
                         "type": t.column("type"),
                         "conf": pa.array(cs, pa.float64()),
                         "mention_count": t.column("mention_count")})

    bounded = (ents.map_batches(fin, batch_format="pyarrow")
               .sort(["mention_count", "entity_id"],
                     descending=[True, False])
               .limit(limit))
    return _stage(bounded, query, sf_dir, "ents")


def q_string_sim_pairs(sf_dir: str):
    """String-similarity linker pair metrics
    (``entity/string_similarity_linker.rs:129-345``): every same-type
    entity pair's capped-Levenshtein / Jaro-Winkler (UNCONDITIONAL
    prefix bonus) / token-Jaccard similarity, the max combination, and
    the ≥ 0.85 link gate.  Exact-after-normalization pairs
    short-circuit to 1.0 (NULL components).  The oracle replays ALL of
    it from the staged bounded entities — including the reference's
    textbook Jaro matcher via a recursive CTE carrying a HUGEINT
    used-position bitmask (DuckDB's builtin jaro uses a different
    matcher + a 0.7 boost threshold; measured mismatches)."""
    from graphrag_rs_ray.pipelines.string_linking import similarity_pairs
    ents = _staged_linker_entities("string_sim_pairs", sf_dir)
    return similarity_pairs(ents)


def q_string_links(sf_dir: str):
    """Greedy string-similarity linking
    (``string_similarity_linker.rs:66-126``): seed-vs-candidate star
    pass over the entity_id-sorted bounded set, clusters > 1 member,
    canonical = max-confidence member with LAST-maximal ties (Rust
    ``max_by``), links = member → canonical.  The greedy pass is
    order-sequential → its assignments are staged; the oracle
    re-derives canonical selection from confidences AND re-verifies
    every member's similarity-to-seed ≥ 0.85 with the full SQL metric
    stack (a failed pair drops the row → hash mismatch)."""
    import ray.data as rd
    from graphrag_rs_ray.pipelines.string_linking import links_table
    ents = _staged_linker_entities("string_links", sf_dir)
    rows = sorted(ents.take_all(), key=lambda e: e["entity_id"])
    assignments, links = links_table(rows)
    _stage(rd.from_arrow(assignments), "string_links", sf_dir, "asg")
    return rd.from_arrow(links)


def q_lazy_chunks(sf_dir: str):
    """LazyGraphRAG fixed-size overlap chunker
    (``lightrag/lazy_pipeline.rs:236-271``): 512-char windows, 128
    overlap, next start = end − overlap, ``{doc}_{k}`` ids, loop breaks
    when a window reaches the end.  Zero staging — the oracle replays
    the chunk-boundary arithmetic straight off `documents`."""
    import ray.data as rd
    from graphrag_rs_ray.pipelines.lazy_pipeline import fixed_chunks
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])
    return fixed_chunks(docs)


def q_lazy_pipeline_stats(sf_dir: str):
    """LazyGraphRAG end-to-end PipelineStatistics
    (``lazy_pipeline.rs:152-234`` + ``bidirectional_index.rs:368-388``):
    document/chunk counts, concept-graph concept + co-occurrence≥2
    relation counts, bidirectional-index entity/chunk/mapping counts
    over NORMALIZED concept ids (lowercase, alnum+underscore filter —
    the reference's space-replace is dead code, pinned) and the two
    average ratios.  Concept-mention rows are staged; the oracle
    re-derives every count (chunk count from the chunker arithmetic,
    relations from the pair self-join, index stats from normalized
    distinct pairs)."""
    import ray.data as rd
    from graphrag_rs_ray.pipelines.lazy_pipeline import (
        fixed_chunks, lazy_concept_mentions, pipeline_statistics)
    # no pandas metadata on the staged files: reading them back would
    # make the schema unify log a hash warning
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"]).map_batches(
        lambda t: t.replace_schema_metadata(None), batch_format="pyarrow")
    mentions = _stage(lazy_concept_mentions(fixed_chunks(docs)),
                      "lazy_pipeline_stats", sf_dir)
    return rd.from_arrow(pipeline_statistics(docs, mentions))


def q_text_statistics(sf_dir: str):
    """Per-document TextStats (``text/analysis.rs:238-280``): word /
    sentence / paragraph / char counts with the min-1 clamps and both
    average ratios — straight off the documents table (zero staging;
    the oracle recomputes everything in SQL)."""
    import ray.data as rd
    from graphrag_rs_ray.functions.text_analysis import calculate_statistics

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        cols = {k: [] for k in ("doc_id", "word_count", "sentence_count",
                                "paragraph_count", "char_count",
                                "avg_sentence_length", "avg_word_length")}
        for did, text in zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()):
            s = calculate_statistics(text or "")
            cols["doc_id"].append(did)
            for k in list(cols)[1:]:
                cols[k].append(s[k])
        return pa.table({
            "doc_id": pa.array(cols["doc_id"], pa.int64()),
            "word_count": pa.array(cols["word_count"], pa.int64()),
            "sentence_count": pa.array(cols["sentence_count"], pa.int64()),
            "paragraph_count": pa.array(cols["paragraph_count"],
                                        pa.int64()),
            "char_count": pa.array(cols["char_count"], pa.int64()),
            "avg_sentence_length": pa.array(cols["avg_sentence_length"],
                                            pa.float64()),
            "avg_word_length": pa.array(cols["avg_word_length"],
                                        pa.float64())})

    return ds.map_batches(stats, batch_format="pyarrow")


_SN_ROMANS = ["I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX",
              "X", "XI", "XII"]


def q_section_numbers(sf_dir: str):
    """Section-number extraction (``text/analysis.rs:78-213``):
    deterministic heading lines synthesized from the documents table
    exercise every branch — decimal dotted, chapter/section/part
    keyword forms (number / roman / single letter — including the
    'Part C' alternation quirk that parses C as roman 100), bare roman
    (single letters like "C." too), bare alpha, and no-number lines.
    Lines are staged; the oracle replays regex precedence AND the
    reversed subtractive roman-numeral evaluation in SQL."""
    import ray.data as rd
    from graphrag_rs_ray.functions.text_analysis import (
        extract_section_number)

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id"])

    def gen(t: pa.Table) -> pa.Table:
        lid, lines = [], []
        for did in t.column("doc_id").to_pylist():
            i = int(did)
            pats = [
                f"{i % 9 + 1}.{i % 4}.{i % 3} Overview of the topic",
                f"Chapter {i % 12 + 1} Introduction",
                f"Section {_SN_ROMANS[i % 12]} Analysis",
                f"{_SN_ROMANS[i % 12]}. Preface",
                f"{chr(65 + i % 26)}. Appendix material",
                f"Part {chr(65 + i % 26)} Extra",
                "No numbering in this line",
                f"{i % 20 + 1}: Data section",
            ]
            lid.append(i)
            lines.append(pats[i % 8])
        return pa.table({"line_id": pa.array(lid, pa.int64()),
                         "line": pa.array(lines, pa.string())})

    staged = _stage(docs.map_batches(gen, batch_format="pyarrow"),
                    "section_numbers", sf_dir, "lines")

    def extract(t: pa.Table) -> pa.Table:
        fmts, raws, comps = [], [], []
        for line in t.column("line").to_pylist():
            sn = extract_section_number(line)
            if sn is None:
                fmts.append("none")
                raws.append("")
                comps.append("")
            else:
                fmts.append(sn["format"])
                raws.append(sn["raw"])
                comps.append(",".join(str(c) for c in sn["components"]))
        return pa.table({"line_id": t.column("line_id"),
                         "line": t.column("line"),
                         "fmt": pa.array(fmts, pa.string()),
                         "raw": pa.array(raws, pa.string()),
                         "components": pa.array(comps, pa.string())})

    return staged.map_batches(extract, batch_format="pyarrow")


def q_pipeline_validation(sf_dir: str):
    """Four-phase pipeline validation report
    (``evaluation/pipeline_validation.rs``) over a deterministically
    CORRUPTED copy of the KG artifacts (green-path counts are all zero —
    the corruption exercises every violation counter): every 7th chunk
    dropped (→ invalid mention refs + coverage misses), every 5th entity
    dropped (→ orphan triple endpoints), every 11th surviving entity's
    type blanked.  All five input tables are staged; DuckDB recomputes
    every check/metric row."""
    import hashlib
    import ray.data as rd
    from graphrag_rs_ray.pipelines.validation import pipeline_validation_report
    from graphrag_rs_ray.stages.enrich import EnrichedChunkStage
    import pyarrow.compute as _pc

    cfg = KGConfig()
    pages = _kg_pages(sf_dir)
    docs = pages.map_batches(extract_text_stage, batch_format="pyarrow")

    docs_staged = _stage(docs.map_batches(
        lambda t: pa.table({
            "doc_id": t.column("doc_id"),
            "doc_chars": _pc.utf8_length(t.column("text")).cast(pa.int64())}),
        batch_format="pyarrow"), "pipeline_validation", sf_dir, "docs")

    # enriched chunks (same chunker+cfg as pages_to_chunks → identical
    # chunk_ids), has_metadata per rs:107-114; every 7th chunk dropped
    def meta_flag(t: pa.Table) -> pa.Table:
        cids = t.column("chunk_id").to_pylist()
        keep = [int(hashlib.md5(c.encode()).hexdigest()[:8], 16) % 7 != 0
                for c in cids]
        has_meta = [ch is not None or len(kw) > 0 or su is not None
                    for ch, kw, su in zip(t.column("chapter").to_pylist(),
                                          t.column("keywords").to_pylist(),
                                          t.column("summary").to_pylist())]
        return pa.table({
            "chunk_id": t.column("chunk_id"),
            "doc_id": t.column("doc_id"),
            "text": t.column("text"),
            "has_metadata": pa.array(has_meta, pa.bool_()),
        }).filter(pa.array(keep))

    chunks_staged = _stage(
        docs.map_batches(EnrichedChunkStage(cfg), batch_format="pyarrow")
            .map_batches(meta_flag, batch_format="pyarrow"),
        "pipeline_validation", sf_dir, "chunks")

    combined = _kg_ds(sf_dir, "combined")
    mentions_staged = _stage(
        combined.map_batches(entities_only, batch_format="pyarrow")
                .map_batches(lambda t: t.select(["chunk_id", "entity_id"]),
                             batch_format="pyarrow"),
        "pipeline_validation", sf_dir, "mentions")

    entities = _kg_ds(sf_dir, "entities")

    def corrupt_entities(t: pa.Table) -> pa.Table:
        names = t.column("name").to_pylist()
        h = [int(hashlib.md5(n.encode()).hexdigest()[:8], 16) for n in names]
        kept = t.filter(pa.array([x % 5 != 0 for x in h]))
        kh = [x for x in h if x % 5 != 0]
        types = [("" if x % 11 == 0 else ty) for x, ty in
                 zip(kh, kept.column("type").to_pylist())]
        return pa.table({
            "name": kept.column("name"),
            "type": pa.array(types, pa.string()),
            "conf": kept.column("conf"),
            "mention_count": kept.column("mention_count")})

    entities_staged = _stage(
        entities.map_batches(corrupt_entities, batch_format="pyarrow"),
        "pipeline_validation", sf_dir, "entities")

    triples_staged = _stage(
        _kg_ds(sf_dir, "triples")
        .map_batches(lambda t: t.select(["subj", "pred", "obj", "conf"]),
                     batch_format="pyarrow"),
        "pipeline_validation", sf_dir, "triples")

    return rd.from_arrow(pipeline_validation_report(
        docs_staged, chunks_staged, mentions_staged, entities_staged,
        triples_staged))


# ------------------------------------------------------ corpus module --
# document_manager.rs / collection_processor.rs / graph_indexer.rs /
# knowledge_graph.rs — collection metadata, window-based extraction,
# document concepts, and the corpus-level knowledge graph.


def _corpus_pages(sf_dir: str):
    """pages → (doc_id=url, text) rows: the corpus module's document
    collection (the sf documents carry no capitalized text, so the
    synthetic entity-bearing pages are the collection content)."""

    def to_doc(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("url"),
                         "text": t.column("text")})

    return _kg_pages(sf_dir).map_batches(to_doc, batch_format="pyarrow")


def q_doc_collection(sf_dir: str):
    """DocumentMetadata rows (``document_manager.rs:9-47,225-285``) over
    the documents table — synthesized ``corpus/doc_<id>.<ext>`` paths
    (doc_id % 7 extension cycle keeps the mapping SQL-replayable),
    DocumentType, byte sizes, the substring-count language heuristic,
    and first-wins content dedup (the oracle re-derives duplicates from
    raw text equality; the blake2b hash column is dropped — hashing is
    not SQL-expressible and dup_of carries the check)."""
    import ray.data as rd
    from graphrag_rs_ray.pipelines.corpus import collection_table
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    ct = collection_table(ds)
    return ct.map_batches(lambda t: t.drop_columns(["content_hash"]),
                          batch_format="pyarrow")


def q_corpus_entities(sf_dir: str):
    """Graph-indexer extraction + quality gate
    (``graph_indexer.rs:62-131``, ``collection_processor.rs:215-263``):
    3-word all-capitalized windows (conf 0.6) then single capitalized
    words with byte length > 2 (conf 0.5), pre-dedup scan-order
    ``<doc>_entity_<k>`` ids, first-occurrence name dedup, and the
    type heuristics.  ZERO derivation staging: the oracle replays
    tokenization, windows, ids, dedup and typing in SQL from the staged
    collection text alone."""
    from graphrag_rs_ray.pipelines.corpus import corpus_entities
    docs = _stage(_corpus_pages(sf_dir), "corpus_entities", sf_dir, "docs")
    return corpus_entities(docs)


def _concepts_with_staging(query: str, sf_dir: str):
    from graphrag_rs_ray.pipelines.corpus import corpus_concepts
    docs = _stage(_corpus_pages(sf_dir), query, sf_dir, "docs")
    con = corpus_concepts(docs)
    pos = con.map_batches(
        lambda t: t.select(["doc_id", "pattern_idx", "start", "length"]),
        batch_format="pyarrow")
    _stage(pos, query, sf_dir, "pos")
    return con


def q_corpus_concepts(sf_dir: str):
    """Document concepts (``collection_processor.rs:265-310``): 5 regex
    patterns, sequential per-doc ids in (pattern, match) scan order,
    100-char context from 50 before the match, frequency/confidence
    constants.  Match POSITIONS are staged; the oracle re-derives the
    concept text, context window and ids from the raw collection text."""
    return _concepts_with_staging("corpus_concepts", sf_dir)


def q_corpus_concept_clusters(sf_dir: str):
    """Exact-text concept clustering
    (``collection_processor.rs:313-352``): group by lowercased trimmed
    concept text, members in (doc, pattern, match) scan order,
    ``cluster_<k>`` ids by sorted canonical text (pinned; the reference
    iterates a HashMap), and the faithful hardcoded document_frequency
    / total_mentions / confidence constants."""
    from graphrag_rs_ray.pipelines.corpus import concept_cluster_table
    con = _concepts_with_staging("corpus_concept_clusters", sf_dir)
    return concept_cluster_table(con)


_CORPUS_LINK_CACHE: dict[str, tuple] = {}


def _corpus_linked(query: str, sf_dir: str):
    """Corpus entity extraction → hybrid cross-document linking; stages
    the docs, flat entities AND cluster assignments (with cluster
    order, the reference's clusters-vec order) for the oracle.  The
    extraction + sequential linking pass is computed ONCE per process
    (shared by the six corpus queries); each query stages its own
    copies of the input tables."""
    import ray.data as rd
    from graphrag_rs_ray.functions.entity_linker import link_entities
    from graphrag_rs_ray.pipelines.corpus import corpus_entities

    if sf_dir not in _CORPUS_LINK_CACHE:
        docs_tbl = pa.Table.from_pylist(
            _corpus_pages(sf_dir).take_all(),
            schema=pa.schema([("doc_id", pa.string()),
                              ("text", pa.string())]))
        ents = corpus_entities(rd.from_arrow(docs_tbl))
        flat_rows = ents.map_batches(
            lambda t: pa.table({"doc_id": t.column("doc_id"),
                                "local_entity_id": t.column("entity_id"),
                                "name": t.column("name")}),
            batch_format="pyarrow").take_all()
        flat_tbl = pa.Table.from_pylist(
            flat_rows, schema=pa.schema([
                ("doc_id", pa.string()),
                ("local_entity_id", pa.string()),
                ("name", pa.string())]))
        # linker input order: documents in sorted-id order (pinned; the
        # reference iterates a HashMap), entities in extraction output
        # order within a doc (= name-byte order after the indexer dedup)
        rows = sorted(flat_rows,
                      key=lambda e: (e["doc_id"], e["name"].encode()))
        clusters, stats = link_entities(rows, "hybrid")
        a = {"doc_id": [], "local_entity_id": [], "cluster_id": [],
             "kind": [], "cluster_ord": [], "member_idx": []}
        for ci, c in enumerate(clusters):
            for mi, m in enumerate(c["members"]):
                a["doc_id"].append(m["doc_id"])
                a["local_entity_id"].append(m["local_entity_id"])
                a["cluster_id"].append(c["cluster_id"])
                a["kind"].append(c["kind"])
                a["cluster_ord"].append(ci)
                a["member_idx"].append(mi)
        asg_tbl = pa.table({
            "doc_id": pa.array(a["doc_id"], pa.string()),
            "local_entity_id": pa.array(a["local_entity_id"],
                                        pa.string()),
            "cluster_id": pa.array(a["cluster_id"], pa.string()),
            "kind": pa.array(a["kind"], pa.string()),
            "cluster_ord": pa.array(a["cluster_ord"], pa.int64()),
            "member_idx": pa.array(a["member_idx"], pa.int64())})
        _CORPUS_LINK_CACHE[sf_dir] = (docs_tbl, flat_tbl, asg_tbl,
                                      clusters, stats)

    docs_tbl, flat_tbl, asg_tbl, clusters, stats = \
        _CORPUS_LINK_CACHE[sf_dir]
    _stage(rd.from_arrow(docs_tbl), query, sf_dir, "docs")
    flat = _stage(rd.from_arrow(flat_tbl), query, sf_dir, "flat")
    _stage(rd.from_arrow(asg_tbl), query, sf_dir, "asg")
    return clusters, stats, flat


def q_corpus_kg_entities(sf_dir: str):
    """GlobalEntity rows (``knowledge_graph.rs:148-184,256-290``):
    total mentions, sorted distinct source documents and aliases, and
    the (ln(df)+1)·0.4 + (ln(mentions)+1)·0.3 + spread·0.3 over 3
    importance score.  The oracle re-derives every column — including
    the linker's canonical-name vote, confidence and type heuristics —
    from the staged flat entities + assignments."""
    import ray.data as rd
    from graphrag_rs_ray.pipelines.corpus import corpus_kg_tables
    clusters, _, _ = _corpus_linked("corpus_kg_entities", sf_dir)
    ge_tbl, _, _ = corpus_kg_tables(clusters)
    return rd.from_arrow(ge_tbl)


def q_corpus_kg_relations(sf_dir: str):
    """Co-occurrence relations (``knowledge_graph.rs:186-254``): each
    document's cluster-order member multiset → ordered (i<j) pairs
    (2-members-in-one-doc clusters yield faithful self-pairs), conf
    0.7 + 0.1 per repeat capped at 1.0, document frequency, appended
    source documents, and ``rel_<k>`` ids in pinned first-occurrence
    scan order (sorted docs; the reference iterates a HashMap)."""
    import ray.data as rd
    from graphrag_rs_ray.pipelines.corpus import corpus_kg_tables
    clusters, _, _ = _corpus_linked("corpus_kg_relations", sf_dir)
    _, rel_tbl, _ = corpus_kg_tables(clusters)
    return rd.from_arrow(rel_tbl)


def q_corpus_stats(sf_dir: str):
    """One-row CorpusStats + QualityMetrics + GraphStats
    (``collection_processor.rs:34-102``, ``knowledge_graph.rs:293-336``)
    incl. the faithful quirks: avg_relations_per_document is 0 (the
    extraction phase tracks none), largest_component_size = node count
    (the reference's simplification), density counts DIRECTED relation
    keys over undirected max edges."""
    import ray.data as rd
    from graphrag_rs_ray.pipelines.corpus import corpus_stats_table
    clusters, _, flat = _corpus_linked("corpus_stats", sf_dir)
    n_docs = _corpus_pages(sf_dir).count()
    return rd.from_arrow(corpus_stats_table(n_docs, flat.count(), clusters))


def q_corpus_search(sf_dir: str):
    """KG text query + top-k (``knowledge_graph.rs:348-370,402-407``):
    case-insensitive substring match over canonical name / aliases,
    importance-descending order (ties pinned id-ascending), top 10.
    Search term 'hampton' hits the hub person."""
    import ray.data as rd
    from graphrag_rs_ray.functions.corpus_index import (
        global_entities_from_clusters, query_entities)
    clusters, _, _ = _corpus_linked("corpus_search", sf_dir)
    ge = global_entities_from_clusters(clusters)
    hits = query_entities(ge, "hampton", limit=10)
    return rd.from_arrow(pa.table({
        "id": pa.array([e["id"] for e in hits], pa.string()),
        "canonical_name": pa.array([e["canonical_name"] for e in hits],
                                   pa.string()),
        "importance_score": pa.array(
            [round(e["importance_score"], 8) for e in hits], pa.float64()),
    }))


def q_corpus_related(sf_dir: str):
    """find_related_entities (``knowledge_graph.rs:416-453``): the
    reference's stack-pop "BFS" over DIRECTED co-occurrence edges with
    a global visited set and a pop-time depth gate — order-dependent
    procedural semantics (unit-gated kernel; rows-only driver check)."""
    import ray.data as rd
    from graphrag_rs_ray.functions.corpus_index import (
        cooccurrence_relations, find_related_entities,
        global_entities_from_clusters, query_entities)
    clusters, _, _ = _corpus_linked("corpus_related", sf_dir)
    rels = cooccurrence_relations(clusters)
    edges = [(r["source_entity_id"], r["target_entity_id"]) for r in rels]
    ge = global_entities_from_clusters(clusters)
    top = query_entities(ge, "", limit=1)  # highest-importance entity
    seed = top[0]["id"] if top else ""
    related = find_related_entities(edges, seed, max_depth=2)
    return rd.from_arrow(pa.table({
        "seed": pa.array([seed] * len(related), pa.string()),
        "entity_id": pa.array(related, pa.string()),
        "discovery_ord": pa.array(range(len(related)), pa.int64())}))


# -------------------------------------------------- document structure --
# text/document_structure.rs — section hierarchy built by the layout
# parsers (sections, stack parenting, depth map, heading paths, stats).


def _structure_docs(sf_dir: str):
    """Deterministic markdown documents synthesized from the documents
    table, exercising every markdown-parser branch: 4-level nesting,
    level pops, a 7-hash invalid line, a bare ``##`` (empty text,
    dropped), a missing-space ``#word`` line, space-indented headings,
    second roots, trailing-heading docs (empty final section) and
    no-structure docs (``doc_id % 11 == 0``)."""
    import ray.data as rd
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id"])

    def gen(t: pa.Table) -> pa.Table:
        ids, texts = [], []
        for did in t.column("doc_id").to_pylist():
            i = int(did)
            if i % 11 == 0:
                lines = [f"Plain narrative {i}.", "No headings here.",
                         f"Just body text {i % 3}."]
            else:
                lines = [f"# Document {i}", f"Body intro for doc {i}.",
                         f"## Background {i % 5}", "Shared body line.",
                         f"### Detail {i % 3}", f"#### Deep dive {i % 2}"]
                if i % 4 == 0:
                    lines.append("####### seven hashes is not a heading")
                if i % 3 == 0:
                    lines.append("##")
                if i % 5 == 0:
                    lines.append("#missing-space heading")
                if i % 6 == 1:
                    lines.append(f"   ## Indented {i % 3}")
                lines.append(f"## Methods {i % 7}")
                if i % 2 == 0:
                    lines.append(f"# Part Two of {i}")
                if i % 7 != 0:
                    lines.append(f"Closing remark {i}.")
            ids.append(i)
            texts.append("\n".join(lines))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(texts, pa.string())})

    return docs.map_batches(gen, batch_format="pyarrow")


def _structure_rows(t: pa.Table) -> pa.Table:
    from graphrag_rs_ray.functions.layout import (heading_path,
                                                  parse_layout,
                                                  section_depths)
    c: dict[str, list] = {k: [] for k in (
        "doc_id", "idx", "level", "heading_text", "start_offset",
        "end_offset", "line_number", "content_start", "content_end",
        "parent_idx", "depth", "heading_path", "n_children", "is_root")}
    for did, text in zip(t.column("doc_id").to_pylist(),
                         t.column("text").to_pylist()):
        _, sections, _ = parse_layout(text, "markdown")
        depths = section_depths(sections)
        for idx, s in enumerate(sections):
            h = s.heading
            c["doc_id"].append(did)
            c["idx"].append(idx)
            c["level"].append(h.level)
            c["heading_text"].append(h.text)
            c["start_offset"].append(h.start_offset)
            c["end_offset"].append(h.end_offset)
            c["line_number"].append(h.line_number)
            c["content_start"].append(s.content_start)
            c["content_end"].append(s.content_end)
            c["parent_idx"].append(s.parent_section)
            c["depth"].append(depths[idx])
            c["heading_path"].append(" > ".join(heading_path(sections, idx)))
            c["n_children"].append(len(s.child_sections))
            c["is_root"].append(s.parent_section is None)
    return pa.table({
        "doc_id": pa.array(c["doc_id"], pa.int64()),
        "idx": pa.array(c["idx"], pa.int64()),
        "level": pa.array(c["level"], pa.int64()),
        "heading_text": pa.array(c["heading_text"], pa.string()),
        "start_offset": pa.array(c["start_offset"], pa.int64()),
        "end_offset": pa.array(c["end_offset"], pa.int64()),
        "line_number": pa.array(c["line_number"], pa.int64()),
        "content_start": pa.array(c["content_start"], pa.int64()),
        "content_end": pa.array(c["content_end"], pa.int64()),
        "parent_idx": pa.array(c["parent_idx"], pa.int64()),
        "depth": pa.array(c["depth"], pa.int64()),
        "heading_path": pa.array(c["heading_path"], pa.string()),
        "n_children": pa.array(c["n_children"], pa.int64()),
        "is_root": pa.array(c["is_root"], pa.bool_())})


def q_doc_structure(sf_dir: str):
    """Section table (``text/document_structure.rs:66-230``): markdown
    headings (``parsers/markdown.rs:84-110``) → sections with content
    ranges (``html.rs:83-97`` shared build), stack parenting
    (``html.rs:100-137``), depth map (``document_structure.rs:120-146``)
    and root→leaf heading paths (``:188-206``).  ZERO derivation
    staging: the oracle re-parses the staged markdown text in SQL and
    rebuilds parents via nearest-smaller-level, depth/path via a
    recursive CTE."""
    docs = _stage(_structure_docs(sf_dir), "doc_structure", sf_dir, "docs")
    return docs.map_batches(_structure_rows, batch_format="pyarrow")


def q_doc_structure_stats(sf_dir: str):
    """Per-document StructureStatistics
    (``document_structure.rs:237-293``): heading/section totals, max
    hierarchy depth, root count and per-level heading counts (pivoted
    to level_1..level_6 columns)."""
    from graphrag_rs_ray.functions.layout import (parse_layout,
                                                  structure_statistics)
    docs = _stage(_structure_docs(sf_dir), "doc_structure_stats", sf_dir,
                  "docs")

    def stats_rows(t: pa.Table) -> pa.Table:
        c: dict[str, list] = {"doc_id": [], "total_headings": [],
                              "total_sections": [], "max_depth": [],
                              "root_sections": [], "has_structure": []}
        for lvl in range(1, 7):
            c[f"level_{lvl}"] = []
        for did, text in zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()):
            headings, sections, roots = parse_layout(text, "markdown")
            st = structure_statistics(headings, sections, roots)
            c["doc_id"].append(did)
            for k in ("total_headings", "total_sections", "max_depth",
                      "root_sections"):
                c[k].append(st[k])
            for lvl in range(1, 7):
                c[f"level_{lvl}"].append(st[f"level_{lvl}"])
            c["has_structure"].append(bool(headings))
        out = {"doc_id": pa.array(c["doc_id"], pa.int64())}
        for k in ("total_headings", "total_sections", "max_depth",
                  "root_sections"):
            out[k] = pa.array(c[k], pa.int64())
        for lvl in range(1, 7):
            out[f"level_{lvl}"] = pa.array(c[f"level_{lvl}"], pa.int64())
        out["has_structure"] = pa.array(c["has_structure"], pa.bool_())
        return pa.table(out)

    return docs.map_batches(stats_rows, batch_format="pyarrow")


# ------------------------------------------------ vector store actor --
# vector/voy_store.rs — shared mutable vector index as a Ray actor.


def _loaded_vector_store(sf_dir: str):
    import pyarrow.parquet as pq
    import ray.data as rd
    from graphrag_rs_ray.state.vector_store import (
        load_dataset_into_store, vector_store_actor)
    path = os.path.join(sf_dir, "embeddings.parquet")
    head = pq.read_table(path, columns=["embedding"]).column("embedding")
    dim = len(head[0])
    store = vector_store_actor(dim)
    # pandas metadata would make iter_batches' schema unify log a hash warning
    ds = rd.read_parquet(path, columns=["vec_id", "embedding"]).map_batches(
        lambda t: t.replace_schema_metadata(None), batch_format="pyarrow")
    load_dataset_into_store(store, ds, "vec_id", "embedding")
    return store, path


def q_vector_store_topk(sf_dir: str):
    """Vector-store search (``vector/voy_store.rs:88-204``): stream the
    embeddings table into ONE shared-index actor (batched add RPCs),
    build, then top-10 cosine per query (first 5 vec_ids) — ranks tied
    by vec_id ascending, matching the knn oracle convention.  Backend is
    a real median-split k-d tree (exact branch-and-bound k-NN on unit
    vectors + f64 cosine rerank — state/vector_store.py::KDTree), the
    same index family voy_store.rs wraps; tree == scan gated by
    tests/test_vector_store.py."""
    import ray
    import ray.data as rd
    store, path = _loaded_vector_store(sf_dir)
    ray.get(store.build_index.remote())
    import pyarrow.compute as _pc
    import pyarrow.parquet as pq
    head = pq.read_table(path, columns=["vec_id", "embedding"])
    order = _pc.sort_indices(head.column("vec_id"))[:5]
    qids = _pc.take(head.column("vec_id"), order).to_pylist()
    qvecs = _pc.take(head.column("embedding"), order).to_pylist()
    rows = {"query_id": [], "vec_id": [], "rank": []}
    for qid, qv in zip(qids, qvecs):
        hits = ray.get(store.search.remote(qv, 50))
        hits.sort(key=lambda h: (-h[1], int(h[0])))
        for r, (vid, _) in enumerate(hits[:10], start=1):
            rows["query_id"].append(int(qid))
            rows["vec_id"].append(int(vid))
            rows["rank"].append(r)
    return rd.from_arrow(pa.table({
        "query_id": pa.array(rows["query_id"], pa.int64()),
        "vec_id": pa.array(rows["vec_id"], pa.int64()),
        "rank": pa.array(rows["rank"], pa.int64())}))


def q_vector_store_stats(sf_dir: str):
    """VoyStoreStatistics (``voy_store.rs:288-320``) over the loaded
    store: count, dimension, built flag, min/max/avg raw-embedding
    norms (round 8 — pairwise-vs-sequential summation)."""
    import ray
    import ray.data as rd
    store, _ = _loaded_vector_store(sf_dir)
    ray.get(store.build_index.remote())
    st = ray.get(store.statistics.remote())
    return rd.from_arrow(pa.table({
        "vector_count": pa.array([st["vector_count"]], pa.int64()),
        "dimension": pa.array([st["dimension"]], pa.int64()),
        "index_built": pa.array([st["index_built"]], pa.bool_()),
        "min_norm": pa.array([round(st["min_norm"], 8)], pa.float64()),
        "max_norm": pa.array([round(st["max_norm"], 8)], pa.float64()),
        "avg_norm": pa.array([round(st["avg_norm"], 8)], pa.float64())}))


def _import_union(entities_ds, rels_ds):
    """Pad entity/relationship datasets to one shared all-string schema
    (kind 'e'/'r'; '' fills — never NULL, per the oracle-parity rule)."""

    def pad_e(t: pa.Table) -> pa.Table:
        fill = pa.array([""] * t.num_rows, pa.string())
        return pa.table({"kind": pa.array(["e"] * t.num_rows, pa.string()),
                         "id": t.column("id"), "name": t.column("name"),
                         "entity_type": t.column("entity_type"),
                         "attributes": t.column("attributes"),
                         "source": fill, "target": fill, "relation_type": fill})

    def pad_r(t: pa.Table) -> pa.Table:
        fill = pa.array([""] * t.num_rows, pa.string())
        return pa.table({"kind": pa.array(["r"] * t.num_rows, pa.string()),
                         "id": fill, "name": fill, "entity_type": fill,
                         "attributes": t.column("attributes"),
                         "source": t.column("source"),
                         "target": t.column("target"),
                         "relation_type": t.column("relation_type")})

    return (entities_ds.map_batches(pad_e, batch_format="pyarrow")
            .union(rels_ds.map_batches(pad_r, batch_format="pyarrow")))


def _stage_lines(lines: list[str], query: str, sf_dir: str):
    """Write synthesized import-source lines once as the raw file (the
    importer's input) and once as a `line` Parquet column (the oracle's
    input); returns the raw-file path."""
    import shutil
    import pyarrow.parquet as _pq
    src_dir = _stage_path(query, sf_dir, "src")
    lines_dir = _stage_path(query, sf_dir, "lines")
    for d in (src_dir, lines_dir):
        if os.path.exists(d):
            shutil.rmtree(d)
        os.makedirs(d, exist_ok=True)
    raw = os.path.join(src_dir, "input.txt")
    with open(raw, "w") as f:
        f.write("\n".join(lines) + "\n")
    _pq.write_table(pa.table({"line": pa.array(lines, pa.string())}),
                    os.path.join(lines_dir, "part-0.parquet"))
    return raw


def _rdf_ntriples_lines(sf_dir: str) -> list[str]:
    """Deterministic N-Triples corpus derived from `documents` (doc_id,
    lang): even ids get an rdfs:label, ids %3==0 get an rdf:type, every
    doc links to doc[(idx*7+1) % N] and carries a `lang` literal."""
    import pyarrow.parquet as _pq
    t = _pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                       columns=["doc_id", "lang"])
    ids = t.column("doc_id").to_pylist()
    langs = t.column("lang").to_pylist()
    order = sorted(range(len(ids)), key=lambda j: ids[j])
    n = len(ids)
    base = "http://ex.org/doc/"
    lines = ["# synthesized N-Triples import corpus"]
    for idx, j in enumerate(order):
        i, lang = ids[j], langs[j]
        s = f"<{base}{i}>"
        if i % 2 == 0:
            lines.append(f'{s} <http://www.w3.org/2000/01/rdf-schema#label> "Doc {i}" .')
        if i % 3 == 0:
            lines.append(f"{s} <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
                         f"<http://ex.org/ns#Document> .")
        tgt = ids[order[(idx * 7 + 1) % n]]
        lines.append(f"{s} <http://ex.org/ns/links> <{base}{tgt}> .")
        lines.append(f'{s} <http://ex.org/ns/lang> "{lang}" .')
    return lines


def q_rdf_import(sf_dir: str):
    """REAL N-Triples import (the reference's importer is a TODO stub,
    ``data_import.rs:533-543``): parse lines → relationships + per-subject
    entity merge (label/type/attribute folds).  Oracle re-parses the SAME
    staged lines with RE2 and re-derives both tables in SQL."""
    from graphrag_rs_ray.sources.rdf_graphml import import_rdf
    raw = _stage_lines(_rdf_ntriples_lines(sf_dir), "rdf_import", sf_dir)
    ents, rels, _errors = import_rdf(raw)
    return _import_union(ents, rels)


def _turtle_lines(sf_dir: str) -> list[str]:
    """Deterministic Turtle-lite corpus — the same shapes as
    ``_rdf_ntriples_lines`` but via @prefix'd names and the `a` keyword,
    so the SQL oracle re-derives the expansion too."""
    import pyarrow.parquet as _pq
    t = _pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                       columns=["doc_id", "lang"])
    ids = t.column("doc_id").to_pylist()
    langs = t.column("lang").to_pylist()
    order = sorted(range(len(ids)), key=lambda j: ids[j])
    n = len(ids)
    lines = ["# synthesized Turtle-lite import corpus",
             "@prefix doc: <http://ex.org/doc/> .",
             "@prefix ex: <http://ex.org/ns/> .",
             "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> ."]
    for idx, j in enumerate(order):
        i, lang = ids[j], langs[j]
        if i % 2 == 0:
            lines.append(f'doc:{i} rdfs:label "Doc {i}" .')
        if i % 3 == 0:
            lines.append(f"doc:{i} a ex:Document .")
        tgt = ids[order[(idx * 7 + 1) % n]]
        lines.append(f"doc:{i} ex:links doc:{tgt} .")
        lines.append(f'doc:{i} ex:lang "{lang}" .')
    return lines


def q_turtle_import(sf_dir: str):
    """Turtle-lite import (prefix expansion front end over the N-Triples
    machinery).  The oracle re-derives BOTH halves from the same staged
    raw lines: the prefix/`a` expansion via regexp_replace, then the
    same parse + per-subject merge SQL as `rdf_import`."""
    from graphrag_rs_ray.sources.rdf_graphml import import_turtle
    raw = _stage_lines(_turtle_lines(sf_dir), "turtle_import", sf_dir)
    ents, rels, _errors = import_turtle(raw)
    return _import_union(ents, rels)


def _graphml_lines(sf_dir: str) -> list[str]:
    """Deterministic one-element-per-line GraphML derived from
    `documents`: d0=name (even ids), d1=type (ids %3==0), d2=lang,
    edge d3=type (even ids; others default RELATED_TO)."""
    import pyarrow.parquet as _pq
    t = _pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                       columns=["doc_id", "lang"])
    ids = t.column("doc_id").to_pylist()
    langs = t.column("lang").to_pylist()
    order = sorted(range(len(ids)), key=lambda j: ids[j])
    n = len(ids)
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
             '<key id="d0" for="node" attr.name="name"/>',
             '<key id="d1" for="node" attr.name="type"/>',
             '<key id="d2" for="node" attr.name="lang"/>',
             '<key id="d3" for="edge" attr.name="type"/>',
             '<graph edgedefault="directed">']
    for idx, j in enumerate(order):
        i, lang = ids[j], langs[j]
        data = []
        if i % 2 == 0:
            data.append(f'<data key="d0">Doc {i}</data>')
        if i % 3 == 0:
            data.append('<data key="d1">Report</data>')
        data.append(f'<data key="d2">{lang}</data>')
        lines.append(f'<node id="n{i}">{"".join(data)}</node>')
        tgt = ids[order[(idx * 7 + 1) % n]]
        edata = '<data key="d3">links_to</data>' if i % 2 == 0 else ""
        lines.append(f'<edge source="n{i}" target="n{tgt}">{edata}</edge>')
    lines += ["</graph>", "</graphml>"]
    return lines


def q_graphml_import(sf_dir: str):
    """REAL GraphML import (the reference's importer is a TODO stub,
    ``data_import.rs:545-556``): ElementTree parse per file → key-mapped
    node/edge attributes.  Oracle re-parses the SAME staged lines with
    RE2 (the generator emits one element per line) and re-derives both
    tables in SQL — two independent parsers over identical raw text."""
    from graphrag_rs_ray.sources.rdf_graphml import import_graphml
    raw = _stage_lines(_graphml_lines(sf_dir), "graphml_import", sf_dir)
    ents, rels, _errors = import_graphml(raw)
    return _import_union(ents, rels)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # flagship KG construction (non-SQL-expressible → rows-only checks)
        "kg_triples": q_kg_triples,
        "kg_entities": q_kg_entities,
        "kg_entities_fuzzy": q_kg_entities_fuzzy,
        "kg_mentions": q_kg_mentions,
        "kg_chunks": q_kg_chunks,
        "kg_extract_text": q_extract_text,
        # training-data ops with DuckDB oracles
        "text_clean": q_text_clean,
        "exact_dedup": td.exact_dedup,
        "doc_fingerprints": td.doc_fingerprints,
        "token_stats": td.token_stats,
        "language_id": td.language_id,
        "quality_scores": td.quality_scores,
        "bm25_df": td.bm25_df,
        "bm25_corpus_stats": td.bm25_corpus_stats,
        "knn_bruteforce": td.knn_bruteforce,
        "cosine_dup_pairs": lambda sf: td.cosine_dup_pairs(sf, threshold=0.35),
        "temporal_edges": td.temporal_edges,
        "temporal_snapshot": td.temporal_snapshot,
        "temporal_evolution": td.temporal_evolution,
        "temporal_node_churn": td.temporal_node_churn,
        "temporal_top_growing": td.temporal_top_growing,
        "temporal_centrality": td.temporal_centrality,
        "tfidf_topk": td.tfidf_topk,
        # near-dup family (staged-input oracles: band rows / vocab hashes /
        # candidate pairs / plane matrix; the raw hashing stays unit-gated)
        "minhash_lsh_candidates": q_minhash_lsh_candidates,
        "simhash_signatures": q_simhash_signatures,
        "ngram_dedup_pairs": q_ngram_dedup_pairs,
        "dedup_clusters": q_dedup_clusters,
        "simhash_dup_pairs": q_simhash_dup_pairs,
        "simhash_dup_pairs_manku": q_simhash_dup_pairs_manku,
        # winnowing fingerprints: zero-staging oracle (full SQL re-derive)
        "winnow_fingerprints": td.winnow_fingerprints,
        "winnow_dup_pairs": td.winnow_dup_pairs,
        # duplicate-span profiling over shared winnow fingerprints
        "dup_span_profile": td.dup_span_profile,
        # C4 line-level cleaning (Raffel+ 2020 §2.2)
        "c4_clean": td.c4_clean,
        # PII redaction (typed placeholders, pinned pass order)
        "pii_redact": td.pii_redact,
        # deterministic training-order shuffle + shard manifest
        # (distributed order statistic over md5 hash order)
        "shuffle_shards": td.shuffle_shards,
        # cross-snapshot corpus diff (added/removed/changed/same)
        "corpus_diff": td.corpus_diff,
        "corpus_curation": q_corpus_curation,
        "lsh_buckets": q_lsh_buckets,
        # bucketed (LSH-blocked) scale path for embedding near-dup —
        # oracle-exact at these settings (recall ≈ 1 - 1.5e-10)
        "cosine_dup_pairs_bucketed": lambda sf: td.cosine_dup_pairs_bucketed(
            sf, threshold=0.35, band_bits=2, n_bands=48),
        # IVF ANN (approximate vs exact knn by design, recall gated in
        # tests; the within-probed-lists scan+rank is oracle-exact)
        "ivf_topk": q_ivf_topk,
        "hnsw_topk": q_hnsw_topk,
        # LazyGraphRAG concept-graph path + enrichment (rows-only)
        "concept_mentions": q_concept_mentions,
        "concept_table": q_concept_table,
        "concept_edges": q_concept_edges,
        "enriched_chunks": q_enriched_chunks,
        "semantic_chunks": q_semantic_chunks,
        # derived graph tables / similarity edges
        "entity_to_chunks": q_entity_to_chunks,
        "chunk_to_entities": q_chunk_to_entities,
        "co_occurring_entities": q_co_occurring_entities,
        "semantic_edges": q_semantic_edges,
        # graph ops over staged triples (oracle-checked)
        "connected_components": q_connected_components,
        "consistency_report": q_consistency_report,
        "doc_tree": q_doc_tree,
        "doc_tree_summaries": q_doc_tree_summaries,
        "semantic_merge_pairs": q_semantic_merge_pairs,
        "semantic_merge_groups": q_semantic_merge_groups,
        "entity_clusters": q_entity_clusters,
        "entity_clusters_grouped": q_entity_clusters_grouped,
        "entity_linking_stats": q_entity_linking_stats,
        # string-similarity linker (entity/string_similarity_linker.rs)
        "string_sim_pairs": q_string_sim_pairs,
        "string_links": q_string_links,
        # LazyGraphRAG end-to-end pipeline (lightrag/lazy_pipeline.rs)
        "lazy_chunks": q_lazy_chunks,
        "lazy_pipeline_stats": q_lazy_pipeline_stats,
        "text_statistics": q_text_statistics,
        "section_numbers": q_section_numbers,
        "chunk_embeddings": q_chunk_embeddings,
        "neural_embeddings": q_neural_embeddings,
        # BM25 scoring + sentence stats (oracle-checked)
        "bm25_scores": td.bm25_scores,
        "bm25_topk": td.bm25_topk,
        "sentence_stats": td.sentence_stats,
        # incremental delta ingest (rows-only)
        "incremental_update": q_incremental_update,
        # real RDF/GraphML import (TODO stubs in the reference) — oracle
        # re-parses the same staged raw lines in SQL
        "rdf_import": q_rdf_import,
        "turtle_import": q_turtle_import,
        "graphml_import": q_graphml_import,
        # rule-engine NER on actor pool (rows-only)
        "ner_mentions": q_ner_mentions,
        # mock-LLM gleaning path (rows-only)
        "gleaning_triples": q_gleaning_triples,
        # pipeline validation report (staged tables)
        "pipeline_validation": q_pipeline_validation,
        # corpus module (document_manager / collection_processor /
        # graph_indexer / knowledge_graph)
        "doc_collection": q_doc_collection,
        "corpus_entities": q_corpus_entities,
        "corpus_concepts": q_corpus_concepts,
        "corpus_concept_clusters": q_corpus_concept_clusters,
        "corpus_kg_entities": q_corpus_kg_entities,
        "corpus_kg_relations": q_corpus_kg_relations,
        "corpus_stats": q_corpus_stats,
        "corpus_search": q_corpus_search,
        "corpus_related": q_corpus_related,
        # document structure (text/document_structure.rs + layout parsers)
        "doc_structure": q_doc_structure,
        "doc_structure_stats": q_doc_structure_stats,
        # shared vector-store actor (vector/voy_store.rs)
        "vector_store_topk": q_vector_store_topk,
        "vector_store_stats": q_vector_store_stats,
    }


# -------------------------------------------------------- oracle_sql() --

_STOPLIST_SQL = "(" + ",".join(f"'{w}'" for w in sorted(STOP_WORDS)) + ")"

from graphrag_rs_ray.functions.keywords import TFIDF_STOPWORDS  # noqa: E402

_TFIDF_STOPLIST_SQL = "(" + ",".join(f"'{w}'" for w in sorted(TFIDF_STOPWORDS)) + ")"


_SQL_WS = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"


def _summarizer_sql(keys: list[str], max_len: int) -> str:
    """Generated-SQL replay of ``functions/keywords.summarize``
    (``extractive_summarizer.rs:30-69,108-271``): sentence split on
    ``[.!?]``, content-word frequency, the 5-term weighted score with the
    exact Python f64 op shapes (sequential left-associated adds, same
    divisions), ``(-score, position)`` ranking, and the greedy
    length-budget selection (with its every-iteration 90% early-exit)
    as a recursive CTE carrying ``(cur_len, selected)`` state.

    Expects a CTE ``nodes({keys}, content)`` over ASCII-sanitized text
    (the staging device neutralizes Unicode ``isalnum``/``\\s``
    divergences) and emits a CTE chain ending in
    ``summ({keys}, summary)``.  Returned fragment starts mid-``WITH``
    (caller supplies ``WITH nodes AS (...), {fragment}``)."""
    from graphrag_rs_ray.functions.keywords import TFIDF_STOPWORDS
    K = ", ".join(keys)
    KP = lambda a: ", ".join(f"{a}.{k}" for k in keys)
    JOIN = lambda a, b: " AND ".join(f"{a}.{k} = {b}.{k}" for k in keys)
    stop = "[" + ", ".join(f"'{w}'" for w in sorted(TFIDF_STOPWORDS)) + "]"
    cut = max(max_len - 3, 0)
    stop_len = max_len * 9 // 10
    return f"""
            s0 AS (
              SELECT {K}, list_filter(
                       list_transform(regexp_split_to_array(content, '[.!?]'),
                                      x -> trim(x, {_SQL_WS})),
                       x -> x <> '') AS sents
              FROM nodes),
            smeta AS MATERIALIZED (
              SELECT {K}, sents, len(sents)::BIGINT AS n FROM s0),
            sx AS (
              SELECT {K}, n,
                     unnest(range(0, n)) AS pos,
                     unnest(sents) AS s
              FROM smeta WHERE n >= 2),
            sw AS (
              SELECT {K}, n, pos, s,
                     regexp_split_to_array(s, '\\s+') AS words,
                     list_filter(
                       list_transform(regexp_split_to_array(s, '\\s+'),
                         w -> trim(regexp_replace(lower(w), '[^a-z0-9'']', '', 'g'),
                                   chr(39))),
                       w -> w <> '' AND NOT list_contains({stop}, w)) AS cw
              FROM sx),
            wcount AS (
              SELECT {K}, w, count(*)::BIGINT AS c
              FROM (SELECT {K}, unnest(cw) AS w FROM sw)
              GROUP BY {K}, w),
            freqs AS (
              SELECT {K}, pos, count(*)::BIGINT AS n_sw, sum(c)::BIGINT AS sum_c
              FROM (SELECT {K}, pos, unnest(cw) AS w FROM sw) t
              JOIN wcount USING ({K}, w)
              GROUP BY {K}, pos),
            scored AS (
              SELECT {KP('sw')}, sw.n, sw.pos, sw.s,
                     ((CASE WHEN sw.pos = 0 THEN 2.0
                            WHEN sw.pos = sw.n - 1 THEN 1.5
                            ELSE 1.0 - (sw.pos::DOUBLE / sw.n::DOUBLE) * 0.5
                       END) * 0.3
                      + (CASE WHEN len(sw.words) < 5 THEN 0.3
                              WHEN len(sw.words) > 40 THEN 0.5
                              WHEN len(sw.words) BETWEEN 10 AND 25 THEN 1.0
                              ELSE 0.7 END) * 0.2
                      + CASE WHEN f.n_sw IS NOT NULL
                             THEN least((f.sum_c::DOUBLE / f.n_sw::DOUBLE) / 3.0,
                                        1.0) * 0.3
                             ELSE 0.0 END
                      + least(len(list_filter(sw.words,
                                w -> regexp_matches(w, '^[A-Z]')
                                     AND length(w) > 2
                                     AND NOT list_contains({stop}, lower(w))
                              ))::DOUBLE / len(sw.words)::DOUBLE, 1.0) * 0.1
                      + CASE WHEN len(list_filter(sw.words,
                                       w -> regexp_matches(w, '[0-9]'))) > 0
                             THEN least(len(list_filter(sw.words,
                                          w -> regexp_matches(w, '[0-9]')
                                        ))::DOUBLE * 0.3, 1.0) * 0.1
                             ELSE 0.0 END) AS score
              FROM sw LEFT JOIN freqs f ON {JOIN('sw', 'f')} AND sw.pos = f.pos),
            ranked AS MATERIALIZED (
              SELECT {K}, pos, s, length(s)::BIGINT AS sl,
                     row_number() OVER (PARTITION BY {K}
                                        ORDER BY score DESC, pos ASC)::BIGINT AS rk
              FROM scored),
            rec AS (
              SELECT {K}, 0::BIGINT AS rk, 0::BIGINT AS cur_len,
                     CAST([] AS BIGINT[]) AS sel, FALSE AS stopped
              FROM (SELECT DISTINCT {K} FROM ranked)
              UNION ALL
              SELECT {KP('r')}, k.rk,
                     CASE WHEN r.cur_len + k.sl + 1 <= {max_len}
                          THEN r.cur_len + k.sl + 1 ELSE r.cur_len END,
                     CASE WHEN r.cur_len + k.sl + 1 <= {max_len}
                          THEN list_append(r.sel, k.pos) ELSE r.sel END,
                     (CASE WHEN r.cur_len + k.sl + 1 <= {max_len}
                           THEN r.cur_len + k.sl + 1 ELSE r.cur_len END)
                       >= {stop_len}
              FROM rec r JOIN ranked k
                ON {JOIN('k', 'r')} AND k.rk = r.rk + 1
              WHERE NOT r.stopped),
            fin AS (
              SELECT {K}, max_by(sel, rk) AS sel FROM rec GROUP BY {K}),
            fin2 AS (
              SELECT {KP('f')},
                     CASE WHEN len(f.sel) = 0 THEN [r1.pos] ELSE f.sel END AS sel
              FROM fin f JOIN ranked r1 ON {JOIN('f', 'r1')} AND r1.rk = 1),
            multi AS (
              SELECT {K}, string_agg(s, ' ' ORDER BY pos) AS out
              FROM (SELECT {KP('f')}, unnest(f.sel) AS pos FROM fin2 f) u
              JOIN ranked USING ({K}, pos)
              GROUP BY {K}),
            summ AS (
              SELECT {KP('m')},
                     CASE WHEN m.n = 0 THEN ''
                          WHEN m.n = 1 THEN
                            CASE WHEN length(m.sents[1]) <= {max_len}
                                 THEN m.sents[1]
                                 ELSE rtrim(substr(m.sents[1], 1, {cut}),
                                            {_SQL_WS}) || '...' END
                          ELSE
                            CASE WHEN length(mo.out) > {max_len}
                                 THEN rtrim(substr(mo.out, 1, {cut}),
                                            {_SQL_WS}) || '...'
                                 ELSE mo.out END
                     END AS summary
              FROM smeta m LEFT JOIN multi mo ON {JOIN('m', 'mo')})"""


def _kg_chunks_sql(chunk_size: int = 1000, overlap: int = 100,
                   min_chunk: int = 50) -> str:
    """Generated-SQL replay of the hierarchical chunker
    (``functions/chunking.py`` port of ``text/chunking.rs:48-152``) over
    staged sanitized docs: the while-loop is a recursive CTE over chunk
    START positions; each step re-derives the separator-priority boundary
    (8 reverse-strpos rfinds + the quarter-window gate, falling back to
    the backward word-boundary scan), the overlap back-off with the
    forced-progress guard, and the min-size trim gate.  All offsets are
    codepoints on both sides (DuckDB substr/length are character-based)."""
    s = _staged_sql("kg_chunks")
    seps = ["\n\n", "\n", ". ", "! ", "? ", "; ", ": ", " "]

    def lit(x: str) -> str:
        # SQL literal for a separator (newlines via chr())
        return " || ".join("chr(10)" if c == "\n" else f"'{c}'" for c in x) \
            if "\n" in x else f"'{x}'"

    def wb(p: str, t: str) -> str:
        # _word_boundary_backward(t, p): p minus the trailing
        # non-whitespace run length of t[:p]
        return (f"({p} - length(regexp_extract(substr({t}, 1, {p}),"
                f" '[^ \\t\\n\\x0B\\x0C\\r]*$')))")

    cascade = ", ".join(
        f"""CASE WHEN strpos(rw, {lit(sep[::-1])}) > 0
                 AND s + length(w) - strpos(rw, {lit(sep[::-1])}) + 1 > q
            THEN s + length(w) - strpos(rw, {lit(sep[::-1])}) + 1 END"""
        for sep in seps)

    # shared layering: starts × docs → (e0, w, rw, q) → opt → e
    def layers(extra_where: str) -> str:
        return f"""
          SELECT doc_id, s, text, lang, n, e0, tail,
                 CASE WHEN tail THEN n
                      WHEN opt > s THEN opt ELSE e0 END AS e
          FROM (
            SELECT doc_id, s, text, lang, n, e0, tail,
                   COALESCE({cascade}, {wb('e0', 'text')}) AS opt
            FROM (
              SELECT doc_id, s, text, lang, n, e0, tail, q, w, reverse(w) AS rw
              FROM (
                SELECT st.doc_id, st.s, d.text, d.lang, d.n,
                       least(st.s + {chunk_size}, d.n) AS e0,
                       (st.s + {chunk_size} >= d.n) AS tail,
                       st.s + ((least(st.s + {chunk_size}, d.n) - st.s) // 4) AS q,
                       substr(d.text, st.s + 1,
                              least(st.s + {chunk_size}, d.n) - st.s) AS w
                FROM starts st JOIN docs d USING (doc_id)
                {extra_where}) z1) z2) z3"""

    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"
    return f"""
            WITH RECURSIVE docs AS MATERIALIZED (
              SELECT doc_id, text, lang, length(text)::BIGINT AS n
              FROM {s}
              WHERE text IS NOT NULL AND text <> ''),
            starts AS (
              SELECT doc_id, 0::BIGINT AS s FROM docs
              UNION ALL
              SELECT doc_id,
                     CASE WHEN {wb('greatest(e - ' + str(overlap) + ', 0)',
                                   'text')} <= s
                          THEN e
                          ELSE {wb('greatest(e - ' + str(overlap) + ', 0)',
                                   'text')} END AS s
              FROM ({layers('WHERE st.s + ' + str(chunk_size) + ' < d.n')}) z4),
            emitted AS (
              SELECT doc_id, s, e, lang,
                     substr(text, s + 1, e - s) AS chunk
              FROM ({layers('')}) z5
              WHERE length(trim(substr(text, s + 1, e - s), {ws}))
                      >= {min_chunk})
            SELECT doc_id || '_' ||
                     (row_number() OVER (PARTITION BY doc_id ORDER BY s) - 1)
                     AS chunk_id,
                   doc_id, chunk AS text, s AS start, e AS "end", lang
            FROM emitted"""


def _kg_mentions_sql() -> str:
    """Generated-SQL replay of the ENTIRE default-path pattern extractor
    (``functions/entities.py`` port of ``entity/mod.rs:97-788``) over
    staged sanitized chunks:

    - word table with clean/cap/likely-person/title/non-person flags,
    - phase 1 known-name gazetteer: left-to-right greedy pair tiling as a
      recursive CTE carrying the consumed flag,
    - phase 2 title-based (2-or-3-word spans): recursive CTE carrying the
      two pending-consumption flags (d0, d1),
    - phase 3 two-word Cap-Cap pairs over the phases-1+2 processed set,
    - phase 4 single-word is conf 0.6 < min_confidence 0.7 at the default
      config — provably filtered, so omitted (documented),
    - organization suffix/prefix scans (first-occurrence, rfind-space
      word start → the bare-suffix-token quirk; prefix-to-dot slice) with
      the confidence formula in exact f64 op shapes,
    - location gazetteer contains-scan (confs computed at generation time
      by the ACTUAL Python ``calculate_confidence`` — parity by
      construction),
    - (name, type) dedup with max-conf merge, mention_count =
      n_emissions × non-overlapping occurrence count
      ((len - len(replace))//len — replace() is the same left-to-right
      scan as ``find_mentions``), and the post-dedup min-confidence gate.
    """
    from graphrag_rs_ray.functions import entities as E
    s = _staged_sql("kg_mentions")
    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"

    def inlist(vals) -> str:
        return "(" + ", ".join("'" + v.replace("'", "''") + "'"
                               for v in sorted(vals)) + ")"

    ends = " OR ".join(f"cl LIKE '%{e}'" for e in E.NAME_ENDINGS)
    pres = " OR ".join("cl LIKE '" + p.replace("'", "''") + "%'"
                       for p in E.NAME_PREFIXES)
    likely = f"""(length(clean) >= 2
        AND NOT (length(clean) <= 2 AND cl IN {inlist(E.SHORT_NON_NAMES)})
        AND regexp_matches(clean, '^[A-Z][A-Za-z'']*$')
        AND (length(clean) >= 3 OR {ends} OR {pres}))"""
    kp_vals = ", ".join(
        f"('{n.split()[0].lower()}', '{n.split()[1].lower()}', '{n}')"
        for n in E.KNOWN_PERSON_NAMES)

    # org confidence formula — same sequential f64 op shape as
    # calculate_confidence (base 0.5, +0.3 Inc/Corp/LLC, +0.2
    # University/Institute, +0.1 capitalized, min 1.0)
    org_conf = """least((((0.5
        + CASE WHEN name LIKE '%Inc%' OR name LIKE '%Corp%'
                 OR name LIKE '%LLC%' THEN 0.3 ELSE 0.0 END)
        + CASE WHEN name LIKE '%University%' OR name LIKE '%Institute%'
               THEN 0.2 ELSE 0.0 END)
        + CASE WHEN regexp_matches(name, '^[A-Z]') THEN 0.1 ELSE 0.0 END),
        1.0)"""
    org_likely = "(" + " OR ".join(f"name LIKE '%{ind}%'"
                                   for ind in E.ORG_INDICATORS) + ")"

    # per-suffix first-occurrence scan; start = rfind(' ') + 1
    suf_sql = "\nUNION ALL\n".join(f"""
        SELECT chunk_id, name FROM (
          SELECT chunk_id,
                 trim(substr(text, pos0 - t + 1, t + {len(suf)}), {ws}) AS name
          FROM (
            SELECT chunk_id, text, strpos(text, '{suf}') - 1 AS pos0,
                   length(regexp_extract(
                     substr(text, 1, strpos(text, '{suf}') - 1),
                     '[^ ]*$')) AS t
            FROM CHS WHERE strpos(text, '{suf}') > 0) z1) z2
        WHERE name <> ''""" for suf in E.ORG_SUFFIXES)

    pre_sql = "\nUNION ALL\n".join(f"""
        SELECT chunk_id, name FROM (
          SELECT chunk_id,
                 trim(substr(text, pos0 + 1,
                   CASE WHEN dotrel > 0 THEN pos0 + dotrel - 1
                        ELSE least(length(text), pos0 + 50) END - pos0),
                   {ws}) AS name
          FROM (
            SELECT chunk_id, text, strpos(text, '{pre}') - 1 AS pos0,
                   strpos(substr(text, strpos(text, '{pre}')), '.') AS dotrel
            FROM CHS WHERE strpos(text, '{pre}') > 0) z1) z2
        WHERE name <> '' AND length(name) > {len(pre)}"""
        for pre in E.ORG_PREFIXES)

    loc_sql = "\nUNION ALL\n".join(
        f"""SELECT chunk_id, '{loc}' AS name,
                   {E.calculate_confidence(loc, 'LOCATION')!r} AS conf
            FROM CHS WHERE strpos(text, '{loc}') > 0"""
        for loc in E.KNOWN_LOCATIONS)

    # shared flag joins for the phase-2 / phase-3 step+emission selects
    p2_can = """(NOT (pa.i IS NOT NULL OR r.d0)) AND cw.title
        AND nw.i IS NOT NULL AND NOT (pb.i IS NOT NULL OR r.d1)
        AND COALESCE(nw.cap, FALSE) AND COALESCE(nw.likely, FALSE)"""
    p2_third = """(tw.i IS NOT NULL AND pc2.i IS NULL
        AND COALESCE(tw.cap, FALSE) AND COALESCE(tw.likely, FALSE))"""
    p2_body = f"""
        SELECT r.chunk_id, r.i, r.d0, r.d1,
               ({p2_can}) AND {p2_third} AS tk3,
               ({p2_can}) AND NOT {p2_third} AS tk2,
               nw.clean AS nclean, tw.clean AS tclean
        FROM R2 r
        JOIN CH c ON c.chunk_id = r.chunk_id
        JOIN W cw ON cw.chunk_id = r.chunk_id AND cw.i = r.i
        LEFT JOIN W nw ON nw.chunk_id = r.chunk_id AND nw.i = r.i + 1
        LEFT JOIN W tw ON tw.chunk_id = r.chunk_id AND tw.i = r.i + 2
        LEFT JOIN P1 pa ON pa.chunk_id = r.chunk_id AND pa.i = r.i
        LEFT JOIN P1 pb ON pb.chunk_id = r.chunk_id AND pb.i = r.i + 1
        LEFT JOIN P1 pc2 ON pc2.chunk_id = r.chunk_id AND pc2.i = r.i + 2"""

    p3_cand = """(nw.i IS NOT NULL AND pxa.i IS NULL AND pxb.i IS NULL
        AND cw.cap AND COALESCE(nw.cap, FALSE)
        AND cw.likely AND COALESCE(nw.likely, FALSE)
        AND NOT cw.np AND NOT COALESCE(nw.np, TRUE))"""
    p3_body = f"""
        SELECT r.chunk_id, r.i, r.consumed,
               {p3_cand} AND NOT r.consumed AS tk,
               cw.clean AS aclean, nw.clean AS bclean
        FROM R3 r
        JOIN CH c ON c.chunk_id = r.chunk_id
        JOIN W cw ON cw.chunk_id = r.chunk_id AND cw.i = r.i
        LEFT JOIN W nw ON nw.chunk_id = r.chunk_id AND nw.i = r.i + 1
        LEFT JOIN PX pxa ON pxa.chunk_id = r.chunk_id AND pxa.i = r.i
        LEFT JOIN PX pxb ON pxb.chunk_id = r.chunk_id AND pxb.i = r.i + 1"""

    return f"""
        WITH RECURSIVE CHS AS MATERIALIZED (
          SELECT chunk_id, doc_id, text FROM {s}),
        WL AS (
          SELECT chunk_id,
                 list_filter(regexp_split_to_array(text, '\\s+'),
                             x -> x <> '') AS wl
          FROM CHS),
        W AS MATERIALIZED (
          SELECT chunk_id, i, w, clean, lower(clean) AS cl,
                 regexp_matches(w, '^[A-Z]') AS cap,
                 {likely.replace('cl ', 'lower(clean) ')} AS likely,
                 lower(clean) IN {inlist(E.PERSON_TITLES)} AS title,
                 lower(clean) IN {inlist(E.NON_PERSON_WORDS)} AS np
          FROM (
            SELECT chunk_id, i, w,
                   rtrim(regexp_replace(w, '[^A-Za-z'']', '', 'g'),
                         chr(39)) AS clean
            FROM (SELECT chunk_id, unnest(range(0, len(wl))) AS i,
                         unnest(wl) AS w
                  FROM WL WHERE len(wl) > 0) z0) z),
        CH AS MATERIALIZED (
          SELECT chunk_id, len(wl)::BIGINT AS n FROM WL WHERE len(wl) > 0),
        KN AS MATERIALIZED (
          SELECT a.chunk_id, a.i, kp.nm
          FROM W a JOIN W b ON b.chunk_id = a.chunk_id AND b.i = a.i + 1
          JOIN (VALUES {kp_vals}) kp(f, sx, nm)
            ON a.cl = kp.f AND b.cl = kp.sx),
        R1 AS (
          SELECT chunk_id, 0::BIGINT AS i, FALSE AS consumed FROM CH
          UNION ALL
          SELECT r.chunk_id, r.i + 1,
                 (kn.i IS NOT NULL AND NOT r.consumed) AS consumed
          FROM R1 r
          JOIN CH c ON c.chunk_id = r.chunk_id
          LEFT JOIN KN kn ON kn.chunk_id = r.chunk_id AND kn.i = r.i
          WHERE r.i + 1 < c.n),
        T1 AS (
          SELECT r.chunk_id, r.i, kn.nm
          FROM R1 r JOIN KN kn
            ON kn.chunk_id = r.chunk_id AND kn.i = r.i
          WHERE NOT r.consumed),
        P1 AS MATERIALIZED (
          SELECT chunk_id, i FROM T1
          UNION ALL SELECT chunk_id, i + 1 FROM T1),
        R2 AS (
          SELECT chunk_id, 0::BIGINT AS i, FALSE AS d0, FALSE AS d1 FROM CH
          UNION ALL
          SELECT z.chunk_id, z.i + 1, (z.d1 OR z.tk2 OR z.tk3), z.tk3
          FROM ({p2_body}
                WHERE r.i + 1 < c.n) z),
        E2S AS MATERIALIZED (
          SELECT * FROM ({p2_body}) z WHERE z.tk2 OR z.tk3),
        P2 AS MATERIALIZED (
          SELECT chunk_id, i FROM E2S
          UNION ALL SELECT chunk_id, i + 1 FROM E2S
          UNION ALL SELECT chunk_id, i + 2 FROM E2S WHERE tk3),
        PX AS MATERIALIZED (
          SELECT chunk_id, i FROM P1 UNION ALL SELECT chunk_id, i FROM P2),
        R3 AS (
          SELECT chunk_id, 0::BIGINT AS i, FALSE AS consumed FROM CH
          UNION ALL
          SELECT z.chunk_id, z.i + 1, z.tk
          FROM ({p3_body}
                WHERE r.i + 1 < c.n) z),
        E3S AS MATERIALIZED (
          SELECT * FROM ({p3_body}) z WHERE z.tk),
        EM AS (
          SELECT chunk_id, nm AS name, 'PERSON' AS type, {0.95!r} AS conf
          FROM T1
          UNION ALL
          SELECT chunk_id,
                 CASE WHEN tk3 THEN nclean || ' ' || tclean
                      ELSE nclean END AS name,
                 'PERSON', {0.9!r} FROM E2S
          UNION ALL
          SELECT chunk_id, aclean || ' ' || bclean, 'PERSON', {0.8!r}
          FROM E3S
          UNION ALL
          SELECT chunk_id, name, 'ORGANIZATION', {org_conf}
          FROM (SELECT chunk_id, name FROM ({suf_sql}) so
                WHERE {org_likely}
                UNION ALL
                SELECT chunk_id, name FROM ({pre_sql}) po) orgs
          WHERE {org_conf} >= 0.7
          UNION ALL
          SELECT chunk_id, name, 'LOCATION', conf
          FROM ({loc_sql}) locs WHERE conf >= 0.7),
        DD AS (
          SELECT chunk_id, name, type, max(conf) AS conf,
                 count(*)::BIGINT AS n_emit
          FROM EM GROUP BY chunk_id, name, type)
        SELECT d.chunk_id, c.doc_id,
               d.type || '_' ||
                 regexp_replace(lower(d.name), '[^a-z0-9_]', '', 'g')
                 AS entity_id,
               d.name, d.type, d.conf::FLOAT4 AS conf,
               (d.n_emit * ((length(c.text)
                             - length(replace(c.text, d.name, '')))
                            // length(d.name)))::BIGINT AS mention_count
        FROM DD d JOIN CHS c USING (chunk_id)
        WHERE d.conf >= 0.7"""


def _enriched_chunks_sql() -> str:
    """Oracle for ``q_enriched_chunks``: section lookup = the
    last-containing-offset rule (max sec_idx) + recursive parent walk to
    the heading path; keywords = the empty-DF TF-IDF degenerate case
    (all scores 0 → lexicographic top-5); summary = the full
    ``_summarizer_sql`` replay gated at 150 chars; position = start /
    doc_len re-cast to FLOAT4 with the same double-rounding."""
    from graphrag_rs_ray.functions.keywords import TFIDF_STOPWORDS
    stop = "[" + ", ".join(f"'{w}'" for w in sorted(TFIDF_STOPWORDS)) + "]"
    s = _staged_sql("enriched_chunks")
    sec = _staged_sql("enriched_chunks", "sections")
    dl = _staged_sql("enriched_chunks", "doclens")
    return f"""
            WITH RECURSIVE chunks AS MATERIALIZED (
              SELECT chunk_id, doc_id, text, start, "end" FROM {s}),
            secs AS MATERIALIZED (SELECT * FROM {sec}),
            nodes AS MATERIALIZED (
              SELECT chunk_id, text AS content FROM chunks
              WHERE length(text) > 150),
            {_summarizer_sql(['chunk_id'], 150)},
            found AS (
              SELECT c.chunk_id, c.doc_id, max(se.sec_idx) AS sec_idx
              FROM chunks c JOIN secs se
                ON se.doc_id = c.doc_id
               AND se.start_offset <= c.start AND c.start < se.content_end
              GROUP BY c.chunk_id, c.doc_id),
            walk AS (
              SELECT f.chunk_id, f.doc_id, se.parent AS cur,
                     [se.heading_text] AS path
              FROM found f JOIN secs se
                ON se.doc_id = f.doc_id AND se.sec_idx = f.sec_idx
              UNION ALL
              SELECT w.chunk_id, w.doc_id, se.parent,
                     list_append(w.path, se.heading_text)
              FROM walk w JOIN secs se
                ON se.doc_id = w.doc_id AND se.sec_idx = w.cur
              WHERE w.cur >= 0),
            wfin AS (
              SELECT chunk_id, list_reverse(max_by(path, len(path))) AS rpath
              FROM walk GROUP BY chunk_id),
            kw AS (
              SELECT chunk_id,
                     list_sort(list_distinct(list_filter(
                       list_transform(regexp_split_to_array(text, '\\s+'),
                         w -> lower(regexp_replace(w, '[^A-Za-z0-9_-]', '', 'g'))),
                       w -> w <> '' AND length(w) > 2
                            AND NOT list_contains({stop}, w)
                            AND NOT regexp_matches(w, '^[0-9]+$')))) AS kws
              FROM chunks)
            SELECT c.chunk_id, c.doc_id, c.text, c.start, c."end",
                   w.rpath[1] AS chapter,
                   CASE WHEN len(w.rpath) > 1 THEN w.rpath[2] END AS section,
                   CASE WHEN len(w.rpath) > 2 THEN w.rpath[3] END AS subsection,
                   array_to_string(k.kws[1:5], ',') AS keywords_csv,
                   CASE WHEN length(c.text) > 150 THEN s2.summary END AS summary,
                   (c.start::DOUBLE / d.doc_len::DOUBLE)::FLOAT4
                     AS position_in_document,
                   COALESCE(sv.level, -1)::INTEGER AS structural_level
            FROM chunks c
            JOIN kw k USING (chunk_id)
            JOIN {dl} d ON d.doc_id = c.doc_id
            LEFT JOIN found f ON f.chunk_id = c.chunk_id
            LEFT JOIN secs sv ON sv.doc_id = c.doc_id AND sv.sec_idx = f.sec_idx
            LEFT JOIN wfin w ON w.chunk_id = c.chunk_id
            LEFT JOIN summ s2 ON s2.chunk_id = c.chunk_id"""


def _doc_tree_summaries_sql() -> str:
    """Tree STRUCTURE re-derived arithmetically (same device as the
    ``doc_tree`` oracle), node content re-assembled as the ordered
    ``\\n\\n``-join of the node's leaf chunk texts (inner content is the
    flat join by construction — ``pipelines/doctree.py`` joins child
    contents, which flattens), then every node summary replayed via
    ``_summarizer_sql`` (max_summary_length 200)."""
    s = _staged_sql("doc_tree_summaries")
    return f"""
            WITH RECURSIVE leaves AS (
              SELECT doc_id, chunk_id,
                     regexp_extract(chunk_id, '_(\\d+)$', 1)::BIGINT AS pos,
                     text
              FROM {s}),
            docs AS (SELECT doc_id, count(*) AS n FROM leaves GROUP BY doc_id),
            leaf_rows AS (
              SELECT l.doc_id, 'leaf_' || l.chunk_id AS node_id,
                     0::BIGINT AS level,
                     CASE WHEN d.n > 1
                          THEN 'level_1_' || (l.pos // 5)
                          ELSE NULL END AS parent_id,
                     0::BIGINT AS n_children, 1::BIGINT AS n_leaves,
                     l.text AS content
              FROM leaves l JOIN docs d USING (doc_id)),
            lv AS (SELECT unnest(range(1, 10)) AS L),
            ks AS (SELECT unnest(range(0, greatest(
                     (SELECT max(n)::BIGINT FROM docs), 1))) AS k),
            lk AS (
              SELECT d.doc_id, d.n, l.L, k.k,
                     power(5, l.L)::BIGINT AS p,
                     power(5, l.L - 1)::BIGINT AS pp
              FROM docs d CROSS JOIN lv l CROSS JOIN ks k),
            inner_base AS (
              SELECT doc_id, n, L, k, p, pp FROM lk
              WHERE ((n + pp - 1) // pp) > 1
                AND k < ((n + p - 1) // p)),
            inner_rows AS (
              SELECT b.doc_id, 'level_' || b.L || '_' || b.k AS node_id,
                     b.L::BIGINT AS level,
                     CASE WHEN ((b.n + b.p - 1) // b.p) > 1
                          THEN 'level_' || (b.L + 1) || '_' || (b.k // 5)
                          ELSE NULL END AS parent_id,
                     least(5, ((b.n + b.pp - 1) // b.pp) - 5 * b.k)::BIGINT
                       AS n_children,
                     least(b.p, b.n - b.p * b.k)::BIGINT AS n_leaves,
                     string_agg(l.text, chr(10) || chr(10) ORDER BY l.pos)
                       AS content
              FROM inner_base b JOIN leaves l
                ON l.doc_id = b.doc_id
               AND l.pos >= b.p * b.k AND l.pos < b.p * (b.k + 1)
              GROUP BY b.doc_id, b.n, b.L, b.k, b.p, b.pp),
            nodes AS (
              SELECT doc_id, node_id, level, parent_id, n_children,
                     n_leaves, content
              FROM leaf_rows
              UNION ALL
              SELECT * FROM inner_rows),
            {_summarizer_sql(['doc_id', 'node_id'], 200)}
            SELECT n.doc_id, n.node_id, n.level, n.parent_id,
                   n.n_children, n.n_leaves, s2.summary
            FROM nodes n JOIN summ s2 USING (doc_id, node_id)"""


_NT_PARSE_SQL_BODY = """
            res AS (
              SELECT regexp_extract(line, '^<([^>]*)> <([^>]*)> <([^>]*)> \\.$', 1) AS subj,
                     regexp_extract(line, '^<([^>]*)> <([^>]*)> <([^>]*)> \\.$', 2) AS pred,
                     regexp_extract(line, '^<([^>]*)> <([^>]*)> <([^>]*)> \\.$', 3) AS obj
              FROM raw
              WHERE regexp_matches(line, '^<[^>]*> <[^>]*> <[^>]*> \\.$')),
            lit AS (
              SELECT regexp_extract(line, '^<([^>]*)> <([^>]*)> "([^"]*)"(?:\\^\\^<[^>]*>|@[A-Za-z0-9-]+)? \\.$', 1) AS subj,
                     regexp_extract(line, '^<([^>]*)> <([^>]*)> "([^"]*)"(?:\\^\\^<[^>]*>|@[A-Za-z0-9-]+)? \\.$', 2) AS pred,
                     regexp_extract(line, '^<([^>]*)> <([^>]*)> "([^"]*)"(?:\\^\\^<[^>]*>|@[A-Za-z0-9-]+)? \\.$', 3) AS v
              FROM raw
              WHERE regexp_matches(line, '^<[^>]*> <[^>]*> "[^"]*"(\\^\\^<[^>]*>|@[A-Za-z0-9-]+)? \\.$')),
            lits AS (SELECT subj,
                            coalesce(nullif(regexp_extract(pred, '([^/#]+)$', 1), ''), pred) AS k,
                            v
                     FROM lit),
            typ AS (SELECT subj,
                           min(coalesce(nullif(regexp_extract(obj, '([^/#]+)$', 1), ''), obj)) AS t
                    FROM res
                    WHERE pred = 'http://www.w3.org/1999/02/22-rdf-syntax-ns#type'
                    GROUP BY subj),
            lab AS (SELECT subj, min(v) AS name FROM lits WHERE k = 'label' GROUP BY subj),
            att AS (SELECT subj, k, min(v) AS v FROM lits WHERE k <> 'label' GROUP BY subj, k),
            attj AS (SELECT subj,
                            '{' || string_agg('"' || k || '": "' || v || '"', ', ' ORDER BY k) || '}' AS attributes
                     FROM att GROUP BY subj),
            subs AS (SELECT DISTINCT subj FROM
                       (SELECT subj FROM res UNION ALL SELECT subj FROM lit)),
            ents AS (
              SELECT 'e' AS kind, s.subj AS id,
                     coalesce(lab.name,
                              coalesce(nullif(regexp_extract(s.subj, '([^/#]+)$', 1), ''), s.subj)) AS name,
                     coalesce(typ.t, 'Entity') AS entity_type,
                     coalesce(attj.attributes, '{}') AS attributes,
                     '' AS source, '' AS target, '' AS relation_type
              FROM subs s
              LEFT JOIN lab USING (subj) LEFT JOIN typ USING (subj)
              LEFT JOIN attj USING (subj)),
            rels AS (
              SELECT 'r' AS kind, '' AS id, '' AS name, '' AS entity_type,
                     '{}' AS attributes, subj AS source, obj AS target,
                     coalesce(nullif(regexp_extract(pred, '([^/#]+)$', 1), ''), pred) AS relation_type
              FROM res
              WHERE pred <> 'http://www.w3.org/1999/02/22-rdf-syntax-ns#type')
            SELECT * FROM ents UNION ALL SELECT * FROM rels
        """


def _winnow_cte(k: int = 12, w: int = 5, base: int = 257) -> str:
    """CTE list re-deriving `functions.dedup.Winnower` fingerprints in SQL
    straight from ``documents.text`` (zero staging): ASCII-filter-then-
    lowercase normalize, degree-(k-1) polynomial gram hash in HUGEINT
    folded mod 2^64 then masked to 63 bits (≡ numpy uint64 wraparound +
    mask), rightmost-window-min selection via equality-joined window
    explosion (never a per-doc range join — that is quadratic in grams)."""
    mod64 = 1 << 64
    pows = [pow(base, k - 1 - j, mod64) for j in range(k)]
    terms = " + ".join(
        f"ascii(substr(s, pos + {j + 1}, 1))::HUGEINT * {p}"
        for j, p in enumerate(pows))
    return f"""
        norm AS (SELECT doc_id,
                        lower(regexp_replace(text, '[^a-zA-Z0-9]', '', 'g')) AS s
                 FROM documents),
        wg AS (SELECT doc_id, unnest(range(0, length(s) - {k} + 1)) AS pos, s
               FROM norm WHERE length(s) >= {k}),
        gh AS (SELECT doc_id, pos,
                      (({terms}) % {mod64} % {1 << 63})::BIGINT AS h
               FROM wg),
        wng AS (SELECT doc_id, count(*) AS n FROM gh GROUP BY doc_id),
        wstarts AS (SELECT gh.doc_id, gh.pos AS s
                    FROM gh JOIN wng USING (doc_id)
                    WHERE gh.pos <= greatest(wng.n - {w}, 0)),
        wjh AS (SELECT st.doc_id, st.s, h2.pos, h2.h
                FROM (SELECT doc_id, s, s + unnest(range(0, {w})) AS pos
                      FROM wstarts) st
                JOIN gh h2 USING (doc_id, pos)),
        wmin AS (SELECT doc_id, s, min(h) AS mh FROM wjh GROUP BY doc_id, s),
        wsel AS (SELECT w1.doc_id, max(w2.pos) AS pos, w1.mh AS fp
                 FROM wmin w1 JOIN wjh w2
                   ON w2.doc_id = w1.doc_id AND w2.s = w1.s AND w2.h = w1.mh
                 GROUP BY w1.doc_id, w1.s, w1.mh),
        winnow_fps AS (SELECT DISTINCT doc_id, pos, fp FROM wsel)"""


def oracle_sql() -> dict[str, str]:
    d = _oracle_sql_base()
    d["shuffle_shards"] = r"""
        WITH r AS (SELECT doc_id, md5('shuf:' || doc_id::VARCHAR) AS h
                   FROM documents),
        p AS (SELECT doc_id,
                     row_number() OVER (ORDER BY h, doc_id) - 1 AS pos,
                     count(*) OVER () AS total
              FROM r)
        SELECT doc_id, pos::BIGINT AS pos,
               ((pos * 16) // total)::BIGINT AS shard,
               (pos - (((pos * 16) // total) * total + 16 - 1) // 16
                )::BIGINT AS shard_pos
        FROM p"""
    d["corpus_diff"] = r"""
        WITH cur AS (SELECT doc_id, md5(text) AS fp FROM documents),
        prev AS (
          SELECT doc_id,
                 CASE WHEN doc_id % 13 = 5
                      THEN md5(substr(text, 1, length(text) // 2))
                      ELSE md5(text) END AS fp
          FROM documents WHERE doc_id % 11 <> 3
          UNION ALL
          SELECT 1000000000 + doc_id, md5('gone:' || doc_id::VARCHAR)
          FROM documents WHERE doc_id % 17 = 2)
        SELECT coalesce(c.doc_id, p.doc_id)::BIGINT AS doc_id,
               CASE WHEN p.doc_id IS NULL THEN 'added'
                    WHEN c.doc_id IS NULL THEN 'removed'
                    WHEN c.fp = p.fp THEN 'same'
                    ELSE 'changed' END AS status
        FROM cur c FULL OUTER JOIN prev p ON c.doc_id = p.doc_id"""
    d["winnow_fingerprints"] = ("WITH " + _winnow_cte() +
                                "\nSELECT doc_id, pos, fp FROM winnow_fps")
    d["c4_clean"] = r"""
        WITH base AS (SELECT doc_id, text,
                             string_split(text, chr(10)) AS l
                      FROM documents),
        lines AS (SELECT doc_id, i,
                         trim(l[i], ' ' || chr(9) || chr(13)) AS ln
                  FROM (SELECT doc_id, l,
                               unnest(range(1, len(l) + 1)) AS i
                        FROM base)),
        lk AS (SELECT doc_id, i, ln,
                      (regexp_matches(ln, '[.!?"]$')
                       AND NOT contains(lower(ln), 'javascript')
                       AND len(list_filter(
                             regexp_split_to_array(ln, '[ \t\r\v\f]+'),
                             x -> length(x) > 0)) >= 5) AS kl
               FROM lines),
        agg AS (SELECT doc_id, count(*)::BIGINT AS n_lines,
                       sum(CASE WHEN kl THEN 1 ELSE 0 END)::BIGINT
                         AS n_kept_lines,
                       coalesce(string_agg(CASE WHEN kl THEN ln END,
                                           chr(10) ORDER BY i), '')
                         AS cleaned
                FROM lk GROUP BY doc_id)
        SELECT b.doc_id, a.n_lines, a.n_kept_lines,
               (contains(b.text, '{') OR contains(b.text, '}')) AS has_brace,
               contains(lower(b.text), 'lorem ipsum') AS has_lorem,
               (NOT (contains(b.text, '{') OR contains(b.text, '}'))
                AND NOT contains(lower(b.text), 'lorem ipsum')
                AND a.n_kept_lines >= 3) AS keep,
               a.cleaned
        FROM base b JOIN agg a ON a.doc_id = b.doc_id"""
    from graphrag_rs_ray.functions.webclean import (PII_EMAIL, PII_IPV4,
                                                    PII_PHONE)
    d["pii_redact"] = f"""
        WITH s1 AS (SELECT doc_id, text,
               (len(regexp_split_to_array(text, '{PII_EMAIL}')) - 1)::BIGINT
                 AS n_email,
               regexp_replace(text, '{PII_EMAIL}', '<EMAIL>', 'g') AS t1
             FROM documents),
        s2 AS (SELECT doc_id, n_email,
               (len(regexp_split_to_array(t1, '{PII_IPV4}')) - 1)::BIGINT
                 AS n_ip,
               regexp_replace(t1, '{PII_IPV4}', '<IP>', 'g') AS t2
             FROM s1),
        s3 AS (SELECT doc_id, n_email, n_ip,
               (len(regexp_split_to_array(t2, '{PII_PHONE}')) - 1)::BIGINT
                 AS n_phone,
               regexp_replace(t2, '{PII_PHONE}', '<PHONE>', 'g') AS redacted
             FROM s2)
        SELECT doc_id, n_email, n_ip, n_phone, redacted FROM s3"""
    d["dup_span_profile"] = ("WITH " + _winnow_cte(k=40, w=10) + """,
        wdfp AS (SELECT DISTINCT doc_id, fp FROM winnow_fps),
        wshared AS (SELECT fp FROM wdfp GROUP BY fp HAVING count(*) > 1),
        sp AS (SELECT DISTINCT w.doc_id, w.pos
               FROM winnow_fps w JOIN wshared sh ON sh.fp = w.fp),
        brks AS (SELECT doc_id, pos,
                        CASE WHEN lag(pos) OVER (PARTITION BY doc_id ORDER BY pos) IS NULL
                             OR pos - lag(pos) OVER (PARTITION BY doc_id ORDER BY pos) > 40
                             THEN 1 ELSE 0 END AS brk
                 FROM sp),
        isl AS (SELECT doc_id, pos,
                       sum(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS iid
                FROM brks),
        per_isl AS (SELECT doc_id, iid,
                           (max(pos) - min(pos) + 40)::BIGINT AS clen,
                           count(*)::BIGINT AS npos
                    FROM isl GROUP BY doc_id, iid),
        dd AS (SELECT doc_id, sum(clen)::BIGINT AS dup_chars,
                      sum(npos)::BIGINT AS n_dup_positions
               FROM per_isl GROUP BY doc_id)
        SELECT n.doc_id, length(n.s)::BIGINT AS norm_len,
               coalesce(dd.n_dup_positions, 0)::BIGINT AS n_dup_positions,
               coalesce(dd.dup_chars, 0)::BIGINT AS dup_chars,
               (length(n.s) > 0 AND 5 * coalesce(dd.dup_chars, 0) >= length(n.s))
                 AS heavy_dup
        FROM norm n LEFT JOIN dd ON dd.doc_id = n.doc_id""")
    d["winnow_dup_pairs"] = ("WITH " + _winnow_cte() + """,
        wdf AS (SELECT DISTINCT doc_id, fp FROM winnow_fps),
        wcnt AS (SELECT fp FROM wdf
                 GROUP BY fp HAVING count(*) > 1 AND count(*) <= 16),
        wp AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
               FROM wdf a
               JOIN wcnt c ON a.fp = c.fp
               JOIN wdf b ON b.fp = a.fp AND a.doc_id < b.doc_id)
        SELECT doc_a, doc_b, count(*)::BIGINT AS n_shared
        FROM wp GROUP BY doc_a, doc_b HAVING count(*) >= 4""")
    d["bm25_topk"] = ("SELECT * FROM (" + d["bm25_scores"] +
                      ") ORDER BY score DESC, doc_id ASC LIMIT 10")
    d["doc_tree_summaries"] = _doc_tree_summaries_sql()
    d["enriched_chunks"] = _enriched_chunks_sql()
    d["kg_chunks"] = _kg_chunks_sql()
    d["kg_mentions"] = _kg_mentions_sql()
    d["pipeline_validation"] = _validation_sql()
    d["semantic_merge_pairs"] = _semantic_merge_pairs_sql()
    d["semantic_merge_groups"] = _semantic_merge_groups_sql()
    d["entity_clusters"] = _entity_clusters_sql()
    d["entity_clusters_grouped"] = _entity_clusters_sql(
        "entity_clusters_grouped")
    d["entity_linking_stats"] = _entity_linking_stats_sql()
    d["string_sim_pairs"] = _string_sim_pairs_sql()
    d["string_links"] = _string_links_sql()
    d["lazy_chunks"] = _lazy_chunks_sql()
    d["lazy_pipeline_stats"] = _lazy_stats_sql()
    d["concept_mentions"] = _concept_mentions_sql()
    d["ner_mentions"] = _ner_mentions_sql()
    d["text_statistics"] = _text_statistics_sql()
    d["section_numbers"] = _section_numbers_sql()
    d["doc_collection"] = _doc_collection_sql()
    d["corpus_entities"] = _corpus_entities_sql()
    d["corpus_concepts"] = _corpus_concepts_sql()
    d["corpus_concept_clusters"] = _corpus_concept_clusters_sql()
    d["corpus_kg_entities"] = _corpus_kg_entities_sql()
    d["corpus_kg_relations"] = _corpus_kg_relations_sql()
    d["corpus_stats"] = _corpus_stats_sql()
    d["corpus_search"] = _corpus_search_sql()
    d["doc_structure"] = _doc_structure_sql()
    d["doc_structure_stats"] = _doc_structure_stats_sql()
    d["vector_store_topk"] = """
        WITH q AS (
          SELECT vec_id AS query_id, embedding AS qe
          FROM embeddings ORDER BY vec_id LIMIT 5),
        scored AS (
          SELECT q.query_id, e.vec_id,
                 row_number() OVER (
                   PARTITION BY q.query_id
                   ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC,
                            e.vec_id ASC) AS rank
          FROM q CROSS JOIN embeddings e)
        SELECT query_id, vec_id, rank::BIGINT AS rank
        FROM scored WHERE rank <= 10
    """
    d["vector_store_stats"] = """
        WITH n AS (SELECT sqrt(list_dot_product(
                     embedding::DOUBLE[], embedding::DOUBLE[])) AS nm,
                   len(embedding) AS dim
                   FROM embeddings)
        SELECT count(*)::BIGINT AS vector_count,
               max(dim)::BIGINT AS dimension,
               true AS index_built,
               round(min(nm), 8) AS min_norm,
               round(max(nm), 8) AS max_norm,
               round(avg(nm), 8) AS avg_norm
        FROM n
    """
    return d


def _text_statistics_sql() -> str:
    """TextStats oracle (``analysis.rs:238-280``): whitespace words,
    ``.!?`` character sentences (min 1), \\n\\n paragraphs (min 1),
    char counts, single-division ratios (bit-identical shapes)."""
    return """
        SELECT doc_id,
          len(list_filter(string_split_regex(text, '\\s+'),
              w -> w <> ''))::BIGINT AS word_count,
          greatest(length(text) - length(replace(replace(replace(text,
              '.', ''), '!', ''), '?', '')), 1)::BIGINT
            AS sentence_count,
          greatest(len(list_filter(string_split(text, chr(10) || chr(10)),
              p -> trim(p) <> '')), 1)::BIGINT AS paragraph_count,
          length(text)::BIGINT AS char_count,
          len(list_filter(string_split_regex(text, '\\s+'),
              w -> w <> ''))::DOUBLE
            / greatest(length(text) - length(replace(replace(replace(text,
              '.', ''), '!', ''), '?', '')), 1)::DOUBLE
            AS avg_sentence_length,
          CASE WHEN len(list_filter(string_split_regex(text, '\\s+'),
                    w -> w <> '')) > 0
               THEN length(text)::DOUBLE
                    / len(list_filter(string_split_regex(text, '\\s+'),
                          w -> w <> ''))::DOUBLE
               ELSE 0.0 END AS avg_word_length
        FROM documents
    """


def _roman_val_sql(col: str) -> str:
    """Reversed-subtractive roman evaluation (``analysis.rs:188-213``)
    as a forward rule: a char's value is negated when strictly smaller
    than its right neighbour's."""
    def val(pos: str) -> str:
        return (f"(CASE substr({col}, {pos}, 1) "
                f"WHEN 'I' THEN 1 WHEN 'V' THEN 5 WHEN 'X' THEN 10 "
                f"WHEN 'L' THEN 50 WHEN 'C' THEN 100 WHEN 'D' THEN 500 "
                f"WHEN 'M' THEN 1000 ELSE 0 END)")
    return (f"list_sum(list_transform(range(1, length({col}) + 1), "
            f"i -> CASE WHEN {val('i')} < {val('i + 1')} "
            f"THEN -{val('i')} ELSE {val('i')} END))")


def _section_numbers_sql() -> str:
    """Section-number oracle (``analysis.rs:78-213``): the four regex
    branches replayed in precedence order with the roman evaluation in
    SQL; components re-derived from the raw capture."""
    lines = _staged_sql("section_numbers", "lines")
    rv_ch = _roman_val_sql("ch2")
    rv_ro = _roman_val_sql("ro")
    return f"""
        WITH l AS (SELECT line_id, line FROM {lines}),
        cap AS (SELECT line_id, line,
          regexp_extract(line, '^(\\d+(?:\\.\\d+)*)\\s*[.:]?\\s', 1)
            AS dec,
          regexp_extract(line,
            '(?i)^(chapter|section|part|appendix)\\s+(\\d+|[IVXLCDM]+|[A-Z])\\b',
            1) AS ch1,
          regexp_extract(line,
            '(?i)^(chapter|section|part|appendix)\\s+(\\d+|[IVXLCDM]+|[A-Z])\\b',
            2) AS ch2,
          regexp_extract(line, '^([IVXLCDM]+)[.:]?\\s', 1) AS ro,
          regexp_extract(line, '^([A-Z])[.:]?\\s', 1) AS al
          FROM l)
        SELECT line_id, line,
          CASE WHEN dec <> '' THEN 'decimal'
               WHEN ch2 <> '' THEN 'mixed'
               WHEN ro <> '' THEN 'roman'
               WHEN al <> '' THEN 'alphabetic'
               ELSE 'none' END AS fmt,
          CASE WHEN dec <> '' THEN dec
               WHEN ch2 <> '' THEN ch1 || ' ' || ch2
               WHEN ro <> '' THEN ro
               WHEN al <> '' THEN al
               ELSE '' END AS raw,
          CASE WHEN dec <> '' THEN
                 array_to_string(list_transform(string_split(dec, '.'),
                   x -> x::BIGINT::VARCHAR), ',')
               WHEN ch2 <> '' THEN
                 CASE WHEN regexp_matches(ch2, '^\\d+$')
                        THEN ch2::BIGINT::VARCHAR
                      WHEN regexp_matches(ch2, '^[IVXLCDM]+$')
                        THEN ({rv_ch})::VARCHAR
                      ELSE (ascii(ch2) - ascii('A') + 1)::VARCHAR END
               WHEN ro <> '' THEN ({rv_ro})::VARCHAR
               WHEN al <> '' THEN (ascii(al) - ascii('A') + 1)::VARCHAR
               ELSE '' END AS components
        FROM cap
    """


_ETYPE_SQL = """CASE
    WHEN contains(lower({cn}), 'company') OR contains(lower({cn}), 'corp')
         OR contains(lower({cn}), 'inc') THEN 'organization'
    WHEN substr({cn}, 1, 1) = upper(substr({cn}, 1, 1))
         AND substr({cn}, 1, 1) <> lower(substr({cn}, 1, 1))
         AND NOT contains({cn}, ' ') THEN 'person'
    WHEN contains(lower({cn}), 'city') OR contains(lower({cn}), 'country')
         THEN 'location'
    ELSE 'other' END"""


def _entity_clusters_sql(query: str = "entity_clusters") -> str:
    """Hybrid-linking cluster oracle (``entity_linker.rs:330-473``):
    exact clusters derived INDEPENDENTLY from the flat entities
    (same-name groups > 1), fuzzy clusters from the staged assignments
    with canonical name (count → length → name ties), type heuristics,
    and the hardcoded confidence/doc-frequency/alias quirks.  The same
    SQL serves ``entity_clusters_grouped`` (the distributed twin) via
    its own staged dir."""
    flat = _staged_sql(query, "flat")
    asg = _staged_sql(query, "asg")
    et = _ETYPE_SQL.replace("{cn}", "cn")
    return f"""
        WITH flat AS MATERIALIZED (
          SELECT doc_id, local_entity_id, name FROM {flat}),
        asg AS MATERIALIZED (SELECT * FROM {asg}),
        exact AS (
          SELECT 'exact:' || name AS cluster_id, 'exact' AS kind,
                 name AS cn, count(*)::BIGINT AS n_members,
                 1.0 AS confidence_score,
                 count(*)::BIGINT AS document_frequency,
                 name AS aliases
          FROM flat GROUP BY name HAVING count(*) > 1),
        fz AS (SELECT a.cluster_id, f.name FROM asg a
               JOIN flat f USING (doc_id, local_entity_id)
               WHERE a.kind = 'fuzzy'),
        fcnt AS (SELECT cluster_id, name, count(*) AS cnt FROM fz
                 GROUP BY cluster_id, name),
        fcan AS (SELECT cluster_id, name AS cn FROM (
                   SELECT cluster_id, name, row_number() OVER (
                     PARTITION BY cluster_id
                     ORDER BY cnt DESC, length(name) DESC, name DESC)
                       AS rn
                   FROM fcnt) WHERE rn = 1),
        fuzzy AS (
          SELECT z.cluster_id, 'fuzzy' AS kind, c.cn,
                 count(*)::BIGINT AS n_members, 0.85 AS confidence_score,
                 1::BIGINT AS document_frequency, '' AS aliases
          FROM fz z JOIN fcan c USING (cluster_id)
          GROUP BY z.cluster_id, c.cn)
        SELECT cluster_id, kind, cn AS canonical_name,
               {et} AS entity_type, n_members, confidence_score,
               document_frequency, aliases
        FROM (SELECT * FROM exact UNION ALL SELECT * FROM fuzzy)
    """


def _entity_linking_stats_sql() -> str:
    """LinkingStats oracle (``entity_linker.rs:45-87,476-487``)."""
    flat = _staged_sql("entity_linking_stats", "flat")
    asg = _staged_sql("entity_linking_stats", "asg")
    return f"""
        WITH flat AS (SELECT * FROM {flat}),
        asg AS (SELECT * FROM {asg}),
        nproc AS (SELECT count(*)::BIGINT AS n FROM flat),
        ex AS (SELECT count(*)::BIGINT AS nc,
                      coalesce(sum(cnt - 1), 0)::BIGINT AS em
               FROM (SELECT count(*) AS cnt FROM flat GROUP BY name
                     HAVING count(*) > 1)),
        fu AS (SELECT count(*)::BIGINT AS nc,
                      coalesce(sum(cnt - 1), 0)::BIGINT AS fm
               FROM (SELECT count(*) AS cnt FROM asg
                     WHERE kind = 'fuzzy' GROUP BY cluster_id))
        SELECT (SELECT n FROM nproc) AS entities_processed,
               (SELECT nc FROM ex) + (SELECT nc FROM fu)
                 AS clusters_created,
               (SELECT em FROM ex) AS exact_matches,
               (SELECT fm FROM fu) AS fuzzy_matches,
               0::BIGINT AS semantic_matches, 0::BIGINT AS lmcd_clusters,
               round(((SELECT em FROM ex) + (SELECT fm FROM fu))::DOUBLE
                     / (SELECT n FROM nproc)::DOUBLE, 8)
                 AS linking_accuracy
    """


# ------------------------------------ string-similarity linker SQL --

def _string_sim_stack(pairs_body: str, max_edit: int = 2) -> str:
    """CTE chain replaying ``string_similarity_linker.rs`` similarity
    metrics over a caller-provided ``pairs`` relation (ia, ib, na, nb,
    la, lb).  Requires a preceding ``norm`` CTE and WITH RECURSIVE.
    Ends with ``allsim(ia, ib, lev_sim, jw_sim, jaccard_sim, best)``
    (best unrounded; exact-normalized pairs → 1.0 / NULL components).
    The Jaro matcher (``:262-326``) is replayed positionally: the
    recursive CTE walks s1 carrying a HUGEINT used-position bitmask
    over s2 (names must stay < 126 chars — the staging bounds them),
    matched positions + chars as lists for the transposition count."""
    return f"""
pairs AS ({pairs_body}),
nonexact AS (SELECT * FROM pairs WHERE na <> nb),
rec AS (
  SELECT ia, ib, na, nb, la, lb,
         greatest(greatest(la, lb)//2 - 1, 0) AS md,
         0::BIGINT AS i, 0::HUGEINT AS mask,
         []::BIGINT[] AS js, []::VARCHAR[] AS cs
  FROM nonexact
  UNION ALL
  SELECT ia, ib, na, nb, la, lb, md, i+1,
         CASE WHEN j IS NULL THEN mask
              ELSE mask | (1::HUGEINT << ((j-1)::INT)) END,
         CASE WHEN j IS NULL THEN js ELSE list_append(js, j) END,
         CASE WHEN j IS NULL THEN cs
              ELSE list_append(cs, substr(na, (i+1)::INT, 1)) END
  FROM (SELECT *, list_min(list_filter(
          range(greatest(1, i+1-md), least(lb, i+1+md)+1),
          j -> substr(nb, j::INT, 1) = substr(na, (i+1)::INT, 1)
               AND ((mask >> ((j-1)::INT)) & 1::HUGEINT) = 0::HUGEINT))
          AS j
        FROM rec WHERE i < la) s),
jdone AS (SELECT ia, ib, na, nb, la, lb, len(js) AS m, list_sort(js) AS sj,
                 cs
          FROM rec WHERE i = la),
jaro AS (
  SELECT ia, ib,
    CASE WHEN la = 0 AND lb = 0 THEN 1.0
         WHEN la = 0 OR lb = 0 THEN 0.0
         WHEN m = 0 THEN 0.0
         ELSE (m::DOUBLE/la + m::DOUBLE/lb
               + (m::DOUBLE - t/2.0)/m::DOUBLE)/3.0
    END AS jaro
  FROM (SELECT *, len(list_filter(range(1, m+1),
          k -> cs[k::INT] <> substr(nb, sj[k::INT]::INT, 1)))::DOUBLE AS t
        FROM jdone) x),
comp AS (
  SELECT p.*, j.jaro,
    levenshtein(p.na, p.nb) AS lev,
    greatest(strlen(p.na), strlen(p.nb)) AS maxb,
    CASE WHEN least(p.la,p.lb) >= 1
              AND substr(p.na,1,1) = substr(p.nb,1,1) THEN
      CASE WHEN least(p.la,p.lb) >= 2
                AND substr(p.na,2,1) = substr(p.nb,2,1) THEN
        CASE WHEN least(p.la,p.lb) >= 3
                  AND substr(p.na,3,1) = substr(p.nb,3,1) THEN
          CASE WHEN least(p.la,p.lb) >= 4
                    AND substr(p.na,4,1) = substr(p.nb,4,1)
               THEN 4 ELSE 3 END
        ELSE 2 END
      ELSE 1 END
    ELSE 0 END AS prefix,
    CASE WHEN p.na = '' THEN []::VARCHAR[]
         ELSE list_distinct(string_split(p.na, ' ')) END AS tka,
    CASE WHEN p.nb = '' THEN []::VARCHAR[]
         ELSE list_distinct(string_split(p.nb, ' ')) END AS tkb
  FROM nonexact p JOIN jaro j USING (ia, ib)),
scored AS (
  SELECT ia, ib,
    CASE WHEN lev > {max_edit} THEN 0.0 WHEN maxb = 0 THEN 1.0
         ELSE 1.0 - lev::DOUBLE / maxb END AS lev_sim,
    jaro + prefix * 0.1 * (1.0 - jaro) AS jw_sim,
    CASE WHEN len(tka) = 0 AND len(tkb) = 0 THEN 1.0
         WHEN len(list_distinct(list_concat(tka, tkb))) = 0 THEN 0.0
         ELSE len(list_filter(tka, x -> list_contains(tkb, x)))::DOUBLE
              / len(list_distinct(list_concat(tka, tkb))) END
      AS jaccard_sim
  FROM comp),
allsim AS (
  SELECT ia, ib, lev_sim, jw_sim, jaccard_sim,
         greatest(0.0, lev_sim, jw_sim, jaccard_sim) AS best
  FROM scored
  UNION ALL
  SELECT ia, ib, NULL, NULL, NULL, 1.0 FROM pairs WHERE na = nb)"""


_NORM_SQL = (r"array_to_string(regexp_split_to_array(trim(regexp_replace("
             r"lower(name), '[^a-z0-9\s]', '', 'g')), '\s+'), ' ')")


def _string_sim_pairs_sql() -> str:
    ents = _staged_sql("string_sim_pairs", "ents")
    pairs = """
  SELECT a.entity_id ia, b.entity_id ib, a.n na, b.n nb,
         length(a.n) la, length(b.n) lb
  FROM norm a JOIN norm b
    ON a.type = b.type AND a.entity_id < b.entity_id"""
    return f"""
WITH RECURSIVE
ents AS (SELECT entity_id, name, type FROM {ents}),
norm AS (SELECT entity_id, type, {_NORM_SQL} AS n FROM ents),
{_string_sim_stack(pairs)}
SELECT ia AS entity_a, ib AS entity_b,
       coalesce(round(lev_sim, 12), -1.0) AS lev_sim,
       coalesce(round(jw_sim, 12), -1.0) AS jw_sim,
       coalesce(round(jaccard_sim, 12), -1.0) AS jaccard_sim,
       round(best, 12) AS sim,
       (CASE WHEN best >= 0.85 THEN 1 ELSE 0 END)::BIGINT AS linked
FROM allsim
    """


def _string_links_sql() -> str:
    ents = _staged_sql("string_links", "ents")
    asg = _staged_sql("string_links", "asg")
    pairs = """
  SELECT g.cluster_id ia, g.entity_id ib, a.n na, b.n nb,
         length(a.n) la, length(b.n) lb
  FROM asg g JOIN norm a ON a.entity_id = g.cluster_id
             JOIN norm b ON b.entity_id = g.entity_id
  WHERE g.member_idx >= 1"""
    return f"""
WITH RECURSIVE
ents AS (SELECT * FROM {ents}),
asg AS (SELECT * FROM {asg}),
norm AS (SELECT entity_id, type, {_NORM_SQL} AS n FROM ents),
{_string_sim_stack(pairs)},
canon AS (
  SELECT a.cluster_id, a.entity_id AS canonical_id
  FROM asg a JOIN ents e ON e.entity_id = a.entity_id
  QUALIFY row_number() OVER (PARTITION BY a.cluster_id
            ORDER BY e.conf DESC, a.member_idx DESC) = 1),
verified AS (
  SELECT a.cluster_id, a.entity_id FROM asg a WHERE a.member_idx = 0
  UNION ALL
  SELECT s.ia AS cluster_id, s.ib AS entity_id
  FROM allsim s WHERE s.best >= 0.85)
SELECT a.entity_id, c.canonical_id
FROM asg a
JOIN canon c ON a.cluster_id = c.cluster_id
JOIN verified v ON v.cluster_id = a.cluster_id
              AND v.entity_id = a.entity_id
WHERE a.entity_id <> c.canonical_id
ORDER BY a.entity_id
    """


# ---------------------------------------- concept extraction SQL --

def _concept_mentions_sql() -> str:
    """Zero-derivation-staging replay of ``extract_concepts``
    (``concept_graph.rs:119-264``) over the staged chunk texts —
    regexes, keyword ranking, validity gates, sort+dedup all in SQL."""
    from graphrag_rs_ray.functions.concepts import CONCEPT_STOPWORDS
    chunks = _staged_sql("concept_mentions")
    stop = "(" + ",".join(f"'{w}'" for w in sorted(CONCEPT_STOPWORDS)) \
        + ")"
    return r"""
WITH t AS MATERIALIZED (SELECT chunk_id, text FROM {chunks}),
cap AS (SELECT chunk_id, unnest(regexp_extract_all(text,
          '\b[A-Z][a-z]+(?:\s+[A-Z][a-z]+)+\b')) AS p FROM t),
np AS (SELECT chunk_id, unnest(regexp_extract_all(text,
          '\b[A-Z][a-z]+(?:\s+[A-Z]?[a-z]+){1,4}\b')) AS p FROM t),
kw0 AS (SELECT chunk_id,
               regexp_replace(lower(unnest(list_filter(
                 string_split_regex(text, '\s+'), x -> x <> ''))),
                 '^[\W_]+|[\W_]+$', '', 'g') AS w
        FROM t),
kw1 AS (SELECT chunk_id, w, count(*) AS c FROM kw0
        WHERE length(w) >= 3 AND w NOT IN {stop}
        GROUP BY chunk_id, w),
kw2 AS (SELECT chunk_id, w, c, row_number() OVER (
          PARTITION BY chunk_id ORDER BY c DESC, w ASC) AS rk
        FROM kw1),
kw AS (SELECT chunk_id, w AS p FROM kw2 WHERE rk <= 20 AND c >= 2),
allp AS (SELECT chunk_id, p FROM cap
         UNION ALL SELECT chunk_id, p FROM np
         UNION ALL SELECT chunk_id, p FROM kw),
valid AS (
  SELECT DISTINCT chunk_id, p FROM (
    SELECT chunk_id, p,
           list_filter(string_split_regex(p, '\s+'),
                       x -> x <> '') AS ws
    FROM allp) x
  WHERE length(p) >= 3 AND len(ws) <= 5
    AND len(list_filter(ws, w -> lower(w) IN {stop})) <= len(ws) // 2)
SELECT p AS concept, chunk_id FROM valid
    """.replace("{chunks}", chunks).replace("{stop}", stop)


# ----------------------------------------------- NER engine SQL --

def _ner_mentions_sql() -> str:
    """Replay of the demo NER config (``stages/ner.py::DEMO_RULES``)
    over the staged sanitized chunk texts — see ``q_ner_mentions``."""
    from graphrag_rs_ray.stages.ner import DEMO_ENTITY_TYPES
    chunks = _staged_sql("ner_mentions")
    entries = sorted(DEMO_ENTITY_TYPES[0]["dictionary"])
    entries_sql = " UNION ALL ".join(
        f"SELECT '{e}' AS entry, {i} AS eidx"
        for i, e in enumerate(entries))
    return r"""
WITH RECURSIVE
t AS MATERIALIZED (SELECT chunk_id, doc_id, text FROM {chunks}),
entries AS ({entries_sql}),
-- dictionary rule (conf 0.95, rule order 0): non-overlapping
-- occurrences of each entry in lower(text); positions from the
-- split-prefix-sum (next search starts at pos + len(entry))
dparts AS (
  SELECT chunk_id, entry, eidx,
         string_split(lower(text), entry) AS parts
  FROM t CROSS JOIN entries),
dflat AS (SELECT chunk_id, entry, eidx, len(parts) AS np,
                 unnest(parts) AS part,
                 unnest(range(1, len(parts)+1)) AS k
          FROM dparts),
dcum AS (SELECT *, sum(length(part)) OVER (
           PARTITION BY chunk_id, entry ORDER BY k) AS cum
         FROM dflat),
dmatch AS (
  SELECT chunk_id, (cum + (k-1)*length(entry))::BIGINT AS start,
         (cum + k*length(entry))::BIGINT AS fin,
         length(entry)::BIGINT AS mlen,
         'CITY' AS type, 0.95::REAL AS conf,
         'city_gazetteer' AS rule,
         0 AS rord, eidx AS s1, k AS s2
  FROM dcum WHERE k < np),
-- regex rules (conf 0.9): positions from zipping
-- string_split_regex parts with regexp_extract_all matches
rx AS (
  SELECT chunk_id, rname, etype, rord,
         string_split_regex(text, pat) AS parts,
         regexp_extract_all(text, pat) AS ms
  FROM t CROSS JOIN (
    SELECT 'org_suffix' AS rname, 'ORG' AS etype, 1 AS rord,
           '\b[A-Z][A-Za-z]+ (?:Inc|Corp|LLC|Ltd)\b' AS pat
    UNION ALL
    SELECT 'dr_person', 'TITLE_PERSON', 2, '\bDr\. [A-Z][a-z]+\b') r),
rpcum AS (SELECT chunk_id, rname, etype, rord, k,
                 sum(length(part)) OVER (
                   PARTITION BY chunk_id, rname ORDER BY k) AS pcum
          FROM (SELECT chunk_id, rname, etype, rord,
                       unnest(parts) AS part,
                       unnest(range(1, len(parts)+1)) AS k
                FROM rx) x),
rmcum AS (SELECT chunk_id, rname, k, m,
                 coalesce(sum(length(m)) OVER (
                   PARTITION BY chunk_id, rname ORDER BY k
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                   0) AS mprev
          FROM (SELECT chunk_id, rname, unnest(ms) AS m,
                       unnest(range(1, len(ms)+1)) AS k
                FROM rx) x),
rmatch AS (
  SELECT q.chunk_id, (p.pcum + q.mprev)::BIGINT AS start,
         (p.pcum + q.mprev + length(q.m))::BIGINT AS fin,
         length(q.m)::BIGINT AS mlen,
         p.etype AS type, 0.9::REAL AS conf, p.rname AS rule,
         p.rord, 0 AS s1, q.k AS s2
  FROM rmcum q
  JOIN rpcum p ON p.chunk_id = q.chunk_id AND p.rname = q.rname
              AND p.k = q.k),
-- contextual rule (conf 0.85): word-triple window, match = middle
-- word, position = FIRST substring occurrence (reference quirk)
cwords AS (SELECT chunk_id, unnest(ws) AS w,
                  unnest(range(1, len(ws)+1)) AS i
           FROM (SELECT chunk_id,
                        list_filter(string_split_regex(text, '\s+'),
                                    x -> x <> '') AS ws
                 FROM t) x),
cmatch AS (
  SELECT a.chunk_id, (strpos(tt.text, b.w) - 1)::BIGINT AS start,
         (strpos(tt.text, b.w) - 1 + length(b.w))::BIGINT AS fin,
         length(b.w)::BIGINT AS mlen,
         'TITLE_PERSON' AS type, 0.85::REAL AS conf,
         'prof_contextual' AS rule, 3 AS rord, 0 AS s1, a.i AS s2
  FROM cwords a
  JOIN cwords b ON b.chunk_id = a.chunk_id AND b.i = a.i + 1
  JOIN cwords c ON c.chunk_id = a.chunk_id AND c.i = a.i + 2
  JOIN t tt ON tt.chunk_id = a.chunk_id
  WHERE contains(lower(a.w), 'professor')
    AND contains(lower(b.w), 'at')
    AND contains(lower(c.w), 'university')
    AND strpos(tt.text, b.w) > 0),
allm AS (SELECT * FROM dmatch UNION ALL SELECT * FROM rmatch
         UNION ALL SELECT * FROM cmatch),
ordered AS (
  SELECT *, row_number() OVER (PARTITION BY chunk_id
             ORDER BY start ASC, conf DESC, rord ASC, s1 ASC, s2 ASC)
             AS rn,
         count(*) OVER (PARTITION BY chunk_id) AS n
  FROM allm),
greedy AS (
  SELECT chunk_id, 0::BIGINT AS rn, 0::BIGINT AS last_end,
         FALSE AS keep, n
  FROM (SELECT DISTINCT chunk_id, n FROM ordered) b
  UNION ALL
  SELECT o.chunk_id, o.rn,
         CASE WHEN o.start >= g.last_end THEN o.fin
              ELSE g.last_end END,
         o.start >= g.last_end, g.n
  FROM greedy g JOIN ordered o
    ON o.chunk_id = g.chunk_id AND o.rn = g.rn + 1
  WHERE g.rn < g.n)
SELECT o.chunk_id, tt.doc_id,
       substr(tt.text, (o.start + 1)::INT, o.mlen::INT) AS surface,
       o.type, o.start, o.fin AS "end", o.conf, o.rule
FROM greedy g
JOIN ordered o USING (chunk_id, rn)
JOIN t tt USING (chunk_id)
WHERE g.keep
    """.replace("{chunks}", chunks).replace("{entries_sql}", entries_sql)


# --------------------------------------------- lazy-pipeline SQL --

_LAZY_CHUNKER_REL = """
  SELECT doc_id::VARCHAR || '_' || k AS chunk_id, doc_id::VARCHAR AS doc_id,
         substr(text, (k*384 + 1)::INT,
                (least(k*384 + 512, L) - k*384)::INT) AS content,
         (k*384)::BIGINT AS start_offset,
         least(k*384 + 512, L)::BIGINT AS end_offset
  FROM (SELECT doc_id, text, L,
               unnest(range(0, (L // 384) + 2)) AS k
        FROM (SELECT doc_id, text, length(text) AS L FROM documents)
        WHERE L > 0)
  WHERE k = 0 OR (k-1)*384 + 512 < L"""


def _lazy_chunks_sql() -> str:
    return f"SELECT * FROM ({_LAZY_CHUNKER_REL})"


def _lazy_stats_sql() -> str:
    m = _staged_sql("lazy_pipeline_stats")
    return f"""
WITH m AS MATERIALIZED (SELECT concept, chunk_id FROM {m}),
norm AS MATERIALIZED (
  SELECT DISTINCT regexp_replace(lower(concept), '[^a-z0-9_]', '', 'g')
           AS nc, chunk_id
  FROM m),
pairs AS (
  SELECT a.concept, b.concept AS cb, count(*) AS cnt
  FROM m a JOIN m b ON a.chunk_id = b.chunk_id AND a.concept < b.concept
  GROUP BY a.concept, b.concept HAVING count(*) >= 2),
s AS (
  SELECT
    (SELECT count(*)::BIGINT FROM documents) AS document_count,
    (SELECT count(*)::BIGINT FROM ({_LAZY_CHUNKER_REL})) AS chunk_count,
    (SELECT count(DISTINCT concept)::BIGINT FROM m) AS concept_count,
    (SELECT count(*)::BIGINT FROM pairs) AS relation_count,
    (SELECT count(DISTINCT nc)::BIGINT FROM norm) AS total_entities,
    (SELECT count(DISTINCT chunk_id)::BIGINT FROM norm)
      AS total_chunks_indexed,
    (SELECT count(*)::BIGINT FROM norm) AS total_mappings)
SELECT document_count, chunk_count, concept_count, relation_count,
       total_entities, total_chunks_indexed, total_mappings,
       CASE WHEN total_entities > 0
            THEN total_mappings::DOUBLE / total_entities::DOUBLE
            ELSE 0.0 END AS avg_chunks_per_entity,
       CASE WHEN total_chunks_indexed > 0
            THEN total_mappings::DOUBLE / total_chunks_indexed::DOUBLE
            ELSE 0.0 END AS avg_entities_per_chunk
FROM s
    """


# ------------------------------------------------ corpus-module SQL --

_GI_TYPE_SQL = """CASE
    WHEN contains(lower({n}), 'person') THEN 'person'
    WHEN contains(lower({n}), 'organization') THEN 'organization'
    WHEN contains(lower({n}), 'location') THEN 'location'
    WHEN contains(lower({n}), 'other') THEN 'other'
    WHEN ends_with(lower({n}), 'company') OR ends_with(lower({n}), 'corp')
         OR ends_with(lower({n}), 'inc') THEN 'organization'
    WHEN contains(lower({n}), 'city') OR contains(lower({n}), 'country')
         OR contains(lower({n}), 'state') THEN 'location'
    WHEN {phase} = 1 AND strlen({n}) < 20 THEN 'person'
    ELSE 'other' END"""


def _doc_collection_sql() -> str:
    """DocumentMetadata oracle (``document_manager.rs:34-47,225-285``):
    extension cycle / type mapping / byte sizes in plain SQL; language =
    the reference's SUBSTRING-occurrence heuristic via replace-length
    counts; duplicates re-derived from raw text equality (first doc_id
    wins) instead of the hash column."""
    hits = " + ".join(
        f"(strlen(text) - strlen(replace(text, '{w}', ''))) // {len(w)}"
        for w in ("the", "and", "or", "but", "in", "on", "at", "to"))
    return f"""
        WITH d AS (
          SELECT doc_id, text,
            CASE doc_id % 7 WHEN 0 THEN 'txt' WHEN 1 THEN 'pdf'
              WHEN 2 THEN 'html' WHEN 3 THEN 'md' WHEN 4 THEN 'json'
              WHEN 5 THEN 'xml' ELSE 'dat' END AS ext,
            len(list_filter(string_split_regex(text, '\\s+'),
                            x -> x <> '')) AS wc,
            ({hits}) AS hits,
            min(doc_id) OVER (PARTITION BY text) AS first_id
          FROM documents)
        SELECT doc_id,
          'doc_' || CAST(doc_id AS VARCHAR) AS title,
          'corpus/doc_' || CAST(doc_id AS VARCHAR) || '.' || ext AS path,
          CASE ext WHEN 'txt' THEN 'text' WHEN 'pdf' THEN 'pdf'
            WHEN 'html' THEN 'html' WHEN 'md' THEN 'markdown'
            WHEN 'json' THEN 'json' WHEN 'xml' THEN 'xml'
            ELSE 'unknown' END AS document_type,
          strlen(text)::BIGINT AS size_bytes,
          CASE WHEN strlen(text) < 10 THEN NULL
               WHEN wc > 0 AND hits::DOUBLE / wc::DOUBLE > 0.05 THEN 'en'
               ELSE 'unknown' END AS language,
          doc_id <> first_id AS is_duplicate,
          CASE WHEN doc_id <> first_id THEN first_id END AS dup_of
        FROM d
    """


def _corpus_entities_sql() -> str:
    """Graph-indexer extraction oracle (``graph_indexer.rs:62-131``):
    whitespace tokenization, 3-word all-capitalized windows then
    len>2 capitalized singles, pre-dedup scan ids (singles offset by
    the window count), first-scan-occurrence dedup, type heuristics
    and the (no-op) quality gate — all re-derived in SQL from the
    staged collection text alone."""
    docs = _staged_sql("corpus_entities", "docs")
    tcase = _GI_TYPE_SQL.replace("{n}", "name").replace("{phase}", "phase")
    return f"""
        WITH docs AS MATERIALIZED (SELECT * FROM {docs}),
        w0 AS (SELECT doc_id,
                 list_filter(string_split_regex(text, '\\s+'),
                             x -> x <> '') AS lst
               FROM docs),
        w AS MATERIALIZED (
          SELECT doc_id, unnest(lst) AS word,
                 unnest(range(1, len(lst) + 1)) AS pos
          FROM w0),
        win AS (
          SELECT a.doc_id, a.pos,
                 a.word || ' ' || b.word || ' ' || c.word AS name,
                 0.6 AS confidence, 0 AS phase
          FROM w a
          JOIN w b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
          JOIN w c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
          WHERE regexp_matches(a.word, '^\\p{{Lu}}')
            AND regexp_matches(b.word, '^\\p{{Lu}}')
            AND regexp_matches(c.word, '^\\p{{Lu}}')),
        sing AS (
          SELECT doc_id, pos, word AS name, 0.5 AS confidence, 1 AS phase
          FROM w
          WHERE strlen(word) > 2 AND regexp_matches(word, '^\\p{{Lu}}')),
        nw AS (SELECT doc_id, count(*) AS n FROM win GROUP BY doc_id),
        u AS (SELECT * FROM win UNION ALL SELECT * FROM sing),
        ids AS (
          SELECT u.doc_id, u.pos, u.name, u.confidence, u.phase,
                 CASE WHEN u.phase = 0 THEN row_number() OVER (
                     PARTITION BY u.doc_id, u.phase ORDER BY u.pos) - 1
                 ELSE coalesce(nw.n, 0) + row_number() OVER (
                     PARTITION BY u.doc_id, u.phase ORDER BY u.pos) - 1
                 END AS k
          FROM u LEFT JOIN nw ON nw.doc_id = u.doc_id),
        ded AS (SELECT * FROM (
            SELECT ids.*, row_number() OVER (
                PARTITION BY doc_id, name ORDER BY phase, pos) AS rn
            FROM ids) WHERE rn = 1)
        SELECT doc_id,
               doc_id || '_entity_' || CAST(k AS VARCHAR) AS entity_id,
               name, {tcase} AS entity_type, confidence
        FROM ded
        WHERE confidence >= 0.3 AND strlen(name) >= 2 AND trim(name) <> ''
    """


def _corpus_concepts_sql(query: str = "corpus_concepts") -> str:
    """Document-concept oracle (``collection_processor.rs:265-310``):
    concept text, context window, ids and constants re-derived from the
    staged match positions + raw collection text."""
    docs = _staged_sql(query, "docs")
    pos = _staged_sql(query, "pos")
    return f"""
        WITH docs AS MATERIALIZED (SELECT * FROM {docs}),
        pos AS (SELECT * FROM {pos}),
        o AS (SELECT doc_id, pattern_idx, "start", "length",
                row_number() OVER (PARTITION BY doc_id
                                   ORDER BY pattern_idx, "start") - 1 AS k
              FROM pos)
        SELECT o.doc_id,
               'concept_' || o.doc_id || '_' || CAST(o.k AS VARCHAR)
                 AS concept_id,
               substring(d.text, o."start" + 1, o."length") AS text,
               substring(d.text, greatest(o."start" - 50, 0) + 1, 100)
                 AS context,
               1::BIGINT AS frequency, 0.7 AS confidence,
               o.pattern_idx, o."start", o."length"
        FROM o JOIN docs d USING (doc_id)
    """


def _corpus_concept_clusters_sql() -> str:
    """Concept-cluster oracle (``collection_processor.rs:313-352``):
    canonical = lower(trim(text)), members in (doc, pattern, match)
    scan order, ids by sorted canonical text, hardcoded constants."""
    docs = _staged_sql("corpus_concept_clusters", "docs")
    pos = _staged_sql("corpus_concept_clusters", "pos")
    return f"""
        WITH docs AS MATERIALIZED (SELECT * FROM {docs}),
        pos AS (SELECT * FROM {pos}),
        c AS (SELECT p.doc_id, p.pattern_idx, p."start",
                lower(trim(substring(d.text, p."start" + 1, p."length")))
                  AS canon,
                'concept_' || p.doc_id || '_' || CAST(
                  row_number() OVER (PARTITION BY p.doc_id
                      ORDER BY p.pattern_idx, p."start") - 1 AS VARCHAR)
                  AS concept_id
              FROM pos p JOIN docs d USING (doc_id)),
        g AS (SELECT canon AS canonical_text,
                string_agg(concept_id, ','
                    ORDER BY doc_id, pattern_idx, "start")
                  AS member_concept_ids,
                count(*)::BIGINT AS n_members
              FROM c GROUP BY canon)
        SELECT 'cluster_' || CAST(row_number() OVER (
                 ORDER BY canonical_text) - 1 AS VARCHAR) AS cluster_id,
               canonical_text, member_concept_ids, n_members,
               1::BIGINT AS document_frequency,
               1::BIGINT AS total_mentions, 0.8 AS confidence
        FROM g
    """


def _corpus_cluster_ctes(query: str) -> str:
    """Shared corpus-KG CTEs: staged flat entities + assignments →
    per-cluster attributes (canonical-name vote, confidence, document
    frequency — ``entity_linker.rs`` semantics re-derived, same shapes
    as ``_entity_clusters_sql``)."""
    flat = _staged_sql(query, "flat")
    asg = _staged_sql(query, "asg")
    return f"""
        flat AS MATERIALIZED (SELECT * FROM {flat}),
        asg AS MATERIALIZED (SELECT * FROM {asg}),
        m AS MATERIALIZED (
          SELECT a.doc_id, a.local_entity_id, a.cluster_id, a.kind,
                 a.cluster_ord, a.member_idx, f.name
          FROM asg a JOIN flat f USING (doc_id, local_entity_id)),
        fcnt AS (SELECT cluster_id, name, count(*) AS cnt FROM m
                 WHERE kind = 'fuzzy' GROUP BY cluster_id, name),
        fcan AS (SELECT cluster_id, name AS cn FROM (
            SELECT cluster_id, name, row_number() OVER (
                PARTITION BY cluster_id
                ORDER BY cnt DESC, length(name) DESC, name DESC) AS rn
            FROM fcnt) WHERE rn = 1),
        cl AS (
          SELECT m.cluster_id, m.kind, m.cluster_ord,
                 count(*) AS n_members,
                 CASE WHEN m.kind = 'exact' THEN 1.0 ELSE 0.85 END
                   AS conf,
                 CASE WHEN m.kind = 'exact' THEN count(*) ELSE 1 END
                   AS df,
                 coalesce(max(fc.cn), max(m.name)) AS cn
          FROM m LEFT JOIN fcan fc ON fc.cluster_id = m.cluster_id
          GROUP BY m.cluster_id, m.kind, m.cluster_ord)
    """


_IMP_SQL = ("((ln({df}) + 1.0) * 0.4 + (ln({tm}) + 1.0) * 0.3 "
            "+ {nsd} * 0.3) / 3.0")


def _corpus_kg_entities_sql() -> str:
    """GlobalEntity oracle (``knowledge_graph.rs:148-184,256-290``)."""
    et = _ETYPE_SQL.replace("{cn}", "cl.cn")
    imp = _IMP_SQL.format(df="cl.df", tm="cl.n_members", nsd="d2.nsd")
    return f"""
        WITH {_corpus_cluster_ctes("corpus_kg_entities")},
        d2 AS (SELECT cluster_id,
                 string_agg(DISTINCT doc_id, ',' ORDER BY doc_id) AS sd,
                 count(DISTINCT doc_id) AS nsd
               FROM m GROUP BY cluster_id),
        al AS (SELECT cluster_id,
                 string_agg(DISTINCT name, ',' ORDER BY name) AS a
               FROM m GROUP BY cluster_id)
        SELECT cl.cluster_id AS id, cl.cn AS canonical_name,
               {et} AS entity_type,
               cl.df::BIGINT AS document_frequency,
               cl.n_members::BIGINT AS total_mentions,
               al.a AS aliases, d2.sd AS source_documents,
               d2.nsd::BIGINT AS n_source_docs,
               cl.conf AS confidence_score,
               round({imp}, 8) AS importance_score
        FROM cl
        JOIN d2 ON d2.cluster_id = cl.cluster_id
        JOIN al ON al.cluster_id = cl.cluster_id
    """


def _corpus_rel_ctes(query: str) -> str:
    """Pair CTEs for co-occurrence relations
    (``knowledge_graph.rs:186-254``): per-document member lists in
    cluster order, ordered i<j pairs (self-pairs included), grouped by
    (source, target) with first-occurrence scan position."""
    return f"""
        {_corpus_cluster_ctes(query)},
        mm AS (SELECT doc_id, cluster_id,
                 row_number() OVER (PARTITION BY doc_id
                     ORDER BY cluster_ord, member_idx) AS ord
               FROM asg),
        p AS (SELECT a.doc_id, a.cluster_id AS s, b.cluster_id AS t,
                a.ord AS i, b.ord AS j,
                row_number() OVER (ORDER BY a.doc_id, a.ord, b.ord) AS pp
              FROM mm a
              JOIN mm b ON b.doc_id = a.doc_id AND b.ord > a.ord),
        g AS (SELECT s, t, count(*)::BIGINT AS document_frequency,
                least(0.7 + 0.1 * (count(*) - 1), 1.0) AS conf,
                string_agg(doc_id, ',' ORDER BY doc_id, i, j)
                  AS source_documents,
                min(pp) AS fp
              FROM p GROUP BY s, t)
    """


def _corpus_kg_relations_sql() -> str:
    return f"""
        WITH {_corpus_rel_ctes("corpus_kg_relations")}
        SELECT 'rel_' || CAST(row_number() OVER (ORDER BY fp) - 1
                 AS VARCHAR) AS id,
               s AS source_entity_id, t AS target_entity_id,
               'co_occurs' AS relation_type, round(conf, 8) AS confidence,
               document_frequency, source_documents
        FROM g
    """


def _corpus_stats_sql() -> str:
    """CorpusStats + QualityMetrics + GraphStats oracle
    (``collection_processor.rs:58-102``, ``knowledge_graph.rs:293-336``)
    — every count, ratio and weighted score recomputed from the staged
    docs/flat/assignment tables."""
    docs = _staged_sql("corpus_stats", "docs")
    return f"""
        WITH {_corpus_rel_ctes("corpus_stats")},
        nd AS (SELECT count(*)::BIGINT AS n FROM {docs}),
        ne AS (SELECT count(*)::BIGINT AS n FROM flat),
        gc AS (SELECT count(*)::BIGINT AS n,
                 coalesce(sum(CASE WHEN df > 1 THEN 1 ELSE 0 END), 0)::BIGINT
                   AS xd,
                 avg(conf) AS ec
               FROM cl),
        rl AS (SELECT count(*)::BIGINT AS nr, avg(conf) AS rc FROM g),
        s AS (SELECT
            (SELECT n FROM nd) AS nd, (SELECT n FROM ne) AS ne,
            (SELECT n FROM gc) AS n, (SELECT xd FROM gc) AS xd,
            coalesce((SELECT ec FROM gc), 0.0) AS ec,
            (SELECT nr FROM rl) AS nr,
            coalesce((SELECT rc FROM rl), 0.0) AS rc),
        r AS (SELECT s.*,
                CASE WHEN ne > 0 THEN xd::DOUBLE / ne ELSE 0.0 END
                  AS ratio
              FROM s)
        SELECT nd AS documents_processed,
               ne AS total_entities_extracted,
               n AS unique_entities_after_linking,
               round(ratio, 8) AS cross_document_entity_ratio,
               round(CASE WHEN nd > 0 THEN ne::DOUBLE / nd ELSE 0.0 END, 8)
                 AS avg_entities_per_document,
               0.0 AS avg_relations_per_document,
               round(ec, 8) AS entity_confidence_avg,
               round(rc, 8) AS relation_confidence_avg,
               round(ratio, 8) AS cross_document_consistency,
               round(ec * 0.3 + rc * 0.3 + ratio * 0.4, 8)
                 AS overall_quality_score,
               n AS total_entities, nr AS total_relations,
               xd AS cross_document_entities,
               n - xd AS single_document_entities,
               n AS largest_component_size,
               round(CASE WHEN n > 0 THEN 2.0 * nr / n ELSE 0.0 END, 8)
                 AS avg_entity_connections,
               round(CASE WHEN n > 1 AND (n * (n - 1)) // 2 > 0
                     THEN nr::DOUBLE / ((n * (n - 1)) // 2)
                     ELSE 0.0 END, 8) AS graph_density
        FROM r
    """


def _corpus_search_sql(term: str = "hampton", top_k: int = 10) -> str:
    """KG text-query oracle (``knowledge_graph.rs:348-370,402-407``):
    member-name substring match (aliases = member names, canonical is
    always one of them), importance sort with pinned id tie-break."""
    imp = _IMP_SQL.format(df="cl.df", tm="cl.n_members", nsd="d2.nsd")
    return f"""
        WITH {_corpus_cluster_ctes("corpus_search")},
        d2 AS (SELECT cluster_id, count(DISTINCT doc_id) AS nsd
               FROM m GROUP BY cluster_id),
        hit AS (SELECT cluster_id FROM m GROUP BY cluster_id
                HAVING bool_or(contains(lower(name), '{term}'))),
        imp AS (SELECT cl.cluster_id AS id, cl.cn AS canonical_name,
                  {imp} AS imp
                FROM cl JOIN d2 ON d2.cluster_id = cl.cluster_id)
        SELECT id, canonical_name, round(imp, 8) AS importance_score
        FROM imp JOIN hit ON hit.cluster_id = imp.id
        ORDER BY imp DESC, id ASC LIMIT {top_k}
    """


# ------------------------------------------- document-structure SQL --


def _doc_structure_ctes(query: str) -> str:
    """Shared replay CTEs: staged markdown text → headings (line scan
    with cumulative character offsets), sections (content ranges),
    stack parents (nearest preceding smaller level — equivalent to the
    reference's stack pop), and depth/path via a recursive walk."""
    docs = _staged_sql(query, "docs")
    return f"""
        docs AS MATERIALIZED (SELECT * FROM {docs}),
        l0 AS (SELECT doc_id, string_split(text, chr(10)) AS lst
               FROM docs),
        l AS (SELECT doc_id, unnest(lst) AS line,
                unnest(range(1, len(lst) + 1)) AS pos
              FROM l0),
        lo AS (SELECT doc_id, line, pos, trim(line) AS t,
                 coalesce(sum(length(line) + 1) OVER (
                     PARTITION BY doc_id ORDER BY pos
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                   0) AS off
               FROM l),
        h0 AS (SELECT doc_id, line, pos, t, off,
                 length(t) - length(ltrim(t, '#')) AS lvl
               FROM lo WHERE starts_with(t, '#')),
        h AS (SELECT doc_id, line, pos, off, lvl,
                trim(substring(t, lvl + 1)) AS htext
              FROM h0
              WHERE lvl BETWEEN 1 AND 6
                AND substring(t, lvl + 1, 1) = ' '
                AND trim(substring(t, lvl + 1)) <> ''),
        sec AS MATERIALIZED (
          SELECT h.doc_id,
                 row_number() OVER (PARTITION BY h.doc_id
                                    ORDER BY h.pos) - 1 AS idx,
                 h.lvl AS level, h.htext,
                 h.off AS start_offset,
                 h.off + length(h.line) AS end_offset,
                 h.pos - 1 AS line_number,
                 h.off + length(h.line) AS content_start,
                 coalesce(lead(h.off) OVER (PARTITION BY h.doc_id
                                            ORDER BY h.pos),
                          dl.n) AS content_end
          FROM h JOIN (SELECT doc_id, length(text) AS n FROM docs) dl
                 USING (doc_id)),
        par AS (SELECT i.doc_id, i.idx, max(j.idx) AS parent_idx
                FROM sec i JOIN sec j
                  ON j.doc_id = i.doc_id AND j.idx < i.idx
                 AND j.level < i.level
                GROUP BY i.doc_id, i.idx),
        s2 AS MATERIALIZED (
          SELECT sec.*, par.parent_idx
          FROM sec LEFT JOIN par USING (doc_id, idx)),
        walk AS (
          SELECT doc_id, idx, 0 AS depth, htext AS path
          FROM s2 WHERE parent_idx IS NULL
          UNION ALL
          SELECT s.doc_id, s.idx, w.depth + 1,
                 w.path || ' > ' || s.htext
          FROM s2 s JOIN walk w
            ON w.doc_id = s.doc_id AND w.idx = s.parent_idx)
    """


def _doc_structure_sql() -> str:
    return f"""
        WITH RECURSIVE {_doc_structure_ctes("doc_structure")},
        ch AS (SELECT doc_id, parent_idx AS idx, count(*)::BIGINT AS n
               FROM s2 WHERE parent_idx IS NOT NULL
               GROUP BY doc_id, parent_idx)
        SELECT s2.doc_id, s2.idx::BIGINT AS idx, s2.level::BIGINT AS level,
               s2.htext AS heading_text,
               s2.start_offset::BIGINT AS start_offset,
               s2.end_offset::BIGINT AS end_offset,
               s2.line_number::BIGINT AS line_number,
               s2.content_start::BIGINT AS content_start,
               s2.content_end::BIGINT AS content_end,
               s2.parent_idx::BIGINT AS parent_idx,
               w.depth::BIGINT AS depth, w.path AS heading_path,
               coalesce(ch.n, 0)::BIGINT AS n_children,
               s2.parent_idx IS NULL AS is_root
        FROM s2
        JOIN walk w USING (doc_id, idx)
        LEFT JOIN ch USING (doc_id, idx)
    """


def _doc_structure_stats_sql() -> str:
    lvls = ",\n               ".join(
        f"coalesce(sum(CASE WHEN s2.level = {k} THEN 1 ELSE 0 END), 0)"
        f"::BIGINT AS level_{k}" for k in range(1, 7))
    return f"""
        WITH RECURSIVE {_doc_structure_ctes("doc_structure_stats")},
        sw AS (SELECT s2.doc_id, s2.idx, s2.level, s2.parent_idx, w.depth
               FROM s2 JOIN walk w USING (doc_id, idx))
        SELECT d.doc_id,
               count(s2.idx)::BIGINT AS total_headings,
               count(s2.idx)::BIGINT AS total_sections,
               coalesce(max(s2.depth), 0)::BIGINT AS max_depth,
               coalesce(sum(CASE WHEN s2.idx IS NOT NULL
                            AND s2.parent_idx IS NULL
                            THEN 1 ELSE 0 END), 0)::BIGINT AS root_sections,
               {lvls},
               count(s2.idx) > 0 AS has_structure
        FROM docs d LEFT JOIN sw s2 USING (doc_id)
        GROUP BY d.doc_id
    """


_NS_SQL = """CASE
    WHEN lower(x.name) = lower(y.name) THEN 1.0
    WHEN contains(lower(x.name), lower(y.name))
         OR contains(lower(y.name), lower(x.name)) THEN 0.9
    WHEN len(list_distinct(list_concat(x.ws, y.ws))) = 0 THEN 0.0
    ELSE len(list_intersect(x.ws, y.ws))::DOUBLE
         / len(list_distinct(list_concat(x.ws, y.ws)))::DOUBLE
    END"""

_WS_SQL = ("list_distinct(list_filter(string_split_regex(lower(name), "
           "'\\s+'), w -> w <> ''))")


def _semantic_merge_pairs_sql(threshold: float = 0.7) -> str:
    """Pair-similarity oracle (``semantic_merging.rs:209-236,519-541``):
    exact/containment/word-Jaccard name similarity over ALL entity
    pairs (a < b), + 0.3 type term, strictly-above-threshold filter."""
    ents = _staged_sql("semantic_merge_pairs", "ents")
    return f"""
        WITH e AS MATERIALIZED (
          SELECT entity_id, name, type, {_WS_SQL} AS ws FROM {ents})
        SELECT a, b, round(ns, 8) AS name_sim,
               round(ns * 0.7 + ts * 0.3, 8) AS sim
        FROM (SELECT x.entity_id AS a, y.entity_id AS b,
                     {_NS_SQL} AS ns,
                     CASE WHEN x.type = y.type THEN 1.0 ELSE 0.0 END
                       AS ts
              FROM e x JOIN e y ON x.entity_id < y.entity_id)
        WHERE ns * 0.7 + ts * 0.3 > {threshold}
    """


def _semantic_merge_groups_sql() -> str:
    """Group-decision oracle (``semantic_merging.rs:133-185,238-273,
    333-378``): mean pairwise name similarity per staged group, the
    same-type gate, >0.8 merge decision with printf reasoning,
    last-maximal best name, member-order descriptions, merged
    confidence/mention arithmetic."""
    ents = _staged_sql("semantic_merge_groups", "ents")
    asg = _staged_sql("semantic_merge_groups", "groups")
    return f"""
        WITH e AS (SELECT entity_id, name, type, conf, mention_count,
                          {_WS_SQL} AS ws
                   FROM {ents}),
        m AS MATERIALIZED (
          SELECT a.group_id, a.member_idx, e.* FROM {asg} a
          JOIN e USING (entity_id)),
        pair AS (SELECT x.group_id, {_NS_SQL} AS ns
                 FROM m x JOIN m y ON x.group_id = y.group_id
                       AND x.member_idx < y.member_idx),
        gsim AS (SELECT group_id, sum(ns) / count(*) AS mns FROM pair
                 GROUP BY group_id),
        gt AS (SELECT group_id, count(*)::BIGINT AS n,
                      count(DISTINCT type) = 1 AS same,
                      sum(conf) / count(*) AS avgc,
                      sum(mention_count)::BIGINT AS mm
               FROM m GROUP BY group_id),
        best AS (SELECT group_id, name FROM (
                   SELECT group_id, name, row_number() OVER (
                     PARTITION BY group_id
                     ORDER BY length(name) DESC, conf DESC,
                              member_idx DESC) AS rn FROM m)
                 WHERE rn = 1),
        descr AS (SELECT group_id, string_agg(
                    CASE WHEN mention_count > 0
                         THEN 'Entity ''' || name ||
                              ''' mentioned in context'
                         ELSE 'Entity ''' || name || ''' of type ' ||
                              type END,
                    '; ' ORDER BY member_idx) AS d
                  FROM m GROUP BY group_id)
        SELECT g.group_id, g.n AS n_entities,
               (CASE WHEN g.same AND s.mns > 0.8 THEN 1 ELSE 0
                END)::BIGINT AS should_merge,
               round(CASE WHEN NOT g.same THEN 1.0
                          WHEN s.mns > 0.8 THEN s.mns
                          ELSE 1.0 - s.mns END, 8) AS confidence,
               CASE WHEN NOT g.same THEN 'Different entity types'
                    WHEN s.mns > 0.8 THEN printf(
                      'High name similarity (%.2f) and matching types',
                      s.mns)
                    ELSE printf('Low name similarity (%.2f)', s.mns)
               END AS reasoning,
               CASE WHEN g.same AND s.mns > 0.8 THEN b.name ELSE ''
               END AS merged_name,
               CASE WHEN g.same AND s.mns > 0.8 THEN d.d ELSE ''
               END AS merged_description,
               CASE WHEN g.same AND s.mns > 0.8
                    THEN round(greatest(g.avgc, s.mns), 8) ELSE 0.0
               END AS merged_confidence,
               (CASE WHEN g.same AND s.mns > 0.8 THEN g.mm ELSE 0
                END)::BIGINT AS merged_mentions
        FROM gt g JOIN gsim s USING (group_id)
             JOIN best b USING (group_id) JOIN descr d USING (group_id)
    """


def _validation_sql() -> str:
    """Pipeline-validation oracle (``evaluation/pipeline_validation.rs``):
    every check/metric row recomputed from the five staged tables with
    the reference's thresholds; ratio values round(…, 8) on both sides
    (count arithmetic is exact)."""
    docs = _staged_sql("pipeline_validation", "docs")
    chunks = _staged_sql("pipeline_validation", "chunks")
    mentions = _staged_sql("pipeline_validation", "mentions")
    ents = _staged_sql("pipeline_validation", "entities")
    tris = _staged_sql("pipeline_validation", "triples")
    return f"""
        WITH perdoc AS (
          SELECT d.doc_id, d.doc_chars,
                 coalesce(c.n_chunks, 0) AS n_chunks,
                 coalesce(c.chunk_chars, 0) AS chunk_chars,
                 coalesce(c.n_empty, 0) AS n_empty,
                 coalesce(c.n_meta, 0) AS n_meta
          FROM {docs} d LEFT JOIN (
            SELECT doc_id, count(*) AS n_chunks,
                   sum(length(text)) AS chunk_chars,
                   sum(CASE WHEN length(trim(text)) = 0 THEN 1 ELSE 0 END)
                     AS n_empty,
                   sum(CASE WHEN has_metadata THEN 1 ELSE 0 END) AS n_meta
            FROM {chunks} GROUP BY doc_id) c USING (doc_id)),
        dagg AS (SELECT
            count(*) AS n_docs,
            sum(CASE WHEN doc_chars = 0 THEN 1 ELSE 0 END) AS n_empty_docs,
            sum(CASE WHEN n_chunks = 0 THEN 1 ELSE 0 END) AS n_docs_wo,
            sum(CASE WHEN n_chunks > 0 AND chunk_chars::DOUBLE
                          / greatest(doc_chars, 1)::DOUBLE < 0.9
                     THEN 1 ELSE 0 END) AS n_below,
            sum(n_empty) AS n_empty_chunks,
            sum(n_meta) AS n_meta_chunks,
            sum(n_chunks) AS n_chunks,
            sum(chunk_chars) AS chunk_chars,
            sum(doc_chars) AS doc_chars
          FROM perdoc),
        eagg AS (SELECT
            count(*) AS n,
            sum(CASE WHEN conf < 0 OR conf > 1 THEN 1 ELSE 0 END) AS bad_conf,
            sum(CASE WHEN type = '' THEN 1 ELSE 0 END) AS no_type,
            sum(CASE WHEN trim(name) = '' THEN 1 ELSE 0 END) AS no_name,
            sum(conf::DOUBLE) AS conf_sum,
            sum(mention_count) AS mention_sum
          FROM {ents}),
        badm AS (SELECT count(*) AS bad
                 FROM {mentions} m
                 LEFT JOIN (SELECT DISTINCT chunk_id FROM {chunks}) c
                   USING (chunk_id)
                 WHERE c.chunk_id IS NULL),
        ragg AS (SELECT
            count(*) AS n,
            sum(CASE WHEN conf < 0 OR conf > 1 THEN 1 ELSE 0 END) AS bad_conf,
            sum(CASE WHEN pred = '' THEN 1 ELSE 0 END) AS no_type,
            sum(conf::DOUBLE) AS conf_sum
          FROM {tris}),
        orph AS (SELECT count(*) AS o FROM {tris} t
                 WHERE NOT EXISTS (SELECT 1 FROM {ents} e
                                   WHERE e.name = t.subj)
                    OR NOT EXISTS (SELECT 1 FROM {ents} e
                                   WHERE e.name = t.obj))
        SELECT 'Document Processing' AS phase, 'check' AS kind,
               'document_not_empty' AS name, n_empty_docs = 0 AS passed,
               n_empty_docs::DOUBLE AS value FROM dagg
        UNION ALL SELECT 'Document Processing', 'check', 'chunks_created',
               n_docs_wo = 0, n_docs_wo::DOUBLE FROM dagg
        UNION ALL SELECT 'Document Processing', 'check', 'content_coverage',
               n_below = 0, n_below::DOUBLE FROM dagg
        UNION ALL SELECT 'Document Processing', 'check', 'no_empty_chunks',
               n_empty_chunks = 0, n_empty_chunks::DOUBLE FROM dagg
        UNION ALL SELECT 'Document Processing', 'check',
               'metadata_enrichment', true,
               CASE WHEN n_chunks > 0
                    THEN round(n_meta_chunks::DOUBLE / n_chunks, 8)
                    ELSE 0.0 END FROM dagg
        UNION ALL SELECT 'Document Processing', 'metric', 'coverage_ratio',
               true, CASE WHEN doc_chars > 0
                          THEN round(chunk_chars::DOUBLE / doc_chars, 8)
                          ELSE 0.0 END FROM dagg
        UNION ALL SELECT 'Document Processing', 'metric', 'chunks_count',
               true, n_chunks::DOUBLE FROM dagg
        UNION ALL SELECT 'Document Processing', 'metric', 'avg_chunk_size',
               true, CASE WHEN n_chunks > 0
                          THEN round(chunk_chars::DOUBLE / n_chunks, 8)
                          ELSE 0.0 END FROM dagg
        UNION ALL SELECT 'Entity Extraction', 'check', 'entities_extracted',
               n > 0, n::DOUBLE FROM eagg
        UNION ALL SELECT 'Entity Extraction', 'check',
               'confidence_scores_valid', bad_conf = 0, bad_conf::DOUBLE
               FROM eagg
        UNION ALL SELECT 'Entity Extraction', 'check',
               'entity_types_populated', no_type = 0, no_type::DOUBLE
               FROM eagg
        UNION ALL SELECT 'Entity Extraction', 'check', 'entity_names_valid',
               no_name = 0, no_name::DOUBLE FROM eagg
        UNION ALL SELECT 'Entity Extraction', 'check',
               'entity_mentions_valid', bad = 0, bad::DOUBLE FROM badm
        UNION ALL SELECT 'Entity Extraction', 'metric', 'entities_count',
               true, n::DOUBLE FROM eagg
        UNION ALL SELECT 'Entity Extraction', 'metric', 'avg_confidence',
               true, round(conf_sum / n, 8) FROM eagg WHERE n > 0
        UNION ALL SELECT 'Entity Extraction', 'metric',
               'avg_mentions_per_entity', true,
               round(mention_sum::DOUBLE / n, 8) FROM eagg WHERE n > 0
        UNION ALL SELECT 'Relationship Extraction', 'check',
               'relationships_extracted', n > 0, n::DOUBLE FROM ragg
               WHERE (SELECT n FROM eagg) > 0
        UNION ALL SELECT 'Relationship Extraction', 'check',
               'relationship_confidence_valid', bad_conf = 0,
               bad_conf::DOUBLE FROM ragg
        UNION ALL SELECT 'Relationship Extraction', 'check',
               'relationship_types_populated', no_type = 0, no_type::DOUBLE
               FROM ragg
        UNION ALL SELECT 'Relationship Extraction', 'check',
               'relationship_entities_exist', o = 0, o::DOUBLE FROM orph
        UNION ALL SELECT 'Relationship Extraction', 'metric',
               'relationships_count', true, n::DOUBLE FROM ragg
        UNION ALL SELECT 'Relationship Extraction', 'metric',
               'relationships_per_entity', true,
               round(n::DOUBLE / (SELECT n FROM eagg), 8) FROM ragg
               WHERE (SELECT n FROM eagg) > 0
        UNION ALL SELECT 'Relationship Extraction', 'metric',
               'avg_relationship_confidence', true, round(conf_sum / n, 8)
               FROM ragg WHERE n > 0
        UNION ALL SELECT 'Graph Construction', 'check', 'graph_not_empty',
               (SELECT n FROM eagg) > 0 OR (SELECT n_docs FROM dagg) > 0,
               ((SELECT n FROM eagg) + (SELECT n_docs FROM dagg))::DOUBLE
        UNION ALL SELECT 'Graph Construction', 'check',
               'entity_chunk_ratio_reasonable',
               (SELECT n FROM eagg)::DOUBLE / (SELECT n_chunks FROM dagg)
                 BETWEEN 0.1 AND 10.0,
               round((SELECT n FROM eagg)::DOUBLE
                     / (SELECT n_chunks FROM dagg), 8)
               WHERE (SELECT n_chunks FROM dagg) > 0
        UNION ALL SELECT 'Graph Construction', 'check', 'graph_connectivity',
               (SELECT n FROM ragg)::DOUBLE / (SELECT n FROM eagg) > 0.1,
               round((SELECT n FROM ragg)::DOUBLE / (SELECT n FROM eagg), 8)
               WHERE (SELECT n FROM eagg) > 1
        UNION ALL SELECT 'Graph Construction', 'metric', 'documents', true,
               (SELECT n_docs FROM dagg)::DOUBLE
        UNION ALL SELECT 'Graph Construction', 'metric', 'chunks', true,
               (SELECT n_chunks FROM dagg)::DOUBLE
        UNION ALL SELECT 'Graph Construction', 'metric', 'entities', true,
               (SELECT n FROM eagg)::DOUBLE
        UNION ALL SELECT 'Graph Construction', 'metric', 'relationships',
               true, (SELECT n FROM ragg)::DOUBLE
        UNION ALL SELECT 'Graph Construction', 'metric',
               'entities_per_chunk', true,
               round((SELECT n FROM eagg)::DOUBLE
                     / (SELECT n_chunks FROM dagg), 8)
               WHERE (SELECT n_chunks FROM dagg) > 0
        UNION ALL SELECT 'Graph Construction', 'metric', 'connectivity',
               true,
               round((SELECT n FROM ragg)::DOUBLE / (SELECT n FROM eagg), 8)
               WHERE (SELECT n FROM eagg) > 1
    """


def _oracle_sql_base() -> dict[str, str]:
    return {
        "text_clean": """
            SELECT doc_id,
                   CASE WHEN length(trim(text)) = 0 THEN ''
                        ELSE array_to_string(regexp_split_to_array(trim(text), '\\s+'), ' ')
                   END AS clean_text
            FROM documents
        """,
        "exact_dedup": """
            SELECT md5(text) AS fp, min(doc_id) AS doc_id, count(*) AS n_dups
            FROM documents GROUP BY md5(text)
        """,
        "doc_fingerprints": """
            SELECT doc_id, md5(text) AS fp FROM documents
        """,
        "token_stats": """
            SELECT doc_id,
                   CASE WHEN length(trim(text)) = 0 THEN 0
                        ELSE len(regexp_split_to_array(trim(text), '\\s+')) END::BIGINT AS n_tokens,
                   length(text)::BIGINT AS n_chars
            FROM documents
        """,
        "language_id": """
            SELECT doc_id,
                   CASE WHEN regexp_matches(text, '[ñóéíáú]') THEN 'es'
                        WHEN regexp_matches(text, '[çãõ]') THEN 'pt'
                        WHEN regexp_matches(text, '[àèùò]') THEN 'fr'
                        ELSE 'en' END AS lang_pred
            FROM documents
        """,
        "quality_scores": """
            WITH w AS (
              SELECT doc_id, text,
                     CASE WHEN length(trim(text)) = 0 THEN []::VARCHAR[]
                          ELSE regexp_split_to_array(trim(text), '\\s+') END AS words
              FROM documents)
            SELECT doc_id,
                   length(text)::BIGINT AS n_chars,
                   len(words)::BIGINT AS n_words,
                   CASE WHEN length(text) = 0 THEN 0.0
                        ELSE length(regexp_replace(text, '[\\p{L}\\p{N}\\p{Z}\\s]', '', 'g')) * 1.0
                             / length(text) END AS punct_ratio,
                   CASE WHEN len(words) = 0 THEN 0.0
                        ELSE len(list_filter(words, x -> lower(x) IN {stop})) * 1.0
                             / len(words) END AS stopword_ratio
            FROM w
        """.replace("{stop}", _STOPLIST_SQL),
        "bm25_df": """
            WITH toks AS (
              SELECT doc_id,
                     regexp_replace(lower(unnest(regexp_split_to_array(trim(text), '\\s+'))),
                                    '[^\\p{L}\\p{N}]', '', 'g') AS term
              FROM documents WHERE length(trim(text)) > 0)
            SELECT term, count(DISTINCT doc_id) AS df
            FROM toks
            WHERE length(term) > 2 AND term NOT IN {stop}
            GROUP BY term
        """.replace("{stop}", _STOPLIST_SQL),
        "bm25_corpus_stats": """
            WITH toks AS (
              SELECT doc_id,
                     regexp_replace(lower(unnest(regexp_split_to_array(trim(text), '\\s+'))),
                                    '[^\\p{L}\\p{N}]', '', 'g') AS term
              FROM documents WHERE length(trim(text)) > 0),
            lens AS (
              SELECT d.doc_id,
                     (SELECT count(*) FROM toks t
                      WHERE t.doc_id = d.doc_id
                        AND length(t.term) > 2 AND t.term NOT IN {stop}) AS doc_len
              FROM documents d)
            SELECT count(*)::BIGINT AS n_docs,
                   sum(doc_len)::BIGINT AS total_tokens,
                   avg(doc_len) AS avg_doc_len
            FROM lens
        """.replace("{stop}", _STOPLIST_SQL),
        "knn_bruteforce": """
            WITH q AS (
              SELECT vec_id AS query_id, embedding AS qe
              FROM embeddings ORDER BY vec_id LIMIT 5),
            scored AS (
              SELECT q.query_id, e.vec_id,
                     list_cosine_similarity(q.qe, e.embedding) AS score,
                     row_number() OVER (
                       PARTITION BY q.query_id
                       ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC,
                                e.vec_id ASC) AS rank
              FROM q CROSS JOIN embeddings e)
            SELECT query_id, vec_id, rank::BIGINT AS rank
            FROM scored WHERE rank <= 10
        """,
        "cosine_dup_pairs": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.35
        """,
        "cosine_dup_pairs_bucketed": """
            SELECT vec_a, vec_b, sim FROM (
              SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                     round(list_cosine_similarity(a.embedding::DOUBLE[],
                                                  b.embedding::DOUBLE[]), 12) AS sim
              FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id)
            WHERE sim >= 0.35
        """,
        "sentence_stats": """
            SELECT doc_id,
                   len(list_filter(regexp_split_to_array(text, '[.!?]'),
                                   x -> length(trim(x)) > 0))::BIGINT AS n_sentences
            FROM documents
        """,
        "bm25_scores": """
            WITH toks AS (
              SELECT doc_id,
                     regexp_replace(lower(unnest(regexp_split_to_array(trim(text), '\\s+'))),
                                    '[^\\p{L}\\p{N}]', '', 'g') AS term
              FROM documents WHERE length(trim(text)) > 0),
            filt AS (
              SELECT doc_id, term FROM toks
              WHERE length(term) > 2 AND term NOT IN {stop}),
            dl AS (SELECT doc_id, count(*) AS dl FROM filt GROUP BY doc_id),
            stats AS (
              SELECT avg(dl) AS avg_dl FROM (
                SELECT d.doc_id, coalesce(dl.dl, 0) AS dl
                FROM documents d LEFT JOIN dl USING (doc_id))),
            df AS (SELECT term, count(DISTINCT doc_id) AS df FROM filt
                   WHERE term IN ('fast','hash','join') GROUP BY term),
            tf AS (SELECT doc_id, term, count(*) AS c FROM filt
                   WHERE term IN ('fast','hash','join') GROUP BY doc_id, term),
            n AS (SELECT count(*) AS n FROM documents),
            scored AS (
              SELECT tf.doc_id,
                     sum((ln(n.n * 1.0 / df.df) + 1.0)
                         * ((tf.c * 1.0 / dl.dl) * 2.2)
                         / ((tf.c * 1.0 / dl.dl)
                            + 1.2 * (1.0 - 0.75 + 0.75 * dl.dl / stats.avg_dl))) AS s
              FROM tf JOIN df USING (term) JOIN dl USING (doc_id)
                   CROSS JOIN n CROSS JOIN stats
              GROUP BY tf.doc_id)
            SELECT doc_id, round(s, 6) AS score FROM scored WHERE s > 0
        """.replace("{stop}", _STOPLIST_SQL),
        "tfidf_topk": """
            WITH toks AS (
              SELECT doc_id,
                     lower(regexp_replace(unnest(regexp_split_to_array(trim(text), '\\s+')),
                                          '[^\\p{L}\\p{N}\\-_]', '', 'g')) AS term
              FROM documents WHERE length(trim(text)) > 0),
            filtered AS (
              SELECT doc_id, term FROM toks
              WHERE length(term) > 2 AND term NOT IN {tfstop}
                AND NOT regexp_matches(term, '^[0-9]+$')),
            tf AS (
              SELECT doc_id, term,
                     count(*) * 1.0 / sum(count(*)) OVER (PARTITION BY doc_id) AS tf
              FROM filtered GROUP BY doc_id, term),
            df AS (SELECT term, count(DISTINCT doc_id) AS df FROM filtered GROUP BY term),
            scored AS (
              SELECT tf.doc_id, tf.term,
                     tf.tf * greatest(ln((SELECT count(*) FROM documents) * 1.0 / df.df), 0) AS score
              FROM tf JOIN df USING (term)),
            ranked AS (
              SELECT doc_id, term,
                     row_number() OVER (PARTITION BY doc_id
                                        ORDER BY score DESC, term ASC) AS rank
              FROM scored)
            SELECT doc_id, rank::BIGINT AS rank, term FROM ranked WHERE rank <= 5
        """.replace("{tfstop}", _TFIDF_STOPLIST_SQL),
        "temporal_edges": """
            SELECT user_id, event_type,
                   min(ts) AS first_seen, max(ts) AS last_seen,
                   count(*) AS n_events
            FROM events GROUP BY user_id, event_type
        """,
        "temporal_snapshot": """
            WITH te AS (
              SELECT user_id, event_type,
                     min(epoch_us(ts)) AS fs, max(epoch_us(ts)) AS ls
              FROM events GROUP BY user_id, event_type),
            r AS (SELECT (min(epoch_us(ts)) + max(epoch_us(ts))) // 2 AS mid
                  FROM events)
            SELECT user_id, count(*)::BIGINT AS n_active
            FROM te CROSS JOIN r
            WHERE fs <= mid AND ls >= mid
            GROUP BY user_id
        """,
        # temporal analytics (graph/temporal.rs:271-407) — interval edges
        # (user, event_type) over [first_seen, last_seen], namespaced
        # string nodes; all ratios are int/int DOUBLE divisions
        "temporal_evolution": """
            WITH te AS (
              SELECT 'u' || user_id::VARCHAR AS src,
                     'e:' || event_type AS dst,
                     min(epoch_us(ts)) AS fs, max(epoch_us(ts)) AS ls
              FROM events GROUP BY user_id, event_type),
            p AS (SELECT min(fs) AS lo, max(ls) AS hi,
                         greatest(1, (max(ls) - min(fs)) // 8) AS g
                  FROM te),
            w AS (SELECT lo + g * i AS w, g FROM p,
                  generate_series(0, 8192) AS t(i)
                  -- default-granularity only: g=(hi-lo)//8 so
                  -- (hi-lo)//g <= 8 << 8192; a small explicit g
                  -- would need a bound of (hi-lo)//g (ADVICE r04)
                  WHERE lo + g * i <= hi),
            act AS (SELECT w.w, te.src, te.dst FROM te JOIN w
                    ON te.fs <= w.w + w.g AND te.ls >= w.w),
            ec AS (SELECT w, count(*)::BIGINT AS ec FROM act GROUP BY w),
            nc AS (SELECT w, count(DISTINCT node)::BIGINT AS nc FROM (
                     SELECT w, src AS node FROM act
                     UNION ALL SELECT w, dst FROM act) GROUP BY w)
            SELECT w.w AS window_start,
                   coalesce(nc.nc, 0) AS node_count,
                   coalesce(ec.ec, 0) AS edge_count,
                   CASE WHEN coalesce(nc.nc, 0) >= 2
                        THEN coalesce(ec.ec, 0)::DOUBLE /
                             ((nc.nc * (nc.nc - 1)) // 2)
                        ELSE 0.0 END AS density,
                   CASE WHEN coalesce(nc.nc, 0) > 0
                        THEN 2.0 * coalesce(ec.ec, 0) / nc.nc
                        ELSE 0.0 END AS avg_degree
            FROM w LEFT JOIN ec ON w.w = ec.w LEFT JOIN nc ON w.w = nc.w
        """,
        "temporal_node_churn": """
            WITH te AS (
              SELECT 'u' || user_id::VARCHAR AS src,
                     'e:' || event_type AS dst,
                     min(epoch_us(ts)) AS fs, max(epoch_us(ts)) AS ls
              FROM events GROUP BY user_id, event_type),
            r AS (SELECT min(fs) AS lo, max(ls) AS hi FROM te),
            f AS (
              SELECT src AS node,
                     (fs <= lo AND ls >= lo)::BIGINT AS s,
                     (fs <= hi AND ls >= hi)::BIGINT AS e
              FROM te, r WHERE (fs <= lo AND ls >= lo)
                            OR (fs <= hi AND ls >= hi)
              UNION ALL
              SELECT dst,
                     (fs <= lo AND ls >= lo)::BIGINT,
                     (fs <= hi AND ls >= hi)::BIGINT
              FROM te, r WHERE (fs <= lo AND ls >= lo)
                            OR (fs <= hi AND ls >= hi)),
            n AS (SELECT node, max(s) AS s, max(e) AS e FROM f GROUP BY node)
            SELECT node, CASE WHEN s = 1 AND e = 1 THEN 'stable'
                              WHEN e = 1 THEN 'added'
                              ELSE 'removed' END AS status
            FROM n
        """,
        "temporal_top_growing": """
            WITH te AS (
              SELECT 'u' || user_id::VARCHAR AS src,
                     'e:' || event_type AS dst,
                     min(epoch_us(ts)) AS fs, max(epoch_us(ts)) AS ls
              FROM events GROUP BY user_id, event_type),
            p AS (SELECT min(fs) AS lo, max(ls) AS hi,
                         greatest(1, (max(ls) - min(fs)) // 8) AS g
                  FROM te),
            sd AS (SELECT node, count(*)::BIGINT AS deg FROM (
                     SELECT src AS node FROM te, p
                     WHERE fs <= lo + g AND ls >= lo
                     UNION ALL SELECT dst FROM te, p
                     WHERE fs <= lo + g AND ls >= lo) GROUP BY node),
            ed AS (SELECT node, count(*)::BIGINT AS deg FROM (
                     SELECT src AS node FROM te, p
                     WHERE fs <= hi AND ls >= hi - g
                     UNION ALL SELECT dst FROM te, p
                     WHERE fs <= hi AND ls >= hi - g) GROUP BY node)
            SELECT ed.node,
                   CASE WHEN coalesce(sd.deg, 0) > 0
                        THEN (ed.deg - sd.deg)::DOUBLE / sd.deg
                        ELSE ed.deg::DOUBLE END AS growth
            FROM ed LEFT JOIN sd ON ed.node = sd.node
            ORDER BY growth DESC, ed.node LIMIT 10
        """,
        "temporal_centrality": """
            WITH te AS (
              SELECT 'u' || user_id::VARCHAR AS src,
                     'e:' || event_type AS dst,
                     min(epoch_us(ts)) AS fs, max(epoch_us(ts)) AS ls
              FROM events GROUP BY user_id, event_type),
            p AS (SELECT min(fs) AS lo, max(ls) AS hi,
                         greatest(1, (max(ls) - min(fs)) // 8) AS g
                  FROM te),
            w AS (SELECT lo + g * i AS w, g FROM p,
                  generate_series(0, 8192) AS t(i)
                  -- default-granularity only: g=(hi-lo)//8 so
                  -- (hi-lo)//g <= 8 << 8192; a small explicit g
                  -- would need a bound of (hi-lo)//g (ADVICE r04)
                  WHERE lo + g * i <= hi),
            act AS (SELECT w.w, te.src, te.dst FROM te JOIN w
                    ON te.fs <= w.w + w.g AND te.ls >= w.w),
            nodes AS (SELECT w, src AS node FROM act
                      UNION ALL SELECT w, dst FROM act),
            deg AS (SELECT w, node, count(*)::BIGINT AS deg
                    FROM nodes GROUP BY w, node),
            nc AS (SELECT w, count(DISTINCT node)::BIGINT AS nc
                   FROM nodes GROUP BY w)
            SELECT deg.node, deg.w AS window_start,
                   CASE WHEN nc.nc > 1
                        THEN deg.deg::DOUBLE / (nc.nc - 1)
                        ELSE 0.0 END AS centrality
            FROM deg JOIN nc ON deg.w = nc.w
        """,
        # ---- staged-input oracles (procedural rows staged to Parquet by
        # the query fn; SQL checks the derivation) ------------------------
        "kg_triples": """
            SELECT subj, pred, obj, max(conf) AS conf,
                   count(*)::BIGINT AS n_contexts,
                   min(chunk_id) AS context_sample
            FROM {t} GROUP BY subj, pred, obj
        """.replace("{t}", _staged_sql("kg_triples")),
        "kg_entities": """
            WITH pn AS (
              SELECT entity_id, name, type, max(conf) AS conf,
                     sum(mention_count) AS mc, count(*) AS name_count
              FROM {t} GROUP BY entity_id, name, type),
            canon AS (
              SELECT entity_id, name,
                     row_number() OVER (PARTITION BY entity_id
                       ORDER BY name_count DESC, length(name) DESC, name DESC) AS rn
              FROM pn),
            tot AS (
              SELECT entity_id, min(type) AS type, max(conf) AS conf,
                     sum(mc)::BIGINT AS mention_count
              FROM pn GROUP BY entity_id)
            SELECT t.entity_id, c.name, t.type, t.conf, t.mention_count
            FROM tot t JOIN canon c ON t.entity_id = c.entity_id AND c.rn = 1
        """.replace("{t}", _staged_sql("kg_entities")),
        "entity_to_chunks": """
            SELECT entity_id,
                   array_to_string(list_sort(list(DISTINCT chunk_id)), ',') AS chunks,
                   count(DISTINCT chunk_id)::BIGINT AS n_chunks
            FROM {t} GROUP BY entity_id
        """.replace("{t}", _staged_sql("entity_to_chunks")),
        "chunk_to_entities": """
            SELECT chunk_id,
                   array_to_string(list_sort(list(DISTINCT entity_id)), ',') AS entities,
                   count(DISTINCT entity_id)::BIGINT AS n_entities
            FROM {t} GROUP BY chunk_id
        """.replace("{t}", _staged_sql("chunk_to_entities")),
        "co_occurring_entities": """
            WITH m AS (SELECT DISTINCT chunk_id, entity_id FROM {t})
            SELECT a.entity_id AS entity_a, b.entity_id AS entity_b,
                   count(*)::BIGINT AS shared_chunks
            FROM m a JOIN m b
              ON a.chunk_id = b.chunk_id AND a.entity_id < b.entity_id
            GROUP BY a.entity_id, b.entity_id
            HAVING count(*) >= 2
        """.replace("{t}", _staged_sql("co_occurring_entities")),
        "concept_table": """
            SELECT concept, count(*)::BIGINT AS n_chunks
            FROM {t} GROUP BY concept
        """.replace("{t}", _staged_sql("concept_table")),
        "concept_edges": """
            WITH m AS (SELECT concept, chunk_id FROM {t}),
            cnt AS (SELECT concept, count(*) AS n FROM m GROUP BY concept),
            pairs AS (
              SELECT a.concept AS concept_a, b.concept AS concept_b,
                     count(*) AS cnt
              FROM m a JOIN m b
                ON a.chunk_id = b.chunk_id AND a.concept < b.concept
              GROUP BY a.concept, b.concept
              HAVING count(*) >= 2)
            SELECT p.concept_a, p.concept_b, p.cnt::BIGINT AS count,
                   p.cnt * 1.0 / (ca.n + cb.n - p.cnt) AS confidence
            FROM pairs p
            JOIN cnt ca ON p.concept_a = ca.concept
            JOIN cnt cb ON p.concept_b = cb.concept
        """.replace("{t}", _staged_sql("concept_edges")),
        "incremental_update": """
            WITH u AS (
              SELECT entity_id, name, type, conf, mention_count, 0 AS _side
              FROM {be}
              UNION ALL
              SELECT entity_id, name, type, conf, mention_count, 1 AS _side
              FROM {de}),
            best AS (
              SELECT entity_id, name, type, conf,
                     row_number() OVER (PARTITION BY entity_id
                       ORDER BY conf DESC, _side DESC) AS rn
              FROM u),
            mc AS (SELECT entity_id, sum(mention_count)::BIGINT AS mention_count
                   FROM u GROUP BY entity_id),
            nt AS (SELECT count(*)::BIGINT AS graph_triples FROM (
                     SELECT DISTINCT subj, pred, obj FROM (
                       SELECT subj, pred, obj FROM {bt}
                       UNION ALL SELECT subj, pred, obj FROM {dt})))
            SELECT b.entity_id, b.name, b.type, b.conf,
                   m.mention_count, nt.graph_triples
            FROM best b JOIN mc m USING (entity_id) CROSS JOIN nt
            WHERE b.rn = 1
        """.replace("{be}", _staged_sql("incremental_update", "base_entities"))
           .replace("{de}", _staged_sql("incremental_update", "delta_entities"))
           .replace("{bt}", _staged_sql("incremental_update", "base_triples"))
           .replace("{dt}", _staged_sql("incremental_update", "delta_triples")),
        # RDF N-Triples import: RE2 re-parse of the staged raw lines +
        # SQL re-derivation of the per-subject entity merge
        "rdf_import": ("""
            WITH raw AS (SELECT line FROM {lines}),
        """ + _NT_PARSE_SQL_BODY).replace(
            "{lines}", _staged_sql("rdf_import", "lines")),
        # Turtle-lite import: the oracle ALSO re-derives the prefix
        # expansion (regexp_replace per prefix + the 'a' keyword) before
        # running the same N-Triples parse body
        "turtle_import": ("""
            WITH raw0 AS (SELECT line FROM {lines}),
            raw AS (
              SELECT regexp_replace(regexp_replace(regexp_replace(
                       regexp_replace(line,
                         '(^|\\s)doc:([^\\s]+)', '\\1<http://ex.org/doc/\\2>', 'g'),
                         '(^|\\s)ex:([^\\s]+)', '\\1<http://ex.org/ns/\\2>', 'g'),
                         '(^|\\s)rdfs:([^\\s]+)', '\\1<http://www.w3.org/2000/01/rdf-schema#\\2>', 'g'),
                         '(^|\\s)a(\\s)', '\\1<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>\\2', 'g') AS line
              FROM raw0
              WHERE trim(line) <> '' AND line NOT LIKE '@prefix%'
                AND line NOT LIKE '#%'),
        """ + _NT_PARSE_SQL_BODY).replace(
            "{lines}", _staged_sql("turtle_import", "lines")),

        # GraphML import: RE2 line parse (generator emits one element per
        # line) + key-declaration join + SQL attribute folds
        "graphml_import": """
            WITH raw AS (SELECT line FROM {lines}),
            keys AS (
              SELECT regexp_extract(line, '<key id="([^"]*)"', 1) AS kid,
                     regexp_extract(line, 'for="([^"]*)"', 1) AS kfor,
                     regexp_extract(line, 'attr\\.name="([^"]*)"', 1) AS kname
              FROM raw WHERE regexp_matches(line, '<key ')),
            nodes AS (
              SELECT regexp_extract(line, '<node id="([^"]*)"', 1) AS id,
                     regexp_extract_all(line, '<data key="([^"]*)">', 1) AS dk,
                     regexp_extract_all(line, '<data key="[^"]*">([^<]*)</data>', 1) AS dv
              FROM raw WHERE regexp_matches(line, '<node ')),
            ndata AS (SELECT id, unnest(dk) AS kid, unnest(dv) AS v FROM nodes),
            nmap AS (SELECT n.id, k.kname AS k, n.v
                     FROM ndata n JOIN keys k ON k.kid = n.kid AND k.kfor = 'node'),
            nn AS (SELECT id, min(v) AS name FROM nmap WHERE k = 'name' GROUP BY id),
            ntp AS (SELECT id, min(v) AS t FROM nmap WHERE k = 'type' GROUP BY id),
            natt AS (SELECT id, k, min(v) AS v FROM nmap
                     WHERE k NOT IN ('name', 'type') GROUP BY id, k),
            nattj AS (SELECT id,
                             '{' || string_agg('"' || k || '": "' || v || '"', ', ' ORDER BY k) || '}' AS attributes
                      FROM natt GROUP BY id),
            ents AS (
              SELECT 'e' AS kind, nodes.id,
                     coalesce(nn.name, nodes.id) AS name,
                     coalesce(ntp.t, 'Entity') AS entity_type,
                     coalesce(nattj.attributes, '{}') AS attributes,
                     '' AS source, '' AS target, '' AS relation_type
              FROM nodes
              LEFT JOIN nn USING (id) LEFT JOIN ntp USING (id)
              LEFT JOIN nattj USING (id)),
            edges AS (
              SELECT row_number() OVER () AS eid,
                     regexp_extract(line, 'source="([^"]*)"', 1) AS source,
                     regexp_extract(line, 'target="([^"]*)"', 1) AS target,
                     regexp_extract_all(line, '<data key="([^"]*)">', 1) AS dk,
                     regexp_extract_all(line, '<data key="[^"]*">([^<]*)</data>', 1) AS dv
              FROM raw WHERE regexp_matches(line, '<edge ')),
            edata AS (SELECT eid, unnest(dk) AS kid, unnest(dv) AS v FROM edges),
            emap AS (SELECT e.eid, k.kname AS k, e.v
                     FROM edata e JOIN keys k ON k.kid = e.kid AND k.kfor = 'edge'),
            ert AS (SELECT eid, min(v) AS t FROM emap WHERE k = 'type' GROUP BY eid),
            eatt AS (SELECT eid, k, min(v) AS v FROM emap WHERE k <> 'type' GROUP BY eid, k),
            eattj AS (SELECT eid,
                             '{' || string_agg('"' || k || '": "' || v || '"', ', ' ORDER BY k) || '}' AS attributes
                      FROM eatt GROUP BY eid),
            rels AS (
              SELECT 'r' AS kind, '' AS id, '' AS name, '' AS entity_type,
                     coalesce(eattj.attributes, '{}') AS attributes,
                     edges.source, edges.target,
                     coalesce(ert.t, 'RELATED_TO') AS relation_type
              FROM edges
              LEFT JOIN ert USING (eid) LEFT JOIN eattj USING (eid))
            SELECT * FROM ents UNION ALL SELECT * FROM rels
        """.replace("{lines}", _staged_sql("graphml_import", "lines")),
        "kg_entities_fuzzy": """
            WITH e AS (SELECT * FROM {ents}),
            l AS (SELECT * FROM {links}),
            m AS (SELECT coalesce(l.canonical_id, e.entity_id) AS entity_id,
                         e.name, e.type, e.conf, e.mention_count
                  FROM e LEFT JOIN l ON e.entity_id = l.entity_id),
            pn AS (SELECT entity_id, name, type, max(conf) AS conf,
                          sum(mention_count) AS mc
                   FROM m GROUP BY entity_id, name, type),
            canon AS (SELECT entity_id, name,
                             row_number() OVER (PARTITION BY entity_id
                               ORDER BY mc DESC, length(name) DESC, name DESC) AS rn
                      FROM pn),
            typ AS (SELECT entity_id, type,
                           row_number() OVER (PARTITION BY entity_id
                             ORDER BY name ASC, type ASC) AS trn
                    FROM pn),
            tot AS (SELECT entity_id, max(conf) AS conf,
                           sum(mc)::BIGINT AS mention_count
                    FROM pn GROUP BY entity_id)
            SELECT t.entity_id, c.name, ty.type, t.conf, t.mention_count
            FROM tot t
            JOIN canon c ON t.entity_id = c.entity_id AND c.rn = 1
            JOIN typ ty ON t.entity_id = ty.entity_id AND ty.trn = 1
        """.replace("{ents}", _staged_sql("kg_entities_fuzzy", "exact_entities"))
           .replace("{links}", _staged_sql("kg_entities_fuzzy", "links")),
        "minhash_lsh_candidates": """
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   count(*)::BIGINT AS n_bands
            FROM {t} a JOIN {t} b
              ON a.band = b.band AND a.band_hash = b.band_hash
             AND a.doc_id < b.doc_id
            GROUP BY a.doc_id, b.doc_id
        """.replace("{t}", _staged_sql("minhash_lsh_candidates")),
        "doc_tree": """
            WITH leaves AS (
              SELECT doc_id, chunk_id,
                     regexp_extract(chunk_id, '_(\\d+)$', 1)::BIGINT AS pos
              FROM {s}),
            docs AS (SELECT doc_id, count(*) AS n FROM leaves GROUP BY doc_id),
            leaf_rows AS (
              SELECT l.doc_id, 'leaf_' || l.chunk_id AS node_id,
                     0::BIGINT AS level,
                     CASE WHEN d.n > 1
                          THEN 'level_1_' || (l.pos // 5)
                          ELSE NULL END AS parent_id,
                     0::BIGINT AS n_children, 1::BIGINT AS n_leaves
              FROM leaves l JOIN docs d USING (doc_id)),
            lv AS (SELECT unnest(range(1, 10)) AS L),
            ks AS (SELECT unnest(range(0, greatest(
                     (SELECT max(n)::BIGINT FROM docs), 1))) AS k),
            lk AS (
              SELECT d.doc_id, d.n, l.L, k.k,
                     power(5, l.L)::BIGINT AS p,
                     power(5, l.L - 1)::BIGINT AS pp
              FROM docs d CROSS JOIN lv l CROSS JOIN ks k),
            inner_rows AS (
              SELECT doc_id, 'level_' || L || '_' || k AS node_id,
                     L::BIGINT AS level,
                     CASE WHEN ((n + p - 1) // p) > 1
                          THEN 'level_' || (L + 1) || '_' || (k // 5)
                          ELSE NULL END AS parent_id,
                     least(5, ((n + pp - 1) // pp) - 5 * k)::BIGINT AS n_children,
                     least(p, n - p * k)::BIGINT AS n_leaves
              FROM lk
              WHERE ((n + pp - 1) // pp) > 1
                AND k < ((n + p - 1) // p))
            SELECT * FROM leaf_rows UNION ALL SELECT * FROM inner_rows
        """.replace("{s}", _staged_sql("doc_tree")),
        "gleaning_triples": """
            WITH tr AS (SELECT * FROM {s}),
            er AS (SELECT chunk_id, seq, round, name, lower(name) AS key,
                          type, length(description)::BIGINT AS dl
                   FROM tr WHERE kind = 'e'),
            seed0 AS (
              SELECT chunk_id, key,
                     CASE WHEN count(*) FILTER (WHERE round = 1) > 0
                          THEN max(seq) FILTER (WHERE round = 1)
                          ELSE min(seq) END AS seed_seq
              FROM er GROUP BY chunk_id, key),
            seedrow AS (
              SELECT e.chunk_id, e.key, e.seq AS seed_seq, e.dl AS seed_dl
              FROM er e JOIN seed0 s
                ON e.chunk_id = s.chunk_id AND e.key = s.key
               AND e.seq = s.seed_seq),
            cand AS (
              SELECT e.chunk_id, e.key, e.seq, e.dl
              FROM er e JOIN seedrow s
                ON e.chunk_id = s.chunk_id AND e.key = s.key
              WHERE e.round > 1 AND e.seq > s.seed_seq),
            candwin AS (
              SELECT c.chunk_id, c.key, a.mx, min(c.seq) AS first_mx_seq
              FROM cand c
              JOIN (SELECT chunk_id, key, max(dl) AS mx
                    FROM cand GROUP BY chunk_id, key) a
                ON c.chunk_id = a.chunk_id AND c.key = a.key AND c.dl = a.mx
              GROUP BY c.chunk_id, c.key, a.mx),
            win AS (
              SELECT s.chunk_id, s.key,
                     CASE WHEN cw.mx IS NOT NULL AND cw.mx > s.seed_dl
                          THEN cw.first_mx_seq ELSE s.seed_seq END AS win_seq
              FROM seedrow s LEFT JOIN candwin cw
                ON s.chunk_id = cw.chunk_id AND s.key = cw.key),
            idmap AS (
              SELECT e.chunk_id, e.key,
                     e.type || '_' ||
                     regexp_replace(lower(e.name), '[^a-z0-9_]', '', 'g')
                       AS eid
              FROM er e JOIN win w
                ON e.chunk_id = w.chunk_id AND e.key = w.key
               AND e.seq = w.win_seq
              WHERE e.name <> ''),
            rd0 AS (
              SELECT chunk_id, source, target, relation_type, min(seq) AS seq
              FROM tr WHERE kind = 't'
              GROUP BY chunk_id, source, target, relation_type)
            SELECT r.chunk_id, ms.eid AS subj, r.relation_type AS pred,
                   mt.eid AS obj
            FROM rd0 r
            JOIN idmap ms ON ms.chunk_id = r.chunk_id
                         AND ms.key = lower(r.source)
            JOIN idmap mt ON mt.chunk_id = r.chunk_id
                         AND mt.key = lower(r.target)
        """.replace("{s}", _staged_sql("gleaning_triples")),
        "semantic_chunks": """
            WITH sents AS (SELECT * FROM {s}),
            d AS (SELECT doc_id, sent_idx, diff FROM sents
                  WHERE diff IS NOT NULL),
            thr AS (
              SELECT doc_id, diff AS thr FROM (
                SELECT doc_id, diff,
                       row_number() OVER (PARTITION BY doc_id
                                          ORDER BY diff ASC) AS rk,
                       count(*) OVER (PARTITION BY doc_id) AS n
                FROM d) z
              WHERE rk - 1 = least((floor(n * 80.0 / 100.0))::BIGINT, n - 1)),
            flags AS (
              SELECT s.doc_id, s.sent_idx, s.sentence,
                     CASE WHEN dd.diff > t.thr THEN 1 ELSE 0 END AS brk
              FROM sents s
              LEFT JOIN d dd ON dd.doc_id = s.doc_id
                            AND dd.sent_idx = s.sent_idx - 1
              LEFT JOIN thr t ON t.doc_id = s.doc_id),
            segs AS (
              SELECT doc_id, sent_idx, sentence,
                     sum(brk) OVER (PARTITION BY doc_id
                                    ORDER BY sent_idx) AS seg
              FROM flags),
            chunks AS (
              SELECT doc_id, seg,
                     string_agg(sentence, ' ' ORDER BY sent_idx) AS text,
                     count(*)::BIGINT AS sentence_count,
                     min(sent_idx) AS s0
              FROM segs GROUP BY doc_id, seg)
            SELECT doc_id,
                   (row_number() OVER (PARTITION BY doc_id ORDER BY s0) - 1)
                     ::BIGINT AS chunk_idx,
                   text, sentence_count
            FROM chunks
        """.replace("{s}", _staged_sql("semantic_chunks")),
        "kg_extract_text": """
            SELECT url AS doc_id, title,
                   CASE WHEN html_s IS NOT NULL AND length(html_s) > 0
                        THEN trim(replace(regexp_replace(
                               html_s, '<[^>]*(>|$)', '', 'g'), '>', ''),
                             {ws})
                        ELSE coalesce(text_s, '') END AS text,
                   lang
            FROM {s}
        """.replace("{s}", _staged_sql("kg_extract_text"))
          .replace("{ws}", "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"),
        "consistency_report": """
            WITH e AS (SELECT * FROM {e}),
            t AS (SELECT * FROM {t}),
            ep AS (SELECT subj AS name FROM t UNION SELECT obj FROM t)
            SELECT (SELECT count(*) FROM e)::BIGINT AS n_entities,
                   (SELECT count(*) FROM t)::BIGINT AS n_triples,
                   (SELECT count(*) FROM e
                    WHERE name NOT IN (SELECT name FROM ep))::BIGINT AS n_orphaned,
                   (SELECT count(*) FROM t
                    WHERE subj NOT IN (SELECT name FROM e)
                       OR obj NOT IN (SELECT name FROM e))::BIGINT AS n_broken,
                   (SELECT count(*) FROM e
                    WHERE embedding IS NULL)::BIGINT AS n_missing_embeddings,
                   ((SELECT count(*) FROM e WHERE name NOT IN (SELECT name FROM ep))
                    + (SELECT count(*) FROM t WHERE subj NOT IN (SELECT name FROM e)
                                                 OR obj NOT IN (SELECT name FROM e))
                    + (SELECT count(*) FROM e WHERE embedding IS NULL)
                   )::BIGINT AS issues_found,
                   CASE WHEN ((SELECT count(*) FROM e WHERE name NOT IN (SELECT name FROM ep))
                    + (SELECT count(*) FROM t WHERE subj NOT IN (SELECT name FROM e)
                                                 OR obj NOT IN (SELECT name FROM e))
                    + (SELECT count(*) FROM e WHERE embedding IS NULL)) = 0
                        THEN 1 ELSE 0 END::BIGINT AS is_consistent
        """.replace("{e}", _staged_sql("consistency_report"))
          .replace("{t}", _staged_sql("consistency_report", "triples")),
        "lsh_buckets": """
            SELECT e.vec_id,
                   sum(CASE WHEN list_dot_product(e.embedding::DOUBLE[], p.plane) > 0
                            THEN (1::BIGINT << p.plane_idx::INT)
                            ELSE 0 END)::BIGINT AS bucket
            FROM embeddings e CROSS JOIN {p} p
            GROUP BY e.vec_id
        """.replace("{p}", _staged_sql("lsh_buckets")),
        "ngram_dedup_pairs": """
            WITH cand AS (SELECT doc_a, doc_b FROM {c}),
            cd AS (SELECT DISTINCT doc_id FROM
                   (SELECT doc_a AS doc_id FROM cand
                    UNION SELECT doc_b FROM cand)),
            docs AS (SELECT d.doc_id,
                            lower(CASE WHEN length(trim(d.text)) = 0 THEN ''
                                  ELSE array_to_string(
                                    regexp_split_to_array(trim(d.text), '\\s+'), ' ')
                                  END) AS s
                     FROM documents d JOIN cd USING (doc_id)),
            gs AS (SELECT unnest(range(1, 1 + greatest(
                     (SELECT max(length(s))::INT FROM docs), 1))) AS i),
            ngrams AS (
              SELECT doc_id, substr(s, g.i::INT, 3) AS ng
              FROM docs CROSS JOIN gs g
              WHERE length(s) >= 3 AND g.i <= length(s) - 2
              UNION
              SELECT doc_id, s FROM docs WHERE length(s) BETWEEN 1 AND 2),
            sizes AS (SELECT doc_id, count(*) AS nn FROM ngrams GROUP BY doc_id),
            inter AS (
              SELECT c.doc_a, c.doc_b, count(*) AS i
              FROM cand c JOIN ngrams na ON na.doc_id = c.doc_a
                          JOIN ngrams nb ON nb.doc_id = c.doc_b
                                        AND nb.ng = na.ng
              GROUP BY c.doc_a, c.doc_b),
            jac AS (
              SELECT c.doc_a, c.doc_b, coalesce(i.i, 0) AS i,
                     coalesce(sa.nn, 0) + coalesce(sb.nn, 0)
                       - coalesce(i.i, 0) AS u
              FROM cand c
              LEFT JOIN inter i ON i.doc_a = c.doc_a AND i.doc_b = c.doc_b
              LEFT JOIN sizes sa ON sa.doc_id = c.doc_a
              LEFT JOIN sizes sb ON sb.doc_id = c.doc_b)
            SELECT doc_a, doc_b,
                   CASE WHEN u = 0 THEN 1.0
                        ELSE round(i * 1.0 / u, 4) END AS jaccard
            FROM jac
            WHERE (CASE WHEN u = 0 THEN 1.0 ELSE i * 1.0 / u END) >= 0.8
        """.replace("{c}", _staged_sql("ngram_dedup_pairs")),
        # transitive clustering: the same trigram-Jaccard verify as
        # ngram_dedup_pairs, then a recursive reachability closure over
        # the verified pairs (MATERIALIZED is mandatory on CTEs the
        # recursive arm references — DuckDB re-inlines them otherwise),
        # min-member label, sizes, and the keep flag over ALL documents
        "dedup_clusters": """
            WITH RECURSIVE cand AS (SELECT doc_a, doc_b FROM {c}),
            cd AS (SELECT DISTINCT doc_id FROM
                   (SELECT doc_a AS doc_id FROM cand
                    UNION SELECT doc_b FROM cand)),
            docs AS (SELECT d.doc_id,
                            lower(CASE WHEN length(trim(d.text)) = 0 THEN ''
                                  ELSE array_to_string(
                                    regexp_split_to_array(trim(d.text), '\\s+'), ' ')
                                  END) AS s
                     FROM documents d JOIN cd USING (doc_id)),
            gs AS (SELECT unnest(range(1, 1 + greatest(
                     (SELECT max(length(s))::INT FROM docs), 1))) AS i),
            -- inside a WITH RECURSIVE clause DuckDB does NOT apply the
            -- set-semantics dedup of a plain UNION in non-recursive CTEs
            -- (measured: trigram multiplicities leak through and the
            -- union-size arithmetic goes negative) — dedup explicitly
            ngrams AS (
              SELECT DISTINCT doc_id, ng FROM (
                SELECT doc_id, substr(s, g.i::INT, 3) AS ng
                FROM docs CROSS JOIN gs g
                WHERE length(s) >= 3 AND g.i <= length(s) - 2
                UNION ALL
                SELECT doc_id, s FROM docs
                WHERE length(s) BETWEEN 1 AND 2)),
            sizes AS (SELECT doc_id, count(*) AS nn FROM ngrams GROUP BY doc_id),
            inter AS (
              SELECT c.doc_a, c.doc_b, count(*) AS i
              FROM cand c JOIN ngrams na ON na.doc_id = c.doc_a
                          JOIN ngrams nb ON nb.doc_id = c.doc_b
                                        AND nb.ng = na.ng
              GROUP BY c.doc_a, c.doc_b),
            jac AS (
              SELECT c.doc_a, c.doc_b, coalesce(i.i, 0) AS i,
                     coalesce(sa.nn, 0) + coalesce(sb.nn, 0)
                       - coalesce(i.i, 0) AS u
              FROM cand c
              LEFT JOIN inter i ON i.doc_a = c.doc_a AND i.doc_b = c.doc_b
              LEFT JOIN sizes sa ON sa.doc_id = c.doc_a
              LEFT JOIN sizes sb ON sb.doc_id = c.doc_b),
            und AS MATERIALIZED (
              SELECT src, dst FROM (
                SELECT doc_a AS src, doc_b AS dst FROM jac
                WHERE (CASE WHEN u = 0 THEN 1.0 ELSE i * 1.0 / u END) >= 0.8
                UNION
                SELECT doc_b, doc_a FROM jac
                WHERE (CASE WHEN u = 0 THEN 1.0 ELSE i * 1.0 / u END) >= 0.8)),
            vnodes AS MATERIALIZED (SELECT DISTINCT src AS node FROM und),
            r(node, lab) AS (
              SELECT node, node FROM vnodes
              UNION
              SELECT u.dst, r.lab FROM r JOIN und u ON u.src = r.node),
            comp AS (SELECT node AS doc_id, min(lab) AS cluster
                     FROM r GROUP BY node),
            csize AS (SELECT cluster, count(*)::BIGINT AS cluster_size
                      FROM comp GROUP BY cluster)
            SELECT d.doc_id,
                   coalesce(cm.cluster, d.doc_id) AS cluster,
                   coalesce(cs.cluster_size, 1)::BIGINT AS cluster_size,
                   (CASE WHEN coalesce(cm.cluster, d.doc_id) = d.doc_id
                         THEN 1 ELSE 0 END)::BIGINT AS is_kept
            FROM documents d
            LEFT JOIN comp cm USING (doc_id)
            LEFT JOIN csize cs ON cs.cluster = cm.cluster
        """.replace("{c}", _staged_sql("dedup_clusters")),
        "simhash_dup_pairs": """
            WITH s AS (SELECT doc_id, simhash FROM {s}),
            bands AS (
              SELECT doc_id, b.i AS band,
                     (simhash >> (16 * b.i)::INT) & 65535::UBIGINT
                       AS band_val
              FROM s CROSS JOIN generate_series(0, 3) b(i)),
            cand AS (
              SELECT x.doc_id AS doc_a, y.doc_id AS doc_b
              FROM bands x JOIN bands y
                ON x.band = y.band AND x.band_val = y.band_val
               AND x.doc_id < y.doc_id
              GROUP BY x.doc_id, y.doc_id),
            h AS (
              SELECT c.doc_a, c.doc_b,
                     bit_count(xor(sa.simhash, sb.simhash))::BIGINT
                       AS hamming
              FROM cand c JOIN s sa ON sa.doc_id = c.doc_a
                          JOIN s sb ON sb.doc_id = c.doc_b)
            SELECT doc_a, doc_b, hamming FROM h WHERE hamming <= 3
        """.replace("{s}", _staged_sql("simhash_dup_pairs")),
        # cross-path oracle: Ray = Manku permuted-prefix tables, SQL =
        # pigeonhole banding — identical ground truth (both exact-recall
        # for Hamming ≤ 3 + popcount verify)
        "simhash_dup_pairs_manku": """
            WITH s AS (SELECT doc_id, simhash FROM {s}),
            bands AS (
              SELECT doc_id, b.i AS band,
                     (simhash >> (16 * b.i)::INT) & 65535::UBIGINT
                       AS band_val
              FROM s CROSS JOIN generate_series(0, 3) b(i)),
            cand AS (
              SELECT x.doc_id AS doc_a, y.doc_id AS doc_b
              FROM bands x JOIN bands y
                ON x.band = y.band AND x.band_val = y.band_val
               AND x.doc_id < y.doc_id
              GROUP BY x.doc_id, y.doc_id),
            h AS (
              SELECT c.doc_a, c.doc_b,
                     bit_count(xor(sa.simhash, sb.simhash))::BIGINT
                       AS hamming
              FROM cand c JOIN s sa ON sa.doc_id = c.doc_a
                          JOIN s sb ON sb.doc_id = c.doc_b)
            SELECT doc_a, doc_b, hamming FROM h WHERE hamming <= 3
        """.replace("{s}", _staged_sql("simhash_dup_pairs_manku")),
        "corpus_curation": """
            WITH w AS (
              SELECT doc_id, text,
                     CASE WHEN length(trim(text)) = 0 THEN []::VARCHAR[]
                          ELSE regexp_split_to_array(trim(text), '\\s+') END AS words
              FROM documents),
            q AS (
              SELECT doc_id, text,
                     CASE WHEN regexp_matches(text, '[ñóéíáú]') THEN 'es'
                          WHEN regexp_matches(text, '[çãõ]') THEN 'pt'
                          WHEN regexp_matches(text, '[àèùò]') THEN 'fr'
                          ELSE 'en' END AS lang_pred,
                     len(words)::BIGINT AS n_tokens,
                     length(text)::BIGINT AS n_chars,
                     CASE WHEN length(text) = 0 THEN 0.0
                          ELSE length(regexp_replace(text, '[\\p{L}\\p{N}\\p{Z}\\s]', '', 'g')) * 1.0
                               / length(text) END AS punct_ratio,
                     CASE WHEN len(words) = 0 THEN 0.0
                          ELSE len(list_filter(words, x -> lower(x) IN {stop})) * 1.0
                               / len(words) END AS stopword_ratio
              FROM w),
            filt AS (
              SELECT * FROM q
              WHERE lang_pred = 'en' AND n_tokens >= 20
                AND punct_ratio <= 0.2 AND stopword_ratio >= 0.01),
            ex AS (
              SELECT md5(text) AS fp, min(doc_id) AS keep_id,
                     count(*)::BIGINT AS n_exact_dups
              FROM filt GROUP BY md5(text)),
            surv AS (
              SELECT f.doc_id, f.text, f.lang_pred, f.n_tokens, f.n_chars,
                     f.punct_ratio, f.stopword_ratio, e.n_exact_dups
              FROM filt f JOIN ex e ON f.doc_id = e.keep_id),
            cand AS (
              SELECT x.doc_id AS doc_a, y.doc_id AS doc_b
              FROM {b} x JOIN {b} y
                ON x.band = y.band AND x.band_hash = y.band_hash
               AND x.doc_id < y.doc_id
              GROUP BY x.doc_id, y.doc_id),
            cd AS (SELECT DISTINCT doc_id FROM
                   (SELECT doc_a AS doc_id FROM cand
                    UNION SELECT doc_b FROM cand)),
            docs AS (SELECT sv.doc_id,
                            lower(CASE WHEN length(trim(sv.text)) = 0 THEN ''
                                  ELSE array_to_string(
                                    regexp_split_to_array(trim(sv.text), '\\s+'), ' ')
                                  END) AS s
                     FROM surv sv JOIN cd USING (doc_id)),
            gs AS (SELECT unnest(range(1, 1 + coalesce(
                     (SELECT max(length(s))::INT FROM docs), 1))) AS i),
            ngrams AS (
              SELECT doc_id, substr(s, g.i::INT, 3) AS ng
              FROM docs CROSS JOIN gs g
              WHERE length(s) >= 3 AND g.i <= length(s) - 2
              UNION
              SELECT doc_id, s FROM docs WHERE length(s) BETWEEN 1 AND 2),
            sizes AS (SELECT doc_id, count(*) AS nn FROM ngrams GROUP BY doc_id),
            inter AS (
              SELECT c.doc_a, c.doc_b, count(*) AS i
              FROM cand c JOIN ngrams na ON na.doc_id = c.doc_a
                          JOIN ngrams nb ON nb.doc_id = c.doc_b
                                        AND nb.ng = na.ng
              GROUP BY c.doc_a, c.doc_b),
            jac AS (
              SELECT c.doc_a, c.doc_b, coalesce(i.i, 0) AS i,
                     coalesce(sa.nn, 0) + coalesce(sb.nn, 0)
                       - coalesce(i.i, 0) AS u
              FROM cand c
              LEFT JOIN inter i ON i.doc_a = c.doc_a AND i.doc_b = c.doc_b
              LEFT JOIN sizes sa ON sa.doc_id = c.doc_a
              LEFT JOIN sizes sb ON sb.doc_id = c.doc_b),
            dropped AS (
              SELECT DISTINCT doc_b AS doc_id FROM jac
              WHERE (CASE WHEN u = 0 THEN 1.0 ELSE i * 1.0 / u END) >= 0.8)
            SELECT sv.doc_id, sv.lang_pred, sv.n_tokens, sv.n_chars,
                   sv.punct_ratio, sv.stopword_ratio, sv.n_exact_dups
            FROM surv sv LEFT JOIN dropped d ON sv.doc_id = d.doc_id
            WHERE d.doc_id IS NULL
        """.replace("{b}", _staged_sql("corpus_curation"))
           .replace("{stop}", _STOPLIST_SQL),
        "simhash_signatures": """
            WITH vocab AS (SELECT word, h FROM {v}),
            words AS (
              SELECT d.doc_id,
                     unnest(regexp_split_to_array(lower(trim(d.text)), '\\s+')) AS w
              FROM documents d WHERE length(trim(d.text)) > 0),
            wh AS (SELECT words.doc_id, v.h AS h
                   FROM words JOIN vocab v ON v.word = words.w),
            cnt AS (SELECT doc_id, count(*)::BIGINT AS n FROM wh GROUP BY doc_id),
            votes AS (
              SELECT w.doc_id, b.i AS bit,
                     2 * sum(((w.h >> b.i::INT) & 1)::BIGINT) AS pos2
              FROM wh w CROSS JOIN generate_series(0, 63) b(i)
              GROUP BY w.doc_id, b.i),
            sig AS (
              SELECT v.doc_id,
                     sum(CASE WHEN v.pos2 - c.n > 0
                              THEN (1::HUGEINT << v.bit::INT)
                              ELSE 0::HUGEINT END)::UBIGINT AS simhash
              FROM votes v JOIN cnt c USING (doc_id) GROUP BY v.doc_id)
            SELECT d.doc_id, coalesce(s.simhash, 0)::UBIGINT AS simhash
            FROM documents d LEFT JOIN sig s USING (doc_id)
        """.replace("{v}", _staged_sql("simhash_signatures")),
        "ivf_topk": """
            WITH a AS (SELECT vec_id, cluster FROM {a}),
            pr AS (SELECT query_id, cluster FROM {p}),
            scored AS (
              SELECT pr.query_id, a.vec_id,
                     list_cosine_similarity(q.embedding, e.embedding) AS score
              FROM pr JOIN a USING (cluster)
                   JOIN embeddings e ON e.vec_id = a.vec_id
                   JOIN embeddings q ON q.vec_id = pr.query_id),
            ranked AS (
              SELECT query_id, vec_id,
                     row_number() OVER (PARTITION BY query_id
                                        ORDER BY score DESC, vec_id ASC) AS rank
              FROM scored)
            SELECT query_id, vec_id, rank::BIGINT AS rank
            FROM ranked WHERE rank <= 10
        """.replace("{a}", _staged_sql("ivf_topk"))
          .replace("{p}", _staged_sql("ivf_topk", "probe")),
        "hnsw_topk": """
            WITH c AS (SELECT DISTINCT query_id, vec_id FROM {c}),
            scored AS (
              SELECT c.query_id, c.vec_id,
                     list_cosine_similarity(q.embedding, e.embedding) AS score
              FROM c JOIN embeddings e ON e.vec_id = c.vec_id
                     JOIN embeddings q ON q.vec_id = c.query_id),
            ranked AS (
              SELECT query_id, vec_id,
                     row_number() OVER (PARTITION BY query_id
                                        ORDER BY score DESC, vec_id ASC) AS rank
              FROM scored)
            SELECT query_id, vec_id, rank::BIGINT AS rank
            FROM ranked WHERE rank <= 10
        """.replace("{c}", _staged_sql("hnsw_topk")),
        "connected_components": """
            WITH RECURSIVE und AS (
              SELECT a AS src, b AS dst FROM (
                SELECT subj AS a, obj AS b FROM {t} WHERE subj <> obj
                UNION SELECT obj, subj FROM {t} WHERE subj <> obj)),
            nodes AS (SELECT DISTINCT src AS node FROM und),
            r(node, lab) AS (
              SELECT node, node FROM nodes
              UNION
              SELECT u.dst, r.lab FROM r JOIN und u ON u.src = r.node)
            SELECT node, min(lab) AS component FROM r GROUP BY node
        """.replace("{t}", _staged_sql("connected_components")),
        "semantic_edges": """
            WITH e AS (SELECT entity_id, embedding FROM {t}),
            scored AS (
              SELECT a.entity_id AS subj, b.entity_id AS obj,
                     round(list_cosine_similarity(a.embedding, b.embedding), 12) AS conf
              FROM e a JOIN e b ON a.entity_id <> b.entity_id),
            ranked AS (
              SELECT subj, obj, conf,
                     row_number() OVER (PARTITION BY subj
                       ORDER BY conf DESC, obj ASC) AS rank
              FROM scored WHERE conf > 0.8)
            SELECT subj, 'SEMANTICALLY_SIMILAR' AS pred, obj, conf,
                   rank::BIGINT AS rank
            FROM ranked WHERE rank <= 10
        """.replace("{t}", _staged_sql("semantic_edges")),
    }


