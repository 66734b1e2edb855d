"""chunks → combined (entity rows + triple rows): THE core extraction stage.

One pass over chunk text runs the pattern/gazetteer detector
(``functions/entities.py``, port of ``entity/mod.rs``) and emits BOTH
per-chunk entity aggregates and co-occurrence triples in a single combined
Arrow stream discriminated by a ``kind`` column ("e" / "t").  Rationale:
the detector dominates pipeline cost; emitting both outputs from one pass
avoids either running it twice or shuffling entities back together by
chunk_id (pairs only need chunk-local state).

Entity ids are content-derived (``{TYPE}_{normalized_name}``,
``entity/mod.rs:594``), so the exact tier of canonicalization is a plain
``groupby(entity_id)`` downstream — no join required to resolve triple
endpoints.

Runs as an actor pool (``map_batches(ExtractKG, concurrency=N)``): the
extractor (regex compilation, gazetteer frozensets) is built once per
actor.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..config import KGConfig
from ..functions.entities import PatternEntityExtractor, relationship_columns

COMBINED_SCHEMA = pa.schema([
    ("kind", pa.string()),           # "e" | "t"
    ("chunk_id", pa.string()),
    ("doc_id", pa.string()),
    ("entity_id", pa.string()),      # e-rows
    ("name", pa.string()),
    ("type", pa.string()),
    ("conf", pa.float32()),
    ("mention_count", pa.int64()),
    ("subj", pa.string()),           # t-rows
    ("pred", pa.string()),
    ("obj", pa.string()),
])


class ExtractKG:
    def __init__(self, cfg: KGConfig | None = None):
        cfg = cfg or KGConfig()
        self.cfg = cfg
        self.extractor = PatternEntityExtractor(
            min_confidence=cfg.min_confidence,
            entity_types=cfg.entity_types,
            allowed_patterns=cfg.allowed_patterns,
            excluded_patterns=cfg.excluded_patterns,
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        chunk_ids = batch.column("chunk_id").to_pylist()
        doc_ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()

        kind, c_cid, c_did = [], [], []
        eid, name, etype, conf, mcount = [], [], [], [], []
        subj, pred, obj = [], [], []

        rel_conf = cfg.relationship_confidence
        for chunk_id, doc_id, text in zip(chunk_ids, doc_ids, texts):
            try:
                entities = self.extractor.extract(text or "")
                r_subs, r_preds, r_objs = relationship_columns(
                    entities, text or "")
            except Exception as ex:  # noqa: BLE001 — poison-pill row routing
                # SURVEY §4: a bad row must not fail the run; emit an error
                # row ("x") so failures are countable downstream.
                kind.append("x"); c_cid.append(chunk_id); c_did.append(doc_id)
                eid.append(None); name.append(str(ex)[:200]); etype.append(None)
                conf.append(0.0); mcount.append(0)
                subj.append(None); pred.append(None); obj.append(None)
                continue
            # bulk C-level extends: a chunk emits k entity rows + O(k²)
            # triple rows; per-row .append() across 11 columns dominated
            # this stage's assembly time at ~75 rows/chunk
            ne, nr = len(entities), len(r_subs)
            if ne:
                kind.extend("e" * ne)
                c_cid.extend([chunk_id] * ne); c_did.extend([doc_id] * ne)
                eid.extend([e.entity_id for e in entities])
                name.extend([e.name for e in entities])
                etype.extend([e.entity_type for e in entities])
                conf.extend([e.confidence for e in entities])
                mcount.extend([len(e.mentions) for e in entities])
                subj.extend([None] * ne); pred.extend([None] * ne)
                obj.extend([None] * ne)
            if nr:
                kind.extend("t" * nr)
                c_cid.extend([chunk_id] * nr); c_did.extend([doc_id] * nr)
                eid.extend([None] * nr); name.extend([None] * nr)
                etype.extend([None] * nr)
                conf.extend([rel_conf] * nr); mcount.extend([0] * nr)
                subj.extend(r_subs); pred.extend(r_preds)
                obj.extend(r_objs)

        return pa.table({
            "kind": pa.array(kind, pa.string()),
            "chunk_id": pa.array(c_cid, pa.string()),
            "doc_id": pa.array(c_did, pa.string()),
            "entity_id": pa.array(eid, pa.string()),
            "name": pa.array(name, pa.string()),
            "type": pa.array(etype, pa.string()),
            "conf": pa.array(conf, pa.float32()),
            "mention_count": pa.array(mcount, pa.int64()),
            "subj": pa.array(subj, pa.string()),
            "pred": pa.array(pred, pa.string()),
            "obj": pa.array(obj, pa.string()),
        })


# Per-worker-process extractor cache: Ray tasks run in long-lived worker
# processes, so this gives "state loaded once per worker" (gazetteers are
# module constants; the instance is memoized per config) WITHOUT an actor
# pool — stateless tasks scale elastically and can't starve other stages.
_EXTRACTOR_CACHE: dict = {}


def make_extract_fn(cfg: KGConfig | None = None):
    cfg = cfg or KGConfig()
    key = (cfg.min_confidence, cfg.entity_types, cfg.allowed_patterns,
           cfg.excluded_patterns, cfg.relationship_confidence)

    def extract_fn(batch: pa.Table) -> pa.Table:
        stage = _EXTRACTOR_CACHE.get(key)
        if stage is None:
            stage = ExtractKG(cfg)
            _EXTRACTOR_CACHE[key] = stage
        return stage(batch)

    return extract_fn


def entities_only(batch: pa.Table) -> pa.Table:
    t = batch.filter(pc.equal(batch.column("kind"), "e"))
    return t.select(["chunk_id", "doc_id", "entity_id", "name", "type", "conf", "mention_count"])


def triples_only(batch: pa.Table) -> pa.Table:
    t = batch.filter(pc.equal(batch.column("kind"), "t"))
    return t.select(["chunk_id", "doc_id", "subj", "pred", "obj", "conf"])
