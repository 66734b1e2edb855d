"""Single-process, no-Ray reference for the KG-indexing path, and the
per-trial correctness gate.

The reference runs the same ``functions/`` kernels the pipeline composes
(``extract_page_text`` → ``chunk_text`` → ``PatternEntityExtractor`` /
``relationship_columns``) and folds their rows with plain dicts instead
of Ray exchanges.  The gate compares a written graph (``entities/`` and
``triples/shard=K/``) with it: exact entity records, and triple
precision/recall over ``(subj, pred, obj, n_contexts)``.

With fuzzy linking the expected link map is the blocked greedy clustering
of the reference's exact-tier entities (``greedy_cluster``, whose output
the package's tests pin to ``greedy_cluster_reference``), and sampled
blocks are replayed through ``greedy_cluster_reference`` itself.
"""

from __future__ import annotations

import glob
import json
import os
import random
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


@dataclass
class Reference:
    # (entity_id, name, type) -> [conf, mentions, name_count]
    names: dict = field(default_factory=dict)
    # (subj, pred, obj) -> occurrence count
    triples: dict = field(default_factory=dict)
    error_rows: int = 0


def extract(pages: pa.Table, cfg) -> Reference:
    from graphrag_rs_ray.functions.chunking import chunk_text
    from graphrag_rs_ray.functions.entities import (PatternEntityExtractor,
                                                    relationship_columns)
    from graphrag_rs_ray.functions.html import extract_page_text

    ex = PatternEntityExtractor(min_confidence=cfg.min_confidence,
                                entity_types=cfg.entity_types,
                                allowed_patterns=cfg.allowed_patterns,
                                excluded_patterns=cfg.excluded_patterns)
    ref = Reference()
    for html, text in zip(pages.column("html").to_pylist(),
                          pages.column("text").to_pylist()):
        doc = extract_page_text(html, text)
        if not doc:
            continue
        for content, _s, _e in chunk_text(doc, cfg.chunk_size,
                                          cfg.chunk_overlap,
                                          cfg.min_chunk_size):
            try:
                ents = ex.extract(content)
                subs, preds, objs = relationship_columns(ents, content)
            except Exception:  # noqa: BLE001 — mirrors the stage's "x" rows
                ref.error_rows += 1
                continue
            for e in ents:
                key = (e.entity_id, e.name, e.entity_type)
                conf = float(np.float32(e.confidence))
                rec = ref.names.get(key)
                if rec is None:
                    ref.names[key] = [conf, len(e.mentions), 1]
                else:
                    rec[0] = max(rec[0], conf)
                    rec[1] += len(e.mentions)
                    rec[2] += 1
            for t in zip(subs, preds, objs):
                ref.triples[t] = ref.triples.get(t, 0) + 1
    return ref


def merge_entities(names: dict) -> dict:
    """(entity_id, name, type) -> [conf, mentions, name_count] rows into
    final entities {entity_id: (name, type, conf, mentions)} with the
    exact tier's canonical-name vote: most votes, then longest, then
    lexicographically largest."""
    best: dict = {}
    totals: dict = {}
    for (eid, name, etype), (conf, mentions, votes) in names.items():
        t = totals.get(eid)
        totals[eid] = ((etype, conf, mentions) if t is None else
                       (t[0], max(t[1], conf), t[2] + mentions))
        rank = (votes, len(name), name)
        if eid not in best or rank > best[eid][0]:
            best[eid] = (rank, name)
    return {eid: (best[eid][1], t[0], t[1], t[2])
            for eid, t in totals.items()}


def block_key(name: str, etype: str) -> str:
    from graphrag_rs_ray.functions.similarity import soundex
    return f"{etype}|{soundex((name or '').split(' ', 1)[0])}"


def expected_links(entities: dict, cfg, seed: int,
                   sample_blocks: int = 20) -> tuple[dict, int]:
    """Blocked greedy links over exact-tier ``entities``; returns (links,
    number of sampled blocks whose ``greedy_cluster_reference`` replay
    disagrees with ``greedy_cluster``)."""
    from graphrag_rs_ray.functions.similarity import (LinkingConfig,
                                                      greedy_cluster,
                                                      greedy_cluster_reference)
    lcfg = LinkingConfig(min_similarity=cfg.min_similarity,
                         use_phonetic=cfg.use_phonetic)
    blocks: dict = {}
    for eid, (name, etype, conf, _m) in entities.items():
        blocks.setdefault(block_key(name, etype), []).append(
            (eid, name, np.float32(conf)))
    links: dict = {}
    for items in blocks.values():
        links.update(greedy_cluster(items, lcfg))
    multi = sorted(k for k, v in blocks.items() if 1 < len(v) <= 300)
    sample = random.Random(seed).sample(multi, min(sample_blocks, len(multi)))
    bad = 0
    for k in sample:
        ids = {e for e, _, _ in blocks[k]}
        if greedy_cluster_reference(blocks[k], lcfg) != {
                s: d for s, d in links.items() if s in ids}:
            bad += 1
    return links, bad


def expected_graph(ref: Reference, links: dict) -> tuple[dict, dict]:
    """Final (entities, triples) after remapping through ``links``: the
    link-free case is ``links == {}``."""
    entities = merge_entities(ref.names)
    if links:
        remapped: dict = {}
        for eid, (name, etype, conf, mentions) in entities.items():
            key = (links.get(eid, eid), name, etype)
            rec = remapped.get(key)
            if rec is None:
                remapped[key] = [conf, mentions, mentions]
            else:
                rec[0] = max(rec[0], conf)
                rec[1] += mentions
                rec[2] += mentions
        entities = merge_entities(remapped)
    triples: dict = {}
    for (s, p, o), n in ref.triples.items():
        key = (links.get(s, s), p, links.get(o, o))
        triples[key] = triples.get(key, 0) + n
    return entities, triples


# ---- cache form -------------------------------------------------------------

def save(ref: Reference, path: str) -> None:
    names = list(ref.names.items())
    tri = list(ref.triples.items())
    os.makedirs(path, exist_ok=True)
    pq.write_table(pa.table({
        "entity_id": [k[0] for k, _ in names], "name": [k[1] for k, _ in names],
        "type": [k[2] for k, _ in names], "conf": [v[0] for _, v in names],
        "mentions": [v[1] for _, v in names], "votes": [v[2] for _, v in names],
    }), os.path.join(path, "names.parquet"))
    pq.write_table(pa.table({
        "subj": [k[0] for k, _ in tri], "pred": [k[1] for k, _ in tri],
        "obj": [k[2] for k, _ in tri], "n": [v for _, v in tri],
    }), os.path.join(path, "triples.parquet"))
    with open(os.path.join(path, "meta.json"), "w") as f:
        json.dump({"error_rows": ref.error_rows}, f)


def load(path: str) -> Reference:
    n = pq.read_table(os.path.join(path, "names.parquet")).to_pydict()
    t = pq.read_table(os.path.join(path, "triples.parquet")).to_pydict()
    with open(os.path.join(path, "meta.json")) as f:
        ref = Reference(error_rows=json.load(f)["error_rows"])
    ref.names = {(e, nm, ty): [c, m, v] for e, nm, ty, c, m, v in zip(
        n["entity_id"], n["name"], n["type"], n["conf"], n["mentions"],
        n["votes"])}
    ref.triples = {(s, p, o): c for s, p, o, c in zip(
        t["subj"], t["pred"], t["obj"], t["n"])}
    return ref


KERNELS = ("functions/html.py", "functions/chunking.py",
           "functions/entities.py", "functions/similarity.py")


def source_hash(*relpaths: str) -> str:
    """Hash of ``graphrag_rs_ray`` source files: cached data derived from
    them is reused only while they are unchanged."""
    import hashlib

    import graphrag_rs_ray
    root = os.path.dirname(graphrag_rs_ray.__file__)
    h = hashlib.sha256()
    for rel in relpaths:
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


# ---- gate -------------------------------------------------------------------

@dataclass
class Verdict:
    triple_precision: float
    triple_recall: float
    entity_mismatches: int

    @property
    def ok(self) -> bool:
        return (self.triple_precision == 1.0 and self.triple_recall == 1.0
                and self.entity_mismatches == 0)


def read_graph(out_dir: str, num_shards: int) -> tuple[dict, list]:
    """Written entities {entity_id: (name, type, conf, mentions)} (a
    duplicated id maps to None) and triple rows (s, p, o, n, in_shard)."""
    from graphrag_rs_ray.pipelines.kg import hash_subj
    entities: dict = {}
    for f in sorted(glob.glob(os.path.join(out_dir, "entities", "*.parquet"))):
        d = pq.read_table(f).to_pydict()
        for eid, name, ty, conf, m in zip(d["entity_id"], d["name"],
                                          d["type"], d["conf"],
                                          d["mention_count"]):
            entities[eid] = None if eid in entities else (name, ty, conf, m)
    rows = []
    for k in range(num_shards):
        for f in sorted(glob.glob(os.path.join(out_dir, "triples",
                                               f"shard={k}", "*.parquet"))):
            d = pq.read_table(f, columns=["subj", "pred", "obj",
                                          "n_contexts"]).to_pydict()
            rows.extend((s, p, o, n, hash_subj(s, num_shards) == k)
                        for s, p, o, n in zip(d["subj"], d["pred"], d["obj"],
                                              d["n_contexts"]))
    return entities, rows


def check(out_dir: str, num_shards: int, entities: dict,
          triples: dict) -> Verdict:
    got_e, rows = read_graph(out_dir, num_shards)
    mismatches = len(set(got_e) ^ set(entities))
    # a duplicated id reads as None, which matches no expected record
    mismatches += sum(got_e[eid] != want for eid, want in entities.items()
                      if eid in got_e)
    want_t = {(s, p, o, n) for (s, p, o), n in triples.items()}
    got_t = {r[:4] for r in rows if r[4]}
    hit = len(got_t & want_t)
    # duplicates and rows in the wrong shard count against precision
    return Verdict(triple_precision=hit / len(rows) if rows else 1.0,
                   triple_recall=hit / len(want_t) if want_t else 1.0,
                   entity_mismatches=mismatches)
