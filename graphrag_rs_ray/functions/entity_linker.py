"""Cross-document entity linking — port of
``graphrag-core/src/corpus/entity_linker.rs`` (exact / fuzzy /
semantic / LMCD / hybrid linking strategies over per-document entity
lists, cluster construction, linking statistics).

Semantics pinned (exact clusters + all cluster/stat arithmetic are
re-derived by the DuckDB oracle; the greedy fuzzy pass is
order-sequential → its assignments are staged, unit-gated):

- String similarity (``:424-438``): 1 − levenshtein(chars) /
  max(BYTE lengths) — the same char-distance/byte-maxlen mix as the
  ROGRAG fuzzy matcher (ASCII-equal here).  The distance comes from
  ``functions/similarity.py``: its full DP for the value, its bounded
  kernel for the greedy and LMCD passes, which only compare the value
  with a threshold.
- exact_match_linking (``:159-192``): group by exact name; EVERY name
  gets a cluster (singletons too); exact_matches += size − 1.
- fuzzy_match_linking (``:194-249``): greedy seed pass in list order
  (star clusters); similarity ≥ threshold; confidence = threshold;
  document_frequency HARDCODED 1 (quirk); aliases empty; sequential
  cluster ids.
- semantic_similarity_linking (``:251-261``): the reference's own
  fallback = fuzzy at threshold·0.8, counts moved to
  semantic_matches.
- lmcd_clustering (``:263-329``): first-seen exact keys, except an
  entity whose name is > 0.9-similar to an EXISTING key is deferred to
  a singleton pool; key clusters get confidence threshold + 0.1,
  singletons threshold − 0.1.
- hybrid_linking (``:330-375``): same-name groups of > 1 → exact
  clusters (confidence 1.0, doc_freq = size, aliases [name]);
  singletons fall through to fuzzy at 0.85.
- select_canonical_name (``:441-456``): most frequent name, then
  longest; the reference's final tie is HashMap order — we break by
  lexicographically-greatest name (documented).
- infer_entity_type (``:459-473``): company/corp/inc → organization;
  else uppercase-first single word → person; else city/country →
  location; else other (rule ORDER pinned).
- Stats (``:476-487``): accuracy = (exact + fuzzy + semantic) /
  processed.
- Cluster ids: the reference uses uuid4 — replaced by deterministic
  ids (``exact:<name>`` / ``<kind>_<counter>`` over sorted input),
  documented deviation.
"""

from __future__ import annotations

from .similarity import levenshtein_bounded, levenshtein_distance


def string_similarity(s1: str, s2: str) -> float:
    """1 − char-distance / byte-maxlen (``entity_linker.rs:424-438``)."""
    if s1 == s2:
        return 1.0
    max_len = max(len(s1.encode()), len(s2.encode()))
    if max_len == 0:
        return 1.0
    return 1.0 - levenshtein_distance(s1, s2) / max_len


def _banded_similarity(s1: str, s2: str, t: float) -> float:
    """``string_similarity(s1, s2)`` through the bounded kernel, for the
    linking passes that only compare it with ``t``.  Any distance with
    ``1 - dist/max_len >= t`` is at most ``(1 - t)·max_len``, so the
    integer ``cap`` over-bounds every distance that can reach ``t``:
    within it the value is the exact one, past it the kernel's
    ``cap + 1`` gives a value at least ``2/max_len`` below ``t``, as the
    true one is — both ``>= t`` and ``> t`` decide as on the full DP
    (property-gated in ``tests/test_oracle_replay_properties.py``)."""
    if s1 == s2:
        return 1.0
    max_len = max(len(s1.encode()), len(s2.encode()))
    cap = int((1.0 - t) * max_len) + 2
    return 1.0 - levenshtein_bounded(s1, s2, cap) / max_len


def similar_at_least(s1: str, s2: str, t: float) -> bool:
    """EXACT decision ``string_similarity(s1, s2) >= t``."""
    return _banded_similarity(s1, s2, t) >= t


def similar_strictly_above(s1: str, s2: str, t: float) -> bool:
    """EXACT decision ``string_similarity(s1, s2) > t``."""
    return _banded_similarity(s1, s2, t) > t


def infer_entity_type(name: str) -> str:
    low = name.lower()
    if "company" in low or "corp" in low or "inc" in low:
        return "organization"
    first = name[0] if name else "a"
    if first.isupper() and " " not in name:
        return "person"
    if "city" in low or "country" in low:
        return "location"
    return "other"


def select_canonical_name(names: list[str]) -> str:
    counts: dict[str, int] = {}
    for n in names:
        counts[n] = counts.get(n, 0) + 1
    return max(counts, key=lambda n: (counts[n], len(n), n))


def _cluster(cid, kind, canonical, members, conf, doc_freq, aliases):
    return {"cluster_id": cid, "kind": kind, "canonical_name": canonical,
            "entity_type": infer_entity_type(canonical),
            "members": members, "confidence_score": conf,
            "document_frequency": doc_freq, "aliases": aliases}


def exact_match_linking(entities: list[dict]):
    """``entity_linker.rs:159-192``; entities carry doc_id /
    local_entity_id / name."""
    groups: dict[str, list[dict]] = {}
    for e in entities:
        groups.setdefault(e["name"], []).append(e)
    clusters, exact_matches = [], 0
    for name in sorted(groups):
        g = groups[name]
        if len(g) > 1:
            exact_matches += len(g) - 1
        clusters.append(_cluster(f"exact:{name}", "exact", name, g, 1.0,
                                 len(g), [name]))
    return clusters, exact_matches


def _fuzzy_match_linking_naive(entities: list[dict], threshold: float,
                               kind: str = "fuzzy", counter_start: int = 0):
    """``entity_linker.rs:194-249`` greedy star pass in input order —
    the direct port, kept as the equality gate for the vectorized
    production pass below."""
    unprocessed = list(entities)
    clusters, matches, counter = [], 0, counter_start
    while unprocessed:
        seed = unprocessed.pop(0)
        members = [seed]
        rest = []
        for e in unprocessed:
            if similar_at_least(seed["name"], e["name"], threshold):
                members.append(e)
                matches += 1
            else:
                rest.append(e)
        unprocessed = rest
        canonical = select_canonical_name([m["name"] for m in members])
        clusters.append(_cluster(f"{kind}_{counter}", kind, canonical,
                                 members, threshold, 1, []))
        counter += 1
    return clusters, matches


_BAG_BUCKETS = 16


def _batched_levenshtein(seed_codes, n_seed: int, cand_codes, cand_lens):
    """Exact char Levenshtein of one seed against a (c, M) padded
    char-code matrix, vectorized across candidates.  The in-row
    dependency ``cur[j] = min(base[j], cur[j-1]+1)`` is solved closed
    form as a prefix-min over ``base[j]-j`` (insertions propagate +1
    per column), so each DP row is one numpy pass.  Padding codes are
    negative (never match); garbage beyond each candidate's length
    never flows left, and the result is gathered at column
    ``cand_lens``."""
    import numpy as np
    c, M = cand_codes.shape
    ar = np.arange(M + 1, dtype=np.int32)
    prev = np.tile(ar, (c, 1))
    for i in range(1, n_seed + 1):
        sub = prev[:, :-1] + (cand_codes != seed_codes[i - 1])
        dele = prev[:, 1:] + 1
        base = np.minimum(sub, dele)
        full = np.concatenate(
            [np.full((c, 1), i, np.int32), base], axis=1)
        adj = full - ar
        np.minimum.accumulate(adj, axis=1, out=adj)
        prev = adj + ar
    return prev[np.arange(c), cand_lens]


def fuzzy_match_linking(entities: list[dict], threshold: float,
                        kind: str = "fuzzy", counter_start: int = 0):
    """``entity_linker.rs:194-249`` greedy star pass in input order.

    IDENTICAL decisions to ``_fuzzy_match_linking_naive`` (equality
    property-gated), but the O(k²) per-pair Python loop is replaced by
    two vectorized EXACT lower-bound prefilters per seed, so the batched
    DP runs only on plausible pairs:

    * char-length band — ``dist >= |len(a) - len(b)|`` always, the same
      O(1) reject ``levenshtein_bounded`` does, batched in numpy;
    * bucketed character-bag L1 — each edit changes the char multiset by
      at most 2, so ``dist >= L1/2``; projecting chars into
      ``_BAG_BUCKETS`` buckets only shrinks L1 (bucket-merging is a
      contraction), so ``L1_proj > 2·cap ⇒ dist > cap ⇒ reject`` is
      exact for any unicode input.

    Survivors get their EXACT char Levenshtein from the batched DP and
    the ORIGINAL decision expression ``1.0 - dist/max_byte_len >= t``
    (IEEE f64, identical in numpy and CPython) decides — the same value
    ``string_similarity`` computes."""
    n = len(entities)
    if n <= 1:
        return _fuzzy_match_linking_naive(entities, threshold, kind,
                                          counter_start)
    import numpy as np

    names = [e["name"] for e in entities]
    clen = np.array([len(s) for s in names], np.int64)
    blen = np.array([len(s.encode()) for s in names], np.int64)
    bag = np.zeros((n, _BAG_BUCKETS), np.int16)
    for i, s in enumerate(names):
        for ch in s:
            bag[i, ord(ch) % _BAG_BUCKETS] += 1
    lmax = max(1, int(clen.max()))
    codes = np.full((n, lmax), -1, np.int32)
    for i, s in enumerate(names):
        if s:
            codes[i, :len(s)] = np.frombuffer(
                s.encode("utf-32-le"), np.uint32).astype(np.int32)

    alive = np.ones(n, bool)
    clusters, matches, counter = [], 0, counter_start
    for i in range(n):
        if not alive[i]:
            continue
        alive[i] = False
        members = [entities[i]]
        idx = np.nonzero(alive)[0]          # all still-unprocessed follow i
        if idx.size:
            # per-pair cap: int((1-t)*max(blen)) + 2, bit-exact
            cap = (np.trunc((1.0 - threshold)
                            * np.maximum(blen[idx], blen[i]))
                   .astype(np.int64) + 2)
            feas = np.abs(clen[idx] - clen[i]) <= cap
            if feas.any():
                sub = idx[feas]
                l1 = np.abs(bag[sub].astype(np.int32)
                            - bag[i].astype(np.int32)).sum(axis=1)
                sub = sub[l1 <= 2 * cap[feas]]
                if sub.size:
                    cl = clen[sub]
                    m_w = max(1, int(cl.max()))
                    dist = _batched_levenshtein(
                        codes[i], int(clen[i]), codes[sub, :m_w],
                        cl.astype(np.int64))
                    maxb = np.maximum(blen[sub], blen[i])
                    ok = np.where(
                        maxb > 0,
                        1.0 - dist / np.maximum(maxb, 1) >= threshold,
                        True)
                    for j in sub[ok]:
                        members.append(entities[j])
                        alive[j] = False
                        matches += 1
        canonical = select_canonical_name([m["name"] for m in members])
        clusters.append(_cluster(f"{kind}_{counter}", kind, canonical,
                                 members, threshold, 1, []))
        counter += 1
    return clusters, matches


def lmcd_clustering(entities: list[dict], confidence_threshold: float):
    """``entity_linker.rs:263-329``."""
    exact: dict[str, list[dict]] = {}
    key_order: list[str] = []
    remaining = []
    for e in entities:
        if e["name"] in exact:
            exact[e["name"]].append(e)
            continue
        similar = any(similar_strictly_above(k, e["name"], 0.9)
                      for k in key_order)
        if not similar:
            exact[e["name"]] = [e]
            key_order.append(e["name"])
        else:
            remaining.append(e)
    clusters = []
    for i, name in enumerate(key_order):
        clusters.append(_cluster(f"lmcd_cluster_{i}", "lmcd", name,
                                 exact[name],
                                 confidence_threshold + 0.1, 1, []))
    for i, e in enumerate(remaining):
        clusters.append(_cluster(f"lmcd_singleton_{i}", "lmcd_singleton",
                                 e["name"], [e],
                                 confidence_threshold - 0.1, 1, []))
    return clusters, len(key_order)


def hybrid_linking(entities: list[dict]):
    """``entity_linker.rs:330-375``: exact multi-groups then fuzzy 0.85
    over the singletons (singletons kept in input order)."""
    groups: dict[str, list[dict]] = {}
    order: list[str] = []
    for e in entities:
        if e["name"] not in groups:
            order.append(e["name"])
        groups.setdefault(e["name"], []).append(e)
    clusters, exact_matches = [], 0
    singles = []
    for name in order:
        g = groups[name]
        if len(g) > 1:
            clusters.append(_cluster(f"exact:{name}", "exact", name, g,
                                     1.0, len(g), [name]))
            exact_matches += len(g) - 1
        else:
            singles.extend(g)
    fuzzy, fuzzy_matches = fuzzy_match_linking(singles, 0.85)
    return clusters + fuzzy, exact_matches, fuzzy_matches


def link_entities(entities: list[dict], strategy: str = "hybrid",
                  threshold: float = 0.85):
    """Strategy dispatch (``entity_linker.rs:113-156``) → (clusters,
    stats dict)."""
    stats = {"entities_processed": len(entities), "clusters_created": 0,
             "exact_matches": 0, "fuzzy_matches": 0,
             "semantic_matches": 0, "lmcd_clusters": 0,
             "disambiguation_conflicts": 0, "linking_accuracy": 0.0}
    if strategy == "exact":
        clusters, stats["exact_matches"] = exact_match_linking(entities)
    elif strategy == "fuzzy":
        clusters, stats["fuzzy_matches"] = fuzzy_match_linking(
            entities, threshold)
    elif strategy == "semantic":
        clusters, stats["semantic_matches"] = fuzzy_match_linking(
            entities, threshold * 0.8, kind="semantic")
    elif strategy == "lmcd":
        clusters, stats["lmcd_clusters"] = lmcd_clustering(
            entities, threshold)
    elif strategy == "hybrid":
        clusters, em, fm = hybrid_linking(entities)
        stats["exact_matches"], stats["fuzzy_matches"] = em, fm
    else:
        raise ValueError(strategy)
    stats["clusters_created"] = len(clusters)
    if stats["entities_processed"]:
        linked = (stats["exact_matches"] + stats["fuzzy_matches"]
                  + stats["semantic_matches"])
        stats["linking_accuracy"] = linked / stats["entities_processed"]
    return clusters, stats


def _as_string_array(col) -> "object":
    """Python list / numpy array / pyarrow (Chunked)Array → one
    contiguous ``pyarrow.StringArray`` (the linker's internal currency —
    per-row Python objects are never materialized for the exact tier)."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    if isinstance(col, pa.Array):
        return col
    return pa.array(list(col), pa.string())


def hybrid_linking_columnar(doc_ids, local_ids, names):
    """Columnar twin of ``link_entities(..., "hybrid")`` over parallel
    columns (rows pre-sorted by the caller; each column a Python list
    OR a pyarrow array), for corpus-scale inputs: only ``name`` drives
    the hybrid logic, so the exact tier runs entirely on Arrow
    dictionary codes + numpy (no per-row Python objects), and dicts are
    built ONLY for the (small) singleton set that reaches the greedy
    fuzzy pass.  Decisions are identical to ``hybrid_linking`` —
    equality-gated in tests/test_entity_linker.py.

    Returns ``(cluster_cols, asg_cols, stats)``:

    - ``cluster_cols``: dict of parallel Python lists — cluster_id,
      kind, canonical_name, entity_type, n_members, confidence_score,
      document_frequency, aliases (comma-joined) — exact clusters in
      first-seen-name order then fuzzy clusters, the same order
      ``hybrid_linking`` emits.
    - ``asg_cols``: dict of parallel **pyarrow ChunkedArrays** —
      doc_id, local_entity_id, cluster_id, kind (string), member_idx
      (int64); member order = input order within each cluster, as the
      sequential pass produces.  Feed them straight into ``pa.table``.
    - ``stats``: the ``link_entities`` stats dict.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    names_a = _as_string_array(names)
    doc_a = _as_string_array(doc_ids)
    loc_a = _as_string_array(local_ids)
    n = len(names_a)

    # dictionary_encode's dictionary is in first-occurrence order — the
    # same order the sequential exact tier emits clusters in
    enc = pc.dictionary_encode(names_a)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniq = enc.dictionary
    counts = np.bincount(codes, minlength=len(uniq))
    multi = counts[codes] > 1 if n else np.zeros(0, dtype=bool)

    # member_idx = cumcount within each name, vectorized: stable-sort
    # the codes, number positions within each run, scatter back
    order = np.argsort(codes, kind="stable")
    sc = codes[order]
    run_starts = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]]) if n else \
        np.zeros(0, dtype=np.int64)
    run_lens = np.diff(np.r_[run_starts, n])
    member_idx = np.empty(n, dtype=np.int64)
    member_idx[order] = np.arange(n, dtype=np.int64) - np.repeat(
        run_starts, run_lens)

    # exact tier: every name with >1 occurrences, dictionary order ==
    # first-seen order; Python strings materialize only per UNIQUE name
    multi_codes = np.flatnonzero(counts > 1)
    multi_names = uniq.take(pa.array(multi_codes, pa.int64())).to_pylist()
    msizes = [int(c) for c in counts[multi_codes]]
    cluster_cols = {
        "cluster_id": [f"exact:{m}" for m in multi_names],
        "kind": ["exact"] * len(multi_names),
        "canonical_name": list(multi_names),
        "entity_type": [infer_entity_type(m) for m in multi_names],
        "n_members": msizes,
        "confidence_score": [1.0] * len(multi_names),
        "document_frequency": list(msizes),
        "aliases": list(multi_names),       # aliases == [name], joined
    }
    n_multi = int(multi.sum())
    exact_matches = n_multi - len(multi_names)

    # exact-tier assignments, Arrow all the way: cluster_id per row =
    # take from the per-unique-name id table by dictionary code
    cid_pos = np.full(len(uniq), -1, dtype=np.int64)
    cid_pos[multi_codes] = np.arange(len(multi_codes))
    cid_by_cluster = pa.array(cluster_cols["cluster_id"], pa.string())
    multi_pa = pa.array(multi)
    exact_asg = {
        "doc_id": doc_a.filter(multi_pa),
        "local_entity_id": loc_a.filter(multi_pa),
        "cluster_id": cid_by_cluster.take(
            pa.array(cid_pos[codes[multi]], pa.int64())),
        "kind": pa.DictionaryArray.from_arrays(
            pa.array(np.zeros(n_multi, dtype=np.int32)),
            pa.array(["exact"], pa.string())).cast(pa.string()),
        "member_idx": pa.array(member_idx[multi], pa.int64()),
    }

    # singleton fall-through: the greedy star pass is order-sequential —
    # dicts built only for this (small) set, in input order
    single_pa = pa.array(~multi)
    s_doc = doc_a.filter(single_pa).to_pylist()
    s_loc = loc_a.filter(single_pa).to_pylist()
    s_name = names_a.filter(single_pa).to_pylist()
    singles = [{"doc_id": d, "local_entity_id": l, "name": m}
               for d, l, m in zip(s_doc, s_loc, s_name)]
    fuzzy, fuzzy_matches = fuzzy_match_linking(singles, 0.85)
    f_asg = {"doc_id": [], "local_entity_id": [], "cluster_id": [],
             "kind": [], "member_idx": []}
    for c in fuzzy:
        cluster_cols["cluster_id"].append(c["cluster_id"])
        cluster_cols["kind"].append(c["kind"])
        cluster_cols["canonical_name"].append(c["canonical_name"])
        cluster_cols["entity_type"].append(c["entity_type"])
        cluster_cols["n_members"].append(len(c["members"]))
        cluster_cols["confidence_score"].append(c["confidence_score"])
        cluster_cols["document_frequency"].append(c["document_frequency"])
        cluster_cols["aliases"].append(",".join(c["aliases"]))
        members = c["members"]
        f_asg["doc_id"].extend([m["doc_id"] for m in members])
        f_asg["local_entity_id"].extend(
            [m["local_entity_id"] for m in members])
        f_asg["cluster_id"].extend([c["cluster_id"]] * len(members))
        f_asg["kind"].extend([c["kind"]] * len(members))
        f_asg["member_idx"].extend(range(len(members)))

    asg_cols = {
        k: pa.chunked_array([exact_asg[k], pa.array(
            f_asg[k], pa.int64() if k == "member_idx" else pa.string())])
        for k in exact_asg
    }

    n_clusters = len(cluster_cols["cluster_id"])
    stats = {"entities_processed": n, "clusters_created": n_clusters,
             "exact_matches": exact_matches, "fuzzy_matches": fuzzy_matches,
             "semantic_matches": 0, "lmcd_clusters": 0,
             "disambiguation_conflicts": 0,
             "linking_accuracy": ((exact_matches + fuzzy_matches) / n
                                  if n else 0.0)}
    return cluster_cols, asg_cols, stats
