"""String-similarity entity linking — port of
``graphrag-core/src/entity/string_similarity_linker.rs`` (deterministic
multi-metric linking: capped Levenshtein, Jaro-Winkler, token Jaccard,
exact-after-normalization, optional Soundex phonetic tier).

Semantics pinned (every metric + the max-combination + the threshold
gate are re-derived by the DuckDB oracle; the greedy cluster pass is
order-sequential → its assignments are staged, unit-gated):

- ``normalize_string`` (``:169-188``): optional lowercase, keep
  alphanumeric/whitespace chars only, collapse whitespace to single
  spaces.
- ``levenshtein_similarity`` (``:190-204``): distance over CHARS; 0.0
  when distance > max_edit_distance (default 2); else
  1 − dist / max(BYTE lengths) — the same char-distance/byte-maxlen mix
  as ``corpus/entity_linker.rs`` (ASCII-equal).
- ``jaro_similarity`` (``:262-326``): textbook Jaro — match window
  ⌊max(l1,l2)/2⌋−1 (saturating), greedy first-free match scan,
  transpositions over matched chars vs ascending matched positions.
  NOT DuckDB's ``jaro_similarity`` (different matcher — measured
  mismatches), so the oracle replays this algorithm with a recursive
  CTE carrying a HUGEINT used-position bitmask (names must stay under
  ~120 chars; the bounded query inputs do).
- ``jaro_winkler_similarity`` (``:246-260``): prefix bonus
  jaro + p·0.1·(1−jaro) applied UNCONDITIONALLY (no 0.7 boost
  threshold — another reason DuckDB's builtin can't be the oracle),
  prefix = common chars in the first min(4, zip) positions.
- ``jaccard_similarity`` (``:328-345``): whitespace-token SETS;
  both-empty → 1.0.
- ``soundex`` (``:347-395``): THIS file's own variant — vowels /
  ignored chars do NOT reset ``prev_code`` (unlike classic Soundex and
  unlike ``functions/similarity.py``); first char kept only if
  alphabetic while ``prev_code`` still seeds from it; length-4
  zero-padded.  ``phonetic_similarity``: equal codes → 0.9 else 0.0.
- ``compute_similarity`` (``:129-167``): cross-type → 0.0; exact
  normalized match → 1.0; else max over [levenshtein (if
  fuzzy_matching), jaro_winkler, jaccard, phonetic (if use_phonetic)]
  folded from 0.0.  The reference computes in f32; this port uses f64
  with mirrored op shapes (documented repo-wide deviation).
- ``link_entities`` (``:66-126``): greedy seed-vs-candidate star pass
  in input order (NOT transitive closure); clusters of size > 1 only;
  canonical member = max confidence with LAST-maximal ties (Rust
  ``Iterator::max_by``); links = member_id → canonical_id.
- ``min_jaccard_overlap`` exists in the reference config but is never
  read by any code path — carried, unused, documented.
"""

from __future__ import annotations

from dataclasses import dataclass

from .entity_linker import levenshtein_chars


@dataclass
class LinkerConfig:
    """``EntityLinkingConfig`` defaults (``:40-52``)."""
    min_similarity: float = 0.85
    case_insensitive: bool = True
    remove_punctuation: bool = True
    use_phonetic: bool = False
    min_jaccard_overlap: float = 0.6   # unused in the reference too
    max_edit_distance: int = 2
    fuzzy_matching: bool = True


def normalize_string(s: str, cfg: LinkerConfig = LinkerConfig()) -> str:
    if cfg.case_insensitive:
        s = s.lower()
    if cfg.remove_punctuation:
        s = "".join(c for c in s if c.isalnum() or c.isspace())
    return " ".join(s.split())


def levenshtein_similarity(s1: str, s2: str,
                           cfg: LinkerConfig = LinkerConfig()) -> float:
    dist = levenshtein_chars(s1, s2)
    if dist > cfg.max_edit_distance:
        return 0.0
    max_len = max(len(s1.encode()), len(s2.encode()))
    if max_len == 0:
        return 1.0
    return 1.0 - dist / max_len


def jaro_similarity(s1: str, s2: str) -> float:
    c1, c2 = list(s1), list(s2)
    l1, l2 = len(c1), len(c2)
    if l1 == 0 and l2 == 0:
        return 1.0
    if l1 == 0 or l2 == 0:
        return 0.0
    md = max(max(l1, l2) // 2 - 1, 0)
    m1 = [False] * l1
    m2 = [False] * l2
    matches = 0
    for i in range(l1):
        for j in range(max(0, i - md), min(i + md + 1, l2)):
            if m2[j] or c1[i] != c2[j]:
                continue
            m1[i] = True
            m2[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    trans = 0
    k = 0
    for i in range(l1):
        if not m1[i]:
            continue
        while not m2[k]:
            k += 1
        if c1[i] != c2[k]:
            trans += 1
        k += 1
    m = float(matches)
    return (m / l1 + m / l2 + (m - trans / 2.0) / m) / 3.0


def jaro_winkler_similarity(s1: str, s2: str) -> float:
    jaro = jaro_similarity(s1, s2)
    prefix = 0
    for a, b in list(zip(s1, s2))[:4]:
        if a != b:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def jaccard_similarity(s1: str, s2: str) -> float:
    t1, t2 = set(s1.split()), set(s2.split())
    if not t1 and not t2:
        return 1.0
    union = len(t1 | t2)
    if union == 0:
        return 0.0
    return len(t1 & t2) / union


_SOUNDEX_CODES = {**{c: "1" for c in "BFPV"},
                  **{c: "2" for c in "CGJKQSXZ"},
                  **{c: "3" for c in "DT"}, "L": "4",
                  **{c: "5" for c in "MN"}, "R": "6"}


def soundex(s: str) -> str:
    """``:360-395`` — prev_code NOT reset by '0' chars (quirk)."""
    if not s:
        return ""
    chars = list(s.upper())
    result = ""
    if chars[0].isalpha():
        result += chars[0]
    prev_code = _SOUNDEX_CODES.get(chars[0], "0")
    for c in chars[1:]:
        code = _SOUNDEX_CODES.get(c.upper(), "0")
        if code != "0" and code != prev_code:
            result += code
            prev_code = code
        if len(result) >= 4:
            break
    return result.ljust(4, "0")


def phonetic_similarity(s1: str, s2: str) -> float:
    return 0.9 if soundex(s1) == soundex(s2) else 0.0


def similarity_components(name1: str, name2: str,
                          cfg: LinkerConfig = LinkerConfig()):
    """(lev_sim, jw_sim, jaccard_sim, phonetic_sim-or-None) over
    NORMALIZED names — the non-exact branch of ``compute_similarity``."""
    scores = {
        "lev_sim": levenshtein_similarity(name1, name2, cfg)
        if cfg.fuzzy_matching else None,
        "jw_sim": jaro_winkler_similarity(name1, name2),
        "jaccard_sim": jaccard_similarity(name1, name2),
        "phonetic_sim": phonetic_similarity(name1, name2)
        if cfg.use_phonetic else None,
    }
    return scores


def compute_similarity(e1: dict, e2: dict,
                       cfg: LinkerConfig = LinkerConfig()) -> float:
    if e1["type"] != e2["type"]:
        return 0.0
    n1 = normalize_string(e1["name"], cfg)
    n2 = normalize_string(e2["name"], cfg)
    if n1 == n2:
        return 1.0
    comp = similarity_components(n1, n2, cfg)
    best = 0.0
    for v in comp.values():
        if v is not None:
            best = max(best, v)
    return best


def link_entities(entities: list[dict],
                  cfg: LinkerConfig = LinkerConfig()):
    """Greedy star clustering in input order (``:72-126``).  Returns
    (links dict id→canonical_id, clusters as lists of row indices,
    canonical index per cluster)."""
    n = len(entities)
    clustered = [False] * n
    clusters: list[list[int]] = []
    for i in range(n):
        if clustered[i]:
            continue
        cluster = [i]
        clustered[i] = True
        for j in range(i + 1, n):
            if clustered[j]:
                continue
            if compute_similarity(entities[i], entities[j],
                                  cfg) >= cfg.min_similarity:
                cluster.append(j)
                clustered[j] = True
        if len(cluster) > 1:
            clusters.append(cluster)
    links: dict[str, str] = {}
    canonicals: list[int] = []
    for cluster in clusters:
        canonical = cluster[0]
        for idx in cluster:      # max_by: LAST maximal wins
            if entities[idx]["conf"] >= entities[canonical]["conf"]:
                canonical = idx
        canonicals.append(canonical)
        for idx in cluster:
            if idx != canonical:
                links[entities[idx]["entity_id"]] = \
                    entities[canonical]["entity_id"]
    return links, clusters, canonicals
