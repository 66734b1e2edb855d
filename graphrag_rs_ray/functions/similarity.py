"""String-similarity stack for entity canonicalization.

Port of ``graphrag-core/src/entity/string_similarity_linker.rs``:
normalization (``:171-190``), Levenshtein (``:209-249``) gated by
max_edit_distance (``:193-206``), Jaro-Winkler (``:252-326``), token Jaccard
(``:329-345``), Soundex (``:359-409``), combined max-of scoring
(``:130-168``), and the greedy single-pass clustering (``:68-127``) — made
deterministic here by requiring callers to pass entities in a stable sort
order (the reference iterates whatever order the graph yields).

The package's two Levenshtein kernels live here: ``levenshtein_distance``
(full DP, the uncapped value) and ``levenshtein_bounded`` (the distance
capped at ``k + 1``, for every caller that only tests it against a
bound: this module's capped similarity, ``string_linker`` and the
threshold decisions of ``entity_linker``).  The capped similarity is
0.0 past the cap either way, so scores are bit-identical to the full DP.
Jaro, Jaro-Winkler and Jaccard here serve ``string_linker`` too.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LinkingConfig:
    min_similarity: float = 0.85
    case_insensitive: bool = True
    remove_punctuation: bool = True
    use_phonetic: bool = False
    max_edit_distance: int = 2
    fuzzy_matching: bool = True
    # OPT-IN web-scale bound (None = faithful reference semantics): a
    # (type, soundex) block larger than this is sub-blocked by
    # (first-2-chars, length-band) of the normalized name BEFORE greedy
    # clustering, bounding the per-task quadratic at the cost of missing
    # links that straddle a sub-block boundary (divergence measured in
    # BASELINE.md; see stages/linking.py::compute_links_ds).
    max_block_size: int | None = None


DEFAULT_LINKING = LinkingConfig()


def normalize_string(s: str, cfg: LinkingConfig = DEFAULT_LINKING) -> str:
    if cfg.case_insensitive:
        s = s.lower()
    if cfg.remove_punctuation:
        s = "".join(c for c in s if c.isalnum() or c.isspace())
    return " ".join(s.split())


def levenshtein_distance(s1: str, s2: str) -> int:
    """Classic DP; port of ``string_similarity_linker.rs:209-249`` (O(n·m),
    single-row rolling array instead of the full matrix)."""
    if not s1:
        return len(s2)
    if not s2:
        return len(s1)
    prev = list(range(len(s2) + 1))
    for i, c1 in enumerate(s1, 1):
        cur = [i]
        for j, c2 in enumerate(s2, 1):
            cost = 0 if c1 == c2 else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


def levenshtein_bounded(s1: str, s2: str, k: int) -> int:
    """``min(levenshtein_distance(s1, s2), k + 1)``: the exact distance
    when it is at most ``k``, else ``k + 1`` (Ukkonen's cutoff, 1985).
    A length gap over ``k`` rejects in O(1); otherwise only the band of
    2k+1 cells around the diagonal is filled (a cell off it is at least
    its offset ``|i - j| > k``, so ``k + 1`` stands in for it), and the
    scan stops at the first row whose cells all exceed ``k``: no path
    through that row can come back under it.  Fills O(k·n) cells.
    Gated against the full DP by ``tests/test_kernel_properties.py``."""
    n, m = len(s1), len(s2)
    if abs(n - m) > k:
        return k + 1
    big = k + 1
    prev = [j if j <= k else big for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [big] * (m + 1)
        if i <= k:
            cur[0] = i
        row_min = cur[0]
        c = s1[i - 1]
        for j in range(max(1, i - k), min(m, i + k) + 1):
            v = prev[j - 1] + (c != s2[j - 1])
            if prev[j] < v:
                v = prev[j] + 1
            if cur[j - 1] < v:
                v = cur[j - 1] + 1
            cur[j] = v
            if v < row_min:
                row_min = v
        if row_min > k:
            return big
        prev = cur
    return min(prev[m], big)


def levenshtein_similarity(s1: str, s2: str, max_edit_distance: int = 2) -> float:
    d = levenshtein_bounded(s1, s2, max_edit_distance)
    if d > max_edit_distance:
        return 0.0
    max_len = max(len(s1), len(s2))
    if max_len == 0:
        return 1.0
    return 1.0 - d / max_len


def jaro_similarity(s1: str, s2: str) -> float:
    len1, len2 = len(s1), len(s2)
    if len1 == 0 and len2 == 0:
        return 1.0
    if len1 == 0 or len2 == 0:
        return 0.0
    match_distance = max(max(len1, len2) // 2 - 1, 0)
    s1_matches = [False] * len1
    s2_matches = [False] * len2
    matches = 0
    for i in range(len1):
        start = max(i - match_distance, 0)
        end = min(i + match_distance + 1, len2)
        for j in range(start, end):
            if s2_matches[j] or s1[i] != s2[j]:
                continue
            s1_matches[i] = True
            s2_matches[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    k = 0
    for i in range(len1):
        if not s1_matches[i]:
            continue
        while not s2_matches[k]:
            k += 1
        if s1[i] != s2[k]:
            transpositions += 1
        k += 1
    m = float(matches)
    return (m / len1 + m / len2 + (m - transpositions / 2.0) / m) / 3.0


def jaro_winkler_similarity(s1: str, s2: str) -> float:
    jaro = jaro_similarity(s1, s2)
    prefix = 0
    for c1, c2 in zip(s1[:4], s2[:4]):
        if c1 != c2:
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


_SOUNDEX_CODES = {}
for _chars, _code in (("BFPV", "1"), ("CGJKQSXZ", "2"), ("DT", "3"),
                      ("L", "4"), ("MN", "5"), ("R", "6")):
    for _c in _chars:
        _SOUNDEX_CODES[_c] = _code


def soundex(s: str) -> str:
    """Port of ``string_similarity_linker.rs:360-396`` (golden values:
    Robert→R163, Smith→S530)."""
    if not s:
        return ""
    chars = s.upper()
    result = chars[0] if chars[0].isalpha() else ""
    prev_code = _SOUNDEX_CODES.get(chars[0], "0")
    for c in chars[1:]:
        code = _SOUNDEX_CODES.get(c, "0")
        if code != "0" and code != prev_code:
            result += code
        prev_code = code
        if len(result) >= 4:
            break
    return result.ljust(4, "0")


def phonetic_similarity(s1: str, s2: str) -> float:
    return 0.9 if soundex(s1) == soundex(s2) else 0.0


def compute_similarity_normalized(n1: str, n2: str,
                                  cfg: LinkingConfig = DEFAULT_LINKING) -> float:
    if n1 == n2:
        return 1.0
    scores = []
    if cfg.fuzzy_matching:
        scores.append(levenshtein_similarity(n1, n2, cfg.max_edit_distance))
    scores.append(jaro_winkler_similarity(n1, n2))
    scores.append(jaccard_similarity(n1, n2))
    if cfg.use_phonetic:
        scores.append(phonetic_similarity(n1, n2))
    return max(scores) if scores else 0.0


def greedy_cluster_reference(items: list[tuple[str, str, float]],
                             cfg: LinkingConfig = DEFAULT_LINKING) -> dict[str, str]:
    """Greedy single-pass clustering over (entity_id, name, confidence)
    items of ONE entity type; direct port of
    ``string_similarity_linker.rs:68-127`` (O(m²) full pairwise scoring).
    Kept as the equality gate for :func:`greedy_cluster`, which produces
    IDENTICAL output via sound candidate pruning.

    Returns {entity_id → canonical entity_id} for non-canonical members.
    Callers MUST pass ``items`` sorted by a stable key (we sort by entity_id
    here defensively) so clusters are reproducible under partitioning.
    """
    items = sorted(items, key=lambda t: t[0])
    norms = [normalize_string(name, cfg) for _, name, _ in items]
    n = len(items)
    clustered: set[int] = set()
    links: dict[str, str] = {}
    for i in range(n):
        if i in clustered:
            continue
        cluster = [i]
        clustered.add(i)
        for j in range(i + 1, n):
            if j in clustered:
                continue
            if compute_similarity_normalized(norms[i], norms[j], cfg) >= cfg.min_similarity:
                cluster.append(j)
                clustered.add(j)
        if len(cluster) > 1:
            canonical = max(cluster, key=lambda k: (items[k][2], items[k][0]))
            canonical_id = items[canonical][0]
            for k in cluster:
                if k != canonical:
                    links[items[k][0]] = canonical_id
    return links


_FOLD = 64  # char-histogram fold width (power of two; ord(c) & 63)


def greedy_cluster(items: list[tuple[str, str, float]],
                   cfg: LinkingConfig = DEFAULT_LINKING) -> dict[str, str]:
    """Candidate-pruned greedy clustering — EXACTLY equal output to
    :func:`greedy_cluster_reference` (gated by
    ``tests/test_similarity.py::test_pruned_equals_reference_*``) at
    O(m·c) full-similarity calls instead of O(m²).

    Greedy membership is pure pairwise (within one seed's scan, absorbing
    j does not affect other j's), so for each seed we can vector-screen
    every open j with SOUND upper bounds per metric and run the Python
    scorer only on survivors:

    * Jaro ≤ (I/l1 + I/l2 + 1)/3 where I = char-multiset intersection
      (folded 64-way histograms; folding only RAISES I, keeping the bound
      sound), and Jaro-Winkler ≤ J + p·0.1·(1−J) with p the EXACT common
      prefix (vectorized over unfolded char codes, capped at 4).
    * Levenshtein d ≥ max(|l1−l2|, ⌈L1(hist)/2⌉) (each edit moves the
      histogram L1 by ≤ 2), and the metric scores 0 above
      ``max_edit_distance``.
    * Token Jaccard ≥ θ needs equal token SETS (score 1) or, for unequal
      sets, intersection ≥ θ/(1−θ) and min/max token count ≥ θ.
    * Phonetic (when enabled, θ ≤ 0.9): soundex equality is exact.

    Every bound over-approximates its metric, so no qualifying pair is
    ever skipped — identical links on ALL inputs, not just tested ones.
    """
    n = len(items)
    if n < 24:  # numpy setup costs more than it saves on tiny blocks
        return greedy_cluster_reference(items, cfg)
    import numpy as np

    items = sorted(items, key=lambda t: t[0])
    norms = [normalize_string(name, cfg) for _, name, _ in items]
    theta = cfg.min_similarity
    lens = np.array([len(s) for s in norms], np.float64)
    M = np.zeros((n, _FOLD), np.int32)
    for k, s in enumerate(norms):
        if s:
            codes = np.frombuffer(s.encode("utf-32-le"), np.uint32) & (_FOLD - 1)
            M[k] = np.bincount(codes, minlength=_FOLD)
    # exact-prefix matrix (first 4 true char codes, 0-padded) for the
    # Winkler bonus — sentinel 0 never equals a real code
    P = np.zeros((n, 4), np.uint32)
    for k, s in enumerate(norms):
        head = s[:4]
        if head:
            P[k, :len(head)] = np.frombuffer(head.encode("utf-32-le"), np.uint32)
    tok_sets = [frozenset(s.split()) for s in norms]
    ts_ids: dict = {}
    tsid = np.array([ts_ids.setdefault(t, len(ts_ids)) for t in tok_sets],
                    np.int64)
    tcnt = np.array([len(t) for t in tok_sets], np.float64)
    use_phon = cfg.use_phonetic and theta <= 0.9
    if use_phon:
        sd_ids: dict = {}
        sdx = np.array([sd_ids.setdefault(soundex(s), len(sd_ids))
                        for s in norms], np.int64)
    jmin = theta / (1.0 - theta) if theta < 1.0 else float("inf")
    clustered = np.zeros(n, bool)
    links: dict[str, str] = {}
    for i in range(n):
        if clustered[i]:
            continue
        clustered[i] = True
        rest = slice(i + 1, n)
        open_j = ~clustered[rest]
        if open_j.any():
            I = np.minimum(M[i], M[rest]).sum(1, dtype=np.int64).astype(np.float64)
            L1 = np.abs(M[i] - M[rest]).sum(1, dtype=np.int64)
            d_lb = np.maximum(np.abs(lens[rest] - lens[i]), (L1 + 1) // 2)
            maxlen = np.maximum(np.maximum(lens[rest], lens[i]), 1.0)
            mask = np.zeros(n - i - 1, bool)
            if cfg.fuzzy_matching:
                mask |= ((d_lb <= cfg.max_edit_distance)
                         & (1.0 - d_lb / maxlen >= theta))
            J_ub = (I / max(lens[i], 1.0) + I / np.maximum(lens[rest], 1.0)
                    + 1.0) / 3.0
            zero = (lens[rest] == 0) | (lens[i] == 0)
            p = np.cumprod(P[rest] == P[i], axis=1).sum(1)  # exact prefix ≤ 4
            mask |= (J_ub + p * 0.1 * (1.0 - J_ub) >= theta) | zero
            minc = np.minimum(tcnt[rest], tcnt[i])
            maxc = np.maximum(tcnt[rest], tcnt[i])
            mask |= (tsid[rest] == tsid[i]) | ((minc >= jmin)
                                               & (minc >= theta * maxc))
            if use_phon:
                mask |= sdx[rest] == sdx[i]
            mask &= open_j
            cluster = [i]
            for off in np.nonzero(mask)[0]:
                j = i + 1 + int(off)
                if compute_similarity_normalized(norms[i], norms[j], cfg) >= theta:
                    cluster.append(j)
                    clustered[j] = True
            if len(cluster) > 1:
                canonical = max(cluster, key=lambda k: (items[k][2], items[k][0]))
                canonical_id = items[canonical][0]
                for k in cluster:
                    if k != canonical:
                        links[items[k][0]] = canonical_id
    return links


def select_canonical_name(name_counts: dict[str, int]) -> str:
    """Most frequent name, ties broken by longest then lexicographic;
    port of ``corpus/entity_linker.rs:468-481``."""
    return max(name_counts.items(), key=lambda kv: (kv[1], len(kv[0]), kv[0]))[0]
