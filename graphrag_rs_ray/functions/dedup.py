"""Deduplication kernels: MinHash, SimHash, n-gram Jaccard, winnowing.

Training-data extensions (the reference has only exact relationship dedup,
``entity/gleaning_extractor.rs:418-436``; these are the web-scale near-dup
operators a 100-TB pipeline needs).  All hashes are derived from a
splitmix-style mixer or pandas' fixed-key string hasher — deterministic
across processes and machines (no PYTHONHASHSEED dependence).
"""

from __future__ import annotations

import numpy as np


def char_ngrams(text: str, n: int = 3) -> set[str]:
    s = " ".join(text.lower().split())
    if len(s) < n:
        return {s} if s else set()
    return {s[i:i + n] for i in range(len(s) - n + 1)}


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def ngram_jaccard(t1: str, t2: str, n: int = 3) -> float:
    return jaccard(char_ngrams(t1, n), char_ngrams(t2, n))


_SHINGLE_MIX = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
     0x27D4EB2F165667C5, 0x85EBCA77C2B2AE63, 0xD6E8FEB86659FD93,
     0xA0761D6478BD642F, 0xE7037ED1A0B428DB], dtype=np.uint64)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (vectorized, u64 wraparound)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class MinHasher:
    """One-permutation MinHash over word k-shingles.

    Classic k-permutation MinHash costs an O(num_perm × n_shingles)
    multiply per batch — measured as THE bottleneck at 1M docs (numpy's
    u64 multiply is ~100-200 ns/element).  One-permutation hashing
    (Li, Owen & Zhang, NIPS 2012) hashes each shingle ONCE, buckets the
    hash space into ``num_perm`` bins (low bits) and takes the per-bin
    min of a decorrelated value hash; empty bins are filled by rotation
    densification (Shrivastava & Li, ICML 2014) so
    ``mean(sig1 == sig2)`` stays an unbiased Jaccard estimate and LSH
    banding applies unchanged.  O(n_shingles) per doc — ~40x faster at
    1M docs, same dedup behavior (gated by the planted-pair recall in
    ``scripts/scale_dedup_datapoints.py`` and the ordering tests).

    Shingle hashes are computed WITHOUT materializing shingle strings:
    each word is hashed once (pandas' C string hasher — one vectorized
    pass per batch) and a k-shingle's hash is the splitmix64 finalizer
    over the position-mixed fold ``xor_j(wordhash[i+j] * MIX[j])``.
    Duplicate shingles need no dedup: the per-bin min is
    multiplicity-invariant.  All hashes are fixed-seed — signatures are
    reproducible across processes, machines and partitionings."""

    def __init__(self, num_perm: int = 128, shingle_k: int = 5, seed: int = 0x5EED):
        self.num_perm = num_perm
        self.shingle_k = shingle_k
        # fixed whitening constant derived from the seed: decorrelates the
        # bin-assignment bits from the min-value bits
        self.salt = np.uint64(
            int(np.random.Generator(np.random.PCG64(seed))
                .integers(1, 2 ** 63)))

    def signature(self, text: str) -> np.ndarray:
        return self.signatures_batch([text])[0]

    def _shingle_hashes(self, wh: np.ndarray) -> np.ndarray:
        """k-shingle hashes from per-word hashes (vectorized fold).
        Shorter-than-k docs collapse to ONE shingle of all words."""
        n = len(wh)
        k = min(self.shingle_k, len(_SHINGLE_MIX))
        if n == 0:
            return wh
        eff = min(k, n)
        acc = wh[0:n - eff + 1] * _SHINGLE_MIX[0]
        for j in range(1, eff):
            acc = acc ^ (wh[j:n - eff + 1 + j] * _SHINGLE_MIX[j])
        return _mix64(acc)

    def signatures_batch(self, texts: list[str]) -> np.ndarray:
        """(n_docs, num_perm) signatures: ONE vectorized word-hash pass,
        one shingle fold, one unbuffered per-(doc, bin) min, one
        densification sweep — no per-shingle Python, no (P × S) product."""
        import pandas as pd

        n_docs = len(texts)
        p = self.num_perm
        maxv = np.iinfo(np.uint64).max
        out = np.full(n_docs * p, maxv, dtype=np.uint64)
        word_lists = [t.lower().split() for t in texts]
        flat = [w for ws in word_lists for w in ws]
        if not flat:
            return out.reshape(n_docs, p)
        wh_flat = pd.util.hash_array(
            np.asarray(flat, dtype=object)).astype(np.uint64)

        doc_idx_chunks, shingle_chunks = [], []
        pos = 0
        for d, ws in enumerate(word_lists):
            sh = self._shingle_hashes(wh_flat[pos:pos + len(ws)])
            pos += len(ws)
            if len(sh):
                shingle_chunks.append(sh)
                doc_idx_chunks.append(np.full(len(sh), d, dtype=np.int64))
        xs = np.concatenate(shingle_chunks)                      # (S,)
        doc_idx = np.concatenate(doc_idx_chunks)
        bins = (xs % np.uint64(p)).astype(np.int64)
        vals = _mix64(xs ^ self.salt)
        np.minimum.at(out, doc_idx * p + bins, vals)
        sig = out.reshape(n_docs, p)

        # rotation densification: an empty bin borrows the value of the
        # nearest non-empty ORIGINAL bin to its right (cyclic); an
        # all-empty doc keeps the max sentinel (empty-text semantics)
        if (sig == maxv).any():
            src = sig.copy()
            for shift in range(1, p):
                empty = sig == maxv
                if not empty.any():
                    break
                rows = empty.any(axis=1)
                if not (src[rows] != maxv).any():
                    break                      # only all-empty docs remain
                sig = np.where(empty, np.roll(src, -shift, axis=1), sig)
        return sig

    def bands(self, sig: np.ndarray, num_bands: int = 16) -> list[int]:
        """LSH band hashes: split the signature into ``num_bands`` rows and
        hash each band; equal band hash ⇒ candidate pair."""
        return [int(x) for x in self.bands_batch(sig[None, :], num_bands)[0]]

    def bands_batch(self, sigs: np.ndarray, num_bands: int = 16) -> np.ndarray:
        """(n_docs, num_bands) band hashes, vectorized: the same
        position-mixed fold + splitmix64 finalizer as the shingle hash
        (with the band index salted in) instead of a per-band blake2b —
        no per-doc Python in the banding pass."""
        rows = self.num_perm // num_bands
        n = sigs.shape[0]
        out = np.empty((n, num_bands), dtype=np.uint64)
        # array product: wraps mod 2^64 without numpy's scalar overflow warning
        salts = np.arange(num_bands, dtype=np.uint64) * _SHINGLE_MIX[-1]
        for b in range(num_bands):
            seg = sigs[:, b * rows:(b + 1) * rows]
            acc = seg[:, 0] * _SHINGLE_MIX[0]
            for j in range(1, rows):
                acc = acc ^ (seg[:, j] * _SHINGLE_MIX[j % len(_SHINGLE_MIX)])
            out[:, b] = _mix64(acc ^ salts[b])
        return out


def stable_word_hashes(words: list[str]) -> np.ndarray:
    """Vectorized stable 64-bit word hashes (pandas' C string hasher —
    fixed hash_key, so stable across processes/machines).  The shared
    word-hash for SimHash voting AND its staged oracle vocab — both
    sides must agree on the function, not on any particular one."""
    import pandas as pd
    if not words:
        return np.empty(0, dtype=np.uint64)
    return pd.util.hash_array(
        np.asarray(words, dtype=object)).astype(np.uint64)


class SimHasher:
    """64-bit SimHash over word unigrams (stable per-word hashes),
    vectorized: ONE word-hash pass per batch, per-doc unpackbits votes."""

    def signature(self, text: str) -> int:
        return int(self.signatures_batch([text])[0])

    def signatures_batch(self, texts: list[str]) -> np.ndarray:
        word_lists = [t.lower().split() for t in texts]
        flat = [w for ws in word_lists for w in ws]
        out = np.zeros(len(texts), dtype=np.uint64)
        if not flat:
            return out
        hs = stable_word_hashes(flat)
        bits_all = np.unpackbits(hs.view(np.uint8).reshape(-1, 8),
                                 axis=1, bitorder="little")     # (W, 64)
        pos = 0
        for i, ws in enumerate(word_lists):
            n = len(ws)
            if not n:
                continue
            votes = bits_all[pos:pos + n].sum(axis=0, dtype=np.int64) * 2 - n
            pos += n
            sig_bits = (votes > 0).astype(np.uint8)
            out[i] = int.from_bytes(
                np.packbits(sig_bits, bitorder="little").tobytes(), "little")
        return out


class Winnower:
    """MOSS-style winnowing document fingerprints (Schleimer, Wilkerson,
    Aiken, SIGMOD 2003 — PAPERS.md).  Not in the reference (its dedup is
    exact relationship dedup only, ``entity/gleaning_extractor.rs:418-436``);
    this is the standard local-document fingerprint for plagiarism-style
    near-dup detection: any shared substring of length ``k + w - 1`` or more
    is guaranteed to share at least one selected fingerprint.

    Deliberately DuckDB-replayable with ZERO staging (the oracle re-derives
    everything straight from ``documents.text``):

    - normalize = keep ``[a-zA-Z0-9]`` bytes only, then ASCII-lowercase
      (filter-then-lower keeps Python/DuckDB unicode lowercasing out of the
      comparison — non-ASCII just drops, documented bound);
    - gram hash = degree-(k-1) polynomial in base 257 over the byte values,
      mod 2^64 (numpy uint64 wraparound ≡ HUGEINT ``% 2^64`` in SQL), then
      masked to 63 bits so both sides carry it as a BIGINT;
    - selection = per window of ``w`` consecutive grams, the RIGHTMOST
      position attaining the window minimum (the paper's robust-winnowing
      tie rule); a document shorter than ``w`` grams is one window.
    """

    def __init__(self, k: int = 8, w: int = 4, base: int = 257):
        self.k, self.w, self.base = k, w, base
        self.pows = np.array([pow(base, k - 1 - j, 1 << 64) for j in range(k)],
                             dtype=np.uint64)
        lut = np.full(256, 255, np.uint8)
        for c in range(ord("a"), ord("z") + 1):
            lut[c] = c
        for c in range(ord("0"), ord("9") + 1):
            lut[c] = c
        for c in range(ord("A"), ord("Z") + 1):
            lut[c] = c + 32  # ASCII lowercase
        self.lut = lut

    def norm_len(self, text: str) -> int:
        """Length of the normalized string (kept-alnum count) — the
        denominator for span-coverage fractions."""
        raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        return int((self.lut[raw] != 255).sum())

    def fingerprints(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """→ (positions, hashes): distinct winnowing selections, position-
        sorted.  Position = gram start offset in the normalized string."""
        raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        mapped = self.lut[raw]
        c = mapped[mapped != 255].astype(np.uint64)
        n = c.size - self.k + 1
        empty = (np.empty(0, np.int64), np.empty(0, np.int64))
        if n <= 0:
            return empty
        h = np.zeros(n, np.uint64)
        for j in range(self.k):
            h += c[j:j + n] * self.pows[j]  # u64 wraparound by construction
        h &= np.uint64((1 << 63) - 1)
        if n <= self.w:
            sel = np.array([n - 1 - int(np.argmin(h[::-1]))], dtype=np.int64)
        else:
            wins = np.lib.stride_tricks.sliding_window_view(h, self.w)
            right_argmin = self.w - 1 - np.argmin(wins[:, ::-1], axis=1)
            sel = np.arange(n - self.w + 1, dtype=np.int64) + right_argmin
        pos = np.unique(sel)
        return pos, h[pos].astype(np.int64)
