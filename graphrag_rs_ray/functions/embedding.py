"""Deterministic hash embeddings for link scoring.

Semantics follow the reference's ``EmbeddingGenerator``
(``graphrag-core/src/vector/mod.rs:559-644``): a text embedding is the mean
of per-word deterministic vectors, re-normalized to unit length; each word
vector is hash-derived and unit-normalized; words are lowercased, whitespace
tokenized; an empty text embeds to the zero vector.

Deviation (documented; goldens frozen from THIS implementation): the
reference derives component i from Rust's ``DefaultHasher(word, i)``
(``vector/mod.rs:630-637``), an unstable std implementation detail.  We
derive the whole word vector from one BLAKE2b-seeded numpy PCG64 stream —
equally deterministic, vectorized, and portable.  SURVEY §2.3 explicitly
allows swapping the hash and re-freezing goldens.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_DIM = 64


def _word_seed(word: str) -> int:
    return int.from_bytes(hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest(), "little")


def word_vector(word: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Deterministic unit vector for one (lowercased) word."""
    rng = np.random.Generator(np.random.PCG64(_word_seed(word)))
    v = rng.uniform(-1.0, 1.0, dim).astype(np.float32)
    norm = float(np.linalg.norm(v))
    if norm > 0:
        v /= norm
    return v


class HashEmbedder:
    """Mean-of-word-vectors text embedder with a per-worker word cache
    (mirrors the reference's ``word_vectors`` memo, ``vector/mod.rs:562``)."""

    def __init__(self, dim: int = DEFAULT_DIM, max_cache: int = 500_000):
        self.dim = dim
        self.max_cache = max_cache
        self._cache: dict[str, np.ndarray] = {}

    def _word_vec(self, word: str) -> np.ndarray:
        v = self._cache.get(word)
        if v is None:
            v = word_vector(word, self.dim)
            if len(self._cache) < self.max_cache:
                self._cache[word] = v
        return v

    def embed(self, text: str) -> np.ndarray:
        words = text.lower().split()
        if not words:
            return np.zeros(self.dim, dtype=np.float32)
        acc = np.zeros(self.dim, dtype=np.float32)
        for w in words:
            acc += self._word_vec(w)
        acc /= len(words)
        norm = float(np.linalg.norm(acc))
        if norm > 0:
            acc /= norm
        return acc

    def embed_many(self, texts: list[str]) -> np.ndarray:
        """(n, dim) float32 matrix."""
        out = np.empty((len(texts), self.dim), dtype=np.float32)
        for i, t in enumerate(texts):
            out[i] = self.embed(t)
        return out
