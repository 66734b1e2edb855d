"""In-memory vector store (``vector/voy_store.rs``).

The reference wraps the Voy WASM k-d tree; this backend is a REAL k-d
tree too (:class:`KDTree` — median-split, leaf-bucketed, exact
branch-and-bound k-NN): vectors are unit-normalized at build, the tree
searches squared Euclidean (on unit vectors d² = 2 − 2·cos, so the
Euclidean top-k IS the cosine top-k), and the returned candidates are
reranked by the same f64 dot product the old scan backend used — so
results are exact, descending cosine, ties pinned by insertion order,
matching both the scan backend and ``voy_store.rs`` semantics (add →
build → search, dimension/duplicate/not-built error paths, remove with
index compaction, statistics).  ``backend="scan"`` keeps the exact
matrix scan; a property test pins tree == scan on random data.  Note
the k-d tree degrades toward a full scan as dimension grows (the
curse-of-dimensionality property Voy itself has) — the leaf-bucketed
distance evaluations stay vectorized either way.

This is the repo's canonical *shared mutable index* — the one shape the
Dataset API can't express — so it also ships as a Ray actor
(:func:`vector_store_actor`): one actor holds the index, any number of
tasks/stages call ``add_batch``/``search`` against it.
"""

from __future__ import annotations

import heapq

import numpy as np


class KDTree:
    """Exact k-NN k-d tree over unit-normalized rows of ``matrix``.

    Build: recursive median split (axis cycles with depth; median index
    chosen deterministically, ties between equal coordinates resolved by
    row index via stable argsort), points bucketed into leaves of
    ``leaf_size`` rows so per-leaf distance evaluation is one vectorized
    numpy expression.  Search: classic branch-and-bound — descend to the
    query's leaf, maintain a bounded max-heap of the k smallest
    (d², row) pairs (lexicographic, so equal distances keep the SMALLER
    insertion index), and visit the far subtree only while the splitting
    plane is within the current worst distance."""

    __slots__ = ("matrix", "leaf_size", "_axis", "_split", "_left",
                 "_right", "_leaf_rows")

    def __init__(self, matrix: np.ndarray, leaf_size: int = 32):
        self.matrix = matrix
        self.leaf_size = leaf_size
        n = matrix.shape[0]
        # node arrays (index 0 = root); leaves carry row buckets
        self._axis: list[int] = []
        self._split: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._leaf_rows: list[np.ndarray | None] = []
        self._build(np.arange(n, dtype=np.int64), 0)

    def _new_node(self) -> int:
        self._axis.append(-1)
        self._split.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._leaf_rows.append(None)
        return len(self._axis) - 1

    def _build(self, rows: np.ndarray, depth: int) -> int:
        node = self._new_node()
        if rows.size <= self.leaf_size:
            self._leaf_rows[node] = rows
            return node
        axis = depth % self.matrix.shape[1]
        vals = self.matrix[rows, axis]
        order = np.argsort(vals, kind="stable")
        mid = rows.size // 2
        self._axis[node] = axis
        self._split[node] = float(vals[order[mid]])
        left_rows = rows[order[:mid]]
        right_rows = rows[order[mid:]]
        self._left[node] = self._build(left_rows, depth + 1)
        self._right[node] = self._build(right_rows, depth + 1)
        return node

    def search(self, q: np.ndarray, k: int) -> np.ndarray:
        """Row indices of the exact k nearest neighbours of unit vector
        ``q`` by (d² asc, row asc) — unordered."""
        heap: list[tuple[float, int]] = []   # max-heap via negation

        def visit(node: int) -> None:
            leaf = self._leaf_rows[node]
            if leaf is not None:
                if leaf.size == 0:
                    return
                diff = self.matrix[leaf] - q
                d2 = np.einsum("ij,ij->i", diff, diff)
                for dist, row in zip(d2.tolist(), leaf.tolist()):
                    item = (-dist, -row)
                    if len(heap) < k:
                        heapq.heappush(heap, item)
                    elif item > heap[0]:
                        heapq.heapreplace(heap, item)
                return
            axis, split = self._axis[node], self._split[node]
            delta = float(q[axis]) - split
            near, far = ((self._left[node], self._right[node])
                         if delta < 0 else
                         (self._right[node], self._left[node]))
            visit(near)
            if len(heap) < k or delta * delta <= -heap[0][0]:
                visit(far)

        visit(0)
        return np.array(sorted(-r for _, r in heap), dtype=np.int64)


class VectorStore:
    """``voy_store.rs:38-320`` semantics."""

    def __init__(self, dimension: int = 384, backend: str = "kdtree"):
        if backend not in ("kdtree", "scan"):
            raise ValueError(f"Unknown vector-store backend: {backend!r}")
        self.dimension = dimension
        self.backend = backend
        self.id_to_index: dict[str, int] = {}
        self.index_to_id: list[str] = []
        self.pending: list[np.ndarray] = []
        self.index_built = False
        self._matrix: np.ndarray | None = None
        self._tree: KDTree | None = None

    def add_vector(self, vec_id: str, embedding) -> None:
        """``:88-112``: dimension check, duplicate-id rejection,
        invalidates a built index."""
        emb = np.asarray(embedding, dtype=np.float64)
        if emb.shape != (self.dimension,):
            raise ValueError(
                f"Embedding dimension mismatch: expected {self.dimension}, "
                f"got {emb.shape[-1] if emb.ndim else 0}")
        if vec_id in self.id_to_index:
            raise ValueError(f"Vector ID '{vec_id}' already exists")
        self.id_to_index[vec_id] = len(self.pending)
        self.index_to_id.append(vec_id)
        self.pending.append(emb)
        self.index_built = False

    def add_batch(self, vec_ids: list[str], embeddings) -> int:
        """Batched add for actor callers (one RPC per Arrow batch)."""
        for vec_id, emb in zip(vec_ids, embeddings):
            self.add_vector(vec_id, emb)
        return len(self.pending)

    def build_index(self) -> None:
        """``:122-149``: errors on empty; builds the normalized matrix
        and (default backend) the k-d tree over it."""
        if not self.pending:
            raise ValueError("No embeddings to build index from")
        m = np.vstack(self.pending)
        self._matrix = m / np.maximum(
            np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        self._tree = (KDTree(self._matrix)
                      if self.backend == "kdtree" else None)
        self.index_built = True

    def search(self, query_embedding, top_k: int) -> list[tuple[str, float]]:
        """``:167-204``: not-built / dimension errors, descending
        cosine top-k (ties by insertion order — stable argsort)."""
        if not self.index_built:
            raise ValueError("Index not built. Call build_index() first.")
        q = np.asarray(query_embedding, dtype=np.float64)
        if q.shape != (self.dimension,):
            raise ValueError(
                f"Query dimension mismatch: expected {self.dimension}, "
                f"got {q.shape[-1] if q.ndim else 0}")
        qn = q / max(float(np.linalg.norm(q)), 1e-12)
        if self._tree is not None:
            rows = self._tree.search(qn, top_k)
            # exact f64 cosine rerank of the exact-Euclidean top-k set:
            # identical ordering semantics to the scan backend
            sims = self._matrix[rows] @ qn
            order = np.lexsort((rows, -sims))
            return [(self.index_to_id[rows[j]], float(sims[j]))
                    for j in order]
        sims = self._matrix @ qn
        top = np.argsort(-sims, kind="stable")[:top_k]
        return [(self.index_to_id[i], float(sims[i])) for i in top]

    def remove_vector(self, vec_id: str) -> None:
        """``:246-279``: compacting removal, invalidates the index."""
        idx = self.id_to_index.pop(vec_id, None)
        if idx is None:
            raise ValueError(f"Vector ID '{vec_id}' not found")
        self.index_to_id.pop(idx)
        self.pending.pop(idx)
        for k, v in self.id_to_index.items():
            if v > idx:
                self.id_to_index[k] = v - 1
        self.index_built = False
        self._matrix = None
        self._tree = None

    def clear(self) -> None:
        self.id_to_index.clear()
        self.index_to_id.clear()
        self.pending.clear()
        self._matrix = None
        self._tree = None
        self.index_built = False

    def __len__(self) -> int:
        return len(self.index_to_id)

    def is_empty(self) -> bool:
        return not self.index_to_id

    def contains(self, vec_id: str) -> bool:
        return vec_id in self.id_to_index

    def get_vector(self, vec_id: str) -> np.ndarray | None:
        idx = self.id_to_index.get(vec_id)
        return None if idx is None else self.pending[idx]

    def ids(self) -> list[str]:
        return list(self.index_to_id)

    def statistics(self) -> dict:
        """``:288-320``: vector norms over the raw (pre-normalization)
        embeddings; inf min-norm on empty stores, faithful."""
        norms = [float(np.linalg.norm(e)) for e in self.pending]
        return {
            "vector_count": len(self.index_to_id),
            "dimension": self.dimension,
            "index_built": self.index_built,
            "min_norm": min(norms) if norms else float("inf"),
            "max_norm": max(norms) if norms else 0.0,
            "avg_norm": sum(norms) / len(norms) if norms else 0.0,
        }


def vector_store_actor(dimension: int, **actor_opts):
    """Create the shared-index actor (``@ray.remote`` applied lazily so
    the pure class stays importable without Ray)."""
    import ray
    return ray.remote(**actor_opts)(VectorStore).remote(dimension) \
        if actor_opts else ray.remote(VectorStore).remote(dimension)


def load_dataset_into_store(store_actor, ds, id_col: str, emb_col: str,
                            batch_size: int = 4096) -> int:
    """Stream a Dataset into the store actor — one ``add_batch`` RPC per
    Arrow batch, pipelined (the driver only forwards object refs)."""
    import ray
    total = 0
    pend = []
    for batch in ds.iter_batches(batch_size=batch_size,
                                 batch_format="pyarrow"):
        ids = [str(v) for v in batch.column(id_col).to_pylist()]
        vecs = np.asarray(batch.column(emb_col).to_pylist(),
                          dtype=np.float64)
        pend.append(store_actor.add_batch.remote(ids, vecs))
    for ref in pend:
        total = ray.get(ref)
    return total
