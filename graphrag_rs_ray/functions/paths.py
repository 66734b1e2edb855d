"""Path search kernels (pure Python, no Ray).

Reference: ``graphrag-core/src/graph/analytics.rs`` —
``shortest_path`` (:281-346, Dijkstra over the undirected weighted
adjacency built in ``GraphAnalytics::new`` :69-89), ``all_paths`` /
``dfs_paths`` (:355-407, depth-limited simple-path DFS where the limit
counts NODES on the path), ``top_degree_nodes`` (:416-434).

Deterministic deviations (documented): the reference selects the next
Dijkstra node with ``HashSet::iter().min_by`` — iteration order is
nondeterministic, so path tie-breaks differ run to run.  Here ties break
by (distance, node name) and DFS visits neighbours in sorted name order,
making every result reproducible.  Weights follow the reference: each
edge contributes its f32 weight; the adjacency is undirected and keeps
parallel edges exactly as ``new()`` does.
"""

from __future__ import annotations

import heapq
from math import inf


def build_adjacency(edges):
    """``GraphAnalytics::new`` (:69-89): undirected, parallel edges kept
    (every (a, b, w) adds both directions)."""
    adj: dict[str, list[tuple[str, float]]] = {}
    for a, b, w in edges:
        adj.setdefault(a, []).append((b, float(w)))
        adj.setdefault(b, []).append((a, float(w)))
    return adj


def shortest_path(adj, start: str, end: str):
    """Dijkstra; returns (nodes, weight) or None (:281-346)."""
    if start not in adj or end not in adj:
        return None
    dist = {start: 0.0}
    prev: dict[str, str] = {}
    done: set[str] = set()
    heap: list[tuple[float, str]] = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        if u == end:
            break
        done.add(u)
        for v, w in sorted(adj.get(u, [])):
            if v in done:
                continue
            alt = d + w
            if alt < dist.get(v, inf):
                dist[v] = alt
                prev[v] = u
                heapq.heappush(heap, (alt, v))
    if end not in dist:
        return None
    nodes = [end]
    while nodes[-1] != start:
        nodes.append(prev[nodes[-1]])
    nodes.reverse()
    return nodes, dist[end]


def all_paths(adj, start: str, end: str, max_depth: int):
    """Depth-limited simple paths; ``max_depth`` counts path NODES
    (:355-407).  Neighbours visited in sorted order → deterministic
    path enumeration order."""
    out: list[tuple[list[str], float]] = []
    if start not in adj:
        return out

    path: list[str] = []
    visited: set[str] = set()

    def dfs(current: str, weight: float):
        if len(path) >= max_depth:
            return
        path.append(current)
        visited.add(current)
        if current == end:
            out.append((list(path), weight))
        else:
            for nb, w in sorted(adj.get(current, [])):
                if nb not in visited:
                    dfs(nb, weight + w)
        path.pop()
        visited.remove(current)

    dfs(start, 0.0)
    return out


def top_degree_nodes(adj, top_k: int):
    """(node, degree_centrality) sorted desc, deterministic ties by name
    (:416-434; centrality = degree / (n-1) with parallel-edge degree)."""
    n = len(adj)
    if n <= 1:
        return [(v, 0.0) for v in sorted(adj)][:top_k]
    scored = [(len(nbrs) / (n - 1.0), v) for v, nbrs in adj.items()]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [(v, s) for s, v in scored[:top_k]]
