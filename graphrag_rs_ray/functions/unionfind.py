"""Path-compressing union-find over string node ids — the driver-local
kernel behind the small-graph fast path of connected components.
Component label = lexicographically-smallest member, the same rule as
the distributed hash-to-min propagation, so local and sharded twins
agree bit-for-bit.
"""

from __future__ import annotations

from typing import Iterable


def union_find_labels(pairs: Iterable[tuple[str, str]]) -> dict[str, str]:
    """(a, b) edge pairs → {node: component label} with label = the
    smallest member name.  Nodes appear only via edges (isolated nodes
    are the caller's concern, matching the distributed paths)."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for a, b in pairs:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    label: dict[str, str] = {}
    for v in parent:
        r = find(v)
        if r not in label or v < label[r]:
            label[r] = v
    return {v: label[find(v)] for v in parent}
