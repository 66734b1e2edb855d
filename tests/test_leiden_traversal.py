"""Graph operators: k-hop traversal, degree stats, connected components,
triangles, centrality, empty-graph edges, and the union-find kernel."""

import pyarrow as pa
import pytest


def _triples_ds(edges):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "subj": pa.array([e[0] for e in edges], pa.string()),
        "pred": pa.array(["RELATED_TO"] * len(edges), pa.string()),
        "obj": pa.array([e[1] for e in edges], pa.string()),
    }))


# ---- k-hop traversal ----------------------------------------------------

def _bfs_python(edges, seeds, k, direction="both"):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        if direction == "both":
            adj.setdefault(b, []).append(a)
    dist = {s: 0 for s in seeds}
    frontier = list(seeds)
    for h in range(1, k + 1):
        nxt = []
        for v in frontier:
            for u in adj.get(v, []):
                if u not in dist:
                    dist[u] = h
                    nxt.append(u)
        frontier = nxt
    return dist


@pytest.mark.parametrize("direction", ["both", "out"])
def test_k_hop_matches_bfs(ray_session, direction):
    from graphrag_rs_ray.pipelines.graph_ops import k_hop
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
             ("e", "a"), ("b", "x"), ("x", "y"), ("z", "a")]
    got = k_hop(_triples_ds(edges), ["a"], k=3, direction=direction,
                num_buckets=4).to_pandas()
    got_map = dict(zip(got["node"], got["hop"]))
    assert got_map == _bfs_python(edges, ["a"], 3, direction)
    # local fast path == forced sharded loop (small_graph_limit=0)
    sharded = k_hop(_triples_ds(edges), ["a"], k=3, direction=direction,
                    num_buckets=4, small_graph_limit=0).to_pandas()
    assert dict(zip(sharded["node"], sharded["hop"])) == got_map


def test_degree_stats_values(ray_session):
    from graphrag_rs_ray.pipelines.graph_ops import degree_stats
    edges = [("a", "b"), ("a", "b"), ("a", "c"), ("c", "a")]
    df = degree_stats(_triples_ds(edges), num_buckets=4).to_pandas()
    d = df.set_index("node")
    assert d.loc["a", "out_deg"] == 3 and d.loc["a", "in_deg"] == 1
    assert d.loc["b", "in_deg"] == 2 and d.loc["b", "out_deg"] == 0
    assert d.loc["a", "degree"] == 4
    assert abs(d.loc["a", "degree_centrality"] - 4 / 2) < 1e-12


def test_connected_components_paths_agree(ray_session):
    """Small-graph union-find fast path == distributed hash-to-min
    propagation (forced with small_graph_limit=0)."""
    import pyarrow as pa
    import ray.data as rd
    from graphrag_rs_ray.pipelines.communities import connected_components

    pairs = [("b", "a"), ("c", "b"), ("x", "y"), ("z", "z2"), ("y", "z"),
             ("solo1", "solo2")]
    eds = rd.from_arrow(pa.table({
        "a": pa.array([p[0] for p in pairs], pa.string()),
        "b": pa.array([p[1] for p in pairs], pa.string())}))
    fast = connected_components(eds).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    dist = connected_components(eds, num_buckets=4, small_graph_limit=0) \
        .to_pandas().sort_values("node").reset_index(drop=True)
    assert fast.equals(dist)
    m = dict(zip(fast["node"], fast["component"]))
    assert m["c"] == "a" and m["x"] == "x" and m["z2"] == "x"
    assert m["solo2"] == "solo1"


def test_triangle_paths_agree(ray_session):
    """Dense-local matmul path == distributed wedge-join path
    (forced with small_graph_limit=0), values hand-checked."""
    import pyarrow as pa
    import ray.data as rd
    from graphrag_rs_ray.pipelines.graph_ops import triangle_counts

    # K4 on a,b,c,d plus pendant e: every K4 node in C(3,2)=3 triangles
    pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "d"), ("d", "e")]
    tri = rd.from_arrow(pa.table({
        "subj": pa.array([p[0] for p in pairs], pa.string()),
        "pred": pa.array(["r"] * len(pairs), pa.string()),
        "obj": pa.array([p[1] for p in pairs], pa.string())}))
    fast = triangle_counts(tri).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    dist = triangle_counts(tri, num_buckets=4, small_graph_limit=0) \
        .to_pandas().sort_values("node").reset_index(drop=True)
    assert fast.equals(dist)
    m = fast.set_index("node")
    assert list(m.loc[["a", "b", "c"], "triangles"]) == [3, 3, 3]
    assert m.loc["d", "triangles"] == 3 and m.loc["e", "triangles"] == 0
    assert abs(m.loc["a", "local_cc"] - 1.0) < 1e-12       # K4 corner
    assert abs(m.loc["d", "local_cc"] - 0.5) < 1e-12       # 3 of C(4,2)=6


def test_graph_ops_empty_and_singleton(ray_session):
    """Degenerate graphs: triangle/centrality/statistics must not crash
    and must return sane shapes."""
    import pyarrow as pa
    import ray.data as rd
    from graphrag_rs_ray.pipelines.graph_ops import (
        centrality_scores, graph_statistics_row, triangle_counts)

    def tds(pairs):
        return rd.from_arrow(pa.table({
            "subj": pa.array([p[0] for p in pairs], pa.string()),
            "pred": pa.array(["r"] * len(pairs), pa.string()),
            "obj": pa.array([p[1] for p in pairs], pa.string())}))

    # self-loop-only graph → no undirected edges at all
    empty = triangle_counts(tds([("a", "a")])).to_pandas()
    assert len(empty) == 0

    # a single edge: no triangles, cc 0, two degree-1 nodes
    one = triangle_counts(tds([("a", "b")])).to_pandas().set_index("node")
    assert list(one["triangles"]) == [0, 0]
    assert list(one["local_cc"]) == [0.0, 0.0]

    cents = centrality_scores(tds([("a", "b")])).to_pandas().set_index("node")
    assert abs(cents.loc["a", "degree_centrality"] - 1.0) < 1e-12
    assert cents.loc["a", "betweenness"] == 0.0
    assert abs(cents.loc["a", "closeness"] - 1.0) < 1e-12

    stats = graph_statistics_row(tds([("a", "b"), ("c", "d")])).to_pandas()
    r = stats.iloc[0]
    assert r["node_count"] == 4 and r["edge_count"] == 2
    assert r["connected_components"] == 2
    assert r["clustering_coefficient"] == 0.0


def test_centrality_paths_agree(ray_session):
    """Driver-local centrality fast path == distributed per-component
    kernel (forced with small_graph_limit=0) on a multi-component graph
    with duplicate and reversed triples."""
    import pyarrow as pa
    import ray.data as rd
    from graphrag_rs_ray.pipelines.graph_ops import centrality_scores

    pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"),  # tri + tail
             ("b", "a"), ("a", "b"),                          # dup/reversed
             ("x", "y"), ("y", "z"),                          # path comp
             ("q", "q")]                                      # self-loop
    tds = rd.from_arrow(pa.table({
        "subj": pa.array([p[0] for p in pairs], pa.string()),
        "pred": pa.array(["r"] * len(pairs), pa.string()),
        "obj": pa.array([p[1] for p in pairs], pa.string())}))
    fast = centrality_scores(tds).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    dist = centrality_scores(tds, num_buckets=4, small_graph_limit=0) \
        .to_pandas().sort_values("node").reset_index(drop=True)
    assert fast.equals(dist)
    m = fast.set_index("node")
    # n_global = 7; b sits on a-c's alternate shortest path? a-b-c and
    # a-c both exist → d(a,c)=1, b not between; d is pendant off c
    assert abs(m.loc["c", "degree_centrality"] - 3 / 6) < 1e-12
    assert m.loc["d", "betweenness"] == 0.0
    assert m.loc["y", "betweenness"] > 0.0


def test_union_find_labels_property():
    """The shared union-find kernel must label every node with the
    smallest member of its reachability class, for any edge multiset."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from graphrag_rs_ray.functions.unionfind import union_find_labels

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                    max_size=40))
    def check(int_pairs):
        pairs = [(f"n{a}", f"n{b}") for a, b in int_pairs]
        got = union_find_labels(pairs)
        # naive closure: repeated relabel-to-min until fixpoint
        want = {v: v for e in pairs for v in e}
        changed = True
        while changed:
            changed = False
            for a, b in pairs:
                m = min(want[a], want[b])
                for x in (a, b):
                    if want[x] != m:
                        want[x] = m
                        changed = True
            # propagate through labels (label of my label)
            for v in want:
                if want[want[v]] < want[v]:
                    want[v] = want[want[v]]
                    changed = True
        assert got == want

    check()
