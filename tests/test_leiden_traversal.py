"""Graph operators: connected components (both paths) and the union-find
kernel."""


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
