"""RAPTOR-style document tree (``summarization/mod.rs:642-745``)."""

import pyarrow as pa


def _chunks(doc_id, n):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "chunk_id": pa.array([f"{doc_id}_{i}" for i in range(n)], pa.string()),
        "doc_id": pa.array([doc_id] * n, pa.string()),
        "text": pa.array([f"Sentence number {i} is here. It talks about "
                          f"topic {i % 3}." for i in range(n)], pa.string()),
    }))


def test_tree_structure_13_chunks(ray_session):
    from graphrag_rs_ray.pipelines.doctree import build_document_trees
    df = build_document_trees(_chunks("d", 13),
                              with_summary=False).to_pandas()
    lv = df.groupby("level").size().to_dict()
    assert lv == {0: 13, 1: 3, 2: 1}          # 13 -> ceil/5=3 -> 1 root
    root = df[df["level"] == 2].iloc[0]
    assert root["node_id"] == "level_2_0"
    assert root["parent_id"] is None and root["n_children"] == 3
    assert root["n_leaves"] == 13
    l1 = df[df["level"] == 1].set_index("node_id")
    assert list(l1["n_children"]) == [5, 5, 3]
    assert list(l1["n_leaves"]) == [5, 5, 3]
    assert set(l1["parent_id"]) == {"level_2_0"}
    leaves = df[df["level"] == 0].set_index("node_id")
    assert leaves.loc["leaf_d_0", "parent_id"] == "level_1_0"
    assert leaves.loc["leaf_d_7", "parent_id"] == "level_1_1"
    assert leaves.loc["leaf_d_12", "parent_id"] == "level_1_2"


def test_single_chunk_doc_is_root(ray_session):
    from graphrag_rs_ray.pipelines.doctree import build_document_trees
    df = build_document_trees(_chunks("solo", 1),
                              with_summary=False).to_pandas()
    assert len(df) == 1
    r = df.iloc[0]
    assert r["level"] == 0 and r["parent_id"] is None and r["n_leaves"] == 1


def test_summaries_present_and_deterministic(ray_session):
    from graphrag_rs_ray.pipelines.doctree import build_document_trees
    a = build_document_trees(_chunks("d", 7)).to_pandas() \
        .sort_values("node_id").reset_index(drop=True)
    b = build_document_trees(_chunks("d", 7)).to_pandas() \
        .sort_values("node_id").reset_index(drop=True)
    assert (a["summary"] == b["summary"]).all()
    root = a[a["parent_id"].isna()].iloc[0]
    assert root["summary"] != "" and len(root["summary"]) <= 203


def test_multiple_docs_independent(ray_session):
    import ray.data as rd
    from graphrag_rs_ray.pipelines.doctree import build_document_trees
    both = _chunks("x", 6).union(_chunks("y", 2))
    df = build_document_trees(both, with_summary=False).to_pandas()
    x = df[df["doc_id"] == "x"]
    y = df[df["doc_id"] == "y"]
    assert len(x) == 6 + 2 + 1                # 6 leaves -> [5,1] -> root
    assert len(y) == 2 + 1
    assert set(y[y["level"] == 1]["n_children"]) == {2}


# ---------------------------------------------- tree query path --

def test_node_keywords_leaf_and_merge():
    # mod.rs:317 (leaf top-5) / :693-712 (merge: sort+dedup+trunc 10)
    from graphrag_rs_ray.pipelines.doctree import node_keywords
    leaf = node_keywords("alpha beta alpha gamma delta words appear "
                         "alpha beta gamma words", True)
    assert len(leaf) <= 5 and "alpha" in leaf
    merged = node_keywords("", False,
                           [["zeta", "alpha"], ["alpha", "beta"]])
    assert merged == ["alpha", "beta", "zeta"]
    many = node_keywords("", False, [[f"k{i:02d}" for i in range(8)],
                                     [f"k{i:02d}" for i in range(4, 12)]])
    assert len(many) == 10 and many[0] == "k00"
