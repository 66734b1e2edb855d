"""Two-path gate for the winnow hot-fingerprint filter: broadcast
(keys within ``hashagg.BROADCAST_KEY_BYTES``) and bucketed semi-join
(above) must produce the IDENTICAL pair set — the same discipline
minhash_lsh_candidates carries.
"""

import pyarrow as pa


def _docs_ds(texts: dict[int, str]):
    import ray.data as rd
    ids = sorted(texts)
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([texts[i] for i in ids], pa.string())}))


PASSAGE = ("Winnowing selects the rightmost minimum hash in each sliding "
           "window of consecutive gram hashes, guaranteeing detection of "
           "sufficiently long shared substrings across documents.")

OTHER = ("A second shared passage about distributed joins, bucketed "
         "exchanges and partitioned fingerprint tables at corpus scale.")


def _fixture():
    texts = {}
    for i in range(12):
        if i % 3 == 0:
            texts[i] = f"unique lead {i} words here. " + PASSAGE
        elif i % 3 == 1:
            texts[i] = OTHER + f" trailing unique suffix number {i}."
        else:
            texts[i] = (f"totally unrelated body {i} about rivers and "
                        f"mountains and weather systems in region {i}.")
    return texts


def test_winnow_broadcast_and_join_paths_equal(ray_session, monkeypatch):
    from graphrag_rs_ray.pipelines import training_data as td
    from graphrag_rs_ray.stages import hashagg

    def run():
        out = td.winnow_dup_pairs("/unused",
                                  docs_ds=_docs_ds(_fixture())).to_pandas()
        return set(zip(out.doc_a, out.doc_b, out.n_shared))

    fast = run()                # broadcast path
    monkeypatch.setattr(hashagg, "BROADCAST_KEY_BYTES", 0)
    slow = run()                # bucketed semi-join path (budget forced)
    assert fast, "fixture must produce pairs"
    assert fast == slow
