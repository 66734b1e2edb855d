"""Freeze golden outputs for the P/R gate (FIXTURES.md §2).

Runs the deterministic pipeline over a fixed synthetic corpus
(n=300, seed=123 — independent of the query-path seed) and writes:

    tests/golden/golden_text.parquet     url, sha256      (byte-identical text contract)
    tests/golden/golden_entities.parquet entity_id, name, type, conf, mention_count
    tests/golden/golden_triples.parquet  subj, pred, obj, conf

Run ONCE (or after an intentional semantic change, with the diff reviewed):
    python scripts/freeze_goldens.py
"""

import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa
import pyarrow.parquet as pq

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "tests", "golden")
N_PAGES, SEED = 300, 123


def main():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.op_resource_reservation_enabled = False

    from graphrag_rs_ray.config import KGConfig
    from graphrag_rs_ray.pipelines.kg import build_kg
    from graphrag_rs_ray.sources.pages import pages_dataset, page_record
    from graphrag_rs_ray.functions.html import extract_page_text

    os.makedirs(GOLDEN_DIR, exist_ok=True)

    # golden_text: driver-side (single-threaded, definitional) sha256 per url
    urls, shas = [], []
    for i in range(N_PAGES):
        rec = page_record(i, SEED)
        text = extract_page_text(rec["html"], rec["text"])
        urls.append(rec["url"])
        shas.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
    pq.write_table(pa.table({"url": urls, "sha256": shas}),
                   os.path.join(GOLDEN_DIR, "golden_text.parquet"))

    res = build_kg(pages_dataset(N_PAGES, seed=SEED), KGConfig())
    ents = res.entities.to_pandas().sort_values("entity_id").reset_index(drop=True)
    tris = (res.triples.to_pandas()[["subj", "pred", "obj", "conf"]]
            .sort_values(["subj", "pred", "obj"]).reset_index(drop=True))
    pq.write_table(pa.Table.from_pandas(ents, preserve_index=False),
                   os.path.join(GOLDEN_DIR, "golden_entities.parquet"))
    pq.write_table(pa.Table.from_pandas(tris, preserve_index=False),
                   os.path.join(GOLDEN_DIR, "golden_triples.parquet"))
    print(f"frozen: {len(urls)} urls, {len(ents)} entities, {len(tris)} triples")
    ray.shutdown()


if __name__ == "__main__":
    main()
