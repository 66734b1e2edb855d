"""Driver-style parity gate: run every queries() entry at sf0.001 and,
where an oracle exists, compare against DuckDB (sorted columns, sorted
rows, exact values with float tolerance 0 — the driver hashes values, so
anything failing here would fail there)."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"

TABLES = ("events", "documents", "embeddings")


def _duck():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    return con


def _to_pandas(result):
    import ray.data as rd
    import pyarrow as pa
    if isinstance(result, rd.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


SQL_CHECKED = [
    "exact_dedup", "doc_fingerprints", "token_stats", "language_id",
    "quality_scores", "bm25_df", "bm25_corpus_stats", "knn_bruteforce",
    "cosine_dup_pairs", "tfidf_topk", "bm25_scores", "sentence_stats",
    "temporal_edges", "text_clean", "bm25_topk",
    # staged-input oracles (query fn stages its procedural input; the
    # oracle SQL reads the staged Parquet — paths baked for the driver's
    # sf0.01 run, rewritten here for the sf0.001 test corpus)
    "kg_triples", "kg_entities", "entity_to_chunks", "chunk_to_entities",
    "co_occurring_entities", "concept_table", "concept_edges",
    "incremental_update", "semantic_edges",
    # LSH-blocked near-dup at effectively-exact recall settings
    "cosine_dup_pairs_bucketed",
    # staged band rows
    "minhash_lsh_candidates",
    # temporal validity-interval snapshot (plain view oracle)
    "temporal_snapshot",
    # fuzzy remap+merge over staged exact entities + links
    "kg_entities_fuzzy",
    # connected components (recursive-CTE reachability closure)
    "connected_components",
    # staged-input near-dup/ANN oracles: plane matrix → sign-packing,
    # vocab hashes → vote/pack, candidate pairs → trigram Jaccard,
    # inverted lists + probes → within-lists cosine top-k
    "lsh_buckets", "simhash_signatures", "ngram_dedup_pairs", "ivf_topk",
    # transitive near-dup clustering (verified pairs → recursive-CTE
    # closure → min-member representative + sizes + keep flag)
    "dedup_clusters",
    # simhash banding → candidates → bit_count(xor) Hamming verify
    "simhash_dup_pairs",
    # end-to-end webtext curation (quality gates → exact dedup →
    # LSH near-dedup with the drop-larger-id rule); bands staged
    "corpus_curation",
    # per-shard HNSW pools → exact within-candidates rerank
    "hnsw_topk",
    # ConsistencyReport counts over staged (corrupted) entities + triples
    "consistency_report",
    # RAPTOR tree structure re-derived arithmetically from staged leaf ids
    "doc_tree",
    # four-phase pipeline validation report over staged corrupted tables
    "pipeline_validation",
    # real RDF/Turtle/GraphML import (SQL re-parses the same staged raw
    # lines; the turtle oracle re-derives the prefix expansion too)
    "rdf_import", "turtle_import", "graphml_import",
    # semantic entity merging (pair sims; group decisions + merged rows)
    "semantic_merge_pairs", "semantic_merge_groups",
    # cross-document entity linking (hybrid clusters + stats)
    "entity_clusters", "entity_linking_stats",
    # string-similarity linker (pair metrics incl. recursive-CTE Jaro
    # replay; greedy links re-verified + canonical re-derived)
    "string_sim_pairs", "string_links",
    # LazyGraphRAG pipeline (chunker arithmetic; end-to-end stats)
    "lazy_chunks", "lazy_pipeline_stats",
    # concept extraction replayed in SQL from staged chunk texts
    "concept_mentions",
    # rule-engine NER replayed in SQL (dictionary/regex positions via
    # split-cumsum, contextual windows, recursive-CTE greedy overlaps)
    "ner_mentions",
    # text analysis (TextStats; section-number extraction + roman eval)
    "text_statistics", "section_numbers",
    # RAPTOR trees incl. summaries: structure arithmetic + node content
    # re-joined from staged leaf texts + the FULL extractive-summarizer
    # replay (_summarizer_sql: scoring + recursive-CTE greedy selection)
    "doc_tree_summaries",
    # chunk enrichment: section walk + degenerate TF-IDF keywords +
    # summarizer replay + position arithmetic
    "enriched_chunks",
    # HTML tag-strip automaton as two regex passes over staged sanitized
    # pages
    "kg_extract_text",
    # the FULL hierarchical chunker as a recursive CTE over start
    # positions (separator-priority rfinds, quarter gate, overlap
    # back-off, min-size trim gate)
    "kg_chunks",
    # semantic chunker: staged sentences+distances; percentile threshold,
    # breakpoint flags and segment assembly replayed in SQL
    "semantic_chunks",
    # gleaning: staged per-round parse stream; sequential entity-merge
    # fold, first-wins rel dedup, name->id resolution replayed in SQL
    "gleaning_triples",
    # the ENTIRE 4-phase pattern extractor: greedy person phases as
    # recursive CTEs over word indices, org/location scans, dedup +
    # mention counts
    "kg_mentions",
]


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_query_matches_oracle(ray_session, name):
    import __ray_entry__ as e
    ray_df = _normalize(_to_pandas(e.queries()[name](SF_DIR)))
    con = _duck()
    sql = e.oracle_sql()[name].replace("/sf0.01/", "/sf0.001/")
    oracle_df = _normalize(con.execute(sql).df())
    con.close()
    assert list(ray_df.columns) == list(oracle_df.columns), \
        f"{name}: columns {list(ray_df.columns)} != {list(oracle_df.columns)}"
    assert len(ray_df) == len(oracle_df), \
        f"{name}: rows {len(ray_df)} != {len(oracle_df)}"
    for c in ray_df.columns:
        a, b = ray_df[c], oracle_df[c]
        if np.issubdtype(a.dtype, np.floating):
            assert np.allclose(a.to_numpy().astype(float), b.to_numpy().astype(float),
                               atol=0, rtol=0), \
                f"{name}.{c}: float mismatch (driver hashes exact values)"
        else:
            # NaN/NaT-aware exact compare (nulls on both sides are equal)
            assert a.reset_index(drop=True).equals(
                b.astype(a.dtype).reset_index(drop=True)), \
                f"{name}.{c}: value mismatch"


def test_every_oracle_names_a_query():
    """An oracle whose query is gone is a leftover of a partial cut."""
    import __ray_entry__ as e
    assert sorted(set(e.oracle_sql()) - set(e.queries())) == []


def test_bench_names_only_driver_queries():
    """bench.py looks its timed queries up as ``q["<name>"]``; a name
    that ``queries()`` no longer has would only fail as a KeyError in a
    bench run, which the test suite never starts."""
    import ast

    import __ray_entry__ as e
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench.py")
    with open(bench) as f:
        tree = ast.parse(f.read())
    names = {n.slice.value for n in ast.walk(tree)
             if isinstance(n, ast.Subscript)
             and isinstance(n.value, ast.Name) and n.value.id == "q"
             and isinstance(n.slice, ast.Constant)
             and isinstance(n.slice.value, str)}
    assert names, "no q[...] lookups found in bench.py"
    assert sorted(names - set(e.queries())) == []


ROWS_ONLY = ["chunk_embeddings"]


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_queries_run(ray_session, name):
    import __ray_entry__ as e
    df = _to_pandas(e.queries()[name](SF_DIR))
    assert df is not None
    assert len(df.columns) > 0
    if name == "chunk_embeddings":
        assert len(df) > 0, f"{name} unexpectedly empty"


def test_entry_runs(ray_session):
    import __ray_entry__ as e
    ds = e.entry()
    df = _to_pandas(ds)
    assert len(df) > 0
    assert {"subj", "pred", "obj", "conf"} <= set(df.columns)


def test_staged_doc_entities_collects_nothing(ray_session, monkeypatch):
    """The linker's flat input streams from the materialized ``combined``
    checkpoint: no mention table is collected to the driver and wrapped
    back into a Dataset, however large the corpus."""
    import ray.data as rd
    import __ray_entry__ as e
    e._kg_ds(SF_DIR, "combined")     # the shared checkpoint, built first

    def driver_collect(*args, **kwargs):
        raise AssertionError("driver-side collect of the mention rows")

    monkeypatch.setattr(rd.Dataset, "to_pandas", driver_collect)
    monkeypatch.setattr(rd, "from_arrow", driver_collect)
    flat = e._staged_doc_entities("entity_clusters", SF_DIR)
    monkeypatch.undo()
    df = flat.to_pandas()
    assert list(df.columns) == ["doc_id", "local_entity_id", "name"]
    assert len(df) > 0
    assert not df.duplicated(["doc_id", "local_entity_id"]).any()
