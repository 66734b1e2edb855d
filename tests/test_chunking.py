"""Chunker invariants mirroring the reference's tests
(``text/chunking.rs:254-329``) plus hypothesis property tests."""

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrag_rs_ray.config import KGConfig
from graphrag_rs_ray.functions.chunking import chunk_text
from graphrag_rs_ray.stages.chunk import ChunkStage


def test_hierarchical_chunking_reference_case():
    # chunking.rs:258-296
    text = ("This is a test document.\n\nIt has multiple paragraphs. "
            "Each paragraph should be preserved as much as possible. "
            "This helps maintain semantic coherence in the chunks.")
    chunks = chunk_text(text, 100, 20)
    assert chunks
    assert any("multiple paragraphs" in c or "preserved" in c or "coherence" in c
               for c, _, _ in chunks)
    for c, _, _ in chunks:
        t = c.strip()
        assert len(t) >= 50
        last = t[-1]
        assert last.isspace() or (not last.isalnum()) or t == text.strip()


def test_word_boundary_preservation():
    # chunking.rs:311-328
    text = ("This is a very long sentence that should be split at word "
            "boundaries rather than in the middle of words altogether now.")
    chunks = chunk_text(text, 60, 10)
    # every non-final RAW chunk ends at a boundary (the separator is kept)
    for c, _, e in chunks:
        if e < len(text):
            assert c[-1].isspace() or not c[-1].isalnum()


def test_offsets_are_real():
    text = "word " * 200
    for c, s, e in chunk_text(text, 100, 20):
        assert text[s:e] == c


def test_chunk_ids_stable():
    text = ". ".join(f"Sentence number {i} with several words inside it" for i in range(40))
    stage = ChunkStage(KGConfig(chunk_size=200, chunk_overlap=40))
    rows = stage(pa.table({"doc_id": ["https://x.example/a"],
                           "text": [text]})).to_pylist()
    assert [r["chunk_id"] for r in rows] == [f"https://x.example/a_{i}" for i in range(len(rows))]
    assert all(text[r["start"]:r["end"]] == r["text"] for r in rows)


@settings(max_examples=60, deadline=None)
@given(st.text(min_size=0, max_size=2000),
       st.integers(min_value=60, max_value=500),
       st.integers(min_value=0, max_value=50))
def test_chunker_properties(text, chunk_size, overlap):
    chunks = chunk_text(text, chunk_size, overlap)
    prev_start = -1
    for c, s, e in chunks:
        assert text[s:e] == c           # offsets valid (UTF-8 safe by construction)
        assert len(c.strip()) >= 50     # min size respected
        assert s > prev_start           # monotone starts
        prev_start = s


def test_legacy_chunker_sentence_boundaries():
    from graphrag_rs_ray.functions.chunking import chunk_text_legacy, find_sentence_boundary
    text = ("Dr. Smith went to the store. He bought some milk. "
            "Then he went home. " * 10)
    chunks = chunk_text_legacy(text, 120, 20)
    assert chunks
    for c, s, e in chunks:
        assert text[s:e] == c
        # non-final chunks end right after a sentence terminator
        if e < len(text):
            assert c.rstrip()[-1] in ".!?"
    # abbreviation guard: never break right after "Dr."
    b = find_sentence_boundary("Dr. Smith went to the store. He left.", 0, 30)
    assert b is not None
    assert not "Dr. Smith went to the store. He left."[:b].rstrip().endswith("Dr.")
    # full coverage: every char of text covered by at least one chunk
    covered = set()
    for _, s, e in chunks:
        covered.update(range(s, e))
    assert covered == set(range(len(text)))


def test_legacy_chunker_via_config(ray_session):
    import ray.data as rd
    import pyarrow as pa
    from graphrag_rs_ray.config import KGConfig
    from graphrag_rs_ray.stages.chunk import ChunkStage
    docs = rd.from_arrow(pa.table({
        "doc_id": ["d1"],
        "text": ["A sentence here. " * 60],
        "lang": ["en"],
    }))
    out = docs.map_batches(ChunkStage(KGConfig(chunker="legacy", chunk_size=200,
                                               chunk_overlap=40)),
                           batch_format="pyarrow").to_pandas()
    assert len(out) > 1
    assert out["chunk_id"].iloc[0] == "d1_0"


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=5))
def test_chunker_deterministic(seed):
    import random
    rng = random.Random(seed)
    words = [f"w{rng.randint(0, 50)}" for _ in range(500)]
    text = " ".join(words)
    a = chunk_text(text, 120, 30)
    b = chunk_text(text, 120, 30)
    assert a == b
