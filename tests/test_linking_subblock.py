"""OPT-IN ``LinkingConfig.max_block_size`` sub-blocking (round-4 verdict
task 1): a (type, soundex) block larger than the bound is split by
(first-2-chars, length-band) of the normalized name BEFORE greedy
clustering, bounding the per-task quadratic.  The faithful path
(``max_block_size=None``, the default) is byte-identical to before and
stays oracle-gated via ``kg_entities_fuzzy``; these tests pin the
bounded path's semantics: sub-blocked output == the union of greedy
clustering over each sub-block, and blocks under the bound are
untouched."""

import pyarrow as pa
import pytest
import ray.data as rd

from graphrag_rs_ray.functions.similarity import (
    LinkingConfig,
    greedy_cluster,
    normalize_string,
    soundex,
)
from graphrag_rs_ray.stages.linking import (
    _sub_block_key,
    add_block_key,
    compute_links_ds,
)


def _ents_table(rows):
    return pa.table({
        "entity_id": pa.array([r[0] for r in rows], pa.string()),
        "name": pa.array([r[1] for r in rows], pa.string()),
        "type": pa.array([r[2] for r in rows], pa.string()),
        "conf": pa.array([r[3] for r in rows], pa.float32()),
    })


# one dense phonetic family: soundex("Smith") == soundex("Smyth") ==
# soundex("Smithe") == S530 — all land in one (PERSON, S530) block
_DENSE = [
    ("e01", "Smith", "PERSON", 0.9),
    ("e02", "Smyth", "PERSON", 0.8),
    ("e03", "Smithe", "PERSON", 0.7),
    ("e04", "Smoot", "PERSON", 0.9),
    ("e05", "Samuel Smith", "PERSON", 0.6),
    ("e06", "Smit", "PERSON", 0.5),
    ("e07", "Sandy", "PERSON", 0.4),   # also S530, but prefix "sa"
]
_SPARSE = [
    ("e10", "Acme Corp", "ORG", 0.9),
    ("e11", "Acme Corporation", "ORG", 0.8),
]


def _links_dict(links_ds):
    out = {}
    for b in links_ds.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            out.update(zip(b.column("entity_id").to_pylist(),
                           b.column("canonical_id").to_pylist()))
    return out


def _expected_subblocked(rows, cfg):
    """Driver-side expectation: group by (type, soundex) key; blocks
    over the bound are re-grouped by _sub_block_key; greedy per group."""
    blocks: dict = {}
    for eid, name, typ, conf in rows:
        key = f"{typ}|{soundex(name.split(' ', 1)[0])}"
        blocks.setdefault(key, []).append((eid, name, conf))
    links = {}
    for key, items in blocks.items():
        if cfg.max_block_size is not None and len(items) > cfg.max_block_size:
            subs: dict = {}
            for eid, name, conf in items:
                subs.setdefault(_sub_block_key(name, cfg), []).append(
                    (eid, name, conf))
            for sub in subs.values():
                links.update(greedy_cluster(sub, cfg))
        else:
            links.update(greedy_cluster(items, cfg))
    return links


def test_subblock_key_deterministic():
    cfg = LinkingConfig(max_block_size=4)
    assert _sub_block_key("Smith", cfg) == "sm|0"
    assert _sub_block_key("Smithsonian Institution", cfg) == \
        f"sm|{len(normalize_string('Smithsonian Institution', cfg)) // 8}"
    assert _sub_block_key("", cfg) == "|0"
    assert _sub_block_key(None, cfg) == "|0"


def test_add_block_key_dense_rewrite():
    t = _ents_table(_DENSE)
    cfg = LinkingConfig(max_block_size=4)
    plain = add_block_key(t)
    # Samuel -> S540; the five Sm* names share S530
    assert set(plain.column("block_key").to_pylist()) == \
        {"PERSON|S530", "PERSON|S540"}
    dense = add_block_key(t, frozenset({"PERSON|S530"}), cfg)
    keys = dense.column("block_key").to_pylist()
    s530 = [k for k in keys if k != "PERSON|S540"]
    assert all(k.startswith("PERSON|S530§") for k in s530)
    assert len(set(s530)) > 1          # the dense block actually split
    assert "PERSON|S540" in keys       # non-dense key untouched
    # a key not in the dense set is left alone
    other = add_block_key(_ents_table(_SPARSE),
                          frozenset({"PERSON|S530"}), cfg)
    assert set(other.column("block_key").to_pylist()) == \
        {f"ORG|{soundex('Acme')}"}


def test_bounded_path_equals_per_subblock_greedy(ray_session):
    rows = _DENSE + _SPARSE
    cfg = LinkingConfig(max_block_size=4)
    got = _links_dict(compute_links_ds(
        rd.from_arrow(_ents_table(rows)), cfg))
    assert got == _expected_subblocked(rows, cfg)
    # the dense block DID split: per-sub-block work is bounded, so the
    # bounded map must be a subset-or-divergent variant, never a
    # superset, of the faithful map
    faithful = _links_dict(compute_links_ds(
        rd.from_arrow(_ents_table(rows)), LinkingConfig()))
    assert faithful == _expected_subblocked(rows, LinkingConfig())
    assert set(got) <= set(faithful) or got != faithful


def test_no_dense_blocks_identical_to_faithful(ray_session):
    """When no block exceeds the bound, the bounded path is bit-equal
    to the faithful path (no behavioural change for sane bounds)."""
    rows = _DENSE + _SPARSE
    got = _links_dict(compute_links_ds(
        rd.from_arrow(_ents_table(rows)),
        LinkingConfig(max_block_size=1000)))
    faithful = _links_dict(compute_links_ds(
        rd.from_arrow(_ents_table(rows)), LinkingConfig()))
    assert got == faithful


def test_default_config_has_no_bound():
    assert LinkingConfig().max_block_size is None


def test_oversized_block_is_logged(caplog):
    """A block still over ``max_block_size`` after sub-blocking is
    clustered whole, and the bucket clusterer logs its key and size."""
    from graphrag_rs_ray.stages.linking import make_block_clusterer

    rows = _DENSE[:3] + _SPARSE
    t = add_block_key(_ents_table(rows))
    with caplog.at_level("WARNING", logger="graphrag_rs_ray.stages.linking"):
        got = make_block_clusterer(LinkingConfig(max_block_size=2))(t)
    assert {r[0] for r in _DENSE[:3]} & set(
        got.column("entity_id").to_pylist())
    warned = [r.getMessage() for r in caplog.records
              if r.levelname == "WARNING"]
    assert len(warned) == 1
    assert "PERSON|S530" in warned[0] and " 3 " in warned[0]

    caplog.clear()
    with caplog.at_level("WARNING", logger="graphrag_rs_ray.stages.linking"):
        make_block_clusterer(LinkingConfig(max_block_size=3))(t)
        make_block_clusterer(LinkingConfig())(t)
    assert not caplog.records
