"""Property gates for the fifth-session oracle-replay devices (pure
functions — no Ray, no staging).

These pin the EQUIVALENCES the generated SQL oracles rely on:
- the tag-strip automaton == the two-regex-pass replay used by the
  ``kg_extract_text`` oracle, over adversarial tag soup,
- the gleaning entity-merge fold == the first-candidate-at-max closed
  form the ``gleaning_triples`` oracle computes.
"""

import re
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from graphrag_rs_ray.functions.html import extract_text_content

WS = " \t\n\r\x0b\x0c"

# adversarial tag soup: unclosed tags, stray '>', nested '<', entities
SOUP = st.text(alphabet=string.ascii_letters + " <>/\n\t.!?'\"=-",
               max_size=200)


def _regex_replay(s: str) -> str:
    """The exact two-pass replay the kg_extract_text oracle runs in SQL."""
    return re.sub(r"<[^>]*(>|$)", "", s).replace(">", "").strip(WS)


@settings(max_examples=500, deadline=None)
@given(SOUP)
def test_tag_strip_automaton_equals_regex_replay(s):
    # sanitized domain (the oracle stages sanitized text)
    s = re.sub(r"[^\x09-\x0d\x20-\x7e]", "_", s)
    assert extract_text_content(s) == _regex_replay(s)


def _fold_merge(seed_dl: int, cand_dls: list[int]) -> int:
    """The gleaning sequential fold: replace iff strictly longer."""
    cur = seed_dl
    win = -1          # -1 = seed holds
    for i, dl in enumerate(cand_dls):
        if dl > cur:
            cur = dl
            win = i
    return win


def _closed_form(seed_dl: int, cand_dls: list[int]) -> int:
    """The oracle's closed form: first candidate at the max, if the max
    strictly beats the seed; else the seed."""
    if not cand_dls:
        return -1
    mx = max(cand_dls)
    if mx > seed_dl:
        return cand_dls.index(mx)
    return -1


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=30),
       st.lists(st.integers(min_value=0, max_value=30), max_size=12))
def test_gleaning_merge_fold_closed_form(seed_dl, cand_dls):
    assert _fold_merge(seed_dl, cand_dls) == _closed_form(seed_dl, cand_dls)


# ---- banded-similarity pruning (entity_linker perf path) ---------------

from graphrag_rs_ray.functions.entity_linker import (  # noqa: E402
    similar_at_least,
    similar_strictly_above,
    string_similarity,
)

NAMES = st.text(alphabet=string.ascii_letters + " .'-é", max_size=25)


@settings(max_examples=800, deadline=None)
@given(NAMES, NAMES, st.sampled_from([0.85, 0.68, 0.9, 0.5]))
def test_banded_similarity_decisions_exact(a, b, t):
    assert similar_at_least(a, b, t) == (string_similarity(a, b) >= t)
    assert similar_strictly_above(a, b, t) == (string_similarity(a, b) > t)
