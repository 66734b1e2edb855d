"""Open-vocabulary page generator for the ``longtail_link`` workload.

Pages share the HTML shape of ``graphrag_rs_ray.sources.pages`` but their
people come from an unbounded, Zipf-distributed vocabulary of generated
names, so the extractor's per-token memos keep missing and the entity and
triple exchanges carry high-cardinality keys.

Every person identity ``k`` has a long first name and a long last name
(4 + 5 syllables), so two independent identities stay far below the
0.85 linking threshold on every metric.  A mention is a *planted typo*
with probability ``TYPO_RATE``: the 1st and 3rd vowels of the last name
are swapped.  Vowels carry no soundex code, so the typo keeps the
linking block key ``(PERSON, soundex(first name))`` and its similarity
to the original (two edits over ~20 letters) clears 0.85: which pairs
should link is known by construction (``planted_pairs``).
"""

from __future__ import annotations

import datetime as _dt
import hashlib

import numpy as np
import pyarrow as pa

# Bump when the staged pages change; it keys the staging cache.
GENERATOR_VERSION = 1

TYPO_RATE = 0.1
# Assumed, not fitted to a name corpus: an exponent just above 1 gives a
# heavy tail of once-seen names.  The run record reports what it yields
# per slice (``names_per_mention``).
ZIPF_A = 1.1
MAX_IDENTITY = 50_000_000

_CONS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"

ORGS = ("Acme", "Globex", "Initech", "Umbrella", "Stark", "Wayne",
        "Cyberdyne", "Tyrell", "Wonka", "Hooli", "Vandelay", "Prestige")
CITIES = ("New York", "London", "Paris", "Tokyo", "Berlin", "Washington",
          "Boston", "Chicago", "California", "United States")
FILLERS = (
    "The weather on Monday and Tuesday stayed calm over the valley.",
    "Some more plain filler text follows here with nothing notable inside.",
    "Numbers and tables continued for several pages without interruption.",
)
EPOCH = _dt.datetime(2024, 1, 1)
N_SITES = 1000


def _word(seed: int, k: int, part: str, n_syll: int) -> str:
    h = hashlib.blake2b(f"{seed}:{part}:{k}".encode(), digest_size=16).digest()
    cs = [_CONS[b % len(_CONS)] for b in h[:n_syll]]
    vs = [b % len(_VOWELS) for b in h[n_syll:2 * n_syll]]
    if vs[0] == vs[2]:                 # keep the planted vowel swap real
        vs[2] = (vs[2] + 1) % len(_VOWELS)
    return "".join(c + _VOWELS[v] for c, v in zip(cs, vs)).capitalize()


def typo(word: str) -> str:
    """Swap the 1st and 3rd vowels (positions 1 and 5 of a CV-syllable
    word): two edits, soundex unchanged."""
    out = list(word)
    out[1], out[5] = out[5], out[1]
    return "".join(out)


def identity_name(seed: int, k: int, typo_variant: bool = False) -> str:
    last = _word(seed, k, "last", 5)
    return f"{_word(seed, k, 'first', 4)} {typo(last) if typo_variant else last}"


def _person(rng: np.random.Generator, seed: int) -> str:
    k = int(min(rng.zipf(ZIPF_A), MAX_IDENTITY))
    return identity_name(seed, k, rng.random() < TYPO_RATE)


def page_record(i: int, seed: int) -> dict:
    rng = np.random.Generator(np.random.PCG64((seed << 32) ^ i ^ 0x10E6))
    p1, p2, p3 = (_person(rng, seed) for _ in range(3))
    org = ORGS[int(rng.integers(len(ORGS)))]
    org2 = ORGS[int(rng.integers(len(ORGS)))]
    city = CITIES[int(rng.integers(len(CITIES)))]
    # every sentence ends on a lowercase word, so the next sentence's
    # leading name never pairs with the previous sentence's last word
    sentences = [
        f"{p1} works for {org} Inc in {city} today.",
        f"{p2} married {p3} last year.",
        f"{org2} Corp is headquartered in {city} since the merger.",
    ]
    for _ in range(int(rng.integers(2, 5))):
        sentences.append(FILLERS[int(rng.integers(len(FILLERS)))])
    slug = hashlib.blake2b(f"lt:{seed}:{i}".encode(), digest_size=6).hexdigest()
    body = "\n".join(f"<p>{s}</p>" for s in sentences)
    html = (f"<html>\n<body>\n<h1>profile {i}</h1>\n"
            f"<h2>section {i % 7}</h2>\n{body}\n</body>\n</html>")
    return {
        "url": f"https://site{i % N_SITES}.example/{slug}",
        "warc_ts": EPOCH + _dt.timedelta(seconds=int(i)),
        "html": html.encode("utf-8"), "text": "", "lang": "en",
        "title": f"Profile {slug}",
    }


def pages_table(start: int, n: int, seed: int) -> pa.Table:
    from graphrag_rs_ray.sources.pages import PAGES_SCHEMA
    return pa.Table.from_pylist([page_record(i, seed)
                                 for i in range(start, start + n)],
                                schema=PAGES_SCHEMA)


def planted_pairs(entity_names: dict[str, str]) -> list[tuple[str, str]]:
    """(typo entity_id, original entity_id) pairs whose both sides occur
    among ``entity_names`` (entity_id -> display name)."""
    from graphrag_rs_ray.functions.entities import entity_id_for
    ids = set(entity_names)
    pairs = []
    for eid, name in entity_names.items():
        parts = name.split(" ")
        if len(parts) != 2 or len(parts[1]) != 10:   # not a generated name
            continue
        orig = entity_id_for(f"{parts[0]} {typo(parts[1])}", "PERSON")
        if orig != eid and orig in ids and eid < orig:
            pairs.append((eid, orig))
    return pairs
