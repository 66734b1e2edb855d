"""Deterministic synthetic Common-Crawl-style `pages` table.

Schema per BASELINE.json input_hint:
    url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string

Generation is seed-fixed and *per-index* deterministic, so it can run
distributed (``ray.data.range(n).map_batches``) and any page can be
re-generated in isolation (goldens, debugging).  Entity-bearing sentences
follow FIXTURES.md §1 so planted facts are known by construction:

- "<First> <Last> works for <Org> Inc in <City>."      → WORKS_FOR etc.
- "Dr. <Last> is a professor at University of <X>."    → title person + org
- "<Org> Corp is headquartered in <Loc>."              → HEADQUARTERED_IN
- "<First> <Last> married <First2> <Last2>."           → MARRIED_TO
- stop-listed capitalized fillers as negative controls.

A configurable fraction of pages mention HUB entities (same few subjects
everywhere) to exercise canonicalization skew, mirroring the north star's
Wikipedia/Facebook-style hot keys.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import os

import numpy as np
import pyarrow as pa

FIRST_NAMES = (
    "John", "Mary", "Robert", "Linda", "Michael", "Susan", "William", "Karen",
    "David", "Nancy", "Richard", "Betty", "Joseph", "Helen", "Thomas", "Sandra",
    "Charles", "Donna", "Daniel", "Carol", "Matthew", "Ruth", "Anthony", "Sharon",
)
LAST_NAMES = (
    "Smith", "Johnson", "Williamson", "Brown", "Jones", "Garcia", "Miller",
    "Davis", "Rodriguez", "Martinez", "Anderson", "Taylor", "Thompson",
    "Harrison", "Clarkson", "Robinson", "Crawford", "Stanley", "Bradford",
    "Whitley", "Hampton", "Norton", "Weston", "Milton",
)
ORG_NAMES = (
    "Acme", "Globex", "Initech", "Umbrella", "Stark", "Wayne", "Cyberdyne",
    "Tyrell", "Wonka", "Hooli", "Vandelay", "Prestige",
)
# Locations the reference's gazetteer detects (entity/mod.rs:554-565)
CITIES = ("New York", "London", "Paris", "Tokyo", "Berlin", "Washington",
          "Boston", "Chicago", "California", "United States")
UNI_SUBJECTS = ("London", "Paris", "Tokyo", "Berlin", "Boston", "Chicago")

# Hub entities: a handful of subjects mentioned by a large fraction of pages.
HUB_PERSONS = ("Walter Hampton", "Grace Milton")
HUB_ORG_SENTENCE = "Megacorp Inc is headquartered in New York."

FILLERS = (
    "Chapter Saturday brought further Adventures during the Complete review.",
    "The weather on Monday and Tuesday stayed calm over the valley.",
    "Some more plain filler text follows here with nothing notable inside.",
    "Numbers and tables continued for several pages without interruption.",
)

N_SITES = 1000
EPOCH = _dt.datetime(2024, 1, 1)


def _rng_for(i: int, seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64((seed << 32) ^ i))


def page_record(i: int, seed: int = 42, hub_fraction: float = 0.2) -> dict:
    """Deterministically generate page ``i``."""
    rng = _rng_for(i, seed)
    first = FIRST_NAMES[int(rng.integers(len(FIRST_NAMES)))]
    last = LAST_NAMES[int(rng.integers(len(LAST_NAMES)))]
    first2 = FIRST_NAMES[int(rng.integers(len(FIRST_NAMES)))]
    last2 = LAST_NAMES[int(rng.integers(len(LAST_NAMES)))]
    org = ORG_NAMES[int(rng.integers(len(ORG_NAMES)))]
    org2 = ORG_NAMES[int(rng.integers(len(ORG_NAMES)))]
    city = CITIES[int(rng.integers(len(CITIES)))]
    uni = UNI_SUBJECTS[int(rng.integers(len(UNI_SUBJECTS)))]

    sentences = [
        f"{first} {last} works for {org} Inc in {city}.",
        f"Dr. {last2} is a professor at University of {uni}.",
        f"{org2} Corp is headquartered in {city}.",
        f"{first} {last} married {first2} {last2}.",
        FILLERS[int(rng.integers(len(FILLERS)))],
        FILLERS[int(rng.integers(len(FILLERS)))],
    ]
    if rng.random() < hub_fraction:
        hub = HUB_PERSONS[int(rng.integers(len(HUB_PERSONS)))]
        sentences.append(f"{hub} works for Megacorp Inc in New York.")
        sentences.append(HUB_ORG_SENTENCE)
    # pad the body so chunking has something to do
    n_extra = int(rng.integers(2, 6))
    for k in range(n_extra):
        sentences.append(FILLERS[int(rng.integers(len(FILLERS)))])

    slug = hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=6).hexdigest()
    url = f"https://site{i % N_SITES}.example/{slug}"

    lang_roll = rng.random()
    if lang_roll < 0.94:
        lang = "en"
    elif lang_roll < 0.96:
        lang, extra = "es", "El niño está aquí según la crónica."
        sentences.append(extra)
    elif lang_roll < 0.98:
        lang, extra = "pt", "A ação do coração não parou."
        sentences.append(extra)
    else:
        lang, extra = "fr", "Où est la bibliothèque à côté."
        sentences.append(extra)

    title = f"Site {i % N_SITES} report {slug}"
    body = "\n".join(f"<p>{s}</p>" for s in sentences)
    html = (f"<html>\n<body>\n<h1>Report on <em>{first} {last}</em></h1>\n"
            f"<h2>Section {i % 7}</h2>\n{body}\n</body>\n</html>")

    # ~10% of pages arrive pre-extracted (html absent, text present)
    if rng.random() < 0.1:
        from ..functions.html import extract_text_content
        return {
            "url": url, "warc_ts": EPOCH + _dt.timedelta(seconds=int(i)),
            "html": None, "text": extract_text_content(html), "lang": lang,
            "title": title,
        }
    return {
        "url": url, "warc_ts": EPOCH + _dt.timedelta(seconds=int(i)),
        "html": html.encode("utf-8"), "text": "", "lang": lang, "title": title,
    }


PAGES_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()),
    ("text", pa.string()),
    ("lang", pa.string()),
    ("title", pa.string()),
])


def pages_table(n: int, seed: int = 42, start: int = 0,
                hub_fraction: float = 0.2) -> pa.Table:
    """Materialize pages [start, start+n) as one Arrow table (small n only)."""
    rows = [page_record(i, seed, hub_fraction) for i in range(start, start + n)]
    return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)


def read_pages_parquet(path: str, *, target_task_bytes: int = 8 << 20,
                       columns: list[str] | None = None):
    """Read a Parquet pages table with DATA-SIZED blocks.

    Ray's default parallelism heuristic picks block count from CPU count,
    not input size.  Sizing blocks by BYTES — ~``target_task_bytes`` of
    input per task, at least one per CPU, rounded up to a whole multiple
    of the CPU count so every wave is balanced — keeps task count
    proportional to data, the property that still holds at 100 TB.

    The default (8 MB of page bytes per task) was measured, not guessed,
    on the fused extract→chunk→extract→combine chain at 32 CPUs:

    - 100 k pages (82 MB): 32 blocks → 2.5 s vs 4.6 s at the default 128 —
      every downstream all-to-all exchange pays a per-block coordination
      cost, so at small inputs FEWER blocks win.
    - 1 M pages (820 MB): 128 × 6.4 MB blocks → 40 s stable, while
      32 × 26 MB blocks thrash (50–185 s, high variance): the fused
      chain's per-task transient heap is ~15× its input bytes (chunk
      rows + entity/triple emission + the whole-block combine buffer),
      so 32 concurrent ~0.4 GB heaps contend in the allocator/VM layer.
      Input-block bytes bound per-task memory; keep them single-digit MB
      for text-expansion stages.

    On a bigger cluster raise ``target_task_bytes`` only to bound total
    task count (100 TB / 8 MB = 12.5 M tasks); the per-task heap bound is
    the constraint that matters per node.

    Falls back to Ray's default when the size probe fails (e.g. remote
    filesystems without cheap stat).
    """
    import math

    import ray
    import ray.data as rd

    try:
        total = 0
        if os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                for f in files:
                    if f.endswith(".parquet"):
                        total += os.path.getsize(os.path.join(root, f))
        elif os.path.isfile(path):
            total = os.path.getsize(path)
        ncpu = int(ray.cluster_resources().get("CPU", 0)) if ray.is_initialized() \
            else (os.cpu_count() or 8)
        ncpu = max(1, ncpu)
        if total <= 0:
            return rd.read_parquet(path, columns=columns)
        raw = max(ncpu, math.ceil(total / target_task_bytes))
        blocks = math.ceil(raw / ncpu) * ncpu
        return rd.read_parquet(path, columns=columns, override_num_blocks=blocks)
    except (OSError, ValueError):
        return rd.read_parquet(path, columns=columns)


def pages_dataset(n: int, seed: int = 42, hub_fraction: float = 0.2,
                  override_num_blocks: int | None = None):
    """Lazy, distributed page generation: ``range(n)`` → per-index records.

    Generation happens inside map_batches tasks, so arbitrarily large
    synthetic corpora stream through the object store without ever being
    materialized on the driver.
    """
    import ray.data as rd

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_pylist()
        return pa.Table.from_pylist(
            [page_record(i, seed, hub_fraction) for i in ids],
            schema=PAGES_SCHEMA)

    base = rd.range(n, override_num_blocks=override_num_blocks)
    return base.map_batches(gen, batch_format="pyarrow", batch_size=1024)
