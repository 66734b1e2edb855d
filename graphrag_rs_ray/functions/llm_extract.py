r"""LLM extraction response parsing kernels — port of
``entity/llm_extractor.rs`` (the structured-JSON half of the LLM
extractor; the Ollama transport itself is network-only and out of
sandbox scope — ``stages/gleaning.py`` drives the same loop against the
deterministic mock).

Pinned semantics:

* ``parse_extraction_response`` (``:184-224``): four strategies in
  order — direct JSON, markdown code fence, jsonfixer repair
  (``mock_llm.repair_json`` is the sandbox stand-in), first-``{`` to
  last-``}`` slice (raw then repaired) — and an EMPTY output (never an
  error) when everything fails.
* ``extract_json_from_markdown`` (``:226-248``): a \`\`\`json fence
  first, then any \`\`\` fence whose trimmed body starts with ``{`` or
  ``[``.
* ``find_json_in_text`` (``:250-260``): first ``{`` to last ``}``,
  requiring end > start.
* ``normalize_llm_name`` (``:393-400``): lowercase, keep alphanumerics
  and underscores, then replace spaces with underscores — the filter
  has ALREADY dropped the spaces, so the replace is a no-op and
  "Tom Sawyer" → "tomsawyer".  The reference's own inline test
  (``:1090`` ``test_normalize_name``) expects "tom_sawyer", which its
  implementation cannot produce — the test sits behind disabled
  features and never runs.  We pin the IMPLEMENTATION (what a user's
  entity ids actually look like) and record the discrepancy here.
* ``find_llm_mentions`` (``:315-355``): non-overlapping exact scan at
  confidence 0.9; when none match, a case-insensitive rescan at 0.85.
* ``convert_to_entities`` (``:278-313``): id = ``{type}_{normalized}``,
  confidence pinned 0.9.
* ``convert_to_relationships`` (``:360-391``): source/target resolved
  case-insensitively against the extracted entity names; unmatched
  relationships are silently skipped; relation type = the DESCRIPTION
  field (a reference quirk — the strength drives confidence).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class LLMEntity:
    entity_id: str
    name: str
    entity_type: str
    confidence: float
    mentions: list[tuple[int, int, float]] = field(default_factory=list)


def extract_json_from_markdown(text: str) -> str | None:
    i = text.find("```json")
    if i != -1:
        start = i + 7
        end = text.find("```", start)
        if end != -1:
            return text[start:end].strip()
    i = text.find("```")
    if i != -1:
        start = i + 3
        end = text.find("```", start)
        if end != -1:
            candidate = text[start:end].strip()
            if candidate.startswith(("{", "[")):
                return candidate
    return None


def find_json_in_text(text: str) -> str | None:
    start = text.find("{")
    if start != -1:
        end = text.rfind("}")
        if end > start:
            return text[start:end + 1]
    return None


def _try_parse(js: str) -> dict | None:
    try:
        obj = json.loads(js)
    except ValueError:
        return None
    if not isinstance(obj, dict):
        return None
    ents, rels = [], []
    try:
        for e in obj.get("entities", []):
            ents.append({"name": str(e["name"]),
                         "type": str(e["type"]),
                         "description": str(e.get("description", ""))})
        for r in obj.get("relationships", []):
            rels.append({"source": str(r["source"]),
                         "target": str(r["target"]),
                         "description": str(r.get("description", "")),
                         "strength": float(r.get("strength", 0.0))})
    except (KeyError, TypeError, ValueError):
        return None
    return {"entities": ents, "relationships": rels}


def parse_extraction_response(response: str) -> dict:
    """Never raises; empty output when every strategy fails."""
    from .mock_llm import repair_json

    out = _try_parse(response)
    if out is not None:
        return out
    md = extract_json_from_markdown(response)
    if md is not None:
        out = _try_parse(md)
        if out is not None:
            return out
    out = _try_parse(repair_json(response))
    if out is not None:
        return out
    found = find_json_in_text(response)
    if found is not None:
        out = _try_parse(found) or _try_parse(repair_json(found))
        if out is not None:
            return out
    return {"entities": [], "relationships": []}


def normalize_llm_name(name: str) -> str:
    kept = "".join(c for c in name.lower() if c.isalnum() or c == "_")
    return kept.replace(" ", "_")    # no-op by construction (see module
                                     # docstring) — kept for fidelity


def find_llm_mentions(name: str, text: str) -> list[tuple[int, int, float]]:
    mentions: list[tuple[int, int, float]] = []
    start = 0
    while True:
        pos = text.find(name, start)
        if pos == -1:
            break
        mentions.append((pos, pos + len(name), 0.9))
        start = pos + len(name)
    if not mentions:
        nl, tl = name.lower(), text.lower()
        start = 0
        while True:
            pos = tl.find(nl, start)
            if pos == -1:
                break
            mentions.append((pos, pos + len(name), 0.85))
            start = pos + len(name)
    return mentions


def convert_to_entities(entity_data: list[dict],
                        chunk_text: str) -> list[LLMEntity]:
    out = []
    for d in entity_data:
        out.append(LLMEntity(
            entity_id=f"{d['type']}_{normalize_llm_name(d['name'])}",
            name=d["name"],
            entity_type=d["type"],
            confidence=0.9,
            mentions=find_llm_mentions(d["name"], chunk_text)))
    return out


def convert_to_relationships(rel_data: list[dict],
                             entities: list[LLMEntity]) -> list[dict]:
    by_name = {e.name.lower(): e for e in entities}
    rels = []
    for r in rel_data:
        src = by_name.get(r["source"].lower())
        dst = by_name.get(r["target"].lower())
        if src is not None and dst is not None:
            rels.append({"source": src.entity_id,
                         "target": dst.entity_id,
                         "relation_type": r["description"],
                         "confidence": float(r["strength"])})
    return rels
