"""Print a run record as a per-layer table.

    python3 perfbench/render.py .perfbench/records/web_crawl-s1-t1.json

For a traced record: each layer's busy (self) time per traced trial, its
share of the trial wall, and the counts it recorded, then the Ray Data
operators by wall time.  For an untraced record: the end-to-end metrics.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict


def render(record: dict) -> str:
    lines = [f"{record['workload']} seed={record['seed']} "
             f"trials={len(record['trials'])} "
             f"calib_ms={record['calib_ms_before']:.1f}->"
             f"{record['calib_ms_after']:.1f}"
             + (" DRIFT" if record["drift_flag"] else "")]
    lines += [f"  {k:<22} {v:>12.4f}" for k, v in record["end_to_end"].items()]
    layers = record.get("layers")
    if not layers:
        return "\n".join(lines)
    wall = sum(layers.values())
    counts: dict = defaultdict(lambda: defaultdict(int))
    n_traced = sum(1 for t in record["trials"] if t["traced"]) or 1
    for s in record["spans"]:
        c = counts[s["layer"]]
        c["spans"] += 1
        for key in ("rows_in", "rows_out"):
            c[key] += s.get(key, 0)
    lines.append(f"\n  {'layer':<14} {'self_s':>9} {'share':>7}  "
                 "spans/trial  rows_in/trial  rows_out/trial")
    for name, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        c = counts.get(name, {})
        lines.append(f"  {name:<14} {secs:>9.3f} {secs / wall:>7.1%}  "
                     f"{c.get('spans', 0) / n_traced:>11.0f}  "
                     f"{c.get('rows_in', 0) / n_traced:>13.0f}  "
                     f"{c.get('rows_out', 0) / n_traced:>14.0f}")
    lines.append(f"  {'(wall)':<14} {wall:>9.3f}")
    ops: dict = defaultdict(lambda: [0.0, 0.0, 0, 0])
    for o in record["ops"]:
        if o["op"] == "_dataset":
            continue
        acc = ops[o["op"]]
        acc[0] += o["wall_s"] / n_traced
        acc[1] += o["cpu_s"] / n_traced
        acc[2] += o["rows"] // n_traced
        acc[3] += o["bytes"] // n_traced
    lines.append(f"\n  {'operator (per trial)':<70} {'wall_s':>8} "
                 f"{'cpu_s':>8} {'rows':>9} {'MB':>8}")
    for name, (w, c, r, b) in sorted(ops.items(), key=lambda kv: -kv[1][0]):
        lines.append(f"  {name[:70]:<70} {w:>8.3f} {c:>8.3f} {r:>9} "
                     f"{b / 1e6:>8.2f}")
    per = record.get("per_layer", {})
    lines.append("")
    lines += [f"  {k:<36} {v:>14.4f}" for k, v in per.items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv:
        with open(path) as f:
            print(render(json.load(f)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
