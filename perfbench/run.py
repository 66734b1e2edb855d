"""KG-indexing benchmark entry point.

    python3 perfbench/run.py --workload web_crawl --seed 1 --seconds 12 --trace 0

Runs from the repository root, builds nothing, and prints one JSON object
as the last line of standard output:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run.  Exit status is 1 when the written
graph does not match the reference, 2 when the run cannot start (for
example without the ``graphrag_rs_ray`` package next to this directory).
Each run also writes a record to ``.perfbench/records/``; render it with
``python3 perfbench/render.py <record.json>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pages", type=int, default=None,
                    help="pages per trial slice (default: the workload's)")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "graphrag_rs_ray")):
        print(f"perfbench: no graphrag_rs_ray package under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench.harness import WORKLOADS, Run
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out = Run(ROOT, WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace), pages=args.pages).execute()
    if out.pop("drift_flag"):
        print("perfbench: host speed drifted more than 15% during the run; "
              f"see {out['record']}", file=sys.stderr)
    out.pop("record")
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
