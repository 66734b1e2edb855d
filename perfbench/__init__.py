"""KG-indexing benchmark: workloads, correctness gate, tracing and replay.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
