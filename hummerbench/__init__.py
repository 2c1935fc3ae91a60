"""End-to-end and per-layer benchmark of the HumMer pipeline and service.

Run ``python3 hummerbench/run.py --help`` from the repository root; see
``hummerbench/README.md`` for the workloads, metrics and comparison rules.
"""
