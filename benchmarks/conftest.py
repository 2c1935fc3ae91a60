"""Shared helpers for the experiment benchmarks.

Each ``bench_*.py`` file regenerates one table or figure of the reproduction
(see DESIGN.md, "Per-experiment index").  Every benchmark prints the rows it
measured — the printed tables are the artefacts recorded in EXPERIMENTS.md —
and wraps a representative unit of work in pytest-benchmark for timing.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def pytest_addoption(parser):
    """Benchmark knobs, used by the CI smoke job (see .github/workflows/ci.yml)."""
    group = parser.getgroup("hummer-benchmarks")
    group.addoption(
        "--e2-cluster-json",
        action="store",
        default=None,
        help="write the E2 clustering-strategy quality series (precision / "
        "recall per strategy on clean vs chained data) to this JSON file "
        "(uploaded as a CI artifact)",
    )
    group.addoption(
        "--e4-warm-json",
        action="store",
        default=None,
        help="write the E4 warm-vs-cold prepared-source timings to this "
        "JSON file (uploaded as a CI artifact)",
    )
    group.addoption(
        "--e4-warm-entities",
        action="store",
        default=None,
        help="comma-separated entity counts for the E4 warm-vs-cold series "
        "(overrides the built-in sizes for CI smoke runs)",
    )
    group.addoption(
        "--e4-columnar-entities",
        action="store",
        default=None,
        help="comma-separated entity counts for the E4 columnar-scoring "
        "series (overrides the built-in 1k/5k/10k sizes for CI smoke runs)",
    )
    group.addoption(
        "--e4-columnar-json",
        action="store",
        default=None,
        help="write the E4 per-pair vs batched columnar scoring timings to "
        "this JSON file (uploaded as a CI artifact)",
    )
    group.addoption(
        "--e4-match-entities",
        action="store",
        default=None,
        help="comma-separated entity counts for the E4 matching-scale series "
        "(overrides the built-in 1k/5k/10k sizes for CI smoke runs)",
    )
    group.addoption(
        "--e4-match-json",
        action="store",
        default=None,
        help="write the E4 matching-scale timings and seed-scoring counters "
        "to this JSON file (uploaded as a CI artifact)",
    )


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Render one experiment table to stdout (captured with ``pytest -s``)."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered_rows.append([
            f"{cell:.3f}" if isinstance(cell, float) else str(cell) for cell in row
        ])
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    print(f"\n=== {title} ===")
    print(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        print(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
