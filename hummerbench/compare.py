"""Compare two results files written by ``run.py --out``.

Usage, from the repository root::

    python3 hummerbench/compare.py BASE.json NEW.json

Runs are paired by (workload, seed), so both files must hold the same seeds
of every workload they share; the tool refuses files whose seed sets differ
(exit code 2).  One row per (workload, end-to-end metric), with direction and
bound from ``BENCHMARK.json``:

* ``improved`` — the new run wins at least 9 of every 10 seed pairs (ties
  count for neither; at least 10 pairs) and the medians differ by more than
  the distance between the base runs' quartiles;
* ``unresolved`` — the base runs spread (quartile distance over median)
  wider than the bound, unless every new run reads better than every base
  run;
* ``regressed`` — the new median is worse than the base median by more
  than the bound;
* ``unchanged`` — otherwise.

Metrics in :data:`EXACT` are the program's output, not a measurement: the
same seed gives the same value, so they are gated per seed with no
tolerance — ``regressed`` when any seed reads worse, ``improved`` when some
seed reads better and none worse.  A row per workload reports on which seeds
the fused outputs' digests differ.

Per-layer metrics of traced runs follow as informational rows (median
change only).  Exit code 1 when any metric regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))

from hummerbench.stats import median, quartiles, spread  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9
#: End-to-end metrics that are deterministic per (workload, seed).
EXACT = ("fusion_correctness",)

#: workload -> seed -> run record
Runs = Dict[str, Dict[int, dict]]


def load_runs(path: str, traced: bool) -> Runs:
    """The correct runs of one kind, keyed by workload and seed."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    runs: Runs = {}
    for run in data["runs"]:
        if run["trace"] == traced and run["correct"]:
            runs.setdefault(run["workload"], {})[run["seed"]] = run
    return runs


def verdict(pairs: Sequence[Tuple[float, float]], better: str, bound: float,
            exact: bool = False) -> str:
    """The verdict on one metric from its (base, new) values per seed."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sum(1 for old, current in pairs if sign * (current - old) > 0)
    wins = sum(1 for old, current in pairs if sign * (current - old) < 0)
    if exact:
        return "regressed" if worse else "improved" if wins else "unchanged"
    base, new = [old for old, _ in pairs], [current for _, current in pairs]
    base_median, new_median = median(base), median(new)
    worsening = sign * (new_median - base_median) / abs(base_median) if base_median else 0.0
    q1, q3 = quartiles(base)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(new_median - base_median) > q3 - q1
        and worsening < 0
    ):
        return "improved"
    all_better = all(sign * (current - old) < 0 for old in base for current in new)
    if spread(base) > bound and not all_better:
        return "unresolved"
    if worsening > bound:
        return "regressed"
    return "unchanged"


def differing_outputs(base: Dict[int, dict], new: Dict[int, dict]) -> List[int]:
    """Seeds whose runs fused some shared input to a different digest."""
    seeds = []
    for seed in sorted(base):
        old, current = base[seed].get("digests", {}), new[seed].get("digests", {})
        if any(old[key] != current[key] for key in set(old) & set(current)):
            seeds.append(seed)
    return seeds


def main(argv: Sequence[str]) -> int:
    base_path, new_path = argv
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load_runs(base_path, False), load_runs(new_path, False)
    workloads = sorted(set(base) & set(new))
    for workload in workloads:
        if set(base[workload]) != set(new[workload]):
            print(f"error: {workload}: the files' correct runs have different seeds "
                  f"({sorted(base[workload])} vs {sorted(new[workload])}); "
                  "record both on the same seeds", file=sys.stderr)
            return 2
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload}: in one file only, not compared")

    regressed = False
    print(f"{'workload':16s} {'metric':20s} {'base median [q1, q3]':>32s} "
          f"{'new median':>12s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in workloads:
        seeds = sorted(base[workload])
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            pairs = [
                (base[workload][seed]["metrics"][name], new[workload][seed]["metrics"][name])
                for seed in seeds
            ]
            exact = name in EXACT
            outcome = verdict(pairs, metric["better"], metric["bound"], exact)
            regressed |= outcome == "regressed"
            q1, q3 = quartiles([old for old, _ in pairs])
            old, current = median([p[0] for p in pairs]), median([p[1] for p in pairs])
            change = (current - old) / abs(old) if old else 0.0
            bound = "exact" if exact else f"{metric['bound']:6.0%}"
            print(f"{workload:16s} {name:20s} "
                  f"{old:12.5g} [{q1:8.5g}, {q3:8.5g}] {current:12.5g} "
                  f"{change:+8.1%} {bound:>6s}  {outcome}")
        differing = differing_outputs(base[workload], new[workload])
        print(f"{workload:16s} {'outputs':20s} "
              + (f"differ on seeds {differing}" if differing
                 else f"identical on all {len(seeds)} seeds"))

    base_layers, new_layers = load_runs(base_path, True), load_runs(new_path, True)
    rows = [
        (workload, name, [r["metrics"][name] for r in base_layers[workload].values()],
         [r["metrics"][name] for r in new_layers[workload].values()])
        for workload in sorted(set(base_layers) & set(new_layers))
        for name in next(iter(base_layers[workload].values()))["metrics"]
    ]
    if rows:
        print("\nper-layer medians of traced runs (no verdict):")
        for workload, name, old_values, new_values in rows:
            old, current = median(old_values), median(new_values)
            change = f"{(current - old) / abs(old):+8.1%}" if old else "       -"
            print(f"{workload:16s} {name:40s} {old:12.5g} {current:12.5g} {change}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
