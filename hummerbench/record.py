"""Record the benchmark's two baseline sets.

Usage, from the repository root::

    python3 hummerbench/record.py [--seeds 10] [--out-dir hummerbench/results]

Records set 1, then set 2: each set runs every workload on seeds ``1..N``,
workload by workload, then once traced on seed 1.  Both sets see the same
program state, at different times, so ``compare.py`` between them shows
what the benchmark reports for identical code.  Each run is a separate
``run.py`` process, as a regression check makes it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))

from hummerbench.run import WORK, environment, load_benchmark  # noqa: E402


def run(workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    out = WORK / "record-run.json"
    out.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, str(ROOT / "hummerbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace)), "--out", str(out)],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=False,
    )
    return json.loads(out.read_text(encoding="utf-8"))["runs"][0]


def save(out_dir: Path, runs: Dict[int, List[Dict[str, Any]]], seconds: int) -> None:
    for number, records in runs.items():
        data = {"environment": environment(seconds), "runs": records}
        path = out_dir / f"baseline-{number}.json"
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="untraced seeds per workload")
    parser.add_argument("--out-dir", type=Path, default=ROOT / "hummerbench" / "results")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    WORK.mkdir(exist_ok=True)
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    plan = [(workload, seed, False) for workload in workloads
            for seed in range(1, args.seeds + 1)]
    plan += [(workload, 1, True) for workload in workloads]
    runs: Dict[int, List[Dict[str, Any]]] = {1: [], 2: []}
    for number in runs:
        for workload, seed, trace in plan:
            record = run(workload, seed, trace)
            runs[number].append(record)
            print(f"set {number} {workload} seed {seed}{' traced' if trace else ''}: "
                  f"correct {record['correct']}, "
                  f"fuse_s {record['metrics'].get('fuse_s', 0):.4f}", flush=True)
            save(args.out_dir, runs, benchmark["run_seconds"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
