"""Run the HumMer benchmark.

Usage, from the repository root::

    python3 hummerbench/run.py --workload students --seed 1 --seconds 15 --trace 0
    python3 hummerbench/run.py --workload all --runs 10 --seed 1 --out results.json
    python3 hummerbench/run.py --smoke

One run measures one workload for ``--seconds`` on inputs generated from
``--seed``, checks every output, prints each metric with its unit and ends
standard output with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace
0``, its per-layer metrics with ``--trace 1``.  The exit code is 0 only when
every output was correct.

A run pins itself and every process it starts to one CPU and reports its
times scaled to a reference CPU speed (``gauge.py``); the measured medians
and the scale factor are printed beside the metrics.

``--runs N`` repeats each workload with seeds ``seed .. seed+N-1``;
``--out FILE`` appends the runs to a results file for ``compare.py``.
``--smoke`` runs every workload untraced and traced at toy sizes, then
compares the results with themselves, in well under a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".hummerbench"
BENCHMARK = ROOT / "BENCHMARK.json"
SOURCE = ROOT / "src"
#: Ceiling on one in-process child; a run must finish well inside 180 s.
CHILD_TIMEOUT_S = 150


def child_env() -> Dict[str, str]:
    """Environment for child processes: the program and this package importable."""
    env = dict(os.environ)
    path = [str(SOURCE), str(ROOT)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def source_state() -> Dict[str, Optional[str]]:
    """The measured commit and a digest of uncommitted changes to the program.

    A change is usually measured as uncommitted edits on top of its parent,
    so the commit alone does not tell the two apart; ``src_changes`` digests
    ``git diff HEAD`` and the untracked files under ``src`` (``None`` when
    there are none).  Both are ``None`` outside a git checkout.
    """
    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              check=True).stdout

    try:
        sha = git("rev-parse", "HEAD").decode().strip()
        diff = git("diff", "HEAD", "--binary", "--", "src")
        untracked = git("ls-files", "--others", "--exclude-standard", "-z", "--", "src")
    except (OSError, subprocess.CalledProcessError):
        return {"git_sha": None, "src_changes": None}
    changes = hashlib.sha256(diff)
    for path in sorted(filter(None, untracked.split(b"\0"))):
        changes.update(path + b"\0" + (ROOT / path.decode()).read_bytes())
    dirty = bool(diff or untracked)
    return {"git_sha": sha, "src_changes": changes.hexdigest() if dirty else None}


def environment(seconds: float) -> Dict[str, Any]:
    return {
        **source_state(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# -- one run ----------------------------------------------------------------------------


def measure_inprocess(workload, work: Path, seed: int, seconds: float, trace: bool,
                      smoke: bool) -> Dict[str, Any]:
    """Generate the inputs here, measure them in a fresh child process."""
    from hummerbench.workloads import WARMUP_ENTITIES, WARMUP_INDEX, write_input

    entities = workload.smoke_entities if smoke else workload.entities
    inputs = [
        write_input(workload.generate(seed, index, entities), work / f"input-{index}")
        for index in range(workload.inputs)
    ]
    warmup = write_input(
        workload.generate(seed, WARMUP_INDEX, min(entities, WARMUP_ENTITIES)), work / "warmup"
    )
    job = {
        "workload": workload.name,
        "seconds": seconds,
        "trace": trace,
        "inputs": inputs,
        "warmup": warmup,
        "trace_file": str(WORK / f"trace-{workload.name}.json"),
        "out": str(work / "out.json"),
    }
    (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, str(ROOT / "hummerbench" / "inprocess.py"), str(work / "job.json")],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"workload process failed:\n{completed.stderr[-2000:]}")
    return json.loads((work / "out.json").read_text(encoding="utf-8"))


#: Units of the metrics that :mod:`hummerbench.gauge` scales to the reference speed.
TIME_UNITS = ("s", "ms", "us")


def end_to_end(samples: Dict[str, Any]) -> Dict[str, float]:
    from hummerbench.gauge import scaled
    from hummerbench.stats import median

    readings = samples["reference_s"]
    return {
        "setup_s": median(scaled(samples["setup_s"], readings)),
        "fuse_s": median(scaled(samples["fuse_s"], readings)),
        "peak_rss_mb": samples["peak_rss_mb"],
        "fusion_correctness": samples["quality"].get("fusion_correctness", 0.0),
    }


def per_layer(samples: Dict[str, Any]) -> Dict[str, float]:
    from hummerbench.gauge import scale
    from hummerbench.layers import client_metrics

    metrics = client_metrics([], [], [], [])
    metrics.update(samples["layers"])
    factor = scale(samples["reference_s"])
    for metric in load_benchmark()["per_layer"]:
        if metric["unit"] in TIME_UNITS and metric["name"] in metrics:
            metrics[metric["name"]] *= factor
    quality = samples["quality"]
    for name in ("pair_precision", "pair_recall", "pair_f1"):
        metrics[f"quality.{name}"] = quality.get(name, 0.0)
    metrics["trace.overhead"] = samples["overhead"] - 1
    return metrics


def run_one(name: str, seed: Optional[int], seconds: float, trace: bool,
            smoke: bool = False) -> Dict[str, Any]:
    """Measure one workload once; returns the run record."""
    from hummerbench import service
    from hummerbench.stats import median, tail
    from hummerbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds, "smoke": smoke,
    }
    work = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    available = os.sched_getaffinity(0)
    try:
        # Everything a run starts inherits one CPU: the gauge then reads the
        # CPU the work runs on (each CPU slows down on its own), and the
        # service's requests are not handed across CPUs.
        os.sched_setaffinity(0, {max(available)})
        if workload.kind == "service":
            samples = service.measure(
                workload, ROOT, child_env(), work, seed, seconds, trace, smoke,
                WORK / f"trace-{name}.json",
            )
        else:
            samples = measure_inprocess(workload, work, seed, seconds, trace, smoke)
        metrics = per_layer(samples) if trace else end_to_end(samples)
        record["reference_s"] = {
            "count": len(samples["reference_s"]), "median": median(samples["reference_s"]),
        }
        if not trace:
            record["timings"] = {}
            for name in ("setup_s", "fuse_s"):
                seconds = [value for value, _ in samples[name]]
                record["timings"][name] = {
                    "count": len(seconds), "median": median(seconds), "tail": tail(seconds),
                }
        record["digests"] = samples["digests"]
        failures = list(samples["failures"])
        attempted = samples["attempted"]
    except Exception as error:  # a run that cannot finish reports, never hangs
        metrics, failures, attempted = {}, [f"run aborted: {error}"], 1
    finally:
        os.sched_setaffinity(0, available)
        shutil.rmtree(work, ignore_errors=True)
    expected = [metric["name"] for metric in load_benchmark()["per_layer" if trace else "end_to_end"]]
    if metrics and sorted(metrics) != sorted(expected):
        failures.append(f"reported metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}")
    record.update(
        correct=not failures,
        attempted=max(attempted, 1),
        failed=len(failures),
        failures=failures,
        metrics=metrics,
    )
    return record


# -- output -----------------------------------------------------------------------------


def load_benchmark() -> Dict[str, Any]:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def result_line(record: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON result object of one run, units from BENCHMARK.json."""
    benchmark = load_benchmark()
    units = {
        metric["name"]: metric["unit"]
        for metric in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in record["metrics"].items()
        },
    }


def print_run(record: Dict[str, Any]) -> None:
    from hummerbench.gauge import REFERENCE_S

    line = result_line(record)
    mode = "traced" if record["trace"] else "untraced"
    print(f"{record['workload']}  seed {record['seed']}  {mode}  {record['seconds']} s")
    for name, metric in line["metrics"].items():
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}")
    reference = record.get("reference_s")
    if reference:
        print(f"  machine gauge: kernel median {1000 * reference['median']:.3f} ms over "
              f"{reference['count']} readings; times above are scaled per sample to the "
              f"{1000 * REFERENCE_S:g} ms reference, by {REFERENCE_S / reference['median']:.4f} "
              "over the run")
    for name, timing in record.get("timings", {}).items():
        highest = timing["tail"]
        supported = f", p{100 * highest[0]:.0f} {highest[1]:.6g} s" if highest else ""
        print(f"  {name}: measured median {timing['median']:.6g} s of {timing['count']} "
              f"samples{supported}")
    print(f"  attempted {record['attempted']}, failed {record['failed']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    print(json.dumps(line), flush=True)


def save(path: Path, records: List[Dict[str, Any]], seconds: float) -> None:
    """Append *records* to the results file at *path* (one program state per file)."""
    current = environment(seconds)
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
        recorded = data["environment"]
        if any(recorded.get(key) != current[key] for key in ("git_sha", "src_changes")):
            raise SystemExit(f"{path} holds runs of another program state; write a new file")
    else:
        data = {"environment": current, "runs": []}
    data["runs"].extend(records)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


# -- entry point ------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, with consecutive seeds")
    parser.add_argument("--out", type=Path, default=None, help="append runs to this results file")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, untraced and traced, at toy sizes, then compare")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SOURCE / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    # numpy's OpenBLAS would start a thread per CPU in this process and in
    # every child, competing with the measured work on a 2-vCPU machine
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from hummerbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r} (known: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    if args.smoke:
        from hummerbench import compare

        seconds = 1.0
        records = [run_one(name, None, seconds, trace, smoke=True)
                   for trace in (False, True) for name in names]
        for record in records:
            print_run(record)
        path = WORK / "smoke.json"
        path.unlink(missing_ok=True)
        save(path, records, seconds)
        compare.main([str(path), str(path)])
        return 0 if all(record["correct"] for record in records) else 1

    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    records = []
    for name in names:
        first = WORKLOADS[name].default_seed if args.seed is None else args.seed
        for run in range(args.runs):
            record = run_one(name, first + run, seconds, bool(args.trace))
            print_run(record)
            records.append(record)
    if args.out is not None:
        save(args.out, records, seconds)
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
