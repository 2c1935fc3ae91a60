"""Measure one in-process workload run in a fresh process.

Usage (the runner does this; PYTHONPATH must hold ``src`` and the repository
root)::

    python3 hummerbench/inprocess.py JOB.json

The runner generates the inputs and writes the job; this process reads only
those CSV files, measures for the job's seconds, checks every output and
writes its samples to the job's ``out`` path.  Ground truth is loaded
beside the inputs but used only between timed regions.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from hummerbench.gauge import Gauge
from hummerbench.layers import layer_metrics, pipeline_hooks
from hummerbench.spans import Tracer
from hummerbench.stats import median
from hummerbench.workloads import WORKLOADS, Workload, check_digests, digest, evaluate, mean_quality

SETUP_REPEATS = 3


class Run:
    """Samples, outputs and failures of one measured run."""

    def __init__(self, workload: Workload, inputs: List[Dict[str, Any]], tracer: Optional[Tracer]):
        self.workload = workload
        self.inputs = inputs
        self.truths = [
            json.loads(Path(item["truth"]).read_text(encoding="utf-8")) for item in inputs
        ]
        self.tracer = tracer
        self.gauge = Gauge()
        self.config = workload.config()
        self.resolutions = dict(workload.resolutions) if workload.resolutions else None
        #: (seconds, gauge mark) per timed set-up and untraced fuse
        self.setup_s: List[Tuple[float, int]] = []
        self.fuse_s: List[Tuple[float, int]] = []
        self.overhead_ratios: List[float] = []
        self.digests: Dict[int, List[str]] = {index: [] for index in range(len(inputs))}
        self.qualities: Dict[int, Dict[str, float]] = {}
        self.failures: List[str] = []
        self.attempted = 0
        self.traced_fuses = 0

    def setup(self, index: int):
        """A fresh ``HumMer`` with the input's CSV files registered and loaded.

        Set up :data:`SETUP_REPEATS` times (each timed) and keep the last:
        a set-up is cheap next to a fuse, and more samples steady its median.
        """
        from repro import HumMer
        from repro.engine.io.csv_source import CsvSource

        sources = self.inputs[index]["sources"]
        mark = self.gauge.read()
        for _ in range(SETUP_REPEATS):
            self.attempted += 1
            gc.collect()
            started = time.perf_counter()
            hummer = HumMer(config=self.config)
            for alias, path in sources:
                hummer.register(alias, CsvSource(path, name=alias))
            for alias, _ in sources:
                hummer.relation(alias)
            self.setup_s.append((time.perf_counter() - started, mark))
        return hummer

    def fuse(self, hummer, index: int, traced: bool) -> float:
        """One timed fuse; its output is checked outside the timed region."""
        aliases = [alias for alias, _ in self.inputs[index]["sources"]]
        self.attempted += 1
        mark = self.gauge.read()
        gc.collect()
        installed = (
            self.tracer.installed(pipeline_hooks()) if traced else contextlib.nullcontext()
        )
        with installed:
            started = time.perf_counter()
            result = hummer.fuse(aliases, resolutions=self.resolutions)
            elapsed = time.perf_counter() - started
        if traced:
            self.traced_fuses += 1
        else:
            self.fuse_s.append((elapsed, mark))
        self.digests[index].append(digest(result.relation))
        if self.workload.kind == "warm" and result.summary().get("artifacts_rebuilt") != 0:
            self.failures.append(
                f"input {index}: warm fuse rebuilt {result.summary().get('artifacts_rebuilt')} artifacts"
            )
        if index not in self.qualities:
            quality, failures = evaluate(result, self.truths[index], self.workload.key)
            self.qualities[index] = quality
            self.failures.extend(f"input {index}: {failure}" for failure in failures)
        return elapsed

    def fuse_pair(self, hummer_factory, index: int, traced_first: bool) -> None:
        """An untraced and a traced fuse of the same input (the overhead pair)."""
        times = {}
        for traced in (traced_first, not traced_first):
            times[traced] = self.fuse(hummer_factory(), index, traced)
        self.overhead_ratios.append(times[True] / times[False])

    def attempt(self, step) -> None:
        try:
            step()
        except Exception:
            self.failures.append(traceback.format_exc(limit=3))

    def enough_repeats(self) -> bool:
        """Every input fused at least twice, so the digest check can bite."""
        return min(len(values) for values in self.digests.values()) >= 2


def measure_cold(run: Run, seconds: float) -> None:
    """Cold fuses, each on a fresh ``HumMer``, cycling through the inputs."""
    started = time.perf_counter()
    iteration = 0
    while time.perf_counter() - started < seconds or (
        not run.enough_repeats() and not run.failures
    ):
        index = iteration % len(run.inputs)
        if run.tracer is None:
            run.attempt(lambda: run.fuse(run.setup(index), index, traced=False))
        else:
            run.attempt(lambda: run.fuse_pair(lambda: run.setup(index), index, iteration % 2 == 1))
        iteration += 1


def measure_warm(run: Run, seconds: float) -> None:
    """Set-ups with eager preparation, each followed by warm re-fuses."""
    started = time.perf_counter()
    setups = 0
    while time.perf_counter() - started < seconds or (
        setups < len(run.inputs) and not run.failures
    ):
        index = setups % len(run.inputs)

        def refuses():
            hummer = run.setup(index)
            # a traced run fuses in untraced/traced pairs: same fuse count
            for refuse in range(0, run.workload.refuses, 2 if run.tracer else 1):
                if run.tracer is None:
                    run.fuse(hummer, index, traced=False)
                else:
                    run.fuse_pair(lambda: hummer, index, (setups + refuse // 2) % 2 == 1)

        run.attempt(refuses)
        setups += 1


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    workload = WORKLOADS[job["workload"]]
    tracer = Tracer() if job["trace"] else None
    run = Run(workload, job["inputs"], tracer)

    warmup = Run(workload, [job["warmup"]], None)
    warmup.attempt(lambda: warmup.fuse(warmup.setup(0), 0, traced=False))
    if warmup.failures:
        run.failures.append("warm-up failed: " + warmup.failures[0])

    measure = measure_warm if workload.kind == "warm" else measure_cold
    measure(run, job["seconds"])
    run.gauge.read()  # the reading after the last samples
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    run.failures.extend(check_digests(run.digests))
    layers = None
    if tracer is not None:
        trace = tracer.chrome_trace()
        Path(job["trace_file"]).write_text(json.dumps(trace), encoding="utf-8")
        layers = layer_metrics(trace["traceEvents"], run.traced_fuses)
    result = {
        "setup_s": run.setup_s,
        "fuse_s": run.fuse_s,
        "reference_s": run.gauge.readings,
        "overhead": median(run.overhead_ratios),
        "peak_rss_mb": peak_rss_mb,
        "quality": mean_quality([run.qualities[index] for index in sorted(run.qualities)]),
        "attempted": run.attempted,
        "failures": run.failures,
        "digests": {str(index): values[0] for index, values in run.digests.items() if values},
        "layers": layers,
    }
    Path(job["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
