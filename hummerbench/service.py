"""The service workload: closed-loop wizard sessions against ``repro.cli serve``.

The server is a child process (``python3 -m repro.cli serve --port 0
--data-dir DIR``); this process drives it in closed-loop rounds: in each
round :data:`CLIENTS` client threads run one session each, all at once, and
the next round starts when every session of this one ended.  Between rounds,
while the server is idle, the run reads its machine-speed gauge.
A session is the wizard as a user clicks through it: create a tenant, upload
three CSV files, prepare lazily, open a session, advance it one step at a
time (reading its status after each step), download the result as CSV, read
the tenant, delete the tenant.  All inputs are generated before timing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import select
import signal
import subprocess
import sys
import threading
import time
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from hummerbench.gauge import Gauge, scaled
from hummerbench.stats import median

CLIENTS = 2
#: Server spawns per run for the set-up time (the last one serves the load).
SETUP_SPAWNS = 7
#: Sessions every measured phase completes at least, so that each
#: percentile the service reports has ten samples beyond it.
MIN_SESSIONS = 40
#: No phase runs longer than this past its deadline, however few sessions
#: completed.
PHASE_GRACE_S = 60.0


class ServerProcess:
    """One server child: spawned, ready once ``/health`` answers 200."""

    def __init__(self, root: Path, env: Dict[str, str], data_dir: Path,
                 trace_file: Optional[Path] = None):
        serve = ["serve", "--port", "0", "--data-dir", str(data_dir)]
        if trace_file is None:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            argv = [sys.executable, str(root / "hummerbench" / "traced_server.py"),
                    str(trace_file), *serve]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            self.base_url = self._await_banner()
            self._await_health()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _await_banner(self, timeout: float = 60.0) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        banner = self.process.stdout.readline() if ready else ""
        if not banner.startswith("listening on "):
            raise RuntimeError(f"server did not start: {banner.strip()!r}")
        return banner.split()[-1]

    def _await_health(self, timeout: float = 30.0) -> None:
        from repro.service.client import ServiceClient

        client = ServiceClient(self.base_url, timeout=timeout)
        deadline = time.perf_counter() + timeout
        while True:
            try:
                client.health()
                return
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """Interrupt the server (a clean shutdown) and wait until it exits."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            raise RuntimeError("server ignored SIGINT and was killed")


@dataclass
class Load:
    """What the clients of one phase observed (appended under ``lock``)."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    read_s: List[float] = field(default_factory=list)
    write_s: List[float] = field(default_factory=list)
    advance_s: List[float] = field(default_factory=list)
    #: (input index, client, session seconds, result CSV, gauge mark) per
    #: completed session.
    sessions: List[Tuple[int, int, float, str, int]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0

    def record(self, kind: str, seconds: float) -> None:
        with self.lock:
            self.attempted += 1
            getattr(self, f"{kind}_s").append(seconds)

    def fail(self, message: str) -> None:
        with self.lock:
            self.failures.append(message)


def run_session(base_url: str, texts: Sequence[Tuple[str, str]], index: int,
                client_index: int, load: Load, steps: int, mark: int) -> None:
    from repro.service.client import ServiceClient

    client = ServiceClient(base_url)

    def call(kind: str, method, *args, **kwargs):
        started = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            load.record(kind, time.perf_counter() - started)

    started = time.perf_counter()
    try:
        call("write", client.create_tenant)
        for alias, text in texts:
            call("write", client.upload_csv, alias, text)
        call("write", client.prepare, mode="lazy")
        session = call("write", client.create_session, [alias for alias, _ in texts])["session"]
        for _ in range(steps):
            call("advance", client.advance, session)
            status = call("read", client.session_status, session)
        if not status["is_done"]:
            raise RuntimeError(f"session not done after {steps} steps: {status['current_step']}")
        csv = call("read", client.result_csv, session)
        call("read", client.tenant_status)
        call("write", client.delete_tenant)
    except Exception as error:
        load.fail(f"client {client_index} input {index}: {error!r}")
        if client.tenant is not None:
            with suppress(Exception):
                client.delete_tenant()
        return
    elapsed = time.perf_counter() - started
    with load.lock:
        load.sessions.append((index, client_index, elapsed, csv, mark))


def drive(base_url: str, pool: Sequence[Sequence[Tuple[str, str]]], seconds: float,
          steps: int, gauge: Gauge) -> Load:
    """Run rounds until *seconds* passed and enough sessions completed.

    Client *c* runs input ``(c + CLIENTS * round) mod len(pool)``.
    """
    load = Load()
    deadline = time.perf_counter() + seconds
    for round_index in itertools.count():
        mark = gauge.read()
        now = time.perf_counter()
        if load.failures or (now >= deadline and len(load.sessions) >= MIN_SESSIONS):
            return load
        if now >= deadline + PHASE_GRACE_S:
            load.fail(f"only {len(load.sessions)} sessions completed")
            return load
        threads = []
        for client_index in range(CLIENTS):
            index = (client_index + CLIENTS * round_index) % len(pool)
            threads.append(threading.Thread(
                target=run_session,
                args=(base_url, pool[index], index, client_index, load, steps, mark),
            ))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()


def reference_fuse(texts: Sequence[Tuple[str, str]]):
    """The in-process fuse a tenant's session must reproduce byte for byte."""
    from repro import HumMer
    from repro.engine.io.csv_source import relation_from_csv_text

    hummer = HumMer()
    for alias, text in texts:
        hummer.register(alias, relation_from_csv_text(text, name=alias))
    hummer.enable_prepare("lazy")
    hummer.prepare()
    return hummer.session([alias for alias, _ in texts]).run()


def check_outputs(load: Load, pool, datasets,
                  workload) -> Tuple[List[str], Dict[str, float], Dict[str, str]]:
    """Output checks and quality of one phase's sessions.

    Sessions of one input must agree byte for byte; the first session of
    each client must equal the in-process fuse of the same CSV text.
    Returns ``(failures, quality, digests)``, with fusion correctness from
    the service's own result CSVs, pair quality from the reference fuses and
    the SHA-256 of each input's result CSV.
    """
    from repro.engine.io.csv_source import relation_from_csv_text, relation_to_csv_text
    from repro.evaluation import evaluate_fusion
    from hummerbench.workloads import evaluate, mean_quality, truth_of

    failures = []
    by_input: Dict[int, str] = {}
    for index, _, _, csv, _ in load.sessions:
        if by_input.setdefault(index, csv) != csv:
            failures.append(f"input {index}: sessions returned different result CSVs")
    pair_qualities = []
    for client_index in range(CLIENTS):
        first = next((s for s in load.sessions if s[1] == client_index), None)
        if first is None:
            failures.append(f"client {client_index} completed no session")
            continue
        index, csv = first[0], first[3]
        result = reference_fuse(pool[index])
        if relation_to_csv_text(result.relation) != csv:
            failures.append(f"input {index}: service result differs from the in-process fuse")
        quality, problems = evaluate(result, truth_of(datasets[index]), workload.key)
        pair_qualities.append(quality)
        failures.extend(f"input {index}: {problem}" for problem in problems)
    correctness = [
        evaluate_fusion(
            relation_from_csv_text(csv, name="fused"),
            datasets[index].truth.clean_records,
            *workload.key,
        ).correctness
        for index, csv in sorted(by_input.items())
    ]
    quality = mean_quality(pair_qualities)
    quality["fusion_correctness"] = sum(correctness) / len(correctness) if correctness else 0.0
    digests = {
        str(index): hashlib.sha256(csv.encode("utf-8")).hexdigest()
        for index, csv in by_input.items()
    }
    return failures, quality, digests


def measure(workload, root: Path, env: Dict[str, str], work: Path, seed: int,
            seconds: float, trace: bool, smoke: bool, trace_file: Path) -> Dict[str, Any]:
    """One service run: samples and metrics in the in-process runner's shape."""
    from repro.core.session import SESSION_STEPS
    from hummerbench.layers import client_metrics, layer_metrics
    from hummerbench.workloads import csv_texts

    entities = workload.smoke_entities if smoke else workload.entities
    datasets = [workload.generate(seed, index, entities) for index in range(workload.inputs)]
    pool = [csv_texts(dataset) for dataset in datasets]
    steps = len(SESSION_STEPS)
    spawns = itertools.count()
    gauge = Gauge()

    def spawn(traced: bool = False) -> Tuple[ServerProcess, int]:
        mark = gauge.read()
        server = ServerProcess(root, env, work / f"data-{next(spawns)}",
                               trace_file if traced else None)
        return server, mark

    out: Dict[str, Any] = {"failures": [], "attempted": 0, "reference_s": gauge.readings}
    if not trace:
        setup_s = []
        for _ in range(SETUP_SPAWNS - 1):
            server, mark = spawn()
            setup_s.append((server.ready_s, mark))
            server.stop()
        server, mark = spawn()
        setup_s.append((server.ready_s, mark))
        try:
            load = drive(server.base_url, pool, seconds, steps, gauge)
            peak_rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
        failures, quality, digests = check_outputs(load, pool, datasets, workload)
        out.update(
            setup_s=setup_s,
            fuse_s=[(s[2], s[4]) for s in load.sessions],
            peak_rss_mb=peak_rss_mb,
            quality=quality,
            digests=digests,
        )
        loads = [load]
    else:
        server, _ = spawn()
        try:
            plain = drive(server.base_url, pool, seconds / 2, steps, gauge)
        finally:
            server.stop()
        trace_file.unlink(missing_ok=True)
        server, _ = spawn(traced=True)
        try:
            traced = drive(server.base_url, pool, seconds / 2, steps, gauge)
        finally:
            server.stop()
        events = json.loads(trace_file.read_text(encoding="utf-8"))["traceEvents"]
        failures, quality, digests = check_outputs(plain, pool, datasets, workload)
        traced_failures, _, traced_digests = check_outputs(traced, pool, datasets, workload)
        failures += traced_failures
        failures += [
            f"input {key}: traced and untraced servers returned different result CSVs"
            for key in sorted(set(digests) & set(traced_digests), key=int)
            if digests[key] != traced_digests[key]
        ]
        layers = layer_metrics(events, len(traced.sessions))
        layers.update(client_metrics(plain.read_s, plain.write_s, plain.advance_s,
                                     [s[2] for s in plain.sessions]))
        # the two halves ran at different times: compare them at the reference speed
        untraced_s, traced_s = (
            median(scaled([(s[2], s[4]) for s in load.sessions], gauge.readings))
            for load in (plain, traced)
        )
        out.update(
            quality=quality,
            digests=digests,
            layers=layers,
            overhead=traced_s / untraced_s if untraced_s else 1.0,
        )
        loads = [plain, traced]
    for load in loads:
        out["attempted"] += load.attempted
        out["failures"] += load.failures
    out["failures"] += failures
    return out
