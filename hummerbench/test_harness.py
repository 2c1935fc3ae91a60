"""Tests of the benchmark harness itself (the program has its own suite).

Run from the repository root::

    python3 -m pytest hummerbench/test_harness.py -q
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

import pytest

from hummerbench import compare, gauge, run, spans, stats
from hummerbench.layers import client_metrics, layer_metrics
from hummerbench.spans import ITERATOR, Hook, Tracer
from hummerbench.workloads import WORKLOADS, check_digests, digest

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


# -- the percentile rule ------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(1, 201)), 0.95) == 190
    assert stats.percentile(list(range(1, 200)), 0.95) is None
    assert stats.percentile(list(range(20)), 0.50) == 9
    assert stats.percentile(list(range(19)), 0.50) is None
    assert stats.percentile([], 0.50) is None


def test_tail_is_the_highest_supported_percentile():
    values = list(range(100))
    fraction, value = stats.tail(values)
    assert (fraction, value) == (0.9, 89)
    assert stats.percentile(values, fraction) == value
    assert stats.percentile(values, fraction + 0.01) is None
    assert stats.tail(list(range(10))) is None


def test_spread_is_the_quartile_distance_over_the_median():
    assert stats.spread([10.0] * 5) == 0.0
    q1, _, q3 = statistics.quantiles([8, 9, 10, 11, 12], n=4)
    assert stats.spread([8, 9, 10, 11, 12]) == pytest.approx((q3 - q1) / 10)


# -- spans: self time ---------------------------------------------------------------------


class Clock:
    """A manual clock, so span arithmetic is exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Pipeline:
    clock = Clock()

    def outer(self):
        self.clock.now += 2.0
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        self.clock.now += 5.0

    def items(self):
        for item in range(3):
            self.clock.now += 1.0
            yield item

    def consume(self):
        total = 0
        for item in self.items():
            self.clock.now += 10.0  # the consumer's own work between items
            total += item
        return total


def totals_of(tracer: Tracer):
    return spans.aggregate(tracer.chrome_trace()["traceEvents"])


def test_self_time_subtracts_nested_spans():
    tracer = Tracer(clock=Pipeline.clock)
    original = Pipeline.outer
    with tracer.installed([Hook(Pipeline, "outer", "outer"), Hook(Pipeline, "inner", "inner")]):
        assert Pipeline().outer() == "done"
    assert Pipeline.outer is original
    totals = totals_of(tracer)
    assert totals["outer"]["s"] == pytest.approx(2.0)
    assert totals["outer"]["wall_s"] == pytest.approx(12.0)
    assert totals["inner"]["s"] == pytest.approx(10.0)
    assert totals["inner"]["calls"] == 2


def test_iterator_is_timed_inside_next_only():
    tracer = Tracer(clock=Pipeline.clock)
    hooks = [
        Hook(Pipeline, "consume", "consume"),
        Hook(Pipeline, "items", "items", ITERATOR, probe=lambda args: lambda n: {"items": n}),
    ]
    with tracer.installed(hooks):
        assert Pipeline().consume() == 3
    totals = totals_of(tracer)
    assert totals["items"]["s"] == pytest.approx(3.0)
    assert totals["items"]["items"] == 3
    assert totals["consume"]["wall_s"] == pytest.approx(33.0)
    assert totals["consume"]["s"] == pytest.approx(30.0)


def test_probe_counters_come_from_the_return_value():
    tracer = Tracer(clock=Pipeline.clock)
    probe = lambda args: lambda result: {"length": len(result)}  # noqa: E731
    with tracer.installed([Hook(Pipeline, "outer", "outer", probe=probe)]):
        Pipeline().outer()
    assert totals_of(tracer)["outer"]["length"] == 4


# -- BENCHMARK.json -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def declared():
    path = ROOT / "BENCHMARK.json"
    assert path.stat().st_size <= 64 * 1024
    return json.loads(path.read_text(encoding="utf-8"))


def test_benchmark_json_follows_the_schema(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= len(declared["paths"]) <= 16
    for path in declared["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    command = declared["command"]
    assert 1 <= len(command) <= 32 and all(len(part) <= 200 for part in command)
    for part in command[1:]:
        assert not part.startswith("/") and ".." not in part.split("/")
        if (ROOT / part).exists():
            assert any(part.startswith(path + "/") for path in declared["paths"])
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60

    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = []
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))

    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_harness_reports_exactly_the_declared_metrics(declared):
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    e2e = run.end_to_end({"setup_s": [(1.0, 0)], "fuse_s": [(2.0, 0)], "reference_s": [0.01],
                          "peak_rss_mb": 50.0, "quality": {}})
    assert sorted(e2e) == sorted(m["name"] for m in declared["end_to_end"])
    layers = run.per_layer({"layers": layer_metrics([], 1), "quality": {}, "overhead": 1.0,
                            "reference_s": [0.01]})
    assert sorted(layers) == sorted(m["name"] for m in declared["per_layer"])
    assert set(client_metrics([], [], [], [])) <= set(layers)


def test_each_sample_is_scaled_by_the_readings_around_it():
    readings = [gauge.REFERENCE_S * factor for factor in (1, 3, 2, 4)]
    # timed after readings 0, 1 and 3: speeds 2, 2.5 and 4 times the reference
    assert gauge.scaled([(4.0, 0), (5.0, 1), (8.0, 3)], readings) == pytest.approx([2.0] * 3)
    e2e = run.end_to_end({
        "setup_s": [(1.0, 0), (2.0, 0), (1.5, 0)], "fuse_s": [(4.0, 0), (5.0, 1), (8.0, 3)],
        "reference_s": readings, "peak_rss_mb": 50.0, "quality": {"fusion_correctness": 0.5},
    })
    assert e2e == pytest.approx({"setup_s": 0.75, "fuse_s": 2.0, "peak_rss_mb": 50.0,
                                 "fusion_correctness": 0.5})


def test_layer_times_are_scaled_by_the_run_median_speed():
    slow = [2 * gauge.REFERENCE_S, 3 * gauge.REFERENCE_S, 1 * gauge.REFERENCE_S]
    layers = {**layer_metrics([], 1), "dedup.score.s": 4.0, "dedup.score.compared": 10.0,
              "service.journal.append_ms.p50": 6.0}
    scaled = run.per_layer({"layers": layers, "quality": {}, "overhead": 1.5,
                            "reference_s": slow})
    assert scaled["dedup.score.s"] == 2.0 and scaled["service.journal.append_ms.p50"] == 3.0
    assert scaled["dedup.score.compared"] == 10.0 and scaled["trace.overhead"] == 0.5


# -- output checks ------------------------------------------------------------------------


def test_a_tampered_output_digest_is_caught():
    from repro import Relation

    relation = Relation.from_dicts([{"name": "Ann", "age": 21}, {"name": "Bob", "age": 22}])
    good = digest(relation)
    assert digest(Relation.from_dicts([{"name": "Ann", "age": 21}, {"name": "Bob", "age": 22}])) == good
    assert check_digests({0: [good, good, good]}) == []
    tampered = good[:-1] + ("0" if good[-1] != "0" else "1")
    failures = check_digests({0: [good, tampered], 1: [good, good]})
    assert len(failures) == 1 and failures[0].startswith("input 0:")


def write_results(path: Path, declared, seeds, correctness=lambda seed: 0.5, digest="d"):
    runs = [
        {
            "workload": "students", "seed": seed, "trace": False, "correct": True,
            "metrics": {
                **{metric["name"]: 1.0 + seed / 100 for metric in declared["end_to_end"]},
                "fusion_correctness": correctness(seed),
            },
            "digests": {"0": digest},
        }
        for seed in seeds
    ]
    path.write_text(json.dumps({"environment": {}, "runs": runs}), encoding="utf-8")
    return str(path)


def test_compare_pairs_runs_by_seed(declared, tmp_path, capsys):
    base = write_results(tmp_path / "base.json", declared, range(1, 11))
    assert compare.main([base, write_results(tmp_path / "same.json", declared, range(1, 11))]) == 0
    assert "identical on all 10 seeds" in capsys.readouterr().out
    other = write_results(tmp_path / "other.json", declared, range(11, 21))
    assert compare.main([base, other]) == 2
    assert "different seeds" in capsys.readouterr().err


def test_compare_gates_output_metrics_exactly(declared, tmp_path, capsys):
    base = write_results(tmp_path / "base.json", declared, range(1, 11))
    # one seed 0.1% worse is far inside any bound, and still a regression
    worse = write_results(tmp_path / "worse.json", declared, range(1, 11),
                          correctness=lambda seed: 0.4995 if seed == 3 else 0.5, digest="e")
    assert compare.main([base, worse]) == 1
    out = capsys.readouterr().out
    assert re.search(r"fusion_correctness .* exact\s+regressed", out)
    assert "differ on seeds [1, 2, 3" in out
    assert compare.verdict([(0.5, 0.6)] * 3 + [(0.5, 0.5)], "higher", 0.06, exact=True) == "improved"


def test_runner_refuses_a_checkout_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SOURCE", tmp_path / "src")
    assert run.main(["--workload", "students", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
