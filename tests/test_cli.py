"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.config import FusionConfig
from repro.engine.io.csv_source import write_csv


def stable_lines(output: str) -> list:
    """CLI output minus the wall-clock lines (everything else is deterministic)."""
    return [
        line
        for line in output.splitlines()
        if "seconds" not in line and "prepare phase" not in line
    ]


@pytest.fixture
def csv_sources(tmp_path, ee_students, cs_students):
    ee_path = tmp_path / "ee.csv"
    cs_path = tmp_path / "cs.csv"
    write_csv(ee_students, ee_path)
    write_csv(cs_students, cs_path)
    return ee_path, cs_path


class TestParser:
    def test_query_command_parses(self):
        args = build_parser().parse_args(
            ["query", "SELECT * FROM t", "--source", "t=/tmp/t.csv"]
        )
        assert args.command == "query"
        assert args.source == [("t", "/tmp/t.csv")]

    def test_source_argument_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "SELECT 1", "--source", "not_a_pair"])

    def test_demo_scenarios_are_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "unknown_scenario"])


class TestQueryCommand:
    def test_runs_fusion_query_from_csv(self, csv_sources, capsys):
        ee_path, cs_path = csv_sources
        exit_code = main(
            [
                "query",
                "SELECT Name, RESOLVE(Age, max) FUSE FROM ee, cs FUSE BY (Name)",
                "--source", f"ee={ee_path}",
                "--source", f"cs={cs_path}",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Anna Schmidt" in output

    def test_writes_output_csv(self, csv_sources, tmp_path, capsys):
        ee_path, cs_path = csv_sources
        out_path = tmp_path / "result.csv"
        exit_code = main(
            [
                "query",
                "SELECT Name FROM ee ORDER BY Name",
                "--source", f"ee={ee_path}",
                "--source", f"cs={cs_path}",
                "--output", str(out_path),
            ]
        )
        assert exit_code == 0
        assert out_path.exists()
        assert "Anna Schmidt" in out_path.read_text()

    def test_error_is_reported_not_raised(self, capsys):
        exit_code = main(["query", "SELECT * FROM missing_table"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error" in captured.err.lower()


class TestFuseCommand:
    def test_fuse_prints_summary(self, csv_sources, capsys):
        ee_path, cs_path = csv_sources
        exit_code = main(
            ["fuse", "--source", f"ee={ee_path}", "--source", f"cs={cs_path}"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "pipeline summary" in output
        assert "output_tuples" in output


    def test_fuse_with_union_blocking_spelling(self, csv_sources, capsys):
        ee_path, cs_path = csv_sources
        exit_code = main(
            [
                "fuse",
                "--source", f"ee={ee_path}",
                "--source", f"cs={cs_path}",
                "--blocking", "union:snm+token",
            ]
        )
        assert exit_code == 0

    def test_unknown_blocking_is_reported_not_raised(self, csv_sources, capsys):
        ee_path, cs_path = csv_sources
        exit_code = main(
            ["fuse", "--source", f"ee={ee_path}", "--source", f"cs={cs_path}",
             "--blocking", "sorted"]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "unknown blocking strategy" in captured.err

    def test_deleted_adaptive_blocking_is_reported_with_the_known_names(
        self, csv_sources, capsys
    ):
        ee_path, cs_path = csv_sources
        exit_code = main(
            ["fuse", "--source", f"ee={ee_path}", "--source", f"cs={cs_path}",
             "--blocking", "adaptive"]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert (
            "unknown blocking strategy 'adaptive' (known: allpairs, snm, token, union)"
            in captured.err
        )

    def test_fuse_prints_transitive_clustering_report_by_default(
        self, csv_sources, capsys
    ):
        ee_path, cs_path = csv_sources
        exit_code = main(
            ["fuse", "--source", f"ee={ee_path}", "--source", f"cs={cs_path}"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "clustering (transitive):" in output
        assert "chains split" not in output  # baseline never splits

    def test_fuse_with_clustering_strategy_prints_split_counters(
        self, csv_sources, capsys
    ):
        ee_path, cs_path = csv_sources
        exit_code = main(
            [
                "fuse",
                "--source", f"ee={ee_path}",
                "--source", f"cs={cs_path}",
                "--clustering", "biclique",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "clustering (biclique):" in output
        assert "chains split" in output

    def test_unknown_clustering_is_reported_not_raised(self, csv_sources, capsys):
        ee_path, cs_path = csv_sources
        exit_code = main(
            ["fuse", "--source", f"ee={ee_path}", "--source", f"cs={cs_path}",
             "--clustering", "louvain"]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "unknown clustering strategy" in captured.err


class TestConfigFile:
    """CLI-flag ↔ config-file parity (ISSUE 5 satellite)."""

    def test_fuse_flags_and_config_file_are_equivalent(
        self, csv_sources, tmp_path, capsys
    ):
        ee_path, cs_path = csv_sources
        sources = ["--source", f"ee={ee_path}", "--source", f"cs={cs_path}"]

        assert main(
            ["fuse", *sources, "--threshold", "0.8",
             "--blocking", "snm", "--snm-window", "6"]
        ) == 0
        from_flags = capsys.readouterr().out

        config_path = tmp_path / "fusion.json"
        config_path.write_text(json.dumps({
            "dedup": {
                "threshold": 0.8,
                "blocking": "snm",
                "blocking_options": {"window": 6},
            }
        }))
        assert main(["fuse", *sources, "--config", str(config_path)]) == 0
        from_file = capsys.readouterr().out

        assert stable_lines(from_flags) == stable_lines(from_file)

    def test_demo_flags_and_config_file_are_equivalent(self, tmp_path, capsys):
        base = ["demo", "students", "--entities", "12", "--limit", "3"]

        assert main([*base, "--blocking", "snm"]) == 0
        from_flags = capsys.readouterr().out

        config_path = tmp_path / "fusion.json"
        config_path.write_text(json.dumps({"dedup": {"blocking": "snm"}}))
        assert main([*base, "--config", str(config_path)]) == 0
        from_file = capsys.readouterr().out

        assert "blocking (snm):" in from_flags
        assert stable_lines(from_flags) == stable_lines(from_file)

    def test_flags_override_the_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "fusion.json"
        config_path.write_text(json.dumps({"dedup": {"blocking": "snm"}}))
        exit_code = main(
            ["demo", "students", "--entities", "12", "--limit", "3",
             "--config", str(config_path), "--blocking", "token"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "blocking (token):" in output  # the flag won
        assert "blocking (snm)" not in output

    def test_config_file_round_trips_through_to_json(self, csv_sources, tmp_path, capsys):
        ee_path, cs_path = csv_sources
        config_path = tmp_path / "fusion.json"
        config_path.write_text(
            FusionConfig.from_dict({"dedup": {"threshold": 0.8}}).to_json()
        )
        exit_code = main(
            ["fuse", "--source", f"ee={ee_path}", "--source", f"cs={cs_path}",
             "--config", str(config_path)]
        )
        assert exit_code == 0
        assert "pipeline summary" in capsys.readouterr().out

    def test_invalid_config_file_is_reported_not_raised(
        self, csv_sources, tmp_path, capsys
    ):
        ee_path, cs_path = csv_sources
        config_path = tmp_path / "fusion.json"
        config_path.write_text(json.dumps({"dedup": {"blocking": "sorted"}}))
        exit_code = main(
            ["fuse", "--source", f"ee={ee_path}", "--source", f"cs={cs_path}",
             "--config", str(config_path)]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "unknown blocking strategy" in captured.err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"dedup": {"threshold": "0.5"}}, "dedup.threshold must be a number, got '0.5'"),
            ({"resolution": {"resolutions": []}}, "resolution.resolutions must be a mapping"),
            ({"dedup": {"cross_source_only": "false"}}, "dedup.cross_source_only must be a boolean"),
        ],
    )
    def test_wrongly_typed_config_field_is_reported_by_name(
        self, csv_sources, tmp_path, capsys, config, message
    ):
        ee_path, cs_path = csv_sources
        config_path = tmp_path / "fusion.json"
        config_path.write_text(json.dumps(config))
        exit_code = main(
            ["fuse", "--source", f"ee={ee_path}", "--source", f"cs={cs_path}",
             "--config", str(config_path)]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert message in captured.err

    def test_config_file_without_threshold_keeps_the_fuse_default(self, tmp_path):
        from repro.cli import FUSE_DEFAULT_THRESHOLD, _build_config, build_parser

        config_path = tmp_path / "fusion.json"
        config_path.write_text(json.dumps({"prepare": {"mode": "lazy"}}))
        args = build_parser().parse_args(
            ["fuse", "--source", "a=a.csv", "--config", str(config_path)]
        )
        config = _build_config(args, default_threshold=FUSE_DEFAULT_THRESHOLD)
        assert config.dedup.threshold == FUSE_DEFAULT_THRESHOLD

    def test_config_file_threshold_wins_over_the_fuse_default(self, tmp_path):
        from repro.cli import FUSE_DEFAULT_THRESHOLD, _build_config, build_parser

        config_path = tmp_path / "fusion.json"
        config_path.write_text(json.dumps({"dedup": {"threshold": 0.6}}))
        args = build_parser().parse_args(
            ["fuse", "--source", "a=a.csv", "--config", str(config_path)]
        )
        config = _build_config(args, default_threshold=FUSE_DEFAULT_THRESHOLD)
        assert config.dedup.threshold == 0.6

    def test_dependent_flag_composes_with_config_file(self, csv_sources, tmp_path, capsys):
        """`--snm-window` is valid when the *file* sets blocking snm."""
        ee_path, cs_path = csv_sources
        config_path = tmp_path / "fusion.json"
        config_path.write_text(json.dumps({"dedup": {"blocking": "snm"}}))
        exit_code = main(
            ["fuse", "--source", f"ee={ee_path}", "--source", f"cs={cs_path}",
             "--config", str(config_path), "--snm-window", "6"]
        )
        assert exit_code == 0
        assert "pipeline summary" in capsys.readouterr().out

    def test_missing_config_file_is_reported(self, csv_sources, capsys):
        ee_path, cs_path = csv_sources
        exit_code = main(
            ["fuse", "--source", f"ee={ee_path}", "--source", f"cs={cs_path}",
             "--config", "/nonexistent/fusion.json"]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "cannot read config file" in captured.err


class TestRemovedScoringFlags:
    """Pair scoring has one in-process path: ``fuse`` and ``demo`` have no
    ``--workers`` / ``--chunk-size``, and config files setting the deleted
    ``dedup`` fields are errors.  ``serve --workers`` sizes the service's
    thread pool and stays."""

    @pytest.mark.parametrize("field, value", [
        ("executor", "multiprocess"), ("workers", 4), ("chunk_size", 64),
    ])
    def test_config_file_with_removed_field_is_an_error(
        self, csv_sources, tmp_path, capsys, field, value
    ):
        ee_path, cs_path = csv_sources
        config_path = tmp_path / "fusion.json"
        config_path.write_text(json.dumps({"dedup": {field: value}}))
        exit_code = main(
            ["fuse", "--source", f"ee={ee_path}", "--source", f"cs={cs_path}",
             "--config", str(config_path)]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith("error:")
        assert f"'{field}'" in captured.err

    @pytest.mark.parametrize("argv", [
        ["fuse", "--source", "a=a.csv", "--workers", "2"],
        ["demo", "students", "--chunk-size", "5"],
    ], ids=["fuse-workers", "demo-chunk-size"])
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_workers_sizes_the_thread_pool(self, monkeypatch):
        import repro.service.server

        states = []

        async def fake_serve(host, port, state, announce):
            states.append(state)

        monkeypatch.setattr(repro.service.server, "serve", fake_serve)
        assert main(["serve", "--port", "0", "--workers", "3"]) == 0
        assert states[0].max_workers == 3
        states[0].close()


class TestDemoCommand:
    def test_students_demo_runs(self, capsys):
        exit_code = main(["demo", "students", "--entities", "15", "--limit", "5"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "correspondences found" in output
        assert "distinct objects" in output

