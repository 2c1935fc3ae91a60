"""Command-line interface.

Four sub-commands mirror the demo's workflow:

* ``hummer query --source alias=file.csv ... "SELECT ... FUSE FROM ..."`` —
  the basic SQL interface.
* ``hummer fuse --source alias=file.csv ...`` — the fully automatic pipeline
  with a summary of every phase.
* ``hummer demo [cds|students|crisis]`` — run one of the paper's scenarios on
  generated data and print the intermediate artefacts.
* ``hummer serve [--host H] [--port P]`` — the multi-tenant HTTP fusion
  service (``--port 0`` binds an ephemeral port; the bound address is
  printed as ``listening on http://H:P``).

Every sub-command accepts ``--config fusion.json`` — a JSON document in the
shape of :meth:`repro.config.FusionConfig.to_dict` — and the individual
flags (``--blocking``, ``--clustering``, ``--prepare``, …) are mapped over it
through :meth:`FusionConfig.from_cli_args`, so a config file and ad-hoc
flags compose: flags the user sets win, everything else comes from the file.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.config import FusionConfig, load_config_data
from repro.datagen.scenarios import cd_stores_scenario, crisis_scenario, students_scenario
from repro.dedup.blocking import BLOCKING_STRATEGIES
from repro.dedup.graphcluster import CLUSTERING_STRATEGIES
from repro.engine.io.csv_source import CsvSource, write_csv
from repro.engine.io.json_source import JsonSource
from repro.hummer import HumMer

__all__ = ["main", "build_parser"]

#: The ``fuse`` sub-command's historical default duplicate threshold, applied
#: when neither ``--threshold`` nor a config file sets one.
FUSE_DEFAULT_THRESHOLD = 0.75


def _parse_source(argument: str) -> Tuple[str, str]:
    if "=" not in argument:
        raise argparse.ArgumentTypeError(
            f"--source must look like alias=path.csv, got {argument!r}"
        )
    alias, path = argument.split("=", 1)
    return alias.strip(), path.strip()


def _add_config_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON fusion config file (the FusionConfig tree: matching / "
        "dedup / prepare / resolution sections); individual flags override "
        "the file's fields",
    )


def _add_blocking_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--blocking",
        default=None,
        metavar="STRATEGY",
        help="candidate-pair blocking strategy: one of "
        f"{', '.join(sorted(BLOCKING_STRATEGIES))}, or a composite "
        "'union:a+b' spelling (e.g. union:snm+token).  allpairs (the "
        "default) is exact; snm and token trade a little candidate recall "
        "for near-linear scaling",
    )
    parser.add_argument(
        "--snm-window",
        type=int,
        default=None,
        help="sorted-neighborhood window size (only with --blocking snm)",
    )
    parser.add_argument(
        "--token-max-block",
        type=int,
        default=None,
        help="largest token block kept as candidates (only with --blocking token)",
    )


def _add_clustering_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--clustering",
        default=None,
        metavar="STRATEGY",
        help="duplicate-grouping strategy: one of "
        f"{', '.join(sorted(CLUSTERING_STRATEGIES))}.  transitive (the "
        "default) closes accepted pairs into connected components as in the "
        "paper; graph audits sparse components and splits them at weak "
        "min-cut seams; biclique covers the cross-source pair graph with "
        "maximal bicliques — both kill chains of unrelated entities merged "
        "through one borderline pair",
    )


def _add_prepare_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--prepare",
        action="store_true",
        help="build per-source artifacts (token index, TF-IDF seeding "
        "statistics, SoftTFIDF field corpus) at registration and merge "
        "them at query time; repeated runs over unchanged sources skip "
        "the preparation-bound work entirely",
    )
    parser.add_argument(
        "--artifact-dir",
        default=None,
        metavar="DIR",
        help="persist prepared artifacts to this directory (implies "
        "--prepare); a later invocation with the same directory and "
        "unchanged sources starts warm",
    )


def _build_config(args, default_threshold: Optional[float] = None) -> FusionConfig:
    """The effective :class:`FusionConfig`: file (if any), then flags on top."""
    config_path = getattr(args, "config", None)
    data = load_config_data(config_path) if config_path else {}
    base = FusionConfig.from_dict(data)
    file_sets_threshold = (
        isinstance(data.get("dedup"), dict) and "threshold" in data["dedup"]
    )
    if (
        default_threshold is not None
        and getattr(args, "threshold", None) is None
        and not file_sets_threshold
    ):
        base = base.merged({"dedup": {"threshold": default_threshold}})
    return FusionConfig.from_cli_args(args, base=base)


def _print_prepare_report(result) -> None:
    """Print the artifact reuse/rebuild counters of a prepared run."""
    if result.prepared is None:
        return
    print(
        f"artifacts: {result.prepared.get('reused', 0)} reused, "
        f"{result.prepared.get('rebuilt', 0)} rebuilt "
        f"(prepare phase {result.timings.prepare:.3f}s)"
    )
    summary = result.summary()
    print(
        f"  match artifacts: {summary.get('match_artifacts_reused', 0)} reused, "
        f"{summary.get('match_artifacts_rebuilt', 0)} rebuilt "
        "(seeding statistics + field corpora)"
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``hummer`` entry point."""
    parser = argparse.ArgumentParser(
        prog="hummer",
        description="HumMer: ad-hoc declarative fusion of heterogeneous, dirty data.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    query = subparsers.add_parser("query", help="run a Fuse By / SQL statement")
    query.add_argument("statement", help="the query text")
    query.add_argument(
        "--source",
        action="append",
        default=[],
        type=_parse_source,
        help="register a source as alias=path (.csv or .json); repeatable",
    )
    query.add_argument("--output", help="write the result to this CSV file")
    query.add_argument("--limit", type=int, default=25, help="rows to print")
    _add_config_argument(query)

    fuse = subparsers.add_parser("fuse", help="run the automatic fusion pipeline")
    fuse.add_argument(
        "--source",
        action="append",
        default=[],
        type=_parse_source,
        required=True,
        help="register a source as alias=path (.csv or .json); repeatable",
    )
    fuse.add_argument(
        "--threshold",
        type=float,
        default=None,
        help=f"duplicate threshold (default {FUSE_DEFAULT_THRESHOLD})",
    )
    fuse.add_argument("--output", help="write the fused result to this CSV file")
    fuse.add_argument("--limit", type=int, default=25, help="rows to print")
    _add_config_argument(fuse)
    _add_blocking_arguments(fuse)
    _add_clustering_arguments(fuse)
    _add_prepare_arguments(fuse)

    demo = subparsers.add_parser("demo", help="run a built-in scenario on generated data")
    demo.add_argument(
        "scenario",
        choices=["cds", "students", "crisis"],
        help="which of the paper's scenarios to run",
    )
    demo.add_argument("--entities", type=int, default=60, help="entities to generate")
    demo.add_argument("--limit", type=int, default=15, help="rows to print")
    _add_config_argument(demo)
    _add_blocking_arguments(demo)
    _add_clustering_arguments(demo)
    _add_prepare_arguments(demo)

    serve = subparsers.add_parser(
        "serve", help="run the multi-tenant HTTP fusion service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument(
        "--port", type=int, default=8765, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--step-timeout",
        type=float,
        default=300.0,
        help="per-request ceiling in seconds on blocking pipeline work "
        "(exceeding it returns 504 for that request)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker threads shared by all tenants for pipeline steps",
    )
    serve.add_argument(
        "--max-queued",
        type=int,
        default=4,
        help="per-tenant bound on requests queued behind the tenant lock "
        "(exceeding it returns 429 TenantBusy)",
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        help="directory for durable state: per-tenant artifact caches and "
        "journals; a restarted service pointed at the same directory "
        "recovers every tenant and session",
    )
    return parser


def _register_sources(hummer: HumMer, sources: List[Tuple[str, str]]) -> None:
    for alias, path in sources:
        if path.lower().endswith(".json"):
            hummer.register(alias, JsonSource(path, name=alias))
        else:
            hummer.register(alias, CsvSource(path, name=alias))


def _command_query(args) -> int:
    hummer = HumMer(config=_build_config(args))
    _register_sources(hummer, args.source)
    result = hummer.query(args.statement)
    print(result.to_text(limit=args.limit))
    if args.output:
        write_csv(result, args.output)
        print(f"\nwrote {len(result)} rows to {args.output}")
    return 0


def _print_clustering_report(detection) -> None:
    """Print what the clustering strategy did to the accepted pair graph."""
    report = detection.clustering_report
    if report is None:
        return
    line = (
        f"clustering ({report.strategy}): {report.clusters} clusters, "
        f"largest {report.largest_cluster}"
    )
    if report.strategy != "transitive":
        line += (
            f", {report.chains_split} chains split "
            f"({report.edges_cut} of {report.edges} accepted edges cut)"
        )
    print(line)
    for key, value in sorted(report.diagnostics.items()):
        print(f"  {key}: {value}")


def _command_fuse(args) -> int:
    config = _build_config(args, default_threshold=FUSE_DEFAULT_THRESHOLD)
    hummer = HumMer(config=config)
    _register_sources(hummer, args.source)
    aliases = [alias for alias, _ in args.source]
    result = hummer.fuse(aliases)
    summary = result.summary()
    print("pipeline summary:")
    for key, value in summary.items():
        rendered = f"{value:.3f}" if isinstance(value, float) else value
        print(f"  {key}: {rendered}")
    _print_prepare_report(result)
    _print_clustering_report(result.detection)
    print()
    print(result.relation.to_text(limit=args.limit))
    if args.output:
        write_csv(result.relation, args.output)
        print(f"\nwrote {len(result.relation)} rows to {args.output}")
    return 0


def _command_demo(args) -> int:
    builders = {
        "cds": cd_stores_scenario,
        "students": students_scenario,
        "crisis": crisis_scenario,
    }
    dataset = builders[args.scenario](entity_count=args.entities)
    config = _build_config(args)
    hummer = HumMer(config=config)
    for name, relation in dataset.sources.items():
        hummer.register(name, relation)
    print(f"scenario {args.scenario!r}: sources {', '.join(dataset.sources)}")
    result = hummer.fuse(list(dataset.sources))
    print("correspondences found:")
    for correspondence in result.correspondences:
        print(f"  {correspondence}")
    print()
    counts = result.detection.classified.counts
    statistics = result.detection.filter_statistics
    print(
        f"blocking ({config.dedup.blocking or 'allpairs'}): "
        f"{statistics.blocking_candidates} of "
        f"{statistics.total_pairs} possible pairs proposed, "
        f"{statistics.compared} compared in full"
    )
    _print_prepare_report(result)
    _print_clustering_report(result.detection)
    print(
        f"duplicates: {counts['sure_duplicates']} sure, {counts['unsure']} unsure, "
        f"{counts['sure_non_duplicates']} non-duplicates; "
        f"{result.detection.cluster_count} distinct objects"
    )
    print(
        f"conflicts: {result.conflicts.contradiction_count} contradictions, "
        f"{result.conflicts.uncertainty_count} uncertainties"
    )
    print()
    print(result.relation.to_text(limit=args.limit))
    return 0


def _command_serve(args) -> int:
    import asyncio

    from repro.service.server import serve
    from repro.service.state import ServiceState

    state = ServiceState(
        step_timeout=args.step_timeout,
        max_workers=args.workers,
        max_queued=args.max_queued,
        data_dir=args.data_dir,
    )

    def announce(line: str) -> None:
        # wrappers (the CI smoke job, the example client) parse this line
        # to discover an ephemeral port, so it must flush immediately
        print(line, flush=True)

    try:
        asyncio.run(serve(args.host, args.port, state=state, announce=announce))
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "query": _command_query,
        "fuse": _command_fuse,
        "demo": _command_demo,
        "serve": _command_serve,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:  # surface library errors as plain messages
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
