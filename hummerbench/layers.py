"""Which ``repro`` callables a traced run wraps, and the per-layer metrics.

Each :class:`~hummerbench.spans.Hook` names one public callable and the
layer its spans count towards.  Module-level functions are patched in the
module that calls them (``repro.core.pipeline`` imports ``transform_sources``
by name, so that is where the pipeline looks it up).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List

from hummerbench.spans import ASYNC_CONTEXT, COROUTINE, ITERATOR, Hook, aggregate, durations
from hummerbench.stats import percentile


def _prepare_probe(args):
    def finish(prepared):
        report = prepared.report()
        return {"built": report["rebuilt"], "reused": report["reused"]}

    return finish


def _seed_probe(args):
    seeder = args[0]

    def finish(result):
        scoring = seeder.last_scoring
        return {"candidates": scoring.candidate_count, "cosines": scoring.scored_count}

    return finish


def _blocking_probe(args):
    generator = args[0]

    def finish(items):
        return {"candidates": items, "total_pairs": generator.statistics.total_pairs}

    return finish


def _score_probe(args):
    generator = args[1]

    def finish(scores):
        statistics = generator.statistics
        threshold = generator.filter.threshold
        return {
            "considered": statistics.considered,
            "pruned": statistics.pruned,
            "compared": statistics.compared,
            "accepted": sum(1 for score in scores if score.similarity >= threshold),
        }

    return finish


def _cluster_probe(args):
    def finish(result):
        report = result.report
        return {
            "edges": report.edges,
            "clusters": report.clusters,
            "largest": report.largest_cluster,
        }

    return finish


def _conflict_probe(args):
    return lambda report: {"contradictions": report.contradiction_count}


def _fusion_probe(args):
    return lambda result: {"groups": result.output_tuple_count}


def _journal_probe(args):
    path = args[0].path

    def size() -> int:
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    before = size()
    return lambda result: {"bytes": size() - before}


def _upload_probe(args):
    data = args[0].get("data")
    size = len(data.encode("utf-8")) if isinstance(data, str) else 0
    return lambda relation: {"bytes": size}


def pipeline_hooks() -> List[Hook]:
    """The library layers, from source preparation to fusion."""
    from repro.core import pipeline
    from repro.core.fusion import FusionOperator
    from repro.dedup import detector
    from repro.dedup.executor import SerialExecutor
    from repro.dedup.graphcluster import CLUSTERING_STRATEGIES
    from repro.dedup.pairs import CandidatePairGenerator
    from repro.dedup.similarity_measure import DuplicateSimilarityMeasure
    from repro.matching import dumas
    from repro.matching.duplicate_seed import DuplicateSeeder
    from repro.matching.multi import MultiMatcher
    from repro.prepare.preparer import SourcePreparer

    hooks = [
        Hook(SourcePreparer, "prepare", "prepare", probe=_prepare_probe),
        Hook(MultiMatcher, "match", "matching"),
        Hook(DuplicateSeeder, "find_seeds", "matching.seed", probe=_seed_probe),
        Hook(dumas, "build_field_matrix", "matching.field_matrix"),
        Hook(pipeline, "transform_sources", "matching.transform"),
        Hook(pipeline, "select_interesting_attributes", "dedup.select"),
        Hook(DuplicateSimilarityMeasure, "fit", "dedup.fit"),
        Hook(CandidatePairGenerator, "candidate_indices", "dedup.blocking", ITERATOR,
             _blocking_probe),
        Hook(SerialExecutor, "score_pairs", "dedup.score", probe=_score_probe),
        Hook(detector, "classify_pairs", "dedup.classify"),
        Hook(pipeline, "find_conflicts", "core.conflicts", probe=_conflict_probe),
        Hook(FusionOperator, "fuse", "core.fusion", probe=_fusion_probe),
    ]
    hooks += [
        Hook(strategy, "cluster", "dedup.cluster", probe=_cluster_probe)
        for strategy in CLUSTERING_STRATEGIES.values()
    ]
    return hooks


def service_hooks() -> List[Hook]:
    """The service layers around the pipeline: admission, executor, journal, upload."""
    from repro.service import app
    from repro.service.journal import TenantJournal
    from repro.service.state import ServiceState, Tenant

    return [
        Hook(ServiceState, "run_blocking", "service.executor", COROUTINE),
        Hook(Tenant, "admit", "service.admission", ASYNC_CONTEXT),
        Hook(TenantJournal, "append", "service.journal", probe=_journal_probe),
        Hook(app, "relation_from_upload", "service.upload", probe=_upload_probe),
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _ms_percentile(values: List[float], fraction: float) -> float:
    """A percentile in milliseconds; 0.0 when the layer never ran.

    An unsupported percentile (fewer than ten samples beyond it) is also
    reported as 0.0 — the service run collects enough samples for every
    percentile named here before it stops.
    """
    value = percentile([1000 * seconds for seconds in values], fraction)
    return value if value is not None else 0.0


def layer_metrics(events: Iterable[Dict[str, Any]], units: int) -> Dict[str, float]:
    """Per-layer metrics from span events, per unit of work (fuse or session).

    Every ``.s`` is self time: a layer's seconds minus its wrapped children.
    """
    events = list(events)
    totals = aggregate(events)

    def total(name: str, key: str = "s") -> float:
        return totals.get(name, {}).get(key, 0)

    def per_unit(name: str, key: str = "s") -> float:
        return _ratio(total(name, key), units)

    return {
        "prepare.s": per_unit("prepare"),
        "prepare.artifacts_built": per_unit("prepare", "built"),
        "prepare.artifacts_reused": per_unit("prepare", "reused"),
        "matching.s": per_unit("matching"),
        "matching.seed.s": per_unit("matching.seed"),
        "matching.seed.candidates": per_unit("matching.seed", "candidates"),
        "matching.seed.cosines": per_unit("matching.seed", "cosines"),
        "matching.seed.scored_fraction": _ratio(
            total("matching.seed", "cosines"), total("matching.seed", "candidates")
        ),
        "matching.field_matrix.s": per_unit("matching.field_matrix"),
        "matching.field_matrix.calls": per_unit("matching.field_matrix", "calls"),
        "matching.transform.s": per_unit("matching.transform"),
        "dedup.select.s": per_unit("dedup.select"),
        "dedup.fit.s": per_unit("dedup.fit"),
        "dedup.blocking.s": per_unit("dedup.blocking"),
        "dedup.blocking.candidates": per_unit("dedup.blocking", "candidates"),
        "dedup.blocking.candidate_fraction": _ratio(
            total("dedup.blocking", "candidates"), total("dedup.blocking", "total_pairs")
        ),
        "dedup.score.s": per_unit("dedup.score"),
        "dedup.score.considered": per_unit("dedup.score", "considered"),
        "dedup.score.pruned": per_unit("dedup.score", "pruned"),
        "dedup.score.compared": per_unit("dedup.score", "compared"),
        "dedup.score.prune_fraction": _ratio(
            total("dedup.score", "pruned"), total("dedup.score", "considered")
        ),
        "dedup.score.accept_fraction": _ratio(
            total("dedup.score", "accepted"), total("dedup.score", "compared")
        ),
        "dedup.score.us_per_compared": 1e6 * _ratio(
            total("dedup.score"), total("dedup.score", "compared")
        ),
        "dedup.classify.s": per_unit("dedup.classify"),
        "dedup.cluster.s": per_unit("dedup.cluster"),
        "dedup.cluster.edges": per_unit("dedup.cluster", "edges"),
        "dedup.cluster.clusters": per_unit("dedup.cluster", "clusters"),
        "dedup.cluster.largest": per_unit("dedup.cluster", "largest"),
        "core.conflicts.s": per_unit("core.conflicts"),
        "core.conflicts.contradictions": per_unit("core.conflicts", "contradictions"),
        "core.fusion.s": per_unit("core.fusion"),
        "core.fusion.groups": per_unit("core.fusion", "groups"),
        "core.fusion.us_per_group": 1e6 * _ratio(
            total("core.fusion"), total("core.fusion", "groups")
        ),
        "service.admission.wait_ms.p95": _ms_percentile(
            durations(events, "service.admission"), 0.95
        ),
        "service.admission.rejected": total("service.admission", "rejected"),
        "service.executor.s": per_unit("service.executor", "wall_s"),
        "service.journal.appends": per_unit("service.journal", "calls"),
        "service.journal.append_ms.p50": _ms_percentile(
            durations(events, "service.journal"), 0.50
        ),
        "service.journal.bytes_per_upload_byte": _ratio(
            total("service.journal", "bytes"), total("service.upload", "bytes")
        ),
        "service.upload.parse_ms.p50": _ms_percentile(
            durations(events, "service.upload"), 0.50
        ),
    }


def client_metrics(read_s: List[float], write_s: List[float], advance_s: List[float],
                   session_s: List[float]) -> Dict[str, float]:
    """Client-side service latencies (all zero for in-process workloads)."""
    return {
        "service.http.read_ms.p50": _ms_percentile(read_s, 0.50),
        "service.http.read_ms.p95": _ms_percentile(read_s, 0.95),
        "service.http.write_ms.p50": _ms_percentile(write_s, 0.50),
        "service.http.write_ms.p95": _ms_percentile(write_s, 0.95),
        "service.http.advance_ms.p95": _ms_percentile(advance_s, 0.95),
        "service.session_s.p75": (percentile(session_s, 0.75) or 0.0),
    }
