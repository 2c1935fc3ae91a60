"""E4 — scalability of the three pipeline phases, and blocking vs. all-pairs.

Wall-clock time of schema matching, duplicate detection and fusion as the
number of tuples and the number of sources grow.

Expected shape: duplicate detection dominates and grows roughly quadratically
in the number of tuples (pairwise comparisons) under the all-pairs baseline,
schema matching grows mildly (seeding is capped), fusion is linear in the
number of tuples.  The blocking series shows `snm` and `token` proposing a
shrinking fraction of the quadratic pair count while reproducing the exact
accepted duplicate-pair set at the parity checkpoint.  The columnar-scoring
series times the batched ``ColumnarPairScorer`` that pair scoring runs
against the per-pair reference loop: bit-identical scores, a 2× floor at 5k
entities.
"""

import gc
import json
import time

from benchmarks.conftest import print_table
from repro.core.pipeline import FusionPipeline
from repro.datagen.corruptor import CorruptionConfig
from repro.datagen.scenarios import cd_stores_scenario, students_scenario
from repro.dedup.descriptions import select_interesting_attributes
from repro.dedup.detector import DuplicateDetector
from repro.dedup.pairs import CandidatePairGenerator, PairScore
from repro.dedup.similarity_measure import DuplicateSimilarityMeasure
from repro.engine.catalog import Catalog
from repro.matching.dumas import DumasMatcher
from repro.matching.multi import MultiMatcher
from repro.matching.transform import transform_sources

ENTITY_COUNTS = [20, 40, 80, 120]
SOURCE_COUNTS = [2, 3, 4]

#: Sizes for the blocking comparison.  The all-pairs baseline runs up to the
#: parity checkpoint; the blocked strategies continue into territory where
#: quadratic enumeration is already painful.
BLOCKING_ENTITY_COUNTS = [40, 80, 120, 250, 500]
PARITY_CHECKPOINT = 120  # largest size where all-pairs is still cheap enough


def run_students(entities):
    dataset = students_scenario(
        entity_count=entities, corruption=CorruptionConfig.low(), seed=41
    )
    catalog = Catalog()
    for alias, relation in dataset.sources.items():
        catalog.register(alias, relation)
    return FusionPipeline(catalog).run(list(dataset.sources))


def run_cds(sources):
    dataset = cd_stores_scenario(
        entity_count=40, store_count=sources, corruption=CorruptionConfig.low(), seed=43
    )
    catalog = Catalog()
    for alias, relation in dataset.sources.items():
        catalog.register(alias, relation)
    return FusionPipeline(catalog).run(list(dataset.sources))


def test_e4_scalability_in_tuples(benchmark):
    rows = []
    results = {}
    for entities in ENTITY_COUNTS:
        result = run_students(entities)
        results[entities] = result
        timings = result.timings
        rows.append(
            (
                entities,
                sum(len(s) for s in result.sources),
                timings.matching,
                timings.duplicate_detection,
                timings.fusion,
                timings.total,
            )
        )
    print_table(
        "E4a: phase runtimes vs data size (2 sources, students)",
        ["entities", "tuples", "matching s", "dedup s", "fusion s", "total s"],
        rows,
    )
    # Expected shape: duplicate detection dominates at the largest size, and
    # total time grows with the data.
    largest = rows[-1]
    assert largest[3] >= largest[2] and largest[3] >= largest[4]
    assert rows[-1][5] > rows[0][5]

    benchmark.pedantic(lambda: run_students(40), rounds=1, iterations=1)


def test_e4_scalability_in_sources(benchmark):
    rows = []
    for sources in SOURCE_COUNTS:
        result = run_cds(sources)
        timings = result.timings
        rows.append(
            (
                sources,
                sum(len(s) for s in result.sources),
                len(result.correspondences),
                timings.matching,
                timings.duplicate_detection,
                timings.total,
            )
        )
    print_table(
        "E4b: phase runtimes vs number of sources (CD stores)",
        ["sources", "tuples", "correspondences", "matching s", "dedup s", "total s"],
        rows,
    )
    assert rows[-1][5] >= rows[0][5] * 0.5  # sanity: more sources is not magically cheaper

    benchmark.pedantic(lambda: run_cds(2), rounds=1, iterations=1)


def prepare_students(entities, seed=43):
    dataset = students_scenario(
        entity_count=entities, corruption=CorruptionConfig.low(), seed=seed
    )
    sources = dataset.source_list
    matching = MultiMatcher(DumasMatcher()).match(sources)
    return transform_sources(sources, matching.correspondences)


def test_e4_blocking_vs_allpairs(benchmark):
    rows = []
    parity_accepted = {}
    parity_candidates = {}
    parity_compared = {}
    for entities in BLOCKING_ENTITY_COUNTS:
        combined = prepare_students(entities)
        strategies = ["allpairs", "snm", "token"]
        if entities > PARITY_CHECKPOINT:
            strategies = ["snm", "token"]  # all-pairs is the quadratic wall
        for strategy in strategies:
            started = time.perf_counter()
            result = DuplicateDetector(blocking=strategy).detect(combined)
            elapsed = time.perf_counter() - started
            stats = result.filter_statistics
            rows.append(
                (
                    entities,
                    len(combined),
                    strategy,
                    stats.total_pairs,
                    stats.blocking_candidates,
                    stats.compared,
                    len(result.duplicate_pairs),
                    elapsed,
                )
            )
            if entities == PARITY_CHECKPOINT:
                parity_accepted[strategy] = set(result.duplicate_pairs)
                parity_candidates[strategy] = stats.blocking_candidates
                parity_compared[strategy] = stats.compared
    print_table(
        "E4c: blocking vs all-pairs (students, low corruption)",
        ["entities", "tuples", "blocking", "all pairs", "candidates", "compared", "accepted", "dedup s"],
        rows,
    )

    # Parity checkpoint: the blocked strategies accept the identical
    # duplicate-pair set while fully comparing at most 25% of the all-pairs
    # candidate count (acceptance bar for the blocking subsystem).  The run
    # is deterministic (fixed seed), but the snm margin is thin (~2%): if a
    # change to the generator, selection heuristics or measure trips this,
    # re-tune SortedNeighborhoodBlocking defaults (window / max_keys) rather
    # than loosening the bound.
    for strategy in ["snm", "token"]:
        assert parity_accepted[strategy] == parity_accepted["allpairs"]
        assert parity_candidates[strategy] < parity_candidates["allpairs"]
        assert parity_compared[strategy] <= 0.25 * parity_candidates["allpairs"]

    # Blocked candidate growth stays far below quadratic: doubling from 250
    # to 500 entities must not quadruple the candidate count.
    by_strategy = {}
    for entities, _, strategy, _, candidates, *_ in rows:
        by_strategy.setdefault(strategy, {})[entities] = candidates
    for strategy in ["snm", "token"]:
        assert by_strategy[strategy][500] < 3.0 * by_strategy[strategy][250]

    benchmark.pedantic(
        lambda: DuplicateDetector(blocking="token").detect(prepare_students(80)),
        rounds=1,
        iterations=1,
    )


#: Sizes for the per-pair vs batched columnar scoring series (override with
#: ``--e4-columnar-entities`` for the CI smoke run).
COLUMNAR_ENTITY_COUNTS = [1000, 5000, 10000]

#: The acceptance bar (ISSUE 9): batched columnar kernels are at least this
#: much faster than the per-pair loop at and above this size.
COLUMNAR_SPEEDUP_ENTITIES = 5000
COLUMNAR_SPEEDUP_FLOOR = 2.0

COLUMNAR_THRESHOLD = 0.65


def score_columnar(measure, relation, pairs):
    """Filter and score pre-enumerated *pairs* with the measure's
    ``ColumnarPairScorer``, as ``SerialExecutor.score_pairs`` does.

    Returns ``(scores, considered, pruned)``.
    """
    scorer = measure.columnar_scorer(relation)
    survivors = [
        pair for pair in pairs if scorer.upper_bound(*pair) >= COLUMNAR_THRESHOLD
    ]
    scores = [
        PairScore(i, j, similarity)
        for (i, j), similarity in zip(survivors, scorer.similarities(survivors))
    ]
    return scores, len(pairs), len(pairs) - len(survivors)


def test_e4_columnar_scoring(benchmark, request):
    """Per-pair vs batched columnar dedup scoring: identical bits, speedup.

    Acceptance bar for the columnar engine (ISSUE 9): the batched kernels
    (``ColumnarPairScorer``, as pair scoring runs it) reproduce the per-pair
    reference loop — row tuples, one ``upper_bound`` + ``compare_rows`` call
    per candidate — **bit for bit** (same scores, same pruning counts), and
    run at least 2× faster at 5k entities.  The speedup comes from memoised
    leaf work: repeated cell values tokenise, vectorise and soft-IDF once per
    batch instead of once per pair.
    """
    entities_option = request.config.getoption("--e4-columnar-entities")
    json_path = request.config.getoption("--e4-columnar-json")
    sizes = (
        [int(value) for value in entities_option.split(",") if value.strip()]
        if entities_option
        else COLUMNAR_ENTITY_COUNTS
    )

    rows = []
    records = []
    for entities in sizes:
        combined = prepare_students(entities)
        selection = select_interesting_attributes(combined)
        measure = DuplicateSimilarityMeasure(selection).fit(combined)
        generator = CandidatePairGenerator(
            measure, filter_threshold=COLUMNAR_THRESHOLD, blocking="token"
        )
        pairs = list(generator.candidate_indices(combined))

        # -- per-pair reference: the pre-columnar scoring loop ------------------
        row_tuples = combined.rows
        started = time.perf_counter()
        reference = []
        reference_pruned = 0
        for i, j in pairs:
            if measure.upper_bound(row_tuples[i], row_tuples[j]) < COLUMNAR_THRESHOLD:
                reference_pruned += 1
                continue
            reference.append(
                (i, j, measure.compare_rows(row_tuples[i], row_tuples[j]))
            )
        perpair_s = time.perf_counter() - started

        # -- batched columnar kernels (what pair scoring runs) ------------------
        started = time.perf_counter()
        scores, considered, pruned = score_columnar(measure, combined, pairs)
        batched_s = time.perf_counter() - started

        # bit-identical parity: same floats, same pruning decisions
        assert [
            (score.left_index, score.right_index, score.similarity)
            for score in scores
        ] == reference
        assert pruned == reference_pruned
        assert considered == len(pairs)

        speedup = perpair_s / batched_s if batched_s > 0 else float("inf")
        if entities >= COLUMNAR_SPEEDUP_ENTITIES:
            assert speedup >= COLUMNAR_SPEEDUP_FLOOR, (
                f"batched scoring only {speedup:.2f}x faster than per-pair "
                f"at {entities} entities (bar: {COLUMNAR_SPEEDUP_FLOOR}x)"
            )
        rows.append(
            (
                entities,
                len(combined),
                len(pairs),
                len(reference),
                perpair_s,
                batched_s,
                speedup,
            )
        )
        records.append(
            {
                "entities": entities,
                "tuples": len(combined),
                "candidate_pairs": len(pairs),
                "scored_pairs": len(reference),
                "per_pair_seconds": perpair_s,
                "batched_seconds": batched_s,
                "speedup": speedup,
            }
        )

    print_table(
        "E4h: per-pair vs batched columnar scoring (students, token blocking)",
        ["entities", "tuples", "candidates", "scored", "per-pair s", "batched s", "speedup"],
        rows,
    )

    if json_path:
        with open(json_path, "w") as handle:
            json.dump(
                {"benchmark": "e4_columnar_scoring", "rows": records}, handle, indent=2
            )

    smoke = prepare_students(sizes[0] if sizes[0] <= 500 else 120)
    smoke_measure = DuplicateSimilarityMeasure(select_interesting_attributes(smoke)).fit(smoke)
    smoke_generator = CandidatePairGenerator(
        smoke_measure, filter_threshold=COLUMNAR_THRESHOLD, blocking="token"
    )
    smoke_pairs = list(smoke_generator.candidate_indices(smoke))
    benchmark.pedantic(
        lambda: score_columnar(smoke_measure, smoke, smoke_pairs),
        rounds=1,
        iterations=1,
    )


#: Sizes for the warm-vs-cold prepared-source series.  The full-pipeline
#: comparison runs at the smaller sizes; at the largest size only the
#: preparation-bound phases (seeding statistics, candidate generation) are
#: measured in isolation, so the series stays scoring-independent.
WARM_ENTITY_COUNTS = [120, 250]
WARM_PHASE_ONLY_ENTITIES = 1000


def test_e4_warm_vs_cold(benchmark, request):
    """Prepared-source artifacts: a second fuse() over unchanged sources.

    Acceptance bar for the prepared-source layer (ISSUE 4): the warm run
    rebuilds zero artifacts and produces bit-identical output, and at 1000
    entities the preparation-bound phases — DUMAS seed discovery and
    blocking-index candidate generation — are measurably faster warm than
    cold.  Full-pipeline wall clock is reported for the smaller sizes
    (informational; scoring dominates and is warm/cold-invariant).
    """
    import repro.matching.duplicate_seed as seed_module
    from repro.config import DedupConfig, FusionConfig, PrepareConfig
    from repro.dedup.blocking import TokenBlocking
    from repro.engine.catalog import Catalog as PrepCatalog
    from repro.hummer import HumMer
    from repro.prepare import ARTIFACT_KINDS, SourcePreparer

    entities_option = request.config.getoption("--e4-warm-entities")
    json_path = request.config.getoption("--e4-warm-json")
    sizes = (
        [int(value) for value in entities_option.split(",") if value.strip()]
        if entities_option
        else WARM_ENTITY_COUNTS
    )

    rows = []
    records = []

    # -- full pipeline, cold vs warm ---------------------------------------------
    for entities in sizes:
        dataset = students_scenario(
            entity_count=entities, corruption=CorruptionConfig.low(), seed=43
        )
        hummer = HumMer(config=FusionConfig(
            dedup=DedupConfig(blocking="token"), prepare=PrepareConfig(mode="lazy")
        ))
        for alias, relation in dataset.sources.items():
            hummer.register(alias, relation)
        aliases = list(dataset.sources)

        started = time.perf_counter()
        cold = hummer.fuse(aliases)
        cold_s = time.perf_counter() - started

        started = time.perf_counter()
        warm = hummer.fuse(aliases)
        warm_s = time.perf_counter() - started

        assert warm.summary()["artifacts_rebuilt"] == 0
        assert warm.summary()["artifacts_reused"] == len(ARTIFACT_KINDS) * len(aliases)
        assert warm.relation.rows == cold.relation.rows
        assert warm.relation.schema.names == cold.relation.schema.names
        assert warm.detection.cluster_assignment == cold.detection.cluster_assignment

        rows.append(
            (
                entities,
                sum(len(s) for s in cold.sources),
                "full fuse()",
                cold_s,
                warm_s,
                cold_s / warm_s if warm_s > 0 else float("inf"),
            )
        )
        records.append(
            {
                "entities": entities,
                "phase": "full_pipeline",
                "cold_seconds": cold_s,
                "warm_seconds": warm_s,
                "cold_timings": cold.timings.as_dict(),
                "warm_timings": warm.timings.as_dict(),
                "artifacts_reused": warm.summary()["artifacts_reused"],
                "artifacts_rebuilt": warm.summary()["artifacts_rebuilt"],
            }
        )

    # -- preparation-bound phases in isolation at the large size ------------------
    entities = WARM_PHASE_ONLY_ENTITIES
    dataset = students_scenario(
        entity_count=entities, corruption=CorruptionConfig.low(), seed=43
    )
    catalog = PrepCatalog()
    for alias, relation in dataset.sources.items():
        catalog.register(alias, relation)
    aliases = list(dataset.sources)
    prepared = SourcePreparer(catalog).prepare(aliases)
    sources = catalog.fetch_many(aliases)

    # matching: seed discovery cold vs from prepared statistics (best of 3 —
    # the tokenisation saving is real but cross-source scoring is shared, so
    # single measurements are noise-prone on busy CI runners)
    matcher = DumasMatcher()
    seed_cold_s = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        cold_seeds = matcher.seeder.find_seeds(sources[0], sources[1])
        seed_cold_s = min(seed_cold_s, time.perf_counter() - started)

    tokenised = []
    original_compute = seed_module.compute_seed_statistics
    seed_module.compute_seed_statistics = lambda relation, limit: tokenised.append(1) or original_compute(
        relation, limit
    )
    try:
        seed_warm_s = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            warm_seeds = matcher.seeder.find_seeds(
                sources[0], sources[1], prepared=prepared
            )
            seed_warm_s = min(seed_warm_s, time.perf_counter() - started)
    finally:
        seed_module.compute_seed_statistics = original_compute
    assert warm_seeds == cold_seeds
    # warm seeding is faster *by construction*: it re-tokenises nothing
    assert tokenised == []

    # candidate generation: token index built cold vs merged from postings
    matching = MultiMatcher(matcher).match(sources)
    combined = transform_sources(sources, matching.correspondences)
    view = prepared.view(combined, matching.correspondences, matching.preferred)
    assert view is not None
    attributes = list(select_interesting_attributes(combined).attributes)

    # Best of 3, alternating, with a collection before each call: the cold
    # build tokenises each distinct cell once, so both sides are mostly the
    # shared pair enumeration, and one full garbage-collection pass landing
    # in either timed region decided single measurements.
    cold_strategy = TokenBlocking()
    warm_strategy = TokenBlocking()
    candidates_cold_s = candidates_warm_s = float("inf")
    for _ in range(3):
        gc.collect()
        started = time.perf_counter()
        cold_candidates = sum(1 for _ in cold_strategy.pairs(combined, attributes))
        candidates_cold_s = min(candidates_cold_s, time.perf_counter() - started)
        gc.collect()
        started = time.perf_counter()
        warm_candidates = sum(1 for _ in warm_strategy.pairs(combined, attributes, view))
        candidates_warm_s = min(candidates_warm_s, time.perf_counter() - started)
    assert warm_candidates == cold_candidates

    rows.append((entities, len(combined), "seed discovery", seed_cold_s, seed_warm_s,
                 seed_cold_s / seed_warm_s if seed_warm_s > 0 else float("inf")))
    rows.append((entities, len(combined), "candidate generation", candidates_cold_s,
                 candidates_warm_s,
                 candidates_cold_s / candidates_warm_s if candidates_warm_s > 0 else float("inf")))
    records.append(
        {
            "entities": entities,
            "phase": "seed_discovery",
            "cold_seconds": seed_cold_s,
            "warm_seconds": seed_warm_s,
        }
    )
    records.append(
        {
            "entities": entities,
            "phase": "candidate_generation",
            "cold_seconds": candidates_cold_s,
            "warm_seconds": candidates_warm_s,
            "candidates": warm_candidates,
        }
    )

    # the acceptance bar: candidate generation measurably faster warm (the
    # merged index skips tokenisation outright, 1.1-2x here), and seed
    # discovery proved tokenisation-free above — its wall-clock saving is
    # real but small relative to the warm/cold-invariant pair scoring, so it
    # is reported (table + JSON) rather than asserted, to keep CI stable.
    assert candidates_warm_s < candidates_cold_s

    print_table(
        "E4f: cold vs warm with prepared-source artifacts (students)",
        ["entities", "tuples", "phase", "cold s", "warm s", "speedup"],
        rows,
    )

    if json_path:
        with open(json_path, "w") as handle:
            json.dump({"benchmark": "e4_warm_vs_cold", "rows": records}, handle, indent=2)

    benchmark.pedantic(
        lambda: HumMer(config=FusionConfig(dedup=DedupConfig(blocking="token"))),
        rounds=1,
        iterations=1,
    )


#: Sizes for the matching-scale series (override with ``--e4-match-entities``
#: for the CI smoke run).  The full series exercises the ISSUE 6 acceptance
#: sizes: cold vs warm DUMAS matching at 1k/5k/10k entities per source.
MATCH_ENTITY_COUNTS = [1000, 5000, 10000]

#: Interactive bar for the end-to-end fuse at the largest configured size.
MATCH_FUSE_BUDGET_SECONDS = 60.0


def test_e4_matching_scale(benchmark, request):
    """Cold vs warm ``DumasMatcher.match`` plus seed-scoring candidate counts.

    Acceptance bars for the prepared-matching layer (ISSUE 6), asserted at
    every configured size:

    * the warm prepare rebuilds zero field-corpus artifacts, and the warm
      match is bit-identical to the cold one (correspondences, seeds and the
      averaged matrix, exact floats);
    * the seeder computes exact cosines only around the k-th best
      approximate one: at most ``2 × max_seeds`` per source pair
      (``seed_cosines``; ``seed_candidates`` counts the term-sharing pairs
      whose approximate cosine reached ``min_similarity − δ``), cold and warm;
    * the end-to-end fuse at the largest configured size completes
      interactively (< 60 s — the "past the dedup wall" headline number
      when run at the full 10k default).
    """
    from repro.config import DedupConfig, FusionConfig, PrepareConfig
    from repro.engine.catalog import Catalog as MatchCatalog
    from repro.hummer import HumMer
    from repro.prepare import FIELD_KIND, SourcePreparer

    entities_option = request.config.getoption("--e4-match-entities")
    json_path = request.config.getoption("--e4-match-json")
    sizes = (
        [int(value) for value in entities_option.split(",") if value.strip()]
        if entities_option
        else MATCH_ENTITY_COUNTS
    )

    def match_fingerprint(result):
        return (
            [
                (c.left_attribute, c.right_attribute, c.score)
                for c in result.correspondences
            ],
            [(s.left_index, s.right_index, s.similarity) for s in result.seeds],
            result.matrix.scores.tolist(),
        )

    rows = []
    records = []
    for entities in sizes:
        dataset = students_scenario(
            entity_count=entities, corruption=CorruptionConfig.low(), seed=47
        )
        catalog = MatchCatalog()
        for alias, relation in dataset.sources.items():
            catalog.register(alias, relation)
        aliases = list(dataset.sources)
        # the artifact bundle keys on object identity — match the catalog's
        # memoised fetch results, exactly what the pipeline does
        left = catalog.fetch(aliases[0])
        right = catalog.fetch(aliases[1])
        tuples = len(left) + len(right)

        cold_matcher = DumasMatcher()
        started = time.perf_counter()
        cold = cold_matcher.match(left, right)
        cold_s = time.perf_counter() - started
        scoring = cold_matcher.seeder.last_scoring.as_dict()

        preparer = SourcePreparer(catalog)
        started = time.perf_counter()
        preparer.prepare(aliases)  # cold build, priced separately
        prepare_s = time.perf_counter() - started
        prepared = preparer.prepare(aliases)
        counters = prepared.counters.as_dict()
        assert counters["rebuilt_by_kind"].get(FIELD_KIND, 0) == 0
        assert counters["reused_by_kind"][FIELD_KIND] == len(aliases)
        assert prepared.field_corpus(left, right) is not None

        warm_matcher = DumasMatcher()
        started = time.perf_counter()
        warm = warm_matcher.match(left, right, prepared=prepared)
        warm_s = time.perf_counter() - started

        assert match_fingerprint(warm) == match_fingerprint(cold)
        warm_scoring = warm_matcher.seeder.last_scoring.as_dict()
        assert warm_scoring["seed_candidates"] == scoring["seed_candidates"]
        # the band acceptance bar: exact cosines only for the pairs within
        # δ of the k-th best approximate one, not for every candidate
        for counted in (scoring, warm_scoring):
            assert counted["seed_cosines"] <= 2 * cold_matcher.seeder.max_seeds

        rows.append(
            (
                entities,
                tuples,
                cold_s,
                warm_s,
                cold_s / warm_s if warm_s > 0 else float("inf"),
                scoring["seed_candidates"],
                scoring["seed_cosines"],
                scoring["seed_scored_fraction"],
            )
        )
        records.append(
            {
                "entities": entities,
                "tuples": tuples,
                "cold_match_seconds": cold_s,
                "warm_match_seconds": warm_s,
                "prepare_seconds": prepare_s,
                "seed_candidates": scoring["seed_candidates"],
                "seed_cosines": scoring["seed_cosines"],
                "seed_scored_fraction": scoring["seed_scored_fraction"],
            }
        )

    # -- end-to-end fuse at the largest size: the interactive bar -----------------
    # token blocking, like the warm-vs-cold series: its frequency cap keeps
    # the candidate count sub-quadratic at 10k (all-pairs scoring is the
    # quadratic wall this ISSUE is about staying past)
    entities = sizes[-1]
    dataset = students_scenario(
        entity_count=entities, corruption=CorruptionConfig.low(), seed=47
    )
    hummer = HumMer(config=FusionConfig(
        dedup=DedupConfig(blocking="token"), prepare=PrepareConfig(mode="lazy")
    ))
    for alias, relation in dataset.sources.items():
        hummer.register(alias, relation)
    started = time.perf_counter()
    fused = hummer.fuse(list(dataset.sources))
    fuse_s = time.perf_counter() - started
    assert len(fused.relation) > 0
    assert fuse_s < MATCH_FUSE_BUDGET_SECONDS
    records.append(
        {
            "entities": entities,
            "phase": "end_to_end_fuse",
            "fuse_seconds": fuse_s,
            "fused_rows": len(fused.relation),
            "timings": fused.timings.as_dict(),
        }
    )

    print_table(
        "E4g: cold vs warm DUMAS matching (students)",
        ["entities", "tuples", "cold s", "warm s", "speedup",
         "candidates", "cosines", "scored frac"],
        rows,
    )
    print(f"end-to-end fuse @ {entities} entities: {fuse_s:.3f}s "
          f"(budget {MATCH_FUSE_BUDGET_SECONDS:.0f}s)")

    if json_path:
        with open(json_path, "w") as handle:
            json.dump({"benchmark": "e4_matching_scale", "rows": records}, handle, indent=2)

    small = students_scenario(
        entity_count=120, corruption=CorruptionConfig.low(), seed=47
    ).source_list
    benchmark.pedantic(
        lambda: DumasMatcher().match(small[0], small[1]),
        rounds=1,
        iterations=1,
    )
