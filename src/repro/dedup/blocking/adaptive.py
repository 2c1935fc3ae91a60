"""Adaptive blocking — a profiling-driven planner over the fixed strategies.

PRs 1–2 made pair *enumeration* and pair *scoring* pluggable, but choosing
the strategy (and its ``window`` / block-cap knobs) was still the caller's
blind guess.  :class:`AdaptiveBlocking` closes that loop: it profiles the
relation once — tuple count, per-attribute cardinality and null rate, and
the token distribution of the existing :class:`TokenBlocking` inverted
index — and *plans*:

* **small inputs** fall back to the exact :class:`AllPairsBlocking`
  baseline (quadratic is affordable, and only it has perfect
  candidate-stage recall);
* otherwise the sorted-neighborhood ``window`` is **escalated** along a
  ladder until the proposed-pair count plateaus (a wider window that barely
  proposes new pairs is pure cost), then stepped back down if the proposal
  count blows the pair budget;
* when the per-attribute **corruption estimates** are high — values rarely
  share even one identifying token with any other row, so single-evidence
  strategies will drop true duplicates — the plan escalates to
  :class:`~repro.dedup.blocking.union.UnionBlocking` over ``snm + token``,
  proposing from both kinds of cheap index and letting the full measure
  verify.

The chosen plan is a :class:`BlockingPlan` report (strategy, knobs, profile
statistics, human-readable reasons) that threads through
``CandidatePairGenerator`` → ``FilterStatistics`` → pipeline summaries →
the CLI, so every run can show *why* its candidates look the way they do.

The corruption estimate is a heuristic, not a measurement: an attribute
whose non-null values mostly share no sub-cap token block with any other
row either has no duplicates or has duplicates whose token evidence was
destroyed — and in both cases single-index blocking is unsafe, which is
exactly when the union escalation is worth its extra candidates.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.dedup.blocking.allpairs import AllPairsBlocking
from repro.dedup.blocking.base import BlockingStrategy, attribute_positions
from repro.dedup.blocking.sorted_neighborhood import SortedNeighborhoodBlocking
from repro.dedup.blocking.token import TokenBlocking
from repro.dedup.blocking.union import UnionBlocking
from repro.engine.relation import Relation
from repro.engine.types import is_null

__all__ = [
    "AttributeProfile",
    "RelationProfile",
    "BlockingPlan",
    "AdaptiveBlocking",
    "profile_relation",
    "format_plan_report",
]


@dataclass
class AttributeProfile:
    """Profiling statistics of one blocking attribute.

    Attributes:
        attribute: the column name.
        null_rate: fraction of tuples with a null value.
        distinct_ratio: distinct non-null values / non-null tuples — near 1.0
            for identifying attributes, near 0.0 for category-like ones.
        corruption_estimate: fraction of non-null tuples that share **no**
            sub-cap token block with any other tuple on this attribute.  High
            values mean token evidence is absent (unique data or corrupted
            duplicates) — either way, single-index blocking is risky here.
    """

    attribute: str
    null_rate: float
    distinct_ratio: float
    corruption_estimate: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "attribute": self.attribute,
            "null_rate": round(self.null_rate, 4),
            "distinct_ratio": round(self.distinct_ratio, 4),
            "corruption_estimate": round(self.corruption_estimate, 4),
        }


@dataclass
class RelationProfile:
    """Everything the planner knows about a relation before deciding.

    Attributes:
        tuple_count: number of tuples.
        total_pairs: ``n·(n-1)/2`` — the all-pairs baseline cost.
        attributes: per-attribute statistics for the profiled (highest
            identifying power) blocking attributes.
        token_count: distinct index tokens across the profiled attributes.
        dropped_block_count: token blocks larger than the frequency cap
            (stop-tokens carrying no identifying power).
        mean_block_size: mean tuples per kept token block.
    """

    tuple_count: int
    total_pairs: int
    attributes: List[AttributeProfile] = field(default_factory=list)
    token_count: int = 0
    dropped_block_count: int = 0
    mean_block_size: float = 0.0

    @property
    def corruption_estimate(self) -> float:
        """Mean per-attribute corruption estimate, weighted by presence.

        Attributes that are mostly null contribute little evidence either
        way, so each attribute's estimate is weighted by ``1 - null_rate``.
        An all-null profile (no usable attributes) counts as fully corrupted:
        there is no token evidence to block on.
        """
        weights = [(1.0 - profile.null_rate) for profile in self.attributes]
        total = sum(weights)
        if total <= 0.0:
            return 1.0
        weighted = sum(
            weight * profile.corruption_estimate
            for weight, profile in zip(weights, self.attributes)
        )
        return weighted / total

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tuple_count": self.tuple_count,
            "total_pairs": self.total_pairs,
            "corruption_estimate": round(self.corruption_estimate, 4),
            "token_count": self.token_count,
            "dropped_block_count": self.dropped_block_count,
            "mean_block_size": round(self.mean_block_size, 2),
            "attributes": [profile.as_dict() for profile in self.attributes],
        }


@dataclass
class BlockingPlan:
    """The planner's decision plus everything needed to explain it.

    Attributes:
        strategy: the constructed strategy the plan delegates to.
        profile: the relation profile the decision was based on.
        options: the knobs the planner chose (e.g. ``{"window": 16}``).
        reasons: human-readable decision trail, one sentence per step.
        proposed_pairs: candidate count of the chosen strategy, counted
            during planning (for all-pairs this equals ``total_pairs``).
        proposals: the pairs enumerated while counting, kept so
            :meth:`AdaptiveBlocking.pairs` can replay them instead of
            enumerating the chosen strategy a second time.  Excluded from
            :meth:`as_dict`; may be stripped to ``None`` (older cached plans
            drop theirs to bound memory), in which case the strategy is
            simply re-enumerated.
    """

    strategy: BlockingStrategy
    profile: RelationProfile
    options: Dict[str, Any] = field(default_factory=dict)
    reasons: List[str] = field(default_factory=list)
    proposed_pairs: Optional[int] = None
    proposals: Optional[List[Tuple[int, int]]] = None

    @property
    def strategy_name(self) -> str:
        return self.strategy.name

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable report for ``FilterStatistics`` and the CLI."""
        return {
            "strategy": self.strategy_name,
            "options": dict(self.options),
            "reasons": list(self.reasons),
            "proposed_pairs": self.proposed_pairs,
            "profile": self.profile.as_dict(),
        }

    def describe(self) -> str:
        """Multi-line human rendering of the plan."""
        return "\n".join(format_plan_report(self.as_dict()))


def format_plan_report(report: Dict[str, Any]) -> List[str]:
    """Render a plan-report dict (``BlockingPlan.as_dict``) as display lines.

    Shared by the CLI commands so library callers, ``hummer fuse`` and
    ``hummer demo`` all print plans the same way.  Tolerates the smaller
    report shape :class:`UnionBlocking` emits (no profile / reasons).
    """
    options = dict(report.get("options") or {})
    # both report shapes name union children: UnionBlocking at the top level,
    # the adaptive planner inside the chosen options — render them the same
    children = report.get("children") or options.pop("children", None)
    rendered_options = ", ".join(f"{key}={value}" for key, value in sorted(options.items()))
    headline = f"blocking plan: {report.get('strategy', '?')}"
    if rendered_options:
        headline += f" ({rendered_options})"
    if children:
        headline += f" over {'+'.join(children)}"
    lines = [headline]
    profile = report.get("profile")
    if profile:
        proposed = report.get("proposed_pairs")
        total = profile.get("total_pairs") or 0
        if proposed is not None and total:
            lines.append(
                f"  proposals: {proposed} of {total} pairs "
                f"({100.0 * proposed / total:.1f}%)"
            )
        lines.append(
            f"  profile: {profile.get('tuple_count')} tuples, "
            f"corruption estimate {profile.get('corruption_estimate')}, "
            f"{profile.get('token_count')} index tokens "
            f"({profile.get('dropped_block_count')} blocks over cap)"
        )
    for reason in report.get("reasons") or []:
        lines.append(f"  - {reason}")
    return lines


def profile_relation(
    relation: Relation,
    attributes: Sequence[str],
    token_strategy: Optional[TokenBlocking] = None,
    max_attributes: int = 4,
) -> RelationProfile:
    """Profile *relation* for the planner.

    Args:
        relation: the combined relation to be deduplicated.
        attributes: blocking attributes, most identifying first (the order
            ``CandidatePairGenerator.blocking_attributes`` produces); only
            the first *max_attributes* are profiled.
        token_strategy: the :class:`TokenBlocking` whose tokenisation and
            frequency cap the profile mirrors (default: a stock instance).
        max_attributes: how many attributes to profile — profiling costs one
            tokenisation pass per attribute, and the low-weight tail adds
            little signal.
    """
    token_strategy = token_strategy or TokenBlocking()
    size = len(relation)
    profile = RelationProfile(tuple_count=size, total_pairs=size * (size - 1) // 2)
    cap = token_strategy.effective_cap(size)
    positions = attribute_positions(relation, attributes)[:max_attributes]
    merged_blocks: Dict[str, Set[int]] = {}
    for attribute, position in positions:
        non_null = 0
        distinct: Set[str] = set()
        index = token_strategy.build_index(relation, [attribute])
        for token, members in index.items():
            merged_blocks.setdefault(token, set()).update(members)
        covered: Set[int] = set()
        for members in index.values():
            if 2 <= len(members) <= cap:
                covered.update(members)
        for values in relation.rows:
            value = values[position]
            if is_null(value):
                continue
            non_null += 1
            distinct.add(str(value))
        null_rate = 1.0 - (non_null / size) if size else 0.0
        distinct_ratio = len(distinct) / non_null if non_null else 0.0
        # fewer than two non-null values can never share a block; treat the
        # attribute as evidence-free rather than dividing by zero
        corruption = 1.0 - (len(covered) / non_null) if non_null >= 2 else 1.0
        profile.attributes.append(
            AttributeProfile(
                attribute=attribute,
                null_rate=null_rate,
                distinct_ratio=distinct_ratio,
                corruption_estimate=corruption,
            )
        )
    profile.token_count = len(merged_blocks)
    profile.dropped_block_count = sum(
        1 for members in merged_blocks.values() if len(members) > cap
    )
    kept_sizes = [len(members) for members in merged_blocks.values() if len(members) <= cap]
    profile.mean_block_size = (sum(kept_sizes) / len(kept_sizes)) if kept_sizes else 0.0
    return profile


class AdaptiveBlocking(BlockingStrategy):
    """Profiles the relation, then delegates to the planned strategy.

    Args:
        small_threshold: tuple count at or below which the plan is the exact
            all-pairs baseline.  The default (400 tuples ≈ 80k pairs) keeps
            interactive inputs exact; the E4 students scenario crosses it
            between ~256 and ~1000 entities.
        corruption_threshold: profile corruption estimate at or above which
            the plan escalates to union blocking over ``snm + token``.
        window_ladder: ascending sorted-neighborhood windows the planner
            walks while escalating.
        plateau_ratio: stop escalating when the next window proposes fewer
            than ``(1 + plateau_ratio)×`` the current window's pairs — the
            wider window is mostly re-proposing known pairs.
        max_pair_fraction: candidate budget as a fraction of all pairs; the
            window steps back down the ladder while its proposal count
            exceeds the budget (the union escalation may exceed it — recall
            under corruption is worth the extra candidates, and the overrun
            is recorded in the plan reasons).
        max_profile_attributes: attributes to profile (see
            :func:`profile_relation`).
        snm_options: extra :class:`SortedNeighborhoodBlocking` knobs
            (``max_keys``, ``key_style``, …); ``window`` is the planner's to
            choose and is rejected here.
        token_options: :class:`TokenBlocking` knobs used for profiling and
            for the union escalation's token child.
    """

    name = "adaptive"

    def __init__(
        self,
        small_threshold: int = 400,
        corruption_threshold: float = 0.35,
        window_ladder: Sequence[int] = (8, 16, 32),
        plateau_ratio: float = 0.2,
        max_pair_fraction: float = 0.3,
        max_profile_attributes: int = 4,
        snm_options: Optional[Dict[str, Any]] = None,
        token_options: Optional[Dict[str, Any]] = None,
    ):
        if small_threshold < 0:
            raise ValueError("small_threshold must be non-negative")
        ladder = [int(window) for window in window_ladder]
        if not ladder or any(window < 2 for window in ladder):
            raise ValueError("window_ladder needs at least one window, each at least 2")
        if sorted(ladder) != ladder or len(set(ladder)) != len(ladder):
            raise ValueError("window_ladder must be strictly ascending")
        if plateau_ratio <= 0.0:
            raise ValueError("plateau_ratio must be positive")
        if not 0.0 < max_pair_fraction <= 1.0:
            raise ValueError("max_pair_fraction must lie in (0, 1]")
        if snm_options and "window" in snm_options:
            raise ValueError("the planner chooses the snm window; pass other knobs only")
        self.small_threshold = small_threshold
        self.corruption_threshold = corruption_threshold
        self.window_ladder = ladder
        self.plateau_ratio = plateau_ratio
        self.max_pair_fraction = max_pair_fraction
        self.max_profile_attributes = max_profile_attributes
        self.snm_options = dict(snm_options or {})
        self.token_options = dict(token_options or {})
        # shared token strategy, used for profiling and (under the union
        # escalation) candidate proposal
        self._token = TokenBlocking(**self.token_options)
        #: the most recently computed plan, for tests and interactive callers
        self.last_plan: Optional[BlockingPlan] = None
        # (relation content key, attribute tuple) → plan; bounded LRU, same
        # shape (and same collision-proof content keying) as TokenBlocking's
        # index cache
        self._plan_cache: "OrderedDict[Tuple, BlockingPlan]" = OrderedDict()
        self._plan_cache_size = 4

    # -- planning -----------------------------------------------------------------

    def plan(self, relation: Relation, attributes: Sequence[str], prepared=None) -> BlockingPlan:
        """The plan for *relation*, memoised per (content key, attributes).

        A *prepared* view serves the profile (and the union escalation's
        token index); the plan equals the cold one.
        """
        key = (relation.content_key(), tuple(attributes))
        cached = self._plan_cache.get(key)
        if cached is not None:
            self._plan_cache.move_to_end(key)
            self.last_plan = cached
            return cached
        plan = self._build_plan(relation, attributes, prepared)
        self._plan_cache[key] = plan
        self._plan_cache.move_to_end(key)
        while len(self._plan_cache) > self._plan_cache_size:
            self._plan_cache.popitem(last=False)
        # only the newest plan keeps its materialised proposal list; older
        # plans fall back to re-enumerating their strategy, bounding the
        # cache to one O(candidates) list rather than one per entry
        for other in self._plan_cache.values():
            if other is not plan:
                other.proposals = None
        self.last_plan = plan
        return plan

    def _build_plan(self, relation: Relation, attributes: Sequence[str], prepared) -> BlockingPlan:
        profile: Optional[RelationProfile] = None
        if prepared is not None:
            profile = prepared.merged_profile(
                relation, attributes, self._token, self.max_profile_attributes
            )
        if profile is None:
            profile = profile_relation(
                relation,
                attributes,
                token_strategy=self._token,
                max_attributes=self.max_profile_attributes,
            )
        reasons: List[str] = []
        if profile.tuple_count <= self.small_threshold:
            reasons.append(
                f"{profile.tuple_count} tuples <= small_threshold "
                f"{self.small_threshold}: exact all-pairs is affordable and the "
                f"only strategy with perfect candidate recall"
            )
            return BlockingPlan(
                strategy=AllPairsBlocking(),
                profile=profile,
                options={},
                reasons=reasons,
                proposed_pairs=profile.total_pairs,
            )

        window, window_proposals = self._escalate_window(
            relation, attributes, profile, reasons
        )
        snm = SortedNeighborhoodBlocking(window=window, **self.snm_options)

        corruption = profile.corruption_estimate
        if corruption >= self.corruption_threshold:
            reasons.append(
                f"corruption estimate {corruption:.2f} >= threshold "
                f"{self.corruption_threshold:.2f}: union snm+token proposes from "
                f"both indexes so pairs whose token evidence broke are recovered"
            )
            strategy: BlockingStrategy = UnionBlocking([snm, self._token])
            proposals = list(strategy.pairs(relation, attributes, prepared))
            budget = int(self.max_pair_fraction * profile.total_pairs)
            if len(proposals) > budget:
                reasons.append(
                    f"union proposes {len(proposals)} pairs, over the budget of "
                    f"{budget}: accepted — recall under corruption outweighs the "
                    f"pair budget"
                )
            return BlockingPlan(
                strategy=strategy,
                profile=profile,
                options={"window": window, "children": ["snm", "token"]},
                reasons=reasons,
                proposed_pairs=len(proposals),
                proposals=proposals,
            )

        reasons.append(
            f"corruption estimate {corruption:.2f} below threshold "
            f"{self.corruption_threshold:.2f}: sorted-neighborhood passes over the "
            f"identifying attributes suffice"
        )
        proposals = window_proposals[window]
        return BlockingPlan(
            strategy=snm,
            profile=profile,
            options={"window": window},
            reasons=reasons,
            proposed_pairs=len(proposals),
            proposals=proposals,
        )

    def _escalate_window(
        self,
        relation: Relation,
        attributes: Sequence[str],
        profile: RelationProfile,
        reasons: List[str],
    ) -> Tuple[int, Dict[int, List[Tuple[int, int]]]]:
        """Walk the window ladder until the proposal count plateaus, then
        step back down while the count exceeds the pair budget.

        The enumerated proposal lists are returned so the chosen window's
        pairs can be replayed at scoring time instead of enumerated again.
        """
        proposals: Dict[int, List[Tuple[int, int]]] = {}

        def count_for(window: int) -> int:
            if window not in proposals:
                strategy = SortedNeighborhoodBlocking(window=window, **self.snm_options)
                proposals[window] = list(strategy.pairs(relation, attributes))
            return len(proposals[window])

        ladder = self.window_ladder
        chosen = ladder[0]
        for next_window in ladder[1:]:
            current_count = count_for(chosen)
            next_count = count_for(next_window)
            if next_count <= current_count * (1.0 + self.plateau_ratio):
                reasons.append(
                    f"snm window {next_window} proposes {next_count} pairs, within "
                    f"{self.plateau_ratio:.0%} of window {chosen}'s {current_count}: "
                    f"proposal count plateaued, stopping escalation"
                )
                break
            chosen = next_window
        else:
            reasons.append(
                f"snm window escalated to the ladder maximum {chosen} "
                f"({count_for(chosen)} proposals, still growing)"
            )

        budget = int(self.max_pair_fraction * profile.total_pairs)
        while count_for(chosen) > budget and chosen != ladder[0]:
            lower = ladder[ladder.index(chosen) - 1]
            reasons.append(
                f"window {chosen} proposes {count_for(chosen)} pairs, over the "
                f"budget of {budget} ({self.max_pair_fraction:.0%} of all pairs): "
                f"stepping down to window {lower}"
            )
            chosen = lower
        if count_for(chosen) > budget:
            reasons.append(
                f"window {chosen} still proposes {count_for(chosen)} pairs, over "
                f"the budget of {budget} even at the ladder minimum: accepted — "
                f"no smaller window is available"
            )
        return chosen, proposals

    # -- the BlockingStrategy contract ----------------------------------------------

    def pairs(self, relation: Relation, attributes: Sequence[str], prepared=None):
        plan = self.plan(relation, attributes, prepared)
        if plan.proposals is not None:
            # replay the pairs already enumerated during planning — same
            # pairs in the same order, without running the strategy twice
            return iter(plan.proposals)
        return plan.strategy.pairs(relation, attributes, prepared)

    def plan_report(
        self, relation: Relation, attributes: Sequence[str], prepared=None
    ) -> Dict[str, Any]:
        return self.plan(relation, attributes, prepared).as_dict()

    def __repr__(self) -> str:
        return (
            f"AdaptiveBlocking(small_threshold={self.small_threshold}, "
            f"corruption_threshold={self.corruption_threshold}, "
            f"window_ladder={tuple(self.window_ladder)}, "
            f"plateau_ratio={self.plateau_ratio}, "
            f"max_pair_fraction={self.max_pair_fraction})"
        )
