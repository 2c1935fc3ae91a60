"""Property-based tests for the blocking contract.

Every strategy — including the union composite — must honour
the :class:`~repro.dedup.blocking.base.BlockingStrategy` contract on *any*
relation:

* every yielded pair satisfies ``i < j`` and indexes real rows;
* no pair is yielded twice;
* the all-pairs baseline proposes a superset of every strategy's proposals
  (trivially: all strategies propose within the same index range — asserted
  directly against the enumerated all-pairs set);
* proposals are deterministic given the same relation and attributes.

Relations are generated by hypothesis: small sizes, a mix of shared words
(so blocks and sort neighbourhoods actually form), free-form near-duplicate
text, numbers and nulls.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dedup.blocking import (
    AllPairsBlocking,
    SortedNeighborhoodBlocking,
    TokenBlocking,
    UnionBlocking,
)
from repro.engine.relation import Relation
from repro.engine.schema import Schema

#: Shared word pool: overlapping tokens make token blocks and sorted
#: neighbourhoods non-trivial instead of degenerating to singletons.
WORDS = [
    "anna", "annna", "schmidt", "schmitd", "ben", "mueller",
    "berlin", "hamburg", "munich", "weber", "carla", "zoe",
]

CELL = st.one_of(
    st.none(),
    st.sampled_from(WORDS),
    st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS)).map(" ".join),
    st.text(alphabet="abz ", max_size=8),
    st.integers(min_value=0, max_value=99),
)


@st.composite
def relations(draw):
    size = draw(st.integers(min_value=0, max_value=20))
    rows = [
        {"name": draw(CELL), "city": draw(CELL), "age": draw(CELL)}
        for _ in range(size)
    ]
    return Relation.from_dicts(rows, schema=Schema(["name", "city", "age"]), name="generated")


#: Factories, not instances: each hypothesis example gets a fresh strategy so
#: per-instance caches cannot couple examples.
STRATEGY_FACTORIES = {
    "allpairs": AllPairsBlocking,
    "snm-narrow": lambda: SortedNeighborhoodBlocking(window=3),
    "snm-value-keys": lambda: SortedNeighborhoodBlocking(window=5, key_style="value"),
    "token": TokenBlocking,
    "token-qgram": lambda: TokenBlocking(qgram=3, max_block_size=10),
    "union": lambda: UnionBlocking(["snm", "token"]),
}

ATTRIBUTES = ["name", "city", "age"]

CONTRACT_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("factory", STRATEGY_FACTORIES.values(), ids=STRATEGY_FACTORIES.keys())
class TestBlockingContract:
    @CONTRACT_SETTINGS
    @given(relation=relations())
    def test_pairs_are_ordered_unique_and_in_range(self, factory, relation):
        strategy = factory()
        pairs = list(strategy.pairs(relation, ATTRIBUTES))
        size = len(relation)
        for i, j in pairs:
            assert 0 <= i < j < size
        assert len(pairs) == len(set(pairs))

    @CONTRACT_SETTINGS
    @given(relation=relations())
    def test_allpairs_is_a_superset(self, factory, relation):
        strategy = factory()
        proposed = set(strategy.pairs(relation, ATTRIBUTES))
        baseline = set(AllPairsBlocking().pairs(relation, ATTRIBUTES))
        assert proposed <= baseline

    @CONTRACT_SETTINGS
    @given(relation=relations())
    def test_proposals_are_deterministic(self, factory, relation):
        strategy = factory()
        first = list(strategy.pairs(relation, ATTRIBUTES))
        second = list(strategy.pairs(relation, ATTRIBUTES))
        assert first == second


@CONTRACT_SETTINGS
@given(relation=relations())
def test_union_proposes_exactly_the_union_of_its_children(relation):
    snm = SortedNeighborhoodBlocking(window=3)
    token = TokenBlocking()
    union = UnionBlocking([snm, token])
    expected = set(snm.pairs(relation, ATTRIBUTES)) | set(token.pairs(relation, ATTRIBUTES))
    assert set(union.pairs(relation, ATTRIBUTES)) == expected

