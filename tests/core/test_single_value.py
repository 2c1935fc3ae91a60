"""The single-value declaration of resolution functions, and the fusion
operator's one-tuple path that relies on it.

A function that sets ``keeps_single_value`` promises that resolving one
value returns that value itself (``None`` for a null).  The fusion operator
then copies the cells of one-tuple groups without building a context, so
the promise must hold for every value type a cell can carry, and fusing with
the declaration must be indistinguishable from fusing without it.
"""

import datetime
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fusion import FusionOperator, FusionSpec, ResolutionSpec
from repro.core.resolution import (
    FunctionResolution,
    ResolutionContext,
    ResolutionFunction,
    build_default_registry,
    default_registry,
)
from repro.datagen.corruptor import CorruptionConfig
from repro.datagen.scenarios import cd_stores_scenario, students_scenario
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import is_null
from repro.exceptions import ResolutionError
from repro.hummer import HumMer


def registry_functions():
    """(label, function) for every entry of the default registry; factories
    are instantiated with the argument shapes a query can give them."""
    registry = default_registry()
    functions = []
    for name in registry.names():
        if name == "choose":
            functions.append(("choose", registry.get("choose", "a")))
            functions.append(("choose strict", registry.get("choose", "a", True)))
        elif name == "choose_source_order":
            functions.append(("choose_source_order", registry.get(name, "b", "a")))
        else:
            functions.append((name, registry.get(name)))
    return functions


DECLARING = {
    "coalesce", "vote", "longest", "shortest", "group", "concat", "min", "max",
    "median", "most_precise", "choose_source_order", "choose",
}

#: Per function that must not declare: a ``(value, source)`` it changes.
COUNTEREXAMPLES = {
    "first": (float("nan"), "a"),  # NaN, not None
    "last": (float("nan"), "a"),
    "avg": (1, "a"),  # 1.0
    "sum": (-0.0, "a"),  # 0 + -0.0 is 0.0
    "count": ("x", "a"),  # 1
    "stddev": (1, "a"),  # None: needs two values
    "variance": (1, "a"),
    "midrange": (1, "a"),  # 1.0
    "trimmed_mean": (1, "a"),  # 1.0
    "annotated_concat": ("x", "a"),  # "x [a]"
    "most_recent": ("x", "a"),  # raises: no recency column
    "choose strict": ("x", "b"),  # None: the one value is not from "a"
}


def resolves_to_itself(function, value, source):
    """Whether *function* returns a lone *value* itself (None for a null)."""
    context = ResolutionContext(column="c", values=[value], sources=[source], object_id=0)
    result = function.resolve(context)
    return result is None if is_null(value) else result is value


CELLS = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf]),
    st.text(max_size=6),
    st.just(""),
    st.dates(),
    st.datetimes(),
)


class TestDeclaration:
    def test_exactly_the_listed_functions_declare(self):
        declaring = {
            label for label, function in registry_functions() if function.keeps_single_value
        }
        assert declaring == DECLARING

    def test_every_registry_entry_is_classified(self):
        labels = {label for label, _ in registry_functions()}
        assert labels == DECLARING | set(COUNTEREXAMPLES)
        assert not DECLARING & set(COUNTEREXAMPLES)

    @settings(max_examples=300, deadline=None)
    @given(value=CELLS, source=st.sampled_from(["a", "b", None]))
    def test_declaring_functions_return_the_lone_value(self, value, source):
        for label, function in registry_functions():
            if function.keeps_single_value:
                assert resolves_to_itself(function, value, source), label

    @pytest.mark.parametrize("label", sorted(COUNTEREXAMPLES))
    def test_functions_that_change_a_lone_value_do_not_declare(self, label):
        function = dict(registry_functions())[label]
        assert not function.keeps_single_value
        value, source = COUNTEREXAMPLES[label]
        if label == "most_recent":
            with pytest.raises(ResolutionError):
                resolves_to_itself(function, value, source)
        else:
            assert not resolves_to_itself(function, value, source)

    def test_custom_functions_do_not_declare_by_default(self):
        class Upper(ResolutionFunction):
            name = "upper"

            def resolve(self, context):
                return str(context.values[0]).upper()

        registry = build_default_registry()
        registry.register(FunctionResolution("min", lambda values: min(values)), replace=True)
        assert not Upper().keeps_single_value
        assert not registry.get("min").keeps_single_value


class Hidden(ResolutionFunction):
    """*inner* without its declaration: every group goes through resolve()."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def resolve(self, context):
        return self.inner.resolve(context)


def fused(relation, functions, hide):
    """Rows, lineage records, conflict count and progress of one fusion."""
    columns = [
        name for name in relation.schema.names if name not in ("objectID", "sourceID")
    ]
    assigned = [functions[index % len(functions)] for index in range(len(columns))]
    spec = FusionSpec(
        key_columns=["objectID"],
        resolutions=[
            ResolutionSpec(column, Hidden(function) if hide else function)
            for column, function in zip(columns, assigned)
        ],
    )
    operator = FusionOperator(spec, table_name=relation.name)
    events = []
    operator.progress_callback = lambda *event: events.append(event)
    try:
        groups = list(operator.fuse_stream(relation))
        result = operator.fuse(relation)
    except TypeError as error:  # e.g. median over mixed types, either way
        return repr(error), events
    return (
        # repr: NaN equals itself and -0.0 differs from 0.0
        repr(result.relation.rows),
        repr([group.row for group in groups]),
        [record for group in groups for record in group.lineage],
        result.resolved_conflict_count,
        events,
    )


#: Functions that raise on text cells or without a recency column.  None of
#: them declares, so they take the general path with or without hiding.
NOT_FOR_ANY_CELL = {
    "sum", "avg", "stddev", "variance", "midrange", "trimmed_mean", "most_recent",
}


def assert_declaration_invisible(relation):
    functions = [
        function for label, function in registry_functions() if label not in NOT_FOR_ANY_CELL
    ]
    # every function on every column once, and neighbours mixed per group
    for shift in range(len(functions)):
        rotated = functions[shift:] + functions[:shift]
        assert fused(relation, rotated, hide=False) == fused(relation, rotated, hide=True)


def detected(dataset):
    """The objectID-annotated relation duplicate detection hands to fusion."""
    hummer = HumMer()
    for alias, relation in dataset.sources.items():
        hummer.register(alias, relation)
    return hummer.fuse(list(dataset.sources)).detection.relation


class TestOneTuplePathIsInvisible:
    def test_generated_students(self):
        relation = detected(
            students_scenario(entity_count=30, corruption=CorruptionConfig.low(), seed=5)
        )
        assert_declaration_invisible(relation)

    def test_generated_cds(self):
        relation = detected(
            cd_stores_scenario(entity_count=30, store_count=3, seed=9)
        )
        assert_declaration_invisible(relation)

    def test_nan_cells_and_missing_sources(self):
        day = datetime.date(2005, 8, 30)
        rows = [
            (0, float("nan"), None, "ee"),
            (1, 10, "x", None),
            (1, 10.0, float("nan"), "cs"),
            (2, None, "", float("nan")),
            (3, -0.0, day, None),
            (4, True, math.inf, "cs"),
            (4, 1, math.inf, "ee"),
            (5, "", None, "ee"),
        ]
        relation = Relation(
            Schema(["objectID", "a", "b", "sourceID"]), rows, name="mixed"
        )
        assert_declaration_invisible(relation)

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                CELLS,
                CELLS,
                st.sampled_from(["ee", "cs", None, float("nan")]),
            ),
            max_size=10,
        )
    )
    def test_generated_mixed_relations(self, rows):
        relation = Relation(
            Schema(["objectID", "a", "b", "sourceID"]), rows, name="generated"
        )
        assert_declaration_invisible(relation)
