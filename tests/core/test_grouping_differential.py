"""Grouping on column dictionaries against the per-row grouping rule.

``group_rows`` derives its keys from the key columns' cached dictionaries:
``value_key`` once per distinct cell, nulls as one key.  This file keeps the
rule it replaced — one key per row, built cell by cell — as the reference,
and checks ``group_rows``, ``find_conflicts`` and ``FusionOperator.fuse``
against it on generated relations whose key cells compare equal across
types (``True == 1 == 1.0 == Decimal("1")``), print differently while equal
(``0.0`` / ``-0.0``, ``Decimal("1")`` / ``Decimal("1.0")``), collide only
as floats (``2**53`` / ``2**53 + 1``) or are nulls of two kinds (``None``,
NaN).
"""

import datetime
from decimal import Decimal
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.fusion as fusion_module
from repro.core.conflicts import ConflictKind, classify_values, find_conflicts
from repro.core.fusion import FusionOperator, FusionSpec, ResolutionSpec
from repro.engine.operators.base import RelationSource
from repro.engine.operators.groupby import GroupBy, group_rows
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import is_null, value_key

COLUMNS = ["objectID", "k2", "a", "b", "sourceID"]

KEY_CELLS = [
    None, float("nan"), 0.0, -0.0, 0, False, True, 1, 1.0, Decimal("1"), Decimal("1.0"),
    10, 10.0, 2**53, 2**53 + 1, float(2**53), "1", "a", "A", "",
    datetime.date(2005, 8, 30), datetime.datetime(2005, 8, 30),
]
VALUE_CELLS = [None, float("nan"), 0.0, -0.0, 1, 1.0, True, "x", "y", "", Decimal("2.50")]


def reference_group_rows(relation, by):
    """The per-row rule: each grouping cell keyed by value_key, nulls as one key."""
    positions = relation.schema.positions(by)
    groups = {}
    for values in relation.rows:
        key = tuple(
            ("null",) if is_null(values[p]) else value_key(values[p]) for p in positions
        )
        if key not in groups:
            groups[key] = (tuple(values[p] for p in positions), [])
        groups[key][1].append(values)
    return list(groups.values())


def reference_conflicts(relation):
    """find_conflicts over the reference groups: (clusters, multi, conflicts)."""
    groups = reference_group_rows(relation, ["objectID"])
    source = relation.schema.position("sourceID")
    conflicts = []
    for key_values, rows in groups:
        if len(rows) < 2:
            continue
        for position, name in enumerate(relation.schema.names):
            if name in ("objectID", "sourceID"):
                continue
            values = [row[position] for row in rows]
            kind = classify_values(values)
            if kind is not ConflictKind.NONE:
                sources = [row[source] for row in rows]
                conflicts.append((key_values[0], name, kind, values, sources))
    multi = sum(1 for _, rows in groups if len(rows) > 1)
    return repr((len(groups), multi, conflicts))


def conflicts_of(relation):
    report = find_conflicts(relation)
    return repr((
        report.cluster_count,
        report.multi_tuple_cluster_count,
        [(c.object_id, c.column, c.kind, c.values, c.sources) for c in report.conflicts],
    ))


def fusion_spec(by):
    # vote declares keeps_single_value, first does not: one-tuple groups take
    # both the copy and the context path
    return FusionSpec(
        key_columns=by,
        resolutions=[ResolutionSpec("a", "vote"), ResolutionSpec("b", "first")],
    )


def fused(relation, by):
    result = FusionOperator(fusion_spec(by)).fuse(relation)
    return result, repr((result.relation.rows, result.resolved_conflict_count))


def reference_fused(relation, by):
    """Fusion over the reference groups, and every group's lineage in order."""
    with mock.patch.object(fusion_module, "group_rows", reference_group_rows):
        operator = FusionOperator(fusion_spec(by))
        records = [
            record for group in operator.fuse_stream(relation) for record in group.lineage
        ]
        result = operator.fuse(relation)
    return records, repr((result.relation.rows, result.resolved_conflict_count))


rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(KEY_CELLS),
        st.sampled_from(KEY_CELLS),
        st.sampled_from(VALUE_CELLS),
        st.sampled_from(VALUE_CELLS),
        st.sampled_from(["s1", "s2", None]),
    ),
    max_size=14,
)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_strategy, by=st.sampled_from([["objectID"], ["objectID", "k2"], ["k2"], []]))
def test_group_rows_matches_the_per_row_rule(rows, by):
    relation = Relation(Schema(COLUMNS), rows, name="r")
    expected = reference_group_rows(relation, by)
    # repr: NaN equals itself and -0.0 differs from 0.0
    assert repr(group_rows(relation, by)) == repr(expected)
    # GROUP BY on the same relation reuses the cached codes, same groups
    grouped = GroupBy(RelationSource(relation), by).execute()
    assert repr(grouped.rows) == repr([key_values for key_values, _ in expected])


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_strategy)
def test_find_conflicts_matches_the_per_row_rule(rows):
    relation = Relation(Schema(COLUMNS), rows, name="r")
    assert conflicts_of(relation) == reference_conflicts(relation)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_strategy, by=st.sampled_from([["objectID"], ["objectID", "k2"]]))
def test_fusion_matches_the_per_row_rule(rows, by):
    relation = Relation(Schema(COLUMNS), rows, name="r")
    # conflicts first, as the pipeline runs them: fusion then reuses the codes
    assert conflicts_of(relation) == reference_conflicts(relation)
    result, observed = fused(relation, by)
    records, expected = reference_fused(relation, by)
    assert observed == expected
    # every group is its own object: no record overwrites another
    assert repr(list(result.lineage)) == repr(records)
    for record in records:
        assert repr(result.lineage.lookup(record.object_id, record.column)) == repr(record)
