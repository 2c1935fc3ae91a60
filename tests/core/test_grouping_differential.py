"""Grouping and conflict detection on column dictionaries against the
per-row rules.

``group_indices`` derives its keys from the key columns' cached
dictionaries: ``value_key`` once per distinct cell, nulls as one key;
``find_conflicts`` classifies each cluster's cells by dictionary code; and
fusion defers lineage to its first reader.  This file keeps the rules they
replaced — one key per row, built cell by cell; ``classify_values`` over
each cluster's values; ``trace_cell_lineage`` per resolved cell — as the
reference, and checks ``group_rows``, ``find_conflicts`` and
``FusionOperator.fuse`` against them on generated relations whose cells
compare equal across types (``True == 1 == 1.0 == Decimal("1")``), print
differently while equal (``0.0`` / ``-0.0``, ``Decimal("1")`` /
``Decimal("1.0")``), collide only as floats (``2**53`` / ``2**53 + 1``) or
are nulls of two kinds (``None``, NaN).
"""

import datetime
from decimal import Decimal
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.fusion as fusion_module
from repro.core.conflicts import ConflictKind, classify_values, find_conflicts
from repro.core.fusion import FusionOperator, FusionSpec, ResolutionSpec
from repro.core.lineage import CellLineage, trace_cell_lineage
from repro.core.resolution import ResolutionFunction, default_registry
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


def reference_keys(relation, by):
    """The per-row rule: each grouping cell keyed by value_key, nulls as one key."""
    positions = relation.schema.positions(by)
    return [
        tuple(("null",) if is_null(values[p]) else value_key(values[p]) for p in positions)
        for values in relation.rows
    ]


def reference_group_indices(relation, by):
    groups = {}
    for index, key in enumerate(reference_keys(relation, by)):
        groups.setdefault(key, []).append(index)
    return list(groups.values())


def reference_group_rows(relation, by):
    positions = relation.schema.positions(by)
    rows = relation.rows
    return [
        (tuple(rows[members[0]][p] for p in positions), [rows[i] for i in members])
        for members in reference_group_indices(relation, by)
    ]


def reference_conflicts(relation):
    """find_conflicts over the reference groups, classify_values per cluster
    and column: (clusters, multi, conflicts)."""
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


class FromRowsAndSources(ResolutionFunction):
    """Reads ``context.rows`` and ``context.sources``: the cell of the member
    whose source sorts last, read through its row wrapper."""

    name = "from_rows_and_sources"

    def resolve(self, context):
        best = None
        for row, source in zip(context.rows, context.sources):
            if source is not None and (best is None or source > best[0]):
                best = (source, row[context.column])
        return None if best is None else best[1]


def fusion_spec(by):
    # vote declares keeps_single_value, first and the row reader do not:
    # one-tuple groups take both the copy and the context path
    return FusionSpec(
        key_columns=by,
        resolutions=[
            ResolutionSpec("a", "vote"),
            ResolutionSpec("b", "first"),
            ResolutionSpec("a", FromRowsAndSources(), alias="a_last_source"),
        ],
    )


def fused(relation, by):
    result = FusionOperator(fusion_spec(by)).fuse(relation)
    return result, repr((result.relation.rows, result.resolved_conflict_count))


def reference_fused(relation, by):
    """Fusion over the reference groups."""
    with mock.patch.object(fusion_module, "group_indices", reference_group_indices):
        result = FusionOperator(fusion_spec(by)).fuse(relation)
    return repr((result.relation.rows, result.resolved_conflict_count))


def reference_lineage(relation, result, by):
    """Every fused cell's record by the eager rule: a copied cell (a
    one-tuple group under a function that keeps single values) has its row's
    source, none for a null; a resolved cell is traced over its group."""
    spec = fusion_spec(by)
    functions = [resolution.instantiate(default_registry()) for resolution in spec.resolutions]
    source = relation.schema.position("sourceID")
    rows = relation.rows
    records = []
    for members, fused_row in zip(reference_group_indices(relation, by), result.relation.rows):
        group = [rows[i] for i in members]
        object_id = fused_row[0] if len(by) == 1 else tuple(fused_row[: len(by)])
        sources = [None if row[source] is None else str(row[source]) for row in group]
        for offset, (resolution, function) in enumerate(zip(spec.resolutions, functions)):
            position = relation.schema.position(resolution.column)
            values = [row[position] for row in group]
            if len(group) == 1 and function.keeps_single_value:
                contributed = (
                    frozenset() if is_null(values[0]) or sources[0] is None
                    else frozenset([sources[0]])
                )
                record = CellLineage(resolution.output_name, object_id, contributed, False)
            else:
                resolved = fused_row[len(by) + offset]
                record = trace_cell_lineage(
                    resolution.output_name, object_id, resolved, values, sources
                )
            records.append(record)
    return records


def normal(records):
    # repr: NaN equals itself and -0.0 differs from 0.0; sorted: a frozenset
    # prints in hash order
    return [
        (record.column, repr(record.object_id), sorted(record.sources), record.merged)
        for record in records
    ]


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
    # one cluster's conflicts share one sources list
    report = find_conflicts(relation)
    for first, second in zip(report.conflicts, report.conflicts[1:]):
        if first.object_id is second.object_id:
            assert first.sources is second.sources


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_strategy, by=st.sampled_from([["objectID"], ["objectID", "k2"]]))
def test_fusion_matches_the_per_row_rule(rows, by):
    relation = Relation(Schema(COLUMNS), rows, name="r")
    # conflicts first, as the pipeline runs them: fusion then reuses the codes
    assert conflicts_of(relation) == reference_conflicts(relation)
    result, observed = fused(relation, by)
    assert observed == reference_fused(relation, by)
    records = reference_lineage(relation, result, by)
    # every group is its own object: no record overwrites another
    assert normal(result.lineage) == normal(records)
    for record in records:
        looked_up = result.lineage.lookup(record.object_id, record.column)
        assert normal([looked_up]) == normal([record])
    assert len(result.lineage) == len(records)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_strategy, by=st.sampled_from([["objectID"], ["objectID", "k2"]]))
def test_streamed_lineage_matches_the_collected_map(rows, by):
    relation = Relation(Schema(COLUMNS), rows, name="r")
    operator = FusionOperator(fusion_spec(by))
    groups = list(operator.fuse_stream(relation))
    result = operator.fuse(relation)
    streamed = [record for group in groups for record in group.lineage]
    assert normal(streamed) == normal(result.lineage)
    # records are built afresh on each read of a group, equal each time
    assert normal(record for group in groups for record in group.lineage) == normal(streamed)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_strategy, by=st.sampled_from([["objectID"], ["objectID", "k2"]]))
def test_reading_lineage_twice_gives_the_same_records(rows, by):
    relation = Relation(Schema(COLUMNS), rows, name="r")
    lineage = FusionOperator(fusion_spec(by)).fuse(relation).lineage
    first = list(lineage)
    assert list(lineage) == first
    assert all(a is b for a, b in zip(lineage, first))
    assert len(lineage) == len(first)
