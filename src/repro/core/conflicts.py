"""Conflict detection and classification.

Before (or instead of) resolving, HumMer can show the user "sample conflicts"
(Fig. 2, step 5).  A *conflict* exists when the tuples of one object cluster
carry different values for the same attribute.  Following the data-fusion
literature the paper builds on, we distinguish

* **uncertainty** — one tuple has a value, others are null (a conflict
  between a value and nothing), and
* **contradiction** — at least two distinct non-null values.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.engine.relation import Relation
from repro.engine.types import is_null, value_key

__all__ = ["ConflictKind", "Conflict", "ConflictReport", "find_conflicts"]


class ConflictKind(enum.Enum):
    """How the values of one attribute within one cluster disagree."""

    NONE = "none"
    UNCERTAINTY = "uncertainty"
    CONTRADICTION = "contradiction"


@dataclass
class Conflict:
    """One attribute of one object cluster with disagreeing values."""

    object_id: Any
    column: str
    kind: ConflictKind
    values: List[Any]
    sources: List[Optional[str]] = field(default_factory=list)

    @property
    def distinct_values(self) -> List[Any]:
        """Distinct non-null values involved in the conflict."""
        seen = set()
        distinct = []
        for value in self.values:
            if is_null(value):
                continue
            key = value_key(value)
            if key not in seen:
                seen.add(key)
                distinct.append(value)
        return distinct

    def __str__(self) -> str:
        rendered = ", ".join(str(v) for v in self.distinct_values)
        return f"{self.column}[object {self.object_id}]: {self.kind.value} ({rendered})"


class ConflictReport:
    """All conflicts of a fused input table, with summary statistics.

    A :func:`find_conflicts` report counts its conflicts by kind and builds
    the :class:`Conflict` objects on the first read of :attr:`conflicts`;
    the pipeline summary and the CLI read only the counts.
    """

    def __init__(
        self,
        conflicts: Optional[List[Conflict]] = None,
        cluster_count: int = 0,
        multi_tuple_cluster_count: int = 0,
    ):
        self._conflicts = [] if conflicts is None else conflicts
        self._pending: Optional[Tuple[Counter, Callable]] = None  # (counts, build) until built
        self.cluster_count = cluster_count
        self.multi_tuple_cluster_count = multi_tuple_cluster_count

    @property
    def conflicts(self) -> List[Conflict]:
        """Every conflict, cluster by cluster in first-row order."""
        pending = self._pending  # one read: another thread may be building too
        if pending is not None:
            self._conflicts = pending[1]()
            self._pending = None
        return self._conflicts

    def _count(self, kind: ConflictKind) -> int:
        pending = self._pending
        if pending is not None:
            return pending[0][kind]
        return sum(1 for c in self._conflicts if c.kind is kind)

    @property
    def contradiction_count(self) -> int:
        """Number of contradictions (distinct non-null values disagree)."""
        return self._count(ConflictKind.CONTRADICTION)

    @property
    def uncertainty_count(self) -> int:
        """Number of uncertainties (value vs. null)."""
        return self._count(ConflictKind.UNCERTAINTY)

    def by_column(self) -> Dict[str, List[Conflict]]:
        """Conflicts grouped by attribute."""
        grouped: Dict[str, List[Conflict]] = {}
        for conflict in self.conflicts:
            grouped.setdefault(conflict.column, []).append(conflict)
        return grouped

    def sample(self, count: int = 10) -> List[Conflict]:
        """The first *count* contradictions (what the demo shows as "sample conflicts")."""
        contradictions = [c for c in self.conflicts if c.kind is ConflictKind.CONTRADICTION]
        return contradictions[:count]


def classify_values(values: Sequence[Any]) -> ConflictKind:
    """Classify the values of one attribute within one cluster."""
    non_null = [value for value in values if not is_null(value)]
    distinct = {value_key(value) for value in non_null}
    if len(distinct) > 1:
        return ConflictKind.CONTRADICTION
    if len(non_null) < len(values) and len(non_null) >= 1 and len(values) > 1:
        return ConflictKind.UNCERTAINTY
    return ConflictKind.NONE


def find_conflicts(
    relation: Relation,
    object_column: str = "objectID",
    source_column: str = "sourceID",
    ignore_columns: Sequence[str] = (),
) -> ConflictReport:
    """Find every conflict in a relation that already carries object ids.

    Clusters are the groups of :func:`~repro.engine.operators.groupby.group_indices`
    on *object_column*; only the members of multi-tuple clusters are read,
    since one tuple cannot conflict with itself.  Each (cluster, column) is
    classified from the column's cached dictionary, as
    :func:`classify_values` would classify its values: code ``-1`` is null
    and one code is one value, so ``value_key`` runs only for a cluster
    holding two different non-null codes, once per code (``10`` and ``10.0``
    still agree).  The report keeps each conflict as its cluster, column and
    kind; its :class:`Conflict` objects are built from the column lists on
    the first read of :attr:`ConflictReport.conflicts`, and one cluster's
    conflicts share one ``sources``.
    """
    from repro.engine.operators.groupby import group_keys

    ignored = {name.lower() for name in ignore_columns}
    ignored.add(object_column.lower())
    # provenance is bookkeeping, not data: differing sourceIDs are not a conflict
    ignored.add(source_column.lower())
    source_values = (
        relation.column(source_column) if relation.schema.has_column(source_column) else None
    )
    object_values = relation.column(object_column)
    report = ConflictReport()
    keys = group_keys(relation, [object_column])
    sizes = Counter(keys)
    report.cluster_count = len(sizes)
    clusters: Dict[Hashable, List[int]] = {key: [] for key, size in sizes.items() if size > 1}
    report.multi_tuple_cluster_count = len(clusters)
    if not clusters:
        return report
    for index, key in enumerate(keys):
        members = clusters.get(key)
        if members is not None:
            members.append(index)
    columns = [
        (column.name, relation.column_at(position), relation.dictionary(column.name), {})
        for position, column in enumerate(relation.schema)
        if column.name.lower() not in ignored
    ]
    records = []  # (cluster members, column slot, kind)
    for members in clusters.values():
        for slot, (_, _, (distinct, _, codes), value_keys) in enumerate(columns):
            kind = _classify_codes({codes[index] for index in members}, distinct, value_keys)
            if kind is not ConflictKind.NONE:
                records.append((members, slot, kind))

    def build() -> List[Conflict]:
        conflicts, cluster, sources = [], None, None
        for members, slot, kind in records:
            if members is not cluster:  # one cluster's conflicts share one sources list
                cluster = members
                sources = [
                    None if source_values is None else source_values[index] for index in members
                ]
            name, values = columns[slot][:2]
            conflicts.append(
                Conflict(
                    object_id=object_values[members[0]],
                    column=name,
                    kind=kind,
                    values=[values[index] for index in members],
                    sources=sources,
                )
            )
        return conflicts

    report._pending = (Counter(kind for _, _, kind in records), build)
    return report


def _classify_codes(
    codes: Set[int], distinct: List[Any], value_keys: Dict[int, tuple]
) -> ConflictKind:
    """:func:`classify_values` of one cluster's cells, from their set of
    dictionary codes (``-1`` for null) over a column's *distinct* values;
    *value_keys* caches ``value_key`` per code."""
    if len(codes) == 1:
        return ConflictKind.NONE  # one value, or nulls only
    present = codes - {-1}
    if len(present) > 1:
        keys = set()
        for code in present:
            key = value_keys.get(code)
            if key is None:
                key = value_keys[code] = value_key(distinct[code])
            keys.add(key)
        if len(keys) > 1:
            return ConflictKind.CONTRADICTION
    return ConflictKind.UNCERTAINTY if -1 in codes else ConflictKind.NONE
