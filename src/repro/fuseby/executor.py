"""Execution of planned Fuse By queries against a catalog.

The executor realises the two HumMer querying modes (paper §3): the basic SQL
interface "which parses entire Fuse By queries and returns the result", and —
for fusion queries — the same phases the wizard walks through, fully
automatic.

Semantics implemented:

* ``FROM a, b`` — cross product of the sources (plain SQL).
* ``FUSE FROM a, b`` — schema matching (instance-based, with a label-based
  fallback), rename to the preferred (first) schema, add ``sourceID``, outer
  union.
* ``FUSE BY (k1, ...)`` — tuples agreeing on the key columns are one object;
  they are fused with the RESOLVE functions (Coalesce default).
* ``FUSE BY ()`` or ``FUSE FROM`` without a FUSE BY clause — object identity
  is determined by similarity-based duplicate detection, then fusion on the
  resulting ``objectID``.
* ``WHERE`` is applied to the combined input before fusion; ``HAVING``,
  ``ORDER BY`` and ``LIMIT`` apply to the fused result (the paper keeps their
  original meaning).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.fusion import FusionResult, FusionSpec
from repro.core.pipeline import FusionPipeline
from repro.core.resolution.base import ResolutionRegistry, default_registry
from repro.dedup.detector import OBJECT_ID_COLUMN
from repro.engine.catalog import Catalog
from repro.engine.operators import (
    CrossProduct,
    Limit,
    Project,
    ProjectItem,
    RelationSource,
    Select,
    Sort,
    SortKey,
)
from repro.engine.operators.groupby import AggregateSpec, GroupBy
from repro.engine.relation import Relation
from repro.exceptions import PlanningError
from repro.fuseby.ast import FuseByQuery, ResolveItem, SelectItem, StarItem
from repro.fuseby.parser import parse_query
from repro.fuseby.planner import Planner, QueryPlan

__all__ = ["QueryExecutor"]


class QueryExecutor:
    """Parses, plans and executes Fuse By statements against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        registry: Optional[ResolutionRegistry] = None,
        pipeline_factory: Optional[Callable[[], FusionPipeline]] = None,
    ):
        self.catalog = catalog
        self.registry = registry or default_registry()
        self.planner = Planner(self.registry)
        #: Zero-argument callable returning the :class:`FusionPipeline` a
        #: fusion query's session runs on.  :class:`~repro.hummer.HumMer`
        #: passes its :meth:`~repro.hummer.HumMer.pipeline`, so every query
        #: sees the instance's current configuration (matching fallback,
        #: preparation mode) exactly as :meth:`~repro.hummer.HumMer.fuse`
        #: does; a standalone executor runs default components.
        self.pipeline_factory = pipeline_factory or (
            lambda: FusionPipeline(catalog, registry=self.registry)
        )
        #: Optional :class:`~repro.core.session.ProgressEvent` listener
        #: subscribed to every fusion query's session, so SQL-driven runs
        #: stream the same intra-step progress (seeds scored, field matrices
        #: built, groups resolved) the wizard does.
        self.progress_listener = None

    # -- public API ----------------------------------------------------------------

    def execute(self, query_text: str) -> Relation:
        """Parse and run *query_text*, returning the result relation."""
        query = parse_query(query_text)
        plan = self.planner.plan(query)
        if plan.is_fusion:
            return self._execute_fusion(plan)
        return self._execute_plain(plan)

    def explain(self, query_text: str) -> QueryPlan:
        """Parse and plan *query_text* without executing it."""
        return self.planner.plan(parse_query(query_text))

    # -- plain SQL path --------------------------------------------------------------

    def _execute_plain(self, plan: QueryPlan) -> Relation:
        query = plan.query
        relations = self.catalog.fetch_many(plan.aliases)
        for reference, relation in zip(query.tables, relations):
            if reference.alias:
                relation = relation.renamed(reference.alias)
        operator = RelationSource(relations[0].renamed(query.tables[0].effective_name))
        for reference, relation in zip(query.tables[1:], relations[1:]):
            operator = CrossProduct(
                operator, RelationSource(relation.renamed(reference.effective_name))
            )
        if query.where is not None:
            operator = Select(operator, query.where)
        if query.group_by:
            operator = self._plan_group_by(operator, query)
        elif not query.has_star:
            items = self._projection_items(query)
            operator = Project(operator, items)
        if query.having is not None:
            operator = Select(operator, query.having)
        if query.order_by:
            operator = Sort(
                operator,
                [SortKey(item.column.name, item.descending) for item in query.order_by],
            )
        if query.limit is not None or query.offset:
            operator = Limit(operator, query.limit, query.offset)
        return operator.execute()

    def _plan_group_by(self, operator, query: FuseByQuery):
        by = [column.name for column in query.group_by]
        aggregates: List[AggregateSpec] = []
        for item in query.select_items:
            if isinstance(item, StarItem):
                continue
            if isinstance(item, SelectItem) and item.column.name.lower() not in {
                name.lower() for name in by
            }:
                # non-grouped plain column: take the first value per group
                aggregates.append(
                    AggregateSpec(
                        item.column.name,
                        lambda values: values[0] if values else None,
                        alias=item.alias or item.column.name,
                    )
                )
        return GroupBy(operator, by, aggregates)

    @staticmethod
    def _projection_items(query: FuseByQuery) -> List[ProjectItem]:
        items: List[ProjectItem] = []
        for item in query.select_items:
            if isinstance(item, StarItem):
                continue
            if isinstance(item, ResolveItem):
                raise PlanningError("RESOLVE is only valid in fusion queries")
            items.append(ProjectItem.column(item.column.qualified_name, item.alias))
        return items

    # -- fusion path -------------------------------------------------------------------

    def _execute_fusion(self, plan: QueryPlan) -> Relation:
        query = plan.query
        pipeline = self.pipeline_factory()

        # The WHERE clause is pushed into the session as a transform filter.
        # A filter that changes the combined rows makes the prepared view
        # decline (row counts no longer line up) and detection runs cold.
        transform_filter = None
        if query.where is not None:
            transform_filter = lambda combined: Select(  # noqa: E731
                RelationSource(combined), query.where
            ).execute()

        spec = plan.fusion_spec or FusionSpec()
        if plan.needs_duplicate_detection:
            spec = FusionSpec(
                key_columns=[OBJECT_ID_COLUMN],
                resolutions=spec.resolutions,
                keep_source_column=spec.keep_source_column,
            )

        # skip_conflicts: the SQL interface returns only the fused relation,
        # so the wizard's conflict-sampling report (step 5a) is not computed.
        session = pipeline.session(
            plan.aliases,
            spec=spec,
            skip_detection=not plan.needs_duplicate_detection,
            skip_conflicts=True,
            transform_filter=transform_filter,
        )
        if self.progress_listener is not None:
            session.subscribe_progress(self.progress_listener)
        fusion: FusionResult = session.run().fusion
        result = fusion.relation

        if plan.needs_duplicate_detection and result.schema.has_column(OBJECT_ID_COLUMN):
            # objectID is internal bookkeeping unless the user selected it
            wanted = {name.lower() for name in (plan.output_columns or [])}
            if OBJECT_ID_COLUMN.lower() not in wanted:
                result = result.without_columns([OBJECT_ID_COLUMN])

        if plan.output_columns:
            keep = [name for name in plan.output_columns if result.schema.has_column(name)]
            # fusion keys asked for via FUSE BY are always available
            for key in plan.fuse_by_columns:
                if key not in keep and result.schema.has_column(key):
                    keep.insert(0, key)
            missing = [name for name in plan.output_columns if not result.schema.has_column(name)]
            if missing:
                raise PlanningError(
                    f"columns {missing} are not present in the fused result; "
                    f"available: {', '.join(result.schema.names)}"
                )
            result = result.project(keep)

        operator_tree = RelationSource(result)
        if query.having is not None:
            operator_tree = Select(operator_tree, query.having)
        if query.order_by:
            operator_tree = Sort(
                operator_tree,
                [SortKey(item.column.name, item.descending) for item in query.order_by],
            )
        if query.limit is not None or query.offset:
            operator_tree = Limit(operator_tree, query.limit, query.offset)
        return operator_tree.execute()
