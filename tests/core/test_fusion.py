"""Tests for the fusion operator, conflicts, and lineage."""

import sys
import threading
from decimal import Decimal

import pytest

from repro.core.conflicts import Conflict, ConflictKind, classify_values, find_conflicts
from repro.core.fusion import FusionOperator, FusionSpec, ResolutionSpec, fuse
from repro.core.lineage import CellLineage, LineageMap, trace_cell_lineage
from repro.core.resolution import Choose, Coalesce, ResolutionContext
from repro.datagen.corruptor import CorruptionConfig
from repro.datagen.scenarios import students_scenario
from repro.engine.io.csv_source import CsvSource
from repro.engine.operators.groupby import group_rows
from repro.engine.relation import Relation
from repro.exceptions import FusionError
from repro.hummer import HumMer


@pytest.fixture
def clustered():
    """A relation as it leaves duplicate detection: sourceID + objectID present."""
    return Relation.from_dicts(
        [
            {"objectID": 0, "name": "Anna Schmidt", "age": 22, "city": "Berlin", "sourceID": "ee"},
            {"objectID": 0, "name": "Anna Schmidt", "age": 23, "city": None, "sourceID": "cs"},
            {"objectID": 1, "name": "Ben Mueller", "age": 25, "city": "Hamburg", "sourceID": "ee"},
            {"objectID": 2, "name": "Elena Wolf", "age": 21, "city": None, "sourceID": "cs"},
        ],
        name="students",
    )


class TestFusionOperator:
    def test_one_tuple_per_object(self, clustered):
        result = fuse(clustered, ["objectID"])
        assert len(result.relation) == 3
        assert result.input_tuple_count == 4
        assert result.compression_ratio == pytest.approx(4 / 3)

    def test_default_coalesce_fills_nulls(self, clustered):
        result = fuse(clustered, ["objectID"])
        anna = result.relation.to_dicts()[0]
        assert anna["city"] == "Berlin"  # null from cs filled by ee

    def test_star_expansion_skips_bookkeeping_columns(self, clustered):
        result = fuse(clustered, ["objectID"])
        assert "sourceID" not in result.relation.schema
        assert set(result.relation.column_names) == {"objectID", "name", "age", "city"}

    def test_explicit_resolution_max(self, clustered):
        result = fuse(clustered, ["objectID"], resolutions={"name": "coalesce", "age": "max"})
        anna = result.relation.to_dicts()[0]
        assert anna["age"] == 23
        assert set(result.relation.column_names) == {"objectID", "name", "age"}

    def test_parameterised_resolution_choose(self, clustered):
        result = fuse(
            clustered,
            ["objectID"],
            resolutions={"age": ("choose", ["cs"]), "name": "coalesce"},
        )
        assert result.relation.to_dicts()[0]["age"] == 23

    def test_resolution_function_instance(self, clustered):
        result = fuse(clustered, ["objectID"], resolutions={"age": Choose("cs")})
        assert result.relation.to_dicts()[0]["age"] == 23

    def test_alias_renames_output_column(self, clustered):
        spec = FusionSpec(
            key_columns=["objectID"],
            resolutions=[ResolutionSpec("age", "max", alias="oldest_age")],
        )
        result = FusionOperator(spec).fuse(clustered)
        assert "oldest_age" in result.relation.schema

    def test_fusing_on_natural_key(self, clustered):
        result = fuse(clustered, ["name"])
        assert len(result.relation) == 3
        assert "name" in result.relation.schema

    def test_missing_key_column_raises(self, clustered):
        with pytest.raises(FusionError):
            fuse(clustered, ["ghost"])

    def test_missing_resolution_column_raises(self, clustered):
        with pytest.raises(FusionError):
            fuse(clustered, ["objectID"], resolutions={"ghost": "max"})

    def test_conflict_count(self, clustered):
        result = fuse(clustered, ["objectID"])
        # only the age of Anna truly conflicts (22 vs 23)
        assert result.resolved_conflict_count == 1

    def test_keep_source_column(self, clustered):
        spec = FusionSpec(key_columns=["objectID"], keep_source_column=True)
        result = FusionOperator(spec).fuse(clustered)
        assert "sourceID" in result.relation.schema

    def test_empty_relation(self):
        relation = Relation.from_dicts([], name="empty")
        relation = relation.with_column("objectID", [])
        result = fuse(relation, ["objectID"])
        assert len(result.relation) == 0


class TestLineage:
    def test_single_source_lineage(self, clustered):
        result = fuse(clustered, ["objectID"])
        lineage = result.lineage.lookup(0, "city")
        assert lineage.sources == frozenset({"ee"})
        assert not lineage.merged
        assert lineage.single_source == "ee"

    def test_merged_lineage_for_computed_values(self, clustered):
        result = fuse(clustered, ["objectID"], resolutions={"age": "avg"})
        lineage = result.lineage.lookup(0, "age")
        assert lineage.sources == frozenset({"ee", "cs"})
        assert lineage.merged

    def test_agreeing_sources_are_both_recorded(self, clustered):
        result = fuse(clustered, ["objectID"])
        lineage = result.lineage.lookup(0, "name")
        assert lineage.sources == frozenset({"ee", "cs"})

    def test_lineage_map_queries(self, clustered):
        result = fuse(clustered, ["objectID"])
        assert set(result.lineage.sources_used()) == {"ee", "cs"}
        assert len(result.lineage) == 3 * 3  # 3 objects x 3 value columns
        assert all(cell.merged for cell in result.lineage.merged_cells())

    def test_trace_null_result_has_empty_lineage(self):
        lineage = trace_cell_lineage("c", 1, None, [None, None], ["a", "b"])
        assert lineage.sources == frozenset()
        assert not lineage.merged

    def test_objects_that_compare_equal_keep_their_own_lineage(self):
        """True, 1 and Decimal("1") are three objects to fusion, though
        Python calls them equal; each keeps its cell's lineage."""
        relation = Relation(
            ["k", "a", "sourceID"],
            [(True, "x", "s1"), (1, "y", "s2"), (Decimal("1"), "z", "s3")],
            name="r",
        )
        result = fuse(relation, ["k"])
        assert len(result.relation) == 3
        assert len(result.lineage) == 3
        assert result.lineage.lookup(True, "a").sources == frozenset({"s1"})
        assert result.lineage.lookup(1, "a").sources == frozenset({"s2"})
        assert result.lineage.lookup(Decimal("1"), "a").sources == frozenset({"s3"})
        # 1.0 is the object 1 is: grouping keys numbers by value
        assert result.lineage.lookup(1.0, "A").sources == frozenset({"s2"})
        assert result.lineage.lookup(Decimal("1.0"), "a") is None

    def test_null_object_ids_are_one_object(self):
        relation = Relation(
            ["k", "a", "sourceID"],
            [(None, "x", "s1"), (float("nan"), None, "s2"), (2, "z", "s3")],
            name="r",
        )
        result = fuse(relation, ["k"])
        assert len(result.relation) == 2
        assert result.lineage.lookup(float("nan"), "a").sources == frozenset({"s1"})
        assert result.lineage.lookup(None, "a") == result.lineage.lookup(float("nan"), "a")

    def test_multi_column_object_ids(self):
        relation = Relation(
            ["k1", "k2", "a", "sourceID"],
            [(1, "p", "x", "s1"), (1.0, "p", "y", "s2"), (True, "p", "z", "s3")],
            name="r",
        )
        result = fuse(relation, ["k1", "k2"], resolutions={"a": "vote"})
        assert len(result.relation) == 2
        assert result.lineage.lookup((1.0, "p"), "a").sources == frozenset({"s1"})
        assert result.lineage.lookup((True, "p"), "a").sources == frozenset({"s3"})

    def test_concurrent_first_reads_see_the_whole_map(self):
        """The first read builds the records and index locally and publishes
        them in one assignment: no reader sees a partial map."""
        relation = Relation(
            ["objectID", "a", "b", "sourceID"],
            [(i // 2, f"a{i % 7}", i % 5, f"s{i % 3}") for i in range(4000)],
            name="r",
        )
        expected = len(fuse(relation, ["objectID"]).lineage)
        readers = 4  # more threads than cores
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                lineage = fuse(relation, ["objectID"]).lineage
                barrier = threading.Barrier(readers)
                seen = []

                def read():
                    barrier.wait()
                    seen.append((len(lineage), lineage.lookup(1999, "b") is not None))

                threads = [threading.Thread(target=read) for _ in range(readers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert seen == [(expected, True)] * readers
        finally:
            sys.setswitchinterval(switch_interval)

    def test_tuple_object_ids_of_one_key_column_keep_their_own_lineage(self):
        """One key column whose cells are tuples: grouping keys each cell by
        value_key, so (1,) and (1.0,) are two objects, and so is lineage."""
        relation = Relation(
            ["k", "v", "sourceID"], [((1,), "x", "s1"), ((1.0,), "y", "s2")], name="r"
        )
        result = fuse(relation, ["k"])
        assert len(result.relation) == 2
        assert len(result.lineage) == 2
        assert result.lineage.lookup((1,), "v").sources == frozenset({"s1"})
        assert result.lineage.lookup((1.0,), "v").sources == frozenset({"s2"})
        # a map built by hand reads a tuple as a multi-column key, cell by cell
        assert len(LineageMap(list(result.lineage))) == 1


class TestCellLineageRecord:
    def test_is_a_named_tuple_of_its_fields(self):
        record = CellLineage("price", 7, frozenset({"a"}), False)
        assert record == ("price", 7, frozenset({"a"}), False)
        assert record._asdict() == {
            "column": "price", "object_id": 7, "sources": frozenset({"a"}), "merged": False,
        }
        assert record._replace(merged=True).merged
        assert record.single_source == "a"
        assert CellLineage("c", 1, frozenset({"a", "b"}), True).single_source is None

    def test_map_keeps_last_write_and_first_insertion_order(self):
        lineage = LineageMap()
        lineage.record(CellLineage("a", 1, frozenset({"s1"}), False))
        lineage.record(CellLineage("b", 1, frozenset({"s1"}), False))
        lineage.record(CellLineage("A", 1.0, frozenset({"s2"}), False))  # same cell
        assert [(r.column, r.sources) for r in lineage] == [
            ("A", frozenset({"s2"})), ("b", frozenset({"s1"})),
        ]
        # a record after the first read still lands in the index
        lineage.record(CellLineage("c", 2, frozenset({"s3"}), False))
        assert len(lineage) == 3
        assert lineage.lookup(2, "C").sources == frozenset({"s3"})
        assert lineage.sources_used() == ["s1", "s2", "s3"]
        assert LineageMap(list(lineage)).lookup(1, "a").sources == frozenset({"s2"})


class TestConflictReport:
    def test_find_conflicts_classifies_kinds(self, clustered):
        report = find_conflicts(clustered)
        assert report.cluster_count == 3
        assert report.multi_tuple_cluster_count == 1
        kinds = {(c.column, c.kind) for c in report.conflicts}
        assert ("age", ConflictKind.CONTRADICTION) in kinds
        assert ("city", ConflictKind.UNCERTAINTY) in kinds
        assert all(c.column != "name" for c in report.conflicts)

    def test_counts_and_by_column(self, clustered):
        report = find_conflicts(clustered)
        assert report.contradiction_count == 1
        assert report.uncertainty_count == 1
        assert set(report.by_column()) == {"age", "city"}

    def test_sample_returns_contradictions_only(self, clustered):
        sample = find_conflicts(clustered).sample(5)
        assert all(c.kind is ConflictKind.CONTRADICTION for c in sample)

    def test_ignore_columns(self, clustered):
        report = find_conflicts(clustered, ignore_columns=["age"])
        assert report.contradiction_count == 0

    def test_conflict_str_and_distinct_values(self, clustered):
        report = find_conflicts(clustered)
        conflict = [c for c in report.conflicts if c.column == "age"][0]
        assert set(conflict.distinct_values) == {22, 23}
        assert "age" in str(conflict)

    def test_counts_build_no_conflict_objects(self, monkeypatch):
        # the pipeline reads only the counts; the objects wait for a reader
        relation = Relation.from_dicts(
            [
                {"objectID": 0, "age": 22, "city": "Berlin", "zip": None, "sourceID": "ee"},
                {"objectID": 0, "age": 23, "city": None, "zip": "10115", "sourceID": "cs"},
            ],
            name="students",
        )
        built = []
        original = Conflict.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Conflict, "__init__", counting)
        report = find_conflicts(relation)
        assert (report.contradiction_count, report.uncertainty_count) == (1, 2)
        assert built == []
        conflicts = report.conflicts
        assert [(c.column, c.kind) for c in conflicts] == [
            ("age", ConflictKind.CONTRADICTION),
            ("city", ConflictKind.UNCERTAINTY),
            ("zip", ConflictKind.UNCERTAINTY),
        ]
        assert report.conflicts is conflicts and len(built) == 3
        assert (report.contradiction_count, report.uncertainty_count) == (1, 2)

    def test_source_column_absent(self):
        relation = Relation.from_dicts(
            [{"objectID": 0, "v": 1}, {"objectID": 0, "v": 2}], name="r"
        )
        report = find_conflicts(relation)
        assert report.contradiction_count == 1
        assert report.conflicts[0].sources == [None, None]


class TestOneValueKey:
    """Conflict detection, resolution and grouping agree on equal values."""

    def test_integer_and_float_of_one_price_do_not_contradict(self, tmp_path):
        titles = (
            "Abbey Road,The Beatles,{}\n"
            "Blue Train,John Coltrane,12\n"
            "Kind of Blue,Miles Davis,9\n"
        )
        hummer = HumMer()
        for alias, price in (("a", "10"), ("b", "10.0")):
            path = tmp_path / f"{alias}.csv"
            path.write_text("title,artist,price\n" + titles.format(price), encoding="utf-8")
            hummer.register(alias, CsvSource(path, name=alias))
        result = hummer.fuse(["a", "b"])
        assert len(result.relation) == 3  # each CD is one object of two tuples
        assert result.conflicts.contradiction_count == 0
        assert result.fusion.resolved_conflict_count == 0

    def test_classification_matches_resolution(self):
        assert classify_values([10, 10.0]) is ConflictKind.NONE
        assert classify_values([True, 1]) is ConflictKind.CONTRADICTION
        context = ResolutionContext(column="price", values=[10, 10.0, True])
        assert context.distinct_values == [10, True]
        conflict = Conflict(0, "price", ConflictKind.CONTRADICTION, [10, 10.0, True])
        assert conflict.distinct_values == context.distinct_values

    def test_grouping_uses_the_same_key(self):
        relation = Relation.from_dicts(
            [{"k": 10, "v": "a"}, {"k": 10.0, "v": "b"}, {"k": True, "v": "c"}], name="r"
        )
        assert [len(rows) for _, rows in group_rows(relation, ["k"])] == [2, 1]


class TestLazyGroupMaterialisation:
    """Row wrappers and source strings are built per group, only on demand."""

    def test_coalesce_only_fusion_allocates_no_row_wrappers(self, clustered, monkeypatch):
        import repro.core.fusion as fusion_module

        allocations = []
        original_row = fusion_module.Row

        class CountingRow(original_row):
            def __init__(self, schema, values):
                allocations.append(1)
                super().__init__(schema, values)

        monkeypatch.setattr(fusion_module, "Row", CountingRow)
        result = fuse(clustered, ["objectID"])  # every column uses Coalesce
        assert len(result.relation) == 3
        assert allocations == []  # nothing read context.rows

    def test_row_reading_function_still_sees_wrapped_rows(self, clustered, monkeypatch):
        import repro.core.fusion as fusion_module
        from repro.core.resolution.base import ResolutionFunction

        allocations = []
        original_row = fusion_module.Row

        class CountingRow(original_row):
            def __init__(self, schema, values):
                allocations.append(1)
                super().__init__(schema, values)

        class NameFromRows(ResolutionFunction):
            name = "name_from_rows"

            def resolve(self, context):
                return max((row["name"] or "" for row in context.rows), default=None)

        monkeypatch.setattr(fusion_module, "Row", CountingRow)
        result = fuse(clustered, ["objectID"], resolutions={"name": NameFromRows()})
        assert result.relation.column("name") == ["Anna Schmidt", "Ben Mueller", "Elena Wolf"]
        # one wrapper per input tuple of each group, built exactly once
        assert len(allocations) == 4

    def test_copied_groups_build_no_factories(self, clustered, monkeypatch):
        """Only the multi-tuple group reads values through a context; the
        one-tuple groups copy their cells and build no lazy factories."""
        import repro.core.fusion as fusion_module

        factories = []
        original_once = fusion_module._once

        def counting_once(factory):
            factories.append(1)
            return original_once(factory)

        monkeypatch.setattr(fusion_module, "_once", counting_once)
        result = fuse(clustered, ["objectID"])  # Coalesce declares
        assert len(result.relation) == 3
        assert len(factories) == 2  # rows and sources of object 0's group

    def test_lineage_still_records_sources(self, clustered):
        result = fuse(clustered, ["objectID"])
        lineage = result.lineage.lookup(0, "city")
        assert lineage is not None
        assert lineage.sources == frozenset({"ee"})


class TestWorkDoneOnce:
    """Column dictionaries are built once per column, and lineage records
    only when someone reads them."""

    def test_conflicts_then_fusion_encode_each_column_at_most_once(
        self, clustered, monkeypatch
    ):
        from repro.engine import columnar

        encoded = []
        original_encode = columnar.encode

        def counting_encode(values, mask):
            encoded.append(list(values))
            return original_encode(values, mask)

        monkeypatch.setattr(columnar, "encode", counting_encode)
        find_conflicts(clustered)
        fuse(clustered, ["objectID"])
        # conflict detection encodes the key and every column it classifies;
        # fusion reuses the key's codes and reads the other cells directly
        assert sorted(map(repr, encoded)) == sorted(
            repr(clustered.column(name)) for name in ("objectID", "name", "age", "city")
        )

    @staticmethod
    def fuse_generated():
        hummer = HumMer()
        dataset = students_scenario(entity_count=30, corruption=CorruptionConfig.low(), seed=5)
        for alias, relation in dataset.sources.items():
            hummer.register(alias, relation)
        return hummer.fuse(list(dataset.sources))

    def test_pipeline_conflicts_and_fusion_encode_only_the_object_ids(self, monkeypatch):
        """Attribute selection has encoded every data column by then."""
        from repro.core import pipeline
        from repro.engine import columnar

        encoded = []
        started = []
        original_encode = columnar.encode
        original_find_conflicts = pipeline.find_conflicts

        def counting_encode(values, mask):
            encoded.append(values)
            return original_encode(values, mask)

        def marking_find_conflicts(relation, *args, **kwargs):
            started.append(len(encoded))
            return original_find_conflicts(relation, *args, **kwargs)

        monkeypatch.setattr(columnar, "encode", counting_encode)
        monkeypatch.setattr(pipeline, "find_conflicts", marking_find_conflicts)
        result = self.fuse_generated()
        assert len(started) == 1
        object_ids = result.detection.relation.column("objectID")
        assert [values is object_ids for values in encoded[started[0]:]] == [True]

    def test_a_pipeline_fuse_encodes_no_column_of_the_fused_input(self, monkeypatch):
        """The outer union merges the sources' dictionaries, so a fuse encodes
        source columns during matching, then only the object ids."""
        from repro.core import pipeline
        from repro.engine import columnar

        encoded = []
        transformed_at = []
        original_encode = columnar.encode
        original_transform = pipeline.transform_sources

        def counting_encode(values, mask):
            encoded.append(values)
            return original_encode(values, mask)

        def marking_transform(*args, **kwargs):
            transformed_at.append(len(encoded))
            return original_transform(*args, **kwargs)

        monkeypatch.setattr(columnar, "encode", counting_encode)
        monkeypatch.setattr(pipeline, "transform_sources", marking_transform)
        result = self.fuse_generated()
        fused_input = [data.values for data in result.transformed.store.columns]
        sources = [data.values for source in result.sources for data in source.store.columns]
        assert not [values for values in encoded if any(values is c for c in fused_input)]
        assert len(transformed_at) == 1
        matching, later = encoded[: transformed_at[0]], encoded[transformed_at[0]:]
        assert matching and all(any(values is c for c in sources) for values in matching)
        object_ids = result.detection.relation.column("objectID")
        assert [values is object_ids for values in later] == [True]

    def test_a_pipeline_fuse_computes_the_object_id_keys_once(self, monkeypatch):
        """Conflict detection and fusion both group by ``objectID``; the
        second reads the keys cached next to the column's dictionary."""
        from repro.engine import columnar

        computed = []
        original = columnar.grouping_keys

        def counting(dictionary):
            computed.append(dictionary)
            return original(dictionary)

        monkeypatch.setattr(columnar, "grouping_keys", counting)
        result = self.fuse_generated()
        object_ids = result.detection.relation.dictionary("objectID")
        assert [dictionary is object_ids for dictionary in computed] == [True]

    def test_a_fuse_nobody_reads_builds_no_lineage_records(self, monkeypatch):
        import repro.core.fusion as fusion_module
        import repro.core.lineage as lineage_module

        built = []

        class CountingLineage(CellLineage):
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                built.append(1)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(lineage_module, "CellLineage", CountingLineage)
        monkeypatch.setattr(fusion_module, "CellLineage", CountingLineage)
        result = self.fuse_generated()
        assert len(result.relation) > 0
        assert built == []
        # the first read builds every cell's record, once
        cells = len(result.fusion.lineage)
        assert cells == len(result.relation) * (len(result.relation.schema) - 1)
        assert len(built) == cells
        list(result.fusion.lineage)
        assert len(built) == cells


class TestStreamingFusion:
    """fuse_stream(): group-at-a-time conflict resolution (ISSUE 6 tentpole)."""

    def test_stream_equals_collected_fuse(self, clustered):
        operator = FusionOperator(FusionSpec(key_columns=["objectID"]))
        groups = list(operator.fuse_stream(clustered))
        result = operator.fuse(clustered)
        assert [group.row for group in groups] == result.relation.rows
        assert [group.object_id for group in groups] == [0, 1, 2]
        assert sum(group.resolved_conflicts for group in groups) == (
            result.resolved_conflict_count
        )
        # per-group lineage records are exactly the collected map's cells
        for group in groups:
            for record in group.lineage:
                looked_up = result.lineage.lookup(group.object_id, record.column)
                assert looked_up.sources == record.sources
                assert looked_up.merged == record.merged

    def test_validation_raises_before_iteration(self, clustered):
        operator = FusionOperator(FusionSpec(key_columns=["ghost"]))
        with pytest.raises(FusionError):
            operator.fuse_stream(clustered)  # not: next(...)

        bad_resolution = FusionOperator(
            FusionSpec(key_columns=["objectID"], resolutions=[ResolutionSpec("ghost")])
        )
        with pytest.raises(FusionError):
            bad_resolution.fuse_stream(clustered)

    def test_groups_are_resolved_one_at_a_time(self, clustered, monkeypatch):
        """Pulling k groups resolves exactly k groups' columns — no read-ahead."""
        import repro.core.fusion as fusion_module

        instances = []
        original_context = fusion_module.ResolutionContext

        class CountingContext(original_context):
            def __init__(self, *args, **kwargs):
                instances.append(1)
                super().__init__(*args, **kwargs)

        class UndeclaredCoalesce(Coalesce):
            """Coalesce without the single-value declaration: one-tuple
            groups build a context per column too, so every group counts."""

            keeps_single_value = False

        monkeypatch.setattr(fusion_module, "ResolutionContext", CountingContext)
        operator = FusionOperator(
            FusionSpec(
                key_columns=["objectID"],
                resolutions=[
                    ResolutionSpec(column, UndeclaredCoalesce())
                    for column in ("name", "age", "city")
                ],
            )
        )
        stream = operator.fuse_stream(clustered)
        assert instances == []  # planning resolves nothing

        value_columns = 3  # name, age, city
        consumed = []
        for expected_groups in (1, 2, 3):
            consumed.append(next(stream))
            assert len(instances) == expected_groups * value_columns
        with pytest.raises(StopIteration):
            next(stream)
        assert len(instances) == 3 * value_columns

    def test_progress_callback_counts_groups(self, clustered):
        events = []
        operator = FusionOperator(FusionSpec(key_columns=["objectID"]))
        operator.progress_callback = lambda phase, done, total: events.append(
            (phase, done, total)
        )
        operator.fuse(clustered)
        assert events == [
            ("groups_resolved", 1, 3),
            ("groups_resolved", 2, 3),
            ("groups_resolved", 3, 3),
        ]

    def test_fused_group_shape(self, clustered):
        operator = FusionOperator(FusionSpec(key_columns=["objectID"]))
        group = next(operator.fuse_stream(clustered))
        assert group.object_id == 0
        assert isinstance(group.row, tuple)
        assert len(group.row) == 4  # objectID + name, age, city
        assert len(group.lineage) == 3
        assert group.resolved_conflicts == 1  # Anna's age (22 vs 23)

    def test_stream_on_empty_relation(self):
        relation = Relation.from_dicts([], name="empty").with_column("objectID", [])
        operator = FusionOperator(FusionSpec(key_columns=["objectID"]))
        assert list(operator.fuse_stream(relation)) == []
