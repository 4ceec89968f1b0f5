"""Unit tests for annotations files and debug compilation (Figure 5)."""

import pytest

from repro.catalog import schema_of
from repro.common.errors import InsightsError
from repro.engine import ScopeEngine
from repro.insights.annotations_file import (
    compile_with_annotations,
    dump_annotations,
    export_current_annotations,
    load_annotations,
)
from repro.optimizer.context import Annotation


@pytest.fixture
def engine():
    eng = ScopeEngine()
    eng.register_table(
        schema_of("T", [("k", "int"), ("v", "float")]),
        [dict(k=i % 5, v=float(i)) for i in range(50)])
    eng.register_table(
        schema_of("D", [("k", "int"), ("name", "str")]),
        [dict(k=i, name=f"n{i}") for i in range(5)])
    return eng


SQL = "SELECT name, SUM(v) AS s FROM T JOIN D GROUP BY name"


def selected_annotations(engine):
    from repro.plan import PlanBuilder, normalize
    from repro.optimizer.rules import apply_rewrites
    from repro.signatures import enumerate_subexpressions
    from repro.sql import parse
    plan = normalize(apply_rewrites(
        PlanBuilder(engine.catalog).build(parse(SQL))))
    subs = enumerate_subexpressions(plan, engine.signature_salt)
    join = max((s for s in subs if s.operator == "Join"),
               key=lambda s: s.height)
    return [Annotation(join.recurring, join.tag, expected_rows=40)]


class TestSerialization:
    def test_round_trip(self, engine):
        annotations = selected_annotations(engine)
        text = dump_annotations(annotations, runtime_version="scope-r1")
        loaded = load_annotations(text)
        assert loaded == annotations

    def test_export_current_generation(self, engine):
        engine.insights.publish(selected_annotations(engine))
        text = export_current_annotations(engine)
        assert len(load_annotations(text)) == 1

    def test_invalid_json_rejected(self):
        with pytest.raises(InsightsError):
            load_annotations("{not json")

    def test_wrong_version_rejected(self):
        with pytest.raises(InsightsError):
            load_annotations('{"format_version": 99, "annotations": []}')

    def test_malformed_entry_rejected(self):
        with pytest.raises(InsightsError):
            load_annotations(
                '{"format_version": 1, "annotations": [{"tag": "t"}]}')

    def test_non_object_rejected(self):
        with pytest.raises(InsightsError):
            load_annotations("[1, 2, 3]")


class TestDebugCompilation:
    def test_reproduces_buildout_without_service(self, engine):
        text = dump_annotations(selected_annotations(engine))
        # The insights service has nothing published -- the file drives it.
        assert engine.insights.annotation_count() == 0
        compiled = compile_with_annotations(engine, SQL, text)
        assert compiled.built_views == 1

    def test_reproduces_match_after_materialization(self, engine):
        text = dump_annotations(selected_annotations(engine))
        compiled = compile_with_annotations(engine, SQL, text)
        run = engine.finish(engine.execute(compiled, now=0.0), at=0.0)
        assert run.sealed_views
        debug = compile_with_annotations(engine, SQL, text, now=1.0,
                                         job_id="incident-42")
        assert debug.reused_views == 1
        assert debug.job_id == "incident-42"

    def test_empty_file_means_plain_compilation(self, engine):
        text = dump_annotations([])
        compiled = compile_with_annotations(engine, SQL, text)
        assert compiled.built_views == 0
        assert compiled.reused_views == 0
