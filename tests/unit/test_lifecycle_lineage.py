"""Unit tests: lineage registry, input extraction, and the invalidation bus."""

import pytest

from repro.lifecycle import (
    GdprForget,
    InvalidationBus,
    LineageRegistry,
    RuntimeEpochBumped,
    StreamGuidChanged,
    extract_inputs,
)
from repro.plan.logical import Filter, Scan, ViewScan
from repro.plan.expressions import BinaryOp, ColumnRef, Literal


def scan(dataset, guid):
    return Scan(dataset=dataset, columns=("a",), stream_guid=guid)


def view_scan(signature):
    return ViewScan(signature=signature, view_path=f"views/{signature}",
                    columns=("a",))


class TestExtractInputs:
    def test_scan_contributes_dataset_and_guid(self):
        inputs = extract_inputs(scan("Events", "g1"))
        assert inputs == frozenset({("Events", "g1")})

    def test_unbound_scan_contributes_nothing(self):
        assert extract_inputs(scan("Events", None)) == frozenset()

    def test_none_definition_is_empty(self):
        assert extract_inputs(None) == frozenset()

    def test_nested_operators_are_walked(self):
        plan = Filter(scan("Events", "g1"),
                      BinaryOp("=", ColumnRef("a"), Literal(1)))
        assert extract_inputs(plan) == frozenset({("Events", "g1")})

    def test_viewscan_inherits_transitive_lineage(self):
        registry = LineageRegistry()
        registry.record("base", frozenset({("Events", "g1"),
                                           ("Users", "g2")}))
        inputs = extract_inputs(view_scan("base"), registry)
        assert inputs == frozenset({("Events", "g1"), ("Users", "g2")})

    def test_viewscan_without_registry_contributes_nothing(self):
        assert extract_inputs(view_scan("base")) == frozenset()


def views_reading_guid(registry, dataset, guid):
    """The views built over one stream version, read the way the
    bulk-update cascade reads them: a dataset's dependents, by input."""
    return {signature for signature in registry.views_reading_dataset(dataset)
            if (dataset, guid) in registry.inputs_of(signature)}


class TestLineageRegistry:
    def test_record_and_reverse_indexes(self):
        registry = LineageRegistry()
        registry.record("v1", frozenset({("Events", "g1")}))
        registry.record("v2", frozenset({("Events", "g1"),
                                         ("Users", "g2")}))
        assert registry.views_reading_dataset("Events") == {"v1", "v2"}
        assert registry.views_reading_dataset("Users") == {"v2"}
        assert views_reading_guid(registry, "Events", "g1") == {"v1", "v2"}
        assert registry.datasets() == ["Events", "Users"]
        assert len(registry) == 2

    def test_record_overwrites(self):
        registry = LineageRegistry()
        registry.record("v1", frozenset({("Events", "g1")}))
        registry.record("v1", frozenset({("Events", "g2")}))
        assert views_reading_guid(registry, "Events", "g1") == set()
        assert views_reading_guid(registry, "Events", "g2") == {"v1"}

    def test_forget_cleans_reverse_indexes(self):
        registry = LineageRegistry()
        registry.record("v1", frozenset({("Events", "g1")}))
        registry.forget("v1")
        assert registry.inputs_of("v1") == frozenset()
        assert registry.views_reading_dataset("Events") == set()
        assert registry.datasets() == []

    def test_forget_unknown_is_noop(self):
        LineageRegistry().forget("nope")

    def test_snapshot_restore_round_trip(self):
        registry = LineageRegistry()
        registry.record("v1", frozenset({("Events", "g1"),
                                         ("Users", "g2")}))
        snapshot = registry.snapshot()
        restored = LineageRegistry()
        restored.restore(snapshot)
        assert restored.inputs_of("v1") == registry.inputs_of("v1")
        assert restored.views_reading_dataset("Users") == {"v1"}

    def test_snapshot_is_json_friendly(self):
        import json
        registry = LineageRegistry()
        registry.record("v1", frozenset({("Events", "g1")}))
        assert json.loads(json.dumps(registry.snapshot())) \
            == {"v1": [["Events", "g1"]]}



class TestInvalidationBus:
    def test_synchronous_in_order_delivery(self):
        bus = InvalidationBus()
        seen = []
        bus.subscribe(seen.append)
        first = StreamGuidChanged(at=1.0, dataset="D",
                                  old_guid="g1", new_guid="g2")
        second = GdprForget(at=2.0, dataset="D", new_guid="g3")
        bus.publish(first)
        bus.publish(second)
        assert seen == [first, second]

    def test_every_subscriber_sees_every_event(self):
        bus = InvalidationBus()
        a, b = [], []
        bus.subscribe(a.append)
        bus.subscribe(b.append)
        bus.publish(RuntimeEpochBumped(version="r2", epoch=1))
        assert len(a) == len(b) == 1

    def test_event_kinds(self):
        assert StreamGuidChanged().kind == "StreamGuidChanged"
        assert GdprForget().kind == "GdprForget"
        assert RuntimeEpochBumped().kind == "RuntimeEpochBumped"

    def test_events_are_immutable(self):
        event = GdprForget(dataset="D")
        with pytest.raises(Exception):
            event.dataset = "E"
