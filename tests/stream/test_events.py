"""Tests for the typed stream event surface."""

import json

from repro.longitudinal.delta import AliasDelta
from repro.stream.events import (
    AliasSetBorn,
    AliasSetDissolved,
    AliasSetGrown,
    AliasSetMigrated,
    AliasSetShrunk,
    CoverageChanged,
    ReportEmitted,
    events_from_delta,
)


def make_delta(**overrides):
    base = dict(
        name="t",
        born=(),
        dissolved=(),
        grown=(),
        shrunk=(),
        migrated=(),
        unchanged=0,
        split_origins=(),
        disrupted_previous=(),
    )
    base.update(overrides)
    return AliasDelta(**base)


class TestEventShape:
    def test_kinds_are_stable_tags(self):
        assert AliasSetBorn.kind == "alias_set.born"
        assert AliasSetDissolved.kind == "alias_set.dissolved"
        assert AliasSetGrown.kind == "alias_set.grown"
        assert AliasSetShrunk.kind == "alias_set.shrunk"
        assert AliasSetMigrated.kind == "alias_set.migrated"
        assert CoverageChanged.kind == "coverage.changed"
        assert ReportEmitted.kind == "report.emitted"

    def test_to_fields_sorts_addresses(self):
        event = AliasSetBorn(
            emit=3,
            name="snapshot-3",
            family="ipv4",
            addresses=frozenset({"10.0.0.9", "10.0.0.1"}),
        )
        fields = event.to_fields()
        assert fields["kind"] == "alias_set.born"
        assert fields["addresses"] == ["10.0.0.1", "10.0.0.9"]
        assert fields["emit"] == 3
        json.dumps(fields)  # must be JSON-serialisable as-is

    def test_report_emitted_fields(self):
        event = ReportEmitted(
            emit=0,
            name="snapshot-0",
            time=10.0,
            observations=5,
            added=5,
            removed=0,
            ipv4_sets=2,
            ipv6_sets=1,
            churn_rate=None,
        )
        fields = event.to_fields()
        assert fields["churn_rate"] is None
        assert fields["ipv4_sets"] == 2


class TestEventsFromDelta:
    def test_every_category_mapped(self):
        delta = make_delta(
            born=(frozenset({"a"}),),
            dissolved=(frozenset({"b"}),),
            grown=(frozenset({"c"}),),
            shrunk=(frozenset({"d"}),),
            migrated=(frozenset({"e"}),),
        )
        events = events_from_delta(delta, emit=1, name="snapshot-1", family="ipv4")
        assert [type(e) for e in events] == [
            AliasSetBorn,
            AliasSetDissolved,
            AliasSetGrown,
            AliasSetShrunk,
            AliasSetMigrated,
        ]
        assert all(e.family == "ipv4" and e.emit == 1 for e in events)

    def test_deterministic_order_within_category(self):
        delta = make_delta(
            born=(frozenset({"10.0.0.9"}), frozenset({"10.0.0.1", "10.0.0.2"}))
        )
        events = events_from_delta(delta, emit=0, name="s", family="ipv4")
        assert [sorted(e.addresses) for e in events] == [
            ["10.0.0.1", "10.0.0.2"],
            ["10.0.0.9"],
        ]

    def test_empty_delta_no_events(self):
        assert events_from_delta(make_delta(), 0, "s", "ipv6") == []
