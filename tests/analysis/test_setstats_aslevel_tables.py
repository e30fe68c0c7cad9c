"""Tests for set statistics, AS-level aggregation, and table rendering."""

from repro.analysis.aslevel import multi_as_fraction, role_split, sets_per_as_values, top_as_table
from repro.analysis.setstats import set_size_summary
from repro.analysis.tables import format_count, render_table
from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.core.dual_stack import DualStackCollection, DualStackSet
from repro.simnet.asn import AsRegistry, AsRole, AutonomousSystem
from repro.simnet.device import ServiceType


def collection():
    sets = [
        AliasSet("a", frozenset({"10.0.0.1", "10.0.0.2"}), frozenset({ServiceType.SSH})),
        AliasSet("b", frozenset({"10.1.0.1", "10.1.0.2", "10.2.0.1"}), frozenset({ServiceType.BGP})),
        AliasSet("c", frozenset({"10.3.0.1"}), frozenset({ServiceType.SSH})),
    ]
    address_asn = {
        "10.0.0.1": 100,
        "10.0.0.2": 100,
        "10.1.0.1": 200,
        "10.1.0.2": 200,
        "10.2.0.1": 300,
        "10.3.0.1": 100,
    }
    return AliasSetCollection("test", sets, address_asn)


class TestSetStats:
    def test_summary_values(self):
        summary = set_size_summary(collection())
        assert summary.set_count == 2
        assert summary.covered_addresses == 5
        assert summary.fraction_exactly_two == 0.5
        assert summary.fraction_at_most_ten == 1.0
        assert summary.max_size == 3

    def test_empty_collection(self):
        summary = set_size_summary(AliasSetCollection("empty"))
        assert summary.set_count == 0
        assert summary.max_size == 0


class TestAsLevel:
    def registry(self):
        registry = AsRegistry()
        registry.add(AutonomousSystem(asn=100, name="Cloud-1", role=AsRole.CLOUD))
        registry.add(AutonomousSystem(asn=200, name="ISP-1", role=AsRole.ISP))
        registry.add(AutonomousSystem(asn=300, name="ISP-2", role=AsRole.ISP))
        return registry

    def test_top_as_table_with_roles(self):
        entries = top_as_table(collection(), self.registry(), count=2)
        assert entries[0].rank == 1
        assert {entry.asn for entry in entries} <= {100, 200, 300}
        assert all(entry.role is not None for entry in entries)

    def test_role_split(self):
        entries = top_as_table(collection(), self.registry(), count=3)
        counts = role_split(entries)
        assert counts[AsRole.ISP] >= 1

    def test_multi_as_fraction(self):
        assert multi_as_fraction(collection()) == 0.5

    def test_sets_per_as_values_alias(self):
        values = sets_per_as_values(collection())
        assert sorted(values) == [1, 1, 1]

    def test_sets_per_as_values_dual_stack(self):
        dual = DualStackCollection(
            "dual",
            [
                DualStackSet("x", frozenset({"10.0.0.1"}), frozenset({"2001:db8::1"}), frozenset()),
            ],
            address_asn={"10.0.0.1": 100, "2001:db8::1": 100},
        )
        assert sets_per_as_values(dual) == [1]

    def test_top_as_without_registry(self):
        entries = top_as_table(collection(), None, count=1)
        assert entries[0].role is None


class TestTables:
    def test_format_count(self):
        assert format_count(532) == "532"
        assert format_count(1_500) == "1.5k"
        assert format_count(15_900) == "16k"
        assert format_count(3_200_000) == "3.2M"
        assert format_count(24_400_000) == "24M"

    def test_render_table_alignment(self):
        text = render_table(["Name", "Count"], [["ssh", 10], ["bgp", 2]], title="Demo")
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "Name" in lines[1] and "Count" in lines[1]
        assert len(lines) == 5
        # All data lines have the same separator positions.
        assert lines[3].index("|") == lines[4].index("|")
