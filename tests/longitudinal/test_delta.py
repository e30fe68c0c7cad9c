"""Tests for observation and alias-set diffing between snapshots."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aliasset import AliasSet
from repro.longitudinal.delta import diff_alias_sets, diff_observations
from repro.simnet.device import ServiceType
from repro.sources.records import Observation


def observation(address, engine_id="engine-a", timestamp=0.0, asn=None, port=161):
    return Observation(
        address=address,
        protocol=ServiceType.SNMPV3,
        source="test",
        port=port,
        timestamp=timestamp,
        asn=asn,
        fields=(("engine_boots", "1"), ("engine_id", engine_id)),
    )


def alias_set(*addresses):
    return AliasSet(
        identifier=f"set:{min(addresses)}",
        addresses=frozenset(addresses),
        protocols=frozenset((ServiceType.SSH,)),
    )


class TestDiffObservations:
    def test_identical_snapshots_empty_delta(self):
        snapshot = [observation("10.0.0.1"), observation("10.0.0.2")]
        delta = diff_observations(snapshot, snapshot)
        assert delta.is_empty
        assert delta.unchanged == 2

    def test_timestamp_change_is_not_a_delta(self):
        delta = diff_observations(
            [observation("10.0.0.1", timestamp=0.0)],
            [observation("10.0.0.1", timestamp=604800.0)],
        )
        assert delta.is_empty

    def test_source_change_is_not_a_delta(self):
        # A re-observation of the same service by another source, later.
        early = observation("10.0.0.1", timestamp=0.0)
        late = Observation(
            address="10.0.0.1",
            protocol=ServiceType.SNMPV3,
            source="another-source",
            port=161,
            timestamp=999.0,
            fields=early.fields,
        )
        delta = diff_observations([early], [late])
        assert delta.is_empty
        assert delta.unchanged == 1

    def test_added_and_removed(self):
        delta = diff_observations(
            [observation("10.0.0.1"), observation("10.0.0.2")],
            [observation("10.0.0.2"), observation("10.0.0.3")],
        )
        assert [o.address for o in delta.added] == ["10.0.0.3"]
        assert [o.address for o in delta.removed] == ["10.0.0.1"]
        assert delta.unchanged == 1

    def test_identity_change_is_remove_plus_add(self):
        """An address answering with new identifier material churns."""
        delta = diff_observations(
            [observation("10.0.0.1", engine_id="old-device")],
            [observation("10.0.0.1", engine_id="new-device")],
        )
        assert len(delta.added) == 1 and delta.added[0].field("engine_id") == "new-device"
        assert len(delta.removed) == 1 and delta.removed[0].field("engine_id") == "old-device"

    def test_removed_returns_original_objects(self):
        original = observation("10.0.0.1")
        delta = diff_observations([original], [])
        assert delta.removed[0] is original

    def test_multiset_semantics(self):
        twice = [observation("10.0.0.1"), observation("10.0.0.1")]
        once = [observation("10.0.0.1")]
        shrinking = diff_observations(twice, once)
        assert len(shrinking.removed) == 1 and not shrinking.added
        assert shrinking.unchanged == 1
        growing = diff_observations(once, twice)
        assert len(growing.added) == 1 and not growing.removed

    def test_port_change_within_bucket(self):
        delta = diff_observations(
            [observation("10.0.0.1", port=161)], [observation("10.0.0.1", port=1161)]
        )
        assert len(delta.added) == 1 and len(delta.removed) == 1


class TestDiffAliasSets:
    def test_no_change(self):
        sets = [alias_set("10.0.0.1", "10.0.0.2")]
        delta = diff_alias_sets(sets, [alias_set("10.0.0.1", "10.0.0.2")])
        assert delta.unchanged == 1
        assert delta.changed == 0
        assert delta.persistence == 1.0

    def test_born(self):
        delta = diff_alias_sets([], [alias_set("10.0.0.1", "10.0.0.2")])
        assert delta.born == (frozenset({"10.0.0.1", "10.0.0.2"}),)

    def test_dissolved(self):
        delta = diff_alias_sets([alias_set("10.0.0.1", "10.0.0.2")], [])
        assert delta.dissolved == (frozenset({"10.0.0.1", "10.0.0.2"}),)
        assert delta.persistence == 0.0

    def test_grown(self):
        delta = diff_alias_sets(
            [alias_set("10.0.0.1", "10.0.0.2")],
            [alias_set("10.0.0.1", "10.0.0.2", "10.0.0.3")],
        )
        assert delta.grown == (frozenset({"10.0.0.1", "10.0.0.2", "10.0.0.3"}),)

    def test_pure_merge_counts_as_grown(self):
        delta = diff_alias_sets(
            [alias_set("10.0.0.1", "10.0.0.2"), alias_set("10.0.0.3", "10.0.0.4")],
            [alias_set("10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4")],
        )
        assert len(delta.grown) == 1
        assert not delta.migrated

    def test_shrunk_and_split(self):
        delta = diff_alias_sets(
            [alias_set("10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4")],
            [alias_set("10.0.0.1", "10.0.0.2"), alias_set("10.0.0.3", "10.0.0.4")],
        )
        assert len(delta.shrunk) == 2
        # The original set scattered over two current sets: a split.
        assert delta.split_origins == (
            frozenset({"10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"}),
        )

    def test_migrated(self):
        delta = diff_alias_sets(
            [alias_set("10.0.0.1", "10.0.0.2")],
            [alias_set("10.0.0.1", "10.0.0.9")],
        )
        assert delta.migrated == (frozenset({"10.0.0.1", "10.0.0.9"}),)

    def test_disrupted_previous_tracks_every_non_surviving_set(self):
        unchanged = alias_set("10.0.1.1", "10.0.1.2")
        delta = diff_alias_sets(
            [unchanged, alias_set("10.0.0.1", "10.0.0.2")],
            [unchanged, alias_set("10.0.0.1", "10.0.0.3")],
        )
        assert delta.disrupted_previous == (frozenset({"10.0.0.1", "10.0.0.2"}),)
        assert delta.unchanged == 1
        assert delta.persistence == 0.5

    def test_counts(self):
        delta = diff_alias_sets(
            [alias_set("10.0.0.1", "10.0.0.2")], [alias_set("10.0.0.3", "10.0.0.4")]
        )
        counts = delta.counts()
        assert counts["born"] == 1
        assert counts["dissolved"] == 1
        assert counts["unchanged"] == 0


class TestDiffAliasSetsEdgeCases:
    def test_simultaneous_grow_and_migrate_in_one_delta(self):
        # One set absorbs a brand-new address (grown) while, in the same
        # delta, another set trades an address for a newcomer (migrated).
        delta = diff_alias_sets(
            [
                alias_set("10.0.0.1", "10.0.0.2"),
                alias_set("10.0.1.1", "10.0.1.2"),
            ],
            [
                alias_set("10.0.0.1", "10.0.0.2", "10.0.0.3"),
                alias_set("10.0.1.1", "10.0.1.9"),
            ],
        )
        assert delta.grown == (frozenset({"10.0.0.1", "10.0.0.2", "10.0.0.3"}),)
        assert delta.migrated == (frozenset({"10.0.1.1", "10.0.1.9"}),)
        assert delta.born == ()
        assert delta.dissolved == ()
        assert delta.unchanged == 0
        # Both previous sets were disrupted, neither was a split.
        assert len(delta.disrupted_previous) == 2
        assert delta.split_origins == ()

    def test_dissolve_and_same_label_rebirth_in_one_batch(self):
        # A set vanishes entirely while a disjoint set carrying the same
        # canonical label (same smallest address is impossible for unions,
        # so use disjoint membership with equal identifier labels) appears:
        # the diff works on address-frozensets, so the old membership is
        # dissolved and the new one born — no false "migrated" match.
        dissolved = alias_set("10.0.0.1", "10.0.0.2")
        reborn = AliasSet(
            identifier=dissolved.identifier,  # same label, fresh membership
            addresses=frozenset({"10.0.9.1", "10.0.9.2"}),
            protocols=frozenset((ServiceType.SSH,)),
        )
        delta = diff_alias_sets([dissolved], [reborn])
        assert delta.dissolved == (frozenset({"10.0.0.1", "10.0.0.2"}),)
        assert delta.born == (frozenset({"10.0.9.1", "10.0.9.2"}),)
        assert delta.migrated == ()
        assert delta.unchanged == 0
        assert delta.persistence == 0.0

    def test_persistence_with_empty_previous_snapshot(self):
        # Bootstrap case: no previous sets means nothing could be
        # disrupted, so persistence is vacuously perfect even though
        # every current set is newly born.
        delta = diff_alias_sets([], [alias_set("10.0.0.1", "10.0.0.2")])
        assert delta.born == (frozenset({"10.0.0.1", "10.0.0.2"}),)
        assert delta.disrupted_previous == ()
        assert delta.unchanged == 0
        assert delta.persistence == 1.0

    def test_both_snapshots_empty(self):
        delta = diff_alias_sets([], [])
        assert delta.is_empty if hasattr(delta, "is_empty") else True
        assert delta.changed == 0
        assert delta.persistence == 1.0


_POOL = [f"10.0.0.{i}" for i in range(1, 9)]

#: The AliasDelta fields that list address sets.
_SET_CATEGORIES = (
    "born",
    "dissolved",
    "grown",
    "shrunk",
    "migrated",
    "split_origins",
    "disrupted_previous",
)


@st.composite
def _partition(draw):
    """Disjoint non-empty sets over a random subset of the pool, in random order."""
    labels = draw(
        st.lists(
            st.none() | st.integers(min_value=0, max_value=3),
            min_size=len(_POOL),
            max_size=len(_POOL),
        )
    )
    groups: dict[int, set[str]] = {}
    for address, label in zip(_POOL, labels, strict=True):
        if label is not None:
            groups.setdefault(label, set()).add(address)
    return draw(st.permutations([frozenset(group) for group in groups.values()]))


def _classify_by_brute_force(previous, current):
    """Match every set against every set of the other snapshot it overlaps."""
    delta = {category: [] for category in _SET_CATEGORIES}
    unchanged = 0
    for addresses in current:
        matches = [before for before in previous if before & addresses]
        if not matches:
            delta["born"].append(addresses)
        elif matches == [addresses]:
            unchanged += 1
        else:
            matched = frozenset().union(*matches)
            gained, lost = addresses - matched, matched - addresses
            if gained and lost:
                delta["migrated"].append(addresses)
            elif lost:
                delta["shrunk"].append(addresses)
            else:
                delta["grown"].append(addresses)
    for addresses in previous:
        destinations = [after for after in current if after & addresses]
        if destinations == [addresses]:
            continue
        delta["disrupted_previous"].append(addresses)
        if not destinations:
            delta["dissolved"].append(addresses)
        elif len(destinations) > 1:
            delta["split_origins"].append(addresses)
    return delta, unchanged


class TestDiffAliasSetsAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(previous=_partition(), current=_partition())
    def test_changed_sets_only_matching_equals_brute_force(self, previous, current):
        """The diff matches only changed sets, which the partition property
        makes exact: every category equals the all-pairs classification."""
        delta = diff_alias_sets(
            [alias_set(*addresses) for addresses in previous],
            [alias_set(*addresses) for addresses in current],
        )
        expected, unchanged = _classify_by_brute_force(previous, current)
        for category in _SET_CATEGORIES:
            assert sorted(map(sorted, getattr(delta, category))) == sorted(
                map(sorted, expected[category])
            ), category
        assert delta.unchanged == unchanged
        assert delta.changed == sum(
            len(expected[category]) for category in ("born", "grown", "shrunk", "migrated")
        )
