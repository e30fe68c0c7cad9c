"""Parity: both unions return what the previous implementation returned.

``reference_union.py`` keeps the cross-protocol and dual-stack unions as
they were before each set's smallest address was taken once and the
union-find sized once.  Over ``test_union_properties.py``'s strategies, each
collection given an address→ASN mapping that differs between collections,
both unions must return the reference's sets in the same order, with the
same labels, members and protocols, and the same name and address→ASN
mapping.
"""

import reference_union
from hypothesis import given, settings
from test_union_properties import _collections, _dual_collections

from repro.core.alias_resolution import AliasResolver
from repro.core.aliasset import AliasSetCollection
from repro.core.dual_stack import union_dual_stack


def _asn_of(address, position):
    """An ASN per address that differs between collections, so the order in
    which a union folds their mappings shows."""
    return 64500 + sum(address.encode()) % 7 + position


def _with_asns(collections):
    """``collections`` again, each with an address→ASN mapping."""
    return [
        type(collection)(
            collection.name,
            collection.sets,
            {
                address: _asn_of(address, position)
                for address in (
                    collection.addresses()
                    if isinstance(collection, AliasSetCollection)
                    else collection.ipv4_addresses() | collection.ipv6_addresses()
                )
            },
        )
        for position, collection in enumerate(collections)
    ]


def _assert_same_union(union, reference):
    assert union.name == reference.name
    assert list(union) == list(reference)
    assert union.address_asn == reference.address_asn


@settings(max_examples=80, deadline=None)
@given(collections=_collections)
def test_union_matches_the_reference(collections):
    collections = _with_asns(collections)
    _assert_same_union(
        AliasResolver.union(collections, name="u"),
        reference_union.AliasResolver.union(collections, name="u"),
    )


@settings(max_examples=60, deadline=None)
@given(collections=_dual_collections)
def test_dual_union_matches_the_reference(collections):
    collections = _with_asns(collections)
    _assert_same_union(
        union_dual_stack(collections, name="u"),
        reference_union.union_dual_stack(collections, name="u"),
    )
