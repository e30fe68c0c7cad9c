"""Cross-protocol validation of alias sets.

:func:`cross_validate` restricts two techniques to the addresses
responsive to both, and checks whether each set of technique A, projected
onto those common addresses, is exactly one set of technique B (a
"perfect match").  The paper's other validation, against MIDAR's IPID
corroboration, runs in :mod:`repro.validation`.
:func:`ground_truth_accuracy` scores a collection against the simulator's
true alias sets.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.core.aliasset import AliasSetCollection
from repro.errors import ValidationError


@dataclasses.dataclass(frozen=True)
class ValidationResult:
    """Outcome of comparing one technique's sets against another's.

    Attributes:
        technique_a: name of the technique whose sets are being validated.
        technique_b: name of the reference technique.
        common_addresses: number of addresses responsive to both techniques.
        sample_size: number of technique-A sets participating (projected onto
            the common addresses, non-empty).
        agree: sets with an exact match in technique B's projection.
        disagree: sets without an exact match.
    """

    technique_a: str
    technique_b: str
    common_addresses: int
    sample_size: int
    agree: int
    disagree: int

    @property
    def agreement_rate(self) -> float:
        """Fraction of compared sets that match exactly."""
        if self.sample_size == 0:
            return 0.0
        return self.agree / self.sample_size


def _projected_partition(
    collection: AliasSetCollection, addresses: set[str], min_size: int
) -> set[frozenset[str]]:
    projected = set()
    for alias_set in collection:
        restricted = alias_set.restricted_to(addresses)
        if len(restricted) >= min_size:
            projected.add(restricted)
    return projected


def cross_validate(
    collection_a: AliasSetCollection,
    collection_b: AliasSetCollection,
    min_set_size: int = 2,
) -> ValidationResult:
    """Compare two alias-set collections on their common addresses.

    Args:
        collection_a: the technique under validation.
        collection_b: the reference technique.
        min_set_size: smallest projected set that participates (the paper
            compares non-singleton sets, i.e. 2).

    Raises:
        ValidationError: if either collection is empty.
    """
    if len(collection_a) == 0 or len(collection_b) == 0:
        raise ValidationError("cannot validate empty collections")
    common = collection_a.addresses() & collection_b.addresses()
    partition_a = _projected_partition(collection_a, common, min_set_size)
    partition_b = _projected_partition(collection_b, common, min_set_size)
    agree = sum(1 for candidate in partition_a if candidate in partition_b)
    sample_size = len(partition_a)
    return ValidationResult(
        technique_a=collection_a.name,
        technique_b=collection_b.name,
        common_addresses=len(common),
        sample_size=sample_size,
        agree=agree,
        disagree=sample_size - agree,
    )


def ground_truth_accuracy(
    collection: AliasSetCollection, truth_sets: Iterable[frozenset[str]]
) -> dict[str, float]:
    """Precision-style metrics against the simulation's ground truth.

    Only available in the reproduction (the paper has no ground truth for
    the real Internet).  Returns:

    * ``set_precision`` — fraction of inferred non-singleton sets whose
      addresses all belong to one true device,
    * ``pair_precision`` — fraction of inferred address pairs that are true
      aliases, and
    * ``pair_recall`` — fraction of true alias pairs (restricted to addresses
      the technique covered) that the inference recovered.
    """
    truth_index: dict[str, int] = {}
    for index, members in enumerate(truth_sets):
        for address in members:
            truth_index[address] = index

    inferred = [alias_set for alias_set in collection.non_singleton()]
    if not inferred:
        return {"set_precision": 0.0, "pair_precision": 0.0, "pair_recall": 0.0}

    pure_sets = 0
    true_pairs = 0
    total_pairs = 0
    covered: set[str] = set()
    for alias_set in inferred:
        covered |= alias_set.addresses
        owners = {truth_index.get(address) for address in alias_set.addresses}
        if len(owners) == 1 and None not in owners:
            pure_sets += 1
        members = sorted(alias_set.addresses)
        for i, left in enumerate(members):
            for right in members[i + 1 :]:
                total_pairs += 1
                if truth_index.get(left) is not None and truth_index.get(left) == truth_index.get(right):
                    true_pairs += 1

    # Recall over pairs both of whose members the technique covered.
    truth_groups: dict[int, list[str]] = {}
    for address in covered:
        owner = truth_index.get(address)
        if owner is not None:
            truth_groups.setdefault(owner, []).append(address)
    possible_pairs = sum(len(group) * (len(group) - 1) // 2 for group in truth_groups.values())
    recovered_pairs = 0
    for alias_set in inferred:
        members = sorted(alias_set.addresses)
        for i, left in enumerate(members):
            for right in members[i + 1 :]:
                if truth_index.get(left) is not None and truth_index.get(left) == truth_index.get(right):
                    recovered_pairs += 1
    return {
        "set_precision": pure_sets / len(inferred),
        "pair_precision": true_pairs / total_pairs if total_pairs else 0.0,
        "pair_recall": recovered_pairs / possible_pairs if possible_pairs else 0.0,
    }
