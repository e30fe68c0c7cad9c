"""Tests for cross-technique validation."""

import pytest

from repro.core.aliasset import AliasSet, AliasSetCollection
from repro.core.validation import (
    ValidationResult,
    cross_validate,
    ground_truth_accuracy,
)
from repro.errors import ValidationError
from repro.simnet.device import ServiceType


def collection(name, groups):
    return AliasSetCollection(
        name,
        [
            AliasSet(identifier=f"{name}-{i}", addresses=frozenset(group), protocols=frozenset({ServiceType.SSH}))
            for i, group in enumerate(groups)
        ],
    )


class TestCrossValidate:
    def test_perfect_agreement(self):
        a = collection("ssh", [["10.0.0.1", "10.0.0.2"], ["10.1.0.1", "10.1.0.2"]])
        b = collection("bgp", [["10.0.0.1", "10.0.0.2"], ["10.1.0.1", "10.1.0.2"]])
        result = cross_validate(a, b)
        assert result.sample_size == 2
        assert result.agree == 2
        assert result.disagree == 0
        assert result.agreement_rate == 1.0

    def test_disagreement_when_reference_splits_a_set(self):
        a = collection("ssh", [["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"]])
        b = collection("snmp", [["10.0.0.1", "10.0.0.2"], ["10.0.0.3", "10.0.0.4"]])
        result = cross_validate(a, b)
        assert result.sample_size == 1
        assert result.agree == 0
        assert result.agreement_rate == 0.0

    def test_projection_to_common_addresses(self):
        # Technique B never saw 10.0.0.3; the comparison happens on the
        # projection, so the sets still match.
        a = collection("ssh", [["10.0.0.1", "10.0.0.2", "10.0.0.3"]])
        b = collection("bgp", [["10.0.0.1", "10.0.0.2"]])
        result = cross_validate(a, b)
        assert result.common_addresses == 2
        assert result.agree == 1

    def test_sets_without_common_addresses_not_counted(self):
        a = collection("ssh", [["10.0.0.1", "10.0.0.2"], ["10.5.0.1", "10.5.0.2"]])
        b = collection("bgp", [["10.0.0.1", "10.0.0.2"]])
        result = cross_validate(a, b)
        assert result.sample_size == 1

    def test_empty_collection_rejected(self):
        a = collection("ssh", [["10.0.0.1", "10.0.0.2"]])
        with pytest.raises(ValidationError):
            cross_validate(a, collection("bgp", []))

    def test_agreement_rate_zero_sample(self):
        result = ValidationResult("a", "b", common_addresses=0, sample_size=0, agree=0, disagree=0)
        assert result.agreement_rate == 0.0


class TestGroundTruthAccuracy:
    def test_perfect_inference(self):
        truth = [frozenset({"10.0.0.1", "10.0.0.2"}), frozenset({"10.1.0.1", "10.1.0.2"})]
        inferred = collection("ssh", [["10.0.0.1", "10.0.0.2"], ["10.1.0.1", "10.1.0.2"]])
        metrics = ground_truth_accuracy(inferred, truth)
        assert metrics == {"set_precision": 1.0, "pair_precision": 1.0, "pair_recall": 1.0}

    def test_overmerged_set_hurts_precision(self):
        truth = [frozenset({"10.0.0.1", "10.0.0.2"}), frozenset({"10.1.0.1", "10.1.0.2"})]
        inferred = collection("ssh", [["10.0.0.1", "10.0.0.2", "10.1.0.1", "10.1.0.2"]])
        metrics = ground_truth_accuracy(inferred, truth)
        assert metrics["set_precision"] == 0.0
        assert metrics["pair_precision"] == pytest.approx(2 / 6)
        assert metrics["pair_recall"] == 1.0

    def test_split_set_hurts_recall(self):
        truth = [frozenset({"10.0.0.1", "10.0.0.2", "10.0.0.3"})]
        inferred = collection("ssh", [["10.0.0.1", "10.0.0.2"], ["10.0.0.3", "10.9.0.9"]])
        metrics = ground_truth_accuracy(inferred, truth)
        assert metrics["pair_recall"] == pytest.approx(1 / 3)

    def test_empty_inference(self):
        metrics = ground_truth_accuracy(collection("ssh", [["10.0.0.1"]]), [frozenset({"10.0.0.1"})])
        assert metrics["set_precision"] == 0.0
