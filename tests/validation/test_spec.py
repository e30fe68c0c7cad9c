"""Tests for validator specs and the validator registries."""

import pytest

from repro.errors import RegistryError
from repro.validation.spec import (
    VALIDATOR_KINDS,
    VALIDATORS,
    ValidatorSpec,
    ally,
    display_name,
    midar,
    named_validator,
    register_validator,
    sample,
)


class TestValidatorSpec:
    def test_create_normalises_params(self):
        spec = ValidatorSpec.create("midar", size=3, protocol="ssh")
        assert spec.params == (("protocol", "ssh"), ("size", 3))
        assert spec.param("size") == 3
        assert spec.param("absent", "fallback") == "fallback"

    def test_specs_are_hashable_cache_keys(self):
        cache = {midar(protocol="ssh"): 1}
        assert cache[midar(protocol="ssh")] == 1
        assert midar(protocol="ssh") != midar(protocol="bgp")

    def test_describe_renders_tree(self):
        spec = sample(midar(protocol="ssh"), size=5, seed=1, max_size=10)
        text = spec.describe()
        assert text.startswith("sample(")
        assert "midar(protocol=ssh)" in text

    def test_leaf_descends_combinators(self):
        leaf = midar(protocol="bgp")
        assert sample(sample(leaf, size=5), size=2).leaf() == leaf
        assert leaf.leaf() is leaf


class TestRegistries:
    def test_builtin_kinds_registered(self):
        assert set(VALIDATOR_KINDS.names()) == {"midar", "ally", "speedtrap", "sample"}

    def test_builtin_named_validators_registered(self):
        assert set(VALIDATORS.names()) == {"midar", "ally", "speedtrap"}
        for name in VALIDATORS.names():
            assert isinstance(named_validator(name), ValidatorSpec)

    def test_unknown_validator_lists_known_names(self):
        with pytest.raises(RegistryError, match="unknown validator 'nonsense'"):
            named_validator("nonsense")

    def test_duplicate_registration_refused(self):
        with pytest.raises(RegistryError, match="already registered"):
            register_validator("midar", midar())

    def test_replace_registration_allowed(self):
        original = VALIDATORS.entry("midar")
        try:
            register_validator("midar", midar(protocol="bgp"), replace=True)
            assert named_validator("midar").leaf().param("protocol") == "bgp"
        finally:
            register_validator(
                "midar", original.value, description=original.description, replace=True
            )

    def test_display_name_prefers_registered_name(self):
        assert display_name(named_validator("midar")) == "midar"
        assert display_name(ally(label="custom")) == "custom"
        assert display_name(ally()) == "ally"  # falls back to the kind


class TestCombinators:
    def test_sample_wraps_single_input(self):
        inner = midar()
        spec = sample(inner, size=10, seed=3, max_size=5)
        assert spec.kind == "sample"
        assert spec.inputs == (inner,)
        assert spec.param("max_size") == 5

    def test_sample_without_max_size_omits_param(self):
        assert sample(midar(), size=10).param("max_size") is None
