"""Declarative validator specs and the validator registries.

The validation counterpart of :mod:`repro.api.sources`: a
:class:`ValidatorSpec` names *what* validation to run (a kind plus
parameters and optional input specs); the **kind registry** maps each kind
to a builder that knows *how* to run it against a session or campaign.
Compositions are specs all the way down — the paper's Table 2 MIDAR row is
literally ``sample(midar(...), size=150, seed=7, max_size=10)`` — and a
user-defined technique slots into the same algebra by registering a new
kind.

Two registries cooperate, exactly like sources:

* :data:`VALIDATOR_KINDS` — kind → builder
  (``(run, spec, candidates, start_time) -> ValidationReport``), the
  extension point for new validation techniques.
* :data:`VALIDATORS` — name → ready-made :class:`ValidatorSpec`, what the
  CLI's ``repro validate --validators`` flag and ``--list-validators``
  enumerate.

Specs are frozen and hashable, so sessions cache validation reports per
spec the same way they cache datasets per :class:`~repro.api.sources.
SourceSpec`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.api.registry import Registry

#: Parameter values must be hashable so specs can key session caches.
ParamValue = str | int | float | bool


@dataclasses.dataclass(frozen=True)
class ValidatorSpec:
    """A declarative description of one validation.

    Attributes:
        kind: name of the builder in :data:`VALIDATOR_KINDS`.
        params: builder parameters as sorted key/value pairs (use
            :meth:`create` rather than spelling the tuple out).
        inputs: downstream specs for combinator kinds (sample, …).
        label: display-name override for the produced report.
    """

    kind: str
    params: tuple[tuple[str, ParamValue], ...] = ()
    inputs: tuple["ValidatorSpec", ...] = ()
    label: str | None = None

    @classmethod
    def create(
        cls,
        kind: str,
        inputs: tuple["ValidatorSpec", ...] = (),
        label: str | None = None,
        **params: ParamValue,
    ) -> "ValidatorSpec":
        """Build a spec with normalised (sorted) parameters."""
        return cls(kind=kind, params=tuple(sorted(params.items())), inputs=inputs, label=label)

    def param(self, key: str, default: ParamValue | None = None) -> ParamValue | None:
        """Look up one parameter."""
        for param_key, value in self.params:
            if param_key == key:
                return value
        return default

    def describe(self) -> str:
        """Compact one-line rendering (for logs and error messages)."""
        parts = [self.kind]
        if self.params:
            parts.append("(" + ", ".join(f"{k}={v}" for k, v in self.params) + ")")
        if self.inputs:
            parts.append("[" + ", ".join(spec.describe() for spec in self.inputs) + "]")
        return "".join(parts)

    def leaf(self) -> "ValidatorSpec":
        """The technique spec at the bottom of a combinator chain.

        ``sample`` wraps exactly one input; the leaf carries the
        candidate-derivation parameters (source, protocol, family), which is
        what ``sample`` consults when no explicit candidates are passed.
        """
        spec = self
        while spec.inputs:
            spec = spec.inputs[0]
        return spec


#: A builder runs one spec: ``(run, spec, candidates, start_time)`` →
#: :class:`~repro.validation.report.ValidationReport`.  ``candidates`` and
#: ``start_time`` are ``None`` unless an enclosing combinator (or an
#: explicit caller, e.g. the longitudinal path) already resolved them.
ValidatorBuilder = Callable

VALIDATOR_KINDS: Registry[ValidatorBuilder] = Registry("validator kind")
VALIDATORS: Registry[ValidatorSpec] = Registry("validator")


def validator_kind(name: str, description: str = "") -> Callable[[ValidatorBuilder], ValidatorBuilder]:
    """Register a builder for a new validator kind (decorator)."""
    return VALIDATOR_KINDS.register(name, description=description)


def register_validator(
    name: str, spec: ValidatorSpec, description: str = "", replace: bool = False
) -> ValidatorSpec:
    """Expose ``spec`` under ``name`` (CLI ``--validators``, ``session.validate``)."""
    return VALIDATORS.add(name, spec, description=description, replace=replace)


def named_validator(name: str) -> ValidatorSpec:
    """Resolve a registered validator name to its spec."""
    return VALIDATORS.get(name)


def display_name(spec: ValidatorSpec) -> str:
    """The name a report of ``spec`` renders under.

    Prefers the name the spec is registered under (so ``validate(spec)``
    and ``validate(name)`` of the same composition agree), then the label,
    then the kind.
    """
    for entry in VALIDATORS:
        if entry.value == spec:
            return entry.name
    if spec.label:
        return spec.label
    return spec.kind


# --------------------------------------------------------------------------- #
# Technique constructors (leaves)
# --------------------------------------------------------------------------- #
def midar(label: str | None = None, **params: ParamValue) -> ValidatorSpec:
    """MIDAR estimation → elimination → corroboration over candidate sets."""
    return ValidatorSpec.create("midar", label=label, **params)


def ally(label: str | None = None, **params: ParamValue) -> ValidatorSpec:
    """Pairwise Ally tests per candidate set (reuses fresh banked pair series)."""
    return ValidatorSpec.create("ally", label=label, **params)


def speedtrap(label: str | None = None, **params: ParamValue) -> ValidatorSpec:
    """Speedtrap-style fragment-ID verification (IPv6 members only)."""
    return ValidatorSpec.create("speedtrap", label=label, **params)


# --------------------------------------------------------------------------- #
# Combinator constructor
# --------------------------------------------------------------------------- #
def sample(
    spec: ValidatorSpec,
    size: int = 150,
    seed: int = 7,
    max_size: int | None = None,
    label: str | None = None,
) -> ValidatorSpec:
    """Validate a seeded random sample of the candidate sets.

    ``max_size`` drops candidate sets larger than the bound *before*
    sampling — the paper samples SSH sets of at most ten IPv4 addresses.
    """
    params: dict[str, ParamValue] = {"size": size, "seed": seed}
    if max_size is not None:
        params["max_size"] = max_size
    return ValidatorSpec.create("sample", inputs=(spec,), label=label, **params)

