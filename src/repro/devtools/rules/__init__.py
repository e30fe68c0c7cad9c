"""The repro-lint rule set.

Each rule encodes one of the codebase's real contracts; ``ALL_RULES`` is
the canonical ordered collection the runner, the CLI rule table, and the
README documentation all derive from.
"""

from __future__ import annotations

from repro.devtools.rules.base import Rule
from repro.devtools.rules.determinism import NoUnseededRandom, NoWallClock
from repro.devtools.rules.observability import ObsFastPath
from repro.devtools.rules.persistence import AtomicWriteOnly
from repro.devtools.rules.raises import TypedErrors
from repro.devtools.rules.rendering import SortedBeforeRender
from repro.devtools.rules.specs import FrozenSpec

__all__ = [
    "ALL_RULES",
    "AtomicWriteOnly",
    "FrozenSpec",
    "NoUnseededRandom",
    "NoWallClock",
    "ObsFastPath",
    "Rule",
    "SortedBeforeRender",
    "TypedErrors",
]

#: Every rule, in documentation order.
ALL_RULES: tuple[Rule, ...] = (
    NoWallClock(),
    NoUnseededRandom(),
    SortedBeforeRender(),
    AtomicWriteOnly(),
    ObsFastPath(),
    FrozenSpec(),
    TypedErrors(),
)
