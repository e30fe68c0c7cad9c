"""Determinism rules: no wall clock, no unseeded randomness.

The deterministic packages (``core``, ``longitudinal``, ``stream``,
``validation``, ``experiments``, ``persist``) must derive every timestamp
from the simulated clock and every random draw from an explicitly seeded
``random.Random`` — otherwise report signatures stop being pure functions
of ``(config, seed)`` and the parity suites (resume-equals-uninterrupted,
streamed-equals-batch) turn flaky.  Wall-clock reads live in
``repro.obs.trace`` (span timings), ``perfbench/``, and tests only.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding, ModuleUnderLint
from repro.devtools.rules.base import Rule, call_name, module_in, walk_with_imports

#: Packages whose outputs must be pure functions of (config, seed).
DETERMINISTIC_PACKAGES: tuple[str, ...] = (
    "repro.core",
    "repro.longitudinal",
    "repro.stream",
    "repro.validation",
    "repro.experiments",
    "repro.persist",
)

#: Wall-clock reads (value-producing; ``time.sleep`` only paces, so it is
#: not banned).
WALL_CLOCK_CALLS: frozenset[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class NoWallClock(Rule):
    """Wall-clock reads are forbidden in deterministic packages."""

    rule_id = "no-wall-clock"
    description = (
        "no time.time/perf_counter/datetime.now in deterministic packages"
    )
    fixit = (
        "derive timestamps from the simulated clock (campaign interval / "
        "stream clock) or accept them as parameters"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        if not module_in(module.module, DETERMINISTIC_PACKAGES):
            return
        imports, nodes = walk_with_imports(module)
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, imports)
            if name in WALL_CLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock read {name}() in deterministic package "
                    f"{module.module.split('.')[1]!r}",
                )


class NoUnseededRandom(Rule):
    """Randomness in deterministic packages must come from a seeded Random."""

    rule_id = "no-unseeded-random"
    description = (
        "random.* draws need an explicitly seeded random.Random in "
        "deterministic packages"
    )
    fixit = (
        "draw from an explicitly seeded random.Random(seed) instance "
        "derived from the scenario seed"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        if not module_in(module.module, DETERMINISTIC_PACKAGES):
            return
        imports, nodes = walk_with_imports(module)
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, imports)
            if name is None or not name.startswith("random."):
                continue
            if name == "random.Random":
                if node.args or node.keywords:
                    continue  # explicitly seeded constructor
                message = "random.Random() without an explicit seed"
            elif name.startswith("random.Random."):
                continue  # methods on an (assumed seeded) instance
            elif name == "random.SystemRandom":
                message = "random.SystemRandom is nondeterministic by design"
            else:
                message = (
                    f"{name}() draws from the shared unseeded module generator"
                )
            yield self.finding(
                module,
                node,
                f"{message} in deterministic package "
                f"{module.module.split('.')[1]!r}",
            )
