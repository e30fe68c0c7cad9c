"""Repo-specific developer tooling: the ``repro-lint`` static checker.

The reproduction's headline property — byte-identical determinism across
report signatures, resumed-equals-uninterrupted checkpoints, and
streamed-equals-batch emits — rests on a handful of coding conventions
that no general-purpose linter knows about: no wall clock or unseeded
randomness in deterministic packages, ``sorted()`` before anything set-shaped
reaches a rendering or hashing sink, manifest-last atomic writes, the
``obs.is_enabled()`` fast path, frozen spec dataclasses, and typed errors
on persistence paths.  This package encodes those conventions as AST rules
(:mod:`repro.devtools.rules`) and a runner + CLI
(:mod:`repro.devtools.runner`, ``repro lint``) wired into CI.  There are
no inline suppressions and no baseline of grandfathered findings: a false
positive is fixed in the rule.
"""

from __future__ import annotations

from repro.devtools.findings import Finding, ModuleUnderLint
from repro.devtools.runner import LintResult, lint_paths, lint_source

__all__ = [
    "Finding",
    "LintResult",
    "ModuleUnderLint",
    "lint_paths",
    "lint_source",
]
