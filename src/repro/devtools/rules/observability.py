"""The obs-fast-path rule.

Instrumentation helpers (``obs.add``/``set_gauge``) each check the
module-level enable switch internally, but a *call site* still pays
argument construction — f-strings, label dicts — before the check.  The
codebase convention keeps hot seams free of that cost: every
recording call outside :mod:`repro.obs` sits behind the boolean guard,
either lexically::

    if obs.is_enabled():
        obs.add("stream.polls")

or via the early-return shape the batch seams use::

    if not obs.is_enabled():
        ...  # the uninstrumented fast path
        return
    obs.add("index.observations.observed", delta)

This rule recognises both shapes and flags every other recording call.
``obs.span``/``obs.trace`` are exempt: they return a shared no-op span
when disabled and take no label construction to reach the check.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding, ModuleUnderLint
from repro.devtools.rules.base import ImportMap, Rule, call_name

#: The recording helpers whose call sites must be guarded.
GUARDED_CALLS: frozenset[str] = frozenset(
    {
        "repro.obs.add",
        "repro.obs.set_gauge",
    }
)

_TERMINATORS = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def _contains_enabled_call(node: ast.expr, imports: ImportMap) -> bool:
    """Whether ``node`` contains an ``is_enabled()`` call."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            name = call_name(child, imports)
            if name is not None and (
                name == "is_enabled" or name.endswith(".is_enabled")
            ):
                return True
    return False


def _guard_polarity(test: ast.expr, imports: ImportMap) -> str | None:
    """'positive' for ``if guard()``, 'negative' for ``if not guard()``."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        if _contains_enabled_call(test.operand, imports):
            return "negative"
        return None
    if _contains_enabled_call(test, imports):
        return "positive"
    return None


def _terminates(body: list[ast.stmt]) -> bool:
    """Whether a block always leaves the enclosing suite."""
    return bool(body) and isinstance(body[-1], _TERMINATORS)


class ObsFastPath(Rule):
    """obs recording calls outside repro.obs must sit behind the guard."""

    rule_id = "obs-fast-path"
    description = (
        "obs.add/set_gauge call sites need the is_enabled() guard"
    )
    fixit = (
        "wrap the call in `if obs.is_enabled():` (or put it after an "
        "`if not obs.is_enabled(): ...; return` fast path)"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        if not module.module.startswith("repro.") or module.module.startswith(
            "repro.obs"
        ):
            return
        imports = ImportMap(module.tree)
        yield from self._walk_block(module, imports, module.tree.body, guarded=False)

    def _walk_block(
        self,
        module: ModuleUnderLint,
        imports: ImportMap,
        body: list[ast.stmt],
        guarded: bool,
    ) -> Iterator[Finding]:
        for statement in body:
            yield from self._walk_statement(module, imports, statement, guarded)
            # `if not obs.is_enabled(): ...; return` guards the rest of
            # this suite: only the enabled path reaches it.
            if isinstance(statement, ast.If):
                polarity = _guard_polarity(statement.test, imports)
                if (
                    polarity == "negative"
                    and _terminates(statement.body)
                    and not statement.orelse
                ):
                    guarded = True

    def _walk_statement(
        self,
        module: ModuleUnderLint,
        imports: ImportMap,
        statement: ast.stmt,
        guarded: bool,
    ) -> Iterator[Finding]:
        if isinstance(statement, ast.If):
            polarity = _guard_polarity(statement.test, imports)
            yield from self._check_expressions(module, imports, statement.test, guarded)
            yield from self._walk_block(
                module, imports, statement.body, guarded or polarity == "positive"
            )
            yield from self._walk_block(
                module, imports, statement.orelse, guarded or polarity == "negative"
            )
            return
        if isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            # A new scope starts unguarded: the enclosing guard does not
            # constrain when the function later runs.
            yield from self._walk_block(module, imports, statement.body, guarded=False)
            return
        if isinstance(statement, (ast.For, ast.AsyncFor, ast.While)):
            yield from self._check_expressions(
                module,
                imports,
                statement.iter if hasattr(statement, "iter") else statement.test,
                guarded,
            )
            yield from self._walk_block(module, imports, statement.body, guarded)
            yield from self._walk_block(module, imports, statement.orelse, guarded)
            return
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                yield from self._check_expressions(
                    module, imports, item.context_expr, guarded
                )
            yield from self._walk_block(module, imports, statement.body, guarded)
            return
        if isinstance(statement, ast.Try):
            yield from self._walk_block(module, imports, statement.body, guarded)
            for handler in statement.handlers:
                yield from self._walk_block(module, imports, handler.body, guarded)
            yield from self._walk_block(module, imports, statement.orelse, guarded)
            yield from self._walk_block(module, imports, statement.finalbody, guarded)
            return
        yield from self._check_expressions(module, imports, statement, guarded)

    def _check_expressions(
        self,
        module: ModuleUnderLint,
        imports: ImportMap,
        node: ast.AST,
        guarded: bool,
    ) -> Iterator[Finding]:
        if guarded:
            return
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            name = call_name(child, imports)
            if name in GUARDED_CALLS:
                yield self.finding(
                    module,
                    child,
                    f"{name.removeprefix('repro.')}() outside the "
                    "is_enabled() guard pays label construction on every "
                    "disabled call",
                )
