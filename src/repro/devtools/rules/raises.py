"""The typed-errors rule.

Registry, persistence, and dataset-IO paths — and the stream and
longitudinal code the checkpoint loaders call into — promise callers a
typed failure surface: the CLI maps :class:`~repro.errors.DatasetError` /
:class:`~repro.errors.PersistError` / :class:`~repro.errors.RegistryError`
to ``exit 2`` with a message, and library callers catch
:class:`~repro.errors.ReproError` as one base.  The protocol codecs make
the same promise to the scan clients, which catch
:class:`~repro.errors.ProtocolError` so that one device's bad bytes
degrade its record instead of aborting the campaign.  A bare
``ValueError`` or ``Exception`` raised on those paths escapes that
contract and surfaces as a traceback, so raises there must use
:mod:`repro.errors` types.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding, ModuleUnderLint
from repro.devtools.rules.base import Rule, module_in, qualified_name, walk_with_imports

#: Modules and packages holding registry/persist/io contract paths, the
#: packages whose restore code the campaign and stream loaders run, and
#: the wire codecs the scan clients call.
TYPED_ERROR_PATHS: tuple[str, ...] = (
    "repro.persist",
    "repro.io",
    "repro.api.registry",
    "repro.obs.registry",
    "repro.core.symbols",
    "repro.stream",
    "repro.longitudinal",
    "repro.protocols",
)

#: Builtin exception types that break the typed failure surface.
UNTYPED_RAISES: frozenset[str] = frozenset(
    {"ValueError", "Exception", "RuntimeError"}
)


class TypedErrors(Rule):
    """Raises on registry/persist/io paths must use repro.errors types."""

    rule_id = "typed-errors"
    description = (
        "raise repro.errors types (never bare ValueError/Exception) on "
        "registry/persist/io paths"
    )
    fixit = (
        "raise a repro.errors type instead (DatasetError / PersistError / "
        "RegistryError) so CLI and library callers keep their typed contract"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        if not module_in(module.module, TYPED_ERROR_PATHS):
            return
        imports, nodes = walk_with_imports(module)
        for node in nodes:
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            raised = node.exc
            if isinstance(raised, ast.Call):
                raised = raised.func
            name = qualified_name(raised, imports)
            if name in UNTYPED_RAISES:
                yield self.finding(
                    module,
                    node,
                    f"bare {name} raised on a registry/persist/io path "
                    "escapes the typed ReproError surface",
                )
