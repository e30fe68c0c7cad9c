"""The atomic-write-only rule.

Every persisted artifact must go through
:func:`repro.persist.files.write_atomic` (temp file + ``os.replace``,
manifest written last) so an interrupted save never tears a previously
valid file — the invariant PR 4's torn-write hardening established.  Any
direct write under ``repro.persist`` (outside ``files.py`` itself) or in
the CLI, which writes user-facing artifacts, is an error.  So is a
direct ``os.replace``, ``os.rename`` or ``os.symlink``: renames and links
are how the primitives make a write atomic, and the crash sweeps count
them there.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding, ModuleUnderLint
from repro.devtools.rules.base import Rule, call_name, module_in, walk_with_imports

#: Packages whose file writes must be atomic.
ATOMIC_WRITE_PACKAGES: tuple[str, ...] = ("repro.persist", "repro.cli")

#: The one module allowed to write directly: the atomic primitive itself.
ATOMIC_WRITE_PRIMITIVE = "repro.persist.files"

_WRITE_MODES = frozenset("wax")

#: Calls that move or link files: only the primitives may make them.
_FILE_SWAPS = frozenset({"os.replace", "os.rename", "os.symlink"})


def _mode_is_write(node: ast.Call) -> bool:
    """Whether an ``open``-style call's mode argument writes."""
    mode: ast.expr | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False  # default "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(flag in mode.value for flag in _WRITE_MODES)
    return True  # dynamic mode: assume the worst


class AtomicWriteOnly(Rule):
    """Persistence-path writes must route through files.write_atomic."""

    rule_id = "atomic-write-only"
    description = (
        "no direct open(..., 'w')/write_text/json.dump/os.replace/os.symlink "
        "on persistence paths"
    )
    fixit = (
        "route the write through repro.persist.files.write_atomic (or "
        "save_observations_atomic, link_atomic) so interrupted saves cannot "
        "tear the file"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        if not module_in(module.module, ATOMIC_WRITE_PACKAGES):
            return
        if module.module == ATOMIC_WRITE_PRIMITIVE:
            return
        imports, nodes = walk_with_imports(module)
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, imports)
            if name == "open" or (
                isinstance(node.func, ast.Attribute) and node.func.attr == "open"
            ):
                if _mode_is_write(node):
                    yield self.finding(
                        module, node, "direct open() for writing on a persistence path"
                    )
            elif isinstance(node.func, ast.Attribute) and node.func.attr in (
                "write_text",
                "write_bytes",
            ):
                yield self.finding(
                    module,
                    node,
                    f"direct Path.{node.func.attr}() on a persistence path",
                )
            elif name in _FILE_SWAPS:
                yield self.finding(
                    module, node, f"direct {name}() on a persistence path"
                )
            elif name == "json.dump":
                yield self.finding(
                    module,
                    node,
                    "json.dump() writes through a raw handle; serialise with "
                    "json.dumps and write atomically",
                )
