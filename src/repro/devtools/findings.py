"""Finding and module records shared by every lint rule.

A :class:`Finding` is one rule violation at one source location; a
:class:`ModuleUnderLint` is one parsed file handed to the rules.  Both are
plain frozen dataclasses so rules stay side-effect free and findings sort,
compare, and serialise deterministically.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``snippet`` carries the stripped source line, so the JSON report shows
    the offending code without a second read of the file.
    """

    path: str
    line: int
    column: int
    rule: str
    message: str
    fixit: str
    snippet: str = ""

    def location(self) -> str:
        """``path:line:col`` — the clickable prefix of the text rendering."""
        return f"{self.path}:{self.line}:{self.column}"

    def render(self) -> str:
        """One-line text rendering with the fix-it appended."""
        text = f"{self.location()}: {self.rule}: {self.message}"
        if self.fixit:
            text = f"{text} [fix: {self.fixit}]"
        return text

    def to_json(self) -> dict[str, object]:
        """JSON-ready document for ``repro lint --format json``."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule,
            "message": self.message,
            "fixit": self.fixit,
            "snippet": self.snippet,
        }


@dataclasses.dataclass(frozen=True)
class ModuleUnderLint:
    """One parsed source file, with everything a rule needs precomputed."""

    path: str
    module: str
    tree: ast.Module
    lines: tuple[str, ...]

    @classmethod
    def from_source(cls, source: str, *, module: str, path: str) -> "ModuleUnderLint":
        """Parse ``source`` (raises ``SyntaxError`` for broken input)."""
        return cls(
            path=path,
            module=module,
            tree=ast.parse(source, filename=path),
            lines=tuple(source.splitlines()),
        )

    def snippet(self, line: int) -> str:
        """The stripped source text of a 1-indexed line ('' out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, node: ast.AST, rule: str, message: str, fixit: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        return Finding(
            path=self.path,
            line=line,
            column=column + 1,
            rule=rule,
            message=message,
            fixit=fixit,
            snippet=self.snippet(line),
        )


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` relative to the repo ``root``.

    ``src/repro/api/session.py`` → ``repro.api.session``;
    ``tests/core/test_engine.py`` → ``tests.core.test_engine``; package
    ``__init__.py`` files name the package itself.  Files outside ``root``
    fall back to their stem, which keeps ad-hoc invocations working (scope
    checks simply treat them as out of scope).
    """
    try:
        relative = path.resolve().relative_to(root.resolve())
    except ValueError:
        return path.stem
    parts = list(relative.parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return path.stem
    parts[-1] = parts[-1].removesuffix(".py")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem
