"""The repro-lint runner: collect files and run every rule over them.

:func:`lint_paths` is the whole pipeline — parse each file and run every
rule — and :func:`lint_source` is the single-snippet form the fixture
tests use.  Nothing suppresses or grandfathers a finding: a false
positive is fixed in the rule.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.devtools.findings import Finding, ModuleUnderLint, module_name_for
from repro.devtools.rules import ALL_RULES, Rule


@dataclasses.dataclass(frozen=True)
class LintResult:
    """Everything one lint run produced."""

    findings: tuple[Finding, ...]
    checked_files: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_json(self) -> dict[str, object]:
        """The ``repro lint --format json`` document."""
        return {
            "version": 1,
            "rules": [
                {
                    "id": rule.rule_id,
                    "description": rule.description,
                    "fixit": rule.fixit,
                }
                for rule in ALL_RULES
            ],
            "findings": [finding.to_json() for finding in self.findings],
            "summary": {"files": self.checked_files, "reported": len(self.findings)},
        }

    def render_text(self) -> str:
        """The ``repro lint`` text report (deterministic ordering)."""
        lines = [finding.render() for finding in self.findings]
        lines.append(f"{len(self.findings)} finding(s) in {self.checked_files} file(s)")
        return "\n".join(lines)


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, deterministically ordered."""
    seen = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = (path,)
        else:
            candidates = ()
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def lint_module(
    module: ModuleUnderLint, rules: Sequence[Rule] = ALL_RULES
) -> list[Finding]:
    """Run ``rules`` over one parsed module."""
    return [finding for rule in rules for finding in rule.check(module)]


def lint_source(
    source: str,
    *,
    module: str,
    path: str = "<string>",
    rules: Sequence[Rule] = ALL_RULES,
) -> list[Finding]:
    """Lint one source snippet under an explicit module name (test helper)."""
    parsed = ModuleUnderLint.from_source(source, module=module, path=path)
    return sorted(lint_module(parsed, rules))


def lint_paths(
    paths: Sequence[Path],
    *,
    root: Path,
    rules: Sequence[Rule] = ALL_RULES,
) -> LintResult:
    """Lint every Python file under ``paths``.

    ``root`` anchors repo-relative finding paths and dotted module names.
    Unparseable files surface as ``parse-error`` findings rather than
    crashing the run: a syntax error is a finding too.
    """
    findings: list[Finding] = []
    checked = 0
    for file_path in iter_python_files(paths):
        checked += 1
        relative = _relative_posix(file_path, root)
        try:
            source = file_path.read_text(encoding="utf-8")
            parsed = ModuleUnderLint.from_source(
                source,
                module=module_name_for(file_path, root),
                path=relative,
            )
        except (OSError, SyntaxError, ValueError) as exc:
            findings.append(
                Finding(
                    path=relative,
                    line=getattr(exc, "lineno", 1) or 1,
                    column=1,
                    rule="parse-error",
                    message=f"cannot lint file: {exc}",
                    fixit="fix the file so it parses",
                )
            )
            continue
        findings.extend(lint_module(parsed, rules))
    return LintResult(findings=tuple(sorted(findings)), checked_files=checked)


def _relative_posix(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


__all__ = [
    "LintResult",
    "iter_python_files",
    "lint_module",
    "lint_paths",
    "lint_source",
]
