"""The ``repro lint`` subcommand implementation.

Kept in :mod:`repro.devtools` so the main CLI module stays a thin
dispatcher; :func:`add_lint_parser` declares the flags and
:func:`run_lint` is the handler (exit 0 clean, 2 findings — the same
usage-error code the other subcommands use for actionable failures).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.devtools.rules import ALL_RULES
from repro.devtools.runner import lint_paths


def add_lint_parser(subparsers: "argparse._SubParsersAction") -> None:
    """Attach the ``lint`` subcommand to the top-level parser."""
    lint = subparsers.add_parser(
        "lint",
        help="run repro-lint, the repo's invariant-enforcing static checker",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src under --root)",
    )
    lint.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repo root anchoring module names and relative paths "
        "(default: current directory)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Handle ``repro lint``; returns the process exit code."""
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id:22} {rule.description}")
        return 0
    root = args.root if args.root is not None else Path.cwd()
    paths = list(args.paths) if args.paths else [root / "src"]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(f"lint path(s) do not exist: {', '.join(missing)}", file=sys.stderr)
        return 2
    result = lint_paths(paths, root=root)
    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(result.render_text())
    return 0 if result.clean else 2
