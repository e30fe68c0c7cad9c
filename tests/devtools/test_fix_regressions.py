"""Regression tests for the fixes the first repo-wide lint run forced.

One of the 18 true positives changed observable behavior beyond guard
placement: the CLI writes its artifacts through ``write_atomic``
(``atomic-write-only``).
"""

from pathlib import Path

import pytest

from repro.cli import main


class TestCliArtifactsAtomic:
    @pytest.fixture(scope="class")
    def resolved(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("cli-atomic")
        scan_dir = base / "scan"
        out_dir = base / "resolved"
        assert main(
            ["scan", "--scale", "0.1", "--seed", "3", "--output", str(scan_dir)]
        ) == 0
        assert main(
            [
                "resolve",
                str(scan_dir / "active.jsonl"),
                str(scan_dir / "censys.jsonl"),
                "--output", str(out_dir),
                "--metrics", str(out_dir / "metrics.json"),
            ]
        ) == 0
        return out_dir

    def test_artifacts_written(self, resolved):
        assert (resolved / "report.md").read_text().startswith(
            "# Alias resolution report"
        )
        assert (resolved / "metrics.json").exists()

    def test_no_temporary_residue(self, resolved):
        # write_atomic stages as <name>.tmp then os.replace()s; a leftover
        # .tmp means a write bypassed the atomic path (or tore).
        residue = list(Path(resolved).rglob("*.tmp"))
        assert residue == []
