"""Runner pipeline, JSON document shape, CLI exit codes, and the
self-lint gate keeping the tree at zero findings."""

import json
import textwrap
from pathlib import Path

from repro.cli import main
from repro.devtools.rules import ALL_RULES
from repro.devtools.runner import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_SOURCE = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """
)


def _write_tree(tmp_path, source=BAD_SOURCE, name="clocked.py"):
    target = tmp_path / "src" / "repro" / "core" / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return target


class TestRunner:
    def test_parse_error_is_a_finding_not_a_crash(self, tmp_path):
        _write_tree(tmp_path, source="def broken(:\n")
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        assert [f.rule for f in result.findings] == ["parse-error"]
        assert result.checked_files == 1

    def test_findings_are_sorted_and_paths_repo_relative(self, tmp_path):
        _write_tree(tmp_path, name="b_second.py")
        _write_tree(tmp_path, name="a_first.py")
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        paths = [f.path for f in result.findings]
        assert paths == sorted(paths)
        assert paths[0] == "src/repro/core/a_first.py"

    def test_disable_comment_does_not_hide_a_finding(self, tmp_path):
        _write_tree(
            tmp_path,
            source=BAD_SOURCE.replace(
                "time.time()",
                "time.time()  # repro-lint: disable=no-wall-clock -- reason",
            ),
        )
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        assert [f.rule for f in result.findings] == ["no-wall-clock"]


class TestJsonDocument:
    def test_document_schema(self, tmp_path):
        _write_tree(tmp_path)
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        document = result.to_json()
        assert set(document) == {"version", "rules", "findings", "summary"}
        assert document["version"] == 1
        assert [rule["id"] for rule in document["rules"]] == [rule.rule_id for rule in ALL_RULES]
        for rule in document["rules"]:
            assert set(rule) == {"id", "description", "fixit"}
        [finding] = document["findings"]
        assert set(finding) == {
            "path", "line", "column", "rule", "message", "fixit", "snippet",
        }
        assert document["summary"] == {"files": 1, "reported": 1}

    def test_text_report_summary_line(self, tmp_path):
        _write_tree(tmp_path)
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        text = result.render_text()
        assert text.endswith("1 finding(s) in 1 file(s)")
        assert "no-wall-clock" in text


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        _write_tree(tmp_path, source="def ok():\n    return 1\n")
        assert main(["lint", "--root", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_two_with_findings(self, tmp_path, capsys):
        _write_tree(tmp_path)
        assert main(["lint", "--root", str(tmp_path)]) == 2
        assert "no-wall-clock" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        _write_tree(tmp_path)
        assert main(["lint", "--root", str(tmp_path), "--format", "json"]) == 2
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["reported"] == 1
        assert document["findings"][0]["rule"] == "no-wall-clock"

    def test_missing_path_is_exit_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "absent"), "--root", str(tmp_path)]) == 2
        assert "do not exist" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out


class TestSelfLint:
    def test_repo_source_tree_is_lint_clean(self):
        """The acceptance gate: `repro lint` reports zero findings on src/."""
        result = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert result.clean, result.render_text()
