"""The shared file primitives: atomic writes and guarded JSON reads."""

import json
import os

import pytest
from chain_cases import FORMER_SCENARIO

from repro.api.config import ScenarioConfig
from repro.errors import PersistError
from repro.persist.files import (
    link_atomic,
    read_json_document,
    read_pinned_document,
    read_scenario,
    write_atomic,
)


class TestWriteAtomic:
    def test_writes_content_and_creates_parents(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "doc.json"
        write_atomic(target, '{"v": 1}')
        assert json.loads(target.read_text()) == {"v": 1}

    def test_replaces_existing_file_without_residue(self, tmp_path):
        target = tmp_path / "doc.json"
        write_atomic(target, "old")
        write_atomic(target, "new")
        assert target.read_text() == "new"
        assert list(tmp_path.glob("*.tmp")) == []


class TestLinkAtomic:
    @pytest.mark.parametrize("previous", ["absent", "regular file", "link"])
    def test_swaps_a_relative_link_onto_the_name(self, tmp_path, previous):
        target = tmp_path / "doc.json"
        if previous == "regular file":
            target.write_text("older")
        elif previous == "link":
            (tmp_path / "doc-0001.json").write_text("first")
            os.symlink("doc-0001.json", target)
        (tmp_path / "doc-0002.json").write_text("second")
        link_atomic(target, "doc-0002.json")
        assert os.readlink(target) == "doc-0002.json"
        assert target.read_text() == "second"
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("stale", ["regular file", "dangling link"])
    def test_removes_a_stale_temp_first(self, tmp_path, stale):
        temporary = tmp_path / "doc.json.tmp"
        if stale == "regular file":
            temporary.write_text("{torn")
        else:
            os.symlink("doc-0009.json", temporary)
        (tmp_path / "doc-0001.json").write_text("first")
        link_atomic(tmp_path / "doc.json", "doc-0001.json")
        assert (tmp_path / "doc.json").read_text() == "first"
        assert list(tmp_path.glob("*.tmp")) == []


class TestReadJsonDocument:
    def test_reads_an_object(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_text('{"version": 2}', encoding="utf-8")
        assert read_json_document(target, "fixture") == {"version": 2}

    def test_missing_file_is_persist_error(self, tmp_path):
        with pytest.raises(PersistError, match="does not exist"):
            read_json_document(tmp_path / "absent.json", "fixture")

    def test_invalid_json_is_persist_error(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_text("{oops", encoding="utf-8")
        with pytest.raises(PersistError, match="not valid JSON"):
            read_json_document(target, "fixture")

    def test_non_object_document_is_persist_error(self, tmp_path):
        # Every persisted artifact is a versioned mapping; a top-level
        # array or scalar is a corrupt document, not a usable one.
        target = tmp_path / "doc.json"
        target.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(PersistError, match="not a JSON object"):
            read_json_document(target, "fixture")


class TestReadPinnedDocument:
    def test_matching_or_absent_pin_reads(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_text('{"signature": "abc"}', encoding="utf-8")
        assert read_pinned_document(target, "fixture", "abc", "session") == {"signature": "abc"}
        # Manifests written before pinning carry no signature to compare.
        assert read_pinned_document(target, "fixture", None, "session") == {"signature": "abc"}

    def test_mismatched_pin_is_a_torn_save(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_text('{"signature": "abc"}', encoding="utf-8")
        with pytest.raises(PersistError, match="stream checkpoint was likely torn"):
            read_pinned_document(target, "fixture", "def", "stream checkpoint")


class TestReadScenario:
    def test_parent_format_reads_to_its_scale_and_seed(self):
        document = {"scale": 0.5, "seed": 3, **FORMER_SCENARIO}
        assert read_scenario(document, "config", "session manifest") == ScenarioConfig(0.5, 3)

    @pytest.mark.parametrize("field", sorted(FORMER_SCENARIO))
    @pytest.mark.parametrize(
        # The former fraction bounds, once accepted, are off the fixed value too.
        "value",
        [0.0, 1.0, -0.1, 1.5, float("nan"), float("inf"), "x", [1], True],
    )
    def test_rates_and_coverages_load_only_at_their_fixed_values(self, field, value):
        document = {"scale": 1.0, "seed": 42, **FORMER_SCENARIO, field: value}
        with pytest.raises(PersistError, match=rf"malformed session manifest: config\.{field} is "):
            read_scenario(document, "config", "session manifest")
