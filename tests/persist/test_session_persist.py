"""Session persistence: caches survive across processes, byte-faithfully."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from chain_cases import SimulatedCrash, crash_at_replace

from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.api.sources import SourceSpec, concat, file_source, union_of
from repro.core.engine import report_signature
from repro.core.identifiers import IdentifierOptions
from repro.errors import PersistError
from repro.persist.report import (
    report_from_document,
    report_signature_digest,
    report_to_document,
)
from repro.persist.session import (
    SESSION_MANIFEST,
    load_session,
    save_session,
    spec_from_document,
    spec_to_document,
)
from repro.simnet.network import SimulatedInternet

_CONFIG = ScenarioConfig(scale=0.05, seed=7)

#: The report compositions a warm start reads.
_COMPOSITIONS = ("active", "censys", "union")

#: Every way a session reaches the simulated Internet.
_NETWORK_CALLS = ("probe_tcp_syn", "connect", "sample_ipid")


def _count_network_calls(monkeypatch) -> dict[str, int]:
    """Count calls into the simulated Internet, on every instance."""
    calls = dict.fromkeys(_NETWORK_CALLS, 0)
    for name in _NETWORK_CALLS:
        original = getattr(SimulatedInternet, name)

        def counting(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SimulatedInternet, name, counting)
    return calls


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """One session with warm caches, saved once for the whole module."""
    session = ReproSession(_CONFIG)
    session.dataset("censys")
    session.report("active")
    directory = tmp_path_factory.mktemp("session") / "saved"
    save_session(session, directory)
    return session, directory


class TestSpecDocuments:
    def test_roundtrip_simple(self):
        spec = SourceSpec.create("active-ipv4", seed_offset=3, start_time=1.5)
        assert spec_from_document(spec_to_document(spec)) == spec

    def test_roundtrip_nested(self):
        spec = concat(
            union_of(SourceSpec(kind="active-ipv4"), SourceSpec(kind="censys-ipv4")),
            file_source("/data/archive.jsonl", label="archive"),
            label="combined",
        )
        assert spec_from_document(spec_to_document(spec)) == spec

    def test_param_types_survive(self):
        spec = SourceSpec.create("x", a=True, b=1, c=1.5, d="s")
        loaded = spec_from_document(json.loads(json.dumps(spec_to_document(spec))))
        assert loaded == spec
        assert [type(value) for _, value in loaded.params] == [bool, int, float, str]


class TestReportDocuments:
    def test_roundtrip_signature(self, saved):
        session, _ = saved
        report = session.report("active")
        loaded = report_from_document(
            json.loads(json.dumps(report_to_document(report)))
        )
        assert report_signature(loaded) == report_signature(report)
        assert report_signature_digest(loaded) == report_signature_digest(report)

    def test_tampered_report_fails_parity(self, saved):
        session, _ = saved
        document = report_to_document(session.report("active"))
        document["name"] = "tampered"
        with pytest.raises(PersistError, match="parity"):
            report_from_document(document)


class TestSessionRoundTrip:
    def test_caches_primed(self, saved):
        session, directory = saved
        loaded = load_session(directory)
        assert loaded.config == session.config
        assert loaded.options == session.options
        assert set(loaded.cached_datasets()) == set(session.cached_datasets())
        assert set(loaded.cached_reports()) == set(session.cached_reports())

    def test_datasets_identical(self, saved):
        session, directory = saved
        loaded = load_session(directory)
        for spec, dataset in session.cached_datasets().items():
            restored = loaded.cached_datasets()[spec]
            assert restored.name == dataset.name
            assert list(restored) == list(dataset)

    def test_cached_report_identical_without_rebuild(self, saved, monkeypatch):
        _, directory = saved
        calls = _count_network_calls(monkeypatch)
        loaded = load_session(directory)
        warm = {name: report_signature(loaded.report(name)) for name in _COMPOSITIONS}
        # A warm start answers every report from the primed caches: not one
        # probe, connection or IPID sample reaches the simulated Internet.
        assert calls == dict.fromkeys(_NETWORK_CALLS, 0)
        cold_session = ReproSession(_CONFIG)
        cold = {name: report_signature(cold_session.report(name)) for name in _COMPOSITIONS}
        # The same reads on a cold session do scan, so the counter is live.
        assert calls["probe_tcp_syn"] > 0 and calls["connect"] > 0
        assert warm == cold

    def test_uncached_composition_still_resolves(self, saved):
        session, directory = saved
        loaded = load_session(directory)
        # "censys" resolves over the cached raw dataset through the
        # standard-ports combinator — collection never re-runs, and the
        # result matches the live session's.
        assert report_signature(loaded.report("censys")) == report_signature(
            session.report("censys")
        )

    def test_save_via_session_method(self, tmp_path):
        session = ReproSession(_CONFIG, IdentifierOptions(ssh_include_banner=False))
        session.save(tmp_path / "s")
        loaded = ReproSession.load(tmp_path / "s")
        assert loaded.options == session.options

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(PersistError, match=SESSION_MANIFEST):
            load_session(tmp_path)

    @staticmethod
    def _copy_session(directory, destination):
        destination.mkdir()
        for path in directory.rglob("*"):
            target = destination / path.relative_to(directory)
            if path.is_dir():
                target.mkdir(parents=True, exist_ok=True)
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(path.read_bytes())
        return destination

    def test_count_mismatch_raises(self, saved, tmp_path):
        _, directory = saved
        copy = self._copy_session(directory, tmp_path / "copy")
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        manifest["datasets"][0]["count"] += 1
        (copy / SESSION_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="observations"):
            load_session(copy)

    def test_dataset_name_mismatch_detected(self, saved, tmp_path):
        # A torn save pairing an old manifest with a new dataset file: the
        # file's header name no longer matches the manifest pin.
        _, directory = saved
        copy = self._copy_session(directory, tmp_path / "torn-dataset")
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        manifest["datasets"][0]["name"] = "stale-name"
        (copy / SESSION_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="torn mid-save"):
            load_session(copy)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda manifest: manifest["config"].update(scale="x"),
            lambda manifest: manifest["config"].update(scale=-1),
            lambda manifest: manifest["datasets"][0].pop("spec"),
            lambda manifest: manifest["reports"][0].pop("file"),
            lambda manifest: manifest.update(banks="x"),
        ],
        ids=[
            "scale-not-a-number",
            "scale-negative",
            "dataset-without-spec",
            "report-without-file",
            "banks-not-a-list",
        ],
    )
    def test_malformed_manifest_raises(self, saved, tmp_path, corrupt):
        _, directory = saved
        copy = self._copy_session(directory, tmp_path / "malformed")
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        corrupt(manifest)
        (copy / SESSION_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="malformed session manifest"):
            load_session(copy)

    def test_tampered_dataset_fails_digest(self, saved, tmp_path):
        # Same name, same count, different host keys: only the content
        # digest tells the file from the one the session saved.
        _, directory = saved
        copy = self._copy_session(directory, tmp_path / "tampered")
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        path = copy / manifest["datasets"][0]["file"]
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            if "host_key_fingerprint" in record.get("fields", {}):
                record["fields"]["host_key_fingerprint"] += "-tampered"
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        with pytest.raises(PersistError, match="content digest"):
            load_session(copy)

    def test_manifest_without_digest_loads(self, saved, tmp_path):
        _, directory = saved
        copy = self._copy_session(directory, tmp_path / "undigested")
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        for entry in manifest["datasets"]:
            del entry["digest"]
        (copy / SESSION_MANIFEST).write_text(json.dumps(manifest))
        assert _contents(load_session(copy)) == _contents(load_session(directory))

    def test_report_signature_mismatch_detected(self, saved, tmp_path):
        # A torn save pairing an old manifest with a new report file: the
        # file is internally consistent, but its signature differs from the
        # manifest pin.
        _, directory = saved
        copy = self._copy_session(directory, tmp_path / "torn-report")
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        manifest["reports"][0]["signature"] = "0" * 64
        (copy / SESSION_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="torn mid-save"):
            load_session(copy)


def _contents(session):
    """What a loaded session must reproduce: config, datasets, reports."""
    return (
        session.config,
        {spec: list(dataset) for spec, dataset in session.cached_datasets().items()},
        {key: report_signature(report) for key, report in session.cached_reports().items()},
    )


class TestResave:
    """Saving over a saved session replaces it, or leaves it, never neither."""

    @pytest.fixture(scope="class")
    def sessions(self):
        sessions = {}
        for seed in (7, 8):
            session = ReproSession(ScenarioConfig(scale=0.05, seed=seed))
            session.report("union")
            sessions[seed] = session
        return sessions

    def test_crash_at_every_replace_leaves_one_session(
        self, sessions, tmp_path, monkeypatch
    ):
        """A re-save that dies at its k-th ``os.replace``, for every k,
        leaves the old or the new session loadable."""
        expected = {seed: _contents(session) for seed, session in sessions.items()}
        base = tmp_path / "base"
        save_session(sessions[7], base)
        finished = shutil.copytree(base, tmp_path / "finished")
        replaced = crash_at_replace(monkeypatch)
        save_session(sessions[8], finished)
        monkeypatch.undo()
        assert replaced[-1] == SESSION_MANIFEST
        assert _contents(load_session(finished)) == expected[8]
        for crash_at in range(1, len(replaced) + 1):
            directory = shutil.copytree(base, tmp_path / f"crash-{crash_at}")
            crash_at_replace(monkeypatch, crash_at)
            with pytest.raises(SimulatedCrash):
                save_session(sessions[8], directory)
            monkeypatch.undo()
            loaded = load_session(directory)
            assert _contents(loaded) == expected[loaded.config.seed]

    def test_resave_prunes_only_the_previous_files(self, sessions, tmp_path):
        directory = tmp_path / "saved"
        save_session(sessions[7], directory)
        foreign = [directory / "datasets" / "notes.txt", directory / "reports" / "keep.json"]
        for path in foreign:
            path.write_text("{}")
        save_session(sessions[8], directory)
        manifest = json.loads((directory / SESSION_MANIFEST).read_text())
        assert manifest["generation"] == 2
        named = {entry["file"] for key in ("datasets", "reports") for entry in manifest[key]}
        on_disk = {
            path.relative_to(directory).as_posix()
            for path in directory.glob("*/*")
            if path not in foreign
        }
        assert on_disk == named
        assert all(name.split("/")[1].startswith("0002-") for name in named)
        assert all(path.exists() for path in foreign)

    def test_save_over_an_unreadable_manifest(self, sessions, tmp_path):
        # An unreadable manifest names no file to preserve: it counts as
        # generation 0 and the save replaces it.
        directory = tmp_path / "corrupt"
        directory.mkdir()
        (directory / SESSION_MANIFEST).write_text("{not json")
        save_session(sessions[7], directory)
        assert json.loads((directory / SESSION_MANIFEST).read_text())["generation"] == 1
        assert _contents(load_session(directory)) == _contents(sessions[7])

    def test_unnumbered_session_loads_and_resaves(self, sessions, tmp_path):
        """Sessions saved before generations (``datasets/000.jsonl``, no
        ``generation`` key) still load, and a re-save prunes their files."""
        directory = tmp_path / "unnumbered"
        save_session(sessions[7], directory)
        manifest = json.loads((directory / SESSION_MANIFEST).read_text())
        del manifest["generation"]
        for key in ("datasets", "reports"):
            for entry in manifest[key]:
                folder, name = entry["file"].split("/")
                unnumbered = f"{folder}/{name.partition('-')[2]}"
                (directory / entry["file"]).rename(directory / unnumbered)
                entry["file"] = unnumbered
        (directory / SESSION_MANIFEST).write_text(json.dumps(manifest))
        assert _contents(load_session(directory)) == _contents(sessions[7])
        save_session(sessions[8], directory)
        assert _contents(load_session(directory)) == _contents(sessions[8])
        assert sorted(path.name for path in (directory / "datasets").iterdir()) == [
            f"0001-{position:03d}.jsonl"
            for position in range(len(sessions[8].cached_datasets()))
        ]


class TestFreshProcessParity:
    def test_loaded_session_matches_in_fresh_process(self, saved, tmp_path):
        """Save → load in a *new interpreter* → identical experiment text.

        A small scenario proves the cross-process contract here; the
        scale-1.0 save → load → render check of all ten experiments is
        ``tests/experiments/test_paper_scale.py``.
        """
        session, directory = saved
        rendered = session.run_experiment("table3")
        signature = report_signature_digest(session.report("active"))
        script = tmp_path / "replay.py"
        script.write_text(
            "import sys, json\n"
            "from repro.api.session import ReproSession\n"
            "from repro.persist.report import report_signature_digest\n"
            "session = ReproSession.load(sys.argv[1])\n"
            "print(json.dumps({\n"
            "    'table3': session.run_experiment('table3'),\n"
            "    'signature': report_signature_digest(session.report('active')),\n"
            "}))\n"
        )
        result = subprocess.run(
            [sys.executable, str(script), str(directory)],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")},
        )
        payload = json.loads(result.stdout)
        assert payload["table3"] == rendered
        assert payload["signature"] == signature


class TestFileSourceKind:
    def test_file_spec_loads_dataset(self, saved):
        session, directory = saved
        # any saved dataset file works; take the first manifest entry
        manifest = json.loads((directory / SESSION_MANIFEST).read_text())
        entry = manifest["datasets"][0]
        fresh = ReproSession(_CONFIG)
        dataset = fresh.dataset(file_source(directory / entry["file"]))
        original = session.cached_datasets()[spec_from_document(entry["spec"])]
        assert dataset.name == original.name
        assert list(dataset) == list(original)

    def test_label_overrides_header_name(self, saved):
        _, directory = saved
        manifest = json.loads((directory / SESSION_MANIFEST).read_text())
        entry = manifest["datasets"][0]
        fresh = ReproSession(_CONFIG)
        dataset = fresh.dataset(file_source(directory / entry["file"], label="renamed"))
        assert dataset.name == "renamed"

    def test_file_source_composes_with_live_sources(self, saved):
        session, directory = saved
        manifest = json.loads((directory / SESSION_MANIFEST).read_text())
        by_kind = {
            spec_from_document(entry["spec"]).kind: entry for entry in manifest["datasets"]
        }
        censys_entry = by_kind["censys-ipv4"]
        fresh = ReproSession(_CONFIG)
        composed = union_of(
            SourceSpec(kind="active-ipv4"),
            file_source(directory / censys_entry["file"]),
            label="union",
        )
        live = union_of(
            SourceSpec(kind="active-ipv4"), SourceSpec(kind="censys-ipv4"), label="union"
        )
        assert report_signature(fresh.report(composed, name="u")) == report_signature(
            session.report(live, name="u")
        )

    def test_missing_path_param_raises(self):
        from repro.errors import DatasetError

        fresh = ReproSession(_CONFIG)
        with pytest.raises(DatasetError, match="path"):
            fresh.dataset(SourceSpec(kind="file"))
