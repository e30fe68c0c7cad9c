"""Session persistence: caches survive across processes, byte-faithfully."""

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from chain_cases import (
    FORGED_SCENARIO_KEYS,
    FORMER_SCENARIO,
    SimulatedCrash,
    crash_at_replace,
    tamper_fingerprint,
)

from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.api.sources import SourceSpec, concat, file_source, union_of
from repro.cli import main
from repro.core.engine import report_signature
from repro.core.identifiers import IdentifierOptions
from repro.errors import DatasetError, PersistError
from repro.persist import session as persist_session
from repro.persist.report import report_signature_digest
from repro.persist.session import (
    SESSION_MANIFEST,
    load_session,
    save_session,
    spec_from_document,
    spec_to_document,
)
from repro.simnet.network import SimulatedInternet
from repro.simnet.topology import generate_topology
from repro.validation.spec import midar

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


def _as_cell(column, value):
    """A manifest edit setting one cell of the AS table's first row."""

    def edit(manifest):
        row = manifest["as_table"][0]
        row[column] = value(row)

    return edit


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
        spec = SourceSpec.create("user-kind", seed_offset=3, start_time=1.5)
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

    def test_former_scenario_settings_load_at_their_fixed_values(self, saved, tmp_path):
        """A manifest written while the rates and coverages were scenario
        settings holds each at the value now fixed, and loads."""
        _, directory = saved
        copy = self._copy_session(directory, tmp_path / "former")
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        manifest["config"].update(FORMER_SCENARIO)
        (copy / SESSION_MANIFEST).write_text(json.dumps(manifest))
        assert load_session(copy).config == _CONFIG

    @pytest.mark.parametrize("forge, key", FORGED_SCENARIO_KEYS)
    def test_forged_config_fails_naming_the_key(self, saved, tmp_path, forge, key):
        _, directory = saved
        copy = self._copy_session(directory, tmp_path / "forged")
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        forge(manifest["config"])
        (copy / SESSION_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match=rf"malformed session manifest .*: config\b.*{key}"):
            load_session(copy)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda manifest: manifest["config"].update(scale="x"),
            lambda manifest: manifest["config"].update(scale=-1),
            lambda manifest: manifest["datasets"][0].pop("spec"),
            lambda manifest: manifest["reports"][0].pop("spec"),
            lambda manifest: manifest.update(banks="x"),
            lambda manifest: manifest["options"].update(ssh_include_banner="no"),
            lambda manifest: manifest["options"].update(bgp_include_hold_time=[1]),
            lambda manifest: manifest["options"].update(ssh_include_capabilities=1),
        ],
        ids=[
            "scale-not-a-number",
            "scale-negative",
            "dataset-without-spec",
            "report-without-spec",
            "banks-not-a-list",
            "option-a-string",
            "option-a-list",
            "option-an-integer",
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

    @pytest.mark.parametrize(
        "corrupt",
        [
            _as_cell(0, lambda row: True),
            _as_cell(0, lambda row: float(row[0])),
            _as_cell(0, lambda row: str(row[0])),
            _as_cell(0, lambda row: 0),
            _as_cell(0, lambda row: -row[0]),
            _as_cell(1, lambda row: 7),
            _as_cell(1, lambda row: None),
            _as_cell(2, lambda row: "hyperscaler"),
            _as_cell(2, lambda row: "CLOUD"),
            lambda manifest: manifest["as_table"][1].__setitem__(0, manifest["as_table"][0][0]),
            lambda manifest: manifest["as_table"][0].pop(),
            lambda manifest: manifest["as_table"][0].append("extra"),
            lambda manifest: manifest["as_table"].__setitem__(
                0, dict(zip(("asn", "name", "role"), manifest["as_table"][0]))
            ),
            lambda manifest: manifest.update(as_table={}),
            lambda manifest: manifest.update(as_table=None),
            lambda manifest: manifest.update(as_table="as-table.json"),
        ],
        ids=[
            "asn-a-boolean",
            "asn-a-float",
            "asn-a-string",
            "asn-zero",
            "asn-negative",
            "name-an-integer",
            "name-null",
            "role-unknown",
            "role-not-a-value",
            "asn-repeated",
            "row-of-two",
            "row-of-four",
            "row-an-object",
            "table-an-object",
            "table-null",
            "table-a-string",
        ],
    )
    def test_malformed_as_table_fails_the_load(self, saved, tmp_path, capsys, corrupt):
        _, directory = saved
        copy = self._copy_session(directory, tmp_path / "malformed")
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        corrupt(manifest)
        (copy / SESSION_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="malformed session manifest"):
            load_session(copy)
        assert main(["session", "load", str(copy)]) == 2
        assert "malformed session manifest" in capsys.readouterr().err

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
        leaves the old or the new session loadable: a save that encodes its
        datasets, and a loaded session's save, which copies the files it
        loaded."""
        expected = {seed: _contents(session) for seed, session in sessions.items()}
        base = tmp_path / "base"
        save_session(sessions[7], base)
        loaded_8 = load_session(save_session(sessions[8], tmp_path / "saved-8"))
        for label, session in (("encoded", sessions[8]), ("copied", loaded_8)):
            with pytest.MonkeyPatch.context() as patch:
                encoded = _count_encodes(patch)
                finished = shutil.copytree(base, tmp_path / f"{label}-finished")
                replaced = crash_at_replace(monkeypatch)
                save_session(_unrecorded(session) if label == "encoded" else session, finished)
                monkeypatch.undo()
                assert replaced[-1] == SESSION_MANIFEST
                assert _contents(load_session(finished)) == expected[8]
                for crash_at in range(1, len(replaced) + 1):
                    directory = shutil.copytree(base, tmp_path / f"{label}-crash-{crash_at}")
                    crash_at_replace(monkeypatch, crash_at)
                    with pytest.raises(SimulatedCrash):
                        save_session(
                            _unrecorded(session) if label == "encoded" else session, directory
                        )
                    monkeypatch.undo()
                    loaded = load_session(directory)
                    assert _contents(loaded) == expected[loaded.config.seed]
            assert (encoded == []) == (label == "copied")

    def test_resave_prunes_only_the_previous_files(self, sessions, tmp_path):
        directory = tmp_path / "saved"
        save_session(sessions[7], directory)
        # A report document an older save wrote, beside files no save wrote.
        stale = directory / "reports" / "0001-000.json"
        stale.parent.mkdir()
        stale.write_text("{}")
        foreign = [directory / "datasets" / "notes.txt", directory / "reports" / "keep.json"]
        for path in foreign:
            path.write_text("{}")
        save_session(sessions[8], directory)
        manifest = json.loads((directory / SESSION_MANIFEST).read_text())
        assert manifest["generation"] == 2
        named = {entry["file"] for entry in manifest["datasets"] if "file" in entry}
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
        ``generation`` key) still load, and a re-save prunes their files,
        report documents included."""
        directory = tmp_path / "unnumbered"
        save_session(sessions[7], directory)
        manifest = json.loads((directory / SESSION_MANIFEST).read_text())
        del manifest["generation"]
        for entry in manifest["datasets"]:
            if "file" in entry:
                unnumbered = f"datasets/{entry['file'].partition('-')[2]}"
                (directory / entry["file"]).rename(directory / unnumbered)
                entry["file"] = unnumbered
        (directory / SESSION_MANIFEST).write_text(json.dumps(manifest))
        (directory / "reports").mkdir()
        (directory / "reports" / "000.json").write_text("{}")
        assert _contents(load_session(directory)) == _contents(sessions[7])
        save_session(sessions[8], directory)
        assert _contents(load_session(directory)) == _contents(sessions[8])
        assert sorted(path.name for path in (directory / "datasets").iterdir()) == [
            f"0001-{position:03d}.jsonl"
            for position, spec in enumerate(sessions[8].cached_datasets())
            if not spec.inputs
        ]
        assert list((directory / "reports").iterdir()) == []


def _unrecorded(session):
    """``session`` with no dataset file recorded, so that its save encodes."""
    for spec, dataset in list(session.cached_datasets().items()):
        session.prime_dataset(spec, dataset)
    return session


def _count_encodes(monkeypatch) -> list[str]:
    """The names of the datasets a save encodes, as it encodes them."""
    encode = persist_session.save_observations_atomic
    encoded = []

    def counting(dataset, path):
        encoded.append(dataset.name)
        return encode(dataset, path)

    monkeypatch.setattr(persist_session, "save_observations_atomic", counting)
    return encoded


def _dataset_files(directory) -> list[tuple[str, bytes]]:
    """Each measured dataset's name and file bytes, in manifest order."""
    manifest = json.loads((Path(directory) / SESSION_MANIFEST).read_text())
    return [
        (entry["name"], (Path(directory) / entry["file"]).read_bytes())
        for entry in manifest["datasets"]
        if "file" in entry
    ]


class TestResaveCopiesVerifiedFiles:
    """A loaded session's save copies the dataset files its load verified."""

    def test_resave_writes_the_loaded_files(self, saved, tmp_path, monkeypatch):
        _, directory = saved
        loaded = load_session(directory)
        encoded = _count_encodes(monkeypatch)
        save_session(loaded, tmp_path / "resaved")
        assert encoded == []
        assert _dataset_files(tmp_path / "resaved") == _dataset_files(directory)
        assert _contents(load_session(tmp_path / "resaved")) == _contents(loaded)

    @pytest.mark.parametrize("change", ["edited", "deleted", "replaced", "reprimed"])
    def test_changed_file_is_encoded(self, saved, tmp_path, monkeypatch, change):
        # A file edited, deleted or replaced after the load no longer matches
        # its pin, and a dataset primed again without a file has none: the
        # save encodes the dataset it holds, which loads equal.
        _, directory = saved
        copy = shutil.copytree(directory, tmp_path / "copy")
        loaded = load_session(copy)
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        entries = [entry for entry in manifest["datasets"] if "file" in entry]
        path = copy / entries[0]["file"]
        if change == "edited":
            tamper_fingerprint(path)
        elif change == "deleted":
            path.unlink()
        elif change == "replaced":
            path.write_bytes((copy / entries[1]["file"]).read_bytes())
        else:
            spec = spec_from_document(entries[0]["spec"])
            loaded.prime_dataset(spec, loaded.cached_datasets()[spec])
        encoded = _count_encodes(monkeypatch)
        save_session(loaded, tmp_path / "resaved")
        assert encoded == [entries[0]["name"]]
        assert _dataset_files(tmp_path / "resaved") == _dataset_files(directory)
        assert _contents(load_session(tmp_path / "resaved")) == _contents(loaded)

    def test_save_in_place_then_elsewhere_both_copy(self, saved, tmp_path, monkeypatch):
        _, directory = saved
        copy = shutil.copytree(directory, tmp_path / "copy")
        loaded = load_session(copy)
        encoded = _count_encodes(monkeypatch)
        save_session(loaded, copy)
        save_session(loaded, tmp_path / "elsewhere")
        assert encoded == []
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        assert manifest["generation"] == 2
        assert sorted(path.name for path in (copy / "datasets").iterdir()) == sorted(
            Path(entry["file"]).name for entry in manifest["datasets"] if "file" in entry
        )
        files = _dataset_files(directory)
        assert _dataset_files(copy) == files == _dataset_files(tmp_path / "elsewhere")
        assert _contents(load_session(tmp_path / "elsewhere")) == _contents(loaded)

    @pytest.mark.parametrize("change", ["loaded-added", "loaded-renamed", "fresh-added"])
    def test_dataset_changed_in_memory_is_encoded(self, saved, tmp_path, monkeypatch, change):
        # The recorded file holds the dataset as it was loaded or saved; once
        # ``add`` grows it or its name changes, the save encodes it, and the
        # result loads equal to the dataset in memory.
        _, directory = saved
        if change.startswith("loaded"):
            session = load_session(directory)
        else:
            session = ReproSession(_CONFIG)
            session.dataset("censys")
            save_session(session, tmp_path / "first")
        dataset = session.dataset("censys")
        if change.endswith("added"):
            first = next(iter(dataset))
            dataset.add(dataclasses.replace(first, timestamp=first.timestamp + 1.0))
        else:
            dataset.name = "renamed"
        encoded = _count_encodes(monkeypatch)
        save_session(session, tmp_path / "resaved")
        assert encoded == [dataset.name]
        reloaded = load_session(tmp_path / "resaved").dataset("censys")
        assert (reloaded.name, list(reloaded)) == (dataset.name, list(dataset))

    def test_unpinned_dataset_is_encoded(self, saved, tmp_path, monkeypatch):
        # A session saved before datasets were pinned records no file.
        _, directory = saved
        copy = shutil.copytree(directory, tmp_path / "undigested")
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        for entry in manifest["datasets"]:
            entry.pop("digest", None)
        (copy / SESSION_MANIFEST).write_text(json.dumps(manifest))
        loaded = load_session(copy)
        encoded = _count_encodes(monkeypatch)
        save_session(loaded, tmp_path / "resaved")
        assert encoded == [name for name, _ in _dataset_files(directory)]
        assert _dataset_files(tmp_path / "resaved") == _dataset_files(directory)

    def test_headerless_file_is_encoded_under_its_name(self, saved, tmp_path, monkeypatch):
        # A headerless file names its dataset after its path; a copy under
        # the next generation's name would rename it, so it is encoded.
        _, directory = saved
        copy = shutil.copytree(directory, tmp_path / "headerless")
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        entry = next(entry for entry in manifest["datasets"] if "file" in entry)
        path = copy / entry["file"]
        path.write_bytes(path.read_bytes().split(b"\n", 1)[1])
        entry["name"] = path.stem
        entry["digest"] = hashlib.sha256(path.read_bytes()).hexdigest()
        (copy / SESSION_MANIFEST).write_text(json.dumps(manifest))
        loaded = load_session(copy)
        encoded = _count_encodes(monkeypatch)
        save_session(loaded, tmp_path / "resaved")
        assert encoded == [path.stem]
        assert _contents(load_session(tmp_path / "resaved")) == _contents(loaded)


class TestFreshProcessParity:
    def test_loaded_session_matches_in_fresh_process(self, tmp_path):
        """Save → load in a *new interpreter* → identical experiment text.

        A load resolves every report again, so its collection order must
        not depend on string hashing: two interpreters run under
        ``PYTHONHASHSEED`` 0 and 1.  A small scenario proves the
        cross-process contract here; the scale-1.0 save → load → render
        check of all ten experiments is
        ``tests/experiments/test_paper_scale.py``.
        """
        session = ReproSession(_CONFIG)
        for name in _COMPOSITIONS:
            session.report(name)
        rendered = session.run_experiments()
        signature = report_signature_digest(session.report("union"))
        directory = tmp_path / "saved"
        save_session(session, directory)
        script = tmp_path / "replay.py"
        script.write_text(
            "import sys, json\n"
            "from repro.api.session import ReproSession\n"
            "from repro.persist.report import report_signature_digest\n"
            "session = ReproSession.load(sys.argv[1])\n"
            "print(json.dumps({\n"
            "    'renders': session.run_experiments(),\n"
            "    'signature': report_signature_digest(session.report('union')),\n"
            "}))\n"
        )
        assert len(rendered) == 10
        for hash_seed in ("0", "1"):
            result = subprocess.run(
                [sys.executable, str(script), str(directory)],
                capture_output=True,
                text=True,
                check=True,
                env={
                    "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
                    "PYTHONHASHSEED": hash_seed,
                },
            )
            payload = json.loads(result.stdout)
            assert payload["renders"] == rendered
            assert payload["signature"] == signature


@pytest.fixture(scope="module")
def merged(tmp_path_factory):
    """A saved session whose caches hold combinator datasets too: the
    merged IPv4 ``union`` and the default-port Censys view."""
    session = ReproSession(_CONFIG)
    for name in _COMPOSITIONS:
        session.report(name)
    directory = tmp_path_factory.mktemp("merged") / "saved"
    save_session(session, directory)
    return session, directory


def _edited_copy(directory, destination, edit):
    """Copy a saved session and apply ``edit`` to its manifest."""
    shutil.copytree(directory, destination)
    manifest = json.loads((destination / SESSION_MANIFEST).read_text())
    edit(manifest)
    (destination / SESSION_MANIFEST).write_text(json.dumps(manifest))
    return destination


def _dataset_entry(manifest, kind):
    return next(entry for entry in manifest["datasets"] if entry["spec"]["kind"] == kind)


class TestDerivedEntries:
    """A save stores the measured datasets; a load derives the rest.

    Every test here runs with the topology unbuildable, so a load that
    tried to measure would fail with an ``AssertionError`` rather than a
    ``PersistError``.
    """

    @pytest.fixture(autouse=True)
    def no_topology(self, monkeypatch):
        def refuse(config):
            raise AssertionError("loading a session built the topology")

        monkeypatch.setattr("repro.api.session.generate_topology", refuse)

    def test_save_writes_only_measured_datasets(self, merged):
        session, directory = merged
        manifest = json.loads((directory / SESSION_MANIFEST).read_text())
        files = {
            spec_from_document(entry["spec"]).kind: entry.get("file")
            for entry in manifest["datasets"]
        }
        assert files.keys() == {
            "active-ipv4", "active-ipv6", "censys-ipv4", "standard-ports", "union"
        }
        assert files["union"] is None and files["standard-ports"] is None
        assert [entry["name"] for entry in manifest["reports"]] == list(_COMPOSITIONS)
        assert all(entry.keys() == {"spec", "name"} for entry in manifest["reports"])
        assert sorted(path.relative_to(directory).as_posix() for path in directory.glob("*/*")) == (
            sorted(file for file in files.values() if file is not None)
        )

    def test_load_holds_the_same_keys_in_the_same_order(self, merged):
        session, directory = merged
        loaded = load_session(directory)
        assert list(loaded.cached_datasets()) == list(session.cached_datasets())
        assert list(loaded.cached_reports()) == list(session.cached_reports())
        assert _contents(loaded) == _contents(session)

    def test_stale_report_document_keys_are_ignored(self, merged, tmp_path):
        # A session saved with report documents names each one; the reader
        # takes only the spec and the name.
        session, directory = merged

        def name_documents(manifest):
            for position, entry in enumerate(manifest["reports"]):
                entry.update(file=f"reports/0001-{position:03d}.json", signature="0" * 64)

        copy = _edited_copy(directory, tmp_path / "stale", name_documents)
        assert _contents(load_session(copy)) == _contents(session)

    def test_report_reading_an_unsaved_dataset_fails(self, merged, tmp_path):
        _, directory = merged

        def read_censys_ipv6(manifest):
            spec = concat(SourceSpec(kind="active-ipv4"), SourceSpec(kind="censys-ipv6"))
            manifest["reports"][0]["spec"] = spec_to_document(spec)

        copy = _edited_copy(directory, tmp_path / "unsaved", read_censys_ipv6)
        with pytest.raises(PersistError, match="did not save"):
            load_session(copy)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda manifest: _dataset_entry(manifest, "union")["spec"]["inputs"].__setitem__(
                1, spec_to_document(SourceSpec(kind="censys-ipv6"))
            ),
            lambda manifest: _dataset_entry(manifest, "active-ipv4").pop("file"),
        ],
        ids=["combinator-of-an-unsaved-input", "measured-without-file"],
    )
    def test_file_less_dataset_that_would_measure_fails(self, merged, tmp_path, edit):
        _, directory = merged
        copy = _edited_copy(directory, tmp_path / "unsaved", edit)
        with pytest.raises(PersistError, match="has no file"):
            load_session(copy)

    def test_file_less_dataset_count_mismatch_fails(self, merged, tmp_path):
        _, directory = merged

        def miscount(manifest):
            _dataset_entry(manifest, "union")["count"] += 1

        copy = _edited_copy(directory, tmp_path / "miscounted", miscount)
        with pytest.raises(PersistError, match="observations, manifest expects"):
            load_session(copy)


class TestRetiredSourceParameters:
    def test_dataset_of_a_parameterised_builtin_spec_loads_but_does_not_rebuild(
        self, tmp_path, capsys
    ):
        # Sessions once saved datasets of a second vantage point under
        # parameterised active-ipv4 specs.  The built-in kinds take no
        # parameters now, but a saved dataset loads from its file whatever
        # its spec says: the session loads, lists it and renders, and only
        # collecting the spec in a fresh session fails, naming the parameter.
        session = ReproSession(_CONFIG)
        measured = session.dataset("active-ipv4")
        save_session(session, tmp_path / "saved")
        spec = SourceSpec.create(
            "active-ipv4", seed_offset=10, vantage_address="203.0.113.2", vantage_name="vantage-2"
        )

        def second_vantage(manifest):
            _dataset_entry(manifest, "active-ipv4")["spec"] = spec_to_document(spec)

        copy = _edited_copy(tmp_path / "saved", tmp_path / "forged", second_vantage)
        loaded = load_session(copy)
        assert list(loaded.cached_datasets()) == [spec]
        assert list(loaded.cached_datasets()[spec]) == list(measured)
        assert main(["session", "load", str(copy), "--experiments", "table3"]) == 0
        output = capsys.readouterr().out
        assert f"dataset {spec.describe()}: {len(measured)} observations" in output
        assert "Table 3" in output
        with pytest.raises(DatasetError, match="seed_offset, vantage_address, vantage_name"):
            ReproSession(loaded.config).dataset(spec)


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


#: The validators a warm restore re-scores from its saved banks.
_VALIDATORS = ("midar", "ally", "speedtrap")


@pytest.fixture(scope="module")
def validated(tmp_path_factory):
    """A session saved after every experiment and a budgeted run of the
    validators, with its renders and the budgeted reports."""
    session = ReproSession(_CONFIG)
    for name in _COMPOSITIONS:
        session.report(name)
    renders = session.run_experiments()
    budgeted = session.validate_budgeted(list(_VALIDATORS))
    directory = tmp_path_factory.mktemp("validated") / "saved"
    save_session(session, directory)
    return session, directory, renders, budgeted


def _decisions(report):
    return [
        (verdict.candidate, verdict.testable, verdict.agrees, verdict.partition, verdict.classes)
        for verdict in report.verdicts
    ]


def _count_topology_builds(monkeypatch) -> list:
    """Record every topology a session builds."""
    builds = []

    def counting(config):
        builds.append(config)
        return generate_topology(config)

    monkeypatch.setattr("repro.api.session.generate_topology", counting)
    return builds


class TestWarmLoadBuildsNoTopology:
    """A saved session re-scores from its banks and renders every table
    without building the topology; a bank miss builds it then, once."""

    def test_saved_table_is_the_network_registry(self, validated):
        session, directory, _, _ = validated
        manifest = json.loads((directory / SESSION_MANIFEST).read_text())
        assert manifest["as_table"] == [
            [system.asn, system.name, system.role.value] for system in session.network.registry
        ]

    def test_warm_restore_sequence(self, validated, tmp_path, monkeypatch):
        session, directory, renders, budgeted = validated

        def refuse(config):
            raise AssertionError("a warm restore built the topology")

        monkeypatch.setattr("repro.api.session.generate_topology", refuse)
        loaded = load_session(directory)
        for name in _COMPOSITIONS:
            assert report_signature(loaded.report(name)) == report_signature(session.report(name))
        rescored = loaded.validate_budgeted(list(_VALIDATORS))
        assert [_decisions(entry.report) for entry in rescored.validations] == [
            _decisions(entry.report) for entry in budgeted.validations
        ]
        assert sum(entry.report.probes_issued for entry in rescored.validations) == 0
        assert loaded.run_experiments() == renders
        loaded.save(tmp_path / "resaved")
        resaved = json.loads((tmp_path / "resaved" / SESSION_MANIFEST).read_text())
        original = json.loads((directory / SESSION_MANIFEST).read_text())
        assert resaved["as_table"] == original["as_table"]

    def test_bank_miss_builds_the_topology_once(self, validated, monkeypatch):
        _, directory, _, _ = validated
        # Union candidate sets hold members the saved SSH sample never probed.
        misses = [
            midar(source="active", protocol="union", family="ipv4", start_after="active-ipv6"),
            midar(source="censys", protocol="union", family="ipv4", start_after="active-ipv6"),
        ]
        built_first = load_session(directory)
        built_first.network
        expected = [built_first.validate(spec) for spec in misses]
        builds = _count_topology_builds(monkeypatch)
        loaded = load_session(directory)
        loaded.validate_budgeted(list(_VALIDATORS))
        assert builds == []
        first = loaded.validate(misses[0])
        assert len(builds) == 1
        second = loaded.validate(misses[1])
        assert len(builds) == 1
        assert [first, second] == expected
        assert expected[0].probes_issued > 0

    def test_manifest_without_the_table_renders_tables_5_and_6_identically(
        self, validated, tmp_path, monkeypatch
    ):
        _, directory, renders, _ = validated
        copy = _edited_copy(directory, tmp_path / "untabled", lambda manifest: manifest.pop("as_table"))
        builds = _count_topology_builds(monkeypatch)
        loaded = load_session(copy)
        assert builds == []
        tables = ("table5", "table6")
        assert loaded.run_experiments(tables) == {name: renders[name] for name in tables}
        assert len(builds) == 1

    def test_save_writes_no_table_it_would_have_to_build(self, validated, tmp_path, monkeypatch):
        _, directory, _, _ = validated
        copy = _edited_copy(directory, tmp_path / "untabled", lambda manifest: manifest.pop("as_table"))
        builds = _count_topology_builds(monkeypatch)
        save_session(load_session(copy), tmp_path / "resaved")
        assert builds == []
        assert "as_table" not in json.loads((tmp_path / "resaved" / SESSION_MANIFEST).read_text())


class TestNonUtf8Documents:
    """A document holding a byte that is not UTF-8 fails the load naming it."""

    @pytest.mark.parametrize(
        "entries, what",
        [("validations", "validation document"), ("banks", "bank document")],
    )
    def test_non_utf8_document_fails_the_load(self, validated, tmp_path, entries, what):
        _, directory, _, _ = validated
        copy = shutil.copytree(directory, tmp_path / "copy")
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        path = copy / manifest[entries][0]["file"]
        path.write_bytes(path.read_bytes() + b"\xff")
        with pytest.raises(PersistError, match=f"{what} .*{path.name} is not UTF-8 text"):
            load_session(copy)
