"""Checkpoint-chain cases shared by the campaign and stream checkpoint tests.

Both layouts — a campaign's and a daemon's — are written by one
checkpointer and read by one loader (:mod:`repro.persist.stream`), so the
same cases run over each.  A test module binds them to its layout with a
``chain`` fixture: an object with

* ``manifest`` and ``step`` — the manifest file name and the step that
  prefixes the observation files (``snapshot``/``poll``);
* ``load(directory)`` — the chain's loader;
* ``run(directory, steps)`` — checkpoint a fresh run through ``steps``
  steps;
* ``resume(checkpoint, steps, directory=None)`` — resume to ``steps``
  steps, checkpointing into ``directory`` when given, and return the
  resumed steps' report signatures;
* ``signatures(uninterrupted)`` — the report signatures of the module's
  ``uninterrupted`` reference run;

plus ``checkpoint_dir`` (a run checkpointed after two steps) and
``uninterrupted`` (a run through at least four steps) fixtures.
"""

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.errors import PersistError
from repro.net.ipid import MonotonicIpidCounter
from repro.persist import state_signature_digest
from repro.persist.bank import bank_state_to_document
from repro.simnet.asn import AsRegistry, AsRole, AutonomousSystem
from repro.simnet.device import Device, DeviceRole, Interface
from repro.simnet.network import SimulatedInternet
from repro.validation.runner import ValidationRun, run_validator
from repro.validation.spec import midar

_ALIASES = frozenset({"10.7.1.1", "10.7.1.2"})

#: The settings a scenario config held before the paper's one scenario
#: fixed them, at the values every manifest written then holds.
FORMER_SCENARIO = {
    "loss_rate": 0.01,
    "hitlist_server_coverage": 0.8,
    "hitlist_router_coverage": 0.4,
    "censys_miss_rate": 0.12,
}


def _delete(key):
    return lambda section: section.pop(key)


def _set(key, value):
    return lambda section: section.update({key: value})


#: A forged config object of a manifest, and the key each refusal names:
#: a former setting off its fixed value, a kept field gone, an unknown key.
FORGED_SCENARIO_KEYS = [
    pytest.param(_set("loss_rate", 0.2), "loss_rate", id="loss-rate-off"),
    pytest.param(_set("censys_miss_rate", 0.5), "censys_miss_rate", id="censys-miss-rate-off"),
    pytest.param(
        _set("hitlist_server_coverage", "0.8"), "hitlist_server_coverage", id="coverage-string"
    ),
    pytest.param(_delete("seed"), "seed", id="seed-missing"),
    pytest.param(_set("latency", 0.0), "latency", id="unknown-key"),
]


def copy_checkpoint(source, target):
    """A copy of a checkpoint directory, its manifest link kept a link."""
    shutil.copytree(source, target, symlinks=True)
    return target


def generation_manifest(manifest, generation):
    """The name of generation ``generation``'s manifest file."""
    return f"{Path(manifest).stem}-{generation:04d}.json"


def write_older_manifest(directory, manifest):
    """Lay a checkpoint out as older builds wrote it: the manifest a
    regular file, no per-generation manifest beside it."""
    link = directory / manifest
    target = directory / os.readlink(link)
    link.unlink()
    link.write_bytes(target.read_bytes())
    target.unlink()


class SimulatedCrash(Exception):
    """The process dying at one ``os.replace`` of a save."""


def crash_at_replace(monkeypatch, crash_at=None):
    """Count every ``os.replace`` from now on; the ``crash_at``-th one dies.

    Returns the names of the replaced files, in order, including the one
    that died.
    """
    real_replace = os.replace
    replaced = []

    def counting_replace(source, target):
        replaced.append(Path(target).name)
        if len(replaced) == crash_at:
            raise SimulatedCrash(f"simulated crash replacing {Path(target).name}")
        real_replace(source, target)

    monkeypatch.setattr(os, "replace", counting_replace)
    return replaced


def tamper_fingerprint(path):
    """Change one SSH host-key fingerprint in a step file, same line count."""
    lines = path.read_text().splitlines(keepends=True)
    for position, line in enumerate(lines):
        record = json.loads(line)
        fingerprint = record.get("fields", {}).get("host_key_fingerprint")
        if fingerprint is not None:
            record["fields"]["host_key_fingerprint"] = "tampered-" + fingerprint
            lines[position] = json.dumps(record) + "\n"
            path.write_text("".join(lines))
            return
    raise AssertionError(f"{path} holds no SSH observation to tamper with")


def crash_before_manifest(monkeypatch, manifest):
    """Make every save die before its manifest link replaces the previous one."""
    real_replace = os.replace

    def dying_replace(source, target):
        if str(target).endswith(manifest):
            raise OSError("simulated crash before the manifest landed")
        real_replace(source, target)

    monkeypatch.setattr(os, "replace", dying_replace)


def plant_banks(directory, manifest_name, generation):
    """Add a sample-bank file and its manifest entry, as older checkpoints
    held them: ``bank-NNNN-000.json`` of generation ``NNNN``, pinned by
    signature under the manifest's ``banks`` key."""
    bank = next(iter(banked_run().banks().values()))
    document = bank_state_to_document(bank.export_state())
    bank_file = f"bank-{generation:04d}-000.json"
    (directory / bank_file).write_text(json.dumps(document))
    manifest = json.loads((directory / manifest_name).read_text())
    manifest["banks"] = [
        {"file": bank_file, "signature": document["signature"], "vantage": bank.vantage.name}
    ]
    (directory / manifest_name).write_text(json.dumps(manifest, indent=2))


def banked_run():
    """A validation run whose sample bank holds one probed alias pair."""
    registry = AsRegistry()
    registry.add(AutonomousSystem(asn=300, name="ISP", role=AsRole.ISP))
    router = Device(
        device_id="router",
        role=DeviceRole.CORE_ROUTER,
        home_asn=300,
        interfaces=[
            Interface(name=f"if{position}", address=address, asn=300)
            for position, address in enumerate(sorted(_ALIASES))
        ],
        ipid_counter=MonotonicIpidCounter(start=700, velocity=5.0, jitter=0),
    )
    run = ValidationRun(
        SimulatedInternet(registry=registry, devices=[router], seed=1, loss_rate=0.0)
    )
    run_validator(
        run,
        midar(),
        candidates=(_ALIASES,),
        start_time=0.0,
    )
    return run


def _names(directory, pattern):
    return sorted(path.name for path in directory.glob(pattern))


class ContentsCases:
    def test_former_settings_load_at_their_fixed_values(self, chain, checkpoint_dir, tmp_path):
        """A manifest written while the scenario's rates and coverages and
        the campaign's start time were settings holds each at the value
        now fixed, and loads."""
        copy = copy_checkpoint(checkpoint_dir, tmp_path / "former")
        manifest = json.loads((copy / chain.manifest).read_text())
        manifest["scenario"].update(FORMER_SCENARIO)
        manifest["campaign"]["start_time"] = 0.0
        (copy / chain.manifest).write_text(json.dumps(manifest))
        loaded, expected = chain.load(copy), chain.load(checkpoint_dir)
        assert (loaded.scenario, loaded.campaign) == (expected.scenario, expected.campaign)

    @pytest.mark.parametrize(
        "section, forge, key",
        [
            *(pytest.param("scenario", *case.values, id=case.id) for case in FORGED_SCENARIO_KEYS),
            pytest.param("campaign", _set("start_time", 5.0), "start_time", id="start-time-off"),
            pytest.param("campaign", _set("start_time", False), "start_time", id="start-time-false"),
            pytest.param("campaign", _set("start_time", True), "start_time", id="start-time-true"),
            pytest.param("campaign", _set("start_time", "x"), "start_time", id="start-time-string"),
            pytest.param(
                "campaign", _set("start_time", float("nan")), "start_time", id="start-time-nan"
            ),
            pytest.param(
                "campaign", _set("start_time", float("inf")), "start_time", id="start-time-inf"
            ),
            pytest.param(
                "campaign", _set("start_time", 10**400), "start_time", id="start-time-beyond-float"
            ),
            pytest.param("campaign", _delete("interval"), "interval", id="interval-missing"),
            pytest.param("campaign", _set("horizon", 4), "horizon", id="campaign-unknown-key"),
        ],
    )
    def test_forged_config_fails_naming_the_key(
        self, chain, checkpoint_dir, tmp_path, section, forge, key
    ):
        copy = copy_checkpoint(checkpoint_dir, tmp_path / "forged")
        manifest = json.loads((copy / chain.manifest).read_text())
        forge(manifest[section])
        (copy / chain.manifest).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match=rf"malformed .*: {section}\b.*{key}"):
            chain.load(copy)

    def test_missing_manifest_raises(self, chain, tmp_path):
        with pytest.raises(PersistError, match=chain.manifest):
            chain.load(tmp_path)

    def test_torn_checkpoint_detected(self, chain, checkpoint_dir, tmp_path):
        copy = copy_checkpoint(checkpoint_dir, tmp_path / "torn")
        manifest = json.loads((copy / chain.manifest).read_text())
        manifest["index_signature"] = "0" * 64
        (copy / chain.manifest).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="torn"):
            chain.load(copy)

    def test_pin_covers_step_file_contents(self, chain, checkpoint_dir, tmp_path):
        """An edited observation with the line count kept fails the pin:
        the index rebuilt from the step file is not the saved one."""
        copy = copy_checkpoint(checkpoint_dir, tmp_path / "tampered")
        manifest = json.loads((copy / chain.manifest).read_text())
        tamper_fingerprint(copy / manifest[f"last_{chain.step}_file"])
        with pytest.raises(PersistError, match="torn"):
            chain.load(copy)

    def test_manifest_is_a_relative_link(self, chain, checkpoint_dir):
        checkpoint = chain.load(checkpoint_dir)
        assert os.readlink(checkpoint_dir / chain.manifest) == generation_manifest(
            chain.manifest, checkpoint.completed
        )

    def test_copy_with_links_loads_on_its_own(self, chain, checkpoint_dir, tmp_path):
        """A copy made with its links loads after the original is gone."""
        original = copy_checkpoint(checkpoint_dir, tmp_path / "original")
        copy = tmp_path / "copy"
        shutil.copytree(original, copy, symlinks=True)
        shutil.rmtree(original)
        assert (copy / chain.manifest).is_symlink()
        loaded, expected = chain.load(copy), chain.load(checkpoint_dir)
        assert loaded.directory == copy
        assert loaded.completed == expected.completed
        assert loaded.last_observations == expected.last_observations

    def test_index_rebuilt_from_step_file(self, chain, checkpoint_dir):
        checkpoint = chain.load(checkpoint_dir)
        manifest = json.loads((checkpoint_dir / chain.manifest).read_text())
        assert state_signature_digest(checkpoint.index) == manifest["index_signature"]
        assert checkpoint.index.observed == len(checkpoint.last_observations)
        assert "index_file" not in manifest
        assert _names(checkpoint_dir, "index-*") == []

    def test_checkpoint_listing_banks_loads_and_resumes(
        self, chain, tmp_path, uninterrupted
    ):
        """A checkpoint whose manifest pins sample-bank files, as older
        builds wrote it, loads and resumes to the uninterrupted run."""
        directory = tmp_path / "banked"
        chain.run(directory, 2)
        plant_banks(directory, chain.manifest, 2)
        checkpoint = chain.load(directory)
        reference = chain.signatures(uninterrupted)
        assert chain.resume(checkpoint, len(reference)) == reference[checkpoint.completed :]


class ResumeCases:
    def test_corrupt_last_snapshot_raises_persist_error(
        self, chain, checkpoint_dir, tmp_path
    ):
        copy = copy_checkpoint(checkpoint_dir, tmp_path / "corrupt")
        manifest = json.loads((copy / chain.manifest).read_text())
        last = copy / manifest[f"last_{chain.step}_file"]
        last.write_text(last.read_text()[:-40])  # truncate mid-record
        with pytest.raises(PersistError):
            chain.load(copy)

    def test_crash_mid_save_keeps_previous_checkpoint(
        self, chain, checkpoint_dir, tmp_path, monkeypatch
    ):
        """Data files are versioned; a crash before the manifest replace
        leaves the previous checkpoint loadable."""
        copy = copy_checkpoint(checkpoint_dir, tmp_path / "crashy")
        before = chain.load(copy)
        crash_before_manifest(monkeypatch, chain.manifest)
        with pytest.raises(OSError, match="simulated crash"):
            chain.resume(before, before.completed + 1, directory=copy)
        after = chain.load(copy)  # old manifest + old data files intact
        assert after.completed == before.completed
        assert after.last_observations == before.last_observations

    @pytest.mark.parametrize("manifest", ["link", "older regular file"])
    def test_crash_at_every_replace_leaves_a_resumable_generation(
        self, chain, tmp_path, monkeypatch, uninterrupted, manifest
    ):
        """A save that dies at its k-th ``os.replace``, for every k, leaves
        the previous or the new generation loadable, and a resume from it
        matches the uninterrupted run, checkpointing over whatever the
        crash left.  The save starts from a manifest link, or from the
        regular manifest file older builds wrote."""
        reference = chain.signatures(uninterrupted)
        base = tmp_path / "base"
        chain.run(base, 2)
        if manifest == "older regular file":
            write_older_manifest(base, chain.manifest)

        def save_next_step(directory):
            chain.resume(chain.load(directory), 3, directory=directory)

        finished = copy_checkpoint(base, tmp_path / "finished")
        replaced = crash_at_replace(monkeypatch)
        save_next_step(finished)
        monkeypatch.undo()
        # The step file, then the generation's manifest, then the link.
        manifest_file = generation_manifest(chain.manifest, 3)
        assert replaced == [f"{chain.step}-0003.jsonl", manifest_file, chain.manifest]
        assert os.readlink(finished / chain.manifest) == manifest_file
        generations = {2: chain.load(base), 3: chain.load(finished)}
        for crash_at in range(1, len(replaced) + 1):
            directory = copy_checkpoint(base, tmp_path / f"crash-{crash_at}")
            crash_at_replace(monkeypatch, crash_at)
            with pytest.raises(SimulatedCrash):
                save_next_step(directory)
            monkeypatch.undo()
            loaded = chain.load(directory)
            generation = generations[loaded.completed]
            assert loaded.last_observations == generation.last_observations
            resumed = chain.resume(loaded, len(reference), directory=directory)
            assert resumed == reference[loaded.completed :]
            assert chain.load(directory).completed == len(reference)
            assert _names(directory, "*.tmp") == []

    @pytest.mark.parametrize("leftover", ["older manifest temp", "link temp"])
    def test_leftover_temp_does_not_break_the_next_save(self, chain, tmp_path, leftover):
        """A crashed save's temp: the torn ``<manifest>.tmp`` an older
        build's manifest write left, or a link temp that never replaced
        the manifest."""
        directory = tmp_path / "crashed"
        chain.run(directory, 2)
        temporary = directory / f"{chain.manifest}.tmp"
        if leftover == "older manifest temp":
            write_older_manifest(directory, chain.manifest)
            temporary.write_text((directory / chain.manifest).read_text()[:-40])
        else:
            os.symlink(generation_manifest(chain.manifest, 9), temporary)
        chain.resume(chain.load(directory), 3, directory=directory)
        assert os.readlink(directory / chain.manifest) == generation_manifest(chain.manifest, 3)
        assert chain.load(directory).completed == 3
        assert _names(directory, "*.tmp") == []


class RotationCases:
    def test_generation_manifests_rotate_with_their_step_files(self, chain, tmp_path):
        directory = tmp_path / "rotated"
        chain.run(directory, 3)
        assert _names(directory, f"{chain.step}-*.jsonl") == [f"{chain.step}-0003.jsonl"]
        assert _names(directory, f"{Path(chain.manifest).stem}-*.json") == [
            generation_manifest(chain.manifest, 3)
        ]
        assert os.readlink(directory / chain.manifest) == generation_manifest(chain.manifest, 3)
        assert "retained" not in json.loads((directory / chain.manifest).read_text())

    def test_older_two_generation_directory_loads_and_resumes(
        self, chain, tmp_path, uninterrupted
    ):
        """A directory an older build kept two generations in (``--keep
        2``): both generations' step files and manifests, and ``retained:
        [1, 2]`` in the manifest.  It loads the newest generation, resumes
        to the uninterrupted run's reports, and the first resumed save
        leaves only its own generation."""
        directory = tmp_path / "kept"
        chain.run(directory, 1)
        first = [f"{chain.step}-0001.jsonl", generation_manifest(chain.manifest, 1)]
        saved = {name: (directory / name).read_bytes() for name in first}
        chain.resume(chain.load(directory), 2, directory=directory)
        for name, data in saved.items():
            (directory / name).write_bytes(data)
        newest = directory / generation_manifest(chain.manifest, 2)
        manifest = json.loads(newest.read_text())
        manifest["retained"] = [1, 2]
        newest.write_text(json.dumps(manifest, indent=2))
        assert _names(directory, f"{chain.step}-*.jsonl") == [
            f"{chain.step}-0001.jsonl",
            f"{chain.step}-0002.jsonl",
        ]

        checkpoint = chain.load(directory)
        assert checkpoint.completed == 2
        reference = chain.signatures(uninterrupted)
        assert chain.resume(checkpoint, 3, directory=directory) == reference[2:3]
        assert _names(directory, f"{chain.step}-*.jsonl") == [f"{chain.step}-0003.jsonl"]
        assert _names(directory, f"{Path(chain.manifest).stem}-*.json") == [
            generation_manifest(chain.manifest, 3)
        ]
        resumed = chain.resume(chain.load(directory), len(reference), directory=directory)
        assert resumed == reference[3:]

    def test_bank_files_rotate_with_their_generation(self, chain, tmp_path):
        """Sample-bank files of older checkpoints are pruned with their
        generation; unnumbered ones (``bank-PPP.json``) are left alone."""
        directory = tmp_path / "banked"
        chain.run(directory, 2)
        plant_banks(directory, chain.manifest, 2)
        (directory / "bank-0001-000.json").write_text("{}")
        (directory / "bank-000.json").write_text("{}")
        chain.resume(chain.load(directory), 3, directory=directory)
        assert _names(directory, "bank-*.json") == ["bank-000.json"]
        manifest = json.loads((directory / chain.manifest).read_text())
        assert "banks" not in manifest

    def test_pruned_directory_still_resumes(self, chain, tmp_path, uninterrupted):
        directory = tmp_path / "rotated"
        chain.run(directory, 2)
        checkpoint = chain.load(directory)
        reference = chain.signatures(uninterrupted)
        resumed = chain.resume(checkpoint, len(reference))
        assert resumed == reference[checkpoint.completed :]

    def test_reused_directory_evicts_stale_higher_numbers(self, chain, tmp_path):
        # Leftovers of an older run must not outrank the fresh save.
        directory = tmp_path / "reused"
        directory.mkdir()
        (directory / "index-0005.json").write_text("{}")
        (directory / f"{chain.step}-0005.jsonl").write_text("")
        chain.run(directory, 2)
        assert _names(directory, "index-*") == []
        assert _names(directory, f"{chain.step}-*.jsonl") == [f"{chain.step}-0002.jsonl"]
        # The manifest references files that actually exist: resume works.
        assert chain.load(directory).completed == 2

    def test_older_index_files_ignored_then_pruned(self, chain, tmp_path):
        """Older checkpoints also stored an index snapshot per generation
        (``index-NNNN.json``, named by the manifest's ``index_file``).  They
        load without it, and the next save prunes it with its generation."""
        directory = tmp_path / "older"
        chain.run(directory, 2)
        manifest = json.loads((directory / chain.manifest).read_text())
        manifest["index_file"] = "index-0002.json"
        (directory / chain.manifest).write_text(json.dumps(manifest))
        (directory / "index-0002.json").write_text("not an index snapshot")
        checkpoint = chain.load(directory)
        chain.resume(checkpoint, 3, directory=directory)
        assert _names(directory, "index-*") == []
        assert chain.load(directory).completed == 3

    def test_foreign_files_left_alone(self, chain, tmp_path):
        directory = tmp_path / "rotated"
        directory.mkdir()
        keepsake = directory / "index-notes.json"
        keepsake.write_text("{}")
        chain.run(directory, 2)
        assert keepsake.exists()  # non-NNNN names are never pruned
