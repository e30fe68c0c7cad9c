"""Validation sample-bank persistence: signed documents, zero-probe reloads."""

import dataclasses
import json
import random
import shutil

import pytest

from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.cli import main
from repro.errors import PersistError, ValidationError
from repro.net.ipid import MonotonicIpidCounter, RandomIpidCounter
from repro.persist.bank import (
    BANK_FORMAT_VERSION,
    bank_document_text,
    bank_state_from_document,
    bank_state_signature,
    bank_state_to_document,
)
from repro.persist.files import spec_to_document
from repro.persist.session import SESSION_MANIFEST
from repro.persist.validation import validation_to_document
from repro.simnet.asn import AsRegistry, AsRole, AutonomousSystem
from repro.simnet.device import Device, DeviceRole, Interface
from repro.simnet.network import SimulatedInternet, VantagePoint
from repro.validation.bank import IpidSampleBank
from repro.validation.budget import DEFAULT_VELOCITY_TTL
from repro.validation.runner import VALIDATION_VANTAGE, ValidationRun, run_validator
from repro.validation.spec import midar, sample
from repro.validation.techniques import MidarPipeline

_CONFIG = ScenarioConfig(scale=0.05, seed=7)

TRUE_SET = frozenset({"10.7.1.1", "10.7.1.2", "10.7.1.3"})
FALSE_SET = frozenset({"10.7.1.1", "10.7.2.1"})


def build_network():
    registry = AsRegistry()
    registry.add(AutonomousSystem(asn=300, name="ISP", role=AsRole.ISP))
    devices = [
        Device(
            device_id="shared",
            role=DeviceRole.CORE_ROUTER,
            home_asn=300,
            interfaces=[
                Interface(name="a", address="10.7.1.1", asn=300),
                Interface(name="b", address="10.7.1.2", asn=300),
                Interface(name="c", address="10.7.1.3", asn=300),
            ],
            ipid_counter=MonotonicIpidCounter(start=700, velocity=5.0, jitter=0),
        ),
        Device(
            device_id="other",
            role=DeviceRole.CORE_ROUTER,
            home_asn=300,
            interfaces=[Interface(name="a", address="10.7.2.1", asn=300)],
            ipid_counter=MonotonicIpidCounter(start=20000, velocity=5.0, jitter=0),
        ),
        Device(
            device_id="random",
            role=DeviceRole.SERVER,
            home_asn=300,
            interfaces=[Interface(name="a", address="10.7.3.1", asn=300)],
            ipid_counter=RandomIpidCounter(rng=random.Random(3)),
        ),
    ]
    return SimulatedInternet(registry=registry, devices=devices, seed=1, loss_rate=0.0)


def _warm_run():
    """A validation run whose bank holds series, pairs and estimation keys."""
    run = ValidationRun(build_network())
    run_validator(
        run,
        midar(),
        candidates=(TRUE_SET, FALSE_SET),
        start_time=0.0,
    )
    return run


def _count_probes(network):
    counter = {"probes": 0}
    original = network.sample_ipid

    def counting(address, vantage, now=0.0):
        counter["probes"] += 1
        return original(address, vantage, now=now)

    network.sample_ipid = counting
    return counter


class TestBankDocuments:
    def test_round_trip_through_json(self):
        run = _warm_run()
        (bank,) = run.banks().values()
        state = bank.export_state()
        document = json.loads(json.dumps(bank_state_to_document(state)))
        assert document["version"] == BANK_FORMAT_VERSION
        assert bank_state_from_document(document) == state

    def test_document_text_is_the_signed_document(self):
        (bank,) = _warm_run().banks().values()
        state = bank.export_state()
        text, signature = bank_document_text(state)
        assert json.loads(text) == {
            "version": BANK_FORMAT_VERSION,
            "state": state,
            "signature": bank_state_signature(state),
        }
        assert json.loads(text) == bank_state_to_document(state)
        assert signature == bank_state_signature(state)
        assert bank_state_from_document(json.loads(text)) == state

    def test_restored_bank_answers_offline(self):
        run = _warm_run()
        (bank,) = run.banks().values()
        document = json.loads(json.dumps(bank_state_to_document(bank.export_state())))
        fresh_network = build_network()
        counter = _count_probes(fresh_network)
        restored = IpidSampleBank.from_state(bank_state_from_document(document)).bind(
            fresh_network
        )
        assert restored.probes_issued == bank.probes_issued
        pair = sorted(TRUE_SET)[:2]
        assert (
            restored.cached_interleaved(
                pair[0], pair[1], requested_probes=6, now=0.0, max_age=DEFAULT_VELOCITY_TTL
            )
            is not None
        )
        assert counter["probes"] == 0

    def test_restored_bank_gets_its_network_at_the_first_miss(self):
        run = _warm_run()
        (bank,) = run.banks().values()
        state = bank_state_from_document(
            json.loads(json.dumps(bank_state_to_document(bank.export_state())))
        )
        address = sorted(TRUE_SET)[0]

        def miss(bank, start_time):
            # No banked estimation of this schedule shape lies within the
            # staleness bound of ``start_time``, so the read probes.
            bank.estimation_series(
                address, 2, 1.0, start_time, max_age=DEFAULT_VELOCITY_TTL, early_stop=(3, 2_000.0)
            )

        with pytest.raises(ValidationError, match="bound to no network"):
            miss(IpidSampleBank.from_state(state), 5000.0)
        built = []

        def connect():
            built.append(build_network())
            return built[-1]

        restored = IpidSampleBank.from_state(state).bind(connect)
        pair = sorted(TRUE_SET)[:2]
        assert restored.cached_interleaved(
            pair[0], pair[1], requested_probes=6, now=0.0, max_age=DEFAULT_VELOCITY_TTL
        )
        assert built == []
        miss(restored, 5000.0)
        miss(restored, 5000.0 + 2 * DEFAULT_VELOCITY_TTL)
        assert len(built) == 1
        assert restored.probes_issued == bank.probes_issued + 4

    def test_tampered_state_fails_signature(self):
        run = _warm_run()
        (bank,) = run.banks().values()
        document = bank_state_to_document(bank.export_state())
        document["state"]["probes_issued"] += 1
        with pytest.raises(PersistError, match="signature"):
            bank_state_from_document(document)

    def test_unsupported_version_rejected(self):
        run = _warm_run()
        (bank,) = run.banks().values()
        document = bank_state_to_document(bank.export_state())
        document["version"] = BANK_FORMAT_VERSION + 1
        with pytest.raises(PersistError, match="version"):
            bank_state_from_document(document)

    def test_malformed_documents_rejected(self):
        with pytest.raises(PersistError, match="malformed"):
            bank_state_from_document({"version": BANK_FORMAT_VERSION})
        with pytest.raises(PersistError, match="not an object"):
            bank_state_from_document(
                {"version": BANK_FORMAT_VERSION, "state": 3, "signature": "x"}
            )
        with pytest.raises(PersistError, match="lacks"):
            bank_state_from_document(
                {
                    "version": BANK_FORMAT_VERSION,
                    "state": {"vantage": {}},
                    "signature": bank_state_signature({"vantage": {}}),
                }
            )

    def test_signature_is_canonical_over_key_order(self):
        state = {"b": 1, "a": {"y": 2, "x": 3}}
        reordered = {"a": {"x": 3, "y": 2}, "b": 1}
        assert bank_state_signature(state) == bank_state_signature(reordered)


@pytest.fixture(scope="module")
def saved_session(tmp_path_factory):
    """A session that validated once, then saved — banks and all."""
    session = ReproSession(_CONFIG)
    result = session.validate_budgeted(["midar"])
    directory = tmp_path_factory.mktemp("bank-session") / "saved"
    session.save(directory)
    return session, result, directory


def _resigned_copy(saved_session, tmp_path, mutate):
    """Copy a saved session, edit its first bank state, and re-sign both pins.

    The document signature and the manifest pin are recomputed, so only the
    state's own shape checks stand between the edit and a loaded session.
    """
    _, _, directory = saved_session
    copy = tmp_path / "resigned"
    shutil.copytree(directory, copy)
    manifest = json.loads((copy / SESSION_MANIFEST).read_text())
    entry = manifest["banks"][0]
    document = json.loads((copy / entry["file"]).read_text())
    mutate(document["state"])
    document["signature"] = entry["signature"] = bank_state_signature(document["state"])
    (copy / entry["file"]).write_text(json.dumps(document))
    (copy / SESSION_MANIFEST).write_text(json.dumps(manifest))
    return copy


def _drop_series_points(state):
    del state["series"][0]["points"]


def _dangle_pair_position(state):
    state["pairs"][0][2] = len(state["interleaved"])


def _negative_pair_position(state):
    state["pairs"][0][2] = -1


def _interval_not_a_number(state):
    state["series"][0]["interval"] = "nan"


def _interval_not_finite(state):
    state["series"][0]["interval"] = float("nan")


def _timestamp_not_finite(state):
    next(entry for entry in state["series"] if entry["points"])["points"][0][0] = float("inf")


def _estimation_names_no_series(state):
    state["estimation"][0][3] += 1.0


def _interleaved_points_not_object(state):
    state["interleaved"][0]["points"] = []


def _probe_count_not_int(state):
    state["probes_issued"] = "many"


def _series_not_list(state):
    state["series"] = 3


class TestSessionBankRoundTrip:
    def test_bank_file_text_parses_to_the_document(self, tmp_path):
        # The save encodes the state once: the file's ``state`` is the
        # canonical text its signature hashes, and the reader is unchanged.
        session = ReproSession(_CONFIG)
        session.validate_budgeted(["midar"])
        session.save(tmp_path / "saved")
        (state,) = session.validation_bank_states()
        (entry,) = json.loads((tmp_path / "saved" / SESSION_MANIFEST).read_text())["banks"]
        text = (tmp_path / "saved" / entry["file"]).read_text()
        assert json.loads(text) == bank_state_to_document(state)
        assert text == bank_document_text(state)[0]
        assert json.dumps(state, sort_keys=True, separators=(",", ":")) in text
        assert entry["signature"] == bank_state_signature(state)
        assert bank_state_from_document(json.loads(text)) == state

    def test_manifest_carries_banks(self, saved_session):
        _, _, directory = saved_session
        manifest = json.loads((directory / SESSION_MANIFEST).read_text())
        assert manifest["banks"], "no bank documents were saved"
        for entry in manifest["banks"]:
            assert (directory / entry["file"]).exists()

    def test_reload_rescores_with_zero_probes(self, saved_session):
        _, result, directory = saved_session
        loaded = ReproSession.load(directory)
        counter = _count_probes(loaded.network)
        reloaded = loaded.validate_budgeted(["midar"])
        assert counter["probes"] == 0, "a reloaded session re-probed banked schedules"
        (before,) = result.reports
        (after,) = reloaded.reports
        assert [
            (v.candidate, v.testable, v.agrees, v.partition) for v in before.verdicts
        ] == [(v.candidate, v.testable, v.agrees, v.partition) for v in after.verdicts]

    def test_bank_pin_mismatch_detected(self, saved_session, tmp_path):
        _, _, directory = saved_session
        copy = tmp_path / "torn"
        copy.mkdir()
        for path in directory.rglob("*"):
            target = copy / path.relative_to(directory)
            if path.is_dir():
                target.mkdir(parents=True, exist_ok=True)
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(path.read_bytes())
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        manifest["banks"][0]["signature"] = "0" * 64
        (copy / SESSION_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="torn mid-save"):
            ReproSession.load(copy)

    @pytest.mark.parametrize("key", ["pairs", "estimation"])
    def test_resigned_state_missing_key_rejected_on_load(self, saved_session, tmp_path, key):
        copy = _resigned_copy(saved_session, tmp_path, lambda state: state.pop(key))
        with pytest.raises(PersistError, match="lacks"):
            ReproSession.load(copy)

    @pytest.mark.parametrize(
        "mutate",
        [
            _drop_series_points,
            _dangle_pair_position,
            _negative_pair_position,
            _interleaved_points_not_object,
            _probe_count_not_int,
            _series_not_list,
            _interval_not_a_number,
            _interval_not_finite,
            _timestamp_not_finite,
            _estimation_names_no_series,
        ],
    )
    def test_resigned_malformed_entry_raises_persist_error(
        self, saved_session, tmp_path, mutate, capsys
    ):
        # Banks are parsed at load, so a forged state fails there, typed,
        # and not at the first validation.
        copy = _resigned_copy(saved_session, tmp_path, mutate)
        with pytest.raises(PersistError, match="malformed bank state"):
            ReproSession.load(copy)
        assert main(["session", "load", str(copy)]) == 2
        assert "malformed bank state" in capsys.readouterr().err

    def test_load_parses_banks_without_building_the_topology(
        self, saved_session, monkeypatch
    ):
        _, _, directory = saved_session

        def refuse(config):
            raise AssertionError("loading a session built the topology")

        monkeypatch.setattr("repro.api.session.generate_topology", refuse)
        loaded = ReproSession.load(directory)
        assert loaded.validation_bank_states()

    def test_resave_numbers_every_data_file_by_generation(self, saved_session, tmp_path):
        """A re-save writes its validations and banks under the next
        generation too, and prunes the previous save's files after the
        manifest lands."""
        _, _, directory = saved_session
        copy = shutil.copytree(directory, tmp_path / "resaved")
        loaded = ReproSession.load(copy)
        loaded.validate("midar")
        loaded.save(copy)
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        named = {
            entry["file"]
            for key in ("datasets", "validations", "banks")
            for entry in manifest[key]
            if "file" in entry
        }
        assert {name.split("/")[0] for name in named} == {"datasets", "validations", "banks"}
        assert manifest["reports"] and all("file" not in entry for entry in manifest["reports"])
        assert all(name.split("/")[1].startswith("0002-") for name in named)
        assert {path.relative_to(copy).as_posix() for path in copy.glob("*/*")} == named
        assert ReproSession.load(copy).validation_bank_states() == (
            loaded.validation_bank_states()
        )

    def test_manifest_without_banks_still_loads(self, saved_session, tmp_path):
        # Back-compat: sessions saved before bank persistence existed.
        _, _, directory = saved_session
        copy = tmp_path / "old-format"
        copy.mkdir()
        for path in directory.rglob("*"):
            target = copy / path.relative_to(directory)
            if path.is_dir():
                target.mkdir(parents=True, exist_ok=True)
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(path.read_bytes())
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        del manifest["banks"]
        (copy / SESSION_MANIFEST).write_text(json.dumps(manifest))
        loaded = ReproSession.load(copy)
        assert loaded.validation_bank_states() == []


#: A vantage only a validator spec override could probe from.
_OTHER_VANTAGE = VantagePoint(name="vantage-2", address="192.0.2.9")

#: The Table 2 MIDAR composition with that override, as earlier builds ran it.
_OVERRIDE_SPEC = sample(
    midar(
        source="active",
        protocol="ssh",
        family="ipv4",
        start_after="active-ipv6",
        vantage_name=_OTHER_VANTAGE.name,
        vantage_address=_OTHER_VANTAGE.address,
    ),
    size=150,
    seed=7,
    max_size=10,
)


@pytest.fixture(scope="module")
def two_vantage_session(tmp_path_factory):
    """A session directory as earlier builds saved one after validating from
    two vantages: ``midar`` from the validation vantage, then the same sets
    from another vantage under :data:`_OVERRIDE_SPEC`, each with its bank.
    The other vantage's bank is listed first."""
    session = ReproSession(_CONFIG)
    report = session.validate("midar")
    directory = tmp_path_factory.mktemp("two-vantage") / "saved"
    session.save(directory)
    (bank,) = session.validation_run.banks().values()
    other = IpidSampleBank(session.network, _OTHER_VANTAGE)
    MidarPipeline(other).verify_sets(
        [verdict.candidate for verdict in report.verdicts], start_time=report.started_at
    )
    manifest = json.loads((directory / SESSION_MANIFEST).read_text())
    validation = validation_to_document(
        dataclasses.replace(report, validator="sample", spec=_OVERRIDE_SPEC)
    )
    (directory / "validations/0001-001.json").write_text(json.dumps(validation))
    manifest["validations"].append(
        {
            "spec": spec_to_document(_OVERRIDE_SPEC),
            "name": "midar-vantage-2",
            "file": "validations/0001-001.json",
            "signature": validation["signature"],
        }
    )
    other_bank = bank_state_to_document(other.export_state())
    (directory / "banks/0001-001.json").write_text(json.dumps(other_bank))
    manifest["banks"].insert(
        0,
        {
            "file": "banks/0001-001.json",
            "signature": other_bank["signature"],
            "vantage": _OTHER_VANTAGE.name,
        },
    )
    (directory / SESSION_MANIFEST).write_text(json.dumps(manifest, indent=2))
    return directory, bank.probes_issued


class TestOtherVantageBank:
    """Validation probes from one vantage; a saved bank of another loads
    past, unrestored, and the next save drops it."""

    def test_loads_and_lists_both_validations(self, two_vantage_session, capsys):
        directory, _ = two_vantage_session
        loaded = ReproSession.load(directory)
        assert [name for _, name in loaded.cached_validations()] == ["midar", "midar-vantage-2"]
        assert main(["session", "load", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "validation midar:" in out
        assert "validation midar-vantage-2:" in out

    def test_restores_only_the_validation_vantage_bank(self, two_vantage_session):
        directory, issued = two_vantage_session
        banks = ReproSession.load(directory).validation_run.banks()
        assert list(banks) == [VALIDATION_VANTAGE]
        assert banks[VALIDATION_VANTAGE].probes_issued == issued

    def test_budgeted_rescore_spends_no_fresh_probes(self, two_vantage_session, monkeypatch):
        directory, issued = two_vantage_session
        loaded = ReproSession.load(directory)

        def refuse(config):
            raise AssertionError("re-scoring from the restored bank built the topology")

        monkeypatch.setattr("repro.api.session.generate_topology", refuse)
        result = loaded.validate_budgeted(["midar"])
        assert result.spent == 0
        assert [bank.probes_issued for bank in loaded.validation_run.banks().values()] == [issued]

    def test_rerunning_the_override_raises(self, two_vantage_session):
        loaded = ReproSession.load(two_vantage_session[0])
        with pytest.raises(ValidationError, match="'vantage_address', 'vantage_name'"):
            loaded.validate(_OVERRIDE_SPEC)

    def test_resave_writes_one_bank_file(self, two_vantage_session, tmp_path):
        copy = shutil.copytree(two_vantage_session[0], tmp_path / "resaved")
        ReproSession.load(copy).save(copy)
        manifest = json.loads((copy / SESSION_MANIFEST).read_text())
        assert [entry["vantage"] for entry in manifest["banks"]] == [VALIDATION_VANTAGE.name]
        assert [path.name for path in (copy / "banks").iterdir()] == ["0002-000.json"]
        assert len(manifest["validations"]) == 2


def test_run_refuses_a_bank_of_another_vantage():
    run = ValidationRun(build_network())
    with pytest.raises(ValidationError, match="vantage-2"):
        run.restore_bank(IpidSampleBank(None, _OTHER_VANTAGE))
    assert run.banks() == {}
