"""Tests for validation-report persistence (documents and session round-trips)."""

import dataclasses
import json
import math

import pytest

from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.cli import main
from repro.errors import PersistError, RegistryError
from repro.persist.files import spec_to_document
from repro.persist.validation import (
    validation_from_document,
    validation_signature_digest,
    validation_to_document,
    validator_spec_from_document,
)
from repro.validation.report import SetVerdict, ValidationReport
from repro.validation.spec import ValidatorSpec, midar, sample


def _report():
    spec = sample(midar(protocol="ssh"), size=2, seed=1, max_size=10)
    verdicts = (
        SetVerdict(
            candidate=frozenset({"10.0.1.1", "10.0.1.2"}),
            testable=True,
            agrees=True,
            partition=(frozenset({"10.0.1.1", "10.0.1.2"}),),
            classes=(("10.0.1.1", "usable"), ("10.0.1.2", "usable")),
            started_at=10.0,
            finished_at=70.0,
        ),
        SetVerdict(
            candidate=frozenset({"10.0.4.1", "10.0.4.2"}),
            testable=False,
            agrees=False,
            partition=(),
            classes=(("10.0.4.1", "non_monotonic"), ("10.0.4.2", "non_monotonic")),
            started_at=70.0,
            finished_at=102.0,
        ),
    )
    return ValidationReport(
        validator="midar",
        spec=spec,
        candidates=2,
        verdicts=verdicts,
        probes_issued=64,
        probes_reused=12,
        started_at=10.0,
        finished_at=102.0,
    )


class TestValidatorSpecDocuments:
    def test_round_trip(self):
        spec = sample(midar(protocol="ssh", start_after="active-ipv6"), size=5, seed=2)
        assert validator_spec_from_document(spec_to_document(spec)) == spec

    def test_malformed_document_raises(self):
        with pytest.raises(PersistError, match="malformed validator spec"):
            validator_spec_from_document({"params": []})


class TestValidationDocuments:
    def test_round_trip_is_equal(self):
        report = _report()
        restored = validation_from_document(validation_to_document(report))
        assert restored == report

    def test_signature_stable_across_round_trip(self):
        report = _report()
        document = validation_to_document(report)
        assert document["signature"] == validation_signature_digest(report)
        # JSON-serialise and parse back, as the session store does.
        reparsed = json.loads(json.dumps(document))
        assert validation_from_document(reparsed) == report

    def test_tampered_verdict_fails_signature(self):
        document = validation_to_document(_report())
        document["verdicts"][0]["agrees"] = False
        with pytest.raises(PersistError, match="signature parity"):
            validation_from_document(document)

    def test_unsupported_version_rejected(self):
        document = validation_to_document(_report())
        document["version"] = 99
        with pytest.raises(PersistError, match="unsupported validation document"):
            validation_from_document(document)

    def test_malformed_document_raises(self):
        with pytest.raises(PersistError, match="malformed validation document"):
            validation_from_document({"version": 1, "validator": "midar"})


class TestSessionValidationRoundTrip:
    def test_save_load_primes_validation_cache(self, tmp_path):
        session = ReproSession(ScenarioConfig(scale=0.05, seed=3))
        live = session.validate("midar")
        session.save(tmp_path / "session")

        restored = ReproSession.load(tmp_path / "session")
        assert restored.cached_validations() == session.cached_validations()
        # The restored report is served from the cache, not re-probed.
        assert restored.validate("midar") == live

    def test_torn_validation_file_detected(self, tmp_path):
        session = ReproSession(ScenarioConfig(scale=0.05, seed=3))
        session.validate("midar")
        directory = tmp_path / "session"
        session.save(directory)
        manifest = json.loads((directory / "session.json").read_text())
        (entry,) = manifest["validations"]
        target = directory / entry["file"]
        document = json.loads(target.read_text())
        document["signature"] = "0" * 64
        target.write_text(json.dumps(document))
        with pytest.raises(PersistError, match="does not match the session manifest"):
            ReproSession.load(directory)

    def test_resigned_validator_not_a_string_fails_the_load(self, tmp_path, capsys):
        # The document and the manifest pin are re-signed over the forged
        # report, so only the reader's type check stands in the way.
        session = ReproSession(ScenarioConfig(scale=0.05, seed=3))
        live = session.validate("midar")
        directory = tmp_path / "session"
        session.save(directory)
        manifest = json.loads((directory / "session.json").read_text())
        (entry,) = manifest["validations"]
        document = validation_to_document(dataclasses.replace(live, validator=[1]))
        (directory / entry["file"]).write_text(json.dumps(document))
        entry["signature"] = document["signature"]
        (directory / "session.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="is not a string"):
            ReproSession.load(directory)
        assert main(["session", "load", str(directory)]) == 2
        assert "is not a string" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("verdict", "field", "forged", "coerced"),
        [
            (True, "candidate", [1, 2], frozenset({1, 2})),
            (True, "candidate", "10.0.1.1", frozenset("10.0.1.1")),
            (True, "testable", "no", True),
            (True, "agrees", 1, True),
            (True, "partition", [[7]], (frozenset({7}),)),
            (True, "partition", ["10.0.1.1"], (frozenset("10.0.1.1"),)),
            (True, "classes", [["10.0.1.1", 5]], (("10.0.1.1", 5),)),
            (True, "started_at", "nan", math.nan),
            (True, "finished_at", math.inf, math.inf),
            (False, "started_at", True, 1.0),
            (False, "candidates", True, 1),
            (False, "probes_issued", -1, -1),
            (False, "probes_reused", 2.5, 2),
        ],
        ids=[
            "candidate-numbers",
            "candidate-a-string",
            "testable-a-string",
            "agrees-an-integer",
            "partition-numbers",
            "partition-group-a-string",
            "class-label-a-number",
            "verdict-start-nan-string",
            "verdict-finish-infinite",
            "report-start-a-boolean",
            "candidates-a-boolean",
            "probes-issued-negative",
            "probes-reused-a-fraction",
        ],
    )
    def test_resigned_value_of_the_wrong_type_fails_the_load(
        self, tmp_path, capsys, verdict, field, forged, coerced
    ):
        # The forged JSON value is signed as the report a coercing reader
        # (``bool``, ``int``, ``float``, ``frozenset``) would rebuild from
        # it, and the manifest pin re-signed, so only the reader's type
        # checks stand in the way.
        session = ReproSession(ScenarioConfig(scale=0.05, seed=3))
        live = session.validate("midar")
        directory = tmp_path / "session"
        session.save(directory)
        manifest = json.loads((directory / "session.json").read_text())
        (entry,) = manifest["validations"]
        if verdict:
            first = dataclasses.replace(live.verdicts[0], **{field: coerced})
            document = validation_to_document(
                dataclasses.replace(live, verdicts=(first, *live.verdicts[1:]))
            )
            document["verdicts"][0][field] = forged
        else:
            document = validation_to_document(dataclasses.replace(live, **{field: coerced}))
            document[field] = forged
        (directory / entry["file"]).write_text(json.dumps(document))
        entry["signature"] = document["signature"]
        (directory / "session.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="malformed validation document"):
            ReproSession.load(directory)
        assert main(["session", "load", str(directory)]) == 2
        assert "malformed validation document" in capsys.readouterr().err

    def test_pre_validation_sessions_still_load(self, tmp_path):
        session = ReproSession(ScenarioConfig(scale=0.05, seed=3))
        session.report("active")
        directory = tmp_path / "session"
        session.save(directory)
        manifest = json.loads((directory / "session.json").read_text())
        del manifest["validations"]  # what an older build would have written
        (directory / "session.json").write_text(json.dumps(manifest))
        restored = ReproSession.load(directory)
        assert restored.cached_validations() == {}
        assert len(restored.cached_reports()) == 1

    def test_saved_report_of_an_unregistered_kind_loads_but_does_not_rerun(
        self, tmp_path, capsys
    ):
        # A validation document names its spec, not a registered builder,
        # so a session holding a report of a kind this build does not
        # register (here ``iffinder``) still loads and lists it; re-running
        # the spec needs the builder and fails as an unknown kind.
        leaf = ValidatorSpec.create("iffinder", source="active", protocol="ssh", family="ipv4")
        spec = sample(leaf, size=150, seed=7, max_size=10)
        members = frozenset({"10.0.1.1", "10.0.1.2"})
        report = ValidationReport(
            validator="iffinder",
            spec=spec,
            candidates=1,
            verdicts=(
                SetVerdict(
                    candidate=members,
                    testable=True,
                    agrees=True,
                    partition=(members,),
                    started_at=0.0,
                    finished_at=0.002,
                ),
            ),
            probes_issued=2,
            probes_reused=0,
            started_at=0.0,
            finished_at=0.002,
        )
        session = ReproSession(ScenarioConfig(scale=0.05, seed=3))
        session.report("active")
        session.prime_validation(spec, "iffinder", report)
        directory = tmp_path / "session"
        session.save(directory)

        assert main(["session", "load", str(directory)]) == 0
        assert "validation iffinder: 1/1 testable, 1 agree" in capsys.readouterr().out
        restored = ReproSession.load(directory)
        assert restored.cached_validations() == {(spec, "iffinder"): report}
        with pytest.raises(RegistryError, match="unknown validator kind 'iffinder'"):
            restored.validate(spec)
        assert main(["validate", "--validators", "iffinder"]) == 2
        assert "unknown validator 'iffinder'" in capsys.readouterr().err
