"""Tests for the command-line interface."""

import argparse
import json
import re
import shutil
from pathlib import Path

import pytest

from repro.api import ReproSession, ScenarioConfig
from repro.cli import build_parser, main


def _set_manifest_scale(manifest_path, section, scale):
    """Rewrite the scenario scale a saved manifest records."""
    manifest = json.loads(manifest_path.read_text())
    manifest[section]["scale"] = scale
    manifest_path.write_text(json.dumps(manifest))


def _forge_manifest(manifest_path, forge):
    """Apply ``forge`` to a saved manifest, in place."""
    manifest = json.loads(manifest_path.read_text())
    forge(manifest)
    manifest_path.write_text(json.dumps(manifest))


def _forge_probe_count(column, value):
    """A manifest edit setting one cell of the first IDS probe-counter row."""

    def forge(manifest):
        manifest["probe_counts"][0][column] = value(manifest["probe_counts"][0][column])

    return forge


def _forge_event_count(value):
    """A manifest edit setting the published-report count."""

    def forge(manifest):
        manifest["event_counts"]["report.emitted"] = value

    return forge


def _forge_vantage(field, value):
    """A manifest edit setting one field of the vantage point."""

    def forge(manifest):
        manifest["vantage"][field] = value

    return forge


#: A checkpoint manifest value of the wrong JSON type or out of range, and
#: the field the refusal names.  Each once resumed, coerced: ``"no"`` as
#: true, 2.5 as 2, a negative count as itself; a vantage name of 5 failed
#: with a ``TypeError`` traceback instead.
_FORGED_CHAIN_FIELDS = [
    pytest.param(
        lambda manifest: manifest["options"].update(ssh_include_banner="no"),
        "identifier options",
        id="option-string",
    ),
    pytest.param(
        lambda manifest: manifest.update(include_ipv6="no"), "include_ipv6", id="include-ipv6-string"
    ),
    pytest.param(lambda manifest: manifest.update(completed=2.5), "completed", id="completed-float"),
    pytest.param(
        lambda manifest: manifest.update(observations=float(manifest["observations"])),
        "observations",
        id="observations-float",
    ),
    pytest.param(_forge_probe_count(3, lambda count: 34.5), "probe_counts", id="probe-count-float"),
    pytest.param(_forge_probe_count(3, str), "probe_counts", id="probe-count-string"),
    pytest.param(_forge_probe_count(3, lambda count: True), "probe_counts", id="probe-count-boolean"),
    pytest.param(_forge_probe_count(3, lambda count: -5), "probe_counts", id="probe-count-negative"),
    pytest.param(_forge_probe_count(1, float), "probe_counts", id="probe-asn-float"),
    pytest.param(_forge_probe_count(0, lambda name: 7), "probe_counts", id="probe-vantage-integer"),
    pytest.param(_forge_event_count(2.5), "event_counts", id="event-count-float"),
    pytest.param(_forge_event_count("2"), "event_counts", id="event-count-string"),
    pytest.param(_forge_event_count(True), "event_counts", id="event-count-boolean"),
    pytest.param(_forge_event_count(-3), "event_counts", id="event-count-negative"),
    pytest.param(_forge_vantage("name", 5), "vantage name", id="vantage-name-integer"),
    pytest.param(_forge_vantage("address", [1]), "vantage address", id="vantage-address-list"),
    pytest.param(
        _forge_vantage("distributed", "no"), "vantage distributed", id="vantage-distributed-string"
    ),
]

#: A scenario config value of the wrong JSON type or out of range, read
#: from a session or checkpoint manifest.  A string or boolean seed once
#: regenerated another topology and a loss rate of 2.0 loaded as is; a
#: string loss rate crashed with a ``TypeError`` traceback once the
#: network was built.
_FORGED_SCENARIO_FIELDS = [
    pytest.param("seed", "3", id="seed-string"),
    pytest.param("seed", True, id="seed-boolean"),
    pytest.param("loss_rate", "x", id="loss-rate-string"),
    pytest.param("loss_rate", 2.0, id="loss-rate-above-one"),
]


#: A session manifest's first dataset entry with one field of the wrong JSON
#: type.  Each once failed without naming the field, or loaded: a float
#: count loaded, a string count failed as "holds 1424 observations,
#: manifest expects 1424", a numeric name as a torn save, a list file as a
#: missing file called "[1]", and a numeric digest as a changed file.
_FORGED_DATASET_ENTRIES = [
    pytest.param("count", float, id="count-float"),
    pytest.param("count", str, id="count-string"),
    pytest.param("name", lambda name: 5, id="name-integer"),
    pytest.param("file", lambda file: [1], id="file-list"),
    pytest.param("digest", lambda digest: 5, id="digest-integer"),
]


@pytest.fixture(scope="module")
def saved_session(tmp_path_factory):
    """A session saved at scale 0.05, seed 3, with the default reports."""
    directory = tmp_path_factory.mktemp("session") / "session"
    assert main(["session", "save", str(directory), "--scale", "0.05", "--seed", "3"]) == 0
    return directory


#: Forged ``campaign`` values of a campaign checkpoint, and the field each
#: refusal names.  Before ``LongitudinalConfig`` checked types, ``seed`` and
#: ``interval`` of ``true`` resumed with other churn, the snapshot counts
#: loaded, the wrongly typed rest failed mid-resume with a ``TypeError``,
#: and an integer too large for a float failed without naming its field.
_FORGED_CAMPAIGN_FIELDS = [
    pytest.param("seed", True, id="seed-boolean"),
    pytest.param("interval", True, id="interval-boolean"),
    pytest.param("seed", "3", id="seed-string"),
    pytest.param("seed", 3.0, id="seed-float"),
    pytest.param("start_time", "x", id="start-time-string"),
    pytest.param("snapshots", 2.5, id="snapshots-float"),
    pytest.param("snapshots", True, id="snapshots-boolean"),
    pytest.param("start_time", 10**400, id="start-time-beyond-float"),
    pytest.param("interval", 10**400, id="interval-beyond-float"),
]


@pytest.fixture(scope="module")
def campaign_checkpoint(tmp_path_factory):
    """A campaign checkpointed after two snapshots (scale 0.05, seed 3); copy it
    before editing."""
    checkpoint = tmp_path_factory.mktemp("campaign") / "checkpoint"
    assert main(
        ["longitudinal", "--scale", "0.05", "--seed", "3", "--snapshots", "2",
         "--checkpoint", str(checkpoint)]
    ) == 0
    return checkpoint


@pytest.fixture(scope="module")
def serve_checkpoint(tmp_path_factory):
    """A daemon checkpointed after two polls; copy it before editing."""
    return _serve_checkpoint(tmp_path_factory.mktemp("serve"))


class TestScanAndResolve:
    def test_scan_writes_datasets(self, tmp_path):
        exit_code = main(
            ["scan", "--scale", "0.1", "--seed", "3", "--output", str(tmp_path), "--sources", "active", "censys"]
        )
        assert exit_code == 0
        assert (tmp_path / "active.jsonl").exists()
        assert (tmp_path / "censys.jsonl").exists()
        header_line, first_line = (tmp_path / "active.jsonl").read_text().splitlines()[:2]
        assert json.loads(header_line)["name"] == "active"
        record = json.loads(first_line)
        assert {"address", "protocol", "fields"} <= set(record)

    def test_scan_then_resolve_roundtrip(self, tmp_path, capsys):
        scan_dir = tmp_path / "scan"
        out_dir = tmp_path / "resolved"
        assert main(["scan", "--scale", "0.1", "--seed", "3", "--output", str(scan_dir)]) == 0
        assert (
            main(
                [
                    "resolve",
                    str(scan_dir / "active.jsonl"),
                    str(scan_dir / "censys.jsonl"),
                    "--output",
                    str(out_dir),
                    "--name",
                    "cli-test",
                ]
            )
            == 0
        )
        assert (out_dir / "ipv4_alias_sets.json").exists()
        assert (out_dir / "ipv6_alias_sets.json").exists()
        report = (out_dir / "report.md").read_text()
        assert report.startswith("# Alias resolution report")
        captured = capsys.readouterr().out
        assert "dual-stack sets:" in captured

    def test_scan_active_only(self, tmp_path):
        assert main(["scan", "--scale", "0.1", "--output", str(tmp_path), "--sources", "active"]) == 0
        assert (tmp_path / "active.jsonl").exists()
        assert not (tmp_path / "censys.jsonl").exists()

    def test_scan_registry_source(self, tmp_path):
        # Any registered source name works, not just the two historical ones.
        assert main(["scan", "--scale", "0.1", "--output", str(tmp_path), "--sources", "union-ipv4"]) == 0
        assert (tmp_path / "union-ipv4.jsonl").exists()

    def test_resolve_stats_reports_build(self, tmp_path, capsys):
        scan_dir = tmp_path / "scan"
        assert main(["scan", "--scale", "0.1", "--seed", "3", "--output", str(scan_dir)]) == 0
        assert (
            main(
                [
                    "resolve",
                    str(scan_dir / "active.jsonl"),
                    "--output",
                    str(tmp_path / "out"),
                    "--stats",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "index build statistics:" in output
        assert "interned addresses:" in output
        assert "interned identifiers:" in output


class TestCliErrorPaths:
    def test_scan_unknown_source(self, tmp_path, capsys):
        exit_code = main(["scan", "--scale", "0.1", "--output", str(tmp_path), "--sources", "nonsense"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "unknown source 'nonsense'" in captured.err
        assert not (tmp_path / "nonsense.jsonl").exists()

    def test_scan_empty_sources(self, tmp_path, capsys):
        exit_code = main(["scan", "--scale", "0.1", "--output", str(tmp_path), "--sources"])
        assert exit_code == 2
        assert "no sources requested" in capsys.readouterr().err

    def test_scan_without_output(self, capsys):
        exit_code = main(["scan", "--scale", "0.1"])
        assert exit_code == 2
        assert "--output" in capsys.readouterr().err

    def test_experiments_unknown_name_message(self, capsys):
        exit_code = main(["experiments", "--scale", "0.1", "--only", "table99"])
        assert exit_code == 2
        assert "unknown experiment 'table99'" in capsys.readouterr().err

    def test_resolve_missing_dataset_exits_cleanly(self, tmp_path, capsys):
        exit_code = main(
            ["resolve", str(tmp_path / "absent.jsonl"), "--output", str(tmp_path / "o")]
        )
        assert exit_code == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("address", [167772161, "not-an-ip"])
    def test_resolve_bad_address_exits_cleanly(self, tmp_path, capsys, address):
        record = {
            "address": address, "protocol": "ssh", "source": "active", "port": 22,
            "fields": {"host_key_fingerprint": "SHA256:abc", "capability_signature": "c"},
        }
        sibling = {**record, "address": "10.0.0.2"}
        dataset = tmp_path / "bad.jsonl"
        dataset.write_text("".join(json.dumps(r) + "\n" for r in (record, sibling)))
        exit_code = main(["resolve", str(dataset), "--output", str(tmp_path / "o")])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert f"address {address!r} is not" in err
        assert "Traceback" not in err

    def test_resolve_directory_exits_cleanly(self, tmp_path, capsys):
        exit_code = main(["resolve", str(tmp_path), "--output", str(tmp_path / "o")])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert f"cannot read dataset file {tmp_path}" in err
        assert "Traceback" not in err

    def test_resolve_non_utf8_dataset_exits_cleanly(self, tmp_path, capsys):
        dataset = tmp_path / "binary.jsonl"
        record = {"address": "10.0.0.1", "protocol": "ssh", "source": "active", "port": 22}
        dataset.write_bytes(json.dumps(record).encode() + b"\n" + b'{"source": "\xff"}\n')
        exit_code = main(["resolve", str(dataset), "--output", str(tmp_path / "o")])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert f"{dataset}:2: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_longitudinal_rejects_zero_snapshots(self, capsys):
        exit_code = main(["longitudinal", "--scale", "0.05", "--snapshots", "0"])
        assert exit_code == 2
        assert "at least one snapshot" in capsys.readouterr().err


class TestRegistryListings:
    def test_scan_list_sources(self, capsys):
        exit_code = main(["scan", "--list-sources"])
        assert exit_code == 0
        output = capsys.readouterr().out
        for name in ("active", "censys", "union"):
            assert name in output
        assert "IPv6 hitlist" in output  # descriptions, not just names

    def test_experiments_list(self, capsys):
        exit_code = main(["experiments", "--list"])
        assert exit_code == 0
        output = capsys.readouterr().out
        for name in ("table1", "table6", "figure3", "figure6"):
            assert name in output
        assert "ECDF" in output  # descriptions, not just names


class TestExperimentsAndClaims:
    def test_experiments_subset(self, capsys):
        exit_code = main(["experiments", "--scale", "0.1", "--seed", "5", "--only", "table4", "figure5"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "=== table4" in output
        assert "=== figure5" in output
        assert "=== table1" not in output

    def test_experiments_unknown_name(self, capsys):
        exit_code = main(["experiments", "--scale", "0.1", "--only", "table99"])
        assert exit_code == 2

    def test_claims_runs_and_reports(self, capsys):
        exit_code = main(["claims", "--scale", "0.1", "--seed", "5"])
        output = capsys.readouterr().out
        assert "C1:" in output and "C9:" in output
        assert exit_code in (0, 1)


class TestLongitudinal:
    def test_longitudinal_prints_stability_tables(self, capsys, tmp_path):
        exit_code = main(
            [
                "longitudinal",
                "--scale", "0.05",
                "--seed", "3",
                "--snapshots", "2",
                "--churn", "0.05",
                "--output", str(tmp_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Longitudinal stability (IPv4 union" in output
        assert "Longitudinal stability (IPv6 union" in output
        assert "incrementally re-resolved 1 deltas" in output
        markdown = (tmp_path / "stability.md").read_text()
        assert markdown.startswith("# Longitudinal stability report")

    def test_longitudinal_ipv4_only(self, capsys):
        exit_code = main(
            ["longitudinal", "--scale", "0.05", "--snapshots", "2", "--ipv4-only"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "IPv6 union" not in output

    def test_longitudinal_checkpoint_then_resume(self, capsys, tmp_path):
        checkpoint = tmp_path / "checkpoint"
        base = ["longitudinal", "--scale", "0.05", "--seed", "3", "--churn", "0.05"]
        assert main(base + ["--snapshots", "2", "--checkpoint", str(checkpoint)]) == 0
        assert (checkpoint / "checkpoint.json").exists()
        capsys.readouterr()

        # Resume to 3 snapshots; the combined table covers all of them.
        exit_code = main(
            ["longitudinal", "--resume", str(checkpoint), "--snapshots", "3",
             "--output", str(tmp_path / "out")]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "resuming after snapshot 1 (2/3 snapshots completed)" in output
        assert "resumed 1 snapshots" in output
        assert "Longitudinal stability (IPv4 union, 3 snapshots" in output
        markdown = (tmp_path / "out" / "stability.md").read_text()
        assert markdown.startswith("# Longitudinal stability report")
        # The checkpoint advanced in place.
        assert json.loads((checkpoint / "checkpoint.json").read_text())["completed"] == 3

    def test_longitudinal_resume_missing_checkpoint(self, capsys, tmp_path):
        exit_code = main(["longitudinal", "--resume", str(tmp_path / "absent")])
        assert exit_code == 2
        assert "not a campaign checkpoint" in capsys.readouterr().err

    def test_longitudinal_resume_corrupt_snapshot_exits_cleanly(self, capsys, tmp_path):
        checkpoint = tmp_path / "checkpoint"
        assert main(
            ["longitudinal", "--scale", "0.05", "--snapshots", "2", "--ipv4-only",
             "--checkpoint", str(checkpoint)]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((checkpoint / "checkpoint.json").read_text())
        snapshot = checkpoint / manifest["last_snapshot_file"]
        snapshot.write_text(snapshot.read_text()[:-40])  # bit-rot / torn copy
        exit_code = main(["longitudinal", "--resume", str(checkpoint)])
        assert exit_code == 2
        assert capsys.readouterr().err.strip()

    def test_longitudinal_resume_malformed_scale_exits_cleanly(self, capsys, tmp_path):
        checkpoint = tmp_path / "checkpoint"
        assert main(
            ["longitudinal", "--scale", "0.05", "--snapshots", "2", "--ipv4-only",
             "--checkpoint", str(checkpoint)]
        ) == 0
        capsys.readouterr()
        _set_manifest_scale(checkpoint / "checkpoint.json", "scenario", "x")
        exit_code = main(["longitudinal", "--resume", str(checkpoint)])
        assert exit_code == 2
        assert "scale" in capsys.readouterr().err

    def test_longitudinal_resume_cannot_shrink(self, capsys, tmp_path):
        checkpoint = tmp_path / "checkpoint"
        assert main(
            ["longitudinal", "--scale", "0.05", "--snapshots", "2", "--ipv4-only",
             "--checkpoint", str(checkpoint)]
        ) == 0
        capsys.readouterr()
        exit_code = main(
            ["longitudinal", "--resume", str(checkpoint), "--snapshots", "1"]
        )
        assert exit_code == 2
        assert "already completed" in capsys.readouterr().err

    def test_longitudinal_resume_malformed_stability_exits_before_work(
        self, capsys, tmp_path
    ):
        checkpoint = _campaign_checkpoint(tmp_path)
        manifest = json.loads((checkpoint / "checkpoint.json").read_text())
        del manifest["stability"]["ipv4"][0]["snapshot"]
        (checkpoint / "checkpoint.json").write_text(json.dumps(manifest))
        before = _contents(checkpoint)
        exit_code = main(["longitudinal", "--resume", str(checkpoint), "--snapshots", "3"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "malformed campaign checkpoint manifest" in captured.err
        assert "Traceback" not in captured.err
        assert "resuming" not in captured.out
        assert _contents(checkpoint) == before

    @pytest.mark.parametrize(
        "family_row, field, forge",
        [
            pytest.param(0, "sets", lambda row: row.update(sets="x"), id="sets-string"),
            pytest.param(
                1, "persistence", lambda row: row.update(persistence="high"), id="persistence-string"
            ),
            pytest.param(0, "disrupted", lambda row: row.pop("disrupted"), id="missing-key"),
        ],
    )
    def test_longitudinal_resume_forged_stability_row_exits_cleanly(
        self, capsys, campaign_checkpoint, tmp_path, family_row, field, forge
    ):
        checkpoint = shutil.copytree(campaign_checkpoint, tmp_path / "checkpoint", symlinks=True)
        capsys.readouterr()
        _forge_manifest(
            checkpoint / "checkpoint.json",
            lambda manifest: forge(manifest["stability"]["ipv4"][family_row]),
        )
        exit_code = main(["longitudinal", "--resume", str(checkpoint), "--snapshots", "3"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert f"stability.ipv4[{family_row}]" in captured.err
        assert field in captured.err
        assert "Traceback" not in captured.err
        assert "resuming" not in captured.out

    def test_longitudinal_resume_nan_interval_exits_cleanly(self, capsys, tmp_path):
        checkpoint = _campaign_checkpoint(tmp_path)
        manifest = json.loads((checkpoint / "checkpoint.json").read_text())
        manifest["campaign"]["interval"] = float("nan")
        (checkpoint / "checkpoint.json").write_text(json.dumps(manifest))
        exit_code = main(["longitudinal", "--resume", str(checkpoint), "--snapshots", "3"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "interval must be positive and finite" in captured.err
        assert "resuming" not in captured.out

    def test_longitudinal_resume_tampered_snapshot_exits_cleanly(self, capsys, tmp_path):
        checkpoint = _campaign_checkpoint(tmp_path)
        _tamper_fingerprint(checkpoint / "snapshot-0002.jsonl")
        exit_code = main(["longitudinal", "--resume", str(checkpoint), "--snapshots", "3"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "torn" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("field, value", _FORGED_CAMPAIGN_FIELDS)
    def test_longitudinal_resume_forged_campaign_exits_cleanly(
        self, capsys, campaign_checkpoint, tmp_path, field, value
    ):
        checkpoint = shutil.copytree(campaign_checkpoint, tmp_path / "checkpoint", symlinks=True)
        capsys.readouterr()
        _forge_manifest(
            checkpoint / "checkpoint.json",
            lambda manifest: manifest["campaign"].update({field: value}),
        )
        exit_code = main(["longitudinal", "--resume", str(checkpoint), "--snapshots", "3"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "malformed campaign checkpoint manifest" in captured.err
        assert field in captured.err
        assert "Traceback" not in captured.err
        assert "resuming" not in captured.out

    @pytest.mark.parametrize("forge, field", _FORGED_CHAIN_FIELDS)
    def test_longitudinal_resume_forged_chain_field_exits_cleanly(
        self, capsys, tmp_path, forge, field
    ):
        checkpoint = _campaign_checkpoint(tmp_path)
        capsys.readouterr()
        _forge_manifest(checkpoint / "checkpoint.json", forge)
        exit_code = main(["longitudinal", "--resume", str(checkpoint), "--snapshots", "3"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "malformed campaign checkpoint manifest" in captured.err
        assert field in captured.err
        assert "Traceback" not in captured.err
        assert "resuming" not in captured.out


def _serve_checkpoint(tmp_path):
    """A daemon checkpointed after two polls (scale 0.05, seed 3)."""
    checkpoint = tmp_path / "stream"
    assert main(
        ["serve", "--scale", "0.05", "--seed", "3", "--max-batches", "2",
         "--ipv4-only", "--checkpoint", str(checkpoint)]
    ) == 0
    return checkpoint


def _campaign_checkpoint(tmp_path):
    """A campaign checkpointed after two snapshots (scale 0.05, seed 7)."""
    checkpoint = tmp_path / "checkpoint"
    assert main(
        ["longitudinal", "--scale", "0.05", "--seed", "7", "--snapshots", "2",
         "--checkpoint", str(checkpoint)]
    ) == 0
    return checkpoint


def _contents(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def _tamper_fingerprint(path):
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


class TestValidate:
    def test_list_validators(self, capsys):
        exit_code = main(["validate", "--list-validators"])
        assert exit_code == 0
        output = capsys.readouterr().out
        names = [line.split()[0] for line in output.splitlines()]
        assert sorted(names) == ["ally", "midar", "speedtrap"]
        assert "Table 2" in output  # descriptions, not just names

    def test_unknown_validator_exits_2(self, capsys):
        exit_code = main(["validate", "--scale", "0.05", "--validators", "nonsense"])
        assert exit_code == 2
        assert "unknown validator 'nonsense'" in capsys.readouterr().err

    def test_empty_validators_exits_2(self, capsys):
        exit_code = main(["validate", "--scale", "0.05", "--validators"])
        assert exit_code == 2
        assert "no validators requested" in capsys.readouterr().err

    def test_validate_prints_summary_and_writes_markdown(self, capsys, tmp_path):
        exit_code = main(
            ["validate", "--scale", "0.05", "--seed", "3",
             "--validators", "midar", "ally", "--output", str(tmp_path)]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Validation summary" in output
        assert "midar" in output and "ally" in output
        assert "shared sample bank" in output
        markdown = (tmp_path / "validation.md").read_text()
        assert markdown.startswith("# Validation report")

    def test_validate_snapshots_mode(self, capsys, tmp_path):
        exit_code = main(
            ["validate", "--scale", "0.05", "--seed", "3", "--snapshots", "2",
             "--ipv4-only", "--output", str(tmp_path)]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Per-snapshot validation (midar" in output
        markdown = (tmp_path / "validation.md").read_text()
        assert "Per-snapshot validation: midar" in markdown

    def test_validate_snapshots_rejects_zero(self, capsys):
        exit_code = main(["validate", "--scale", "0.05", "--snapshots", "0"])
        assert exit_code == 2
        assert "at least one snapshot" in capsys.readouterr().err

    def test_uncapped_budget_prints_the_same_validation(self, capsys):
        # One validation path: an uncapped --budget run differs from the
        # default run only by its trailing budget line.
        command = ["validate", "--scale", "0.05", "--seed", "42",
                   "--validators", "midar", "ally", "speedtrap"]
        assert main(command) == 0
        default = capsys.readouterr().out
        assert main([*command, "--budget", "1000000000"]) == 0
        budgeted = capsys.readouterr().out.splitlines()
        assert budgeted[-1].startswith("probe budget: spent ")
        assert budgeted[:-1] == default.splitlines()

    def test_zero_budget_leaves_every_set_unresolved(self, capsys):
        # The CLI builds a fresh session, so it has no saved bank to
        # re-score from: every set needs a fresh probe and none is sent.
        assert main(
            ["validate", "--scale", "0.05", "--seed", "42",
             "--validators", "midar", "ally", "speedtrap", "--budget", "0"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split("|") for line in lines if re.match(r"(midar|ally|speedtrap) +\|", line)]
        assert [row[0].strip() for row in rows] == ["midar", "ally", "speedtrap"]
        sets = sum(int(row[1]) for row in rows)
        assert sets > 0
        assert all(int(row[2]) == int(row[7]) == int(row[8]) == 0 for row in rows)
        # Nothing was measured, so no row shows a coverage or an agreement.
        assert all(row[3].strip() == row[6].strip() == "n/a" for row in rows)
        assert lines[-1] == (
            f"probe budget: spent 0 of 0 fresh probes; {sets} candidate sets left unresolved"
        )

    def test_capped_snapshot_budget_reports_the_unresolved_sets(self, capsys):
        # 500 probes decide four of snapshot 0's 126 sets; the other 122
        # and all 135 of snapshot 1 are left unresolved.  Coverage is over
        # the four resolved sets, and snapshot 1 measured none.
        assert main(
            ["validate", "--scale", "0.05", "--seed", "42", "--snapshots", "2",
             "--ipv4-only", "--validators", "midar", "--budget", "500"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in lines
            if re.match(r"[01] +\|", line)
        ]
        assert [row[3:9] for row in rows] == [
            ["126", "3", "75.0%", "3", "0", "100.0%"],
            ["135", "0", "n/a", "0", "0", "n/a"],
        ]
        assert lines[-1] == (
            "probe budget: spent 500 of 500 fresh probes; 257 candidate sets left unresolved"
        )


class TestSession:
    def test_session_save_then_load(self, capsys, tmp_path):
        directory = tmp_path / "session"
        exit_code = main(
            ["session", "save", str(directory), "--scale", "0.05", "--seed", "3",
             "--reports", "active"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "resolved active" in output
        assert "saved session" in output
        assert (directory / "session.json").exists()

        exit_code = main(["session", "load", str(directory)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "loaded session" in output
        assert "report active" in output

    def test_session_load_labels_each_dataset_by_its_spec(self, capsys, tmp_path):
        # Both address families of the active scan are named "active";
        # only the spec tells them apart.
        directory = tmp_path / "session"
        assert main(["session", "save", str(directory), "--scale", "0.05", "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["session", "load", str(directory)]) == 0
        labels = [
            line.removeprefix("  dataset ").rsplit(": ", 1)[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  dataset ")
        ]
        assert "active-ipv4" in labels and "active-ipv6" in labels
        assert len(labels) == len(set(labels))

    def test_session_load_renders_experiments(self, capsys, tmp_path):
        directory = tmp_path / "session"
        assert main(
            ["session", "save", str(directory), "--scale", "0.05", "--seed", "3",
             "--reports", "active", "censys", "union"]
        ) == 0
        capsys.readouterr()
        exit_code = main(
            ["session", "load", str(directory), "--experiments", "table3"]
        )
        assert exit_code == 0
        assert "=== table3" in capsys.readouterr().out

    def test_session_save_unknown_report(self, capsys, tmp_path):
        exit_code = main(
            ["session", "save", str(tmp_path / "s"), "--scale", "0.05",
             "--reports", "nonsense"]
        )
        assert exit_code == 2
        assert "nonsense" in capsys.readouterr().err

    def test_session_load_missing_directory(self, capsys, tmp_path):
        exit_code = main(["session", "load", str(tmp_path / "absent")])
        assert exit_code == 2
        assert "not a saved session" in capsys.readouterr().err

    def test_session_load_malformed_scale_exits_cleanly(self, capsys, tmp_path):
        directory = tmp_path / "session"
        assert main(["session", "save", str(directory), "--scale", "0.05", "--reports"]) == 0
        capsys.readouterr()
        _set_manifest_scale(directory / "session.json", "config", "x")
        exit_code = main(["session", "load", str(directory)])
        assert exit_code == 2
        assert "scale" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", _FORGED_SCENARIO_FIELDS)
    def test_session_load_forged_config_exits_cleanly(
        self, capsys, saved_session, tmp_path, field, value
    ):
        directory = shutil.copytree(saved_session, tmp_path / "session")
        capsys.readouterr()
        _forge_manifest(
            directory / "session.json", lambda manifest: manifest["config"].update({field: value})
        )
        exit_code = main(["session", "load", str(directory), "--experiments", "table2"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "malformed session manifest" in captured.err
        assert field in captured.err
        assert "Traceback" not in captured.err
        assert "=== table2" not in captured.out

    @pytest.mark.parametrize("field, forge", _FORGED_DATASET_ENTRIES)
    def test_session_load_forged_dataset_entry_exits_cleanly(
        self, capsys, saved_session, tmp_path, field, forge
    ):
        directory = shutil.copytree(saved_session, tmp_path / "session")
        capsys.readouterr()
        _forge_manifest(
            directory / "session.json",
            lambda manifest: manifest["datasets"][0].update(
                {field: forge(manifest["datasets"][0][field])}
            ),
        )
        exit_code = main(["session", "load", str(directory), "--experiments", "table3"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert f"malformed session manifest {directory / 'session.json'}: datasets[0].{field}" in captured.err
        assert "Traceback" not in captured.err
        assert "=== table3" not in captured.out

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda entry: entry["spec"].update(kind=["active"]), "malformed source spec"),
            (lambda entry: entry.update(name={"active": 1}), "is not a string"),
        ],
        ids=["list-kind", "dict-name"],
    )
    def test_session_load_unhashable_entry_exits_cleanly(
        self, capsys, tmp_path, edit, message
    ):
        directory = tmp_path / "session"
        assert main(
            ["session", "save", str(directory), "--scale", "0.05", "--seed", "3",
             "--reports", "active"]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((directory / "session.json").read_text())
        edit(manifest["reports"][0])
        (directory / "session.json").write_text(json.dumps(manifest))
        exit_code = main(["session", "load", str(directory)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_session_load_tampered_dataset_exits_cleanly(self, capsys, tmp_path):
        # Same name, same count, different host keys: only the content
        # digest tells the file from the one the session saved.
        directory = tmp_path / "session"
        assert main(
            ["session", "save", str(directory), "--scale", "0.05", "--seed", "3",
             "--reports", "active"]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((directory / "session.json").read_text())
        for entry in manifest["datasets"]:
            if entry["spec"]["kind"] == "active-ipv4":
                _tamper_fingerprint(directory / entry["file"])
        exit_code = main(["session", "load", str(directory)])
        assert exit_code == 2
        assert "content digest" in capsys.readouterr().err

    def test_session_load_non_utf8_manifest_exits_cleanly(self, capsys, saved_session, tmp_path):
        directory = shutil.copytree(saved_session, tmp_path / "session")
        capsys.readouterr()
        manifest = directory / "session.json"
        manifest.write_bytes(manifest.read_bytes() + b"\xff")
        exit_code = main(["session", "load", str(directory)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "session.json is not UTF-8 text" in err
        assert "Traceback" not in err

    def test_session_load_validation_time_beyond_float_exits_cleanly(self, capsys, tmp_path):
        # A validation time too large for a float once escaped the loader as
        # an OverflowError traceback (exit 1).
        directory = tmp_path / "session"
        session = ReproSession(ScenarioConfig(scale=0.05, seed=3))
        session.validate("midar")
        session.save(directory)
        manifest = json.loads((directory / "session.json").read_text())
        _forge_manifest(
            directory / manifest["validations"][0]["file"],
            lambda document: document.update(started_at=10**400),
        )
        exit_code = main(["session", "load", str(directory)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "malformed validation document" in err
        assert "Traceback" not in err

    def test_session_load_unknown_experiment(self, capsys, tmp_path):
        directory = tmp_path / "session"
        assert main(
            ["session", "save", str(directory), "--scale", "0.05", "--reports"]
        ) == 0
        capsys.readouterr()
        exit_code = main(
            ["session", "load", str(directory), "--experiments", "nonsense"]
        )
        assert exit_code == 2
        assert "nonsense" in capsys.readouterr().err


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_scan_defaults_to_full_scale(self):
        args = build_parser().parse_args(["scan", "--output", "out"])
        assert args.scale == 1.0

    def test_readme_cli_table_lists_exactly_the_subcommands(self):
        # A deleted command cannot leave its README row behind, nor a new
        # one go undocumented.  ``session save`` / ``session load`` is one
        # row of the ``session`` command.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        documented = [
            re.match(r"\| `(\w+)", line)[1] for line in table.splitlines() if line.startswith("| `")
        ]
        (subcommands,) = [
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert sorted(documented) == sorted(subcommands)

    @pytest.mark.parametrize(
        "verb",
        [
            ["scan"],
            ["experiments"],
            ["claims"],
            ["longitudinal"],
            ["validate"],
            ["serve"],
            ["session", "save", "saved"],
        ],
        ids=lambda verb: "-".join(verb[:2]),
    )
    def test_non_positive_scale_rejected(self, capsys, verb):
        # One shared --scale/--seed parser: every data-generating verb
        # refuses a scale that would simulate no Internet at all.
        for scale in ("0", "-1"):
            with pytest.raises(SystemExit) as exited:
                main([*verb, "--scale", scale])
            assert exited.value.code == 2
            assert "--scale: must be positive" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "verb",
        [
            ["scan", "--scale", "0.05"],
            ["resolve", "absent.jsonl"],
            ["longitudinal", "--scale", "0.05"],
            ["validate", "--scale", "0.05"],
        ],
        ids=lambda verb: verb[0],
    )
    def test_output_under_a_file_rejected(self, capsys, tmp_path, verb):
        # One shared --output type: a path that is, or sits under, a
        # regular file exits 2 before any work instead of a traceback.
        blocker = tmp_path / "file"
        blocker.write_text("")
        for output in (blocker, blocker / "sub"):
            with pytest.raises(SystemExit) as exited:
                main([*verb, "--output", str(output)])
            assert exited.value.code == 2
            assert "argument --output:" in capsys.readouterr().err


class TestCampaignFlagValidation:
    """The shared --interval-days/--churn bounds reject as usage errors."""

    @pytest.mark.parametrize("command", ["longitudinal", "validate", "serve"])
    def test_non_positive_interval_days_rejected(self, capsys, command):
        exit_code = main([command, "--scale", "0.05", "--interval-days", "0"])
        assert exit_code == 2
        assert "--interval-days must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["longitudinal", "validate", "serve"])
    def test_negative_interval_days_rejected(self, capsys, command):
        exit_code = main([command, "--scale", "0.05", "--interval-days", "-3"])
        assert exit_code == 2
        assert "--interval-days must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command",
        [
            ["longitudinal", "--snapshots", "2"],
            ["validate", "--snapshots", "2"],
            ["serve", "--max-batches", "2"],
        ],
    )
    def test_non_finite_interval_days_rejected(self, capsys, command, value):
        exit_code = main(
            [*command, "--scale", "0.05", "--seed", "3", "--interval-days", value]
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "--interval-days must be positive and finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["longitudinal", "validate", "serve"])
    def test_out_of_range_churn_rejected(self, capsys, command):
        exit_code = main([command, "--scale", "0.05", "--churn", "1.5"])
        assert exit_code == 2
        assert "--churn must be in [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["longitudinal", "validate", "serve"])
    def test_negative_churn_rejected(self, capsys, command):
        exit_code = main([command, "--scale", "0.05", "--churn", "-0.1"])
        assert exit_code == 2
        assert "--churn must be in [0, 1)" in capsys.readouterr().err

    def test_shared_flag_defined_once(self):
        # The duplicated definitions collapsed into one helper: every
        # campaign-shaped parser carries the same default.
        parser = build_parser()
        for command in ("longitudinal", "validate", "serve"):
            args = parser.parse_args([command])
            assert args.interval_days == 7.0


class TestServe:
    def test_serve_smoke(self, capsys):
        exit_code = main(
            ["serve", "--scale", "0.05", "--seed", "3", "--max-batches", "2",
             "--ipv4-only"]
        )
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "emit 0 (snapshot-0):" in captured
        assert "emit 1 (snapshot-1):" in captured
        assert "served 2 polls, 2 reports" in captured
        assert "estimated churn rate:" in captured

    def test_serve_rejects_zero_max_batches(self, capsys):
        exit_code = main(["serve", "--scale", "0.05", "--max-batches", "0"])
        assert exit_code == 2
        assert "--max-batches" in capsys.readouterr().err

    def test_serve_rejects_negative_poll_interval(self, capsys):
        exit_code = main(["serve", "--scale", "0.05", "--poll-interval", "-1"])
        assert exit_code == 2
        assert "--poll-interval" in capsys.readouterr().err

    def test_serve_checkpoint_then_resume(self, capsys, tmp_path):
        checkpoint = tmp_path / "stream"
        base = ["serve", "--scale", "0.05", "--seed", "3", "--churn", "0.05",
                "--ipv4-only"]
        assert main(base + ["--max-batches", "2", "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(
            ["serve", "--resume", str(checkpoint), "--max-batches", "2"]
        ) == 0
        captured = capsys.readouterr().out
        assert "resuming after poll 1" in captured
        assert "emit 2 (snapshot-2):" in captured
        assert "checkpointed 4 polls" in captured

    def test_serve_resume_malformed_window_exits_cleanly(self, capsys, tmp_path):
        checkpoint = tmp_path / "stream"
        assert main(
            ["serve", "--scale", "0.05", "--seed", "7", "--max-batches", "2",
             "--checkpoint", str(checkpoint)]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((checkpoint / "stream.json").read_text())
        del manifest["window"]["clock"]
        (checkpoint / "stream.json").write_text(json.dumps(manifest))
        exit_code = main(["serve", "--max-batches", "3", "--resume", str(checkpoint)])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "malformed stream checkpoint manifest" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "entry, value",
        [
            ("clock", float("nan")),
            ("interval", float("nan")),
            ("interval", float("inf")),
            ("rate", float("inf")),
            ("windows", -1),
            pytest.param("clock", True, id="clock-boolean"),
            pytest.param("clock", "5", id="clock-string"),
            pytest.param("windows", 2.5, id="windows-float"),
            pytest.param("windows", "1", id="windows-string"),
            pytest.param("interval", "604800", id="interval-string"),
            pytest.param("window", True, id="window-boolean"),
            pytest.param("rate", "0.1", id="rate-string"),
            pytest.param("rate", True, id="rate-boolean"),
        ],
    )
    def test_serve_resume_forged_window_value_exits_cleanly(
        self, capsys, tmp_path, entry, value
    ):
        # A window value no run can write fails the load, naming the value,
        # before any poll.
        checkpoint = _serve_checkpoint(tmp_path)
        capsys.readouterr()
        manifest = json.loads((checkpoint / "stream.json").read_text())
        window = manifest["window"]
        (window if entry == "clock" else window["estimator"])[entry] = value
        (checkpoint / "stream.json").write_text(json.dumps(manifest))
        exit_code = main(["serve", "--max-batches", "1", "--resume", str(checkpoint)])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "malformed stream checkpoint manifest" in captured.err
        assert entry in captured.err
        assert "Traceback" not in captured.err
        assert "resuming" not in captured.out

    def test_serve_resume_clock_beyond_float_names_the_window_clock(self, capsys, tmp_path):
        # An integer too large for a float once failed the load without
        # naming the field ("int too large to convert to float").
        checkpoint = _serve_checkpoint(tmp_path)
        capsys.readouterr()
        _forge_manifest(
            checkpoint / "stream.json", lambda manifest: manifest["window"].update(clock=10**400)
        )
        exit_code = main(["serve", "--max-batches", "1", "--resume", str(checkpoint)])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "malformed stream checkpoint manifest" in captured.err
        assert "window clock" in captured.err
        assert "Traceback" not in captured.err
        assert "resuming" not in captured.out

    @pytest.mark.parametrize("interval", [0, -5])
    def test_serve_resume_ignores_forged_churn_interval(self, capsys, tmp_path, interval):
        # The estimator carries the churn interval; a stream config beside
        # it is not read, whatever it holds.
        checkpoint = _serve_checkpoint(tmp_path)
        capsys.readouterr()
        resume = ["serve", "--max-batches", "1", "--resume", str(checkpoint)]
        pristine = tmp_path / "pristine"
        pristine.mkdir()
        for path in checkpoint.iterdir():
            (pristine / path.name).write_bytes(path.read_bytes())
        manifest = json.loads((checkpoint / "stream.json").read_text())
        manifest["stream"] = {"churn_interval": interval}
        (checkpoint / "stream.json").write_text(json.dumps(manifest))
        assert main(resume) == 0
        forged = capsys.readouterr().out
        assert main(resume[:-1] + [str(pristine)]) == 0
        expected = capsys.readouterr().out
        assert forged == expected.replace(str(pristine), str(checkpoint))

    def test_serve_resume_malformed_scale_exits_cleanly(self, capsys, tmp_path):
        checkpoint = tmp_path / "stream"
        assert main(
            ["serve", "--scale", "0.05", "--seed", "7", "--max-batches", "1",
             "--checkpoint", str(checkpoint)]
        ) == 0
        capsys.readouterr()
        _set_manifest_scale(checkpoint / "stream.json", "scenario", "x")
        exit_code = main(["serve", "--max-batches", "2", "--resume", str(checkpoint)])
        assert exit_code == 2
        assert "scale" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda manifest: manifest.update(completed=1), "'snapshot-1', expected 'snapshot-0'"),
            (lambda manifest: manifest.update(last_name="live-1"), "'live-1', expected 'snapshot-1'"),
        ],
        ids=["emitted-behind", "foreign-label"],
    )
    def test_serve_resume_not_one_emit_per_poll_exits_cleanly(
        self, capsys, tmp_path, edit, message
    ):
        # A stream emits one snapshot-<poll> report per poll, so its emit
        # count is its completed poll count; a checkpoint whose count or last
        # label says otherwise is refused.
        checkpoint = tmp_path / "stream"
        assert main(
            ["serve", "--scale", "0.05", "--seed", "7", "--max-batches", "2",
             "--ipv4-only", "--checkpoint", str(checkpoint)]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((checkpoint / "stream.json").read_text())
        edit(manifest)
        (checkpoint / "stream.json").write_text(json.dumps(manifest))
        exit_code = main(["serve", "--max-batches", "3", "--resume", str(checkpoint)])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err

    def test_serve_resume_event_counts_not_an_object_exits_cleanly(self, capsys, tmp_path):
        checkpoint = tmp_path / "stream"
        assert main(
            ["serve", "--scale", "0.05", "--seed", "7", "--max-batches", "1",
             "--ipv4-only", "--checkpoint", str(checkpoint)]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((checkpoint / "stream.json").read_text())
        manifest["event_counts"] = [["report.emitted", 1]]
        (checkpoint / "stream.json").write_text(json.dumps(manifest))
        exit_code = main(["serve", "--max-batches", "2", "--resume", str(checkpoint)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "event_counts is not an object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("forge, field", _FORGED_CHAIN_FIELDS)
    def test_serve_resume_forged_chain_field_exits_cleanly(
        self, capsys, tmp_path, forge, field
    ):
        checkpoint = _serve_checkpoint(tmp_path)
        capsys.readouterr()
        _forge_manifest(checkpoint / "stream.json", forge)
        exit_code = main(["serve", "--max-batches", "1", "--resume", str(checkpoint)])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "malformed stream checkpoint manifest" in captured.err
        assert field in captured.err
        assert "Traceback" not in captured.err
        assert "resuming" not in captured.out

    @pytest.mark.parametrize("field, value", _FORGED_SCENARIO_FIELDS)
    def test_serve_resume_forged_scenario_exits_cleanly(
        self, capsys, serve_checkpoint, tmp_path, field, value
    ):
        checkpoint = shutil.copytree(serve_checkpoint, tmp_path / "stream", symlinks=True)
        capsys.readouterr()
        _forge_manifest(
            checkpoint / "stream.json", lambda manifest: manifest["scenario"].update({field: value})
        )
        exit_code = main(["serve", "--max-batches", "1", "--resume", str(checkpoint)])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "malformed stream checkpoint manifest" in captured.err
        assert field in captured.err
        assert "Traceback" not in captured.err
        assert "resuming" not in captured.out

    def test_serve_resume_non_utf8_manifest_exits_cleanly(
        self, capsys, serve_checkpoint, tmp_path
    ):
        checkpoint = shutil.copytree(serve_checkpoint, tmp_path / "stream", symlinks=True)
        capsys.readouterr()
        # Written through the link: the generation's manifest file.
        manifest = checkpoint / "stream.json"
        manifest.write_bytes(manifest.read_bytes() + b"\xff")
        exit_code = main(["serve", "--max-batches", "1", "--resume", str(checkpoint)])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "stream.json is not UTF-8 text" in captured.err
        assert "Traceback" not in captured.err
        assert "resuming" not in captured.out

    def test_serve_resume_non_utf8_poll_file_exits_cleanly(
        self, capsys, serve_checkpoint, tmp_path
    ):
        checkpoint = shutil.copytree(serve_checkpoint, tmp_path / "stream", symlinks=True)
        capsys.readouterr()
        poll = checkpoint / "poll-0002.jsonl"
        poll.write_bytes(poll.read_bytes() + b'{"source": "\xff"}\n')
        exit_code = main(["serve", "--max-batches", "1", "--resume", str(checkpoint)])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "not UTF-8 text" in captured.err
        assert "poll-0002.jsonl" in captured.err
        assert "Traceback" not in captured.err
        assert "resuming" not in captured.out

    def test_serve_resume_missing_checkpoint(self, capsys, tmp_path):
        exit_code = main(["serve", "--resume", str(tmp_path / "absent")])
        assert exit_code == 2
        assert "not a stream checkpoint" in capsys.readouterr().err

    def test_serve_metrics_capture_stream_series(self, capsys, tmp_path):
        metrics = tmp_path / "serve.json"
        assert main(
            ["serve", "--scale", "0.05", "--max-batches", "2", "--ipv4-only",
             "--metrics", str(metrics)]
        ) == 0
        payload = json.loads(metrics.read_text())
        assert "stream.events" in payload.get("series", {})
        counters = payload.get("counters", {})
        assert any(name.startswith("stream.events") for name in counters)

    def test_serve_metrics_count_the_replayed_delta(self, capsys, tmp_path):
        metrics = tmp_path / "serve.json"
        assert main(
            ["serve", "--scale", "0.05", "--seed", "3", "--max-batches", "3",
             "--ipv4-only", "--metrics", str(metrics)]
        ) == 0
        deltas = re.findall(r"^emit .*\(\+(\d+)/-(\d+)\)", capsys.readouterr().out, re.M)
        assert len(deltas) == 3
        payload = json.loads(metrics.read_text())

        def total(name):
            return sum(entry["value"] for entry in payload["counters"].get(name, []))

        assert total("index.delta.added") == sum(int(added) for added, _ in deltas)
        assert total("index.delta.removed") == sum(int(removed) for _, removed in deltas)
        interned = {
            entry["labels"]["kind"]: entry["value"]
            for entry in payload["gauges"].get("index.symbols.interned", [])
        }
        assert set(interned) == {"address", "identifier"}
        assert all(count > 0 for count in interned.values())
