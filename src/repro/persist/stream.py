"""Checkpoint and resume of the poll loop, for campaigns and daemons alike.

The poll loop (:mod:`repro.stream.daemon`) checkpoints after every poll,
so a killed process resumes exactly where the stream left off: same live
index, same emit sequence, same estimator series, same cumulative event
counts.  ``repro longitudinal`` and ``repro serve`` write through the same
:class:`StreamCheckpointer` and resume through the same
:func:`load_stream_checkpoint` and :func:`resume_stream`; each keeps its
own on-disk names, a :class:`ChainLayout` each: a campaign's
``checkpoint.json`` over ``snapshot-NNNN.jsonl`` files
(:data:`CAMPAIGN_LAYOUT`), a daemon's ``stream.json`` over
``poll-NNNN.jsonl`` (:data:`STREAM_LAYOUT`).

A checkpoint is one generation ``NNNN`` (the completed poll count): a
data file ``<step>-NNNN.jsonl``, the observations of poll ``NNNN - 1``
and the only copy of the resolution state, and a manifest
``<manifest stem>-NNNN.json`` (``stream-0003.json``).  The live
:class:`~repro.core.engine.ObservationIndex` after a poll indexes exactly
that poll's observations, so a resume rebuilds it from the data file,
checks it against the manifest's pin (:func:`state_signature_digest` of
the live index), and the same observations are the diff baseline of the
first resumed poll.  The layout's manifest name (``stream.json``) is a
relative symbolic link to the generation's manifest.  A save lands the
data file, then the generation's manifest, each under a fresh name, and
last swaps the link (:func:`~repro.persist.files.link_atomic`), so a
crash at any write leaves either the new checkpoint or the previous one
loadable, never neither; only then are the other generations' files
pruned.  No save replaces a regular file: on ext4, replacing a manifest
that itself arrived by a replace stalled every save from the third on
(29–33 ms medians on a 2-vCPU AMD EPYC host, against 0.07–0.3 ms for a
generation's manifest plus the link swap).  The loader reads the manifest
through the link, so a directory older builds wrote, whose manifest is a
regular file, loads too, and its next save replaces the file with a link.
A directory older builds wrote may also hold older generations, and an
index snapshot ``index-NNNN.json`` and sample banks
``bank-NNNN-PPP.json`` per generation (listed under ``banks``); a load
reads none of them, and the next save prunes them.

Durability: a save survives the process dying at any write, which the
crash sweep in ``tests/persist/chain_cases.py`` checks at each replace.
Nothing is fsynced (it measured 27–30 ms per write), so a save is not
safe against a power loss: the data file lands under a fresh name, which
ext4's ``auto_da_alloc`` rule (flush a file's blocks before it replaces
another) does not cover.  That case is not tested here.  The link is
relative, so a directory copied with its links (``cp -a``,
``shutil.copytree(..., symlinks=True)``) loads on its own; links are
exercised on Linux only.

The manifest also carries the streaming engine's emit window (its clock
and estimator) and the events it has emitted so far, by kind.  A campaign
checkpoint carries its :class:`~repro.longitudinal.campaign.CampaignLog`:
the stability rows of both families and the metric series.  A daemon's
carries no log, or its manifest would grow by a row every poll.  The
reader requires only the keys every campaign and stream manifest ever
held: a campaign checkpoint without a window or event counts never ran
an estimator or emitted an event, and resumes in exactly that state,
its clock at its last scan.  Other keys older manifests carry are ignored,
but not inside ``scenario`` and ``campaign``
(:func:`~repro.persist.files.read_config`).

Everything else a resume needs is deterministic: the topology regenerates
from the scenario config and the IPv6 hitlist from the topology,
:meth:`~repro.longitudinal.campaign.LongitudinalCampaign.replay_churn`
re-injects the completed intervals' churn, and the IDS probe counters are
restored.  Every poll emits one report labelled ``snapshot-<poll>``, so a
loaded checkpoint has emitted ``completed`` reports, the last labelled
``snapshot-<completed - 1>``; a manifest naming another label fails the
load.  A resumed loop's reports equal the uninterrupted run's poll for
poll — the resume gates in ``tests/persist/`` assert signature equality.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path

from repro.api.config import ScenarioConfig
from repro.core.engine import ObservationIndex
from repro.core.identifiers import IdentifierOptions
from repro.errors import DatasetError, PersistError, SimulationError
from repro.io.datasets import load_observations
from repro.jsonvalues import json_boolean, json_count, json_integer, json_number, json_string
from repro.longitudinal.campaign import (
    CAMPAIGN_START_TIME,
    CampaignLog,
    LongitudinalCampaign,
    LongitudinalConfig,
    SnapshotStability,
)
from repro.longitudinal.engine import LongitudinalEngine
from repro.net.addresses import AddressFamily
from repro.persist.files import (
    link_atomic,
    read_config,
    read_field,
    read_identifier_options,
    read_json_document,
    read_scenario,
    save_observations_atomic,
    write_atomic,
)
from repro.simnet.device import ServiceType
from repro.simnet.network import VantagePoint
from repro.simnet.topology import generate_topology
from repro.sources.hitlist import build_ipv6_hitlist
from repro.sources.records import Observation, ObservationDataset
from repro.stream.engine import StreamingEngine, emit_label
from repro.stream.estimator import ChurnRateEstimator

#: Current checkpoint format version, campaign and stream manifests alike.
CHECKPOINT_FORMAT_VERSION = 1


@dataclasses.dataclass(frozen=True)
class ChainLayout:
    """The on-disk names of one kind of checkpoint directory.

    Attributes:
        manifest: the manifest file name.
        step: what one generation records (``snapshot``/``poll``); it
            prefixes the observation file and names the manifest key
            pointing at it (``last_poll_file``).
        kind: what error messages call the directory.
    """

    manifest: str
    step: str
    kind: str


#: ``repro serve``'s checkpoint directory: ``stream.json`` over ``poll-NNNN.jsonl``.
STREAM_LAYOUT = ChainLayout(manifest="stream.json", step="poll", kind="stream checkpoint")

#: ``repro longitudinal``'s checkpoint directory: ``checkpoint.json`` over
#: ``snapshot-NNNN.jsonl``.
CAMPAIGN_LAYOUT = ChainLayout(
    manifest="checkpoint.json", step="snapshot", kind="campaign checkpoint"
)


def _bucket_tag(bucket_key: tuple[ServiceType, AddressFamily]) -> str:
    protocol, family = bucket_key
    return f"{protocol.value}|{family.value}"


def state_signature_digest(index: ObservationIndex) -> str:
    """SHA-256 over the canonical JSON rendering of the index signature.

    Two indexes that would derive identical report collections produce
    equal digests regardless of construction history — the property the
    load-time check of a rebuilt index relies on.
    """
    signature = index.state_signature()
    canonical = {
        "observed": signature["observed"],
        "indexed": signature["indexed"],
        "members": {_bucket_tag(key): value for key, value in signature["members"].items()},
        "asn": {_bucket_tag(key): value for key, value in signature["asn"].items()},
    }
    encoded = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _manifest_stem(layout: ChainLayout) -> str:
    """What names each generation's manifest: ``stream`` of ``stream.json``."""
    return Path(layout.manifest).stem


def _prune(directory: Path, layout: ChainLayout, completed: int) -> None:
    """Delete the files of every generation in ``directory`` but ``completed``.

    A generation is its ``<step>-NNNN.jsonl`` data file and its
    ``<manifest stem>-NNNN.json`` manifest, plus the ``index-NNNN.json``
    and ``bank-NNNN-PPP.json`` files older builds wrote.  Higher numbers go
    too: leftovers of an older, unrelated run in a reused directory.  Names
    outside that scheme (notes, temp files, the manifest link, the
    unnumbered ``bank-PPP.json`` of still older checkpoints) stay.
    """
    pattern = re.compile(
        rf"(?:index|{layout.step}|{_manifest_stem(layout)})-(\d+)\.jsonl?"
        r"|bank-(\d+)-\d+\.json"
    )
    for path in list(directory.iterdir()):
        match = pattern.fullmatch(path.name)
        if match is not None and int(match[1] or match[2]) != completed:
            path.unlink(missing_ok=True)


class StreamCheckpointer:
    """Persists a resumable poll-loop state after every completed poll.

    With a ``log`` — the one the loop records into — the checkpointer
    writes the campaign layout and adds the log's rows to the manifest.
    """

    def __init__(
        self,
        directory: str | Path,
        scenario: ScenarioConfig,
        log: CampaignLog | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.scenario = scenario
        self.log = log
        self.layout = STREAM_LAYOUT if log is None else CAMPAIGN_LAYOUT

    def save(
        self,
        campaign: LongitudinalCampaign,
        stream: StreamingEngine,
        completed: int,
        last_name: str,
        observations: tuple[Observation, ...],
    ) -> None:
        """Write generation ``completed`` after poll ``completed - 1`` emitted.

        Lands its data file, its manifest, then the manifest link, and
        then prunes every other generation.  ``observations`` are the
        poll's scan results — the diff baseline the first resumed poll
        syncs against.  ``completed`` and ``last_name`` must be the
        stream's emit count and last label, which the loader checks.
        """
        directory, layout = self.directory, self.layout
        directory.mkdir(parents=True, exist_ok=True)
        observations_file = f"{layout.step}-{completed:04d}.jsonl"
        save_observations_atomic(
            ObservationDataset(last_name, observations), directory / observations_file
        )
        vantage = campaign.vantage
        manifest = {
            "version": CHECKPOINT_FORMAT_VERSION,
            "scenario": dataclasses.asdict(self.scenario),
            "campaign": dataclasses.asdict(campaign.config),
            "options": dataclasses.asdict(campaign.options),
            "vantage": {
                "name": vantage.name,
                "address": vantage.address,
                "distributed": vantage.distributed,
            },
            "include_ipv6": campaign.hitlist is not None,
            "completed": completed,
            "last_name": last_name,
            "observations": len(observations),
            f"last_{layout.step}_file": observations_file,
            "index_signature": state_signature_digest(stream.engine.index),
            "probe_counts": [
                [vantage_name, asn, window, count]
                for (vantage_name, asn, window), count in sorted(
                    campaign.network.export_probe_counts().items()
                )
            ],
            "window": {"clock": stream.clock, "estimator": stream.estimator.state()},
            "event_counts": stream.event_counts,
        }
        if self.log is not None:
            manifest["stability"] = {
                family.value: [dataclasses.asdict(row) for row in rows]
                for family, rows in self.log.stability.items()
            }
            manifest["metric_series"] = self.log.metric_series
        # The link lands last: whatever it points at is already on disk.
        manifest_file = f"{_manifest_stem(layout)}-{completed:04d}.json"
        write_atomic(directory / manifest_file, json.dumps(manifest, indent=2))
        link_atomic(directory / layout.manifest, manifest_file)
        _prune(directory, layout, completed)


@dataclasses.dataclass(frozen=True)
class LoadedStreamCheckpoint:
    """A verified poll-loop checkpoint, ready to resume from.

    Attributes:
        directory: the checkpoint directory it was loaded from.
        scenario: scenario configuration the network regenerates from.
        campaign: longitudinal configuration of the interrupted run.
        options: identifier construction options.
        vantage: the vantage point every poll scans from.
        include_ipv6: whether the polls scan the IPv6 hitlist.
        completed: number of completed polls.
        last_name: resolution label of the last completed poll.
        last_observations: that poll's observations (diff baseline).
        index: the live observation index, rebuilt from
            ``last_observations`` and verified against the manifest's pin.
        probe_counts: per-(vantage, AS, window) IDS probe counters at the
            checkpoint, restored onto the regenerated network so polls
            sharing a rate-limit window with completed scans see the same
            IDS state as the uninterrupted run.
        clock: the streaming engine's clock at the last emit (the last
            scan's newest timestamp for a campaign checkpoint written
            before campaigns ran an estimator).
        estimator: the churn-rate estimator at the last emit (a fresh one
            over the campaign interval for such a checkpoint).  The
            resumed engine takes ownership of it.
        event_counts: events emitted so far by kind, at the checkpoint.
        log: the campaign's stability rows and metric series (campaign
            layout only).
    """

    directory: Path
    scenario: ScenarioConfig
    campaign: LongitudinalConfig
    options: IdentifierOptions
    vantage: VantagePoint
    include_ipv6: bool
    completed: int
    last_name: str
    last_observations: tuple[Observation, ...]
    index: ObservationIndex
    probe_counts: dict[tuple[str, int, int], int]
    clock: float
    estimator: ChurnRateEstimator
    event_counts: dict[str, int]
    log: CampaignLog | None


def _probe_counts(rows: object, where: str) -> dict[tuple[str, int, int], int]:
    """The IDS probe counters: one ``[vantage, asn, window, count]`` row each."""
    if not isinstance(rows, list):
        raise PersistError(f"malformed {where}: probe_counts {rows!r} is not a list")
    counts: dict[tuple[str, int, int], int] = {}
    for row in rows:
        try:
            vantage_name, asn, window, count = row
            key = (json_string(vantage_name), json_integer(asn), json_integer(window))
            counts[key] = json_count(count)
        except (TypeError, ValueError) as exc:
            raise PersistError(f"malformed {where}: probe_counts row {row!r}: {exc}") from exc
    return counts


def _vantage(document: object, where: str) -> VantagePoint:
    """The vantage point every poll scans from: a string ``name`` and
    ``address`` and a boolean ``distributed``, each required."""
    if not isinstance(document, dict) or document.keys() != {"name", "address", "distributed"}:
        raise PersistError(
            f"malformed {where}: vantage {document!r} is not an object of name, address and distributed"
        )
    return VantagePoint(
        name=read_field(document["name"], json_string, "vantage name", where),
        address=read_field(document["address"], json_string, "vantage address", where),
        distributed=read_field(document["distributed"], json_boolean, "vantage distributed", where),
    )


#: A stability row's fields, in order: ``time`` and ``persistence`` are
#: numbers, the rest (``snapshot`` and every count) counts.
_STABILITY_FIELDS = tuple(field.name for field in dataclasses.fields(SnapshotStability))


def _stability_row(row: object, name: str, where: str) -> SnapshotStability:
    """One stability row: an object of exactly :data:`_STABILITY_FIELDS`."""
    if not isinstance(row, dict) or row.keys() != set(_STABILITY_FIELDS):
        raise PersistError(
            f"malformed {where}: {name} {row!r} is not an object of {', '.join(_STABILITY_FIELDS)}"
        )
    return SnapshotStability(
        *(
            read_field(
                row[field],
                json_number if field in ("time", "persistence") else json_count,
                f"{name}.{field}",
                where,
            )
            for field in _STABILITY_FIELDS
        )
    )


def _log(manifest: dict, where: str) -> CampaignLog:
    stability = manifest["stability"]
    if not isinstance(stability, dict):
        raise PersistError(
            f"malformed campaign checkpoint manifest: stability is not an object ({stability!r})"
        )
    return CampaignLog(
        stability={
            family: [
                _stability_row(row, f"stability.{family.value}[{position}]", where)
                for position, row in enumerate(stability.get(family.value, ()))
            ]
            for family in (AddressFamily.IPV4, AddressFamily.IPV6)
        },
        metric_series=[dict(row) for row in manifest.get("metric_series", ())],
    )


def load_stream_checkpoint(
    directory: str | Path, layout: ChainLayout = STREAM_LAYOUT
) -> LoadedStreamCheckpoint:
    """Load and verify the checkpoint ``layout`` names in ``directory``.

    The live index is rebuilt from the data file; its state-signature
    digest must equal the manifest's pin.

    Raises:
        PersistError: when the directory holds no manifest, the format
            version is unsupported, the manifest is malformed, a value is
            of the wrong type or out of range, the last report is not the
            last poll's, or the data file is unreadable or does not match
            the manifest (a checkpoint torn between file writes).
    """
    directory = Path(directory)
    kind, step = layout.kind, layout.step
    manifest_path = directory / layout.manifest
    if not manifest_path.exists():
        raise PersistError(f"{directory} is not a {kind} (no {layout.manifest})")
    manifest = read_json_document(manifest_path, f"{kind} manifest")
    where = f"{kind} manifest {manifest_path}"
    try:
        version = manifest["version"]
        if version != CHECKPOINT_FORMAT_VERSION:
            raise PersistError(f"unsupported {kind} version {version!r}")
        completed = read_field(manifest["completed"], json_integer, "completed", where)
        if completed < 1:
            raise PersistError(f"malformed {where}: completed {completed} is below 1")
        scenario = read_scenario(manifest["scenario"], "scenario", where)
        campaign = read_config(
            LongitudinalConfig,
            manifest["campaign"],
            "campaign",
            ("snapshots", "interval", "churn_fraction", "seed"),
            {"start_time": CAMPAIGN_START_TIME},
            where,
        )
        options = read_identifier_options(manifest["options"], where)
        vantage = _vantage(manifest["vantage"], where)
        include_ipv6 = read_field(manifest["include_ipv6"], json_boolean, "include_ipv6", where)
        last_name = manifest["last_name"]
        probe_counts = _probe_counts(manifest.get("probe_counts", []), where)
        expected_name = emit_label(completed - 1)
        if last_name != expected_name:
            raise PersistError(
                f"{kind}'s last report is {last_name!r}, expected {expected_name!r}"
            )
        event_counts = manifest.get("event_counts", {})
        if not isinstance(event_counts, dict):
            raise PersistError(
                f"malformed {kind} manifest: event_counts is not an object ({event_counts!r})"
            )
        window = manifest.get("window")
        if window is not None:
            clock = read_field(window["clock"], json_number, "window clock", f"{kind} manifest")
            estimator = ChurnRateEstimator.restore(window["estimator"])
        event_counts = {
            name: read_field(count, json_count, f"event_counts {name!r}", f"{kind} manifest")
            for name, count in event_counts.items()
        }
        log = _log(manifest, where) if layout == CAMPAIGN_LAYOUT else None
        expected_observations = read_field(manifest["observations"], json_integer, "observations", where)
        observations_file = str(manifest[f"last_{step}_file"])
        index_signature = str(manifest["index_signature"])
    except PersistError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, SimulationError) as exc:
        raise PersistError(f"malformed {where}: {exc}") from exc
    try:
        dataset = load_observations(directory / observations_file)
    except PersistError:
        raise
    except DatasetError as exc:
        raise PersistError(f"{kind} {step} file is unreadable: {exc}") from exc
    if len(dataset) != expected_observations:
        raise PersistError(
            f"{kind} {step} file holds {len(dataset)} observations, "
            f"manifest expects {expected_observations}"
        )
    index = ObservationIndex.build(dataset, options)
    rebuilt_signature = state_signature_digest(index)
    if rebuilt_signature != index_signature:
        raise PersistError(
            f"{kind} {step} file {directory / observations_file} does not match the "
            f"manifest (manifest {index_signature[:12]}…, rebuilt index "
            f"{rebuilt_signature[:12]}…); the {kind} was likely torn mid-save"
        )
    last_observations = tuple(dataset)
    if window is None:
        clock = max((o.timestamp for o in last_observations), default=0.0)
        estimator = ChurnRateEstimator(interval=campaign.interval)
    return LoadedStreamCheckpoint(
        directory=directory,
        scenario=scenario,
        campaign=campaign,
        options=options,
        vantage=vantage,
        include_ipv6=include_ipv6,
        completed=completed,
        last_name=last_name,
        last_observations=last_observations,
        index=index,
        probe_counts=probe_counts,
        clock=clock,
        estimator=estimator,
        event_counts=event_counts,
        log=log,
    )


def resume_stream(
    checkpoint: LoadedStreamCheckpoint, snapshots: int | None = None
) -> tuple[LongitudinalCampaign, StreamingEngine]:
    """Rebuild the campaign event source and streaming engine of a checkpoint.

    ``snapshots`` extends (or sets) the campaign's total snapshot count —
    resuming with the stored count finishes the interrupted campaign; a
    larger count keeps measuring past the original horizon.  Returns the
    campaign (network regenerated, completed churn re-injected, IDS probe
    counters restored) and a streaming engine whose live index, emit
    window, estimator, and cumulative event counts equal the interrupted
    loop's.  Continue with ``StreamDaemon(campaign, stream, ...)``.

    Raises:
        PersistError: when ``snapshots`` is smaller than the completed count.
    """
    config = checkpoint.campaign
    if snapshots is not None:
        if snapshots < checkpoint.completed:
            raise PersistError(
                f"cannot resume to {snapshots} snapshots: "
                f"{checkpoint.completed} already completed"
            )
        config = dataclasses.replace(config, snapshots=snapshots)
    scenario = checkpoint.scenario
    network = generate_topology(scenario.topology_config())
    hitlist = None
    if checkpoint.include_ipv6:
        hitlist = build_ipv6_hitlist(network, scenario.hitlist_config())
    campaign = LongitudinalCampaign(
        network,
        vantage=checkpoint.vantage,
        hitlist=hitlist,
        config=config,
        options=checkpoint.options,
    )
    campaign.replay_churn(checkpoint.completed)
    network.restore_probe_counts(checkpoint.probe_counts)
    stream = StreamingEngine.resume(
        LongitudinalEngine.restore(checkpoint.index, checkpoint.last_name),
        checkpoint.last_observations,
        checkpoint.completed,
        checkpoint.clock,
        checkpoint.estimator,
        checkpoint.event_counts,
    )
    return campaign, stream
