"""The checkpoint chain: numbered generations under one manifest.

The poll loop (:mod:`repro.stream.daemon`) checkpoints the same state
after every step whether ``repro longitudinal`` or ``repro serve`` drives
it, through one writer (:mod:`repro.persist.stream`).  The two commands
keep their own on-disk names, a :class:`ChainLayout` each: a campaign's
``checkpoint.json`` over ``snapshot-NNNN.jsonl`` files, a daemon's
``stream.json`` over ``poll-NNNN.jsonl``.  A checkpoint directory holds
numbered generations ``NNNN`` (the completed step count), one data file
each: ``<step>-NNNN.jsonl``, the observations of step ``NNNN - 1``, the
only copy of the generation's resolution state.  The live
:class:`~repro.core.engine.ObservationIndex` after a step indexes exactly
that step's observations, so a resume rebuilds it from this file, and the
same observations are the diff baseline of the first resumed step.

One manifest names the newest generation and pins its file by count and
by the state-signature digest of the live index
(:func:`state_signature_digest`, recomputed from the rebuilt index on
load).  Each generation's manifest is its own file, ``<manifest
stem>-NNNN.json`` (``stream-0003.json``), and the layout's manifest name
(``stream.json``) is a relative symbolic link to the newest one.  A save
lands the data file, then the generation's manifest, each under a fresh
name, and last swaps the link (:func:`~repro.persist.files.link_atomic`),
so a crash at any write leaves either the new checkpoint or the previous
one loadable, never neither.  No save replaces a regular file: on ext4,
replacing a manifest that itself arrived by a replace stalled every save
from the third on (29–33 ms medians on a 2-vCPU AMD EPYC host, against
0.07–0.3 ms for a generation's manifest plus the link swap).  The loader
reads the manifest through the link, so a directory older builds wrote,
whose manifest is a regular file, loads too, and its next save replaces
the file with a link.  The newest
``keep`` generations, their manifests with them, survive each save;
older ones are pruned only after the link points at the new manifest.
Older checkpoints also hold ``bank-NNNN-PPP.json`` sample-bank files,
listed under the manifest's ``banks`` key; a load ignores both, and
rotation prunes the files with their generation.

Durability: a save survives the process dying at any write, which the
crash sweep in ``tests/persist/chain_cases.py`` checks at each replace.
Nothing is fsynced (it measured 27–30 ms per write), so a save is not
safe against a power loss, and was not before the manifest became a
link either: the data file lands under a fresh name, which ext4's
``auto_da_alloc`` rule (flush a file's blocks before it replaces
another) does not cover.  That case is not tested here.  The link is
relative, so a directory copied with its links (``cp -a``,
``shutil.copytree(..., symlinks=True)``) loads on its own; links are
exercised on Linux only.

Everything else a resume needs is deterministic: the topology regenerates
from the scenario config and the IPv6 hitlist from the topology,
:meth:`~repro.longitudinal.campaign.LongitudinalCampaign.replay_churn`
re-injects the completed intervals' churn, and the IDS probe counters are
restored, so a resumed run matches the uninterrupted one step for step.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path
from typing import Callable, TypeVar

from repro.api.config import ScenarioConfig
from repro.core.engine import ObservationIndex
from repro.core.identifiers import IdentifierOptions
from repro.errors import DatasetError, PersistError, SimulationError
from repro.io.datasets import load_observations
from repro.jsonvalues import json_boolean, json_count, json_integer, json_string
from repro.longitudinal.campaign import LongitudinalCampaign, LongitudinalConfig
from repro.longitudinal.engine import LongitudinalEngine
from repro.net.addresses import AddressFamily
from repro.persist.files import (
    link_atomic,
    read_identifier_options,
    read_json_document,
    save_observations_atomic,
    write_atomic,
)
from repro.simnet.device import ServiceType
from repro.simnet.network import VantagePoint
from repro.simnet.topology import generate_topology
from repro.sources.hitlist import HitlistConfig, build_ipv6_hitlist
from repro.sources.records import Observation, ObservationDataset

#: Current checkpoint format version, campaign and stream manifests alike.
CHECKPOINT_FORMAT_VERSION = 1


@dataclasses.dataclass(frozen=True)
class ChainLayout:
    """The on-disk names of one kind of checkpoint directory.

    Attributes:
        manifest: the manifest file name.
        step: what one generation records (``snapshot``/``poll``); it
            prefixes the observation files and names the manifest key
            pointing at the newest one.
        kind: what error messages call the directory.
    """

    manifest: str
    step: str
    kind: str


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


@dataclasses.dataclass(frozen=True)
class LoadedChain:
    """A verified checkpoint generation, ready to resume from.

    Attributes:
        directory: the checkpoint directory it was loaded from.
        scenario: scenario configuration the network regenerates from.
        campaign: longitudinal configuration of the interrupted run.
        options: identifier construction options.
        vantage: the vantage point every step scans from.
        include_ipv6: whether the steps scan the IPv6 hitlist.
        completed: number of completed steps.
        last_name: resolution label of the last completed step.
        last_observations: that step's observations (diff baseline).
        index: the live observation index, rebuilt from
            ``last_observations`` and verified against the manifest's pin.
        probe_counts: per-(vantage, AS, window) IDS probe counters at the
            checkpoint, restored onto the regenerated network so steps
            sharing a rate-limit window with completed scans see the same
            IDS state as the uninterrupted run.
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


Loaded = TypeVar("Loaded", bound=LoadedChain)
Parsed = TypeVar("Parsed")


def read_field(value: object, parse: Callable[[object], Parsed], field: str, where: str) -> Parsed:
    """``parse(value)``; a value of the wrong JSON type or out of range fails
    naming ``field``."""
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise PersistError(f"malformed {where}: {field} {exc}") from exc


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


class CheckpointChain:
    """Writes numbered checkpoint generations under one manifest.

    ``layout`` names the files; subclasses pass their own manifest fields
    to :meth:`write`.  ``keep`` rotates the generations: the newest
    ``keep`` survive each save (the manifest points at the newest, which
    is what a resume loads; retaining more keeps fallback generations
    around if the latest files are damaged after the fact).
    """

    def __init__(
        self,
        directory: str | Path,
        scenario: ScenarioConfig,
        layout: ChainLayout,
        keep: int = 1,
    ) -> None:
        if keep < 1:
            raise PersistError(f"a checkpointer must keep at least one {layout.step}")
        self.directory = Path(directory)
        self.scenario = scenario
        self.layout = layout
        self.keep = keep

    def write(
        self,
        campaign: LongitudinalCampaign,
        index: ObservationIndex,
        completed: int,
        last_name: str,
        observations: tuple[Observation, ...],
        fields: dict,
    ) -> None:
        """Write generation ``completed``: its step file, its manifest, then
        the manifest link; then prune.

        ``fields`` are the subclass's own manifest entries.
        """
        directory = self.directory
        step = self.layout.step
        directory.mkdir(parents=True, exist_ok=True)
        observations_file = f"{step}-{completed:04d}.jsonl"
        save_observations_atomic(
            ObservationDataset(last_name, observations), directory / observations_file
        )
        generations = self._generations()
        # Numbers above ``completed`` are leftovers of an older, unrelated run
        # in a reused directory; letting them outrank the fresh files would
        # evict the generation the manifest is about to reference.
        numbers = sorted(number for number in generations if number <= completed)
        retained = numbers[-self.keep :]
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
            f"last_{step}_file": observations_file,
            "index_signature": state_signature_digest(index),
            "probe_counts": [
                [vantage_name, asn, window, count]
                for (vantage_name, asn, window), count in sorted(
                    campaign.network.export_probe_counts().items()
                )
            ],
            **fields,
            "retained": retained,
        }
        # The link lands last: whatever it points at is already on disk.
        manifest_file = f"{self._manifest_stem}-{completed:04d}.json"
        write_atomic(directory / manifest_file, json.dumps(manifest, indent=2))
        link_atomic(directory / self.layout.manifest, manifest_file)
        for number, paths in generations.items():
            if number not in retained:
                for stale in paths:
                    stale.unlink(missing_ok=True)

    @property
    def _manifest_stem(self) -> str:
        """What names each generation's manifest: ``stream`` of ``stream.json``."""
        return Path(self.layout.manifest).stem

    def _generations(self) -> dict[int, list[Path]]:
        """This chain's files in the directory, by generation number.

        A generation is its ``<step>-NNNN.jsonl`` data file and its
        ``<manifest stem>-NNNN.json`` manifest.  Names outside that scheme
        (notes, temp files, the manifest link) are never pruned.
        ``index-NNNN.json`` and ``bank-NNNN-PPP.json`` still match: older
        checkpoints stored an index snapshot and sample banks per
        generation, and those files are pruned with their generation.
        Unnumbered ``bank-PPP.json`` files of still older checkpoints are
        left alone.
        """
        pattern = re.compile(
            rf"(?:index|{self.layout.step}|{self._manifest_stem})-(\d+)\.jsonl?"
            r"|bank-(\d+)-\d+\.json"
        )
        generations: dict[int, list[Path]] = {}
        for path in self.directory.iterdir():
            match = pattern.fullmatch(path.name)
            if match is not None:
                generations.setdefault(int(match[1] or match[2]), []).append(path)
        return generations

    @staticmethod
    def read(
        directory: str | Path,
        layout: ChainLayout,
        loaded_type: type[Loaded],
        own_fields: Callable[[dict], dict],
    ) -> Loaded:
        """Load and verify the newest generation of a checkpoint directory.

        ``own_fields`` parses the subclass's manifest entries into the
        remaining ``loaded_type`` fields.

        The live index is rebuilt from the step file; its state-signature
        digest must equal the manifest's pin.  Older checkpoints also carry
        an index snapshot file and sample-bank files per generation, which
        are never read.

        Raises:
            PersistError: when the directory holds no manifest, the format
                version is unsupported, the manifest is malformed, or a
                data file is unreadable or does not match the manifest (a
                checkpoint torn between file writes).
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
            fields = {
                "scenario": ScenarioConfig(**manifest["scenario"]),
                "campaign": LongitudinalConfig(**manifest["campaign"]),
                "options": read_identifier_options(manifest["options"], where),
                "vantage": VantagePoint(**manifest["vantage"]),
                "include_ipv6": read_field(manifest["include_ipv6"], json_boolean, "include_ipv6", where),
                "completed": completed,
                "last_name": manifest["last_name"],
                "probe_counts": _probe_counts(manifest.get("probe_counts", []), where),
                **own_fields(manifest),
            }
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
        index = ObservationIndex.build(dataset, fields["options"])
        rebuilt_signature = state_signature_digest(index)
        if rebuilt_signature != index_signature:
            raise PersistError(
                f"{kind} {step} file {directory / observations_file} does not match the "
                f"manifest (manifest {index_signature[:12]}…, rebuilt index "
                f"{rebuilt_signature[:12]}…); the {kind} was likely torn mid-save"
            )
        return loaded_type(
            directory=directory,
            last_observations=tuple(dataset),
            index=index,
            **fields,
        )


def restore_campaign(
    checkpoint: LoadedChain, config: LongitudinalConfig
) -> tuple[LongitudinalCampaign, LongitudinalEngine]:
    """Regenerate a checkpoint's campaign under ``config`` and restore its engine.

    The topology regenerates from the scenario config, the hitlist from the
    topology; the completed intervals' churn is replayed and the IDS probe
    counters restored before the engine resumes from the restored index.
    """
    scenario = checkpoint.scenario
    network = generate_topology(scenario.topology_config())
    hitlist = None
    if checkpoint.include_ipv6:
        hitlist = build_ipv6_hitlist(
            network,
            HitlistConfig(
                server_coverage=scenario.hitlist_server_coverage,
                router_coverage=scenario.hitlist_router_coverage,
                seed=scenario.seed,
            ),
        )
    campaign = LongitudinalCampaign(
        network,
        vantage=checkpoint.vantage,
        hitlist=hitlist,
        config=config,
        options=checkpoint.options,
    )
    campaign.replay_churn(checkpoint.completed)
    network.restore_probe_counts(checkpoint.probe_counts)
    engine = LongitudinalEngine.restore(checkpoint.index, checkpoint.last_name)
    return campaign, engine
