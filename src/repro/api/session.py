"""The :class:`ReproSession` facade — one object to assemble a reproduction.

A session owns the shared state a reproduction is built from (the simulated
Internet, the IPv6 hitlist) and the caches that make composition cheap
(datasets per :class:`~repro.api.sources.SourceSpec`, alias reports per
composition).  The simulated Internet is built on first use: a session
loaded from disk re-scores from its saved sample banks and renders Tables
5 and 6 from its saved AS table without building it.  Everything else goes
through the registries:

* ``session.dataset("censys")`` / ``session.dataset(spec)`` — collect (or
  fetch from cache) one observation dataset,
* ``session.report("union")`` — resolve a source composition into an
  :class:`~repro.core.engine.AliasReport`,
* ``session.run_experiment("table3")`` — build and render a registered
  experiment,
* ``session.longitudinal(...)`` — a churn campaign over a fresh network of
  the same configuration, scanned from the active sources' one vantage
  point.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro import obs
from repro.api.config import ScenarioConfig
from repro.api.sources import REPORT_SPECS, SOURCES, SourceSpec, build_source, streamed_specs
from repro.core.engine import AliasReport, ResolutionEngine
from repro.core.identifiers import DEFAULT_OPTIONS, IdentifierOptions
from repro.longitudinal.campaign import LongitudinalCampaign, LongitudinalConfig
from repro.simnet.asn import AsRegistry
from repro.simnet.network import SimulatedInternet
from repro.simnet.topology import TopologyConfig, generate_topology
from repro.sources.active import ACTIVE_VANTAGE
from repro.sources.hitlist import HitlistConfig, build_ipv6_hitlist
from repro.sources.records import Observation, ObservationDataset, iter_observations

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.validation.bank import IpidSampleBank
    from repro.validation.report import ValidationReport
    from repro.validation.runner import ValidationRun
    from repro.validation.spec import ValidatorSpec


class ReproSession:
    """Shared state, caches, and registry-driven composition."""

    def __init__(
        self,
        config: ScenarioConfig | None = None,
        options: IdentifierOptions = DEFAULT_OPTIONS,
    ) -> None:
        self.config = config or ScenarioConfig()
        self.options = options
        self._network: SimulatedInternet | None = None
        #: The AS table a load read; ``None`` reads the network's registry.
        self._as_registry: AsRegistry | None = None
        self._hitlist: list[str] | None = None
        self._datasets: dict[SourceSpec, ObservationDataset] = {}
        #: The file each primed dataset was loaded from or last saved to,
        #: the SHA-256 pin its bytes were checked against, and the dataset
        #: with the name and length it had then (see :meth:`dataset_file`).
        self._dataset_files: dict[
            SourceSpec, tuple[Path, str, ObservationDataset, str, int]
        ] = {}
        self._reports: dict[tuple[SourceSpec, str], AliasReport] = {}
        self._validations: dict[tuple["ValidatorSpec", str], "ValidationReport"] = {}
        self._validation_run: "ValidationRun | None" = None

    # ------------------------------------------------------------------ #
    # Shared measurement state
    # ------------------------------------------------------------------ #
    @property
    def network(self) -> SimulatedInternet:
        """The simulated Internet under measurement (built once)."""
        if self._network is None:
            self._network = generate_topology(self.topology_config())
        return self._network

    def topology_config(self) -> TopologyConfig:
        """The topology configuration implied by the session config."""
        return self.config.topology_config()

    @property
    def as_registry(self) -> AsRegistry:
        """Every AS's number, name and role: what Tables 5 and 6 join on.

        A loaded session reads the table its save stored (names and roles
        only, no prefixes), so rendering those tables builds no topology;
        otherwise this is :attr:`network`'s registry.
        """
        if self._as_registry is None:
            return self.network.registry
        return self._as_registry

    @property
    def hitlist(self) -> list[str]:
        """The IPv6 hitlist used by active IPv6 scans (built once)."""
        if self._hitlist is None:
            self._hitlist = build_ipv6_hitlist(self.network, self.hitlist_config())
        return self._hitlist

    def hitlist_config(self) -> HitlistConfig:
        """The hitlist configuration implied by the session config."""
        return self.config.hitlist_config()

    # ------------------------------------------------------------------ #
    # Sources and datasets
    # ------------------------------------------------------------------ #
    def spec(self, source: str | SourceSpec) -> SourceSpec:
        """Resolve a source name (or pass a spec through) to a spec."""
        if isinstance(source, SourceSpec):
            return source
        return SOURCES.get(source)

    def dataset(self, source: str | SourceSpec) -> ObservationDataset:
        """The dataset of one source, built at most once per session."""
        spec = self.spec(source)
        dataset = self._datasets.get(spec)
        if dataset is None:
            if obs.is_enabled():
                obs.add("session.cache", 1, kind="dataset", outcome="miss")
            with obs.span("session.dataset", kind=spec.kind):
                dataset = self._datasets[spec] = build_source(self, spec)
        else:
            if obs.is_enabled():
                obs.add("session.cache", 1, kind="dataset", outcome="hit")
        return dataset

    def observations(self, source: str | SourceSpec) -> Iterator[Observation]:
        """Stream one source composition's observations.

        String names use the *report* composition where one exists
        (``"censys"`` streams the default-port view, as the paper's
        analysis does), falling back to the named source's dataset.
        """
        return self._stream(self._report_spec(source))

    def _stream(self, spec: SourceSpec) -> Iterator[Observation]:
        """Stream a spec, chaining concat inputs instead of materialising.

        A concat is pure sequencing — caching its list under the spec would
        hold a second copy of every already-cached input dataset, which is
        exactly the copy the single-pass engine's streaming design avoids.
        Explicit ``dataset(concat_spec)`` calls (e.g. ``repro scan``, which
        needs a length and a name to write a file) still materialise.
        """
        return iter_observations(*(self.dataset(leaf) for leaf in streamed_specs(spec)))

    def _report_spec(self, source: str | SourceSpec) -> SourceSpec:
        if isinstance(source, SourceSpec):
            return source
        report_spec = REPORT_SPECS.get(source)
        if report_spec is not None:
            return report_spec
        return SOURCES.get(source)

    @staticmethod
    def _default_name(spec: SourceSpec) -> str:
        """The display name a bare spec resolves under.

        Prefers the name the spec is registered under, so ``report(spec)``
        and ``report(name)`` of the same composition share one cache entry
        instead of re-resolving under a second cosmetic name.
        """
        for name, report_spec in REPORT_SPECS.items():
            if report_spec == spec:
                return name
        for entry in SOURCES:
            if entry.value == spec:
                return entry.name
        return spec.label or spec.kind

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def report(
        self,
        source: str | SourceSpec,
        name: str | None = None,
    ) -> AliasReport:
        """Alias-resolution report over one source composition (cached)."""
        spec = self._report_spec(source)
        if name is None:
            name = source if isinstance(source, str) else self._default_name(spec)
        key = (spec, name)
        if key not in self._reports:
            if obs.is_enabled():
                obs.add("session.cache", 1, kind="report", outcome="miss")
            with obs.span("session.report", name=name):
                self._reports[key] = ResolutionEngine(self.options).resolve(
                    self._stream(spec), name=name
                )
        else:
            if obs.is_enabled():
                obs.add("session.cache", 1, kind="report", outcome="hit")
        return self._reports[key]

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    @property
    def validation_run(self) -> "ValidationRun":
        """The shared validation state: the session's one sample bank.

        Built once per session, so successive :meth:`validate` calls share
        collected IPID series, all probed from
        :data:`~repro.validation.runner.VALIDATION_VANTAGE`: a
        ``validate("ally")`` after ``validate("midar")`` answers most pair
        tests from MIDAR's banked corroboration instead of the network.  The run reads
        :attr:`network` only when a bank first misses, so building it, and
        re-scoring wholly from restored banks, builds no topology.
        """
        if self._validation_run is None:
            from repro.validation.runner import ValidationRun

            self._validation_run = ValidationRun(session=self)
        return self._validation_run

    def validate_budgeted(
        self,
        validators: "Iterable[str | ValidatorSpec]",
        budget: int | None = None,
    ):
        """Run several validators in order under one global probe budget.

        One :class:`~repro.validation.budget.ProbeBudget` (``budget=None``
        is uncapped) spans every validator, and each validator's candidate
        sets are processed largest first.  Uncapped on a fresh session, each
        report equals the one :meth:`validate` gives when the validators
        are validated one after another.  Sets the budget cannot afford are
        reported ``unresolved``; a session restored from :meth:`save`
        answers matching schedules from its persisted banks — zero network
        probes, so ``budget=0`` re-scores from them.  Returns a
        :class:`~repro.validation.budget.BudgetRunResult`; reports are
        *not* entered into the :meth:`validate` cache (budgeted runs are
        explicit experiments, not the canonical per-spec verdicts).
        """
        from repro.validation.budget import run_budgeted

        with obs.span("session.validate_budgeted", budget=budget):
            return run_budgeted(self.validation_run, list(validators), budget=budget)

    def validate(
        self, validator: "str | ValidatorSpec", name: str | None = None
    ) -> "ValidationReport":
        """Run one validator composition (cached per spec).

        ``validator`` is a registered name (``"midar"``, ``"ally"``, …) or
        an explicit :class:`~repro.validation.spec.ValidatorSpec`.  Like
        datasets and reports, results cache under the spec: the Table 2
        experiment and a later ``validate("midar")`` share one run.  The
        run spends from a fresh uncapped probe budget, so the report equals
        ``validate_budgeted([validator]).validations[0].report``.
        Validations probe the live network sequentially (IPID counters are
        stateful), so a cached report reflects the session state at the
        time it first ran — exactly like a real measurement campaign.
        """
        from repro.validation.runner import run_validator
        from repro.validation.spec import VALIDATORS, ValidatorSpec, display_name

        spec = validator if isinstance(validator, ValidatorSpec) else VALIDATORS.get(validator)
        if name is None:
            name = validator if isinstance(validator, str) else display_name(spec)
        key = (spec, name)
        if key not in self._validations:
            if obs.is_enabled():
                obs.add("session.cache", 1, kind="validation", outcome="miss")
            with obs.span("session.validate", name=name):
                self._validations[key] = run_validator(self.validation_run, spec)
        else:
            if obs.is_enabled():
                obs.add("session.cache", 1, kind="validation", outcome="hit")
        return self._validations[key]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def cached_datasets(self) -> dict[SourceSpec, ObservationDataset]:
        """The dataset cache, keyed by spec (shared reference, read-only)."""
        return self._datasets

    def cached_reports(self) -> dict[tuple[SourceSpec, str], AliasReport]:
        """The report cache, keyed by (spec, name) (shared reference, read-only)."""
        return self._reports

    def cached_validations(self) -> dict[tuple["ValidatorSpec", str], "ValidationReport"]:
        """The validation cache, keyed by (spec, name) (shared reference, read-only)."""
        return self._validations

    def prime_dataset(
        self,
        spec: SourceSpec,
        dataset: ObservationDataset,
        file: tuple[Path, str] | None = None,
    ) -> None:
        """Seed the dataset cache (used by :mod:`repro.persist`).

        ``file`` is the path ``dataset`` was loaded from, or saved to, and
        the SHA-256 pin its bytes matched; a later save copies that file
        while its bytes still match.  Priming without a file clears the
        record, so the next save encodes the dataset.
        """
        self._datasets[spec] = dataset
        if file is None:
            self._dataset_files.pop(spec, None)
        else:
            self._dataset_files[spec] = (*file, dataset, dataset.name, len(dataset))

    def dataset_file(self, spec: SourceSpec) -> tuple[Path, str] | None:
        """The file and pin :meth:`prime_dataset` recorded for ``spec``, if any.

        ``None`` once the cached dataset is another object, or has another
        name or length than it had when recorded: ``add`` and ``extend``
        only grow a dataset, so the file no longer holds it.
        """
        record = self._dataset_files.get(spec)
        if record is None:
            return None
        path, digest, dataset, name, count = record
        current = self._datasets.get(spec)
        if current is not dataset or current.name != name or len(current) != count:
            return None
        return path, digest

    def prime_validation(
        self, spec: "ValidatorSpec", name: str, report: "ValidationReport"
    ) -> None:
        """Seed the validation cache (used by :mod:`repro.persist` on load)."""
        self._validations[(spec, name)] = report

    def prime_bank(self, bank: "IpidSampleBank") -> None:
        """Install a restored sample bank (used by :mod:`repro.persist` on load).

        The bank becomes :attr:`validation_run`'s, bound to the session's
        network, which it builds only at its first miss: a load builds no
        topology, and neither does a re-score its bank answers.  It must be
        a bank of :data:`~repro.validation.runner.VALIDATION_VANTAGE`.
        """
        self.validation_run.restore_bank(bank)

    def prime_as_registry(self, registry: AsRegistry) -> None:
        """Seed the AS table (used by :mod:`repro.persist` on load)."""
        self._as_registry = registry

    def cached_as_registry(self) -> AsRegistry | None:
        """The AS table if the session holds one, loaded or from its built
        network; ``None`` otherwise (this never builds the topology)."""
        if self._as_registry is None and self._network is not None:
            return self._network.registry
        return self._as_registry

    def validation_bank_states(self) -> list[dict]:
        """The exported state of the session's sample bank, if it has one."""
        if self._validation_run is None:
            return []
        return [bank.export_state() for bank in self._validation_run.banks().values()]

    def save(self, directory) -> "ReproSession":
        """Persist this session's configuration and caches to ``directory``.

        The saved directory can be re-loaded in another process with
        :meth:`load`: measured datasets round-trip byte-faithfully, and
        merged datasets and reports are rebuilt from them (see
        :mod:`repro.persist.session`).  A measured dataset this session
        loaded, or last saved, from a pinned file is written by copying
        that file's bytes once they match the pin again, unless the
        dataset has grown or been renamed since; any other is encoded.
        The AS table is saved when the session holds one; a save never
        builds the topology to get it.  Returns ``self`` for chaining.
        """
        from repro.persist.session import save_session

        save_session(self, directory)
        return self

    @staticmethod
    def load(directory) -> "ReproSession":
        """Rebuild a saved session with its dataset and report caches primed."""
        from repro.persist.session import load_session

        return load_session(directory)

    # ------------------------------------------------------------------ #
    # Experiments
    # ------------------------------------------------------------------ #
    def run_experiment(self, name: str) -> str:
        """Build and render one registered experiment."""
        from repro.api.experiments import get_experiment

        return get_experiment(name).run(self)

    def run_experiments(self, names: Iterable[str] | None = None) -> dict[str, str]:
        """Render several experiments (all registered ones by default)."""
        from repro.api.experiments import experiment_names, get_experiment

        selected = list(names) if names is not None else experiment_names()
        return {name: get_experiment(name).run(self) for name in selected}

    def claims(self):
        """Evaluate the paper's headline claims on this session."""
        from repro.experiments.runner import headline_claims

        return headline_claims(self)

    # ------------------------------------------------------------------ #
    # Longitudinal campaigns
    # ------------------------------------------------------------------ #
    def longitudinal(
        self,
        snapshots: int = 4,
        churn_fraction: float = 0.02,
        interval: float = 7 * 86400.0,
        include_ipv6: bool = True,
    ) -> LongitudinalCampaign:
        """A longitudinal campaign over this session's configuration.

        The campaign runs on a *fresh* network generated from the same
        topology configuration: campaigns inject churn as they go, and
        sharing the session's network instance would let that churn leak
        into the cached single-snapshot datasets.
        """
        network = generate_topology(self.topology_config())
        hitlist = (
            build_ipv6_hitlist(network, self.hitlist_config()) if include_ipv6 else None
        )
        return LongitudinalCampaign(
            network,
            vantage=ACTIVE_VANTAGE,
            hitlist=hitlist,
            config=LongitudinalConfig(
                snapshots=snapshots,
                interval=interval,
                churn_fraction=churn_fraction,
                seed=self.config.seed,
            ),
        )
