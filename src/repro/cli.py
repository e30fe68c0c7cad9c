"""Command-line interface.

The CLI mirrors how the paper's artifacts would be used in practice:

* ``repro scan`` — generate a simulated Internet and run measurement
  campaigns for any registered observation source, writing datasets to
  disk (``--list-sources`` enumerates the source registry).  The paper's
  sources scan from one active vantage point and take one distributed
  Censys-like snapshot.
* ``repro resolve`` — run alias resolution and dual-stack inference over
  one or more observation datasets and write alias sets plus a markdown
  report.
* ``repro experiments`` — regenerate registered tables and figures
  (``--list`` enumerates the experiment registry).
* ``repro claims`` — evaluate the paper's headline claims against the
  measured numbers.
* ``repro longitudinal`` — run a multi-snapshot campaign over a churning
  simulated Internet on the stream's poll loop, resolving each snapshot
  incrementally, and print per-snapshot stability tables (``--checkpoint``
  persists a resumable state after every snapshot; ``--resume`` continues
  an interrupted campaign in a new process, snapshot-for-snapshot
  identical to the uninterrupted run).
* ``repro validate`` — run registered validator compositions (MIDAR, Ally,
  Speedtrap — ``--list-validators`` enumerates the registry) against the
  session's alias sets, sharing one IPID sample bank; ``--snapshots N``
  instead validates every snapshot of a churning longitudinal campaign
  (the paper's MIDAR-disagreement series).
* ``repro serve`` — run the same poll loop as a streaming resolution
  daemon: poll the simulated Internet as a live event source, keep the
  alias report current through the incremental engine, count each
  poll's typed change events, and infer the churn rate online
  (``--checkpoint``/``--resume`` give the daemon kill-and-resume
  durability).
* ``repro session save`` / ``repro session load`` — persist a measurement
  session (datasets, resolved reports, validations, configuration) and
  restore it in another process with its caches warm.

The subcommands are built on the session API (:mod:`repro.api`): sources
and experiments resolve through registries, so registering a new source or
experiment makes it available here without touching this module.

Every data-generating subcommand takes ``--scale`` (default 1.0), the
positive multiplier on the simulated Internet's device counts: 1.0 yields a few
tens of thousands of addresses — every distributional result at laptop
scale — while smaller values trade fidelity for speed (e.g. 0.1 for smoke
tests).  Run ``python -m repro --help`` for details.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro import obs
from repro.analysis.report import alias_report_markdown
from repro.analysis.stability import stability_markdown_from, stability_table_from
from repro.analysis.validation import (
    probe_accounting_summary,
    snapshot_validation_table,
    validation_markdown,
    validation_table,
)
from repro.api.config import ScenarioConfig
from repro.api.experiments import all_experiments, get_experiment
from repro.api.session import ReproSession
from repro.api.sources import SOURCES
from repro.core.engine import ResolutionEngine
from repro.devtools.cli import add_lint_parser, run_lint
from repro.errors import DatasetError, RegistryError
from repro.experiments import runner
from repro.io.datasets import load_observations, save_alias_sets, save_observations
from repro.longitudinal.campaign import CampaignLog, LongitudinalCampaign
from repro.net.addresses import AddressFamily
from repro.persist.files import write_atomic
from repro.persist.stream import (
    CAMPAIGN_LAYOUT,
    StreamCheckpointer,
    load_stream_checkpoint,
    resume_stream,
)
from repro.sources.records import iter_observations
from repro.stream.daemon import DaemonConfig, StreamDaemon
from repro.stream.engine import StreamConfig, StreamingEngine
from repro.validation.budget import ProbeBudget, is_unresolved
from repro.validation.longitudinal import validate_snapshots
from repro.validation.runner import ValidationRun
from repro.validation.spec import VALIDATORS


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Protocol-centric alias resolution and dual-stack inference (IMC 2023 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    scenario = _scenario_parser()

    scan = subparsers.add_parser(
        "scan", parents=[scenario], help="simulate the Internet and run the measurement campaigns"
    )
    scan.add_argument(
        "--output", type=_output_directory, default=None, help="directory for the observation datasets"
    )
    scan.add_argument(
        "--sources",
        nargs="*",
        default=["active", "censys"],
        metavar="SOURCE",
        help="registered sources to collect (default: active censys; see --list-sources)",
    )
    _add_metrics_flag(scan)
    scan.add_argument(
        "--list-sources",
        action="store_true",
        help="list the registered observation sources and exit",
    )

    resolve = subparsers.add_parser("resolve", help="run alias resolution over observation datasets")
    resolve.add_argument("datasets", nargs="+", type=Path, help="observation JSONL files")
    resolve.add_argument(
        "--output", type=_output_directory, required=True, help="directory for alias sets and report"
    )
    resolve.add_argument("--name", default="resolved", help="name of the combined dataset")
    resolve.add_argument(
        "--stats",
        action="store_true",
        help="print index build statistics (counts, interned table sizes)",
    )
    _add_metrics_flag(resolve)

    experiments = subparsers.add_parser(
        "experiments", parents=[scenario], help="regenerate the paper's tables and figures"
    )
    experiments.add_argument(
        "--only",
        nargs="*",
        default=None,
        metavar="NAME",
        help="subset of experiments, e.g. table3 figure5 (default: all)",
    )
    experiments.add_argument(
        "--list",
        action="store_true",
        help="list the registered experiments and exit",
    )

    subparsers.add_parser(
        "claims", parents=[scenario], help="evaluate the paper's headline claims"
    )

    longitudinal = subparsers.add_parser(
        "longitudinal",
        parents=[scenario],
        help="multi-snapshot campaign over a churning network, resolved incrementally",
    )
    longitudinal.add_argument(
        "--snapshots",
        type=int,
        default=None,
        help="number of measurement snapshots (default 4; with --resume: "
        "extend the campaign past the checkpointed horizon)",
    )
    longitudinal.add_argument(
        "--churn",
        type=float,
        default=0.02,
        help="fraction of addresses reassigned between snapshots (default 0.02)",
    )
    _add_interval_days_flag(longitudinal, "snapshots")
    longitudinal.add_argument(
        "--ipv4-only", action="store_true", help="skip the IPv6 hitlist scans"
    )
    longitudinal.add_argument(
        "--output", type=_output_directory, default=None, help="optional directory for stability.md"
    )
    longitudinal.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist a resumable checkpoint to DIR after every snapshot",
    )
    longitudinal.add_argument(
        "--resume",
        type=Path,
        default=None,
        metavar="DIR",
        help="resume the campaign checkpointed in DIR (ignores --scale/--seed/"
        "--churn/--interval-days/--ipv4-only: they come from the checkpoint)",
    )
    _add_metrics_flag(longitudinal)

    validate = subparsers.add_parser(
        "validate",
        parents=[scenario],
        help="run registered validators against the session's alias sets",
    )
    validate.add_argument(
        "--validators",
        nargs="*",
        default=["midar"],
        metavar="NAME",
        help="registered validators to run, in order — later ones reuse the "
        "shared IPID sample bank (default: midar; see --list-validators)",
    )
    validate.add_argument(
        "--list-validators",
        action="store_true",
        help="list the registered validators and exit",
    )
    validate.add_argument(
        "--snapshots",
        type=int,
        default=None,
        metavar="N",
        help="validate every snapshot of an N-snapshot churning campaign "
        "instead of the single-shot session (the MIDAR-disagreement series)",
    )
    validate.add_argument(
        "--churn",
        type=float,
        default=0.02,
        help="campaign churn fraction for --snapshots mode (default 0.02)",
    )
    _add_interval_days_flag(validate, "campaign snapshots")
    validate.add_argument(
        "--ipv4-only",
        action="store_true",
        help="skip the IPv6 hitlist scans in --snapshots mode",
    )
    validate.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="run the requested validators under one probe budget capped at "
        "N fresh network probes; candidate sets the budget cannot afford are "
        "reported unresolved, never mis-verdicted (the session is fresh, so "
        "N=0 leaves every set that needs a fresh probe unresolved)",
    )
    validate.add_argument(
        "--output", type=_output_directory, default=None, help="optional directory for validation.md"
    )
    _add_metrics_flag(validate)

    serve = subparsers.add_parser(
        "serve",
        parents=[scenario],
        help="run the streaming resolution daemon over a churning network",
    )
    serve.add_argument(
        "--churn",
        type=float,
        default=0.02,
        help="fraction of addresses reassigned between polls (default 0.02)",
    )
    _add_interval_days_flag(serve, "daemon polls")
    serve.add_argument(
        "--max-batches",
        type=int,
        default=4,
        metavar="N",
        help="stop after N polls (default 4)",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wall-clock seconds to wait between polls; SIGINT/SIGTERM end "
        "the wait (default 0: poll back-to-back)",
    )
    serve.add_argument(
        "--ipv4-only", action="store_true", help="skip the IPv6 hitlist scans"
    )
    serve.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist a resumable daemon checkpoint to DIR after every poll",
    )
    serve.add_argument(
        "--resume",
        type=Path,
        default=None,
        metavar="DIR",
        help="resume the daemon checkpointed in DIR (ignores --scale/--seed/"
        "--churn/--interval-days/--ipv4-only: they come from the checkpoint)",
    )
    _add_metrics_flag(serve)

    add_lint_parser(subparsers)

    session = subparsers.add_parser(
        "session", help="persist and restore measurement sessions"
    )
    session_commands = session.add_subparsers(dest="session_command", required=True)
    session_save = session_commands.add_parser(
        "save",
        parents=[scenario],
        help="collect datasets, resolve reports, and save the session",
    )
    session_save.add_argument("directory", type=Path, help="target session directory")
    session_save.add_argument(
        "--sources",
        nargs="*",
        default=[],
        metavar="SOURCE",
        help="registered sources to collect into the dataset cache",
    )
    session_save.add_argument(
        "--reports",
        nargs="*",
        default=["active", "censys", "union"],
        metavar="NAME",
        help="report compositions to resolve before saving "
        "(default: active censys union)",
    )
    session_load = session_commands.add_parser(
        "load", help="restore a saved session and optionally render experiments"
    )
    session_load.add_argument("directory", type=Path, help="saved session directory")
    session_load.add_argument(
        "--experiments",
        nargs="*",
        default=None,
        metavar="NAME",
        help="experiments to render from the restored session "
        "(no names: render all registered ones)",
    )
    return parser


def _positive_scale(text: str) -> float:
    """Parse ``--scale``: a finite, positive multiplier on the device counts."""
    try:
        scale = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number (got {text!r})") from None
    if not (math.isfinite(scale) and scale > 0):
        raise argparse.ArgumentTypeError(f"must be positive (got {text})")
    return scale


def _output_directory(text: str) -> Path:
    """Parse ``--output``: a directory, or a path one can be created at.

    Rejected before any work runs: a path that is not a directory, or
    whose nearest existing ancestor is not one.
    """
    path = Path(text)
    for candidate in (path, *path.parents):
        if candidate.exists():
            if not candidate.is_dir():
                raise argparse.ArgumentTypeError(f"{candidate} is not a directory")
            break
    return path


def _scenario_parser() -> argparse.ArgumentParser:
    """The ``--scale``/``--seed`` pair every data-generating subcommand shares."""
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument(
        "--scale",
        type=_positive_scale,
        default=1.0,
        help="topology scale factor (default 1.0)",
    )
    scenario.add_argument("--seed", type=int, default=42, help="scenario seed (default 42)")
    return scenario


def _add_interval_days_flag(
    subparser: argparse.ArgumentParser, between: str
) -> None:
    """Attach the shared ``--interval-days`` campaign-cadence flag.

    Every campaign-shaped subcommand (longitudinal, validate --snapshots,
    serve) takes the same flag with the same default; ``between`` names
    what the interval separates in the help text.
    """
    subparser.add_argument(
        "--interval-days",
        type=float,
        default=7.0,
        help=f"simulated days between {between} (default 7)",
    )


def _campaign_rate_error(args: argparse.Namespace) -> str | None:
    """Usage error in the shared campaign-shape flags, if any.

    ``--interval-days`` must be positive and finite, also once converted
    to seconds, and ``--churn`` inside [0, 1) — the same bounds
    :class:`~repro.longitudinal.campaign.LongitudinalConfig` enforces,
    rejected here as a usage error (exit code 2) instead of a traceback.
    """
    interval_days = getattr(args, "interval_days", None)
    if interval_days is not None and not (
        interval_days > 0 and math.isfinite(interval_days * 86400.0)
    ):
        return f"--interval-days must be positive and finite (got {interval_days})"
    churn = getattr(args, "churn", None)
    if churn is not None and not 0.0 <= churn < 1.0:
        return f"--churn must be in [0, 1) (got {churn})"
    return None


def _add_metrics_flag(subparser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--metrics FILE`` observability flag."""
    subparser.add_argument(
        "--metrics",
        type=Path,
        default=None,
        metavar="FILE",
        help="enable metrics + span tracing for this command and write the "
        "registry to FILE (JSON; Prometheus text when FILE ends in .prom "
        "or .txt)",
    )


def _write_metrics(path: Path, registry: obs.MetricsRegistry) -> None:
    """Render the registry to ``path`` (format chosen by suffix)."""
    if path.suffix in (".prom", ".txt"):
        write_atomic(path, registry.prometheus_text())
    else:
        write_atomic(path, json.dumps(registry.to_json(), indent=2) + "\n")
    print(f"wrote {path}")


def _session(args: argparse.Namespace) -> ReproSession:
    return ReproSession(ScenarioConfig(scale=args.scale, seed=args.seed))


def _command_scan(args: argparse.Namespace) -> int:
    if args.list_sources:
        for entry in SOURCES:
            print(f"{entry.name:16} {entry.description}")
        return 0
    if not args.sources:
        print("no sources requested: pass --sources with at least one name "
              "(see repro scan --list-sources)", file=sys.stderr)
        return 2
    if args.output is None:
        print("scan requires --output (or --list-sources)", file=sys.stderr)
        return 2
    session = _session(args)
    try:
        specs = [(name, session.spec(name)) for name in args.sources]
    except RegistryError as error:
        print(str(error), file=sys.stderr)
        return 2
    args.output.mkdir(parents=True, exist_ok=True)
    for name, spec in specs:
        dataset = session.dataset(spec)
        path = args.output / f"{name}.jsonl"
        save_observations(dataset, path)
        print(f"wrote {path} ({len(dataset)} observations)")
    return 0


def _print_index_stats(index) -> None:
    """Print the --stats block: index counts and table sizes."""
    stats = index.stats()
    print("index build statistics:")
    print(f"  observed observations:   {stats['observed']}")
    print(f"  indexed observations:    {stats['indexed']}")
    print(f"  interned addresses:      {stats['address_symbols']}")
    print(f"  interned identifiers:    {stats['identifier_symbols']}")
    for bucket, payload in stats["buckets"].items():
        print(
            f"  bucket {bucket}: {payload['identifiers']} identifiers, "
            f"{payload['member_cells']} member cells"
        )


def _command_resolve(args: argparse.Namespace) -> int:
    datasets = []
    try:
        for path in args.datasets:
            dataset = load_observations(path)
            datasets.append(dataset)
            print(f"loaded {path} ({len(dataset)} observations)")
    except DatasetError as error:
        print(str(error), file=sys.stderr)
        return 2
    # Feed the loaded datasets through the single-pass engine as one stream.
    engine = ResolutionEngine()
    index = engine.index(iter_observations(*datasets))
    report = engine.report(index, name=args.name)
    if args.stats:
        _print_index_stats(index)
    args.output.mkdir(parents=True, exist_ok=True)
    save_alias_sets(report.ipv4_union, args.output / "ipv4_alias_sets.json")
    save_alias_sets(report.ipv6_union, args.output / "ipv6_alias_sets.json")
    write_atomic(args.output / "report.md", alias_report_markdown(report))
    print(f"IPv4 non-singleton alias sets: {len(report.ipv4_union.non_singleton())}")
    print(f"IPv6 non-singleton alias sets: {len(report.ipv6_union.non_singleton())}")
    print(f"dual-stack sets: {len(report.dual_stack_union)}")
    print(f"wrote {args.output / 'ipv4_alias_sets.json'}")
    print(f"wrote {args.output / 'ipv6_alias_sets.json'}")
    print(f"wrote {args.output / 'report.md'}")
    return 0


def _render_experiments(session: ReproSession, names: list[str] | None) -> int:
    """Print each named experiment rendered from ``session`` (every
    registered one when ``names`` is empty); exit 2 on an unknown name."""
    try:
        selected = [
            get_experiment(name) for name in (names or [e.name for e in all_experiments()])
        ]
    except RegistryError as error:
        print(str(error), file=sys.stderr)
        return 2
    for registered in selected:
        print(f"=== {registered.name}")
        print(registered.run(session))
        print()
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    if args.list:
        for registered in all_experiments():
            print(f"{registered.name:12} {registered.description}")
        return 0
    return _render_experiments(_session(args), args.only)


def _command_claims(args: argparse.Namespace) -> int:
    session = _session(args)
    failed = 0
    for claim in runner.headline_claims(session):
        status = "OK  " if claim.holds else "FAIL"
        print(f"[{status}] {claim.identifier}: {claim.description}")
        print(f"       paper: {claim.paper}")
        print(f"       repro: {claim.measured}")
        if not claim.holds:
            failed += 1
    return 1 if failed else 0


def _fresh_loop(
    args: argparse.Namespace, session: ReproSession, snapshots: int
) -> tuple[LongitudinalCampaign, StreamingEngine]:
    """The campaign event source and stream of a fresh poll loop."""
    campaign = session.longitudinal(
        snapshots=snapshots,
        churn_fraction=args.churn,
        interval=args.interval_days * 86400.0,
        include_ipv6=not args.ipv4_only,
    )
    stream = StreamingEngine(
        config=StreamConfig(churn_interval=campaign.config.interval),
        options=campaign.options,
    )
    return campaign, stream


def _write_stability_markdown(output: Path | None, markdown: str) -> None:
    """Write stability.md into ``output`` when requested."""
    if output is None:
        return
    output.mkdir(parents=True, exist_ok=True)
    path = output / "stability.md"
    write_atomic(path, markdown)
    print(f"wrote {path}")


def _command_longitudinal(args: argparse.Namespace) -> int:
    if (error := _campaign_rate_error(args)) is not None:
        print(error, file=sys.stderr)
        return 2
    if args.resume is not None:
        try:
            checkpoint = load_stream_checkpoint(args.resume, CAMPAIGN_LAYOUT)
            campaign, stream = resume_stream(checkpoint, snapshots=args.snapshots)
        except DatasetError as error:  # PersistError included — it subclasses this
            print(str(error), file=sys.stderr)
            return 2
        print(
            f"resuming after snapshot {checkpoint.completed - 1} "
            f"({checkpoint.completed}/{campaign.config.snapshots} snapshots completed)"
        )
        scenario, log, include_ipv6 = checkpoint.scenario, checkpoint.log, checkpoint.include_ipv6
    else:
        snapshots = args.snapshots if args.snapshots is not None else 4
        if snapshots < 1:
            print("a campaign needs at least one snapshot", file=sys.stderr)
            return 2
        session = _session(args)
        campaign, stream = _fresh_loop(args, session, snapshots)
        scenario, log, include_ipv6 = session.config, CampaignLog(), not args.ipv4_only
    start = stream.emitted
    checkpoint_dir = args.checkpoint if args.checkpoint is not None else args.resume
    checkpointer = None
    if checkpoint_dir is not None:
        checkpointer = StreamCheckpointer(checkpoint_dir, scenario, log=log)
    if campaign.config.snapshots > start:
        StreamDaemon(
            campaign,
            stream,
            DaemonConfig(max_polls=campaign.config.snapshots - start),
            checkpointer=checkpointer,
            log=log,
        ).run()
    families = [AddressFamily.IPV4, AddressFamily.IPV6] if include_ipv6 else [AddressFamily.IPV4]
    for position, family in enumerate(families):
        if position:
            print()
        print(stability_table_from(log.stability[family], campaign.config, family))
    polled = log.stability[AddressFamily.IPV4][start:]
    added = sum(row.added for row in polled)
    removed = sum(row.removed for row in polled)
    print()
    if args.resume is None:
        print(
            f"incrementally re-resolved {len(polled) - 1} deltas "
            f"(+{added}/-{removed} observations) on top of "
            f"{polled[0].observations} bootstrap observations"
        )
    else:
        print(
            f"resumed {len(polled)} snapshots "
            f"(+{added}/-{removed} observations) on the restored index"
        )
    print(f"final IPv4 non-singleton union sets: {len(stream.report.ipv4_union.non_singleton())}")
    if checkpointer is not None and args.resume is None:
        print(f"checkpointed {len(polled)} snapshots to {args.checkpoint}")
    _write_stability_markdown(args.output, stability_markdown_from(log.stability))
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    if args.list_validators:
        for entry in VALIDATORS:
            print(f"{entry.name:12} {entry.description}")
        return 0
    if not args.validators:
        print("no validators requested: pass --validators with at least one "
              "name (see repro validate --list-validators)", file=sys.stderr)
        return 2
    if (error := _campaign_rate_error(args)) is not None:
        print(error, file=sys.stderr)
        return 2
    try:
        names = [(name, VALIDATORS.get(name)) for name in args.validators]
    except RegistryError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.budget is not None and args.budget < 0:
        print("--budget cannot be negative", file=sys.stderr)
        return 2
    session = _session(args)
    if args.snapshots is not None:
        return _validate_snapshots(args, session, names)
    if args.budget is not None:
        result = session.validate_budgeted(
            [name for name, _ in names], budget=args.budget
        )
        reports = list(result.reports)
    else:
        reports = [session.validate(name) for name, _ in names]
    print(validation_table(reports))
    print()
    print(probe_accounting_summary(reports))
    if args.budget is not None:
        print(
            f"probe budget: spent {result.spent} of {result.limit} fresh probes"
            + (
                f"; {result.unresolved_count} candidate sets left unresolved"
                if result.unresolved_count
                else ""
            )
        )
    if args.output is not None:
        args.output.mkdir(parents=True, exist_ok=True)
        path = args.output / "validation.md"
        write_atomic(path, validation_markdown(reports))
        print(f"wrote {path}")
    return 0


def _validate_snapshots(args: argparse.Namespace, session, names) -> int:
    """The longitudinal mode: validate every snapshot of a churning campaign."""
    if args.snapshots < 1:
        print("a campaign needs at least one snapshot", file=sys.stderr)
        return 2
    campaign, stream = _fresh_loop(args, session, args.snapshots)
    updates = StreamDaemon(campaign, stream, DaemonConfig(max_polls=args.snapshots)).run()
    # One shared run across validators: later ones answer pair tests from
    # the banks the earlier ones filled, exactly like single-shot mode.
    shared_run = ValidationRun(campaign.network)
    # One global budget across every validator and snapshot.
    budget = None if args.budget is None else ProbeBudget(limit=args.budget)
    series = {}
    for position, (name, spec) in enumerate(names):
        if position:
            print()
        rows = validate_snapshots(
            campaign, updates, spec, run=shared_run, budget=budget
        )
        series[name] = rows
        print(snapshot_validation_table(rows, name))
    if budget is not None:
        unresolved = sum(
            is_unresolved(verdict)
            for rows in series.values()
            for row in rows
            for verdict in row.report.verdicts
        )
        print()
        print(
            f"probe budget: spent {budget.spent} of {budget.limit} fresh probes"
            + (f"; {unresolved} candidate sets left unresolved" if unresolved else "")
        )
    if args.output is not None:
        args.output.mkdir(parents=True, exist_ok=True)
        path = args.output / "validation.md"
        write_atomic(path, validation_markdown([], snapshot_series=series))
        print()
        print(f"wrote {path}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    if (error := _campaign_rate_error(args)) is not None:
        print(error, file=sys.stderr)
        return 2
    if args.max_batches < 1:
        print("--max-batches must be at least 1", file=sys.stderr)
        return 2
    if args.poll_interval < 0:
        print("--poll-interval cannot be negative", file=sys.stderr)
        return 2
    if args.resume is not None:
        try:
            loaded = load_stream_checkpoint(args.resume)
            campaign, stream = resume_stream(loaded)
        except DatasetError as error:  # PersistError included — it subclasses this
            print(str(error), file=sys.stderr)
            return 2
        scenario = loaded.scenario
        print(
            f"resuming after poll {stream.emitted - 1} "
            f"({stream.emitted} reports already emitted)"
        )
    else:
        session = _session(args)
        scenario = session.config
        campaign, stream = _fresh_loop(args, session, args.max_batches)
    start = stream.emitted
    checkpointer = None
    checkpoint_dir = args.checkpoint if args.checkpoint is not None else args.resume
    if checkpoint_dir is not None:
        checkpointer = StreamCheckpointer(checkpoint_dir, scenario)
    daemon = StreamDaemon(
        campaign,
        stream,
        config=DaemonConfig(
            max_polls=args.max_batches, poll_interval=args.poll_interval
        ),
        checkpointer=checkpointer,
    )
    restore_handlers = daemon.install_signal_handlers()
    try:
        for update in daemon.updates():
            report = update.events[-1].to_fields()
            estimate = (
                "-" if update.churn_rate is None else f"{update.churn_rate:.4f}"
            )
            print(
                f"emit {update.emit} ({update.name}): "
                f"{report['observations']} observations "
                f"(+{report['added']}/-{report['removed']}), "
                f"{report['ipv4_sets']} IPv4 sets, "
                f"{len(update.events)} events, churn~{estimate}"
            )
    finally:
        restore_handlers()
    published = sum(stream.event_counts.values())
    print(
        f"served {daemon.polls - start} polls, {stream.emitted} reports, "
        f"{published} events published"
    )
    final = stream.report
    if final is not None:
        print(
            "final IPv4 non-singleton union sets: "
            f"{len(final.ipv4_union.non_singleton())}"
        )
    if stream.estimator.rate is not None:
        days = stream.estimator.interval / 86400.0
        print(
            f"estimated churn rate: {stream.estimator.rate:.4f} "
            f"per {days:g}-day interval "
            f"(configured: {campaign.config.churn_fraction})"
        )
    if checkpointer is not None:
        print(f"checkpointed {daemon.polls} polls to {checkpoint_dir}")
    return 0


def _command_session(args: argparse.Namespace) -> int:
    if args.session_command == "save":
        return _session_save(args)
    return _session_load(args)


def _session_save(args: argparse.Namespace) -> int:
    session = _session(args)
    try:
        for name in args.sources:
            dataset = session.dataset(name)
            print(f"collected {name} ({len(dataset)} observations)")
        for name in args.reports:
            report = session.report(name)
            print(
                f"resolved {name} "
                f"({len(report.ipv4_union.non_singleton())} IPv4 non-singleton sets)"
            )
        session.save(args.directory)
    except (RegistryError, DatasetError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 2
    cached = len(session.cached_datasets())
    print(
        f"saved session to {args.directory} "
        f"({cached} datasets, {len(session.cached_reports())} reports)"
    )
    return 0


def _session_load(args: argparse.Namespace) -> int:
    try:
        session = ReproSession.load(args.directory)
    except DatasetError as error:  # PersistError included — it subclasses this
        print(str(error), file=sys.stderr)
        return 2
    config = session.config
    datasets = session.cached_datasets()
    reports = session.cached_reports()
    validations = session.cached_validations()
    print(
        f"loaded session from {args.directory} "
        f"(scale {config.scale}, seed {config.seed}: "
        f"{len(datasets)} datasets, {len(reports)} reports, "
        f"{len(validations)} validations)"
    )
    for spec, dataset in datasets.items():
        print(f"  dataset {spec.describe()}: {len(dataset)} observations")
    for (_, name), report in reports.items():
        print(
            f"  report {name}: "
            f"{len(report.ipv4_union.non_singleton())} IPv4 non-singleton sets"
        )
    for (_, name), validation in validations.items():
        print(
            f"  validation {name}: {validation.testable_count}/{validation.candidates} "
            f"testable, {validation.agree_count} agree"
        )
    if args.experiments is not None:
        return _render_experiments(session, args.experiments)
    return 0


_COMMANDS = {
    "scan": _command_scan,
    "resolve": _command_resolve,
    "experiments": _command_experiments,
    "claims": _command_claims,
    "longitudinal": _command_longitudinal,
    "validate": _command_validate,
    "serve": _command_serve,
    "session": _command_session,
    "lint": run_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    metrics_path = getattr(args, "metrics", None)
    if metrics_path is None:
        return handler(args)
    # --metrics: run the whole command under a fresh registry and a root
    # span, then render the registry to the requested file.  Reports are
    # byte-identical either way — the instrumented seams only record.
    with obs.observed() as registry:
        with obs.trace(f"cli.{args.command}"):
            exit_code = handler(args)
    _write_metrics(metrics_path, registry)
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
