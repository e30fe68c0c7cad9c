"""Benchmark of incremental re-resolution on a churning campaign.

A four-snapshot longitudinal campaign (weekly interval, 2% address churn
per interval — inside the paper-motivated 1-5% band) is collected once;
the benchmark then races, per snapshot, the incremental
:class:`~repro.longitudinal.engine.LongitudinalEngine` delta replay
against a from-scratch :meth:`~repro.core.engine.ResolutionEngine.resolve`
of the same snapshot.  On every snapshot the two reports must be
identical (:func:`~repro.core.engine.report_signature`); at
``REPRO_BENCH_SCALE=1.0`` the incremental path must win by at least 3x.

The extraction-count assertions show *why*: a delta replay touches only
the few-percent of observations that changed, while a rebuild re-extracts
every identifier of every snapshot.

Run with the usual harness, e.g.::

    REPRO_BENCH_SCALE=1.0 PYTHONPATH=src python -m pytest benchmarks \
        -o python_files='bench_*.py' -o python_functions='bench_*' -q
"""

import gc
import os
import time

import pytest

from repro.api.config import ScenarioConfig
from repro.core.engine import ResolutionEngine, report_signature
from repro.core.identifiers import count_extractions
from repro.longitudinal import LongitudinalCampaign, LongitudinalConfig, LongitudinalEngine
from repro.simnet.topology import generate_topology
from repro.sources.hitlist import HitlistConfig, build_ipv6_hitlist

#: Minimum per-snapshot observation count before wall-clock assertions fire
#: (below this, constant factors dominate and the race is noise).
_ASSERT_THRESHOLD = 5000

#: Required speedup of incremental re-resolution over full rebuilds.
_REQUIRED_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def captures():
    """Collect one churning campaign (own network — campaigns inject churn)."""
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    seed = int(os.environ.get("REPRO_BENCH_SEED", "42"))
    config = ScenarioConfig(scale=scale, seed=seed)
    network = generate_topology(config.topology_config())
    hitlist = build_ipv6_hitlist(
        network,
        HitlistConfig(
            server_coverage=config.hitlist_server_coverage,
            router_coverage=config.hitlist_router_coverage,
            seed=seed,
        ),
    )
    campaign = LongitudinalCampaign(
        network,
        hitlist=hitlist,
        config=LongitudinalConfig(snapshots=4, churn_fraction=0.02, seed=seed),
    )
    return campaign.collect()


def _incremental_replay(captures):
    """Bootstrap + apply every delta; returns (timed apply total, reports)."""
    engine = LongitudinalEngine()
    engine.bootstrap(captures[0].observations, name=captures[0].name)
    gc.collect()  # do not bill the applies for the bootstrap's garbage
    total = 0.0
    reports = []
    for capture in captures[1:]:
        start = time.perf_counter()
        resolution = engine.apply(capture.delta, name=capture.name)
        total += time.perf_counter() - start
        reports.append(resolution.report)
    return total, reports


def _full_replay(captures):
    """From-scratch resolve of every post-bootstrap snapshot."""
    engine = ResolutionEngine()
    gc.collect()
    total = 0.0
    reports = []
    for capture in captures[1:]:
        start = time.perf_counter()
        reports.append(engine.resolve(capture.observations, name=capture.name))
        total += time.perf_counter() - start
    return total, reports


def bench_incremental_vs_full_rebuild(benchmark, captures, bench_json):
    """The headline race: delta replay vs rebuild, with parity on every snapshot."""
    observations_per_snapshot = len(captures[0].observations)

    # Extraction-count proof: the incremental path touches only the delta.
    engine = LongitudinalEngine()
    engine.bootstrap(captures[0].observations, name=captures[0].name)
    delta_size = 0
    with count_extractions() as incremental_counter:
        for capture in captures[1:]:
            engine.apply(capture.delta, name=capture.name)
            delta_size += len(capture.delta.added) + len(capture.delta.removed)
    # Removed observations reuse the identifier cached when they were added,
    # so a delta replay extracts at most the *added* observations (fewer when
    # an observation reappears after a temporary loss).
    assert incremental_counter.count <= delta_size
    with count_extractions() as full_counter:
        _full_replay(captures)
    assert full_counter.count == observations_per_snapshot_total(captures)

    rounds = 3
    incremental_times = []
    full_times = []
    for _ in range(rounds):
        incremental_time, incremental_reports = _incremental_replay(captures)
        full_time, full_reports = _full_replay(captures)
        for incremental_report, full_report in zip(incremental_reports, full_reports, strict=True):
            assert report_signature(incremental_report) == report_signature(full_report)
        incremental_times.append(incremental_time)
        full_times.append(full_time)
    incremental_best = min(incremental_times)
    full_best = min(full_times)
    speedup = full_best / incremental_best
    print()
    print(
        f"incremental {1000 * incremental_best:.0f} ms vs full rebuild "
        f"{1000 * full_best:.0f} ms over {len(captures) - 1} snapshots of "
        f"~{observations_per_snapshot} observations ({speedup:.2f}x; "
        f"{incremental_counter.count} delta extractions vs {full_counter.count} rebuild extractions)"
    )
    bench_json.record(
        "longitudinal",
        "incremental_vs_full_rebuild",
        snapshots=len(captures) - 1,
        observations_per_snapshot=observations_per_snapshot,
        incremental_seconds=incremental_best,
        full_seconds=full_best,
        speedup=speedup,
        delta_extractions=incremental_counter.count,
        rebuild_extractions=full_counter.count,
        asserted=observations_per_snapshot >= _ASSERT_THRESHOLD,
    )
    if observations_per_snapshot >= _ASSERT_THRESHOLD:
        assert speedup >= _REQUIRED_SPEEDUP, (
            f"incremental re-resolution only {speedup:.2f}x faster than rebuild "
            f"(required {_REQUIRED_SPEEDUP}x)"
        )

    benchmark.pedantic(lambda: _incremental_replay(captures), rounds=1, iterations=1)


def observations_per_snapshot_total(captures):
    """Observations a full rebuild of every post-bootstrap snapshot touches."""
    return sum(len(capture.observations) for capture in captures[1:])


def bench_campaign_resolution(benchmark, captures):
    """End-to-end incremental resolution of the whole campaign."""
    campaign_config = LongitudinalConfig(snapshots=len(captures), churn_fraction=0.02)

    def resolve():
        engine = LongitudinalEngine()
        resolutions = [engine.bootstrap(captures[0].observations, name=captures[0].name)]
        for capture in captures[1:]:
            resolutions.append(engine.apply(capture.delta, name=capture.name))
        return resolutions

    resolutions = benchmark.pedantic(resolve, rounds=1, iterations=1)
    assert len(resolutions) == campaign_config.snapshots
    # Every post-bootstrap snapshot reports how its union sets evolved.
    assert all(resolution.ipv4_delta is not None for resolution in resolutions[1:])


def bench_observation_diff(benchmark, captures):
    """Snapshot diffing in isolation (the input stage of a delta replay)."""
    from repro.longitudinal.delta import diff_observations

    previous = captures[0].observations
    current = captures[1].observations
    delta = benchmark.pedantic(
        lambda: diff_observations(previous, current), rounds=1, iterations=1
    )
    assert delta.added and delta.removed
    assert delta.unchanged > len(delta.added)
