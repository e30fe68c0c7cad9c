"""Benchmark of the streaming resolution service against the batch path.

A four-snapshot churning campaign is collected once; the benchmark then
feeds the same captures through both resolution paths — the batch
:meth:`~repro.longitudinal.campaign.LongitudinalCampaign.resolve` and a
resident :class:`~repro.stream.engine.StreamingEngine` driven
sync-then-flush like the ``repro serve`` daemon — and asserts the final
(and every intermediate) report signature is byte-identical.  The parity
assertion always runs, at any scale: streaming equivalence is the gate,
the timings are the trajectory.

The streamed pass additionally publishes typed change events to a
subscriber; the record captures the sustained event throughput
(events delivered per second of streaming wall time).

Run with the usual harness, e.g.::

    REPRO_BENCH_SCALE=1.0 PYTHONPATH=src python -m pytest benchmarks \
        -o python_files='bench_*.py' -o python_functions='bench_*' -q
"""

import gc
import os
import time

import pytest

from repro.api.config import ScenarioConfig
from repro.core.engine import report_signature
from repro.longitudinal import LongitudinalCampaign, LongitudinalConfig
from repro.simnet.topology import generate_topology
from repro.sources.hitlist import HitlistConfig, build_ipv6_hitlist
from repro.stream.engine import StreamConfig, StreamingEngine

_SNAPSHOTS = 4
_CHURN = 0.05


@pytest.fixture(scope="module")
def campaign():
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
    return LongitudinalCampaign(
        network,
        hitlist=hitlist,
        config=LongitudinalConfig(
            snapshots=_SNAPSHOTS, churn_fraction=_CHURN, seed=seed
        ),
    )


@pytest.fixture(scope="module")
def captures(campaign):
    return campaign.collect()


def _stream_replay(campaign, captures):
    """Sync + flush every capture; returns (seconds, updates, events seen)."""
    stream = StreamingEngine(StreamConfig(), options=campaign.options)
    delivered = []
    stream.subscribe(delivered.append)
    gc.collect()
    total = 0.0
    updates = []
    for capture in captures:
        start = time.perf_counter()
        stream.sync(capture.observations)
        updates.append(stream.flush())
        total += time.perf_counter() - start
    return total, updates, delivered


def bench_stream_vs_batch(benchmark, campaign, captures, bench_json):
    """The equivalence race: streamed reports == batch reports, byte for byte."""
    gc.collect()
    start = time.perf_counter()
    result = campaign.resolve(captures)
    batch_seconds = time.perf_counter() - start

    stream_seconds, updates, delivered = _stream_replay(campaign, captures)

    # The gate: every snapshot — including the final one — byte-identical.
    assert len(updates) == len(result.snapshots)
    for resolved, update in zip(result.snapshots, updates, strict=True):
        assert report_signature(update.report) == report_signature(resolved.report)

    observations_per_snapshot = len(captures[0].observations)
    events = len(delivered)
    events_per_second = events / stream_seconds if stream_seconds > 0 else 0.0
    print()
    print(
        f"stream {1000 * stream_seconds:.0f} ms vs batch "
        f"{1000 * batch_seconds:.0f} ms over {len(captures)} snapshots of "
        f"~{observations_per_snapshot} observations; {events} events "
        f"published ({events_per_second:.0f} events/s sustained)"
    )
    bench_json.record(
        "stream",
        "stream_vs_batch",
        snapshots=len(captures),
        observations_per_snapshot=observations_per_snapshot,
        stream_seconds=stream_seconds,
        batch_seconds=batch_seconds,
        events=events,
        events_per_second=events_per_second,
        # The signature parity above runs unconditionally, at every scale.
        asserted=True,
    )

    benchmark.pedantic(
        lambda: _stream_replay(campaign, captures), rounds=1, iterations=1
    )


def bench_micro_batch_ingest(benchmark, campaign, captures, bench_json):
    """Ingest throughput of the change-trigger path (observe_batch chunks)."""
    observations = captures[0].observations
    chunk = 256

    def ingest():
        stream = StreamingEngine(
            StreamConfig(emit_every_changes=4 * chunk), options=campaign.options
        )
        for offset in range(0, len(observations), chunk):
            stream.observe_batch(observations[offset : offset + chunk])
        if stream.pending_changes:
            stream.flush()
        return stream

    gc.collect()
    start = time.perf_counter()
    stream = ingest()
    seconds = time.perf_counter() - start
    assert stream.tracked_services == len(
        {(o.address, o.protocol.value) for o in observations}
    )
    rate = len(observations) / seconds if seconds > 0 else 0.0
    print(
        f"micro-batch ingest: {len(observations)} observations in "
        f"{1000 * seconds:.0f} ms ({rate:.0f} obs/s, emits={stream.emitted})"
    )
    bench_json.record(
        "stream",
        "micro_batch_ingest",
        observations=len(observations),
        chunk=chunk,
        ingest_seconds=seconds,
        observations_per_second=rate,
        emits=stream.emitted,
        asserted=True,
    )

    benchmark.pedantic(ingest, rounds=1, iterations=1)
