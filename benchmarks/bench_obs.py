"""Benchmark of the observability layer's overhead.

Runs the end-to-end resolution pipeline over the union dataset twice —
once with the obs layer dormant (the default) and once with metrics and
span tracing fully enabled — and races the wall clocks.  The design
contract of :mod:`repro.obs` is a no-op fast path cheap enough to leave
compiled in everywhere, and an enabled path that only *records*: the
parity assertion (byte-identical report signatures) always runs, and the
<5% overhead assertion arms once the dormant baseline is slow enough
(≥0.5 s) that fixed costs stop dominating, following the repo-wide
convention.

Run with the usual harness, e.g.::

    REPRO_BENCH_SCALE=1.0 PYTHONPATH=src python -m pytest benchmarks \
        -o python_files='bench_*.py' -o python_functions='bench_*' -q

Add ``--bench-json DIR`` to record the measurements into
``BENCH_obs.json``.
"""

import time

from repro import obs
from repro.core.engine import ResolutionEngine, report_signature

#: Minimum dormant-path resolve time before the overhead assertion arms;
#: below it, per-call constant factors dominate and the ratio is noise.
_OVERHEAD_FLOOR_SECONDS = 0.5

#: Maximum tolerated slowdown of the instrumented run once the race arms.
_MAX_OVERHEAD = 0.05


def _timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return time.perf_counter() - start, result


def bench_obs_overhead(benchmark, scenario, bench_json):
    """Instrumented vs dormant end-to-end resolve: parity always, <5% armed."""
    observations = list(scenario.observations("union"))
    rounds = 3

    assert not obs.is_enabled()
    dormant_times = []
    dormant_report = None
    for _ in range(rounds):
        seconds, dormant_report = _timed(
            lambda: ResolutionEngine().resolve(observations, name="union")
        )
        dormant_times.append(seconds)

    enabled_times = []
    instrumented_report = None
    with obs.observed() as registry:
        for _ in range(rounds):
            seconds, instrumented_report = _timed(
                lambda: ResolutionEngine().resolve(observations, name="union")
            )
            enabled_times.append(seconds)
    assert not obs.is_enabled()

    # Parity is unconditional: instrumentation records, it never perturbs.
    assert report_signature(instrumented_report) == report_signature(dormant_report)
    # The enabled run must actually have recorded something.
    assert registry.counter_total("index.observations.observed") == rounds * len(
        observations
    )

    dormant = min(dormant_times)
    enabled = min(enabled_times)
    overhead = (enabled - dormant) / dormant if dormant else 0.0
    armed = dormant >= _OVERHEAD_FLOOR_SECONDS

    print()
    print(
        f"dormant {1000 * dormant:.1f} ms vs instrumented {1000 * enabled:.1f} ms "
        f"({100 * overhead:+.1f}% overhead, {'armed' if armed else 'dormant assertion'}) "
        f"over {len(observations)} observations"
    )
    bench_json.record(
        "obs",
        "resolve_overhead",
        observations=len(observations),
        dormant_seconds=dormant,
        instrumented_seconds=enabled,
        overhead_fraction=overhead,
        asserted=armed,
    )
    if armed:
        assert overhead < _MAX_OVERHEAD, (
            f"instrumentation overhead {100 * overhead:.1f}% exceeds "
            f"{100 * _MAX_OVERHEAD:.0f}% over a {dormant:.2f}s baseline"
        )

    benchmark.pedantic(
        lambda: ResolutionEngine().resolve(observations, name="union"), rounds=1, iterations=1
    )


def bench_obs_disabled_helpers(benchmark, scenario, bench_json):
    """The no-op fast path in isolation: a dormant helper call is ~free."""
    iterations = 100_000

    assert not obs.is_enabled()
    start = time.perf_counter()
    for _ in range(iterations):
        obs.add("bench.counter", 1, outcome="hit")
    dormant_add = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(iterations):
        with obs.span("bench.span"):
            pass
    dormant_span = time.perf_counter() - start

    with obs.observed() as registry:
        start = time.perf_counter()
        for _ in range(iterations):
            obs.add("bench.counter", 1, outcome="hit")
        enabled_add = time.perf_counter() - start
    assert registry.counter_value("bench.counter", outcome="hit") == iterations

    print()
    print(
        f"{iterations} dormant adds {1000 * dormant_add:.1f} ms / spans "
        f"{1000 * dormant_span:.1f} ms; enabled adds {1000 * enabled_add:.1f} ms"
    )
    bench_json.record(
        "obs",
        "helper_fast_path",
        iterations=iterations,
        dormant_add_seconds=dormant_add,
        dormant_span_seconds=dormant_span,
        enabled_add_seconds=enabled_add,
    )
    benchmark.pedantic(lambda: obs.add("bench.counter", 1), rounds=1, iterations=1)
