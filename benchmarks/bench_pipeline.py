"""Benchmark of the single-pass resolution pipeline.

Covers the end-to-end ``ResolutionEngine.resolve`` path for all three sources
(active, censys, union), the :class:`ObservationIndex` build step in
isolation, a head-to-head against the seed's nine-pass structure (six
per-(protocol, family) groupings plus three dual-stack passes, re-extracting
identifiers along the way), and the headline columnar race: the interned
columnar core against the PR-5 dict-backed core
(:class:`~repro.core.dictcore.DictObservationIndex`).
The extraction-count assertions prove the engine extracts each
observation's identifier exactly once, where the nine-pass layout extracts
each twice.

Run with the usual harness, e.g.::

    REPRO_BENCH_SCALE=1.0 PYTHONPATH=src python -m pytest benchmarks \
        -o python_files='bench_*.py' -o python_functions='bench_*' -q

Add ``--bench-json DIR`` to record the measurements into
``BENCH_pipeline.json``.
"""

import os
import time

from repro.core.alias_resolution import AliasResolver
from repro.core.dictcore import DictObservationIndex
from repro.core.dual_stack import infer_dual_stack, union_dual_stack
from repro.core.engine import (
    PROTOCOLS,
    ObservationIndex,
    ResolutionEngine,
    report_signature,
)
from repro.core.identifiers import count_extractions
from repro.net.addresses import AddressFamily

#: Minimum *dict-core* build time before the columnar speedup assertion
#: arms, following the repo-wide convention: below it, fixed per-call
#: overhead dominates and the race measures startup rather than the index
#: pass.  Raise REPRO_BENCH_SCALE (≥ 2.0) on a multi-core machine to arm it.
_SPEEDUP_FLOOR_SECONDS = 0.5

#: Required speedup of the columnar build over the PR-5 dict core once the
#: race arms.
_REQUIRED_SPEEDUP = 5.0


def _observations(scenario, source):
    return list(scenario.observations(source))


def _nine_pass_reference(observations, name="dataset"):
    """The seed pipeline's pass structure, for wall-clock comparison."""
    observation_list = list(observations)
    resolver = AliasResolver()
    ipv4 = {}
    ipv6 = {}
    dual = {}
    for protocol in PROTOCOLS:
        ipv4[protocol] = resolver.group(
            observation_list, protocol=protocol, family=AddressFamily.IPV4, name=f"{name}:{protocol.value}:ipv4"
        )
        ipv6[protocol] = resolver.group(
            observation_list, protocol=protocol, family=AddressFamily.IPV6, name=f"{name}:{protocol.value}:ipv6"
        )
        dual[protocol] = infer_dual_stack(
            observation_list, protocol=protocol, name=f"{name}:{protocol.value}:dual"
        )
    AliasResolver.union(ipv4.values(), name=f"{name}:union:ipv4")
    AliasResolver.union(ipv6.values(), name=f"{name}:union:ipv6")
    union_dual_stack(dual.values(), name=f"{name}:union:dual")


def _bench_source(benchmark, scenario, bench_json, source):
    observations = _observations(scenario, source)
    # Counted pass first, un-hooked timed pass second, so the recorded timing
    # does not pay for the instrumentation callback.
    with count_extractions() as counter:
        ResolutionEngine().resolve(observations, name=source)
    # The single-pass engine extracts each observation's identifier exactly once.
    assert counter.count == len(observations)
    start = time.perf_counter()
    report = benchmark.pedantic(
        lambda: ResolutionEngine().resolve(observations, name=source), rounds=1, iterations=1
    )
    bench_json.record(
        "pipeline",
        f"resolve_{source}",
        seconds=time.perf_counter() - start,
        observations=len(observations),
    )
    assert len(report.ipv4_union) > 0
    return report


def bench_pipeline_active(benchmark, scenario, bench_json):
    report = _bench_source(benchmark, scenario, bench_json, "active")
    assert len(report.dual_stack_union) > 0


def bench_pipeline_censys(benchmark, scenario, bench_json):
    # The Censys snapshot is IPv4-only, so no dual-stack sets are expected.
    report = _bench_source(benchmark, scenario, bench_json, "censys")
    assert len(report.ipv6_union) == 0


def bench_pipeline_union(benchmark, scenario, bench_json):
    report = _bench_source(benchmark, scenario, bench_json, "union")
    assert len(report.dual_stack_union) > 0


def bench_index_build(benchmark, scenario, bench_json):
    """The index pass in isolation — the part that touches raw observations."""
    observations = _observations(scenario, "union")
    with count_extractions() as counter:
        ObservationIndex.build(observations)
    assert counter.count == len(observations)
    start = time.perf_counter()
    index = benchmark.pedantic(
        lambda: ObservationIndex.build(observations), rounds=1, iterations=1
    )
    bench_json.record(
        "pipeline",
        "index_build_columnar_serial",
        seconds=time.perf_counter() - start,
        observations=len(observations),
        interned_addresses=index.address_symbols,
        interned_identifiers=index.identifier_symbols,
    )
    assert index.observed == len(observations)
    assert 0 < index.indexed <= index.observed


def bench_columnar_vs_dict_core(benchmark, scenario, bench_json):
    """The headline race: the columnar core vs the PR-5 dict core.

    Derived reports must be byte-identical (by :func:`report_signature`)
    whichever core built the index; the ≥5x wall-clock assertion arms under
    the repo convention — ≥2 CPUs and a dict-core serial build slow enough
    (≥0.5 s) that fixed overhead is amortised.
    """
    observations = _observations(scenario, "union")
    cpus = os.cpu_count() or 1
    rounds = 3

    dict_time = min(
        _timed(lambda: DictObservationIndex.build(observations)) for _ in range(rounds)
    )
    columnar_serial_time = min(
        _timed(lambda: ObservationIndex.build(observations)) for _ in range(rounds)
    )
    speedup = dict_time / columnar_serial_time if columnar_serial_time else float("inf")

    # Byte-identical derived reports, whichever core built the index.
    engine = ResolutionEngine()
    dict_report = report_signature(
        engine.report(DictObservationIndex.build(observations), name="union")
    )
    assert (
        report_signature(engine.report(ObservationIndex.build(observations), name="union"))
        == dict_report
    )

    print()
    print(
        f"dict core {1000 * dict_time:.1f} ms vs columnar "
        f"{1000 * columnar_serial_time:.1f} ms — {speedup:.2f}x over "
        f"{len(observations)} observations on {cpus} CPU(s)"
    )
    bench_json.record(
        "pipeline",
        "columnar_vs_dict_core",
        observations=len(observations),
        cpus=cpus,
        dict_seconds=dict_time,
        columnar_serial_seconds=columnar_serial_time,
        speedup=speedup,
        asserted=cpus >= 2 and dict_time >= _SPEEDUP_FLOOR_SECONDS,
    )
    if cpus >= 2 and dict_time >= _SPEEDUP_FLOOR_SECONDS:
        assert speedup >= _REQUIRED_SPEEDUP, (
            f"columnar index build only {speedup:.2f}x faster than the dict core "
            f"(required {_REQUIRED_SPEEDUP}x)"
        )

    benchmark.pedantic(
        lambda: ObservationIndex.build(observations), rounds=1, iterations=1
    )


def bench_single_pass_vs_nine_pass(benchmark, scenario, bench_json):
    """Engine vs the seed's nine-pass structure on the union dataset."""
    observations = _observations(scenario, "union")
    engine = ResolutionEngine()

    with count_extractions() as single_counter:
        engine.resolve(observations, name="union")
    with count_extractions() as nine_counter:
        _nine_pass_reference(observations, name="union")
    assert single_counter.count == len(observations)
    # Nine passes extract twice per observation: once in its (protocol,
    # family) grouping and once in its protocol's dual-stack pass.
    assert nine_counter.count == 2 * len(observations)

    rounds = 3
    single_time = min(
        _timed(lambda: engine.resolve(observations, name="union")) for _ in range(rounds)
    )
    nine_time = min(
        _timed(lambda: _nine_pass_reference(observations, name="union")) for _ in range(rounds)
    )
    print()
    print(
        f"single-pass {single_time * 1000:.1f} ms vs nine-pass {nine_time * 1000:.1f} ms "
        f"({nine_time / single_time:.2f}x) over {len(observations)} observations"
    )
    bench_json.record(
        "pipeline",
        "single_pass_vs_nine_pass",
        observations=len(observations),
        single_pass_seconds=single_time,
        nine_pass_seconds=nine_time,
        speedup=nine_time / single_time if single_time else float("inf"),
    )
    # Below a few thousand observations constant factors dominate and the
    # race is noise; at REPRO_BENCH_SCALE=1.0 (~17k observations) the
    # single-pass engine must win on wall clock, not just extraction count.
    if len(observations) >= 5000:
        assert single_time < nine_time

    benchmark.pedantic(lambda: engine.resolve(observations, name="union"), rounds=1, iterations=1)


def _timed(callable_):
    start = time.perf_counter()
    callable_()
    return time.perf_counter() - start
