"""Benchmark of the probe-budget optimizer.

Two claims are measured and asserted (always, at whatever
``REPRO_BENCH_SCALE`` is in effect) over a midar+ally+speedtrap
validation run:

* **Zero-probe reload** — after ``session.save``/``ReproSession.load``,
  re-running the same validators re-scores entirely from the persisted
  sample banks: exactly zero calls reach the network.
* **Graceful degradation** — a capped run marks the sets it cannot
  afford ``unresolved`` and never flips a verdict: every set the capped
  run still resolves decides exactly as the uncapped run did.

The scenario probes from a distributed vantage with ``loss_rate=0``: it
isolates the budget's effect from per-vantage IDS budgets and stochastic
per-probe loss.

Run with the usual harness, e.g.::

    REPRO_BENCH_SCALE=0.2 PYTHONPATH=src python -m pytest \
        benchmarks/bench_budget.py \
        -o python_files='bench_*.py' -o python_functions='bench_*' -q
"""

import os
import time

import pytest

from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.validation.budget import is_unresolved
from repro.validation.spec import ally, midar, sample, speedtrap

#: Sample size / seed of every comparison (the Table 2 defaults).
_SIZE, _SEED = 150, 7


def _bench_config(**overrides):
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    seed = int(os.environ.get("REPRO_BENCH_SEED", "42"))
    return ScenarioConfig(scale=scale, seed=seed, **overrides)


def _count_probes(network):
    """Count ``sample_ipid`` calls at the network boundary."""
    counter = {"probes": 0}
    original = network.sample_ipid

    def counting(address, vantage, now=0.0):
        counter["probes"] += 1
        return original(address, vantage, now=now)

    network.sample_ipid = counting
    return counter


def _specs():
    ipv4 = dict(
        source="active",
        protocol="ssh",
        family="ipv4",
        start_after="active-ipv6",
        distributed=True,
    )
    ipv6 = dict(
        source="active",
        protocol="ssh",
        family="ipv6",
        start_after="active-ipv6",
        distributed=True,
    )
    return (
        sample(midar(**ipv4), size=_SIZE, seed=_SEED, max_size=10),
        sample(ally(**ipv4), size=_SIZE, seed=_SEED, max_size=10),
        sample(speedtrap(**ipv6), size=_SIZE, seed=_SEED, max_size=10),
    )


def _decisions(report):
    return [
        (v.candidate, v.testable, v.agrees, v.partition, v.classes)
        for v in report.verdicts
    ]


def _budgeted_run(config, budget=None):
    session = ReproSession(config)
    session.report("active")
    session.dataset("active-ipv6")
    counter = _count_probes(session.network)
    result = session.validate_budgeted(list(_specs()), budget=budget)
    return counter["probes"], result, session


def bench_budget_zero_probe_reload(benchmark, bench_json, tmp_path):
    """A reloaded session re-scores the same validators fully offline."""
    config = _bench_config(loss_rate=0.0)
    _, result, session = _budgeted_run(config)
    directory = tmp_path / "session"
    session.save(directory)

    start = time.perf_counter()
    loaded = ReproSession.load(directory)
    counter = _count_probes(loaded.network)
    reloaded = loaded.validate_budgeted(list(_specs()))
    elapsed = time.perf_counter() - start

    assert counter["probes"] == 0, (
        f"a reloaded session issued {counter['probes']} probes re-scoring "
        "banked schedules; the contract is exactly zero"
    )
    for before, after in zip(result.reports, reloaded.reports):
        assert _decisions(after) == _decisions(before), (
            f"offline re-score of {before.validator} diverged from the live run"
        )

    print()
    print(
        f"saved -> loaded -> re-scored {sum(r.candidates for r in result.reports)} "
        f"sets with 0 network probes ({1000 * elapsed:.0f} ms)"
    )
    bench_json.record(
        "budget",
        "zero_probe_reload",
        seconds=elapsed,
        reload_probes=counter["probes"],
        asserted=True,
    )
    benchmark.pedantic(lambda: counter["probes"], rounds=1, iterations=1)


def bench_budget_capped_never_flips(benchmark, bench_json):
    """A capped run marks skipped sets unresolved and never flips a verdict."""
    config = _bench_config(loss_rate=0.0)
    _, uncapped, _ = _budgeted_run(config)
    cap = uncapped.spent // 3

    start = time.perf_counter()
    _, capped, _ = _budgeted_run(config, budget=cap)
    elapsed = time.perf_counter() - start

    assert capped.closed and capped.spent <= cap
    assert capped.unresolved_count > 0, "the cap was never hit"
    resolved = flips = 0
    for uncapped_report, capped_report in zip(uncapped.reports, capped.reports):
        for full, cut in zip(uncapped_report.verdicts, capped_report.verdicts):
            if is_unresolved(cut):
                continue
            resolved += 1
            if (cut.testable, cut.agrees, cut.partition) != (
                full.testable,
                full.agrees,
                full.partition,
            ):
                flips += 1
    assert resolved > 0, "the capped run resolved nothing"
    assert flips == 0, f"{flips} verdicts flipped under the cap"

    print()
    print(
        f"capped at {cap} of {uncapped.spent} probes: {resolved} sets resolved "
        f"identically, {capped.unresolved_count} unresolved, 0 flips "
        f"({1000 * elapsed:.0f} ms)"
    )
    bench_json.record(
        "budget",
        "capped_never_flips",
        seconds=elapsed,
        cap=cap,
        resolved=resolved,
        unresolved=capped.unresolved_count,
        flips=flips,
        asserted=True,
    )
    benchmark.pedantic(lambda: flips, rounds=1, iterations=1)


if __name__ == "__main__":  # pragma: no cover - ad-hoc runs
    pytest.main([__file__, "-o", "python_files=bench_*.py",
                 "-o", "python_functions=bench_*", "--benchmark-disable", "-q", "-s"])
