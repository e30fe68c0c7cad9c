"""Shared fixtures for the benchmark harness.

Every ``bench_*`` module regenerates one table or figure of the paper.  The
expensive part — generating the simulated Internet and collecting the active
and Censys datasets — happens once per session in the :func:`scenario`
fixture; the benchmarked callables are the aggregation steps that produce
the table or figure from those datasets.

Set ``REPRO_BENCH_SCALE`` to change the size of the simulated Internet
(default 1.0, roughly 20k addresses).

Pass ``--bench-json DIR`` (or set ``REPRO_BENCH_JSON``) to record every
benchmark's measurements as ``BENCH_<module>.json`` trajectory files: one
document per benchmark module, carrying the run context (scale, seed,
python, CPU count) and the records each benchmark emitted through the
:func:`bench_json` fixture.  CI uploads these as workflow artifacts so each
PR's perf trajectory is tracked; without the option the fixture still
collects records but writes nothing.
"""

import json
import os
import platform
import sys
from pathlib import Path

import pytest

from repro.api import ReproSession, ScenarioConfig


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="DIR",
        help="directory to write BENCH_<module>.json perf trajectories into "
        "(defaults to $REPRO_BENCH_JSON when set)",
    )


def _bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def _bench_seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "42"))


class BenchRecorder:
    """Collects per-module benchmark records and writes ``BENCH_*.json``."""

    def __init__(self, directory: Path | None) -> None:
        self.directory = directory
        self.context = {
            "scale": _bench_scale(),
            "seed": _bench_seed(),
            "python": platform.python_version(),
            "cpus": os.cpu_count() or 1,
        }
        self._modules: dict[str, list[dict]] = {}

    def record(self, module: str, name: str, **values) -> None:
        """Add one record (arbitrary JSON-serialisable values) to a module."""
        self._modules.setdefault(module, []).append({"name": name, **values})

    def flush(self) -> list[Path]:
        """Write one ``BENCH_<module>.json`` per recorded module."""
        if self.directory is None:
            return []
        self.directory.mkdir(parents=True, exist_ok=True)
        written = []
        for module, records in sorted(self._modules.items()):
            path = self.directory / f"BENCH_{module}.json"
            path.write_text(
                json.dumps({**self.context, "records": records}, indent=2) + "\n"
            )
            written.append(path)
        return written


@pytest.fixture(scope="session")
def bench_json(request):
    """Session-wide benchmark recorder; flushed to disk at session end."""
    directory = request.config.getoption("--bench-json") or os.environ.get(
        "REPRO_BENCH_JSON"
    )
    recorder = BenchRecorder(Path(directory) if directory else None)
    yield recorder
    for path in recorder.flush():
        print(f"wrote {path}", file=sys.stderr)


@pytest.fixture(scope="session")
def scenario():
    built = ReproSession(ScenarioConfig(scale=_bench_scale(), seed=_bench_seed()))
    # Materialise the datasets and reports once so that the per-table
    # benchmarks measure aggregation, not data collection.
    built.report("active")
    built.report("censys")
    built.report("union")
    return built
