"""Observability must never change results.

Runs the full paper scenario at scale 1.0, seed 42 twice — once with the
obs layer dormant (the shared ``paper_session``), once in a fresh session
with metrics + span tracing fully enabled — and asserts all ten registered
experiments render byte-identically and the resolved reports match by
:func:`report_signature`.  This is the load-bearing guarantee of the no-op
fast path design: instrumentation only *records*; it is never allowed to
perturb.
"""

import pytest

from repro import obs
from repro.api.experiments import experiment_names
from repro.api.session import ReproSession
from repro.core.engine import report_signature

_SOURCES = ("active", "censys", "union")


def _signatures(session: ReproSession) -> dict[str, dict]:
    return {source: report_signature(session.report(source)) for source in _SOURCES}


@pytest.fixture(scope="module")
def plain(paper_session, paper_experiments):
    assert not obs.is_enabled()
    return paper_experiments, _signatures(paper_session)


@pytest.fixture(scope="module")
def instrumented(paper_session):
    with obs.observed() as registry:
        with obs.trace("parity"):
            session = ReproSession(paper_session.config)
            rendered = session.run_experiments(), _signatures(session)
    return rendered, registry


class TestInstrumentedParity:
    def test_all_ten_experiments_render_byte_identically(self, plain, instrumented):
        plain_experiments, _ = plain
        (instrumented_experiments, _), _ = instrumented
        assert sorted(plain_experiments) == sorted(experiment_names())
        assert len(plain_experiments) == 10
        for name in plain_experiments:
            assert instrumented_experiments[name] == plain_experiments[name], name

    def test_report_signatures_match(self, plain, instrumented):
        _, plain_signatures = plain
        (_, instrumented_signatures), _ = instrumented
        assert instrumented_signatures == plain_signatures

    def test_instrumented_run_actually_recorded(self, instrumented):
        _, registry = instrumented
        assert registry.counter_total("index.observations.indexed") > 0
        assert registry.counter_value(
            "session.cache", kind="report", outcome="miss"
        ) > 0
        [root] = registry.spans
        assert root["name"] == "parity"
        assert any(
            child["name"] == "session.report" for child in root["children"]
        )

    def test_obs_state_restored_after_instrumented_run(self, instrumented):
        assert not obs.is_enabled()
