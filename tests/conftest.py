"""Fixtures shared by every test package.

``paper_session`` is the paper's configuration — scale 1.0, seed 42, the
one ``repro claims`` and ``repro experiments`` default to — built once per
test run.  Its ten experiments are rendered as soon as it is built, so
the datasets and Table 2's MIDAR run happen in the CLI's order, and that
first render is kept as ``paper_experiments``.  Consumers only read from
the session; a test that needs to mutate one builds its own.
"""

import pytest

from repro.api import ReproSession, ScenarioConfig


@pytest.fixture(scope="session")
def paper_run():
    session = ReproSession(ScenarioConfig(scale=1.0, seed=42))
    return session, session.run_experiments()


@pytest.fixture(scope="session")
def paper_session(paper_run):
    return paper_run[0]


@pytest.fixture(scope="session")
def paper_experiments(paper_run):
    return paper_run[1]
