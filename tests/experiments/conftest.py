"""Shared fixtures for the experiment-driver tests.

The drivers are exercised on a reduced-scale session so the whole module
runs in a few seconds; ``test_paper_scale.py`` checks the paper's shape on
the shared full-scale ``paper_session`` (``tests/conftest.py``).
"""

import pytest

from repro.api import ReproSession, ScenarioConfig


@pytest.fixture(scope="package")
def scenario():
    return ReproSession(ScenarioConfig(scale=0.25, seed=11))
