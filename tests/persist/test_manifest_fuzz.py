"""Fuzz of the session, campaign and stream manifest readers.

One value anywhere in a saved manifest is replaced with arbitrary JSON.
The loader must then either load or fail with a ``repro.errors`` type,
never with a ``TypeError`` or ``AttributeError`` from deep inside.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.errors import ReproError
from repro.longitudinal.campaign import CampaignLog
from repro.persist.session import SESSION_MANIFEST, load_session, save_session
from repro.persist.stream import (
    CAMPAIGN_LAYOUT,
    STREAM_LAYOUT,
    StreamCheckpointer,
    load_stream_checkpoint,
)
from repro.stream.daemon import DaemonConfig, StreamDaemon
from repro.stream.engine import StreamConfig, StreamingEngine

_CONFIG = ScenarioConfig(scale=0.05, seed=7)

#: Any JSON value the reader can meet, nested a little.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _save_session(directory):
    session = ReproSession(_CONFIG)
    session.report("active")
    session.validate("midar")
    save_session(session, directory)


def _save_loop(directory, log=None):
    campaign = ReproSession(_CONFIG).longitudinal(snapshots=2, churn_fraction=0.05)
    StreamDaemon(
        campaign,
        StreamingEngine(StreamConfig(), options=campaign.options),
        config=DaemonConfig(max_polls=2),
        checkpointer=StreamCheckpointer(directory, _CONFIG, log=log),
        log=log,
    ).run()


def _save_campaign(directory):
    _save_loop(directory, log=CampaignLog())


def _load_campaign(directory):
    return load_stream_checkpoint(directory, CAMPAIGN_LAYOUT)


_CHAINS = {
    "session": (_save_session, SESSION_MANIFEST, load_session),
    "campaign": (_save_campaign, CAMPAIGN_LAYOUT.manifest, _load_campaign),
    "stream": (_save_loop, STREAM_LAYOUT.manifest, load_stream_checkpoint),
}


@pytest.fixture(scope="module", params=sorted(_CHAINS))
def saved(request, tmp_path_factory):
    """One saved directory per manifest kind, with its manifest and loader."""
    save, manifest_name, load = _CHAINS[request.param]
    directory = tmp_path_factory.mktemp(request.param) / "saved"
    save(directory)
    manifest_path = directory / manifest_name
    return directory, manifest_path, json.loads(manifest_path.read_text()), load


def _paths(value, prefix=()):
    """Every path to a value inside a JSON document, the root excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(document, path, value):
    copy = json.loads(json.dumps(document))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return copy


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_one_bad_value_fails_typed_or_loads(saved, data):
    directory, manifest_path, manifest, load = saved
    path = data.draw(st.sampled_from(list(_paths(manifest))), label="path")
    value = data.draw(_JSON, label="value")
    manifest_path.write_text(json.dumps(_replaced(manifest, path, value)))
    try:
        load(directory)
    except ReproError:
        pass
    finally:
        manifest_path.write_text(json.dumps(manifest))
