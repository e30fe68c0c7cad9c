"""Tests for the longitudinal stability table renderers."""

import pytest

from repro.analysis.stability import (
    stability_markdown_from,
    stability_rows_from,
    stability_table_from,
)
from repro.longitudinal import CampaignLog, LongitudinalCampaign, LongitudinalConfig
from repro.net.addresses import AddressFamily
from repro.simnet.topology import generate_topology, small_topology_config
from repro.stream import DaemonConfig, StreamDaemon, StreamingEngine


@pytest.fixture(scope="module")
def campaign():
    config = small_topology_config(seed=11, loss_rate=0.0)
    return LongitudinalCampaign(
        generate_topology(config),
        config=LongitudinalConfig(snapshots=3, churn_fraction=0.08, seed=2),
    )


@pytest.fixture(scope="module")
def log(campaign):
    log = CampaignLog()
    StreamDaemon(campaign, StreamingEngine(), DaemonConfig(max_polls=3), log=log).run()
    return log


def test_rows_cover_every_snapshot(log):
    rows = stability_rows_from(log.stability[AddressFamily.IPV4])
    assert len(rows) == 3
    assert [row[0] for row in rows] == [0, 1, 2]


def test_first_row_has_no_delta_columns(log):
    first = stability_rows_from(log.stability[AddressFamily.IPV4])[0]
    assert first[3] == "-" and first[-1] == "-"


def test_day_column_uses_interval(log):
    rows = stability_rows_from(log.stability[AddressFamily.IPV4])
    assert [row[1] for row in rows] == ["0", "7", "14"]


def test_table_renders_headers_and_title(campaign, log):
    text = stability_table_from(
        log.stability[AddressFamily.IPV4], campaign.config, AddressFamily.IPV4
    )
    assert "Longitudinal stability (IPv4 union" in text
    assert "Persistence" in text
    assert "Churn splits" in text


def test_markdown_covers_both_families(log):
    text = stability_markdown_from(log.stability)
    assert "## IPv4 union sets" in text
    assert "## IPv6 union sets" in text
    # One header row, one separator, three data rows per family.
    assert text.count("| 7 |") >= 1


def test_persistence_rendered_as_percentage(log):
    rows = stability_rows_from(log.stability[AddressFamily.IPV4])
    assert rows[1][11].endswith("%")
