"""Tests for the metrics registry: samples, rendering, round trips."""

import json

import pytest

from repro.errors import DatasetError
from repro.obs.registry import MetricsRegistry, label_key, prometheus_name


@pytest.fixture()
def registry():
    reg = MetricsRegistry()
    reg.inc("index.observations.indexed", 100)
    reg.inc("session.cache", 3, kind="report", outcome="hit")
    reg.inc("session.cache", 1, kind="report", outcome="miss")
    reg.set_gauge("index.dirty.identifiers", 12)
    reg.append_series("campaign.snapshots", {"snapshot": 0, "observations": 10})
    reg.record_span({"name": "resolve", "seconds": 0.1})
    return reg


class TestSamples:
    def test_counters_accumulate_per_label_set(self, registry):
        assert registry.counter_value("session.cache", kind="report", outcome="hit") == 3
        assert registry.counter_value("session.cache", kind="report", outcome="miss") == 1
        assert registry.counter_total("session.cache") == 4

    def test_unknown_counter_reads_zero(self, registry):
        assert registry.counter_value("nope") == 0
        assert registry.counter_total("nope") == 0

    def test_gauge_reads_back(self, registry):
        assert registry.gauge_value("index.dirty.identifiers") == 12
        assert registry.gauge_value("index.dirty.identifiers", kind="x") is None

    def test_series_and_spans(self, registry):
        assert registry.series("campaign.snapshots")[0]["observations"] == 10
        assert registry.series("absent") == []
        assert registry.spans[0]["name"] == "resolve"

    def test_reset_drops_samples(self, registry):
        registry.reset()
        assert registry.counter_total("session.cache") == 0
        assert registry.spans == []


class TestRendering:
    def test_json_round_trip_is_lossless(self, registry):
        document = json.loads(json.dumps(registry.to_json()))
        rebuilt = MetricsRegistry.from_json(document)
        assert rebuilt.to_json() == registry.to_json()

    def test_prometheus_commutes_with_json_export(self, registry):
        rebuilt = MetricsRegistry.from_json(registry.to_json())
        assert rebuilt.prometheus_text() == registry.prometheus_text()

    def test_prometheus_text_shape(self, registry):
        text = registry.prometheus_text()
        assert "# TYPE session_cache counter" in text
        assert 'session_cache{kind="report",outcome="hit"} 3' in text
        assert "# TYPE index_dirty_identifiers gauge" in text
        assert "index_dirty_identifiers 12" in text
        assert text.endswith("\n")

    def test_json_document_sections(self, registry):
        assert sorted(registry.to_json()) == ["counters", "gauges", "series", "spans"]

    def test_empty_registry_renders_empty(self):
        empty = MetricsRegistry()
        assert empty.prometheus_text() == ""
        assert empty.to_json()["counters"] == {}

    def test_malformed_document_raises_dataset_error(self):
        with pytest.raises(DatasetError):
            MetricsRegistry.from_json({"counters": {"c": [{"labels": {}}]}})

    def test_json_output_is_insertion_order_independent(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.inc("a", 1)
        one.inc("b", 2, k="v")
        two.inc("b", 2, k="v")
        two.inc("a", 1)
        assert one.to_json() == two.to_json()
        assert one.prometheus_text() == two.prometheus_text()


class TestHelpers:
    def test_label_key_sorts_and_stringifies(self):
        assert label_key({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))

    def test_prometheus_name_sanitises(self):
        assert prometheus_name("index.observations.indexed") == "index_observations_indexed"
        assert prometheus_name("9lives") == "_9lives"
