"""Tests for span tracing and the enable switch."""

from repro import obs
from repro.obs.trace import NOOP_SPAN, TRACER


class TestEnableSwitch:
    def test_disabled_by_default_and_helpers_noop(self):
        assert not obs.is_enabled()
        obs.add("x", 5)
        obs.set_gauge("g", 1)
        assert obs.metrics().counter_total("x") == 0
        assert obs.metrics().gauge_value("g") is None

    def test_disabled_span_is_shared_noop(self):
        assert obs.span("a") is NOOP_SPAN
        assert obs.trace("b") is NOOP_SPAN
        with obs.span("a"):
            assert TRACER.depth() == 0

    def test_observed_installs_fresh_registry_and_restores(self):
        outer = obs.metrics()
        with obs.observed() as registry:
            assert obs.is_enabled()
            assert obs.metrics() is registry
            assert registry is not outer
            obs.add("x", 2)
            assert registry.counter_total("x") == 2
        assert not obs.is_enabled()
        assert obs.metrics() is outer

    def test_observed_restores_on_exception(self):
        try:
            with obs.observed():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert not obs.is_enabled()

    def test_observed_scopes_nest(self):
        with obs.observed() as outer:
            obs.add("x")
            with obs.observed() as inner:
                obs.add("x")
                assert inner.counter_total("x") == 1
            assert obs.metrics() is outer
            assert outer.counter_total("x") == 1


class TestSpans:
    def test_root_span_records_to_registry(self):
        with obs.observed() as registry:
            with obs.trace("resolve", source="union"):
                pass
        [span] = registry.spans
        assert span["name"] == "resolve"
        assert span["attrs"] == {"source": "union"}
        assert span["seconds"] >= 0

    def test_children_nest_and_only_root_is_recorded(self):
        with obs.observed() as registry:
            with obs.trace("outer"):
                with obs.span("middle"):
                    with obs.span("inner"):
                        pass
        [root] = registry.spans
        [middle] = root["children"]
        [inner] = middle["children"]
        assert (root["name"], middle["name"], inner["name"]) == (
            "outer", "middle", "inner",
        )

    def test_span_captures_counter_deltas(self):
        with obs.observed() as registry:
            obs.add("before", 5)
            with obs.trace("work"):
                obs.add("index.observations.indexed", 7)
                obs.add("session.cache", 2, kind="report", outcome="hit")
        [span] = registry.spans
        assert span["counters"] == {
            "index.observations.indexed": 7,
            "session.cache{kind=report,outcome=hit}": 2,
        }
        assert "before" not in span["counters"]

    def test_name_attribute_does_not_collide_with_span_name(self):
        with obs.observed() as registry:
            with obs.span("engine.report", name="union"):
                pass
        assert registry.spans[0]["attrs"] == {"name": "union"}

    def test_stack_unwinds_on_exception(self):
        with obs.observed() as registry:
            try:
                with obs.trace("failing"):
                    raise ValueError("boom")
            except ValueError:
                pass
            assert TRACER.depth() == 0
        assert registry.spans[0]["name"] == "failing"
