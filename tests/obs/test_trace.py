"""Tests for span tracing, the enable switch, and the event sink."""

import io
import json

import pytest

from repro import obs
from repro.errors import DatasetError
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


class TestEventSink:
    def test_emit_writes_jsonl(self):
        stream = io.StringIO()
        with obs.observed(sink=obs.EventSink(stream)):
            obs.emit("index.ingest", observations=5, source="union")
        [line] = stream.getvalue().strip().splitlines()
        assert json.loads(line) == {
            "event": "index.ingest", "observations": 5, "source": "union",
        }

    def test_emit_without_sink_is_noop(self):
        with obs.observed():
            obs.emit("quiet", n=1)  # no sink installed: must not raise

    def test_emit_when_disabled_is_noop(self):
        stream = io.StringIO()
        sink = obs.EventSink(stream)
        previous = obs.set_sink(sink)
        try:
            obs.emit("dropped")
        finally:
            obs.set_sink(previous)
        assert stream.getvalue() == ""
        assert sink.emitted == 0

    def test_file_sink_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with obs.EventSink(path) as sink:
            sink.emit("one", a=1)
        with obs.EventSink(path) as sink:
            sink.emit("two", b=2)
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["one", "two"]


class TestEventSinkLifecycle:
    def test_emit_after_close_raises(self):
        sink = obs.EventSink(io.StringIO())
        sink.emit("before")
        sink.close()
        with pytest.raises(DatasetError, match="closed"):
            sink.emit("after")

    def test_emit_after_close_raises_for_path_target(self, tmp_path):
        sink = obs.EventSink(tmp_path / "events.jsonl")
        sink.close()
        with pytest.raises(DatasetError, match="closed"):
            sink.emit("after")

    def test_close_is_idempotent(self):
        sink = obs.EventSink(io.StringIO())
        sink.close()
        sink.close()
        assert sink.closed

    def test_closing_borrowed_stream_leaves_it_open(self):
        stream = io.StringIO()
        sink = obs.EventSink(stream)
        sink.close()
        assert not stream.closed  # borrowed: lifecycle belongs to the caller
        stream.write("still usable\n")

    def test_closing_owned_file_closes_it(self, tmp_path):
        sink = obs.EventSink(tmp_path / "events.jsonl")
        handle = sink._stream
        sink.close()
        assert handle.closed

    def test_context_manager_reentry_rejected(self, tmp_path):
        sink = obs.EventSink(tmp_path / "events.jsonl")
        with sink:
            sink.emit("inside")
        with pytest.raises(DatasetError, match="re-enter"):
            with sink:
                pass

    def test_each_line_is_flushed_durably(self, tmp_path):
        # Per-line flush: every emitted event is on disk before the next
        # emit, so a killed process leaves a readable prefix.
        path = tmp_path / "events.jsonl"
        sink = obs.EventSink(path)
        for n in range(3):
            sink.emit("tick", n=n)
            lines = path.read_text().splitlines()
            assert len(lines) == n + 1
            assert json.loads(lines[-1]) == {"event": "tick", "n": n}
        sink.close()

    def test_closed_property_tracks_state(self):
        sink = obs.EventSink(io.StringIO())
        assert not sink.closed
        with sink:
            pass
        assert sink.closed
