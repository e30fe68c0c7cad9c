"""Per-rule fixture tests: each rule fires on its bad shape, stays quiet
on the good one, and respects its module scope."""

import textwrap

import pytest

from repro.devtools import lint_source


def _lint(source: str, module: str):
    return lint_source(textwrap.dedent(source), module=module, path="fixture.py")


def _rules(findings):
    return [finding.rule for finding in findings]


class TestNoWallClock:
    BAD = """
        import time
        import datetime

        def stamp():
            return time.time(), datetime.datetime.now()
    """

    def test_fires_in_deterministic_package(self):
        findings = _lint(self.BAD, "repro.core.clocked")
        assert _rules(findings) == ["no-wall-clock", "no-wall-clock"]
        assert "time.time" in findings[0].message
        assert findings[0].fixit

    def test_quiet_in_obs_trace(self):
        assert _lint(self.BAD, "repro.obs.trace") == []

    def test_quiet_in_tests_and_benchmarks(self):
        assert _lint(self.BAD, "tests.core.test_clocked") == []
        assert _lint(self.BAD, "perfbench.pace") == []

    def test_sleep_is_not_a_wall_clock_read(self):
        source = """
            import time

            def pace():
                time.sleep(0.1)
        """
        assert _lint(source, "repro.stream.pacer") == []

    def test_from_import_binding_resolves(self):
        source = """
            from time import perf_counter

            def stamp():
                return perf_counter()
        """
        findings = _lint(source, "repro.validation.timed")
        assert _rules(findings) == ["no-wall-clock"]


class TestNoUnseededRandom:
    def test_module_generator_draw_fires(self):
        source = """
            import random

            def draw():
                return random.random()
        """
        findings = _lint(source, "repro.experiments.sampler")
        assert _rules(findings) == ["no-unseeded-random"]
        assert "unseeded" in findings[0].message

    def test_unseeded_constructor_and_systemrandom_fire(self):
        source = """
            import random

            a = random.Random()
            b = random.SystemRandom()
        """
        findings = _lint(source, "repro.longitudinal.churn")
        assert _rules(findings) == ["no-unseeded-random", "no-unseeded-random"]

    def test_seeded_constructor_is_quiet(self):
        source = """
            import random

            def generator(seed):
                return random.Random(seed)
        """
        assert _lint(source, "repro.core.engine_x") == []

    def test_quiet_outside_deterministic_packages(self):
        source = """
            import random

            jitter = random.random()
        """
        assert _lint(source, "repro.simnet.network") == []


class TestSortedBeforeRender:
    def test_set_into_join_fires(self):
        source = """
            def render(names):
                return ", ".join({name.lower() for name in names})
        """
        findings = _lint(source, "repro.api.render")
        assert _rules(findings) == ["sorted-before-render"]
        assert "hash salt" in findings[0].message

    def test_set_call_into_hashlib_fires(self):
        source = """
            import hashlib

            def digest(values):
                return hashlib.sha256(set(values))
        """
        findings = _lint(source, "repro.core.signature")
        assert _rules(findings) == ["sorted-before-render"]

    def test_comprehension_over_set_literal_fires(self):
        source = """
            def render():
                return ",".join(str(v) for v in {2, 1, 3})
        """
        findings = _lint(source, "repro.api.render")
        assert _rules(findings) == ["sorted-before-render"]

    def test_sorted_wrapper_is_quiet(self):
        source = """
            def render(names):
                return ", ".join(sorted({name.lower() for name in names}))
        """
        assert _lint(source, "repro.api.render") == []

    def test_quiet_outside_repro(self):
        source = """
            def render(names):
                return ", ".join({n for n in names})
        """
        assert _lint(source, "tests.api.test_render") == []


class TestAtomicWriteOnly:
    BAD = """
        import json

        def save(path, doc, handle):
            path.write_text("x")
            json.dump(doc, handle)
            with open(path, "w") as out:
                out.write("x")
    """

    def test_direct_writes_fire_on_persistence_paths(self):
        findings = _lint(self.BAD, "repro.persist.store")
        assert _rules(findings) == ["atomic-write-only"] * 3
        assert "write_atomic" in findings[0].fixit

    def test_cli_is_a_persistence_path(self):
        findings = _lint(self.BAD, "repro.cli")
        assert _rules(findings) == ["atomic-write-only"] * 3

    def test_primitive_module_is_exempt(self):
        assert _lint(self.BAD, "repro.persist.files") == []

    def test_reads_are_quiet(self):
        source = """
            def load(path):
                with open(path) as handle:
                    return handle.read()
        """
        assert _lint(source, "repro.persist.store") == []

    def test_quiet_outside_persistence_packages(self):
        assert _lint(self.BAD, "repro.api.session") == []

    SWAPS = """
        import os
        from os import rename as move

        def swap(source, target):
            os.replace(source, target)
            move(source, target)
            os.symlink(target, source)
    """

    def test_renames_and_links_fire_on_persistence_paths(self):
        findings = _lint(self.SWAPS, "repro.persist.store")
        assert _rules(findings) == ["atomic-write-only"] * 3
        assert [finding.message for finding in findings] == [
            "direct os.replace() on a persistence path",
            "direct os.rename() on a persistence path",
            "direct os.symlink() on a persistence path",
        ]
        assert _rules(_lint(self.SWAPS, "repro.cli")) == ["atomic-write-only"] * 3
        assert _lint(self.SWAPS, "repro.persist.files") == []
        assert _lint(self.SWAPS, "repro.api.session") == []

    def test_str_and_dataclass_replace_are_quiet(self):
        source = """
            import dataclasses
            from dataclasses import replace

            def edit(text, config):
                dataclasses.replace(config, snapshots=3)
                replace(config, snapshots=4)
                return text.replace("a", "b"), str.replace(text, "c", "d")
        """
        assert _lint(source, "repro.persist.store") == []


class TestObsFastPath:
    def test_unguarded_call_fires(self):
        source = """
            from repro import obs

            def record(kind):
                obs.add("session.cache", 1, kind=kind)
        """
        findings = _lint(source, "repro.api.session_x")
        assert _rules(findings) == ["obs-fast-path"]
        assert "is_enabled" in findings[0].fixit

    def test_lexical_guard_is_quiet(self):
        source = """
            from repro import obs

            def record(kind):
                if obs.is_enabled():
                    obs.add("session.cache", 1, kind=kind)
        """
        assert _lint(source, "repro.api.session_x") == []

    def test_early_return_guard_is_quiet(self):
        source = """
            from repro import obs

            def record(kind):
                if not obs.is_enabled():
                    return
                obs.add("session.cache", 1, kind=kind)
        """
        assert _lint(source, "repro.api.session_x") == []

    def test_nested_function_resets_guard(self):
        source = """
            from repro import obs

            def outer():
                if obs.is_enabled():
                    def inner():
                        obs.add("stream.polls", 1)
                    return inner
        """
        findings = _lint(source, "repro.stream.service_x")
        assert _rules(findings) == ["obs-fast-path"]

    def test_negative_branch_is_unguarded(self):
        source = """
            from repro import obs

            def record():
                if not obs.is_enabled():
                    obs.add("oops", 1)
        """
        findings = _lint(source, "repro.api.session_x")
        assert _rules(findings) == ["obs-fast-path"]

    def test_span_is_exempt_and_obs_package_is_exempt(self):
        spans = """
            from repro import obs

            def traced():
                with obs.span("index.build"):
                    pass
        """
        assert _lint(spans, "repro.api.parallel_x") == []
        unguarded = """
            from repro import obs

            def record():
                obs.add("self", 1)
        """
        assert _lint(unguarded, "repro.obs.helpers") == []


class TestFrozenSpec:
    def test_unfrozen_dataclass_fires(self):
        source = """
            import dataclasses

            @dataclasses.dataclass
            class SourceSpec:
                name: str
        """
        findings = _lint(source, "repro.api.sources")
        assert _rules(findings) == ["frozen-spec"]
        assert "SourceSpec" in findings[0].message

    def test_frozen_false_fires(self):
        source = """
            from dataclasses import dataclass

            @dataclass(frozen=False)
            class StreamConfig:
                interval: float
        """
        findings = _lint(source, "repro.stream.engine")
        assert _rules(findings) == ["frozen-spec"]

    def test_frozen_true_is_quiet(self):
        source = """
            import dataclasses

            @dataclasses.dataclass(frozen=True, slots=True)
            class ValidatorSpec:
                technique: str
        """
        assert _lint(source, "repro.validation.spec") == []

    def test_quiet_outside_spec_modules(self):
        source = """
            import dataclasses

            @dataclasses.dataclass
            class Scratch:
                value: int
        """
        assert _lint(source, "repro.api.session_x") == []


class TestTypedErrors:
    def test_bare_valueerror_fires_on_persist_path(self):
        source = """
            def load(doc):
                if "v" not in doc:
                    raise ValueError("missing version")
        """
        findings = _lint(source, "repro.persist.store")
        assert _rules(findings) == ["typed-errors"]
        assert "DatasetError" in findings[0].fixit

    def test_runtime_and_exception_fire(self):
        source = """
            def check(ok):
                if not ok:
                    raise RuntimeError("nope")
                raise Exception("never")
        """
        findings = _lint(source, "repro.io.datasets_x")
        assert _rules(findings) == ["typed-errors", "typed-errors"]

    @pytest.mark.parametrize(
        "module", ["repro.stream.estimator", "repro.longitudinal.campaign"]
    )
    def test_fires_in_code_the_checkpoint_loaders_call(self, module):
        source = """
            def restore(state):
                if state["window"] < 1:
                    raise ValueError("estimator window must be at least 1")
        """
        assert _rules(_lint(source, module)) == ["typed-errors"]

    @pytest.mark.parametrize(
        "module", ["repro.protocols.ssh.wire", "repro.protocols.bgp.messages", "repro.protocols.snmp.ber"]
    )
    def test_fires_in_the_codecs_the_scan_clients_call(self, module):
        source = """
            def parse(data):
                if len(data) < 19:
                    raise ValueError("header incomplete")
        """
        assert _rules(_lint(source, module)) == ["typed-errors"]

    def test_typed_raise_is_quiet(self):
        source = """
            from repro.errors import PersistError

            def load(doc):
                if "v" not in doc:
                    raise PersistError("missing version")
        """
        assert _lint(source, "repro.persist.store") == []

    def test_bare_reraise_is_quiet(self):
        source = """
            def passthrough():
                try:
                    work()
                except KeyError:
                    raise
        """
        assert _lint(source, "repro.api.registry") == []

    def test_quiet_outside_contract_paths(self):
        source = """
            def check(ok):
                if not ok:
                    raise ValueError("fine here")
        """
        assert _lint(source, "repro.core.engine_x") == []
