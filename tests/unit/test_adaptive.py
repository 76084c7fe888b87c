"""Unit tests for the adaptive tier: heat, thresholds, promotion state.

Covers the :mod:`repro.serve.adaptive` controller (decay, cost-seeded
and fixed thresholds, state transitions, demotion permanence, tracked-
entry bound, event draining) and how a promotion reaches the serve warm
table (:mod:`repro.serve.handlers`): the controller owns promotion
state, the table owns the VMs.
"""

import time

import numpy as np
import pytest

from repro.ir.build import add, const, load, var
from repro.ir.interp import VirtualMachine
from repro.ir.ops import Assign, For, Program
from repro.ir.vectorize import fingerprint
from repro.native import find_compiler
from repro.serve import adaptive
from repro.serve.adaptive import (CALIBRATION_FACTOR_BOUNDS,
                                  CALIBRATION_MIN_SAMPLES,
                                  VECTOR_OVERHEAD_FACTOR, AdaptiveConfig,
                                  AdaptiveController, calibrate_from_spans,
                                  estimate_compile_ns, estimate_step_ns,
                                  modeled_step_ns, span_overhead_ratios)
from repro.serve.cache import ArtifactCache
from repro.serve.handlers import configure_warm_table, handle_request


def make_program(name="adapt", n=8):
    p = Program(name)
    p.declare("x", (n,), "float64", "input")
    p.declare("y", (n,), "float64", "output")
    p.step.append(For("i", 0, n,
                      [Assign("y", var("i"),
                              add(load("x", var("i")), const(1.0)))],
                      vectorizable=True))
    return p


def observe(ctl, program, fuse=True, **kwargs):
    """One ``auto`` request for ``program``, as the serve table feeds it."""
    return ctl.observe(fingerprint(program),
                       VirtualMachine(program, backend="auto", fuse=fuse),
                       **kwargs)


@pytest.fixture(autouse=True)
def clean_state():
    yield
    adaptive.configure(None)
    configure_warm_table()


class TestEstimates:
    def test_step_estimate_positive_and_scales(self):
        small = estimate_step_ns(make_program(n=4))
        large = estimate_step_ns(make_program(n=4096))
        assert small > 0
        assert large > small

    def test_compile_estimate_grows_with_statements(self):
        p = make_program()
        base = estimate_compile_ns(p)
        for k in range(5):
            p.step.append(Assign("y", const(0), const(float(k))))
        assert estimate_compile_ns(p) > base


class TestHeatTracking:
    def test_heat_accumulates_steps_times_batch(self):
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=1e12))
        p = make_program()
        observe(ctl, p, steps=10, batch=3)
        status = observe(ctl, p, steps=5, batch=1)
        assert status["heat"] == pytest.approx(35.0, rel=0.01)

    def test_heat_decays_with_half_life(self):
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=1e12,
                                                half_life_seconds=0.05))
        p = make_program()
        first = observe(ctl, p, steps=100)
        time.sleep(0.12)
        second = observe(ctl, p, steps=1)
        # Two-plus half-lives: the original 100 units decayed below ~30.
        assert second["heat"] < first["heat"] * 0.4

    def test_tracked_entries_bounded_lru(self):
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=1e12,
                                                max_tracked=3))
        for i in range(6):
            observe(ctl, make_program(name=f"m{i}", n=4 + i), steps=1)
        counts = ctl.state_counts()
        assert sum(counts.values()) == 3

    def test_lru_never_forgets_compiling_or_demoted(self):
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=0.0,
                                                min_runs=1, max_tracked=2))
        submitted = []
        ctl._submit = lambda entry, vm: submitted.append(entry)
        observe(ctl, make_program(name="a", n=4), steps=1)
        observe(ctl, make_program(name="b", n=5), steps=1)
        ctl._finish(submitted[0], "demoted", time.perf_counter(), None, "x")
        ctl.config.threshold_ms = 1e12  # newcomers stay cold...
        for i in range(4):  # ...and churn only among themselves
            observe(ctl, make_program(name=f"c{i}", n=6 + i), steps=1)
        counts = ctl.state_counts()
        assert counts["demoted"] == 1 and counts["compiling"] == 1
        assert ctl.state_of(fingerprint(make_program(name="a", n=4))) \
            == "demoted"


def _vm_run_span(program="adapt", backend="vector", steps=10, wall=1e-3):
    """One exported ``vm.run`` span, shaped like ``Span.as_dict()``."""
    return {"name": "vm.run", "trace_id": "t" * 16, "span_id": "s" * 16,
            "parent_id": "p" * 16, "start_unix": 0.0,
            "wall_seconds": wall, "cpu_seconds": wall, "pid": 1, "tid": 1,
            "attrs": {"backend": backend, "program": program,
                      "steps": steps, "fuse": True,
                      "fusion_nests_fused": 0,
                      "fusion_buffers_contracted": 0}}


class TestOverheadCalibration:
    def test_constant_fallback_without_enough_samples(self):
        modeled = {"adapt": 1000.0}
        spans = [_vm_run_span()
                 for _ in range(CALIBRATION_MIN_SAMPLES - 1)]
        assert calibrate_from_spans(spans, modeled) \
            == VECTOR_OVERHEAD_FACTOR
        assert calibrate_from_spans([], {}) == VECTOR_OVERHEAD_FACTOR

    def test_median_ratio_from_recorded_fixture(self):
        # Four recorded 10-step vector runs whose measured/modeled
        # ratios are 10, 20, 30, 40 — the calibrated factor is their
        # median, not the (outlier-sensitive) mean.
        modeled = {"adapt": 1000.0}
        spans = [_vm_run_span(steps=10, wall=r * 1000.0 * 10 / 1e9)
                 for r in (10.0, 20.0, 30.0, 40.0)]
        assert calibrate_from_spans(spans, modeled) == pytest.approx(25.0)

    def test_foreign_or_unusable_spans_are_skipped(self):
        modeled = {"adapt": 1000.0}
        spans = [
            _vm_run_span(backend="closure"),      # wrong backend
            _vm_run_span(backend="native"),
            _vm_run_span(program="unknown"),      # no modeled baseline
            {"name": "codegen", "wall_seconds": 1.0, "attrs": {}},
            _vm_run_span(steps=0),                # unusable timing
            _vm_run_span(wall=0.0),
        ]
        assert span_overhead_ratios(spans, modeled) == []

    def test_absurd_ratio_is_clamped(self):
        modeled = {"adapt": 1000.0}
        spans = [_vm_run_span(steps=1, wall=10.0)
                 for _ in range(CALIBRATION_MIN_SAMPLES)]
        assert calibrate_from_spans(spans, modeled) \
            == CALIBRATION_FACTOR_BOUNDS[1]

    def test_controller_calibrates_threshold_factor(self):
        ctl = AdaptiveController(AdaptiveConfig(min_runs=2))
        ctl._submit = lambda entry, program: None
        p = make_program()
        observe(ctl, p, steps=1, model_name="adapt")
        observe(ctl, p, steps=1, model_name="adapt")  # estimates step_ns
        assert ctl.overhead_factor is None            # constant still rules
        entry = next(iter(ctl._entries.values()))
        assert entry.step_ns == pytest.approx(modeled_step_ns(p))
        target = 7.0
        wall = target * entry.step_ns * 10 / 1e9
        spans = [_vm_run_span(steps=10, wall=wall)
                 for _ in range(CALIBRATION_MIN_SAMPLES)]
        ctl.record_vm_run_spans(spans)
        assert ctl.overhead_factor == pytest.approx(target, rel=1e-6)
        assert ctl._factor() == ctl.overhead_factor

    def test_untraced_requests_do_not_calibrate(self):
        ctl = AdaptiveController(AdaptiveConfig(min_runs=2))
        ctl.record_vm_run_spans([])
        assert ctl.overhead_factor is None


class TestPromotionPolicy:
    def test_fixed_threshold_promotes_at_min_runs(self):
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=0.0,
                                                min_runs=3))
        ctl._submit = lambda entry, program: None  # policy only, no compile
        p = make_program()
        assert observe(ctl, p, steps=1)["state"] == "cold"
        assert observe(ctl, p, steps=1)["state"] == "cold"
        assert observe(ctl, p, steps=1)["state"] == "compiling"

    def test_cost_seeded_threshold_needs_enough_work(self):
        ctl = AdaptiveController(AdaptiveConfig())  # seeded from cost model
        ctl._submit = lambda entry, program: None
        p = make_program()
        step_ns = estimate_step_ns(p)
        compile_ns = estimate_compile_ns(p)
        cheap_steps = 1
        assert cheap_steps * 2 * step_ns < compile_ns, "fixture too hot"
        assert observe(ctl, p, steps=cheap_steps)["state"] == "cold"
        assert observe(ctl, p, steps=cheap_steps)["state"] == "cold"
        # Enough served work to pay for the compile: promotes.
        hot_steps = int(compile_ns / step_ns) + 1
        assert observe(ctl, p, steps=hot_steps)["state"] == "compiling"

    def test_threshold_override_beats_seeded(self):
        cfg = AdaptiveConfig(threshold_ms=1e12)
        ctl = AdaptiveController(cfg)
        ctl._submit = lambda entry, program: None
        p = make_program()
        for _ in range(5):
            status = observe(ctl, p, steps=10 ** 6)
        assert status["state"] == "cold"  # fixed threshold is enormous


def _motivating_program():
    from repro.codegen import make_generator
    from repro.zoo import build_model
    return make_generator("frodo").generate(build_model("Motivating")).program


def _count_vm_builds(monkeypatch) -> list:
    builds = []
    real_init = VirtualMachine.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(kwargs.get("backend", args[1] if len(args) > 1
                                 else "auto"))
        real_init(self, *args, **kwargs)
    monkeypatch.setattr(VirtualMachine, "__init__", counting_init)
    return builds


RUN = {"op": "run", "model": "Motivating", "steps": 3,
       "include_outputs": False}


class TestPromotionExecution:
    def test_background_promotion_and_events(self, tmp_path):
        if find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        ctl = adaptive.configure(AdaptiveConfig(threshold_ms=0.0,
                                                min_runs=2),
                                 so_cache_dir=str(tmp_path))
        p = make_program()
        fp = fingerprint(p)
        vm = VirtualMachine(p, backend="auto")
        ctl.observe(fp, vm, steps=1, model_name="adapt")
        ctl.observe(fp, vm, steps=1, model_name="adapt")
        assert ctl.wait_idle(timeout=60)
        assert ctl.state_of(fp) == "promoted"
        events = ctl.drain_events()
        assert len(events) == 1
        assert events[0]["event"] == "promoted"
        assert events[0]["model"] == "adapt"
        assert events[0]["compile_seconds"] > 0
        # Spans from the background native.promote trace ride the event.
        names = {s["name"] for s in events[0].get("spans", ())}
        assert "native.promote" in names
        assert ctl.drain_events() == []  # drained exactly once
        # The promoted VM waits on the controller for the next request.
        native = ctl.native_vm(fp, vm)
        assert native.backend == "native" and native.fuse == vm.fuse
        x = {"x": np.arange(8.0)}
        np.testing.assert_array_equal(native.run(x).outputs["y"],
                                      vm.run(x).outputs["y"])

    def test_auto_request_after_promotion_runs_native_without_build(
            self, tmp_path, monkeypatch):
        if find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        cache = ArtifactCache(tmp_path / "cache")
        ctl = adaptive.configure(AdaptiveConfig(threshold_ms=0.0,
                                                min_runs=2),
                                 so_cache_dir=cache.native_dir)
        first, _ = handle_request(RUN, cache)
        handle_request(RUN, cache)  # hot enough: the compile starts
        assert ctl.wait_idle(timeout=60)
        builds = _count_vm_builds(monkeypatch)
        result, meta = handle_request(RUN, cache)
        assert result["backend_effective"] == "native"
        assert meta["vm_cache"] == "hit" and builds == []
        assert result["output_sha256"] == first["output_sha256"]
        assert result["total_element_ops"] == first["total_element_ops"]
        assert result["fusion"] == first["fusion"]

    def test_toolchain_failure_demotes_permanently(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_NO_CC", "1")
        ctl = adaptive.configure(AdaptiveConfig(threshold_ms=0.0,
                                                min_runs=1),
                                 so_cache_dir=str(tmp_path))
        p = make_program()
        fp = fingerprint(p)
        vm = VirtualMachine(p, backend="auto")
        ctl.observe(fp, vm, steps=1)
        assert ctl.wait_idle(timeout=30)
        assert ctl.state_of(fp) == "demoted"
        events = ctl.drain_events()
        assert events[0]["event"] == "demoted"
        assert "error" in events[0]
        # Demotion is permanent: however hot, no compile is retried...
        monkeypatch.delenv("REPRO_NO_CC")
        for _ in range(3):
            assert ctl.observe(fp, vm, steps=10 ** 6)["state"] == "demoted"
        assert ctl.wait_idle(timeout=30) and ctl.drain_events() == []
        # ...and auto keeps serving on the vector path.
        assert ctl.native_vm(fp, vm) is vm
        out = vm.run({"x": np.arange(8.0)}, steps=1)
        np.testing.assert_allclose(out.outputs["y"], np.arange(8.0) + 1)


class TestInterpOverlay:
    """What replaced the promotion overlay of ``repro.ir.interp``: the
    controller owns promotion state and the serve warm table owns the
    VMs it swaps in."""

    def test_promotion_state_transitions(self):
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=0.0,
                                                min_runs=1))
        submitted = []
        ctl._submit = lambda entry, vm: submitted.append(entry)
        p = make_program()
        fp = fingerprint(p)
        vm = VirtualMachine(p, backend="auto")
        assert ctl.state_of(fp) is None
        assert ctl.observe(fp, vm, steps=1)["state"] == "compiling"
        [entry] = submitted
        ctl._finish(entry, "demoted", time.perf_counter(), None, "boom")
        assert ctl.state_of(fp) == "demoted"
        for _ in range(3):  # demotion wins forever
            assert ctl.observe(fp, vm, steps=10 ** 6)["state"] == "demoted"
        assert len(submitted) == 1
        assert ctl.native_vm(fp, vm) is vm

    def test_promotion_keyed_by_fuse_flag(self):
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=0.0,
                                                min_runs=1))
        ctl._submit = lambda entry, vm: None
        p = make_program()
        fp = fingerprint(p)
        observe(ctl, p, fuse=True, steps=1)
        assert ctl.state_of(fp, fuse=True) == "compiling"
        assert ctl.state_of(fp, fuse=False) is None
        assert observe(ctl, p, fuse=False, steps=1)["state"] == "compiling"
        assert len(ctl._entries) == 2

    def test_promoted_vm_swaps_into_table_entry(self, tmp_path,
                                                monkeypatch):
        cache = ArtifactCache(tmp_path)
        ctl = adaptive.configure(AdaptiveConfig(threshold_ms=1e12))
        first, _ = handle_request(RUN, cache)
        [entry] = ctl._entries.values()
        # Land a promotion by hand; any VM kind stands in for native.
        entry.state = "promoted"
        entry.vm = VirtualMachine(_motivating_program(), backend="closure")
        builds = _count_vm_builds(monkeypatch)
        result, meta = handle_request(RUN, cache)
        assert result["backend_effective"] == "closure"
        assert meta["vm_cache"] == "hit" and builds == []
        assert result["output_sha256"] == first["output_sha256"]
        assert entry.vm is None  # handed over to the table exactly once

    def test_vm_cache_limit_bounds_and_counts_evictions(self, tmp_path):
        table = configure_warm_table(2)
        cache = ArtifactCache(tmp_path)
        for model in ("Motivating", "Simpson", "HT", "Motivating"):
            _, meta = handle_request({**RUN, "model": model}, cache)
        assert meta["vm_cache"] == "miss"  # evicted by the two between
        assert len(table) == 2
        assert table.evictions == 2
        assert meta["vm_cache_evictions"] == 2

    def test_vm_cache_limit_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            configure_warm_table(0)

    def test_demoted_auto_never_raises_toolchain_error(self, monkeypatch,
                                                       tmp_path):
        ctl = adaptive.configure(AdaptiveConfig(threshold_ms=1e12),
                                 so_cache_dir=str(tmp_path / "empty"))
        cache = ArtifactCache(tmp_path / "cache")
        handle_request(RUN, cache)
        [entry] = ctl._entries.values()
        entry.state = "promoted"  # its VM already taken by another entry
        monkeypatch.setenv("REPRO_NO_CC", "1")
        # Promoted, but the .so store is empty and the toolchain is gone:
        # the swap must demote and fall back, not raise.
        result, meta = handle_request(RUN, cache)
        assert result["backend_effective"] != "native"
        assert entry.state == "demoted"
        assert [e["event"] for e in meta["adaptive_events"]] == ["demoted"]


class TestHeatPersistence:
    """Heat records survive in a HeatStore so an inheriting shard starts
    from observed heat instead of zero (the cluster re-hash story)."""

    def _store(self, tmp_path):
        from repro.serve.store import HeatStore, LocalStore
        return HeatStore(LocalStore(tmp_path))

    def test_observe_publishes_heat_record(self, tmp_path):
        heat = self._store(tmp_path)
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=1e12),
                                 heat_store=heat)
        p = make_program()
        observe(ctl, p, steps=10, batch=2, model_name="adapt")
        record = heat.load(fingerprint(p), True)
        assert record is not None
        assert record["heat"] == pytest.approx(20.0, rel=0.01)
        assert record["invocations"] == 1
        assert record["model"] == "adapt"
        assert record["updated_at"] <= time.time()

    def test_new_controller_seeds_from_persisted_heat(self, tmp_path,
                                                      monkeypatch):
        # Publish every observation (the throttle is not under test).
        monkeypatch.setattr(adaptive, "HEAT_PUBLISH_INTERVAL", 0.0)
        heat = self._store(tmp_path)
        p = make_program()
        first = AdaptiveController(AdaptiveConfig(threshold_ms=1e12),
                                   heat_store=heat)
        for _ in range(3):
            observe(first, p, steps=50)
        # A fresh controller (an inheriting shard) starts warm: its first
        # observation lands on top of the persisted 150 units.
        second = AdaptiveController(AdaptiveConfig(threshold_ms=1e12),
                                    heat_store=heat)
        status = observe(second, p, steps=1)
        assert status["heat"] > 100.0
        entry = second._entries[(fingerprint(p), True)]
        assert entry.invocations >= 3

    def test_seeded_heat_decays_by_wall_clock_age(self, tmp_path):
        heat = self._store(tmp_path)
        p = make_program()
        fp = fingerprint(p)
        # A record an hour old with a 1s half-life is stone cold.
        heat.save(fp, True, {"heat": 1e6, "updated_at": time.time() - 3600,
                             "invocations": 100})
        ctl = AdaptiveController(
            AdaptiveConfig(threshold_ms=1e12, half_life_seconds=1.0),
            heat_store=heat)
        status = observe(ctl, p, steps=1)
        assert status["heat"] < 2.0

    def test_garbage_record_is_ignored(self, tmp_path):
        heat = self._store(tmp_path)
        p = make_program()
        heat.save(fingerprint(p), True,
                  {"heat": "not-a-number", "invocations": True})
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=1e12),
                                 heat_store=heat)
        status = observe(ctl, p, steps=5)
        assert status["heat"] == pytest.approx(5.0, rel=0.01)

    def test_no_store_means_no_seeding_io(self):
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=1e12))
        status = observe(ctl, make_program(), steps=5)
        assert status["heat"] == pytest.approx(5.0, rel=0.01)
