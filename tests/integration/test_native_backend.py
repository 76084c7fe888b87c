"""Differential and lifecycle tests for ``backend="native"``.

The native backend's contract (see :mod:`repro.native.sharedlib`) is the
same as the vector backend's: observationally identical to the closure
interpreter — bit-for-bit equal outputs on every program, and equal
``ContextCounts`` whenever the static analysis reports them exact
(``vm.counts_exact``).  This suite enforces that on the full
zoo × generator grid, plus the lifecycle guarantees that make one
compiled ``.so`` safely reusable: every run resets the VM-owned state,
two VMs over one image never share it, and a warm on-disk cache entry
skips code generation and the C compiler entirely.

Every test auto-skips when no C toolchain is on PATH.
"""

import numpy as np
import pytest

from repro.codegen import FrodoGenerator, make_generator
from repro.errors import NativeToolchainError
from repro.ir.interp import VirtualMachine, cached_vm, clear_vm_cache
from repro.model.builder import ModelBuilder
from repro.native import (clear_shared_program_cache, find_compiler,
                          load_shared_program, shared_program_stats)
from repro.sim.simulator import random_inputs
from repro.zoo import EXTENDED, TABLE1, build_model

GENERATORS = ("simulink", "dfsynth", "hcg", "frodo")
ZOO = [e.name for e in TABLE1] + [e.name for e in EXTENDED] + ["Motivating"]

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(find_compiler() is None, reason="no C compiler"),
]


def assert_native_agrees(program, inputs, so_cache_dir=None, steps=3):
    """Native must match closure bitwise; counts too when reported exact."""
    ref = VirtualMachine(program, backend="closure").run(inputs, steps=steps)
    vm = VirtualMachine(program, backend="native", so_cache_dir=so_cache_dir)
    res = vm.run(inputs, steps=steps)
    for name, expected in ref.outputs.items():
        assert np.asarray(expected).tobytes() == \
            np.asarray(res.outputs[name]).tobytes(), (
            f"native output {name!r} not bitwise identical to closure")
    if vm.counts_exact:
        assert ref.counts == res.counts, (
            f"static counts claim exactness but diverge\n"
            f"closure: {ref.counts.as_dict()}\n"
            f"native:  {res.counts.as_dict()}")
    return vm


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("model_name", ZOO)
def test_zoo_native_identical(model_name, generator, tmp_path):
    model = build_model(model_name)
    code = make_generator(generator).generate(model)
    inputs = code.map_inputs(random_inputs(model, seed=0))
    assert_native_agrees(code.program, inputs, so_cache_dir=tmp_path)


def stateful_code():
    """A model whose step output depends on delay-line state."""
    b = ModelBuilder("Stateful")
    u = b.inport("u", shape=(6,))
    d = b.delay(u, length=2, name="dly")
    s = b.add(u, d, name="acc")
    b.outport("y", s)
    return FrodoGenerator().generate(b.build())


class TestStatefulReuse:
    def test_init_resets_state_between_runs(self, tmp_path):
        """One cached .so, two runs with different inputs: run 2 must match
        a fresh closure VM, i.e. no state may leak across run()."""
        code = stateful_code()
        rng = np.random.default_rng(0)
        inputs_a = code.map_inputs({"u": rng.uniform(-3, 3, 6)})
        inputs_b = code.map_inputs({"u": rng.uniform(-3, 3, 6)})

        vm = VirtualMachine(code.program, backend="native",
                            so_cache_dir=tmp_path)
        vm.run(inputs_a, steps=5)  # pollutes the .so's static state
        second = vm.run(inputs_b, steps=5)
        fresh = VirtualMachine(code.program, backend="closure").run(
            inputs_b, steps=5)
        np.testing.assert_array_equal(second.outputs[code.output_buffers["y"]],
                                      fresh.outputs[code.output_buffers["y"]])

    @pytest.mark.parametrize("model_name",
                             ["Back", "RunningDiff", "HT"])
    def test_partial_inputs_after_full_run_match_vector(self, model_name,
                                                         tmp_path):
        """A native run() restores only inputs and outputs in Python (the
        C entry resets state and temps): after a run that set every
        input, a run that sets one must see the rest at their declared
        initial values, with outputs and counts bit-identical to vector."""
        model = build_model(model_name)
        code = make_generator("frodo").generate(model)
        full = code.map_inputs(random_inputs(model, seed=0))
        later = code.map_inputs(random_inputs(model, seed=1))
        name = sorted(later)[0]
        partial = {name: later[name]}
        results = {}
        for backend in ("vector", "native"):
            vm = VirtualMachine(code.program, backend=backend,
                                so_cache_dir=tmp_path)
            vm.run(full, steps=3)
            results[backend] = (vm, vm.run(partial, steps=3))
        (_, ref), (native, res) = results["vector"], results["native"]
        for out, expected in ref.outputs.items():
            assert np.asarray(expected).tobytes() == \
                np.asarray(res.outputs[out]).tobytes(), out
        assert native.counts_exact
        assert res.counts == ref.counts

    def test_two_vms_over_one_image_are_independent(self, tmp_path):
        """Two live native VMs over one loaded .so keep their state in
        their own buffers: interleaved raw step() calls give each VM the
        outputs of an isolated VM, and binding the second VM is silent."""
        import warnings
        code = stateful_code()
        y = code.output_buffers["y"]
        xa = code.map_inputs({"u": np.linspace(-1, 1, 6)})
        xb = code.map_inputs({"u": np.full(6, 9.0)})
        clear_shared_program_cache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vm_a = VirtualMachine(code.program, backend="native",
                                  so_cache_dir=tmp_path)
            vm_b = VirtualMachine(code.program, backend="native",
                                  so_cache_dir=tmp_path)
            assert vm_a._shared is vm_b._shared  # one loaded image
            pairs = [(vm_a, VirtualMachine(code.program, backend="closure")),
                     (vm_b, VirtualMachine(code.program, backend="closure"))]
            for (native, isolated), x in zip(pairs, (xa, xb)):
                for vm in (native, isolated):
                    vm.reset()
                    vm.set_inputs(x)
            for _ in range(4):
                for native, isolated in pairs:
                    native.step()
                    isolated.step()
                for native, isolated in pairs:
                    np.testing.assert_array_equal(native.outputs()[y],
                                                  isolated.outputs()[y])
                    assert native.counts == isolated.counts


class TestWarmCache:
    def test_disk_hit_skips_codegen_and_compiler(self, tmp_path, monkeypatch):
        """A warm .so entry must be served without re-emitting C or
        invoking the C compiler — both are monkeypatched to explode."""
        code = stateful_code()
        clear_shared_program_cache()  # force a real build into tmp_path
        load_shared_program(code.program, cache_dir=tmp_path)
        clear_shared_program_cache()  # simulate a fresh process

        import repro.codegen.ctext as ctext
        import repro.native.sharedlib as sharedlib

        def boom(*args, **kwargs):
            raise AssertionError("warm path must not reach this")

        monkeypatch.setattr(ctext, "emit_c", boom)
        monkeypatch.setattr(sharedlib, "_build_so", boom)

        before = shared_program_stats()
        shared = load_shared_program(code.program, cache_dir=tmp_path)
        after = shared_program_stats()
        assert shared.from_cache
        assert after["disk_hits"] == before["disk_hits"] + 1
        assert after["builds"] == before["builds"]

    def test_registry_hit_returns_same_object(self, tmp_path):
        code = stateful_code()
        before = shared_program_stats()
        first = load_shared_program(code.program, cache_dir=tmp_path)
        second = load_shared_program(code.program, cache_dir=tmp_path)
        assert first is second
        assert shared_program_stats()["hits"] >= before["hits"] + 1

    def test_cache_dir_persists_source_and_metadata(self, tmp_path):
        code = stateful_code()
        clear_shared_program_cache()
        load_shared_program(code.program, cache_dir=tmp_path)
        sos = list(tmp_path.glob("*/*.so"))
        assert len(sos) == 1
        key = sos[0].stem
        source = sos[0].with_suffix(".c").read_text()
        assert f"{code.program.name}_step" in source
        import json
        info = json.loads(sos[0].with_suffix(".json").read_text())
        assert info["key"] == key
        assert info["compiler_path"]
        assert info["compiler_version_hash"]


class TestVmIntegration:
    def test_cached_vm_keyed_by_backend_and_store(self, tmp_path):
        code = stateful_code()
        clear_vm_cache()
        vm_auto = cached_vm(code.program)
        vm_native = cached_vm(code.program, backend="native",
                              so_cache_dir=tmp_path)
        assert vm_auto is not vm_native
        assert cached_vm(code.program, backend="native",
                         so_cache_dir=tmp_path) is vm_native

    def test_native_failure_is_typed_never_silent(self, monkeypatch):
        """A broken toolchain must raise NativeToolchainError from VM
        construction — no fallback to another backend."""
        import repro.native.sharedlib as sharedlib

        def no_cc(cc=None):
            raise NativeToolchainError("no C compiler found on PATH")

        monkeypatch.setattr(sharedlib, "compiler_identity", no_cc)
        code = stateful_code()
        with pytest.raises(NativeToolchainError):
            VirtualMachine(code.program, backend="native")


class TestServeNative:
    def test_run_op_native_populates_so_store(self, tmp_path):
        from repro.serve.cache import ArtifactCache
        from repro.serve.handlers import handle_request
        clear_vm_cache()
        clear_shared_program_cache()
        cache = ArtifactCache(tmp_path)
        req = {"op": "run", "model": "Motivating", "generator": "frodo",
               "backend": "native", "steps": 2}
        result, _ = handle_request(req, cache)
        assert "counts_exact" in result
        assert list(cache.native_dir.glob("*/*.so"))
        # second request: artifact cache + .so registry, same outputs
        result2, _ = handle_request(req, cache)
        assert result["counts"] == result2["counts"]

    def test_native_unavailable_is_typed(self, tmp_path, monkeypatch):
        from repro.serve.cache import ArtifactCache
        from repro.serve.handlers import handle_request
        from repro.serve.protocol import ServeError
        import repro.native.sharedlib as sharedlib

        def no_cc(cc=None):
            raise NativeToolchainError("no C compiler found on PATH")

        monkeypatch.setattr(sharedlib, "compiler_identity", no_cc)
        clear_vm_cache()
        clear_shared_program_cache()
        req = {"op": "run", "model": "Motivating", "generator": "frodo",
               "backend": "native", "steps": 1}
        with pytest.raises(ServeError) as err:
            handle_request(req, ArtifactCache(tmp_path))
        assert err.value.error_type == "native_unavailable"
