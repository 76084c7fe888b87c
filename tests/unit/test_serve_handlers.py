"""Unit tests for serve request handlers (inline, no sockets/processes)."""

import base64

import numpy as np
import pytest

from repro.serve.cache import ArtifactCache
from repro.serve.handlers import configure_warm_table, handle_request
from repro.serve.protocol import ServeError


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path)


@pytest.fixture(autouse=True)
def fresh_warm_table():
    configure_warm_table()
    yield
    configure_warm_table()


def _error_type(req, cache=None, **kwargs):
    with pytest.raises(ServeError) as exc:
        handle_request(req, cache, **kwargs)
    return exc.value.error_type


class TestCompile:
    def test_miss_then_hit(self, cache):
        req = {"op": "compile", "model": "Motivating", "generator": "frodo"}
        result, meta = handle_request(req, cache)
        assert meta["artifact_cache"] == "miss"
        assert result["stats"]["eliminated_elements"] == 10
        result2, meta2 = handle_request(req, cache)
        assert meta2["artifact_cache"] == "hit"
        assert result2["model_fingerprint"] == result["model_fingerprint"]

    def test_no_cache_configured(self):
        result, meta = handle_request(
            {"op": "compile", "model": "Motivating"}, None)
        assert meta["artifact_cache"] == "off"
        assert result["generator"] == "frodo"

    def test_include_source(self, cache):
        result, _ = handle_request(
            {"op": "compile", "model": "Motivating",
             "include_source": True}, cache)
        assert "#include <math.h>" in result["c_source"]

    def test_backend_partitions_cache(self, cache):
        base = {"op": "compile", "model": "Motivating"}
        handle_request({**base, "backend": "auto"}, cache)
        _, meta = handle_request({**base, "backend": "closure"}, cache)
        assert meta["artifact_cache"] == "miss"


class TestRun:
    def test_deterministic_and_matches_simulation(self, cache):
        from repro.sim.simulator import random_inputs, simulate
        from repro.zoo import build_model
        req = {"op": "run", "model": "Motivating", "generator": "frodo",
               "steps": 2, "seed": 5}
        result, meta = handle_request(req, cache)
        result2, meta2 = handle_request(req, cache)
        assert result["output_sha256"] == result2["output_sha256"]
        assert meta2["vm_cache"] == "hit" and meta2["artifact_cache"] == "hit"
        model = build_model("Motivating")
        expected = simulate(model, random_inputs(model, seed=5), steps=2)
        for name, value in expected.items():
            np.testing.assert_allclose(
                np.asarray(result["outputs"][name], dtype=float).ravel(),
                np.asarray(value).ravel(), rtol=1e-9, atol=1e-12)

    def test_explicit_inputs(self, cache):
        u = np.linspace(-1, 1, 60)
        result, _ = handle_request(
            {"op": "run", "model": "Motivating",
             "inputs": {"u": u.tolist()}}, cache)
        result2, _ = handle_request(
            {"op": "run", "model": "Motivating",
             "inputs": {"u": u.tolist()}}, cache)
        assert result["output_sha256"] == result2["output_sha256"]

    def test_include_outputs_false(self, cache):
        result, _ = handle_request(
            {"op": "run", "model": "Motivating",
             "include_outputs": False}, cache)
        assert "outputs" not in result and "output_sha256" in result

    def test_bad_fields(self, cache):
        assert _error_type({"op": "run", "model": "Motivating",
                            "steps": 0}, cache) == "bad_request"
        assert _error_type({"op": "run", "model": "Motivating",
                            "steps": "many"}, cache) == "bad_request"
        assert _error_type({"op": "run", "model": "Motivating",
                            "backend": "gpu"}, cache) == "bad_request"
        assert _error_type({"op": "run", "model": "Motivating",
                            "inputs": {"nope": [1.0]}},
                           cache) == "bad_request"

    def test_unknown_model_and_generator(self, cache):
        assert _error_type({"op": "run", "model": "Zzz"},
                           cache) == "unknown_model"
        assert _error_type({"op": "run", "model": "Motivating",
                            "generator": "gcc"},
                           cache) == "unknown_generator"

    def test_missing_model(self, cache):
        assert _error_type({"op": "run"}, cache) == "bad_request"


class TestCorpusSpecs:
    def test_corpus_spec_compiles(self, cache):
        result, _ = handle_request(
            {"op": "compile", "model": "corpus:3:10"}, cache)
        assert result["model"] == "Corpus_s3_b10_t35"

    def test_corpus_spec_fingerprint_is_stable(self, cache):
        req = {"op": "compile", "model": "corpus:5:10"}
        first, meta = handle_request(req, cache)
        second, meta2 = handle_request(req, cache)
        assert first["model_fingerprint"] == second["model_fingerprint"]
        assert meta["artifact_cache"] == "miss"
        assert meta2["artifact_cache"] == "hit"

    def test_corpus_spec_runs(self, cache):
        result, _ = handle_request(
            {"op": "run", "model": "corpus:0:8", "steps": 2,
             "backend": "vector"}, cache)
        assert result["outputs"]

    def test_bad_corpus_spec_is_invalid_model(self, cache):
        assert _error_type({"op": "run", "model": "corpus:zzz"},
                           cache) == "invalid_model"
        assert _error_type({"op": "run", "model": "corpus:-4"},
                           cache) == "invalid_model"

    def test_oversized_corpus_spec_is_bad_request(self, cache):
        from repro.serve.handlers import MAX_CORPUS_BLOCKS
        too_big = f"corpus:0:{MAX_CORPUS_BLOCKS + 1}"
        assert _error_type({"op": "run", "model": too_big},
                           cache) == "bad_request"
        assert _error_type({"op": "compile", "model": "corpus:0:1000000"},
                           cache) == "bad_request"

    def test_unknown_model_error_mentions_corpus_form(self, cache):
        with pytest.raises(ServeError) as exc:
            handle_request({"op": "run", "model": "Zzz"}, None)
        assert "corpus:<seed>" in str(exc.value)


class TestPayloadUpload:
    def test_slx_payload_round_trip(self, cache, tmp_path):
        from repro.model.slx import save_slx
        from repro.zoo import build_model
        path = save_slx(build_model("Simpson"), tmp_path / "m.slx")
        payload = base64.b64encode(path.read_bytes()).decode()
        result, _ = handle_request(
            {"op": "compile", "model_payload": payload,
             "model_format": "slx"}, cache)
        zoo_result, _ = handle_request(
            {"op": "compile", "model": "Simpson"}, cache)
        # Same model content -> same fingerprint -> shared artifact.
        assert result["model_fingerprint"] == zoo_result["model_fingerprint"]

    def test_invalid_payloads(self, cache):
        assert _error_type({"op": "compile", "model_payload": "!!!"},
                           cache) == "invalid_model"
        garbage = base64.b64encode(b"not a zip").decode()
        assert _error_type({"op": "compile", "model_payload": garbage},
                           cache) == "invalid_model"
        assert _error_type({"op": "compile", "model_payload": garbage,
                            "model_format": "xml"},
                           cache) == "bad_request"


class TestRangesAndReport:
    def test_ranges(self, cache):
        result, _ = handle_request(
            {"op": "ranges", "model": "Motivating"}, cache)
        assert result["optimizable_blocks"] == 1
        assert result["eliminated_elements"] == 10
        optimizable = [b for b in result["blocks"] if b["optimizable"]]
        assert len(optimizable) == 1

    def test_report_rows(self, cache):
        result, _ = handle_request(
            {"op": "report", "model": "Motivating"}, cache)
        by_gen = {row["generator"]: row for row in result["rows"]}
        assert set(by_gen) == {"simulink", "dfsynth", "hcg", "frodo"}
        # FRODO eliminates work, so it beats the Simulink baseline.
        assert by_gen["frodo"]["total_element_ops"] < \
            by_gen["simulink"]["total_element_ops"]
        assert by_gen["frodo"]["ops_vs_baseline"] > 1.0

    def test_report_bad_generators(self, cache):
        assert _error_type({"op": "report", "model": "Motivating",
                            "generators": []}, cache) == "bad_request"
        assert _error_type({"op": "report", "model": "Motivating",
                            "generators": ["gcc"]},
                           cache) == "unknown_generator"


class TestDebugOps:
    def test_sleep_gated(self, cache):
        assert _error_type({"op": "sleep", "seconds": 0}, cache,
                           allow_debug=False) == "bad_request"
        result, _ = handle_request({"op": "sleep", "seconds": 0}, cache,
                                   allow_debug=True)
        assert result["slept"] == 0.0

    def test_ping(self, cache):
        result, _ = handle_request({"op": "ping"}, cache)
        assert result["pong"] is True

    def test_front_end_only_op_rejected(self, cache):
        assert _error_type({"op": "metrics"}, cache) == "bad_request"


class TestBadInputs:
    """A bad input value fails its own request or instance only."""

    def test_run_rejects_non_numeric_inputs(self, cache):
        assert _error_type({"op": "run", "model": "Motivating",
                            "inputs": {"u": ["a"] * 60}},
                           cache) == "bad_request"
        assert _error_type({"op": "run", "model": "Motivating",
                            "inputs": {"u": {"re": ["x"], "im": [0.0]}}},
                           cache) == "bad_request"
        assert _error_type({"op": "run", "model": "Motivating",
                            "inputs": {"u": [1.0, 2.0]}},
                           cache) == "bad_request"

    def test_run_batch_isolates_bad_instances(self, cache):
        good = [{"inputs": {"u": np.linspace(-1, 1, 60).tolist()}},
                {"seed": 7}]
        instances = [good[0], {"inputs": {"u": [1.0, 2.0]}},
                     {"inputs": {"u": ["a"] * 60}}, good[1]]
        result, _ = handle_request(
            {"op": "run_batch", "model": "Motivating", "steps": 2,
             "instances": instances}, cache)
        slots = result["results"]
        assert [s["ok"] for s in slots] == [True, False, False, True]
        assert {s["error_type"] for s in slots[1:3]} == {"bad_request"}
        assert "expects 60 elements" in slots[1]["error"]
        for slot, inst in zip((slots[0], slots[3]), good):
            solo, _ = handle_request({"op": "run", "model": "Motivating",
                                      "steps": 2, **inst}, cache)
            assert slot["output_sha256"] == solo["output_sha256"]
            for name, value in solo["outputs"].items():
                assert np.asarray(slot["outputs"][name]).tobytes() == \
                    np.asarray(value).tobytes()


def _counters(monkeypatch) -> dict:
    """Count calls of every function a warm request must not repeat."""
    import repro.core.analysis as analysis
    import repro.ir.vectorize as vectorize
    import repro.serve.handlers as handlers
    import repro.sim.simulator as simulator
    counts: dict = {}

    def counted(owner, attr):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[attr] += 1
            return real(*args, **kwargs)
        counts[attr] = 0
        monkeypatch.setattr(owner, attr, wrapper)

    counted(handlers, "resolve_model")
    counted(handlers, "model_fingerprint")
    counted(ArtifactCache, "get")
    counted(vectorize, "fingerprint")
    counted(analysis, "analyze")
    # The simulator imported analyze by name: count its calls too.
    monkeypatch.setattr(simulator, "analyze", analysis.analyze)
    return counts


class TestWarmTable:
    def test_warm_hit_repeats_no_work(self, cache, monkeypatch):
        counts = _counters(monkeypatch)
        requests = [
            {"op": "run", "model": "Motivating", "steps": 2, "seed": 3,
             "include_outputs": False},
            {"op": "run_batch", "model": "Motivating", "backend": "vector",
             "instances": [{"seed": 1}, {"seed": 2}],
             "include_outputs": False},
            {"op": "report", "model": "Motivating"},
        ]
        for req in requests:
            first, meta = handle_request(req, cache)
            assert sum(counts.values()) > 0
            counts.update(dict.fromkeys(counts, 0))
            second, meta2 = handle_request(req, cache)
            assert counts == dict.fromkeys(counts, 0), req["op"]
            assert meta2["artifact_cache"] == "hit"
            first.pop("execute_seconds", None)
            second.pop("execute_seconds", None)
            assert second == first
            if req["op"] != "report":
                assert (meta["vm_cache"], meta2["vm_cache"]) == ("miss",
                                                                 "hit")

    def test_hit_without_cache_dir_reports_off(self):
        req = {"op": "run", "model": "Simpson", "include_outputs": False}
        handle_request(req, None)
        _, meta = handle_request(req, None)
        assert (meta["artifact_cache"], meta["vm_cache"]) == ("off", "hit")

    def test_upload_keyed_by_bytes_and_format(self, cache, tmp_path):
        from repro.model.slx import save_slx
        from repro.zoo import build_model

        def upload(model):
            path = save_slx(build_model(model), tmp_path / f"{model}.slx")
            return base64.b64encode(path.read_bytes()).decode()

        req = {"op": "run", "model_payload": upload("Simpson"),
               "model_format": "slx", "include_outputs": False}
        handle_request(req, cache)
        _, meta = handle_request(req, cache)
        assert meta["vm_cache"] == "hit"
        _, meta = handle_request({**req, "model_payload": upload("HT")},
                                 cache)
        assert meta["vm_cache"] == "miss"
        # Same bytes, other format: a miss, so the .slx is parsed as .mdl.
        assert _error_type({**req, "model_format": "mdl"},
                           cache) == "invalid_model"

    def test_fuse_flag_never_shares_an_entry(self, cache):
        req = {"op": "run", "model": "ImagePipeline",
               "include_outputs": False}
        fused, _ = handle_request(req, cache)
        plain, meta = handle_request({**req, "fuse": False}, cache)
        assert meta["vm_cache"] == "miss"
        assert fused["fusion"] is not None and plain["fusion"] is None
        _, meta = handle_request(req, cache)
        assert meta["vm_cache"] == "hit"

    def test_errors_are_not_cached(self, cache, monkeypatch):
        counts = _counters(monkeypatch)
        for _ in range(2):
            assert _error_type({"op": "run", "model": "Zzz"},
                               cache) == "unknown_model"
        assert counts["resolve_model"] == 2
        # A failed VM build after a good resolve is not cached either.
        monkeypatch.setenv("REPRO_NO_CC", "1")
        native = {"op": "run", "model": "Motivating", "backend": "native"}
        for _ in range(2):
            assert _error_type(native, cache) == "native_unavailable"
        assert counts["resolve_model"] == 4

    def test_each_cache_root_has_its_own_entries(self, tmp_path):
        req = {"op": "run", "model": "Motivating", "include_outputs": False}
        for name in ("a", "b"):
            _, meta = handle_request(req, ArtifactCache(tmp_path / name))
            assert (meta["artifact_cache"], meta["vm_cache"]) == ("miss",
                                                                  "miss")

    def test_seeded_inputs_equal_random_inputs(self):
        from repro.codegen import ALL_GENERATORS
        from repro.serve.handlers import _Warm, _decode_inputs, get_or_compile
        from repro.serve.handlers import _known_model_names
        from repro.sim.simulator import random_inputs
        from repro.zoo import build_model
        for name in _known_model_names():
            model = build_model(name)
            expected = random_inputs(model, seed=11)
            for generator in ALL_GENERATORS:
                artifact, _ = get_or_compile(model, "fp", generator, "auto",
                                             None)
                entry = _Warm(None, artifact, None)
                got = _decode_inputs({}, entry, seed=11)
                assert list(got) == [artifact.input_buffers[n]
                                     for n in expected]
                for inport, value in expected.items():
                    drawn = got[artifact.input_buffers[inport]]
                    assert drawn.dtype == value.dtype
                    assert np.shape(drawn) == np.shape(value)
                    assert np.asarray(drawn).tobytes() == \
                        np.asarray(value).tobytes()

    def test_entry_retains_no_model_or_generated_program(self, cache,
                                                         monkeypatch):
        import gc
        import weakref

        import repro.serve.handlers as handlers
        held = []
        real = handlers.get_or_compile

        def spy(model, *args, **kwargs):
            artifact, source = real(model, *args, **kwargs)
            held.extend([weakref.ref(model), weakref.ref(artifact.program)])
            return artifact, source
        monkeypatch.setattr(handlers, "get_or_compile", spy)
        for backend in ("vector", "auto"):
            handle_request({"op": "run", "model": "ImagePipeline",
                            "backend": backend, "include_outputs": False},
                           cache)
        gc.collect()
        assert len(held) == 4 and all(ref() is None for ref in held)

    def test_table_bookkeeping_survives_thread_contention(self):
        import sys
        import threading

        from repro.serve.handlers import WarmTable
        table = WarmTable(limit=4)
        puts_per_thread, threads = 5000, 8
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def churn(tag):
                try:
                    for i in range(puts_per_thread):
                        table.put((tag, i), object())  # always a new key
                        table.get((tag, i - 1))
                except Exception as exc:  # noqa: BLE001 — reported below
                    errors.append(exc)
            workers = [threading.Thread(target=churn, args=(t,))
                       for t in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        # Every put added a key, so all but the last four were evicted.
        assert len(table) == 4
        assert table.evictions == threads * puts_per_thread - 4
