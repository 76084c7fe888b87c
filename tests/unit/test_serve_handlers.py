"""Unit tests for serve request handlers (inline, no sockets/processes)."""

import base64

import numpy as np
import pytest

from repro.serve.cache import ArtifactCache
from repro.serve.handlers import handle_request
from repro.serve.protocol import ServeError


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path)


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
