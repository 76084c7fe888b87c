"""Unit tests for the serve wire protocol."""

import json

import numpy as np
import pytest

from repro.serve.protocol import (ERROR_TYPES, OPS, ServeError,
                                  decode_request, encode, error_response,
                                  ok_response)


class TestDecodeRequest:
    def test_valid_request(self):
        req = decode_request(b'{"id": 1, "op": "ping"}\n')
        assert req == {"id": 1, "op": "ping"}

    def test_malformed_json(self):
        with pytest.raises(ServeError) as exc:
            decode_request(b"{nope\n")
        assert exc.value.error_type == "bad_request"

    def test_non_object(self):
        with pytest.raises(ServeError) as exc:
            decode_request(b"[1, 2]\n")
        assert exc.value.error_type == "bad_request"

    def test_unknown_op(self):
        with pytest.raises(ServeError) as exc:
            decode_request(b'{"op": "frobnicate"}\n')
        assert exc.value.error_type == "bad_request"
        assert "frobnicate" in exc.value.message

    def test_every_op_is_decodable(self):
        for op in OPS:
            assert decode_request(
                json.dumps({"op": op}).encode())["op"] == op


class TestServeError:
    def test_taxonomy_is_closed(self):
        with pytest.raises(ValueError):
            ServeError("not_a_type", "boom")

    def test_wire_form(self):
        err = ServeError("busy", "try later")
        assert err.to_wire() == {"type": "busy", "message": "try later"}

    def test_all_types_constructible(self):
        for error_type in ERROR_TYPES:
            assert ServeError(error_type, "m").error_type == error_type


def _reference_encode(obj) -> bytes:
    """Two passes: convert the whole tree to JSON types, then serialize."""
    def walk(value):
        if isinstance(value, dict):
            return {str(k): walk(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [walk(v) for v in value]
        if isinstance(value, np.ndarray):
            return walk(value.tolist())
        if isinstance(value, (complex, np.complexfloating)):
            return {"re": float(value.real), "im": float(value.imag)}
        if isinstance(value, np.generic):
            return value.item()
        return value
    return (json.dumps(walk(obj), separators=(",", ":")) + "\n").encode()


def _wire(obj):
    return json.loads(encode(obj))


class TestJsonable:
    """``encode`` makes handler values JSON-able while serializing."""

    def test_ndarray_and_scalars(self):
        out = _wire({"a": np.arange(3, dtype="float64"),
                     "n": np.int64(7), "x": np.float64(1.5)})
        assert out == {"a": [0.0, 1.0, 2.0], "n": 7, "x": 1.5}

    def test_complex_values(self):
        assert _wire({"v": np.array([1 + 2j])}) == {
            "v": [{"re": 1.0, "im": 2.0}]}
        assert _wire({"z": 3 - 4j}) == {"z": {"re": 3.0, "im": -4.0}}

    def test_nested_tuple(self):
        assert _wire({"t": (1, [2, (3,)])}) == {"t": [1, [2, [3]]]}

    def test_unsupported_values_raise(self):
        with pytest.raises(TypeError):
            encode({"s": {1, 2}})

    def test_matches_reference_walk_byte_for_byte(self):
        rng = np.random.default_rng(0)
        obj = {
            "real": rng.standard_normal((2, 3)),
            "real32": rng.standard_normal(4).astype(np.float32),
            "special": np.array([np.nan, np.inf, -np.inf, -0.0]),
            "complex": rng.standard_normal(3) + 1j * rng.standard_normal(3),
            "complex64": np.array([1.5 - 2.25j], dtype=np.complex64),
            "int": np.arange(-3, 3, dtype=np.int32).reshape(2, 3),
            "uint": np.array([0, 255], dtype=np.uint8),
            "bool": np.array([True, False]),
            "zero_d": [np.array(2.5), np.array(3 + 4j), np.array(7),
                       np.array(True)],
            "scalars": [np.float64(0.1), np.float32(0.1), np.int8(-5),
                        np.int64(2**40), np.uint64(2**63), np.bool_(True),
                        np.complex128(1 - 1j), np.complex64(0.5j),
                        np.float16(1.5)],
            "python": [1, 2.5, 3 - 4j, True, None, "text"],
            "tuples": (1, (2.0, (np.int16(3), np.array([4.0])))),
            "nested": {"a": {"b": {"c": [np.arange(2), {"d": 1j}]}},
                       "e": ({"f": np.float64(-1e300)},)},
        }
        assert encode(obj) == _reference_encode(obj)


class TestResponses:
    def test_ok_round_trip(self):
        wire = encode(ok_response(5, {"x": np.float64(2.0)}, {"pid": 1}))
        obj = json.loads(wire)
        assert obj == {"id": 5, "ok": True, "result": {"x": 2.0},
                       "meta": {"pid": 1}}
        assert wire.endswith(b"\n")

    def test_error_round_trip(self):
        wire = encode(error_response(9, ServeError("timeout", "too slow")))
        obj = json.loads(wire)
        assert obj["ok"] is False
        assert obj["error"] == {"type": "timeout", "message": "too slow"}

    def test_meta_omitted_when_empty(self):
        assert "meta" not in ok_response(1, {})
