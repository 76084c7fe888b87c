"""Wire protocol for the ``repro.serve`` compile-and-execute service.

The native transport is **line-delimited JSON over TCP**: each request is
one JSON object on one line, each response is one JSON object on one line,
in order, on the same connection.  A minimal HTTP shim (see
:mod:`repro.serve.server`) wraps the same objects for ``curl``-style
access.

Request shape::

    {"id": 7, "op": "run", "model": "AudioProcess",
     "generator": "frodo", "backend": "auto", "steps": 3, "seed": 0}

Response shape::

    {"id": 7, "ok": true, "result": {...}, "meta": {...}}
    {"id": 7, "ok": false, "error": {"type": "unknown_model",
                                     "message": "..."}}

``meta`` carries observability breadcrumbs (worker pid, cache hit/miss
flags, service time) that the server folds into its metrics registry.

The error taxonomy is closed — every failure a client can see maps to one
of :data:`ERROR_TYPES` — so clients can switch on ``error.type`` without
parsing messages.
"""

from __future__ import annotations

import json
from typing import Any

#: Every operation the service accepts.  ``sleep`` is a debug op (gated by
#: the server's ``allow_debug`` switch) used by tests and the CI smoke job
#: to exercise timeout handling deterministically.  ``run_batch``
#: evaluates many independent instances of one (model, generator,
#: backend, steps) in a single batched VM call — the same op the server's
#: coalescer synthesizes from concurrent ``run`` requests.
OPS = ("ping", "compile", "run", "run_batch", "ranges", "report", "metrics",
       "sleep", "shutdown")

#: Closed error taxonomy (see docs/serving.md for the contract of each).
ERROR_TYPES = (
    "bad_request",      # malformed JSON, unknown op, invalid field value
    "unknown_model",    # model name not in the zoo and no payload given
    "unknown_generator",  # generator name not registered
    "invalid_model",    # uploaded payload failed to parse or analyze
    "native_unavailable",  # backend="native" but no C toolchain / build failed
    "timeout",          # request exceeded the per-request deadline
    "busy",             # load shed: all workers busy and backlog full
    "worker_crash",     # worker died mid-request (after one retry)
    "shutting_down",    # server is draining; retry against another replica
    "internal",         # unexpected server-side failure
)

#: Wire-protocol revision, echoed by ``ping``.
#: v2: ``run_batch`` op, ``coalesce`` flag on ``run``, batching knobs.
#: v3: ``fuse`` flag (default true) on ``compile``/``run``/``run_batch``/
#: ``report`` — toggles the IR-level loop-fusion pass; fusion stats are
#: reported in results and the artifact cache keys on the flag.
#: v4: tiered adaptive execution (additive): ``run``/``run_batch``
#: results carry ``backend_effective`` (the tier that actually executed,
#: which for ``backend="auto"`` on an adaptive server may be
#: ``"native"`` after background promotion); /metrics gains
#: ``backend_promotions_total``/``backend_demotions_total``/
#: ``vm_cache_evictions_total`` and the ``adaptive_state`` gauge.
#: v3 clients are unaffected — no request field changed meaning.
#: v5: sharded serving (additive): ``ping`` against a cluster router
#: reports ``role: "router"`` plus its shard roster; shard-handled
#: responses carry ``meta.shard``; /metrics rows gain a ``shard`` label
#: and the router serves a fleet-merged view; ``metrics`` snapshots may
#: include ``router_events_total``.  v4 clients are unaffected — every
#: new field is additive and a single plain server emits none of them.
PROTOCOL_VERSION = 5

MAX_LINE_BYTES = 32 * 1024 * 1024  # uploaded .slx payloads are base64 lines


class ServeError(Exception):
    """A typed, client-visible failure.

    Raised anywhere between request decode and handler completion; the
    server serializes it as ``{"ok": false, "error": {...}}`` instead of
    tearing down the connection.
    """

    def __init__(self, error_type: str, message: str):
        if error_type not in ERROR_TYPES:
            raise ValueError(f"unknown error type {error_type!r}")
        super().__init__(message)
        self.error_type = error_type
        self.message = message

    def to_wire(self) -> dict:
        return {"type": self.error_type, "message": self.message}


def _encode_default(value: Any) -> Any:
    """``json.dumps`` hook for the values handlers return that JSON lacks.

    numpy arrays become nested lists; complex values become
    ``{"re": ..., "im": ...}`` objects (JSON has no complex literal);
    numpy scalars collapse to Python scalars.  Everything else is
    serialized by ``json.dumps`` itself, in the same pass.
    """
    import numpy as np
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def encode(obj: dict) -> bytes:
    """Serialize one protocol object to its wire line."""
    return (json.dumps(obj, separators=(",", ":"), default=_encode_default)
            + "\n").encode()


def decode_request(line: bytes) -> dict:
    """Parse one request line; raise :class:`ServeError` on malformed input."""
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServeError("bad_request", f"request is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ServeError("bad_request", "request must be a JSON object")
    op = obj.get("op")
    if op not in OPS:
        raise ServeError(
            "bad_request", f"unknown op {op!r}; expected one of {list(OPS)}")
    return obj


def ok_response(request_id: Any, result: dict, meta: dict | None = None) -> dict:
    resp: dict = {"id": request_id, "ok": True, "result": result}
    if meta:
        resp["meta"] = meta
    return resp


def error_response(request_id: Any, error: ServeError,
                   meta: dict | None = None) -> dict:
    resp: dict = {"id": request_id, "ok": False, "error": error.to_wire()}
    if meta:
        resp["meta"] = meta
    return resp
