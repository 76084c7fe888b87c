"""Request-scoped structured tracing for the whole stack.

A **trace** is one request's journey through the pipeline — server
dispatch, coalescing queue, worker-pool hand-off, cache lookup, code
generation, native compile, VM execution.  Each stage opens a **span**:
a named interval with wall and CPU time, the pid/tid that ran it, and a
small attribute dict (backend, fingerprint, cache outcome, batch size).
Spans nest: the innermost open span is tracked in a :mod:`contextvars`
variable, so ``async`` server code and synchronous worker code use the
same ``with span("name"):`` idiom.

Zero overhead when idle is a hard requirement (the VM hot path carries a
span site).  ``span()`` performs exactly one context-variable load when
no trace is active and returns a shared no-op context manager —
no allocation, no timestamps, nothing recorded.

Crossing an execution boundary (the worker-pool IPC pipe, an executor
thread) loses the context variable, so the context is made explicit:
:func:`carrier` serializes the current position in the trace to
a plain dict that rides inside the request object, and :func:`resume`
opens a collector on the far side that continues the same trace.  The
far side ships its finished spans back as dicts (``meta["spans"]`` in
the serve protocol) and the origin grafts them into its trace with
:func:`merge_spans`.

Design notes:

* span identity is random (``os.urandom``), never sequential — traces
  from many workers merge without coordination;
* durations come from ``time.perf_counter`` (monotonic) and CPU time
  from ``time.process_time``; the ``start_unix`` wall-clock anchor is
  what lets spans from different processes line up on one timeline;
* a trace context dict may carry ``record: False`` — the trace **ID**
  still propagates (so crash logs stay attributable, see
  :mod:`repro.serve.pool`) but no spans are collected anywhere.
"""

from __future__ import annotations

import os
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field


def new_id(nbytes: int = 8) -> str:
    """Random hex identifier (collision-free enough for span/trace ids)."""
    return os.urandom(nbytes).hex()


@dataclass
class Span:
    """One named, timed interval of one trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start_unix: float = 0.0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    pid: int = 0
    tid: int = 0
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": round(self.start_unix, 6),
            "wall_seconds": round(self.wall_seconds, 6),
            "cpu_seconds": round(self.cpu_seconds, 6),
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }


class Trace:
    """Collector for the spans of one trace (thread-safe append)."""

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id or new_id(16)
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def export(self) -> list[dict]:
        with self._lock:
            return [s.as_dict() for s in self.spans]


class _NullSpan:
    """Shared no-op stand-in when no trace is active.

    Supports the full span surface (context manager, :meth:`set`,
    :meth:`export`) so call sites never branch on enablement themselves.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self

    def export(self) -> list[dict]:
        return []

    @property
    def span_id(self) -> None:
        return None


NULL_SPAN = _NullSpan()

#: Innermost open span handle of the current execution context.
_CURRENT: ContextVar["SpanHandle | None"] = ContextVar(
    "repro_obs_current_span", default=None
)


class SpanHandle:
    """Context manager that times one span and records it on exit."""

    __slots__ = ("trace", "span", "_token", "_t0", "_c0")

    def __init__(
        self, trace: Trace, name: str, parent_id: str | None, attrs: dict
    ):
        self.trace = trace
        self.span = Span(
            name=name,
            trace_id=trace.trace_id,
            span_id=new_id(),
            parent_id=parent_id,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=attrs,
        )

    @property
    def span_id(self) -> str:
        return self.span.span_id

    def set(self, **attrs) -> "SpanHandle":
        """Attach attributes to the span (chainable, any time pre-export)."""
        self.span.attrs.update(attrs)
        return self

    def export(self) -> list[dict]:
        """Every span recorded in this handle's trace, as plain dicts."""
        return self.trace.export()

    def __enter__(self) -> "SpanHandle":
        self._token = _CURRENT.set(self)
        self.span.start_unix = time.time()
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.wall_seconds = time.perf_counter() - self._t0
        self.span.cpu_seconds = time.process_time() - self._c0
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        _CURRENT.reset(self._token)
        self.trace.add(self.span)
        return False


def span(name: str, **attrs) -> "SpanHandle | _NullSpan":
    """Open a child span of the current one, or a no-op when untraced.

    The disabled path is one context-variable load and one comparison —
    cheap enough to leave on the VM hot path permanently.
    """
    parent = _CURRENT.get()
    if parent is None:
        return NULL_SPAN
    return SpanHandle(parent.trace, name, parent.span.span_id, attrs)


def current() -> "SpanHandle | None":
    """The innermost open span handle, or None when untraced."""
    return _CURRENT.get()


def start_trace(
    name: str = "trace", trace_id: str | None = None, **attrs
) -> SpanHandle:
    """Open the root span of a fresh trace.

    Use as a context manager; everything opened beneath it (in the same
    thread/task context) nests automatically.  Drain the finished spans
    with ``handle.export()`` after exit.
    """
    return SpanHandle(Trace(trace_id), name, None, attrs)


# -- crossing execution boundaries --------------------------------------------


def carrier(record: bool = True) -> dict | None:
    """Serializable position of the current span, or None when untraced.

    The dict travels inside request objects across threads and the
    worker IPC pipe; :func:`resume` reopens collection on the far side.
    """
    cur = _CURRENT.get()
    if cur is None:
        return None
    return {
        "trace_id": cur.trace.trace_id,
        "parent_id": cur.span.span_id,
        "record": record,
    }


def resume(ctx: dict | None, name: str, **attrs) -> "SpanHandle | _NullSpan":
    """Continue a serialized trace context in this thread/process.

    Returns a root-like handle whose spans carry the originating trace
    id and hang off the serialized parent span.  A missing context or
    one with ``record: False`` yields :data:`NULL_SPAN` (ids may still
    be read off the dict by the caller for logging)."""
    if not isinstance(ctx, dict) or not ctx.get("record"):
        return NULL_SPAN
    trace_id = ctx.get("trace_id")
    parent_id = ctx.get("parent_id")
    trace = Trace(str(trace_id) if trace_id else None)
    return SpanHandle(
        trace, name, str(parent_id) if parent_id else None, attrs
    )


def manual_span(
    ctx: dict | None,
    name: str,
    start_unix: float,
    wall_seconds: float,
    **attrs,
) -> dict | None:
    """A finished span dict built from explicit timings.

    For stages whose start and end are observed in different call frames
    (e.g. the coalescing queue wait), where a ``with`` block cannot wrap
    the interval.  Returns None when ``ctx`` is absent or non-recording.
    """
    if not isinstance(ctx, dict) or not ctx.get("record"):
        return None
    return Span(
        name=name,
        trace_id=str(ctx.get("trace_id")),
        span_id=new_id(),
        parent_id=ctx.get("parent_id"),
        start_unix=start_unix,
        wall_seconds=max(wall_seconds, 0.0),
        pid=os.getpid(),
        tid=threading.get_ident(),
        attrs=attrs,
    ).as_dict()


def merge_spans(
    base: list[dict], extra: list[dict], fallback_parent: str | None
) -> list[dict]:
    """Graft ``extra`` spans (from another thread/process) into ``base``.

    Any extra span whose parent is unknown to the combined set is
    re-parented onto ``fallback_parent`` so the tree stays connected —
    this is what keeps coalesced requests (whose shared worker spans
    reference one member's ids) renderable for every member.
    """
    known = {s.get("span_id") for s in base}
    known.update(s.get("span_id") for s in extra)
    merged = list(base)
    for s in extra:
        s = dict(s)
        if s.get("parent_id") not in known:
            s["parent_id"] = fallback_parent
        merged.append(s)
    return merged
