"""Work-conserving request coalescing for the serve front-end.

With a warm kernel, the hot path is mostly per-request overhead —
worker IPC, VM lookup, a single-instance ``run()``.  This module
amortizes it without delaying any request for companions: the
queue keeps one slot per pool worker, and while a slot is free the
oldest waiting bucket is dispatched.  ``run`` requests that queue up
behind busy slots and share ``(model, generator, backend, steps)`` merge
into one bucket of up to ``max_batch``, executed as one ``run_batch``
worker call whose result is fanned back out as ``run``-shaped responses.

Invariants:

* a request that cannot be coalesced — unknown fields, ``coalesce``
  set false, or a non-coalescible op — is forwarded to the pool
  untouched, byte-identical to the uncoalesced path;
* a bucket dispatched with one member (every request when a slot is
  free) forwards the **original** request (again byte-identical), so
  coalescing can only ever change grouping, never single-request semantics;
* at most ``max_pending`` buckets wait; a request needing another is
  shed with the pool's typed ``busy`` error;
* per-instance failures (bad inputs for one request) fail only that
  request; whole-batch failures propagate the same typed error to every
  waiter;
* all queue state is touched from the event-loop thread only — no locks.

Per-request responses derived from a batch report the *amortized* view:
``execute_seconds`` and ``counts`` are the batch totals divided by the
number of executed instances.  The division is exact (and
``counts_exact`` stays true) whenever per-instance counts are
input-independent, which holds for every zoo model; otherwise
``counts_exact`` is false for the fanned-out responses.  Clients that
need the precise aggregate can send ``run_batch`` themselves or opt out
with ``"coalesce": false``.
"""

from __future__ import annotations

import asyncio
import collections
import contextvars
import hashlib
import time

from repro.obs import tracing
from repro.serve.protocol import ServeError

#: ``run`` fields the coalescer understands.  A request carrying anything
#: else is forwarded uncoalesced — unknown fields might affect execution,
#: and correctness beats batching.  ``trace`` and ``_trace`` are
#: observability-only (they never change what executes), so traced
#: requests stay coalescible — without them here, every request would
#: fall off the batching fast path the moment the server started
#: injecting trace carriers.
_COALESCIBLE_FIELDS = frozenset({
    "id", "op", "coalesce", "model", "model_payload", "model_format",
    "generator", "backend", "steps", "seed", "inputs", "include_outputs",
    "trace", "_trace",
})

#: Per-instance fields copied into the synthesized ``run_batch`` request.
_INSTANCE_FIELDS = ("seed", "inputs", "include_outputs")

#: Shared result fields copied from the batch result into each fanned-out
#: ``run``-shaped response.
_SHARED_RESULT_FIELDS = ("model", "model_fingerprint", "generator",
                         "backend", "steps")


def _batch_key(req: dict) -> tuple:
    """Requests coalesce iff they agree on everything outside
    :data:`_INSTANCE_FIELDS`."""
    model = req.get("model")
    if model is None:
        payload = str(req.get("model_payload", ""))
        model = ("payload",
                 hashlib.sha256(payload.encode()).hexdigest(),
                 req.get("model_format", "slx"))
    return (model, req.get("generator", "frodo"), req.get("backend", "auto"),
            req.get("steps", 1))


class BatchQueue:
    """Coalesce compatible ``run`` requests into ``run_batch`` calls.

    ``submit()`` is the only entry point; it resolves to the same
    ``(result, meta)`` pair ``pool.submit`` would return, or raises
    :class:`ServeError`.  Owned by :class:`~repro.serve.server.ReproServer`
    and driven entirely from its event loop.
    """

    def __init__(self, pool_submit, metrics, max_batch: int, slots: int,
                 max_pending: int):
        self._submit = pool_submit  # async (req) -> (result, meta)
        self._metrics = metrics
        self.max_batch = max(int(max_batch), 1)
        self.slots = max(int(slots), 1)
        self.max_pending = max_pending
        # (key, bucket) pairs, oldest first.  A bucket is a list of
        # (future, request, enqueue loop-time, enqueue wall-time) tuples —
        # loop time feeds the delay metrics, wall time anchors the
        # synthesized queue-wait spans on the shared trace timeline.
        self._waiting: collections.deque = collections.deque()
        self._in_flight = 0

    # -- submission --------------------------------------------------------

    async def submit(self, req: dict) -> tuple[dict, dict]:
        if (self.max_batch <= 1 or req.get("coalesce", True) is not True
                or not set(req) <= _COALESCIBLE_FIELDS):
            return await self._submit(req)
        loop = asyncio.get_running_loop()
        key = _batch_key(req)
        bucket = next((b for k, b in self._waiting
                       if k == key and len(b) < self.max_batch), None)
        if bucket is None:
            if (self._in_flight >= self.slots
                    and len(self._waiting) >= self.max_pending):
                if self._metrics is not None:
                    self._metrics.record_pool("shed")
                raise ServeError("busy", f"{len(self._waiting)} batches "
                                 "already wait for busy workers; retry later")
            bucket = []
            self._waiting.append((key, bucket))
        future: asyncio.Future = loop.create_future()
        bucket.append((future, req, loop.time(), time.time()))
        self._pump()
        return await future

    def _pump(self) -> None:
        """Dispatch the oldest waiting buckets into free slots."""
        while self._in_flight < self.slots and self._waiting:
            self._in_flight += 1
            _, items = self._waiting.popleft()
            # An empty context: the task calling _pump may be inside
            # another request's open span, and this bucket's spans
            # belong only to its own members' traces.
            contextvars.Context().run(asyncio.ensure_future,
                                      self._run_bucket(items))

    # -- execution and fan-out ---------------------------------------------

    async def _run_bucket(self, items: list) -> None:
        try:
            await self._execute_bucket(items)
        finally:  # frees the slot before any waiter of this bucket resumes
            self._in_flight -= 1
            self._pump()

    async def _execute_bucket(self, items: list) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        delays = [now - t0 for _, _, t0, _ in items]
        if self._metrics is not None:
            self._metrics.record_batch(len(items), delays)
        if len(items) == 1:
            # Never rewrite a lone request — forward it verbatim.
            future, req, _, t0_unix = items[0]
            qspan = tracing.manual_span(
                req.get("_trace"), "queue.wait", t0_unix, delays[0],
                coalesced=False)
            try:
                result, meta = await self._submit(req)
            except BaseException as exc:  # noqa: BLE001 — must reach waiter
                self._fail([future], exc)
                return
            if not future.cancelled():
                meta = dict(meta)
                if qspan is not None:
                    meta["spans"] = [qspan, *meta.get("spans", ())]
                future.set_result((result, meta))
            return

        first_req = items[0][1]
        batch_req = {
            "op": "run_batch",
            "steps": first_req.get("steps", 1),
            "instances": [
                {k: r[k] for k in _INSTANCE_FIELDS if k in r}
                for _, r, _, _ in items
            ],
        }
        for field in ("model", "model_payload", "model_format",
                      "generator", "backend"):
            if field in first_req:
                batch_req[field] = first_req[field]
        carrier_ctx = self._batch_carrier(items)
        if carrier_ctx is not None:
            batch_req["_trace"] = carrier_ctx
        try:
            result, meta = await self._submit(batch_req)
        except BaseException as exc:  # noqa: BLE001 — must reach waiters
            self._fail([f for f, _, _, _ in items], exc)
            return
        self._fan_out(items, delays, result, meta)

    @staticmethod
    def _batch_carrier(items: list) -> dict | None:
        """Trace carrier for the synthesized batch request: the first
        *recording* member's (so the shared pool/worker spans are
        collected exactly once), else any member's so the trace id still
        propagates for crash attribution."""
        carrier_ctx = None
        for _, r, _, _ in items:
            ctx = r.get("_trace")
            if isinstance(ctx, dict):
                if carrier_ctx is None:
                    carrier_ctx = ctx
                if ctx.get("record"):
                    carrier_ctx = ctx
                    break
        return dict(carrier_ctx) if carrier_ctx is not None else None

    @staticmethod
    def _fail(futures: list, exc: BaseException) -> None:
        for future in futures:
            if not future.cancelled():
                future.set_exception(exc)

    def _fan_out(self, items: list, delays: list, result: dict,
                 meta: dict) -> None:
        executed = max(int(result.get("executed", 0)), 1)
        agg = result.get("counts") or {}
        per_counts = {k: v // executed for k, v in agg.items()}
        evenly = all(v % executed == 0 for v in agg.values())
        shared = {k: result[k] for k in _SHARED_RESULT_FIELDS if k in result}
        shared["execute_seconds"] = round(
            result.get("execute_seconds", 0.0) / executed, 6)
        shared["counts"] = per_counts
        shared["counts_exact"] = bool(result.get("counts_exact")) and evenly
        shared["total_element_ops"] = \
            result.get("total_element_ops", 0) // executed
        shared["peak_buffer_bytes"] = \
            result.get("peak_buffer_bytes", 0) // executed
        entries = result.get("results") or []
        shared_spans = meta.get("spans") or []
        for rank, (future, req, _, t0_unix) in enumerate(items):
            if future.cancelled():
                continue
            entry = entries[rank] if rank < len(entries) else None
            if not isinstance(entry, dict):
                future.set_exception(ServeError(
                    "internal", f"batched result missing instance {rank}"))
                continue
            if not entry.get("ok"):
                future.set_exception(ServeError(
                    entry.get("error_type", "internal"),
                    entry.get("error", "batched instance failed")))
                continue
            inst_result = dict(shared)
            inst_result["output_sha256"] = entry.get("output_sha256")
            if "outputs" in entry:
                inst_result["outputs"] = entry["outputs"]
            inst_meta = {"coalesced": True,
                         "batched": result.get("executed", executed)}
            for k in ("worker_pid", "service_seconds", "adaptive"):
                if k in meta:
                    inst_meta[k] = meta[k]
            if rank == 0:
                # Cache events happened once for the whole batch; surface
                # them on one member so the registry counts them once.
                # Same for the adaptive tier's telemetry: promotion events
                # and the eviction total are whole-worker facts.
                for k in ("artifact_cache", "vm_cache", "adaptive_events",
                          "adaptive_states", "vm_cache_evictions"):
                    if k in meta:
                        inst_meta[k] = meta[k]
            ctx = req.get("_trace")
            spans = []
            qspan = tracing.manual_span(
                ctx, "queue.wait", t0_unix, delays[rank],
                coalesced=True, batch=len(items))
            if qspan is not None:
                spans.append(qspan)
            if isinstance(ctx, dict) and ctx.get("record") and shared_spans:
                # The shared pool/worker spans were collected on the
                # carrier member's trace; restamp them with this member's
                # id (the server re-parents any foreign parent ids onto
                # the request root via merge_spans).
                tid = ctx.get("trace_id")
                spans.extend(dict(s, trace_id=tid) for s in shared_spans)
            if spans:
                inst_meta["spans"] = spans
            future.set_result((inst_result, inst_meta))
