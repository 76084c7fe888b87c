"""Process worker pool: warm caches, timeouts, crash recovery, load shed.

Each worker is a separate OS process holding its own warm state — the
warm table (:class:`repro.serve.handlers.WarmTable`) plus an
:class:`~repro.serve.cache.ArtifactCache` handle on the shared on-disk
store.  Process isolation is what makes concurrency safe here: a
:class:`~repro.ir.interp.VirtualMachine` is not reentrant (its buffers
and counters mutate in place), so the pool guarantees each worker runs
exactly one request at a time and shares nothing mutable across workers
except the atomically-written artifact directory — which also holds the
``backend="native"`` shared-object store (``<cache_dir>/native/``):
``.so`` installs are atomic renames keyed by content, so the first
worker to build a program's library pays the compiler once and every
other worker (and every restart) dlopens the same file.

The pool is driven from the server's event loop, with no thread between
a request and its worker: :meth:`WorkerPool.submit` writes the pickled
request to the worker's pipe, and the reply is read by a reader callback
(``loop.add_reader``, registered once per worker for its lifetime) that
resolves the request's future.  Workers are forked at construction,
before the loop starts serving; only the rare kill and respawn run on
the loop's default executor, so a dying worker never stalls other
connections.

Dispatch policy:

* a request takes an idle worker if one is free, otherwise waits in a
  **bounded** FIFO backlog; when ``max_pending`` waiters are already
  queued the request is shed immediately with a typed ``busy`` error
  (callers get fast feedback instead of an unbounded queue hiding the
  overload);
* every request has a deadline (``timeout_seconds``, per-request
  override allowed below the server cap): on expiry the worker is
  **killed** — mid-flight cancellation of arbitrary Python is only
  reliable at process granularity — and a fresh worker is spawned;
* if a worker dies mid-request (crash, OOM-kill), the request is retried
  once on a fresh worker: every op the pool executes is idempotent (pure
  functions of the request plus an idempotent cache write), so a retry
  can at worst redo work, never double-apply it.  Timeouts are *not*
  retried — the retry would very likely time out too and double the
  damage of a poison request.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import logging
import multiprocessing
import os
import pickle
import struct
from dataclasses import dataclass

from repro.obs import tracing
from repro.serve.protocol import ServeError

log = logging.getLogger("repro.serve.pool")


def _start_context():
    """Prefer fork (instant warm workers on Linux); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _build_cache(config: "PoolConfig"):
    """The worker's artifact cache: shared (store-backed) or plain local."""
    if not config.cache_dir:
        return None
    if config.store:
        from repro.serve.store import RemoteStore, SharedArtifactCache
        return SharedArtifactCache(config.cache_dir,
                                   RemoteStore.parse(config.store))
    from repro.serve.cache import ArtifactCache
    return ArtifactCache(config.cache_dir)


def _heat_store(cache):
    """Where this process persists adaptive heat (see docs/cluster.md).

    Store-backed caches share heat fleet-wide next to the artifacts; a
    plain local cache keeps it under ``<cache_dir>/heat/`` so a restarted
    single server also resumes from observed heat.
    """
    if cache is None:
        return None
    from repro.serve.store import HeatStore, LocalStore
    if hasattr(cache, "heat_store"):
        return cache.heat_store()
    return HeatStore(LocalStore(cache.root))


def _configure_runtime(cache, config: "PoolConfig") -> None:
    """Apply per-process serving knobs: a fresh warm table at its bound
    and the adaptive promotion controller.  Called once per worker
    process (and once for the inline ``workers=0`` path), before any
    request is handled."""
    from repro.serve.handlers import configure_warm_table
    configure_warm_table(config.vm_cache_max)
    if config.adaptive is not None:
        from repro.serve import adaptive
        so_dir = cache.native_dir if cache is not None else None
        adaptive.configure(config.adaptive, so_cache_dir=so_dir,
                           heat_store=_heat_store(cache),
                           native_cache=cache)


def _worker_main(conn, config: "PoolConfig") -> None:
    """Worker process loop: recv request dict, send response dict."""
    from repro.serve.handlers import handle_request
    from repro.serve.protocol import ServeError as WorkerServeError
    cache = _build_cache(config)
    _configure_runtime(cache, config)
    while True:
        try:
            req = conn.recv()
        except (EOFError, OSError):
            break
        if req is None:  # shutdown sentinel
            break
        try:
            result, meta = handle_request(req, cache,
                                          allow_debug=config.allow_debug,
                                          shard=config.shard)
            resp = {"ok": True, "result": result, "meta": meta}
        except WorkerServeError as exc:
            resp = {"ok": False, "error_type": exc.error_type,
                    "message": exc.message}
        except Exception as exc:  # noqa: BLE001 — workers must not die on bugs
            resp = {"ok": False, "error_type": "internal",
                    "message": f"{type(exc).__name__}: {exc}"}
        try:
            conn.send(resp)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class WorkerCrash(Exception):
    """The worker process died before producing a response."""


class WorkerTimeout(Exception):
    """The request exceeded its deadline; the worker was killed."""


#: Bytes read from a worker pipe per reader callback.
_READ_CHUNK = 256 * 1024

#: :func:`_unframe` result while a message is still arriving.
_PARTIAL = object()


def _frame(obj) -> bytes:
    """``obj`` as one :class:`multiprocessing.connection.Connection`
    message (big-endian length header, then the pickle) — the framing
    the worker's ``conn.recv()`` reads.  Messages here stay far below
    the 2 GiB beyond which that format switches to a longer header."""
    payload = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return struct.pack("!i", len(payload)) + payload


def _unframe(buf: bytearray):
    """Pop one complete message off ``buf``, or return :data:`_PARTIAL`."""
    if len(buf) < 4:
        return _PARTIAL
    end = 4 + struct.unpack_from("!i", buf)[0]
    if len(buf) < end:
        return _PARTIAL
    obj = pickle.loads(buf[4:end])
    del buf[:end]
    return obj


def _expire(reply: asyncio.Future, message: str) -> None:
    if not reply.done():
        reply.set_exception(WorkerTimeout(message))


class _Worker:
    """Parent-side handle on one worker process.

    The parent end of the pipe is non-blocking and used only from the
    pool's event loop: :meth:`send` writes a request and returns the
    future that the reader callback resolves with the reply.
    """

    def __init__(self, ctx, config: "PoolConfig"):
        parent, child = ctx.Pipe()
        self.conn = parent
        self.fd = parent.fileno()
        self.proc = ctx.Process(
            target=_worker_main, args=(child, config), daemon=True)
        self.proc.start()
        child.close()
        os.set_blocking(self.fd, False)
        self.loop: asyncio.AbstractEventLoop | None = None
        self.reply: asyncio.Future | None = None
        self._inbox = bytearray()
        self._outbox = memoryview(b"")
        # What the worker was last asked to do — read back when it has to
        # be killed, so the respawn log names the request that took it
        # down.  Trace ids propagate on *every* request (recording or
        # not), which is what keeps these attributions complete.
        self.last_op: str | None = None
        self.last_trace_id: str | None = None
        self.last_span_id: str | None = None

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    # -- event-loop I/O ----------------------------------------------------

    def watch(self, loop: asyncio.AbstractEventLoop) -> None:
        """Register the pipe with ``loop`` for the worker's lifetime."""
        self.loop = loop
        loop.add_reader(self.fd, self._on_readable)

    def unwatch(self) -> None:
        if self.loop is not None and not self.loop.is_closed():
            self.loop.remove_reader(self.fd)
            self.loop.remove_writer(self.fd)

    def send(self, req: dict) -> asyncio.Future:
        """Write ``req`` without blocking; returns the reply future."""
        assert self.loop is not None, "worker is not watched by a loop"
        self.last_op = req.get("op")
        ctx = req.get("_trace")
        if isinstance(ctx, dict):
            self.last_trace_id = ctx.get("trace_id")
            self.last_span_id = ctx.get("parent_id")
        else:
            self.last_trace_id = self.last_span_id = None
        data = _frame(req)
        try:
            sent = os.write(self.fd, data)
        except BlockingIOError:
            sent = 0
        except OSError:
            raise WorkerCrash(f"worker {self.pid} pipe closed on send")
        self.reply = self.loop.create_future()
        if sent < len(data):
            # Larger than the pipe buffer: the rest goes out as the
            # worker drains it, never blocking the loop.
            self._outbox = memoryview(data)[sent:]
            self.loop.add_writer(self.fd, self._on_writable)
        return self.reply

    def _on_writable(self) -> None:
        try:
            sent = os.write(self.fd, self._outbox)
        except BlockingIOError:
            return
        except OSError:
            self._lost("pipe closed on send")
            return
        self._outbox = self._outbox[sent:]
        if not self._outbox:
            self.loop.remove_writer(self.fd)

    def _on_readable(self) -> None:
        try:
            chunk = os.read(self.fd, _READ_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:
            self._lost("died mid-request")
            return
        self._inbox += chunk
        try:
            resp = _unframe(self._inbox)
        except Exception:  # noqa: BLE001 — a torn reply is a dead worker
            log.exception("unreadable reply from worker pid=%s", self.pid)
            self._lost("sent an unreadable reply")
            return
        if resp is not _PARTIAL:
            reply, self.reply = self.reply, None
            if reply is not None and not reply.done():
                reply.set_result(resp)

    def _lost(self, why: str) -> None:
        """EOF or a failed read/write: the worker is gone (a later send
        to it fails with a broken pipe)."""
        self.unwatch()
        self._outbox = memoryview(b"")
        reply, self.reply = self.reply, None
        if reply is not None and not reply.done():
            reply.set_exception(WorkerCrash(f"worker {self.pid} {why}"))

    # -- process lifecycle (blocking: executor threads only) ---------------

    def kill(self) -> None:
        try:
            self.proc.kill()
        except (OSError, AttributeError):
            pass
        self.proc.join(timeout=5)
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Graceful shutdown: sentinel, short grace period, then kill."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=2)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=5)
        try:
            self.conn.close()
        except OSError:
            pass


def _stop_all(workers: list[_Worker]) -> None:
    for worker in workers:
        worker.stop()


@dataclass
class PoolConfig:
    workers: int = 2
    cache_dir: str | None = None
    timeout_seconds: float = 60.0
    #: Requests allowed to wait for a worker before shedding with ``busy``.
    max_pending: int = 16
    allow_debug: bool = False
    #: :class:`~repro.serve.adaptive.AdaptiveConfig` enabling obs-driven
    #: background promotion of hot ``backend="auto"`` programs to native.
    #: ``None`` (the default) leaves the adaptive tier off.
    adaptive: object | None = None
    #: Per-worker warm table bound (``None`` keeps the default of 64).
    vm_cache_max: int | None = None
    #: ``host:port`` of a shared artifact store; workers then build a
    #: :class:`~repro.serve.store.SharedArtifactCache` (remote
    #: read-through + publish) instead of a plain local cache.
    store: str | None = None
    #: Shard identity stamped into response meta and metrics labels
    #: (cluster mode; None for plain single-process servers).
    shard: str | None = None


class WorkerPool:
    """Fixed-size pool of single-request-at-a-time worker processes.

    Driven from one asyncio event loop: :meth:`submit`, :meth:`ping_all`
    and :meth:`close` are coroutines, and the dispatch state — the idle
    list, the FIFO backlog, each worker's pending reply — is touched only
    on that loop, so it takes no locks.  The loop is bound on first use;
    once it has closed, the pool may be driven from a new one (tests run
    one pool through several ``asyncio.run`` calls, and the synchronous
    ``with`` form closes it on a loop of its own).  With ``workers=0``
    the pool runs requests in-process on the loop's default executor —
    no isolation, no timeout enforcement — which keeps unit tests and
    one-shot CLI usage cheap.
    """

    def __init__(self, config: PoolConfig, metrics=None):
        self.config = config
        self.metrics = metrics
        self._ctx = _start_context()
        self._workers: list[_Worker] = []  # every live worker, idle or busy
        self._idle: list[_Worker] = []
        self._waiters: collections.deque[asyncio.Future] = \
            collections.deque()
        self._loop: asyncio.AbstractEventLoop | None = None
        # Respawns and stops nobody awaits, referenced until they finish.
        self._background: set[asyncio.Future] = set()
        self._closed = False
        self._inline_cache = None
        if config.workers == 0:
            self._inline_cache = _build_cache(config)
            _configure_runtime(self._inline_cache, config)
        else:
            self._workers = [self._spawn() for _ in range(config.workers)]
            self._idle = list(self._workers)

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self) -> _Worker:
        if self.metrics is not None:
            self.metrics.record_pool("spawned")
        return _Worker(self._ctx, self.config)

    def _bind(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            self._loop = loop
            for worker in self._workers:
                worker.watch(loop)

    async def close(self) -> None:
        """Fail queued requests and stop idle workers; a busy worker is
        stopped when its request finishes."""
        if self._closed:
            return
        self._closed = True
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_exception(
                    ServeError("shutting_down", "pool is closed"))
        idle, self._idle = self._idle, []
        for worker in idle:
            worker.unwatch()
            self._workers.remove(worker)
        if idle:
            await asyncio.get_running_loop().run_in_executor(
                None, _stop_all, idle)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        asyncio.run(self.close())

    # -- dispatch ----------------------------------------------------------

    async def _acquire(self) -> _Worker:
        if self._closed:
            raise ServeError("shutting_down", "pool is closed")
        if self._idle:
            return self._idle.pop()
        if len(self._waiters) >= self.config.max_pending:
            if self.metrics is not None:
                self.metrics.record_pool("shed")
            raise ServeError(
                "busy",
                f"all {self.config.workers} workers busy and "
                f"{len(self._waiters)} requests already waiting; "
                "retry later")
        waiter = self._loop.create_future()
        self._waiters.append(waiter)
        try:
            return await waiter
        except asyncio.CancelledError:
            if waiter.cancelled():
                try:
                    self._waiters.remove(waiter)
                except ValueError:
                    pass  # already skipped by _release
            elif waiter.exception() is None:
                # Handed a worker in the same turn we were cancelled.
                self._release(waiter.result())
            raise

    def _release(self, worker: _Worker) -> None:
        """Hand ``worker`` to the oldest waiter, else back to idle."""
        if self._closed:
            worker.unwatch()
            self._workers.remove(worker)
            self._detach(self._loop.run_in_executor(None, worker.stop))
            return
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(worker)
                return
        self._idle.append(worker)

    async def _call(self, worker: _Worker, req: dict,
                    timeout: float) -> dict:
        """One request/response on ``worker`` with a hard deadline."""
        reply = worker.send(req)
        timer = self._loop.call_later(
            timeout, _expire, reply,
            f"no response from worker {worker.pid} within {timeout:g}s")
        try:
            return await reply
        finally:
            timer.cancel()

    def _recycle(self, worker: _Worker, cause: str) -> asyncio.Task:
        """Kill ``worker`` and put a fresh one in its place.

        The kill, join and fork run on the loop's default executor, so a
        dying worker never stalls other connections; the returned task
        finishes once the replacement is serving.
        """
        self._log_worker_death(worker, cause)
        worker.unwatch()
        self._workers.remove(worker)
        return self._detach(self._loop.create_task(self._replace(worker)))

    def _detach(self, future: asyncio.Future) -> asyncio.Future:
        self._background.add(future)
        future.add_done_callback(self._background.discard)
        return future

    async def _replace(self, worker: _Worker) -> None:
        fresh = await self._loop.run_in_executor(None, self._respawn, worker)
        if fresh is not None:
            self._workers.append(fresh)
            fresh.watch(self._loop)
            self._release(fresh)

    def _respawn(self, worker: _Worker) -> _Worker | None:
        worker.kill()
        return None if self._closed else self._spawn()

    async def submit(self, req: dict) -> tuple[dict, dict]:
        """Run one request on the pool; returns ``(result, meta)``.

        Raises :class:`ServeError` for every failure mode (including the
        worker-side typed errors, re-raised here).
        """
        if self.config.workers == 0:
            from repro.serve.handlers import handle_request
            return await asyncio.get_running_loop().run_in_executor(
                None, functools.partial(
                    handle_request, req, self._inline_cache,
                    allow_debug=self.config.allow_debug,
                    shard=self.config.shard))
        self._bind()
        timeout = self.config.timeout_seconds
        override = req.get("timeout_seconds")
        if isinstance(override, (int, float)) and 0 < override:
            timeout = min(float(override), timeout)

        # The pool's spans form their own collector, shipped back in
        # meta["spans"] like the worker's; the trace position rides in
        # req["_trace"] (see repro.obs).
        trace_ctx = req.get("_trace")
        root = tracing.resume(trace_ctx, "pool.execute", op=req.get("op"))
        with root:
            result, meta = await self._run_attempts(req, trace_ctx, timeout)
        local = root.export()
        if local:
            meta["spans"] = list(meta.get("spans", ())) + local
        return result, meta

    async def _run_attempts(self, req: dict, trace_ctx: dict | None,
                            timeout: float) -> tuple[dict, dict]:
        last_crash: WorkerCrash | None = None
        for attempt in (1, 2):
            with tracing.span("pool.acquire"):
                worker = await self._acquire()
            try:
                dispatch = tracing.span(
                    "pool.dispatch", worker_pid=worker.pid, attempt=attempt)
                with dispatch:
                    wire = req
                    if isinstance(trace_ctx, dict) and dispatch.span_id:
                        # Re-point the carrier at this dispatch span so
                        # the worker's spans nest beneath it.
                        wire = dict(req)
                        wire["_trace"] = dict(trace_ctx,
                                              parent_id=dispatch.span_id)
                    resp = await self._call(worker, wire, timeout)
            except WorkerTimeout:
                await asyncio.shield(self._recycle(
                    worker, f"timeout after {timeout:g}s"))
                if self.metrics is not None:
                    self.metrics.record_pool("timed_out")
                raise ServeError(
                    "timeout",
                    f"request exceeded {timeout:g}s; worker was recycled")
            except WorkerCrash as exc:
                await asyncio.shield(self._recycle(worker, f"crash ({exc})"))
                if self.metrics is not None:
                    self.metrics.record_pool("crashed")
                last_crash = exc
                if attempt == 1:
                    if self.metrics is not None:
                        self.metrics.record_pool("retried")
                    continue
                break
            except BaseException:
                # Cancelled with the request in flight: the worker is
                # still busy with it and cannot be handed on.
                self._recycle(worker, "cancelled request")
                raise
            self._release(worker)
            if resp.get("ok"):
                meta = resp.get("meta", {})
                meta["attempts"] = attempt
                return resp["result"], meta
            raise ServeError(resp.get("error_type", "internal"),
                             resp.get("message", "worker error"))
        raise ServeError(
            "worker_crash",
            f"worker died twice on this request ({last_crash}); giving up")

    @staticmethod
    def _log_worker_death(worker: _Worker, cause: str) -> None:
        """Attribute a kill+respawn to the request the worker last held."""
        log.warning(
            "killing worker pid=%s after %s; last op=%s trace_id=%s "
            "span_id=%s; spawning replacement", worker.pid, cause,
            worker.last_op, worker.last_trace_id, worker.last_span_id)

    # -- introspection -----------------------------------------------------

    async def ping_all(self) -> list[dict]:
        """Round-trip every worker once (warm-up / smoke check).

        Holds all workers while pinging so each worker is reached exactly
        once (plain ``submit`` would keep re-grabbing the same idle
        worker off the LIFO free list).
        """
        if self.config.workers == 0:
            result, _ = await self.submit({"op": "ping"})
            return [result]
        self._bind()
        workers = [await self._acquire() for _ in range(self.config.workers)]
        try:
            return [(await self._call(w, {"op": "ping"},
                                      self.config.timeout_seconds))
                    .get("result", {}) for w in workers]
        finally:
            for w in workers:
                self._release(w)
