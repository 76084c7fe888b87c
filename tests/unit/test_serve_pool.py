"""Unit tests for the worker pool: timeouts, crashes, load shedding.

The pool is a coroutine API driven from one event loop; each test runs
its scenario through ``asyncio.run`` (a pool may be driven from a fresh
loop once the previous one has closed).
"""

import asyncio
import os
import time

import pytest

from repro.serve.metrics import MetricsRegistry
from repro.serve.pool import PoolConfig, WorkerPool
from repro.serve.protocol import ServeError


def _pool(metrics=None, **kwargs) -> WorkerPool:
    defaults = dict(workers=1, timeout_seconds=10.0, max_pending=4,
                    allow_debug=True)
    defaults.update(kwargs)
    return WorkerPool(PoolConfig(**defaults), metrics or MetricsRegistry())


def _submit(pool: WorkerPool, req: dict):
    return asyncio.run(pool.submit(req))


class TestInlinePool:
    def test_workers_zero_runs_in_process(self, tmp_path):
        with _pool(workers=0, cache_dir=str(tmp_path)) as pool:
            result, meta = _submit(
                pool, {"op": "compile", "model": "Motivating"})
            assert result["generator"] == "frodo"
            assert meta["artifact_cache"] == "miss"
            assert meta["worker_pid"] == os.getpid()

    def test_typed_errors_pass_through(self):
        with _pool(workers=0) as pool:
            with pytest.raises(ServeError) as exc:
                _submit(pool, {"op": "run", "model": "Zzz"})
            assert exc.value.error_type == "unknown_model"


class TestProcessPool:
    def test_request_isolation_and_warm_cache(self, tmp_path):
        with _pool(cache_dir=str(tmp_path)) as pool:
            req = {"op": "run", "model": "Motivating",
                   "include_outputs": False}
            result, meta = _submit(pool, req)
            assert meta["worker_pid"] != os.getpid()
            assert meta["attempts"] == 1
            _, meta2 = _submit(pool, dict(req))
            assert meta2["worker_pid"] == meta["worker_pid"]
            assert meta2["vm_cache"] == "hit"
            assert meta2["artifact_cache"] == "hit"

    def test_timeout_kills_and_recovers(self):
        metrics = MetricsRegistry()
        with _pool(metrics, timeout_seconds=0.5) as pool:
            with pytest.raises(ServeError) as exc:
                _submit(pool, {"op": "sleep", "seconds": 30})
            assert exc.value.error_type == "timeout"
            # A fresh worker replaced the killed one and serves requests.
            result, _ = _submit(pool, {"op": "ping"})
            assert result["pong"] is True
            assert metrics.pool_events.value(event="timed_out") == 1
            assert metrics.pool_events.value(event="spawned") == 2

    def test_per_request_timeout_override_capped(self):
        with _pool(timeout_seconds=10.0) as pool:
            t0 = time.monotonic()
            with pytest.raises(ServeError) as exc:
                _submit(pool, {"op": "sleep", "seconds": 30,
                               "timeout_seconds": 0.5})
            assert exc.value.error_type == "timeout"
            assert time.monotonic() - t0 < 8.0

    def test_crash_is_retried_once_then_typed(self):
        metrics = MetricsRegistry()
        with _pool(metrics) as pool:
            with pytest.raises(ServeError) as exc:
                _submit(pool, {"op": "sleep", "seconds": 0, "exit": True})
            assert exc.value.error_type == "worker_crash"
            assert metrics.pool_events.value(event="retried") == 1
            assert metrics.pool_events.value(event="crashed") == 2
            # Pool healed: a replacement worker answers.
            assert _submit(pool, {"op": "ping"})[0]["pong"] is True

    def test_load_shed_busy(self):
        metrics = MetricsRegistry()
        with _pool(metrics, timeout_seconds=30.0, max_pending=0) as pool:
            async def scenario():
                sleeper = asyncio.ensure_future(
                    pool.submit({"op": "sleep", "seconds": 1.5}))
                await asyncio.sleep(0)  # the sleeper claims the worker
                with pytest.raises(ServeError) as exc:
                    await pool.submit({"op": "ping"})
                return exc.value, await sleeper

            shed, (slept, _) = asyncio.run(scenario())
            assert shed.error_type == "busy"
            assert metrics.pool_events.value(event="shed") == 1
            assert slept["slept"] == 1.5

    def test_backlog_is_fifo(self):
        with _pool(timeout_seconds=30.0, max_pending=4) as pool:
            async def scenario():
                order = []

                async def one(tag, seconds):
                    await pool.submit({"op": "sleep", "seconds": seconds})
                    order.append(tag)

                tasks = [asyncio.ensure_future(one(0, 0.3))]
                await asyncio.sleep(0)  # the first request holds the worker
                tasks += [asyncio.ensure_future(one(i, 0)) for i in (1, 2, 3)]
                await asyncio.gather(*tasks)
                return order

            assert asyncio.run(scenario()) == [0, 1, 2, 3]

    def test_request_larger_than_the_pipe_buffer(self):
        with _pool() as pool:
            pad = "x" * (8 << 20)
            result, _ = _submit(pool, {"op": "ping", "pad": pad})
            assert result["pong"] is True

    def test_ping_all_reaches_every_worker(self):
        with _pool(workers=2) as pool:
            pids = {r["pid"] for r in asyncio.run(pool.ping_all())}
            assert len(pids) == 2

    def test_closed_pool_sheds_with_shutting_down(self):
        pool = _pool()
        asyncio.run(pool.close())
        with pytest.raises(ServeError) as exc:
            _submit(pool, {"op": "ping"})
        assert exc.value.error_type == "shutting_down"

    def test_close_fails_queued_requests(self):
        pool = _pool(timeout_seconds=30.0)

        async def scenario():
            sleeper = asyncio.ensure_future(
                pool.submit({"op": "sleep", "seconds": 0.5}))
            await asyncio.sleep(0)
            queued = asyncio.ensure_future(pool.submit({"op": "ping"}))
            await asyncio.sleep(0)
            await pool.close()
            with pytest.raises(ServeError) as exc:
                await queued
            # the in-flight request still completes
            return exc.value, await sleeper

        shut, (slept, _) = asyncio.run(scenario())
        assert shut.error_type == "shutting_down"
        assert slept["slept"] == 0.5
