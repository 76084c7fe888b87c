"""Unit and live tests for the serve micro-batching stack.

Three layers: the ``run_batch`` handler executed inline (no server), the
:class:`~repro.serve.batching.BatchQueue` coalescing policy on a bare
event loop against a fake pool, and a live :class:`ServerThread` round
trip proving concurrent ``run`` requests really merge into occupancy>1
worker calls with bit-identical fan-out.
"""

import asyncio
import threading

import pytest

from repro.obs import tracing
from repro.serve.batching import BatchQueue, _batch_key
from repro.serve.cache import ArtifactCache
from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.handlers import handle_request
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import OPS, PROTOCOL_VERSION, ServeError
from repro.serve.server import ServeConfig, ServerThread


def test_protocol_lists_run_batch():
    assert "run_batch" in OPS
    assert PROTOCOL_VERSION >= 2


class TestRunBatchHandler:
    """op_run_batch executed inline against a temp artifact cache."""

    def test_matches_solo_runs_and_sums_counts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        solo = {}
        for seed in (0, 7):
            res, _ = handle_request(
                {"op": "run", "model": "Motivating", "generator": "frodo",
                 "steps": 2, "seed": seed, "include_outputs": False}, cache)
            solo[seed] = res
        res, meta = handle_request(
            {"op": "run_batch", "model": "Motivating", "generator": "frodo",
             "steps": 2, "instances": [{"seed": 0}, {"seed": 7},
                                       {"seed": 0}]}, cache)
        rows = res["results"]
        assert res["executed"] == 3 and all(r["ok"] for r in rows)
        assert rows[0]["output_sha256"] == solo[0]["output_sha256"]
        assert rows[1]["output_sha256"] == solo[7]["output_sha256"]
        assert rows[2]["output_sha256"] == rows[0]["output_sha256"]
        for key, value in res["counts"].items():
            assert value == 3 * solo[0]["counts"][key]
        assert res["counts_exact"] is True
        assert meta["batched"] == 3

    def test_one_warm_vm_serves_the_whole_batch(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        req = {"op": "run_batch", "model": "Motivating",
               "generator": "frodo", "instances": [{"seed": s}
                                                   for s in range(4)]}
        _, first = handle_request(req, cache)
        _, second = handle_request(req, cache)
        # one VM per (fingerprint, backend): second batch reuses it
        assert second["vm_cache"] == "hit"

    def test_per_instance_errors_do_not_sink_the_batch(self, tmp_path):
        res, _ = handle_request(
            {"op": "run_batch", "model": "Motivating", "generator": "frodo",
             "instances": [{"seed": 0}, {"inputs": {"bogus": [1.0]}},
                           "not a dict"]},
            ArtifactCache(tmp_path))
        rows = res["results"]
        assert rows[0]["ok"]
        assert not rows[1]["ok"] and rows[1]["error_type"] == "bad_request"
        assert not rows[2]["ok"] and rows[2]["error_type"] == "bad_request"
        assert res["executed"] == 1

    @pytest.mark.parametrize("instances", [[], "nope", [{"seed": 0}] * 257])
    def test_malformed_instance_lists_are_typed(self, tmp_path, instances):
        with pytest.raises(ServeError) as err:
            handle_request({"op": "run_batch", "model": "Motivating",
                            "instances": instances},
                           ArtifactCache(tmp_path))
        assert err.value.error_type == "bad_request"


class TestBatchKey:
    def test_groups_on_execution_identity(self):
        base = {"op": "run", "model": "M", "generator": "frodo",
                "backend": "auto", "steps": 2}
        assert _batch_key(base) == _batch_key({**base, "seed": 99})
        assert _batch_key(base) != _batch_key({**base, "steps": 3})
        assert _batch_key(base) != _batch_key({**base, "backend": "native"})
        assert _batch_key(base) != _batch_key({**base, "model": "N"})

    def test_payload_uploads_key_on_content_hash(self):
        a = {"op": "run", "model_payload": "QUJD", "model_format": "slx"}
        assert _batch_key(a) == _batch_key(dict(a))
        assert _batch_key(a) != _batch_key({**a, "model_payload": "REVG"})


class _FakePool:
    """Records every request; answers run and run_batch shapes.

    A call waits while ``gate`` is clear, so a test can hold worker
    slots busy for as long as it likes; ``entered`` counts calls that
    reached the pool.  Everything runs on the test's event loop, and no
    assertion depends on timing.
    """

    def __init__(self):
        self.requests: list[dict] = []
        self.gate = asyncio.Event()
        self.gate.set()
        self.entered = asyncio.Semaphore(0)

    async def submit(self, req):
        self.requests.append(req)
        self.entered.release()
        await asyncio.wait_for(self.gate.wait(), 30)
        if req["op"] == "run_batch":
            n = len(req["instances"])
            return ({"model": "M", "executed": n, "batch": n,
                     "execute_seconds": 0.008 * n,
                     "counts": {"flops": 10 * n}, "counts_exact": True,
                     "total_element_ops": 5 * n, "peak_buffer_bytes": 64 * n,
                     "results": [{"ok": True, "output_sha256": f"sha{i}"}
                                 for i in range(n)]},
                    {"worker_pid": 1, "vm_cache": "hit"})
        if req.get("model") == "X":
            raise ServeError("unknown_model", "no model X")
        return ({"model": req.get("model"), "output_sha256": "solo",
                 "counts": {"flops": 10}, "counts_exact": True},
                {"worker_pid": 1})

    async def wait_entered(self) -> None:
        await asyncio.wait_for(self.entered.acquire(), 30)


def _drive(coro):
    return asyncio.run(coro)


def _queue(pool, metrics=None, max_batch=8, slots=1, max_pending=16):
    return BatchQueue(pool.submit, metrics or MetricsRegistry(),
                      max_batch=max_batch, slots=slots,
                      max_pending=max_pending)


async def _behind_busy_slot(queue, pool, reqs):
    """Occupy the queue's only slot with a blocker, enqueue ``reqs``
    behind it, then release the pool; returns (blocker, *reqs) results."""
    pool.gate.clear()
    blocker = asyncio.ensure_future(
        queue.submit({"op": "run", "model": "B"}))
    await pool.wait_entered()
    tasks = [asyncio.ensure_future(queue.submit(r)) for r in reqs]
    await asyncio.sleep(0)  # every submit has now enqueued
    assert len(pool.requests) == 1
    pool.gate.set()
    # the bound only turns a stuck queue into a failure instead of a hang
    return await asyncio.wait_for(
        asyncio.gather(blocker, *tasks, return_exceptions=True), 30)


class TestBatchQueuePolicy:
    def test_lone_request_with_free_slot_goes_at_once(self):
        pool = _FakePool()
        req = {"op": "run", "model": "M", "seed": 1}

        async def scenario():
            queue = _queue(pool)
            pool.gate.clear()
            task = asyncio.ensure_future(queue.submit(req))
            await asyncio.sleep(0)
            # dispatched in the submitting turn — no timer, no waiting
            assert queue._in_flight == 1 and not queue._waiting
            await pool.wait_entered()
            pool.gate.set()
            out = await task
            assert queue._in_flight == 0
            return out

        result, meta = _drive(scenario())
        assert len(pool.requests) == 1 and pool.requests[0] is req
        assert result["output_sha256"] == "solo"
        assert "coalesced" not in meta

    def test_queued_same_key_requests_merge(self):
        pool = _FakePool()
        reqs = [{"op": "run", "model": "M", "seed": s} for s in range(3)]
        _, *results = _drive(_behind_busy_slot(_queue(pool), pool, reqs))
        assert [r["op"] for r in pool.requests] == ["run", "run_batch"]
        assert pool.requests[1]["instances"] == [{"seed": s}
                                                 for s in range(3)]
        shas = [result["output_sha256"] for result, _ in results]
        assert shas == ["sha0", "sha1", "sha2"]  # order-preserving fan-out
        for result, meta in results:
            assert result["counts"] == {"flops": 10}  # amortized, exact
            assert result["counts_exact"] is True
            assert meta["batched"] == 3 and meta["coalesced"] is True
        # cache meta surfaces on exactly one member
        assert sum("vm_cache" in meta for _, meta in results) == 1

    def test_buckets_dispatch_fifo_across_keys(self):
        pool = _FakePool()
        reqs = [{"op": "run", "model": m, "seed": s}
                for m, s in (("P", 0), ("Q", 0), ("P", 1), ("R", 0))]
        _drive(_behind_busy_slot(_queue(pool), pool, reqs))
        sent = [(r["op"], r["model"]) for r in pool.requests[1:]]
        assert sent == [("run_batch", "P"), ("run", "Q"), ("run", "R")]
        # lone members of a bucket still go out verbatim
        assert pool.requests[2] is reqs[1] and pool.requests[3] is reqs[3]

    def test_full_bucket_seals_and_later_arrivals_start_a_new_one(self):
        pool = _FakePool()
        reqs = [{"op": "run", "model": "M", "seed": s} for s in range(3)]
        _drive(_behind_busy_slot(_queue(pool, max_batch=2), pool, reqs))
        assert [r["op"] for r in pool.requests] == ["run", "run_batch",
                                                    "run"]
        assert len(pool.requests[1]["instances"]) == 2
        assert pool.requests[2] is reqs[2]

    def test_backlog_bound_sheds_busy(self):
        pool = _FakePool()
        metrics = MetricsRegistry()
        reqs = [{"op": "run", "model": "M", "seed": 0},
                {"op": "run", "model": "M", "seed": 1},  # joins open bucket
                {"op": "run", "model": "N"}]             # needs a new one
        queue = _queue(pool, metrics, max_pending=1)
        _, first, second, shed = _drive(_behind_busy_slot(queue, pool, reqs))
        assert first[1]["batched"] == 2 and second[1]["batched"] == 2
        assert isinstance(shed, ServeError) and shed.error_type == "busy"
        assert [r["op"] for r in pool.requests] == ["run", "run_batch"]
        shed_rows = [row for row in metrics.snapshot()["pool_events_total"]
                     if row["labels"].get("event") == "shed"]
        assert shed_rows and shed_rows[0]["value"] == 1

    def test_free_slot_is_never_shed(self):
        pool = _FakePool()

        async def scenario():
            return await _queue(pool, max_pending=0).submit(
                {"op": "run", "model": "M"})

        result, _ = _drive(scenario())
        assert result["output_sha256"] == "solo"

    def test_failed_dispatch_frees_its_slot(self):
        pool = _FakePool()

        async def scenario():
            queue = _queue(pool)
            with pytest.raises(ServeError) as err:
                await queue.submit({"op": "run", "model": "X"})
            assert err.value.error_type == "unknown_model"
            assert queue._in_flight == 0
            return await queue.submit({"op": "run", "model": "M"})

        result, _ = _drive(scenario())
        assert result["output_sha256"] == "solo"

    def test_opt_out_and_unknown_fields_bypass(self):
        pool = _FakePool()
        reqs = [{"op": "run", "model": "M", "coalesce": False},
                {"op": "run", "model": "M", "mystery_field": 1},
                {"op": "run", "model": "M", "coalesce": False}]

        async def scenario():
            queue = _queue(pool)
            out = await asyncio.gather(*(queue.submit(r) for r in reqs))
            # bypassing requests never take a coalescing slot
            assert queue._in_flight == 0 and not queue._waiting
            return out

        _drive(scenario())
        assert [r["op"] for r in pool.requests] == ["run", "run", "run"]
        assert all(any(sent is r for sent in pool.requests) for r in reqs)

    def test_incompatible_requests_never_share_a_bucket(self):
        pool = _FakePool()
        reqs = [{"op": "run", "model": "M", "steps": st, "seed": s}
                for st in (1, 2) for s in range(2)]
        _drive(_behind_busy_slot(_queue(pool), pool, reqs))
        batches = [r for r in pool.requests if r["op"] == "run_batch"]
        assert len(batches) == 2
        assert {b["steps"] for b in batches} == {1, 2}

    def test_per_instance_failure_raises_only_that_waiter(self):
        class FailSlotPool(_FakePool):
            async def submit(self, req):
                result, meta = await super().submit(req)
                if req["op"] == "run_batch":
                    result["results"][1] = {
                        "ok": False, "error_type": "bad_request",
                        "error": "instance 1 rejected"}
                    result["executed"] = len(req["instances"]) - 1
                return result, meta

        pool = FailSlotPool()
        reqs = [{"op": "run", "model": "M", "seed": s} for s in range(3)]
        _, good0, bad, good2 = _drive(
            _behind_busy_slot(_queue(pool), pool, reqs))
        assert isinstance(bad, ServeError)
        assert bad.error_type == "bad_request"
        assert good0[0]["output_sha256"] == "sha0"
        assert good2[0]["output_sha256"] == "sha2"

    def test_bucket_runs_outside_the_submitters_span(self):
        # The pool is awaited on the loop: a bucket task must not inherit
        # the open span of whichever request happened to dispatch it, or
        # another request's pool spans would land in that trace.
        seen = []

        class SpanPool(_FakePool):
            async def submit(self, req):
                seen.append(tracing.current())
                return await super().submit(req)

        pool = SpanPool()

        async def scenario():
            with tracing.start_trace("request"):
                return await _queue(pool).submit({"op": "run", "model": "M"})

        result, _ = _drive(scenario())
        assert result["output_sha256"] == "solo"
        assert seen == [None]

    def test_occupancy_and_delay_metrics_recorded(self):
        metrics = MetricsRegistry()
        pool = _FakePool()
        reqs = [{"op": "run", "model": "M", "seed": s} for s in range(2)]
        _drive(_behind_busy_slot(_queue(pool, metrics), pool, reqs))
        snap = metrics.snapshot()
        occ = snap["batch_occupancy"][0]
        # the blocker went out alone, the two queued requests together
        assert occ["count"] == 2 and occ["max_seconds"] == 2
        assert snap["batch_queue_delay_seconds"][0]["count"] == 3


@pytest.mark.slow
class TestLiveCoalescing:
    def test_concurrent_runs_coalesce_bitwise(self, tmp_path):
        config = ServeConfig(workers=1, cache_dir=str(tmp_path / "cache"),
                             max_batch=8, allow_debug=True)
        with ServerThread(config) as thread:
            port = thread.server.port
            with ServeClient(port=port) as client:
                client.compile("Motivating", generator="frodo")
                base = client.run("Motivating", generator="frodo", steps=2,
                                  include_outputs=False)

            # Hold the only worker so the runs below queue behind it and
            # coalesce.  The sleep bypasses the batcher, so the first run
            # takes the batcher's slot (and waits in the pool); the rest
            # wait in the batcher and merge.
            def hold():
                with ServeClient(port=port) as holder:
                    holder.request("sleep", seconds=1.5)

            holder = threading.Thread(target=hold)
            holder.start()
            with ServeClient(port=port) as client:
                while client.metrics(render=False)["snapshot"][
                        "in_flight"] < 2:  # the sleep, plus this request
                    pass

            shas: list = [None] * 6

            def one(slot):
                with ServeClient(port=port) as peer:
                    result = peer.run("Motivating", generator="frodo",
                                      steps=2, include_outputs=False)
                    shas[slot] = result["output_sha256"]

            threads = [threading.Thread(target=one, args=(i,))
                       for i in range(len(shas))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            holder.join()
            assert all(s == base["output_sha256"] for s in shas)

            with ServeClient(port=port) as client:
                snap = client.metrics(render=False)["snapshot"]
                occ = snap["batch_occupancy"]
                assert occ and occ[0]["max_seconds"] > 1, \
                    "no coalesced flush with occupancy > 1 observed"

                # a batched failure still produces a typed error
                with pytest.raises(ServeRequestError) as err:
                    client.run("NoSuchModelZZZ")
                assert err.value.error_type == "unknown_model"

    def test_max_batch_one_disables_coalescing(self, tmp_path):
        config = ServeConfig(workers=1, cache_dir=str(tmp_path / "cache"),
                             max_batch=1)
        with ServerThread(config) as thread:
            assert thread.server.batcher is None
            with ServeClient(port=thread.server.port) as client:
                result = client.run("Motivating", generator="frodo",
                                    include_outputs=False)
                assert result["output_sha256"]
                snap = client.metrics(render=False)["snapshot"]
                assert snap["batch_occupancy"] == []
