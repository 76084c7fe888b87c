"""End-to-end tracing through the serve stack.

A served ``run`` with ``trace: true`` must come back with a span tree
covering every pipeline stage — request dispatch, coalescing queue,
pool hand-off, worker handling, cache lookup, codegen (cold only), VM
execution — with sane timings, and tracing must stay strictly opt-in:
untraced requests carry only a ``trace_id`` breadcrumb.
"""

import asyncio
import logging

import pytest

from repro.serve.client import ServeClient
from repro.serve.metrics import MetricsRegistry
from repro.serve.pool import PoolConfig, WorkerPool
from repro.serve.server import ServeConfig, ServerThread


@pytest.fixture(scope="module")
def traced_server(tmp_path_factory):
    cache = tmp_path_factory.mktemp("trace-cache")
    config = ServeConfig(workers=1, cache_dir=str(cache), max_batch=4)
    with ServerThread(config) as thread:
        yield thread.server


@pytest.fixture()
def client(traced_server):
    with ServeClient(port=traced_server.port) as c:
        yield c


def _flatten(nodes, depth=0):
    for node in nodes:
        yield depth, node
        yield from _flatten(node.get("children", ()), depth + 1)


def test_traced_run_covers_the_pipeline(client):
    result = client.run("Motivating", steps=2, include_outputs=False,
                        trace=True)
    tree = result["trace"]
    assert isinstance(tree, list) and len(tree) == 1
    assert tree[0]["name"] == "request"
    names = {node["name"] for _, node in _flatten(tree)}
    # queue -> pool -> worker -> vm, with cache stages in between.
    assert {"request", "queue.wait", "pool.execute", "pool.acquire",
            "pool.dispatch", "worker.handle", "cache.lookup",
            "vm.acquire"} <= names
    assert "vm.run" in names or "vm.run_batch" in names


def test_traced_span_timings_are_sane(client):
    result = client.run("Motivating", steps=2, include_outputs=False,
                        trace=True)
    flat = list(_flatten(result["trace"]))
    root = flat[0][1]
    for _, node in flat:
        assert node["wall_seconds"] >= 0.0
        assert node["cpu_seconds"] >= 0.0
        # Children start no earlier than the root (small tolerance for
        # wall-clock granularity across processes).
        assert node["start_unix"] >= root["start_unix"] - 0.05
    for depth, node in flat:
        for child in node.get("children", ()):
            assert child["start_unix"] >= node["start_unix"] - 0.05


def test_warm_request_hits_cache_and_skips_codegen(client):
    client.run("Motivating", steps=2, include_outputs=False)  # warm up
    result = client.run("Motivating", steps=2, include_outputs=False,
                        trace=True)
    nodes = {node["name"]: node for _, node in _flatten(result["trace"])}
    assert nodes["cache.lookup"]["attrs"]["outcome"] == "hit"
    assert "codegen" not in nodes
    assert "cache.store" not in nodes


def test_untraced_request_gets_id_but_no_spans(client):
    resp = client.request_raw("run", model="Motivating", steps=1,
                              include_outputs=False)
    assert resp["ok"]
    assert "trace" not in resp["result"]
    assert "spans" not in resp.get("meta", {})
    assert len(resp["meta"]["trace_id"]) == 32


def test_trace_ids_are_unique_per_request(client):
    ids = {client.request_raw("ping")["meta"]["trace_id"]
           for _ in range(3)}
    assert len(ids) == 3


def test_error_response_still_carries_trace_id(client):
    resp = client.request_raw("run", model="NoSuchModelZZZ")
    assert not resp["ok"]
    assert len(resp["meta"]["trace_id"]) == 32


def test_phase_metrics_fed_from_traced_requests(client):
    client.run("Motivating", steps=1, include_outputs=False, trace=True)
    snapshot = client.metrics()["snapshot"]
    phases = {row["labels"]["phase"] for row in
              snapshot["phase_latency_seconds"]}
    assert {"request", "worker.handle"} <= phases
    text = client.metrics()["text"]
    assert "phase_latency_seconds" in text


def test_trace_log_appends_jsonl(tmp_path):
    from repro.obs.export import read_jsonl
    log_path = tmp_path / "trace.jsonl"
    config = ServeConfig(workers=0, max_batch=1, cache_dir=None,
                         trace_log=str(log_path))
    with ServerThread(config) as thread:
        with ServeClient(port=thread.server.port) as c:
            c.run("Motivating", steps=1, include_outputs=False)
            c.run("Motivating", steps=1, include_outputs=False)
    spans = read_jsonl(log_path)
    names = {s["name"] for s in spans}
    assert {"request", "worker.handle", "vm.acquire"} <= names
    assert len({s["trace_id"] for s in spans}) == 2


def test_worker_respawn_log_names_last_trace(caplog):
    config = PoolConfig(workers=1, timeout_seconds=10.0, allow_debug=True)
    with WorkerPool(config, MetricsRegistry()) as pool:
        with caplog.at_level(logging.WARNING, logger="repro.serve.pool"):
            with pytest.raises(Exception):
                asyncio.run(pool.submit(
                    {"op": "sleep", "seconds": 0, "exit": True,
                     "_trace": {"trace_id": "feedfacefeedface",
                                "parent_id": "cafe", "record": False}}))
    messages = [r.getMessage() for r in caplog.records
                if "killing worker" in r.getMessage()]
    assert messages, "expected a respawn warning"
    assert any("trace_id=feedfacefeedface" in m and "op=sleep" in m
               for m in messages)
