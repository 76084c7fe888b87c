"""Integration tests: a live server, real sockets, real worker processes.

Covers the serving acceptance path end-to-end: mixed compile/run/metrics
traffic over one TCP connection, warm-cache hits on the second pass,
typed errors for bad input and timeouts, artifact-cache persistence
across a full server restart, and the HTTP shim.
"""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.server import ServeConfig, ServerThread

pytestmark = pytest.mark.slow


@pytest.fixture()
def server(tmp_path):
    config = ServeConfig(workers=1, cache_dir=str(tmp_path / "cache"),
                         timeout_seconds=15.0, allow_debug=True)
    with ServerThread(config) as thread:
        yield thread


class TestServeIntegration:
    def test_mixed_traffic_and_cache_hits(self, server):
        port = server.server.port
        with ServeClient(port=port) as client:
            assert client.ping()["pong"] is True

            compiled = client.compile("Motivating", generator="frodo")
            assert compiled["stats"]["eliminated_elements"] == 10

            first = client.run("Motivating", generator="frodo", steps=2,
                               include_outputs=False)
            second = client.run("Motivating", generator="frodo", steps=2,
                                include_outputs=False)
            assert first["output_sha256"] == second["output_sha256"]

            ranges = client.ranges("Motivating")
            assert ranges["optimizable_blocks"] == 1

            snapshot = client.metrics(render=False)["snapshot"]
            cache_rows = {
                (r["labels"]["cache"], r["labels"]["event"]): r["value"]
                for r in snapshot["cache_events_total"]}
            # compile missed cold, run #1 hit the artifact + missed the VM
            # cache, run #2 hit both.
            assert cache_rows[("artifact", "miss")] == 1
            assert cache_rows[("artifact", "hit")] >= 2
            assert cache_rows[("vm", "miss")] == 1
            assert cache_rows[("vm", "hit")] >= 1
            assert snapshot["vm_cache_hit_rate"] > 0

    def test_typed_errors_on_bad_input(self, server):
        with ServeClient(port=server.server.port) as client:
            with pytest.raises(ServeRequestError) as exc:
                client.run("NotAZooModel")
            assert exc.value.error_type == "unknown_model"
            with pytest.raises(ServeRequestError) as exc:
                client.run("Motivating", generator="llvm")
            assert exc.value.error_type == "unknown_generator"
            with pytest.raises(ServeRequestError) as exc:
                client.run("Motivating", steps=-3)
            assert exc.value.error_type == "bad_request"
            # The connection survives typed errors.
            assert client.ping()["pong"] is True

    def test_malformed_line_gets_bad_request(self, server):
        with socket.create_connection(("127.0.0.1", server.server.port),
                                      timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile("rb").readline())
            assert reply["ok"] is False
            assert reply["error"]["type"] == "bad_request"

    def test_timeout_is_typed_and_pool_recovers(self, tmp_path):
        config = ServeConfig(workers=1, cache_dir=str(tmp_path / "c"),
                             timeout_seconds=1.0, allow_debug=True)
        with ServerThread(config) as thread:
            with ServeClient(port=thread.server.port) as client:
                with pytest.raises(ServeRequestError) as exc:
                    client.request("sleep", seconds=20)
                assert exc.value.error_type == "timeout"
                # The killed worker was replaced; service continues.
                result = client.run("Motivating", include_outputs=False)
                assert result["model"] == "Convolution"
                snapshot = client.metrics(render=False)["snapshot"]
                events = {r["labels"]["event"]: r["value"]
                          for r in snapshot["pool_events_total"]}
                assert events.get("timed_out") == 1
                assert events.get("spawned") == 2

    def test_loop_serves_other_connections_during_a_respawn(
            self, tmp_path, monkeypatch):
        # The kill of a timed-out worker blocks until released: the ping
        # and the run below can only answer if it runs off the event loop.
        from repro.serve import pool as pool_module
        killing, release = threading.Event(), threading.Event()
        real_kill = pool_module._Worker.kill

        def blocked_kill(worker):
            killing.set()
            release.wait(60)
            real_kill(worker)

        monkeypatch.setattr(pool_module._Worker, "kill", blocked_kill)
        config = ServeConfig(workers=2, cache_dir=str(tmp_path / "c"),
                             timeout_seconds=30.0, allow_debug=True)
        outcome: list[str] = []
        with ServerThread(config) as thread:
            port = thread.server.port

            def timed_out() -> None:
                with ServeClient(port=port) as client:
                    try:
                        client.request("sleep", seconds=30,
                                       timeout_seconds=0.5)
                    except ServeRequestError as exc:
                        outcome.append(exc.error_type)

            victim = threading.Thread(target=timed_out)
            victim.start()
            try:
                assert killing.wait(20), "the timed-out worker was not killed"
                with ServeClient(port=port, timeout=20,
                                 retry_resets=False) as client:
                    assert client.ping()["pong"] is True
                    result = client.run("Motivating", include_outputs=False)
                    assert result["model"] == "Convolution"
                assert victim.is_alive() and not outcome
            finally:
                release.set()
                victim.join(30)
        assert outcome == ["timeout"]

    def test_restart_serves_compile_from_artifact_cache(self, tmp_path):
        cache_dir = str(tmp_path / "persistent")
        config = ServeConfig(workers=1, cache_dir=cache_dir)

        with ServerThread(config) as thread:
            with ServeClient(port=thread.server.port) as client:
                cold = client.compile("Simpson", generator="frodo")
                snapshot = client.metrics(render=False)["snapshot"]
                assert snapshot["artifact_cache_hit_rate"] == 0.0

        # Full restart: new server process state, same cache directory.
        with ServerThread(ServeConfig(workers=1,
                                      cache_dir=cache_dir)) as thread:
            with ServeClient(port=thread.server.port) as client:
                warm = client.compile("Simpson", generator="frodo")
                assert warm["model_fingerprint"] == cold["model_fingerprint"]
                assert warm["stats"] == cold["stats"]
                snapshot = client.metrics(render=False)["snapshot"]
                # Served without re-running codegen: pure artifact hit.
                assert snapshot["artifact_cache_hit_rate"] == 1.0

    def test_run_after_restart_executes_cached_program(self, tmp_path):
        cache_dir = str(tmp_path / "persistent")
        with ServerThread(ServeConfig(workers=1,
                                      cache_dir=cache_dir)) as thread:
            with ServeClient(port=thread.server.port) as client:
                before = client.run("Motivating", steps=3, seed=11,
                                    include_outputs=False)
        with ServerThread(ServeConfig(workers=1,
                                      cache_dir=cache_dir)) as thread:
            with ServeClient(port=thread.server.port) as client:
                after = client.run("Motivating", steps=3, seed=11,
                                   include_outputs=False)
                assert after["output_sha256"] == before["output_sha256"]
                assert after["counts"] == before["counts"]

    def test_http_shim(self, server):
        port = server.server.port
        base = f"http://127.0.0.1:{port}"
        assert urllib.request.urlopen(f"{base}/healthz").read() == b"ok\n"

        body = json.dumps({"op": "run", "model": "Motivating",
                           "include_outputs": False}).encode()
        req = urllib.request.Request(f"{base}/rpc", data=body)
        reply = json.loads(urllib.request.urlopen(req).read())
        assert reply["ok"] is True
        assert reply["result"]["model"] == "Convolution"

        metrics = urllib.request.urlopen(f"{base}/metrics").read().decode()
        assert "requests_total" in metrics
        assert 'connections_total{transport="http"}' in metrics

        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{base}/nope")
        assert exc.value.code == 404

    def test_payload_upload_over_socket(self, server, tmp_path):
        from repro.model.slx import save_slx
        from repro.zoo import build_model
        path = save_slx(build_model("Simpson"), tmp_path / "m.slx")
        with ServeClient(port=server.server.port) as client:
            uploaded = client.request(
                "run", include_outputs=False,
                **ServeClient.payload_fields(path))
            named = client.run("Simpson", include_outputs=False)
            assert uploaded["output_sha256"] == named["output_sha256"]

    def test_decompression_bomb_upload_is_typed(self, server, tmp_path):
        import zipfile
        from repro.model.slx import BLOCKDIAGRAM_PATH, MAX_BLOCKDIAGRAM_BYTES
        path = tmp_path / "bomb.slx"
        chunk = b" " * (1 << 20)
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
            with archive.open(BLOCKDIAGRAM_PATH, "w") as member:
                for _ in range(MAX_BLOCKDIAGRAM_BYTES // len(chunk)):
                    member.write(chunk)
                member.write(b" ")
        with ServeClient(port=server.server.port) as client:
            with pytest.raises(ServeRequestError) as exc:
                client.request("run", include_outputs=False,
                               **ServeClient.payload_fields(path))
            assert exc.value.error_type == "invalid_model"
            assert "limit" in str(exc.value)
            # the worker that saw the bomb still answers
            assert client.run("Motivating", include_outputs=False)[
                "output_sha256"]

    def test_shutdown_op_stops_server(self, tmp_path):
        config = ServeConfig(workers=1, cache_dir=str(tmp_path / "c"))
        thread = ServerThread(config)
        port = thread.start()
        try:
            with ServeClient(port=port) as client:
                assert client.shutdown() == {"stopping": True}
            thread._thread.join(timeout=20)
            assert not thread._thread.is_alive()
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", port), timeout=2)
        finally:
            thread.stop()

    def test_concurrent_connections(self, server):
        port = server.server.port
        shas: list[str] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def one_client() -> None:
            try:
                with ServeClient(port=port) as client:
                    for _ in range(3):
                        result = client.run("Motivating", steps=1,
                                            include_outputs=False)
                        with lock:
                            shas.append(result["output_sha256"])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=one_client) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(set(shas)) == 1 and len(shas) == 12
