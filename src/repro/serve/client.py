"""Synchronous client for the serve protocol.

Used by the test suite, the benchmark harness, ``frodo submit``, and the
CI smoke job (``python -m repro.serve.client --self-test``).  One client
owns one TCP connection and issues requests in order; open several
clients for concurrency (the server multiplexes connections, not
requests within a connection).
"""

from __future__ import annotations

import base64
import json
import socket
import sys
from pathlib import Path
from typing import Any

from repro.serve.protocol import MAX_LINE_BYTES, encode


class ServeRequestError(Exception):
    """Server answered with a typed error (``ok: false``)."""

    def __init__(self, error_type: str, message: str):
        super().__init__(f"[{error_type}] {message}")
        self.error_type = error_type
        self.message = message


class ServeClient:
    """Line-delimited JSON client; context-manager friendly."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7433,
                 timeout: float = 120.0, retry_resets: bool = True):
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Reconnect and retry once when the connection drops mid-request.
        #: A draining shard (cluster rolling restart) closes its listener
        #: between requests; every op is idempotent, so one transparent
        #: retry turns that into a non-event for callers.
        self.retry_resets = retry_resets
        self._sock: socket.socket | None = None
        self._file = None
        self._next_id = 0

    # -- connection --------------------------------------------------------

    def connect(self) -> "ServeClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
            self._file = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- raw request/response ---------------------------------------------

    def request_raw(self, op: str, **fields: Any) -> dict:
        """Send one request, return the full response object.

        With ``retry_resets`` (the default), a connection reset before a
        reply arrives is retried exactly once on a fresh connection —
        the window a draining shard leaves open during a cluster rolling
        restart.  A reset on the retry propagates.
        """
        self._next_id += 1
        req = {"id": self._next_id, "op": op, **fields}
        line = encode(req)
        attempts = 2 if self.retry_resets else 1
        for attempt in range(attempts):
            try:
                self.connect()
                assert self._sock is not None and self._file is not None
                self._sock.sendall(line)
                reply = self._file.readline(MAX_LINE_BYTES)
                if not reply:
                    raise ConnectionError("server closed the connection")
            except (ConnectionError, BrokenPipeError, OSError) as exc:
                self.close()
                # Timeouts are not resets: the server may still be
                # working on the request — retrying would double-submit
                # the wait, not recover a drop.
                if isinstance(exc, TimeoutError) \
                        or attempt + 1 >= attempts:
                    raise
                continue
            resp = json.loads(reply)
            if resp.get("id") not in (None, self._next_id):
                self.close()
                raise ConnectionError(
                    f"response id {resp.get('id')!r} does not match request "
                    f"id {self._next_id}")
            return resp
        raise ConnectionError("unreachable")  # pragma: no cover

    def request(self, op: str, **fields: Any) -> dict:
        """Send one request, return ``result``; raise on typed errors."""
        resp = self.request_raw(op, **fields)
        if resp.get("ok"):
            return resp["result"]
        error = resp.get("error", {})
        raise ServeRequestError(error.get("type", "internal"),
                                error.get("message", "unknown error"))

    # -- op wrappers -------------------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def compile(self, model: str | None = None, generator: str = "frodo",
                **fields: Any) -> dict:
        return self.request("compile", model=model, generator=generator,
                            **fields)

    def run(self, model: str | None = None, generator: str = "frodo",
            backend: str = "auto", steps: int = 1, seed: int = 0,
            **fields: Any) -> dict:
        return self.request("run", model=model, generator=generator,
                            backend=backend, steps=steps, seed=seed,
                            **fields)

    def run_batch(self, model: str | None = None, generator: str = "frodo",
                  backend: str = "auto", steps: int = 1,
                  instances: list | int = 2, **fields: Any) -> dict:
        """Batched execution: ``instances`` is a list of per-instance
        objects (``seed``/``inputs``/``include_outputs``), or an int N as
        shorthand for N seeded instances 0..N-1."""
        if isinstance(instances, int):
            instances = [{"seed": s} for s in range(instances)]
        return self.request("run_batch", model=model, generator=generator,
                            backend=backend, steps=steps,
                            instances=instances, **fields)

    def ranges(self, model: str | None = None, **fields: Any) -> dict:
        return self.request("ranges", model=model, **fields)

    def report(self, model: str | None = None, **fields: Any) -> dict:
        return self.request("report", model=model, **fields)

    def metrics(self, render: bool = True) -> dict:
        return self.request("metrics", render=render)

    def shutdown(self) -> dict:
        return self.request("shutdown")

    # -- uploads -----------------------------------------------------------

    @staticmethod
    def payload_fields(path: str | Path) -> dict:
        """Build ``model_payload``/``model_format`` fields from a file."""
        path = Path(path)
        fmt = "mdl" if path.suffix == ".mdl" else "slx"
        return {"model_payload": base64.b64encode(path.read_bytes()).decode(),
                "model_format": fmt}

    # -- smoke test --------------------------------------------------------

    def self_test(self, model: str = "Motivating",
                  generator: str = "frodo") -> list[tuple[str, bool, str]]:
        """End-to-end smoke checks against a live server.

        Returns ``(name, passed, detail)`` rows; used by the CI smoke job
        via ``python -m repro.serve.client --self-test``.
        """
        checks: list[tuple[str, bool, str]] = []

        def check(name: str, passed: bool, detail: str = "") -> None:
            checks.append((name, bool(passed), detail))

        pong = self.ping()
        check("ping", pong.get("pong") is True, str(pong))
        compiled = self.compile(model, generator=generator)
        check("compile", compiled["generator"] == generator,
              f"stats={compiled['stats']}")
        first = self.run(model, generator=generator, steps=2,
                         include_outputs=False)
        second = self.run(model, generator=generator, steps=2,
                          include_outputs=False)
        check("run deterministic",
              first["output_sha256"] == second["output_sha256"],
              first["output_sha256"][:16])
        ranges = self.ranges(model)
        check("ranges", ranges["model"] == compiled["model"]
              and len(ranges["blocks"]) > 0,
              f"{ranges['optimizable_blocks']} optimizable")
        batch = self.run_batch(model, generator=generator, steps=2,
                               instances=[{"seed": 0,
                                           "include_outputs": False},
                                          {"seed": 7,
                                           "include_outputs": False},
                                          {"seed": 0,
                                           "include_outputs": False}])
        rows = batch["results"]
        check("run_batch executes all instances",
              batch["executed"] == 3 and all(r.get("ok") for r in rows),
              f"executed={batch.get('executed')}")
        check("run_batch per-instance outputs",
              rows[0]["output_sha256"] == rows[2]["output_sha256"]
              and rows[0]["output_sha256"] == first["output_sha256"]
              and rows[0]["output_sha256"] != rows[1]["output_sha256"],
              rows[0]["output_sha256"][:16])
        # Concurrent identical runs from independent connections: the
        # coalescer (when enabled server-side) merges them into batched
        # worker calls; either way every reply must match the sequential
        # result bit-for-bit.
        import threading
        shas: list = [None] * 8

        def _one(slot: int) -> None:
            with ServeClient(self.host, self.port,
                             timeout=self.timeout) as peer:
                result = peer.run(model, generator=generator, steps=2,
                                  include_outputs=False)
                shas[slot] = result["output_sha256"]

        threads = [threading.Thread(target=_one, args=(i,))
                   for i in range(len(shas))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        occupancy = [row for row in
                     self.metrics()["snapshot"]["batch_occupancy"]]
        max_occ = occupancy[0]["max_seconds"] if occupancy else 0
        check("concurrent runs identical",
              all(s == first["output_sha256"] for s in shas),
              f"8 clients, max batch occupancy {max_occ:g}")
        traced = self.run(model, generator=generator, steps=1,
                          include_outputs=False, trace=True)

        def _span_names(nodes) -> set:
            names: set = set()
            stack = list(nodes)
            while stack:
                node = stack.pop()
                names.add(node.get("name"))
                stack.extend(node.get("children", ()))
            return names

        names = _span_names(traced.get("trace", ()))
        check("trace spans cover the pipeline",
              "request" in names and "worker.handle" in names
              and any(n and n.startswith("vm.") for n in names),
              ",".join(sorted(n for n in names if n)))
        try:
            self.run("NoSuchModelZZZ")
            check("typed unknown_model error", False, "no error raised")
        except ServeRequestError as exc:
            check("typed unknown_model error",
                  exc.error_type == "unknown_model", exc.error_type)
        snap = self.metrics()["snapshot"]
        total_requests = sum(row["value"]
                             for row in snap["requests_total"])
        check("metrics counted requests", total_requests >= 5,
              f"{total_requests} requests")
        # Drain resilience: sabotage our own connection and rely on the
        # reset-retry path to reconnect — what a shard drain during a
        # cluster rolling restart looks like from the outside.
        if self.retry_resets and self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            pong = self.ping()
            check("retries through connection reset",
                  pong.get("pong") is True,
                  "reconnected after mid-session socket shutdown")
        return checks


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.serve.client``: one-shot requests / self-test."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="repro.serve.client",
        description="one-shot client for a running frodo serve instance")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7433)
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the end-to-end smoke checks and exit")
    parser.add_argument("op", nargs="?", help="operation to submit")
    parser.add_argument("model", nargs="?", default=None)
    args = parser.parse_args(argv)

    with ServeClient(args.host, args.port, timeout=args.timeout) as client:
        if args.self_test:
            checks = client.self_test()
            failed = [c for c in checks if not c[1]]
            for name, passed, detail in checks:
                print(f"{'PASS' if passed else 'FAIL'} {name:32s} {detail}")
            print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
            return 1 if failed else 0
        if not args.op:
            parser.error("need an op (or --self-test)")
        fields = {"model": args.model} if args.model else {}
        result = client.request(args.op, **fields)
        print(json.dumps(result, indent=2))
        return 0


if __name__ == "__main__":
    sys.exit(main())
