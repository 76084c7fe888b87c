"""A ``frodo serve`` subprocess and the closed-loop load generator.

The server runs with its default flags (2 workers, coalescing up to 8
requests with a 2 ms wait); only the port (ephemeral) and the cache
directory are set.  One load-generator process drives it through
``CLIENTS`` threads, each owning one connection and sending its next
request only after the previous reply arrived.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

CLIENTS = 2
CONNECTIONS_PER_CLIENT = 1
SERVER_WORKERS = 2  # the ``frodo serve`` default, asserted at start-up
#: Client-side deadline per request, well inside a run's time limit.
REQUEST_TIMEOUT = 60.0


class Server:
    """``python -m repro.cli serve`` in its own session, so that stopping
    it can also reap every worker it forked."""

    def __init__(self, root: Path, cache_dir: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", str(cache_dir)],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True)
        self.port: int | None = None
        self.announce = ""
        self.output: list[str] = []
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.output.append(line.rstrip())
            if self.port is None and "listening on" in line:
                address = line.split("listening on", 1)[1].split()[0]
                self.announce = line
                self.port = int(address.rsplit(":", 1)[1])
                self._listening.set()
        self._listening.set()

    def wait_listening(self, timeout: float = 60.0) -> int:
        if not self._listening.wait(timeout) or self.port is None:
            self.stop()
            raise RuntimeError("server did not start:\n"
                               + "\n".join(self.output[-20:]))
        if f"{SERVER_WORKERS} worker(s)" not in self.announce:
            self.stop()
            raise RuntimeError(f"unexpected server defaults: {self.announce}")
        return self.port

    def pids(self) -> list[int]:
        """The server and every process below it."""
        found, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            found.append(pid)
            try:
                children = Path(f"/proc/{pid}/task/{pid}/children").read_text()
            except OSError:
                continue
            todo.extend(int(c) for c in children.split())
        return found

    def rss_mb(self) -> float:
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmRSS:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None and self.port is not None:
            from repro.serve.client import ServeClient, ServeRequestError
            try:
                with ServeClient(port=self.port, timeout=10,
                                 retry_resets=False) as client:
                    client.shutdown()
                self.proc.wait(timeout=20)
            except (OSError, ValueError, ServeRequestError,
                    subprocess.TimeoutExpired):
                pass  # the process-group kill below ends it either way
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait(timeout=30)
        wait_group_gone(self.proc.pid)
        self._reader.join(timeout=10)


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``), so
    workers whose server died are reaped here rather than left to init."""
    import ctypes
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # waiting for the group below still works without it


def _group_members(pgid: int) -> dict[int, bool]:
    """Processes of group ``pgid``, each mapped to whether it has ended
    (is a zombie)."""
    members = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid:
            members[int(entry.name)] = fields[0] == "Z"
    return members


def wait_group_gone(pgid: int, timeout: float = 30.0) -> None:
    """Wait until every process of group ``pgid`` has ended, reaping those
    that were reparented here, and kill the group again meanwhile."""
    deadline = time.monotonic() + timeout
    while True:
        running = []
        for pid, ended in _group_members(pgid).items():
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    continue
            except ChildProcessError:
                pass  # not a child of this process
            if not ended:
                running.append(pid)
        if not running:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {running} of the server did not "
                               "end")
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        time.sleep(0.01)


def geomean(values) -> float:
    """Geometric mean of the positive ``values`` (0.0 when there are none)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Sample:
    cell: str
    steps: int
    latency: float
    ok: bool
    start: float = 0.0
    resp: dict | None = None


@dataclass
class Loop:
    """What one closed-loop phase observed."""

    samples: list[Sample] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    pool_exhausted: bool = False

    @property
    def elapsed(self) -> float:
        return max(self.ended - self.started, 1e-9)


def check(resp: dict, ref: dict | None) -> bool:
    """A response passes when it is ok and repeats the checked reference."""
    if not resp.get("ok") or ref is None or not ref["ok"]:
        return False
    result = resp["result"]
    return (result.get("output_sha256") == ref["sha"]
            and result.get("total_element_ops") == ref["ops"])


def _send(client, cell: dict, refs: dict, trace: bool, keep: bool) -> Sample:
    """One timed request; transport errors count as failed requests."""
    fields = wl.wire(cell)
    fields.pop("op")
    if trace:
        fields["trace"] = True
    t0 = time.perf_counter()
    try:
        resp = client.request_raw("run", **fields)
    except (OSError, ValueError) as exc:
        resp = {"ok": False, "error": {"type": "transport",
                                       "message": str(exc)}}
    latency = time.perf_counter() - t0
    cid = wl.cell_id(cell)
    return Sample(cid, cell["steps"], latency, check(resp, refs.get(cid)),
                  t0, resp if keep else None)


def closed_loop(port: int, walks: list, refs: dict, seconds: float,
                trace: bool = False, keep: bool = False) -> Loop:
    """Each client sends its walk's next cell as soon as the previous reply
    arrived, until ``seconds`` have passed.  ``keep`` retains every
    response (the traced phase reads their spans and meta)."""
    from repro.serve.client import ServeClient
    loop = Loop()
    per_client: list[list[Sample]] = [[] for _ in walks]
    # The barrier's action stamps the start once every client connected,
    # before any of them is released.
    barrier = threading.Barrier(
        len(walks) + 1,
        action=lambda: setattr(loop, "started", time.perf_counter()))
    errors: list[BaseException] = []

    def client_main(slot: int) -> None:
        out = per_client[slot]
        walk = walks[slot]
        try:
            with ServeClient(port=port, timeout=REQUEST_TIMEOUT) as client:
                barrier.wait()
                deadline = loop.started + seconds
                while time.perf_counter() < deadline:
                    cell = walk()
                    if cell is None:
                        loop.pool_exhausted = True
                        break
                    out.append(_send(client, cell, refs, trace, keep))
        except (OSError, threading.BrokenBarrierError) as exc:
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=client_main, args=(i,))
               for i in range(len(walks))]
    for t in threads:
        t.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a client could not connect; reported below
    for t in threads:
        t.join()
    if errors:
        raise RuntimeError(f"load generator failed: {errors[0]!r}")
    for out in per_client:
        loop.samples.extend(out)
    loop.ended = max((s.start + s.latency for s in loop.samples),
                     default=loop.started)
    return loop


#: Warm-up passes before giving up; after the first, a pass re-sends only
#: the cells some worker has not served yet.
WARM_ROUNDS = 20


def warm_workers(port: int, cells: list[dict], refs: dict) -> int:
    """Serve every cell on every worker once, outside any timed phase.

    Both clients send the same cell at the same moment with coalescing
    off, so the two requests land on the two workers; cells a worker has
    not served yet are re-sent until every (worker, cell) pair is warm.
    Returns the number of warm-up requests that failed their check.
    """
    from repro.serve.client import ServeClient
    seen: dict[str, set] = {wl.cell_id(c): set() for c in cells}
    workers: set = set()
    failed = 0
    clients = [ServeClient(port=port, timeout=REQUEST_TIMEOUT).connect()
               for _ in range(CLIENTS)]
    try:
        todo = list(cells)
        for _ in range(WARM_ROUNDS):
            for cell in todo:
                replies: list = [None] * CLIENTS

                def send(slot: int, cell=cell) -> None:
                    fields = wl.wire(cell)
                    fields.pop("op")
                    try:
                        replies[slot] = clients[slot].request_raw(
                            "run", coalesce=False, **fields)
                    except (OSError, ValueError):
                        replies[slot] = {"ok": False}

                threads = [threading.Thread(target=send, args=(i,))
                           for i in range(CLIENTS)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                cid = wl.cell_id(cell)
                for resp in replies:
                    if not check(resp, refs.get(cid)):
                        failed += 1
                    if not resp.get("ok"):
                        continue
                    pid = resp["meta"].get("worker_pid")
                    seen[cid].add(pid)
                    workers.add(pid)
            if len(workers) >= SERVER_WORKERS:
                todo = [c for c in cells
                        if len(seen[wl.cell_id(c)]) < SERVER_WORKERS]
                if not todo:
                    return failed
        raise RuntimeError("warm-up did not reach every worker")
    finally:
        for client in clients:
            client.close()
