#!/usr/bin/env python3
"""The repository benchmark: ``frodo serve`` driven end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads, metrics and the layer map are described in ``BENCHMARK.json``
and ``perfbench/layers.json``.  The first run in a checkout prepares warm
caches and simulator-checked references (see ``prepare.py``).  Every run
prints an environment record, a few detail lines, and as its last line
one JSON object: ``{"correct", "attempted", "failed", "metrics"}`` with
the end-to-end metrics (``--trace 0``) or the per-layer ones
(``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import prepare  # noqa: E402
import workloads as wl  # noqa: E402

#: Servers started per untraced run.  Each start-up is timed (``setup_s``
#: is their median) and then serves an equal share of the timed phase, so
#: one run averages over several server instances.
SESSIONS = 3


def log(message: str) -> None:
    print(f"perfbench: {message}", flush=True)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    import numpy
    from repro.native.compile import compiler_identity
    identity = compiler_identity()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "compiler": identity.path,
            "compiler_version_hash": identity.version_hash,
            "client_threads": harness.CLIENTS,
            "connections_per_client": harness.CONNECTIONS_PER_CLIENT,
            "server_workers": harness.SERVER_WORKERS}


def cells_for(workload: str, state) -> tuple[list, list]:
    """(timed cells, warm-up cells) of a workload."""
    if workload == "hot_native":
        return wl.hot_cells(), wl.warm_cells(workload)
    if workload == "long_sim":
        return wl.long_cells(), wl.warm_cells(workload)
    return state.pool[wl.COLD_WARMUP:], state.pool[:wl.COLD_WARMUP]


def start_server(workload: str, state, warm_cells: list,
                 attempt: int) -> tuple[harness.Server, float, int]:
    """Start a server the way the workload needs it and warm every worker.

    Returns (server, set-up seconds, failed warm-up checks).  Zoo
    workloads restart onto the prepared warm cache; ``cold_upload``
    starts on an empty one."""
    cache_dir = (state.warm_dir if workload != "cold_upload"
                 else state.scratch(f"cold-{attempt}"))
    t0 = time.perf_counter()
    server = harness.Server(ROOT, cache_dir)
    try:
        port = server.wait_listening()
        failed = harness.warm_workers(port, warm_cells, state.refs)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0, failed


#: The tail percentile: fixed, so that a faster program (more samples)
#: is not judged at a more extreme percentile, and low enough that every
#: workload leaves 20 or more samples beyond it in a run of run_seconds.
TAIL_PERCENTILE = 95.0


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """(latency at ``percentile``, samples beyond it)."""
    ordered = sorted(latencies)
    index = min(len(ordered) - 1,
                max(0, math.ceil(percentile / 100 * len(ordered)) - 1))
    return ordered[index], len(ordered) - 1 - index


def step_us(samples) -> float:
    """Geometric mean over cells of the median latency per step, in µs."""
    per_cell: dict = {}
    for s in samples:
        per_cell.setdefault(s.cell, []).append(s.latency / s.steps)
    return 1e6 * harness.geomean(statistics.median(v)
                                 for v in per_cell.values())


def end_to_end(workload: str, loops: list[harness.Loop],
               setups: list[float], rss_mb: list[float]) -> dict:
    samples = [s for loop in loops for s in loop.samples]
    ok = [s for s in samples if s.ok]
    if not ok:
        raise SystemExit("perfbench: no request of the timed phase passed "
                         "its check; nothing to measure")
    elapsed = sum(loop.elapsed for loop in loops)
    latencies = [s.latency for s in ok]
    tail_s, beyond = tail(latencies, TAIL_PERCENTILE)
    log(f"{len(samples)} timed requests in {elapsed:.2f}s over "
        f"{len(loops)} server(s); latency_tail_ms is p{TAIL_PERCENTILE:g} of "
        f"{len(ok)} samples, {beyond} beyond it")
    if beyond < 10:
        log("fewer than 10 samples lie beyond the tail percentile")
    if workload == "long_sim":
        for backend in ("native", "auto"):
            value = step_us(s for s in ok if f"|{backend}|" in s.cell)
            log(f"{backend}_step_us {value:.3f} (client latency per step, "
                f"geometric mean over (model, generator))")
    if any(loop.pool_exhausted for loop in loops):
        log("the upload pool ran out; the timed phase ended early")
    return {
        "setup_s": statistics.median(setups),
        "throughput_rps": len(ok) / elapsed,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_s,
        "success_share": len(ok) / len(samples),
        "server_rss_mb": statistics.median(rss_mb),
        "step_us": step_us(ok),
    }


def run_workload(state, workload: str, seed: int, seconds: float,
                 trace: bool, refs: dict | None = None) -> dict:
    """One benchmark run; returns the result object printed last.

    Untraced: ``SESSIONS`` servers in turn, each timed from start to warm
    and then driven for an equal share of ``seconds``.  Traced: one
    server, driven untraced and then traced for half of ``seconds`` each,
    followed by the in-process replay."""
    import traced
    refs = state.refs if refs is None else refs
    timed_cells, warm_cells = cells_for(workload, state)
    walks = wl.client_walks(workload, seed, timed_cells, harness.CLIENTS)
    setups: list[float] = []
    rss_mb: list[float] = []
    loops: list[harness.Loop] = []
    warm_failed = 0
    for session in range(1 if trace else SESSIONS):
        server, took, failed = start_server(workload, state, warm_cells,
                                            session)
        setups.append(took)
        warm_failed += failed
        try:
            if trace:
                for traced_phase in (False, True):
                    loops.append(harness.closed_loop(
                        server.port, walks, refs, seconds / 2,
                        trace=traced_phase, keep=True))
            else:
                loops.append(harness.closed_loop(server.port, walks, refs,
                                                 seconds / SESSIONS))
            rss_mb.append(server.rss_mb())
        finally:
            server.stop()

    attempted = sum(len(loop.samples) for loop in loops)
    failed = sum(not s.ok for loop in loops for s in loop.samples)
    if trace:
        report = traced.Report()
        metrics = traced.serve_layers(loops[0], loops[1], report)
        layers, replayed, replay_failed = traced.replay(state, seed, report)
        metrics.update(layers)
        attempted += replayed
        failed += replay_failed
        for line in report.lines():
            print(f"perfbench trace: {line}")
        out = state.path / "traces" / f"{workload}-seed{seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"summary": report.rows(),
                                   "replay_spans": report.spans}))
        log(f"trace report written to {out.relative_to(ROOT)}")
        wanted = spec()["per_layer"]
    else:
        metrics = end_to_end(workload, loops, setups, rss_mb)
        wanted = spec()["end_to_end"]
    if warm_failed:
        log(f"{warm_failed} warm-up responses failed their check")
    shutil.rmtree(state.run_dir, ignore_errors=True)
    return {"correct": failed == 0 and warm_failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="short check of the benchmark itself")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds like an exception, so every started server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    harness.become_subreaper()
    prepare.require_toolchain()
    print("perfbench env: " + json.dumps(environment(), sort_keys=True),
          flush=True)
    state = prepare.load_or_prepare(ROOT, log)
    if args.self_test:
        import selftest
        return selftest.run(state, run_workload, spec())
    result = run_workload(state, args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
