"""Cluster benchmark: shard scaling, cold-compile dedup, kill recovery.

Writes ``BENCH_cluster.json`` — the fleet-level companion to
``BENCH_serve.json``.  Three sections, each against a real
``ClusterSupervisor`` (store thread + shard subprocesses + router):

* **scaling** — the *same* hot-fingerprint workload (a fixed set of
  corpus specs, warmed, coalescing off) swept closed-loop against 1, 2,
  4 and 8 shards, best-of-``repeats``.  On a single-core host the
  per-request CPU cost is constant whatever the shard count, so the
  honest expectation is *flat-to-monotone* throughput, not linear
  speedup; the section records a tolerance-based monotonic flag (every
  1→4-shard cell ≥ 0.95× the single-shard baseline — sharding must
  never cost hot-path throughput).  The **sleep-op concurrency curve**
  subsection is the architectural evidence: ``sleep`` holds a worker
  without using CPU, so its closed-loop throughput scales with the
  fleet's worker count even on one core — demonstrating the router
  actually spreads concurrent load over independent shards.
* **dedup** — a fresh store, N distinct fingerprints swept through the
  router: the fleet's merged artifact-miss count must equal the number
  of distinct fingerprints (each compiled exactly once, wherever it
  hashed).  Then one shard is drained away *without* replacement and
  the sweep repeats: the survivors inherit its slice and serve it from
  the shared store with **zero new compiles**.
* **kill_recovery** — sustained mixed traffic while one shard is
  SIGKILLed mid-flight; the router's ring-order retry plus the
  supervisor respawn must deliver **zero failed requests**.

Run via ``python benchmarks/bench_serve.py --cluster`` or
``frodo bench-serve --cluster`` (``--quick`` shrinks shard counts and
request volumes for CI).
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.serve.bench import _closed_loop, _latency_summary

#: Shard counts the scaling section sweeps.
DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)
QUICK_SHARD_COUNTS = (1, 2)

#: Fixed hot workload: identical across every shard count so the rows
#: are comparable.  Small corpus programs keep the per-request cost low
#: enough that routing overhead is visible at all.
HOT_SPECS = tuple(f"corpus:{seed}:3" for seed in range(8))

#: Per-step throughput tolerance for the monotonic flag: run-to-run
#: jitter on a loaded host must not read as a scaling regression.
MONOTONIC_TOLERANCE = 0.95


@contextmanager
def _cluster(shards: int, root: str, workers_per_shard: int = 1,
             allow_debug: bool = False, max_batch: int = 1,
             respawn: bool = True):
    from repro.serve.cluster import ClusterConfig, ClusterSupervisor
    from repro.serve.server import ServeConfig
    config = ClusterConfig(
        shards=shards,
        template=ServeConfig(timeout_seconds=120.0, max_pending=64,
                             allow_debug=allow_debug, max_batch=max_batch),
        workers_per_shard=workers_per_shard, root=root, respawn=respawn)
    supervisor = ClusterSupervisor(config)
    port = supervisor.start()
    try:
        yield supervisor, port
    finally:
        supervisor.stop()


def _warm(port: int, specs: tuple[str, ...], generator: str,
          steps: int) -> None:
    from repro.serve.client import ServeClient
    with ServeClient(port=port) as client:
        for spec in specs:
            for _ in range(2):  # artifact cache + warm table on the home shard
                client.run(spec, generator=generator, steps=steps,
                           include_outputs=False)


def _shard_miss_counts(snapshot: dict) -> dict[str, int]:
    """Per-shard artifact-miss counters from a merged snapshot."""
    counts: dict[str, int] = {}
    for row in snapshot.get("cache_events_total", ()):
        labels = row.get("labels", {})
        if (labels.get("cache") == "artifact"
                and labels.get("event") == "miss"):
            counts[labels.get("shard", "")] = \
                counts.get(labels.get("shard", ""), 0) + int(row["value"])
    return counts


# -- scaling -------------------------------------------------------------------


#: Extra interleaved measurement rounds allowed when the monotonic flag
#: would fail — the same retry-on-noise policy as ``tools/perf_gate.py``.
RESCUE_ROUNDS = 2


def bench_scaling(root: str, shard_counts, specs: tuple[str, ...],
                  generator: str, steps: int, concurrency: int,
                  requests_per_client: int, repeats: int = 2) -> dict:
    shard_counts = list(shard_counts)
    best: dict[int, dict] = {}

    def measure_round(tag: int) -> None:
        # Interleaved: one cell per shard count per round, so slow drift
        # in machine state biases every count equally instead of
        # penalising whichever count happened to run last.
        for n in shard_counts:
            with _cluster(n, f"{root}/scale-{n}-{tag}") as (_, port):
                _warm(port, specs, generator, steps)
                run = _closed_loop(port, specs, generator, steps,
                                   concurrency, requests_per_client)
            if n not in best or (run["throughput_rps"] or 0) \
                    > (best[n]["throughput_rps"] or 0):
                best[n] = run

    def flag() -> bool:
        # The acceptance window is 1→4 shards; the flag is measured
        # against the single-shard baseline (not step-to-step) so that
        # run-to-run scheduler noise between two multi-shard cells on a
        # core-starved host cannot fail a fleet that never drops below
        # what one shard delivers.  Real parallel speedup shows in
        # scaling_vs_1_shard and in the sleep-op curve.
        base = best[shard_counts[0]].get("throughput_rps") or 1.0
        return all((best[n].get("throughput_rps") or 0.0)
                   >= MONOTONIC_TOLERANCE * base
                   for n in shard_counts if n <= 4)

    for rep in range(repeats):
        measure_round(rep)
    # A closed-loop cell on a loaded host is noise-bound; re-measure all
    # cells (keeping per-cell bests) before declaring a real violation.
    rescues = 0
    while not flag() and rescues < RESCUE_ROUNDS:
        measure_round(repeats + rescues)
        rescues += 1

    rows = []
    base = best[shard_counts[0]].get("throughput_rps") or 1.0
    for n in shard_counts:
        rps = best[n].get("throughput_rps") or 0.0
        rows.append({"shards": n, **best[n],
                     "scaling_vs_1_shard": round(rps / base, 3)
                     if base else None})
    return {
        "workload": {"specs": list(specs), "steps": steps,
                     "concurrency": concurrency,
                     "requests_per_client": requests_per_client,
                     "repeats": repeats, "coalescing": "off"},
        "rows": rows,
        "monotonic_1_to_4": flag(),
        "tolerance": MONOTONIC_TOLERANCE,
        "rescue_rounds": rescues,
    }


def bench_sleep_curve(root: str, shard_counts, concurrency: int,
                      requests_per_client: int,
                      sleep_seconds: float = 0.05) -> dict:
    """Closed-loop ``sleep`` throughput vs shard count.

    Sleep holds a worker slot without CPU, so — unlike model execution
    on a single-core host — throughput here genuinely tracks the
    fleet's aggregate worker count.  ``sleep`` carries no model, so the
    router spreads it round-robin.
    """
    from repro.serve.client import ServeClient
    rows = []
    for n in shard_counts:
        with _cluster(n, f"{root}/sleep-{n}", allow_debug=True) as (_, port):
            latencies: list[float] = []
            errors = [0]
            lock = threading.Lock()

            def loop() -> None:
                with ServeClient(port=port) as client:
                    for _ in range(requests_per_client):
                        t0 = time.perf_counter()
                        try:
                            client.request("sleep", seconds=sleep_seconds)
                        except Exception:
                            with lock:
                                errors[0] += 1
                        with lock:
                            latencies.append(time.perf_counter() - t0)

            threads = [threading.Thread(target=loop)
                       for _ in range(concurrency)]
            wall0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - wall0
        total = len(latencies)
        rows.append({
            "shards": n,
            "requests": total,
            "errors": errors[0],
            "throughput_rps": round(total / wall, 2) if wall else None,
            "ideal_rps": round(min(concurrency, n) / sleep_seconds, 2),
            "latency": _latency_summary(latencies),
        })
    base = rows[0].get("throughput_rps") or 1.0
    for row in rows:
        rps = row.get("throughput_rps") or 0.0
        row["scaling_vs_1_shard"] = round(rps / base, 3) if base else None
    return {"sleep_seconds": sleep_seconds, "concurrency": concurrency,
            "rows": rows}


# -- cold-compile dedup --------------------------------------------------------


def bench_dedup(root: str, shards: int, fingerprints: int, generator: str,
                steps: int) -> dict:
    """Distinct fingerprints compile once *fleet-wide*, and survivors of
    a drained shard serve its slice from the store with no new compiles.
    """
    from repro.serve.client import ServeClient
    specs = tuple(f"corpus:{seed}:3" for seed in range(fingerprints))
    with _cluster(shards, f"{root}/dedup", respawn=False) as (sup, port):
        with ServeClient(port=port) as client:
            for spec in specs:
                client.run(spec, generator=generator, steps=steps,
                           include_outputs=False)
            before = _shard_miss_counts(
                client.metrics(render=False)["snapshot"])
            cold_compiles = sum(before.values())
            # Retire one shard for good: its slice re-hashes to the
            # survivors, which must find every artifact in the store.
            drained = next(iter(sup.shard_ports()))
            sup.drain_shard(drained, respawn=False)
            for spec in specs:
                client.run(spec, generator=generator, steps=steps,
                           include_outputs=False)
            after = _shard_miss_counts(
                client.metrics(render=False)["snapshot"])
        store_counts = dict(sup.store.counts) if sup.store else {}
    # The drained shard's rows leave the merged view with it; new misses
    # are survivor-side deltas only.
    new_misses = sum(max(0, after.get(shard, 0) - before.get(shard, 0))
                     for shard in after)
    return {
        "shards": shards,
        "distinct_fingerprints": len(specs),
        "cold_compiles": cold_compiles,
        "dedup_exact": cold_compiles == len(specs),
        "drained_shard": drained,
        "resweep_new_compiles": new_misses,
        "served_from_store_after_drain": new_misses == 0,
        "store_counts": store_counts,
    }


# -- shard-kill recovery -------------------------------------------------------


def bench_kill_recovery(root: str, shards: int, specs: tuple[str, ...],
                        generator: str, steps: int, concurrency: int,
                        duration_seconds: float = 6.0,
                        kill_after_seconds: float = 1.5) -> dict:
    from repro.serve.client import ServeClient
    with _cluster(shards, f"{root}/kill") as (sup, port):
        _warm(port, specs, generator, steps)
        stop = threading.Event()
        counts = [0] * concurrency
        errors: list[list[str]] = [[] for _ in range(concurrency)]

        def loop(slot: int) -> None:
            with ServeClient(port=port) as client:
                i = 0
                while not stop.is_set():
                    spec = specs[(slot + i) % len(specs)]
                    i += 1
                    try:
                        client.run(spec, generator=generator, steps=steps,
                                   include_outputs=False)
                        counts[slot] += 1
                    except Exception as exc:  # noqa: BLE001 — count, report
                        errors[slot].append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=loop, args=(slot,))
                   for slot in range(concurrency)]
        for t in threads:
            t.start()
        time.sleep(kill_after_seconds)
        victim = sup.router.server.ring.node(f"model:{specs[0]}") \
            if sup.router and sup.router.server else "s0"
        spawn_count = sup._find(victim).spawn_count
        kill_t0 = time.perf_counter()
        sup.kill_shard(victim)
        respawned = sup.wait_shard_respawn(victim, spawn_count, timeout=60)
        respawn_seconds = time.perf_counter() - kill_t0
        time.sleep(max(duration_seconds - kill_after_seconds
                       - respawn_seconds, 1.0))
        stop.set()
        for t in threads:
            t.join()
    flat_errors = [e for per in errors for e in per]
    return {
        "shards": shards,
        "concurrency": concurrency,
        "killed_shard": victim,
        "requests_completed": sum(counts),
        "failed_requests": len(flat_errors),
        "zero_failures": not flat_errors,
        "errors_sample": flat_errors[:5],
        "respawned": respawned,
        "respawn_seconds": round(respawn_seconds, 3),
    }


# -- entry points --------------------------------------------------------------


def run_bench(shard_counts=DEFAULT_SHARD_COUNTS,
              specs: tuple[str, ...] = HOT_SPECS, generator: str = "frodo",
              steps: int = 1, concurrency: int = 8,
              requests_per_client: int = 20, repeats: int = 2,
              dedup_fingerprints: int = 6, root: str | None = None) -> dict:
    owned_tmp = None
    if root is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="bench-cluster-")
        root = owned_tmp.name
    try:
        scaling = bench_scaling(root, shard_counts, specs, generator, steps,
                                concurrency, requests_per_client,
                                repeats=repeats)
        sleep_curve = bench_sleep_curve(
            root, shard_counts, concurrency=concurrency,
            requests_per_client=max(requests_per_client // 2, 5))
        dedup = bench_dedup(root, shards=min(max(shard_counts), 4),
                            fingerprints=dedup_fingerprints,
                            generator=generator, steps=steps)
        kill = bench_kill_recovery(root, shards=min(max(shard_counts), 4),
                                   specs=specs[:4], generator=generator,
                                   steps=steps,
                                   concurrency=max(concurrency // 2, 4))
    finally:
        if owned_tmp is not None:
            owned_tmp.cleanup()
    import os
    return {
        "benchmark": "serve-cluster",
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "shard_counts": list(shard_counts),
            "specs": list(specs),
            "generator": generator,
            "steps": steps,
            "concurrency": concurrency,
            "requests_per_client": requests_per_client,
        },
        "scaling": scaling,
        "sleep_curve": sleep_curve,
        "dedup": dedup,
        "kill_recovery": kill,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_cluster",
        description="sharded-serving benchmark "
                    "(BENCH_cluster.json trajectory)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer shards and requests")
    parser.add_argument("--output", default=None,
                        help="output JSON path "
                             "(default: <repo>/BENCH_cluster.json)")
    parser.add_argument("--generator", default="frodo")
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--requests", type=int, default=20,
                        help="scaling-phase requests per client")
    parser.add_argument("--repeats", type=int, default=2,
                        help="best-of-N repeats per shard count")
    args = parser.parse_args(argv)

    if args.quick:
        shard_counts = QUICK_SHARD_COUNTS
        concurrency = min(args.concurrency, 4)
        requests = min(args.requests, 6)
        repeats = 1
        dedup_fingerprints = 4
    else:
        shard_counts = DEFAULT_SHARD_COUNTS
        concurrency = args.concurrency
        requests = args.requests
        repeats = args.repeats
        dedup_fingerprints = 6

    result = run_bench(shard_counts=shard_counts, generator=args.generator,
                       concurrency=concurrency,
                       requests_per_client=requests, repeats=repeats,
                       dedup_fingerprints=dedup_fingerprints)
    result["quick"] = bool(args.quick)
    result["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")

    out_path = (Path(args.output) if args.output
                else Path(__file__).resolve().parents[3]
                / "BENCH_cluster.json")
    out_path.write_text(json.dumps(result, indent=2) + "\n")

    for row in result["scaling"]["rows"]:
        print(f"shards={row['shards']}: {row['throughput_rps']} req/s "
              f"(x{row['scaling_vs_1_shard']} vs 1 shard), "
              f"p95={row['latency']['p95_ms']}ms")
    print(f"hot throughput monotonic 1→4 (tol {MONOTONIC_TOLERANCE}): "
          f"{result['scaling']['monotonic_1_to_4']}")
    for row in result["sleep_curve"]["rows"]:
        print(f"sleep curve shards={row['shards']}: "
              f"{row['throughput_rps']} req/s "
              f"(ideal {row['ideal_rps']}, "
              f"x{row['scaling_vs_1_shard']} vs 1 shard)")
    dedup = result["dedup"]
    print(f"dedup: {dedup['cold_compiles']} cold compiles for "
          f"{dedup['distinct_fingerprints']} fingerprints "
          f"(exact={dedup['dedup_exact']}); after draining "
          f"{dedup['drained_shard']}: {dedup['resweep_new_compiles']} new "
          f"compiles (store-served={dedup['served_from_store_after_drain']})")
    kill = result["kill_recovery"]
    print(f"kill recovery: {kill['requests_completed']} requests through "
          f"SIGKILL of {kill['killed_shard']}, "
          f"{kill['failed_requests']} failed "
          f"(zero={kill['zero_failures']}), respawn "
          f"{kill['respawn_seconds']}s")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
