"""Serving benchmark: throughput/latency vs worker count, cold vs warm.

Measures the three effects the serve subsystem exists to deliver:

* **worker scaling** — closed-loop throughput and latency percentiles of
  ``run`` requests across several pool sizes;
* **warm vs cold** — first-touch latency (model build + analysis +
  codegen + VM compile) against steady-state latency served from the
  per-worker warm tables;
* **restart persistence** — after a full server restart on the same
  cache directory, ``compile`` is answered from the on-disk artifact
  cache without re-running code generation;
* **request coalescing** — warm closed-loop throughput at high
  concurrency with the micro-batching queue enabled vs disabled
  (``max_batch=1``), plus the observed batch-occupancy distribution;
* **native serving** (when a C toolchain is present) — first
  ``backend="native"`` request pays the C compiler once, steady-state
  requests execute the cached ``.so``, and after a restart on the same
  cache directory the first native request dlopens the persisted
  shared object without re-running codegen *or* the compiler.

Writes ``BENCH_serve.json`` at the repo root so successive PRs can track
the serving trajectory alongside ``BENCH_vm.json``.  Run via
``frodo bench-serve`` or ``python benchmarks/bench_serve.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import tempfile
import threading
import time
from pathlib import Path

DEFAULT_WORKER_COUNTS = (1, 2, 4)
QUICK_WORKER_COUNTS = (1, 2)
DEFAULT_MODELS = ("Motivating", "AudioProcess")


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def _latency_summary(seconds: list[float]) -> dict:
    ordered = sorted(seconds)
    return {
        "count": len(ordered),
        "mean_ms": round(statistics.fmean(ordered) * 1e3, 3),
        "p50_ms": round(_percentile(ordered, 0.50) * 1e3, 3),
        "p95_ms": round(_percentile(ordered, 0.95) * 1e3, 3),
        "p99_ms": round(_percentile(ordered, 0.99) * 1e3, 3),
        "max_ms": round(ordered[-1] * 1e3, 3),
    }


def _closed_loop(port: int, models: tuple[str, ...], generator: str,
                 steps: int, concurrency: int,
                 requests_per_client: int, backend: str = "auto") -> dict:
    """``concurrency`` clients issuing ``run`` back-to-back; aggregate."""
    from repro.serve.client import ServeClient
    latencies: list[list[float]] = [[] for _ in range(concurrency)]
    errors = [0] * concurrency

    def client_loop(slot: int) -> None:
        with ServeClient(port=port) as client:
            for i in range(requests_per_client):
                model = models[(slot + i) % len(models)]
                t0 = time.perf_counter()
                try:
                    client.run(model, generator=generator, steps=steps,
                               backend=backend, include_outputs=False)
                except Exception:
                    errors[slot] += 1
                latencies[slot].append(time.perf_counter() - t0)

    threads = [threading.Thread(target=client_loop, args=(slot,))
               for slot in range(concurrency)]
    wall0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall0
    flat = [s for per_client in latencies for s in per_client]
    total = len(flat)
    return {
        "concurrency": concurrency,
        "requests": total,
        "errors": sum(errors),
        "wall_seconds": round(wall, 4),
        "throughput_rps": round(total / wall, 2) if wall else None,
        "latency": _latency_summary(flat),
    }


def bench_worker_count(workers: int, cache_dir: str,
                       models: tuple[str, ...], generator: str, steps: int,
                       concurrency: int, requests_per_client: int) -> dict:
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread
    config = ServeConfig(workers=workers, cache_dir=cache_dir,
                         timeout_seconds=120.0,
                         max_pending=max(64, concurrency * 2))
    with ServerThread(config) as server_thread:
        port = server_thread.server.port
        cold = {}
        with ServeClient(port=port) as client:
            for model in models:
                t0 = time.perf_counter()
                client.run(model, generator=generator, steps=steps,
                           include_outputs=False)
                cold[model] = round((time.perf_counter() - t0) * 1e3, 3)
        warm = _closed_loop(port, models, generator, steps, concurrency,
                            requests_per_client)
        with ServeClient(port=port) as client:
            snapshot = client.metrics(render=False)["snapshot"]
    return {
        "workers": workers,
        "cold_first_request_ms": cold,
        "warm": warm,
        "vm_cache_hit_rate": snapshot["vm_cache_hit_rate"],
        "artifact_cache_hit_rate": snapshot["artifact_cache_hit_rate"],
    }


def bench_coalescing(cache_dir: str, models: tuple[str, ...],
                     generator: str, steps: int, concurrency: int,
                     requests_per_client: int, max_batch: int = 16) -> dict:
    """Warm closed-loop throughput with the coalescer off vs on.

    Same workload twice at high concurrency: first against a server with
    ``max_batch=1`` (every run is its own worker call), then with the
    micro-batching queue enabled.  Reports both runs, the speedup, and
    the batch-occupancy distribution the coalescer actually achieved.
    """
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread
    rows = {}
    occupancy = None
    for label, batch in (("coalescing_off", 1), ("coalescing_on", max_batch)):
        config = ServeConfig(workers=2, cache_dir=cache_dir,
                             timeout_seconds=120.0,
                             max_pending=max(64, concurrency * 2),
                             max_batch=batch)
        with ServerThread(config) as server_thread:
            port = server_thread.server.port
            with ServeClient(port=port) as client:
                for model in models:  # warm caches out of the timed loop
                    client.run(model, generator=generator, steps=steps,
                               include_outputs=False)
            rows[label] = _closed_loop(port, models, generator, steps,
                                       concurrency, requests_per_client)
            if batch > 1:
                with ServeClient(port=port) as client:
                    snap = client.metrics(render=False)["snapshot"]
                occ = snap["batch_occupancy"]
                occupancy = occ[0] if occ else None
    off = rows["coalescing_off"]["throughput_rps"] or 1.0
    on = rows["coalescing_on"]["throughput_rps"] or 0.0
    return {
        "concurrency": concurrency,
        "max_batch": max_batch,
        **rows,
        "speedup": round(on / off, 2),
        "batch_occupancy": occupancy,
    }


def bench_corpus_diversity(cache_dir: str, n: int, generator: str,
                           steps: int, concurrency: int,
                           requests_per_client: int,
                           blocks: int = 12) -> dict:
    """Hot 2-model traffic vs ``n`` distinct generated fingerprints.

    Both workloads address models by ``corpus:<seed>:<blocks>`` spec, so
    every request resolves through the same generator path; the only
    difference is fingerprint diversity.  The hot phase round-robins two
    specs over fully warmed caches — the steady state the per-worker VM
    cache is built for.  The diverse phase round-robins ``n`` distinct
    specs with no pre-warming, so the first pass pays model generation,
    analysis, codegen, and VM construction per fingerprint and the cache
    hit rate reflects real churn.
    """
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread
    specs = tuple(f"corpus:{seed}:{blocks}" for seed in range(n))
    hot = specs[:2]
    config = ServeConfig(workers=2, cache_dir=cache_dir,
                         timeout_seconds=120.0,
                         max_pending=max(64, concurrency * 2))
    rows = {}
    with ServerThread(config) as server_thread:
        port = server_thread.server.port
        with ServeClient(port=port) as client:
            for spec in hot:  # warm the hot set out of the timed loop
                client.run(spec, generator=generator, steps=steps,
                           include_outputs=False)
        rows["hot"] = _closed_loop(port, hot, generator, steps,
                                   concurrency, requests_per_client)
        rows["diverse"] = _closed_loop(port, specs, generator, steps,
                                       concurrency, requests_per_client)
        with ServeClient(port=port) as client:
            snapshot = client.metrics(render=False)["snapshot"]
    hot_rps = rows["hot"]["throughput_rps"] or 1.0
    diverse_rps = rows["diverse"]["throughput_rps"] or 0.0
    return {
        "models": n,
        "blocks": blocks,
        "hot_models": len(hot),
        **rows,
        "diverse_vs_hot": round(diverse_rps / hot_rps, 2),
        "vm_cache_hit_rate": snapshot["vm_cache_hit_rate"],
    }


def bench_restart(cache_dir: str, models: tuple[str, ...],
                  generator: str) -> dict:
    """Fresh server on a populated cache dir: compile must skip codegen."""
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread
    config = ServeConfig(workers=1, cache_dir=cache_dir)
    with ServerThread(config) as server_thread:
        port = server_thread.server.port
        rows = {}
        all_hits = True
        with ServeClient(port=port) as client:
            for model in models:
                t0 = time.perf_counter()
                client.compile(model, generator=generator)
                elapsed = round((time.perf_counter() - t0) * 1e3, 3)
                rows[model] = elapsed
            snapshot = client.metrics(render=False)["snapshot"]
            hits = sum(r["value"] for r in snapshot["cache_events_total"]
                       if r["labels"] == {"cache": "artifact",
                                          "event": "hit"})
            all_hits = hits >= len(models)
    return {"compile_after_restart_ms": rows,
            "served_from_artifact_cache": bool(all_hits)}


def bench_native(cache_dir: str, models: tuple[str, ...], generator: str,
                 steps: int = 1) -> dict:
    """Native-backend serving: first build vs warm ``.so`` vs restart.

    Skipped (with a note in the report) when no C compiler is on PATH —
    the serve layer would answer every native request with a typed
    ``native_unavailable`` error, which is correct but not a benchmark.
    """
    from repro.native import find_compiler
    if find_compiler() is None:
        return {"skipped": "no C compiler on PATH"}
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread

    rows: dict[str, dict] = {}
    config = ServeConfig(workers=1, cache_dir=cache_dir,
                         timeout_seconds=600.0)
    with ServerThread(config) as server_thread:
        port = server_thread.server.port
        with ServeClient(port=port) as client:
            for model in models:
                t0 = time.perf_counter()
                result = client.run(model, generator=generator, steps=steps,
                                    backend="native", include_outputs=False)
                first = round((time.perf_counter() - t0) * 1e3, 3)
                t0 = time.perf_counter()
                client.run(model, generator=generator, steps=steps,
                           backend="native", include_outputs=False)
                warm = round((time.perf_counter() - t0) * 1e3, 3)
                rows[model] = {
                    "first_request_ms": first,
                    "warm_request_ms": warm,
                    "counts_exact": bool(result.get("counts_exact", True)),
                }
    # Fresh server on the same cache dir: the persisted .so must be
    # dlopened directly — no code generation, no C compiler invocation.
    with ServerThread(ServeConfig(workers=1, cache_dir=cache_dir)) as st:
        port = st.server.port
        with ServeClient(port=port) as client:
            for model in models:
                t0 = time.perf_counter()
                client.run(model, generator=generator, steps=steps,
                           backend="native", include_outputs=False)
                rows[model]["restart_first_request_ms"] = round(
                    (time.perf_counter() - t0) * 1e3, 3)
    return {"rows": rows}


def bench_adaptive(cache_dir: str, generator: str, steps: int,
                   concurrency: int, requests_per_client: int,
                   corpus_n: int = 6, blocks: int = 12,
                   hot_model: str = "Motivating") -> dict:
    """Tiered adaptive execution: cold-traffic safety + hot promotion.

    Two claims, measured separately:

    * **cold diverse corpus** — the adaptive tier must never make cold
      traffic worse: the same unwarmed ``corpus:<seed>:<blocks>`` sweep
      is served once by a vector-only server (``backend="vector"``) and
      once by an adaptive server (``backend="auto"``) running the
      *default* cost-seeded promotion policy.  Cold low-heat
      fingerprints never pay for their compile estimate, so the policy's
      guardrail is what's under test: no background compiles are
      spent on cold traffic and adaptive p99 stays within noise of
      vector-only.  (With an aggressive fixed threshold the compiles
      themselves still never block a request, but gcc competes for the
      same cores — that regime is covered by the hot-model section,
      where the compile is paid for.)
    * **hot model** — one model hammered with ``backend="auto"`` on an
      adaptive server: records how long (and how many requests) until a
      response reports ``backend_effective == "native"``, then compares
      steady-state adaptive-auto latency against explicit
      ``backend="native"`` on the same warm server (the static-native
      bound it should match once promoted).

    Skipped with a note when no C toolchain is present — promotion would
    only exercise the demotion path (covered by integration tests).
    """
    from repro.native import find_compiler
    if find_compiler() is None:
        return {"skipped": "no C compiler on PATH"}
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread

    specs = tuple(f"corpus:{seed}:{blocks}" for seed in range(corpus_n))
    cold = {}
    for label, adaptive, backend in (("vector_only", False, "vector"),
                                     ("adaptive_auto", True, "auto")):
        config = ServeConfig(workers=2,
                             cache_dir=str(Path(cache_dir) / label),
                             timeout_seconds=120.0,
                             max_pending=max(64, concurrency * 2),
                             adaptive=adaptive)
        with ServerThread(config) as server_thread:
            cold[label] = _closed_loop(
                server_thread.server.port, specs, generator, steps,
                concurrency, requests_per_client, backend=backend)
    p99_vector = cold["vector_only"]["latency"]["p99_ms"]
    p99_adaptive = cold["adaptive_auto"]["latency"]["p99_ms"]

    hot = {"model": hot_model}
    config = ServeConfig(workers=1, cache_dir=str(Path(cache_dir) / "hot"),
                         timeout_seconds=600.0, adaptive=True,
                         promote_threshold_ms=0.0)
    with ServerThread(config) as server_thread:
        port = server_thread.server.port
        with ServeClient(port=port) as client:
            t0 = time.perf_counter()
            promoted_after = None
            requests_before = 0
            deadline = t0 + 120.0
            while time.perf_counter() < deadline:
                result = client.run(hot_model, generator=generator,
                                    steps=steps, include_outputs=False)
                if result.get("backend_effective") == "native":
                    promoted_after = time.perf_counter() - t0
                    break
                requests_before += 1
                time.sleep(0.02)  # let the background compile land
            snapshot = client.metrics(render=False)["snapshot"]
        hot["time_to_promotion_s"] = (round(promoted_after, 3)
                                      if promoted_after is not None else None)
        hot["requests_before_promotion"] = requests_before
        hot["promotions_total"] = snapshot.get("backend_promotions_total", 0)
        hot["adaptive_state"] = snapshot.get("adaptive_state")
        if promoted_after is not None:
            steady_auto = _closed_loop(port, (hot_model,), generator, steps,
                                       1, requests_per_client)
            steady_native = _closed_loop(port, (hot_model,), generator,
                                         steps, 1, requests_per_client,
                                         backend="native")
            hot["steady_auto"] = steady_auto
            hot["steady_native"] = steady_native
            native_rps = steady_native["throughput_rps"] or 1.0
            auto_rps = steady_auto["throughput_rps"] or 0.0
            hot["auto_vs_native"] = round(auto_rps / native_rps, 3)
            hot["within_10pct_of_native"] = auto_rps >= 0.9 * native_rps

    return {
        "cold_corpus": {
            "models": corpus_n,
            "blocks": blocks,
            **cold,
            "p99_vector_ms": p99_vector,
            "p99_adaptive_ms": p99_adaptive,
            # 10% tolerance absorbs scheduler noise on short runs; the
            # claim under test is "promotion never blocks a request".
            "p99_no_worse": p99_adaptive <= p99_vector * 1.10,
        },
        "hot_promotion": hot,
    }


def run_bench(worker_counts=DEFAULT_WORKER_COUNTS,
              models: tuple[str, ...] = DEFAULT_MODELS,
              generator: str = "frodo", steps: int = 1,
              concurrency: int = 4, requests_per_client: int = 25,
              cache_dir: str | None = None, corpus: int = 0) -> dict:
    owned_tmp = None
    if cache_dir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="bench-serve-")
        cache_dir = owned_tmp.name
    try:
        scaling = [
            bench_worker_count(workers, cache_dir, models, generator, steps,
                               concurrency, requests_per_client)
            for workers in worker_counts
        ]
        # Coalescing is a hot-model optimization: buckets only form among
        # requests for the same (model, generator, backend, steps), so the
        # section drives one model at high concurrency — the workload the
        # queue exists for.  Worker scaling above covers the mixed case.
        coalescing = bench_coalescing(
            cache_dir, models[:1], generator, steps,
            concurrency=max(8, concurrency),
            requests_per_client=requests_per_client)
        restart = bench_restart(cache_dir, models, generator)
        native = bench_native(cache_dir, models, generator, steps)
        # The adaptive section owns its cache subtree: promotion state must
        # come from *its* traffic, not the zoo warm-up above.
        adaptive = bench_adaptive(
            str(Path(cache_dir) / "adaptive"), generator, steps,
            concurrency, requests_per_client,
            corpus_n=corpus if corpus else 6)
        # Corpus diversity gets its own cache subdirectory so the hot
        # phase's warm-up cannot be polluted by the zoo sections above.
        corpus_diversity = None
        if corpus:
            corpus_cache = str(Path(cache_dir) / "corpus")
            corpus_diversity = bench_corpus_diversity(
                corpus_cache, corpus, generator, steps, concurrency,
                requests_per_client)
    finally:
        if owned_tmp is not None:
            owned_tmp.cleanup()
    base = scaling[0]["warm"]["throughput_rps"] or 1.0
    for row in scaling:
        rps = row["warm"]["throughput_rps"]
        row["scaling_vs_1_worker"] = round(rps / base, 2) if rps else None
    return {
        "benchmark": "serve",
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": __import__("os").cpu_count(),
        },
        "config": {
            "models": list(models),
            "generator": generator,
            "steps": steps,
            "concurrency": concurrency,
            "requests_per_client": requests_per_client,
            "worker_counts": list(worker_counts),
        },
        "worker_scaling": scaling,
        "coalescing": coalescing,
        "restart": restart,
        "native": native,
        "adaptive": adaptive,
        "corpus_diversity": corpus_diversity,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_serve",
        description="serve-layer throughput/latency benchmark "
                    "(BENCH_serve.json trajectory)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer workers and requests")
    parser.add_argument("--output", default=None,
                        help="output JSON path "
                             "(default: <repo>/BENCH_serve.json)")
    parser.add_argument("--models", nargs="+", default=list(DEFAULT_MODELS))
    parser.add_argument("--generator", default="frodo")
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--requests", type=int, default=25,
                        help="warm-phase requests per client")
    parser.add_argument("--corpus", type=int, default=0, metavar="N",
                        help="also benchmark hot-vs-diverse traffic over N "
                             "distinct corpus:<seed>:<blocks> fingerprints")
    args = parser.parse_args(argv)

    if args.quick:
        worker_counts = QUICK_WORKER_COUNTS
        concurrency = min(args.concurrency, 2)
        requests = min(args.requests, 5)
    else:
        worker_counts = DEFAULT_WORKER_COUNTS
        concurrency = args.concurrency
        requests = args.requests

    result = run_bench(worker_counts=worker_counts,
                       models=tuple(args.models), generator=args.generator,
                       concurrency=concurrency, requests_per_client=requests,
                       corpus=args.corpus)
    result["quick"] = bool(args.quick)
    result["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")

    out_path = (Path(args.output) if args.output
                else Path(__file__).resolve().parents[3] / "BENCH_serve.json")
    out_path.write_text(json.dumps(result, indent=2) + "\n")

    for row in result["worker_scaling"]:
        warm = row["warm"]
        print(f"workers={row['workers']}: {warm['throughput_rps']} req/s, "
              f"p50={warm['latency']['p50_ms']}ms "
              f"p95={warm['latency']['p95_ms']}ms "
              f"(x{row['scaling_vs_1_worker']} vs 1 worker), "
              f"vm_hit_rate={row['vm_cache_hit_rate']}")
    coal = result["coalescing"]
    occ = coal["batch_occupancy"]
    print(f"coalescing@c={coal['concurrency']}: "
          f"off {coal['coalescing_off']['throughput_rps']} req/s -> "
          f"on {coal['coalescing_on']['throughput_rps']} req/s "
          f"(x{coal['speedup']}), "
          f"p99 {coal['coalescing_on']['latency']['p99_ms']}ms, "
          f"mean occupancy "
          f"{occ['mean_seconds'] if occ else 'n/a'}")
    print(f"restart compile from artifact cache: "
          f"{result['restart']['compile_after_restart_ms']} "
          f"(hit={result['restart']['served_from_artifact_cache']})")
    diversity = result["corpus_diversity"]
    if diversity:
        print(f"corpus diversity: hot({diversity['hot_models']} models) "
              f"{diversity['hot']['throughput_rps']} req/s vs "
              f"diverse({diversity['models']} models) "
              f"{diversity['diverse']['throughput_rps']} req/s "
              f"(x{diversity['diverse_vs_hot']}), "
              f"vm_hit_rate={diversity['vm_cache_hit_rate']}")
    native = result["native"]
    if "skipped" in native:
        print(f"native serving: skipped ({native['skipped']})")
    else:
        for model, row in native["rows"].items():
            print(f"native {model}: first {row['first_request_ms']}ms -> "
                  f"warm {row['warm_request_ms']}ms, restart-from-.so "
                  f"{row['restart_first_request_ms']}ms")
    adaptive = result["adaptive"]
    if "skipped" in adaptive:
        print(f"adaptive serving: skipped ({adaptive['skipped']})")
    else:
        cold = adaptive["cold_corpus"]
        print(f"adaptive cold corpus ({cold['models']} models): "
              f"p99 vector {cold['p99_vector_ms']}ms vs "
              f"adaptive auto {cold['p99_adaptive_ms']}ms "
              f"(no_worse={cold['p99_no_worse']})")
        hot = adaptive["hot_promotion"]
        if hot.get("time_to_promotion_s") is not None:
            print(f"adaptive hot {hot['model']}: promoted to native after "
                  f"{hot['time_to_promotion_s']}s "
                  f"({hot['requests_before_promotion']} vector-served "
                  f"requests); steady auto-vs-native "
                  f"x{hot.get('auto_vs_native')} "
                  f"(within_10pct={hot.get('within_10pct_of_native')})")
        else:
            print(f"adaptive hot {hot['model']}: promotion did not land "
                  f"within the deadline")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
