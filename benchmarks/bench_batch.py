"""Batched-execution benchmark (`BENCH_batch.json`).

Measures the point of the batch dimension: per-instance cost must *fall*
as the batch grows, because one ``run_batch`` call amortizes dispatch
(Python interpretation of the loop IR, numpy kernel launches, native
call overhead) over B model instances.  For each backend and
B ∈ {1, 8, 64, 256} it times ``run_batch`` over B distinct input sets,
reports per-instance ms/step, and flags whether the series decreases
monotonically — the acceptance criterion for the vector and native
backends.  A second section measures serve-layer closed-loop throughput
with the request coalescer on vs off at high concurrency.

Outputs stay cross-checked: every timed configuration is first verified
bitwise against per-instance closure runs (small B) so the benchmark can
never drift from the correctness contract.

Run directly (not collected by the tier-1 pytest config)::

    PYTHONPATH=src python benchmarks/bench_batch.py          # full
    PYTHONPATH=src python benchmarks/bench_batch.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.codegen import make_generator            # noqa: E402
from repro.ir.interp import VirtualMachine          # noqa: E402
from repro.native import find_compiler              # noqa: E402
from repro.sim.simulator import random_inputs       # noqa: E402
from repro.zoo import build_model                   # noqa: E402

# Models whose programs pass the batch-lift guard (repro.ir.batch
# .lift_reject), so the vector backend's fast path carries them; the
# acceptance criterion (per-instance ms/step strictly amortizing with B)
# is about that path, not the sequential fallback taken by programs with
# data-steered control flow.
DEFAULT_MODELS = ("Motivating", "ImagePipeline")
DEFAULT_BATCHES = (1, 8, 64, 256)
QUICK_BATCHES = (1, 8, 32)
INTERP_BACKENDS = ("closure", "vector", "native")


def best_of(fn, repeats: int, warmup: int = 1) -> float:
    """Best-of-N wall-clock seconds (min filters scheduler noise)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def verify_batch(vm, code, model, steps: int) -> None:
    """Small-B bitwise cross-check before anything is timed."""
    inputs_list = [code.map_inputs(random_inputs(model, seed=b))
                   for b in range(3)]
    batch = vm.run_batch(inputs_list, steps=steps)
    for b, inputs in enumerate(inputs_list):
        ref = VirtualMachine(code.program, backend="closure").run(
            inputs, steps=steps)
        for name, arr in ref.outputs.items():
            got = batch.outputs[b][name]
            if np.asarray(arr).tobytes() != np.asarray(got).tobytes():
                raise SystemExit(
                    f"batched output mismatch: {vm.backend} backend, "
                    f"instance {b}, buffer {name!r}")


def bench_model(model_name: str, batches: tuple[int, ...], steps: int,
                repeats: int, so_cache_dir: Path | None) -> dict:
    model = build_model(model_name)
    code = make_generator("frodo").generate(model)
    backends = [b for b in INTERP_BACKENDS
                if b != "native" or so_cache_dir is not None]
    rows: dict[str, dict] = {}
    for backend in backends:
        vm = VirtualMachine(code.program, backend=backend,
                            so_cache_dir=so_cache_dir)
        verify_batch(vm, code, model, steps)
        series = {}
        for batch in batches:
            inputs_list = [code.map_inputs(random_inputs(model, seed=b))
                           for b in range(batch)]
            seconds = best_of(
                lambda: vm.run_batch(inputs_list, steps=steps), repeats)
            series[str(batch)] = round(
                seconds * 1e3 / (batch * steps), 6)  # per-instance ms/step
        values = list(series.values())
        rows[backend] = {
            "per_instance_ms_per_step": series,
            "monotonic_decreasing": all(a >= b for a, b in
                                        zip(values, values[1:])),
            "speedup_max_batch": round(values[0] / values[-1], 2)
            if values[-1] else None,
        }
    return {"model": model_name, "steps": steps, "backends": rows}


def bench_serve_coalescing(quick: bool) -> dict:
    """Serve throughput with the coalescer on vs off (high concurrency)."""
    from repro.serve.bench import bench_coalescing
    with tempfile.TemporaryDirectory(prefix="bench-batch-") as cache_dir:
        return bench_coalescing(
            cache_dir, ("Motivating",), generator="frodo", steps=1,
            concurrency=8, requests_per_client=5 if quick else 25)


def previous_coalescing(path: Path) -> dict | None:
    """Headline of the serve section in the file about to be replaced,
    kept in the new one so a policy change shows its before and after."""
    try:
        prev = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    coal = prev.get("serve_coalescing")
    if not coal:
        return None
    return {"timestamp": prev.get("timestamp"),
            "cpu_count": prev.get("platform", {}).get("cpu_count"),
            "speedup": coal.get("speedup"),
            "mean_occupancy": (coal.get("batch_occupancy")
                               or {}).get("mean_seconds")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_batch",
        description="batched-execution benchmark "
                    "(BENCH_batch.json trajectory)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: smaller batches, fewer repeats")
    parser.add_argument("--output", default=None,
                        help="output JSON path "
                             "(default: <repo>/BENCH_batch.json)")
    parser.add_argument("--models", nargs="+", default=list(DEFAULT_MODELS))
    parser.add_argument("--steps", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--no-serve", action="store_true",
                        help="skip the serve-coalescing section")
    args = parser.parse_args(argv)

    batches = QUICK_BATCHES if args.quick else DEFAULT_BATCHES
    repeats = args.repeats or (2 if args.quick else 5)

    have_cc = find_compiler() is not None
    with tempfile.TemporaryDirectory(prefix="bench-batch-so-") as so_dir:
        so_cache_dir = Path(so_dir) if have_cc else None
        models = [bench_model(name, batches, args.steps, repeats,
                              so_cache_dir)
                  for name in args.models]

    result = {
        "benchmark": "batch",
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": __import__("os").cpu_count(),
        },
        "config": {
            "models": list(args.models),
            "batches": list(batches),
            "steps": args.steps,
            "repeats": repeats,
            "native": have_cc,
        },
        "models": models,
        "serve_coalescing": (None if args.no_serve
                             else bench_serve_coalescing(args.quick)),
        "quick": bool(args.quick),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }

    out_path = (Path(args.output) if args.output
                else REPO_ROOT / "BENCH_batch.json")
    if result["serve_coalescing"]:
        result["serve_coalescing"]["previous"] = \
            previous_coalescing(out_path)
    out_path.write_text(json.dumps(result, indent=2) + "\n")

    for entry in models:
        for backend, row in entry["backends"].items():
            series = row["per_instance_ms_per_step"]
            trend = " > ".join(f"{v:g}" for v in series.values())
            mono = "monotonic" if row["monotonic_decreasing"] else \
                "NOT monotonic"
            print(f"{entry['model']:>14s} {backend:>8s}: {trend} "
                  f"ms/step/instance ({mono}, "
                  f"x{row['speedup_max_batch']} at B={max(series, key=int)})")
    coal = result["serve_coalescing"]
    if coal:
        print(f"serve coalescing@c={coal['concurrency']}: "
              f"{coal['coalescing_off']['throughput_rps']} -> "
              f"{coal['coalescing_on']['throughput_rps']} req/s "
              f"(x{coal['speedup']})")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
