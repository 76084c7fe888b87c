"""C-level step time of the in-process ``<name>_run`` entry vs the static
``<name>_step`` (`BENCH_native_abi.json`).

``emit_c`` prints two shapes of the same step: the paper's ``<name>_step``
over file-scope statics, which the one-shot gcc harness times, and the
``<name>_run`` entry over caller-owned ``restrict`` buffers, which the
native VM calls.  This script times both with the loop in C (no ctypes
in the timed region) for the 13 zoo models × {frodo, simulink}: each
program is fused and window-lowered exactly as the native VM builds it,
a small timing shim is appended to its translation unit, and each cell
reports the best-of-N per-step time of both shapes and their ratio.

Run directly (not collected by the tier-1 pytest config)::

    PYTHONPATH=src python benchmarks/bench_native_abi.py          # full
    PYTHONPATH=src python benchmarks/bench_native_abi.py --quick  # smoke
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.codegen import emit_c, make_generator            # noqa: E402
from repro.codegen.ctext import RUN_PARAM_KINDS             # noqa: E402
from repro.ir.fuse import fuse_program, lower_windows       # noqa: E402
from repro.ir.ops import c_type                             # noqa: E402
from repro.native import find_compiler                      # noqa: E402
from repro.native.compile import DEFAULT_FLAGS              # noqa: E402
from repro.native.sharedlib import SHARED_FLAGS             # noqa: E402
from repro.sim.simulator import random_inputs               # noqa: E402
from repro.zoo import build_model                           # noqa: E402

MODELS = ("AudioProcess", "Decryption", "HighPass", "HT", "Kalman", "Back",
          "Maintenance", "Maunfacture", "RunningDiff", "Simpson",
          "ImagePipeline", "BatteryMonitor", "Motivating")
GENERATORS = ("frodo", "simulink")
SLOW_RATIO = 1.2
REPEATS = 7
OUT = REPO_ROOT / "BENCH_native_abi.json"


def timing_shim(program) -> str:
    """``bench_step``/``bench_run``: seconds for ``n`` steps of each."""
    name = program.name
    decls = [*program.buffers_of_kind("input"),
             *program.buffers_of_kind("output")]
    params = ", ".join(
        f"{'const ' if d.kind == 'input' else ''}{c_type(d.dtype)}* p{i}"
        for i, d in enumerate(decls))
    args = ", ".join(f"p{i}" for i in range(len(decls)))
    return f"""
static double bench_now(void) {{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return t.tv_sec + t.tv_nsec * 1e-9;
}}
double bench_step(int64_t n, {params}) {{
    {name}_init();
    double t0 = bench_now();
    for (int64_t i = 0; i < n; i++) {name}_step({args});
    return bench_now() - t0;
}}
double bench_run(int64_t n, void *const *bufs) {{
    {name}_run(1, 0, 1, bufs);
    double t0 = bench_now();
    {name}_run(1, n, 0, bufs);
    return bench_now() - t0;
}}
"""


def bench_cell(model_name: str, generator: str, cc: str, workdir: Path,
               repeats: int, target_s: float) -> dict:
    model = build_model(model_name)
    code = make_generator(generator).generate(model)
    program = lower_windows(fuse_program(code.program)[0])
    source = ("#define _POSIX_C_SOURCE 199309L\n#include <time.h>\n"
              + emit_c(program) + timing_shim(program))
    stem = workdir / f"{program.name}_{generator}"
    stem.with_suffix(".c").write_text(source)
    subprocess.run([cc, *DEFAULT_FLAGS, *SHARED_FLAGS, "-o",
                    str(stem.with_suffix(".so")), str(stem.with_suffix(".c")),
                    "-lm"], check=True, capture_output=True)
    lib = ctypes.CDLL(str(stem.with_suffix(".so")))
    lib.bench_step.restype = lib.bench_run.restype = ctypes.c_double

    inputs = code.map_inputs(random_inputs(model, seed=0))
    buffers = {}
    for kind in RUN_PARAM_KINDS:
        for decl in program.buffers_of_kind(kind):
            arr = np.zeros(max(decl.size, 1), dtype=decl.dtype)
            if decl.name in inputs:
                arr[:decl.size] = np.asarray(inputs[decl.name],
                                             dtype=decl.dtype).ravel()
            buffers[decl.name] = arr
    table = (ctypes.c_void_p * len(buffers))(
        *(arr.ctypes.data for arr in buffers.values()))
    step_args = [ctypes.c_void_p(buffers[d.name].ctypes.data)
                 for kind in ("input", "output")
                 for d in program.buffers_of_kind(kind)]

    probe = lib.bench_step(ctypes.c_int64(200), *step_args) / 200
    steps = max(200, int(target_s / max(probe, 1e-9)))
    n = ctypes.c_int64(steps)
    step_s = run_s = math.inf
    for _ in range(repeats):  # interleaved, so drift hits both shapes
        step_s = min(step_s, lib.bench_step(n, *step_args))
        run_s = min(run_s, lib.bench_run(n, table))
    step_us, run_us = step_s / steps * 1e6, run_s / steps * 1e6
    return {"model": model_name, "generator": generator, "steps": steps,
            "step_us": round(step_us, 3), "run_us": round(run_us, 3),
            "ratio": round(run_us / step_us, 3)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="two models, three repeats; no JSON written")
    args = ap.parse_args(argv)
    cc = find_compiler()
    if cc is None:
        print("no C compiler on PATH; nothing to measure")
        return 0
    models = MODELS[-2:] if args.quick else MODELS
    repeats = 3 if args.quick else REPEATS
    cells = []
    with tempfile.TemporaryDirectory(prefix="bench_native_abi_") as tmp:
        for model_name in models:
            for generator in GENERATORS:
                cell = bench_cell(model_name, generator, cc, Path(tmp),
                                  repeats, target_s=0.02)
                cells.append(cell)
                print(f"{model_name:15s} {generator:9s} "
                      f"step {cell['step_us']:9.3f} us  "
                      f"run {cell['run_us']:9.3f} us  {cell['ratio']:.2f}x",
                      flush=True)
    geomean = math.exp(sum(math.log(c["ratio"]) for c in cells) / len(cells))
    slow = [f"{c['model']} x {c['generator']}" for c in cells
            if c["ratio"] > SLOW_RATIO]
    print(f"geomean run/step {geomean:.3f}; slower than {SLOW_RATIO}x: "
          f"{', '.join(slow) or 'none'}")
    if not args.quick:
        OUT.write_text(json.dumps({
            "host": {"machine": platform.machine(),
                     "python": platform.python_version(),
                     "cc": Path(cc).name, "flags": list(DEFAULT_FLAGS)},
            "repeats": repeats,
            "geomean_ratio": round(geomean, 3),
            "slower_than_1_2x": slow,
            "cells": cells,
        }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
