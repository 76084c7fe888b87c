"""One-time preparation of a checkout: warm caches and checked references.

Everything lands in ``.bench_build/perfbench/<source digest>/``, so a
checkout prepares once per version of ``src/`` and every later run reuses
it:

* ``warm/`` — the artifact and ``.so`` cache the ``hot_native`` and
  ``long_sim`` servers restart on, filled through the same
  :func:`repro.serve.handlers.handle_request` the workers run;
* ``pool/`` — the ``cold_upload`` models as ``.slx``/``.mdl`` files;
* ``refs.json`` — per cell: the output digest and element-op total the
  service returned, and whether its outputs matched
  :func:`repro.sim.simulator.simulate` (an independent interpreter) at the
  cell's own step count, within the tolerance ``repro.eval.validate`` uses.

A cell whose outputs disagree with the simulator is stored with
``ok: false``; every request for it then counts as failed.
"""

from __future__ import annotations

import base64
import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import workloads as wl

STATE_DIR = Path(".bench_build") / "perfbench"
#: The upload pool is written and checked by this many worker processes
#: (one per CPU of the 2-CPU reference host), each taking every
#: ``PREPARE_PROCESSES``-th pool index.  They are plain subprocesses of
#: this script rather than a ``multiprocessing`` pool, whose resource
#: tracker would outlive the pool.
PREPARE_PROCESSES = 2


def src_digest(root: Path) -> str:
    """Digest of the program and of what this benchmark prepares from it."""
    digest = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted([*(root / "src").rglob("*.py"),
                        here / "prepare.py", here / "workloads.py"]):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def require_toolchain() -> None:
    """Stop the run, naming what is missing, when no C compiler exists:
    two of the three workloads execute natively compiled step code."""
    from repro.native.compile import find_compiler
    if find_compiler() is None:
        raise SystemExit(
            "perfbench: no C compiler found on PATH (tried gcc, cc, clang); "
            "hot_native and long_sim need one, so no workload is run")


def _tolerance() -> tuple[float, float]:
    from repro.eval.validate import validate_generator
    params = inspect.signature(validate_generator).parameters
    return params["rtol"].default, params["atol"].default


class State:
    """A prepared checkout: cache paths, the upload pool and references."""

    def __init__(self, path: Path):
        self.path = path
        self.warm_dir = path / "warm"
        #: Per-process scratch space (cold caches), removed after a run.
        self.run_dir = path / "run" / str(os.getpid())
        self.refs: dict = json.loads((path / "refs.json").read_text())
        self.pool = [self._pool_cell(i) for i in range(wl.COLD_POOL)]

    def _pool_cell(self, index: int) -> dict:
        _, fmt = wl.pool_entry(index)
        blob = (self.path / "pool" / f"{index}.{fmt}").read_bytes()
        cell = wl.cold_cell(base64.b64encode(blob).decode(), fmt)
        cell["_pool"] = index
        return cell

    def scratch(self, name: str) -> Path:
        """An emptied directory under this run's scratch space."""
        path = self.run_dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def load_or_prepare(root: Path, log) -> State:
    base = root / STATE_DIR
    path = base / src_digest(root)
    if (path / "refs.json").exists():
        return State(path)
    t0 = time.perf_counter()
    log(f"preparing {path} (once per checkout and source version)")
    if base.exists():
        for stale in base.iterdir():
            shutil.rmtree(stale, ignore_errors=True)
    tmp = base / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    refs = _prepare(tmp, log)
    (tmp / "refs.json").write_text(json.dumps(refs, sort_keys=True))
    os.replace(tmp, path)
    log(f"prepared {len(refs)} reference cells in "
        f"{time.perf_counter() - t0:.1f}s")
    return State(path)


def _prepare(path: Path, log) -> dict:
    from repro.serve.cache import ArtifactCache
    from repro.zoo import build_model
    refs: dict = {}
    cache = ArtifactCache(path / "warm")
    sims: dict = {}
    zoo = {wl.cell_id(c): c for c in (wl.warm_cells("long_sim")
                                      + wl.long_cells())}
    for cell in zoo.values():
        model = build_model(cell["model"])
        key = (cell["model"], cell["steps"])
        if key not in sims:
            sims[key] = _simulate(model, cell["steps"])
        refs[wl.cell_id(cell)] = _reference(cell, cache, model, sims[key])
    log(f"  zoo cells checked against the simulator ({len(refs)})")
    pool_dir = path / "pool"
    pool_dir.mkdir()
    refs.update(_prepare_pool_parts(pool_dir))
    log(f"  upload pool: {len(refs) - len(zoo)}/{wl.COLD_POOL} checked")
    return refs


def _prepare_pool_parts(pool_dir: Path) -> dict:
    """Run the pool workers, wait for every one, and merge their parts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    procs: list[tuple[subprocess.Popen, Path]] = []
    try:
        for part in range(PREPARE_PROCESSES):
            out = pool_dir.parent / f"pool-part-{part}.json"
            procs.append((subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--pool-part",
                 str(part), str(PREPARE_PROCESSES), str(pool_dir), str(out)],
                env=env), out))
        refs: dict = {}
        for proc, out in procs:
            if proc.wait() != 0:
                raise RuntimeError(f"upload pool worker {proc.args[3]} "
                                   f"exited with code {proc.returncode}")
            refs.update(json.loads(out.read_text()))
            out.unlink()
        return refs
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _prepare_pool(pool_dir: Path, indices: range) -> dict:
    """Write and check part of the upload pool (in a worker process)."""
    refs = {}
    for index in indices:
        cell = _write_pool_model(pool_dir, index)
        model = _load(pool_dir / f"{index}.{cell['model_format']}")
        refs[wl.cell_id(cell)] = _reference(
            cell, None, model, _simulate(model, 1))
    return refs


def _write_pool_model(pool_dir: Path, index: int) -> dict:
    from repro.corpus import GenConfig, generate_model
    from repro.model.mdl import save_mdl
    from repro.model.slx import save_slx
    blocks, fmt = wl.pool_entry(index)
    # Pool seeds start past 0 so they never coincide with corpus seeds
    # other tools use for their smoke runs.
    model = generate_model(100_000 + index, GenConfig(blocks=blocks))
    path = pool_dir / f"{index}.{fmt}"
    (save_mdl if fmt == "mdl" else save_slx)(model, path)
    cell = wl.cold_cell(base64.b64encode(path.read_bytes()).decode(), fmt)
    cell["_pool"] = index
    return cell


def _load(path: Path):
    from repro.model.mdl import load_mdl
    from repro.model.slx import load_slx
    return load_mdl(path) if path.suffix == ".mdl" else load_slx(path)


def _simulate(model, steps: int) -> dict:
    from repro.sim.simulator import random_inputs, simulate
    return simulate(model, random_inputs(model, seed=wl.INPUT_SEED), steps)


def _reference(cell: dict, cache, model, expected: dict) -> dict:
    """Serve ``cell`` in-process and compare its outputs to the simulator."""
    import numpy as np
    from repro.serve.handlers import handle_request
    rtol, atol = _tolerance()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result, _ = handle_request(dict(wl.wire(cell), include_outputs=True),
                                   cache)
    problems = []
    for name, want in expected.items():
        got = result["outputs"].get(name)
        if got is None:
            problems.append(f"output {name} missing")
            continue
        got = np.asarray(got).ravel()
        want = np.asarray(want).ravel()
        if got.shape != want.shape or not np.allclose(got, want, rtol=rtol,
                                                      atol=atol):
            problems.append(f"output {name} differs from the simulator")
    if problems:
        print(f"perfbench: reference check failed for {wl.cell_id(cell)}: "
              + "; ".join(problems), file=sys.stderr)
    return {"sha": result["output_sha256"], "ops": result["total_element_ops"],
            "ok": not problems}


if __name__ == "__main__":
    # A pool worker: ``prepare.py --pool-part PART PARTS POOL_DIR OUT``.
    _, flag, part, parts, pool_dir, out = sys.argv
    assert flag == "--pool-part"
    part_refs = _prepare_pool(Path(pool_dir),
                              range(int(part), wl.COLD_POOL, int(parts)))
    Path(out).write_text(json.dumps(part_refs))
