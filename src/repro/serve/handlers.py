"""Request execution for the serve subsystem.

Functions from a decoded request dict to a result dict.  The same
code runs in two places:

* inside each :mod:`repro.serve.pool` worker process (the production
  path — one request at a time per worker, private warm table);
* inline in the server process when the pool is disabled
  (``workers=0``, used by unit tests and debugging).

Handlers never touch sockets or asyncio; typed failures are raised as
:class:`~repro.serve.protocol.ServeError` and everything else is the
caller's ``internal`` error.

``run``, ``run_batch`` and ``report`` go through the worker's **warm
table** (:class:`WarmTable`): a bounded LRU keyed by what the client
sent — cache root, model name or payload digest, generator, backend,
fuse.  A hit is one lookup and ``vm.run``; only a miss resolves the
model, reads or generates the artifact and builds the VM.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import math
import os
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.obs import tracing
from repro.serve.cache import (Artifact, ArtifactCache, artifact_key,
                               model_fingerprint)
from repro.serve.protocol import ServeError

#: Upper bound on ``steps`` for a single run request — a service-side
#: guardrail so one request cannot monopolize a worker for minutes.
MAX_STEPS = 100_000

#: Upper bound on instances in one ``run_batch`` request (same guardrail:
#: a batch occupies one worker for its whole duration).
MAX_BATCH_INSTANCES = 256

#: Upper bound on blocks in a served ``corpus:<seed>:<blocks>`` spec
#: (same guardrail: a 1024-block model already takes seconds to reach a
#: vector VM, and the spec costs the client a few bytes).
MAX_CORPUS_BLOCKS = 1024

#: Default warm-table bound per worker (``--vm-cache-max``).
WARM_TABLE_MAX = 64


# -- model resolution ----------------------------------------------------------


def _known_model_names() -> list[str]:
    from repro.zoo import EXTENDED_MODELS, MODELS
    return [*MODELS, *EXTENDED_MODELS, "Motivating"]


def resolve_model(req: dict):
    """Build the request's model from a zoo name or an uploaded payload.

    Returns ``(model, fingerprint)``.  Payloads are base64-encoded
    ``.slx`` (zip container) or ``.mdl`` (text) bytes with
    ``model_format`` naming which.
    """
    payload = req.get("model_payload")
    if payload is not None:
        fmt = req.get("model_format", "slx")
        if fmt not in ("slx", "mdl"):
            raise ServeError("bad_request",
                             f"model_format must be 'slx' or 'mdl', got {fmt!r}")
        try:
            blob = base64.b64decode(payload, validate=True)
        except (binascii.Error, ValueError) as exc:
            raise ServeError("invalid_model",
                             f"model_payload is not valid base64: {exc}")
        from repro.model.mdl import load_mdl
        from repro.model.slx import load_slx
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            path = Path(tmp) / f"upload.{fmt}"
            path.write_bytes(blob)
            try:
                model = load_mdl(path) if fmt == "mdl" else load_slx(path)
            except (ReproError, UnicodeDecodeError) as exc:
                raise ServeError("invalid_model", str(exc))
        return model, model_fingerprint(model)

    name = req.get("model")
    if isinstance(name, str):
        from repro.corpus import is_corpus_spec
        if is_corpus_spec(name):
            from repro.corpus import generate_model, parse_corpus_spec
            try:
                seed, config = parse_corpus_spec(name)
                if config.blocks > MAX_CORPUS_BLOCKS:
                    raise ServeError(
                        "bad_request",
                        f"corpus spec {name!r} asks for {config.blocks} "
                        f"blocks; the limit is {MAX_CORPUS_BLOCKS}")
                model = generate_model(seed, config)
            except ReproError as exc:
                raise ServeError("invalid_model", str(exc))
            return model, model_fingerprint(model)
    if not isinstance(name, str) or not name:
        raise ServeError("bad_request",
                         "request needs a 'model' name or a 'model_payload'")
    from repro.zoo import build_model
    try:
        model = build_model(name)
    except KeyError:
        from repro.corpus import corpus_spec_help
        known = ", ".join(_known_model_names())
        raise ServeError("unknown_model",
                         f"unknown model {name!r}; known zoo models: {known}; "
                         f"corpus specs also accepted: {corpus_spec_help()}")
    return model, model_fingerprint(model)


def _generator_name(req: dict) -> str:
    from repro.codegen import ALL_GENERATORS, FRODO_VARIANTS
    name = req.get("generator", "frodo")
    if name not in ALL_GENERATORS and name not in FRODO_VARIANTS:
        known = ", ".join([*ALL_GENERATORS, *FRODO_VARIANTS])
        raise ServeError("unknown_generator",
                         f"unknown generator {name!r}; known: {known}")
    return name


def _backend_name(req: dict) -> str:
    from repro.ir.interp import BACKENDS
    backend = req.get("backend", "auto")
    if backend not in BACKENDS:
        raise ServeError(
            "bad_request",
            f"unknown backend {backend!r}; expected one of {list(BACKENDS)}")
    return backend


def _fuse_flag(req: dict) -> bool:
    """The request's ``fuse`` switch (default on) for the IR-level
    loop-fusion pass (:mod:`repro.ir.fuse`)."""
    value = req.get("fuse", True)
    if not isinstance(value, bool):
        raise ServeError("bad_request",
                         f"fuse must be a boolean, got {value!r}")
    return value


def _int_field(req: dict, name: str, default: int, lo: int, hi: int) -> int:
    value = req.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) \
            or not lo <= value <= hi:
        raise ServeError("bad_request",
                         f"{name} must be an integer in [{lo}, {hi}], "
                         f"got {value!r}")
    return value


# -- artifact production -------------------------------------------------------


def get_or_compile(model, model_fp: str, generator: str, backend: str,
                   cache: ArtifactCache | None,
                   fuse: bool = True) -> tuple[Artifact, str]:
    """Fetch the compiled artifact for (model, generator, backend, fuse).

    Returns ``(artifact, source)`` where source is ``"hit"`` (loaded from
    the on-disk cache), ``"miss"`` (freshly generated and stored), or
    ``"off"`` (no cache configured).  The stored program is always the
    generator's output — fusion happens in the VM — but ``fuse``
    participates in the key so the two configurations never share a
    cache cell.
    """
    key = artifact_key(model_fp, generator, backend, fuse)
    if cache is not None:
        lookup = tracing.span("cache.lookup", cache="artifact", key=key[:12])
        with lookup:
            artifact = cache.get(key)
            lookup.set(outcome="hit" if artifact is not None else "miss")
        if artifact is not None:
            return artifact, "hit"
    from repro.codegen import make_generator
    with tracing.span("codegen", generator=generator, model=model.name):
        code = make_generator(generator).generate(model)
    artifact = Artifact(
        model_fingerprint=model_fp,
        model_name=model.name,
        generator=generator,
        backend=backend,
        program=code.program,
        input_buffers=dict(code.input_buffers),
        output_buffers=dict(code.output_buffers),
        stats={
            "static_bytes": code.program.static_bytes,
            "buffer_count": len(code.program.buffers),
            "function_count": len(code.program.functions),
            "statement_count": sum(1 for _ in code.program.walk()),
            "optimizable_blocks": len(code.ranges.optimizable),
            "eliminated_elements":
                code.ranges.eliminated_elements(code.analyzed),
        },
    )
    if cache is not None:
        with tracing.span("cache.store", cache="artifact", key=key[:12]):
            cache.put(key, artifact)
        return artifact, "miss"
    return artifact, "off"


# -- the warm table --------------------------------------------------------------


class _Warm:
    """What a warm request reads.  Never the Model, its analysis or the
    generated program: the VM already holds the program it runs."""

    __slots__ = ("vm", "inputs", "outputs", "model_name", "model_fp",
                 "stats", "program_fp", "inports")

    def __init__(self, vm, artifact: Artifact, program_fp: str | None):
        self.vm = vm
        self.inputs = dict(artifact.input_buffers)    # inport -> buffer
        self.outputs = dict(artifact.output_buffers)  # outport -> buffer
        self.model_name = artifact.model_name
        self.model_fp = artifact.model_fingerprint
        self.stats = artifact.stats
        #: The generated program's fingerprint, kept for ``auto`` entries
        #: (the adaptive controller's key); None otherwise.
        self.program_fp = program_fp
        buffers = artifact.program.buffers
        #: Each inport's ``(name, shape, dtype)`` for seeded inputs.
        self.inports = tuple((name, buffers[buf].shape, buffers[buf].dtype)
                             for name, buf in self.inputs.items())


class WarmTable:
    """Bounded LRU of :class:`_Warm` entries, one per worker process.

    Guarded by a lock, like the VM cache dict it replaces.  The lock does
    not make the entries' VMs reentrant: workers run one request at a
    time.
    """

    def __init__(self, limit: int = WARM_TABLE_MAX):
        if limit < 1:
            raise ValueError(f"warm table limit must be >= 1, got {limit}")
        self.limit = limit
        self.evictions = 0
        self._entries: "OrderedDict[tuple, _Warm]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> "_Warm | None":
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: tuple, entry: _Warm) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_TABLE = WarmTable()


def configure_warm_table(limit: int | None = None) -> WarmTable:
    """Give this process a fresh, empty warm table bounded at ``limit``
    entries (default :data:`WARM_TABLE_MAX`).  Called once per worker
    process at startup, so a forked worker never inherits its parent's
    entries."""
    global _TABLE
    _TABLE = WarmTable(WARM_TABLE_MAX if limit is None else limit)
    return _TABLE


def _model_identity(req: dict) -> tuple | None:
    """What names the request's model: the zoo name or corpus spec, or a
    digest of the upload.  None when the request cannot name one (the
    resolve on the miss path then reports the error)."""
    payload = req.get("model_payload")
    if payload is not None:
        fmt = req.get("model_format", "slx")
        if not isinstance(payload, str) or not isinstance(fmt, str):
            return None
        digest = hashlib.sha256(f"{fmt}\0{payload}".encode())
        return ("payload", digest.hexdigest())
    name = req.get("model")
    return ("model", name) if isinstance(name, str) and name else None


def _acquire(req: dict, ctx: "HandlerContext", generator: str, backend: str,
             fuse: bool, resolved: list | None = None
             ) -> tuple[_Warm, str, str]:
    """The request's warm entry: a table hit, or a miss that resolves the
    model, reads or generates the artifact and builds the VM.

    Returns ``(entry, artifact_cache, vm_cache)`` outcomes for the meta.
    ``resolved`` memoizes the resolved model across a report's
    generators.  Failures propagate and are never cached.
    """
    ident = _model_identity(req)
    root = str(ctx.cache.root) if ctx.cache is not None else None
    key = (root, ident, generator, backend, fuse)
    with tracing.span("cache.lookup", cache="warm") as lookup:
        entry = _TABLE.get(key) if ident is not None else None
        lookup.set(outcome="hit" if entry is not None else "miss")
        if entry is not None:
            return entry, "hit" if ctx.cache is not None else "off", "hit"
        if resolved is None:
            resolved = []
        if not resolved:
            with tracing.span("model.resolve"):
                resolved.append(resolve_model(req))
        model, model_fp = resolved[0]
        artifact, source = get_or_compile(model, model_fp, generator,
                                          backend, ctx.cache, fuse)
        program_fp = None
        if backend == "auto":
            from repro.ir.vectorize import fingerprint
            program_fp = fingerprint(artifact.program)
        entry = _Warm(_build_vm(artifact.program, backend, ctx, fuse),
                      artifact, program_fp)
        if ident is not None:
            _TABLE.put(key, entry)
    return entry, source, "miss"


def _build_vm(program, backend: str, ctx: "HandlerContext", fuse: bool):
    """A fresh VM for ``program`` (warm-table misses only).

    Native wiring: the ``.so`` store lives in the artifact cache, and a
    toolchain failure is the typed ``native_unavailable`` error (explicit
    ``backend="native"`` never silently falls back).  A store-backed
    cache (:class:`repro.serve.store.SharedArtifactCache`) is asked for
    another shard's ``.so`` before building and gets ours after, so the
    fleet pays gcc once per distinct program.
    """
    from repro.errors import NativeToolchainError
    from repro.ir.interp import VirtualMachine
    native = backend == "native"
    so_dir = ctx.cache.native_dir if native and ctx.cache is not None \
        else None
    store_key = None
    if native and hasattr(ctx.cache, "fetch_native"):
        store_key = ctx.cache.native_key(program, fuse)
        with tracing.span("store.native_fetch") as fetch:
            status = ctx.cache.fetch_native(store_key)
            fetch.set(outcome=status)
        if status in ("fetched", "local", "miss"):
            ctx.meta["native_store"] = status
    try:
        with tracing.span("vm.acquire", backend=backend,
                          program=program.name, fuse=fuse) as acquire:
            vm = VirtualMachine(program, backend=backend,
                                so_cache_dir=so_dir, fuse=fuse)
            if vm.fusion_stats is not None:
                acquire.set(**{f"fusion_{k}": v for k, v
                               in vm.fusion_stats.as_dict().items()})
    except NativeToolchainError as exc:
        raise ServeError("native_unavailable", str(exc))
    if store_key is not None and ctx.cache.publish_native(store_key):
        ctx.meta["native_store"] = "published"
    return vm


def _observe_adaptive(entry: _Warm, steps: int, batch: int,
                      ctx: "HandlerContext") -> None:
    """Feed one ``auto`` request into the adaptive heat tracker, and swap
    a promoted native VM into the entry.

    Only updates counters and possibly *enqueues* a background compile —
    the promotion itself lands later, off the request path, and a later
    request takes the finished VM from the controller.
    """
    if entry.program_fp is None:
        return
    from repro.serve import adaptive
    controller = adaptive.controller()
    if controller is None:
        return
    ctx.meta["adaptive"] = controller.observe(
        entry.program_fp, entry.vm, steps=steps, batch=batch,
        model_name=entry.model_name)
    if entry.vm.backend != "native":
        entry.vm = controller.native_vm(entry.program_fp, entry.vm)


# -- op implementations --------------------------------------------------------


def op_ping(req: dict, ctx: "HandlerContext") -> dict:
    from repro.serve.protocol import PROTOCOL_VERSION
    result = {"pong": True, "pid": os.getpid(),
              "protocol_version": PROTOCOL_VERSION}
    if ctx.shard is not None:
        result["shard"] = ctx.shard
    return result


def op_compile(req: dict, ctx: "HandlerContext") -> dict:
    generator = _generator_name(req)
    backend = _backend_name(req)
    fuse = _fuse_flag(req)
    model, model_fp = resolve_model(req)
    artifact, source = get_or_compile(model, model_fp, generator, backend,
                                      ctx.cache, fuse)
    ctx.meta["artifact_cache"] = source
    result = {
        "model": artifact.model_name,
        "model_fingerprint": model_fp,
        "generator": generator,
        "fuse": fuse,
        "stats": dict(artifact.stats),
    }
    program = artifact.program
    if fuse:
        from repro.ir.fuse import fuse_program
        program, fstats = fuse_program(program)
        result["stats"]["fusion"] = fstats.as_dict()
    if req.get("include_source"):
        from repro.codegen import emit_c
        result["c_source"] = emit_c(program)
    return result


def _decode_inputs(req: dict, entry: _Warm,
                   seed: int) -> dict[str, np.ndarray]:
    """Explicit per-inport inputs, or deterministic random ones by seed,
    keyed by input buffer.

    Each explicit value is converted to its buffer's dtype and its
    element count checked here, so a bad value is a ``bad_request`` for
    its own request — or its own ``run_batch`` instance — only.
    """
    raw = req.get("inputs")
    if raw is None:
        from repro.sim.simulator import draw_inputs
        return {entry.inputs[name]: value for name, value
                in draw_inputs(entry.inports, seed=seed).items()}
    if not isinstance(raw, dict):
        raise ServeError("bad_request",
                         "inputs must be an object keyed by inport name")
    specs = {name: (shape, dtype) for name, shape, dtype in entry.inports}
    mapped = {}
    for name, value in raw.items():
        if name not in specs:
            known = ", ".join(sorted(specs))
            raise ServeError("bad_request",
                             f"unknown inport {name!r}; known: {known}")
        shape, dtype = specs[name]
        try:
            if isinstance(value, dict) and set(value) == {"re", "im"}:
                value = (np.asarray(value["re"], dtype=float)
                         + 1j * np.asarray(value["im"], dtype=float))
            array = np.asarray(np.asarray(value), dtype=dtype)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ServeError("bad_request",
                             f"input {name!r} is not a {dtype} array: {exc}")
        if array.size != math.prod(shape):
            raise ServeError("bad_request",
                             f"input {name!r} expects {math.prod(shape)} "
                             f"elements, got {array.size}")
        mapped[entry.inputs[name]] = array
    return mapped


def _encode_outputs(entry: _Warm, buffers: dict) -> tuple[dict, str]:
    """Outputs by outport name, and their digest."""
    with tracing.span("result.encode"):
        outputs = {name: buffers[buffer]
                   for name, buffer in entry.outputs.items()}
        return outputs, _output_digest(outputs)


def _run_result(entry: _Warm, generator: str, backend: str, fuse: bool,
                steps: int, ctx: "HandlerContext") -> dict:
    """The leading fields of a ``run`` or ``run_batch`` result."""
    vm = entry.vm
    fusion = (vm.fusion_stats.as_dict()
              if vm.fusion_stats is not None else None)
    if fusion is not None:
        ctx.meta["fusion"] = fusion
    return {"model": entry.model_name, "model_fingerprint": entry.model_fp,
            "generator": generator, "backend": backend,
            "backend_effective": vm.backend, "fuse": fuse, "fusion": fusion,
            "steps": steps}


def op_run(req: dict, ctx: "HandlerContext") -> dict:
    from repro.errors import SimulationError
    generator = _generator_name(req)
    backend = _backend_name(req)
    fuse = _fuse_flag(req)
    steps = _int_field(req, "steps", 1, 1, MAX_STEPS)
    seed = _int_field(req, "seed", 0, 0, 2 ** 32 - 1)
    entry, ctx.meta["artifact_cache"], ctx.meta["vm_cache"] = _acquire(
        req, ctx, generator, backend, fuse)
    with tracing.span("inputs"):
        inputs = _decode_inputs(req, entry, seed)
    _observe_adaptive(entry, steps, 1, ctx)
    vm = entry.vm
    t0 = time.perf_counter()
    try:
        exec_result = vm.run(inputs, steps=steps)
    except SimulationError as exc:
        raise ServeError("bad_request", f"execution rejected: {exc}")
    execute_seconds = time.perf_counter() - t0

    outputs, digest = _encode_outputs(entry, exec_result.outputs)
    totals = exec_result.counts.total
    result = {
        **_run_result(entry, generator, backend, fuse, steps, ctx),
        "execute_seconds": round(execute_seconds, 6),
        "counts": totals.as_dict(),
        "counts_exact": bool(getattr(vm, "counts_exact", True)),
        "total_element_ops": totals.total_element_ops,
        "peak_buffer_bytes": exec_result.peak_buffer_bytes,
        "output_sha256": digest,
    }
    if req.get("include_outputs", True):
        result["outputs"] = outputs
    return result


def _output_digest(outputs: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(outputs):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(outputs[name]).tobytes())
    return digest.hexdigest()


def op_run_batch(req: dict, ctx: "HandlerContext") -> dict:
    """Evaluate B independent instances of one compiled program in a
    single batched VM call.

    ``instances`` is a list of per-instance objects, each shaped like a
    ``run`` request's input fields (``seed``, ``inputs``,
    ``include_outputs``); model/generator/backend/steps are shared.  The
    warm table serves **one** batched VM (the per-batch-size companion
    lives inside it) rather than B singletons.  A malformed instance
    fails alone — its slot carries a typed error while the rest execute.

    The aggregate ``counts`` equal the sum over executed instances
    whenever ``counts_exact`` is True (the batched-execution contract,
    see :mod:`repro.ir.batch`).
    """
    from repro.errors import SimulationError
    generator = _generator_name(req)
    backend = _backend_name(req)
    fuse = _fuse_flag(req)
    steps = _int_field(req, "steps", 1, 1, MAX_STEPS)
    instances = req.get("instances")
    if not isinstance(instances, list) or not instances:
        raise ServeError("bad_request",
                         "run_batch needs a non-empty 'instances' list")
    if len(instances) > MAX_BATCH_INSTANCES:
        raise ServeError(
            "bad_request",
            f"run_batch accepts at most {MAX_BATCH_INSTANCES} instances, "
            f"got {len(instances)}")
    entry, ctx.meta["artifact_cache"], ctx.meta["vm_cache"] = _acquire(
        req, ctx, generator, backend, fuse)

    results: list[dict | None] = [None] * len(instances)
    decoded: list[tuple[int, dict]] = []
    with tracing.span("inputs"):
        for i, inst in enumerate(instances):
            if not isinstance(inst, dict):
                results[i] = {"ok": False, "error_type": "bad_request",
                              "error": f"instance {i} must be an object"}
                continue
            try:
                seed = _int_field(inst, "seed", 0, 0, 2 ** 32 - 1)
                decoded.append((i, _decode_inputs(inst, entry, seed)))
            except ServeError as exc:
                results[i] = {"ok": False, "error_type": exc.error_type,
                              "error": exc.message}

    _observe_adaptive(entry, steps, max(len(decoded), 1), ctx)
    vm = entry.vm
    ctx.meta["batched"] = len(decoded)

    execute_seconds = 0.0
    counts: dict = {}
    total_element_ops = 0
    counts_exact = bool(getattr(vm, "counts_exact", True))
    peak_buffer_bytes = 0
    if decoded:
        t0 = time.perf_counter()
        try:
            batch_res = vm.run_batch([inputs for _, inputs in decoded],
                                     steps=steps)
        except SimulationError as exc:
            raise ServeError("bad_request", f"execution rejected: {exc}")
        execute_seconds = time.perf_counter() - t0
        totals = batch_res.counts.total
        counts = totals.as_dict()
        total_element_ops = totals.total_element_ops
        counts_exact = batch_res.counts_exact
        peak_buffer_bytes = batch_res.peak_buffer_bytes
        for (i, _), out in zip(decoded, batch_res.outputs):
            outputs, digest = _encode_outputs(entry, out)
            result: dict = {"ok": True, "output_sha256": digest}
            if instances[i].get("include_outputs",
                                req.get("include_outputs", True)):
                result["outputs"] = outputs
            results[i] = result

    return {
        **_run_result(entry, generator, backend, fuse, steps, ctx),
        "batch": len(instances),
        "executed": len(decoded),
        "execute_seconds": round(execute_seconds, 6),
        "counts": counts,
        "counts_exact": counts_exact,
        "total_element_ops": total_element_ops,
        "peak_buffer_bytes": peak_buffer_bytes,
        "results": results,
    }


def op_ranges(req: dict, ctx: "HandlerContext") -> dict:
    from repro.core.analysis import analyze
    from repro.core.ranges import determine_ranges
    model, model_fp = resolve_model(req)
    analyzed = analyze(model)
    ranges = determine_ranges(analyzed)
    blocks = []
    for name in analyzed.schedule:
        sig = analyzed.signal_of(name)
        blocks.append({
            "block": name,
            "shape": list(sig.shape),
            "range": ranges.output_range[name].describe(),
            "optimizable": name in ranges.optimizable,
        })
    return {
        "model": model.name,
        "model_fingerprint": model_fp,
        "optimizable_blocks": len(ranges.optimizable),
        "eliminated_elements": ranges.eliminated_elements(analyzed),
        "blocks": blocks,
    }


def op_report(req: dict, ctx: "HandlerContext") -> dict:
    """Per-generator comparison table for one model (counts + memory)."""
    from repro.codegen import ALL_GENERATORS
    backend = _backend_name(req)
    fuse = _fuse_flag(req)
    steps = _int_field(req, "steps", 1, 1, MAX_STEPS)
    seed = _int_field(req, "seed", 0, 0, 2 ** 32 - 1)
    generators = req.get("generators", list(ALL_GENERATORS))
    if not isinstance(generators, list) or not generators:
        raise ServeError("bad_request", "generators must be a non-empty list")
    artifact_hits = artifact_misses = 0
    resolved: list = []
    rows = []
    for generator in generators:
        _generator_name({"generator": generator})
        entry, source, _ = _acquire(req, ctx, generator, backend, fuse,
                                    resolved)
        artifact_hits += source == "hit"
        artifact_misses += source == "miss"
        vm = entry.vm
        totals = vm.run(_decode_inputs({}, entry, seed),
                        steps=steps).counts.total
        rows.append({
            "generator": generator,
            "total_element_ops": totals.total_element_ops,
            "flops": totals.flops,
            "static_bytes": entry.stats["static_bytes"],
            "eliminated_elements": entry.stats["eliminated_elements"],
            "fusion": (vm.fusion_stats.as_dict()
                       if vm.fusion_stats is not None else None),
        })
    ctx.meta["artifact_cache"] = (
        "hit" if artifact_misses == 0 and artifact_hits else
        "miss" if artifact_misses else "off")
    baseline = next((r for r in rows if r["generator"] == "simulink"), rows[0])
    for row in rows:
        row["ops_vs_baseline"] = (
            round(baseline["total_element_ops"]
                  / row["total_element_ops"], 3)
            if row["total_element_ops"] else None)
    return {"model": entry.model_name, "model_fingerprint": entry.model_fp,
            "steps": steps, "fuse": fuse, "rows": rows}


def op_sleep(req: dict, ctx: "HandlerContext") -> dict:
    """Debug op: hold the worker for N seconds (timeout-path testing).

    With ``"exit": true`` the worker process dies without replying after
    the sleep — the deterministic crash used to test the pool's
    retry-once-then-fail recovery path.
    """
    if not ctx.allow_debug:
        raise ServeError("bad_request",
                         "sleep is a debug op; start the server with "
                         "--debug-ops to enable it")
    seconds = req.get("seconds", 0.1)
    if not isinstance(seconds, (int, float)) or not 0 <= seconds <= 300:
        raise ServeError("bad_request",
                         f"seconds must be in [0, 300], got {seconds!r}")
    time.sleep(float(seconds))
    if req.get("exit"):
        os._exit(17)
    return {"slept": float(seconds), "pid": os.getpid()}


_HANDLERS = {
    "ping": op_ping,
    "compile": op_compile,
    "run": op_run,
    "run_batch": op_run_batch,
    "ranges": op_ranges,
    "report": op_report,
    "sleep": op_sleep,
}


class HandlerContext:
    """Per-request execution context handed to op implementations."""

    def __init__(self, cache: ArtifactCache | None, allow_debug: bool = False,
                 shard: str | None = None):
        self.cache = cache
        self.allow_debug = allow_debug
        self.shard = shard
        self.meta: dict = {}


def handle_request(req: dict, cache: ArtifactCache | None,
                   allow_debug: bool = False,
                   shard: str | None = None) -> tuple[dict, dict]:
    """Execute one decoded request; returns ``(result, meta)``.

    Raises :class:`ServeError` for typed failures; any other exception is
    a bug and becomes the caller's ``internal`` error.  ``metrics`` and
    ``shutdown`` are served by the front-end, not here.  ``shard``
    (cluster mode) is stamped into the response meta so clients and the
    router can attribute which shard served a request.
    """
    op = req.get("op")
    handler = _HANDLERS.get(op)
    if handler is None:
        raise ServeError("bad_request",
                         f"op {op!r} is not executable by a worker")
    ctx = HandlerContext(cache, allow_debug, shard)
    ctx.meta["worker_pid"] = os.getpid()
    if shard is not None:
        ctx.meta["shard"] = shard
    root = tracing.resume(req.get("_trace"), "worker.handle", op=op)
    t0 = time.perf_counter()
    with root:
        result = handler(req, ctx)
    ctx.meta["service_seconds"] = round(time.perf_counter() - t0, 6)
    spans = root.export()
    _attach_adaptive_meta(ctx, spans)
    if spans:
        ctx.meta["spans"] = spans
    return result, ctx.meta


def _attach_adaptive_meta(ctx: HandlerContext, spans: list) -> None:
    """Ship adaptive-tier telemetry on the next handled request.

    Promotions complete on a background thread — no request is in flight
    to carry the news — so completed events, the ``native.promote`` trace
    spans, the current state distribution, and the cumulative warm-table
    eviction count ride the meta of whatever this worker handles next.
    The server folds them into counters and the per-worker state gauge.
    """
    from repro.serve import adaptive
    controller = adaptive.controller()
    if controller is not None:
        # Traced vector runs calibrate the promotion threshold's
        # overhead factor (no-op for untraced requests).
        controller.record_vm_run_spans(spans)
        events = controller.drain_events()
        if events:
            for event in events:
                spans.extend(event.pop("spans", ()))
            ctx.meta["adaptive_events"] = events
        ctx.meta["adaptive_states"] = controller.state_counts()
    if _TABLE.evictions:
        ctx.meta["vm_cache_evictions"] = _TABLE.evictions
