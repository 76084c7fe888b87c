"""The traced run: per-layer metrics and the self-time report.

Two sources, both taken in the ``--trace 1`` run only (end-to-end metrics
always come from untraced runs):

* **Serve layers** — the server already returns its span tree for
  ``trace: true`` requests (``request``, ``queue.wait``, ``pool.dispatch``,
  ``worker.handle`` and the worker's ``vm.*``/``cache.*`` spans).  The
  traced phase runs the selected workload's closed loop with tracing on,
  right after an untraced phase of equal length on the same server; the
  ratio of their median latencies is the tracing overhead.
* **Library layers** — after the server stops, a fixed sample of each
  workload's requests is replayed in-process through
  :func:`repro.serve.handlers.handle_request`, with the benchmark's own
  spans wrapped around the public entry points of each module.  Nothing
  is added to the program; the wrappers are removed afterwards.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import statistics
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

import harness
import workloads as wl


def _median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def _center(values) -> float:
    """Interquartile mean: the mean of the middle half of ``values``.

    Robust to outliers like a median, but it keeps full resolution when
    the inputs sit on a coarse grid (server spans are rounded to µs)."""
    values = sorted(values)
    if not values:
        return 0.0
    cut = len(values) // 4
    middle = values[cut:len(values) - cut]
    return sum(middle) / len(middle)


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


# -- serve layers: the server's own spans ------------------------------------


def _flatten(nodes, out: list) -> list:
    for node in nodes:
        out.append(node)
        _flatten(node.get("children", ()), out)
    return out


def _span_self(node: dict) -> float:
    start = node["start_unix"]
    end = start + node["wall_seconds"]
    children = [(c["start_unix"], c["start_unix"] + c["wall_seconds"])
                for c in node.get("children", ())]
    return node["wall_seconds"] - _covered(start, end, children)


def serve_layers(untraced: harness.Loop, traced: harness.Loop,
                 report: "Report") -> dict:
    """Per-layer metrics from the server's span trees (traced phase) and
    response meta (both phases)."""
    frontend, wire, queue, ipc, unattributed, run_share = (
        [] for _ in range(6))
    for sample in traced.samples:
        if not sample.ok:
            continue
        nodes = _flatten(sample.resp["result"].get("trace", ()), [])
        by_name = defaultdict(list)
        for node in nodes:
            by_name[node["name"]].append(node)
            report.add_span("server", node["name"], node["wall_seconds"],
                            _span_self(node),
                            sum(c["wall_seconds"]
                                for c in node.get("children", ())))
        if not by_name["request"]:
            continue
        request = by_name["request"][0]
        frontend.append(_span_self(request))
        wire.append(sample.latency - request["wall_seconds"])
        queue.append(sum(n["wall_seconds"] for n in by_name["queue.wait"]))
        handle = sum(n["wall_seconds"] for n in by_name["worker.handle"])
        ipc.append(sum(n["wall_seconds"] for n in by_name["pool.dispatch"])
                   - handle)
        unattributed.append(sum(_span_self(n)
                                for n in by_name["worker.handle"]))
        run_share.append(sum(n["wall_seconds"] for n in by_name["vm.run"])
                         / sample.latency)
    events = defaultdict(lambda: defaultdict(int))
    evictions: dict = {}
    for sample in untraced.samples + traced.samples:
        meta = (sample.resp or {}).get("meta") or {}
        for cache in ("artifact_cache", "vm_cache"):
            if meta.get(cache) in ("hit", "miss"):
                events[cache][meta[cache]] += 1
        if "vm_cache_evictions" in meta:
            pid = meta.get("worker_pid")
            evictions[pid] = max(evictions.get(pid, 0),
                                 meta["vm_cache_evictions"])

    def ratio(cache: str) -> float:
        seen = events[cache]
        return seen["hit"] / max(seen["hit"] + seen["miss"], 1)

    untraced_p50 = _median(s.latency for s in untraced.samples if s.ok)
    traced_p50 = _median(s.latency for s in traced.samples if s.ok)
    return {
        "server.frontend_ms": 1e3 * _center(frontend),
        "client.wire_ms": 1e3 * _center(wire),
        "batching.queue_wait_ms": 1e3 * _center(queue),
        "pool.ipc_ms": 1e3 * _center(ipc),
        "handlers.unattributed_ms": 1e3 * _center(unattributed),
        "vm.run_share": _center(run_share),
        "trace.overhead_ratio": (traced_p50 / untraced_p50
                                 if untraced_p50 else 0.0),
        "cache.hit_ratio": ratio("artifact_cache"),
        "vm.cache_hit_ratio": ratio("vm_cache"),
        "vm.cache_evictions": float(sum(evictions.values())),
    }


# -- library layers: in-process replay with the benchmark's own spans --------


class Recorder:
    """Nested wall-clock spans kept in memory, one replayed request at a
    time (the replay is single-threaded)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.mix = ""
        self.request = -1
        self.cell: tuple = ()

    def wrap(self, name: str, fn, attrs=None, before=None):
        """``fn`` timed as span ``name``; ``attrs(args, kwargs, result,
        token)`` annotates it, with ``token = before(args, kwargs)``."""
        recorder = self

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            frame = {"name": name, "children": 0.0}
            recorder._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                recorder._stack.pop()
                if recorder._stack:
                    recorder._stack[-1]["children"] += duration
            span = {"name": name, "mix": recorder.mix,
                    "request": recorder.request, "cell": recorder.cell,
                    "seconds": duration,
                    "self": duration - frame["children"],
                    "children": frame["children"]}
            if attrs is not None:
                span.update(attrs(args, kwargs, result, token))
            recorder.spans.append(span)
            return result

        return wrapper

    def of(self, name: str, mix: str | None = None, **match) -> list[dict]:
        return [s for s in self.spans if s["name"] == name
                and (mix is None or s["mix"] in mix.split("+"))
                and all(s.get(k) == v for k, v in match.items())]


@contextmanager
def instrumented(recorder: Recorder):
    """Wrap each layer's public entry points; restore them on exit."""
    import repro.codegen as codegen
    import repro.ir.fuse as fuse
    import repro.ir.interp as interp
    import repro.ir.staticcount as staticcount
    import repro.ir.vectorize as vectorize
    import repro.model.mdl as mdl
    import repro.model.slx as slx
    import repro.native.sharedlib as sharedlib
    import repro.serve.handlers as handlers
    from repro.serve.cache import ArtifactCache

    def artifact_bytes(args, kwargs, result, token):
        cache, key = args[0], args[1]
        try:
            size = cache._path(key).stat().st_size
        except (AttributeError, OSError):
            size = 0  # an unknown layout is left out of the median
        return {"hit": result is not None, "bytes": size}

    def vm_hit(args, kwargs, result, token):
        return {"hit": interp.vm_cache_stats()["hits"] > token,
                "backend": result.backend}

    real_make_generator = codegen.make_generator

    def make_generator(*args, **kwargs):
        generator = real_make_generator(*args, **kwargs)
        generator.generate = recorder.wrap("codegen.generate",
                                           generator.generate)
        return generator

    patches = [
        (handlers, "resolve_model", "handlers.resolve", None, None),
        (handlers, "model_fingerprint", "model.fingerprint", None, None),
        (slx, "load_slx", "model.parse", None, None),
        (mdl, "load_mdl", "model.parse", None, None),
        (ArtifactCache, "get", "cache.get", artifact_bytes, None),
        (ArtifactCache, "put", "cache.put", artifact_bytes, None),
        (fuse, "fuse_program", "fuse",
         lambda a, k, r, t: {"loops_after": r[1].loops_after}, None),
        (vectorize, "fingerprint", "vectorize.fingerprint", None, None),
        (interp, "cached_vm", "vm.acquire", vm_hit,
         lambda a, k: interp.vm_cache_stats()["hits"]),
        (interp.VirtualMachine, "__init__", "vm.build",
         lambda a, k, r, t: {"backend": a[0].backend}, None),
        (interp.VirtualMachine, "run", "vm.run",
         lambda a, k, r, t: {"backend": a[0].backend,
                             "steps": k.get("steps",
                                            a[2] if len(a) > 2 else 1)},
         None),
        (staticcount, "analyze_counts", "staticcount", None, None),
        (sharedlib, "load_shared_program", "native.load", None, None),
    ]
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, *_ in patches]
    saved.append((codegen, "make_generator", real_make_generator))
    try:
        for owner, attr, name, attrs, before in patches:
            setattr(owner, attr, recorder.wrap(name, getattr(owner, attr),
                                               attrs, before))
        codegen.make_generator = make_generator
        yield recorder
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


#: Requests replayed per mix: three passes over the hot cells (the first
#: builds every VM, as a restarted worker does), one over the long cells,
#: and a slice of the upload pool.
HOT_PASSES = 3
COLD_SAMPLE = 24


def replay(state, seed: int, report: "Report") -> tuple[dict, int, int]:
    """Replay each workload's sample in-process; returns (metrics,
    attempted, failed)."""
    from repro.ir.interp import clear_vm_cache
    from repro.native.sharedlib import clear_shared_program_cache
    from repro.serve.cache import ArtifactCache
    from repro.serve.handlers import handle_request
    from repro.serve.protocol import ServeError

    clear_vm_cache()  # start from a fresh worker's state
    clear_shared_program_cache()
    hot = wl.client_walks("hot_native", seed, wl.hot_cells(), 1)[0]
    long = wl.client_walks("long_sim", seed, wl.long_cells(), 1)[0]
    cold = wl.client_walks("cold_upload", seed, state.pool[wl.COLD_WARMUP:],
                           1)[0]
    mixes = [("hot_native", hot, HOT_PASSES * len(wl.hot_cells()),
              ArtifactCache(state.warm_dir)),
             ("long_sim", long, len(wl.long_cells()),
              ArtifactCache(state.warm_dir)),
             ("cold_upload", cold, COLD_SAMPLE,
              ArtifactCache(state.scratch("replay-cold")))]
    recorder = Recorder()
    attempted = failed = 0
    with warnings.catch_warnings(), instrumented(recorder):
        warnings.simplefilter("ignore", RuntimeWarning)
        for mix, walk, count, cache in mixes:
            recorder.mix = mix
            handle = recorder.wrap("worker.handle", handle_request)
            for _ in range(count):
                cell = walk()
                recorder.request += 1
                recorder.cell = (cell.get("model"), cell["generator"])
                attempted += 1
                try:
                    result, _ = handle(wl.wire(cell), cache)
                except ServeError:
                    failed += 1
                    continue
                failed += not harness.check({"ok": True, "result": result},
                                            state.refs.get(wl.cell_id(cell)))
    report.spans.extend(recorder.spans)
    for span in recorder.spans:
        report.add_span(f"replay {span['mix']}", span["name"],
                        span["seconds"], span["self"], span["children"])
    return library_layers(recorder), attempted, failed


def _ms_self(recorder: Recorder, name: str, mix: str | None,
             **match) -> float:
    return 1e3 * _center(s["self"] for s in recorder.of(name, mix, **match))


def _ms_total(recorder: Recorder, name: str, mix: str, **match) -> float:
    return 1e3 * _center(s["seconds"]
                         for s in recorder.of(name, mix, **match))


def _step_seconds(recorder: Recorder, backend: str) -> dict:
    """(model, generator) -> vm.run seconds per step on ``long_sim``."""
    return {s["cell"]: s["seconds"] / s["steps"]
            for s in recorder.of("vm.run", "long_sim", backend=backend)}


def library_layers(recorder: Recorder) -> dict:
    native = _step_seconds(recorder, "native")
    auto = _step_seconds(recorder, "auto")
    # The paper's headline, with simulink as the base: > 1 means the
    # frodo step is faster.
    ratios = [native[(m, "simulink")] / native[(m, "frodo")]
              for m in wl.ZOO
              if (m, "simulink") in native and (m, "frodo") in native]
    cold_requests = len(recorder.of("worker.handle", "cold_upload"))
    artifact_bytes = [s["bytes"] for s in recorder.spans
                      if s["name"] in ("cache.get", "cache.put")
                      and s["bytes"]]
    return {
        "handlers.resolve_ms": _ms_self(recorder, "handlers.resolve",
                                        "hot_native+cold_upload"),
        "cache.get_ms": _ms_self(recorder, "cache.get", "hot_native",
                                 hit=True),
        "cache.put_ms": _ms_self(recorder, "cache.put", "cold_upload"),
        "cache.artifact_bytes": float(_median(artifact_bytes)),
        "model.parse_ms": _ms_self(recorder, "model.parse", "cold_upload"),
        "model.fingerprint_ms": _ms_self(recorder, "model.fingerprint",
                                         "hot_native+cold_upload"),
        "codegen.generate_ms": _ms_self(recorder, "codegen.generate",
                                        "cold_upload"),
        "fuse.ms": _ms_self(recorder, "fuse", None),
        "fuse.calls_per_request": (len(recorder.of("fuse", "cold_upload"))
                                   / max(cold_requests, 1)),
        "fuse.loops_after": float(_median(
            s["loops_after"] for s in recorder.of("fuse",
                                                  "hot_native+long_sim"))),
        "vectorize.fingerprint_ms": _ms_self(
            recorder, "vectorize.fingerprint", "hot_native"),
        "vm.acquire_hit_ms": _ms_self(recorder, "vm.acquire", "hot_native",
                                      hit=True),
        # A build's total, children (fuse, staticcount, native.load)
        # included: the wait a restarted or cold worker pays.
        "vm.build_ms.vector": _ms_total(recorder, "vm.build", "cold_upload",
                                        backend="vector"),
        "vm.build_ms.native_warm": _ms_total(recorder, "vm.build",
                                             "hot_native", backend="native"),
        "vm.run_step_us.native": 1e6 * harness.geomean(native.values()),
        "vm.run_step_us.auto": 1e6 * harness.geomean(auto.values()),
        "vm.run_fixed_us.native": 1e6 * _center(
            s["seconds"] for s in recorder.of("vm.run", "hot_native",
                                              backend="native")),
        "codegen.frodo_vs_simulink_native": harness.geomean(ratios),
        "staticcount.ms": _ms_self(recorder, "staticcount", "hot_native"),
        "native.load_ms": _ms_self(recorder, "native.load", "hot_native"),
    }


class Report:
    """Per-source, per-span summary: calls, median duration and self time,
    and coverage — the share of the span's time its children account for."""

    def __init__(self):
        self._rows: dict = defaultdict(lambda: {"seconds": [], "self": [],
                                                "children": 0.0})
        #: The replay's raw spans, kept for the trace file.
        self.spans: list[dict] = []

    def add_span(self, source: str, name: str, seconds: float,
                 self_seconds: float, children: float) -> None:
        row = self._rows[(source, name)]
        row["seconds"].append(seconds)
        row["self"].append(self_seconds)
        row["children"] += children

    def rows(self) -> list[dict]:
        out = []
        for (source, name), row in sorted(self._rows.items()):
            total = sum(row["seconds"])
            out.append({"source": source, "span": name,
                        "calls": len(row["seconds"]),
                        "median_ms": 1e3 * _median(row["seconds"]),
                        "median_self_ms": 1e3 * _median(row["self"]),
                        "coverage": (row["children"] / total
                                     if total and row["children"] else None)})
        return out

    def lines(self) -> list[str]:
        lines = [f"{'source':22s} {'span':24s} {'calls':>6s} "
                 f"{'median ms':>10s} {'self ms':>10s} {'coverage':>9s}"]
        for r in self.rows():
            cov = "" if r["coverage"] is None else f"{r['coverage']:9.1%}"
            lines.append(f"{r['source']:22s} {r['span']:24s} {r['calls']:6d} "
                         f"{r['median_ms']:10.3f} {r['median_self_ms']:10.3f} "
                         f"{cov:>9s}")
        return lines
