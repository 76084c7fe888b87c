"""Command-line interface: ``frodo <command>``.

Mirrors how the paper's tool is used: point it at a ``.slx`` model (or a
named zoo model), inspect the calculation ranges, and generate C code with
FRODO or any of the baseline generators.  The experiment commands
regenerate the paper's tables and figures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.codegen import ALL_GENERATORS, FRODO_VARIANTS, emit_c, make_generator
from repro.core.analysis import analyze
from repro.core.ranges import determine_ranges
from repro.model.graph import Model
from repro.model.mdl import load_mdl, save_mdl
from repro.model.slx import load_slx, save_slx


def _resolve_model(spec: str) -> Model:
    """A model argument is a zoo name, a corpus spec, or a .slx path."""
    from repro.corpus import build_corpus_model, corpus_spec_help, is_corpus_spec
    from repro.zoo import EXTENDED_MODELS, MODELS, build_model
    if is_corpus_spec(spec):
        from repro.errors import ModelError
        try:
            return build_corpus_model(spec)
        except ModelError as exc:
            raise SystemExit(str(exc))
    if spec in MODELS or spec in EXTENDED_MODELS or spec == "Motivating":
        return build_model(spec)
    path = Path(spec)
    if path.exists():
        return load_mdl(path) if path.suffix == ".mdl" else load_slx(path)
    known = ", ".join([*MODELS, *EXTENDED_MODELS, "Motivating"])
    raise SystemExit(f"unknown model {spec!r}: not a zoo name ({known}), "
                     f"not a corpus spec ({corpus_spec_help()}), "
                     "and no such file")


def cmd_list_models(_args) -> None:
    from repro.eval.experiments import table1
    print(table1())


def cmd_show_ranges(args) -> None:
    model = _resolve_model(args.model)
    analyzed = analyze(model)
    ranges = determine_ranges(analyzed)
    print(f"model {model.name}: {len(ranges.optimizable)} optimizable "
          f"block(s), {ranges.eliminated_elements(analyzed)} elements "
          "eliminated")
    for name in analyzed.schedule:
        sig = analyzed.signal_of(name)
        rng = ranges.output_range[name]
        marker = " *" if name in ranges.optimizable else ""
        print(f"  {name:30s} {str(sig.shape):>10s} "
              f"range={rng.describe()}{marker}")


def cmd_generate(args) -> None:
    model = _resolve_model(args.model)
    generator = make_generator(args.generator)
    code = generator.generate(model)
    source = emit_c(code.program)
    if args.output:
        out_path = Path(args.output)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(source)
        print(f"wrote {out_path} ({len(source.splitlines())} lines, "
              f"{code.program.static_bytes} static bytes)")
    else:
        print(source)


def cmd_export(args) -> None:
    model = _resolve_model(args.model)
    target = Path(args.output)
    if target.suffix == ".mdl":
        path = save_mdl(model, target)
    else:
        path = save_slx(model, target)
    print(f"wrote {path}")


def cmd_validate(args) -> None:
    from repro.eval.validate import validate_all
    model = _resolve_model(args.model)
    reports = validate_all(model, seeds=range(args.cases), steps=args.steps,
                           backend=args.backend, fuse=args.fuse)
    failed = False
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"{report.generator:10s} {status} ({report.cases} random cases)")
        for failure in report.failures:
            failed = True
            print(f"    {failure}")
    if failed:
        raise SystemExit(1)


def cmd_table2(_args) -> None:
    from repro.eval.experiments import table2
    result = table2()
    print(result.render())
    for profile in ("x86-gcc", "x86-clang"):
        ranges = result.improvement_ranges(profile)
        summary = ", ".join(f"{low:.2f}x-{high:.2f}x vs {gen}"
                            for gen, (low, high) in ranges.items())
        print(f"FRODO on {profile}: {summary}")


def cmd_figure6(args) -> None:
    from repro.eval.experiments import figure6
    print(figure6(args.profile).render())


def cmd_memory(_args) -> None:
    from repro.eval.experiments import memory_study
    print(memory_study())


def cmd_crosscheck(args) -> None:
    from repro.eval.crosscheck import crosscheck, render_crosscheck
    models = [_resolve_model(args.model)] if args.model else None
    cells = crosscheck(models=models, native=args.native,
                       seeds=range(args.cases), steps=args.steps,
                       backend=args.backend, fuse=args.fuse)
    print(render_crosscheck(cells))
    if any(not cell.ok for cell in cells):
        raise SystemExit(1)


def cmd_dot(args) -> None:
    from repro.core.ranges import determine_ranges
    from repro.model.dot import model_to_dot
    model = _resolve_model(args.model)
    analyzed = analyze(model)
    ranges = determine_ranges(analyzed) if not args.no_ranges else None
    text = model_to_dot(analyzed, ranges)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)


def cmd_compile(args) -> None:
    """Emit C, compile with the host toolchain, run, and report."""
    import numpy as np
    from repro.native import compile_and_run, find_compiler
    from repro.sim.simulator import random_inputs, simulate
    if find_compiler() is None:
        raise SystemExit("no C compiler found on PATH")
    model = _resolve_model(args.model)
    code = make_generator(args.generator).generate(model)
    inputs = random_inputs(model, seed=args.seed)
    result = compile_and_run(code, inputs, steps=args.steps,
                             repetitions=args.repetitions,
                             workdir=args.keep_sources)
    expected = simulate(model, inputs, steps=args.steps)
    for key in expected:
        ok = np.allclose(np.asarray(result.outputs[key]).ravel(),
                         np.asarray(expected[key]).ravel(),
                         rtol=1e-9, atol=1e-12)
        print(f"output {key}: {'matches simulation' if ok else 'MISMATCH'}")
        if not ok:
            raise SystemExit(1)
    if result.seconds is not None:
        print(f"{args.repetitions} repetitions: {result.seconds:.4f}s")
    if result.source_dir:
        print(f"sources kept in {result.source_dir}")


def cmd_profile(args) -> None:
    from repro.eval.profile import render_profile
    model = _resolve_model(args.model)
    print(render_profile(model, generator=args.generator,
                         profile_name=args.profile, steps=args.steps,
                         backend=args.backend))


def cmd_report(args) -> None:
    from repro.eval.fullreport import report_all
    written = report_all(args.output, include_sweeps=not args.no_sweeps)
    print(f"{len(written)} artifact(s) in {args.output}")


def _block_rows() -> list[list[str]]:
    from repro.blocks import get_spec, registered_types
    rows = []
    for type_name in registered_types():
        spec = get_spec(type_name)
        arity_hi = "n" if spec.max_inputs is None else str(spec.max_inputs)
        arity = str(spec.min_inputs) if arity_hi == str(spec.min_inputs) \
            else f"{spec.min_inputs}..{arity_hi}"
        traits = ", ".join(trait for trait, flag in (
            ("source", spec.is_source), ("sink", spec.is_sink),
            ("stateful", spec.is_stateful), ("truncation", spec.is_truncation),
        ) if flag)
        doc_lines = (spec.__doc__ or "").strip().splitlines()
        summary = doc_lines[0] if doc_lines else ""
        rows.append([type_name, arity, traits, summary])
    return rows


def cmd_blocks(args) -> None:
    """Print the block property library reference (text or markdown)."""
    rows = _block_rows()
    if getattr(args, "markdown", False):
        lines = [
            "# Block property library reference",
            "",
            "Generated by `frodo blocks --markdown`; every entry carries the",
            "full contract (validation, semantics, I/O mapping, range-aware",
            "emission) described in docs/architecture.md.",
            "",
            f"{len(rows)} supported block types:",
            "",
            "| BlockType | inputs | traits | summary |",
            "| --- | --- | --- | --- |",
        ]
        for row in rows:
            lines.append("| " + " | ".join(str(c) for c in row) + " |")
        print("\n".join(lines))
        return
    from repro.eval.report import format_table
    short = [[r[0], r[1], r[2], r[3][:60]] for r in rows]
    print(format_table(["BlockType", "inputs", "traits", "summary"], short,
                       title=f"block property library "
                             f"({len(rows)} supported types)"))


def cmd_trace(args) -> None:
    """Trace one model through the local pipeline and export the spans."""
    from repro.ir.interp import cached_vm
    from repro.obs import (render_spans, start_trace, tracing,
                           write_chrome_trace, write_jsonl)
    from repro.sim.simulator import random_inputs
    root = start_trace("trace", model=args.model, generator=args.generator,
                       backend=args.backend, steps=args.steps)
    with root:
        with tracing.span("model.build"):
            model = _resolve_model(args.model)
        with tracing.span("codegen", generator=args.generator):
            code = make_generator(args.generator).generate(model)
        with tracing.span("inputs", seed=args.seed):
            named = random_inputs(model, seed=args.seed)
        with tracing.span("vm.acquire", backend=args.backend,
                          fuse=args.fuse):
            vm = cached_vm(code.program, backend=args.backend,
                           fuse=args.fuse)
        inputs = {code.input_buffers[n]: v for n, v in named.items()}
        vm.run(inputs, steps=args.steps)  # opens its own vm.run span
    spans = root.export()
    out = Path(args.output or f"{model.name}_trace.json")
    if args.jsonl:
        write_jsonl(out, spans, append=False)
        kind = "JSON-lines"
    else:
        write_chrome_trace(out, spans)
        kind = "Chrome trace (load in chrome://tracing or ui.perfetto.dev)"
    print(render_spans(spans))
    print(f"wrote {len(spans)} span(s) to {out} as {kind}")


def cmd_serve(args) -> None:
    """Run the compile-and-execute service until interrupted."""
    import asyncio
    from repro.serve import ServeConfig, run_server
    cache_dir = None if args.no_cache else args.cache_dir
    config = ServeConfig(host=args.host, port=args.port,
                         workers=args.workers, cache_dir=cache_dir,
                         timeout_seconds=args.request_timeout,
                         max_pending=args.max_pending,
                         allow_debug=args.debug_ops,
                         allow_shutdown=not args.no_shutdown_op,
                         max_batch=args.max_batch,
                         trace_log=args.trace_log,
                         adaptive=args.adaptive,
                         promote_threshold_ms=args.promote_threshold_ms,
                         promote_min_runs=args.promote_min_runs,
                         promote_compiles=args.promote_compiles,
                         vm_cache_max=args.vm_cache_max,
                         shard=args.shard_id,
                         store=args.store)

    if args.cluster:
        _serve_cluster(args, config)
        return

    def announce(server) -> None:
        cache = cache_dir or "disabled"
        tier = ", adaptive tier: on" if args.adaptive else ""
        shard = f", shard: {args.shard_id}" if args.shard_id else ""
        print(f"frodo serve: listening on {config.host}:{server.port} "
              f"({args.workers} worker(s), artifact cache: {cache}"
              f"{tier}{shard})", flush=True)

    try:
        asyncio.run(run_server(config, announce=announce))
    except KeyboardInterrupt:
        print("frodo serve: interrupted, shutting down")


def _serve_cluster(args, template) -> None:
    """``frodo serve --cluster N``: store + N shards + router."""
    import time as _time
    from repro.serve.cluster import ClusterConfig, ClusterSupervisor
    if args.shard_id or args.store:
        raise SystemExit("--cluster spawns its own shards; "
                         "--shard-id/--store are for shard processes")
    root = args.cluster_root or (args.cache_dir + "-cluster"
                                 if not args.no_cache else ".frodo-cluster")
    cluster = ClusterConfig(shards=args.cluster, template=template,
                            workers_per_shard=max(args.workers, 1),
                            root=root)
    supervisor = ClusterSupervisor(cluster)
    port = supervisor.start()
    assert supervisor.store is not None
    print(f"frodo serve: cluster router listening on {args.host}:{port} "
          f"({args.cluster} shard(s) × {cluster.workers_per_shard} "
          f"worker(s), store {supervisor.store.address}, root {root})",
          flush=True)
    for name, shard_port in supervisor.shard_ports().items():
        print(f"frodo serve:   shard {name} on 127.0.0.1:{shard_port}",
              flush=True)
    try:
        while True:
            _time.sleep(1.0)
    except KeyboardInterrupt:
        print("frodo serve: interrupted, shutting down cluster")
    finally:
        # A repeated/forwarded SIGINT mid-drain must not abandon shard
        # subprocesses — the teardown sequence runs exactly once.
        import signal as _signal
        try:
            _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
        except ValueError:  # not the main thread (tests)
            pass
        supervisor.stop()


def cmd_submit(args) -> None:
    """One-shot client request against a running ``frodo serve``."""
    import json as _json
    from repro.serve.client import ServeClient, ServeRequestError
    fields: dict = {}
    if args.model:
        path = Path(args.model)
        if path.suffix in (".slx", ".mdl") and path.exists():
            fields.update(ServeClient.payload_fields(path))
        else:
            fields["model"] = args.model
    if args.op in ("compile", "run", "run_batch", "report"):
        fields["generator"] = args.generator
        fields["fuse"] = args.fuse
    if args.op in ("run", "report"):
        fields.update(backend=args.backend, steps=args.steps, seed=args.seed)
    if args.op == "run_batch":
        fields.update(backend=args.backend, steps=args.steps,
                      instances=[{"seed": args.seed + s}
                                 for s in range(args.batch)])
    if args.op in ("run", "run_batch") and args.no_outputs:
        fields["include_outputs"] = False
    try:
        with ServeClient(args.host, args.port,
                         timeout=args.timeout) as client:
            result = client.request(args.op, **fields)
    except ServeRequestError as exc:
        raise SystemExit(f"server error {exc}")
    except OSError as exc:
        raise SystemExit(
            f"cannot reach server at {args.host}:{args.port}: {exc}")
    if args.op == "metrics" and "text" in result:
        print(result["text"], end="")
    else:
        print(_json.dumps(result, indent=2))


def cmd_bench_serve(args) -> None:
    argv = []
    if args.quick:
        argv.append("--quick")
    if args.output:
        argv.extend(["--output", args.output])
    if args.cluster:
        from repro.serve.bench_cluster import main as bench_main
    else:
        from repro.serve.bench import main as bench_main
        if args.corpus:
            argv.extend(["--corpus", str(args.corpus)])
    raise SystemExit(bench_main(argv))


def _corpus_config(args):
    from repro.corpus import GenConfig
    return GenConfig(blocks=args.blocks, vector_len=args.vector_len,
                     truncation=args.truncation, stateful=args.stateful)


def cmd_corpus_gen(args) -> None:
    """Generate corpus models; write .slx files or print summaries."""
    from repro.corpus import corpus_name, generate_model, model_stats
    config = _corpus_config(args)
    out_dir = Path(args.output) if args.output else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        seed = args.seed + i
        model = generate_model(seed, config)
        stats = model_stats(model)
        if out_dir:
            path = out_dir / f"{corpus_name(seed, config)}.slx"
            save_slx(model, path)
            print(f"wrote {path} ({stats['blocks']} blocks, "
                  f"{stats['truncating_blocks']} truncating)")
        else:
            print(f"seed={seed} {stats['name']}: {stats['blocks']} blocks, "
                  f"{stats['connections']} connections, "
                  f"{stats['truncating_blocks']} truncating, "
                  f"{stats['stateful_blocks']} stateful")


def cmd_corpus_fuzz(args) -> None:
    """Differential-fuzz generated models across generators x backends."""
    from repro.eval.crosscheck import DEFAULT_GENERATORS
    from repro.fuzz import fuzz_corpus, make_injector
    config = _corpus_config(args)
    generators = tuple(args.generators.split(",")) if args.generators \
        else DEFAULT_GENERATORS
    inject = make_injector(args.inject) if args.inject else None
    report = fuzz_corpus(seed=args.seed, count=args.count, config=config,
                         generators=generators, steps=args.steps,
                         batch=args.batch,
                         check_simulator=not args.no_simulator,
                         inject=inject,
                         shrink_failures=not args.no_shrink,
                         reproducer_dir=args.reproducer_dir,
                         log=print)
    summary = report.summary()
    print(f"fuzzed {summary['models']} models / {summary['legs_run']} legs: "
          f"{summary['failures']} failing, "
          f"{summary['mismatches']} mismatch(es)"
          + (f", skipped backends: {', '.join(summary['backends_skipped'])}"
             if summary['backends_skipped'] else ""))
    for case in report.failures:
        for mismatch in case.mismatches[:4]:
            print(f"  seed={case.seed}: {mismatch.describe()}")
    if not report.ok:
        raise SystemExit(1)


def cmd_corpus_stats(args) -> None:
    """Aggregate structural statistics over a corpus slice."""
    from repro.corpus import generate_model, model_stats
    config = _corpus_config(args)
    totals: dict[str, int] = {}
    blocks = connections = truncating = stateful = 0
    for i in range(args.count):
        stats = model_stats(generate_model(args.seed + i, config))
        blocks += stats["blocks"]
        connections += stats["connections"]
        truncating += stats["truncating_blocks"]
        stateful += stats["stateful_blocks"]
        for type_name, n in stats["by_type"].items():
            totals[type_name] = totals.get(type_name, 0) + n
    print(f"corpus seed={args.seed} count={args.count} "
          f"(blocks={config.blocks}, vector_len={config.vector_len}, "
          f"truncation={config.truncation}):")
    print(f"  {blocks} blocks, {connections} connections; "
          f"{truncating} truncating ({100 * truncating / max(1, blocks):.1f}%), "
          f"{stateful} stateful")
    width = max(len(t) for t in totals)
    for type_name, n in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {type_name:{width}s} {n}")


def _add_corpus_knobs(p: argparse.ArgumentParser) -> None:
    from repro.corpus import GenConfig
    defaults = GenConfig()
    p.add_argument("--seed", type=int, default=0,
                   help="first generation seed (models use seed..seed+N-1)")
    p.add_argument("--count", type=int, default=10,
                   help="number of models to generate")
    p.add_argument("--blocks", type=int, default=defaults.blocks,
                   help="target drawn-operation blocks per model")
    p.add_argument("--vector-len", type=int, default=defaults.vector_len,
                   help="primary input vector width")
    p.add_argument("--truncation", type=float, default=defaults.truncation,
                   help="data-truncation density in [0, 1)")
    p.add_argument("--stateful", type=float, default=defaults.stateful,
                   help="stateful-block (delay) density in [0, 1)")


def _add_fuse_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-fuse", dest="fuse", action="store_false",
                   default=True,
                   help="disable the IR-level loop-fusion pass "
                        "(repro.ir.fuse); fusion is on by default")


def _add_backend_flag(p: argparse.ArgumentParser) -> None:
    from repro.ir.interp import BACKENDS
    p.add_argument("--backend", default="auto", choices=list(BACKENDS),
                   help="VM execution backend: numpy-vectorized kernels "
                        "with closure fallback (auto/vector), the pure "
                        "closure interpreter (closure), or the emitted C "
                        "compiled to an in-process shared object (native; "
                        "needs a C toolchain, fails with a typed error "
                        "if none is found)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frodo",
        description="FRODO reproduction: redundancy-eliminating code "
                    "generation for data-intensive Simulink models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="print the Table 1 inventory") \
        .set_defaults(func=cmd_list_models)

    p = sub.add_parser("show-ranges",
                       help="print per-block calculation ranges")
    p.add_argument("model", help="zoo model name or .slx path")
    p.set_defaults(func=cmd_show_ranges)

    p = sub.add_parser("generate", help="generate C code for a model")
    p.add_argument("model", help="zoo model name or .slx/.mdl path")
    p.add_argument("-g", "--generator", default="frodo",
                   choices=[*ALL_GENERATORS, *FRODO_VARIANTS])
    p.add_argument("-o", "--output", help="write C to this path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("export", help="write a zoo model as .slx")
    p.add_argument("model")
    p.add_argument("output")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("validate",
                       help="random-testing validation vs simulation")
    p.add_argument("model")
    p.add_argument("--cases", type=int, default=5)
    p.add_argument("--steps", type=int, default=3)
    _add_backend_flag(p)
    _add_fuse_flag(p)
    p.set_defaults(func=cmd_validate)

    sub.add_parser("table2", help="regenerate Table 2 (x86 profiles)") \
        .set_defaults(func=cmd_table2)

    p = sub.add_parser("figure6", help="regenerate Figure 6 (ARM)")
    p.add_argument("--profile", default="arm-gcc",
                   choices=["arm-gcc", "arm-clang"])
    p.set_defaults(func=cmd_figure6)

    sub.add_parser("memory", help="regenerate the §5 memory study") \
        .set_defaults(func=cmd_memory)

    p = sub.add_parser("blocks", help="list the block property library")
    p.add_argument("--markdown", action="store_true")
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("crosscheck",
                       help="model x generator x backend consistency matrix")
    p.add_argument("model", nargs="?", default=None)
    p.add_argument("--native", action="store_true",
                   help="also compile and run with the host C compiler")
    p.add_argument("--cases", type=int, default=2)
    p.add_argument("--steps", type=int, default=2)
    _add_backend_flag(p)
    _add_fuse_flag(p)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("dot",
                       help="export the dataflow graph as Graphviz DOT")
    p.add_argument("model")
    p.add_argument("-o", "--output")
    p.add_argument("--no-ranges", action="store_true")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("compile",
                       help="compile the emitted C natively and check it")
    p.add_argument("model")
    p.add_argument("-g", "--generator", default="frodo",
                   choices=[*ALL_GENERATORS, *FRODO_VARIANTS])
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--repetitions", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--keep-sources", metavar="DIR", default=None)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("profile",
                       help="per-block cost breakdown of generated code")
    p.add_argument("model")
    p.add_argument("-g", "--generator", default="frodo",
                   choices=[*ALL_GENERATORS, *FRODO_VARIANTS])
    p.add_argument("--profile", default="x86-gcc",
                   choices=["x86-gcc", "x86-clang", "arm-gcc", "arm-clang"])
    p.add_argument("--steps", type=int, default=1)
    _add_backend_flag(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("report",
                       help="regenerate every table/figure into a directory")
    p.add_argument("-o", "--output", default="frodo_report")
    p.add_argument("--no-sweeps", action="store_true")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("serve",
                       help="run the compile-and-execute service "
                            "(NDJSON over TCP + HTTP shim)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7433)
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes (0 = inline, tests only)")
    p.add_argument("--cache-dir", default=".frodo-serve-cache",
                   help="persistent artifact cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the on-disk artifact cache")
    p.add_argument("--request-timeout", type=float, default=60.0,
                   help="per-request deadline in seconds")
    p.add_argument("--max-pending", type=int, default=16,
                   help="queued requests before shedding with 'busy'")
    p.add_argument("--debug-ops", action="store_true",
                   help="enable debug ops (sleep) for timeout testing")
    p.add_argument("--no-shutdown-op", action="store_true",
                   help="ignore the protocol-level shutdown op")
    p.add_argument("--max-batch", type=int, default=8,
                   help="coalesce up to N compatible run requests that "
                        "queue behind busy workers into one batched "
                        "worker call (1 = disable coalescing)")
    p.add_argument("--trace-log", default=None, metavar="PATH",
                   help="trace every request and append finished spans "
                        "to this JSON-lines file")
    p.add_argument("--adaptive", action="store_true",
                   help="tiered execution for backend=auto: serve on the "
                        "vector VM immediately and promote hot models to "
                        "native via background compilation")
    p.add_argument("--promote-threshold-ms", type=float, default=None,
                   metavar="MS",
                   help="fixed promotion threshold in estimated vector-"
                        "work milliseconds (default: seeded per model "
                        "from the cost model's compile estimate)")
    p.add_argument("--promote-min-runs", type=int, default=2,
                   help="requests a model needs before it is "
                        "promotion-eligible")
    p.add_argument("--promote-compiles", type=int, default=1,
                   help="background native compiles in flight per worker")
    p.add_argument("--vm-cache-max", type=int, default=None, metavar="N",
                   help="per-worker warm table bound (LRU beyond; "
                        "default 64)")
    p.add_argument("--cluster", type=int, default=0, metavar="N",
                   help="run a sharded fleet: N shard processes behind a "
                        "consistent-hashing router plus a shared "
                        "artifact store (see docs/cluster.md)")
    p.add_argument("--cluster-root", default=None, metavar="DIR",
                   help="cluster state directory (store + per-shard "
                        "caches; default <cache-dir>-cluster)")
    p.add_argument("--shard-id", default=None, metavar="NAME",
                   help="shard identity (set by the cluster supervisor; "
                        "stamps response meta and the metrics shard "
                        "label)")
    p.add_argument("--store", default=None, metavar="HOST:PORT",
                   help="shared artifact store to read through and "
                        "publish to (set by the cluster supervisor)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("trace",
                       help="run one model through the pipeline and "
                            "export a span timeline")
    p.add_argument("model", help="zoo model name or .slx/.mdl path")
    p.add_argument("-g", "--generator", default="frodo",
                   choices=[*ALL_GENERATORS, *FRODO_VARIANTS])
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None,
                   help="output path (default <model>_trace.json)")
    p.add_argument("--jsonl", action="store_true",
                   help="write flat JSON-lines spans instead of the "
                        "Chrome trace-event format")
    _add_backend_flag(p)
    _add_fuse_flag(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("submit",
                       help="send one request to a running frodo serve")
    p.add_argument("op", choices=["ping", "compile", "run", "run_batch",
                                  "ranges", "report", "metrics", "shutdown"])
    p.add_argument("model", nargs="?", default=None,
                   help="zoo model name or .slx/.mdl file to upload")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7433)
    p.add_argument("--timeout", type=float, default=120.0)
    p.add_argument("-g", "--generator", default="frodo",
                   choices=[*ALL_GENERATORS, *FRODO_VARIANTS])
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch", type=int, default=4,
                   help="run_batch only: number of instances "
                        "(seeded --seed .. --seed+N-1)")
    p.add_argument("--no-outputs", action="store_true",
                   help="omit output arrays from run results")
    _add_backend_flag(p)
    _add_fuse_flag(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("bench-serve",
                       help="serving throughput/latency benchmark "
                            "(writes BENCH_serve.json)")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--corpus", type=int, default=0, metavar="N",
                   help="also bench hot-vs-diverse traffic over N distinct "
                        "generated corpus fingerprints")
    p.add_argument("--cluster", action="store_true",
                   help="run the sharded-fleet benchmark instead "
                        "(writes BENCH_cluster.json: shard scaling, "
                        "cold-compile dedup, kill recovery)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench_serve)

    p = sub.add_parser("corpus",
                       help="seeded synthetic model corpus: generate, "
                            "differential-fuzz, or summarize")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)

    cg = corpus_sub.add_parser("gen",
                               help="generate models (print stats or "
                                    "write .slx files)")
    _add_corpus_knobs(cg)
    cg.add_argument("-o", "--output", default=None, metavar="DIR",
                    help="write each model as DIR/<name>.slx")
    cg.set_defaults(func=cmd_corpus_gen)

    cf = corpus_sub.add_parser("fuzz",
                               help="differential fuzz: all generators x "
                                    "backends x fuse x batch, bitwise "
                                    "outputs + exact element-op counts")
    _add_corpus_knobs(cf)
    cf.add_argument("--steps", type=int, default=3)
    cf.add_argument("--batch", type=int, default=3,
                    help="batch width for the run_batch legs "
                         "(1 disables them)")
    cf.add_argument("--generators", default=None,
                    help="comma-separated generator subset "
                         "(default: all four)")
    cf.add_argument("--no-simulator", action="store_true",
                    help="skip the reference-simulator comparison")
    cf.add_argument("--no-shrink", action="store_true",
                    help="do not shrink failing models")
    cf.add_argument("--reproducer-dir", default=None, metavar="DIR",
                    help="save shrunk failing models as .slx here")
    cf.add_argument("--inject", default=None, metavar="BLOCKTYPE",
                    help="deliberately corrupt outputs of models computing "
                         "this block type (harness self-test / shrink demo)")
    cf.set_defaults(func=cmd_corpus_fuzz)

    cs = corpus_sub.add_parser("stats",
                               help="aggregate block statistics over a "
                                    "corpus slice")
    _add_corpus_knobs(cs)
    cs.set_defaults(func=cmd_corpus_stats)
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main(sys.argv[1:])
