"""C99 emission from the loop IR.

Produces a self-contained translation unit with:

* ``static`` const/state/temp arrays (state arrays carry initializers);
* ``void <name>_init(void)`` restoring **every** mutable static buffer —
  state initializers are replayed element by element, uninitialized
  state and temp arrays are ``memset`` back to all-bits-zero (bitwise
  identical to the VM's ``_fill_initial``), and then the program's init
  statements run.  A single loaded shared object can therefore serve
  many independent requests: calling ``_init`` between runs is
  equivalent to a fresh process image;
* ``void <name>_step(const T* in..., T* out...)`` with the step body —
  the paper's code shape, and what :mod:`repro.native.compile` times;
* ``void <name>_run(int64_t nb, int64_t steps, int64_t init,
  void *const *bufs)``, the one in-process entry point
  (:mod:`repro.native.sharedlib`).  ``bufs`` points at the caller's
  input/output/state/temp arrays of ``nb`` consecutive instances each
  (``max(size, 1)`` elements per instance); per instance it resets when
  ``init`` is set and runs ``steps`` steps, the loops in C.  State lives
  in the caller's arrays, so two callers over one loaded image never
  share it (``const`` tables stay shared statics: they are read-only).
  The body is the program's statements verbatim over ``restrict``
  pointer parameters that shadow the statics; §5 generic-function calls
  are inlined first (:func:`repro.ir.batch.inline_calls`) so callee
  accesses resolve to those parameters too.  One compiled object serves
  any batch size.

The emitted source compiles with the sandbox's ``gcc -std=c11 -O3`` and is
exercised end-to-end by :mod:`repro.native`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodegenError
from repro.ir.ops import (
    Assign, BinOp, BufferDecl, Call, CallStmt, Comment, Const, Expr, For,
    FuncDef, If, Load, Program, Select, Stmt, UnOp, Var, c_type,
)

_HEADER = """\
#include <stdint.h>
#include <stdbool.h>
#include <string.h>
#include <math.h>
#include <complex.h>
"""


def _c_literal(value: object, dtype_hint: str = "") -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        if dtype_hint == "uint32":
            return f"{int(value) & 0xFFFFFFFF}u"
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        text = repr(float(value))
        return text if any(c in text for c in ".eE") or "inf" in text or "nan" in text \
            else text + ".0"
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return f"({_c_literal(c.real)} + {_c_literal(c.imag)} * I)"
    raise CodegenError(f"cannot emit C literal for {value!r} ({type(value)})")


_CALL_NAMES = {
    "sqrt": "sqrt", "fabs": "fabs", "exp": "exp", "log": "log",
    "sin": "sin", "cos": "cos", "tan": "tan",
    "fmin": "fmin", "fmax": "fmax",
    "floor": "floor", "ceil": "ceil", "round": "round",
    "conj": "conj", "creal": "creal", "cimag": "cimag",
}


def emit_expr(expr: Expr) -> str:
    if isinstance(expr, Const):
        return _c_literal(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Load):
        return f"{expr.buffer}[{emit_expr(expr.index)}]"
    if isinstance(expr, BinOp):
        return f"({emit_expr(expr.lhs)} {expr.op} {emit_expr(expr.rhs)})"
    if isinstance(expr, UnOp):
        return f"({expr.op}{emit_expr(expr.operand)})"
    if isinstance(expr, Call):
        if expr.func == "toint":
            return f"((int64_t)({emit_expr(expr.args[0])}))"
        try:
            name = _CALL_NAMES[expr.func]
        except KeyError:
            raise CodegenError(f"no C mapping for call {expr.func!r}") from None
        args = ", ".join(emit_expr(a) for a in expr.args)
        return f"{name}({args})"
    if isinstance(expr, Select):
        return (f"({emit_expr(expr.cond)} ? {emit_expr(expr.if_true)}"
                f" : {emit_expr(expr.if_false)})")
    raise CodegenError(f"cannot emit expression {expr!r}")


def emit_stmt(stmt: Stmt, indent: int) -> list[str]:
    pad = "    " * indent
    if isinstance(stmt, Comment):
        return [f"{pad}/* {stmt.text} */"]
    if isinstance(stmt, Assign):
        return [f"{pad}{stmt.buffer}[{emit_expr(stmt.index)}] = "
                f"{emit_expr(stmt.value)};"]
    if isinstance(stmt, For):
        if stmt.segments is not None and len(stmt.segments) > 1:
            # Fused multi-range loop: one shared body driven by a static
            # segment table (repro.ir.fuse keeps segments sorted/disjoint).
            segs = stmt.segments
            table = ", ".join(f"{{{a}, {b}}}" for a, b in segs)
            seg = f"__seg_{stmt.var}"
            inner_pad = "    " * (indent + 1)
            lines = [
                f"{pad}{{",
                f"{inner_pad}static const int64_t "
                f"__segs_{stmt.var}[{len(segs)}][2] = {{{table}}};",
                f"{inner_pad}for (int64_t {seg} = 0; {seg} < {len(segs)}; "
                f"{seg}++) {{",
                f"{inner_pad}    for (int64_t {stmt.var} = "
                f"__segs_{stmt.var}[{seg}][0]; "
                f"{stmt.var} < __segs_{stmt.var}[{seg}][1]; "
                f"{stmt.var}++) {{",
            ]
            if stmt.forced_simd:
                lines.insert(0, f"{pad}/* HCG: lowered with SIMD intrinsics */")
            for inner in stmt.body:
                lines.extend(emit_stmt(inner, indent + 2))
            lines.append(f"{inner_pad}    }}")
            lines.append(f"{inner_pad}}}")
            lines.append(f"{pad}}}")
            return lines
        start = stmt.start if isinstance(stmt.start, int) \
            else emit_expr(stmt.start)
        stop = stmt.stop if isinstance(stmt.stop, int) \
            else emit_expr(stmt.stop)
        opener = f"{pad}for (int64_t {stmt.var} = {start}; " \
                 f"{stmt.var} < {stop}; {stmt.var}++) {{"
        lines = [opener]
        if stmt.forced_simd:
            lines.insert(0, f"{pad}/* HCG: lowered with SIMD intrinsics */")
        for inner in stmt.body:
            lines.extend(emit_stmt(inner, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, CallStmt):
        args = list(stmt.buffer_args) + [emit_expr(a) for a in stmt.scalar_args]
        return [f"{pad}{stmt.func}({', '.join(args)});"]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({emit_expr(stmt.cond)}) {{"]
        for inner in stmt.then:
            lines.extend(emit_stmt(inner, indent + 1))
        if stmt.orelse:
            lines.append(f"{pad}}} else {{")
            for inner in stmt.orelse:
                lines.extend(emit_stmt(inner, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise CodegenError(f"cannot emit statement {stmt!r}")


def _array_initializer(decl: BufferDecl) -> str:
    values = np.asarray(decl.init, dtype=decl.dtype).ravel()
    return "{" + ", ".join(
        _c_literal(v.item() if hasattr(v, "item") else v, decl.dtype)
        for v in values
    ) + "}"


def _declare_static(decl: BufferDecl, qualifier: str = "static") -> str:
    base = f"{qualifier} {c_type(decl.dtype)} {decl.name}[{max(decl.size, 1)}]"
    if decl.init is not None:
        return f"{base} = {_array_initializer(decl)};"
    return f"{base};"


def _emit_function(func: FuncDef) -> list[str]:
    """Emit one §5 generic function (static linkage)."""
    params: list[str] = []
    for p in func.params:
        if p.pointer:
            qualifier = "const " if p.const else ""
            params.append(f"{qualifier}{c_type(p.dtype)}* {p.name}")
        else:
            params.append(f"{c_type(p.dtype)} {p.name}")
    lines = [f"static void {func.name}({', '.join(params)}) {{"]
    for stmt in func.body:
        lines.extend(emit_stmt(stmt, 1))
    lines.append("}")
    return lines


def emit_c(program: Program) -> str:
    """Emit the full translation unit for a program."""
    from repro.ir.fuse import lower_windows  # local: fuse imports ops too

    program = lower_windows(program)  # no-op when no ring buffers
    lines: list[str] = [_HEADER]
    lines.append(f"/* generated by {program.generator or 'repro'} for model "
                 f"{program.name} */")
    lines.append("")

    for decl in program.buffers_of_kind("const"):
        lines.append(_declare_static(decl, "static const"))
    for decl in program.buffers_of_kind("state"):
        lines.append(_declare_static(decl))
    for decl in program.buffers_of_kind("temp"):
        lines.append(_declare_static(decl))
    lines.append("")

    for func in program.functions.values():
        lines.extend(_emit_function(func))
        lines.append("")

    # init: full reset of every mutable static buffer (initializers
    # replayed, everything else zeroed — IEEE-754 zero is all-bits-zero,
    # so memset matches the VM's `buffer[:] = 0` bitwise), then replay
    # program.init.  Repeated _init calls on one loaded image must be
    # indistinguishable from a fresh process start.
    lines.append(f"void {program.name}_init(void) {{")
    lines.extend(_reset_lines(program, program.init, indent=1,
                              per_instance=False))
    lines.append("}")
    lines.append("")

    params: list[str] = []
    for decl in program.buffers_of_kind("input"):
        params.append(f"const {c_type(decl.dtype)}* {decl.name}")
    for decl in program.buffers_of_kind("output"):
        params.append(f"{c_type(decl.dtype)}* {decl.name}")
    signature = ", ".join(params) if params else "void"
    lines.append(f"void {program.name}_step({signature}) {{")
    for stmt in program.step:
        lines.extend(emit_stmt(stmt, 1))
    lines.append("}")
    lines.append("")
    lines.extend(_emit_run_entry(program))
    return "\n".join(lines)


def _reset_lines(program: Program, init: list[Stmt], indent: int,
                 per_instance: bool) -> list[str]:
    """Full reset of every state/temp buffer, then the ``init`` statements.

    Over file-scope statics ``sizeof name`` is the whole array; over one
    instance's pointer parameter the size must be spelled out.
    """
    pad = "    " * indent
    lines: list[str] = []
    for kind in ("state", "temp"):
        for decl in program.buffers_of_kind(kind):
            if decl.init is None:
                size = (f"{max(decl.size, 1)} * sizeof *{decl.name}"
                        if per_instance else f"sizeof {decl.name}")
                lines.append(f"{pad}memset({decl.name}, 0, {size});")
                continue
            values = np.asarray(decl.init, dtype=decl.dtype).ravel()
            for i, v in enumerate(values):
                literal = _c_literal(v.item() if hasattr(v, "item") else v,
                                     decl.dtype)
                lines.append(f"{pad}{decl.name}[{i}] = {literal};")
    for stmt in init:
        lines.extend(emit_stmt(stmt, indent))
    return lines


#: Buffer kinds that ``<name>_run`` takes per instance, in pointer-table
#: order (const tables stay shared file-scope statics: they are read-only).
RUN_PARAM_KINDS = ("input", "output", "state", "temp")


def _emit_run_entry(program: Program) -> list[str]:
    """Emit ``void <name>_run(int64_t nb, int64_t steps, int64_t init,
    void *const *bufs)``.

    ``bufs`` holds one pointer per input/output/state/temp buffer in
    :data:`RUN_PARAM_KINDS` order, each to ``nb`` consecutive instances of
    ``max(size, 1)`` elements.  For each instance the entry calls a
    ``static`` body whose ``restrict`` parameters shadow the file-scope
    statics, so the program's statements run verbatim over that
    instance.  ``restrict`` tells the compiler what the statics told it
    for ``_step``: no two buffers alias.  The body resets (as ``_init``
    does) when ``init`` is set, then runs ``steps`` steps.  §5 calls are
    inlined first (:func:`repro.ir.batch.inline_calls`): a callee
    addresses buffers it is not passed through the file-scope statics.
    """
    from repro.ir.batch import BatchUnsupported, fresh_batch_var, inline_calls

    try:
        init_body = inline_calls(program.init, program)
        step_body = inline_calls(program.step, program)
    except BatchUnsupported as exc:
        raise CodegenError(f"cannot emit {program.name}_run: {exc}") from exc
    decls = [decl for kind in RUN_PARAM_KINDS
             for decl in program.buffers_of_kind(kind)]
    steps, init, s = (fresh_batch_var(program, f"__{base}")
                      for base in ("steps", "init", "s"))
    params = [f"int64_t {steps}", f"int64_t {init}"]
    args = []
    for i, decl in enumerate(decls):
        const = "const " if decl.kind == "input" else ""
        ctype = f"{const}{c_type(decl.dtype)}"
        params.append(f"{ctype} *restrict {decl.name}")
        args.append(f"({ctype} *)bufs[{i}] + b * {max(decl.size, 1)}")
    body = f"{program.name}__instance"
    call = ",\n            ".join(["steps", "init", *args])
    lines = [f"static void {body}({', '.join(params)}) {{",
             f"    if ({init}) {{",
             *_reset_lines(program, init_body, indent=2, per_instance=True),
             "    }",
             f"    for (int64_t {s} = 0; {s} < {steps}; {s}++) {{"]
    for stmt in step_body:
        lines.extend(emit_stmt(stmt, 2))
    lines += ["    }", "}", "",
              f"void {program.name}_run(int64_t nb, int64_t steps, "
              f"int64_t init, void *const *bufs) {{",
              "    for (int64_t b = 0; b < nb; b++) {",
              f"        {body}({call});",
              "    }", "}", ""]
    return lines
