"""Batch expansion: evaluate B independent program instances in one pass.

The serve layer coalesces many concurrent ``run`` requests for the same
program into a single :meth:`~repro.ir.interp.VirtualMachine.run_batch`
call.  This module provides the program-level transform that makes the
batched call cheap on the vector backend, mirroring DaCe-style parametric
map expansion: give every buffer a leading batch axis and wrap each
top-level statement in a loop over the batch index, so the existing
vectorizer (:mod:`repro.ir.vectorize`) can lift whole statements to numpy
kernels whose lanes are *instances* instead of elements.

The transform is built for **provable equivalence**, not cleverness:

* every buffer — including ``const`` — is replicated ``B`` times
  (batched shape ``(B, *shape)``, initial data tiled), so the planner's
  data-derived interval analysis sees the same values it would on the
  single-instance program;
* every ``Load``/``Assign`` index ``e`` becomes exactly
  ``e + (__b * stride)`` — one integer multiply and one integer add, never
  simplified (even for ``stride == 1``), so the batched run's dynamic
  counts exceed the sum of B independent runs by a *closed-form* amount:
  two ``int_ops`` per executed load/store, plus one ``loops_entered`` and
  ``B`` ``loop_iters`` in the scalar bucket per wrapper loop executed.
  :meth:`~repro.ir.interp.VirtualMachine.run_batch` subtracts that
  adjustment, restoring counts exactly equal to B sequential runs;
* each non-comment top-level statement of ``init`` and ``step`` gets its
  *own* wrapper loop (maximum vectorization granularity: one irregular
  statement never forces the whole body down the closure path).  The
  wrappers are marked non-vectorizable so their bookkeeping lands in the
  scalar bucket, exactly where top-level straight-line code already
  counts; instances touch disjoint index ranges, so running statement k
  for all instances before statement k+1 cannot change any instance's
  results.

Programs using the §5 generic-function interface (``CallStmt``) are
refused with :class:`BatchUnsupported` — inlining the callees would
change dynamic counts, breaking the exact-counts contract — and the VM
falls back to B sequential runs (correct and exact, just not faster).
The *native* backend has no such restriction: its ``<name>_run`` C entry
(:func:`repro.codegen.ctext.emit_c`) inlines callees with
:func:`inline_calls` below, because native counts are analytic
(``staticcount`` × B) rather than derived from execution.

Precondition (shared with the flat IR itself): indices stay in
``[0, size)``.  A negative index would wrap into a *neighbouring
instance* here, where the unbatched program would wrap within its own
buffer; no generator emits negative indices, and the closure/vector
backends would already disagree with emitted C if one did.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.ir.ops import (
    Assign, BinOp, BufferDecl, Call, CallStmt, Comment, Const, Expr, For,
    If, Load, Program, Select, Stmt, UnOp, Var,
)


class BatchUnsupported(Exception):
    """This program cannot be batch-expanded exactly; run instances
    sequentially instead."""


@dataclass(frozen=True)
class BatchPlan:
    """An expanded program plus the data needed to undo its count skew."""

    program: Program
    batch: int
    batch_var: str
    #: Wrapper loops executed per ``init`` / per ``step`` invocation.
    wrapped_init: int
    wrapped_step: int


def batch_stride(decl: BufferDecl) -> int:
    """Distance between consecutive instances of ``decl`` in the batched
    flat layout (also the per-instance allocation the VM and the native
    ABI use: ``max(size, 1)`` elements, so zero-size buffers cannot make
    instances alias)."""
    return max(decl.size, 1)


def _loop_vars(stmts: list[Stmt]) -> set[str]:
    seen: set[str] = set()
    stack = list(stmts)
    while stack:
        s = stack.pop()
        if isinstance(s, For):
            seen.add(s.var)
            stack.extend(s.body)
        elif isinstance(s, If):
            stack.extend(s.then)
            stack.extend(s.orelse)
    return seen


def fresh_batch_var(program: Program, base: str = "__b") -> str:
    """A loop-variable name no statement in the program already binds."""
    used = {s.var for s in program.walk() if isinstance(s, For)}
    used |= set(program.buffers)
    if base not in used:
        return base
    for n in itertools.count(2):
        candidate = f"{base}{n}"
        if candidate not in used:
            return candidate
    raise AssertionError("unreachable")


# -- index rewriting -----------------------------------------------------------


def offset_expr(expr: Expr, bvar: str, strides: dict[str, int]) -> Expr:
    """Rewrite every buffer access under ``expr`` to its batched index.

    ``strides`` maps buffer name -> per-instance stride; buffers absent
    from the map (the native emitter leaves ``const`` shared) keep their
    original indices.  The rewrite is always the two-op form
    ``index + (bvar * stride)`` so the count skew stays uniform.
    """
    if isinstance(expr, Load):
        idx = offset_expr(expr.index, bvar, strides)
        stride = strides.get(expr.buffer)
        if stride is None:
            return Load(expr.buffer, idx)
        return Load(expr.buffer,
                    BinOp("+", idx, BinOp("*", Var(bvar), Const(stride))))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, offset_expr(expr.lhs, bvar, strides),
                     offset_expr(expr.rhs, bvar, strides))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, offset_expr(expr.operand, bvar, strides))
    if isinstance(expr, Call):
        return Call(expr.func,
                    tuple(offset_expr(a, bvar, strides) for a in expr.args))
    if isinstance(expr, Select):
        return Select(offset_expr(expr.cond, bvar, strides),
                      offset_expr(expr.if_true, bvar, strides),
                      offset_expr(expr.if_false, bvar, strides))
    return expr  # Const, Var


def offset_stmt(stmt: Stmt, bvar: str, strides: dict[str, int]) -> Stmt:
    """Statement-level companion of :func:`offset_expr` (pure; new nodes).

    ``CallStmt`` buffer arguments are *not* rewritten here — a buffer
    argument is a name, not an index expression.  The Python transform
    refuses programs with calls; the native emitter inlines them first.
    """
    if isinstance(stmt, Assign):
        value = offset_expr(stmt.value, bvar, strides)
        idx = offset_expr(stmt.index, bvar, strides)
        stride = strides.get(stmt.buffer)
        if stride is not None:
            idx = BinOp("+", idx, BinOp("*", Var(bvar), Const(stride)))
        return Assign(stmt.buffer, idx, value)
    if isinstance(stmt, For):
        start = stmt.start if isinstance(stmt.start, int) \
            else offset_expr(stmt.start, bvar, strides)
        stop = stmt.stop if isinstance(stmt.stop, int) \
            else offset_expr(stmt.stop, bvar, strides)
        clone = For(stmt.var, start, stop,
                    [offset_stmt(s, bvar, strides) for s in stmt.body],
                    stmt.vectorizable, segments=stmt.segments)
        clone.forced_simd = stmt.forced_simd
        return clone
    if isinstance(stmt, If):
        return If(offset_expr(stmt.cond, bvar, strides),
                  [offset_stmt(s, bvar, strides) for s in stmt.then],
                  [offset_stmt(s, bvar, strides) for s in stmt.orelse])
    if isinstance(stmt, CallStmt):
        return CallStmt(stmt.func, list(stmt.buffer_args),
                        [offset_expr(a, bvar, strides)
                         for a in stmt.scalar_args])
    return stmt  # Comment


# -- function inlining (native batch emission only) ---------------------------


def _subst_vars(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Load):
        return Load(expr.buffer, _subst_vars(expr.index, mapping))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _subst_vars(expr.lhs, mapping),
                     _subst_vars(expr.rhs, mapping))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, _subst_vars(expr.operand, mapping))
    if isinstance(expr, Call):
        return Call(expr.func,
                    tuple(_subst_vars(a, mapping) for a in expr.args))
    if isinstance(expr, Select):
        return Select(_subst_vars(expr.cond, mapping),
                      _subst_vars(expr.if_true, mapping),
                      _subst_vars(expr.if_false, mapping))
    return expr


def _subst_stmt_vars(stmt: Stmt, mapping: dict[str, Expr]) -> Stmt:
    if isinstance(stmt, Assign):
        return Assign(stmt.buffer, _subst_vars(stmt.index, mapping),
                      _subst_vars(stmt.value, mapping))
    if isinstance(stmt, For):
        # A renamed loop variable must arrive as Var(new_name).
        var = stmt.var
        repl = mapping.get(var)
        if isinstance(repl, Var):
            var = repl.name
        start = stmt.start if isinstance(stmt.start, int) \
            else _subst_vars(stmt.start, mapping)
        stop = stmt.stop if isinstance(stmt.stop, int) \
            else _subst_vars(stmt.stop, mapping)
        clone = For(var, start, stop,
                    [_subst_stmt_vars(s, mapping) for s in stmt.body],
                    stmt.vectorizable, segments=stmt.segments)
        clone.forced_simd = stmt.forced_simd
        return clone
    if isinstance(stmt, If):
        return If(_subst_vars(stmt.cond, mapping),
                  [_subst_stmt_vars(s, mapping) for s in stmt.then],
                  [_subst_stmt_vars(s, mapping) for s in stmt.orelse])
    if isinstance(stmt, CallStmt):
        return CallStmt(stmt.func, list(stmt.buffer_args),
                        [_subst_vars(a, mapping) for a in stmt.scalar_args])
    return stmt


_MAX_INLINE_DEPTH = 32


def inline_calls(stmts: list[Stmt], program: Program,
                 _counter: "itertools.count | None" = None,
                 _depth: int = 0) -> list[Stmt]:
    """Expand every ``CallStmt`` into its callee's body (pure; new nodes).

    Used by the native ``<name>_run`` emitter, whose per-instance body
    would go wrong the moment a callee touches a program buffer that is
    not among its parameters (the callee would reach the file-scope
    static, not the instance).  Inlining sidesteps the question:

    * callee loop variables are renamed to fresh ``__f<N>`` names so that
      scalar-argument expressions referencing call-site loop variables
      cannot be captured;
    * pointer parameters are bound via
      :func:`repro.ir.interp.substitute_buffers`;
    * scalar parameters are substituted as *expressions* — the IR has no
      side effects, so re-evaluating an argument per use is value-
      identical to the single evaluation a real call performs (dynamic
      op counts differ, which is why only the native path — whose counts
      are analytic — uses this).
    """
    from repro.ir.interp import substitute_buffers
    if _depth > _MAX_INLINE_DEPTH:
        raise BatchUnsupported(
            f"function call nesting exceeds {_MAX_INLINE_DEPTH} "
            "(recursive CallStmt chain?)")
    if _counter is None:
        _counter = itertools.count()
    out: list[Stmt] = []
    for s in stmts:
        if isinstance(s, CallStmt):
            func = program.functions.get(s.func)
            if func is None:
                raise BatchUnsupported(f"call to undefined function "
                                       f"{s.func!r}")
            rename = {v: Var(f"__f{next(_counter)}")
                      for v in sorted(_loop_vars(func.body))}
            body = [_subst_stmt_vars(b, rename) for b in func.body]
            body = substitute_buffers(body, {
                p.name: actual
                for p, actual in zip(func.pointer_params, s.buffer_args)})
            scalars = {p.name: arg for p, arg
                       in zip(func.scalar_params, s.scalar_args)}
            body = [_subst_stmt_vars(b, scalars) for b in body]
            out.extend(inline_calls(body, program, _counter, _depth + 1))
        elif isinstance(s, For):
            clone = For(s.var, s.start, s.stop,
                        inline_calls(s.body, program, _counter, _depth),
                        s.vectorizable, segments=s.segments)
            clone.forced_simd = s.forced_simd
            out.append(clone)
        elif isinstance(s, If):
            out.append(If(s.cond,
                          inline_calls(s.then, program, _counter, _depth),
                          inline_calls(s.orelse, program, _counter, _depth)))
        else:
            out.append(s)
    return out


# -- the transform -------------------------------------------------------------


def expand_batch(program: Program, batch: int) -> BatchPlan:
    """Return a program evaluating ``batch`` independent instances.

    Raises :class:`BatchUnsupported` for programs with functions/calls
    (see module docstring); the caller falls back to sequential runs.
    """
    if not isinstance(batch, int) or isinstance(batch, bool) or batch < 1:
        raise ValueError(f"batch must be a positive int, got {batch!r}")
    if program.functions:
        raise BatchUnsupported(
            f"program {program.name!r} defines functions; exact batched "
            "counts require call-free bodies")
    if any(isinstance(s, CallStmt) for s in program.walk()):
        raise BatchUnsupported(
            f"program {program.name!r} contains CallStmt")
    if any(d.window is not None for d in program.buffers.values()):
        # A ring buffer's % window wrap happens at lowering, not in the
        # IR, so instance-offset index rewriting would wrap lanes into
        # each other; lifted or sequential execution handles rings.
        raise BatchUnsupported(
            f"program {program.name!r} has sliding-window buffers")

    bvar = fresh_batch_var(program)
    strides = {d.name: batch_stride(d) for d in program.buffers.values()}

    expanded = Program(f"{program.name}__batch{batch}",
                       generator=program.generator,
                       notes=dict(program.notes))
    for decl in program.buffers.values():
        init = None
        if decl.init is not None:
            flat = np.asarray(decl.init, dtype=decl.dtype).ravel()
            init = np.tile(flat, batch).reshape((batch,) + decl.shape)
        expanded.declare(decl.name, (batch,) + decl.shape, decl.dtype,
                         decl.kind, init)

    def wrap(stmts: list[Stmt]) -> tuple[list[Stmt], int]:
        out: list[Stmt] = []
        wrapped = 0
        for s in stmts:
            if isinstance(s, Comment):
                out.append(s)
                continue
            out.append(For(bvar, 0, batch,
                           [offset_stmt(s, bvar, strides)],
                           vectorizable=False))
            wrapped += 1
        return out, wrapped

    expanded.init, wrapped_init = wrap(program.init)
    expanded.step, wrapped_step = wrap(program.step)
    return BatchPlan(expanded, batch, bvar, wrapped_init, wrapped_step)


# -- batch-axis lifting eligibility ----------------------------------------
#
# The VM's second (and much faster) batched strategy keeps the *original*
# program but reinterprets every buffer as a 2-D array with a trailing
# batch axis: scalar reads become length-B rows and numpy broadcasting
# carries the batch dimension through whole-statement kernels, so the
# per-call kernel count stays that of a *single* instance.  That
# reinterpretation is only sound when nothing ever collapses a loaded
# value back to a Python scalar in a position that steers control flow or
# addressing.  ``lift_reject`` is the static gate: it walks the program
# once and names the first construct that would make a lifted run diverge
# (or fail loudly) — loads feeding an index, a branch condition, or a
# loop bound would make per-instance control flow diverge, and loads from
# non-float buffers hit the interpreter's scalar ``int()`` coercions.
# Runtime still differentially verifies the first lifted batch against
# sequential runs (belt and braces); this guard keeps the common rejection
# cases cheap and deterministic.


def lift_reject(program: Program) -> str | None:
    """Why ``program`` cannot be batch-lifted, or None if it can.

    Rejections (first one found wins):

    * functions / ``CallStmt`` — specialization keys and scalar argument
      coercion (``int(...)``) assume scalar environments;
    * a ``Load`` from a non-``float64`` buffer — the closure and
      lane-invariant evaluators coerce those through ``int()``, which has
      no elementwise meaning;
    * a ``Load`` anywhere inside an index expression, an ``If``
      condition, or a dynamic ``For`` bound — a length-B row there would
      need per-instance control flow, which lifting cannot represent
      (``Select`` conditions are exempt in value position: they lower to
      elementwise ``np.where``).
    """
    if program.functions:
        return "program defines functions"

    def expr(e: Expr, steering: bool) -> str | None:
        if isinstance(e, Load):
            if steering:
                return (f"load from {e.buffer!r} inside an index or "
                        "control-flow position")
            if program.buffers[e.buffer].dtype != "float64":
                return (f"load from non-float buffer {e.buffer!r} "
                        f"({program.buffers[e.buffer].dtype})")
            return expr(e.index, True)
        if isinstance(e, BinOp):
            return expr(e.lhs, steering) or expr(e.rhs, steering)
        if isinstance(e, UnOp):
            return expr(e.operand, steering)
        if isinstance(e, Call):
            for a in e.args:
                reason = expr(a, steering)
                if reason:
                    return reason
            return None
        if isinstance(e, Select):
            # A loaded condition is fine in value position: vectorized
            # Selects lower to np.where, which is elementwise over the
            # batch row.  (The closure evaluator's `if cond(env)` raises
            # on a row — loudly — and the runtime falls back, so this
            # cannot go silently wrong.)  Inside an index it steers.
            return (expr(e.cond, steering) or expr(e.if_true, steering)
                    or expr(e.if_false, steering))
        return None  # Const / Var

    def stmt(s: Stmt) -> str | None:
        if isinstance(s, Comment):
            return None
        if isinstance(s, CallStmt):
            return "program contains CallStmt"
        if isinstance(s, Assign):
            return expr(s.index, True) or expr(s.value, False)
        if isinstance(s, If):
            reason = expr(s.cond, True)
            if reason:
                return reason
            for child in itertools.chain(s.then, s.orelse):
                reason = stmt(child)
                if reason:
                    return reason
            return None
        if isinstance(s, For):
            for bound in (s.start, s.stop):
                if not isinstance(bound, int):
                    reason = expr(bound, True)
                    if reason:
                        return reason
            for child in s.body:
                reason = stmt(child)
                if reason:
                    return reason
            return None
        return f"unsupported statement {type(s).__name__}"

    for s in itertools.chain(program.init, program.step):
        reason = stmt(s)
        if reason:
            return reason
    return None
