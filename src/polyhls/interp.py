"""Reference interpreter for every pipeline representation: source
Program, scheduled Scop, Affine IR, standard-level LoopAst, and the
host/kernel HlsProgram.

All representations execute against the same :class:`Machine` (flat
buffers, name-indexed symbols).  Out-of-bounds accesses and unbound names
are hard errors — the interpreter is the equivalence oracle, so nothing
may fail silently.  Loops the compiler marked parallel can be executed in
a seeded random order (`shuffle_seed`) to test order-independence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import frontend as fe
from . import hls
from .affine import eval_expr
from .errors import InterpError
from .ir import AffineIrModule, Call, For, If
from .scop import Scop, stmt_names


@dataclass
class Array:
    name: str
    elem: str  # fe.INT64 / fe.FLOAT64
    extents: tuple  # of int
    data: list  # flat, row-major

    def offset(self, idxs, where=""):
        if len(idxs) != len(self.extents):
            raise InterpError("array %s: rank mismatch %s" % (self.name, where))
        off = 0
        for v, ext in zip(idxs, self.extents):
            if not isinstance(v, int):
                raise InterpError("array %s: non-integer subscript %r %s"
                                  % (self.name, v, where))
            if not 0 <= v < ext:
                raise InterpError("array %s: index %s out of bounds %s %s"
                                  % (self.name, list(idxs),
                                     list(self.extents), where))
            off = off * ext + v
        return off

    def load(self, idxs, where=""):
        return self.data[self.offset(idxs, where)]

    def store(self, idxs, value, where=""):
        if self.elem == fe.INT64 and not isinstance(value, int):
            raise InterpError("array %s: storing non-integer %r %s"
                              % (self.name, value, where))
        if self.elem == fe.FLOAT64:
            value = float(value)
        self.data[self.offset(idxs, where)] = value


@dataclass
class Machine:
    symbols: dict  # name -> int
    arrays: dict  # name -> Array
    trace: list = None  # of (statement name, index tuple) when enabled
    rng: random.Random = field(default=None, repr=False)

    def record(self, name, idxs):
        if self.trace is not None:
            self.trace.append((name, tuple(idxs)))

    def order(self, n, parallel):
        idx = list(range(n))
        if parallel and self.rng is not None:
            self.rng.shuffle(idx)
        return idx


def _extent_value(ext, symbols):
    if isinstance(ext, int):
        return ext
    if ext not in symbols:
        raise InterpError("unbound symbol %r in array extent" % ext)
    return symbols[ext]


def make_machine(symbols, array_decls, init=None, trace=False, shuffle_seed=None):
    """`init` maps array name -> flat row-major list (missing arrays are
    zero-filled)."""
    init = init or {}
    arrays = {}
    for a in array_decls:
        extents = tuple(_extent_value(e, symbols) for e in a.extents)
        n = 1
        for e in extents:
            if e < 0:
                raise InterpError("array %s: negative extent" % a.name)
            n *= e
        if a.name in init:
            data = list(init[a.name])
            if len(data) != n:
                raise InterpError("array %s: init has %d values, need %d"
                                  % (a.name, len(data), n))
        else:
            data = [0] * n if a.elem == fe.INT64 else [0.0] * n
        arrays[a.name] = Array(a.name, a.elem, extents, data)
    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    return Machine(dict(symbols), arrays, [] if trace else None, rng)


# ---------------------------------------------------------------------------
# statement-template execution (shared by all representations)


def _eval_body(e, env, machine, where):
    if isinstance(e, fe.IntLit):
        return e.value
    if isinstance(e, fe.FloatLit):
        return e.value
    if isinstance(e, fe.Name):
        if e.ident in env:
            return env[e.ident]
        if e.ident in machine.symbols:
            return machine.symbols[e.ident]
        raise InterpError("unbound name %r %s" % (e.ident, where))
    if isinstance(e, fe.ArrayRef):
        arr = machine.arrays.get(e.array)
        if arr is None:
            raise InterpError("unknown array %r %s" % (e.array, where))
        idxs = [_eval_body(s, env, machine, where) for s in e.subs]
        return arr.load(idxs, where)
    if isinstance(e, fe.BinOp):
        a = _eval_body(e.lhs, env, machine, where)
        b = _eval_body(e.rhs, env, machine, where)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        return a * b
    raise InterpError("cannot evaluate %r %s" % (e, where))


def _exec_assign(assign, env, machine, where):
    arr = machine.arrays.get(assign.ref.array)
    if arr is None:
        raise InterpError("unknown array %r %s" % (assign.ref.array, where))
    idxs = [_eval_body(s, env, machine, where) for s in assign.ref.subs]
    arr.store(idxs, _eval_body(assign.rhs, env, machine, where), where)


# ---------------------------------------------------------------------------
# source Program


_CMP = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
        "==": lambda a, b: a == b}


def _run_program(program, machine):
    names = stmt_names(program.body)

    def exec_stmts(nodes, env):
        for node in nodes:
            if isinstance(node, (fe.ScopBegin, fe.ScopEnd)):
                continue
            if isinstance(node, fe.For):
                lo = _eval_body(node.lower, env, machine, "in loop bound")
                hi = _eval_body(node.upper, env, machine, "in loop bound")
                for v in range(lo, hi):
                    env2 = dict(env)
                    env2[node.var] = v
                    exec_stmts(node.body, env2)
            elif isinstance(node, fe.If):
                a = _eval_body(node.lhs, env, machine, "in condition")
                b = _eval_body(node.rhs, env, machine, "in condition")
                exec_stmts(node.then if _CMP[node.op](a, b) else node.els, env)
            elif isinstance(node, fe.Assign):
                name = names[id(node)]
                idxs = tuple(env[v] for v in _loop_vars_of(node, env))
                machine.record(name, idxs)
                _exec_assign(node, env, machine, "at %s%s" % (name, idxs))
            else:
                raise InterpError("cannot execute %r" % (node,))

    def _loop_vars_of(node, env):
        # trace coordinates: enclosing loop vars in nesting order
        return [v for v in loop_order if v in env]

    loop_order = []

    def collect(nodes):
        for node in nodes:
            if isinstance(node, fe.For):
                if node.var not in loop_order:
                    loop_order.append(node.var)
                collect(node.body)
            elif isinstance(node, fe.If):
                collect(node.then)
                collect(node.els)

    collect(program.body)
    exec_stmts(program.body, {})


# ---------------------------------------------------------------------------
# scheduled Scop: schedule-lexicographic instance order


def _run_scop(scop, machine):
    syms = [machine.symbols[s] for s in scop.symbols]
    for s in scop.symbols:
        if s not in machine.symbols:
            raise InterpError("unbound symbol %r" % s)
    if not scop.context.contains((), syms):
        raise InterpError("symbol bindings violate the context set")
    instances = []
    for st in scop.statements:
        if st.schedule is None:
            raise InterpError("statement %s has no schedule" % st.name)
        for p in st.domain.points(syms):
            if st.guard is not None and not st.guard.contains(p, syms):
                continue
            time = tuple(eval_expr(r, p, syms) for r in st.schedule.results)
            instances.append((time, st, p))
    instances.sort(key=lambda t: t[0])
    for _, st, p in instances:
        env = {st.dim_names[d]: p[d] for d in range(len(p))}
        idxs = tuple(p[d] for d in st.body_dims)
        machine.record(st.name, idxs)
        _exec_assign(st.body, env, machine, "at %s%s" % (st.name, idxs))


# ---------------------------------------------------------------------------
# Affine IR


def _run_ir(module, machine):
    stmt_by_name = {s.name: s for s in module.stmts}
    for s in module.symbols:
        if s not in machine.symbols:
            raise InterpError("unbound symbol %r" % s)

    def mapval(mr, env, agg):
        dims = [env[d] for d in mr.dims]
        syms = [machine.symbols[s] if s in machine.symbols else env[s] for s in mr.syms]
        return agg(eval_expr(r, dims, syms) for r in mr.map.results)

    def exec_ops(ops, env):
        for op in ops:
            if isinstance(op, For):
                lo = mapval(op.lb, env, max)
                up = mapval(op.ub, env, min)
                count = max(0, up - lo + 1)
                for k in machine.order(count, op.parallel):
                    env2 = dict(env)
                    env2[op.var] = lo + k
                    exec_ops(op.body, env2)
            elif isinstance(op, If):
                dims = [env[d] for d in op.cond.dims]
                syms = [machine.symbols[s] for s in op.cond.syms]
                if op.cond.set.contains(dims, syms):
                    exec_ops(op.then, env)
                else:
                    exec_ops(op.els, env)
            elif isinstance(op, Call):
                sd = stmt_by_name.get(op.stmt)
                if sd is None:
                    raise InterpError("call to unknown statement %r" % op.stmt)
                if len(op.args) != len(sd.params):
                    raise InterpError("call to %s: expected %d args, got %d"
                                      % (op.stmt, len(sd.params), len(op.args)))
                idxs = tuple(env[a] for a in op.args)
                machine.record(op.stmt, idxs)
                senv = dict(zip(sd.params, idxs))
                _exec_assign(sd.body, senv, machine, "at %s%s" % (op.stmt, idxs))
            else:
                raise InterpError("cannot execute op %r" % (op,))

    exec_ops(module.body, {})


# ---------------------------------------------------------------------------
# standard-level LoopAst


def _eval_c(e, env, machine):
    if isinstance(e, hls.CInt):
        return e.value
    if isinstance(e, hls.CVar):
        if e.name in env:
            return env[e.name]
        if e.name in machine.symbols:
            return machine.symbols[e.name]
        raise InterpError("unbound variable %r" % e.name)
    if isinstance(e, hls.CBin):
        a, b = _eval_c(e.lhs, env, machine), _eval_c(e.rhs, env, machine)
        return {"+": a + b, "-": a - b, "*": a * b}[e.op]
    if isinstance(e, hls.CFn):
        vals = [_eval_c(x, env, machine) for x in e.args]
        a, b = vals
        if e.fn == "floord":
            return a // b
        if e.fn == "ceild":
            return -((-a) // b)
        return {"min": min, "max": max}[e.fn](a, b)
    raise InterpError("cannot evaluate %r" % (e,))


def _run_loop_ast(ops, stmts, machine):
    stmt_by_name = {s.name: s for s in stmts}

    def exec_ops(ops, env):
        for op in ops:
            if isinstance(op, hls.CFor):
                lo = _eval_c(op.lower, env, machine)
                up = _eval_c(op.upper, env, machine)
                count = max(0, up - lo + 1)
                for k in machine.order(count, op.parallel):
                    env2 = dict(env)
                    env2[op.var] = lo + k
                    exec_ops(op.body, env2)
            elif isinstance(op, hls.CGuard):
                ok = True
                for e, kind in op.cond:
                    v = _eval_c(e, env, machine)
                    if (v != 0) if kind == "eq" else (v < 0):
                        ok = False
                        break
                exec_ops(op.then if ok else op.els, env)
            elif isinstance(op, hls.CCallStmt):
                sd = stmt_by_name.get(op.name)
                if sd is None:
                    raise InterpError("call to unknown statement %r" % op.name)
                idxs = tuple(env[a] if a in env else machine.symbols[a] for a in op.args)
                machine.record(op.name, idxs)
                senv = dict(zip(sd.params, idxs))
                _exec_assign(sd.body, senv, machine, "at %s%s" % (op.name, idxs))
            else:
                raise InterpError("cannot execute op %r" % (op,))

    exec_ops(ops, {})


# ---------------------------------------------------------------------------
# HlsProgram: host semantics (transfer in -> kernel on device buffers ->
# transfer out)


def _run_hls(p, machine):
    kinds = dict(p.transfers)
    device = Machine(dict(machine.symbols), {}, machine.trace, machine.rng)
    for a in p.arrays:
        host = machine.arrays.get(a.name)
        if host is None:
            raise InterpError("host is missing array %r" % a.name)
        if kinds[a.name] in ("in", "inout"):
            data = list(host.data)
        else:
            # out-only device buffers start zeroed (matching the C host's
            # calloc); the kernel is expected to write them fully
            data = [0] * len(host.data) if a.elem == fe.INT64 else [0.0] * len(host.data)
        device.arrays[a.name] = Array(a.name, a.elem, host.extents, data)
    _run_loop_ast(p.kernel, p.stmts, device)
    for a in p.arrays:
        if kinds[a.name] in ("out", "inout"):
            machine.arrays[a.name].data = list(device.arrays[a.name].data)


# ---------------------------------------------------------------------------
# entry points


def _decls_of(obj):
    if isinstance(obj, fe.Program):
        return obj.arrays
    if isinstance(obj, (Scop, AffineIrModule, hls.LoopAst, hls.HlsProgram)):
        return obj.arrays
    raise InterpError("cannot interpret %r" % type(obj).__name__)


def run(obj, symbols, init=None, trace=False, shuffle_seed=None):
    """Execute any representation; returns the final :class:`Machine`."""
    machine = make_machine(symbols, _decls_of(obj), init, trace, shuffle_seed)
    if isinstance(obj, fe.Program):
        _run_program(obj, machine)
    elif isinstance(obj, Scop):
        _run_scop(obj, machine)
    elif isinstance(obj, AffineIrModule):
        _run_ir(obj, machine)
    elif isinstance(obj, hls.HlsProgram):
        _run_hls(obj, machine)
    elif isinstance(obj, hls.LoopAst):
        _run_loop_ast(obj.body, obj.stmts, machine)
    return machine


def trace(obj, symbols, init=None):
    """Dynamic instance sequence (statement name, index vector)."""
    return run(obj, symbols, init, trace=True).trace
