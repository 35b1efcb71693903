"""Reference interpreter for every pipeline representation: source
Program, scheduled Scop, the Affine IR module (affine or lowered to the
standard level), and the host/kernel HlsProgram.

All representations execute against the same :class:`Machine` (flat
buffers, name-indexed symbols).  Out-of-bounds accesses and unbound names
are hard errors — the interpreter is the equivalence oracle, so nothing
may fail silently.  Loops the compiler marked parallel can be executed in
a seeded random order (`shuffle_seed`) to test order-independence.

Three executors: the source walker (the reference, sharing no loop code
with what it checks), the Scop scanner, and one loop-nest walker for
the module at either level and the HLS kernel.
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

    def offset(self, idxs):
        if len(idxs) != len(self.extents):
            raise InterpError("array %s: rank mismatch" % self.name)
        off = 0
        for v, ext in zip(idxs, self.extents):
            if not isinstance(v, int):
                raise InterpError("array %s: non-integer subscript %r" % (self.name, v))
            if not 0 <= v < ext:
                raise InterpError("array %s: index %s out of bounds %s"
                                  % (self.name, list(idxs), list(self.extents)))
            off = off * ext + v
        return off

    def store(self, idxs, value):
        if self.elem == fe.INT64 and not isinstance(value, int):
            raise InterpError("array %s: storing non-integer %r" % (self.name, value))
        if self.elem == fe.FLOAT64:
            value = float(value)
        self.data[self.offset(idxs)] = value


@dataclass
class Machine:
    symbols: dict  # name -> int
    arrays: dict  # name -> Array
    trace: list = None  # of (statement name, index tuple) when enabled
    rng: random.Random = field(default=None, repr=False)

    def record(self, name, idxs):
        if self.trace is not None:
            self.trace.append((name, tuple(idxs)))

    def array(self, name):
        arr = self.arrays.get(name)
        if arr is None:
            raise InterpError("unknown array %r" % name)
        return arr

    def load(self, name, idxs):
        arr = self.array(name)
        return arr.data[arr.offset(idxs)]

    def env(self, names, values):
        """Evaluation env: the symbols, then `names` bound to `values`."""
        env = dict(self.symbols)
        env.update(zip(names, values))
        return env

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


def format_instance(name, idxs):
    """``S1(0, 2)``: one statement instance as `--trace` prints it."""
    return "%s(%s)" % (name, ", ".join(str(v) for v in idxs))


def _exec_assign(assign, env, machine, name, idxs):
    """Run one instance `name(idxs)` of `assign`; `env` binds every name
    its expressions read."""
    machine.record(name, idxs)
    load = machine.load
    try:
        arr = machine.array(assign.ref.array)
        subs = [fe.evaluate(s, env, load) for s in assign.ref.subs]
        arr.store(subs, fe.evaluate(assign.rhs, env, load))
    except InterpError as e:
        raise InterpError("%s at %s" % (e, format_instance(name, idxs))) from None


# ---------------------------------------------------------------------------
# source Program


_CMP = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
        "==": lambda a, b: a == b}


def _run_program(program, machine):
    names = stmt_names(program.body)
    load = machine.load

    def exec_stmts(nodes, env, loops):
        # loops: the enclosing loop vars, outermost first (trace coordinates)
        for node in nodes:
            if isinstance(node, (fe.ScopBegin, fe.ScopEnd)):
                continue
            if isinstance(node, fe.For):
                lo = fe.evaluate(node.lower, env, load)
                hi = fe.evaluate(node.upper, env, load)
                inner = loops + (node.var,)
                for v in range(lo, hi):
                    env2 = dict(env)
                    env2[node.var] = v
                    exec_stmts(node.body, env2, inner)
            elif isinstance(node, fe.If):
                a = fe.evaluate(node.lhs, env, load)
                b = fe.evaluate(node.rhs, env, load)
                exec_stmts(node.then if _CMP[node.op](a, b) else node.els, env, loops)
            elif isinstance(node, fe.Assign):
                _exec_assign(node, env, machine, names[id(node)],
                             tuple(env[v] for v in loops))
            else:
                raise InterpError("cannot execute %r" % (node,))

    exec_stmts(program.body, dict(machine.symbols), ())


# ---------------------------------------------------------------------------
# scheduled Scop: schedule-lexicographic instance order


def _run_scop(scop, machine):
    syms = [machine.symbols[s] for s in scop.symbols]
    if not scop.context.contains((), syms):
        raise InterpError("symbol bindings violate the context set")
    instances = []
    for st in scop.statements:
        scan = st.domain if st.guard is None else st.domain.intersect(st.guard)
        for p in scan.points(syms):
            time = tuple(eval_expr(r, p, syms) for r in st.schedule.results)
            instances.append((time, st, p))
    instances.sort(key=lambda t: t[0])
    for _, st, p in instances:
        _exec_assign(st.body, machine.env(st.dim_names, p), machine, st.name,
                     tuple(p[d] for d in st.body_dims))


# ---------------------------------------------------------------------------
# loop nests: the module's affine or standard-level ops and the HLS kernel.
# One walker owns iteration, the parallel-loop order, branches and calls;
# each op class keeps its own evaluator of bounds and conditions, so the
# oracle checks `hls.lower_to_standard` apart from codegen.


def _air_bound(mr, env, symbols, agg):
    dims = [env[d] for d in mr.dims]
    syms = [symbols[s] if s in symbols else env[s] for s in mr.syms]
    return agg(eval_expr(r, dims, syms) for r in mr.map.results)


def _air_bounds(op, env, symbols):
    return _air_bound(op.lb, env, symbols, max), _air_bound(op.ub, env, symbols, min)


def _air_holds(op, env, symbols):
    dims = [env[d] for d in op.cond.dims]
    return op.cond.set.contains(dims, [symbols[s] for s in op.cond.syms])


def _std_bounds(op, env, symbols):
    return fe.evaluate(op.lower, env), fe.evaluate(op.upper, env)


def _std_holds(op, env, symbols):
    for e, kind in op.cond:
        v = fe.evaluate(e, env)
        if (v != 0) if kind == "eq" else (v < 0):
            return False
    return True


# loop op class -> (op, env, symbols) -> inclusive (lower, upper);
# branch op class -> (op, env, symbols) -> whether `then` runs
_BOUNDS = {For: _air_bounds, hls.CFor: _std_bounds}
_HOLDS = {If: _air_holds, hls.CGuard: _std_holds}


def _run_nest(obj, ops, machine):
    """Run the loop nest `ops` of `obj` (its symbols and statements).
    Operands index the env unchecked; a name that no enclosing loop or
    symbol binds is an unbound-operand error."""
    stmt_by_name = {s.name: s for s in obj.stmts}
    symbols = machine.symbols

    def exec_ops(ops, env):
        for op in ops:
            kind = type(op)
            if kind is Call:
                sd = stmt_by_name.get(op.stmt)
                if sd is None:
                    raise InterpError("call to unknown statement %r" % op.stmt)
                if len(op.args) != len(sd.params):
                    raise InterpError("call to %s: expected %d args, got %d"
                                      % (op.stmt, len(sd.params), len(op.args)))
                idxs = tuple(env[a] for a in op.args)
                _exec_assign(sd.body, machine.env(sd.params, idxs), machine, op.stmt, idxs)
            elif kind in _BOUNDS:
                lo, up = _BOUNDS[kind](op, env, symbols)
                for k in machine.order(max(0, up - lo + 1), op.parallel):
                    env2 = dict(env)
                    env2[op.var] = lo + k
                    exec_ops(op.body, env2)
            elif kind in _HOLDS:
                exec_ops(op.then if _HOLDS[kind](op, env, symbols) else op.els, env)
            else:
                raise InterpError("cannot execute op %r" % (op,))

    try:
        exec_ops(ops, dict(symbols))
    except KeyError as e:
        raise InterpError("unbound operand %r" % e.args[0]) from None


# ---------------------------------------------------------------------------
# HlsProgram: host semantics (transfer in -> kernel on device buffers ->
# transfer out)


def _run_hls(p, machine):
    kinds = dict(p.transfers)
    # out-only device buffers start zeroed (matching the C host's calloc);
    # the kernel is expected to write them fully
    init = {a.name: machine.array(a.name).data for a in p.arrays if kinds[a.name] != "out"}
    device = make_machine(machine.symbols, p.arrays, init)
    device.trace, device.rng = machine.trace, machine.rng
    _run_nest(p, p.kernel, device)
    for name, kind in p.transfers:
        if kind != "in":
            machine.arrays[name].data = device.arrays[name].data


# ---------------------------------------------------------------------------
# entry points


_EXECUTORS = {
    fe.Program: _run_program,
    Scop: _run_scop,
    AffineIrModule: lambda m, machine: _run_nest(m, m.body, machine),
    hls.HlsProgram: _run_hls,
}


def run(obj, symbols, init=None, trace=False, shuffle_seed=None):
    """Execute any representation; returns the final :class:`Machine`."""
    executor = _EXECUTORS.get(type(obj))
    if executor is None:
        raise InterpError("cannot interpret %r" % type(obj).__name__)
    for s in obj.symbols:
        if s not in symbols:
            raise InterpError("unbound symbol %r" % s)
    machine = make_machine(symbols, obj.arrays, init, trace, shuffle_seed)
    executor(obj, machine)
    return machine


def trace(obj, symbols, init=None):
    """Dynamic instance sequence (statement name, index vector)."""
    return run(obj, symbols, init, trace=True).trace
