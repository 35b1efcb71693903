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
the module at either level and the HLS kernel.  They walk their loops and
evaluate bounds and guards with `frontend.evaluate`; each statement
template is compiled once per run (`_compile_stmt`) to a Python function
of its loop vars, one line per node that computes a value, written after
its children's, so it has `frontend.evaluate`'s semantics and order; every
instance calls it.
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

    def array(self, name):
        arr = self.arrays.get(name)
        if arr is None:
            raise InterpError("unknown array %r" % name)
        return arr

    def load(self, name, idxs):
        arr = self.array(name)
        return arr.data[arr.offset(idxs)]

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
# statement templates, compiled once per run (shared by all representations)


def format_instance(name, idxs):
    """``S1(0, 2)``: one statement instance as `--trace` prints it."""
    return "%s(%s)" % (name, ", ".join(str(v) for v in idxs))


# floord/ceild round toward -inf/+inf, as `fe.evaluate` and the C helpers do
_CALLS = {"floord": "(%s // %s)", "ceild": "(-(-%s // %s))",
          "min": "min(%s, %s)", "max": "max(%s, %s)"}


def _static(v):
    """The static type of a run-time constant: int, float, or None for any
    other."""
    return type(v) if type(v) in (int, float) else None


def _join(ta, tb, mixed):
    """The type of a binary result: int of two ints, float of two floats, and
    float of a float with an int when `mixed` (arithmetic, not min/max)."""
    if ta is tb and ta is not None:
        return ta
    return float if mixed and {ta, tb} == {int, float} else None


def _compile_stmt(assign, params, machine, name, trace_pos):
    """One instance of statement `name` (template `assign`) as a function
    of the values of `params`, compiled for `machine` and valid for one run.

    The function does what `fe.evaluate` and `Array.store` do, in their
    order: it appends the trace entry (the params at `trace_pos`), evaluates
    the target's subscripts, then the rhs from left to right with each load
    checked as it is read, then stores.  Each node that computes a value is
    one line ``tN = ...``, written when the node is visited, after its
    children's, so the lines run in `fe.evaluate`'s order.  A subscript
    whose every value is an int is checked inline; a failed check, any
    other subscript and a value of unknown type go through
    `Array.offset`/`Array.store`, and an unbound name or unknown node
    through `fe.evaluate`, so each message is built where the reference
    builds it.  Every `InterpError` gets the instance's ``at S(i, j)``.
    The source names only parameters (`p0`), temporaries (`t0`) and
    namespace constants (`c0`)."""
    ns = {"InterpError": InterpError}
    body = []
    var = {p: ("p%d" % k, int) for k, p in enumerate(params)}  # the inner loop wins
    elem_types = {}

    def const(v):
        key = "c%d" % len(ns)
        ns[key] = v
        return key

    def temp(src):
        t = "t%d" % len(body)
        body.append("%s = %s" % (t, src))
        return t

    def expr(e):
        """Name of `e`'s value and its static type."""
        kind = type(e)
        if kind is fe.Name and e.ident in var:
            return var[e.ident]
        if kind is fe.Name and e.ident in machine.symbols:
            v = machine.symbols[e.ident]
            return const(v), _static(v)
        if kind is fe.IntLit or kind is fe.FloatLit:
            return const(e.value), _static(e.value)
        if kind is fe.BinOp:
            (a, ta), (b, tb) = expr(e.lhs), expr(e.rhs)
            op = e.op if e.op in ("+", "-") else "*"
            return temp("%s %s %s" % (a, op, b)), _join(ta, tb, True)
        if kind is fe.ArrayRef:
            return load(e)
        if kind is fe.Call and e.fn in _CALLS and len(e.args) == 2:
            (a, ta), (b, tb) = map(expr, e.args)
            return temp(_CALLS[e.fn] % (a, b)), _join(ta, tb, e.fn in ("floord", "ceild"))
        env = "".join("%s: p%d, " % (const(p), k) for k, p in enumerate(params))
        src = "%s(%s, {**%s, %s}, %s)" % (const(fe.evaluate), const(e), const(machine.symbols),
                                           env, const(machine.load))
        return temp(src), None

    def elem_type(arr):
        # stores keep an int array int and a float array float, so the
        # values it holds now are the ones it holds all run
        if arr.name not in elem_types:
            want = int if arr.elem == fe.INT64 else float
            elem_types[arr.name] = want if set(map(type, arr.data)) <= {want} else None
        return elem_types[arr.name]

    def offset(arr, subs):
        """Source of the flat offset of `subs` in `arr`, checked first."""
        idxs = "[%s]" % ", ".join(s for s, _ in subs)
        if len(subs) != len(arr.extents) or any(t is not int for _, t in subs):
            return "%s.offset(%s)" % (const(arr), idxs)
        if not subs:
            return "0"
        tests = " and ".join("0 <= %s < %s" % (s, const(x)) for (s, _), x in zip(subs, arr.extents))
        body.append("if not (%s): %s.offset(%s)" % (tests, const(arr), idxs))
        flat = subs[0][0]
        for (s, _), x in zip(subs[1:], arr.extents[1:]):
            flat = "%s * %s + %s" % (flat, const(x), s)
        return flat

    def array(name):
        # an unknown array raises, through `Machine.array`, when the instance runs
        arr = machine.arrays.get(name)
        if arr is None:
            body.append("%s(%s)" % (const(machine.array), const(name)))
        return arr

    def load(ref):
        subs = [expr(s) for s in ref.subs]
        arr = array(ref.array)
        if arr is None:
            return "None", None
        return temp("%s[%s]" % (const(arr.data), offset(arr, subs))), elem_type(arr)

    target = assign.ref
    arr = array(target.array)
    if arr is not None:
        subs = [expr(s) for s in target.subs]
        v, tv = expr(assign.rhs)
        if arr.elem == fe.INT64 and tv is not int:
            body.append("%s.store([%s], %s)" % (const(arr), ", ".join(s for s, _ in subs), v))
        else:
            if arr.elem == fe.FLOAT64 and tv is not float:  # before the check, as `Array.store`
                v = temp("float(%s)" % v)
            body.append("%s[%s] = %s" % (const(arr.data), offset(arr, subs), v))

    idxs = "(%s)" % "".join("p%d, " % k for k in trace_pos)
    lines = ["def f(%s):" % ", ".join("p%d" % k for k in range(len(params)))]
    if machine.trace is not None:
        lines.append("    %s((%s, %s))" % (const(machine.trace.append), const(name), idxs))
    lines.append("    try:")
    lines += ["        " + line for line in body]
    lines += ["    except InterpError as e:",
              '        raise InterpError("%%s at %%s" %% (e, %s(%s, %s))) from None'
              % (const(format_instance), const(name), idxs)]
    exec(compile("\n".join(lines) + "\n", "<statement>", "exec"), ns)
    return ns.pop("f")  # so no ns<->function cycle keeps the run's arrays


# ---------------------------------------------------------------------------
# source Program


_CMP = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
        "==": lambda a, b: a == b}


def _run_program(program, machine):
    names = stmt_names(program.body)
    load = machine.load
    stmts = {}  # id of an Assign -> (its compiled instance, the enclosing loop vars)
    for node, path in fe.walk(program.body):
        if isinstance(node, fe.Assign):
            loops = [n.var for n in path if isinstance(n, fe.For)]
            stmts[id(node)] = (_compile_stmt(node, loops, machine, names[id(node)],
                                             range(len(loops))), loops)

    def exec_stmts(nodes, env):
        for node in nodes:
            if isinstance(node, (fe.ScopBegin, fe.ScopEnd)):
                continue
            if isinstance(node, fe.For):
                lo = fe.evaluate(node.lower, env, load)
                hi = fe.evaluate(node.upper, env, load)
                for v in range(lo, hi):
                    env2 = dict(env)
                    env2[node.var] = v
                    exec_stmts(node.body, env2)
            elif isinstance(node, fe.If):
                a = fe.evaluate(node.lhs, env, load)
                b = fe.evaluate(node.rhs, env, load)
                exec_stmts(node.then if _CMP[node.op](a, b) else node.els, env)
            elif isinstance(node, fe.Assign):
                fn, loops = stmts[id(node)]
                fn(*[env[v] for v in loops])
            else:
                raise InterpError("cannot execute %r" % (node,))

    exec_stmts(program.body, dict(machine.symbols))


# ---------------------------------------------------------------------------
# scheduled Scop: schedule-lexicographic instance order


def _run_scop(scop, machine):
    syms = [machine.symbols[s] for s in scop.symbols]
    if not scop.context.contains((), syms):
        raise InterpError("symbol bindings violate the context set")
    instances = []
    for st in scop.statements:
        fn = _compile_stmt(st.body, st.dim_names, machine, st.name, st.body_dims)
        scan = st.domain if st.guard is None else st.domain.intersect(st.guard)
        for p in scan.points(syms):
            time = tuple(eval_expr(r, p, syms) for r in st.schedule.results)
            instances.append((time, fn, p))
    instances.sort(key=lambda t: t[0])
    for _, fn, p in instances:
        fn(*p)


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
    stmt_by_name = {s.name: (s, _compile_stmt(s.body, s.params, machine, s.name,
                                              range(len(s.params))))
                    for s in obj.stmts}
    symbols = machine.symbols

    def exec_ops(ops, env):
        for op in ops:
            kind = type(op)
            if kind is Call:
                sd, fn = stmt_by_name.get(op.stmt, (None, None))
                if sd is None:
                    raise InterpError("call to unknown statement %r" % op.stmt)
                if len(op.args) != len(sd.params):
                    raise InterpError("call to %s: expected %d args, got %d"
                                      % (op.stmt, len(sd.params), len(op.args)))
                fn(*[env[a] for a in op.args])
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
