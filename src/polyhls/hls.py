"""HLS lowering: lower a module's affine ops in place into standard-level
ops with explicit floord/ceild/min/max arithmetic, split kernel from host with
per-array transfer classification, insert HLS directives, and emit C99.

The emitted file is self-contained: the host main() reads symbol values
from argv and array contents from stdin, calls the kernel, and prints the
output arrays — no vendor runtime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from . import frontend as fe
from .affine import FLOORDIV, MOD
from .errors import CodegenError, InterpError
from .ir import AffineIrModule, Call, For, If, format_decls


# ---------------------------------------------------------------------------
# standard-level op ASTs; expressions are frontend.Expr trees (Name, IntLit,
# BinOp and Call for floord/ceild/min/max).  Statement calls stay `ir.Call`.


@dataclass(frozen=True)
class CFor:
    var: str
    lower: fe.Expr
    upper: fe.Expr  # inclusive
    parallel: bool
    body: tuple
    pipeline: bool = False
    unroll: int = None


@dataclass(frozen=True)
class CGuard:
    cond: tuple  # of (fe.Expr, "eq"/"ineq") meaning expr == 0 / expr >= 0
    then: tuple
    els: tuple = ()


@dataclass(frozen=True)
class HlsProgram:
    name: str  # kernel is <name>_kernel
    symbols: tuple
    arrays: tuple  # declared arrays actually referenced by the kernel
    stmts: tuple
    kernel: tuple  # standard-level ops
    transfers: tuple  # of (array name, "in"/"out"/"inout"), declaration order


# ---------------------------------------------------------------------------
# affine -> standard expression conversion


def _fold(fn, mr):
    """`fn` (max or min) of the C forms of the map reference `mr`'s results,
    left to right."""
    exprs = [_cexpr(r, list(mr.dims), list(mr.syms)) for r in mr.map.results]
    out = exprs[0]
    for e in exprs[1:]:
        out = fe.Call(fn, (out, e))
    return out


def _cexpr(e, dims, syms):
    """C form of an affine expression: its terms in key order, joined
    left to right with `+`/`-`, then the constant."""
    terms = [(fe.Name(dims[i]), c) for i, c in e.dims]
    terms += [(fe.Name(syms[j]), c) for j, c in e.syms]
    for kind, op, b, c in e.divs:
        x, d = _cexpr(op, dims, syms), fe.IntLit(b)
        if kind == MOD:  # x - floord(x, b) * b
            atom = fe.BinOp("-", x, fe.BinOp("*", fe.Call("floord", (x, d)), d))
        else:
            atom = fe.Call("floord" if kind == FLOORDIV else "ceild", (x, d))
        terms.append((atom, c))
    out = None
    for atom, c in terms:
        if out is None:
            out = atom if c == 1 else fe.BinOp("*", atom, fe.IntLit(c))
        else:
            mag = atom if abs(c) == 1 else fe.BinOp("*", atom, fe.IntLit(abs(c)))
            out = fe.BinOp("-" if c < 0 else "+", out, mag)
    if out is None:
        return fe.IntLit(e.const)
    if e.const:
        out = fe.BinOp("-" if e.const < 0 else "+", out, fe.IntLit(abs(e.const)))
    return out


def _cond_from_setref(sr):
    if sr.set.num_exists:
        raise CodegenError("guard sets with existentials cannot be lowered")
    parts = []
    for expr, kind in sr.set.constraints:
        parts.append((_cexpr(expr, list(sr.dims), list(sr.syms)), kind))
    return tuple(parts)


def lower_to_standard(m: AffineIrModule) -> AffineIrModule:
    """`m` with its ops lowered in place: every map expands into explicit
    min/max/floord/ceild arithmetic, and `parallel_for` becomes an
    annotated sequential loop."""

    def lower(op, state):
        if isinstance(op, For):
            return CFor(op.var, _fold("max", op.lb), _fold("min", op.ub), op.parallel,
                        op.body), None
        if isinstance(op, If):
            return CGuard(_cond_from_setref(op.cond), op.then, op.els), None
        if isinstance(op, Call):
            return op, None
        raise CodegenError("unknown op %r" % (op,))

    return replace(m, body=fe.rebuild(m.body, lower))


# ---------------------------------------------------------------------------
# host/kernel partition


def _access_sets(stmts):
    reads, writes = set(), set()
    for sd in stmts:
        writes.add(sd.body.ref.array)
        for root in sd.body.ref.subs + (sd.body.rhs,):
            reads.update(e.array for e in fe.subexprs(root) if isinstance(e, fe.ArrayRef))
    return reads, writes


def partition(m: AffineIrModule, name="scop0") -> HlsProgram:
    """One kernel per module; transfers classified from the statement
    templates' read/write sets (read-only -> in, write-only -> out,
    both -> inout)."""
    reads, writes = _access_sets(m.stmts)
    arrays = tuple(a for a in m.arrays if a.name in reads | writes)
    transfers = []
    for a in arrays:
        if a.name in reads and a.name in writes:
            transfers.append((a.name, "inout"))
        elif a.name in reads:
            transfers.append((a.name, "in"))
        else:
            transfers.append((a.name, "out"))
    return HlsProgram(name, m.symbols, arrays, m.stmts, lower_to_standard(m).body,
                      tuple(transfers))


# ---------------------------------------------------------------------------
# directive insertion


@dataclass(frozen=True)
class DirectivePolicy:
    unroll_limit: int = 16


def _trip_count(loop):
    """The trip count when both bounds are constant, else None."""
    try:
        return max(0, fe.evaluate(loop.upper, {}) - fe.evaluate(loop.lower, {}) + 1)
    except InterpError:  # a bound names a symbol or an outer loop var
        return None


def insert_directives(p: HlsProgram, policy: DirectivePolicy = DirectivePolicy()) -> HlsProgram:
    """Innermost loops get `pipeline II=1`; parallel loops with a constant
    trip count within the policy limit get `unroll factor=<trip>`; parallel
    loops with symbolic bounds get nothing."""

    def mark(op, state):
        if not isinstance(op, CFor):
            return op, None
        pipe = not any(isinstance(o, CFor) for o, _ in fe.walk(op.body))
        trip = _trip_count(op) if op.parallel else None  # None, or 0 or more
        unroll = trip if trip and trip <= policy.unroll_limit else None
        return replace(op, pipeline=pipe, unroll=unroll), None

    return replace(p, kernel=fe.rebuild(p.kernel, mark))


# ---------------------------------------------------------------------------
# C emission

_HELPERS = """\
static long long floord(long long a, long long b) {
  return (a >= 0) ? a / b : -((-a + b - 1) / b);
}
static long long ceild(long long a, long long b) {
  return floord(a + b - 1, b);
}
static long long maxll(long long a, long long b) { return a > b ? a : b; }
static long long minll(long long a, long long b) { return a < b ? a : b; }
"""

def _c_elem(kind):
    return "long long" if kind == fe.INT64 else "double"


def _subst_names(e, mapping):
    if isinstance(e, fe.Name):
        return fe.Name(mapping.get(e.ident, e.ident))
    if isinstance(e, fe.ArrayRef):
        return fe.ArrayRef(e.array, tuple(_subst_names(s, mapping) for s in e.subs))
    if isinstance(e, fe.BinOp):
        return fe.BinOp(e.op, _subst_names(e.lhs, mapping), _subst_names(e.rhs, mapping))
    return e


def _nontrivial_bound(e):
    return isinstance(e, fe.Call) and e.fn in ("min", "max")


def _cond_text(cond):
    return " && ".join("%s %s 0" % (fe.format_expr(e, c=True), "==" if kind == "eq" else ">=")
                       for e, kind in cond)


def emit_c(p: HlsProgram) -> str:
    """Self-contained C99: helpers, `<name>_kernel` with pragmas, and a
    host main() (argv symbols, stdin array data, stdout results)."""
    out = []
    w = out.append
    w("#include <stdio.h>")
    w("#include <stdlib.h>")
    w("")
    w(_HELPERS)
    stmt_by_name = {s.name: s for s in p.stmts}
    # each array's C shape: its `[e]` dims and its `e * e` size
    dims = {a.name: ["[%s]" % e for e in a.extents] for a in p.arrays}
    size = {a.name: " * ".join(str(e) for e in a.extents) for a in p.arrays}
    sym_params = ["long long %s" % s for s in p.symbols]
    arr_params = ["%s %s%s" % (_c_elem(a.elem), a.name, "".join(dims[a.name]))
                  for a in p.arrays]
    sig = "void %s_kernel(%s)" % (p.name, ", ".join(sym_params + arr_params))
    w(sig + " {")
    hoisted = itertools.count()

    def head(op, pad):
        if isinstance(op, CFor):
            lines, ends = [], []
            for end, e in (("lb", op.lower), ("ub", op.upper)):
                text = fe.format_expr(e, c=True)
                if _nontrivial_bound(e):  # hoisted into a variable
                    var = "%s%d" % (end, next(hoisted))
                    lines.append("%slong long %s = %s;" % (pad, var, text))
                    text = var
                ends.append(text)
            lo, up = ends
            lines.append("%sfor (long long %s = %s; %s <= %s; %s++) {%s"
                         % (pad, op.var, lo, op.var, up, op.var,
                            "  /* parallel */" if op.parallel else ""))
            if op.pipeline:
                lines.append("#pragma HLS pipeline II=1")
            if op.unroll is not None:
                lines.append("#pragma HLS unroll factor=%d" % op.unroll)
            return lines
        if isinstance(op, CGuard):
            return ["%sif (%s) {" % (pad, _cond_text(op.cond) or "1")]
        if isinstance(op, Call):
            sd = stmt_by_name[op.stmt]
            mapping = dict(zip(sd.params, op.args))
            a = _subst_names(sd.body.ref, mapping)
            rhs = _subst_names(sd.body.rhs, mapping)
            return ["%s%s = %s;  /* %s */" % (pad, fe.format_expr(a, c=True),
                                              fe.format_expr(rhs, c=True), op.stmt)]
        raise CodegenError("cannot emit op %r" % (op,))

    out += fe.format_nest(p.kernel, head, 1)
    w("}")
    w("")
    # host: argv symbols, stdin for in/inout arrays, calloc-zero for out,
    # kernel call, out/inout arrays printed (%a keeps doubles bit-exact)
    w("int main(int argc, char **argv) {")
    w("  if (argc != %d) {" % (1 + len(p.symbols)))
    w('    fprintf(stderr, "usage: %%s %s\\n", argv[0]);' % " ".join(p.symbols))
    w("    return 1;")
    w("  }")
    for i, s in enumerate(p.symbols):
        w("  long long %s = atoll(argv[%d]);" % (s, i + 1))
    kinds = dict(p.transfers)
    for a in p.arrays:
        et = _c_elem(a.elem)
        w("  %s *%s_buf = calloc(%s, sizeof(%s));" % (et, a.name, size[a.name], et))
    for a in p.arrays:
        if kinds[a.name] in ("in", "inout"):
            fmt = "%lld" if a.elem == fe.INT64 else "%lf"
            w("  for (long long k = 0; k < %s; k++) {" % size[a.name])
            w('    if (scanf("%s", &%s_buf[k]) != 1) {' % (fmt, a.name))
            w('      fprintf(stderr, "bad input for %s\\n");' % a.name)
            w("      return 1;")
            w("    }")
            w("  }")
    args = list(p.symbols) + [
        "(%s (*)%s)%s_buf" % (_c_elem(a.elem), "".join(dims[a.name][1:]), a.name)
        if len(a.extents) > 1 else "%s_buf" % a.name
        for a in p.arrays]
    w("  %s_kernel(%s);" % (p.name, ", ".join(args)))
    for a in p.arrays:
        if kinds[a.name] in ("out", "inout"):
            fmt = "%lld" if a.elem == fe.INT64 else "%a"
            w("  for (long long k = 0; k < %s; k++) {" % size[a.name])
            w('    printf("%s\\n", %s_buf[k]);' % (fmt, a.name))
            w("  }")
    w("  return 0;")
    w("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# textual dump of the standard level (`--emit=std`)


def print_std(m) -> str:
    """A lowered module or an `HlsProgram` (with its transfers) as text."""
    out = format_decls(m)
    if isinstance(m, HlsProgram):
        out += ["transfer %s %s" % (kind, name) for name, kind in m.transfers]

    def head(op, pad):
        if isinstance(op, CFor):
            flags = []
            if op.parallel:
                flags.append("parallel")
            if op.pipeline:
                flags.append("pipeline")
            if op.unroll is not None:
                flags.append("unroll=%d" % op.unroll)
            return ["%sfor%s %s = %s to %s {" % (
                pad, "".join(" " + f for f in flags), op.var,
                fe.format_expr(op.lower, c=True), fe.format_expr(op.upper, c=True))]
        if isinstance(op, CGuard):
            return ["%sif %s {" % (pad, _cond_text(op.cond))]
        if isinstance(op, Call):
            return ["%scall %s(%s)" % (pad, op.stmt, ", ".join(op.args))]
        raise TypeError(op)

    out += fe.format_nest(m.kernel if isinstance(m, HlsProgram) else m.body, head)
    return "\n".join(out) + "\n"
