"""Polyhedra-to-loops scanning: turn a scheduled Scop into Affine IR.

Schedule time levels are scanned outer-to-inner.  Constant levels become
sequencing, loop levels become ``affine.for`` ops whose bounds come from
Fourier-Motzkin elimination of the inner dims (max-of-lowers /
min-of-uppers, with floordiv/ceildiv where coefficients demand it).
Statements sharing a loop level must agree on its bounds; no CLooG-style
domain separation is attempted.
"""

from __future__ import annotations

from dataclasses import replace

from . import frontend as fe
from .affine import EQ, INEQ, AffineMap, DimRef, IntegerSet
from .errors import CodegenError
from .ir import AffineIrModule, Call, For, If, MapRef, SetRef, StmtDef
from .scop import default_context


def _scan_set(scop, stmt):
    """Set over (time loop dims ++ domain dims): domain constraints plus
    one equality per loop level tying the time dim to the schedule."""
    levels = scop.loop_levels()
    L = len(levels)
    return stmt.domain.insert_dims(0, L).where(
        [(DimRef(i) - stmt.schedule.results[lvl].insert_dims(0, L), EQ)
         for i, lvl in enumerate(levels)])


def _stmt_is_empty(scop, stmt):
    ctx = scop.context.insert_dims(0, stmt.domain.num_dims)
    return stmt.domain.intersect(ctx).is_empty()


def _level_var_name(group, level, loop_index, taken, reserved):
    """Name of the loop at `level`: the dim name every statement of `group`
    schedules there, else ``t<loop_index + 1>``, suffixed with ``_`` until it
    is neither an enclosing loop var (`taken`) nor a symbol or array name
    (`reserved`)."""
    taken = taken | reserved
    name = None
    for s in group:
        d = s.schedule.results[level].as_dim()
        if d is not None:
            n = s.dim_names[d]
            if name in (None, n):
                name = n
                continue
        name = None
        break
    if name is None:
        name = "t%d" % (loop_index + 1)
    while name in taken:
        name += "_"
    return name


def _guard_setref(scop, stmt, var_names, dim_level):
    """Rewrite the statement guard (over domain dims) onto the scan dims."""
    g = stmt.guard
    L = len(var_names)
    nd, ne, ns = g.num_dims, g.num_exists, g.num_syms
    rows = []
    for coeffs, is_eq in g.rows:
        new = [0] * (L + ne + ns + 1)
        for d in range(nd):
            if coeffs[d] == 0:
                continue
            lvl = dim_level.get(d)
            if lvl is None:
                raise CodegenError(
                    "guard of %s uses dim %s which is not directly scheduled"
                    % (stmt.name, stmt.dim_names[d]))
            new[lvl] += coeffs[d]
        for k in range(ne + ns + 1):
            new[L + k] += coeffs[nd + k]
        rows.append((tuple(new), is_eq))
    gset = IntegerSet(L, ne, ns, tuple(rows))
    return SetRef(gset, tuple(var_names), tuple(scop.symbols))


def generate_loops(scop):
    """Affine IR executing exactly the Scop's instances in
    schedule-lexicographic order (parallel levels excepted)."""
    stmts = [s for s in scop.statements if not _stmt_is_empty(scop, s)]
    levels = scop.loop_levels()
    level_loop_index = {lvl: i for i, lvl in enumerate(levels)}
    depth = scop.time_depth
    syms = tuple(scop.symbols)
    # statement -> the (lowers, uppers) of each loop level
    bounds_of = {s.name: _scan_set(scop, s).loop_bounds(len(levels)) for s in stmts}
    reserved = set(syms) | {a.name for a in scop.arrays}

    # domain dim -> loop level (for call operands and guards)
    dim_level = {}
    for s in stmts:
        mapping = {}
        for lvl in levels:
            d = s.schedule.results[lvl].as_dim()
            if d is not None:
                mapping[d] = level_loop_index[lvl]
        dim_level[s.name] = mapping

    def leaf(stmt, var_names):
        args = []
        for d in stmt.body_dims:
            lvl = dim_level[stmt.name].get(d)
            if lvl is None:
                raise CodegenError(
                    "statement %s: loop var %s is not directly scheduled"
                    % (stmt.name, stmt.dim_names[d]))
            args.append(var_names[lvl])
        op = Call(stmt.name, tuple(args))
        if stmt.guard is not None:
            op = If(_guard_setref(scop, stmt, var_names, dim_level[stmt.name]), (op,))
        return op

    def gen(group, level, var_names):
        if level == depth:
            return tuple(leaf(s, var_names) for s in group)
        consts = [s.schedule.results[level] for s in group]
        if all(c.is_const for c in consts):
            out = []
            for v in sorted(set(c.const for c in consts)):
                sub = [s for s, c in zip(group, consts) if c.const == v]
                out.extend(gen(sub, level + 1, var_names))
            return tuple(out)
        if any(c.is_const for c in consts):
            raise CodegenError(
                "mixed constant/loop schedule results at time level %d" % level)
        li = level_loop_index[level]
        lo, up = bounds_of[group[0].name][li]
        if any(bounds_of[s.name][li] != (lo, up) for s in group):
            raise CodegenError(
                "statements %s share a loop level with differing bounds"
                % [s.name for s in group])
        var = _level_var_name(group, level, li, set(var_names), reserved)
        operands = tuple(var_names[:li])
        lb = MapRef(AffineMap(li, len(syms), tuple(lo)), operands, syms)
        ub = MapRef(AffineMap(li, len(syms), tuple(up)), operands, syms)
        body = gen(group, level + 1, var_names + [var])
        return (For(var, lb, ub, level in scop.parallel_levels, body),)

    defs = tuple(StmtDef(s.name, tuple(s.dim_names[d] for d in s.body_dims),
                         replace(s.body, label=""))
                 for s in stmts)
    return AffineIrModule(syms, tuple(scop.arrays), defs, gen(stmts, 0, []))


def dump_bounds(module):
    """`--dump=bounds`: per-loop lower/upper map results."""
    lines = ["%s%s: lb max%s  ub min%s" % (
        "  " * sum(isinstance(o, For) for o in path), op.var,
        [str(r) for r in op.lb.map.results], [str(r) for r in op.ub.map.results])
        for op, path in fe.walk(module.body) if isinstance(op, For)]
    return "\n".join(lines) + "\n"


def simplify_bounds(module):
    """Drop bound-map results provably dominated by another result in their
    enclosing context (every symbol >= 1); the scanned iteration sets are
    unchanged."""
    ns = len(module.symbols)

    def dominated(e1, e2, rows, nouter, drop_if):
        # drop_if "ge": drop e1 when e1 >= e2 always; "le": when e1 <= e2
        test = e2 - e1 - 1 if drop_if == "ge" else e1 - e2 - 1
        return IntegerSet.from_constraints(nouter, ns, rows + [(test, INEQ)]).is_empty()

    def prune(results, rows, nouter, drop_if):
        keep = list(results)
        i = 0
        while i < len(keep):
            if any(j != i and dominated(keep[i], other, rows, nouter, drop_if)
                   for j, other in enumerate(keep)):
                keep.pop(i)
            else:
                i += 1
        return tuple(keep)

    ctx_rows = list(default_context(module.symbols).constraints)

    def simplify(op, state):
        if not isinstance(op, For):
            return op, state
        rows, nouter = state
        lo = prune(op.lb.map.results, rows, nouter, "le")
        up = prune(op.ub.map.results, rows, nouter, "ge")
        var = DimRef(nouter)
        inner = rows + [(var - e, INEQ) for e in lo] + [(e - var, INEQ) for e in up]
        return For(op.var, MapRef(AffineMap(nouter, ns, lo), op.lb.dims, op.lb.syms),
                   MapRef(AffineMap(nouter, ns, up), op.ub.dims, op.ub.syms),
                   op.parallel, op.body), (inner, nouter + 1)

    body = fe.rebuild(module.body, simplify, (ctx_rows, 0))
    return AffineIrModule(module.symbols, module.arrays, module.stmts, body)
