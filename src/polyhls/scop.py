"""SCoP construction: per-statement iteration domains, interleaved original
schedules, and read/write access relations, built in one pass.  Bounds,
subscripts, `if` conditions and `--assume` texts become affine through
:func:`polyhls.affine.from_tree` and :func:`polyhls.affine.from_condition`."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from . import frontend as fe
from .affine import (INEQ, AffineMap, Const, DimRef, IntegerSet, SymRef, format_map, format_set,
                     from_condition, from_tree)
from .errors import NonAffineError, ParseError


@dataclass(frozen=True)
class PolyStmt:
    name: str
    domain: IntegerSet  # dims = loop vars (plus tile dims after tiling)
    dim_names: tuple
    schedule: AffineMap  # domain dims -> multidimensional time
    writes: tuple  # of (array name, AffineMap over domain dims)
    reads: tuple
    body: fe.Assign  # template; subscripts/rhs use the original loop-var names
    body_dims: tuple  # domain dim index of each original loop var, outermost first
    guard: IntegerSet = None  # over domain dims; inserted by sub-bounding-box tiling


@dataclass(frozen=True)
class Scop:
    name: str
    symbols: tuple  # size-parameter names
    context: IntegerSet  # 0-dim set over the symbols
    statements: tuple  # of PolyStmt
    arrays: tuple = ()  # of frontend.ArrayDecl
    parallel_levels: frozenset = frozenset()  # schedule time levels marked parallel
    tile_sizes: tuple = ()  # of the last tiling; its tile dims are the first domain dims

    @property
    def time_depth(self):
        return len(self.statements[0].schedule.results) if self.statements else 0

    def loop_levels(self):
        """Time levels whose schedule result is non-constant for some
        statement, in order."""
        out = []
        for lvl in range(self.time_depth):
            for s in self.statements:
                if not s.schedule.results[lvl].is_const:
                    out.append(lvl)
                    break
        return out


def default_context(symbols, assumptions=()):
    """Context set: every symbol >= 1, plus each assumption, a comparison
    text over the symbols in `if`-condition syntax (``N >= T + 1``)."""
    cons = [(SymRef(i) - 1, INEQ) for i in range(len(symbols))]
    for text in assumptions:
        cons += from_condition(fe.parse_condition(text), (), symbols)
    return IntegerSet.from_constraints(0, len(symbols), cons)


def build_scop(program, assumptions=()):
    """One scheduled :class:`Scop` per pragma-delimited region, in textual
    order; `assumptions` (see :func:`default_context`) hold in every
    region's context."""
    context = default_context(program.symbols, assumptions)
    scops, region = [], None
    for node in program.body:
        if isinstance(node, fe.ScopEnd):
            scops.append(_build_scop(program, region, "scop%d" % len(scops), context))
            region = None
        elif region is not None:
            region.append(node)
        elif isinstance(node, fe.ScopBegin):
            region = []
    return scops


def stmt_names(nodes):
    """Name of each assignment in `nodes`, keyed by ``id``: S1, S2, ... in
    textual order, counted afresh after each ``#pragma scop``; a label
    overrides."""
    names, count = {}, 0
    for node, _ in fe.walk(nodes):
        if isinstance(node, fe.ScopBegin):
            count = 0
        elif isinstance(node, fe.Assign):
            count += 1
            names[id(node)] = node.label or "S%d" % count
    return names


def _build_scop(program, region, name, context):
    symbols = program.symbols
    stmts = []
    names = stmt_names(region)

    def walk(nodes, vars_, cons, sched, pos):
        # cons: the domain rows of the enclosing loops and `if`s; sched: the
        # schedule prefix (c0, i0, c1, i1, ...); pos counts the positions in
        # the innermost loop body, shared by its `if` blocks
        for node in nodes:
            if isinstance(node, fe.For):
                d = DimRef(len(vars_))
                try:
                    lb = from_tree(node.lower, vars_, symbols)
                    ub = from_tree(node.upper, vars_, symbols) - 1  # inclusive
                except NonAffineError as e:
                    raise NonAffineError("loop bound of %r: %s" % (node.var, e))
                walk(node.body, vars_ + [node.var],
                     cons + [(d - lb, INEQ), (ub - d, INEQ)],
                     sched + [Const(next(pos)), d], itertools.count())
            elif isinstance(node, fe.If):
                cond = (node.op, node.lhs, node.rhs)
                walk(node.then, vars_, cons + from_condition(cond, vars_, symbols), sched, pos)
                if node.els:
                    walk(node.els, vars_, cons + from_condition(cond, vars_, symbols, True),
                         sched, pos)
            elif isinstance(node, fe.Assign):
                stmts.append(_build_stmt(program, node, names[id(node)], vars_, cons,
                                         sched + [Const(next(pos))]))
            else:
                raise NonAffineError("unsupported statement inside SCoP")

    walk(region, [], [], [], itertools.count())
    if len({s.name for s in stmts}) != len(stmts):
        raise ParseError("duplicate statement name in SCoP %s" % name)
    # pad every schedule with trailing zeros to the deepest one
    depth = max((len(s.schedule.results) for s in stmts), default=0)
    for k, s in enumerate(stmts):
        pad = (Const(0),) * (depth - len(s.schedule.results))
        stmts[k] = replace(s, schedule=AffineMap(
            s.schedule.num_dims, len(symbols), s.schedule.results + pad))
    return Scop(name, symbols, context, tuple(stmts), arrays=program.arrays)


def _build_stmt(program, assign, name, vars_, cons, sched):
    """The statement `assign` under the loops `vars_`, outermost first, with
    the domain rows `cons` and the 2d+1 schedule `sched`."""
    symbols = program.symbols
    domain = IntegerSet.from_constraints(len(vars_), len(symbols), cons)

    def access_map(ref):
        decl = next((a for a in program.arrays if a.name == ref.array), None)
        if decl is None:
            raise NonAffineError("undeclared array %r" % ref.array)
        if len(ref.subs) != len(decl.extents):
            raise NonAffineError("array %s rank mismatch" % ref.array)
        try:
            exprs = tuple(from_tree(s, vars_, symbols) for s in ref.subs)
        except NonAffineError as e:
            raise NonAffineError("subscript of %s: %s" % (ref.array, e))
        return (ref.array, AffineMap(len(vars_), len(symbols), exprs))

    writes = (access_map(assign.ref),)
    reads = []
    for e in fe.subexprs(assign.rhs):
        if isinstance(e, fe.ArrayRef):
            m = access_map(e)
            if m not in reads:
                reads.append(m)
        elif isinstance(e, fe.Name):
            if e.ident not in vars_ and e.ident not in symbols:
                raise NonAffineError("unknown identifier %r" % e.ident)

    return PolyStmt(
        name=name,
        domain=domain,
        dim_names=tuple(vars_),
        schedule=AffineMap(len(vars_), len(symbols), tuple(sched)),
        writes=writes,
        reads=tuple(reads),
        body=assign,
        body_dims=tuple(range(len(vars_))),
    )


def dump_scop(scop):
    """Human-readable dump in the affine textual syntax (`--dump=scop`)."""
    out = ["scop %s  symbols %s" % (scop.name, list(scop.symbols))]
    out.append("  context: %s" % format_set(scop.context, sym_names=list(scop.symbols)))
    for s in scop.statements:
        dn = list(s.dim_names)
        sn = list(scop.symbols)
        out.append("  stmt %s" % s.name)
        out.append("    domain: %s" % format_set(s.domain, dim_names=dn, sym_names=sn))
        out.append("    schedule: %s" % format_map(s.schedule, dim_names=dn, sym_names=sn))
        for arr, m in s.writes:
            out.append("    write %s: %s" % (arr, format_map(m, dim_names=dn, sym_names=sn)))
        for arr, m in s.reads:
            out.append("    read %s: %s" % (arr, format_map(m, dim_names=dn, sym_names=sn)))
        if s.guard is not None:
            out.append("    guard: %s" % format_set(s.guard, dim_names=dn, sym_names=sn))
    if scop.parallel_levels:
        out.append("  parallel time levels: %s" % sorted(scop.parallel_levels))
    return "\n".join(out) + "\n"
