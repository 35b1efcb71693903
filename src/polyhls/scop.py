"""SCoP extraction: per-statement iteration domains, interleaved original
schedules, and read/write access relations."""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import frontend as fe
from .affine import EQ, INEQ, AffineMap, Const, DimRef, IntegerSet, SymRef, format_map, format_set
from .errors import NonAffineError, ParseError


@dataclass(frozen=True)
class TilingInfo:
    """Bookkeeping left behind by the tiling transform."""

    sizes: tuple  # per tiled dim
    tile_dims: tuple  # tile dim indices in the (new) domain space
    point_dims: tuple  # tiled point dim indices in the (new) domain space
    tile_time_levels: tuple  # schedule time levels of the tile dims
    orig_domains: tuple  # pre-tiling domains, embedded into the new space


@dataclass(frozen=True)
class PolyStmt:
    name: str
    domain: IntegerSet  # dims = loop vars (plus tile dims after tiling)
    dim_names: tuple
    schedule: AffineMap  # domain dims -> multidimensional time (None until assigned)
    writes: tuple  # of (array name, AffineMap over domain dims)
    reads: tuple
    body: fe.Assign  # template; subscripts/rhs use the original loop-var names
    body_dims: tuple  # domain dim index of each original loop var, outermost first
    position: tuple  # textual-order constants c0..cd for the 2d+1 schedule
    guard: IntegerSet = None  # over domain dims; inserted by sub-bounding-box tiling


@dataclass(frozen=True)
class Scop:
    name: str
    symbols: tuple  # size-parameter names
    context: IntegerSet  # 0-dim set over the symbols
    statements: tuple  # of PolyStmt
    arrays: tuple = ()  # of frontend.ArrayDecl
    parallel_levels: frozenset = frozenset()  # schedule time levels marked parallel
    tiling: TilingInfo = None

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


class _AffineConv:
    """Converts frontend expressions to AffineExprs over (loop vars, symbols)."""

    def __init__(self, loop_vars, symbols):
        self.loop_vars = list(loop_vars)
        self.symbols = list(symbols)

    def conv(self, e):
        if isinstance(e, fe.IntLit):
            return Const(e.value)
        if isinstance(e, fe.Name):
            if e.ident in self.loop_vars:
                return DimRef(self.loop_vars.index(e.ident))
            if e.ident in self.symbols:
                return SymRef(self.symbols.index(e.ident))
            raise NonAffineError("unknown identifier %r in affine position" % e.ident)
        if isinstance(e, fe.BinOp):
            lhs, rhs = self.conv(e.lhs), self.conv(e.rhs)
            if e.op == "+":
                return lhs + rhs
            if e.op == "-":
                return lhs - rhs
            if rhs.is_const:
                return lhs * rhs.const
            if lhs.is_const:
                return rhs * lhs.const
            raise NonAffineError("non-affine product %r" % fe.format_expr(e))
        raise NonAffineError("non-affine expression %r" % fe.format_expr(e))


def _cond_constraints(conv, stmt, negate=False):
    lhs, rhs = conv.conv(stmt.lhs), conv.conv(stmt.rhs)
    diff = lhs - rhs
    op = stmt.op
    if negate:
        neg = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}
        if op == "==":
            raise NonAffineError("else-branch of an equality test is not affine")
        op = neg[op]
    if op == "<":
        return [(-diff - 1, INEQ)]  # rhs - lhs - 1 >= 0
    if op == "<=":
        return [(-diff, INEQ)]
    if op == ">":
        return [(diff - 1, INEQ)]
    if op == ">=":
        return [(diff, INEQ)]
    return [(diff, EQ)]


def default_context(symbols, assumptions=()):
    """Context set: every symbol >= 1 plus any extra assumptions, given as
    (AffineExpr, kind) pairs over the symbol space."""
    cons = [(SymRef(i) - 1, INEQ) for i in range(len(symbols))]
    cons.extend(assumptions)
    return IntegerSet.from_constraints(0, len(symbols), cons)


def extract_scops(program, assumptions=()):
    """One :class:`Scop` per pragma-delimited region, in textual order."""
    scops = []
    idx = 0
    i = 0
    body = program.body
    while i < len(body):
        if isinstance(body[i], fe.ScopBegin):
            j = i + 1
            region = []
            while not isinstance(body[j], fe.ScopEnd):
                region.append(body[j])
                j += 1
            scops.append(_build_scop(program, region, "scop%d" % idx, assumptions))
            idx += 1
            i = j + 1
        else:
            i += 1
    return scops


def stmt_names(nodes):
    """Name of each assignment in `nodes`, keyed by ``id``: S1, S2, ... in
    textual order, counted afresh after each ``#pragma scop``; a label
    overrides."""
    names = {}
    count = 0

    def walk(nodes):
        nonlocal count
        for node in nodes:
            if isinstance(node, fe.ScopBegin):
                count = 0
            elif isinstance(node, fe.For):
                walk(node.body)
            elif isinstance(node, fe.If):
                walk(node.then)
                walk(node.els)
            elif isinstance(node, fe.Assign):
                count += 1
                names[id(node)] = node.label or "S%d" % count

    walk(nodes)
    return names


def _build_scop(program, region, name, assumptions):
    symbols = program.symbols
    stmts = []
    names = stmt_names(region)

    def walk(nodes, loops, conds, path):
        # path: textual-position constants accumulated so far (len(loops)+1
        # entries, last one mutable as we pass children)
        pos = 0
        for node in nodes:
            if isinstance(node, fe.For):
                conv = _AffineConv([v for v, _, _ in loops], symbols)
                try:
                    lb = conv.conv(node.lower)
                    ub = conv.conv(node.upper) - 1  # inclusive
                except NonAffineError as e:
                    raise NonAffineError("loop bound of %r: %s" % (node.var, e))
                walk(node.body, loops + [(node.var, lb, ub)], conds, path + [pos])
                pos += 1
            elif isinstance(node, fe.If):
                conv = _AffineConv([v for v, _, _ in loops], symbols)
                walk(node.then, loops, conds + _cond_constraints(conv, node), path)
                if node.els:
                    walk(node.els, loops, conds + _cond_constraints(conv, node, negate=True), path)
            elif isinstance(node, fe.Assign):
                stmts.append(_build_stmt(program, node, names[id(node)], loops, conds,
                                         path + [pos]))
                pos += 1
            elif isinstance(node, (fe.ScopBegin, fe.ScopEnd)):
                raise ParseError("nested #pragma scop", *node.pos)
            else:
                raise NonAffineError("unsupported statement inside SCoP")

    walk(region, [], [], [])
    if len({s.name for s in stmts}) != len(stmts):
        raise ParseError("duplicate statement name in SCoP %s" % name)
    return Scop(name, symbols, default_context(symbols, assumptions), tuple(stmts),
                arrays=program.arrays)


def _build_stmt(program, assign, name, loops, conds, path):
    symbols = program.symbols
    vars_ = [v for v, _, _ in loops]
    conv = _AffineConv(vars_, symbols)
    cons = []
    for k, (v, lb, ub) in enumerate(loops):
        # lb/ub were converted in the scope of the outer loops only; their
        # dim indices already match this statement's dim space
        cons.append((DimRef(k) - lb, INEQ))
        cons.append((ub - DimRef(k), INEQ))
    cons.extend(conds)
    domain = IntegerSet.from_constraints(len(loops), len(symbols), cons)

    def access_map(ref):
        decl = None
        for a in program.arrays:
            if a.name == ref.array:
                decl = a
        if decl is None:
            raise NonAffineError("undeclared array %r" % ref.array)
        if len(ref.subs) != len(decl.extents):
            raise NonAffineError("array %s rank mismatch" % ref.array)
        try:
            exprs = tuple(conv.conv(s) for s in ref.subs)
        except NonAffineError as e:
            raise NonAffineError("subscript of %s: %s" % (ref.array, e))
        return (ref.array, AffineMap(len(loops), len(symbols), exprs))

    writes = (access_map(assign.ref),)
    reads = []
    seen = set()

    def collect_reads(e):
        if isinstance(e, fe.ArrayRef):
            m = access_map(e)
            key = (m[0], m[1])
            if key not in seen:
                seen.add(key)
                reads.append(m)
        elif isinstance(e, fe.BinOp):
            collect_reads(e.lhs)
            collect_reads(e.rhs)
        elif isinstance(e, fe.Name):
            if e.ident not in vars_ and e.ident not in symbols:
                raise NonAffineError("unknown identifier %r" % e.ident)

    collect_reads(assign.rhs)
    return PolyStmt(
        name=name,
        domain=domain,
        dim_names=tuple(vars_),
        schedule=None,
        writes=writes,
        reads=tuple(reads),
        body=assign,
        body_dims=tuple(range(len(loops))),
        position=tuple(path),
    )


def original_schedule(scop):
    """Assign interleaved (2d+1) schedules realizing source order."""
    ns = len(scop.symbols)
    scheduled = []
    for s in scop.statements:
        if s.schedule is not None:
            raise ValueError("statement %s already has a schedule" % s.name)
        results = []
        d = len(s.body_dims)
        for k in range(d):
            results.append(Const(s.position[k]))
            results.append(DimRef(s.body_dims[k]))
        results.append(Const(s.position[d]))
        scheduled.append(replace(s, schedule=AffineMap(s.domain.num_dims, ns, tuple(results))))
    depth = max((len(s.schedule.results) for s in scheduled), default=0)
    padded = []
    for s in scheduled:
        r = s.schedule.results + (Const(0),) * (depth - len(s.schedule.results))
        padded.append(replace(s, schedule=AffineMap(s.schedule.num_dims, ns, r)))
    return replace(scop, statements=tuple(padded))


def build_scop(program, assumptions=()):
    """extract + original schedules, for the common single-call path."""
    return [original_schedule(s) for s in extract_scops(program, assumptions)]


def dump_scop(scop):
    """Human-readable dump in the affine textual syntax (`--dump=scop`)."""
    out = ["scop %s  symbols %s" % (scop.name, list(scop.symbols))]
    out.append("  context: %s" % format_set(scop.context, sym_names=list(scop.symbols)))
    for s in scop.statements:
        dn = list(s.dim_names)
        sn = list(scop.symbols)
        out.append("  stmt %s" % s.name)
        out.append("    domain: %s" % format_set(s.domain, dim_names=dn, sym_names=sn))
        if s.schedule is not None:
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
