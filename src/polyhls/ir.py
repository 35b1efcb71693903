"""The mid-level Affine IR: loops bounded by max/min of affine maps,
affine guards, and opaque statement calls, with a lossless textual format.

Internally both loop ends are inclusive: ``var`` runs over
``[max(lb results), min(ub results)]``.  The printer follows the MLIR-style
exclusive-upper convention, adding 1 to every upper-bound map result (the
``+ 1`` visible in printed maps is exactly that shift); the parser undoes
it, so print/parse round-trips are the identity.

File extension: ``.air``.

The text is read with the one tokenizer of :mod:`polyhls.lexer`, which the
``.pc`` frontend and the affine map/set syntax share; a stmt body, an
array's extents and each map result and set constraint are parsed in place
by the frontend grammar, so their errors carry ``.air`` line and column.
Float literals in stmt bodies are C decimal floats with an optional
exponent (``0.5``, ``1e-05``, ``1e+17``), which covers every value
Python's ``repr`` prints.

Grammar sketch::

    module    := mapdef* "module" "{" decl* op* "}"
    mapdef    := "#" NAME "=" affine_map | "#" NAME "=" integer_set
    decl      := "symbol" NAME
               | "array" NAME ":" ("int64"|"float64") ("[" extent "]")+
               | "stmt" NAME "(" params ")" "{" assignment ";"? "}"
    op        := ("affine.for" | "affine.parallel_for") NAME "="
                   "max" mapref "to" "min" mapref "{" op* "}"
               | "affine.if" setref "{" op* "}" ("else" "{" op* "}")?
               | "call" "@" NAME "(" args ")"
    mapref    := "#" NAME "(" args ")" ("[" args "]")?
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import frontend as fe
from .affine import (KEYWORDS, AffineMap, IntegerSet, format_map, format_set, parse_map_at,
                     parse_set_at)
from .errors import ParseError
from .lexer import Cursor


@dataclass(frozen=True)
class MapRef:
    map: AffineMap
    dims: tuple  # operand names for the map dims
    syms: tuple  # operand names for the map symbols


@dataclass(frozen=True)
class SetRef:
    set: IntegerSet
    dims: tuple
    syms: tuple


@dataclass(frozen=True)
class For:
    var: str
    lb: MapRef  # lower bound = max over results
    ub: MapRef  # upper bound = min over results (inclusive)
    parallel: bool
    body: tuple


@dataclass(frozen=True)
class If:
    cond: SetRef
    then: tuple
    els: tuple = ()


@dataclass(frozen=True)
class Call:
    stmt: str
    args: tuple  # loop-var names


@dataclass(frozen=True)
class StmtDef:
    name: str
    params: tuple  # loop-var parameter names, outermost first
    body: fe.Assign  # assignment template over the params


@dataclass(frozen=True)
class AffineIrModule:
    """A program between codegen and the host/kernel split.  Codegen and
    `parse_ir` fill `body` with `For`/`If`/`Call`; after
    `hls.lower_to_standard` it holds `hls.CFor`/`hls.CGuard`/`Call`
    instead, as an MLIR module does after `-lower-affine`.  `print_ir` and
    `verify_ir` take the affine form only."""

    symbols: tuple
    arrays: tuple  # of fe.ArrayDecl
    stmts: tuple  # of StmtDef
    body: tuple  # of ops


# -- printing ---------------------------------------------------------------


class _MapTable:
    """Interns maps/sets in first-use order for deterministic numbering."""

    def __init__(self):
        self.maps = {}  # map -> number, in first-use order
        self.sets = {}

    def map_name(self, m):
        return "#map%d" % self.maps.setdefault(m, len(self.maps))

    def set_name(self, s):
        return "#set%d" % self.sets.setdefault(s, len(self.sets))


def _shift(m, k):
    """`m` with `k` added to every result: +1 turns an inclusive upper bound
    into the printed exclusive one, -1 turns it back."""
    return AffineMap(m.num_dims, m.num_syms, tuple(r + k for r in m.results))


def _ref_str(name, dims, syms):
    s = "%s(%s)" % (name, ", ".join(dims))
    if syms:
        s += "[%s]" % ", ".join(syms)
    return s


def format_decls(m):
    """The `symbol`, `array` and `stmt` lines of a module or an
    `hls.HlsProgram`, unindented."""
    lines = ["symbol %s" % s for s in m.symbols]
    lines += ["array %s : %s %s" % (a.name, a.elem, "".join("[%s]" % e for e in a.extents))
              for a in m.arrays]
    lines += ["stmt %s(%s) { %s = %s; }" % (s.name, ", ".join(s.params),
                                            fe.format_expr(s.body.ref), fe.format_expr(s.body.rhs))
              for s in m.stmts]
    return lines


def print_ir(module):
    """Canonical text with maps numbered in first-use order."""
    table = _MapTable()

    def head(op, pad):
        if isinstance(op, For):
            lb = table.map_name(op.lb.map)
            ub = table.map_name(_shift(op.ub.map, 1))
            kw = "affine.parallel_for" if op.parallel else "affine.for"
            return ["%s%s %s = max %s to min %s {" % (
                pad, kw, op.var,
                _ref_str(lb, op.lb.dims, op.lb.syms),
                _ref_str(ub, op.ub.dims, op.ub.syms))]
        if isinstance(op, If):
            s = table.set_name(op.cond.set)
            return ["%saffine.if %s {" % (pad, _ref_str(s, op.cond.dims, op.cond.syms))]
        if isinstance(op, Call):
            return ["%scall @%s(%s)" % (pad, op.stmt, ", ".join(op.args))]
        raise TypeError(op)

    body_lines = fe.format_nest(module.body, head, 1)
    decls = ["  " + line for line in format_decls(module)]
    header = []
    for i, m in enumerate(table.maps):
        header.append("#map%d = %s" % (i, format_map(m)))
    for i, s in enumerate(table.sets):
        header.append("#set%d = %s" % (i, format_set(s)))
    lines = header + ["module {"] + decls + body_lines + ["}"]
    return "\n".join(lines) + "\n"


# -- parsing ----------------------------------------------------------------


class _IrParser:
    def __init__(self, text):
        self.cur = Cursor(text)
        self.maps = {}
        self.sets = {}

    def parse(self):
        cur = self.cur
        while cur.peek()[1] == "#":
            cur.next()
            name = cur.name(KEYWORDS, "map/set name after '#'")
            cur.expect("=")
            k, v, p = cur.peek()
            if v == "affine_map":
                self.maps[name] = parse_map_at(cur)
            elif v == "integer_set":
                self.sets[name] = parse_set_at(cur)
            else:
                raise ParseError("expected affine_map or integer_set", *p)
        cur.expect("module")
        cur.expect("{")
        symbols, arrays, stmts = [], [], []
        while cur.peek()[1] in ("symbol", "array", "stmt"):
            which = cur.next()[1]
            if which == "symbol":
                symbols.append(cur.name())
            elif which == "array":
                arrays.append(self._array())
            else:
                stmts.append(self._stmtdef())
        body = cur.until("}", self._op, "unterminated module")
        return AffineIrModule(tuple(symbols), tuple(arrays), tuple(stmts), body)

    def _array(self):
        name = self.cur.name()
        self.cur.expect(":")
        kind, elem, pos = self.cur.next()
        if elem not in (fe.INT64, fe.FLOAT64):
            raise ParseError("element type must be int64 or float64", *pos)
        extents = fe.parse_extents_at(self.cur, KEYWORDS, "array extent")
        if not extents:
            raise ParseError("array %s needs at least one extent" % name)
        return fe.ArrayDecl(name, elem, extents)

    def _stmtdef(self):
        name = self.cur.name()
        params = self.cur.names("(", ")")
        self.cur.expect("{")
        body = fe.parse_assignment_at(self.cur)
        if self.cur.peek()[1] == ";":
            self.cur.next()
        self.cur.expect("}")
        return StmtDef(name, tuple(params), body)

    def _op(self):
        cur = self.cur
        kind, v, pos = cur.peek()
        if v == "affine":
            cur.next()
            cur.expect(".")
            k2, which, p2 = cur.next()
            if which in ("for", "parallel_for"):
                var = cur.name()
                cur.expect("=")
                cur.expect("max")
                lb = self._ref(self.maps, "map", MapRef)
                cur.expect("to")
                cur.expect("min")
                ub = self._ref(self.maps, "map", MapRef)
                body = self._block()
                return For(var, lb, replace(ub, map=_shift(ub.map, -1)),
                           which == "parallel_for", body)
            if which == "if":
                cond = self._ref(self.sets, "set", SetRef)
                then = self._block()
                els = ()
                if cur.peek()[1] == "else":
                    cur.next()
                    els = self._block()
                return If(cond, then, els)
            raise ParseError("unknown affine op %r" % which, *p2)
        if v == "call":
            cur.next()
            cur.expect("@")
            name = cur.name()
            return Call(name, tuple(cur.names("(", ")")))
        raise ParseError("expected an op, found %r" % v, *pos)

    def _block(self):
        self.cur.expect("{")
        return self.cur.until("}", self._op, "unterminated block")

    def _ref(self, table, word, cls):
        """`#name(dims)[syms]`: the `word` ("map" or "set") `name` of
        `table` applied to its operands, as a `cls` (MapRef or SetRef)."""
        self.cur.expect("#")
        kind, name, pos = self.cur.next()
        if name not in table:
            raise ParseError("unknown %s reference #%s" % (word, name), *pos)
        target = table[name]
        dims = tuple(self.cur.names("(", ")"))
        syms = tuple(self.cur.names("[", "]")) if self.cur.peek()[1] == "[" else ()
        if len(dims) != target.num_dims or len(syms) != target.num_syms:
            raise ParseError("%s #%s applied with wrong operand counts" % (word, name), *pos)
        return cls(target, dims, syms)


def parse_ir(text):
    """Parse `.air` text; inverse of :func:`print_ir`."""
    return _IrParser(text).parse()


# -- verification -----------------------------------------------------------


def verify_ir(module):
    """Structural diagnostics; an empty list means the module is valid."""
    diags = []
    arrays = {a.name: len(a.extents) for a in module.arrays}  # name -> rank
    symbols = set(module.symbols)
    stmt_arity = {s.name: len(s.params) for s in module.stmts}
    decls = list(module.symbols) + [a.name for a in module.arrays]
    for what, names in (("declaration of %r", decls), ("stmt @%s", [s.name for s in module.stmts])):
        for n in sorted({n for n in names if names.count(n) > 1}):
            diags.append("duplicate " + what % n)

    for a in module.arrays:
        for e in a.extents:
            if not isinstance(e, int) and e not in symbols:
                diags.append("array %s: extent %r is not a declared symbol" % (a.name, e))
    for s in module.stmts:
        nodes = [e for root in (s.body.ref, s.body.rhs) for e in fe.subexprs(root)]
        used = {e.ident for e in nodes if isinstance(e, fe.Name)}
        used |= {e.array for e in nodes if isinstance(e, fe.ArrayRef)}
        for n in used - set(s.params) - symbols - arrays.keys():
            diags.append("stmt %s: unknown name %r in body" % (s.name, n))
        if s.body.ref.array not in arrays:
            diags.append("stmt %s: writes undeclared array %r" % (s.name, s.body.ref.array))
        for e in nodes:
            if isinstance(e, fe.ArrayRef) and len(e.subs) != arrays.get(e.array, len(e.subs)):
                diags.append("stmt %s: array %s of rank %d has %d subscripts"
                             % (s.name, e.array, arrays[e.array], len(e.subs)))

    def check_ref(ref, in_scope, what):
        for d in ref.dims:
            if d not in in_scope:
                diags.append("%s: operand %r is not a loop var in scope" % (what, d))
        for sy in ref.syms:
            if sy not in symbols:
                diags.append("%s: symbol operand %r is not declared" % (what, sy))

    for op, path in fe.walk(module.body):
        in_scope = {o.var for o in path if isinstance(o, For)}
        if isinstance(op, For):
            if op.var in in_scope:
                diags.append("loop var %r shadows an enclosing loop" % op.var)
            if op.var in symbols or op.var in arrays:
                diags.append("loop var %r shadows %s" % (
                    op.var, "a symbol" if op.var in symbols else "an array"))
            if not op.lb.map.results or not op.ub.map.results:
                diags.append("loop %r has an empty bound map" % op.var)
            check_ref(op.lb, in_scope, "loop %s lb" % op.var)
            check_ref(op.ub, in_scope, "loop %s ub" % op.var)
        elif isinstance(op, If):
            check_ref(op.cond, in_scope, "affine.if")
        elif isinstance(op, Call):
            if op.stmt not in stmt_arity:
                diags.append("call to unknown stmt @%s" % op.stmt)
            elif len(op.args) != stmt_arity[op.stmt]:
                diags.append("call @%s expects %d operands, got %d"
                             % (op.stmt, stmt_arity[op.stmt], len(op.args)))
            else:
                for a in op.args:
                    if a not in in_scope:
                        diags.append("call @%s: operand %r not in scope" % (op.stmt, a))
        else:
            diags.append("unknown op %r" % (op,))
    return diags
