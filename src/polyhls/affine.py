"""Exact integer affine algebra.

An affine expression is one canonical linear form, :class:`AffineExpr`:
integer coefficients on dimension and symbol references, div atoms
(floordiv, ceildiv or mod of a canonical operand by a positive constant)
and a constant.  It is built from ``DimRef(i)``, ``SymRef(j)`` and
``Const(v)`` with ``+``, ``-``, ``*`` by an integer and the checked
:func:`floordiv`, :func:`ceildiv` and :func:`mod`.  Every value is canonical
when built (like terms merged, zero terms dropped, div atoms of a constant
operand folded), so equality and hashing are structural.

Expressions are ordered by the key ``(dims, syms, divs, const)``: the
``(index, coefficient)`` pairs of the dim terms by increasing index, then
those of the symbol terms, then the ``(kind, operand, divisor,
coefficient)`` div atoms (kinds ordered ceildiv < floordiv < mod), then the
constant.  Tuples compare lexicographically, so a constant comes before any
expression with a term, and ``s0`` before ``d0``.  This one key orders the
terms of a printed expression and sorts and dedups the results of
:meth:`IntegerSet.loop_bounds`, which fixes the order of the ``max`` /
``min`` results of every generated bound map.

Constraint systems (:class:`IntegerSet`) store pure linear rows, written
straight from the form: each distinct floordiv(x, b) becomes one
existential q, ``b*q <= x <= b*q + b - 1``, nested ones first (ceildiv(x,
b) is floordiv(x + b - 1, b), mod(x, b) is x - b*q).  `_chain` eliminates
the columns of a set one by one and `_dim_bounds` reads a variable's
bounds off its link, for the scanner, `is_empty`, `range_of` and
`loop_bounds`.  Python integers cannot silently overflow.  Map and set
text is read by the frontend grammar (:class:`polyhls.frontend.AffineText`),
whose trees :func:`from_tree` and :func:`from_condition` convert.

Column order of a constraint row: dims, existentials, symbols, constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from . import frontend as fe
from .errors import (
    ArityMismatchError,
    MalformedExpressionError,
    NonAffineError,
    ParseError,
    UnboundedDimensionError,
)
from .lexer import Cursor

# ---------------------------------------------------------------------------
# Expressions

CEILDIV, FLOORDIV, MOD = "ceildiv", "floordiv", "mod"  # div atom kinds, in key order


@dataclass(frozen=True, order=True)
class AffineExpr:
    """Canonical linear form.  Build it with DimRef/SymRef/Const, the
    operators and floordiv/ceildiv/mod, not with the constructor."""

    dims: tuple = ()  # ((index, coef), ...): increasing index, coef != 0
    syms: tuple = ()  # the same for symbols
    divs: tuple = ()  # ((kind, operand, divisor, coef), ...): sorted, coef != 0
    const: int = 0

    def __add__(self, other):
        return _sum(((self, 1), (_as_expr(other), 1)))

    __radd__ = __add__

    def __sub__(self, other):
        return _sum(((self, 1), (_as_expr(other), -1)))

    def __rsub__(self, other):
        return _sum(((_as_expr(other), 1), (self, -1)))

    def __mul__(self, coef):
        if not isinstance(coef, int):
            raise MalformedExpressionError("can only multiply by an integer")
        return _sum(((self, coef),))

    __rmul__ = __mul__

    def __neg__(self):
        return _sum(((self, -1),))

    def __str__(self):
        return format_expr(self)

    @property
    def is_const(self):
        return not (self.dims or self.syms or self.divs)

    def as_dim(self):
        """The index ``i`` when the expression is exactly ``d_i``, else None."""
        if len(self.dims) == 1 and self.dims[0][1] == 1 and not (
                self.syms or self.divs or self.const):
            return self.dims[0][0]
        return None

    def check_range(self, num_dims, num_syms):
        """Raise MalformedExpressionError on a dim index >= num_dims or a
        symbol index >= num_syms."""
        if self.dims and self.dims[-1][0] >= num_dims:
            raise MalformedExpressionError("dim d%d out of range" % self.dims[-1][0])
        if self.syms and self.syms[-1][0] >= num_syms:
            raise MalformedExpressionError("symbol s%d out of range" % self.syms[-1][0])
        for _, op, _, _ in self.divs:
            op.check_range(num_dims, num_syms)

    def insert_dims(self, at, count):
        """Renumber every dim index >= ``at`` up by ``count``.  The
        renumbering keeps the order of indices, so the form stays
        canonical."""
        return AffineExpr(
            tuple((i + count if i >= at else i, c) for i, c in self.dims), self.syms,
            tuple((k, op.insert_dims(at, count), b, c) for k, op, b, c in self.divs),
            self.const)


def _as_expr(v):
    return v if isinstance(v, AffineExpr) else Const(v)


def _terms(coefs):
    return tuple(sorted((i, c) for i, c in coefs.items() if c))


def _sum(scaled):
    """Canonical form of the sum of ``scale * expr`` over (expr, scale)."""
    dims, syms, divs, const = {}, {}, {}, 0
    for e, s in scaled:
        for i, c in e.dims:
            dims[i] = dims.get(i, 0) + s * c
        for j, c in e.syms:
            syms[j] = syms.get(j, 0) + s * c
        for k, op, b, c in e.divs:
            divs[k, op, b] = divs.get((k, op, b), 0) + s * c
        const += s * e.const
    return AffineExpr(_terms(dims), _terms(syms),
                      tuple(atom + (c,) for atom, c in sorted(divs.items()) if c), const)


def _linear(dim_coefs, sym_coefs, const):
    """The div-free form with the given dense coefficient lists."""
    return AffineExpr(tuple((i, c) for i, c in enumerate(dim_coefs) if c),
                      tuple((j, c) for j, c in enumerate(sym_coefs) if c), (), const)


def _index(i, what):
    if not isinstance(i, int) or i < 0:
        raise MalformedExpressionError("%s index must be a non-negative integer: %r" % (what, i))
    return ((i, 1),)


def DimRef(index):
    return AffineExpr(dims=_index(index, "dim"))


def SymRef(index):
    return AffineExpr(syms=_index(index, "symbol"))


def Const(value):
    if not isinstance(value, int):
        raise MalformedExpressionError("not an affine expression: %r" % (value,))
    return AffineExpr(const=value)


def _apply(kind, x, b):
    if kind == FLOORDIV:
        return x // b
    if kind == CEILDIV:
        return -(-x // b)
    return x % b


def _div(kind, e, b):
    if not isinstance(b, int) or b <= 0:
        raise MalformedExpressionError("divisor must be a positive integer: %r" % (b,))
    e = _as_expr(e)
    if e.is_const:
        return Const(_apply(kind, e.const, b))
    return AffineExpr(divs=((kind, e, b, 1),))


def floordiv(e, b):
    return _div(FLOORDIV, e, b)


def ceildiv(e, b):
    return _div(CEILDIV, e, b)


def mod(e, b):
    return _div(MOD, e, b)


def eval_expr(expr, dims=(), syms=()):
    """Evaluate ``expr`` under integer assignments.

    floordiv rounds toward -inf; ceildiv(a, b) == floordiv(a + b - 1, b).
    """
    v = expr.const
    try:
        for i, c in expr.dims:
            v += c * dims[i]
        for j, c in expr.syms:
            v += c * syms[j]
    except IndexError:
        expr.check_range(len(dims), len(syms))
        raise
    for kind, op, b, c in expr.divs:
        v += c * _apply(kind, eval_expr(op, dims, syms), b)
    return v


# ---------------------------------------------------------------------------
# Linear rows

EQ = "eq"
INEQ = "ineq"  # expr >= 0


def _norm_row(coeffs, is_eq):
    """Canonicalize one row; returns None for a trivially true row.

    Inequality rows are integer-tightened: variable coefficients divided by
    their gcd and the constant floored.  Equality rows whose constant is not
    divisible by the coefficient gcd are rewritten to the canonical false
    row (0 >= -1 shape is kept as an explicit contradiction).
    """
    *var, const = coeffs
    g = gcd(*var)
    if g == 0:
        return _false_row(len(var)) if _is_false_row((coeffs, is_eq)) else None
    if is_eq and const % g:
        return _false_row(len(var))
    return (tuple(v // g for v in var) + (const // g,), is_eq)


def _false_row(nvar):
    return (tuple([0] * nvar) + (-1,), False)


def _is_false_row(row):
    coeffs, is_eq = row
    if any(coeffs[:-1]):
        return False
    return coeffs[-1] != 0 if is_eq else coeffs[-1] < 0


def _prune_rows(rows):
    """Dedup; among inequalities with identical coefficients keep the
    tightest constant."""
    eqs = set()
    ineqs = {}
    for coeffs, is_eq in rows:
        if is_eq:
            # sign-normalize equalities for dedup
            var = coeffs[:-1]
            first = next((v for v in var if v != 0), 0)
            if first < 0 or (first == 0 and coeffs[-1] < 0):
                coeffs = tuple(-v for v in coeffs)
            eqs.add(coeffs)
        else:
            key = coeffs[:-1]
            c = ineqs.get(key)
            if c is None or coeffs[-1] < c:
                ineqs[key] = coeffs[-1]
    out = [(c, True) for c in sorted(eqs)]
    out += [(k + (c,), False) for k, c in sorted(ineqs.items())]
    return tuple(out)


def _insert_cols(rows, at, count):
    """`rows` with `count` zero columns inserted before column `at`."""
    return tuple((coeffs[:at] + (0,) * count + coeffs[at:], is_eq) for coeffs, is_eq in rows)


def _canon(rows):
    """`rows` normalized and pruned, the trivially true ones dropped."""
    return _prune_rows(r for r in (_norm_row(*r) for r in rows) if r is not None)


def _drop_col(coeffs, col):
    return coeffs[:col] + coeffs[col + 1:len(coeffs)]


def _eliminate_col(rows, col):
    """Fourier-Motzkin elimination of one column (rationally exact,
    integer-tightened).  The column is removed from the returned rows."""
    pivot = None
    for row in rows:
        coeffs, is_eq = row
        if is_eq and coeffs[col] != 0:
            if pivot is None or abs(coeffs[col]) < abs(pivot[0][col]):
                pivot = row
    out = []
    if pivot is not None:
        pc, _ = pivot
        a = pc[col]
        for coeffs, is_eq in rows:
            if (coeffs, is_eq) == pivot:
                continue
            d = coeffs[col]
            if d == 0:
                new = coeffs
            elif is_eq:
                new = tuple(a * x - d * y for x, y in zip(coeffs, pc))
            else:
                # multiplier on the ineq row must stay positive
                s = d if a > 0 else -d
                new = tuple(abs(a) * x - s * y for x, y in zip(coeffs, pc))
            out.append((_drop_col(new, col), is_eq))
        return _canon(out)
    lowers, uppers = [], []
    for coeffs, is_eq in rows:
        c = coeffs[col]
        if c == 0:
            out.append((_drop_col(coeffs, col), is_eq))
        elif c > 0:
            lowers.append(coeffs)
        else:
            uppers.append(coeffs)
    for lo in lowers:
        for up in uppers:
            a, b = lo[col], -up[col]
            new = tuple(b * x + a * y for x, y in zip(lo, up))
            r = _norm_row(_drop_col(new, col), False)
            if r is not None:
                out.append(r)
    return _prune_rows(out)


# ---------------------------------------------------------------------------
# IntegerSet


@dataclass(frozen=True)
class IntegerSet:
    """Conjunction of affine constraints over dims, existentials, symbols."""

    num_dims: int
    num_exists: int
    num_syms: int
    rows: tuple  # of (coeffs, is_eq)

    @property
    def num_vars(self):
        return self.num_dims + self.num_exists + self.num_syms

    @staticmethod
    def from_constraints(num_dims, num_syms, constraints, num_exists=0):
        """Build a set from (AffineExpr, kind) pairs, lowering div/mod terms
        into existential dimensions (see :func:`_number_divs`).

        In the expressions, dim indices ``[0, num_dims)`` are set dims and
        ``[num_dims, num_dims + num_exists)`` are pre-existing existentials.
        """
        nd = num_dims + num_exists
        qs = {}  # (operand, divisor) of each floordiv -> its new existential
        cons = []
        for expr, kind in constraints:
            if kind not in (EQ, INEQ):
                raise MalformedExpressionError("bad constraint kind %r" % (kind,))
            expr.check_range(nd, num_syms)
            _number_divs(expr, qs)
            cons.append((expr, kind == EQ))
        width = nd + len(qs) + num_syms + 1
        rows = [(_dense(expr, 1, [0] * width, nd, qs), is_eq) for expr, is_eq in cons]
        for (x, b), q in qs.items():
            # b*q <= x <= b*q + b - 1
            lo, hi = _dense(x, 1, [0] * width, nd, qs), _dense(x, -1, [0] * width, nd, qs)
            lo[nd + q], hi[nd + q], hi[-1] = -b, b, hi[-1] + b - 1
            rows += [(lo, False), (hi, False)]
        return IntegerSet(num_dims, num_exists + len(qs), num_syms, _canon(rows))

    # -- views ------------------------------------------------------------

    @property
    def constraints(self):
        """Constraints as (AffineExpr, kind) pairs; existentials appear as
        dims with indices >= num_dims."""
        nd = self.num_dims + self.num_exists
        return [(_linear(coeffs[:nd], coeffs[nd:-1], coeffs[-1]), EQ if is_eq else INEQ)
                for coeffs, is_eq in self.rows]

    def contains(self, point, syms=()):
        """Exact membership test for a concrete dim point (existentials are
        searched exhaustively)."""
        if len(point) != self.num_dims or len(syms) != self.num_syms:
            raise ArityMismatchError("point/symbol arity mismatch")
        return next(_scan(_fold(self.rows, point, syms), self.num_exists), None) is not None

    def substitute_syms(self, sym_values):
        """Fold concrete symbol values into the constants."""
        if len(sym_values) != self.num_syms:
            raise ArityMismatchError("expected %d symbol values" % self.num_syms)
        return IntegerSet(self.num_dims, self.num_exists, 0,
                          _canon(_fold(self.rows, (), sym_values)))

    # -- enumeration (exact; requires no free symbols) ---------------------

    def points(self, sym_values=None):
        """All integer dim-points, as a set of tuples.  Exact: candidate
        values come from FM-derived bounds but every emitted point satisfies
        the original constraints."""
        s = self if sym_values is None else self.substitute_syms(tuple(sym_values))
        if s.num_syms != 0:
            raise ArityMismatchError("enumeration needs all symbols fixed")
        return {p[:s.num_dims] for p in _scan(s.rows, s.num_dims + s.num_exists)}

    # -- core operations ---------------------------------------------------

    def eliminate(self, dims):
        """The set with the dim or existential columns `dims` eliminated in
        turn by Fourier-Motzkin.  Each column stays, with no coefficient,
        so the other columns keep their indices.

        Rationally exact; the integer shadow may over-approximate.
        """
        rows = self.rows
        for d in dims:
            if not 0 <= d < self.num_dims + self.num_exists:
                raise ArityMismatchError("eliminated dim %d out of range" % d)
            rows = _insert_cols(_eliminate_col(rows, d), d, 1)
        return IntegerSet(self.num_dims, self.num_exists, self.num_syms, rows)

    def is_empty(self):
        """True iff the set has no integer point.

        With free symbols this is the conservative rational test (plus
        per-row integer tightening): "empty" is always right, "non-empty"
        may keep a spurious point.  With no symbols the answer is exact
        (falls back to bounded enumeration).
        """
        if self.num_syms == 0:
            return next(_scan(self.rows, self.num_dims + self.num_exists), None) is None
        return _range(_dim_bounds(_chain(self.rows, self.num_vars)[0], 0)) is None

    def where(self, constraints):
        """The set cut by (AffineExpr, kind) constraints over its dims and
        symbols."""
        return self.intersect(IntegerSet.from_constraints(self.num_dims, self.num_syms, constraints))

    def range_of(self, expr):
        """Constant (lo, hi) bounds of `expr` over the set's rational
        shadow (plus per-row integer tightening): a new dim 0 equal to
        `expr` is bounded after every other column, symbols included, is
        eliminated.  A side with no constant bound is None; the result is
        None when the elimination proves the set empty.  ``lo == hi`` fixes
        `expr` on every point."""
        s = self.insert_dims(0, 1).where([(DimRef(0) - expr.insert_dims(0, 1), EQ)])
        return _range(_dim_bounds(_chain(s.rows, s.num_vars)[0], 0))

    def loop_bounds(self, depth):
        """Symbolic (lowers, uppers) of each of the first `depth` dims, in
        terms of the dims before it and the symbols, read off one
        projection chain.  Scanning [max(lowers), min(uppers)] at each dim
        reproduces the set's points for each outer assignment (exact on
        div-free sets); a dim whose link the elimination proves empty gets
        ``([], [])``."""
        if not 0 <= depth <= self.num_dims:
            raise ArityMismatchError("depth %d out of range" % depth)
        out = []
        for dim, link in enumerate(_chain(self.rows, self.num_dims + self.num_exists)[:depth]):
            b = _dim_bounds(link, dim)
            if b is not None and not all(b):
                raise UnboundedDimensionError("dim %d has no finite %s bound"
                                              % (dim, "upper" if b[0] else "lower"))
            out.append(b or ([], []))
        return out

    def insert_dims(self, at, count):
        """Add ``count`` fresh unconstrained dims at position ``at``."""
        if not 0 <= at <= self.num_dims:
            raise ArityMismatchError("insertion point out of range")
        return IntegerSet(self.num_dims + count, self.num_exists, self.num_syms,
                          _insert_cols(self.rows, at, count))

    def intersect(self, other):
        if (self.num_dims, self.num_syms) != (other.num_dims, other.num_syms):
            raise ArityMismatchError("intersect arity mismatch")
        nd = self.num_dims
        rows = (_insert_cols(self.rows, nd + self.num_exists, other.num_exists)
                + _insert_cols(other.rows, nd, self.num_exists))
        return IntegerSet(nd, self.num_exists + other.num_exists, self.num_syms, _prune_rows(rows))

    def __str__(self):
        return format_set(self)


def _dim_bounds(rows, dim):
    """(lowers, uppers) of variable `dim` in rows over variables 0..dim and
    the symbols (the rows of its `_chain` link): sorted, deduplicated forms
    over the variables before it and the symbols, one from each row that
    bounds it on that side.  A side that no row bounds is empty; the result
    is None when a row is false.  This is the one reader of a variable's
    bounds."""
    if any(_is_false_row(r) for r in rows):
        return None
    lowers, uppers = set(), set()
    for coeffs, is_eq in rows:
        a = coeffs[dim]
        if a == 0:
            continue
        # a*x + rest >= 0 (== 0 for an equality, which bounds both ways)
        rest = _linear(coeffs[:dim], coeffs[dim + 1:-1], coeffs[-1])
        for a2, rest2 in [(a, rest)] + ([(-a, -rest)] if is_eq else []):
            if a2 > 0:
                lowers.add(-rest2 if a2 == 1 else ceildiv(-rest2, a2))
            else:
                uppers.add(rest2 if a2 == -1 else floordiv(rest2, -a2))
    return sorted(lowers), sorted(uppers)


def _range(bounds, prefix=()):
    """Integer (lo, hi) of a variable whose symbol-free `_dim_bounds` are
    `bounds`, at the values `prefix` of the variables before it; a side
    without a bound is None.  None when the range is empty."""
    if bounds is None:
        return None
    lowers, uppers = bounds
    lo = max((eval_expr(e, prefix) for e in lowers), default=None)
    hi = min((eval_expr(e, prefix) for e in uppers), default=None)
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _fold(rows, front, back):
    """`rows` with their first ``len(front)`` and last ``len(back)``
    variable columns fixed to those values: each fixed term folds into the
    constant and its column is dropped.  The rows are neither normalized
    nor pruned, which a membership test does not need."""
    lo, out = len(front), []
    for coeffs, is_eq in rows:
        hi = len(coeffs) - 1 - len(back)
        const = coeffs[-1] + sum(map(mul, coeffs, front)) + sum(map(mul, coeffs[hi:-1], back))
        out.append((coeffs[lo:hi] + (const,), is_eq))
    return out


def _chain(rows, nvars):
    """The Fourier-Motzkin projection chain of `rows` over their first
    `nvars` variable columns: link ``k`` holds the rows over variables
    ``0..k`` (and every column after the first `nvars`), made by
    eliminating columns from the back, so the last link is `rows` itself.
    This is the one place that eliminates a run of columns."""
    chain = [rows]
    for col in range(nvars - 1, 0, -1):
        chain.append(_eliminate_col(chain[-1], col))
    chain.reverse()
    return chain


def _scan(rows, nvars):
    """The integer points of `rows` over `nvars` variables (no symbols), in
    lexicographic order.

    Each variable's range is the `_range` of its `_chain` link's
    `_dim_bounds`, read once per scan, at the current prefix.  The last
    link is `rows` itself, and every row of a link that does not bound its
    variable is implied by the links before it, so every point yielded is
    in the set."""
    if any(_is_false_row(r) for r in rows):
        return
    if nvars == 0:
        yield ()
        return
    bounds = [_dim_bounds(link, k) for k, link in enumerate(_chain(rows, nvars))]

    def walk(k, prefix):
        r = _range(bounds[k], prefix)
        if r is None:
            return
        lo, hi = r
        if lo is None or hi is None:
            raise UnboundedDimensionError("enumeration over an unbounded set")
        if k == nvars - 1:
            for v in range(lo, hi + 1):
                yield prefix + (v,)
        else:
            for v in range(lo, hi + 1):
                yield from walk(k + 1, prefix + (v,))

    yield from walk(0, ())


def _floor_key(kind, op, b):
    """(x, b) of the floordiv(x, b) that a div atom lowers to."""
    return (AffineExpr(op.dims, op.syms, op.divs, op.const + b - 1) if kind == CEILDIV else op, b)


def _number_divs(e, qs):
    """Give each distinct floordiv that a div atom of `e` lowers to the
    next existential number in `qs` ((operand, divisor) -> number), the
    floordivs nested in its operand first: ceildiv(x, b) is
    floordiv(x + b - 1, b) and mod(x, b) is x - b * floordiv(x, b)."""
    for kind, op, b, _ in e.divs:
        key = _floor_key(kind, op, b)
        if key not in qs:
            _number_divs(key[0], qs)
            qs[key] = len(qs)


def _dense(e, scale, row, nd, qs):
    """Add `scale` times `e` to the dense `row` (``nd`` dims and
    existentials, the existentials numbered in `qs`, symbols, constant) and
    return it."""
    s0 = nd + len(qs)
    for i, c in e.dims:
        row[i] += scale * c
    for j, c in e.syms:
        row[s0 + j] += scale * c
    row[-1] += scale * e.const
    for kind, op, b, c in e.divs:
        c *= scale
        if kind == MOD:
            _dense(op, c, row, nd, qs)
            c *= -b
        row[nd + qs[_floor_key(kind, op, b)]] += c
    return row


# ---------------------------------------------------------------------------
# AffineMap


@dataclass(frozen=True)
class AffineMap:
    num_dims: int
    num_syms: int
    results: tuple  # of AffineExpr

    def __post_init__(self):
        object.__setattr__(self, "results", tuple(_as_expr(r) for r in self.results))
        for r in self.results:
            r.check_range(self.num_dims, self.num_syms)

    def eval(self, dims=(), syms=()):
        if len(dims) != self.num_dims or len(syms) < self.num_syms:
            raise ArityMismatchError("map applied to wrong number of operands")
        return tuple(eval_expr(r, dims, syms) for r in self.results)

    def insert_dims(self, at, count):
        """Renumber dims to make room for ``count`` new dims at ``at`` (the
        results do not use the new dims)."""
        return AffineMap(self.num_dims + count, self.num_syms,
                         tuple(r.insert_dims(at, count) for r in self.results))

    def __str__(self):
        return format_map(self)


# ---------------------------------------------------------------------------
# Textual syntax: affine_map<(d0, d1)[s0] -> (...)> and
# integer_set<(d0, d1)[s0] : (...)>


def format_expr(expr, dim_names=None, sym_names=None):
    terms = [(dim_names[i] if dim_names else "d%d" % i, c) for i, c in expr.dims]
    terms += [(sym_names[j] if sym_names else "s%d" % j, c) for j, c in expr.syms]
    for kind, op, b, c in expr.divs:
        inner = format_expr(op, dim_names, sym_names)
        refs = op.dims + op.syms
        if op.const or op.divs or len(refs) != 1 or refs[0][1] != 1:
            inner = "(%s)" % inner  # not a bare dim or symbol
        atom = "%s %s %d" % (inner, kind, b)
        terms.append((atom if abs(c) == 1 else "(%s)" % atom, c))
    parts = []
    for s, c in terms:
        if abs(c) != 1:
            s = "%s * %d" % (s, abs(c))
        if not parts:
            parts.append(("-" if c < 0 else "") + s)
        else:
            parts.append(("- " if c < 0 else "+ ") + s)
    if not parts:
        parts.append(str(expr.const))
    elif expr.const:
        parts.append(("- %d" if expr.const < 0 else "+ %d") % abs(expr.const))
    return " ".join(parts)


def _space_header(nd, ns, dim_names=None, sym_names=None):
    dims = ", ".join(dim_names if dim_names else ["d%d" % i for i in range(nd)])
    syms = ", ".join(sym_names if sym_names else ["s%d" % i for i in range(ns)])
    return "(%s)[%s]" % (dims, syms) if ns else "(%s)" % dims


def format_map(m, dim_names=None, sym_names=None):
    body = ", ".join(format_expr(r, dim_names, sym_names) for r in m.results)
    return "affine_map<%s -> (%s)>" % (_space_header(m.num_dims, m.num_syms, dim_names, sym_names), body)


def format_set(s, dim_names=None, sym_names=None):
    hdr = _space_header(s.num_dims, s.num_syms, dim_names, sym_names)
    if s.num_exists:
        hdr += " exists (%s)" % ", ".join("e%d" % i for i in range(s.num_exists))
    parts = []
    for expr, kind in s.constraints:
        names = list(dim_names) if dim_names else ["d%d" % i for i in range(s.num_dims)]
        names += ["e%d" % i for i in range(s.num_exists)]
        parts.append("%s %s 0" % (format_expr(expr, names, sym_names), "==" if kind == EQ else ">="))
    return "integer_set<%s : (%s)>" % (hdr, ", ".join(parts))


# never a dim, symbol, existential, map or set name (nor a `.pc` name)
KEYWORDS = fe.KEYWORDS + (FLOORDIV, CEILDIV, MOD, "affine_map", "integer_set", "exists")


def from_tree(e, dims, syms):
    """The AffineExpr of the frontend tree `e` over the names `dims` and
    `syms`: the one converter of every affine position (`.pc` bounds,
    subscripts, conditions and assumptions, `.air` maps and sets).  Any
    non-affine form is a NonAffineError."""
    if isinstance(e, fe.IntLit):
        return Const(e.value)
    if isinstance(e, fe.Name):
        if e.ident in dims:
            return DimRef(dims.index(e.ident))
        if e.ident in syms:
            return SymRef(syms.index(e.ident))
        raise NonAffineError("unknown identifier %r in affine position" % e.ident)
    if isinstance(e, fe.BinOp):
        lhs, rhs = from_tree(e.lhs, dims, syms), from_tree(e.rhs, dims, syms)
        if e.op == "+":
            return lhs + rhs
        if e.op == "-":
            return lhs - rhs
        if rhs.is_const:
            return lhs * rhs.const
        if lhs.is_const:
            return rhs * lhs.const
        raise NonAffineError("non-affine product %r" % fe.format_expr(e))
    if isinstance(e, fe.Call) and e.fn in (FLOORDIV, CEILDIV, MOD):
        x, b = [from_tree(a, dims, syms) for a in e.args]
        if not b.is_const or b.const <= 0:
            raise NonAffineError("%s needs a positive constant divisor" % e.fn)
        return _div(e.fn, x, b.const)
    raise NonAffineError("non-affine expression %r" % fe.format_expr(e))


# op: (sign, shift) of the constraint sign * (lhs - rhs) + shift >= 0
_CMP = {"<": (-1, -1), "<=": (-1, 0), ">": (1, -1), ">=": (1, 0)}


def from_condition(cond, dims, syms, negate=False):
    """Constraints of the comparison ``(op, lhs, rhs)`` of frontend trees,
    or of its negation with `negate`: the one map from a comparison to
    constraints (`.pc` `if`, `--assume`, `.air` sets)."""
    op, lhs, rhs = cond
    diff = from_tree(lhs, dims, syms) - from_tree(rhs, dims, syms)
    if op == "==":
        if negate:
            raise NonAffineError("else-branch of an equality test is not affine")
        return [(diff, EQ)]
    sign, shift = _CMP[op]
    if negate:  # not (x >= 0) is -x - 1 >= 0
        sign, shift = -sign, -shift - 1
    return [(diff * sign + shift, INEQ)]


def _parse_space(cur, word):
    cur.expect(word)
    cur.expect("<")
    dims = cur.names("(", ")", KEYWORDS)
    syms = cur.names("[", "]", KEYWORDS) if cur.peek()[1] == "[" else []
    return dims, syms


def _items(cur, item):
    """The joined lists that `item()` reads from the items of the
    parenthesized list at the cursor, then ``>``; an item's NonAffineError
    is a ParseError at its first token."""
    out = []
    cur.expect("(")
    while cur.peek()[1] != ")":
        pos = cur.peek()[2]
        try:
            out += item()
        except NonAffineError as e:
            raise ParseError(str(e), *pos) from None
        if cur.peek()[1] == ",":
            cur.next()
    cur.expect(")")
    cur.expect(">")
    return out


def parse_map(text):
    """Parse ``affine_map<(d0, d1)[s0] -> (exprs)>``."""
    return parse_map_at(Cursor(text))


def parse_map_at(cur):
    """Parse an affine_map starting at the cursor's current token; each
    result is an expression of :class:`frontend.AffineText`."""
    dims, syms = _parse_space(cur, "affine_map")
    cur.expect("->")
    g = fe.AffineText(cur)
    results = _items(cur, lambda: [from_tree(g.expr(), dims, syms)])
    return AffineMap(len(dims), len(syms), tuple(results))


def parse_set(text):
    """Parse ``integer_set<(d0)[s0] : (constraints)>``; each constraint is
    a comparison of the `if` grammar (``<``, ``<=``, ``>``, ``>=`` or
    ``==``) between affine expressions."""
    return parse_set_at(Cursor(text))


def parse_set_at(cur):
    """Parse an integer_set starting at the cursor's current token."""
    dims, syms = _parse_space(cur, "integer_set")
    exists = []
    if cur.peek()[1] == "exists":
        cur.next()
        exists = cur.names("(", ")", KEYWORDS)
    cur.expect(":")
    g = fe.AffineText(cur)
    cons = _items(cur, lambda: from_condition(g.condition(), dims + exists, syms))
    return IntegerSet.from_constraints(len(dims), len(syms), cons, num_exists=len(exists))
