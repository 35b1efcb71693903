"""Exact integer affine algebra.

Expressions are trees over dimension references, symbol references and
integer constants, closed under addition, multiplication by a constant and
floordiv/ceildiv/mod by a positive constant.  Constraint systems
(:class:`IntegerSet`) store pure linear rows; div/mod terms are lowered by
introducing existential dimensions so Fourier-Motzkin elimination stays
applicable.  All arithmetic uses Python's arbitrary-precision integers, so
nothing can silently overflow.

Column order of a constraint row: dims, existentials, symbols, constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    ArityMismatchError,
    MalformedExpressionError,
    NonUnimodularMatrixError,
    ParseError,
    UnboundedDimensionError,
)
from .lexer import Cursor

# ---------------------------------------------------------------------------
# Expressions


class AffineExpr:
    """Base class; build via the subclasses or the operator overloads."""

    def __add__(self, other):
        return Add(self, _as_expr(other))

    def __radd__(self, other):
        return Add(_as_expr(other), self)

    def __sub__(self, other):
        return Add(self, Mul(_as_expr(other), -1))

    def __rsub__(self, other):
        return Add(_as_expr(other), Mul(self, -1))

    def __mul__(self, coef):
        if not isinstance(coef, int):
            raise MalformedExpressionError("can only multiply by an integer")
        return Mul(self, coef)

    __rmul__ = __mul__

    def __neg__(self):
        return Mul(self, -1)

    def __str__(self):
        return format_expr(self)


def _as_expr(v):
    if isinstance(v, AffineExpr):
        return v
    if isinstance(v, int):
        return Const(v)
    raise MalformedExpressionError("not an affine expression: %r" % (v,))


@dataclass(frozen=True)
class DimRef(AffineExpr):
    index: int


@dataclass(frozen=True)
class SymRef(AffineExpr):
    index: int


@dataclass(frozen=True)
class Const(AffineExpr):
    value: int


@dataclass(frozen=True)
class Add(AffineExpr):
    lhs: AffineExpr
    rhs: AffineExpr


@dataclass(frozen=True)
class Mul(AffineExpr):
    operand: AffineExpr
    coef: int


@dataclass(frozen=True)
class FloorDiv(AffineExpr):
    operand: AffineExpr
    divisor: int


@dataclass(frozen=True)
class CeilDiv(AffineExpr):
    operand: AffineExpr
    divisor: int


@dataclass(frozen=True)
class Mod(AffineExpr):
    operand: AffineExpr
    divisor: int


def _check_divisor(b):
    if not isinstance(b, int) or b <= 0:
        raise MalformedExpressionError("divisor must be a positive integer: %r" % (b,))


def floordiv(e, b):
    _check_divisor(b)
    return FloorDiv(_as_expr(e), b)


def ceildiv(e, b):
    _check_divisor(b)
    return CeilDiv(_as_expr(e), b)


def mod(e, b):
    _check_divisor(b)
    return Mod(_as_expr(e), b)


def eval_expr(expr, dims=(), syms=()):
    """Evaluate ``expr`` under integer assignments.

    floordiv rounds toward -inf; ceildiv(a, b) == floordiv(a + b - 1, b).
    """
    if isinstance(expr, DimRef):
        if not 0 <= expr.index < len(dims):
            raise MalformedExpressionError("dim d%d out of range" % expr.index)
        return dims[expr.index]
    if isinstance(expr, SymRef):
        if not 0 <= expr.index < len(syms):
            raise MalformedExpressionError("symbol s%d out of range" % expr.index)
        return syms[expr.index]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Add):
        return eval_expr(expr.lhs, dims, syms) + eval_expr(expr.rhs, dims, syms)
    if isinstance(expr, Mul):
        return eval_expr(expr.operand, dims, syms) * expr.coef
    if isinstance(expr, FloorDiv):
        _check_divisor(expr.divisor)
        return eval_expr(expr.operand, dims, syms) // expr.divisor
    if isinstance(expr, CeilDiv):
        _check_divisor(expr.divisor)
        return -((-eval_expr(expr.operand, dims, syms)) // expr.divisor)
    if isinstance(expr, Mod):
        _check_divisor(expr.divisor)
        return eval_expr(expr.operand, dims, syms) % expr.divisor
    raise MalformedExpressionError("unknown expression node %r" % (expr,))


# -- canonical form ---------------------------------------------------------
#
# A canonical expression is a flat sum of (atom, coefficient) terms plus a
# constant, with atoms ordered dims < syms < div-atoms and duplicate atoms
# merged.  Div atoms keep their operand canonical.


def _atom_key(atom):
    if isinstance(atom, DimRef):
        return (0, atom.index, "")
    if isinstance(atom, SymRef):
        return (1, atom.index, "")
    return (2, 0, repr(atom))


def _collect(expr, scale, terms, const):
    if isinstance(expr, Const):
        return const + scale * expr.value
    if isinstance(expr, (DimRef, SymRef)):
        terms[expr] = terms.get(expr, 0) + scale
        return const
    if isinstance(expr, Add):
        const = _collect(expr.lhs, scale, terms, const)
        return _collect(expr.rhs, scale, terms, const)
    if isinstance(expr, Mul):
        return _collect(expr.operand, scale * expr.coef, terms, const)
    if isinstance(expr, (FloorDiv, CeilDiv, Mod)):
        _check_divisor(expr.divisor)
        inner = canon(expr.operand)
        if isinstance(inner, Const):
            b = expr.divisor
            if isinstance(expr, FloorDiv):
                return const + scale * (inner.value // b)
            if isinstance(expr, CeilDiv):
                return const + scale * -((-inner.value) // b)
            return const + scale * (inner.value % b)
        atom = type(expr)(inner, expr.divisor)
        terms[atom] = terms.get(atom, 0) + scale
        return const
    raise MalformedExpressionError("unknown expression node %r" % (expr,))


def canon(expr):
    """Return the canonical form of ``expr`` (merged, ordered terms)."""
    terms, const = {}, 0
    const = _collect(expr, 1, terms, const)
    items = sorted(((a, c) for a, c in terms.items() if c != 0), key=lambda t: _atom_key(t[0]))
    out = None
    for atom, coef in items:
        t = atom if coef == 1 else Mul(atom, coef)
        out = t if out is None else Add(out, t)
    if out is None:
        return Const(const)
    if const != 0:
        out = Add(out, Const(const))
    return out


def expr_terms(expr):
    """Canonical (terms dict, const) view of ``expr``."""
    terms, const = {}, 0
    const = _collect(expr, 1, terms, const)
    return {a: c for a, c in terms.items() if c != 0}, const


def subst_expr(expr, dim_exprs, sym_exprs=None):
    """Substitute dims (and optionally symbols) by expressions."""
    if isinstance(expr, DimRef):
        return dim_exprs[expr.index]
    if isinstance(expr, SymRef):
        return expr if sym_exprs is None else sym_exprs[expr.index]
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Add):
        return Add(subst_expr(expr.lhs, dim_exprs, sym_exprs),
                   subst_expr(expr.rhs, dim_exprs, sym_exprs))
    if isinstance(expr, Mul):
        return Mul(subst_expr(expr.operand, dim_exprs, sym_exprs), expr.coef)
    if isinstance(expr, (FloorDiv, CeilDiv, Mod)):
        return type(expr)(subst_expr(expr.operand, dim_exprs, sym_exprs), expr.divisor)
    raise MalformedExpressionError("unknown expression node %r" % (expr,))


def shift_dims(expr, offset):
    """Renumber every dim reference by ``offset``."""
    if isinstance(expr, DimRef):
        return DimRef(expr.index + offset)
    if isinstance(expr, (SymRef, Const)):
        return expr
    if isinstance(expr, Add):
        return Add(shift_dims(expr.lhs, offset), shift_dims(expr.rhs, offset))
    if isinstance(expr, Mul):
        return Mul(shift_dims(expr.operand, offset), expr.coef)
    if isinstance(expr, (FloorDiv, CeilDiv, Mod)):
        return type(expr)(shift_dims(expr.operand, offset), expr.divisor)
    raise MalformedExpressionError("unknown expression node %r" % (expr,))


def max_dim_index(expr):
    if isinstance(expr, DimRef):
        return expr.index
    if isinstance(expr, Add):
        return max(max_dim_index(expr.lhs), max_dim_index(expr.rhs))
    if isinstance(expr, (Mul, FloorDiv, CeilDiv, Mod)):
        return max_dim_index(expr.operand)
    return -1


def max_sym_index(expr):
    if isinstance(expr, SymRef):
        return expr.index
    if isinstance(expr, Add):
        return max(max_sym_index(expr.lhs), max_sym_index(expr.rhs))
    if isinstance(expr, (Mul, FloorDiv, CeilDiv, Mod)):
        return max_sym_index(expr.operand)
    return -1


# ---------------------------------------------------------------------------
# Linear rows

EQ = "eq"
INEQ = "ineq"  # expr >= 0


def _row_gcd(vals):
    g = 0
    for v in vals:
        g = gcd(g, abs(v))
    return g


def _norm_row(coeffs, is_eq):
    """Canonicalize one row; returns None for a trivially true row.

    Inequality rows are integer-tightened: variable coefficients divided by
    their gcd and the constant floored.  Equality rows whose constant is not
    divisible by the coefficient gcd are rewritten to the canonical false
    row (0 >= -1 shape is kept as an explicit contradiction).
    """
    coeffs = list(coeffs)
    const = coeffs[-1]
    var = coeffs[:-1]
    g = _row_gcd(var)
    if g == 0:
        if is_eq:
            if const != 0:
                return _false_row(len(var))
            return None
        if const < 0:
            return _false_row(len(var))
        return None
    if is_eq:
        if const % g != 0:
            return _false_row(len(var))
        return (tuple(v // g for v in var) + (const // g,), True)
    return (tuple(v // g for v in var) + (const // g if const >= 0 else -((-const + g - 1) // g),), False)


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
            r = _norm_row(_drop_col(new, col), is_eq)
            if r is not None:
                out.append(r)
        return _prune_rows(out)
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
        into existential dimensions.

        In the expressions, dim indices ``[0, num_dims)`` are set dims and
        ``[num_dims, num_dims + num_exists)`` are pre-existing existentials.
        """
        b = _LinBuilder(num_dims + num_exists, num_syms)
        parsed = []
        for expr, kind in constraints:
            if kind not in (EQ, INEQ):
                raise MalformedExpressionError("bad constraint kind %r" % (kind,))
            vec = b.lin(expr)
            parsed.append((vec, kind == EQ))
        ne = num_exists + b.num_new
        nvar = num_dims + ne + num_syms
        rows = []
        for vec, is_eq in parsed + [(v, False) for v in b.extra]:
            rows.append((b.materialize(vec, num_dims, num_exists, num_syms), is_eq))
        out = []
        for coeffs, is_eq in rows:
            if len(coeffs) != nvar + 1:
                raise AssertionError("row width mismatch")
            r = _norm_row(coeffs, is_eq)
            if r is not None:
                out.append(r)
        return IntegerSet(num_dims, ne, num_syms, _prune_rows(out))

    # -- views ------------------------------------------------------------

    @property
    def constraints(self):
        """Constraints as (AffineExpr, kind) pairs; existentials appear as
        dims with indices >= num_dims."""
        out = []
        nd = self.num_dims + self.num_exists
        for coeffs, is_eq in self.rows:
            e = Const(coeffs[-1])
            for i in range(nd):
                if coeffs[i]:
                    e = Add(e, Mul(DimRef(i), coeffs[i]))
            for j in range(self.num_syms):
                if coeffs[nd + j]:
                    e = Add(e, Mul(SymRef(j), coeffs[nd + j]))
            out.append((canon(e), EQ if is_eq else INEQ))
        return out

    def contains(self, point, syms=()):
        """Exact membership test for a concrete dim point (existentials are
        searched exhaustively)."""
        if len(point) != self.num_dims or len(syms) != self.num_syms:
            raise ArityMismatchError("point/symbol arity mismatch")
        fixed = self._substitute_prefix(point, syms)
        if fixed is None:
            return False
        if fixed.num_exists == 0:
            return all(not _is_false_row(r) for r in fixed.rows)
        for _ in fixed._scan():
            return True
        return False

    def _substitute_prefix(self, dim_values, sym_values):
        """Fix all dims and symbols, keeping existentials; None if an
        immediate contradiction appears."""
        nd, ne, ns = self.num_dims, self.num_exists, self.num_syms
        rows = []
        for coeffs, is_eq in self.rows:
            const = coeffs[-1]
            const += sum(c * v for c, v in zip(coeffs[:nd], dim_values))
            const += sum(c * v for c, v in zip(coeffs[nd + ne:nd + ne + ns], sym_values))
            r = _norm_row(coeffs[nd:nd + ne] + (const,), is_eq)
            if r is not None:
                if _is_false_row(r):
                    return None
                rows.append(r)
        return IntegerSet(0, ne, 0, _prune_rows(rows))

    def substitute_syms(self, sym_values):
        """Fold concrete symbol values into the constants."""
        if len(sym_values) != self.num_syms:
            raise ArityMismatchError("expected %d symbol values" % self.num_syms)
        nd = self.num_dims + self.num_exists
        rows = []
        for coeffs, is_eq in self.rows:
            const = coeffs[-1] + sum(c * v for c, v in zip(coeffs[nd:nd + self.num_syms], sym_values))
            r = _norm_row(coeffs[:nd] + (const,), is_eq)
            if r is not None:
                rows.append(r)
        return IntegerSet(self.num_dims, self.num_exists, 0, _prune_rows(rows))

    # -- enumeration (exact; requires no free symbols) ---------------------

    def points(self, sym_values=None):
        """All integer dim-points, as a set of tuples.  Exact: candidate
        values come from FM-derived bounds but every emitted point satisfies
        the original constraints."""
        s = self if sym_values is None else self.substitute_syms(tuple(sym_values))
        if s.num_syms != 0:
            raise ArityMismatchError("enumeration needs all symbols fixed")
        return {p[:s.num_dims] for p in s._scan()}

    def _scan(self):
        n = self.num_dims + self.num_exists
        rows = [r for r in self.rows]
        if any(_is_false_row(r) for r in rows):
            return
        yield from _scan_rows(rows, n, ())

    # -- core operations ---------------------------------------------------

    def project(self, dim):
        """Fourier-Motzkin projection of one dim/existential column.

        Rationally exact; the integer shadow may over-approximate.
        """
        n = self.num_dims + self.num_exists
        if not 0 <= dim < n:
            raise ArityMismatchError("projected dim %d out of range" % dim)
        rows = _eliminate_col(self.rows, dim)
        if dim < self.num_dims:
            return IntegerSet(self.num_dims - 1, self.num_exists, self.num_syms, rows)
        return IntegerSet(self.num_dims, self.num_exists - 1, self.num_syms, rows)

    def is_empty(self):
        """True iff the set has no integer point.

        With free symbols this is the conservative rational test (plus
        per-row integer tightening): "empty" is always right, "non-empty"
        may keep a spurious point.  With no symbols the answer is exact
        (falls back to bounded enumeration).
        """
        rows = self.rows
        if any(_is_false_row(r) for r in rows):
            return True
        if self.num_syms == 0:
            for _ in self._scan():
                return False
            return True
        for col in range(self.num_dims + self.num_exists + self.num_syms):
            rows = _eliminate_col(rows, 0)
            if any(_is_false_row(r) for r in rows):
                return True
        return False

    def bounds_for_dim(self, dim):
        """Symbolic (lowers, uppers) for ``dim`` in terms of outer dims and
        symbols; dims after ``dim`` and all existentials are eliminated
        internally.  Scanning [max(lowers), min(uppers)] reproduces the
        set's points for each outer assignment (exact on div-free sets).
        """
        if not 0 <= dim < self.num_dims:
            raise ArityMismatchError("dim %d out of range" % dim)
        rows = self.rows
        # eliminate existentials, then inner dims (column indices shift as
        # we go, so walk from the back)
        nd = self.num_dims
        for col in range(nd + self.num_exists - 1, dim, -1):
            rows = _eliminate_col(rows, col)
        if any(_is_false_row(r) for r in rows):
            return ([], [])
        lowers, uppers = [], []
        for coeffs, is_eq in rows:
            a = coeffs[dim]
            if a == 0:
                continue
            rest = Const(coeffs[-1])
            for i in range(dim):
                if coeffs[i]:
                    rest = Add(rest, Mul(DimRef(i), coeffs[i]))
            for j in range(self.num_syms):
                if coeffs[dim + 1 + j]:
                    rest = Add(rest, Mul(SymRef(j), coeffs[dim + 1 + j]))
            sides = [(a, rest)]
            if is_eq:
                sides.append((-a, Mul(rest, -1)))
            for a2, rest2 in sides:
                if a2 > 0:
                    lo = Mul(rest2, -1) if a2 == 1 else CeilDiv(canon(Mul(rest2, -1)), a2)
                    lowers.append(canon(lo))
                else:
                    up = rest2 if a2 == -1 else FloorDiv(canon(rest2), -a2)
                    uppers.append(canon(up))
        lowers = _dedup_exprs(lowers)
        uppers = _dedup_exprs(uppers)
        if not lowers or not uppers:
            side = "lower" if not lowers else "upper"
            raise UnboundedDimensionError("dim %d has no finite %s bound" % (dim, side))
        return lowers, uppers

    def insert_dims(self, at, count):
        """Add ``count`` fresh unconstrained dims at position ``at``."""
        if not 0 <= at <= self.num_dims:
            raise ArityMismatchError("insertion point out of range")
        rows = []
        for coeffs, is_eq in self.rows:
            rows.append((coeffs[:at] + (0,) * count + coeffs[at:], is_eq))
        return IntegerSet(self.num_dims + count, self.num_exists, self.num_syms, tuple(rows))

    def intersect(self, other):
        if (self.num_dims, self.num_syms) != (other.num_dims, other.num_syms):
            raise ArityMismatchError("intersect arity mismatch")
        nd = self.num_dims
        ne = self.num_exists + other.num_exists
        rows = []
        for coeffs, is_eq in self.rows:
            rows.append((coeffs[:nd + self.num_exists] + (0,) * other.num_exists + coeffs[nd + self.num_exists:], is_eq))
        for coeffs, is_eq in other.rows:
            rows.append((coeffs[:nd] + (0,) * self.num_exists + coeffs[nd:], is_eq))
        return IntegerSet(nd, ne, self.num_syms, _prune_rows(rows))

    def apply_unimodular(self, matrix):
        """Reindex dims by a unimodular matrix: the result contains M@x iff
        self contains x."""
        inv = _unimodular_inverse(matrix, self.num_dims)
        nd, ne, ns = self.num_dims, self.num_exists, self.num_syms
        rows = []
        for coeffs, is_eq in self.rows:
            newd = [sum(coeffs[i] * inv[i][j] for i in range(nd)) for j in range(nd)]
            rows.append((tuple(newd) + coeffs[nd:nd + ne + ns + 1], is_eq))
        out = []
        for coeffs, is_eq in rows:
            r = _norm_row(coeffs, is_eq)
            if r is not None:
                out.append(r)
        return IntegerSet(nd, ne, ns, _prune_rows(out))

    def __str__(self):
        return format_set(self)


def _scan_rows(rows, nvars, prefix):
    if nvars == 0:
        for coeffs, is_eq in rows:
            if _is_false_row((coeffs, is_eq)):
                return
        yield prefix
        return
    rem = rows
    for _ in range(nvars - 1):
        if not rem:
            break
        rem = _eliminate_col(rem, len(rem[0][0]) - 2)
    # rem now only constrains the first variable
    lo, hi = None, None
    feasible = True
    for coeffs, is_eq in rem:
        a, c = coeffs[0], coeffs[-1]
        if a == 0:
            if _is_false_row((coeffs, is_eq)):
                feasible = False
            continue
        if is_eq:
            if c % a != 0:
                feasible = False
                continue
            v = -c // a
            lo = v if lo is None else max(lo, v)
            hi = v if hi is None else min(hi, v)
        elif a > 0:
            # a*x + c >= 0  ->  x >= ceil(-c / a)
            v = (-c + a - 1) // a
            lo = v if lo is None else max(lo, v)
        else:
            # a*x + c >= 0, a < 0  ->  x <= floor(c / -a)
            v = c // (-a)
            hi = v if hi is None else min(hi, v)
    if not feasible:
        return
    if lo is None or hi is None:
        raise UnboundedDimensionError("enumeration over an unbounded set")
    for v in range(lo, hi + 1):
        sub = []
        ok = True
        for coeffs, is_eq in rows:
            nc = (coeffs[1:-1]) + (coeffs[-1] + coeffs[0] * v,)
            r = _norm_row(nc, is_eq)
            if r is None:
                continue
            if _is_false_row(r):
                ok = False
                break
            sub.append(r)
        if ok:
            yield from _scan_rows(sub, nvars - 1, prefix + (v,))


def _dedup_exprs(exprs):
    seen, out = set(), []
    for e in exprs:
        k = repr(e)
        if k not in seen:
            seen.add(k)
            out.append(e)
    out.sort(key=repr)
    return out


class _LinBuilder:
    """Linearizes expressions, allocating existentials for div/mod terms."""

    def __init__(self, num_dims, num_syms):
        self.nd = num_dims
        self.ns = num_syms
        self.num_new = 0
        self.extra = []  # constraint vectors (>= 0) defining the existentials
        self._memo = {}

    def lin(self, expr):
        if isinstance(expr, DimRef):
            if not 0 <= expr.index < self.nd:
                raise MalformedExpressionError("dim d%d out of range" % expr.index)
            return {("d", expr.index): 1}
        if isinstance(expr, SymRef):
            if not 0 <= expr.index < self.ns:
                raise MalformedExpressionError("symbol s%d out of range" % expr.index)
            return {("s", expr.index): 1}
        if isinstance(expr, Const):
            return {"const": expr.value}
        if isinstance(expr, Add):
            a, b = self.lin(expr.lhs), self.lin(expr.rhs)
            for k, v in b.items():
                a[k] = a.get(k, 0) + v
            return a
        if isinstance(expr, Mul):
            a = self.lin(expr.operand)
            return {k: v * expr.coef for k, v in a.items()}
        if isinstance(expr, (FloorDiv, CeilDiv, Mod)):
            _check_divisor(expr.divisor)
            b = expr.divisor
            if isinstance(expr, CeilDiv):
                return self.lin(FloorDiv(Add(expr.operand, Const(b - 1)), b))
            if isinstance(expr, Mod):
                q = self._floordiv(expr.operand, b)
                vec = self.lin(expr.operand)
                vec[q] = vec.get(q, 0) - b
                return vec
            return {self._floordiv(expr.operand, b): 1}
        raise MalformedExpressionError("unknown expression node %r" % (expr,))

    def _floordiv(self, operand, b):
        key = (repr(canon(operand)), b)
        if key in self._memo:
            return self._memo[key]
        vec = self.lin(operand)
        q = ("q", self.num_new)
        self.num_new += 1
        lo = dict(vec)
        lo[q] = lo.get(q, 0) - b  # e - b*q >= 0
        hi = {k: -v for k, v in vec.items()}
        hi[q] = hi.get(q, 0) + b
        hi["const"] = hi.get("const", 0) + b - 1  # b*q + b - 1 - e >= 0
        self.extra.append(lo)
        self.extra.append(hi)
        self._memo[key] = q
        return q

    def materialize(self, vec, num_dims, num_exists, num_syms):
        out = [0] * (num_dims + num_exists + self.num_new + num_syms + 1)
        for k, v in vec.items():
            if k == "const":
                out[-1] += v
            elif k[0] == "d":
                if k[1] < num_dims:
                    out[k[1]] += v
                else:  # pre-existing existential
                    out[k[1]] += v
            elif k[0] == "q":
                out[num_dims + num_exists + k[1]] += v
            else:
                out[num_dims + num_exists + self.num_new + k[1]] += v
        return tuple(out)


def _unimodular_inverse(matrix, n):
    if len(matrix) != n or any(len(r) != n for r in matrix):
        raise ArityMismatchError("matrix must be %dx%d" % (n, n))
    m = [[Fraction(v) for v in row] for row in matrix]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise NonUnimodularMatrixError("singular matrix")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            det = -det
        det *= m[col][col]
        f = m[col][col]
        m[col] = [v / f for v in m[col]]
        inv[col] = [v / f for v in inv[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
    if det not in (1, -1):
        raise NonUnimodularMatrixError("matrix determinant is %s, not +/-1" % det)
    return [[int(v) for v in row] for row in inv]


# ---------------------------------------------------------------------------
# AffineMap


@dataclass(frozen=True)
class AffineMap:
    num_dims: int
    num_syms: int
    results: tuple  # of AffineExpr

    def __post_init__(self):
        object.__setattr__(self, "results", tuple(canon(r) for r in self.results))
        for r in self.results:
            if max_dim_index(r) >= self.num_dims or max_sym_index(r) >= self.num_syms:
                raise MalformedExpressionError("map result references out-of-range dim/symbol")

    @staticmethod
    def identity(n, num_syms=0):
        return AffineMap(n, num_syms, tuple(DimRef(i) for i in range(n)))

    def eval(self, dims=(), syms=()):
        if len(dims) != self.num_dims or len(syms) < self.num_syms:
            raise ArityMismatchError("map applied to wrong number of operands")
        return tuple(eval_expr(r, dims, syms) for r in self.results)

    def compose(self, inner):
        """self o inner: (self . inner)(x) == self(inner(x)).  Symbol spaces
        are merged positionally."""
        if self.num_dims != len(inner.results):
            raise ArityMismatchError(
                "compose: outer expects %d dims, inner yields %d results"
                % (self.num_dims, len(inner.results)))
        results = tuple(subst_expr(r, list(inner.results)) for r in self.results)
        return AffineMap(inner.num_dims, max(self.num_syms, inner.num_syms), results)

    def apply_unimodular(self, matrix):
        """Left-multiply the result vector by a unimodular matrix."""
        n = len(self.results)
        _unimodular_inverse(matrix, n)  # arity + determinant check
        res = []
        for row in matrix:
            e = Const(0)
            for c, r in zip(row, self.results):
                if c:
                    e = Add(e, Mul(r, c))
            res.append(e)
        return AffineMap(self.num_dims, self.num_syms, tuple(res))

    def insert_dims(self, at, count):
        """Renumber dims to make room for ``count`` new dims at ``at`` (the
        results do not use the new dims)."""
        def bump(e):
            if isinstance(e, DimRef):
                return DimRef(e.index + count if e.index >= at else e.index)
            if isinstance(e, (SymRef, Const)):
                return e
            if isinstance(e, Add):
                return Add(bump(e.lhs), bump(e.rhs))
            if isinstance(e, Mul):
                return Mul(bump(e.operand), e.coef)
            return type(e)(bump(e.operand), e.divisor)
        return AffineMap(self.num_dims + count, self.num_syms,
                         tuple(bump(r) for r in self.results))

    def __str__(self):
        return format_map(self)


# ---------------------------------------------------------------------------
# Textual syntax: affine_map<(d0, d1)[s0] -> (...)> and
# integer_set<(d0, d1)[s0] : (...)>


def format_expr(expr, dim_names=None, sym_names=None):
    terms, const = expr_terms(expr)
    items = sorted(terms.items(), key=lambda t: _atom_key(t[0]))

    def atom_str(atom):
        if isinstance(atom, DimRef):
            return dim_names[atom.index] if dim_names else "d%d" % atom.index
        if isinstance(atom, SymRef):
            return sym_names[atom.index] if sym_names else "s%d" % atom.index
        op = {FloorDiv: "floordiv", CeilDiv: "ceildiv", Mod: "mod"}[type(atom)]
        inner = format_expr(atom.operand, dim_names, sym_names)
        if isinstance(canon(atom.operand), (DimRef, SymRef)):
            return "%s %s %d" % (inner, op, atom.divisor)
        return "(%s) %s %d" % (inner, op, atom.divisor)

    def term_str(atom, coef):
        s = atom_str(atom)
        if abs(coef) != 1:
            if isinstance(atom, (FloorDiv, CeilDiv, Mod)):
                s = "(%s)" % s
            s = "%s * %d" % (s, abs(coef))
        return s

    parts = []
    for atom, coef in items:
        if not parts:
            parts.append(("-" if coef < 0 else "") + term_str(atom, coef))
        else:
            parts.append(("- " if coef < 0 else "+ ") + term_str(atom, coef))
    if const != 0 or not parts:
        if not parts:
            parts.append(str(const))
        else:
            parts.append(("- %d" if const < 0 else "+ %d") % abs(const))
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


# never a dim, symbol, existential, map or set name
KEYWORDS = ("floordiv", "ceildiv", "mod", "affine_map", "integer_set", "exists")


class _AffineParser:
    def __init__(self, cur, dim_names, sym_names):
        self.cur = cur
        self.dims = dim_names
        self.syms = sym_names

    def expr(self):
        e = self.term()
        while self.cur.peek()[1] in ("+", "-"):
            op = self.cur.next()[1]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Add(e, Mul(rhs, -1))
        return e

    def term(self):
        e = self.unary()
        while True:
            kind, v, pos = self.cur.peek()
            if v == "*":
                self.cur.next()
                rhs = self.unary()
                if isinstance(rhs, Const):
                    e = Mul(e, rhs.value)
                elif isinstance(canon(e), Const):
                    e = Mul(rhs, canon(e).value)
                else:
                    raise ParseError("non-affine product", *pos)
            elif v in ("floordiv", "ceildiv", "mod"):
                self.cur.next()
                rhs = self.unary()
                rc = canon(rhs)
                if not isinstance(rc, Const) or rc.value <= 0:
                    raise ParseError("%s needs a positive constant divisor" % v, *pos)
                e = {"floordiv": FloorDiv, "ceildiv": CeilDiv, "mod": Mod}[v](e, rc.value)
            else:
                return e

    def unary(self):
        kind, v, pos = self.cur.peek()
        if v == "-":
            self.cur.next()
            return Mul(self.unary(), -1)
        return self.primary()

    def primary(self):
        kind, v, pos = self.cur.next()
        if kind == "int":
            return Const(v)
        if kind == "id":
            if v in self.dims:
                return DimRef(self.dims.index(v))
            if v in self.syms:
                return SymRef(self.syms.index(v))
            raise ParseError("unknown identifier %r" % v, *pos)
        if v == "(":
            e = self.expr()
            self.cur.expect(")")
            return e
        raise ParseError("unexpected token %r" % v, *pos)


def _parse_space(cur):
    dims = cur.names("(", ")", KEYWORDS)
    syms = cur.names("[", "]", KEYWORDS) if cur.peek()[1] == "[" else []
    return dims, syms


def parse_map(text):
    """Parse ``affine_map<(d0, d1)[s0] -> (exprs)>``."""
    return parse_map_at(Cursor(text))


def parse_map_at(cur):
    """Parse an affine_map starting at the cursor's current token."""
    cur.expect("affine_map")
    cur.expect("<")
    dims, syms = _parse_space(cur)
    cur.expect("->")
    p = _AffineParser(cur, dims, syms)
    cur.expect("(")
    results = []
    while cur.peek()[1] != ")":
        results.append(p.expr())
        if cur.peek()[1] == ",":
            cur.next()
    cur.expect(")")
    cur.expect(">")
    return AffineMap(len(dims), len(syms), tuple(results))


def parse_set(text):
    """Parse ``integer_set<(d0)[s0] : (constraints)>``; each constraint is
    a binary ``>=``/``<=``/``==`` comparison between affine expressions."""
    return parse_set_at(Cursor(text))


def parse_set_at(cur):
    """Parse an integer_set starting at the cursor's current token."""
    cur.expect("integer_set")
    cur.expect("<")
    dims, syms = _parse_space(cur)
    exists = []
    if cur.peek()[1] == "exists":
        cur.next()
        exists = cur.names("(", ")", KEYWORDS)
    cur.expect(":")
    p = _AffineParser(cur, dims + exists, syms)
    cur.expect("(")
    cons = []
    while cur.peek()[1] != ")":
        lhs = p.expr()
        kind, v, pos = cur.next()
        if v not in (">=", "<=", "=="):
            raise ParseError("expected comparison, found %r" % v, *pos)
        rhs = p.expr()
        diff = Add(lhs, Mul(rhs, -1)) if v in (">=", "==") else Add(rhs, Mul(lhs, -1))
        cons.append((diff, EQ if v == "==" else INEQ))
        if cur.peek()[1] == ",":
            cur.next()
    cur.expect(")")
    cur.expect(">")
    return IntegerSet.from_constraints(len(dims), len(syms), cons, num_exists=len(exists))
