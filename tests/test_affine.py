"""Tests for the integer affine algebra core."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from polyhls import affine
from polyhls.affine import (
    EQ,
    INEQ,
    AffineMap,
    Const,
    DimRef,
    IntegerSet,
    SymRef,
    ceildiv,
    eval_expr,
    floordiv,
    format_expr,
    format_map,
    format_set,
    mod,
    parse_map,
    parse_set,
)
from polyhls.errors import (
    ArityMismatchError,
    MalformedExpressionError,
    ParseError,
    UnboundedDimensionError,
    UnsupportedConstructError,
)


def box(bounds, num_syms=0):
    """IntegerSet {lo_k <= d_k <= hi_k} from [(lo, hi), ...] of ints."""
    cons = []
    for k, (lo, hi) in enumerate(bounds):
        cons.append((DimRef(k) - lo, INEQ))
        cons.append((hi - DimRef(k), INEQ))
    return IntegerSet.from_constraints(len(bounds), num_syms, cons)


class TestEvalExpr:
    def test_tile_ub_map_at_32(self):
        # ((s0 - 1) floordiv 16 + 1) at s0 = 32
        e = floordiv(SymRef(0) - 1, 16) + 1
        assert eval_expr(e, (), (32,)) == 2

    def test_identity_dim(self):
        assert eval_expr(DimRef(0), (0,), ()) == 0

    def test_ceild_lbp_formula(self):
        # ceild(32*d0 - s0 + 1, 32) at d0=1, s0=40 -> ceil(-7/32) = 0
        e = ceildiv(DimRef(0) * 32 + (SymRef(0) * -1 + 1), 32)
        assert eval_expr(e, (1,), (40,)) == 0

    def test_index_out_of_range(self):
        with pytest.raises(MalformedExpressionError):
            eval_expr(DimRef(2), (0,), ())

    def test_mod(self):
        assert eval_expr(mod(Const(-7), 3), (), ()) == 2

    @given(st.integers(-100, 100), st.integers(1, 16))
    def test_floordiv_ceildiv_round_correctly(self, a, b):
        import math
        assert eval_expr(floordiv(Const(a), b)) == math.floor(a / b)
        assert eval_expr(ceildiv(Const(a), b)) == math.ceil(a / b)


class TestCanonAndFormat:
    def test_sum_collapses(self):
        e = (DimRef(0) + 2) + (DimRef(0) * 2 - 2)
        assert e == DimRef(0) * 3

    def test_format_parse_round_trip(self):
        m = AffineMap(2, 1, (DimRef(0) * 32 + DimRef(1) * -32,
                             floordiv(SymRef(0), 4) + 1))
        assert parse_map(format_map(m)) == m

    def test_tile_ub_map_text(self):
        m = parse_map("affine_map<()[s0] -> ((s0 - 1) floordiv 16 + 1)>")
        assert m.eval((), (32,)) == (2,)
        assert m.eval((), (33,)) == (3,)

    @pytest.mark.parametrize("text", [
        "affine_map<(floordiv) -> (0)>",
        "affine_map<(d0)[mod] -> (d0)>",
        "integer_set<(d0) exists (ceildiv) : (d0 >= 0)>",
    ])
    def test_reserved_words_rejected_as_names(self, text):
        parse = parse_map if text.startswith("affine_map") else parse_set
        with pytest.raises(ParseError, match="expected identifier"):
            parse(text)


class TestTextGrammar:
    """Map and set text is read by the frontend grammar and one converter:
    a converter reject is at the item's first token, a grammar reject at
    the offending token."""

    @pytest.mark.parametrize("text, cls, message, pos", [
        ("affine_map<(d0, d1) -> (d0 * d1)>", ParseError,
         "non-affine product 'd0 * d1'", (1, 25)),
        ("affine_map<(d0) -> (d0 floordiv 0)>", ParseError,
         "floordiv needs a positive constant divisor", (1, 21)),
        ("affine_map<(d0, d1) -> (d1, d0 mod d1)>", ParseError,
         "mod needs a positive constant divisor", (1, 29)),
        ("affine_map<(d0) -> (d0,\n  x + 1)>", ParseError,
         "unknown identifier 'x' in affine position", (2, 3)),
        ("affine_map<(d0) -> (1.5)>", ParseError, "non-affine expression '1.5'", (1, 21)),
        ("affine_map<(d0) -> (d0 + )>", ParseError, "unexpected token ')'", (1, 26)),
        ("affine_map<(d0) -> (d0 / 2)>", UnsupportedConstructError,
         "division is not supported in the input language", (1, 24)),
        ("affine_map<(d0) -> (d0))>", ParseError, "expected '>', found ')'", (1, 24)),
        ("integer_set<(d0) : (d0 = 0)>", UnsupportedConstructError,
         "unsupported comparison '='", (1, 24)),
        ("integer_set<(d0) : (d0 >= 0, d0 + 1)>", UnsupportedConstructError,
         "unsupported comparison ')'", (1, 36)),
        ("integer_set<(d0) : (d0 != 0)>", ParseError, "unexpected character '!'", (1, 24)),
        ("integer_set<(d0)[s0] : (s0 - d0 >= d0 * s0)>", ParseError,
         "non-affine product 'd0 * s0'", (1, 25)),
        ("affine_map<(int) -> (0)>", ParseError, "expected identifier, found 'int'", (1, 13)),
        ("affine_map<(d0)[for] -> (d0)>", ParseError, "expected identifier, found 'for'",
         (1, 17)),
        ("integer_set<(d0) exists (else) : (d0 >= 0)>", ParseError,
         "expected identifier, found 'else'", (1, 26)),
    ])
    def test_malformed_text(self, text, cls, message, pos):
        parse = parse_map if text.startswith("affine_map") else parse_set
        with pytest.raises(cls) as err:
            parse(text)
        assert type(err.value) is cls
        assert str(err.value) == "%d:%d: %s" % (pos + (message,))
        assert (err.value.line, err.value.col) == pos

    @pytest.mark.parametrize("strict, closed", [
        ("d0 < s0", "s0 - d0 - 1 >= 0"),
        ("d0 > 0", "d0 - 1 >= 0"),
        ("s0 > d0 * 2", "s0 - d0 * 2 >= 1"),
        ("0 < d0 + 1", "d0 >= 0"),
    ])
    def test_strict_comparisons_equal_closed_forms(self, strict, closed):
        text = "integer_set<(d0)[s0] : (d0 >= -5, %s)>"
        s = parse_set(text % strict)
        assert s == parse_set(text % closed)
        assert " < " not in format_set(s) and " > " not in format_set(s)

    def test_infix_words_bind_as_product(self):
        m = parse_map("affine_map<(d0)[s0] -> "
                      "(-d0 floordiv 2 * 3 + s0 mod 4, d0 ceildiv (1 + 1))>")
        assert m == AffineMap(1, 1, (floordiv(-DimRef(0), 2) * 3 + mod(SymRef(0), 4),
                                     ceildiv(DimRef(0), 2)))


_coefs = st.integers(-5, 5)
_linear_forms = st.builds(lambda a, b, c, k: DimRef(0) * a + DimRef(1) * b + SymRef(0) * c + k,
                          _coefs, _coefs, _coefs, st.integers(-20, 20))
_div_atoms = st.builds(lambda div, e, b, coef: div(e, b) * coef,
                       st.sampled_from([floordiv, ceildiv, mod]), _linear_forms,
                       st.integers(1, 8), _coefs)
# forms over (d0, d1)[s0] with up to two div atoms
_forms = st.builds(lambda e, atoms: sum(atoms, e), _linear_forms,
                   st.lists(_div_atoms, max_size=2))
_points = st.tuples(st.integers(-30, 30), st.integers(-30, 30))


class TestLinearForm:
    @given(_forms, _forms, _points, st.integers(-30, 30), _coefs)
    def test_eval_is_additive_and_scales(self, a, b, dims, sym, k):
        syms = (sym,)
        va, vb = eval_expr(a, dims, syms), eval_expr(b, dims, syms)
        assert eval_expr(a + b, dims, syms) == va + vb
        assert eval_expr(a - b, dims, syms) == va - vb
        assert eval_expr(a * k, dims, syms) == k * va
        assert eval_expr(-a, dims, syms) == -va

    @given(_forms, _forms)
    def test_equal_forms_equal_and_hash_equal(self, a, b):
        assert a + b == b + a
        assert hash(a + b) == hash(b + a)
        assert (a + b) - b == a
        assert hash((a + b) - b) == hash(a)

    @given(_forms, _forms)
    def test_map_text_round_trip(self, a, b):
        m = AffineMap(2, 1, (a, b))
        assert parse_map(format_map(m)) == m


class TestEliminate:
    """`IntegerSet.eliminate` keeps each eliminated column, unconstrained;
    pinning it to 0 gives the projection."""

    @staticmethod
    def pinned(s, dim):
        return s.eliminate([dim]).where([(DimRef(dim), EQ)])

    def test_box_projection(self):
        s = box([(1, 3), (1, 3)])
        assert self.pinned(s, 1).points() == {(i, 0) for i in range(1, 4)}

    def test_diagonal_slice(self):
        # {(i,j): i+j=4, 1<=j<=3} eliminate j -> {i: 1<=i<=3}
        cons = [(DimRef(0) + DimRef(1) - 4, EQ),
                (DimRef(1) - 1, INEQ),
                (3 - DimRef(1), INEQ)]
        s = IntegerSet.from_constraints(2, 0, cons)
        assert self.pinned(s, 1).points() == {(1, 0), (2, 0), (3, 0)}

    def test_stencil_domain_projection(self):
        # {1 <= i,j <= N-1} eliminate j -> {1 <= i <= N-1}
        cons = []
        for d in range(2):
            cons.append((DimRef(d) - 1, INEQ))
            cons.append((SymRef(0) + (DimRef(d) * -1 - 1), INEQ))
        s = IntegerSet.from_constraints(2, 1, cons)
        p = self.pinned(s, 1)
        for n in (2, 5, 9):
            assert p.points((n,)) == {(i, 0) for i in range(1, n)}

    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                    min_size=2, max_size=2))
    def test_eliminate_commutes_with_enumeration_on_boxes(self, bs):
        bounds = [(min(a, b), max(a, b)) for a, b in bs]
        s = box(bounds)
        assert self.pinned(s, 1).points() == {(p[0], 0) for p in s.points()}

    def test_dim_out_of_range(self):
        with pytest.raises(ArityMismatchError):
            box([(0, 1)]).eliminate([1])


class TestIsEmpty:
    def test_contradictory_bounds(self):
        assert box([(1, 0)]).is_empty()

    def test_diagonal_nonempty(self):
        cons = [(DimRef(0) - DimRef(1), EQ),
                (DimRef(0) - 1, INEQ),
                (3 - DimRef(1), INEQ)]
        s = IntegerSet.from_constraints(2, 0, cons)
        assert not s.is_empty()

    def test_exact_when_symbols_fixed(self):
        # 2i = 2j + 1 has no integer solutions, though rationally feasible
        cons = [(DimRef(0) * 2 + (DimRef(1) * -2 - 1), EQ),
                (DimRef(0), INEQ), (4 - DimRef(0), INEQ),
                (DimRef(1), INEQ), (4 - DimRef(1), INEQ)]
        s = IntegerSet.from_constraints(2, 0, cons)
        assert s.is_empty()


class TestConstRange:
    """`IntegerSet.range_of`: the constant range of an expression."""

    def test_difference_fixed_over_symbolic_set(self):
        # {(i, j) : 0 <= i < N, j = i + 2}: j - i is 2
        cons = [(DimRef(0), INEQ), (SymRef(0) - DimRef(0) - 1, INEQ),
                (DimRef(1) - DimRef(0) - 2, EQ)]
        s = IntegerSet.from_constraints(2, 1, cons)
        assert s.range_of(DimRef(1) - DimRef(0)) == (2, 2)
        assert s.range_of(DimRef(0)) == (0, None)

    def test_integer_tightening(self):
        # {(i, d) : 0 <= i <= 5, 2d = i}: d <= 5/2 tightens to 2
        cons = [(DimRef(0), INEQ), (5 - DimRef(0), INEQ),
                (DimRef(0) - DimRef(1) * 2, EQ)]
        assert IntegerSet.from_constraints(2, 0, cons).range_of(DimRef(1)) == (0, 2)

    def test_empty(self):
        assert box([(1, 0)]).range_of(DimRef(0)) is None
        assert box([(0, 3), (2, 1)]).range_of(DimRef(0)) is None

    def test_dim_out_of_range(self):
        with pytest.raises(MalformedExpressionError):
            box([(0, 1)]).range_of(DimRef(1))
        with pytest.raises(MalformedExpressionError):
            box([(0, 1)], num_syms=1).range_of(DimRef(0) + SymRef(1))

    def test_difference_over_two_instances(self):
        # two instances i, i' of one tile 0 <= i, i' <= 3: the footprint
        # extent of A[i] is the range of i - i', plus one
        s = box([(0, 3), (0, 3)])
        assert s.range_of(DimRef(0) - DimRef(1)) == (-3, 3)
        # (T, i, i'): both instances of 0 <= i < N in tile T of size 4
        cons = []
        for d in (1, 2):
            cons += [(DimRef(d), INEQ), (SymRef(0) - 1 - DimRef(d), INEQ),
                     (DimRef(d) - DimRef(0) * 4, INEQ), (DimRef(0) * 4 + 3 - DimRef(d), INEQ)]
        pair = IntegerSet.from_constraints(3, 1, cons)
        assert pair.range_of(DimRef(1) - DimRef(2)) == (-3, 3)


class TestBoundsForDim:
    """`IntegerSet.loop_bounds`: the symbolic bounds of each outer dim."""

    def test_symbolic_box(self):
        cons = [(DimRef(0) - 1, INEQ),
                (SymRef(0) + (DimRef(0) * -1 - 1), INEQ)]
        s = IntegerSet.from_constraints(1, 1, cons)
        [(lo, up)] = s.loop_bounds(1)
        assert [format_expr(e) for e in lo] == ["1"]
        assert [format_expr(e) for e in up] == ["s0 - 1"]

    def test_division_bound(self):
        # {i : 2i <= 7, i >= 0} -> upper floordiv(7, 2)
        cons = [(DimRef(0), INEQ),
                (7 - DimRef(0) * 2, INEQ)]
        s = IntegerSet.from_constraints(1, 0, cons)
        [(lo, up)] = s.loop_bounds(1)
        assert [eval_expr(e) for e in lo] == [0]
        assert [eval_expr(e) for e in up] == [3]

    def test_unbounded_raises(self):
        # d0 >= 0 has no upper bound; d1 of the second set is in no row
        for num_dims, cons, side in [(1, [(DimRef(0), INEQ)], "upper"),
                                     (2, [(DimRef(0), INEQ), (3 - DimRef(0), INEQ)], "lower")]:
            s = IntegerSet.from_constraints(num_dims, 0, cons)
            with pytest.raises(UnboundedDimensionError,
                               match="dim %d has no finite %s bound" % (num_dims - 1, side)):
                s.loop_bounds(num_dims)

    def test_depth_out_of_range(self):
        assert box([(0, 1)]).loop_bounds(0) == []
        with pytest.raises(ArityMismatchError):
            box([(0, 1)]).loop_bounds(2)

    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 5)),
                    min_size=2, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_scan_reconstruction_on_boxes(self, bs):
        bounds = [(a, a + w) for a, w in bs]
        s = box(bounds)
        per_dim = s.loop_bounds(len(bounds))

        def scan(k, outer):
            if k == len(bounds):
                yield tuple(outer)
                return
            lo, up = per_dim[k]
            a = max(eval_expr(e, outer) for e in lo)
            b = min(eval_expr(e, outer) for e in up)
            for v in range(a, b + 1):
                yield from scan(k + 1, outer + [v])

        assert set(scan(0, [])) == s.points()


class TestEnumerationAgreesWithMembership:
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                              st.integers(-4, 4)),
                    min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_random_constraints(self, rows):
        # dims in a small window plus random inequality rows
        cons = [(DimRef(0) + 4, INEQ),
                (4 - DimRef(0), INEQ),
                (DimRef(1) + 4, INEQ),
                (4 - DimRef(1), INEQ)]
        for a, b, c in rows:
            cons.append((DimRef(0) * a + (DimRef(1) * b + c), INEQ))
        s = IntegerSet.from_constraints(2, 0, cons)
        pts = s.points()
        for i in range(-5, 6):
            for j in range(-5, 6):
                assert ((i, j) in pts) == s.contains((i, j))


_small = st.integers(-2, 2)
_small_forms = st.builds(lambda a, b, c, k: DimRef(0) * a + DimRef(1) * b + SymRef(0) * c + k,
                         _small, _small, _small, st.integers(-3, 3))
# a small linear form, maybe with one div atom (== 0)
_equalities = st.builds(lambda e, atoms: sum(atoms, e), _small_forms,
                        st.lists(st.builds(lambda div, op, b, coef: div(op, b) * coef,
                                           st.sampled_from([floordiv, ceildiv, mod]), _linear_forms,
                                           st.integers(1, 3), _small), max_size=1))
# a linear form plus one div atom of an operand that reads d0 (>= 0), so
# the set has at least one existential
_div_inequalities = st.builds(lambda e, div, a, b, k, m, coef: e + div(DimRef(0) * a + DimRef(1) * b + k, m) * coef,
                              _linear_forms, st.sampled_from([floordiv, ceildiv, mod]),
                              st.integers(1, 3), _small, st.integers(-3, 3),
                              st.integers(2, 5), st.sampled_from([-3, -2, -1, 1, 2, 3]))
_WINDOW = range(-4, 5)


class TestScanAgainstBruteForce:
    """`points` and `contains` share the scanner; the oracle here is a
    filter of a window of points through `eval_expr` alone."""

    @given(_equalities, _div_inequalities, st.lists(_forms, max_size=2), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_points_and_contains_match_filter(self, eq, ineq, more, sym):
        cons = [(DimRef(0) + 4, INEQ), (4 - DimRef(0), INEQ),
                (DimRef(1) + 4, INEQ), (4 - DimRef(1), INEQ),
                (eq, EQ), (ineq, INEQ)] + [(f, INEQ) for f in more]
        s = IntegerSet.from_constraints(2, 1, cons)
        assert s.num_exists >= 1
        want = {(i, j) for i in _WINDOW for j in _WINDOW
                if all(eval_expr(e, (i, j), (sym,)) == 0 if kind == EQ
                       else eval_expr(e, (i, j), (sym,)) >= 0 for e, kind in cons)}
        assert s.points((sym,)) == want
        for i in range(-5, 6):
            for j in range(-5, 6):
                assert s.contains((i, j), (sym,)) == ((i, j) in want)


class TestSymbolicAgainstBruteForce:
    """The symbolic `is_empty` and `range_of` read the rational shadow of a
    set with a free symbol, so they may keep a spurious point but never
    lose one; the oracle is a filter of a window of points at N = 1..6."""

    @given(st.lists(_equalities, min_size=1, max_size=2), st.lists(_small_forms, max_size=1),
           _equalities)
    @settings(max_examples=60, deadline=None)
    def test_no_point_outside_the_answer(self, ineqs, eqs, form):
        cons = [(DimRef(0) + 4, INEQ), (4 - DimRef(0), INEQ),
                (DimRef(1) + 4, INEQ), (4 - DimRef(1), INEQ)]
        cons += [(f, INEQ) for f in ineqs] + [(f, EQ) for f in eqs]
        s = IntegerSet.from_constraints(2, 1, cons)
        values = {eval_expr(form, (i, j), (n,)) for n in range(1, 7)
                  for i in _WINDOW for j in _WINDOW
                  if all(eval_expr(e, (i, j), (n,)) == 0 if kind == EQ
                         else eval_expr(e, (i, j), (n,)) >= 0 for e, kind in cons)}
        assert not (values and s.is_empty())
        bounds = s.range_of(form)
        assert not (values and bounds is None)
        if values and bounds is not None:
            lo, hi = bounds
            assert lo is None or lo <= min(values)
            assert hi is None or max(values) <= hi


class TestScan:
    def test_eliminates_once_per_set(self, monkeypatch):
        # 0 <= d_k < N: the projection chain does not depend on N
        cons = []
        for k in range(3):
            cons += [(DimRef(k), INEQ), (SymRef(0) - DimRef(k) - 1, INEQ)]
        s = IntegerSet.from_constraints(3, 1, cons)
        real = affine._eliminate_col
        counts = []
        for n in (4, 8):
            calls = []

            def counted(rows, col):
                calls.append(col)
                return real(rows, col)

            monkeypatch.setattr(affine, "_eliminate_col", counted)
            assert len(s.points((n,))) == n ** 3
            counts.append(len(calls))
        assert counts[0] == counts[1] <= s.num_dims - 1

    def test_contains_only_folds(self, monkeypatch):
        # without existentials a membership test reads each folded constant;
        # it normalizes and prunes nothing
        s = parse_set("integer_set<(d0, d1)[s0] : "
                      "(-d1 + s0 - 1 >= 0, d1 >= 0, d0 * 2 - d1 == 0)>")
        calls = []

        def counted(real):
            def wrapper(*args):
                calls.append(real.__name__)
                return real(*args)
            return wrapper

        for name in ("_norm_row", "_prune_rows"):
            monkeypatch.setattr(affine, name, counted(getattr(affine, name)))
        inside = [p for p in itertools.product(range(-2, 6), repeat=2) if s.contains(p, (5,))]
        assert inside == [(0, 0), (1, 2), (2, 4)] and calls == []

    def test_unbounded_dim_raises(self):
        s = IntegerSet.from_constraints(2, 0, [(DimRef(0), INEQ), (3 - DimRef(0), INEQ),
                                               (DimRef(1) - DimRef(0), INEQ)])
        with pytest.raises(UnboundedDimensionError):
            s.points()

    def test_unbounded_existential_raises(self):
        s = parse_set("integer_set<(d0) exists (e0) : (d0 >= 0, 3 - d0 >= 0, e0 - d0 >= 0)>")
        with pytest.raises(UnboundedDimensionError):
            s.contains((1,))
        with pytest.raises(UnboundedDimensionError):
            s.points()


class TestSetSyntax:
    def test_set_round_trip(self):
        s = box([(0, 5), (1, 7)], num_syms=1)
        assert parse_set(format_set(s)) == s

    def test_exists_round_trip(self):
        # i even, 0 <= i <= 10 (existential from the floordiv lowering)
        cons = [(DimRef(0) + floordiv(DimRef(0), 2) * -2, EQ),
                (DimRef(0), INEQ),
                (10 - DimRef(0), INEQ)]
        s = IntegerSet.from_constraints(1, 0, cons)
        assert s.num_exists == 1
        assert parse_set(format_set(s)) == s
        assert s.points() == {(i,) for i in range(0, 11, 2)}
