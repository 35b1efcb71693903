"""Affine IR printer/parser/verifier tests."""

import random

import pytest

from polyhls import frontend as fe
from polyhls.affine import (AffineMap, Const, DimRef, IntegerSet, INEQ, SymRef,
                            floordiv)
from polyhls.codegen import generate_loops, simplify_bounds
from polyhls.errors import ParseError
from polyhls.ir import (AffineIrModule, Call, For, If, MapRef, SetRef, StmtDef,
                        parse_ir, print_ir, verify_ir)
from polyhls.scop import build_scop
from polyhls.transforms import (TilingSpec, sub_bounding_box_tile, tile,
                                wavefront_parallelize)

import corpus


def wavefront_module():
    scop = build_scop(fe.parse_program(corpus.STENCIL2D.source))[0]
    scop = wavefront_parallelize(tile(scop, TilingSpec((32, 32))))
    return simplify_bounds(generate_loops(scop))


def random_module(rng):
    """Small random module: a loop nest with random affine bounds, an
    optional guard, and a call."""
    nsyms = rng.randrange(1, 3)
    symbols = tuple("NM"[:nsyms])
    depth = rng.randrange(1, 4)
    params = tuple("ijk"[:depth])
    arr = fe.ArrayDecl("A", fe.FLOAT64, (symbols[0],) * 1)
    body_expr = fe.BinOp("+", fe.ArrayRef("A", (fe.Name(params[-1]),)),
                         fe.FloatLit(1.5))
    sd = StmtDef("S1", params, fe.Assign("", fe.ArrayRef("A", (fe.Name(params[-1]),)),
                                         body_expr))

    def rand_expr(ndims):
        e = Const(rng.randrange(-3, 4))
        for d in range(ndims):
            if rng.random() < 0.5:
                e = e + DimRef(d) * rng.randrange(-2, 3)
        if rng.random() < 0.5:
            e = e + SymRef(rng.randrange(nsyms)) * rng.choice((1, 2))
        if rng.random() < 0.3:
            e = floordiv(e, rng.choice((2, 4, 16)))
        return e

    def mapref(ndims, vars_):
        n = rng.randrange(1, 3)
        m = AffineMap(ndims, nsyms, tuple(rand_expr(ndims) for _ in range(n)))
        return MapRef(m, tuple(vars_), symbols)

    def build(level, vars_):
        if level == depth:
            ops = [Call("S1", params)]
            if rng.random() < 0.4:
                cons = [(DimRef(0) + rng.randrange(0, 3), INEQ)]
                s = IntegerSet.from_constraints(1, nsyms, cons)
                ops = [If(SetRef(s, (vars_[0],), symbols), tuple(ops))]
            return tuple(ops)
        v = params[level]
        return (For(v, mapref(level, vars_), mapref(level, vars_),
                    rng.random() < 0.3, build(level + 1, vars_ + [v])),)

    return AffineIrModule(symbols, (arr,), (sd,), build(0, []))


class TestPrint:
    def test_wavefront_maps_present(self):
        text = print_ir(wavefront_module())
        assert "#map1 = affine_map<()[s0] -> ((s0 - 1) floordiv 16 + 1)>" in text
        assert "affine.parallel_for tj" in text
        assert "call @S1(i, j)" in text

    def test_empty_module(self):
        text = print_ir(AffineIrModule((), (), (), ()))
        assert text == "module {\n}\n"

    def test_print_parse_print_fixed_point(self):
        rng = random.Random(99)
        for _ in range(50):
            m = random_module(rng)
            text = print_ir(m)
            assert print_ir(parse_ir(text)) == text

    def test_map_numbering_first_use_order(self):
        text = print_ir(wavefront_module())
        header = [l for l in text.splitlines() if l.startswith("#map")]
        assert [l.split(" ")[0] for l in header] == \
            ["#map%d" % i for i in range(len(header))]


class TestParse:
    def test_round_trip_wavefront(self):
        m = wavefront_module()
        assert parse_ir(print_ir(m)) == m

    def test_round_trip_corpus(self):
        # real codegen output: floordiv bounds, multi-result maps, guards
        for entry in corpus.ALL:
            spec = TilingSpec((4,) * min(2, entry.depth))
            for pipeline in ("none", "tile", "tile+wavefront", "subbb-tile"):
                if pipeline == "tile+wavefront" and entry.depth < 2:
                    continue  # the wavefront needs a 2-band
                scop = build_scop(fe.parse_program(entry.source))[0]
                if pipeline == "subbb-tile":
                    scop = sub_bounding_box_tile(scop, spec)
                elif pipeline != "none":
                    scop = tile(scop, spec)
                    if pipeline == "tile+wavefront":
                        scop = wavefront_parallelize(scop)
                m = simplify_bounds(generate_loops(scop))
                assert parse_ir(print_ir(m)) == m, (entry.name, pipeline)

    def test_depth_four_nest(self):
        text = print_ir(wavefront_module())
        m = parse_ir(text)
        depth = 0
        op = m.body[0]
        while isinstance(op, For):
            depth += 1
            op = op.body[0]
        assert depth == 4 and isinstance(op, Call)

    def test_unknown_map_reference(self):
        bad = ("#map0 = affine_map<()[s0] -> (0)>\n"
               "module {\n  symbol N\n"
               "  affine.for i = max #map0()[N] to min #map9()[N] {\n  }\n}\n")
        with pytest.raises(ParseError, match="map9"):
            parse_ir(bad)

    def test_wrong_operand_count(self):
        bad = ("#map0 = affine_map<(d0)[s0] -> (d0)>\n"
               "module {\n  symbol N\n"
               "  affine.for i = max #map0()[N] to min #map0()[N] {\n  }\n}\n")
        with pytest.raises(ParseError, match="operand"):
            parse_ir(bad)

    def test_syntax_error_has_location(self):
        with pytest.raises(ParseError) as err:
            parse_ir("module {\n  affine.while i {\n}\n")
        assert (err.value.line, err.value.col) == (2, 10)
        with pytest.raises(ParseError) as err:
            parse_ir("module {\n  symbol N\n  array A : float64 [N]\n"
                     "  stmt S1(i) {\n    A[i] = A[i] * ;\n  }\n}\n")
        assert (err.value.line, err.value.col) == (5, 19)

    def test_round_trip_exponent_float_literals(self):
        src = ("int N;\nfloat A[N];\n#pragma scop\nfor (i = 0; i < N; i++) {\n"
               "  A[i] = A[i] * 0.00001 + 1e17;\n}\n#pragma endscop\n")
        m = generate_loops(build_scop(fe.parse_program(src))[0])
        text = print_ir(m)
        assert "1e-05" in text and "1e+17" in text
        assert parse_ir(text) == m

    def test_stmt_body_forms(self):
        text = ("module {\n  symbol N\n  array mod : float64 [N]\n"
                "  array floordiv : float64 [N]\n"
                "  stmt S1(i) { mod[i] = floordiv[i] + 1.5 }\n}\n")
        m = parse_ir(text)
        assert m.stmts[0].body == fe.Assign(
            "", fe.ArrayRef("mod", (fe.Name("i"),)),
            fe.BinOp("+", fe.ArrayRef("floordiv", (fe.Name("i"),)), fe.FloatLit(1.5)))
        assert parse_ir(print_ir(m)) == m
        assert verify_ir(m) == []


class TestVerify:
    def test_valid_module_clean(self):
        assert verify_ir(wavefront_module()) == []

    def test_random_modules_clean(self):
        rng = random.Random(5)
        for _ in range(20):
            assert verify_ir(random_module(rng)) == []

    def test_call_arity_diagnostic(self):
        m = wavefront_module()

        def rewrite(ops):
            out = []
            for op in ops:
                if isinstance(op, For):
                    out.append(For(op.var, op.lb, op.ub, op.parallel,
                                   rewrite(op.body)))
                elif isinstance(op, Call):
                    out.append(Call(op.stmt, op.args[:1]))
                else:
                    out.append(op)
            return tuple(out)

        bad = AffineIrModule(m.symbols, m.arrays, m.stmts, rewrite(m.body))
        diags = verify_ir(bad)
        assert len(diags) == 1 and "S1" in diags[0]

    def test_shadowed_loop_var_diagnostic(self):
        m0 = AffineMap(0, 0, (Const(0),))
        inner = For("i", MapRef(m0, (), ()), MapRef(m0, (), ()), False, ())
        outer = For("i", MapRef(m0, (), ()), MapRef(m0, (), ()), False, (inner,))
        diags = verify_ir(AffineIrModule((), (), (), (outer,)))
        assert any("shadow" in d for d in diags)

    @pytest.mark.parametrize("var, what", [("N", "a symbol"), ("A", "an array")])
    def test_loop_var_named_like_symbol_or_array(self, var, what):
        m0 = MapRef(AffineMap(0, 1, (Const(0),)), (), ("N",))
        arr = fe.ArrayDecl("A", fe.FLOAT64, ("N",))
        module = AffineIrModule(("N",), (arr,), (), (For(var, m0, m0, False, ()),))
        assert verify_ir(module) == ["loop var %r shadows %s" % (var, what)]

    @pytest.mark.parametrize("decls", ["symbol N\n  symbol N\n",
                                       "symbol N\n  array N : int64 [4]\n"],
                             ids=["symbol-symbol", "symbol-array"])
    def test_duplicate_declaration_diagnostic(self, decls):
        # the emitted kernel would declare `N` twice, which cc rejects
        module = parse_ir("module {\n  %s}\n" % decls)
        assert verify_ir(module) == ["duplicate declaration of 'N'"]

    def test_out_of_scope_operand_diagnostic(self):
        m0 = AffineMap(0, 0, (Const(0),))
        m1 = AffineMap(1, 0, (DimRef(0),))
        loop = For("i", MapRef(m1, ("q",), ()), MapRef(m0, (), ()), False, ())
        diags = verify_ir(AffineIrModule((), (), (), (loop,)))
        assert any("q" in d for d in diags)


class TestUbShift:
    def test_printed_upper_is_exclusive(self):
        # internal inclusive ub N-1 prints as the exclusive map result s0
        scop = build_scop(fe.parse_program(corpus.COPY.source))[0]
        m = simplify_bounds(generate_loops(scop))
        text = print_ir(m)
        assert "affine_map<()[s0] -> (s0)>" in text
