"""Codegen (polyhedra -> Affine IR) tests: scan completeness and order."""

import pytest

from polyhls import affine, frontend as fe, hls, interp
from polyhls.affine import eval_expr
from polyhls.codegen import _scan_set, dump_bounds, generate_loops, simplify_bounds
from polyhls.errors import CodegenError
from polyhls.ir import For, If, parse_ir, print_ir, verify_ir
from polyhls.scop import build_scop
from polyhls.transforms import (TilingSpec, sub_bounding_box_tile, tile,
                                wavefront_parallelize)

import corpus


PIPELINES = {
    "none": lambda s, d: s,
    "tile": lambda s, d: tile(s, TilingSpec((4,) * min(2, d))),
    "wavefront": lambda s, d: wavefront_parallelize(tile(s, TilingSpec((4, 4)))),
    "subbb": lambda s, d: sub_bounding_box_tile(s, TilingSpec((4,) * min(2, d))),
}


class TestUntransformed:
    def test_stencil_bounds(self):
        scop = build_scop(fe.parse_program(corpus.STENCIL2D.source))[0]
        m = generate_loops(scop)
        loop_i = m.body[0]
        assert isinstance(loop_i, For) and loop_i.var == "i"
        assert loop_i.lb.map.eval((), (9,)) == (1,)
        assert loop_i.ub.map.eval((), (9,)) == (8,)
        loop_j = loop_i.body[0]
        assert loop_j.var == "j"

    def test_empty_domain_statement_dropped(self):
        src = ("int N;\nint A[N];\n#pragma scop\n"
               "for (i = 0; i < N; i++) {\n"
               "  if (i < 0) { A[i] = 0; }\n"
               "  A[i] = 1;\n"
               "}\n#pragma endscop\n")
        scop = build_scop(fe.parse_program(src))[0]
        m = generate_loops(scop)
        text = print_ir(m)
        assert "S2" in text and "@S1" not in text

    def test_empty_scop(self):
        scop = build_scop(fe.parse_program("int N;\n#pragma scop\n#pragma endscop\n"))[0]
        assert generate_loops(scop).body == ()
        scop = build_scop(fe.parse_program("int N;\nfloat A[N];\n#pragma scop\n"
                                           "#pragma endscop\n"))[0]
        m = generate_loops(scop)
        assert (m.symbols, m.stmts, m.body) == (("N",), (), ())
        assert print_ir(m) == "module {\n  symbol N\n  array A : float64 [N]\n}\n"


class TestSymbolGuards:
    """A domain row over the symbols alone bounds no loop dim: codegen
    guards the call with it unless the statement's other rows, its guard
    and the context imply it."""

    def test_equality_over_symbols_guards_the_call(self):
        prog = fe.parse_program("int N;\nfloat A[N];\n#pragma scop\nif (N == 3) {\n"
                                "  for (i = 0; i < N; i++) {\n    A[i] = A[i] + 1.0;\n  }\n}\n"
                                "#pragma endscop\n")
        module = generate_loops(build_scop(prog)[0])
        for n in (2, 3, 4):
            init = {"A": [float(k) for k in range(n)]}
            assert (interp.run(module, {"N": n}, init).arrays["A"].data
                    == interp.run(prog, {"N": n}, init).arrays["A"].data)

    def test_rows_that_subbb_derives_add_no_guard(self):
        # the guard 1 <= i, j <= N - 1 implies the derived N - 2 >= 0
        scop = sub_bounding_box_tile(build_scop(corpus.parse(corpus.STENCIL2D))[0],
                                     TilingSpec((4, 4)))
        d = scop.statements[0].domain
        assert any(not any(c[:d.num_dims + d.num_exists]) for c, _ in d.rows)
        guards = [op.cond.set for op, _ in fe.walk(generate_loops(scop).body) if isinstance(op, If)]
        assert guards and all(e.dims for g in guards for e, _ in g.constraints)


class TestTiledBounds:
    def test_one_projection_chain_per_set(self, monkeypatch):
        # each statement projects its emptiness set (domain and context)
        # and its scan set once, whatever the number of loop levels
        scop = tile(build_scop(fe.parse_program(corpus.MATMUL.source))[0], TilingSpec((4, 4, 4)))
        real = affine._eliminate_col
        calls = []

        def counted(rows, col):
            calls.append(col)
            return real(rows, col)

        monkeypatch.setattr(affine, "_eliminate_col", counted)
        generate_loops(scop)
        scans = [_scan_set(scop, s) for s in scop.statements]
        assert 0 < len(calls) <= sum(s.domain.num_vars - 1 + scan.num_dims + scan.num_exists - 1
                                     for s, scan in zip(scop.statements, scans))

    def test_wavefront_t2_bounds_at_n40(self):
        scop = build_scop(fe.parse_program(corpus.STENCIL2D.source))[0]
        scop = wavefront_parallelize(tile(scop, TilingSpec((32, 32))))
        m = simplify_bounds(generate_loops(scop))
        t2 = m.body[0].body[0]
        assert t2.var == "tj" and t2.parallel
        # lbp = max(0, ceild(32*t1-n+1, 32)), ubp = min(floord(n-1,32), t1)
        assert max(t2.lb.map.eval((1,), (40,))) == 0
        assert min(t2.ub.map.eval((1,), (40,))) == 1

    def test_scan_completeness_all_pipelines(self):
        for entry in corpus.ALL:
            prog = fe.parse_program(entry.source)
            for pname, pipe in PIPELINES.items():
                if pname == "wavefront" and entry.depth < 2:
                    continue
                scop = pipe(build_scop(prog)[0], entry.depth)
                m = generate_loops(scop)
                for n in (2, 5, 8):
                    want = corpus.scheduled_trace(scop, n)
                    got = interp.run(m, {s: n for s in scop.symbols}, trace=True).trace
                    assert got == want, (entry.name, pname, n)


def test_tile_loop_not_named_after_symbol():
    # `i`'s tile loop would be named `ti`, the name of the symbol; below the
    # affine level loop vars and symbols share one namespace
    prog = fe.parse_program("int ti;\nfloat A[ti];\n#pragma scop\n"
                            "for (i = 0; i < ti; i++) { A[i] = A[i] + 1.0; }\n"
                            "#pragma endscop\n")
    scop = tile(build_scop(prog)[0], TilingSpec((4,)))
    module = simplify_bounds(generate_loops(scop))
    assert verify_ir(module) == []
    symbols = {"ti": 9}
    init = corpus.init_arrays(prog, symbols, seed=9)
    want = interp.run(prog, symbols, init).arrays["A"].data
    for rep in (scop, parse_ir(print_ir(module)), hls.lower_to_standard(module),
                hls.insert_directives(hls.partition(module, scop.name))):
        assert interp.run(rep, symbols, init).arrays["A"].data == want, type(rep).__name__


class TestSharedLoopLevels:
    def test_two_statements_share_loops(self):
        scop = build_scop(fe.parse_program(corpus.TWO_STMT.source))[0]
        m = generate_loops(scop)
        assert len(m.body) == 1
        loop = m.body[0]
        assert [type(op).__name__ for op in loop.body] == ["Call", "Call"]

    def test_differing_bounds_rejected(self):
        src = ("int N;\nint A[N];\nint B[N];\n#pragma scop\n"
               "for (i = 0; i < N; i++) { A[i] = 1; }\n"
               "for (i = 1; i < N; i++) { B[i] = 2; }\n"
               "#pragma endscop\n")
        scop = build_scop(fe.parse_program(src))[0]
        # different textual positions -> sequenced, not shared: must succeed
        m = generate_loops(scop)
        assert len(m.body) == 2


class TestSimplifyBounds:
    def test_duplicate_result_dropped(self):
        scop = build_scop(fe.parse_program(corpus.STENCIL2D.source))[0]
        m = simplify_bounds(generate_loops(scop))
        for op in (m.body[0], m.body[0].body[0]):
            assert len(op.lb.map.results) == 1
            assert len(op.ub.map.results) == 1

    def test_dominated_symbolic_result_dropped(self):
        # ub results {N-1, N+30} under N >= 1 keep only N-1
        from polyhls.affine import AffineMap, Const, SymRef
        from polyhls.ir import AffineIrModule, MapRef
        lb = MapRef(AffineMap(0, 1, (Const(0),)), (), ("N",))
        ub = MapRef(AffineMap(0, 1, (SymRef(0) - 1, SymRef(0) + 30)), (), ("N",))
        m = AffineIrModule(("N",), (), (), (For("i", lb, ub, False, ()),))
        out = simplify_bounds(m)
        results = out.body[0].ub.map.results
        assert len(results) == 1
        assert eval_expr(results[0], (), (10,)) == 9

    def test_needed_max_min_kept(self):
        scop = build_scop(fe.parse_program(corpus.STENCIL2D.source))[0]
        scop = wavefront_parallelize(tile(scop, TilingSpec((32, 32))))
        m = simplify_bounds(generate_loops(scop))
        point_i = m.body[0].body[0].body[0]
        assert len(point_i.lb.map.results) == 2
        assert len(point_i.ub.map.results) == 2

    def test_never_changes_trace(self):
        for entry in corpus.ALL:
            prog = fe.parse_program(entry.source)
            scop = tile(build_scop(prog)[0], TilingSpec((4,) * min(2, entry.depth)))
            m = generate_loops(scop)
            ms = simplify_bounds(m)
            for n in (3, 7):
                syms = {s: n for s in scop.symbols}
                assert interp.run(m, syms, trace=True).trace == \
                    interp.run(ms, syms, trace=True).trace, entry.name


def test_dump_bounds_output():
    scop = build_scop(fe.parse_program(corpus.STENCIL2D.source))[0]
    text = dump_bounds(simplify_bounds(generate_loops(scop)))
    assert text.splitlines()[0].startswith("i: lb max")
