"""HLS lowering tests: lowering in place, partition, directives, C emission."""

import shutil

import pytest

from polyhls import frontend as fe, hls, interp
from polyhls.codegen import generate_loops, simplify_bounds
from polyhls.ir import AffineIrModule, format_decls, parse_ir, print_ir
from polyhls.scop import build_scop
from polyhls.transforms import TilingSpec, sub_bounding_box_tile, tile, wavefront_parallelize

import corpus


# a parallel loop of constant trip count 4, the case that gets unrolled
CONST_TRIP_LOOP = ("#map0 = affine_map<() -> (0)>\n"
                   "#map1 = affine_map<() -> (4)>\n"
                   "module {\n  symbol N\n  array A : float64 [N]\n"
                   "  stmt S1(i) { A[i] = A[i] + 1.0; }\n"
                   "  affine.parallel_for i = max #map0() to min #map1() {\n"
                   "    call @S1(i)\n  }\n}\n")

# an affine.if with both branches: S1 when i >= 2, S2 otherwise
IF_ELSE = ("#map0 = affine_map<() -> (0)>\n"
           "#map1 = affine_map<()[s0] -> (s0)>\n"
           "#set0 = integer_set<(d0) : (d0 - 2 >= 0)>\n"
           "module {\n  symbol N\n  array A : int64 [N]\n"
           "  stmt S1(i) { A[i] = A[i] * 3 + i; }\n"
           "  stmt S2(i) { A[i] = A[i] - 7; }\n"
           "  affine.for i = max #map0() to min #map1()[N] {\n"
           "    affine.if #set0(i) {\n      call @S1(i)\n"
           "    } else {\n      call @S2(i)\n    }\n  }\n}\n")


def if_else_reference(a):
    """IF_ELSE run in plain Python on the values `a` of A."""
    return [v * 3 + i if i >= 2 else v - 7 for i, v in enumerate(a)]


def module_for(entry, pipeline="none"):
    scop = build_scop(fe.parse_program(entry.source))[0]
    if pipeline == "wavefront":
        scop = wavefront_parallelize(tile(scop, TilingSpec((4, 4))))
    elif pipeline == "tile":
        scop = tile(scop, TilingSpec((4,) * min(2, entry.depth)))
    return scop, simplify_bounds(generate_loops(scop))


class TestLowerToStandard:
    def test_lowers_in_place(self):
        _, m = module_for(corpus.STENCIL2D, "wavefront")
        ast = hls.lower_to_standard(m)
        assert isinstance(ast, AffineIrModule)
        assert (ast.symbols, ast.arrays, ast.stmts) == (m.symbols, m.arrays, m.stmts)
        assert isinstance(ast.body[0], hls.CFor)

    def test_identity_loop(self):
        _, m = module_for(corpus.COPY)
        ast = hls.lower_to_standard(m)
        loop = ast.body[0]
        assert isinstance(loop, hls.CFor)
        assert loop.lower == fe.IntLit(0)
        assert loop.upper == fe.BinOp("-", fe.Name("N"), fe.IntLit(1))

    def test_floordiv_becomes_helper_call(self):
        _, m = module_for(corpus.STENCIL2D, "wavefront")
        ast = hls.lower_to_standard(m)
        t1 = ast.body[0]
        assert t1.upper == fe.Call("floord", (fe.BinOp("-", fe.Name("N"),
                                                       fe.IntLit(1)), fe.IntLit(2)))

    def test_parallel_for_becomes_annotated_for(self):
        _, m = module_for(corpus.STENCIL2D, "wavefront")
        ast = hls.lower_to_standard(m)
        assert ast.body[0].body[0].parallel

    def test_interpreter_equivalent_to_ir(self):
        import random
        from test_ir import random_module
        rng = random.Random(17)
        checked = 0
        for _ in range(30):
            m = random_module(rng)
            ast = hls.lower_to_standard(m)
            syms = {s: 6 for s in m.symbols}
            try:
                want = interp.run(m, syms, {"A": [0.5] * 6})
            except Exception:
                continue  # randomly unbounded/out-of-range modules
            got = interp.run(ast, syms, {"A": [0.5] * 6})
            assert got.arrays["A"].data == want.arrays["A"].data
            checked += 1
        assert checked >= 10


class TestPartition:
    def test_stencil_inout(self):
        scop, m = module_for(corpus.STENCIL2D)
        p = hls.partition(m, scop.name)
        assert p.transfers == (("A", "inout"),)

    def test_copy_in_out(self):
        scop, m = module_for(corpus.COPY)
        p = hls.partition(m, scop.name)
        assert dict(p.transfers) == {"A": "in", "B": "out"}

    def test_read_coeff_and_accumulator(self):
        src = ("int N;\nfloat C[N];\nfloat S[N];\nfloat U[N];\n#pragma scop\n"
               "for (i = 0; i < N; i++) { S[i] = S[i] + C[i]; }\n#pragma endscop\n")
        scop = build_scop(fe.parse_program(src))[0]
        p = hls.partition(simplify_bounds(generate_loops(scop)), scop.name)
        assert dict(p.transfers) == {"C": "in", "S": "inout"}
        assert [a.name for a in p.arrays] == ["C", "S"]  # U untouched


class TestDirectives:
    def test_innermost_pipelined_symbolic_parallel_not_unrolled(self):
        scop, m = module_for(corpus.STENCIL2D, "wavefront")
        p = hls.insert_directives(hls.partition(m, scop.name))
        t1 = p.kernel[0]
        t2 = t1.body[0]
        inner = t2.body[0].body[0]
        assert not t1.pipeline and t1.unroll is None
        assert t2.parallel and t2.unroll is None  # symbolic trip count
        assert inner.pipeline and not inner.parallel

    def test_constant_parallel_loop_unrolled(self):
        p = hls.insert_directives(hls.partition(parse_ir(CONST_TRIP_LOOP)))
        assert p.kernel[0].unroll == 4
        assert p.kernel[0].pipeline  # also innermost

    def test_unroll_limit_respected(self):
        # printed upper bounds are exclusive: map result 4 -> trip count 4
        p = hls.partition(parse_ir(CONST_TRIP_LOOP))
        assert hls.insert_directives(p, hls.DirectivePolicy(unroll_limit=2)) \
            .kernel[0].unroll is None
        assert hls.insert_directives(p, hls.DirectivePolicy(unroll_limit=4)) \
            .kernel[0].unroll == 4

    def test_directives_do_not_change_results(self):
        scop, m = module_for(corpus.STENCIL2D, "wavefront")
        base = hls.partition(m, scop.name)
        with_dir = hls.insert_directives(base)
        init = corpus.init_arrays(fe.parse_program(corpus.STENCIL2D.source), {"N": 9})
        a = interp.run(base, {"N": 9}, init).arrays["A"].data
        b = interp.run(with_dir, {"N": 9}, init).arrays["A"].data
        assert a == b


class TestEmitC:
    def test_wavefront_kernel_shape(self):
        scop, m = module_for(corpus.STENCIL2D, "wavefront")
        text = hls.emit_c(hls.insert_directives(hls.partition(m, scop.name)))
        assert "void scop0_kernel(long long N, double A[N][N])" in text
        assert text.count("for (") >= 4
        assert "maxll(" in text and "minll(" in text and "ceild(" in text
        assert "lb" in text and "ub" in text  # hoisted bound locals
        assert "#pragma HLS pipeline II=1" in text

    def test_empty_kernel(self):
        scop = build_scop(fe.parse_program("int N;\n#pragma scop\n#pragma endscop\n"))[0]
        text = hls.emit_c(hls.insert_directives(hls.partition(
            generate_loops(scop), scop.name)))
        assert "scop0_kernel" in text

    def test_deterministic(self):
        scop, m = module_for(corpus.MATMUL, "tile")
        p = hls.insert_directives(hls.partition(m, scop.name))
        assert hls.emit_c(p) == hls.emit_c(p)


class TestPrintStd:
    def test_flags_and_guards(self):
        scop = build_scop(fe.parse_program(corpus.STENCIL2D.source))[0]
        scop = wavefront_parallelize(sub_bounding_box_tile(scop, TilingSpec((4, 4))))
        p = hls.insert_directives(hls.partition(simplify_bounds(generate_loops(scop)), scop.name))
        lines = hls.print_std(p).splitlines()
        assert "transfer inout A" in lines
        assert "  for parallel tj = maxll(0, ceild(t1 * 4 - N + 1, 4)) to " \
               "minll(floord(N - 1, 4), t1) {" in lines
        assert "      for pipeline j = tj * 4 to tj * 4 + 3 {" in lines
        assert "        if i * (-1) + N - 1 >= 0 && j * (-1) + N - 1 >= 0 && j - 1 >= 0 " \
               "&& i - 1 >= 0 {" in lines

    def test_unroll_flag(self):
        p = hls.insert_directives(hls.partition(parse_ir(CONST_TRIP_LOOP)))
        assert "for parallel pipeline unroll=4 i = 0 to 3 {" in hls.print_std(p).splitlines()


class TestIfElse:
    def test_round_trip_and_std_text(self):
        # both printers take their declaration lines from format_decls
        m = parse_ir(IF_ELSE)
        assert print_ir(m) == IF_ELSE
        decls = format_decls(m)
        assert ["  " + line for line in decls] == IF_ELSE.splitlines()[4:8]
        assert hls.print_std(hls.lower_to_standard(m)).splitlines() == decls + [
            "for i = 0 to N - 1 {", "  if i - 2 >= 0 {", "    call S1(i)", "  } else {",
            "    call S2(i)", "  }", "}"]

    def test_every_level_matches_reference(self):
        m = parse_ir(IF_ELSE)
        p = hls.insert_directives(hls.partition(m))
        for n in (1, 4, 7):
            a = [5 * k - 3 for k in range(n)]
            for rep in (m, hls.lower_to_standard(m), p):
                assert interp.run(rep, {"N": n}, {"A": a}).arrays["A"].data == \
                    if_else_reference(a), (type(rep).__name__, n)


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
class TestDifferentialExecution:
    def test_stencil_bit_exact(self, tmp_path):
        scop, m = module_for(corpus.STENCIL2D, "wavefront")
        p = hls.insert_directives(hls.partition(m, scop.name))
        n = 8
        prog = fe.parse_program(corpus.STENCIL2D.source)
        init = corpus.init_arrays(prog, {"N": n}, seed=21)
        assert corpus.c_mismatches(corpus.build_c(tmp_path, "k", p), p, {"N": n}, init) == []

    def test_floord_on_negatives(self, tmp_path):
        # a 1-D loop whose bound arithmetic goes negative at small N
        text = ("#map0 = affine_map<()[s0] -> ((s0 - 9) floordiv 4)>\n"
                "#map1 = affine_map<()[s0] -> (2)>\n"
                "module {\n  symbol N\n  array A : int64 [8]\n"
                "  stmt S1(i) { A[i + 2] = A[i + 2] + 1; }\n"
                "  affine.for i = max #map0()[N] to min #map1()[N] {\n"
                "    call @S1(i)\n  }\n}\n")
        m = parse_ir(text)
        p = hls.insert_directives(hls.partition(m))
        n = 3  # lb = floord(-6, 4) = -2
        init = {"A": [5] * 8}
        assert corpus.c_mismatches(corpus.build_c(tmp_path, "k", p), p, {"N": n}, init) == []
        # i = -2 executed: floord rounded toward -inf
        assert interp.run(p, {"N": n}, init).arrays["A"].data[0] == 6

    def test_unrolled_loop_bit_exact(self, tmp_path):
        p = hls.insert_directives(hls.partition(parse_ir(CONST_TRIP_LOOP)))
        assert "#pragma HLS unroll factor=4" in hls.emit_c(p)
        init = {"A": [0.25 * k for k in range(6)]}
        assert corpus.c_mismatches(corpus.build_c(tmp_path, "k", p), p, {"N": 6}, init) == []

    def test_if_else_matches_reference(self, tmp_path):
        p = hls.insert_directives(hls.partition(parse_ir(IF_ELSE)))
        assert "} else {" in hls.emit_c(p)
        exe = corpus.build_c(tmp_path, "k", p)
        for n in (1, 4, 7):
            a = [5 * k - 3 for k in range(n)]
            assert corpus.c_mismatches(exe, p, {"N": n}, {"A": a}) == [], n
            assert interp.run(p, {"N": n}, {"A": a}).arrays["A"].data == \
                if_else_reference(a), n

    def test_right_nested_float_sum_bit_exact(self, tmp_path):
        # float + does not associate: B + (C + D) is 0.0, (B + C) + D is 1.0
        src = ("int N;\nfloat A[N];\nfloat B[N];\nfloat C[N];\nfloat D[N];\n"
               "#pragma scop\nfor (i = 0; i < N; i++) { A[i] = B[i] + (C[i] + D[i]); }\n"
               "#pragma endscop\n")
        scop = build_scop(fe.parse_program(src))[0]
        p = hls.insert_directives(hls.partition(
            simplify_bounds(generate_loops(scop)), scop.name))
        init = {"B": [1e16], "C": [-1e16], "D": [1.0]}
        assert interp.run(p, {"N": 1}, init).arrays["A"].data == [0.0]
        assert corpus.c_mismatches(corpus.build_c(tmp_path, "k", p), p, {"N": 1}, init) == []
