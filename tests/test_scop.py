"""SCoP extraction and original-schedule tests."""

import pytest

from polyhls import frontend as fe, interp
from polyhls.affine import AffineMap, Const, DimRef, eval_expr, format_map
from polyhls.codegen import generate_loops
from polyhls.errors import CodegenError, NonAffineError, ParseError
from polyhls.scop import build_scop, dump_scop

import corpus


def _stencil_scop():
    return build_scop(fe.parse_program(corpus.STENCIL2D.source))[0]


class TestExtract:
    def test_stencil_model(self):
        scop = _stencil_scop()
        assert len(scop.statements) == 1
        s = scop.statements[0]
        assert s.name == "S1"
        assert s.dim_names == ("i", "j")
        for n in (2, 4, 7):
            assert s.domain.points((n,)) == {(i, j) for i in range(1, n)
                                             for j in range(1, n)}
        assert [a for a, _ in s.writes] == ["A"]
        assert s.writes[0][1].eval((3, 4), (9,)) == (3, 4)
        read_cells = sorted(m.eval((3, 4), (9,)) for _, m in s.reads)
        assert read_cells == [(2, 4), (3, 3)]

    def test_empty_scop(self):
        p = fe.parse_program("int N;\n#pragma scop\n#pragma endscop\n")
        scops = build_scop(p)
        assert len(scops) == 1 and scops[0].statements == ()

    def test_non_affine_subscript_rejected(self):
        src = ("int N;\nint A[N];\n#pragma scop\n"
               "for (i = 0; i < N; i++) { A[i*i] = 0; }\n#pragma endscop\n")
        with pytest.raises(NonAffineError):
            build_scop(fe.parse_program(src))

    def test_statements_outside_scop_ignored(self):
        src = ("int N;\nint A[N];\n"
               "for (i = 0; i < N; i++) { A[i] = 0; }\n"
               "#pragma scop\nfor (i = 0; i < N; i++) { A[i] = 1; }\n#pragma endscop\n")
        scops = build_scop(fe.parse_program(src))
        assert len(scops) == 1
        assert len(scops[0].statements) == 1

    def test_guard_becomes_domain_constraint(self):
        scop = build_scop(fe.parse_program(corpus.GUARDED.source))[0]
        s = scop.statements[0]
        assert s.domain.points((6,)) == {(i,) for i in range(2, 6)}

    def test_two_scops(self):
        src = ("int N;\nint A[N];\n"
               "#pragma scop\nfor (i = 0; i < N; i++) { A[i] = 0; }\n#pragma endscop\n"
               "#pragma scop\nfor (i = 0; i < N; i++) { A[i] = 1; }\n#pragma endscop\n")
        scops = build_scop(fe.parse_program(src))
        assert [s.name for s in scops] == ["scop0", "scop1"]


def _if_else_program(op):
    return fe.parse_program(
        "int N;\nfloat A[N][N];\nfloat B[N][N];\n#pragma scop\n"
        "for (i = 0; i < N; i++) {\n  for (j = 0; j < N; j++) {\n"
        "    if (i %s j + 1) {\n      A[i][j] = A[i][j] + B[i][j];\n"
        "    } else {\n      B[i][j] = B[i][j] * 2.0 + A[i][j];\n    }\n"
        "  }\n}\n#pragma endscop\n" % op)


class TestIfElse:
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_branches_match_source(self, op):
        # the then-branch takes the comparison, the else-branch its negation
        prog = _if_else_program(op)
        scop = build_scop(prog)[0]
        for n in (1, 2, 5, 8):
            init = corpus.init_arrays(prog, {"N": n}, seed=n)
            want = interp.run(prog, {"N": n}, init).arrays
            got = interp.run(scop, {"N": n}, init).arrays
            assert {k: a.data for k, a in got.items()} == {k: a.data for k, a in want.items()}
        # the two statements' domains differ at a shared loop level
        with pytest.raises(CodegenError):
            generate_loops(scop)

    def test_else_of_equality_rejected(self):
        with pytest.raises(NonAffineError, match="else-branch of an equality test"):
            build_scop(_if_else_program("=="))


class TestOriginalSchedule:
    def test_single_statement_2d1(self):
        scop = _stencil_scop()
        s = scop.statements[0]
        assert s.schedule == AffineMap(2, 1, (Const(0), DimRef(0), Const(0),
                                              DimRef(1), Const(0)))

    def test_two_sequential_statements(self):
        scop = build_scop(fe.parse_program(corpus.TWO_STMT.source))[0]
        a, b = scop.statements
        assert a.schedule.results == (Const(0), DimRef(0), Const(0))
        assert b.schedule.results == (Const(0), DimRef(0), Const(1))

    def test_interleaving_and_padding(self):
        src = ("int N;\nint A[N];\nint B[N];\n#pragma scop\n"
               "for (i = 0; i < N; i++) {\n"
               "  for (j = 0; j < N; j++) { A[i] = A[i] + 1; }\n"
               "  B[i] = A[i];\n"
               "}\n#pragma endscop\n")
        scop = build_scop(fe.parse_program(src))[0]
        s1, s2 = scop.statements
        assert s1.schedule.results == (Const(0), DimRef(0), Const(0),
                                       DimRef(1), Const(0))
        # padded to the uniform depth with trailing zeros
        assert s2.schedule.results == (Const(0), DimRef(0), Const(1),
                                       Const(0), Const(0))

    def test_schedule_order_matches_source(self):
        # schedule-lexicographic order == textual execution order
        scop = _stencil_scop()
        s = scop.statements[0]
        n = 5
        pts = sorted(s.domain.points((n,)),
                     key=lambda p: tuple(eval_expr(r, p, (n,))
                                         for r in s.schedule.results))
        assert pts == [(i, j) for i in range(1, n) for j in range(1, n)]


class TestDump:
    def test_dump_mentions_domain_and_accesses(self):
        text = dump_scop(_stencil_scop())
        assert "stmt S1" in text
        assert "domain:" in text and "write A" in text and "read A" in text

    def test_context_defaults_to_symbols_positive(self):
        scop = _stencil_scop()
        assert not scop.context.contains((), (0,))
        assert scop.context.contains((), (1,))
