"""Frontend lexer/parser/printer tests."""

import random

import pytest

from polyhls import frontend as fe, hls
from polyhls.errors import ParseError, UnsupportedConstructError
from polyhls.ir import Call, For, If
from polyhls.scop import build_scop

import corpus

STENCIL_SRC = corpus.STENCIL2D.source


class TestParse:
    def test_stencil_shape(self):
        p = fe.parse_program(STENCIL_SRC)
        assert p.symbols == ("N",)
        assert [a.name for a in p.arrays] == ["A"]
        assert p.arrays[0].elem == fe.FLOAT64
        assert p.arrays[0].extents == ("N", "N")
        body = [s for s in p.body if not isinstance(s, (fe.ScopBegin, fe.ScopEnd))]
        assert len(body) == 1
        outer = body[0]
        assert isinstance(outer, fe.For) and outer.var == "i"
        inner = outer.body[0]
        assert isinstance(inner, fe.For) and inner.var == "j"
        assign = inner.body[0]
        assert isinstance(assign, fe.Assign)
        assert assign.label == "S1"
        assert assign.ref == fe.ArrayRef("A", (fe.Name("i"), fe.Name("j")))

    def test_empty_scop(self):
        p = fe.parse_program("int N;\n#pragma scop\n#pragma endscop\n")
        kinds = [type(s) for s in p.body]
        assert kinds == [fe.ScopBegin, fe.ScopEnd]

    def test_le_bound_normalized_to_exclusive(self):
        p = fe.parse_program(
            "int N;\nint A[N];\n#pragma scop\n"
            "for (i = 0; i <= N - 1; i++) { A[i] = 1; }\n#pragma endscop\n")
        loop = p.body[1]
        # i <= N-1 becomes i < (N-1)+1
        assert loop.upper == fe.BinOp("+", fe.BinOp("-", fe.Name("N"), fe.IntLit(1)),
                                      fe.IntLit(1))

    def test_positions_reported(self):
        with pytest.raises(ParseError) as err:
            fe.parse_program("int N;\nfloat A[N];\nfor (i = 0; i < N; i++) {\n  A[i] = ;\n}\n")
        assert err.value.line == 4

    def test_non_unit_step_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            fe.parse_program("int N;\nint A[N];\nfor (i = 0; i < N; i += 2) { A[i] = 0; }\n")

    def test_while_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            fe.parse_program("int N;\nwhile (1) { }\n")

    def test_unpaired_scop_rejected(self):
        with pytest.raises(ParseError):
            fe.parse_program("int N;\n#pragma scop\n")

    @pytest.mark.parametrize("literal", ["1.2.3", "1..5", "1e999", "1e"])
    def test_malformed_float_literal_is_parse_error(self, literal):
        src = "int N;\nfloat A[N];\nfor (i = 0; i < N; i++) { A[i] = %s; }\n" % literal
        with pytest.raises(ParseError) as err:
            fe.parse_program(src)
        assert err.value.line == 3

    def test_float_literal_forms(self):
        p = fe.parse_program("int N;\nfloat A[N];\nfor (i = 0; i < N; i++) "
                             "{ A[i] = 1. + .5 + 1e-05 + 2.5E+17 + 3e2; }\n")
        lits = [e for e in fe.subexprs(p.body[0].body[0].rhs) if isinstance(e, fe.FloatLit)]
        assert lits == [fe.FloatLit(v) for v in (1.0, 0.5, 1e-05, 2.5e17, 300.0)]

    def test_subexprs_parents_first_left_to_right(self):
        e = fe.BinOp("*", fe.ArrayRef("A", (fe.Name("i"),)),
                     fe.Call("min", (fe.IntLit(2), fe.Name("N"))))
        assert list(fe.subexprs(e)) == [e, e.lhs, fe.Name("i"), e.rhs, fe.IntLit(2),
                                        fe.Name("N")]

    @pytest.mark.parametrize("src", [
        "int for;\n",
        "int N;\nfloat A[int];\n",
        "int N;\nint A[N];\nfor (if = 0; if < N; if++) { A[0] = 0; }\n",
        "int N;\nint A[N];\nfor (i = 0; i < N; i++) { A[i] = return; }\n",
        "int N;\nint A[N];\nfor (i = 0; i < N; i++) { else: A[i] = 0; }\n",
        "int N;\nint pragma[N];\n",
    ])
    def test_keywords_rejected_as_names(self, src):
        with pytest.raises(ParseError):
            fe.parse_program(src)

    def test_scop_pragma_must_be_top_level(self):
        src = ("int N;\nint A[N];\nfor (i = 0; i < N; i++) {\n"
               "#pragma scop\nA[i] = 0;\n#pragma endscop\n}\n")
        with pytest.raises(ParseError):
            fe.parse_program(src)

    def test_loop_var_shadowing_enclosing_loop_rejected(self):
        # the inner `i` would be modelled with the outer loop's dim
        src = ("int N;\nfloat A[N];\n#pragma scop\nfor (i = 0; i < N; i++)\n"
               "  for (i = 0; i < 2; i++)\n    A[i] = A[i] + 1.0;\n#pragma endscop\n")
        with pytest.raises(ParseError, match="loop variable 'i' shadows an enclosing loop") as err:
            fe.parse_program(src)
        assert (err.value.line, err.value.col) == (5, 3)

    @pytest.mark.parametrize("decls, what", [
        ("int B;\nfloat A[4];\n", "a symbol"),
        ("int N;\nfloat B[N];\nfloat A[N];\n", "an array"),
    ], ids=["symbol", "array"])
    def test_loop_var_shadowing_declaration_rejected(self, decls, what):
        # codegen would rename the loop, and `.air` rejects the same name
        src = decls + "#pragma scop\nfor (B = 0; B < 4; B++)\n  A[B] = 1.0;\n#pragma endscop\n"
        with pytest.raises(ParseError, match="loop variable 'B' shadows %s" % what) as err:
            fe.parse_program(src)
        assert (err.value.line, err.value.col) == (len(decls.splitlines()) + 2, 1)

    @pytest.mark.parametrize("decls, name, pos", [
        ("int N;\nint N;\n", "N", (2, 5)),
        ("int N;\nfloat N[4];\n", "N", (2, 7)),
        ("float A[4];\nint A[2];\n", "A", (2, 5)),
    ], ids=["symbol-symbol", "symbol-array", "array-array"])
    def test_duplicate_declaration_rejected(self, decls, name, pos):
        # cc rejects each as a redefinition or conflicting types
        with pytest.raises(ParseError, match="duplicate declaration of '%s'" % name) as err:
            fe.parse_program(decls + "#pragma scop\n#pragma endscop\n")
        assert (err.value.line, err.value.col) == pos


_SCOP = "int N;\nfloat A[N];\n#pragma scop\n%s\n#pragma endscop\n"
_LOOP = _SCOP % "for (i = 0; i < N; i++)\n  %s"
_REJECTS = [  # (source, error class, message, (line, col) or None)
    ("float N;\n", UnsupportedConstructError, "size parameters must be int", (1, 7)),
    ("int N;\nfloat A[M];\n", ParseError, "array A uses undeclared size parameter M", None),
    (_SCOP % "{ A[0] = 1.0; }", ParseError, "blocks are only allowed as loop/if bodies", (4, 1)),
    ("int N;\n#prag scop\n", ParseError, "expected 'pragma'", (2, 2)),
    ("int N;\n#pragma omp\n", UnsupportedConstructError, "unknown pragma 'omp'", (2, 9)),
    (_SCOP % "for (i = 0; j < N; i++) A[i] = 1.0;", ParseError,
     "loop condition must test 'i'", (4, 13)),
    (_SCOP % "for (i = 0; i == N; i++) A[i] = 1.0;", UnsupportedConstructError,
     "loop condition must use < or <=", (4, 15)),
    (_SCOP % "for (i = 0; i < N; j++) A[i] = 1.0;", ParseError,
     "loop increment must update 'i'", (4, 20)),
    (_SCOP % "for (i = 0; i < N; i--) A[i] = 1.0;", UnsupportedConstructError,
     "only incrementing unit-step loops are supported", (4, 21)),
    (_LOOP % "if (i = 0) A[i] = 1.0;", UnsupportedConstructError,
     "unsupported comparison '='", (5, 9)),
    (_LOOP % "if (i) A[i] = 1.0;", ParseError, "expected comparison, found ')'", (5, 8)),
    (_LOOP % "x = 1.0;", UnsupportedConstructError, "scalar assignment is not supported", (5, 3)),
    (_LOOP % "A[i] += 1.0;", UnsupportedConstructError,
     "compound assignment '+=' is not supported", (5, 8)),
    (_LOOP % "A[i] == 1.0;", ParseError, "expected '='", (5, 8)),
    (_LOOP % "A[i] = A[i] / 2.0;", UnsupportedConstructError,
     "division is not supported in the input language", (5, 15)),
    ("int N;\n#pragma scop\n#pragma scop\n#pragma endscop\n", ParseError,
     "nested #pragma scop", (3, 1)),
    ("int N;\n#pragma endscop\n", ParseError, "unmatched #pragma endscop", (2, 1)),
    (_SCOP % "S1: A[0] = 1.0;\nS1: A[1] = 2.0;", ParseError,
     "duplicate statement name in SCoP scop0", None),
]


@pytest.mark.parametrize("src, cls, message, pos", _REJECTS)
def test_pc_rejects(src, cls, message, pos):
    # the grammar that `.pc` shares with `.air` text keeps each message and
    # position; the duplicate label is the SCoP builder's
    with pytest.raises(cls) as err:
        build_scop(fe.parse_program(src))
    assert type(err.value) is cls
    assert str(err.value) == ("%d:%d: " % pos if pos else "") + message
    assert (err.value.line, err.value.col) == (pos or (None, None))


class TestTrees:
    def test_walk_yields_parents_first_with_enclosing_path(self):
        p = fe.parse_program("int N;\nfloat A[N];\nfor (i = 0; i < N; i++)\n"
                             "  if (i > 0) A[i] = 1.0; else A[i] = 2.0;\n")
        loop = p.body[0]
        guard = loop.body[0]
        assert list(fe.walk(p.body)) == [(loop, ()), (guard, (loop,)),
                                         (guard.then[0], (loop, guard)),
                                         (guard.els[0], (loop, guard))]

    def test_walk_paths_reach_ir_calls(self):
        call = Call("S1", ("i",))
        guard = If(None, (call,))
        loop = For("i", None, None, False, (guard,))
        assert list(fe.walk((loop,)))[-1] == (call, (loop, guard))

    def test_format_nest_indents_and_closes_blocks(self):
        call = Call("S1", ("i",))
        tree = (For("i", None, None, False, (If(None, (call,), (call,)), If(None, (call,)))),)
        head = {For: "for {", If: "if {", Call: "call"}
        lines = fe.format_nest(tree, lambda n, pad: [pad + head[type(n)]], 1)
        assert lines == ["  for {",
                         "    if {", "      call", "    } else {", "      call", "    }",
                         "    if {", "      call", "    }",
                         "  }"]

    def test_format_nest_head_may_give_several_lines(self):
        tree = (For("i", None, None, False, ()),)
        lines = fe.format_nest(tree, lambda n, pad: [pad + "pre", pad + "for {", "#pragma"])
        assert lines == ["pre", "for {", "#pragma", "}"]

    def test_rebuild_passes_state_to_each_block(self):
        # the state a node gives reaches every node of its blocks
        call = Call("S1", ("i",))
        tree = (For("i", None, None, False, (If(None, (call,), (call,)),)), call)
        seen = []

        def fn(node, depth):
            seen.append((type(node).__name__, depth))
            return node, depth + 1

        assert fe.rebuild(tree, fn, 0) == tree
        assert seen == [("For", 0), ("If", 1), ("Call", 2), ("Call", 2), ("Call", 0)]

    def test_rebuild_may_change_a_node_type(self):
        # a For becomes a CFor; the blocks of the new form are rebuilt
        call = Call("S1", ("i",))
        tree = (For("i", None, None, True, (For("j", None, None, False, (call,)),)),)

        def fn(node, state):
            if isinstance(node, For):
                return hls.CFor(node.var, None, None, node.parallel, node.body), state
            return node, state

        inner = hls.CFor("j", None, None, False, (call,))
        assert fe.rebuild(tree, fn) == (hls.CFor("i", None, None, True, (inner,)),)

    def test_rebuild_visits_a_parent_before_its_children(self):
        # so an error in a parent is raised before one in a child
        tree = (For("i", None, None, False, (For("j", None, None, False, ()),)),)

        def fn(node, state):
            raise ValueError(node.var)

        with pytest.raises(ValueError, match="^i$"):
            fe.rebuild(tree, fn)


class TestPrintRoundTrip:
    def test_stencil_fixed_point(self):
        p = fe.parse_program(STENCIL_SRC)
        text = fe.print_program(p)
        assert fe.parse_program(text) == p
        assert fe.print_program(fe.parse_program(text)) == text

    def test_corpus_round_trips(self):
        for entry in corpus.ALL:
            p = fe.parse_program(entry.source)
            assert fe.parse_program(fe.print_program(p)) == p, entry.name

    def test_empty_program(self):
        p = fe.parse_program("int N;\n")
        assert fe.parse_program(fe.print_program(p)) == p

    @pytest.mark.parametrize("text, tree", [
        ("-A[i]", fe.BinOp("*", fe.IntLit(-1), fe.ArrayRef("A", (fe.Name("i"),)))),
        ("-0.0", fe.FloatLit(-0.0)),
        ("--2", fe.IntLit(2)),
        ("-i * 3", fe.BinOp("*", fe.BinOp("*", fe.IntLit(-1), fe.Name("i")), fe.IntLit(3))),
        ("3 * -(i + 1)", fe.BinOp("*", fe.IntLit(3), fe.BinOp(
            "*", fe.IntLit(-1), fe.BinOp("+", fe.Name("i"), fe.IntLit(1))))),
    ])
    def test_unary_minus_round_trips(self, text, tree):
        # -x is -1 * x (C's sign of zero); a negated literal is a negative literal
        src = "int N;\nfloat A[N];\nfor (i = 0; i < N; i++) {\n  A[i] = %s;\n}\n" % text
        p = fe.parse_program(src)
        # by repr, since FloatLit(-0.0) == FloatLit(0.0)
        assert repr(p.body[0].body[0].rhs) == repr(tree)
        assert repr(fe.parse_program(fe.print_program(p))) == repr(p)


def _random_program(rng):
    """Small random program generator for the round-trip property."""
    lines = ["int N;", "float A[N];", "int B[N][N];"]
    lines.append("#pragma scop")
    depth = 0
    vars_ = []
    for _ in range(rng.randrange(1, 4)):
        v = "ijk"[depth]
        lo = rng.randrange(0, 3)
        lines.append("for (%s = %d; %s < N; %s++) {" % (v, lo, v, v))
        vars_.append(v)
        depth += 1
    v = rng.choice(vars_)
    rhs = rng.choice(["A[%s] + 1.5" % v, "A[%s] * 2.0 - A[0]" % v, "0.0",
                      "A[%s] * 1e-05 + 2.5E+17" % v])
    lines.append("A[%s] = %s;" % (v, rhs))
    if rng.random() < 0.5:
        a, b = rng.sample(vars_, 1) * 2 if len(vars_) == 1 else rng.sample(vars_, 2)
        lines.append("B[%s][%s] = B[%s][%s] + %d;" % (a, b, a, b, rng.randrange(1, 9)))
    lines.extend("}" * depth)
    lines.append("#pragma endscop")
    return "\n".join(lines) + "\n"


def test_random_programs_round_trip():
    rng = random.Random(1234)
    for _ in range(100):
        src = _random_program(rng)
        p = fe.parse_program(src)
        assert fe.parse_program(fe.print_program(p)) == p
