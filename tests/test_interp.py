"""Interpreter (equivalence oracle) tests."""

import itertools
import random
from dataclasses import replace

import pytest

from polyhls import frontend as fe, hls, interp
from polyhls.codegen import generate_loops, simplify_bounds
from polyhls.errors import InterpError
from polyhls.ir import parse_ir
from polyhls.lexer import Cursor
from polyhls.scop import build_scop
from polyhls.transforms import TilingSpec, tile, wavefront_parallelize

import corpus


def stencil_prog():
    return fe.parse_program(corpus.STENCIL2D.source)


class TestRunSource:
    def test_one_point_domain(self):
        prog = stencil_prog()
        init = {"A": [1.0, 2.0, 3.0, 0.0]}
        out = interp.run(prog, {"N": 2}, init).arrays["A"].data
        assert out == [1.0, 2.0, 3.0, 5.0]  # A[1][1] = A[0][1] + A[1][0]

    def test_recurrence_at_n4(self):
        prog = stencil_prog()
        n = 4
        a = [[float(i + j) if i == 0 or j == 0 else 0.0 for j in range(n)]
             for i in range(n)]
        init = {"A": [v for row in a for v in row]}
        got = interp.run(prog, {"N": n}, init).arrays["A"].data
        for i in range(1, n):
            for j in range(1, n):
                a[i][j] = a[i - 1][j] + a[i][j - 1]
        assert got == [v for row in a for v in row]

    def test_int_array_stays_int(self):
        prog = fe.parse_program(corpus.PASCAL.source)
        out = interp.run(prog, {"N": 3}).arrays["H"].data
        assert all(isinstance(v, int) for v in out)

    def test_out_of_bounds_is_hard_error(self):
        src = ("int N;\nint A[N];\n#pragma scop\n"
               "for (i = 0; i < N; i++) { A[i+1] = 0; }\n#pragma endscop\n")
        with pytest.raises(InterpError, match="out of bounds"):
            interp.run(fe.parse_program(src), {"N": 3})

    def test_error_names_instance_as_trace_does(self):
        src = ("int N;\nint A[N];\n#pragma scop\n"
               "for (i = 0; i < N; i++) { A[i+N] = 0; }\n#pragma endscop\n")
        prog = fe.parse_program(src)
        for rep in (prog, build_scop(prog)[0]):
            with pytest.raises(InterpError) as e:
                interp.run(rep, {"N": 3})
            assert str(e.value) == "array A: index [3] out of bounds [3] at S1(0)"

    def test_unbound_symbol(self):
        with pytest.raises(InterpError):
            interp.run(stencil_prog(), {})
        # constant extents: only the Scop's loop bound reads N
        src = ("int N;\nfloat A[10];\n#pragma scop\n"
               "for (i = 0; i < N; i++) { A[i] = A[i] + 1.0; }\n#pragma endscop\n")
        with pytest.raises(InterpError):
            interp.run(build_scop(fe.parse_program(src))[0], {})

    @pytest.mark.parametrize("op", ["call @S1(k)",
                                    "affine.for j = max #map2(k)[N] to min #map1()[N] {\n}"],
                             ids=["call-arg", "map-operand"])
    def test_unbound_operand(self, op):
        # an operand that no enclosing loop binds, in the module and in its
        # lowered standard level
        text = ("#map0 = affine_map<()[s0] -> (0)>\n#map1 = affine_map<()[s0] -> (s0)>\n"
                "#map2 = affine_map<(d0)[s0] -> (d0)>\n"
                "module {\n  symbol N\n  array A : float64 [N]\n"
                "  stmt S1(i) { A[i] = A[i] + 1.0; }\n"
                "  affine.for i = max #map0()[N] to min #map1()[N] {\n%s\n}\n}\n" % op)
        module = parse_ir(text)
        for rep in (module, hls.lower_to_standard(module)):
            with pytest.raises(InterpError, match="'k'"):
                interp.run(rep, {"N": 8})

    @pytest.mark.parametrize("lower", [False, True], ids=["air", "std"])
    def test_call_arity_checked(self, lower):
        text = ("#map0 = affine_map<()[s0] -> (0)>\n#map1 = affine_map<()[s0] -> (s0)>\n"
                "module {\n  symbol N\n  array A : float64 [N]\n"
                "  stmt S1(i) { A[i] = A[i] + 1.0; }\n"
                "  affine.for i = max #map0()[N] to min #map1()[N] {\n  call @S1(i)\n}\n}\n")
        rep = parse_ir(text)
        if lower:
            rep = hls.lower_to_standard(rep)
        loop = rep.body[0]
        call = loop.body[0]
        bad = replace(rep, body=(replace(loop, body=(replace(call, args=call.args + ("N",)),)),))
        with pytest.raises(InterpError, match="S1: expected 1 args, got 2"):
            interp.run(bad, {"N": 3})

    def test_determinism(self):
        prog = fe.parse_program(corpus.MATMUL.source)
        init = corpus.init_arrays(prog, {"N": 6}, seed=11)
        a = interp.run(prog, {"N": 6}, init).arrays["C"].data
        b = interp.run(prog, {"N": 6}, init).arrays["C"].data
        assert a == b


def _random_region(rng):
    """A `.pc` region whose outer loop body holds sibling loops, an
    `if`/`else` followed by a statement or a loop, and an `if`-wrapped loop
    followed by a loop, in random order, two loops deep at most and with
    `if`s nested in `if` blocks: the statement positions that one counter
    per loop body, shared by its `if` blocks, must get right."""
    fresh = ("v%d" % k for k in itertools.count())
    stmt = "A[0] = A[0] + 1.0;\n"

    def cond(outer, negatable):
        op = rng.choice(("<", "<=", ">", ">=") + (() if negatable else ("==",)))
        return "if (%s %s %s)" % (rng.choice(outer), op, rng.choice(("1", "2", "N - 2")))

    def loop(outer, depth):
        v = next(fresh)
        return "for (%s = %s; %s < N; %s++) {\n%s}\n" % (
            v, rng.choice(["0"] + outer), v, v, body(outer + [v], depth - 1))

    def sibling_loops(outer, depth):
        return loop(outer, depth) + loop(outer, depth)

    def if_else(outer, depth):
        return "%s {\n%s} else {\n%s}\n%s" % (
            cond(outer, True), body(outer, depth), body(outer, depth),
            loop(outer, depth) if depth and rng.random() < 0.5 else stmt)

    def if_loop(outer, depth):
        return cond(outer, False) + " " + loop(outer, depth) + loop(outer, depth)

    shapes = (sibling_loops, if_else, if_loop)

    def body(outer, depth):
        if depth and rng.random() < 0.4:
            return rng.choice(shapes)(outer, depth)
        return stmt * rng.randint(1, 2)

    v = next(fresh)
    outer = [shape([v], 1) for shape in rng.sample(shapes, 3)]
    return "int N;\nfloat A[N];\n#pragma scop\nfor (%s = 0; %s < N; %s++) {\n%s}\n" \
        "#pragma endscop\n" % (v, v, v, "".join(outer))


class TestTrace:
    def test_source_order_at_n3(self):
        assert interp.run(stencil_prog(), {"N": 3}, trace=True).trace == \
            [("S1", (1, 1)), ("S1", (1, 2)), ("S1", (2, 1)), ("S1", (2, 2))]

    def test_empty_scop(self):
        prog = fe.parse_program("int N;\n#pragma scop\n#pragma endscop\n")
        assert interp.run(prog, {"N": 3}, trace=True).trace == []

    def test_tiled_trace_same_multiset(self):
        prog = stencil_prog()
        orig = interp.run(prog, {"N": 13}, trace=True).trace
        scop = tile(build_scop(prog)[0], TilingSpec((4, 4)))
        tiled = interp.run(scop, {"N": 13}, trace=True).trace
        assert sorted(tiled) == sorted(orig)
        assert tiled != orig  # the order genuinely changed

    def test_scop_trace_equals_source_trace(self):
        # TWO_NEST's second nest runs j outside i: S2's coordinates are
        # (j, i), whatever order the first nest used; GUARDED_NEST's first
        # nest is under an `if`; the random regions order statements across
        # sibling loops and `if` blocks
        rng = random.Random(25)
        for source in [entry.source
                       for entry in corpus.ALL + (corpus.TWO_NEST, corpus.GUARDED_NEST)] \
                + [_random_region(rng) for _ in range(100)]:
            prog = fe.parse_program(source)
            scop = build_scop(prog)[0]
            for n in range(2, 7):
                syms = {s: n for s in scop.symbols}
                assert interp.run(scop, syms, trace=True).trace == \
                    interp.run(prog, syms, trace=True).trace, source


class TestShuffle:
    def test_seeded_shuffle_deterministic(self):
        prog = stencil_prog()
        scop = wavefront_parallelize(tile(build_scop(prog)[0], TilingSpec((4, 4))))
        m = simplify_bounds(generate_loops(scop))
        t1 = interp.run(m, {"N": 13}, trace=True).trace
        a = interp.run(m, {"N": 13}, corpus.init_arrays(prog, {"N": 13}),
                       trace=True, shuffle_seed=42).trace
        b = interp.run(m, {"N": 13}, corpus.init_arrays(prog, {"N": 13}),
                       trace=True, shuffle_seed=42).trace
        assert a == b
        assert a != t1  # shuffling the parallel tile loop reorders instances

    def test_loop_nest_levels_shuffle_alike(self):
        # one walker orders the parallel loops of all three loop-nest levels
        prog = stencil_prog()
        scop = wavefront_parallelize(tile(build_scop(prog)[0], TilingSpec((4, 4))))
        m = simplify_bounds(generate_loops(scop))
        hp = hls.insert_directives(hls.partition(m, scop.name))
        traces = [interp.run(rep, {"N": 13}, trace=True, shuffle_seed=3).trace
                  for rep in (m, hls.lower_to_standard(m), hp)]
        assert traces[0] != interp.run(m, {"N": 13}, trace=True).trace
        assert traces[1] == traces[0] and traces[2] == traces[0]

    def test_parallel_loop_shuffle_preserves_results(self):
        prog = stencil_prog()
        scop = wavefront_parallelize(tile(build_scop(prog)[0], TilingSpec((4, 4))))
        m = simplify_bounds(generate_loops(scop))
        init = corpus.init_arrays(prog, {"N": 13}, seed=5)
        ref = interp.run(m, {"N": 13}, init).arrays["A"].data
        for seed in range(6):
            got = interp.run(m, {"N": 13}, init, shuffle_seed=seed).arrays["A"].data
            assert got == ref


class TestMachine:
    def test_init_size_mismatch(self):
        with pytest.raises(InterpError, match="init"):
            interp.run(stencil_prog(), {"N": 3}, {"A": [0.0] * 4})

    def test_missing_arrays_zero_filled(self):
        prog = fe.parse_program(corpus.COPY.source)
        state = interp.run(prog, {"N": 4})
        assert state.arrays["B"].data == [0.0] * 4

    def test_storing_float_into_int_array_rejected(self):
        src = ("int N;\nint A[N];\n#pragma scop\n"
               "for (i = 0; i < N; i++) { A[i] = 1.5; }\n#pragma endscop\n")
        with pytest.raises(InterpError):
            interp.run(fe.parse_program(src), {"N": 2})


def _assign(text):
    return fe.parse_assignment_at(Cursor(text))


def _into_h(rhs):
    """``H[i] = rhs`` for an `rhs` that `.pc` cannot spell."""
    return fe.Assign("", fe.ArrayRef("H", (fe.Name("i"),)), rhs)


def _call(fn, a, b):
    return _into_h(fe.Call(fn, tuple(_assign("A[0] = " + x).rhs for x in (a, b))))


# (statement, its params): each runs with its params bound to k (and k + 1),
# k = 0..3, on N = 4 and the arrays of _DIFF_ARRAYS, until its first error
_DIFF_CASES = [
    (_assign("A[B[i]] = A[i] + F[i][i] * 0.5"), ("i",)),  # indirect through an int array
    (_assign("A[F[i][0]] = 1.0"), ("i",)),  # through a float array: non-integer subscript
    (_assign("A[G[i]] = 1.0"), ("i",)),  # an int array initialised with a float
    (_assign("H[i] = A[i] + 1"), ("i",)),  # a float into an int array
    (_assign("H[i] = H[i] * 3 - N"), ("i",)),
    (_assign("A[i + 4] = A[3 - i] + A[i + 5]"), ("i",)),  # reads checked before the write
    (_assign("A[i] = W[i] * 0.5 + A[i + 9]"), ("i",)),  # an overflow before a later read
    (_assign("A[i + 9] = W[i] * 0.5"), ("i",)),  # ...and before the write's check
    (_assign("A[i][i] = 1.0"), ("i",)),  # rank mismatch
    (_assign("Q[i] = 1.0"), ("i",)),  # unknown target array
    (_assign("A[i] = A[i] + Q[i + 9]"), ("i",)),  # unknown array, read after its subscript
    (_assign("A[i] = A[i] + M"), ("i",)),  # unbound name
    (_assign("A[M] = A[i + 9]"), ("i",)),  # ...in the target, evaluated first
    (_assign("F[i][j] = F[j][i] * -1 + N"), ("i", "j")),
    (_assign("F[N][i] = 1.0"), ("N", "i")),  # a param hides the symbol of its name
    (_assign("A[i] = 0.0 * -1.0"), ("i",)),  # -0.0
    (_assign("A[i] = A[i] * -1"), ("i",)),  # -0.0 once A[i] is 0.0
    (_assign("A[i] = H[i] * 0"), ("i",)),  # an int 0 stored as 0.0
    (_call("floord", "i - 5", "2"), ("i",)),
    (_call("ceild", "-7", "i + 2"), ("i",)),
    (_call("floord", "7", "-2"), ("i",)),
    (_call("ceild", "i - 7", "-3"), ("i",)),
    (_call("min", "H[i]", "i - 2"), ("i",)),
    (_call("max", "A[i]", "i"), ("i",)),  # a float result into an int array
    (_call("floord", "i", "i"), ("i",)),  # ZeroDivisionError at i = 0
    (_into_h(fe.BinOp("/", fe.IntLit(3), fe.Name("i"))), ("i",)),  # `fe.evaluate` reads `*`
]
_DIFF_ARRAYS = (fe.ArrayDecl("A", fe.FLOAT64, (4,)), fe.ArrayDecl("F", fe.FLOAT64, (4, 4)),
                fe.ArrayDecl("B", fe.INT64, (4,)), fe.ArrayDecl("G", fe.INT64, (4,)),
                fe.ArrayDecl("H", fe.INT64, ("N",)), fe.ArrayDecl("W", fe.INT64, (4,)))
_DIFF_INIT = {"A": [0.5, -1.0, 2.0, 0.0], "F": [k / 4.0 for k in range(16)],
              "B": [2, 0, 3, 1], "G": [1, 2.0, 3, 0], "H": [3, -4, 5, 0],
              "W": [10 ** 400, 0, 0, 0]}


def _outcome(run, machine, vals):
    """(exception class and message or None, trace, arrays by `repr`)."""
    try:
        run(*vals)
        err = None
    except Exception as e:  # noqa: BLE001 -- any exception must match
        err = (type(e).__name__, str(e))
    return err, list(machine.trace), {n: repr(a.data) for n, a in machine.arrays.items()}


class TestCompiledStatement:
    @pytest.mark.parametrize("assign, params", _DIFF_CASES,
                             ids=[str(k) for k in range(len(_DIFF_CASES))])
    def test_matches_reference_evaluator(self, assign, params):
        ref = interp.make_machine({"N": 4}, _DIFF_ARRAYS, _DIFF_INIT, trace=True)
        got = interp.make_machine({"N": 4}, _DIFF_ARRAYS, _DIFF_INIT, trace=True)

        def reference(*vals):
            # the tree walker's instance: `fe.evaluate` over one env
            ref.trace.append(("S1", vals))
            env = dict(ref.symbols, **dict(zip(params, vals)))
            try:
                arr = ref.array(assign.ref.array)
                subs = [fe.evaluate(s, env, ref.load) for s in assign.ref.subs]
                arr.store(subs, fe.evaluate(assign.rhs, env, ref.load))
            except InterpError as e:
                raise InterpError("%s at %s" % (e, interp.format_instance("S1", vals))) from None

        compiled = interp._compile_stmt(assign, params, got, "S1", range(len(params)))
        for i in range(4):
            vals = (i, i + 1)[:len(params)]
            want = _outcome(reference, ref, vals)
            assert _outcome(compiled, got, vals) == want
            if want[0]:
                break


class TestHlsSemantics:
    def test_host_kernel_matches_whole_program(self):
        for entry in corpus.ALL:
            prog = fe.parse_program(entry.source)
            scop = build_scop(prog)[0]
            m = simplify_bounds(generate_loops(scop))
            hp = hls.insert_directives(hls.partition(m, scop.name))
            for n in (2, 8, 13):
                init = corpus.init_arrays(prog, {s: n for s in prog.symbols})
                want = interp.run(prog, {s: n for s in prog.symbols}, init)
                got = interp.run(hp, {s: n for s in prog.symbols}, init)
                for name in want.arrays:
                    if name not in got.arrays:
                        continue  # array unused by the kernel
                    assert got.arrays[name].data == want.arrays[name].data, \
                        (entry.name, n, name)

    def test_in_arrays_unchanged_on_host(self):
        prog = fe.parse_program(corpus.COPY.source)
        scop = build_scop(prog)[0]
        hp = hls.partition(simplify_bounds(generate_loops(scop)), scop.name)
        init = corpus.init_arrays(prog, {"N": 5}, seed=9)
        state = interp.run(hp, {"N": 5}, init)
        assert state.arrays["A"].data == init["A"]
