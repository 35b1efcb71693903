"""Acceptance suite: one test (and one printed pass/fail line) per
criterion, each anchored to a published property of the pipeline."""

import math
import random
import shutil
import subprocess
import time

import pytest

from polyhls import frontend as fe, hls, interp
from polyhls.codegen import generate_loops, simplify_bounds
from polyhls.dependence import FLOW, compute_dependences, is_loop_parallel
from polyhls.errors import IllegalTilingError
from polyhls.ir import Call, For, If, parse_ir, print_ir
from polyhls.scop import build_scop
from polyhls.transforms import (TilingSpec, sub_bounding_box_tile, tile,
                                wavefront_parallelize)

import corpus
from test_dependence import brute_force_pairs, relation_pairs
from test_ir import random_module


def report(ok, num, desc):
    print("%s: criterion %d — %s" % ("PASS" if ok else "FAIL", num, desc))
    assert ok


def stencil_scop():
    return build_scop(fe.parse_program(corpus.STENCIL2D.source))[0]


def wavefront_pipeline(sizes=(32, 32)):
    return wavefront_parallelize(tile(stencil_scop(), TilingSpec(sizes)))


def test_criterion_1_dependence_recovery():
    t0 = time.monotonic()
    scop = stencil_scop()
    deps = compute_dependences(scop)
    ok = (sorted(d.kind for d in deps) == [FLOW, FLOW]
          and sorted(d.distance for d in deps) == [(0, 1), (1, 0)])
    for n in (6, 10):
        ok = ok and relation_pairs(scop, deps, n) == brute_force_pairs(scop, n)
    elapsed = time.monotonic() - t0
    report(ok and elapsed < 1.0,
           1, "stencil flow deps (1,0)/(0,1) recovered (1,0)/(0,1), exact vs "
              "brute force at N=6,10 in %.2fs" % elapsed)


def _enumerate_module(module, n):
    """Iteration set of the generated 4-loop nest, via its bound maps."""
    from polyhls.affine import eval_expr
    pts = set()

    def walk(ops, env):
        for op in ops:
            if isinstance(op, For):
                dims = [env[d] for d in op.lb.dims]
                lo = max(eval_expr(r, dims, (n,)) for r in op.lb.map.results)
                dims = [env[d] for d in op.ub.dims]
                up = min(eval_expr(r, dims, (n,)) for r in op.ub.map.results)
                for v in range(lo, up + 1):
                    env2 = dict(env)
                    env2[op.var] = v
                    walk(op.body, env2)
            elif isinstance(op, If):
                raise AssertionError("unexpected guard")
            elif isinstance(op, Call):
                pts.add(tuple(env[a] for a in op.args))

    walk(module.body, {})
    return pts


def _closed_form_points(n):
    floord = lambda a, b: a // b
    ceild = lambda a, b: -((-a) // b)
    pts = set()
    for t1 in range(0, floord(n - 1, 16) + 1):
        lbp = max(0, ceild(32 * t1 - n + 1, 32))
        ubp = min(floord(n - 1, 32), t1)
        for t2 in range(lbp, ubp + 1):
            for i in range(max(1, 32 * t1 - 32 * t2),
                           min(n - 1, 32 * t1 - 32 * t2 + 31) + 1):
                for j in range(max(1, 32 * t2), min(n - 1, 32 * t2 + 31) + 1):
                    pts.add((i, j))
    return pts


def test_criterion_2_wavefront_bound_reproduction():
    t0 = time.monotonic()
    module = simplify_bounds(generate_loops(wavefront_pipeline()))
    ok = True
    for n in range(2, 131):
        got = _enumerate_module(module, n)
        want = _closed_form_points(n)
        full = {(i, j) for i in range(1, n) for j in range(1, n)}
        if got != want or got != full:
            ok = False
            break
    elapsed = time.monotonic() - t0
    report(ok and elapsed < 30.0,
           2, "tile(32,32)+wavefront bounds enumerate the closed-form "
              "iteration set exactly for n in 2..130 in %.1fs" % elapsed)


def test_criterion_3_parallelism_claim():
    scop = wavefront_pipeline()
    deps = compute_dependences(scop)
    ok = (not is_loop_parallel(scop, deps, 0)) and is_loop_parallel(scop, deps, 1)
    module = simplify_bounds(generate_loops(scop))
    prog = fe.parse_program(corpus.STENCIL2D.source)
    init = corpus.init_arrays(prog, {"N": 33}, seed=3)
    ref = interp.run(module, {"N": 33}, init).arrays["A"].data
    for seed in range(10):
        got = interp.run(module, {"N": 33}, init, shuffle_seed=seed).arrays["A"].data
        ok = ok and got == ref
    report(ok, 3, "wavefront: t1 sequential, t2 parallel; 10 shuffled t2 "
                  "orders at N=33 are bit-identical")


_PIPELINES = (
    ("none", lambda s, d: s),
    ("tile", lambda s, d: tile(s, TilingSpec((4,) * min(2, d)))),
    ("tile+wavefront", lambda s, d: wavefront_parallelize(tile(s, TilingSpec((4, 4))))),
    ("subbb-tile", lambda s, d: sub_bounding_box_tile(s, TilingSpec((4,) * min(2, d)))),
)


def test_criterion_4_progressive_lowering_equivalence():
    t0 = time.monotonic()
    ok = True
    assert len(corpus.ALL) >= 8
    for entry in corpus.ALL:
        prog = fe.parse_program(entry.source)
        for pname, pipe in _PIPELINES:
            if pname == "tile+wavefront" and entry.depth < 2:
                continue
            for n in (2, 5, 8, 13, 33):
                symbols = {s: n for s in prog.symbols}
                init = corpus.init_arrays(prog, symbols, seed=n)
                scop = pipe(build_scop(prog)[0], entry.depth)
                module = simplify_bounds(generate_loops(scop))
                ast = hls.lower_to_standard(module)
                hlsp = hls.insert_directives(hls.partition(module, scop.name))
                ref = interp.run(prog, symbols, init)
                for rep in (scop, module, ast, hlsp):
                    state = interp.run(rep, symbols, init)
                    for name, arr in ref.arrays.items():
                        if name in state.arrays and \
                                repr(state.arrays[name].data) != repr(arr.data):
                            ok = False
                            print("mismatch:", entry.name, pname, n,
                                  type(rep).__name__, name)
    elapsed = time.monotonic() - t0
    report(ok and elapsed < 120.0,
           4, "5-representation equivalence over %d programs x 4 pipelines "
              "x N in {2,5,8,13,33} in %.1fs" % (len(corpus.ALL), elapsed))


def test_criterion_5_sub_bounding_box_uniformity():
    ok = True
    for n, s in ((20, 8), (33, 32)):
        scop = sub_bounding_box_tile(stencil_scop(), TilingSpec((s, s)))
        st = scop.statements[0]
        per_tile = {}
        for p in st.domain.points((n,)):
            per_tile.setdefault(p[:2], []).append(p)
        ok = ok and per_tile and all(len(v) == s * s for v in per_tile.values())
        prog = fe.parse_program(corpus.STENCIL2D.source)
        init = corpus.init_arrays(prog, {"N": n}, seed=1)
        plain = interp.run(tile(stencil_scop(), TilingSpec((s, s))),
                           {"N": n}, init).arrays["A"].data
        subbb = interp.run(scop, {"N": n}, init).arrays["A"].data
        ok = ok and plain == subbb
    report(ok, 5, "subbb tiles all run exactly s^2 guarded points and match "
                  "plain tiling at (N=20,s=8) and (N=33,s=32)")


def test_criterion_6_ir_round_trip():
    module = simplify_bounds(generate_loops(wavefront_pipeline()))
    text = print_ir(module)
    ok = parse_ir(text) == module and print_ir(parse_ir(text)) == text
    rng = random.Random(2024)
    for _ in range(50):
        m = random_module(rng)
        ok = ok and parse_ir(print_ir(m)) == m
    # the printed module carries a map identical to ((s0-1) floordiv 16 + 1)
    reparsed = parse_ir(text)
    t1 = reparsed.body[0]
    printed_ub = [r for r in print_ir(module).splitlines()
                  if "floordiv 16 + 1" in r]
    for s0 in range(2, 131):
        want = (s0 - 1) // 16 + 1
        got = min(t1.ub.map.eval((), (s0,))) + 1  # +1: exclusive printed form
        ok = ok and got == want
    ok = ok and len(printed_ub) == 1
    report(ok, 6, "print/parse identity on the wavefront module and 50 random "
                  "modules; printed map == (s0-1) floordiv 16 + 1 on 2..130")


def test_criterion_7_directive_rules():
    ok = True
    # case 1: tiled-wavefront pipeline — innermost pipelined, symbolic parallel not unrolled
    p = hls.insert_directives(hls.partition(
        simplify_bounds(generate_loops(wavefront_pipeline())), "scop0"))
    t1 = p.kernel[0]
    t2 = t1.body[0]
    inner = t2.body[0].body[0]
    ok = ok and inner.pipeline and not t1.pipeline and not t2.pipeline
    ok = ok and t2.parallel and t2.unroll is None
    # case 2: constant-trip parallel loop within the limit is unrolled by trip
    const_loop = ("#map0 = affine_map<() -> (0)>\n"
                  "#map1 = affine_map<() -> (4)>\n"
                  "module {\n  symbol N\n  array A : float64 [N]\n"
                  "  stmt S1(i) { A[i] = A[i] + 1.0; }\n"
                  "  affine.parallel_for i = max #map0() to min #map1() {\n"
                  "    call @S1(i)\n  }\n}\n")
    p2 = hls.insert_directives(hls.partition(parse_ir(const_loop)))
    ok = ok and p2.kernel[0].unroll == 4 and p2.kernel[0].pipeline
    # case 3: a tighter policy limit suppresses the unroll
    p3 = hls.insert_directives(hls.partition(parse_ir(const_loop)),
                               hls.DirectivePolicy(unroll_limit=2))
    ok = ok and p3.kernel[0].unroll is None
    report(ok, 7, "pipeline on innermost loops only; unroll iff parallel with "
                  "constant trip within the policy limit (3 cases)")


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
def test_criterion_8_external_differential_execution(tmp_path):
    n = 8
    ok = True
    for entry in corpus.ALL:
        prog = fe.parse_program(entry.source)
        scop = build_scop(prog)[0]
        module = simplify_bounds(generate_loops(scop))
        p = hls.insert_directives(hls.partition(module, scop.name))
        init = corpus.init_arrays(prog, {s: n for s in prog.symbols}, seed=n)
        for name in corpus.c_mismatches(corpus.build_c(tmp_path, entry.name, p), p,
                                        {s: n for s in p.symbols}, init):
            ok = False
            print("mismatch:", entry.name, name)
    report(ok, 8, "emitted HLS C compiled with cc matches the interpreter "
                  "bit-for-bit on the corpus at N=8")


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
def test_transformed_c_matches_interpreter(tmp_path):
    # criterion 8 under criterion 4's transformed pipelines, at N below the
    # tile size 4, not a multiple of it, and giving two tiles or more
    checked, bad = 0, []
    for entry in corpus.ALL:
        prog = fe.parse_program(entry.source)
        for pname, pipe in _PIPELINES[1:]:
            if pname == "tile+wavefront" and entry.depth < 2:
                continue
            scop = pipe(build_scop(prog)[0], entry.depth)
            p = hls.insert_directives(hls.partition(simplify_bounds(generate_loops(scop)),
                                                    scop.name))
            exe = corpus.build_c(tmp_path, "%s-%s" % (entry.name, pname), p)
            for n in (3, 6, 9):
                symbols = {s: n for s in prog.symbols}
                init = corpus.init_arrays(prog, symbols, seed=n)
                bad += [(entry.name, pname, n, name)
                        for name in corpus.c_mismatches(exe, p, symbols, init)]
                checked += 1
    assert bad == [] and checked == 3 * sum(2 + (e.depth >= 2) for e in corpus.ALL)


def test_strided_kernel_matches_on_every_level(tmp_path):
    # constant-times-index subscripts (2*i, i*2 + 1) and unary minus, on
    # the source, the Scop, the .air text, std, HLS and the compiled C
    prog = fe.parse_program(corpus.STRIDED.source)
    checked, bad = 0, []
    for pname, pipe in _PIPELINES[:2]:
        scop = pipe(build_scop(prog, ["M >= 2*N"])[0], corpus.STRIDED.depth)
        module = simplify_bounds(generate_loops(scop))
        p = hls.insert_directives(hls.partition(module, scop.name))
        reps = (scop, parse_ir(print_ir(module)), hls.lower_to_standard(module), p)
        exe = corpus.build_c(tmp_path, "strided-" + pname, p) if shutil.which("cc") else None
        for n in (3, 6, 9):
            symbols = {"N": n, "M": 2 * n}
            init = corpus.init_arrays(prog, symbols, seed=n)
            want = interp.run(prog, symbols, init).arrays
            for rep in reps:
                got = interp.run(rep, symbols, init).arrays
                bad += [(pname, n, type(rep).__name__, a) for a in want
                        if repr(got[a].data) != repr(want[a].data)]
            if exe is not None:
                bad += [(pname, n, "C", a) for a in corpus.c_mismatches(exe, p, symbols, init)]
            checked += 1
    assert bad == [] and checked == 6


def test_guarded_nest_keeps_its_place_on_every_level(tmp_path):
    # the nest under the `if` runs wholly before the next nest, which reads
    # A backwards: fused, the two would read A before it is written
    prog = corpus.parse(corpus.GUARDED_NEST)
    scop = build_scop(prog)[0]
    module = simplify_bounds(generate_loops(scop))
    assert [type(op) for op in module.body] == [For, For]
    p = hls.insert_directives(hls.partition(module, scop.name))
    reps = (scop, parse_ir(print_ir(module)), hls.lower_to_standard(module), p)
    exe = corpus.build_c(tmp_path, "guarded-nest", p) if shutil.which("cc") else None
    bad = []
    for n in (1, 3, 6, 9):  # at N = 1 the `if` skips the first nest
        symbols = {"N": n}
        init = corpus.init_arrays(prog, symbols, seed=n)
        want = interp.run(prog, symbols, init).arrays
        for rep in reps:
            got = interp.run(rep, symbols, init).arrays
            bad += [(n, type(rep).__name__, a) for a in want
                    if repr(got[a].data) != repr(want[a].data)]
        if exe is not None:
            bad += [(n, "C", a) for a in corpus.c_mismatches(exe, p, symbols, init)]
    assert bad == []
    with pytest.raises(IllegalTilingError, match=r"flow S1\(i=1\) -> S2\(i=0\) at N=2$"):
        tile(scop, TilingSpec((4,)))


def test_div_bound_maps_match_on_every_level(tmp_path):
    # `mod` and `ceildiv` bound maps, of negative operands too, through the
    # std and HLS levels and the compiled C against the module's own run
    module = parse_ir(corpus.DIV_BOUNDS_AIR)
    p = hls.insert_directives(hls.partition(module, "div_bounds"))
    reps = (hls.lower_to_standard(module), p)
    exe = corpus.build_c(tmp_path, "div-bounds", p) if shutil.which("cc") else None
    bad = []
    for n in (3, 6, 9):
        symbols, rng = {"N": n}, random.Random(n)
        init = {a.name: [rng.uniform(-1.0, 1.0) for _ in range(n)] for a in module.arrays}
        want = interp.run(module, symbols, init).arrays
        assert want["B"].data != init["B"]
        for rep in reps:
            got = interp.run(rep, symbols, init).arrays
            bad += [(n, type(rep).__name__, a) for a in want
                    if repr(got[a].data) != repr(want[a].data)]
        if exe is not None:
            bad += [(n, "C", a) for a in corpus.c_mismatches(exe, p, symbols, init)]
    assert bad == []


def test_unary_minus_keeps_the_sign_of_zero(tmp_path):
    # C's -x turns +0.0 into -0.0; every level and the C must do the same
    prog = fe.parse_program("int N;\nfloat A[N];\nfloat B[N];\n#pragma scop\n"
                            "for (i = 0; i < N; i++) {\n  B[i] = -A[i];\n}\n"
                            "#pragma endscop\n")
    scop = build_scop(prog)[0]
    module = simplify_bounds(generate_loops(scop))
    p = hls.insert_directives(hls.partition(module, scop.name))
    symbols, init = {"N": 2}, {"A": [0.0, 2.0], "B": [0.0, 0.0]}
    reps = {"Program": prog, "Scop": scop, "air": parse_ir(print_ir(module)),
            "std": hls.lower_to_standard(module), "HLS": p}
    signs = {name: [math.copysign(1, v) for v in interp.run(rep, symbols, init).arrays["B"].data]
             for name, rep in reps.items()}
    if shutil.which("cc"):
        r = subprocess.run([corpus.build_c(tmp_path, "negate", p), "2"], input="0.0 2.0",
                           capture_output=True, text=True, check=True)
        signs["C"] = [math.copysign(1, float.fromhex(t)) for t in r.stdout.split()]
    assert signs == {rep: [-1, -1] for rep in signs}
