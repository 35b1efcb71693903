"""Write every emit and dump of the pipeline matrix, one file per case.

    python3 tools/emit_matrix.py OUTDIR

Runs `poly-hls` in-process (`cli.main`, with `polyhls` imported from this
checkout's `src/`) on every `tests/corpus.py` program, `TWO_NEST`,
`JACOBI_2D`, `GUARDED_NEST` and `GUARDED_UPDATE` included, and on every
`perfbench/programs/*.pc`.  Each program
runs untransformed and under tile, tile+wavefront and subbb-tile at band
depth min(2, d) and at its full loop depth d (tile size 4), with
`--emit=affine|std|hls-c`, `--dump=scop|deps|bounds` and `--verify-each
--emit=affine`.  `stencil2d` also runs each malformed or illegal pass flag
of FLAG_CASES (and `--help`) after `--emit=affine`, so every pass-flag
message is pinned, and `--help` once before it; it runs each option form
of OPTION_CASES in compile mode and of RUN_OPTION_CASES in run mode, so
every value form, kind check and mode check of an option is pinned.  Every
stored `perfbench/air/*.air` module (read in place) runs with
`--emit=affine|std|hls-c` and `--dump=bounds`, and so does
`corpus.DIV_BOUNDS_AIR` (its bound maps read `mod` and `ceildiv`);
AIR_FLAG_MODULE runs each flag of AIR_FLAG_CASES that needs a `.pc`
input.  Each input of
REJECT_CASES (`.pc` or `.air`) runs with its flags, so every message of a
rejected loop nest, declaration list, stmt list or loopless tiling is
pinned, as is each typed error of the SCoP builder (a non-affine loop
bound, an undeclared array, a rank mismatch, an unknown identifier, the
`else` of an equality test), a condition with no comparison, each
`verify_ir` diagnostic of an extent that names no symbol and of a
subscript count that is not the array's rank, each error kind of affine
map and set text, and each interpreter error of an out-of-bounds read, an
out-of-bounds write and a float stored into an int array (`run`, in both
input kinds).  Every
`.pc` input and every `.air` module also runs once as `run --trace
--dump-arrays`, with every symbol set to 5, non-zero arrays and
`POLYHLS_SEED=1`, so the interpreter gets the same check as the emitters.  Each file holds the
exit code, stdout and stderr of one case, so `diff -r` of the OUTDIRs of
two checkouts lists every output that differs between them.
"""

import contextlib
import glob
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from polyhls import cli, frontend as fe  # noqa: E402
from polyhls.ir import parse_ir  # noqa: E402
from polyhls.scop import build_scop  # noqa: E402

import corpus  # noqa: E402

TILE = 4
EMITS = ("--emit=affine", "--emit=std", "--emit=hls-c")
OUTPUTS = EMITS + ("--dump=scop", "--dump=deps", "--dump=bounds",
                   "--verify-each --emit=affine")
AIR_OUTPUTS = EMITS + ("--dump=bounds",)
FLAG_CASES = ("-tile=", "-tile=a", "-tile=0", "-tile", "-skew=1,2", "-skew=0,1,-1",
              "-wavefront=1", "-wavefront", "-tile=4,4 -subbb-tile=4,8", "--help")
OPTION_CASES = ("--emit affine", "--dump scop", "--emit=bogus", "--dump=bogus", "--assume", "-o",
                "-o=x.c", "--verify-each=1", "--set N=5", "--assume=N>=2 --dump=bounds -h")
RUN_OPTION_CASES = ("--trace=1", "--emit=affine", "--emit=", "--set")
AIR_FLAG_MODULE = "copy__none"
AIR_FLAG_CASES = ("--dump=deps", "--emit=scop", "--assume N>=2", "-tile=4")
RUN_SIZE = 5
_LOOPLESS = "float A[4];\n#pragma scop\nA[0] = A[1] + 1.0;\n#pragma endscop\n"
REJECT_CASES = (  # (input file name, its text, flags)
    ("shadowed-loop-var.pc", "int N;\nfloat A[N];\n#pragma scop\nfor (i = 0; i < N; i++)\n"
     "  for (i = 0; i < 2; i++)\n    A[i] = A[i] + 1.0;\n#pragma endscop\n", "--dump=scop"),
    ("array-loop-var.pc", "int N;\nfloat B[N];\nfloat A[N];\n#pragma scop\n"
     "for (B = 0; B < N; B++)\n  A[B] = 1.0;\n#pragma endscop\n", "--emit=hls-c"),
    ("duplicate-symbol.pc", "int N;\nint N;\nfloat A[N];\n#pragma scop\n#pragma endscop\n",
     "--emit=hls-c"),
    ("symbol-array-clash.pc", "int N;\nfloat N[4];\n#pragma scop\n#pragma endscop\n",
     "--emit=hls-c"),
    ("symbol-array-clash.air", "module {\n  symbol N\n  array N : float64 [4]\n}\n",
     "--emit=hls-c"),
    ("loopless.pc", _LOOPLESS, "-tile=4 --emit=affine"),
    ("loopless.pc", _LOOPLESS, "-subbb-tile=4 --emit=affine"),
    ("duplicate-stmt.air", "module {\n  array A : float64 [4]\n  stmt S1() { A[0] = 1.0; }\n"
     "  stmt S1() { A[0] = 2.0; }\n}\n", "--emit=hls-c"),
)
_PC_NEST = "int N;\nfloat A[N];\n#pragma scop\nfor (i = 0; i < %s; i++)\n  %s;\n#pragma endscop\n"
REJECT_CASES += tuple((name + ".pc", _PC_NEST % (bound, stmt), "--dump=scop") for name, bound, stmt in (
    ("non-affine-bound", "N * N", "A[i] = 1.0"),
    ("undeclared-array", "N", "A[i] = C[i] + 1.0"),
    ("rank-mismatch", "N", "A[i][i] = 1.0"),
    ("unknown-identifier", "N", "A[i] = A[i] + x"),
    ("else-of-equality", "N", "if (i == 0) A[i] = 1.0; else A[i] = 2.0"),
    ("missing-comparison", "N", "if (i) A[i] = 1.0"),
))
_RUN = "run --set N=4 --dump-arrays"
_PC_LOOP = ("int N;\n%s B[N];\nfloat A[N];\n#pragma scop\nfor (i = 0; i < N; i++)\n"
            "  %s;\n#pragma endscop\n")
_AIR_LOOP = ("#map0 = affine_map<()[s0] -> (0)>\n#map1 = affine_map<()[s0] -> (s0)>\n"
             "module {\n  symbol N\n  array B : %s64 [N]\n  array A : float64 [N]\n"
             "  stmt S1(i) { %s; }\n  affine.for i = max #map0()[N] to min #map1()[N] {\n"
             "    call @S1(i)\n  }\n}\n")
_RUN_REJECTS = (  # (input name, B's element type, the statement that fails)
    ("oob-read", "float", "B[i] = A[i + 1] + 1.0"),
    ("oob-write", "float", "B[i + 1] = A[i] + 1.0"),
    ("float-into-int", "int", "B[i] = A[i] + 1"),
)
REJECT_CASES += tuple(case for name, elem, stmt in _RUN_REJECTS for case in (
    (name + ".pc", _PC_LOOP % (elem, stmt), _RUN),
    (name + ".air", _AIR_LOOP % (elem, stmt), _RUN)))
_AIR_OK = _AIR_LOOP % ("float", "B[i] = A[i] + 1.0")
REJECT_CASES += (
    ("unbound-extent.air", _AIR_OK.replace("float64 [N]\n  stmt", "float64 [M]\n  stmt"),
     "--emit=hls-c"),
    ("subscript-count.air", _AIR_LOOP % ("float", "B[i] = A[i][i] + 1.0"), "--emit=hls-c"),
)
REJECT_CASES += tuple(("%s.air" % name, "#bad = %s\n" % text + _AIR_OK, "--emit=hls-c")
                      for name, text in (  # one of each error kind of map and set text
    ("non-affine-product-map", "affine_map<(d0, d1) -> (d0 * d1)>"),
    ("bad-divisor-map", "affine_map<(d0)[s0] -> (d0 floordiv s0)>"),
    ("unknown-identifier-map", "affine_map<(d0) -> (d0 + x)>"),
    ("unexpected-token-map", "affine_map<(d0) -> (d0 + )>"),
    ("division-map", "affine_map<(d0) -> (d0 / 2)>"),
    ("keyword-dim-map", "affine_map<(int) -> (0)>"),
    ("bad-comparison-set", "integer_set<(d0) : (d0 = 0)>"),
    ("missing-comparison-set", "integer_set<(d0) : (d0 >= 0, d0 + 1)>"),
))


def programs():
    """(name, .pc source) of every input."""
    for entry in corpus.ALL + (corpus.TWO_NEST, corpus.JACOBI_2D, corpus.GUARDED_NEST,
                               corpus.GUARDED_UPDATE):
        yield "corpus-" + entry.name, entry.source
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "programs", "*.pc"))):
        with open(path) as f:
            yield "perfbench-" + os.path.basename(path)[:-3], f.read()


def pipelines(source):
    """(name, pass flags) of every pipeline run on `source`."""
    scop = build_scop(fe.parse_program(source))[0]
    depth = max(len(s.body_dims) for s in scop.statements)
    yield "none", []
    for d in sorted({min(2, depth), depth}):
        sizes = ",".join([str(TILE)] * d)
        yield "tile-%d" % d, ["-tile=" + sizes]
        yield "tile+wavefront-%d" % d, ["-tile=" + sizes, "-wavefront"]
        yield "subbb-tile-%d" % d, ["-subbb-tile=" + sizes]


def run(path, argv):
    """Write `cli.main(argv)` as text to `path`: exit code, stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    with open(path, "w") as f:
        f.write("exit %d\n--- stdout\n%s--- stderr\n%s" % (code, out.getvalue(), err.getvalue()))


def run_mode(outdir, name, path, obj):
    """Write `poly-hls run` of `path` (parsed as `obj`) with every symbol
    at RUN_SIZE and every array read from a file of non-zero values."""
    argv = ["run", path, "--trace", "--dump-arrays"]
    for s in obj.symbols:
        argv += ["--set", "%s=%d" % (s, RUN_SIZE)]
    for k, a in enumerate(obj.arrays):
        size = 1
        for e in a.extents:
            size *= RUN_SIZE if isinstance(e, str) else e
        vals = [(7 * i + 3 * k + 1) % 11 for i in range(size)]
        init = os.path.join(outdir, "inputs", "%s__%s.txt" % (name, a.name))
        with open(init, "w") as f:
            f.write(" ".join(str(v if a.elem == fe.INT64 else v / 4.0) for v in vals))
        argv += ["--init", "%s=@%s" % (a.name, init)]
    run(os.path.join(outdir, "%s__run.txt" % name), argv)


def case_name(prefix, output):
    """File name of the case that runs `prefix`'s input with the flags
    `output`."""
    return "%s__%s.txt" % (prefix, "_".join(f.lstrip("-").replace("=", "-")
                                            for f in output.split()))


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python3 tools/emit_matrix.py OUTDIR")
    outdir = argv[0]
    os.makedirs(os.path.join(outdir, "inputs"), exist_ok=True)
    os.environ["POLYHLS_SEED"] = "1"
    cases = 0
    for name, source in programs():
        path = os.path.join(outdir, "inputs", name + ".pc")
        with open(path, "w") as f:
            f.write(source)
        run_mode(outdir, name, path, fe.parse_program(source))
        cases += 1
        for pname, flags in pipelines(source):
            for output in OUTPUTS:
                case = case_name("%s__%s" % (name, pname), output)
                run(os.path.join(outdir, case), [path] + flags + output.split())
                cases += 1
        if name == "corpus-stencil2d":
            for output in ["--emit=affine " + f for f in FLAG_CASES] + ["--help --emit=affine"]:
                run(os.path.join(outdir, case_name(name + "__flags", output)),
                    [path] + output.split())
                cases += 1
            for output in OPTION_CASES:
                run(os.path.join(outdir, case_name(name + "__options", output)),
                    [path] + output.split())
                cases += 1
            for output in RUN_OPTION_CASES:
                run(os.path.join(outdir, case_name(name + "__run-options", output)),
                    ["run", path] + output.split())
                cases += 1
    for fname, text, output in REJECT_CASES:
        path = os.path.join(outdir, "inputs", "reject-" + fname)
        with open(path, "w") as f:
            f.write(text)
        name = "reject-" + fname.replace(".", "-")
        flags = output.split()
        argv = flags[:1] + [path] + flags[1:] if flags[0] == "run" else [path] + flags
        run(os.path.join(outdir, case_name(name, output)), argv)
        cases += 1
    div_bounds = os.path.join(outdir, "inputs", "div-bounds.air")
    with open(div_bounds, "w") as f:
        f.write(corpus.DIV_BOUNDS_AIR)
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "air", "*.air"))) + [div_bounds]:
        name = ("air-" if path != div_bounds else "corpus-") + os.path.basename(path)[:-4]
        with open(path) as f:
            run_mode(outdir, name, path, parse_ir(f.read()))
        cases += 1
        flags = AIR_FLAG_CASES if name == "air-" + AIR_FLAG_MODULE else ()
        for output in AIR_OUTPUTS + flags:
            run(os.path.join(outdir, case_name(name, output)), [path] + output.split())
            cases += 1
    print("%d cases written to %s" % (cases, outdir))


if __name__ == "__main__":
    main(sys.argv[1:])
