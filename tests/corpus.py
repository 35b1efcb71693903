"""Shared corpus of `.pc` programs used across the test modules.

Each entry records its loop depth (the tiling band size) and which arrays
are write-only, so equivalence harnesses can zero-initialize pure outputs
(their pre-kernel contents are meaningless and are not transferred to the
device in the host/kernel split).
"""

import random
import subprocess
from dataclasses import dataclass

from polyhls import frontend as fe, hls, interp
from polyhls.affine import eval_expr


@dataclass(frozen=True)
class CorpusProgram:
    name: str
    source: str
    depth: int  # nesting depth of the loop band inside the SCoP


STENCIL2D = CorpusProgram("stencil2d", """\
int N;
float A[N][N];
#pragma scop
for (i = 1; i < N; i++) {
  for (j = 1; j < N; j++) {
    S1: A[i][j] = A[i-1][j] + A[i][j-1];
  }
}
#pragma endscop
""", depth=2)

STENCIL1D = CorpusProgram("stencil1d", """\
int N;
float A[N];
float B[N];
#pragma scop
for (i = 1; i < N - 1; i++) {
  B[i] = A[i-1] + A[i] * 2.0 + A[i+1];
}
#pragma endscop
""", depth=1)

MATMUL = CorpusProgram("matmul", """\
int N;
float A[N][N];
float B[N][N];
float C[N][N];
#pragma scop
for (i = 0; i < N; i++) {
  for (j = 0; j < N; j++) {
    for (k = 0; k < N; k++) {
      C[i][j] = C[i][j] + A[i][k] * B[k][j];
    }
  }
}
#pragma endscop
""", depth=3)

COPY = CorpusProgram("copy", """\
int N;
float A[N];
float B[N];
#pragma scop
for (i = 0; i < N; i++) {
  B[i] = A[i];
}
#pragma endscop
""", depth=1)

TWO_STMT = CorpusProgram("two_stmt", """\
int N;
float A[N];
float B[N];
float C[N];
#pragma scop
for (i = 0; i < N; i++) {
  B[i] = A[i] * 2.0;
  C[i] = A[i] + B[i];
}
#pragma endscop
""", depth=1)

SAXPY = CorpusProgram("saxpy", """\
int N;
float X[N];
float Y[N];
#pragma scop
for (i = 0; i < N; i++) {
  Y[i] = Y[i] + X[i] * 2.5;
}
#pragma endscop
""", depth=1)

PASCAL = CorpusProgram("pascal", """\
int N;
int H[N][N];
#pragma scop
for (i = 1; i < N; i++) {
  for (j = 1; j < N; j++) {
    H[i][j] = H[i-1][j] + H[i][j-1] + 1;
  }
}
#pragma endscop
""", depth=2)

TRIANGLE = CorpusProgram("triangle", """\
int N;
int T[N][N];
#pragma scop
for (i = 0; i < N; i++) {
  for (j = 0; j < i + 1; j++) {
    T[i][j] = T[i][j] * 3 + 1;
  }
}
#pragma endscop
""", depth=2)

GUARDED = CorpusProgram("guarded", """\
int N;
float A[N];
float B[N];
#pragma scop
for (i = 0; i < N; i++) {
  if (i >= 2) {
    B[i] = A[i-2] + A[i];
  }
}
#pragma endscop
""", depth=1)

ALL = (STENCIL2D, STENCIL1D, MATMUL, COPY, TWO_STMT, SAXPY, PASCAL,
       TRIANGLE, GUARDED)

BY_NAME = {p.name: p for p in ALL}

# Not in ALL: no band of either program can be tiled legally, so the
# pipeline matrices over ALL would only see the rejection.  In TWO_NEST the
# second nest runs j outside i; in JACOBI_2D the time loop carries the
# dependences between the two sweeps.
TWO_NEST = CorpusProgram("two_nest", """\
int N;
float A[N][N];
float B[N][N];
#pragma scop
for (i = 0; i < N; i++) {
  for (j = 0; j < N; j++) {
    A[i][j] = A[i][j] + 1.0;
  }
}
for (j = 0; j < N; j++) {
  for (i = 0; i < N; i++) {
    B[j][i] = A[i][j];
  }
}
#pragma endscop
""", depth=2)

JACOBI_2D = CorpusProgram("jacobi-2d", """\
int T;
int N;
float A[N][N];
float B[N][N];
#pragma scop
for (t = 0; t < T; t++) {
  for (i = 1; i < N - 1; i++) {
    for (j = 1; j < N - 1; j++) {
      B[i][j] = 0.2 * (A[i][j] + A[i][j-1] + A[i][j+1] + A[i+1][j] + A[i-1][j]);
    }
  }
  for (i = 1; i < N - 1; i++) {
    for (j = 1; j < N - 1; j++) {
      A[i][j] = 0.2 * (B[i][j] + B[i][j-1] + B[i][j+1] + B[i+1][j] + B[i-1][j]);
    }
  }
}
#pragma endscop
""", depth=3)


# Not in ALL either: the time loop carries the in-place update, so only a
# skewed band (t, t + i) can be tiled.
SEIDEL_1D = CorpusProgram("seidel-1d", """\
int T;
int N;
float A[N];
#pragma scop
for (t = 0; t < T; t++) {
  for (i = 1; i < N - 1; i++) {
    A[i] = 0.33333 * (A[i-1] + A[i] + A[i+1]);
  }
}
#pragma endscop
""", depth=2)


# Not in ALL either: A is read at 2*i and i*2 + 1, so it needs M >= 2*N,
# and the harnesses over ALL bind every symbol to one value.
STRIDED = CorpusProgram("strided", """\
int N;
int M;
float A[M];
float B[N];
#pragma scop
for (i = 0; i < N; i++) {
  B[i] = 0.5 * A[2*i] - A[i*2 + 1] * -2.0 + -B[i];
}
#pragma endscop
""", depth=1)


# Not in ALL either: the first nest sits under an `if` and the second reads
# A backwards, so the two nests are right only one after the other; every
# tiling of them is illegal.  In GUARDED_UPDATE the guarded statement reads
# what the one before it wrote in the same iteration.
GUARDED_NEST = CorpusProgram("guarded-nest", """\
int N;
float A[N];
float B[N];
#pragma scop
if (N >= 2) {
  for (i = 0; i < N; i++) {
    A[i] = B[i] + 1.0;
  }
}
for (i = 0; i < N; i++) {
  B[i] = A[N - 1 - i] * 2.0;
}
#pragma endscop
""", depth=1)

GUARDED_UPDATE = CorpusProgram("guarded-update", """\
int N;
float A[N];
float B[N];
#pragma scop
for (i = 0; i < N; i++) {
  A[i] = B[i] + 1.0;
  if (i >= 1) {
    B[i] = A[i] * 2.0;
  }
}
#pragma endscop
""", depth=1)

# an `.air` module whose bound maps read `mod` and `ceildiv`, of negative
# operands too: no `.pc` program compiles to these bounds
DIV_BOUNDS_AIR = """\
#map0 = affine_map<()[s0] -> (0, (s0 - 5) ceildiv 2)>
#map1 = affine_map<()[s0] -> (s0 ceildiv 2 + 1, s0)>
#map2 = affine_map<(d0)[s0] -> ((d0 - 2) mod 3)>
#map3 = affine_map<(d0)[s0] -> (s0, d0 + s0 mod 4 + 1)>
module {
  symbol N
  array A : float64 [N]
  array B : float64 [N]
  stmt S1(i, j) { B[j] = B[j] * 0.5 + A[i]; }
  affine.for i = max #map0()[N] to min #map1()[N] {
    affine.for j = max #map2(i)[N] to min #map3(i)[N] {
      call @S1(i, j)
    }
  }
}
"""


def parse(p: CorpusProgram):
    return fe.parse_program(p.source)


def _read_arrays(program):
    reads = set()

    def scan(e):
        if isinstance(e, fe.ArrayRef):
            reads.add(e.array)
            for s in e.subs:
                scan(s)
        elif isinstance(e, fe.BinOp):
            scan(e.lhs)
            scan(e.rhs)

    def walk(nodes):
        for node in nodes:
            if isinstance(node, fe.For):
                walk(node.body)
            elif isinstance(node, fe.If):
                walk(node.then)
                walk(node.els)
            elif isinstance(node, fe.Assign):
                for s in node.ref.subs:
                    scan(s)
                scan(node.rhs)

    walk(program.body)
    return reads


def init_arrays(program, symbols, seed=0):
    """Deterministic initial state: pseudo-random values for arrays the
    program reads, zeros for pure outputs."""
    rng = random.Random(seed)
    reads = _read_arrays(program)
    init = {}
    for a in program.arrays:
        size = 1
        for e in a.extents:
            size *= symbols[e] if isinstance(e, str) else e
        if a.name not in reads:
            init[a.name] = ([0] if a.elem == fe.INT64 else [0.0]) * size
        elif a.elem == fe.INT64:
            init[a.name] = [rng.randrange(-9, 10) for _ in range(size)]
        else:
            init[a.name] = [rng.uniform(-1.0, 1.0) for _ in range(size)]
    return init


def scheduled_trace(scop, n):
    """(statement, original-dim point) of every instance of `scop` with
    each symbol at `n`, in schedule order: the domain points that pass each
    statement's guard, sorted by their schedule times.  A reference scan
    kept apart from the interpreter."""
    syms = (n,) * len(scop.symbols)
    out = []
    for s in scop.statements:
        for p in s.domain.points(syms):
            if s.guard is not None and not s.guard.contains(p, syms):
                continue
            time = tuple(eval_expr(r, p, syms) for r in s.schedule.results)
            out.append((time, s.name, tuple(p[d] for d in s.body_dims)))
    out.sort(key=lambda t: t[0])
    return [(name, pt) for _, name, pt in out]


def build_c(tmp_path, name, p):
    """Path of the executable that cc builds from the HLS C of `p`."""
    cfile = tmp_path / (name + ".c")
    cfile.write_text(hls.emit_c(p))
    exe = str(tmp_path / name)
    subprocess.run(["cc", "-std=c99", "-O1", "-o", exe, str(cfile)], check=True)
    return exe


def c_mismatches(exe, p, symbols, init):
    """Names of the output arrays on which `exe`, built from `p`, differs
    bit for bit (by `repr`, so -0.0 is not 0.0) from `interp.run` of `p`
    under the bindings `symbols`."""
    want = interp.run(p, symbols, init)
    kinds = dict(p.transfers)
    stdin = [repr(v) for a in p.arrays if kinds[a.name] in ("in", "inout")
             for v in init[a.name]]
    r = subprocess.run([exe] + [str(symbols[s]) for s in p.symbols], input="\n".join(stdin),
                       capture_output=True, text=True, check=True)
    toks = iter(r.stdout.split())
    bad = []
    for a in p.arrays:
        if kinds[a.name] in ("out", "inout"):
            conv = int if a.elem == fe.INT64 else float.fromhex
            got = [conv(next(toks)) for _ in want.arrays[a.name].data]
            if repr(got) != repr(want.arrays[a.name].data):
                bad.append(a.name)
    return bad
