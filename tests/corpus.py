"""Shared corpus of `.pc` programs used across the test modules.

Each entry records its loop depth (the tiling band size) and which arrays
are write-only, so equivalence harnesses can zero-initialize pure outputs
(their pre-kernel contents are meaningless and are not transferred to the
device in the host/kernel split).
"""

import random
from dataclasses import dataclass

from polyhls import frontend as fe


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
