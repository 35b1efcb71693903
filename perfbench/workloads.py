"""The three workloads: their jobs, sizes, inputs and known defects.

A job is one program through one pipeline, checked at one or more sizes N
(every symbol of the program, `T` included, is bound to N).  Everything a
workload reads lives under this directory: the `.pc` programs in
`programs/` and the fixed `.air` modules in `air/`.
"""

import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
PROGRAM_DIR = os.path.join(HERE, "programs")
AIR_DIR = os.path.join(HERE, "air")

# program -> depth of its tiling band (innermost-aligned loop dims).  The
# nine corpus kernels plus PolyBench-4.2-style jacobi stencils written by
# hand; jacobi-1d tiles (t, i), jacobi-2d its inner (i, j) band.
# seidel-2d needs `/`, which the language rejects, so it is not here.
PROGRAMS = {
    "stencil2d": 2, "stencil1d": 1, "matmul": 3, "copy": 1, "two_stmt": 1,
    "saxpy": 1, "pascal": 2, "triangle": 2, "guarded": 1,
    "jacobi-1d": 2, "jacobi-2d": 2,
}
PIPELINES = ("none", "tile", "tile+wavefront", "subbb-tile")
TILE = 4
# below the tile size, not a multiple of it, and two or more tiles per dim
SMALL_SIZES = (3, 6, 9)


@dataclass(frozen=True)
class Job:
    program: str
    pipeline: str
    sizes: tuple
    air: bool = False  # input is the stored `.air` module, not the `.pc`

    @property
    def id(self):
        return "%s/%s%s" % (self.program, self.pipeline, ".air" if self.air else "")

    @property
    def tile_sizes(self):
        return (TILE,) * PROGRAMS[self.program]


def air_path(program, pipeline):
    return os.path.join(AIR_DIR, "%s__%s.air" % (program, pipeline))


def _compile_matrix():
    return [Job(prog, pipe, SMALL_SIZES)
            for prog, depth in PROGRAMS.items() for pipe in PIPELINES
            if not (pipe == "tile+wavefront" and depth < 2)]


# Cheap compiles, each at the smallest N that runs 1e4 statement instances
# or more; pascal stays at N >= 40.
_ORACLE_LARGE = [
    Job("matmul", "tile", (22,)),
    Job("stencil2d", "tile+wavefront", (101,)),
    Job("stencil2d", "subbb-tile", (101,)),
    Job("pascal", "tile", (101,)),
    Job("triangle", "tile+wavefront", (141,)),
    Job("saxpy", "tile", (10000,)),
    Job("jacobi-2d", "none", (19,)),
]


def _air_roundtrip():
    return [Job(j.program, j.pipeline, j.sizes, air=True)
            for j in _compile_matrix()
            if os.path.exists(air_path(j.program, j.pipeline))]


WORKLOADS = {
    "compile-matrix": _compile_matrix,
    "oracle-large": lambda: list(_ORACLE_LARGE),
    "air-roundtrip": _air_roundtrip,
}


# Known defects: the (job, N, stage) triples whose output mismatch is
# expected.  They still count in `fail_ratio` and are listed by job and N in
# every report; any other failure makes the run incorrect.  A mismatch stage
# is a representation the interpreter ran, or "c" for the compiled C.
_MISMATCH_STAGES = ("scop", "air", "std", "hls", "c")


def known_defect(job, n, stage):
    if stage not in _MISMATCH_STAGES:
        return None
    if job.program == "pascal" and n >= 40 and stage == "c":
        return "D2"  # C `long long` overflows; the interpreter's ints do not
    if job.program == "jacobi-2d" and job.pipeline != "none" and n >= 6:
        return "D5"  # (i, j) tile loops hoisted above the t loop
    return None


def read(path):
    with open(path) as f:
        return f.read()


def program_source(name):
    return read(os.path.join(PROGRAM_DIR, name + ".pc"))


# ---------------------------------------------------------------------------
# seeded arrays: random values for arrays the program reads, zeros for pure
# outputs (their contents before the kernel are not transferred to it)


def _read_arrays(fe, program):
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


def init_arrays(fe, program, symbols, rng):
    reads = _read_arrays(fe, program)
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


@dataclass
class Check:
    """Inputs of one job at one N."""
    n: int
    symbols: dict
    init: dict
    shuffle_seed: int  # order of loops the compiler marked parallel


def make_checks(fe, job, program, seed):
    checks = []
    for n in job.sizes:
        rng = random.Random("%d:%s:%d" % (seed, job.id, n))
        symbols = {s: n for s in program.symbols}
        checks.append(Check(n, symbols, init_arrays(fe, program, symbols, rng),
                            rng.randrange(2 ** 32)))
    return checks
