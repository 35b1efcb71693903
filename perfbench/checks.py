"""One job: compile, oracle check (`verify`) and C differential run (`cdiff`).

A `.pc` job makes the same public calls, in the same order, as
`poly-hls x.pc <passes> --emit=hls-c` and also prints the module to `.air`
text; an `.air` job makes the calls of `poly-hls x.air --emit=hls-c`.  The
reference for every check is the interpreter run on the `.pc` source.
"""

import os
import re
import subprocess
from collections import Counter
from dataclasses import dataclass, field

from workloads import known_defect

CC = ("cc", "-std=c99", "-O1")
C_RUN_TIMEOUT_S = 60
_KERNEL_START = re.compile(r"^void \w+_kernel\(")
_BOUND_OP = re.compile(r"\b(?:minll|maxll|floord|ceild)\(|\bif \(")


@dataclass
class Compiled:
    """Everything a job produced, kept so the traced analysis can reuse it.
    A compile that stops early leaves the later fields None."""
    scop_in: object = None  # SCoP the first transform analysed
    scop_tiled: object = None  # tiled SCoP that the wavefront skews
    scop: object = None
    module_raw: object = None  # before simplify_bounds
    module: object = None
    ast: object = None
    hlsp: object = None
    c_text: str = None
    air_text: str = None


@dataclass
class Result:
    """Outcome of one check (one job at one N)."""
    n: int
    status: str = "ok"  # ok | reject | fail
    reasons: list = field(default_factory=list)  # (stage, text, defect id)

    def fail(self, job, stage, text):
        self.status = "fail"
        self.reasons.append((stage, text, known_defect(job, self.n, stage)))

    @property
    def unexpected(self):
        return self.status == "fail" and any(d is None for _, _, d in self.reasons)


def compile_pc(P, rec, job, text, c):
    prog = rec.call("frontend.parse_program", P.frontend.parse_program, text)
    scops = rec.call("scop.build_scop", P.scop.build_scop, prog)
    if len(scops) != 1:
        raise ValueError("expected one SCoP, got %d" % len(scops))
    scop = c.scop_in = scops[0]
    T = P.transforms
    if job.pipeline == "tile":
        scop = rec.call("transforms.tile", T.tile, scop, T.TilingSpec(job.tile_sizes))
    elif job.pipeline == "tile+wavefront":
        scop = c.scop_tiled = rec.call("transforms.tile", T.tile, scop,
                                       T.TilingSpec(job.tile_sizes))
        scop = rec.call("transforms.wavefront_parallelize", T.wavefront_parallelize, scop)
    elif job.pipeline == "subbb-tile":
        scop = rec.call("transforms.sub_bounding_box_tile", T.sub_bounding_box_tile,
                        scop, T.TilingSpec(job.tile_sizes))
    c.scop = scop
    c.module_raw = rec.call("codegen.generate_loops", P.codegen.generate_loops, scop)
    c.module = rec.call("codegen.simplify_bounds", P.codegen.simplify_bounds, c.module_raw)
    hlsp = rec.call("hls.partition", P.hls.partition, c.module, scop.name)
    c.hlsp = rec.call("hls.insert_directives", P.hls.insert_directives, hlsp)
    c.c_text = rec.call("hls.emit_c", P.hls.emit_c, c.hlsp)
    c.air_text = rec.call("ir.print_ir", P.ir.print_ir, c.module)


def _compile_air(P, rec, text, c):
    module = rec.call("ir.parse_ir", P.ir.parse_ir, text)
    diags = rec.call("ir.verify_ir", P.ir.verify_ir, module)
    if diags:
        raise ValueError("invalid module: " + "; ".join(diags))
    c.module = module
    hlsp = rec.call("hls.partition", P.hls.partition, module)
    c.hlsp = rec.call("hls.insert_directives", P.hls.insert_directives, hlsp)
    c.c_text = rec.call("hls.emit_c", P.hls.emit_c, c.hlsp)
    c.air_text = text


def _differ(want, got):
    return sorted(name for name, arr in want.items()
                  if name in got and got[name].data != arr.data)


def verify_job(P, rec, job, text, program, checks, c, results):
    """Interpreter on every representation against the source program.
    Returns the reference arrays per check (None where none was made)."""
    if c.ast is None:
        return [None] * len(checks)
    if job.air and rec.call("ir.print_ir", P.ir.print_ir, c.module) != text:
        for r in results:
            r.fail(job, "air-text", "print_ir(parse_ir(text)) != text")
    reps = [("scop", c.scop), ("air", c.module), ("std", c.ast), ("hls", c.hlsp)]
    refs = []
    for ch, r in zip(checks, results):
        ref = None
        try:
            ref = rec.call("interp.program", P.interp.run, program, ch.symbols,
                           ch.init).arrays
            for name, rep in reps:
                if rep is None:
                    continue
                got = rec.call("interp." + name, P.interp.run, rep, ch.symbols,
                               ch.init, shuffle_seed=ch.shuffle_seed).arrays
                bad = _differ(ref, got)
                if bad:
                    r.fail(job, name, "arrays %s differ" % ",".join(bad))
        except P.errors.PolyHlsError as e:
            if r.status == "ok":
                r.status = "reject"
            r.reasons.append(("verify", "%s: %s" % (type(e).__name__, e), None))
            ref = None
        except Exception as e:  # an untyped error is a failed check
            r.fail(job, "verify", repr(e))
            ref = None
        refs.append(ref)
    return refs


def cdiff_job(P, rec, job, c, checks, results, refs, workdir):
    """Build the emitted C and compare its output with each reference."""
    if c.ast is None:
        return
    base = os.path.join(workdir, job.id.replace("/", "__"))
    with open(base + ".c", "w") as f:
        f.write(c.c_text)
    build = rec.call("cc.build", subprocess.run, list(CC) + ["-o", base, base + ".c"],
                     capture_output=True, text=True)
    if build.returncode != 0:
        for r in results:
            r.fail(job, "c-build", "cc exit %d: %s" % (build.returncode, build.stderr[:200]))
        return
    kinds = dict(c.hlsp.transfers)
    for ch, r, ref in zip(checks, results, refs):
        if ref is None:
            continue
        stdin = []
        for a in c.hlsp.arrays:
            if kinds[a.name] in ("in", "inout"):
                stdin.extend(repr(v) for v in ch.init[a.name])
        try:
            run = rec.call("cc.run", subprocess.run,
                           [base] + [str(ch.symbols[s]) for s in c.hlsp.symbols],
                           input="\n".join(stdin), capture_output=True, text=True,
                           timeout=C_RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            r.fail(job, "c-run", "timed out after %d s" % C_RUN_TIMEOUT_S)
            continue
        if run.returncode != 0:
            r.fail(job, "c-run", "exit %d" % run.returncode)
            continue
        toks = run.stdout.split()
        k = 0
        bad = []
        for a in c.hlsp.arrays:
            if kinds[a.name] in ("out", "inout"):
                want = ref[a.name].data
                conv = int if a.elem == P.frontend.INT64 else float.fromhex
                if [conv(t) for t in toks[k:k + len(want)]] != want:
                    bad.append(a.name)
                k += len(want)
        if bad or k != len(toks):
            r.fail(job, "c", "arrays %s differ" % ",".join(bad or ["(count)"]))


def compile_job(P, rec, job, text):
    """Compile one job; returns (Compiled, one Result per check).  A typed
    error rejects, any other error fails, every check of the job."""
    c = Compiled()
    results = [Result(n) for n in job.sizes]
    try:
        if job.air:
            _compile_air(P, rec, text, c)
        else:
            compile_pc(P, rec, job, text, c)
        c.ast = rec.call("hls.lower_to_standard", P.hls.lower_to_standard, c.module)
    except P.errors.PolyHlsError as e:
        for r in results:
            r.status = "reject"
            r.reasons.append(("compile", "%s: %s" % (type(e).__name__, e), None))
    except Exception as e:  # an untyped error is a failed check
        for r in results:
            r.fail(job, "compile", repr(e))
    return c, results


# ---------------------------------------------------------------------------
# exact counts of the emitted code and of the layers


def c_shape(c_text):
    """(lines inside the `*_kernel` function, bound-op calls and `if`
    guards in it)."""
    lines = c_text.splitlines()
    start = next(i for i, l in enumerate(lines) if _KERNEL_START.match(l))
    end = lines.index("}", start)
    body = lines[start + 1:end]
    return len(body), sum(len(_BOUND_OP.findall(l)) for l in body)


def _walk(ops, P, counts):
    ir, hls = P.ir, P.hls
    for op in ops:
        if isinstance(op, ir.For):
            counts["codegen.loops"] += 1
            counts["codegen.bound_terms"] += len(op.lb.map.results) + len(op.ub.map.results)
            _walk(op.body, P, counts)
        elif isinstance(op, ir.If):
            counts["codegen.guards"] += 1
            _walk(op.then, P, counts)
            _walk(op.els, P, counts)
        elif isinstance(op, hls.CFor):
            counts["hls.pipeline_pragmas"] += op.pipeline
            counts["hls.unroll_pragmas"] += op.unroll is not None
            counts["hls.parallel_loops"] += op.parallel
            _walk(op.body, P, counts)
        elif isinstance(op, hls.CGuard):
            _walk(op.then, P, counts)
            _walk(op.els, P, counts)


def analyse(P, rec, job, c, program, checks, counts):
    """Traced-run extras for one job, added into `counts`: dependence
    analysis of each SCoP the pipeline's transforms analyse, emptiness of
    the returned relations, enumeration of each transformed domain at the
    job's sizes, instance counts, and the shape of the generated IR.
    `counts` is a Counter."""
    scops = []
    if job.pipeline != "none" and c.scop_in is not None:
        scops.append(c.scop_in)
    if c.scop_tiled is not None:
        scops.append(P.transforms.skew(c.scop_tiled, (0, 1), 1))
    for s in scops:
        deps = rec.call("dependence.compute_dependences",
                        P.dependence.compute_dependences, s)
        counts["dependence.deps"] += len(deps)
        counts["dependence.uniform"] += sum(d.distance is not None for d in deps)
        for d in deps:
            rec.call("affine.is_empty", d.relation.is_empty)
    if c.ast is None:
        return
    for ch in checks:
        if c.scop is not None:
            syms = [ch.symbols[s] for s in c.scop.symbols]
            for st in c.scop.statements:
                counts["affine.points.count"] += len(
                    rec.call("affine.points", st.domain.points, syms))
        counts["interp.instances"] += len(
            P.interp.run(program, ch.symbols, ch.init, trace=True).trace)
    shape = Counter()
    _walk(c.module.body, P, shape)
    counts.update(shape)
    if c.module_raw is not None:
        raw = Counter()
        _walk(c.module_raw.body, P, raw)
        counts["codegen.bound_terms_dropped"] += (raw["codegen.bound_terms"]
                                                  - shape["codegen.bound_terms"])
    _walk(c.hlsp.kernel, P, counts)
    counts["ir.air_bytes"] += len(c.air_text.encode())
