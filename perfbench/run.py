"""polyhls benchmark: compile time, oracle time and generated-C shape.

    python3 perfbench/run.py --workload compile-matrix --seed 1 --seconds 40 --trace 0

`--workload all` runs the three workloads one after another in this
process.  A run repeats passes over the workload's job list until the next
pass would end after `--seconds` (two passes at least, so every job is
compiled twice and its outputs compared), each on a fresh set-up.  A pass
compiles every job, checks every representation with the interpreter
against the `.pc` source, and compiles and runs the emitted C.  The human
report goes to stdout; its last line is one JSON object with the
end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced run
(`--trace 1`).  See NOTES.md.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Recorder  # noqa: E402

MODULES = ("errors", "affine", "frontend", "scop", "dependence", "transforms",
           "codegen", "ir", "hls", "interp")
SETUP_REPEATS = 3
MIN_PASSES = 2

END_TO_END = (  # name, unit
    ("setup_s", "s"), ("pass_s", "s"), ("compile_s", "s"), ("verify_s", "s"),
    ("cdiff_s", "s"), ("fail_ratio", "ratio"), ("reject_ratio", "ratio"),
    ("c_kernel_lines", "lines"), ("c_bound_ops", "count"), ("peak_rss_mb", "MB"),
)
# Printed, but left out of the JSON result: both ratios are 0 once the known
# defects are fixed (reject_ratio already is on two workloads), and a change
# cannot be bounded as a share of a zero median.
PRINTED_ONLY = ("fail_ratio", "reject_ratio")
TIMED_SPANS = (
    "frontend.parse_program", "scop.build_scop", "dependence.compute_dependences",
    "transforms.tile", "transforms.wavefront_parallelize",
    "transforms.sub_bounding_box_tile", "affine.points", "affine.is_empty",
    "codegen.generate_loops", "codegen.simplify_bounds", "ir.parse_ir",
    "ir.print_ir", "ir.verify_ir", "hls.lower_to_standard", "hls.partition",
    "hls.insert_directives", "hls.emit_c", "interp.program", "interp.scop",
    "interp.air", "interp.std", "interp.hls", "cc.build", "cc.run",
)
COUNTS = (  # exact per pass; asserted equal across passes
    "dependence.deps", "affine.points.count", "codegen.loops", "codegen.guards",
    "codegen.bound_terms", "codegen.bound_terms_dropped", "ir.air_bytes",
    "hls.pipeline_pragmas", "hls.unroll_pragmas", "hls.parallel_loops",
    "interp.instances", "cc.builds",
)
INTERP_REPS = ("program", "scop", "air", "std", "hls")
PER_LAYER = (
    [(name + ".s", "s") for name in TIMED_SPANS]
    + [(name, "bytes" if name == "ir.air_bytes" else "count") for name in COUNTS]
    + [("dependence.uniform_ratio", "ratio"), ("affine.points_per_s", "1/s")]
    + [("interp.%s.inst_per_s" % r, "1/s") for r in INTERP_REPS]
    + [("tracing_overhead_s", "s")]
)


def import_polyhls():
    """Fresh import of every polyhls module from this checkout's src/."""
    for name in [m for m in sys.modules if m == "polyhls" or m.startswith("polyhls.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module("polyhls." + m) for m in MODULES}
    if os.path.dirname(mods["frontend"].__file__) != os.path.join(SRC, "polyhls"):
        raise ImportError("polyhls was not imported from %s" % SRC)
    return type("Polyhls", (), mods)


@dataclass
class Setup:
    P: type  # namespace of the polyhls modules
    jobs: list
    texts: dict  # job id -> input text (.pc or .air)
    programs: dict  # program name -> parsed .pc source (the reference)
    checks: dict  # job id -> [workloads.Check]


def setup(workload, seed):
    P = import_polyhls()
    jobs = wl.WORKLOADS[workload]()
    sources = {j.program: wl.program_source(j.program) for j in jobs}
    texts = {j.id: wl.read(wl.air_path(j.program, j.pipeline)) if j.air
             else sources[j.program] for j in jobs}
    programs = {name: P.frontend.parse_program(src) for name, src in sources.items()}
    chks = {j.id: wl.make_checks(P.frontend, j, programs[j.program], seed) for j in jobs}
    return Setup(P, jobs, texts, programs, chks)


@dataclass
class PassResult:
    pass_no: int
    pass_s: float
    job_s: dict  # job id -> {"compile"/"verify"/"cdiff": s}
    results: dict  # job id -> [checks.Result]
    outputs: dict  # job id -> (HLS C text, .air text) of jobs that compiled
    c_lines: int
    c_ops: int
    counts: Counter  # traced passes only


def run_pass(st, rec, pass_no, workdir, analyse):
    """Compile, verify and cdiff each job in turn.  Interleaving the jobs
    spreads each phase's work over the whole pass, so that a phase's total
    averages over the machine's bursts of slowness instead of sampling
    one."""
    rec.pass_no = pass_no
    compiled, results, refs = {}, {}, {}
    job_s = {job.id: {} for job in st.jobs}

    def compile_(job):
        compiled[job.id], results[job.id] = checks.compile_job(
            st.P, rec, job, st.texts[job.id])

    def verify(job):
        refs[job.id] = checks.verify_job(
            st.P, rec, job, st.texts[job.id], st.programs[job.program],
            st.checks[job.id], compiled[job.id], results[job.id])

    def cdiff(job):
        checks.cdiff_job(st.P, rec, job, compiled[job.id], st.checks[job.id],
                         results[job.id], refs[job.id], workdir)

    t0 = time.perf_counter()
    with rec.region("pass"):
        for job in st.jobs:
            rec.job = job.id
            with rec.region("job"):
                for phase, fn in (("compile", compile_), ("verify", verify), ("cdiff", cdiff)):
                    t = time.perf_counter()
                    with rec.region(phase):
                        fn(job)
                    job_s[job.id][phase] = time.perf_counter() - t
        rec.job = None
    pass_s = time.perf_counter() - t0
    counts = Counter()
    if analyse:
        for job in st.jobs:
            rec.job = job.id
            with rec.region("analysis"):
                checks.analyse(st.P, rec, job, compiled[job.id],
                               st.programs[job.program], st.checks[job.id], counts)
    rec.job = None
    outputs = {jid: (c.c_text, c.air_text) for jid, c in compiled.items()
               if c.ast is not None}
    shapes = [checks.c_shape(c_text) for c_text, _ in outputs.values()]
    counts["cc.builds"] = len(outputs)
    return PassResult(pass_no, pass_s, job_s, results, outputs,
                      sum(s[0] for s in shapes), sum(s[1] for s in shapes), counts)


def measure(workload, seed, rec, budget_s, workdir, analyse, first_pass_no=0):
    """Passes until the next one would end after `budget_s` (and at least
    MIN_PASSES).  Each pass runs on a fresh set-up, made SETUP_REPEATS times
    just before it, so the set-up samples spread over the run as the passes
    do.  Returns (passes, set-up seconds, the last Setup)."""
    passes = []
    setup_times = []
    durations = []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        for _ in range(SETUP_REPEATS):
            ts = time.perf_counter()
            st = setup(workload, seed)
            setup_times.append(time.perf_counter() - ts)
        passes.append(run_pass(st, rec, first_pass_no + len(passes), workdir, analyse))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(durations) > budget_s:
            return passes, setup_times, st


def determinism_problems(passes, counted):
    """Every pass must emit the same HLS C and .air text per job, and the
    same exact counts."""
    problems = []
    first = passes[0]
    for p in passes[1:]:
        for jid in sorted(set(first.outputs) | set(p.outputs)):
            if first.outputs.get(jid) != p.outputs.get(jid):
                problems.append("%s: output differs between passes" % jid)
        if (first.c_lines, first.c_ops) != (p.c_lines, p.c_ops):
            problems.append("C shape differs between passes")
        if counted and first.counts != p.counts:
            problems.append("exact counts differ between passes: %s vs %s"
                            % (dict(first.counts), dict(p.counts)))
    return sorted(set(problems))


def check_tallies(p):
    n = sum(len(rs) for rs in p.results.values())
    fail = sum(r.status == "fail" for rs in p.results.values() for r in rs)
    reject = sum(r.status == "reject" for rs in p.results.values() for r in rs)
    unexpected = sum(r.unexpected for rs in p.results.values() for r in rs)
    return n, fail, reject, unexpected


def end_to_end(setup_times, passes):
    """Samples of each end-to-end metric: one per pass (setup: one per
    set-up; peak RSS: one per run)."""
    def ratio(i):
        return [check_tallies(p)[i] / check_tallies(p)[0] for p in passes]
    return {
        "setup_s": setup_times,
        "pass_s": [p.pass_s for p in passes],
        "compile_s": [sum(j["compile"] for j in p.job_s.values()) for p in passes],
        "verify_s": [sum(j["verify"] for j in p.job_s.values()) for p in passes],
        "cdiff_s": [sum(j["cdiff"] for j in p.job_s.values()) for p in passes],
        "fail_ratio": ratio(1),
        "reject_ratio": ratio(2),
        "c_kernel_lines": [p.c_lines for p in passes],
        "c_bound_ops": [p.c_ops for p in passes],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }


def per_layer(rec, traced, untraced):
    """Median over traced passes of each span's self time, plus the exact
    counts and the rates derived from them."""
    med = statistics.median
    selfs = rec.self_times()
    out = {}
    for name in TIMED_SPANS:
        out[name + ".s"] = med(selfs[p.pass_no][name] for p in traced)
    counts = traced[0].counts
    for name in COUNTS:
        out[name] = counts[name]
    deps = counts["dependence.deps"]
    out["dependence.uniform_ratio"] = counts["dependence.uniform"] / deps if deps else 0.0
    t = out["affine.points.s"]
    out["affine.points_per_s"] = counts["affine.points.count"] / t if t else 0.0
    for r in INTERP_REPS:
        t = out["interp.%s.s" % r]
        out["interp.%s.inst_per_s" % r] = counts["interp.instances"] / t if t else 0.0
    out["tracing_overhead_s"] = (med(p.pass_s for p in traced)
                                 - med(p.pass_s for p in untraced))
    return out


def print_jobs(passes):
    """One row per job: median seconds over the passes, and its checks."""
    med = statistics.median
    print("%-34s %9s %9s %9s  checks" % ("job", "compile_s", "verify_s", "cdiff_s"))
    for jid, rs in passes[0].results.items():
        times = [med(p.job_s[jid][k] for p in passes) for k in ("compile", "verify", "cdiff")]
        print("%-34s %9.4f %9.4f %9.4f  %s" % (
            jid, *times, " ".join("N=%d:%s" % (r.n, r.status) for r in rs)))


def print_checks(passes):
    p = passes[0]
    n, fail, reject, unexpected = check_tallies(p)
    print("checks per pass: %d attempted, %d failed (%d not known defects), "
          "%d rejected" % (n, fail, unexpected, reject))
    for jid, rs in p.results.items():
        for r in rs:
            if r.status == "ok":
                continue
            stages = ",".join(s for s, _, _ in r.reasons)
            defects = sorted({d for _, _, d in r.reasons if d})
            tag = "" if r.status == "reject" else (
                " [known %s]" % ",".join(defects) if not r.unexpected else " [UNEXPECTED]")
            print("  %-6s %-32s N=%-6d %s: %s%s" % (r.status, jid, r.n, stages,
                                                   r.reasons[0][1][:100], tag))


def run_workload(workload, seed, seconds, trace):
    workdir = os.path.join(OUT_DIR, workload)
    os.makedirs(workdir, exist_ok=True)
    budget = seconds / 2.0 if trace else seconds
    untraced, setup_times, st = measure(workload, seed, Recorder(False), budget,
                                        workdir, analyse=False)
    passes = list(untraced)
    print("workload %s  seed %d  jobs %d  untraced passes %d"
          % (workload, seed, len(st.jobs), len(untraced)))
    print_jobs(untraced)
    print_checks(untraced)
    if trace:
        rec = Recorder(True)
        traced, _, _ = measure(workload, seed, rec, budget, workdir, analyse=True,
                               first_pass_no=1000)
        passes += traced
        problems = determinism_problems(untraced, False) + determinism_problems(traced, True)
        spans_path = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (workload, seed))
        rec.write(spans_path)
        metrics = per_layer(rec, traced, untraced)
        units = dict(PER_LAYER)
        print("per layer, median of %d traced passes (spans: %s)"
              % (len(traced), os.path.relpath(spans_path, ROOT)))
        for name, unit in PER_LAYER:
            print("  %-36s %14.6g %s" % (name, metrics[name], unit))
        print("tracing overhead: traced pass_s %.4f s - untraced pass_s %.4f s = %.4f s"
              % (statistics.median(p.pass_s for p in traced),
                 statistics.median(p.pass_s for p in untraced),
                 metrics["tracing_overhead_s"]))
    else:
        problems = determinism_problems(untraced, False)
        metrics = {}
        units = dict(END_TO_END)
        print("%-16s %14s %14s %14s %4s  unit" % ("metric", "median", "min", "max", "n"))
        for name, samples in end_to_end(setup_times, untraced).items():
            value = statistics.median(samples)
            print("%-16s %14.6g %14.6g %14.6g %4d  %s" % (
                name, value, min(samples), max(samples), len(samples), units[name]))
            if name not in PRINTED_ONLY:
                metrics[name] = value
    for p in problems:
        print("NONDETERMINISTIC: " + p)
    attempted = sum(check_tallies(p)[0] for p in passes)
    failed = sum(check_tallies(p)[3] for p in passes) + len(problems)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polyhls", "__init__.py")):
        sys.stderr.write("perfbench: no polyhls sources at %s\n" % SRC)
        return 2
    if shutil.which("cc") is None:
        sys.stderr.write("perfbench: needs a C compiler `cc` on PATH\n")
        return 2
    sys.path.insert(0, SRC)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
