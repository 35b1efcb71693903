"""`poly-hls`: the pass-pipeline driver.

Compile mode runs transformation passes in flag order on the SCoP(s) of
the input, then emits the requested level (`scop`, `affine`, `std`,
`hls-c`).  `poly-hls run` interprets any representation directly.

Exit codes: 0 success, 1 user error, 2 internal invariant violation.
"""

from __future__ import annotations

import os
import re
import sys

from . import frontend as fe
from . import hls, interp
from .affine import INEQ, EQ, SymRef
from .codegen import dump_bounds, generate_loops, simplify_bounds
from .dependence import compute_dependences, dump_deps
from .errors import PolyHlsError
from .ir import parse_ir, print_ir, verify_ir
from .scop import build_scop, dump_scop
from .transforms import (TilingSpec, skew, sub_bounding_box_tile, tile,
                         wavefront_parallelize)

_USAGE = """\
usage: poly-hls <input.pc|input.air> [passes] [options]
       poly-hls run <input> --set NAME=VALUE [...] [options]

passes (applied in flag order):
  -tile=S1,S2,...       rectangular tiling of the innermost loop band
  -skew=A,B,F           schedule skew: loop dim A += F * loop dim B
  -wavefront            tile-wavefront parallelization (after -tile)
  -subbb-tile=S1,...    sub-bounding-box tiling (tiles first if needed)

options:
  --emit=KIND           scop | affine | std | hls-c
  --input-kind=KIND     pc (default, or by extension) | affine
  --dump=KIND           scop | deps | bounds (to stdout, before --emit)
  --assume EXPR         context assumption, e.g. N>=2 (repeatable)
  --set NAME=VALUE      symbol binding (run mode; repeatable)
  --init NAME=@FILE     array initializer, whitespace-separated row-major
  --dump-arrays         print final arrays (run mode)
  --trace               print the dynamic instance sequence (run mode)
  --verify-each         verify + check interpreter equivalence after each pass
  -o FILE               write --emit output to FILE instead of stdout

environment: POLYHLS_SEED seeds the shuffled order of parallel loops.
"""


class _UserError(Exception):
    pass


def _parse_sizes(text, flag):
    try:
        vals = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise _UserError("bad %s argument %r" % (flag, text))
    if not vals:
        raise _UserError("%s needs at least one size" % flag)
    return vals


def _parse_args(argv):
    opts = {
        "input": None, "passes": [], "emit": None, "input_kind": None,
        "dumps": [], "assume": [], "set": [], "init": [],
        "dump_arrays": False, "trace": False, "verify_each": False,
        "out": None, "run": False,
    }
    i = 0
    if argv and argv[0] == "run":
        opts["run"] = True
        i = 1
    while i < len(argv):
        a = argv[i]
        if a.startswith("-tile="):
            opts["passes"].append(("tile", _parse_sizes(a[6:], "-tile")))
        elif a.startswith("-subbb-tile="):
            opts["passes"].append(("subbb-tile", _parse_sizes(a[12:], "-subbb-tile")))
        elif a.startswith("-skew="):
            vals = _parse_sizes(a[6:], "-skew")
            if len(vals) != 3:
                raise _UserError("-skew needs A,B,F")
            opts["passes"].append(("skew", vals))
        elif a == "-wavefront":
            opts["passes"].append(("wavefront", None))
        elif a.startswith("--emit="):
            opts["emit"] = a[7:]
        elif a.startswith("--input-kind="):
            opts["input_kind"] = a[13:]
        elif a.startswith("--dump="):
            opts["dumps"].append(a[7:])
        elif a == "--assume":
            i += 1
            if i == len(argv):
                raise _UserError("--assume needs an argument")
            opts["assume"].append(argv[i])
        elif a.startswith("--assume="):
            opts["assume"].append(a[9:])
        elif a == "--set":
            i += 1
            if i == len(argv):
                raise _UserError("--set needs an argument")
            opts["set"].append(argv[i])
        elif a.startswith("--set="):
            opts["set"].append(a[6:])
        elif a == "--init":
            i += 1
            if i == len(argv):
                raise _UserError("--init needs an argument")
            opts["init"].append(argv[i])
        elif a.startswith("--init="):
            opts["init"].append(a[7:])
        elif a == "--dump-arrays":
            opts["dump_arrays"] = True
        elif a == "--trace":
            opts["trace"] = True
        elif a == "--verify-each":
            opts["verify_each"] = True
        elif a == "-o":
            i += 1
            if i == len(argv):
                raise _UserError("-o needs a file name")
            opts["out"] = argv[i]
        elif a in ("-h", "--help"):
            opts["emit"] = "help"
        elif a.startswith("-"):
            raise _UserError("unknown flag %r" % a)
        elif opts["input"] is None:
            opts["input"] = a
        else:
            raise _UserError("unexpected argument %r" % a)
        i += 1
    return opts


_ASSUME_RE = re.compile(r"^\s*(\w+)\s*(>=|<=|==|>|<)\s*(-?\d+)\s*$")


def _parse_assumptions(texts, symbols):
    cons = []
    for t in texts:
        m = _ASSUME_RE.match(t)
        if not m:
            raise _UserError("cannot parse assumption %r (expected NAME OP INT)" % t)
        name, op, val = m.group(1), m.group(2), int(m.group(3))
        if name not in symbols:
            raise _UserError("assumption %r: unknown symbol %r" % (t, name))
        diff = SymRef(symbols.index(name)) - val
        if op == ">=":
            cons.append((diff, INEQ))
        elif op == ">":
            cons.append((diff - 1, INEQ))
        elif op == "<=":
            cons.append((-diff, INEQ))
        elif op == "<":
            cons.append((-diff - 1, INEQ))
        else:
            cons.append((diff, EQ))
    return cons


def _input_kind(opts):
    kind = opts["input_kind"]
    if kind is None:
        kind = "affine" if opts["input"].endswith(".air") else "pc"
    if kind not in ("pc", "affine"):
        raise _UserError("unknown input kind %r" % kind)
    return kind


def _parse_module(text):
    module = parse_ir(text)
    diags = verify_ir(module)
    if diags:
        raise _UserError("invalid module: " + "; ".join(diags))
    return module


def _apply_pass(scop, name, arg):
    if name == "tile":
        return tile(scop, TilingSpec(arg))
    if name == "skew":
        a, b, f = arg
        return skew(scop, (a, b), f)
    if name == "wavefront":
        return wavefront_parallelize(scop)
    return sub_bounding_box_tile(scop, TilingSpec(arg))


def _verify_snapshot(scop):
    """Small fixed-size interpreter state for `--verify-each`."""
    n = 5
    symbols = {s: n for s in scop.symbols}
    init = {}
    for k, a in enumerate(scop.arrays):
        size = 1
        for e in a.extents:
            size *= symbols.get(e, e) if isinstance(e, str) else e
        if a.elem == fe.INT64:
            init[a.name] = [(7 * i + 3 * k + 1) % 11 for i in range(size)]
        else:
            init[a.name] = [float((7 * i + 3 * k + 1) % 11) / 4.0 for i in range(size)]
    state = interp.run(scop, symbols, init)
    return symbols, init, {n: a.data for n, a in state.arrays.items()}


def _verify_each(scop, passname, ref):
    symbols, init, want = ref
    module = generate_loops(scop)
    diags = verify_ir(module)
    if diags:
        raise AssertionError("after %s: verify_ir: %s" % (passname, "; ".join(diags)))
    for obj in (scop, module):
        state = interp.run(obj, symbols, init)
        got = {n: a.data for n, a in state.arrays.items()}
        if got != want:
            raise AssertionError(
                "after %s: interpreter mismatch at N=%d" % (passname, symbols[list(symbols)[0]] if symbols else 0))


def _compile(opts, text):
    kind = _input_kind(opts)
    out = []
    if kind == "affine":
        if opts["passes"]:
            raise _UserError("transformation passes need a .pc input")
        module = _parse_module(text)
        for d in opts["dumps"]:
            if d == "bounds":
                out.append(dump_bounds(module))
            else:
                raise _UserError("--dump=%s needs a .pc input" % d)
        emit = opts["emit"]
        if emit == "affine":
            out.append(print_ir(module))
        elif emit == "std":
            out.append(hls.print_std(hls.lower_to_standard(module)))
        elif emit == "hls-c":
            out.append(hls.emit_c(hls.insert_directives(hls.partition(module))))
        elif emit is not None:
            raise _UserError("cannot emit %r from an affine input" % emit)
        return "".join(out)

    prog = fe.parse_program(text)
    assumptions = _parse_assumptions(opts["assume"], list(prog.symbols))
    scops = build_scop(prog, assumptions)
    if not scops:
        raise _UserError("no #pragma scop region in input")
    emit = opts["emit"]
    if emit in ("affine", "std", "hls-c") and len(scops) > 1:
        raise _UserError("--emit=%s supports exactly one SCoP (input has %d)"
                         % (emit, len(scops)))
    results = []
    for scop in scops:
        ref = _verify_snapshot(scop) if opts["verify_each"] else None
        for name, arg in opts["passes"]:
            scop = _apply_pass(scop, name, arg)
            if ref is not None:
                _verify_each(scop, name, ref)
        results.append(scop)
    for d in opts["dumps"]:
        for scop in results:
            if d == "scop":
                out.append(dump_scop(scop))
            elif d == "deps":
                out.append(dump_deps(scop, compute_dependences(scop)))
            elif d == "bounds":
                out.append(dump_bounds(simplify_bounds(generate_loops(scop))))
            else:
                raise _UserError("unknown dump kind %r" % d)
    if emit == "scop":
        for scop in results:
            out.append(dump_scop(scop))
    elif emit in ("affine", "std", "hls-c"):
        scop = results[0]
        module = simplify_bounds(generate_loops(scop))
        if emit == "affine":
            out.append(print_ir(module))
        elif emit == "std":
            out.append(hls.print_std(hls.lower_to_standard(module)))
        else:
            out.append(hls.emit_c(hls.insert_directives(hls.partition(module, scop.name))))
    elif emit is not None:
        raise _UserError("unknown emit kind %r" % emit)
    return "".join(out)


def _load_values(path, decl):
    try:
        with open(path) as f:
            toks = f.read().split()
    except OSError as e:
        raise _UserError("cannot read %s: %s" % (path, e))
    conv = int if decl.elem == fe.INT64 else float
    try:
        return [conv(t) for t in toks]
    except ValueError:
        raise _UserError("bad value in %s for array %s" % (path, decl.name))


def _run_mode(opts, text):
    kind = _input_kind(opts)
    if kind == "affine":
        obj = _parse_module(text)
        decls = obj.arrays
    else:
        prog = fe.parse_program(text)
        obj = prog
        decls = prog.arrays
    symbols = {}
    for s in opts["set"]:
        if "=" not in s:
            raise _UserError("bad --set %r (expected NAME=VALUE)" % s)
        name, val = s.split("=", 1)
        try:
            symbols[name] = int(val)
        except ValueError:
            raise _UserError("bad --set value %r" % val)
    init = {}
    for s in opts["init"]:
        if "=@" not in s:
            raise _UserError("bad --init %r (expected NAME=@FILE)" % s)
        name, path = s.split("=@", 1)
        decl = next((a for a in decls if a.name == name), None)
        if decl is None:
            raise _UserError("--init: unknown array %r" % name)
        init[name] = _load_values(path, decl)
    seed = os.environ.get("POLYHLS_SEED")
    seed = int(seed) if seed else None
    state = interp.run(obj, symbols, init, trace=opts["trace"], shuffle_seed=seed)
    out = []
    if opts["trace"]:
        for name, idxs in state.trace:
            out.append("%s(%s)" % (name, ", ".join(str(v) for v in idxs)))
    if opts["dump_arrays"]:
        for name in sorted(state.arrays):
            a = state.arrays[name]
            vals = " ".join(repr(v) for v in a.data)
            out.append("%s = %s" % (name, vals))
    return ("\n".join(out) + "\n") if out else ""


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        opts = _parse_args(argv)
        if opts["emit"] == "help":
            sys.stdout.write(_USAGE)
            return 0
        if opts["input"] is None:
            raise _UserError("no input file (see --help)")
        try:
            with open(opts["input"]) as f:
                text = f.read()
        except OSError as e:
            raise _UserError(str(e))
        output = _run_mode(opts, text) if opts["run"] else _compile(opts, text)
        if opts["out"] is not None:
            with open(opts["out"], "w") as f:
                f.write(output)
        else:
            sys.stdout.write(output)
        return 0
    except (_UserError, PolyHlsError) as e:
        sys.stderr.write("poly-hls: error: %s\n" % e)
        return 1
    except Exception as e:  # internal invariant violation
        sys.stderr.write("poly-hls: internal error: %r\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
