"""`poly-hls`: the pass-pipeline driver.

Compile mode runs transformation passes in flag order on the SCoP(s) of
the input, then emits the requested level (`scop`, `affine`, `std`,
`hls-c`).  `poly-hls run` interprets any representation directly.

Exit codes: 0 success, 1 user error, 2 internal invariant violation.
"""

from __future__ import annotations

import itertools
import os
import sys

from . import frontend as fe
from . import hls, interp
from .codegen import dump_bounds, generate_loops, simplify_bounds
from .dependence import compute_dependences, dump_deps
from .errors import PolyHlsError, VerificationError
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
  --dump=KIND           scop | deps | bounds (to stdout, before --emit)
  --assume COND         context assumption, e.g. N>=2 or "N >= T + 1" (repeatable)
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


# pass name -> (its argument as the usage shows it: "" for a bare flag,
# "..." at the end for one or more ints; the pass)
_PASSES = {
    "tile": ("S1,...", lambda scop, sizes: tile(scop, TilingSpec(sizes))),
    "skew": ("A,B,F", lambda scop, abf: skew(scop, abf[:2], abf[2])),
    "wavefront": ("", lambda scop, _: wavefront_parallelize(scop)),
    "subbb-tile": ("S1,...", lambda scop, sizes: sub_bounding_box_tile(scop, TilingSpec(sizes))),
}


def _pass_values(name, text):
    """The comma-separated ints `text` of pass `name`'s argument."""
    arg = _PASSES[name][0]
    try:
        vals = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise _UserError("bad -%s argument %r" % (name, text))
    if not arg.endswith("...") and len(vals) != len(arg.split(",")):
        raise _UserError("-%s needs %s" % (name, arg))
    return vals


def _parse_args(argv):
    opts = {
        "input": None, "passes": [], "emit": None,
        "dumps": [], "assume": [], "set": [], "init": [],
        "dump_arrays": False, "trace": False, "verify_each": False,
        "out": None, "run": False, "help": False,
    }
    i = 0
    if argv and argv[0] == "run":
        opts["run"] = True
        i = 1
    while i < len(argv):
        a = argv[i]
        name, eq, text = a[1:].partition("=")
        if a.startswith("-") and name in _PASSES and bool(eq) == bool(_PASSES[name][0]):
            opts["passes"].append((name, _pass_values(name, text) if eq else None))
        elif a.startswith("--emit="):
            opts["emit"] = a[7:]
        elif a.startswith("--dump="):
            opts["dumps"].append(a[7:])
        elif a.partition("=")[0] in ("--assume", "--set", "--init"):
            # `--flag VALUE` or `--flag=VALUE`
            flag, eq, value = a.partition("=")
            if not eq:
                i += 1
                if i == len(argv):
                    raise _UserError("%s needs an argument" % flag)
                value = argv[i]
            opts[flag[2:]].append(value)
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
            opts["help"] = True
        elif a.startswith("-"):
            raise _UserError("unknown flag %r" % a)
        elif opts["input"] is None:
            opts["input"] = a
        else:
            raise _UserError("unexpected argument %r" % a)
        i += 1
    return opts


def _parse_module(text):
    module = parse_ir(text)
    diags = verify_ir(module)
    if diags:
        raise _UserError("invalid module: " + "; ".join(diags))
    return module


def _verify_snapshot(scop):
    """Small fixed-size interpreter state for `--verify-each`: the first
    binding of every symbol in 5..15, in lexicographic order, that the
    context allows."""
    binding = next((v for v in itertools.product(range(5, 16), repeat=len(scop.symbols))
                    if scop.context.contains((), v)), None)
    if binding is None:
        raise _UserError("--verify-each: no binding of the symbols in 5..15 satisfies "
                         "the context")
    symbols = dict(zip(scop.symbols, binding))
    init = {}
    for k, a in enumerate(interp.make_machine(symbols, scop.arrays).arrays.values()):
        vals = [(7 * i + 3 * k + 1) % 11 for i in range(len(a.data))]
        init[a.name] = vals if a.elem == fe.INT64 else [v / 4.0 for v in vals]
    state = interp.run(scop, symbols, init)
    return symbols, init, {n: a.data for n, a in state.arrays.items()}


def _verify_each(scop, passname, ref):
    """Check the Affine IR of `scop`, simplified as it is emitted, and run
    it and `scop` against `ref`; returns the module."""
    symbols, init, want = ref
    module = simplify_bounds(generate_loops(scop))
    diags = verify_ir(module)
    if diags:
        raise VerificationError("after %s: verify_ir: %s" % (passname, "; ".join(diags)))
    for obj in (scop, module):
        state = interp.run(obj, symbols, init)
        got = {n: a.data for n, a in state.arrays.items()}
        if got != want:
            at = ", ".join("%s=%d" % kv for kv in symbols.items())
            raise VerificationError("after %s: interpreter mismatch%s"
                                    % (passname, " at " + at if at else ""))
    return module


_MODULE_EMITS = ("affine", "std", "hls-c")
_DUMPS = ("scop", "deps", "bounds")
# option -> (flag, where it acts): "pc" is compile mode on a .pc input,
# "compile" compile mode on either input, "run" run mode on either input
_SCOPES = {
    "passes": (None, "pc"), "assume": ("--assume", "pc"),
    "verify_each": ("--verify-each", "pc"), "emit": ("--emit", "compile"),
    "dumps": ("--dump", "compile"), "set": ("--set", "run"), "init": ("--init", "run"),
    "trace": ("--trace", "run"), "dump_arrays": ("--dump-arrays", "run"),
}
_NEEDS = {"pc": "a .pc input in compile mode", "compile": "compile mode", "run": "run mode"}


def _check_flags(opts, air):
    """Reject every flag that the mode or the input kind cannot act on."""
    acting = {"run"} if opts["run"] else {"compile"} if air else {"compile", "pc"}
    for key, (flag, scope) in _SCOPES.items():
        if opts[key] and scope not in acting:
            flag = flag or "-" + opts["passes"][0][0]
            raise _UserError("%s needs %s" % (flag, _NEEDS[scope]))
    if opts["emit"] not in (None, "scop") + _MODULE_EMITS:
        raise _UserError("unknown emit kind %r" % opts["emit"])
    if air and opts["emit"] == "scop":
        raise _UserError("cannot emit 'scop' from an affine input")
    for d in opts["dumps"]:
        if d not in _DUMPS:
            raise _UserError("unknown dump kind %r" % d)
        if air and d != "bounds":
            raise _UserError("--dump=%s needs a .pc input" % d)


def _compile(opts, obj):
    """Compile mode: (the `--dump` text, the `--emit` text)."""
    dumps = []
    emit = opts["emit"]
    if isinstance(obj, fe.Program):
        scops, module = _compile_pc(opts, obj, dumps)
    else:
        scops, module = None, obj
        dumps.extend(dump_bounds(module) for _ in opts["dumps"])
    text = ""
    if emit == "scop":
        text = "".join(dump_scop(scop) for scop in scops)
    elif emit == "affine":
        text = print_ir(module)
    elif emit == "std":
        text = hls.print_std(hls.lower_to_standard(module))
    elif emit == "hls-c":
        text = hls.emit_c(hls.insert_directives(hls.partition(module)))
    return "".join(dumps), text


def _compile_pc(opts, prog, out):
    """Passes and dumps of a `.pc` program, the dumps appended to `out`;
    returns the transformed SCoPs and the module to emit when `--emit`
    asks for one."""
    scops = build_scop(prog, opts["assume"])
    if not scops:
        raise _UserError("no #pragma scop region in input")
    emit = opts["emit"]
    if emit in _MODULE_EMITS and len(scops) > 1:
        raise _UserError("--emit=%s supports exactly one SCoP (input has %d)"
                         % (emit, len(scops)))
    results, verified = [], []
    for scop in scops:
        ref = _verify_snapshot(scop) if opts["verify_each"] and opts["passes"] else None
        module = None  # the module of the last verified pass
        for name, arg in opts["passes"]:
            scop = _PASSES[name][1](scop, arg)
            if ref is not None:
                module = _verify_each(scop, name, ref)
        results.append(scop)
        verified.append(module)
    modules = None
    if "bounds" in opts["dumps"] or emit in _MODULE_EMITS:
        modules = [m or simplify_bounds(generate_loops(scop))
                   for m, scop in zip(verified, results)]
    for d in opts["dumps"]:
        for k, scop in enumerate(results):
            if d == "scop":
                out.append(dump_scop(scop))
            elif d == "deps":
                out.append(dump_deps(compute_dependences(scop)))
            else:
                out.append(dump_bounds(modules[k]))
    return results, modules[0] if emit in _MODULE_EMITS else None


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


def _run_mode(opts, obj):
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
        decl = next((a for a in obj.arrays if a.name == name), None)
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
        if opts["help"]:
            sys.stdout.write(_USAGE)
            return 0
        if opts["input"] is None:
            raise _UserError("no input file (see --help)")
        try:
            with open(opts["input"]) as f:
                text = f.read()
        except OSError as e:
            raise _UserError(str(e))
        # the extension decides the input kind: `.air` is Affine IR, any
        # other file is `.pc` source
        air = opts["input"].endswith(".air")
        obj = _parse_module(text) if air else fe.parse_program(text)
        _check_flags(opts, air)
        dumps, output = ("", _run_mode(opts, obj)) if opts["run"] else _compile(opts, obj)
        sys.stdout.write(dumps)
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
