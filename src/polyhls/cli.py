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


# option flag -> (its opts key, a list if it repeats; how it takes a value:
# after "=", after "=" or as the next argument ("= next"), only as the next
# argument ("next") or not at all (""); where it acts, None for anywhere)
_OPTIONS = {
    "--assume": ("assume", "= next", "pc"),
    "--verify-each": ("verify_each", "", "pc"),
    "--emit": ("emit", "=", "compile"),
    "--dump": ("dumps", "=", "compile"),
    "--set": ("set", "= next", "run"),
    "--init": ("init", "= next", "run"),
    "--trace": ("trace", "", "run"),
    "--dump-arrays": ("dump_arrays", "", "run"),
    "-o": ("out", "next", None),
    "-h": ("help", "", None),
    "--help": ("help", "", None),
}
_NEEDS = {"pc": "a .pc input in compile mode", "compile": "compile mode", "run": "run mode"}


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
        flag, eq, value = a.partition("=")
        key, form, _ = _OPTIONS.get(flag, (None, None, None))
        if a.startswith("-") and flag[1:] in _PASSES and bool(eq) == bool(_PASSES[flag[1:]][0]):
            opts["passes"].append((flag[1:], _pass_values(flag[1:], value) if eq else None))
        elif key and ("=" in form if eq else form != "="):
            if not form:
                value = True
            elif not eq:
                i += 1
                if i == len(argv):
                    raise _UserError("%s needs %s" % (flag, "a file name" if form == "next"
                                                      else "an argument"))
                value = argv[i]
            if isinstance(opts[key], list):
                opts[key].append(value)
            else:
                opts[key] = value
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
    return symbols, init, _bits(interp.run(scop, symbols, init))


def _bits(state):
    """The `repr` of each array's values: bit-exact, -0.0 apart from 0.0."""
    return {n: repr(a.data) for n, a in state.arrays.items()}


def _verify_each(scop, passname, ref):
    """Check the Affine IR of `scop`, simplified as it is emitted, and run
    it and `scop` against `ref`; returns the module."""
    symbols, init, want = ref
    module = simplify_bounds(generate_loops(scop))
    diags = verify_ir(module)
    if diags:
        raise VerificationError("after %s: verify_ir: %s" % (passname, "; ".join(diags)))
    for obj in (scop, module):
        if _bits(interp.run(obj, symbols, init)) != want:
            at = ", ".join("%s=%d" % kv for kv in symbols.items())
            raise VerificationError("after %s: interpreter mismatch%s"
                                    % (passname, " at " + at if at else ""))
    return module


# emit kind -> the text of the module (`scop`: the text of the SCoPs)
_EMITS = {
    "scop": lambda scops, module: "".join(dump_scop(scop) for scop in scops),
    "affine": lambda scops, module: print_ir(module),
    "std": lambda scops, module: hls.print_std(hls.lower_to_standard(module)),
    "hls-c": lambda scops, module: hls.emit_c(hls.insert_directives(hls.partition(module))),
}
# dump kind -> the text of one SCoP (`bounds`: the text of its module)
_DUMPS = {
    "scop": lambda scop, module: dump_scop(scop),
    "deps": lambda scop, module: dump_deps(compute_dependences(scop)),
    "bounds": lambda scop, module: dump_bounds(module),
}


def _check_flags(opts, air):
    """Reject every flag that the mode or the input kind cannot act on."""
    acting = {"run"} if opts["run"] else {"compile"} if air else {"compile", "pc"}
    if opts["passes"] and "pc" not in acting:
        raise _UserError("-%s needs %s" % (opts["passes"][0][0], _NEEDS["pc"]))
    for flag, (key, _, scope) in _OPTIONS.items():
        # given: no longer its default (None, False or [])
        if scope and opts[key] not in (None, False, []) and scope not in acting:
            raise _UserError("%s needs %s" % (flag, _NEEDS[scope]))
    if opts["emit"] is not None and opts["emit"] not in _EMITS:
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
    if isinstance(obj, fe.Program):
        scops, modules = _compile_pc(opts, obj)
    else:
        scops, modules = [None], [obj]
    dumps = "".join(_DUMPS[d](scop, module) for d in opts["dumps"]
                    for scop, module in zip(scops, modules))
    emit = opts["emit"]
    return dumps, _EMITS[emit](scops, modules[0]) if emit else ""


def _compile_pc(opts, prog):
    """The passes of a `.pc` program: its transformed SCoPs and, when a
    dump or the emit reads them, their modules."""
    scops = build_scop(prog, opts["assume"])
    if not scops:
        raise _UserError("no #pragma scop region in input")
    emit = opts["emit"]
    module_emit = emit not in (None, "scop")
    if module_emit and len(scops) > 1:
        raise _UserError("--emit=%s supports exactly one SCoP (input has %d)"
                         % (emit, len(scops)))
    results, modules = [], []
    for scop in scops:
        ref = _verify_snapshot(scop) if opts["verify_each"] and opts["passes"] else None
        module = None  # the module of the last verified pass
        for name, arg in opts["passes"]:
            scop = _PASSES[name][1](scop, arg)
            if ref is not None:
                module = _verify_each(scop, name, ref)
        results.append(scop)
        modules.append(module)
    if "bounds" in opts["dumps"] or module_emit:
        modules = [m or simplify_bounds(generate_loops(scop)) for m, scop in zip(modules, results)]
    return results, modules


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
            out.append(interp.format_instance(name, idxs))
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
            try:
                with open(opts["out"], "w") as f:
                    f.write(output)
            except OSError as e:
                raise _UserError("cannot write %s: %s" % (opts["out"], e))
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
