"""CLI driver tests (invoked in-process through cli.main)."""

from dataclasses import replace

import pytest

from polyhls import cli, ir, transforms

import corpus

# two `#pragma scop` regions: a 2-D stencil and a 1-D recurrence
TWO_REGION = """\
int N;
float A[N][N];
float B[N];
#pragma scop
for (i = 1; i < N; i++) {
  for (j = 1; j < N; j++) {
    A[i][j] = A[i-1][j] + A[i][j-1];
  }
}
#pragma endscop
#pragma scop
for (i = 1; i < N; i++) {
  B[i] = B[i-1] + 1.0;
}
#pragma endscop
"""


@pytest.fixture
def pc_file(tmp_path):
    f = tmp_path / "stencil.pc"
    f.write_text(corpus.STENCIL2D.source)
    return str(f)


def corpus_file(tmp_path, entry):
    f = tmp_path / (entry.name + ".pc")
    f.write_text(entry.source)
    return str(f)


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompile:
    def test_emit_affine_identity_pipeline(self, pc_file, capsys):
        code, out, err = run_cli(capsys, pc_file, "--emit=affine")
        assert code == 0 and err == ""
        assert "affine.for i" in out and "call @S1(i, j)" in out

    def test_emit_hls_c_wavefront_pipeline(self, pc_file, capsys):
        code, out, _ = run_cli(capsys, pc_file, "-tile=32,32", "-wavefront",
                               "--emit=hls-c")
        assert code == 0
        assert "scop0_kernel" in out
        assert "#pragma HLS pipeline II=1" in out
        assert "/* parallel */" in out

    def test_emit_scop(self, pc_file, capsys):
        code, out, _ = run_cli(capsys, pc_file, "--emit=scop")
        assert code == 0 and "stmt S1" in out

    def test_dump_deps(self, pc_file, capsys):
        code, out, _ = run_cli(capsys, pc_file, "--dump=deps")
        assert code == 0
        assert "distance (1, 0)" in out and "distance (0, 1)" in out

    def test_output_file(self, pc_file, capsys, tmp_path):
        dest = tmp_path / "out.air"
        code, out, _ = run_cli(capsys, pc_file, "--emit=affine", "-o", str(dest))
        assert code == 0 and out == ""
        assert "module {" in dest.read_text()

    @pytest.mark.parametrize("dest", ["missing/x.c", ""], ids=["no-dir", "empty"])
    def test_unwritable_output_is_user_error(self, pc_file, capsys, tmp_path, dest):
        path = str(tmp_path / dest) if dest else dest
        code, out, err = run_cli(capsys, pc_file, "--emit=affine", "-o", path)
        assert code == 1 and out == ""
        assert err.startswith("poly-hls: error: cannot write %s: " % path)

    def test_dumps_stay_on_stdout_with_output_file(self, pc_file, capsys, tmp_path):
        dest = tmp_path / "k.c"
        code, out, _ = run_cli(capsys, pc_file, "--dump=deps", "--emit=hls-c", "-o", str(dest))
        assert code == 0 and out.startswith("S1 -> S1 : flow : distance (1, 0)")
        assert dest.read_text() == run_cli(capsys, pc_file, "--emit=hls-c")[1]
        # without -o the dumps come first on stdout, then the emit
        assert run_cli(capsys, pc_file, "--dump=deps", "--emit=hls-c")[1] == \
            out + dest.read_text()

    @pytest.mark.parametrize("args", [("--help", "--emit=affine"), ("--emit=affine", "--help")],
                             ids=["help-first", "help-last"])
    def test_help_wins_over_emit(self, pc_file, capsys, args):
        code, out, err = run_cli(capsys, pc_file, *args)
        assert code == 0 and out == cli._USAGE and err == ""

    @pytest.mark.parametrize("order", [("bounds", "scop"), ("scop", "bounds")])
    def test_two_scop_regions(self, capsys, tmp_path, order):
        # each dump covers both SCoPs, the dumps follow flag order, then the emit
        f = tmp_path / "two_region.pc"
        f.write_text(TWO_REGION)
        scops = run_cli(capsys, str(f), "-tile=4", "--emit=scop")[1]
        assert scops.index("scop scop0") < scops.index("scop scop1")
        assert run_cli(capsys, str(f), "-tile=4", "--dump=scop")[1] == scops
        bounds = run_cli(capsys, str(f), "-tile=4", "--dump=bounds")[1]
        assert bounds.startswith("tj: ") and "\nti: " in bounds
        code, out, err = run_cli(capsys, str(f), "-tile=4",
                                 *["--dump=" + d for d in order], "--emit=scop")
        assert code == 0 and err == ""
        assert out == "".join({"bounds": bounds, "scop": scops}[d] for d in order) + scops

    def test_module_emit_of_two_scop_regions_is_user_error(self, capsys, tmp_path):
        f = tmp_path / "two_region.pc"
        f.write_text(TWO_REGION)
        code, out, err = run_cli(capsys, str(f), "--emit=affine")
        assert code == 1 and out == ""
        assert err == "poly-hls: error: --emit=affine supports exactly one SCoP (input has 2)\n"

    def test_deterministic_output(self, pc_file, capsys):
        _, a, _ = run_cli(capsys, pc_file, "-tile=8,8", "-wavefront", "--emit=hls-c")
        _, b, _ = run_cli(capsys, pc_file, "-tile=8,8", "-wavefront", "--emit=hls-c")
        assert a == b

    def test_affine_round_trip_to_std(self, pc_file, capsys, tmp_path):
        air = tmp_path / "m.air"
        code, _, _ = run_cli(capsys, pc_file, "-tile=4,4", "--emit=affine",
                             "-o", str(air))
        assert code == 0
        code, out, _ = run_cli(capsys, str(air), "--emit=std")
        assert code == 0 and "call S1(i, j)" in out

    def test_exponent_literal_survives_air(self, capsys, tmp_path):
        src = tmp_path / "scale.pc"
        src.write_text("int N;\nfloat A[N];\n#pragma scop\nfor (i = 0; i < N; i++) {\n"
                       "  A[i] = A[i] * 0.00001 + 1e17;\n}\n#pragma endscop\n")
        air = tmp_path / "scale.air"
        code, _, _ = run_cli(capsys, str(src), "--emit=affine", "-o", str(air))
        assert code == 0 and "1e-05" in air.read_text()
        code, from_air, _ = run_cli(capsys, str(air), "--emit=hls-c")
        assert code == 0
        assert from_air == run_cli(capsys, str(src), "--emit=hls-c")[1]

    def test_verify_each(self, pc_file, capsys):
        code, out, _ = run_cli(capsys, pc_file, "-tile=4,4", "-wavefront",
                               "--verify-each", "--emit=affine")
        assert code == 0 and "module {" in out

    def test_verify_each_honours_assume(self, capsys, tmp_path):
        # every symbol at 5 violates M >= 2*N
        f = corpus_file(tmp_path, corpus.STRIDED)
        code, out, err = run_cli(capsys, f, "-tile=4", "--assume", "M >= 2*N", "--verify-each",
                                 "--emit=affine")
        assert code == 0 and err == "" and "module {" in out

    def test_verify_each_reuses_module(self, pc_file, capsys, monkeypatch):
        # one module per pass, the last one emitted
        calls = []
        real = cli.generate_loops

        def counted(scop):
            calls.append(scop)
            return real(scop)

        monkeypatch.setattr(cli, "generate_loops", counted)
        code, out, _ = run_cli(capsys, pc_file, "-tile=4,4", "-wavefront", "--verify-each",
                               "--emit=affine")
        assert code == 0 and "affine.parallel_for" in out
        assert len(calls) == 2

    def test_verify_each_without_passes_runs_nothing(self, pc_file, capsys, monkeypatch):
        # no pass, so no snapshot to compare against
        calls = []
        real = cli.interp.run

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli.interp, "run", counted)
        code, out, _ = run_cli(capsys, pc_file, "--verify-each", "--emit=affine")
        assert code == 0 and "module {" in out
        assert calls == []

    def test_dump_bounds_reuses_module(self, pc_file, capsys, monkeypatch):
        calls = []
        real = cli.generate_loops

        def counted(scop):
            calls.append(scop)
            return real(scop)

        monkeypatch.setattr(cli, "generate_loops", counted)
        code, out, _ = run_cli(capsys, pc_file, "-tile=4,4", "--dump=bounds", "--emit=hls-c")
        assert code == 0 and "scop0_kernel" in out
        assert len(calls) == 1

    @pytest.mark.parametrize("assume, row", [
        ("N>=2", "N - 2 >= 0"),
        ("N >= T + 1", "-T + N - 1 >= 0"),
        ("X>=1", None),
        ("N>=2 x", None),
        ("N>=1.5", None),
    ], ids=["ge-const", "two-symbols", "unknown-symbol", "trailing-text", "non-affine"])
    def test_assume_tightens_context(self, capsys, tmp_path, assume, row):
        f = tmp_path / "jacobi.pc"
        f.write_text(corpus.JACOBI_2D.source)
        code, out, err = run_cli(capsys, str(f), "--assume", assume, "--emit=scop")
        if row is None:
            assert code == 1 and out == "" and err.startswith("poly-hls: error: ")
            assert "Traceback" not in err
        else:
            assert code == 0 and row in out


class TestErrors:
    def test_unknown_flag(self, pc_file, capsys):
        code, _, err = run_cli(capsys, pc_file, "--frobnicate")
        assert code == 1 and "unknown flag" in err

    def test_missing_input(self, capsys):
        code, _, err = run_cli(capsys, "/nonexistent/x.pc", "--emit=affine")
        assert code == 1

    def test_verify_each_mismatch_is_user_error(self, capsys, tmp_path, monkeypatch):
        # a broken pass that drops a statement must be a typed error (exit 1)
        f = tmp_path / "two_stmt.pc"
        f.write_text(corpus.TWO_STMT.source)
        real = transforms.tile

        def drop_stmt(scop, spec):
            scop = real(scop, spec)
            return replace(scop, statements=scop.statements[:1])

        monkeypatch.setattr(cli, "tile", drop_stmt)
        code, _, err = run_cli(capsys, str(f), "-tile=4", "--verify-each", "--emit=affine")
        assert code == 1
        assert "error: after tile: interpreter mismatch at N=5" in err

    def test_verify_each_checks_the_emitted_module(self, pc_file, capsys, monkeypatch):
        # a simplifier that drops the last iteration of every loop: the
        # module it returns is the one emitted, so it must be the one checked
        real = cli.simplify_bounds

        def shrink(ops):
            out = []
            for op in ops:
                if isinstance(op, ir.For):
                    ub = replace(op.ub.map, results=tuple(r - 1 for r in op.ub.map.results))
                    op = replace(op, ub=replace(op.ub, map=ub), body=shrink(op.body))
                elif isinstance(op, ir.If):
                    op = replace(op, then=shrink(op.then), els=shrink(op.els))
                out.append(op)
            return tuple(out)

        def broken(module):
            module = real(module)
            return replace(module, body=shrink(module.body))

        monkeypatch.setattr(cli, "simplify_bounds", broken)
        code, out, err = run_cli(capsys, pc_file, "-tile=4,4", "--verify-each", "--emit=affine")
        assert code == 1 and out == ""
        assert err == "poly-hls: error: after tile: interpreter mismatch at N=5\n"

    def test_verify_each_mismatch_names_every_binding(self, capsys, tmp_path, monkeypatch):
        # N=5, M=10 is the first binding in 5..15 that M >= 2*N allows
        f = corpus_file(tmp_path, corpus.STRIDED)
        monkeypatch.setattr(cli, "simplify_bounds", lambda module: replace(module, body=()))
        code, out, err = run_cli(capsys, f, "-tile=4", "--assume", "M >= 2*N", "--verify-each",
                                 "--emit=affine")
        assert code == 1 and out == ""
        assert err == "poly-hls: error: after tile: interpreter mismatch at N=5, M=10\n"

    def test_verify_each_out_of_bounds_names_instance(self, capsys, tmp_path):
        src = tmp_path / "shifted.pc"
        src.write_text("int N;\nfloat A[N];\n#pragma scop\nfor (i = 0; i < N; i++) {\n"
                       "  A[i+N] = 1.0;\n}\n#pragma endscop\n")
        code, out, err = run_cli(capsys, str(src), "-tile=4", "--verify-each", "--emit=affine")
        assert code == 1 and out == ""
        assert err == "poly-hls: error: array A: index [5] out of bounds [5] at S1(0)\n"

    def test_verify_each_without_a_binding_is_user_error(self, pc_file, capsys):
        code, _, err = run_cli(capsys, pc_file, "-tile=4,4", "--assume", "N >= 16",
                               "--verify-each", "--emit=affine")
        assert code == 1
        assert err == ("poly-hls: error: --verify-each: no binding of the symbols in 5..15 "
                       "satisfies the context\n")

    def test_illegal_tiling_of_two_nests_is_user_error(self, capsys, tmp_path):
        f = tmp_path / "two_nest.pc"
        f.write_text(corpus.TWO_NEST.source)
        code, _, err = run_cli(capsys, str(f), "-tile=4,4", "--verify-each", "--emit=affine")
        assert code == 1 and "not permutable" in err

    def test_illegal_tiling_is_user_error(self, capsys, tmp_path):
        f = tmp_path / "rev.pc"
        f.write_text(
            "int N;\nint A[N][N];\n#pragma scop\n"
            "for (i = 1; i < N; i++) {\n  for (j = 0; j < N - 1; j++) {\n"
            "    A[i][j] = A[i-1][j+1] + 1;\n  }\n}\n#pragma endscop\n")
        code, _, err = run_cli(capsys, str(f), "-tile=4,4", "--emit=affine")
        assert code == 1 and "permutable" in err

    def test_reversing_skew_is_user_error(self, pc_file, capsys):
        code, out, err = run_cli(capsys, pc_file, "-skew=0,1,-1", "--dump=deps")
        assert code == 1 and out == "" and "skew reverses dependence" in err

    def test_skewed_band_is_codegen_error(self, capsys, tmp_path):
        # the tiled Scop is right, but codegen cannot yet call a statement
        # whose loop var is not a loop of the nest
        f = corpus_file(tmp_path, corpus.SEIDEL_1D)
        code, out, err = run_cli(capsys, f, "-skew=1,0,1", "-tile=4,4", "--emit=affine")
        assert code == 1 and out == ""
        assert err == "poly-hls: error: statement S1: loop var i is not directly scheduled\n"

    def test_loop_var_shadowing_symbol_is_invalid_module(self, capsys, tmp_path):
        f = tmp_path / "shadow.air"
        f.write_text("#map0 = affine_map<()[s0] -> (0)>\n#map1 = affine_map<()[s0] -> (s0)>\n"
                     "module {\n  symbol ti\n  array A : float64 [ti]\n"
                     "  stmt S1(i) { A[i] = A[i] + 1.0; }\n"
                     "  affine.for ti = max #map0()[ti] to min #map1()[ti] {\n"
                     "    call @S1(ti)\n  }\n}\n")
        code, out, err = run_cli(capsys, str(f), "--emit=hls-c")
        assert code == 1 and out == ""
        assert "invalid module: loop var 'ti' shadows a symbol" in err

    def test_passes_on_affine_input_rejected(self, capsys, tmp_path):
        f = tmp_path / "m.air"
        f.write_text("module {\n}\n")
        code, _, err = run_cli(capsys, str(f), "-tile=4,4", "--emit=affine")
        assert code == 1 and "-tile needs a .pc input" in err

    @pytest.mark.parametrize("flags", [["--assume", "N>=2"], ["--verify-each"]],
                             ids=["assume", "verify-each"])
    def test_pc_only_flag_on_affine_input(self, capsys, tmp_path, flags):
        air = tmp_path / "copy.air"
        air.write_text(run_cli(capsys, corpus_file(tmp_path, corpus.COPY), "--emit=affine")[1])
        code, out, err = run_cli(capsys, str(air), "--emit=std", *flags)
        assert code == 1 and out == ""
        assert "error: %s needs a .pc input" % flags[0] in err

    @pytest.mark.parametrize("flag", ["-tile=4", "--emit=std", "--dump=deps", "--assume=N>=2",
                                      "--verify-each", "--emit=", "--dump="])
    def test_compile_flag_in_run_mode(self, capsys, tmp_path, flag):
        code, out, err = run_cli(capsys, "run", corpus_file(tmp_path, corpus.COPY),
                                 "--set", "N=3", flag)
        assert code == 1 and out == ""
        assert "error: %s needs" % flag.partition("=")[0] in err

    @pytest.mark.parametrize("flags", [["--set", "N=3"], ["--init", "A=@a.txt"], ["--trace"],
                                       ["--dump-arrays"]], ids=["set", "init", "trace", "dump-arrays"])
    def test_run_flag_in_compile_mode(self, capsys, tmp_path, flags):
        code, out, err = run_cli(capsys, corpus_file(tmp_path, corpus.COPY), "--emit=std", *flags)
        assert code == 1 and out == ""
        assert "error: %s needs run mode" % flags[0] in err

    def test_syntax_error_reported(self, capsys, tmp_path):
        f = tmp_path / "bad.pc"
        f.write_text("int N;\nfor (i = 0; i < N; i += 2) { }\n")
        code, _, err = run_cli(capsys, str(f))
        assert code == 1 and "error" in err


    def test_malformed_float_literal_reported(self, capsys, tmp_path):
        f = tmp_path / "bad.pc"
        f.write_text("int N;\nfloat A[N];\nfor (i = 0; i < N; i++) { A[i] = 1.2.3; }\n")
        code, _, err = run_cli(capsys, str(f))
        assert code == 1 and "3:" in err


class TestRun:
    def test_run_with_init_and_dump(self, pc_file, capsys, tmp_path):
        data = tmp_path / "a.txt"
        n = 4
        data.write_text(" ".join(str(float(i + j)) for i in range(n)
                                 for j in range(n)))
        code, out, _ = run_cli(capsys, "run", pc_file, "--set", "N=%d" % n,
                               "--init", "A=@%s" % data, "--dump-arrays")
        assert code == 0
        vals = out.split(" = ")[1].split()
        assert len(vals) == n * n
        assert float(vals[5]) == 2.0  # A[1][1] = A[0][1] + A[1][0] = 1 + 1

    def test_run_trace(self, pc_file, capsys):
        code, out, _ = run_cli(capsys, "run", pc_file, "--set", "N=3", "--trace")
        assert code == 0
        assert out.splitlines() == ["S1(1, 1)", "S1(1, 2)", "S1(2, 1)", "S1(2, 2)"]

    def test_run_seeded_shuffle(self, pc_file, capsys, tmp_path, monkeypatch):
        air = tmp_path / "m.air"
        run_cli(capsys, pc_file, "-tile=4,4", "-wavefront", "--emit=affine",
                "-o", str(air))
        monkeypatch.setenv("POLYHLS_SEED", "7")
        code, a, _ = run_cli(capsys, "run", str(air), "--set", "N=9", "--trace")
        assert code == 0
        code, b, _ = run_cli(capsys, "run", str(air), "--set", "N=9", "--trace")
        assert a == b  # same seed, same order
        monkeypatch.setenv("POLYHLS_SEED", "8")
        _, c, _ = run_cli(capsys, "run", str(air), "--set", "N=9", "--trace")
        assert a != c

    def test_run_rejects_invalid_module(self, capsys, tmp_path):
        f = tmp_path / "m.air"
        f.write_text("#map0 = affine_map<() -> (0)>\n"
                     "#map1 = affine_map<() -> (4)>\n"
                     "module {\n  symbol N\n  array A : float64 [N]\n"
                     "  stmt S1(i) { A[i] = A[i] + 1.0; }\n"
                     "  affine.for i = max #map0() to min #map1() {\n"
                     "    call @S1(k)\n  }\n}\n")
        code, _, err = run_cli(capsys, "run", str(f), "--set", "N=8")
        assert code == 1 and "invalid module" in err and "'k'" in err

    def test_run_bad_set(self, pc_file, capsys):
        code, _, err = run_cli(capsys, "run", pc_file, "--set", "N=lots")
        assert code == 1
