"""Tiling / skewing / wavefront / sub-bounding-box transform tests."""

import pytest

from polyhls import frontend as fe, interp, transforms
from polyhls.affine import IntegerSet, eval_expr
from polyhls.dependence import compute_dependences, is_loop_parallel
from polyhls.errors import IllegalTilingError
from polyhls.scop import build_scop
from polyhls.transforms import (TilingSpec, skew, sub_bounding_box_tile, tile,
                                wavefront_parallelize)

import corpus


def stencil():
    return build_scop(fe.parse_program(corpus.STENCIL2D.source))[0]


class TestTile:
    def test_tile_constraints(self):
        scop = tile(stencil(), TilingSpec((32, 32)))
        s = scop.statements[0]
        assert s.dim_names == ("ti", "tj", "i", "j")
        # 32*ti <= i <= 32*ti + 31 etc.
        assert s.domain.contains((1, 0, 33, 4), (64,))
        assert not s.domain.contains((0, 0, 33, 4), (64,))
        assert not s.domain.contains((1, 0, 33, 33), (64,))

    def test_point_semantics_unchanged(self):
        scop = tile(stencil(), TilingSpec((4, 4)))
        s = scop.statements[0]
        for n in (5, 10):
            pts = {p[2:] for p in s.domain.points((n,))}
            assert pts == {(i, j) for i in range(1, n) for j in range(1, n)}
            # each point appears under exactly one tile
            assert len(s.domain.points((n,))) == (n - 1) ** 2

    def test_tile_count_at_n10_size4(self):
        scop = tile(stencil(), TilingSpec((4, 4)))
        s = scop.statements[0]
        pts = s.domain.points((10,))
        assert len(pts) == 81
        assert len({p[:2] for p in pts}) == 9  # 3 tiles per dim

    def test_unit_tiling_is_identity_semantics(self):
        prog = fe.parse_program(corpus.STENCIL2D.source)
        scop = tile(build_scop(prog)[0], TilingSpec((1, 1)))
        init = corpus.init_arrays(prog, {"N": 7}, seed=3)
        a = interp.run(prog, {"N": 7}, init).arrays["A"].data
        b = interp.run(scop, {"N": 7}, init).arrays["A"].data
        assert a == b

    def test_unit_tiling_trace_matches_original(self):
        prog = fe.parse_program(corpus.STENCIL2D.source)
        orig = build_scop(prog)[0]
        tiled = tile(build_scop(prog)[0], TilingSpec((1, 1)))
        assert corpus.scheduled_trace(tiled, 6) == corpus.scheduled_trace(orig, 6)

    def test_illegal_band_rejected(self):
        # reversal-style dependence: distance (1, -1) is negative in j
        src = ("int N;\nint A[N][N];\n#pragma scop\n"
               "for (i = 1; i < N; i++) {\n  for (j = 0; j < N - 1; j++) {\n"
               "    A[i][j] = A[i-1][j+1] + 1;\n  }\n}\n#pragma endscop\n")
        scop = build_scop(fe.parse_program(src))[0]
        with pytest.raises(IllegalTilingError):
            tile(scop, TilingSpec((4, 4)))

    @pytest.mark.parametrize("entry, witness", [
        (corpus.TWO_NEST, "S1 -> S2 may be negative at time level 1: "
                          "flow S1(i=1, j=0) -> S2(j=0, i=1) at N=2"),
        (corpus.JACOBI_2D, "S1 -> S2 may be negative at time level 5: "
                           "flow S1(t=0, i=1, j=2) -> S2(t=1, i=1, j=1) at T=4, N=4"),
    ], ids=["two_nest", "jacobi-2d"])
    def test_dependence_carried_before_band_rejected(self, entry, witness):
        # the tile loops go above the loops and the statement sequence
        # that carry these dependences, which the tiled order would break;
        # the error names the dependence and its first violating instance
        # pair at the smallest symbol value that has one
        scop = build_scop(fe.parse_program(entry.source))[0]
        with pytest.raises(IllegalTilingError, match="not permutable") as err:
            tile(scop, TilingSpec((4, 4)))
        assert str(err.value).endswith(witness)

    @pytest.mark.parametrize("transform", [tile, sub_bounding_box_tile])
    def test_scop_without_loop_rejected(self, transform):
        # `sizes[-0:]` would take every size and tile a dim the SCoP lacks
        src = "float A[4];\n#pragma scop\nA[0] = A[1] + 1.0;\n#pragma endscop\n"
        scop = build_scop(fe.parse_program(src))[0]
        with pytest.raises(IllegalTilingError, match="tiling requires a loop"):
            transform(scop, TilingSpec((4,)))

    def test_bad_sizes_rejected(self):
        with pytest.raises(IllegalTilingError):
            TilingSpec((0, 4))


class TestSkew:
    def test_factor_zero_is_identity(self):
        scop = stencil()
        assert skew(scop, (0, 1), 0) is scop

    def test_skewed_distances(self):
        scop = skew(stencil(), (0, 1), 1)
        deps = compute_dependences(scop)
        assert sorted(d.distance for d in deps) == [(1, 0), (1, 1)]

    def test_tile_dim_skew_gives_wavefront_schedule(self):
        scop = skew(tile(stencil(), TilingSpec((32, 32))), (0, 1), 1)
        s = scop.statements[0]
        # time level 1 is now ti + tj
        assert eval_expr(s.schedule.results[1], (2, 3, 70, 100), (200,)) == 5

    def test_semantics_preserved(self):
        prog = fe.parse_program(corpus.STENCIL2D.source)
        scop = skew(build_scop(prog)[0], (0, 1), 1)
        init = corpus.init_arrays(prog, {"N": 8}, seed=1)
        assert interp.run(prog, {"N": 8}, init).arrays["A"].data == \
            interp.run(scop, {"N": 8}, init).arrays["A"].data

    def test_legal_negative_skew_accepted(self):
        # j - i keeps both distances (1, 0) and (0, 1) lexicographically
        # positive: (1, -1) and (0, 1)
        prog = fe.parse_program(corpus.STENCIL2D.source)
        scop = skew(build_scop(prog)[0], (1, 0), -1)
        assert sorted(d.distance for d in compute_dependences(scop)) == [(0, 1), (1, -1)]
        init = corpus.init_arrays(prog, {"N": 8}, seed=1)
        assert interp.run(prog, {"N": 8}, init).arrays["A"].data == \
            interp.run(scop, {"N": 8}, init).arrays["A"].data

    def test_reversing_skew_rejected(self):
        # i - j runs A[i][j-1] -> A[i][j] (distance (0, 1)) backwards
        with pytest.raises(IllegalTilingError,
                           match=r"skew reverses dependence S1 -> S1 at time level 1: "
                                 r"flow S1\(i=1, j=1\) -> S1\(i=1, j=2\) at N=3"):
            skew(stencil(), (0, 1), -1)

    def test_skew_that_uncarries_a_dependence_rejected(self):
        # i + j turns the distance (1, -1), carried at i, into (0, -1): it
        # must stay carried at the skewed level, not only stay non-negative
        src = ("int N;\nint A[N][N];\n#pragma scop\nfor (i = 1; i < N; i++) {\n"
               "  for (j = 0; j < N - 1; j++) {\n    A[i][j] = A[i-1][j+1] + 1;\n  }\n}\n"
               "#pragma endscop\n")
        with pytest.raises(IllegalTilingError,
                           match=r"skew reverses dependence S1 -> S1 at time level 1: "
                                 r"flow S1\(i=1, j=1\) -> S1\(i=2, j=0\) at N=3"):
            skew(build_scop(fe.parse_program(src))[0], (0, 1), 1)


class TestTileSkewedBand:
    """The tile box cuts the band's schedule rows: after skewing seidel-1d
    to (t, t + i), the tiles are parallelograms in (t, i)."""

    @pytest.mark.parametrize("pipe", [
        lambda s: tile(s, TilingSpec((4, 4))),
        lambda s: sub_bounding_box_tile(s, TilingSpec((4, 4))),
        lambda s: wavefront_parallelize(tile(s, TilingSpec((4, 4)))),
    ], ids=["tile", "subbb-tile", "tile+wavefront"])
    def test_semantics_preserved(self, pipe):
        prog = fe.parse_program(corpus.SEIDEL_1D.source)
        scop = pipe(skew(build_scop(prog)[0], (1, 0), 1))
        for n in range(5, 18):
            symbols = {"T": n, "N": n}
            init = corpus.init_arrays(prog, symbols, seed=n)
            want = interp.run(prog, symbols, init).arrays["A"].data
            assert interp.run(scop, symbols, init).arrays["A"].data == want, n

    def test_wavefront_tile_loop_parallel(self):
        # the `Scop` executor runs in schedule order, so the parallel mark
        # is checked against the dependences instead
        scop = skew(build_scop(fe.parse_program(corpus.SEIDEL_1D.source))[0], (1, 0), 1)
        scop = wavefront_parallelize(tile(scop, TilingSpec((4, 4))))
        assert is_loop_parallel(scop, compute_dependences(scop), 1)

    def test_subbb_rejects_rows_changed_after_tiling(self):
        # skewing a point row after `tile` leaves tiles that no longer
        # partition the new row, so no box can be read off it
        tiled = skew(tile(stencil(), TilingSpec((4, 4))), (3, 2), 1)
        with pytest.raises(IllegalTilingError, match="differ from the rows it was tiled by"):
            sub_bounding_box_tile(tiled, TilingSpec((4, 4)))


class TestWavefront:
    @pytest.mark.parametrize("entry", [e for e in corpus.ALL if e.depth >= 2],
                             ids=lambda e: e.name)
    def test_marks_inner_tile_loop_parallel(self, entry):
        scop = build_scop(fe.parse_program(entry.source))[0]
        scop = wavefront_parallelize(tile(scop, TilingSpec((4, 4))))
        assert scop.parallel_levels == {scop.loop_levels()[1]}
        # the dependence analysis of the result agrees with the marking
        assert is_loop_parallel(scop, compute_dependences(scop), 1)

    def test_builds_relations_once(self, monkeypatch):
        # skew's legality check is the only dependence pass: it already
        # proves the inner tile loop parallel
        calls = []

        def counted(scop):
            calls.append(scop)
            return real(scop)

        tiled = tile(stencil(), TilingSpec((4, 4)))
        real = transforms.relations
        monkeypatch.setattr(transforms, "relations", counted)
        wavefront_parallelize(tiled)
        assert len(calls) == 1

    def test_requires_tiled_2band(self):
        with pytest.raises(IllegalTilingError):
            wavefront_parallelize(stencil())

    def test_independent_kernel_still_legal(self):
        prog = fe.parse_program(corpus.PASCAL.source)
        scop = wavefront_parallelize(tile(build_scop(prog)[0], TilingSpec((4, 4))))
        assert scop.parallel_levels
        init = corpus.init_arrays(prog, {"N": 13}, seed=2)
        assert interp.run(prog, {"N": 13}, init).arrays["H"].data == \
            interp.run(scop, {"N": 13}, init).arrays["H"].data

    def test_wavefront_sizes_at_n40(self):
        scop = wavefront_parallelize(tile(stencil(), TilingSpec((32, 32))))
        s = scop.statements[0]
        waves = {}
        for p in s.domain.points((40,)):
            t1 = eval_expr(s.schedule.results[1], p, (40,))
            waves.setdefault(t1, set()).add((p[0], p[1]))
        assert sorted(waves) == [0, 1, 2]
        assert [len(waves[k]) for k in sorted(waves)] == [1, 2, 1]

    def test_no_dependence_reversed_after_transforms(self):
        scop = wavefront_parallelize(tile(stencil(), TilingSpec((8, 8))))
        syms = (13,)
        for d in compute_dependences(scop):
            sp = next(s for s in scop.statements if s.name == d.source)
            sq = next(s for s in scop.statements if s.name == d.target)
            for p in d.relation.points(syms):
                ts = sp.schedule.eval(p[:d.src_dims], syms)
                tt = sq.schedule.eval(p[d.src_dims:], syms)
                assert ts < tt


def test_transforms_compute_no_distance(monkeypatch):
    # legality and parallelism need only the relations; a distance is read
    # off `range_of`, so the transforms must never call it
    def no_distance(*args):
        raise AssertionError("a transform computed a distance")

    monkeypatch.setattr(IntegerSet, "range_of", no_distance)
    scop = wavefront_parallelize(tile(stencil(), TilingSpec((4, 4))))
    assert scop.parallel_levels
    sub_bounding_box_tile(stencil(), TilingSpec((4, 4)))
    with pytest.raises(IllegalTilingError):
        tile(build_scop(fe.parse_program(corpus.JACOBI_2D.source))[0], TilingSpec((4, 4)))


class TestSubBoundingBox:
    def test_uniform_trip_counts(self):
        scop = sub_bounding_box_tile(stencil(), TilingSpec((8, 8)))
        s = scop.statements[0]
        n = 20
        per_tile = {}
        for p in s.domain.points((n,)):
            per_tile.setdefault(p[:2], []).append(p[2:])
        assert per_tile and all(len(v) == 64 for v in per_tile.values())

    def test_guard_matches_original_domain(self):
        orig = stencil()
        scop = sub_bounding_box_tile(stencil(), TilingSpec((8, 8)))
        s = scop.statements[0]
        n = 20
        dom = orig.statements[0].domain.points((n,))
        guarded = {p[2:] for p in s.domain.points((n,))
                   if s.guard.contains(p, (n,))}
        assert guarded == dom

    def test_exact_tiling_guards_vacuous(self):
        # aligned domain (0..N-1) with N divisible by the tile size:
        # every box point is in-domain, so every guard holds
        scop = build_scop(fe.parse_program(corpus.COPY.source))[0]
        scop = sub_bounding_box_tile(scop, TilingSpec((4,)))
        s = scop.statements[0]
        n = 8
        assert len(s.domain.points((n,))) == n
        for p in s.domain.points((n,)):
            assert s.guard.contains(p, (n,))

    def test_semantics_equal_plain_tiling(self):
        prog = fe.parse_program(corpus.STENCIL2D.source)
        for n in (5, 13, 33):
            init = corpus.init_arrays(prog, {"N": n}, seed=4)
            plain = interp.run(tile(build_scop(prog)[0], TilingSpec((8, 8))),
                               {"N": n}, init).arrays["A"].data
            subbb = interp.run(sub_bounding_box_tile(build_scop(prog)[0],
                                                     TilingSpec((8, 8))),
                               {"N": n}, init).arrays["A"].data
            assert plain == subbb

    @pytest.mark.parametrize("first", [tile, sub_bounding_box_tile], ids=["tile", "subbb-tile"])
    def test_sizes_must_match_existing_tiling(self, first):
        tiled = first(stencil(), TilingSpec((4, 4)))
        with pytest.raises(IllegalTilingError, match="differ from the tile sizes"):
            sub_bounding_box_tile(tiled, TilingSpec((2, 2)))
        # the sizes are truncated to the band, as `tile` truncates them
        again = sub_bounding_box_tile(tiled, TilingSpec((9, 4, 4)))
        assert again.tile_sizes == (4, 4)

    def test_empty_scop_unchanged(self):
        scop = build_scop(fe.parse_program("int N;\n#pragma scop\n#pragma endscop\n"))[0]
        assert sub_bounding_box_tile(scop, TilingSpec((4,))) is scop
