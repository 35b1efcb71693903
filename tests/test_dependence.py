"""Dependence analysis tests, backed by a brute-force instance-pair oracle."""

from polyhls import frontend as fe
from polyhls.affine import eval_expr
from polyhls.dependence import (ANTI, FLOW, OUTPUT, compute_dependences, dump_deps,
                                is_loop_parallel)
from polyhls.scop import build_scop
from polyhls.transforms import (TilingSpec, skew, sub_bounding_box_tile, tile,
                                wavefront_parallelize)

import corpus


def brute_force_pairs(scop, n):
    """All (kind, src stmt, src point, tgt stmt, tgt point) instance pairs
    touching the same cell with at least one write, in schedule order."""
    syms = (n,) * len(scop.symbols)
    instances = []
    for s in scop.statements:
        for p in sorted(s.domain.points(syms)):
            time = tuple(eval_expr(r, p, syms) for r in s.schedule.results)
            instances.append((time, s, p))
    instances.sort(key=lambda t: t[0])
    out = set()
    for a in range(len(instances)):
        _, sp, pp = instances[a]
        for b in range(a + 1, len(instances)):
            _, sq, pq = instances[b]
            wp = {(arr, m.eval(pp, syms)) for arr, m in sp.writes}
            rp = {(arr, m.eval(pp, syms)) for arr, m in sp.reads}
            wq = {(arr, m.eval(pq, syms)) for arr, m in sq.writes}
            rq = {(arr, m.eval(pq, syms)) for arr, m in sq.reads}
            if wp & rq:
                out.add((FLOW, sp.name, pp, sq.name, pq))
            if wp & wq:
                out.add((OUTPUT, sp.name, pp, sq.name, pq))
            if rp & wq:
                out.add((ANTI, sp.name, pp, sq.name, pq))
    return out


def relation_pairs(scop, deps, n):
    syms = (n,) * len(scop.symbols)
    out = set()
    for d in deps:
        for p in d.relation.points(syms):
            out.add((d.kind, d.source, p[:d.src_dims], d.target, p[d.src_dims:]))
    return out


class TestStencil2d:
    def test_exactly_two_flow_deps(self):
        scop = build_scop(fe.parse_program(corpus.STENCIL2D.source))[0]
        deps = compute_dependences(scop)
        assert sorted(d.kind for d in deps) == [FLOW, FLOW]
        assert sorted(d.distance for d in deps) == [(0, 1), (1, 0)]

    def test_relations_match_brute_force(self):
        scop = build_scop(fe.parse_program(corpus.STENCIL2D.source))[0]
        deps = compute_dependences(scop)
        for n in (6, 10):
            assert relation_pairs(scop, deps, n) == brute_force_pairs(scop, n)

    def test_neither_loop_parallel(self):
        scop = build_scop(fe.parse_program(corpus.STENCIL2D.source))[0]
        deps = compute_dependences(scop)
        assert not is_loop_parallel(scop, deps, 0)
        assert not is_loop_parallel(scop, deps, 1)


class TestSimpleCases:
    def test_disjoint_arrays_no_deps(self):
        scop = build_scop(fe.parse_program(corpus.COPY.source))[0]
        assert compute_dependences(scop) == []

    def test_copy_loop_parallel(self):
        scop = build_scop(fe.parse_program(corpus.COPY.source))[0]
        assert is_loop_parallel(scop, compute_dependences(scop), 0)

    def test_same_iteration_update_not_carried(self):
        # A[i] = A[i] + 1: all conflicts are within one instance
        src = ("int N;\nint A[N];\n#pragma scop\n"
               "for (i = 0; i < N; i++) { A[i] = A[i] + 1; }\n#pragma endscop\n")
        scop = build_scop(fe.parse_program(src))[0]
        deps = compute_dependences(scop)
        assert deps == []
        assert brute_force_pairs(scop, 6) == set()

    def test_non_uniform_distance(self):
        src = ("int N;\nint A[N];\n#pragma scop\n"
               "for (i = 1; i < N; i++) { A[i] = A[i - i + 1] + 1; }\n#pragma endscop\n")
        # reads A[1] at every i: distances vary
        scop = build_scop(fe.parse_program(src))[0]
        deps = [d for d in compute_dependences(scop) if d.kind == FLOW]
        assert deps and all(d.distance is None for d in deps)

    def test_distance_without_points_at_small_sizes(self):
        # no relation point exists for N <= 21, so sampling the relation at
        # small sizes finds no distance; the projection needs no point
        src = ("int N;\nfloat A[N];\n#pragma scop\n"
               "for (i = 20; i < N; i++) { A[i] = A[i-1] + 1.0; }\n#pragma endscop\n")
        scop = build_scop(fe.parse_program(src))[0]
        deps = compute_dependences(scop)
        assert [(d.kind, d.distance) for d in deps] == [(FLOW, (1,))]


_PIPELINES = {
    "none": lambda s, sizes: s,
    "tile": lambda s, sizes: tile(s, TilingSpec(sizes)),
    "tile+skew": lambda s, sizes: skew(tile(s, TilingSpec(sizes)), (0, 1), 1),
    "subbb-tile": lambda s, sizes: sub_bounding_box_tile(s, TilingSpec(sizes)),
}


class TestCorpusOracle:
    def test_all_corpus_relations_exact(self):
        for entry in corpus.ALL:
            scop = build_scop(fe.parse_program(entry.source))[0]
            deps = compute_dependences(scop)
            for n in (4, 6):
                assert relation_pairs(scop, deps, n) == \
                    brute_force_pairs(scop, n), entry.name

    def test_uniform_distances_lex_positive(self):
        # every reported distance is lexicographically positive and equals
        # the schedule difference at every relation point, on each kernel
        # under every pipeline
        syms = (6,)
        for entry in corpus.ALL:
            for pname, pipe in _PIPELINES.items():
                scop = pipe(build_scop(fe.parse_program(entry.source))[0],
                            (4,) * min(2, entry.depth))
                loop_levels = scop.loop_levels()
                stmts = {s.name: s for s in scop.statements}
                for d in compute_dependences(scop):
                    if d.distance is None:
                        continue
                    where = (entry.name, pname, str(d))
                    nz = [v for v in d.distance if v != 0]
                    assert not nz or nz[0] > 0, where
                    for p in d.relation.points(syms):
                        ts = stmts[d.source].schedule.eval(p[:d.src_dims], syms)
                        tt = stmts[d.target].schedule.eval(p[d.src_dims:], syms)
                        assert tuple(tt[l] - ts[l] for l in loop_levels) == d.distance, where


class TestWavefront:
    def test_t2_parallel_after_wavefront(self):
        scop = build_scop(fe.parse_program(corpus.STENCIL2D.source))[0]
        scop = wavefront_parallelize(tile(scop, TilingSpec((32, 32))))
        deps = compute_dependences(scop)
        assert not is_loop_parallel(scop, deps, 0)
        assert is_loop_parallel(scop, deps, 1)


def test_dump_format():
    scop = build_scop(fe.parse_program(corpus.STENCIL2D.source))[0]
    deps = compute_dependences(scop)
    text = dump_deps(deps)
    assert "S1 -> S1 : flow : distance (1, 0)" in text
    assert "S1 -> S1 : flow : distance (0, 1)" in text
