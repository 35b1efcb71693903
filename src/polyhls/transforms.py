"""Schedule/domain transformations: rectangular tiling, skewing, tile-band
wavefront parallelization, and sub-bounding-box tiling.

Tiling is encoded polyhedrally: tile indices become real domain dims with
``s*T <= d <= s*T + s - 1`` constraints and the schedule grows matching
outer time levels, so code generation derives the tiled bounds mechanically
from the same representation.
"""

from __future__ import annotations

from dataclasses import replace

from .affine import INEQ, AffineMap, Const, DimRef, IntegerSet
from .dependence import relations, time_difference
from .errors import IllegalTilingError, ArityMismatchError
from .scop import TilingInfo


class TilingSpec:
    """Tile sizes for an innermost-aligned band of loop dims."""

    def __init__(self, sizes):
        sizes = tuple(int(s) for s in sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise IllegalTilingError("tile sizes must be >= 1")
        self.sizes = sizes


def _violation(rel, expr):
    """The part of `rel` where `expr >= 0`."""
    return rel.intersect(IntegerSet.from_constraints(
        rel.num_dims, rel.num_syms, [(expr, INEQ)]))


def _instance(s, vals):
    return "%s(%s)" % (s.name, ", ".join("%s=%d" % nv for nv in zip(s.dim_names, vals)))


def _witness(scop, sp, sq, kind, test):
    """`kind S1(i=..) -> S2(i=..) at N=..`: the first point of `test` at
    the first value 1..8, bound to every symbol, that has one."""
    dp = sp.domain.num_dims
    for n in range(1, 9):
        pts = test.points((n,) * len(scop.symbols))
        if pts:
            p = min(pts)  # lexicographic minimum: the first point scanned
            at = ", ".join("%s=%d" % (name, n) for name in scop.symbols)
            return "%s %s -> %s%s" % (kind, _instance(sp, p[:dp]), _instance(sq, p[dp:]),
                                      " at " + at if at else "")
    return "%s, with no point at symbol values 1 to 8" % kind


def _tile_box(num_dims, num_syms, tile_dims, point_dims, sizes):
    """``s*t <= d <= s*t + s - 1`` for each tile dim t, point dim d and
    size s."""
    cons = []
    for t, d, size in zip(tile_dims, point_dims, sizes):
        cons.append((DimRef(d) - DimRef(t) * size, INEQ))
        cons.append((DimRef(t) * size + size - 1 - DimRef(d), INEQ))
    return IntegerSet.from_constraints(num_dims, num_syms, cons)


def _check_band_permutable(scop, band_levels):
    """Every dependence must have provably non-negative time difference at
    each band level; the first violation raises, naming a witness.

    That includes the dependences carried before the band: `tile` puts the
    tile loops above every original schedule level, outer loops and
    statement sequence included, so a dependence carried there is ordered
    first by the tile indices and stays respected only if they do not
    decrease along it."""
    for sp, sq, kind, _, rel in relations(scop):
        for lvl in band_levels:
            # infeasibility of diff <= -1 proves diff >= 0 everywhere
            test = _violation(rel, -time_difference(sp, sq, lvl) - 1)
            if not test.is_empty():
                raise IllegalTilingError(
                    "band is not permutable: dependence %s -> %s may be negative "
                    "at time level %d: %s" % (sp.name, sq.name, lvl,
                                               _witness(scop, sp, sq, kind, test)))


def tile(scop, spec):
    """Rectangular tiling of the innermost band of len(spec.sizes) loops.

    Adds one tile dim per tiled loop dim (outermost in the schedule);
    point semantics of each domain are unchanged.
    """
    if not scop.statements:
        return scop
    depths = {len(s.body_dims) for s in scop.statements}
    if len(depths) != 1:
        raise IllegalTilingError("tiling requires a uniform loop depth across statements")
    depth = depths.pop()
    sizes = spec.sizes[-depth:] if len(spec.sizes) > depth else spec.sizes
    m = len(sizes)
    loop_levels = scop.loop_levels()
    band_levels = loop_levels[-m:]
    _check_band_permutable(scop, band_levels)

    ns = len(scop.symbols)
    new_stmts = []
    orig_domains = []
    band_dims = None
    for s in scop.statements:
        band = tuple(s.body_dims[-m:])  # innermost-aligned
        if band_dims is None:
            band_dims = tuple(b + m for b in band)
        dom = s.domain.insert_dims(0, m)
        orig_domains.append(dom)
        dom = dom.intersect(_tile_box(dom.num_dims, ns, range(m), [d + m for d in band], sizes))
        sched = s.schedule.insert_dims(0, m)
        prefix = []
        for k in range(m):
            prefix += [Const(0), DimRef(k)]
        sched = AffineMap(sched.num_dims, ns, tuple(prefix) + sched.results)
        new_stmts.append(replace(
            s,
            domain=dom,
            dim_names=tuple("t" + s.dim_names[d] for d in band) + s.dim_names,
            schedule=sched,
            writes=tuple((a, mp.insert_dims(0, m)) for a, mp in s.writes),
            reads=tuple((a, mp.insert_dims(0, m)) for a, mp in s.reads),
            body_dims=tuple(d + m for d in s.body_dims),
            guard=s.guard.insert_dims(0, m) if s.guard is not None else None,
        ))
    info = TilingInfo(
        sizes=sizes,
        tile_dims=tuple(range(m)),
        point_dims=band_dims,
        orig_domains=tuple(orig_domains),
    )
    return replace(scop, statements=tuple(new_stmts), tiling=info,
                   parallel_levels=frozenset())


def skew(scop, dims, factor):
    """Schedule-level skew: time dim a becomes a + factor*b.  ``dims`` are
    indices into the schedule's loop-dim list.  A skew that would reverse
    a dependence raises IllegalTilingError, naming a witness."""
    a, b = dims
    loop_levels = scop.loop_levels()
    if not (0 <= a < len(loop_levels) and 0 <= b < len(loop_levels)) or a == b:
        raise ArityMismatchError("invalid skew dims (%r, %r)" % (a, b))
    if factor == 0:
        return scop
    la, lb = loop_levels[a], loop_levels[b]
    # a dependence carried at la must stay carried there (new difference
    # >= 1); one carried deeper must not turn negative at la (>= 0)
    for sp, sq, kind, level, rel in relations(scop):
        if level < la:
            continue
        diff = time_difference(sp, sq, la) + time_difference(sp, sq, lb) * factor
        test = _violation(rel, -diff - (0 if level == la else 1))
        if not test.is_empty():
            raise IllegalTilingError(
                "skew reverses dependence %s -> %s at time level %d: %s"
                % (sp.name, sq.name, la, _witness(scop, sp, sq, kind, test)))
    new_stmts = []
    for s in scop.statements:
        res = list(s.schedule.results)
        res[la] = res[la] + res[lb] * factor
        new_stmts.append(replace(s, schedule=AffineMap(s.schedule.num_dims,
                                                       s.schedule.num_syms, tuple(res))))
    return replace(scop, statements=tuple(new_stmts), parallel_levels=frozenset())


def wavefront_parallelize(scop):
    """Skew the two outer tile dims into a wavefront (t1 = ti + tj,
    t2 = tj) and mark the inner tile loop t2 parallel.

    `skew`'s legality check is the only dependence test needed.  Suppose a
    pair were carried at t2 after the skew: its t1 difference would be 0
    and its t2 difference at least 1, so its ti difference would be at most
    -1.  Before the skew the pair would then run the other way round,
    carried at ti with a ti difference of at least 1, and the skew would
    turn that difference into 0; `skew` rejects exactly that."""
    if scop.tiling is None or len(scop.tiling.tile_dims) < 2:
        raise IllegalTilingError("wavefront needs a tiled 2-band; run tile first")
    skewed = skew(scop, (0, 1), 1)
    return replace(skewed, parallel_levels=frozenset({skewed.loop_levels()[1]}))


def sub_bounding_box_tile(scop, spec):
    """Uniform per-tile bounds: every tile iterates the full rectangular
    size-s box per tiled dim, with a guard masking points outside the
    original domain.  Applies `tile` first when the scop is untiled; a
    tiled scop must have been tiled with the same sizes."""
    if not scop.statements:
        return scop
    if scop.tiling is None:
        scop = tile(scop, spec)
    info = scop.tiling
    depth = len(scop.statements[0].body_dims)
    if spec.sizes[-depth:] != info.sizes:
        raise IllegalTilingError("sub-bounding-box sizes %s differ from the tile sizes %s"
                                 % (spec.sizes[-depth:], info.sizes))
    new_stmts = []
    ns = len(scop.symbols)
    for s, orig in zip(scop.statements, info.orig_domains):
        proj = s.domain
        for d in sorted(info.point_dims, reverse=True):
            proj = proj.project(d)
        # re-embed the tile/outer-dim constraints into the full dim space
        emb = proj
        for d in sorted(info.point_dims):
            emb = emb.insert_dims(d, 1)
        box = _tile_box(s.domain.num_dims, ns, info.tile_dims, info.point_dims, info.sizes)
        guard = orig if s.guard is None else orig.intersect(s.guard)
        new_stmts.append(replace(s, domain=emb.intersect(box), guard=guard))
    return replace(scop, statements=tuple(new_stmts))
