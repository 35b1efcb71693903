"""Schedule/domain transformations: rectangular tiling, skewing, tile-band
wavefront parallelization, and sub-bounding-box tiling.

Tiling is encoded polyhedrally: tile indices become real domain dims T with
``s*T <= phi(x) <= s*T + s - 1`` constraints on the band's schedule rows
phi (Pluto's tiling hyperplanes) and the schedule grows matching outer time
levels, so code generation derives the tiled bounds mechanically from the
same representation.
"""

from __future__ import annotations

from dataclasses import replace

from .affine import INEQ, AffineMap, Const, DimRef
from .dependence import relations, time_difference
from .errors import IllegalTilingError, ArityMismatchError


class TilingSpec:
    """Tile sizes for an innermost-aligned band of loop dims."""

    def __init__(self, sizes):
        sizes = tuple(int(s) for s in sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise IllegalTilingError("tile sizes must be >= 1")
        self.sizes = sizes


def _first_violation(rels, rows):
    """The first (source, target, kind, time level, violating set) of the
    relations `rels` on which a row's difference can fall below its
    minimum, or None.  ``rows(sp, sq, carried_level)`` lists the
    (time level, difference, minimum) rows that one relation must meet."""
    for sp, sq, kind, level, rel in rels:
        for lvl, diff, least in rows(sp, sq, level):
            # infeasibility of diff <= least - 1 proves diff >= least
            test = rel.where([(least - 1 - diff, INEQ)])
            if not test.is_empty():
                return sp, sq, kind, lvl, test
    return None


def _instance(s, vals):
    return "%s(%s)" % (s.name, ", ".join("%s=%d" % nv for nv in zip(s.dim_names, vals)))


def _rejection(scop, message, found):
    """The IllegalTilingError of a `_first_violation` result: `message` %
    (source, target, time level, witness).  The witness, ``kind
    S1(i=..) -> S2(i=..) at N=..``, is the first point of the violating set
    at the first value 1..8, bound to every symbol, that has one."""
    sp, sq, kind, lvl, test = found
    dp = sp.domain.num_dims
    witness = "%s, with no point at symbol values 1 to 8" % kind
    for n in range(1, 9):
        pts = test.points((n,) * len(scop.symbols))
        if pts:
            p = min(pts)  # lexicographic minimum: the first point scanned
            at = ", ".join("%s=%d" % (name, n) for name in scop.symbols)
            witness = "%s %s -> %s%s" % (kind, _instance(sp, p[:dp]), _instance(sq, p[dp:]),
                                         " at " + at if at else "")
            break
    return IllegalTilingError(message % (sp.name, sq.name, lvl, witness))


def _tile_box(sched, band_levels, sizes):
    """The constraints ``s*T_k <= phi_k <= s*T_k + s - 1`` for the schedule
    row phi_k of each band level, tile dim T_k = d_k and size s, over the
    dims of `sched`."""
    cons = []
    for k, (lvl, size) in enumerate(zip(band_levels, sizes)):
        row = sched.results[lvl]
        cons.append((row - DimRef(k) * size, INEQ))
        cons.append((DimRef(k) * size + size - 1 - row, INEQ))
    return cons


def tile(scop, spec):
    """Rectangular tiling of the innermost band of len(spec.sizes) loops.

    Adds one tile dim per band level (outermost in the domain and the
    schedule) that cuts the level's schedule row into size-s slices;
    point semantics of each domain are unchanged.

    The band must be permutable: every dependence must have a provably
    non-negative time difference at each band level, else the first
    violation raises, naming a witness.  That includes the dependences
    carried before the band: the tile loops go above every original
    schedule level, outer loops and statement sequence included, so a
    dependence carried there is ordered first by the tile indices and
    stays respected only if they do not decrease along it.
    """
    if not scop.statements:
        return scop
    depths = {len(s.body_dims) for s in scop.statements}
    if len(depths) != 1:
        raise IllegalTilingError("tiling requires a uniform loop depth across statements")
    depth = depths.pop()
    if not depth:
        raise IllegalTilingError("tiling requires a loop; the SCoP has none")
    sizes = spec.sizes[-depth:] if len(spec.sizes) > depth else spec.sizes
    m = len(sizes)
    band_levels = scop.loop_levels()[-m:]
    found = _first_violation(relations(scop), lambda sp, sq, _: [
        (lvl, time_difference(sp, sq, lvl), 0) for lvl in band_levels])
    if found:
        raise _rejection(scop, "band is not permutable: dependence %s -> %s may be negative "
                         "at time level %d: %s", found)

    prefix = []
    for k in range(m):
        prefix += [Const(0), DimRef(k)]
    new_stmts = []
    for s in scop.statements:
        sched = s.schedule.insert_dims(0, m)
        new_stmts.append(replace(
            s,
            domain=s.domain.insert_dims(0, m).where(_tile_box(sched, band_levels, sizes)),
            dim_names=tuple("t" + s.dim_names[d] for d in s.body_dims[-m:]) + s.dim_names,
            schedule=AffineMap(sched.num_dims, sched.num_syms, tuple(prefix) + sched.results),
            writes=tuple((a, mp.insert_dims(0, m)) for a, mp in s.writes),
            reads=tuple((a, mp.insert_dims(0, m)) for a, mp in s.reads),
            body_dims=tuple(d + m for d in s.body_dims),
            guard=s.guard.insert_dims(0, m) if s.guard is not None else None,
        ))
    return replace(scop, statements=tuple(new_stmts), tile_sizes=sizes,
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
    # a dependence carried above la stays carried there; one carried at la
    # must stay carried there (new difference >= 1); one carried deeper
    # must not turn negative at la (>= 0)
    found = _first_violation(relations(scop), lambda sp, sq, level: [
        (la, time_difference(sp, sq, la) + time_difference(sp, sq, lb) * factor,
         1 if level == la else 0)] if level >= la else [])
    if found:
        raise _rejection(scop, "skew reverses dependence %s -> %s at time level %d: %s", found)
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
    if len(scop.tile_sizes) < 2:
        raise IllegalTilingError("wavefront needs a tiled 2-band; run tile first")
    skewed = skew(scop, (0, 1), 1)
    return replace(skewed, parallel_levels=frozenset({skewed.loop_levels()[1]}))


def sub_bounding_box_tile(scop, spec):
    """Uniform per-tile bounds: every tile iterates the full size-s box of
    each band row, with a guard masking points outside the original domain.
    Applies `tile` first when the scop is untiled; a tiled scop must have
    been tiled with the same sizes.

    Everything is read off the tiled scop.  Its point dims are the dims the
    band rows read.  Its guard is the tiled domain with the tile dims
    eliminated: only the box rows read a tile dim, and Fourier-Motzkin of
    each pair of them gives ``s*(s-1) >= 0``, so the guard is the original
    domain exactly."""
    if not scop.statements:
        return scop
    if not scop.tile_sizes:
        scop = tile(scop, spec)
    sizes = scop.tile_sizes
    depth = len(scop.statements[0].body_dims)
    if spec.sizes[-depth:] != sizes:
        raise IllegalTilingError("sub-bounding-box sizes %s differ from the tile sizes %s"
                                 % (spec.sizes[-depth:], sizes))
    m = len(sizes)
    band_levels = scop.loop_levels()[-m:]
    new_stmts = []
    for s in scop.statements:
        box = _tile_box(s.schedule, band_levels, sizes)
        if s.domain.where(box) != s.domain:
            raise IllegalTilingError("statement %s: the band rows differ from the rows it "
                                     "was tiled by" % s.name)
        point_dims = sorted({d for lvl in band_levels for d, _ in s.schedule.results[lvl].dims})
        # the tile constraints on the dims outside the box
        emb = s.domain.eliminate(reversed(point_dims))
        orig = s.domain.eliminate(range(m))
        guard = orig if s.guard is None else orig.intersect(s.guard)
        new_stmts.append(replace(s, domain=emb.where(box), guard=guard))
    return replace(scop, statements=tuple(new_stmts))
