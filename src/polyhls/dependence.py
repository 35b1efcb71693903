"""Memory-based dependence analysis over scheduled SCoPs.

A dependence between two statement instances exists when both touch the
same array cell, at least one writes, and the source is scheduled strictly
before the target.  The lexicographic order is split per time level: one
candidate polyhedron per "first differing level", each a pure conjunction
that Fourier-Motzkin emptiness can decide.  A dependence's distance is
read off one Fourier-Motzkin projection per loop level, so no relation
point is ever enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .affine import EQ, INEQ, IntegerSet, format_set

FLOW = "flow"
ANTI = "anti"
OUTPUT = "output"


@dataclass(frozen=True)
class Dependence:
    source: str
    target: str
    kind: str  # flow / anti / output
    relation: IntegerSet  # dims = source dims ++ target dims
    level: int  # schedule time level carrying the dependence
    src_dims: int
    distance: tuple = None  # per schedule loop level, when uniform

    def __str__(self):
        d = "distance (%s)" % ", ".join(map(str, self.distance)) if self.distance else "non-uniform"
        return "%s -> %s : %s : %s : %s" % (
            self.source, self.target, self.kind, d, format_set(self.relation))


def relations(scop):
    """Yield (source stmt, target stmt, kind, level, relation) for every
    non-empty relation: per statement pair and access pair (flow and
    output per write, then anti), split by the time level that carries it.

    A relation is over (p dims ++ q dims).  Both domains and the context
    are intersected once per statement pair and the equal accessed cell
    once per access pair; the relation carried at level k adds the equal
    schedules before k and the strict order at k.  The emptiness test
    never drops a real dependence (it may keep a spurious one when
    symbols stay free)."""
    ns = len(scop.symbols)
    for sp in scop.statements:
        for sq in scop.statements:
            pairs = []
            for arr, wp in sp.writes:
                for arr2, rq in sq.reads:
                    if arr == arr2:
                        pairs.append((FLOW, wp, rq))
                for arr2, wq in sq.writes:
                    if arr == arr2:
                        pairs.append((OUTPUT, wp, wq))
            for arr, rp in sp.reads:
                for arr2, wq in sq.writes:
                    if arr == arr2:
                        pairs.append((ANTI, rp, wq))
            if not pairs:
                continue
            dp, dq = sp.domain.num_dims, sq.domain.num_dims
            both = sp.domain.insert_dims(dp, dq).intersect(sq.domain.insert_dims(0, dp)).intersect(
                scop.context.insert_dims(0, dp + dq))
            order = []  # per level: (strictly ordered at it, equal at it)
            for lvl in range(scop.time_depth):
                diff = time_difference(sp, sq, lvl)
                order.append((IntegerSet.from_constraints(dp + dq, ns, [(diff - 1, INEQ)]),
                              IntegerSet.from_constraints(dp + dq, ns, [(diff, EQ)])))
            for kind, ap, aq in pairs:
                prefix = both.where([(ep - eq_.insert_dims(0, dp), EQ)
                                     for ep, eq_ in zip(ap.results, aq.results)])
                for level, (strict, equal) in enumerate(order):
                    rel = prefix.intersect(strict)
                    if not rel.is_empty():
                        yield sp, sq, kind, level, rel
                    prefix = prefix.intersect(equal)


def time_difference(sp, sq, level):
    """φ_q - φ_p at schedule `level`, over a relation's (p ++ q) dims."""
    dp = sp.domain.num_dims
    return sq.schedule.results[level].insert_dims(0, dp) - sp.schedule.results[level]


def _distance(rel, sp, sq, loop_levels):
    """Per-loop-level time difference when it is one constant over the
    relation, else None.  `IntegerSet.range_of` reads each level's
    difference off a projection; its bounds hold on a rational superset of
    the relation, so equal bounds are exact."""
    dist = []
    for level in loop_levels:
        bounds = rel.range_of(time_difference(sp, sq, level))
        if bounds is None or bounds[0] is None or bounds[0] != bounds[1]:
            return None
        dist.append(bounds[0])
    return tuple(dist)


def compute_dependences(scop):
    """One Dependence per (statement pair, access pair, carried level) of
    `relations`, with its exact distance when uniform."""
    loop_levels = scop.loop_levels()
    return [Dependence(sp.name, sq.name, kind, rel, level, sp.domain.num_dims,
                       _distance(rel, sp, sq, loop_levels))
            for sp, sq, kind, level, rel in relations(scop)]


def is_loop_parallel(scop, deps, loop_dim):
    """True iff no dependence is carried at the given schedule loop dim
    (index into `scop.loop_levels()`)."""
    level = scop.loop_levels()[loop_dim]
    return all(d.level != level for d in deps)


def dump_deps(deps):
    """`--dump=deps` text."""
    lines = []
    for d in deps:
        lines.append(str(d))
    if not deps:
        lines.append("(no dependences)")
    return "\n".join(lines) + "\n"
