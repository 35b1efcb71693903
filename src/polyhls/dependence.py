"""Memory-based dependence analysis over scheduled SCoPs.

A dependence between two statement instances exists when both touch the
same array cell, at least one writes, and the source is scheduled strictly
before the target.  The lexicographic order is split per time level: one
candidate polyhedron per "first differing level", each a pure conjunction
that Fourier-Motzkin emptiness can decide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .affine import EQ, INEQ, IntegerSet, format_set

FLOW = "flow"
ANTI = "anti"
OUTPUT = "output"

# symbol sizes tried when sampling a candidate distance vector
_SAMPLE_SIZES = (6, 8, 10, 13)


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


def _pair_relation(scop, sp, sq, acc_p, acc_q, level):
    """Constraint set over (p dims ++ q dims): both domains, equal accessed
    cell, schedules equal before `level` and strictly ordered at it."""
    dp, dq = sp.domain.num_dims, sq.domain.num_dims
    ns = len(scop.symbols)
    base_p = sp.domain.insert_dims(dp, dq)
    base_q = sq.domain.insert_dims(0, dp)
    rel = base_p.intersect(base_q)
    cons = []
    for ep, eq_ in zip(acc_p.results, acc_q.results):
        cons.append((ep - eq_.insert_dims(0, dp), EQ))
    for lvl in range(level):
        tp = sp.schedule.results[lvl]
        tq = sq.schedule.results[lvl].insert_dims(0, dp)
        cons.append((tp - tq, EQ))
    tp = sp.schedule.results[level]
    tq = sq.schedule.results[level].insert_dims(0, dp)
    cons.append((tq - tp - 1, INEQ))
    order = IntegerSet.from_constraints(dp + dq, ns, cons)
    ctx = scop.context.insert_dims(0, dp + dq)
    return rel.intersect(order).intersect(ctx)


def _candidate_distance(scop, dep_rel, sp, sq, loop_levels):
    """Sample one relation point at small fixed sizes to get a candidate
    per-loop-level time difference."""
    dp = sp.domain.num_dims
    ns = len(scop.symbols)
    for size in _SAMPLE_SIZES:
        syms = (size,) * ns
        for point in sorted(dep_rel.points(syms)):
            src, tgt = point[:dp], point[dp:]
            ts = sp.schedule.eval(src, syms)
            tt = sq.schedule.eval(tgt, syms)
            return tuple(tt[l] - ts[l] for l in loop_levels)
    return None


def _is_uniform(scop, dep_rel, sp, sq, loop_levels, cand):
    """FM check that the time difference equals `cand` on every relation
    point (conservative: unprovable uniformity reports non-uniform)."""
    dp = sp.domain.num_dims
    for l, v in zip(loop_levels, cand):
        tp = sp.schedule.results[l]
        diff = sq.schedule.results[l].insert_dims(0, dp) - tp
        for expr in (diff - v - 1,  # diff >= v+1
                     v - 1 - diff):  # diff <= v-1
            test = dep_rel.intersect(IntegerSet.from_constraints(
                dep_rel.num_dims, dep_rel.num_syms, [(expr, INEQ)]))
            if not test.is_empty():
                return False
    return True


def compute_dependences(scop):
    """All pairwise flow/anti/output dependences with non-empty relations.

    One Dependence per (statement pair, access pair, carried level); the
    emptiness test never drops a real dependence (it may keep a spurious
    one when symbols stay free).
    """
    deps = []
    loop_levels = scop.loop_levels()
    depth = scop.time_depth
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
            for kind, ap, aq in pairs:
                for level in range(depth):
                    rel = _pair_relation(scop, sp, sq, ap, aq, level)
                    if rel.is_empty():
                        continue
                    cand = _candidate_distance(scop, rel, sp, sq, loop_levels)
                    dist = None
                    if cand is not None and _is_uniform(scop, rel, sp, sq, loop_levels, cand):
                        dist = cand
                    deps.append(Dependence(sp.name, sq.name, kind, rel, level,
                                           sp.domain.num_dims, dist))
    return deps


def is_loop_parallel(scop, deps, loop_dim):
    """True iff no dependence is carried at the given schedule loop dim
    (index into `scop.loop_levels()`)."""
    level = scop.loop_levels()[loop_dim]
    return all(d.level != level for d in deps)


def dump_deps(scop, deps):
    """`--dump=deps` text."""
    lines = []
    for d in deps:
        lines.append(str(d))
    if not deps:
        lines.append("(no dependences)")
    return "\n".join(lines) + "\n"
