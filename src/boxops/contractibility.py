"""Contractibility certificates for finite posets and the sweep checkers.

The certificate hierarchy is cone, then beat-point dismantling, then weak
points on the dismantled core, then an explicit collapse of the order
complex as the fallback; integer homology is only a necessary condition and
never upgrades a verdict past HOMOLOGY-TRIVIAL-only.

The weak-point step is Barmak and Minian's (Adv. Math. 218, 2008): x is a
weak point when its strict down-set or strict up-set dismantles to a point.
The link of x in the order complex is the join of the order complexes of
those two sets, and a join with a collapsible complex is collapsible, so
removing x collapses the order complex onto that of the poset without x.
A core that loses weak points down to one point therefore has a
collapsible order complex, and no complex is built for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from . import graphs
from .complexes import greedy_collapse, replay_trace
from .errors import CapExceededError, IntegrityError
from .homology import reduced_homology
from .posets import Poset, replay_dismantle, replay_weak_points

CONTRACTIBLE = "CONTRACTIBLE-certified"
HOMOLOGY_ONLY = "HOMOLOGY-TRIVIAL-only"
EMPTY = "EMPTY"
FAILED = "FAILED"


@dataclass(frozen=True)
class Verdict:
    status: str
    method: str | None = None
    detail: dict = field(default_factory=dict)

    def contractible(self) -> bool:
        return self.status == CONTRACTIBLE


def certify_contractible(poset: Poset) -> Verdict:
    """Certify that a poset's order complex is contractible.

    Tries, in order: a cone (a minimum or maximum element); beat-point
    dismantling to a point; removing weak points from the dismantled core
    down to a point (method "weak", or "dismantle+weak" after beat points),
    each removal a collapse because the removed point's link is the join of
    a collapsible complex with another; and only where weak points stop
    short, a greedy collapse of the core's order complex to a point.  A cone
    apex found in one family of rows is rechecked in the other, and every
    dismantle, weak-point and collapse certificate is replayed by its
    independent checker before the verdict is returned, so a bad apex or
    step raises IntegrityError.  If only homology vanishes the verdict stays
    inconclusive.
    """
    m = len(poset)
    if m == 0:
        return Verdict(EMPTY)
    if m == 1:
        return Verdict(CONTRACTIBLE, "cone", {"size": 1})
    if _cone(poset):
        return Verdict(CONTRACTIBLE, "cone", {"size": m})
    core, steps = poset.dismantle()
    if steps:
        replay_dismantle(poset, steps)
    if len(core) == 1:
        return Verdict(
            CONTRACTIBLE, "dismantle", {"size": m, "removals": len(steps)}
        )
    left, weak = core.remove_weak_points()
    if len(left) == 1:
        replay_weak_points(core, weak)
        return Verdict(
            CONTRACTIBLE,
            "dismantle+weak" if steps else "weak",
            {"size": m, "removals": len(steps), "core": len(core), "weak": len(weak)},
        )
    try:
        complex_ = core.order_complex()
        trace = greedy_collapse(complex_)
    except CapExceededError as exc:
        return Verdict(FAILED, None, {"size": m, "error": str(exc)})
    if trace.collapsed_to_point:
        replay_trace(complex_, trace)
        method = "dismantle+collapse" if steps else "collapse"
        return Verdict(
            CONTRACTIBLE,
            method,
            {
                "size": m,
                "removals": len(steps),
                "core": len(core),
                "collapse_steps": len(trace.steps),
            },
        )
    report = reduced_homology(complex_.materialize())
    if report.trivial():
        return Verdict(
            HOMOLOGY_ONLY,
            None,
            {"size": m, "core": len(core), "stuck": len(trace.terminal_maximal)},
        )
    return Verdict(
        FAILED,
        None,
        {"size": m, "homology": report.rows()},
    )


def _cone(poset: Poset) -> bool:
    """Whether the poset has a minimum or a maximum.

    minimum() reads the up rows and maximum() the down rows; the apex either
    one claims is checked through the other family of rows, so a wrong apex
    raises IntegrityError instead of certifying a cone.  A member poset
    from object_poset computes the two families independently, from the
    index's above and below rows.
    """
    apex, rows = poset.minimum(), poset.down_rows()
    if apex is None:
        apex, rows = poset.maximum(), poset.up
        if apex is None:
            return False
    bit = 1 << poset.index[apex]
    if any(not row & bit for row in rows):
        raise IntegrityError(
            f"claimed cone apex {apex!r} is not comparable to every element"
        )
    return True


def object_poset(objs: Sequence) -> Poset:
    """Poset over the canonical keys of objects in the morphism order.

    Elements are key-ascending.  The objects must share one shape (n, k),
    checked once, else DimensionError.  Over a FamilyIndex of the sorted
    objects, up row i (the members objs[i] maps to) and down row i (the
    members that map to objs[i]) are read in one AND pass over the index's
    above and below rows, so the poset never transposes its rows.

    Key order is a linear extension of the morphism order: mu -> nu puts
    every edge code of mu at or below nu's, so key(mu) <= key(nu).  No up
    row therefore has a bit below its own index, which lets the dismantler
    find each witness in one AND.
    """
    objs = sorted(objs, key=lambda o: o.key)
    if objs:
        n, k = objs[0].n, objs[0].k
        for o in objs:
            graphs.require_shape(n, k, o)
    index = graphs.FamilyIndex(objs)
    everyone = (1 << len(objs)) - 1
    up, down = [], []
    for o in objs:
        above = below = everyone
        for ups, downs, c in zip(index.above_rows, index.below_rows, o.codes):
            above &= ups[c]
            below &= downs[c]
        up.append(above)
        down.append(below)
    return Poset([o.key for o in objs], up, validate=False, down_rows=down)


def check_homotopy_initial(
    ambient: Iterable,
    sub: Sequence,
    leq: Callable | None = None,
) -> dict:
    """Per-element verdicts for the over-posets {a in sub : a -> b}.

    `ambient` iterates objects b; `sub` is the candidate initial family.
    All verdicts CONTRACTIBLE-certified means the inclusion is homotopy
    initial at this scale.  The order is the morphism order, read from the
    family index of `sub`; `leq` is never read and is kept for callers that
    still pass the morphism test there.
    """
    return _member_verdicts(ambient, sub, graphs.FamilyIndex.below)


def check_homotopy_final(
    ambient: Iterable,
    sub: Sequence,
    leq: Callable | None = None,
) -> dict:
    """Per-element verdicts for the under-posets {a in sub : b -> a}.

    As check_homotopy_initial, whose `leq` is likewise never read.
    """
    return _member_verdicts(ambient, sub, graphs.FamilyIndex.above)


def _member_verdicts(ambient, sub, side) -> dict:
    index = graphs.family_index(sub)
    return {
        b.key: certify_contractible(object_poset(index.select(side(index, b))))
        for b in ambient
    }
