"""Poset-valued functors over the admissible-partition poset.

Builds the twisted total poset of a contravariant poset functor, the
block-fiber functor attached to an object's 1-labeled arcs, the canonical
assembly isomorphism onto the over-poset of the decreasing decomposables,
and the two-label reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod

from . import graphs
from .bits import iter_bits
from .contractibility import object_poset
from .errors import FalsificationError, FamilyError, IntegrityError
from .graphs import (
    Family,
    GraphObject,
    enumerate_family,
    in_family,
    restrict,
    shift_labels,
)
from .partitions import ArcContext
from .posets import Poset, poset_isomorphic


@lru_cache(maxsize=256)
def family_tuple(tag: str, n: int, k: int, lo: int = 1) -> tuple[GraphObject, ...]:
    """Cached family enumeration for the sweep drivers, key-ascending."""
    return tuple(enumerate_family(Family(tag, lo), n, k))


@dataclass(frozen=True)
class BlockFiberFunctor:
    """A contravariant poset functor over partitions, held by its blocks.

    fibers[A] is block A's fiber, and restrictions[A, B], for the block B
    of b holding a block A of a over some pair a <= b, gives the fib(A)
    position of each fib(B) position.  Fiber(a) is the product of the
    fibers of blocks[a], and t_ab(y)_A = r[A, B](y_B).  Construction checks
    the block laws: r[B, B] is the identity, every base pair refines, each
    r[A, B] lands in fib(A) and is monotone, and r[A, B] r[B, C] = r[A, C].
    They give the functor laws: t_aa(y)_A = r[A, A](y_A) = y_A; y <= y'
    is y_B <= y'_B for every B, so r[A, B](y_B) <= r[A, B](y'_B); and for
    a <= b <= c, with A inside B inside C, t_ab(t_bc(z))_A =
    r[A, B](r[B, C](z_C)) = r[A, C](z_C) = t_ac(z)_A.
    """

    base: Poset
    blocks: dict
    fibers: dict
    restrictions: dict

    def __post_init__(self):
        base, blocks, fibers, r = self.base, self.blocks, self.fibers, self.restrictions
        for blk in {blk for bs in blocks.values() for blk in bs}:
            if r.get((blk, blk)) != tuple(range(len(fibers[blk]))):
                raise IntegrityError(f"restriction of {blk!r} to itself is not identity")
        for fine, coarse in sorted(_block_pairs(base, blocks)):
            if not set(fine) <= set(coarse):
                raise IntegrityError(f"a base pair does not refine: {fine!r} meets {coarse!r}")
            if (fine, coarse) not in r:
                raise IntegrityError(f"restriction {fine!r}<={coarse!r} is missing")
        after = {}  # B: (C, r[B, C]) for each C other than B
        for (fine, coarse), t in r.items():
            fa, fb = fibers[fine], fibers[coarse]
            if len(t) != len(fb) or not all(0 <= x < len(fa) for x in t):
                raise IntegrityError(f"restriction {fine!r}<={coarse!r} leaves the fiber")
            if fine != coarse:
                after.setdefault(fine, []).append((coarse, t))
                # t carries the up row of y into the up row of t[y]; a map
                # into a point is monotone
                for y, up_y in enumerate(fb.up if len(fa) > 1 else ()):
                    if not all(fa.up[t[y]] >> t[z] & 1 for z in iter_bits(up_y)):
                        raise IntegrityError(f"restriction {fine!r}<={coarse!r} not monotone")
        for (fine, mid), t in r.items():
            if fine == mid or len(fibers[fine]) == 1:
                continue  # an identity composes with anything, as does a map into a point
            for coarse, u in after.get(mid, ()):
                if (fine, coarse) in r and tuple(map(t.__getitem__, u)) != r[fine, coarse]:
                    raise IntegrityError(f"composition fails on {fine!r}<={mid!r}<={coarse!r}")


def _block_pairs(base: Poset, blocks: dict) -> set:
    """(A, B) for each block A of a and the block B of b holding A's least
    element, over the pairs a <= b of the base."""
    above = {}  # A: the b above some a that has the block A
    for a, row in zip(base.elements, base.up):
        for fine in blocks[a]:
            above[fine] = above.get(fine, 0) | row
    owner = {b: {e: coarse for coarse in blocks[b] for e in coarse} for b in base.elements}
    return {
        (fine, owner[base.elements[ib]][fine[0]])
        for fine, row in above.items()
        for ib in iter_bits(row)
    }


def grothendieck(functor: BlockFiberFunctor) -> Poset:
    """Total poset: (a, x) <= (b, y) iff a <= b and x <= t_ab(y).

    Elements run through the base in order, each fiber the product of its
    blocks' fibers, the last block fastest.  x <= t_ab(y) is one condition
    x_A <= r[A, B](y_B) per block A of a, so row (a, x) is the AND over
    those A of x_A's cylinder: the y in each fiber(b) whose digit B meets
    the condition, the other digits free.  A point fiber puts no condition.
    Raises if the relation is only a preorder; for the block-fiber functors
    used here antisymmetry always holds.
    """
    base, blocks, fibers = functor.base, functor.blocks, functor.fibers
    elements, offset, spans = [], [], []
    for a in base.elements:
        offset.append(len(elements))
        elements.extend((a, x) for x in product(*(fibers[f].elements for f in blocks[a])))
        spans.append((1 << len(elements)) - (1 << offset[-1]))

    def cylinders(ib, fine):
        """The cylinder of each fib(fine) position in fiber(b), at b's offset."""
        b = base.elements[ib]
        j = next(j for j, coarse in enumerate(blocks[b]) if fine[0] in coarse)
        sizes = [len(fibers[coarse]) for coarse in blocks[b]]
        inner, width = prod(sizes[j + 1:]), prod(sizes[j:])
        spread = [0] * len(fibers[fine])  # bit inner * y for each y_B restricted to x
        for y, x in enumerate(functor.restrictions[fine, blocks[b][j]]):
            spread[x] |= 1 << (inner * y)
        # a full inner run at each digit y_B, repeated once per outer digit;
        # neither product carries
        fill = ((1 << inner) - 1) << offset[ib]
        repeat = sum(1 << (width * q) for q in range(prod(sizes[:j])))
        return [sum(spread[x] for x in iter_bits(up)) * fill * repeat for up in fibers[fine].up]

    made = {}  # (b's index, fine block): its cylinders
    rows = []
    for a, row in zip(base.elements, base.up):
        above = list(iter_bits(row))
        cells = [sum(spans[ib] for ib in above)]
        for fine in (fine for fine in blocks[a] if len(fibers[fine]) > 1):
            for ib in above:
                if (ib, fine) not in made:
                    made[ib, fine] = cylinders(ib, fine)
            # the fibers(b) are disjoint runs, so a sum is their union
            digit = list(map(sum, zip(*(made[ib, fine] for ib in above))))
            cells = [c & d for c in cells for d in digit]
        rows.extend(cells)
    try:
        return Poset(elements, rows, validate=True)
    except ValueError as exc:
        raise IntegrityError(f"total relation is a preorder, not a poset: {exc}")


def _block_fiber(n: int, obj: GraphObject, block: tuple[int, ...]):
    """Over-elements of the label-raised decreasing family at obj's restriction.

    Returns (poset over object keys, the member objects in poset order).
    """
    if len(block) == 1:
        # a one-element block has no edges: its fiber is the one point, key 0
        member = graphs.point(n)
        return Poset((member.key,), (1,), validate=False, down_rows=(1,)), [member]
    obj_b = restrict(obj, block)
    if any((c >> 1) + 1 == 1 for c in obj_b.codes):
        raise IntegrityError(
            "a block of an admissible partition contains a 1-labeled edge"
        )
    # raising every label by one is an order isomorphism that keeps the key
    # order, so the raised members below obj_b are the raises of the members
    # below obj_b lowered, already in key order
    index = graphs.family_index(family_tuple("mdown", n - 1, len(block)))
    below = index.below(shift_labels(obj_b, -1, n - 1))
    members = [shift_labels(m, 1, n) for m in index.select(below)]
    return object_poset(members), members


def block_fiber_functor(n: int, obj: GraphObject) -> BlockFiberFunctor:
    """The block-fiber functor over the admissible partitions of obj.

    The fiber over a partition is the product of its blocks' over-posets in
    the label-floor-2 decreasing family; transports restrict blockwise.  For
    a <= b each block A of a lies in one block B of b, and r[A, B] gathers
    A's edge fields out of each member key of fib(B).
    """
    if n < 2:
        raise ValueError("the reduction needs at least two labels")
    if not in_family(obj, graphs.KE):
        raise FamilyError("obj must avoid monochromatic oriented cycles")
    ctx = ArcContext.from_graph_object(obj)
    base = ctx.poset()
    blocks = {v.alpha: v.blocks() for v in ctx.partitions()}
    distinct = {blk for bs in blocks.values() for blk in bs}
    fibers = {blk: _block_fiber(n, obj, blk)[0] for blk in distinct}
    restrictions = {
        (fine, coarse): tuple(map(fibers[fine].index.__getitem__, _gather(
            n, len(coarse), [coarse.index(e) for e in fine], fibers[coarse].elements
        )))
        for fine, coarse in _block_pairs(base, blocks)
    }
    return BlockFiberFunctor(base, blocks, fibers, restrictions)


def _gluing(n: int, alpha: tuple[int, ...]) -> tuple[int, int]:
    """The keys (cross, within) of the partition word alpha at n labels.

    cross has code 1, label 1 pointing to the later block, on every edge
    between two blocks; within has every bit of each edge inside a block.
    """
    bits = graphs.code_bits(n)
    cross = within = 0
    for x, y in graphs.edge_pairs(len(alpha)):
        cross <<= bits
        within <<= bits
        if alpha[x] == alpha[y]:
            within |= (1 << bits) - 1
        elif alpha[x] < alpha[y]:
            cross |= 1
    return cross, within


def _shifts(n: int, k: int, block) -> list[int]:
    """The shift of each edge field of an ascending block in a k-object key,
    in the block's edge order; the edges keep their order and orientation."""
    bits = graphs.code_bits(n)
    top = k * (k - 1) // 2 - 1
    return [
        (top - graphs.pair_position(k, block[i], block[j])) * bits
        for i, j in graphs.edge_pairs(len(block))
    ]


def _scatter(n: int, k: int, block: tuple[int, ...], key: int) -> int:
    """A block object's key moved onto its block's edge fields in a k-object."""
    bits = graphs.code_bits(n)
    fields = enumerate(reversed(_shifts(n, k, block)))
    return sum((key >> (bits * i) & ((1 << bits) - 1)) << shift for i, shift in fields)


def _gather(n: int, k: int, block, keys) -> list[int]:
    """The inverse of _scatter: each k-object key's fields on the block's
    edges, read as a block object's key."""
    bits = graphs.code_bits(n)
    mask = (1 << bits) - 1
    fields = list(enumerate(reversed(_shifts(n, k, block))))
    return [sum((key >> shift & mask) << (bits * i) for i, shift in fields) for key in keys]


def over_poset_of_mdown(n: int, obj: GraphObject) -> Poset:
    """Over-poset of the decreasing decomposables at obj."""
    index = graphs.family_index(family_tuple("mdown", n, obj.k))
    return object_poset(index.select(index.below(obj)))


def verify_grothendieck_prop(n: int, obj: GraphObject) -> dict:
    """Verify the canonical assembly map is an isomorphism onto the over-poset.

    Returns a witness report; raises FalsificationError if the map fails to
    be one.
    """
    functor = block_fiber_functor(n, obj)
    total = grothendieck(functor)
    over = over_poset_of_mdown(n, obj)

    # each element glues its block keys along the cross edges of its word
    cross = {a: _gluing(n, a)[0] for a in functor.base.elements}
    scattered = {}
    candidate = {}
    for alpha, keys in total.elements:
        glued = cross[alpha]
        for block, key in zip(functor.blocks[alpha], keys):
            if (block, key) not in scattered:
                scattered[block, key] = _scatter(n, obj.k, block, key)
            glued |= scattered[block, key]
        candidate[(alpha, keys)] = glued
    # over holds exactly the decreasing members below obj, so a key in it is
    # one of them; poset_isomorphic then checks that the keys cover over
    stray = next((e for e in total.elements if candidate[e] not in over.index), None)
    if stray is not None:
        raise FalsificationError(
            "assembled key is not in the over-poset of the decreasing family",
            {"alpha": stray[0], "key": candidate[stray]},
        )
    if poset_isomorphic(total, over, candidate=candidate) is None:
        raise FalsificationError(
            "assembly map is not an order isomorphism",
            {"object": obj.key, "total": len(total), "over": len(over)},
        )
    fiber_sizes = sorted(
        prod(len(functor.fibers[blk]) for blk in bs) for bs in functor.blocks.values()
    )
    return {
        "object_key": obj.key,
        "partitions": len(functor.base),
        "total": len(total),
        "over": len(over),
        "fiber_sizes": fiber_sizes,
        "isomorphic": True,
    }


# ---------------------------------------------------------------------------
# the two-label reduction


def two_label_form(obj: GraphObject) -> GraphObject:
    """Collapse labels to {1, 2} and orient along an extension of the 1-arcs.

    The extension is the deterministic minimal-index topological order, so
    reruns agree byte for byte.
    """
    if not in_family(obj, graphs.KE):
        raise FamilyError("obj must avoid monochromatic oriented cycles")
    k = obj.k
    order = graphs.topological_order(k, obj.arcs(label=1))
    if order is None:
        raise IntegrityError("constraint arcs contain a cycle")
    pos = {v: i for i, v in enumerate(order)}
    out = GraphObject(2, k, (
        (0 if obj.label(x, y) == 1 else 2) + (pos[x] < pos[y])
        for x, y in graphs.edge_pairs(k)
    ))
    for x, y in graphs.edge_pairs(k):
        if obj.label(x, y) == 1 and out.arrow(x, y) != obj.arrow(x, y):
            raise IntegrityError("extension reversed a constrained arc")
    return out


def verify_two_label_reduction(obj: GraphObject) -> dict:
    """Check the identity-on-partitions isomorphism for the reduction.

    The admissible-partition poset of obj must agree with the over-poset
    of the two-label decreasing family at obj', via the canonical
    assembly of each partition.
    """
    prime = two_label_form(obj)
    ctx = ArcContext.from_graph_object(obj)
    ctx_prime = ArcContext.from_graph_object(prime)
    if ctx.closure() != ctx_prime.closure():
        raise FalsificationError(
            "label collapse changed the admissibility context",
            {"object": obj.key},
        )
    base = ctx.poset()
    over = over_poset_of_mdown(2, prime)
    # no 1-label lies inside a block, so prime's in-block edges are the
    # label-2 edges oriented along the extension
    candidate = {}
    for alpha in base.elements:
        cross, within = _gluing(2, alpha)
        candidate[alpha] = cross | prime.key & within
    if poset_isomorphic(base, over, candidate=candidate) is None:
        raise FalsificationError(
            "identity-on-partitions map is not an isomorphism",
            {"object": obj.key},
        )
    return {
        "object_key": obj.key,
        "partitions": len(base),
        "over": len(over),
        "isomorphic": True,
    }
