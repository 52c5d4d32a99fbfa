"""Poset-valued functors over the admissible-partition poset.

Builds the twisted total poset of a contravariant poset functor, the
block-fiber functor attached to an object's 1-labeled arcs, the canonical
assembly isomorphism onto the over-poset of the decreasing decomposables,
and the two-label reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
from .partitions import ArcContext, OrderedPartition
from .posets import Poset, poset_isomorphic, poset_product


@lru_cache(maxsize=256)
def family_tuple(tag: str, n: int, k: int, lo: int = 1) -> tuple[GraphObject, ...]:
    """Cached family enumeration for the sweep drivers, key-ascending."""
    return tuple(enumerate_family(Family(tag, lo), n, k))


@dataclass(frozen=True)
class PosetFunctor:
    """A contravariant functor from a base poset to posets.

    transports[(a, b)] for a <= b is a tuple with one fiber(a) position per
    fiber(b) position.  Identity and composition laws plus monotonicity are
    checked at construction.
    """

    base: Poset
    fibers: dict
    transports: dict

    def __post_init__(self):
        base, fibers, transports = self.base, self.fibers, self.transports
        for a in base.elements:
            if transports.get((a, a)) != tuple(range(len(fibers[a]))):
                raise IntegrityError(f"identity transport at {a!r} is not identity")
        above = {
            a: [base.elements[j] for j in iter_bits(row)]
            for a, row in zip(base.elements, base.up)
        }
        for a in base.elements:
            for b in above[a]:
                fa, fb, t = fibers[a], fibers[b], transports[(a, b)]
                if len(t) != len(fb) or not all(0 <= x < len(fa) for x in t):
                    raise IntegrityError(f"transport {a!r}<={b!r} leaves the fiber")
                # the up row of y carried by t lies in the up row of t[y]
                for y, up_y in enumerate(fb.up):
                    if not all(fa.up[t[y]] >> t[z] & 1 for z in iter_bits(up_y)):
                        raise IntegrityError(f"transport {a!r}<={b!r} is not monotone")
        for a in base.elements:
            for b in above[a]:
                t_ab = transports[(a, b)]
                for c in above[b]:
                    t_bc, t_ac = transports[(b, c)], transports[(a, c)]
                    if tuple(map(t_ab.__getitem__, t_bc)) != t_ac:
                        raise IntegrityError(
                            f"transport composition law fails on {a!r}<={b!r}<={c!r}"
                        )


def grothendieck(functor: PosetFunctor) -> Poset:
    """Total poset: (a, x) <= (b, y) iff a <= b and x <= transport(y).

    Elements run through the fibers in base order.  For each a <= b, pre[t]
    is the mask of the y in fiber(b) transported to t in fiber(a), so row
    (a, x) gains the union, a sum as they are disjoint, of the pre[t] over
    t >= x, shifted to b's offset.
    Raises if the relation is only a preorder; for the block-fiber functors
    used here antisymmetry always holds.
    """
    base = functor.base
    elements = []
    offset = []
    for a in base.elements:
        offset.append(len(elements))
        elements.extend((a, x) for x in functor.fibers[a].elements)
    rows = []
    for ia, a in enumerate(base.elements):
        fa = functor.fibers[a]
        fa_rows = [0] * len(fa)
        for ib in iter_bits(base.up[ia]):
            pre = [0] * len(fa)
            for y, t in enumerate(functor.transports[(a, base.elements[ib])]):
                pre[t] |= 1 << y
            for x, up_x in enumerate(fa.up):
                fa_rows[x] |= sum(pre[t] for t in iter_bits(up_x)) << offset[ib]
        rows.extend(fa_rows)
    try:
        return Poset(elements, rows, validate=True)
    except ValueError as exc:
        raise IntegrityError(f"total relation is a preorder, not a poset: {exc}")


def _block_fiber(n: int, obj: GraphObject, block: tuple[int, ...]):
    """Over-elements of the label-raised decreasing family at obj's restriction.

    Returns (poset over object keys, the member objects in poset order).
    """
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


def block_fiber_functor(n: int, obj: GraphObject) -> PosetFunctor:
    """The block-fiber functor over the admissible partitions of obj.

    The fiber over a partition is the product of its blocks' over-posets in
    the label-floor-2 decreasing family; transports restrict blockwise.  For
    a <= b each block of a lies in one block of b, so a fiber(b) position
    is carried digit by digit: the coarse block's member at each digit
    restricts to one member of each fine block inside it.
    """
    if n < 2:
        raise ValueError("the reduction needs at least two labels")
    if not in_family(obj, graphs.KE):
        raise FamilyError("obj must avoid monochromatic oriented cycles")
    ctx = ArcContext.from_graph_object(obj)
    base = ctx.poset()
    blocks = {v.alpha: v.blocks() for v in ctx.partitions()}
    distinct = {blk for bs in blocks.values() for blk in bs}
    block_fibers = {blk: _block_fiber(n, obj, blk) for blk in distinct}
    fibers = {
        a: poset_product([block_fibers[blk][0] for blk in bs])
        for a, bs in blocks.items()
    }

    restricted = {}  # (fine, coarse): the fine position of each coarse member
    transports = {}
    for ia, a in enumerate(base.elements):
        sizes = [len(block_fibers[blk][1]) for blk in blocks[a]]
        for ib in iter_bits(base.up[ia]):
            b = base.elements[ib]
            # carried[j][d]: what digit d of b's block j adds to a position
            carried = [[0] * len(block_fibers[blk][1]) for blk in blocks[b]]
            for i, fine in enumerate(blocks[a]):
                j = b[fine[0]] - 1  # the block of b holding fine
                coarse = blocks[b][j]
                if (fine, coarse) not in restricted:
                    at = [coarse.index(e) for e in fine]
                    index = block_fibers[fine][0].index
                    restricted[fine, coarse] = [
                        index[restrict(m, at).key] for m in block_fibers[coarse][1]
                    ]
                stride = prod(sizes[i + 1:])
                for d, t in enumerate(restricted[fine, coarse]):
                    carried[j][d] += t * stride
            images = [0]
            for adds in carried:
                images = [x + s for x in images for s in adds]
            transports[(a, b)] = tuple(images)
    return PosetFunctor(base=base, fibers=fibers, transports=transports)


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


def _scatter(n: int, k: int, block: tuple[int, ...], key: int) -> int:
    """A block object's key moved onto its block's edge fields in a k-object.

    The block is ascending, so each of its edges keeps its order and
    orientation in the k-object.
    """
    bits = graphs.code_bits(n)
    mask = (1 << bits) - 1
    top = k * (k - 1) // 2 - 1
    out = 0
    for i, j in reversed(graphs.edge_pairs(len(block))):
        shift = (top - graphs.pair_position(k, block[i], block[j])) * bits
        out |= (key & mask) << shift
        key >>= bits
    return out


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
    blocks = {a: OrderedPartition(a).blocks() for a in functor.base.elements}
    scattered = {}
    candidate = {}
    for alpha, keys in total.elements:
        glued = cross[alpha]
        for block, key in zip(blocks[alpha], keys):
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
    fiber_sizes = sorted(len(functor.fibers[a]) for a in functor.base.elements)
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


def structural_certificate(n: int, obj: GraphObject, certify) -> dict:
    """Certify contractibility structurally: base via the collapse driver,
    each block fiber via the given certifier, recursing on the label floor.

    `certify` maps a Poset to a Verdict; returns the per-piece statuses.
    """
    from .partitions import collapse_driver

    ctx = ArcContext.from_graph_object(obj)
    driver = collapse_driver(ctx)
    pieces = {"base_steps": driver.steps, "fibers": []}
    status = {}  # block: its fiber's verdict status
    for partition in ctx.partitions():
        for block in partition.blocks():
            if block not in status:
                status[block] = certify(_block_fiber(n, obj, block)[0]).status
            pieces["fibers"].append((partition.word(), len(block), status[block]))
    return pieces
