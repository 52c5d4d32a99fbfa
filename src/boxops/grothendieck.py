"""Poset-valued functors over the admissible-partition poset.

Builds the twisted total poset of a contravariant poset functor, the
block-fiber functor attached to an object's 1-labeled arcs, the canonical
assembly isomorphism onto the over-poset of the decreasing decomposables,
and the two-label reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

    transports[(a, b)] for a <= b maps fiber(b) element keys to fiber(a)
    element keys.  Identity and composition laws plus monotonicity are
    checked at construction.
    """

    base: Poset
    fibers: dict
    transports: dict

    def __post_init__(self):
        for a in self.base.elements:
            ident = self.transports.get((a, a))
            fa = self.fibers[a]
            if ident is None or any(ident[x] != x for x in fa.elements):
                raise IntegrityError(f"identity transport at {a!r} is not identity")
        for a in self.base.elements:
            for b in self.base.elements:
                if not self.base.le(a, b):
                    continue
                t_ab = self.transports[(a, b)]
                fa, fb = self.fibers[a], self.fibers[b]
                for x in fb.elements:
                    if t_ab[x] not in fa.index:
                        raise IntegrityError(
                            f"transport {a!r}<={b!r} leaves the fiber"
                        )
                for x in fb.elements:
                    for y in fb.elements:
                        if fb.le(x, y) and not fa.le(t_ab[x], t_ab[y]):
                            raise IntegrityError(
                                f"transport {a!r}<={b!r} is not monotone"
                            )
                for c in self.base.elements:
                    if self.base.le(b, c):
                        t_bc = self.transports[(b, c)]
                        t_ac = self.transports[(a, c)]
                        for x in self.fibers[c].elements:
                            if t_ab[t_bc[x]] != t_ac[x]:
                                raise IntegrityError(
                                    "transport composition law fails on "
                                    f"{a!r}<={b!r}<={c!r}"
                                )

    def fiber(self, a) -> Poset:
        return self.fibers[a]


def grothendieck(functor: PosetFunctor) -> Poset:
    """Total poset: (a, x) <= (b, y) iff a <= b and x <= transport(y).

    Elements run through the fibers in base order.  For each a <= b, pre[t]
    is the mask of the y in fiber(b) transported to t in fiber(a), so row
    (a, x) gains the OR of pre[t] over t >= x, shifted to b's offset.
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
            b = base.elements[ib]
            pre = [0] * len(fa)
            transport = functor.transports[(a, b)]
            for j, y in enumerate(functor.fibers[b].elements):
                pre[fa.index[transport[y]]] |= 1 << j
            for x, up_x in enumerate(fa.up):
                above = 0
                for t in iter_bits(up_x):
                    above |= pre[t]
                fa_rows[x] |= above << offset[ib]
        rows.extend(fa_rows)
    try:
        return Poset(elements, rows, validate=True)
    except ValueError as exc:
        raise IntegrityError(f"total relation is a preorder, not a poset: {exc}")


def _block_elements(partition: OrderedPartition) -> list[tuple[int, ...]]:
    return [tuple(sorted(b)) for b in partition.blocks()]


def _block_fiber(n: int, obj: GraphObject, block: tuple[int, ...]):
    """Over-elements of the label-raised decreasing family at obj's restriction.

    Returns (poset over object keys, key -> object dict).
    """
    obj_b = restrict(obj, block)
    if any((c >> 1) + 1 == 1 for c in obj_b.codes):
        raise IntegrityError(
            "a block of an admissible partition contains a 1-labeled edge"
        )
    # raising every label by one is an order isomorphism that keeps the key
    # order, so the raised members below obj_b are the raises of the members
    # below obj_b lowered
    index = graphs.family_index(family_tuple("mdown", n - 1, len(block)))
    below = index.below(shift_labels(obj_b, -1, n - 1))
    members = [shift_labels(m, 1, n) for m in index.select(below)]
    return object_poset(members), {o.key: o for o in members}


def block_fiber_functor(n: int, obj: GraphObject) -> PosetFunctor:
    """The block-fiber functor over the admissible partitions of obj.

    The fiber over a partition is the product of its blocks' over-posets in
    the label-floor-2 decreasing family; transports restrict blockwise.
    """
    if n < 2:
        raise ValueError("the reduction needs at least two labels")
    if not in_family(obj, graphs.KE):
        raise FamilyError("obj must avoid monochromatic oriented cycles")
    ctx = ArcContext.from_graph_object(obj)
    base = ctx.poset()
    parts = {v.alpha: v for v in ctx.partitions()}

    fibers = {}
    block_data = {}
    for alpha, partition in parts.items():
        blocks = _block_elements(partition)
        factor_posets = []
        factor_objs = []
        for block in blocks:
            poset, by_key = _block_fiber(n, obj, block)
            factor_posets.append(poset)
            factor_objs.append(by_key)
        fibers[alpha] = poset_product(factor_posets)
        block_data[alpha] = (blocks, factor_objs)

    transports = {}
    for a in base.elements:
        for b in base.elements:
            if not base.le(a, b):
                continue
            a_blocks, _ = block_data[a]
            b_blocks, b_objs = block_data[b]
            # which coarse block contains each fine block
            target = []
            for blk in a_blocks:
                j = next(
                    idx for idx, tb in enumerate(b_blocks) if set(blk) <= set(tb)
                )
                positions = tuple(b_blocks[j].index(e) for e in blk)
                target.append((j, positions))
            mapping = {}
            for y in fibers[b].elements:
                image = tuple(
                    restrict(b_objs[j][y[j]], positions).key
                    for j, positions in target
                )
                mapping[y] = image
            transports[(a, b)] = mapping
    return PosetFunctor(base=base, fibers=fibers, transports=transports)


def assemble(
    n: int,
    partition: OrderedPartition,
    blocks: list[tuple[int, ...]],
    block_objs: list[GraphObject],
) -> GraphObject:
    """Glue block objects along the partition with 1-labeled cross edges.

    blocks are the partition's blocks as _block_elements gives them.
    """
    k = partition.k
    local = {}
    for bi, block in enumerate(blocks):
        for pos, e in enumerate(block):
            local[e] = (bi, pos)
    codes = []
    for x, y in graphs.edge_pairs(k):
        bx, px = local[x]
        by, py = local[y]
        if bx == by:
            obj = block_objs[bx]
            lab = obj.label(px, py)
            fwd = obj.arrow(px, py)
            codes.append((lab - 1) * 2 + (1 if fwd else 0))
        else:
            fwd = partition.alpha[x] < partition.alpha[y]
            codes.append(1 if fwd else 0)
    return GraphObject(n, k, codes)


def over_poset_of_mdown(n: int, obj: GraphObject):
    """Over-poset of the decreasing decomposables at obj, plus objects."""
    index = graphs.family_index(family_tuple("mdown", n, obj.k))
    members = index.select(index.below(obj))
    return object_poset(members), {o.key: o for o in members}


def verify_grothendieck_prop(n: int, obj: GraphObject) -> dict:
    """Verify the canonical assembly map is an isomorphism onto the over-poset.

    Returns a witness report; raises FalsificationError if the map fails to
    be one.
    """
    functor = block_fiber_functor(n, obj)
    total = grothendieck(functor)
    over, by_key = over_poset_of_mdown(n, obj)
    ctx = ArcContext.from_graph_object(obj)
    parts = {v.alpha: (v, _block_elements(v)) for v in ctx.partitions()}

    candidate = {}
    for alpha, fiber_elem in total.elements:
        partition, blocks = parts[alpha]
        objs = [
            graphs.from_key(n, len(block), key)
            for block, key in zip(blocks, fiber_elem)
        ]
        glued = assemble(n, partition, blocks, objs)
        if not in_family(glued, graphs.MDOWN):
            raise FalsificationError(
                "assembled object is not in the decreasing family",
                {"alpha": alpha, "key": glued.key},
            )
        candidate[(alpha, fiber_elem)] = glued.key
    witness = poset_isomorphic(total, over, candidate=candidate)
    if witness is None:
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


def _one_arc_order(obj: GraphObject) -> list[int]:
    """The least-index topological order of obj's 1-labeled arcs."""
    order = graphs.topological_order(obj.k, obj.arcs(label=1))
    if order is None:
        raise IntegrityError("constraint arcs contain a cycle")
    return order


def two_label_form(obj: GraphObject) -> GraphObject:
    """Collapse labels to {1, 2} and orient along an extension of the 1-arcs.

    The extension is the deterministic minimal-index topological order, so
    reruns agree byte for byte.
    """
    if not in_family(obj, graphs.KE):
        raise FamilyError("obj must avoid monochromatic oriented cycles")
    k = obj.k
    order = _one_arc_order(obj)
    pos = {v: i for i, v in enumerate(order)}
    codes = []
    for x, y in graphs.edge_pairs(k):
        lab = 1 if obj.label(x, y) == 1 else 2
        fwd = pos[x] < pos[y]
        codes.append((lab - 1) * 2 + (1 if fwd else 0))
    out = GraphObject(2, k, codes)
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
    over, by_key = over_poset_of_mdown(2, prime)
    order = _one_arc_order(obj)
    pos = {v: i for i, v in enumerate(order)}

    candidate = {}
    for alpha in base.elements:
        partition = OrderedPartition(alpha)
        k = partition.k
        codes = []
        for x, y in graphs.edge_pairs(k):
            if partition.alpha[x] == partition.alpha[y]:
                codes.append(2 + (1 if pos[x] < pos[y] else 0))
            else:
                codes.append(1 if partition.alpha[x] < partition.alpha[y] else 0)
        candidate[alpha] = GraphObject(2, k, codes).key
    witness = poset_isomorphic(base, over, candidate=candidate)
    if witness is None:
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
    for partition in ctx.partitions():
        for block in _block_elements(partition):
            poset, _ = _block_fiber(n, obj, block)
            verdict = certify(poset)
            pieces["fibers"].append(
                (partition.word(), len(block), verdict.status)
            )
    return pieces
