"""Finite posets over opaque sortable keys, with bitset comparability rows.

Provides induced sub-posets, products, opposites, a deterministic
beat-point dismantler and an order-isomorphism search.  The poset under or
over an element is the sub-poset on its up or down row.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .bits import iter_bits
from .complexes import SimplicialComplex
from .errors import IntegrityError


class Poset:
    """Immutable finite poset.  up[i] is the bitmask of {j : e_i <= e_j}.

    down_rows, when the caller already has them, are the rows
    {j : e_j <= e_i}; without them the first down_rows() call transposes the
    up rows.  validate checks the order axioms and that given down rows are
    the transpose of the up rows.
    """

    __slots__ = ("elements", "index", "up", "_down")

    def __init__(self, elements: Sequence, up_rows: Sequence[int], validate: bool = True,
                 down_rows: Sequence[int] | None = None):
        elements = tuple(elements)
        up_rows = tuple(up_rows)
        if len(elements) != len(up_rows):
            raise ValueError("one row per element required")
        if len(set(elements)) != len(elements):
            raise ValueError("element keys must be distinct")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "index", {e: i for i, e in enumerate(elements)})
        object.__setattr__(self, "up", up_rows)
        object.__setattr__(self, "_down", None if down_rows is None else tuple(down_rows))
        if validate:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("Poset is immutable")

    def _validate(self):
        m = len(self.elements)
        full = (1 << m) - 1
        for i, row in enumerate(self.up):
            if row & ~full:
                raise ValueError("row has bits outside the element range")
            if not (row >> i) & 1:
                raise ValueError(f"order not reflexive at {self.elements[i]!r}")
        for i in range(m):
            row = self.up[i]
            j_bits = row & ~(1 << i)
            while j_bits:
                b = j_bits & (-j_bits)
                j = b.bit_length() - 1
                j_bits ^= b
                if (self.up[j] >> i) & 1:
                    raise ValueError(
                        f"antisymmetry fails between {self.elements[i]!r} "
                        f"and {self.elements[j]!r}"
                    )
                if self.up[j] & ~row:
                    raise ValueError(
                        f"transitivity fails above {self.elements[i]!r}"
                    )
        if self._down is not None and self._down != _transpose(self.up):
            raise ValueError("down rows are not the transpose of the up rows")

    @classmethod
    def from_leq(cls, elements: Sequence, leq: Callable, validate: bool = True) -> "Poset":
        """The poset of a relation given pair by pair, leq(a, b) for a <= b.

        The definitional constructor: the library builds its rows from
        bitsets, and the test oracles build the same posets through this to
        hold those rows to the definitions.
        """
        elements = tuple(elements)
        rows = []
        for a in elements:
            row = 0
            for j, b in enumerate(elements):
                if leq(a, b):
                    row |= 1 << j
            rows.append(row)
        return cls(elements, rows, validate=validate)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Poset({len(self.elements)} elements)"

    # -- basic queries ------------------------------------------------------

    def le_idx(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def le(self, a, b) -> bool:
        return self.le_idx(self.index[a], self.index[b])

    def down_rows(self) -> tuple[int, ...]:
        if self._down is None:
            object.__setattr__(self, "_down", _transpose(self.up))
        return self._down

    def minimum(self):
        """The least element's key, or None."""
        full = (1 << len(self.elements)) - 1
        for i, row in enumerate(self.up):
            if row == full:
                return self.elements[i]
        return None

    def maximum(self):
        full = (1 << len(self.elements)) - 1
        for i, row in enumerate(self.down_rows()):
            if row == full:
                return self.elements[i]
        return None

    # -- derived posets -----------------------------------------------------

    def subposet(self, keys: Iterable) -> "Poset":
        picked = [self.index[e] for e in keys]
        elements = tuple(self.elements[i] for i in picked)
        pos = {old: new for new, old in enumerate(picked)}
        rows = [sum(1 << pos[j] for j in iter_bits(self.up[i]) if j in pos) for i in picked]
        return Poset(elements, rows, validate=False)

    def opposite(self) -> "Poset":
        return Poset(self.elements, self.down_rows(), validate=False)

    def comparability_masks(self) -> list[int]:
        down = self.down_rows()
        return [
            (self.up[i] | down[i]) & ~(1 << i) for i in range(len(self.elements))
        ]

    def order_complex(self) -> SimplicialComplex:
        """The flag complex of the comparability graph (chains = cliques),
        over the elements in poset order, up to dimension 48."""
        return SimplicialComplex(self.elements, self.comparability_masks(), dim_cap=48)

    # -- dismantling --------------------------------------------------------

    def dismantle(self) -> tuple["Poset", list[tuple]]:
        """Iteratively remove beat points, the first in element order first.

        The order contract: each step removes the lowest-index (for member
        posets, lowest-key) beat point of the current poset, as a scan
        restarted from the first alive element after every removal would.
        The steps, the core and every verdict built on them depend on it.

        A beat point is dominated in the comparability graph by the witness
        recorded with it, so each removal collapses the order complex onto
        the smaller poset's.  The loop is _beat_points over every element.
        Returns the core and the removal steps (key, witness_key,
        "up"|"down").
        """
        alive, steps = _beat_points(self.up, self.down_rows(), (1 << len(self.elements)) - 1)
        keys = self.elements
        return self.subposet([keys[i] for i in iter_bits(alive)]), _keyed(keys, steps)

    def remove_weak_points(self) -> tuple["Poset", list[tuple]]:
        """Iteratively remove weak points, each followed by the beat points
        its removal exposes.

        x is a weak point (Barmak and Minian) when its strict down-set or
        strict up-set among the alive elements dismantles to one point.  The
        link of x in the order complex is the join of the order complexes of
        those two sets; a dismantlable side makes that join collapsible, so
        removing x collapses the order complex onto the smaller poset's.

        The order contract: each step removes the lowest-index weak point,
        trying the down side before the up side, by a scan restarted from
        the first alive element after every removal, and then every beat
        point of what is left, as dismantle() would.  Each side is
        dismantled by _beat_points on its mask, with no sub-poset built.
        Returns the poset left and the steps (key, "down"|"up", link steps,
        beat steps): the link steps dismantle the link's sub-poset to one
        point, and the beat steps dismantle the sub-poset left once the key
        is removed, both in key form for replay_dismantle.
        """
        up, down = self.up, self.down_rows()
        keys = self.elements
        alive = (1 << len(keys)) - 1
        steps: list[tuple] = []
        while alive & (alive - 1):
            for i in iter_bits(alive):
                weak = _weak_side(up, down, alive, i)
                if weak:
                    break
            else:
                # no alive element is a weak point
                break
            side, link_steps = weak
            alive, beat_steps = _beat_points(up, down, alive & ~(1 << i))
            steps.append((keys[i], side, _keyed(keys, link_steps), _keyed(keys, beat_steps)))
        return self.subposet([keys[i] for i in iter_bits(alive)]), steps


def _weak_side(up: Sequence[int], down: Sequence[int], alive: int, i: int) -> tuple | None:
    """The first side of i, down before up, whose alive elements strictly
    below or above i dismantle to one point, with that link's steps; or
    None when i is not a weak point."""
    for side, rows in (("down", down), ("up", up)):
        left, link_steps = _beat_points(up, down, rows[i] & alive & ~(1 << i))
        if left and not left & (left - 1):
            return side, link_steps
    return None


def _keyed(keys: Sequence, steps: list[tuple]) -> list[tuple]:
    """Index-form dismantle steps (i, witness, side) in key form."""
    return [(keys[i], keys[j], side) for i, j, side in steps]


def _beat_points(up: Sequence[int], down: Sequence[int], alive: int) -> tuple[int, list[tuple]]:
    """Dismantle the sub-poset on the mask `alive` of the rows up and down.

    Removes the lowest-index beat point, trying the up side before the down
    side, until none is left.  Settled state is kept per side: up_settled
    holds the alive elements known not to be up-beat points, down_settled
    those known not to be down-beat points.  Removing i changes the strict
    up-set only of the elements of down[i] and the strict down-set only of
    those of up[i], so only those lose their settled bit on that side; the
    lowest unsettled beat point is then the lowest one.  The up-witness is
    the least element of the strict up-set and the down-witness the
    greatest element of the strict down-set, each found by _least or
    _greatest: where index order is a linear extension, as on a member
    poset, one AND and one inclusion test.  Returns the mask left and the
    steps (index, witness index, "up"|"down").
    """
    up_settled = down_settled = 0
    steps: list[tuple] = []
    while alive & (alive - 1):
        unsettled = alive & ~(up_settled & down_settled)
        while unsettled:
            b = unsettled & -unsettled
            unsettled ^= b
            i = b.bit_length() - 1
            if not up_settled & b:
                side, witness = "up", _least(up[i] & alive & ~b, up, down)
                if witness:
                    break
                up_settled |= b
            if not down_settled & b:
                side, witness = "down", _greatest(down[i] & alive & ~b, up, down)
                if witness:
                    break
                down_settled |= b
        else:
            # every alive element is settled on both sides: the core is reached
            break
        steps.append((i, witness.bit_length() - 1, side))
        alive ^= b
        up_settled &= ~down[i]
        down_settled &= ~up[i]
    return alive, steps


def _least(strict: int, up: Sequence[int], down: Sequence[int]) -> int:
    """The bit of the least element of `strict`, or 0.

    ANDs the down rows of strict's elements from the lowest bit upward
    until at most one candidate is left (by antisymmetry, at most one is
    left once every row is in), then keeps the candidate only if strict
    lies in its up row.  When index order is a linear extension, the lowest
    bit's down row meets strict in that bit alone, so one AND decides.
    """
    cands = bits = strict
    while bits and cands & (cands - 1):
        b = bits & -bits
        bits ^= b
        cands &= down[b.bit_length() - 1]
    if cands.bit_count() == 1 and not strict & ~up[cands.bit_length() - 1]:
        return cands
    return 0


def _greatest(strict: int, up: Sequence[int], down: Sequence[int]) -> int:
    """The bit of the greatest element of `strict`, or 0: as _least with
    the up rows ANDed from the highest bit downward, and the candidate kept
    only if strict lies in its down row."""
    cands = bits = strict
    while bits and cands & (cands - 1):
        i = bits.bit_length() - 1
        bits ^= 1 << i
        cands &= up[i]
    if cands.bit_count() == 1 and not strict & ~down[cands.bit_length() - 1]:
        return cands
    return 0


def _transpose(rows: Sequence[int]) -> tuple[int, ...]:
    """The rows of the converse relation: bit i of out[j] iff bit j of rows[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            b = row & -row
            out[b.bit_length() - 1] |= bit
            row ^= b
    return tuple(out)


def replay_dismantle(poset: Poset, steps: Sequence[tuple], alive: int | None = None) -> int:
    """Re-verify that each recorded removal really was a beat point.

    The steps dismantle the sub-poset on the mask `alive` (every element
    when None); returns the mask they leave.
    """
    if alive is None:
        alive = (1 << len(poset.elements)) - 1
    down = poset.down_rows()
    for key, witness_key, direction in steps:
        i = poset.index[key]
        j = poset.index[witness_key]
        if not (alive >> i) & 1 or not (alive >> j) & 1:
            raise IntegrityError(f"dismantle step touches an element not alive: {key!r}")
        if direction == "up":
            strict = poset.up[i] & alive & ~(1 << i)
            if not (strict >> j) & 1 or strict & ~poset.up[j]:
                raise IntegrityError(f"{key!r} is not an up-beat point via {witness_key!r}")
        elif direction == "down":
            strict = down[i] & alive & ~(1 << i)
            if not (strict >> j) & 1 or strict & ~down[j]:
                raise IntegrityError(f"{key!r} is not a down-beat point via {witness_key!r}")
        else:
            raise IntegrityError(f"unknown dismantle direction {direction!r}")
        alive &= ~(1 << i)
    return alive


def replay_weak_points(poset: Poset, steps: Sequence[tuple]) -> None:
    """Re-verify that each recorded removal was a weak point, that the beat
    steps after it were beat points, and that the removals leave exactly
    one point.

    Each step's link is recomputed from the alive rows, as the alive
    elements strictly below (side "down") or strictly above (side "up") the
    removed one.  replay_dismantle checks the link steps on the link's
    sub-poset, which must end at exactly one element, and the beat steps on
    the sub-poset of the elements still alive.
    """
    alive = (1 << len(poset.elements)) - 1
    down = poset.down_rows()
    for key, side, link_steps, beat_steps in steps:
        i = poset.index[key]
        if not (alive >> i) & 1:
            raise IntegrityError(f"weak step touches an element not alive: {key!r}")
        bit = 1 << i
        if side == "down":
            link = down[i] & alive & ~bit
        elif side == "up":
            link = poset.up[i] & alive & ~bit
        else:
            raise IntegrityError(f"unknown weak-point side {side!r}")
        if replay_dismantle(poset, link_steps, link).bit_count() != 1:
            raise IntegrityError(
                f"the {side} link of {key!r} does not dismantle to one point"
            )
        alive = replay_dismantle(poset, beat_steps, alive & ~bit)
    if alive.bit_count() != 1:
        raise IntegrityError(
            f"weak-point removals leave {alive.bit_count()} elements, not one"
        )


def poset_product(factors: Sequence[Poset]) -> Poset:
    """Componentwise-ordered product; element keys are key tuples, the last
    factor fastest.  Appending a factor q of size m puts (x, y) at m * x + y,
    and its up row is y's row in q repeated at m * s for each bit s of x's."""
    elements = [()]
    rows = [1]
    for q in factors:
        m = len(q)
        elements = [x + (y,) for x in elements for y in q.elements]
        rows = [
            sum(up_y << (m * s) for s in iter_bits(row))
            for row in rows
            for up_y in q.up
        ]
    return Poset(elements, rows, validate=False)


def poset_isomorphic(p: Poset, q: Poset, candidate: dict | None = None) -> dict | None:
    """An order isomorphism p -> q as a key map, or None.

    A given candidate is verified; otherwise a backtracking search refines
    on comparability signatures first.
    """
    mp, mq = len(p), len(q)
    if mp != mq:
        return None
    if candidate is not None:
        if set(candidate) != set(p.elements):
            return None
        image = [candidate[a] for a in p.elements]
        if set(image) != set(q.elements):
            return None
        # image is a bijection onto q; the map is an order isomorphism iff
        # each up row of p, carried through it, is the up row of its image
        perm = [q.index[b] for b in image]
        for i, row in enumerate(p.up):
            carried = 0
            while row:
                b = row & -row
                row ^= b
                carried |= 1 << perm[b.bit_length() - 1]
            if carried != q.up[perm[i]]:
                return None
        return dict(candidate)

    def signatures(poset: Poset):
        down = poset.down_rows()
        sig = [
            (poset.up[i].bit_count(), down[i].bit_count())
            for i in range(len(poset))
        ]
        for _ in range(2):
            nxt = []
            for i in range(len(poset)):
                ups = sorted(sig[j] for j in iter_bits(poset.up[i]))
                downs = sorted(sig[j] for j in iter_bits(down[i]))
                nxt.append(hash((sig[i], tuple(ups), tuple(downs))))
            sig = nxt
        return sig

    sp, sq = signatures(p), signatures(q)
    if sorted(sp) != sorted(sq):
        return None
    buckets: dict[int, list[int]] = {}
    for j, s in enumerate(sq):
        buckets.setdefault(s, []).append(j)

    order = sorted(range(mp), key=lambda i: (len(buckets[sp[i]]), i))
    assignment: dict[int, int] = {}
    used = [False] * mq
    qdown = q.down_rows()
    pdown = p.down_rows()

    def backtrack(t: int) -> bool:
        if t == mp:
            return True
        i = order[t]
        for j in buckets[sp[i]]:
            if used[j]:
                continue
            ok = True
            for pi, qj in assignment.items():
                if ((p.up[i] >> pi) & 1) != ((q.up[j] >> qj) & 1):
                    ok = False
                    break
                if ((pdown[i] >> pi) & 1) != ((qdown[j] >> qj) & 1):
                    ok = False
                    break
            if ok:
                assignment[i] = j
                used[j] = True
                if backtrack(t + 1):
                    return True
                del assignment[i]
                used[j] = False
        return False

    if not backtrack(0):
        return None
    return {p.elements[i]: q.elements[j] for i, j in assignment.items()}

