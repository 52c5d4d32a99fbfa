"""Edge-labeled, oriented complete graphs and their operad structure.

An object over the ground set {0,...,k-1} assigns every unordered pair a
label in {1,...,n} and a direction.  This module provides the partial order
of such objects, membership tests for the acyclicity/decomposability
families, the box and gamma products, the symmetric group action,
restriction along injections, label duality and key-ordered enumeration.
Topological orders and monochromatic cycles come from one sort on
predecessor masks; _add_arc, one step on reach rows, is the one
reachability test; box_split, over the labels along an object's linear
order, is the one maximal box split.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterable, Iterator, Sequence

from .bits import iter_bits
from .errors import (
    BitBudgetError,
    DimensionError,
    FamilyError,
    OrientedCycleError,
)

_PAIR_CACHE: dict[int, tuple[tuple[int, int], ...]] = {}

DEFAULT_MAX_BITS = 96


def edge_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """All pairs (x, y) with x < y < k, in lexicographic order."""
    try:
        return _PAIR_CACHE[k]
    except KeyError:
        _PAIR_CACHE[k] = tuple((x, y) for x in range(k) for y in range(x + 1, k))
        return _PAIR_CACHE[k]


def pair_position(k: int, x: int, y: int) -> int:
    """Index of the pair (x, y), x < y, within edge_pairs(k)."""
    return x * (2 * k - x - 1) // 2 + (y - x - 1)


def code_bits(n: int) -> int:
    """Bits needed per edge: one of 2n states."""
    return (2 * n - 1).bit_length()


class GraphObject:
    """Immutable labeling/orientation of the complete graph on 0..k-1.

    Edge data is stored per pair, in lexicographic pair order, as the code
    (label-1)*2 + forward where forward means the edge points from the
    smaller to the larger element.  The packed integer `key` concatenates
    the codes (first pair most significant) and induces the canonical total
    order used for all deterministic tie-breaking.
    """

    __slots__ = ("n", "k", "codes", "key")

    def __init__(self, n: int, k: int, codes: Iterable[int]):
        codes = tuple(codes)
        if n < 1:
            raise ValueError(f"label bound n must be >= 1, got {n}")
        if k < 0:
            raise ValueError(f"ground size k must be >= 0, got {k}")
        if len(codes) != k * (k - 1) // 2:
            raise ValueError(
                f"expected {k * (k - 1) // 2} edge codes for k={k}, got {len(codes)}"
            )
        hi = 2 * n
        for c in codes:
            if not 0 <= c < hi:
                raise ValueError(f"edge code {c} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "codes", codes)
        bits = code_bits(n)
        key = 0
        for c in codes:
            key = (key << bits) | c
        object.__setattr__(self, "key", key)

    def __setattr__(self, name, value):
        raise AttributeError("GraphObject is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, GraphObject)
            and self.n == other.n
            and self.k == other.k
            and self.codes == other.codes
        )

    def __hash__(self):
        return hash((self.n, self.k, self.codes))

    def __repr__(self):
        return f"GraphObject(n={self.n}, k={self.k}, key={self.key})"

    def code(self, x: int, y: int) -> int:
        a, b = (x, y) if x < y else (y, x)
        return self.codes[pair_position(self.k, a, b)]

    def label(self, x: int, y: int) -> int:
        return (self.code(x, y) >> 1) + 1

    def arrow(self, x: int, y: int) -> bool:
        """True iff the edge {x, y} is oriented from x to y."""
        fwd = self.code(x, y) & 1
        return bool(fwd) if x < y else not fwd

    def arcs(self, label: int | None = None) -> list[tuple[int, int]]:
        """Oriented pairs (tail, head), optionally only those with `label`."""
        out = []
        for (x, y), c in zip(edge_pairs(self.k), self.codes):
            if label is not None and (c >> 1) + 1 != label:
                continue
            out.append((x, y) if c & 1 else (y, x))
        return out


def point(n: int) -> GraphObject:
    """The unique object on a one-element ground set."""
    return GraphObject(n, 1, ())


def empty(n: int) -> GraphObject:
    """The unique object on the empty ground set."""
    return GraphObject(n, 0, ())


def from_arcs(n: int, k: int, arcs: Iterable[tuple[int, int, int]]) -> GraphObject:
    """Build an object from (tail, head, label) triples, one per pair."""
    codes: dict[int, int] = {}
    for x, y, label in arcs:
        if not 1 <= label <= n:
            raise ValueError(f"label {label} out of range 1..{n}")
        a, b = (x, y) if x < y else (y, x)
        pos = pair_position(k, a, b)
        if pos in codes:
            raise ValueError(f"duplicate edge {{{x},{y}}}")
        codes[pos] = (label - 1) * 2 + (1 if x < y else 0)
    if len(codes) != k * (k - 1) // 2:
        raise ValueError("every pair needs exactly one arc")
    return GraphObject(n, k, tuple(codes[i] for i in range(len(codes))))


def from_key(n: int, k: int, key: int) -> GraphObject:
    bits = code_bits(n)
    mask = (1 << bits) - 1
    e = k * (k - 1) // 2
    codes = [0] * e
    for i in range(e - 1, -1, -1):
        codes[i] = key & mask
        key >>= bits
    if key:
        raise ValueError("key has more bits than the edge count allows")
    return GraphObject(n, k, codes)


# ---------------------------------------------------------------------------
# Morphisms


def edge_step_ok(a: int, b: int) -> bool:
    """Single-edge morphism condition between codes a and b."""
    la, lb = a >> 1, b >> 1
    if (a ^ b) & 1:
        return la < lb
    return la <= lb


def is_morphism(mu: GraphObject, nu: GraphObject) -> bool:
    """True iff there is a morphism mu -> nu.

    Per edge: same orientation and label(mu) <= label(nu), or opposite
    orientation and label(mu) < label(nu).
    """
    if mu.n != nu.n or mu.k != nu.k:
        raise DimensionError(
            f"objects have shapes (n={mu.n}, k={mu.k}) and (n={nu.n}, k={nu.k})"
        )
    for a, b in zip(mu.codes, nu.codes):
        la, lb = a >> 1, b >> 1
        if (a ^ b) & 1:
            if la >= lb:
                return False
        elif la > lb:
            return False
    return True


# ---------------------------------------------------------------------------
# Families


_TAGS = ("g", "ke", "k", "m", "mup", "mdown")


@dataclass(frozen=True)
class Family:
    """A family tag plus an optional label floor lo (labels in {lo..n}).

    Family("m", 1) is the plain decomposable family; Family("m", lo) is its
    restriction to labels >= lo, and similarly for the other tags.
    """

    tag: str
    lo: int = 1

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}")
        if self.lo < 1:
            raise ValueError("label floor must be >= 1")

    def __str__(self):
        return self.tag if self.lo == 1 else f"{self.tag}[{self.lo},n]"


G = Family("g")
KE = Family("ke")
K = Family("k")
M = Family("m")
MUP = Family("mup")
MDOWN = Family("mdown")


def find_monochromatic_cycle(mu: GraphObject) -> list[int] | None:
    """A directed cycle using arcs of one label, as a vertex list, or None."""
    for label in range(1, mu.n + 1):
        cycle = _order_or_cycle(mu.k, mu.arcs(label))[1]
        if cycle is not None:
            return cycle
    return None


def linear_order(mu: GraphObject) -> tuple[int, ...]:
    """The linear order defined by an acyclic orientation tournament.

    x comes before y exactly when the edge {x, y} points from x to y.
    """
    order = topological_order(mu.k, mu.arcs())
    if order is None:
        raise OrientedCycleError(
            "orientation tournament contains a cycle; no linear order"
        )
    return tuple(order)


def topological_order(k: int, arcs: Iterable[tuple[int, int]]) -> list[int] | None:
    """The topological order of arcs on 0..k-1 that always takes the least
    ready vertex next, or None when the arcs contain a cycle."""
    order, cycle = _order_or_cycle(k, arcs)
    return None if cycle is not None else order


def _order_or_cycle(k: int, arcs: Iterable) -> tuple[list[int], list[int] | None]:
    """(order, None) as in topological_order, or (partial order, cycle).

    pred[v] is the mask of v's tails.  When no vertex left is ready, each
    has a tail left, so walking from tail to tail repeats a vertex; the
    walk from it back to itself, reversed, is a directed cycle.
    """
    pred = [0] * k
    for a, b in arcs:
        pred[b] |= 1 << a
    left = (1 << k) - 1
    order = []
    while left:
        rest = left
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            if not pred[v] & left:
                break
            rest ^= b
        else:
            walk: list[int] = []
            while v not in walk:
                walk.append(v)
                tails = pred[v] & left
                v = (tails & -tails).bit_length() - 1
            return order, walk[walk.index(v):][::-1]
        order.append(v)
        left ^= b
    return order, None


def label_table(mu: GraphObject, order: Sequence[int]) -> list[list[int]]:
    """lab[p][q], p < q, is the label of the edge between order[p] and
    order[q]; along mu's linear order each arc's tail comes first."""
    k = mu.k
    pos = [0] * k
    for p, v in enumerate(order):
        pos[v] = p
    lab = [[0] * k for _ in range(k)]
    for (x, y), c in zip(edge_pairs(k), mu.codes):
        p, q = (pos[x], pos[y]) if c & 1 else (pos[y], pos[x])
        lab[p][q] = (c >> 1) + 1
    return lab


def box_split(lab: Sequence[Sequence[int]], a: int, b: int) -> tuple[int, list[int]]:
    """(label, cuts): the cuts m, a < m < b, at which every edge between
    positions a..m-1 and m..b-1 carries one label.

    The edge from a to b-1 crosses every cut, so all cuts share its label:
    positions a..b-1 are the box-label product of the pieces between
    consecutive cuts, and no piece splits again at that label.
    """
    label = lab[a][b - 1]
    cuts = [
        m for m in range(a + 1, b)
        if all(lab[i][j] == label for i in range(a, m) for j in range(m, b))
    ]
    return label, cuts


def _splits(lab: Sequence[Sequence[int]], a: int, b: int) -> bool:
    """True iff positions a..b-1 are box products down to single positions.

    Any single cut decides, and so the maximal split does, because a box
    product restricted to an interval of positions is again a box product.
    """
    if b - a <= 1:
        return True
    cuts = box_split(lab, a, b)[1]
    bounds = [a, *cuts, b]
    return bool(cuts) and all(_splits(lab, p, q) for p, q in zip(bounds, bounds[1:]))


def _is_level_table(lab: Sequence[Sequence[int]], pick) -> bool:
    """True iff every label lab[i][j] is pick (min for mdown, max for mup)
    of the levels lab[t][t+1], i <= t < j."""
    for i in range(len(lab) - 1):
        row = lab[i]
        want = row[i + 1]
        for j in range(i + 2, len(row)):
            want = pick(want, lab[j - 1][j])
            if row[j] != want:
                return False
    return True


def in_family(mu: GraphObject, fam: Family) -> bool:
    """Membership of mu in the given family (total on valid objects)."""
    if mu.k <= 1:
        return True
    if fam.lo > 1:
        floor_code = (fam.lo - 1) * 2
        if any(c < floor_code for c in mu.codes):
            return False
    tag = fam.tag
    if tag == "g":
        return True
    if tag == "ke":
        return all(
            topological_order(mu.k, mu.arcs(label)) is not None
            for label in range(1, mu.n + 1)
        )
    # the other families live inside the acyclic one
    order = topological_order(mu.k, mu.arcs())
    if order is None:
        return False
    if tag == "k":
        return True
    lab = label_table(mu, order)
    if tag == "m":
        return _splits(lab, 0, mu.k)
    return _is_level_table(lab, min if tag == "mdown" else max)


# ---------------------------------------------------------------------------
# Structure maps


def box(i: int, mu1: GraphObject, mu2: GraphObject) -> GraphObject:
    """The product placing mu1 before mu2 with all cross edges labeled i.

    The ground set of mu2 is shifted past mu1's.
    """
    if mu1.n != mu2.n:
        raise DimensionError(f"label bounds differ: {mu1.n} vs {mu2.n}")
    n = mu1.n
    if not 1 <= i <= n:
        raise ValueError(f"label {i} out of range 1..{n}")
    k1, k2 = mu1.k, mu2.k
    k = k1 + k2
    cross = (i - 1) * 2 + 1
    codes = []
    for x, y in edge_pairs(k):
        if y < k1:
            codes.append(mu1.code(x, y))
        elif x >= k1:
            codes.append(mu2.code(x - k1, y - k1))
        else:
            codes.append(cross)
    return GraphObject(n, k, codes)


def box_chain(i: int, parts: Sequence[GraphObject]) -> GraphObject:
    """Iterated box product of one or more parts (associative per label)."""
    if not parts:
        raise ValueError("need at least one part")
    out = parts[0]
    for part in parts[1:]:
        out = box(i, out, part)
    return out


def gamma(mu: GraphObject, nus: Sequence[GraphObject]) -> GraphObject:
    """Operad structure map: substitute nus into the slots of mu.

    Internal pairs inherit the relevant nu; cross pairs inherit mu's edge
    between the slots, oriented slotwise.
    """
    if len(nus) != mu.k:
        raise DimensionError(f"mu has {mu.k} slots but {len(nus)} arguments given")
    n = mu.n
    for nu in nus:
        if nu.n != n:
            raise DimensionError("all arguments must share the label bound")
    k = sum(nu.k for nu in nus)
    block_of = []
    offset = []
    at = 0
    for b, nu in enumerate(nus):
        offset.append(at)
        block_of.extend([b] * nu.k)
        at += nu.k
    codes = []
    for x, y in edge_pairs(k):
        bx, by = block_of[x], block_of[y]
        if bx == by:
            codes.append(nus[bx].code(x - offset[bx], y - offset[bx]))
        else:
            lab = mu.label(bx, by)
            fwd = mu.arrow(bx, by)  # bx < by since x < y
            codes.append((lab - 1) * 2 + (1 if fwd else 0))
    return GraphObject(n, k, codes)


def restrict(mu: GraphObject, inj: Sequence[int]) -> GraphObject:
    """Pull back edge data along an injection into mu's ground set."""
    if len(set(inj)) != len(inj):
        raise ValueError("map is not injective")
    for e in inj:
        if not 0 <= e < mu.k:
            raise ValueError(f"element {e} outside ground set 0..{mu.k - 1}")
    k = len(inj)
    codes = []
    for x, y in edge_pairs(k):
        a, b = inj[x], inj[y]
        lab = mu.label(a, b)
        codes.append((lab - 1) * 2 + (1 if mu.arrow(a, b) else 0))
    return GraphObject(mu.n, k, codes)


def sigma_action(mu: GraphObject, sigma: Sequence[int]) -> GraphObject:
    """Right action of a permutation: (mu sigma){x,y} = mu{sigma x, sigma y}."""
    if sorted(sigma) != list(range(mu.k)):
        raise ValueError("sigma is not a permutation of the ground set")
    return restrict(mu, sigma)


def dual(mu: GraphObject) -> GraphObject:
    """Reverse the label order, keep orientations."""
    n = mu.n
    return GraphObject(
        n, mu.k, ((n - 1 - (c >> 1)) * 2 | (c & 1) for c in mu.codes)
    )


def shift_labels(mu: GraphObject, delta: int, new_n: int) -> GraphObject:
    """Add delta to every label, re-homing the object at label bound new_n.

    This is an order isomorphism onto its image and is how families with a
    label floor are reduced to plain ones.
    """
    codes = []
    for c in mu.codes:
        lab = (c >> 1) + 1 + delta
        if not 1 <= lab <= new_n:
            raise ValueError(f"shifted label {lab} out of range 1..{new_n}")
        codes.append((lab - 1) * 2 | (c & 1))
    return GraphObject(new_n, mu.k, codes)


def top_decomposition(mu: GraphObject, i: int = 1) -> tuple[tuple[int, ...], ...]:
    """Maximal split of mu into box-i factors, as ordered element blocks.

    Requires mu to be down-decomposable with labels >= i.  The split is the
    maximal box split of mu's label table when its label is i, and mu as
    one block otherwise; the returned blocks have all internal labels > i.
    """
    if not in_family(mu, Family("mdown", i)):
        raise FamilyError(
            f"object is not down-decomposable with labels >= {i}"
        )
    order = linear_order(mu)
    label, cuts = box_split(label_table(mu, order), 0, mu.k) if mu.k > 1 else (0, [])
    bounds = [0, *(cuts if label == i else []), mu.k]
    return tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# Enumeration


def _add_arc(reach: list[int], tail: int, head: int) -> list[int] | None:
    """Reach rows after adding the arc tail -> head, or None if it closes a
    cycle.  reach[v] is the mask of the vertices reachable from v, v
    included; the rows given are left as they are."""
    if reach[head] >> tail & 1:
        return None
    gained = reach[head]
    bit = 1 << tail
    return [row | gained if row & bit else row for row in reach]


def guard_bits(n: int, k: int, max_bits: int) -> None:
    need = (k * (k - 1) // 2) * code_bits(n)
    if need > max_bits:
        raise BitBudgetError(
            f"enumeration needs {need} key bits, budget is {max_bits}"
        )


def _position_tables(fam: Family, n: int, k: int) -> list[tuple[int, ...]]:
    """The codes of fam's members whose linear order is 0, 1, ..., k-1.

    Every arc of such a table points forward.  An mdown or mup table is a
    level sequence l in {lo..n}^(k-1), the edge (p, q) taking the least or
    the greatest of l_p..l_(q-1); the m tables are the box products of
    smaller m tables, built up by size.
    """
    labels = range(fam.lo, n + 1)
    if fam.tag == "m":
        sized = [set(), {point(n)}]
        for size in range(2, k + 1):
            sized.append({
                box(i, left, right)
                for cut in range(1, size)
                for left in sized[cut]
                for right in sized[size - cut]
                for i in labels
            })
        return [table.codes for table in sized[k]]
    pick = min if fam.tag == "mdown" else max
    pairs = edge_pairs(k)
    return [
        tuple((pick(levels[p:q]) - 1) * 2 + 1 for p, q in pairs)
        for levels in product(labels, repeat=k - 1)
    ]


def _ordered_tables(tables: list[tuple[int, ...]], k: int) -> list[tuple[int, ...]]:
    """The codes of every object with some linear order and a position table
    from tables, in ascending key order."""
    pairs = edge_pairs(k)
    e = len(pairs)
    # a table followed by its reversed-arc copy: one index per edge picks
    # the code whichever way the order puts the edge's ends
    both = [table + tuple(c ^ 1 for c in table) for table in tables]
    out = []
    for order in permutations(range(k)):
        pos = [0] * k
        for p, v in enumerate(order):
            pos[v] = p
        picks = [
            pair_position(k, pos[x], pos[y]) if pos[x] < pos[y]
            else e + pair_position(k, pos[y], pos[x])
            for x, y in pairs
        ]
        out.extend(tuple(map(table.__getitem__, picks)) for table in both)
    # fixed-width codes, first pair most significant: tuple order is key order
    out.sort()
    return out


def enumerate_family(
    fam: Family, n: int, k: int, max_bits: int = DEFAULT_MAX_BITS
) -> Iterator[GraphObject]:
    """Yield every member once, in ascending canonical key order.

    An acyclic object is its linear order together with its labels over
    positions, and membership in m, mup and mdown reads the labels alone:
    those tags pair every order with every admissible position table.  ke
    and k are enumerated by edge-by-edge depth-first extension with
    incremental cycle pruning.
    """
    guard_bits(n, k, max_bits)
    if k <= 1:
        yield GraphObject(n, k, ())
        return
    lo_code = (fam.lo - 1) * 2
    code_range = range(lo_code, 2 * n)
    if fam.lo > n:
        return
    if fam.tag == "g":
        for codes in product(code_range, repeat=k * (k - 1) // 2):
            yield GraphObject(n, k, codes)
        return
    if fam.tag in ("m", "mup", "mdown"):
        for codes in _ordered_tables(_position_tables(fam, n, k), k):
            yield GraphObject(n, k, codes)
        return

    per_label = fam.tag == "ke"
    pairs = edge_pairs(k)
    e = len(pairs)
    # reach[label][v] = bitmask of vertices reachable from v via arcs of that
    # label added so far (label 0 is the shared digraph for k)
    nlabels = n + 1 if per_label else 1
    reach = [[1 << v for v in range(k)] for _ in range(nlabels)]
    codes: list[int] = []

    def walk(pos: int) -> Iterator[GraphObject]:
        if pos == e:
            yield GraphObject(n, k, codes)
            return
        x, y = pairs[pos]
        for c in code_range:
            label = (c >> 1) + 1
            tail, head = (x, y) if c & 1 else (y, x)
            slot = label if per_label else 0
            updated = _add_arc(reach[slot], tail, head)
            if updated is None:
                continue
            saved = reach[slot]
            reach[slot] = updated
            codes.append(c)
            yield from walk(pos + 1)
            codes.pop()
            reach[slot] = saved

    yield from walk(0)


# ---------------------------------------------------------------------------
# Family index


class FamilyIndex:
    """Big-integer bitsets over the members of one family sequence.

    Member j is bit j, in the sequence's own order.  with_code[e][c] holds
    the members whose edge e has code c.  below_rows[e][c] holds those whose
    edge e steps to code c (edge_step_ok(member code, c)), and
    above_rows[e][c] those whose edge e is reached from code c; each is
    the OR of the with_code columns over the codes _step_codes lists once
    per n.  The members below or above an object are then one AND per edge.
    """

    __slots__ = ("members", "size", "n", "k", "with_code", "below_rows", "above_rows")

    def __init__(self, members: Sequence[GraphObject]):
        self.members = members
        self.size = len(members)
        self.n = members[0].n if members else 0
        self.k = members[0].k if members else 0
        codes = range(2 * self.n)
        # digits[c] translates a byte string of codes into binary digits,
        # "1" where the code is c
        digits = [b"0" * c + b"1" + b"0" * (255 - c) for c in codes]
        self.with_code = []
        for e in range(self.k * (self.k - 1) // 2):
            # the last member's code comes first, as the most significant digit
            column = bytes(m.codes[e] for m in reversed(members))
            self.with_code.append([int(column.translate(digits[c]), 2) for c in codes])
        steps_to, steps_from = _step_codes(self.n)
        self.below_rows = [
            [_union(row, froms) for froms in steps_to] for row in self.with_code
        ]
        self.above_rows = [
            [_union(row, tos) for tos in steps_from] for row in self.with_code
        ]

    def below(self, nu: GraphObject) -> int:
        """The members mu with a morphism mu -> nu."""
        return self._meet(self.below_rows, nu)

    def above(self, nu: GraphObject) -> int:
        """The members mu with a morphism nu -> mu."""
        return self._meet(self.above_rows, nu)

    def select(self, mask: int) -> list[GraphObject]:
        """The members in mask, in the sequence's order."""
        members = self.members
        return [members[j] for j in iter_bits(mask)]

    def _meet(self, rows, nu: GraphObject) -> int:
        if not self.size:
            return 0
        require_shape(self.n, self.k, nu)
        acc = (1 << self.size) - 1
        for row, c in zip(rows, nu.codes):
            acc &= row[c]
        return acc


def require_shape(n: int, k: int, obj: GraphObject) -> None:
    """Raise DimensionError unless obj has the family's shape (n, k)."""
    if obj.n != n or obj.k != k:
        raise DimensionError(
            f"family has shape (n={n}, k={k}), object has (n={obj.n}, k={obj.k})"
        )


_STEP_CODES: dict[int, tuple[tuple[tuple[int, ...], ...], ...]] = {}


def _step_codes(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """(steps_to, steps_from) for label bound n: steps_to[want] lists the
    codes c with edge_step_ok(c, want) and steps_from[want] those with
    edge_step_ok(want, c), each ascending.  Computed once per n."""
    try:
        return _STEP_CODES[n]
    except KeyError:
        codes = range(2 * n)
        _STEP_CODES[n] = (
            tuple(tuple(c for c in codes if edge_step_ok(c, want)) for want in codes),
            tuple(tuple(c for c in codes if edge_step_ok(want, c)) for want in codes),
        )
        return _STEP_CODES[n]


def _union(row: list[int], codes: Iterable[int]) -> int:
    out = 0
    for c in codes:
        out |= row[c]
    return out


_INDEXED: dict[int, FamilyIndex] = {}
# a process sweeps a handful of families; the bound only stops a caller that
# indexes fresh sequences from growing the memo without end
_INDEXED_MAX = 32


def family_index(members: Sequence[GraphObject]) -> FamilyIndex:
    """The FamilyIndex of a member sequence, built once per sequence object.

    The memo is keyed by identity and keeps the sequence alive, so its id
    cannot be reused while it is memoized; a hit also needs an unchanged
    length.  A family must not be mutated after it is indexed: a change
    that keeps its length goes unseen.
    """
    index = _INDEXED.get(id(members))
    if index is not None and index.members is members and index.size == len(members):
        return index
    if index is None and len(_INDEXED) >= _INDEXED_MAX:
        del _INDEXED[next(iter(_INDEXED))]
    index = _INDEXED[id(members)] = FamilyIndex(members)
    return index
