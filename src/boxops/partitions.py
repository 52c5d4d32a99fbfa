"""Ordered partitions under acyclic arc constraints, their compatibility
complex, the acyclic matching that certifies its collapse, and the
deterministic collapse driver with verified traces.

A context fixes a ground set 0..k-1 and an acyclic set of arcs; the
admissible ordered partitions are those placing every arc's tail in an
earlier block than its head.  Everything downstream (the refinement order,
the compatibility relation, the wedge/least-element machinery and the
collapse of the compatibility complex) is computed from the context alone.
Arc sets are folded with graphs._add_arc (_reach); the refinement and
compatibility rows are ANDs of one column table (_order_rows).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

from .bits import iter_bits
from .complexes import CollapseTrace, SimplicialComplex
from .errors import FalsificationError, IntegrityError
from .graphs import GraphObject, _add_arc
from .posets import Poset, _least, _transpose


@dataclass(frozen=True)
class OrderedPartition:
    """Blocks encoded by the word alpha: alpha[x] is x's 1-based block."""

    alpha: tuple[int, ...]

    def __post_init__(self):
        p = max(self.alpha, default=0)
        if set(self.alpha) != set(range(1, p + 1)):
            raise ValueError(f"word {self.alpha} is not surjective onto 1..{p}")

    @classmethod
    def from_blocks(cls, blocks: Sequence[Iterable[int]]) -> "OrderedPartition":
        seen: dict[int, int] = {}
        for i, blk in enumerate(blocks, start=1):
            for x in blk:
                if x in seen:
                    raise ValueError(f"element {x} in two blocks")
                seen[x] = i
        if sorted(seen) != list(range(len(seen))):
            raise ValueError("blocks must cover 0..k-1")
        return cls(tuple(seen[x] for x in range(len(seen))))

    @property
    def k(self) -> int:
        return len(self.alpha)

    @property
    def p(self) -> int:
        return max(self.alpha, default=0)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks in order, each an ascending tuple of its elements."""
        out: list[list[int]] = [[] for _ in range(self.p)]
        for x, i in enumerate(self.alpha):
            out[i - 1].append(x)
        return tuple(map(tuple, out))

    def block_masks(self) -> tuple[int, ...]:
        out = [0] * self.p
        for x, i in enumerate(self.alpha):
            out[i - 1] |= 1 << x
        return tuple(out)

    def word(self) -> str:
        if self.p <= 9:
            return "".join(str(d) for d in self.alpha)
        return "-".join(str(d) for d in self.alpha)


def _reach(k: int, arcs: Iterable[tuple[int, int]]) -> list[int] | None:
    """reach[v], the mask of the vertices reachable from v (v included),
    folded arc by arc with graphs._add_arc; None when the arcs hold a cycle."""
    reach: list[int] | None = [1 << v for v in range(k)]
    for a, b in arcs:
        reach = _add_arc(reach, a, b)
        if reach is None:
            return None
    return reach


@dataclass(frozen=True)
class ArcContext:
    """Ground size plus the acyclic arc set extracted from 1-labeled edges."""

    k: int
    one_arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.one_arcs:
            if not (0 <= a < self.k and 0 <= b < self.k) or a == b:
                raise ValueError(f"bad arc {(a, b)} for k={self.k}")
        if _reach(self.k, self.one_arcs) is None:
            raise IntegrityError("constraint arcs contain a cycle")

    @classmethod
    def from_arcs(cls, k: int, arcs: Iterable[tuple[int, int]]) -> "ArcContext":
        return cls(k, frozenset(arcs))

    @classmethod
    def from_graph_object(cls, obj: GraphObject) -> "ArcContext":
        return cls(obj.k, frozenset(obj.arcs(label=1)))

    def closure(self) -> frozenset[tuple[int, int]]:
        return _closure(self.k, self.one_arcs)

    def context_key(self) -> tuple[tuple[int, int], ...]:
        """Sorted closure arcs: admissibility depends only on the closure."""
        return tuple(sorted(self.closure()))

    def partitions(self) -> tuple[OrderedPartition, ...]:
        return _partitions(self.k, self.closure())

    def poset(self) -> Poset:
        """The admissible partitions under the block-refinement order:
        le_partition(v, w) iff w orders weakly every pair v orders weakly."""
        alphas = tuple(v.alpha for v in self.partitions())
        return Poset(alphas, _order_rows(self.k, alphas, strictly=False), validate=True)

    def compatibility_masks(self) -> tuple[int, ...]:
        return _compatibility_masks(self.k, self.closure())

    def flag_complex(self) -> SimplicialComplex:
        """The compatibility flag complex on the admissible partitions, up to
        dimension 24."""
        return SimplicialComplex(
            tuple(v.alpha for v in self.partitions()), self.compatibility_masks(), dim_cap=24
        )

    def least(self) -> OrderedPartition:
        return least_element(self.partitions())


@lru_cache(maxsize=4096)
def _closure(k: int, arcs: frozenset) -> frozenset:
    reach = _reach(k, arcs)
    return frozenset((a, b) for a in range(k) for b in iter_bits(reach[a] & ~(1 << a)))


@lru_cache(maxsize=None)
def _partition_table(k: int) -> tuple[tuple[OrderedPartition, int], ...]:
    """Every ordered partition of 0..k-1 in word order, with its strict-pair
    mask: bit x * k + y is set when the word puts x in an earlier block than
    y.  A constant table per k, like graphs.edge_pairs."""
    out = []
    # at k = 0 the one word is the empty one
    for alpha in product(range(1, k + 1), repeat=k):
        if len(set(alpha)) == max(alpha, default=0):
            strict = 0
            for x, a in enumerate(alpha):
                for y, b in enumerate(alpha):
                    if a < b:
                        strict |= 1 << (x * k + y)
            out.append((OrderedPartition(alpha), strict))
    return tuple(out)


@lru_cache(maxsize=1024)
def _partitions(k: int, closed_arcs: frozenset) -> tuple[OrderedPartition, ...]:
    """The words of the partition table that order every arc strictly."""
    need = 0
    for a, b in closed_arcs:
        need |= 1 << (a * k + b)
    return tuple(v for v, strict in _partition_table(k) if strict & need == need)


@lru_cache(maxsize=1024)
def _compatibility_masks(k: int, closed_arcs: frozenset) -> tuple[int, ...]:
    """Row v: the partitions compatible with v, v itself left out."""
    alphas = [v.alpha for v in _partitions(k, closed_arcs)]
    rows = _order_rows(k, alphas, strictly=True)
    return tuple(row & ~(1 << i) for i, row in enumerate(rows))


def _order_rows(k: int, alphas: Sequence[tuple[int, ...]], strictly: bool) -> list[int]:
    """Row v: the words w that order weakly every pair (x, y) that v orders
    weakly, le_partition(v, w), or with strictly=True every pair that v
    orders strictly, compatible(v, w).  weakly[p] is the column of the
    words with a[x] <= a[y] at pair p."""
    pairs = [(x, y) for x in range(k) for y in range(k) if x != y]
    weakly = [0] * len(pairs)
    for j, a in enumerate(alphas):
        bit = 1 << j
        for p, (x, y) in enumerate(pairs):
            if a[x] <= a[y]:
                weakly[p] |= bit
    rows = []
    for a in alphas:
        row = (1 << len(alphas)) - 1
        for p, (x, y) in enumerate(pairs):
            if a[x] < a[y] or (a[x] == a[y] and not strictly):
                row &= weakly[p]
        rows.append(row)
    return rows


def all_contexts(k: int) -> tuple[ArcContext, ...]:
    """Every transitively closed acyclic arc set on 0..k-1, canonically ordered.

    These are exactly the admissibility contexts realizable by objects whose
    1-labeled arcs have the given closure.
    """
    pairs = [(x, y) for x in range(k) for y in range(x + 1, k)]
    out = []
    for states in product((None, False, True), repeat=len(pairs)):
        arcs = [(x, y) if fwd else (y, x)
                for (x, y), fwd in zip(pairs, states) if fwd is not None]
        reach = _reach(k, arcs)
        # the closure holds the arcs and one pair per bit of a reach row
        # beyond the vertex itself, so equal counts mean the arcs are closed
        if reach is not None and sum(map(int.bit_count, reach)) - k == len(arcs):
            out.append(ArcContext(k, frozenset(arcs)))
    out.sort(key=lambda c: tuple(sorted(c.one_arcs)))
    return tuple(out)


# ---------------------------------------------------------------------------
# relations and operations on ordered partitions


def le_partition(v: OrderedPartition, w: OrderedPartition) -> bool:
    """Refinement morphism order: v's blocks fill w's blocks order-preservingly."""
    if v.k != w.k:
        raise ValueError("ground sets differ")
    g: dict[int, int] = {}
    for x in range(v.k):
        i, j = v.alpha[x], w.alpha[x]
        if g.setdefault(i, j) != j:
            return False
    return all(g[i] <= g[i + 1] for i in range(1, v.p))


def compatible(v: OrderedPartition, w: OrderedPartition) -> bool:
    """Compatibility: v never orders a pair strictly against w."""
    if v.k != w.k:
        raise ValueError("ground sets differ")
    a, b = v.alpha, w.alpha
    for x in range(v.k):
        ax, bx = a[x], b[x]
        for y in range(v.k):
            if ax < a[y] and bx > b[y]:
                return False
    return True


def compatible_blocks(v: OrderedPartition, w: OrderedPartition) -> bool:
    """Block-form characterization of compatibility (cross-check route)."""
    S = v.block_masks()
    T = w.block_masks()
    for i1 in range(len(S)):
        for i2 in range(i1 + 1, len(S)):
            for j1 in range(len(T)):
                for j2 in range(j1 + 1, len(T)):
                    if S[i1] & T[j2] and S[i2] & T[j1]:
                        return False
    return True


def preceq(v: OrderedPartition, w: OrderedPartition) -> bool:
    """The auxiliary pointwise order on words."""
    if v.k != w.k:
        raise ValueError("ground sets differ")
    return all(a <= b for a, b in zip(v.alpha, w.alpha))


def preceq_blocks(v: OrderedPartition, w: OrderedPartition) -> bool:
    """Block form: each w-block sits inside the corresponding v-prefix."""
    S = v.block_masks()
    T = w.block_masks()
    prefix = 0
    for i in range(len(T)):
        prefix |= S[i] if i < len(S) else 0
        if T[i] & ~prefix:
            return False
    return True


def wedge(v: OrderedPartition, w: OrderedPartition) -> OrderedPartition:
    """Pointwise minimum of the words, compressed to consecutive values."""
    if v.k != w.k:
        raise ValueError("ground sets differ")
    mins = [min(a, b) for a, b in zip(v.alpha, w.alpha)]
    rank = {val: i + 1 for i, val in enumerate(sorted(set(mins)))}
    return OrderedPartition(tuple(rank[m] for m in mins))


def block_infimum(v: OrderedPartition, w: OrderedPartition) -> OrderedPartition | None:
    """The blockwise-intersection infimum, defined exactly when compatible."""
    if not compatible(v, w):
        return None
    S = v.block_masks()
    T = w.block_masks()
    index_pairs = [
        (i, j)
        for i in range(len(S))
        for j in range(len(T))
        if S[i] & T[j]
    ]
    index_pairs.sort()
    for (i1, j1), (i2, j2) in zip(index_pairs, index_pairs[1:]):
        if not (i1 <= i2 and j1 <= j2):
            raise IntegrityError("intersection index set is not linearly ordered")
    blocks = []
    for i, j in index_pairs:
        blocks.append(
            [x for x in range(v.k) if (S[i] >> x) & 1 and (T[j] >> x) & 1]
        )
    return OrderedPartition.from_blocks(blocks)


def least_element(parts: Sequence[OrderedPartition]) -> OrderedPartition:
    """Iterated wedge over all elements; global minimality re-verified."""
    if not parts:
        raise ValueError("empty partition family has no least element")
    least = parts[0]
    for v in parts[1:]:
        least = wedge(least, v)
    for v in parts:
        if not preceq(least, v):
            raise IntegrityError(
                f"iterated wedge {least.word()} is not below {v.word()}"
            )
    return least


def compatible_predecessor(
    u: OrderedPartition,
    v: OrderedPartition,
    universe: Sequence[OrderedPartition] | None = None,
) -> OrderedPartition:
    """The compatibility-preserving element strictly below v built from u < v.

    Verifies at runtime that the result sits strictly below v, is compatible
    with v, and (when a universe is given) inherits compatibility from u and
    v across the whole universe.
    """
    if not (preceq(u, v) and u.alpha != v.alpha):
        raise ValueError("need u strictly below v in the pointwise order")
    R = list(u.block_masks())
    S = list(v.block_masks())
    p = len(S)
    j = None
    for idx in range(p):
        r = R[idx] if idx < len(R) else 0
        if S[idx] & ~r:
            j = idx + 1  # 1-based
            break
    if j is None or j < 2:
        raise IntegrityError("no valid split index; ordering predicate is broken")
    prefix_r = 0
    for idx in range(j - 1):
        prefix_r |= R[idx] if idx < len(R) else 0
    rj = R[j - 1] if j - 1 < len(R) else 0
    merged = S[j - 2] | (prefix_r & S[j - 1])
    leftover = rj & S[j - 1]
    new_masks = S[: j - 2] + [merged]
    if leftover:
        new_masks.append(leftover)
    new_masks.extend(S[j:])
    result = OrderedPartition.from_blocks(
        [[x for x in range(v.k) if (m >> x) & 1] for m in new_masks]
    )
    if not (preceq(result, v) and result.alpha != v.alpha):
        raise FalsificationError(
            "predecessor element is not strictly below v",
            {"u": u.word(), "v": v.word(), "predecessor": result.word()},
        )
    if not compatible(result, v):
        raise FalsificationError(
            "predecessor element is not compatible with v",
            {"u": u.word(), "v": v.word(), "predecessor": result.word()},
        )
    if universe is not None:
        for w in universe:
            if compatible(u, w) and compatible(v, w) and not compatible(result, w):
                raise FalsificationError(
                    "predecessor element loses compatibility with a witness",
                    {
                        "u": u.word(),
                        "v": v.word(),
                        "predecessor": result.word(),
                        "w": w.word(),
                    },
                )
    return result


# ---------------------------------------------------------------------------
# the acyclic matching


def _down_rows(words: Sequence[tuple[int, ...]], k: int) -> tuple[int, ...]:
    """Row i is the mask of the words v with preceq(v, words[i]).

    at_most[x][j] holds the words whose letter at x is at most j, so each
    row is one AND per letter.
    """
    at_most = [[0] * (k + 1) for _ in range(k)]
    for i, alpha in enumerate(words):
        for x, j in enumerate(alpha):
            at_most[x][j] |= 1 << i
    for row in at_most:
        for j in range(1, k + 1):
            row[j] |= row[j - 1]
    full = (1 << len(words)) - 1
    rows = []
    for alpha in words:
        row = full
        for x, j in enumerate(alpha):
            row &= at_most[x][j]
        rows.append(row)
    return tuple(rows)


def matching_check(ctx: ArcContext) -> dict:
    """Certify that the compatibility complex collapses to its least
    partition u0, by a closed-form acyclic matching checked on every simplex.

    For a simplex sigma, L(sigma) is the set of partitions u that lie below
    every vertex of sigma in the pointwise order and make sigma + {u} a
    simplex, and l(sigma) is the least element of L(sigma).  sigma is paired
    up with sigma + {l} when l is not in sigma, paired down with sigma - {l}
    when l is in sigma and sigma != {l}, and critical when sigma == {l}.
    sigma + {l} carries the same l as sigma, since L(sigma + {l}) lies
    inside L(sigma) and holds l, so the pairing is an involution once
    (a) every L(sigma) has a least element, checked per simplex;
    (b) every down-paired simplex is sigma + {l(sigma)} of an up-paired
        sigma: sigma -> sigma + {l} maps the up-paired simplices one to one
        into the down-paired ones, so equal counts make it onto;
    (c) the critical simplices are exactly [{u0}].

    The matching is acyclic.  On a gradient path sigma -> sigma + {l} ->
    sigma', with sigma' another facet of sigma + {l} and paired up, l is a
    vertex of sigma', so l lies in L(sigma') and l(sigma') precedes l; it
    differs from l, or sigma' would not be paired up.  So l strictly falls
    along every path, and no path closes.  An acyclic matching whose one
    critical simplex is the vertex u0 is a collapse to u0 (Forman 1998;
    Kozlov 2008, Thm 11.13).

    One depth-first walk over the cliques of the compatibility rows, in
    context order, carries D, the AND of the vertices' down rows, and C,
    their common neighbours, so L(sigma) = D & (C | sigma).  Word order is
    a linear extension of the pointwise order, so posets._least decides l
    with one AND.  A failed condition raises FalsificationError; otherwise
    the evidence of a collapse record comes back, with the simplex counts
    by dimension.
    """
    parts = ctx.partitions()
    words = tuple(v.alpha for v in parts)
    adj = ctx.compatibility_masks()
    down = _down_rows(words, ctx.k)
    up = _transpose(down)
    n = len(parts)
    counts = [0] * n  # counts[d]: the simplices of dimension d
    critical: list[int] = []
    up_paired = 0

    def names(mask: int) -> list[str]:
        return [parts[i].word() for i in iter_bits(mask)]

    def walk(sigma: int, dim: int, D: int, C: int, min_next: int):
        nonlocal up_paired
        bits = C >> min_next << min_next
        while bits:
            b = bits & -bits
            i = b.bit_length() - 1
            s, d, c = sigma | b, D & down[i], C & adj[i]
            lower = d & (c | s)
            least = _least(lower, up, down)
            if not least:
                raise FalsificationError(
                    "L(simplex) has no least element",
                    {"simplex": names(s), "L": names(lower)},
                )
            if not least & s:
                up_paired += 1
            elif least == s:
                critical.append(s)
            counts[dim] += 1
            if c >> (i + 1):
                walk(s, dim + 1, d, c, i + 1)
            bits ^= b

    walk(0, 0, (1 << n) - 1, (1 << n) - 1, 0)
    u0 = ctx.least()
    if critical != [1 << words.index(u0.alpha)]:
        raise FalsificationError(
            "critical simplices are not exactly the least partition",
            {"critical": [names(s) for s in critical], "least": u0.word()},
        )
    down_paired = sum(counts) - up_paired - 1
    if up_paired != down_paired:
        raise FalsificationError(
            "up- and down-paired simplices differ in number",
            {"context": [list(p) for p in ctx.context_key()],
             "up": up_paired, "down": down_paired},
        )
    while counts[-1] == 0:
        counts.pop()
    return {"method": "matching", "partitions": n, "simplices": counts,
            "least": u0.word()}


# ---------------------------------------------------------------------------
# the collapse driver


@dataclass(frozen=True)
class DriverResult:
    trace: CollapseTrace
    terminal: OrderedPartition
    steps: int
    partition_count: int
    simplex_count: int


class _DriverState:
    """Mutable collapse state over a fixed context; simplices are masks
    over the partitions in context order.

    `count` maps exactly the present simplices to their numbers of present
    cofacets, so its keys are the present complex.  It starts as the flag
    complex's clique-count table (`SimplicialComplex.coface_counts`), a
    fresh copy of the one `replay_trace` starts from: the enumerator
    defines the complex, so the driver shares it with the checker, but no
    removal or freeness code.  `heap` holds exactly the present maximal
    simplices, each as (preorder key, mask, least vertex).
    """

    def __init__(self, ctx: ArcContext):
        self.parts = ctx.partitions()
        if not self.parts:
            raise IntegrityError("context admits no partitions")
        self.words = tuple(v.alpha for v in self.parts)
        self.adj = ctx.compatibility_masks()
        self.n = len(self.parts)
        self.down = _down_rows(self.words, ctx.k)
        self.count = ctx.flag_complex().coface_counts()
        self.u0 = ctx.least()
        self.u0_idx = self.words.index(self.u0.alpha)
        self.heap: list = []
        for mask, c in self.count.items():
            if not c:
                self._add_maximal(mask)

    def word_list(self, mask: int) -> list[str]:
        return [self.parts[v].word() for v in iter_bits(mask)]

    def least_vertex(self, mask: int) -> int:
        """The vertex of mask pointwise below every vertex of mask.

        It is the one bit of mask & AND(down[w] for w in mask); preceq is
        antisymmetric, so there is at most one.  This equals "the wedge of
        mask lies in mask".
        """
        least = mask
        rest = mask
        while rest:
            b = rest & -rest
            least &= self.down[b.bit_length() - 1]
            rest ^= b
        if not least:
            raise FalsificationError(
                "maximal simplex has no least vertex inside itself",
                {"simplex": self.word_list(mask)},
            )
        return least.bit_length() - 1

    def _add_maximal(self, mask: int):
        li = self.least_vertex(mask)
        alpha = self.words[li]
        bits = []
        rest = mask
        while rest:
            b = rest & -rest
            bits.append(b.bit_length() - 1)
            rest ^= b
        # the bit tuple is unique, so the mask and li are never compared
        heapq.heappush(self.heap, (-sum(alpha), alpha, tuple(bits), mask, li))

    def not_free(self, face: int, cofacet: int) -> FalsificationError:
        """The error for a face whose count says it is not free, naming a
        present coface other than cofacet, found by scanning the vertices
        adjacent to all of face's; None when the scan finds none."""
        common = (1 << self.n) - 1
        for i in iter_bits(face):
            common &= self.adj[i]
        other = None
        for i in iter_bits(common):
            up = face | 1 << i
            if up != cofacet and up in self.count:
                other = self.word_list(up)
                break
        return FalsificationError(
            "selected face is not free",
            {"face": self.word_list(face), "other_coface": other},
        )


def collapse_driver(ctx: ArcContext) -> DriverResult:
    """Collapse the compatibility complex down to the least partition.

    Each step removes a preorder-maximal maximal simplex together with its
    least-vertex-deleted free face, verifying freeness on the way; any
    violation raises FalsificationError with the offending state.  Trace
    steps are (face, cofacet) masks over the partitions in context order.
    The driver starts from the flag complex's clique-count table, so like
    `replay_trace` it refuses a clique above that complex's dimension cap
    of 24 with CapExceededError.
    """
    st = _DriverState(ctx)
    count, heap = st.count, st.heap
    steps: list[tuple[int, int]] = []

    while True:
        if len(heap) == 1 and heap[0][3].bit_count() == 1:
            vi = heap[0][4]
            if vi != st.u0_idx:
                raise FalsificationError(
                    "terminal vertex differs from the least element",
                    {"terminal": st.parts[vi].word(), "least": st.u0.word()},
                )
            break
        if not heap:
            raise FalsificationError(
                "no collapsible simplex remains but the complex is not a point",
                {"maximal": 0},
            )
        *_, V, v0 = heapq.heappop(heap)
        if V.bit_count() == 1:
            raise FalsificationError(
                "singleton maximal simplex while other simplices remain",
                {"vertex": st.parts[v0].word(), "maximal": len(heap) + 1},
            )
        F = V ^ (1 << v0)
        # V is present, so F is free exactly when V is its one cofacet
        if count.get(F) != 1:
            raise st.not_free(F, V)
        del count[V], count[F]
        steps.append((F, V))
        # uncount V at its facets V - w and F at its facets F - w, for w in F
        rest = F
        while rest:
            b = rest & -rest
            rest ^= b
            for W in (V ^ b, F ^ b):
                if W:
                    c = count[W] - 1
                    count[W] = c
                    if not c:
                        st._add_maximal(W)

    trace = CollapseTrace(
        vertices=st.words,
        steps=tuple(steps),
        terminal_maximal=(1 << st.u0_idx,),
    )
    return DriverResult(
        trace=trace,
        terminal=st.u0,
        steps=len(steps),
        partition_count=st.n,
        simplex_count=2 * len(steps) + 1,
    )
