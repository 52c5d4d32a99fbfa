"""Definition-literal oracles, independent of the package implementations.

Everything here works from decoded (label, arrow) tables and quantifies the
way the definitions do (subsets instead of linear-order intervals, generic
cycle search instead of 3-cycle shortcuts).  Used to compute expected values
that the fast implementations are then held to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from boxops.errors import IntegrityError


def decode(obj):
    """(n, k, label, arrow) with label/arrow as dicts over ordered pairs."""
    n, k = obj.n, obj.k
    label = {}
    arrow = {}
    pos = 0
    for x in range(k):
        for y in range(x + 1, k):
            c = obj.codes[pos]
            pos += 1
            lab = (c >> 1) + 1
            label[(x, y)] = label[(y, x)] = lab
            arrow[(x, y)] = bool(c & 1)
            arrow[(y, x)] = not (c & 1)
    return n, k, label, arrow


def generic_cycle_search(k, arcs):
    """Plain DFS cycle detection over arbitrary arcs."""
    adj = {v: [] for v in range(k)}
    for a, b in arcs:
        adj[a].append(b)
    color = {v: 0 for v in range(k)}

    def visit(u):
        color[u] = 1
        for v in adj[u]:
            if color[v] == 1 or (color[v] == 0 and visit(v)):
                return True
        color[u] = 2
        return False

    return any(color[v] == 0 and visit(v) for v in range(k))


def naive_closure(k, arcs):
    """The transitive closure of arcs on 0..k-1, adding (a, c) for every
    (a, b), (b, c) until nothing changes."""
    closed = set(arcs)
    while True:
        extra = {(a, c) for a, b in closed for b2, c in closed if b == b2} - closed
        if not extra:
            return frozenset(closed)
        closed |= extra


def oracle_topological_order(k, arcs):
    """The lexicographically least permutation of 0..k-1 that puts every
    arc's tail before its head, as a list, or None when there is none."""
    arcs = list(arcs)
    for perm in permutations(range(k)):
        pos = {v: i for i, v in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in arcs):
            return list(perm)
    return None


def oracle_in_ke(obj):
    n, k, label, arrow = decode(obj)
    for lab in range(1, n + 1):
        arcs = [
            (x, y)
            for (x, y) in arrow
            if arrow[(x, y)] and label[(x, y)] == lab
        ]
        if generic_cycle_search(k, arcs):
            return False
    return True


def oracle_in_k(obj):
    _, k, _, arrow = decode(obj)
    arcs = [(x, y) for (x, y) in arrow if arrow[(x, y)]]
    return not generic_cycle_search(k, arcs)


def _splits(elements):
    """All ordered pairs of nonempty disjoint covering subsets."""
    elements = tuple(elements)
    for r in range(1, len(elements)):
        for s1 in combinations(elements, r):
            s2 = tuple(e for e in elements if e not in s1)
            yield s1, s2


def _cross_label(label, arrow, s1, s2):
    """The single label of all s1->s2 cross edges, or None."""
    labs = set()
    for x in s1:
        for y in s2:
            if not arrow[(x, y)]:
                return None
            labs.add(label[(x, y)])
    return labs.pop() if len(labs) == 1 else None


def oracle_in_m(obj):
    n, k, label, arrow = decode(obj)

    def dec(elements):
        if len(elements) <= 1:
            return True
        for s1, s2 in _splits(elements):
            if _cross_label(label, arrow, s1, s2) is not None:
                if dec(s1) and dec(s2):
                    return True
        return False

    return dec(tuple(range(k)))


def oracle_in_mup(obj):
    n, k, label, arrow = decode(obj)

    def up(elements, hi):
        if any(label[(x, y)] > hi for x, y in combinations(elements, 2)):
            return False
        if len(elements) <= 1:
            return True
        for s1, s2 in _splits(elements):
            i = _cross_label(label, arrow, s1, s2)
            if i is not None and i <= hi and up(s1, i) and up(s2, i):
                return True
        return False

    return up(tuple(range(k)), n)


def oracle_in_mdown(obj, lo=1):
    n, k, label, arrow = decode(obj)

    def down(elements, lo):
        if any(label[(x, y)] < lo for x, y in combinations(elements, 2)):
            return False
        if len(elements) <= 1:
            return True
        for s1, s2 in _splits(elements):
            i = _cross_label(label, arrow, s1, s2)
            if i is not None and i >= lo and down(s1, i) and down(s2, i):
                return True
        return False

    return down(tuple(range(k)), lo)


ORACLES = {
    "g": lambda obj: True,
    "ke": oracle_in_ke,
    "k": oracle_in_k,
    "m": oracle_in_m,
    "mup": oracle_in_mup,
    "mdown": oracle_in_mdown,
}


@lru_cache(maxsize=None)
def filter_route(tag, n, k, lo=1):
    """The keys of a family with label floor lo, ascending: the acyclic
    walk's members with labels >= lo that the definition-literal oracle
    accepts.  The walk's floor is the family's, so oracle_in_mup, which
    takes none, is asked only about objects above it."""
    from boxops.graphs import Family, enumerate_family

    return tuple(
        obj.key
        for obj in enumerate_family(Family("k", lo), n, k)
        if ORACLES[tag](obj)
    )


def brute_force_family(tag, n, k):
    """Enumerate a family by filtering every packed code, key-ascending."""
    from itertools import product

    from boxops.graphs import GraphObject

    if k <= 1:
        return [GraphObject(n, k, ())]
    e = k * (k - 1) // 2
    out = []
    for codes in product(range(2 * n), repeat=e):
        obj = GraphObject(n, k, codes)
        if ORACLES[tag](obj):
            out.append(obj)
    return out


def oracle_realizes(config, mu):
    """Realization by definition: for every ordered pair (x, y) with an arrow
    x -> y of label l, cube x lies below cube y in coordinate l, decided by
    less_i on the Fraction endpoints (never on the configuration's grid)."""
    from boxops.cubes import less_i

    _, k, label, arrow = decode(mu)
    return all(
        less_i(config.cubes[x], config.cubes[y], label[(x, y)])
        for x in range(k)
        for y in range(k)
        if x != y and arrow[(x, y)]
    )


def oracle_union_below(config, nu, family):
    """Union membership by definition: some member below nu realizes config."""
    from boxops.graphs import is_morphism

    return any(is_morphism(mu, nu) and oracle_realizes(config, mu) for mu in family)


def oracle_object_poset(objs):
    """The morphism order on objs by is_morphism, over their sorted keys."""
    from boxops.graphs import is_morphism
    from boxops.posets import Poset

    by_key = {o.key: o for o in objs}
    return Poset.from_leq(
        sorted(by_key), lambda a, b: is_morphism(by_key[a], by_key[b])
    )


def oracle_member_poset(sub, b, side):
    """The over-poset {a in sub : a -> b} (side "over") or the under-poset
    {a in sub : b -> a} (side "under") by is_morphism."""
    from boxops.graphs import is_morphism

    if side == "over":
        members = [a for a in sub if is_morphism(a, b)]
    elif side == "under":
        members = [a for a in sub if is_morphism(b, a)]
    else:
        raise ValueError(f"unknown side {side!r}")
    return oracle_object_poset(members)


def _bits(mask):
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        b = mask & (-mask)
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def oracle_dismantle(poset):
    """Beat-point removal by a scan restarted from the lowest alive element
    after every removal, witnesses found by testing each comparable element.

    Returns the core's keys and the steps (key, witness_key, "up"|"down").
    """
    alive, steps = _oracle_dismantle_mask(poset, (1 << len(poset.elements)) - 1)
    return [poset.elements[i] for i in _bits(alive)], steps


def _oracle_dismantle_mask(poset, alive):
    """oracle_dismantle of the sub-poset on the mask alive: the mask left
    and the steps."""
    m = len(poset.elements)
    up = poset.up
    down = [sum(1 << j for j in range(m) if (up[j] >> i) & 1) for i in range(m)]
    steps = []
    changed = True
    while changed and alive.bit_count() > 1:
        changed = False
        for i in _bits(alive):
            strict_up = up[i] & alive & ~(1 << i)
            witness = None
            direction = None
            if strict_up:
                for j in _bits(strict_up):
                    if strict_up & ~up[j]:
                        continue
                    witness, direction = j, "up"
                    break
            if witness is None:
                strict_down = down[i] & alive & ~(1 << i)
                if strict_down:
                    for j in _bits(strict_down):
                        if strict_down & ~down[j]:
                            continue
                        witness, direction = j, "down"
                        break
            if witness is not None:
                steps.append((poset.elements[i], poset.elements[witness], direction))
                alive &= ~(1 << i)
                changed = True
                break
    return alive, steps


def oracle_weak_points(poset):
    """Weak-point removal by a scan restarted from the lowest alive element
    after every removal, each element's strict down-set tried before its
    strict up-set.  A side is a weak link when _oracle_dismantle_mask takes
    it to one point; each weak removal is followed by the oracle dismantling
    of the elements left.

    Returns the keys left and the steps (key, "down"|"up", link steps,
    beat steps).
    """
    up = poset.up
    alive = (1 << len(poset.elements)) - 1
    steps = []
    while alive.bit_count() > 1:
        for i in _bits(alive):
            below = sum(1 << j for j in _bits(alive) if j != i and (up[j] >> i) & 1)
            above = sum(1 << j for j in _bits(alive) if j != i and (up[i] >> j) & 1)
            for side, link in (("down", below), ("up", above)):
                left, link_steps = _oracle_dismantle_mask(poset, link)
                if left.bit_count() == 1:
                    break
            else:
                continue
            break
        else:
            break
        alive, beat_steps = _oracle_dismantle_mask(poset, alive & ~(1 << i))
        steps.append((poset.elements[i], side, link_steps, beat_steps))
    return [poset.elements[i] for i in _bits(alive)], steps


def oracle_greedy_collapse(complex_):
    """The greedy collapse with each free face's cofacet found by scanning
    the vertices: take the lexicographically least face with exactly one
    present cofacet, remove that cofacet and the face, repeat.

    Returns the steps (face, cofacet) and the terminal maximal simplices,
    as masks over the complex's vertices.
    """
    import heapq

    present = set(complex_.materialize())
    nverts = len(complex_.vertices)

    def cofacets(face):
        return [face | 1 << i for i in range(nverts)
                if not face >> i & 1 and face | 1 << i in present]

    heap = [(_bits(f), f) for f in present if len(cofacets(f)) == 1]
    heapq.heapify(heap)
    steps = []
    while heap:
        _, face = heapq.heappop(heap)
        if face not in present:
            continue
        above = cofacets(face)
        if len(above) != 1:
            continue
        cof = above[0]
        present -= {face, cof}
        steps.append((face, cof))
        # only a facet of a removed simplex can have become free
        for gone in (cof, face):
            for i in _bits(gone):
                sub = gone & ~(1 << i)
                if sub in present and len(cofacets(sub)) == 1:
                    heapq.heappush(heap, (_bits(sub), sub))
    terminal = sorted((m for m in present if not cofacets(m)), key=_bits)
    return tuple(steps), tuple(terminal)


def oracle_partitions(k, closed_arcs):
    """Every word over 1..p for p <= k, kept when it is onto 1..p and puts
    every arc's tail in an earlier block than its head, in word order."""
    from itertools import product

    out = []
    for p in range(k + 1):
        for alpha in product(range(1, p + 1), repeat=k):
            if len(set(alpha)) == p and all(alpha[a] < alpha[b] for a, b in closed_arcs):
                out.append(alpha)
    return sorted(out)


def oracle_clique_counts(adj, n):
    """Every vertex subset of 0..n-1 whose members are pairwise adjacent,
    mapped to the number of vertices adjacent to all of its members."""
    out = {}
    for mask in range(1, 1 << n):
        verts = _bits(mask)
        if all(adj[a] >> b & 1 for a, b in combinations(verts, 2)):
            out[mask] = sum(1 for y in range(n)
                            if all(adj[y] >> v & 1 for v in verts))
    return out


def oracle_coface_counts(simplices: frozenset[int]) -> dict[int, int]:
    """Each simplex mapped to its number of cofacets in the family.

    The keys are the family's own mask objects, so the table adds no
    integers of its own.
    """
    counts = dict.fromkeys(simplices, 0)
    for mask in simplices:
        rest = mask
        while rest:
            b = rest & -rest
            face = mask ^ b
            if face:
                counts[face] += 1
            rest ^= b
    return counts


def maximal_cliques(adj, n):
    """The maximal cliques of a graph on 0..n-1 given as adjacency masks:
    Bron-Kerbosch with pivoting, a clique search of its own beside the
    package's clique-count table."""
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(r)
            return
        pivot = max(_bits(p | x), key=lambda v: (adj[v] & p).bit_count())
        for v in _bits(p & ~adj[pivot]):
            bit = 1 << v
            expand(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    expand(0, (1 << n) - 1, 0)
    return out


def oracle_collapse_driver(ctx):
    """The collapse driver on a set of removed simplices: a simplex is
    maximal when every coface its vertices' common neighbours give is
    removed, and a face is free when every coface but the chosen one is.
    The least vertex of a maximal simplex is the definitional least_element.

    Returns the steps (face, cofacet) as masks over the context's
    partitions; raises AssertionError where the driver would raise.
    """
    import heapq

    from boxops.partitions import least_element

    parts = ctx.partitions()
    index = {v: i for i, v in enumerate(parts)}
    adj = ctx.compatibility_masks()
    full = (1 << len(parts)) - 1
    removed = set()
    maximal = {}
    heap = []

    def present_cofaces(mask, stop=None):
        """The cofaces of mask that are not removed (mask plus one common
        neighbour of its vertices), up to the first one that is not stop."""
        common = full
        for i in _bits(mask):
            common &= adj[i]
        out = []
        while common:
            b = common & -common
            if mask | b not in removed:
                out.append(mask | b)
                if mask | b != stop:
                    return out
            common ^= b
        return out

    def add_maximal(mask):
        verts = [parts[i] for i in _bits(mask)]
        least = least_element(verts)
        assert least in verts, "maximal simplex has no least vertex inside itself"
        maximal[mask] = index[least]
        heapq.heappush(heap, (-sum(least.alpha), least.alpha, tuple(_bits(mask)), mask))

    for mask in maximal_cliques(adj, len(parts)):
        add_maximal(mask)
    steps = []
    while not (len(maximal) == 1 and next(iter(maximal)).bit_count() == 1):
        V = heapq.heappop(heap)[3]
        while V not in maximal:
            V = heapq.heappop(heap)[3]
        v0 = maximal.pop(V)
        assert V.bit_count() > 1, "singleton maximal simplex while other simplices remain"
        F = V ^ 1 << v0
        assert present_cofaces(F, stop=V) == [V], "selected face is not free"
        removed |= {V, F}
        steps.append((F, V))
        for w in _bits(F):
            for W in (V ^ 1 << w, F ^ 1 << w):
                if W and W not in removed and W not in maximal and not present_cofaces(W):
                    add_maximal(W)
    assert next(iter(maximal)) == 1 << index[ctx.least()], "terminal vertex differs"
    return tuple(steps)


def oracle_gradient_order(simplices, pairs):
    """A topological order of the gradient graph of a matching, or None
    when the graph has a cycle.

    The graph has one node per simplex and one arc per face relation of
    codimension one, pointing down from the simplex to its facet, except
    that a matched (face, cofacet) pair points up.  The matching is acyclic
    exactly when this graph is.  Kahn's algorithm over the arcs.
    """
    matched = set(pairs)
    arcs = {s: [] for s in simplices}
    indegree = dict.fromkeys(simplices, 0)
    for s in simplices:
        for v in _bits(s):
            f = s & ~(1 << v)
            if not f:
                continue
            a, b = (f, s) if (f, s) in matched else (s, f)
            arcs[a].append(b)
            indegree[b] += 1
    ready = [s for s in simplices if not indegree[s]]
    order = []
    while ready:
        s = ready.pop()
        order.append(s)
        for t in arcs[s]:
            indegree[t] -= 1
            if not indegree[t]:
                ready.append(t)
    return order if len(order) == len(indegree) else None


def oracle_refinement_poset(ctx):
    """The admissible partitions of a context ordered by le_partition."""
    from boxops.partitions import OrderedPartition, le_partition
    from boxops.posets import Poset

    return Poset.from_leq(
        tuple(v.alpha for v in ctx.partitions()),
        lambda a, b: le_partition(OrderedPartition(a), OrderedPartition(b)),
    )


def oracle_compatibility_masks(ctx):
    """Row i: the partitions j != i of the context with compatible(i, j)."""
    from boxops.partitions import compatible

    parts = ctx.partitions()
    return tuple(
        sum(1 << j for j, w in enumerate(parts) if j != i and compatible(v, w))
        for i, v in enumerate(parts)
    )


def oracle_candidate_isomorphism(p, q, candidate):
    """Whether the key map is an order isomorphism p -> q, pair by pair."""
    if len(p) != len(q) or len(candidate) != len(p):
        return False
    if any(a not in candidate for a in p.elements):
        return False
    image = [candidate[a] for a in p.elements]
    if len(set(image)) != len(image) or any(b not in q.index for b in image):
        return False
    return all(
        p.le(a, b) == q.le(candidate[a], candidate[b])
        for a in p.elements
        for b in p.elements
    )


@dataclass(frozen=True)
class PosetFunctor:
    """A contravariant functor from a base poset to posets, pair by pair.

    transports[(a, b)] for a <= b is a tuple with one fiber(a) position per
    fiber(b) position.  Identity and composition laws plus monotonicity are
    checked at construction, on every pair and every triple: the
    definitional route the library's block-level BlockFiberFunctor is held
    to through expand_block_functor.
    """

    base: object
    fibers: dict
    transports: dict

    def __post_init__(self):
        base, fibers, transports = self.base, self.fibers, self.transports
        for a in base.elements:
            if transports.get((a, a)) != tuple(range(len(fibers[a]))):
                raise IntegrityError(f"identity transport at {a!r} is not identity")
        above = {
            a: [b for b in base.elements if base.le(a, b)] for a in base.elements
        }
        for a in base.elements:
            for b in above[a]:
                fa, fb, t = fibers[a], fibers[b], transports[(a, b)]
                if len(t) != len(fb) or not all(0 <= x < len(fa) for x in t):
                    raise IntegrityError(f"transport {a!r}<={b!r} leaves the fiber")
                for y in range(len(fb)):
                    for z in range(len(fb)):
                        if fb.le_idx(y, z) and not fa.le_idx(t[y], t[z]):
                            raise IntegrityError(
                                f"transport {a!r}<={b!r} is not monotone"
                            )
        for a in base.elements:
            for b in above[a]:
                t_ab = transports[(a, b)]
                for c in above[b]:
                    t_bc, t_ac = transports[(b, c)], transports[(a, c)]
                    if tuple(t_ab[x] for x in t_bc) != t_ac:
                        raise IntegrityError(
                            f"transport composition law fails on {a!r}<={b!r}<={c!r}"
                        )


def expand_block_functor(functor):
    """The per-pair PosetFunctor of a block-level BlockFiberFunctor.

    Fiber(a) is the product of a's block fibers, ordered componentwise with
    the last block fastest, and each transport is read off its definition
    t_ab(y)_A = r[A, B](y_B), B the block of b holding A, one element key
    at a time.
    """
    from itertools import product

    from boxops.posets import Poset

    base, blocks, r = functor.base, functor.blocks, functor.restrictions
    fibs = functor.fibers
    fibers = {}
    for a, bs in blocks.items():
        fibers[a] = Poset.from_leq(
            list(product(*(fibs[blk].elements for blk in bs))),
            lambda x, y, bs=bs: all(fibs[blk].le(u, v) for blk, u, v in zip(bs, x, y)),
        )

    def restricted(fine, coarse, key):
        """r[fine, coarse] on element keys."""
        return fibs[fine].elements[r[fine, coarse][fibs[coarse].index[key]]]

    transports = {}
    for a in base.elements:
        for b in base.elements:
            if not base.le(a, b):
                continue
            # the digit of b whose block holds each block of a
            at = [
                next(j for j, c in enumerate(blocks[b]) if set(fine) <= set(c))
                for fine in blocks[a]
            ]
            transports[(a, b)] = tuple(
                fibers[a].index[tuple(
                    restricted(fine, blocks[b][j], y[j]) for fine, j in zip(blocks[a], at)
                )]
                for y in fibers[b].elements
            )
    return PosetFunctor(base=base, fibers=fibers, transports=transports)


def transport_keys(fibers, transports, a, b):
    """transports[(a, b)] as a map on element keys, fiber(b) to fiber(a), or
    None when it is missing, has the wrong length or a position out of
    range."""
    fa, fb, t = fibers[a], fibers[b], transports.get((a, b))
    if t is None or len(t) != len(fb) or not all(0 <= x < len(fa) for x in t):
        return None
    return {y: fa.elements[x] for y, x in zip(fb.elements, t)}


def oracle_total_poset(functor):
    """The total poset of a poset functor by its defining relation."""
    from boxops.posets import Poset

    base, fibers = functor.base, functor.fibers
    elements = [(a, x) for a in base.elements for x in fibers[a].elements]
    maps = {
        (a, b): transport_keys(fibers, functor.transports, a, b)
        for a in base.elements
        for b in base.elements
        if base.le(a, b)
    }

    def leq(px, py):
        (a, x), (b, y) = px, py
        return base.le(a, b) and fibers[a].le(x, maps[(a, b)][y])

    return Poset.from_leq(elements, leq)


def oracle_functor_laws(base, fibers, transports):
    """The first functor law the position transports break, or None.

    Each transport is read as a map on element keys, and the laws are
    checked pair by pair through Poset.le: identity first, then that every
    transport stays in its fiber and is monotone, then composition.  The
    names returned are the words of the IntegrityError messages of
    PosetFunctor and of the library's block laws.
    """
    pairs = [(a, b) for a in base.elements for b in base.elements if base.le(a, b)]
    for a in base.elements:
        ident = transport_keys(fibers, transports, a, a)
        if ident is None or any(ident[x] != x for x in fibers[a].elements):
            return "identity"
    maps = {}
    for a, b in pairs:
        t = maps[(a, b)] = transport_keys(fibers, transports, a, b)
        if t is None:
            return "leaves the fiber"
        fa, fb = fibers[a], fibers[b]
        if any(
            fb.le(x, y) and not fa.le(t[x], t[y])
            for x in fb.elements
            for y in fb.elements
        ):
            return "not monotone"
    for a, b in pairs:
        for c in base.elements:
            if base.le(b, c) and any(
                maps[(a, b)][maps[(b, c)][x]] != maps[(a, c)][x]
                for x in fibers[c].elements
            ):
                return "composition"
    return None


@lru_cache(maxsize=None)
def _raised_mdown(n, k):
    """The floor-1 decreasing family at n - 1 labels, every label raised."""
    from boxops.graphs import shift_labels

    return tuple(shift_labels(o, 1, n) for o in brute_force_family("mdown", n - 1, k))


def _oracle_fibers(n, obj):
    """The refinement poset of obj's admissible partitions, each partition's
    blocks, and its fiber keys: the product over its blocks of the sorted
    keys of the raised floor-1 decreasing members that is_morphism finds
    below obj's restriction to the block."""
    from itertools import product

    from boxops.graphs import is_morphism, restrict
    from boxops.partitions import ArcContext

    base = oracle_refinement_poset(ArcContext.from_graph_object(obj))
    blocks = {
        alpha: [
            tuple(x for x, i in enumerate(alpha) if i == p)
            for p in range(1, max(alpha) + 1)
        ]
        for alpha in base.elements
    }
    fiber_keys = {}
    for alpha, bs in blocks.items():
        factors = []
        for block in bs:
            obj_b = restrict(obj, block)
            raised = _raised_mdown(n, len(block))
            factors.append(sorted(o.key for o in raised if is_morphism(o, obj_b)))
        fiber_keys[alpha] = list(product(*factors))
    return base, blocks, fiber_keys


def oracle_transports(n, obj):
    """The block-fiber functor's transports on keys, by restriction.

    Fiber(b) is the product of b's block fibers (_oracle_fibers).  For
    a <= b each fiber(b) element is carried to the tuple that restricts,
    for each block of a, the object of the block of b containing it to the
    block's elements.
    Returns {(a, b): {fiber(b) key: fiber(a) key}}.
    """
    from boxops.graphs import from_key, restrict

    base, blocks, fiber_keys = _oracle_fibers(n, obj)
    out = {}
    for a in base.elements:
        for b in base.elements:
            if not base.le(a, b):
                continue
            inside = []
            for fine in blocks[a]:
                j = next(j for j, c in enumerate(blocks[b]) if set(fine) <= set(c))
                inside.append((j, [blocks[b][j].index(e) for e in fine]))
            out[(a, b)] = {
                y: tuple(
                    restrict(from_key(n, len(blocks[b][j]), y[j]), at).key
                    for j, at in inside
                )
                for y in fiber_keys[b]
            }
    return out


def oracle_assembly_candidates(n, obj):
    """The assembly map on keys, glued object by object.

    Each element of each partition's fiber (_oracle_fibers) decodes its block
    keys with from_key and glues them pair by pair into a GraphObject: an
    edge inside a block takes the block object's label and arrow, a cross
    edge label 1 pointing to the later block.  Every glued object must be
    in the decreasing family.
    Returns {(alpha, block keys): glued key}.
    """
    from boxops.graphs import MDOWN, GraphObject, from_key, in_family

    _, blocks, fiber_keys = _oracle_fibers(n, obj)
    out = {}
    for alpha, elements in fiber_keys.items():
        local = {e: (i, block.index(e))
                 for i, block in enumerate(blocks[alpha]) for e in block}
        for keys in elements:
            objs = [from_key(n, len(b), key) for b, key in zip(blocks[alpha], keys)]
            codes = []
            for x in range(obj.k):
                for y in range(x + 1, obj.k):
                    (bx, px), (by, py) = local[x], local[y]
                    if bx == by:
                        lab, fwd = objs[bx].label(px, py), objs[bx].arrow(px, py)
                        codes.append((lab - 1) * 2 + (1 if fwd else 0))
                    else:
                        codes.append(1 if alpha[x] < alpha[y] else 0)
            glued = GraphObject(n, obj.k, codes)
            assert in_family(glued, MDOWN), (alpha, keys)
            out[(alpha, keys)] = glued.key
    return out


def oracle_two_label_candidates(obj):
    """The two-label reduction's map on keys, code by code: a cross edge
    gets label 1 pointing to the later block, an edge inside a block label 2
    oriented along the least-index topological order of obj's 1-arcs.
    Returns {alpha: key}."""
    from boxops.graphs import GraphObject, topological_order
    from boxops.partitions import ArcContext

    pos = {v: i for i, v in enumerate(topological_order(obj.k, obj.arcs(label=1)))}
    out = {}
    for v in ArcContext.from_graph_object(obj).partitions():
        alpha = v.alpha
        codes = []
        for x in range(obj.k):
            for y in range(x + 1, obj.k):
                if alpha[x] == alpha[y]:
                    codes.append(2 + (1 if pos[x] < pos[y] else 0))
                else:
                    codes.append(1 if alpha[x] < alpha[y] else 0)
        out[alpha] = GraphObject(2, obj.k, codes).key
    return out
