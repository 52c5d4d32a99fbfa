"""Exact-rational little cubes and the order-pattern subspaces.

Everything here is exact: realization membership, constructive witnesses,
the closed-form union membership test, the straight-line contracting
homotopies, the operad compatibility checks and the colimit-fiber
counterexample.  Endpoints are Fractions; each configuration also holds
them as integers over its common denominator, and every order question on
a configuration is an integer comparison on that grid.  No floats anywhere.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import graphs
from .errors import FalsificationError, FamilyError, IntegrityError
from .graphs import (
    GraphObject,
    find_monochromatic_cycle,
    in_family,
    is_morphism,
    topological_order,
)
from .textform import from_box_expr

# sample_config draws endpoints in (1/SAMPLE_DEN)Z, at most SAMPLE_TRIES times
SAMPLE_DEN = 24
SAMPLE_TRIES = 4000


@dataclass(frozen=True)
class AffineEmbedding:
    """An increasing affine self-map of the unit interval, by endpoints."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        a = self.a if type(self.a) is Fraction else Fraction(self.a)
        b = self.b if type(self.b) is Fraction else Fraction(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (0 <= a < b <= 1):
            raise ValueError(f"need 0 <= a < b <= 1, got [{a}, {b}]")

    def __call__(self, t: Fraction) -> Fraction:
        return (1 - t) * self.a + t * self.b

    def compose(self, inner: "AffineEmbedding") -> "AffineEmbedding":
        return AffineEmbedding(self(inner.a), self(inner.b))


@dataclass(frozen=True)
class LittleCube:
    coords: tuple[AffineEmbedding, ...]

    @property
    def n(self) -> int:
        return len(self.coords)

    @classmethod
    def from_intervals(cls, *intervals) -> "LittleCube":
        return cls(
            tuple(AffineEmbedding(Fraction(a), Fraction(b)) for a, b in intervals)
        )


@dataclass(frozen=True)
class CubeConfig:
    """A tuple of little cubes indexed by the ground set 0..k-1.

    The grid holds every endpoint as an integer over den, the lcm of the
    endpoint denominators: lo[x * n + i - 1] and hi[x * n + i - 1] are cube
    x's endpoints in coordinate i, times den.  It is derived from the cubes,
    so equality, hashing and the text form ignore it.
    """

    n: int
    cubes: tuple[LittleCube, ...]
    den: int = field(init=False, repr=False, compare=False)
    lo: tuple[int, ...] = field(init=False, repr=False, compare=False)
    hi: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for c in self.cubes:
            if c.n != self.n:
                raise ValueError("all cubes must have the ambient dimension")
        coords = [e for c in self.cubes for e in c.coords]
        den = math.lcm(*(e.a.denominator for e in coords),
                       *(e.b.denominator for e in coords))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "lo", tuple(
            e.a.numerator * (den // e.a.denominator) for e in coords))
        object.__setattr__(self, "hi", tuple(
            e.b.numerator * (den // e.b.denominator) for e in coords))

    @property
    def k(self) -> int:
        return len(self.cubes)

    def separated(self) -> bool:
        """Pairwise disjoint open images, via per-coordinate separation."""
        return _separated(self.n, self.k, self.lo, self.hi)

    def to_text(self) -> str:
        rows = []
        for c in self.cubes:
            rows.append(
                ";".join(f"{e.a.numerator}/{e.a.denominator}:"
                         f"{e.b.numerator}/{e.b.denominator}" for e in c.coords)
            )
        return "|".join(rows)

    @classmethod
    def from_text(cls, n: int, text: str) -> "CubeConfig":
        cubes = []
        for row in text.split("|"):
            coords = []
            for item in row.split(";"):
                lo, hi = item.split(":")
                coords.append(AffineEmbedding(Fraction(lo), Fraction(hi)))
            cubes.append(LittleCube(tuple(coords)))
        return cls(n, tuple(cubes))


def less_i(c: LittleCube, d: LittleCube, i: int) -> bool:
    """Coordinate-i separation: c's upper endpoint at or below d's lower.

    The definition on Fractions; a configuration's grid answers the same
    question with one integer comparison.
    """
    if not 1 <= i <= c.n:
        raise ValueError(f"coordinate {i} out of range 1..{c.n}")
    return c.coords[i - 1].b <= d.coords[i - 1].a


def _separated(n: int, k: int, lo: Sequence[int], hi: Sequence[int]) -> bool:
    """Every two of the k cubes on a grid are apart in some coordinate."""
    for x in range(k):
        for y in range(x + 1, k):
            if not any(
                hi[x * n + i] <= lo[y * n + i] or hi[y * n + i] <= lo[x * n + i]
                for i in range(n)
            ):
                return False
    return True


def realizes(config: CubeConfig, mu: GraphObject) -> bool:
    """Does the configuration realize mu's order pattern exactly.

    Each edge code c puts the tail's cube below the head's in coordinate
    (c >> 1) + 1, the tail being the smaller element when c & 1.
    """
    if config.n != mu.n or config.k != mu.k:
        raise ValueError("configuration and object shapes differ")
    n, lo, hi = config.n, config.lo, config.hi
    for (x, y), c in zip(graphs.edge_pairs(mu.k), mu.codes):
        tail, head = (x, y) if c & 1 else (y, x)
        if hi[tail * n + (c >> 1)] > lo[head * n + (c >> 1)]:
            return False
    return True


def witness(mu: GraphObject) -> CubeConfig:
    """A configuration in G(mu), built from per-label linear extensions.

    Each label's arc relation is extended to a linear order; cube x occupies
    the rank-r subinterval [(r-1)/k, r/k] in that coordinate.  Membership
    and separation are re-verified before returning.
    """
    k = mu.k
    orders = [topological_order(k, mu.arcs(label)) for label in range(1, mu.n + 1)]
    if None in orders:
        cycle = find_monochromatic_cycle(mu)
        raise FamilyError(
            f"no realization exists: monochromatic oriented cycle {cycle}"
        )
    ranks = [{v: r for r, v in enumerate(order)} for order in orders]
    cubes = []
    for x in range(k):
        coords = []
        for label in range(1, mu.n + 1):
            r = ranks[label - 1][x]
            coords.append(AffineEmbedding(Fraction(r, k), Fraction(r + 1, k)))
        cubes.append(LittleCube(tuple(coords)))
    config = CubeConfig(mu.n, tuple(cubes))
    if not realizes(config, mu):
        raise IntegrityError("constructed witness fails its own membership")
    if k > 1 and not config.separated():
        raise IntegrityError("constructed witness is not separated")
    return config


def realization_certificate(mu: GraphObject):
    """("witness", config) when realizable, ("cycle", vertices) otherwise."""
    try:
        return ("witness", witness(mu))
    except FamilyError:
        cycle = find_monochromatic_cycle(mu)
        if cycle is None:
            raise IntegrityError("refused a realizable object")
        return ("cycle", cycle)


def verify_cycle_certificate(mu: GraphObject, cycle: Sequence[int]) -> bool:
    """The cycle really is oriented and monochromatic in mu."""
    if len(cycle) < 2 or len(set(cycle)) != len(cycle):
        return False
    labels = set()
    for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
        if not mu.arrow(a, b):
            return False
        labels.add(mu.label(a, b))
    return len(labels) == 1


def infimum_check(mu1: GraphObject, mu2: GraphObject, config: CubeConfig) -> GraphObject:
    """The labelwise minimum of two patterns sharing a configuration.

    Verifies the result stays monochromatic-cycle-free, contains the shared
    configuration, and sits below both inputs.
    """
    if not realizes(config, mu1) or not realizes(config, mu2):
        raise ValueError("configuration must realize both patterns")
    codes = []
    for c1, c2 in zip(mu1.codes, mu2.codes):
        l1, l2 = c1 >> 1, c2 >> 1
        if l1 == l2 and (c1 ^ c2) & 1:
            raise IntegrityError(
                "equal labels with opposite orientations share a configuration"
            )
        codes.append(c1 if l1 <= l2 else c2)
    mu0 = GraphObject(mu1.n, mu1.k, codes)
    if not in_family(mu0, graphs.KE):
        raise FalsificationError(
            "labelwise minimum has a monochromatic cycle",
            {"mu1": mu1.key, "mu2": mu2.key},
        )
    if not realizes(config, mu0):
        raise FalsificationError(
            "configuration left the labelwise minimum", {"mu0": mu0.key}
        )
    if not is_morphism(mu0, mu1) or not is_morphism(mu0, mu2):
        raise FalsificationError(
            "labelwise minimum is not a lower bound", {"mu0": mu0.key}
        )
    return mu0


def realizes_below(config: CubeConfig, nu: GraphObject, check_separated: bool = True) -> bool:
    """Closed-form membership in the union of realizations below nu."""
    if config.n != nu.n or config.k != nu.k:
        raise ValueError("configuration and object shapes differ")
    if check_separated and not config.separated():
        raise ValueError("configuration must have separated interiors")
    return realizes_below_table(less_table(config), nu)


def brute_force_realizes_below(
    config: CubeConfig, nu: GraphObject, family: Sequence[GraphObject], table=None
) -> bool:
    """Union test: some family member below nu realizes the configuration.

    Runs on the family's bitset index (graphs.family_index), starting from
    every member.  On each edge it ORs the with_code columns of the codes
    that step to nu's code there and that the configuration realizes on its
    grid, reading each code's grid slots from _edge_slots, and ANDs that
    into the running set; an empty set ends the test.  Nothing is shared
    with realizes_below or the less_table masks it is checked against;
    `table` is accepted for callers that pass one and never read.
    """
    if config.n != nu.n or config.k != nu.k:
        raise ValueError("configuration and object shapes differ")
    index = graphs.family_index(family)
    if not index.size:
        return False
    graphs.require_shape(index.n, index.k, nu)
    lo, hi = config.lo, config.hi
    found = (1 << index.size) - 1
    for by_code, slots, want in zip(index.with_code, _edge_slots(nu.n, nu.k), nu.codes):
        fits = 0
        for c, tail, head in slots[want]:
            if hi[tail] <= lo[head]:
                fits |= by_code[c]
        found &= fits
        if not found:
            return False
    return True


_EDGE_SLOTS: dict[tuple[int, int], tuple] = {}


def _edge_slots(n: int, k: int) -> tuple:
    """slots[e][want]: a (c, tail slot, head slot) triple for each code c
    that steps to code `want` on edge e of edge_pairs(k).

    The slots index a configuration's grid: the configuration realizes c on
    edge e when hi[tail slot] <= lo[head slot].  Computed once per (n, k).
    """
    try:
        return _EDGE_SLOTS[n, k]
    except KeyError:
        steps_to = graphs._step_codes(n)[0]
        slots = []
        for x, y in graphs.edge_pairs(k):
            by_want = []
            for froms in steps_to:
                triples = []
                for c in froms:
                    tail, head = (x, y) if c & 1 else (y, x)
                    triples.append((c, tail * n + (c >> 1), head * n + (c >> 1)))
                by_want.append(tuple(triples))
            slots.append(tuple(by_want))
        _EDGE_SLOTS[n, k] = tuple(slots)
        return _EDGE_SLOTS[n, k]


def less_table(config: CubeConfig) -> list[list[int]]:
    """tab[x][y]: bitmask of coordinates i (bit i-1) with cube x below cube y.

    Holds every comparison of the configuration's grid once, so a sweep can
    test many objects against it through realizes_below_table.
    """
    k, n, lo, hi = config.k, config.n, config.lo, config.hi
    tab = [[0] * k for _ in range(k)]
    for x in range(k):
        for y in range(k):
            if x == y:
                continue
            bits = 0
            for i in range(n):
                if hi[x * n + i] <= lo[y * n + i]:
                    bits |= 1 << i
            tab[x][y] = bits
    return tab


def realizes_below_table(table, nu: GraphObject) -> bool:
    """Closed-form membership in the union of realizations below nu.

    Every edge of nu, from tail to head with label l, needs the tail's cube
    below the head's in some coordinate i <= l, or the head's below the
    tail's in some coordinate i < l.
    """
    for (x, y), c in zip(graphs.edge_pairs(nu.k), nu.codes):
        tail, head = (x, y) if c & 1 else (y, x)
        bound = (c >> 1) + 1
        if not (
            table[tail][head] & ((1 << bound) - 1)
            or table[head][tail] & ((1 << (bound - 1)) - 1)
        ):
            return False
    return True


def stage_homotopy(
    j: int,
    config: CubeConfig,
    t: Fraction,
    anchor: CubeConfig,
    nu: GraphObject | None = None,
) -> CubeConfig:
    """Stagewise straight-line homotopy toward an anchoring configuration.

    Coordinates below j come from config, coordinate j interpolates at time
    t, coordinates above j come from the anchor.
    """
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"time {t} outside [0, 1]")
    if not 1 <= j <= config.n:
        raise ValueError(f"stage {j} outside 1..{config.n}")
    if config.n != anchor.n or config.k != anchor.k:
        raise ValueError("configuration and anchor shapes differ")
    if nu is not None and not realizes(anchor, nu):
        raise ValueError("anchor does not realize the pattern")
    cubes = []
    for x in range(config.k):
        coords = []
        for i in range(1, config.n + 1):
            f = config.cubes[x].coords[i - 1]
            g = anchor.cubes[x].coords[i - 1]
            if i < j:
                coords.append(f)
            elif i == j:
                coords.append(
                    AffineEmbedding((1 - t) * f.a + t * g.a, (1 - t) * f.b + t * g.b)
                )
            else:
                coords.append(g)
        cubes.append(LittleCube(tuple(coords)))
    return CubeConfig(config.n, tuple(cubes))


def blend(c1: CubeConfig, c2: CubeConfig, lam: Fraction) -> CubeConfig:
    """Affine combination of endpoint vectors (convexity probe)."""
    lam = Fraction(lam)
    if not 0 <= lam <= 1:
        raise ValueError("blend parameter outside [0, 1]")
    cubes = []
    for a, b in zip(c1.cubes, c2.cubes):
        coords = [
            AffineEmbedding(
                (1 - lam) * fa.a + lam * fb.a, (1 - lam) * fa.b + lam * fb.b
            )
            for fa, fb in zip(a.coords, b.coords)
        ]
        cubes.append(LittleCube(tuple(coords)))
    return CubeConfig(c1.n, tuple(cubes))


def permute_config(config: CubeConfig, sigma: Sequence[int]) -> CubeConfig:
    """Right action matching the object action: slot x takes cube sigma(x)."""
    if sorted(sigma) != list(range(config.k)):
        raise ValueError("sigma is not a permutation")
    return CubeConfig(config.n, tuple(config.cubes[sigma[x]] for x in range(config.k)))


def compose_configs(outer: CubeConfig, inners: Sequence[CubeConfig]) -> CubeConfig:
    """Operad composition: rescale each inner configuration into its slot."""
    if len(inners) != outer.k:
        raise ValueError("arity mismatch")
    cubes = []
    for slot, inner in enumerate(inners):
        big = outer.cubes[slot]
        for cube in inner.cubes:
            cubes.append(
                LittleCube(
                    tuple(
                        big.coords[i].compose(cube.coords[i])
                        for i in range(outer.n)
                    )
                )
            )
    return CubeConfig(outer.n, tuple(cubes))


def sample_config(rng: random.Random, n: int, k: int) -> CubeConfig:
    """A separated configuration with endpoints in (1/SAMPLE_DEN)Z, by
    rejection, giving up after SAMPLE_TRIES draws.

    Each try draws the integer endpoints and is tested for separation
    before any Fraction is built.
    """
    for _ in range(SAMPLE_TRIES):
        lo, hi = [], []
        for _ in range(k * n):
            a = rng.randint(0, SAMPLE_DEN - 1)
            lo.append(a)
            hi.append(rng.randint(a + 1, SAMPLE_DEN))
        if _separated(n, k, lo, hi):
            return CubeConfig(n, tuple(
                LittleCube(tuple(
                    AffineEmbedding(Fraction(lo[j], SAMPLE_DEN), Fraction(hi[j], SAMPLE_DEN))
                    for j in range(x * n, x * n + n)
                ))
                for x in range(k)
            ))
    raise RuntimeError(f"no separated sample found in {SAMPLE_TRIES} tries")


def factorization_checks(seed: int, gamma_samples: int = 100) -> dict:
    """Verify the two operad compatibility squares on exact samples.

    Exhaustive permutation sweep at (n=2, k=3) witnesses, plus seeded
    composed-witness samples; any failure raises FalsificationError.
    """
    from itertools import permutations

    from .grothendieck import family_tuple

    report = {"sigma_checked": 0, "gamma_checked": 0}
    for mu in family_tuple("ke", 2, 3):
        config = witness(mu)
        for sigma in permutations(range(3)):
            acted = graphs.sigma_action(mu, sigma)
            moved = permute_config(config, sigma)
            if not realizes(moved, acted):
                raise FalsificationError(
                    "permuted configuration left the permuted pattern",
                    {"mu": mu.key, "sigma": sigma},
                )
            report["sigma_checked"] += 1

    rng = random.Random(seed)
    count = 0
    while count < gamma_samples:
        n = rng.choice([2, 3])
        karity = rng.randint(1, 3)
        sizes = [rng.randint(1, 2) for _ in range(karity)]
        if karity + sum(sizes) > 5 + karity:
            continue
        outer_objs = family_tuple("ke", n, karity)
        mu = outer_objs[rng.randrange(len(outer_objs))]
        nus = []
        for s in sizes:
            pool = family_tuple("ke", n, s)
            nus.append(pool[rng.randrange(len(pool))])
        composed_obj = graphs.gamma(mu, nus)
        composed_cfg = compose_configs(witness(mu), [witness(nu) for nu in nus])
        if not realizes(composed_cfg, composed_obj):
            raise FalsificationError(
                "composed configuration left the composed pattern",
                {"mu": mu.key, "nus": [nu.key for nu in nus]},
            )
        if composed_cfg.k > 1 and not composed_cfg.separated():
            raise FalsificationError(
                "composed configuration lost separation", {"mu": mu.key}
            )
        count += 1
    report["gamma_checked"] = count
    return report


# ---------------------------------------------------------------------------
# the colimit-fiber counterexample


def reedy_counterexample() -> dict:
    """Exact verification that the punctured-overcategory colimit map is
    not injective for the decomposable three-object diagram.

    Returns the full evidence; raises FalsificationError if any of the four
    steps fails.
    """
    from .grothendieck import family_tuple

    c1 = LittleCube.from_intervals((0, Fraction(1, 2)), (0, Fraction(1, 3)), (Fraction(1, 2), 1))
    c2 = LittleCube.from_intervals((0, 1), (Fraction(1, 3), Fraction(2, 3)), (0, Fraction(1, 2)))
    c3 = LittleCube.from_intervals((Fraction(1, 2), 1), (Fraction(2, 3), 1), (Fraction(1, 2), 1))
    p = CubeConfig(3, (c1, c2, c3))
    mu1 = from_box_expr("1[]2 2[]2 3", 3)
    mu2 = from_box_expr("2[]3(1[]1 3)", 3)
    nu = from_box_expr("2[]3(1[]2 3)", 3)
    m33 = family_tuple("m", 3, 3)
    m33_keys = {o.key for o in m33}
    for obj in (mu1, mu2, nu):
        if obj.key not in m33_keys:
            raise FalsificationError("diagram object is not decomposable", {})
    if not (is_morphism(mu1, nu) and is_morphism(mu2, nu)):
        raise FalsificationError("diagram arrows are missing", {})

    report: dict = {"config": p.to_text()}

    # (1) the shared point
    step1 = realizes(p, mu1) and realizes(p, mu2)
    report["step1_in_both"] = step1
    report["step1_inequalities"] = _membership_evidence(p, mu1) + _membership_evidence(p, mu2)
    if not step1:
        raise FalsificationError("shared configuration is not shared", report)

    # (2) the interval between the two diagram arrows is bare
    interval = [o.key for o in m33 if is_morphism(mu2, o) and is_morphism(o, nu)]
    report["step2_interval"] = sorted(interval)
    if sorted(interval) != sorted([mu2.key, nu.key]):
        raise FalsificationError("extra object between the diagram arrows", report)

    # (3) nothing below mu2 contains p except mu2 itself
    below = [o.key for o in m33 if is_morphism(o, mu2) and realizes(p, o)]
    report["step3_below"] = sorted(below)
    if below != [mu2.key]:
        raise FalsificationError("a smaller pattern realizes the point", report)

    # (4) the point's fiber in the punctured overcategory is disconnected,
    # separating the two diagram objects
    punctured = [o for o in m33 if is_morphism(o, nu) and o.key != nu.key]
    fiber = [
        o
        for o in punctured
        if any(is_morphism(q, o) and realizes(p, q) for q in m33)
    ]
    fiber_keys = [o.key for o in fiber]
    parent = {key: key for key in fiber_keys}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in fiber:
        for b in fiber:
            if a.key < b.key and (is_morphism(a, b) or is_morphism(b, a)):
                parent[find(a.key)] = find(b.key)
    components: dict = {}
    for key in fiber_keys:
        components.setdefault(find(key), []).append(key)
    report["step4_fiber_size"] = len(fiber_keys)
    report["step4_components"] = sorted(len(v) for v in components.values())
    if mu1.key not in fiber_keys or mu2.key not in fiber_keys:
        raise FalsificationError("diagram objects left the fiber", report)
    if find(mu1.key) == find(mu2.key):
        raise FalsificationError(
            "diagram objects are connected in the fiber; map would be injective",
            report,
        )
    report["not_injective"] = True
    return report


def _membership_evidence(config: CubeConfig, mu: GraphObject) -> list[str]:
    out = []
    for x, y in graphs.edge_pairs(mu.k):
        i = mu.label(x, y)
        tail, head = (x, y) if mu.arrow(x, y) else (y, x)
        upper = config.cubes[tail].coords[i - 1].b
        lower = config.cubes[head].coords[i - 1].a
        out.append(f"cube{tail + 1} <_{i} cube{head + 1}: {upper} <= {lower}")
    return out
