"""The benchmark's workloads: seeded inputs, requests and output checks.

A workload is a closed loop of single requests.  Its inputs are drawn by
seed in rounds of fixed composition: every round holds the same number of
requests of each stratum (a size class or a request kind), so runs with
different seeds differ only in which members of a stratum they draw, never
in how much of each kind of work they do.  That keeps throughput and the
latency percentiles steady across seeds.

Workloads never import boxops themselves; every call goes through the
`lib` namespace that `harness.load_library` returns, so a traced run can
swap in instrumented functions after import.

Each `run` returns the raw outputs; `check` compares them with the
benchmark's own expectations and returns (ok, digest record).  Digest
records hold verdict-level outputs only, never certificate internals such
as the order of collapse steps.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import permutations, product

CONTRACTIBLE = "CONTRACTIBLE-certified"


class Request:
    """One request: its kind, its input and a plain-data description."""

    __slots__ = ("kind", "payload", "describe")

    def __init__(self, kind, payload, describe):
        self.kind = kind
        self.payload = payload
        self.describe = describe


# ---------------------------------------------------------------------------
# independent combinatorics used by the output checks


def _weak_order_masks(k: int) -> list[int]:
    """For every ordered partition of 0..k-1, the bitmask of ordered pairs
    (a, b), bit a*k+b, that it places in strictly increasing blocks."""
    masks = []
    for p in range(1, k + 1):
        for alpha in product(range(1, p + 1), repeat=k):
            if len(set(alpha)) != p:
                continue
            mask = 0
            for a in range(k):
                for b in range(k):
                    if alpha[a] < alpha[b]:
                        mask |= 1 << (a * k + b)
            masks.append(mask)
    return masks


def _closure(k: int, arcs) -> frozenset:
    reach = {(a, b) for a, b in arcs}
    for m in range(k):
        for a in range(k):
            if (a, m) in reach:
                for b in range(k):
                    if (m, b) in reach:
                        reach.add((a, b))
    return frozenset(reach)


class ContextFacts:
    """Admissible-partition counts and least elements, computed without boxops."""

    def __init__(self, k: int):
        self.k = k
        self.masks = _weak_order_masks(k)

    def count(self, closed_arcs) -> int:
        k = self.k
        need = 0
        for a, b in closed_arcs:
            need |= 1 << (a * k + b)
        return sum(1 for m in self.masks if not need & ~m)

    def least_word(self, closed_arcs) -> str:
        """The pointwise-least admissible word: 1 + height in the closure."""
        preds = {x: [a for a, b in closed_arcs if b == x] for x in range(self.k)}
        height: dict[int, int] = {}
        for x in sorted(range(self.k), key=lambda v: len(preds[v])):
            height[x] = 1 + max((height[a] for a in preds[x]), default=0)
        return "".join(str(height[x]) for x in range(self.k))


def _edge_below(a: int, b: int) -> bool:
    """The single-edge morphism condition between edge codes a and b."""
    la, lb = a >> 1, b >> 1
    return la < lb if (a ^ b) & 1 else la <= lb


class MorphismCounts:
    """How many members of a family lie below or above an object.

    One bitset over the members per (edge, code) pair makes each count six
    big-integer ANDs, fast enough to rank a whole family by cost.
    """

    def __init__(self, members, codes: int):
        edges = len(members[0].codes) if members else 0
        self.below = [[0] * codes for _ in range(edges)]
        self.above = [[0] * codes for _ in range(edges)]
        for j, m in enumerate(members):
            for e, c in enumerate(m.codes):
                for x in range(codes):
                    if _edge_below(c, x):
                        self.below[e][x] |= 1 << j
                    if _edge_below(x, c):
                        self.above[e][x] |= 1 << j

    def count(self, obj, table) -> int:
        acc = -1
        for e, c in enumerate(obj.codes):
            acc &= table[e][c]
        return acc.bit_count()


class UnionScans:
    """How many family members brute force scans for a union check.

    brute_force_realizes_below walks the family in order and stops at the
    first member that lies below nu and realizes the configuration, so its
    cost for one nu is the position of that member, or the family size when
    there is none.  Bitsets over the members per (edge, code) pair give both
    sets in a few big-integer ANDs, fast enough to rank many configurations
    by cost before a run.
    """

    def __init__(self, members, n: int):
        codes = 2 * n
        k = members[0].k
        self.size = len(members)
        self.pairs = [(x, y) for x in range(k) for y in range(x + 1, k)]
        self.below = MorphismCounts(members, codes).below
        self.with_code = [[0] * codes for _ in self.pairs]
        for j, m in enumerate(members):
            for e, c in enumerate(m.codes):
                self.with_code[e][c] |= 1 << j

    def realizing(self, cfg) -> int:
        """The members whose order pattern the configuration realizes: on
        every edge, the tail's cube lies wholly below the head's cube in
        the edge's label coordinate."""
        acc = -1
        for (x, y), by_code in zip(self.pairs, self.with_code):
            fits = 0
            for c, members in enumerate(by_code):
                tail, head = (x, y) if c & 1 else (y, x)
                i = c >> 1
                if cfg.cubes[tail].coords[i].b <= cfg.cubes[head].coords[i].a:
                    fits |= members
            acc &= fits
        return acc

    def scanned(self, cfg, nus) -> int:
        fits = self.realizing(cfg)
        total = 0
        for nu in nus:
            acc = fits
            for e, c in enumerate(nu.codes):
                acc &= self.below[e][c]
            total += (acc & -acc).bit_length() if acc else self.size
        return total


def one_arcs(obj) -> list[tuple[int, int]]:
    """The 1-labeled arcs of an object, decoded from its public edge codes."""
    k = obj.k
    pairs = [(x, y) for x in range(k) for y in range(x + 1, k)]
    return [
        (x, y) if c & 1 else (y, x)
        for (x, y), c in zip(pairs, obj.codes)
        if c >> 1 == 0
    ]


def quotas(sizes: dict, per_round: int) -> dict:
    """Largest-remainder allocation of per_round draws across strata by size.

    Ties break on the stratum key, so the allocation is a constant of the
    population and never depends on the seed.
    """
    total = sum(sizes.values())
    raw = {s: sizes[s] * per_round / total for s in sizes}
    out = {s: int(raw[s]) for s in raw}
    rest = per_round - sum(out.values())
    for s in sorted(raw, key=lambda s: (out[s] - raw[s], s))[:rest]:
        out[s] += 1
    return {s: q for s, q in out.items() if q}


def _radical_inverse(t: int) -> float:
    """Base-2 van der Corput point t: 0, 1/2, 1/4, 3/4, 1/8, ..."""
    x, f = 0.0, 0.5
    while t:
        if t & 1:
            x += f
        t >>= 1
        f /= 2
    return x


class _Deck:
    """Draws without replacement from each stratum, spread evenly over it.

    Each stratum is a list the workload sorted by predicted cost.  Its t-th
    draw takes the member at (offset + van der Corput point t) mod 1 of the
    way along the list, with a seeded offset per stratum, so that any run
    of consecutive draws covers cheap and costly members in proportion.  A
    stratum starts over when every member has been drawn.
    """

    def __init__(self, rng: random.Random, strata: dict):
        self.strata = strata
        self.offset = {s: rng.random() for s in sorted(strata)}
        self.drawn = {s: 0 for s in strata}
        self.used: dict = {s: set() for s in strata}

    def draw(self, s):
        members, used = self.strata[s], self.used[s]
        if len(used) == len(members):
            used.clear()
        u = (self.offset[s] + _radical_inverse(self.drawn[s])) % 1.0
        pos = int(u * len(members))
        while pos in used:
            pos = (pos + 1) % len(members)
        used.add(pos)
        self.drawn[s] += 1
        return members[pos]


# ---------------------------------------------------------------------------
# collapse


class Collapse:
    """k=5 constraint contexts through the per-context pipeline of run_collapse."""

    name = "collapse"
    k = 5
    # contexts this large take 15 s to ten minutes on their own
    excluded_sizes = (145, 233, 541)
    per_round = 50

    def __init__(self):
        self.facts = ContextFacts(self.k)
        self.perms = list(permutations(range(self.k)))
        self._strata: dict = {}

    def setup(self, lib):
        return lib.partitions.all_contexts(self.k)

    def _stratum(self, arcs):
        """(admissible-partition count, isomorphism type) of a context.

        Contexts of one type are relabelings of each other and cost the
        same; contexts with equal counts can differ fourfold.
        """
        if arcs not in self._strata:
            closed = _closure(self.k, arcs)
            canon = min(tuple(sorted((p[a], p[b]) for a, b in closed))
                        for p in self.perms)
            self._strata[arcs] = (self.facts.count(closed), canon)
        return self._strata[arcs]

    def rounds(self, lib, state, seed):
        """Rounds of contexts, stratified by isomorphism type in proportion
        to how many contexts each type has."""
        strata: dict = {}
        for ctx in sorted(state, key=lambda c: sorted(c.one_arcs)):
            stratum = self._stratum(frozenset(ctx.one_arcs))
            if stratum[0] not in self.excluded_sizes:
                strata.setdefault(stratum, []).append(ctx)
        plan = quotas({s: len(v) for s, v in strata.items()}, self.per_round)
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        deck = _Deck(rng, strata)
        while True:
            batch = [
                Request("context", (ctx, stratum[0]), sorted(ctx.one_arcs))
                for stratum in sorted(plan)
                for ctx in (deck.draw(stratum) for _ in range(plan[stratum]))
            ]
            rng.shuffle(batch)
            yield batch

    def run(self, lib, state, req):
        ctx, _ = req.payload
        result = lib.partitions.collapse_driver(ctx)
        lib.complexes.replay_trace(ctx.flag_complex(), result.trace)
        return result, lib.checks.trace_to_json(ctx, result)

    def check(self, req, out):
        result, text = out
        ctx, size = req.payload
        least = self.facts.least_word(_closure(self.k, ctx.one_arcs))
        doc = json.loads(text)
        ok = (
            result.partition_count == size
            and result.terminal.word() == least
            and result.simplex_count == 2 * result.steps + 1
            and doc["least"] == least
            and doc["partitions"] == result.partition_count
            and doc["simplex_count"] == result.simplex_count
            and len(doc["steps"]) == result.steps
        )
        return ok, [req.describe, result.partition_count, result.simplex_count,
                    result.terminal.word()]


# ---------------------------------------------------------------------------
# sweeps


class Sweeps:
    """(object, check) pairs on (n=3, k=4) objects: the homotopy-initial and
    -final sweeps, the assembly isomorphism and the two-label reduction."""

    name = "sweeps"
    n, k = 3, 4
    per_round = 50
    kinds = ("initial-mdown", "initial-m", "final-mup", "final-m",
             "grothendieck", "two-label")

    def __init__(self):
        self.facts = ContextFacts(self.k)

    def setup(self, lib):
        ft = lib.grothendieck.family_tuple
        n, k = self.n, self.k
        state = {tag: ft(tag, n, k) for tag in ("ke", "mdown", "mup", "m")}
        # the block fibers and the two-label over-posets read these
        for size in range(1, k + 1):
            ft("mdown", n - 1, size)
        return state

    def rounds(self, lib, state, seed):
        """Rounds of objects, stratified by label histogram, each object
        paired with every check kind.

        Within a histogram, objects are ranked by the sizes of the posets
        the four sweeps build, so that the deck spreads its draws evenly
        over cheap and costly objects.
        """
        codes = 2 * self.n
        m, mdown, mup = (MorphismCounts(state[t], codes) for t in ("m", "mdown", "mup"))

        def cost(obj):
            # the four sweeps compare all pairs of these posets
            return (m.count(obj, m.below) ** 2 + m.count(obj, m.above) ** 2
                    + mdown.count(obj, mdown.below) ** 2
                    + mup.count(obj, mup.above) ** 2)

        strata: dict = {}
        for obj in state["ke"]:
            hist = tuple(sum(1 for c in obj.codes if c >> 1 == lab)
                         for lab in range(self.n))
            strata.setdefault(hist, []).append((cost(obj), obj.key, obj))
        strata = {h: [obj for _, _, obj in sorted(v)] for h, v in strata.items()}
        plan = quotas({s: len(v) for s, v in strata.items()}, self.per_round)
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        deck = _Deck(rng, strata)
        while True:
            batch = [
                Request(kind, obj, [kind, obj.key])
                for hist in sorted(plan)
                for obj in (deck.draw(hist) for _ in range(plan[hist]))
                for kind in self.kinds
            ]
            rng.shuffle(batch)
            yield batch

    def run(self, lib, state, req):
        obj, kind = req.payload, req.kind
        if kind == "grothendieck":
            return lib.grothendieck.verify_grothendieck_prop(self.n, obj)
        if kind == "two-label":
            return lib.grothendieck.verify_two_label_reduction(obj)
        direction, sub = kind.split("-")
        check = (lib.contractibility.check_homotopy_initial if direction == "initial"
                 else lib.contractibility.check_homotopy_final)
        return check([obj], state[sub], lib.graphs.is_morphism)

    def check(self, req, out):
        obj, kind = req.payload, req.kind
        if kind in ("grothendieck", "two-label"):
            parts = self.facts.count(_closure(self.k, one_arcs(obj)))
            ok = (
                out["object_key"] == obj.key
                and out["isomorphic"] is True
                and out["partitions"] == parts
                and out["over"] == (out["total"] if kind == "grothendieck" else parts)
            )
            return ok, req.describe + [out["partitions"], out["over"]]
        ok = list(out) == [obj.key] and out[obj.key].status == CONTRACTIBLE
        return ok, req.describe + [out[obj.key].status if obj.key in out else None]


# ---------------------------------------------------------------------------
# cubes


class Cubes:
    """Exact cube configurations: the closed-form union test against brute
    force at (2,4) and (3,3), and the stage-homotopy identities at (2,4)."""

    name = "cubes"
    # kind -> (n, k, how many seeded nu per union check or None for all,
    # requests per round).  The kinds' latencies do not overlap: homotopy
    # is fastest, then (3,3), then (2,4).  With 5:10:10 per round, p50 falls
    # at the upper quartile of the (3,3) union latencies and p90 at the
    # upper quartile of the (2,4) ones.  The middle of the (3,3) latencies
    # is a poor place for p50: configuration costs are sparse there, and
    # on a machine whose speed wanders, that quantile spread twice as far
    # as the upper quartile over 30-second windows of one long run.
    kinds = {"union-2-4": (2, 4, 100, 10), "union-3-3": (3, 3, None, 10),
             "homotopy-2-4": (2, 4, None, 5)}
    # union inputs drawn per kind before a run and ranked by cost, several
    # times what a run uses, so that the spread of costs a run sees is
    # nearly that of the whole population whatever the seed
    union_pool = 400

    def setup(self, lib):
        ft = lib.grothendieck.family_tuple
        return {(2, 4): ft("ke", 2, 4), (3, 3): ft("ke", 3, 3)}

    def rounds(self, lib, state, seed):
        """Rounds holding a fixed number of requests of each kind.

        Configurations come from cubes.sample_config.  Union inputs are
        drawn into a pool per kind, ranked by how many members brute force
        scans for them, and dealt from a deck that spreads its draws evenly
        over cheap and costly inputs: one configuration can cost four times
        another.  Homotopy inputs are redrawn, as in run_cubes, until the
        configuration lies in the union below nu.
        """
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        objs = {nk: sorted(v, key=lambda o: o.key) for nk, v in state.items()}
        strata = {}
        for kind in self.kinds:
            if kind.startswith("union"):
                n, k, _, _ = self.kinds[kind]
                scans = UnionScans(objs[(n, k)], n)
                pool = [self._draw(lib, rng, objs, kind)
                        for _ in range(self.union_pool)]
                ranked = sorted(
                    range(len(pool)),
                    key=lambda j: (scans.scanned(*pool[j].payload[:2]), j))
                strata[kind] = [pool[j] for j in ranked]
        deck = _Deck(rng, strata)
        while True:
            batch = [deck.draw(kind) if kind in strata
                     else self._draw(lib, rng, objs, kind)
                     for kind, (*_, count) in self.kinds.items()
                     for _ in range(count)]
            rng.shuffle(batch)
            yield batch

    def _draw(self, lib, rng, objs, kind):
        n, k, samples, _ = self.kinds[kind]
        pool = objs[(n, k)]
        if kind.startswith("union"):
            cfg = lib.cubes.sample_config(rng, n, k)
            if samples is None:
                nus = pool
            else:
                nus = [pool[rng.randrange(len(pool))] for _ in range(samples)]
            return Request(kind, (cfg, nus, pool),
                           [kind, cfg.to_text(), [nu.key for nu in nus]])
        while True:
            nu = pool[rng.randrange(len(pool))]
            cfg = lib.cubes.sample_config(rng, n, k)
            if lib.cubes.realizes_below(cfg, nu, check_separated=False):
                break
        j = rng.randint(1, n)
        t = Fraction(rng.randint(0, 12), 12)
        return Request(kind, (cfg, nu, j, t),
                       [kind, cfg.to_text(), nu.key, j, str(t)])

    def run(self, lib, state, req):
        cubes = lib.cubes
        if req.kind.startswith("union"):
            cfg, nus, family = req.payload
            table = cubes.less_table(cfg)
            got = [cubes.realizes_below_table(table, nu) for nu in nus]
            want = [cubes.brute_force_realizes_below(cfg, nu, family, table=table)
                    for nu in nus]
            return got, want
        cfg, nu, j, t = req.payload
        n = cfg.n
        anchor = cubes.witness(nu)
        h = cubes.stage_homotopy
        moved = h(j, cfg, t, anchor, nu=nu)
        return [
            h(n, cfg, 0, anchor) == cfg,
            h(1, cfg, 1, anchor) == anchor,
            all(h(i, cfg, 1, anchor) == h(i - 1, cfg, 0, anchor)
                for i in range(2, n + 1)),
            cubes.realizes_below(moved, nu, check_separated=False),
        ]

    def check(self, req, out):
        if req.kind.startswith("union"):
            got, want = out
            ok = got == want and len(got) == len(req.payload[1])
            hits = "".join("1" if g else "0" for g in got)
            return ok, req.describe[:2] + [hits]
        return all(out) and len(out) == 4, req.describe + [out]


WORKLOADS = {w.name: w for w in (Collapse, Sweeps, Cubes)}
