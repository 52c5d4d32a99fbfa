import random
import sys
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from boxops import graphs
from boxops.contractibility import object_poset
from boxops.partitions import all_contexts
from boxops.posets import Poset


@lru_cache(maxsize=None)
def family_members(tag: str, n: int, k: int, lo: int = 1):
    """Session-cached family enumeration, key-ascending."""
    return tuple(graphs.enumerate_family(graphs.Family(tag, lo), n, k))


@lru_cache(maxsize=None)
def _sized_contexts(k: int):
    """Every context at k with its number of admissible partitions."""
    return tuple((c, len(c.partitions())) for c in all_contexts(k))


def seeded_contexts(k: int, count: int, seed: int, max_partitions: int = 101,
                    min_partitions: int = 0):
    """count contexts of all_contexts(k), drawn by seed among those with
    min_partitions to max_partitions admissible partitions, in context
    order."""
    pool = [c for c, size in _sized_contexts(k)
            if min_partitions <= size <= max_partitions]
    picked = sorted(random.Random(seed).sample(range(len(pool)), count))
    return [pool[i] for i in picked]


def row_subposet(poset, row: int, within=None):
    """The sub-poset on the elements in a row mask (an up row for the poset
    under an element, a down row for the one over it), optionally only
    those in within."""
    return poset.subposet(
        e for j, e in enumerate(poset.elements)
        if row >> j & 1 and (within is None or e in within)
    )


def random_poset(rng, m, shuffled=True):
    """A random order on range(m).  Its linear extension is shuffled, so
    that key order and order relation are unrelated, or with shuffled=False
    it is index order, as in a member poset."""
    density = rng.choice((0.05, 0.15, 0.3, 0.6))
    rank = list(range(m))
    if shuffled:
        rng.shuffle(rank)
    up = [1 << i for i in range(m)]
    # close under transitivity from the highest rank down
    for i in sorted(range(m), key=lambda i: -rank[i]):
        for j in range(m):
            if rank[i] < rank[j] and rng.random() < density:
                up[i] |= up[j]
    return Poset(range(m), up)


SWEEPS = (("mdown", graphs.FamilyIndex.below), ("m", graphs.FamilyIndex.below),
          ("mup", graphs.FamilyIndex.above), ("m", graphs.FamilyIndex.above))


@lru_cache(maxsize=None)
def sweep_cores(n: int, k: int, sample: int | None = None):
    """The beat-point cores of more than one element among the member
    posets of the four sweeps (the mdown and m members below each object,
    the mup and m members above it) over ke(n, k), or over `sample` objects
    of it drawn by random.Random(41)."""
    ambient = family_members("ke", n, k)
    if sample is not None:
        ambient = random.Random(41).sample(ambient, sample)
    cores = []
    for tag, side in SWEEPS:
        index = graphs.family_index(family_members(tag, n, k))
        for b in ambient:
            core = object_poset(index.select(side(index, b))).dismantle()[0]
            if len(core) > 1:
                cores.append(core)
    return tuple(cores)
