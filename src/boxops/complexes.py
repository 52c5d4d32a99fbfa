"""Finite abstract simplicial complexes and collapse engines.

A complex is the flag complex of a symmetric, irreflexive relation given as
bit rows: its simplices are the cliques, each a bitmask over the vertices in
the order the caller gave them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .bits import iter_bits
from .errors import CapExceededError, IntegrityError


class SimplicialComplex:
    """The flag complex of bit rows over `vertices`, kept in the caller's
    order: bit j of adjacency[i] says vertices[i] and vertices[j] are
    adjacent.  A clique of dimension above `dim_cap` refuses instead of
    truncating."""

    __slots__ = ("vertices", "adjacency", "dim_cap")

    def __init__(self, vertices: Sequence, adjacency: Sequence[int], dim_cap: int):
        vertices, adjacency = tuple(vertices), tuple(adjacency)
        for i, row in enumerate(adjacency):
            if (row >> i) & 1:
                raise ValueError("adjacency must be irreflexive")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "dim_cap", dim_cap)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    def materialize(self) -> frozenset[int]:
        """All simplices as masks; a clique above the dimension cap raises."""
        return frozenset(self.coface_counts())

    def coface_counts(self) -> dict[int, int]:
        """The one clique enumerator: a fresh table mapping each clique to
        its number of cofacets, the vertices adjacent to all of its own.

        `cand` is the common neighbourhood of `mask`; a clique is grown only
        by vertices above its highest one, so each is reached once.  A clique
        above the dimension cap raises CapExceededError.
        """
        adj = self.adjacency
        cap_size = self.dim_cap + 1
        out: dict[int, int] = {}

        def grow(mask: int, size: int, cand: int, min_next: int):
            bits = cand >> min_next << min_next
            if bits and size >= cap_size:
                raise CapExceededError(
                    f"clique of size > {cap_size} exceeds dimension cap "
                    f"{self.dim_cap}; raise the cap to materialize"
                )
            while bits:
                b = bits & -bits
                i = b.bit_length() - 1
                new = mask | b
                common = cand & adj[i]
                out[new] = common.bit_count()
                if common >> (i + 1):
                    grow(new, size + 1, common, i + 1)
                bits ^= b

        grow(0, 0, (1 << len(self.vertices)) - 1, 0)
        return out


def _remove(counts: dict[int, int], mask: int):
    """Drop a simplex that has no cofacet left, uncounting it at its facets."""
    del counts[mask]
    rest = mask
    while rest:
        b = rest & -rest
        face = mask ^ b
        if face:
            counts[face] -= 1
        rest ^= b


@dataclass(frozen=True)
class CollapseTrace:
    """A replayable sequence of elementary collapses.

    Each step is a (free_face, cofacet) pair of masks over `vertices`; the
    terminal field lists the surviving complex's maximal simplices as masks,
    which `replay_trace` checks, so `collapsed_to_point` is read off them.
    `keys` renders a mask as vertex keys.
    """

    vertices: tuple
    steps: tuple
    terminal_maximal: tuple

    @property
    def collapsed_to_point(self) -> bool:
        """Whether the one surviving maximal simplex is a single vertex."""
        maximal = self.terminal_maximal
        return len(maximal) == 1 and maximal[0].bit_count() == 1

    def keys(self, mask: int) -> tuple:
        return tuple(self.vertices[i] for i in iter_bits(mask))


def greedy_collapse(complex_: SimplicialComplex) -> CollapseTrace:
    """Collapse until no free face remains.

    Each step takes the lexicographically smallest free face, then its
    unique cofacet.  A stuck terminal is reported as-is, never as a
    counterexample.

    Beside each present simplex's coface count, from the complex's own
    `coface_counts()`, xors[s] is the XOR of the vertex bits its present
    cofacets add to s, so a free face's one cofacet is face | xors[face]:
    removing a simplex uncounts it at each facet and XORs the dropped
    vertex out of that facet's entry.
    """
    counts = complex_.coface_counts()
    xors = dict.fromkeys(counts, 0)
    for mask in counts:
        rest = mask
        while rest:
            b = rest & -rest
            face = mask ^ b
            if face:
                xors[face] ^= b
            rest ^= b

    def face_key(mask: int) -> tuple:
        return tuple(iter_bits(mask))

    heap = [(face_key(f), f) for f, c in counts.items() if c == 1]
    heapq.heapify(heap)
    candidates = {f for _, f in heap}
    steps: list[tuple[int, int]] = []

    while True:
        face = None
        while heap:
            _, f = heapq.heappop(heap)
            candidates.discard(f)
            if counts.get(f) == 1:
                face = f
                break
        if face is None:
            break
        added = xors[face]
        cof = face | added
        if added.bit_count() != 1 or added & face or cof not in counts:
            raise IntegrityError("free-face bookkeeping disagrees with the complex")
        for gone in (cof, face):
            del counts[gone]
            rest = gone
            while rest:
                b = rest & -rest
                rest ^= b
                sub = gone ^ b
                if not sub:
                    continue
                counts[sub] -= 1
                xors[sub] ^= b
                if counts[sub] == 1 and sub not in candidates:
                    heapq.heappush(heap, (face_key(sub), sub))
                    candidates.add(sub)
        steps.append((face, cof))

    maximal = sorted((m for m, c in counts.items() if c == 0), key=face_key)
    return CollapseTrace(
        vertices=complex_.vertices,
        steps=tuple(steps),
        terminal_maximal=tuple(maximal),
    )


def replay_trace(complex_: SimplicialComplex, trace: CollapseTrace) -> None:
    """Re-execute a trace, verifying each step is a legal elementary collapse.

    Raises IntegrityError on the first illegal step or on a terminal
    mismatch.  This checker is independent of whatever engine produced the
    trace: it decides freeness from the complex's own coface counts alone,
    which the clique enumerator takes from its adjacency.
    """
    if tuple(trace.vertices) != complex_.vertices:
        raise IntegrityError("trace vertices differ from the complex's")
    counts = complex_.coface_counts()
    for stepno, (face, cof) in enumerate(trace.steps):
        if face not in counts or cof not in counts:
            raise IntegrityError(f"step {stepno}: simplex already removed")
        if face & ~cof or (cof ^ face).bit_count() != 1:
            raise IntegrityError(f"step {stepno}: pair is not face/cofacet")
        if counts[face] != 1:
            raise IntegrityError(
                f"step {stepno}: face has a second coface; not free"
            )
        _remove(counts, cof)
        _remove(counts, face)
    maximal = {m for m, c in counts.items() if c == 0}
    if maximal != set(trace.terminal_maximal):
        raise IntegrityError("terminal complex does not match the trace")
