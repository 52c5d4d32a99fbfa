"""Finite abstract simplicial complexes, free faces and collapse engines.

Complexes are either explicit simplex families or flag-backed (simplices =
cliques of a graph), with materialization on demand under a dimension cap.
Vertices are sorted keys; internally a simplex is a bitmask over them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bits import iter_bits
from .errors import CapExceededError, IntegrityError

DEFAULT_DIM_CAP = 8


class SimplicialComplex:
    """A finite complex over sorted vertex keys."""

    __slots__ = ("vertices", "index", "adjacency", "dim_cap", "_simplices")

    def __init__(self, vertices, adjacency=None, simplices=None, dim_cap=DEFAULT_DIM_CAP):
        vertices = tuple(sorted(vertices))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "index", {v: i for i, v in enumerate(vertices)})
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "dim_cap", dim_cap)
        object.__setattr__(self, "_simplices", simplices)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def flag(cls, vertices, adjacency_masks: Sequence[int] | None = None,
             edges: Iterable[tuple] | None = None, dim_cap: int = DEFAULT_DIM_CAP):
        """Flag complex of a symmetric relation; simplices are the cliques.

        Adjacency can come as bitmasks aligned with the *sorted* vertex
        order, or as an edge list over keys.
        """
        vertices = tuple(sorted(vertices))
        index = {v: i for i, v in enumerate(vertices)}
        if adjacency_masks is None:
            masks = [0] * len(vertices)
            for a, b in edges or ():
                i, j = index[a], index[b]
                if i == j:
                    continue
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            adjacency_masks = masks
        else:
            adjacency_masks = list(adjacency_masks)
            for i, row in enumerate(adjacency_masks):
                if (row >> i) & 1:
                    raise ValueError("adjacency must be irreflexive")
        return cls(vertices, adjacency=tuple(adjacency_masks), dim_cap=dim_cap)

    @classmethod
    def from_simplices(cls, vertices, simplices: Iterable[Iterable], dim_cap: int = DEFAULT_DIM_CAP):
        """Explicit complex from a simplex family, closed downward."""
        vertices = tuple(sorted(vertices))
        index = {v: i for i, v in enumerate(vertices)}
        masks: set[int] = set()
        stack = []
        for s in simplices:
            mask = 0
            for v in s:
                mask |= 1 << index[v]
            if mask:
                stack.append(mask)
        while stack:
            mask = stack.pop()
            if mask in masks or mask == 0:
                continue
            masks.add(mask)
            for i in iter_bits(mask):
                face = mask & ~(1 << i)
                if face and face not in masks:
                    stack.append(face)
        return cls(vertices, simplices=frozenset(masks), dim_cap=dim_cap)

    # -- access ---------------------------------------------------------------

    def keys_of(self, mask: int) -> tuple:
        return tuple(self.vertices[i] for i in iter_bits(mask))

    def materialize(self) -> frozenset[int]:
        """All simplices as masks.  Flag complexes enumerate their cliques;
        a clique above the dimension cap raises instead of truncating."""
        if self._simplices is None:
            object.__setattr__(self, "_simplices", frozenset(self._clique_counts()))
        return self._simplices

    def coface_counts(self) -> dict[int, int]:
        """A fresh table of every simplex's number of cofacets.  A flag
        complex takes it from its clique enumeration, without materializing;
        an explicit one counts over its simplex family."""
        if self.adjacency is None:
            return _coface_counts(self._simplices)
        return self._clique_counts()

    def _clique_counts(self) -> dict[int, int]:
        """The one clique enumerator: each clique of the flag complex mapped
        to its number of cofacets, the vertices adjacent to all of its own.

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

    def simplex_count(self) -> int:
        return len(self.materialize())


def free_faces(simplices: frozenset[int]) -> dict[int, int]:
    """Map each free face to its unique cofacet.

    A face is free exactly when it has one present coface.
    """
    counts: dict[int, int] = {}
    cofacet: dict[int, int] = {}
    for mask in simplices:
        for i in iter_bits(mask):
            face = mask & ~(1 << i)
            if face:
                counts[face] = counts.get(face, 0) + 1
                cofacet[face] = mask
    return {
        face: cofacet[face]
        for face, c in counts.items()
        if c == 1 and face in simplices
    }


def _coface_counts(simplices: frozenset[int]) -> dict[int, int]:
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
    terminal field lists the surviving complex's maximal simplices as masks.
    `keys` renders a mask as vertex keys.
    """

    vertices: tuple
    steps: tuple
    terminal_maximal: tuple
    collapsed_to_point: bool

    def keys(self, mask: int) -> tuple:
        return tuple(self.vertices[i] for i in iter_bits(mask))

    def terminal_vertex(self):
        if not self.collapsed_to_point:
            return None
        return self.keys(self.terminal_maximal[0])[0]


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
    collapsed = len(counts) == 1 and next(iter(counts)).bit_count() == 1
    return CollapseTrace(
        vertices=complex_.vertices,
        steps=tuple(steps),
        terminal_maximal=tuple(maximal),
        collapsed_to_point=collapsed,
    )


def replay_trace(complex_: SimplicialComplex, trace: CollapseTrace) -> None:
    """Re-execute a trace, verifying each step is a legal elementary collapse.

    Raises IntegrityError on the first illegal step or on a terminal
    mismatch.  This checker is independent of whatever engine produced the
    trace: it decides freeness from the complex's own coface counts alone,
    which a flag complex takes from its adjacency.
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
