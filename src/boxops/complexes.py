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

    def mask_of(self, simplex: Iterable) -> int:
        mask = 0
        for v in simplex:
            mask |= 1 << self.index[v]
        return mask

    def keys_of(self, mask: int) -> tuple:
        return tuple(self.vertices[i] for i in iter_bits(mask))

    def materialize(self) -> frozenset[int]:
        """All simplices as masks.  Flag complexes enumerate their cliques;
        a clique above the dimension cap raises instead of truncating."""
        if self._simplices is not None:
            return self._simplices
        adj = self.adjacency
        cap_size = self.dim_cap + 1
        out: set[int] = set()
        m = len(self.vertices)

        def grow(mask: int, size: int, cand: int, min_next: int):
            bits = cand & ~((1 << min_next) - 1)
            for i in iter_bits(bits):
                new = mask | (1 << i)
                if size + 1 > cap_size:
                    raise CapExceededError(
                        f"clique of size > {cap_size} exceeds dimension cap "
                        f"{self.dim_cap}; raise the cap to materialize"
                    )
                out.add(new)
                grow(new, size + 1, cand & adj[i], i + 1)

        grow(0, 0, (1 << m) - 1, 0)
        object.__setattr__(self, "_simplices", frozenset(out))
        return self._simplices

    def simplex_count(self) -> int:
        return len(self.materialize())

    def maximal_masks(self) -> list[int]:
        simplices = self.materialize()
        out = []
        for mask in simplices:
            if not any((mask | (1 << i)) in simplices
                       for i in range(len(self.vertices))
                       if not (mask >> i) & 1):
                out.append(mask)
        return sorted(out, key=self._sort_key)

    def _sort_key(self, mask: int) -> tuple:
        return tuple(iter_bits(mask))

    # -- serialization ----------------------------------------------------------

    def to_text(self) -> str:
        lines = ["complex-v1"]
        lines.append("vertices=" + ";".join(repr(v) for v in self.vertices))
        maximal = [self.keys_of(m) for m in self.maximal_masks()]
        lines.append("maximal=" + ";".join(",".join(repr(v) for v in s) for s in maximal))
        return "\n".join(lines) + "\n"


def free_faces(simplices: frozenset[int], nverts: int) -> dict[int, int]:
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


@dataclass(frozen=True)
class CollapseTrace:
    """A replayable sequence of elementary collapses.

    Each step records (free_face, containing_maximal_simplex) as key tuples;
    the terminal field lists the surviving complex's maximal simplices.
    """

    vertices: tuple
    steps: tuple
    terminal_maximal: tuple
    collapsed_to_point: bool

    def terminal_vertex(self):
        if not self.collapsed_to_point:
            return None
        return self.terminal_maximal[0][0]


def greedy_collapse(complex_: SimplicialComplex) -> CollapseTrace:
    """Collapse until no free face remains.

    Each step takes the lexicographically smallest free face, then its
    unique cofacet.  A stuck terminal is reported as-is, never as a
    counterexample.
    """
    present = set(complex_.materialize())
    nverts = len(complex_.vertices)
    counts: dict[int, int] = {}
    for mask in present:
        for i in iter_bits(mask):
            face = mask & ~(1 << i)
            if face:
                counts[face] = counts.get(face, 0) + 1

    def face_key(mask: int) -> tuple:
        return tuple(iter_bits(mask))

    heap = [(face_key(f), f) for f, c in counts.items() if c == 1 and f in present]
    heapq.heapify(heap)
    candidates = {f for _, f in heap}
    steps: list[tuple] = []

    def unique_cofacet(face: int) -> int | None:
        found = None
        for i in range(nverts):
            if (face >> i) & 1:
                continue
            up = face | (1 << i)
            if up in present:
                if found is not None:
                    return None
                found = up
        return found

    while True:
        face = None
        while heap:
            _, f = heapq.heappop(heap)
            candidates.discard(f)
            if f in present and counts.get(f) == 1:
                face = f
                break
        if face is None:
            break
        cof = unique_cofacet(face)
        if cof is None:
            raise IntegrityError("free-face bookkeeping disagrees with the complex")
        present.discard(face)
        present.discard(cof)
        for gone in (face, cof):
            for i in iter_bits(gone):
                sub = gone & ~(1 << i)
                if sub:
                    counts[sub] -= 1
                    if counts[sub] == 1 and sub in present and sub not in candidates:
                        heapq.heappush(heap, (face_key(sub), sub))
                        candidates.add(sub)
        steps.append((complex_.keys_of(face), complex_.keys_of(cof)))

    terminal = sorted(present, key=face_key)
    maximal = [
        m for m in terminal
        if not any((m | (1 << i)) in present for i in range(nverts) if not (m >> i) & 1)
    ]
    collapsed = len(present) == 1 and next(iter(present)).bit_count() == 1
    return CollapseTrace(
        vertices=complex_.vertices,
        steps=tuple(steps),
        terminal_maximal=tuple(complex_.keys_of(m) for m in maximal),
        collapsed_to_point=collapsed,
    )


def replay_trace(complex_: SimplicialComplex, trace: CollapseTrace) -> None:
    """Re-execute a trace, verifying each step is a legal elementary collapse.

    Raises IntegrityError on the first illegal step or on a terminal
    mismatch.  This checker is independent of whatever engine produced the
    trace: it works from the materialized complex alone.
    """
    present = set(complex_.materialize())
    nverts = len(complex_.vertices)
    for stepno, (face_keys, cof_keys) in enumerate(trace.steps):
        face = complex_.mask_of(face_keys)
        cof = complex_.mask_of(cof_keys)
        if face not in present or cof not in present:
            raise IntegrityError(f"step {stepno}: simplex already removed")
        if face & ~cof or (cof & ~face).bit_count() != 1:
            raise IntegrityError(f"step {stepno}: pair is not face/cofacet")
        for i in range(nverts):
            if (face >> i) & 1 or not (face | (1 << i)) in present:
                continue
            if face | (1 << i) != cof:
                raise IntegrityError(
                    f"step {stepno}: face has a second coface; not free"
                )
        present.discard(face)
        present.discard(cof)
    maximal = {
        complex_.keys_of(m)
        for m in present
        if not any((m | (1 << i)) in present for i in range(nverts) if not (m >> i) & 1)
    }
    if maximal != set(trace.terminal_maximal):
        raise IntegrityError("terminal complex does not match the trace")
