"""Integer simplicial homology via Smith normal form over Python ints."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .bits import iter_bits
from .errors import CapExceededError, IntegrityError

CELL_CAP = 40000


def smith_diagonal(rows: list[dict[int, int]], ncols: int) -> list[int]:
    """Nonzero diagonal of the Smith normal form of a sparse integer matrix.

    Rows are dicts col->entry.  Returns the invariant factors d1 | d2 | ...
    """
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    cols: dict[int, set[int]] = {}
    for ri, row in enumerate(rows):
        for c in row:
            cols.setdefault(c, set()).add(ri)
    alive = {ri for ri, row in enumerate(rows) if row}
    diag: list[int] = []

    while True:
        pr = pc = None
        best = None
        for ri in alive:
            for c, v in rows[ri].items():
                a = -v if v < 0 else v
                if best is None or a < best:
                    best, pr, pc = a, ri, c
                    if a == 1:
                        break
            if best == 1:
                break
        if pr is None:
            break

        # shrink the pivot until it cleanly clears its row and column;
        # every re-entry strictly reduces |pivot|, so this terminates
        while True:
            pv = rows[pr][pc]
            col_rows = [
                ri for ri in cols.get(pc, ())
                if ri != pr and ri in alive and rows[ri].get(pc)
            ]
            if col_rows:
                for ri in col_rows:
                    q = rows[ri][pc] // pv
                    if q:
                        _row_axpy(rows, cols, ri, pr, -q)
                rem = [
                    ri for ri in cols.get(pc, ())
                    if ri != pr and ri in alive and rows[ri].get(pc)
                ]
                if rem:
                    pr = min(rem, key=lambda ri: (abs(rows[ri][pc]), ri))
                    continue
            row_cols = [c for c in rows[pr] if c != pc]
            if row_cols:
                for c in row_cols:
                    q = rows[pr][c] // pv
                    if q:
                        _col_axpy(rows, cols, c, pc, -q)
                rem = [c for c in rows[pr] if c != pc and rows[pr][c]]
                if rem:
                    pc = min(rem, key=lambda c: (abs(rows[pr][c]), c))
                    continue
            break
        diag.append(abs(rows[pr][pc]))
        alive.discard(pr)
        for c in list(rows[pr]):
            cols.get(c, set()).discard(pr)
        rows[pr] = {}
        for ri in list(cols.get(pc, ())):
            rows[ri].pop(pc, None)
        cols.pop(pc, None)

    # enforce divisibility d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i]:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    return sorted(diag)


def _row_axpy(rows, cols, target, source, factor):
    trow = rows[target]
    for c, v in rows[source].items():
        new = trow.get(c, 0) + factor * v
        if new:
            trow[c] = new
            cols.setdefault(c, set()).add(target)
        elif c in trow:
            del trow[c]
            cols[c].discard(target)


def _col_axpy(rows, cols, target, source, factor):
    for ri in list(cols.get(source, ())):
        v = rows[ri].get(source, 0)
        if not v:
            continue
        new = rows[ri].get(target, 0) + factor * v
        if new:
            rows[ri][target] = new
            cols.setdefault(target, set()).add(ri)
        elif target in rows[ri]:
            del rows[ri][target]
            cols[target].discard(ri)


@dataclass(frozen=True)
class HomologyReport:
    """Reduced integer homology: per dimension a Betti number and torsion."""

    betti: dict
    torsion: dict
    cells: dict

    def trivial(self) -> bool:
        return all(b == 0 for b in self.betti.values()) and all(
            not t for t in self.torsion.values()
        )

    def rows(self):
        return [
            (d, self.betti[d], tuple(self.torsion[d]))
            for d in sorted(self.betti)
        ]


def reduced_homology(simplices: frozenset[int]) -> HomologyReport:
    """Reduced homology, in every dimension, of a simplex family closed under
    taking faces (each simplex a vertex mask), with an Euler characteristic
    cross-check.

    Refuses a family that is not closed under faces, naming the least
    missing facet of its simplices, and refuses loudly when the family
    exceeds CELL_CAP cells; there is no silent truncation.
    """
    if not simplices:
        raise ValueError("homology of the empty complex is not provided")
    if len(simplices) > CELL_CAP:
        raise CapExceededError(
            f"{len(simplices)} cells exceed the homology cap {CELL_CAP}"
        )
    missing = {m & ~(1 << v) for m in simplices for v in iter_bits(m)} - simplices - {0}
    if missing:
        face = min(missing, key=lambda m: (m.bit_count(), tuple(iter_bits(m))))
        raise ValueError(f"not closed under faces: {tuple(iter_bits(face))} is missing")
    by_dim: dict[int, list[int]] = {}
    for mask in sorted(simplices, key=lambda m: tuple(iter_bits(m))):
        by_dim.setdefault(mask.bit_count() - 1, []).append(mask)
    # closed under faces, the family has cells in every dimension up to its top
    cells = {d: len(by_dim[d]) for d in range(max(by_dim) + 1)}
    position = {m: i for masks in by_dim.values() for i, m in enumerate(masks)}
    rank, tors = {0: 1}, {}  # the augmentation C_0 -> Z has rank 1
    for d in range(1, len(cells)):
        # the boundary matrix C_d -> C_{d-1}, rows indexed by C_{d-1}
        rows = [{} for _ in by_dim[d - 1]]
        for ci, mask in enumerate(by_dim[d]):
            for pos, v in enumerate(iter_bits(mask)):
                rows[position[mask & ~(1 << v)]][ci] = -1 if pos % 2 else 1
        diag = smith_diagonal(rows, cells[d])
        rank[d], tors[d] = len(diag), [v for v in diag if v > 1]

    betti = {d: c - rank[d] - rank.get(d + 1, 0) for d, c in cells.items()}
    torsion = {d: tors.get(d + 1, []) for d in cells}
    if any(b < 0 for b in betti.values()):
        raise IntegrityError("negative Betti number; rank bookkeeping broken")
    # Euler characteristic cross-check (reduced: compare against -1+chi)
    chi_cells = sum((1 if d % 2 == 0 else -1) * c for d, c in cells.items())
    chi_betti = sum((1 if d % 2 == 0 else -1) * b for d, b in betti.items())
    if chi_betti + 1 != chi_cells:
        raise IntegrityError(
            f"Euler characteristic mismatch: betti {chi_betti + 1} vs cells {chi_cells}"
        )
    return HomologyReport(betti=betti, torsion=torsion, cells=cells)
