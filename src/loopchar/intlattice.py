"""Exact integer linear algebra: one sparse echelon engine.

Everything here works over the integers with no fractions and no
tolerances.  ``SparseIntSolver`` keeps the span of sparse integer
columns in echelon form, tests membership and gives canonical coset
residues; ``solve`` reads x with A x = b off one residue.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Hashable, List, Optional, Sequence, Tuple


def xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


SparseVec = Dict[Hashable, int]


def _sub(v: SparseVec, q: int, u: SparseVec) -> SparseVec:
    """v -= q*u in place, dropping zero entries; returns v."""
    for k, c in u.items():
        t = v.get(k, 0) - q * c
        if t:
            v[k] = t
        else:
            del v[k]
    return v


class SparseIntSolver:
    """Column span over Z in echelon form.

    Columns are sparse mappings from sortable row keys to integers.
    Pivots have pairwise distinct leading keys with positive leading
    entries, and each pivot is one vector of the span.
    """

    __slots__ = ("_pivots",)

    def __init__(self):
        self._pivots: Dict[Hashable, SparseVec] = {}

    def add_column(self, vec: SparseVec) -> None:
        self._insert({k: c for k, c in vec.items() if c})

    def _insert(self, v: SparseVec) -> None:
        # v is never shared with a caller or a pivot, so it is reduced in place.
        pivots = self._pivots
        while v:
            j = min(v)
            pv = pivots.get(j)
            if pv is None:
                pivots[j] = v if v[j] > 0 else {k: -c for k, c in v.items()}
                return
            a, b = pv[j], v[j]
            if b % a == 0:
                _sub(v, b // a, pv)
            elif a % b == 0:
                # The incoming vector has the finer pivot and takes pv's place.
                pivots[j] = v if b > 0 else {k: -c for k, c in v.items()}
                v = _sub(pv, a // b, v)
            else:
                # pivot' = x*pv + y*v has leading entry g, the remainder (a/g)*v - (b/g)*pv 0;
                # neither of a, b divides the other, so none of x, y, a/g, b/g is 0.
                g, x, y = xgcd(a, b)
                pivots[j] = _sub({k: x * c for k, c in pv.items()}, -y, v)
                v = _sub({k: a // g * c for k, c in v.items()}, b // g, pv)

    def __contains__(self, vec: SparseVec) -> bool:
        # The span's own coset reduces to zero, and no other coset does.
        return not self.residue(vec)

    def basis(self) -> List[SparseVec]:
        """The pivot vectors, in ascending order of their leading keys."""
        return [dict(self._pivots[j]) for j in sorted(self._pivots)]

    def residue(self, vec: SparseVec) -> SparseVec:
        """Canonical representative of vec modulo the column span.

        Pivot keys are processed in ascending order with floor division,
        leaving each pivot coordinate in [0, pivot).  The result depends
        only on the span, not on the order the columns came in.  A pivot
        absent from the vector divides nothing, so only the vector's own
        pivot keys are visited, from a heap that takes in the keys each
        subtraction adds; a pivot's vector has no key below its own.
        """
        v = {k: c for k, c in vec.items() if c}
        pivots = self._pivots
        heap = [k for k in v if k in pivots]
        heapify(heap)
        while heap:
            j = heappop(heap)
            pv = pivots[j]
            q = v.get(j, 0) // pv[j]
            if not q:
                continue
            for k, c in pv.items():
                t = v.get(k, 0) - q * c
                if not t:
                    del v[k]
                    continue
                if k not in v and k in pivots:
                    heappush(heap, k)
                v[k] = t
        return v


def solve(columns: Sequence[SparseVec], target: SparseVec) -> Optional[List[int]]:
    """Integers x with sum(x[n] * columns[n]) == target, or None if there
    are none.

    Row keys need only sort among themselves; they are renumbered 0..R-1.
    Column n gains a unit entry in tail row R + n, after every equation
    row.  The pivots past R span the combinations with no equation row,
    so the target's residue keeps no equation row exactly when x exists,
    and its tail is then -x.
    """
    rows = sorted(set(target).union(*columns))
    index, tail = {k: r for r, k in enumerate(rows)}, len(rows)
    lattice = SparseIntSolver()
    for n, vec in enumerate(columns):
        column = {index[k]: c for k, c in vec.items()}
        column[tail + n] = 1
        lattice.add_column(column)
    r = lattice.residue({index[k]: c for k, c in target.items()})
    return None if r and min(r) < tail else [-r.get(tail + n, 0) for n in range(len(columns))]
