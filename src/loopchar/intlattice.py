"""Exact integer linear algebra: one sparse echelon engine.

Everything here works over the integers with no fractions and no
tolerances.  ``SparseIntSolver`` keeps the span of sparse integer
columns in echelon form, tracking the combination of original columns
behind each pivot.  It reads back exact solutions of A x = b, tests
membership in the span and gives canonical coset residues.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Hashable, List, Optional, Tuple


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


def _comb(x: int, u: SparseVec, y: int, v: SparseVec) -> SparseVec:
    """Return x*u + y*v with zero entries dropped."""
    out = dict(u) if x == 1 else {k: x * c for k, c in u.items() if x}
    if y:
        for k, c in v.items():
            t = out.get(k, 0) + y * c
            if t:
                out[k] = t
            else:
                del out[k]
    return out


class SparseIntSolver:
    """Column space over Z with combination tracking.

    Columns are sparse mappings from sortable row keys to integers.
    Pivots have pairwise distinct leading keys with positive leading
    entries.  Each stored pivot remembers the integer combination of
    original columns that produced it, so ``solve`` can return
    coefficients x with sum(x[k] * column[k]) == target exactly, or None
    when the target is outside the column span.
    """

    __slots__ = ("_pivots",)

    def __init__(self):
        self._pivots: Dict[Hashable, Tuple[SparseVec, SparseVec]] = {}

    def add_column(self, key: Hashable, vec: SparseVec) -> None:
        v = {k: c for k, c in vec.items() if c}
        self._insert(v, {key: 1})

    def _insert(self, v: SparseVec, combo: SparseVec) -> None:
        while v:
            j = min(v)
            entry = self._pivots.get(j)
            if entry is None:
                if v[j] < 0:
                    v, combo = _comb(-1, v, 0, {}), _comb(-1, combo, 0, {})
                self._pivots[j] = (v, combo)
                return
            pv, pc = entry
            a, b = pv[j], v[j]
            if b % a == 0:
                q = b // a
                v, combo = _comb(1, v, -q, pv), _comb(1, combo, -q, pc)
            elif a % b == 0:
                # The incoming vector has the finer pivot; swap them.
                if v[j] < 0:
                    v, combo = _comb(-1, v, 0, {}), _comb(-1, combo, 0, {})
                self._pivots[j] = (v, combo)
                v, combo = pv, pc
            else:
                # pivot' = x*pv + y*v has leading entry g; the remainder
                # (a/g)*v - (b/g)*pv has leading entry 0.
                g, x, y = xgcd(a, b)
                self._pivots[j] = (_comb(x, pv, y, v), _comb(x, pc, y, combo))
                v, combo = _comb(a // g, v, -(b // g), pv), _comb(a // g, combo, -(b // g), pc)

    def solve(self, target: SparseVec) -> Optional[SparseVec]:
        v = {k: c for k, c in target.items() if c}
        combo: SparseVec = {}
        while v:
            j = min(v)
            entry = self._pivots.get(j)
            if entry is None:
                return None
            pv, pc = entry
            if v[j] % pv[j]:
                return None
            q = v[j] // pv[j]
            v, combo = _comb(1, v, -q, pv), _comb(1, combo, q, pc)
        return combo

    def __contains__(self, vec: SparseVec) -> bool:
        # The span's own coset reduces to zero, and no other coset does.
        return not self.residue(vec)

    def basis(self) -> List[SparseVec]:
        """The pivot vectors, in ascending order of their leading keys."""
        return [dict(self._pivots[j][0]) for j in sorted(self._pivots)]

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
            pv = pivots[j][0]
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
