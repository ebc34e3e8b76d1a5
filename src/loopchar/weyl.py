"""Weyl group elements acting on integer weight coordinates.

Weights are tuples of integers in the fundamental-weight basis.  A
``WeylElement`` stores its action matrix together with a canonical
reduced word; composition is matrix multiplication and a word is read
as a product of operators, so the rightmost letter acts first.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from .cartan import CartanData, Frozen
from .errors import DomainError

if TYPE_CHECKING:
    from fractions import Fraction

Weight = Tuple[int, ...]
RootCoords = Tuple[int, ...]
Matrix = Tuple[Tuple[int, ...], ...]


def zero_weight(cd: CartanData) -> Weight:
    return (0,) * cd.rank


def fundamental_weight(cd: CartanData, i: int) -> Weight:
    cd.check_node(i)
    return tuple(1 if k == i else 0 for k in cd.nodes)


def rho(cd: CartanData) -> Weight:
    return (1,) * cd.rank


def simple_root_weight(cd: CartanData, j: int) -> Weight:
    """Coordinates of alpha_j in the fundamental-weight basis."""
    cd.check_node(j)
    return tuple(cd.a(i, j) for i in cd.nodes)


def reflect(cd: CartanData, i: int, lam: Weight) -> Weight:
    cd.check_node(i)
    c = lam[i - 1]
    if c == 0:
        return lam
    return tuple(l - c * row[i - 1] for l, row in zip(lam, cd.matrix))


def is_dominant(lam: Weight) -> bool:
    return all(c >= 0 for c in lam)


def _identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def _mat_apply(m: Matrix, lam: Weight) -> Weight:
    return tuple(sum(r[c] * lam[c] for c in range(len(lam))) for r in m)


def _reflect_rows(cd: CartanData, i: int, m: Matrix) -> Matrix:
    """The product s_i m; only row i and the rows of i's neighbours change."""
    rows = list(m)
    pivot = rows[i - 1]
    for k in cd.neighbors(i):
        a = cd.a(k, i)
        rows[k - 1] = tuple(r - a * p for r, p in zip(rows[k - 1], pivot))
    rows[i - 1] = tuple(-p for p in pivot)
    return tuple(rows)


def _word_from_matrix(cd: CartanData, m: Matrix) -> Tuple[int, ...]:
    """Canonical reduced word via repeated smallest left descent."""
    lam = _mat_apply(m, rho(cd))
    word: List[int] = []
    target = rho(cd)
    while lam != target:
        for i in cd.nodes:
            if lam[i - 1] < 0:
                lam = reflect(cd, i, lam)
                word.append(i)
                break
        else:
            raise AssertionError("matrix does not act by the Weyl group")
    return tuple(word)


class WeylElement(Frozen):
    """A Weyl group element; equality and hashing use the matrix only."""

    __slots__ = ("word", "matrix")

    def __init__(self, word: Tuple[int, ...], matrix: Matrix):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "matrix", matrix)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash((self.matrix,))

    def __repr__(self) -> str:
        return f"WeylElement(word={self.word!r}, matrix={self.matrix!r})"

    @property
    def length(self) -> int:
        return len(self.word)

    def apply(self, lam: Weight) -> Weight:
        return _mat_apply(self.matrix, lam)


def element_from_matrix(cd: CartanData, m: Matrix) -> WeylElement:
    return WeylElement(word=_word_from_matrix(cd, m), matrix=m)


def element_from_word(cd: CartanData, word: Tuple[int, ...]) -> WeylElement:
    for i in word:
        cd.check_node(i)
    m = _identity_matrix(cd.rank)
    for i in reversed(word):
        m = _reflect_rows(cd, i, m)
    return element_from_matrix(cd, m)


def is_reduced_word(cd: CartanData, word: Tuple[int, ...]) -> bool:
    return element_from_word(cd, word).length == len(word)


@lru_cache(maxsize=None)
def longest_element(cd: CartanData) -> WeylElement:
    lam = rho(cd)
    m = _identity_matrix(cd.rank)
    while True:
        for i in cd.nodes:
            if lam[i - 1] > 0:
                lam = reflect(cd, i, lam)
                m = _reflect_rows(cd, i, m)
                break
        else:
            return element_from_matrix(cd, m)


@lru_cache(maxsize=None)
def positive_roots(cd: CartanData) -> Tuple[RootCoords, ...]:
    """All positive roots in simple-root coordinates, sorted."""
    simple = [tuple(1 if k == j else 0 for k in range(cd.rank)) for j in range(cd.rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in cd.nodes:
                pairing = sum(cd.a(i, j + 1) * beta[j] for j in range(cd.rank))
                refl = tuple(
                    c - pairing if j == i - 1 else c for j, c in enumerate(beta)
                )
                if refl not in seen:
                    seen.add(refl)
                    nxt.append(refl)
        frontier = nxt
    return tuple(sorted(b for b in seen if all(c >= 0 for c in b)))


@lru_cache(maxsize=None)
def highest_root(cd: CartanData) -> RootCoords:
    return max(positive_roots(cd), key=lambda b: (sum(b), b))


def root_norm(cd: CartanData, beta: RootCoords) -> int:
    """(beta, beta) under the symmetrized form (alpha_i, alpha_j) = d_i a_ij."""
    n = cd.rank
    return sum(
        beta[i] * cd.d(i + 1) * cd.a(i + 1, j + 1) * beta[j]
        for i in range(n)
        for j in range(n)
    )


def coroot_pairing(cd: CartanData, lam: Weight, beta: RootCoords) -> int:
    """<lam, beta^vee> = 2 (lam, beta) / (beta, beta), always an integer."""
    num = 2 * sum(lam[i] * cd.d(i + 1) * beta[i] for i in range(cd.rank))
    den = root_norm(cd, beta)
    if num % den:
        raise AssertionError("non-integral coroot pairing")
    return num // den


def orbit_edges(cd: CartanData, lam: Weight) -> Iterator[Tuple[Weight, int, Weight]]:
    """Breadth-first spanning tree of the W-orbit of a dominant weight.

    Yields one edge (mu, j, s_j mu) per orbit weight other than lam, the
    first time that weight is reached, with j ascending at each weight.
    A step along j is taken only when mu[j] > 0, so the path from lam
    to any weight spells a reduced word (last step leftmost) for the
    minimal coset representative carrying lam there.
    """
    if not is_dominant(lam):
        raise DomainError("the Weyl orbit walk needs a dominant weight")
    seen = {lam}
    queue = deque([lam])
    while queue:
        mu = queue.popleft()
        for j in cd.nodes:
            if mu[j - 1] > 0:
                nu = reflect(cd, j, mu)
                if nu not in seen:
                    seen.add(nu)
                    queue.append(nu)
                    yield mu, j, nu


def min_coset_reps(cd: CartanData, lam: Weight) -> List[WeylElement]:
    """Minimal-length coset representatives for W / Stab(lam).

    lam must be dominant.  A minimal representative w has as left
    descents exactly the negative coordinates of w(lam), so with i the
    first of them, w = s_i (s_i w), and s_i w is the minimal
    representative of s_i w(lam), one level up the orbit walk.  Its
    canonical word (smallest left descent first) is i followed by that
    of s_i w.  The returned list is sorted by (length, canonical word).
    """
    reps: Dict[Weight, WeylElement] = {
        lam: WeylElement(word=(), matrix=_identity_matrix(cd.rank))
    }
    for _mu, _j, nu in orbit_edges(cd, lam):
        i = next(k for k, c in enumerate(nu, start=1) if c < 0)
        parent = reps[reflect(cd, i, nu)]
        reps[nu] = WeylElement(
            word=(i,) + parent.word, matrix=_reflect_rows(cd, i, parent.matrix)
        )
    return sorted(reps.values(), key=lambda w: (w.length, w.word))


def weight_orbit(cd: CartanData, lam: Weight) -> List[Tuple[Weight, WeylElement]]:
    """The W-orbit of a dominant weight with its minimal representatives."""
    return [(w.apply(lam), w) for w in min_coset_reps(cd, lam)]


@lru_cache(maxsize=None)
def _inverse_cartan(cd: CartanData) -> Tuple[Tuple[Fraction, ...], ...]:
    """The exact inverse of the Cartan matrix, by Gauss-Jordan elimination."""
    # Imported here: only dominance_diff needs rationals, and most cold
    # CLI calls never reach it.
    from fractions import Fraction

    n = cd.rank
    rows = [
        [Fraction(cd.a(i + 1, j + 1)) for j in range(n)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    # The Cartan matrix is invertible over Q.
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [t * inv for t in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [t - f * s for t, s in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def dominance_diff(cd: CartanData, lam: Weight, mu: Weight) -> Optional[RootCoords]:
    """Root coordinates of lam - mu, or None if not in the root lattice."""
    diff = [lam[i] - mu[i] for i in range(cd.rank)]
    target = [sum(c * d for c, d in zip(row, diff)) for row in _inverse_cartan(cd)]
    if any(t.denominator != 1 for t in target):
        return None
    return tuple(int(t) for t in target)
