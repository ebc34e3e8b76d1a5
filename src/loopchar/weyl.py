"""Weyl group elements acting on integer weight coordinates.

Weights are tuples of integers in the fundamental-weight basis.  A
``WeylElement`` stores its action matrix together with a canonical
reduced word; composition is matrix multiplication and a word is read
as a product of operators, so the rightmost letter acts first.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .cartan import CartanData, Frozen
from .errors import DomainError

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
    # Checked before the cache, where True or 1.0 would hit node 1's entry.
    cd.check_node(j)
    return _simple_root_weight(cd, j)


@lru_cache(maxsize=None)
def _simple_root_weight(cd: CartanData, j: int) -> Weight:
    return tuple(cd.a(i, j) for i in cd.nodes)


def reflect(cd: CartanData, i: int, lam: Weight) -> Weight:
    """s_i lam = lam - lam_i alpha_i: only i and its neighbours change."""
    cd.check_node(i)
    _check_coords(cd, lam, "weight")
    return _reflect(cd, i, lam)


def _reflect(cd: CartanData, i: int, lam: Weight) -> Weight:
    """reflect without the checks, for the walks whose steps are valid by construction."""
    c = lam[i - 1]
    out = list(lam)
    out[i - 1] = -c
    for k, _, a_ki in cd.links[i - 1]:
        out[k - 1] -= c * a_ki
    return tuple(out)


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
    for k, _, a_ki in cd.links[i - 1]:
        rows[k - 1] = tuple(r - a_ki * p for r, p in zip(rows[k - 1], pivot))
    rows[i - 1] = tuple(-p for p in pivot)
    return tuple(rows)


def _descent(cd: CartanData, lam: Weight) -> Tuple[int, ...]:
    """The canonical reduced word of the w with w(rho) = lam.

    A left descent of w is a negative coordinate of lam; the word takes
    the smallest one first and goes on from s_i lam up to rho.
    """
    word: List[int] = []
    while True:
        for i, c in enumerate(lam, start=1):
            if c < 0:
                break
        else:
            return tuple(word)
        lam = _reflect(cd, i, lam)
        word.append(i)


def _word_from_matrix(cd: CartanData, m: Matrix) -> Tuple[int, ...]:
    return _descent(cd, _mat_apply(m, rho(cd)))


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
        return hash(self.matrix)

    @property
    def length(self) -> int:
        return len(self.word)

    def apply(self, lam: Weight) -> Weight:
        return _mat_apply(self.matrix, lam)


def element_from_word(cd: CartanData, word: Tuple[int, ...]) -> WeylElement:
    cd.check_nodes(word)
    m = _identity_matrix(cd.rank)
    for i in reversed(word):
        m = _reflect_rows(cd, i, m)
    return WeylElement(word=_word_from_matrix(cd, m), matrix=m)


def is_reduced_word(cd: CartanData, word: Tuple[int, ...]) -> bool:
    """Whether each letter, read right to left, lengthens the element so far.

    Prepending s_i to u lengthens it exactly when u(rho) has a positive
    i-th coordinate, so rho is walked through the word; no matrix is built.
    """
    cd.check_nodes(word)
    lam = rho(cd)
    for i in reversed(word):
        if lam[i - 1] <= 0:
            return False
        lam = _reflect(cd, i, lam)
    return True


@lru_cache(maxsize=None)
def longest_element(cd: CartanData) -> WeylElement:
    """The element sending rho to -rho, with its canonical word."""
    return element_from_word(cd, _descent(cd, tuple(-c for c in rho(cd))))


@lru_cache(maxsize=None)
def _root_norms(cd: CartanData) -> Dict[RootCoords, int]:
    """Every positive root, in simple-root coordinates, with its norm (beta, beta).

    Walks up from the simple roots: s_i raises beta exactly when
    <beta, alpha_i^vee> < 0, and every positive root is reached from a
    simple root by such steps.  The norm is W-invariant, so each new root
    takes its parent's norm.  The walk makes |Phi+| * n pairings, each
    reading node i and its neighbours, so O(|Phi+| * n) on a Dynkin
    diagram.  The dict is shared by every caller and never mutated.
    """
    links = cd.links
    norms: Dict[RootCoords, int] = {}
    for i in cd.nodes:
        norms[tuple(int(k == i) for k in cd.nodes)] = 2 * cd.d(i)
    queue = list(norms)  # grows while it is read
    for beta in queue:
        for i in cd.nodes:
            c = 2 * beta[i - 1] + sum(a_ij * beta[j - 1] for j, a_ij, _ in links[i - 1])
            if c >= 0:
                continue
            refl = beta[: i - 1] + (beta[i - 1] - c,) + beta[i:]
            if refl not in norms:
                norms[refl] = norms[beta]
                queue.append(refl)
    return norms


@lru_cache(maxsize=None)
def positive_roots(cd: CartanData) -> Tuple[RootCoords, ...]:
    """All positive roots in simple-root coordinates, sorted."""
    return tuple(sorted(_root_norms(cd)))


@lru_cache(maxsize=None)
def highest_root(cd: CartanData) -> RootCoords:
    return max(_root_norms(cd), key=lambda b: (sum(b), b))


def _fundamental_is_minuscule(cd: CartanData, i: int) -> bool:
    """Whether <omega_i, beta^vee> <= 1 for every positive root beta.

    The pairing is 2 d_i beta_i / (beta, beta) and never negative on a
    positive root, so the test is 2 d_i beta_i <= (beta, beta) over the
    root table; no pairing is computed.
    """
    twice_d = 2 * cd.d(i)
    return all(twice_d * beta[i - 1] <= norm for beta, norm in _root_norms(cd).items())


def root_norm(cd: CartanData, beta: RootCoords) -> int:
    """(beta, beta) under the symmetrized form (alpha_i, alpha_j) = d_i a_ij.

    beta is any tuple of rank integers; the form is summed sparsely as
    sum_i d_i beta_i (2 beta_i + sum_j a_ij beta_j) over i's neighbours j,
    in O(n + edges).
    """
    _check_coords(cd, beta, "root coordinates")
    return sum(
        d * b * (2 * b + sum(a_ij * beta[j - 1] for j, a_ij, _ in links))
        for d, b, links in zip(cd.sym, beta, cd.links)
        if b
    )


def coroot_pairing(cd: CartanData, lam: Weight, beta: RootCoords) -> int:
    """<lam, beta^vee> = 2 (lam, beta) / (beta, beta) for a root beta.

    lam and beta must be tuples of rank integers, and beta or -beta must
    be a positive root; otherwise DomainError, before any arithmetic.
    The result is then always an integer.
    """
    _check_coords(cd, lam, "weight")
    _check_coords(cd, beta, "root coordinates")
    norms = _root_norms(cd)
    den = norms.get(beta) or norms.get(tuple(-c for c in beta))
    if den is None:
        raise DomainError(f"{beta!r} is not a root of {cd.type}")
    return 2 * sum(lam[i - 1] * cd.d(i) * b for i, b in zip(cd.nodes, beta) if b) // den


def orbit_edges(cd: CartanData, lam: Weight) -> Tuple[Tuple[Weight, int, Weight], ...]:
    """Breadth-first spanning tree of the W-orbit of a dominant weight.

    Returns one edge (mu, j, s_j mu) per orbit weight other than lam, the
    first time that weight is reached, with j ascending at each weight.
    A step along j is taken only when mu[j] > 0, so the path from lam
    to any weight spells a reduced word (last step leftmost) for the
    minimal coset representative carrying lam there.  The last 128
    walks are kept.
    """
    _check_dominant(cd, lam)
    return _orbit_edges(cd, lam)


def _check_coords(cd: CartanData, v: Tuple[int, ...], what: str) -> None:
    # Checked before the caches, where True or 1.0 would hit or fill an
    # entry of the plain-int vector.
    if type(v) is not tuple or len(v) != cd.rank or any(type(c) is not int for c in v):
        raise DomainError(f"{what} must be a tuple of {cd.rank} integers, got {v!r}")


def _check_dominant(cd: CartanData, lam: Weight) -> None:
    _check_coords(cd, lam, "weight")
    if not is_dominant(lam):
        raise DomainError("the Weyl orbit walk needs a dominant weight")


@lru_cache(maxsize=128)
def _orbit_edges(cd: CartanData, lam: Weight) -> Tuple[Tuple[Weight, int, Weight], ...]:
    seen = {lam}
    queue = [lam]  # grows while it is read: breadth-first order
    edges = []
    for mu in queue:
        for j in cd.nodes:
            if mu[j - 1] > 0:
                nu = _reflect(cd, j, mu)
                if nu not in seen:
                    seen.add(nu)
                    queue.append(nu)
                    edges.append((mu, j, nu))
    return tuple(edges)


def min_coset_reps(cd: CartanData, lam: Weight) -> List[WeylElement]:
    """Minimal-length coset representatives for W / Stab(lam).

    lam must be dominant.  A minimal representative w has as left
    descents exactly the negative coordinates of w(lam), so with i the
    first of them, w = s_i (s_i w), and s_i w is the minimal
    representative of s_i w(lam), one level up the orbit walk.  Its
    canonical word (smallest left descent first) is i followed by that
    of s_i w.  The returned list is sorted by (length, canonical word);
    it is a fresh list, over representatives kept for the last 32
    weights.
    """
    _check_dominant(cd, lam)
    return list(_min_coset_reps(cd, lam))


@lru_cache(maxsize=32)
def _min_coset_reps(cd: CartanData, lam: Weight) -> Tuple[WeylElement, ...]:
    reps: Dict[Weight, WeylElement] = {
        lam: WeylElement(word=(), matrix=_identity_matrix(cd.rank))
    }
    for _mu, _j, nu in _orbit_edges(cd, lam):
        i = next(k for k, c in enumerate(nu, start=1) if c < 0)
        parent = reps[_reflect(cd, i, nu)]
        reps[nu] = WeylElement(
            word=(i,) + parent.word, matrix=_reflect_rows(cd, i, parent.matrix)
        )
    return tuple(sorted(reps.values(), key=lambda w: (w.length, w.word)))


def weight_orbit(cd: CartanData, lam: Weight) -> List[Tuple[Weight, WeylElement]]:
    """The W-orbit of a dominant weight with its minimal representatives."""
    return [(w.apply(lam), w) for w in min_coset_reps(cd, lam)]


def dominance_diff(cd: CartanData, lam: Weight, mu: Weight) -> Optional[RootCoords]:
    """Root coordinates of lam - mu, or None if not in the root lattice.

    Solved over the integers against the simple roots, whose weight
    coordinates are the Cartan columns: 2 at j and a_kj at each neighbour k.
    """
    _check_coords(cd, lam, "weight")
    _check_coords(cd, mu, "weight")
    # Imported here: most cold CLI calls never reach a solve.
    from .intlattice import SparseIntSolver

    solver = SparseIntSolver()
    for j, links in zip(cd.nodes, cd.links):
        column = {j: 2}
        for k, _, a_kj in links:
            column[k] = a_kj
        solver.add_column(j, column)
    x = solver.solve({i: l - m for i, l, m in zip(cd.nodes, lam, mu)})
    if x is None:
        return None
    return tuple(x.get(j, 0) for j in cd.nodes)
