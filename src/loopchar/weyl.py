"""Weyl group elements acting on integer weight coordinates.

Weights are tuples of integers in the fundamental-weight basis.  A
``WeylElement`` is its canonical reduced word, the one whose smallest
left descent comes first; a word is read as a product of reflections,
so the rightmost letter acts first.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .cartan import CartanData, Frozen, LieType, Weight, cartan_data
from .errors import DomainError, check_size, number

RootCoords = Tuple[int, ...]


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


def _act(cd: CartanData, word: Sequence[int], lam: Weight) -> Weight:
    """lam reflected along word, rightmost letter first, in one list: O(len * deg)."""
    out = list(lam)
    links = cd.links
    for i in reversed(word):
        c = out[i - 1]
        out[i - 1] = -c
        for k, _, a_ki in links[i - 1]:
            out[k - 1] -= c * a_ki
    return tuple(out)


def _descent(cd: CartanData, lam: Weight) -> Tuple[int, ...]:
    """The canonical reduced word of the w with w(rho) = lam.

    A left descent of w is a negative coordinate of lam; the word takes
    the smallest one first and goes on from s_i lam up to rho, which is
    the greedy walk with sign 1.  Each step is O(deg + log n), so the
    descent costs O(len(w) * (deg + log n)).
    """
    return tuple(i for i, _ in _greedy_reflections(cd, list(lam), 1))


class WeylElement(Frozen):
    """A Weyl group element, held as its canonical reduced word.

    An element has exactly one canonical word, so Frozen's equality on
    (lie_type, word) is equality of elements.  The constructor trusts its
    word; ``element_from_word`` makes the canonical word of any word.
    """

    __slots__ = ("lie_type", "word")

    def __init__(self, lie_type: LieType, word: Tuple[int, ...]):
        object.__setattr__(self, "lie_type", lie_type)
        object.__setattr__(self, "word", word)

    @property
    def length(self) -> int:
        return len(self.word)

    def apply(self, lam: Weight) -> Weight:
        """w lam, one simple reflection per letter: O(len * deg)."""
        cd = cartan_data(self.lie_type)
        _check_coords(cd, lam, "weight")
        return _act(cd, self.word, lam)


def element_from_word(cd: CartanData, word: Sequence[int]) -> WeylElement:
    """The element of word, with its canonical word: rho walked along the
    word, then the descent back to rho."""
    word = tuple(word)
    cd.check_nodes(word)
    return WeylElement(cd.type, _descent(cd, _act(cd, word, rho(cd))))


def is_reduced_word(cd: CartanData, word: Sequence[int]) -> bool:
    """Whether word is as long as its element.

    The element's length is that of the descent from its image of rho.
    """
    word = tuple(word)
    cd.check_nodes(word)
    return len(_descent(cd, _act(cd, word, rho(cd)))) == len(word)


@lru_cache(maxsize=None)
def longest_element(cd: CartanData) -> WeylElement:
    """The element sending rho to -rho, with its canonical word.

    len(w0) = |Phi+|, so the descent costs O(|Phi+| * (deg + log n)):
    O(n^2 log n) on A_n.  A word too long to hold is refused first.
    """
    check_size(_positive_root_count(cd), f"the letters of the longest element of {cd.type}")
    return WeylElement(cd.type, _descent(cd, tuple(-c for c in rho(cd))))


def _pairings(cd: CartanData, beta: Sequence[int]) -> List[int]:
    """<beta, alpha_i^vee> = 2 beta_i + sum_j a_ij beta_j for every node i.

    These are beta's fundamental-weight coordinates, summed over each
    node's links in O(n + edges).
    """
    return [
        2 * b + sum(a_ij * beta[j - 1] for j, a_ij, _ in links)
        for b, links in zip(beta, cd.links)
    ]


def _greedy_reflections(cd: CartanData, p: List[int], sign: int):
    """Reflect p along s_i while some sign * p_i < 0, smallest such i first,
    yielding (i, p_i).

    p is a list changed in place: weight coordinates, or a root's pairings.
    sign = 1 takes the negative entries: on a root it ascends, s_i adding
    -p_i > 0 to beta_i.  sign = -1 takes the positive ones.  A step
    changes p only at i and its neighbours, and since a_ki <= 0 it moves
    each neighbour only toward being taken: the heap holds exactly the
    nodes left to take, so each step is O(deg + log n).  Each node is
    yielded after its step, with the entry it was taken at.
    """
    links = cd.links
    heap = [i for i, c in enumerate(p, start=1) if sign * c < 0]  # sorted, so a heap
    while heap:
        i = heappop(heap)
        c = p[i - 1]
        p[i - 1] = -c
        for k, _, a_ki in links[i - 1]:
            q = p[k - 1]
            p[k - 1] = q - c * a_ki
            if sign * q >= 0 > sign * p[k - 1]:
                heappush(heap, k)
        yield i, c


@lru_cache(maxsize=None)
def highest_root(cd: CartanData) -> RootCoords:
    """The highest root theta, by a greedy ascent from a long simple root.

    Every step raises beta along a simple reflection, so it stays a
    positive root in the orbit of the long simple roots, and it stops at
    the dominant one, theta (Bourbaki, Lie Groups and Lie Algebras,
    Ch. VI, section 1).  Each step raises the height, which ends at
    h - 1, so O(n + h * (deg + log n)).
    """
    j = cd.sym.index(max(cd.sym)) + 1
    beta = [int(k == j) for k in cd.nodes]
    for i, c in _greedy_reflections(cd, _pairings(cd, beta), 1):
        beta[i - 1] -= c
    return tuple(beta)


def _positive_root_count(cd: CartanData) -> int:
    """|Phi+| = n h / 2, with the Coxeter number h = ht theta + 1, read
    off the cached highest root without building any root table."""
    return cd.rank * (sum(highest_root(cd)) + 1) // 2


@lru_cache(maxsize=None)
def positive_roots(cd: CartanData) -> Tuple[RootCoords, ...]:
    """All positive roots in simple-root coordinates, sorted.

    Walks up from the simple roots: s_i raises beta exactly when
    <beta, alpha_i^vee> < 0, and every positive root is reached from a
    simple root by such steps.  The walk makes |Phi+| * n pairings, each
    reading node i and its neighbours, so O(|Phi+| * n) on a Dynkin
    diagram.  It is the one root table, built only for a caller that
    needs the list: the other root functions here read none.  A table of
    too many coordinates is refused first.
    """
    check_size(
        _positive_root_count(cd) * cd.rank, f"the coordinates of the positive roots of {cd.type}"
    )
    queue = [tuple(int(k == i) for k in cd.nodes) for i in cd.nodes]  # grows while read
    seen = set(queue)
    for beta in queue:
        for i, c in enumerate(_pairings(cd, beta), start=1):
            if c < 0:
                refl = beta[: i - 1] + (beta[i - 1] - c,) + beta[i:]
                if refl not in seen:
                    seen.add(refl)
                    queue.append(refl)
    return tuple(sorted(queue))


def _is_root(cd: CartanData, beta: RootCoords) -> bool:
    """Whether beta is a root, by a greedy descent to a simple root.

    Every positive root lies in the box 0 <= beta <= theta, so beta or
    -beta must lie in it; that bounds the height, hence the steps, by
    h - 1 for any input.  A positive root beta other than alpha_i with
    <beta, alpha_i^vee> > 0 reflects to a lower positive root, so every
    descent from a root reaches a simple root with no coordinate turning
    negative.  The steps are reflections, so a descent from a non-root
    never does.  O(n + h * (deg + log n)).
    """
    if any(b < 0 for b in beta):
        beta = tuple(-b for b in beta)
    if not all(0 <= b <= t for b, t in zip(beta, highest_root(cd))):
        return False
    height = sum(beta)
    if height == 1:
        return True
    coords = list(beta)
    for i, c in _greedy_reflections(cd, _pairings(cd, coords), -1):
        coords[i - 1] -= c
        if coords[i - 1] < 0:
            return False
        height -= c
        if height == 1:
            return True
    return False


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

    lam and beta must be tuples of rank integers, and beta must be a
    root; otherwise DomainError, before any pairing.  The result is then
    always an integer.  The root test reads no root table (see _is_root).
    """
    _check_coords(cd, lam, "weight")
    _check_coords(cd, beta, "root coordinates")
    if not _is_root(cd, beta):
        raise DomainError(f"{beta!r} is not a root of {cd.type}")
    num = 2 * sum(l * d * b for l, d, b in zip(lam, cd.sym, beta) if b)
    return num // root_norm(cd, beta)


def orbit_edges(cd: CartanData, lam: Weight) -> Tuple[Tuple[Weight, int, Weight], ...]:
    """Breadth-first spanning tree of the W-orbit of a dominant weight.

    Returns one edge (mu, j, s_j mu) per orbit weight other than lam, the
    first time that weight is reached, with j ascending at each weight.
    A step along j is taken only when mu[j] > 0, so the path from lam
    to any weight spells a reduced word (last step leftmost) for the
    minimal coset representative carrying lam there.  The last 128
    walks are kept.  A walk whose weights would hold more than
    ``errors.MAX_SIZE`` coordinates is refused before it starts, its
    size predicted by ``orbit_size``.
    """
    _check_dominant(cd, lam)
    return _orbit_edges(cd, lam)


def orbit_size(cd: CartanData, lam: Weight) -> int:
    """|W lam| for a dominant weight lam, without walking the orbit.

    The stabilizer of a dominant lam is the parabolic subgroup W_J with
    J = {j : lam_j = 0} (Humphreys, Reflection Groups and Coxeter
    Groups, Thm 1.12), so |W lam| = |W| / |W_J|.  Finding the components
    of J is O(n); the exact factorials then grow with the rank (rank
    10^6 takes seconds), which is why the walks refuse a large rank by
    the floor in ``_check_orbit_size`` before they compute any.
    """
    _check_dominant(cd, lam)
    return _orbit_size(cd, lam)


def _orbit_size(cd: CartanData, lam: Weight) -> int:
    if not any(lam):
        return 1
    # |W|: the whole diagram is one piece, each node's degree its link
    # count and its largest bond the lacing.
    whole = _component_order(cd, {i: len(l) for i, l in enumerate(cd.links, start=1)}, cd.lacing)
    return whole // _parabolic_order(cd, [j for j, c in zip(cd.nodes, lam) if c == 0])


def _check_orbit_size(cd: CartanData, lam: Weight, what: str) -> None:
    """Refuse through ``check_size`` an orbit of lam whose weights would
    hold more than ``errors.MAX_SIZE`` coordinates, n per weight.

    ``what`` names the weights after their count.  A nonzero orbit holds
    at least n + 1 weights: its span is W-invariant, so all of the
    weight space, on which W acts irreducibly, and its sum is W-fixed,
    so 0, which no n weights spanning n dimensions can sum to.  So a
    nonzero orbit past n(n + 1) coordinates is refused by that floor
    before any factorial is computed: every rank above 4471 under the
    real cap.
    """
    n = cd.rank
    if any(lam):
        check_size(
            n * (n + 1),
            f"the coordinates of {n + 1} weights, the fewest a nonzero Weyl orbit of {cd.type} holds,",
        )
    size = _orbit_size(cd, lam)
    check_size(size * n, f"the coordinates of the {number(size)} {what}")


def _parabolic_order(cd: CartanData, nodes: Sequence[int]) -> int:
    """|W_J| for the nodes J: the product of the orders of its connected
    components in the Dynkin diagram, each found by one breadth-first
    pass that counts each node's neighbours in J and the largest bond."""
    links = cd.links
    inside = set(nodes)
    left = set(inside)
    order = 1
    while left:
        component = [left.pop()]
        degree = {}
        bond = 1
        for i in component:  # grows while read
            d = 0
            for k, a_ik, a_ki in links[i - 1]:
                if k in inside:
                    d += 1
                    if a_ik != a_ki:  # a multiple bond: one piece has at most one
                        bond = a_ik * a_ki
                    if k in left:
                        left.remove(k)
                        component.append(k)
            degree[i] = d
        order *= _component_order(cd, degree, bond)
    return order


def _component_order(cd: CartanData, degree: Dict[int, int], bond: int) -> int:
    """The order of the Weyl group of a connected piece of the diagram,
    given each node's degree in it and its largest bond a_ij a_ji, read
    off its shape: (k+1)! for A_k, 2^k k! for B_k and C_k, 2^(k-1) k!
    for D_k, and 51840, 2903040, 696729600, 1152 and 12 for E6, E7, E8,
    F4 and G2.

    A bond of 3 is G2's; one of 2 is B_k's or C_k's unless the piece is
    all of F4.  A simply-laced piece with no branch node is A_k; at a
    branch node, D_k has at least two arms of one node, E_k one.
    """
    k = len(degree)
    if bond == 3:
        return 12
    if bond == 2:
        return 1152 if k == 4 and cd.type.series == "F" else 2**k * factorial(k)
    if 3 not in degree.values():
        return factorial(k + 1)
    branch = next(i for i, d in degree.items() if d == 3)
    if sum(degree.get(j) == 1 for j in cd.neighbors(branch)) >= 2:
        return 2 ** (k - 1) * factorial(k)
    return {6: 51840, 7: 2903040, 8: 696729600}[k]


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
    _check_orbit_size(cd, lam, f"weights of a Weyl orbit of {cd.type}")
    seen = {lam}
    queue = [lam]  # grows while it is read: breadth-first order
    edges = []
    for mu in queue:
        for j, c in enumerate(mu, start=1):
            if c > 0:
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
    words: Dict[Weight, Tuple[int, ...]] = {lam: ()}
    for _mu, _j, nu in _orbit_edges(cd, lam):
        i = next(k for k, c in enumerate(nu, start=1) if c < 0)
        words[nu] = (i,) + words[_reflect(cd, i, nu)]
    lt = cd.type
    return tuple(WeylElement(lt, w) for w in sorted(words.values(), key=lambda w: (len(w), w)))


def weight_orbit(cd: CartanData, lam: Weight) -> List[Tuple[Weight, WeylElement]]:
    """The W-orbit of a dominant weight with its minimal representatives."""
    return [(w.apply(lam), w) for w in min_coset_reps(cd, lam)]


def dominance_diff(cd: CartanData, lam: Weight, mu: Weight) -> Optional[RootCoords]:
    """Root coordinates of lam - mu, or None if not in the root lattice.

    One integer solve, ``intlattice.solve``, whose columns are the simple
    roots in weight coordinates, the Cartan columns: 2 at j and a_kj at
    each neighbour k.
    """
    _check_coords(cd, lam, "weight")
    _check_coords(cd, mu, "weight")
    # Imported here: most cold CLI calls never reach the integer solve.
    from .intlattice import solve

    columns = []
    for j, links in zip(cd.nodes, cd.links):
        column = {j: 2}
        for k, _, a_kj in links:
            column[k] = a_kj
        columns.append(column)
    x = solve(columns, {i: l - m for i, l, m in zip(cd.nodes, lam, mu)})
    return None if x is None else tuple(x)
