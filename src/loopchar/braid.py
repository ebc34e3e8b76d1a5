"""Braid operators on loop weights, simple loop roots, and lattice membership.

A word of operator indices is read as a composition, so in
``braid_act_word`` the rightmost letter acts first.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from .cartan import CartanData, Weight, _alpha_pattern
from .errors import DomainError
from .lweight import (
    Factors,
    GenKey,
    LWeight,
    _mul_factors,
    check_lweight,
    check_param,
    dual_lweight,
    weight_of,
)

# weyl is imported inside the two functions that run it, braid_orbit and
# twist_by_w0, so importing braid does not load it.
LRootCoeffs = Dict[GenKey, int]


def braid_act(cd: CartanData, i: int, pi: LWeight) -> LWeight:
    """Apply the i-th braid operator.

    T_i divides pi by alpha[i;a,k]^p for every factor w[i;a,k]^p of pi,
    which sends that factor to an inverted one at k + 2*d_i and spawns
    factors on each neighbour at offsets set by the Cartan entry; all
    other factors pass through.
    """
    cd.check_node(i)
    check_lweight(cd, pi)
    return _act_letter(cd, i, pi)


def _act_letter(cd: CartanData, i: int, pi: LWeight) -> LWeight:
    """``braid_act`` on a node and a loop weight already checked."""
    own = [(a, k, p) for (j, a, k), p in pi.factors if j == i]
    if not own:
        return pi
    powers = pi.to_dict()
    pattern = _alpha_pattern(cd, i)
    for a, k, p in own:
        for (node, off), v in pattern:
            key = (node, a, k + off)
            c = powers.get(key, 0) - p * v
            if c:
                powers[key] = c
            else:
                del powers[key]
    return LWeight.from_dict(powers)


def braid_act_word(cd: CartanData, word: Sequence[int], pi: LWeight) -> LWeight:
    """Apply the braid operators of ``word``, rightmost letter first.

    Equals folding ``braid_act`` over the reversed word.  T_word is
    multiplicative and commutes with the spectral shift and with renaming
    an orbit, so the image of pi is the product, over its factors
    w[j;a,k]^p, of the cached image of w[j;a,0] moved to (a, k) and
    raised to p; moving keeps the factor order.  pi itself comes back
    when no letter fires.
    """
    word = tuple(word)
    cd.check_nodes(word)
    check_lweight(cd, pi)
    out: Factors = ()
    fired = False
    for (j, a, k), p in pi.factors:
        image = _generator_image(cd, word, j)
        if image is None:
            moved: Factors = (((j, a, k), p),)
        else:
            fired = True
            moved = tuple(((i, a, e + k), c * p) for i, e, c in image)
        out = _mul_factors(out, moved) if out else moved
    return LWeight(out) if fired else pi


@lru_cache(maxsize=4096)
def _generator_image(
    cd: CartanData, word: Tuple[int, ...], j: int
) -> Optional[Tuple[Tuple[int, int, int], ...]]:
    """T_word(w[j;a,0]) as sorted (node, exp, power) triples, or None when
    no letter of word is j.

    Until a letter j is reached no letter fires.  Each node's factors are
    one {exp: power} group.  A letter i empties its own group and, per
    factor, subtracts alpha_i's ``_peel_table`` entries: (i, 2*d_i, 1)
    refills the group moved up and negated.  Groups are sorted at the end.
    """
    if j not in word:
        return None
    groups: List[Dict[int, int]] = [{} for _ in range(cd.rank + 1)]
    groups[j][0] = 1
    rests = _peel_table(cd)
    for i in reversed(word):
        own = groups[i]
        if not own:
            continue
        groups[i] = {}
        for k, p in own.items():
            for node, off, v in rests[i]:
                powers = groups[node]
                key = k + off
                c = powers.get(key, 0) - p * v
                if c:
                    powers[key] = c
                else:
                    del powers[key]
    return tuple(sorted((node, k, p) for node, g in enumerate(groups) for k, p in g.items()))


def braid_orbit(cd: CartanData, pi: LWeight) -> Dict[Weight, LWeight]:
    """The braid orbit of pi, keyed by the W-orbit of its dominant weight.

    Each weight w(lam) maps to T_w pi for the minimal representative w;
    one braid operator is applied per edge of the orbit walk.  pi is
    checked once, by ``weight_of``.
    """
    from .weyl import orbit_edges

    lam = weight_of(cd, pi)
    images = {lam: pi}
    for mu, j, nu in orbit_edges(cd, lam):
        images[nu] = _act_letter(cd, j, images[mu])
    return images


@lru_cache(maxsize=None)
def _peel_table(cd: CartanData) -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
    """Per node j (index 0 unused): alpha_j's entries other than its base
    (j, 0), as (node, offset, value); every offset is >= 1."""
    return ((),) + tuple(
        tuple((l, off, v) for (l, off), v in _alpha_pattern(cd, j) if (l, off) != (j, 0))
        for j in cd.nodes
    )


def simple_lroot(cd: CartanData, i: int, orbit: str = "a", exp: int = 0) -> LWeight:
    """The simple loop root: the ratio of omega_{i,a} by its braid image."""
    cd.check_node(i)
    check_param((orbit, exp))
    return LWeight.from_dict(
        {(node, orbit, exp + off): v for (node, off), v in _alpha_pattern(cd, i)}
    )


def lroot_decompose(
    cd: CartanData, pi: LWeight, sign: str = "any"
) -> Optional[LRootCoeffs]:
    """Exact decomposition of pi as a product of simple loop roots.

    Returns the coefficient map, or None when pi is not in the loop-root
    lattice (or fails the sign constraint: "+" requires all coefficients
    >= 0, "-" requires <= 0).  Orbits never interact, and within one
    orbit the lowest remaining exponent can only be matched by the loop
    root based there, so peeling upward is forced; any genuine solution
    is supported at base exponents at most two below the largest input
    exponent.  The peel visits only the exponent levels that hold a
    factor, lowest first: a member costs O(certificate x |alpha pattern|
    x log levels), whatever the spread of its exponents, while a
    non-member's peel reaches every level up to its top, so it costs
    O(spread x rank).  Under a sign constraint the peel stops at the first
    coefficient of the wrong sign, since every coefficient is forced.

    Unconstrained, it peels even where a nonzero block class would answer
    None at once: the xi-oracle verify suite checks linkage by class
    against this peel, so the peel must not read classes itself.
    """
    if sign not in ("any", "+", "-"):
        raise DomainError(f"unknown sign constraint {sign!r}")
    check_lweight(cd, pi)
    return _decompose(cd, pi, sign)


def _decompose(cd: CartanData, pi: LWeight, sign: str) -> Optional[LRootCoeffs]:
    """``lroot_decompose`` on a loop weight and sign already checked.

    Each orbit's factors are bucketed by exponent level, {level: {node:
    power}}, and the occupied levels are taken from a heap.  Every entry
    of alpha_j but its base sits at an offset >= 1, so peeling a level
    writes only above it: a level is final when it is popped, and its
    nodes are peeled in ascending order.  Levels above the top input
    exponent minus two are never peeled; whatever is left there means
    pi is not a member.
    """
    coeffs: LRootCoeffs = {}
    by_orbit: Dict[str, Dict[int, Dict[int, int]]] = {}
    for (j, a, k), p in pi.factors:
        by_orbit.setdefault(a, {}).setdefault(k, {})[j] = p
    rests = _peel_table(cd)
    # Coefficients are forced, so one of the sign the constraint forbids
    # settles the answer as soon as it is peeled.
    wrong = {"any": 0, "+": -1, "-": 1}[sign]
    for orbit, levels in by_orbit.items():
        last = max(levels) - 2
        heap = list(levels)
        heapify(heap)
        while heap and heap[0] <= last:
            level = heappop(heap)
            bucket = levels.pop(level)
            for j in sorted(bucket):
                c = bucket[j]
                if c * wrong > 0:
                    return None
                coeffs[(j, orbit, level)] = c
                for node, off, v in rests[j]:
                    key = level + off
                    row = levels.get(key)
                    if row is None:
                        row = levels[key] = {}
                        if key <= last:
                            heappush(heap, key)
                    nv = row.get(node, 0) - c * v
                    if nv:
                        row[node] = nv
                    else:
                        del row[node]
        if any(levels.values()):
            return None
    return coeffs


def expand_lroots(cd: CartanData, coeffs: LRootCoeffs) -> LWeight:
    out = LWeight.identity()
    for (j, orbit, k), c in coeffs.items():
        out = out * simple_lroot(cd, j, orbit, k) ** c
    return out


def cone_check(cd: CartanData, omega: LWeight, pi: LWeight) -> bool:
    """Whether pi lies below omega: their ratio is a negative loop-root product.

    The ratio is peeled under the "-" constraint, which stops at its first
    positive coefficient.  Above the ratio's factors the forced
    coefficients change sign within about one shift period 2·lacing·h∨
    (the peel of a lone inverse factor turns positive lacing·h∨ levels
    above it on every class type), so the peel never walks far past a
    factor before it answers.  The cost is bounded at any exponent
    spread: at worst about factors x shift period levels, and
    O(certificate x |alpha pattern| x log levels) for a member.
    """
    if not omega.is_dominant:
        raise DomainError("cone check needs a dominant reference weight")
    # The quotient merges a bad node with its int twin; check both sides
    # first, after which the quotient needs no check of its own.
    check_lweight(cd, omega)
    check_lweight(cd, pi)
    return _decompose(cd, pi * omega.inverse(), "-") is not None


def twist_by_w0(cd: CartanData, pi: LWeight) -> LWeight:
    """Apply the full braid twist along a reduced word for the longest element.

    Equals the inverse of the dual loop weight; the identity is checked
    here because it pins both the node pairing and the exponent shift.
    """
    from .weyl import longest_element

    if not pi.is_dominant:
        raise DomainError("the twist formula applies to dominant loop weights")
    out = braid_act_word(cd, longest_element(cd).word, pi)
    if out != dual_lweight(cd, pi).inverse():
        raise ArithmeticError(f"twist of {pi} is not the inverse of its dual")
    return out
