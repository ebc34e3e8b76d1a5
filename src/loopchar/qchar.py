"""Loop characters of finite-dimensional irreducible modules.

Covers the rank-one evaluation modules, minuscule fundamental modules
(whose character is a single braid orbit), the rank-n orthogonal adjoint
character at node 2, and a table-driven descent that assembles any
classical fundamental character from braid orbits of dominant loop
weights plus caller-supplied dominant weight multiplicities.

Moving the spectral parameter of a fundamental module from a to a*q^e
adds e to every exponent of its character and renames the orbit (the
spectral-shift automorphism of the quantum affine algebra).  So each
fundamental character is built once, at ("a", 0), in a per-type cache,
and every call translates that template to the parameter it asks for,
through a ``ShiftPlan`` kept next to it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from . import lweight
from .cartan import CartanData, Frozen, Weight, cartan_data
from .errors import DomainError
from .lweight import (
    LCharacter,
    LWeight,
    ShiftPlan,
    SpectralParam,
    check_param,
    fundamental_lweight,
    weight_of,
)

# braid and weyl are imported only inside the cached builders below, so
# the string verbs never load them and a warm call runs no import.
MultTable = Dict[Weight, int]


def check_length(m: int) -> None:
    """The string length m as a nonnegative plain int, or DomainError.

    bool is an int subclass, so True would pass as length 1, and a float
    or string length would reach ``range`` as a bare TypeError.
    """
    if type(m) is not int:
        raise DomainError(f"string length must be an integer, got {m!r}")
    if m < 0:
        raise DomainError(f"string length must be nonnegative, got {m}")


class Sl2String(Frozen):
    """A q-segment: rank-one factors in arithmetic exponent progression."""

    __slots__ = ("a", "m")

    def __init__(self, a: SpectralParam, m: int):
        a = check_param(a)
        check_length(m)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "m", m)

    @property
    def exps(self) -> Tuple[int, ...]:
        orbit, e = self.a
        return tuple(e + self.m - 1 - 2 * j for j in range(self.m))

    def lweight(self) -> LWeight:
        orbit, _e = self.a
        return LWeight.from_dict({(1, orbit, k): 1 for k in self.exps})


def sl2_eval_char(a: SpectralParam, m: int) -> LCharacter:
    """Loop character of the rank-one evaluation module of dimension m+1.

    Term r is the string of length m-r at a shifted down by r, divided by
    the string of length r at a shifted up by m-r+2.
    """
    orbit, e = check_param(a)
    check_length(m)
    # Refused before anything is built: the m+1 terms hold m factors each.
    if m * (m + 1) > lweight.MAX_PRODUCT_FACTORS:
        raise DomainError(
            f"the character of a string of length {m} holds {m * (m + 1)} factors,"
            f" more than {lweight.MAX_PRODUCT_FACTORS}"
        )
    # Term r has numerator exponents e-m+1, e-m+3, ..., e+m-2r-1 and
    # denominator exponents e+m-2r+3, ..., e+m+1: the first m-r entries
    # of ``num`` and the last r of ``den``.  The two ranges never
    # overlap, so each term's factors come out sorted, and the terms
    # themselves in ascending factor order.
    num = tuple(((1, orbit, k), 1) for k in range(e - m + 1, e + m, 2))
    den = tuple(((1, orbit, k), -1) for k in range(e - m + 3, e + m + 2, 2))
    return LCharacter(
        tuple((LWeight(num[: m - r] + den[m - r :]), 1) for r in range(m + 1))
    )


def sl2_tensor_irreducible(strings: Sequence[Sl2String]) -> bool:
    """Whether a tensor product of strings stays irreducible.

    Fails exactly when two same-orbit strings sit in resonant position:
    exponent gap of the form m + m' - 2p with 0 <= p < min(m, m').
    Distinct orbits never interact.
    """
    if not strings:
        raise DomainError("need at least one string")
    for k in range(len(strings)):
        for s in range(k + 1, len(strings)):
            (ok, ek), mk = strings[k].a, strings[k].m
            (os_, es), ms = strings[s].a, strings[s].m
            if ok != os_:
                continue
            gap = abs(ek - es)
            lo = abs(mk - ms) + 2
            hi = mk + ms
            if lo <= gap <= hi and (gap - hi) % 2 == 0:
                return False
    return True


def cyclicity_order(
    factors: Sequence[Tuple[int, SpectralParam]]
) -> Tuple[int, ...]:
    """Permutation putting tensor factors into a cyclic order.

    Within each orbit, positions are refilled in decreasing exponent
    order (ties by node), so no later factor is a positive q-power of an
    earlier one.  Factors of distinct orbits keep their slots.  Each factor
    must be a (node, parameter) pair, each node a plain int >= 1 and each
    parameter pass ``check_param``.
    """
    by_orbit: Dict[str, List[int]] = {}
    for t, factor in enumerate(factors):
        if type(factor) not in (tuple, list) or len(factor) != 2:
            raise DomainError(f"tensor factor must be a (node, parameter) pair, got {factor!r}")
        node, param = factor
        if type(node) is not int or node < 1:
            raise DomainError(f"tensor factor node must be an integer >= 1, got {node!r}")
        orbit, _ = check_param(param)
        by_orbit.setdefault(orbit, []).append(t)
    perm = [0] * len(factors)
    for slots in by_orbit.values():
        ordered = sorted(
            slots, key=lambda t: (-factors[t][1][1], factors[t][0])
        )
        for slot, src in zip(slots, ordered):
            perm[slot] = src
    return tuple(perm)


def is_minuscule(cd: CartanData, i: int) -> bool:
    """Whether the fundamental weight omega_i is minuscule.

    omega_i is minuscule when <omega_i, beta^vee> = 2 d_i beta_i / (beta, beta)
    is 0 or 1 for every positive root beta (Bourbaki, Lie Groups and Lie
    Algebras, Ch. VIII, section 7).  The largest pairing comes at the
    highest short root theta_s, so weyl tests d_i (theta_s)_i <= min d on
    one greedy ascent per type; no root table is built.
    """
    # Checked before the cache, where True or 1.0 would hit node 1's entry.
    cd.check_node(i)
    return _is_minuscule(cd, i)


@lru_cache(maxsize=None)
def _is_minuscule(cd: CartanData, i: int) -> bool:
    from .weyl import _fundamental_is_minuscule

    return _fundamental_is_minuscule(cd, i)


class _Template:
    """A character built at ("a", 0), and the plan that translates it.

    The plan is made by the first translation, not with the character, so
    that a caller who only ever asks for ("a", 0) never pays for it.
    """

    __slots__ = ("char", "plan")

    def __init__(self, char: LCharacter):
        self.char = char
        self.plan: Optional[ShiftPlan] = None


def _at(template: _Template, p: SpectralParam) -> LCharacter:
    """A cached character, translated from ("a", 0) to the parameter p."""
    orbit, e = p
    if orbit == "a" and e == 0:
        return template.char
    if template.plan is None:
        template.plan = ShiftPlan(template.char)
    return template.plan.apply(e, orbit)


def minuscule_char(cd: CartanData, i: int, p: SpectralParam) -> LCharacter:
    """Character of a minuscule fundamental module: one pure braid orbit."""
    if not is_minuscule(cd, i):  # which checks the node
        raise DomainError(
            f"node {i} of {cd.type} is not minuscule: some positive coroot "
            "pairs with the fundamental weight above 1"
        )
    return _at(_minuscule_template(cd, i), check_param(p))


@lru_cache(maxsize=None)
def _minuscule_template(cd: CartanData, i: int) -> _Template:
    from .braid import braid_orbit

    top = fundamental_lweight(cd, i)
    images = braid_orbit(cd, top)
    if len(set(images.values())) != len(images):
        raise ArithmeticError(f"braid orbit of {top} meets some loop weight twice")
    return _Template(LCharacter.from_dict(dict.fromkeys(images.values(), 1)))


def dn_node2_char(n: int, p: SpectralParam) -> LCharacter:
    """Node-2 fundamental character in type D: adjoint orbit plus core.

    The braid orbit of the highest factor runs over the roots; on top of
    it sit n zero-weight terms, the (n-2)-nd with multiplicity 2.
    """
    if n < 4:
        raise DomainError(f"rank must be at least 4, got {n}")
    # Keyed by the parsed type, so an n that names no type never reaches the cache.
    return _at(_dn_node2_template(cartan_data(f"D{n}")), check_param(p))


@lru_cache(maxsize=None)
def _dn_node2_template(cd: CartanData) -> _Template:
    from .braid import braid_orbit

    n = cd.rank
    terms: Dict[LWeight, int] = {}
    for pi in braid_orbit(cd, fundamental_lweight(cd, 2)).values():
        terms[pi] = terms.get(pi, 0) + 1
    for j in range(1, n + 1):
        core = _dn_core_term(n, j)
        mult = 2 if j == n - 2 else 1
        terms[core] = terms.get(core, 0) + mult
    return _Template(LCharacter.from_dict(terms))


def _dn_core_term(n: int, j: int) -> LWeight:
    """The j-th zero-weight term of the type-D node-2 character at ("a", 0)."""
    powers: Dict[Tuple[int, str, int], int] = {}

    def put(node: int, exp: int, sign: int) -> None:
        if node >= 1:
            key = (node, "a", exp)
            powers[key] = powers.get(key, 0) + sign

    if j <= n - 2:
        put(j - 1, j + 1, -1)
        put(j - 1, 2 * n - j - 3, +1)
        put(j, j, +1)
        put(j, 2 * n - j - 2, -1)
    else:
        put(j, n - 3, +1)
        put(j, n + 1, -1)
    return LWeight.from_dict(powers)


def fundamental_char(
    cd: CartanData, i: int, p: SpectralParam, table: MultTable
) -> LCharacter:
    """Classical fundamental character from a dominant multiplicity table.

    Dominant loop weights are processed top down; each contributes its
    braid orbit.  New dominant loop weights are discovered one level
    lower from orbit terms whose weight is dominant plus a simple root
    and whose entry there is a degree-2 polynomial: stripping a simple
    loop root at the top factor always descends, at the bottom factor
    only when the two factors are not in adjacent position.  Discovered
    candidates are matched against the table, which must pin every
    multiplicity without ambiguity.  The descent runs once per type,
    node and table, at ("a", 0), and its result or its error is what
    every parameter p gets.
    """
    if cd.type.series not in "ABCD":
        raise DomainError(
            f"the descent applies to the classical series only, not {cd.type}"
        )
    cd.check_node(i)
    p = check_param(p)
    for lam, mult in table.items():
        # The table is the cache key: 1.0 or True would hit the entry of 1.
        if type(lam) is not tuple or any(type(c) is not int for c in lam):
            raise DomainError(f"table weight {lam!r} is not a tuple of integers")
        if type(mult) is not int:
            raise DomainError(f"table multiplicity at {list(lam)} is not an integer: {mult!r}")
    return _at(_fundamental_template(cd, i, tuple(sorted(table.items()))), p)


@lru_cache(maxsize=128)
def _fundamental_template(
    cd: CartanData, i: int, items: Tuple[Tuple[Weight, int], ...]
) -> _Template:
    """The descent at ("a", 0), level by level in order of height below
    the top weight, read off each level's orbit walk.  Every level but the
    top is a child found by ``_discover``, so each is checked against the
    table when it is settled, and the character has no other dominant weight.
    """
    from .braid import braid_orbit
    from .weyl import fundamental_weight

    table = dict(items)
    top = fundamental_lweight(cd, i)
    top_wt = fundamental_weight(cd, i)
    if table.get(top_wt) != 1:
        raise DomainError(
            f"table must assign multiplicity 1 to the top weight {list(top_wt)}"
        )

    heights: Dict[Weight, int] = {top_wt: 0}
    # candidate children per dominant weight: lower bound on each mult;
    # children sit strictly deeper than their discoverer, so a level's
    # bounds are complete once every shallower level has been processed
    bounds: Dict[Weight, Dict[LWeight, int]] = {}
    settled: Dict[Weight, Dict[LWeight, int]] = {top_wt: {top: 1}}
    done: set = set()
    terms: Dict[LWeight, int] = {}
    proj: Dict[Weight, int] = {}

    while open_levels := (set(settled) | set(bounds)) - done:
        lam = min(open_levels, key=lambda w: (heights[w], w))
        done.add(lam)
        if lam not in settled:
            cand = bounds[lam]
            want = table.get(lam)
            if want is None:
                raise DomainError(
                    f"descent reached dominant weight {list(lam)} missing from the table"
                )
            if len(cand) == 1:
                (child,) = cand
                if cand[child] > want:
                    raise DomainError(
                        f"table value {want} at weight {list(lam)} is below "
                        f"the forced lower bound {cand[child]}"
                    )
                settled[lam] = {child: want}
            elif sum(cand.values()) == want:
                settled[lam] = dict(cand)
            else:
                raise DomainError(
                    f"cannot split multiplicity {want} at weight {list(lam)} "
                    f"among {len(cand)} candidates with bounds {sorted(cand.values())}"
                )
        depth = _orbit_heights(cd, lam, heights[lam])
        for pi, mult in settled[lam].items():
            for mu, term in braid_orbit(cd, pi).items():
                terms[term] = terms.get(term, 0) + mult
                proj[mu] = proj.get(mu, 0) + mult
                for lam2 in _discover(cd, term, mu, mult, bounds):
                    heights[lam2] = depth[mu] + 1

    char = LCharacter.from_dict(terms)
    for lam, mult in table.items():
        if proj.get(lam, 0) != mult:
            raise DomainError(
                f"table mismatch at weight {list(lam)}: table {mult}, "
                f"character {proj.get(lam, 0)}"
            )
    return _Template(char)


def _orbit_heights(cd: CartanData, lam: Weight, height: int) -> Dict[Weight, int]:
    """Heights of lam's W-orbit, given lam's: s_j lowers mu by mu_j alpha_j."""
    from .weyl import orbit_edges

    depth = {lam: height}
    for mu, j, nu in orbit_edges(cd, lam):
        depth[nu] = depth[mu] + mu[j - 1]
    return depth


def _discover(
    cd: CartanData,
    term: LWeight,
    mu: Weight,
    mult: int,
    bounds: Dict[Weight, Dict[LWeight, int]],
) -> List[Weight]:
    """Record dominant children reachable from one orbit term of weight mu,
    and return their weights, each mu - alpha_j for some node j."""
    from .braid import simple_lroot
    from .weyl import is_dominant, simple_root_weight

    # Only a node whose powers are positive and sum to 2 descends; other powers add 3 entries.
    exps: Dict[int, List[Tuple[str, int]]] = {}
    for (j, orbit, k), power in term.factors:
        exps.setdefault(j, []).extend([(orbit, k)] * (power if 0 < power < 3 else 3))
    found: List[Weight] = []
    for j, pair in exps.items():
        if len(pair) != 2:
            continue
        lam2 = tuple(m - s for m, s in zip(mu, simple_root_weight(cd, j)))
        if not is_dominant(lam2):
            continue
        low, top = pair
        if low == top:
            children = [(top, 2 * mult)]
        elif low[0] == top[0] and top[1] == low[1] + 2 * cd.d(j):  # adjacent: only the top
            children = [(top, mult)]
        else:
            children = [(top, mult), (low, mult)]
        for (orbit, k), bound in children:
            child = term * simple_lroot(cd, j, orbit, k).inverse()
            sub = bounds.setdefault(lam2, {})
            sub[child] = max(sub.get(child, 0), bound)
        found.append(lam2)
    return found


def tensor_char(c1: LCharacter, c2: LCharacter) -> LCharacter:
    """Character of a tensor product: the distributive term product."""
    return c1 * c2


def weight_projection(cd: CartanData, c: LCharacter) -> Dict[Weight, int]:
    """Push multiplicities from loop weights down to ordinary weights."""
    out: Dict[Weight, int] = {}
    for pi, mult in c.terms:
        lam = weight_of(cd, pi)
        out[lam] = out.get(lam, 0) + mult
    return out


def weyl_module_dim(
    cd: CartanData, omega: LWeight, fund_dims: Dict[int, int]
) -> int:
    """Dimension of the universal module: product of fundamental dims."""
    if not omega.is_dominant:
        raise DomainError("the Weyl module dimension is defined for dominant loop weights")
    lam = weight_of(cd, omega)
    total = 1
    for node, coord in enumerate(lam, start=1):
        if coord == 0:
            continue
        if node not in fund_dims:
            raise DomainError(f"no fundamental dimension supplied for node {node}")
        dim = fund_dims[node]
        if type(dim) is not int or dim < 1:
            raise DomainError(
                f"fundamental dimension of node {node} must be a positive int, got {dim!r}"
            )
        total *= dim ** coord
    return total
