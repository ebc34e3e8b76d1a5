"""Loop characters of finite-dimensional irreducible modules.

Covers the rank-one evaluation modules and fundamental modules.  One
table-driven descent assembles every fundamental character from braid
orbits of dominant loop weights and a dominant weight-multiplicity
table: {omega_i: 1} for a minuscule node (a single braid orbit),
{omega_2: 1, 0: n+1} for node 2 of D_n (the adjoint orbit plus its
zero-weight core), or a caller's table for any classical node.

Moving the spectral parameter of a fundamental module from a to a*q^e
adds e to every exponent of its character and renames the orbit (the
spectral-shift automorphism of the quantum affine algebra).  So each
fundamental character is built once, at ("a", 0), in one cache keyed by
type, node and table that the three sources share, and every call
translates that template to the parameter it asks for, through a
``ShiftPlan`` kept next to it.  A character whose top braid orbit would
hold more coordinates than ``errors.MAX_SIZE`` is refused before any
orbit is walked.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from . import lweight
from .cartan import CartanData, Frozen, Weight, cartan_data
from .errors import DomainError, check_size, quote
from .lweight import (
    LCharacter,
    LWeight,
    ShiftPlan,
    SpectralParam,
    check_param,
    fundamental_lweight,
    weight_of,
)

# braid and weyl are imported only inside the cached builder below, so
# the string verbs never load them and a warm call runs no import: the
# fixed tables spell their weights out.
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
    """A q-segment: rank-one factors in arithmetic exponent progression.

    A string of any length m can be made and read, but ``exps`` and
    ``lweight`` hold m entries, so they refuse through ``check_size``
    before building any.
    """

    __slots__ = ("a", "m")

    def __init__(self, a: SpectralParam, m: int):
        a = check_param(a)
        check_length(m)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "m", m)

    @property
    def exps(self) -> Tuple[int, ...]:
        orbit, e = self.a
        m = self.m
        check_size(m, f"the exponents of a string of length {m}")
        return tuple(e + m - 1 - 2 * j for j in range(m))

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
    check_size(m * (m + 1), f"the factors of the character of a string of length {m}")
    # Term r has numerator exponents e-m+1, e-m+3, ..., e+m-2r-1 and
    # denominator exponents e+m-2r+3, ..., e+m+1: the first m-r entries
    # of ``num`` and the last r of ``den``.  The two ranges never
    # overlap, so each term's factors come out sorted, and the terms
    # themselves in ascending factor order.
    num = tuple([((1, orbit, k), 1) for k in range(e - m + 1, e + m, 2)])
    den = tuple([((1, orbit, k), -1) for k in range(e - m + 3, e + m + 2, 2)])
    factors = [num[: m - r] + den[m - r :] for r in range(m + 1)]
    return LCharacter(tuple(zip(lweight._lweights(factors), repeat(1))))


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

    omega_i is minuscule when <omega_i, beta^vee> is 0 or 1 for every
    positive root beta.  Read off the classification (Bourbaki, Lie Groups
    and Lie Algebras, Ch. VIII, section 7) in this package's labelling:
    every node of A_n, node n of B_n, node 1 of C_n, nodes 1, n-1 and n of
    D_n, nodes 1 and 5 of E6, node 1 of E7, and none of E8, F4 or G2.
    """
    cd.check_node(i)
    n, series = cd.rank, cd.type.series
    nodes = {"B": (n,), "C": (1,), "D": (1, n - 1, n), "E": {6: (1, 5), 7: (1,)}.get(n, ())}
    return series == "A" or i in nodes.get(series, ())


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
    """Character of a minuscule fundamental module: one pure braid orbit,
    the descent from the table {omega_i: 1}, whose top finds no child."""
    if not is_minuscule(cd, i):  # which checks the node
        raise DomainError(
            f"node {i} of {cd.type} is not minuscule: some positive coroot "
            "pairs with the fundamental weight above 1"
        )
    p = check_param(p)
    top = (0,) * (i - 1) + (1,) + (0,) * (cd.rank - i)
    return _at(_fundamental_template(cd, i, ((top, 1),)), p)


def dn_node2_char(n: int, p: SpectralParam) -> LCharacter:
    """Node-2 fundamental character in type D: adjoint orbit plus core.

    The braid orbit of the highest factor runs over the roots; on top of
    it sit n zero-weight terms, the (n-2)-nd with multiplicity 2.  They are
    the descent from the table {omega_2: 1, 0: n+1}.
    """
    if type(n) is not int:
        raise DomainError(f"rank must be an integer, got {quote(n)}")
    if n < 4:
        raise DomainError(f"rank must be at least 4, got {n}")
    p = check_param(p)
    table = (((0,) * n, n + 1), ((0, 1) + (0,) * (n - 2), 1))
    return _at(_fundamental_template(cartan_data(f"D{n}"), 2, table), p)


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
    if not isinstance(table, dict):
        raise DomainError(f"table must be a dict of weights to multiplicities, got {quote(table)}")
    for lam, mult in table.items():
        # The table is the cache key: 1.0 or True would hit the entry of 1.
        if type(lam) is not tuple or any(type(c) is not int for c in lam):
            raise DomainError(f"table weight {quote(lam)} is not a tuple of integers")
        if len(lam) != cd.rank:
            raise DomainError(f"table weight {list(lam)} does not have {cd.rank} coordinates")
        if type(mult) is not int:
            raise DomainError(f"table multiplicity at {list(lam)} is not an integer: {quote(mult)}")
    return _at(_fundamental_template(cd, i, tuple(sorted(table.items()))), p)


def _top_size(cd: CartanData, i: int) -> int:
    """|W omega_i|, the number of terms in the top level of a descent.

    In closed form: C(n+1, i) in A_n; 2^i C(n, i) in B_n and C_n; in D_n
    the same below node n-1, and 2^(n-1) at nodes n-1 and n; 27 at nodes
    1 and 5 of E6 and 56 at node 1 of E7, the only exceptional nodes that
    reach the descent.
    """
    n, series = cd.rank, cd.type.series
    if series == "A":
        return comb(n + 1, i)
    if series in "BC" or (series == "D" and i <= n - 2):
        return 2 ** i * comb(n, i)
    if series == "D":
        return 2 ** (n - 1)
    return {(6, 1): 27, (6, 5): 27, (7, 1): 56}[n, i]


@lru_cache(maxsize=128)
def _fundamental_template(
    cd: CartanData, i: int, items: Tuple[Tuple[Weight, int], ...]
) -> _Template:
    """The descent at ("a", 0), level by level in order of height below
    the top weight, read off the orbit walk of each level that finds a
    child.  Every level but the top is a child found by ``_discover``, so
    each is checked against the table when it is settled, and the character
    has no other dominant weight.  The weight 0 and a minuscule top have
    nothing below them and look for no child.  No two orbit terms of a
    character meet, so a term met twice is an ArithmeticError.  A top
    level too large to walk is refused before any orbit is walked.
    """
    from .braid import braid_orbit
    from .weyl import fundamental_weight

    count = _top_size(cd, i)
    check_size(
        count * cd.rank,
        f"the coordinates of the {count} terms in the top braid orbit of node {i} of {cd.type}",
    )
    table = dict(items)
    top_wt = fundamental_weight(cd, i)
    if table.get(top_wt) != 1:
        raise DomainError(
            f"table must assign multiplicity 1 to the top weight {list(top_wt)}"
        )

    heights: Dict[Weight, int] = {top_wt: 0}
    # candidates per dominant weight: lower bound on each mult; children
    # sit strictly deeper than their discoverer, so a level's bounds are
    # complete once every shallower level has been processed
    bounds: Dict[Weight, Dict[LWeight, int]] = {top_wt: {fundamental_lweight(cd, i): 1}}
    terms: Dict[LWeight, int] = {}
    levels: List[Tuple[int, Dict[Weight, LWeight]]] = []  # (multiplicity, orbit)

    while bounds:
        lam = min(bounds, key=lambda w: (heights[w], w))
        mults = _settle(lam, bounds.pop(lam), table.get(lam))
        # Nothing lies below these levels, and their orbits hold no
        # coordinate 2: the skip only spares scanning, say, A3000's 3001 weights.
        leaf = not any(lam) or (lam == top_wt and is_minuscule(cd, i))
        depth = None
        for pi, mult in mults.items():
            orbit = braid_orbit(cd, pi)
            size = len(terms) + len(orbit)
            terms.update(dict.fromkeys(orbit.values(), mult))  # one hash per term
            if len(terms) != size:
                raise ArithmeticError(
                    f"the braid orbit of {pi} meets a loop weight of the descent twice"
                )
            if leaf:
                continue
            for mu, term in orbit.items():
                # Only a coordinate 2 of mu can carry a degree-2 entry.
                if 2 not in mu:
                    continue
                found = _discover(cd, term, mu, mult, bounds)
                if found and depth is None:
                    depth = _orbit_heights(cd, lam, heights[lam])
                for lam2 in found:
                    heights[lam2] = depth[mu] + 1
        levels.append((sum(mults.values()), orbit))

    # The character is W-invariant: a weight has the multiplicity of the
    # level whose orbit holds it.
    for lam, mult in items:
        have = next((total for total, orbit in levels if lam in orbit), 0)
        if have != mult:
            raise DomainError(
                f"table mismatch at weight {list(lam)}: table {mult}, character {have}"
            )
    return _Template(LCharacter.from_dict(terms))


def _settle(lam: Weight, cand: Dict[LWeight, int], want: Optional[int]) -> Dict[LWeight, int]:
    """The multiplicity of each candidate at level lam, from the table's
    value there and the candidates' lower bounds: a lone candidate takes
    the table value, several must sum to it exactly."""
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
        return {child: want}
    if sum(cand.values()) == want:
        return cand
    raise DomainError(
        f"cannot split multiplicity {want} at weight {list(lam)} "
        f"among {len(cand)} candidates with bounds {sorted(cand.values())}"
    )


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
    from .cartan import _alpha_pattern
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
            # term / A_{j;orbit,k}, entry by entry
            powers = dict(term.factors)
            for (node, off), v in _alpha_pattern(cd, j):
                key = (node, orbit, k + off)
                powers[key] = powers.get(key, 0) - v
            child = LWeight.from_dict(powers)
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
