"""The block group: loop weights modulo the loop-root lattice.

Classes are written additively in generators ``x[a,k]`` indexed by a
spectral parameter, split into two families ``x+``/``x-`` for D of even
rank.  Each type carries finitely many defining relations, all with
coefficient 1 and even exponent offsets; shifting a relation by any
integer gives another relation.  Each family's first relation, its
division relation, confines exponents to a window below its span.  A
ladder of window images, one rung per generator shift ``(f, t)`` over one
shift period, is built from that relation's recurrence with the type's
structure.  The shifts of the remaining relations span a lattice L,
closed under the window shift.  Every pivot of L is 1, which each
structure checks, so a vector's residue modulo L is the one vector of its
coset that is zero at every pivot key, and that residue is Z-linear.  So
each rung is reduced modulo L once, on first use, and a normal form folds
each exponent modulo the period and adds up reduced rungs: the sum is
already canonical, and no query reads L.
"""

from __future__ import annotations

import re
from collections import deque
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .cartan import CartanData, Frozen, LieType, _alpha_pattern, cartan_data
from .errors import DomainError, ParseError, quote, read_int
from .intlattice import SparseIntSolver
from .lweight import (
    LWeight,
    _json_field,
    _mul_factors,
    check_lweight,
    check_orbit,
    check_param,
    json_int,
    json_str,
)

FamilyExp = Tuple[str, int]
Relation = Tuple[FamilyExp, ...]


def relation_set(cd: CartanData) -> Tuple[Relation, ...]:
    """Defining relations as (family, exponent) tuples, coefficient 1 each.

    The first relation of each family spans that family's reduction
    window; its 0 and top entries act as units, which every listed
    relation satisfies by construction.
    """
    series, n = cd.type.series, cd.rank
    if series == "A":
        return (tuple(("", 2 * r) for r in range(n + 1)),)
    if series == "B":
        return ((("", 0), ("", 4 * n - 2)),)
    if series == "C":
        return ((("", 0), ("", 2 * n + 2)),)
    if series == "D":
        if n % 2:
            return ((("", 0), ("", 2), ("", 2 * n - 2), ("", 2 * n)),)
        return (
            (("+", 0), ("+", 2 * n - 2)),
            (("-", 0), ("-", 2 * n - 2)),
            (("-", 0), ("-", 2), ("+", 2 * n - 2), ("+", 2 * n)),
        )
    exceptional = {
        ("E", 6): ((0, 8, 16), (0, 2, 4, 12, 14, 16)),
        ("E", 7): ((0, 18), (0, 2, 12, 14, 24, 26)),
        ("E", 8): ((0, 30), (0, 20, 40), (0, 12, 24, 36, 48)),
        ("F", 4): ((0, 18), (0, 12, 24)),
        ("G", 2): ((0, 12), (0, 8, 16)),
    }
    return tuple(
        tuple(("", e) for e in exps) for exps in exceptional[(series, n)]
    )


def seed_family(cd: CartanData, i: int) -> str:
    """Family tag of a seed node: +/- for D of even rank, else single."""
    if i not in cd.seed_nodes:
        raise DomainError(f"node {i} is not a seed node of {cd.type}")
    if cd.type.series == "D" and cd.rank % 2 == 0:
        return "+" if i == cd.rank else "-"
    return ""


class _BlockStructure:
    """Per-type reduction data: windows, division relations, the
    shift-closed lattice L, the shift period P and the ladder.

    ``ladder[f][t]``, for t in [0, P), is the window image of the single
    generator shift x_f[t]: the unit (f, t) below the span, and above it
    minus the sum of the earlier rungs t - span + s over the division
    relation's other exponents s.  That is families x P rungs, built with
    the structure.

    L is spanned by the window shifts S^t r of the extra relations r,
    taken for t = 0, 1, ... until a whole round lies in L already; every
    S^s r with s < t then maps to S^{s+1} r in L, so L is closed under S.

    Every pivot of L is 1; the constructor checks it after the period,
    and raises ``ArithmeticError`` otherwise.  So the residue modulo L is
    the vector of the coset that is zero at every pivot key, and the
    residue of a sum is the sum of the residues.  ``rungs[f][t]`` is
    ``ladder[f][t]`` reduced modulo L, taken on first use; where L is 0,
    ``rungs`` is the ladder itself.  ``add_image`` and ``window`` read
    ``rungs``, so once the structure is built they return reduced vectors;
    while it is built, L does not exist yet and they read the ladder.

    ``images`` caches, under a node key (i, t) with t in [0, P), the
    reduced image of the loop generator w[i;.,t], filled on first use and
    dropped with the structure: at most rank x P entries.
    """

    __slots__ = (
        "families", "span", "division", "lattice", "period", "ladder", "rungs", "images"
    )

    def __init__(self, cd: CartanData):
        relations = relation_set(cd)
        self.families: Tuple[str, ...] = tuple(
            sorted({f for rel in relations for f, _ in rel})
        )
        self.span: Dict[str, int] = {}
        self.division: Dict[str, Tuple[int, ...]] = {}
        extras: List[Relation] = []
        for rel in relations:
            fams = {f for f, _ in rel}
            if len(fams) == 1 and (fam := next(iter(fams))) not in self.division:
                exps = tuple(e for _, e in rel)
                self.division[fam] = exps
                self.span[fam] = max(exps)
            else:
                extras.append(rel)
        if set(self.division) != set(self.families) or any(map(min, self.division.values())):
            raise ValueError("each family needs a division relation starting at exponent 0")
        self.period = _shift_period(cd)
        # The rungs and the first round of shifts read exponents up to the
        # relations' own, unfolded.
        if any(e >= self.period for rel in relations for _, e in rel):
            raise ValueError(f"the relations of {cd.type} reach past the shift period")
        self.ladder: Dict[str, List[Tuple[Tuple[FamilyExp, int], ...]]] = {}
        self.rungs: Dict[str, List[Optional[Tuple[Tuple[FamilyExp, int], ...]]]] = self.ladder
        for fam in self.families:
            span = self.span[fam]
            rungs = self.ladder[fam] = [(((fam, t), 1),) for t in range(span)]
            for t in range(span, self.period):
                acc: Dict[FamilyExp, int] = {}
                for s in self.division[fam][:-1]:
                    self.add_image(acc, fam, t - span + s, -1)
                rungs.append(tuple(acc.items()))
        self.images: Dict[Tuple[int, int], Tuple[Tuple[FamilyExp, int], ...]] = {}
        self.lattice = SparseIntSolver()
        shifted = [self.window(dict.fromkeys(rel, 1)) for rel in extras]
        grew = True
        while grew:
            grew = False
            for vec in shifted:
                if vec not in self.lattice:
                    self.lattice.add_column(vec)
                    grew = True
            shifted = [self.window(vec, 1) for vec in shifted]
        # L is closed under S, so S^P fixes every window vector S^e (f, 0)
        # once it fixes each family's (f, 0).
        for fam in self.families:
            moved = self.window(dict(self.ladder[fam][-1]), 1)
            self.add_image(moved, fam, 0, -1)
            if moved not in self.lattice:
                raise ArithmeticError(
                    f"the window shift of {cd.type} does not have period {self.period}"
                )
        basis = self.lattice.basis()
        if any(row[min(row)] != 1 for row in basis):
            raise ArithmeticError(f"the relation lattice of {cd.type} has a pivot other than 1")
        # Reducing every rung here would cost span x pivot chain on large
        # D of even rank; most queries touch few rungs.
        if basis:
            self.rungs = {fam: [None] * self.period for fam in self.families}

    def add_image(self, acc: Dict[FamilyExp, int], fam: str, e: int, c: int) -> None:
        """acc += c times the window image of (fam, e), with e folded
        modulo the period: one rung, reduced modulo L once the structure
        is built."""
        rungs = self.rungs.get(fam)
        if rungs is None:
            raise DomainError(f"unknown family {quote(fam)}")
        slot = e % self.period
        rung = rungs[slot]
        if rung is None:
            rung = rungs[slot] = tuple(self.lattice.residue(dict(self.ladder[fam][slot])).items())
        for key, x in rung:
            t = acc.get(key, 0) + c * x
            if t:
                acc[key] = t
            else:
                del acc[key]

    def node_image(self, cd: CartanData, i: int, t: int) -> Tuple[Tuple[FamilyExp, int], ...]:
        """Fill and return the image of w[i;.,t], 0 <= t < period: the sum
        of the family images of node i's class terms shifted by t, or for a
        seed node the image of its family's unit vector."""
        if i in cd.seed_nodes:
            terms = (((seed_family(cd, i), 0), 1),)
        else:
            terms = _generator_class(cd.type)[i]
        acc: Dict[FamilyExp, int] = {}
        for (fam, e), m in terms:
            self.add_image(acc, fam, e + t, m)
        image = self.images[(i, t)] = tuple(acc.items())
        return image

    def window(self, vec: Dict[FamilyExp, int], shift: int = 0) -> Dict[FamilyExp, int]:
        """The window vector of S^shift vec: the sum of its terms' images."""
        acc: Dict[FamilyExp, int] = {}
        for (fam, e), c in vec.items():
            if c:
                self.add_image(acc, fam, e + shift, c)
        return acc

    def normal_form(self, vec: Dict[FamilyExp, int]) -> Tuple[Tuple[FamilyExp, int], ...]:
        """The canonical terms of vec's class.  Exponents are folded
        modulo the period first, so the cost does not depend on their size.
        A sum of reduced rungs is its own residue, so the terms are sorted only."""
        return tuple(sorted(self.window(vec).items()))


def _shift_period(cd: CartanData) -> int:
    """The period 2·lacing·h∨ of the window shift, found by computation
    on every class type and checked when each type's structure is built."""
    return 2 * cd.lacing * cd.dual_coxeter


@lru_cache(maxsize=None)
def _structure(lt: LieType) -> _BlockStructure:
    return _BlockStructure(cartan_data(lt))


class EllipticCharacter(Frozen):
    """An element of the block group, stored in reduced normal form."""

    __slots__ = ("lie_type", "terms")

    def __init__(self, lie_type: LieType, terms: Tuple[Tuple[Tuple[str, str, int], int], ...]):
        object.__setattr__(self, "lie_type", lie_type)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def make(lt: LieType, raw: Dict[Tuple[str, str, int], int]) -> "EllipticCharacter":
        st = _structure(lt)
        per_orbit: Dict[str, Dict[FamilyExp, int]] = {}
        for (orbit, fam, e), c in raw.items():
            if c:
                st.add_image(per_orbit.setdefault(orbit, {}), fam, e, c)
        return _from_windows(lt, st, per_orbit)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "EllipticCharacter") -> "EllipticCharacter":
        # Canonical terms are reduced window vectors, and the residue is
        # Z-linear: their merged sum is canonical with no new reduction.
        if self.lie_type != other.lie_type:
            raise DomainError("cannot combine classes of different types")
        return EllipticCharacter(self.lie_type, _mul_factors(self.terms, other.terms))

    def __neg__(self) -> "EllipticCharacter":
        return EllipticCharacter(self.lie_type, tuple((key, -c) for key, c in self.terms))

    def __sub__(self, other: "EllipticCharacter") -> "EllipticCharacter":
        return self + (-other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: List[str] = []
        for (orbit, fam, e), c in self.terms:
            body = f"x{fam}[{orbit},{e}]"
            if abs(c) != 1:
                body = f"{abs(c)} {body}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def to_json(self) -> Dict[str, object]:
        return {
            "type": str(self.lie_type),
            "terms": [
                {"orbit": orbit, "family": fam, "exp": e, "coeff": c}
                for (orbit, fam, e), c in self.terms
            ],
        }

    @staticmethod
    def from_json(data: Dict[str, object]) -> "EllipticCharacter":
        lt = LieType.parse(json_str(data, "type"))
        raw: Dict[Tuple[str, str, int], int] = {}
        for entry in _json_field(data, "terms", list, "a list"):
            orbit = check_orbit(json_str(entry, "orbit"))
            key = (orbit, json_str(entry, "family"), json_int(entry, "exp"))
            raw[key] = raw.get(key, 0) + json_int(entry, "coeff")
        return EllipticCharacter.make(lt, raw)


def _from_windows(
    lt: LieType, st: _BlockStructure, per_orbit: Dict[str, Dict[FamilyExp, int]]
) -> EllipticCharacter:
    """The class whose reduced window vector in each orbit is given: one
    sort per orbit, since sums of reduced rungs need no residue."""
    return EllipticCharacter(lt, tuple(
        ((orbit, fam, e), c) for orbit in sorted(per_orbit) for (fam, e), c in sorted(per_orbit[orbit].items())
    ))


_TERM_RE = re.compile(
    r"^(?:(\d+)\s+)?x([+-]?)\[([A-Za-z][A-Za-z0-9_]*),(-?\d+)\]$"
)


def parse_elliptic(lt: LieType, text: str) -> EllipticCharacter:
    """Read a class back from its printed form, e.g. ``x[a,1] - 2 x[a,5]``."""
    body = text.strip()
    if body == "0":
        return EllipticCharacter.make(lt, {})
    chunks = re.split(r"\s+(?=[+-]\s)", body)
    raw: Dict[Tuple[str, str, int], int] = {}
    for i, chunk in enumerate(chunks):
        sign = 1
        if i > 0:
            mark, chunk = chunk[0], chunk[2:]
            sign = -1 if mark == "-" else 1
        elif chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        m = _TERM_RE.match(chunk.strip())
        if m is None:
            raise ParseError(f"cannot parse class term {quote(chunk)}")
        coeff = sign * read_int(m.group(1) or "1")
        key = (m.group(3), m.group(2), read_int(m.group(4)))
        raw[key] = raw.get(key, 0) + coeff
    return EllipticCharacter.make(lt, raw)


def _combine(
    st: _BlockStructure,
    known: Dict[int, Dict[FamilyExp, int]],
    entries: Sequence[Tuple[Tuple[int, int], int]],
    scale: int = 1,
    shift: int = 0,
) -> Dict[FamilyExp, int]:
    """scale * sum of v S^(off + shift) c_l over the entries ((l, off), v),
    as sorted reduced window terms."""
    acc: Dict[FamilyExp, int] = {}
    for (l, off), v in entries:
        for (fam, e), x in known[l].items():
            st.add_image(acc, fam, e + off + shift, scale * v * x)
    return dict(sorted(acc.items()))


def _propagate(cd: CartanData, st: _BlockStructure, known: Dict[int, Dict[FamilyExp, int]]) -> None:
    """Fill in every class that one relation settles.

    A relation settles node u when u is its only unknown node and has a
    single entry ((u, off), v) with v = +-1: then c_u = -v S^(-off) times
    the known part.  Knowing more never blocks a relation, so the nodes
    reached depend only on the classes given, not on the queue order.
    """
    queue = deque(cd.nodes)
    while queue:
        j = queue.popleft()
        pattern = _alpha_pattern(cd, j)
        unknown = [(l, off, v) for (l, off), v in pattern if l not in known]
        if len(unknown) != 1 or abs(unknown[0][2]) != 1:
            continue
        u, off, v = unknown[0]
        rest = [entry for entry in pattern if entry[0][0] != u]
        known[u] = _combine(st, known, rest, -v, -off)
        queue.extend((u,) + cd.neighbors(u))


def _anchor(cd: CartanData) -> Dict[int, Dict[FamilyExp, int]]:
    """The class at exponent 0 of the one node where propagation from the
    seeds stops, on the types where it does: node n - 3 of D_n for odd n,
    and one node each of E6, E7 and E8.  Every other type gets none.

    These are data, not trusted: a class map built from a wrong anchor
    fails the closing check of ``_generator_class``.
    """
    n = cd.rank
    if cd.type.series == "D" and n % 2:
        return {n - 3: {("", 2): 1, ("", 2 * n - 4): -1}}
    return {
        "E6": {4: {("", 11): -1, ("", 13): -1}},
        "E7": {5: {("", 4): 1, ("", 6): 1, ("", 12): -1, ("", 14): -1}},
        "E8": {6: {("", 15): 1, ("", 17): 1, ("", 23): -1, ("", 25): -2, ("", 27): -1}},
    }.get(str(cd.type), {})


@lru_cache(maxsize=None)
def _generator_class(lt: LieType) -> Mapping[int, Tuple[Tuple[FamilyExp, int], ...]]:
    """Classes of the non-seed generators at exponent 0, as window terms.

    The class map sends ``w[l;a,k]`` to ``S^k c_l``, where ``S`` is the
    window shift and each seed's ``c`` is its unit vector.  It must send
    every simple loop root into the shift-closed lattice ``L``: for each
    node ``j``, the pattern of ``alpha_j`` read as a sum of ``v S^off c_l``
    lies in ``L``.  The seed generators span the block group, so the map
    is unique modulo ``L``, and since ``S^P = 1`` modulo ``L`` every shift
    is taken modulo the period ``P``.

    The classes are found along the Dynkin diagram, outward from the
    seeds: a relation whose only unknown node has one entry ``v = +-1``
    gives that node's class directly.  A, B, C, D of even rank, F4 and G2
    need nothing more.  On D of odd rank and E6-E8 propagation gets stuck
    once, so it starts from the seeds plus the class of that one node,
    ``_anchor``.  If the nodes reached are not all of them,
    ``ArithmeticError`` names the type.  Last, every ``alpha_j`` is checked
    to map into ``L``: the classes are sums of reduced rungs, so that is
    whether its sum is 0.  If one does not, ``ArithmeticError`` names the
    type and the node.  A map that passes is the map, since it is unique,
    so a wrong anchor cannot pass.

    The result is read-only, since every later class of the type uses it.
    """
    cd, st = cartan_data(lt), _structure(lt)
    known = {i: {(seed_family(cd, i), 0): 1} for i in cd.seed_nodes}
    for u, terms in _anchor(cd).items():
        known[u] = dict(st.normal_form(terms))
    _propagate(cd, st, known)
    if len(known) < cd.rank:
        raise ArithmeticError(f"propagation from the seeds of {lt} does not reach every node")
    for j in cd.nodes:
        if _combine(st, known, _alpha_pattern(cd, j)):
            raise ArithmeticError(f"the class map of {lt} sends alpha_{j} outside L")
    return MappingProxyType({l: tuple(known[l].items()) for l in cd.nodes if l not in cd.seed_nodes})


def _add_class(
    cd: CartanData, st: _BlockStructure, per_orbit: Dict[str, Dict[FamilyExp, int]],
    pi: LWeight, sign: int,
) -> None:
    """Add sign times pi's class to the window vectors, one per orbit: per
    factor w[i;a,k]^p, one lookup of the cached image of w[i;.,k mod P]
    and one merge of p times it, with no normal form between."""
    images, period = st.images, st.period
    for (i, a, k), p in pi.factors:
        t = k % period
        image = images.get((i, t))
        if image is None:
            image = st.node_image(cd, i, t)
        acc = per_orbit.setdefault(a, {})
        c = sign * p
        for key, x in image:
            v = acc.get(key, 0) + c * x
            if v:
                acc[key] = v
            else:
                del acc[key]


def elliptic_class(cd: CartanData, pi: LWeight) -> EllipticCharacter:
    """The class of a loop weight in the block group."""
    check_lweight(cd, pi)
    st, per_orbit = _structure(cd.type), {}
    _add_class(cd, st, per_orbit, pi, 1)
    return _from_windows(cd.type, st, per_orbit)


def classes_equal(chi1: EllipticCharacter, chi2: EllipticCharacter) -> bool:
    if chi1.lie_type != chi2.lie_type:
        raise DomainError("cannot compare classes of different types")
    return chi1.terms == chi2.terms


def blocks_linked(cd: CartanData, w1: LWeight, w2: LWeight) -> bool:
    """Whether two dominant loop weights label the same block: whether
    the window vector of w1's class minus w2's lies in L in every orbit.
    The vectors are sums of reduced rungs, so that is whether each is empty."""
    if not (w1.is_dominant and w2.is_dominant):
        raise DomainError("linkage is a question about dominant loop weights")
    check_lweight(cd, w1)
    check_lweight(cd, w2)
    st, per_orbit = _structure(cd.type), {}
    _add_class(cd, st, per_orbit, w1, 1)
    _add_class(cd, st, per_orbit, w2, -1)
    return not any(per_orbit.values())


def tensor_class(chi1: EllipticCharacter, chi2: EllipticCharacter) -> EllipticCharacter:
    """Class of a tensor product: the sum of the factor classes."""
    return chi1 + chi2


def trivial_sets(
    cd: CartanData, orbit: str = "a", exp: int = 0
) -> Tuple[Tuple[str, LWeight], ...]:
    """Labelled minimal generator products lying in the trivial block.

    Each entry is (label, dominant loop weight); the loop weight always
    decomposes as a nonnegative product of simple loop roots, which the
    verification suite certifies.
    """
    check_param((orbit, exp))
    n = cd.rank
    sets: List[Tuple[str, Tuple[Tuple[int, int], ...]]]
    if cd.type.series == "D" and n % 2 == 0:
        sets = [
            ("+", ((n, 0), (n, 2 * n - 2))),
            ("-", ((n - 1, 0), (n - 1, 2 * n - 2))),
            ("0", ((n - 1, 2 * n - 2), (n - 1, 2 * n), (n, 0), (n, 2))),
        ]
    else:
        sets = [
            (str(k + 1), tuple((cd.seed_nodes[0], e) for _, e in rel))
            for k, rel in enumerate(relation_set(cd))
        ]
    out = []
    for label, factors in sets:
        pi = LWeight.from_dict({(node, orbit, exp + e): 1 for node, e in factors})
        out.append((label, pi))
    return tuple(out)
