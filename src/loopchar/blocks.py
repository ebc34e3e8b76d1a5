"""The block group: loop weights modulo the loop-root lattice.

Classes are written additively in generators ``x[a,k]`` indexed by a
spectral parameter, split into two families ``x+``/``x-`` for D of even
rank.  Each type carries finitely many defining relations, all with
coefficient 1 and even exponent offsets; shifting a relation by any
integer gives another relation.  Normal forms confine exponents to a
window below the first relation's span and then reduce against the
closure of the remaining relations under exponent shift.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Dict, List, Tuple

from .cartan import CartanData, Frozen, LieType, cartan_data
from .errors import DomainError, ParseError
from .intlattice import SparseIntSolver
from .lweight import LWeight, _json_field, check_orbit, json_int, json_str
from .braid import _alpha_pattern

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
    """Per-type reduction data: windows, division relations, shift closure."""

    __slots__ = ("families", "span", "division", "lattice")

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
        self.lattice = SparseIntSolver()
        for n, rel in enumerate(extras):
            self.lattice.add_column(n, self.reduce({fe: 1 for fe in rel}))
        # Close L under the exponent shift.  The shift map is unimodular,
        # so one-sided closure suffices.
        n, grew = len(extras), True
        while grew:
            grew = False
            for row in self.lattice.basis():
                shifted = self.reduce({(fam, e + 1): c for (fam, e), c in row.items()})
                if shifted not in self.lattice:
                    self.lattice.add_column(n, shifted)
                    n, grew = n + 1, True

    def reduce(self, vec: Dict[FamilyExp, int]) -> Dict[FamilyExp, int]:
        """Confine every exponent to [0, span) using the division relations."""
        work = {fe: c for fe, c in vec.items() if c}
        for (fam, _e) in vec:
            if fam not in self.span:
                raise DomainError(f"unknown family {fam!r}")
        while True:
            over = [
                (f, e) for (f, e) in work if e >= self.span[f] or e < 0
            ]
            if not over:
                return work
            fam, e = max(over, key=lambda fe: (fe[1] >= self.span[fe[0]], abs(fe[1])))
            c = work.pop((fam, e))
            span = self.span[fam]
            if e >= span:
                for s in self.division[fam][:-1]:
                    key = (fam, e - span + s)
                    t = work.get(key, 0) - c
                    if t:
                        work[key] = t
                    else:
                        work.pop(key, None)
            else:
                for s in self.division[fam][1:]:
                    key = (fam, e + s)
                    t = work.get(key, 0) - c
                    if t:
                        work[key] = t
                    else:
                        work.pop(key, None)

    def normal_form(self, vec: Dict[FamilyExp, int]) -> Tuple[Tuple[FamilyExp, int], ...]:
        return tuple(sorted(self.lattice.residue(self.reduce(vec)).items()))


@lru_cache(maxsize=None)
def _structure(lt: LieType) -> _BlockStructure:
    return _BlockStructure(cartan_data(lt))


class EllipticCharacter(Frozen):
    """An element of the block group, stored in reduced normal form."""

    __slots__ = ("lie_type", "terms")

    def __init__(self, lie_type: LieType, terms: Tuple[Tuple[Tuple[str, str, int], int], ...]):
        object.__setattr__(self, "lie_type", lie_type)
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lie_type, self.terms) == (other.lie_type, other.terms)

    def __hash__(self) -> int:
        return hash((self.lie_type, self.terms))

    def __repr__(self) -> str:
        return f"EllipticCharacter(lie_type={self.lie_type!r}, terms={self.terms!r})"

    @staticmethod
    def make(lt: LieType, raw: Dict[Tuple[str, str, int], int]) -> "EllipticCharacter":
        per_orbit: Dict[str, Dict[FamilyExp, int]] = {}
        for (orbit, fam, e), c in raw.items():
            if c:
                fe = (fam, e)
                sub = per_orbit.setdefault(orbit, {})
                sub[fe] = sub.get(fe, 0) + c
        st = _structure(lt)
        terms: List[Tuple[Tuple[str, str, int], int]] = []
        for orbit in sorted(per_orbit):
            for (fam, e), c in st.normal_form(per_orbit[orbit]):
                terms.append(((orbit, fam, e), c))
        return EllipticCharacter(lt, tuple(sorted(terms)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _raw(self) -> Dict[Tuple[str, str, int], int]:
        return dict(self.terms)

    def __add__(self, other: "EllipticCharacter") -> "EllipticCharacter":
        if self.lie_type != other.lie_type:
            raise DomainError("cannot combine classes of different types")
        raw = self._raw()
        for key, c in other.terms:
            raw[key] = raw.get(key, 0) + c
        return EllipticCharacter.make(self.lie_type, raw)

    def __neg__(self) -> "EllipticCharacter":
        return EllipticCharacter.make(
            self.lie_type, {key: -c for key, c in self.terms}
        )

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
            raise ParseError(f"cannot parse class term {chunk!r}")
        coeff = sign * int(m.group(1) or 1)
        key = (m.group(3), m.group(2), int(m.group(4)))
        raw[key] = raw.get(key, 0) + coeff
    return EllipticCharacter.make(lt, raw)


@lru_cache(maxsize=None)
def _generator_class(lt: LieType) -> Dict[int, Tuple[Tuple[FamilyExp, int], ...]]:
    """Classes of the non-seed generators at exponent 0, as window terms.

    The class map sends ``w[l;a,k]`` to ``S^k c_l``, where ``S`` is the
    window shift and each seed's ``c`` is its unit vector.  It must send
    every simple loop root into the shift-closed lattice ``L``, so for
    each node ``j`` the pattern of ``alpha_j``, read as a sum of
    ``v S^off c_l``, is required to lie in ``L``.  One integer solve over
    all nodes at once finds the remaining ``c_l``; the seed generators
    span the block group, so the answer is unique modulo ``L``.
    """
    cd, st = cartan_data(lt), _structure(lt)
    seeds = {i: (seed_family(cd, i), 0) for i in cd.seed_nodes}
    window = [(fam, e) for fam in st.families for e in range(st.span[fam])]
    solver = SparseIntSolver()
    columns: Dict[Tuple[int, FamilyExp], Dict[Tuple[int, FamilyExp], int]] = {}
    target: Dict[Tuple[int, FamilyExp], int] = {}
    for j in cd.nodes:
        for (l, off), v in _alpha_pattern(cd, j):
            # A seed's class is known, so its part goes to the right-hand side.
            for fam, e in [seeds[l]] if l in seeds else window:
                vec = target if l in seeds else columns.setdefault((l, (fam, e)), {})
                for fe, x in st.reduce({(fam, e + off): 1}).items():
                    vec[(j, fe)] = vec.get((j, fe), 0) + v * x
        for b, row in enumerate(st.lattice.basis()):
            solver.add_column(("L", j, b), {(j, fe): x for fe, x in row.items()})
    for key, vec in columns.items():
        solver.add_column(key, vec)
    combo = solver.solve({key: -x for key, x in target.items()})
    if combo is None:
        raise ArithmeticError(f"no class map for {lt}: the loop-root system is unsolvable")
    return {
        l: st.normal_form({fe: combo.get((l, fe), 0) for fe in window})
        for l in cd.nodes
        if l not in seeds
    }


def elliptic_class(cd: CartanData, pi: LWeight) -> EllipticCharacter:
    """The class of a loop weight in the block group."""
    raw: Dict[Tuple[str, str, int], int] = {}
    for (i, a, k), p in pi.factors:
        cd.check_node(i)
        if i in cd.seed_nodes:
            gen = (((seed_family(cd, i), 0), 1),)
        else:
            gen = _generator_class(cd.type)[i]
        for (fam, e), m in gen:
            key = (a, fam, e + k)
            raw[key] = raw.get(key, 0) + p * m
    return EllipticCharacter.make(cd.type, raw)


def classes_equal(chi1: EllipticCharacter, chi2: EllipticCharacter) -> bool:
    if chi1.lie_type != chi2.lie_type:
        raise DomainError("cannot compare classes of different types")
    return chi1.terms == chi2.terms


def blocks_linked(cd: CartanData, w1: LWeight, w2: LWeight) -> bool:
    """Whether two dominant loop weights label the same block."""
    if not (w1.is_dominant and w2.is_dominant):
        raise DomainError("linkage is a question about dominant loop weights")
    return classes_equal(elliptic_class(cd, w1), elliptic_class(cd, w2))


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
    check_orbit(orbit)
    series, n = cd.type.series, cd.rank
    sets: List[Tuple[str, Tuple[Tuple[int, int], ...]]]
    if series == "A":
        sets = [("1", tuple((1, 2 * r) for r in range(n + 1)))]
    elif series == "B":
        sets = [("1", ((n, 0), (n, 4 * n - 2)))]
    elif series == "C":
        sets = [("1", ((1, 0), (1, 2 * n + 2)))]
    elif series == "D" and n % 2:
        sets = [("1", ((n, 0), (n, 2), (n, 2 * n - 2), (n, 2 * n)))]
    elif series == "D":
        sets = [
            ("+", ((n, 0), (n, 2 * n - 2))),
            ("-", ((n - 1, 0), (n - 1, 2 * n - 2))),
            ("0", ((n - 1, 2 * n - 2), (n - 1, 2 * n), (n, 0), (n, 2))),
        ]
    else:
        sets = [
            (str(k + 1), tuple((1, e) for _, e in rel))
            for k, rel in enumerate(relation_set(cd))
        ]
    out = []
    for label, factors in sets:
        pi = LWeight.from_dict({(node, orbit, exp + e): 1 for node, e in factors})
        out.append((label, pi))
    return tuple(out)
