"""Loop weights: monomials in generators indexed by node and spectral parameter.

A spectral parameter is a pair (orbit, exp) naming the point a*q^exp,
where ``orbit`` is a formal symbol and q is generic, so two parameters
are comparable exactly when their orbits coincide.  A loop weight is a
finite product of generators ``w[i;a,k]`` with integer powers; the text
grammar accepts products joined by ``*`` (or whitespace) with optional
``^power``, and ``1`` denotes the identity.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Dict, Iterator, List, Tuple

from .cartan import CartanData, Frozen
from .errors import DomainError, ParseError

SpectralParam = Tuple[str, int]
GenKey = Tuple[int, str, int]
Factors = Tuple[Tuple[GenKey, int], ...]

# Sort key for (key, value) pairs whose keys are unique: the order is that
# of the pairs, and each comparison looks one tuple level less deep.
_BY_KEY = itemgetter(0)

_ORBIT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_FACTOR_RE = re.compile(
    r"w\[\s*(\d+)\s*;\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:,\s*(-?\d+)\s*)?\]"
    r"(?:\s*\^\s*(-?\d+))?"
)


def check_orbit(orbit: str) -> str:
    if not _ORBIT_RE.fullmatch(orbit):
        raise DomainError(f"invalid orbit name {orbit!r}")
    return orbit


class LWeight(Frozen):
    """An element of the loop-weight lattice, stored as sorted factors."""

    __slots__ = ("factors",)

    def __init__(self, factors: Factors):
        object.__setattr__(self, "factors", factors)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.factors,))

    def __repr__(self) -> str:
        return f"LWeight(factors={self.factors!r})"

    @staticmethod
    def from_dict(powers: Dict[GenKey, int]) -> "LWeight":
        if 0 in powers.values():
            powers = {k: p for k, p in powers.items() if p}
        return LWeight(tuple(sorted(powers.items())))

    @staticmethod
    def identity() -> "LWeight":
        return LWeight(())

    def to_dict(self) -> Dict[GenKey, int]:
        return dict(self.factors)

    def __mul__(self, other: "LWeight") -> "LWeight":
        return LWeight(_mul_factors(self.factors, other.factors))

    def inverse(self) -> "LWeight":
        return LWeight(tuple((k, -p) for k, p in self.factors))

    def __pow__(self, n: int) -> "LWeight":
        if n == 0:
            return LWeight.identity()
        base = self if n > 0 else self.inverse()
        return LWeight(tuple((k, p * abs(n)) for k, p in base.factors))

    @property
    def is_identity(self) -> bool:
        return not self.factors

    @property
    def is_dominant(self) -> bool:
        return all(p > 0 for _, p in self.factors)

    def nodes(self) -> Iterator[int]:
        seen = set()
        for (i, _, _), _p in self.factors:
            if i not in seen:
                seen.add(i)
                yield i

    def shift(self, offset: int) -> "LWeight":
        """Shift every spectral parameter exponent by ``offset``."""
        return LWeight(
            tuple((((i, a, k + offset), p)) for (i, a, k), p in self.factors)
        )

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for (i, a, k), p in self.factors:
            s = f"w[{i};{a},{k}]"
            if p != 1:
                s += f"^{p}"
            parts.append(s)
        return "*".join(parts)

    def to_json(self) -> Dict[str, object]:
        return {
            "factors": [
                {"node": i, "orbit": a, "exp": k, "power": p}
                for (i, a, k), p in self.factors
            ]
        }

    @staticmethod
    def from_json(data: Dict[str, object]) -> "LWeight":
        powers: Dict[GenKey, int] = {}
        for entry in _json_field(data, "factors", list, "a list"):
            node = json_int(entry, "node")
            if node < 1:
                raise ParseError(f"node index must be positive, got {node}")
            key = (node, check_orbit(json_str(entry, "orbit")), json_int(entry, "exp"))
            powers[key] = powers.get(key, 0) + json_int(entry, "power")
        return LWeight.from_dict(powers)


def _mul_factors(f: Factors, g: Factors) -> Factors:
    """The sorted factors of a product, from the sorted factors of each side.

    With disjoint keys the result is the two sorted runs merged, which the
    sort does in linear time; otherwise shared keys add, and zeros drop.
    The disjointness test stops at the first shared key.
    """
    powers = dict(f)
    if powers.keys().isdisjoint(map(_BY_KEY, g)):
        return tuple(sorted(f + g, key=_BY_KEY))
    for k, p in g:
        c = powers.get(k, 0) + p
        if c:
            powers[k] = c
        else:
            del powers[k]
    return tuple(sorted(powers.items(), key=_BY_KEY))


def _json_field(entry: Dict[str, object], field: str, kind: type, noun: str) -> object:
    if type(entry) is not dict:
        raise ParseError(f"expected a JSON object, got {entry!r}")
    if field not in entry:
        raise ParseError(f"missing field {field!r} in {entry!r}")
    value = entry[field]
    if type(value) is not kind:
        raise ParseError(f"{field} is not {noun}: {value!r}")
    return value


def json_int(entry: Dict[str, object], field: str) -> int:
    """An integer field of a JSON record, taken as is.

    bool is an int subclass, and int() would truncate floats and coerce
    strings, so anything but a plain int is a ParseError.
    """
    return _json_field(entry, field, int, "an integer")


def json_str(entry: Dict[str, object], field: str) -> str:
    """A string field of a JSON record, taken as is.

    str() would turn any value into some string, so anything but a plain
    string is a ParseError.
    """
    return _json_field(entry, field, str, "a string")


def parse_lweight(text: str) -> LWeight:
    """Parse the ``w[i;a,k]^p * ...`` grammar; ``1`` is the identity."""
    s = text.strip()
    if s == "1":
        return LWeight.identity()
    powers: Dict[GenKey, int] = {}
    pos = 0
    expect_factor = True
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        if s[pos] == "*":
            if expect_factor:
                raise ParseError(f"unexpected '*' at position {pos} in {text!r}")
            expect_factor = True
            pos += 1
            continue
        m = _FACTOR_RE.match(s, pos)
        if m is None:
            raise ParseError(f"expected w[node;orbit,exp] at position {pos} in {text!r}")
        node = int(m.group(1))
        if node < 1:
            raise ParseError(f"node index must be positive in {text!r}")
        exp = 0 if m.group(3) is None else int(m.group(3))
        key = (node, m.group(2), exp)
        p = 1 if m.group(4) is None else int(m.group(4))
        powers[key] = powers.get(key, 0) + p
        pos = m.end()
        expect_factor = False
    if expect_factor:
        raise ParseError(f"dangling '*' in {text!r}")
    return LWeight.from_dict(powers)


def check_lweight(cd: CartanData, pi: LWeight) -> LWeight:
    """Raise DomainError naming the first out-of-range node of pi, if any.

    Factors are sorted by node, so the two ends decide whether to look.
    """
    f = pi.factors
    if f and not (f[0][0][0] >= 1 and f[-1][0][0] <= cd.rank):
        for i in pi.nodes():
            cd.check_node(i)
    return pi


def fundamental_lweight(cd: CartanData, i: int, orbit: str = "a", exp: int = 0) -> LWeight:
    cd.check_node(i)
    check_orbit(orbit)
    return LWeight(((((i, orbit, exp)), 1),))


def dual_lweight(cd: CartanData, pi: LWeight) -> LWeight:
    """The loop weight of the dual module.

    Node i receives the node w0(i) factors with every spectral exponent
    shifted by lacing times the dual Coxeter number.  The uniform shift
    (rather than a per-node d_i scaling) is forced by the twist identity
    tested in the braid module.
    """
    if not pi.is_dominant:
        raise DomainError("dual is defined for dominant loop weights")
    offset = cd.lacing * cd.dual_coxeter
    powers: Dict[GenKey, int] = {}
    for (i, a, k), p in pi.factors:
        cd.check_node(i)
        powers[(cd.w0_node(i), a, k + offset)] = p
    return LWeight.from_dict(powers)


def weight_of(cd: CartanData, pi: LWeight) -> Tuple[int, ...]:
    """Project to the weight lattice in fundamental coordinates."""
    coords = [0] * cd.rank
    for (i, _, _), p in pi.factors:
        cd.check_node(i)
        coords[i - 1] += p
    return tuple(coords)


class LCharacter(Frozen):
    """A finite multiset of loop weights with positive multiplicities."""

    __slots__ = ("terms",)

    def __init__(self, terms: Tuple[Tuple[LWeight, int], ...]):
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.terms,))

    def __repr__(self) -> str:
        return f"LCharacter(terms={self.terms!r})"

    @staticmethod
    def from_dict(terms: Dict[LWeight, int]) -> "LCharacter":
        items = [(pi, m) for pi, m in terms.items() if m]
        if any(m < 0 for _, m in items):
            raise DomainError("character multiplicities must be positive")
        return LCharacter(tuple(sorted(items, key=lambda t: t[0].factors)))

    @staticmethod
    def single(pi: LWeight) -> "LCharacter":
        return LCharacter(((pi, 1),))

    def to_dict(self) -> Dict[LWeight, int]:
        return dict(self.terms)

    @property
    def dimension(self) -> int:
        return sum(m for _, m in self.terms)

    def multiplicity(self, pi: LWeight) -> int:
        for t, m in self.terms:
            if t == pi:
                return m
        return 0

    def __add__(self, other: "LCharacter") -> "LCharacter":
        terms = self.to_dict()
        for pi, m in other.terms:
            terms[pi] = terms.get(pi, 0) + m
        return LCharacter.from_dict(terms)

    def __mul__(self, other: "LCharacter") -> "LCharacter":
        # Keyed on factor tuples, so no LWeight is built or hashed per
        # product; sorting by the unique keys gives from_dict's order.
        terms: Dict[Factors, int] = {}
        for pi, m in self.terms:
            f = pi.factors
            for tau, l in other.terms:
                key = _mul_factors(f, tau.factors)
                terms[key] = terms.get(key, 0) + m * l
        items = [(key, m) for key, m in sorted(terms.items(), key=_BY_KEY) if m]
        if any(m < 0 for _, m in items):
            raise DomainError("character multiplicities must be positive")
        return LCharacter(tuple((LWeight(key), m) for key, m in items))

    def shift(self, offset: int) -> "LCharacter":
        return LCharacter.from_dict({pi.shift(offset): m for pi, m in self.terms})

    def text(self) -> str:
        return "\n".join(f"{m} * {pi}" for pi, m in self.terms)

    def to_json(self) -> Dict[str, object]:
        return {
            "terms": [{"lweight": str(pi), "mult": m} for pi, m in self.terms],
            "dimension": self.dimension,
        }

    @staticmethod
    def from_json(data: Dict[str, object]) -> "LCharacter":
        terms: Dict[LWeight, int] = {}
        for entry in _json_field(data, "terms", list, "a list"):
            pi = parse_lweight(json_str(entry, "lweight"))
            terms[pi] = terms.get(pi, 0) + json_int(entry, "mult")
        return LCharacter.from_dict(terms)
