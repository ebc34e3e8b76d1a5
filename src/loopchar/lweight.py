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
from collections import deque
from itertools import repeat
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .cartan import CartanData, Frozen
from .errors import DomainError, ParseError, check_size, quote, read_int

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
    if type(orbit) is not str or not _ORBIT_RE.fullmatch(orbit):
        raise DomainError(f"invalid orbit name {quote(orbit)}")
    return orbit


def check_param(p: SpectralParam) -> SpectralParam:
    """The spectral parameter p as an (orbit, exp) tuple, or DomainError.

    The orbit must be a valid orbit name and the exponent a plain int:
    bool is an int subclass, and a float or string exponent would reach
    ``k + exp`` as silent non-integer exponents or a bare TypeError.
    """
    try:
        orbit, exp = p
    except (TypeError, ValueError):
        raise DomainError(f"spectral parameter must be an (orbit, exp) pair, got {p!r}")
    check_orbit(orbit)
    if type(exp) is not int:
        raise DomainError(f"spectral exponent must be an integer, got {exp!r}")
    return orbit, exp


def _check_offset(offset: int) -> None:
    # bool is an int subclass: True would shift by 1.
    if type(offset) is not int:
        raise DomainError(f"shift offset must be an integer, got {offset!r}")


class LWeight(Frozen):
    """An element of the loop-weight lattice, stored as sorted factors."""

    __slots__ = ("factors",)

    def __init__(self, factors: Factors):
        object.__setattr__(self, "factors", factors)

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
        # bool is an int subclass: True would raise to the power 1.
        if type(n) is not int:
            raise DomainError(f"loop weight exponent must be an integer, got {n!r}")
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

    def shift(self, offset: int) -> "LWeight":
        """Shift every spectral parameter exponent by ``offset``; the key
        order is kept, so the factors stay sorted without a sort."""
        _check_offset(offset)
        return LWeight(tuple(((i, a, k + offset), p) for (i, a, k), p in self.factors))

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


# The slot's own setter, which LWeight.__init__ reaches through
# object.__setattr__ (Frozen.__setattr__ refuses every assignment).
_SET_FACTORS = LWeight.factors.__set__


def _lweights(factors: Sequence[Factors]) -> List[LWeight]:
    """``[LWeight(f) for f in factors]``, with no Python frame per weight.

    Each object comes from ``object.__new__`` and gets its one slot from
    the slot's setter, which is all that ``LWeight.__init__`` does: no
    check is skipped, and the weights compare, hash, pickle and refuse
    assignment as any other.
    """
    weights = list(map(object.__new__, repeat(LWeight, len(factors))))
    deque(map(_SET_FACTORS, weights, factors), maxlen=0)
    return weights


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
                raise ParseError(f"unexpected '*' at position {pos} in {quote(text)}")
            expect_factor = True
            pos += 1
            continue
        m = _FACTOR_RE.match(s, pos)
        if m is None:
            raise ParseError(f"expected w[node;orbit,exp] at position {pos} in {quote(text)}")
        node = read_int(m.group(1))
        if node < 1:
            raise ParseError(f"node index must be positive in {quote(text)}")
        exp = 0 if m.group(3) is None else read_int(m.group(3))
        key = (node, m.group(2), exp)
        p = 1 if m.group(4) is None else read_int(m.group(4))
        powers[key] = powers.get(key, 0) + p
        pos = m.end()
        expect_factor = False
    if expect_factor:
        raise ParseError(f"dangling '*' in {quote(text)}")
    return LWeight.from_dict(powers)


def check_lweight(cd: CartanData, pi: LWeight) -> LWeight:
    """Raise DomainError naming the first bad factor of pi, if any: a
    node out of range, or an exponent or power that is not a plain int.

    The test of ``CartanData.check_nodes``, run on the factors in place:
    building their node list first made the check two to three times
    slower on the one- to three-factor weights of the hot paths.
    ``LWeight.from_dict`` takes keys as given, so a float or bool exponent
    would otherwise reach the class and braid maps as a silent non-integer.
    """
    rank = cd.rank
    for (i, a, k), p in pi.factors:
        if type(i) is not int or not 1 <= i <= rank or type(k) is not int or type(p) is not int:
            cd.check_node(i)
            raise DomainError(f"factor w[{i};{a},{k!r}]^{p!r} needs an integer exponent and power")
    return pi


def fundamental_lweight(cd: CartanData, i: int, orbit: str = "a", exp: int = 0) -> LWeight:
    cd.check_node(i)
    check_param((orbit, exp))
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
    check_lweight(cd, pi)
    offset = cd.lacing * cd.dual_coxeter
    powers: Dict[GenKey, int] = {}
    for (i, a, k), p in pi.factors:
        powers[(cd.w0_node(i), a, k + offset)] = p
    return LWeight.from_dict(powers)


def weight_of(cd: CartanData, pi: LWeight) -> Tuple[int, ...]:
    """Project to the weight lattice in fundamental coordinates."""
    check_lweight(cd, pi)
    coords = [0] * cd.rank
    for (i, _, _), p in pi.factors:
        coords[i - 1] += p
    return tuple(coords)


class LCharacter(Frozen):
    """A finite multiset of loop weights with positive multiplicities."""

    __slots__ = ("terms",)

    def __init__(self, terms: Tuple[Tuple[LWeight, int], ...]):
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_dict(terms: Dict[LWeight, int]) -> "LCharacter":
        if any(type(m) is not int or m < 0 for m in terms.values()):
            raise DomainError("character multiplicities must be positive integers")
        items = [(pi, m) for pi, m in terms.items() if m]
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
        """The term-by-term product, refused through ``check_size`` before
        any term pair is multiplied: the output holds at most |terms of y|
        times the factors of x's terms plus |terms of x| times those of y's.

        The kernel is in ``_charmul``, loaded by the first product, since
        every cold CLI process compiles this module and most multiply no
        characters.
        """
        from ._charmul import _multiply_terms

        x, y = self.terms, other.terms
        check_size(
            len(y) * sum(len(pi.factors) for pi, _ in x)
            + len(x) * sum(len(pi.factors) for pi, _ in y),
            "the factors of a character product",
        )
        return LCharacter(_multiply_terms(x, y))

    def shift(self, offset: int, orbit: Optional[str] = None) -> "LCharacter":
        """Every exponent moved by ``offset`` and, for a character on one
        orbit, that orbit renamed to ``orbit`` if given; renaming a
        character on several orbits is a DomainError, and so is an offset
        that is not a plain int or an invalid orbit name.
        """
        _check_offset(offset)
        if orbit is not None:
            check_orbit(orbit)
        return ShiftPlan(self).apply(offset, orbit)

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


class _Slots(dict):
    """Numbers each key by its first lookup, in one hashing pass."""

    def __missing__(self, key: object) -> int:
        n = self[key] = len(self)
        return n


class ShiftPlan:
    """A character as its distinct factors and, per term, a getter of them.

    A character holds few distinct (key, power) factors next to its factor
    count: 32 against 72 for E6 node 1, 56 against 512 for D8 node 8.  So
    the spectral shift translates each distinct factor once and builds
    every term's factors by one C-level gather from the translated ones:
    an ``itemgetter`` of the term's positions among them, called on their
    tuple, returns the term's factor tuple.
    """

    __slots__ = ("pairs", "getters", "mults", "orbit_count")

    def __init__(self, char: LCharacter):
        terms = char.terms
        slots = _Slots()
        slot = slots.__getitem__
        self.getters = tuple(_gather(tuple(map(slot, pi.factors))) for pi, _ in terms)
        self.pairs = pairs = tuple(slots)
        self.mults = tuple(m for _, m in terms)
        self.orbit_count = len({a for (_, a, _), _ in pairs})

    def apply(self, offset: int, orbit: Optional[str] = None) -> LCharacter:
        """The character with every exponent moved by ``offset`` and, if
        given, its one orbit renamed to ``orbit``.

        Both maps keep the factor order within each term and the order of
        the terms, so the result is built directly, without a sort.  A
        rename on several orbits could merge or reorder terms, so it is
        refused before anything is translated.
        """
        if orbit is None:
            moved = tuple([((i, a, k + offset), p) for (i, a, k), p in self.pairs])
        elif self.orbit_count > 1:
            raise DomainError(
                f"cannot rename the {self.orbit_count} orbits of a character to {orbit!r}"
            )
        else:
            moved = tuple([((i, orbit, k + offset), p) for (i, _, k), p in self.pairs])
        weights = _lweights([get(moved) for get in self.getters])
        return LCharacter(tuple(zip(weights, self.mults)))


def _gather(positions: Tuple[int, ...]) -> itemgetter:
    """A getter of the entries of a tuple at ``positions``, as a tuple.

    ``itemgetter`` of one position returns the bare entry and needs at
    least one, so 0 or 1 positions take a slice getter instead.
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    j = positions[0] if positions else 0
    return itemgetter(slice(j, j + len(positions)))
