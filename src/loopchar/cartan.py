"""Cartan data for the finite simple Lie types.

Nodes are labelled 1..n.  The classical series are chains in the usual
order (for D the last node hangs off node n-2); the exceptional types
are chains with one branch node, numbered so that node 1 carries the
smallest fundamental representation: E6 branches at 3, E7 at 4, E8 at
5.  Symmetrizers are normalized so that min(d_i) = 1, which makes the
short simple roots the ones with d_i = 1.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import attrgetter
from typing import Sequence, Tuple, Union

from .errors import DomainError, ParseError, check_size, quote, read_int

# A weight, or any vector indexed by the nodes 1..n, as a tuple.
Weight = Tuple[int, ...]

_TYPE_RE = re.compile(r"^([A-G])(\d+)$")

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class Frozen:
    """Base of the immutable value classes.

    Subclasses list their fields in ``__slots__`` and set each one once,
    in ``__init__``, through ``object.__setattr__``.  Two values are equal
    when they have the same class and equal fields; the hash is that of
    the fields, and the repr is ``Name(field=value, ...)`` in slot order.
    A plain class costs nothing to define, where ``dataclasses`` pulls in
    ``inspect`` and ``ast`` on every cold start.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A C-level getter of the slot values, for equality and hashing.
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # __init__ takes the fields in slot order; pickle and copy use this.
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class LieType(Frozen):
    __slots__ = ("series", "rank")

    def __init__(self, series: str, rank: int):
        # Checked before any cache: True == 1 and hashes alike, so
        # LieType("A", True) would fill the entry of A1 and print as "ATrue".
        if type(series) is not str:
            raise DomainError(f"series must be a string, got {quote(series)}")
        if type(rank) is not int:
            raise DomainError(f"rank must be an integer, got {quote(rank)}")
        bounds = _RANK_BOUNDS.get(series)
        if bounds is None:
            raise DomainError(f"unknown series {series!r}")
        lo, hi = bounds
        if rank < lo or (hi is not None and rank > hi):
            raise DomainError(f"rank {quote(rank)} out of range for series {series}")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "rank", rank)

    @staticmethod
    def parse(text: str) -> "LieType":
        m = _TYPE_RE.match(text.strip())
        if m is None:
            raise ParseError(f"cannot parse Lie type {quote(text)}")
        return LieType(m.group(1), read_int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def _edges(series: str, n: int) -> Tuple[Tuple[int, int], ...]:
    chain = tuple((i, i + 1) for i in range(1, n))
    if series == "D":
        return tuple((i, i + 1) for i in range(1, n - 1)) + ((n - 2, n),)
    if series == "E":
        branch = {6: 3, 7: 4, 8: 5}[n]
        return tuple((i, i + 1) for i in range(1, n - 1)) + ((branch, n),)
    return chain


def _symmetrizer(series: str, n: int) -> Tuple[int, ...]:
    if series == "B":
        return (2,) * (n - 1) + (1,)
    if series == "C":
        return (1,) * (n - 1) + (2,)
    if series == "F":
        return (1, 1, 2, 2)
    if series == "G":
        return (1, 3)
    return (1,) * n


def _dual_coxeter(series: str, n: int) -> int:
    if series == "A":
        return n + 1
    if series == "B":
        return 2 * n - 1
    if series == "C":
        return n + 1
    if series == "D":
        return 2 * n - 2
    if series == "E":
        return {6: 12, 7: 18, 8: 30}[n]
    return 9 if series == "F" else 4


def _seed_nodes(series: str, n: int) -> Tuple[int, ...]:
    if series == "B":
        return (n,)
    if series == "D":
        return (n,) if n % 2 else (n - 1, n)
    return (1,)


def _w0_perm(series: str, n: int) -> Tuple[int, ...]:
    if series == "A":
        return tuple(range(n, 0, -1))
    if series == "D" and n % 2:
        return tuple(range(1, n - 1)) + (n, n - 1)
    if series == "E" and n == 6:
        return (5, 4, 3, 2, 1, 6)
    return tuple(range(1, n + 1))


class CartanData(Frozen):
    """The Dynkin diagram of a type, with its symmetrizer and W-data.

    ``links[i-1]`` lists node i's edges as ``(k, a_ik, a_ki)`` over its
    neighbours k, ascending: the only nonzero off-diagonal Cartan
    entries.  The diagonal is 2 everywhere, so no n x n matrix is kept.
    """

    __slots__ = (
        "type", "rank", "sym", "dual_coxeter", "lacing", "seed_nodes", "w0_perm", "links",
    )

    def __init__(
        self,
        type: LieType,
        rank: int,
        sym: Tuple[int, ...],
        dual_coxeter: int,
        lacing: int,
        seed_nodes: Tuple[int, ...],
        w0_perm: Tuple[int, ...],
        links: Tuple[Tuple[Tuple[int, int, int], ...], ...],
    ):
        for name, value in zip(self.__slots__, (
            type, rank, sym, dual_coxeter, lacing, seed_nodes, w0_perm, links
        )):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        # Equal Cartan data share their type, so the type alone is a valid
        # hash, and far cheaper than the links for the per-type caches.
        return hash(self.type)

    def a(self, i: int, j: int) -> int:
        """The Cartan entry a_ij: 2 on the diagonal, the edge entry, else 0."""
        if i == j:
            return 2
        for k, a_ik, _ in self.links[i - 1]:
            if k == j:
                return a_ik
        return 0

    def d(self, i: int) -> int:
        return self.sym[i - 1]

    def neighbors(self, i: int) -> Tuple[int, ...]:
        return tuple(k for k, _, _ in self.links[i - 1])

    def w0_node(self, i: int) -> int:
        return self.w0_perm[i - 1]

    @property
    def nodes(self) -> range:
        return range(1, self.rank + 1)

    def check_node(self, i: int) -> None:
        # bool is an int subclass and 1.0 == 1: either would pass the range
        # test, print as a node, and hit or fill node 1's cache entries.
        if type(i) is not int:
            raise DomainError(f"node must be an integer, got {quote(i)}")
        if not 1 <= i <= self.rank:
            raise DomainError(f"node {quote(i)} out of range for type {self.type}")

    def check_nodes(self, seq: Sequence[int]) -> None:
        """check_node on every item of seq, in order, so the first bad node is named.

        The test is inlined and check_node called only to raise: a plain
        loop beats a set of types plus min and max at every length.
        """
        rank = self.rank
        for i in seq:
            if type(i) is not int or not 1 <= i <= rank:
                self.check_node(i)


@lru_cache(maxsize=None)
def _build(lt: LieType) -> CartanData:
    n = lt.rank
    # Under 8 integers per node: two link triples per edge, the symmetrizer
    # and the w0 pairing.
    check_size(8 * n, f"the integers of the Dynkin diagram of {lt}")
    d = _symmetrizer(lt.series, n)
    links = [[] for _ in range(n)]
    for i, j in _edges(lt.series, n):
        # Both entries follow from the symmetrized inner product
        # (alpha_i, alpha_j) = d_i a_ij = -max(d_i, d_j).
        a_ij = -max(d[i - 1], d[j - 1]) // d[i - 1]
        a_ji = -max(d[i - 1], d[j - 1]) // d[j - 1]
        links[i - 1].append((j, a_ij, a_ji))
        links[j - 1].append((i, a_ji, a_ij))
    return CartanData(
        type=lt,
        rank=n,
        sym=d,
        dual_coxeter=_dual_coxeter(lt.series, n),
        lacing=max(d),
        seed_nodes=_seed_nodes(lt.series, n),
        w0_perm=_w0_perm(lt.series, n),
        links=tuple(tuple(sorted(edges)) for edges in links),
    )


@lru_cache(maxsize=128)
def _parsed(text: str) -> CartanData:
    # Keyed on the text, so a warm call parses nothing; a refused text
    # raises each time and fills no entry.
    return _build(LieType.parse(text))


def cartan_data(t: Union[str, LieType]) -> CartanData:
    """Build (or fetch) the Cartan data for a type such as "D5"."""
    if isinstance(t, str):
        return _parsed(t)
    if not isinstance(t, LieType):
        raise DomainError(f"Lie type must be a string or a LieType, got {quote(t)}")
    return _build(t)


@lru_cache(maxsize=None)
def _alpha_pattern(cd: CartanData, i: int) -> Tuple[Tuple[Tuple[int, int], int], ...]:
    """Entries of the i-th simple loop root as ((node, exp offset), value).

    They depend on the Cartan data alone, so braid and blocks both read
    them from here and blocks need not load braid.
    """
    entries = [((i, 0), 1), ((i, 2 * cd.d(i)), 1)]
    for l, _, a_li in cd.links[i - 1]:
        # A neighbour l carries a q-string of |a_li| inverse factors centred at d_i.
        entries += [((l, t), -1) for t in range(cd.d(i) + 1 + a_li, cd.d(i) - a_li, 2)]
    return tuple(sorted(entries))
