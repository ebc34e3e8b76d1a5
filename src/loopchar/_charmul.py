"""The kernel of ``LCharacter.__mul__``, on integer-coded factors.

``lweight`` imports it on the first character product: every cold CLI
process compiles ``lweight``, and most of them multiply no characters.

The generator keys of both sides are ranked once, and each factor
(key, power) becomes the int rank*slot + half + power.  With half twice
the largest |power| on either side plus one, a sum of two powers stays
inside its rank's slot, so the code of the product of two factors on one
key is one code plus the other's power, and codes sort exactly as their
(key, power) pairs.  Each distinct product term is decoded once, back to
the input pairs where it can be, and the product's loop weights are made
in one bulk call (``lweight._lweights``).
"""

from __future__ import annotations

from itertools import repeat
from operator import add, itemgetter
from typing import Dict, Tuple

from .errors import DomainError
from .lweight import Factors, GenKey, LWeight, _lweights

Terms = Tuple[Tuple[LWeight, int], ...]

_BY_KEY = itemgetter(0)
_BY_VALUE = itemgetter(1)


def _multiply_terms(x: Terms, y: Terms) -> Terms:
    """The sorted terms of the product of the characters with terms x and y."""
    pairs = dict.fromkeys(f for t in (x, y) for pi, _ in t for f in pi.factors)
    ranked = sorted(set(map(_BY_KEY, pairs)))
    half = 2 * max(map(abs, map(_BY_VALUE, pairs)), default=0) + 1
    slot = 2 * half + 1
    # Per key, the code of its power 0; the maps below are keyed on it.
    zero = dict(zip(ranked, range(half, half + slot * len(ranked), slot)))
    table = _FactorTable((zero[pair[0]] + pair[1], pair) for pair in pairs)
    table.ranked, table.slot, table.half = ranked, slot, half
    right = [(*_coded(tau.factors, zero), l) for tau, l in y]
    terms: Dict[Tuple[int, ...], int] = {}
    for pi, m in x:
        f, powers = _coded(pi.factors, zero)
        at = dict(zip(powers, f))
        disjoint = at.keys().isdisjoint
        for g, shared, l in right:
            if disjoint(shared):
                key = tuple(sorted(f + g))
            else:
                d = at.copy()
                for z, p in shared.items():
                    c = d.get(z)
                    if c is None:
                        d[z] = z + p
                    elif c + p == z:
                        del d[z]
                    else:
                        d[z] = c + p
                key = tuple(sorted(d.values()))
            terms[key] = terms.get(key, 0) + m * l
    if min(terms.values(), default=0) < 0:
        raise DomainError("character multiplicities must be positive")
    keys = sorted(filter(terms.__getitem__, terms))
    # tuple(map(table.__getitem__, key)) per term, with no Python frame.
    factors = list(map(tuple, map(map, repeat(table.__getitem__), keys)))
    return tuple(zip(_lweights(factors), map(terms.__getitem__, keys)))


def _coded(f: Factors, zero: Dict[GenKey, int]) -> Tuple[Tuple[int, ...], Dict[int, int]]:
    """The codes of the sorted factors f, and their powers keyed on the
    power-0 codes of their keys (in the same order)."""
    powers = {zero[k]: p for k, p in f}
    return tuple(map(add, powers, powers.values())), powers


class _FactorTable(dict):
    """Factor codes to (key, power) pairs.  A code that only a product
    makes is decoded on its first lookup, and kept."""

    __slots__ = ("ranked", "slot", "half")

    def __missing__(self, code: int) -> Tuple[GenKey, int]:
        r, p = divmod(code, self.slot)
        pair = self[code] = (self.ranked[r], p - self.half)
        return pair
