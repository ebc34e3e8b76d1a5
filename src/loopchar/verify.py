"""Batch self-checks for the symbolic identities the library rests on.

Every suite recomputes a family of identities from explicit closed
forms transcribed independently of the implementation, then compares
the two sides exactly.  Results come back as report rows (check id,
status, expected, actual) so callers can render text or JSON.  Suites
that sample use a caller-supplied seed and are otherwise deterministic.
Each suite imports the modules it checks, and no other suite's.
"""

import random
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .cartan import CartanData, cartan_data
from .errors import DomainError
from .lweight import GenKey, LCharacter, LWeight, fundamental_lweight, weight_of

Row = Dict[str, str]

_ALPHA_RANKS = (("A", 2), ("B", 2), ("C", 2), ("D", 4))
_BRAID_TYPES = (
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4", "B5",
    "C2", "C3", "C4", "C5",
    "D4", "D5", "F4", "G2",
)
_TWIST_TYPES = (
    "A1", "A2", "A3", "A4", "A5", "A6",
    "B2", "B3", "B4", "B5", "B6",
    "C2", "C3", "C4", "C5", "C6",
    "D4", "D5", "D6", "G2", "F4", "E6",
)
_CLASS_TYPES = (
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4", "B5",
    "C2", "C3", "C4", "C5",
    "D4", "D5", "D6",
    "E6", "E7", "E8", "F4", "G2",
)
_PAIR_TYPES = ("A2", "B2", "C3", "D4", "D5", "G2")


def _emit(rows: List[Row], check: str, expected: object, actual: object) -> None:
    e, a = str(expected), str(actual)
    rows.append(
        {
            "check": check,
            "status": "pass" if e == a else "fail",
            "expected": e,
            "actual": a,
        }
    )


def _mono(factors: Iterable[Tuple[int, int, int]], orbit: str = "a") -> LWeight:
    """Monomial from (node, exponent, power) triples; node 0 drops out."""
    powers: Dict[GenKey, int] = {}
    for node, exp, p in factors:
        if node < 1:
            continue
        key = (node, orbit, exp)
        c = powers.get(key, 0) + p
        if c:
            powers[key] = c
        else:
            powers.pop(key, None)
    return LWeight.from_dict(powers)


def _product(
    cd: CartanData,
    omegas: Sequence[Tuple[int, int, int]],
    alphas: Sequence[Tuple[int, int]],
) -> LWeight:
    """Product of fundamental powers and simple loop roots, all orbit "a"."""
    from .braid import simple_lroot

    acc = _mono(omegas)
    for node, exp in alphas:
        acc = acc * simple_lroot(cd, node, "a", exp)
    return acc


# Simple loop roots, written out case by case.  The own node carries
# exponents 0 and twice its length; each neighbour enters inverted.

def _alpha_fixture(cd: CartanData, i: int) -> LWeight:
    series, n = cd.type.series, cd.rank
    if series == "A":
        f = [(i - 1, 1, -1), (i, 0, 1), (i, 2, 1), (i + 1, 1, -1)]
    elif series == "B":
        if i <= n - 2:
            f = [(i - 1, 2, -1), (i, 0, 1), (i, 4, 1), (i + 1, 2, -1)]
        elif i == n - 1:
            f = [(n - 2, 2, -1), (i, 0, 1), (i, 4, 1), (n, 1, -1), (n, 3, -1)]
        else:
            f = [(n - 1, 1, -1), (n, 0, 1), (n, 2, 1)]
    elif series == "C":
        if i < n:
            f = [(i - 1, 1, -1), (i, 0, 1), (i, 2, 1), (i + 1, 1, -1)]
        else:
            f = [(n - 1, 1, -1), (n - 1, 3, -1), (n, 0, 1), (n, 4, 1)]
    elif series == "D":
        if i <= n - 3:
            f = [(i - 1, 1, -1), (i, 0, 1), (i, 2, 1), (i + 1, 1, -1)]
        elif i == n - 2:
            f = [(n - 3, 1, -1), (i, 0, 1), (i, 2, 1), (n - 1, 1, -1), (n, 1, -1)]
        else:
            f = [(n - 2, 1, -1), (i, 0, 1), (i, 2, 1)]
    else:
        raise DomainError(f"no loop-root fixture for series {series}")
    # Chain ends: generators off the diagram are read as 1.
    return _mono([(node, e, p) for node, e, p in f if 1 <= node <= n])


def _suite_alpha(rng: random.Random) -> List[Row]:
    from .braid import simple_lroot

    rows: List[Row] = []
    for series, lo in _ALPHA_RANKS:
        for n in range(lo, 9):
            cd = cartan_data(f"{series}{n}")
            for i in cd.nodes:
                _emit(
                    rows,
                    f"alpha/{series}{n}/{i}",
                    _alpha_fixture(cd, i),
                    simple_lroot(cd, i, "a", 0),
                )
    return rows


def _suite_braid(rng: random.Random) -> List[Row]:
    from .braid import braid_act, braid_act_word
    from .weyl import reflect

    rows: List[Row] = []
    for name in _BRAID_TYPES:
        cd = cartan_data(name)
        tests = [
            fundamental_lweight(cd, k, "a", e)
            for k in cd.nodes
            for e in range(-3, 4)
        ]
        for i in cd.nodes:
            for j in cd.nodes:
                if j <= i:
                    continue
                m = {0: 2, 1: 3, 2: 4, 3: 6}[cd.a(i, j) * cd.a(j, i)]
                lhs = tuple((i, j)[t % 2] for t in range(m))
                rhs = tuple((j, i)[t % 2] for t in range(m))
                bad = ""
                for w in tests:
                    if braid_act_word(cd, lhs, w) != braid_act_word(cd, rhs, w):
                        bad = f"differ on {w}"
                        break
                _emit(rows, f"braid/{name}/{i}-{j}", "equal", bad or "equal")
        # The induced map on classical weights must be the reflection.
        bad = ""
        for i in cd.nodes:
            for w in tests:
                if weight_of(cd, braid_act(cd, i, w)) != reflect(cd, i, weight_of(cd, w)):
                    bad = f"node {i} breaks on {w}"
                    break
        _emit(rows, f"braid/{name}/weight", "reflection", bad or "reflection")
    return rows


def _suite_twist(rng: random.Random) -> List[Row]:
    from .braid import braid_act_word
    from .weyl import longest_element

    rows: List[Row] = []
    for name in _TWIST_TYPES:
        cd = cartan_data(name)
        word = longest_element(cd).word
        shift = cd.lacing * cd.dual_coxeter
        for i in cd.nodes:
            got = braid_act_word(cd, word, fundamental_lweight(cd, i, "a", 0))
            want = _mono([(cd.w0_node(i), shift, -1)])
            _emit(rows, f"twist/{name}/{i}", want, got)
        # Multiplicativity on a composite dominant weight.
        pi = _mono([(1, 0, 1), (cd.rank, 3, 2)])
        got = braid_act_word(cd, word, pi)
        want = _mono(
            [(cd.w0_node(1), shift, -1), (cd.w0_node(cd.rank), 3 + shift, -2)]
        )
        _emit(rows, f"twist/{name}/product", want, got)
    return rows


def _swap_spin(n: int, factors: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Exchange the two fork nodes, the diagram flip for even-forked data."""
    out = []
    for f in factors:
        node = f[0]
        if node == n - 1:
            node = n
        elif node == n:
            node = n - 1
        out.append((node,) + tuple(f[1:]))
    return out


def _ell_cases(cd: CartanData) -> List[Tuple[str, List, List, List]]:
    """All ladder identities for one type: (tag, lhs, omega part, alpha part)."""
    series, n = cd.type.series, cd.rank
    cases: List[Tuple[str, List, List, List]] = []

    if series in ("A", "B", "C", "D"):
        imax = {"A": n, "B": n - 1, "C": n, "D": n - 2}[series]
        for i in range(2, imax + 1):
            lhs = [(1, cd.d(1) * (i - 1), 1), (i - 1, -cd.d(i - 1), 1)]
            alphas = [(j, cd.d(j) * (i - j - 2)) for j in range(1, i)]
            cases.append((f"i/{i}", lhs, [(i, 0, 1)], alphas))

    if series == "A":
        lhs = [(1, -(n + 1), 1), (n, 0, 1)]
        alphas = [(j, j - n - 2) for j in range(1, n + 1)]
        cases.append(("i-closed", lhs, [], alphas))

    if series == "C":
        lhs = [(1, n + 1, 1), (1, -n - 1, 1)]
        alphas = []
        for j in range(1, n):
            alphas += [(j, n - j), (j, j - n - 2)]
        alphas.append((n, -2))
        cases.append(("i-closed", lhs, [], alphas))

    if series == "B":
        for i in range(1, n):
            lhs = [(n, 2 * i - 1, 1), (n, 1 - 2 * i, 1)]
            alphas = [
                (j, 2 * (n - i - j) + 4 * r)
                for j in range(n - i + 1, n)
                for r in range(j - (n - i + 1) + 1)
            ]
            alphas += [(n, -2 * i + 1 + 4 * r) for r in range(i)]
            cases.append((f"ii/{i}", lhs, [(n - i, 0, 1)], alphas))
        lhs = [(n, 2 * n - 1, 1), (n, 1 - 2 * n, 1)]
        alphas = [(j, -2 * j + 4 * r) for j in range(1, n) for r in range(j)]
        alphas += [(n, -2 * n + 1 + 4 * r) for r in range(n)]
        cases.append(("ii-closed", lhs, [], alphas))

    if series == "D":
        base: List[Tuple[str, List, List, List]] = []
        for j in range(1, (n - 1) // 2 + 1):
            lhs = [(n, 2 * j - 1, 1), (n, 1 - 2 * j, 1)]
            alphas = [
                (k, n - 2 * j - k + 2 * r)
                for k in range(n - 2 * j + 1, n - 1)
                for r in range(k - (n - 2 * j + 1) + 1)
            ]
            alphas += [(n - 1, -2 * j + 3 + 4 * r) for r in range(j - 1)]
            alphas += [(n, -2 * j + 1 + 4 * r) for r in range(j)]
            base.append((f"iii-a/{j}", lhs, [(n - 2 * j, 0, 1)], alphas))
        for j in range(1, (n - 2) // 2 + 1):
            lhs = [(n - 1, 2 * j, 1), (n, -2 * j, 1)]
            alphas = [
                (k, n - 2 * j - 1 - k + 2 * r)
                for k in range(n - 2 * j, n - 1)
                for r in range(k - (n - 2 * j) + 1)
            ]
            for r in range(j):
                alphas += [(n - 1, -2 * j + 2 + 4 * r), (n, -2 * j + 4 * r)]
            base.append((f"iii-b/{j}", lhs, [(n - 2 * j - 1, 0, 1)], alphas))
        ladder = [
            (k, -k + 2 * r) for k in range(1, n - 1) for r in range(k)
        ]
        if n % 2 == 1:
            lhs = [(n, 2, 1), (n, 0, 1), (n, 4 - 2 * n, 1)]
            alphas = [
                (k, 3 - n - k + 2 * r) for k in range(1, n - 1) for r in range(k)
            ]
            alphas += [(n - 1, 6 - 2 * n + 4 * r) for r in range((n - 5) // 2 + 1)]
            alphas += [(n, 0)]
            alphas += [(n, 4 - 2 * n + 4 * r) for r in range((n - 3) // 2 + 1)]
            base.append(("iii-c", lhs, [(n - 1, 0, 1)], alphas))

            lhs = [(n - 1, n - 1, 1), (n, 1 - n, 1)]
            alphas = list(ladder)
            for r in range((n - 3) // 2 + 1):
                alphas += [(n - 1, 3 - n + 4 * r), (n, 1 - n + 4 * r)]
            base.append(("iii-d", lhs, [], alphas))

            lhs = [(n, 0, 1), (n, 2, 1), (n, 2 * n - 2, 1), (n, 2 * n, 1)]
            alphas = []
            for k in range(1, n - 1):
                for r in range(k):
                    alphas += [(k, n - k - 1 + 2 * r), (k, n + k - 1 - 2 * r)]
            alphas += [(n - 1, 2 + 2 * r) for r in range(n - 2)]
            alphas += [(n, 2 * r) for r in range(n)]
            base.append(("iii-e", lhs, [], alphas))
        else:
            lhs = [(n, n - 1, 1), (n, 1 - n, 1)]
            alphas = list(ladder)
            alphas += [(n - 1, 3 - n + 4 * r) for r in range((n - 4) // 2 + 1)]
            alphas += [(n, 1 - n + 4 * r) for r in range((n - 2) // 2 + 1)]
            base.append(("iii-f", lhs, [], alphas))

            lhs = [(n - 1, 0, 1), (n - 1, 2, 1), (n, 2 * n - 2, 1), (n, 2 * n, 1)]
            alphas = []
            for k in range(1, n - 1):
                for r in range(k):
                    alphas += [(k, n - k - 1 + 2 * r), (k, n + k - 1 - 2 * r)]
            for r in range(n - 1):
                alphas += [(n - 1, 2 * r), (n, 2 + 2 * r)]
            base.append(("iii-g", lhs, [], alphas))
        for tag, lhs, om, al in base:
            cases.append((tag, lhs, om, al))
            cases.append(
                (
                    tag + "-swap",
                    _swap_spin(n, lhs),
                    _swap_spin(n, om),
                    _swap_spin(n, al),
                )
            )
    return cases


def _suite_ellfund(rng: random.Random) -> List[Row]:
    rows: List[Row] = []
    for series, lo in _ALPHA_RANKS:
        for n in range(lo, 9):
            cd = cartan_data(f"{series}{n}")
            for tag, lhs, om, al in _ell_cases(cd):
                _emit(
                    rows,
                    f"ellfund/{series}{n}/{tag}",
                    _mono(lhs),
                    _product(cd, om, al),
                )
    return rows


# The class of w[i;a,0] in closed form, as window terms (orbit, family, exponent).

def _an_image(i: int) -> Dict[Tuple[str, str, int], int]:
    return {("a", "", 2 * r - i + 1): 1 for r in range(i)}


def _bn_image(n: int, i: int) -> Dict[Tuple[str, str, int], int]:
    if i == n:
        return {("a", "", 0): 1}
    return {("a", "", 2 * n - 2 * i - 1): 1, ("a", "", -(2 * n - 2 * i - 1)): 1}


def _random_dominant(rng: random.Random, cd: CartanData) -> LWeight:
    acc = LWeight.identity()
    for _ in range(rng.randint(1, 3)):
        node = rng.randint(1, cd.rank)
        exp = rng.randint(-6, 6)
        acc = acc * fundamental_lweight(cd, node, "a", exp) ** rng.randint(1, 2)
    return acc


def _random_lattice_element(rng: random.Random, cd: CartanData) -> LWeight:
    from .braid import simple_lroot

    acc = LWeight.identity()
    for _ in range(rng.randint(1, 3)):
        node = rng.randint(1, cd.rank)
        exp = rng.randint(-4, 4)
        acc = acc * simple_lroot(cd, node, "a", exp) ** rng.choice([-2, -1, 1, 2])
    return acc


def _suite_xi(rng: random.Random) -> List[Row]:
    from .blocks import EllipticCharacter, classes_equal, elliptic_class
    from .braid import lroot_decompose, simple_lroot

    rows: List[Row] = []
    for name in _CLASS_TYPES:
        cd = cartan_data(name)
        bad = ""
        for i in cd.nodes:
            for e in range(-5, 6):
                if not elliptic_class(cd, simple_lroot(cd, i, "a", e)).is_zero:
                    bad = f"node {i} exponent {e} not zero"
                    break
            if bad:
                break
        _emit(rows, f"xi/class-zero/{name}", "all zero", bad or "all zero")
    for n in range(1, 9):
        cd = cartan_data(f"A{n}")
        for i in cd.nodes:
            got = elliptic_class(cd, fundamental_lweight(cd, i, "a", 0))
            _emit(rows, f"xi/image/A{n}/{i}", EllipticCharacter.make(cd.type, _an_image(i)), got)
    for n in range(2, 9):
        cd = cartan_data(f"B{n}")
        for i in cd.nodes:
            got = elliptic_class(cd, fundamental_lweight(cd, i, "a", 0))
            _emit(rows, f"xi/image/B{n}/{i}", EllipticCharacter.make(cd.type, _bn_image(n, i)), got)
    for name in _PAIR_TYPES:
        cd = cartan_data(name)
        agree = 0
        linked_seen = 0
        detail = ""
        for t in range(100):
            p1 = _random_dominant(rng, cd)
            if t % 2 == 0:
                p2 = p1 * _random_lattice_element(rng, cd)
            else:
                p2 = _random_dominant(rng, cd)
            by_class = classes_equal(elliptic_class(cd, p1), elliptic_class(cd, p2))
            by_lattice = lroot_decompose(cd, p1 * p2.inverse(), "any") is not None
            if by_class == by_lattice:
                agree += 1
                linked_seen += by_class
            elif not detail:
                detail = f"first split at pair {t}: class {by_class}, lattice {by_lattice}"
        actual = "100/100 agree" if agree == 100 else f"{agree}/100 agree; {detail}"
        _emit(rows, f"xi/pairs/{name}", "100/100 agree", actual)
        # The sampler must exercise the equal branch, or the check is vacuous.
        _emit(rows, f"xi/pairs/{name}/coverage", "some linked", "some linked" if linked_seen else "none linked")
    return rows


def _suite_trivial(rng: random.Random) -> List[Row]:
    from .blocks import elliptic_class, trivial_sets
    from .braid import expand_lroots, lroot_decompose

    rows: List[Row] = []
    for name in _CLASS_TYPES:
        cd = cartan_data(name)
        for label, w in trivial_sets(cd):
            problems = []
            if not w.is_dominant:
                problems.append("not dominant")
            if not elliptic_class(cd, w).is_zero:
                problems.append("class not zero")
            coeffs = lroot_decompose(cd, w, "+")
            if coeffs is None:
                problems.append("no nonnegative certificate")
            elif expand_lroots(cd, coeffs) != w:
                problems.append("certificate does not expand back")
            _emit(rows, f"trivial/{name}/{label}", "certified", "; ".join(problems) or "certified")
    return rows


def _dn_core_fixture(n: int, j: int) -> LWeight:
    if j <= n - 2:
        return _mono(
            [
                (j - 1, j + 1, -1),
                (j - 1, 2 * n - j - 3, 1),
                (j, j, 1),
                (j, 2 * n - j - 2, -1),
            ]
        )
    return _mono([(j, n - 3, 1), (j, n + 1, -1)])


def _dn_braid_fixture(n: int, j: int) -> LWeight:
    if j <= n - 3:
        return _mono(
            [
                (j - 1, j + 1, -1),
                (j, j, 1),
                (j, 2 * n - 4 - j, 1),
                (j + 1, 2 * n - 3 - j, -1),
            ]
        )
    if j == n - 2:
        return _mono(
            [
                (n - 3, n - 1, -1),
                (n - 2, n - 2, 2),
                (n - 1, n - 1, -1),
                (n, n - 1, -1),
            ]
        )
    return _mono([(n - 2, n, -1), (j, n - 1, 1), (j, n - 3, 1)])


def _dn_word(n: int, j: int) -> Tuple[int, ...]:
    return (
        tuple(range(j - 1, 0, -1))
        + tuple(range(j + 1, n - 1))
        + (n, n - 1)
        + tuple(range(n - 2, 0, -1))
    )


def _suite_dn(rng: random.Random) -> List[Row]:
    from .blocks import elliptic_class
    from .braid import braid_act_word, braid_orbit
    from .qchar import dn_node2_char, fundamental_char, weight_projection
    from .weyl import fundamental_weight, positive_roots, simple_root_weight, zero_weight

    rows: List[Row] = []
    for n in (4, 5, 6):
        cd = cartan_data(f"D{n}")
        c = dn_node2_char(n, ("a", 0))
        _emit(rows, f"dn/{n}/dim", n * (2 * n - 1) + 1, c.dimension)
        proj = weight_projection(cd, c)
        want = {zero_weight(cd): n + 1}
        for beta in positive_roots(cd):
            mu = zero_weight(cd)
            for k, ck in enumerate(beta, start=1):
                mu = tuple(x + ck * y for x, y in zip(mu, simple_root_weight(cd, k)))
            want[mu] = 1
            want[tuple(-x for x in mu)] = 1
        _emit(rows, f"dn/{n}/weights", "adjoint layout", "adjoint layout" if proj == want else "unexpected projection")
        for j in range(1, n - 1):
            got = braid_act_word(cd, _dn_word(n, j), fundamental_lweight(cd, 2, "a", 0))
            _emit(rows, f"dn/{n}/braid/{j}", _dn_braid_fixture(n, j), got)
        for j in (n - 1, n):
            _emit(rows, f"dn/{n}/orbit-term/{j}", 1, c.multiplicity(_dn_braid_fixture(n, j)))
        for j in range(1, n + 1):
            _emit(
                rows,
                f"dn/{n}/core/{j}",
                2 if j == n - 2 else 1,
                c.multiplicity(_dn_core_fixture(n, j)),
            )
        # The descent against the adjoint orbit plus this suite's own core.
        terms = dict.fromkeys(braid_orbit(cd, fundamental_lweight(cd, 2, "a", 0)).values(), 1)
        for j in range(1, n + 1):
            terms[_dn_core_fixture(n, j)] = 2 if j == n - 2 else 1
        expected = LCharacter.from_dict(terms)
        table = {fundamental_weight(cd, 2): 1, zero_weight(cd): n + 1}
        _emit(
            rows,
            f"dn/{n}/from-table",
            "equal",
            "equal" if fundamental_char(cd, 2, ("a", 0), table) == expected else "differ",
        )
        classes = {str(elliptic_class(cd, w)) for w in c.to_dict()}
        _emit(rows, f"dn/{n}/one-class", 1, len(classes))
    return rows


# Pinned small tensor products: adjacent strings couple, separated or
# odd-ratio strings do not, and orbits never mix.
_SL2_IRRED = (
    ((1, 0), (1, 2), False),
    ((1, 0), (1, 4), True),
    ((1, 0), (1, 3), True),
    ((2, 0), (2, 2), False),
    ((2, 0), (2, 4), False),
    ((2, 0), (2, 6), True),
    ((3, 0), (1, 2), True),
    ((3, 0), (1, 4), False),
)


def _suite_sl2(rng: random.Random) -> List[Row]:
    from .blocks import classes_equal, elliptic_class, tensor_class
    from .qchar import Sl2String, cyclicity_order, sl2_eval_char, sl2_tensor_irreducible
    from .qchar import tensor_char, weight_projection

    rows: List[Row] = []
    cd = cartan_data("A1")
    for m in range(11):
        for e in (0, 3):
            c = sl2_eval_char(("a", e), m)
            problems = []
            if c.dimension != m + 1:
                problems.append(f"dimension {c.dimension}")
            top = Sl2String(("a", e), m).lweight()
            if c.multiplicity(top) != 1:
                problems.append("highest term missing")
            low = Sl2String(("a", e + 2), m).lweight().inverse()
            if c.multiplicity(low) != 1:
                problems.append("lowest term missing")
            if weight_projection(cd, c) != {(m - 2 * r,): 1 for r in range(m + 1)}:
                problems.append("wrong weight ladder")
            if len({str(elliptic_class(cd, w)) for w in c.to_dict()}) != 1:
                problems.append("class not constant")
            _emit(rows, f"sl2/m{m}e{e}", "string shape", "; ".join(problems) or "string shape")
    for idx, ((m1, e1), (m2, e2), want) in enumerate(_SL2_IRRED):
        got = sl2_tensor_irreducible(
            [Sl2String(("a", e1), m1), Sl2String(("a", e2), m2)]
        )
        _emit(rows, f"sl2/irred/{idx}", want, got)
    _emit(
        rows,
        "sl2/irred/orbits",
        True,
        sl2_tensor_irreducible([Sl2String(("a", 0), 2), Sl2String(("b", 2), 2)]),
    )
    _emit(
        rows,
        "sl2/cyclic",
        (1, 2, 0),
        cyclicity_order([(1, ("a", 0)), (1, ("a", 4)), (1, ("a", 2))]),
    )
    bad = ""
    for t in range(20):
        m1, m2 = rng.randint(1, 4), rng.randint(1, 4)
        e1, e2 = rng.randint(-6, 6), rng.randint(-6, 6)
        c1, c2 = sl2_eval_char(("a", e1), m1), sl2_eval_char(("a", e2), m2)
        chi = tensor_class(
            elliptic_class(cd, Sl2String(("a", e1), m1).lweight()),
            elliptic_class(cd, Sl2String(("a", e2), m2).lweight()),
        )
        for w in tensor_char(c1, c2).to_dict():
            if not classes_equal(elliptic_class(cd, w), chi):
                bad = f"pair {t} ({m1}@{e1}, {m2}@{e2}) leaves the block"
                break
        if bad:
            break
    _emit(rows, "sl2/tensor-class", "additive", bad or "additive")
    return rows


SUITES: Dict[str, Callable[[random.Random], List[Row]]] = {
    "alpha-lists": _suite_alpha,
    "braid-relations": _suite_braid,
    "w0-twist": _suite_twist,
    "ellfund": _suite_ellfund,
    "xi-oracle": _suite_xi,
    "trivial-sets": _suite_trivial,
    "dn-adjoint": _suite_dn,
    "sl2": _suite_sl2,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, seed: int = 0) -> List[Row]:
    """Run one named suite and return its report rows."""
    fn = SUITES.get(name)
    if fn is None:
        raise DomainError(f"unknown suite {name!r}")
    return fn(random.Random(seed))


def run_all(seed: int = 0) -> Dict[str, List[Row]]:
    """Run every suite in declaration order."""
    return {name: run_suite(name, seed) for name in SUITE_NAMES}
