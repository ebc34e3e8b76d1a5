"""Weyl group machinery on classical weight coordinates."""

from collections import deque
from fractions import Fraction
import os
import pathlib
import random
import subprocess
import sys

import pytest

from loopchar import (
    DomainError,
    cartan_data,
    coroot_pairing,
    dominance_diff,
    element_from_word,
    fundamental_weight,
    is_minuscule,
    is_reduced_word,
    longest_element,
    min_coset_reps,
    positive_roots,
    reflect,
    weight_orbit,
    zero_weight,
)
from loopchar.qchar import _is_minuscule
from loopchar.verify import _CLASS_TYPES
from loopchar.weyl import (
    _descent,
    _orbit_edges,
    _root_norms,
    _word_from_matrix,
    highest_root,
    orbit_edges,
    rho,
    root_norm,
    simple_root_weight,
)

# Larger classical ranks, beside the 21 class types, for the diagram oracles.
_LARGER_TYPES = (
    tuple(f"A{n}" for n in range(9, 17))
    + tuple(f"{s}{n}" for s in "BC" for n in range(6, 11))
    + tuple(f"D{n}" for n in range(7, 11))
)


def test_reflection_fixture():
    cd = cartan_data("A2")
    assert reflect(cd, 1, fundamental_weight(cd, 1)) == (-1, 1)
    assert reflect(cd, 1, fundamental_weight(cd, 2)) == (0, 1)


def test_reflections_are_involutions():
    for name in ("A3", "B3", "G2", "D4"):
        cd = cartan_data(name)
        lam = rho(cd)
        for i in cd.nodes:
            assert reflect(cd, i, reflect(cd, i, lam)) == lam


def test_positive_root_counts():
    counts = {"A3": 6, "B3": 9, "C3": 9, "D4": 12, "G2": 6, "F4": 24, "E6": 36}
    for name, k in counts.items():
        assert len(positive_roots(cartan_data(name))) == k


def test_longest_element_length_and_action():
    for name in ("A3", "B3", "C3", "D4", "G2"):
        cd = cartan_data(name)
        w0 = longest_element(cd)
        assert w0.length == len(positive_roots(cd))
        assert is_reduced_word(cd, w0.word)
        for i in cd.nodes:
            image = w0.apply(fundamental_weight(cd, i))
            expected = tuple(-x for x in fundamental_weight(cd, cd.w0_node(i)))
            assert image == expected


def test_highest_root_fixtures():
    assert highest_root(cartan_data("A2")) == (1, 1)
    assert highest_root(cartan_data("G2")) == (3, 2)
    assert highest_root(cartan_data("B3")) == (1, 2, 2)


def test_root_norms_split_by_length():
    cd = cartan_data("G2")
    norms = sorted({root_norm(cd, b) for b in positive_roots(cd)})
    assert norms == [2, 6]


def test_coroot_pairing_on_simple_roots():
    cd = cartan_data("B3")
    for i in cd.nodes:
        for j in cd.nodes:
            unit = tuple(1 if k == j else 0 for k in cd.nodes)
            assert coroot_pairing(cd, fundamental_weight(cd, i), unit) == (i == j)


@pytest.mark.parametrize(
    "lam,beta",
    [
        ((1, 0), (0, 0)),
        ((1, 0), (1, 2)),
        ((1, 0), (1,)),
        ((1, 0, 0), (1, 1)),
        ((1, 0), (1, True)),
        ([1, 0], (1, 0)),
    ],
)
def test_coroot_pairing_refuses_a_non_root_or_a_vector_that_is_not_a_rank_tuple_of_ints(lam, beta):
    cd = cartan_data("A2")
    with pytest.raises(DomainError):
        coroot_pairing(cd, lam, beta)


def test_root_norm_takes_any_rank_tuple_of_ints():
    cd = cartan_data("A2")
    assert root_norm(cd, (1, 2)) == 6
    assert root_norm(cd, (0, 0)) == 0
    for beta in ((1,), (1, 0, 0), [1, 0], (1.0, 0)):
        with pytest.raises(DomainError):
            root_norm(cd, beta)


def test_root_norm_reads_no_root_table():
    cd = cartan_data("E7")
    before = _root_norms.cache_info()
    assert root_norm(cd, (1,) * 7) == 2
    assert _root_norms.cache_info() == before


def test_min_coset_reps_sizes():
    cd = cartan_data("A2")
    assert len(min_coset_reps(cd, fundamental_weight(cd, 1))) == 3
    assert len(min_coset_reps(cd, zero_weight(cd))) == 1
    assert len(min_coset_reps(cd, rho(cd))) == 6
    with pytest.raises(DomainError):
        min_coset_reps(cd, (-1, 0))
    for name, node, size in (("E6", 1, 27), ("D4", 2, 24), ("B3", 1, 6)):
        cd = cartan_data(name)
        reps = min_coset_reps(cd, fundamental_weight(cd, node))
        assert len(reps) == size
        assert reps == sorted(reps, key=lambda w: (w.length, w.word))
        assert all(is_reduced_word(cd, w.word) for w in reps)
    words = {
        ("A3", 2): [(), (2,), (1, 2), (3, 2), (1, 3, 2), (2, 1, 3, 2)],
        ("B2", 1): [(), (1,), (2, 1), (1, 2, 1)],
    }
    for (name, node), expected in words.items():
        cd = cartan_data(name)
        assert [w.word for w in min_coset_reps(cd, fundamental_weight(cd, node))] == expected


def test_weight_orbit_is_duplicate_free():
    cd = cartan_data("D4")
    orbit = weight_orbit(cd, fundamental_weight(cd, 2))
    weights = [w for w, _ in orbit]
    assert len(weights) == len(set(weights)) == 24


def test_words_compose():
    cd = cartan_data("B3")
    w = element_from_word(cd, (1, 2, 3, 2))
    lam = rho(cd)
    manual = lam
    for i in reversed((1, 2, 3, 2)):
        manual = reflect(cd, i, manual)
    assert w.apply(lam) == manual


def test_reduced_word_detection():
    cd = cartan_data("A2")
    assert is_reduced_word(cd, (1, 2, 1))
    assert not is_reduced_word(cd, (1, 1))
    assert not is_reduced_word(cd, (2, 1, 2, 1))


def test_dominance_diff():
    cd = cartan_data("A2")
    lam = tuple(a + b for a, b in zip(fundamental_weight(cd, 1), fundamental_weight(cd, 2)))
    assert dominance_diff(cd, lam, zero_weight(cd)) == (1, 1)
    assert dominance_diff(cd, fundamental_weight(cd, 1), fundamental_weight(cd, 2)) is None


def test_dominance_diff_refuses_a_weight_of_another_length():
    cd = cartan_data("A2")
    with pytest.raises(DomainError, match="tuple of 2 integers"):
        dominance_diff(cd, (2, -1, 9), (0, 0))


def test_reflect_refuses_a_longer_weight():
    with pytest.raises(DomainError, match="tuple of 2 integers"):
        reflect(cartan_data("A2"), 1, (1, 0, 4))


def test_reflect_refuses_a_shorter_weight():
    with pytest.raises(DomainError, match="tuple of 2 integers"):
        reflect(cartan_data("A2"), 2, (1,))


def test_simple_root_weight_rows():
    cd = cartan_data("C2")
    assert simple_root_weight(cd, 1) == (2, -1)
    assert simple_root_weight(cd, 2) == (-2, 2)


# The E8 fundamental orbits of at most 2160 weights: omega_1 has 240 and
# omega_7 has 2160; the other six have 6720 to 483840.
_E8_SMALL_NODES = (1, 7)


def _dense_reflect(cd, i, lam):
    """s_i lam = lam - lam_i alpha_i over the full column i of the Cartan matrix."""
    return tuple(l - lam[i - 1] * cd.a(k, i) for k, l in zip(cd.nodes, lam))


def _bfs_orbit_edges(cd, lam):
    """The orbit walk without a cache, on the dense reflection."""
    seen, queue, edges = {lam}, deque([lam]), []
    while queue:
        mu = queue.popleft()
        for j in cd.nodes:
            if mu[j - 1] > 0:
                nu = _dense_reflect(cd, j, mu)
                if nu not in seen:
                    seen.add(nu)
                    queue.append(nu)
                    edges.append((mu, j, nu))
    return tuple(edges)


def _walk_cases():
    """Fundamental weights (E8 cut as above), rho up to rank 4, seeded dominant weights."""
    rng = random.Random(8)
    for name in _CLASS_TYPES:
        cd = cartan_data(name)
        for i in cd.nodes:
            if name != "E8" or i in _E8_SMALL_NODES:
                yield name, fundamental_weight(cd, i)
        if cd.rank <= 4:
            yield name, rho(cd)
        if cd.rank <= 5:
            for _ in range(3):
                yield name, tuple(rng.randint(0, 3) for _ in cd.nodes)


@pytest.mark.parametrize("label,lam", list(_walk_cases()))
def test_cached_orbit_walk_matches_the_uncached_walk(label, lam):
    cd = cartan_data(label)
    edges = orbit_edges(cd, lam)
    assert edges == _bfs_orbit_edges(cd, lam)
    assert orbit_edges(cd, lam) is edges


def test_orbit_walk_caches_nothing_for_a_non_dominant_weight():
    cd = cartan_data("B3")
    orbit_edges(cd, rho(cd))
    before = _orbit_edges.cache_info()
    for lam in ((1, -1, 0), (-2, 0, 0), (0, 0, -1)):
        with pytest.raises(DomainError):
            orbit_edges(cd, lam)
    after = _orbit_edges.cache_info()
    assert after.currsize == before.currsize and after.misses == before.misses
    assert after.maxsize == 128


@pytest.mark.parametrize("label", _CLASS_TYPES + ("A12", "D10"))
def test_sparse_reflection_matches_the_dense_formula(label):
    cd = cartan_data(label)
    rng = random.Random(label)
    for _ in range(20):
        lam = tuple(rng.randint(-6, 6) for _ in cd.nodes)
        for i in cd.nodes:
            assert reflect(cd, i, lam) == _dense_reflect(cd, i, lam)
    with pytest.raises(DomainError):
        reflect(cd, cd.rank + 1, lam)


@pytest.mark.parametrize("label", _CLASS_TYPES)
def test_coset_reps_agree_with_the_descent_from_rho(label):
    """Words built from the orbit-walk parent against the matrix oracle.

    Every fundamental weight is covered, except the E8 orbits larger
    than 2160 weights.
    """
    cd = cartan_data(label)
    for i in cd.nodes:
        if label == "E8" and i not in _E8_SMALL_NODES:
            continue
        lam = fundamental_weight(cd, i)
        reps = min_coset_reps(cd, lam)
        assert reps == sorted(reps, key=lambda w: (w.length, w.word))
        for w in reps:
            assert w.word == _word_from_matrix(cd, w.matrix)
            assert element_from_word(cd, w.word).matrix == w.matrix


def _dominance_diffs_by_elimination(cd, pairs):
    """Gauss-Jordan elimination of A x = lam - mu over Q, one column per (lam, mu)."""
    n = cd.rank
    rows = [
        [Fraction(cd.a(i + 1, j + 1)) for j in range(n)]
        + [Fraction(lam[i] - mu[i]) for lam, mu in pairs]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [t * inv for t in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [t - f * s for t, s in zip(rows[r], rows[col])]
    out = []
    for k in range(n, n + len(pairs)):
        target = [row[k] for row in rows]
        if any(t.denominator != 1 for t in target):
            out.append(None)
        else:
            out.append(tuple(int(t) for t in target))
    return out


def test_dominance_diff_matches_elimination():
    rng = random.Random(4)
    outcomes = set()
    for name in _CLASS_TYPES + _LARGER_TYPES:
        cd = cartan_data(name)
        pairs, roots = [], []
        for t in range(60):
            lam = tuple(rng.randint(-5, 5) for _ in cd.nodes)
            if t % 2:
                mu = tuple(rng.randint(-5, 5) for _ in cd.nodes)
                roots.append(None)
            else:
                x = [rng.randint(-3, 3) for _ in cd.nodes]
                mu = tuple(
                    l - sum(cd.a(i, j) * x[j - 1] for j in cd.nodes)
                    for i, l in zip(cd.nodes, lam)
                )
                roots.append(tuple(x))
            pairs.append((lam, mu))
        got = [dominance_diff(cd, lam, mu) for lam, mu in pairs]
        assert got == _dominance_diffs_by_elimination(cd, pairs)
        for g, x in zip(got, roots):
            if x is not None:
                assert g == x
            outcomes.add(g is None)
    assert outcomes == {True, False}


# One type per series, and all three E types.
_DESCENT_TYPES = ("A4", "B4", "C3", "D5", "E6", "E7", "E8", "F4", "G2")


@pytest.mark.parametrize("label", _DESCENT_TYPES)
def test_reduced_words_by_the_rho_walk_match_the_matrix_length(label):
    """The rho walk against the length of the canonical word of the matrix."""
    cd = cartan_data(label)
    rng = random.Random(label)
    w0 = longest_element(cd).word
    words = [w0, w0 + (1,), w0[1:]]
    for _ in range(300):
        words.append(tuple(rng.choice(cd.nodes) for _ in range(rng.randint(0, 3 * cd.rank))))
    for word in words:
        expected = len(_word_from_matrix(cd, element_from_word(cd, word).matrix)) == len(word)
        assert is_reduced_word(cd, word) == expected, word


@pytest.mark.parametrize("label", _DESCENT_TYPES)
def test_longest_element_is_the_descent_from_minus_rho(label):
    """The longest element against its old construction: rho walked down to
    -rho at the smallest positive coordinate, then the canonical word."""
    cd = cartan_data(label)
    lam, steps = rho(cd), []
    while any(c > 0 for c in lam):
        i = next(k for k in cd.nodes if lam[k - 1] > 0)
        lam = reflect(cd, i, lam)
        steps.append(i)
    old = element_from_word(cd, tuple(reversed(steps)))
    w0 = longest_element(cd)
    assert w0.word == old.word == _descent(cd, tuple(-c for c in rho(cd)))
    assert w0.matrix == old.matrix
    assert len(w0.word) == len(positive_roots(cd))


@pytest.mark.parametrize("lam", [(True, 0), (1.5, 0), (1,), (1, 0, 0), [1, 0], (1, "0"), (1, None)])
def test_orbit_walk_refuses_a_weight_that_is_not_a_rank_tuple_of_ints(lam):
    cd = cartan_data("A2")
    before = _orbit_edges.cache_info()
    with pytest.raises(DomainError, match="tuple of 2 integers"):
        orbit_edges(cd, lam)
    with pytest.raises(DomainError):
        min_coset_reps(cd, lam)
    after = _orbit_edges.cache_info()
    assert after.currsize == before.currsize and after.misses == before.misses


def test_a_refused_weight_leaves_no_orbit_walk_entry():
    # In a fresh process the cache holds no (1, 0) walk yet, so a (True, 0)
    # that got through would fill it and print in the later walk.
    script = """
from loopchar import DomainError, cartan_data
from loopchar.weyl import orbit_edges
cd = cartan_data("A2")
try:
    orbit_edges(cd, (True, 0))
except DomainError:
    pass
else:
    raise SystemExit("orbit_edges accepted (True, 0)")
print(orbit_edges(cd, (1, 0)))
"""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "(((1, 0), 1, (-1, 1)), ((-1, 1), 2, (0, -1)))\n"


def _dense_positive_roots(cd):
    """The full reflection closure of the simple roots over +-roots, with
    dense pairings, kept positive at the end."""
    queue = [tuple(int(k == i) for k in cd.nodes) for i in cd.nodes]  # grows while read
    seen = set(queue)
    for beta in queue:
        for i in cd.nodes:
            pairing = sum(cd.a(i, j) * beta[j - 1] for j in cd.nodes)
            refl = beta[: i - 1] + (beta[i - 1] - pairing,) + beta[i:]
            if refl not in seen:
                seen.add(refl)
                queue.append(refl)
    return tuple(sorted(b for b in seen if all(c >= 0 for c in b)))


def _dense_root_norm(cd, beta):
    """The double sum of beta_i d_i a_ij beta_j."""
    return sum(beta[i - 1] * cd.d(i) * cd.a(i, j) * beta[j - 1] for i in cd.nodes for j in cd.nodes)


def _dense_coroot_pairing(cd, lam, beta):
    num = 2 * sum(lam[i - 1] * cd.d(i) * beta[i - 1] for i in cd.nodes)
    den = _dense_root_norm(cd, beta)
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("label", _CLASS_TYPES + _LARGER_TYPES)
def test_root_table_matches_the_dense_closure(label):
    cd = cartan_data(label)
    roots = _dense_positive_roots(cd)
    table = _root_norms(cd)
    assert len(table) == len(roots)
    assert all(c >= 0 for beta in table for c in beta)
    assert positive_roots(cd) == roots
    assert highest_root(cd) == max(roots, key=lambda b: (sum(b), b))
    for beta in roots:
        neg = tuple(-c for c in beta)
        assert root_norm(cd, beta) == root_norm(cd, neg) == _dense_root_norm(cd, beta) == table[beta]
    rng = random.Random(label)
    for _ in range(30):
        v = tuple(rng.randint(-4, 4) for _ in cd.nodes)
        assert root_norm(cd, v) == _dense_root_norm(cd, v)
    for i in cd.nodes:
        lam = fundamental_weight(cd, i)
        pairings = [coroot_pairing(cd, lam, beta) for beta in roots]
        assert pairings == [_dense_coroot_pairing(cd, lam, beta) for beta in roots]
        assert [coroot_pairing(cd, lam, tuple(-c for c in beta)) for beta in roots] == [-p for p in pairings]
        assert is_minuscule(cd, i) == all(p in (0, 1) for p in pairings)


def test_a_refused_node_reads_no_minuscule_or_root_table_entry():
    cd = cartan_data("B3")
    is_minuscule(cd, 1)
    before = (_is_minuscule.cache_info(), _root_norms.cache_info())
    for i in (True, 1.0, 0, 4, "1"):
        with pytest.raises(DomainError):
            is_minuscule(cd, i)
    assert (_is_minuscule.cache_info(), _root_norms.cache_info()) == before
