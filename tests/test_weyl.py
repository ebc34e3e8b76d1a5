"""Weyl group machinery on classical weight coordinates."""

from collections import deque
from fractions import Fraction
from functools import lru_cache
import os
import pathlib
import random
import subprocess
import sys

from hypothesis import given, settings, strategies as st
import pytest

from loopchar import (
    DomainError,
    WeylElement,
    cartan_data,
    coroot_pairing,
    dominance_diff,
    element_from_word,
    fundamental_weight,
    is_minuscule,
    is_reduced_word,
    longest_element,
    min_coset_reps,
    parse_lweight,
    positive_roots,
    reflect,
    weight_orbit,
    zero_weight,
)
from loopchar import errors, weyl
from loopchar.braid import braid_orbit
from loopchar.verify import _CLASS_TYPES
from loopchar.weyl import (
    _descent,
    _orbit_edges,
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
    before = (positive_roots.cache_info(), highest_root.cache_info())
    assert root_norm(cd, (1,) * 7) == 2
    assert (positive_roots.cache_info(), highest_root.cache_info()) == before


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


@lru_cache(maxsize=None)
def _columns(cd):
    """The dense Cartan columns: column i is alpha_i in fundamental-weight coordinates."""
    return tuple(tuple(cd.a(k, i) for k in cd.nodes) for i in cd.nodes)


def _matrix(cd, word, m=None):
    """The action matrix of word on fundamental-weight coordinates, times m
    (by default the identity): dense reflection matrices multiplied onto m,
    rightmost letter first.

    s_i M replaces each row k by row k - a_ki * row i (a_ii = 2 negates row i).
    """
    rows = m or tuple(tuple(int(r == c) for c in cd.nodes) for r in cd.nodes)
    for i in reversed(word):
        pivot = rows[i - 1]
        rows = tuple(
            tuple(r - a * p for r, p in zip(row, pivot)) if a else row
            for a, row in zip(_columns(cd)[i - 1], rows)
        )
    return rows


def _mat_apply(m, lam):
    return tuple(sum(r * l for r, l in zip(row, lam)) for row in m)


def _canonical_word(cd, m):
    """The word of the matrix m that takes its smallest left descent first:
    m(rho) walked back to rho on the dense reflection."""
    lam, word = _mat_apply(m, rho(cd)), []
    while True:
        i = next((k for k, c in enumerate(lam, start=1) if c < 0), None)
        if i is None:
            return tuple(word)
        c = lam[i - 1]
        lam = [l - c * a for l, a in zip(lam, _columns(cd)[i - 1])]
        word.append(i)


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


def test_an_orbit_walk_past_the_size_cap_is_refused(monkeypatch):
    # The regular B3 weight (2,1,3) has 48 orbit weights of 3 coordinates:
    # 144 fit a cap of 144 and not one of 143.  No other test walks it.
    cd = cartan_data("B3")
    lam = (2, 1, 3)
    pi = parse_lweight("w[1;a,0]^2*w[2;a,0]*w[3;a,0]^3")
    monkeypatch.setattr(errors, "MAX_SIZE", 143)
    before = _orbit_edges.cache_info().currsize
    message = "Weyl orbit of B3, 48 weights so far, would number 144, more than the size cap of 143"
    for walk in (
        lambda: orbit_edges(cd, lam),
        lambda: min_coset_reps(cd, lam),
        lambda: weight_orbit(cd, lam),
        lambda: braid_orbit(cd, pi),
    ):
        with pytest.raises(DomainError, match=message):
            walk()
    assert _orbit_edges.cache_info().currsize == before
    monkeypatch.setattr(errors, "MAX_SIZE", 144)
    assert len(orbit_edges(cd, lam)) == 47
    assert len(braid_orbit(cd, pi)) == 48


def test_the_root_count_is_the_root_table():
    for label in _CLASS_TYPES + _LARGER_TYPES:
        cd = cartan_data(label)
        assert weyl._positive_root_count(cd) == len(positive_roots(cd)), label


def test_a_root_table_or_w0_word_past_the_size_cap_is_refused(monkeypatch):
    # B11: 121 positive roots of 11 coordinates; C9: a w0 word of 81
    # letters.  No other test builds either.
    b11, c9 = cartan_data("B11"), cartan_data("C9")
    monkeypatch.setattr(errors, "MAX_SIZE", 1330)
    size = positive_roots.cache_info().currsize
    with pytest.raises(DomainError, match="positive roots of B11 would number 1331, more than the size cap of 1330"):
        positive_roots(b11)
    assert positive_roots.cache_info().currsize == size
    monkeypatch.setattr(errors, "MAX_SIZE", 80)
    before = (positive_roots.cache_info(), longest_element.cache_info().currsize)
    with pytest.raises(DomainError, match="longest element of C9 would number 81, more than the size cap of 80"):
        longest_element(c9)
    assert (positive_roots.cache_info(), longest_element.cache_info().currsize) == before
    monkeypatch.setattr(errors, "MAX_SIZE", 81)
    assert longest_element(c9).length == 81
    assert positive_roots.cache_info() == before[0]
    monkeypatch.setattr(errors, "MAX_SIZE", 1331)
    assert len(positive_roots(b11)) == 121


def test_the_real_cap_refuses_the_a_root_table_from_a342_and_w0_from_a6325():
    count = weyl._positive_root_count
    a341, a342 = cartan_data("A341"), cartan_data("A342")
    assert count(a341) * 341 <= errors.MAX_SIZE < count(a342) * 342
    assert count(cartan_data("A6324")) <= errors.MAX_SIZE < count(cartan_data("A6325"))
    before = positive_roots.cache_info()
    with pytest.raises(DomainError, match="positive roots of A342 would number 20059326,"):
        positive_roots(a342)
    with pytest.raises(DomainError, match="longest element of A7000 would number 24503500,"):
        longest_element(cartan_data("A7000"))
    assert positive_roots.cache_info().currsize == before.currsize


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
        # A word's tail is its parent's word, which comes earlier in the
        # sorted list, so each matrix is one reflection times a kept one.
        matrices = {}
        for w in reps:
            m = _matrix(cd, w.word[:1], matrices[w.word[1:]] if w.word else None)
            matrices[w.word] = m
            assert w.word == _canonical_word(cd, m)
            assert element_from_word(cd, w.word) == w
            assert w.apply(lam) == _mat_apply(m, lam)


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
        expected = len(_canonical_word(cd, _matrix(cd, word))) == len(word)
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
    assert w0 == old
    assert w0.word == _descent(cd, tuple(-c for c in rho(cd)))
    assert _matrix(cd, w0.word) == _matrix(cd, tuple(reversed(steps)))
    assert _mat_apply(_matrix(cd, w0.word), rho(cd)) == tuple(-c for c in rho(cd))
    assert len(w0.word) == len(positive_roots(cd))


@st.composite
def _word_pair_and_weight(draw, cd):
    """Two words and a weight; half the time the second word is the first
    with a cancelling pair s_i s_i inserted, so equal elements are drawn
    on every type, not only on the small ones."""
    nodes = st.sampled_from(list(cd.nodes))
    words = st.lists(nodes, max_size=2 * cd.rank).map(tuple)
    u = draw(words)
    if draw(st.booleans()):
        v = draw(words)
    else:
        p = draw(st.integers(min_value=0, max_value=len(u)))
        i = draw(nodes)
        v = u[:p] + (i, i) + u[p:]
    lam = draw(st.tuples(*(st.integers(min_value=-5, max_value=5) for _ in cd.nodes)))
    return u, v, lam


@settings(deadline=None, max_examples=40)
@given(st.tuples(*(_word_pair_and_weight(cartan_data(label)) for label in _CLASS_TYPES)))
def test_elements_are_equal_exactly_when_their_matrices_are(draws):
    # One draw per class type in every example, so all 21 types are covered.
    for label, (u, v, lam) in zip(_CLASS_TYPES, draws):
        cd = cartan_data(label)
        x, y = element_from_word(cd, u), element_from_word(cd, v)
        mu, mv = _matrix(cd, u), _matrix(cd, v)
        assert (x == y) == (mu == mv)
        if x == y:
            assert hash(x) == hash(y)
        assert x.lie_type == cd.type
        assert x.word == _canonical_word(cd, mu)
        assert x.apply(lam) == _mat_apply(mu, lam)
        assert y.apply(lam) == _mat_apply(mv, lam)


def _rescanning_descent(cd, lam):
    """The descent that rescans lam from node 1 for its first negative
    coordinate at every step, on the dense reflection."""
    word = []
    while True:
        i = next((k for k, c in enumerate(lam, start=1) if c < 0), None)
        if i is None:
            return tuple(word)
        lam = _dense_reflect(cd, i, lam)
        word.append(i)


def _lengthens_at_every_letter(cd, word):
    """Whether each letter, read right to left, lengthens the element so
    far: prepending s_i to u does exactly when u(rho) has a positive i-th
    coordinate, so rho is walked through the word."""
    lam = rho(cd)
    for i in reversed(word):
        if lam[i - 1] <= 0:
            return False
        lam = _dense_reflect(cd, i, lam)
    return True


@st.composite
def _word_and_weight(draw, cd):
    """A word, reduced half the time, and a weight with zero coordinates.

    A reduced word is built right to left, each letter drawn among the
    positive coordinates of rho walked so far.
    """
    nodes = list(cd.nodes)
    if draw(st.booleans()):
        word = draw(st.lists(st.sampled_from(nodes), max_size=4 * cd.rank).map(tuple))
    else:
        lam, steps = rho(cd), []
        for _ in range(draw(st.integers(min_value=0, max_value=4 * cd.rank))):
            up = [k for k in nodes if lam[k - 1] > 0]
            if not up:  # rho has reached -rho: the word is one of w0
                break
            i = draw(st.sampled_from(up))
            lam = _dense_reflect(cd, i, lam)
            steps.append(i)
        word = tuple(reversed(steps))
    lam = draw(st.tuples(*(st.integers(min_value=-2, max_value=2) for _ in nodes)))
    return word, lam


@settings(deadline=None, max_examples=40)
@given(st.tuples(*(_word_and_weight(cartan_data(label)) for label in _CLASS_TYPES)))
def test_greedy_descent_and_reduced_test_match_the_rescanning_walks(draws):
    # One draw per class type in every example, so all 21 types are covered.
    for label, (word, lam) in zip(_CLASS_TYPES, draws):
        cd = cartan_data(label)
        image = weyl._act(cd, word, rho(cd))
        assert _descent(cd, image) == _rescanning_descent(cd, image)
        assert _descent(cd, lam) == _rescanning_descent(cd, lam)
        assert is_reduced_word(cd, word) == _lengthens_at_every_letter(cd, word)


@pytest.mark.parametrize("series,lowest", [("A", 1), ("B", 2), ("D", 4)])
def test_longest_element_matches_the_rescanning_descent(series, lowest):
    for n in range(lowest, 46):
        cd = cartan_data(f"{series}{n}")
        minus_rho = tuple(-c for c in rho(cd))
        assert longest_element(cd).word == _rescanning_descent(cd, minus_rho)


@pytest.mark.parametrize("lam", [(1,), (1, 0, 5), (1.5, True)])
def test_apply_refuses_a_weight_that_is_not_a_rank_tuple_of_ints(lam):
    w = element_from_word(cartan_data("A2"), (1, 2))
    with pytest.raises(DomainError, match="tuple of 2 integers"):
        w.apply(lam)


def test_an_element_is_its_type_and_canonical_word():
    cd = cartan_data("A2")
    w = element_from_word(cd, (2, 1, 2, 1, 2))
    assert w == WeylElement(cd.type, (1,)) == element_from_word(cd, (1,))
    assert w != element_from_word(cartan_data("A3"), (1,))


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
    assert positive_roots(cd) == roots
    assert highest_root(cd) == max(roots, key=lambda b: (sum(b), b))
    for beta in roots:
        neg = tuple(-c for c in beta)
        assert root_norm(cd, beta) == root_norm(cd, neg) == _dense_root_norm(cd, beta)
    rng = random.Random(label)
    for _ in range(30):
        v = tuple(rng.randint(-4, 4) for _ in cd.nodes)
        assert root_norm(cd, v) == _dense_root_norm(cd, v)
    # Vectors inside the box 0 <= v <= theta, where the root test must descend.
    theta = highest_root(cd)
    rho_ = rho(cd)
    root_set = set(roots)
    for _ in range(30):
        v = tuple(rng.randint(0, t) for t in theta)
        for w in (v, tuple(-c for c in v)):
            if v in root_set:
                assert coroot_pairing(cd, rho_, w) == _dense_coroot_pairing(cd, rho_, w)
            else:
                with pytest.raises(DomainError, match="not a root"):
                    coroot_pairing(cd, rho_, w)
    for i in cd.nodes:
        lam = fundamental_weight(cd, i)
        pairings = [coroot_pairing(cd, lam, beta) for beta in roots]
        assert pairings == [_dense_coroot_pairing(cd, lam, beta) for beta in roots]
        assert [coroot_pairing(cd, lam, tuple(-c for c in beta)) for beta in roots] == [-p for p in pairings]
        assert is_minuscule(cd, i) == all(p in (0, 1) for p in pairings)


def test_a_refused_node_reads_no_minuscule_or_root_table_entry():
    cd = cartan_data("B3")
    is_minuscule(cd, 1)
    before = (highest_root.cache_info(), positive_roots.cache_info())
    for i in (True, 1.0, 0, 4, "1"):
        with pytest.raises(DomainError):
            is_minuscule(cd, i)
    assert (highest_root.cache_info(), positive_roots.cache_info()) == before


@pytest.mark.parametrize(
    "label,beta",
    [
        ("E8", (10**30,) + (0,) * 7),
        ("E8", (-(10**30),) + (0,) * 7),
        ("A3000", (10**30,) * 3000),
        ("A3", (1, -1, 0)),
        ("G2", (4, 2)),
    ],
)
def test_coroot_pairing_refuses_a_vector_outside_the_theta_box_before_any_descent(monkeypatch, label, beta):
    cd = cartan_data(label)
    lam = (1,) * cd.rank
    highest_root(cd)  # the box's ascent, made before the patch
    before = positive_roots.cache_info()

    def refuse(*args):
        raise AssertionError("a descent was started")

    monkeypatch.setattr(weyl, "_greedy_reflections", refuse)
    with pytest.raises(DomainError, match="not a root"):
        coroot_pairing(cd, lam, beta)
    assert positive_roots.cache_info() == before


@pytest.mark.parametrize(
    "label,beta",
    [("A3", (1, 0, 1)), ("A3", (-1, 0, -1)), ("A3", (0, 0, 0)), ("B3", (0, 0, 2)), ("E8", (2,) * 8)],
)
def test_coroot_pairing_refuses_a_non_root_inside_the_theta_box(label, beta):
    cd = cartan_data(label)
    before = positive_roots.cache_info()
    with pytest.raises(DomainError, match="not a root"):
        coroot_pairing(cd, (1,) * cd.rank, beta)
    assert positive_roots.cache_info() == before


def test_coroot_pairing_at_large_rank_builds_no_root_table():
    cd = cartan_data("D3000")
    before = positive_roots.cache_info()
    theta = highest_root(cd)
    assert theta == (1,) + (2,) * 2997 + (1, 1)
    assert coroot_pairing(cd, rho(cd), theta) == 2 * 3000 - 3
    assert coroot_pairing(cd, fundamental_weight(cd, 2), tuple(-c for c in theta)) == -2
    assert positive_roots.cache_info() == before


@pytest.mark.parametrize("series", "ACD")
def test_is_minuscule_at_rank_2000_builds_no_root_table(series):
    cd = cartan_data(f"{series}2000")
    before = positive_roots.cache_info()
    expected = {"A": [True, True, True], "C": [True, False, False], "D": [True, False, True]}
    assert [is_minuscule(cd, i) for i in (1, 1000, 2000)] == expected[series]
    assert positive_roots.cache_info() == before
