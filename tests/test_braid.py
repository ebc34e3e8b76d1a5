"""Tests for the braid action and the loop-root lattice."""

import random
import re

from hypothesis import given, settings, strategies as st
import pytest

from loopchar import (
    DomainError,
    LWeight,
    braid_act,
    braid_act_word,
    cartan_data,
    cone_check,
    dual_lweight,
    element_from_word,
    expand_lroots,
    fundamental_lweight,
    is_minuscule,
    is_reduced_word,
    longest_element,
    lroot_decompose,
    min_coset_reps,
    parse_lweight,
    simple_lroot,
    twist_by_w0,
    weight_of,
)
from loopchar.braid import _alpha_pattern, _generator_image, braid_orbit
from loopchar.verify import _CLASS_TYPES
from loopchar.weyl import _min_coset_reps

TYPES = ["A3", "B3", "C3", "D4", "F4", "G2"]

ORBIT_CASES = (
    [
        (name, f"w[{i};a,0]")
        for name in _CLASS_TYPES
        for i in cartan_data(name).nodes
        if is_minuscule(cartan_data(name), i)
    ]
    + [(f"D{n}", "w[2;a,0]") for n in range(4, 9)]
    + [(f"B{n}", "w[1;a,0]") for n in range(2, 9)]
    + [("E8", "w[1;a,0]"), ("B3", "w[1;a,0]*w[3;a,5]")]
)


def test_rank_one_fixture():
    cd = cartan_data("A2")
    assert str(braid_act(cd, 1, fundamental_lweight(cd, 1))) == "w[1;a,2]^-1*w[2;a,1]"
    assert braid_act(cd, 1, fundamental_lweight(cd, 2)) == fundamental_lweight(cd, 2)


@pytest.mark.parametrize("label", TYPES)
def test_own_node_action_divides_by_the_loop_root(label):
    cd = cartan_data(label)
    for i in cd.nodes:
        for e in (-2, 0, 3):
            om = fundamental_lweight(cd, i, "a", e)
            assert braid_act(cd, i, om) == om * simple_lroot(cd, i, "a", e).inverse()


# Images pinned by hand, independently of the loop-root table: the own
# factor moves to k + 2*d_i inverted, and a neighbour j gains factors at
# k + d_i (a_ji = -1), k + 1, k + 3 (a_ji = -2) or k + 1, k + 3, k + 5
# (a_ji = -3).
PINNED_IMAGES = [
    ("B2", 1, "w[1;a,0]", "w[1;a,4]^-1*w[2;a,1]*w[2;a,3]"),
    ("B2", 2, "w[2;a,0]", "w[1;a,1]*w[2;a,2]^-1"),
    ("B2", 1, "w[1;a,0]^-1*w[1;a,4]*w[2;a,1]", "w[1;a,4]*w[1;a,8]^-1*w[2;a,3]^-1*w[2;a,5]*w[2;a,7]"),
    ("C3", 3, "w[3;a,0]", "w[2;a,1]*w[2;a,3]*w[3;a,4]^-1"),
    ("C3", 2, "w[2;a,0]", "w[1;a,1]*w[2;a,2]^-1*w[3;a,1]"),
    ("G2", 2, "w[2;a,0]", "w[1;a,1]*w[1;a,3]*w[1;a,5]*w[2;a,6]^-1"),
    ("G2", 1, "w[1;a,0]", "w[1;a,2]^-1*w[2;a,1]"),
    (
        "G2", 2, "w[1;a,0]*w[2;a,0]^2*w[2;a,6]*w[2;b,3]^-1",
        "w[1;a,0]*w[1;a,1]^2*w[1;a,3]^2*w[1;a,5]^2*w[1;a,7]*w[1;a,9]*w[1;a,11]"
        "*w[1;b,4]^-1*w[1;b,6]^-1*w[1;b,8]^-1*w[2;a,6]^-2*w[2;a,12]^-1*w[2;b,9]",
    ),
]


@pytest.mark.parametrize("label,i,text,image", PINNED_IMAGES)
def test_braid_act_multiply_laced_images(label, i, text, image):
    cd = cartan_data(label)
    assert str(braid_act(cd, i, parse_lweight(text))) == image


def test_braid_act_rejects_nodes_beyond_the_rank():
    cd = cartan_data("B2")
    for text in ("w[3;a,0]", "w[1;a,0]*w[3;a,0]", "w[2;a,0]*w[3;b,1]"):
        with pytest.raises(DomainError, match="node 3 out of range"):
            braid_act(cd, 1, parse_lweight(text))


@pytest.mark.parametrize("label", TYPES)
def test_distant_nodes_are_fixed(label):
    cd = cartan_data(label)
    for i in cd.nodes:
        for j in cd.nodes:
            if j != i and cd.a(i, j) == 0:
                om = fundamental_lweight(cd, j, "a", 1)
                assert braid_act(cd, i, om) == om


def test_word_application_is_right_to_left():
    cd = cartan_data("B3")
    pi = fundamental_lweight(cd, 2)
    assert braid_act_word(cd, (1, 2), pi) == braid_act(cd, 1, braid_act(cd, 2, pi))


def test_action_word_regressions():
    cd = cartan_data("D4")
    got = braid_act_word(cd, (2, 4, 3, 2, 1), fundamental_lweight(cd, 2))
    assert got == parse_lweight("w[1;a,1]*w[1;a,3]*w[2;a,4]^-1")

    cd = cartan_data("E8")
    word = (2, 3, 4, 5, 6, 7, 8, 5, 4, 3, 2, 6, 5, 4, 3, 8, 5, 4, 6, 7, 5, 6, 8, 5, 4, 3, 2)
    got = braid_act_word(cd, word, fundamental_lweight(cd, 2))
    assert got == parse_lweight("w[1;a,1]*w[1;a,9]*w[1;a,17]*w[2;a,18]^-1")


def fold_braid_act(cd, word, pi):
    """The word action as one braid_act per letter, rightmost first."""
    for i in reversed(word):
        pi = braid_act(cd, i, pi)
    return pi


def random_lweight(rng, cd):
    """Factors on a random subset of nodes, two orbits, powers of both signs."""
    nodes = rng.sample(list(cd.nodes), rng.randint(1, cd.rank))
    return LWeight.from_dict(
        {
            (rng.choice(nodes), rng.choice("ab"), rng.randint(-6, 6)): rng.choice((-2, -1, 1, 2, 3))
            for _ in range(rng.randint(1, 5))
        }
    )


@pytest.mark.parametrize("label", _CLASS_TYPES)
def test_word_kernel_matches_the_fold_of_braid_act(label):
    cd = cartan_data(label)
    rng = random.Random(label)
    for _ in range(25):
        pi = random_lweight(rng, cd)
        word = tuple(rng.choice(cd.nodes) for _ in range(rng.randint(0, 40)))
        assert braid_act_word(cd, word, pi) == fold_braid_act(cd, word, pi)
        # Letters off pi's nodes never fire, and pi comes back as it was.
        idle = [i for i in cd.nodes if i not in {j for (j, _, _), _ in pi.factors}]
        if idle:
            word = tuple(rng.choice(idle) for _ in range(rng.randint(1, 6)))
            assert braid_act_word(cd, word, pi) is pi


@pytest.mark.parametrize("label", ["A8", "B3", "C5", "D7", "E6", "E8", "F4", "G2"])
def test_word_kernel_on_the_longest_word(label):
    cd = cartan_data(label)
    word = longest_element(cd).word
    inputs = [fundamental_lweight(cd, i, "a", 2 * i) for i in cd.nodes]
    inputs.append(random_lweight(random.Random(label), cd))
    for pi in inputs:
        assert braid_act_word(cd, word, pi) == fold_braid_act(cd, word, pi)


def test_word_action_checks_every_node_up_front():
    cd = cartan_data("A2")
    with pytest.raises(DomainError, match="node 7 out of range"):
        braid_act_word(cd, (), parse_lweight("w[7;a,0]"))
    # Letter 3 would find no factor on its node; the check still applies.
    for word in ((3, 1), (1, 0), (-1,)):
        with pytest.raises(DomainError, match="out of range"):
            braid_act_word(cd, word, parse_lweight("w[2;a,0]"))


@pytest.mark.parametrize("word", [(1,), (1, 2), (2, 1, 2, 3), (1, 1), (1, 7)])
def test_a_word_read_from_an_iterator_acts_as_the_same_list(word):
    # A one-pass iterator is read once: checking its nodes must not use it up.
    cd = cartan_data("A3")
    pi = parse_lweight("w[1;a,0]")
    for act in (
        lambda w: str(braid_act_word(cd, w, pi)),
        lambda w: element_from_word(cd, w).word,
        lambda w: is_reduced_word(cd, w),
    ):
        try:
            want = act(list(word))
        except DomainError as exc:
            with pytest.raises(DomainError, match=re.escape(str(exc))):
                act(iter(word))
        else:
            assert act(iter(word)) == want


SEVERAL_FACTORS = [
    ("A2", "w[1;a,0]^2*w[2;a,1]^-3*w[1;b,4]^-2*w[2;b,-1]^3"),
    ("B3", "w[1;a,-2]^3*w[2;a,0]^-2*w[3;b,5]^2*w[3;a,1]^-3"),
    ("G2", "w[1;a,0]^-3*w[2;a,3]^2*w[1;b,1]^2*w[2;b,0]^-2"),
    ("D4", "w[1;a,0]^2*w[3;a,2]^-2*w[4;b,-3]^3*w[2;b,1]^-3"),
]


@pytest.mark.parametrize("label,text", SEVERAL_FACTORS)
def test_word_images_of_several_factors_on_two_orbits(label, text):
    cd = cartan_data(label)
    pi = parse_lweight(text)
    rng = random.Random(text)
    words = [longest_element(cd).word] + [
        tuple(rng.choice(cd.nodes) for _ in range(rng.randint(1, 12))) for _ in range(10)
    ]
    for word in words:
        want = fold_braid_act(cd, word, pi)
        assert braid_act_word(cd, word, pi) == want
        assert braid_act_word(cd, list(word), pi) == want


@pytest.mark.parametrize("word", [(1, 1), (1, 2, 1, 2, 1, 2), [2, 2, 1], [1, 2, 1, 2, 1, 2, 1, 2]])
def test_word_images_on_non_reduced_words(word):
    cd = cartan_data("A2")
    om = fundamental_lweight(cd, 1)
    for pi in (om, om * fundamental_lweight(cd, 2, "a", 3) ** -2, om ** 3):
        assert braid_act_word(cd, word, pi) == fold_braid_act(cd, word, pi)
    # T_1 squared is not the identity on w[1;a,0].
    assert str(braid_act_word(cd, (1, 1), om)) == "w[1;a,4]*w[2;a,1]*w[2;a,3]^-1"


def test_a_repeated_word_reads_its_images_from_the_cache():
    cd = cartan_data("C3")
    # A word no other test uses, so the first call misses on every node.
    word = (3, 2, 3, 1, 2, 3, 2, 1, 1, 3, 2, 1, 3)
    pi = parse_lweight("w[1;a,0]*w[3;a,2]^-2*w[1;b,-1]^3")
    want = fold_braid_act(cd, word, pi)
    before = _generator_image.cache_info()
    assert braid_act_word(cd, word, pi) == want
    first = _generator_image.cache_info()
    assert (first.misses - before.misses, first.hits - before.hits) == (2, 1)
    assert braid_act_word(cd, list(word), pi) == want
    second = _generator_image.cache_info()
    assert (second.misses - first.misses, second.hits - first.hits) == (0, 3)
    assert second.maxsize == 4096


def test_pi_comes_back_as_itself_when_no_letter_fires():
    cd = cartan_data("D4")
    pi = parse_lweight("w[1;a,0]^2*w[3;b,1]^-3")
    for word in ((), (2,), [4, 2, 4], (2, 4, 2, 4)):
        assert braid_act_word(cd, word, pi) is pi
    assert braid_act_word(cd, (1,), pi) is not pi


def test_a_refused_word_or_weight_reads_no_cache():
    cd = cartan_data("A3")
    om = parse_lweight("w[1;a,0]")
    true_node = LWeight((((True, "a", 0), 1),))
    refused = [
        lambda: braid_act_word(cd, (1, 4), om),
        lambda: braid_act_word(cd, (True, 2), om),
        lambda: braid_act_word(cd, [1, 2.0], om),
        lambda: braid_act_word(cd, (1, 2), parse_lweight("w[4;a,0]")),
        lambda: braid_act_word(cd, (1, 2), parse_lweight("w[1;a,0]*w[5;b,1]")),
        lambda: braid_act_word(cd, (1, 2), true_node),
        lambda: braid_orbit(cd, true_node),
        lambda: min_coset_reps(cd, (True, 0, 0)),
        lambda: min_coset_reps(cd, (1, -1, 0)),
    ]
    before = (_generator_image.cache_info(), _min_coset_reps.cache_info())
    for call in refused:
        with pytest.raises(DomainError):
            call()
    assert (_generator_image.cache_info(), _min_coset_reps.cache_info()) == before


def test_coset_reps_come_back_in_a_fresh_list():
    cd = cartan_data("B3")
    lam = (0, 1, 0)
    reps = min_coset_reps(cd, lam)
    want = list(reps)
    reps.reverse()
    reps.append(reps[0])
    del reps[1]
    again = min_coset_reps(cd, lam)
    assert again == want and again is not reps
    assert [w.word for w in again] == [w.word for w in want]
    assert _min_coset_reps.cache_info().maxsize == 32


@pytest.mark.parametrize("label,text", ORBIT_CASES)
def test_braid_orbit_matches_words_of_coset_reps(label, text):
    cd = cartan_data(label)
    pi = parse_lweight(text)
    lam = weight_of(cd, pi)
    expected = {w.apply(lam): braid_act_word(cd, w.word, pi) for w in min_coset_reps(cd, lam)}
    assert braid_orbit(cd, pi) == expected


def test_braid_orbit_rejects_a_non_dominant_weight():
    cd = cartan_data("A2")
    with pytest.raises(DomainError):
        braid_orbit(cd, parse_lweight("w[1;a,0]*w[2;a,1]^-1"))


def test_simple_lroot_fixtures():
    g2 = cartan_data("G2")
    assert str(simple_lroot(g2, 1)) == "w[1;a,0]*w[1;a,2]*w[2;a,1]^-1"
    assert (
        str(simple_lroot(g2, 2))
        == "w[1;a,1]^-1*w[1;a,3]^-1*w[1;a,5]^-1*w[2;a,0]*w[2;a,6]"
    )
    b2 = cartan_data("B2")
    assert str(simple_lroot(b2, 1)) == "w[1;a,0]*w[1;a,4]*w[2;a,1]^-1*w[2;a,3]^-1"
    assert str(simple_lroot(b2, 2)) == "w[1;a,1]^-1*w[2;a,0]*w[2;a,2]"


def coeff_strategy(cd):
    key = st.tuples(
        st.sampled_from(list(cd.nodes)),
        st.sampled_from(["a", "b"]),
        st.integers(min_value=-4, max_value=4),
    )
    return st.dictionaries(
        key, st.integers(min_value=-3, max_value=3).filter(lambda c: c != 0), max_size=5
    )


@settings(deadline=None, max_examples=50)
@given(st.tuples(*(coeff_strategy(cartan_data(label)) for label in _CLASS_TYPES)))
def test_decompose_inverts_expand(draws):
    # Every example holds one coefficient set per class type, so all 21
    # types are covered; 50 examples keep the test near 2 s.
    for label, coeffs in zip(_CLASS_TYPES, draws):
        cd = cartan_data(label)
        pi = expand_lroots(cd, coeffs)
        got = lroot_decompose(cd, pi)
        assert got is not None
        assert {k: c for k, c in got.items() if c} == coeffs


# The braid order m_ij from a_ij * a_ji = 0, 1, 2, 3.
_BRAID_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


@st.composite
def _braid_relation_case(draw, cd):
    """Words u, v, nodes i != j with the two alternating runs of length
    m_ij, and a small loop weight on two orbits."""
    nodes = st.sampled_from(list(cd.nodes))
    words = st.lists(nodes, max_size=4).map(tuple)
    u, v = draw(words), draw(words)
    i, j = draw(st.sampled_from([(i, j) for i in cd.nodes for j in cd.nodes if i != j]))
    m = _BRAID_ORDER[cd.a(i, j) * cd.a(j, i)]
    ij = tuple((i, j)[t % 2] for t in range(m))
    ji = tuple((j, i)[t % 2] for t in range(m))
    key = st.tuples(nodes, st.sampled_from(["a", "b"]), st.integers(min_value=-4, max_value=4))
    powers = draw(st.dictionaries(key, st.integers(min_value=-2, max_value=2).filter(bool), max_size=3))
    return u + ij + v, u + ji + v, LWeight.from_dict(powers)


# A1 has no pair of distinct nodes.
_BRAID_TYPES = tuple(label for label in _CLASS_TYPES if label != "A1")


@settings(deadline=None, max_examples=20)
@given(st.tuples(*(_braid_relation_case(cartan_data(label)) for label in _BRAID_TYPES)))
def test_braid_relations_hold_on_random_words(draws):
    # Every example holds one case per class type of rank at least 2.
    for label, (left, right, pi) in zip(_BRAID_TYPES, draws):
        cd = cartan_data(label)
        assert braid_act_word(cd, left, pi) == braid_act_word(cd, right, pi)


@settings(deadline=None)
@given(st.sampled_from(TYPES), st.data())
def test_sign_constraints_filter_mixed_solutions(label, data):
    cd = cartan_data(label)
    coeffs = data.draw(coeff_strategy(cd))
    pi = expand_lroots(cd, coeffs)
    plus = lroot_decompose(cd, pi, sign="+")
    minus = lroot_decompose(cd, pi, sign="-")
    assert (plus is not None) == all(c >= 0 for c in coeffs.values())
    assert (minus is not None) == all(c <= 0 for c in coeffs.values())


def _dense_decompose(cd, pi, sign):
    # The walk over every exponent level x every node, from the lowest
    # exponent to two below the highest, that the heap of occupied levels
    # replaced: kept as its oracle.
    coeffs = {}
    by_orbit = {}
    for (j, a, k), p in pi.factors:
        by_orbit.setdefault(a, {})[(j, k)] = p
    for orbit, work in by_orbit.items():
        top = max(k for _, k in work)
        level = min(k for _, k in work)
        while level <= top - 2:
            for j in cd.nodes:
                c = work.get((j, level), 0)
                if not c:
                    continue
                coeffs[(j, orbit, level)] = c
                for (node, off), v in _alpha_pattern(cd, j):
                    key = (node, level + off)
                    nv = work.get(key, 0) - c * v
                    if nv:
                        work[key] = nv
                    else:
                        work.pop(key, None)
            level += 1
        if work:
            return None
    if sign == "+" and any(c < 0 for c in coeffs.values()):
        return None
    if sign == "-" and any(c > 0 for c in coeffs.values()):
        return None
    return coeffs


def _peel_cases(cd, spread, rng):
    # A loop-root product on orbits a and b with exponents in a window of
    # the given spread, its coefficients all positive, all negative or
    # mixed, and the same product times one or two stray factors.
    base = rng.randint(-8, 8)
    kind = rng.choice(((1,), (-1,), (-1, 1)))
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        key = (rng.randint(1, cd.rank), rng.choice("ab"), rng.randint(base, base + spread - 1))
        coeffs[key] = rng.choice(kind) * rng.randint(1, 3)
    member = expand_lroots(cd, coeffs)
    stray = {}
    for _ in range(rng.randint(1, 2)):
        key = (rng.randint(1, cd.rank), rng.choice("ab"), rng.randint(base, base + spread + 1))
        stray[key] = rng.choice((-2, -1, 1, 2))
    return member, member * LWeight.from_dict(stray)


@pytest.mark.parametrize("label", _CLASS_TYPES)
def test_level_heap_peel_matches_the_dense_walk(label):
    # Same coefficient maps in the same insertion order, or None on both
    # sides, for every sign; spreads 1, 2, 4, ..., 2048.
    cd = cartan_data(label)
    rng = random.Random(f"peel {label}")
    members = 0
    for spread in (2**e for e in range(12)):
        for _ in range(3):
            for pi in _peel_cases(cd, spread, rng):
                for sign in ("any", "+", "-"):
                    want = _dense_decompose(cd, pi, sign)
                    got = lroot_decompose(cd, pi, sign)
                    assert (got is None) == (want is None), (pi, sign)
                    if got is not None:
                        assert list(got.items()) == list(want.items()), (pi, sign)
                        members += 1
    assert members >= 36


def test_level_heap_peel_takes_late_nodes_in_order():
    # Level 1 holds w[4;a,1] from pi before the peel of alpha_2 at level 0
    # writes node 1 there; the coefficients still come node by node.
    cd = cartan_data("A5")
    pi = expand_lroots(cd, {(2, "a", 0): 1, (1, "a", 1): 1, (4, "a", 1): 1})
    want = [((2, "a", 0), 1), ((1, "a", 1), 1), ((4, "a", 1), 1)]
    assert list(_dense_decompose(cd, pi, "any").items()) == want
    assert list(lroot_decompose(cd, pi).items()) == want


def test_decompose_rejects_non_lattice_points():
    cd = cartan_data("A2")
    assert lroot_decompose(cd, fundamental_lweight(cd, 1)) is None
    assert lroot_decompose(cd, parse_lweight("w[1;a,0]*w[1;a,2]")) is None


def test_decompose_rejects_bad_sign_keyword():
    cd = cartan_data("A2")
    with pytest.raises(DomainError):
        lroot_decompose(cd, LWeight.identity(), sign="nonneg")


def test_cone_check_fixtures():
    cd = cartan_data("A2")
    om = fundamental_lweight(cd, 1)
    assert cone_check(cd, om, om)
    assert cone_check(cd, om, om * simple_lroot(cd, 1).inverse())
    assert not cone_check(cd, om, om * simple_lroot(cd, 1))
    assert not cone_check(cd, om, fundamental_lweight(cd, 2))
    with pytest.raises(DomainError):
        cone_check(cd, om.inverse(), om)


def _cone_cases(cd, spread, rng, shift=0):
    # A dominant omega with exponents in a window of the given spread on
    # orbits a and b, moved up by shift; pi is omega times a negative
    # loop-root product in the same window, or a random loop weight there.
    base = shift + rng.randint(-8, 8)

    def key():
        return (rng.randint(1, cd.rank), rng.choice("ab"), rng.randint(base, base + spread - 1))

    omega = LWeight.from_dict({key(): rng.randint(1, 2) for _ in range(rng.randint(1, 3))})
    below = omega
    for _ in range(rng.randint(1, 3)):
        j, a, k = key()
        below = below * simple_lroot(cd, j, a, k) ** -rng.randint(1, 2)
    other = LWeight.from_dict({key(): rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 4))})
    return (omega, below), (omega, other)


@pytest.mark.parametrize("label", _CLASS_TYPES)
def test_cone_check_matches_the_certificate(label):
    # Spreads from 1 to four shift periods 2·lacing·h∨.  The answer must be
    # whether the unconstrained certificate exists with no positive
    # coefficient.  Then each case is joined with another 10^12 levels
    # above it: coefficients are forced, so the joined ratio is below
    # omega exactly when both halves are, and the peel must answer
    # without walking the gap.
    cd = cartan_data(label)
    period = 2 * cd.lacing * cd.dual_coxeter
    rng = random.Random(f"cone {label}")
    cases = []
    for spread in sorted({1, 2, period // 2, period, period + 1, 2 * period, 4 * period}):
        for _ in range(4):
            for built, (omega, pi) in zip((True, False), _cone_cases(cd, spread, rng)):
                got = cone_check(cd, omega, pi)
                cert = lroot_decompose(cd, pi * omega.inverse())
                assert got == (cert is not None and all(c <= 0 for c in cert.values())), (omega, pi)
                assert got or not built, (omega, pi)
                cases.append((spread, omega, pi, got))
    assert any(got for *_, got in cases) and not all(got for *_, got in cases)
    for spread, omega, pi, got in cases:
        for (far_omega, far_pi), far_got in zip(
            _cone_cases(cd, spread, rng, 10**12), (True, None)
        ):
            if far_got is None:
                far_got = cone_check(cd, far_omega, far_pi)
            assert cone_check(cd, omega * far_omega, pi * far_pi) == (got and far_got)


def test_cone_check_at_a_huge_spread():
    # E8's shift period is 60.  The first ratio lies outside the loop-root
    # lattice; the second lies in it, and its peel meets a positive
    # coefficient within a few levels; the third is a member two loop
    # roots apart.
    cd = cartan_data("E8")
    om = fundamental_lweight(cd, 4)
    assert not cone_check(cd, om, parse_lweight("w[4;a,1000000000001]"))
    assert not cone_check(cd, om, parse_lweight("w[4;a,600000000000]"))
    far = om * simple_lroot(cd, 4, "a", 10**12).inverse() * simple_lroot(cd, 2).inverse()
    assert cone_check(cd, om, far)


def test_a_sign_constraint_stops_at_the_first_wrong_coefficient():
    # The ratio lies in the loop-root lattice with coefficients of both
    # signs spread over 6·10^11 levels; either constraint refuses it
    # without walking them.
    cd = cartan_data("E8")
    ratio = parse_lweight("w[4;a,0]^-1*w[4;a,600000000000]")
    assert lroot_decompose(cd, ratio, "-") is None
    assert lroot_decompose(cd, ratio, "+") is None
    assert lroot_decompose(cd, ratio.inverse(), "-") is None
    assert lroot_decompose(cd, ratio.inverse(), "+") is None


def test_twist_matches_the_inverse_dual():
    for label in ("A4", "B3", "C4", "D5", "G2"):
        cd = cartan_data(label)
        for i in cd.nodes:
            om = fundamental_lweight(cd, i)
            assert twist_by_w0(cd, om) == dual_lweight(cd, om).inverse()
    g2 = cartan_data("G2")
    assert str(twist_by_w0(g2, fundamental_lweight(g2, 1))) == "w[1;a,12]^-1"


def test_twist_needs_dominant_input():
    cd = cartan_data("A2")
    with pytest.raises(DomainError):
        twist_by_w0(cd, fundamental_lweight(cd, 1).inverse())
