"""Tests for q-character construction."""

import hashlib

import pytest

from loopchar import (
    DomainError,
    LCharacter,
    LWeight,
    Sl2String,
    cartan_data,
    cone_check,
    cyclicity_order,
    dn_node2_char,
    elliptic_class,
    fundamental_char,
    fundamental_lweight,
    fundamental_weight,
    is_minuscule,
    minuscule_char,
    parse_lweight,
    positive_roots,
    simple_lroot,
    sl2_eval_char,
    sl2_tensor_irreducible,
    tensor_char,
    trivial_sets,
    weight_of,
    weight_projection,
    weyl_module_dim,
    zero_weight,
)
from loopchar import braid, cli, errors, qchar, weyl
from loopchar.braid import braid_orbit
from loopchar.verify import _CLASS_TYPES
from loopchar.weyl import dominance_diff


def test_sl2_string_exponents():
    s = Sl2String(("a", 0), 3)
    assert s.exps == (2, 0, -2)
    assert s.lweight() == parse_lweight("w[1;a,-2]*w[1;a,0]*w[1;a,2]")
    assert Sl2String(("a", 0), 0).exps == ()
    with pytest.raises(DomainError):
        Sl2String(("a", 0), -1)


def test_a_string_too_long_to_hold_refuses_its_exponents_and_weight(monkeypatch):
    # The cap is lowered, so a regressed check builds 6 entries, not 10**10.
    monkeypatch.setattr(errors, "MAX_SIZE", 5)
    s = Sl2String(("a", 0), 6)
    for read in (lambda: s.exps, s.lweight):
        with pytest.raises(DomainError, match="exponents of a string of length 6 would number 6, more than the size cap of 5"):
            read()
    assert Sl2String(("a", 1), 5).exps == (5, 3, 1, -1, -3)
    assert Sl2String(("a", 1), 5).lweight() == parse_lweight("w[1;a,-3]*w[1;a,-1]*w[1;a,1]*w[1;a,3]*w[1;a,5]")


def test_a_long_string_is_made_and_tested_without_its_exponents(monkeypatch):
    monkeypatch.setattr(errors, "MAX_SIZE", 5)
    long = Sl2String(("a", 0), 10**10)
    assert long.m == 10**10
    assert sl2_tensor_irreducible([long, Sl2String(("a", 1), 1)])
    assert not sl2_tensor_irreducible([long, Sl2String(("a", 10**10 + 1), 1)])
    with pytest.raises(DomainError, match="would number 10000000000, more than the size cap of 5"):
        long.lweight()


@pytest.mark.parametrize(
    "m, message",
    [(m, "must be an integer") for m in (True, False, 2.0, "3", None)]
    + [(-1, "must be nonnegative, got -1")],
)
def test_string_lengths_must_be_plain_nonnegative_integers(m, message):
    for build in (sl2_eval_char, Sl2String):
        with pytest.raises(DomainError, match=f"string length {message}"):
            build(("a", 0), m)


def test_sl2_char_fixture():
    c = sl2_eval_char(("a", 1), 2)
    assert c.dimension == 3
    assert c.text() == (
        "1 * w[1;a,0]*w[1;a,2]\n"
        "1 * w[1;a,0]*w[1;a,4]^-1\n"
        "1 * w[1;a,2]^-1*w[1;a,4]^-1"
    )


@pytest.mark.parametrize("m", list(range(41)) + [100, 256])
def test_sl2_char_matches_the_string_quotients(m):
    """Term r is the string (e-r, m-r) divided by the string (e+m-r+2, r)."""
    for orbit in ("a", "b"):
        for e in range(-13, 14):
            expected = LCharacter.from_dict(
                {
                    Sl2String((orbit, e - r), m - r).lweight()
                    * Sl2String((orbit, e + m - r + 2), r).lweight().inverse(): 1
                    for r in range(m + 1)
                }
            )
            assert sl2_eval_char((orbit, e), m) == expected


def test_sl2_char_degenerate_cases():
    assert sl2_eval_char(("a", 5), 0).dimension == 1
    c = sl2_eval_char(("b", 0), 1)
    assert c.text() == "1 * w[1;b,0]\n1 * w[1;b,2]^-1"


def test_sl2_tensor_irreducibility_fixtures():
    def strings(*pairs):
        return [Sl2String(p, m) for m, p in pairs]

    assert not sl2_tensor_irreducible(strings((1, ("a", 0)), (1, ("a", 2))))
    assert sl2_tensor_irreducible(strings((1, ("a", 0)), (1, ("a", 4))))
    assert sl2_tensor_irreducible(strings((1, ("a", 0)), (1, ("a", 3))))
    assert not sl2_tensor_irreducible(strings((2, ("a", 0)), (2, ("a", 4))))
    assert sl2_tensor_irreducible(strings((2, ("a", 0)), (2, ("a", 6))))
    assert sl2_tensor_irreducible(strings((3, ("a", 0)), (1, ("a", 2))))
    assert not sl2_tensor_irreducible(strings((3, ("a", 0)), (1, ("a", 4))))


@pytest.mark.parametrize(
    "factors",
    [
        [(1, ("a", "x")), (1, ("a", 0))],
        [(1, ("a", 1.5))],
        [(1, ("a b", 0))],
        [(1, ("a", True))],
        [(0, ("a", 0))],
        [(1.0, ("a", 0))],
        [(True, ("a", 0))],
    ],
)
def test_cyclicity_order_refuses_malformed_factors(factors):
    with pytest.raises(DomainError):
        cyclicity_order(factors)


@pytest.mark.parametrize("factor", [1, (1,), None, (1, ("a", 0), 0)], ids=repr)
def test_cyclicity_order_refuses_a_factor_that_is_not_a_pair(factor):
    with pytest.raises(DomainError, match=r"\(node, parameter\) pair") as err:
        cyclicity_order([(1, ("a", 0)), factor])
    assert repr(factor) in str(err.value)


def test_cyclicity_order_fixture():
    order = cyclicity_order([(1, ("a", 0)), (1, ("a", 4)), (1, ("a", 2))])
    assert order == (1, 2, 0)


MINUSCULE_NODES = {
    "A4": [1, 2, 3, 4],
    "B3": [3],
    "C3": [1],
    "D4": [1, 3, 4],
    "D5": [1, 4, 5],
    "E6": [1, 5],
    "E7": [1],
    "G2": [],
    "F4": [],
}


@pytest.mark.parametrize("label", sorted(MINUSCULE_NODES))
def test_minuscule_node_lists(label):
    cd = cartan_data(label)
    assert [i for i in cd.nodes if is_minuscule(cd, i)] == MINUSCULE_NODES[label]


def test_minuscule_char_dimensions():
    for label, i, dim in (("A3", 2, 6), ("B3", 3, 8), ("C3", 1, 6), ("D4", 1, 8)):
        cd = cartan_data(label)
        assert minuscule_char(cd, i, ("a", 0)).dimension == dim


def test_minuscule_char_rejects_other_nodes():
    cd = cartan_data("B3")
    with pytest.raises(DomainError):
        minuscule_char(cd, 1, ("a", 0))


def test_minuscule_char_terms_sit_in_the_cone():
    cd = cartan_data("D4")
    top = fundamental_lweight(cd, 3, "a", 2)
    c = minuscule_char(cd, 3, ("a", 2))
    assert c.multiplicity(top) == 1
    for pi in c.to_dict():
        assert cone_check(cd, top, pi)


def test_minuscule_weights_form_one_orbit():
    cd = cartan_data("A3")
    c = minuscule_char(cd, 2, ("a", 0))
    proj = weight_projection(cd, c)
    assert len(proj) == 6
    assert set(proj.values()) == {1}
    assert proj[(0, 1, 0)] == 1
    assert proj[(0, -1, 0)] == 1


def test_fundamental_char_matches_minuscule_descent():
    b3 = cartan_data("B3")
    assert fundamental_char(b3, 3, ("a", 0), {(0, 0, 1): 1}) == minuscule_char(
        b3, 3, ("a", 0)
    )


def test_fundamental_char_vector_rep_fixture():
    b2 = cartan_data("B2")
    c = fundamental_char(b2, 1, ("a", 0), {(1, 0): 1, (0, 0): 1})
    assert c.dimension == 5
    assert c.text() == (
        "1 * w[1;a,0]\n"
        "1 * w[1;a,2]*w[2;a,3]^-1*w[2;a,5]^-1\n"
        "1 * w[1;a,4]^-1*w[2;a,1]*w[2;a,3]\n"
        "1 * w[1;a,6]^-1\n"
        "1 * w[2;a,1]*w[2;a,5]^-1"
    )


def test_fundamental_char_rejects_exceptional_types():
    with pytest.raises(DomainError):
        fundamental_char(cartan_data("G2"), 1, ("a", 0), {(1, 0): 1, (0, 0): 2})


def test_fundamental_char_checks_the_table():
    b2 = cartan_data("B2")
    with pytest.raises(DomainError):
        fundamental_char(b2, 1, ("a", 0), {(0, 1): 1})
    with pytest.raises(DomainError):
        fundamental_char(b2, 1, ("a", 0), {(1, 0, 0): 1})


def test_dn_node2_dimensions():
    assert [dn_node2_char(n, ("a", 0)).dimension for n in (4, 5, 6)] == [29, 46, 67]


def test_dn_node2_weight_layout():
    n = 4
    cd = cartan_data("D4")
    proj = weight_projection(cd, dn_node2_char(n, ("a", 0)))
    def to_weight(beta):
        return tuple(
            sum(cd.a(i, j) * beta[j - 1] for j in cd.nodes) for i in cd.nodes
        )

    roots = {to_weight(b) for b in positive_roots(cd)}
    neg = {tuple(-x for x in b) for b in roots}
    assert proj[(0,) * n] == n + 1
    for b in roots | neg:
        assert proj[b] == 1
    assert sum(proj.values()) == n * (2 * n - 1) + 1


def test_dn_node2_single_block():
    cd = cartan_data("D5")
    c = dn_node2_char(5, ("a", 1))
    ref = elliptic_class(cd, fundamental_lweight(cd, 2, "a", 1))
    for pi in c.to_dict():
        assert elliptic_class(cd, pi) == ref


def test_tensor_char_multiplies_dimensions():
    c1 = sl2_eval_char(("a", 0), 1)
    c2 = sl2_eval_char(("a", 3), 2)
    prod = tensor_char(c1, c2)
    assert prod.dimension == c1.dimension * c2.dimension
    assert prod == c1 * c2


def test_weight_of_each_char_term_is_consistent():
    cd = cartan_data("C3")
    c = minuscule_char(cd, 1, ("a", 0))
    proj = weight_projection(cd, c)
    rebuilt = {}
    for pi, m in c.to_dict().items():
        w = weight_of(cd, pi)
        rebuilt[w] = rebuilt.get(w, 0) + m
    assert rebuilt == proj


def test_weyl_module_dim_is_multiplicative():
    cd = cartan_data("B3")
    om = parse_lweight("w[1;a,0]*w[3;a,2]^2")
    assert weyl_module_dim(cd, om, {1: 7, 3: 8}) == 7 * 64
    with pytest.raises(DomainError):
        weyl_module_dim(cd, om, {1: 7})


@pytest.mark.parametrize("dim", [2.5, 0, -3, True, "7", None])
def test_weyl_module_dim_refuses_a_dimension_that_is_not_a_positive_int(dim):
    cd = cartan_data("B3")
    om = parse_lweight("w[1;a,0]*w[3;a,2]^2")
    with pytest.raises(DomainError, match="node 1 must be a positive int"):
        weyl_module_dim(cd, om, {1: dim, 3: 8})


@pytest.mark.parametrize("text", ["w[1;a,0]^-1", "w[1;a,0]^-1*w[1;a,2]"])
def test_weyl_module_dim_refuses_a_loop_weight_that_is_not_dominant(text):
    # The first once returned 1/7 and the second, of weight zero, returned 1.
    with pytest.raises(DomainError, match="dominant"):
        weyl_module_dim(cartan_data("B3"), parse_lweight(text), {1: 7})


# sha256 over the str() of the characters of ``_pinned_chars``, one per line,
# recorded before braid words and orbit walks read per-type tables.
_PINNED_SHA256 = "82bc9b3059c80f57b6f7d464a72f9af41335b42360d7619a3bfada09570d3bb8"


def _pinned_chars():
    """(type, node, character) for each pinned character."""
    for p in (("a", 0), ("b", -5)):
        for name in _CLASS_TYPES:
            cd = cartan_data(name)
            for i in cd.nodes:
                if is_minuscule(cd, i):
                    yield cd, i, minuscule_char(cd, i, p)
        for n in range(4, 9):
            cd = cartan_data(f"D{n}")
            yield cd, 2, fundamental_char(cd, 2, p, weight_projection(cd, dn_node2_char(n, ("a", 0))))
        for n in range(2, 9):
            cd = cartan_data(f"B{n}")
            yield cd, 1, fundamental_char(cd, 1, p, {fundamental_weight(cd, 1): 1, zero_weight(cd): 1})


def test_braid_orbit_characters_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for _cd, _node, char in _pinned_chars():
        digest.update(str(char).encode() + b"\n")
        count += 1
    assert count == 94
    assert digest.hexdigest() == _PINNED_SHA256


# Reference builds straight at the spectral parameter p, as the character
# builders did before they translated a template built at ("a", 0).


def _ref_minuscule_char(cd, i, p):
    top = fundamental_lweight(cd, i, *p)
    return LCharacter.from_dict(dict.fromkeys(braid_orbit(cd, top).values(), 1))


def _ref_dn_core_term(n, j, orbit, e):
    powers = {}

    def put(node, exp, sign):
        if node >= 1:
            key = (node, orbit, e + exp)
            powers[key] = powers.get(key, 0) + sign

    if j <= n - 2:
        put(j - 1, j + 1, -1)
        put(j - 1, 2 * n - j - 3, +1)
        put(j, j, +1)
        put(j, 2 * n - j - 2, -1)
    else:
        put(j, n - 3, +1)
        put(j, n + 1, -1)
    return LWeight.from_dict(powers)


def _ref_dn_node2_char(n, p):
    cd = cartan_data(f"D{n}")
    terms = {}
    for pi in braid_orbit(cd, fundamental_lweight(cd, 2, *p)).values():
        terms[pi] = terms.get(pi, 0) + 1
    for j in range(1, n + 1):
        core = _ref_dn_core_term(n, j, *p)
        terms[core] = terms.get(core, 0) + (2 if j == n - 2 else 1)
    return LCharacter.from_dict(terms)


def _ref_fundamental_char(cd, i, p, table):
    """The descent at p, for tables that pin every multiplicity."""
    top = fundamental_lweight(cd, i, *p)
    top_wt = fundamental_weight(cd, i)

    def height(lam):
        return sum(dominance_diff(cd, top_wt, lam))

    bounds, settled, done, terms = {}, {top_wt: {top: 1}}, set(), {}
    while open_levels := (set(settled) | set(bounds)) - done:
        lam = min(open_levels, key=lambda w: (height(w), w))
        done.add(lam)
        if lam not in settled:
            cand, want = bounds[lam], table[lam]
            if len(cand) == 1:
                settled[lam] = {next(iter(cand)): want}
            else:
                if sum(cand.values()) != want:
                    raise ValueError(f"ambiguous table at {lam}")
                settled[lam] = dict(cand)
        for pi, mult in settled[lam].items():
            for term in braid_orbit(cd, pi).values():
                terms[term] = terms.get(term, 0) + mult
                qchar._discover(cd, term, weight_of(cd, term), mult, bounds)
    return LCharacter.from_dict(terms)


# ("Z", 10**12) renames across the orbit order ("Z" < "a") at a huge exponent.
_PARAMS = [("a", 0), ("b", -5), ("c1", 17), ("a", -10**6), ("Z", 10**12)]


def _d_table(n):
    cd = cartan_data(f"D{n}")
    return weight_projection(cd, _ref_dn_node2_char(n, ("a", 0)))


def _b_table(n):
    cd = cartan_data(f"B{n}")
    return {fundamental_weight(cd, 1): 1, zero_weight(cd): 1}


@pytest.mark.parametrize("p", _PARAMS)
def test_translated_minuscule_chars_match_the_build_at_p(p):
    for name in _CLASS_TYPES:
        cd = cartan_data(name)
        for i in cd.nodes:
            if is_minuscule(cd, i):
                assert minuscule_char(cd, i, p) == _ref_minuscule_char(cd, i, p), (name, i)


@pytest.mark.parametrize("p", _PARAMS)
def test_translated_dn_node2_chars_match_the_build_at_p(p):
    for n in range(4, 9):
        assert dn_node2_char(n, p) == _ref_dn_node2_char(n, p), n


@pytest.mark.parametrize("p", _PARAMS)
def test_translated_descents_match_the_build_at_p(p):
    for n in range(4, 9):
        cd, table = cartan_data(f"D{n}"), _d_table(n)
        assert fundamental_char(cd, 2, p, table) == _ref_fundamental_char(cd, 2, p, table), n
    for n in range(2, 9):
        cd, table = cartan_data(f"B{n}"), _b_table(n)
        assert fundamental_char(cd, 1, p, table) == _ref_fundamental_char(cd, 1, p, table), n


def test_translation_reuses_the_cached_template():
    e6, d5 = cartan_data("E6"), cartan_data("D5")
    table = _d_table(5)
    cache = qchar._fundamental_template
    for build in (
        lambda p: minuscule_char(e6, 1, p),
        lambda p: dn_node2_char(5, p),
        lambda p: fundamental_char(d5, 2, p, table),
    ):
        build(("a", 3))
        before = cache.cache_info()
        build(("b", -11))
        after = cache.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 1


@pytest.mark.parametrize(
    "label, node", [("A5", 3), ("B4", 4), ("C4", 1), ("D6", 1), ("D6", 5), ("D7", 7), ("D4", 2), ("D7", 2)]
)
def test_the_fixed_tables_share_the_callers_template(label, node):
    # minuscule_char and dn_node2_char are the descent from their fixed
    # table, so fundamental_char with that table reads the same entry.
    cd = cartan_data(label)
    cache = qchar._fundamental_template
    cache.cache_clear()
    if is_minuscule(cd, node):
        table = {fundamental_weight(cd, node): 1}
        first = minuscule_char(cd, node, ("b", 2))
    else:
        table = {fundamental_weight(cd, 2): 1, zero_weight(cd): cd.rank + 1}
        first = dn_node2_char(cd.rank, ("b", 2))
    assert (cache.cache_info().hits, cache.cache_info().misses) == (0, 1)
    assert fundamental_char(cd, node, ("b", 2), table) == first
    assert (cache.cache_info().hits, cache.cache_info().misses) == (1, 1)
    assert cache.cache_info().currsize == 1


def test_the_shift_plan_is_made_by_the_first_translation_and_kept():
    e6 = cartan_data("E6")
    qchar._fundamental_template.cache_clear()
    minuscule_char(e6, 5, ("a", 0))
    template = qchar._fundamental_template(e6, 5, ((fundamental_weight(e6, 5), 1),))
    assert template.plan is None
    minuscule_char(e6, 5, ("b", 1))
    plan = template.plan
    assert plan is not None and len(plan.pairs) < sum(len(pi.factors) for pi, _ in template.char.terms)
    minuscule_char(e6, 5, ("c", -2))
    assert template.plan is plan


@pytest.mark.parametrize("label", ["A4", "B3", "B4", "C3", "C4", "D4", "D5", "G2"])
def test_orbit_heights_match_the_root_coordinates(label):
    # The descent orders its levels by these heights, read off the orbit
    # walk.  Oracle: the root coordinates of lam - mu from one integer solve.
    cd = cartan_data(label)
    rho = tuple([1] * cd.rank)
    doubled = tuple(2 * c for c in fundamental_weight(cd, 1))
    for lam in [fundamental_weight(cd, i) for i in cd.nodes] + [rho, doubled]:
        heights = qchar._orbit_heights(cd, lam, 7)
        assert set(heights) == set(braid_orbit(cd, LWeight.from_dict(
            {(i, "a", 0): c for i, c in enumerate(lam, start=1) if c}
        )))
        for mu, height in heights.items():
            assert height == 7 + sum(dominance_diff(cd, lam, mu)), (lam, mu)


# The levels of each descent below that find no child: the weight 0, or
# a minuscule weight.
_LEAVES = {
    "B3": [(0, 0, 0)],
    "B4": [(0, 0, 0, 0)],
    "C3": [(1, 0, 0)],
    "D6": [(0,) * 6],
    "A3": [(0, 1, 0)],
    "E6": [(1, 0, 0, 0, 0, 0)],
}


@pytest.mark.parametrize(
    "label,node,table",
    [
        ("B3", 2, {(0, 1, 0): 1, (1, 0, 0): 1, (0, 0, 0): 4}),
        ("B4", 2, {(0, 1, 0, 0): 1, (1, 0, 0, 0): 1, (0, 0, 0, 0): 5}),
        ("C3", 3, {(0, 0, 1): 1, (1, 0, 0): 1}),
        ("D6", 2, None),
        ("A3", 2, {(0, 1, 0): 1}),
        ("E6", 1, {(1, 0, 0, 0, 0, 0): 1}),
    ],
)
def test_every_level_is_walked_at_its_height(label, node, table, monkeypatch):
    # Each level that finds a child is walked from the height its
    # discoverer gave it; a level that finds none is not walked.
    # Oracle: the root coordinates of top - lam.
    cd = cartan_data(label)
    table = table or _d_table(cd.rank)
    walked, real = [], qchar._orbit_heights

    def spy(cd, lam, height):
        walked.append((lam, height))
        return real(cd, lam, height)

    monkeypatch.setattr(qchar, "_orbit_heights", spy)
    qchar._fundamental_template.__wrapped__(cd, node, tuple(sorted(table.items())))
    top = fundamental_weight(cd, node)
    levels = sorted(lam for lam in table if min(lam) >= 0)
    assert sorted(lam for lam, _ in walked) == [lam for lam in levels if lam not in _LEAVES[label]]
    for lam, height in walked:
        assert height == sum(dominance_diff(cd, top, lam)), lam


def test_discovery_skips_only_terms_that_find_nothing():
    # The descent runs no discovery on a term whose weight has no
    # coordinate 2, nor on the weight 0 or a minuscule top.  Each such
    # term of the pinned characters finds no child.
    skipped = 0
    for cd, node, char in _pinned_chars():
        for pi, mult in char.terms:
            mu = weight_of(cd, pi)
            if 2 in mu and any(mu) and not is_minuscule(cd, node):
                continue
            bounds = {}
            assert qchar._discover(cd, pi, mu, mult, bounds) == [], (cd.type, pi)
            assert bounds == {}
            skipped += 1
    assert skipped > 0


def test_a_loop_weight_met_twice_is_an_arithmetic_error(monkeypatch):
    real = braid.braid_orbit

    def repeat(cd, pi):
        images = real(cd, pi)
        first = next(iter(images.values()))
        return {mu: first for mu in images}

    clear = qchar._fundamental_template.cache_clear
    clear()
    monkeypatch.setattr(braid, "braid_orbit", repeat)
    try:
        with pytest.raises(ArithmeticError, match="meets a loop weight of the descent twice"):
            minuscule_char(cartan_data("A3"), 1, ("a", 0))
        with pytest.raises(ArithmeticError, match="meets a loop weight of the descent twice"):
            fundamental_char(cartan_data("B3"), 1, ("a", 0), _b_table(3))
    finally:
        clear()


def test_a_bad_table_raises_the_same_error_on_every_call():
    b2 = cartan_data("B2")
    messages = []
    for p in (("a", 0), ("a", 0), ("b", 4)):
        with pytest.raises(DomainError) as err:
            fundamental_char(b2, 1, p, {(1, 0): 1})
        messages.append(str(err.value))
    assert messages == ["descent reached dominant weight [0, 0] missing from the table"] * 3


_B3_VECTOR = {(1, 0, 0): 1, (0, 0, 0): 1}


@pytest.mark.parametrize(
    "extra,message",
    [
        # Outside the top weight's coset of the root lattice.
        ({(0, 0, 1): 1}, "table mismatch at weight [0, 0, 1]: table 1, character 0"),
        # Non-dominant, and one more than the character gives it.
        ({(-1, 0, 0): 2}, "table mismatch at weight [-1, 0, 0]: table 2, character 1"),
        # Of the wrong length, refused before the descent.
        ({(1, 0): 1}, "table weight [1, 0] does not have 3 coordinates"),
        ({(-1, 0): 1}, "table weight [-1, 0] does not have 3 coordinates"),
        ({(0, 0, 1, 5): 0}, "table weight [0, 0, 1, 5] does not have 3 coordinates"),
    ],
)
def test_the_descent_refuses_a_table_its_character_contradicts(extra, message):
    with pytest.raises(DomainError) as err:
        fundamental_char(cartan_data("B3"), 1, ("a", 0), {**_B3_VECTOR, **extra})
    assert str(err.value) == message


def test_a_consistent_non_dominant_table_entry_changes_nothing():
    b3 = cartan_data("B3")
    with_entry = fundamental_char(b3, 1, ("a", 0), {**_B3_VECTOR, (-1, 0, 0): 1})
    assert with_entry == fundamental_char(b3, 1, ("a", 0), _B3_VECTOR)


def test_cli_reports_a_table_mismatch(capsys):
    table = '{"1,0,0":1,"0,0,0":1,"0,0,1":1}'
    assert cli.main(["qchar-fund", "--type", "B3", "--node", "1", "--table", table]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: table mismatch at weight [0, 0, 1]: table 1, character 0\n"


_BAD_PARAMS = {
    "bool exponent": ("a", True),
    "float exponent": ("a", 1.5),
    "string exponent": ("a", "3"),
    "orbit with a space": ("b c", 0),
    "tuple orbit": (("a",), 0),
}

_PARAM_ENTRY_POINTS = {
    "fundamental_lweight": lambda p: fundamental_lweight(cartan_data("A3"), 1, *p),
    "simple_lroot": lambda p: simple_lroot(cartan_data("A3"), 1, *p),
    "sl2_eval_char": lambda p: sl2_eval_char(p, 2),
    "Sl2String": lambda p: Sl2String(p, 2),
    "trivial_sets": lambda p: trivial_sets(cartan_data("A3"), *p),
    "minuscule_char": lambda p: minuscule_char(cartan_data("E6"), 1, p),
    "dn_node2_char": lambda p: dn_node2_char(4, p),
    "fundamental_char": lambda p: fundamental_char(cartan_data("B2"), 1, p, _b_table(2)),
}


@pytest.mark.parametrize("bad", sorted(_BAD_PARAMS))
@pytest.mark.parametrize("entry", sorted(_PARAM_ENTRY_POINTS))
def test_entry_points_reject_bad_spectral_parameters(entry, bad):
    # Before the template cache is read, so a bad parameter builds nothing.
    before = qchar._fundamental_template.cache_info()
    with pytest.raises(DomainError):
        _PARAM_ENTRY_POINTS[entry](_BAD_PARAMS[bad])
    assert qchar._fundamental_template.cache_info() == before


def test_string_characters_are_refused_above_the_factor_cap(monkeypatch):
    # m + 1 terms of m factors each; the real cap refuses m = 4472 at once.
    with pytest.raises(DomainError, match="length 4472 would number 20003256, more than the size cap of 20000000"):
        sl2_eval_char(("a", 0), 4472)
    monkeypatch.setattr(errors, "MAX_SIZE", 12)
    assert len(sl2_eval_char(("a", 0), 3).terms) == 4
    with pytest.raises(DomainError, match="length 4 would number 20, more than the size cap of 12"):
        sl2_eval_char(("a", 0), 4)


def test_cli_refuses_a_long_string_before_building_it(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the string was built")

    monkeypatch.setattr(qchar, "LCharacter", refuse)
    assert cli.main(["qchar-sl2", "--length", "5000"]) == 3
    assert "would number 25005000" in capsys.readouterr().err


@pytest.mark.parametrize("p", [("a",), "a0", 5])
def test_spectral_parameters_must_be_pairs(p):
    with pytest.raises(DomainError):
        minuscule_char(cartan_data("A2"), 1, p)


@pytest.mark.parametrize(
    "table",
    [
        {(1, 0): True, (0, 0): 1},
        {(1, 0): 1, (0, 0): 1.0},
        {(1, 0): 1, (0, 0): "1"},
        {(1, 0): 1, (0.0, 0): 1},
        {(1, 0): 1, "0,0": 1},
        {(1, 0): 1, "x" * 5000: 1},
        {(1, 0): 1, (0, 0): "y" * 5000},
    ],
)
def test_fundamental_char_rejects_non_integer_tables(table):
    with pytest.raises(DomainError) as err:
        fundamental_char(cartan_data("B2"), 1, ("a", 0), table)
    assert len(str(err.value)) < 200


def test_template_keys_take_plain_integers_only():
    a3, b2 = cartan_data("A3"), cartan_data("B2")
    minuscule_char(a3, 1, ("a", 0))
    fundamental_char(b2, 1, ("a", 0), _b_table(2))
    dn_node2_char(4, ("a", 0))
    for node in (True, 1.0):
        with pytest.raises(DomainError):
            minuscule_char(a3, node, ("a", 0))
        with pytest.raises(DomainError):
            fundamental_char(b2, node, ("a", 0), _b_table(2))
    with pytest.raises(DomainError):
        dn_node2_char(4.0, ("a", 0))


@pytest.mark.parametrize("n", ["5", None, 4.0, True, [4], "4" * 5000])
def test_dn_node2_char_takes_a_plain_integer_rank(n):
    with pytest.raises(DomainError, match="rank must be an integer, got ") as err:
        dn_node2_char(n, ("a", 0))
    assert str(err.value).endswith(repr(n)) or "(5000 characters)" in str(err.value)
    assert len(str(err.value)) < 200


@pytest.mark.parametrize("table", [None, [((1, 0), 1), ((0, 0), 1)], ((1, 0), (0, 0)), "x" * 500])
def test_fundamental_char_takes_a_dict_table(table):
    with pytest.raises(DomainError, match="table must be a dict") as err:
        fundamental_char(cartan_data("B2"), 1, ("a", 0), table)
    assert len(str(err.value)) < 200


def _cache_state():
    return qchar._fundamental_template.cache_info().currsize, weyl._orbit_edges.cache_info()


def test_an_oversized_character_is_refused_before_any_walk():
    # A24 node 12 has 5200300 terms of 24 coordinates: 1.2e8 > 2e7.
    a24 = cartan_data("A24")
    top = fundamental_weight(a24, 12)
    message = "the 5200300 terms in the top braid orbit of node 12 of A24 would number 124807200, more than the size cap of 20000000"
    for build in (
        lambda: minuscule_char(a24, 12, ("a", 0)),
        lambda: fundamental_char(a24, 12, ("b", 3), {top: 1}),
        lambda: fundamental_char(a24, 12, ("a", 0), {top: 2}),
    ):
        before = _cache_state()
        with pytest.raises(DomainError, match=message):
            build()
        assert _cache_state() == before


def test_the_cli_refuses_an_oversized_character(capsys):
    before = _cache_state()
    top = ",".join("1" if k == 12 else "0" for k in range(1, 25))
    for extra in ([], ["--table", f'{{"{top}": 1}}']):
        assert cli.main(["qchar-fund", "--type", "A24", "--node", "12", *extra]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "5200300" in err
    assert _cache_state() == before


def test_the_orbit_cap_is_checked_against_the_top_size(monkeypatch):
    # Sizes near the cap are tested by lowering it: D5 node 2 holds 40
    # terms of 5 coordinates, D5 node 5 holds 16.
    d5 = cartan_data("D5")
    clear = qchar._fundamental_template.cache_clear
    for cap, build, size in [
        (200, lambda: dn_node2_char(5, ("a", 0)), 46),
        (80, lambda: minuscule_char(d5, 5, ("b", 1)), 16),
    ]:
        clear()
        monkeypatch.setattr(errors, "MAX_SIZE", cap)
        assert build().dimension == size
        clear()
        monkeypatch.setattr(errors, "MAX_SIZE", cap - 1)
        with pytest.raises(DomainError, match=f"the {cap // 5} terms in the top braid orbit of node . of D5 would number {cap}, more than the size cap of {cap - 1}"):
            build()
    clear()
