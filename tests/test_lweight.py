"""Tests for loop-weight monomials and characters."""

import copy
import pickle

from hypothesis import given, strategies as st
import pytest

from loopchar import cli, errors, lweight, qchar
from loopchar import (
    DomainError,
    LCharacter,
    LWeight,
    ParseError,
    braid_act,
    cartan_data,
    dual_lweight,
    elliptic_class,
    expand_lroots,
    fundamental_lweight,
    lroot_decompose,
    minuscule_char,
    parse_lweight,
    sl2_eval_char,
    weight_of,
)


def factor_strategy(max_node=6):
    key = st.tuples(
        st.integers(min_value=1, max_value=max_node),
        st.sampled_from(["a", "b", "z9"]),
        st.integers(min_value=-8, max_value=8),
    )
    power = st.integers(min_value=-4, max_value=4).filter(lambda p: p != 0)
    return st.tuples(key, power)


def lweight_strategy(max_node=6):
    return st.dictionaries(
        st.tuples(
            st.integers(min_value=1, max_value=max_node),
            st.sampled_from(["a", "b", "z9"]),
            st.integers(min_value=-8, max_value=8),
        ),
        st.integers(min_value=-4, max_value=4).filter(lambda p: p != 0),
        max_size=6,
    ).map(LWeight.from_dict)


@given(lweight_strategy())
def test_parse_inverts_str(pi):
    assert parse_lweight(str(pi)) == pi


@given(lweight_strategy())
def test_json_round_trip(pi):
    assert LWeight.from_json(pi.to_json()) == pi


@given(lweight_strategy(), lweight_strategy())
def test_product_commutes(x, y):
    assert x * y == y * x


def reference_product(x, y):
    """The loop-weight product by dict accumulation and a full re-sort."""
    powers = x.to_dict()
    for k, p in y.factors:
        powers[k] = powers.get(k, 0) + p
    return LWeight.from_dict(powers)


def reference_char_product(x, y):
    terms = {}
    for pi, m in x.terms:
        for tau, l in y.terms:
            key = reference_product(pi, tau)
            terms[key] = terms.get(key, 0) + m * l
    return LCharacter.from_dict(terms)


def assert_products_match(x, y):
    got, want = x * y, reference_char_product(x, y)
    assert got.terms == want.terms
    for pi, _ in x.terms:
        for tau, _ in y.terms:
            assert (pi * tau).factors == reference_product(pi, tau).factors


@given(lweight_strategy(), lweight_strategy())
def test_product_matches_the_reference(x, y):
    assert (x * y).factors == reference_product(x, y).factors


def test_products_on_disjoint_and_overlapping_keys():
    a = parse_lweight("w[1;a,0]*w[2;a,1]^-1*w[3;b,4]^2")
    b = parse_lweight("w[1;a,2]*w[2;b,1]*w[4;a,-3]^-1")
    c = parse_lweight("w[1;a,0]^-1*w[2;a,1]*w[3;b,4]")
    disjoint = (LCharacter.from_dict({a: 2, a.shift(7): 1}), LCharacter.from_dict({b: 1, b.shift(9): 3}))
    overlapping = (LCharacter.from_dict({a: 1, c: 2, b: 1}), LCharacter.from_dict({a.inverse(): 3, c: 1}))
    for x, y in (disjoint, overlapping):
        assert_products_match(x, y)
        assert_products_match(y, x)
    assert (a * a.inverse()).factors == ()
    assert (overlapping[0] * overlapping[1]).multiplicity(LWeight.identity()) == 3


def test_products_of_strings():
    for m1 in range(13):
        x = sl2_eval_char(("a", 0), m1)
        for m2 in range(13):
            for p in (("a", 0), ("a", 1), ("a", m1 + m2), ("a", 2 - m2), ("b", 0)):
                assert_products_match(x, sl2_eval_char(p, m2))


def test_product_of_e6_minuscule_characters():
    cd = cartan_data("E6")
    x = minuscule_char(cd, 1, ("a", 0))
    y = minuscule_char(cd, 5, ("a", 2))
    assert len(x.terms) == len(y.terms) == 27
    assert_products_match(x, y)


@st.composite
def character_pairs(draw):
    """Two characters on a few shared keys, with powers up to 10**30.

    Some right terms are left terms, inverted (so a pair cancels to the
    identity) or as they are (so the largest power doubles); either side
    may hold the identity term or no term at all.
    """
    huge = st.integers(min_value=-(10**30), max_value=10**30)
    power = st.one_of(st.integers(min_value=-3, max_value=3), huge).filter(bool)
    key = st.tuples(
        st.integers(min_value=1, max_value=3),
        st.sampled_from(["a", "b", "z9"]),
        st.integers(min_value=-3, max_value=3),
    )
    lweights = st.lists(st.dictionaries(key, power, max_size=5).map(LWeight.from_dict), max_size=5)
    left, right = draw(lweights), draw(lweights)
    for pi in draw(st.lists(st.sampled_from(left), max_size=3)) if left else ():
        right.append(pi.inverse() if draw(st.booleans()) else pi)
    for side in (left, right):
        if draw(st.booleans()):
            side.append(LWeight.identity())
    mult = st.integers(min_value=1, max_value=3)
    return tuple(LCharacter.from_dict({pi: draw(mult) for pi in side}) for side in (left, right))


@given(character_pairs())
def test_character_product_matches_the_reference(pair):
    x, y = pair
    for a, b in ((x, y), (y, x)):
        assert (a * b).terms == reference_char_product(a, b).terms


def test_products_of_huge_powers_keep_their_slots():
    # The sums of the largest powers, 2 * 10**30 and -2 * 10**30, on keys
    # either side of a key that cancels.
    big = 10**30
    x = LCharacter.from_dict({
        parse_lweight(f"w[1;a,0]^{big}*w[1;a,1]^-{big}*w[2;a,0]^-{big}"): 1,
        parse_lweight(f"w[1;a,1]^{big}"): 2,
    })
    y = LCharacter.from_dict({
        parse_lweight(f"w[1;a,0]^{big}*w[1;a,1]^{big}*w[2;a,0]^-{big}"): 3,
        LWeight.identity(): 1,
    })
    assert (x * y).terms == reference_char_product(x, y).terms
    assert (x * y).multiplicity(parse_lweight(f"w[1;a,0]^{2 * big}*w[2;a,0]^-{2 * big}")) == 3


@pytest.mark.parametrize("m", [1.5, 0.0, True, "1", None, -1])
def test_from_dict_refuses_a_multiplicity_that_is_not_a_positive_int(m):
    pi = parse_lweight("w[1;a,0]")
    with pytest.raises(DomainError, match="positive integers"):
        LCharacter.from_dict({pi: m, pi.shift(1): 2})


def test_negative_multiplicities_are_refused():
    x = LCharacter(((parse_lweight("w[1;a,0]"), 2),))
    y = LCharacter(((parse_lweight("w[2;b,1]^-1"), -1),))
    for a, b in ((x, y), (y, x)):
        with pytest.raises(DomainError, match="positive"):
            a * b


def test_products_of_long_strings():
    # Exponents of one parity share no key with the other parity's.
    for m1, m2 in ((40, 40), (40, 17), (9, 40)):
        x = sl2_eval_char(("a", 0), m1)
        for e in (1, 2, m1 + m2 - 1):
            y = sl2_eval_char(("a", e), m2)
            assert (x * y).terms == reference_char_product(x, y).terms


def test_product_of_e6_minuscule_characters_on_two_orbits():
    cd = cartan_data("E6")
    x = minuscule_char(cd, 1, ("a", 0))
    y = minuscule_char(cd, 5, ("b", 2))
    product = x * y
    assert product.terms == reference_char_product(x, y).terms
    assert len(product.terms) == 27 * 27


def test_product_size_is_capped_before_any_pair(monkeypatch):
    x = sl2_eval_char(("a", 0), 3)  # 4 terms of 3 factors
    y = sl2_eval_char(("b", 0), 2)  # 3 terms of 2 factors
    bound = 3 * 12 + 4 * 6
    monkeypatch.setattr(errors, "MAX_SIZE", bound)
    assert (x * y).terms == reference_char_product(x, y).terms
    monkeypatch.setattr(errors, "MAX_SIZE", bound - 1)
    for a, b in ((x, y), (y, x)):
        with pytest.raises(DomainError, match=str(bound)):
            a * b


def test_cli_refuses_a_large_string_tensor_before_building_it(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the strings were built")

    bound = 6 * 9 * 13  # (m1 + 1) * (m2 + 1) * (m1 + m2)
    monkeypatch.setattr(errors, "MAX_SIZE", bound - 1)
    monkeypatch.setattr(qchar, "sl2_eval_char", refuse)
    assert cli.main(["qchar-tensor", "--length", "5", "--length2", "8"]) == 3
    assert f"would number {bound}," in capsys.readouterr().err
    # The library's own bound for the same two strings.
    x, y = sl2_eval_char(("a", 0), 5), sl2_eval_char(("a", 0), 8)
    with pytest.raises(DomainError, match=f"would number {bound},"):
        x * y


@given(lweight_strategy())
def test_inverse_cancels(pi):
    assert (pi * pi.inverse()).is_identity


@given(lweight_strategy(), st.integers(min_value=-3, max_value=3))
def test_power_matches_repeated_product(pi, n):
    expected = LWeight.identity()
    step = pi if n >= 0 else pi.inverse()
    for _ in range(abs(n)):
        expected = expected * step
    assert pi**n == expected


@pytest.mark.parametrize("n", [1.5, 2.0, True, False, "2", None])
def test_power_refuses_an_exponent_that_is_not_a_plain_int(n):
    with pytest.raises(DomainError, match="exponent must be an integer"):
        parse_lweight("w[1;a,0]") ** n
    # expand_lroots raises each simple loop root to its coefficient.
    with pytest.raises(DomainError, match="exponent must be an integer"):
        expand_lroots(cartan_data("A2"), {(1, "a", 0): n})


@given(lweight_strategy(), st.integers(min_value=-5, max_value=5))
def test_shift_moves_every_exponent(pi, offset):
    shifted = pi.shift(offset)
    assert shifted.to_dict() == {
        (i, o, k + offset): p for (i, o, k), p in pi.to_dict().items()
    }


def test_identity_prints_as_one():
    assert str(LWeight.identity()) == "1"
    assert parse_lweight("1") == LWeight.identity()


def test_str_fixture():
    pi = LWeight.from_dict({(2, "a", 1): -1, (1, "a", 0): 1, (1, "a", 4): 2})
    assert str(pi) == "w[1;a,0]*w[1;a,4]^2*w[2;a,1]^-1"


def test_dominant_flag():
    assert LWeight.from_dict({(1, "a", 0): 2, (3, "b", -1): 1}).is_dominant
    assert not LWeight.from_dict({(1, "a", 0): 2, (2, "a", 1): -1}).is_dominant
    assert LWeight.identity().is_dominant


@pytest.mark.parametrize(
    "text",
    [
        "w[0;a,1]",
        "w[1,a,1]",
        "w[1;a,1]*",
        "*w[1;a,1]",
        "w[1;9z,1]",
        "",
        "2",
        "w[1;a,1.5]",
    ],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ParseError):
        parse_lweight(text)


def test_parse_lenient_forms():
    assert parse_lweight("w[1;a]") == parse_lweight("w[1;a,0]")
    assert parse_lweight("w[1;a,1]^0") == LWeight.identity()
    assert parse_lweight("w[1;a,1] w[2;a,0]") == parse_lweight("w[1;a,1]*w[2;a,0]")


def test_parse_merges_repeated_factors():
    assert parse_lweight("w[1;a,0]*w[1;a,0]") == parse_lweight("w[1;a,0]^2")
    assert parse_lweight("w[1;a,0]*w[1;a,0]^-1") == LWeight.identity()


def test_fundamental_lweight_single_factor():
    cd = cartan_data("B3")
    pi = fundamental_lweight(cd, 2, "b", 5)
    assert pi.to_dict() == {(2, "b", 5): 1}


def test_dual_lweight_fixtures():
    cd = cartan_data("A3")
    pi = fundamental_lweight(cd, 1, "a", 0)
    assert dual_lweight(cd, pi) == fundamental_lweight(cd, 3, "a", 4)
    cd2 = cartan_data("B2")
    pi2 = fundamental_lweight(cd2, 1, "a", 0)
    assert dual_lweight(cd2, pi2) == fundamental_lweight(cd2, 1, "a", 6)


def test_dual_twice_is_a_uniform_shift():
    cd = cartan_data("D5")
    pi = LWeight.from_dict({(4, "a", 0): 1, (2, "a", 3): 2})
    twice = dual_lweight(cd, dual_lweight(cd, pi))
    assert twice == pi.shift(2 * cd.lacing * cd.dual_coxeter)
    assert dual_lweight(cd, pi).to_dict().get((5, "a", 8), 0) == 1


def test_weight_of_sums_node_powers():
    cd = cartan_data("A3")
    pi = LWeight.from_dict({(1, "a", 0): 1, (1, "b", 2): 1, (3, "a", 1): -1})
    assert weight_of(cd, pi) == (2, 0, -1)
    assert weight_of(cd, LWeight.identity()) == (0, 0, 0)


def test_character_addition_and_dimension():
    x = LCharacter.single(parse_lweight("w[1;a,0]"))
    y = LCharacter.single(parse_lweight("w[2;a,1]"))
    total = x + y + x
    assert total.dimension == 3
    assert total.multiplicity(parse_lweight("w[1;a,0]")) == 2
    assert total.multiplicity(parse_lweight("w[3;a,0]")) == 0


def test_character_product_multiplies_termwise():
    x = LCharacter.from_dict(
        {parse_lweight("w[1;a,0]"): 1, parse_lweight("w[1;a,2]^-1"): 1}
    )
    sq = x * x
    assert sq.dimension == 4
    assert sq.multiplicity(parse_lweight("w[1;a,0]*w[1;a,2]^-1")) == 2
    assert sq.multiplicity(parse_lweight("w[1;a,0]^2")) == 1


def test_character_shift_acts_on_terms():
    x = LCharacter.from_dict({parse_lweight("w[1;a,0]"): 2})
    assert x.shift(3) == LCharacter.from_dict({parse_lweight("w[1;a,3]"): 2})


@st.composite
def characters(draw, orbits):
    """A character whose factors lie on the given orbits."""
    key = st.tuples(
        st.integers(min_value=1, max_value=4),
        st.sampled_from(orbits),
        st.integers(min_value=-6, max_value=6),
    )
    power = st.integers(min_value=-3, max_value=3).filter(bool)
    lweights = st.lists(st.dictionaries(key, power, max_size=5).map(LWeight.from_dict), max_size=6)
    return LCharacter.from_dict({pi: draw(st.integers(min_value=1, max_value=3)) for pi in draw(lweights)})


def shift_by_terms(x, offset, orbit=None):
    """The shift of x rebuilt term by term through from_dict, which sorts."""
    terms = {}
    for pi, m in x.terms:
        moved = LWeight.from_dict(
            {(i, a if orbit is None else orbit, k + offset): p for (i, a, k), p in pi.factors}
        )
        terms[moved] = terms.get(moved, 0) + m
    return LCharacter.from_dict(terms)


huge_offsets = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-(10**12), max_value=10**12),
)


@given(characters(["b"]), huge_offsets, st.sampled_from(["a", "b", "Z", "z9"]))
def test_shift_with_a_rename_matches_the_rebuilt_terms(x, offset, orbit):
    # "Z" < "a" < "b" < "z9": the rename may move the orbit across others.
    assert x.shift(offset, orbit).terms == shift_by_terms(x, offset, orbit).terms


@given(characters(["a", "b", "z9"]), huge_offsets)
def test_shift_on_several_orbits_matches_the_rebuilt_terms(x, offset):
    assert x.shift(offset).terms == shift_by_terms(x, offset).terms


@pytest.mark.parametrize(
    "terms, offset, orbit, count",
    [
        # Renamed, the two terms would be equal.
        (("w[1;a,0]", "w[1;b,0]"), 0, "c", 2),
        # Renamed, w[1;a,3] would follow w[1;a,5].
        (("w[1;b,0]", "w[1;b,4]", "w[1;z,2]"), 1, "a", 2),
        (("w[1;a,0]*w[2;b,1]", "w[3;c,0]"), 5, "a", 3),
    ],
)
def test_renaming_several_orbits_is_refused_before_any_term_is_built(monkeypatch, terms, offset, orbit, count):
    x = LCharacter.from_dict({parse_lweight(t): 1 for t in terms})

    def refuse(*args):
        raise AssertionError("a translated term was built")

    monkeypatch.setattr(lweight, "LWeight", refuse)
    monkeypatch.setattr(lweight, "_lweights", refuse)
    with pytest.raises(DomainError, match=f"cannot rename the {count} orbits"):
        x.shift(offset, orbit)


def assert_plain_weights(char, every=1):
    """Each term of char is a plain LWeight on a factor tuple, and every
    ``every``-th one behaves as the same weight built by LWeight()."""
    for n, (pi, _) in enumerate(char.terms):
        assert type(pi) is LWeight and type(pi.factors) is tuple
        if n % every:
            continue
        twin = LWeight(pi.factors)
        assert pi == twin and hash(pi) == hash(twin) and repr(pi) == repr(twin)
        for clone in (pickle.loads(pickle.dumps(pi)), copy.copy(pi), copy.deepcopy(pi)):
            assert type(clone) is LWeight and clone == pi
        with pytest.raises(AttributeError):
            pi.factors = ()


def test_bulk_built_weights_are_plain_loop_weights():
    assert lweight._lweights([]) == []
    factors = [(), (((1, "a", 0), 1),), parse_lweight("w[1;a,0]*w[2;b,3]^-2").factors]
    built = lweight._lweights(factors)
    assert built == [LWeight(f) for f in factors]
    assert_plain_weights(LCharacter(tuple((pi, 1) for pi in built)))


def test_translated_terms_with_no_factor_are_plain_loop_weights():
    moved = LCharacter.single(LWeight.identity()).shift(3)
    assert moved.terms == ((LWeight.identity(), 1),)
    assert moved.shift(-2, "b").terms == ((LWeight.identity(), 1),)
    assert_plain_weights(moved)


def test_translated_terms_with_one_factor_are_plain_loop_weights():
    # A1 node 1: w[1;b,5] and w[1;b,7]^-1.
    char = minuscule_char(cartan_data("A1"), 1, ("b", 5))
    assert [str(pi) for pi, _ in char.terms] == ["w[1;b,5]", "w[1;b,7]^-1"]
    assert_plain_weights(char)


def test_a_large_translation_matches_the_shifted_terms():
    cd = cartan_data("A16")
    template = minuscule_char(cd, 8, ("a", 0))
    for orbit in ("a", "b"):
        char = minuscule_char(cd, 8, (orbit, 5))
        assert len(char.terms) == len(template.terms) == 24310
        for (pi, m), (tau, l) in zip(template.terms, char.terms):
            want = pi.shift(5)
            if orbit == "b":
                want = LWeight(tuple(((i, "b", k), p) for (i, _, k), p in want.factors))
            assert tau == want and l == m
        assert_plain_weights(char, every=97)


@pytest.mark.parametrize("m", [0, 1, 2, 40])
def test_string_characters_hold_plain_loop_weights(m):
    char = sl2_eval_char(("a", 3), m)
    assert [len(pi.factors) for pi, _ in char.terms] == [m] * (m + 1)
    assert_plain_weights(char)


@pytest.mark.parametrize(
    "x, y",
    [
        # One product term with no factor, one with one, then many.
        ("w[1;a,0]", "w[1;a,0]^-1"),
        ("w[1;a,0]", "1"),
        ("w[1;a,0]*w[2;a,1]^-1", "w[2;a,1]*w[3;b,0]"),
    ],
)
def test_product_terms_are_plain_loop_weights(x, y):
    product = LCharacter.single(parse_lweight(x)) * LCharacter.single(parse_lweight(y))
    assert product.terms == ((parse_lweight(x) * parse_lweight(y), 1),)
    assert_plain_weights(product)


def test_larger_products_hold_plain_loop_weights():
    cd = cartan_data("E6")
    product = minuscule_char(cd, 1, ("a", 0)) * minuscule_char(cd, 5, ("a", 3))
    assert product.dimension == 27 * 27
    assert_plain_weights(product)
    assert_plain_weights(sl2_eval_char(("a", 0), 5) * sl2_eval_char(("a", 2), 7))


@pytest.mark.parametrize("offset", [1.5, 1.0, "1", None])
def test_character_shift_refuses_an_offset_that_is_not_a_plain_int(offset):
    x = LCharacter.single(parse_lweight("w[1;a,0]"))
    with pytest.raises(DomainError, match="offset must be an integer"):
        x.shift(offset)


@pytest.mark.parametrize("orbit", ["b c", "", "1a", 3, ("a",)])
def test_character_shift_refuses_an_invalid_orbit_name(orbit):
    x = LCharacter.single(parse_lweight("w[1;a,0]"))
    with pytest.raises(DomainError, match="invalid orbit name"):
        x.shift(0, orbit)


@pytest.mark.parametrize("offset", [True, False, 2.0, "3"])
def test_lweight_shift_refuses_an_offset_that_is_not_a_plain_int(offset):
    with pytest.raises(DomainError, match="offset must be an integer"):
        parse_lweight("w[1;a,0]*w[2;b,4]^-1").shift(offset)


def test_character_text_orders_terms():
    x = LCharacter.from_dict(
        {parse_lweight("w[2;a,0]"): 1, parse_lweight("w[1;a,1]"): 3}
    )
    assert x.text() == "3 * w[1;a,1]\n1 * w[2;a,0]"


def test_character_json_round_trip():
    x = LCharacter.from_dict(
        {parse_lweight("w[1;a,0]*w[2;a,1]^-1"): 2, LWeight.identity(): 1}
    )
    data = x.to_json()
    assert data["dimension"] == 3
    assert LCharacter.from_json(data) == x


def factor_entry(**changes):
    entry = {"node": 1, "orbit": "a", "exp": 0, "power": 1}
    entry.update(changes)
    return {"factors": [entry]}


@pytest.mark.parametrize(
    "changes",
    [
        {"power": 1.5},
        {"exp": 0.9},
        {"exp": "3"},
        {"node": True},
        {"power": None},
        {"node": 0},
        {"node": -2},
    ],
)
def test_lweight_from_json_rejects_non_integer_fields(changes):
    assert LWeight.from_json(factor_entry()) == parse_lweight("w[1;a,0]")
    with pytest.raises(ParseError):
        LWeight.from_json(factor_entry(**changes))


@pytest.mark.parametrize("mult", [2.7, "2", True])
def test_character_from_json_rejects_non_integer_multiplicities(mult):
    with pytest.raises(ParseError):
        LCharacter.from_json({"terms": [{"lweight": "w[1;a,0]", "mult": mult}]})


def test_lweight_from_json_rejects_a_non_string_orbit():
    # str() used to turn this into w[1;True,0].
    with pytest.raises(ParseError):
        LWeight.from_json(factor_entry(orbit=True))


@pytest.mark.parametrize("field", ["node", "orbit", "exp", "power"])
def test_lweight_from_json_reports_a_missing_field(field):
    data = factor_entry()
    del data["factors"][0][field]
    with pytest.raises(ParseError, match=field):
        LWeight.from_json(data)


def test_lweight_from_json_rejects_a_non_object_entry():
    with pytest.raises(ParseError):
        LWeight.from_json({"factors": [[1, "a", 0, 1]]})


@pytest.mark.parametrize("lweight", [1, None, ["w[1;a,0]"]])
def test_character_from_json_rejects_a_non_string_lweight(lweight):
    # str() used to read the integer 1 as the identity term.
    with pytest.raises(ParseError):
        LCharacter.from_json({"terms": [{"lweight": lweight, "mult": 1}]})


def test_character_from_json_reports_a_missing_field():
    with pytest.raises(ParseError, match="lweight"):
        LCharacter.from_json({"terms": [{"mult": 1}]})
    with pytest.raises(ParseError, match="mult"):
        LCharacter.from_json({"terms": [{"lweight": "1"}]})


@pytest.mark.parametrize("data", [{}, {"factors": None}, {"factors": 5}, [], None])
def test_lweight_from_json_rejects_a_malformed_record(data):
    with pytest.raises(ParseError):
        LWeight.from_json(data)


@pytest.mark.parametrize("data", [{}, {"terms": 5}, {"terms": "w[1;a,0]"}, [], None])
def test_character_from_json_rejects_a_malformed_record(data):
    with pytest.raises(ParseError):
        LCharacter.from_json(data)


@pytest.mark.parametrize(
    "powers",
    [{(2, "a", 0.5): 1}, {(2, "a", 0): 1.5}, {(2, "a", True): 1}, {(2, "a", 0): True}, {(2, "a", "1"): 1}],
)
def test_non_integer_exponents_and_powers_are_refused(powers):
    cd = cartan_data("A3")
    pi = LWeight.from_dict(powers)
    for call in (elliptic_class, lroot_decompose, lambda cd, pi: braid_act(cd, 2, pi)):
        with pytest.raises(DomainError, match="integer exponent and power"):
            call(cd, pi)
