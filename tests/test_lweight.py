"""Tests for loop-weight monomials and characters."""

from hypothesis import given, strategies as st
import pytest

from loopchar import (
    LCharacter,
    LWeight,
    ParseError,
    cartan_data,
    dual_lweight,
    fundamental_lweight,
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
