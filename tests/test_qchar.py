"""Tests for q-character construction."""

import hashlib

import pytest

from loopchar import (
    DomainError,
    LCharacter,
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
    sl2_eval_char,
    sl2_tensor_irreducible,
    tensor_char,
    weight_of,
    weight_projection,
    weyl_module_dim,
    zero_weight,
)
from loopchar.verify import _CLASS_TYPES


def test_sl2_string_exponents():
    s = Sl2String(("a", 0), 3)
    assert s.exps == (2, 0, -2)
    assert s.lweight() == parse_lweight("w[1;a,-2]*w[1;a,0]*w[1;a,2]")
    assert Sl2String(("a", 0), 0).exps == ()
    with pytest.raises(DomainError):
        Sl2String(("a", 0), -1)


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


# sha256 over the str() of the characters of ``_pinned_chars``, one per line,
# recorded before braid words and orbit walks read per-type tables.
_PINNED_SHA256 = "82bc9b3059c80f57b6f7d464a72f9af41335b42360d7619a3bfada09570d3bb8"


def _pinned_chars():
    for p in (("a", 0), ("b", -5)):
        for name in _CLASS_TYPES:
            cd = cartan_data(name)
            for i in cd.nodes:
                if is_minuscule(cd, i):
                    yield minuscule_char(cd, i, p)
        for n in range(4, 9):
            cd = cartan_data(f"D{n}")
            yield fundamental_char(cd, 2, p, weight_projection(cd, dn_node2_char(n, ("a", 0))))
        for n in range(2, 9):
            cd = cartan_data(f"B{n}")
            yield fundamental_char(cd, 1, p, {fundamental_weight(cd, 1): 1, zero_weight(cd): 1})


def test_braid_orbit_characters_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for char in _pinned_chars():
        digest.update(str(char).encode() + b"\n")
        count += 1
    assert count == 94
    assert digest.hexdigest() == _PINNED_SHA256
