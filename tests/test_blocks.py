"""Tests for the block group and elliptic characters."""

import hashlib

import pytest

from loopchar import (
    DomainError,
    EllipticCharacter,
    LWeight,
    ParseError,
    blocks_linked,
    cartan_data,
    classes_equal,
    elliptic_class,
    fundamental_lweight,
    lroot_decompose,
    parse_elliptic,
    parse_lweight,
    simple_lroot,
    tensor_class,
    trivial_sets,
)
from loopchar.blocks import _generator_class, relation_set
from loopchar.verify import _CLASS_TYPES


RELATION_FIXTURES = {
    "A3": ((("", 0), ("", 2), ("", 4), ("", 6)),),
    "B3": ((("", 0), ("", 10)),),
    "C3": ((("", 0), ("", 8)),),
    "D4": (
        (("+", 0), ("+", 6)),
        (("-", 0), ("-", 6)),
        (("-", 0), ("-", 2), ("+", 6), ("+", 8)),
    ),
    "D5": ((("", 0), ("", 2), ("", 8), ("", 10)),),
    "E6": ((("", 0), ("", 8), ("", 16)), (("", 0), ("", 2), ("", 4), ("", 12), ("", 14), ("", 16))),
    "E7": ((("", 0), ("", 18)), (("", 0), ("", 2), ("", 12), ("", 14), ("", 24), ("", 26))),
    "E8": (
        (("", 0), ("", 30)),
        (("", 0), ("", 20), ("", 40)),
        (("", 0), ("", 12), ("", 24), ("", 36), ("", 48)),
    ),
    "F4": ((("", 0), ("", 18)), (("", 0), ("", 12), ("", 24))),
    "G2": ((("", 0), ("", 12)), (("", 0), ("", 8), ("", 16))),
}


@pytest.mark.parametrize("label", sorted(RELATION_FIXTURES))
def test_relation_sets(label):
    assert relation_set(cartan_data(label)) == RELATION_FIXTURES[label]


def test_class_string_fixtures():
    b2 = cartan_data("B2")
    assert str(elliptic_class(b2, fundamental_lweight(b2, 1))) == "x[a,1] - x[a,5]"
    g2 = cartan_data("G2")
    assert str(elliptic_class(g2, fundamental_lweight(g2, 1))) == "x[a,4] - x[a,8]"
    a3 = cartan_data("A3")
    assert str(elliptic_class(a3, fundamental_lweight(a3, 2))) == "-x[a,3] - x[a,5]"
    d4 = cartan_data("D4")
    assert (
        str(elliptic_class(d4, fundamental_lweight(d4, 4)))
        == "x+[a,4] + x-[a,0] - x-[a,4]"
    )


# sha256 of the printed class of w[i;a,k] for every node i of every
# class type and k in (-7, 0, 3), one class per line.  Recorded before the
# block lattice moved onto the sparse solver; any change in a class's
# bytes changes it.
CLASS_MAP_SHA256 = "122e540217fcdcc82d77cf4bf9ccc721e4a3e8a66265050f3faedbcda439d3d3"


def test_class_map_is_pinned():
    lines = []
    for label in _CLASS_TYPES:
        cd = cartan_data(label)
        for i in cd.nodes:
            for k in (-7, 0, 3):
                lines.append(str(elliptic_class(cd, LWeight.from_dict({(i, "a", k): 1}))))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CLASS_MAP_SHA256


def test_zero_class_prints_as_zero():
    cd = cartan_data("C3")
    chi = elliptic_class(cd, simple_lroot(cd, 2, "a", -1))
    assert chi.is_zero
    assert str(chi) == "0"


@pytest.mark.parametrize("label", ["A2", "B3", "C3", "D4", "D5", "E6", "F4", "G2"])
def test_loop_roots_have_trivial_class(label):
    cd = cartan_data(label)
    for i in cd.nodes:
        for e in (-2, 0, 5):
            assert elliptic_class(cd, simple_lroot(cd, i, "a", e)).is_zero


@pytest.mark.parametrize(
    "label",
    _CLASS_TYPES + ("A6", "A7", "A8", "B6", "B7", "B8", "C6", "C7", "C8", "D7", "D8"),
)
def test_generator_classes_agree_with_the_loop_root_lattice(label):
    # Checked without the class solve: a generator divided by the seed
    # monomial its class names must be a product of simple loop roots.
    cd = cartan_data(label)
    n = cd.rank
    seed_node = {"": cd.seed_nodes[0], "+": n, "-": n - 1}
    for i in cd.nodes:
        pi = fundamental_lweight(cd, i, "a", 3)
        powers = {}
        for (orbit, fam, e), c in elliptic_class(cd, pi).terms:
            powers[(seed_node[fam], orbit, e)] = c
        seeds = LWeight.from_dict(powers)
        assert lroot_decompose(cd, pi * seeds.inverse()) is not None, (label, i)


def test_class_solve_runs_once_per_type_and_never_for_seeds():
    cd = cartan_data("E7")
    _generator_class.cache_clear()
    for _, pi in trivial_sets(cd):
        elliptic_class(cd, pi)
    assert _generator_class.cache_info().misses == 0
    for i in cd.nodes:
        elliptic_class(cd, fundamental_lweight(cd, i))
    assert _generator_class.cache_info().misses == 1


def test_linkage_fixtures():
    cd = cartan_data("B3")
    assert blocks_linked(cd, parse_lweight("w[3;a,0]*w[3;a,10]"), LWeight.identity())
    assert not blocks_linked(cd, fundamental_lweight(cd, 3), LWeight.identity())
    with pytest.raises(DomainError):
        blocks_linked(cd, fundamental_lweight(cd, 1).inverse(), LWeight.identity())


def test_linkage_matches_lattice_membership():
    cd = cartan_data("C3")
    cases = [
        ("w[1;a,0]*w[1;a,8]", "1"),
        ("w[1;a,0]*w[2;a,3]", "w[1;a,0]*w[2;a,3]"),
        ("w[3;a,0]", "w[3;a,2]"),
        ("w[2;a,1]", "w[1;a,0]"),
    ]
    for s1, s2 in cases:
        w1, w2 = parse_lweight(s1), parse_lweight(s2)
        linked = blocks_linked(cd, w1, w2)
        in_lattice = lroot_decompose(cd, w1 * w2.inverse()) is not None
        assert linked == in_lattice


def test_classes_of_different_types_do_not_compare():
    b2 = cartan_data("B2")
    c2 = cartan_data("C2")
    with pytest.raises(DomainError):
        classes_equal(
            elliptic_class(b2, fundamental_lweight(b2, 1)),
            elliptic_class(c2, fundamental_lweight(c2, 1)),
        )


def test_tensor_class_is_additive():
    cd = cartan_data("D5")
    w1 = parse_lweight("w[2;a,0]*w[5;a,3]")
    w2 = parse_lweight("w[4;a,-2]^2")
    lhs = elliptic_class(cd, w1 * w2)
    rhs = tensor_class(elliptic_class(cd, w1), elliptic_class(cd, w2))
    assert classes_equal(lhs, rhs)


def test_character_arithmetic():
    cd = cartan_data("B2")
    chi = elliptic_class(cd, fundamental_lweight(cd, 1))
    assert (chi - chi).is_zero
    assert chi + (-chi) == chi - chi
    assert not (chi + chi).is_zero
    assert str(chi + chi) == "2 x[a,1] - 2 x[a,5]"


def test_trivial_set_labels():
    assert [lbl for lbl, _ in trivial_sets(cartan_data("B3"))] == ["1"]
    assert [lbl for lbl, _ in trivial_sets(cartan_data("D4"))] == ["+", "-", "0"]
    assert [lbl for lbl, _ in trivial_sets(cartan_data("G2"))] == ["1", "2"]


def test_trivial_sets_land_in_the_trivial_block():
    for label in ("A3", "B2", "C3", "D4", "D5", "F4", "G2", "E6"):
        cd = cartan_data(label)
        for _, pi in trivial_sets(cd, "b", 3):
            assert pi.is_dominant
            assert elliptic_class(cd, pi).is_zero
            assert lroot_decompose(cd, pi, sign="+") is not None


def test_parse_round_trips():
    d4 = cartan_data("D4")
    for node in d4.nodes:
        chi = elliptic_class(d4, fundamental_lweight(d4, node, "z", -3))
        assert parse_elliptic(d4.type, str(chi)) == chi
        assert EllipticCharacter.from_json(chi.to_json()) == chi
    b2 = cartan_data("B2")
    zero = elliptic_class(b2, LWeight.identity())
    assert parse_elliptic(b2.type, "0") == zero
    assert parse_elliptic(b2.type, "-x[a,1] + 3 x[a,5]") == parse_elliptic(
        b2.type, "3 x[a,5] - x[a,1]"
    )


@pytest.mark.parametrize("changes", [{"exp": 0.9}, {"exp": "3"}, {"coeff": 2.7}, {"coeff": True}])
def test_class_from_json_rejects_non_integer_fields(changes):
    entry = {"orbit": "a", "family": "-", "exp": 2, "coeff": 2}
    chi = EllipticCharacter.from_json({"type": "D4", "terms": [entry]})
    assert str(chi) == "2 x-[a,2]"
    with pytest.raises(ParseError):
        EllipticCharacter.from_json({"type": "D4", "terms": [dict(entry, **changes)]})


@pytest.mark.parametrize(
    "changes",
    [{"orbit": True}, {"orbit": 7}, {"family": None}, {"orbit": "b", "family": 0}],
)
def test_class_from_json_rejects_non_string_fields(changes):
    entry = {"orbit": "a", "family": "-", "exp": 2, "coeff": 2}
    with pytest.raises(ParseError):
        EllipticCharacter.from_json({"type": "D4", "terms": [dict(entry, **changes)]})
    with pytest.raises(ParseError):
        EllipticCharacter.from_json({"type": 4, "terms": [entry]})


def test_class_from_json_checks_the_orbit_name():
    # "a b" would print as x[a b,0], which parse_elliptic cannot read back.
    entry = {"orbit": "a b", "family": "", "exp": 0, "coeff": 1}
    with pytest.raises(DomainError):
        EllipticCharacter.from_json({"type": "A2", "terms": [entry]})


@pytest.mark.parametrize("field", ["orbit", "family", "exp", "coeff"])
def test_class_from_json_reports_a_missing_field(field):
    entry = {"orbit": "a", "family": "", "exp": 0, "coeff": 1}
    del entry[field]
    with pytest.raises(ParseError, match=field):
        EllipticCharacter.from_json({"type": "A2", "terms": [entry]})
    with pytest.raises(ParseError, match="type"):
        EllipticCharacter.from_json({"terms": []})


def test_class_from_json_rejects_a_non_object_entry():
    with pytest.raises(ParseError):
        EllipticCharacter.from_json({"type": "A2", "terms": [["a", "", 0, 1]]})


@pytest.mark.parametrize(
    "data", [{"type": "A2"}, {"type": "A2", "terms": 5}, {"type": "A2", "terms": None}, [], None]
)
def test_class_from_json_rejects_a_malformed_record(data):
    with pytest.raises(ParseError):
        EllipticCharacter.from_json(data)
