"""The contract of the immutable value classes.

Each class is a plain ``__slots__`` class on ``cartan.Frozen``, which
gives every one the same equality, hashing and repr over its slots.
The repr strings below pin the text users see.  Most are the ones the
earlier dataclass versions printed; ``CartanData``'s holds ``links`` in
place of a dense Cartan matrix, and ``WeylElement``'s holds its type and
canonical word in place of an action matrix.
"""

import pickle

import pytest

from loopchar.cartan import Frozen

from loopchar import (
    CartanData,
    DomainError,
    EllipticCharacter,
    LCharacter,
    LieType,
    LWeight,
    Sl2String,
    cartan_data,
    element_from_word,
    elliptic_class,
    parse_lweight,
    sl2_eval_char,
)


# Each class's fields, in constructor order.
FIELDS = {
    "LieType": ("series", "rank"),
    "CartanData": (
        "type", "rank", "sym", "dual_coxeter", "lacing", "seed_nodes", "w0_perm", "links",
    ),
    "LWeight": ("factors",),
    "LCharacter": ("terms",),
    "WeylElement": ("lie_type", "word"),
    "Sl2String": ("a", "m"),
    "EllipticCharacter": ("lie_type", "terms"),
}


def _a2():
    # A fresh CartanData, not the cached one, so equality is not identity.
    cd = cartan_data("A2")
    return CartanData(**{name: getattr(cd, name) for name in FIELDS["CartanData"]})


# (make an instance, make a different instance, the recorded repr)
CASES = {
    "LieType": (
        lambda: LieType("A", 2),
        lambda: LieType("A", 3),
        "LieType(series='A', rank=2)",
    ),
    "CartanData": (
        _a2,
        lambda: cartan_data("B2"),
        "CartanData(type=LieType(series='A', rank=2), rank=2, sym=(1, 1), dual_coxeter=3,"
        " lacing=1, seed_nodes=(1,), w0_perm=(2, 1), links=(((2, -1, -1),), ((1, -1, -1),)))",
    ),
    "LWeight": (
        lambda: parse_lweight("w[1;a,0]*w[2;b,-3]^-2"),
        lambda: parse_lweight("w[1;a,0]"),
        "LWeight(factors=(((1, 'a', 0), 1), ((2, 'b', -3), -2)))",
    ),
    "LCharacter": (
        lambda: sl2_eval_char(("a", 0), 1),
        lambda: sl2_eval_char(("a", 0), 2),
        "LCharacter(terms=((LWeight(factors=(((1, 'a', 0), 1),)), 1),"
        " (LWeight(factors=(((1, 'a', 2), -1),)), 1)))",
    ),
    "WeylElement": (
        lambda: element_from_word(cartan_data("A2"), (1, 2)),
        lambda: element_from_word(cartan_data("A2"), (2, 1)),
        "WeylElement(lie_type=LieType(series='A', rank=2), word=(1, 2))",
    ),
    "Sl2String": (
        lambda: Sl2String(("a", 1), 2),
        lambda: Sl2String(("a", 1), 3),
        "Sl2String(a=('a', 1), m=2)",
    ),
    "EllipticCharacter": (
        lambda: elliptic_class(cartan_data("B2"), parse_lweight("w[1;a,0]")),
        lambda: elliptic_class(cartan_data("B2"), parse_lweight("w[2;a,0]")),
        "EllipticCharacter(lie_type=LieType(series='B', rank=2),"
        " terms=((('a', '', 1), 1), (('a', '', 5), -1)))",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_and_hash_agree(name):
    make, other, _ = CASES[name]
    x, y = make(), make()
    assert type(x).__name__ == name
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert x != other()
    assert x != object() and x != None  # noqa: E711
    assert len({x, y, other()}) == 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_is_unchanged(name):
    make, _, text = CASES[name]
    x = make()
    assert repr(x) == text
    assert type(x)(*(getattr(x, field) for field in FIELDS[name])) == x


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_are_frozen_and_slotted(name):
    x = CASES[name][0]()
    assert not hasattr(x, "__dict__")
    assert type(x).__slots__ == FIELDS[name]
    for field in FIELDS[name]:
        value = getattr(x, field)
        with pytest.raises(AttributeError):
            setattr(x, field, value)
        with pytest.raises(AttributeError):
            delattr(x, field)
        assert getattr(x, field) is value
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_pickle_round_trips(name):
    x = CASES[name][0]()
    y = pickle.loads(pickle.dumps(x))
    assert y == x and repr(y) == repr(x)


def test_cartan_hash_is_the_type_hash():
    for name in ("A1", "B3", "D5", "E8", "G2"):
        cd = cartan_data(name)
        assert hash(cd) == hash(cd.type)
    assert hash(_a2()) == hash(LieType("A", 2))


@pytest.mark.parametrize("series, rank", [("Q", 2), ("E", 9), ("D", 3), ("A", 0)])
def test_lie_type_checks_its_fields(series, rank):
    with pytest.raises(DomainError):
        LieType(series, rank)


def test_sl2_string_checks_its_length():
    with pytest.raises(DomainError):
        Sl2String(("a", 0), -1)
    assert Sl2String(("a", 0), 0).exps == ()


def test_keyword_construction():
    assert LieType(series="C", rank=3) == LieType("C", 3)
    assert LWeight(factors=()) == LWeight.identity()
    assert LCharacter(terms=()).dimension == 0
    lt = LieType("A", 1)
    assert EllipticCharacter(lie_type=lt, terms=()).is_zero
    assert Sl2String(a=("b", 2), m=1).lweight() == parse_lweight("w[1;b,2]")


# The only value class that replaces Frozen's protocol, and what with.
OVERRIDES = {
    "CartanData": {"__hash__"},  # the type alone, the per-type cache key
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_protocol_comes_from_frozen(name):
    cls = type(CASES[name][0]())
    assert issubclass(cls, Frozen)
    own = {"__eq__", "__hash__", "__repr__"} & set(vars(cls))
    assert own == OVERRIDES.get(name, set())


def test_every_value_class_is_checked():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert {cls.__name__ for cls in subclasses(Frozen)} == set(CASES)
