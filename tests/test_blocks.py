"""Tests for the block group and elliptic characters."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from loopchar import blocks
from loopchar.blocks import _generator_class, _structure, relation_set
from loopchar.intlattice import SparseIntSolver, solve
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


def _peel_loop(structure, vec):
    # Exponents above the window peeled one at a time, top first, each by
    # its family's division relation, rebuilding the list of exponents
    # above the window after every step: the oracle of the ladder.
    work = {fe: c for fe, c in vec.items() if c}
    while True:
        over = [(f, e) for (f, e) in work if e >= structure.span[f]]
        if not over:
            return work
        fam, e = max(over, key=lambda fe: fe[1])
        c = work.pop((fam, e))
        for s in structure.division[fam][:-1]:
            key = (fam, e - structure.span[fam] + s)
            work[key] = work.get(key, 0) - c
            if not work[key]:
                del work[key]


def _global_class_solve(lt):
    """The class map by one integer solve over all nodes at once, with rows
    ordered by distance from a seed: the construction that propagation
    along the Dynkin diagram replaced, kept as its oracle."""
    cd, st = cartan_data(lt), _structure(lt)
    seeds = {i: (blocks.seed_family(cd, i), 0) for i in cd.seed_nodes}
    order = list(seeds)
    dist = dict.fromkeys(order, 0)
    for i in order:
        for l, _, _ in cd.links[i - 1]:
            if l not in dist:
                dist[l] = dist[i] + 1
                order.append(l)
    window = [(fam, e) for fam in st.families for e in range(st.span[fam])]
    columns, target, modulo = {}, {}, []
    for j in cd.nodes:
        for (l, off), v in blocks._alpha_pattern(cd, j):
            for fam, e in [seeds[l]] if l in seeds else window:
                vec = target if l in seeds else columns.setdefault((l, (fam, e)), {})
                for fe, x in _peel_loop(st, {(fam, e + off): 1}).items():
                    r = (dist[j], j, fe)
                    vec[r] = vec.get(r, 0) + v * x
        # The peeled vectors are raw, so each relation holds modulo a copy
        # of L's basis in its rows, passed as extra columns.
        modulo += ({(dist[j], j, fe): x for fe, x in row.items()} for row in st.lattice.basis())
    solution = solve(list(columns.values()) + modulo, {key: -x for key, x in target.items()})
    coords = dict(zip(columns, solution))
    return {
        l: st.normal_form({fe: coords[(l, fe)] for fe in window})
        for l in cd.nodes
        if l not in seeds
    }


@pytest.mark.parametrize(
    "label",
    _CLASS_TYPES
    + tuple(f"{s}{n}" for s in "ABC" for n in range(6, 13))
    + tuple(f"D{n}" for n in range(7, 17))
    + tuple(f"D{n}" for n in range(17, 30, 2))
    + ("D30", "D31", "D41", "D101"),
)
def test_propagated_classes_match_the_global_solve(label):
    lt = cartan_data(label).type
    assert dict(_generator_class(lt)) == _global_class_solve(lt)


def test_closing_check_names_a_broken_relation(monkeypatch):
    # alpha_3 of A3 with its second node-3 entry moved from S^2 to S^4:
    # node 3 keeps two entries, so no relation settles it but alpha_2,
    # and the closing check meets alpha_3.
    real = blocks._alpha_pattern

    def broken(cd, i):
        pattern = real(cd, i)
        if str(cd.type) == "A3" and i == 3:
            return tuple(((l, 4 if (l, off) == (3, 2) else off), v) for (l, off), v in pattern)
        return pattern

    lt = cartan_data("A3").type
    _generator_class.cache_clear()
    monkeypatch.setattr(blocks, "_alpha_pattern", broken)
    with pytest.raises(ArithmeticError, match=r"A3 sends alpha_3 outside L"):
        _generator_class(lt)
    monkeypatch.undo()
    assert _generator_class(lt) == _global_class_solve(lt)


def test_broken_relation_past_the_anchor_fails_the_closing_check(monkeypatch):
    # alpha_1 of D5 with its second node-1 entry moved from S^2 to S^4:
    # alpha_2 still settles node 1 from the anchor at node 2, so the
    # broken alpha_1 reaches the closing check.
    real = blocks._alpha_pattern

    def broken(cd, i):
        pattern = real(cd, i)
        if str(cd.type) == "D5" and i == 1:
            return tuple(((l, 4 if (l, off) == (1, 2) else off), v) for (l, off), v in pattern)
        return pattern

    lt = cartan_data("D5").type
    _generator_class.cache_clear()
    _structure.cache_clear()
    monkeypatch.setattr(blocks, "_alpha_pattern", broken)
    with pytest.raises(ArithmeticError, match=r"the class map of D5 sends alpha_1 outside L"):
        _generator_class(lt)
    monkeypatch.undo()
    _generator_class.cache_clear()
    _structure.cache_clear()
    assert _generator_class(lt) == _global_class_solve(lt)


ANCHORED_TYPES = ("D5", "D7", "E6", "E7", "E8")


@pytest.fixture
def cold_class_maps():
    _generator_class.cache_clear()
    _structure.cache_clear()
    yield
    _generator_class.cache_clear()
    _structure.cache_clear()


def _moved_top(terms):
    # The anchor with its highest exponent moved up by 2, still in the window.
    top = max(terms)
    return {(fam, e + 2 if (fam, e) == top else e): c for (fam, e), c in terms.items()}


def _flipped_first(terms):
    first = min(terms)
    return {fe: -c if fe == first else c for fe, c in terms.items()}


@pytest.mark.parametrize("wrong", [_moved_top, _flipped_first])
@pytest.mark.parametrize("label", ANCHORED_TYPES)
def test_a_wrong_anchor_fails_the_closing_check(monkeypatch, cold_class_maps, label, wrong):
    real = blocks._anchor
    monkeypatch.setattr(
        blocks, "_anchor", lambda cd: {u: wrong(terms) for u, terms in real(cd).items()}
    )
    with pytest.raises(ArithmeticError, match=rf"the class map of {label} sends alpha_\d+ outside L"):
        _generator_class(cartan_data(label).type)


@pytest.mark.parametrize("label", ANCHORED_TYPES)
def test_a_missing_anchor_is_an_arithmetic_error(monkeypatch, cold_class_maps, label):
    monkeypatch.setattr(blocks, "_anchor", lambda cd: {})
    with pytest.raises(ArithmeticError, match=rf"the seeds of {label} does not reach every node"):
        _generator_class(cartan_data(label).type)


def test_cached_class_map_is_read_only():
    classes = _generator_class(cartan_data("E6").type)
    with pytest.raises(TypeError):
        classes[2] = ()
    with pytest.raises(TypeError):
        del classes[2]
    assert isinstance(classes[2], tuple)


def test_class_solve_runs_once_per_type_and_never_for_seeds():
    cd = cartan_data("E7")
    # Node images live on the structure, so a warm one would skip the solve.
    _structure.cache_clear()
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


# The 21 class types and the larger ranks on which the shift period was
# first found by computation.
PERIOD_TYPES = _CLASS_TYPES + ("A9", "B8", "C8", "D7", "D8")


def _two_sided_reduce(structure, vec):
    # The peel before the period fold: an exponent at or above the span
    # moves down by the division relation and a negative one moves up, one
    # step each, so its cost grows with |e|.
    work = {fe: c for fe, c in vec.items() if c}
    while True:
        over = [(f, e) for (f, e) in work if e >= structure.span[f] or e < 0]
        if not over:
            return work
        fam, e = max(over, key=lambda fe: (fe[1] >= structure.span[fe[0]], abs(fe[1])))
        c = work.pop((fam, e))
        span, division = structure.span[fam], structure.division[fam]
        steps = division[:-1] if e >= span else division[1:]
        for s in steps:
            key = (fam, e - span + s if e >= span else e + s)
            work[key] = work.get(key, 0) - c
            if not work[key]:
                del work[key]


def _peel_form(structure, vec):
    # The normal form without the period fold.
    return tuple(sorted(structure.lattice.residue(_two_sided_reduce(structure, vec)).items()))


def _closure_lattice(label):
    # The lattice L as a fixpoint: the reduced extra relations, then the
    # shift of every echelon row until no shift adds anything.
    cd = cartan_data(label)
    structure = _structure(cd.type)
    divisions = {tuple((fam, e) for e in exps) for fam, exps in structure.division.items()}
    extras = [rel for rel in relation_set(cd) if rel not in divisions]
    lattice = SparseIntSolver()
    for rel in extras:
        lattice.add_column(_two_sided_reduce(structure, {fe: 1 for fe in rel}))
    grew = True
    while grew:
        grew = False
        for row in lattice.basis():
            shifted = _two_sided_reduce(structure, {(fam, e + 1): c for (fam, e), c in row.items()})
            if shifted not in lattice:
                lattice.add_column(shifted)
                grew = True
    return lattice


@pytest.mark.parametrize("label", PERIOD_TYPES)
def test_period_fold_matches_the_peel(label):
    structure = _structure(cartan_data(label).type)
    rng = random.Random(label)
    for size in [3000] * 12 + [10**6]:
        vec = {}
        for _ in range(3):
            # Log-uniform magnitudes reach 10^6 on some terms and keep the
            # peel's cost for all 26 types near 3 s.
            e = rng.choice((-1, 1)) * int(size ** rng.random())
            fe = (rng.choice(structure.families), e)
            vec[fe] = vec.get(fe, 0) + rng.choice((-2, -1, 1, 3))
        assert structure.normal_form(vec) == _peel_form(structure, vec), vec


@pytest.mark.parametrize("label", PERIOD_TYPES + ("D10", "D20", "D40"))
def test_shifted_relations_span_the_shift_closure(label):
    lattice = _structure(cartan_data(label).type).lattice
    closure = _closure_lattice(label)
    assert all(row in closure for row in lattice.basis())
    assert all(row in lattice for row in closure.basis())


def test_rungs_above_the_span_follow_the_division_relation():
    # D4's "+" division relation is x+[0] + x+[6] = 0, so x+[9] = -x+[3].
    rungs = _structure(cartan_data("D4").type).ladder["+"]
    assert rungs[9] == ((("+", 3), -1),)
    assert rungs[5] == ((("+", 5), 1),)


@pytest.mark.parametrize("label", PERIOD_TYPES)
def test_class_repeats_with_the_shift_period(label):
    cd = cartan_data(label)
    period = _structure(cd.type).period
    assert period == 2 * cd.lacing * cd.dual_coxeter
    for i in cd.nodes:
        for k in (-3, 0, 1):
            chi = elliptic_class(cd, fundamental_lweight(cd, i, "a", k))
            for t in (-1, 1, 7, 10**20, -(10**20)):
                moved = fundamental_lweight(cd, i, "a", k + t * period)
                assert elliptic_class(cd, moved) == chi, (i, k, t)


@pytest.mark.parametrize("label", PERIOD_TYPES)
def test_shift_period_is_exact(label):
    structure = _structure(cartan_data(label).type)
    period = structure.period
    # The construction checks S^P only on each family's (f, 0); here it
    # holds on every window exponent, without the shift-closure argument.
    for fam in structure.families:
        for e in range(structure.span[fam]):
            moved = _peel_loop(structure, {(fam, e + period): 1, (fam, e): -1})
            assert moved in structure.lattice, (fam, e)
    for d in range(1, period):
        if period % d == 0:
            assert any(
                _peel_loop(structure, {(fam, d): 1, (fam, 0): -1}) not in structure.lattice
                for fam in structure.families
            ), d


@pytest.mark.parametrize("label", PERIOD_TYPES)
def test_wrong_period_is_refused(label, monkeypatch):
    lt = cartan_data(label).type
    monkeypatch.setattr(
        blocks, "_shift_period", lambda cd: 2 * cd.lacing * cd.dual_coxeter - 1
    )
    with pytest.raises(ArithmeticError, match="period"):
        # Unwrapped, so the cache of the correct structures is untouched.
        _structure.__wrapped__(lt)


def test_a_period_within_the_relations_is_refused(monkeypatch):
    # A3's relation reaches exponent 6; the ladder needs every relation
    # exponent below the period, so a period of 6 is refused before any rung.
    monkeypatch.setattr(blocks, "_shift_period", lambda cd: 6)
    with pytest.raises(ValueError, match="reach past the shift period"):
        _structure.__wrapped__(cartan_data("A3").type)


def test_huge_exponent_classes_are_immediate():
    a3 = cartan_data("A3")
    pi = parse_lweight("w[1;a,0]*w[1;a,100000000000]")
    assert str(elliptic_class(a3, pi)) == "2 x[a,0]"
    e8 = cartan_data("E8")
    assert blocks_linked(
        e8, parse_lweight("w[4;a,0]"), parse_lweight("w[4;a,600000000000000000000]")
    )
    chi = parse_elliptic(a3.type, "x[a,800000000000000000001]")
    assert str(chi) == "x[a,1]"
    assert EllipticCharacter.from_json(
        {"type": "A3", "terms": [{"orbit": "a", "family": "", "exp": -(10**30), "coeff": 1}]}
    ) == parse_elliptic(a3.type, f"x[a,{-(10**30) % 8}]")


def _product_strategy(cd, bound=10**12):
    key = st.tuples(
        st.sampled_from(list(cd.nodes)),
        st.sampled_from(["a", "b"]),
        st.integers(min_value=-bound, max_value=bound),
    )
    powers = st.dictionaries(
        key, st.integers(min_value=-3, max_value=3).filter(bool), max_size=4
    )
    return st.tuples(powers, powers)


@settings(deadline=None, max_examples=40)
@given(st.tuples(*(_product_strategy(cartan_data(label)) for label in _CLASS_TYPES)))
def test_class_is_additive_on_random_products(draws):
    # Every example holds one pair of loop weights per class type.
    for label, (left, right) in zip(_CLASS_TYPES, draws):
        cd = cartan_data(label)
        pi, tau = LWeight.from_dict(left), LWeight.from_dict(right)
        assert elliptic_class(cd, pi * tau) == elliptic_class(cd, pi) + elliptic_class(cd, tau)


@settings(deadline=None, max_examples=40)
@given(st.tuples(*(_product_strategy(cartan_data(label), 10**6) for label in _CLASS_TYPES)))
def test_class_sums_and_negations_need_no_reduction(draws):
    # + merges two classes' canonical terms and - flips their signs, with
    # no new reduction.  Oracles: the class of the product or the inverse,
    # and make, which reduces the raw term sums from scratch.
    for label, (left, right) in zip(_CLASS_TYPES, draws):
        cd = cartan_data(label)
        pi, tau = LWeight.from_dict(left), LWeight.from_dict(right)
        chi, psi = elliptic_class(cd, pi), elliptic_class(cd, tau)
        total, negated = chi + psi, -chi
        assert total == elliptic_class(cd, pi * tau)
        assert negated == elliptic_class(cd, pi.inverse())
        raw = _generator_terms(cd, pi)
        for key, c in _generator_terms(cd, tau).items():
            raw[key] = raw.get(key, 0) + c
        assert total.terms == EllipticCharacter.make(cd.type, raw).terms
        assert negated.terms == EllipticCharacter.make(cd.type, _generator_terms(cd, pi, -1)).terms


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


@pytest.mark.parametrize("label, family", [("A3", "+"), ("D4", ""), ("E8", "q")])
def test_a_family_the_type_lacks_is_refused(label, family):
    lt = cartan_data(label).type
    term = {"orbit": "a", "family": family, "exp": 0, "coeff": 1}
    with pytest.raises(DomainError, match="unknown family"):
        EllipticCharacter.from_json({"type": label, "terms": [term]})
    if family != "q":  # the printed form has no such family tag
        with pytest.raises(DomainError, match="unknown family"):
            parse_elliptic(lt, f"x{family}[a,0]")


# The 21 class types and seven larger ranks, for the checks of the class
# path against the parent's: 300 seeded draws each, 8400 in all.
ORACLE_TYPES = _CLASS_TYPES + ("A12", "B9", "C7", "D9", "D10", "D13", "D16")


def _parent_normal_form(structure, vec):
    # residue(peel(fold(vec))): one peel of the whole folded vector.
    folded = {}
    for (fam, e), c in vec.items():
        fe = (fam, e % structure.period)
        folded[fe] = folded.get(fe, 0) + c
    return tuple(sorted(structure.lattice.residue(_peel_loop(structure, folded)).items()))


def _generator_terms(cd, pi, sign=1):
    # sign times pi as raw class terms: w[i;a,k]^p gives p times node i's
    # class terms moved up by k (a seed node's family at k), summed.
    raw = {}
    for (i, a, k), p in pi.factors:
        if i in cd.seed_nodes:
            gen = (((blocks.seed_family(cd, i), 0), 1),)
        else:
            gen = _generator_class(cd.type)[i]
        for (fam, e), m in gen:
            key = (a, fam, e + k)
            raw[key] = raw.get(key, 0) + sign * p * m
    return raw


def _parent_class(cd, pi):
    # The raw generator sum of every factor, then one normal form per orbit.
    structure = _structure(cd.type)
    per_orbit = {}
    for (a, fam, e), c in _generator_terms(cd, pi).items():
        per_orbit.setdefault(a, {})[(fam, e)] = c
    return tuple(
        ((a, fam, e), c)
        for a in sorted(per_orbit)
        for (fam, e), c in _parent_normal_form(structure, per_orbit[a])
    )


def _draws(cd, n):
    # Loop weights on two orbits with 0-6 factors, powers in -3..3 and
    # exponents up to +-10^12.
    rng = random.Random(f"class draws {cd.type}")
    out = []
    for _ in range(n):
        powers = {}
        for _ in range(rng.randint(0, 6)):
            key = (rng.randint(1, cd.rank), rng.choice("ab"), rng.randint(-(10**12), 10**12))
            powers[key] = powers.get(key, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
        out.append(LWeight.from_dict(powers))
    return out


@pytest.mark.parametrize("label", ORACLE_TYPES + ("A40", "B20", "C20", "D40", "D41"))
def test_every_rung_is_the_peel_of_its_unit(label):
    structure = _structure(cartan_data(label).type)
    for fam, rungs in structure.ladder.items():
        assert len(rungs) == structure.period
        for t, rung in enumerate(rungs):
            assert dict(rung) == _peel_loop(structure, {(fam, t): 1}), (fam, t)


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_one_pass_reduce_matches_the_peel_loop(label):
    # window() reduces a vector in one pass, one rung per term: the peel's
    # residue modulo L below the period, and the peel's class above it.
    structure = _structure(cartan_data(label).type)
    period = structure.period
    rng = random.Random(f"reduce {label}")
    for _ in range(200):
        vec = {}
        top = rng.choice((1, 3)) * period
        for _ in range(rng.randint(1, 8)):
            fe = (rng.choice(structure.families), rng.randrange(top))
            vec[fe] = vec.get(fe, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
        peeled = _peel_loop(structure, vec)
        if top == period:
            assert structure.window(vec) == structure.lattice.residue(peeled), vec
        assert structure.normal_form(vec) == tuple(sorted(structure.lattice.residue(peeled).items())), vec


@pytest.mark.parametrize(
    "label", sorted(set(_CLASS_TYPES) | {f"D{n}" for n in range(4, 101, 2)}, key=lambda t: (t[0], int(t[1:])))
)
def test_every_pivot_of_the_relation_lattice_is_one(label):
    # The reduced rungs add up to canonical sums only because of this.
    for row in _structure(cartan_data(label).type).lattice.basis():
        assert row[min(row)] == 1, row


@pytest.mark.parametrize("label", ["D4", "E6", "F4", "G2"])
def test_a_pivot_other_than_one_is_refused(label, monkeypatch):
    real = SparseIntSolver.basis

    def doubled(self):
        # The last pivot vector, twice: a lattice with a pivot 2.
        rows = real(self)
        rows[-1] = {key: 2 * c for key, c in rows[-1].items()}
        return rows

    monkeypatch.setattr(SparseIntSolver, "basis", doubled)
    with pytest.raises(ArithmeticError, match=f"{label} has a pivot other than 1"):
        # Unwrapped, so the cache of the correct structures is untouched.
        _structure.__wrapped__(cartan_data(label).type)


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_reduced_rungs_add_up_to_the_residue_of_the_raw_sum(label):
    # With unit pivots the residue modulo L is Z-linear, so a sum of
    # reduced rungs is already canonical.  Oracle: one residue of the
    # raw-ladder sum, built by the peel from the folded generator terms.
    cd = cartan_data(label)
    structure = _structure(cd.type)
    lattice, period = structure.lattice, structure.period
    pivots = {min(row) for row in lattice.basis()}
    for pi in _draws(cd, 200):
        raw = _generator_terms(cd, pi)
        folded = {}
        for (a, fam, e), c in raw.items():
            vec = folded.setdefault(a, {})
            vec[(fam, e % period)] = vec.get((fam, e % period), 0) + c
        expected = {a: lattice.residue(_peel_loop(structure, vec)) for a, vec in folded.items()}
        for a, vec in folded.items():
            reduced = structure.window(vec)
            assert reduced == expected[a], (pi, a)
            assert not pivots.intersection(reduced), (pi, a)
        terms = tuple(
            ((a, fam, e), c) for a in sorted(expected) for (fam, e), c in sorted(expected[a].items())
        )
        assert elliptic_class(cd, pi).terms == terms, pi
        assert EllipticCharacter.make(cd.type, raw).terms == terms, pi
        w1, w2 = _dominant_parts(pi)
        assert blocks_linked(cd, w1, w2) == (not any(expected.values())), pi


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_classes_from_window_images_match_the_parent_path(label):
    cd = cartan_data(label)
    structure = _structure(cd.type)
    rng = random.Random(f"normal forms {label}")
    for pi in _draws(cd, 300):
        assert elliptic_class(cd, pi).terms == _parent_class(cd, pi), pi
        vec = {}
        for _ in range(rng.randint(0, 6)):
            fe = (rng.choice(structure.families), rng.randint(-(10**12), 10**12))
            vec[fe] = vec.get(fe, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
        assert structure.normal_form(vec) == _parent_normal_form(structure, vec), vec
    # One rung per generator shift (f, t) and at most one image per loop
    # generator (i, t), with t in [0, P).
    rungs = sum(map(len, structure.ladder.values()))
    assert rungs == len(structure.families) * structure.period
    assert len(structure.images) <= cd.rank * structure.period
    assert all(1 <= i <= cd.rank and 0 <= t < structure.period for i, t in structure.images)


def _dominant_parts(pi):
    # pi = w1 / w2 with w1 and w2 dominant.
    w1 = LWeight.from_dict({key: p for key, p in pi.factors if p > 0})
    w2 = LWeight.from_dict({key: -p for key, p in pi.factors if p < 0})
    return w1, w2


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_linkage_without_classes_matches_comparing_classes(label):
    cd = cartan_data(label)
    rng = random.Random(f"linkage {label}")
    for pi in _draws(cd, 300):
        w1, w2 = _dominant_parts(pi)
        expected = classes_equal(elliptic_class(cd, w1), elliptic_class(cd, w2))
        assert blocks_linked(cd, w1, w2) == expected, pi
        # w1 * roots = top / bottom, so w1 * bottom and top differ by loop roots.
        roots = LWeight.identity()
        for _ in range(rng.randint(1, 3)):
            node, orbit = rng.randint(1, cd.rank), rng.choice("ab")
            exp = rng.randint(-(10**12), 10**12)
            roots = roots * simple_lroot(cd, node, orbit, exp) ** rng.choice((-2, -1, 1, 2))
        top, bottom = _dominant_parts(w1 * roots)
        assert blocks_linked(cd, w1 * bottom, top), pi
        assert classes_equal(elliptic_class(cd, w1 * bottom), elliptic_class(cd, top))


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_node_images_match_the_family_image_path(label):
    # elliptic_class and blocks_linked read node images; make reads only
    # family images.  The structure starts cold, so images are both filled
    # and reused here.
    cd = cartan_data(label)
    _structure.cache_clear()
    rng = random.Random(f"node images {label}")
    trues = 0
    for pi in _draws(cd, 200):
        assert elliptic_class(cd, pi) == EllipticCharacter.make(cd.type, _generator_terms(cd, pi)), pi
        w1, w2 = _dominant_parts(pi)
        # w1 * root = top / bottom, so w1 * bottom and top are linked.
        root = simple_lroot(cd, rng.randint(1, cd.rank), rng.choice("ab"), rng.randint(-(10**12), 10**12))
        top, bottom = _dominant_parts(w1 * root ** rng.choice((-1, 1)))
        for left, right in ((w1, w2), (w1 * bottom, top)):
            raw = _generator_terms(cd, left)
            for key, c in _generator_terms(cd, right, -1).items():
                raw[key] = raw.get(key, 0) + c
            linked = EllipticCharacter.make(cd.type, raw).is_zero
            assert blocks_linked(cd, left, right) == linked, (left, right)
            trues += linked
    assert trues >= 200


def test_linkage_checks_dominance_before_nodes():
    cd = cartan_data("B3")
    bad_node = parse_lweight("w[9;a,0]")
    non_dominant = parse_lweight("w[1;a,0]^-1")
    for w1, w2 in ((bad_node, non_dominant), (non_dominant, bad_node)):
        with pytest.raises(DomainError, match="dominant"):
            blocks_linked(cd, w1, w2)
    with pytest.raises(DomainError, match="node 9 out of range"):
        blocks_linked(cd, bad_node, parse_lweight("w[7;a,0]"))
    with pytest.raises(DomainError, match="node 7 out of range"):
        blocks_linked(cd, LWeight.identity(), parse_lweight("w[7;a,0]"))
