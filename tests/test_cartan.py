"""Cartan data tables across all supported series."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from loopchar import (
    DomainError,
    LieType,
    LWeight,
    ParseError,
    braid_act,
    braid_act_word,
    cartan_data,
    cone_check,
    dual_lweight,
    element_from_word,
    elliptic_class,
    fundamental_lweight,
    is_minuscule,
    is_reduced_word,
    lroot_decompose,
    parse_lweight,
    reflect,
    simple_lroot,
    weight_of,
)
from loopchar import cartan, cli, errors
from loopchar.blocks import seed_family
from loopchar.cartan import _edges, _symmetrizer
from loopchar.braid import braid_orbit
from loopchar.lweight import check_lweight
from loopchar.verify import _CLASS_TYPES
from loopchar.weyl import simple_root_weight

# Larger classical ranks, beside the 21 class types, for the diagram oracles.
_LARGER_TYPES = (
    tuple(f"A{n}" for n in range(9, 17))
    + tuple(f"{s}{n}" for s in "BC" for n in range(6, 11))
    + tuple(f"D{n}" for n in range(7, 11))
)


def test_parse_and_str():
    lt = LieType.parse(" D5 ")
    assert (lt.series, lt.rank) == ("D", 5)
    assert str(lt) == "D5"


def test_parse_rejects_garbage():
    for bad in ("H3", "A", "5B", "", "Dx"):
        with pytest.raises(ParseError):
            LieType.parse(bad)


def test_rank_bounds():
    for bad in ("B1", "C1", "D3", "E5", "E9", "F5", "G3", "A0"):
        with pytest.raises(DomainError):
            LieType.parse(bad)


def test_cartan_data_parses_each_text_once():
    cartan._parsed.cache_clear()
    cd = cartan_data(" D5 ")
    assert cartan_data(" D5 ") is cd is cartan_data("D5") is cartan_data(LieType("D", 5))
    info = cartan._parsed.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (1, 2, 128)


@pytest.mark.parametrize("bad, error", [("H3", ParseError), ("Dx", ParseError), ("A0", DomainError), ("D3", DomainError)])
def test_a_refused_type_text_fills_no_cache_entry(bad, error):
    before = cartan._parsed.cache_info().currsize
    with pytest.raises(error) as direct:
        LieType.parse(bad)
    for _ in range(2):
        with pytest.raises(error, match=f"^{re.escape(str(direct.value))}$"):
            cartan_data(bad)
    assert cartan._parsed.cache_info().currsize == before


@pytest.mark.parametrize(
    "series,rank", [("A", True), ("A", 2.0), ("A", "2"), ("A", None), (5, 2), (["A"], 2), (b"A", 2)]
)
def test_lie_type_refuses_a_series_or_rank_of_the_wrong_type(series, rank):
    with pytest.raises(DomainError, match="must be"):
        LieType(series, rank)


@pytest.mark.parametrize("bad", [5, None, ("A", 1), b"A1"])
def test_cartan_data_refuses_what_is_neither_text_nor_a_lie_type(bad):
    with pytest.raises(DomainError, match="string or a LieType"):
        cartan_data(bad)


def test_a_refused_boolean_rank_leaves_the_a1_entry_alone(capsys):
    # True == 1 and hashes alike: a LieType("A", True) reaching the cache
    # would fill A1's entry, and every later A1 call would print "ATrue".
    with pytest.raises(DomainError):
        cartan_data(LieType("A", True))
    assert str(cartan_data("A1").type) == "A1"
    assert cli.main(["block", "--type", "A1", "w[1;a,0]", "--format", "json"]) == 0
    assert '"type":"A1"' in capsys.readouterr().out


def test_a_diagram_too_large_to_hold_is_refused_before_it_is_built(monkeypatch, capsys):
    # Under 8 integers per node: C79 (632) is held within a cap of 639,
    # C80 (640) is not.  No other test builds either type.
    monkeypatch.setattr(errors, "MAX_SIZE", 639)
    before = (cartan._build.cache_info().currsize, cartan._parsed.cache_info().currsize)
    for _ in range(2):
        with pytest.raises(DomainError, match="Dynkin diagram of C80 would number 640, more than the size cap of 639"):
            cartan_data("C80")
    assert cli.main(["alpha", "--type", "C80", "--node", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "640" in err
    assert (cartan._build.cache_info().currsize, cartan._parsed.cache_info().currsize) == before
    assert cartan_data("C79").rank == 79


def test_a_huge_rank_is_refused_at_the_real_cap_without_allocating():
    # 8 * 10^8 integers: refused before a single node is built.  The cap is
    # read first, so a build without it fails here, not after allocating.
    assert errors.MAX_SIZE == 20_000_000
    with pytest.raises(DomainError, match="A100000000 would number 800000000, more than the size cap of 20000000"):
        cartan_data("A100000000")
    with pytest.raises(DomainError, match="would number 20000008,"):
        cartan_data(LieType("D", 2_500_001))


def test_symmetrizers():
    assert cartan_data("B3").sym == (2, 2, 1)
    assert cartan_data("C3").sym == (1, 1, 2)
    assert cartan_data("F4").sym == (1, 1, 2, 2)
    assert cartan_data("G2").sym == (1, 3)
    assert cartan_data("D5").sym == (1, 1, 1, 1, 1)
    assert cartan_data("E7").sym == (1,) * 7


def _matrix(cd):
    return tuple(tuple(cd.a(i, j) for j in cd.nodes) for i in cd.nodes)


def test_cartan_matrix_samples():
    assert _matrix(cartan_data("A2")) == ((2, -1), (-1, 2))
    assert _matrix(cartan_data("B2")) == ((2, -1), (-2, 2))
    assert _matrix(cartan_data("G2")) == ((2, -3), (-1, 2))
    c3 = cartan_data("C3")
    assert c3.a(2, 3) == -2 and c3.a(3, 2) == -1


def _dense_matrix(lt):
    """The Cartan matrix row by row over all n^2 entries, from the edges."""
    n = lt.rank
    d = _symmetrizer(lt.series, n)
    adj = [set() for _ in range(n)]
    for i, j in _edges(lt.series, n):
        adj[i - 1].add(j)
        adj[j - 1].add(i)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == j:
                row.append(2)
            elif j in adj[i - 1]:
                # Adjacent entries follow from the symmetrized inner
                # product (alpha_i, alpha_j) = -max(d_i, d_j).
                row.append(-max(d[i - 1], d[j - 1]) // d[i - 1])
            else:
                row.append(0)
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("label", _CLASS_TYPES + _LARGER_TYPES)
def test_links_match_the_dense_matrix(label):
    cd = cartan_data(label)
    dense = _dense_matrix(cd.type)
    assert _matrix(cd) == dense
    for i in cd.nodes:
        assert cd.neighbors(i) == tuple(j for j in cd.nodes if j != i and dense[i - 1][j - 1])


def test_matrix_symmetrizes():
    for name in ("A4", "B4", "C4", "D5", "E6", "E7", "E8", "F4", "G2"):
        cd = cartan_data(name)
        for i in cd.nodes:
            for j in cd.nodes:
                assert cd.d(i) * cd.a(i, j) == cd.d(j) * cd.a(j, i)


def test_dual_coxeter_numbers():
    expected = {
        "A4": 5, "B4": 7, "C4": 5, "D5": 8,
        "E6": 12, "E7": 18, "E8": 30, "F4": 9, "G2": 4,
    }
    for name, h in expected.items():
        assert cartan_data(name).dual_coxeter == h


def test_lacing():
    for name, l in (("A3", 1), ("D6", 1), ("E8", 1), ("B2", 2), ("C5", 2), ("F4", 2), ("G2", 3)):
        assert cartan_data(name).lacing == l


def test_longest_element_permutation():
    assert cartan_data("A4").w0_perm == (4, 3, 2, 1)
    assert cartan_data("D5").w0_perm == (1, 2, 3, 5, 4)
    assert cartan_data("D6").w0_perm == (1, 2, 3, 4, 5, 6)
    assert cartan_data("E6").w0_perm == (5, 4, 3, 2, 1, 6)
    assert cartan_data("E7").w0_perm == tuple(range(1, 8))
    assert cartan_data("G2").w0_perm == (1, 2)


def test_branch_attachment():
    assert cartan_data("E6").neighbors(6) == (3,)
    assert cartan_data("E7").neighbors(7) == (4,)
    assert cartan_data("E8").neighbors(8) == (5,)
    assert cartan_data("D5").neighbors(3) == (2, 4, 5)


def test_seed_nodes():
    assert cartan_data("A5").seed_nodes == (1,)
    assert cartan_data("B4").seed_nodes == (4,)
    assert cartan_data("C4").seed_nodes == (1,)
    assert cartan_data("D5").seed_nodes == (5,)
    assert cartan_data("D6").seed_nodes == (5, 6)
    assert cartan_data("E8").seed_nodes == (1,)


def test_seed_families():
    d6 = cartan_data("D6")
    assert seed_family(d6, 6) == "+"
    assert seed_family(d6, 5) == "-"
    assert seed_family(cartan_data("B3"), 3) == ""
    assert seed_family(cartan_data("A2"), 1) == ""
    with pytest.raises(DomainError):
        seed_family(cartan_data("A2"), 2)


def test_check_node():
    cd = cartan_data("A2")
    with pytest.raises(DomainError):
        cd.check_node(3)
    with pytest.raises(DomainError):
        cd.check_node(0)


# Each takes a node of A3 first; all of them must refuse True and 1.0,
# which pass a range test and equal node 1 as cache keys.
NODE_ENTRY_POINTS = {
    "fundamental_lweight": lambda cd, i: fundamental_lweight(cd, i),
    "simple_lroot": lambda cd, i: simple_lroot(cd, i, "a", 0),
    "braid_act": lambda cd, i: braid_act(cd, i, parse_lweight("w[1;a,0]")),
    "braid_act_word": lambda cd, i: braid_act_word(cd, (2, i), parse_lweight("w[1;a,0]")),
    "reflect": lambda cd, i: reflect(cd, i, (1, 0, 0)),
    "is_minuscule": lambda cd, i: is_minuscule(cd, i),
    "simple_root_weight": lambda cd, i: simple_root_weight(cd, i),
    "is_reduced_word": lambda cd, i: is_reduced_word(cd, (2, i)),
    "element_from_word": lambda cd, i: element_from_word(cd, (2, i)),
}


@pytest.mark.parametrize("node", [True, 1.0, "1", None])
def test_check_node_refuses_non_integers(node):
    with pytest.raises(DomainError, match="integer"):
        cartan_data("A2").check_node(node)


@pytest.mark.parametrize("name", sorted(NODE_ENTRY_POINTS))
@pytest.mark.parametrize("node", [True, 1.0])
def test_node_entry_points_refuse_non_integers(name, node):
    cd = cartan_data("A3")
    call = NODE_ENTRY_POINTS[name]
    call(cd, 1)  # node 1's cache entries are filled first
    with pytest.raises(DomainError, match="integer"):
        call(cd, node)


def test_a_refused_node_leaves_no_cache_entry():
    # In a fresh process no cache holds node 1 yet, so a True that got
    # through would fill node 1's entries and print in later results.
    script = """
from loopchar import DomainError, braid_act, cartan_data, parse_lweight, simple_lroot
cd = cartan_data("A3")
try:
    simple_lroot(cd, True, "a", 0)
except DomainError:
    pass
else:
    raise SystemExit("simple_lroot accepted True")
print(simple_lroot(cd, 1, "a", 0))
print(braid_act(cd, 1, parse_lweight("w[1;a,0]")))
"""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "w[1;a,0]*w[1;a,2]*w[2;a,1]^-1\nw[1;a,2]^-1*w[2;a,1]\n"


def _first_refusal(cd, seq):
    for i in seq:
        try:
            cd.check_node(i)
        except DomainError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("seq", [
    (), [], (1,), (1, 2, 3), [3, 1, 2, 2],
    (1, True), (2, 1.0, 3), ("1",), (1, None), (0, 2), (1, 4), (4, 0), (2, 5, True),
])
def test_check_nodes_refuses_what_check_node_refuses_first(seq):
    cd = cartan_data("A3")
    expected = _first_refusal(cd, seq)
    if expected is None:
        assert cd.check_nodes(seq) is None
    else:
        with pytest.raises(DomainError) as info:
            cd.check_nodes(seq)
        assert str(info.value) == expected


# A loop weight built directly, not parsed, with a bad node between good
# ones: sorting puts True and 2.0 among the int nodes, so the two ends
# of the factor tuple alone do not show it.
BAD_NODE_WEIGHTS = [
    LWeight((((True, "a", 0), 1),)),
    LWeight((((1, "a", 0), 1), ((2.0, "a", 0), 1), ((3, "a", 0), 1))),
    LWeight((((1, "a", 0), 1), ((True, "a", 2), 1), ((2, "a", 0), 1))),
]

# Every function that reads the factor nodes of a loop weight of A3.
LWEIGHT_ENTRY_POINTS = {
    "check_lweight": check_lweight,
    "braid_act": lambda cd, pi: braid_act(cd, 1, pi),
    "braid_act_word": lambda cd, pi: braid_act_word(cd, (1, 2), pi),
    "braid_orbit": braid_orbit,
    "weight_of": weight_of,
    "dual_lweight": dual_lweight,
    "lroot_decompose": lroot_decompose,
    "cone_check": lambda cd, pi: cone_check(cd, parse_lweight("w[1;a,0]"), pi),
    "elliptic_class": elliptic_class,
}


@pytest.mark.parametrize("name", sorted(LWEIGHT_ENTRY_POINTS))
@pytest.mark.parametrize("index", range(len(BAD_NODE_WEIGHTS)))
def test_every_factor_node_is_checked(name, index):
    with pytest.raises(DomainError, match="integer"):
        LWEIGHT_ENTRY_POINTS[name](cartan_data("A3"), BAD_NODE_WEIGHTS[index])
