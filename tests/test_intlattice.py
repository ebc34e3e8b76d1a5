"""Integer lattice and sparse solver behavior."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopchar.intlattice import SparseIntSolver, xgcd


def test_xgcd_identity():
    for a, b in ((0, 0), (6, 4), (-6, 4), (7, 0), (0, -5), (12, 18)):
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0


def lattice(*rows):
    """A solver holding the given dense rows as columns keyed by position."""
    lat = SparseIntSolver()
    for n, row in enumerate(rows):
        lat.add_column(n, dict(enumerate(row)))
    return lat


def test_row_lattice_membership():
    lat = lattice((2, 0), (0, 3))
    assert {0: 4, 1: 3} in lat
    assert {0: 2, 1: -3} in lat
    assert {0: 1} not in lat
    assert {} in lat
    assert {0: 0, 1: 0} in lat


def test_row_lattice_residue_reduces():
    lat = lattice((2, 1), (0, 5))
    for vec in ((7, 3), (-4, 9), (1, 1), (0, 0)):
        r = lat.residue(dict(enumerate(vec)))
        assert {j: a - r.get(j, 0) for j, a in enumerate(vec)} in lat
        assert lat.residue(r) == r
        assert 0 <= r.get(0, 0) < 2 and 0 <= r.get(1, 0) < 5


def test_dependent_row_changes_nothing():
    lat = lattice((1, 2, 0), (0, 0, 4))
    before = lat.basis()
    lat.add_column(2, {0: 2, 1: 4, 2: 4})
    assert lat.basis() == before


rows_strategy = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
    min_size=1,
    max_size=4,
)
vec_strategy = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))


@settings(max_examples=60)
@given(rows_strategy, vec_strategy)
def test_residue_is_canonical(rows, vec):
    lat = lattice(*rows)
    r = lat.residue(dict(enumerate(vec)))
    assert {j: a - r.get(j, 0) for j, a in enumerate(vec)} in lat
    assert lat.residue(r) == r


@settings(max_examples=60)
@given(rows_strategy, vec_strategy, st.randoms(use_true_random=False))
def test_residue_ignores_row_order(rows, vec, rng):
    # Block classes print the same bytes only if the residue depends on
    # the lattice alone, not on the order its rows were inserted.
    shuffled = list(rows)
    rng.shuffle(shuffled)
    a, b = lattice(*rows), lattice(*shuffled)
    assert a.residue(dict(enumerate(vec))) == b.residue(dict(enumerate(vec)))


def test_solver_single_column_sign():
    # A doubled generator must come back with coefficient +2, not -2.
    solver = SparseIntSolver()
    solver.add_column("c", {0: 2})
    assert solver.solve({0: 4}) == {"c": 2}
    assert solver.solve({0: -6}) == {"c": -3}
    assert solver.solve({0: 3}) is None


def test_solver_two_columns():
    solver = SparseIntSolver()
    solver.add_column("x", {0: 1, 1: 1})
    solver.add_column("y", {1: 1})
    combo = solver.solve({0: 2, 1: 5})
    assert combo == {"x": 2, "y": 3}


def test_solver_empty_target():
    solver = SparseIntSolver()
    solver.add_column("x", {0: 3})
    assert solver.solve({}) == {}


@settings(max_examples=60)
@given(
    st.dictionaries(
        st.integers(0, 3),
        st.dictionaries(st.integers(0, 4), st.integers(-4, 4), max_size=3),
        min_size=1,
        max_size=4,
    ),
    st.dictionaries(st.integers(0, 3), st.integers(-3, 3), max_size=4),
)
def test_solver_reproduces_combinations(columns, weights):
    solver = SparseIntSolver()
    for key, col in columns.items():
        solver.add_column(key, col)
    target = {}
    for key, c in weights.items():
        for row, v in columns.get(key, {}).items():
            target[row] = target.get(row, 0) + c * v
    target = {row: v for row, v in target.items() if v}
    combo = solver.solve(target)
    assert combo is not None
    rebuilt = {}
    for key, c in combo.items():
        for row, v in columns[key].items():
            rebuilt[row] = rebuilt.get(row, 0) + c * v
    assert {r: v for r, v in rebuilt.items() if v} == target


def _every_pivot_residue(lat, vec):
    # The residue as a walk over every pivot of the span in ascending key
    # order, present in the vector or not: the walk that visiting only the
    # vector's own pivot keys replaced, kept as its oracle.
    v = {k: c for k, c in vec.items() if c}
    for row in lat.basis():
        j = min(row)
        q = v.get(j, 0) // row[j]
        for k, c in row.items():
            v[k] = v.get(k, 0) - q * c
            if not v[k]:
                del v[k]
    return v


@settings(max_examples=150)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 9), st.integers(-6, 6), max_size=4),
        min_size=1,
        max_size=7,
    ),
    st.dictionaries(st.integers(0, 9), st.integers(-40, 40), max_size=10),
)
# Reducing key 0 adds key 1, a pivot the vector did not hold.
@example([{1: 1}, {0: 2, 1: 1}], {0: 2})
def test_residue_matches_the_walk_over_every_pivot(columns, vec):
    lat = SparseIntSolver()
    for n, col in enumerate(columns):
        lat.add_column(n, col)
    assert lat.residue(vec) == _every_pivot_residue(lat, vec)
