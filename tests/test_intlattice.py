"""Integer lattice and sparse solver behavior."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopchar.intlattice import SparseIntSolver, solve, xgcd


def test_xgcd_identity():
    for a, b in ((0, 0), (6, 4), (-6, 4), (7, 0), (0, -5), (12, 18)):
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0


def lattice(*rows):
    """A solver holding the given dense rows as columns."""
    lat = SparseIntSolver()
    for row in rows:
        lat.add_column(dict(enumerate(row)))
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
    lat.add_column({0: 2, 1: 4, 2: 4})
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
    assert solve([{0: 2}], {0: 4}) == [2]
    assert solve([{0: 2}], {0: -6}) == [-3]
    assert solve([{0: 2}], {0: 3}) is None


def test_solver_two_columns():
    assert solve([{0: 1, 1: 1}, {1: 1}], {0: 2, 1: 5}) == [2, 3]


def test_solver_empty_target():
    assert solve([{0: 3}], {}) == [0]


def _combination(columns, x):
    """sum(x[n] * columns[n]) with zero entries dropped."""
    out = {}
    for c, col in zip(x, columns):
        for row, v in col.items():
            out[row] = out.get(row, 0) + c * v
    return {row: v for row, v in out.items() if v}


@settings(max_examples=60)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 4), st.integers(-4, 4), max_size=3),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
)
def test_solver_reproduces_combinations(columns, weights):
    target = _combination(columns, weights)
    x = solve(columns, target)
    assert x is not None
    assert _combination(columns, x) == target


def _scaled(x, u, y, v):
    """x*u + y*v with zero entries dropped."""
    out = {k: x * c for k, c in u.items()}
    for k, c in v.items():
        out[k] = out.get(k, 0) + y * c
    return {k: c for k, c in out.items() if c}


def _tracked_solve(columns, target):
    """The combination-tracking solve that ``intlattice.solve`` replaced,
    kept as its oracle: each echelon pivot carries the combination of
    columns behind it, and the target is reduced pivot by pivot."""
    pivots = {}
    for n, col in enumerate(columns):
        v, combo = {k: c for k, c in col.items() if c}, {n: 1}
        while v:
            j = min(v)
            if v[j] < 0:
                v, combo = _scaled(-1, v, 0, {}), _scaled(-1, combo, 0, {})
            if j not in pivots:
                pivots[j] = (v, combo)
                break
            pv, pc = pivots[j]
            a, b = pv[j], v[j]
            g, x, y = xgcd(a, b)
            pivots[j] = (_scaled(x, pv, y, v), _scaled(x, pc, y, combo))
            v, combo = _scaled(a // g, v, -(b // g), pv), _scaled(a // g, combo, -(b // g), pc)
    v, combo = {k: c for k, c in target.items() if c}, {}
    while v:
        j = min(v)
        if j not in pivots or v[j] % pivots[j][0][j]:
            return None
        pv, pc = pivots[j]
        q = v[j] // pv[j]
        v, combo = _scaled(1, v, -q, pv), _scaled(1, combo, q, pc)
    return combo


sparse_vecs = st.dictionaries(st.integers(0, 5), st.integers(-6, 6), max_size=4)


@settings(max_examples=200)
@given(
    st.lists(sparse_vecs, min_size=1, max_size=5),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
    sparse_vecs,
    st.booleans(),
)
@example([{0: 2}], [0], {0: 1}, True)
@example([{0: 2, 1: 1}, {0: 4, 1: 2}], [1, -1], {}, False)
def test_solve_matches_the_tracked_solve(columns, weights, noise, noisy):
    # Targets built as a combination of the columns are solvable; adding
    # noise makes some of them unsolvable.
    target = _combination(columns, weights[: len(columns)])
    if noisy:
        target = _scaled(1, target, 1, noise)
    x = solve(columns, target)
    assert (x is None) == (_tracked_solve(columns, target) is None)
    if x is not None:
        # x may differ from the oracle's by a kernel element: check the
        # defining property, an exact combination.
        assert len(x) == len(columns)
        assert _combination(columns, x) == target


def test_solve_rekeys_rows_that_only_sort_among_themselves():
    columns = [{("b", 1): 1, ("a", 0): 1}, {("b", 1): 1}]
    assert solve(columns, {("a", 0): 2, ("b", 1): 5}) == [2, 3]
    assert solve(columns, {("c", 0): 1}) is None


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
    for col in columns:
        lat.add_column(col)
    assert lat.residue(vec) == _every_pivot_residue(lat, vec)
