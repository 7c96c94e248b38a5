from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qkdsched import assign
from qkdsched.assign import (AssignmentInfeasibleError, WeightMatrix,
                             assignment_value, certify, optimal_map, solve_assignment)
from conftest import brute_force_assignment, reference_solve_assignment


def _check_against_oracle(weights, feasible, maximize):
    matrix = WeightMatrix(weights=weights, feasible=feasible)
    oracle_val, oracle_map = brute_force_assignment(weights, feasible, maximize)
    if oracle_val is None:
        with pytest.raises(AssignmentInfeasibleError):
            solve_assignment(matrix, maximize=maximize)
        return
    got = solve_assignment(matrix, maximize=maximize)
    assert assignment_value(matrix, got) == pytest.approx(oracle_val, abs=1e-9)
    assert tuple(got) == oracle_map, (weights, feasible, maximize)


def test_known_instance():
    w = np.array([[4.0, 1.0, 3.0],
                  [2.0, 0.0, 5.0],
                  [3.0, 2.0, 2.0]])
    m = WeightMatrix(weights=w)
    got = solve_assignment(m, maximize=True)
    assert assignment_value(m, got) == 4.0 + 5.0 + 2.0
    assert list(got) == [0, 2, 1]
    got_min = solve_assignment(m, maximize=False)
    assert assignment_value(m, got_min) == 1.0 + 2.0 + 2.0
    assert list(got_min) == [1, 0, 2]


def test_tie_break_lowest_column():
    # every assignment costs the same; the lexicographically smallest wins
    w = np.ones((3, 5))
    got = solve_assignment(WeightMatrix(weights=w), maximize=True)
    assert list(got) == [0, 1, 2]
    got = solve_assignment(WeightMatrix(weights=w), maximize=False)
    assert list(got) == [0, 1, 2]


def test_tie_break_with_mask():
    w = np.ones((2, 3))
    feasible = np.array([[False, True, True],
                         [True, True, True]])
    got = solve_assignment(WeightMatrix(weights=w, feasible=feasible))
    assert list(got) == [1, 0]


def test_single_row():
    w = np.array([[2.0, 7.0, 7.0, 1.0]])
    assert list(solve_assignment(WeightMatrix(weights=w))) == [1]
    assert list(solve_assignment(WeightMatrix(weights=w), maximize=False)) == [3]


def test_row_without_feasible_column():
    w = np.zeros((2, 2))
    feasible = np.array([[True, True], [False, False]])
    with pytest.raises(AssignmentInfeasibleError, match="row 1"):
        solve_assignment(WeightMatrix(weights=w, feasible=feasible))


def test_hall_violation_detected():
    # both rows feasible only in column 0
    w = np.zeros((2, 2))
    feasible = np.array([[True, False], [True, False]])
    with pytest.raises(AssignmentInfeasibleError):
        solve_assignment(WeightMatrix(weights=w, feasible=feasible))


def test_rows_exceed_columns_rejected():
    with pytest.raises(ValueError, match="orient"):
        solve_assignment(WeightMatrix(weights=np.zeros((3, 2))))


def test_sentinel_weights_rejected():
    w = np.array([[1.0, np.inf], [2.0, 3.0]])
    with pytest.raises(ValueError, match="non-finite"):
        WeightMatrix(weights=w)
    # but non-finite entries behind the mask are fine
    WeightMatrix(weights=w, feasible=np.array([[True, False], [True, True]]))


def test_random_instances_against_oracle(rng):
    for trial in range(400):
        n_rows = int(rng.integers(1, 6))
        n_cols = int(rng.integers(n_rows, 7))
        if trial % 3 == 0:
            weights = rng.integers(0, 6, size=(n_rows, n_cols)).astype(float)
        else:
            weights = np.round(rng.random((n_rows, n_cols)) * 10.0, 3)
        feasible = rng.random((n_rows, n_cols)) < 0.8
        feasible[rng.random(n_rows) < 0.5, :] |= True  # keep some rows open
        if not feasible.any(axis=1).all():
            continue
        _check_against_oracle(weights, feasible, maximize=bool(trial % 2))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2), st.data())
def test_property_matches_oracle(n_rows, extra_cols, data):
    n_cols = n_rows + extra_cols
    weights = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 8), min_size=n_cols, max_size=n_cols),
        min_size=n_rows, max_size=n_rows)), dtype=float)
    feasible = np.ones((n_rows, n_cols), dtype=bool)
    _check_against_oracle(weights, feasible, maximize=True)
    _check_against_oracle(weights, feasible, maximize=False)


def _near_tie_weights(rng, shape, integer):
    """Integer weights from a small range (rr's counters tie), or a few
    float levels nudged by relative amounts from 1e-12 to 1e-7, around the
    1e-9 tolerance. The nudges are drawn from a continuous range: on a
    lattice of nudges some excess lands on the tolerance itself, where the
    outcome rests on the rounding of either solver's sums."""
    if integer:
        return rng.integers(0, 4, size=shape).astype(float)
    levels = rng.choice([0.5, 1.0, 2.0], size=shape)
    nudge = 10.0 ** rng.uniform(-12.0, -7.0, size=shape) * rng.choice([-1.0, 0.0, 1.0],
                                                                       size=shape)
    return levels * (1.0 + nudge)


def _near_tie_matrix(rng, n_rows, n_cols, integer, with_heavy):
    """Near-tied weights with infeasible cells; every row keeps a feasible
    column. With ``with_heavy``, a heavy row and a column of its own are
    added, which widens the tolerance far beyond the nudges."""
    weights = _near_tie_weights(rng, (n_rows, n_cols), integer)
    feasible = rng.random((n_rows, n_cols)) < rng.uniform(0.3, 1.0)
    feasible[np.arange(n_rows), rng.integers(0, n_cols, n_rows)] = True
    if with_heavy:
        heavy = float(rng.choice([3.0, 40.0, 1e3]))
        weights = np.pad(weights, ((0, 1), (0, 1)))
        weights[n_rows, n_cols] = heavy
        feasible = np.pad(feasible, ((0, 1), (0, 1)))
        feasible[n_rows, n_cols] = True
    return WeightMatrix(weights=weights, feasible=feasible)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(0, 4),
       st.booleans(), st.booleans(), st.booleans())
# a row moves after an earlier row has moved and the rows after it were
# matched again: the walk must price them against the new, fixed prefix
@example(16, 5, 2, False, False, True)
@example(18, 5, 2, False, True, False)
def test_property_matches_resolve_oracle(seed, n_rows, extra_cols, integer, maximize,
                                         with_heavy):
    """The priced tie walk picks the map the re-solve loop picks.

    A heavy row, forced onto a column of its own, widens the tolerance
    far beyond the nudges, so several rows may spend slack on near-ties.
    """
    rng = np.random.default_rng(seed)
    matrix = _near_tie_matrix(rng, n_rows, n_rows + extra_cols, integer, with_heavy)
    try:
        want = reference_solve_assignment(matrix, maximize=maximize)
    except AssignmentInfeasibleError:
        with pytest.raises(AssignmentInfeasibleError):
            solve_assignment(matrix, maximize=maximize)
        return
    got = solve_assignment(matrix, maximize=maximize)
    assert got.tolist() == want.tolist(), (matrix.weights, matrix.feasible, maximize)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(0, 3), st.integers(1, 6),
       st.booleans(), st.booleans(), st.booleans())
# integer ties where a row could take a smaller column only by displacing an
# earlier row, which the tie rule keeps in place: the map must pass
@example(111, 2, 0, 3, True, False, False)
def test_batched_certificate_matches_single_fast_exit(seed, n_rows, extra_cols, k, integer,
                                                      maximize, with_heavy):
    """``certify`` on a stack of K maps of one shape gives each map the
    verdict that ``solve_assignment``'s own K = 1 check gives it: the solver
    walks exactly when its map fails, and returns the raw map when it
    passes. Square matrices, infeasible cells, integer ties, near-ties
    around the tolerance and heavy rows are all drawn."""
    rng = np.random.default_rng(seed)
    matrices, costs, maps = [], [], []
    for _ in range(k):
        matrix = _near_tie_matrix(rng, n_rows, n_rows + extra_cols, integer, with_heavy)
        w = matrix.weights
        cost = np.where(matrix.feasible, -w if maximize else w, np.inf)
        try:
            maps.append(optimal_map(cost))
        except AssignmentInfeasibleError:
            continue
        matrices.append(matrix)
        costs.append(cost)
    if not matrices:
        return
    verdicts = certify(np.array(costs), np.array(maps))
    walk, walked = assign._lex_walk, []
    with mock.patch.object(assign, "_lex_walk",
                           lambda *a: walked.append(1) or walk(*a)):
        for matrix, match, verdict in zip(matrices, maps, verdicts.tolist()):
            walked.clear()
            got = solve_assignment(matrix, maximize=maximize)
            assert bool(walked) == (not verdict)
            # the certificate is exact: a map fails only if the walk changes it
            assert (got.tolist() == match.tolist()) == verdict


def test_certificate_passes_a_map_no_earlier_row_lets_move():
    # row 1 could take column 0 only if row 0 gave it up, and row 0 keeps
    # its column under the tie rule, so the map is the tie rule's answer
    assert certify(np.zeros((1, 2, 2)), np.array([[0, 1]])).tolist() == [True]
    got = solve_assignment(WeightMatrix(weights=np.zeros((2, 2))))
    assert got.tolist() == [0, 1]
