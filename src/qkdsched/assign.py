"""Exact rectangular assignment with deterministic tie-breaking.

Wraps a shortest-augmenting-path solver (scipy's Jonker-Volgenant variant)
and refines its answer so that among all optimal assignments the returned
one is lexicographically smallest in column index, row by row. Forbidden
pairs are carried as an explicit boolean mask, never as large sentinel
costs, so the weights stay numerically clean.

One pricing routine serves the whole rule. Given an optimal map, the
cheapest completion of "row k takes column j while the rows before k keep
their columns" exceeds the optimum by the move plus a shortest
alternating path in the residual graph of the map (Burkard, Dell'Amico &
Martello, *Assignment Problems*, SIAM 2009, ch. 4). One Floyd-Warshall
(Floyd, CACM 5(6), 1962) that adds the rows last to first prices every
(k, j) at once (:func:`_completions`). When no row can take a smaller
column within the tie tolerance, which is the usual case for float
weights, the solver's map is the answer. Otherwise the walk moves the
first row that can, re-solves the rows after it once and prices them
again, until no row can move.

A caller that solves many matrices takes each raw map from
:func:`optimal_map`, the only place that calls the LSAP solver, and
checks a stack of maps of one shape at once with :func:`certify`: the
same Floyd-Warshall over a (n + 1, n + 1, K) array, so the numpy calls
scale with the rows, not with K. A map passes exactly when
:func:`solve_assignment` returns it unchanged for its matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

# relative slack when comparing two candidate optima; weights are exact for
# integer inputs and agree to ~1e-12 for float ones
_REL_TOL = 1e-9


class AssignmentInfeasibleError(ValueError):
    """No assignment covers every row with its feasible columns."""


@dataclass
class WeightMatrix:
    """Dense weights plus a feasibility mask, rows <= cols.

    ``feasible[i, j]`` False means row i must not take column j. Every row
    needs at least one feasible column or the solver refuses the instance.
    """

    weights: np.ndarray
    feasible: np.ndarray = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2:
            raise ValueError("weights must be 2-D")
        if self.feasible is None:
            self.feasible = np.ones(self.weights.shape, dtype=bool)
        else:
            self.feasible = np.asarray(self.feasible, dtype=bool)
            if self.feasible.shape != self.weights.shape:
                raise ValueError("mask shape differs from weights")
        if not np.all(np.isfinite(self.weights[self.feasible])):
            raise ValueError("non-finite weight on a feasible edge")


def solve_assignment(matrix: WeightMatrix, maximize: bool = True) -> np.ndarray:
    """Optimal row -> column map, lexicographically smallest among optima.

    With ``maximize`` False the total weight is minimized instead. Two
    totals within ``_REL_TOL`` of the optimum, relative to it, count as
    tied; a one-row matrix takes the first column of exactly optimal weight.
    Raises :class:`AssignmentInfeasibleError` when some row has no feasible
    column or no complete matching of the rows exists.
    """
    w = matrix.weights
    n_rows, n_cols = w.shape
    if n_rows > n_cols:
        raise ValueError("more rows than columns; orient the matrix first")
    if not matrix.feasible.any(axis=1).all():
        bad = int(np.flatnonzero(~matrix.feasible.any(axis=1))[0])
        raise AssignmentInfeasibleError(f"row {bad} has no feasible column")

    cost = np.where(matrix.feasible, -w if maximize else w, np.inf)
    if n_rows == 0:
        return np.zeros(0, dtype=np.int64)
    match = optimal_map(cost)
    if n_rows == 1:
        return match
    settled, tol, excess = _check(cost[None], match[None])
    if settled[0]:
        return match
    return _lex_walk(cost, match, float(tol[0]), excess[0])


def optimal_map(cost: np.ndarray) -> np.ndarray:
    """A minimum-cost row -> column map of ``cost`` (``inf`` on forbidden
    cells, rows <= cols), before ties are broken.

    A one-row matrix takes its first cheapest column, which is already the
    tie rule's answer; a larger one takes the map of one LSAP call.
    """
    if cost.shape[0] == 1:
        return cost.argmin(axis=1)
    try:
        _, cols = linear_sum_assignment(cost)
    except ValueError as exc:
        raise AssignmentInfeasibleError(
            "rows cannot all be matched to feasible columns") from exc
    return cols.astype(np.int64, copy=False)


def certify(cost: np.ndarray, match: np.ndarray) -> np.ndarray:
    """Which of K optimal maps the tie rule returns unchanged, as a (K,)
    boolean array.

    ``cost`` is a (K, n, m) stack of matrices of one shape, with n >= 2,
    and ``match`` holds an optimal map of each, as :func:`optimal_map`
    gives it. A map passes when no row can take a smaller column within
    its matrix's tolerance while the rows before it keep theirs;
    :func:`solve_assignment` makes the same check with K = 1 and walks
    exactly when it fails.
    """
    return _check(cost, match)[0]


def _check(cost: np.ndarray, match: np.ndarray) -> tuple:
    """Verdicts, tolerances and completion excesses of K optimal maps.

    Each tolerance is ``_REL_TOL`` relative to its map's total, and at
    least ``_REL_TOL``. A map fails when some row has a smaller column
    whose cheapest completion, the rows before it fixed, stays within the
    tolerance: the first such row is the one the walk moves.
    """
    K, n, m = cost.shape
    kk, rows, _, _, cols = _grid(K, n, m)
    total = cost[kk, rows, match].sum(axis=1)
    tol = _REL_TOL * np.maximum(1.0, np.abs(total))
    excess = _completions(cost, match)
    movable = (excess <= tol[:, None, None]) & (cols < match[:, :, None])
    return ~movable.any(axis=(1, 2)), tol, excess


@functools.lru_cache(maxsize=256)
def _grid(K: int, n: int, m: int) -> tuple:
    """Index arrays over a (K, n, m) stack, built once per shape. Shapes
    repeat across a pass's windows and exact re-solves: 97 % of full-day
    round-robin's 111 980 grids hit the cache, and without it that run
    took 15.5-15.9 s against 10.9-13.9 s on a shared 2-core machine
    (within noise in six later interleaved pairs)."""
    kk, rows, cols = np.arange(K)[:, None], np.arange(n), np.arange(m)
    for a in (kk, rows, cols):
        a.flags.writeable = False
    return kk, rows, kk[:, :, None], rows[:, None], cols


def _completions(cost: np.ndarray, match: np.ndarray) -> np.ndarray:
    """What row k taking column j adds to the optimum of each of K optimal
    maps while the rows before k keep their columns, as a (K, n, m) array;
    ``inf`` where j is forbidden to k or taken by a row before k.

    Node k < n stands for row k's column, node n for all unused columns at
    once. Leaving node k for row k2's column costs what row k pays to move
    there; leaving it for node n costs row k's cheapest move into an unused
    column; leaving node n for any row's column costs nothing. Row k taking
    column j costs its move plus the shortest path from j's node back to
    node k. An optimal map leaves no negative cycle, so Floyd-Warshall
    settles the lengths. It adds the hub, then rows n - 1 down to 0, and
    once row k is in, the lengths among the hub and rows >= k are those of
    the problem without the rows before k, whose columns are then fixed:
    row k's column of ``dist`` at that step prices row k. The batch axis
    comes last so that each step reads like the one-matrix form.
    """
    K, n, m = cost.shape
    kk, rows, kk3, rows2, _ = _grid(K, n, m)
    move = cost - cost[kk, rows, match][:, :, None]
    dist = np.zeros((n + 1, n + 1, K))
    dist[:n, :n] = move[kk3, rows2, match[:, None, :]].transpose(1, 2, 0)
    into_unused = move.copy()
    into_unused[kk, :, match] = np.inf
    dist[:n, n] = into_unused.min(axis=2).T
    back = np.empty((n, n + 1, K))
    for k in range(n, -1, -1):
        np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
        if k < n:
            back[k] = dist[:, k]
            back[k, :k] = np.inf
    node = np.full((K, 1, m), n)
    node[kk, 0, match] = rows
    return move + back[rows2, node, kk3]


def _lex_walk(cost: np.ndarray, match: np.ndarray, tol: float,
              excess: np.ndarray) -> np.ndarray:
    """Lexicographically smallest map within ``tol`` of the optimal
    ``match``, whose completion excesses ``excess`` failed the check of
    :func:`_check`.

    The first row with a smaller column within the tolerance left takes
    the smallest such column, and the rows before it keep theirs. The
    rows after it are matched again on the columns left, one optimal map,
    and priced again, until no row can move.
    """
    n, m = cost.shape
    match = match.copy()
    first, spent = 0, 0.0
    free, sub = np.arange(m), match
    while True:
        movable = (excess <= tol - spent) & (np.arange(len(free)) < sub[:, None])
        hit = np.flatnonzero(movable.any(axis=1))
        if not len(hit):
            return match
        r = int(hit[0])
        j = int(movable[r].argmax())
        spent += excess[r, j]
        match[first + r] = free[j]
        first += r + 1
        if first == n:
            return match
        left = np.ones(m, dtype=bool)
        left[match[:first]] = False
        free = np.flatnonzero(left)
        rest = cost[first:, free]
        sub = optimal_map(rest)
        match[first:] = free[sub]
        excess = _completions(rest[None], sub[None])[0]


def assignment_value(matrix: WeightMatrix, row_to_col: np.ndarray) -> float:
    """Total weight of a row -> column map (raises on infeasible edges)."""
    rows = np.arange(len(row_to_col))
    if not matrix.feasible[rows, row_to_col].all():
        raise ValueError("assignment uses a forbidden edge")
    return float(matrix.weights[rows, row_to_col].sum())
