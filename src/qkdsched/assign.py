"""Exact rectangular assignment with deterministic tie-breaking.

Wraps a shortest-augmenting-path solver (scipy's Jonker-Volgenant variant)
and refines its answer so that among all optimal assignments the returned
one is lexicographically smallest in column index, row by row. Forbidden
pairs are carried as an explicit boolean mask, never as large sentinel
costs, so the weights stay numerically clean.

The refinement needs one solve. Shortest alternating paths in the residual
graph of the optimal map price every move a row could make; when no row
can take a smaller column within the tie tolerance, which is the usual
case for float weights, the solver's map is returned as it is. Otherwise
column potentials from the same paths give every feasible edge a
nonnegative reduced cost, zero on the map, and the excess of any
assignment over the optimum is a sum of such reduced costs (complementary
slackness for the assignment LP; Burkard, Dell'Amico & Martello,
*Assignment Problems*, SIAM 2009, ch. 4). Rows are then fixed in order:
each takes the smallest column whose cheapest completion stays within the
tolerance, and each candidate is priced by one shortest alternating path
over the reduced costs instead of a re-solve.
"""

from __future__ import annotations

import heapq
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

    # one-row instances: straight scan, cheapest place to be deterministic
    if n_rows == 1:
        j = int(np.flatnonzero(matrix.feasible[0] & (cost[0] == cost[0].min()))[0])
        return np.array([j], dtype=np.int64)

    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError as exc:
        raise AssignmentInfeasibleError(
            "rows cannot all be matched to feasible columns") from exc
    total = float(cost[rows, cols].sum())
    tol = _REL_TOL * max(1.0, abs(total))
    return _lex_smallest(cost, cols.astype(np.int64, copy=False), tol)


def _row_distances(cost: np.ndarray, match: np.ndarray) -> tuple:
    """Each row's cost of moving to each column, and the shortest
    alternating paths between the columns of an optimal map.

    Node k < n stands for row k's column, node n for all unused columns at
    once. Leaving node k for row k2's column costs what row k pays to move
    there; leaving it for node n costs row k's cheapest move into an unused
    column; leaving node n for any row's column costs nothing. An optimal
    map leaves no negative cycle, so Floyd-Warshall over the n + 1 nodes
    settles the lengths, in memory quadratic in the rows.
    """
    n = len(match)
    move = cost - cost[np.arange(n), match][:, None]
    dist = np.zeros((n + 1, n + 1))
    dist[:n, :n] = move[:, match]
    into_unused = move.copy()
    into_unused[:, match] = np.inf
    dist[:n, n] = into_unused.min(axis=1)
    for k in range(n + 1):
        dist = np.minimum(dist, dist[:, k, None] + dist[k])
    return move, dist


def _potentials(match: np.ndarray, dist: np.ndarray, n_cols: int) -> np.ndarray:
    """Column potentials v <= 0 of an optimal map, zero on unused columns:
    the shortest path into each column from anywhere. With the row
    potentials ``cost[k, match[k]] - v[match[k]]`` they form a dual
    solution that is tight on the map (complementary slackness)."""
    v = np.zeros(n_cols)
    v[match] = dist[:, :len(match)].min(axis=0)
    return v


def _reduced(cost: np.ndarray, match: np.ndarray, v: np.ndarray) -> np.ndarray:
    u = cost[np.arange(len(match)), match] - v[match]
    return np.maximum(cost - u[:, None] - v, 0.0)


def _lex_smallest(cost: np.ndarray, match: np.ndarray, tol: float) -> np.ndarray:
    """Lexicographically smallest map within ``tol`` of the optimal ``match``.

    Row i keeps its column unless a smaller free column j has a cheapest
    completion within the tolerance left. That completion moves row i to
    j and shifts the other rows along the shortest alternating path from j
    back to i's column, so its excess is the reduced cost of (i, j) plus
    that path's length over reduced costs. Unused columns act as one hub:
    leaving any of them for column b costs ``-v[b]``.
    """
    n, m = cost.shape
    move, dist = _row_distances(cost, match)
    node = np.full(m, n)
    node[match] = np.arange(n)
    # with no row fixed, row i taking column j costs move[i, j] plus the
    # path from j back to i's column; if no smaller column gets within the
    # tolerance that way, fixing rows cannot make one, and no row moves
    excess = move + dist[node, :n].T
    if not ((excess <= tol) & (np.arange(m) < match[:, None])).any():
        return match

    v = _potentials(match, dist, m)
    reduced = _reduced(cost, match, v)
    owner = np.full(m, -1)
    owner[match] = np.arange(n)
    match = match.copy()
    free = np.ones(m, dtype=bool)
    spent = 0.0
    for i in range(n):
        t = int(match[i])
        for j in np.flatnonzero(free[:t] & (reduced[i, :t] <= tol - spent)).tolist():
            found = _alternating_path(reduced[i + 1:], v, owner - (i + 1), free, j, t,
                                      tol - spent - reduced[i, j])
            if found is None:
                continue
            length, path = found
            spent += reduced[i, j] + length
            movers = owner[path[:-1]]
            owner[path[1:]] = movers
            owner[j] = i
            real = movers >= 0
            match[movers[real]] = np.asarray(path[1:])[real]
            match[i] = j
            free[j] = False
            if i + 1 < n:
                # fresh potentials for the rows still free to move
                rest = np.flatnonzero(free)
                pos = np.full(m, -1)
                pos[rest] = np.arange(len(rest))
                sub_match = pos[match[i + 1:]]
                _, sub_dist = _row_distances(cost[i + 1:, rest], sub_match)
                v = np.zeros(m)
                v[rest] = _potentials(sub_match, sub_dist, len(rest))
                reduced[i + 1:] = _reduced(cost[i + 1:], match[i + 1:], v)
            break
        free[match[i]] = False
    return match


def _alternating_path(reduced, v, owner, free, start, target, budget):
    """Shortest path from column ``start`` to column ``target`` of length at
    most ``budget``, as (length, columns), or None.

    ``reduced`` holds the rows that may still move, ``owner`` maps a column
    to its row there (negative when the column is unused or taken by a row
    that may not move) and only ``free`` columns are entered. A row leaves
    its column for column b at ``reduced[row, b]``; an unused column is left
    for column b at ``-v[b]``.
    """
    dist = {start: 0.0}
    prev = {}
    heap = [(0.0, start)]
    done = set()
    cols = np.flatnonzero(free)
    while heap:
        d, b = heapq.heappop(heap)
        if b in done:
            continue
        if b == target:
            path = [b]
            while path[-1] != start:
                path.append(prev[path[-1]])
            return d, path[::-1]
        done.add(b)
        k = owner[b]
        leave = reduced[k] if k >= 0 else -v
        for c in cols[d + leave[cols] <= budget].tolist():
            nd = d + leave[c]
            if c not in done and nd < dist.get(c, np.inf):
                dist[c] = nd
                prev[c] = b
                heapq.heappush(heap, (nd, c))
    return None


def assignment_value(matrix: WeightMatrix, row_to_col: np.ndarray) -> float:
    """Total weight of a row -> column map (raises on infeasible edges)."""
    rows = np.arange(len(row_to_col))
    if not matrix.feasible[rows, row_to_col].all():
        raise ValueError("assignment uses a forbidden edge")
    return float(matrix.weights[rows, row_to_col].sum())
