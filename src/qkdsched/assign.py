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

That check is one certificate with two callers. :func:`solve_assignment`
runs it on its own map, a batch of one. A caller that solves many
matrices can instead take each raw map from :func:`optimal_map`, the only
place that calls the LSAP solver, and certify a stack of maps of one
shape at once with :func:`certify`: one Floyd-Warshall over a
(n + 1, n + 1, K) array, so the numpy calls scale with the rows, not with
K. A map that passes is what :func:`solve_assignment` returns for its
matrix; one that fails must be solved again by :func:`solve_assignment`,
whose walk is exact.
"""

from __future__ import annotations

import functools
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
    match = optimal_map(cost)
    if n_rows == 1:
        return match
    settled, tol, dist = _check(cost[None], match[None])
    if settled[0]:
        return match
    return _lex_walk(cost, match, float(tol[0]), dist[:, :, 0])


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
    its matrix's tolerance; :func:`solve_assignment` makes the same check
    with K = 1 before it walks.
    """
    return _check(cost, match)[0]


def _check(cost: np.ndarray, match: np.ndarray) -> tuple:
    """Verdicts, tolerances and row distances of K optimal maps.

    Each tolerance is ``_REL_TOL`` relative to its map's total, and at
    least ``_REL_TOL``. With no row fixed, row i taking column j costs
    move[i, j] plus the path from j back to i's column; if no smaller
    column gets within the tolerance that way, fixing rows cannot make
    one, and no row moves.
    """
    K, n, m = cost.shape
    kk, rows, kk3, rows2, cols = _grid(K, n, m)
    matched = cost[kk, rows, match]
    tol = _REL_TOL * np.maximum(1.0, np.abs(matched.sum(axis=1)))
    move = cost - matched[:, :, None]
    dist = _row_distances(move, match)
    node = np.full((K, m), n)
    node[kk, match] = rows
    excess = move + dist[node[:, None, :], rows2, kk3]
    movable = (excess <= tol[:, None, None]) & (cols < match[:, :, None])
    return ~movable.any(axis=(1, 2)), tol, dist


@functools.lru_cache(maxsize=256)
def _grid(K: int, n: int, m: int) -> tuple:
    """Index arrays over a (K, n, m) stack, built once per shape.

    Round-robin makes a K = 1 check for every slot it solves, and building
    these small arrays each time was a measurable share of its solve.
    """
    kk, rows, cols = np.arange(K)[:, None], np.arange(n), np.arange(m)
    for a in (kk, rows, cols):
        a.flags.writeable = False
    return kk, rows, kk[:, :, None], rows[:, None], cols


def _row_distances(move: np.ndarray, match: np.ndarray) -> np.ndarray:
    """Shortest alternating paths between the columns of K optimal maps,
    given each row's cost ``move`` (K, n, m) of moving to each column, as
    an (n + 1, n + 1, K) array.

    Node k < n stands for row k's column, node n for all unused columns at
    once. Leaving node k for row k2's column costs what row k pays to move
    there; leaving it for node n costs row k's cheapest move into an unused
    column; leaving node n for any row's column costs nothing. An optimal
    map leaves no negative cycle, so Floyd-Warshall over the n + 1 nodes
    settles the lengths, in memory quadratic in the rows. The batch axis
    comes last so that each step of it reads like the one-matrix form.
    """
    K, n, m = move.shape
    kk, _, kk3, rows2, _ = _grid(K, n, m)
    dist = np.zeros((n + 1, n + 1, K))
    dist[:n, :n] = move[kk3, rows2, match[:, None, :]].transpose(1, 2, 0)
    into_unused = move.copy()
    into_unused[kk, :, match] = np.inf
    dist[:n, n] = into_unused.min(axis=2).T
    for k in range(n + 1):
        dist = np.minimum(dist, dist[:, k, None] + dist[k])
    return dist


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


def _lex_walk(cost: np.ndarray, match: np.ndarray, tol: float,
              dist: np.ndarray) -> np.ndarray:
    """Lexicographically smallest map within ``tol`` of the optimal
    ``match``, whose shortest alternating paths ``dist`` failed the check
    of :func:`_check`.

    Row i keeps its column unless a smaller free column j has a cheapest
    completion within the tolerance left. That completion moves row i to
    j and shifts the other rows along the shortest alternating path from j
    back to i's column, so its excess is the reduced cost of (i, j) plus
    that path's length over reduced costs. Unused columns act as one hub:
    leaving any of them for column b costs ``-v[b]``.
    """
    n, m = cost.shape
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
                sub = cost[i + 1:, rest]
                sub_move = sub - sub[np.arange(n - i - 1), sub_match][:, None]
                sub_dist = _row_distances(sub_move[None], sub_match[None])
                v = np.zeros(m)
                v[rest] = _potentials(sub_match, sub_dist[:, :, 0], len(rest))
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
