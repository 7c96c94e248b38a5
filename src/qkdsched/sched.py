"""Slot-by-slot downlink schedulers and key-pool accounting.

Every scheduler consumes the same estimate table and answers the same
question: which satellite serves which ground station in each slot, subject
to per-satellite transmitter and per-station receiver counts. Round-robin
ignores link quality and balances service counts, greedy chases the best
instantaneous link, and the opportunistic family maximises throughput while
dual multipliers drag every link's long-run rate up to a target floor.

A schedule is a served-row mask over the estimate table, which is sorted
by (slot, satellite, station); :meth:`Schedule.from_mask` turns any mask
into served triples and key pools.

Round-robin and the opportunistic scheduler run one pass engine
(:class:`_Passes`) and supply only the function that writes a slot's
costs from its links' service counters or multipliers. What does not
depend on the costs is planned once per table (:func:`slot_plan`): a
list of each slot's capacity-copy matrix of table rows, -1 where no link
exists, cut down to the rows kept where Hall's condition fails and the
columns they reach. A pass is one loop over windows of slots: it gathers
each slot's cost matrix from its costs with one ``take``, serves the
slot by the matrix's raw optimal map (:func:`optimal_map`, one LSAP
call) and groups the matrix and map by shape; at the window's end one
:func:`certify` call per shape checks the tie rule, and the first slot
whose map fails is solved with :func:`solve_assignment`, so the
decisions are those of solving every slot with :func:`solve_assignment`.
Round-robin's integer counters tie often: 275 of the 1800 slots of the
seed-1 benchmark slice of ``global_a500`` fail the certificate. Known
limitation: in a slot that violates Hall's condition, the plan keeps
whichever rows one maximum matching of all slots covers, whatever their
costs.

Greedy solves no assignment. One sort per block of ``_BLOCK`` slots puts
each slot's rows in bid order, and the rounds run over Python lists
(:func:`_greedy_rounds`): on slots of about twenty rows, per-slot numpy
calls cost more than the work they do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .assign import WeightMatrix, certify, optimal_map, solve_assignment
from .channel import EstimateTable


@dataclass
class Schedule:
    """Service decisions plus the per-link key pools they imply.

    ``slot``/``sat``/``station`` are the served estimate rows in table
    order. ``key_pool`` is an (n_sats, n_stations) int64 array of whole key
    bits per link: the floor of the summed per-slot key bits of the served
    slots, zero for a link never served. Flooring happens here once, not
    per slot. The links served at least once are the (sat, station) rows.
    """

    n_slots: int
    n_sats: int
    n_stations: int
    slot: np.ndarray
    sat: np.ndarray
    station: np.ndarray
    key_pool: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.slot)

    @classmethod
    def from_mask(cls, estimates: EstimateTable, served: np.ndarray,
                  metadata: dict) -> "Schedule":
        """Schedule serving the estimate rows where ``served`` is True."""
        served = np.asarray(served, dtype=bool)
        shape = (estimates.n_sats, estimates.n_stations)
        # bincount adds in row order, the order the pools have always summed in
        raw = np.bincount(_links(estimates)[served], weights=estimates.key_bits[served],
                          minlength=shape[0] * shape[1])
        slot, sat, station = (np.asarray(a[served], dtype=np.int64) for a in
                              (estimates.slot, estimates.sat, estimates.station))
        return cls(estimates.n_slots, *shape, slot, sat, station,
                   np.floor(raw).astype(np.int64).reshape(shape), metadata)


def _links(estimates: EstimateTable) -> np.ndarray:
    """Flat link index ``sat * n_stations + station`` of every row."""
    return estimates.sat * estimates.n_stations + estimates.station


@dataclass
class SlotPlan:
    """Weight-independent structure of every occupied slot.

    Slot p spans table rows ``[lo[p], hi[p])``. Its assignment matrix has a
    row per station capacity copy and a column per satellite copy, or the
    transpose when satellites have strictly fewer copies. The plan keeps
    all rows or, where Hall's condition fails, the rows of one maximum
    matching, and the columns those rows reach. ``kept[p]`` is that kept
    matrix, an int32 view into one buffer shared by all slots, holding
    slot-local table rows and -1 where no link exists.
    """

    lo: np.ndarray
    hi: np.ndarray
    kept: list


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts)))


def _ranks(group: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """Rank of each flagged item among the flagged items of its group;
    ``group`` is sorted."""
    before = np.cumsum(flag) - flag
    return before - before[np.searchsorted(group, group)]


def slot_plan(estimates: EstimateTable) -> SlotPlan:
    """The table's :class:`SlotPlan`, built on first use and cached; the
    table's slots, links and capacities must not change afterwards."""
    if estimates._plan is None:
        estimates._plan = _build_plan(estimates)
    return estimates._plan


def _copies(slot: np.ndarray, ids: np.ndarray, caps: np.ndarray, n_slots: int) -> tuple:
    """Each row's first capacity copy of its satellite (or station) within
    its slot, copies numbered in id order, and each slot's copy count."""
    keys, inverse = np.unique(slot * len(caps) + ids, return_inverse=True)
    cap, key_slot = caps[keys % len(caps)], keys // len(caps)
    first = _ranks(key_slot, cap)
    count = np.bincount(key_slot, weights=cap, minlength=n_slots).astype(np.int64)
    return first[inverse], count


def _cells(estimates: EstimateTable, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """One cell per (satellite copy, station copy) of every table row, as
    global row and column numbers of the slots' matrices laid end to end,
    with the table row of each cell and each slot's matrix shape.

    Stations are the rows unless satellites have strictly fewer copies.
    """
    n_slots = len(lo)
    slot = np.repeat(np.arange(n_slots), hi - lo)
    sat_first, n_sat = _copies(slot, estimates.sat, estimates.transmitters, n_slots)
    station_first, n_station = _copies(slot, estimates.station, estimates.receivers, n_slots)
    tx = estimates.transmitters[estimates.sat]
    rx = estimates.receivers[estimates.station]
    row = np.repeat(np.arange(len(slot)), tx * rx)
    k = np.arange(len(row)) - np.repeat(np.cumsum(tx * rx) - tx * rx, tx * rx)
    sat_copy = sat_first[row] + k // rx[row]
    station_copy = station_first[row] + k % rx[row]
    stations_are_rows = n_sat >= n_station
    n_rows = np.where(stations_are_rows, n_station, n_sat)
    n_cols = np.where(stations_are_rows, n_sat, n_station)
    cell_slot = slot[row]
    flip = stations_are_rows[cell_slot]
    r = _exclusive_cumsum(n_rows)[cell_slot] + np.where(flip, station_copy, sat_copy)
    c = _exclusive_cumsum(n_cols)[cell_slot] + np.where(flip, sat_copy, station_copy)
    return r, c, row, n_rows, n_cols


def _kept_rows(r: np.ndarray, c: np.ndarray, n_rows: np.ndarray,
               n_cols: np.ndarray) -> np.ndarray:
    """Which matrix rows each slot keeps: those that one maximum matching of
    the block-diagonal graph of all slots covers, so all of a slot's rows
    where Hall's condition holds.

    Hopcroft-Karp's greedy pass and shortest augmenting paths never cross
    slots, and a slot is untouched by phases shorter than its own paths, so
    each slot is matched as its own sorted CSR alone would be.
    """
    graph = csr_matrix((np.ones(len(r), dtype=np.int8), (r, c)),
                       shape=(int(n_rows.sum()), int(n_cols.sum())))
    graph.sort_indices()
    return maximum_bipartite_matching(graph, perm_type="column") >= 0


def _build_plan(estimates: EstimateTable) -> SlotPlan:
    lo, hi = estimates.slot_spans()
    n_slots = len(lo)
    r, c, row, n_rows, n_cols = _cells(estimates, lo, hi)
    kept = _kept_rows(r, c, n_rows, n_cols)
    keep = kept[r]
    r, c, row = r[keep], c[keep], row[keep]
    used = np.zeros(int(n_cols.sum()), dtype=bool)
    used[c] = True
    row_slot = np.repeat(np.arange(n_slots), n_rows)
    col_slot = np.repeat(np.arange(n_slots), n_cols)
    rows = np.bincount(row_slot[kept], minlength=n_slots)
    cols = np.bincount(col_slot[used], minlength=n_slots)
    off = _exclusive_cumsum(rows * cols)
    matrix = np.full(int(off[-1]), -1, dtype=np.int32)
    cell_slot = row_slot[r]
    matrix[off[cell_slot] + _ranks(row_slot, kept)[r] * cols[cell_slot]
           + _ranks(col_slot, used)[c]] = row - lo[cell_slot]
    return SlotPlan(lo, hi, [matrix[at:at + a * b].reshape(a, b) for at, a, b in
                             zip(off.tolist(), rows.tolist(), cols.tolist())])


def run_rr(estimates: EstimateTable) -> Schedule:
    """Round-robin: balance how often each link is served.

    Each link's service counter starts at the number of slots whose graph
    is its single edge. One pass of :class:`_Passes` then solves every slot
    in time order as a minimum-sum assignment over the counters, which
    rotates service across links regardless of their quality, and counts
    each service of a link in a slot of several rows.
    """
    check_key_bits(estimates)
    link = _links(estimates)
    plan = slot_plan(estimates)
    single = plan.lo[plan.hi - plan.lo == 1]
    counters = np.bincount(link[single],
                           minlength=estimates.n_sats * estimates.n_stations).astype(float)
    served_step = np.ones(len(estimates))
    served_step[single] = 0.0
    passes = _Passes(plan, link, counters, served_step, np.zeros(len(estimates)),
                     lambda counts, a, b, out: np.copyto(out, counts))
    return Schedule.from_mask(estimates, passes.run(), {"scheduler": "rr"})


# slots per block of the greedy kernel; bounds the Python lists it holds
# and keeps each block's sort in cache
_BLOCK = 256


def run_greedy(estimates: EstimateTable) -> Schedule:
    """Stations bid for their best-rate satellite; poorer pools win fights.

    Within a slot every unserved station claims the visible satellite with
    the most key bits on offer (the lowest satellite index on ties). An
    oversubscribed satellite takes the claimants it has accumulated the
    fewest key bits with (station index breaks ties); losers re-bid among
    the satellites still free this slot.

    The slots go in blocks of ``_BLOCK``. One sort puts a block's rows in
    bid order (slot, station, key bits descending, satellite), and a kernel
    over Python lists runs the block's rounds. Sorting by block gives the
    order one whole-table sort would, since slots lead it, but each sort
    stays in cache; on a full global day that is four times faster.
    """
    check_key_bits(estimates)
    bits = estimates.key_bits
    link = _links(estimates)
    lo, hi = estimates.slot_spans()
    pool = [0.0] * (estimates.n_sats * estimates.n_stations)
    served = np.zeros(len(estimates), dtype=bool)
    for first in range(0, len(lo), _BLOCK):
        start, stop = int(lo[first]), int(hi[min(first + _BLOCK, len(lo)) - 1])
        part = slice(start, stop)
        rows = start + np.lexsort((estimates.sat[part], -bits[part], estimates.station[part],
                                   estimates.slot[part]))
        sat, station = estimates.sat[rows], estimates.station[rows]
        won = _greedy_rounds((hi[first:first + _BLOCK] - start).tolist(), sat.tolist(),
                             station.tolist(), estimates.transmitters[sat].tolist(),
                             estimates.receivers[station].tolist(), link[rows].tolist(),
                             bits[rows].tolist(), pool)
        served[rows[won]] = True
    return Schedule.from_mask(estimates, served, {"scheduler": "greedy"})


def _greedy_rounds(stops, sat, station, tx_cap, rx_cap, link, bits, pool) -> list:
    """Greedy's rounds over consecutive slots ending at ``stops``, whose
    rows are in bid order; each row carries its satellite's and station's
    capacity. Adds the winners' bits to ``pool`` and returns their rows.

    A round walks the slot's open rows once, and a station bids with its
    first row whose satellite and station both have capacity left; rows
    without capacity never bid again, so the walk drops them. A satellite
    keeps the first ``tx`` of its claimants by (pool, station), and its
    ``tx`` then drops by the number of claimants, floored at zero.
    """
    won = []
    a = 0
    for b in stops:
        tx = dict(zip(sat[a:b], tx_cap[a:b]))
        rx = dict(zip(station[a:b], rx_cap[a:b]))
        cand, closed = range(a, b), set()
        while True:
            keep, bids, last = [], [], -1
            for r in cand:
                g = station[r]
                if rx[g] > 0 and tx[sat[r]] > 0 and r not in closed:
                    keep.append(r)
                    if g != last:
                        last = g
                        bids.append((sat[r], pool[link[r]], g, r))
            if not bids:
                break
            # by satellite, then pool, then station; a station bids once a round
            bids.sort()
            last = -1
            for s, have, g, r in bids:
                if s != last:
                    last, cap, k = s, tx[s], 0
                k += 1
                tx[s] = cap - k if cap > k else 0
                if k <= cap:
                    rx[g] -= 1
                    pool[link[r]] = have + bits[r]
                    closed.add(r)
                    won.append(r)
            cand = keep
        a = b
    return won


def derive_min_rates(schedule: Schedule, estimates: EstimateTable) -> np.ndarray:
    """Per-link rate floors achieved by a schedule, as the (n_sats,
    n_stations) array that :func:`run_opportunistic` takes.

    Each link's floor is its pool bits per usable slot of its satellite,
    divided by the table's normaliser (its largest per-slot key bits), the
    divisor of the opportunistic utilities, so floors and utilities live
    on one scale.
    """
    tau = estimates.tau()[:, None]
    return np.divide(schedule.key_pool, tau, out=np.zeros(schedule.key_pool.shape),
                     where=tau > 0) / estimates.normalizer


def check_key_bits(estimates: EstimateTable) -> None:
    """Raise ValueError unless every key bit is finite and non-negative:
    pools are floored into int64, and greedy orders claimants by pool."""
    bits = estimates.key_bits
    if not np.all((bits >= 0) & (bits < np.inf)):
        raise ValueError("non-finite or negative key bits in the estimate table")


def check_opportunistic(delta: float, max_passes: int, tol: float) -> None:
    """Raise ValueError for settings :func:`run_opportunistic` refuses."""
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be finite and positive, got {delta}")
    if max_passes < 1:
        raise ValueError("max_passes must be at least 1")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


def run_opportunistic(estimates: EstimateTable, targets: np.ndarray,
                      delta: float = 0.01, max_passes: int = 50,
                      tol: float = 1e-4) -> Schedule:
    """Throughput-chasing scheduler with per-link rate floors.

    Each slot solves a maximise assignment with weights (1 + lambda) * U,
    where U is the normalised key-bit utility and lambda the link's dual
    multiplier. ``targets`` holds each link's floor r, on the utilities'
    scale (:func:`derive_min_rates`). Served links relax their multiplier
    by delta * (U - r), unserved visible links tighten by delta * r, both
    clamped at zero.
    Passes repeat over the whole horizon until the largest multiplier drift
    across a pass drops below ``tol`` or ``max_passes`` is hit; the last
    pass's decisions are the schedule, those of solving every slot with
    :func:`solve_assignment` (:class:`_Passes`).
    """
    check_opportunistic(delta, max_passes, tol)
    check_key_bits(estimates)
    link = _links(estimates)
    bits, norm = estimates.key_bits, estimates.normalizer

    def cost(lam, a, b, out):
        # -(1 + lambda) * bits / norm: a negated divisor negates the rounded
        # quotient exactly, so this minimum is the maximum of the weights
        np.add(lam, 1.0, out=out)
        np.multiply(out, bits[a:b], out=out)
        np.divide(out, -norm, out=out)

    # a served row adds -delta * (U - r) to its link's multiplier, an
    # unserved one delta * r, made in r's place; x - y and x + (-y) round alike
    r = targets.ravel()[link]
    served_step = -(delta * (bits / norm - r))
    r *= delta
    state = _Passes(slot_plan(estimates), link, np.zeros(estimates.n_sats * estimates.n_stations),
                    served_step, r, cost)
    converged = False
    for passes in range(1, max_passes + 1):
        lam_start = state.lam.copy()
        served = state.run()
        if float(np.abs(state.lam - lam_start).max(initial=0.0)) < tol:
            converged = True
            break
    return Schedule.from_mask(estimates, served, {
        "scheduler": "opportunistic",
        "passes": passes,
        "converged": converged,
        "delta": delta,
        "tol": tol,
        "max_multiplier": float(state.lam.max(initial=0.0)),
    })


# most slots a pass certifies together; it bounds the matrices a pass holds
_WINDOW = 1024


class _Passes:
    """Passes over the slots of a plan that serve each slot by the tie
    rule's assignment of the costs ``cost(lam[link[a:b]], a, b, out)``
    writes into ``out`` for its table rows ``[a, b)``. ``lam`` holds one
    state per link; after each slot, each of its rows moves its link's
    state by its ``served_step`` or ``unserved_step``, clamped at zero.

    A pass serves the slots of a window ``[start, end)`` by their raw
    optimal maps, keeping each multi-row slot's cost matrix and map by the
    matrix's shape, and at the window's end certifies each shape's maps
    together (:func:`certify`). A map that fails would have been changed
    by the tie rule, so every decision after it rests on the wrong state:
    :meth:`_redo` takes the window back, replays the slots before the
    first failing one and solves that one with :func:`solve_assignment`.
    The served rows are therefore those that solving every slot with
    :func:`solve_assignment` gives.
    """

    def __init__(self, plan: SlotPlan, link: np.ndarray, lam: np.ndarray,
                 served_step: np.ndarray, unserved_step: np.ndarray, cost):
        self.link, self.lam, self.cost = link, lam, cost
        self.served_step, self.unserved_step = served_step, unserved_step
        self.lo, self.hi, self.kept = plan.lo.tolist(), plan.hi.tolist(), plan.kept
        # one slot's costs; the plan's -1 cells read the never-written inf
        self.cost_of = np.full(int((plan.hi - plan.lo).max(initial=0)) + 1, np.inf)
        self.rank = np.arange(max(map(len, plan.kept), default=0))

    def run(self) -> np.ndarray:
        """One pass over every slot; returns the served-row mask.

        A window that certifies doubles the length of the next one, up to
        ``_WINDOW``. One that fails after k certified slots makes the next
        one k slots long, and at least one, so that where certificates
        fail often, few slots are solved again after each failure.
        """
        served = np.zeros(len(self.link), dtype=bool)
        n, start, length = len(self.lo), 0, _WINDOW
        while start < n:
            end = min(start + length, n)
            lam_start = self.lam.copy()
            picked, shapes = [], {}
            for p in range(start, end):
                cost = self._matrix(p)
                match = optimal_map(cost)
                if len(match) > 1:
                    shapes.setdefault(cost.shape, []).append((p, cost, match))
                self._step(p, match, served)
                picked.append(match)
            bad = end
            for group in shapes.values():
                slots, costs, maps = zip(*group)
                failed = np.flatnonzero(~certify(np.stack(costs), np.stack(maps)))
                if len(failed):
                    bad = min(bad, slots[failed[0]])
            if bad < end:
                self._redo(start, bad, end, lam_start, picked, served)
                length = max(1, bad - start)
                start = bad + 1
            else:
                length = min(2 * length, _WINDOW)
                start = end
        return served

    def _redo(self, start, bad, end, lam_start, picked, served) -> None:
        """Take back slots ``[start, end)``, whose map at slot ``bad``
        failed its certificate: restore the links' states, replay the
        certified slots before ``bad`` and serve ``bad`` by
        :func:`solve_assignment` of its kept matrix, solved whole, so that
        ties are broken under the tolerance of the whole slot's optimum."""
        self.lam[:] = lam_start
        served[self.lo[start]:self.hi[end - 1]] = False
        for p, match in zip(range(start, bad), picked):
            self._step(p, match, served)
        cost = self._matrix(bad)
        match = solve_assignment(WeightMatrix(cost, np.isfinite(cost)), maximize=False)
        self._step(bad, match, served)

    def _matrix(self, p) -> np.ndarray:
        """Slot ``p``'s kept cost matrix under the current states: its
        rows' costs, and ``inf`` exactly where the plan has no link."""
        a, b = self.lo[p], self.hi[p]
        self.cost(self.lam[self.link[a:b]], a, b, self.cost_of[:b - a])
        return self.cost_of.take(self.kept[p])

    def _step(self, p, match, served) -> None:
        """Serve the table rows that ``match``, a map of slot ``p``'s kept
        matrix, picks, and move its links' states. Capacity copies of one
        link may both be picked, so a row can repeat."""
        a, b = self.lo[p], self.hi[p]
        served[a + self.kept[p][self.rank[:len(match)], match]] = True
        l = self.link[a:b]
        step = np.where(served[a:b], self.served_step[a:b], self.unserved_step[a:b])
        self.lam[l] = np.maximum(0.0, self.lam[l] + step)
