"""Slot-by-slot downlink schedulers and key-pool accounting.

Every scheduler consumes the same estimate table and answers the same
question: which satellite serves which ground station in each slot, subject
to per-satellite transmitter and per-station receiver counts. Round-robin
ignores link quality and balances service counts, greedy chases the best
instantaneous link, and the opportunistic family maximises throughput while
dual multipliers drag every link's long-run rate up to a target floor.

A schedule is a served-row mask over the estimate table, which is sorted
by (slot, satellite, station); :meth:`Schedule.from_mask` turns any mask
into served triples and key pools. Known limitation: in a slot that
violates Hall's condition, :func:`_solve_slot` keeps whichever rows
``maximum_bipartite_matching`` matches, whatever their weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .assign import AssignmentInfeasibleError, WeightMatrix, solve_assignment
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


@dataclass
class MinRateProfile:
    """Per-link rate floors for the opportunistic scheduler.

    ``rates`` is an (n_sats, n_stations) array, already normalised by the
    same global per-slot maximum that scales the opportunistic utilities,
    so floors and utilities live on one scale.
    """

    rates: np.ndarray
    normalizer: float


def _links(estimates: EstimateTable) -> np.ndarray:
    """Flat link index ``sat * n_stations + station`` of every row."""
    return estimates.sat * estimates.n_stations + estimates.station


def _solve_slot(estimates: EstimateTable, lo: int, hi: int,
                weight: np.ndarray, maximize: bool) -> np.ndarray:
    """Rows of the slot spanning rows [lo, hi) that an optimal assignment
    serves, given one weight per row.

    Each satellite and station appears once per transmitter or receiver;
    the smaller side (stations on ties) forms the matrix rows. When no
    complete matching of the matrix rows exists, the rows of a maximum
    matching are solved instead.
    """
    sats, si = np.unique(estimates.sat[lo:hi], return_inverse=True)
    stations, gi = np.unique(estimates.station[lo:hi], return_inverse=True)
    link = np.full((len(sats), len(stations)), -1)
    link[si, gi] = np.arange(hi - lo)
    sat_copies = np.repeat(np.arange(len(sats)), estimates.transmitters[sats])
    station_copies = np.repeat(np.arange(len(stations)), estimates.receivers[stations])
    cell = link[np.ix_(sat_copies, station_copies)]
    if len(sat_copies) >= len(station_copies):
        cell = cell.T
    feasible = cell >= 0
    matrix = WeightMatrix(weights=np.where(feasible, weight[cell], 0.0),
                          feasible=feasible)
    rows = np.arange(len(cell))
    try:
        cols = solve_assignment(matrix, maximize=maximize)
    except AssignmentInfeasibleError:
        match = maximum_bipartite_matching(csr_matrix(feasible.astype(np.int8)),
                                           perm_type="column")
        rows = np.flatnonzero(match >= 0)
        cols = solve_assignment(WeightMatrix(weights=matrix.weights[rows],
                                             feasible=feasible[rows]),
                                maximize=maximize)
    # capacity copies of one link collapse to its single row
    return lo + np.unique(cell[rows, cols])


def run_rr(estimates: EstimateTable) -> Schedule:
    """Round-robin: balance how often each link is served.

    Slots whose graph is a single satellite-station edge are assigned
    directly. Every other slot is solved, in time order, as a minimum-sum
    assignment over the current service counters, which rotates service
    across links regardless of their quality.
    """
    link = _links(estimates)
    lo, hi = estimates.slot_spans()
    single = hi - lo == 1
    served = np.zeros(len(estimates), dtype=bool)
    served[lo[single]] = True
    counters = np.bincount(link[lo[single]],
                           minlength=estimates.n_sats * estimates.n_stations).astype(float)
    for a, b in zip(lo[~single].tolist(), hi[~single].tolist()):
        rows = _solve_slot(estimates, a, b, counters[link[a:b]], maximize=False)
        served[rows] = True
        counters[link[rows]] += 1.0
    return Schedule.from_mask(estimates, served, {"scheduler": "rr"})


def run_greedy(estimates: EstimateTable) -> Schedule:
    """Stations bid for their best-rate satellite; poorer pools win fights.

    Within a slot every unserved station claims the visible satellite with
    the most key bits on offer (the lowest satellite index on ties). An
    oversubscribed satellite takes the claimants it has accumulated the
    fewest key bits with (station index breaks ties); losers re-bid among
    the satellites still free this slot.
    """
    link = _links(estimates)
    pool = np.zeros(estimates.n_sats * estimates.n_stations)
    served = np.zeros(len(estimates), dtype=bool)
    lo, hi = estimates.slot_spans()
    for a, b in zip(lo.tolist(), hi.tolist()):
        sats, si = np.unique(estimates.sat[a:b], return_inverse=True)
        stations, gi = np.unique(estimates.station[a:b], return_inverse=True)
        tx, rx = estimates.transmitters[sats], estimates.receivers[stations]
        w, l = estimates.key_bits[a:b], link[a:b]
        open_ = np.ones(b - a, dtype=bool)
        while True:
            cand = np.flatnonzero(open_ & (tx[si] > 0) & (rx[gi] > 0))
            if not len(cand):
                break
            # each station bids on its best offer, lowest satellite on ties
            cand = cand[np.lexsort((si[cand], -w[cand], gi[cand]))]
            bid = cand[np.r_[True, gi[cand[1:]] != gi[cand[:-1]]]]
            # each satellite keeps its first tx claimants by (pool, station)
            bid = bid[np.lexsort((gi[bid], pool[l[bid]], si[bid]))]
            rank = np.arange(len(bid)) - np.searchsorted(si[bid], si[bid])
            win = bid[rank < tx[si[bid]]]
            tx = np.maximum(tx - np.bincount(si[bid], minlength=len(sats)), 0)
            rx[gi[win]] -= 1
            open_[win] = False
            pool[l[win]] += w[win]
            served[a + win] = True
    return Schedule.from_mask(estimates, served, {"scheduler": "greedy"})


def derive_min_rates(schedule: Schedule, estimates: EstimateTable) -> MinRateProfile:
    """Rate floors achieved by a schedule: pool bits per usable slot.

    Each link's floor is its pool divided by the satellite's usable-slot
    count, then scaled by the global normaliser so it is comparable with
    the opportunistic utilities.
    """
    tau = estimates.tau()[:, None]
    norm = estimates.normalizer
    rates = np.divide(schedule.key_pool, tau, out=np.zeros(schedule.key_pool.shape),
                      where=tau > 0) / norm
    return MinRateProfile(rates=rates, normalizer=norm)


def run_opportunistic(estimates: EstimateTable, targets: MinRateProfile,
                      delta: float = 0.01, max_passes: int = 50,
                      tol: float = 1e-4) -> Schedule:
    """Throughput-chasing scheduler with per-link rate floors.

    Each slot solves a maximise assignment with weights (1 + lambda) * U,
    where U is the normalised key-bit utility and lambda the link's dual
    multiplier. Served links relax their multiplier by delta * (U - r),
    unserved visible links tighten by delta * r, both clamped at zero.
    Passes repeat over the whole horizon until the largest multiplier drift
    across a pass drops below ``tol`` or ``max_passes`` is hit; the last
    pass's decisions are the schedule.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if max_passes < 1:
        raise ValueError("max_passes must be at least 1")
    link = _links(estimates)
    target = targets.rates.ravel()
    lam = np.zeros(estimates.n_sats * estimates.n_stations)
    norm = estimates.normalizer
    lo, hi = estimates.slot_spans()
    spans = list(zip(lo.tolist(), hi.tolist()))
    converged = False
    for passes in range(1, max_passes + 1):
        lam_start = lam.copy()
        served = np.zeros(len(estimates), dtype=bool)
        for a, b in spans:
            l, bits = link[a:b], estimates.key_bits[a:b]
            rows = _solve_slot(estimates, a, b, (1.0 + lam[l]) * bits / norm,
                               maximize=True)
            served[rows] = True
            u, r = bits / norm, target[l]
            lam[l] = np.maximum(0.0, np.where(served[a:b], lam[l] - delta * (u - r),
                                              lam[l] + delta * r))
        if float(np.abs(lam - lam_start).max(initial=0.0)) < tol:
            converged = True
            break
    return Schedule.from_mask(estimates, served, {
        "scheduler": "opportunistic",
        "passes": passes,
        "converged": converged,
        "delta": delta,
        "tol": tol,
        "max_multiplier": float(lam.max(initial=0.0)),
    })
