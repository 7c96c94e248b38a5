"""Pairwise key allocation and exact optimization baselines.

Phase 2 of the pipeline: per-link key pools are combined, through the
satellites acting as relays, into pairwise keys between ground stations.
One pairwise bit between stations a and b through satellite s consumes one
pooled bit of (s, a) and one of (s, b). The fair round maximises the
worst pair, then, holding that floor, maximises the round's total so slack
capacity is not wasted; that leaves no pair any joint residual capacity,
so one round is the whole allocation.
The same machinery solves the joint schedule-and-allocate programs used as
exact reference baselines at desk scale, and can export them in LP format
for external solvers instead. Both programs take their pairwise variables
from one enumeration (``_pair_vars``) and are assembled from index arrays.

All integer programs run through HiGHS's branch-and-cut
(scipy.optimize.milp) with a zero relative gap, so "optimal" means proved
optimal to HiGHS's absolute tolerance however large the key pools grow.
They run without HiGHS's Feasibility Jump heuristic, whose start-up cost
dominates small solves; where a program has several optima, the one
returned may differ from default HiGHS's, but its value does not.
Exactness is only promised at desk scale; LP export is the road to other
solvers beyond that.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
# linprog is unused, but the stage benchmark wraps qkdsched.alloc.linprog by name
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .channel import EstimateTable
from .sched import Schedule


@dataclass
class MilpInstance:
    """Mixed-integer program: maximize c.x subject to A x <= b and bounds.
    Only :func:`export_lp` reads the names. Baseline programs are always
    named; Phase 2's programs, which are never exported, have none."""

    name: str
    objective: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integer: np.ndarray
    var_names: list = None
    row_names: list = None

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass
class MilpResult:
    status: str                  # optimal | budget_exceeded | infeasible
    objective: float = None
    gap: float = None
    values: np.ndarray = None
    nodes: int = 0


def branch_and_bound(instance: MilpInstance, max_nodes: int = None) -> MilpResult:
    """Solve the instance with HiGHS's branch-and-cut via scipy.optimize.milp.

    ``max_nodes`` caps the search (None runs to proof; zero or less returns
    at once without solving). A program without variables is optimal at
    zero. A spent budget yields ``budget_exceeded`` with the incumbent, if
    any, and the absolute gap bound - objective; with no incumbent the gap
    is infinite. Integer variables come back rounded.

    HiGHS's Feasibility Jump primal heuristic is switched off: its fixed
    start-up cost is most of the time of a desk-scale solve. Optimal values
    do not change, but a program with several optima may end at another
    optimal vertex than default HiGHS.
    """
    if max_nodes is not None and max_nodes <= 0:
        return MilpResult(status="budget_exceeded", gap=np.inf)
    if not instance.n_vars:  # scipy's milp refuses an empty program
        return MilpResult(status="optimal", objective=0.0, gap=0.0, values=np.zeros(0))
    options = {"mip_rel_gap": 0.0, "mip_heuristic_run_feasibility_jump": False}
    if max_nodes is not None:
        options["node_limit"] = int(max_nodes)
    constraints = ([LinearConstraint(instance.a_ub, -np.inf, instance.b_ub)]
                   if instance.a_ub.shape[0] else [])
    with warnings.catch_warnings():
        # scipy hands keys it does not know to HiGHS verbatim, and warns so
        warnings.filterwarnings("ignore", r"Unrecognized options detected: "
                                r"\{'mip_heuristic_run_feasibility_jump'\}",
                                RuntimeWarning)
        res = milp(-instance.objective, integrality=instance.integer.astype(int),
                   bounds=Bounds(instance.lower, instance.upper),
                   constraints=constraints, options=options)
    nodes = int(res.mip_node_count or 0)
    if res.status == 2:
        return MilpResult(status="infeasible", nodes=nodes)
    # scipy does not know HiGHS's node-limit status and reports it as 4
    at_node_limit = max_nodes is not None and res.status == 4 and nodes >= max_nodes
    if res.status not in (0, 1) and not at_node_limit:
        raise RuntimeError(f"MILP solve failed: {res.message}")
    if res.x is None:
        return MilpResult(status="budget_exceeded", gap=np.inf, nodes=nodes)
    values = np.where(instance.integer, np.round(res.x), res.x)
    objective = -res.fun
    if res.status == 0:
        return MilpResult(status="optimal", objective=objective, gap=0.0,
                          values=values, nodes=nodes)
    bound = -res.mip_dual_bound if res.mip_dual_bound is not None else np.inf
    return MilpResult(status="budget_exceeded", objective=objective,
                      gap=bound - objective, values=values, nodes=nodes)


# ------------------------------------------------------------------ phase 2

def station_pairs(n_stations: int) -> list:
    return [(a, b) for a in range(n_stations) for b in range(a + 1, n_stations)]


@dataclass
class PairAllocation:
    """Integral pairwise-key assignment.

    ``bits`` is an (n_sats, len(pairs)) int64 array: ``bits[s, u]`` whole
    key bits for pair ``pairs[u]`` relayed by satellite s, each drawing one
    bit from pool (s, a) and one from pool (s, b). ``rounds`` records the
    floor value and active-pair count of the fair round, if it allocated.
    """

    pairs: list
    bits: np.ndarray
    rounds: list = field(default_factory=list)

    @property
    def totals(self) -> np.ndarray:
        """Key bits per pair, in ``pairs`` order."""
        return self.bits.sum(axis=0)


def joint_capacity(pools: np.ndarray, pairs: list) -> np.ndarray:
    """(S, P) key bits pair u can draw through satellite s alone:
    min(pools[s, a], pools[s, b]) for ``pairs[u] = (a, b)``."""
    ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.minimum(pools[:, ends[:, 0]], pools[:, ends[:, 1]])


def _pair_vars(cap: np.ndarray, pairs: list) -> tuple:
    """Enumerate the pairwise variables y[s, a, b] of positive joint capacity.

    ``cap`` is an (S, G) per-link capacity array. Variables run pair-major,
    then by satellite. Returns one array entry per variable: its position
    in ``pairs``, its satellite, its links (s, a) and (s, b) as ``s * G + g``,
    and its joint capacity.
    """
    n_stations = cap.shape[1]
    ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    joint = joint_capacity(cap, pairs).T   # (P, S)
    pair, sat = np.nonzero(joint > 0)
    return (pair, sat, sat * n_stations + ends[pair, 0],
            sat * n_stations + ends[pair, 1], joint[pair, sat])


def solve_phase2_maxmin(pools, pairs):
    """Exact max-min pairwise allocation for one round.

    ``pools`` is an (S, G) array of whole key bits per link. Returns
    (floor value, bits), with ``bits`` an (S, len(pairs)) int64 array laid
    out as ``PairAllocation.bits``. The program is the integer maximization
    of z subject to z <= sum_s y[s, u] for every pair u and the per-link
    pool capacities, solved to proof. Its rows are one floor row per pair,
    then one pool row per link some variable draws on, satellite-major.
    Among the allocations that reach the floor z*, the round keeps one with
    the largest total: a second solve of the same program with z >= z*
    maximises sum y. A zero floor allocates nothing.
    """
    k = np.asarray(pools, dtype=np.int64)
    pairs = list(pairs)
    bits = np.zeros((k.shape[0], len(pairs)), dtype=np.int64)
    if not pairs:
        return 0, bits
    pair, sat, link_a, link_b, cap = _pair_vars(k, pairs)
    pair_cap = np.bincount(pair, weights=cap, minlength=len(pairs))
    if pair_cap.min() == 0:
        return 0, bits

    n_y, n_pairs = len(pair), len(pairs)
    links, pool_row = np.unique(np.concatenate([link_a, link_b]),
                                return_inverse=True)
    y = np.arange(n_y)
    rows = np.concatenate([np.arange(n_pairs), pair, n_pairs + pool_row])
    cols = np.concatenate([np.full(n_pairs, n_y), y, y, y])
    data = np.concatenate([np.ones(n_pairs), -np.ones(n_y), np.ones(2 * n_y)])
    instance = MilpInstance(
        name="phase2_maxmin", objective=np.append(np.zeros(n_y), 1.0),
        a_ub=sparse.csr_matrix((data, (rows, cols)),
                               shape=(n_pairs + len(links), n_y + 1)),
        b_ub=np.concatenate([np.zeros(n_pairs), k.ravel()[links].astype(float)]),
        lower=np.zeros(n_y + 1),
        upper=np.append(cap.astype(float), pair_cap.min()),
        integer=np.append(np.ones(n_y, dtype=bool), False),
    )
    result = branch_and_bound(instance)
    if result.status != "optimal":
        raise RuntimeError(f"pairwise max-min did not close: {result.status}")
    floor_value = int(round(result.objective))
    if floor_value == 0:
        return 0, bits
    result = branch_and_bound(replace(
        instance, name="phase2_maxsum_at_floor",
        objective=np.append(np.ones(n_y), 0.0),
        lower=np.append(np.zeros(n_y), float(floor_value))))
    if result.status != "optimal":
        raise RuntimeError(f"pairwise tie-break did not close: {result.status}")
    bits[sat, pair] = np.round(result.values[:n_y]).astype(np.int64)
    return floor_value, bits


def iterate_phase2(pools, pairs) -> PairAllocation:
    """Fair allocation: one max-min round over the pairs that can receive bits.

    ``pools`` is an (S, G) array of whole key bits per link, as in
    ``Schedule.key_pool``; the result's ``bits`` is (S, len(pairs)). The
    round maximises the minimum allocation over the pairs with positive
    joint capacity through some satellite, then its total at that floor
    (``solve_phase2_maxmin`` gives the tie rule). That leaves no pair with
    joint residual capacity, because one more bit for such a pair would fit
    every bound and raise the total at the floor; a re-solve on the
    residual pools would find no pair to serve. ``rounds`` records the
    round, or nothing when its floor is zero.
    """
    pools = np.asarray(pools, dtype=np.int64)
    pairs = list(pairs)
    out = PairAllocation(pairs, np.zeros((pools.shape[0], len(pairs)), dtype=np.int64))
    live = np.flatnonzero((joint_capacity(pools, pairs) > 0).any(axis=0))
    floor_value, bits = solve_phase2_maxmin(pools, [pairs[u] for u in live])
    if floor_value > 0:
        out.bits[:, live] = bits
        out.rounds.append({"floor": floor_value, "active_pairs": len(live)})
    return out


# ------------------------------------------------------------------ baselines

@dataclass
class BaselineResult:
    schedule: Schedule
    allocation: PairAllocation
    milp: MilpResult


def _link_capacity(estimates: EstimateTable) -> np.ndarray:
    """(S, G) array of the key bits each link offers over the whole table."""
    n_links = estimates.n_sats * estimates.n_stations
    link = estimates.sat * estimates.n_stations + estimates.station
    return np.bincount(link, weights=estimates.key_bits, minlength=n_links) \
        .reshape(estimates.n_sats, estimates.n_stations)


def build_baseline_instance(estimates: EstimateTable, objective: str = "maxmin",
                            pairs: list = None) -> MilpInstance:
    """Joint schedule-and-allocate integer program over the estimate table.

    Binary x picks which visible link each satellite serves per slot under
    the transmitter/receiver counts; integer y converts the resulting pools
    into pairwise bits. ``objective`` is "maxmin" (auxiliary floor variable)
    or "maxsum" (total pairwise bits). Variables are x in estimate-row
    order, then y as ``_pair_vars`` lists them, then z. Rows are the
    transmitter rows by (slot, sat), the receiver rows by (slot, station),
    the pool rows by (sat, station), then, for "maxmin", one floor row per
    pair.
    """
    if objective not in ("maxmin", "maxsum"):
        raise ValueError("objective must be 'maxmin' or 'maxsum'")
    if pairs is None:
        pairs = station_pairs(estimates.n_stations)
    pairs = list(pairs)
    n_rows, n_sats, n_stations = len(estimates), estimates.n_sats, estimates.n_stations
    slot, sat, station = estimates.slot, estimates.sat, estimates.station
    sat_of, g_of = estimates.sat_ids, estimates.station_ids

    pair, y_sat, link_a, link_b, cap = _pair_vars(_link_capacity(estimates), pairs)
    n_y = len(pair)
    with_floor = objective == "maxmin"
    n_vars = n_rows + n_y + with_floor
    x, y = np.arange(n_rows), n_rows + np.arange(n_y)

    obj = np.zeros(n_vars)
    obj[-1 if with_floor else y] = 1.0
    upper = np.ones(n_vars)
    upper[y] = np.floor(cap)
    integer = np.ones(n_vars, dtype=bool)
    if with_floor:
        pair_cap = np.bincount(pair, weights=upper[y], minlength=len(pairs))
        upper[-1] = pair_cap.min() if pairs else 0.0
        integer[-1] = False

    tx_key, tx_row = np.unique(slot * n_sats + sat, return_inverse=True)
    rx_key, rx_row = np.unique(slot * n_stations + station, return_inverse=True)
    pool_key, pool_row = np.unique(sat * n_stations + station, return_inverse=True)
    pool_at = len(tx_key) + len(rx_key)
    floor_at = pool_at + len(pool_key)
    rows = [tx_row, len(tx_key) + rx_row, pool_at + pool_row,
            pool_at + np.searchsorted(pool_key, link_a),
            pool_at + np.searchsorted(pool_key, link_b)]
    cols = [x, x, x, y, y]
    data = [np.ones(2 * n_rows), -estimates.key_bits, np.ones(2 * n_y)]
    b_ub = [estimates.transmitters[tx_key % n_sats],
            estimates.receivers[rx_key % n_stations], np.zeros(len(pool_key))]
    tx_t, tx_s = np.divmod(tx_key, n_sats)
    rx_t, rx_g = np.divmod(rx_key, n_stations)
    pool_s, pool_g = np.divmod(pool_key, n_stations)
    row_names = (
        [f"tx_t{t}_s{s}" for t, s in zip(tx_t.tolist(), sat_of[tx_s].tolist())]
        + [f"rx_t{t}_g{g}" for t, g in zip(rx_t.tolist(), g_of[rx_g].tolist())]
        + [f"pool_s{s}_g{g}" for s, g in zip(sat_of[pool_s].tolist(),
                                              g_of[pool_g].tolist())])
    if with_floor:
        rows += [floor_at + np.arange(len(pairs)), floor_at + pair]
        cols += [np.full(len(pairs), n_vars - 1), y]
        data += [np.ones(len(pairs)), -np.ones(n_y)]
        b_ub.append(np.zeros(len(pairs)))
        row_names += [f"floor_g{g_of[a]}_g{g_of[b]}" for (a, b) in pairs]

    y_a, y_b = link_a - y_sat * n_stations, link_b - y_sat * n_stations
    names = ([f"x_t{t}_s{s}_g{g}" for t, s, g in zip(
                 slot.tolist(), sat_of[sat].tolist(), g_of[station].tolist())]
             + [f"y_s{s}_g{a}_g{b}" for s, a, b in zip(
                 sat_of[y_sat].tolist(), g_of[y_a].tolist(), g_of[y_b].tolist())]
             + (["z"] if with_floor else []))
    return MilpInstance(
        name=f"baseline_{objective}", objective=obj,
        a_ub=sparse.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(len(row_names), n_vars)),
        b_ub=np.concatenate(b_ub).astype(float), lower=np.zeros(n_vars),
        upper=upper, integer=integer, var_names=names, row_names=row_names,
    )


def solve_baseline(estimates: EstimateTable, objective: str = "maxmin",
                   pairs: list = None, max_nodes: int = 20000,
                   export_path=None) -> BaselineResult:
    """Exact (desk-scale) joint optimum, or an LP-file export.

    With ``export_path`` set the instance is written in LP format and, when
    ``max_nodes`` is zero, returned unsolved for external solving.
    Otherwise HiGHS (see ``branch_and_bound``) runs under the node budget;
    exhausting it yields the incumbent (possibly empty) plus the integral gap. The
    schedule is the estimate rows whose x is 1, the allocation the y values
    read back into an (S, len(pairs)) ``PairAllocation.bits`` array.
    """
    if pairs is None:
        pairs = station_pairs(estimates.n_stations)
    pairs = list(pairs)
    instance = build_baseline_instance(estimates, objective, pairs)
    chosen = np.zeros(len(estimates), dtype=bool)
    bits = np.zeros((estimates.n_sats, len(pairs)), dtype=np.int64)
    if export_path is not None:
        export_lp(instance, export_path)
        if not max_nodes:
            return BaselineResult(
                schedule=Schedule.from_mask(estimates, chosen, {
                    "scheduler": objective, "exported": True}),
                allocation=PairAllocation(pairs, bits),
                milp=MilpResult(status="exported"))

    result = branch_and_bound(instance, max_nodes=max_nodes)
    if result.status == "infeasible":
        raise RuntimeError("baseline program infeasible; inputs inconsistent")
    if result.status == "budget_exceeded" and np.isfinite(result.gap):
        # baseline objectives are integral: floor the bound within HiGHS's tolerance
        result.gap = np.floor(result.objective + result.gap + 1e-6) - result.objective
    if result.values is not None:  # else the budget ran out before any integer point
        chosen = result.values[:len(estimates)] > 0.5
        pair, sat, _, _, _ = _pair_vars(_link_capacity(estimates), pairs)
        y = result.values[len(estimates):len(estimates) + len(pair)]
        bits[sat, pair] = np.round(y).astype(np.int64)
    schedule = Schedule.from_mask(estimates, chosen, {
        "scheduler": objective, "milp_status": result.status,
        "milp_gap": float(result.gap) if np.isfinite(result.gap) else None,
        "milp_nodes": result.nodes})
    return BaselineResult(schedule=schedule, allocation=PairAllocation(pairs, bits),
                          milp=result)


# ------------------------------------------------------------------ LP export

def _fmt(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)   # shortest text that parses back to the same double


def export_lp(instance: MilpInstance, path) -> None:
    """Write the instance in CPLEX LP text format, deterministically."""
    fallback = f"0 {instance.var_names[0]}" if instance.n_vars else "0"
    lines = [f"\\ {instance.name}", "Maximize"]
    terms = [(instance.var_names[j], instance.objective[j])
             for j in range(instance.n_vars) if instance.objective[j] != 0.0]
    lines.append(" obj: " + _join_terms(terms, fallback))
    lines.append("Subject To")
    a_csr = instance.a_ub.tocsr()
    for r in range(a_csr.shape[0]):
        lo, hi = a_csr.indptr[r], a_csr.indptr[r + 1]
        terms = [(instance.var_names[j], a_csr.data[p])
                 for p, j in zip(range(lo, hi), a_csr.indices[lo:hi])]
        lines.append(f" {instance.row_names[r]}: " + _join_terms(terms, fallback)
                     + f" <= {_fmt(instance.b_ub[r])}")
    lines.append("Bounds")
    for j, name in enumerate(instance.var_names):
        lo, hi = instance.lower[j], instance.upper[j]
        hi_text = "+inf" if np.isinf(hi) else _fmt(hi)
        lines.append(f" {_fmt(lo)} <= {name} <= {hi_text}")
    binary = instance.integer & (instance.lower == 0.0) & (instance.upper == 1.0)
    binaries = [n for n, b in zip(instance.var_names, binary) if b]
    generals = [n for n, i, b in zip(instance.var_names, instance.integer, binary)
                if i and not b]
    if binaries:
        lines.append("Binaries")
        lines.extend(f" {n}" for n in binaries)
    if generals:
        lines.append("Generals")
        lines.extend(f" {n}" for n in generals)
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _join_terms(terms, fallback: str) -> str:
    if not terms:
        return fallback
    text = " ".join(("- " if coef < 0 else "+ ")
                    + (name if abs(coef) == 1.0 else f"{_fmt(abs(coef))} {name}")
                    for name, coef in terms)
    return text[2:] if text.startswith("+") else text
