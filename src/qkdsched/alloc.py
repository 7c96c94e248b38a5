"""Pairwise key allocation and exact optimization baselines.

Phase 2 of the pipeline: per-link key pools are combined, through the
satellites acting as relays, into pairwise keys between ground stations.
One pairwise bit between stations a and b through satellite s consumes one
pooled bit of (s, a) and one of (s, b). Each fair round maximises the
worst pair, then, holding that floor, maximises the round's total so slack
capacity is not wasted; the next round re-solves on the residual pools.
The same machinery solves the joint schedule-and-allocate programs used as
exact reference baselines at desk scale, and can export them in LP format
for external solvers instead.

All integer programs run through HiGHS's branch-and-cut
(scipy.optimize.milp) with a zero relative gap, so "optimal" means proved
optimal to HiGHS's absolute tolerance however large the key pools grow.
Exactness is only promised at desk scale; LP export is the road to other
solvers beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
# linprog is unused, but the stage benchmark wraps qkdsched.alloc.linprog by name
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .channel import EstimateTable
from .sched import Schedule, accumulate_pools


@dataclass
class MilpInstance:
    """Mixed-integer program: maximize c.x subject to A x <= b and bounds.

    ``export_path`` records where the instance was written, when it was.
    """

    name: str
    objective: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integer: np.ndarray
    var_names: list
    row_names: list
    export_path: str = None

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass
class MilpResult:
    status: str                  # optimal | budget_exceeded | infeasible
    objective: float = None
    bound: float = None
    gap: float = None
    values: np.ndarray = None
    nodes: int = 0

    def value_of(self, instance: MilpInstance, name: str) -> float:
        return float(self.values[instance.var_names.index(name)])


def branch_and_bound(instance: MilpInstance, max_nodes: int = None) -> MilpResult:
    """Solve the instance with HiGHS's branch-and-cut via scipy.optimize.milp.

    ``max_nodes`` caps the search (None runs to proof; zero or less returns
    at once without solving). A spent budget yields ``budget_exceeded`` with
    the incumbent, if any, and the absolute gap bound - objective; with no
    incumbent the gap is infinite. Integer variables come back rounded.
    """
    if max_nodes is not None and max_nodes <= 0:
        return MilpResult(status="budget_exceeded", bound=np.inf, gap=np.inf)
    options = {"mip_rel_gap": 0.0}
    if max_nodes is not None:
        options["node_limit"] = int(max_nodes)
    constraints = ([LinearConstraint(instance.a_ub, -np.inf, instance.b_ub)]
                   if instance.a_ub.shape[0] else [])
    res = milp(-instance.objective, integrality=instance.integer.astype(int),
               bounds=Bounds(instance.lower, instance.upper),
               constraints=constraints, options=options)
    nodes = int(res.mip_node_count or 0)
    if res.status == 2:
        return MilpResult(status="infeasible", nodes=nodes)
    if res.status not in (0, 1):
        raise RuntimeError(f"MILP solve failed: {res.message}")
    bound = -res.mip_dual_bound if res.mip_dual_bound is not None else np.inf
    if res.x is None:
        return MilpResult(status="budget_exceeded", bound=bound, gap=np.inf,
                          nodes=nodes)
    values = np.where(instance.integer, np.round(res.x), res.x)
    objective = -res.fun
    if res.status == 0:
        return MilpResult(status="optimal", objective=objective, bound=objective,
                          gap=0.0, values=values, nodes=nodes)
    return MilpResult(status="budget_exceeded", objective=objective, bound=bound,
                      gap=bound - objective, values=values, nodes=nodes)


# ------------------------------------------------------------------ phase 2

def station_pairs(n_stations: int) -> list:
    return [(a, b) for a in range(n_stations) for b in range(a + 1, n_stations)]


@dataclass
class PairAllocation:
    """Integral pairwise-key assignment.

    ``bits`` maps (sat, station_a, station_b) with a < b to whole key bits;
    ``totals`` aggregates per pair. ``rounds`` records the floor value and
    active-pair count of each fair re-solve round.
    """

    pairs: list
    bits: dict = field(default_factory=dict)
    totals: dict = field(default_factory=dict)
    rounds: list = field(default_factory=list)

    def min_key(self) -> int:
        if not self.pairs:
            return 0
        return min(self.totals.get(u, 0) for u in self.pairs)

    def total_key(self) -> int:
        return sum(self.totals.values())


def _pool_array(pools, n_sats: int, n_stations: int) -> np.ndarray:
    if isinstance(pools, dict):
        arr = np.zeros((n_sats, n_stations), dtype=np.int64)
        for (s, g), v in pools.items():
            arr[s, g] = int(v)
        return arr
    return np.asarray(pools, dtype=np.int64)


def solve_phase2_maxmin(pools, pairs, n_sats: int = None, n_stations: int = None):
    """Exact max-min pairwise allocation for one round.

    Returns (floor value, allocation dict). The program is the integer
    maximization of z subject to z <= sum_s y[s, u] for every pair u and the
    per-link pool capacities, solved to proof. Among the allocations that
    reach the floor z*, the round keeps one with the largest total: a second
    solve of the same program with z >= z* maximises sum y. A zero floor
    allocates nothing.
    """
    if n_sats is None or n_stations is None:
        if not isinstance(pools, np.ndarray):
            raise ValueError("pass n_sats/n_stations or an array pool")
        n_sats, n_stations = pools.shape
    k = _pool_array(pools, n_sats, n_stations)
    pairs = list(pairs)
    if not pairs:
        return 0, {}

    variables = []  # (s, a, b)
    for (a, b) in pairs:
        for s in range(n_sats):
            if min(k[s, a], k[s, b]) > 0:
                variables.append((s, a, b))
    pair_cap = {u: sum(int(min(k[s, u[0]], k[s, u[1]])) for s in range(n_sats))
                for u in pairs}
    if min(pair_cap.values()) == 0:
        return 0, {}

    n_y = len(variables)
    var_names = [f"y_s{s}_g{a}_g{b}" for (s, a, b) in variables] + ["z"]
    objective = np.zeros(n_y + 1)
    objective[-1] = 1.0
    lower = np.zeros(n_y + 1)
    upper = np.array([float(min(k[s, a], k[s, b])) for (s, a, b) in variables]
                     + [float(min(pair_cap.values()))])
    integer = np.array([True] * n_y + [False])

    rows, cols, data, b_ub, row_names = [], [], [], [], []
    for ui, u in enumerate(pairs):
        row = len(b_ub)
        rows.append(row); cols.append(n_y); data.append(1.0)
        for vi, (s, a, b) in enumerate(variables):
            if (a, b) == u:
                rows.append(row); cols.append(vi); data.append(-1.0)
        b_ub.append(0.0)
        row_names.append(f"floor_g{u[0]}_g{u[1]}")
    for s in range(n_sats):
        for g in range(n_stations):
            touching = [vi for vi, (vs, a, b) in enumerate(variables)
                        if vs == s and g in (a, b)]
            if not touching:
                continue
            row = len(b_ub)
            for vi in touching:
                rows.append(row); cols.append(vi); data.append(1.0)
            b_ub.append(float(k[s, g]))
            row_names.append(f"pool_s{s}_g{g}")

    instance = MilpInstance(
        name="phase2_maxmin", objective=objective,
        a_ub=sparse.csr_matrix((data, (rows, cols)), shape=(len(b_ub), n_y + 1)),
        b_ub=np.array(b_ub), lower=lower, upper=upper, integer=integer,
        var_names=var_names, row_names=row_names,
    )
    result = branch_and_bound(instance)
    if result.status != "optimal":
        raise RuntimeError(f"pairwise max-min did not close: {result.status}")
    floor_value = int(round(result.objective))
    if floor_value == 0:
        return 0, {}
    result = branch_and_bound(replace(
        instance, name="phase2_maxsum_at_floor",
        objective=np.append(np.ones(n_y), 0.0),
        lower=np.append(np.zeros(n_y), float(floor_value))))
    if result.status != "optimal":
        raise RuntimeError(f"pairwise tie-break did not close: {result.status}")
    alloc = {}
    for vi, key in enumerate(variables):
        v = int(round(result.values[vi]))
        if v > 0:
            alloc[key] = v
    return floor_value, alloc


def iterate_phase2(pools, pairs, n_sats: int = None,
                   n_stations: int = None) -> PairAllocation:
    """Fair allocation with residual re-solves.

    Each round maximises the minimum incremental allocation over the pairs
    that can still receive bits (positive joint residual capacity through
    some satellite), then its total at that floor (``solve_phase2_maxmin``
    gives the tie rule). Allocated bits are deducted, exhausted pairs freeze,
    and the loop ends when no active pair remains or a round makes no
    progress. Per-pair totals never decrease across rounds.
    """
    if n_sats is None or n_stations is None:
        if not isinstance(pools, np.ndarray):
            raise ValueError("pass n_sats/n_stations or an array pool")
        n_sats, n_stations = np.asarray(pools).shape
    resid = _pool_array(pools, n_sats, n_stations).copy()
    pairs = list(pairs)
    out = PairAllocation(pairs=pairs, totals={u: 0 for u in pairs})

    while True:
        active = [u for u in pairs
                  if any(min(resid[s, u[0]], resid[s, u[1]]) > 0
                         for s in range(n_sats))]
        if not active:
            break
        floor_value, alloc = solve_phase2_maxmin(resid, active, n_sats, n_stations)
        if floor_value == 0:
            break
        for (s, a, b), v in alloc.items():
            resid[s, a] -= v
            resid[s, b] -= v
            out.bits[(s, a, b)] = out.bits.get((s, a, b), 0) + v
            out.totals[(a, b)] += v
        out.rounds.append({"floor": floor_value, "active_pairs": len(active)})

    return out


# ------------------------------------------------------------------ baselines

@dataclass
class BaselineResult:
    schedule: Schedule
    allocation: PairAllocation
    milp: MilpResult
    instance: MilpInstance = None


def build_baseline_instance(estimates: EstimateTable, objective: str = "maxmin",
                            pairs: list = None) -> MilpInstance:
    """Joint schedule-and-allocate integer program over the estimate table.

    Binary x picks which visible link each satellite serves per slot under
    the transmitter/receiver counts; integer y converts the resulting pools
    into pairwise bits. ``objective`` is "maxmin" (auxiliary floor variable)
    or "maxsum" (total pairwise bits).
    """
    if objective not in ("maxmin", "maxsum"):
        raise ValueError("objective must be 'maxmin' or 'maxsum'")
    if pairs is None:
        pairs = station_pairs(estimates.n_stations)
    pairs = list(pairs)
    n_rows = len(estimates)

    sat_of = estimates.sat_ids
    g_of = estimates.station_ids
    x_names = [f"x_t{int(estimates.slot[i])}_s{int(sat_of[estimates.sat[i]])}"
               f"_g{int(g_of[estimates.station[i]])}" for i in range(n_rows)]

    link_cap: dict = {}
    for i in range(n_rows):
        key = (int(estimates.sat[i]), int(estimates.station[i]))
        link_cap[key] = link_cap.get(key, 0.0) + float(estimates.key_bits[i])

    y_vars = []
    for (a, b) in pairs:
        for s in range(estimates.n_sats):
            cap = min(link_cap.get((s, a), 0.0), link_cap.get((s, b), 0.0))
            if cap > 0:
                y_vars.append((s, a, b, cap))
    y_names = [f"y_s{int(sat_of[s])}_g{int(g_of[a])}_g{int(g_of[b])}"
               for (s, a, b, _) in y_vars]

    with_floor = objective == "maxmin"
    n_vars = n_rows + len(y_vars) + (1 if with_floor else 0)
    names = x_names + y_names + (["z"] if with_floor else [])
    obj = np.zeros(n_vars)
    if with_floor:
        obj[-1] = 1.0
    else:
        obj[n_rows:n_rows + len(y_vars)] = 1.0

    lower = np.zeros(n_vars)
    upper = np.ones(n_vars)
    for vi, (s, a, b, cap) in enumerate(y_vars):
        upper[n_rows + vi] = np.floor(cap)
    if with_floor:
        pair_cap = {}
        for (a, b) in pairs:
            pair_cap[(a, b)] = sum(np.floor(c) for (s, pa, pb, c) in y_vars
                                   if (pa, pb) == (a, b))
        upper[-1] = min(pair_cap.values()) if pair_cap else 0.0
    integer = np.ones(n_vars, dtype=bool)
    if with_floor:
        integer[-1] = False

    rows, cols, data, b_ub, row_names = [], [], [], [], []

    def add_row(name, entries, rhs):
        row = len(b_ub)
        for col, coef in entries:
            rows.append(row); cols.append(col); data.append(float(coef))
        b_ub.append(float(rhs))
        row_names.append(name)

    by_ts: dict = {}
    by_tg: dict = {}
    for i in range(n_rows):
        t, s, g = int(estimates.slot[i]), int(estimates.sat[i]), int(estimates.station[i])
        by_ts.setdefault((t, s), []).append(i)
        by_tg.setdefault((t, g), []).append(i)
    for (t, s), idx in sorted(by_ts.items()):
        add_row(f"tx_t{t}_s{int(sat_of[s])}", [(i, 1.0) for i in idx],
                int(estimates.transmitters[s]))
    for (t, g), idx in sorted(by_tg.items()):
        add_row(f"rx_t{t}_g{int(g_of[g])}", [(i, 1.0) for i in idx],
                int(estimates.receivers[g]))

    by_link: dict = {}
    for i in range(n_rows):
        by_link.setdefault((int(estimates.sat[i]), int(estimates.station[i])),
                           []).append(i)
    for (s, g), idx in sorted(by_link.items()):
        entries = [(i, -float(estimates.key_bits[i])) for i in idx]
        entries += [(n_rows + vi, 1.0) for vi, (vs, a, b, _) in enumerate(y_vars)
                    if vs == s and g in (a, b)]
        add_row(f"pool_s{int(sat_of[s])}_g{int(g_of[g])}", entries, 0.0)

    if with_floor:
        for (a, b) in pairs:
            entries = [(n_vars - 1, 1.0)]
            entries += [(n_rows + vi, -1.0) for vi, (vs, pa, pb, _) in enumerate(y_vars)
                        if (pa, pb) == (a, b)]
            add_row(f"floor_g{int(g_of[a])}_g{int(g_of[b])}", entries, 0.0)

    return MilpInstance(
        name=f"baseline_{objective}", objective=obj,
        a_ub=sparse.csr_matrix((data, (rows, cols)), shape=(len(b_ub), n_vars)),
        b_ub=np.array(b_ub), lower=lower, upper=upper, integer=integer,
        var_names=names, row_names=row_names,
    )


def solve_baseline(estimates: EstimateTable, objective: str = "maxmin",
                   pairs: list = None, max_nodes: int = 20000,
                   export_path=None) -> BaselineResult:
    """Exact (desk-scale) joint optimum, or an LP-file export.

    With ``export_path`` set the instance is written in LP format and, when
    ``max_nodes`` is zero, returned unsolved for external solving.
    Otherwise HiGHS (see ``branch_and_bound``) runs under the node budget;
    exhausting it yields the incumbent (possibly empty) plus the gap.
    """
    if pairs is None:
        pairs = station_pairs(estimates.n_stations)
    pairs = list(pairs)
    instance = build_baseline_instance(estimates, objective, pairs)
    if export_path is not None:
        export_lp(instance, export_path)
        instance.export_path = str(export_path)
        if not max_nodes:
            return BaselineResult(schedule=_empty_schedule(estimates, objective,
                                                           {"exported": True}),
                                  allocation=PairAllocation(pairs=pairs),
                                  milp=MilpResult(status="exported"),
                                  instance=instance)

    result = branch_and_bound(instance, max_nodes=max_nodes)
    if result.status == "infeasible":
        raise RuntimeError("baseline program infeasible; inputs inconsistent")
    if result.values is None:      # budget ran out before any integer point
        meta = {"milp_status": result.status, "milp_gap": None,
                "milp_nodes": result.nodes}
        return BaselineResult(schedule=_empty_schedule(estimates, objective, meta),
                              allocation=PairAllocation(
                                  pairs=pairs, totals={u: 0 for u in pairs}),
                              milp=result, instance=instance)

    n_rows = len(estimates)
    x = result.values
    entries = [(int(estimates.slot[i]), int(estimates.sat[i]),
                int(estimates.station[i]))
               for i in range(n_rows) if x[i] > 0.5]
    entries.sort()
    if entries:
        arr = np.array(entries, dtype=np.int64)
        slot, sat, station = arr[:, 0], arr[:, 1], arr[:, 2]
    else:
        slot = sat = station = np.zeros(0, dtype=np.int64)
    schedule = Schedule(
        n_slots=estimates.n_slots, n_sats=estimates.n_sats,
        n_stations=estimates.n_stations, slot=slot, sat=sat, station=station,
        key_pool=accumulate_pools(slot, sat, station, estimates),
        metadata={"scheduler": objective, "milp_status": result.status,
                  "milp_gap": float(result.gap) if np.isfinite(result.gap) else None,
                  "milp_nodes": result.nodes},
    )
    alloc = PairAllocation(pairs=pairs, totals={u: 0 for u in pairs})
    sat_pos = {int(v): i for i, v in enumerate(estimates.sat_ids)}
    g_pos = {int(v): i for i, v in enumerate(estimates.station_ids)}
    offset = n_rows
    for vi, name in enumerate(instance.var_names[n_rows:], start=0):
        if not name.startswith("y_"):
            continue
        v = int(round(x[offset + vi]))
        if v <= 0:
            continue
        sid, ga, gb = _parse_y_name(name)
        s, a, b = sat_pos[sid], g_pos[ga], g_pos[gb]
        alloc.bits[(s, a, b)] = v
        alloc.totals[(a, b)] = alloc.totals.get((a, b), 0) + v
    return BaselineResult(schedule=schedule, allocation=alloc, milp=result,
                          instance=instance)


def _parse_y_name(name: str):
    parts = name.split("_")   # y, s<id>, g<a>, g<b>
    return int(parts[1][1:]), int(parts[2][1:]), int(parts[3][1:])


def _empty_schedule(estimates: EstimateTable, objective: str,
                    extra: dict) -> Schedule:
    empty = np.zeros(0, dtype=np.int64)
    metadata = {"scheduler": objective}
    metadata.update(extra)
    return Schedule(n_slots=estimates.n_slots, n_sats=estimates.n_sats,
                    n_stations=estimates.n_stations, slot=empty, sat=empty,
                    station=empty, key_pool={}, metadata=metadata)


# ------------------------------------------------------------------ LP export

def _fmt(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)   # shortest text that parses back to the same double


def export_lp(instance: MilpInstance, path) -> None:
    """Write the instance in CPLEX LP text format, deterministically."""
    fallback = instance.var_names[0]
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
    binaries = [instance.var_names[j] for j in range(instance.n_vars)
                if instance.integer[j] and instance.lower[j] == 0.0
                and instance.upper[j] == 1.0]
    generals = [instance.var_names[j] for j in range(instance.n_vars)
                if instance.integer[j] and instance.var_names[j] not in binaries]
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
        return f"0 {fallback}"
    parts = []
    for i, (name, coef) in enumerate(terms):
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        text = f"{_fmt(mag)} {name}" if mag != 1.0 else name
        if i == 0:
            parts.append(f"- {text}" if coef < 0 else text)
        else:
            parts.append(f"{sign} {text}")
    return " ".join(parts)
