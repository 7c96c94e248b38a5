"""Untimed checks of the artifacts a workload run wrote.

Each scheduler directory is audited against the estimate rows the run
scheduled from, using raw satellite and station ids throughout:

- ``schedule.csv`` serves only estimate rows, each at most once, within the
  per-slot transmitter and receiver capacities;
- ``pools.csv`` is the floored per-link sum of the served key bits;
- ``allocation.csv`` draws no link beyond its pool;
- the exact baselines report ``optimal`` and their objective matches an
  independent ``scipy.optimize.milp`` solve of the same program;
- a heuristic's first Phase-2 round floor matches a ``milp`` max-min solve
  of its pools.

Iterations that ran on the same inputs must have written identical bytes.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import os
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from gen import FILTER_THRESHOLD

EXACT = ("maxmin", "maxsum")
# artifacts a --table replay cannot be expected to reproduce
REPLAY_SKIP = ("estimates.csv", "run_config.json")


class Estimates:
    """Estimate rows keyed by raw ids, with per-slot link capacities."""

    def __init__(self, table):
        sat_ids = table.sat_ids[table.sat]
        station_ids = table.station_ids[table.station]
        self.table = table
        self.bits = {(int(t), int(s), int(g)): float(b) for t, s, g, b in
                     zip(table.slot, sat_ids, station_ids, table.key_bits)}
        self.tx = dict(zip(table.sat_ids.tolist(), table.transmitters.tolist()))
        self.rx = dict(zip(table.station_ids.tolist(), table.receivers.tolist()))
        self.stations = sorted(int(g) for g in table.station_ids)


def load_estimates(argv: list) -> Estimates:
    """Rebuild, through the library's own stages, the filtered table a
    ``run`` argv schedules from."""
    from qkdsched.channel import build_estimates, read_estimates_csv
    from qkdsched.orbit import build_visibility
    from qkdsched.scenario import load_scenario
    from qkdsched.weather import apply_filter, cloud_matrix, load_clouds

    opts = dict(zip(argv[1::2], argv[2::2]))
    if "--table" in opts:
        table = read_estimates_csv(opts["--table"])
    else:
        scenario = load_scenario(opts["--scenario"])
        clouds = None
        if "--clouds" in opts:
            clouds = cloud_matrix(load_clouds(opts["--clouds"], date=scenario.time.epoch),
                                  scenario)
        table = build_estimates(scenario, build_visibility(scenario), clouds)
    return Estimates(apply_filter(table, FILTER_THRESHOLD))


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def check_schedule(est: Estimates, schedule: list) -> list:
    problems, seen, tx, rx = [], set(), {}, {}
    for t, s, g in schedule:
        if (t, s, g) not in est.bits:
            problems.append(f"served triple {(t, s, g)} is not an estimate row")
        if (t, s, g) in seen:
            problems.append(f"triple {(t, s, g)} served twice")
        seen.add((t, s, g))
        tx[(t, s)] = tx.get((t, s), 0) + 1
        rx[(t, g)] = rx.get((t, g), 0) + 1
    problems += [f"satellite {s} serves {n} links in slot {t}"
                 for (t, s), n in tx.items() if n > est.tx.get(s, 0)]
    problems += [f"station {g} receives {n} links in slot {t}"
                 for (t, g), n in rx.items() if n > est.rx.get(g, 0)]
    return problems


def expected_pools(est: Estimates, schedule: list) -> dict:
    """Floored per-link sums, accumulated in schedule order."""
    raw = {}
    for t, s, g in schedule:
        raw[(s, g)] = raw.get((s, g), 0.0) + est.bits.get((t, s, g), 0.0)
    return {k: math.floor(v) for k, v in raw.items()}


def check_pools(est: Estimates, schedule: list, pools: dict) -> list:
    want = expected_pools(est, schedule)
    return [f"pool {k} is {pools.get(k)}, served bits floor to {want.get(k)}"
            for k in sorted(set(want) | set(pools)) if pools.get(k) != want.get(k)]


def check_allocation(pools: dict, allocation: list) -> list:
    used = {}
    for s, a, b, v in allocation:
        if v <= 0:
            return [f"allocation row {(s, a, b)} has {v} bits"]
        for g in (a, b):
            used[(s, g)] = used.get((s, g), 0) + v
    return [f"link {k} allocates {v} bits from a pool of {pools.get(k, 0)}"
            for k, v in sorted(used.items()) if v > pools.get(k, 0)]


def _solve(c, a, b_ub, integer, lower, upper) -> float:
    """Maximise c.x subject to a x <= b_ub; returns the optimum."""
    res = milp(-np.asarray(c, dtype=float),
               constraints=LinearConstraint(a, -np.inf, b_ub),
               integrality=np.asarray(integer, dtype=int),
               bounds=Bounds(lower, upper), options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise RuntimeError(f"reference milp failed: {res.message}")
    return -res.fun


def phase2_floor(pools: dict, stations: list) -> int:
    """Largest z such that every pair with joint capacity gets z pairwise
    bits, each bit through one satellite using one pooled bit of each end."""
    sats = sorted({s for s, _ in pools})
    pairs = [(a, b) for i, a in enumerate(stations) for b in stations[i + 1:]]
    cap = {(s, a, b): min(pools.get((s, a), 0), pools.get((s, b), 0))
           for s in sats for a, b in pairs}
    vars_ = [k for k, v in cap.items() if v > 0]
    active = sorted({(a, b) for _, a, b in vars_})
    if not active:
        return 0
    col = {k: i for i, k in enumerate(vars_)}
    z = len(vars_)
    rows, cols, data, rhs = [], [], [], []
    for r, (a, b) in enumerate(active):
        rows.append(r); cols.append(z); data.append(1.0)
        for s in sats:
            if (s, a, b) in col:
                rows.append(r); cols.append(col[(s, a, b)]); data.append(-1.0)
        rhs.append(0.0)
    touching = {}
    for (s, a, b), i in col.items():
        touching.setdefault((s, a), []).append(i)
        touching.setdefault((s, b), []).append(i)
    for (s, g), idx in sorted(touching.items()):
        r = len(rhs)
        rows += [r] * len(idx); cols += idx; data += [1.0] * len(idx)
        rhs.append(float(pools[(s, g)]))
    a = sparse.csr_matrix((data, (rows, cols)), shape=(len(rhs), z + 1))
    c = np.zeros(z + 1); c[z] = 1.0
    upper = np.array([cap[k] for k in vars_] + [np.inf], dtype=float)
    integer = [1] * z + [0]
    return int(round(_solve(c, a, rhs, integer, np.zeros(z + 1), upper)))


def baseline_optimum(table, objective: str) -> float:
    """Optimum of the program ``solve_baseline`` solves, found by HiGHS."""
    from qkdsched.alloc import build_baseline_instance
    inst = build_baseline_instance(table, objective)
    return _solve(inst.objective, inst.a_ub, inst.b_ub, inst.integer,
                  inst.lower, inst.upper)


def check_scheduler(est: Estimates, sub: Path, name: str) -> list:
    """Every audit of one scheduler's directory; returns the problems."""
    schedule = [tuple(map(int, r)) for r in _csv_rows(sub / "schedule.csv")]
    pools = {(int(s), int(g)): int(v) for s, g, v in _csv_rows(sub / "pools.csv")}
    allocation = [tuple(map(int, r)) for r in _csv_rows(sub / "allocation.csv")]
    with open(sub / "report.json") as fh:
        report = json.load(fh)
    problems = (check_schedule(est, schedule) + check_pools(est, schedule, pools)
                + check_allocation(pools, allocation))
    pair_keys = list(report["pair_keys"].values())
    if name in EXACT:
        status = report["metadata"].get("milp_status")
        if status != "optimal":
            problems.append(f"{name} ended '{status}'")
        got = min(pair_keys, default=0) if name == "maxmin" else sum(pair_keys)
        want = baseline_optimum(est.table, name)
        if abs(got - want) > 1e-6:
            problems.append(f"{name} objective {got}, reference milp {want}")
    else:
        got = report["rounds"][0]["floor"] if report["rounds"] else 0
        want = phase2_floor(pools, est.stations)
        if got != want:
            problems.append(f"{name} first Phase-2 floor {got}, reference milp {want}")
    return [f"{sub}: {p}" for p in problems]


def differing_files(a: Path, b: Path, skip=()) -> list:
    """Relative paths whose bytes differ between two output trees, or that
    exist in only one of them."""
    names = set()
    for base in (a, b):
        for d, _, files in os.walk(base):
            names |= {os.path.relpath(os.path.join(d, f), base) for f in files}
    return sorted(n for n in names if os.path.basename(n) not in skip and not (
        (a / n).is_file() and (b / n).is_file()
        and filecmp.cmp(a / n, b / n, shallow=False)))


def out_dir(argv: list) -> Path:
    return Path(argv[argv.index("--out") + 1])


def check_iterations(iterations: list) -> dict:
    """Audit every invocation of a worker's iterations.

    The first iteration of each input group is audited in full; later ones
    must match it byte for byte. Returns ops, failed ops, the problems and
    the replay mismatches of the first iteration that has a replay.
    """
    ops = failed = 0
    problems, replay_mismatches = [], None
    first = {}
    for it in iterations:
        ref = first.setdefault(it["group"], it)
        for i, inv in enumerate(it["invocations"]):
            n = len(inv["schedulers"])
            ops += n
            out = out_dir(inv["argv"])
            if inv["rc"] != 0:
                failed += n
                problems.append(f"{out}: exit code {inv['rc']}")
                continue
            if ref is not it:
                diff = differing_files(out_dir(ref["invocations"][i]["argv"]), out)
                if diff:
                    failed += n
                    problems.append(f"{out}: differs from its first run in {diff}")
                continue
            est = load_estimates(inv["argv"])
            for name in inv["schedulers"]:
                found = check_scheduler(est, out / name, name)
                failed += bool(found)
                problems += found
            if "replay_of" in inv and replay_mismatches is None:
                source = out_dir(it["invocations"][inv["replay_of"]]["argv"])
                replay_mismatches = len(differing_files(source, out, REPLAY_SKIP))
    return {"ops": ops, "failed": failed, "problems": problems,
            "replay_mismatches": replay_mismatches or 0}
