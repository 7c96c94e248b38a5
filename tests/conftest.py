"""Shared fixtures and independent oracles used across the test modules.

The oracles here deliberately avoid the library's own algorithms: brute
force permutation scans for the assignment solver, depth-first search with
capacity pruning for the pairwise-key program, plain bisection for the
key-rate zero crossing, and loop-by-loop builders of the integer programs
that the library assembles from index arrays. They are slow and only meant
for desk-scale cross checks.
"""

import itertools

import numpy as np
import pytest
from scipy import sparse

from qkdsched.alloc import MilpInstance
from qkdsched.channel import EstimateTable


def brute_force_assignment(weights, feasible, maximize=True):
    """Scan every injective row->column map; return (best value, best map).

    Among optimal maps the lexicographically smallest column tuple wins,
    which is the tie order the solver promises. Returns (None, None) when
    no feasible complete map exists.
    """
    n_rows, n_cols = weights.shape
    best_val, best_map = None, None
    for cols in itertools.permutations(range(n_cols), n_rows):
        if not all(feasible[i, c] for i, c in enumerate(cols)):
            continue
        val = sum(weights[i, c] for i, c in enumerate(cols))
        if best_val is None:
            best_val, best_map = val, cols
            continue
        if maximize:
            if val > best_val + 1e-12:
                best_val, best_map = val, cols
            elif abs(val - best_val) <= 1e-12 and cols < best_map:
                best_map = cols
        else:
            if val < best_val - 1e-12:
                best_val, best_map = val, cols
            elif abs(val - best_val) <= 1e-12 and cols < best_map:
                best_map = cols
    return best_val, best_map


def _pair_list(n_stations):
    return [(a, b) for a in range(n_stations) for b in range(a + 1, n_stations)]


def phase2_feasible(pools, pairs, k):
    """Exact feasibility of 'every pair totals >= k' by pruned DFS.

    ``pools`` is an (S, G) integer array of per-link key bits. Each unit
    given to pair (a, b) through satellite s consumes one bit of pools[s, a]
    and one of pools[s, b].
    """
    if k == 0:
        return True
    pools = pools.copy()
    n_sats = pools.shape[0]

    # cheap global prechecks: joint capacity per pair, aggregate per station
    for (a, b) in pairs:
        if sum(min(pools[s, a], pools[s, b]) for s in range(n_sats)) < k:
            return False
    degree = np.zeros(pools.shape[1], dtype=int)
    for (a, b) in pairs:
        degree[a] += 1
        degree[b] += 1
    if np.any(pools.sum(axis=0) < k * degree):
        return False

    def place(pair_idx):
        if pair_idx == len(pairs):
            return True
        a, b = pairs[pair_idx]

        def split(remaining, s):
            if remaining == 0:
                return place(pair_idx + 1)
            if s == n_sats:
                return False
            cap = min(pools[s, a], pools[s, b])
            # upper bound on what later satellites can still give this pair
            rest = sum(min(pools[r, a], pools[r, b]) for r in range(s + 1, n_sats))
            lo = max(0, remaining - rest)
            for take in range(lo, min(cap, remaining) + 1):
                pools[s, a] -= take
                pools[s, b] -= take
                if split(remaining - take, s + 1):
                    return True
                pools[s, a] += take
                pools[s, b] += take
            return False

        return split(k, 0)

    return place(0)


def phase2_bruteforce_maxmin(pools, pairs):
    """Largest k with every pair reaching k, by downward scan from the cap."""
    pools = np.asarray(pools, dtype=int)
    hi = min(sum(min(pools[s, a], pools[s, b]) for s in range(pools.shape[0]))
             for (a, b) in pairs) if pairs else 0
    for k in range(hi, -1, -1):
        if phase2_feasible(pools, pairs, k):
            return k
    return 0


def phase2_bruteforce_maxsum(pools, pairs):
    """Largest total pairwise bits, by DFS over per-pair-per-satellite takes."""
    pools = np.asarray(pools, dtype=int).copy()
    n_sats = pools.shape[0]
    cells = [(u, s) for u in range(len(pairs)) for s in range(n_sats)]
    best = 0

    def upper_bound(idx):
        ub = 0
        for (u, s) in cells[idx:]:
            a, b = pairs[u]
            ub += min(pools[s, a], pools[s, b])
        return ub

    def go(idx, acc):
        nonlocal best
        best = max(best, acc)
        if idx == len(cells):
            return
        if acc + upper_bound(idx) <= best:
            return
        u, s = cells[idx]
        a, b = pairs[u]
        for take in range(min(pools[s, a], pools[s, b]), -1, -1):
            pools[s, a] -= take
            pools[s, b] -= take
            go(idx + 1, acc + take)
            pools[s, a] += take
            pools[s, b] += take

    go(0, 0)
    return best


def check_schedule(schedule, estimates):
    """Independent feasibility audit of a schedule against its estimates.

    Checks, from first principles: every served triple exists in the
    estimate table, no (slot, sat, station) repeats, and per-slot
    transmitter/receiver capacities hold.
    """
    edges = set(zip(estimates.slot.tolist(), estimates.sat.tolist(),
                    estimates.station.tolist()))
    seen = set()
    tx_load, rx_load = {}, {}
    for t, s, g in zip(schedule.slot.tolist(), schedule.sat.tolist(),
                       schedule.station.tolist()):
        assert (t, s, g) in edges, f"served invisible triple {(t, s, g)}"
        assert (t, s, g) not in seen, f"duplicate service {(t, s, g)}"
        seen.add((t, s, g))
        tx_load[(t, s)] = tx_load.get((t, s), 0) + 1
        rx_load[(t, g)] = rx_load.get((t, g), 0) + 1
    for (t, s), n in tx_load.items():
        assert n <= estimates.transmitters[s], f"satellite {s} over capacity at {t}"
    for (t, g), n in rx_load.items():
        assert n <= estimates.receivers[g], f"station {g} over capacity at {t}"
    # pool audit: floored sum of served bits per link
    bits = {}
    lookup = {(int(t), int(s), int(g)): float(b)
              for t, s, g, b in zip(estimates.slot, estimates.sat,
                                    estimates.station, estimates.key_bits)}
    for t, s, g in zip(schedule.slot.tolist(), schedule.sat.tolist(),
                       schedule.station.tolist()):
        bits[(s, g)] = bits.get((s, g), 0.0) + lookup[(t, s, g)]
    expect = {k: int(np.floor(v)) for k, v in bits.items()}
    assert schedule.key_pool == expect, "pool accounting mismatch"


def bisect_root(fn, lo, hi, tol=1e-12):
    """Plain bisection for a sign change of ``fn`` on [lo, hi]."""
    flo, fhi = fn(lo), fn(hi)
    assert flo * fhi < 0, "no sign change on the bracket"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fn(lo) * fn(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def make_table(n_slots, n_sats, n_stations, rows, transmitters=None, receivers=None):
    """Estimate table from (slot, sat, station, key_bits) tuples."""
    rows = sorted(rows)
    slot = np.array([r[0] for r in rows], dtype=np.int64)
    sat = np.array([r[1] for r in rows], dtype=np.int64)
    station = np.array([r[2] for r in rows], dtype=np.int64)
    bits = np.array([float(r[3]) for r in rows])
    zeros = np.zeros(len(rows))
    return EstimateTable(
        n_slots=n_slots, n_sats=n_sats, n_stations=n_stations,
        slot=slot, sat=sat, station=station,
        transmissivity=zeros.copy(), successes=bits.copy(), qber=zeros.copy(),
        rate=np.ones(len(rows)), cloud=zeros.copy(), key_bits=bits,
        transmitters=None if transmitters is None else np.asarray(transmitters, dtype=np.int64),
        receivers=None if receivers is None else np.asarray(receivers, dtype=np.int64),
    )


def random_table(rng, n_slots=30, n_sats=3, n_stations=4, density=0.6, scale=10.0):
    """Random synthetic estimate table for scheduler property tests."""
    rows = []
    for t in range(n_slots):
        for s in range(n_sats):
            for g in range(n_stations):
                if rng.random() < density:
                    rows.append((t, s, g, float(rng.random() * scale)))
    if not rows:
        rows.append((0, 0, 0, 1.0))
    return make_table(n_slots, n_sats, n_stations, rows)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def toy_scenario():
    from qkdsched.scenario import (ChannelParams, GroundStation, Satellite,
                                   SatelliteSpec, Scenario, TimeGrid)

    station = GroundStation(
        station_id=1, name="toy", latitude_deg=40.0, longitude_deg=-74.0,
        receivers=1,
        zenith_transmissivity={"mar": 0.65, "jun": 0.6, "sep": 0.62, "dec": 0.7},
        background_noise={0: 1e-7, 6: 2e-7, 12: 5e-7, 18: 2e-7},
    )
    return Scenario(
        satellites=(Satellite(sat_id=0, ring=0, slot_in_ring=0,
                              raan_deg=0.0, anomaly_deg=0.0),),
        stations=(station,),
        sat_spec=SatelliteSpec(altitude_km=500.0, transmitters=1,
                               source_rate_hz=1e9, optics_transmissivity=0.8,
                               dark_count_prob=1e-8),
        time=TimeGrid(slot_duration_s=1.0, slot_count=4),
        channel=ChannelParams(transmit_divergence_urad=10.0,
                              receiver_aperture_m=1.0,
                              detector_efficiency=0.5, sifting_factor=0.5,
                              intrinsic_error_rate=0.01),
    )


def reference_phase2_instance(pools, pairs):
    """Phase-2 round program built by plain loops, or None when it is skipped.

    The per-pair, per-satellite, per-variable reading of the program that
    ``solve_phase2_maxmin`` solves: one y variable per (satellite, pair)
    with positive joint pool, then z; one floor row per pair, then one
    pool row per link some variable draws on, satellite-major. Returns
    None where the library skips the solve (no pairs, or a pair with no
    joint capacity).
    """
    k = np.asarray(pools, dtype=np.int64)
    n_sats, n_stations = k.shape
    pairs = list(pairs)
    if not pairs:
        return None
    variables = []  # (s, a, b)
    for (a, b) in pairs:
        for s in range(n_sats):
            if min(k[s, a], k[s, b]) > 0:
                variables.append((s, a, b))
    pair_cap = {u: sum(int(min(k[s, u[0]], k[s, u[1]])) for s in range(n_sats))
                for u in pairs}
    if min(pair_cap.values()) == 0:
        return None

    n_y = len(variables)
    rows, cols, data, b_ub, row_names = [], [], [], [], []
    for u in pairs:
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

    objective = np.zeros(n_y + 1)
    objective[-1] = 1.0
    return MilpInstance(
        name="phase2_maxmin", objective=objective,
        a_ub=sparse.csr_matrix((data, (rows, cols)), shape=(len(b_ub), n_y + 1)),
        b_ub=np.array(b_ub), lower=np.zeros(n_y + 1),
        upper=np.array([float(min(k[s, a], k[s, b])) for (s, a, b) in variables]
                       + [float(min(pair_cap.values()))]),
        integer=np.array([True] * n_y + [False]),
        var_names=[f"y_s{s}_g{a}_g{b}" for (s, a, b) in variables] + ["z"],
        row_names=row_names,
    )


def reference_baseline_instance(estimates, objective="maxmin", pairs=None):
    """Joint schedule-and-allocate program built by plain loops.

    The row-by-row reading of ``build_baseline_instance``: x per estimate
    row, y per (satellite, pair) with positive joint link capacity, z for
    "maxmin"; transmitter rows by (slot, sat), receiver rows by (slot,
    station), pool rows by (sat, station), then floor rows per pair.
    """
    if pairs is None:
        pairs = _pair_list(estimates.n_stations)
    pairs = list(pairs)
    n_rows = len(estimates)
    sat_of, g_of = estimates.sat_ids, estimates.station_ids
    x_names = [f"x_t{int(estimates.slot[i])}_s{int(sat_of[estimates.sat[i]])}"
               f"_g{int(g_of[estimates.station[i]])}" for i in range(n_rows)]

    link_cap = {}
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
    obj = np.zeros(n_vars)
    if with_floor:
        obj[-1] = 1.0
    else:
        obj[n_rows:n_rows + len(y_vars)] = 1.0
    upper = np.ones(n_vars)
    for vi, (s, a, b, cap) in enumerate(y_vars):
        upper[n_rows + vi] = np.floor(cap)
    integer = np.ones(n_vars, dtype=bool)
    if with_floor:
        pair_cap = [sum(np.floor(c) for (s, pa, pb, c) in y_vars if (pa, pb) == u)
                    for u in pairs]
        upper[-1] = min(pair_cap) if pair_cap else 0.0
        integer[-1] = False

    rows, cols, data, b_ub, row_names = [], [], [], [], []

    def add_row(name, entries, rhs):
        row = len(b_ub)
        for col, coef in entries:
            rows.append(row); cols.append(col); data.append(float(coef))
        b_ub.append(float(rhs))
        row_names.append(name)

    by_ts, by_tg, by_link = {}, {}, {}
    for i in range(n_rows):
        t, s, g = int(estimates.slot[i]), int(estimates.sat[i]), int(estimates.station[i])
        by_ts.setdefault((t, s), []).append(i)
        by_tg.setdefault((t, g), []).append(i)
        by_link.setdefault((s, g), []).append(i)
    for (t, s), idx in sorted(by_ts.items()):
        add_row(f"tx_t{t}_s{int(sat_of[s])}", [(i, 1.0) for i in idx],
                int(estimates.transmitters[s]))
    for (t, g), idx in sorted(by_tg.items()):
        add_row(f"rx_t{t}_g{int(g_of[g])}", [(i, 1.0) for i in idx],
                int(estimates.receivers[g]))
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
        b_ub=np.array(b_ub), lower=np.zeros(n_vars), upper=upper, integer=integer,
        var_names=x_names + y_names + (["z"] if with_floor else []),
        row_names=row_names,
    )


def assert_same_instance(got, want):
    """Field-by-field identity of two MilpInstance objects."""
    assert got.name == want.name
    assert got.var_names == want.var_names
    assert got.row_names == want.row_names
    for field in ("objective", "lower", "upper", "integer", "b_ub"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert got.a_ub.shape == want.a_ub.shape
    assert np.array_equal(got.a_ub.toarray(), want.a_ub.toarray())
    # the LP export writes each row's stored terms in their stored order
    assert np.array_equal(got.a_ub.indptr, want.a_ub.indptr)
    assert np.array_equal(got.a_ub.indices, want.a_ub.indices)
    assert np.array_equal(got.a_ub.data, want.a_ub.data)
