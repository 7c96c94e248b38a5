"""Shared fixtures and independent oracles used across the test modules.

The oracles here deliberately avoid the library's own algorithms: brute
force permutation scans for the assignment solver, depth-first search with
capacity pruning for the pairwise-key program, plain bisection for the
key-rate zero crossing, scalar per-triple geometry for the visibility scan,
loop-by-loop builders of the integer programs that the library assembles
from index arrays, dict-based Phase-1 schedulers for the array ones (on
the re-solve assignment solver that the priced tie walk replaced), and a
dict-based joint-capacity sum for the array helper, and the row-by-row
``csv.writer`` and slot-by-slot greedy that the columnar writer and the
pre-indexed greedy replaced, the all-satellite visibility scan that the
pruned two-pass scan replaced, and the hash-based tau, choice-histogram
and slot-span formulas that linear passes replaced. They are slow and only
meant for desk-scale cross checks.
"""

import csv
import itertools
import math

import numpy as np
import pytest
from scipy import sparse

from qkdsched.alloc import MilpInstance
from qkdsched.channel import EstimateTable
from qkdsched.orbit import (EARTH_RADIUS_KM, EARTH_ROT_RAD_S, MU_KM3_S2,
                            VisibilityTable, _dot_threshold, orbital_angular_rate)


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


def reference_joint_capacity(key_pool: dict, pairs) -> dict:
    """Per-pair key bits reachable through any single satellite.

    ``key_pool`` maps (sat, station) to bits; a link absent from it holds
    none. Sums min(pool[s, a], pool[s, b]) satellite by satellite.
    """
    by_sat: dict = {}
    for (s, g), v in key_pool.items():
        by_sat.setdefault(s, {})[g] = int(v)
    out = {}
    for (a, b) in pairs:
        out[(a, b)] = sum(min(link.get(a, 0), link.get(b, 0))
                          for link in by_sat.values())
    return out


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
    expect = np.zeros((estimates.n_sats, estimates.n_stations), dtype=np.int64)
    for (s, g), v in bits.items():
        expect[s, g] = int(np.floor(v))
    assert schedule.key_pool.dtype == np.int64
    assert np.array_equal(schedule.key_pool, expect), "pool accounting mismatch"


def reference_propagate(raan_deg, anomaly_deg, altitude_km, t):
    """Inertial position (km) of a polar-orbit satellite at time t seconds.

    The orbit plane contains the Earth's axis; the ascending node lies in
    the equatorial plane at right ascension ``raan_deg``. At anomaly 0 the
    satellite crosses the node heading north.
    """
    r = EARTH_RADIUS_KM + altitude_km
    nu = math.radians(anomaly_deg) + math.sqrt(MU_KM3_S2 / r**3) * t
    raan = math.radians(raan_deg)
    node = np.array([math.cos(raan), math.sin(raan), 0.0])
    pole = np.array([0.0, 0.0, 1.0])
    return r * (math.cos(nu) * node + math.sin(nu) * pole)


def reference_station_position(latitude_deg, longitude_deg, t):
    """Inertial position (km) of a ground station at time t seconds.

    At t = 0 the rotating frame coincides with the inertial one, so a
    station's right ascension equals its longitude.
    """
    lat = math.radians(latitude_deg)
    lon = math.radians(longitude_deg) + EARTH_ROT_RAD_S * t
    return EARTH_RADIUS_KM * np.array([
        math.cos(lat) * math.cos(lon),
        math.cos(lat) * math.sin(lon),
        math.sin(lat),
    ])


def reference_elevation_distance(sat_pos, station_pos):
    """Elevation angle (deg) and slant range (km) from station to satellite."""
    d = np.asarray(sat_pos, dtype=float) - np.asarray(station_pos, dtype=float)
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        raise ValueError("satellite and station coincide")
    up = np.asarray(station_pos, dtype=float)
    up = up / np.linalg.norm(up)
    elev = math.degrees(math.asin(float(np.dot(d, up)) / dist))
    return elev, dist


def reference_usable_slot_counts(slot, sat, n_slots, n_sats):
    """Per-satellite count of distinct slots, by two hash passes; the rows
    may come in any order."""
    out = np.zeros(n_sats, dtype=np.int64)
    key = np.asarray(sat, dtype=np.int64) * n_slots + slot
    sats, counts = np.unique(np.unique(key) // n_slots, return_counts=True)
    out[sats] = counts
    return out


def reference_scan(scenario, chunk=2048):
    """The visibility scan that evaluates every satellite-station dot
    product of every slot, ``chunk`` slots at a time, in one process."""
    time = scenario.time
    alt = scenario.sat_spec.altitude_km
    r = EARTH_RADIUS_KM + alt
    omega = orbital_angular_rate(alt)
    nu0 = np.radians([s.anomaly_deg for s in scenario.satellites])
    raan = np.radians([s.raan_deg for s in scenario.satellites])
    lat = np.radians([g.latitude_deg for g in scenario.stations])
    lon0 = np.radians([g.longitude_deg for g in scenario.stations])
    cutoff = _dot_threshold(alt, scenario.min_elevation_deg)
    sin_thresh = math.sin(math.radians(scenario.min_elevation_deg))

    parts = []
    for start in range(0, time.slot_count, chunk):
        stop = min(start + chunk, time.slot_count)
        t = np.arange(start, stop, dtype=float) * time.slot_duration_s
        nu = nu0[:, None] + omega * t[None, :]                    # (S, T)
        cos_nu = np.cos(nu)
        sat_pos = np.empty((len(t), len(nu), 3))                 # (T, S, 3)
        np.multiply(cos_nu * np.cos(raan)[:, None], r, out=sat_pos[:, :, 0].T)
        np.multiply(cos_nu * np.sin(raan)[:, None], r, out=sat_pos[:, :, 1].T)
        np.multiply(np.sin(nu), r, out=sat_pos[:, :, 2].T)
        lon = lon0[:, None] + EARTH_ROT_RAD_S * t[None, :]        # (G, T)
        st_pos = np.stack([
            np.cos(lat)[:, None] * np.cos(lon),
            np.cos(lat)[:, None] * np.sin(lon),
            np.broadcast_to(np.sin(lat)[:, None], lon.shape),
        ], axis=2) * EARTH_RADIUS_KM                              # (G, T, 3)
        dots = np.matmul(sat_pos, st_pos.transpose(1, 2, 0))      # (T, S, G)
        ti, si, gi = np.nonzero(dots >= cutoff)
        d = dots[ti, si, gi]
        dist = np.sqrt(r * r + EARTH_RADIUS_KM**2 - 2.0 * d)
        sin_el = (d - EARTH_RADIUS_KM**2) / (dist * EARTH_RADIUS_KM)
        elev = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
        keep = sin_el >= sin_thresh - 1e-12
        parts.append(((ti + start)[keep], si[keep], gi[keep], elev[keep], dist[keep]))

    slot, sat, station, elev, dist = (np.concatenate(c) for c in zip(*parts))
    slot, sat, station = (a.astype(np.int64, copy=False) for a in (slot, sat, station))
    return VisibilityTable(
        n_slots=time.slot_count, n_sats=scenario.n_sats,
        n_stations=scenario.n_stations, slot=slot, sat=sat, station=station,
        elevation_deg=elev, distance_km=dist,
    )


def reference_choice_histograms(table):
    """Choice histograms through a dense (entity, slot) count array."""
    out = {}
    for view, entity, n_entities in (("satellite", table.sat, table.n_sats),
                                     ("station", table.station, table.n_stations)):
        cells = np.bincount(entity.astype(np.int64) * table.n_slots
                            + table.slot.astype(np.int64),
                            minlength=n_entities * table.n_slots)
        hist = np.bincount(cells)
        out[view] = {int(k): int(m) for k, m in enumerate(hist) if m > 0 or k == 0}
    return out


def reference_slot_spans(estimates):
    """Row bounds of every occupied slot, found by hashing the slot column."""
    t = np.unique(estimates.slot)
    return (np.searchsorted(estimates.slot, t),
            np.searchsorted(estimates.slot, t, side="right"))


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
    rows, cols, data, b_ub = [], [], [], []
    for u in pairs:
        row = len(b_ub)
        rows.append(row); cols.append(n_y); data.append(1.0)
        for vi, (s, a, b) in enumerate(variables):
            if (a, b) == u:
                rows.append(row); cols.append(vi); data.append(-1.0)
        b_ub.append(0.0)
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

    objective = np.zeros(n_y + 1)
    objective[-1] = 1.0
    return MilpInstance(
        name="phase2_maxmin", objective=objective,
        a_ub=sparse.csr_matrix((data, (rows, cols)), shape=(len(b_ub), n_y + 1)),
        b_ub=np.array(b_ub), lower=np.zeros(n_y + 1),
        upper=np.array([float(min(k[s, a], k[s, b])) for (s, a, b) in variables]
                       + [float(min(pair_cap.values()))]),
        integer=np.array([True] * n_y + [False]),
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


# ------------------------------------------------------ reference schedulers
#
# The Phase-1 schedulers as they were written before schedules became
# served-row masks: per-slot dicts of key bits, replicated capacity
# entities, a weight callback per matrix cell, (slot, sat, station) tuples
# sorted at the end and pools summed link by link in a dict. The library's
# array schedulers must reproduce them exactly.

def _reference_schedule(entries, estimates, metadata):
    from qkdsched.sched import Schedule

    entries = sorted(entries)
    lookup = {(int(t), int(s), int(g)): float(b)
              for t, s, g, b in zip(estimates.slot, estimates.sat,
                                    estimates.station, estimates.key_bits)}
    raw = {}
    for t, s, g in entries:
        raw[(s, g)] = raw.get((s, g), 0.0) + lookup[(t, s, g)]
    key_pool = np.zeros((estimates.n_sats, estimates.n_stations), dtype=np.int64)
    for (s, g), v in raw.items():
        key_pool[s, g] = int(np.floor(v))
    arr = np.array(entries, dtype=np.int64).reshape(-1, 3)
    return Schedule(
        n_slots=estimates.n_slots, n_sats=estimates.n_sats,
        n_stations=estimates.n_stations,
        slot=arr[:, 0], sat=arr[:, 1], station=arr[:, 2],
        key_pool=key_pool, metadata=metadata,
    )


class _ReferenceSlotView:
    """One slot's bipartite link graph with replicated capacity entities."""

    def __init__(self, estimates, rows):
        self.sats = np.unique(estimates.sat[rows])
        self.stations = np.unique(estimates.station[rows])
        self.bits = {}
        for r in rows:
            self.bits[(int(estimates.sat[r]), int(estimates.station[r]))] = \
                float(estimates.key_bits[r])
        tx = estimates.transmitters
        rx = estimates.receivers
        self.sat_entities = [int(s) for s in self.sats for _ in range(int(tx[s]))]
        self.station_entities = [int(g) for g in self.stations for _ in range(int(rx[g]))]
        # rows = strictly smaller side; stations on ties
        self.rows_are_sats = len(self.sat_entities) < len(self.station_entities)

    def matrix(self, weight_of):
        from qkdsched.assign import WeightMatrix

        if self.rows_are_sats:
            row_e, col_e = self.sat_entities, self.station_entities
        else:
            row_e, col_e = self.station_entities, self.sat_entities
        w = np.zeros((len(row_e), len(col_e)))
        feas = np.zeros((len(row_e), len(col_e)), dtype=bool)
        for i, a in enumerate(row_e):
            for j, b in enumerate(col_e):
                s, g = (a, b) if self.rows_are_sats else (b, a)
                if (s, g) in self.bits:
                    feas[i, j] = True
                    w[i, j] = weight_of(s, g)
        return WeightMatrix(weights=w, feasible=feas)

    def pairs_from(self, row_to_col, row_mask=None):
        row_e = self.sat_entities if self.rows_are_sats else self.station_entities
        col_e = self.station_entities if self.rows_are_sats else self.sat_entities
        served, seen = [], set()
        idx = range(len(row_e)) if row_mask is None else row_mask
        for i, j in zip(idx, row_to_col):
            a, b = row_e[i], col_e[int(j)]
            s, g = (a, b) if self.rows_are_sats else (b, a)
            if (s, g) not in seen:     # collapse duplicate capacity copies
                seen.add((s, g))
                served.append((s, g))
        return served


def reference_solve_assignment(matrix, maximize=True):
    """The assignment solver as a re-solve loop, before the priced tie walk.

    Fixes rows in order; each takes the smallest column index for which an
    exact re-solve of the remaining rows (``linear_sum_assignment``) keeps
    the total within ``1e-9`` relative of the optimum. One-row matrices take
    the first exactly optimal column.
    """
    from scipy.optimize import linear_sum_assignment

    from qkdsched.assign import AssignmentInfeasibleError

    def raw_solve(cost):
        try:
            rows, cols = linear_sum_assignment(cost)
        except ValueError as exc:
            raise AssignmentInfeasibleError("no complete matching") from exc
        out = np.empty(cost.shape[0], dtype=np.int64)
        out[rows] = cols
        return out

    w = matrix.weights
    n_rows, n_cols = w.shape
    if n_rows > n_cols:
        raise ValueError("more rows than columns; orient the matrix first")
    if not matrix.feasible.any(axis=1).all():
        raise AssignmentInfeasibleError("a row has no feasible column")
    cost = np.where(matrix.feasible, -w if maximize else w, np.inf)
    if n_rows == 0:
        return np.zeros(0, dtype=np.int64)
    if n_rows == 1:
        j = int(np.flatnonzero(matrix.feasible[0] & (cost[0] == cost[0].min()))[0])
        return np.array([j], dtype=np.int64)

    assigned = raw_solve(cost)
    total = float(cost[np.arange(n_rows), assigned].sum())
    tol = 1e-9 * max(1.0, abs(total))
    fixed = np.full(n_rows, -1, dtype=np.int64)
    used = np.zeros(n_cols, dtype=bool)
    prefix = 0.0
    for i in range(n_rows):
        free_cols = np.flatnonzero(~used)
        best_j = None
        for j in free_cols:
            if not matrix.feasible[i, j]:
                continue
            candidate = prefix + cost[i, j]
            rest_rows = np.arange(i + 1, n_rows)
            if rest_rows.size:
                sub = cost[np.ix_(rest_rows, free_cols[free_cols != j])]
                row_min = sub.min(axis=1)
                if not np.isfinite(row_min).all():
                    continue
                if candidate + float(row_min.sum()) > total + tol:
                    continue
                try:
                    sub_assigned = raw_solve(sub)
                except AssignmentInfeasibleError:
                    continue
                candidate += float(sub[np.arange(sub.shape[0]), sub_assigned].sum())
            if candidate <= total + tol:
                best_j = j
                break
        if best_j is None:
            raise AssignmentInfeasibleError(f"row {i} has no feasible column")
        fixed[i] = best_j
        used[best_j] = True
        prefix += cost[i, best_j]
    return fixed


def _reference_solve_slot(view, weight_of, maximize):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    from qkdsched.assign import AssignmentInfeasibleError, WeightMatrix

    matrix = view.matrix(weight_of)
    try:
        return view.pairs_from(reference_solve_assignment(matrix, maximize=maximize))
    except AssignmentInfeasibleError:
        adjacency = csr_matrix(matrix.feasible.astype(np.int8))
        match = maximum_bipartite_matching(adjacency, perm_type="column")
        keep = np.flatnonzero(match >= 0)
        sub = WeightMatrix(weights=matrix.weights[keep],
                           feasible=matrix.feasible[keep])
        sol = reference_solve_assignment(sub, maximize=maximize)
        return view.pairs_from(sol, row_mask=keep)


def _reference_slots(estimates):
    """(slot, row indices) of every occupied slot, in slot order."""
    return [(int(t), np.flatnonzero(estimates.slot == t))
            for t in np.unique(estimates.slot)]


def reference_run_rr(estimates):
    counters = np.zeros((estimates.n_sats, estimates.n_stations))
    entries = []
    slots = _reference_slots(estimates)
    for t, rows in slots:
        if len(rows) == 1:
            s, g = int(estimates.sat[rows[0]]), int(estimates.station[rows[0]])
            entries.append((t, s, g))
            counters[s, g] += 1.0
    direct_slots = {e[0] for e in entries}
    for t, rows in slots:
        if t in direct_slots:
            continue
        view = _ReferenceSlotView(estimates, rows)
        served = _reference_solve_slot(view, lambda s, g: counters[s, g],
                                       maximize=False)
        for s, g in served:
            entries.append((t, s, g))
            counters[s, g] += 1.0
    return _reference_schedule(entries, estimates, {"scheduler": "rr"})


def reference_run_greedy(estimates):
    raw_pool = {}
    entries = []
    for t, rows in _reference_slots(estimates):
        view = _ReferenceSlotView(estimates, rows)
        rem_tx = {int(s): int(estimates.transmitters[s]) for s in view.sats}
        rem_rx = {int(g): int(estimates.receivers[g]) for g in view.stations}
        linked = set()
        while True:
            bids = {}
            for g in sorted(rem_rx):
                if rem_rx[g] <= 0:
                    continue
                options = [(s, view.bits[(s, g)]) for s in sorted(rem_tx)
                           if rem_tx[s] > 0 and (s, g) in view.bits
                           and (s, g) not in linked]
                if not options:
                    continue
                best = max(options, key=lambda it: (it[1], -it[0]))
                bids.setdefault(best[0], []).append(g)
            if not bids:
                break
            for s in sorted(bids):
                claimants = sorted(bids[s],
                                   key=lambda g: (raw_pool.get((s, g), 0.0), g))
                for g in claimants[:rem_tx[s]]:
                    linked.add((s, g))
                    rem_rx[g] -= 1
                    raw_pool[(s, g)] = raw_pool.get((s, g), 0.0) + view.bits[(s, g)]
                    entries.append((t, s, g))
                rem_tx[s] -= min(rem_tx[s], len(claimants))
    return _reference_schedule(entries, estimates, {"scheduler": "greedy"})


def reference_run_greedy_per_slot(estimates):
    """The array greedy as it was before its index work was hoisted to
    whole-table arrays: two ``np.unique`` calls per slot."""
    from qkdsched.sched import Schedule, _links

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
            cand = cand[np.lexsort((si[cand], -w[cand], gi[cand]))]
            bid = cand[np.r_[True, gi[cand[1:]] != gi[cand[:-1]]]]
            bid = bid[np.lexsort((gi[bid], pool[l[bid]], si[bid]))]
            rank = np.arange(len(bid)) - np.searchsorted(si[bid], si[bid])
            win = bid[rank < tx[si[bid]]]
            tx = np.maximum(tx - np.bincount(si[bid], minlength=len(sats)), 0)
            rx[gi[win]] -= 1
            open_[win] = False
            pool[l[win]] += w[win]
            served[a + win] = True
    return Schedule.from_mask(estimates, served, {"scheduler": "greedy"})


def reference_run_opportunistic(estimates, targets, delta=0.01, max_passes=50,
                                tol=1e-4):
    lam = np.zeros((estimates.n_sats, estimates.n_stations))
    norm = estimates.normalizer
    slots = _reference_slots(estimates)
    converged = False
    passes = 0
    entries = []
    for _ in range(max_passes):
        lam_start = lam.copy()
        entries = []
        for t, rows in slots:
            view = _ReferenceSlotView(estimates, rows)
            served = _reference_solve_slot(
                view, lambda s, g: (1.0 + lam[s, g]) * view.bits[(s, g)] / norm,
                maximize=True)
            for s, g in served:
                entries.append((t, s, g))
            served_set = set(served)
            for (s, g), bits in view.bits.items():
                u = bits / norm
                r = float(targets[s, g])
                if (s, g) in served_set:
                    lam[s, g] = max(0.0, lam[s, g] - delta * (u - r))
                else:
                    lam[s, g] = max(0.0, lam[s, g] + delta * r)
        passes += 1
        if float(np.abs(lam - lam_start).max(initial=0.0)) < tol:
            converged = True
            break
    return _reference_schedule(entries, estimates, {
        "scheduler": "opportunistic",
        "passes": passes,
        "converged": converged,
        "delta": delta,
        "tol": tol,
        "max_multiplier": float(lam.max(initial=0.0)),
    })


def reference_write_estimates_csv(table, path):
    """The estimate-table writer as it was before it formatted columns in
    chunks: one ``csv.writer`` row per estimate, and no metadata line."""
    columns = [table.slot.tolist(), table.sat_ids[table.sat].tolist(),
               table.station_ids[table.station].tolist()]
    columns += [map(repr, a.tolist()) for a in
                (table.transmissivity, table.successes, table.qber, table.rate,
                 table.cloud, table.key_bits)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["slot", "satellite_id", "station_id", "transmissivity",
                    "successes", "qber", "key_rate", "cloud", "key_bits"])
        w.writerows(zip(*columns))
