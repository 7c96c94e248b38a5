import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qkdsched import sched
from qkdsched.alloc import iterate_phase2, station_pairs
from qkdsched.channel import build_estimates
from qkdsched.orbit import build_visibility
from qkdsched.scenario import load_scenario
from qkdsched.weather import apply_filter, cloud_matrix, load_clouds
from conftest import (_ReferenceSlotView, _reference_solve_slot, check_schedule,
                      make_table, random_table, reference_run_greedy,
                      reference_run_greedy_per_slot, reference_run_opportunistic,
                      reference_run_rr)


def _full_table(n_slots, n_sats, n_stations, bits_fn, **kw):
    rows = [(t, s, g, bits_fn(t, s, g))
            for t in range(n_slots) for s in range(n_sats) for g in range(n_stations)]
    return make_table(n_slots, n_sats, n_stations, rows, **kw)


# ---------------------------------------------------------------- pools

def test_pools_floor_once():
    # two slots of 10.5 bits floor to 21, not 2 * floor(10.5) = 20; a
    # served zero-bit link still gets its (empty) pool
    table = make_table(2, 2, 1, [(0, 0, 0, 10.5), (1, 0, 0, 10.5), (1, 1, 0, 0.0)])
    out = sched.Schedule.from_mask(table, np.array([True, True, True]), {})
    assert out.key_pool.dtype == np.int64
    assert out.key_pool.tolist() == [[21], [0]]
    assert list(zip(out.slot.tolist(), out.sat.tolist())) == [(0, 0), (1, 0), (1, 1)]


# ---------------------------------------------------------------- round robin

def test_rr_two_by_two_alternates():
    """Hand simulation: full 2x2 visibility, equal counters rotate service."""
    table = _full_table(4, 2, 2, lambda t, s, g: 1.0)
    out = sched.run_rr(table)
    check_schedule(out, table)
    # every slot serves both satellites
    assert len(out) == 8
    served = {(t, s, g) for t, s, g in zip(out.slot, out.sat, out.station)}
    # slot 0: all counters zero, stations are rows, ties break to column order
    assert (0, 0, 0) in served and (0, 1, 1) in served
    # slot 1 must rotate to the opposite pairing
    assert (1, 1, 0) in served and (1, 0, 1) in served
    # over four slots every link is served exactly twice
    assert out.key_pool.tolist() == [[2, 2], [2, 2]]


def test_rr_direct_pass_single_edge_slots():
    rows = [(0, 0, 0, 5.0),                     # lone edge: direct assignment
            (1, 0, 0, 5.0), (1, 1, 1, 5.0)]     # two-edge slot: assignment pass
    table = make_table(2, 2, 2, rows)
    out = sched.run_rr(table)
    check_schedule(out, table)
    served = {(t, s, g) for t, s, g in zip(out.slot, out.sat, out.station)}
    assert served == {(0, 0, 0), (1, 0, 0), (1, 1, 1)}


def test_rr_counters_ignore_quality():
    # one loud link and one quiet link; round robin still alternates
    table = _full_table(6, 1, 2, lambda t, s, g: 100.0 if g == 0 else 0.25)
    out = sched.run_rr(table)
    check_schedule(out, table)
    per_station = np.bincount(out.station, minlength=2)
    assert per_station[0] == per_station[1] == 3


# ---------------------------------------------------------------- greedy

def test_greedy_pool_balancing_hand_sim():
    """Frozen hand run: g0 offers 3 bits, g1 offers 2, one satellite.

    Winners by smaller accumulated pool, station id on ties:
    slot 0 -> g0 (tie), slot 1 -> g1 (0 < 3), slot 2 -> g1 (2 < 3),
    slot 3 -> g0 (3 < 4).
    """
    table = _full_table(4, 1, 2, lambda t, s, g: 3.0 if g == 0 else 2.0)
    out = sched.run_greedy(table)
    check_schedule(out, table)
    order = [int(g) for _, g in sorted(zip(out.slot.tolist(), out.station.tolist()))]
    assert order == [0, 1, 1, 0]


def test_greedy_prefers_best_rate():
    rows = [(0, 0, 0, 5.0), (0, 1, 0, 1.0)]
    table = make_table(1, 2, 1, rows)
    out = sched.run_greedy(table)
    assert list(zip(out.sat, out.station)) == [(0, 0)]


def test_greedy_loser_rebids_same_slot():
    # both stations want satellite 0; the loser must fall back to satellite 1
    rows = [(0, 0, 0, 9.0), (0, 0, 1, 8.0), (0, 1, 1, 1.0)]
    table = make_table(1, 2, 2, rows)
    out = sched.run_greedy(table)
    check_schedule(out, table)
    served = {(int(s), int(g)) for s, g in zip(out.sat, out.station)}
    # g0 wins the conflict on the empty-pool tie (lower id), g1 re-bids to sat 1
    assert served == {(0, 0), (1, 1)}


@pytest.mark.parametrize("banked, winner", [(1.5, 0), (np.nextafter(1.5, 2.0), 1)])
def test_greedy_equal_pools_go_to_the_lower_station(banked, winner):
    """Station 1 has banked 1.5 bits with satellite 0 when both stations
    claim it in slot 2. If station 0 has banked exactly as much, its index
    wins although station 1 offers more, and station 1 re-bids for
    satellite 1; one ulp more and station 1 wins."""
    rows = [(0, 0, 1, 1.5), (1, 0, 0, banked), (2, 0, 0, 1.0), (2, 0, 1, 5.0),
            (2, 1, 1, 0.5)]
    table = make_table(3, 2, 2, rows)
    out = sched.run_greedy(table)
    check_schedule(out, table)
    slot_2 = [(s, g) for t, s, g in zip(out.slot.tolist(), out.sat.tolist(),
                                         out.station.tolist()) if t == 2]
    assert slot_2 == ([(0, 0), (1, 1)] if winner == 0 else [(0, 1)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -40.0])
def test_greedy_rejects_non_finite_key_bits(bad):
    """Every scheduler refuses a library-built table with a non-finite or
    negative key bit: a NaN pool has no place in greedy's (pool, station)
    order, and rr and op would floor it into a pool of -2**63 or -40."""
    table = make_table(2, 1, 2, [(0, 0, 0, 1.0), (0, 0, 1, 2.0), (1, 0, 0, 3.0)])
    table.key_bits[1] = bad
    targets = np.zeros((table.n_sats, table.n_stations))
    for run in (sched.run_greedy, sched.run_rr,
                lambda t: sched.run_opportunistic(t, targets)):
        with pytest.raises(ValueError, match="non-finite or negative key bits"):
            run(table)


def test_greedy_respects_transmitter_capacity():
    table = _full_table(2, 1, 3, lambda t, s, g: 1.0 + g, transmitters=[2])
    out = sched.run_greedy(table)
    check_schedule(out, table)
    for t in (0, 1):
        assert np.sum(out.slot == t) == 2


# ---------------------------------------------------------------- min rates

def test_derive_min_rates_hand_value():
    table = make_table(3, 1, 2, [(0, 0, 0, 10.5), (1, 0, 0, 10.5), (2, 0, 1, 4.0)])
    schedule = sched.run_greedy(table)
    # greedy serves (0,0) in slots 0 and 1, (0,1) in slot 2
    assert schedule.key_pool.tolist() == [[21, 4]]
    rates = sched.derive_min_rates(schedule, table)
    # tau = 3 usable slots, normalizer = 10.5
    assert rates.shape == (1, 2)
    assert rates[0, 0] == pytest.approx(21 / 3 / 10.5)
    assert rates[0, 1] == pytest.approx(4 / 3 / 10.5)


def test_derive_min_rates_zero_tau_guard():
    table = make_table(3, 2, 1, [(0, 0, 0, 2.0)])
    schedule = sched.run_greedy(table)
    assert sched.derive_min_rates(schedule, table)[1, 0] == 0.0


# ---------------------------------------------------------------- opportunistic

def test_opportunistic_zero_targets_pure_max():
    table = _full_table(5, 2, 2, lambda t, s, g: 1.0 + s + 2 * g)
    targets = np.zeros((2, 2))
    out = sched.run_opportunistic(table, targets)
    check_schedule(out, table)
    # with zero floors multipliers never move: converges on the first pass
    assert out.metadata["converged"] is True
    assert out.metadata["passes"] == 1
    assert out.metadata["max_multiplier"] == 0.0
    # every slot picks the same maximise assignment
    served = {(t, s, g) for t, s, g in zip(out.slot, out.sat, out.station)}
    for t in range(5):
        assert (t, 0, 0) in served and (t, 1, 1) in served


def test_opportunistic_multiplier_drags_weak_link():
    """One satellite, strong A (U=1.0) vs weak B (U=0.5), equal floors 0.2.

    The stationary split makes B's multiplier drift zero when B is served a
    fraction r / U_B = 0.4 of slots, so its empirical rate meets the floor.
    """
    table = _full_table(1500, 1, 2, lambda t, s, g: 1.0 if g == 0 else 0.5)
    targets = np.full((1, 2), 0.2)
    out = sched.run_opportunistic(table, targets, max_passes=8)
    check_schedule(out, table)
    share_b = np.mean(out.station == 1)
    assert share_b == pytest.approx(0.4, abs=0.05)
    rate_b = 0.5 * share_b
    assert rate_b >= 0.2 - 0.02


def test_opportunistic_invisible_links_never_update():
    # satellite 1 has no visibility at all; its multipliers must stay zero
    table = _full_table(50, 1, 2, lambda t, s, g: 1.0)
    wide = make_table(50, 2, 2,
                      [(t, 0, g, 1.0) for t in range(50) for g in range(2)])
    targets = np.full((2, 2), 0.5)
    out = sched.run_opportunistic(wide, targets, max_passes=3)
    check_schedule(out, wide)
    assert np.all(out.sat == 0)
    assert table.n_sats == 1  # the dense variant exists merely for contrast


def test_opportunistic_nonconvergence_reported_not_fatal(rng):
    table = random_table(rng, n_slots=40, n_sats=2, n_stations=3)
    targets = np.full((2, 3), 0.9)
    out = sched.run_opportunistic(table, targets, max_passes=3, tol=1e-12)
    check_schedule(out, table)
    assert out.metadata["converged"] is False
    assert out.metadata["passes"] == 3


@pytest.mark.parametrize("max_passes", [0, -1])
def test_opportunistic_rejects_pass_budget_below_one(max_passes):
    # no pass means no schedule; an empty one must not pass for an answer
    table = _full_table(2, 1, 2, lambda t, s, g: 1.0)
    targets = sched.derive_min_rates(sched.run_rr(table), table)
    with pytest.raises(ValueError, match="max_passes"):
        sched.run_opportunistic(table, targets, max_passes=max_passes)


@pytest.mark.parametrize("delta", [np.nan, np.inf])
def test_opportunistic_rejects_delta_not_finite_positive(delta):
    # a NaN or infinite step would poison every multiplier after one slot
    table = _full_table(2, 1, 2, lambda t, s, g: 1.0)
    targets = sched.derive_min_rates(sched.run_rr(table), table)
    with pytest.raises(ValueError, match="delta"):
        sched.run_opportunistic(table, targets, delta=delta)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-4])
def test_opportunistic_rejects_tol_not_finite_non_negative(tol):
    # a NaN tolerance never stops the passes early, and neither it nor an
    # infinite one can be written as strict JSON
    table = _full_table(2, 1, 2, lambda t, s, g: 1.0)
    targets = sched.derive_min_rates(sched.run_rr(table), table)
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        sched.run_opportunistic(table, targets, tol=tol)


# ---------------------------------------------------------------- structure

def test_hall_violation_falls_back_to_max_matching():
    # g0 sees every satellite; g1 and g2 see only satellite 0
    rows = [(0, 0, 0, 1.0), (0, 1, 0, 1.0), (0, 2, 0, 1.0),
            (0, 0, 1, 1.0), (0, 0, 2, 1.0)]
    table = make_table(1, 3, 3, rows)
    out = sched.run_rr(table)
    check_schedule(out, table)
    assert len(out) == 2  # maximum matchable subset
    out2 = sched.run_rr(table)
    assert np.array_equal(out.station, out2.station)


def _hall_short_slots(table) -> int:
    """Slots whose plan keeps fewer rows than the row side's capacity
    copies: stations' copies, or satellites' where they are strictly fewer."""
    plan = sched.slot_plan(table)
    short = 0
    for a, b, kept in zip(plan.lo.tolist(), plan.hi.tolist(), plan.rows.tolist()):
        sats = int(table.transmitters[np.unique(table.sat[a:b])].sum())
        stations = int(table.receivers[np.unique(table.station[a:b])].sum())
        short += kept < min(sats, stations)
    return short


def test_kept_rows_match_each_slots_own_matching(rng):
    """The one matching of all slots keeps, in every slot, the rows that a
    maximum matching of that slot's own sorted CSR graph covers."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    short = three = 0
    for trial in range(60):
        n_sats, n_stations = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        density = float(rng.uniform(0.1, 0.5))
        rows = [(t, s, g, 1.0) for t in range(15) for s in range(n_sats)
                for g in range(n_stations) if rng.random() < density]
        table = make_table(15, n_sats, n_stations, rows or [(0, 0, 0, 1.0)],
                           transmitters=rng.integers(1, 4, n_sats),
                           receivers=rng.integers(1, 4, n_stations))
        three += int(max(table.transmitters.max(), table.receivers.max()) == 3)
        lo, hi = table.slot_spans()
        r, c, _, n_rows, n_cols = sched._cells(table, lo, hi)
        kept = sched._kept_rows(r, c, n_rows, n_cols)
        row_base = np.concatenate(([0], np.cumsum(n_rows)))
        col_base = np.concatenate(([0], np.cumsum(n_cols)))
        for p in range(len(lo)):
            mine = (r >= row_base[p]) & (r < row_base[p + 1])
            own = csr_matrix((np.ones(int(mine.sum()), dtype=np.int8),
                              (r[mine] - row_base[p], c[mine] - col_base[p])),
                             shape=(n_rows[p], n_cols[p]))
            own.sort_indices()
            want = maximum_bipartite_matching(own, perm_type="column") >= 0
            assert np.array_equal(kept[row_base[p]:row_base[p + 1]], want), (trial, p)
        short += _hall_short_slots(table)
    assert short and three


def test_receiver_capacity_two_links_same_slot():
    rows = [(0, 0, 0, 1.0), (0, 1, 0, 2.0)]
    table = make_table(1, 2, 1, rows, receivers=[2])
    out = sched.run_greedy(table)
    check_schedule(out, table)
    assert len(out) == 2


def test_schedulers_feasible_on_random_tables(rng):
    for trial in range(25):
        table = random_table(rng, n_slots=20, n_sats=int(rng.integers(1, 4)),
                             n_stations=int(rng.integers(1, 5)),
                             density=float(rng.uniform(0.2, 0.9)))
        rr = sched.run_rr(table)
        check_schedule(rr, table)
        gr = sched.run_greedy(table)
        check_schedule(gr, table)
        prof = sched.derive_min_rates(rr, table)
        op = sched.run_opportunistic(table, prof, max_passes=6)
        check_schedule(op, table)


def test_rr_deterministic_across_runs(rng):
    table = random_table(rng, n_slots=30, n_sats=3, n_stations=3)
    a = sched.run_rr(table)
    b = sched.run_rr(table)
    assert np.array_equal(a.slot, b.slot)
    assert np.array_equal(a.sat, b.sat)
    assert np.array_equal(a.station, b.station)
    assert np.array_equal(a.key_pool, b.key_pool)


def _reference_case(rng, rounded):
    n_sats, n_stations = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    density = float(rng.uniform(0.2, 0.8))
    rows = []
    for t in range(12):
        for s in range(n_sats):
            for g in range(n_stations):
                if rng.random() < density:
                    bits = rng.random() * 4.0
                    rows.append((t, s, g, float(np.round(bits)) if rounded else bits))
    if not rows:
        rows.append((0, 0, 0, 1.0))
    return make_table(12, n_sats, n_stations, rows,
                      transmitters=rng.integers(1, 3, n_sats),
                      receivers=rng.integers(1, 3, n_stations))


def _assert_same_schedule(got, want):
    for name in ("slot", "sat", "station"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.key_pool.dtype == want.key_pool.dtype
    assert np.array_equal(got.key_pool, want.key_pool)
    assert got.metadata == want.metadata


def test_schedulers_match_reference(rng):
    """The mask schedulers serve exactly the rows the dict-based ones did.

    Tables mix capacities of one and two, rounded key bits (ties and
    zero-bit rows) and sparse visibility; the tables must hold Hall-short
    slots and the run serve zero-bit links for the comparison to cover them.
    """
    hall_short = zero_bit_served = two_capacity = 0
    for trial in range(40):
        table = _reference_case(rng, rounded=trial % 4 != 3)
        hall_short += _hall_short_slots(table)
        two_capacity += int(table.transmitters.max() == 2 and table.receivers.max() == 2)
        for run, reference in ((sched.run_rr, reference_run_rr),
                               (sched.run_greedy, reference_run_greedy)):
            got = run(table)
            _assert_same_schedule(got, reference(table))
            zero_bit_served += int((got.key_pool[got.sat, got.station] == 0).sum())
            targets = sched.derive_min_rates(got, table)
            _assert_same_schedule(
                sched.run_opportunistic(table, targets, delta=0.05, max_passes=4),
                reference_run_opportunistic(table, targets, delta=0.05, max_passes=4))
    assert hall_short and zero_bit_served and two_capacity


@pytest.mark.parametrize("window", [1, 2, 3])
def test_opportunistic_windows_match_reference(rng, monkeypatch, window):
    """Certifying a window of raw slot maps at once serves what solving
    every slot on its own serves, for rr and op, when windows are a few
    slots long, so that tables cross window boundaries and a certificate
    that fails after a window's first slot makes the pass replay that
    window.

    Rounded key bits (ties and zero-bit rows), rr's integer counters and
    capacities of one and two make certificates fail, so the exact
    fallback must run for both schedulers.
    """
    monkeypatch.setattr(sched, "_WINDOW", window)
    fallbacks, replays = [], []
    solve = sched.solve_assignment
    monkeypatch.setattr(sched, "solve_assignment",
                        lambda *a, **k: fallbacks.append(1) or solve(*a, **k))
    redo = sched._Passes._redo

    def counted(self, start, bad, *args):
        replays.append(bad > start)
        return redo(self, start, bad, *args)

    monkeypatch.setattr(sched._Passes, "_redo", counted)
    for name in ("rr", "op"):
        fallbacks.clear()
        replays.clear()
        for trial in range(24):
            table = _reference_case(rng, rounded=trial % 4 != 3)
            rr = reference_run_rr(table)
            if name == "rr":
                got, want = sched.run_rr(table), rr
            else:
                targets = sched.derive_min_rates(rr, table)
                got = sched.run_opportunistic(table, targets, delta=0.05, max_passes=4)
                want = reference_run_opportunistic(table, targets, delta=0.05, max_passes=4)
            _assert_same_schedule(got, want)
        assert fallbacks, name
        assert any(replays) or window == 1, name


def test_opportunistic_work_stays_linear_when_certificates_fail(monkeypatch):
    """With integer key bits and no floors, no multiplier ever breaks a
    tie, and rr's integer counters tie too, so many slot maps fail their
    certificates. A pass of either scheduler must still solve each slot a
    few times at most, not once more for every failure before it in its
    window."""
    rng = np.random.default_rng(5)
    rows = [(t, s, g, float(rng.integers(0, 4))) for t in range(400)
            for s in range(3) for g in range(4) if rng.random() < 0.6]
    table = make_table(400, 3, 4, rows)
    targets = np.zeros((3, 4))
    solves, fallbacks = [], []
    raw = sched.optimal_map
    monkeypatch.setattr(sched, "optimal_map", lambda cost: solves.append(1) or raw(cost))
    exact = sched.solve_assignment
    monkeypatch.setattr(sched, "solve_assignment",
                        lambda *a, **k: fallbacks.append(1) or exact(*a, **k))
    for run in (sched.run_rr, lambda table: sched.run_opportunistic(table, targets)):
        solves.clear()
        fallbacks.clear()
        out = run(table)
        slots = len(sched.slot_plan(table).lo) * out.metadata.get("passes", 1)
        assert len(fallbacks) > slots // 20, out.metadata
        assert len(solves) <= 3 * slots, out.metadata


def _slot_case(rng):
    """A table whose slots mix a heavy link, lone stations with near-ties
    and tied integer weights, under capacities of one and two."""
    n_sats, n_stations = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    rows, weights = [], {}
    for t in range(8):
        heavy = float(rng.choice([1.0, 1e3, 1e5]))
        for s in range(n_sats):
            for g in range(n_stations):
                if rng.random() < float(rng.uniform(0.25, 0.7)):
                    rows.append((t, s, g, 1.0))
                    kind = rng.random()
                    if kind < 0.15:
                        w = heavy
                    elif kind < 0.55:
                        w = float(rng.integers(0, 3))
                    else:
                        # a near-tie: the nudge is around the tolerance of a
                        # slot holding the heavy link, far above that of the
                        # station's own links
                        w = 1.0 + heavy * 1e-9 * float(rng.uniform(-1.5, 1.5))
                    weights[(t, s, g)] = w
    table = make_table(8, n_sats, n_stations, rows,
                       transmitters=rng.integers(1, 3, n_sats),
                       receivers=rng.integers(1, 3, n_stations))
    weight = np.array([weights[k] for k in zip(table.slot.tolist(), table.sat.tolist(),
                                               table.station.tolist())])
    return table, weight


def test_planned_slot_solve_matches_whole_slot_reference(rng):
    """Solving a slot's kept matrix exactly, as a pass does where a raw map
    fails its certificate, serves the links the unplanned whole-slot
    re-solve serves.

    The cases cover Hall-failing slots, slots with several components
    (lone stations next to multi-row ones), capacities of two, integer
    ties, and near-ties that only the whole slot's tolerance treats as
    ties.
    """
    hall_short = two_capacity = 0
    for trial in range(150):
        table, weight = _slot_case(rng)
        plan = sched.slot_plan(table)
        hall_short += _hall_short_slots(table)
        two_capacity += int(table.transmitters.max() == 2 or table.receivers.max() == 2)
        zeros = np.zeros(len(table))
        for maximize in (True, False):
            # maximising the weights is minimising their negation
            cost = -weight if maximize else weight
            passes = sched._Passes(plan, sched._links(table),
                                   np.zeros(table.n_sats * table.n_stations), zeros, zeros,
                                   lambda lam, a, b, out: np.copyto(out, cost[a:b]))
            for p, (a, b) in enumerate(zip(plan.lo.tolist(), plan.hi.tolist())):
                by_link = {(int(s), int(g)): w for s, g, w in
                           zip(table.sat[a:b], table.station[a:b], weight[a:b])}
                view = _ReferenceSlotView(table, np.arange(a, b))
                # slot p alone, as the pass solves a slot whose map failed
                served = np.zeros(len(table), dtype=bool)
                passes._redo(p, p, p + 1, passes.lam.copy(), [], served)
                rows = np.flatnonzero(served)
                got = sorted(set(zip(table.sat[rows].tolist(), table.station[rows].tolist())))
                want = sorted(_reference_solve_slot(view, lambda s, g: by_link[(s, g)],
                                                    maximize))
                assert got == want, (trial, a, maximize)
    assert hall_short and two_capacity


def _greedy_case(rng, n_sats, n_stations, density, tied):
    """Ten slots under capacities of 1 to 3, with key bits that tie (small
    integers) or not; every third slot holds a single row."""
    rows = []
    for t in range(10):
        links = [(s, g) for s in range(n_sats) for g in range(n_stations)
                 if rng.random() < density]
        if t % 3 == 2:
            links = links[:1]
        for s, g in links:
            bits = float(rng.integers(0, 3)) if tied else float(rng.random() * 4.0)
            rows.append((t, s, g, bits))
    return make_table(10, n_sats, n_stations, rows,
                      transmitters=rng.integers(1, 4, n_sats),
                      receivers=rng.integers(1, 4, n_stations))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 6),
       st.floats(0.1, 0.9), st.booleans())
@example(seed=1, n_sats=3, n_stations=4, density=0.9, tied=True)
def test_greedy_matches_per_slot_reference(seed, n_sats, n_stations, density, tied):
    """The list kernel serves the rows the slot-by-slot array greedy did."""
    table = _greedy_case(np.random.default_rng(seed), n_sats, n_stations, density, tied)
    got = sched.run_greedy(table)
    _assert_same_schedule(got, reference_run_greedy_per_slot(table))
    check_schedule(got, table)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_greedy_blocks_match_per_slot_reference(rng, monkeypatch, block):
    """Greedy's rounds run a few slots at a time serve what the slot-by-slot
    array greedy serves, so the pools carry across block boundaries."""
    monkeypatch.setattr(sched, "_BLOCK", block)
    for trial in range(30):
        table = _greedy_case(rng, int(rng.integers(1, 6)), int(rng.integers(1, 7)),
                             float(rng.uniform(0.1, 0.9)), tied=trial % 4 != 3)
        _assert_same_schedule(sched.run_greedy(table), reference_run_greedy_per_slot(table))


def test_greedy_on_a_table_the_filter_empties():
    """rr, greedy and op on a table with no rows serve nothing, as their
    references do; rr and op build their pass over zero slots."""
    table = make_table(3, 2, 2, [(0, 0, 0, 1.0), (1, 1, 1, 2.0), (2, 0, 1, 3.0)],
                       transmitters=[2, 1], receivers=[1, 3])
    table.cloud[:] = 0.9
    empty = apply_filter(table, 0.8)
    assert len(empty) == 0
    targets = np.zeros((2, 2))
    for run, reference in (
            (sched.run_rr, reference_run_rr),
            (sched.run_greedy, reference_run_greedy_per_slot),
            (lambda t: sched.run_opportunistic(t, targets),
             lambda t: reference_run_opportunistic(t, targets))):
        got = run(empty)
        _assert_same_schedule(got, reference(empty))
        assert len(got) == 0 and got.key_pool.shape == (2, 2)


# ---------------------------------------------------------------- golden digests


def _schedule_digests(schedule):
    """sha256 of the served (slot, sat, station) triples and of the key pools."""
    triples = np.stack([schedule.slot, schedule.sat, schedule.station]).astype("<i8")
    return {"served": hashlib.sha256(triples.tobytes()).hexdigest(),
            "key_pool": hashlib.sha256(schedule.key_pool.astype("<i8").tobytes()).hexdigest()}


def test_global_cut_rr_and_op_rr_match_digests():
    """rr, greedy and op-rr on the 2400-slot ``global_a500`` cut with the
    sample clouds and the 0.8 filter, and Phase 2 on each one's pools, keep
    giving what they gave when data/global_cut_digests.json was recorded.
    rr and op-rr certify windows of raw maps in one pass engine, and at this
    scale rr's integer counters fail many certificates, so its window
    replays and exact solves run too."""
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    scn = load_scenario(scenarios / "global_a500.ini")
    scn = dataclasses.replace(scn, time=dataclasses.replace(scn.time, slot_count=2400))
    clouds = cloud_matrix(load_clouds(scenarios / "clouds_sample.csv", date=scn.time.epoch),
                          scn)
    table = apply_filter(build_estimates(scn, build_visibility(scn), clouds), 0.8)
    rr = sched.run_rr(table)
    schedules = {"rr": rr, "greedy": sched.run_greedy(table),
                 "op-rr": sched.run_opportunistic(table, sched.derive_min_rates(rr, table),
                                                  max_passes=4)}
    pairs = station_pairs(table.n_stations)
    got = {name: _schedule_digests(schedule) for name, schedule in schedules.items()}
    got["phase2_bits"] = {
        name: hashlib.sha256(iterate_phase2(schedule.key_pool, pairs).bits.astype("<i8")
                             .tobytes()).hexdigest()
        for name, schedule in schedules.items()}
    want = json.loads((Path(__file__).parent / "data" / "global_cut_digests.json").read_text())
    assert got == want
