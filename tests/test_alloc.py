"""Pairwise allocation and exact baselines against enumeration oracles."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, milp

from qkdsched.alloc import (
    MilpInstance,
    branch_and_bound,
    build_baseline_instance,
    export_lp,
    iterate_phase2,
    joint_capacity,
    solve_baseline,
    solve_phase2_maxmin,
    station_pairs,
)
from qkdsched.sched import run_greedy

from conftest import (
    BRANCHING_DESK_ROWS,
    _pair_list,
    assert_same_instance,
    make_table,
    phase2_bruteforce_maxmin,
    phase2_bruteforce_maxsum,
    random_table,
    reference_baseline_instance,
    reference_joint_capacity,
    reference_phase2_instance,
)


def _loads(bits, pairs, shape):
    """Pool bits spent per link: each pairwise bit takes one at both ends."""
    loads = np.zeros(shape, dtype=np.int64)
    for s in range(shape[0]):
        for u, (a, b) in enumerate(pairs):
            loads[s, a] += bits[s, u]
            loads[s, b] += bits[s, u]
    return loads


def _check_allocation(pools, pairs, floor_value, bits):
    """Independent audit: loads within pools, min over pairs equals floor."""
    pools = np.asarray(pools)
    assert bits.dtype == np.int64 and bits.shape == (pools.shape[0], len(pairs))
    assert np.all(bits >= 0)
    assert np.all(_loads(bits, pairs, pools.shape) <= pools)
    assert min(bits[:, u].sum() for u in range(len(pairs))) == floor_value


# ---------------------------------------------------------- joint capacity

def test_joint_capacity_matches_reference(rng):
    cases = []
    for trial in range(30):
        n_sats, n_stations = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        pools = rng.integers(0, 9, size=(n_sats, n_stations))
        pools[rng.random(pools.shape) < 0.3] = 0
        if trial % 3 == 0:   # a satellite that served no link
            pools[int(rng.integers(n_sats))] = 0
        pairs = _pair_list(n_stations)
        if trial % 2:        # reversed pair order, and b before a in each pair
            pairs = [(b, a) for a, b in pairs[::-1]]
        cases.append((pools, pairs))
    cases.append((np.zeros((2, 3), dtype=np.int64), _pair_list(3)))
    empty_sats = 0
    for pools, pairs in cases:
        # the dict form lists served links only: some zero-bit links, never
        # one of a satellite that served nothing
        served = {(s, g): int(v) for (s, g), v in np.ndenumerate(pools)
                  if pools[s].any() and (v > 0 or (s + g) % 2 == 0)}
        empty_sats += sum(s not in {k[0] for k in served} for s in range(len(pools)))
        want = reference_joint_capacity(served, pairs)
        got = joint_capacity(pools, pairs)
        assert got.shape == (len(pools), len(pairs))
        assert got.sum(axis=0).tolist() == [want[u] for u in pairs]
    assert empty_sats >= 10


# ------------------------------------------------------------- single round

def test_maxmin_single_pair():
    pools = np.array([[7, 5, 0]])
    floor_value, alloc = solve_phase2_maxmin(pools, [(0, 1)])
    assert floor_value == 5
    assert alloc.tolist() == [[5]]


def test_maxmin_zero_capacity_pair_pins_floor():
    # station 2 never pooled anything, so every allocation has min zero
    pools = np.array([[10, 10, 0]])
    floor_value, alloc = solve_phase2_maxmin(pools, _pair_list(3))
    assert floor_value == 0
    assert alloc.shape == (1, 3) and not alloc.any()


def test_maxmin_shared_endpoint_bottleneck():
    # station 2 holds one pooled bit but sits in two pairs; no allocation
    # serves both, even though each pair alone has positive joint capacity
    pools = np.array([[3, 3, 1]])
    assert phase2_bruteforce_maxmin(pools, _pair_list(3)) == 0
    floor_value, _ = solve_phase2_maxmin(pools, _pair_list(3))
    assert floor_value == 0


def test_maxmin_relaxation_gap_closed():
    # two satellites, unit pools, triangle of pairs: fractional halves reach
    # a floor of one, whole bits cannot; the solver must land on zero
    pools = np.ones((2, 3), dtype=int)
    assert phase2_bruteforce_maxmin(pools, _pair_list(3)) == 0
    floor_value, _ = solve_phase2_maxmin(pools, _pair_list(3))
    assert floor_value == 0


def test_maxmin_two_satellites_split():
    # pair (0,1) must draw on both satellites to match the brute-force cap
    pools = np.array([[2, 1, 0], [1, 2, 0]])
    floor_value, alloc = solve_phase2_maxmin(pools, [(0, 1)])
    assert floor_value == 2
    _check_allocation(pools, [(0, 1)], floor_value, alloc)


def test_maxmin_matches_bruteforce_random(rng):
    for trial in range(60):
        n_sats = int(rng.integers(1, 4))
        n_stations = int(rng.integers(2, 5))
        pools = rng.integers(0, 13, size=(n_sats, n_stations))
        all_pairs = _pair_list(n_stations)
        keep = rng.random(len(all_pairs)) < 0.8
        pairs = [u for u, k in zip(all_pairs, keep) if k] or [all_pairs[0]]
        want = phase2_bruteforce_maxmin(pools, pairs)
        got, alloc = solve_phase2_maxmin(pools, pairs)
        assert got == want, f"trial {trial}: {pools}, {pairs}"
        if got > 0:
            _check_allocation(pools, pairs, got, alloc)


def test_maxmin_deterministic(rng):
    pools = rng.integers(0, 10, size=(3, 4))
    pairs = _pair_list(4)
    first = solve_phase2_maxmin(pools, pairs)
    second = solve_phase2_maxmin(pools, pairs)
    assert first[0] == second[0]
    assert np.array_equal(first[1], second[1])


def test_maxmin_empty_pairs():
    floor_value, alloc = solve_phase2_maxmin(np.array([[5]]), [])
    assert floor_value == 0
    assert alloc.shape == (1, 0)


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 8, 9, 10_000_001])
def test_maxmin_symmetric_triple_halves_each_pool(c):
    # with one satellite and equal pools over three stations, each pool C
    # splits across the station's two incident pairs, so the fair floor is
    # floor(C/2) regardless of parity; the ten-million pool asks for the exact
    # floor where a relative gap of 1e-4 would excuse being 500 bits short
    pools = np.array([[c, c, c]])
    pairs = _pair_list(3)
    floor_value, alloc = solve_phase2_maxmin(pools, pairs)
    assert floor_value == c // 2
    _check_allocation(pools, pairs, floor_value, alloc)


# -------------------------------------------------------------- iteration

def test_iterate_single_live_pair_gets_everything():
    pools = np.array([[10, 10, 0]])
    out = iterate_phase2(pools, _pair_list(3))
    assert out.totals.tolist() == [10, 0, 0]
    assert out.rounds == [{"floor": 10, "active_pairs": 1}]
    assert out.totals.min() == 0
    assert out.totals.sum() == 10


def test_iterate_surplus_beyond_fair_floor():
    # the weak pairs cap the fair floor at one bit, yet the rich pair keeps
    # collecting afterwards, so the grand total far exceeds pairs * floor
    pools = np.array([[10, 10, 2]])
    pairs = _pair_list(3)
    out = iterate_phase2(pools, pairs)
    assert out.totals.min() == 1
    assert out.totals.min() == phase2_bruteforce_maxmin(pools, pairs)
    assert out.totals[pairs.index((0, 2))] == 1 and out.totals[pairs.index((1, 2))] == 1
    assert out.totals.sum() == 11
    assert out.totals.sum() > len(pairs) * out.totals.min()


def test_iterate_stops_at_zero_progress():
    # the round lifts every pair to 2 and, at that floor, spends the slack
    # on one pair (2+2+3 = 7 of the 7.5 bits the pools allow); what is left
    # cannot lift any pair, so that one round is the whole allocation
    pools = np.array([[5, 5, 5]])
    pairs = _pair_list(3)
    out = iterate_phase2(pools, pairs)
    assert out.rounds == [{"floor": 2, "active_pairs": 3}]
    assert tuple(sorted(out.totals.tolist())) == (2, 2, 3)
    assert tuple(sorted(out.totals.tolist())) == _lex_maxmin_oracle(pools, pairs)


def test_iterate_totals_cover_first_floor(rng):
    # the round's floor is exactly the min total over pairs that had any
    # joint capacity to begin with
    for _ in range(25):
        n_sats = int(rng.integers(1, 4))
        n_stations = int(rng.integers(2, 5))
        pools = rng.integers(0, 13, size=(n_sats, n_stations))
        pairs = _pair_list(n_stations)
        live = [u for u in pairs
                if any(min(pools[s, u[0]], pools[s, u[1]]) > 0
                       for s in range(n_sats))]
        out = iterate_phase2(pools, pairs)
        if not live:
            assert out.rounds == []
            continue
        first = phase2_bruteforce_maxmin(pools, live)
        if first == 0:
            assert out.rounds == []
            continue
        assert out.rounds[0]["floor"] == first
        assert min(out.totals[pairs.index(u)] for u in live) == first


def test_iterate_respects_pool_budgets(rng):
    for _ in range(20):
        pools = rng.integers(0, 12, size=(2, 4))
        out = iterate_phase2(pools, _pair_list(4))
        assert np.all(_loads(out.bits, out.pairs, pools.shape) <= pools)
        assert out.totals.sum() == out.bits.sum()


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_round_leaves_no_pair_joint_residual_capacity(data):
    """After the one round, no pair can take one more bit through any
    satellite, so a residual re-solve would have no live pair; without a
    round, the pairs that could receive bits have a max-min floor of zero."""
    n_sats, n_stations = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 5))
    top = data.draw(st.sampled_from([3, 12, 1000, 10**7]))
    pools = np.array(data.draw(st.lists(st.integers(0, top), min_size=n_sats * n_stations,
                                        max_size=n_sats * n_stations)),
                     dtype=np.int64).reshape(n_sats, n_stations)
    pairs = _pair_list(n_stations)
    out = iterate_phase2(pools, pairs)
    resid = pools - _loads(out.bits, pairs, pools.shape)
    assert np.all(resid >= 0)
    if out.rounds:
        assert len(out.rounds) == 1
        assert not np.any(joint_capacity(resid, pairs) > 0)
    else:
        assert not out.bits.any()
        live = [u for u, ok in zip(pairs, (joint_capacity(pools, pairs) > 0).any(axis=0))
                if ok]
        assert not live or solve_phase2_maxmin(pools, live)[0] == 0


def _lex_maxmin_oracle(pools, pairs):
    """Best sorted-totals tuple over every integral allocation, by DFS."""
    n_sats = pools.shape[0]
    cells = [(u, s) for u in pairs for s in range(n_sats)
             if min(pools[s, u[0]], pools[s, u[1]]) > 0]
    resid = pools.astype(np.int64).copy()
    totals = dict.fromkeys(pairs, 0)
    best = [tuple(sorted(totals.values()))]

    def walk(i):
        if i == len(cells):
            key = tuple(sorted(totals.values()))
            if key > best[0]:
                best[0] = key
            return
        (a, b), s = cells[i]
        for v in range(int(min(resid[s, a], resid[s, b])) + 1):
            resid[s, a] -= v
            resid[s, b] -= v
            totals[(a, b)] += v
            walk(i + 1)
            resid[s, a] += v
            resid[s, b] += v
            totals[(a, b)] -= v

    walk(0)
    return best[0]


def test_iterate_profile_versus_lexicographic_oracle(rng):
    # whether the round-by-round re-solve attains the full lexicographic
    # optimum is an open point; the floor must match and the profile can
    # never beat the oracle, while full agreement is only reported
    matches, trials = 0, 12
    for _ in range(trials):
        n_sats = int(rng.integers(1, 3))
        pools = rng.integers(0, 5, size=(n_sats, 3))
        pairs = _pair_list(3)
        oracle = _lex_maxmin_oracle(pools, pairs)
        out = iterate_phase2(pools, pairs)
        mine = tuple(sorted(out.totals.tolist()))
        assert mine[0] == oracle[0]
        assert mine <= oracle
        matches += mine == oracle
    print(f"lexicographic optimum matched on {matches}/{trials} instances")


# ---------------------------------------------------------------- baselines

def _slot_matchings(rows):
    """All ways to serve a slot with unit transmit and receive capacity."""
    out = []
    for r in range(len(rows) + 1):
        for combo in itertools.combinations(range(len(rows)), r):
            sats = [rows[i][0] for i in combo]
            stations = [rows[i][1] for i in combo]
            if len(set(sats)) == len(combo) and len(set(stations)) == len(combo):
                out.append(combo)
    return out


def _bruteforce_joint(table, pairs):
    """Exhaust every schedule, then allocate optimally on its pools.

    Distinct schedules often pool the same bits, so the inner allocation
    oracles run once per unique pool matrix.
    """
    shape = (table.n_sats, table.n_stations)
    contribs = []
    for t in sorted(set(table.slot.tolist())):
        idx = np.flatnonzero(table.slot == t)
        rows = [(int(table.sat[i]), int(table.station[i]),
                 float(table.key_bits[i])) for i in idx]
        options = []
        for combo in _slot_matchings(rows):
            raw = np.zeros(shape)
            for i in combo:
                s, g, bits = rows[i]
                raw[s, g] += bits
            options.append(raw)
        contribs.append(options)
    unique = {}
    for choice in itertools.product(*contribs):
        pools = np.floor(sum(choice)).astype(int)
        unique[pools.tobytes()] = pools
    best_min, best_sum = 0, 0
    for pools in unique.values():
        best_min = max(best_min, phase2_bruteforce_maxmin(pools, pairs))
        best_sum = max(best_sum, phase2_bruteforce_maxsum(pools, pairs))
    return best_min, best_sum


def test_baseline_matches_joint_bruteforce(rng):
    for trial in range(6):
        rows = []
        for t in range(3):
            for s in range(2):
                for g in range(3):
                    if rng.random() < 0.75:
                        bits = float(rng.integers(0, 5))
                        if bits > 0:
                            rows.append((t, s, g, bits + 0.5 * (trial % 2)))
        if not rows:
            continue
        table = make_table(3, 2, 3, rows)
        pairs = station_pairs(3)
        want_min, want_sum = _bruteforce_joint(table, pairs)
        got_min = solve_baseline(table, "maxmin")
        got_sum = solve_baseline(table, "maxsum")
        assert got_min.milp.status == "optimal"
        assert got_min.allocation.totals.min() == want_min, f"trial {trial}"
        assert got_sum.allocation.totals.sum() == want_sum, f"trial {trial}"


def test_baseline_allocation_consistent_with_schedule(rng):
    table = random_table(rng, n_slots=6, n_sats=2, n_stations=3, scale=6.0)
    result = solve_baseline(table, "maxmin")
    pools = result.schedule.key_pool
    loads = _loads(result.allocation.bits, result.allocation.pairs, pools.shape)
    assert np.all(loads <= pools)
    assert result.milp.gap == 0.0


def test_baseline_budget_exhausted_reports_honestly(rng):
    # a zero budget can never find an incumbent: the result must say so
    # rather than dress up a heuristic answer as solver output
    table = random_table(rng, n_slots=8, n_sats=2, n_stations=3, scale=8.0)
    starved = solve_baseline(table, "maxmin", max_nodes=0)
    assert starved.milp.status == "budget_exceeded"
    assert starved.milp.objective is None
    assert np.isinf(starved.milp.gap)
    assert len(starved.schedule.slot) == 0
    assert not starved.schedule.key_pool.any()
    assert not starved.allocation.totals.any()
    assert starved.schedule.metadata["milp_status"] == "budget_exceeded"
    assert starved.schedule.metadata["milp_gap"] is None
    full = solve_baseline(table, "maxmin")
    assert full.milp.status == "optimal"
    assert full.milp.gap == 0.0


def test_spent_node_budget_keeps_incumbent_and_gap():
    table = make_table(5, 2, 3, BRANCHING_DESK_ROWS)
    full = solve_baseline(table, "maxmin")
    assert full.milp.status == "optimal" and full.milp.nodes > 1
    capped = solve_baseline(table, "maxmin", max_nodes=1)
    assert capped.milp.status == "budget_exceeded"
    assert capped.milp.nodes == 1
    assert capped.milp.objective <= full.milp.objective
    assert 0.0 <= capped.milp.gap < np.inf
    assert capped.schedule.metadata["milp_status"] == "budget_exceeded"
    assert capped.schedule.metadata["milp_gap"] == capped.milp.gap
    # the incumbent is a feasible schedule and allocation
    pools = capped.schedule.key_pool
    loads = _loads(capped.allocation.bits, capped.allocation.pairs, pools.shape)
    assert np.all(loads <= pools)
    assert capped.allocation.totals.min() == capped.milp.objective


def test_spent_budget_gap_is_integral():
    # HiGHS's bound reads 7.999999999999998 here; every baseline objective is
    # integral, so the bound is floored before the incumbent 7 is taken off
    capped = solve_baseline(make_table(5, 2, 3, BRANCHING_DESK_ROWS), "maxmin", max_nodes=1)
    assert capped.milp.status == "budget_exceeded" and capped.milp.objective == 7.0
    assert capped.milp.gap == 1.0
    assert capped.schedule.metadata["milp_gap"] == 1.0


@pytest.mark.parametrize("max_nodes, nodes", [(None, 3), (5, 3)])
def test_unrecognized_solver_status_still_raises(monkeypatch, max_nodes, nodes):
    # status 4 counts as a spent budget only where the node budget was reached
    import qkdsched.alloc as alloc_mod

    def failed(*args, **kwargs):
        return OptimizeResult(status=4, message="HiGHS failed", x=None, fun=None,
                              mip_node_count=nodes, mip_dual_bound=None)

    monkeypatch.setattr(alloc_mod, "milp", failed)
    instance = build_baseline_instance(make_table(1, 1, 2, [(0, 0, 0, 1.0)]))
    with pytest.raises(RuntimeError, match="HiGHS failed"):
        branch_and_bound(instance, max_nodes=max_nodes)


def test_branch_and_bound_turns_feasibility_jump_off(monkeypatch):
    import qkdsched.alloc as alloc_mod

    seen = []

    def capture(*args, options=None, **kwargs):
        seen.append(dict(options))
        return milp(*args, options=options, **kwargs)

    monkeypatch.setattr(alloc_mod, "milp", capture)
    assert solve_phase2_maxmin(np.array([[3, 3]]), [(0, 1)])[0] == 3
    solve_baseline(make_table(1, 1, 2, [(0, 0, 0, 1.0)]), max_nodes=7)
    assert len(seen) == 3 and seen[2]["node_limit"] == 7
    for options in seen:
        assert options["mip_heuristic_run_feasibility_jump"] is False
        assert options["mip_rel_gap"] == 0.0


def _default_highs_optimum(instance):
    """Optimum of the instance from scipy.optimize.milp with default options.
    Every objective here is integral and far below 1e4, so the default
    relative gap of 1e-4 proves it exactly."""
    res = milp(-instance.objective, integrality=instance.integer.astype(int),
               bounds=Bounds(instance.lower, instance.upper),
               constraints=[LinearConstraint(instance.a_ub, -np.inf, instance.b_ub)])
    assert res.status == 0, res.message
    assert -res.fun == pytest.approx(round(-res.fun), abs=1e-6)
    return int(round(-res.fun))


def test_objectives_equal_default_highs(rng):
    # desk tables as the benchmark draws them: 2 satellites x 3 stations,
    # 4-5 slots, density 0.6, key bits below 8
    pairs = station_pairs(3)
    served = 0
    for trial in range(50):
        table = random_table(rng, n_slots=int(rng.integers(4, 6)), n_sats=2,
                             n_stations=3, density=0.6, scale=8.0)
        pools = run_greedy(table).key_pool
        got = iterate_phase2(pools, pairs)
        live = [u for u, c in zip(pairs, joint_capacity(pools, pairs).any(axis=0)) if c]
        instance = reference_phase2_instance(pools, live)
        floor_value = _default_highs_optimum(instance) if instance else 0
        assert (got.rounds[0]["floor"] if got.rounds else 0) == floor_value, trial
        if floor_value:
            served += 1
            n_y = instance.n_vars - 1
            total = _default_highs_optimum(replace(
                instance, objective=np.append(np.ones(n_y), 0.0),
                lower=np.append(np.zeros(n_y), floor_value)))
            assert got.bits.sum() == total, trial
        for objective in ("maxmin", "maxsum"):
            result = solve_baseline(table, objective)
            want = _default_highs_optimum(reference_baseline_instance(table, objective))
            assert result.milp.status == "optimal"
            assert result.milp.objective == pytest.approx(want, abs=1e-6), trial
            totals = result.allocation.totals
            assert (totals.min() if objective == "maxmin" else totals.sum()) == want
    assert served >= 25   # most trials reach the tie-rule solve


def test_baseline_rejects_unknown_objective(rng):
    table = random_table(rng, n_slots=2, n_sats=1, n_stations=2)
    with pytest.raises(ValueError, match="maxmin"):
        solve_baseline(table, "fair")


def test_baseline_deterministic(rng):
    table = random_table(rng, n_slots=6, n_sats=2, n_stations=3, scale=5.0)
    a = solve_baseline(table, "maxsum")
    b = solve_baseline(table, "maxsum")
    assert np.array_equal(a.schedule.slot, b.schedule.slot)
    assert np.array_equal(a.schedule.sat, b.schedule.sat)
    assert np.array_equal(a.schedule.station, b.schedule.station)
    assert np.array_equal(a.allocation.bits, b.allocation.bits)


def test_maxsum_serves_dominant_link_every_feasible_slot():
    # station 1 banks plenty on even slots, so on odd slots the pair total
    # min(K0, K1) grows only by feeding station 0: the big odd-slot link is
    # strictly better than its 1-bit rival and must be taken every time
    rows = [(t, 0, 1, 50.0) for t in (0, 2, 4)]
    rows += [(t, 0, 0, 10.0) for t in (1, 3, 5)]
    rows += [(t, 0, 1, 1.0) for t in (1, 3, 5)]
    table = make_table(6, 1, 2, rows)
    result = solve_baseline(table, "maxsum")
    assert result.milp.status == "optimal"
    served = set(zip(result.schedule.slot.tolist(),
                     result.schedule.station.tolist()))
    assert {(1, 0), (3, 0), (5, 0)} <= served
    assert result.allocation.totals[result.allocation.pairs.index((0, 1))] == 30


def test_baseline_upper_bounds_heuristics(rng):
    # exactness makes the baselines envelopes over any heuristic schedule
    for _ in range(5):
        table = random_table(rng, n_slots=6, n_sats=2, n_stations=3, scale=6.0)
        pairs = station_pairs(3)
        heur = iterate_phase2(run_greedy(table).key_pool, pairs)
        maxmin = solve_baseline(table, "maxmin", pairs=pairs)
        maxsum = solve_baseline(table, "maxsum", pairs=pairs)
        assert maxmin.milp.status == maxsum.milp.status == "optimal"
        assert maxmin.allocation.totals.min() >= heur.totals.min()
        assert maxsum.allocation.totals.sum() >= heur.totals.sum()


# ---------------------------------------------------------------- LP export

def _parse_lp(text):
    """Minimal reader for the exported subset of the LP format."""
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith("\\")]
    section = None
    objective, rows, bounds = {}, [], {}
    binaries, generals = [], []
    for line in lines:
        token = line.strip()
        if token in ("Maximize", "Subject To", "Bounds", "Binaries",
                     "Generals", "End"):
            section = token
            continue
        if section == "Maximize":
            objective = _parse_terms(token.split(":", 1)[1])
        elif section == "Subject To":
            name, rest = token.split(":", 1)
            lhs, rhs = rest.rsplit("<=", 1)
            rows.append((name.strip(), _parse_terms(lhs), float(rhs)))
        elif section == "Bounds":
            lo, name, hi = token.split("<=")
            hi = np.inf if hi.strip() == "+inf" else float(hi)
            bounds[name.strip()] = (float(lo), hi)
        elif section == "Binaries":
            binaries.append(token)
        elif section == "Generals":
            generals.append(token)
    return objective, rows, bounds, binaries, generals


def _parse_terms(text):
    terms = {}
    sign, coef = 1.0, None
    for token in text.split():
        if token == "+":
            sign, coef = 1.0, None
        elif token == "-":
            sign, coef = -1.0, None
        else:
            try:
                coef = float(token)
            except ValueError:
                terms[token] = terms.get(token, 0.0) + sign * (
                    coef if coef is not None else 1.0)
                sign, coef = 1.0, None
    return terms


def _instance_from_parse(parsed, name="parsed"):
    objective, rows, bounds, binaries, generals = parsed
    names = list(bounds)
    pos = {n: i for i, n in enumerate(names)}
    c = np.zeros(len(names))
    for n, v in objective.items():
        c[pos[n]] = v
    from scipy import sparse
    ri, ci, data, b_ub, row_names = [], [], [], [], []
    for r, (rname, terms, rhs) in enumerate(rows):
        for n, v in terms.items():
            ri.append(r); ci.append(pos[n]); data.append(v)
        b_ub.append(rhs)
        row_names.append(rname)
    lower = np.array([bounds[n][0] for n in names])
    upper = np.array([bounds[n][1] for n in names])
    integer = np.array([n in binaries or n in generals for n in names])
    return MilpInstance(
        name=name, objective=c,
        a_ub=sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), len(names))),
        b_ub=np.array(b_ub), lower=lower, upper=upper, integer=integer,
        var_names=names, row_names=row_names,
    )


def test_lp_export_round_trips_to_same_optimum(rng, tmp_path):
    table = random_table(rng, n_slots=5, n_sats=2, n_stations=3, scale=6.0)
    for objective in ("maxmin", "maxsum"):
        instance = build_baseline_instance(table, objective)
        path = tmp_path / f"{objective}.lp"
        export_lp(instance, path)
        text = path.read_text()
        parsed = _instance_from_parse(_parse_lp(text))
        assert parsed.var_names == list(instance.var_names)
        direct = branch_and_bound(instance)
        reread = branch_and_bound(parsed)
        assert direct.status == reread.status == "optimal"
        assert direct.objective == pytest.approx(reread.objective, abs=1e-9)


def test_lp_export_deterministic_bytes(rng, tmp_path):
    table = random_table(rng, n_slots=4, n_sats=2, n_stations=3)
    instance = build_baseline_instance(table, "maxmin")
    first, second = tmp_path / "a.lp", tmp_path / "b.lp"
    export_lp(instance, first)
    export_lp(instance, second)
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert text.splitlines()[1] == "Maximize"
    assert " obj: z" in text
    assert text.rstrip().endswith("End")


def test_export_only_mode_writes_file_without_solving(rng, tmp_path):
    table = random_table(rng, n_slots=4, n_sats=2, n_stations=3)
    path = tmp_path / "model.lp"
    result = solve_baseline(table, "maxmin", max_nodes=0, export_path=path)
    assert result.milp.status == "exported"
    assert len(result.schedule.slot) == 0
    assert path.exists() and path.read_text().startswith("\\ baseline_maxmin")


def test_lp_export_without_constraints_is_still_valid(tmp_path):
    from scipy import sparse
    instance = MilpInstance(
        name="hollow", objective=np.array([1.0, 1.0]),
        a_ub=sparse.csr_matrix((0, 2)), b_ub=np.zeros(0),
        lower=np.zeros(2), upper=np.array([3.0, 3.0]),
        integer=np.ones(2, dtype=bool),
        var_names=["v0", "v1"], row_names=[],
    )
    path = tmp_path / "hollow.lp"
    export_lp(instance, path)
    lines = path.read_text().splitlines()
    for section in ("Maximize", "Subject To", "Bounds", "Generals", "End"):
        assert section in lines
    parsed = _instance_from_parse(_parse_lp(path.read_text()), name="hollow")
    assert parsed.a_ub.shape == (0, 2)
    solved = branch_and_bound(parsed)
    assert solved.status == "optimal"
    assert solved.objective == pytest.approx(6.0)


def test_program_without_variables_solves_and_exports(tmp_path):
    # a table the cloud filter empties leaves maxsum without a variable
    table = make_table(4, 2, 3, [])
    instance = build_baseline_instance(table, "maxsum")
    assert instance.n_vars == 0
    result = branch_and_bound(instance)
    assert (result.status, result.objective, result.gap) == ("optimal", 0.0, 0.0)
    path = tmp_path / "empty.lp"
    export_lp(instance, path)
    parsed = _instance_from_parse(_parse_lp(path.read_text()), name="empty")
    assert parsed.n_vars == 0
    assert parsed.a_ub.shape == (0, 0)
    assert branch_and_bound(parsed).status == "optimal"
    baseline = solve_baseline(table, "maxsum", export_path=path)
    assert baseline.milp.status == "optimal"
    assert baseline.allocation.totals.tolist() == [0, 0, 0]


def test_small_knapsack_sanity():
    # maximize x0 + x1 + x2 with 3 x0 + 3 x1 + 3 x2 <= 7: LP says 7/3,
    # integers say 2; exercises the solver's integrality handling directly
    from scipy import sparse
    instance = MilpInstance(
        name="knap", objective=np.ones(3),
        a_ub=sparse.csr_matrix(np.full((1, 3), 3.0)), b_ub=np.array([7.0]),
        lower=np.zeros(3), upper=np.full(3, 5.0),
        integer=np.ones(3, dtype=bool),
        var_names=["v0", "v1", "v2"], row_names=["cap"],
    )
    result = branch_and_bound(instance)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(2.0)
    assert result.gap == 0.0
    assert np.sum(result.values) == pytest.approx(2.0)
    # the LP optimum 7/3 rounds down to 2, so the search closes after a
    # handful of nodes rather than the full 6**3 box
    assert result.nodes <= 25


# ------------------------------------------ instances against loop builders

def _random_pools_and_pairs(rng, trial):
    n_sats, n_stations = int(rng.integers(1, 4)), int(rng.integers(2, 6))
    pools = rng.integers(0, 9, size=(n_sats, n_stations))
    pools[rng.random(pools.shape) < 0.3] = 0
    pairs = _pair_list(n_stations)
    if trial % 3:   # a random subset of the pairs
        keep = rng.random(len(pairs)) < 0.7
        pairs = [u for u, k in zip(pairs, keep) if k] or pairs[:1]
    if trial % 5 == 0:   # every pair live, so both solves run
        pools = pools + 1
    return pools, pairs


def test_phase2_instance_matches_loop_reference(rng, monkeypatch):
    import qkdsched.alloc as alloc_mod

    seen = []
    solve = alloc_mod.branch_and_bound

    def capture(instance, max_nodes=None):
        seen.append(instance)
        return solve(instance, max_nodes)

    monkeypatch.setattr(alloc_mod, "branch_and_bound", capture)
    built = 0
    cases = [_random_pools_and_pairs(rng, trial) for trial in range(25)]
    # a pair with no joint capacity skips the round; a zero pool is no row
    cases.append((np.array([[3, 0, 2], [0, 4, 0]]), [(0, 1), (0, 2)]))
    cases.append((np.array([[3, 0, 2], [0, 4, 5]]), [(0, 2), (1, 2)]))
    for pools, pairs in cases:
        seen.clear()
        floor_value, _ = solve_phase2_maxmin(pools, pairs)
        want = reference_phase2_instance(pools, pairs)
        if want is None:
            assert seen == [] and floor_value == 0
            continue
        built += 1
        assert_same_instance(seen[0], want)
        if floor_value:
            n_y = want.n_vars - 1
            assert_same_instance(seen[1], replace(
                want, name="phase2_maxsum_at_floor",
                objective=np.append(np.ones(n_y), 0.0),
                lower=np.append(np.zeros(n_y), float(floor_value))))
        else:
            assert len(seen) == 1
    assert built >= 10


@pytest.mark.parametrize("objective", ["maxmin", "maxsum"])
def test_baseline_instance_matches_loop_reference(rng, objective):
    for trial in range(25):
        n_sats, n_stations = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        table = random_table(rng, n_slots=int(rng.integers(1, 6)), n_sats=n_sats,
                             n_stations=n_stations, density=0.5, scale=6.0)
        if trial % 2:
            table.transmitters = rng.integers(1, 3, size=n_sats)
            table.receivers = rng.integers(1, 3, size=n_stations)
            table.sat_ids = 10 + 3 * np.arange(n_sats)
            table.station_ids = 100 + 7 * np.arange(n_stations)[::-1]
        pairs = None if trial % 3 else station_pairs(n_stations)[::-1]
        assert_same_instance(build_baseline_instance(table, objective, pairs),
                             reference_baseline_instance(table, objective, pairs))
    # station 2 sees no satellite that 0 or 1 sees, and one link has 0 bits
    table = make_table(2, 2, 3, [(0, 0, 0, 2.5), (0, 1, 2, 3.0), (1, 0, 1, 0.0),
                                 (1, 0, 0, 1.0), (1, 1, 2, 0.5)])
    got = build_baseline_instance(table, objective)
    assert_same_instance(got, reference_baseline_instance(table, objective))
    if objective == "maxmin":
        assert got.upper[-1] == 0.0
