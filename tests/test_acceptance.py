"""Top-level acceptance checks, one test per release criterion.

Each test prints a single PASS line with the measured figure next to its
threshold (visible with ``pytest -s``), so a release run reads as a
checklist. Tolerances are stated inline and deliberately not imported from
the library under test.
"""

import itertools
import time
from pathlib import Path

import numpy as np

from qkdsched.alloc import (
    iterate_phase2,
    solve_baseline,
    solve_phase2_maxmin,
    station_pairs,
)
from qkdsched.assign import WeightMatrix, assignment_value, solve_assignment
from qkdsched.channel import atmospheric_transmissivity, binary_entropy, key_rate
from qkdsched.cli import main
from qkdsched.metrics import choice_histograms
from qkdsched.orbit import build_visibility, usable_slot_counts
from qkdsched.scenario import load_scenario
from qkdsched.sched import derive_min_rates, run_greedy, run_opportunistic, run_rr
from qkdsched.weather import apply_filter, cloud_matrix, load_clouds

from conftest import (
    bisect_root,
    make_table,
    phase2_bruteforce_maxmin,
    random_table,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

_PERM_CACHE = {}


def _perm_array(n_rows, n_cols):
    key = (n_rows, n_cols)
    if key not in _PERM_CACHE:
        _PERM_CACHE[key] = np.array(
            list(itertools.permutations(range(n_cols), n_rows)), dtype=np.int64)
    return _PERM_CACHE[key]


def _bruteforce_best(weights, maximize):
    """Optimal complete matching by vectorised permutation scan.

    Permutations enumerate in lexicographic column order, so on value ties
    the first hit is the lexicographically smallest map, the same order the
    solver promises.
    """
    n_rows, n_cols = weights.shape
    perms = _perm_array(n_rows, n_cols)
    vals = weights[np.arange(n_rows), perms].sum(axis=1)
    best = vals.max() if maximize else vals.min()
    mask = np.abs(vals - best) <= 1e-9
    return float(best), tuple(perms[int(np.flatnonzero(mask)[0])])


def test_criterion_1_assignment_exactness():
    rng = np.random.default_rng(20240815)
    t0 = time.perf_counter()
    checked = 0
    for trial in range(1000):
        n_rows = int(rng.integers(1, 8))
        n_cols = int(rng.integers(n_rows, 8))
        maximize = bool(rng.integers(0, 2))
        if trial % 2:
            weights = rng.uniform(-10.0, 10.0, size=(n_rows, n_cols))
            exact_map = False
        else:
            # coarse integer weights force ties, exercising the promised
            # lexicographic tie-break against the oracle's scan order
            weights = rng.integers(0, 5, size=(n_rows, n_cols)).astype(float)
            exact_map = True
        want_val, want_map = _bruteforce_best(weights, maximize)
        got = solve_assignment(WeightMatrix(weights), maximize=maximize)
        got_val = assignment_value(WeightMatrix(weights), got)
        assert abs(got_val - want_val) <= 1e-9
        if exact_map:
            assert tuple(int(j) for j in got) == want_map
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 1000
    assert elapsed < 5.0
    print(f"criterion 1 PASS: assignment equals brute force on "
          f"{checked}/1000 matrices up to 7x7 in {elapsed:.2f}s (< 5s)")


def test_criterion_2_phase2_exactness():
    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(200):
        n_sats = int(rng.integers(1, 4))
        n_stations = int(rng.integers(2, 5))
        pools = rng.integers(0, 13, size=(n_sats, n_stations))
        pairs = station_pairs(n_stations)
        floor_value, _ = solve_phase2_maxmin(pools, pairs)
        if floor_value != phase2_bruteforce_maxmin(pools, pairs):
            mismatches += 1
    assert mismatches == 0
    print("criterion 2 PASS: pairwise max-min floor equals enumeration on "
          "200/200 instances (|S|<=3, |G|<=4, pools<=12), zero mismatches")


def test_criterion_3_baseline_dominance():
    rng = np.random.default_rng(42)
    pairs = station_pairs(3)
    for trial in range(50):
        n_slots = int(rng.integers(5, 9))
        table = random_table(rng, n_slots=n_slots, n_sats=2, n_stations=3,
                             density=0.6, scale=8.0)
        schedules = {"rr": run_rr(table), "greedy": run_greedy(table)}
        for base, name in (("rr", "op-rr"), ("greedy", "op-greedy")):
            targets = derive_min_rates(schedules[base], table)
            schedules[name] = run_opportunistic(table, targets)
        maxmin = solve_baseline(table, "maxmin", pairs=pairs)
        maxsum = solve_baseline(table, "maxsum", pairs=pairs)
        assert maxmin.milp.status == "optimal"
        assert maxsum.milp.status == "optimal"
        for name, sched in schedules.items():
            heur = iterate_phase2(sched.key_pool, pairs)
            assert maxmin.allocation.totals.min() >= heur.totals.min(), (trial, name)
            assert maxsum.allocation.totals.sum() >= heur.totals.sum(), (trial, name)
    print("criterion 3 PASS: exact Max-Min/Max-Sum dominate RR, Greedy, "
          "Op-RR, Op-Greedy on 50/50 toy scenarios (integer comparison)")


def test_criterion_4_minimum_rate_guarantee():
    n_slots, worst = 100, np.inf
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        per_link = rng.uniform(2.0, 10.0, size=(3, 4))
        rows = [(t, s, g, per_link[s, g]) for t in range(n_slots)
                for s in range(3) for g in range(4)]
        table = make_table(n_slots, 3, 4, rows)
        targets = derive_min_rates(run_rr(table), table)
        op = run_opportunistic(table, targets, delta=0.01, max_passes=100)
        achieved = derive_min_rates(op, table)
        positive = targets > 0
        assert positive.any()
        shortfall = (achieved - targets)[positive].min()
        worst = min(worst, shortfall)
        assert shortfall >= -0.02, (seed, shortfall)
    print(f"criterion 4 PASS: stationary 3x4 channel meets every positive "
          f"rate target within 0.02 over 10 seeds (worst {worst:+.4f})")


def test_criterion_5_opportunistic_uplift():
    cells = [(s, g) for s in range(3) for g in range(4)]
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        table = random_table(rng, n_slots=200, n_sats=3, n_stations=4,
                             density=0.6, scale=10.0)
        rr = run_rr(table)
        op = run_opportunistic(table, derive_min_rates(rr, table))
        kept = sum(op.key_pool[c] >= rr.key_pool[c] for c in cells)
        assert kept >= 0.9 * len(cells), (seed, kept)
        assert op.key_pool.sum() > rr.key_pool.sum(), seed
    print("criterion 5 PASS: Op-RR keeps >= 90% of per-link pools at or "
          "above RR and strictly raises the total on 3/3 scenarios")


def test_criterion_6_channel_math():
    crossing = bisect_root(lambda e: 1.0 - 2.0 * binary_entropy(e), 0.05, 0.2)
    assert abs(crossing - 0.1104) <= 0.0005
    assert key_rate(crossing - 1e-4) > 0
    assert key_rate(crossing + 1e-4) == 0
    zenith = 0.7
    slant = atmospheric_transmissivity(zenith, 30.0)
    assert abs(slant - zenith ** 2) <= 1e-12
    print(f"criterion 6 PASS: rate zero crossing at {crossing:.6f} "
          f"(0.1104 +/- 0.0005); 30-degree transmissivity equals zenith^2 "
          f"to 1e-12")


def test_criterion_7_geometry_regression():
    scenario = load_scenario(SCENARIOS / "global_a500.ini")
    assert scenario.n_sats == 400 and scenario.n_stations == 11
    t0 = time.perf_counter()
    vis = build_visibility(scenario)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    mean_usable = float(usable_slot_counts(vis.slot, vis.sat, vis.n_sats).mean())
    assert 3537 * 0.85 <= mean_usable <= 3537 * 1.15
    support = max(k for k, m in choice_histograms(vis)["station"].items()
                  if m > 0)
    assert support >= 4
    print(f"criterion 7 PASS: global 20x20/A=500 day scanned in "
          f"{elapsed:.1f}s (<= 120s), mean usable slots {mean_usable:.0f} "
          f"(3537 +/- 15%), station choice support reaches {support}")


def test_criterion_8_filtering_semantics(tmp_path):
    clouds = tmp_path / "clouds.csv"
    header = "station_id,date," + ",".join(f"h{h:02d}" for h in range(24))
    clear = ",".join("0.0" for _ in range(24))
    overcast = ",".join("1.0" for _ in range(24))
    clouds.write_text(f"{header}\n1,2022-03-15,{clear}\n2,2022-03-15,{clear}\n"
                      f"3,2022-03-15,{overcast}\n")
    scenario = load_scenario(SCENARIOS / "toy_equator.ini")
    vis = build_visibility(scenario)
    matrix = cloud_matrix(load_clouds(clouds, date=scenario.time.epoch),
                          scenario)
    from qkdsched.channel import build_estimates
    table = build_estimates(scenario, vis, matrix)
    pairs = station_pairs(3)

    def run(tbl):
        sched = run_rr(tbl)
        return iterate_phase2(sched.key_pool, pairs)

    unfiltered = run(table)
    filtered = run(apply_filter(table, 0.8))
    # station index 2 sits under all-day full cloud
    assert filtered.totals[pairs.index((0, 2))] == 0
    assert filtered.totals[pairs.index((1, 2))] == 0
    assert filtered.totals.sum() > unfiltered.totals.sum()
    print(f"criterion 8 PASS: all-cloudy station ends at zero pairwise key "
          f"and filtering lifts total {unfiltered.totals.sum()} -> "
          f"{filtered.totals.sum()}")


def test_criterion_9_cli_determinism(tmp_path):
    clouds = tmp_path / "clouds.csv"
    header = "station_id,date," + ",".join(f"h{h:02d}" for h in range(24))
    clear = ",".join("0.1" for _ in range(24))
    patchy = ",".join("0.5" for _ in range(24))
    clouds.write_text(f"{header}\n1,2022-03-15,{clear}\n2,2022-03-15,{patchy}\n"
                      f"3,2022-03-15,{clear}\n")
    args = ["run", "--scenario", str(SCENARIOS / "toy_equator.ini"),
            "--clouds", str(clouds), "--schedulers", "rr,greedy,op-rr",
            "--dump-estimates"]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0

    def tree(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    first, second = tree(out1), tree(out2)
    assert first and first == second
    print(f"criterion 9 PASS: two identical CLI runs produced byte-identical "
          f"artifacts ({len(first)} files)")
