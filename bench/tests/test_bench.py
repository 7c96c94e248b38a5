"""Tests of the benchmark's own machinery: checker, span arithmetic, inputs.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import gen
import run
import spans
from qkdsched import cli
from qkdsched.channel import EstimateTable

ROOT = Path(__file__).resolve().parents[2]


def small_table(transmitters=None, receivers=None):
    # slot 0: sat 0 sees stations 0 and 1; slot 1: sat 1 sees station 1
    rows = [(0, 0, 0, 2.5), (0, 0, 1, 1.5), (1, 1, 1, 3.25)]
    arr = np.array(rows)
    return EstimateTable(
        n_slots=2, n_sats=2, n_stations=2,
        slot=arr[:, 0].astype(np.int64), sat=arr[:, 1].astype(np.int64),
        station=arr[:, 2].astype(np.int64), transmissivity=np.zeros(3),
        successes=arr[:, 3], qber=np.zeros(3), rate=np.ones(3), cloud=np.zeros(3),
        key_bits=arr[:, 3], transmitters=transmitters, receivers=receivers)


def test_capacity_violation_rejected():
    est = checks.Estimates(small_table())
    assert checks.check_schedule(est, [(0, 0, 0), (1, 1, 1)]) == []
    problems = checks.check_schedule(est, [(0, 0, 0), (0, 0, 1)])
    assert any("satellite 0 serves 2 links in slot 0" in p for p in problems)
    wide = checks.Estimates(small_table(transmitters=np.array([2, 1])))
    assert checks.check_schedule(wide, [(0, 0, 0), (0, 0, 1)]) == []


def test_unknown_triple_rejected():
    est = checks.Estimates(small_table())
    assert checks.check_schedule(est, [(1, 0, 0)])


def test_pool_off_by_one_rejected():
    est = checks.Estimates(small_table())
    schedule = [(0, 0, 0), (1, 1, 1)]
    assert checks.check_pools(est, schedule, {(0, 0): 2, (1, 1): 3}) == []
    assert checks.check_pools(est, schedule, {(0, 0): 3, (1, 1): 3})
    assert checks.check_pools(est, schedule, {(0, 0): 2, (1, 1): 2})


def test_allocation_beyond_pool_rejected():
    pools = {(0, 0): 2, (0, 1): 5}
    assert checks.check_allocation(pools, [(0, 0, 1, 2)]) == []
    assert checks.check_allocation(pools, [(0, 0, 1, 3)])


def test_phase2_floor_matches_hand_solution():
    # one satellite pooling 4 bits with each of three stations: the three
    # pairs share the pools, so the best common floor is 2
    pools = {(0, 1): 4, (0, 2): 4, (0, 3): 4}
    assert checks.phase2_floor(pools, [1, 2, 3]) == 2
    assert checks.phase2_floor({(0, 1): 4}, [1, 2]) == 0


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk")
    table = tmp / "table.csv"
    gen.write_desk_table(table, np.random.default_rng(7))
    out = tmp / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["run", "--table", str(table), "--schedulers",
                       "greedy,maxmin,maxsum", "--out", str(out)])
    assert rc == 0
    return table, out


def test_real_artifacts_pass(desk_run):
    table, out = desk_run
    est = checks.load_estimates(["run", "--table", str(table), "--out", str(out)])
    for name in ("greedy", "maxmin", "maxsum"):
        assert checks.check_scheduler(est, out / name, name) == []


@pytest.mark.parametrize("name", ["maxmin", "maxsum"])
def test_wrong_baseline_objective_rejected(desk_run, tmp_path, name):
    table, out = desk_run
    sub = tmp_path / name
    sub.mkdir()
    for f in (out / name).iterdir():
        (sub / f.name).write_bytes(f.read_bytes())
    report = json.loads((sub / "report.json").read_text())
    report["pair_keys"] = {k: v + 1 for k, v in report["pair_keys"].items()}
    (sub / "report.json").write_text(json.dumps(report))
    est = checks.load_estimates(["run", "--table", str(table)])
    problems = checks.check_scheduler(est, sub, name)
    assert any("reference milp" in p for p in problems)


def test_self_time_on_hand_built_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.5, 1],
        ["b", 5.0, 9.0, 0],
        ["b.child", 5.0, 6.0, 3],
        ["b.child", 8.0, 9.0, 3],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 1.5, 2.0, 1.0, 1.0])
    agg = spans.aggregate(tree)
    assert agg["b.child"] == {"calls": 2, "s": pytest.approx(2.0),
                              "self_s": pytest.approx(2.0)}
    assert spans.time_under(tree, "a.child", "a") == pytest.approx(1.5)
    assert spans.time_under(tree, "b.child", "a") == 0.0


def test_tracer_records_nesting_and_restores():
    import qkdsched.sched as sched
    original = sched.solve_assignment
    tracer = spans.Tracer()
    tracer.wrap("qkdsched.sched", "solve_assignment", "assign.solve")
    root = tracer.begin("cli.main")
    sched.solve_assignment(sched.WeightMatrix(weights=np.eye(2)))
    tracer.end(root)
    tracer.unwrap_all()
    assert sched.solve_assignment is original
    assert [s[0] for s in tracer.spans] == ["cli.main", "assign.solve"]
    assert tracer.spans[1][3] == 0


def tree_bytes(base: Path) -> dict:
    return {p.relative_to(base): p.read_bytes() for p in base.rglob("*") if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_byte_deterministic(tmp_path, workload):
    for k, seed in enumerate((5, 5, 6)):
        gen.make_plan(workload, seed, ROOT, tmp_path / str(k))
    first, again, other = (tree_bytes(tmp_path / str(k) / "inputs") for k in range(3))
    assert first == again
    # only the desk tables follow the seed (see gen.GLOBAL_CLOUD_SEED)
    assert (first != other) == (workload == "desk_exact")


def test_clouds_drop_some_station_every_hour(tmp_path):
    path = tmp_path / "clouds.csv"
    gen.write_clouds(path, list(range(1, 12)), np.random.default_rng(3))
    rows = [line.split(",")[2:] for line in path.read_text().splitlines()[1:]]
    values = np.array(rows, dtype=float)
    assert ((values > gen.FILTER_THRESHOLD).sum(axis=0) == 1).all()


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == gen.WHY
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == spans.LAYER_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
