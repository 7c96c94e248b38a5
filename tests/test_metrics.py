"""Report assembly, exclusion rules, and histogram bookkeeping."""

import json

import numpy as np

from qkdsched.alloc import PairAllocation, iterate_phase2, joint_capacity, station_pairs
from qkdsched.metrics import (
    choice_histograms,
    summarize,
    write_allocation_csv,
    write_comparison_csv,
    write_pools_csv,
    write_report_json,
)
from qkdsched.sched import Schedule

from conftest import make_table, random_table, reference_choice_histograms


def _schedule(key_pool, n_sats=1, n_stations=3, metadata=None):
    count = 0
    return Schedule(
        n_slots=4, n_sats=n_sats, n_stations=n_stations,
        slot=np.zeros(count, dtype=np.int64), sat=np.zeros(count, dtype=np.int64),
        station=np.zeros(count, dtype=np.int64), key_pool=key_pool,
        metadata=metadata or {"scheduler": "test"},
    )


def test_joint_capacity_by_satellite():
    pool = np.array([[5, 3, 0], [2, 0, 4]])
    caps = joint_capacity(pool, station_pairs(3))
    assert caps.tolist() == [[3, 0, 0], [0, 2, 0]]
    assert caps.sum(axis=0).tolist() == [3, 2, 0]


def test_summarize_excludes_unreachable_pairs():
    pool = np.array([[5, 3, 0]])
    schedule = _schedule(pool)
    alloc = iterate_phase2(pool, station_pairs(3))
    report = summarize(schedule, alloc)
    assert report["excluded_pairs"] == ["0-2", "1-2"]
    assert report["min_key"] == 3       # min over the one reachable pair
    assert report["total_key"] == 3
    assert report["pool_total"] == 8
    assert report["pair_keys"]["0-1"] == 3


def test_summarize_all_pairs_dead():
    schedule = _schedule(np.array([[7, 0, 0]]))
    alloc = PairAllocation(pairs=station_pairs(3), bits=np.zeros((1, 3), dtype=np.int64))
    report = summarize(schedule, alloc)
    assert report["min_key"] == 0
    assert len(report["excluded_pairs"]) == 3


def test_choice_histograms_hand_count():
    table = make_table(3, 2, 3, [(0, 0, 0, 1.0), (0, 0, 1, 1.0), (1, 0, 0, 1.0)])
    hist = choice_histograms(table)
    # satellite 0 sees 2, 1, 0 stations across the slots; satellite 1 none
    assert hist["satellite"] == {0: 4, 1: 1, 2: 1}
    assert hist["station"] == {0: 6, 1: 3}
    assert sum(k * m for k, m in hist["satellite"].items()) == 3
    assert sum(m for m in hist["satellite"].values()) == 2 * 3
    assert sum(m for m in hist["station"].values()) == 3 * 3


def test_choice_histograms_match_dense_formula(rng):
    tables = [make_table(3, 2, 2, []), make_table(1, 1, 1, [(0, 0, 0, 1.0)])]
    tables += [random_table(rng, n_slots=40, n_sats=5, n_stations=4, density=d)
               for d in (0.05, 0.5, 1.0)]
    for table in tables:
        assert choice_histograms(table) == reference_choice_histograms(table)


def test_report_json_deterministic(tmp_path):
    pool = np.array([[5, 3, 0]])
    schedule = _schedule(pool, metadata={"scheduler": "rr", "passes": 2})
    alloc = iterate_phase2(pool, station_pairs(3))
    report = summarize(schedule, alloc, station_ids=[10, 11, 12])
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    write_report_json(first, report)
    write_report_json(second, report)
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["pair_keys"] == {"10-11": 3, "10-12": 0, "11-12": 0}
    assert payload["excluded_pairs"] == ["10-12", "11-12"]
    assert payload["metadata"]["passes"] == 2
    assert "runtime" not in json.dumps(payload)


def test_comparison_csv_rows(tmp_path):
    pool = np.array([[5, 3, 0]])
    alloc = iterate_phase2(pool, station_pairs(3))
    reports = [summarize(_schedule(pool, metadata={"scheduler": name}), alloc)
               for name in ("rr", "greedy")]
    path = tmp_path / "comparison.csv"
    write_comparison_csv(path, reports)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "scheduler,served,pool_total,min_key,total_key,excluded_pairs"
    assert lines[1] == "rr,0,8,3,3,2"
    assert lines[2] == "greedy,0,8,3,3,2"


def test_pools_csv_lists_every_served_link(tmp_path):
    # a served zero-bit link keeps its row; a link never served has none,
    # even where the table offers it bits
    table = make_table(2, 2, 2, [(0, 0, 0, 3.5), (0, 1, 1, 0.0), (1, 0, 1, 2.0)])
    table.sat_ids, table.station_ids = np.array([7, 9]), np.array([20, 30])
    schedule = Schedule.from_mask(table, np.array([True, True, False]), {})
    path = tmp_path / "pools.csv"
    write_pools_csv(path, schedule, table)
    assert path.read_text().splitlines() == [
        "satellite_id,station_id,key_bits", "7,20,3", "9,30,0"]


def test_allocation_csv_rows_in_index_order(tmp_path):
    # rows follow (satellite, station a, station b) whatever the pair order;
    # zero entries are left out
    table = make_table(1, 2, 3, [(0, 0, 0, 1.0)])
    table.station_ids = np.array([10, 11, 12])
    alloc = PairAllocation(pairs=[(1, 2), (0, 2), (0, 1)],
                           bits=np.array([[4, 0, 2], [0, 5, 1]]))
    path = tmp_path / "allocation.csv"
    write_allocation_csv(path, alloc, table)
    assert path.read_text().splitlines() == [
        "satellite_id,station_a,station_b,key_bits",
        "0,10,11,2", "0,11,12,4", "1,10,11,1", "1,10,12,5"]
