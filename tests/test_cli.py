"""End-to-end command line behaviour and artifact determinism."""

import argparse
import csv
import errno
import gc
import hashlib
import json
import multiprocessing
import os
import re
import select
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import pytest

import qkdsched.cli as cli
from qkdsched.channel import read_estimates_csv, write_estimates_csv
from qkdsched.cli import build_parser, main
from qkdsched.orbit import build_visibility
from qkdsched.scenario import load_scenario

from conftest import BRANCHING_DESK_ROWS, make_table

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _synth(tmp_path, name="table.csv", seed=7, slots=30, sats=2, stations=3,
           density=0.5):
    path = tmp_path / name
    rc = main(["synth", "--sats", str(sats), "--stations", str(stations),
               "--slots", str(slots), "--density", str(density),
               "--seed", str(seed), "--out", str(path)])
    assert rc == 0
    return path


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_is_deterministic_and_readable(tmp_path):
    first = _synth(tmp_path, "a.csv")
    second = _synth(tmp_path, "b.csv")
    assert first.read_bytes() == second.read_bytes()
    other = _synth(tmp_path, "c.csv", seed=8)
    assert first.read_bytes() != other.read_bytes()
    table = read_estimates_csv(first)
    assert table.n_stations == 3
    assert len(table) > 0


def test_synth_rejects_bad_density(tmp_path, capsys):
    rc = main(["synth", "--density", "0", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error: synth:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--sats", "0"), ("--stations", "-2"),
                                         ("--slots", "0")])
def test_synth_rejects_sizes_below_one(tmp_path, capsys, flag, value):
    rc = main(["synth", flag, value, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: synth: {flag} must be at least 1\n"
    assert not (tmp_path / "x.csv").exists()


def test_synth_rejects_inverted_qber_range(tmp_path, capsys):
    rc = main(["synth", "--qber-low", "0.2", "--qber-high", "0.1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error: synth:" in capsys.readouterr().err


def test_synth_matches_golden_file(tmp_path):
    # pinned bytes guard both the CSV format and the generator's RNG stream
    path = tmp_path / "golden.csv"
    rc = main(["synth", "--sats", "1", "--stations", "2", "--slots", "10",
               "--density", "0.8", "--seed", "1", "--out", str(path)])
    assert rc == 0
    golden = Path(__file__).parent / "data" / "synth_golden.csv"
    assert path.read_bytes() == golden.read_bytes()


def test_synth_qber_above_zero_crossing_kills_rates(tmp_path):
    path = tmp_path / "dead.csv"
    rc = main(["synth", "--qber-low", "0.12", "--qber-high", "0.3",
               "--seed", "3", "--out", str(path)])
    assert rc == 0
    table = read_estimates_csv(path)
    assert len(table) > 0
    assert all(v == 0 for v in table.rate)
    assert all(v == 0 for v in table.key_bits)


def test_run_from_table_writes_artifacts(tmp_path):
    table = _synth(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--table", str(table), "--schedulers", "rr,greedy,op-rr",
               "--out", str(out)])
    assert rc == 0
    for name in ("rr", "greedy", "op-rr"):
        for artifact in ("schedule.csv", "pools.csv", "allocation.csv",
                         "report.json"):
            assert (out / name / artifact).exists()
    assert (out / "comparison.csv").exists()
    assert not (tmp_path / "out.staging").exists()

    report = json.loads((out / "op-rr" / "report.json").read_text())
    assert report["scheduler"] == "op-rr"
    assert report["metadata"]["targets_from"] == "rr"
    assert report["total_key"] >= report["min_key"] >= 0
    assert report["schema_version"] == 1
    assert "runtime" not in json.dumps(report)
    with open(out / "histograms.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # the zero bin is in the file, so each view covers entities x slots
    assert sum(int(r["mass"]) for r in rows if r["view"] == "satellite") == 2 * 30
    assert sum(int(r["mass"]) for r in rows if r["view"] == "station") == 3 * 30
    config = json.loads((out / "run_config.json").read_text())
    assert config["schedulers"] == ["rr", "greedy", "op-rr"]
    assert config["seed"] == 0
    lines = (out / "comparison.csv").read_text().strip().splitlines()
    assert len(lines) == 4


def test_spent_node_budget_is_reported_not_an_error(tmp_path):
    table = tmp_path / "desk.csv"
    write_estimates_csv(make_table(5, 2, 3, BRANCHING_DESK_ROWS), table, metadata=False)
    out = tmp_path / "out"
    rc = main(["run", "--table", str(table), "--schedulers", "maxmin,maxsum",
               "--solver-nodes", "1", "--out", str(out)])
    assert rc == 0
    meta = json.loads((out / "maxmin" / "report.json").read_text())["metadata"]
    assert meta["milp_status"] == "budget_exceeded"
    assert meta["milp_nodes"] == 1
    assert meta["milp_gap"] is not None and 0.0 <= meta["milp_gap"] < 1e9


def test_run_twice_byte_identical(tmp_path):
    table = _synth(tmp_path, slots=8, density=0.6)
    args = ["run", "--table", str(table), "--schedulers", "rr,op-greedy,maxsum"]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert _tree(out1) == _tree(out2)


def test_run_refuses_then_forces_overwrite(tmp_path, capsys):
    table = _synth(tmp_path)
    out = tmp_path / "out"
    args = ["run", "--table", str(table), "--schedulers", "rr",
            "--out", str(out)]
    assert main(args) == 0
    rc = main(args)
    assert rc == 2
    assert "error: cli:" in capsys.readouterr().err
    assert main(args + ["--force"]) == 0


def test_run_unknown_scheduler(tmp_path, capsys):
    table = _synth(tmp_path)
    rc = main(["run", "--table", str(table), "--schedulers", "rr,magic",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "unknown scheduler 'magic'" in capsys.readouterr().err


def test_run_clouds_need_scenario(tmp_path, capsys):
    table = _synth(tmp_path)
    rc = main(["run", "--table", str(table), "--clouds", str(table),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error: cli:" in capsys.readouterr().err


def test_run_missing_scenario_file(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "nope.ini"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_run_rejects_duplicate_table_rows(tmp_path, capsys):
    # a repeated (slot, satellite, station) would be bid on once but
    # credited twice to the link pool
    table = tmp_path / "dup.csv"
    table.write_text(
        "slot,satellite_id,station_id,transmissivity,successes,qber,key_rate,cloud,key_bits\n"
        "0,1,1,0.0,5.0,0.0,1.0,0.0,5.0\n"
        "0,1,2,0.0,3.0,0.0,1.0,0.0,3.0\n"
        "0,1,1,0.0,1.0,0.0,1.0,0.0,1.0\n")
    out = tmp_path / "out"
    rc = main(["run", "--table", str(table), "--schedulers", "greedy,maxsum",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input:")
    assert "(0, 1, 1)" in err
    assert not out.exists()


def test_run_rejects_pass_budget_below_one(tmp_path, capsys):
    golden = Path(__file__).parent / "data" / "synth_golden.csv"
    rc = main(["run", "--table", str(golden), "--schedulers", "op-rr",
               "--max-passes", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input:")
    assert "max_passes" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_run_rejects_delta_not_finite_positive(tmp_path, capsys, delta):
    golden = Path(__file__).parent / "data" / "synth_golden.csv"
    rc = main(["run", "--table", str(golden), "--schedulers", "op-rr",
               f"--delta={delta}", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input: delta")
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "out.staging").exists()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_run_rejects_tol_not_finite_non_negative(tmp_path, capsys, tol):
    # either would be written to run_config.json and report.json as a token
    # that strict JSON parsers refuse
    golden = Path(__file__).parent / "data" / "synth_golden.csv"
    rc = main(["run", "--table", str(golden), "--schedulers", "op-rr",
               f"--tol={tol}", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: input: tol must be finite and non-negative, got {tol}\n")
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "out.staging").exists()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_run_config_is_strict_json(tmp_path):
    golden = Path(__file__).parent / "data" / "synth_golden.csv"
    out = tmp_path / "out"
    assert main(["run", "--table", str(golden), "--schedulers", "rr,greedy",
                 "--out", str(out)]) == 0
    for path in sorted(out.rglob("*.json")):
        json.loads(path.read_text(), parse_constant=_refuse_constant)
    config = json.loads((out / "run_config.json").read_text())
    assert (config["delta"], config["max_passes"], config["tol"]) == (0.01, 50, 1e-4)


@pytest.mark.parametrize("flags, message", [
    (["--tol", "nan", "--delta", "inf"], "delta must be finite and positive, got inf"),
    (["--tol", "nan"], "tol must be finite and non-negative, got nan"),
    (["--max-passes", "0"], "max_passes must be at least 1"),
])
def test_recorded_settings_are_checked_without_an_op_scheduler(tmp_path, capsys, flags,
                                                               message):
    # run_config.json records them for every run, so every run checks them
    golden = Path(__file__).parent / "data" / "synth_golden.csv"
    out = tmp_path / "out"
    rc = main(["run", "--table", str(golden), "--schedulers", "rr", *flags,
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: input: {message}\n"
    assert not out.exists() and not (tmp_path / "out.staging").exists()


def test_run_rejects_repeated_scheduler_before_the_scan(tmp_path, monkeypatch, capsys):
    scans = []
    monkeypatch.setattr(cli, "build_visibility", lambda *a: scans.append(a))
    rc = main(["run", "--scenario", str(SCENARIOS / "toy_equator.ini"),
               "--schedulers", "rr,greedy,rr", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: cli: scheduler 'rr' requested twice\n"
    assert not scans
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "out.staging").exists()


@pytest.mark.parametrize("flag, message", [
    (["--clouds", "missing.csv"], "error: io: [Errno 2] No such file or directory: "
                                  "'missing.csv'\n"),
    (["--filter-threshold", "80"], "error: weather: filter threshold out of [0, 1]\n"),
], ids=["missing-clouds", "threshold"])
def test_bad_clouds_or_threshold_fail_before_the_scan(tmp_path, monkeypatch, capsys,
                                                      flag, message):
    scans = []
    monkeypatch.setattr(cli, "build_visibility", lambda *a: scans.append(a))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(SCENARIOS / "toy_equator.ini"), *flag,
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == message
    assert scans == [] and not out.exists()


@pytest.mark.parametrize("flag", [["--delta", "0"], ["--max-passes", "0"]])
def test_run_with_bad_settings_leaves_no_staging(tmp_path, capsys, flag):
    # rr would finish first; the bad opportunistic setting must stop the run
    # before anything is staged
    golden = Path(__file__).parent / "data" / "synth_golden.csv"
    out = tmp_path / "stg" / "out"
    rc = main(["run", "--table", str(golden), "--schedulers", "rr,op-rr", *flag,
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: input:")
    assert not out.exists()
    assert not (tmp_path / "stg" / "out.staging").exists()


def test_failed_run_removes_staging(tmp_path, monkeypatch):
    # an error after staging began (here from the second scheduler) removes
    # the staging tree with the first scheduler's artifacts
    def broken(*args, **kwargs):
        raise RuntimeError("solver broke")

    monkeypatch.setattr(cli, "run_greedy", broken)
    out = tmp_path / "out"
    rc = main(["run", "--table", str(_synth(tmp_path)), "--schedulers", "rr,greedy",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert not (tmp_path / "out.staging").exists()


def test_failed_swap_keeps_complete_staging(tmp_path, monkeypatch):
    # once every artifact is staged, a failed final rename must not delete
    # the finished run along with the output it replaced
    table = str(_synth(tmp_path))
    out = tmp_path / "out"
    argv = ["run", "--table", table, "--schedulers", "rr,greedy", "--out", str(out)]
    assert main(argv) == 0
    finished = _tree(out)

    def broken(self, target):
        raise OSError("rename refused")

    monkeypatch.setattr(Path, "rename", broken)
    assert main([*argv, "--force"]) == 2
    assert _tree(tmp_path / "out.staging") == finished


def test_existing_out_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    # without --force, an existing --out stops the run before the scenario
    # is scanned or the table parsed
    def forbidden(*args, **kwargs):
        raise AssertionError("called before the --out check")

    monkeypatch.setattr(cli, "build_visibility", forbidden)
    monkeypatch.setattr(cli, "read_estimates_csv", forbidden)
    out = tmp_path / "out"
    out.mkdir()
    for source in (["--scenario", str(SCENARIOS / "toy_equator.ini")],
                   ["--table", str(_synth(tmp_path))]):
        assert main(["run", *source, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cli: output directory '{out}' exists (use --force)\n")


def _without_fork(monkeypatch):
    """Write the estimate dump inline, as on a platform without ``fork``."""
    real = multiprocessing.get_all_start_methods
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: [m for m in real() if m != "fork"])


def _dump_argv(tmp_path, out):
    return ["run", "--table", str(_synth(tmp_path)), "--schedulers", "rr,greedy",
            "--dump-estimates", "--out", str(out)]


def test_background_dump_matches_inline(tmp_path, monkeypatch):
    trees = []
    for fork in (False, True):
        with monkeypatch.context() as patch:
            if not fork:
                _without_fork(patch)
            out = tmp_path / f"out{fork}"
            assert main(_dump_argv(tmp_path, out)) == 0
        trees.append(_tree(out))
    assert "estimates.csv" in trees[0]
    assert trees[0] == trees[1]
    assert multiprocessing.active_children() == []


def test_dump_forks_on_one_cpu(tmp_path, monkeypatch):
    # the child writes the dump while the schedulers run, however few CPUs
    # the run may use
    argv = _dump_argv(tmp_path, tmp_path / "out")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    gate_r, gate_w = os.pipe()
    write, run_rr, children = cli.write_estimates_csv, cli.run_rr, []

    def gated_write(*args, **kwargs):
        # a forked writer lives until run_rr has looked, for 30 s at most
        select.select([gate_r], [], [], 30)
        write(*args, **kwargs)

    def counting_rr(*args, **kwargs):
        children.append(len(multiprocessing.active_children()))
        os.write(gate_w, b"x")
        return run_rr(*args, **kwargs)

    monkeypatch.setattr(cli, "write_estimates_csv", gated_write)
    monkeypatch.setattr(cli, "run_rr", counting_rr)
    try:
        assert main(argv) == 0
    finally:
        os.close(gate_r)
        os.close(gate_w)
    assert children == [1]
    assert (tmp_path / "out" / "estimates.csv").exists()
    assert multiprocessing.active_children() == []


def test_scheduler_error_stops_background_dump(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("solver broke")

    monkeypatch.setattr(cli, "run_greedy", broken)
    out = tmp_path / "out"
    assert main(_dump_argv(tmp_path, out)) == 2
    assert not out.exists()
    assert not (tmp_path / "out.staging").exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fork", [False, True], ids=["inline", "fork"])
def test_failed_dump_is_an_io_error(tmp_path, monkeypatch, capsys, fork):
    # the child's exception reaches the parent, which reports it as the
    # inline writer's would be
    def full(table, path, *args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    out = tmp_path / "out"
    argv = _dump_argv(tmp_path, out)
    if not fork:
        _without_fork(monkeypatch)
    monkeypatch.setattr(cli, "write_estimates_csv", full)
    assert main(argv) == 2
    dump = tmp_path / "out.staging" / "estimates.csv"
    assert capsys.readouterr().err == (
        f"error: io: [Errno 28] No space left on device: '{dump}'\n")
    assert not out.exists()
    assert not (tmp_path / "out.staging").exists()
    assert multiprocessing.active_children() == []


def test_dump_child_that_dies_is_reported(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    argv = _dump_argv(tmp_path, out)
    monkeypatch.setattr(cli, "write_estimates_csv", lambda *a, **k: os._exit(3))
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: cli: estimate dump process exited with code 3\n")
    assert not out.exists()
    assert not (tmp_path / "out.staging").exists()


def test_abort_kills_background_dump(tmp_path, monkeypatch):
    # a BaseException (a budget alarm, Ctrl-C) still kills and reaps the
    # child before the staging tree goes
    class Abort(BaseException):
        pass

    def stuck(*args, **kwargs):
        time.sleep(60)

    def abort(*args, **kwargs):
        assert len(multiprocessing.active_children()) == 1
        raise Abort

    out = tmp_path / "out"
    argv = _dump_argv(tmp_path, out)
    monkeypatch.setattr(cli, "write_estimates_csv", stuck)
    monkeypatch.setattr(cli, "run_rr", abort)
    start = time.monotonic()
    with pytest.raises(Abort):
        main(argv)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []
    assert not out.exists()
    assert not (tmp_path / "out.staging").exists()


@pytest.mark.parametrize("base", ["rr", "greedy"])
def test_base_schedule_computed_once(tmp_path, monkeypatch, base):
    table = _synth(tmp_path, slots=20)
    separate = {}
    for name in (base, "op-" + base):
        rc = main(["run", "--table", str(table), "--schedulers", name,
                   "--max-passes", "3", "--out", str(tmp_path / name)])
        assert rc == 0
        separate.update({k: v for k, v in _tree(tmp_path / name).items() if "/" in k})
    runner = "run_" + base
    calls = []
    original = getattr(cli, runner)
    monkeypatch.setattr(cli, runner, lambda *a, **k: calls.append(1) or original(*a, **k))
    out = tmp_path / "both"
    rc = main(["run", "--table", str(table), "--schedulers", f"{base},op-{base}",
               "--max-passes", "3", "--out", str(out)])
    assert rc == 0
    assert len(calls) == 1
    together = {k: v for k, v in _tree(out).items() if "/" in k}
    assert together == separate


def _clouded_scenario(tmp_path):
    """Two-satellite scenario with equatorial stations under the t=0 pass."""
    body = """
[constellation]
rings = 1
sats_per_ring = 2
altitude_km = 500
min_elevation_deg = 20

[time]
slot_duration_s = 1
slot_count = 600
epoch = 2022-03-15

[hardware]
transmitters_per_satellite = 1
source_rate_hz = 1e9
optics_transmissivity = 0.8
dark_count_prob = 1e-8
transmit_divergence_urad = 10
receiver_aperture_m = 1.0
detector_efficiency = 0.5
sifting_factor = 0.5
intrinsic_error_rate = 0.01

[ground_stations]
atmosphere_csv = atmo.csv
noise_csv = noise.csv
g1 = 1, EquatorA, 0.0, 0.0, 1
g2 = 2, EquatorB, 10.0, 0.0, 1
g3 = 3, EquatorC, 20.0, 0.0, 1
"""
    atmo = tmp_path / "atmo.csv"
    atmo.write_text("station_id,season,zenith_transmissivity\n"
                    + "".join(f"{g},{s},0.6\n" for g in (1, 2, 3)
                              for s in ("mar", "jun", "sep", "dec")))
    noise = tmp_path / "noise.csv"
    noise.write_text("station_id,hour_bucket,background_prob\n"
                     + "".join(f"{g},{b},1e-7\n" for g in (1, 2, 3)
                               for b in (0, 6, 12, 18)))
    path = tmp_path / "scene.ini"
    path.write_text(body)
    clouds = tmp_path / "clouds.csv"
    header = "station_id,date," + ",".join(f"h{h:02d}" for h in range(24))
    clear = ",".join("0.0" for _ in range(24))
    full = ",".join("1.0" for _ in range(24))
    clouds.write_text(f"{header}\n1,2022-03-15,{clear}\n2,2022-03-15,{clear}\n"
                      f"3,2022-03-15,{full}\n")
    return path, clouds


def test_run_scenario_with_cloud_filter(tmp_path):
    scene, clouds = _clouded_scenario(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(scene), "--clouds", str(clouds),
               "--schedulers", "rr", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "rr" / "report.json").read_text())
    assert report["served"] > 0
    # station 3 sits under full cloud, every row is filtered, so both of
    # its pairs are reported as excluded rather than dragging the min to 0
    assert "1-3" in report["excluded_pairs"]
    assert "2-3" in report["excluded_pairs"]
    assert report["pair_keys"]["1-2"] > 0
    assert report["min_key"] == report["pair_keys"]["1-2"]


@pytest.mark.parametrize("case", ["toy", "overcast-station"])
def test_threshold_one_dumps_every_visibility_row(tmp_path, case):
    """``--filter-threshold 1`` keeps every link, fully clouded ones too."""
    if case == "toy":
        scene, clouds = SCENARIOS / "toy_equator.ini", SCENARIOS / "clouds_sample.csv"
    else:
        scene, clouds = _clouded_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scene), "--clouds", str(clouds),
                 "--schedulers", "greedy", "--filter-threshold", "1",
                 "--dump-estimates", "--out", str(out)]) == 0
    dumped = read_estimates_csv(out / "estimates.csv")
    assert len(dumped) == len(build_visibility(load_scenario(scene)))
    assert (dumped.cloud == 1.0).any() == (case == "overcast-station")
    assert json.loads((out / "run_config.json").read_text())["filter_threshold"] == 1.0


def test_no_filter_flag_is_refused(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["run", "--table", str(_synth(tmp_path)), "--no-filter", "--out", str(out)])
    assert info.value.code == 2
    assert "unrecognized arguments: --no-filter" in capsys.readouterr().err
    assert not out.exists()


def test_readme_documents_every_option():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    missing = [f"{command} {option}" for command in ("run", "synth")
               for action in subparsers.choices[command]._actions
               if not isinstance(action, argparse._HelpAction)
               for option in action.option_strings
               if not re.search(re.escape(option) + r"(?![\w-])", readme)]
    assert missing == []


def test_scan_and_clouds_are_released_before_the_schedulers(tmp_path, monkeypatch):
    # the visibility table and the cloud matrix are unreachable once the
    # estimate table exists, so the schedulers run without them
    scene, clouds = _clouded_scenario(tmp_path)
    refs, alive = [], []
    run_greedy = cli.run_greedy

    def keep_ref(build):
        def wrapped(*args, **kwargs):
            result = build(*args, **kwargs)
            refs.append(weakref.ref(result))
            return result
        return wrapped

    def first_scheduler(*args, **kwargs):
        gc.collect()
        alive.extend(type(ref()).__name__ for ref in refs if ref() is not None)
        return run_greedy(*args, **kwargs)

    monkeypatch.setattr(cli, "build_visibility", keep_ref(cli.build_visibility))
    monkeypatch.setattr(cli, "cloud_matrix", keep_ref(cli.cloud_matrix))
    monkeypatch.setattr(cli, "run_greedy", first_scheduler)
    rc = main(["run", "--scenario", str(scene), "--clouds", str(clouds),
               "--schedulers", "greedy", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert len(refs) == 2 and alive == []


def test_run_export_only_writes_model(tmp_path):
    table = _synth(tmp_path, slots=10)
    out = tmp_path / "out"
    rc = main(["run", "--table", str(table), "--schedulers", "maxmin",
               "--solver-nodes", "0", "--export-lp", "--out", str(out)])
    assert rc == 0
    assert (out / "maxmin" / "model.lp").read_text().startswith("\\ baseline_maxmin")
    report = json.loads((out / "maxmin" / "report.json").read_text())
    assert report["metadata"]["exported"] is True
    assert report["served"] == 0


def test_run_solves_baselines_on_small_table(tmp_path):
    table = _synth(tmp_path, slots=8, density=0.6)
    out = tmp_path / "out"
    rc = main(["run", "--table", str(table),
               "--schedulers", "greedy,maxmin,maxsum", "--out", str(out)])
    assert rc == 0
    greedy = json.loads((out / "greedy" / "report.json").read_text())
    maxmin = json.loads((out / "maxmin" / "report.json").read_text())
    maxsum = json.loads((out / "maxsum" / "report.json").read_text())
    assert maxmin["metadata"]["milp_status"] == "optimal"
    assert maxsum["metadata"]["milp_status"] == "optimal"
    assert maxmin["min_key"] >= greedy["min_key"]
    assert maxsum["total_key"] >= greedy["total_key"]


def test_toy_maxmin_closes_within_default_budget(tmp_path):
    # the README's desk-scale toy run: the exact max-min baseline must prove
    # optimality under the default --solver-nodes, not report an exhausted
    # budget with an empty schedule
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(scenarios / "toy_equator.ini"),
               "--clouds", str(scenarios / "clouds_sample.csv"),
               "--schedulers", "maxmin", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "maxmin" / "report.json").read_text())
    assert report["metadata"]["milp_status"] == "optimal"
    assert report["metadata"]["milp_gap"] == 0.0
    assert report["served"] > 0
    assert report["min_key"] > 0


def test_toy_artifacts_match_digests(tmp_path):
    # the README toy command must keep writing the same bytes; the digests
    # in data/toy_artifacts.json were recorded from a known-good run
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(scenarios / "toy_equator.ini"),
               "--clouds", str(scenarios / "clouds_sample.csv"),
               "--schedulers", "rr,greedy,op-rr,op-greedy", "--out", str(out)])
    assert rc == 0
    want = json.loads((Path(__file__).parent / "data" / "toy_artifacts.json").read_text())
    got = {name: hashlib.sha256(data).hexdigest()
           for name, data in _tree(out).items() if name != "run_config.json"}
    assert got == want


def test_module_entry_point_help():
    # the subprocess does not inherit pytest's pythonpath, so hand it src/
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "qkdsched.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "synth" in proc.stdout


def test_dump_estimates_round_trip(tmp_path):
    table_path = _synth(tmp_path, slots=12)
    out = tmp_path / "out"
    rc = main(["run", "--table", str(table_path), "--schedulers", "rr",
               "--dump-estimates", "--out", str(out)])
    assert rc == 0
    dumped = read_estimates_csv(out / "estimates.csv")
    original = read_estimates_csv(table_path)
    assert len(dumped) == len(original)


HEADER = "slot,satellite_id,station_id,transmissivity,successes,qber,key_rate,cloud,key_bits"
ROW = "0,1,1,0.0,3.0,0.0,1.0,0.0,3.0"
META = ('#{"n_slots": 4, "sat_ids": [1], "station_ids": [1], "transmitters": [1], '
        '"receivers": [1]}')
BAD_ROW = "key bits must be finite and non-negative, and cloud cover in [0, 1]"


@pytest.mark.parametrize("text, message", [
    ("slot,satellite,station_id,transmissivity,successes,qber,key_rate,cloud,key_bits\n"
     + ROW, "expected columns"),
    (HEADER + "\n", "empty estimate table"),
    (HEADER + "\n" + ROW + "\n1.5,1,1,0.0,3.0,0.0,1.0,0.0,3.0\n", "'1.5'"),
    (HEADER + "\n" + ROW + "\n1,1,1,0.0,3.0,0.0,1.0,0.0\n", "8 were found"),
    (META + "\n" + HEADER + "\n" + ROW + "\n1,2,1,0.0,3.0,0.0,1.0,0.0,3.0\n",
     "satellite id 2 is not in the metadata line"),
    (META.replace('"receivers": [1]', '"receivers": [1, 1]') + "\n" + HEADER + "\n" + ROW,
     "one 'receivers' entry per 'station_ids' entry"),
    (META.replace("4", "1.5") + "\n" + HEADER + "\n" + ROW, "bad metadata line"),
    (META + "\n" + HEADER + "\n" + ROW.replace("0,", "4,", 1), r"slots must lie in [0, 4)"),
    (HEADER + "\n" + ROW + "\n1,1,1,0.0,3.0,0.0,1.0,0.0,-40.0\n", f"line 3: {BAD_ROW}"),
    (HEADER + "\n" + ROW + "\n1,1,1,0.0,3.0,0.0,1.0,0.0,-inf\n", f"line 3: {BAD_ROW}"),
    (HEADER + "\n1,1,1,0.0,3.0,0.0,1.0,0.0,inf\n" + ROW, f"line 2: {BAD_ROW}"),
    (META + "\n" + HEADER + "\n" + ROW + "\n\n1,1,1,0.0,3.0,0.0,1.0,1.5,3.0\n",
     f"line 5: {BAD_ROW}"),
    (HEADER + "\n" + ROW + "\n1,1,1,0.0,3.0,0.0,1.0,nan,3.0\n", f"line 3: {BAD_ROW}"),
], ids=["header", "header-only", "float-slot", "short-row", "unknown-id",
        "meta-lengths", "meta-float", "slot-range", "negative-bits", "minus-inf-bits",
        "inf-bits", "cloud-above-one", "nan-cloud"])
def test_malformed_table_is_an_input_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            read_estimates_csv(path)
    assert str(path) in str(info.value) and message in str(info.value)
    out = tmp_path / "out"
    rc = main(["run", "--table", str(path), "--schedulers", "greedy", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input:") and message in err
    assert not out.exists()


def test_run_rejects_non_finite_key_bits(tmp_path, capsys):
    # the reader refuses them, naming the line, before any scheduler's own check
    table = tmp_path / "nan.csv"
    table.write_text(HEADER + "\n" + ROW + "\n0,1,2,0.0,3.0,0.0,1.0,0.0,nan\n"
                     "1,1,1,0.0,3.0,0.0,1.0,0.0,-40.0\n")
    out = tmp_path / "out"
    for schedulers in ("rr", "op-rr", "greedy"):
        rc = main(["run", "--table", str(table), "--schedulers", schedulers,
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: input: {table}: line 3: {BAD_ROW}\n"
        assert not out.exists()


def _replay_dump(tmp_path, clouds, args):
    """Run the toy scenario with a dump, replay the dump with ``args``, and
    check that every artifact but the dump and ``run_config.json`` repeats."""
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(["run", "--scenario", str(SCENARIOS / "toy_equator.ini"),
                 "--clouds", str(clouds), *args,
                 "--dump-estimates", "--out", str(first)]) == 0
    assert main(["run", "--table", str(first / "estimates.csv"), *args,
                 "--out", str(replay)]) == 0
    want, got = _tree(first), _tree(replay)
    for name in ("estimates.csv", "run_config.json"):
        want.pop(name)
        got.pop(name, None)
    assert sorted(got) == sorted(want)
    assert [n for n in want if got[n] != want[n]] == []
    return first, replay


def test_readme_dump_replays_to_the_same_artifacts(tmp_path):
    # a --table replay of the README toy command's dump sees the scenario's
    # slot count, ids and capacities, so every other artifact repeats
    _, replay = _replay_dump(tmp_path, SCENARIOS / "clouds_sample.csv",
                             ["--schedulers", "rr,greedy,op-rr,maxsum", "--export-lp"])
    report = json.loads((replay / "rr" / "report.json").read_text())
    assert report["dimensions"] == {"satellites": 2, "slots": 600, "stations": 3}


@pytest.mark.parametrize("export", [[], ["--export-lp"]], ids=["solve", "export-lp"])
def test_empty_dump_replays_to_the_same_artifacts(tmp_path, export):
    # a filter that keeps no row dumps only the metadata line and the
    # header; every scheduler runs on the empty table, and a replay of the
    # dump repeats its artifacts
    clouds = tmp_path / "clouds.csv"
    half = ",".join("0.5" for _ in range(24))
    clouds.write_text("station_id,date," + ",".join(f"h{h:02d}" for h in range(24)) + "\n"
                      + "".join(f"{g},2022-03-15,{half}\n" for g in (1, 2, 3)))
    first, replay = _replay_dump(tmp_path, clouds, [
        "--schedulers", ",".join(cli.SCHEDULERS), "--filter-threshold", "0.1", *export])
    assert len(read_estimates_csv(first / "estimates.csv")) == 0
    report = json.loads((replay / "maxsum" / "report.json").read_text())
    assert report["dimensions"] == {"satellites": 2, "slots": 600, "stations": 3}
    assert report["served"] == report["total_key"] == 0


def test_table_replay_rewrites_the_dump_byte_for_byte(tmp_path):
    # a --table run keeps the report columns only when it dumps them
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(["run", "--scenario", str(scenarios / "toy_equator.ini"),
                 "--clouds", str(scenarios / "clouds_sample.csv"), "--schedulers", "greedy",
                 "--filter-threshold", "0.3", "--dump-estimates", "--out", str(first)]) == 0
    assert main(["run", "--table", str(first / "estimates.csv"), "--schedulers", "greedy",
                 "--filter-threshold", "0.3", "--dump-estimates", "--out", str(replay)]) == 0
    assert (replay / "estimates.csv").read_bytes() == (first / "estimates.csv").read_bytes()
