"""End-to-end command line behaviour and artifact determinism."""

import csv
import json
import subprocess
import sys
from pathlib import Path

from qkdsched.channel import read_estimates_csv
from qkdsched.cli import main


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


def test_module_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "qkdsched.cli", "--help"],
                          capture_output=True, text=True)
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
