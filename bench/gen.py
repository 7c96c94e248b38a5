"""Seeded inputs and command plans for the stage benchmark.

Every input is drawn from ``numpy.random.default_rng([seed, workload key])``
streams and written with fixed formatting, so one seed gives byte-identical
files. The program under test only sees these files through its command
line.

A plan lists iterations; an iteration is a list of invocations, each an
argv for ``qkdsched.cli.main`` plus the schedulers it runs. ``{rep}`` in
an argv string is replaced by the repetition label when the worker runs it,
so repeated iterations write to separate output trees.
"""

from __future__ import annotations

import configparser
import shutil
from pathlib import Path

import numpy as np

WORKLOADS = ("desk_exact", "global_slice", "global_quarter")

# Why each workload exists; BENCHMARK.json carries the same text.
WHY = {
    "desk_exact": "small criterion-3-style desk tables through all six schedulers "
                  "with LP export: branch-and-bound and LP dominate, no geometry runs",
    "global_slice": "global_a500 cut to 1800 slots with hourly clouds, rr/greedy/op-rr: "
                    "per-slot scheduling and the assignment solver dominate",
    "global_quarter": "global_a500 cut to 10800 slots, greedy with an estimate dump "
                      "and its table replay: geometry, CSV I/O and Phase-2 build dominate",
}

DESK_SCHEDULERS = ("rr", "greedy", "op-rr", "op-greedy", "maxmin", "maxsum")
DESK_TABLES = 300          # more than a run can use, so no table repeats
DESK_TRACED = 24           # fixed, so the traced run's result counts repeat
SLICE_SLOTS = 1800
QUARTER_SLOTS = 10800
CLOUD_DATE = "2022-03-15"  # global_a500's epoch
# The global workloads' clouds ignore the run's seed. Phase 2 runs its
# branch-and-bound without a budget, and on some cloud draws it does not
# finish: with seed 11 rr's Phase 2 on the slice ran for over 8 minutes,
# with seed 4 greedy's on the quarter for over a minute. A benchmark run must
# end within 180 s, so these workloads keep one draw on which every stage
# finishes until Phase 2 gets a budget, and then follow the seed again.
GLOBAL_CLOUD_SEED = 1
FILTER_THRESHOLD = 0.8     # the CLI default the workloads run with

ESTIMATE_HEADER = "slot,satellite_id,station_id,transmissivity,successes,qber,key_rate,cloud,key_bits"


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def station_ids(ini_path: Path) -> list:
    cfg = configparser.ConfigParser()
    cfg.read(ini_path)
    ids = []
    for key, raw in cfg.items("ground_stations"):
        if key not in ("atmosphere_csv", "noise_csv"):
            ids.append(int(raw.split(",")[0]))
    return sorted(ids)


def write_clouds(path: Path, ids: list, rng: np.random.Generator) -> None:
    """Hourly cloud cover: each hour exactly one station is overcast.

    Clear stations stay at or below 0.79 and the overcast one is at least
    0.81, so the 0.8 filter always drops some, never all, of the links.
    """
    n = len(ids)
    base = rng.uniform(0.05, 0.5, size=n)
    hourly = np.clip(base[:, None] + rng.normal(0.0, 0.1, size=(n, 24)), 0.0, 0.79)
    overcast = rng.integers(0, n, size=24)
    hourly[overcast, np.arange(24)] = rng.uniform(0.81, 1.0, size=24)
    lines = ["station_id,date," + ",".join(f"h{h:02d}" for h in range(24))]
    for i, sid in enumerate(ids):
        lines.append(f"{sid},{CLOUD_DATE}," + ",".join(f"{v:.3f}" for v in hourly[i]))
    path.write_text("\n".join(lines) + "\n")


def write_scenario(src_ini: Path, dest_dir: Path, slot_count: int) -> Path:
    """Copy a scenario and its side tables, overriding ``slot_count``."""
    cfg = configparser.ConfigParser()
    cfg.read(src_ini)
    for key in ("atmosphere_csv", "noise_csv"):
        shutil.copyfile(src_ini.parent / cfg.get("ground_stations", key),
                        dest_dir / cfg.get("ground_stations", key))
    text = []
    for line in src_ini.read_text().splitlines():
        if line.split("=")[0].strip() == "slot_count":
            line = f"slot_count = {slot_count}"
        text.append(line)
    dest = dest_dir / f"{src_ini.stem}_{slot_count}.ini"
    dest.write_text("\n".join(text) + "\n")
    return dest


def write_desk_table(path: Path, rng: np.random.Generator) -> None:
    """2 satellites x 3 stations at density 0.6 with key bits below 8, as in
    criterion 3, but 4-5 slots instead of 5-8: branch-and-bound cost grows
    steeply and varies tenfold between tables at 5-8 slots, and a 30 s run
    then holds too few tables for a steady average."""
    n_slots = int(rng.integers(4, 6))
    rows = []
    for t in range(n_slots):
        for s in range(2):
            for g in range(3):
                if rng.random() < 0.6:
                    rows.append((t, s + 1, g + 1, float(rng.random() * 8.0)))
    if not rows:
        rows.append((0, 1, 1, 1.0))
    lines = [ESTIMATE_HEADER]
    for t, s, g, bits in rows:
        lines.append(f"{t},{s},{g},0.0,{bits!r},0.0,1.0,0.0,{bits!r}")
    path.write_text("\n".join(lines) + "\n")


def make_plan(workload: str, seed: int, root: Path, work: Path) -> dict:
    """Write the workload's inputs under ``work`` and return its plan.

    Only the desk tables follow ``seed``; see ``GLOBAL_CLOUD_SEED``.

    ``repeat`` says whether the worker re-runs the single iteration (the
    global workloads) or walks through distinct ones (the desk batch).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'")
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    out = work / "out"

    if workload == "desk_exact":
        rng = rng_for(workload, seed)
        iterations = []
        for k in range(DESK_TABLES):
            table = inputs / f"desk_{k:03d}.csv"
            write_desk_table(table, rng)
            iterations.append([{
                "argv": ["run", "--table", str(table),
                         "--schedulers", ",".join(DESK_SCHEDULERS), "--export-lp",
                         "--out", str(out / f"{{rep}}_{k:03d}")],
                "schedulers": list(DESK_SCHEDULERS),
            }])
        return {"workload": workload, "repeat": False, "out": str(out),
                "iterations": iterations, "traced_iterations": DESK_TRACED}

    src_ini = root / "scenarios" / "global_a500.ini"
    clouds = inputs / "clouds.csv"
    write_clouds(clouds, station_ids(src_ini), rng_for(workload, GLOBAL_CLOUD_SEED))
    if workload == "global_slice":
        ini = write_scenario(src_ini, inputs, SLICE_SLOTS)
        invocations = [{
            "argv": ["run", "--scenario", str(ini), "--clouds", str(clouds),
                     "--schedulers", "rr,greedy,op-rr", "--max-passes", "10",
                     "--out", str(out / "{rep}")],
            "schedulers": ["rr", "greedy", "op-rr"],
        }]
    else:
        ini = write_scenario(src_ini, inputs, QUARTER_SLOTS)
        scen_out = out / "{rep}" / "scenario"
        invocations = [
            {"argv": ["run", "--scenario", str(ini), "--clouds", str(clouds),
                      "--schedulers", "greedy", "--dump-estimates",
                      "--out", str(scen_out)],
             "schedulers": ["greedy"]},
            {"argv": ["run", "--table", str(scen_out / "estimates.csv"),
                      "--schedulers", "greedy", "--out", str(out / "{rep}" / "replay")],
             "schedulers": ["greedy"], "replay_of": 0},
        ]
    return {"workload": workload, "repeat": True, "out": str(out),
            "iterations": [invocations], "traced_iterations": 1}
