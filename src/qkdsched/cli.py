"""Command line front end.

``qkdsched run`` drives the full pipeline: scenario -> visibility ->
weather filter -> channel estimates of the kept rows -> one or more
schedulers -> pairwise allocation -> artifacts; a ``--table`` run reads
the estimates and then filters them. The report-only estimate columns
are kept only when ``--dump-estimates`` writes them. ``qkdsched synth``
fabricates a standalone estimate table for scheduler experiments without
orbit propagation.

Artifacts are assembled in a staging directory and moved into place with a
single rename, so an interrupted run never leaves a half-written output
tree behind, and a run that fails removes its staging directory. Each
base schedule (rr, greedy) is computed once per run and shared with the
opportunistic scheduler that takes its rate floors from it. Wherever the
platform has the ``fork`` start method, ``--dump-estimates`` writes
``estimates.csv`` from a forked child, which inherits the table without
pickling it, while the schedulers run; the run waits for it before the
swap, and a failed or aborted run kills it. Elsewhere the dump is written
inline after the schedulers. All writers are deterministic: repeating a
run with the same inputs reproduces every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from .alloc import iterate_phase2, solve_baseline, station_pairs
from .channel import (
    EstimateTable,
    build_estimates,
    key_rate,
    read_estimates_csv,
    write_estimates_csv,
)
from .metrics import (
    choice_histograms,
    summarize,
    write_allocation_csv,
    write_comparison_csv,
    write_histograms_csv,
    write_pools_csv,
    write_report_json,
    write_schedule_csv,
)
from .orbit import build_visibility
from .scenario import ScenarioError, load_scenario
from .sched import (
    check_opportunistic,
    derive_min_rates,
    run_greedy,
    run_opportunistic,
    run_rr,
)
from .weather import (WeatherError, apply_filter, check_threshold, cloud_matrix,
                      filter_visibility, load_clouds)

SCHEDULERS = ("rr", "greedy", "op-rr", "op-greedy", "maxmin", "maxsum")


class CliError(Exception):
    def __init__(self, module: str, message: str):
        super().__init__(message)
        self.module = module


def _verbose(message: str) -> None:
    # progress chatter is opt-in and never touches the artifacts
    if os.environ.get("QKDSCHED_VERBOSE"):
        print(message, file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdsched",
        description="Satellite downlink scheduling and pairwise key allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="schedule a scenario and allocate pairwise keys",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    source = run_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", help="scenario INI file")
    source.add_argument("--table", help="precomputed estimate CSV instead")
    run_p.add_argument("--clouds", help="hourly cloud-cover CSV")
    run_p.add_argument("--filter-threshold", type=float, default=0.8,
                       help="drop links whose cloud cover exceeds this "
                            "(1 keeps every link)")
    run_p.add_argument("--schedulers", default="rr,greedy,op-rr",
                       help="comma list from: " + ",".join(SCHEDULERS))
    run_p.add_argument("--delta", type=float, default=0.01,
                       help="multiplier step for the opportunistic schedulers")
    run_p.add_argument("--max-passes", type=int, default=50,
                       help="pass budget for the opportunistic schedulers")
    run_p.add_argument("--tol", type=float, default=1e-4,
                       help="multiplier convergence tolerance")
    run_p.add_argument("--solver-nodes", type=int, default=20000,
                       help="MILP search node budget (HiGHS) for baselines")
    run_p.add_argument("--export-lp", action="store_true",
                       help="also write baseline models as LP files")
    run_p.add_argument("--dump-estimates", action="store_true",
                       help="write the scheduled estimate table as CSV")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--force", action="store_true",
                       help="replace the output directory if it exists")
    run_p.set_defaults(func=_cmd_run)

    synth_p = sub.add_parser(
        "synth", help="generate a synthetic estimate table CSV",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    synth_p.add_argument("--sats", type=int, default=3)
    synth_p.add_argument("--stations", type=int, default=4)
    synth_p.add_argument("--slots", type=int, default=50)
    synth_p.add_argument("--density", type=float, default=0.4,
                         help="probability a link is visible in a slot")
    synth_p.add_argument("--qber-low", type=float, default=0.005,
                         help="lower end of the drawn error-rate range")
    synth_p.add_argument("--qber-high", type=float, default=0.12,
                         help="upper end of the drawn error-rate range")
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.add_argument("--out", required=True, help="output CSV path")
    synth_p.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc.module}: {exc}", file=sys.stderr)
    except ScenarioError as exc:
        print(f"error: scenario: {exc}", file=sys.stderr)
    except WeatherError as exc:
        print(f"error: weather: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
    except (ValueError, RuntimeError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
    return 2


# ------------------------------------------------------------------- run

def _cmd_run(args) -> int:
    names = [n.strip() for n in args.schedulers.split(",") if n.strip()]
    if not names:
        raise CliError("cli", "no schedulers requested")
    for name in names:
        if name not in SCHEDULERS:
            raise CliError("cli", f"unknown scheduler '{name}' "
                                  f"(choose from {', '.join(SCHEDULERS)})")
        if names.count(name) > 1:
            raise CliError("cli", f"scheduler '{name}' requested twice")
    if args.table and args.clouds:
        raise CliError("cli", "--clouds needs --scenario; tables carry their "
                              "own cloud column")
    # checked on every run, because run_config.json records them for every run
    check_opportunistic(args.delta, args.max_passes, args.tol)
    check_threshold(args.filter_threshold)
    out = Path(args.out)
    if out.exists() and not args.force:
        raise CliError("cli", f"output directory '{out}' exists (use --force)")

    if args.scenario:
        table = _scenario_table(args.scenario, args.clouds, args.filter_threshold,
                                args.dump_estimates)
    else:
        _verbose(f"reading estimate table {args.table}")
        table = apply_filter(read_estimates_csv(args.table, report_columns=args.dump_estimates),
                             args.filter_threshold)
    _verbose(f"{len(table)} usable link-slots after filtering")

    staging = out.parent / (out.name + ".staging")
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    dump = (_dumped(table, staging / "estimates.csv") if args.dump_estimates
            else contextlib.nullcontext())
    try:
        with dump:
            pairs = station_pairs(table.n_stations)
            reports, bases = [], {}
            for name in names:
                sub = staging / name
                sub.mkdir()
                _verbose(f"running scheduler {name}")
                start = time.perf_counter()
                schedule, allocation = _execute(name, table, pairs, args, sub, bases)
                report = summarize(schedule, allocation, station_ids=table.station_ids)
                _verbose(f"  {name}: min {report['min_key']} / total {report['total_key']} "
                         f"bits in {time.perf_counter() - start:.2f}s")
                write_schedule_csv(sub / "schedule.csv", schedule, table)
                write_pools_csv(sub / "pools.csv", schedule, table)
                write_allocation_csv(sub / "allocation.csv", allocation, table)
                write_report_json(sub / "report.json", report)
                reports.append(report)

            write_comparison_csv(staging / "comparison.csv", reports)
            write_histograms_csv(staging / "histograms.csv", choice_histograms(table))
            write_report_json(staging / "run_config.json", {
                "source": args.scenario or args.table,
                "clouds": args.clouds,
                "filter_threshold": args.filter_threshold,
                "schedulers": names,
                "delta": args.delta, "max_passes": args.max_passes, "tol": args.tol,
                "solver_nodes": args.solver_nodes,
            })
    except BaseException:
        # an aborted run leaves neither a running dump, a staging tree nor a
        # partial output
        shutil.rmtree(staging, ignore_errors=True)
        raise
    # the staging tree is complete: if the swap fails, it stays in place
    if out.exists():
        shutil.rmtree(out)
    staging.rename(out)
    print(f"wrote {len(names)} scheduler run(s) to {out}")
    return 0


def _scenario_table(scenario_path, clouds_path, threshold, report_columns) -> EstimateTable:
    """Scan a scenario and estimate the visible rows the cloud filter keeps.
    The clouds file is read for the scenario's epoch before the scan, so
    that a bad one fails fast. The visibility table and the cloud matrix
    die with this call, before the schedulers run."""
    _verbose(f"loading scenario {scenario_path}")
    scenario = load_scenario(scenario_path)
    hourly = load_clouds(clouds_path, date=scenario.time.epoch) if clouds_path else None
    _verbose(f"scanning visibility for {scenario.n_sats} satellites x "
             f"{scenario.time.slot_count} slots")
    visibility = build_visibility(scenario)
    clouds = None
    if hourly is not None:
        clouds = cloud_matrix(hourly, scenario)
        # the unfiltered visibility table is freed before the estimates exist
        visibility = filter_visibility(visibility, clouds, threshold)
    return build_estimates(scenario, visibility, clouds, report_columns=report_columns)


@contextlib.contextmanager
def _dumped(table: EstimateTable, path: Path):
    """Write the ``--dump-estimates`` file while the body runs. Where the
    ``fork`` start method exists, a forked child writes it; a clean exit
    waits for the child and raises its exception, and an exception from the
    body kills and reaps it. Elsewhere the file is written after the body."""
    # imported on first use, so that it stays out of the command's start-up
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        yield
        write_estimates_csv(table, path)
        return
    ctx = multiprocessing.get_context("fork")
    result, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_dump_child, args=(table, path, send), daemon=True)
    proc.start()
    send.close()
    with result:
        try:
            yield
        except BaseException:
            proc.kill()
            proc.join()
            raise
        try:
            error = result.recv()
        except EOFError:
            # the child died before it could report
            proc.join()
            error = CliError("cli", f"estimate dump process exited with "
                                    f"code {proc.exitcode}")
        proc.join()
    if error is not None:
        raise error


def _dump_child(table, path, send) -> None:
    """Write the dump and send the parent None or the exception it raised."""
    error = None
    try:
        write_estimates_csv(table, path)
    except Exception as exc:
        error = exc
    send.send(error)
    send.close()


def _execute(name, table, pairs, args, sub, bases):
    if name in ("maxmin", "maxsum"):
        export = (sub / "model.lp") if args.export_lp else None
        result = solve_baseline(table, name, pairs=pairs,
                                max_nodes=args.solver_nodes, export_path=export)
        return result.schedule, result.allocation

    base = name.removeprefix("op-")
    if base not in bases:
        bases[base] = run_rr(table) if base == "rr" else run_greedy(table)
    schedule = bases[base]
    if name != base:
        schedule = run_opportunistic(table, derive_min_rates(schedule, table),
                                     delta=args.delta, max_passes=args.max_passes,
                                     tol=args.tol)
        schedule.metadata.update(scheduler=name, targets_from=base)
    return schedule, iterate_phase2(schedule.key_pool, pairs)


# ------------------------------------------------------------------- synth

def _cmd_synth(args) -> int:
    for flag, size in (("--sats", args.sats), ("--stations", args.stations),
                       ("--slots", args.slots)):
        if size < 1:
            raise CliError("synth", f"{flag} must be at least 1")
    if not (0.0 < args.density <= 1.0):
        raise CliError("synth", "density must be in (0, 1]")
    if not (0.0 <= args.qber_low <= args.qber_high <= 0.5):
        raise CliError("synth", "need 0 <= qber-low <= qber-high <= 0.5")
    rng = np.random.default_rng(args.seed)
    rows = []
    for t in range(args.slots):
        for s in range(args.sats):
            for g in range(args.stations):
                if rng.random() >= args.density:
                    continue
                successes = float(rng.uniform(50.0, 5000.0))
                qber = float(rng.uniform(args.qber_low, args.qber_high))
                rows.append((t, s, g, successes, qber))
    if not rows:
        raise CliError("synth", "no visible links generated; raise --density")

    arr = np.array([(t, s, g) for (t, s, g, _, _) in rows], dtype=np.int64)
    successes = np.array([r[3] for r in rows])
    qber = np.array([r[4] for r in rows])
    rate = key_rate(qber)
    table = EstimateTable(
        n_slots=args.slots, n_sats=args.sats, n_stations=args.stations,
        slot=arr[:, 0], sat=arr[:, 1], station=arr[:, 2],
        transmissivity=successes / 2.5e8, successes=successes, qber=qber,
        rate=rate, cloud=np.zeros(len(rows)), key_bits=successes * rate,
    )
    # ids are dense and every capacity is one, so the bare format (without
    # the metadata line) reads back the same table up to trailing empty slots
    write_estimates_csv(table, args.out, metadata=False)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
