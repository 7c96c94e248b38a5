"""Stage benchmark for qkdsched.

    python3 bench/run.py --workload desk_exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the program is imported from
``src``. Each workload writes seeded inputs under ``.bench_work/``, runs in
one fresh worker process (``worker.py``) that calls
``qkdsched.cli.main(["run", ...])``, and then has its artifacts audited by
``checks.py``, untimed. Human-readable lines go to stdout; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing: ``wall_s`` (mean wall time of the timed iterations: one desk
table, or one repetition of a global workload), ``setup_s`` (median of
several interpreter starts plus ``import qkdsched.cli``) and
``peak_rss_mb`` (the worker's peak resident memory). With ``--trace 1``
they are the per-layer figures of ``spans.py``, totalled over the traced
iterations; the spans themselves go to ``.bench_work/spans/``.

``all`` runs every workload untraced and then traced, for reading by eye.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import spans as spanlib

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 4            # extra fresh interpreters timed for setup_s

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # the workload process may use every core, but no more
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def probe_setup(env: dict) -> float:
    start = time.monotonic()
    done = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--probe"],
                          env=env, capture_output=True, text=True, check=True)
    return float(done.stdout.strip()) - start


def run_worker(work: Path, env: dict, seconds: int, trace: int, spans: Path) -> tuple:
    """Start the worker, wait for it, return (result, spawn time, peak RSS MB)."""
    result_path = work / "result.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "--plan", str(work / "plan.json"),
            "--result", str(result_path), "--seconds", str(seconds),
            "--trace", str(trace), "--spans", str(spans)]
    start = time.monotonic()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result_path) as fh:
        result = json.load(fh)
    return result, start, usage.ru_maxrss / 1024.0


def traced_outputs(iterations: list):
    """(invocation, output directory) of every traced iteration."""
    for it in iterations:
        if it["label"].startswith("t"):
            for inv in it["invocations"]:
                yield inv, checks.out_dir(inv["argv"])


def key_bits(iterations: list) -> dict:
    """Summed min/total pairwise key per scheduler over the traced runs."""
    out = {}
    for name in gen.DESK_SCHEDULERS:
        out[f"alloc.min_key_bits.{name}"] = 0
        out[f"alloc.total_key_bits.{name}"] = 0
    for inv, out_dir in traced_outputs(iterations):
        for name in inv["schedulers"]:
            with open(out_dir / name / "report.json") as fh:
                report = json.load(fh)
            out[f"alloc.min_key_bits.{name}"] += report["min_key"]
            out[f"alloc.total_key_bits.{name}"] += report["total_key"]
    return out


def rows_written(iterations: list) -> int:
    """Data rows of the CSV artifacts the metrics writers produced."""
    total = 0
    for _, out_dir in traced_outputs(iterations):
        for path in out_dir.rglob("*.csv"):
            if path.name != "estimates.csv":
                with open(path) as fh:
                    total += sum(1 for _ in fh) - 1
    return total


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    base = root / ".bench_work"
    work = base / f"{workload}-s{seed}-p{os.getpid()}"
    spans = base / "spans" / f"{workload}-s{seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    try:
        plan = gen.make_plan(workload, seed, root, work)
        with open(work / "plan.json", "w") as fh:
            json.dump(plan, fh)
        env = child_env(root)
        setups = [] if trace else [probe_setup(env) for _ in range(SETUP_PROBES)]
        result, spawned, peak_rss_mb = run_worker(work, env, seconds, trace, spans)
        setups.append(result["import_done"] - spawned)
        audit = checks.check_iterations(result["iterations"])
        if trace:
            metrics = dict(result["layers"])
            metrics.update(key_bits(result["iterations"]))
            metrics["metrics.rows_written"] = rows_written(result["iterations"])
            metrics["cli.replay_mismatched_files"] = audit["replay_mismatches"]
            units = {k: v[0] for k, v in spanlib.LAYER_METRICS.items()}
        else:
            timed = [it["wall"] for it in result["iterations"] if it["label"].startswith("r")]
            # the mean, not the median: desk tables differ tenfold in cost,
            # and over ten seeds the per-table median spread 0.27 of its
            # value where the mean spread 0.11-0.19
            metrics = {"wall_s": statistics.mean(timed),
                       "setup_s": statistics.median(setups),
                       "peak_rss_mb": peak_rss_mb}
            units = {k: v[0] for k, v in END_TO_END.items()}
        return {"workload": workload, "ops": audit["ops"], "failed": audit["failed"],
                "problems": audit["problems"],
                "walls": [it["wall"] for it in result["iterations"]],
                "replay_mismatches": audit["replay_mismatches"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(res: dict) -> None:
    for problem in res["problems"][:20]:
        print(f"check failed: {problem}")
    print(f"{res['workload']}: ops {res['ops']} count, ops_failed "
          f"{res['failed']} count, replay_mismatched_files "
          f"{res['replay_mismatches']} count")
    print(f"{res['workload']}: {len(res['walls'])} iterations, wall s: "
          + " ".join(f"{w:.3f}" for w in res["walls"]))
    for name, m in res["metrics"].items():
        print(f"{res['workload']}: {name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = BENCH.parent
    for need in (root / "src" / "qkdsched" / "cli.py",
                 root / "scenarios" / "global_a500.ini"):
        if not need.is_file():
            print(f"error: {need.relative_to(root)} is missing; run from a "
                  f"qkdsched source checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(root / "src"))     # for the untimed checks

    if args.workload == "all":
        runs = [(w, t) for t in (0, 1) for w in gen.WORKLOADS]
    else:
        runs = [(args.workload, args.trace)]
    results = []
    for workload, trace in runs:
        results.append(run_workload(root, workload, args.seed, args.seconds, trace))
        report(results[-1])
    if args.workload == "all":
        merged = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    else:
        merged = results[0]["metrics"]
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0 and not any(r["problems"] for r in results),
                      "attempted": sum(r["ops"] for r in results),
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
