"""One workload in one fresh process: the timed loop or the traced pairs.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. It imports
``qkdsched.cli`` once, then calls ``qkdsched.cli.main`` with the plan's
argv lists. ``--probe`` only imports the CLI and prints the monotonic clock,
so the parent can time interpreter start plus import.

Timed mode runs iterations until the next one would overrun ``--seconds``,
at least ``MIN_ITERATIONS`` of them. Traced mode runs one untimed warm-up
iteration, then each traced iteration twice, first untraced and then under
the span tracer, so the difference is the tracing overhead. Every iteration records a ``group``:
iterations of one group ran on the same inputs and must write identical
artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
import traceback

MIN_ITERATIONS = 2
# wall-clock budget of all CLI calls of one worker, so that a run ends well
# inside the benchmark's 180 s limit even when the program hangs
BUDGET_S = 120.0


class BudgetExceeded(BaseException):
    """Raised from SIGALRM; not an Exception, so the CLI cannot swallow it."""


def _alarm(signum, frame):
    raise BudgetExceeded


def invoke(cli, invocation: dict, label: str, deadline: float) -> dict:
    """Run one CLI call; past ``deadline`` it is stopped and reported as
    exit code ``"budget"``, so a hang shows as a failed operation."""
    argv = [a.replace("{rep}", label) for a in invocation["argv"]]
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.001))
    try:
        rc = cli.main(argv)
    except BudgetExceeded:
        rc = "budget"
    except SystemExit as exc:       # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {**invocation, "rc": rc}


def run_iteration(cli, plan: dict, group: int, label: str, deadline: float,
                  tracer=None) -> dict:
    """Run one iteration, then move a repeated iteration's output tree from
    its fixed run location to ``label`` so the next repetition sees the
    same argv."""
    run_label = "cur" if plan["repeat"] else label
    invocations = []
    start = time.perf_counter()
    for invocation in plan["iterations"][group]:
        span = tracer.begin("cli.main") if tracer else None
        try:
            invocations.append(invoke(cli, invocation, run_label, deadline))
        finally:
            if tracer:
                tracer.end(span)
    wall = time.perf_counter() - start
    if plan["repeat"] and os.path.isdir(os.path.join(plan["out"], run_label)):
        os.rename(os.path.join(plan["out"], run_label), os.path.join(plan["out"], label))
    for inv in invocations:
        inv["argv"] = [a.replace("{rep}", label) for a in inv["argv"]]
    return {"group": group, "label": label, "wall": wall, "invocations": invocations}


def out_of_budget(iteration: dict) -> bool:
    return any(inv["rc"] == "budget" for inv in iteration["invocations"])


def timed(cli, plan: dict, seconds: float, deadline: float) -> list:
    iterations = []
    start = time.monotonic()
    while True:
        k = len(iterations)
        group = 0 if plan["repeat"] else k
        if group >= len(plan["iterations"]):
            break
        iterations.append(run_iteration(cli, plan, group, f"r{k}", deadline))
        if out_of_budget(iterations[-1]):
            return iterations
        typical = statistics.median(it["wall"] for it in iterations)
        if k + 1 >= MIN_ITERATIONS and time.monotonic() - start + typical > seconds:
            break
    if not plan["repeat"]:
        # the desk batch never repeats a table inside the timed loop, so
        # re-run the first one, untimed, for the byte-identity check
        iterations.append(run_iteration(cli, plan, 0, "again", deadline))
    return iterations


def traced(cli, plan: dict, spans_path: str, deadline: float) -> tuple:
    import spans as spanlib

    tracer = spanlib.Tracer()
    # the first iteration of a process runs cold; keep it out of the pairs
    iterations = [run_iteration(cli, plan, 0, "warmup", deadline)]
    for group in range(plan["traced_iterations"]):
        g = group if not plan["repeat"] else 0
        iterations.append(run_iteration(cli, plan, g, f"u{group}", deadline))
        spanlib.instrument(tracer)
        try:
            iterations.append(run_iteration(cli, plan, g, f"t{group}", deadline, tracer))
        finally:
            tracer.unwrap_all()
        if out_of_budget(iterations[-2]) or out_of_budget(iterations[-1]):
            break
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
    layers = spanlib.layer_metrics(tracer.spans, tracer.counts)
    untraced = sum(it["wall"] for it in iterations if it["label"].startswith("u"))
    traced_wall = sum(it["wall"] for it in iterations if it["label"].startswith("t"))
    layers["trace.wall_s"] = traced_wall
    layers["trace.untraced_wall_s"] = untraced
    layers["trace.overhead_s"] = traced_wall - untraced
    return iterations, layers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--plan")
    parser.add_argument("--result")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    import qkdsched.cli as cli
    import_done = time.monotonic()
    if args.probe:
        print(repr(import_done))
        return 0

    with open(args.plan) as fh:
        plan = json.load(fh)
    result = {"import_done": import_done}
    deadline = import_done + BUDGET_S
    signal.signal(signal.SIGALRM, _alarm)
    if args.trace:
        result["iterations"], result["layers"] = traced(cli, plan, args.spans, deadline)
    else:
        result["iterations"] = timed(cli, plan, args.seconds, deadline)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
