"""In-memory spans around qkdsched's layer boundaries, and layer metrics.

The tracer replaces module attributes (the names through which one layer
calls the next) with timing wrappers. Each call records a span
``[name, start, end, parent]``; spans stay in memory until the run ends.
Hooks read work counts off a call's arguments and result; they run after
the span closes, so their cost lands in the caller's self time.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def wrap(self, module_name: str, attr: str, name, hook=None) -> None:
        """Time every call of ``module.attr``; ``name`` may be a function of
        the call's arguments. A raised exception is counted as
        ``<name>.raised`` and re-raised."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            span = self.begin(name(*args, **kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.counts[self.spans[span][0] + ".raised"] += 1
                raise
            finally:
                self.end(span)
            if hook is not None:
                hook(self, result, *args, **kwargs)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


def self_times(spans) -> list:
    """Each span's duration minus the part its direct children cover."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def aggregate(spans) -> dict:
    """Per span name: calls, total seconds and self seconds."""
    selfs = self_times(spans)
    agg = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for (name, start, end, _), own in zip(spans, selfs):
        entry = agg[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
    return dict(agg)


def time_under(spans, name: str, ancestor_prefix: str) -> float:
    """Total time of ``name`` spans with an ancestor whose name starts with
    ``ancestor_prefix``."""
    total = 0.0
    for n, start, end, parent in spans:
        if n != name:
            continue
        while parent >= 0 and not spans[parent][0].startswith(ancestor_prefix):
            parent = spans[parent][3]
        if parent >= 0:
            total += end - start
    return total


# ------------------------------------------------------------ instrumentation

def _rows(*keys):
    def hook(t, result, *args, **kwargs):
        for key in keys:
            t.counts[key] += len(result)
    return hook


def _filter_hook(t, result, table, *args, **kwargs):
    t.counts["weather.rows_in"] += len(table)
    t.counts["weather.rows_out"] += len(result)


def _write_hook(t, result, table, *args, **kwargs):
    t.counts["channel.write_rows"] += len(table)


def _slots_hook(t, result, table, *args, **kwargs):
    t.counts["sched.occupied_slots"] += (len(np.unique(table.slot))
                                         * int(result.metadata.get("passes", 1)))


def _op_hook(t, result, table, *args, **kwargs):
    _slots_hook(t, result, table)
    t.counts["sched.op_passes"] += int(result.metadata["passes"])


def _rounds_hook(t, result, *args, **kwargs):
    t.counts["alloc.phase2_rounds"] += len(result.rounds)


def _nodes_hook(t, result, *args, **kwargs):
    t.counts["alloc.bnb_nodes"] += int(result.nodes)


def _export_hook(t, result, instance, path, *args, **kwargs):
    t.counts["alloc.export_lp_bytes"] += os.path.getsize(path)


def _op_name(t) -> str:
    # run_opportunistic is reached through cli._execute, whose span carries
    # the scheduler name
    return "sched.op." + t.parent_name().split(".", 1)[1]


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    w = tracer.wrap
    cli = "qkdsched.cli"
    w(cli, "load_scenario", "scenario.load")
    w(cli, "build_visibility", "orbit.visibility", _rows("orbit.triples"))
    w(cli, "load_clouds", "weather.clouds")
    w(cli, "cloud_matrix", "weather.clouds")
    w(cli, "build_estimates", "channel.estimates", _rows("channel.rows"))
    w(cli, "read_estimates_csv", "channel.read",
      _rows("channel.rows", "channel.read_rows"))
    w(cli, "write_estimates_csv", "channel.write", _write_hook)
    w(cli, "apply_filter", "weather.filter", _filter_hook)
    w(cli, "_execute", lambda name, *a, **k: "run." + name)
    w(cli, "run_rr", "sched.rr", _slots_hook)
    w(cli, "run_greedy", "sched.greedy", _slots_hook)
    w(cli, "derive_min_rates", "sched.min_rates")
    w(cli, "run_opportunistic", lambda *a, **k: _op_name(tracer), _op_hook)
    w(cli, "iterate_phase2", "alloc.phase2", _rounds_hook)
    w(cli, "solve_baseline", "alloc.baseline")
    w(cli, "summarize", "metrics.summarize")
    w(cli, "choice_histograms", "metrics.histograms")
    for writer in ("write_schedule_csv", "write_pools_csv", "write_allocation_csv",
                   "write_report_json", "write_comparison_csv", "write_histograms_csv"):
        w(cli, writer, "metrics.write")
    w("qkdsched.sched", "solve_assignment", "assign.solve")
    w("qkdsched.sched", "maximum_bipartite_matching", "assign.matching")
    w("qkdsched.assign", "linear_sum_assignment", "assign.lsap")
    w("qkdsched.alloc", "solve_phase2_maxmin", "alloc.phase2_round")
    w("qkdsched.alloc", "build_baseline_instance", "alloc.baseline_build")
    w("qkdsched.alloc", "branch_and_bound", "alloc.bnb", _nodes_hook)
    w("qkdsched.alloc", "linprog", "alloc.lp")
    w("qkdsched.alloc", "export_lp", "alloc.export_lp", _export_hook)


# ------------------------------------------------------------ layer metrics

SCHEDULERS = ("rr", "greedy", "op-rr", "op-greedy", "maxmin", "maxsum")

# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "assign.calls": ("count", "lower"),
    "assign.s": ("s", "lower"),
    "assign.self_s": ("s", "lower"),
    "assign.lsap_calls": ("count", "lower"),
    "assign.lsap_s": ("s", "lower"),
    "assign.lsap_per_call": ("ratio", "lower"),
    "assign.infeasible": ("count", "lower"),
    "sched.rr_s": ("s", "lower"),
    "sched.greedy_s": ("s", "lower"),
    "sched.op_rr_s": ("s", "lower"),
    "sched.op_greedy_s": ("s", "lower"),
    "sched.min_rates_s": ("s", "lower"),
    "sched.op_passes": ("count", "lower"),
    "sched.op_pass_s": ("s", "lower"),
    "sched.occupied_slots": ("count", "lower"),
    "sched.fallback_slots": ("count", "lower"),
    "sched.self_s": ("s", "lower"),
    "alloc.baseline_s": ("s", "lower"),
    "alloc.baseline_build_s": ("s", "lower"),
    "alloc.bnb_s": ("s", "lower"),
    "alloc.bnb_self_s": ("s", "lower"),
    "alloc.bnb_nodes": ("count", "lower"),
    "alloc.lp_calls": ("count", "lower"),
    "alloc.lp_s": ("s", "lower"),
    "alloc.export_lp_s": ("s", "lower"),
    "alloc.export_lp_bytes": ("bytes", "lower"),
    "alloc.phase2_s": ("s", "lower"),
    "alloc.phase2_rounds": ("count", "lower"),
    "alloc.phase2_build_s": ("s", "lower"),
    **{f"alloc.min_key_bits.{n}": ("bits", "higher") for n in SCHEDULERS},
    **{f"alloc.total_key_bits.{n}": ("bits", "higher") for n in SCHEDULERS},
    "orbit.visibility_s": ("s", "lower"),
    "orbit.triples": ("count", "higher"),
    "orbit.triples_per_s": ("1/s", "higher"),
    "channel.estimates_s": ("s", "lower"),
    "channel.rows": ("count", "higher"),
    "channel.write_s": ("s", "lower"),
    "channel.write_rows_per_s": ("1/s", "higher"),
    "channel.read_s": ("s", "lower"),
    "channel.read_rows_per_s": ("1/s", "higher"),
    "weather.clouds_s": ("s", "lower"),
    "weather.filter_s": ("s", "lower"),
    "weather.kept_ratio": ("ratio", "higher"),
    "metrics.summarize_s": ("s", "lower"),
    "metrics.histograms_s": ("s", "lower"),
    "metrics.write_s": ("s", "lower"),
    "metrics.rows_written": ("count", "higher"),
    "scenario.load_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.replay_mismatched_files": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts) -> dict:
    """Per-layer figures from one traced run's spans and hook counts.

    ``assign.s`` covers the solver and the Hall-violation matching;
    ``alloc.bnb_*`` covers every branch-and-bound, Phase 2's included;
    ``alloc.phase2_build_s`` is Phase 2 outside branch-and-bound;
    ``sched.occupied_slots`` counts slot solves (occupied slots times
    passes); ``cli.self_s`` is CLI time outside every wrapped stage. Result
    counts (key bits, replay mismatches, rows written) and the trace's wall
    times come from the artifacts and the worker, and the caller adds them.
    """
    agg = aggregate(spans)

    def tot(name):
        return agg.get(name, {}).get("s", 0.0)

    def own(name):
        return agg.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    op_rr, op_greedy = tot("sched.op.op-rr"), tot("sched.op.op-greedy")
    sched_names = ("sched.rr", "sched.greedy", "sched.op.op-rr",
                   "sched.op.op-greedy", "sched.min_rates")
    phase2 = tot("alloc.phase2")
    m = {
        "assign.calls": calls("assign.solve"),
        "assign.s": tot("assign.solve") + tot("assign.matching"),
        "assign.self_s": own("assign.solve") + own("assign.matching"),
        "assign.lsap_calls": calls("assign.lsap"),
        "assign.lsap_s": tot("assign.lsap"),
        "assign.lsap_per_call": _ratio(calls("assign.lsap"), calls("assign.solve")),
        "assign.infeasible": counts.get("assign.solve.raised", 0),
        "sched.rr_s": tot("sched.rr"),
        "sched.greedy_s": tot("sched.greedy"),
        "sched.op_rr_s": op_rr,
        "sched.op_greedy_s": op_greedy,
        "sched.min_rates_s": tot("sched.min_rates"),
        "sched.op_passes": counts.get("sched.op_passes", 0),
        "sched.op_pass_s": _ratio(op_rr + op_greedy, counts.get("sched.op_passes", 0)),
        "sched.occupied_slots": counts.get("sched.occupied_slots", 0),
        "sched.fallback_slots": calls("assign.matching"),
        "sched.self_s": sum(own(n) for n in sched_names),
        "alloc.baseline_s": tot("alloc.baseline"),
        "alloc.baseline_build_s": tot("alloc.baseline_build"),
        "alloc.bnb_s": tot("alloc.bnb"),
        "alloc.bnb_self_s": own("alloc.bnb"),
        "alloc.bnb_nodes": counts.get("alloc.bnb_nodes", 0),
        "alloc.lp_calls": calls("alloc.lp"),
        "alloc.lp_s": tot("alloc.lp"),
        "alloc.export_lp_s": tot("alloc.export_lp"),
        "alloc.export_lp_bytes": counts.get("alloc.export_lp_bytes", 0),
        "alloc.phase2_s": phase2,
        "alloc.phase2_rounds": counts.get("alloc.phase2_rounds", 0),
        "alloc.phase2_build_s": phase2 - time_under(spans, "alloc.bnb", "alloc.phase2"),
        "orbit.visibility_s": tot("orbit.visibility"),
        "orbit.triples": counts.get("orbit.triples", 0),
        "orbit.triples_per_s": _ratio(counts.get("orbit.triples", 0), tot("orbit.visibility")),
        "channel.estimates_s": tot("channel.estimates"),
        "channel.rows": counts.get("channel.rows", 0),
        "channel.write_s": tot("channel.write"),
        "channel.write_rows_per_s": _ratio(counts.get("channel.write_rows", 0),
                                           tot("channel.write")),
        "channel.read_s": tot("channel.read"),
        "channel.read_rows_per_s": _ratio(counts.get("channel.read_rows", 0),
                                          tot("channel.read")),
        "weather.clouds_s": tot("weather.clouds"),
        "weather.filter_s": tot("weather.filter"),
        "weather.kept_ratio": _ratio(counts.get("weather.rows_out", 0),
                                     counts.get("weather.rows_in", 0)),
        "metrics.summarize_s": tot("metrics.summarize"),
        "metrics.histograms_s": tot("metrics.histograms"),
        "metrics.write_s": tot("metrics.write"),
        "scenario.load_s": tot("scenario.load"),
        "cli.self_s": own("cli.main"),
    }
    return m
