"""The stage benchmark's tracer must still find every name it wraps.

``bench/spans.py`` times layer boundaries by replacing module attributes
by name (for example ``qkdsched.sched.solve_assignment``). A refactor that
renames or drops one of them breaks ``bench/run.py --trace 1`` without any
library test noticing, so this test installs the tracer and removes it.
"""

from pathlib import Path

from qkdsched import sched
from conftest import make_table

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_tracer_wraps_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)    # getattr raises on any missing name
        wrapped = {(m.__name__, attr): original for m, attr, original in tracer._undo}
        assert ("qkdsched.sched", "solve_assignment") in wrapped
        # bench/tests calls sched.WeightMatrix by name, as sched's exact re-solve does
        assert callable(sched.WeightMatrix)
        assert ("qkdsched.sched", "maximum_bipartite_matching") in wrapped
        # the only LSAP call site, shared by solve_assignment and rr's and op's raw maps
        assert ("qkdsched.assign", "linear_sum_assignment") in wrapped
        for (module, attr), original in wrapped.items():
            assert callable(original), f"{module}.{attr}"
    finally:
        undo = list(tracer._undo)
        tracer.unwrap_all()
    for module, attr, original in undo:
        assert getattr(module, attr) is original


def test_slot_plan_makes_one_traced_matching(monkeypatch):
    # sched.fallback_slots counts these calls: one per plan built, however
    # many of its slots are Hall-short
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    # slots 0 and 1 are Hall-short (stations 1 and 2 see only satellite 0),
    # slot 2 is not
    short = [(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0), (1, 0, 1.0), (2, 0, 1.0)]
    rows = [(t, s, g, b) for t in (0, 1) for s, g, b in short]
    rows += [(2, 0, 0, 1.0), (2, 1, 1, 1.0)]
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        for built in (1, 2):
            table = make_table(3, 3, 3, rows)
            sched.slot_plan(table)
            sched.slot_plan(table)    # cached: no second matching
            assert spans.aggregate(tracer.spans)["assign.matching"]["calls"] == built
    finally:
        tracer.unwrap_all()
