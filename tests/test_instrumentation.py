"""The stage benchmark's tracer must still find every name it wraps.

``bench/spans.py`` times layer boundaries by replacing module attributes
by name (for example ``qkdsched.sched.solve_assignment``). A refactor that
renames or drops one of them breaks ``bench/run.py --trace 1`` without any
library test noticing, so this test installs the tracer and removes it.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_tracer_wraps_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)    # getattr raises on any missing name
        wrapped = {(m.__name__, attr): original for m, attr, original in tracer._undo}
        assert ("qkdsched.sched", "solve_assignment") in wrapped
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
