"""The benchmark's hold on the package: the names and call shapes that
perfbench/workloads.py uses (expand_node, candidate_lists in "heat" mode,
solve_pipeline's (result, tour) pair, and every module attribute its traced
pass patches). One traced exact-n16 case and the per-layer probes run here,
so a rename or deletion that would break the benchmark fails this suite.
perfbench is imported as it stands and is not changed.
"""

import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]

import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402


def test_traced_case_and_probes_run_clean():
    w = W.WORKLOADS["exact-n16"]
    (case,) = W.setup(w, 1, 1, check_optima=False)
    tracer = Tracer("contract")
    with tracer.patched(W.trace_targets()):
        out = W.run_case(w, case)
    assert out.failure is None
    assert out.optimal is not None
    figures = W.span_figures(tracer, 1)
    figures.update(W.probes(w, case))
    for name, (value, _) in figures.items():
        assert math.isfinite(value), name
    for value in (out.seconds, out.length, out.excess_pct):
        assert math.isfinite(value)
