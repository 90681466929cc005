"""Self-check of the benchmark, run from the repository root:

    python3 -m pytest perfbench -q

It checks that a tiny run of every workload prints every metric that
BENCHMARK.json names, that the input generator is PCG64, and that a broken
tour is counted as failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tspheat  # noqa: E402

import inputs  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    # --seconds 0.1 asks for one instance per pass on every workload
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert np.isfinite(m["value"]), name


def test_generator_is_numpy_pcg64():
    ours = inputs.Pcg64(2024, 16)
    bits = np.random.PCG64()
    state = bits.state
    state["state"] = {"state": ours.state, "inc": ours.inc}
    bits.state = state
    theirs = np.random.Generator(bits)
    assert [ours.random() for _ in range(64)] == list(theirs.random(64))


def test_same_seed_same_instances():
    ranked = list(range(400))
    assert inputs.run_ids(5, ranked, 50) == inputs.run_ids(5, ranked, 50)
    assert inputs.run_ids(5, ranked, 50) != inputs.run_ids(6, ranked, 50)
    assert sorted(i // 8 for i in inputs.run_ids(5, ranked, 50)) == list(range(50))
    assert inputs.coordinates(16, 9) == inputs.coordinates(16, 9)


@pytest.mark.parametrize("corrupt", ["repeat a city", "wrong length"])
def test_corrupted_tour_counts_as_failed(monkeypatch, corrupt):
    w = W.WORKLOADS["exact-n16"]
    cases = W.setup(w, seed=1, count=2)
    solve = tspheat.solve_pipeline
    calls = []

    def broken_second_call(*args, **kwargs):
        result, tour = solve(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:
            if corrupt == "repeat a city":
                # the reported length matches the broken order and is no
                # shorter than the optimum, so only the permutation check
                # can catch it
                order = tour.order.copy()
                order[0] = order[len(order) // 2]
                tour = type("BrokenTour", (), {"order": order})()
                length = inputs.tour_length(cases[1].coords, order)
                assert length > cases[1].ref["ref_length"]
            else:
                length = result.length * 1.01
            result = type(result)(**{**result.__dict__, "length": length})
        return result, tour

    monkeypatch.setattr(tspheat, "solve_pipeline", broken_second_call)
    outcomes = W.run_pass(w, cases, time.perf_counter() + W.TIME_LIMIT_S)
    assert outcomes[0].failure is None
    assert outcomes[1].failure is not None
    assert W.summary(w, outcomes)["failed_share"] == (0.5, "ratio")


def test_references_are_checked_on_load():
    w = W.WORKLOADS["exact-n16"]
    refs = inputs.load_references(w.name)
    rec = dict(refs["by_id"][0])
    rec["ref_length"] *= 1.001
    refs["by_id"][0] = rec
    with pytest.raises(inputs.BadReference):
        inputs.checked_reference(refs, 0, inputs.coordinates(w.n, 0))
