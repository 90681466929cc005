"""The benchmark's workloads: set-up, the timed pipelines, the output checks,
the traced pass and the per-layer probes.

Every pipeline call is round-capped and seeded by its instance id, so each
instance's output is bit-reproducible and can be compared with the output
recorded when the reference files were made.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

import tspheat
import tspheat.bench
import tspheat.generator
import tspheat.search

import inputs
from spans import Tracer, duration

# candidate-list size used by train-n200 after training, as the search
# presets for n >= 100 use it
TRAIN_M = 8
# a run starts no instance after this many seconds, so a program that became
# far slower still ends inside the 180 s limit
TIME_LIMIT_S = 90.0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    # instances in data/<name>.json; each run draws a subset of them
    pool: int
    # measured seconds per instance on the 2-core reference machine; turns
    # --seconds into a fixed instance count, so a run does fixed work
    sec_per_instance: float
    # search preset: the pipeline's on solve workloads, the probes' always
    preset: str
    # round cap of the solve pipeline; None means the workload only trains
    rounds: Optional[int]
    # instances that set-up solves again with held_karp_exact
    held_karp_checks: int
    # seconds of one speed.Probe(n) on the 2-core reference machine in its
    # faster state; pipeline_s is in seconds at that speed
    probe_ref_s: float

    @property
    def solves(self) -> bool:
        return self.rounds is not None

    def count(self, seconds: float) -> int:
        return max(1, min(self.pool, round(seconds / self.sec_per_instance)))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-n200", 200, 32, 1.8, "tsp200", None, 0, 2.1e-3),
        Workload("solve-n100", 100, 24, 3.2, "tsp100", 10, 0, 1.7e-3),
        Workload("exact-n16", 16, 400, 0.2, "tsp20", 12, 4, 6.4e-3),
    )
}


@dataclass
class Case:
    id: int
    coords: list
    inst: tspheat.Instance
    ref: dict


@dataclass
class Outcome:
    id: int
    seconds: float
    failure: Optional[str] = None
    length: Optional[float] = None
    excess_pct: Optional[float] = None
    optimal: Optional[bool] = None
    coverage: Optional[float] = None
    final_loss: Optional[float] = None
    changed: bool = False


def train_config(case: Case) -> tspheat.TrainConfig:
    return tspheat.TrainConfig(seed=case.id)


def search_m(w: Workload) -> int:
    return min(tspheat.PRESETS[w.preset].m, w.n - 1)


def setup(w: Workload, seed: int, count: int, check_optima: bool = True) -> list[Case]:
    """Instances of one run with checked references.

    Raises inputs.BadReference when a stored reference does not match the
    regenerated instance, or, with check_optima, when held_karp_exact
    disagrees with a stored optimum.
    """
    refs = inputs.load_references(w.name)
    if refs["n"] != w.n or refs["pool"] != w.pool:
        raise inputs.BadReference(f"{w.name}.json describes another pool")
    cases = []
    for instance_id in inputs.run_ids(seed, refs["ranked"], count):
        coords = inputs.coordinates(w.n, instance_id)
        ref = inputs.checked_reference(refs, instance_id, coords)
        inst = tspheat.Instance(coords=np.array(coords), name=f"{w.name}-{instance_id}")
        cases.append(Case(instance_id, coords, inst, ref))
    for case in cases[: w.held_karp_checks if check_optima else 0]:
        tour, length = tspheat.held_karp_exact(case.inst)
        own = inputs.tour_length(case.coords, tour.order)
        if not (inputs.lengths_agree(length, case.ref["ref_length"])
                and inputs.lengths_agree(own, length)):
            raise inputs.BadReference(
                f"instance {case.id}: held_karp_exact gives {length!r} "
                f"(measured {own!r}), stored optimum {case.ref['ref_length']!r}"
            )
    return cases


# ---------------------------------------------------------------------------
# Pipelines and their checks
# ---------------------------------------------------------------------------

def pruned_digest(pruned: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(pruned, dtype=np.float64).tobytes()).hexdigest()


def run_train(case: Case):
    heat, _, trace = tspheat.optimize_heatmap(case.inst, train_config(case))
    _, pruned = tspheat.top_m_filter(heat, TRAIN_M)
    return heat, pruned, trace


def run_solve(w: Workload, case: Case):
    params = tspheat.PRESETS[w.preset].with_budget(max_rounds=w.rounds)
    result, tour = tspheat.solve_pipeline(case.inst, train_config(case), params, case.id)
    return result.length, tour.order


def check_train(case: Case, out: Outcome, heat, pruned, trace) -> None:
    n = case.inst.n
    for name, a in (("heat map", heat), ("pruned heat map", pruned)):
        a = np.asarray(a)
        if a.shape != (n, n) or not np.isfinite(a).all():
            out.failure = f"{name} is not a finite {n}x{n} matrix"
            return
    if not np.array_equal(pruned, pruned.T):
        out.failure = "pruned heat map is not symmetric"
        return
    if not math.isfinite(trace.final.total):
        out.failure = "final loss is not finite"
        return
    tour = case.ref["ref_tour"]
    kept = sum(pruned[tour[k], tour[(k + 1) % n]] > 0 for k in range(n))
    out.coverage = kept / n
    out.final_loss = trace.final.total
    out.changed = pruned_digest(pruned) != case.ref["pruned_sha256"]


def check_solve(case: Case, out: Outcome, reported: float, order) -> None:
    problem = inputs.tour_problem(case.coords, order)
    if problem is not None:
        out.failure = problem
        return
    length = inputs.tour_length(case.coords, order)
    if not inputs.lengths_agree(length, reported):
        out.failure = f"reported length {reported!r}, tour measures {length!r}"
        return
    ref = case.ref["ref_length"]
    if case.ref.get("optimal") and length < ref and not inputs.lengths_agree(length, ref):
        out.failure = f"tour {length!r} is shorter than the optimum {ref!r}"
        return
    out.length = length
    out.excess_pct = 100.0 * (length - ref) / ref
    if case.ref.get("optimal"):
        out.optimal = inputs.lengths_agree(length, ref)
    out.changed = [int(c) for c in order] != case.ref["capped_tour"]


def run_case(w: Workload, case: Case) -> Outcome:
    """One timed pipeline call, then the benchmark's own checks on its output.

    Only the pipeline call is timed. A call that raises counts as failed.
    """
    t0 = time.perf_counter()
    try:
        result = run_solve(w, case) if w.solves else run_train(case)
    except Exception as exc:  # a failed instance is counted, not fatal
        return Outcome(case.id, time.perf_counter() - t0, failure=f"raised {exc!r}")
    out = Outcome(case.id, time.perf_counter() - t0)
    if w.solves:
        check_solve(case, out, *result)
    else:
        check_train(case, out, *result)
    return out


def run_pass(w: Workload, cases: list[Case], deadline: float,
             tracer: Optional[Tracer] = None) -> list[Outcome]:
    """Each case once, in order; cases still waiting at `deadline`
    (a perf_counter time) are not run and count as failed."""
    outcomes = []
    for case in cases:
        if time.perf_counter() > deadline:
            outcomes.append(Outcome(case.id, 0.0, failure="not run: time limit"))
        elif tracer is None:
            outcomes.append(run_case(w, case))
        else:
            with tracer.span("bench.instance"):
                outcomes.append(run_case(w, case))
    return outcomes


def summary(w: Workload, outcomes: list[Outcome]) -> dict:
    """End-to-end figures of one pass: {name: (value, unit)}."""
    ok = [o for o in outcomes if o.failure is None]
    secs = [o.seconds for o in outcomes if o.seconds > 0]
    res = {
        "wall_s": (sum(secs), "s"),
        "instance_s.p50": (statistics.median(secs) if secs else math.nan, "s"),
        "instances": (len(outcomes), "count"),
        "failed_share": ((len(outcomes) - len(ok)) / len(outcomes), "ratio"),
    }
    if len(secs) >= 100:
        res["instance_s.p90"] = (statistics.quantiles(secs, n=10)[-1], "s")
    if ok and w.solves:
        res["excess_pct"] = (statistics.fmean(o.excess_pct for o in ok), "%")
        res["tours_changed"] = (sum(o.changed for o in ok), "count")
        if ok[0].optimal is not None:
            res["optimal_share"] = (sum(o.optimal for o in ok) / len(ok), "ratio")
    elif ok:
        res["coverage"] = (statistics.fmean(o.coverage for o in ok), "ratio")
        res["final_loss"] = (statistics.fmean(o.final_loss for o in ok), "loss")
        res["heatmaps_changed"] = (sum(o.changed for o in ok), "count")
    return res


# ---------------------------------------------------------------------------
# Tracing and per-layer probes
# ---------------------------------------------------------------------------

def _steps(result):
    return {"steps": result[2].steps}


def _search_counts(result):
    stats = result[1]
    return {"attempts": stats.total_expansions, "rounds": stats.rounds}


def trace_targets():
    """Public layer functions wrapped in the traced pass, where they are
    looked up: the package namespace the benchmark calls through, and the
    module namespaces solve_pipeline and run_search call through."""
    T = tspheat
    return [
        (T, "solve_pipeline", "bench.solve_pipeline", None),
        (T, "held_karp_exact", "bench.held_karp_exact", None),
        (T, "optimize_heatmap", "generator.optimize_heatmap", _steps),
        (T, "top_m_filter", "candidates.top_m_filter", None),
        (T.bench, "optimize_heatmap", "generator.optimize_heatmap", _steps),
        (T.bench, "top_m_filter", "candidates.top_m_filter", None),
        (T.bench, "run_search", "search.run_search", _search_counts),
        (T.generator, "distance_matrix", "instances.distance_matrix", None),
        (T.search, "distance_matrix", "instances.distance_matrix", None),
        (T.search, "candidate_lists", "candidates.candidate_lists", None),
    ]


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


# fixed repetition counts keep each probe's work the same from run to run
EXPAND_CALLS = 5
YIELD_ATTEMPTS = 400
HELD_KARP_MAX_CITIES = 16


def probes(w: Workload, case: Case) -> dict:
    """Standalone calls into each layer at the workload's n, on the run's
    first instance: {name: (value, unit)}."""
    T = tspheat
    inst, n, cfg = case.inst, case.inst.n, train_config(case)
    d = T.distance_matrix(inst)
    logits = T.init_logits(n, cfg)
    t = T.column_softmax(logits)
    h = T.indicator_to_heatmap(t)
    heat, _, _ = T.optimize_heatmap(inst, cfg)
    m = search_m(w)
    _, pruned = T.top_m_filter(heat, m)
    cand = T.candidate_lists(pruned, m, "heat")
    params = T.PRESETS[w.preset]
    start = T.random_tour(n, case.id)
    tour = T.two_opt_improve(d, start)
    res = {
        "instances.distance_matrix_ms": (_median_ms(lambda: T.distance_matrix(inst), 20), "ms"),
        "heatmap.loss_gradient_ms": (
            _median_ms(lambda: T.loss_gradient(logits, d, cfg.lambda1, cfg.lambda2), 20), "ms"),
        "heatmap.surrogate_loss_ms": (
            _median_ms(lambda: T.surrogate_loss(t, h, d, cfg.lambda1, cfg.lambda2), 20), "ms"),
        "candidates.lists_ms": (_median_ms(lambda: T.candidate_lists(pruned, m, "heat"), 10), "ms"),
        "search.two_opt_ms": (_median_ms(lambda: T.two_opt_improve(d, start), 5), "ms"),
    }
    calls = iter(range(EXPAND_CALLS))
    res["search.expand_ms"] = (_median_ms(
        lambda: T.expand_node(d, tour, cand, pruned, T.SearchStats(), params,
                              np.random.default_rng(next(calls))),
        EXPAND_CALLS), "ms")
    single = replace(params, expand_budget=1)
    rng = np.random.default_rng(case.id)
    stats = T.SearchStats()
    hits = sum(
        T.expand_node(d, tour, cand, pruned, stats, single, rng) is not None
        for _ in range(YIELD_ATTEMPTS)
    )
    res["search.expand_yield"] = (hits / YIELD_ATTEMPTS, "ratio")
    small = T.Instance(coords=inst.coords[:HELD_KARP_MAX_CITIES])
    res["bench.held_karp_s"] = (1e-3 * _median_ms(lambda: T.held_karp_exact(small), 3), "s")
    if not w.solves:
        t0 = time.perf_counter()
        _, st = T.run_search(inst, pruned, params.with_budget(max_rounds=1), case.id)
        res.update(_search_figures([time.perf_counter() - t0], [st.total_expansions], [st.rounds]))
    return res


def _search_figures(seconds, attempts, rounds) -> dict:
    return {
        "search.search_s": (statistics.median(seconds), "s"),
        "search.attempts": (statistics.fmean(attempts), "count"),
        "search.rounds": (statistics.fmean(rounds), "count"),
        "search.attempt_us": (1e6 * sum(seconds) / sum(attempts), "us"),
    }


def span_figures(tracer: Tracer, instances: int) -> dict:
    """Per-layer figures from the traced pass: {name: (value, unit)}."""
    train = tracer.named("generator.optimize_heatmap")
    res = {
        "generator.train_s": (statistics.median(duration(s) for s in train), "s"),
        "generator.steps": (statistics.fmean(s["counts"]["steps"] for s in train), "count"),
        "generator.step_ms": (
            1e3 * statistics.median(duration(s) / s["counts"]["steps"] for s in train), "ms"),
        "candidates.top_m_ms": (
            1e3 * statistics.median(duration(s) for s in tracer.named("candidates.top_m_filter")),
            "ms"),
        "instances.distance_matrix_calls": (
            len(tracer.named("instances.distance_matrix")) / instances, "count"),
        "candidates.lists_calls": (
            len(tracer.named("candidates.candidate_lists")) / instances, "count"),
    }
    search = tracer.named("search.run_search")
    if search:
        res.update(_search_figures(
            [duration(s) for s in search],
            [s["counts"]["attempts"] for s in search],
            [s["counts"]["rounds"] for s in search],
        ))
    return res
