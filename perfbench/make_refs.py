"""Write data/<workload>.json: the reference data a workload checks against.

    PYTHONPATH=src python3 perfbench/make_refs.py --workload solve-n100

For every pool instance it records the reference tour and its length (the
Held-Karp optimum for exact-n16; elsewhere the shortest tour of a long
pipeline run and the round-capped run), the round-capped output the
benchmark compares later runs with (the tour, or the pruned heat map's
SHA-256 for train-n200), and the work of the round-capped run (search
attempts, or training steps), by which runs draw balanced instance sets.
Slow: minutes per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import tspheat  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402

# long runs that give the best-known tours above Held-Karp's reach
LONG_RUN = {"train-n200": ("tsp100", 15), "solve-n100": ("tsp100", 40)}
# search seeds of the long runs are offset so they differ from the capped run
LONG_SEED_OFFSET = 1_000_000


def record(w: W.Workload, instance_id: int) -> dict:
    coords = inputs.coordinates(w.n, instance_id)
    inst = tspheat.Instance(coords=coords)
    case = W.Case(instance_id, coords, inst, {})
    rec = {"id": instance_id}
    tours = []
    if w.solves:
        tracer = Tracer("make_refs")
        with tracer.patched(W.trace_targets()):
            _, order = W.run_solve(w, case)
        rec["work"] = tracer.named("search.run_search")[0]["counts"]["attempts"]
        rec["capped_tour"] = [int(c) for c in order]
        tours.append(rec["capped_tour"])
    else:
        _, pruned, trace = W.run_train(case)
        rec["work"] = trace.steps
        rec["pruned_sha256"] = W.pruned_digest(pruned)
    if w.n <= tspheat.bench.HELD_KARP_MAX_N:
        tour, _ = tspheat.held_karp_exact(inst)
        tours = [[int(c) for c in tour.order]]
        rec["optimal"] = True
    else:
        preset, rounds = LONG_RUN[w.name]
        params = tspheat.PRESETS[preset].with_budget(max_rounds=rounds)
        _, tour = tspheat.solve_pipeline(
            inst, W.train_config(case), params, instance_id + LONG_SEED_OFFSET)
        tours.append([int(c) for c in tour.order])
    best = min(tours, key=lambda t: inputs.tour_length(coords, t))
    rec["ref_tour"] = best
    rec["ref_length"] = inputs.tour_length(coords, best)
    return rec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    args = ap.parse_args()
    w = W.WORKLOADS[args.workload]
    recs = []
    for i in range(w.pool):
        recs.append(record(w, i))
        print(f"{w.name} {i + 1}/{w.pool} ref {recs[-1]['ref_length']!r}", flush=True)
    data = {
        "workload": w.name,
        "n": w.n,
        "pool": w.pool,
        "reference": "held_karp_exact" if w.n <= tspheat.bench.HELD_KARP_MAX_N
        else "shortest of the capped run and solve_pipeline %s x %d rounds" % LONG_RUN[w.name],
        "instances": recs,
    }
    os.makedirs(inputs.DATA_DIR, exist_ok=True)
    with open(os.path.join(inputs.DATA_DIR, f"{w.name}.json"), "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
