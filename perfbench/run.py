"""tspheat benchmark: one workload run, timed from outside the package.

    python3 perfbench/run.py --workload exact-n16 --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. The run
draws its instances from --seed, sizes its fixed amount of work from
--seconds, checks every output with its own code, prints each figure by name
with its unit, and ends with one JSON line holding the metrics that
BENCHMARK.json names: its end_to_end metrics with --trace 0, its per_layer
metrics with --trace 1. A full record (environment, every figure, spans) is
written to perfbench/out/. Timed set-ups run in fresh interpreters started
with --setup-only; pipeline times are also given scaled by the machine speed
that speed.py probes around each instance.

With --trace 1 the run makes an untraced pass and a traced pass over the same
instances (half the work each), then calls each layer standalone.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads; never more than the cores we have
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import uuid  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
# set-up is timed SETUP_RUNS times, each in a fresh interpreter, and the
# median is reported
SETUP_RUNS = 7

# the program under test comes from this checkout's src/ and nowhere else
sys.path.insert(0, SRC)
try:
    import numpy as np  # noqa: E402
    import tspheat  # noqa: E402

    import speed  # noqa: E402  (next to this script)
    import workloads as W  # noqa: E402
    from spans import Tracer  # noqa: E402
except ImportError as exc:
    sys.exit(f"cannot import tspheat from {SRC}: {exc}")
if os.path.dirname(os.path.dirname(os.path.abspath(tspheat.__file__))) != SRC:
    sys.exit(f"tspheat was imported from {tspheat.__file__}, not from {SRC}")


def cpu_times() -> list[int]:
    """The aggregate 'cpu' line of /proc/stat, in clock ticks."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return []


def steal_pct(before: list[int], after: list[int]) -> float | None:
    """Share of all CPU ticks stolen by the hypervisor between two reads."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # guest time is already counted in user time
    return 100.0 * delta[7] / total if total else 0.0


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(cpu_before, cpu_after) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
        "steal_pct": steal_pct(cpu_before, cpu_after),
    }


def output(o) -> tuple:
    return (o.length, o.coverage, o.final_loss, o.changed)


def timed_setups(w, seed: int, seconds: float) -> list[float]:
    """Seconds of SETUP_RUNS set-ups, each timed from starting a fresh
    python3 with --setup-only to its exit: loading numpy and tspheat,
    building the instances, checking the references and, on exact-n16,
    solving some of them again with held_karp_exact."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", w.name,
           "--seed", str(seed), "--seconds", repr(seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"set-up failed: {proc.stderr.strip()}")
    return times


def measure(w, seed: int, seconds: float, trace: bool, run_id: str):
    """Run one workload; returns (figures, outcomes, tracer or None)."""
    count = w.count(seconds)
    deadline = time.perf_counter() + W.TIME_LIMIT_S
    if not trace:
        figures = {"setup_s": (statistics.median(timed_setups(w, seed, seconds)), "s")}
        # the timed set-ups have checked the optima; skipping that here keeps
        # held_karp_exact's tables out of this process's peak memory
        cases = W.setup(w, seed, count, check_optima=False)
        # each instance's time is scaled by the machine speed probed before
        # and after it (speed.py)
        probe = speed.Probe(w.n)
        outcomes, scaled, speeds = [], 0.0, []
        before = probe()
        for case in cases:
            outcomes += W.run_pass(w, [case], deadline)
            after = probe()
            speeds.append(w.probe_ref_s / ((before + after) / 2))
            scaled += outcomes[-1].seconds * speeds[-1]
            before = after
        figures.update(W.summary(w, outcomes))
        figures["pipeline_s"] = (scaled, "s")
        figures["machine.speed"] = (statistics.median(speeds), "ratio")
        figures["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        return figures, outcomes, None

    tracer = Tracer(run_id)
    targets = W.trace_targets()
    with tracer.patched(targets), tracer.span("bench.setup"):
        cases = W.setup(w, seed, max(1, round(count / 2)))
    # untraced and traced runs of each instance alternate, so drift in the
    # machine's speed falls on both alike
    plain, traced = [], []
    for case in cases:
        plain += W.run_pass(w, [case], deadline)
        with tracer.patched(targets):
            traced += W.run_pass(w, [case], deadline, tracer)
    for a, b in zip(plain, traced):
        if a.failure is None and b.failure is None and output(a) != output(b):
            b.failure = "traced output differs from the untraced output"
    wall_plain = W.summary(w, plain)["wall_s"][0]
    wall_traced = W.summary(w, traced)["wall_s"][0]
    figures = W.span_figures(tracer, len(cases))
    figures.update(W.probes(w, cases[0]))
    figures["trace.overhead_pct"] = (100.0 * (wall_traced - wall_plain) / wall_plain, "%")
    for name, secs in sorted(tracer.self_times().items()):
        figures[f"self_s.{name}"] = (secs, "s")
    return figures, plain + traced, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up the run, print nothing, and exit (timed by setup_s)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in W.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    w = W.WORKLOADS[args.workload]
    if args.setup_only:
        W.setup(w, args.seed, w.count(args.seconds))
        return 0
    run_id = uuid.uuid4().hex
    cpu_before = cpu_times()
    figures, outcomes, tracer = measure(w, args.seed, args.seconds, bool(args.trace), run_id)
    env = environment(cpu_before, cpu_times())

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  run {run_id}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in figures.items():
        print(f"{name:40s} {value!r:>24} {unit}")
    failed = [o for o in outcomes if o.failure is not None]
    for o in failed:
        print(f"FAILED instance {o.id}: {o.failure}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in figures or figures[m["name"]][1] != m["unit"]:
            sys.exit(f"metric {m['name']} ({m['unit']}) was not measured")
        metrics[m["name"]] = {"value": figures[m["name"]][0], "unit": m["unit"]}

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run": run_id, "env": env,
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "instances": [[o.id, o.seconds, o.failure] for o in outcomes],
        "spans": tracer.spans if tracer else [],
    }
    out_path = os.path.join(OUT_DIR, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
