"""Command-line surface.

Subcommands: generate, train-heatmap, search, solve, oracle, baseline,
coverage, bench. search, solve and bench search with the preset of the
instance's size tier (search.preset_for). Exit codes: 0 success, 2 invalid
arguments, 3 runtime or numeric failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import asdict

from . import bench as bench_mod
from .generator import NumericError, TrainConfig, optimize_heatmap
from .instances import (format_heatmap, format_instance, format_tour, generate_random,
                        parse_heatmap, read_instance_file, read_text)
from .search import SearchParams, nn_two_opt_baseline, preset_for

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _search_params(args, n: int) -> SearchParams:
    if args.time_budget is None and args.rounds is None:
        raise ValueError("set --time-budget and/or --rounds")
    return preset_for(n).with_budget(args.time_budget, args.rounds)


def _seeds(args) -> range:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    return range(args.seed, args.seed + args.count)


def _trace_csv(trace) -> str:
    return bench_mod.csv_text(
        ["step", "total", "row_penalty", "self_loop", "expected_length"],
        ([k, repr(b.total), repr(b.row_penalty), repr(b.self_loop), repr(b.expected_length)]
         for k, b in enumerate(trace.per_step, 1)),
    )


def _search_fields(stats) -> str:
    """The search's counters for a stderr stats line."""
    return (f"two_opt_s={stats.two_opt_seconds:.3f} rounds={stats.rounds} "
            f"starts={stats.starts} or_moves={stats.or_moves} "
            f"two_opt_moves={stats.two_opt_moves} scans={stats.scans} kicks={stats.kicks} "
            f"kicks_kept={stats.kicks_kept} "
            f"attempts={stats.total_expansions} dead_ends={stats.dead_ends} "
            f"improving={stats.improving} lower_bound={stats.lower_bound!r} "
            f"proof_round={stats.proof_round}")


def cmd_generate(args) -> int:
    inst = generate_random(args.n, args.seed)
    _write_out(format_instance(inst), args.out)
    return EXIT_OK


def cmd_train_heatmap(args) -> int:
    inst = read_instance_file(args.instance)
    cfg = TrainConfig(steps=args.steps, seed=args.seed)
    heat, _, trace = optimize_heatmap(inst, cfg, record_losses=bool(args.trace_out))
    _write_out(format_heatmap(heat), args.out)
    if args.trace_out:
        _write_out(_trace_csv(trace), args.trace_out)
    return EXIT_OK


def cmd_search(args) -> int:
    _search_params(args, 0)  # checks the budget before any file is read
    inst = read_instance_file(args.instance)
    heat = parse_heatmap(read_text(args.heatmap))
    params = _search_params(args, inst.n)
    tour, stats, _, search_s = bench_mod.search_heatmap(inst, heat, params, args.seed)
    _write_out(format_tour(tour, stats.best_length), args.out)
    sys.stderr.write(f"length={stats.best_length!r} search_s={search_s:.3f} "
                     f"{_search_fields(stats)}\n")
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = read_instance_file(args.instance)
    cfg = TrainConfig(steps=args.steps, seed=args.seed)
    params = _search_params(args, inst.n)
    result, tour, stats, trace = bench_mod.run_pipeline(inst, cfg, params, args.seed, None)
    _write_out(format_tour(tour, result.length), args.out)
    if args.svg:
        bench_mod.emit_tour_svg(inst, tour, args.svg)
    sys.stderr.write(
        f"length={result.length!r} heatmap_s={result.heatmap_seconds:.3f} "
        f"fit_steps={trace.steps} step_us={trace.seconds / trace.steps * 1e6:.1f} "
        f"search_s={result.search_seconds:.3f} {_search_fields(stats)}\n"
    )
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst = read_instance_file(args.instance)
    t0 = time.perf_counter()
    tour, length = bench_mod.held_karp_exact(inst)
    oracle_s = time.perf_counter() - t0
    _write_out(format_tour(tour, length), args.out)
    sys.stderr.write(f"n={inst.n} length={length!r} oracle_s={oracle_s:.3f}\n")
    return EXIT_OK


def cmd_baseline(args) -> int:
    inst = read_instance_file(args.instance)
    tour, length = nn_two_opt_baseline(inst, args.seed)
    _write_out(format_tour(tour, length), args.out)
    return EXIT_OK


def cmd_coverage(args) -> int:
    instances = [(generate_random(args.n, seed), seed) for seed in _seeds(args)]
    rows = bench_mod.coverage_report(instances, args.steps, args.m)
    _write_out(bench_mod.coverage_csv(rows), args.out)
    # one summary line per M on stderr; the CSV holds every row
    for m in dict.fromkeys(args.m):
        sel = [r for r in rows if r.m == m]
        if sel:
            sys.stderr.write(
                f"M={m} mean_eta={statistics.mean(r.eta for r in sel):.4f} "
                f"min_eta={min(r.eta for r in sel):.4f} "
                f"fully_covered={sum(r.fully_covered for r in sel)}/{len(sel)} "
                f"mean_pi_size={statistics.mean(r.pi_size for r in sel):.1f}\n"
            )
    return EXIT_OK


def cmd_bench(args) -> int:
    seeds = _seeds(args)
    params = _search_params(args, args.n)
    rows = []
    for seed in seeds:
        inst = generate_random(args.n, seed)
        ref = None
        if inst.n <= bench_mod.HELD_KARP_MAX_N:
            _, ref = bench_mod.held_karp_exact(inst)
        cfg = TrainConfig(steps=args.steps, seed=seed)
        result, _ = bench_mod.solve_pipeline(inst, cfg, params, seed, ref_length=ref)
        rows.append(result)
        t0 = time.perf_counter()
        _, base_len = nn_two_opt_baseline(inst, seed)
        base_seconds = time.perf_counter() - t0
        rows.append(
            bench_mod.BenchResult(
                instance=inst.name or f"n{inst.n}",
                method="nn+2opt+oropt",
                length=base_len,
                gap_percent=bench_mod.gap_percent(base_len, ref) if ref else None,
                heatmap_seconds=0.0,
                search_seconds=base_seconds,
                seed=seed,
            )
        )
    if args.format == "json":
        payload = [asdict(r) for r in rows]
        _write_out(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _write_out(bench_mod.bench_results_csv(rows), args.out)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, budget: bool = False, train: bool = False):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    if budget:
        p.add_argument("--time-budget", type=float, default=None, metavar="SECONDS",
                       help="wall-clock cap on the search only, not on training; "
                            "the search returns round 1's start tour (after its "
                            "2-opt and Or-opt pass) or a shorter one, however "
                            "small the budget")
        p.add_argument("--rounds", type=int, default=None, metavar="N",
                       help="cap on the search's rounds, bit-reproducible; at 20 "
                            "cities or fewer every round builds a fresh start and "
                            "descends from it; above 20 cities a search runs its rounds "
                            "as two seeded streams, the second in a worker process, "
                            "and N caps both together: a stream's first round starts "
                            "fresh, descends and kicks its best tour a preset number "
                            "of times, each later round only kicks, and a kick is "
                            "kept when it ends shorter")
    if train:
        p.add_argument("--steps", type=int, default=TrainConfig.steps,
                       help="Adam steps of the heat-map fit (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tspheat",
        description="Heat-map-guided TSP heuristic toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random unit-square instance")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train-heatmap", help="fit a heat map for one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--trace-out", default=None, help="per-step loss CSV path")
    _add_common(p, train=True)
    p.set_defaults(func=cmd_train_heatmap)

    p = sub.add_parser("search", help="search guided by an existing heat-map file")
    p.add_argument("--instance", required=True)
    p.add_argument("--heatmap", required=True)
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("solve", help="end-to-end pipeline: train then search")
    p.add_argument("--instance", required=True)
    p.add_argument("--svg", default=None, help="also write a tour SVG here")
    _add_common(p, budget=True, train=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exact optimum (small instances only)")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("baseline", help="nearest-neighbour + 2-opt/Or-opt pass baseline")
    p.add_argument("--instance", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("coverage", help="optimal-edge coverage report (CSV)")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--m", type=int, nargs="+", default=[5],
                   help="one or more candidate-list sizes M")
    _add_common(p, train=True)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("bench", help="pipeline vs baseline over seeded instances")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p, budget=True, train=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (NumericError, ArithmeticError, RuntimeError) as exc:
        sys.stderr.write(f"runtime failure: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
