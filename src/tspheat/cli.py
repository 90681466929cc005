"""Command-line surface.

Subcommands: generate, train-heatmap, search, solve, oracle, baseline,
coverage, bench. Exit codes: 0 success, 2 invalid arguments, 3 runtime or
numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import sys
from dataclasses import asdict

from . import bench as bench_mod
from .candidates import top_m_filter
from .generator import TrainConfig, optimize_heatmap
from .heatmap import NumericError, format_heatmap, parse_heatmap
from .instances import format_instance, generate_random, read_instance_file
from .search import PRESETS, SearchParams, format_tour, run_search

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _search_params(args) -> SearchParams:
    if args.time_budget is None and args.rounds is None:
        raise ValueError("set --time-budget and/or --rounds")
    return PRESETS[args.preset].with_budget(args.time_budget, args.rounds)


def _seeds(args) -> range:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    return range(args.seed, args.seed + args.count)


def _train_config(args, seed: int) -> TrainConfig:
    kwargs = {"seed": seed}
    if getattr(args, "steps", None) is not None:
        kwargs["steps"] = args.steps
    if getattr(args, "lr", None) is not None:
        kwargs["learning_rate"] = args.lr
    if getattr(args, "lambda1", None) is not None:
        kwargs["lambda1"] = args.lambda1
    if getattr(args, "lambda2", None) is not None:
        kwargs["lambda2"] = args.lambda2
    if getattr(args, "init_scale", None) is not None:
        kwargs["init_scale"] = args.init_scale
    return TrainConfig(**kwargs)


def _trace_csv(trace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "total", "row_penalty", "self_loop", "expected_length"])
    for k, b in enumerate(trace.per_step):
        writer.writerow([k, repr(b.total), repr(b.row_penalty), repr(b.self_loop),
                         repr(b.expected_length)])
    return buf.getvalue()


def cmd_generate(args) -> int:
    inst = generate_random(args.n, args.seed)
    _write_out(format_instance(inst), args.out)
    return EXIT_OK


def cmd_train_heatmap(args) -> int:
    inst = read_instance_file(args.instance)
    cfg = _train_config(args, args.seed)
    heat, _, trace = optimize_heatmap(inst, cfg)
    _write_out(format_heatmap(heat), args.out)
    if args.trace_out:
        _write_out(_trace_csv(trace), args.trace_out)
    return EXIT_OK


def cmd_search(args) -> int:
    inst = read_instance_file(args.instance)
    with open(args.heatmap, "r", encoding="utf-8") as fh:
        heat = parse_heatmap(fh.read())
    params = _search_params(args)
    if heat.shape[0] != inst.n:
        raise ValueError(
            f"heat map is {heat.shape[0]}x{heat.shape[0]} but instance has {inst.n} cities"
        )
    _, pruned = top_m_filter(heat, min(params.m, inst.n - 1))
    tour, stats = run_search(inst, pruned, params, args.seed)
    _write_out(format_tour(tour, stats.best_length), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = read_instance_file(args.instance)
    cfg = _train_config(args, args.seed)
    params = _search_params(args)
    result, tour, stats = bench_mod._solve_pipeline(inst, cfg, params, args.seed, None)
    _write_out(format_tour(tour, result.length), args.out)
    if args.svg:
        bench_mod.emit_tour_svg(inst, tour, args.svg)
    sys.stderr.write(
        f"length={result.length!r} heatmap_s={result.heatmap_seconds:.3f} "
        f"search_s={result.search_seconds:.3f} two_opt_s={stats.two_opt_seconds:.3f} "
        f"attempts={stats.total_expansions} dead_ends={stats.dead_ends} "
        f"cap_hits={stats.cap_hits} improving={stats.improving}\n"
    )
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst = read_instance_file(args.instance)
    tour, length = bench_mod.held_karp_exact(inst)
    _write_out(format_tour(tour, length), args.out)
    return EXIT_OK


def cmd_baseline(args) -> int:
    inst = read_instance_file(args.instance)
    tour, length = bench_mod.nn_two_opt_baseline(inst, args.seed)
    _write_out(format_tour(tour, length), args.out)
    return EXIT_OK


def cmd_coverage(args) -> int:
    instances = [(generate_random(args.n, seed), seed) for seed in _seeds(args)]
    cfg = _train_config(args, args.seed)
    rows = bench_mod.coverage_report(instances, cfg, args.m)
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
    rows = []
    for seed in _seeds(args):
        inst = generate_random(args.n, seed)
        ref = None
        if inst.n <= bench_mod.HELD_KARP_MAX_N:
            _, ref = bench_mod.held_karp_exact(inst)
        cfg = _train_config(args, seed)
        params = _search_params(args)
        result, _ = bench_mod.solve_pipeline(inst, cfg, params, seed, ref_length=ref)
        rows.append(result)
        base_tour, base_len = bench_mod.nn_two_opt_baseline(inst, seed)
        rows.append(
            bench_mod.BenchResult(
                instance=inst.name or f"n{inst.n}",
                method="nn+2opt",
                length=base_len,
                gap_percent=bench_mod.gap_percent(base_len, ref) if ref else None,
                heatmap_seconds=0.0,
                search_seconds=0.0,
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
        p.add_argument("--preset", choices=sorted(PRESETS), default="tsp100")
        p.add_argument("--time-budget", type=float, default=None, metavar="SECONDS",
                       help="wall-clock cap on the search only, not on training; "
                            "round 1's 2-opt tour is always returned")
        p.add_argument("--rounds", type=int, default=None, metavar="N")
    if train:
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--lambda1", type=float, default=None)
        p.add_argument("--lambda2", type=float, default=None)
        p.add_argument("--init-scale", type=float, default=None)


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
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("baseline", help="nearest-neighbour + 2-opt baseline")
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
