"""Exact small-instance oracle, pipeline orchestration and report/figure
emission."""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .candidates import check_list_size, edge_set, overlap_coefficient, top_m_filter
from .generator import TrainConfig, optimize_heatmap
from .instances import Instance, Tour, coordinate_span, distance_matrix
from .search import SearchParams, run_search

HELD_KARP_MAX_N = 20


@dataclass(frozen=True)
class BenchResult:
    """One (instance, method) measurement row.

    Wall-clock seconds are split into the heat-map phase (the fit and the
    top-m prune) and the search phase; methods without a heat-map phase
    report 0 for it, and the nn+2opt+oropt baseline reports its whole run,
    construction and its 2-opt and Or-opt pass, as its search phase.
    gap_percent is relative to a reference length when one is available.
    """

    instance: str
    method: str
    length: float
    gap_percent: Optional[float]
    heatmap_seconds: float
    search_seconds: float
    seed: int


def gap_percent(length: float, ref_length: float) -> float:
    """Percentage excess over a reference length.

    Exactly 0.0 when the lengths agree to within round-off (relative 1e-12):
    an optimal tour and the optimum sum the same edges in different orders.
    """
    if math.isclose(length, ref_length, rel_tol=1e-12):
        return 0.0
    return 100.0 * (length - ref_length) / ref_length


def _check_oracle_size(n: int) -> None:
    if n > HELD_KARP_MAX_N:
        raise ValueError(
            f"held_karp_exact handles at most n={HELD_KARP_MAX_N} cities, got {n}; "
            "use the heuristic pipeline for larger instances"
        )


def held_karp_exact(inst: Instance):
    """Provably optimal tour by dynamic programming over city subsets.

    Tours are cycles, so every path starts at city 0. Subset mask S stands
    for city 0 plus each city c >= 1 whose bit c - 1 of S is set, and
    dp[j, col[S]] is the shortest such path that ends at j. The columns are
    grouped by subset size and ordered by mask within a size, so each layer
    of the DP is one contiguous column block, and its minimum over the
    previous city reduces across whole rows of that block. The tour is
    walked back from the full subset by recomputing each step's argmin,
    which the forward pass took on the same float64 values.

    Memory and time grow as 2^n, so instances above HELD_KARP_MAX_N cities
    are refused. Returns (Tour, length).
    """
    n = inst.n
    _check_oracle_size(n)
    d = distance_matrix(inst)
    subsets = 1 << (n - 1)
    ids = np.arange(subsets)
    popcount = np.zeros(subsets, dtype=np.int8)
    for b in range(n - 1):
        popcount += (ids >> b) & 1
    mask = np.argsort(popcount, kind="stable")  # the subset in each column
    col = np.empty_like(mask)  # the column of each subset
    col[mask] = ids
    bounds = np.cumsum([0] + [math.comb(n - 1, p) for p in range(n)])
    dp = np.full((n, subsets), np.inf)
    dp[0, 0] = 0.0
    scores = np.empty((n, int(np.diff(bounds).max())))
    for p in range(n - 1):
        lo, hi = bounds[p], bounds[p + 1]
        layer = mask[lo:hi]
        block = scores[:, : hi - lo]
        for j in range(1, n):
            bit = 1 << (j - 1)
            missing_j = (layer & bit) == 0
            np.add(dp[:, lo:hi], d[:, j, None], out=block)
            best = np.minimum.reduce(block, axis=0)
            dp[j, col[layer[missing_j] | bit]] = best[missing_j]
    subset = subsets - 1
    closing = dp[:, col[subset]] + d[:, 0]
    city = int(np.argmin(closing))
    length = float(closing[city])
    order = np.zeros(n, dtype=np.int64)  # order[0] is the start city 0
    for k in range(n - 1, 0, -1):
        order[k] = city
        subset ^= 1 << (city - 1)
        city = int(np.argmin(dp[:, col[subset]] + d[:, city]))
    tour = Tour.from_order(order)
    return tour, length


def tour_edges(tour: Tour) -> set[tuple[int, int]]:
    """Undirected edge set of a tour (canonical (i, j) with i < j)."""
    order = tour.order
    n = order.shape[0]
    return {
        (int(min(order[k], order[(k + 1) % n])), int(max(order[k], order[(k + 1) % n])))
        for k in range(n)
    }


def search_heatmap(inst: Instance, heat: np.ndarray, search_params: SearchParams, seed: int):
    """The heat-to-tour step: prune heat to its min(m, n - 1) largest
    entries per row, then search. Returns (Tour, SearchStats, prune
    seconds, search seconds), the search seconds timing run_search alone.

    A heat map of another size than the instance raises ValueError.
    """
    if heat.shape[0] != inst.n:
        raise ValueError(
            f"heat map is {heat.shape[0]}x{heat.shape[0]} but instance has {inst.n} cities"
        )
    t0 = time.perf_counter()
    m = min(search_params.m, inst.n - 1)
    _, pruned = top_m_filter(heat, m)
    if not np.isfinite(pruned).all():
        # two entries past half the largest float sum to inf, which
        # run_search refuses; halving keeps the ranking, and two halves sum
        # to at most the largest float
        _, pruned = top_m_filter(np.ldexp(heat, -1), m)
    t1 = time.perf_counter()
    tour, stats = run_search(inst, pruned, search_params, seed)
    return tour, stats, t1 - t0, time.perf_counter() - t1


def solve_pipeline(
    inst: Instance,
    train_cfg: TrainConfig,
    search_params: SearchParams,
    seed: int,
    ref_length: Optional[float] = None,
):
    """Full pipeline: fit heat map, prune, search. Returns (BenchResult, Tour).

    Two seeds drive it: train_cfg.seed the logit initialization and seed the
    search run. They are independent, and callers may pass different values.
    """
    result, tour, _, _ = run_pipeline(inst, train_cfg, search_params, seed, ref_length)
    return result, tour


def run_pipeline(
    inst: Instance,
    train_cfg: TrainConfig,
    search_params: SearchParams,
    seed: int,
    ref_length: Optional[float],
):
    """solve_pipeline, also returning the run's SearchStats and the fit's
    TrainTrace."""
    t0 = time.perf_counter()
    heat, _, trace = optimize_heatmap(inst, train_cfg)
    t_fit = time.perf_counter() - t0
    tour, stats, t_prune, t_search = search_heatmap(inst, heat, search_params, seed)
    gap = gap_percent(stats.best_length, ref_length) if ref_length is not None else None
    result = BenchResult(
        instance=inst.name or f"n{inst.n}",
        method="pipeline",
        length=stats.best_length,
        gap_percent=gap,
        heatmap_seconds=t_fit + t_prune,
        search_seconds=t_search,
        seed=seed,
    )
    return result, tour, stats, trace


@dataclass(frozen=True)
class CoverageRow:
    instance: str
    seed: int
    m: int
    eta: float
    pi_size: int
    fully_covered: bool


def coverage_report(
    instances: list[tuple[Instance, int]],
    steps: int,
    m_values: Sequence[int],
) -> list[CoverageRow]:
    """Edge-coverage analytics for oracle-solvable instances.

    For each (instance, seed): fit a heat map of the given Adam steps from
    that seed and solve the instance exactly once, then for every distinct m
    in m_values prune to the top-m prediction edge set and measure what
    fraction of the optimal tour's edges it covers. Rows are ordered by m
    (in the order given), then by instance. Every instance size and m is
    checked before any fit.
    """
    for inst, _ in instances:
        _check_oracle_size(inst.n)
        for m in m_values:
            check_list_size(inst.n, m)
    rows: dict[int, list[CoverageRow]] = {m: [] for m in m_values}
    for inst, seed in instances:
        heat, _, _ = optimize_heatmap(inst, TrainConfig(steps=steps, seed=seed))
        opt_tour, _ = held_karp_exact(inst)
        truth = tour_edges(opt_tour)
        for m, m_rows in rows.items():
            _, pruned = top_m_filter(heat, m)
            pred = edge_set(pruned)
            m_rows.append(
                CoverageRow(
                    instance=inst.name or f"n{inst.n}",
                    seed=seed,
                    m=m,
                    eta=overlap_coefficient(pred, truth),
                    pi_size=len(pred),
                    fully_covered=truth <= pred,
                )
            )
    return [row for m_rows in rows.values() for row in m_rows]


def csv_text(header: list, rows) -> str:
    """CSV text with "\n" line ends: the header, then one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def coverage_csv(rows: list[CoverageRow]) -> str:
    return csv_text(
        ["instance", "seed", "M", "eta", "pi_size", "fully_covered"],
        ([r.instance, r.seed, r.m, repr(r.eta), r.pi_size, str(r.fully_covered).lower()]
         for r in rows),
    )


def emit_tour_svg(inst: Instance, tour: Tour, path: str) -> None:
    """Write a standalone SVG of the instance and tour.

    One circle per city and one line per tour edge; byte-deterministic for
    identical inputs.
    """
    coords = inst.coords
    n = inst.n
    xmin, ymin = coords.min(axis=0)
    span = coordinate_span(inst) or 1.0  # 1.0 when all cities coincide
    size = 640.0
    pad = 20.0
    scale = (size - 2 * pad) / span

    def sx(x):
        return pad + (float(x) - xmin) * scale

    def sy(y):
        # flip so larger y plots upward
        return size - pad - (float(y) - ymin) * scale

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
    ]
    order = tour.order
    for k in range(n):
        a = order[k]
        b = order[(k + 1) % n]
        lines.append(
            f'<line x1="{sx(coords[a, 0]):.3f}" y1="{sy(coords[a, 1]):.3f}" '
            f'x2="{sx(coords[b, 0]):.3f}" y2="{sy(coords[b, 1]):.3f}" '
            'stroke="#336699" stroke-width="1.5"/>'
        )
    for i in range(n):
        lines.append(
            f'<circle cx="{sx(coords[i, 0]):.3f}" cy="{sy(coords[i, 1]):.3f}" '
            'r="3" fill="#cc3333"/>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def bench_results_csv(rows: list[BenchResult]) -> str:
    return csv_text(
        ["instance", "method", "length", "gap_percent", "heatmap_seconds",
         "search_seconds", "seed"],
        ([r.instance, r.method, repr(r.length),
          "" if r.gap_percent is None else repr(r.gap_percent),
          f"{r.heatmap_seconds:.6f}", f"{r.search_seconds:.6f}", r.seed]
         for r in rows),
    )
