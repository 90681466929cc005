import hashlib
import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from tspheat.bench import (
    BenchResult,
    bench_results_csv,
    coverage_csv,
    coverage_report,
    emit_tour_svg,
    gap_percent,
    held_karp_exact,
    run_pipeline,
    solve_pipeline,
    tour_edges,
)
from tspheat.candidates import top_m_filter
from tspheat.generator import TrainConfig
from tspheat.instances import (
    Instance,
    Tour,
    distance_matrix,
    generate_random,
    tour_length,
)
from tspheat.search import PRESETS, nn_two_opt_baseline

SQUARE = Instance(coords=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def brute_force_optimum(inst):
    d = distance_matrix(inst)
    n = inst.n
    best = math.inf
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        length = sum(d[order[k], order[(k + 1) % n]] for k in range(n))
        best = min(best, length)
    return best


# Pinned Held-Karp optima, one (order, repr(length)) per instance: a change
# that moves any optimum's order or last digit fails here. The duplicate and
# collinear instances have many equal-length predecessors, so they pin which
# of the tied cities the argmin keeps.
_DUP_BASE = generate_random(5, 6).coords
GOLDEN_HELD_KARP = {
    "random-n3-s0": (generate_random(3, 0), [0, 2, 1], "2.497344953848166"),
    "random-n4-s1": (generate_random(4, 1), [0, 3, 2, 1], "2.0618599896768854"),
    "random-n9-s2": (
        generate_random(9, 2), [0, 4, 7, 6, 2, 8, 1, 5, 3], "2.6039366098683066"
    ),
    "random-n13-s3": (
        generate_random(13, 3),
        [0, 11, 3, 4, 9, 1, 12, 7, 6, 5, 8, 10, 2],
        "3.6128390905178076",
    ),
    "random-n16-s4": (
        generate_random(16, 4),
        [0, 5, 7, 1, 3, 11, 14, 2, 12, 15, 9, 6, 13, 10, 8, 4],
        "3.540256349414601",
    ),
    "random-n18-s5": (
        generate_random(18, 5),
        [0, 7, 12, 6, 13, 4, 2, 17, 3, 9, 15, 14, 11, 5, 10, 1, 16, 8],
        "3.9095042489530707",
    ),
    "duplicates": (
        Instance(coords=np.concatenate([_DUP_BASE, _DUP_BASE, _DUP_BASE[:2]])),
        [0, 10, 5, 11, 6, 1, 9, 4, 7, 2, 8, 3],
        "1.7395673976664865",
    ),
    "collinear": (
        Instance(coords=np.array([
            [x, 2.0 * x]
            for x in [0.5, 0.0, 0.75, 0.25, 1.0, 0.125, 0.875, 0.375, 0.625, 0.0625]
        ])),
        [0, 8, 6, 4, 2, 7, 3, 5, 9, 1],
        "4.47213595499958",
    ),
}


def reference_held_karp(inst):
    """Row-major Held-Karp: one (2^(n-1), n) table, row r = subset mask r.

    held_karp_exact lays the same table out city-major with columns grouped
    by subset size; each entry is the minimum over the same float64
    candidates, so both must return the same order and the same length bits.
    """
    n = inst.n
    d = distance_matrix(inst)
    rows = 1 << (n - 1)
    dp = np.full((rows, n), np.inf)
    dp[0, 0] = 0.0
    row_ids = np.arange(rows, dtype=np.int64)
    popcount = np.zeros(rows, dtype=np.int64)
    for b in range(n - 1):
        popcount += (row_ids >> b) & 1
    for p in range(n - 1):
        layer = np.flatnonzero(popcount == p)
        dp_layer = dp[layer]
        for j in range(1, n):
            bit = 1 << (j - 1)
            missing_j = (layer & bit) == 0
            scores = dp_layer[missing_j] + d[:, j][None, :]
            dp[layer[missing_j] | bit, j] = np.min(scores, axis=1)
    row = rows - 1
    closing = dp[row] + d[:, 0]
    city = int(np.argmin(closing))
    length = float(closing[city])
    order = np.zeros(n, dtype=np.int64)
    for k in range(n - 1, 0, -1):
        order[k] = city
        row ^= 1 << (city - 1)
        city = int(np.argmin(dp[row] + d[:, city]))
    return order.tolist(), length


def _integer_grid(n, seed):
    # cities on a 4 x 4 integer grid: many equal distances and repeated cities
    rng = np.random.default_rng(seed)
    return Instance(coords=rng.integers(0, 4, size=(n, 2)).astype(float))


def _oracle_peak_bytes(n):
    inst = generate_random(n, 0)
    tracemalloc.start()
    try:
        held_karp_exact(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestHeldKarp:
    def test_matches_recording(self):
        for name, (inst, order, length) in GOLDEN_HELD_KARP.items():
            tour, got = held_karp_exact(inst)
            assert (tour.order.tolist(), repr(got)) == (order, length), name

    def test_square_perimeter(self):
        tour, length = held_karp_exact(SQUARE)
        assert length == pytest.approx(4.0, abs=1e-12)
        assert sorted(tour.order.tolist()) == [0, 1, 2, 3]

    def test_matches_factorial_enumeration(self):
        for seed in range(4):
            inst = generate_random(7, seed)
            _, length = held_karp_exact(inst)
            assert length == pytest.approx(brute_force_optimum(inst), abs=1e-9)

    def test_matches_reference(self):
        cases = [generate_random(n, s) for n in range(3, 17) for s in range(3)]
        cases += [_integer_grid(n, s) for n in range(3, 17) for s in range(2)]
        cases += [GOLDEN_HELD_KARP[k][0] for k in ("duplicates", "collinear")]
        cases += [generate_random(18, 7)]
        for inst in cases:
            tour, length = held_karp_exact(inst)
            order, ref = reference_held_karp(inst)
            assert (tour.order.tolist(), repr(length)) == (order, repr(ref)), inst.n

    def test_peak_memory_is_one_half_size_table(self):
        # at n=16 the (16, 2^15) float64 table is 4 MiB; the bound leaves room
        # for the one (16, widest layer) score buffer, the column index arrays
        # and the per-city temporaries, and fails a table over all 2^16
        # subsets (8 MiB on its own)
        assert _oracle_peak_bytes(16) < 8 * 2**20

    @pytest.mark.parametrize("n, mib", [(18, 32), (20, 128)])
    def test_peak_memory_at_larger_n(self, n, mib):
        # the half-size table is 18 MiB at n=18 and 80 MiB at n=20; a table
        # over all 2^n subsets (36 and 160 MiB) fails the bound
        assert _oracle_peak_bytes(n) < mib * 2**20

    def test_refuses_large_n(self):
        with pytest.raises(ValueError, match="20"):
            held_karp_exact(generate_random(21, 0))

    def test_length_matches_tour(self):
        inst = generate_random(9, 5)
        tour, length = held_karp_exact(inst)
        assert length == pytest.approx(tour_length(distance_matrix(inst), tour), abs=1e-9)

    def test_lower_bounds_heuristics(self):
        from tspheat.search import random_tour, two_opt_improve

        for seed in range(5):
            inst = generate_random(11, seed)
            d = distance_matrix(inst)
            _, opt = held_karp_exact(inst)
            heur = two_opt_improve(d, random_tour(11, seed))
            assert opt <= tour_length(d, heur) + 1e-9


class TestTourEdges:
    def test_square(self):
        t = Tour.from_order([0, 1, 2, 3])
        assert tour_edges(t) == {(0, 1), (1, 2), (2, 3), (0, 3)}


# Pinned nearest-neighbour baselines, one (seed, repr(length), sha256 of the
# order's int64 bytes) per instance. The round-start pass takes the
# nearest-neighbour tour through 28 2-opt and 9 Or-opt moves at n=120 (lists
# of 8) and 81 and 24 at n=300 (lists of pass_neighbors(300) = 9), so a change
# to either move rule, the list length or the pass's queue order fails here.
GOLDEN_BASELINES = {
    "random-n120-s3": (
        generate_random(120, 3),
        3,
        "8.971344090922624",
        "22e93ca28ddb9dde15ec6ecd2de106475e03c3810ef47624eb1cb64531468faf",
    ),
    "random-n300-s5": (
        generate_random(300, 5),
        5,
        "13.467009873606163",
        "c5078e2c55da4dd6e79b533472264e1d0461f80bf248415e9733890f9fee3f22",
    ),
}


class TestBaseline:
    @pytest.mark.parametrize("name", sorted(GOLDEN_BASELINES))
    def test_matches_recording(self, name):
        inst, seed, length, digest = GOLDEN_BASELINES[name]
        tour, got = nn_two_opt_baseline(inst, seed)
        order = np.ascontiguousarray(tour.order, dtype=np.int64)
        assert repr(got) == length
        assert hashlib.sha256(order.tobytes()).hexdigest() == digest

    def test_square_optimal(self):
        _, length = nn_two_opt_baseline(SQUARE, 0)
        assert length == pytest.approx(4.0)

    def test_bounded_by_oracle(self):
        for seed in range(6):
            inst = generate_random(10, seed)
            _, opt = held_karp_exact(inst)
            _, base = nn_two_opt_baseline(inst, seed)
            assert base >= opt - 1e-9

    @pytest.mark.parametrize("j", [-40, 100])
    def test_power_of_two_copy_gives_the_unit_tour(self, j):
        # the pass runs in the instance's power-of-two frame, so its absolute
        # MIN_GAIN does not stop it early on a tiny copy
        inst = generate_random(50, 3)
        unit_tour, unit_length = nn_two_opt_baseline(inst, 3)
        tour, length = nn_two_opt_baseline(Instance(coords=np.ldexp(inst.coords, j)), 3)
        assert tour.order.tolist() == unit_tour.order.tolist()
        assert length == math.ldexp(unit_length, j)

    @pytest.mark.parametrize("inst", [
        pytest.param(generate_random(3, 1), id="n3"),
        pytest.param(generate_random(4, 2), id="n4"),
        pytest.param(Instance(coords=np.full((7, 2), 0.25)), id="coincident"),
        pytest.param(Instance(coords=generate_random(50, 3).coords * 1000), id="n50-x1000"),
    ])
    def test_length_is_the_tours_length(self, inst):
        # the length comes from the search frame's distances scaled back by
        # 2**e, which is exact, so it is the tour's length on the instance's
        # own distances to the last bit
        for seed in range(3):
            tour, length = nn_two_opt_baseline(inst, seed)
            assert sorted(tour.order.tolist()) == list(range(inst.n))
            assert length == tour_length(distance_matrix(inst), tour)

    def test_deterministic(self):
        inst = generate_random(15, 3)
        t1, l1 = nn_two_opt_baseline(inst, 9)
        t2, l2 = nn_two_opt_baseline(inst, 9)
        assert l1 == l2
        assert np.array_equal(t1.order, t2.order)


class TestGap:
    def test_zero_at_reference(self):
        assert gap_percent(5.0, 5.0) == 0.0

    def test_sign(self):
        assert gap_percent(11.0, 10.0) == pytest.approx(10.0)
        assert gap_percent(9.0, 10.0) == pytest.approx(-10.0)

    def test_zero_within_round_off(self):
        ref = 3.2792105192794523
        assert gap_percent(ref * (1.0 - 4e-16), ref) == 0.0
        assert gap_percent(ref * (1.0 - 1e-10), ref) < 0.0


class TestSolvePipeline:
    def test_finds_small_optimum(self):
        inst = generate_random(10, 2)
        _, ref = held_karp_exact(inst)
        params = PRESETS["tsp20"].with_budget(max_rounds=12)
        result, tour = solve_pipeline(inst, TrainConfig(seed=2), params, 2, ref_length=ref)
        assert result.length == pytest.approx(ref, abs=1e-9)
        assert result.gap_percent == pytest.approx(0.0, abs=1e-7)
        assert result.length == pytest.approx(
            tour_length(distance_matrix(inst), tour), abs=1e-9
        )

    def test_deterministic_modulo_timing(self):
        inst = generate_random(12, 4)
        params = PRESETS["tsp20"].with_budget(max_rounds=4)
        r1, t1 = solve_pipeline(inst, TrainConfig(seed=4), params, 4)
        r2, t2 = solve_pipeline(inst, TrainConfig(seed=4), params, 4)
        assert r1.length == r2.length
        assert np.array_equal(t1.order, t2.order)
        assert r1.instance == r2.instance and r1.seed == r2.seed

    @pytest.mark.parametrize("j", [-40, -3, 7, 100])
    def test_power_of_two_copy_gives_the_unit_tour(self, j):
        # the fit and the search both run in the instance's power-of-two
        # frame, so a copy scaled by 2**j gets the unit run's tour
        inst = generate_random(30, 4)
        params = PRESETS["tsp50"].with_budget(max_rounds=3)
        unit, unit_tour = solve_pipeline(inst, TrainConfig(seed=4), params, 4)
        scaled = Instance(coords=np.ldexp(inst.coords, j))
        result, tour = solve_pipeline(scaled, TrainConfig(seed=4), params, 4)
        assert tour.order.tolist() == unit_tour.order.tolist()
        assert result.length == math.ldexp(unit.length, j)

    @pytest.mark.parametrize("shift, rel_tol", [
        ((1000.0, 1000.0), 1e-12), ((-37.5, 12.25), 1e-12),
        # coordinates near 1e6 round to steps of about 1.2e-10, which moves
        # each edge by up to about 1.7e-10 and a tour of at most 50 such
        # edges (length above 4) by under 2e-9 of its length
        ((1e6, -1e6), 2e-9),
    ], ids=["+(1000,1000)", "+(-37.5,12.25)", "+(1e6,-1e6)"])
    def test_translated_copy_gives_the_unit_cycle(self, shift, rel_tol):
        # translation moves the distances only by the rounding of the
        # shifted coordinates' differences: the pipeline returns the same
        # cycle, though it may write it from another start city
        params = PRESETS["tsp50"].with_budget(max_rounds=3)
        for n, seed in itertools.product((30, 50), range(8)):
            inst = generate_random(n, seed)
            unit, unit_tour = solve_pipeline(inst, TrainConfig(seed=seed), params, seed)
            shifted = Instance(coords=inst.coords + np.array(shift))
            result, tour = solve_pipeline(shifted, TrainConfig(seed=seed), params, seed)
            assert tour_edges(tour) == tour_edges(unit_tour), (n, seed)
            assert math.isclose(result.length, unit.length, rel_tol=rel_tol), (n, seed)

    def test_heatmap_phase_counts_the_prune(self, monkeypatch):
        # the heat-map phase is the fit and the top-m prune, so a slow
        # prune shows in heatmap_seconds
        def slow_top_m_filter(heat, m):
            time.sleep(0.05)
            return top_m_filter(heat, m)

        monkeypatch.setattr("tspheat.bench.top_m_filter", slow_top_m_filter)
        params = PRESETS["tsp20"].with_budget(max_rounds=1)
        result, _ = solve_pipeline(generate_random(8, 1), TrainConfig(steps=1), params, 1)
        assert result.heatmap_seconds >= 0.05


# Default pipelines recorded at a fixed commit: the default fit (TrainConfig
# with only its seed set) feeds trained heat to the search, so a change to the
# fit's default step count or its arithmetic, or to the search, fails here.
# (n, preset, round cap, seed): fit seed = search seed = instance seed; the
# n = 16 cases end at a proof and at the round cap. At n <= 50 the heat bytes
# do not depend on the BLAS thread count.
GOLDEN_PIPELINES = {
    (16, "tsp20", 12, 0): (
        [2, 13, 8, 15, 12, 0, 7, 6, 5, 1, 10, 9, 11, 14, 3, 4],
        "3.7844877473832534", 4, 4,
    ),
    (16, "tsp20", 12, 4): (
        [2, 12, 15, 9, 6, 13, 10, 8, 4, 0, 5, 7, 1, 3, 11, 14],
        "3.5402563494146015", 12, 0,
    ),
    # tsp50 kicks: each stream starts fresh once, so no bound fires and the
    # run ends at its round cap
    (50, "tsp50", 3, 0): (
        [46, 24, 44, 16, 31, 23, 32, 42, 28, 41, 3, 11, 14, 40, 15, 12, 21, 20, 17, 37, 9, 10, 1,
         29, 34, 27, 30, 0, 7, 5, 6, 26, 25, 19, 39, 8, 49, 47, 13, 45, 2, 43, 35, 38, 4, 18, 36,
         22, 33, 48],
        "5.834240391542353", 3, 0,
    ),
}


class TestGoldenPipeline:
    @pytest.mark.parametrize("case", sorted(GOLDEN_PIPELINES),
                             ids=lambda c: f"n{c[0]}-s{c[3]}")
    def test_default_pipeline_matches_recording(self, case):
        n, preset, rounds, seed = case
        order, length, run_rounds, proof_round = GOLDEN_PIPELINES[case]
        params = PRESETS[preset].with_budget(max_rounds=rounds)
        result, tour, stats, _ = run_pipeline(
            generate_random(n, seed), TrainConfig(seed=seed), params, seed, None)
        assert tour.order.tolist() == order
        assert repr(result.length) == length
        assert (stats.rounds, stats.proof_round) == (run_rounds, proof_round)

    @pytest.mark.parametrize("case", sorted(GOLDEN_PIPELINES),
                             ids=lambda c: f"n{c[0]}-s{c[3]}")
    def test_recording_is_a_tour_of_its_length(self, case):
        # checked without the pipeline: each pinned order is a permutation
        # whose length is the pinned one, and each n = 16 order is
        # Held-Karp's optimal tour
        n, _, _, seed = case
        order, length, _, _ = GOLDEN_PIPELINES[case]
        inst = generate_random(n, seed)
        assert sorted(order) == list(range(n))
        tour = Tour.from_order(order)
        assert repr(tour_length(distance_matrix(inst), tour)) == length
        if n <= 16:
            opt_tour, opt = held_karp_exact(inst)
            assert gap_percent(float(length), opt) == 0.0
            assert tour_edges(tour) == tour_edges(opt_tour)


class TestCoverage:
    def test_report_rows(self):
        instances = [(generate_random(10, s), s) for s in range(3)]
        rows = coverage_report(instances, steps=100, m_values=[4])
        assert len(rows) == 3
        for row in rows:
            assert 0.0 <= row.eta <= 1.0
            assert row.pi_size <= 10 * 4
            assert row.fully_covered == (row.eta == 1.0)

    def test_csv_shape(self):
        instances = [(generate_random(8, s), s) for s in range(2)]
        rows = coverage_report(instances, steps=50, m_values=[3])
        text = coverage_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "instance,seed,M,eta,pi_size,fully_covered"
        assert len(lines) == 3

    def test_full_cover_flag(self):
        # with m = n-1 the prediction set is the complete graph: always covered
        instances = [(generate_random(8, 1), 1)]
        rows = coverage_report(instances, steps=50, m_values=[7])
        assert rows[0].fully_covered and rows[0].eta == 1.0


class TestSvg:
    def test_square_counts(self, tmp_path):
        path = tmp_path / "tour.svg"
        emit_tour_svg(SQUARE, Tour.from_order([0, 1, 2, 3]), str(path))
        text = path.read_text()
        assert text.count("<circle") == 4
        assert text.count("<line") == 4

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        inst = generate_random(30, 0)
        tour = Tour.from_order(np.random.default_rng(1).permutation(30))
        emit_tour_svg(inst, tour, str(p1))
        emit_tour_svg(inst, tour, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_power_of_two_copy_draws_alike(self, tmp_path):
        # the drawing fills the frame with the cities' own span, however small
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        inst = generate_random(30, 0)
        tour = Tour.from_order(np.random.default_rng(1).permutation(30))
        emit_tour_svg(inst, tour, str(p1))
        emit_tour_svg(Instance(coords=np.ldexp(inst.coords, -40)), tour, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_coincident_cities_draw_at_one_point(self, tmp_path):
        path = tmp_path / "one.svg"
        emit_tour_svg(Instance(coords=np.full((3, 2), 5.0)), Tour.from_order([0, 1, 2]), str(path))
        text = path.read_text()
        assert text.count('cx="20.000" cy="620.000"') == 3

    def test_parse_back_counts_n100(self, tmp_path):
        inst = generate_random(100, 3)
        tour = Tour.from_order(np.random.default_rng(3).permutation(100))
        path = tmp_path / "big.svg"
        emit_tour_svg(inst, tour, str(path))
        text = path.read_text()
        assert len(re.findall(r"<circle\b", text)) == 100
        assert len(re.findall(r"<line\b", text)) == 100


class TestResultsCsv:
    def test_columns_and_blank_gap(self):
        rows = [
            BenchResult("i1", "pipeline", 3.5, 0.0, 0.1, 0.2, 7),
            BenchResult("i1", "nn+2opt+oropt", 3.9, None, 0.0, 0.0, 7),
        ]
        text = bench_results_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0].startswith("instance,method,length,gap_percent")
        assert lines[2].split(",")[3] == ""
