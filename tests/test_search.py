import hashlib
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tspheat.candidates import (
    DISTANCE_MODE,
    HEAT_MODE,
    candidate_lists,
    top_m_filter,
)
from tspheat.instances import (
    Instance,
    Tour,
    coordinate_span,
    distance_matrix,
    format_tour,
    generate_random,
    order_length,
    tour_length,
)
from tspheat.search import (
    MIN_GAIN,
    OR_OPT_SEGMENT,
    PRESETS,
    TWO_OPT_NEIGHBORS,
    WEIGHT_FLOOR,
    KOptAction,
    SearchParams,
    SearchStats,
    expand_node,
    pass_neighbors,
    preset_for,
    random_tour,
    run_search,
    two_opt_improve,
    update_heatmap,
    KICK_SEGMENT,
    _candidate_table,
    _construct,
    _double_bridge,
    _draw,
    _Frame,
    _kick,
    _move_segment,
    _nearest_neighbor,
    _neighbor_pass,
    _positions,
    _round,
    _round_start,
    _run_heat,
    _stream,
)

from oracles import parse_tour, reference_pass


def soft_heat(d):
    """A heat map that falls with distance, exp(-d / 0.1)."""
    return np.exp(-d / 0.1)


SQUARE = Instance(coords=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def brute_force_two_opt_scan(d, order):
    """Independent exhaustive scan: the best 2-opt delta available."""
    n = len(order)
    best = 0.0
    for i in range(n - 1):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            a, b = order[i], order[i + 1]
            c, e = order[j], order[(j + 1) % n]
            delta = d[a, c] + d[b, e] - d[a, b] - d[c, e]
            best = min(best, delta)
    return best


def reference_two_opt_order(d, order):
    """Test-only oracle: the full first-improvement 2-opt scan over all pairs,
    with every row evaluated as one numpy expression, independent of the
    search's neighbour-list pass. Mutates order and returns it."""
    n = order.shape[0]
    succ = np.empty(n, dtype=order.dtype)

    def rebuild_succ():
        succ[:-1] = order[1:]
        succ[-1] = order[0]

    rebuild_succ()
    improved = True
    while improved:
        improved = False
        i = 0
        while i < n - 1:
            a = order[i]
            b = order[i + 1]
            hi = n if i > 0 else n - 1
            if i + 2 >= hi:
                i += 1
                continue
            c = order[i + 2:hi]
            e = succ[i + 2:hi]
            delta = d[a, c] + d[b, e] - d[a, b] - d[c, e]
            hit = np.flatnonzero(delta < -MIN_GAIN)
            if hit.size:
                j = i + 2 + int(hit[0])
                order[i + 1:j + 1] = order[i + 1:j + 1][::-1]
                rebuild_succ()
                improved = True
            else:
                i += 1
    return order


def neighbor_pairs(d):
    """The pass's lists as run_search builds them: (city, distance) for each
    city's pass_neighbors(n) nearest, ascending."""
    rows = d.tolist()
    ranked = candidate_lists(d, pass_neighbors(len(rows)), DISTANCE_MODE)
    return [[(c, rows[a][c]) for c in cl.tolist()] for a, cl in enumerate(ranked)]


def as_table(pairs):
    """Pass lists of (city, distance) pairs as the search's table rows of
    (city, edge key, distance)."""
    return [[(c, (a, c) if a < c else (c, a), w) for c, w in near]
            for a, near in enumerate(pairs)]


def neighbor_pass_moves(d, start):
    """The pass on a copy of start: (order, Or-opt moves applied)."""
    tour = list(start)
    stats = SearchStats()
    _neighbor_pass(d.tolist(), as_table(neighbor_pairs(d)), tour, _positions(tour), stats)
    return np.array(tour, dtype=np.int64), stats.or_moves


def neighbor_pass(d, start):
    return neighbor_pass_moves(d, start)[0]


def list_moves_left(d, order):
    """Test-only restatement of the pass's two move rules over the same
    lists: (kind, city) for each list-restricted 2-opt and Or-opt move that
    would still shorten order."""
    n = len(order)
    pos = {c: k for k, c in enumerate(order)}
    left = []
    for a, near in enumerate(neighbor_pairs(d)):
        i = pos[a]
        for step in (1, -1):
            b = order[(i + step) % n]
            for c, dac in near:
                if dac >= d[a, b]:
                    break
                e = order[(pos[c] + step) % n]
                if c != b and e != a and dac + d[b, e] - d[a, b] - d[c, e] < -MIN_GAIN:
                    left.append(("2-opt", a))
        p = order[i - 1]
        for size in range(1, min(OR_OPT_SEGMENT, n - 3) + 1):
            segment = {order[(i + k) % n] for k in range(size)}
            s, q = order[(i + size - 1) % n], order[(i + size) % n]
            gain = d[p, a] + d[s, q] - d[p, q]
            if gain <= MIN_GAIN:
                continue
            for c, dac in near:
                if dac >= gain:
                    break
                if c in segment:
                    continue
                j = pos[c]
                for e in (order[(j + 1) % n], order[j - 1]):
                    if e not in segment and gain - (dac + d[s, e] - d[c, e]) > MIN_GAIN:
                        left.append(("or-opt", a))
    return left


def nearest_neighbor_oracle(d, start):
    """Test-only O(n^2) nearest-neighbour tour: from each city, np.argmin
    over its row with the visited cities masked out, ties toward the smaller
    index, independent of the search's lists."""
    n = d.shape[0]
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    tour = [start]
    while len(tour) < n:
        city = int(np.argmin(np.where(visited, np.inf, d[tour[-1]])))
        visited[city] = True
        tour.append(city)
    return tour


def round_start_order(d, rng):
    """The tour _round_start hands to the pass, from the rng as the round
    holds it: the nearest-neighbour tour from a drawn city, then two double
    bridges on three drawn cut points (none at n = 3)."""
    n = d.shape[0]
    tour = nearest_neighbor_oracle(d, int(rng.integers(n)))
    if n > 3:
        for _ in range(2):
            a, b, c = sorted(rng.choice(n - 1, size=3, replace=False) + 1)
            tour = tour[:a] + tour[b:c] + tour[a:b] + tour[c:]
    return tour


def first_round_start(d, seed):
    """run_search's round-1 tour: the round start's kicked nearest-neighbour
    tour through the neighbour-list pass."""
    rng = np.random.default_rng(seed)
    return Tour.from_order(neighbor_pass(d, round_start_order(d, rng)))


def edges(order):
    n = len(order)
    return {frozenset((order[i], order[(i + 1) % n])) for i in range(n)}


def dist_params(**kw):
    defaults = dict(beta=10.0, m=4, expand_budget=30, max_rounds=3)
    defaults.update(kw)
    return SearchParams(**defaults)


def attempt(d, tour, cand, pruned, stats, params, rng):
    """One construction attempt, expand_node at expand_budget=1: the action,
    or None when the attempt did not improve the tour."""
    out = expand_node(d, tour, cand, pruned, stats, replace(params, expand_budget=1), rng)
    return None if out is None else out[1]


class TestRandomTour:
    def test_valid_permutation(self):
        t = random_tour(3, 0)
        assert sorted(t.order.tolist()) == [0, 1, 2]

    def test_deterministic(self):
        assert np.array_equal(random_tour(8, 5).order, random_tour(8, 5).order)

    def test_positionwise_uniformity(self):
        n, samples = 10, 10_000
        counts = np.zeros((n, n))
        rng = np.random.default_rng(0)
        for _ in range(samples):
            t = random_tour(n, rng)
            counts[t.order, np.arange(n)] += 1
        expect = samples / n
        sigma = math.sqrt(samples * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - expect) < 5 * sigma)


class TestTwoOpt:
    def test_uncrosses_square(self):
        d = distance_matrix(SQUARE)
        out = two_opt_improve(d, Tour.from_order([0, 2, 1, 3]))
        assert tour_length(d, out) == pytest.approx(4.0)

    def test_fixpoint_output_unchanged(self):
        d = distance_matrix(SQUARE)
        perimeter = Tour.from_order([0, 1, 2, 3])
        out = two_opt_improve(d, perimeter)
        assert tour_length(d, out) == pytest.approx(4.0)

    @given(st.integers(0, 10_000))
    @example(4291)  # the full 2-opt scan still finds a move here
    @settings(max_examples=25, deadline=None)
    def test_never_lengthens_and_reaches_fixpoint(self, seed):
        # the fixpoint is the pass's own: no list-restricted move is left,
        # though a move the short lists cannot see may be
        inst = generate_random(20, seed)
        d = distance_matrix(inst)
        start = random_tour(20, seed)
        out = two_opt_improve(d, start)
        assert tour_length(d, out) <= tour_length(d, start) + 1e-12
        assert list_moves_left(d, out.order.tolist()) == []

    def test_bounded_below_by_oracle(self):
        from tspheat.bench import held_karp_exact

        for seed in range(5):
            inst = generate_random(10, seed)
            d = distance_matrix(inst)
            start = random_tour(10, seed)
            out = two_opt_improve(d, start)
            _, opt = held_karp_exact(inst)
            assert opt - 1e-9 <= tour_length(d, out) <= tour_length(d, start) + 1e-12

    @pytest.mark.parametrize("shape", [(6, 7), (6, 5), (7, 7)])
    def test_rejects_matrix_of_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="does not match"):
            two_opt_improve(np.ones(shape), random_tour(6, 0))

    @pytest.mark.parametrize("j", [3, 24])
    @pytest.mark.parametrize("gain, applied", [(0.5 * MIN_GAIN, False),
                                               (2.0 * MIN_GAIN, True)])
    def test_threshold_near_and_far_partner(self, j, gain, applied):
        # the start's only improving move joins 0 and j: near 0 in the tour
        # for j = 3, far from it for j = 24. A move that gains less than
        # MIN_GAIN is not applied.
        n = 88
        d = np.ones((n, n))
        np.fill_diagonal(d, 0.0)
        d[0, j] = d[j, 0] = 1.0 - gain
        start = np.arange(n)
        out = two_opt_improve(d, Tour.from_order(start))
        assert (out.order.tolist() != start.tolist()) == applied
        assert order_length(d, out.order) == pytest.approx(
            order_length(d, start) - (gain if applied else 0.0), abs=1e-12)


def list_exhausted_steps(nbrs, tour):
    """The steps of tour at which every city of the current city's list was
    already visited, so _nearest_neighbor took its row-scan fallback."""
    seen = set()
    steps = []
    for k, city in enumerate(tour[:-1]):
        seen.add(city)
        if all(c in seen for c, _, _ in nbrs[city]):
            steps.append(k)
    return steps


class TestNearestNeighbor:
    """_nearest_neighbor, read from the pass's lists with a row-scan
    fallback, builds the tour of the O(n^2) argmin oracle."""

    @staticmethod
    def assert_matches_oracle(d, starts):
        frame = _Frame.of(d, pass_neighbors(len(d)))
        rows, nbrs = frame.rows, frame.nbrs
        fallbacks = 0
        for start in starts:
            tour = _nearest_neighbor(rows, nbrs, start)
            assert tour == nearest_neighbor_oracle(d, start)
            fallbacks += len(list_exhausted_steps(nbrs, tour))
        return fallbacks

    @pytest.mark.parametrize("n", [4, 9, 30, 120, 300])
    def test_random_instances(self, n):
        for seed in range(3):
            d = distance_matrix(generate_random(n, seed))
            self.assert_matches_oracle(d, range(0, n, max(1, n // 7)))

    def test_duplicate_cities(self):
        # every city appears twice: each city's twin is at distance 0, a tie
        # with its own diagonal broken by the mask
        coords = generate_random(40, 2).coords
        d = distance_matrix(Instance(coords=np.concatenate([coords, coords])))
        assert self.assert_matches_oracle(d, range(0, 80, 9)) > 0

    def test_coincident_cities(self):
        # every distance is 0: the tour visits the cities in index order
        # after the start, all through the lists' tie rule and the fallback
        d = distance_matrix(Instance(coords=np.full((12, 2), 0.25)))
        self.assert_matches_oracle(d, range(12))
        frame = _Frame.of(d, pass_neighbors(len(d)))
        rows, nbrs = frame.rows, frame.nbrs
        assert _nearest_neighbor(rows, nbrs, 5) == [5] + [c for c in range(12) if c != 5]

    @pytest.mark.parametrize("spacing", ["integer", "random"])
    def test_collinear_cities(self, spacing):
        # integer points give exact distance ties on both sides of a city
        rng = np.random.default_rng(3)
        x = np.arange(60, dtype=np.float64) if spacing == "integer" else rng.random(60)
        d = distance_matrix(Instance(coords=np.column_stack([x, np.zeros(60)])))
        assert self.assert_matches_oracle(d, range(0, 60, 7)) > 0

    def test_exact_ties_on_a_grid(self):
        # a 6 x 6 integer grid: each city has up to four neighbours at the
        # same distance, so every step is decided by the smaller index
        xy = np.array([(i, j) for i in range(6) for j in range(6)], dtype=np.float64)
        d = distance_matrix(Instance(coords=xy))
        assert self.assert_matches_oracle(d, range(36)) > 0

    def test_list_fully_visited_takes_the_fallback(self):
        # two far clusters: after one cluster is toured, the last city's list
        # holds only visited cities, and the scan must cross to the other
        rng = np.random.default_rng(8)
        coords = np.concatenate([rng.random((12, 2)), rng.random((12, 2)) + 100.0])
        d = distance_matrix(Instance(coords=rng.permutation(coords)))
        frame = _Frame.of(d, pass_neighbors(len(d)))
        rows, nbrs = frame.rows, frame.nbrs
        for start in range(24):
            tour = _nearest_neighbor(rows, nbrs, start)
            assert tour == nearest_neighbor_oracle(d, start)
            assert list_exhausted_steps(nbrs, tour)

    def test_three_cities(self):
        d = distance_matrix(generate_random(3, 0))
        self.assert_matches_oracle(d, range(3))


class TestRoundStartEdgeSizes:
    """_round_start on the smallest instances: a permutation with no
    list-restricted move left, a function of the run's rng alone."""

    INSTANCES = [(f"n{n}", n) for n in range(3, 9)] + [("duplicates", 6)]

    @staticmethod
    def instance(name, n):
        if name == "duplicates":
            return Instance(coords=np.full((n, 2), 0.25))
        return generate_random(n, n)

    @pytest.mark.parametrize("name, n", INSTANCES)
    def test_start_is_a_pass_fixpoint(self, name, n):
        frame = _Frame.build(self.instance(name, n), 8)
        for seed in range(6):
            order = _round_start(frame, SearchStats(), np.random.default_rng(seed))
            assert order.dtype == np.int64
            assert sorted(order.tolist()) == list(range(n))
            assert list_moves_left(frame.d, order.tolist()) == []

    @pytest.mark.parametrize("name, n", INSTANCES)
    def test_equal_seeds_give_equal_starts(self, name, n):
        frame = _Frame.build(self.instance(name, n), 8)
        for seed in range(6):
            a = _round_start(frame, SearchStats(), np.random.default_rng(seed))
            b = _round_start(frame, SearchStats(), np.random.default_rng(seed))
            assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("name, n", INSTANCES)
    def test_draws_only_from_the_runs_rng(self, name, n):
        # the start is the mirror's kicked tour through the pass, the rng
        # ends where the mirror's draws leave it, and numpy's global stream
        # is not touched
        frame = _Frame.build(self.instance(name, n), 8)
        np.random.seed(1)
        before = np.random.get_state()
        for seed in range(6):
            rng, mirror = np.random.default_rng(seed), np.random.default_rng(seed)
            order = _round_start(frame, SearchStats(), rng)
            want = neighbor_pass(frame.d, round_start_order(frame.d, mirror))
            assert order.tolist() == want.tolist()
            assert rng.bit_generator.state == mirror.bit_generator.state
        after = np.random.get_state()
        assert np.array_equal(after[1], before[1]) and after[2:] == before[2:]


class TestTwoOptIsTheRoundStart:
    """two_opt_improve runs the round-start pass: from the kicked
    nearest-neighbour tour a round draws, in a run's frame, it ends at
    _round_start's tour, ties included."""

    @staticmethod
    def assert_round_start(inst, seed, m):
        frame = _Frame.build(inst, m)
        want = _round_start(frame, SearchStats(), np.random.default_rng(seed))
        start = Tour.from_order(round_start_order(frame.d, np.random.default_rng(seed)))
        assert two_opt_improve(frame.d, start).order.tolist() == want.tolist()

    # m = 12 ranks the frame's lists past the pass's length, which must not
    # change the pass's lists
    @pytest.mark.parametrize("m", [4, 12])
    @pytest.mark.parametrize("n", [3, 5, 16, 100, 300])
    def test_random_instances(self, n, m):
        for seed in range(2):
            self.assert_round_start(generate_random(n, seed), seed, m)

    @pytest.mark.parametrize("start_seed", range(4))
    def test_duplicate_cities(self, start_seed):
        # every city appears twice: many moves have a delta of exactly 0
        coords = generate_random(50, 1).coords
        self.assert_round_start(Instance(coords=np.concatenate([coords, coords])),
                                start_seed, 8)

    def test_coincident_cities(self):
        self.assert_round_start(Instance(coords=np.full((10, 2), 0.25)), 1, 8)

    @pytest.mark.parametrize("start_seed", range(4))
    def test_collinear_cities(self, start_seed):
        # integer points on a line: every distance is an exact integer, so
        # many deltas are exactly 0 and many improving deltas tie
        x = np.arange(100, dtype=np.float64)
        self.assert_round_start(Instance(coords=np.stack([x, np.zeros(100)], axis=1)),
                                start_seed, 8)


class TestNeighborPass:
    @given(st.integers(3, 120), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_instances(self, n, inst_seed, start_seed):
        d = distance_matrix(generate_random(n, inst_seed))
        start = random_tour(n, start_seed).order
        out = neighbor_pass(d, start)
        assert sorted(out.tolist()) == list(range(n))
        assert order_length(d, out) <= order_length(d, start)
        assert list_moves_left(d, out.tolist()) == []
        # the scan after the pass reaches a full 2-opt fixpoint
        fixed = reference_two_opt_order(d, out.copy())
        assert brute_force_two_opt_scan(d, fixed.tolist()) > -1e-9

    @staticmethod
    def assert_same_pass(rows, table, tour, seeds=None):
        """The pass and oracles.reference_pass, each on its own copy of
        tour: the same (or_moves, gain), tour and pos, bit for bit; returns
        the pass's tour."""
        ours, ref = tour[:], tour[:]
        ours_pos, ref_pos = _positions(ours), _positions(ref)
        stats = SearchStats()
        gain = _neighbor_pass(rows, table, ours, ours_pos, stats, seeds)
        assert (stats.or_moves, gain) == reference_pass(rows, table, ref, ref_pos, seeds)
        assert (ours, ours_pos) == (ref, ref_pos)
        # a scan applies one move or finds none, and every city queued at
        # the start is scanned at least once
        assert stats.two_opt_moves + stats.or_moves + len(set(seeds or tour)) <= stats.scans
        return ours

    @given(st.integers(3, 200), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_a_full_pass_matches_the_reference_pass(self, n, inst_seed, start_seed):
        d = distance_matrix(generate_random(n, inst_seed))
        start = random_tour(n, start_seed).order.tolist()
        self.assert_same_pass(d.tolist(), as_table(neighbor_pairs(d)), start)

    @given(st.integers(8, 200), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_a_seeded_repair_matches_the_reference_pass(self, n, inst_seed, kick_seed):
        # kicks as _kick draws them, each repaired from where the last left
        # the tour, starting at the pass's fixpoint
        d = distance_matrix(generate_random(n, inst_seed))
        rows, table = d.tolist(), as_table(neighbor_pairs(d))
        tour = self.assert_same_pass(rows, table, random_tour(n, inst_seed).order.tolist())
        rng = np.random.default_rng(kick_seed)
        widest = min(KICK_SEGMENT, (n - 1) // 2)
        for _ in range(5):
            i, l1, l2 = int(rng.integers(n)), *rng.integers(1, widest + 1, size=2).tolist()
            ends, _ = _double_bridge(tour, _positions(tour), rows, i, l1, l2)
            tour = self.assert_same_pass(rows, table, tour, ends)

    def test_list_length(self):
        assert [pass_neighbors(n) for n in (4, 9, 16, 100, 200, 256)] == [3, 8, 8, 8, 8, 8]
        assert [pass_neighbors(n) for n in (257, 300, 500, 1000)] == [9, 9, 12, 16]
        assert pass_neighbors(256) == TWO_OPT_NEIGHBORS

    def test_crossing_seen_only_from_the_predecessor_side(self):
        # the start's one improving move adds edges (0, 3) and (1, 4); (0, 3)
        # is longer than both removed edges, so the successor direction
        # (which adds (a, c) with d(a, c) < d(a, succ a)) cannot see it,
        # while (1, 4) is short: the predecessor direction from 1 or 4 does
        coords = np.array([[2, 2], [0, 0], [-1.5, 0.5], [-1.8, 2], [0.2, 0], [1.7, 0.5]],
                          dtype=np.float64)
        d = distance_matrix(Instance(coords=coords))
        start = [0, 1, 2, 3, 4, 5]
        assert brute_force_two_opt_scan(d, start) < 0
        assert d[0, 3] >= max(d[0, 1], d[3, 4]) and d[1, 4] < min(d[0, 1], d[3, 4])
        out = neighbor_pass(d, start).tolist()
        assert edges(out) == edges([0, 3, 2, 1, 4, 5])

    @pytest.mark.parametrize("first", [10, 11])
    def test_reversal_wraps_past_position_zero(self, first):
        # a regular 12-gon walked in order except for the block of four
        # positions first .. first + 3 (mod 12), which is reversed. Undoing
        # it reverses either that block, which wraps past position 0, or
        # the other eight; the pass reverses the shorter.
        n = 12
        angles = 2 * math.pi * np.arange(n) / n
        d = distance_matrix(Instance(coords=np.column_stack([np.cos(angles), np.sin(angles)])))
        start = list(range(n))
        block = [(first + k) % n for k in range(4)]
        for p, c in zip(block, reversed(block)):
            start[p] = c
        out = neighbor_pass(d, start).tolist()
        assert edges(out) == edges(list(range(n)))
        assert [out[p] for p in range(n) if p not in block] == [
            start[p] for p in range(n) if p not in block]

    def test_duplicate_cities_make_no_move(self):
        # every distance is 0, so no list entry is nearer than a tour
        # neighbour: the pass pops each city once and ends
        d = distance_matrix(Instance(coords=np.full((10, 2), 0.25)))
        start = random_tour(10, 1).order
        out, or_moves = neighbor_pass_moves(d, start)
        assert out.tolist() == start.tolist()
        assert or_moves == 0

    @pytest.mark.parametrize("start_seed", range(4))
    def test_collinear_cities(self, start_seed):
        # integer points on a line: exact ties in the distances and deltas;
        # a move with a zero delta is never applied, so the pass ends
        x = np.arange(60, dtype=np.float64)
        d = distance_matrix(Instance(coords=np.stack([x, np.zeros(60)], axis=1)))
        start = random_tour(60, start_seed).order
        out = neighbor_pass(d, start)
        assert sorted(out.tolist()) == list(range(60))
        assert order_length(d, out) < order_length(d, start)
        assert list_moves_left(d, out.tolist()) == []
        fixed = reference_two_opt_order(d, out.copy())
        assert brute_force_two_opt_scan(d, fixed.tolist()) > -1e-9


# Starts one Or-opt move away from their Held-Karp optimum with no 2-opt
# move at all, so the pass's first move must be an Or-opt move. move is the
# (a, s, c, e) the pass applies: the segment a .. s goes between c and e,
# with a next to c. It keeps its direction when e follows c in the start
# and is turned round when e precedes c.
OR_OPT_STARTS = {
    # city 5 goes back between 6 and 8
    "one-city": dict(
        coords=[[1.0, 2.5], [8.0, 6.0], [1.0, 4.5], [5.0, 1.5], [7.5, 1.0], [4.0, 5.0],
                [4.5, 6.0], [7.5, 9.5], [3.0, 6.5]],
        start=[0, 5, 3, 4, 1, 7, 6, 8, 2], move=(5, 5, 6, 8)),
    # 2, 5 goes between 4 (last) and 8 (first), turned round
    "two-cities-turned": dict(
        coords=[[4.5, 7.0], [1.0, 1.0], [7.0, 5.0], [2.0, 1.0], [6.0, 0.5], [6.0, 2.5],
                [4.5, 6.5], [6.0, 8.5], [8.5, 4.5], [10.0, 7.0]],
        start=[8, 9, 7, 0, 6, 2, 5, 1, 3, 4], move=(2, 5, 8, 4)),
    # 11 (last), 9, 4 (first two) goes between 3 and 6
    "three-cities": dict(
        coords=[[4.0, 6.0], [5.0, 7.0], [6.5, 8.5], [6.0, 5.5], [7.5, 2.0], [1.0, 1.0],
                [5.0, 4.0], [2.0, 3.5], [6.5, 7.0], [7.5, 3.0], [0.0, 7.5], [6.5, 4.5]],
        start=[9, 4, 5, 7, 10, 0, 1, 2, 8, 3, 6, 11], move=(11, 4, 3, 6)),
    # 5, 10, 8 goes between 9 (last) and 1 (first), turned round
    "three-cities-turned": dict(
        coords=[[8.5, 8.5], [2.0, 2.5], [5.0, 7.5], [7.0, 9.5], [0.5, 5.0], [3.5, 6.0],
                [0.5, 3.5], [1.0, 9.5], [6.0, 5.0], [10.0, 3.5], [4.5, 5.0], [0.5, 0.0]],
        start=[1, 11, 6, 4, 7, 2, 5, 10, 8, 3, 0, 9], move=(5, 8, 1, 9)),
}


def or_opt_start(name):
    from tspheat.bench import held_karp_exact

    case = OR_OPT_STARTS[name]
    inst = Instance(coords=np.array(case["coords"]))
    return distance_matrix(inst), case, held_karp_exact(inst)[0].order.tolist()


class TestOrOptMoves:
    @pytest.mark.parametrize("name", sorted(OR_OPT_STARTS))
    def test_one_move_reaches_the_optimum(self, name, monkeypatch):
        import tspheat.search as search_mod

        d, case, opt = or_opt_start(name)
        start = case["start"]
        assert brute_force_two_opt_scan(d, start) > -1e-9
        assert len(edges(start) - edges(opt)) == 3
        moves = []

        def spy(tour, pos, p, a, s, q, c, e):
            moves.append((a, s, c, e))
            _move_segment(tour, pos, p, a, s, q, c, e)

        monkeypatch.setattr(search_mod, "_move_segment", spy)
        out, or_moves = neighbor_pass_moves(d, start)
        assert edges(out.tolist()) == edges(opt)
        assert moves == [case["move"]]
        assert or_moves == 1

    @pytest.mark.parametrize("name", ["one-city", "two-cities-turned"])
    def test_every_rotation_and_direction(self, name):
        # rotations put the segment, and the insertion point, across
        # position 0 in every way; reading the list backward turns a kept
        # direction into a turned-round one. The pass may pick another
        # segment of the same exchange, or finish with a 2-opt move, but it
        # reaches the optimum with one Or-opt move from every start
        d, case, opt = or_opt_start(name)
        start = case["start"]
        for r in range(len(start)):
            rotated = start[r:] + start[:r]
            for order in (rotated, rotated[::-1]):
                out, or_moves = neighbor_pass_moves(d, order)
                assert edges(out.tolist()) == edges(opt)
                assert or_moves == 1

    def test_move_segment_keeps_positions_in_either_direction(self):
        # every kept and turned-round insertion on every small cycle, in
        # both list directions, gives the cycle with the segment moved and a
        # position list that matches the tour
        for n in range(4, 9):
            for direction in (1, -1):
                tour0 = list(range(n))[::direction]
                for i, size in itertools.product(range(n), range(1, min(3, n - 3) + 1)):
                    segment = [tour0[(i + k) % n] for k in range(size)]
                    a, s = segment[0], segment[-1]
                    p, q = tour0[i - 1], tour0[(i + size) % n]
                    rest = [x for x in tour0 if x not in segment]
                    for k, c in enumerate(rest):
                        j = tour0.index(c)
                        for e in (tour0[(j + 1) % n], tour0[j - 1]):
                            if e in segment:
                                continue
                            if e == rest[(k + 1) % len(rest)]:
                                want = rest[:k + 1] + segment + rest[k + 1:]
                            else:
                                want = rest[:k] + segment[::-1] + rest[k:]
                            tour = list(tour0)
                            pos = _positions(tour)
                            _move_segment(tour, pos, p, a, s, q, c, e)
                            assert edges(tour) == edges(want)
                            assert pos == _positions(tour)

    @pytest.mark.parametrize("n", [4, 5])
    def test_smallest_instances_every_start(self, n):
        # segments stop at n - 3 cities; every start of a few instances
        # ends at a permutation no longer than it with no move left
        for inst_seed in range(4):
            d = distance_matrix(generate_random(n, inst_seed))
            for start in itertools.permutations(range(n)):
                out, _ = neighbor_pass_moves(d, start)
                assert sorted(out.tolist()) == list(range(n))
                assert order_length(d, out) <= order_length(d, np.array(start)) + 1e-12
                assert list_moves_left(d, out.tolist()) == []

    def test_run_search_counts_round_start_or_moves(self):
        inst = generate_random(40, 2)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(soft_heat(d), 6)
        params = dist_params(m=6, max_rounds=1)
        rng = np.random.default_rng(7)
        _, want = neighbor_pass_moves(d, round_start_order(d, rng))
        _, stats = run_search(inst, pruned, params, 7)
        assert stats.or_moves == want > 0


def draw_many(weights, rng, trials):
    """Draw `trials` indices with _draw from the running sums of weights."""
    cums = list(itertools.accumulate(weights))
    return Counter(_draw(cums, rng.random) for _ in range(trials))


class TestSelectNextCity:
    """The next-city rule of a construction: each feasible candidate is
    weighted by its pruned heat, floored at WEIGHT_FLOOR, and one is drawn by
    _draw."""

    def _setup(self, n=8, seed=0, m=4):
        inst = generate_random(n, seed)
        d = distance_matrix(inst)
        pruned = np.zeros((n, n))
        rng = np.random.default_rng(seed)
        vals = rng.random((n, n))
        pruned[:] = (vals + vals.T) / 2
        np.fill_diagonal(pruned, 0.0)
        cand = candidate_lists(d, m, DISTANCE_MODE)
        return d, pruned, cand

    def test_alpha_zero_weights_proportional_to_heat(self):
        d, pruned, cand = self._setup()
        row = cand[0].tolist()
        weights = [max(float(pruned[0, c]), WEIGHT_FLOOR) for c in row]
        trials = 20_000
        counts = draw_many(weights, np.random.default_rng(1), trials)
        weights = np.array(weights)
        expect = weights / weights.sum() * trials
        observed = np.array([counts[i] for i in range(len(row))])
        sigma = np.sqrt(expect * (1 - weights / weights.sum()))
        assert np.all(np.abs(observed - expect) < 5 * np.maximum(sigma, 1.0))

    def test_dead_end_returns_none(self):
        # each corner's one candidate is the anchor or the moving endpoint's
        # path neighbour, so every attempt ends before its first draw
        d = distance_matrix(SQUARE)
        tour = Tour.from_order([0, 1, 2, 3])
        cand = candidate_lists(d, 1, DISTANCE_MODE)
        pruned = np.ones((4, 4))
        stats = SearchStats()
        params = dist_params()
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert attempt(d, tour, cand, pruned, stats, params, rng) is None
        assert (stats.dead_ends, stats.improving) == (50, 0)

    def test_zero_heat_row_samples_uniformly(self):
        _, _, cand = self._setup()
        row = cand[0].tolist()
        weights = [max(0.0, WEIGHT_FLOOR)] * len(row)
        counts = draw_many(weights, np.random.default_rng(4), 400)
        assert set(counts) == set(range(len(row)))

    def test_zero_heat_candidates_stay_reachable(self):
        # with no heat at all each feasible candidate gets the floor weight,
        # so one anchor leads to several moves; unfloored zero weights would
        # always fall back to the last feasible candidate, one move per anchor
        n = 20
        d = distance_matrix(generate_random(n, 0))
        tour = random_tour(n, 0)
        cand = candidate_lists(d, 6, DISTANCE_MODE)
        pruned = np.zeros((n, n))
        stats = SearchStats()
        params = dist_params()
        rng = np.random.default_rng(0)
        moves = defaultdict(set)
        for _ in range(300):
            action = attempt(d, tour, cand, pruned, stats, params, rng)
            if action is not None:
                moves[action.sequence[0]].add(action.sequence)
        assert max(len(seqs) for seqs in moves.values()) > 1

    @pytest.mark.parametrize("u, expect", [(0.0, 1), (0.25, 2), (1.0, 3)])
    def test_draw_boundaries(self, u, expect):
        # candidates [1, 2, 3] with heat [1, 2, 1] give running sums
        # [1, 3, 4]; r = u * 4 picks the first city whose running sum exceeds
        # r (strictly), and u = 1.0 puts r on the total, which falls back to
        # the last feasible city
        cities = [1, 2, 3]
        weights = [max(h, WEIGHT_FLOOR) for h in [1.0, 2.0, 1.0]]
        cums = list(itertools.accumulate(weights))
        assert cums == [1.0, 3.0, 4.0]
        assert cities[_draw(cums, lambda: u)] == expect


class TestConstructAction:
    def test_uncrosses_square_via_two_exchange(self):
        d = distance_matrix(SQUARE)
        tour = Tour.from_order([0, 2, 1, 3])
        cand = candidate_lists(d, 3, DISTANCE_MODE)
        pruned = np.exp(-d)
        np.fill_diagonal(pruned, 0.0)
        stats = SearchStats()
        params = dist_params(max_rounds=1)
        rng = np.random.default_rng(0)
        gains = set()
        for _ in range(100):
            action = attempt(d, tour, cand, pruned, stats, params, rng)
            if action is not None:
                gains.add(round(action.gain, 12))
                assert sorted(action.new_order.tolist()) == [0, 1, 2, 3]
                assert order_length(d, action.new_order) == pytest.approx(4.0)
        assert gains == {round(2 * math.sqrt(2) - 2, 12)}

    def test_no_action_when_no_improving_two_exchange(self):
        d = distance_matrix(SQUARE)
        tour = Tour.from_order([0, 1, 2, 3])  # already optimal
        cand = candidate_lists(d, 3, DISTANCE_MODE)
        pruned = np.exp(-d)
        np.fill_diagonal(pruned, 0.0)
        stats = SearchStats()
        params = dist_params()
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert attempt(d, tour, cand, pruned, stats, params, rng) is None

    @given(st.integers(5, 60), st.integers(0, 2_000))
    @settings(max_examples=50, deadline=None)
    def test_action_integrity(self, n, seed):
        inst = generate_random(n, seed)
        d = distance_matrix(inst)
        tour = random_tour(n, seed)
        start_edges = edges(tour.order.tolist())
        m = min(5, n - 1)
        cand = candidate_lists(d, m, DISTANCE_MODE)
        _, pruned = top_m_filter(np.exp(-d), m)
        stats = SearchStats()
        params = dist_params()
        rng = np.random.default_rng(seed)
        start_len = tour_length(d, tour)
        for _ in range(30):
            action = attempt(d, tour, cand, pruned, stats, params, rng)
            if action is None:
                continue
            # resulting order is a permutation
            assert sorted(action.new_order.tolist()) == list(range(n))
            # sequence alternates and closes at its anchor
            assert action.sequence[0] == action.sequence[-1]
            assert len(action.sequence) == 2 * action.k + 1
            assert action.k >= 2
            # removed and added edge multisets are disjoint
            assert set(action.removed).isdisjoint(set(action.added))
            assert len(action.removed) == len(action.added) == action.k
            # no cap bounds k: the removed edges are k distinct edges of the
            # starting tour, so k <= n and every attempt ends
            assert len(set(action.removed)) == action.k
            assert {frozenset(e) for e in action.removed} <= start_edges
            assert action.k <= n
            # gain accounting matches both edge sums and a full recompute
            edge_delta = sum(d[a, b] for a, b in action.removed) - sum(
                d[a, b] for a, b in action.added
            )
            assert action.gain == pytest.approx(edge_delta, abs=1e-9)
            assert order_length(d, action.new_order) == pytest.approx(
                start_len - action.gain, abs=1e-9
            )

    @given(st.integers(10, 60), st.integers(0, 10_000),
           st.sampled_from([HEAT_MODE, DISTANCE_MODE]))
    @settings(max_examples=40, deadline=None)
    def test_partial_gains_stay_positive(self, n, seed, mode):
        # the gain rule: after each added edge, closing one included, the
        # running sum(removed) - sum(added) exceeds MIN_GAIN; the replay
        # repeats _construct's float arithmetic step by step
        inst = generate_random(n, seed)
        d = distance_matrix(inst)
        tour = random_tour(n, seed)
        _, pruned = top_m_filter(soft_heat(d), 6)
        cand = candidate_lists(pruned if mode == HEAT_MODE else d, 6, mode)
        stats = SearchStats()
        params = dist_params()
        rng = np.random.default_rng(seed)
        found = 0
        for _ in range(40):
            action = attempt(d, tour, cand, pruned, stats, params, rng)
            if action is None:
                continue
            found += 1
            seq = [int(c) for c in action.sequence]
            gain = d.item(seq[0], seq[1])
            for i in range(1, 2 * action.k, 2):
                added = d.item(seq[i], seq[i + 1])
                assert gain - added > MIN_GAIN
                if i + 2 < len(seq):
                    gain += d.item(seq[i + 1], seq[i + 2]) - added
            assert gain - d.item(seq[-2], seq[-1]) == action.gain
        assert found > 0

    def test_no_move_when_every_candidate_is_longer_than_the_anchor_edge(self):
        # regular octagon walked along its perimeter: each city's candidates
        # are its chords, all longer than every tour edge, so the first
        # candidate would already make the running gain negative
        n = 8
        angles = 2 * math.pi * np.arange(n) / n
        inst = Instance(coords=np.column_stack([np.cos(angles), np.sin(angles)]))
        d = distance_matrix(inst)
        tour = Tour.from_order(np.arange(n))
        cand = tuple(np.array([(u + s) % n for s in (2, 3, 4, 5, 6)]) for u in range(n))
        assert min(d[u, c] for u in range(n) for c in cand[u]) > d[0, 1] * 1.5
        pruned = np.ones((n, n))
        stats = SearchStats()
        params = dist_params()
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert attempt(d, tour, cand, pruned, stats, params, rng) is None
        assert (stats.dead_ends, stats.improving) == (50, 0)


class TestFirstStepMemo:
    @given(st.integers(5, 60), st.integers(0, 10_000),
           st.sampled_from([HEAT_MODE, DISTANCE_MODE]))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_rules_written_out(self, n, seed, mode):
        # step 1 from anchor u1: the moving endpoint is v1 = succ(u1), its
        # path neighbour succ(v1), the running gain d(u1, v1), and no edge is
        # added yet; so the feasible candidates are v1's that keep the gain
        # positive, other than u1 and succ(v1), in ascending distance order,
        # each weighing its floored heat
        d = distance_matrix(generate_random(n, seed))
        m = min(6, n - 1)
        _, pruned = top_m_filter(soft_heat(d), m)
        cand = candidate_lists(pruned if mode == HEAT_MODE else d, m, mode)
        base = two_opt_improve(d, random_tour(n, seed)).order.tolist()
        rows = d.tolist()
        table = _candidate_table(cand, rows)
        first = [None] * n
        rng = np.random.default_rng(seed)
        for u1 in range(n):
            _construct(rows, base, _positions(base), table, pruned.item, first, u1,
                       SearchStats(), rng.random)
        for i, u1 in enumerate(base):
            v1, nb = base[(i + 1) % n], base[(i + 2) % n]
            row = sorted(cand[v1].tolist(), key=lambda c: d[v1, c])
            want = [c for c in row
                    if d[u1, v1] - d[v1, c] > MIN_GAIN and c != u1 and c != nb]
            weights = [max(float(pruned[v1, c]), WEIGHT_FLOOR) for c in want]
            feas, cums = first[u1]
            assert [entry[0] for entry in feas] == want
            assert cums == list(itertools.accumulate(weights))


class TestExpandNode:
    def test_returns_best_gain_action(self):
        # from a 2-opted tour few attempts improve and most dead-end, so the
        # endings and the best gain depend on which anchors were drawn; from
        # a random tour every attempt improves and any anchor stream passes
        inst = generate_random(12, 3)
        d = distance_matrix(inst)
        tour = Tour.from_order(reference_two_opt_order(d, random_tour(12, 3).order.copy()))
        cand = candidate_lists(d, 6, DISTANCE_MODE)
        _, pruned = top_m_filter(np.exp(-d), 6)
        params = dist_params(expand_budget=120)
        stats = SearchStats()
        rng = np.random.default_rng(3)
        out = expand_node(d, tour, cand, pruned, stats, params, rng)
        assert out is not None
        new_tour, action = out
        assert stats.improving >= 1 and stats.dead_ends >= 1
        # replay the expansion's own attempts as _expand makes them: all
        # anchors drawn at once, one first-step memo shared by the attempts;
        # they end alike, and nothing beat the chosen gain
        replay = SearchStats()
        rng = np.random.default_rng(3)
        base = tour.order.tolist()
        pos = _positions(base)
        rows = d.tolist()
        table = _candidate_table(cand, rows)
        first = [None] * 12
        gains = []
        for u1 in rng.integers(12, size=120).tolist():
            a = _construct(rows, base, pos, table, pruned.item, first, u1, replay, rng.random)
            if a is not None:
                gains.append(a.gain)
        assert (replay.improving, replay.dead_ends) == (stats.improving, stats.dead_ends)
        assert max(gains) == action.gain
        assert tour_length(d, new_tour) == pytest.approx(
            tour_length(d, tour) - action.gain, abs=1e-9
        )

    def test_no_improvement_on_optimal_tour(self):
        from tspheat.bench import held_karp_exact

        inst = generate_random(5, 3)
        d = distance_matrix(inst)
        opt_tour, _ = held_karp_exact(inst)
        cand = candidate_lists(d, 4, DISTANCE_MODE)
        _, pruned = top_m_filter(np.exp(-d), 4)
        params = dist_params(expand_budget=200)
        stats = SearchStats()
        rng = np.random.default_rng(3)
        assert expand_node(d, opt_tour, cand, pruned, stats, params, rng) is None
        assert stats.total_expansions == 200

    def test_every_attempt_ends_once(self):
        # each attempt ends exactly once: improving or at a dead end
        inst = generate_random(40, 5)
        d = distance_matrix(inst)
        tour = random_tour(40, 5)
        cand = candidate_lists(d, 6, DISTANCE_MODE)
        _, pruned = top_m_filter(np.exp(-d), 6)
        params = dist_params(expand_budget=200)
        stats = SearchStats()
        expand_node(d, tour, cand, pruned, stats, params, np.random.default_rng(5))
        assert stats.total_expansions == 200
        assert stats.dead_ends > 0 and stats.improving > 0
        assert stats.dead_ends + stats.improving == stats.total_expansions
        # replay: the expansion draws all its anchors at once, then each
        # attempt draws its cities; here every attempt gets a fresh
        # first-step memo, so a stale shared memo would show as a different
        # ending
        replay = SearchStats()
        rng = np.random.default_rng(5)
        base = tour.order.tolist()
        rows = d.tolist()
        table = _candidate_table(cand, rows)
        for u1 in rng.integers(40, size=200).tolist():
            _construct(rows, base, _positions(base), table, pruned.item, [None] * 40, u1,
                       replay, rng.random)
        assert (replay.dead_ends, replay.improving) == (stats.dead_ends, stats.improving)

    def test_counts_every_attempt(self):
        inst = generate_random(10, 7)
        d = distance_matrix(inst)
        tour = random_tour(10, 7)
        cand = candidate_lists(d, 4, DISTANCE_MODE)
        _, pruned = top_m_filter(np.exp(-d), 4)
        params = dist_params(expand_budget=33)
        stats = SearchStats()
        rng = np.random.default_rng(7)
        expand_node(d, tour, cand, pruned, stats, params, rng)
        assert stats.total_expansions == 33


class TestUpdateHeatmap:
    def _action(self):
        return KOptAction(
            sequence=(0, 1, 2, 3, 0),
            removed=((0, 1), (2, 3)),
            added=((1, 2), (0, 3)),
            gain=1.0,
            new_order=np.array([0, 2, 1, 3]),
        )

    def test_closed_form_increment(self):
        pruned = np.zeros((4, 4))
        update_heatmap(pruned, self._action(), 10.0, 9.0, 10.0)
        expect = 10.0 * (math.exp(0.1) - 1.0)
        assert expect == pytest.approx(1.0517091808, abs=1e-9)
        assert pruned[1, 2] == pytest.approx(expect, abs=1e-12)
        assert pruned[2, 1] == pytest.approx(expect, abs=1e-12)
        assert pruned[0, 3] == pytest.approx(expect, abs=1e-12)
        assert pruned[0, 1] == 0.0

    def test_noop_without_improvement(self):
        pruned = np.ones((4, 4))
        update_heatmap(pruned, self._action(), 10.0, 10.0, 10.0)
        assert np.all(pruned == 1.0)

    def test_noop_with_zero_beta(self):
        pruned = np.ones((4, 4))
        update_heatmap(pruned, self._action(), 10.0, 9.0, 0.0)
        assert np.all(pruned == 1.0)

    def test_symmetry_preserved_after_many_updates(self):
        rng = np.random.default_rng(0)
        n = 20
        pruned = rng.random((n, n))
        pruned = pruned + pruned.T
        np.fill_diagonal(pruned, 0.0)
        for _ in range(10_000):
            a, b = int(rng.integers(n)), int(rng.integers(n))
            if a == b:
                continue
            e = (min(a, b), max(a, b))
            action = KOptAction(
                sequence=(), removed=(), added=(e,), gain=1.0, new_order=np.arange(n)
            )
            l_old = 1.0 + float(rng.random())
            update_heatmap(pruned, action, l_old, l_old - 0.5, float(rng.random() * 50))
        assert np.array_equal(pruned, pruned.T)


class TestRunSearch:
    def test_requires_budget(self):
        inst = generate_random(6, 0)
        pruned = np.zeros((6, 6))
        with pytest.raises(ValueError):
            run_search(inst, pruned, SearchParams(), 0)

    def test_deterministic_without_time_budget(self):
        inst = generate_random(12, 5)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(np.exp(-d), 5)
        params = dist_params(beta=0.0, max_rounds=1)
        t1, s1 = run_search(inst, pruned, params, 11)
        t2, s2 = run_search(inst, pruned, params, 11)
        assert np.array_equal(t1.order, t2.order)
        assert s1.best_length == s2.best_length
        assert s1.total_expansions == s2.total_expansions

    def test_round_best_non_increasing(self):
        inst = generate_random(15, 2)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(np.exp(-d), 6)
        params = dist_params(max_rounds=8)
        _, stats = run_search(inst, pruned, params, 4)
        seq = stats.round_best_lengths
        assert len(seq) == 8
        assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_best_kept_by_exact_length(self):
        # the incremental length of an accepted tour can read an ulp below
        # a best tour of an earlier round it does not beat; comparing it let
        # the best rise. This run meets that case twice.
        inst = generate_random(20, 31)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(soft_heat(d), 6)
        params = SearchParams(m=6, expand_budget=100, max_rounds=6)
        tour, stats = run_search(inst, pruned, params, 1)
        seq = stats.round_best_lengths
        assert all(a >= b for a, b in zip(seq, seq[1:]))
        assert stats.best_length == seq[-1] == tour_length(d, tour)

    @pytest.mark.parametrize("k", [-20, -36, -40, 7, 100])
    def test_tiny_instance_searches_like_the_unit_one(self, k):
        # MIN_GAIN is absolute; an instance scaled by 2**k, tiny or large,
        # searches in its power-of-two frame, the unit instance's distances,
        # so it finds the unit run's tour and reports the unit length scaled
        # by 2**k
        inst = generate_random(50, 3)
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), 8)
        params = preset_for(50).with_budget(max_rounds=3)
        unit_tour, unit = run_search(inst, pruned, params, 3)
        tiny = Instance(coords=np.ldexp(inst.coords, k))
        tour, stats = run_search(tiny, pruned, params, 3)
        assert tour.order.tolist() == unit_tour.order.tolist()
        assert stats.best_length == math.ldexp(unit.best_length, k)
        assert stats.round_best_lengths == [math.ldexp(x, k) for x in unit.round_best_lengths]
        assert stats.best_length == tour_length(distance_matrix(tiny), tour)
        assert (stats.improving, stats.or_moves) == (unit.improving, unit.or_moves)

    def test_never_worse_than_first_round_two_opt(self):
        inst = generate_random(15, 8)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(np.exp(-d), 6)
        params = dist_params(max_rounds=4)
        first = first_round_start(d, 21)
        tour, stats = run_search(inst, pruned, params, 21)
        assert stats.best_length <= tour_length(d, first) + 1e-12

    def test_expired_budget_returns_first_round_two_opt(self):
        inst = generate_random(15, 8)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(np.exp(-d), 6)
        params = dist_params(time_budget=1e-12)
        first = first_round_start(d, 21)
        tour, stats = run_search(inst, pruned, params, 21)
        assert stats.rounds == 1
        assert stats.total_expansions == 0
        assert np.array_equal(tour.order, first.order)
        assert brute_force_two_opt_scan(d, tour.order.tolist()) > -1e-9
        assert list_moves_left(d, tour.order.tolist()) == []
        assert math.isfinite(stats.best_length)
        assert stats.best_length == tour_length(d, tour)

    def test_deadline_inside_an_expansion(self, monkeypatch, one_stream):
        # a fake clock lets the deadline pass after attempt K of an expansion
        # in a round r >= 2 that has applied a move: no attempt starts after
        # it, round r is the last, and the run returns its best tour with the
        # length it recorded for it (one stream, so the spies see every round)
        import types

        import tspheat.search as search_mod

        K = 3
        inst = generate_random(30, 4)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(soft_heat(d), 6)
        now = [0.0]
        seen = dict(round=0, moved=False, attempt=0, attempts=0, late=0, deadline_round=0)
        real_pass, real_expand = search_mod._neighbor_pass, search_mod._expand
        real_update, real_construct = search_mod.update_heatmap, search_mod._construct

        def pass_spy(*args):
            seen.update(round=seen["round"] + 1, moved=False)
            return real_pass(*args)

        def expand_spy(*args):
            seen["attempt"] = 0
            return real_expand(*args)

        def update_spy(*args):
            seen["moved"] = True
            return real_update(*args)

        def construct_spy(*args):
            seen["late"] += bool(seen["deadline_round"])
            action = real_construct(*args)
            seen["attempt"] += 1
            seen["attempts"] += 1
            if (seen["round"] >= 2 and seen["moved"] and seen["attempt"] == K
                    and not seen["deadline_round"]):
                now[0] = 2.0  # the deadline is at 1.0
                seen["deadline_round"] = seen["round"]
            return action

        monkeypatch.setattr(search_mod, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(search_mod, "_neighbor_pass", pass_spy)
        monkeypatch.setattr(search_mod, "_expand", expand_spy)
        monkeypatch.setattr(search_mod, "update_heatmap", update_spy)
        monkeypatch.setattr(search_mod, "_construct", construct_spy)
        params = dist_params(m=6, max_rounds=None, time_budget=1.0)
        tour, stats = run_search(inst, pruned, params, 3)
        assert seen["deadline_round"] >= 2
        assert stats.rounds == seen["deadline_round"] == len(stats.round_best_lengths)
        assert seen["late"] == 0
        assert stats.total_expansions == seen["attempts"]
        assert tour_length(d, tour) == stats.best_length == stats.round_best_lengths[-1]

    def test_time_budget_counts_from_the_call(self, monkeypatch, in_process):
        # a fake clock that building the frame moves on by 1.0: the deadline
        # every stream reads is the clock at the call plus the budget, in a
        # one-stream run and in a split run alike
        import types

        import tspheat.search as search_mod

        now = [50.0]
        build, stream, deadlines = _Frame.build, search_mod._stream, []

        def slow_build(inst, m):
            now[0] += 1.0
            return build(inst, m)

        def stream_spy(*args):
            deadlines.append(args[5])
            return stream(*args)

        monkeypatch.setattr(search_mod, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(_Frame, "build", slow_build)
        monkeypatch.setattr(search_mod, "_stream", stream_spy)
        for n, streams in ((15, 1), (30, 2)):
            inst = generate_random(n, 2)
            _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), 8)
            entry = now[0]
            deadlines.clear()
            run_search(inst, pruned, preset_for(n).with_budget(time_budget=100, max_rounds=2), 1)
            assert now[0] == entry + 1.0
            assert deadlines == [entry + 100] * streams

    def test_round_start_is_the_neighbor_pass_alone(self):
        # on this n=100 start the full 2-opt scan still finds moves after
        # the pass; a round does not run the scan, so round 1's tour is the
        # pass's fixpoint as it stands. The run makes no kick, so it keeps
        # one stream, whose deadline passes before round 1's first expansion
        inst = generate_random(100, 1)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(soft_heat(d), 8)
        params = dist_params(m=8, time_budget=1e-12)
        first = first_round_start(d, 2)
        assert list_moves_left(d, first.order.tolist()) == []
        assert brute_force_two_opt_scan(d, first.order.tolist()) < -MIN_GAIN
        assert not np.array_equal(reference_two_opt_order(d, first.order.copy()), first.order)
        tour, stats = run_search(inst, pruned, params, 2)
        assert stats.rounds == 1
        assert stats.total_expansions == 0
        assert np.array_equal(tour.order, first.order)
        assert stats.best_length == tour_length(d, tour)

    def test_round_start_lists_grow_with_n(self):
        # n = 300 gives the pass lists of 9, and on this start the pass with
        # lists of 8 ends at another tour
        inst = generate_random(300, 0)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(soft_heat(d), 4)
        params = dist_params(time_budget=1e-12)
        first = first_round_start(d, 2)
        assert pass_neighbors(300) == 9
        assert list_moves_left(d, first.order.tolist()) == []
        rows = d.tolist()
        eight = as_table([[(c, rows[a][c]) for c in cl.tolist()]
                          for a, cl in enumerate(candidate_lists(d, 8, DISTANCE_MODE))])
        rng = np.random.default_rng(2)
        start = round_start_order(d, rng)
        _neighbor_pass(rows, eight, start, _positions(start), SearchStats())
        assert not np.array_equal(start, first.order)
        tour, stats = run_search(inst, pruned, params, 2)
        assert stats.total_expansions == 0
        assert np.array_equal(tour.order, first.order)

    def test_best_length_matches_best_tour(self):
        inst = generate_random(12, 3)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(np.exp(-d), 5)
        tour, stats = run_search(inst, pruned, dist_params(max_rounds=5), 9)
        assert stats.best_length == pytest.approx(tour_length(d, tour), abs=1e-9)
        assert sorted(tour.order.tolist()) == list(range(12))

    def test_stats_populated(self):
        inst = generate_random(10, 6)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(np.exp(-d), 5)
        _, stats = run_search(inst, pruned, dist_params(max_rounds=3), 1)
        # round 2 ends at round 1's length, and the 1-tree bound then proves
        # that tour optimal
        assert stats.rounds == stats.proof_round == 2
        assert stats.total_expansions >= 2 * 1
        assert stats.dead_ends <= stats.total_expansions

    def test_two_opt_seconds_within_wall_time(self):
        inst = generate_random(30, 6)
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), 5)
        t0 = time.perf_counter()
        _, stats = run_search(inst, pruned, dist_params(max_rounds=3), 1)
        wall = time.perf_counter() - t0
        assert 0.0 < stats.two_opt_seconds <= wall

    def test_distance_lists_built_once(self, monkeypatch):
        # a run ranks the distances once and builds one candidate table, on
        # its frame; no round builds lists or a table of its own
        import tspheat.search as search_mod

        inst = generate_random(20, 3)
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), 6)
        params = dist_params(max_rounds=12)
        want, want_stats = run_search(inst, pruned, params, 5)
        modes = []
        tables = []

        def counted_lists(matrix, m, mode):
            modes.append(mode)
            return candidate_lists(matrix, m, mode)

        def counted_table(cand, rows):
            tables.append(_candidate_table(cand, rows))
            return tables[-1]

        monkeypatch.setattr(search_mod, "candidate_lists", counted_lists)
        monkeypatch.setattr(search_mod, "_candidate_table", counted_table)
        tour, stats = run_search(inst, pruned, params, 5)
        assert stats.rounds > 1
        assert modes == [DISTANCE_MODE]
        assert len(tables) == 1
        assert tour.order.tolist() == want.order.tolist()
        assert stats.best_length == want_stats.best_length

    def test_draws_read_the_current_heat(self, monkeypatch, one_stream):
        # the candidate table holds no heat: the run's one table, built with
        # its frame, serves every round, and every draw weighs its
        # candidates by the run's heat map as it stands, heat updates
        # included (one stream, so the spies see every round)
        import tspheat.search as search_mod

        inst = generate_random(30, 4)
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), 6)
        real_table, real_pass = search_mod._candidate_table, search_mod._neighbor_pass
        real_expand, real_update = search_mod._expand, search_mod.update_heatmap
        real_feasible, real_start = search_mod._feasible, search_mod._round_start
        tables = []  # every table built, in order
        frames = []  # the frame of each round
        rounds = []  # per round: (tables built by its start, tables expanded)
        run_heat = [pruned]  # equal to the run's heat map until its first update
        checks = []  # per _feasible call: was the heat updated by then

        def table_spy(cand, rows):
            tables.append(real_table(cand, rows))
            return tables[-1]

        def start_spy(frame, *args):
            frames.append(frame)
            return real_start(frame, *args)

        def pass_spy(*args):
            rounds.append((len(tables), []))
            return real_pass(*args)

        def expand_spy(rows, order, table, *args):
            rounds[-1][1].append(table)
            return real_expand(rows, order, table, *args)

        def update_spy(hp, *args):
            run_heat[0] = hp
            return real_update(hp, *args)

        def feasible_spy(row, vi, heat_at, *args):
            feas, cums = real_feasible(row, vi, heat_at, *args)
            hp = run_heat[0]
            weights = [max(float(hp[vi, c]), WEIGHT_FLOOR) for c, _, _ in feas]
            assert cums == list(itertools.accumulate(weights))
            checks.append(hp is not pruned)
            return feas, cums

        monkeypatch.setattr(search_mod, "_candidate_table", table_spy)
        monkeypatch.setattr(search_mod, "_round_start", start_spy)
        monkeypatch.setattr(search_mod, "_neighbor_pass", pass_spy)
        monkeypatch.setattr(search_mod, "_expand", expand_spy)
        monkeypatch.setattr(search_mod, "update_heatmap", update_spy)
        monkeypatch.setattr(search_mod, "_feasible", feasible_spy)
        _, stats = run_search(inst, pruned, dist_params(m=6, max_rounds=6), 4)
        assert len(rounds) == len(frames) == stats.rounds == 6
        assert len(tables) == 1
        assert all(frame is frames[0] for frame in frames)
        for built, expanded in rounds:
            assert built == 1
            assert expanded and all(table is frames[0].dist_table for table in expanded)
        # draws ran both before and after the first heat update
        assert any(checks) and not all(checks)
        assert not np.array_equal(run_heat[0], pruned)

    @pytest.mark.parametrize("n, instance_seed, rounds", [
        pytest.param(16, 14, 12, id="16-14-12"),
        pytest.param(50, 50, 6, id="50-50-6"),
        pytest.param(50, 50, 10, id="50-50-10"),
        pytest.param(120, 120, 3, id="120-120-3"),
    ])
    def test_heat_outside_the_lists_is_never_read(self, n, instance_seed, rounds):
        # a draw reads the heat only at (u, c) for c in u's list of its m
        # nearest cities, and a heat update only adds to entries, so a heat
        # map that differs only outside those lists gives the same run, with
        # one stream or two. The n = 50 cases run tsp50 as it was before its
        # kicks, whose rounds made improving moves and updated the heat, as
        # one stream; the n = 120 case kicks and splits, and only its
        # streams' fresh descents make attempts, so it runs them at tsp200's
        # published budget of 600 attempts, under which they improve
        inst = generate_random(n, instance_seed)
        d = distance_matrix(inst)
        params = preset_for(n).with_budget(max_rounds=rounds)
        if n == 50:
            params = replace(params, expand_budget=150, kicks=0)
        elif n == 120:
            params = replace(params, expand_budget=600)
        assert (params.kicks > 0) == (n == 120)
        _, pruned = top_m_filter(soft_heat(d), params.m)
        outside = np.ones((n, n), dtype=bool)
        for u, cl in enumerate(candidate_lists(d, params.m, DISTANCE_MODE)):
            outside[u, cl] = False
        other = pruned.copy()
        other[outside] = np.random.default_rng(n).random(int(outside.sum())) * 10.0
        assert not np.array_equal(other, pruned)

        def run(heat):
            tour, stats = run_search(inst, heat, params, 1)
            # repr, so that a nan lower bound compares equal
            return tour.order.tolist(), repr(vars(stats) | {"two_opt_seconds": None})

        want = run(pruned)
        assert "'improving': 0," not in want[1]  # heat updates happened
        assert run(other) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -5.0])
    def test_rejects_non_finite_or_negative_heat(self, bad):
        # the rules parse_heatmap applies to heat-map files; a NaN weight
        # would turn every later running sum of a draw into NaN
        inst = generate_random(8, 0)
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), 4)
        pruned[2, 5] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            run_search(inst, pruned, dist_params(max_rounds=2), 0)

    def test_running_sums_stay_finite_for_any_accepted_heat(self, monkeypatch, in_process):
        # every positive pruned entry at 1e308: the run scales its heat copy
        # by a power of two, so no running weight sum of a draw overflows to
        # inf (after which _draw always took a row's last candidate); an
        # ordinary heat map is copied as it is; the fresh descents run 150
        # attempts, so that the run makes over 100 draws
        import tspheat.search as search_mod

        inst = generate_random(30, 1)
        params = replace(preset_for(30), expand_budget=150).with_budget(max_rounds=3)
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), params.m)
        assert _run_heat(pruned).tobytes() == pruned.tobytes()
        pruned[pruned > 0] = 1e308
        real = search_mod._feasible
        sums = []

        def feasible_spy(*args):
            feas, cums = real(*args)
            sums.extend(cums)
            return feas, cums

        monkeypatch.setattr(search_mod, "_feasible", feasible_spy)
        tour, stats = run_search(inst, pruned, params, 1)
        assert stats.rounds == 3 and len(sums) > 100
        assert all(math.isfinite(x) for x in sums)
        assert stats.best_length == tour_length(distance_matrix(inst), tour)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("layout", ["duplicate", "collinear"])
    def test_tiny_degenerate_instances(self, n, layout):
        from tspheat.bench import held_karp_exact

        if layout == "duplicate":
            coords = np.full((n, 2), 0.25)
        else:
            x = np.random.default_rng(n).permutation(n).astype(np.float64)
            coords = np.column_stack([x, 2.0 * x])
        inst = Instance(coords=coords)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(soft_heat(d), n - 1)
        tour, stats = run_search(inst, pruned, PRESETS["tsp20"].with_budget(max_rounds=3), n)
        assert sorted(tour.order.tolist()) == list(range(n))
        _, opt = held_karp_exact(inst)
        assert stats.best_length == tour_length(d, tour) == pytest.approx(opt, abs=1e-12)
        assert stats.dead_ends + stats.improving == stats.total_expansions


class TestKicks:
    """Above 20 cities a stream's first round ends with params.kicks kicks of
    its best tour (_kick), and every later round is params.kicks kicks of the
    stream's best tour: a double bridge and a neighbour-list pass seeded with
    its six end cities, with no k-opt attempt; a kick is kept only if it
    ends shorter."""

    @staticmethod
    def setting(n, seed, kicks=1):
        inst = generate_random(n, seed)
        params = replace(preset_for(n), kicks=kicks)
        frame = _Frame.build(inst, params.m)
        rng = np.random.default_rng(seed)
        start = _round_start(frame, SearchStats(), rng)
        return frame, params, rng, start

    @pytest.mark.parametrize("n, seed", [(30, 2), (60, 3), (150, 2)])
    def test_a_kept_kick_shortens_and_a_rejected_one_changes_nothing(self, n, seed):
        # one kick per call, each from the best so far; on these starts
        # some kicks are kept and most are not
        frame, params, rng, order = self.setting(n, seed)
        length = order_length(frame.d, order)
        kept = rejected = 0
        for _ in range(60):
            before = order.tobytes()
            stats = SearchStats()
            new_len, new_order = _kick(frame, stats, rng, params, None, length, order)
            assert stats.kicks == 1
            assert order.tobytes() == before
            if stats.kicks_kept:
                kept += 1
                assert new_len < length
                assert new_len == order_length(frame.d, new_order)
                assert sorted(new_order.tolist()) == list(range(n))
                order, length = new_order, new_len
            else:
                rejected += 1
                assert new_order is order and new_len == length
        assert kept and rejected

    def test_kicks_keep_the_best_of_a_round(self):
        # many kicks in one call: the best only shortens, and the tour
        # returned is the first of the length returned
        frame, params, rng, order = self.setting(100, 3, kicks=40)
        length = order_length(frame.d, order)
        stats = SearchStats()
        new_len, new_order = _kick(frame, stats, rng, params, None, length, order)
        assert stats.kicks == 40 and 0 < stats.kicks_kept < 40
        assert new_len < length and new_len == order_length(frame.d, new_order)
        # the seeded repairs are the kicks' only moves
        assert stats.total_expansions == 0
        assert stats.two_opt_moves + stats.or_moves > 0

    def test_a_kick_makes_no_k_opt_attempt(self, monkeypatch):
        import tspheat.search as search_mod

        calls = []
        monkeypatch.setattr(search_mod, "_construct", lambda *args: calls.append(args))
        frame, params, rng, order = self.setting(100, 3, kicks=40)
        stats = SearchStats()
        _kick(frame, stats, rng, params, None, order_length(frame.d, order), order)
        assert stats.kicks == 40 and stats.kicks_kept
        assert calls == []

    @pytest.mark.parametrize("n, seed", [(30, 1), (100, 4), (200, 2)])
    def test_kick_rounds_make_no_attempt(self, n, seed):
        # a kicked stream's attempts are its round 1 fresh descent's, so a
        # round cap of 3 makes as many as a cap of 1, from the same seed
        params = preset_for(n)
        frame = _Frame.build(generate_random(n, seed), params.m)
        _, pruned = top_m_filter(soft_heat(frame.d), params.m)
        counts = []
        for rounds in (1, 3):
            _, stats = _stream(frame, _run_heat(pruned), params, np.random.default_rng(seed),
                               rounds, None)
            assert (stats.rounds, stats.starts, stats.kicks) == (rounds, 1, rounds * params.kicks)
            counts.append((stats.improving, stats.dead_ends))
        assert counts[0] == counts[1] and sum(counts[0]) > 0

    @pytest.mark.parametrize("n", [8, 30, 200])
    def test_the_seeded_repair_leaves_no_move_at_the_cities_it_queued(self, n):
        # the pass reads a city's list only when it scans the city, so a list
        # that records the cities it is read at records the cities scanned
        inst = generate_random(n, n + 1)
        d = distance_matrix(inst)
        rows = d.tolist()
        popped = []

        class Recording(list):
            def __getitem__(self, a):
                popped.append(a)
                return super().__getitem__(a)

        table = Recording(as_table(neighbor_pairs(d)))
        rng = np.random.default_rng(n)
        widest = min(KICK_SEGMENT, (n - 1) // 2)
        for _ in range(20):
            tour = neighbor_pass(d, rng.permutation(n).tolist()).tolist()
            pos = _positions(tour)
            i, l1, l2 = int(rng.integers(n)), *rng.integers(1, widest + 1, size=2).tolist()
            ends, added = _double_bridge(tour, pos, rows, i, l1, l2)
            kicked = order_length(d, np.array(tour))
            popped.clear()
            gain = _neighbor_pass(rows, table, tour, pos, SearchStats(), ends)
            assert set(ends) <= set(popped)
            assert sorted(tour) == list(range(n))
            assert all(tour[pos[c]] == c for c in range(n))
            assert kicked - order_length(d, np.array(tour)) == pytest.approx(gain, abs=1e-12)
            assert [m for m in list_moves_left(d, tour) if m[1] in set(popped)] == []

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 40])
    def test_double_bridge_swaps_two_segments(self, n):
        rng = np.random.default_rng(n)
        d = distance_matrix(generate_random(n, n))
        rows = d.tolist()
        widest = min(KICK_SEGMENT, (n - 1) // 2)
        for _ in range(30):
            tour = rng.permutation(n).tolist()
            pos = _positions(tour)
            i, l1, l2 = int(rng.integers(n)), *rng.integers(1, widest + 1, size=2).tolist()
            rotated = tour[i:] + tour[:i]
            want = rotated[l1:l1 + l2] + rotated[:l1] + rotated[l1 + l2:]
            before = order_length(d, np.array(tour))
            ends, added = _double_bridge(tour, pos, rows, i, l1, l2)
            assert tour[i:] + tour[:i] == want
            assert all(tour[pos[c]] == c for c in range(n))
            assert ends == (rotated[-1], rotated[0], rotated[l1 - 1], rotated[l1],
                            rotated[l1 + l2 - 1], rotated[(l1 + l2) % n])
            assert order_length(d, np.array(tour)) - before == pytest.approx(added, abs=1e-12)
            assert len(edges(tour) - edges(rotated)) <= 3

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_kicked_runs_on_the_smallest_instances(self, n):
        inst = generate_random(n, n)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(soft_heat(d), n - 1)
        params = SearchParams(m=n - 1, expand_budget=4, kicks=6, max_rounds=3)
        for seed in range(5):
            tour, stats = run_search(inst, pruned, params, seed)
            assert sorted(tour.order.tolist()) == list(range(n))
            assert stats.best_length == tour_length(d, tour)
            # at n = 3 every order is the same cycle, so no kick is made
            assert stats.kicks == (0 if n == 3 else 6 * stats.rounds)
            assert stats.kicks_kept <= stats.kicks

    def test_no_kick_starts_at_the_deadline(self, monkeypatch, one_stream):
        # a fake clock passes the deadline during round 1's third kick: that
        # kick ends, no later kick or round starts, and the run returns its
        # best tour with its exact length. Each kick's repair is one seeded
        # pass, so the spy counts those
        import types

        import tspheat.search as search_mod

        now = [0.0]
        repairs = []
        real = search_mod._neighbor_pass

        def pass_spy(*args):
            if len(args) > 5:
                repairs.append(args[5])
                if len(repairs) == 3:
                    now[0] = 2.0  # the deadline is at 1.0
            return real(*args)

        monkeypatch.setattr(search_mod, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(search_mod, "_neighbor_pass", pass_spy)
        inst = generate_random(60, 5)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(soft_heat(d), 8)
        params = replace(preset_for(60), kicks=10).with_budget(time_budget=1.0)
        tour, stats = run_search(inst, pruned, params, 5)
        assert (stats.rounds, stats.kicks, len(repairs)) == (1, 3, 3)
        assert stats.best_length == tour_length(d, tour)

    def test_the_bound_fires_on_the_fresh_descent(self, monkeypatch, one_stream):
        # the 1-tree bound is triggered by the length a round's fresh descent
        # ends at, never by a kick: a kicked stream descends fresh in round 1
        # alone, so it computes no bound, while the same run without kicks
        # computes it after the first round whose descent ends at the best
        # length of the rounds before it
        import tspheat.search as search_mod

        real_round, ends, calls = search_mod._round, [], []

        def round_spy(*args):
            out = real_round(*args)
            ends.append(out[:2])
            return out

        monkeypatch.setattr(search_mod, "_round", round_spy)
        monkeypatch.setattr(search_mod, "one_tree_bound",
                            lambda d, upper: calls.append(len(ends)) or -math.inf)
        inst = generate_random(60, 5)
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), 8)
        kicked = preset_for(60).with_budget(max_rounds=10)
        for params in (kicked, replace(kicked, kicks=0)):
            ends.clear()
            calls.clear()
            _, stats = run_search(inst, pruned, params, 5)
            assert stats.kicks == 10 * params.kicks
            assert len(ends) == stats.starts == (1 if params.kicks else 10)
            best = [min(b for _, b in ends[:r]) for r in range(1, len(ends) + 1)]
            want = [r + 1 for r in range(1, len(ends))
                    if abs(ends[r][0] - best[r - 1]) <= MIN_GAIN]
            assert calls == want[:1]
        assert calls

    @pytest.mark.parametrize("n, cap", [(12, 6), (16, 12), (20, 5), (30, 1), (30, 2), (60, 3),
                                        (60, 7), (120, 10)])
    def test_a_kicked_stream_starts_fresh_once(self, n, cap, monkeypatch, in_process):
        # after round 1, each round of a kicked stream is params.kicks kicks
        # of the stream's best tour: one round start per stream (two
        # streams, both in this process, for a cap above 1). tsp20 makes no
        # kick and starts every round fresh
        import tspheat.search as search_mod

        real, calls = search_mod._round_start, []
        monkeypatch.setattr(search_mod, "_round_start",
                            lambda *args: calls.append(args) or real(*args))
        inst = generate_random(n, cap)
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), 8)
        params = preset_for(n).with_budget(max_rounds=cap)
        _, stats = run_search(inst, pruned, params, cap)
        assert stats.kicks == stats.rounds * params.kicks
        if params.kicks:
            assert len(calls) == stats.starts == min(cap, 2)
            assert stats.rounds == cap
        else:
            assert len(calls) == stats.starts == stats.rounds >= 1

    @pytest.mark.parametrize("last", [0, 3, 10, 17])
    def test_a_timed_kicked_stream_kicks_until_its_deadline(self, last, monkeypatch, one_stream):
        # a fake clock passes the deadline during kick number `last` (0:
        # during round 1's start). The stream starts fresh once and kicks
        # round after round until then; the kick under way ends, and no
        # later kick or round starts. With no kick made, the run returns
        # round 1's start. The spy counts kicks by their seeded repairs
        import types

        import tspheat.search as search_mod

        now, starts, repairs = [0.0], [], []
        real_start, real_pass = search_mod._round_start, search_mod._neighbor_pass

        def start_spy(*args):
            starts.append(real_start(*args))
            if last == 0:
                now[0] = 2.0  # the deadline is at 1.0
            return starts[-1]

        def pass_spy(*args):
            if len(args) > 5:
                repairs.append(args[5])
                if len(repairs) == last:
                    now[0] = 2.0
            return real_pass(*args)

        monkeypatch.setattr(search_mod, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(search_mod, "_round_start", start_spy)
        monkeypatch.setattr(search_mod, "_neighbor_pass", pass_spy)
        inst = generate_random(60, 5)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(soft_heat(d), 8)
        params = preset_for(60).with_budget(time_budget=1.0)
        tour, stats = run_search(inst, pruned, params, 5)
        assert len(starts) == stats.starts == 1
        assert (stats.rounds, stats.kicks) == (max(1, -(-last // params.kicks)), last)
        assert stats.best_length == tour_length(d, tour)
        assert stats.best_length <= order_length(d, starts[0])
        if last == 0:
            assert stats.total_expansions == 0
            assert tour.order.tolist() == starts[0].tolist()


class TestFrame:
    """A run's frame is what every round reads and no round changes, so
    rounds of several runs can share one."""

    @staticmethod
    def rounds(frame, pruned, params, seed, count):
        """count rounds of one run on frame: their (end length, best length,
        best order), the run's counters and its heat map."""
        heat, stats, rng = pruned.copy(), SearchStats(), np.random.default_rng(seed)
        out = [_round(frame, heat, stats, rng, params, None) for _ in range(count)]
        counters = (stats.improving, stats.dead_ends, stats.or_moves)
        return [(end, best, order.tolist()) for end, best, order in out], counters, heat

    def test_rounds_leave_a_shared_frame_as_built(self):
        # n = 40 with m = 6: the pass's lists (8) and the distance rounds'
        # lists differ in length, as at n = 300 under tsp500
        inst = generate_random(40, 1)
        params = replace(PRESETS["tsp50"], m=6, expand_budget=150)
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), params.m)
        shared = _Frame.build(inst, params.m)
        runs = [self.rounds(shared, pruned, params, seed, 4) for seed in (1, 3)]
        fresh = _Frame.build(inst, params.m)
        assert shared.e == fresh.e
        assert np.array_equal(shared.d, fresh.d)
        assert shared.rows == fresh.rows
        assert shared.nbrs == fresh.nbrs
        assert {len(row) for row in shared.dist_table} == \
            {len(row) for row in fresh.dist_table} == {6}
        assert shared.dist_table == fresh.dist_table
        with pytest.raises(ValueError, match="read-only"):
            shared.d[0, 1] = 0.0
        # each run's rounds moved the tour and the heat, and match the same
        # run on a frame of its own
        for seed, (results, counters, heat) in zip((1, 3), runs):
            assert counters[0] > 0 and not np.array_equal(heat, pruned)
            own_results, own_counters, own_heat = self.rounds(
                _Frame.build(inst, params.m), pruned, params, seed, 4)
            assert (own_results, own_counters) == (results, counters)
            assert np.array_equal(own_heat, heat)

    @pytest.mark.parametrize("inst", [
        pytest.param(generate_random(3, 3), id="n3"),
        pytest.param(generate_random(16, 4), id="n16"),
        pytest.param(generate_random(300, 5), id="n300"),
        pytest.param(Instance(coords=np.full((12, 2), 0.25)), id="coincident"),
    ])
    def test_distances_and_pass_lists_do_not_depend_on_m(self, inst):
        # the nearest-neighbour baseline builds its frame at m = 1
        n = inst.n
        base = _Frame.build(inst, 1)
        assert {len(row) for row in base.dist_table} == {1}
        for m in (2, 8, n - 1):
            frame = _Frame.build(inst, m)
            assert frame.e == base.e
            assert frame.d.tobytes() == base.d.tobytes()
            assert frame.rows == base.rows
            assert frame.nbrs == base.nbrs

    @pytest.mark.parametrize("inst, m", [
        pytest.param(generate_random(3, 3), 8, id="n3"),
        pytest.param(generate_random(16, 4), 8, id="n16"),
        pytest.param(generate_random(300, 5), PRESETS["tsp500"].m, id="n300-tsp500"),
        pytest.param(generate_random(40, 1), 6, id="n40-m6"),
        pytest.param(Instance(coords=np.full((12, 2), 0.25)), 8, id="coincident"),
    ])
    def test_one_table_serves_the_pass_and_the_expansions(self, inst, m):
        # the pass's lists and the expansions' rows are prefixes of one
        # stable distance ranking, with their distances read from rows
        n = inst.n
        frame = _Frame.build(inst, m)
        key = frame.d.copy()
        np.fill_diagonal(key, np.inf)
        ranking = np.argsort(key, axis=1, kind="stable").tolist()
        widths = {"nbrs": pass_neighbors(n), "dist_table": min(m, n - 1)}
        for name, width in widths.items():
            for u, row in enumerate(getattr(frame, name)):
                assert [c for c, _, _ in row] == ranking[u][:width]
                assert row == [(c, (min(u, c), max(u, c)), frame.rows[u][c]) for c, _, _ in row]
        if n == 300:
            assert widths == {"nbrs": 9, "dist_table": 5}
            assert all(a[:5] == b for a, b in zip(frame.nbrs, frame.dist_table))

    @pytest.mark.parametrize("n", [3, 4, 9, 16, 20, 21, 50, 51, 100, 150, 200])
    def test_presets_up_to_200_cities_build_one_table(self, n):
        frame = _Frame.build(generate_random(n, n), preset_for(n).m)
        assert frame.nbrs is frame.dist_table


# Pinned round-capped searches: a change that alters any RNG draw, sampled
# city or float of the search fails here. Changing a value needs a reason.
GOLDEN_SEARCHES = {
    "tsp20-n16": dict(
        n=16, instance_seed=3, seed=5,
        params=PRESETS["tsp20"].with_budget(max_rounds=12),
        # the cycle first found at this length; before the best was kept by
        # exact length, an incremental length an ulp lower replaced it with
        # the same cycle written from another start and direction
        order=[9, 4, 3, 15, 11, 0, 2, 14, 10, 8, 5, 6, 13, 7, 12, 1],
        # the run ends by proof after round 2 of at most 12 (it made 720
        # expansions, 720 dead ends and 35 Or-moves in 12 rounds before the
        # 1-tree bound stopped it)
        best_length="3.7710487245594857", expansions=120, rounds=2, dead_ends=120,
        or_moves=7, two_opt_moves=18, scans=85,
        round_best_lengths=["3.7710487245594857"] * 2,
        lower_bound="3.7710487245594857", proof_round=2,
    ),
    # tsp100 kicks: two streams of one round each, whose fresh descent runs
    # 18 attempts per expansion, then 8 kicks of its best tour
    "tsp100-n100": dict(
        n=100, instance_seed=4, seed=6,
        params=PRESETS["tsp100"].with_budget(max_rounds=2),
        order=[64, 11, 25, 77, 95, 3, 97, 90, 1, 91, 7, 29, 89, 0, 5, 81, 31, 24, 66, 61, 92, 27,
               76, 51, 96, 2, 47, 52, 62, 80, 36, 57, 4, 26, 16, 49, 86, 78, 56, 8, 34, 65, 72, 10,
               84, 73, 20, 67, 85, 98, 59, 30, 13, 75, 17, 70, 23, 69, 68, 94, 88, 38, 40, 87, 9,
               71, 37, 21, 83, 41, 60, 42, 79, 32, 53, 74, 6, 18, 39, 99, 15, 63, 43, 48, 12, 28,
               82, 55, 54, 33, 45, 58, 44, 50, 35, 93, 22, 14, 19, 46],
        best_length="7.757283698692335", expansions=72, rounds=2, dead_ends=70,
        or_moves=57, two_opt_moves=215, scans=1319, kicks=(16, 4),
        round_best_lengths=["7.757283698692335"] * 2,
        lower_bound="nan", proof_round=0,
    ),
    # the same run with tsp100 as it was before kicks: 300 attempts per
    # expansion and no kick, so one stream of two fresh rounds
    "tsp100-n100-no-kicks": dict(
        n=100, instance_seed=4, seed=6,
        params=replace(PRESETS["tsp100"], expand_budget=300, kicks=0).with_budget(max_rounds=2),
        order=[18, 39, 99, 15, 63, 43, 48, 12, 41, 60, 42, 79, 53, 74, 32, 17, 70, 23, 69, 68, 94,
               88, 38, 40, 87, 9, 71, 37, 83, 21, 33, 45, 58, 44, 50, 35, 54, 55, 82, 28, 14, 22,
               93, 46, 64, 19, 96, 11, 95, 25, 77, 90, 1, 91, 97, 3, 27, 92, 61, 66, 76, 51, 2, 47,
               52, 62, 80, 36, 57, 4, 5, 81, 24, 31, 7, 29, 89, 0, 26, 16, 49, 86, 78, 56, 8, 34,
               65, 72, 10, 84, 73, 20, 67, 85, 98, 59, 30, 13, 75, 6],
        best_length="7.654298698409481", expansions=3300, rounds=2, dead_ends=3250,
        or_moves=36, two_opt_moves=86, scans=698,
        round_best_lengths=["8.094062159828809", "7.654298698409481"],
        lower_bound="nan", proof_round=0,
    ),
    # a non-preset m, and no kick: one stream of six fresh rounds, whose
    # bound fires but proves nothing
    "custom-n30": dict(
        n=30, instance_seed=8, seed=9,
        params=SearchParams(beta=10.0, m=6, expand_budget=60, max_rounds=6),
        order=[2, 7, 23, 10, 21, 19, 15, 14, 25, 22, 13, 3, 24, 29, 11, 5, 6, 12, 16, 17, 4, 28, 8,
               27, 1, 0, 18, 26, 9, 20],
        best_length="4.6426066301079345", expansions=360, rounds=6, dead_ends=360,
        or_moves=42, two_opt_moves=101, scans=730,
        round_best_lengths=["4.748536330606426", "4.748536330606425", "4.642606630107935"]
        + ["4.6426066301079345"] * 3,
        lower_bound="4.546576924920412", proof_round=0,
    ),
    # preset_for(300) is tsp500: the distance rounds' lists hold m = 5 cities
    # while the pass's hold pass_neighbors(300) = 9, the one set-up where the
    # two lengths differ
    "tsp500-n300": dict(
        n=300, instance_seed=2, seed=7,
        params=PRESETS["tsp500"].with_budget(max_rounds=2),
        order=[185, 15, 140, 122, 141, 12, 189, 27, 137, 170, 62, 73, 223, 89, 35, 157, 202, 195,
               82, 120, 250, 266, 187, 159, 108, 52, 111, 152, 292, 236, 57, 26, 274, 41, 286, 11,
               163, 218, 136, 183, 90, 265, 16, 164, 230, 216, 54, 28, 234, 287, 290, 83, 106, 182,
               79, 2, 88, 156, 18, 34, 78, 243, 110, 7, 6, 56, 153, 13, 155, 143, 226, 121, 86, 4,
               178, 128, 268, 213, 277, 224, 103, 176, 217, 299, 272, 229, 102, 210, 99, 209, 139,
               85, 127, 174, 47, 150, 144, 298, 10, 238, 119, 258, 113, 37, 39, 36, 151, 200, 190,
               181, 269, 297, 94, 149, 263, 271, 71, 295, 8, 283, 59, 65, 241, 253, 20, 240, 67,
               242, 45, 197, 207, 19, 288, 126, 260, 21, 188, 63, 247, 270, 219, 177, 25, 17, 61,
               76, 22, 133, 280, 64, 228, 166, 160, 196, 180, 80, 100, 184, 95, 167, 105, 199, 84,
               112, 75, 38, 87, 256, 66, 225, 93, 261, 1, 289, 58, 205, 233, 48, 278, 282, 284, 259,
               222, 46, 132, 107, 114, 3, 291, 109, 148, 44, 24, 70, 235, 221, 14, 116, 254, 55, 53,
               191, 42, 135, 204, 145, 40, 129, 60, 91, 275, 49, 257, 30, 294, 186, 193, 124, 130,
               9, 29, 147, 118, 23, 264, 5, 203, 194, 123, 173, 175, 31, 212, 231, 172, 201, 285,
               77, 146, 158, 131, 68, 96, 296, 227, 252, 165, 134, 273, 208, 104, 51, 267, 232, 69,
               154, 198, 101, 262, 239, 179, 50, 214, 161, 249, 0, 279, 72, 125, 115, 81, 255, 142,
               251, 33, 162, 138, 171, 293, 117, 220, 206, 215, 98, 246, 168, 97, 244, 43, 32, 92,
               248, 169, 192, 276, 74, 281, 245, 211, 237],
        best_length="13.331420583657566", expansions=124, rounds=2, dead_ends=124,
        or_moves=288, two_opt_moves=1129, scans=6303, kicks=(82, 5),
        round_best_lengths=["13.500504701824514", "13.331420583657566"],
        lower_bound="nan", proof_round=0,
    ),
}

# Pinned split runs: above ONE_STREAM_MAX_CITIES cities a kicked run's
# stream 0 runs here and stream 1 in the worker. Each (n, seed, max_rounds)
# runs preset_for(n) with search seed = instance seed on the heat
# 1 / (1 + d / span), made of correctly rounded operations only, so its
# bytes depend neither on the CPU's exp nor on the BLAS thread count.
# Recorded: the sha256 of the tour's int64 order, best_length, lower_bound
# and (rounds, starts, kicks, kicks_kept, improving, dead_ends, or_moves,
# two_opt_moves, scans, proof_round).
GOLDEN_SPLIT_RUNS = {
    # no kicks (RUNS_WITHOUT_KICKS): one stream, which the 1-tree bound
    # proves in round 2
    (24, 0, 8): ("b90345384a8dbb02f3a8e5bc6581ee764d6337278faf6ae56acbbf810b595af3",
                 "4.393248478994652", "4.393248478994651", (2, 2, 0, 0, 0, 18, 5, 26, 124, 2)),
    (24, 2, 8): ("36bda4c86fe547ecc048883d8b8fd9ce1bd2939c82eb8ef02a76f77bae5d4071",
                 "3.796923528672071", "3.796923528672071", (2, 2, 0, 0, 0, 18, 20, 24, 147, 2)),
    # two streams merged; each starts fresh once and then kicks its best
    # tour, so neither computes a 1-tree bound
    (24, 1, 8): ("60751172cdb38f06efff604dffa5d0525e1fd4a0fb19acd135f7a4979a6fe38a",
                 "3.831985622040362", "nan", (8, 2, 56, 1, 0, 18, 140, 375, 1803, 0)),
    (60, 1, 6): ("b740c7a101c5443b12f37a95dd738dde9dc5ce5ffb43940a1d6244908bffdace",
                 "5.947973045778653", "nan", (6, 2, 48, 3, 0, 36, 99, 414, 2073, 0)),
    (100, 1, 10): ("b3c0d43214057eea5de11ea105d23df489f80d7d542c4737b40cf1b992493946",
                   "7.585432073784078", "nan", (10, 2, 80, 10, 0, 36, 236, 867, 4725, 0)),
    # tsp500: the pass lists (8 cities) and the k-opt lists (5) are slices of
    # one table
    (210, 2, 4): ("988aa1590744348fee7da03a07e3a529fa4ee564a0f360e00dca89440c788782",
                  "10.857218512260067", "nan", (4, 2, 164, 7, 0, 124, 472, 1754, 9066, 0)),
}


# these cases run their preset without kicks, so they keep one stream and
# submit no job on either route: a run without kicks is proven or not as one
# stream, at every size
RUNS_WITHOUT_KICKS = {(24, 0, 8), (24, 2, 8)}


class TestGoldenSearch:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SEARCHES))
    def test_run_search_matches_recording(self, name):
        g = GOLDEN_SEARCHES[name]
        inst = generate_random(g["n"], g["instance_seed"])
        # SoftDist heat keeps the fixture independent of the training kernel
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), g["params"].m)
        tour, stats = run_search(inst, pruned, g["params"], g["seed"])
        assert tour.order.tolist() == g["order"]
        assert repr(stats.best_length) == g["best_length"]
        assert stats.total_expansions == g["expansions"]
        assert stats.rounds == g["rounds"]
        # each pinned run starts fresh in every round: it makes no kick, or
        # it is two streams of one round each
        assert stats.starts == stats.rounds
        assert stats.dead_ends == g["dead_ends"]
        assert stats.or_moves == g["or_moves"]
        assert stats.two_opt_moves == g["two_opt_moves"]
        assert stats.scans == g["scans"]
        assert (stats.kicks, stats.kicks_kept) == g.get("kicks", (0, 0))
        assert [repr(x) for x in stats.round_best_lengths] == g["round_best_lengths"]
        assert repr(stats.lower_bound) == g["lower_bound"]
        assert stats.proof_round == g["proof_round"]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SEARCHES))
    def test_recording_is_a_tour_of_its_length(self, name):
        # checked without run_search: each pinned order is a permutation
        # whose length is the pinned one, and the n = 16 order is Held-Karp's
        # optimal tour
        from tspheat.bench import gap_percent, held_karp_exact, tour_edges

        g = GOLDEN_SEARCHES[name]
        inst = generate_random(g["n"], g["instance_seed"])
        assert sorted(g["order"]) == list(range(g["n"]))
        assert repr(order_length(distance_matrix(inst), np.array(g["order"]))) == g["best_length"]
        if g["n"] <= 16:
            opt_tour, opt = held_karp_exact(inst)
            assert gap_percent(float(g["best_length"]), opt) == 0.0
            assert tour_edges(Tour.from_order(g["order"])) == tour_edges(opt_tour)

    @pytest.mark.parametrize("route", ["worker", "in_process"])
    @pytest.mark.parametrize("case", sorted(GOLDEN_SPLIT_RUNS),
                             ids=lambda c: "n{}-seed{}-rounds{}".format(*c))
    def test_split_run_matches_recording(self, case, route, request, monkeypatch):
        import tspheat.search as search_mod

        if route == "in_process":
            request.getfixturevalue("in_process")
        submit, taken = search_mod._submit, []
        monkeypatch.setattr(search_mod, "_submit",
                            lambda job: taken.append(submit(job)) or taken[-1])
        n, seed, rounds = case
        inst = generate_random(n, seed)
        params = preset_for(n).with_budget(max_rounds=rounds)
        split = case not in RUNS_WITHOUT_KICKS
        if not split:
            params = replace(params, kicks=0)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(1.0 / (1.0 + d / coordinate_span(inst)), min(params.m, n - 1))
        tour, stats = run_search(inst, pruned, params, seed)
        assert taken == ([route == "worker"] if split else [])
        assert (search_mod._worker is not None) == (route == "worker" and split)
        # a kicked stream computes no 1-tree bound, so no split run is proven
        if split:
            assert (repr(stats.lower_bound), stats.proof_round) == ("nan", 0)
        assert (hashlib.sha256(tour.order.astype(np.int64).tobytes()).hexdigest(),
                repr(stats.best_length), repr(stats.lower_bound),
                (stats.rounds, stats.starts, stats.kicks, stats.kicks_kept, stats.improving,
                 stats.dead_ends, stats.or_moves, stats.two_opt_moves, stats.scans,
                 stats.proof_round)) == GOLDEN_SPLIT_RUNS[case]


class TestProofStop:
    """A run ends after the first round whose best tour the 1-tree bound
    proves optimal; the bound is computed at most once, when a round ends at
    the length of the best tour of the rounds before it."""

    @staticmethod
    def search(inst, params, seed):
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), min(params.m, inst.n - 1))
        return run_search(inst, pruned, params, seed)

    @pytest.mark.parametrize("n", [5, 8, 12, 16, 20])
    def test_a_proven_tour_is_optimal(self, n):
        from tspheat.bench import gap_percent, held_karp_exact, tour_edges

        params = PRESETS["tsp20"].with_budget(max_rounds=12)
        for s in range(10):
            inst = generate_random(n, s)
            tour, stats = self.search(inst, params, s)
            if stats.proof_round:
                opt_tour, opt = held_karp_exact(inst)
                assert gap_percent(stats.best_length, opt) == 0.0, s
                assert tour_edges(tour) == tour_edges(opt_tour), s
                assert stats.rounds == stats.proof_round, s
                assert stats.lower_bound <= opt + 1e-12, s
            else:
                assert stats.rounds == 12, s

    def test_timed_run_stops_at_its_proof(self):
        from tspheat.bench import held_karp_exact, tour_edges

        inst = generate_random(12, 0)
        t0 = time.perf_counter()
        tour, stats = self.search(inst, PRESETS["tsp20"].with_budget(time_budget=5.0), 0)
        assert time.perf_counter() - t0 < 5.0
        assert stats.rounds == stats.proof_round == 2
        opt_tour, _ = held_karp_exact(inst)
        assert tour_edges(tour) == tour_edges(opt_tour)

    def test_proof_only_removes_rounds(self, monkeypatch):
        # the golden tsp20-n16 run: the bound draws no random number and
        # touches neither the heat nor the tour, so without it the run goes
        # on through the same first rounds, and capped at the proof round it
        # returns the proven run's tour and counters
        import tspheat.search as search_mod

        inst = generate_random(16, 3)
        params = PRESETS["tsp20"].with_budget(max_rounds=12)
        tour, stats = self.search(inst, params, 5)
        assert stats.proof_round == 2
        monkeypatch.setattr(search_mod, "one_tree_bound", lambda d, upper: -math.inf)
        _, full = self.search(inst, params, 5)
        assert (full.rounds, full.proof_round) == (12, 0)
        assert (full.total_expansions, full.dead_ends, full.or_moves) == (720, 720, 35)
        assert full.round_best_lengths[:2] == stats.round_best_lengths
        capped_tour, capped = self.search(inst, params.with_budget(max_rounds=2), 5)
        assert capped_tour.order.tolist() == tour.order.tolist()
        assert capped.best_length == stats.best_length
        assert (capped.total_expansions, capped.dead_ends, capped.or_moves,
                capped.two_opt_moves, capped.scans) == (
            stats.total_expansions, stats.dead_ends, stats.or_moves, stats.two_opt_moves,
            stats.scans)

    def test_bound_computed_at_most_once(self, monkeypatch):
        import tspheat.search as search_mod

        real = search_mod.one_tree_bound
        calls = []

        def counted(d, upper):
            calls.append(upper)
            return real(d, upper)

        monkeypatch.setattr(search_mod, "one_tree_bound", counted)
        # with no kicks, a fresh descent ends at an earlier round's length,
        # but the bound (4.1129) is below the best tour (4.1233), and no
        # later round proves it; the run keeps one stream, in this process
        params = replace(preset_for(30), kicks=0).with_budget(max_rounds=6)
        _, stats = self.search(generate_random(30, 1), params, 1)
        assert len(calls) == 1
        assert (stats.rounds, stats.proof_round) == (6, 0)
        assert stats.lower_bound < stats.best_length - MIN_GAIN

    def test_one_round_computes_no_bound(self):
        _, stats = self.search(generate_random(12, 0), PRESETS["tsp20"].with_budget(max_rounds=1), 0)
        assert math.isnan(stats.lower_bound)
        assert (stats.rounds, stats.proof_round) == (1, 0)

    @pytest.mark.parametrize("k", [-40, 7])
    def test_power_of_two_scales_prove_alike(self, k):
        # the bound runs in the power-of-two frame, like every move
        inst = generate_random(12, 5)
        params = PRESETS["tsp20"].with_budget(max_rounds=12)
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), params.m)
        unit_tour, unit = run_search(inst, pruned, params, 5)
        scaled = Instance(coords=np.ldexp(inst.coords, k))
        tour, stats = run_search(scaled, pruned, params, 5)
        assert unit.proof_round == 2
        assert tour.order.tolist() == unit_tour.order.tolist()
        assert (stats.rounds, stats.proof_round) == (unit.rounds, unit.proof_round)
        assert stats.lower_bound == math.ldexp(unit.lower_bound, k)


def run_and_worker(args):
    """TestStreams.run(*args) in this process, and the pid of the worker it
    used (None when stream 1 ran here)."""
    import tspheat.search as search_mod

    result = TestStreams.run(*args)
    return result, search_mod._worker.pid if search_mod._worker else None


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the head of a script for a fresh interpreter: run(**budget) makes a split
# run at n = 100 and returns its order and its worker's pid (None when it
# has none); the script starts with a 2-round run, so its worker is known
SPLIT_SCRIPT = (
    "import json, os, sys, time\n"
    "import numpy as np, tspheat, tspheat.search as s\n"
    "inst = tspheat.generate_random(100, 1)\n"
    "_, pruned = tspheat.top_m_filter(np.exp(-tspheat.distance_matrix(inst) / 0.1), 8)\n"
    "def run(**budget):\n"
    "    params = tspheat.preset_for(100).with_budget(**budget)\n"
    "    tour, _ = tspheat.run_search(inst, pruned, params, 1)\n"
    "    return tour.order.tolist(), s._worker and s._worker.pid\n"
    "want, pid = run(max_rounds=2)\n"
)


def state_within(pid, seconds):
    """The state /proc gives process pid: None once it is gone, "Z" or "X"
    once it has ended, or after `seconds` the state it still is in."""
    stop = time.monotonic() + seconds
    while True:
        try:
            with open(f"/proc/{pid}/stat") as f:
                state = f.read().rpartition(")")[2].split()[0]
        except FileNotFoundError:
            return None
        if state in ("Z", "X") or time.monotonic() >= stop:
            return state
        time.sleep(0.05)


def alive(pid):
    """Whether process pid runs: it exists and has not ended."""
    return state_within(pid, 0) not in (None, "Z", "X")


def kill_all(pids):
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


class TestStreams:
    """A run of more than ONE_STREAM_MAX_CITIES cities that kicks, with a
    round cap R >= 2, runs stream 0 (seed, ceil(R / 2) rounds) here and
    stream 1 ((seed, 1), floor(R / 2) rounds) in a worker process; where no
    worker can take it, stream 1 runs here after stream 0, with the same
    result. A run without kicks keeps one stream."""

    @staticmethod
    def params(n, rounds, kicks=None):
        """preset_for(n) capped at rounds, with kicks in place of the
        preset's when given."""
        params = preset_for(n).with_budget(max_rounds=rounds)
        return params if kicks is None else replace(params, kicks=kicks)

    @staticmethod
    def run(n, instance_seed, rounds, seed, kicks=None):
        inst = generate_random(n, instance_seed)
        params = TestStreams.params(n, rounds, kicks)
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), params.m)
        tour, stats = run_search(inst, pruned, params, seed)
        # repr, so that a nan lower bound compares equal
        return tour.order.tolist(), repr(vars(stats) | {"two_opt_seconds": None})

    @pytest.mark.parametrize("n, rounds", [(30, 6), (100, 4), (300, 2)])
    def test_worker_and_in_process_runs_agree(self, n, rounds, monkeypatch):
        # every preset above 20 cities kicks, so its runs split, and kicks
        # and their repairs give the same bytes on both routes
        import tspheat.search as search_mod

        want = self.run(n, n, rounds, 1)
        # the worker ran stream 1: a failed worker is stopped
        assert search_mod._worker is not None and alive(search_mod._worker.pid)
        monkeypatch.setattr(search_mod, "_submit", lambda job: False)
        assert self.run(n, n, rounds, 1) == want
        # the same run, round for round: stream 0 then stream 1, as one
        # stream each
        monkeypatch.setattr(search_mod, "ONE_STREAM_MAX_CITIES", 10**9)
        inst = generate_random(n, n)
        params = self.params(n, rounds)
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), params.m)
        frame = _Frame.build(inst, params.m)
        first = search_mod._stream(frame, pruned.copy(), params, np.random.default_rng(1),
                                   (rounds + 1) // 2, None)
        second = search_mod._stream(frame, pruned.copy(), params,
                                    np.random.default_rng((1, 1)), rounds // 2, None)
        tour, stats = run_search(inst, pruned, params.with_budget(max_rounds=(rounds + 1) // 2), 1)
        assert (tour.order.tolist(), stats.round_best_lengths) == (
            first[0].tolist(), first[1].round_best_lengths)
        order, merged = search_mod._merge(first, second)
        assert (order.tolist(), merged.rounds) == (want[0], rounds)
        # a kicked stream computes no bound, so the merged run is unproven
        assert (repr(merged.lower_bound), merged.proof_round) == ("nan", 0)
        assert merged.total_expansions == first[1].total_expansions + second[1].total_expansions
        # a kicked stream starts fresh once
        assert merged.starts == first[1].starts + second[1].starts == 2
        for name in ("or_moves", "two_opt_moves", "scans"):
            assert getattr(merged, name) == getattr(first[1], name) + getattr(second[1], name) > 0
        best = min(first[1].best_length, second[1].best_length)
        assert merged.best_length == merged.round_best_lengths[-1] == best
        assert merged.round_best_lengths[:len(first[1].round_best_lengths)] == \
            first[1].round_best_lengths

    def test_merge_sums_every_counter(self):
        # every SearchStats field but these four is a counter of the run,
        # which _merge sums over both streams: a counter added without its
        # line in _merge fails here instead of reading 0. The streams of a
        # split run kick, so the merged run has no bound and no proof
        import tspheat.search as search_mod

        not_summed = {"best_length", "round_best_lengths", "lower_bound", "proof_round"}
        names = [f.name for f in fields(SearchStats)]
        assert not_summed < set(names)
        counters = [name for name in names if name not in not_summed]
        streams = [
            SearchStats(**{name: type(getattr(SearchStats(), name))(base + i)
                           for i, name in enumerate(counters)},
                        best_length=float(base), round_best_lengths=[float(base)])
            for base in (10, 1000)
        ]
        order = np.arange(4)
        _, merged = search_mod._merge((order, streams[0]), (order[::-1], streams[1]))
        for name in counters:
            assert getattr(merged, name) == getattr(streams[0], name) + getattr(streams[1], name), \
                name
        assert (repr(merged.lower_bound), merged.proof_round) == ("nan", 0)

    def test_proven_and_merged_runs_interleave(self, monkeypatch):
        # runs without kicks keep one stream, proven or not, and leave the
        # worker alone: every split run between them uses the one worker the
        # first split run forked and reads its own job's result, as the same
        # runs do with no worker
        import tspheat.search as search_mod

        cases = [(21, 3, 8, 3, 0), (30, 1, 4, 1), (21, 0, 8, 0, 0), (100, 1, 2, 2)] * 5
        got, pids = [], []
        for case in cases:
            got.append(self.run(*case))
            pids.append(search_mod._worker and search_mod._worker.pid)
        assert pids[0] is None and alive(pids[1]) and pids[1:] == [pids[1]] * 19
        assert "'proof_round': 0" not in got[0][1] and "'proof_round': 0" in got[1][1]
        monkeypatch.setattr(search_mod, "_submit", lambda job: False)
        assert [self.run(*case) for case in cases[:4]] * 5 == got

    @pytest.mark.parametrize("n", [21, 100])
    def test_a_run_without_kicks_keeps_one_stream(self, n, monkeypatch):
        # R = 8 and kicks = 0: the run submits no job, forks no worker and
        # is _stream on its frame at cap R, bit for bit
        import tspheat.search as search_mod

        submitted = []
        monkeypatch.setattr(search_mod, "_submit", lambda job: submitted.append(job))
        inst = generate_random(n, 3)
        params = self.params(n, 8, kicks=0)
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), params.m)
        tour, stats = run_search(inst, pruned, params, 3)
        assert submitted == [] and search_mod._worker is None
        order, want = search_mod._stream(_Frame.build(inst, params.m),
                                         search_mod._run_heat(pruned), params,
                                         np.random.default_rng(3), 8, None)
        assert tour.order.tolist() == order.tolist()
        assert repr(vars(stats) | {"two_opt_seconds": None}) == \
            repr(vars(want) | {"two_opt_seconds": None})
        assert stats.starts == stats.rounds

    def test_a_killed_worker_leaves_the_next_run_unchanged(self):
        import tspheat.search as search_mod

        want = self.run(100, 1, 4, 2)
        pid = search_mod._worker.pid
        os.kill(pid, signal.SIGKILL)
        assert state_within(pid, 10) == "Z"
        assert self.run(100, 1, 4, 2) == want
        # the next run forks a new worker
        assert self.run(100, 1, 4, 2) == want
        assert search_mod._worker is not None and search_mod._worker.pid != pid

    def test_a_worker_killed_mid_run_leaves_its_run_unchanged(self, monkeypatch):
        # the worker dies after it took the job: _collect reads no reply,
        # stops and reaps the worker, and this process runs stream 1 itself,
        # with the bytes of the run made without a worker
        import tspheat.search as search_mod

        monkeypatch.setattr(search_mod, "_submit", lambda job: False)
        want = self.run(100, 1, 4, 2)
        monkeypatch.undo()
        here, build, killed = os.getpid(), _Frame.build, []

        def kill_then_build(*args):
            if os.getpid() == here and not killed:
                killed.append(search_mod._worker.pid)
                os.kill(killed[0], signal.SIGKILL)
                assert state_within(killed[0], 10) == "Z"
            return build(*args)

        monkeypatch.setattr(_Frame, "build", kill_then_build)
        assert self.run(100, 1, 4, 2) == want
        assert killed and search_mod._worker is None
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(killed[0], os.WNOHANG)
        monkeypatch.undo()
        assert self.run(100, 1, 4, 2) == want
        assert search_mod._worker is not None and search_mod._worker.pid != killed[0]

    def test_a_stream_that_raises_in_the_worker_runs_here(self, monkeypatch):
        # the worker's stream raises: the worker replies None and waits for
        # its next job, and this process stops it and runs stream 1 itself,
        # with the bytes of the run made without a worker
        import tspheat.search as search_mod

        monkeypatch.setattr(search_mod, "_submit", lambda job: False)
        want = self.run(100, 1, 4, 2)
        monkeypatch.undo()
        search_mod._stop_worker()  # the worker to come forks with the patch
        here = os.getpid()
        stream, collect, stop = search_mod._stream, search_mod._collect, search_mod._stop_worker
        ran_here, replies, stopped = [], [], []

        def stream_here_only(*args):
            if os.getpid() != here:
                raise RuntimeError("stream 1 failed in the worker")
            ran_here.append(args[4])  # the stream's round cap
            return stream(*args)

        def collect_spy():
            replies.append(collect())
            return replies[-1]

        def stop_spy():
            stopped.append((search_mod._worker.pid, alive(search_mod._worker.pid)))
            stop()

        monkeypatch.setattr(search_mod, "_stream", stream_here_only)
        monkeypatch.setattr(search_mod, "_collect", collect_spy)
        monkeypatch.setattr(search_mod, "_stop_worker", stop_spy)
        assert self.run(100, 1, 4, 2) == want
        # the worker replied None, still alive, and was stopped and reaped;
        # both streams ran here
        assert replies == [None] and ran_here == [2, 2]
        [(pid, was_alive)] = stopped
        assert was_alive and search_mod._worker is None
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    def test_runs_from_threads_leave_the_worker_alone(self):
        # while other threads are alive a run neither uses nor stops the
        # worker: it runs stream 1 itself, with the result of the same run
        # made without threads, and the next run uses the same worker
        import threading

        import tspheat.search as search_mod

        self.run(60, 99, 4, 1)
        pid = search_mod._worker.pid
        want = [self.run(60, s, 4, 1) for s in range(4)]
        got = [None] * 4

        def work(s):
            got[s] = self.run(60, s, 4, 1)

        threads = [threading.Thread(target=work, args=(s,), daemon=True) for s in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want
        self.run(60, 99, 4, 1)
        assert search_mod._worker.pid == pid

    def test_a_forked_process_uses_a_worker_of_its_own(self):
        # a forked process inherits this process's worker, which is not its
        # own to use: it forks one of its own, a daemonic Pool worker too,
        # with the same result
        import multiprocessing

        import tspheat.search as search_mod

        want = self.run(30, 1, 4, 1)
        ours = search_mod._worker.pid
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            got = pool.apply_async(run_and_worker, ((30, 1, 4, 1),)).get(timeout=60)
            assert got[0] == want and got[1] not in (None, ours)
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: writer.send(run_and_worker((30, 1, 4, 1))))
        child.start()
        assert reader.poll(60)
        got, theirs = reader.recv()
        child.join(timeout=10)
        assert not child.is_alive() and child.exitcode == 0
        assert got == want and theirs not in (None, ours)
        assert self.run(30, 1, 4, 1) == want and search_mod._worker.pid == ours

    def test_a_failed_fork_runs_stream_1_here(self, monkeypatch):
        # where os.fork raises, the split run has the bytes of the same run
        # made in this process, keeps no worker and leaves no pipe end open
        import tspheat.search as search_mod

        monkeypatch.setattr(search_mod, "_submit", lambda job: False)
        want = self.run(30, 1, 4, 1)
        monkeypatch.undo()

        def fail():
            raise OSError("fork failed")

        monkeypatch.setattr(os, "fork", fail)
        fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
        assert self.run(30, 1, 4, 1) == want
        assert search_mod._worker is None
        if fds is not None:
            assert len(os.listdir("/proc/self/fd")) == len(fds)

    def test_no_worker_outlives_its_interpreter(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = (
            "import tspheat, tspheat.search as s\n"
            "inst = tspheat.generate_random(60, 1)\n"
            "params = tspheat.preset_for(60).with_budget(max_rounds=4)\n"
            "tspheat.solve_pipeline(inst, tspheat.TrainConfig(steps=5), params, 1)\n"
            "print(s._worker.pid)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True, timeout=120)
        pid = int(out.stdout)
        assert pid != os.getpid()
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_a_killed_parent_stops_its_worker(self):
        # the end of the pipe stops stream 1 at its next round boundary, so
        # a worker whose parent dies mid-run ends within a round
        if not os.path.isdir("/proc/self"):
            pytest.skip("needs /proc to read a process's state")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = (
            "import numpy as np, tspheat, tspheat.search as s\n"
            "inst = tspheat.generate_random(100, 1)\n"
            "params = tspheat.preset_for(100)\n"
            "_, pruned = tspheat.top_m_filter(np.exp(-tspheat.distance_matrix(inst) / 0.1), 8)\n"
            "tspheat.run_search(inst, pruned, params.with_budget(max_rounds=2), 1)\n"
            "print(s._worker.pid, flush=True)\n"
            "tspheat.run_search(inst, pruned, params.with_budget(time_budget=60), 1)\n"
        )
        parent = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                  env={**os.environ, "PYTHONPATH": src}, text=True)
        pid = None
        try:
            pid = int(parent.stdout.readline())
            time.sleep(0.5)
            parent.kill()
            parent.wait(timeout=10)
            stop = time.monotonic() + 10
            while time.monotonic() < stop:
                try:
                    with open(f"/proc/{pid}/stat") as f:
                        state = f.read().rpartition(")")[2].split()[0]
                except FileNotFoundError:
                    break
                if state in ("Z", "X"):
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"worker {pid} still in state {state} 10 s after its parent died")
        finally:
            parent.kill()
            parent.wait(timeout=10)
            parent.stdout.close()
            if pid is not None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_a_later_fork_leaves_the_parent_death_to_the_worker(self):
        # a process forked after the worker closes its copy of the worker's
        # pipe end, so the end of the pipe still reaches the worker when the
        # parent is killed while that process lives
        if not os.path.isdir("/proc/self"):
            pytest.skip("needs /proc to read a process's state")
        code = SPLIT_SCRIPT + (
            "import multiprocessing\n"
            "child = multiprocessing.get_context('fork').Process(target=time.sleep, args=(15,))\n"
            "child.start()\n"
            "print(pid, child.pid, flush=True)\n"
            "run(time_budget=20)\n"
        )
        parent = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                  env={**os.environ, "PYTHONPATH": SRC}, text=True)
        pids = []
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            time.sleep(1.0)
            parent.kill()
            parent.wait(timeout=10)
            state = state_within(pids[0], 10)
            assert state in (None, "Z", "X"), f"worker {pids[0]} in state {state} after 10 s"
        finally:
            parent.kill()
            parent.wait(timeout=10)
            parent.stdout.close()
            kill_all(pids)

    def test_a_plain_fork_exit_leaves_the_worker_alone(self):
        # an os.fork child that exits normally neither kills nor joins the
        # parent's worker; its own split run forks a worker of its own
        if not os.path.isdir("/proc/self"):
            pytest.skip("needs /proc to read a process's state")
        code = SPLIT_SCRIPT + (
            "r, w = os.pipe()\n"
            "child = os.fork()\n"
            "if child == 0:\n"
            "    os.close(r)\n"
            "    os.write(w, json.dumps(run(max_rounds=2)).encode())\n"
            "    sys.exit(0)\n"
            "os.close(w)\n"
            "with os.fdopen(r) as f:\n"
            "    got, theirs = json.loads(f.read())\n"
            "status = os.waitstatus_to_exitcode(os.waitpid(child, 0)[1])\n"
            "state = open(f'/proc/{pid}/stat').read().rpartition(')')[2].split()[0]\n"
            "alive = s._worker.pid == pid and state not in ('Z', 'X')\n"
            "again, later = run(max_rounds=2)\n"
            "print(json.dumps([pid, theirs, later, status, alive, got == want == again]))\n"
        )
        pids = []
        try:
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env={**os.environ, "PYTHONPATH": SRC}, check=True, timeout=120)
            pid, theirs, later, status, alive, same = json.loads(out.stdout)
            pids = [p for p in (pid, theirs, later) if p is not None]
            assert "Exception ignored" not in out.stderr, out.stderr
            assert (status, alive, same) == (0, True, True)
            assert theirs != pid and later == pid
        finally:
            kill_all(pids)

    @pytest.mark.parametrize("where", ["build", "collect"])
    def test_an_interrupted_run_stops_its_worker(self, where, monkeypatch):
        # an exception between the submit and the end of _collect stops the
        # worker, which would otherwise run stream 1 on to its deadline, and
        # the next split run forks a new one with the same result
        import tspheat.search as search_mod

        self.run(100, 1, 2, 2)
        pid = search_mod._worker.pid
        here, build, collect = os.getpid(), _Frame.build, search_mod._collect

        def interrupt(real):
            def interrupted(*args):
                if os.getpid() == here:
                    raise KeyboardInterrupt
                return real(*args)
            return interrupted

        if where == "build":
            monkeypatch.setattr(_Frame, "build", interrupt(build))
            params = preset_for(100).with_budget(time_budget=20)
        else:
            monkeypatch.setattr(search_mod, "_collect", interrupt(collect))
            params = preset_for(100).with_budget(time_budget=20, max_rounds=2)
        inst = generate_random(100, 1)
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), params.m)
        with pytest.raises(KeyboardInterrupt):
            run_search(inst, pruned, params, 2)
        assert search_mod._worker is None
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        monkeypatch.undo()
        got = self.run(100, 1, 2, 2)
        assert search_mod._worker.pid != pid
        monkeypatch.setattr(search_mod, "_submit", lambda job: False)
        assert self.run(100, 1, 2, 2) == got


class TestPresets:
    def test_table_values(self):
        expect = {
            "tsp20": (10.0, 8, 60, 0),
            "tsp50": (10.0, 8, 9, 7),
            "tsp100": (10.0, 8, 18, 8),
            "tsp200": (10.0, 8, 37, 18),
            "tsp500": (50.0, 5, 62, 41),
            "tsp1000": (50.0, 5, 125, 95),
        }
        assert set(PRESETS) == set(expect)
        for name, (beta, m, budget, kicks) in expect.items():
            p = PRESETS[name]
            assert (p.beta, p.m, p.expand_budget, p.kicks) == (beta, m, budget, kicks), name

    @pytest.mark.parametrize("n, tier", [
        (3, "tsp20"), (20, "tsp20"), (21, "tsp50"), (50, "tsp50"), (51, "tsp100"),
        (100, "tsp100"), (101, "tsp200"), (200, "tsp200"), (201, "tsp500"),
        (500, "tsp500"), (501, "tsp1000"), (1000, "tsp1000"), (1001, "tsp1000"),
        (5000, "tsp1000"),
    ])
    def test_preset_for_smallest_tier_that_holds_n(self, n, tier):
        assert preset_for(n) is PRESETS[tier]


class TestSearchParams:
    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            SearchParams(time_budget=0.0)

    @pytest.mark.parametrize("field", ["m", "expand_budget", "max_rounds"])
    def test_rejects_non_integral_counts(self, field):
        # at n = 30, m = 8.5 and expand_budget = 2.5 failed with a TypeError
        # deep in the search, and max_rounds = 2.5 ran 2 rounds
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SearchParams(**{field: 2.5 if field != "m" else 8.5})

    def test_accepts_numpy_integers(self):
        params = SearchParams(m=np.int64(6), expand_budget=np.int64(20),
                              max_rounds=np.int64(2))
        inst = generate_random(30, 1)
        _, pruned = top_m_filter(soft_heat(distance_matrix(inst)), 6)
        _, stats = run_search(inst, pruned, params, 1)
        assert stats.rounds == 2

    @pytest.mark.parametrize("field, value", [
        ("beta", math.nan), ("beta", math.inf),
        ("time_budget", math.nan), ("time_budget", math.inf),
    ])
    def test_rejects_non_finite(self, field, value):
        # a NaN or infinite time budget never expires, so a run would not end
        with pytest.raises(ValueError, match="must be finite"):
            SearchParams(**{field: value})


class TestTourFormat:
    def test_round_trip(self):
        t = Tour.from_order([3, 1, 0, 2])
        text = format_tour(t, 12.3456789)
        again, length = parse_tour(text)
        assert np.array_equal(t.order, again.order)
        assert length == 12.3456789

    def test_header_checked(self):
        with pytest.raises(ValueError):
            parse_tour("WRONG\n3\n0 1 2\n1.0\n")

    @pytest.mark.parametrize("keep, missing", [(1, "count"), (2, "order"), (3, "length")])
    def test_truncated(self, keep, missing):
        lines = ["UTSP-TOUR v1", "3", "0 1 2", "1.0"][:keep]
        with pytest.raises(ValueError, match=f"no {missing} line"):
            parse_tour("\n".join(lines) + "\n")

    @pytest.mark.parametrize("count", ["abc", "-1", "0", "2.5"])
    def test_count_line_checked(self, count):
        message = f"UTSP-TOUR v1 count line: expected a positive integer, found '{count}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_tour(f"UTSP-TOUR v1\n{count}\n0 1 2\n1.0\n")

    @pytest.mark.parametrize("tail, message", [
        ("nan", "must be finite and >= 0"),
        ("inf", "must be finite and >= 0"),
        ("-5", "must be finite and >= 0"),
        ("-5\n0 1 2", "a line after its length line"),
        ("1.0\n1.0", "a line after its length line"),
    ], ids=["nan", "inf", "negative", "negative-then-order", "two-lengths"])
    def test_rejects_impossible_length(self, tail, message):
        with pytest.raises(ValueError, match=message):
            parse_tour(f"UTSP-TOUR v1\n3\n0 1 2\n{tail}\n")

    @pytest.mark.parametrize("body, message", [
        ("0 1.0 2\n1.0", "order line: expected an integer, found '1.0'"),
        ("0 x 2\n1.0", "order line: expected an integer, found 'x'"),
        ("0 1 2\nabc", "length line: expected a number, found 'abc'"),
        ("0 1 2\n1.0 2.0", "length line: expected 1 values, found 2"),
        ("0 1 +2\n1.0", "order line: expected an integer, found '+2'"),
        ("0 1 \u0662\n1.0", "order line: expected an integer, found '\u0662'"),
        ("0 1 3\n1.0", "order line: city 3 outside 0..2"),
        # past int64: checked against the count before it becomes an array
        ("0 1 99999999999999999999\n1.0", "order line: city 99999999999999999999 outside 0..2"),
    ])
    def test_non_number_named(self, body, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_tour(f"UTSP-TOUR v1\n3\n{body}\n")
