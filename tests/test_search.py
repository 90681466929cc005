import itertools
import math
import time
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
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
    adjacency_weights,
    distance_matrix,
    generate_random,
    order_length,
    tour_length,
)
from tspheat.search import (
    MIN_GAIN,
    PRESETS,
    SCALAR_ROW,
    SCALAR_SPAN,
    TWO_OPT_EPS,
    WEIGHT_FLOOR,
    KOptAction,
    SearchParams,
    SearchStats,
    expand_node,
    format_tour,
    parse_tour,
    random_tour,
    run_search,
    two_opt_improve,
    update_heatmap,
    _candidate_table,
    _construct,
    _draw,
    _positions,
)

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


def reference_two_opt_order(d, order, moves=None):
    """Test-only oracle: first-improvement 2-opt with every row evaluated as
    one numpy expression, the kernel the scalar-first scan replaced. Mutates
    order; appends (partner offset j - (i + 2), partners in the row) for each
    applied move to moves when given."""
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
            hit = np.flatnonzero(delta < -TWO_OPT_EPS)
            if hit.size:
                j = i + 2 + int(hit[0])
                if moves is not None:
                    moves.append((int(hit[0]), hi - i - 2))
                order[i + 1:j + 1] = order[i + 1:j + 1][::-1]
                rebuild_succ()
                improved = True
            else:
                i += 1
    return order


def assert_matches_reference(d, start):
    out = two_opt_improve(d, Tour.from_order(start))
    ref = reference_two_opt_order(d, np.array(start, dtype=np.int64))
    assert out.order.tolist() == ref.tolist()


def dist_params(**kw):
    defaults = dict(beta=10.0, m=4, k_range=(5, 6), expand_budget=30, max_rounds=3)
    defaults.update(kw)
    return SearchParams(**defaults)


def attempt(d, tour, cand, pruned, stats, params, rng, k_cap=None):
    """One construction attempt, expand_node at expand_budget=1: the action,
    or None when the attempt did not improve the tour."""
    out = expand_node(d, tour, cand, pruned, stats, replace(params, expand_budget=1), rng,
                      k_cap)
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
    @settings(max_examples=25, deadline=None)
    def test_never_lengthens_and_reaches_fixpoint(self, seed):
        inst = generate_random(20, seed)
        d = distance_matrix(inst)
        start = random_tour(20, seed)
        out = two_opt_improve(d, start)
        assert tour_length(d, out) <= tour_length(d, start) + 1e-12
        assert brute_force_two_opt_scan(d, out.order.tolist()) > -1e-9

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


class TestTwoOptMatchesReference:
    """The scalar-first kernel applies the same moves as the vectorised
    reference, so it returns the same order, ties included."""

    @given(st.integers(3, 120), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_instances(self, n, inst_seed, start_seed):
        d = distance_matrix(generate_random(n, inst_seed))
        assert_matches_reference(d, random_tour(n, start_seed).order)

    @pytest.mark.parametrize("start_seed", range(4))
    def test_duplicate_cities(self, start_seed):
        # every city appears twice: many moves have a delta of exactly 0
        coords = generate_random(50, 1).coords
        d = distance_matrix(Instance(coords=np.concatenate([coords, coords])))
        assert_matches_reference(d, random_tour(100, start_seed).order)

    @pytest.mark.parametrize("start_seed", range(4))
    def test_collinear_cities(self, start_seed):
        # integer points on a line: every distance is an exact integer, so
        # many deltas are exactly 0 and many improving deltas tie
        x = np.arange(100, dtype=np.float64)
        d = distance_matrix(Instance(coords=np.stack([x, np.zeros(100)], axis=1)))
        assert_matches_reference(d, random_tour(100, start_seed).order)

    @pytest.mark.parametrize("j", [3, 3 + SCALAR_SPAN + 5])
    @pytest.mark.parametrize("gain, applied", [(0.5 * TWO_OPT_EPS, False),
                                               (2.0 * TWO_OPT_EPS, True)])
    def test_threshold_in_scalar_and_numpy_parts(self, j, gain, applied):
        # row 0's only improving partner sits at position j: within the
        # scalar span for j = 3, in the numpy part otherwise. A move that
        # gains less than TWO_OPT_EPS is not applied.
        n = SCALAR_ROW + 8
        d = np.ones((n, n))
        np.fill_diagonal(d, 0.0)
        d[0, j] = d[j, 0] = 1.0 - gain
        start = np.arange(n)
        out = two_opt_improve(d, Tour.from_order(start))
        assert (out.order.tolist() != start.tolist()) == applied
        assert_matches_reference(d, start)

    def test_improving_partner_beyond_scalar_span(self):
        # moves the scalar part never tries: only the numpy part finds them
        d = distance_matrix(generate_random(120, 0))
        start = random_tour(120, 0).order
        moves = []
        reference_two_opt_order(d, start.copy(), moves)
        assert any(off >= SCALAR_SPAN and row > SCALAR_ROW for off, row in moves)
        assert_matches_reference(d, start)


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
        params = dist_params(k_range=(2, 5))
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert attempt(d, tour, cand, pruned, stats, params, rng) is None
        assert (stats.dead_ends, stats.cap_hits) == (50, 0)

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
            action = attempt(d, tour, cand, pruned, stats, params, rng, k_cap=4)
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
        params = dist_params(k_range=(2, 3), max_rounds=1)
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
        params = dist_params(k_range=(2, 3))
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert attempt(d, tour, cand, pruned, stats, params, rng) is None

    @given(st.integers(0, 2_000))
    @settings(max_examples=50, deadline=None)
    def test_action_integrity(self, seed):
        n = 14
        inst = generate_random(n, seed)
        d = distance_matrix(inst)
        tour = random_tour(n, seed)
        cand = candidate_lists(d, 5, DISTANCE_MODE)
        _, pruned = top_m_filter(np.exp(-d), 5)
        stats = SearchStats()
        params = dist_params(k_range=(2, 8))
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
        _, pruned = top_m_filter(adjacency_weights(d), 6)
        cand = candidate_lists(pruned if mode == HEAT_MODE else d, 6, mode)
        stats = SearchStats()
        params = dist_params(k_range=(2, 12))
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

    def test_rejects_cap_below_two(self):
        # a move removes at least two edges, so a cap of 1 admits none
        d = distance_matrix(SQUARE)
        tour = Tour.from_order([0, 2, 1, 3])
        cand = candidate_lists(d, 3, DISTANCE_MODE)
        pruned = np.ones((4, 4))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="k_cap"):
            expand_node(d, tour, cand, pruned, SearchStats(), dist_params(), rng, k_cap=1)

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
        params = dist_params(k_range=(2, 10))
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert attempt(d, tour, cand, pruned, stats, params, rng) is None
        assert (stats.dead_ends, stats.cap_hits) == (50, 0)


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
        _, pruned = top_m_filter(adjacency_weights(d), m)
        cand = candidate_lists(pruned if mode == HEAT_MODE else d, m, mode)
        base = two_opt_improve(d, random_tour(n, seed)).order.tolist()
        table = _candidate_table(cand, d, pruned)
        first = [None] * n
        rng = np.random.default_rng(seed)
        for u1 in range(n):
            _construct(d, base, _positions(base), table, first, u1, SearchStats(), 4,
                       rng.random)
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
        # engineered instance: from the crossing tour several improving
        # closures exist with distinct gains; expand must pick the largest
        inst = generate_random(12, 99)
        d = distance_matrix(inst)
        tour = random_tour(12, 99)
        cand = candidate_lists(d, 6, DISTANCE_MODE)
        _, pruned = top_m_filter(np.exp(-d), 6)
        params = dist_params(k_range=(2, 6), expand_budget=120)
        stats = SearchStats()
        rng = np.random.default_rng(99)
        out = expand_node(d, tour, cand, pruned, stats, params, rng, k_cap=5)
        assert out is not None
        new_tour, action = out
        # replay the expansion's own attempts as _expand makes them: all
        # anchors drawn at once, one first-step memo shared by the attempts;
        # they end alike, and nothing beat the chosen gain
        replay = SearchStats()
        rng = np.random.default_rng(99)
        base = tour.order.tolist()
        pos = _positions(base)
        table = _candidate_table(cand, d, pruned)
        first = [None] * 12
        gains = []
        for u1 in rng.integers(12, size=120).tolist():
            a = _construct(d, base, pos, table, first, u1, replay, 5, rng.random)
            if a is not None:
                gains.append(a.gain)
        assert (replay.improving, replay.dead_ends, replay.cap_hits) == (
            stats.improving, stats.dead_ends, stats.cap_hits)
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
        params = dist_params(k_range=(2, 4), expand_budget=200)
        stats = SearchStats()
        rng = np.random.default_rng(3)
        assert expand_node(d, opt_tour, cand, pruned, stats, params, rng, k_cap=3) is None
        assert stats.total_expansions == 200

    def test_every_attempt_ends_once(self):
        # each attempt ends exactly once: improving, dead end or cap hit
        inst = generate_random(40, 5)
        d = distance_matrix(inst)
        tour = random_tour(40, 5)
        cand = candidate_lists(d, 6, DISTANCE_MODE)
        _, pruned = top_m_filter(np.exp(-d), 6)
        params = dist_params(expand_budget=200)
        stats = SearchStats()
        expand_node(d, tour, cand, pruned, stats, params, np.random.default_rng(5), k_cap=3)
        assert stats.total_expansions == 200
        assert stats.dead_ends > 0 and stats.cap_hits > 0 and stats.improving > 0
        assert stats.dead_ends + stats.cap_hits + stats.improving == stats.total_expansions
        # replay: the expansion draws all its anchors at once, then each
        # attempt draws its cities; here every attempt gets a fresh first-step
        # memo, so a stale shared memo would show as a different ending
        replay = SearchStats()
        rng = np.random.default_rng(5)
        base = tour.order.tolist()
        table = _candidate_table(cand, d, pruned)
        for u1 in rng.integers(40, size=200).tolist():
            _construct(d, base, _positions(base), table, [None] * 40, u1, replay, 3,
                       rng.random)
        assert (replay.dead_ends, replay.cap_hits) == (stats.dead_ends, stats.cap_hits)
        assert replay.improving == stats.improving

    def test_counts_every_attempt(self):
        inst = generate_random(10, 7)
        d = distance_matrix(inst)
        tour = random_tour(10, 7)
        cand = candidate_lists(d, 4, DISTANCE_MODE)
        _, pruned = top_m_filter(np.exp(-d), 4)
        params = dist_params(expand_budget=33)
        stats = SearchStats()
        rng = np.random.default_rng(7)
        expand_node(d, tour, cand, pruned, stats, params, rng, k_cap=4)
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
        # a best tour it does not beat; comparing it let the best rise. This
        # run meets that case twice.
        inst = generate_random(20, 0)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(adjacency_weights(d), 6)
        params = SearchParams(m=6, k_range=(5, 12), expand_budget=100, max_rounds=6)
        tour, stats = run_search(inst, pruned, params, 2)
        seq = stats.round_best_lengths
        assert all(a >= b for a, b in zip(seq, seq[1:]))
        assert stats.best_length == seq[-1] == tour_length(d, tour)

    def test_never_worse_than_first_round_two_opt(self):
        inst = generate_random(15, 8)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(np.exp(-d), 6)
        params = dist_params(max_rounds=4)
        # replicate the first round's initial 2-opt tour
        rng = np.random.default_rng(21)
        rng.integers(*params.k_range)
        rng.integers(2)
        first = two_opt_improve(d, Tour.from_order(rng.permutation(15)))
        tour, stats = run_search(inst, pruned, params, 21)
        assert stats.best_length <= tour_length(d, first) + 1e-12

    def test_expired_budget_returns_first_round_two_opt(self):
        inst = generate_random(15, 8)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(np.exp(-d), 6)
        params = dist_params(time_budget=1e-12)
        rng = np.random.default_rng(21)
        rng.integers(*params.k_range)
        rng.integers(2)
        first = two_opt_improve(d, Tour.from_order(rng.permutation(15)))
        tour, stats = run_search(inst, pruned, params, 21)
        assert stats.rounds == 1
        assert stats.total_expansions == 0
        assert np.array_equal(tour.order, first.order)
        assert math.isfinite(stats.best_length)
        assert stats.best_length == tour_length(d, tour)

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
        assert stats.rounds == 3
        assert stats.total_expansions >= 3 * 1
        assert stats.dead_ends + stats.cap_hits <= stats.total_expansions

    def test_two_opt_seconds_within_wall_time(self):
        inst = generate_random(30, 6)
        _, pruned = top_m_filter(adjacency_weights(distance_matrix(inst)), 5)
        t0 = time.perf_counter()
        _, stats = run_search(inst, pruned, dist_params(max_rounds=3), 1)
        wall = time.perf_counter() - t0
        assert 0.0 < stats.two_opt_seconds <= wall

    def test_distance_lists_built_once(self, monkeypatch):
        # heat lists change with the heat updates and are built every heat
        # round; distance lists are the same in every round
        import tspheat.search as search_mod

        inst = generate_random(20, 3)
        _, pruned = top_m_filter(adjacency_weights(distance_matrix(inst)), 6)
        params = dist_params(max_rounds=12)
        want, want_stats = run_search(inst, pruned, params, 5)
        modes = []

        def counted(matrix, m, mode):
            modes.append(mode)
            return candidate_lists(matrix, m, mode)

        monkeypatch.setattr(search_mod, "candidate_lists", counted)
        tour, stats = run_search(inst, pruned, params, 5)
        assert modes.count(DISTANCE_MODE) == 1
        assert modes.count(HEAT_MODE) >= 1
        assert tour.order.tolist() == want.order.tolist()
        assert stats.best_length == want_stats.best_length

    def test_patched_table_matches_fresh_build(self, monkeypatch):
        # the candidate table is built once per round and patched after each
        # heat update; at every expansion it must equal a fresh build from
        # the round's lists and the current heat
        import tspheat.search as search_mod

        inst = generate_random(30, 4)
        d = distance_matrix(inst)
        _, pruned = top_m_filter(adjacency_weights(d), 6)
        real_table, real_expand = search_mod._candidate_table, search_mod._expand
        rounds = []  # (lists, heat map, table, table as built) per round
        checked = []

        def table_spy(cand, dd, hp):
            table = real_table(cand, dd, hp)
            rounds.append((cand, hp, table, [list(row) for row in table]))
            return table

        def expand_spy(dd, order, table, *args):
            cand, hp, own, _ = rounds[-1]
            assert table is own
            assert table == real_table(cand, dd, hp)
            checked.append(table)
            return real_expand(dd, order, table, *args)

        monkeypatch.setattr(search_mod, "_candidate_table", table_spy)
        monkeypatch.setattr(search_mod, "_expand", expand_spy)
        _, stats = run_search(inst, pruned, dist_params(m=6, max_rounds=6), 3)
        assert len(rounds) == stats.rounds == 6
        assert len(checked) > len(rounds)
        # the heat updates did change the tables
        assert any(table != start for _, _, table, start in rounds)

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
        _, pruned = top_m_filter(adjacency_weights(d), n - 1)
        tour, stats = run_search(inst, pruned, PRESETS["tsp20"].with_budget(max_rounds=3), n)
        assert sorted(tour.order.tolist()) == list(range(n))
        _, opt = held_karp_exact(inst)
        assert stats.best_length == tour_length(d, tour) == pytest.approx(opt, abs=1e-12)
        assert stats.dead_ends + stats.cap_hits + stats.improving == stats.total_expansions


# Pinned round-capped searches: a change that alters any RNG draw, sampled
# city or float of the search fails here. Changing a value needs a reason.
GOLDEN_SEARCHES = {
    "tsp20-n16": dict(
        n=16, instance_seed=3, seed=5,
        params=PRESETS["tsp20"].with_budget(max_rounds=12),
        # the cycle first found at this length; before the best was kept by
        # exact length, an incremental length an ulp lower replaced it with
        # the same cycle written from another start and direction
        order=[7, 12, 1, 9, 4, 3, 15, 11, 0, 2, 14, 10, 8, 5, 6, 13],
        best_length="3.7710487245594857", expansions=1140, rounds=12, ends=(1076, 0),
    ),
    "tsp100-n100": dict(
        n=100, instance_seed=4, seed=6,
        params=PRESETS["tsp100"].with_budget(max_rounds=2),
        order=[39, 18, 99, 15, 63, 43, 48, 12, 28, 82, 55, 83, 41, 60, 42, 79, 32, 53,
               74, 6, 59, 98, 30, 13, 75, 17, 70, 23, 69, 68, 94, 88, 38, 40, 87, 9,
               71, 37, 21, 33, 45, 58, 44, 54, 50, 35, 14, 22, 93, 46, 64, 19, 96, 11,
               95, 25, 77, 90, 1, 91, 97, 3, 27, 92, 61, 66, 76, 51, 2, 47, 52, 62, 80,
               36, 57, 4, 5, 81, 24, 31, 7, 29, 89, 0, 26, 16, 49, 86, 78, 56, 8, 34,
               65, 72, 10, 84, 73, 20, 85, 67],
        best_length="7.711742873587408", expansions=6300, rounds=2, ends=(6037, 140),
    ),
    # a non-preset m and k_range
    "custom-n30": dict(
        n=30, instance_seed=8, seed=9,
        params=SearchParams(beta=10.0, m=6, k_range=(4, 9), expand_budget=60, max_rounds=6),
        order=[19, 21, 10, 23, 2, 7, 20, 9, 26, 18, 0, 1, 27, 8, 28, 4, 17, 16, 12, 6,
               5, 11, 29, 24, 3, 13, 22, 25, 14, 15],
        best_length="4.648123233749294", expansions=900, rounds=6, ends=(813, 67),
    ),
}


class TestGoldenSearch:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SEARCHES))
    def test_run_search_matches_recording(self, name):
        g = GOLDEN_SEARCHES[name]
        inst = generate_random(g["n"], g["instance_seed"])
        # SoftDist heat keeps the fixture independent of the training kernel
        _, pruned = top_m_filter(adjacency_weights(distance_matrix(inst)), g["params"].m)
        tour, stats = run_search(inst, pruned, g["params"], g["seed"])
        assert tour.order.tolist() == g["order"]
        assert repr(stats.best_length) == g["best_length"]
        assert stats.total_expansions == g["expansions"]
        assert stats.rounds == g["rounds"]
        assert (stats.dead_ends, stats.cap_hits) == g["ends"]


class TestPresets:
    def test_table_values(self):
        expect = {
            "tsp20": (10.0, 8, (10, 11), 60),
            "tsp50": (10.0, 8, (5, 15), 150),
            "tsp100": (10.0, 8, (5, 35), 300),
            "tsp200": (10.0, 8, (10, 90), 600),
            "tsp500": (50.0, 5, (30, 130), 1000),
            "tsp1000": (50.0, 5, (10, 110), 2000),
        }
        assert set(PRESETS) == set(expect)
        for name, (beta, m, k_range, budget) in expect.items():
            p = PRESETS[name]
            assert (p.beta, p.m, p.k_range, p.expand_budget) == (
                beta, m, k_range, budget
            ), name


class TestSearchParams:
    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            SearchParams(k_range=(1, 5))

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            SearchParams(k_range=(5, 5))

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            SearchParams(time_budget=0.0)

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
