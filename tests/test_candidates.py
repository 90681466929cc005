import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspheat.candidates import (
    DISTANCE_MODE,
    HEAT_MODE,
    SELECT_MIN_KEYS,
    candidate_lists,
    edge_set,
    overlap_coefficient,
    top_m_filter,
)
from tspheat.heatmap import indicator_to_heatmap
from tspheat.instances import Instance, distance_matrix, generate_random
from tspheat.search import SearchParams, run_search

from oracles import verify_hamiltonian_heatmap


def random_heat(n, seed):
    rng = np.random.default_rng(seed)
    h = rng.random((n, n))
    np.fill_diagonal(h, rng.random(n))
    return h


def brute_force_top_m(h, m):
    """Independent reference: sort each row explicitly, then symmetrize."""
    n = h.shape[0]
    kept = np.zeros_like(h)
    for i in range(n):
        entries = [(-h[i, j], j) for j in range(n) if j != i]
        entries.sort()
        for _, j in entries[:m]:
            kept[i, j] = h[i, j]
    return kept, kept + kept.T


def per_row_candidate_lists(matrix, m, mode):
    """Reference: one row copy and one stable argsort per city."""
    lists = []
    for i in range(matrix.shape[0]):
        row = matrix[i].copy()
        if mode == HEAT_MODE:
            row[i] = -np.inf
            idx = np.argsort(-row, kind="stable")
            idx = idx[row[idx] > 0][:m]
        else:
            row[i] = np.inf
            idx = np.argsort(row, kind="stable")[:m]
        lists.append(idx)
    return lists


def candidate_matrix(n, seed, kind):
    """Random floats, small integers (many ties), integers with some zero
    rows, all zeros, or entries of both signs."""
    rng = np.random.default_rng(seed)
    if kind == "float":
        return rng.random((n, n))
    if kind == "zeros":
        return np.zeros((n, n))
    if kind == "signed":
        return rng.normal(size=(n, n))
    a = rng.integers(0, 3, size=(n, n)).astype(np.float64)
    if kind == "zero-rows":
        a[rng.random(n) < 0.4] = 0.0
    return a


def dense_ranks(key, m):
    """Reference ranking: one stable argsort of every whole row of the n x n
    key, its diagonal set to +inf in place, cut to m columns."""
    np.fill_diagonal(key, np.inf)
    return np.argsort(key, axis=1, kind="stable")[:, :m]


def dense_heat_lists(matrix, m):
    """Reference for heat mode: the dense ranking of the key -matrix, each
    row keeping its prefix of negative keys (strictly positive heat)."""
    key = -np.asarray(matrix, dtype=np.float64)
    ranks = dense_ranks(key, m)
    counts = np.count_nonzero(np.take_along_axis(key, ranks, axis=1) < 0, axis=1)
    return [row[:c] for row, c in zip(ranks, counts)]


# heat values that stress the ranking: ties, both infinities, NaN, signed
# zeros and negatives
SPECIAL_HEAT = [0.0, -0.0, 0.5, 1.0, 1.0, 2.0, -1.0, np.inf, -np.inf, np.nan]


# row lengths on both sides of SELECT_MIN_KEYS: short rows are argsorted
# whole, long ones ranked by a selection
SIZES = st.one_of(st.integers(2, 14), st.integers(SELECT_MIN_KEYS, SELECT_MIN_KEYS + 30))


def special_matrix(n, seed):
    """SPECIAL_HEAT entries, half of them zeroed (sparse, as a pruned map is,
    and tied), with a diagonal of zero, positive, +inf or NaN entries."""
    rng = np.random.default_rng(seed)
    matrix = rng.choice(SPECIAL_HEAT, size=(n, n))
    matrix[rng.random((n, n)) < 0.5] = 0.0
    np.fill_diagonal(matrix, rng.choice([0.0, 1.0, 3.0, np.inf, np.nan], size=n))
    return matrix


class TestTopMFilter:
    def test_m_equals_n_minus_one_keeps_everything(self):
        h = random_heat(3, 0)
        kept, pruned = top_m_filter(h, 2)
        expect = h.copy()
        np.fill_diagonal(expect, 0.0)
        assert np.array_equal(kept, expect)
        assert np.array_equal(pruned, expect + expect.T)

    def test_m_one_with_strict_maximum(self):
        h = random_heat(6, 1)
        kept, _ = top_m_filter(h, 1)
        assert np.all((kept > 0).sum(axis=1) == 1)
        for i in range(6):
            row = h[i].copy()
            row[i] = -np.inf
            assert kept[i, np.argmax(row)] == h[i, np.argmax(row)]

    @given(st.integers(0, 10_000), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed, m):
        h = random_heat(6, seed)
        kept, pruned = top_m_filter(h, m)
        bf_kept, bf_pruned = brute_force_top_m(h, m)
        assert np.array_equal(kept, bf_kept)
        assert np.array_equal(pruned, bf_pruned)

    @given(SIZES, st.integers(0, 10_000), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_argsort(self, n, seed, data):
        # kept holds each row's entries at the dense argsort's first m
        # columns of -h, byte for byte, with ties, both infinities, NaN and
        # signed zeros; +inf and -inf kept at (i, j) and (j, i) sum to NaN
        m = data.draw(st.integers(1, n - 1))
        h = special_matrix(n, seed)
        rows = np.arange(n)[:, None]
        ranks = dense_ranks(-h, m)
        want = np.zeros_like(h)
        want[rows, ranks] = h[rows, ranks]
        np.fill_diagonal(want, 0.0)
        kept, pruned = top_m_filter(h, m)
        with np.errstate(over="ignore", invalid="ignore"):
            want_pruned = want + want.T
        assert pruned.tobytes() == want_pruned.tobytes()
        assert kept.tobytes() == want.tobytes()

    def test_symmetry_is_exact(self):
        _, pruned = top_m_filter(random_heat(9, 2), 3)
        assert np.array_equal(pruned, pruned.T)
        assert np.all(np.diag(pruned) == 0.0)

    def test_overflowing_pair_is_inf(self):
        # finite heat past half the largest float sums to inf, with no
        # overflow warning (the test suite turns warnings into errors)
        h = np.array([[0.0, 1.5e308, 1.0], [1e308, 0.0, 1.0], [1.0, 1.0, 0.0]])
        _, pruned = top_m_filter(h, 2)
        assert pruned[0, 1] == pruned[1, 0] == np.inf
        assert pruned[0, 2] == pruned[1, 2] == 2.0

    def test_opposite_infinities_sum_to_nan_that_search_refuses(self):
        # +inf kept at (0, 1) and -inf at (1, 0) sum to NaN with no invalid
        # warning (the test suite turns warnings into errors); run_search
        # refuses the pruned map with a ValueError
        h = np.array([[0.0, np.inf, 1.0, 2.0],
                      [-np.inf, 0.0, -1.0, -2.0],
                      [1.0, 2.0, 0.0, 3.0],
                      [2.0, 1.0, 3.0, 0.0]])
        kept, pruned = top_m_filter(h, 3)
        assert kept[0, 1] == np.inf and kept[1, 0] == -np.inf
        assert np.isnan(pruned[0, 1]) and np.isnan(pruned[1, 0])
        inst = generate_random(4, seed=0)
        with pytest.raises(ValueError, match="finite and >= 0"):
            run_search(inst, pruned, SearchParams(m=2, max_rounds=1), seed=0)

    def test_rejects_bad_m(self):
        h = random_heat(5, 3)
        with pytest.raises(ValueError):
            top_m_filter(h, 0)
        with pytest.raises(ValueError):
            top_m_filter(h, 5)


class TestEdgeSet:
    def test_empty_for_zero_matrix(self):
        assert edge_set(np.zeros((4, 4))) == set()

    def test_complete_for_positive_heat(self):
        h = np.ones((5, 5))
        _, pruned = top_m_filter(h, 4)
        assert len(edge_set(pruned)) == 10  # n(n-1)/2

    @given(st.integers(0, 10_000), st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_size_bounded_by_n_m(self, seed, m):
        h = random_heat(8, seed)
        _, pruned = top_m_filter(h, min(m, 7))
        assert len(edge_set(pruned)) <= 8 * min(m, 7)

    def test_matches_union_of_directed_supports(self):
        h = random_heat(7, 9)
        kept, pruned = top_m_filter(h, 3)
        from_kept = {
            (min(i, j), max(i, j))
            for i, j in zip(*np.nonzero(kept > 0))
        }
        assert edge_set(pruned) == from_kept


class TestOverlapCoefficient:
    def test_identical_sets(self):
        edges = {(0, 1), (1, 2), (2, 3)}
        assert overlap_coefficient(edges, edges) == 1.0

    def test_disjoint_sets(self):
        assert overlap_coefficient({(0, 1)}, {(2, 3)}) == 0.0

    def test_nineteen_of_twenty(self):
        truth = {(0, j) for j in range(1, 21)}
        pred = set(list(truth)[:19])
        assert overlap_coefficient(pred, truth) == pytest.approx(0.95)

    def test_rejects_empty_truth(self):
        with pytest.raises(ValueError):
            overlap_coefficient({(0, 1)}, set())

    @given(st.integers(0, 1_000))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_m(self, seed):
        h = random_heat(10, seed)
        truth = {(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)}
        etas = []
        for m in range(1, 10):
            _, pruned = top_m_filter(h, m)
            etas.append(overlap_coefficient(edge_set(pruned), truth))
        assert all(a <= b + 1e-15 for a, b in zip(etas, etas[1:]))


class TestCandidateLists:
    def test_distance_mode_square_corners(self):
        inst = Instance(coords=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        d = distance_matrix(inst)
        cand = candidate_lists(d, 2, DISTANCE_MODE)
        # each corner's two nearest are its side-adjacent corners
        assert set(cand[0].tolist()) == {1, 3}
        assert set(cand[1].tolist()) == {0, 2}
        assert set(cand[2].tolist()) == {1, 3}
        assert set(cand[3].tolist()) == {0, 2}

    def test_heat_mode_recovers_cycle_neighbours(self):
        rng = np.random.default_rng(17)
        n = 12
        perm = rng.permutation(n)
        t = np.zeros((n, n))
        t[perm, np.arange(n)] = 1.0
        h = indicator_to_heatmap(t)
        ok, cycle = verify_hamiltonian_heatmap(h)
        assert ok
        _, pruned = top_m_filter(h, 2)
        cand = candidate_lists(pruned, 2, HEAT_MODE)
        pos = {int(c): k for k, c in enumerate(cycle)}
        for city in range(n):
            k = pos[city]
            neighbours = {int(cycle[(k - 1) % n]), int(cycle[(k + 1) % n])}
            assert set(cand[city].tolist()) == neighbours

    def test_tie_break_on_equal_rows(self):
        pruned = np.ones((6, 6))
        np.fill_diagonal(pruned, 0.0)
        cand = candidate_lists(pruned, 3, HEAT_MODE)
        assert cand[0].tolist() == [1, 2, 3]
        assert cand[4].tolist() == [0, 1, 2]

    def test_heat_mode_drops_zero_entries(self):
        pruned = np.zeros((5, 5))
        pruned[0, 3] = pruned[3, 0] = 2.0
        cand = candidate_lists(pruned, 3, HEAT_MODE)
        assert cand[0].tolist() == [3]
        assert cand[1].tolist() == []

    def test_city_never_in_own_list(self):
        d = distance_matrix(generate_random(9, 8))
        cand = candidate_lists(d, 4, DISTANCE_MODE)
        for i in range(9):
            assert i not in cand[i].tolist()

    @given(st.integers(2, 12), st.integers(0, 10_000), st.data(),
           st.sampled_from(["float", "ints", "zero-rows", "zeros", "signed"]),
           st.sampled_from([HEAT_MODE, DISTANCE_MODE]))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_row_reference(self, n, seed, data, kind, mode):
        m = data.draw(st.integers(1, n - 1))
        matrix = candidate_matrix(n, seed, kind)
        cand = candidate_lists(matrix, m, mode)
        for i, ref in enumerate(per_row_candidate_lists(matrix, m, mode)):
            assert cand[i].dtype == np.int64
            assert not cand[i].flags.writeable
            assert cand[i].tolist() == ref.tolist()
        with pytest.raises(IndexError):
            cand[n]

    @given(st.integers(2, 12), st.integers(0, 10_000), st.data(),
           st.sampled_from(["float", "ints", "zero-rows", "zeros"]))
    @settings(max_examples=200, deadline=None)
    def test_heat_lists_are_top_m_support(self, n, seed, data, kind):
        # both rank a row the same way: for non-negative heat each heat-mode
        # list is the positive support of top_m_filter's kept row, best first
        m = data.draw(st.integers(1, n - 1))
        h = candidate_matrix(n, seed, kind)
        kept, _ = top_m_filter(h, m)
        cand = candidate_lists(h, m, HEAT_MODE)
        for i in range(n):
            support = sorted((j for j in range(n) if kept[i, j] > 0),
                             key=lambda j: (-kept[i, j], j))
            assert cand[i].tolist() == support

    @given(SIZES, st.integers(0, 10_000), st.data())
    @settings(max_examples=300, deadline=None)
    def test_heat_lists_match_dense_argsort(self, n, seed, data):
        # heat lists rank only each row's positive off-diagonal entries;
        # they are the dense argsort's lists, byte for byte, with ties,
        # +inf, NaN, negative and zero entries, positive diagonals and rows
        # with fewer than m positive entries
        m = data.draw(st.integers(1, n - 1))
        matrix = special_matrix(n, seed)
        cand = candidate_lists(matrix, m, HEAT_MODE)
        want = dense_heat_lists(matrix, m)
        assert len(cand) == n
        for got, ref in zip(cand, want):
            assert got.dtype == np.int64
            assert not got.flags.writeable
            assert got.tolist() == ref.tolist()

    @given(SIZES, st.integers(0, 10_000), st.data())
    @settings(max_examples=300, deadline=None)
    def test_distance_lists_match_dense_argsort(self, n, seed, data):
        # a distance list is the dense argsort's row, byte for byte, with
        # the same special keys, ties at the cut included
        m = data.draw(st.integers(1, n - 1))
        matrix = special_matrix(n, seed)
        cand = candidate_lists(matrix, m, DISTANCE_MODE)
        assert [c.tolist() for c in cand] == dense_ranks(matrix.copy(), m).tolist()
        assert all(c.dtype == np.int64 and not c.flags.writeable for c in cand)

    def test_heat_lists_cover_every_special_value(self):
        # one row per case, checked against the dense argsort
        inf, nan = np.inf, np.nan
        matrix = np.array([
            [5.0, 1.0, 1.0, 1.0, 0.0],  # positive diagonal, a three-way tie
            [inf, 0.0, 2.0, inf, nan],  # tied +inf ahead of a finite heat, NaN dropped
            [-1.0, -0.0, 0.0, -inf, 0.5],  # one positive entry, fewer than m
            [0.0, 0.0, 0.0, 0.0, 0.0],  # no positive entry
            [nan, nan, 3.0, 2.0, nan],  # NaN diagonal
        ])
        cand = candidate_lists(matrix, 2, HEAT_MODE)
        assert [c.tolist() for c in cand] == [[1, 2], [0, 3], [4], [], [2, 3]]
        assert [c.tolist() for c in cand] == [r.tolist() for r in dense_heat_lists(matrix, 2)]

    def test_rejects_bad_m(self):
        for m in (0, 4):
            with pytest.raises(ValueError):
                candidate_lists(np.ones((4, 4)), m, DISTANCE_MODE)
            with pytest.raises(ValueError):
                candidate_lists(np.ones((4, 4)), m, HEAT_MODE)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            candidate_lists(np.ones((4, 4)), 2, "sideways")
