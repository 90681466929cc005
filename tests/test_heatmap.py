import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspheat.generator import (
    NumericError,
    column_softmax,
    indicator_to_heatmap,
    loss_gradient,
    surrogate_loss,
)
from tspheat.instances import Tour, distance_matrix, generate_random, tour_length

from oracles import (
    is_permutation_matrix,
    loss_total,
    permutation_to_cycle,
    shift_matrix,
    verify_hamiltonian_heatmap,
)


def random_stochastic(n, seed):
    rng = np.random.default_rng(seed)
    return column_softmax(rng.normal(size=(n, n)))


def permutation_indicator(perm):
    """Column k carries a single 1 at row perm[k]."""
    n = len(perm)
    t = np.zeros((n, n))
    t[np.asarray(perm), np.arange(n)] = 1.0
    return t


class TestColumnSoftmax:
    def test_uniform_for_zero_logits(self):
        t = column_softmax(np.zeros((4, 4)))
        assert np.allclose(t, 0.25, atol=1e-15)

    def test_column_shift_invariance(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=(6, 6))
        shifted = s.copy()
        shifted[:, 2] += 37.5
        assert np.allclose(column_softmax(s), column_softmax(shifted), atol=1e-12)

    def test_saturation(self):
        s = np.zeros((5, 5))
        s[np.arange(5), np.arange(5)] = 50.0
        t = column_softmax(s)
        assert np.all(t[np.arange(5), np.arange(5)] > 1.0 - 1e-9)

    def test_rejects_non_finite(self):
        s = np.zeros((3, 3))
        s[0, 0] = np.inf
        with pytest.raises(ValueError):
            column_softmax(s)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_columns_sum_to_one(self, seed):
        t = random_stochastic(9, seed)
        assert np.allclose(t.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(t > 0)


class TestIndicatorToHeatmap:
    def test_identity_gives_cyclic_shift(self):
        h = indicator_to_heatmap(np.eye(3))
        assert np.array_equal(h, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))

    def test_uniform_maps_to_uniform(self):
        n = 6
        h = indicator_to_heatmap(np.full((n, n), 1.0 / n))
        assert np.allclose(h, 1.0 / n, atol=1e-15)

    def test_permutation_columns_e1_e3_e2_e4(self):
        # derived by expanding the outer-product sum by hand (cities 0-based):
        # directed edges 0->2, 2->1, 1->3, 3->0
        t = permutation_indicator([0, 2, 1, 3])
        h = indicator_to_heatmap(t)
        expect = np.zeros((4, 4))
        expect[0, 2] = expect[2, 1] = expect[1, 3] = expect[3, 0] = 1.0
        assert np.array_equal(h, expect)

    @given(st.integers(min_value=3, max_value=40), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_three_forms_agree(self, n, seed):
        t = random_stochastic(n, seed)
        h = indicator_to_heatmap(t)
        # outer-product form
        outer = np.zeros((n, n))
        for k in range(n):
            outer += np.outer(t[:, k], t[:, (k + 1) % n])
        # matrix form via the explicit shift operator
        matrix_form = t @ shift_matrix(n) @ t.T
        assert np.allclose(h, outer, atol=1e-12)
        assert np.allclose(h, matrix_form, atol=1e-12)

    @given(st.integers(min_value=3, max_value=32), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_total_mass_is_n(self, n, seed):
        h = indicator_to_heatmap(random_stochastic(n, seed))
        assert h.sum() == pytest.approx(n, abs=1e-6)
        assert np.all(h >= 0)

    def test_doubly_stochastic_rows_and_columns(self):
        # sinkhorn-style balancing makes t doubly stochastic; h inherits it
        t = random_stochastic(8, 3)
        for _ in range(200):
            t = t / t.sum(axis=1, keepdims=True)
            t = t / t.sum(axis=0, keepdims=True)
        h = indicator_to_heatmap(t)
        assert np.allclose(h.sum(axis=0), 1.0, atol=1e-6)
        assert np.allclose(h.sum(axis=1), 1.0, atol=1e-6)


class TestSurrogateLoss:
    def test_uniform_closed_form(self):
        n = 8
        inst = generate_random(n, 5)
        d = distance_matrix(inst)
        t = np.full((n, n), 1.0 / n)
        h = indicator_to_heatmap(t)
        b = surrogate_loss(t, h, d, 3.0, 7.0)
        assert b.row_penalty == pytest.approx(0.0, abs=1e-12)
        assert b.self_loop == pytest.approx(1.0, abs=1e-12)
        assert b.expected_length == pytest.approx(d.sum() / n, abs=1e-12)

    def test_permutation_expected_length_is_tour_length(self):
        rng = np.random.default_rng(11)
        n = 9
        inst = generate_random(n, 11)
        d = distance_matrix(inst)
        perm = rng.permutation(n)
        t = permutation_indicator(perm)
        h = indicator_to_heatmap(t)
        b = surrogate_loss(t, h, d, 4.0, 4.0)
        assert b.row_penalty == pytest.approx(0.0, abs=1e-12)
        assert b.self_loop == pytest.approx(0.0, abs=1e-12)
        cycle = permutation_to_cycle(t)
        assert b.expected_length == pytest.approx(
            tour_length(d, Tour.from_order(cycle)), abs=1e-9
        )

    def test_row_sum_contribution(self):
        # a row summing to r contributes (r - 1)^2
        n = 5
        t = np.full((n, n), 1.0 / n)
        t[2, :] *= 2.0  # row 2 sums to 2
        h = indicator_to_heatmap(t)
        d = np.zeros((n, n))
        b = surrogate_loss(t, h, d, 1.0, 0.0)
        assert b.row_penalty == pytest.approx(1.0, abs=1e-12)

    def test_total_recomposes(self):
        n = 7
        t = random_stochastic(n, 2)
        h = indicator_to_heatmap(t)
        d = distance_matrix(generate_random(n, 2))
        b = surrogate_loss(t, h, d, 2.5, 6.5)
        assert b.total == pytest.approx(
            2.5 * b.row_penalty + 6.5 * b.self_loop + b.expected_length, abs=1e-12
        )

    def test_rejects_mismatched_shapes(self):
        t = random_stochastic(5, 0)
        h = indicator_to_heatmap(t)
        with pytest.raises(ValueError):
            surrogate_loss(t, h, np.zeros((4, 4)), 1.0, 1.0)

    def test_non_finite_loss_raises(self):
        # abs(total - compact) > tol is False when either side is NaN, and
        # inf - inf is NaN, so the two-form check alone passes them
        t = column_softmax(np.zeros((6, 6)))
        h = indicator_to_heatmap(t)
        d = distance_matrix(generate_random(6, 0))
        t_nan, h_inf = t.copy(), h.copy()
        t_nan[0, 0] = np.nan
        h_inf[1, 2] = np.inf
        for t_in, h_in in ((t_nan, h), (t, h_inf)):
            with pytest.raises(NumericError, match="non-finite"):
                surrogate_loss(t_in, h_in, d, 2.0, 1.0)

    @given(
        st.integers(min_value=3, max_value=32),
        st.integers(0, 10_000),
        st.floats(0.0, 20.0),
        st.floats(0.0, 20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_compact_form_equality(self, n, seed, lam1, lam2):
        t = random_stochastic(n, seed)
        h = indicator_to_heatmap(t)
        d = distance_matrix(generate_random(n, seed))
        b = surrogate_loss(t, h, d, lam1, lam2)
        compact = lam1 * b.row_penalty + ((d + lam2 * np.eye(n)) * h).sum()
        assert abs(b.total - compact) <= 1e-12


class TestLossGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(42)
        for case in range(5):
            n = 6
            s = rng.normal(size=(n, n))
            d = distance_matrix(generate_random(n, case))
            lam1, lam2 = 2.0, 1.0
            grad = loss_gradient(s, d, lam1, lam2)
            eps = 1e-6
            fd = np.zeros_like(grad)
            for i in range(n):
                for j in range(n):
                    sp = s.copy()
                    sp[i, j] += eps
                    sm = s.copy()
                    sm[i, j] -= eps
                    fd[i, j] = (
                        loss_total(sp, d, lam1, lam2) - loss_total(sm, d, lam1, lam2)
                    ) / (2 * eps)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() < 1e-4

    def test_dtype_follows_logits(self):
        # float64 logits take the float64 kernel, whose bytes were recorded
        # before the kernel took its dtype from the logits; float32 logits
        # give a float32 gradient within float32 round-off of the float64 one
        # at the same point (n * eps32 of the gradient's scale: the kernel's
        # matrix product sums n terms)
        import hashlib

        from tspheat.generator import TrainConfig, init_logits

        n = 30
        d = distance_matrix(generate_random(n, 8))
        s = init_logits(n, TrainConfig(seed=8))
        g64 = loss_gradient(s, d, 2.0, 1.0)
        assert g64.dtype == np.float64
        assert hashlib.sha256(g64.tobytes()).hexdigest() == (
            "6d68285e6f492ed1c6f4c2a74537d14cfd934ea366f3ae4c1ccba0d0cbc5557a")
        s32 = s.astype(np.float32)
        g32 = loss_gradient(s32, d, 2.0, 1.0)
        assert g32.dtype == np.float32
        ref = loss_gradient(s32.astype(np.float64), d, 2.0, 1.0)
        eps32 = np.finfo(np.float32).eps
        assert np.abs(g32 - ref).max() <= n * eps32 * np.abs(ref).max()
        assert column_softmax(s32).dtype == np.float32
        assert column_softmax(s.tolist()).dtype == np.float64

    def test_rejects_asymmetric_distances(self):
        d = distance_matrix(generate_random(5, 0))
        d[0, 1] += 0.5
        with pytest.raises(ValueError):
            loss_gradient(np.zeros((5, 5)), d, 2.0, 1.0)

    def test_rejects_single_position(self):
        with pytest.raises(ValueError):
            loss_gradient(np.zeros((1, 1)), np.zeros((1, 1)), 2.0, 1.0)

    def test_huge_lambda_raises_numeric_error(self):
        # the float32 kernel overflows on 2 * lambda1; the suite turns a
        # numpy RuntimeWarning into an error, so a warning would surface
        # here in place of the NumericError
        d = distance_matrix(generate_random(8, 0))
        with pytest.raises(NumericError) as excinfo:
            loss_gradient(np.zeros((8, 8), np.float32), d, 1e300, 1.0)
        assert str(excinfo.value) == "gradient evaluation produced non-finite values"

    def test_zero_for_constant_loss(self):
        s = np.random.default_rng(0).normal(size=(5, 5))
        grad = loss_gradient(s, np.zeros((5, 5)), 0.0, 0.0)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_small_at_converged_point(self):
        from tspheat.generator import TrainConfig, init_logits, optimize_heatmap

        inst = generate_random(8, 9)
        d = distance_matrix(inst)
        cfg = TrainConfig(steps=4000, seed=9)
        # re-run the optimizer's trajectory end point through the gradient
        h, t, trace = optimize_heatmap(inst, cfg)
        # recover final logits by construction: t = softmax(logits) is not
        # invertible directly, so compare gradient norms via log-probabilities,
        # which reproduce t exactly up to a per-column constant
        logits = np.log(t)
        g_end = np.linalg.norm(loss_gradient(logits, d, cfg.lambda1, cfg.lambda2))
        g_start = np.linalg.norm(
            loss_gradient(init_logits(8, cfg), d, cfg.lambda1, cfg.lambda2)
        )
        assert g_end < 0.05 * g_start


class TestPermutationCycle:
    def test_identity(self):
        assert np.array_equal(permutation_to_cycle(np.eye(5)), np.arange(5))

    def test_figure_pattern_edges(self):
        # build the position assignment q (1-based): q_1=4, q_3=3, q_4=n-2,
        # q_5=2, q_7=1, q_8=n with n=8; remaining positions get 5 and 7.
        # The heat map must then contain directed edges 3 -> n-2, n-2 -> 2,
        # 1 -> n and n -> 4 (all 1-based).
        q_one_based = [4, 5, 3, 6, 2, 7, 1, 8]
        q = [c - 1 for c in q_one_based]
        t = permutation_indicator(q)
        h = indicator_to_heatmap(t)
        assert h[3 - 1, 6 - 1] == 1.0
        assert h[6 - 1, 2 - 1] == 1.0
        assert h[1 - 1, 8 - 1] == 1.0
        assert h[8 - 1, 4 - 1] == 1.0
        assert np.array_equal(permutation_to_cycle(t), np.array(q))

    def test_random_permutation_visits_all(self):
        rng = np.random.default_rng(30)
        perm = rng.permutation(30)
        cycle = permutation_to_cycle(permutation_indicator(perm))
        assert sorted(cycle.tolist()) == list(range(30))

    def test_rejects_soft_matrix(self):
        with pytest.raises(ValueError):
            permutation_to_cycle(np.full((4, 4), 0.25))

    def test_tolerance(self):
        t = np.eye(4)
        t[0, 0] = 1.0 - 5e-10
        t[1, 0] = 5e-10
        assert is_permutation_matrix(t)
        assert np.array_equal(permutation_to_cycle(t), np.arange(4))


class TestHeatmapFormat:
    def test_round_trip_bit_exact(self):
        from tspheat.instances import format_heatmap, parse_heatmap

        h = indicator_to_heatmap(random_stochastic(9, 13))
        again = parse_heatmap(format_heatmap(h))
        assert np.array_equal(h, again)

    def test_header_checked(self):
        from tspheat.instances import parse_heatmap

        with pytest.raises(ValueError):
            parse_heatmap("NOT-A-HEATMAP\n2\n0 1\n1 0\n")

    def test_row_count_checked(self):
        from tspheat.instances import HEATMAP_HEADER, parse_heatmap

        with pytest.raises(ValueError):
            parse_heatmap(f"{HEATMAP_HEADER}\n3\n0 1 0\n1 0 0\n")

    def test_truncated_after_header(self):
        from tspheat.instances import HEATMAP_HEADER, parse_heatmap

        with pytest.raises(ValueError, match="no count line"):
            parse_heatmap(f"{HEATMAP_HEADER}\n")

    @pytest.mark.parametrize("rows, message", [
        ("0 1 0\n1 0\n0 1 0\n", "matrix row 2: expected 3 values, found 2"),
        ("0 1 0 0\n1 0 0\n0 1 0\n", "matrix row 1: expected 3 values, found 4"),
        ("0 1 0\n1 0 0\n\t0\n", "matrix row 3: expected 3 values, found 1"),
        ("0 1 0\n1 0 y\n0 1 0\n", "matrix row 2: expected a number, found 'y'"),
        ("0_0 1 0\n1 0 0\n0 1 0\n", "matrix row 1: expected a number, found '0_0'"),
    ])
    def test_ragged_row_named(self, rows, message):
        from tspheat.instances import HEATMAP_HEADER, parse_heatmap

        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_heatmap(f"{HEATMAP_HEADER}\n3\n{rows}")

    @pytest.mark.parametrize("count", ["abc", "-1", "0", "2.5"])
    def test_count_line_checked(self, count):
        from tspheat.instances import HEATMAP_HEADER, parse_heatmap

        message = f"{HEATMAP_HEADER} count line: expected a positive integer, found '{count}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_heatmap(f"{HEATMAP_HEADER}\n{count}\n0 1 1\n1 0 1\n1 1 0\n")


class TestVerifyHamiltonian:
    @given(st.integers(min_value=3, max_value=64), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_true_for_any_permutation_heatmap(self, n, seed):
        perm = np.random.default_rng(seed).permutation(n)
        h = indicator_to_heatmap(permutation_indicator(perm))
        ok, cycle = verify_hamiltonian_heatmap(h)
        assert ok
        assert sorted(cycle.tolist()) == list(range(n))

    def test_false_for_disjoint_subcycles(self):
        h = np.zeros((6, 6))
        h[0, 1] = h[1, 2] = h[2, 0] = 1.0  # 3-cycle
        h[3, 4] = h[4, 5] = h[5, 3] = 1.0  # another 3-cycle
        ok, cycle = verify_hamiltonian_heatmap(h)
        assert not ok and cycle is None

    def test_false_for_uniform(self):
        ok, _ = verify_hamiltonian_heatmap(np.full((5, 5), 0.2))
        assert not ok

    def test_false_for_two_ones_in_a_column(self):
        # one 1 per row, but rows 0 and 2 both point to city 1 and no row
        # points to city 3
        h = np.zeros((4, 4))
        h[0, 1] = h[1, 2] = h[2, 1] = h[3, 0] = 1.0
        assert (h.sum(axis=1) == 1).all() and h[:, 1].sum() == 2
        assert verify_hamiltonian_heatmap(h) == (False, None)

    def test_false_for_nonzero_diagonal(self):
        h = np.zeros((4, 4))
        h[0, 0] = h[1, 2] = h[2, 3] = h[3, 1] = 1.0
        ok, _ = verify_hamiltonian_heatmap(h)
        assert not ok
