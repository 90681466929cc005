import numpy as np
import pytest

from tspheat.generator import TrainConfig, default_steps, init_logits, optimize_heatmap
from tspheat.heatmap import column_softmax, indicator_to_heatmap, loss_gradient, surrogate_loss
from tspheat.instances import distance_matrix, generate_random


def _assert_breakdowns_match(got, want):
    tol = 1e-12 * max(1.0, abs(want.total))
    for field in ("row_penalty", "self_loop", "expected_length", "total"):
        assert abs(getattr(got, field) - getattr(want, field)) <= tol, field


class TestTrainConfig:
    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0)

    def test_default_step_schedule(self):
        assert default_steps(10) == 300
        assert default_steps(100) == 300
        assert default_steps(101) == 600
        assert default_steps(1000) == 3000


class TestInitLogits:
    def test_zero_scale_gives_uniform_indicator(self):
        cfg = TrainConfig(init_scale=0.0)
        logits = init_logits(6, cfg)
        assert np.all(logits == 0.0)
        assert np.allclose(column_softmax(logits), 1.0 / 6.0, atol=1e-15)

    def test_deterministic(self):
        cfg = TrainConfig(seed=123)
        assert np.array_equal(init_logits(7, cfg), init_logits(7, cfg))

    def test_sample_mean_near_zero(self):
        cfg = TrainConfig(init_scale=0.1, seed=5)
        logits = init_logits(8, cfg)
        # 64 draws of sd 0.1: mean within 3 sigma / sqrt(64)
        assert abs(logits.mean()) < 3 * 0.1 / 8


class TestOptimizeHeatmap:
    def test_loss_descends(self):
        inst = generate_random(10, 0)
        h, t, trace = optimize_heatmap(inst, TrainConfig(seed=0))
        assert trace.final.total < trace.per_step[0].total

    def test_single_step_trace(self):
        inst = generate_random(10, 1)
        _, _, trace = optimize_heatmap(inst, TrainConfig(steps=1, seed=1))
        assert trace.steps == 1

    def test_trace_length_matches_steps(self):
        inst = generate_random(8, 2)
        _, _, trace = optimize_heatmap(inst, TrainConfig(steps=25, seed=2))
        assert trace.steps == 25

    def test_deterministic_trace(self):
        inst = generate_random(9, 3)
        cfg = TrainConfig(steps=40, seed=3)
        _, t1, trace1 = optimize_heatmap(inst, cfg)
        _, t2, trace2 = optimize_heatmap(inst, cfg)
        assert np.array_equal(t1, t2)
        assert [b.total for b in trace1.per_step] == [b.total for b in trace2.per_step]

    def test_heatmap_mass_invariant(self):
        inst = generate_random(12, 4)
        h, _, _ = optimize_heatmap(inst, TrainConfig(steps=100, seed=4))
        assert h.sum() == pytest.approx(12.0, abs=1e-6)

    def test_row_penalty_soft_descent(self):
        hits = 0
        for seed in range(20):
            inst = generate_random(10, seed)
            _, _, trace = optimize_heatmap(inst, TrainConfig(seed=seed))
            hits += trace.final.row_penalty <= trace.per_step[0].row_penalty
        assert hits >= 18  # >= 90 percent of seeds

    def test_more_steps_never_worse(self):
        for seed in range(5):
            inst = generate_random(10, seed)
            _, _, short = optimize_heatmap(inst, TrainConfig(steps=150, seed=seed))
            _, _, long = optimize_heatmap(inst, TrainConfig(steps=1500, seed=seed))
            assert long.final.total <= short.final.total + 1e-9

    @pytest.mark.parametrize("n", [5, 12, 30])
    def test_per_step_breakdown_matches_surrogate_loss(self, n):
        # per_step[K] is evaluated before update K+1, at the parameters a
        # K-step run returns and checks with the two-form surrogate_loss
        for seed in range(3):
            inst = generate_random(n, seed)
            d = distance_matrix(inst)
            cfg = TrainConfig(steps=1, seed=seed)
            t = column_softmax(init_logits(n, cfg))
            want = surrogate_loss(t, indicator_to_heatmap(t), d, cfg.lambda1, cfg.lambda2)
            _, _, trace = optimize_heatmap(inst, cfg)
            _assert_breakdowns_match(trace.per_step[0], want)
            for k in (1, 7, 40):
                _, _, longer = optimize_heatmap(inst, TrainConfig(steps=k + 1, seed=seed))
                _, _, exact = optimize_heatmap(inst, TrainConfig(steps=k, seed=seed))
                _assert_breakdowns_match(longer.per_step[k], exact.final)

    def test_matches_textbook_adam(self):
        inst = generate_random(9, 5)
        cfg = TrainConfig(steps=40, seed=5)
        d = distance_matrix(inst)
        logits = init_logits(inst.n, cfg)
        m = np.zeros_like(logits)
        v = np.zeros_like(logits)
        for k in range(1, cfg.steps + 1):
            g = loss_gradient(logits, d, cfg.lambda1, cfg.lambda2)
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
            m_hat = m / (1.0 - cfg.beta1**k)
            v_hat = v / (1.0 - cfg.beta2**k)
            logits -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        _, t, _ = optimize_heatmap(inst, cfg)
        assert np.array_equal(t, column_softmax(logits))
