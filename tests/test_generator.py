import hashlib
import tracemalloc

import numpy as np
import pytest

from tspheat import generator
from tspheat.generator import TrainConfig, default_steps, init_logits, optimize_heatmap
from tspheat.heatmap import column_softmax, indicator_to_heatmap, loss_gradient, surrogate_loss
from tspheat.instances import Instance, distance_matrix, generate_random


EPS32 = float(np.finfo(np.float32).eps)


def _assert_breakdowns_match(got, want):
    # per_step holds float32 breakdowns and want is the float64 loss of
    # (nearly) the same parameters; each term is a float32 sum of entries
    # in [0, 1] or of their products with distances, so it carries a few
    # eps32 of relative error
    tol = 16 * EPS32 * max(1.0, abs(want.total))
    for field in ("row_penalty", "self_loop", "expected_length", "total"):
        assert abs(getattr(got, field) - getattr(want, field)) <= tol, field


class TestTrainConfig:
    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field",
        ["learning_rate", "lambda1", "lambda2", "init_scale"],
    )
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

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

    def test_step_loop_allocates_no_square_array(self, monkeypatch):
        # numpy reports its buffers to tracemalloc; between two kernel calls
        # (the Adam update, the checks and one kernel call) nothing of n x n
        # float32 size may be allocated, even if freed again
        n = 160
        kernel = generator._loss_and_gradient
        peaks = []

        def spy(*args):
            current, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - current)
            tracemalloc.reset_peak()
            return kernel(*args)

        monkeypatch.setattr(generator, "_loss_and_gradient", spy)
        tracemalloc.start()
        try:
            _, _, trace = optimize_heatmap(generate_random(n, 1), TrainConfig(steps=6, seed=1))
        finally:
            tracemalloc.stop()
        assert trace.steps == len(peaks) == 6
        assert max(peaks[1:]) < n * n * 4

    def test_matches_textbook_adam(self):
        # the textbook update replayed on float32 arrays, with the float32
        # gradient of the public loss_gradient, from the cast initial logits
        b1, b2 = generator.ADAM_BETA1, generator.ADAM_BETA2
        for n in (9, 30):
            inst = generate_random(n, 5)
            cfg = TrainConfig(steps=40, seed=5)
            d = distance_matrix(inst)
            logits = init_logits(inst.n, cfg).astype(np.float32)
            m = np.zeros_like(logits)
            v = np.zeros_like(logits)
            for k in range(1, cfg.steps + 1):
                g = loss_gradient(logits, d, cfg.lambda1, cfg.lambda2)
                assert g.dtype == np.float32
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * (g * g)
                m_hat = m / (1.0 - b1**k)
                v_hat = v / (1.0 - b2**k)
                logits -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + generator.ADAM_EPSILON)
            assert logits.dtype == np.float32
            h, t, _ = optimize_heatmap(inst, cfg)
            assert h.dtype == t.dtype == np.float64
            assert np.array_equal(t, column_softmax(logits))

    def test_power_of_two_scales_fit_alike(self):
        # distances from 2**40 up train on the same exactly scaled matrix,
        # so scales 2**100 and 2**150 give the same fit; the final loss
        # stays in the instance's units
        coords = generate_random(30, 7).coords
        cfg = TrainConfig(steps=60, seed=7)
        fits = [optimize_heatmap(Instance(coords=coords * 2.0**p), cfg) for p in (100, 150)]
        (h1, t1, trace1), (h2, t2, trace2) = fits
        assert np.array_equal(t1, t2)
        assert np.array_equal(h1, h2)
        assert [b.total for b in trace1.per_step] == [b.total for b in trace2.per_step]
        assert trace2.final.expected_length == pytest.approx(
            trace1.final.expected_length * 2.0**50, rel=1e-12)

    def test_distances_below_the_bound_train_unscaled(self):
        # the largest distance of coords * 2**38 lies below 2**40, so the
        # fit trains on those distances: its first loss matches the float64
        # loss of the initial parameters at that scale
        inst = generate_random(10, 8)
        big = Instance(coords=inst.coords * 2.0**38)
        d = distance_matrix(big)
        assert d.max() < 2.0**generator.TRAIN_MAX_EXPONENT
        cfg = TrainConfig(steps=1, seed=8)
        t = column_softmax(init_logits(10, cfg))
        want = surrogate_loss(t, indicator_to_heatmap(t), d, cfg.lambda1, cfg.lambda2)
        _, _, trace = optimize_heatmap(big, cfg)
        _assert_breakdowns_match(trace.per_step[0], want)


class TestGoldenTraining:
    """Default-config fits recorded at a fixed commit; any change to the
    training arithmetic, its operation order or the RNG fails these.

    The soft indicator, the per-step totals and the final loss come from
    the training loop and are pinned bit-for-bit. The heat map is the one
    product t @ roll(t, -1).T of the pinned indicator; its rounding depends
    on the BLAS thread count at n=100 (one ulp in 154 entries between 1 and
    2 OpenBLAS threads), so its SHA-256 is pinned where it does not move
    (heat_sha None otherwise) and every heat map is also checked against a
    BLAS-free product within n * eps (a length-n dot product of entries in
    [0, 1] whose sum is about 1).
    """

    CASES = [
        # (n, seed, indicator_sha, heat_sha, repr(final.total), per_step_sha)
        (14, 3,
         "faa0dda22f8fd9eaba01b2df1e5acf046d19e0ab8c5b7615b4af7791ab9d8d60",
         "cf0cad0b4b1988b6a4c6ed896b8d9a41b81319f54a866b6525869106b1b94a6c",
         "5.192007976655624",
         "fe0c2f763388a6febea394fcb91470a4fd8e0f4d281e6ef70f464c355c9168a1"),
        (50, 7,
         "d6b1ec0c1fef242f1909c13c6e55831eef8c94c81732068513093f95dad8d684",
         "b0d416d71286140969aea4468558756bf64d698fd7202d919df668f3a9658b4e",
         "9.156063558364945",
         "32ac8f4e5e19c97e20d5d259086112993cb6c1fbbf9fc9dc098e5788b27c6292"),
        (100, 11,
         "2ba7de4b8f0e2e2747747e9fd40eed33c6fbac322b5cdbfb957bd8e92ccb54a8",
         None,
         "13.809217537608756",
         "fcb6672e1b86179b884b75b21c88cb211c0daad4444d89010feec129d14d4961"),
    ]

    @pytest.mark.parametrize(
        "n, seed, indicator_sha, heat_sha, final_total, per_step_sha",
        CASES, ids=[f"n{c[0]}-s{c[1]}" for c in CASES],
    )
    def test_optimize_heatmap_matches_recording(
        self, n, seed, indicator_sha, heat_sha, final_total, per_step_sha
    ):
        h, t, trace = optimize_heatmap(generate_random(n, seed), TrainConfig(seed=seed))
        assert hashlib.sha256(t.tobytes()).hexdigest() == indicator_sha
        assert repr(trace.final.total) == final_total
        totals = repr([b.total for b in trace.per_step])
        assert hashlib.sha256(totals.encode()).hexdigest() == per_step_sha
        if heat_sha is not None:
            assert hashlib.sha256(h.tobytes()).hexdigest() == heat_sha
        ref = np.einsum("ik,jk->ij", t, np.roll(t, -1, axis=1))
        assert np.abs(h - ref).max() <= n * np.finfo(np.float64).eps
