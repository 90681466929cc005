"""Per-instance heat-map generation by gradient descent on raw logits.

One square logit matrix is optimized directly against the surrogate loss
with Adam; the column softmax of the final logits is the soft indicator
matrix and its cyclic transform is the heat map handed to the search stage.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .heatmap import (
    LossBreakdown,
    NumericError,
    _breakdown,
    _gradient,
    _softmax_into,
    _Workspace,
    indicator_to_heatmap,
    surrogate_loss,
)
from .instances import Instance, coordinate_span, distance_matrix

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
INIT_SCALE = 0.5


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one heat-map fit: steps and seed.

    steps is the number of Adam updates, 50 at every instance size, so a
    fit costs about n**3 (one n x n matrix product per step); seed draws the
    initial logits. Adam's step size learning_rate and the loss weights
    lambda1 and lambda2 are class constants, not fields. Adam moves a logit
    by at most about the step size per update, so learning_rate * steps
    (0.1 * 50 = 5) bounds how far the default fit can carry a logit. The
    lambda weights balance the doubly-stochastic pressure against the
    expected-length term; they were chosen empirically so that the pruned
    heat map covers optimal-tour edges well (heavier penalties tend to
    collapse the indicator onto a single locally-optimal cycle, which hurts
    edge coverage). Adam's other settings are the module constants
    ADAM_BETA1, ADAM_BETA2 and ADAM_EPSILON, Kingma & Ba's defaults; the
    initial logits' standard deviation is the module constant INIT_SCALE.
    """

    learning_rate: ClassVar[float] = 0.1
    lambda1: ClassVar[float] = 2.0
    lambda2: ClassVar[float] = 1.0
    steps: int = 50
    seed: int = 0

    def __post_init__(self):
        try:
            operator.index(self.steps)
        except TypeError:
            raise ValueError(f"steps must be an integer, got {self.steps!r}") from None
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


@dataclass
class TrainTrace:
    """Per-step loss breakdowns (evaluated before each update) when the fit
    records them, the loss of the returned parameters, the wall-clock
    seconds of the Adam loop and the number of Adam updates that ran.

    seconds times the loop alone, so seconds / steps is a per-step time:
    the set-up before it (distances, initial logits, buffers) and the final
    softmax, heat product and two-form loss check after it are fixed costs
    it leaves out.

    final is in the instance's units. per_step is empty unless
    optimize_heatmap ran with record_losses=True; then it holds one float32
    breakdown per step of the objective the loop trains on, in the
    instance's span frame: distances divided by coordinate_span(inst) (see
    optimize_heatmap).
    """

    per_step: list[LossBreakdown]
    final: LossBreakdown
    seconds: float
    steps: int


def init_logits(n: int, cfg: TrainConfig) -> np.ndarray:
    """Seeded float64 Gaussian(0, INIT_SCALE^2) logits of shape (n, n)."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    rng = np.random.default_rng(cfg.seed)
    return rng.normal(0.0, INIT_SCALE, size=(n, n))


@functools.lru_cache(maxsize=8)
def _bias_correction(steps: int) -> np.ndarray:
    """Read-only float32 (steps, 2, 1, 1) table of Adam's bias corrections
    (1 - b1**k, 1 - b2**k) for k = 1..steps, as Python floats cast once."""
    bias = np.array([(1.0 - ADAM_BETA1**k, 1.0 - ADAM_BETA2**k)
                     for k in range(1, steps + 1)], np.float32).reshape(steps, 2, 1, 1)
    bias.setflags(write=False)
    return bias


def optimize_heatmap(inst: Instance, cfg: TrainConfig = TrainConfig(),
                     record_losses: bool = False):
    """Fit logits to one instance; returns (heat_map, soft_indicator, trace).

    Runs the configured number of Adam updates (50 by default, at step
    size TrainConfig.learning_rate) on the logits using the analytic loss
    gradient; each step costs one n x n matrix product,
    M = (d + lambda2*I) @ t, which yields the step's gradient and, when
    record_losses is set, its loss breakdown. Only the gradient moves the
    logits, so the per-step losses are computed only then, into
    trace.per_step; the outputs are the same bytes either way. The loop runs
    in float32, the precision neural heat-map models train at: the logits,
    the kernel's workspace and the Adam moments and scratch are float32
    buffers allocated once per fit, and the float64 initial logits
    (init_logits) are cast once. It trains on the distances of the
    instance's span frame, d / coordinate_span(inst) (d itself when every
    city coincides), which is free of the coordinates' unit: a copy scaled
    by a power of two gets the same fit bit for bit, since the division is
    then exact, and a copy scaled by another factor differs only by the
    division's rounding, which the float32 cast mostly absorbs. The
    returned soft indicator and heat map are float64, and the
    two-form surrogate_loss check runs on them with the instance's own
    distances. Deterministic for a fixed (instance, config). Raises
    NumericError naming the step if the gradient or logits go non-finite,
    or, when recorded, the loss; a fit that does not record its losses
    reports a non-finite loss as a non-finite gradient at the same step.
    """
    n = inst.n
    d = distance_matrix(inst)
    span = coordinate_span(inst)
    steps = cfg.steps
    lam1, lam2 = cfg.lambda1, cfg.lambda2
    # each update's logits (and each recorded loss) are checked below, and
    # the first non-finite one raises NumericError, so numpy's warnings stay
    # silent
    with np.errstate(over="ignore", invalid="ignore"):
        a = ((d / span if span else d) + lam2 * np.eye(n)).astype(np.float32)
        # m and v are one (2, n, n) stack, so that each moment operation is
        # one ufunc call against (2, 1, 1) coefficients. Each coefficient is
        # a Python float cast once to float32, which gives the same result
        # as the Python float in a float32 operation; a scalar is a 0-d
        # float32 array, the cheapest operand of a ufunc call.
        f32 = np.float32
        decay = np.array([ADAM_BETA1, ADAM_BETA2], f32).reshape(2, 1, 1)
        c1, c2 = np.array(1.0 - ADAM_BETA1, f32), np.array(1.0 - ADAM_BETA2, f32)
        lr, eps = np.array(cfg.learning_rate, f32), np.array(ADAM_EPSILON, f32)
        bias = _bias_correction(steps)
        logits = init_logits(n, cfg).astype(f32)
        ws = _Workspace(n, logits.dtype)
        moments = np.zeros((2, n, n), f32)
        # update holds (1-b1)*g and (1-b2)*(g*g), then m_hat and v_hat; the
        # operations and their order are those of the textbook expression,
        # so the result is bit-identical
        update = np.empty_like(moments)
        g_term, g2_term = update
        m_hat, v_hat = update
        per_step: list[LossBreakdown] = []
        t0 = time.perf_counter()
        for k, bias_k in enumerate(bias, 1):
            g = _gradient(logits, a, lam1, ws)
            if record_losses:
                breakdown = _breakdown(ws, lam1, lam2)
                if not math.isfinite(breakdown.total):
                    raise NumericError(f"non-finite loss at step {k}")
                per_step.append(breakdown)
            # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
            np.multiply(g, c1, g_term)
            np.multiply(g, g, g2_term)
            np.multiply(g2_term, c2, g2_term)
            np.multiply(moments, decay, moments)
            np.add(moments, update, moments)
            # logits -= lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(moments, bias_k, update)
            np.sqrt(v_hat, v_hat)
            np.add(v_hat, eps, v_hat)
            np.multiply(m_hat, lr, m_hat)
            np.divide(m_hat, v_hat, m_hat)
            np.subtract(logits, m_hat, logits)
            if not ws.all_finite(logits):
                # a non-finite gradient entry always leaves a NaN in the
                # logits (its m_hat and v_hat go infinite or NaN together,
                # and inf/inf is NaN), so the gradient is checked only here.
                # Finite logits give a finite t, and a is bounded in the
                # span frame, so m and the loss are finite too: an
                # unrecorded loss cannot go non-finite unseen
                if not ws.all_finite(g):
                    raise NumericError(f"non-finite gradient at step {k}")
                raise NumericError(f"non-finite logits after step {k}")
    seconds = time.perf_counter() - t0
    t = _softmax_into(logits, ws).astype(np.float64)
    del ws, g  # free the other kernel buffers before the final products
    h = indicator_to_heatmap(t)
    final = surrogate_loss(t, h, d, lam1, lam2)
    return h, t, TrainTrace(per_step=per_step, final=final, seconds=seconds, steps=steps)
