"""Per-instance heat-map generation by gradient descent on raw logits.

One square logit matrix is optimized directly against the surrogate loss
with Adam; the column softmax of the final logits is the soft indicator
matrix and its cyclic transform is the heat map handed to the search stage.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .heatmap import (
    LossBreakdown,
    NumericError,
    _loss_and_gradient,
    _softmax_into,
    _Workspace,
    indicator_to_heatmap,
    surrogate_loss,
)
from .instances import Instance, distance_matrix

# The fit trains on the distances scaled by a power of two, 2**-e, so that
# the largest lies below 2**TRAIN_MAX_EXPONENT; any instance already below
# that bound trains on its distances unchanged. Under this bound the float32
# loss terms (about n * max(d)) and the squared gradient in Adam's second
# moment stay far below float32's largest value, 3.4e38 (about 2**128).
TRAIN_MAX_EXPONENT = 40

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def default_steps(n: int) -> int:
    """Step budget that grows with instance size: 300 per started block of
    100 cities, never less than 300."""
    return 300 * max(1, math.ceil(n / 100))


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings for one heat-map fit.

    steps=None derives the budget from the instance size via default_steps.
    The lambda weights balance the doubly-stochastic pressure against the
    expected-length term; the defaults were chosen empirically so that the
    pruned heat map covers optimal-tour edges well (heavier penalties tend to
    collapse the indicator onto a single locally-optimal cycle, which hurts
    edge coverage). Adam's other settings are the module constants
    ADAM_BETA1, ADAM_BETA2 and ADAM_EPSILON, Kingma & Ba's defaults.
    """

    steps: Optional[int] = None
    learning_rate: float = 0.05
    lambda1: float = 2.0
    lambda2: float = 1.0
    init_scale: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "lambda1", "lambda2", "init_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.steps is not None and self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda weights must be >= 0")
        if self.init_scale < 0:
            raise ValueError("init_scale must be >= 0")

    def resolved_steps(self, n: int) -> int:
        return self.steps if self.steps is not None else default_steps(n)


@dataclass
class TrainTrace:
    """Per-step loss breakdowns (evaluated before each update), the loss of
    the returned parameters, and wall-clock duration.

    final is in the instance's units. per_step holds the float32 breakdowns
    of the objective the loop trains on, which for an instance whose
    largest distance reaches 2**TRAIN_MAX_EXPONENT has its distances scaled
    by a power of two (see optimize_heatmap).
    """

    per_step: list[LossBreakdown]
    final: LossBreakdown
    seconds: float

    @property
    def steps(self) -> int:
        return len(self.per_step)


def init_logits(n: int, cfg: TrainConfig) -> np.ndarray:
    """Seeded Gaussian(0, init_scale^2) logits; all zeros when init_scale=0."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if cfg.init_scale == 0:
        return np.zeros((n, n))
    rng = np.random.default_rng(cfg.seed)
    return rng.normal(0.0, cfg.init_scale, size=(n, n))


def optimize_heatmap(inst: Instance, cfg: TrainConfig = TrainConfig()):
    """Fit logits to one instance; returns (heat_map, soft_indicator, trace).

    Runs the configured number of Adam updates on the logits using the
    analytic loss gradient; each step costs one n x n matrix product,
    M = (d + lambda2*I) @ t, which yields both the step's loss breakdown and
    its gradient. The loop runs in float32, the precision neural heat-map
    models train at: the logits, the kernel's workspace and the Adam
    moments and scratch are float32 buffers allocated once per fit, and the
    float64 initial logits are cast once. It trains on d * 2**-e, where e is
    the smallest exponent >= 0 that puts the largest distance below
    2**TRAIN_MAX_EXPONENT; the scaling is exact, and e = 0 for any instance
    whose largest distance is smaller. The returned soft indicator and heat
    map are float64, and the two-form surrogate_loss check runs on them with
    the instance's own distances. Deterministic for a fixed (instance,
    config). Raises NumericError if the initial logits are non-finite, or
    naming the step if the loss, gradient or logits go non-finite.
    """
    n = inst.n
    d = distance_matrix(inst)
    steps = cfg.resolved_steps(n)
    lam1, lam2 = cfg.lambda1, cfg.lambda2
    e = max(0, math.frexp(d.max())[1] - TRAIN_MAX_EXPONENT)
    a = (np.ldexp(d, -e) + lam2 * np.eye(n)).astype(np.float32)
    # each Adam coefficient is computed as a Python float, then cast once to
    # float32: against a float32 array it gives the same result as the
    # Python float and costs less per call (at n=16, about 0.8 against
    # 1.1 us for one multiply, 2-core VM)
    f32 = np.float32
    b1, b2 = f32(ADAM_BETA1), f32(ADAM_BETA2)
    c1, c2 = f32(1.0 - ADAM_BETA1), f32(1.0 - ADAM_BETA2)
    lr, eps = f32(cfg.learning_rate), f32(ADAM_EPSILON)
    logits = init_logits(n, cfg).astype(np.float32)
    ws = _Workspace(n, logits.dtype)
    # checked once here; the loop re-checks the logits after every update
    if not ws.all_finite(logits):
        raise NumericError("non-finite initial logits")
    m = np.zeros_like(logits)
    v = np.zeros_like(logits)
    # scratch for the in-place Adam update; the operations and their order
    # are those of the textbook expression, so the result is bit-identical
    step_buf = np.empty_like(logits)
    denom = np.empty_like(logits)
    per_step: list[LossBreakdown] = []
    t0 = time.perf_counter()
    for k in range(1, steps + 1):
        breakdown, g = _loss_and_gradient(logits, a, lam1, lam2, ws)
        if not math.isfinite(breakdown.total):
            raise NumericError(f"non-finite loss at step {k}")
        if not ws.all_finite(g):
            raise NumericError(f"non-finite gradient at step {k}")
        per_step.append(breakdown)
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        m *= b1
        np.multiply(c1, g, out=step_buf)
        m += step_buf
        v *= b2
        np.multiply(g, g, out=step_buf)
        step_buf *= c2
        v += step_buf
        # logits -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, f32(1.0 - ADAM_BETA2**k), out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        np.divide(m, f32(1.0 - ADAM_BETA1**k), out=step_buf)
        step_buf *= lr
        step_buf /= denom
        logits -= step_buf
        if not ws.all_finite(logits):
            raise NumericError(f"non-finite logits after step {k}")
    t = _softmax_into(logits, ws).astype(np.float64)
    del ws, g  # free the other kernel buffers before the final products
    h = indicator_to_heatmap(t)
    final = surrogate_loss(t, h, d, lam1, lam2)
    trace = TrainTrace(per_step=per_step, final=final, seconds=time.perf_counter() - t0)
    return h, t, trace
