"""Per-instance heat-map fit: soft indicator matrices, the cyclic heat-map
transformation, the surrogate loss with its analytic gradient, and the
Adam loop on raw logits that minimizes that loss for one instance.

The central object is a column-stochastic matrix ``t`` whose column k is a
probability distribution over which city occupies position k of the cycle.
The heat map ``h = t @ shift @ t.T`` (shift = the cyclic permutation operator)
scores each directed edge by the probability that consecutive positions are
occupied by its endpoints. When ``t`` is an exact permutation matrix, ``h``
is the adjacency matrix of a single Hamiltonian cycle; the test oracles
(tests/oracles.py) make that statement executable and keep an independent
loss for the gradient check. The heat-map file format (UTSP-HEATMAP) lives
in instances.py with the other native documents.

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

from .instances import Instance, coordinate_span, distance_matrix

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
INIT_SCALE = 0.5
# agreement required between the two algebraic forms of the loss
_FORM_TOL = 1e-12


class NumericError(RuntimeError):
    """A numeric computation produced NaN/inf instead of failing silently."""


def column_softmax(logits: np.ndarray) -> np.ndarray:
    """Column-wise softmax with per-column max subtraction for stability.

    Every output entry is strictly positive and every column sums to 1.
    """
    s = _as_logits(logits)
    ws = _Workspace(s.shape[0], s.dtype)
    _softmax_into(s, ws)
    return ws.t


def _as_logits(logits) -> np.ndarray:
    """logits as a float32 array if given one, else as a float64 array,
    checked to be square and finite."""
    s = np.asarray(logits)
    if s.dtype != np.float32:
        s = s.astype(np.float64, copy=False)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"logits must be square, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("logits must be finite")
    return s


class _Workspace:
    """Preallocated buffers for the softmax, the gradient kernel and the
    loss breakdown at one size n and one float dtype (that of the logits
    the kernel is given), so that a training step allocates no n x n array.

    n x n: t (the soft indicator), t_next (its columns rolled by -1, read
    by the breakdown only), m (= a @ t), g (the logit gradient) and a
    boolean finiteness mask; length n: column max and sum (softmax), the
    row error row_sum - 1 (kept for the breakdown), the scaled row error
    2*lambda1*(row_sum - 1) and the column dot (gradient). The views the
    kernels read and write on every call, and their constants as 0-d
    arrays of the dtype, are built here once: a ufunc call with a 0-d
    array costs less than one with a Python or numpy scalar. np.empty does
    not write the buffers, so a caller that needs only the softmax touches
    t alone.
    """

    __slots__ = ("t", "t_next", "m", "g", "finite", "col_max", "col_sum",
                 "row_err", "row_grad", "row_grad_col", "col_dot", "one", "row_scale",
                 "t_roll", "g_roll")

    def __init__(self, n: int, dtype):
        t = self.t = np.empty((n, n), dtype)
        t_next = self.t_next = np.empty((n, n), dtype)
        m = self.m = np.empty((n, n), dtype)
        g = self.g = np.empty((n, n), dtype)
        self.finite = np.empty((n, n), dtype=bool)
        self.col_max = np.empty(n, dtype)
        self.col_sum = np.empty(n, dtype)
        self.row_err = np.empty(n, dtype)
        self.row_grad = np.empty(n, dtype)
        self.row_grad_col = self.row_grad[:, None]
        self.col_dot = np.empty(n, dtype)
        self.one = np.array(1.0, dtype)
        self.row_scale = np.empty((), dtype)
        tf, nf, mf, gf = t.ravel(), t_next.ravel(), m.ravel(), g.ravel()
        # (destination, source): t_next[i, j] = t[i, j + 1] as a shift of
        # the flat buffer, whose last column (which read the next row) is
        # then overwritten with column 0
        self.t_roll = ((nf[:-1], tf[1:]), (t_next[:, -1], t[:, 0]))
        # (x, y, out) with out = x + y: g[i, j] = m[i, j + 1] + m[i, j - 1]
        # (column indices mod n), the same sums as roll(m, -1) + roll(m, +1),
        # in one pass over the flat buffers and then the two wrapped columns
        self.g_roll = ((mf[2:], mf[:-2], gf[1:-1]), (m[:, 1], m[:, -1], g[:, 0]),
                       (m[:, 0], m[:, -2], g[:, -1]))

    def all_finite(self, x: np.ndarray) -> bool:
        """np.isfinite(x).all() for an n x n x, without allocating."""
        # count_nonzero costs less than the logical_and reduction behind
        # ndarray.all at small n (0.7 against 1.8 us at n=16, 2-core VM)
        np.isfinite(x, self.finite)
        return np.count_nonzero(self.finite) == self.finite.size


def _softmax_into(logits: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Column softmax of finite n x n logits of ws's dtype, written into
    ws.t (max, subtract, exp, sum, divide); returns ws.t."""
    t = ws.t
    # the ufunc reductions np.max and np.sum call, without their wrappers
    np.maximum.reduce(logits, 0, None, ws.col_max)
    np.subtract(logits, ws.col_max, t)
    np.exp(t, t)
    np.add.reduce(t, 0, None, ws.col_sum)
    np.divide(t, ws.col_sum, t)
    return t


def indicator_to_heatmap(t: np.ndarray) -> np.ndarray:
    """Map a soft indicator matrix to its heat map.

    h[i, j] = sum_k t[i, k] * t[j, (k+1) mod n]: the probability that city i
    sits at some position whose cyclic successor position holds city j.
    Equivalent to the sum of outer products of cyclically adjacent columns,
    and to t @ V @ t.T with V the n x n cyclic shift operator, which the
    test oracles (tests/oracles.py) build.
    """
    t = np.asarray(t, dtype=np.float64)
    return t @ np.roll(t, -1, axis=1).T


@dataclass(frozen=True)
class LossBreakdown:
    """The three surrogate-loss components plus their weighted total.

    row_penalty and self_loop are stored unweighted; total applies the
    lambda weights: total = lambda1 * row_penalty + lambda2 * self_loop
    + expected_length.
    """

    row_penalty: float
    self_loop: float
    expected_length: float
    total: float


def surrogate_loss(
    t: np.ndarray,
    h: np.ndarray,
    d: np.ndarray,
    lambda1: float,
    lambda2: float,
) -> LossBreakdown:
    """Evaluate the surrogate objective and return its component breakdown.

    The objective combines a row-stochasticity penalty sum_i (row_sum_i - 1)^2
    (columns are already normalized, so driving rows to 1 makes t doubly
    stochastic), a self-loop penalty trace(h), and the expected cycle length
    <d, h>. The same value is recomputed in the compact form
    lambda1 * row_penalty + <d + lambda2*I, h> and the two must agree to
    within 1e-12; a mismatch means a transcription bug in one of the forms.
    Either form non-finite (NaN or inf in the input) raises NumericError.
    """
    t = np.asarray(t, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    n = t.shape[0]
    if h.shape != (n, n) or d.shape != (n, n):
        raise ValueError(
            f"dimension mismatch: t {t.shape}, h {h.shape}, d {d.shape}"
        )
    if lambda1 < 0 or lambda2 < 0:
        raise ValueError("lambda1 and lambda2 must be >= 0")
    row_penalty = float(((t.sum(axis=1) - 1.0) ** 2).sum())
    self_loop = float(np.trace(h))
    expected_length = float((d * h).sum())
    total = lambda1 * row_penalty + lambda2 * self_loop + expected_length
    compact = lambda1 * row_penalty + float(
        ((d + lambda2 * np.eye(n)) * h).sum()
    )
    if not (math.isfinite(total) and math.isfinite(compact)):
        raise NumericError(f"non-finite loss: {total!r} vs {compact!r}")
    if abs(total - compact) > _FORM_TOL * max(1.0, abs(total)):
        raise NumericError(
            f"loss forms disagree: {total!r} vs {compact!r}"
        )
    return LossBreakdown(
        row_penalty=row_penalty,
        self_loop=self_loop,
        expected_length=expected_length,
        total=total,
    )


def _gradient(logits: np.ndarray, a: np.ndarray, lambda1: float, ws: _Workspace) -> np.ndarray:
    """Logit gradient of the surrogate loss at t = column_softmax(logits),
    from one matrix product, computed in the buffers of ws.

    logits, a and ws share one dtype, in which every step is computed.
    a = d + lambda2*I must be symmetric. With M = a @ t and V the cyclic
    shift, the bilinear term <a, t V t.T> has the t-gradient
    a t V.T + a.T t V = roll(M, -1) + roll(M, +1), since a column roll
    commutes with the left product. The row penalty contributes
    2*lambda1*(row_sum - 1) broadcast over each row, and the column-wise
    softmax Jacobian maps the t-gradient back to logit space. The rolls are
    slice sums over the workspace, which yield the same values as np.roll.
    Leaves t, M and the unscaled row error in ws for _breakdown. Returns
    ws.g, which the next call with the same workspace overwrites.
    """
    t = _softmax_into(logits, ws)
    m, g, row_err = ws.m, ws.g, ws.row_err
    np.matmul(a, t, m)
    np.add.reduce(t, 1, None, row_err)
    np.subtract(row_err, ws.one, row_err)
    for x, y, out in ws.g_roll:  # g = roll(m, -1, axis=1) + roll(m, 1, axis=1)
        np.add(x, y, out)
    ws.row_scale[()] = 2.0 * lambda1
    np.multiply(row_err, ws.row_scale, ws.row_grad)
    np.add(g, ws.row_grad_col, g)
    # softmax backward, one column at a time (vectorized across columns)
    np.einsum("ij,ij->j", g, t, out=ws.col_dot)
    np.subtract(g, ws.col_dot, g)
    np.multiply(g, t, g)
    return g


def _breakdown(ws: _Workspace, lambda1: float, lambda2: float) -> LossBreakdown:
    """Loss breakdown at the t, M = a @ t and row error that the last
    _gradient call left in ws, in ws's dtype.

    trace(t V t.T) = <t, t_next> and the bilinear term
    <a, t V t.T> = <t_next, M>, where t_next = roll(t, -1) holds column k+1
    of t in column k; the expected length is the bilinear term less the
    lambda2-weighted self-loop term that a = d + lambda2*I adds to it.
    """
    t, t_next, row_err = ws.t, ws.t_next, ws.row_err
    for dst, src in ws.t_roll:  # t_next = roll(t, -1, axis=1)
        dst[...] = src
    row_penalty = float(row_err @ row_err)
    self_loop = float(np.vdot(t, t_next))
    bilinear = float(np.vdot(t_next, ws.m))
    return LossBreakdown(
        row_penalty=row_penalty,
        self_loop=self_loop,
        expected_length=bilinear - lambda2 * self_loop,
        total=lambda1 * row_penalty + bilinear,
    )


def loss_gradient(
    logits: np.ndarray, d: np.ndarray, lambda1: float, lambda2: float
) -> np.ndarray:
    """Exact gradient of total surrogate loss with respect to each logit.

    Computed in float32 for float32 logits and in float64 for any other
    input; the gradient has that dtype. d must be symmetric, as every
    distance matrix here is; the fit's one-product kernel, which this
    calls, relies on it. The loss itself is not evaluated.
    """
    s = _as_logits(logits)
    d = np.asarray(d, dtype=np.float64)
    n = s.shape[0]
    if n < 2:
        raise ValueError(f"a cycle needs at least 2 positions, got n={n}")
    if d.shape != (n, n):
        raise ValueError(f"dimension mismatch: logits {s.shape}, d {d.shape}")
    if not np.array_equal(d, d.T):
        raise ValueError("d must be symmetric")
    ws = _Workspace(n, s.dtype)
    # the gradient's finiteness is checked below, so numpy's overflow and
    # invalid warnings (a huge lambda or distance) stay silent, as in the fit
    with np.errstate(over="ignore", invalid="ignore"):
        a = (d + lambda2 * np.eye(n)).astype(s.dtype, copy=False)
        grad = _gradient(s, a, lambda1, ws)
    if not ws.all_finite(grad):
        raise NumericError("gradient evaluation produced non-finite values")
    return grad


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
