"""Soft indicator matrices, the cyclic heat-map transformation, and the
surrogate loss with its analytic gradient.

The central object is a column-stochastic matrix ``t`` whose column k is a
probability distribution over which city occupies position k of the cycle.
The heat map ``h = t @ shift @ t.T`` (shift = the cyclic permutation operator)
scores each directed edge by the probability that consecutive positions are
occupied by its endpoints. When ``t`` is an exact permutation matrix, ``h``
is the adjacency matrix of a single Hamiltonian cycle; the test oracles
(tests/oracles.py) make that statement executable and keep an independent
loss for the gradient check. The heat-map file format (UTSP-HEATMAP) lives
in instances.py with the other native documents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
