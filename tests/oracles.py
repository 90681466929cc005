"""Test oracles: reference implementations that the tests check the package
against, and the reader of the tour document that only the tests read.

- shift_matrix and loss_total: the heat map as t @ V @ t.T and the loss as
  a function of the logits, on no code path the fit's kernel shares;
- is_permutation_matrix, permutation_to_cycle and
  verify_hamiltonian_heatmap: the theorem that the heat map of an exact
  permutation indicator is one Hamiltonian cycle, made executable;
- parse_tour: reads back the UTSP-TOUR document that instances.format_tour
  writes, with the package's native-document rules.
"""

from __future__ import annotations

import math

import numpy as np

from tspheat.generator import column_softmax, indicator_to_heatmap
from tspheat.instances import TOUR_HEADER, Tour, _native_body, _native_values

# how far from 0 or 1 the verification helpers still count an entry as 0 or 1
_UNIT_TOL = 1e-9


def shift_matrix(n: int) -> np.ndarray:
    """The n x n cyclic shift operator: ones on the superdiagonal and corner."""
    v = np.zeros((n, n))
    v[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    return v


def loss_total(logits: np.ndarray, d: np.ndarray, lambda1: float, lambda2: float) -> float:
    """Total surrogate loss as a function of raw logits (finite-difference
    oracle target; shares no code path with loss_gradient's chain rule)."""
    t = column_softmax(logits)
    h = indicator_to_heatmap(t)
    n = t.shape[0]
    row_penalty = ((t.sum(axis=1) - 1.0) ** 2).sum()
    return float(lambda1 * row_penalty + ((d + lambda2 * np.eye(n)) * h).sum())


# ---------------------------------------------------------------------------
# Exact-permutation verification
# ---------------------------------------------------------------------------

def is_permutation_matrix(t: np.ndarray) -> bool:
    """True when t is within _UNIT_TOL of a 0/1 matrix with one 1 per row/column."""
    t = np.asarray(t, dtype=np.float64)
    near_one = np.abs(t - 1.0) <= _UNIT_TOL
    near_zero = np.abs(t) <= _UNIT_TOL
    if not np.all(near_one | near_zero):
        return False
    ones = near_one.astype(np.int64)
    return bool((ones.sum(axis=0) == 1).all() and (ones.sum(axis=1) == 1).all())


def permutation_to_cycle(t: np.ndarray) -> np.ndarray:
    """Extract the city visiting order encoded by a permutation matrix.

    Entry k of the result is the city occupying cycle position k (the row
    index of the unit entry in column k). The heat map of t contains exactly
    the directed edges result[k] -> result[k+1] (cyclically).
    """
    t = np.asarray(t, dtype=np.float64)
    if not is_permutation_matrix(t):
        raise ValueError("matrix is not a permutation matrix within tolerance")
    return np.argmax(t, axis=0)


def verify_hamiltonian_heatmap(h: np.ndarray):
    """Check whether a heat map is exactly one Hamiltonian cycle.

    Returns (True, cycle) when every row and column holds exactly one unit
    entry, the diagonal is zero, and following successors from city 0 returns
    to city 0 after exactly n steps; (False, None) otherwise. The returned
    cycle lists cities in visiting order starting from city 0.
    """
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[0]
    if (h.shape != (n, n) or not is_permutation_matrix(h)
            or not np.all(np.abs(np.diagonal(h)) <= _UNIT_TOL)):
        return False, None
    succ = np.argmax(np.abs(h - 1.0) <= _UNIT_TOL, axis=1)
    cycle = np.empty(n, dtype=np.int64)
    city = 0
    for k in range(n):
        cycle[k] = city
        city = int(succ[city])
        if city == 0 and k != n - 1:
            return False, None  # premature return: disjoint sub-cycles
    if city != 0:
        return False, None
    return True, cycle


# ---------------------------------------------------------------------------
# The tour document
# ---------------------------------------------------------------------------

def parse_tour(text: str) -> tuple[Tour, float]:
    n, rows = _native_body(text, TOUR_HEADER)
    if len(rows) < 2:
        raise ValueError(f"{TOUR_HEADER} document has no {('order', 'length')[len(rows)]} line")
    if len(rows) > 2:
        raise ValueError(f"{TOUR_HEADER} document has a line after its length line")
    order = _native_values(rows[0], int, "order line")
    if len(order) != n:
        raise ValueError(f"expected {n} cities in the order line, got {len(order)}")
    if max(order) >= n:  # before Tour.from_order makes an int64 array of it
        raise ValueError(f"order line: city {max(order)} outside 0..{n - 1}")
    (length,) = _native_values(rows[1], float, "length line", 1)
    if not 0.0 <= length < math.inf:
        raise ValueError(f"tour length must be finite and >= 0, got {length!r}")
    return Tour.from_order(order), length
