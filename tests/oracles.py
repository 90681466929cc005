"""Test oracles: reference implementations that the tests check the package
against, and the reader of the tour document that only the tests read.

- shift_matrix and loss_total: the heat map as t @ V @ t.T and the loss as
  a function of the logits, on no code path the fit's kernel shares;
- is_permutation_matrix, permutation_to_cycle and
  verify_hamiltonian_heatmap: the theorem that the heat map of an exact
  permutation indicator is one Hamiltonian cycle, made executable;
- parse_tour: reads back the UTSP-TOUR document that instances.format_tour
  writes, with the package's native-document rules;
- reference_pass: the neighbour-list pass as it was before search.py wrote
  its scans out in one loop and skipped the cities it had found clean,
  with a helper call per 2-opt and Or-opt scan and a scan at every pop.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from typing import Optional

import numpy as np

from tspheat.generator import column_softmax, indicator_to_heatmap
from tspheat.instances import TOUR_HEADER, Tour, _native_body, _native_values
from tspheat.search import MIN_GAIN, OR_OPT_SEGMENT, _move_segment, _reverse

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


# ---------------------------------------------------------------------------
# The reference neighbour-list pass
# ---------------------------------------------------------------------------

def two_opt_move(tour: list, pos: list, rows: list, near: list, a: int,
                 n: int) -> Optional[tuple]:
    """Apply the first improving list-restricted 2-opt move at city a of the
    n-city tour and return its gain and the cities whose tour edges it
    changed, or None when there is none.

    a looks in each direction, successor first: with b its tour neighbour
    that way, it scans its list up to the first c with d[a, c] >= d[a, b],
    and with e c's neighbour the same way (c != b, e != a) applies the first
    move whose d[a,c] + d[b,e] - d[a,b] - d[c,e] is below -MIN_GAIN, so
    that (a, c) and (b, e) replace (a, b) and (c, e).
    """
    ra = rows[a]
    i = pos[a]
    for step in (1, -1):
        b = tour[(i + step) % n]
        rb = rows[b]
        dab = ra[b]
        for c, _, dac in near:
            if dac >= dab:
                break
            j = pos[c]
            e = tour[(j + step) % n]
            if c == b or e == a:
                continue
            delta = dac + rb[e] - dab - rows[c][e]
            if delta < -MIN_GAIN:
                if step == 1:
                    _reverse(tour, pos, i + 1, j)  # b .. c
                else:
                    _reverse(tour, pos, i, j - 1)  # a .. e
                return -delta, (a, b, c, e)
    return None


def or_opt_move(tour: list, pos: list, rows: list, near: list, a: int, n: int,
                longest: int) -> Optional[tuple]:
    """Apply the first improving list-restricted Or-opt move at city a of the
    n-city tour and return its gain and the cities whose tour edges it
    changed, or None when there is none.

    The segment a .. s holds the L = 1 .. longest cities that start at a in
    tour order (reference_pass passes min(OR_OPT_SEGMENT, n - 3)), with p
    and q the cities around it.
    Taking it out gains g = d[p,a] + d[s,q] - d[p,q]; when g > MIN_GAIN,
    a scans its list up to the first c with d[a, c] >= g, skips the cities
    of the segment and, for e the successor and then the predecessor of c
    (not in the segment), applies the first insertion whose
    g - (d[a,c] + d[s,e] - d[c,e]) exceeds MIN_GAIN: the segment goes
    between c and e with a next to c (_move_segment), so a move costs the
    span it moves, not the tour.
    """
    ra = rows[a]
    i = pos[a]
    p = tour[i - 1]
    rp = rows[p]
    for size in range(1, longest + 1):
        s = tour[(i + size - 1) % n]
        q = tour[(i + size) % n]
        rs = rows[s]
        g = ra[p] + rs[q] - rp[q]
        if g <= MIN_GAIN:
            continue
        for c, _, dac in near:
            if dac >= g:
                break
            j = pos[c]
            if (j - i) % n < size:
                continue
            rc = rows[c]
            for e in (tour[(j + 1) % n], tour[j - 1]):
                if (pos[e] - i) % n < size:
                    continue
                gain = g - (dac + rs[e] - rc[e])
                if gain > MIN_GAIN:
                    _move_segment(tour, pos, p, a, s, q, c, e)
                    return gain, (p, q, a, s, c, e)
    return None


def reference_pass(rows: list, nbrs: list, tour: list, pos: list,
                   seeds: Optional[tuple] = None) -> tuple[int, float]:
    """Neighbour-list 2-opt and Or-opt driven by a queue of cities (Bentley
    1992's don't-look bits) on the cycle held in tour (pos: city -> index,
    kept current); returns the number of Or-opt moves applied and the length
    they and the 2-opt moves took off, the sum of their gains.

    rows is d.tolist(); nbrs[a] is a's _candidate_table row of its nearest
    cities, in ascending distance. The queue starts with every city in tour
    order, or with the cities of seeds alone (a kick's repair, _kick). A
    popped city a tries two_opt_move and, when that finds nothing,
    or_opt_move; after a move the cities whose edges changed are queued
    again and a is looked at again at once. A move elsewhere can open one at
    a city that is not queued (a reversal turns the cities it spans round),
    so when the queue runs dry after any move, every city the pass has
    queued is queued again: every city, or with seeds every city queued so
    far, so a repair costs the cities its moves reach, not the tour. The
    pass ends after a sweep of those cities that applied no move, with no
    list-restricted move left at any of them. Every move shortens the tour,
    so the pass ends; moves the short lists cannot see are left to the
    k-opt expansions.
    """
    n = len(tour)
    if seeds is None:
        queue, queued = deque(tour), [True] * n
    else:
        # keyed by every city queued so far, the repair's sweep
        queued = defaultdict(bool, dict.fromkeys(seeds, True))
        queue = deque(queued)
    longest = min(OR_OPT_SEGMENT, n - 3)
    or_moves = 0
    gain = 0.0
    moves = 0  # since the queue last held every city it sweeps
    while queue:
        a = queue.popleft()
        queued[a] = False
        near = nbrs[a]
        while True:
            moved = two_opt_move(tour, pos, rows, near, a, n)
            if moved is None:
                moved = or_opt_move(tour, pos, rows, near, a, n, longest)
                if moved is None:
                    break
                or_moves += 1
            moves += 1
            gain += moved[0]
            for x in moved[1]:
                if not queued[x]:
                    queued[x] = True
                    queue.append(x)
        if not queue and moves:
            moves = 0
            if seeds is None:
                queue.extend(tour)
                queued = [True] * n
            else:
                queue.extend(queued)
                queued.update(dict.fromkeys(queued, True))
    return or_moves, gain
