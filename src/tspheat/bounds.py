"""Lower bounds on the length of an optimal tour.

one_tree_bound is the 1-tree bound of Held & Karp (Oper. Res. 18, 1970),
which LKH also computes (Helsgaun, EJOR 126(1), 2000). A 1-tree is a
spanning tree on cities 1 .. n-1 plus two edges at city 0; every tour is
one, so a minimum 1-tree is no longer than an optimal tour. That stays true
under edge weights d[i, j] + pi[i] + pi[j] less 2 * sum(pi) for any node
penalties pi, since every tour meets each city twice. Subgradient ascent on
pi raises the bound; when the minimum 1-tree is a tour, it is optimal.
"""

from __future__ import annotations

import math

import numpy as np

# most 1-trees an ascent builds
ASCENT_ITERATIONS = 35
# iterations without a new best bound after which the step size is halved
ASCENT_PERIOD = 10


def _one_tree(w: np.ndarray) -> tuple[float, np.ndarray]:
    """Weight and city degrees of a minimum 1-tree under the symmetric
    weights w (the diagonal is ignored).

    The tree on cities 1 .. n-1 comes from Prim's algorithm, started at city
    1, which here only fixes the order the cities join in: each city's tree
    edge then goes to the cheapest city that joined before it, found for all
    cities at once. City 0 adds its two cheapest edges.
    """
    n = w.shape[0]
    ends = np.argsort(w[0, 1:], kind="stable")[:2] + 1
    cut = w.copy()  # Prim's scratch: the column of a city in the tree is +inf
    cut[:, :2] = np.inf
    key = cut[1].copy()
    joined = [1]
    for _ in range(n - 2):
        v = int(key.argmin())
        joined.append(v)
        cut[:, v] = np.inf
        key[v] = np.inf
        np.minimum(key, cut[v], out=key)
    rank = np.full(n, n)  # city 0 ranks last, so it is nobody's parent
    rank[joined] = np.arange(n - 1)
    child = np.array(joined[1:])
    parent = np.where(rank < rank[:, None], w, np.inf).argmin(axis=1)[child]
    weight = float(w[child, parent].sum() + w[0, ends].sum())
    deg = np.bincount(np.concatenate((child, parent, ends)), minlength=n)
    deg[0] = 2
    return weight, deg


def one_tree_bound(d: np.ndarray, upper: float) -> float:
    """A lower bound on the optimal tour length under the symmetric distance
    matrix d (n >= 3), by subgradient ascent on node penalties.

    upper is the length of a known tour. Each step moves pi along the
    subgradient deg - 2 with Polyak's step, lam * (upper - L) / |deg - 2|^2,
    where L is the current 1-tree bound; lam starts at 2 and is halved after
    ASCENT_PERIOD iterations without a new best L. The ascent stops once the
    best L reaches upper (the tour is proven optimal), once the 1-tree is a
    tour (every degree 2, so L is the optimum), or after ASCENT_ITERATIONS
    1-trees. Returns the best L seen: any pi gives a valid bound, so the
    ascent's settings decide how tight the bound is, never whether it holds.
    The step grows with upper - L, so a loose upper (a poor tour) makes the
    steps overshoot and the ascent can end far below the optimum; the bound
    is only tight when aimed at a good tour, such as a search's best.
    Nothing here is absolute, so d scaled by a power of two gives the bound
    scaled by the same power.
    """
    n = d.shape[0]
    if d.shape != (n, n) or n < 3:
        raise ValueError(f"expected a square distance matrix of 3 or more cities, got {d.shape}")
    pi = np.zeros(n)
    best = -math.inf
    lam = 2.0
    stalls = 0
    for _ in range(ASCENT_ITERATIONS):
        w = d + pi[:, None]
        w += pi
        weight, deg = _one_tree(w)
        bound = weight - 2.0 * float(pi.sum())
        if bound > best:
            best = bound
            stalls = 0
        else:
            stalls += 1
            if stalls == ASCENT_PERIOD:
                lam /= 2.0
                stalls = 0
        g = deg - 2
        norm2 = int(g @ g)
        if best >= upper or norm2 == 0:
            break
        pi += (lam * (upper - bound) / norm2) * g
    return best
