"""Edge elimination and candidate lists: prune a dense heat map to the
top-M entries per row, symmetrize, and derive per-city candidate sets."""

from __future__ import annotations

import numpy as np

HEAT_MODE = "heat"
DISTANCE_MODE = "distance"


def top_m_filter(h: np.ndarray, m: int):
    """Keep the m largest off-diagonal entries of each row, then symmetrize.

    Returns (kept, pruned): `kept` zeroes everything in a row except its m
    largest off-diagonal values (ties broken toward the smaller city index),
    `pruned` = kept + kept.T is the symmetric matrix used for search guidance.
    """
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[0]
    if not 1 <= m <= n - 1:
        raise ValueError(f"m must be in [1, {n - 1}], got {m}")
    masked = h.copy()
    np.fill_diagonal(masked, -np.inf)
    # stable argsort on the negated row = descending values, ties by index
    ranks = np.argsort(-masked, axis=1, kind="stable")[:, :m]
    kept = np.zeros_like(h)
    rows = np.repeat(np.arange(n), m)
    kept[rows, ranks.ravel()] = h[rows, ranks.ravel()]
    np.fill_diagonal(kept, 0.0)
    pruned = kept + kept.T
    return kept, pruned


def edge_set(pruned: np.ndarray) -> set[tuple[int, int]]:
    """Undirected prediction edges: pairs (i, j), i < j, with positive value."""
    pruned = np.asarray(pruned, dtype=np.float64)
    ii, jj = np.nonzero(np.triu(pruned, k=1) > 0)
    return {(int(i), int(j)) for i, j in zip(ii, jj)}


def overlap_coefficient(pred: set[tuple[int, int]], truth: set[tuple[int, int]]) -> float:
    """Fraction of ground-truth edges covered by the prediction set."""
    if not truth:
        raise ValueError("ground-truth edge set must be nonempty")
    return len(pred & truth) / len(truth)


def candidate_lists(matrix: np.ndarray, m: int, mode: str) -> tuple:
    """Build per-city candidate lists from a pruned heat map or a distance
    matrix: a tuple of n read-only int64 arrays, entry i holding city i's
    shortlist of cities the search may add an edge to.

    Heat mode ranks a city's neighbours by descending pruned-heat value and
    keeps only strictly positive entries (lists may then be shorter than m);
    distance mode ranks by ascending distance. Ties always break toward the
    smaller city index. A city never appears in its own list.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if not 1 <= m <= n - 1:
        raise ValueError(f"m must be in [1, {n - 1}], got {m}")
    if mode == HEAT_MODE:
        key = -matrix
    elif mode == DISTANCE_MODE:
        key = matrix.copy()
    else:
        raise ValueError(f"unknown candidate mode {mode!r}")
    # the diagonal sorts after every finite entry, and the stable sort
    # breaks ties toward the smaller index
    np.fill_diagonal(key, np.inf)
    ranks = np.argsort(key, axis=1, kind="stable")[:, :m].astype(np.int64)
    if mode == HEAT_MODE:
        # positive heat is a negative key (never the diagonal's); heat
        # descends along each row, so this keeps its positive prefix
        lists = [idx[key[i, idx] < 0] for i, idx in enumerate(ranks)]
    else:
        lists = list(ranks)
    for arr in lists:
        arr.setflags(write=False)
    return tuple(lists)
