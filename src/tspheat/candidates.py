"""Edge elimination and candidate lists: prune a dense heat map to the
top-M entries per row, symmetrize, and derive per-city candidate sets."""

from __future__ import annotations

import numpy as np

HEAT_MODE = "heat"
DISTANCE_MODE = "distance"


def check_list_size(n: int, m: int) -> None:
    """Raise ValueError unless an n-city row can give m candidates."""
    if not 1 <= m <= n - 1:
        raise ValueError(f"m must be in [1, {n - 1}], got {m}")


# rows of fewer keys than this are argsorted whole (_rank_rows): below it
# one stable argsort costs less than the numpy calls of a selection (at
# m = 8, 10 against 58 us per call at n = 16, 50 against 84 us at n = 50,
# 122 against 77 us at n = 64)
SELECT_MIN_KEYS = 64


def _rank_rows(key: np.ndarray, m: int) -> np.ndarray:
    """The first m columns of each row of key in ascending order, ties toward
    the smaller index, as an (n, m) int64 array. key must be a fresh array:
    its diagonal is set to +inf, so a city sorts after its row's finite keys.

    These are the first m columns of a stable argsort of each whole row (NaN
    keys last). From SELECT_MIN_KEYS keys a row, they are found without
    sorting whole rows: np.argpartition selects each row's m smallest keys,
    which are sorted by column and then stably by key. That set is the
    argsort's own unless the row's m-th key is NaN or ties with a key left
    out; such a row is argsorted in full."""
    n = key.shape[0]
    check_list_size(n, m)
    np.fill_diagonal(key, np.inf)
    if n < SELECT_MIN_KEYS:
        return np.argsort(key, axis=1, kind="stable")[:, :m].astype(np.int64)
    cols = np.sort(np.argpartition(key, m - 1, axis=1)[:, :m], axis=1)
    vals = np.take_along_axis(key, cols, axis=1)
    ranks = np.take_along_axis(cols, np.argsort(vals, axis=1, kind="stable"), axis=1)
    cut = vals.max(axis=1, keepdims=True)  # NaN when a NaN key was selected
    full = np.isnan(cut[:, 0]) | (np.count_nonzero(key <= cut, axis=1) > m)
    if full.any():
        ranks[full] = np.argsort(key[full], axis=1, kind="stable")[:, :m]
    return ranks.astype(np.int64)


def top_m_filter(h: np.ndarray, m: int):
    """Keep the m largest off-diagonal entries of each row, then symmetrize.

    Returns (kept, pruned): `kept` zeroes everything in a row except its m
    largest off-diagonal values (ties broken toward the smaller city index),
    `pruned` = kept + kept.T is the symmetric matrix used for search guidance.
    """
    h = np.asarray(h, dtype=np.float64)
    ranks = _rank_rows(-h, m)
    rows = np.arange(h.shape[0])[:, None]
    kept = np.zeros_like(h)
    kept[rows, ranks] = h[rows, ranks]
    # a row with NaN or -inf heat can rank its own city within m
    np.fill_diagonal(kept, 0.0)
    with np.errstate(over="ignore"):  # two entries past half the largest float sum to inf
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

    Both modes are one _rank_rows call. Heat mode ranks a row by descending
    pruned-heat value, as top_m_filter does: the key is -heat where heat > 0
    and +inf elsewhere, and each list is cut at its row's count of strictly
    positive off-diagonal entries (lists may then be shorter than m).
    Distance mode ranks by ascending distance. Ties always break toward the
    smaller city index. A city never appears in its own list. A search run
    ranks by distance only (search._Frame.build); no run builds heat lists.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if mode == HEAT_MODE:
        key = np.where(matrix > 0, -matrix, np.inf)
    elif mode == DISTANCE_MODE:
        key = matrix.copy()
    else:
        raise ValueError(f"unknown candidate mode {mode!r}")
    ranks = _rank_rows(key, m)
    ranks.setflags(write=False)
    if mode == DISTANCE_MODE:
        return tuple(ranks)
    # counted after _rank_rows keyed the diagonal +inf, so a positive
    # diagonal entry is not counted
    counts = np.minimum(np.count_nonzero(key < np.inf, axis=1), m).tolist()
    return tuple(row[:c] for row, c in zip(ranks, counts))
