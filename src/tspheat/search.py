"""Heat-map-guided best-first k-opt local search.

A search run repeats rounds of: random tour, 2-opt to a fixpoint, then
best-first node expansion where each expansion tries a bounded number of
sequential k-opt constructions and moves to the shortest improving result.
Constructions grow a Hamiltonian path with one fixed endpoint; the next city
is sampled from the moving endpoint's candidate list with probability
proportional to its pruned-heat value, floored so that zero-heat candidates
stay reachable. A candidate is feasible only while the move keeps a positive
running gain (the gain criterion of Lin & Kernighan 1973), so most attempts
end early at a dead end rather than at the removed-edge cap. Edges of applied
improving actions get their heat raised, and the raised heat persists across
rounds.

An attempt pays only for the steps it takes. An expansion draws all its
anchors at once and memoises each anchor's first step, which depends only
on the anchor, the base tour and the candidate table. Candidate rows are
kept in ascending distance order, so a row scan stops at the first
candidate the gain rule rejects. The table is built once per round and
patched in place on each heat update.

Everything here is single-threaded per run: a run owns its mutable copy of
the pruned heat map and its statistics. Parallelism belongs across runs.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import islice
from operator import itemgetter
from typing import Optional

import numpy as np

from .candidates import DISTANCE_MODE, HEAT_MODE, candidate_lists
from .instances import Instance, Tour, _native_body, distance_matrix, order_length

TOUR_HEADER = "UTSP-TOUR v1"

# smallest accepted closure gain; guards against float-noise "improvements"
MIN_GAIN = 1e-10
# sampling-weight floor so zero-heat candidates stay reachable
WEIGHT_FLOOR = 1e-12
# threshold for an improving 2-opt move
TWO_OPT_EPS = 1e-10
# A 2-opt row with at most SCALAR_ROW partners is tried wholly with Python
# floats; a longer row tries its first SCALAR_SPAN partners that way and
# evaluates the rest with numpy. A numpy evaluation costs about 7-12 us of
# fixed call overhead against about 0.1 us per pair in Python (2-core VM), and
# a row's first improving partner is usually among its first few (about 6
# pairs per row are evaluated at n=16, 32 at n=100). Timed at n = 16 to 1000,
# a span of 16 beat 8, 24 and 32; of row limits 16, 48, 64, 80, 112 and 144,
# 80 gave the best times over n = 100 to 1000 taken together.
SCALAR_SPAN = 16
SCALAR_ROW = 80


@dataclass(frozen=True)
class SearchParams:
    """Knobs for one search run.

    k_range is the half-open integer interval the per-round cap on removed
    edges is drawn from; a fixed cap K is expressed as (K, K + 1).
    expand_budget is the number of construction attempts per node expansion.
    At least one of time_budget (seconds) / max_rounds must be set; rounds
    give bit-reproducible runs, wall-clock budgets do not.
    """

    beta: float = 10.0
    m: int = 8
    k_range: tuple[int, int] = (10, 11)
    expand_budget: int = 60
    time_budget: Optional[float] = None
    max_rounds: Optional[int] = None

    def __post_init__(self):
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")
        if self.m < 1:
            raise ValueError("candidate list size m must be >= 1")
        k_lo, k_hi = self.k_range
        if k_lo < 2:
            raise ValueError(f"k_range lower bound must be >= 2, got {k_lo}")
        if k_hi <= k_lo:
            raise ValueError(f"k_range must be a nonempty interval, got {self.k_range}")
        if self.expand_budget < 1:
            raise ValueError("expand_budget must be >= 1")
        if self.time_budget is not None and not 0 < self.time_budget < math.inf:
            raise ValueError(f"time_budget must be finite and > 0, got {self.time_budget!r}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1 when set")

    def with_budget(self, time_budget=None, max_rounds=None) -> "SearchParams":
        return replace(self, time_budget=time_budget, max_rounds=max_rounds)


# Named parameter sets by instance-size tier (candidate-list size, heat
# update scale, removed-edge cap interval and per-node attempt budget).
PRESETS: dict[str, SearchParams] = {
    "tsp20": SearchParams(beta=10.0, m=8, k_range=(10, 11), expand_budget=60),
    "tsp50": SearchParams(beta=10.0, m=8, k_range=(5, 15), expand_budget=150),
    "tsp100": SearchParams(beta=10.0, m=8, k_range=(5, 35), expand_budget=300),
    "tsp200": SearchParams(beta=10.0, m=8, k_range=(10, 90), expand_budget=600),
    "tsp500": SearchParams(beta=50.0, m=5, k_range=(30, 130), expand_budget=1000),
    "tsp1000": SearchParams(beta=50.0, m=5, k_range=(10, 110), expand_budget=2000),
}


@dataclass
class SearchStats:
    """Counters accumulated over a run.

    total_expansions counts every construction attempt, completed or
    discarded. Each attempt ends once: with an improving action (improving),
    at a dead end (no feasible candidate; dead_ends) or at the removed-edge
    cap (cap_hits), so the three sum to total_expansions. two_opt_seconds
    is the wall-clock time spent in each round's 2-opt; it is a timing, so
    no determinism check reads it.
    """

    total_expansions: int = 0
    improving: int = 0
    dead_ends: int = 0
    cap_hits: int = 0
    rounds: int = 0
    two_opt_seconds: float = 0.0
    best_length: float = math.inf
    round_best_lengths: list = field(default_factory=list)


@dataclass(frozen=True)
class KOptAction:
    """A completed improving k-opt rewiring.

    sequence alternates (u_1, v_1, u_2, v_2, ..., u_k, v_k, u_1): edges
    (u_i, v_i) leave the tour, edges (v_i, u_{i+1}) enter it, and the final
    entry closes the cycle back at u_1. gain is the length decrease; new_order
    is the resulting tour order.
    """

    sequence: tuple
    removed: tuple
    added: tuple
    gain: float
    new_order: np.ndarray

    @property
    def k(self) -> int:
        return len(self.removed)


def _ekey(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def random_tour(n: int, seed) -> Tour:
    """Uniformly random tour from a seeded shuffle; seed may be an int or a
    numpy Generator."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return Tour.from_order(rng.permutation(n))


# ---------------------------------------------------------------------------
# 2-opt
# ---------------------------------------------------------------------------

def _two_opt_order(d: np.ndarray, rows: list, order: np.ndarray) -> np.ndarray:
    """First-improvement 2-opt sweeps until no move improves; mutates order.

    rows is d.tolist(), converted once by the caller so that a search run
    pays for it once, not in every round.

    Row i pairs edge (order[i], order[i+1]) with each later edge (order[j],
    order[j+1]) in turn and applies the first pair whose delta
    d[a,c] + d[b,e] - d[a,b] - d[c,e] is below -TWO_OPT_EPS by reversing
    order[i+1..j]; the row is then scanned again. A row of at most
    SCALAR_ROW partners is tried with Python floats; a longer one tries its
    first SCALAR_SPAN partners that way and the rest as one numpy
    expression. Both evaluate the same sum in the same order, so the moves
    do not depend on where a row switches. The tour list carries a copy of
    position 0 at its end as the successor of the last position; a reversal
    never moves position 0, so the copy stays valid.
    """
    n = order.shape[0]
    tour = order.tolist()
    tour.append(tour[0])
    # index mirror of tour for the numpy part, kept only when some row is
    # long enough to reach it (rows 0 and 1 have the most partners, n - 3);
    # updating it on every move made an n=16 call about 1.5x slower
    idx = np.array(tour, dtype=np.int64) if n - 3 > SCALAR_ROW else None
    improved = True
    while improved:
        improved = False
        i = 0
        while i < n - 1:
            a = tour[i]
            b = tour[i + 1]
            hi = n if i > 0 else n - 1  # skip the wrap pair (0, n-1)
            ra = rows[a]
            rb = rows[b]
            dab = ra[b]
            # partners i + 2 .. mid - 1 are tried in Python, mid .. hi - 1 in numpy
            mid = hi if hi - i - 2 <= SCALAR_ROW else i + 2 + SCALAR_SPAN
            hit = 0  # no partner sits at position 0
            for j in range(i + 2, mid):
                c = tour[j]
                e = tour[j + 1]
                if ra[c] + rb[e] - dab - rows[c][e] < -TWO_OPT_EPS:
                    hit = j
                    break
            else:
                if mid < hi:
                    c = idx[mid:hi]
                    e = idx[mid + 1:hi + 1]
                    delta = d[a].take(c)
                    delta += d[b].take(e)
                    delta -= dab
                    delta -= d[c, e]
                    (far,) = (delta < -TWO_OPT_EPS).nonzero()
                    if far.size:
                        hit = mid + int(far[0])
            if hit:
                tour[i + 1:hit + 1] = tour[hit:i:-1]
                if idx is not None:
                    idx[i + 1:hit + 1] = idx[i + 1:hit + 1][::-1]
                improved = True
            else:
                i += 1
    order[:] = tour[:n]
    return order


def two_opt_improve(d: np.ndarray, tour: Tour) -> Tour:
    """Run 2-opt from the given tour until no improving exchange exists."""
    if d.shape != (tour.n, tour.n):
        raise ValueError(
            f"distance matrix shape {d.shape} does not match a tour of {tour.n} cities"
        )
    return Tour.from_order(_two_opt_order(d, d.tolist(), tour.order.copy()))


# ---------------------------------------------------------------------------
# k-opt construction
# ---------------------------------------------------------------------------

def _draw(cums: list, rand) -> int:
    """Index of the drawn entry, given the running weight sums cums: the
    first i with cums[i] > r, r uniform on [0, total), so each entry is drawn
    with probability proportional to its weight. Round-off that puts r at or
    past the total falls back to the last entry."""
    i = bisect_right(cums, rand() * cums[-1])
    return i if i < len(cums) else len(cums) - 1


def _candidate_table(cand: tuple, d: np.ndarray, pruned: np.ndarray) -> list:
    """Per city u, a list of (v, edge key, pruned[u, v], d[u, v]) for each
    candidate v, as plain Python values, in ascending distance order. The
    sort is stable, so a distance-ranked list keeps its order. O(n * m log m);
    run_search builds it once per round and _patch_table keeps its heat
    current after each heat update."""
    lens = [len(cl) for cl in cand]
    src = np.repeat(np.arange(len(lens)), lens)
    dst = np.concatenate(cand)
    entries = iter([
        (v, (u, v) if u < v else (v, u), h, w)
        for u, v, h, w in zip(src.tolist(), dst.tolist(),
                              pruned[src, dst].tolist(), d[src, dst].tolist())
    ])
    return [sorted(islice(entries, k), key=itemgetter(3)) for k in lens]


def _patch_table(table: list, edges, pruned: np.ndarray) -> None:
    """Rewrite the heat of each edge's entries, in both directions, from
    pruned. update_heatmap raises the heat of an action's added edges only,
    so patching those keeps the table equal to a fresh _candidate_table."""
    for a, b in edges:
        for u, v in ((a, b), (b, a)):
            row = table[u]
            for i, (c, key, _, w) in enumerate(row):
                if c == v:
                    row[i] = (c, key, pruned.item(u, v), w)
                    break


def _positions(order: list) -> list:
    """pos[c] = the index of city c in order."""
    pos = [0] * len(order)
    for i, c in enumerate(order):
        pos[c] = i
    return pos


def _feasible(row: list, gain: float, u1: int, neighbor: int, removed_set,
              added_set, added_ends, path) -> tuple:
    """The feasible entries of the moving endpoint's candidate row and their
    running weight sums, for _draw.

    A candidate c is feasible only while the running gain stays positive,
    gain - d(v_i, c) > MIN_GAIN (the Lin-Kernighan gain criterion). The row
    ascends in distance, so the first candidate that fails the test ends the
    scan. Other infeasible cities (closing anchor, current path neighbour,
    re-adds of removed edges, forced removal of added edges) are skipped.
    Only an endpoint of an added edge can have an added edge toward its path
    successor, so only those candidates pay for a position lookup in path.
    Each feasible candidate weighs max(pruned heat, WEIGHT_FLOOR).
    """
    feas = []
    cums = []
    total = 0.0
    for entry in row:
        c, key, heat, added_len = entry
        if gain - added_len <= MIN_GAIN:
            break
        if c == u1 or c == neighbor or key in removed_set:
            continue
        if c in added_ends:
            nxt = path[path.index(c) + 1]
            if ((c, nxt) if c < nxt else (nxt, c)) in added_set:
                continue
        total += WEIGHT_FLOOR if heat < WEIGHT_FLOOR else heat
        feas.append(entry)
        cums.append(total)
    return feas, cums


def _construct(
    d: np.ndarray,
    base: list,
    pos: list,
    table: list,
    first: list,
    u1: int,
    stats: SearchStats,
    k_cap: int,
    rand,
) -> Optional[KOptAction]:
    """One sequential construction attempt from anchor u1 on the base tour
    order; returns an improving action or None (discard).

    The state is a Hamiltonian path, a list with fixed endpoint path[0] = u_1
    and moving endpoint path[-1], which starts at u_1's tour successor v_1.
    Adding an edge from the moving endpoint to an interior city forces
    removal of that city's edge toward the moving side (the only choice that
    keeps a Hamiltonian path), implemented as a suffix reversal. Each step
    draws the next city from _feasible's entries with _draw (rand is a
    uniform [0, 1) source). The first step depends only on u_1, the base
    tour and the table, so its feasible entries are memoised in first[u_1]
    (pos holds each city's index in base); an anchor with none is a dead end
    read from the memo, and the path is built only once a first city is
    drawn. k_cap (>= 2) caps the removed edges. Under the gain rule most
    attempts end at a dead end (no feasible candidate) long before the cap;
    each attempt adds one to exactly one of stats.improving, stats.dead_ends
    and stats.cap_hits.
    """
    d_at = d.item
    n = len(base)
    i1 = pos[u1]
    v1 = base[i1 + 1 - n]
    step = first[u1]
    if step is None:
        # the moving endpoint is v1, its path neighbour v1's tour successor
        step = first[u1] = _feasible(table[v1], d_at(u1, v1), u1, base[i1 + 2 - n],
                                     {_ekey(u1, v1)}, (), (), None)
    feas, cums = step
    if not feas:
        stats.dead_ends += 1
        return None
    seq = [u1, v1]
    removed_set = {_ekey(u1, v1)}
    added_set = set()
    added_ends = set()
    gain = d_at(u1, v1)  # running sum(removed) - sum(added)
    vi = v1
    u_next, key, _, added_len = feas[_draw(cums, rand)]
    # path = u1 followed by the rest of the cycle walked backward, so
    # path[t] = base[(i1 - t) % n]
    path = base[i1::-1] + base[:i1:-1]
    j = (i1 - pos[u_next]) % n
    k = 1
    while True:
        v_next = path[j + 1]
        added_set.add(key)
        added_ends.add(vi)
        added_ends.add(u_next)
        removed_set.add((u_next, v_next) if u_next < v_next else (v_next, u_next))
        gain += d_at(u_next, v_next) - added_len
        seq.append(u_next)
        seq.append(v_next)
        # rewire: reverse the suffix after u_next
        path[j + 1:] = path[:j:-1]
        k += 1
        vi = v_next
        close_gain = gain - d_at(vi, u1)
        # a closure that would re-add the anchor edge (only possible when the
        # moving endpoint returns to v_1) is degenerate: the same rewiring is
        # a shorter chain anchored elsewhere, so it is not accepted here
        if close_gain > MIN_GAIN and vi != v1:
            seq.append(u1)
            stats.improving += 1
            return KOptAction(
                sequence=tuple(seq),
                removed=tuple(_ekey(a, b) for a, b in zip(seq[0::2], seq[1::2])),
                added=tuple(_ekey(a, b) for a, b in zip(seq[1::2], seq[2::2])),
                gain=close_gain,
                new_order=np.array(path, dtype=np.int64),
            )
        if k >= k_cap:
            stats.cap_hits += 1
            return None
        feas, cums = _feasible(table[vi], gain, u1, path[-2], removed_set,
                               added_set, added_ends, path)
        if not feas:
            stats.dead_ends += 1
            return None
        u_next, key, _, added_len = feas[_draw(cums, rand)]
        j = path.index(u_next)


def _expand(
    d: np.ndarray,
    order: np.ndarray,
    table: list,
    stats: SearchStats,
    params: SearchParams,
    k_cap: int,
    rng: np.random.Generator,
    deadline: Optional[float],
) -> Optional[KOptAction]:
    """Try up to expand_budget constructions, keep the largest-gain action.

    All anchors are drawn at once, each uniform and independent, and the
    attempts share one first-step memo, since the base tour and the table
    do not change during an expansion."""
    base = order.tolist()
    n = len(base)
    pos = _positions(base)
    first = [None] * n
    rand = rng.random
    best: Optional[KOptAction] = None
    for u1 in rng.integers(n, size=params.expand_budget).tolist():
        if deadline is not None and time.perf_counter() >= deadline:
            break
        stats.total_expansions += 1
        action = _construct(d, base, pos, table, first, u1, stats, k_cap, rand)
        if action is not None and (best is None or action.gain > best.gain):
            best = action
    return best


def expand_node(
    d: np.ndarray,
    tour: Tour,
    cand: tuple,
    pruned: np.ndarray,
    stats: SearchStats,
    params: SearchParams,
    rng: np.random.Generator,
    k_cap: Optional[int] = None,
):
    """Best-first expansion of one search node.

    Runs up to params.expand_budget construction attempts and returns
    (improved Tour, applied KOptAction) for the shortest completed candidate,
    or None when no attempt improved the tour. k_cap caps the removed edges
    of every attempt, is drawn from params.k_range when not given, and must
    be >= 2, as in SearchParams. At expand_budget=1 this is a single attempt
    from one uniformly drawn anchor.
    """
    if k_cap is None:
        k_cap = int(rng.integers(params.k_range[0], params.k_range[1]))
    elif k_cap < 2:
        raise ValueError(f"k_cap must be >= 2, got {k_cap}")
    best = _expand(d, tour.order, _candidate_table(cand, d, pruned), stats, params, k_cap,
                   rng, deadline=None)
    if best is None:
        return None
    return Tour.from_order(best.new_order), best


def update_heatmap(
    pruned: np.ndarray,
    action: KOptAction,
    length_old: float,
    length_new: float,
    beta: float,
) -> None:
    """Raise the heat of the action's added edges after an improving move.

    Each added edge (including the closing edge) gains
    beta * (exp((length_old - length_new) / length_old) - 1), applied to both
    (i, j) and (j, i) so the matrix stays symmetric. No-op unless
    length_new < length_old.
    """
    if length_new >= length_old or beta == 0.0:
        return
    inc = beta * (math.exp((length_old - length_new) / length_old) - 1.0)
    for a, b in action.added:
        pruned[a, b] += inc
        pruned[b, a] += inc


def run_search(
    inst: Instance,
    pruned: np.ndarray,
    params: SearchParams,
    seed: int,
) -> tuple[Tour, SearchStats]:
    """Full multi-round search; returns (best Tour, SearchStats).

    Each round draws a fresh removed-edge cap from k_range and a candidate
    construction mode (updated pruned heat vs raw distance; the distance
    lists never change, so they are built once, on the first distance
    round), builds the round's candidate table from its lists, builds a
    random tour, 2-opts it, then expands best-first until a whole expansion
    yields no improvement. After each heat update only the table entries of
    the added edges are rewritten. Heat updates survive into later rounds.
    The run stops at the wall-clock deadline or after max_rounds, whichever
    comes first. Round 1's random tour and 2-opt always run, so even a
    deadline that has already passed returns a tour; its expansions stop at
    the deadline.
    """
    if params.time_budget is None and params.max_rounds is None:
        raise ValueError("a budget is required: set time_budget and/or max_rounds")
    n = inst.n
    d = distance_matrix(inst)
    if pruned.shape != (n, n):
        raise ValueError(f"pruned heat map shape {pruned.shape} does not match n={n}")
    hp = np.array(pruned, dtype=np.float64, copy=True)
    rows = d.tolist()
    m_eff = min(params.m, n - 1)  # presets can exceed tiny instances
    dist_cand = None
    rng = np.random.default_rng(seed)
    stats = SearchStats()
    deadline = None
    if params.time_budget is not None:
        deadline = time.perf_counter() + params.time_budget
    best_order: Optional[np.ndarray] = None
    best_len = math.inf
    rounds = 0
    while True:
        if params.max_rounds is not None and rounds >= params.max_rounds:
            break
        if rounds and deadline is not None and time.perf_counter() >= deadline:
            break
        rounds += 1
        k_cap = int(rng.integers(params.k_range[0], params.k_range[1]))
        if rng.integers(2) == 0:
            cand = candidate_lists(hp, m_eff, HEAT_MODE)
        else:
            if dist_cand is None:
                dist_cand = candidate_lists(d, m_eff, DISTANCE_MODE)
            cand = dist_cand
        table = _candidate_table(cand, d, hp)
        order = rng.permutation(n).astype(np.int64)
        t0 = time.perf_counter()
        _two_opt_order(d, rows, order)
        stats.two_opt_seconds += time.perf_counter() - t0
        cur_len = order_length(d, order)
        if cur_len < best_len:
            best_len = cur_len
            best_order = order.copy()
        while True:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            action = _expand(d, order, table, stats, params, k_cap, rng, deadline)
            if action is None:
                break
            new_len = cur_len - action.gain
            update_heatmap(hp, action, cur_len, new_len, params.beta)
            _patch_table(table, action.added, hp)
            order = action.new_order
            cur_len = new_len
            # the best is kept by exact length: the incremental cur_len can
            # sit an ulp below a tour that is not shorter
            length = order_length(d, order)
            if length < best_len:
                best_order = order.copy()
                best_len = length
        stats.round_best_lengths.append(best_len)
    stats.rounds = rounds
    stats.best_length = best_len
    return Tour.from_order(best_order), stats


# ---------------------------------------------------------------------------
# Tour file format
# ---------------------------------------------------------------------------

def format_tour(tour: Tour, length: float) -> str:
    rows = [
        TOUR_HEADER,
        str(tour.n),
        " ".join(str(int(c)) for c in tour.order),
        repr(float(length)),
    ]
    return "\n".join(rows) + "\n"


def parse_tour(text: str):
    n, rows = _native_body(text, TOUR_HEADER)
    if not rows:
        raise ValueError(f"{TOUR_HEADER} document has no order line")
    if len(rows) < 2:
        raise ValueError(f"{TOUR_HEADER} document has no length line")
    order = np.array([int(v) for v in rows[0].split()], dtype=np.int64)
    if order.shape[0] != n:
        raise ValueError(f"expected {n} cities in the order line, got {order.shape[0]}")
    length = float(rows[1])
    return Tour.from_order(order), length
