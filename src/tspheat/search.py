"""Heat-map-guided best-first k-opt local search.

A search run (run_search) builds its frame once (_Frame: the distances and
the one neighbour table every round reads and no round changes), then
repeats rounds over it. A fresh round (_round) starts from the round start
(_round_start): a nearest-neighbour tour from a random city, two random
double-bridge kicks, then a neighbour-list pass of 2-opt and Or-opt moves
until no list-restricted move is left. Best-first node expansion follows,
where each expansion tries a bounded number of sequential k-opt
constructions and moves to the shortest improving result. Above 20 cities
a stream (below) starts fresh once and then kicks: each of its rounds ends
with a preset number of kicks of its best tour (_kick, iterated local
search), each a double bridge repaired by a neighbour-list pass seeded with
its end cities alone, kept when the result is shorter; its later rounds are
those kicks alone, so the k-opt constructions and the heat act only in
fresh descents. Constructions grow
a Hamiltonian path with one fixed endpoint; the next city is sampled from
the moving endpoint's candidate list, its m nearest cities, with probability
proportional to its pruned-heat value, floored so that zero-heat candidates
stay reachable. A candidate is feasible only while the move keeps a positive
running gain (the gain criterion of Lin & Kernighan 1973), so an attempt
that does not close an improving move ends at a dead end, most often at its
first step. No cap on removed edges is needed: an attempt removes only edges
of its base tour, each at most once, so it ends within n steps. Edges of
applied improving actions get their heat raised, and the raised heat
persists across rounds.

An attempt pays only for the steps it takes. An expansion draws all its
anchors at once and memoises each anchor's first step, which depends only
on the anchor, the base tour, the table and the heat. The pass scans a
city again only once a move has been applied since its last scan that
found none (_neighbor_pass's clean stamp). The pass, the
nearest-neighbour start and the expansions all read the table's rows of
(city, edge key, distance) in ascending distance, so a scan stops at the
first candidate its gain rule rejects. Every loop reads its distances from
rows = d.tolist(). The table holds no heat: a draw weighs by the run's heat
map, so a heat update never leaves it stale.

A run's rounds form one or two streams (_stream), each with its own rng,
its own copy of the pruned heat map and its own statistics. A stream ends
early once its best tour is proven optimal by the 1-tree lower bound
(bounds.one_tree_bound), which it computes at most once, when a round's
fresh descent ends at the length of the best tour of the rounds before it.
A stream that kicks has one fresh descent, so only streams without kicks
(20 cities or fewer with the presets), each the whole of its run, compute
the bound.

A run of more than ONE_STREAM_MAX_CITIES cities that kicks, with a round
cap other than 1, splits its rounds into two seeded streams: stream 0 in
this process and stream 1 in one worker process (_Worker), forked with
os.fork on first need, reused by later runs of this process alone, sent one
job and read for one reply through two pipes, and stopped by a run that
raises, or at exit. The streams share nothing while they run, and the
merged result (_merge) never depends on which ends first, so it is the same
without the worker. The tour file format lives in instances.py.
"""

from __future__ import annotations

import atexit
import math
import operator
import os
import pickle
import sys
import threading
import time
from bisect import bisect_right
from collections import defaultdict, deque
from contextlib import suppress
from dataclasses import dataclass, field, fields, replace
from operator import itemgetter
from typing import Optional

import numpy as np

from .bounds import one_tree_bound
from .candidates import DISTANCE_MODE, candidate_lists
from .instances import Instance, Tour, distance_matrix, order_length, unit_exponent

# gain a k-opt, 2-opt or Or-opt move must exceed to count as improving;
# guards against float-noise "improvements". It is absolute, so run_search
# and the nearest-neighbour baseline (nn_two_opt_baseline) compare it with
# gains in the instance's power-of-two frame (instances.unit_exponent)
MIN_GAIN = 1e-10
# sampling-weight floor so zero-heat candidates stay reachable
WEIGHT_FLOOR = 1e-12
# shortest neighbour list of the round-start pass, whatever the preset's m
# (8 is the m of every preset up to tsp200); see pass_neighbors
TWO_OPT_NEIGHBORS = 8
# longest segment the neighbour-list pass moves with an Or-opt move
OR_OPT_SEGMENT = 3
# random double bridges applied to each fresh round's nearest-neighbour start
# (_round_start); one kick or none left exact-n16 runs short of the optimum
ROUND_START_KICKS = 2
# longest segment of a kick's double bridge (_kick), so a kick moves at most
# 2 * KICK_SEGMENT cities and its repair starts next to them
KICK_SEGMENT = 50
# runs of at most this many cities keep one stream, kicked or not
# (run_search). No preset kicks at these sizes, so with the presets the
# kicks = 0 rule alone keeps them whole; the constant stays as the one place
# to move the size above which a kicked run splits, should the split not pay
# at some size, and as the seam tests raise to run every size as one stream
ONE_STREAM_MAX_CITIES = 20


@dataclass(frozen=True)
class SearchParams:
    """Knobs for one search run.

    beta scales the heat update, m is the candidate-list size and
    expand_budget is the number of construction attempts per node expansion
    of a round's fresh descent. kicks is the number of double-bridge kicks
    per round (_kick), each repaired by the neighbour-list pass alone, with
    no k-opt attempt: in a stream's first round they kick the best tour of
    its fresh descent, and every later round is kicks kicks of the stream's
    best tour, with no fresh start. With kicks = 0 every round starts fresh
    and the run keeps one stream, at every size.
    At least one of time_budget (seconds) / max_rounds must be set. Both
    are caps: a run ends sooner once a 1-tree bound proves its best tour
    optimal (run_search). max_rounds is a total over the run's streams: a run split
    into two gives stream 0 at most ceil(max_rounds / 2) rounds and stream
    1 at most floor(max_rounds / 2); time_budget counts from the call to
    run_search and is one deadline that both streams share. Round caps give
    bit-reproducible runs, wall-clock budgets do not.
    """

    beta: float = 10.0
    m: int = 8
    expand_budget: int = 60
    time_budget: Optional[float] = None
    max_rounds: Optional[int] = None
    kicks: int = 0

    def __post_init__(self):
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")
        if self.time_budget is not None and not 0 < self.time_budget < math.inf:
            raise ValueError(f"time_budget must be finite and > 0, got {self.time_budget!r}")
        for name, least in (("m", 1), ("expand_budget", 1), ("max_rounds", 1), ("kicks", 0)):
            value = getattr(self, name)
            try:
                if (value is None and name == "max_rounds") or operator.index(value) >= least:
                    continue
            except TypeError:
                pass
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")

    def with_budget(self, time_budget=None, max_rounds=None) -> "SearchParams":
        return replace(self, time_budget=time_budget, max_rounds=max_rounds)


# Named parameter sets by instance-size tier (heat update scale,
# candidate-list size, per-node attempt budget of the fresh descent and kicks
# per round). Above 20 cities the budget is 1/16 of the one rounds had
# before kicks, and K is the smallest whose round-capped pool runs, with
# only round 1 of each stream starting fresh, end no longer on average than
# runs with a fresh start in every round did, and for tsp100 no longer than
# runs whose kicks also made k-opt attempts did (CHANGES.md)
PRESETS: dict[str, SearchParams] = {
    "tsp20": SearchParams(beta=10.0, m=8, expand_budget=60),
    "tsp50": SearchParams(beta=10.0, m=8, expand_budget=9, kicks=7),
    "tsp100": SearchParams(beta=10.0, m=8, expand_budget=18, kicks=8),
    "tsp200": SearchParams(beta=10.0, m=8, expand_budget=37, kicks=18),
    "tsp500": SearchParams(beta=50.0, m=5, expand_budget=62, kicks=41),
    "tsp1000": SearchParams(beta=50.0, m=5, expand_budget=125, kicks=95),
}


def preset_for(n: int) -> SearchParams:
    """The PRESETS entry of the smallest tier that holds n cities (tsp20 for
    n <= 20, tsp50 for 21..50, ...); tsp1000 above 1000 cities."""
    for name, params in PRESETS.items():
        if n <= int(name.removeprefix("tsp")):
            return params
    return PRESETS["tsp1000"]


@dataclass
class SearchStats:
    """Counters accumulated over a run.

    Each construction attempt ends once: with an improving action
    (improving) or at a dead end (no feasible candidate; dead_ends). Only
    fresh descents (_round) make attempts, so a kick round adds to neither.
    total_expansions, every attempt made, is their sum. starts counts the
    fresh starts (_round_start): one per round without kicks, one per
    stream with them. two_opt_moves and or_moves count the 2-opt and Or-opt
    moves the neighbour-list passes (_neighbor_pass) applied, round starts
    and kick repairs alike, and scans the scans they made: a scan looks for
    both kinds of move at one city and applies one or finds none, and a
    city the pass skips as clean is not scanned. kicks counts the
    kicks made (_kick) and kicks_kept those that ended shorter than the best
    tour they kicked and replaced it.
    two_opt_seconds is the wall-clock time spent in the neighbour-list
    passes, each round start's pass and each kick's seeded repair, their
    2-opt and Or-opt moves together; it is a timing, so no determinism
    check reads it. lower_bound is the run's 1-tree bound on the optimal
    length, in the instance's units (nan when the run computed none), and
    proof_round the round after which that bound proved the best tour
    optimal and the run ended (0 when it never did).

    A run split into two streams (run_search) reports both merged (_merge):
    the counters, rounds and two_opt_seconds are sums over both
    streams, so two_opt_seconds counts both processes' time and can exceed
    its share of the run's wall clock; round_best_lengths holds stream 0's
    rounds, then the run's best length after each of stream 1's, and ends at
    best_length. Its streams kick, so it computes no bound: lower_bound is
    nan and proof_round 0.
    """

    improving: int = 0
    dead_ends: int = 0
    rounds: int = 0
    starts: int = 0
    or_moves: int = 0
    two_opt_moves: int = 0
    scans: int = 0
    kicks: int = 0
    kicks_kept: int = 0
    two_opt_seconds: float = 0.0
    best_length: float = math.inf
    round_best_lengths: list = field(default_factory=list)
    lower_bound: float = math.nan
    proof_round: int = 0

    @property
    def total_expansions(self) -> int:
        return self.improving + self.dead_ends


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
    numpy Generator. Rounds start from a kicked nearest-neighbour tour
    instead (_round_start); outside the tests, perfbench's probes are its
    only callers."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return Tour.from_order(rng.permutation(n))


# ---------------------------------------------------------------------------
# 2-opt and Or-opt: the neighbour-list pass
# ---------------------------------------------------------------------------

def _reverse(tour: list, pos: list, i: int, j: int) -> None:
    """Reverse the cyclic segment tour[i..j] (indices mod n), or the rest of
    the cycle when that is shorter; both give the same cycle. pos (city ->
    index in tour) is kept current."""
    n = len(tour)
    i %= n
    j %= n
    size = (j - i) % n + 1
    if 2 * size > n:
        i, j, size = (j + 1) % n, (i - 1) % n, n - size
    for _ in range(size // 2):
        x = tour[i]
        y = tour[j]
        tour[i] = y
        pos[y] = i
        tour[j] = x
        pos[x] = j
        i = i + 1 if i + 1 < n else 0
        j = j - 1 if j else n - 1


def _flip(tour: list, pos: list, t1: int, t2: int, t3: int) -> None:
    """2-opt move on the cycle held in tour: with t2 a tour neighbour of t1
    and t4 the neighbour of t3 on the same side, replace edges (t1, t2) and
    (t3, t4) by (t1, t3) and (t2, t4) by reversing the path t2 .. t3. The
    side is read from pos, so the move holds whichever way earlier
    reversals left the tour."""
    i = pos[t1] + 1
    if tour[i if i < len(tour) else 0] == t2:
        _reverse(tour, pos, pos[t2], pos[t3])
    else:
        _reverse(tour, pos, pos[t3], pos[t2])


def _move_segment(tour: list, pos: list, p: int, a: int, s: int, q: int, c: int,
                  e: int) -> None:
    """Or-opt move on the cycle held in tour: take out the segment a .. s,
    which p precedes and q follows, and put it between the tour neighbours c
    and e, with a next to c and s next to e. Three _flip reversals when e is
    c's successor (the segment keeps its direction), two when e is c's
    predecessor (it is turned round)."""
    i = pos[c] + 1
    if tour[i if i < len(tour) else 0] == e:  # c, a .. s, e
        _flip(tour, pos, p, a, c)
        _flip(tour, pos, q, s, a)
        _flip(tour, pos, p, c, q)
    else:  # e, s .. a, c
        _flip(tour, pos, p, a, e)
        _flip(tour, pos, p, e, q)


def pass_neighbors(n: int) -> int:
    """List length of the round-start pass on n cities, and of the kick
    repairs (_kick), which use the same lists: TWO_OPT_NEIGHBORS up to
    n = 256, then ceil(sqrt(n) / 2), at most n - 1. Past a few hundred
    cities, lists of 8 leave random starts measurably above where a full
    2-opt scan would take them, while lists of 12 or 16 close that gap for
    about the same time (figures in README and CHANGES.md)."""
    return min(max(TWO_OPT_NEIGHBORS, math.ceil(math.sqrt(n) / 2)), n - 1)


def _neighbor_pass(rows: list, nbrs: list, tour: list, pos: list, stats: SearchStats,
                   seeds: Optional[tuple] = None) -> float:
    """Neighbour-list 2-opt and Or-opt driven by a queue of cities (Bentley
    1992's don't-look bits) on the cycle held in tour (pos: city -> index,
    kept current); returns the length its moves took off, the sum of their
    gains, and adds its moves, scans and seconds to stats.

    rows is d.tolist(); nbrs[a] is a's _candidate_table row of its nearest
    cities, in ascending distance. The queue starts with every city in tour
    order, or with the cities of seeds alone (a kick's repair, _kick). A
    popped city a is scanned: with b its tour successor, then its
    predecessor, a tries its list up to the first c with d[a, c] >= d[a, b]
    and, with e c's neighbour the same way (c != b, e != a), applies the
    first 2-opt move whose d[a,c] + d[b,e] - d[a,b] - d[c,e] is below
    -MIN_GAIN, so that (a, c) and (b, e) replace (a, b) and (c, e). When
    there is none, the segment a .. s of the L = 1 .. min(OR_OPT_SEGMENT,
    n - 3) cities that start at a, with p and q the cities around it, gains
    g = d[p,a] + d[s,q] - d[p,q] when taken out; for g > MIN_GAIN, a tries
    its list up to the first c with d[a, c] >= g, skips the segment's
    cities and, for e the successor and then the predecessor of c (not in
    the segment), applies the first Or-opt move whose
    g - (d[a,c] + d[s,e] - d[c,e]) exceeds MIN_GAIN: the segment goes
    between c and e with a next to c (_move_segment). Either move costs the
    span it reverses or moves, not the tour. After a move the cities whose
    edges changed are queued again and a is scanned again at once.

    A move elsewhere can open one at a city that is not queued (a reversal
    turns the cities it spans round), so when the queue runs dry after any
    move, every city the pass has queued is queued again: every city, or
    with seeds every city queued so far, so a repair costs the cities its
    moves reach, not the tour. A scan reads only tour, pos, rows and the
    city's list, and one that finds no move changes nothing, so the city
    is stamped clean with the number of moves applied so far, and a popped
    city whose stamp still equals that number is not scanned again; the
    check for a dry queue follows every pop, skipped or not. The pass ends
    after a sweep of those cities that applied no move, with no
    list-restricted move left at any of them. Every move shortens the tour,
    so the pass ends; moves the short lists cannot see are left to a fresh
    descent's k-opt expansions.
    """
    t0 = time.perf_counter()
    n = len(tour)
    if seeds is None:
        queue, queued = deque(tour), [True] * n
    else:
        # keyed by every city queued so far, the repair's sweep
        queued = defaultdict(bool, dict.fromkeys(seeds, True))
        queue = deque(queued)
    clean = [-1] * n  # the move count at a city's last scan that found none
    sizes = range(1, min(OR_OPT_SEGMENT, n - 3) + 1)
    applied = or_moves = scans = 0
    swept = 0  # applied when the queue last held every city it sweeps
    gain = 0.0
    while queue:
        a = queue.popleft()
        queued[a] = False
        if clean[a] != applied:
            near = nbrs[a]
            # each list scan below stops at the first city no nearer to a than
            # its bound, so it finds nothing when nearest is not below that
            nearest = near[0][2]
            ra = rows[a]
            while True:
                scans += 1
                i = pos[a]
                changed = None
                b = tour[i + 1 - n]
                p = tour[i - 1]
                # 2-opt with b = a's successor: reverse b .. c. Every c with
                # d[a, c] < d[a, b] differs from b, and e == a when c == p
                dab = ra[b]
                if nearest < dab:
                    rb = rows[b]
                    for c, _, dac in near:
                        if dac >= dab:
                            break
                        if c == p:
                            continue
                        j = pos[c]
                        e = tour[j + 1 - n]
                        delta = dac + rb[e] - dab - rows[c][e]
                        if delta < -MIN_GAIN:
                            _reverse(tour, pos, i + 1, j)
                            changed = (a, b, c, e)
                            break
                if changed is None:
                    # 2-opt with b = p, a's predecessor: reverse a .. e
                    dap = ra[p]
                    rp = rows[p]
                    if nearest < dap:
                        for c, _, dac in near:
                            if dac >= dap:
                                break
                            if c == b:
                                continue
                            j = pos[c]
                            e = tour[j - 1]
                            delta = dac + rp[e] - dap - rows[c][e]
                            if delta < -MIN_GAIN:
                                _reverse(tour, pos, i, j - 1)
                                changed = (a, p, c, e)
                                break
                if changed is None:
                    # Or-opt of the segment a .. s, which p precedes and q follows
                    q = a
                    for size in sizes:
                        s = q
                        q = tour[i + size - n]
                        rs = rows[s]
                        g = dap + rs[q] - rp[q]
                        if g <= MIN_GAIN or nearest >= g:
                            continue
                        for c, _, dac in near:
                            if dac >= g:
                                break
                            j = pos[c]
                            if (j - i) % n < size:
                                continue
                            rc = rows[c]
                            for e in (tour[j + 1 - n], tour[j - 1]):
                                if (pos[e] - i) % n < size:
                                    continue
                                # the move's gain is -delta, bit for bit
                                delta = dac + rs[e] - rc[e] - g
                                if delta < -MIN_GAIN:
                                    _move_segment(tour, pos, p, a, s, q, c, e)
                                    changed = (p, q, a, s, c, e)
                                    break
                            if changed:
                                break
                        if changed:
                            break
                    if changed is None:
                        clean[a] = applied
                        break
                    or_moves += 1
                applied += 1
                gain -= delta
                for x in changed:
                    if not queued[x]:
                        queued[x] = True
                        queue.append(x)
        if not queue and applied != swept:
            swept = applied
            if seeds is None:
                queue.extend(tour)
                queued = [True] * n
            else:
                queue.extend(queued)
                queued.update(dict.fromkeys(queued, True))
    stats.two_opt_moves += applied - or_moves
    stats.or_moves += or_moves
    stats.scans += scans
    stats.two_opt_seconds += time.perf_counter() - t0
    return gain


def _nearest_neighbor(rows: list, nbrs: list, start: int) -> list:
    """The nearest-neighbour tour from start, as a list of cities.

    rows is d.tolist() and nbrs the pass's distance-ranked lists
    (_neighbor_pass). From the current city the tour goes to the first
    unvisited city of its list; when the whole list is visited, to the
    nearest unvisited city of its row, ties toward the smaller index. Both
    give np.argmin over the row with the visited cities masked out, since
    the lists are ranked with the same tie rule; only the fallback scans,
    and only the cities still unvisited."""
    n = len(rows)
    visited = [False] * n
    visited[start] = True
    left = range(n)  # holds every unvisited city, in index order
    tour = [start]
    cur = start
    while len(tour) < n:
        for c, _, _ in nbrs[cur]:
            if not visited[c]:
                break
        else:
            left = [c for c in left if not visited[c]]
            row = rows[cur]
            c = min(left, key=row.__getitem__)
        visited[c] = True
        tour.append(c)
        cur = c
    return tour


def two_opt_improve(d: np.ndarray, tour: Tour) -> Tour:
    """Run the round-start pass (_neighbor_pass: 2-opt and Or-opt moves on
    lists of d's pass_neighbors(n) nearest cities) from the given tour and
    return the tour it ends at. From a round's kicked nearest-neighbour
    tour, in a run's frame, that is the round's first tour (_round_start),
    the pass that SearchStats.two_opt_seconds times. MIN_GAIN is absolute,
    so d should be near unit scale, as in a run's power-of-two frame."""
    n = tour.n
    if d.shape != (n, n):
        raise ValueError(
            f"distance matrix shape {d.shape} does not match a tour of {n} cities"
        )
    frame = _Frame.of(d, pass_neighbors(n))
    order = tour.order.tolist()
    _neighbor_pass(frame.rows, frame.nbrs, order, _positions(order), SearchStats())
    return Tour.from_order(order)


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


def _candidate_table(cand, rows: list) -> list:
    """Per city u, a list of (v, edge key, rows[u][v]) for each candidate v
    of cand[u] (rows is d.tolist()), in ascending distance order. The sort
    is stable, so a distance-ranked list keeps its order. O(n * m log m).
    The table holds no heat, so a run builds one, with its frame (_Frame),
    for its pass and every round; expand_node builds one per call."""
    return [sorted([(v, (u, v) if u < v else (v, u), ru[v]) for v in cl.tolist()],
                   key=itemgetter(2))
            for u, (cl, ru) in enumerate(zip(cand, rows))]


def _positions(order: list) -> list:
    """pos[c] = the index of city c in order."""
    pos = [0] * len(order)
    for i, c in enumerate(order):
        pos[c] = i
    return pos


def _feasible(row: list, vi: int, heat_at, gain: float, u1: int, neighbor: int,
              removed_set, added_set, added_ends, path) -> tuple:
    """The feasible entries of the moving endpoint vi's candidate row and
    their running weight sums, for _draw.

    A candidate c is feasible only while the running gain stays positive,
    gain - d(v_i, c) > MIN_GAIN (the Lin-Kernighan gain criterion). The row
    ascends in distance, so the first candidate that fails the test ends the
    scan. Other infeasible cities (closing anchor, current path neighbour,
    re-adds of removed edges, forced removal of added edges) are skipped.
    Only an endpoint of an added edge can have an added edge toward its path
    successor, so only those candidates pay for a position lookup in path.
    Each feasible candidate c weighs max(heat_at(vi, c), WEIGHT_FLOOR); the
    heat is read only once c has passed every test.
    """
    feas = []
    cums = []
    total = 0.0
    for entry in row:
        c, key, added_len = entry
        if gain - added_len <= MIN_GAIN:
            break
        if c == u1 or c == neighbor or key in removed_set:
            continue
        if c in added_ends:
            nxt = path[path.index(c) + 1]
            if ((c, nxt) if c < nxt else (nxt, c)) in added_set:
                continue
        heat = heat_at(vi, c)
        total += WEIGHT_FLOOR if heat < WEIGHT_FLOOR else heat
        feas.append(entry)
        cums.append(total)
    return feas, cums


def _construct(
    rows: list,
    base: list,
    pos: list,
    table: list,
    heat_at,
    first: list,
    u1: int,
    stats: SearchStats,
    rand,
) -> Optional[KOptAction]:
    """One sequential construction attempt from anchor u1 on the base tour
    order; returns an improving action or None (discard).

    The state is a Hamiltonian path, a list with fixed endpoint path[0] = u_1
    and moving endpoint path[-1], which starts at u_1's tour successor v_1.
    Adding an edge from the moving endpoint to an interior city forces
    removal of that city's edge toward the moving side (the only choice that
    keeps a Hamiltonian path), implemented as a suffix reversal. Each step
    draws the next city from _feasible's entries, weighed by heat_at (the
    heat map's item), with _draw (rand is a uniform [0, 1) source). The
    first step depends only on u_1, the base tour, the table and the heat,
    so its feasible entries are memoised in first[u_1] (pos holds each
    city's index in base); an anchor with none is a dead end read from the
    memo, and the path is built only once a first city is drawn.

    An attempt removes only edges of the base tour, never an added edge
    (_feasible skips a candidate that would force one out), and never the
    same edge twice, so it ends within n steps with no cap on k. Each
    attempt adds one to exactly one of stats.improving and stats.dead_ends.
    """
    n = len(base)
    i1 = pos[u1]
    v1 = base[i1 + 1 - n]
    step = first[u1]
    if step is None:
        # the moving endpoint is v1, its path neighbour v1's tour successor
        step = first[u1] = _feasible(table[v1], v1, heat_at, rows[u1][v1], u1,
                                     base[i1 + 2 - n], {_ekey(u1, v1)}, (), (), None)
    feas, cums = step
    if not feas:
        stats.dead_ends += 1
        return None
    seq = [u1, v1]
    removed_set = {_ekey(u1, v1)}
    added_set = set()
    added_ends = set()
    gain = rows[u1][v1]  # running sum(removed) - sum(added)
    vi = v1
    u_next, key, added_len = feas[_draw(cums, rand)]
    # path = u1 followed by the rest of the cycle walked backward, so
    # path[t] = base[(i1 - t) % n]
    path = base[i1::-1] + base[:i1:-1]
    j = (i1 - pos[u_next]) % n
    while True:
        v_next = path[j + 1]
        added_set.add(key)
        added_ends.add(vi)
        added_ends.add(u_next)
        removed_set.add((u_next, v_next) if u_next < v_next else (v_next, u_next))
        gain += rows[u_next][v_next] - added_len
        seq.append(u_next)
        seq.append(v_next)
        # rewire: reverse the suffix after u_next
        path[j + 1:] = path[:j:-1]
        vi = v_next
        close_gain = gain - rows[vi][u1]
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
        feas, cums = _feasible(table[vi], vi, heat_at, gain, u1, path[-2], removed_set,
                               added_set, added_ends, path)
        if not feas:
            stats.dead_ends += 1
            return None
        u_next, key, added_len = feas[_draw(cums, rand)]
        j = path.index(u_next)


def _expand(
    rows: list,
    order: np.ndarray,
    table: list,
    heat: np.ndarray,
    stats: SearchStats,
    params: SearchParams,
    rng: np.random.Generator,
    deadline: Optional[float],
) -> Optional[KOptAction]:
    """Try up to expand_budget constructions, keep the largest-gain action.

    All anchors are drawn at once, each uniform and independent, and the
    attempts share one first-step memo, since the base tour, the table and
    the heat do not change during an expansion: _round updates the heat
    between expansions. No attempt starts at or past the deadline, so once
    it has passed the expansion returns None: _round's only exit from its
    expansions."""
    base = order.tolist()
    n = len(base)
    pos = _positions(base)
    first = [None] * n
    heat_at = heat.item
    rand = rng.random
    best: Optional[KOptAction] = None
    for u1 in rng.integers(n, size=params.expand_budget).tolist():
        if deadline is not None and time.perf_counter() >= deadline:
            break
        action = _construct(rows, base, pos, table, heat_at, first, u1, stats, rand)
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
):
    """Best-first expansion of one search node.

    Runs up to params.expand_budget construction attempts and returns
    (improved Tour, applied KOptAction) for the shortest completed candidate,
    or None when no attempt improved the tour. At expand_budget=1 this is a
    single attempt from one uniformly drawn anchor. Rounds call _expand on
    the run's table; outside the tests, perfbench's probes are this
    wrapper's only callers, and each call builds its table afresh.
    """
    rows = d.tolist()
    best = _expand(rows, tour.order, _candidate_table(cand, rows), pruned, stats, params, rng,
                   deadline=None)
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


@dataclass(frozen=True)
class _Frame:
    """What every round of a run reads and no round changes, built once per
    run by _Frame.build from the instance and the preset's m. The
    nearest-neighbour baseline (nn_two_opt_baseline) builds one at m = 1:
    e, d, rows and nbrs do not depend on m. two_opt_improve builds one
    (_Frame.of) on its d at m = pass_neighbors(n), so nbrs is dist_table.

    e is the instance's power-of-two exponent (instances.unit_exponent) and
    d its distances scaled by 2**-e, read-only, so MIN_GAIN acts in the
    same frame at every scale. The numpy work reads d, every loop of the
    search rows = d.tolist(). One distance ranking of max(m, k) cities per
    city (m capped at n - 1, k = pass_neighbors(n)) gives one
    _candidate_table: nbrs, the pass's lists, are the first k entries of
    each row, dist_table, which every expansion draws from, the first m;
    both are the table itself when m = k, as in every preset run up to 200
    cities.
    """

    e: int
    d: np.ndarray
    rows: list
    nbrs: list
    dist_table: list

    @classmethod
    def build(cls, inst: Instance, m: int) -> "_Frame":
        e = unit_exponent(inst)
        d = np.ldexp(distance_matrix(inst), -e)
        d.setflags(write=False)
        return cls.of(d, m, e)

    @classmethod
    def of(cls, d: np.ndarray, m: int, e: int = 0) -> "_Frame":
        """The frame of distances d already scaled by 2**-e, kept as given."""
        rows = d.tolist()
        m, k = min(m, len(rows) - 1), pass_neighbors(len(rows))
        table = _candidate_table(candidate_lists(d, max(m, k), DISTANCE_MODE), rows)
        nbrs, dist_table = (table if w == max(m, k) else [row[:w] for row in table]
                            for w in (k, m))
        return cls(e, d, rows, nbrs, dist_table)


def _round_start(frame: _Frame, stats: SearchStats, rng: np.random.Generator,
                 kicks: int = ROUND_START_KICKS) -> np.ndarray:
    """A fresh round's first tour: the nearest-neighbour tour from a random
    city (_nearest_neighbor), then `kicks` random double bridges, then
    _neighbor_pass, so the tour has no list-restricted 2-opt or Or-opt move
    left. Each double bridge draws three distinct cut points
    1 <= a < b < c <= n - 1 and reorders the tour as
    order[:a] + order[b:c] + order[a:b] + order[c:] (_double_bridge); at
    n = 3 every order is the same cycle, so no kick is drawn. Every draw
    comes from rng. A round makes ROUND_START_KICKS kicks, which keep
    starts diverse while leaving the pass far less to undo than a random
    permutation would; nn_two_opt_baseline makes none. The pass adds its
    seconds, moves and scans to stats, and the start is counted in
    stats.starts."""
    n = len(frame.rows)
    tour = _nearest_neighbor(frame.rows, frame.nbrs, int(rng.integers(n)))
    pos = _positions(tour)
    if n > 3:
        for _ in range(kicks):
            a, b, c = sorted(x + 1 for x in rng.choice(n - 1, size=3, replace=False).tolist())
            _double_bridge(tour, pos, frame.rows, a, b - a, c - b)
    _neighbor_pass(frame.rows, frame.nbrs, tour, pos, stats)
    stats.starts += 1
    return np.array(tour, dtype=np.int64)


def nn_two_opt_baseline(inst: Instance, seed: int):
    """The nn+2opt+oropt baseline: a round start (_round_start) without
    kicks, from an rng seeded with seed, in a frame built at m = 1.

    Returns (Tour, length in the instance's units); deterministic per seed.
    """
    frame = _Frame.build(inst, 1)
    order = _round_start(frame, SearchStats(), np.random.default_rng(seed), kicks=0)
    # power-of-two scaling is exact (short of subnormal distances), so this
    # is tour_length on distance_matrix(inst), bit for bit
    return Tour.from_order(order), math.ldexp(order_length(frame.d, order), frame.e)


def _round(
    frame: _Frame,
    heat: np.ndarray,
    stats: SearchStats,
    rng: np.random.Generator,
    params: SearchParams,
    deadline: Optional[float],
) -> tuple[float, float, np.ndarray]:
    """One fresh search round; returns (the length its fresh descent ends
    at, its shortest length, the first tour of that length), all in the
    frame's units. It is every round of a stream without kicks and the
    start of round 1 of a stream with them (_stream).

    The round starts from _round_start and expands best-first on the
    frame's table until a whole expansion yields no improvement, raising the
    heat of each applied action's added edges in place, so later draws and
    later rounds read the update. The round builds no list or table of its
    own, and no move search of a round scans all city pairs.
    Lengths are exact (order_length), not the incremental sum of gains,
    which can sit an ulp below a tour that is not shorter. The expansions
    stop at the deadline; the start always runs.
    """
    order = _round_start(frame, stats, rng)
    cur_len = length = best_len = order_length(frame.d, order)
    best_order = order
    while True:
        action = _expand(frame.rows, order, frame.dist_table, heat, stats, params, rng, deadline)
        if action is None:
            break
        new_len = cur_len - action.gain
        update_heatmap(heat, action, cur_len, new_len, params.beta)
        order = action.new_order
        cur_len = new_len
        length = order_length(frame.d, order)
        if length < best_len:
            best_len, best_order = length, order
    return length, best_len, best_order


def _double_bridge(tour: list, pos: list, rows: list, i: int, l1: int, l2: int) -> tuple:
    """Swap the l1 cities from index i and the l2 cities after them (indices
    mod n; l1 + l2 < n), the double bridge A B C D -> A C B D with D A the
    rest of the cycle, at the cost of the l1 + l2 cities it moves. Returns
    the six end cities of the three edges it replaces and the length it
    adds."""
    n = len(tour)
    k = l1 + l2
    span = [tour[(i + t) % n] for t in range(k)]
    p, q = tour[i - 1], tour[(i + k) % n]
    b0, b1, c0, c1 = span[0], span[l1 - 1], span[l1], span[-1]
    for t, c in enumerate(span[l1:] + span[:l1], i):
        t %= n
        tour[t] = c
        pos[c] = t
    added = rows[p][c0] + rows[c1][b0] + rows[b1][q] - rows[p][b0] - rows[b1][c0] - rows[c1][q]
    return (p, b0, b1, c0, c1, q), added


def _kick(
    frame: _Frame,
    stats: SearchStats,
    rng: np.random.Generator,
    params: SearchParams,
    deadline: Optional[float],
    best_len: float,
    best_order: np.ndarray,
) -> tuple[float, np.ndarray]:
    """params.kicks iterations of local search on a best tour, a fresh
    round's or a stream's (Lourenço, Martin & Stützle's iterated local
    search); returns the best length and the first tour of that length
    after them.

    Each iteration applies a double bridge (_double_bridge) whose two
    segments hold 1 .. KICK_SEGMENT cities each, at a uniformly drawn place,
    and repairs it with _neighbor_pass seeded with the bridge's six end
    cities. It makes no k-opt attempt and reads no heat. The kicked tour
    replaces the best only when it is shorter by more than MIN_GAIN by the
    sum of its gains and strictly shorter by order_length. The working tour
    and pos lists live across iterations: a kick and its repair change only
    the spans they touch, and the lists return to the best tour by a slice
    copy, which moves no Python object one by one. No kick starts at or
    past the deadline."""
    rows, nbrs = frame.rows, frame.nbrs
    best_tour = best_order.tolist()
    best_pos = _positions(best_tour)
    tour, pos = best_tour[:], best_pos[:]
    n = len(tour)
    widest = min(KICK_SEGMENT, (n - 1) // 2)
    rand = rng.random
    for _ in range(params.kicks):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        stats.kicks += 1
        i, l1, l2 = int(rand() * n), 1 + int(rand() * widest), 1 + int(rand() * widest)
        ends, added = _double_bridge(tour, pos, rows, i, l1, l2)
        gain = _neighbor_pass(rows, nbrs, tour, pos, stats, ends)
        if best_len + added - gain < best_len - MIN_GAIN:
            order = np.array(tour, dtype=np.int64)
            exact = order_length(frame.d, order)
            if exact < best_len:
                stats.kicks_kept += 1
                best_len, best_order = exact, order
                best_tour[:] = tour
                best_pos[:] = pos
                continue
        tour[:] = best_tour
        pos[:] = best_pos
    return best_len, best_order


def _stream(
    frame: _Frame,
    heat: np.ndarray,
    params: SearchParams,
    rng: np.random.Generator,
    rounds: Optional[int],
    deadline: Optional[float],
    live=None,
) -> Optional[tuple[np.ndarray, SearchStats]]:
    """One stream of rounds on frame; returns (the first order of the
    shortest length any round reached, the stream's SearchStats), or None
    when live (a callable, or None) returned False at a round boundary: the
    worker's check that its job pipe has not ended (_serve).

    heat is the stream's own heat map, read and updated in place by its
    fresh rounds (_round) alone, and the updates survive into later fresh
    rounds; kicks read no heat. The stream runs rounds until the
    deadline or `rounds` rounds (None: no cap), whichever comes first. Round
    1 starts with a fresh round (_round) and always runs, so even a deadline
    that has already passed gives a tour; its expansions and kicks stop at
    the deadline. Without kicks (params.kicks = 0, or n = 3, where every
    order is the same cycle) every round is a fresh round. With kicks every
    round ends with params.kicks kicks of the stream's best tour (_kick):
    round 1 kicks the best tour of its fresh round, and every later round
    is those kicks alone, with no fresh start, no fresh descent and no
    k-opt attempt, so a timed stream kicks until its deadline.

    It also stops after the first round whose best tour is proven optimal.
    The first round r >= 2 whose fresh descent (the round before its kicks)
    ends within MIN_GAIN of the best length of rounds 1 .. r-1 computes
    bounds.one_tree_bound once, aimed at the best length; from then on the
    stream ends after any round whose best length is within MIN_GAIN of
    that bound. A stream with kicks has no fresh descent after round 1, so
    it computes no bound. The bound runs in the frame, with the same
    MIN_GAIN as every move, draws no random number and changes neither the
    heat nor the tour, so a stream that is never proven optimal is the
    stream it would be without the bound.
    """
    stats = SearchStats()
    best_order: Optional[np.ndarray] = None
    best_len = math.inf
    bound = None  # the 1-tree bound, computed at most once per stream
    kicking = params.kicks > 0 and len(frame.rows) > 3
    while rounds is None or stats.rounds < rounds:
        if stats.rounds and deadline is not None and time.perf_counter() >= deadline:
            break
        if live is not None and not live():
            return None
        stats.rounds += 1
        earlier_best = best_len
        if kicking and best_order is not None:
            # a kick round: no fresh start and no fresh descent, so no length
            # that could trigger the bound
            length, round_len, round_order = math.nan, best_len, best_order
        else:
            length, round_len, round_order = _round(frame, heat, stats, rng, params, deadline)
        if kicking:
            round_len, round_order = _kick(frame, stats, rng, params, deadline, round_len,
                                           round_order)
        if round_len < best_len:
            best_len, best_order = round_len, round_order
        stats.round_best_lengths.append(math.ldexp(best_len, frame.e))
        # a fresh descent that ends where an earlier round did hints that the
        # best tour may be optimal; only then is the bound worth its ascent.
        # A kick reaches the best length at once, so kicks do not count
        if bound is None and abs(length - earlier_best) <= MIN_GAIN:
            bound = one_tree_bound(frame.d, best_len)
            stats.lower_bound = math.ldexp(bound, frame.e)
        if bound is not None and best_len <= bound + MIN_GAIN:
            stats.proof_round = stats.rounds
            break
    stats.best_length = stats.round_best_lengths[-1]
    return best_order, stats


def _merge(first: tuple, second: tuple) -> tuple[np.ndarray, SearchStats]:
    """One run's (order, SearchStats) from its two streams' (_stream), as if
    stream 1's rounds had run after stream 0's.

    The shorter best tour wins, a tie goes to stream 0, and the counters
    and two_opt_seconds are summed. round_best_lengths is stream 0's list
    followed by the best length of the run after each of stream 1's rounds.
    Split runs kick, so neither stream computes a bound, and lower_bound
    and proof_round keep their defaults."""
    order, s0 = first
    other, s1 = second
    best = s0.best_length
    if s1.best_length < best:
        order, best = other, s1.best_length
    stats = SearchStats(
        **{f.name: getattr(s0, f.name) + getattr(s1, f.name) for f in fields(SearchStats)
           if f.name not in ("best_length", "round_best_lengths", "lower_bound", "proof_round")},
        best_length=best,
        round_best_lengths=s0.round_best_lengths
        + [min(x, s0.best_length) for x in s1.round_best_lengths],
    )
    return order, stats


def _run_heat(pruned: np.ndarray) -> np.ndarray:
    """A run's heat map: a float64 copy of pruned, scaled by a power of two
    when its largest entry exceeds the largest float / n. A draw sums at
    most n - 1 weights (_feasible), so no running sum can then overflow to
    inf, which would make _draw always take a row's last candidate. The
    scale keeps every ratio of heats that does not underflow, and ordinary
    heat maps are copied unscaled."""
    heat = np.array(pruned, dtype=np.float64, copy=True)
    peak = float(heat.max())
    limit = sys.float_info.max / heat.shape[0]
    if peak > limit:
        heat = np.ldexp(heat, -math.frexp(peak / limit)[1])
    return heat


def run_search(
    inst: Instance,
    pruned: np.ndarray,
    params: SearchParams,
    seed: int,
) -> tuple[Tour, SearchStats]:
    """Full multi-round search; returns (best Tour, SearchStats).

    The run builds its _Frame and a copy of the pruned heat map (_run_heat),
    then runs its rounds as streams (_stream). The heat steers the k-opt
    constructions of the fresh descents alone; kicks read none. Every entry
    of pruned must be finite and >= 0, the rules a heat-map file obeys
    (instances.parse_heatmap); ValueError otherwise.

    A run of at most ONE_STREAM_MAX_CITIES cities, with max_rounds = 1 or
    with kicks = 0 is one stream seeded with seed. Any other run, one that
    kicks, splits its round cap R into two streams, each with its own copy
    of the heat: stream 0, the same stream seeded with seed, for at most
    ceil(R / 2) rounds, and stream 1, seeded with (seed, 1), for at most
    floor(R / 2). A time budget counts from this call: both share one
    deadline. Stream 1 runs in a worker process (_Worker) while this
    process runs stream 0, and the two are merged (_merge).
    Where no worker can run (no fork on the platform, a failed fork, a
    process with threads, or a dead worker), stream 1 runs here after stream
    0, with the same result, so a round-capped run's result never depends on
    timing or on the worker. Any exception once the job is sent, such as a
    KeyboardInterrupt, stops the worker (_stop_worker) and is re-raised.
    """
    if params.time_budget is None and params.max_rounds is None:
        raise ValueError("a budget is required: set time_budget and/or max_rounds")
    n = inst.n
    if pruned.shape != (n, n):
        raise ValueError(f"pruned heat map shape {pruned.shape} does not match n={n}")
    # NaN fails both tests, and a NaN weight would turn every later running
    # sum of a draw into NaN
    if not ((pruned >= 0) & (pruned < math.inf)).all():
        raise ValueError("pruned heat-map entries must be finite and >= 0")
    # perf_counter is system-wide where fork exists, so the worker reads it alike
    deadline = None if params.time_budget is None else time.perf_counter() + params.time_budget
    heat = _run_heat(pruned)
    cap = params.max_rounds
    if n <= ONE_STREAM_MAX_CITIES or cap == 1 or params.kicks == 0:
        frame = _Frame.build(inst, params.m)
        order, stats = _stream(frame, heat, params, np.random.default_rng(seed), cap, deadline)
        return Tour.from_order(order), stats
    caps = (None, None) if cap is None else ((cap + 1) // 2, cap // 2)
    # submitted first, so that the worker builds its frame while this one does
    sent = _submit((inst, heat, params, seed, caps[1], deadline))
    try:
        frame = _Frame.build(inst, params.m)
        first = _stream(frame, heat.copy(), params, np.random.default_rng(seed), caps[0],
                        deadline)
        second = (sent and _collect()) or _stream(
            frame, heat, params, np.random.default_rng((seed, 1)), caps[1], deadline)
    except BaseException:
        if sent:
            _stop_worker()
        raise
    order, stats = _merge(first, second)
    return Tour.from_order(order), stats


# ---------------------------------------------------------------------------
# the worker process that runs stream 1
# ---------------------------------------------------------------------------

class _Worker:
    """A process that runs stream 1 of split runs (run_search) for the
    process that forked it with os.fork and no other (_forget_worker),
    reused by every later run and stopped when that process exits (atexit).
    Its pipes are its only channel: one job in, one reply out (_serve,
    _collect). It ends at its next round boundary once the job pipe ends."""

    def __init__(self):
        jobs, replies = os.pipe(), os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for end in jobs + replies:
                os.close(end)
            raise
        if self.pid == 0:
            try:  # never back into the caller's stack, nor its atexit handlers
                os.close(jobs[1])
                os.close(replies[0])
                _serve(jobs[0], replies[1])
            finally:
                os._exit(0)
        os.close(jobs[0])
        os.close(replies[1])
        self.jobs, self.replies = os.fdopen(jobs[1], "wb"), os.fdopen(replies[0], "rb")


_worker: Optional[_Worker] = None


def _serve(jobs_fd: int, replies_fd: int) -> None:
    """The worker's loop: run stream 1 of each job on its own frame and send
    back (order, stats) until the job pipe ends. No job comes before the
    last reply is read, so at a round boundary the job pipe is readable only
    once it has ended: the worker then exits with no reply."""
    import select
    import signal

    # an interrupt is the parent's to handle; this process ends with its pipe
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    jobs, replies = os.fdopen(jobs_fd, "rb"), os.fdopen(replies_fd, "wb")
    while True:
        try:
            inst, heat, params, seed, rounds, deadline = pickle.load(jobs)
        except (EOFError, OSError, pickle.UnpicklingError):
            return
        try:
            result = _stream(_Frame.build(inst, params.m), heat, params,
                             np.random.default_rng((seed, 1)), rounds, deadline,
                             lambda: not select.select([jobs_fd], [], [], 0)[0])
            if result is None:  # the job pipe ended: nobody reads a reply
                return
        except Exception:  # the parent runs the stream itself, and raises there
            result = None
        with suppress(OSError):  # the parent is gone, and with it the job pipe
            pickle.dump(result, replies)
            replies.flush()


def _submit(job: tuple) -> bool:
    """Send stream 1 of a split run to the worker, forking one if none runs;
    returns whether a worker took the job. None does where os.fork is
    missing or fails, nor while other threads run: a fork copies only this
    thread (a lock another holds stays held in the child), and two threads'
    runs would share one pipe."""
    global _worker
    if threading.active_count() > 1 or not hasattr(os, "fork"):
        return False
    try:
        if _worker is None:
            _worker = _Worker()
        pickle.dump(job, _worker.jobs)
        _worker.jobs.flush()
        return True
    except OSError:
        _stop_worker()
        return False


def _collect() -> Optional[tuple]:
    """Stream 1's (order, stats), the worker's one reply to the job it
    took; None, the worker stopped, if it failed."""
    result = None
    with suppress(EOFError, OSError, pickle.UnpicklingError):
        result = pickle.load(_worker.replies)
    if result is None:
        _stop_worker()
    return result


def _stop_worker() -> None:
    """End the worker, if one runs: close its pipes, kill it, reap it."""
    import signal

    pid = _forget_worker()
    if pid is not None:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _forget_worker() -> Optional[int]:
    """Drop the worker and close this process's ends of its pipes; returns
    its pid, or None. Runs in every forked child too, where an inherited
    write end of the job pipe would hide the parent's exit from its worker."""
    global _worker
    worker, _worker = _worker, None
    if worker is not None:
        worker.replies.close()
        with suppress(OSError):  # a flush that a dead worker broke raises again
            worker.jobs.close()
        return worker.pid


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)
atexit.register(_stop_worker)
