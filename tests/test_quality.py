"""A quality floor: round-capped pool means of the pipeline may not get
longer.

The golden fixtures pin bytes, so a deliberate change of behaviour
re-records them; this module checks what such a change must not lose. A
tier's pool is the instances generate_random(n, 10000 + i), each fitted
once with TrainConfig(seed=i) (the default 50-step fit), pruned to the
preset's m and searched with preset_for(n) at a round cap, from search
seeds i + offset for every offset in OFFSETS, with the worker on. The fits
are shared across offsets.

The recorded values come from the code before kicks stopped descending
(CHANGES.md). Never raise one: a change that shortens a mean may lower it,
and CHANGES.md records any change here.
"""

import pytest

from tspheat.bench import gap_percent, held_karp_exact
from tspheat.candidates import top_m_filter
from tspheat.generator import TrainConfig, optimize_heatmap
from tspheat.instances import generate_random
from tspheat.search import preset_for, run_search

OFFSETS = (0, 1000, 2000, 3000)
ROUNDS = 10

# tier: (n, the mean length over 24 instances and the four offsets, band).
# One round-capped run is one chaotic trajectory, so a change that keeps
# every cycle can still move a per-offset mean by a few tenths of a point
# (CHANGES.md). The band is the spread of the four per-offset means at the
# recording, (max - min) / mean, rounded up to 0.01%; the mean of the
# offsets may not exceed recorded * (1 + band). Per-offset means recorded:
#   tsp50:  5.685641, 5.684088, 5.681213, 5.683812 (spread 0.078%)
#   tsp100: 7.808098, 7.799746, 7.796928, 7.797691 (spread 0.143%)
FLOOR = {
    "tsp50": (50, 5.683688507550684, 0.0008),
    "tsp100": (100, 7.800615621039089, 0.0015),
}

# runs of the 32-instance n = 16 pool, tsp20 at 12 rounds from search seed
# i, that end at held_karp_exact's length, when recorded
OPTIMAL_N16 = 32


def pool(n: int, count: int):
    """(i, instance, pruned heat) for the first count instances of the pool
    of n cities."""
    m = min(preset_for(n).m, n - 1)
    for i in range(count):
        inst = generate_random(n, 10000 + i)
        heat, _, _ = optimize_heatmap(inst, TrainConfig(seed=i))
        yield i, inst, top_m_filter(heat, m)[1]


@pytest.mark.parametrize("tier", sorted(FLOOR))
def test_a_tier_mean_is_no_longer_than_recorded(tier):
    n, recorded, band = FLOOR[tier]
    params = preset_for(n).with_budget(max_rounds=ROUNDS)
    lengths = [run_search(inst, pruned, params, i + offset)[1].best_length
               for i, inst, pruned in pool(n, 24) for offset in OFFSETS]
    mean = sum(lengths) / len(lengths)
    assert mean <= recorded * (1 + band), (
        f"{tier}: mean {mean!r} exceeds the floor {recorded!r} by "
        f"{100 * (mean / recorded - 1):.4f}% (band {100 * band:.2f}%)")


def test_the_n16_pool_loses_no_optimum():
    params = preset_for(16).with_budget(max_rounds=12)
    optimal = 0
    for i, inst, pruned in pool(16, 32):
        _, stats = run_search(inst, pruned, params, i)
        optimal += gap_percent(stats.best_length, held_karp_exact(inst)[1]) == 0.0
    assert optimal >= OPTIMAL_N16
