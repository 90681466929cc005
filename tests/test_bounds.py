import itertools
import math

import numpy as np
import pytest

import tspheat.bounds as bounds_mod
from tspheat.bench import held_karp_exact
from tspheat.bounds import ASCENT_ITERATIONS, one_tree_bound, _one_tree
from tspheat.instances import Instance, distance_matrix, generate_random, order_length
from tspheat.search import MIN_GAIN, nn_two_opt_baseline

from test_bench import GOLDEN_HELD_KARP, _integer_grid


def reference_one_tree(w):
    """Kruskal's tree on cities 1 .. n-1 over every pair in ascending weight,
    plus city 0's two cheapest edges: the minimum 1-tree's weight."""
    n = w.shape[0]
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    weight = sum(sorted(w[0, 1:].tolist())[:2])
    for _, i, j in sorted((w[i, j], i, j) for i, j in itertools.combinations(range(1, n), 2)):
        a, b = find(i), find(j)
        if a != b:
            root[a] = b
            weight += w[i, j]
    return weight


def random_order_length(d, seed):
    return order_length(d, np.random.default_rng(seed).permutation(d.shape[0]))


class TestOneTree:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_kruskal(self, seed, ties):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 25))
        x = rng.integers(0, 4, size=(n, n)) if ties else rng.random((n, n))
        w = (x + x.T).astype(np.float64)
        weight, deg = _one_tree(w.copy())
        assert weight == pytest.approx(reference_one_tree(w), abs=1e-12)
        # n edges: n - 2 in the tree and two at city 0
        assert deg.sum() == 2 * n and deg[0] == 2 and deg.min() >= 1


class TestOneTreeBound:
    @pytest.mark.parametrize("n", range(3, 21))
    def test_at_most_the_optimum(self, n):
        inst = generate_random(n, n)
        d = distance_matrix(inst)
        _, opt = held_karp_exact(inst)
        # the bound holds whatever tour length the ascent aims at
        for upper in (opt, random_order_length(d, n)):
            assert one_tree_bound(d, upper) <= opt + 1e-12

    @pytest.mark.parametrize("n", range(3, 17))
    def test_at_most_the_optimum_on_grid_ties(self, n):
        # a 4 x 4 integer grid: many equal distances and repeated cities
        for seed in range(2):
            inst = _integer_grid(n, seed)
            d = distance_matrix(inst)
            _, opt = held_karp_exact(inst)
            for upper in (opt, random_order_length(d, seed)):
                assert one_tree_bound(d, upper) <= opt + 1e-12

    def test_full_grid_is_tight(self):
        # the 16 points of the 4 x 4 grid: an optimal tour has 16 unit edges,
        # and so does the first minimum 1-tree
        coords = np.array(list(itertools.product(range(4), repeat=2)), dtype=np.float64)
        inst = Instance(coords=coords[np.random.default_rng(3).permutation(16)])
        _, opt = held_karp_exact(inst)
        assert opt == pytest.approx(16.0, abs=1e-12)
        assert one_tree_bound(distance_matrix(inst), opt) == pytest.approx(16.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["duplicates", "collinear"])
    def test_at_most_the_optimum_on_degenerate_goldens(self, name):
        inst = GOLDEN_HELD_KARP[name][0]
        d = distance_matrix(inst)
        _, opt = held_karp_exact(inst)
        for upper in (opt, random_order_length(d, 0)):
            assert one_tree_bound(d, upper) <= opt + 1e-12

    def test_equals_the_optimum_when_the_one_tree_becomes_a_tour(self, monkeypatch):
        inst = generate_random(20, 1)
        d = distance_matrix(inst)
        _, opt = held_karp_exact(inst)
        trees = []

        def spy(w):
            trees.append(_one_tree(w))
            return trees[-1]

        monkeypatch.setattr(bounds_mod, "_one_tree", spy)
        bound = one_tree_bound(d, opt)
        # the ascent stopped at a 1-tree in which every city has degree 2
        assert len(trees) < ASCENT_ITERATIONS
        assert (trees[-1][1] == 2).all()
        assert abs(bound - opt) <= MIN_GAIN

    @pytest.mark.parametrize("k", [-40, 7])
    @pytest.mark.parametrize("n, seed, tight", [(12, 0, True), (40, 2, False)])
    def test_power_of_two_scales_scale_the_bound(self, k, n, seed, tight, monkeypatch):
        # nothing in the ascent is absolute, so every step scales exactly:
        # aimed at the optimum, the n = 12 ascent ends at a tour; aimed at the
        # nn+2opt tour, the n = 40 one runs to its cap
        inst = generate_random(n, seed)
        d = distance_matrix(inst)
        upper = held_karp_exact(inst)[1] if tight else nn_two_opt_baseline(inst, seed)[1]
        calls = []
        monkeypatch.setattr(bounds_mod, "_one_tree", lambda w: calls.append(1) or _one_tree(w))
        bound = one_tree_bound(d, upper)
        trees = len(calls)
        assert (trees < ASCENT_ITERATIONS) == tight
        assert one_tree_bound(np.ldexp(d, k), math.ldexp(upper, k)) == math.ldexp(bound, k)
        assert len(calls) == 2 * trees

    @pytest.mark.parametrize("shape", [(2, 2), (4, 3), (4,)])
    def test_rejects_a_matrix_that_holds_no_tour(self, shape):
        with pytest.raises(ValueError, match="square distance matrix"):
            one_tree_bound(np.ones(shape), 1.0)

    def test_stops_at_the_upper_bound(self, monkeypatch):
        # a target no longer than the first 1-tree ends the ascent at once
        d = distance_matrix(generate_random(15, 4))
        calls = []
        monkeypatch.setattr(bounds_mod, "_one_tree", lambda w: calls.append(1) or _one_tree(w))
        first, _ = _one_tree(d.copy())
        assert one_tree_bound(d, first) == first
        assert len(calls) == 1
