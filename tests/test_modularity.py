"""Threshold decompositions and the modularity parameter."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesearch import (
    heavy_modules,
    is_up_monotonic,
    k_up_modularity,
    tree_instance,
)
from treesearch.errors import UnknownVertex

import oracles
from strategies import tree_instances


class TestHeavyModules:
    def test_fixture_threshold_three_fifths(self, fix1):
        modules = heavy_modules(fix1, Fraction(3, 5))
        assert [sorted(m) for m in modules] == [[6], [7], [11]]

    def test_nothing_above_max(self, fix1):
        assert heavy_modules(fix1, Fraction(1)) == ()

    def test_zero_threshold_whole_tree(self, fix1):
        assert heavy_modules(fix1, 0) == (fix1.vertex_set,)

    def test_float_threshold_compares_exactly(self, fix1):
        # 0.6 as a float is slightly below 3/5, so cost-3/5 vertices stay
        # heavy and v7-v9 form one module: {5}, {6}, {7,9}, {11}.
        assert len(heavy_modules(fix1, 0.6)) == 4
        assert len(heavy_modules(fix1, Fraction(3, 5))) == 3
        assert heavy_modules(fix1, 0.5) == heavy_modules(fix1, Fraction(1, 2))

    @given(tree_instances(max_n=24))
    @settings(max_examples=60)
    def test_partition_maximal_nonadjacent(self, inst):
        rng = random.Random(31)
        t = Fraction(rng.randint(0, 12), 12)
        modules = heavy_modules(inst, t)
        heavy = {v for v in inst.vertex_set if inst.cost(v) > t}
        union = set()
        for mod in modules:
            assert not (union & mod)
            union |= mod
        assert union == heavy
        # no two modules touch: that would contradict maximality
        for i, a in enumerate(modules):
            for b in modules[i + 1 :]:
                assert not any(u in b for v in a for u in inst.adjacency[v])


class TestKUpModularity:
    def test_fixture_value_and_witness(self, fix1):
        k, witness = k_up_modularity(fix1)
        assert k == 4
        assert witness == Fraction(1, 5)
        mods = heavy_modules(fix1, witness)
        assert [sorted(m) for m in mods] == [[2, 5, 6], [7, 9], [8], [11]]

    def test_uniform_costs_give_one(self):
        inst = tree_instance(4, [(1, 2), (2, 3), (3, 4)], [1, 1, 1, 1])
        assert k_up_modularity(inst)[0] == 1

    def test_alternating_path(self):
        inst = tree_instance(5, [(1, 2), (2, 3), (3, 4), (4, 5)], [1, 2, 1, 2, 1])
        k, witness = k_up_modularity(inst)
        assert k == 2
        assert witness == 1

    @given(tree_instances(max_n=20))
    @settings(max_examples=80)
    def test_equivalence_with_up_monotonicity(self, inst):
        assert (k_up_modularity(inst)[0] == 1) == is_up_monotonic(inst)

    @given(tree_instances(min_n=2, max_n=18))
    @settings(max_examples=60)
    def test_subtree_never_exceeds_whole(self, inst):
        rng = random.Random(41)
        sub = oracles.random_connected_subset(inst, rng.randint(1, inst.n), rng)
        assert k_up_modularity(inst, within=sub)[0] <= k_up_modularity(inst)[0]

    @given(tree_instances(max_n=18))
    @settings(max_examples=60)
    def test_module_count_never_exceeds_k(self, inst):
        k, _ = k_up_modularity(inst)
        rng = random.Random(43)
        for _ in range(4):
            t = Fraction(rng.randint(0, 14), 14)
            assert len(heavy_modules(inst, t)) <= k


class TestIsUpMonotonic:
    def test_monotone_star(self):
        inst = tree_instance(4, [(1, 2), (1, 3), (1, 4)], [1, "1/2", "1/2", "1/2"])
        assert is_up_monotonic(inst)

    def test_fixture_not_monotone(self, fix1):
        assert not is_up_monotonic(fix1)

    def test_dip_on_path(self):
        inst = tree_instance(3, [(1, 2), (2, 3)], [1, "1/4", "1/2"])
        assert not is_up_monotonic(inst)
        k, witness = k_up_modularity(inst)
        assert k == 2
        assert witness == Fraction(1, 4)

    def test_two_adjacent_maxima(self):
        inst = tree_instance(2, [(1, 2)], [1, 1])
        assert is_up_monotonic(inst)
        assert k_up_modularity(inst)[0] == 1

    def test_two_separated_maxima(self):
        inst = tree_instance(3, [(1, 2), (2, 3)], [1, "1/2", 1])
        assert not is_up_monotonic(inst)
        assert k_up_modularity(inst)[0] == 2


def path3():
    return tree_instance(3, [(1, 2), (2, 3)], [1, "1/2", 1])


class TestUnknownVertices:
    @pytest.mark.parametrize("within", [{1, 9}, {0, 1}, {-1, 2}, {4}])
    def test_heavy_modules_rejects_ids_outside_range(self, within):
        with pytest.raises(UnknownVertex):
            heavy_modules(path3(), 0, within=within)

    @pytest.mark.parametrize("within", [{1, 9}, {0, 1}, {-1, 2}, {4}])
    def test_k_up_modularity_rejects_ids_outside_range(self, within):
        with pytest.raises(UnknownVertex):
            k_up_modularity(path3(), within=within)

    def test_empty_within(self):
        assert heavy_modules(path3(), 0, within=set()) == ()
        assert k_up_modularity(path3(), within=set()) == (0, 0)


class TestAgainstThresholdScan:
    """The union-find sweep and integer cutoffs against the rational scan."""

    @given(tree_instances(max_n=24))
    @settings(max_examples=150)
    def test_whole_tree(self, inst):
        assert k_up_modularity(inst) == oracles.reference_k_up_modularity(inst)

    @given(tree_instances(max_n=24), st.data())
    @settings(max_examples=150)
    def test_within(self, inst, data):
        sub = data.draw(st.sets(st.integers(1, inst.n)))
        assert k_up_modularity(inst, within=sub) == oracles.reference_k_up_modularity(
            inst, within=sub
        )

    @given(tree_instances(max_n=24, cost_steps=5), st.data())
    @settings(max_examples=100)
    def test_heavy_modules(self, inst, data):
        sub = data.draw(st.none() | st.sets(st.integers(1, inst.n)))
        c = data.draw(st.sampled_from(inst.costs))
        for t in (c, float(c), math.nextafter(float(c), 0.0), Fraction(c.numerator, c.denominator + 1)):
            assert heavy_modules(inst, t, within=sub) == oracles.reference_heavy_modules(
                inst, t, within=sub
            )
