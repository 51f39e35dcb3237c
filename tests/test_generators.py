"""Instance generators: shapes, cost models, determinism."""

from fractions import Fraction

import pytest

from treesearch import (
    generate_instance,
    is_up_monotonic,
    k_up_modularity,
    serialize_instance,
    tree_instance,
    validate_instance,
)
from treesearch.errors import InvalidParameters


class TestShapes:
    def test_uniform_path(self):
        inst = generate_instance("path", "uniform", 7, seed=5)
        assert inst.edges == tuple((i, i + 1) for i in range(1, 7))
        assert all(c == 1 for c in inst.costs)

    def test_star(self):
        inst = generate_instance("star", "uniform", 6, seed=5)
        assert inst.edges == tuple((1, v) for v in range(2, 7))

    def test_spider_has_at_most_one_branch_vertex(self):
        for seed in range(8):
            inst = generate_instance("spider", "uniform", 17, seed=seed)
            degrees = [len(inst.adjacency[v]) for v in range(1, 18)]
            assert sum(1 for d in degrees if d > 2) <= 1

    def test_random_tree_is_valid(self):
        for seed in range(10):
            inst = generate_instance("random-tree", "random", 25, seed=seed)
            assert validate_instance(inst) == inst

    def test_single_vertex_any_shape(self):
        for shape in ("random-tree", "path", "star", "spider"):
            inst = generate_instance(shape, "uniform", 1, seed=0)
            assert inst.n == 1


class TestCostModels:
    def test_up_monotonic_holds(self):
        inst = generate_instance("random-tree", "up-monotonic", 50, seed=42)
        assert is_up_monotonic(inst)
        assert k_up_modularity(inst)[0] == 1

    def test_up_monotonic_holds_many_seeds(self):
        for seed in range(20):
            inst = generate_instance("random-tree", "up-monotonic", 20, seed=seed)
            assert is_up_monotonic(inst)

    def test_planted_k_exact(self):
        for k in (1, 2, 3, 4):
            inst = generate_instance("random-tree", "planted-k", 20, seed=9, k=k)
            assert k_up_modularity(inst)[0] == k

    def test_planted_k_too_large(self):
        with pytest.raises(InvalidParameters):
            generate_instance("path", "planted-k", 4, seed=0, k=3)

    def test_planted_k_requires_k(self):
        with pytest.raises(InvalidParameters):
            generate_instance("path", "planted-k", 8, seed=0)

    def test_alternating_path_modular_before_rounding(self):
        inst = generate_instance("path", "alternating", 9, seed=0, eps=Fraction(1, 8))
        assert inst.max_cost == 1
        k, _ = k_up_modularity(inst)
        assert k >= 2
        # rounding every cost up to the common ceiling flattens the profile
        rounded = tree_instance(inst.n, inst.edges, [1] * inst.n)
        assert k_up_modularity(rounded)[0] == 1

    def test_alternating_requires_eps(self):
        with pytest.raises(InvalidParameters):
            generate_instance("path", "alternating", 5, seed=0)

    @pytest.mark.parametrize("eps", ["abc", "1/0", pytest.param(object(), id="object")])
    def test_alternating_rejects_non_rational_eps(self, eps):
        with pytest.raises(InvalidParameters, match="not a rational"):
            generate_instance("path", "alternating", 5, seed=0, eps=eps)

    def test_alternating_accepts_eps_string(self):
        as_string = generate_instance("path", "alternating", 5, seed=0, eps="1/8")
        assert as_string == generate_instance("path", "alternating", 5, seed=0, eps=Fraction(1, 8))

    def test_random_costs_in_unit_range(self):
        inst = generate_instance("random-tree", "random", 30, seed=3)
        assert all(0 < c <= 1 for c in inst.costs)


class TestDeterminism:
    def test_identical_arguments_identical_instance(self):
        a = generate_instance("random-tree", "random", 40, seed=123)
        b = generate_instance("random-tree", "random", 40, seed=123)
        assert a == b
        assert serialize_instance(a) == serialize_instance(b)

    def test_seed_changes_instance(self):
        a = generate_instance("random-tree", "random", 40, seed=1)
        b = generate_instance("random-tree", "random", 40, seed=2)
        assert a != b

    def test_all_combinations_generate(self):
        shapes = ("random-tree", "path", "star", "spider")
        models = ("uniform", "random", "up-monotonic", "planted-k", "alternating")
        for shape in shapes:
            for model in models:
                kwargs = {}
                if model == "planted-k":
                    kwargs["k"] = 2
                if model == "alternating":
                    kwargs["eps"] = Fraction(1, 4)
                inst = generate_instance(shape, model, 9, seed=7, **kwargs)
                assert validate_instance(inst) == inst


class TestParameterValidation:
    def test_bad_shape(self):
        with pytest.raises(InvalidParameters):
            generate_instance("cycle", "uniform", 5, seed=0)

    def test_bad_model(self):
        with pytest.raises(InvalidParameters):
            generate_instance("path", "gaussian", 5, seed=0)

    def test_bad_n(self):
        with pytest.raises(InvalidParameters):
            generate_instance("path", "uniform", 0, seed=0)
