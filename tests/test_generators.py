"""Instance generators: shapes, cost models, determinism."""

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesearch import (
    generate_instance,
    generators,
    is_up_monotonic,
    k_up_modularity,
    parse_instance,
    serialize_instance,
    tree_instance,
    validate_instance,
)
from treesearch.errors import InvalidParameters
from treesearch.generators import COST_MODELS, SHAPES

import oracles


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

    @pytest.mark.parametrize("eps", [
        "1e99999999",  # the exponent alone exceeds the digit limit
        "1e-999999",
        pytest.param(float("inf"), id="inf"),
        pytest.param(float("nan"), id="nan"),
        pytest.param("1/" + "3" * 4301, id="eps-digits"),
        pytest.param("9" * 4300, id="derived-cost-digits"),  # 1 + eps has 4301 digits
    ])
    def test_alternating_rejects_eps_past_the_digit_limit(self, eps):
        with pytest.raises(InvalidParameters):
            generate_instance("path", "alternating", 5, seed=1, eps=eps)

    def test_alternating_eps_at_the_digit_limit_is_written(self):
        limit = sys.get_int_max_str_digits()
        inst = generate_instance("path", "alternating", 3, seed=1, eps=f"1e-{limit - 1}")
        assert len(str(inst.costs[0].numerator)) == limit
        assert parse_instance(serialize_instance(inst)) == inst

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

    @pytest.mark.parametrize("n, k", [(2.5, 2), (None, 2), (True, 1), (8, "3"), (8, 2.0),
                                      (8, True), (8, False)])
    def test_n_and_k_must_be_ints(self, n, k):
        with pytest.raises(InvalidParameters, match="must be an integer"):
            generate_instance("path", "planted-k", n, seed=0, k=k)


EPS_VALUES = (None, Fraction(1, 8), "1/3", 0.25, "2", 0, -1, "abc")


class TestAgainstReference:
    """The package's generator and writer against their earlier versions in ``oracles``."""

    @given(
        st.sampled_from(SHAPES),
        st.sampled_from(COST_MODELS),
        st.integers(1, 400),
        st.integers(0, 2**64),
        st.integers(1, 5),
        st.sampled_from(EPS_VALUES),
    )
    @settings(max_examples=400)
    def test_same_instance_same_text_or_same_error(self, shape, model, n, seed, k, eps):
        got = oracles.outcome(generate_instance, shape, model, n, seed, k=k, eps=eps)
        want = oracles.outcome(oracles.reference_generate_instance, shape, model, n, seed,
                               k=k, eps=eps)
        assert got == want
        if isinstance(want, type):  # both raised this error class
            return
        text = serialize_instance(got)
        assert text == oracles.reference_serialize_instance(want)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_prufer_decode_matches_the_heap_decode(self):
        rng = random.Random(3)
        for n in list(range(3, 12)) * 40 + [200, 1000]:
            seq = [rng.randint(1, n) for _ in range(n - 2)]
            assert generators._prufer_decode(seq, n) == oracles.reference_prufer_decode(seq, n)

    def test_independent_set_matches_the_rescan(self):
        for shape in SHAPES:
            for seed in range(40):
                inst = generate_instance(shape, "uniform", 2 + seed % 23, seed)
                edges = list(inst.edges)
                assert (generators._max_independent_set(inst.n, edges)
                        == oracles.reference_max_independent_set(inst.n, edges))


# A fixed corpus: every shape and cost model at n 60, and one planted-k
# random tree of n 20 000.  Its digest changes whenever any generated
# instance or its text does.
PINNED_CORPUS = [(shape, model, 60, 7, 3, Fraction(1, 8)) for shape in SHAPES
                 for model in COST_MODELS] + [("random-tree", "planted-k", 20000, 1, 3, None)]
PINNED_SHA256 = "c7d605ed7bcf560a6076b565ab6b63787a59135ed4b171e4a62c2ad387daecac"


def test_pinned_corpus_text():
    digest = hashlib.sha256()
    for shape, model, n, seed, k, eps in PINNED_CORPUS:
        digest.update(serialize_instance(generate_instance(shape, model, n, seed, k=k, eps=eps))
                      .encode())
    assert digest.hexdigest() == PINNED_SHA256
