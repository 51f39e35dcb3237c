"""Exact solver against enumeration and plain-recursion oracles."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesearch import (
    SolveLimits,
    evaluate_cost,
    opt_exact,
    tree_instance,
    validate_decision_tree,
)
from treesearch.core import rooted_order
from treesearch.errors import InvalidParameters, NotConnected, StateLimitExceeded
from treesearch.exact import _solve_path

import oracles
from strategies import any_tree_instances, path_instances, rooted_paths, tree_instances

# Exact optimum of the reference instance; the worked strategy D_FIX2
# costs 11/5, the optimum is strictly better.  Cross-checked against the
# plain-recursion oracle in test_fixture_value below.
FIX1_OPT = Fraction(9, 5)


class TestOptExact:
    def test_single_vertex(self):
        inst = tree_instance(1, [], ["3/7"])
        opt, witness = opt_exact(inst)
        assert opt == Fraction(3, 7)
        assert witness.root == 1

    def test_uniform_path7(self):
        inst = tree_instance(7, [(i, i + 1) for i in range(1, 7)], [1] * 7)
        opt, witness = opt_exact(inst)
        assert opt == 3
        assert opt == math.floor(math.log2(7)) + 1
        assert opt == min(
            evaluate_cost(inst, d) for d in oracles.enumerate_strategies(inst)
        )

    def test_fixture_value(self, fix1):
        opt, witness = opt_exact(fix1)
        assert opt == FIX1_OPT
        assert opt == oracles.brute_opt(fix1)
        assert opt <= Fraction(11, 5)
        validate_decision_tree(fix1, witness)
        assert evaluate_cost(fix1, witness) == opt

    def test_deterministic_witness(self, fix1):
        assert opt_exact(fix1) == opt_exact(fix1)

    def test_state_limit(self):
        star = tree_instance(12, [(1, v) for v in range(2, 13)], [1] * 12)
        with pytest.raises(StateLimitExceeded):
            opt_exact(star, limits=SolveLimits(max_states=16))

    def test_disconnected_subset_rejected(self, fix1):
        with pytest.raises(NotConnected):
            opt_exact(fix1, within={3, 8})

    def test_within_matches_sub_oracle(self, fix1):
        sub = frozenset({7, 9, 10, 11})
        opt, witness = opt_exact(fix1, within=sub)
        assert opt == oracles.brute_opt(fix1, sub)
        validate_decision_tree(fix1, witness, within=sub)
        assert witness.vertex_set == sub

    @given(tree_instances(max_n=7))
    @settings(max_examples=30, deadline=None)
    def test_matches_enumeration(self, inst):
        opt, witness = opt_exact(inst)
        assert opt == min(
            evaluate_cost(inst, d) for d in oracles.enumerate_strategies(inst)
        )
        assert evaluate_cost(inst, witness) == opt

    @given(tree_instances(max_n=12))
    @settings(max_examples=40, deadline=None)
    def test_matches_plain_recursion(self, inst):
        opt, witness = opt_exact(inst)
        assert opt == oracles.brute_opt(inst)
        validate_decision_tree(inst, witness)
        assert evaluate_cost(inst, witness) == opt

    @given(tree_instances(min_n=2, max_n=12))
    @settings(max_examples=40, deadline=None)
    def test_subtree_monotonicity(self, inst):
        rng = random.Random(53)
        sub = oracles.random_connected_subset(inst, rng.randint(1, inst.n), rng)
        assert opt_exact(inst, within=sub)[0] <= opt_exact(inst)[0]

    @given(tree_instances(max_n=13))
    @settings(max_examples=40, deadline=None)
    def test_normalized_bounds(self, inst):
        norm, _ = oracles.normalize(inst)
        opt, _ = opt_exact(norm)
        assert 1 <= opt <= math.floor(math.log2(norm.n)) + 1

    def test_no_strategy_beats_it(self, fix1, dfix2):
        opt, _ = opt_exact(fix1)
        assert opt <= evaluate_cost(fix1, dfix2)

    def test_state_budget_below_one_rejected(self):
        with pytest.raises(InvalidParameters):
            SolveLimits(max_states=0)

    @pytest.mark.parametrize("budget", ["5", None, True, False, 2.5, 8.0])
    def test_state_budget_must_be_an_int(self, budget):
        with pytest.raises(InvalidParameters, match="max_states must be an integer"):
            SolveLimits(budget)

    @pytest.mark.parametrize("limits", [5, "5", 2.5])
    def test_limits_must_be_solve_limits(self, limits):
        star = tree_instance(4, [(1, 2), (1, 3), (1, 4)], [1, 2, 3, 4])
        with pytest.raises(InvalidParameters, match="limits must be a SolveLimits"):
            opt_exact(star, limits=limits)

    def test_deep_non_path_recursion_is_state_limit(self):
        n = 1500
        edges = [(i, i + 1) for i in range(1, n)] + [(n // 2, n + 1)]
        tree = tree_instance(n + 1, edges, [1] * (n + 1))
        with pytest.raises(StateLimitExceeded, match="recursion depth"):
            opt_exact(tree)

    def test_long_uniform_path_solves(self):
        n = 300
        path = tree_instance(n, [(i, i + 1) for i in range(1, n)], [1] * n)
        opt, witness = opt_exact(path)
        assert opt == math.floor(math.log2(n)) + 1
        validate_decision_tree(path, witness)
        assert evaluate_cost(path, witness) == opt


def _outcome(solver, inst, limits, within=None):
    try:
        value, witness = solver(inst, limits=limits, within=within)
    except StateLimitExceeded:
        return "state-limit"
    return value, witness.root, witness.children


def _is_path(inst) -> bool:
    return all(len(inst.adjacency[v]) <= 2 for v in inst.vertex_set)


@st.composite
def sub_paths(draw):
    """An instance and the vertices of the tree path between two of its vertices."""
    inst = draw(any_tree_instances(min_n=2, max_n=12))
    u = draw(st.integers(1, inst.n))
    v = draw(st.integers(1, inst.n))
    _order, parent = rooted_order(inst, inst.vertex_set, u)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return inst, frozenset(path)


def _check_path_budgets(inst, within=None):
    """Every budget from 1 to ``m(m+1)/2`` on a path of ``m`` vertices.

    The path solve fails exactly below ``m(m-1)/2``, never where the
    reference succeeds, and otherwise gives the reference's value and
    witness.
    """
    m = len(inst.subset(within))
    expected = _outcome(oracles.reference_opt_exact, inst, None, within)
    for max_states in range(1, m * (m + 1) // 2 + 1):
        limits = SolveLimits(max_states)
        new = _outcome(opt_exact, inst, limits, within)
        assert new == ("state-limit" if max_states < m * (m - 1) // 2 else expected)
        ref = _outcome(oracles.reference_opt_exact, inst, limits, within)
        if ref != "state-limit":
            assert new == ref


class TestAgainstSearchSolver:
    """The edge-side solver memoises the same sets as the search-based one.

    Paths are solved apart and count ``m(m-1)/2`` interval states, so on a
    path only results, and the rule that the new solver never fails where
    the reference succeeds, are compared.
    """

    @given(any_tree_instances(max_n=12))
    @settings(max_examples=60, deadline=None)
    def test_same_value_witness_and_limit(self, inst):
        for max_states in (8, 64, 512, None):
            limits = SolveLimits(max_states) if max_states else None
            ref = _outcome(oracles.reference_opt_exact, inst, limits)
            if ref == "state-limit" and _is_path(inst):
                continue  # paths count intervals only; see test_paths_every_budget
            assert _outcome(opt_exact, inst, limits) == ref

    @given(path_instances())
    @settings(max_examples=60, deadline=None)
    def test_paths_every_budget(self, inst):
        _check_path_budgets(inst)

    @given(sub_paths())
    @settings(max_examples=40, deadline=None)
    def test_sub_paths_every_budget(self, drawn):
        inst, within = drawn
        _check_path_budgets(inst, within)

    @given(any_tree_instances(min_n=2, max_n=12))
    @settings(max_examples=30, deadline=None)
    def test_same_result_within_subset(self, inst):
        rng = random.Random(inst.n)
        sub = oracles.random_connected_subset(inst, rng.randint(1, inst.n), rng)
        assert opt_exact(inst, within=sub) == oracles.reference_opt_exact(inst, within=sub)


class TestPathSolveAgainstScan:
    """The sliding-window path solve against the candidate scan it replaced."""

    @given(rooted_paths())
    @settings(max_examples=150, deadline=None)
    def test_same_value_root_and_children(self, drawn):
        inst, root = drawn
        order, parent = rooted_order(inst, inst.vertex_set, root)
        budget = inst.n * inst.n
        assert _solve_path(order, parent, inst.weights, budget) == (
            oracles.reference_solve_path(order, parent, inst.weights, budget)
        )
