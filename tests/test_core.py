"""Core model: instance validation, splitting, strategy validity, costs."""

import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treesearch
from treesearch import (
    DecisionTree,
    QuerySequence,
    create_decision_tree,
    evaluate_cost,
    export_dot,
    generate_instance,
    heavy_modules,
    opt_exact,
    query_sequence,
    ranking_based_dt,
    separator_sets,
    split_components,
    tree_instance,
    validate_decision_tree,
    validate_instance,
    vertex_ranking,
    TreeInstance,
)
from treesearch.core import induced_components, rooted_order
from treesearch.errors import (
    ComponentMismatch,
    DuplicateVertex,
    InvalidCost,
    InvalidDecisionTree,
    InvalidParameters,
    MissingVertex,
    NonPositiveCost,
    NotATree,
    NotConnected,
    QueryOutsideCandidate,
    UnknownVertex,
    VertexNotInCandidate,
)

import oracles
from strategies import any_tree_instances, tree_instances


class TestValidateInstance:
    def test_path_accepted(self):
        inst = tree_instance(3, [(1, 2), (2, 3)], [1, 1, 1])
        assert inst.n == 3
        assert inst.edges == ((1, 2), (2, 3))

    def test_fixture_accepted(self, fix1):
        assert fix1.n == 11
        assert fix1.cost(7) == 1
        assert fix1.max_cost == 1

    def test_duplicate_edge_rejected(self):
        with pytest.raises(NotATree):
            tree_instance(3, [(1, 2), (1, 2)], [1, 1, 1])

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(NotATree):
            tree_instance(3, [(1, 2)], [1, 1, 1])

    def test_cycle_rejected(self):
        with pytest.raises(NotATree):
            tree_instance(4, [(1, 2), (2, 3), (3, 1)], [1, 1, 1, 1])

    def test_self_loop_rejected(self):
        with pytest.raises(NotATree):
            tree_instance(2, [(1, 1)], [1, 1])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(NotATree):
            tree_instance(2, [(1, 3)], [1, 1])

    @pytest.mark.parametrize("n, edges, costs", [
        (2.7, [(1, 2)], [1, 1]), ("a", [(1, 2)], [1, 1]), (True, [], [1]),
        (2, [(1, 2.0)], [1, 1]), (2, [("1", 2)], [1, 1]), (2, [(True, 2)], [1, 1]),
        (2, [(1, 2, 3)], [1, 1]), (2, [1], [1, 1]), (2, None, [1, 1]), (2, [(1, 2)], None),
    ])
    def test_malformed_parts_rejected(self, n, edges, costs):
        with pytest.raises(NotATree):
            tree_instance(n, edges, costs)

    def test_zero_cost_rejected(self):
        with pytest.raises(NonPositiveCost) as err:
            tree_instance(2, [(1, 2)], [1, 0])
        assert err.value.vertex == 2

    @pytest.mark.parametrize("cost", [0, -1, "-2/3", Fraction(0), Fraction(-1, 7), "0.0"])
    def test_non_positive_forms_rejected(self, cost):
        with pytest.raises(NonPositiveCost) as err:
            tree_instance(2, [(1, 2)], [cost, 1])
        assert err.value.vertex == 1 and err.value.cost == Fraction(cost)

    def test_cost_forms_become_fractions(self):
        half = Fraction(1, 2)
        inst = tree_instance(4, [(1, 2), (2, 3), (3, 4)], [half, 3, "6/4", "2.5e-1"])
        assert inst.costs == (half, 3, Fraction(3, 2), Fraction(1, 4))
        assert all(type(c) is Fraction for c in inst.costs)
        assert inst.costs[0] is half

    @pytest.mark.parametrize(
        "cost",
        ["abc", "1/0", "", 1.5j, None, float("nan"), float("inf"), "1e999999999",
         f"1e-{sys.get_int_max_str_digits()}", -(10 ** sys.get_int_max_str_digits())],
        ids=["text", "zero-denominator", "empty", "complex", "none", "nan", "inf",
             "huge-exponent", "long-decimal", "long-int"],
    )
    def test_unconvertible_or_too_long_cost_is_typed(self, cost):
        with pytest.raises(InvalidCost, match="vertex 2"):
            tree_instance(2, [(1, 2)], [1, cost])
        assert issubclass(InvalidCost, ValueError)  # what Fraction itself raised

    def test_fraction_past_the_digit_limit_is_typed(self):
        limit = sys.get_int_max_str_digits()
        for cost in (Fraction(1, 10**limit), Fraction(10**limit), Fraction(-(10**limit), 3)):
            with pytest.raises(InvalidCost, match="vertex 2"):
                tree_instance(2, [(1, 2)], [1, cost])
        within = Fraction(1, 10**limit - 1)
        shared = tree_instance(3, [(1, 2), (2, 3)], [within, 1, within])
        assert shared.costs[0] is within and shared.costs[2] is within

    def test_every_cost_converts_before_signs_are_checked(self):
        with pytest.raises(InvalidCost):
            tree_instance(2, [(1, 2)], [0, "abc"])

    def test_equal_tokens_convert_to_one_value(self):
        inst = tree_instance(4, [(1, 2), (2, 3), (3, 4)], ["2/6", "2/6", 5, 5])
        assert inst.costs == (Fraction(1, 3),) * 2 + (Fraction(5),) * 2
        assert inst.costs[0] is inst.costs[1] and inst.costs[2] is inst.costs[3]

    def test_edge_canonicalization(self):
        inst = tree_instance(3, [(3, 2), (2, 1)], [1, 1, 1])
        assert inst.edges == ((1, 2), (2, 3))

    def test_validate_raw_instance_directly(self):
        raw = TreeInstance(2, ((2, 1),), (Fraction(1), Fraction(1, 2)))
        checked = validate_instance(raw)
        assert checked.edges == ((1, 2),)


class TestNormalize:
    def test_simple_division(self):
        inst = tree_instance(3, [(1, 2), (2, 3)], [2, 4, 4])
        norm, scale = oracles.normalize(inst)
        assert scale == 4
        assert norm.costs == (Fraction(1, 2), Fraction(1), Fraction(1))

    def test_already_normalized_unchanged(self, fix1):
        norm, scale = oracles.normalize(fix1)
        assert scale == 1
        assert norm is fix1

    def test_single_vertex(self):
        inst = tree_instance(1, [], ["3/7"])
        norm, scale = oracles.normalize(inst)
        assert scale == Fraction(3, 7)
        assert norm.costs == (Fraction(1),)

    @given(tree_instances(max_n=16))
    def test_scaling_preserves_costs_exactly(self, inst):
        assert inst.max_cost == max(inst.costs) and type(inst.max_cost) is Fraction
        norm, scale = oracles.normalize(inst)
        assert norm.max_cost == 1
        assert tuple(c * scale for c in norm.costs) == inst.costs


class TestSplitComponents:
    def test_fixture_split_at_v4(self, fix1):
        comps = split_components(fix1, fix1.vertex_set, 4)
        assert comps == [
            frozenset({1, 2, 3, 5, 6}),
            frozenset({7, 9, 10, 11}),
            frozenset({8}),
        ]

    def test_leaf_removal(self, fix1):
        assert split_components(fix1, {2, 6}, 2) == [frozenset({6})]

    def test_single_vertex_empty(self, fix1):
        assert split_components(fix1, {7}, 7) == []

    def test_vertex_not_in_candidate(self, fix1):
        with pytest.raises(VertexNotInCandidate):
            split_components(fix1, {2, 6}, 4)

    @given(tree_instances(max_n=20))
    @settings(max_examples=60)
    def test_partition_property(self, inst):
        rng = random.Random(11)
        verts = sorted(inst.vertex_set)
        v = rng.choice(verts)
        comps = split_components(inst, inst.vertex_set, v)
        union = set()
        for comp in comps:
            assert not (union & comp)
            union |= comp
        assert union == inst.vertex_set - {v}


class TestTraversalKernel:
    def test_fixture_components_smallest_vertex_first(self, fix1):
        assert induced_components(fix1, {11, 8, 3, 1, 9, 10}) == [
            frozenset({1, 3}),
            frozenset({8}),
            frozenset({9, 10, 11}),
        ]

    def test_fixture_rooted_at_v4(self, fix1):
        order, parent = rooted_order(fix1, {1, 2, 4, 5, 7, 8}, 4)
        assert order == [4, 1, 7, 8, 2, 5]
        assert parent == {4: 0, 1: 4, 7: 4, 8: 4, 2: 1, 5: 2}

    def test_root_outside_set_rejected(self, fix1):
        with pytest.raises(NotConnected):
            rooted_order(fix1, {1, 2}, 3)
        with pytest.raises(NotConnected):
            rooted_order(fix1, set(), 1)

    @given(any_tree_instances(max_n=24), st.data())
    @settings(max_examples=200)
    def test_against_oracle(self, inst, data):
        verts = data.draw(st.sets(st.integers(1, inst.n)))
        expected = oracles.induced_components(inst, verts)
        assert induced_components(inst, verts) == expected
        if not verts:
            return
        root = data.draw(st.sampled_from(sorted(verts)))
        if len(expected) > 1:
            with pytest.raises(NotConnected):
                rooted_order(inst, verts, root)
            return
        order, parent = rooted_order(inst, verts, root)
        assert order[0] == root and parent[root] == 0
        assert sorted(order) == sorted(verts) == sorted(parent)
        position = {v: i for i, v in enumerate(order)}
        for v in order[1:]:
            assert parent[v] in inst.adjacency[v]
            assert position[parent[v]] < position[v]


def _heavy_agrees(inst, t):
    cut = inst.cutoff(t)
    for v in range(1, inst.n + 1):
        assert (inst.cost(v) > t) == (inst.weights[v] > cut), (v, t)


class TestIntegerWeights:
    def test_fixture_weights(self, fix1):
        assert fix1.denominator == 5
        assert fix1.weights == (0, 1, 2, 1, 1, 3, 4, 5, 2, 3, 1, 4)

    def test_float_between_neighbouring_costs(self, fix1):
        # 0.6 lies just below 3/5, so cost-3/5 vertices count as above it.
        assert fix1.cutoff(0.6) == 2
        assert fix1.cutoff(Fraction(3, 5)) == 3
        assert fix1.cutoff(1) == 5

    @pytest.mark.parametrize("threshold", ["1/2", None, Decimal("NaN"), Decimal("Infinity")])
    def test_threshold_without_a_ratio_is_typed(self, threshold):
        inst = generate_instance("path", "random", 5, 1)
        for call in (lambda: inst.cutoff(threshold),
                     lambda: heavy_modules(inst, threshold),
                     lambda: separator_sets(inst, inst.vertex_set, threshold)):
            with pytest.raises(InvalidParameters, match="threshold is not a rational"):
                call()

    def test_decimal_threshold(self, fix1):
        assert fix1.cutoff(Decimal("0.6")) == fix1.cutoff(Fraction(3, 5)) == 3
        _heavy_agrees(fix1, Decimal("0.35"))

    def test_non_finite_floats(self, fix1):
        _heavy_agrees(fix1, math.inf)
        _heavy_agrees(fix1, -math.inf)
        _heavy_agrees(fix1, math.nan)

    @given(tree_instances(max_n=12), st.data())
    @settings(max_examples=150)
    def test_cutoff_against_direct_comparison(self, inst, data):
        t = data.draw(st.fractions(min_value=-1, max_value=2, max_denominator=60))
        _heavy_agrees(inst, t)
        _heavy_agrees(inst, data.draw(st.integers(-2, 3)))
        for c in inst.costs:
            _heavy_agrees(inst, c)
            f = float(c)
            for x in (f, math.nextafter(f, 0.0), math.nextafter(f, math.inf)):
                _heavy_agrees(inst, x)

    @given(
        st.lists(st.fractions(min_value=Fraction(1, 10**6), max_value=10**3,
                              max_denominator=10**6), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=150)
    def test_cutoff_with_mixed_denominators(self, costs, data):
        n = len(costs)
        inst = tree_instance(n, [(i, i + 1) for i in range(1, n)], costs)
        assert all(Fraction(w, inst.denominator) == c for w, c in zip(inst.weights[1:], costs))
        for c in inst.costs:
            f = float(c)
            for x in (f, math.nextafter(f, 0.0), math.nextafter(f, math.inf)):
                _heavy_agrees(inst, x)
        _heavy_agrees(inst, data.draw(st.floats(allow_nan=True)))


class TestValidateDecisionTree:
    def test_fixture_strategy_accepted(self, fix1, dfix2):
        assert validate_decision_tree(fix1, dfix2) is dfix2

    def test_single_vertex(self):
        inst = tree_instance(1, [], [1])
        validate_decision_tree(inst, DecisionTree(1, {}))

    def test_reparented_child_rejected(self, fix1):
        bad = DecisionTree(
            4, {4: (5, 9), 5: (1, 8), 9: (7, 11), 1: (2, 3), 11: (10,), 2: (6,)}
        )
        with pytest.raises((QueryOutsideCandidate, ComponentMismatch)):
            validate_decision_tree(fix1, bad)

    def test_missing_vertex(self, fix1):
        bad = DecisionTree(4, {4: (5, 8, 9), 9: (7, 11), 11: (10,)})
        with pytest.raises(MissingVertex):
            validate_decision_tree(fix1, bad)

    def test_duplicate_vertex(self, fix1):
        bad = DecisionTree(4, {4: (5, 8, 9), 5: (1,), 9: (7, 11), 1: (2, 3), 11: (10,), 2: (6, 8)})
        with pytest.raises(DuplicateVertex):
            validate_decision_tree(fix1, bad)

    def test_unreachable_cycle_rejected(self):
        inst = tree_instance(4, [(1, 2), (2, 3), (3, 4)], [1, 1, 1, 1])
        bad = DecisionTree(1, {2: (3,), 3: (4,), 4: (2,)})
        with pytest.raises(InvalidDecisionTree):
            validate_decision_tree(inst, bad)

    def test_within_restricts_universe(self, fix1):
        sub = DecisionTree(9, {9: (7, 11), 11: (10,)})
        validate_decision_tree(fix1, sub, within={7, 9, 10, 11})
        with pytest.raises(MissingVertex):
            validate_decision_tree(fix1, sub)


P3 = tree_instance(3, [(1, 2), (2, 3)], [1, 2, "5/7"])


class TestWithinIds:
    def test_subset(self):
        assert P3.subset(None) is P3.vertex_set
        assert P3.subset([3, 1, 3]) == frozenset({1, 3})
        assert P3.subset(()) == frozenset()
        with pytest.raises(UnknownVertex):
            P3.subset({1, 4})

    @pytest.mark.parametrize("within", [5, [2.0], [True], ["1"], [[1]]])
    def test_within_of_ids_that_are_not_ints(self, within):
        with pytest.raises(InvalidParameters):
            P3.subset(within)
        with pytest.raises(InvalidParameters):
            vertex_ranking(P3, within=within)

    def test_strategy_that_is_not_a_decision_tree(self):
        with pytest.raises(InvalidParameters):
            evaluate_cost(P3, None)
        with pytest.raises(InvalidParameters):
            validate_decision_tree(P3, None)

    @pytest.mark.parametrize("children", [{2: 5}, 5, [(1, 2, 3)]])
    def test_child_lists_that_are_not_lists(self, children):
        with pytest.raises(InvalidDecisionTree):
            DecisionTree(2, children)

    def test_evaluate_cost_rejects_vertex_0(self):
        with pytest.raises(UnknownVertex):
            evaluate_cost(P3, DecisionTree(0, {}), within={0})

    def test_validate_rejects_vertex_past_n(self):
        with pytest.raises(UnknownVertex):
            validate_decision_tree(P3, DecisionTree(99, {}), within={99})

    def test_opt_exact_rejects_vertex_0(self):
        with pytest.raises(UnknownVertex):
            opt_exact(P3, within={0})

    def test_ranking_based_dt_rejects_vertex_0(self):
        with pytest.raises(UnknownVertex):
            ranking_based_dt(P3, within={0})

    def test_opt_exact_rejects_vertex_past_n(self):
        with pytest.raises(UnknownVertex):
            opt_exact(P3, within={99})

    @pytest.mark.parametrize("v", [0, -1, 4])
    def test_cost_rejects_ids_outside_1_to_n(self, v):
        with pytest.raises(UnknownVertex):
            P3.cost(v)

    def test_query_sequence_rejects_vertex_0(self):
        with pytest.raises(UnknownVertex):
            query_sequence(P3, DecisionTree(0, {0: (1,)}), 1)

    def test_export_dot_rejects_vertex_0(self):
        with pytest.raises(UnknownVertex):
            export_dot(inst=P3, strategy=DecisionTree(0, {0: (1,)}))


def _run_briefly(call: str) -> str:
    """Run ``call`` in a fresh interpreter with a timeout; print its error type."""
    script = (
        "from treesearch import DecisionTree, attach_subtree, query_sequence, tree_instance\n"
        "from treesearch.errors import TreeSearchError\n"
        "P3 = tree_instance(3, [(1, 2), (2, 3)], [1, 2, '5/7'])\n"
        "P5 = tree_instance(5, [(1, 2), (2, 3), (3, 4), (4, 5)], [1] * 5)\n"
        "try:\n"
        f"    {call}\n"
        "except TreeSearchError as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(treesearch.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=20)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestCyclicChildMaps:
    def test_depth(self):
        assert _run_briefly("DecisionTree(1, {1: (2,), 2: (1,)}).depth") == "DuplicateVertex"

    def test_query_sequence(self):
        call = "query_sequence(P3, DecisionTree(1, {1: (2,), 2: (3,), 3: (2,)}), 2)"
        assert _run_briefly(call) == "DuplicateVertex"

    def test_query_sequence_on_a_cycle_away_from_the_root(self):
        call = "query_sequence(P3, DecisionTree(1, {2: (3,), 3: (2,)}), 2)"
        assert _run_briefly(call) == "MissingVertex"

    def test_attach_to_a_cyclic_strategy(self):
        call = ("attach_subtree(DecisionTree(2, {2: (1, 3), 3: (2,)}), P5, {4, 5},"
                " DecisionTree(4, {4: (5,)}))")
        assert _run_briefly(call) == "DuplicateVertex"

    def test_attach_a_cyclic_part(self):
        call = ("attach_subtree(DecisionTree(2, {2: (1, 3)}), P5, {4, 5},"
                " DecisionTree(4, {4: (5,), 5: (4,)}))")
        assert _run_briefly(call) == "DuplicateVertex"


def _relabelled(inst, verts, build):
    """``build`` run on the subtree induced by the connected set ``verts``, in ``inst``'s ids."""
    ids = sorted(verts)
    index = {v: i + 1 for i, v in enumerate(ids)}
    sub = tree_instance(
        len(ids),
        [(index[u], index[v]) for u, v in inst.edges if u in index and v in index],
        [inst.cost(v) for v in ids],
    )
    d = build(sub)
    kids = {ids[q - 1]: tuple(ids[c - 1] for c in cs) for q, cs in d.children.items()}
    return DecisionTree(ids[d.root - 1], kids)


BUILDERS = {
    "ranking": ranking_based_dt,
    "approx": lambda inst: create_decision_tree(inst)[0],
    "exact": lambda inst: opt_exact(inst)[1],
}


def _draw_strategy(inst, universe, data):
    """A valid strategy on ``universe``, then 0-3 random mutations of it."""
    build = BUILDERS[data.draw(st.sampled_from(sorted(BUILDERS)))]
    pieces = induced_components(inst, universe)
    if len(pieces) == 1:
        d = _relabelled(inst, universe, build)
        root, children = d.root, {q: list(kids) for q, kids in d.children.items()}
    else:  # any root, then one strategy per component of the rest
        root = data.draw(st.sampled_from(sorted(universe))) if universe else 1
        children = {root: []}
        for piece in induced_components(inst, universe - {root}):
            d = _relabelled(inst, piece, build)
            children[root].append(d.root)
            children.update((q, list(kids)) for q, kids in d.children.items())

    for _ in range(data.draw(st.integers(0, 3))):
        verts = sorted({root}.union(*children.values()))
        edges = [(q, c) for q in sorted(children) for c in children[q]]
        kind = data.draw(st.sampled_from(["reparent", "swap", "rotate", "drop", "add"]))
        if kind == "reparent" and edges:
            q, c = data.draw(st.sampled_from(edges))
            children[q].remove(c)
            children.setdefault(data.draw(st.sampled_from(verts)), []).append(c)
        elif kind == "swap":
            a, b = data.draw(st.sampled_from(verts)), data.draw(st.sampled_from(verts))
            swap = {a: b, b: a}
            root = swap.get(root, root)
            children = {
                swap.get(q, q): [swap.get(c, c) for c in kids] for q, kids in children.items()
            }
        elif kind == "rotate" and children.get(root):
            c = data.draw(st.sampled_from(children[root]))
            children[root].remove(c)
            children.setdefault(c, []).append(root)
            root = c
        elif kind == "drop" and edges:
            q, c = data.draw(st.sampled_from(edges))
            children[q].remove(c)
        elif kind == "add":
            q = data.draw(st.sampled_from(verts))
            children.setdefault(q, []).append(data.draw(st.integers(-1, inst.n + 2)))
    return DecisionTree(root, children)


def _mismatched(inst, d, universe, q):
    """Whether the children of query ``q`` differ from its response components."""

    def below(v):  # a loop, not recursion, so deep strategies stay in bounds
        verts = [v]
        for x in verts:
            verts.extend(d.child_list(x))
        return frozenset(verts)

    cand = universe if q == d.root else below(q)
    return {below(c) for c in d.child_list(q)} != set(split_components(inst, cand, q))


class TestStrategyCheckAgainstReference:
    @given(any_tree_instances(max_n=12), st.data())
    @settings(max_examples=600)
    def test_same_outcome_and_cost(self, inst, data):
        kind = data.draw(st.sampled_from(["all", "connected", "disconnected"]))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        within = universe = oracles.random_connected_subset(inst, rng.randint(1, inst.n), rng)
        if kind == "all":
            within, universe = None, inst.vertex_set
        elif kind == "disconnected":  # drop a vertex with two neighbours in the set
            adjacency = inst.adjacency
            inner = [v for v in sorted(universe) if len(universe.intersection(adjacency[v])) > 1]
            within = universe = (
                universe - {rng.choice(inner)} if inner
                else frozenset(data.draw(st.sets(st.integers(1, inst.n))))
            )
        d = _draw_strategy(inst, universe, data)

        expected = oracles.outcome(oracles.reference_validate_decision_tree, inst, d, within=within)
        assert oracles.outcome(validate_decision_tree, inst, d, within=within) == expected
        assert oracles.outcome(evaluate_cost, inst, d, within=within) == oracles.outcome(
            oracles.reference_evaluate_cost, inst, d, within=within
        )
        if expected is ComponentMismatch:
            with pytest.raises(ComponentMismatch) as caught:
                validate_decision_tree(inst, d, within=within)
            assert _mismatched(inst, d, universe, caught.value.vertex)

    def test_deep_and_wide_strategies(self):
        n = 1500
        rng = random.Random(n)
        inst = oracles.random_attachment_tree(n, rng, oracles.random_costs(n, rng))
        path = tree_instance(n, [(i, i + 1) for i in range(1, n)], [1] * n)
        for instance, d in [
            (inst, ranking_based_dt(inst)),
            (path, DecisionTree(1, {i: (i + 1,) for i in range(1, n)})),
            (path, DecisionTree(n, {i + 1: (i,) for i in range(1, n)})),
        ]:
            assert evaluate_cost(instance, d) == oracles.reference_evaluate_cost(instance, d)


def _deep_mutants(d, rng, count):
    """``count`` copies of ``d``, each with one vertex of its deepest tenth reparented or swapped."""
    parent, order = d.parent_map, d.order
    deep = order[len(order) - max(1, len(order) // 10):]
    for i in range(count):
        v = rng.choice(deep)
        children = {q: list(kids) for q, kids in d.children.items()}
        if i % 2:  # swap v's id with another's
            w = rng.choice(order)
            swap = {v: w, w: v}
            root = swap.get(d.root, d.root)
            children = {swap.get(q, q): [swap.get(c, c) for c in kids] for q, kids in children.items()}
        else:  # move v, with its subtree, below a vertex outside it
            subtree = [v]
            for x in subtree:
                subtree.extend(children.get(x, ()))
            rest = sorted(set(order) - set(subtree) - {parent[v]})
            if not rest:
                continue
            root = d.root
            children[parent[v]].remove(v)
            children.setdefault(rng.choice(rest), []).append(v)
        yield DecisionTree(root, children)


def _leaf_chain(inst):
    """The strategy of depth n that always queries a leaf of what is left."""
    order, _parent = rooted_order(inst, inst.vertex_set, 1)
    order.reverse()
    return DecisionTree(order[0], {a: (b,) for a, b in zip(order, order[1:])})


class TestDeepInvalidStrategies:
    """One deep vertex moved or renamed, against the check that re-runs the search."""

    @pytest.mark.parametrize("shape, n", [("path", 300), ("path", 1500),
                                          ("random", 400), ("random", 1500)])
    def test_same_outcome_and_a_mismatched_query(self, shape, n):
        rng = random.Random(n)
        if shape == "path":
            inst = tree_instance(n, [(i, i + 1) for i in range(1, n)], [1] * n)
        else:
            inst = oracles.random_attachment_tree(n, rng, oracles.random_costs(n, rng))
        strategies = [ranking_based_dt(inst)]
        if n <= 400:  # the reference check takes time quadratic in the depth
            strategies.append(_leaf_chain(inst))
        outcomes = set()
        for d in strategies:
            for bad in _deep_mutants(d, rng, 6):
                expected = oracles.outcome(oracles.reference_validate_decision_tree, inst, bad)
                assert oracles.outcome(validate_decision_tree, inst, bad) == expected
                outcomes.add(expected if isinstance(expected, type) else DecisionTree)
                if expected is ComponentMismatch:
                    with pytest.raises(ComponentMismatch) as caught:
                        validate_decision_tree(inst, bad)
                    assert _mismatched(inst, bad, inst.vertex_set, caught.value.vertex)
        assert ComponentMismatch in outcomes


def _mutated_child_map(inst, data):
    """A valid strategy for ``inst``, then 0-3 mutations of its child lists."""
    d = BUILDERS[data.draw(st.sampled_from(sorted(BUILDERS)))](inst)
    root, children = d.root, {q: list(kids) for q, kids in d.children.items()}
    for _ in range(data.draw(st.integers(0, 3))):
        verts = sorted({root}.union(*children.values()))
        edges = [(q, c) for q in sorted(children) for c in children[q]]
        kind = data.draw(st.sampled_from(["twice", "through-root", "away", "drop"]))
        if kind == "twice":
            q, c = data.draw(st.sampled_from(verts)), data.draw(st.sampled_from(verts))
            children.setdefault(q, []).append(c)
        elif kind == "through-root":
            children.setdefault(data.draw(st.sampled_from(verts)), []).append(root)
        elif kind == "away" and edges:  # move a vertex below itself or below a descendant
            q, c = data.draw(st.sampled_from(edges))
            children[q].remove(c)
            below = [c]
            for v in below:
                below.extend(k for k in children.get(v, ()) if k not in below)
            children.setdefault(data.draw(st.sampled_from(below)), []).append(c)
        elif kind == "drop" and edges:
            q, c = data.draw(st.sampled_from(edges))
            children[q].remove(c)
    return DecisionTree(root, children)


class TestStrategyWalkAgainstReference:
    """``DecisionTree``'s one checked walk against the separate passes it replaced."""

    @given(any_tree_instances(max_n=12), st.data())
    @settings(max_examples=300)
    def test_same_values_or_documented_errors(self, inst, data):
        d = _mutated_child_map(inst, data)
        listed = [d.root] + [c for kids in d.children.values() for c in kids]
        targets = sorted(set(listed)) + [0, inst.n + 1]
        if len(set(listed)) < len(listed):  # every view refuses a vertex listed twice
            for view in ("parent_map", "order", "vertex_set", "depth"):
                assert oracles.outcome(getattr, d, view) is DuplicateVertex
            for x in targets:
                assert oracles.outcome(query_sequence, inst, d, x) is DuplicateVertex
            return
        assert d.vertex_set == oracles.reference_vertex_set(d)
        assert d.parent_map == {d.root: 0, **oracles.reference_parent_map(d)}
        assert d.depth == oracles.reference_depth(d)
        for x in targets:
            got = oracles.outcome(query_sequence, inst, d, x)
            want = oracles.outcome(oracles.reference_query_sequence, inst, d, x)
            assert isinstance(want, QuerySequence) == (x in d.order)
            if want is DuplicateVertex:  # the parent chain of x closes a cycle
                want = MissingVertex
            assert got == want


class TestEvaluateCost:
    def test_fixture_cost(self, fix1, dfix2):
        assert evaluate_cost(fix1, dfix2) == Fraction(11, 5)

    def test_single_vertex(self):
        inst = tree_instance(1, [], ["3/7"])
        assert evaluate_cost(inst, DecisionTree(1, {})) == Fraction(3, 7)

    def test_uniform_path3(self):
        inst = tree_instance(3, [(1, 2), (2, 3)], [1, 1, 1])
        d = DecisionTree(2, {2: (1, 3)})
        assert evaluate_cost(inst, d) == 2

    def test_child_order_irrelevant(self, fix1, dfix2):
        reordered = DecisionTree(
            4, {4: (9, 5, 8), 5: (1,), 9: (11, 7), 1: (3, 2), 11: (10,), 2: (6,)}
        )
        assert evaluate_cost(fix1, reordered) == evaluate_cost(fix1, dfix2)

    @given(tree_instances(max_n=14))
    @settings(max_examples=50)
    def test_normalized_cost_rescales_exactly(self, inst):
        d = ranking_based_dt(inst)
        norm, scale = oracles.normalize(inst)
        assert evaluate_cost(norm, d) * scale == evaluate_cost(inst, d)


class TestQuerySequence:
    def test_worst_case_target(self, fix1, dfix2):
        seq = query_sequence(fix1, dfix2, 6)
        assert seq.vertices == (4, 5, 1, 2, 6)
        assert seq.total_cost == Fraction(11, 5)

    def test_root_target(self, fix1, dfix2):
        seq = query_sequence(fix1, dfix2, 4)
        assert seq.vertices == (4,)
        assert seq.total_cost == Fraction(1, 5)

    def test_intermediate_target(self, fix1, dfix2):
        seq = query_sequence(fix1, dfix2, 10)
        assert seq.vertices == (4, 9, 11, 10)
        assert seq.total_cost == Fraction(9, 5)

    def test_unknown_vertex(self, fix1, dfix2):
        with pytest.raises(UnknownVertex):
            query_sequence(fix1, dfix2, 12)

    def test_target_below_an_unreachable_query(self):
        with pytest.raises(MissingVertex):
            query_sequence(P3, DecisionTree(1, {2: (3,)}), 3)

    def test_no_target_beats_worst_case(self, fix1, dfix2):
        worst = evaluate_cost(fix1, dfix2)
        costs = [query_sequence(fix1, dfix2, x).total_cost for x in fix1.vertex_set]
        assert max(costs) == worst
        assert all(c <= worst for c in costs)

    def test_sequence_simulates_the_search(self, fix1, dfix2):
        # Each query must sit in the candidate set implied by the previous
        # responses, and the next candidate set is the component holding x.
        for x in fix1.vertex_set:
            cand = fix1.vertex_set
            for step, q in enumerate(query_sequence(fix1, dfix2, x).vertices):
                assert q in cand
                if q == x:
                    break
                comps = split_components(fix1, cand, q)
                cand = next(c for c in comps if x in c)
