"""Vertex ranking: validity, minimality, and the induced strategy."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treesearch
from treesearch import (
    evaluate_cost,
    is_valid_ranking,
    opt_exact,
    ranking_based_dt,
    tree_instance,
    validate_decision_tree,
    vertex_ranking,
)
from treesearch.errors import (
    InvalidDecisionTree,
    InvalidParameters,
    NotConnected,
)
from treesearch.ranking import Ranking

import oracles
from strategies import shuffled_tree_instances, tree_instances


def uniform_path(n):
    return tree_instance(n, [(i, i + 1) for i in range(1, n)], [1] * n)


class TestVertexRanking:
    def test_single_vertex(self):
        inst = tree_instance(1, [], [1])
        r = vertex_ranking(inst)
        assert r.labels == {1: 1}
        assert r.max_label == 1

    def test_path7_pattern(self):
        r = vertex_ranking(uniform_path(7))
        assert [r.labels[v] for v in range(1, 8)] == [1, 2, 1, 3, 1, 2, 1]
        assert r.max_label == 3
        # no valid ranking of a 7-path exists with only two labels
        assert not oracles.exists_ranking_with(uniform_path(7), 2, is_valid_ranking)

    def test_max_label_follows_the_labels(self):
        assert Ranking({1: 2, 2: 1, 3: 2}).max_label == 2
        assert Ranking({}).max_label == 0

    def test_star_center_two(self):
        star = tree_instance(5, [(1, v) for v in range(2, 6)], [1] * 5)
        r = vertex_ranking(star)
        assert r.labels[1] == 2
        assert all(r.labels[v] == 1 for v in range(2, 6))
        assert not oracles.exists_ranking_with(star, 1, is_valid_ranking)

    def test_disconnected_subset_rejected(self):
        inst = uniform_path(5)
        with pytest.raises(NotConnected):
            vertex_ranking(inst, within={1, 5})

    def test_deterministic(self):
        inst = oracles.random_attachment_tree(40, random.Random(3))
        assert vertex_ranking(inst) == vertex_ranking(inst)

    @given(tree_instances(max_n=40))
    @settings(max_examples=60)
    def test_validity_and_label_bound(self, inst):
        r = vertex_ranking(inst)
        assert is_valid_ranking(inst, r.labels)
        assert r.max_label <= math.floor(math.log2(inst.n)) + 1

    @given(tree_instances(min_n=2, max_n=24))
    @settings(max_examples=40)
    def test_validity_on_connected_subsets(self, inst):
        rng = random.Random(17)
        size = rng.randint(1, inst.n)
        sub = oracles.random_connected_subset(inst, size, rng)
        r = vertex_ranking(inst, within=sub)
        assert is_valid_ranking(inst, r.labels, within=sub)
        assert r.max_label <= math.floor(math.log2(len(sub))) + 1

    def test_minimality_small_exhaustive(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(2, 7)
            inst = oracles.random_attachment_tree(n, rng)
            r = vertex_ranking(inst)
            assert is_valid_ranking(inst, r.labels)
            assert not oracles.exists_ranking_with(inst, r.max_label - 1, is_valid_ranking)


    def test_empty_within_is_not_connected(self):
        with pytest.raises(NotConnected):
            is_valid_ranking(uniform_path(3), {}, within=set())

    def test_unlabelled_vertices_rejected(self):
        with pytest.raises(InvalidParameters, match=r"\[2, 3\]"):
            is_valid_ranking(uniform_path(3), {1: 1})

    def test_disconnected_within_wins_over_invalid_labels(self):
        # {1, 2} alone already breaks the ranking; the check still reports
        # the disconnected set rather than stopping at the first clash.
        labels = {v: 1 for v in range(1, 6)}
        with pytest.raises(NotConnected):
            is_valid_ranking(uniform_path(5), labels, within={1, 2, 4, 5})

    def test_long_path_checked_quickly(self):
        # A pairwise path walk between equal labels takes minutes here.
        code = (
            "from treesearch import is_valid_ranking, tree_instance, vertex_ranking\n"
            "n = 20000\n"
            "inst = tree_instance(n, [(i, i + 1) for i in range(1, n)], [1] * n)\n"
            "assert is_valid_ranking(inst, vertex_ranking(inst).labels)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(treesearch.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=20)


class TestRankingBasedDT:
    def test_path7_depth_and_cost(self):
        inst = uniform_path(7)
        d = ranking_based_dt(inst)
        validate_decision_tree(inst, d)
        assert d.depth == 3
        assert evaluate_cost(inst, d) == 3
        assert evaluate_cost(inst, d) == oracles.brute_opt(inst)

    def test_single_vertex_depth_one(self):
        inst = tree_instance(1, [], [1])
        d = ranking_based_dt(inst)
        assert d.depth == 1
        assert d.root == 1

    def test_path3_roots_middle(self):
        inst = uniform_path(3)
        d = ranking_based_dt(inst)
        assert d.root == 2
        cost = evaluate_cost(inst, d)
        assert cost == 2
        assert cost == min(
            evaluate_cost(inst, alt) for alt in oracles.enumerate_strategies(inst)
        )

    @given(tree_instances(max_n=60))
    @settings(max_examples=60)
    def test_depth_bound(self, inst):
        d = ranking_based_dt(inst)
        assert d.depth <= math.floor(math.log2(inst.n)) + 1

    def test_uniform_costs_optimal(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 12)
            inst = oracles.random_attachment_tree(n, rng)
            d = ranking_based_dt(inst)
            validate_decision_tree(inst, d)
            opt, _ = opt_exact(inst)
            assert evaluate_cost(inst, d) == opt

    def test_nonuniform_costs_still_valid(self, fix1):
        d = ranking_based_dt(fix1)
        validate_decision_tree(fix1, d)

    def test_duplicated_top_label_rejected(self, monkeypatch):
        bad = Ranking({1: 2, 2: 1, 3: 2})
        monkeypatch.setattr("treesearch.ranking.vertex_ranking", lambda inst, within: bad)
        with pytest.raises(InvalidDecisionTree):
            ranking_based_dt(uniform_path(3))

    def test_subset_strategy_valid(self):
        rng = random.Random(9)
        inst = oracles.random_attachment_tree(30, rng)
        sub = oracles.random_connected_subset(inst, 12, rng)
        d = ranking_based_dt(inst, within=sub)
        validate_decision_tree(inst, d, within=sub)
        assert d.vertex_set == sub


@st.composite
def within_sets(draw, inst, kinds=("all", "connected", "any", "empty")):
    """``None``, a connected subset, an arbitrary (often disconnected) one, or empty."""
    kind = draw(st.sampled_from(kinds))
    if kind == "all":
        return None
    if kind == "empty":
        return frozenset()
    if kind == "any":
        return frozenset(draw(st.sets(st.integers(1, inst.n), min_size=1)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return oracles.random_connected_subset(inst, rng.randint(1, inst.n), rng)


@st.composite
def labelings(draw, inst):
    """Labels for every vertex: random, or a minimum ranking with one label changed."""
    top = draw(st.integers(1, 6))
    if draw(st.booleans()):
        drawn = draw(st.lists(st.integers(1, top), min_size=inst.n, max_size=inst.n))
        return dict(enumerate(drawn, 1))
    labels = dict(vertex_ranking(inst).labels)
    labels[draw(st.integers(1, inst.n))] = draw(st.integers(1, top))
    return labels


class TestRankingAgainstReference:
    """The union-find sweep against the split recursion and the pairwise path check."""

    @given(shuffled_tree_instances(max_n=40), st.data())
    @settings(max_examples=300)
    def test_rankings_and_strategies(self, inst, data):
        within = data.draw(within_sets(inst))
        for fast, slow in [
            (vertex_ranking, oracles.reference_vertex_ranking),
            (ranking_based_dt, oracles.reference_ranking_based_dt),
        ]:
            assert oracles.outcome(fast, inst, within) == oracles.outcome(slow, inst, within)

    @given(shuffled_tree_instances(max_n=40), st.data())
    @settings(max_examples=400)
    def test_validity(self, inst, data):
        within = data.draw(within_sets(inst))
        labels = data.draw(labelings(inst))
        assert oracles.outcome(is_valid_ranking, inst, labels, within) == oracles.outcome(
            oracles.reference_is_valid_ranking, inst, labels, within
        )

    @given(shuffled_tree_instances(max_n=30), st.data())
    @settings(max_examples=300)
    def test_strategies_of_forced_labelings(self, inst, data):
        # The split recursion never checks connectivity, so forced labels
        # are compared on connected sets only.
        within = data.draw(within_sets(inst, kinds=("all", "connected")))
        labels = data.draw(labelings(inst))
        forced = Ranking(labels)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("treesearch.ranking.vertex_ranking", lambda inst, within: forced)
            patch.setattr(oracles, "reference_vertex_ranking", lambda inst, within: forced)
            assert oracles.outcome(ranking_based_dt, inst, within) == oracles.outcome(
                oracles.reference_ranking_based_dt, inst, within
            )
