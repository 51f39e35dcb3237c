"""Hypothesis strategies for random tree-search instances."""

from fractions import Fraction

from hypothesis import strategies as st

from treesearch import tree_instance


@st.composite
def tree_instances(draw, min_n=1, max_n=20, uniform=False, cost_steps=12):
    """Random instances via random attachment; costs from a coarse rational grid."""
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)]
    if uniform:
        costs = [Fraction(1)] * n
    else:
        costs = [
            Fraction(draw(st.integers(1, cost_steps)), cost_steps) for _ in range(n)
        ]
    return tree_instance(n, edges, costs)


@st.composite
def shuffled_tree_instances(draw, **kwargs):
    """``tree_instances`` with the vertex ids permuted.

    Random attachment numbers every path away from vertex 1 in increasing
    order; shuffling breaks that, so id-order effects show up.
    """
    inst = draw(tree_instances(**kwargs))
    new_id = [0] + draw(st.permutations(range(1, inst.n + 1)))
    costs = [None] * inst.n
    for v in range(1, inst.n + 1):
        costs[new_id[v] - 1] = inst.cost(v)
    return tree_instance(inst.n, [(new_id[u], new_id[v]) for u, v in inst.edges], costs)


def any_tree_instances(**kwargs):
    """``tree_instances`` with attachment ids or with shuffled ids."""
    return st.one_of(tree_instances(**kwargs), shuffled_tree_instances(**kwargs))


@st.composite
def path_instances(draw, min_n=1, max_n=12):
    """Paths with shuffled ids; costs often equal, or fractions of mixed denominators."""
    n = draw(st.integers(min_n, max_n))
    ids = draw(st.permutations(range(1, n + 1)))
    cost = st.one_of(
        st.sampled_from([1, 2, 3]),
        st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=7),
    )
    costs = draw(st.lists(cost, min_size=n, max_size=n))
    return tree_instance(n, list(zip(ids, ids[1:])), costs)


@st.composite
def rooted_paths(draw, min_n=2, max_n=150):
    """A path with shuffled ids and any of its vertices as root.

    Costs come from {1, 2, 3}, from 1..1000, from fractions with
    denominator at most 7, or are all equal.
    """
    n = draw(st.integers(min_n, max_n))
    ids = draw(st.permutations(range(1, n + 1)))
    model = draw(st.sampled_from(["small", "wide", "fractions", "equal"]))
    if model == "equal":
        costs = [draw(st.integers(1, 5))] * n
    else:
        cost = {
            "small": st.sampled_from([1, 2, 3]),
            "wide": st.integers(1, 1000),
            "fractions": st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=7),
        }[model]
        costs = draw(st.lists(cost, min_size=n, max_size=n))
    return tree_instance(n, list(zip(ids, ids[1:])), costs), draw(st.integers(1, n))
