"""Shared fixtures: the worked 11-vertex example and its strategy.

FIX1 is the reference instance used across the suite; D_FIX2 is a valid
strategy for it with worst-case cost 11/5 (the exact optimum is 9/5,
frozen in test_exact.py).  ``strategy_checks`` counts strategy checks.
"""

import pytest
from hypothesis import settings

from treesearch import DecisionTree, core, tree_instance

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

FIX1_EDGES = [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (4, 7), (4, 8), (7, 9), (9, 10), (10, 11)]
FIX1_COSTS = ["1/5", "2/5", "1/5", "1/5", "3/5", "4/5", "1", "2/5", "3/5", "1/5", "4/5"]


@pytest.fixture
def fix1():
    return tree_instance(11, FIX1_EDGES, FIX1_COSTS)


@pytest.fixture
def strategy_checks(monkeypatch):
    """A list that gains one entry per call of the shared strategy check."""
    calls = []
    check = core._strategy_order
    monkeypatch.setattr(core, "_strategy_order", lambda *args: calls.append(args) or check(*args))
    return calls


@pytest.fixture
def dfix2():
    return DecisionTree(
        4,
        {4: (5, 8, 9), 5: (1,), 9: (7, 11), 1: (2, 3), 11: (10,), 2: (6,)},
    )
