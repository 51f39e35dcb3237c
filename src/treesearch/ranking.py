"""Minimal vertex rankings and the strategy trees they induce.

A vertex ranking labels the vertices of a tree so that whenever two
vertices share a label, some vertex strictly between them carries a
larger one.  In any valid ranking the top label of a connected piece is
held by exactly one vertex, which makes it a natural first query: the
answer splits the piece into components that the remaining labels rank
recursively.  Using the minimum possible number of labels, the induced
strategy is optimal for uniform query costs and never issues more than
``floor(log2 m) + 1`` queries on a piece of ``m`` vertices.

The ranking itself is computed bottom-up: each rooted subtree reports the
set of labels still "visible" from its root (no larger label in between),
and a vertex takes the smallest label that is not visible in any child
and exceeds every label visible twice; label sets are int bitmasks
(Schäffer, IPL 1989).  Checking labels and building their strategy is the
union-find sweep of ``core`` in increasing label order (Liu's elimination
tree, SIAM J. Matrix Anal. Appl. 1990).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import DecisionTree, TreeInstance, _sweep, rooted_order
from .errors import InvalidDecisionTree, InvalidParameters, NotConnected


@dataclass(frozen=True)
class Ranking:
    """A valid vertex ranking: ``labels[v]`` is the rank of vertex ``v``."""

    labels: Mapping[int, int]

    @property
    def max_label(self) -> int:
        return max(self.labels.values(), default=0)


def vertex_ranking(inst: TreeInstance, within=None) -> Ranking:
    """Compute a minimum vertex ranking of a connected vertex set.

    Deterministic for fixed input; the maximum label never exceeds
    ``floor(log2 m) + 1`` where ``m`` is the size of the set.
    """
    verts = inst.subset(within)
    if not verts:
        raise NotConnected("empty vertex set")
    order, parent = rooted_order(inst, verts, min(verts))

    # Bit l of seen[v] (twice[v]) is set when label l is visible from
    # at least one (two) of v's children.
    seen = dict.fromkeys(order, 0)
    twice = dict.fromkeys(order, 0)
    labels: dict[int, int] = {}
    for v in reversed(order):
        lbl = max(1, twice[v].bit_length() - 1)
        while seen[v] >> lbl & 1:
            lbl += 1
        labels[v] = lbl
        visible = (seen[v] >> lbl | 1) << lbl
        p = parent[v]
        if p:
            twice[p] |= seen[p] & visible
            seen[p] |= visible

    return Ranking(labels)


def _elimination_tree(inst: TreeInstance, labels: Mapping[int, int], verts):
    """``(root, children)`` of the strategy ``labels`` induce, or ``None`` if no ranking.

    Swept in increasing label order, each vertex adopts the tops of its
    visited neighbours' pieces, ordered by smallest vertex; a top labelled
    as high as the vertex breaks the ranking.
    """
    unlabelled = sorted(v for v in verts if v not in labels)
    if unlabelled:
        raise InvalidParameters(f"vertices {unlabelled} have no label")
    order = sorted(verts, key=labels.__getitem__)

    joiner = _sweep(inst, order)
    if len(joiner) != len(order) - 1:
        raise NotConnected(f"vertex set of size {len(order)} is not connected")
    low = dict(zip(order, order))  # smallest vertex of each top's piece
    children: dict[int, list[int]] = {}
    for t in order:  # each top comes before the vertex that joins it
        v = joiner.get(t)
        if v:
            low[v] = min(low[v], low[t])
            children.setdefault(v, []).append(t)
    for kids in children.values():
        kids.sort(key=low.__getitem__)
    ranked = all(labels[t] < labels[v] for t, v in joiner.items())
    return (order[-1], children) if ranked else None


def is_valid_ranking(inst: TreeInstance, labels: Mapping[int, int], within=None) -> bool:
    """Whether ``labels`` rank the connected set ``within`` (every vertex labelled)."""
    return _elimination_tree(inst, labels, inst.subset(within)) is not None


def ranking_based_dt(inst: TreeInstance, within=None) -> DecisionTree:
    """Strategy tree induced by a minimum ranking of a connected vertex set.

    The root of every piece is its unique top-labelled vertex; the
    children recurse on the components left after removing it.  Depth is
    at most ``floor(log2 m) + 1``, and the result is an optimal strategy
    whenever all costs are equal.
    """
    labels = vertex_ranking(inst, within=within).labels
    tree = _elimination_tree(inst, labels, labels.keys())
    if tree is None:
        raise InvalidDecisionTree("the labels are not a vertex ranking")
    return DecisionTree(*tree)
