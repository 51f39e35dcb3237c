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
and exceeds every label visible twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import DecisionTree, TreeInstance, rooted_order, split_components
from .errors import InvalidDecisionTree, NotConnected


@dataclass(frozen=True)
class Ranking:
    """A valid vertex ranking: ``labels[v]`` is the rank of vertex ``v``."""

    labels: Mapping[int, int]
    max_label: int


def vertex_ranking(inst: TreeInstance, within=None) -> Ranking:
    """Compute a minimum vertex ranking of a connected vertex set.

    Deterministic for fixed input; the maximum label never exceeds
    ``floor(log2 m) + 1`` where ``m`` is the size of the set.
    """
    verts = inst.subset(within)
    if not verts:
        raise NotConnected("empty vertex set")
    order, parent = rooted_order(inst, verts, min(verts))

    children: dict[int, list[int]] = {v: [] for v in verts}
    for v in order[1:]:
        children[parent[v]].append(v)

    labels: dict[int, int] = {}
    visible: dict[int, frozenset[int]] = {}
    for v in reversed(order):
        counts: dict[int, int] = {}
        for child in children[v]:
            for lbl in visible[child]:
                counts[lbl] = counts.get(lbl, 0) + 1
        dup_max = max((lbl for lbl, cnt in counts.items() if cnt > 1), default=0)
        lbl = max(1, dup_max)
        while lbl in counts:
            lbl += 1
        labels[v] = lbl
        visible[v] = frozenset({lbl} | {l for l in counts if l > lbl})

    return Ranking(labels, max(labels.values()))


def is_valid_ranking(inst: TreeInstance, labels: Mapping[int, int], within=None) -> bool:
    """Direct check of the ranking property on every equal-label pair."""
    verts = sorted(inst.subset(within))
    if not verts:
        raise NotConnected("empty vertex set")
    order, parent = rooted_order(inst, verts, verts[0])
    depth = {order[0]: 0}
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1

    def path_between(u: int, v: int) -> list[int]:
        ups, vps = [], []
        while u != v:
            if depth[u] >= depth[v]:
                ups.append(u)
                u = parent[u]
            else:
                vps.append(v)
                v = parent[v]
        full = ups + [u] + vps[::-1]
        return full[1:-1]

    by_label: dict[int, list[int]] = {}
    for v in verts:
        by_label.setdefault(labels[v], []).append(v)
    for lbl, vs in by_label.items():
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                between = path_between(vs[i], vs[j])
                if not any(labels[z] > lbl for z in between):
                    return False
    return True


def ranking_based_dt(inst: TreeInstance, within=None) -> DecisionTree:
    """Strategy tree induced by a minimum ranking of a connected vertex set.

    The root of every piece is its unique top-labelled vertex; the
    children recurse on the components left after removing it.  Depth is
    at most ``floor(log2 m) + 1``, and the result is an optimal strategy
    whenever all costs are equal.
    """
    verts = inst.subset(within)
    ranking = vertex_ranking(inst, within=verts)
    labels = ranking.labels
    children: dict[int, tuple[int, ...]] = {}

    def build(piece: frozenset[int]) -> int:
        top_label = max(labels[v] for v in piece)
        tops = [v for v in piece if labels[v] == top_label]
        if len(tops) != 1:
            raise InvalidDecisionTree(f"top label {top_label} is held by {len(tops)} vertices")
        top = tops[0]
        kids = tuple(build(comp) for comp in split_components(inst, piece, top))
        if kids:
            children[top] = kids
        return top

    root = build(verts)
    return DecisionTree(root, children)
