"""Threshold decompositions of the cost function.

For a threshold ``t``, the vertices costing strictly more than ``t``
split into maximal connected groups ("heavy modules"), which
:func:`heavy_modules` returns as a plain tuple of vertex sets.  The largest
number of such groups over all thresholds measures how far the cost
function is from decreasing monotonically away from its maximum: a
single group at every threshold is exactly the monotone case.

Thresholds may be exact rationals, integers or binary64 floats; each is
turned into one integer cutoff on the instance's integer weights
(:meth:`TreeInstance.cutoff`), so the comparison is exact.  The modularity
parameter comes from the union-find sweep of ``core`` over the vertices in
decreasing cost order: each vertex adds one piece and removes the pieces
it joins, and after each group of equal costs the number of pieces is
the heavy-module count at the next lower cost.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .core import TreeInstance, _sweep, induced_components, rooted_order


def heavy_modules(inst: TreeInstance, threshold, within=None) -> tuple[frozenset[int], ...]:
    """Connected components of ``{v : cost(v) > threshold}``.

    ``within`` restricts the computation to an induced vertex subset.
    Modules are listed in increasing order of their smallest vertex.
    Raises :class:`UnknownVertex` for ids in ``within`` outside ``1..n``.
    """
    verts = inst.subset(within)
    weights = inst.weights
    cut = inst.cutoff(threshold)
    heavy = [v for v in verts if weights[v] > cut]
    return tuple(induced_components(inst, heavy))


def k_up_modularity(inst: TreeInstance, within=None) -> tuple[int, Fraction]:
    """Maximum heavy-module count over all thresholds, with a witness.

    The count is piecewise constant in the threshold and only changes at
    cost values, so ``{0}`` plus the distinct costs cover every piece.
    Sweeping the vertices in decreasing cost order, the number of pieces
    after the last vertex of cost ``c`` is the count at the next lower
    cost (or at 0), in O(m log m) for ``m`` vertices.
    Returns ``(k, t)`` where ``t`` is the smallest threshold attaining the
    maximum.  Raises :class:`UnknownVertex` for ids in ``within`` outside
    ``1..n``.
    """
    verts = inst.subset(within)
    weights = inst.weights
    order = sorted(verts, key=weights.__getitem__, reverse=True)
    joins = Counter(_sweep(inst, order).values())
    best_k = count = witness = 0
    for v, after in zip(order, order[1:] + [0]):
        count += 1 - joins.get(v, 0)
        # After the last vertex of its cost (weights[0] is 0), the count holds
        # down to the next lower cost; ties go to that smaller threshold.
        if weights[after] != weights[v] and count >= best_k:
            best_k, witness = count, after
    return best_k, Fraction(weights[witness], inst.denominator)


def is_up_monotonic(inst: TreeInstance) -> bool:
    """Whether costs never increase along paths leading away from a maximum.

    Checking from one maximum-cost vertex suffices: if costs never
    increase away from it, every path between two maxima stays at the
    maximum cost, so they never increase away from any other maximum
    either.  Agrees with ``k_up_modularity(inst)[0] == 1``.
    """
    top = inst.costs.index(inst.max_cost) + 1
    order, parent = rooted_order(inst, inst.vertex_set, top)
    weights = inst.weights
    return all(weights[parent[v]] >= weights[v] for v in order[1:])
