"""Threshold decompositions of the cost function.

For a threshold ``t``, the vertices costing strictly more than ``t``
split into maximal connected groups ("heavy modules").  The largest
number of such groups over all thresholds measures how far the cost
function is from decreasing monotonically away from its maximum: a
single group at every threshold is exactly the monotone case.

Thresholds may be exact rationals or binary64 floats; both compare
exactly against rational costs, since a float is itself a dyadic
rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import TreeInstance, induced_components, rooted_order


@dataclass(frozen=True)
class HeavyModuleDecomposition:
    """Maximal connected groups of vertices costing strictly above a threshold."""

    threshold: object
    modules: tuple[frozenset[int], ...]

    @property
    def count(self) -> int:
        return len(self.modules)


def heavy_modules(inst: TreeInstance, threshold, within=None) -> HeavyModuleDecomposition:
    """Connected components of ``{v : cost(v) > threshold}``.

    ``within`` restricts the computation to an induced vertex subset.
    Modules are listed in increasing order of their smallest vertex.
    """
    verts = within if within is not None else range(1, inst.n + 1)
    heavy = [v for v in verts if inst.cost(v) > threshold]
    return HeavyModuleDecomposition(threshold, tuple(induced_components(inst, heavy)))


def k_up_modularity(inst: TreeInstance, within=None) -> tuple[int, Fraction]:
    """Maximum heavy-module count over all thresholds, with a witness.

    The count is piecewise constant in the threshold and only changes at
    cost values, so scanning ``{0}`` plus the distinct costs covers every
    piece.  Returns ``(k, t)`` where ``t`` is the smallest threshold
    attaining the maximum.
    """
    verts = sorted(within) if within is not None else range(1, inst.n + 1)
    thresholds = [Fraction(0)] + sorted({inst.cost(v) for v in verts})
    best_k, witness = 0, Fraction(0)
    for t in thresholds:
        k = heavy_modules(inst, t, within=within).count
        if k > best_k:
            best_k, witness = k, t
    return best_k, witness


def is_up_monotonic(inst: TreeInstance) -> bool:
    """Whether costs never increase along paths leading away from a maximum.

    Checking from one maximum-cost vertex suffices: if costs never
    increase away from it, every path between two maxima stays at the
    maximum cost, so they never increase away from any other maximum
    either.  Agrees with ``k_up_modularity(inst)[0] == 1``.
    """
    top = inst.costs.index(inst.max_cost) + 1
    order, parent = rooted_order(inst, inst.vertex_set, top)
    return all(inst.cost(parent[v]) >= inst.cost(v) for v in order[1:])
