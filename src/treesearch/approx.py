"""Recursive strategy construction by doubling cost levels.

Costs relative to the maximum cost ``M`` lie in ``(0, 1]``, which is
partitioned into half-open intervals: ``(0, b0]`` with ``b0`` just below
``1/log2(n)``, then each interval doubling its upper end until 1 is
reached.  Working from the top interval down, a call on a connected
region with interval ``(a, b]`` schedules all queries to vertices costing
more than ``a * M``:

* If the region is entirely above ``a`` (or the bottom interval is
  reached) the uniform-cost ranking strategy is good enough.
* Otherwise a small separator is built: one representative per heavy
  module, the branch vertices of their spanning subtree, and the cheapest
  interior vertex of each corridor between those anchors.  Contracting
  the tree onto the separator gives an auxiliary instance small enough to
  solve exactly; its strategy queries the whole separator.
* Every remaining component holds at most one heavy module, whose ranking
  strategy hangs below the separators; the all-light leftovers recurse one
  interval lower.

The number of intervals is ``O(log log n)``, and each level of the
recursion adds only a constant multiple of the optimum to the cost, which
is what makes the final strategy competitive.  :func:`cost_levels` gives
the intervals as a plain tuple, and a run reports each fact once: its
depth and cost in :class:`ApproxStats`, and per separator construction
one :class:`LevelRecord` with the level's own interval.

Interval endpoints are binary64 floats.  The build works on the
caller's instance, with no normalized copy: level ``(a, b]`` compares
costs against the exact threshold ``Fraction(a) * M`` through one
integer cutoff on the instance's integer weights
(:meth:`TreeInstance.cutoff`), and the auxiliary instances carry the
original costs.  This is exact, and it gives the strategies a normalized
instance would: separators and modules depend only on which costs exceed
a threshold and on their order, the ranking ignores costs, and the exact
solver only adds and compares weights, which a positive scale preserves.

The build grows one child-list dict, and each call is told the query its
region hangs below, so nothing searches for where a piece goes.  A
level's auxiliary strategy hangs below the query that led to its region.
A component of the region minus the separators hangs below the separator
next to it that comes last in the auxiliary strategy's breadth-first
order; that is the deepest one, because the separators next to one
component lie on one root path.  A light part of a component minus its
module hangs below its one module neighbour.  Each strategy goes in as
the last child of its query, so every vertex is copied once, and the one
:func:`evaluate_cost` at the end checks the whole strategy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .core import (
    DecisionTree,
    TreeInstance,
    evaluate_cost,
    induced_components,
    rooted_order,
    tree_instance,
)
from .errors import (
    BranchOccupied,
    DuplicateVertex,
    InvalidParameters,
    InvalidSize,
    NoHeavyVertex,
    NoNeighborQueried,
    NotAPath,
    NotConnected,
    QueryOutsideCandidate,
    StateLimitExceeded,
    TreeSearchError,
)
from .exact import SolveLimits, opt_exact
from .modularity import heavy_modules, k_up_modularity
from .ranking import ranking_based_dt


@dataclass(frozen=True)
class SeparatorSets:
    """The three nested vertex sets that isolate heavy modules.

    ``reps`` holds one representative per heavy module; ``anchors`` adds
    every branch vertex (degree three or more) of the subtree spanning the
    representatives; ``separators`` adds the cheapest interior vertex of
    each corridor between consecutive anchors.  Removing ``separators``
    leaves components with at most one heavy module each.
    """

    reps: frozenset[int]
    anchors: frozenset[int]
    separators: frozenset[int]


@dataclass(frozen=True)
class AuxiliaryTree:
    """Contraction of the tree onto a separator set.

    ``vertices`` lists the separator vertices in increasing original id;
    ``instance`` is the contracted tree on ids ``1..m`` (costs carried
    over), so ``vertices[i]`` is the original id of its vertex ``i + 1``.
    Two separator vertices are adjacent exactly when no other separator
    vertex lies on the path between them.
    """

    vertices: tuple[int, ...]
    instance: TreeInstance


@dataclass(frozen=True)
class LevelRecord:
    """Instrumentation for one separator construction during a run.

    ``lower``/``upper`` are the level's interval ends relative to the
    maximum cost; ``aux_size`` counts the separators, since the auxiliary
    tree has one vertex per separator.
    """

    level: int
    lower: float
    upper: float
    region_size: int
    module_count: int
    k_region: int
    aux_size: int
    max_modules_per_component: int


@dataclass(frozen=True)
class ApproxStats:
    """Per-run statistics: recursion depth, one record per separator, strategy cost."""

    depth_d: int
    records: tuple[LevelRecord, ...]
    cost: Fraction

    @property
    def max_aux_size(self) -> int:
        return max((r.aux_size for r in self.records), default=0)


def _inv_log2_lower_bound(n: int) -> float:
    """Largest binary64 value that does not exceed ``1 / log2(n)``."""
    j = n.bit_length() - 1
    if n == 1 << j:
        target = Fraction(1, j)
    else:
        # 1/log2(n) is irrational here; a 50-digit approximation with a
        # certified safety margin decides the nearest-double question.
        with localcontext() as ctx:
            ctx.prec = 50
            approx = 1 / (Decimal(n).ln() / Decimal(2).ln())
        target = Fraction(approx) - Fraction(1, 10**45)
    value = float(target)
    if Fraction(value) > target:
        value = math.nextafter(value, 0.0)
    return value


def cost_levels(n: int) -> tuple[tuple[float, float], ...]:
    """The doubling intervals ``(a, b]`` partitioning ``(0, 1]`` for ``n >= 2`` vertices."""
    if type(n) is not int or n < 2:
        raise InvalidSize(f"cost levels require an int of at least 2 vertices, got {n!r:.80}")
    b = _inv_log2_lower_bound(n)
    levels = [(0.0, b)]
    while b < 1.0:
        a, b = b, min(2.0 * b, 1.0)
        levels.append((a, b))
    return tuple(levels)


def separator_sets(inst: TreeInstance, region, threshold) -> SeparatorSets:
    """Build the nested separator sets for one region and threshold.

    Module representatives are the maximum-cost vertex of each module
    (ties to the smallest id); corridor picks take the cheapest interior
    vertex (ties to the smallest id).  Requires at least one vertex of the
    region to cost more than the threshold; raises :class:`NotConnected`
    when the region is not connected.
    """
    region = frozenset(region)
    modules = heavy_modules(inst, threshold, within=region)
    if not modules:
        raise NoHeavyVertex(f"no vertex in the region costs more than {threshold}")
    weights = inst.weights
    reps = frozenset(max(module, key=lambda v: (weights[v], -v)) for module in modules)

    # Spanning subtree of the representatives, rooted at one of them: a
    # vertex belongs iff its rooted subtree contains a representative.
    root = min(reps)
    order, parent = rooted_order(inst, region, root)
    count = {v: 1 if v in reps else 0 for v in order}
    for v in reversed(order[1:]):
        count[parent[v]] += count[v]
    span = [v for v in order if count[v]]

    # A branch vertex has two or more children in the span (the root is a
    # representative anyway), so every corridor between consecutive
    # anchors runs straight up from its lower anchor.
    children = Counter(parent[v] for v in span[1:])
    anchors = reps | {v for v, c in children.items() if c >= 2}

    separators = set(anchors)
    for y in anchors - {root}:
        interior = []
        x = parent[y]
        while x not in anchors:
            interior.append(x)
            x = parent[x]
        if interior:
            separators.add(min(interior, key=lambda v: (weights[v], v)))

    return SeparatorSets(reps, anchors, frozenset(separators))


def auxiliary_tree(inst: TreeInstance, separators) -> AuxiliaryTree:
    """Contract the tree onto a separator set.

    Two separator vertices are joined exactly when the path between them
    contains no other separator vertex.  For separator sets produced by
    :func:`separator_sets` (which include every branch vertex of their
    spanning subtree) the result is a tree, found in one traversal rooted
    at the smallest separator: every other separator is joined to its
    nearest separator ancestor.
    """
    zs = sorted(separators)
    if not zs:
        raise InvalidSize("separator set must be non-empty")
    index = {v: i for i, v in enumerate(zs, 1)}
    nearest = {zs[0]: zs[0]}  # closest separator at or above each visited vertex
    edges = []
    stack = [zs[0]]
    while stack and len(edges) < len(zs) - 1:
        x = stack.pop()
        up = nearest[x]
        for y in inst.adjacency[x]:
            if y not in nearest:
                if y in index:
                    edges.append((index[up], index[y]))
                    nearest[y] = y
                else:
                    nearest[y] = up
                stack.append(y)
    instance = tree_instance(len(zs), edges, [inst.cost(v) for v in zs])
    return AuxiliaryTree(tuple(zs), instance)


def attach_subtree(
    d: DecisionTree, inst: TreeInstance, region, sub_dt: DecisionTree
) -> DecisionTree:
    """Graft a strategy for an unqueried region below the right query.

    This is the checked public graft; the build no longer calls it.  All
    queried neighbours of the region must lie on a single root-to-leaf path
    of ``d`` (verified here, not assumed); the subtree becomes the last
    child of the deepest of them, on the response branch holding the
    region.  A strategy that leaves the region raises
    :class:`QueryOutsideCandidate`, a region holding queried vertices
    :class:`DuplicateVertex`, and a region not inside one response branch
    :class:`NotConnected`.  Only the vertices the root of ``d`` reaches are
    queried; child lists it does not reach are left out of the result.
    """
    parent, order = d.parent_map, d.order
    region = frozenset(region)
    outside = sub_dt.parent_map.keys() - region
    if outside:
        raise QueryOutsideCandidate(min(outside), f"graft leaves its region at {sorted(outside)}")
    depth = {d.root: 0}
    for q in order[1:]:
        depth[q] = depth[parent[q]] + 1
    overlap = [v for v in region if v in depth]
    if overlap:
        raise DuplicateVertex(f"region holds queried vertices {sorted(overlap)}")

    touching = {}  # queried neighbour of the region -> a region vertex next to it
    adjacency = inst.adjacency
    for w in region:
        for y in adjacency[w]:
            if y in depth:
                touching[y] = w
    if not touching:
        raise NoNeighborQueried(f"no neighbour of the region {sorted(region)} is queried yet")
    hooks = sorted(touching)
    deepest = max(hooks, key=depth.__getitem__)

    chain = set()
    v = deepest
    while v:
        chain.add(v)
        v = parent[v]
    stray = [q for q in hooks if q not in chain]
    if stray:
        raise NotAPath(f"queried neighbours {stray} of the region are not ancestors of {deepest}")

    near = touching[deepest]
    branch = next(c for c in induced_components(inst, inst.vertex_set - {deepest}) if near in c)
    if not region <= branch:
        raise NotConnected(f"region is not inside one response branch of {deepest}")
    if any(c in branch for c in d.child_list(deepest)):
        raise BranchOccupied(
            f"query {deepest} already has a child on the branch holding the region"
        )
    children = {q: d.child_list(q) for q in order}
    children[deepest] += (sub_dt.root,)
    children.update((q, sub_dt.child_list(q)) for q in sub_dt.order)
    return DecisionTree(d.root, children)


def create_decision_tree(
    inst: TreeInstance, limits: SolveLimits | None = None
) -> tuple[DecisionTree, ApproxStats]:
    """Build a full strategy via the doubling-level recursion.

    Each piece hangs below the query it was built for (an auxiliary
    strategy below the query that led to its region, a module ranking
    below the deepest separator next to its component, a light part below
    its module neighbour), with no check per piece: the finished strategy
    is checked once, by the :func:`evaluate_cost` that prices it, so a
    misplaced piece raises a typed error.  Returns the strategy with run
    statistics: the recursion depth ``depth_d`` (number of level descents
    on the deepest branch that did real work), one :class:`LevelRecord`
    per separator construction, whose ``lower``/``upper`` are the interval
    ends relative to the maximum cost, and the strategy's ``cost``.  Exact
    auxiliary solves share the given ``limits``; one that runs out raises
    :class:`StateLimitExceeded` naming the level, the region size and the
    auxiliary tree size.  ``limits`` that is neither ``None`` nor a
    :class:`SolveLimits` raises :class:`InvalidParameters`.
    """
    if limits is not None and not isinstance(limits, SolveLimits):
        raise InvalidParameters(f"limits must be a SolveLimits, got {type(limits).__name__}")
    n = inst.n
    if n == 1:
        return DecisionTree(1, {}), ApproxStats(0, (), inst.costs[0])

    levels = cost_levels(n)
    records: list[LevelRecord] = []
    thresholds = [Fraction(a) * inst.max_cost for a, _b in levels]
    weights, adjacency = inst.weights, inst.adjacency
    children: dict[int, list[int]] = {}  # the strategy; 0 holds its root

    def hang(d: DecisionTree, above: int) -> None:
        """Add the strategy ``d`` as the last child of query ``above`` (0: as the root)."""
        children.setdefault(above, []).append(d.root)
        for q, kids in d.children.items():
            children[q] = list(kids)

    def recurse(region: frozenset[int], level: int, above: int) -> int:
        """Hang a strategy for ``region`` below query ``above``; return its depth."""
        threshold = thresholds[level]
        cut = inst.cutoff(threshold)
        heavy = sum(1 for v in region if weights[v] > cut)
        if level == 0 or heavy == len(region):
            hang(ranking_based_dt(inst, within=region), above)
            return 0
        if not heavy:
            return recurse(region, level - 1, above)

        seps = separator_sets(inst, region, threshold)
        aux = auxiliary_tree(inst, seps.separators)
        try:
            _cost_z, aux_dt = opt_exact(aux.instance, limits=limits)
        except StateLimitExceeded as exc:
            raise StateLimitExceeded(f"level {level}, region of {len(region)} vertices, "
                                     f"auxiliary tree of {len(aux.vertices)}: {exc}") from exc
        back = aux.vertices
        aux_dt = DecisionTree(
            back[aux_dt.root - 1],
            {back[q - 1]: [back[c - 1] for c in kids] for q, kids in aux_dt.children.items()},
        )
        hang(aux_dt, above)

        comps = induced_components(inst, region - seps.separators)
        comp_modules = [heavy_modules(inst, threshold, within=comp) for comp in comps]
        k_region, _witness = k_up_modularity(inst, within=region)
        a, b = levels[level]
        records.append(
            LevelRecord(
                level=level,
                lower=a,
                upper=b,
                region_size=len(region),
                module_count=len(seps.reps),
                k_region=k_region,
                aux_size=len(aux.vertices),
                max_modules_per_component=max((len(ms) for ms in comp_modules), default=0),
            )
        )

        # A component lies in one response branch of every separator, so the
        # separators next to it lie on one root path of ``aux_dt``: the last
        # of them in breadth-first order is the deepest, and it hangs there.
        rank = {z: i for i, z in enumerate(aux_dt.order)}
        depth = 0
        for comp, modules in zip(comps, comp_modules):
            if len(modules) > 1:
                raise TreeSearchError(f"separator left {len(modules)} heavy modules together")
            hook = max((y for w in comp for y in adjacency[w] if y in rank), key=rank.__getitem__)
            if not modules:
                depth = max(depth, recurse(comp, level - 1, hook))
                continue
            module = modules[0]
            hang(ranking_based_dt(inst, within=module), hook)
            # A light part meets the connected module by a single edge.
            for part in induced_components(inst, comp - module):
                touch = next(y for w in part for y in adjacency[w] if y in module)
                depth = max(depth, recurse(part, level - 1, touch))
        return depth + 1

    depth_d = recurse(inst.vertex_set, len(levels) - 1, 0)
    [root] = children.pop(0)
    dtree = DecisionTree(root, children)
    return dtree, ApproxStats(depth_d, tuple(records), evaluate_cost(inst, dtree))
