"""Tree-search instances, strategy trees, and exact cost evaluation.

An instance pairs an undirected tree with a strictly positive rational
cost per vertex.  Querying a vertex either confirms it as the hidden
target or reveals which component of the tree minus that vertex contains
the target, so a search strategy is a rooted decision tree on the same
vertex set whose branches mirror those components.  Locating a target
costs the sum of the query costs along the root-to-target path; a
strategy is scored by its worst-case target.

Searches of the tree go through two helpers here:
:func:`induced_components` finds the connected pieces of a vertex set
(response components, heavy modules, leftover regions) and
:func:`rooted_order` roots a connected set (separator spans, rankings,
the exact solver's edge sides).  One union-find sweep, ``_sweep``,
reports which vertex joins each piece in a given order: ``ranking``
(increasing label), ``modularity`` (decreasing cost) and the strategy
check here (children first) read it.  A strategy's child lists are
walked in one place, into the cached :attr:`DecisionTree.parent_map` and
:attr:`DecisionTree.order`; its vertex set, depth and query sequences,
``approx.attach_subtree`` and the check and price of
:func:`validate_decision_tree` and :func:`evaluate_cost` all read that
walk, the last two adding the sweep.
Every ``within`` argument is resolved by :meth:`TreeInstance.subset`.

All cost arithmetic is exact.  Costs are `fractions.Fraction` at the API
boundary: :func:`validate_instance` (and so :func:`tree_instance`) takes
anything ``Fraction`` accepts (an int, a ``Fraction``, or a string such as
"2/5", "0.25" or "3e-2").  A ``Fraction`` is kept as it is; every other
value is converted once, each distinct int or string once per instance.
A conversion that fails raises :class:`InvalidCost`, and so does a
string whose decimal exponent exceeds :func:`sys.get_int_max_str_digits`
in magnitude (its power of ten would take too long to build) and a value,
``Fraction`` or not, whose numerator or denominator has more digits than
that limit (it could not be printed).  Inside, each instance carries its costs
once as integers over their common denominator
(:attr:`TreeInstance.weights`), and a threshold is turned into one
integer :meth:`TreeInstance.cutoff`, so inner loops compare machine
integers.  Every value here is immutable after
construction and every operation is a pure function, so everything is
safe to share across threads.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Mapping

from .errors import (
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


@dataclass(frozen=True)
class TreeInstance:
    """Undirected tree on vertices ``1..n`` with positive query costs.

    ``costs[i]`` is the cost of vertex ``i + 1``.  Build instances through
    :func:`tree_instance` (or :func:`validate_instance`), which enforce the
    structural invariants and canonicalize the edge list.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    costs: tuple[Fraction, ...]

    def cost(self, v: int) -> Fraction:
        """The cost of vertex ``v``; :class:`UnknownVertex` unless ``1 <= v <= n``."""
        if not 1 <= v <= self.n:
            raise UnknownVertex(f"vertex {v} is not in 1..{self.n}")
        return self.costs[v - 1]

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuples indexed by vertex id (index 0 unused)."""
        nbrs: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    @cached_property
    def max_cost(self) -> Fraction:
        return Fraction(max(self.weights), self.denominator)

    @cached_property
    def denominator(self) -> int:
        """Least common denominator of the costs."""
        return math.lcm(*(c.denominator for c in self.costs))

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """Costs times :attr:`denominator`, indexed by vertex id (index 0 is 0)."""
        denom = self.denominator
        return (0,) + tuple(c.numerator * (denom // c.denominator) for c in self.costs)

    def subset(self, within) -> frozenset[int]:
        """The vertex set ``within`` (all vertices for ``None``), checked to lie in ``1..n``.

        Raises :class:`InvalidParameters` unless ``within`` is an iterable of
        ints and :class:`UnknownVertex` for an int outside ``1..n``.
        """
        if within is None:
            return self.vertex_set
        try:
            verts = frozenset(within)
        except TypeError as exc:
            raise InvalidParameters(f"within must be a set of vertex ids ({exc})") from exc
        if not set(map(type, verts)) <= {int}:
            raise InvalidParameters(f"within holds ids that are not ints: {within!r:.80}")
        unknown = verts - self.vertex_set
        if unknown:
            raise UnknownVertex(f"vertices {sorted(unknown)} are not in 1..{self.n}")
        return verts

    def cutoff(self, threshold) -> int:
        """The integer ``c`` with ``cost(v) > threshold`` exactly when ``weights[v] > c``.

        Exact for ``Fraction``, ``int`` and binary64 ``float`` thresholds:
        with ``threshold == p / q`` and ``q > 0``, ``cost(v) > p / q`` holds
        iff ``weights[v] * q > p * denominator``, i.e. iff ``weights[v]``
        exceeds the floor of ``p * denominator / q``.  A value with no such
        ratio (a string, ``None``, a non-finite ``Decimal``) raises
        :class:`InvalidParameters`.
        """
        if isinstance(threshold, float) and not math.isfinite(threshold):
            return -1 if threshold < 0 else max(self.weights)  # nothing exceeds nan
        try:
            p, q = threshold.as_integer_ratio()
        except (AttributeError, ValueError, OverflowError) as exc:
            raise InvalidParameters(f"threshold is not a rational: {threshold!r:.80}") from exc
        return (p * self.denominator) // q


@dataclass(frozen=True)
class DecisionTree:
    """Rooted strategy tree: ``children[q]`` are the response branches of ``q``.

    Vertices with no children are omitted from the mapping; the mapping is
    canonicalized on construction so structural equality is well defined.
    The child lists are walked once, on first use, into :attr:`parent_map`
    and :attr:`order`, cached together, which the other views read; each
    view raises :class:`DuplicateVertex` when a vertex is listed twice.
    ``children`` that is not a mapping of child lists raises
    :class:`InvalidDecisionTree`.
    """

    root: int
    children: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        try:
            for q, kids in dict(self.children).items():
                kids = tuple(kids)
                if kids:
                    cleaned[q] = kids
        except (TypeError, ValueError) as exc:
            raise InvalidDecisionTree(f"children must map queries to child lists ({exc})") from exc
        object.__setattr__(self, "children", cleaned)

    def child_list(self, v: int) -> tuple[int, ...]:
        return self.children.get(v, ())

    @cached_property
    def _walk(self) -> tuple[dict[int, int], tuple[int, ...]]:
        """:attr:`parent_map` and then :attr:`order`, found once per tree."""
        parents = {self.root: 0}
        for q, kids in self.children.items():
            for child in kids:
                if child in parents:
                    raise DuplicateVertex(f"vertex {child} appears more than once")
                parents[child] = q
        order = [self.root]
        for q in order:  # every vertex has one parent, so none is reached twice
            order.extend(self.child_list(q))
        return parents, tuple(order)

    @property
    def parent_map(self) -> dict[int, int]:
        """Parent of every listed vertex, the root mapped to 0 (no vertex).

        Raises :class:`DuplicateVertex` when a vertex is listed twice or the
        root is listed as a child.
        """
        return self._walk[0]

    @property
    def order(self) -> tuple[int, ...]:
        """The vertices reachable from the root, breadth first (parents first)."""
        return self._walk[1]

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        """Every listed vertex, reachable from the root or not."""
        return frozenset(self.parent_map)

    @cached_property
    def depth(self) -> int:
        """Worst-case number of queries; :class:`DuplicateVertex` if a vertex recurs."""
        parents, v, depth = self.parent_map, self.order[-1], 1  # the last one is deepest
        while v != self.root:
            v, depth = parents[v], depth + 1
        return depth


@dataclass(frozen=True)
class QuerySequence:
    """The queries issued to locate one target, with their total cost."""

    vertices: tuple[int, ...]
    total_cost: Fraction


def tree_instance(n: int, edges: Iterable, costs: Iterable) -> TreeInstance:
    """Build and validate a :class:`TreeInstance` from raw parts.

    Raises :class:`NotATree` when ``n`` or an edge end is not an integer,
    an edge is not a pair, or ``edges`` or ``costs`` is not iterable, and
    otherwise what :func:`validate_instance` raises.
    """
    if type(n) is not int:
        raise NotATree(f"vertex count must be an integer, got {n!r:.80}")
    try:
        raw = TreeInstance(n, tuple((u, v) for u, v in edges), tuple(costs))
    except (TypeError, ValueError) as exc:
        raise NotATree(f"edges must be vertex pairs and costs a sequence ({exc})") from exc
    for u, v in raw.edges:
        if type(u) is not int or type(v) is not int:
            raise NotATree(f"edge ({u!r:.40}, {v!r:.40}) has an end that is not an integer")
    return validate_instance(raw)


# The exponent of a decimal cost string, where ``Fraction`` would look for it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


@cache
def _ten_to(limit: int) -> int:
    return 10**limit


def _to_cost(c, what: str) -> Fraction:
    """``Fraction(c)`` for the value ``what`` names, within the digit limit.

    A ``Fraction`` is checked and returned as it is.
    """
    limit = sys.get_int_max_str_digits()
    exponent = _EXPONENT.search(c) if limit and type(c) is str else None
    try:
        if exponent and abs(int(exponent[1])) > limit:
            raise OverflowError(f"its exponent exceeds {limit}")
        cost = c if type(c) is Fraction else Fraction(c)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        why = f" ({exc})" if isinstance(exc, OverflowError) else ""
        raise InvalidCost(f"{what} is not a rational{why}: {c!r:.80}") from exc
    if limit and max(abs(cost.numerator), cost.denominator) >= _ten_to(limit):
        raise InvalidCost(f"{what} has more than {limit} digits")
    return cost


def validate_instance(raw: TreeInstance) -> TreeInstance:
    """Check tree structure and costs; return the canonicalized instance.

    Raises :class:`NotATree` if the edges are not exactly the ``n - 1``
    edges of a connected acyclic graph on vertices ``1..n``,
    :class:`InvalidCost` if a cost is not a rational within the digit
    limit, and :class:`NonPositiveCost` (with the offending vertex)
    otherwise.
    """
    n = raw.n
    if n < 1:
        raise NotATree(f"vertex count must be at least 1, got {n}")
    if len(raw.costs) != n:
        raise NotATree(f"expected {n} costs, got {len(raw.costs)}")
    if len(raw.edges) != n - 1:
        raise NotATree(f"expected {n - 1} edges, got {len(raw.edges)}")

    edges = []
    for u, v in raw.edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise NotATree(f"edge ({u}, {v}) references a vertex outside 1..{n}")
        if u == v:
            raise NotATree(f"self-loop at vertex {u}")
        edges.append((u, v) if u < v else (v, u))
    edges.sort()

    nbrs: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = [False] * (n + 1)
    seen[1] = True
    stack = [1]
    reached = 1
    while stack:
        x = stack.pop()
        for y in nbrs[x]:
            if not seen[y]:
                seen[y] = True
                reached += 1
                stack.append(y)
    if reached != n:
        raise NotATree(f"graph is disconnected ({reached} of {n} vertices reachable)")

    costs = []
    converted: dict[int | str, Fraction] = {}  # exact types only: True == 1 == 1.0
    checked: set[int] = set()  # ids of the Fraction costs, each checked once
    for v, c in enumerate(raw.costs, 1):
        if type(c) is Fraction:
            if id(c) not in checked:
                checked.add(id(_to_cost(c, f"cost of vertex {v}")))
        elif type(c) is int or type(c) is str:
            cost = converted.get(c)
            if cost is None:
                cost = converted[c] = _to_cost(c, f"cost of vertex {v}")
            c = cost
        else:
            c = _to_cost(c, f"cost of vertex {v}")
        costs.append(c)
    for v, c in enumerate(costs, 1):  # every cost converts before any sign is checked
        if c.numerator <= 0:
            raise NonPositiveCost(v, c)

    return TreeInstance(n, tuple(edges), tuple(costs))


def induced_components(inst: TreeInstance, verts) -> list[frozenset[int]]:
    """Connected components of the subgraph induced by ``verts``.

    Components are returned in increasing order of their smallest vertex;
    together they partition ``verts``.
    """
    adjacency = inst.adjacency
    unvisited = set(verts)
    comps = []
    for start in sorted(unvisited):
        if start not in unvisited:
            continue
        unvisited.discard(start)
        comp = [start]
        for x in comp:
            for y in adjacency[x]:
                if y in unvisited:
                    unvisited.discard(y)
                    comp.append(y)
        comps.append(frozenset(comp))
    return comps


def rooted_order(inst: TreeInstance, verts, root: int) -> tuple[list[int], dict[int, int]]:
    """Breadth-first order and parent map of the subtree induced by ``verts``.

    ``order`` starts at ``root`` and lists every vertex after its parent;
    ``parent[root]`` is 0, which is no vertex.  Raises
    :class:`NotConnected` unless ``verts`` induces a connected subtree
    containing ``root``.
    """
    vset = frozenset(verts)
    if root not in vset:
        raise NotConnected(f"root {root} is not in the vertex set")
    adjacency = inst.adjacency
    parent = {root: 0}
    order = [root]
    for x in order:
        up = parent[x]
        for y in adjacency[x]:
            if y != up and y in vset:
                parent[y] = x
                order.append(y)
    if len(order) != len(vset):
        raise NotConnected(f"vertex set of size {len(vset)} is not connected")
    return order, parent


def split_components(inst: TreeInstance, candidate, v: int) -> list[frozenset[int]]:
    """Connected components of the candidate set with ``v`` removed.

    The candidate set must induce a connected subtree containing ``v``.
    Components are returned in increasing order of their smallest vertex;
    together they partition ``candidate - {v}``.
    """
    cand = frozenset(candidate)
    if v not in cand:
        raise VertexNotInCandidate(f"vertex {v} is not in the candidate set")
    return induced_components(inst, cand - {v})


def _sweep(inst: TreeInstance, order) -> dict[int, int]:
    """For the top of each piece that a later vertex of ``order`` joins, that vertex.

    The vertices are added in ``order`` to a union-find forest of the
    pieces their edges join, and each one becomes the top of the piece it
    closes, so the result is the parent map of Liu's elimination tree
    (SIAM J. Matrix Anal. Appl. 1990).  A top never joined has no entry.
    """
    adjacency = inst.adjacency
    top: dict[int, int] = {}  # union-find links of the swept vertices
    joiner: dict[int, int] = {}
    for v in order:
        top[v] = v
        for u in adjacency[v]:
            if u in top:
                while top[u] != u:  # path halving up to the top of u's piece
                    top[u] = u = top[top[u]]
                top[u] = joiner[u] = v
    return joiner


def _strategy_order(inst: TreeInstance, d: DecisionTree, within):
    """``d.order`` and ``d.parent_map``, checked to be a strategy on the universe."""
    if not isinstance(d, DecisionTree):
        raise InvalidParameters(f"strategy must be a DecisionTree, got {type(d).__name__}")
    universe = inst.subset(within)
    parent = d.parent_map
    extra = sorted(parent.keys() - universe)
    if extra:
        raise QueryOutsideCandidate(extra[0], f"vertices outside the instance: {extra}")
    if len(parent) < len(universe):
        raise MissingVertex(f"vertices never queried: {sorted(universe - parent.keys())}")
    order = d.order
    if len(order) < len(universe):
        unreachable = sorted(universe - set(order))
        raise MissingVertex(f"vertices not reachable from the root: {unreachable}")

    # Swept children first, a valid strategy is its own elimination tree:
    # the piece of every vertex is joined by its parent, except that the root
    # of a disconnected universe may leave some of its children's pieces
    # alone.  Up to the first vertex that breaks this, each piece is the
    # subtree of its top.
    joiner = _sweep(inst, reversed(order))
    for t in reversed(order):
        v = joiner.get(t, 0)
        if v != parent[t]:
            if v:  # an edge from v into t's subtree: raise where they meet
                above = set()
                while v:
                    above.add(v)
                    v = parent[v]
                while t not in above:
                    t = parent[t]
                raise ComponentMismatch(t)
            if parent[t] != d.root:  # t's parent did not join all its children
                raise ComponentMismatch(parent[parent[t]])
    return order, parent


def validate_decision_tree(
    inst: TreeInstance, d: DecisionTree, within=None
) -> DecisionTree:
    """Check that ``d`` is a valid strategy for the instance.

    A query answers with the component of its candidate set that holds
    the target, so ``d`` is valid exactly when it is an elimination tree
    of the universe: it holds every vertex once, every instance edge in
    the universe joins a query to one of its descendants, and the vertices
    below each non-root query induce a connected subtree.  ``within``
    restricts the universe to a vertex subset (defaults to all vertices).
    A ``d`` that is not a :class:`DecisionTree` raises
    :class:`InvalidParameters`.
    """
    _strategy_order(inst, d, within)
    return d


def evaluate_cost(inst: TreeInstance, d: DecisionTree, within=None) -> Fraction:
    """Worst-case total query cost of a valid strategy, as an exact rational."""
    order, parent = _strategy_order(inst, d, within)
    weights = inst.weights
    total = [0] * (inst.n + 1)  # weight of the root path, by vertex id
    for v in order:
        total[v] = total[parent[v]] + weights[v]
    return Fraction(max(total), inst.denominator)


def query_sequence(inst: TreeInstance, d: DecisionTree, x: int) -> QuerySequence:
    """Queries issued when the target is ``x``: the root-to-``x`` path in ``d``.

    Climbs :attr:`DecisionTree.parent_map` from ``x``, so it costs the
    length of the path and checks nothing else about ``d``.  Raises
    :class:`UnknownVertex` when ``x`` is not in ``d`` and
    :class:`MissingVertex` when its parent chain never reaches the root
    (:class:`InvalidParameters` when ``d`` is not a :class:`DecisionTree`).
    """
    if not isinstance(d, DecisionTree):
        raise InvalidParameters(f"strategy must be a DecisionTree, got {type(d).__name__}")
    parents = d.parent_map
    if x not in parents:
        raise UnknownVertex(f"vertex {x} does not appear in the strategy")
    path = [x]
    while path[-1] != d.root:
        if path[-1] not in parents or len(path) > len(parents):  # a gap or a cycle
            raise MissingVertex(f"vertex {x} is not reachable from the root")
        path.append(parents[path[-1]])
    path.reverse()
    total = sum((inst.cost(v) for v in path), Fraction(0))
    return QuerySequence(tuple(path), total)
