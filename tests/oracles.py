"""Independent reference implementations used only to check the package.

These deliberately avoid the package's solver machinery: strategies are
enumerated or recursed over directly from the definitions, with no
memoisation, bitmasks, or pruning.  The exceptions are earlier versions
of package functions, kept as slow paths that the fast ones must
reproduce: ``reference_opt_exact`` (the bitmask solver that finds
components by search), ``reference_solve_path`` (the path solve that
scans each interval's candidates left to right, in O(m³) worst-case
time), ``reference_k_up_modularity`` (one heavy-module
scan per distinct cost, comparing rational costs directly) and
``reference_attach_subtree`` (the graft that rebuilds whole-strategy
maps and splits the whole tree on every call, reading the strategy
through ``reference_vertex_set`` and ``reference_parent_map`` after
leaving out the child lists its root does not reach),
``reference_vertex_set`` / ``reference_parent_map`` / ``reference_depth``
/ ``reference_query_sequence`` (each its own pass over the child lists,
with no shared walk; the parent map leaves out the root), and
``reference_validate_decision_tree`` / ``reference_evaluate_cost`` (the
strategy check that re-runs the search, splitting each query's candidate
set, and the cost walk over ``Fraction`` path sums), and
``reference_vertex_ranking`` / ``reference_is_valid_ranking`` /
``reference_ranking_based_dt`` (visible label sets as frozensets, a path
walk between every pair of equal labels, and the strategy built by
re-splitting every piece below its top-labelled vertex), and
``reference_parse_cost`` (every cost token through ``Fraction``, with no
memo or digit limits) and ``reference_create_decision_tree``
(the build on a normalized copy of the instance, each level call
returning its own strategy for the level above to graft, here through
``reference_attach_subtree``), and ``reference_generate_instance`` with
its helpers and ``reference_serialize_instance`` (the heap Prüfer
decode, the independent set that rescans every neighbour list, one
``Fraction`` per vertex, and the instance text through ``json.dumps``).
``normalize``, which scales costs so the maximum is 1, was part of the
package until the build stopped using it; the reference build and the
optimum-bound checks still do.
"""

import heapq
import itertools
import json
import math
import random
from bisect import bisect_right
from fractions import Fraction
from operator import neg
from typing import Mapping

from treesearch import DecisionTree, SolveLimits, split_components, tree_instance
from treesearch.approx import (
    ApproxStats,
    LevelRecord,
    auxiliary_tree,
    cost_levels,
    separator_sets,
)
from treesearch.core import (
    QuerySequence,
    TreeInstance,
    induced_components,
    rooted_order,
    validate_decision_tree,
)
from treesearch.errors import (
    BranchOccupied,
    ComponentMismatch,
    DuplicateVertex,
    InvalidDecisionTree,
    InvalidParameters,
    MissingVertex,
    NoNeighborQueried,
    NotAPath,
    NotConnected,
    ParseError,
    QueryOutsideCandidate,
    StateLimitExceeded,
    TreeSearchError,
    UnknownVertex,
)
from treesearch.exact import opt_exact
from treesearch.generators import _COST_STEPS, COST_MODELS, SHAPES
from treesearch.modularity import heavy_modules, k_up_modularity
from treesearch.ranking import Ranking, ranking_based_dt


def outcome(fn, *args, **kwargs):
    """What a call returns, or the class of the package error it raises."""
    try:
        return fn(*args, **kwargs)
    except TreeSearchError as exc:
        return type(exc)


def enumerate_strategies(inst, cand=None):
    """Yield every valid strategy tree for a candidate set (small inputs only)."""
    cand = frozenset(cand) if cand is not None else inst.vertex_set

    def rec(piece):
        for v in sorted(piece):
            comps = split_components(inst, piece, v)
            if not comps:
                yield (v, ())
                continue
            for combo in itertools.product(*(list(rec(c)) for c in comps)):
                yield (v, combo)

    def to_dt(node, children):
        root, kids = node
        if kids:
            children[root] = tuple(k[0] for k in kids)
        for kid in kids:
            to_dt(kid, children)
        return root

    for shape in rec(cand):
        children = {}
        root = to_dt(shape, children)
        yield DecisionTree(root, children)


def brute_opt(inst, cand=None, _memo=None):
    """Exact optimum by direct recursion over frozensets (no bitmasks, no pruning)."""
    cand = frozenset(cand) if cand is not None else inst.vertex_set
    if _memo is None:
        _memo = {}
    cached = _memo.get(cand)
    if cached is not None:
        return cached
    if len(cand) == 1:
        result = inst.cost(next(iter(cand)))
    else:
        result = None
        for v in sorted(cand):
            worst = Fraction(0)
            for comp in split_components(inst, cand, v):
                worst = max(worst, brute_opt(inst, comp, _memo))
            total = inst.cost(v) + worst
            if result is None or total < result:
                result = total
    _memo[cand] = result
    return result


def worst_case_cost(inst, d):
    """Worst-case cost by explicit path sums, without validity checking."""
    best = Fraction(0)
    stack = [(d.root, Fraction(0))]
    while stack:
        v, acc = stack.pop()
        acc = acc + inst.cost(v)
        best = max(best, acc)
        for child in d.child_list(v):
            stack.append((child, acc))
    return best


def exists_ranking_with(inst, max_label, is_valid):
    """Exhaustively search for a valid ranking using labels 1..max_label."""
    n = inst.n
    for combo in itertools.product(range(1, max_label + 1), repeat=n):
        labels = {v: combo[v - 1] for v in range(1, n + 1)}
        if is_valid(inst, labels):
            return True
    return False


def random_attachment_tree(n, rng, costs=None):
    """Random recursive tree: vertex i attaches to a uniform earlier vertex."""
    edges = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
    if costs is None:
        costs = [1] * n
    return tree_instance(n, edges, costs)


def random_costs(n, rng, steps=20):
    return [Fraction(rng.randint(1, steps), steps) for _ in range(n)]


def induced_components(inst, verts):
    """Connected components of an induced vertex set, smallest vertex first."""
    pool = set(verts)
    comps = []
    for start in sorted(verts):
        if start not in pool:
            continue
        comp = {start}
        pool.discard(start)
        stack = [start]
        while stack:
            x = stack.pop()
            for y in inst.adjacency[x]:
                if y in pool:
                    pool.discard(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    return comps


def contracted_edges(inst, separators):
    """Separator pairs ``u < v`` with no other separator on the path between them."""
    zs = sorted(separators)
    edges = []
    for i, u in enumerate(zs):
        parent = {u: None}
        stack = [u]
        while stack:
            x = stack.pop()
            for y in inst.adjacency[x]:
                if y not in parent:
                    parent[y] = x
                    stack.append(y)
        for v in zs[i + 1:]:
            x = parent[v]
            while x != u and x not in separators:
                x = parent[x]
            if x == u:
                edges.append((u, v))
    return tuple(edges)


def random_connected_subset(inst, size, rng):
    """Grow a random connected vertex set of the requested size."""
    verts = sorted(inst.vertex_set)
    start = rng.choice(verts)
    chosen = {start}
    frontier = set(inst.adjacency[start])
    while len(chosen) < size and frontier:
        v = rng.choice(sorted(frontier))
        chosen.add(v)
        frontier.discard(v)
        frontier.update(u for u in inst.adjacency[v] if u not in chosen)
    return frozenset(chosen)


def _components(mask: int, adj: list[int]) -> list[int]:
    """Connected components of a bitmask, in increasing lowest-bit order."""
    comps = []
    rem = mask
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            grow = 0
            f = frontier
            while f:
                bit = f & -f
                f ^= bit
                grow |= adj[bit.bit_length() - 1]
            frontier = grow & rem & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def reference_opt_exact(
    inst: TreeInstance, limits: SolveLimits | None = None, within=None
) -> tuple[Fraction, DecisionTree]:
    """Exact minimum worst-case cost plus one witness strategy.

    ``within`` restricts the search to a connected vertex subset (the
    witness then spans only that subset).  Ties between equally good root
    queries break towards the smallest vertex id, and children are
    ordered by their smallest vertex, so the witness is deterministic.

    Raises :class:`StateLimitExceeded` when the number of distinct
    candidate sets explored exceeds ``limits.max_states``.
    """
    if limits is None:
        limits = SolveLimits()
    verts = sorted(within) if within is not None else list(range(1, inst.n + 1))
    m = len(verts)
    if m == 0:
        raise NotConnected("empty vertex set")
    pos = {v: i for i, v in enumerate(verts)}

    adj = [0] * m
    for v in verts:
        i = pos[v]
        for u in inst.adjacency[v]:
            j = pos.get(u)
            if j is not None:
                adj[i] |= 1 << j

    full = (1 << m) - 1
    if m > 1 and _components(full, adj)[0] != full:
        raise NotConnected(f"vertex set of size {m} is not connected")

    denom = math.lcm(*(inst.cost(v).denominator for v in verts))
    weight = [inst.cost(v).numerator * (denom // inst.cost(v).denominator) for v in verts]

    memo: dict[int, int] = {}
    choice: dict[int, int] = {}
    max_states = limits.max_states

    def solve(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        if len(memo) >= max_states:
            raise StateLimitExceeded(f"exact solve exceeded {max_states} memo states")
        if mask & (mask - 1) == 0:
            i = mask.bit_length() - 1
            memo[mask] = weight[i]
            choice[mask] = i
            return weight[i]
        best = -1
        scan = mask
        while scan:
            bit = scan & -scan
            scan ^= bit
            i = bit.bit_length() - 1
            wi = weight[i]
            if best >= 0 and wi >= best:
                continue  # components cost at least one more query
            comps = _components(mask ^ bit, adj)
            comps.sort(key=lambda c: -c.bit_count())
            worst = 0
            viable = True
            for comp in comps:
                sub = solve(comp)
                if sub > worst:
                    worst = sub
                    if best >= 0 and wi + worst >= best:
                        viable = False
                        break
            if viable:
                total = wi + worst
                if best < 0 or total < best:
                    best = total
                    choice[mask] = i
        memo[mask] = best
        return best

    value = solve(full)

    children: dict[int, tuple[int, ...]] = {}

    def rebuild(mask: int) -> int:
        i = choice[mask]
        v = verts[i]
        kids = tuple(rebuild(comp) for comp in _components(mask ^ (1 << i), adj))
        if kids:
            children[v] = kids
        return v

    root = rebuild(full)
    return Fraction(value, denom), DecisionTree(root, children)


def reference_solve_path(order, parent, weights, max_states: int):
    """Optimum, root and child map of the path whose rooted ``order`` is given.

    The vertices are laid out along the path as positions ``0..m-1``;
    ``opt_from[s][e]`` and ``opt_to[e][s]`` both hold the optimum of the
    half-open interval ``[s, e)`` (0 when empty), one row per fixed end so
    both parts of every candidate are slices of one row, and ``pick[e][s]``
    its chosen position.  An interval never costs more than one containing
    it, so as the query moves right its left part's optimum never
    decreases and its right part's never increases.  The best total starts
    at the choice for ``[s, e - 1)``; candidates whose right part alone
    reaches it are skipped by bisection, the rest are scanned left to
    right, and the scan stops once the left part alone reaches the best
    total, after which no query can even tie.  Equal totals go to the
    smallest vertex id, as in the general recursion.
    """
    m = len(order)
    states = m * (m - 1) // 2
    if states > max_states:
        raise StateLimitExceeded(
            f"exact solve of a {m}-vertex path needs {states} interval states,"
            f" more than the budget of {max_states}"
        )
    # The last vertex reached from the root ends one branch; the other
    # branch follows the root in breadth-first order, nearest first.
    line = [order[-1]]
    while line[-1] != order[0]:
        line.append(parent[line[-1]])
    on_line = set(line)
    line += [v for v in order if v not in on_line]
    weight = [weights[v] for v in line]

    opt_from = [[0] * (m + 1) for _ in range(m)]
    opt_to = [[0] * (e + 1) for e in range(m + 1)]
    pick = [[0] * (e + 1) for e in range(m + 1)]
    for s in range(m):
        opt_from[s][s + 1] = opt_to[s + 1][s] = weight[s]
        pick[s + 1][s] = s
    for length in range(2, m + 1):
        for s in range(m - length + 1):
            e = s + length
            left_of = opt_from[s]
            right_of = opt_to[e]
            chosen = pick[e - 1][s]
            left, right = left_of[chosen], right_of[chosen + 1]
            best = weight[chosen] + (left if left > right else right)
            first = line[chosen]
            start = bisect_right(right_of, -best, s + 1, e, key=neg) - 1
            for k, left, wk, right, v in zip(
                range(start, e), left_of[start:e], weight[start:e],
                right_of[start + 1 : e + 1], line[start:e],
            ):
                if left >= best:
                    break  # so is every later left part, and a query adds to it
                if wk >= best:
                    continue  # the other parts cost at least one more query
                total = wk + (left if left > right else right)
                if total < best or (total == best and v < first):
                    best = total
                    chosen = k
                    first = v
            left_of[e] = right_of[s] = best
            pick[e][s] = chosen

    # Children in order of their smallest vertex, as the recursion lists them.
    children: dict[int, tuple[int, ...]] = {}
    stack = [(0, m)]
    while stack:
        s, e = stack.pop()
        k = pick[e][s]
        parts = [(a, b) for a, b in ((s, k), (k + 1, e)) if a < b]
        if len(parts) == 2 and min(line[k + 1 : e]) < min(line[s:k]):
            parts.reverse()
        if parts:
            children[line[k]] = tuple(line[pick[b][a]] for a, b in parts)
            stack.extend(parts)
    return opt_from[0][m], line[pick[m][0]], children


def reference_heavy_modules(inst, threshold, within=None):
    """Heavy modules as sorted frozensets, comparing rational costs directly."""
    verts = within if within is not None else range(1, inst.n + 1)
    heavy = [v for v in verts if inst.cost(v) > threshold]
    return tuple(induced_components(inst, heavy))


def reference_k_up_modularity(inst, within=None):
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
        k = len(reference_heavy_modules(inst, t, within=within))
        if k > best_k:
            best_k, witness = k, t
    return best_k, witness


def reference_vertex_set(d: DecisionTree) -> frozenset[int]:
    verts = {d.root}
    for kids in d.children.values():
        verts.update(kids)
    return frozenset(verts)


def reference_parent_map(d: DecisionTree) -> dict[int, int]:
    parents = {}
    for q, kids in d.children.items():
        for child in kids:
            parents[child] = q
    return parents


def reference_depth(d: DecisionTree) -> int:
    """Worst-case number of queries; :class:`DuplicateVertex` if a vertex recurs."""
    depth = {d.root: 1}
    order = [d.root]
    for v in order:
        for child in d.child_list(v):
            if child in depth:
                raise DuplicateVertex(f"vertex {child} is reached twice from the root")
            depth[child] = depth[v] + 1
            order.append(child)
    return max(depth.values())


def reference_query_sequence(inst: TreeInstance, d: DecisionTree, x: int) -> QuerySequence:
    """Queries issued when the target is ``x``: the root-to-``x`` path in ``d``."""
    if x not in reference_vertex_set(d):
        raise UnknownVertex(f"vertex {x} does not appear in the strategy")
    parents = reference_parent_map(d)
    path = [x]
    while path[-1] != d.root:
        if path[-1] not in parents:
            raise MissingVertex(f"vertex {x} is not reachable from the root")
        if len(path) > len(parents):  # each of them has a parent, so one repeats
            raise DuplicateVertex(f"the parent chain of vertex {x} repeats a vertex")
        path.append(parents[path[-1]])
    path.reverse()
    total = sum((inst.cost(v) for v in path), Fraction(0))
    return QuerySequence(tuple(path), total)


def reference_attach_subtree(d, inst, region, sub_dt):
    """Graft a strategy for an unqueried region below the right query.

    All queried neighbours of the region must lie on a single root-to-leaf
    path of ``d`` (a structural guarantee of the construction, verified
    here rather than assumed); the subtree is attached under the deepest
    of them, on the response branch holding the region.  A strategy that
    leaves the region raises :class:`QueryOutsideCandidate`, a region
    holding queried vertices :class:`DuplicateVertex`, and a region not
    inside one response branch :class:`NotConnected`.  Child lists that the
    root of ``d`` does not reach are no part of it and are left out.
    """
    reached = [d.root]
    for q in reached:
        reached.extend(d.child_list(q))
    d = DecisionTree(d.root, {q: d.child_list(q) for q in reached})
    region = frozenset(region)
    outside = reference_vertex_set(sub_dt) - region
    if outside:
        raise QueryOutsideCandidate(min(outside), f"graft leaves its region at {sorted(outside)}")
    queried = reference_vertex_set(d)
    overlap = region & queried
    if overlap:
        raise DuplicateVertex(f"region holds queried vertices {sorted(overlap)}")

    nbrs = set()
    for w in region:
        nbrs.update(inst.adjacency[w])
    nbrs -= region
    hooks = sorted(nbrs & queried)
    if not hooks:
        raise NoNeighborQueried(f"no neighbour of the region {sorted(region)} is queried yet")

    depth = {d.root: 0}
    stack = [d.root]
    while stack:
        v = stack.pop()
        for child in d.child_list(v):
            depth[child] = depth[v] + 1
            stack.append(child)
    deepest = max(hooks, key=lambda v: depth[v])

    chain = {deepest}
    parents = reference_parent_map(d)
    v = deepest
    while v != d.root:
        v = parents[v]
        chain.add(v)
    stray = [q for q in hooks if q not in chain]
    if stray:
        raise NotAPath(
            f"queried neighbours {stray} of the region are not ancestors of {deepest}"
        )

    branch = None
    for comp in split_components(inst, inst.vertex_set, deepest):
        if region <= comp:
            branch = comp
            break
    if branch is None:
        raise NotConnected(f"region is not inside one response branch of {deepest}")
    for child in d.child_list(deepest):
        if child in branch:
            raise BranchOccupied(
                f"query {deepest} already has a child on the branch holding the region"
            )

    merged = dict(d.children)
    merged[deepest] = d.child_list(deepest) + (sub_dt.root,)
    for q, kids in sub_dt.children.items():
        merged[q] = kids
    return DecisionTree(d.root, merged)


def _reference_appearance_check(d: DecisionTree, universe: frozenset[int]) -> None:
    seen: dict[int, int] = {d.root: 1}
    for kids in d.children.values():
        for child in kids:
            seen[child] = seen.get(child, 0) + 1
    dups = sorted(v for v, cnt in seen.items() if cnt > 1)
    if dups:
        raise DuplicateVertex(f"vertices appear more than once: {dups}")
    extra = sorted(set(seen) - universe)
    if extra:
        raise QueryOutsideCandidate(extra[0], f"vertices outside the instance: {extra}")
    missing = sorted(universe - set(seen))
    if missing:
        raise MissingVertex(f"vertices never queried: {missing}")


def reference_validate_decision_tree(
    inst: TreeInstance, d: DecisionTree, within=None
) -> DecisionTree:
    """Check that ``d`` is a valid strategy for the instance.

    Starting from the full candidate set, every query must lie inside its
    own candidate set and its children must correspond one-to-one to the
    components left after removing the queried vertex, with each child's
    subtree covering exactly its component.  ``within`` restricts the
    universe to a connected vertex subset (defaults to all vertices).
    """
    universe = frozenset(within) if within is not None else inst.vertex_set
    _reference_appearance_check(d, universe)

    # Subtree vertex sets, computed bottom-up over the (acyclic) child map.
    order = []
    stack = [d.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(d.child_list(v))
    subtree: dict[int, frozenset[int]] = {}
    for v in reversed(order):
        acc = {v}
        for child in d.child_list(v):
            acc.update(subtree[child])
        subtree[v] = frozenset(acc)
    if subtree[d.root] != universe:
        unreachable = sorted(universe - subtree[d.root])
        raise MissingVertex(f"vertices not reachable from the root: {unreachable}")

    work = [(d.root, universe)]
    while work:
        q, cand = work.pop()
        if q not in cand:
            raise QueryOutsideCandidate(q)
        comps = split_components(inst, cand, q)
        kids = d.child_list(q)
        if len(kids) != len(comps):
            raise ComponentMismatch(
                q, f"query {q} has {len(kids)} children but {len(comps)} response components"
            )
        remaining = {comp: comp for comp in comps}
        for child in kids:
            match = remaining.pop(subtree[child], None)
            if match is None:
                raise ComponentMismatch(
                    q, f"subtree of child {child} does not equal a response component of {q}"
                )
            work.append((child, match))
    return d


def reference_evaluate_cost(inst: TreeInstance, d: DecisionTree, within=None) -> Fraction:
    """Worst-case total query cost of a valid strategy, as an exact rational."""
    reference_validate_decision_tree(inst, d, within=within)
    best = Fraction(0)
    stack = [(d.root, Fraction(0))]
    while stack:
        v, acc = stack.pop()
        acc = acc + inst.cost(v)
        if acc > best:
            best = acc
        for child in d.child_list(v):
            stack.append((child, acc))
    return best


def reference_vertex_ranking(inst: TreeInstance, within=None) -> Ranking:
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

    return Ranking(labels)


def reference_is_valid_ranking(inst: TreeInstance, labels: Mapping[int, int], within=None) -> bool:
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


def reference_ranking_based_dt(inst: TreeInstance, within=None) -> DecisionTree:
    """Strategy tree induced by a minimum ranking of a connected vertex set.

    The root of every piece is its unique top-labelled vertex; the
    children recurse on the components left after removing it.  Depth is
    at most ``floor(log2 m) + 1``, and the result is an optimal strategy
    whenever all costs are equal.
    """
    verts = inst.subset(within)
    ranking = reference_vertex_ranking(inst, within=verts)
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


def reference_parse_cost(token, position: int) -> Fraction:
    if isinstance(token, bool):
        raise ParseError(f"cost #{position} must be a rational string or integer")
    if isinstance(token, int):
        return Fraction(token)
    if isinstance(token, str):
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cost #{position} is not a rational: {token!r}") from exc
    raise ParseError(f"cost #{position} must be a rational string or integer")


def normalize(inst: TreeInstance) -> tuple[TreeInstance, Fraction]:
    """Scale costs so the maximum is exactly 1; return (instance, scale).

    The scale is the former maximum cost.  Relative cost order is
    preserved; an already-normalized instance is returned unchanged.
    """
    scale = inst.max_cost
    if scale == 1:
        return inst, Fraction(1)
    scaled = tuple(c / scale for c in inst.costs)
    return TreeInstance(inst.n, inst.edges, scaled), scale


def reference_create_decision_tree(
    inst: TreeInstance, limits: SolveLimits | None = None
) -> tuple[DecisionTree, ApproxStats]:
    """Build a full strategy via the doubling-level recursion.

    Returns the validated strategy together with run statistics: the
    recursion depth ``depth_d`` (number of level descents on the deepest
    branch that did real work), one :class:`LevelRecord` per separator
    construction, and the strategy's cost on ``inst`` from
    ``reference_evaluate_cost``.  Exact auxiliary solves share the given
    ``limits``.
    """
    norm, _scale = normalize(inst)
    n = norm.n
    if n == 1:
        dtree = DecisionTree(1, {})
        return dtree, ApproxStats(0, (), reference_evaluate_cost(inst, dtree))

    levels = cost_levels(n)
    records: list[LevelRecord] = []

    weights = norm.weights

    def recurse(region: frozenset[int], level: int) -> tuple[DecisionTree, int]:
        a, b = levels[level]
        cut = norm.cutoff(a)
        heavy = sum(1 for v in region if weights[v] > cut)
        if level == 0 or heavy == len(region):
            return ranking_based_dt(norm, within=region), 0
        if not heavy:
            return recurse(region, level - 1)

        seps = separator_sets(norm, region, a)
        aux = auxiliary_tree(norm, seps)
        _cost_z, aux_dt = opt_exact(aux.instance, limits=limits)
        back = aux.vertices
        strategy = DecisionTree(
            back[aux_dt.root - 1],
            {back[q - 1]: [back[c - 1] for c in kids] for q, kids in aux_dt.children.items()},
        )

        comps = induced_components(norm, region - seps.separators)
        comp_modules = [heavy_modules(norm, a, within=comp) for comp in comps]
        k_region, _witness = k_up_modularity(norm, within=region)
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

        depth = 0
        for comp, modules in zip(comps, comp_modules):
            if len(modules) > 1:
                raise TreeSearchError(f"separator left {len(modules)} heavy modules together")
            if modules:
                module = modules[0]
                strategy = reference_attach_subtree(
                    strategy, norm, comp, ranking_based_dt(norm, within=module)
                )
                light_parts = induced_components(norm, comp - module)
            else:
                light_parts = [comp]
            for part in light_parts:
                part_dt, part_depth = recurse(part, level - 1)
                strategy = reference_attach_subtree(strategy, norm, part, part_dt)
                depth = max(depth, part_depth)
        return strategy, depth + 1

    dtree, depth_d = recurse(norm.vertex_set, len(levels) - 1)
    validate_decision_tree(norm, dtree)
    cost = reference_evaluate_cost(inst, dtree)
    return dtree, ApproxStats(depth_d, tuple(records), cost)


# Instance generation and writing as the package did them before the
# linear decode, the parent-array independent set, the shared cost
# objects and the direct instance writer.  The package must give the
# same instances and the same text.


def reference_prufer_decode(seq: list[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def reference_shape_edges(shape: str, n: int, rng: random.Random) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if shape == "path":
        return [(i, i + 1) for i in range(1, n)]
    if shape == "star":
        return [(1, v) for v in range(2, n + 1)]
    if shape == "spider":
        legs = rng.randint(2, n - 1) if n > 2 else 1
        sizes = [1] * legs
        for _ in range(n - 1 - legs):
            sizes[rng.randrange(legs)] += 1
        edges = []
        nxt = 2
        for size in sizes:
            prev = 1
            for _ in range(size):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        return edges
    if shape == "random-tree":
        if n == 2:
            return [(1, 2)]
        seq = [rng.randint(1, n) for _ in range(n - 2)]
        return reference_prufer_decode(seq, n)
    raise InvalidParameters(f"unknown shape {shape!r}")


def reference_bfs_layers(n: int, edges: list[tuple[int, int]], root: int) -> list[int]:
    nbrs: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    layer = [-1] * (n + 1)
    layer[root] = 0
    queue = [root]
    while queue:
        nxt = []
        for x in queue:
            for y in nbrs[x]:
                if layer[y] < 0:
                    layer[y] = layer[x] + 1
                    nxt.append(y)
        queue = nxt
    return layer


def reference_max_independent_set(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """One maximum independent set of the tree, deterministically."""
    if n == 1:
        return [1]
    nbrs: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    parent = [0] * (n + 1)
    order = [1]
    parent[1] = -1
    for x in order:
        for y in nbrs[x]:
            if parent[y] == 0:
                parent[y] = x
                order.append(y)
    take = [1] * (n + 1)  # size if v is in the set
    skip = [0] * (n + 1)
    for v in reversed(order):
        for c in nbrs[v]:
            if c != parent[v]:
                take[v] += skip[c]
                skip[v] += max(take[c], skip[c])
    chosen = []
    stack = [(1, True)]
    while stack:
        v, allowed = stack.pop()
        use = allowed and take[v] >= skip[v]
        if use:
            chosen.append(v)
        for c in nbrs[v]:
            if c != parent[v]:
                stack.append((c, not use))
    return sorted(chosen)


def reference_costs(
    cost_model: str,
    n: int,
    edges: list[tuple[int, int]],
    rng: random.Random,
    k,
    eps,
) -> list[Fraction]:
    if cost_model == "uniform":
        return [Fraction(1)] * n
    if cost_model == "random":
        return [Fraction(rng.randint(1, _COST_STEPS), _COST_STEPS) for _ in range(n)]
    if cost_model == "up-monotonic":
        root = rng.randint(1, n)
        layer = reference_bfs_layers(n, edges, root)
        depth = max(layer[1:])
        draws = sorted(
            (Fraction(rng.randint(1, _COST_STEPS), _COST_STEPS) for _ in range(depth + 1)),
            reverse=True,
        )
        return [draws[layer[v]] for v in range(1, n + 1)]
    if cost_model == "planted-k":
        if k is None or k < 1:
            raise InvalidParameters("planted-k requires k >= 1")
        independent = reference_max_independent_set(n, edges)
        if len(independent) < k:
            raise InvalidParameters(
                f"cannot place {k} pairwise non-adjacent centers in this tree"
            )
        centers = set(rng.sample(independent, k))
        return [Fraction(1) if v in centers else Fraction(1, 2) for v in range(1, n + 1)]
    if cost_model == "alternating":
        if eps is None:
            raise InvalidParameters("alternating requires eps > 0")
        try:
            eps = Fraction(eps)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidParameters(f"eps {eps!r} is not a rational number") from exc
        if eps <= 0:
            raise InvalidParameters("alternating requires eps > 0")
        layer = reference_bfs_layers(n, edges, 1)
        high = 1 + eps
        raw = [Fraction(1) if layer[v] % 2 == 0 else high for v in range(1, n + 1)]
        return [c / high for c in raw]  # normalized: high costs become 1
    raise InvalidParameters(f"unknown cost model {cost_model!r}")


def reference_generate_instance(
    shape: str, cost_model: str, n: int, seed: int, k=None, eps=None
) -> TreeInstance:
    """Generate one instance; identical arguments give identical output.

    ``k`` configures the planted-groups model (how many expensive,
    pairwise non-adjacent centers); ``eps`` configures the alternating
    model (relative gap between the two alternating cost values).
    """
    if n < 1:
        raise InvalidParameters(f"n must be at least 1, got {n}")
    if shape not in SHAPES:
        raise InvalidParameters(f"unknown shape {shape!r}")
    if cost_model not in COST_MODELS:
        raise InvalidParameters(f"unknown cost model {cost_model!r}")
    rng = random.Random(seed)
    edges = reference_shape_edges(shape, n, rng)
    costs = reference_costs(cost_model, n, edges, rng, k, eps)
    return tree_instance(n, edges, costs)


def reference_serialize_instance(inst: TreeInstance) -> str:
    doc = {
        "n": inst.n,
        "edges": [[u, v] for u, v in inst.edges],
        "costs": [str(c) for c in inst.costs],
    }
    return json.dumps(doc, indent=2) + "\n"
