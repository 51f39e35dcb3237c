"""Independent reference implementations used only to check the package.

These deliberately avoid the package's solver machinery: strategies are
enumerated or recursed over directly from the definitions, with no
memoisation, bitmasks, or pruning.  The one exception is
``reference_opt_exact``, the earlier bitmask solver that finds components
by search; it is kept as the slow path whose values, witnesses and
state-limit outcomes the edge-side solver must reproduce.
"""

import itertools
import math
from fractions import Fraction

from treesearch import DecisionTree, SolveLimits, split_components, tree_instance
from treesearch.core import TreeInstance
from treesearch.errors import NotConnected, StateLimitExceeded


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
