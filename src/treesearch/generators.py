"""Deterministic random instance generation for tests and benchmarks.

Shapes: uniformly random labelled trees (via random attachment sequences
decoded Prüfer-style), paths, stars, and spiders.  Cost models range from
uniform through fully random rationals to structured families: costs that
only decrease away from a root, a planted number of expensive groups, and
near-uniform alternating costs.  Identical arguments always produce the
identical instance.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction

from .core import TreeInstance, tree_instance
from .errors import InvalidParameters

SHAPES = ("random-tree", "path", "star", "spider")
COST_MODELS = ("uniform", "random", "up-monotonic", "planted-k", "alternating")

_COST_STEPS = 20  # rationals drawn from {1/20, ..., 20/20}


def _prufer_decode(seq: list[int], n: int) -> list[tuple[int, int]]:
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


def _shape_edges(shape: str, n: int, rng: random.Random) -> list[tuple[int, int]]:
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
        return _prufer_decode(seq, n)
    raise InvalidParameters(f"unknown shape {shape!r}")


def _bfs_layers(n: int, edges: list[tuple[int, int]], root: int) -> list[int]:
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


def _max_independent_set(n: int, edges: list[tuple[int, int]]) -> list[int]:
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


def _costs(
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
        layer = _bfs_layers(n, edges, root)
        depth = max(layer[1:])
        draws = sorted(
            (Fraction(rng.randint(1, _COST_STEPS), _COST_STEPS) for _ in range(depth + 1)),
            reverse=True,
        )
        return [draws[layer[v]] for v in range(1, n + 1)]
    if cost_model == "planted-k":
        if k is None or k < 1:
            raise InvalidParameters("planted-k requires k >= 1")
        independent = _max_independent_set(n, edges)
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
        layer = _bfs_layers(n, edges, 1)
        high = 1 + eps
        raw = [Fraction(1) if layer[v] % 2 == 0 else high for v in range(1, n + 1)]
        return [c / high for c in raw]  # normalized: high costs become 1
    raise InvalidParameters(f"unknown cost model {cost_model!r}")


def generate_instance(
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
    edges = _shape_edges(shape, n, rng)
    costs = _costs(cost_model, n, edges, rng, k, eps)
    return tree_instance(n, edges, costs)
