"""Deterministic random instance generation for tests and benchmarks.

Shapes: uniformly random labelled trees (random Prüfer sequences,
decoded by the linear pointer scan), paths, stars, and spiders.  Cost
models range from uniform through fully random rationals to structured
families: costs that only decrease away from a root, a planted number of
expensive groups, and near-uniform alternating costs.  Every step is
linear in ``n``, and a cost list shares one ``Fraction`` per distinct
value.  Identical arguments always produce the identical instance.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import TreeInstance, _to_cost, validate_instance
from .errors import InvalidCost, InvalidParameters

SHAPES = ("random-tree", "path", "star", "spider")
COST_MODELS = ("uniform", "random", "up-monotonic", "planted-k", "alternating")

_COST_STEPS = 20  # rationals drawn from {1/20, ..., 20/20}


def _prufer_decode(seq: list[int], n: int) -> list[tuple[int, int]]:
    """The tree of Prüfer sequence ``seq``, smallest leaf first, in linear time.

    ``leaf`` is the smallest leaf left and every vertex below ``ptr`` has
    been scanned; a vertex that becomes a leaf below ``ptr`` is the new
    smallest, otherwise the scan resumes at ``ptr``.
    """
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    leaf = degree.index(1, 1)
    ptr = leaf + 1
    edges = []
    for v in seq:
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = degree.index(1, ptr)
            ptr = leaf + 1
    edges.append((leaf, n))
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


def _bfs(n: int, edges: list[tuple[int, int]], root: int):
    """The tree's breadth-first order from ``root``, parents (0 at the root) and depths."""
    nbrs: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    parent = [-1] * (n + 1)
    parent[root] = 0
    layer = [0] * (n + 1)
    order = [root]
    for x in order:
        for y in nbrs[x]:
            if parent[y] < 0:
                parent[y] = x
                layer[y] = layer[x] + 1
                order.append(y)
    return order, parent, layer


def _max_independent_set(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """One maximum independent set of the tree, deterministically.

    Rooted at vertex 1, a vertex joins the set when taking it is no worse
    than skipping it and its parent did not join.
    """
    order, parent, _ = _bfs(n, edges, 1)
    take = [1] * (n + 1)  # size if v is in the set
    skip = [0] * (n + 1)
    for v in reversed(order[1:]):
        p = parent[v]
        take[p] += skip[v]
        skip[p] += max(take[v], skip[v])
    use = [False] * (n + 1)  # use[0] stands for the root's missing parent
    for v in order:
        use[v] = take[v] >= skip[v] and not use[parent[v]]
    return [v for v in range(1, n + 1) if use[v]]


def _low_cost(eps) -> Fraction:
    """The alternating model's low cost ``1 / (1 + eps)``, within the digit limit."""
    if eps is None:
        raise InvalidParameters("alternating requires eps > 0")
    try:
        eps = _to_cost(eps, "eps")
        if eps <= 0:
            raise InvalidParameters("alternating requires eps > 0")
        return _to_cost(1 / (1 + eps), "the cost 1 / (1 + eps)")
    except InvalidCost as exc:
        raise InvalidParameters(str(exc)) from exc


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
    steps = [Fraction(i, _COST_STEPS) for i in range(_COST_STEPS + 1)]
    if cost_model == "random":
        return [steps[rng.randint(1, _COST_STEPS)] for _ in range(n)]
    if cost_model == "up-monotonic":
        root = rng.randint(1, n)
        _, _, layer = _bfs(n, edges, root)
        depth = max(layer[1:])
        draws = sorted((steps[rng.randint(1, _COST_STEPS)] for _ in range(depth + 1)),
                       reverse=True)
        return [draws[layer[v]] for v in range(1, n + 1)]
    if cost_model == "planted-k":
        if k is None or k < 1:
            raise InvalidParameters("planted-k requires k >= 1")
        independent = _max_independent_set(n, edges)
        if len(independent) < k:
            raise InvalidParameters(
                f"cannot place {k} pairwise non-adjacent centers in this tree"
            )
        costs = [steps[_COST_STEPS // 2]] * n
        for v in rng.sample(independent, k):
            costs[v - 1] = steps[_COST_STEPS]
        return costs
    if cost_model == "alternating":
        low = _low_cost(eps)  # normalized: high costs become 1
        _, _, layer = _bfs(n, edges, 1)
        return [steps[_COST_STEPS] if layer[v] % 2 else low for v in range(1, n + 1)]
    raise InvalidParameters(f"unknown cost model {cost_model!r}")


def generate_instance(
    shape: str, cost_model: str, n: int, seed: int, k=None, eps=None
) -> TreeInstance:
    """Generate one instance; identical arguments give identical output.

    ``k`` configures the planted-groups model (how many expensive,
    pairwise non-adjacent centers); ``eps`` configures the alternating
    model (relative gap between the two alternating cost values; it is
    converted as a cost is, and refused when ``1 / (1 + eps)`` has more
    digits than :func:`sys.get_int_max_str_digits`).  ``n`` and ``k``
    must be ``int``s, not ``bool``s.
    """
    for name, value in (("n", n), ("k", 0 if k is None else k)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidParameters(f"{name} must be an integer, got {value!r:.80}")
    if n < 1:
        raise InvalidParameters(f"n must be at least 1, got {n}")
    if shape not in SHAPES:
        raise InvalidParameters(f"unknown shape {shape!r}")
    if cost_model not in COST_MODELS:
        raise InvalidParameters(f"unknown cost model {cost_model!r}")
    rng = random.Random(seed)
    edges = _shape_edges(shape, n, rng)
    costs = _costs(cost_model, n, edges, rng, k, eps)
    return validate_instance(TreeInstance(n, tuple(edges), tuple(costs)))
