"""A fixed reference kernel that tells how fast the host runs right now.

The benchmark shares its host with other work, so the same code runs a
tenth to a third slower in some minutes than in others.  The kernel is
pure Python in the style of the package's hot loops: a memoised bitmask
DP over the connected subsets of a small tree, and a breadth-first walk
of a large one.  It lives here, not in ``treesearch``, so no change to
the package changes it.  Timing it between ops gives the host's speed
over the same minutes as the ops; see ``speed``.
"""

from __future__ import annotations

import gc
from time import perf_counter

# The kernel's median time on the host the benchmark was defined on (2
# shared vCPUs).  It fixes the unit of the scaled metrics and must not
# change between the commits being compared.
REFERENCE_S = 0.022

_DP_N = 13
_WALK_N = 4000


def _tree_adjacency(n: int) -> list[list[int]]:
    """A fixed random-looking tree on ``0..n-1``; ``i`` hangs off a smaller vertex."""
    adj = [[] for _ in range(n)]
    for i in range(1, n):
        p = ((i * 2654435761) >> 7) % i
        adj[i].append(p)
        adj[p].append(i)
    return adj


_DP_ADJ = [sum(1 << j for j in nbrs) for nbrs in _tree_adjacency(_DP_N)]
_DP_WEIGHT = [(i * 5) % 7 + 1 for i in range(_DP_N)]
_WALK_ADJ = _tree_adjacency(_WALK_N)


def _components(mask: int) -> list[int]:
    comps = []
    rem = mask
    while rem:
        comp = frontier = rem & -rem
        while frontier:
            grow = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                grow |= _DP_ADJ[bit.bit_length() - 1]
            frontier = grow & rem & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def _rank(mask: int, memo: dict[int, int]) -> int:
    """Cheapest worst-case query cost of the subtree ``mask``."""
    cached = memo.get(mask)
    if cached is not None:
        return cached
    best = -1
    scan = mask
    while scan:
        bit = scan & -scan
        scan ^= bit
        worst = max((_rank(c, memo) for c in _components(mask ^ bit)), default=0)
        total = _DP_WEIGHT[bit.bit_length() - 1] + worst
        if best < 0 or total < best:
            best = total
    memo[mask] = best
    return best


def _walk() -> int:
    depth = {0: 0}
    queue = [0]
    for v in queue:
        for u in _WALK_ADJ[v]:
            if u not in depth:
                depth[u] = depth[v] + 1
                queue.append(u)
    return sum(depth.values())


def kernel() -> tuple[int, int]:
    return _rank((1 << _DP_N) - 1, {}), _walk()


def sample() -> float:
    """Seconds one run of the kernel takes now, with the collector paused
    so that the benchmark's own heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        kernel()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()
