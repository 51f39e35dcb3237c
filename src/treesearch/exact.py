"""Exact optimum strategies by dynamic programming over candidate sets.

The recursion follows the query semantics directly: the best strategy for
a connected candidate set picks the query minimising its own cost plus
the worst component left behind.  Candidate sets are memoised as
bitmasks, and costs are the instance's integer weights (costs over their
common denominator), so the inner loop stays in machine arithmetic.  The
tree is rooted once up front to record, for every edge ``(i, j)``, the
bitmask of the vertices on ``j``'s side; removing ``i`` from a connected
set then splits it into one component per neighbour in O(deg i) mask
operations, with no search.  Connected-subtree counts grow exponentially
on branchy trees, so every solve carries an explicit state budget and
fails fast once it is exhausted.

A path (every vertex with at most two sides) has only its intervals as
connected subsets, so it is solved apart: a bottom-up interval table,
filled in O(m²) time by two sliding-window minima with no recursion,
gives the same values and witnesses as the general recursion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .core import DecisionTree, TreeInstance, rooted_order
from .errors import InvalidParameters, NotConnected, StateLimitExceeded


@dataclass(frozen=True)
class SolveLimits:
    """Resource budget for one exact solve (number of memoised sets).

    A path of ``m`` vertices needs ``m * (m - 1) / 2`` states, one per
    interval of two or more vertices, and is refused up front when that
    exceeds ``max_states``; other trees count the connected sets the
    recursion memoises and stop when the count reaches the budget.
    """

    max_states: int = 5_000_000

    def __post_init__(self):
        if not isinstance(self.max_states, int) or isinstance(self.max_states, bool):
            raise InvalidParameters(f"max_states must be an integer, got {self.max_states!r:.80}")
        if self.max_states < 1:
            raise InvalidParameters(f"max_states must be at least 1, got {self.max_states}")


def _lowest_bit(mask: int) -> int:
    return mask & -mask


def _largest_first(mask: int) -> tuple[int, int]:
    return -mask.bit_count(), mask & -mask


def opt_exact(
    inst: TreeInstance, limits: SolveLimits | None = None, within=None
) -> tuple[Fraction, DecisionTree]:
    """Exact minimum worst-case cost plus one witness strategy.

    ``within`` restricts the search to a connected vertex subset (the
    witness then spans only that subset).  Ties between equally good root
    queries break towards the smallest vertex id, and children are
    ordered by their smallest vertex, so the witness is deterministic.

    Raises :class:`StateLimitExceeded` when the number of distinct
    candidate sets explored exceeds ``limits.max_states``, or when the
    recursion (one level per nested candidate set) runs out of
    interpreter stack.  A restricted tree that is a path is solved
    without recursion, so the stack limit applies only to other trees;
    a path of ``m`` vertices needs ``m * (m - 1) / 2`` states (its
    intervals of two or more vertices) and fails before any work when
    that exceeds the budget.  ``limits`` that is neither ``None`` nor a
    :class:`SolveLimits` raises :class:`InvalidParameters`.
    """
    if limits is None:
        limits = SolveLimits()
    elif not isinstance(limits, SolveLimits):
        raise InvalidParameters(f"limits must be a SolveLimits, got {type(limits).__name__}")
    verts = sorted(inst.subset(within))
    m = len(verts)
    if m == 0:
        raise NotConnected("empty vertex set")
    pos = {v: i for i, v in enumerate(verts)}

    # Root the restricted tree at its smallest vertex.  side[i] lists, for
    # each neighbour j of i, the bitmask of the vertices on j's side of
    # edge (i, j); the components of a connected mask minus i are then the
    # non-empty ``mask & s`` over ``s in side[i]``.
    order, parent = rooted_order(inst, verts, verts[0])
    full = (1 << m) - 1
    below = [1 << i for i in range(m)]
    side: list[list[int]] = [[] for _ in range(m)]
    for v in reversed(order[1:]):
        x, p = pos[v], pos[parent[v]]
        below[p] |= below[x]
        side[p].append(below[x])
        side[x].append(full ^ below[x])

    weights = inst.weights
    if all(len(s) <= 2 for s in side):
        value, root, children = _solve_path(order, parent, weights, limits.max_states)
        return Fraction(value, inst.denominator), DecisionTree(root, children)
    weight = [weights[v] for v in verts]

    memo: dict[int, int] = {}
    choice: dict[int, int] = {}
    max_states = limits.max_states
    unbeaten = sum(weight) + 1  # above every strategy's cost

    def solve(mask: int) -> int:
        """Optimum of a connected mask that is not memoised yet."""
        if len(memo) >= max_states:
            raise StateLimitExceeded(f"exact solve exceeded {max_states} memo states")
        if mask & (mask - 1) == 0:
            i = mask.bit_length() - 1
            memo[mask] = weight[i]
            choice[mask] = i
            return weight[i]
        best = unbeaten
        scan = mask
        while scan:
            bit = scan & -scan
            scan ^= bit
            i = bit.bit_length() - 1
            wi = weight[i]
            if wi >= best:
                continue  # components cost at least one more query
            # Largest component first, ties to the lowest bit; two
            # components (every path split) are ordered inline.
            comps = [c for s in side[i] if (c := mask & s)]
            if len(comps) == 2:
                a, b = comps
                na, nb = a.bit_count(), b.bit_count()
                if nb > na or (nb == na and b & -b < a & -a):
                    comps = (b, a)
            elif len(comps) > 2:
                comps.sort(key=_largest_first)
            worst = 0
            for comp in comps:
                sub = memo.get(comp)
                if sub is None:
                    sub = solve(comp)
                if sub > worst:
                    worst = sub
                    if wi + worst >= best:
                        break
            else:  # no break, so wi + worst < best
                best = wi + worst
                choice[mask] = i
        memo[mask] = best
        return best

    children: dict[int, tuple[int, ...]] = {}

    def rebuild(mask: int) -> int:
        i = choice[mask]
        v = verts[i]
        comps = sorted((c for s in side[i] if (c := mask & s)), key=_lowest_bit)
        if comps:
            children[v] = tuple(rebuild(comp) for comp in comps)
        return v

    try:
        value = solve(full)
        root = rebuild(full)
    except RecursionError:
        raise StateLimitExceeded(
            f"exact solve of {m} vertices exhausted the interpreter's recursion depth"
        ) from None
    return Fraction(value, inst.denominator), DecisionTree(root, children)


def _solve_path(order, parent, weights, max_states: int):
    """Optimum, root and child map of the path whose rooted ``order`` is given.

    With the vertices at positions ``0..m-1`` along the path, ``opt[s][e]``
    is the optimum of ``[s, e)`` (0 when empty) and ``pick[e][s]`` its
    chosen position.  Query ``k`` costs ``w_k`` plus the larger of
    ``opt[s][k]`` and ``opt[k + 1][e]``.  No interval costs more than one
    containing it, so if ``c`` is the first ``k`` whose left part is at
    least its right part, queries in ``[s, c)`` pay their right part and
    those in ``[c, e)`` their left part, and ``c`` moves only right as
    ``e`` grows and only left as ``s`` falls.  Filled with ``e`` ascending
    and ``s`` descending, both ranges are sliding windows whose minima
    monotone deques keep, keyed ``total * len(weights) + vertex id`` so
    equal totals go to the smallest id, as in the general recursion.
    That is amortised O(1) per interval, O(m²) in all.
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
    scale = len(weights)
    where = {v: k for k, v in enumerate(line)}
    alone = [weights[v] * scale + v for v in line]

    opt = [[0] * (m + 1) for _ in range(m + 1)]
    pick = [[0] * (e + 1) for e in range(m + 1)]
    cut = list(range(m))
    tails = [deque() for _ in range(m)]  # per s, the window [c, e)
    for e in range(1, m + 1):
        pick_e = pick[e]
        added = alone[e - 1]
        head = deque()  # the window [s, c)
        for s in range(e - 1, -1, -1):
            from_s = opt[s]
            key = from_s[e - 1] * scale + added
            tail = tails[s]
            while tail and tail[-1] > key:
                tail.pop()
            tail.append(key)
            c = cut[s]
            if from_s[c] < opt[c + 1][e]:
                c += 1
                while from_s[c] < opt[c + 1][e]:
                    c += 1
                cut[s] = c
                while where[tail[0] % scale] < c:
                    tail.popleft()
            best = tail[0]
            if c > s:
                key = opt[s + 1][e] * scale + alone[s]
                while head and head[-1] > key:
                    head.pop()
                head.append(key)
                while where[head[0] % scale] >= c:
                    head.popleft()
                if head[0] < best:
                    best = head[0]
            elif head:
                head.clear()
            from_s[e] = best // scale
            pick_e[s] = where[best % scale]

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
    return opt[0][m], line[pick[m][0]], children
