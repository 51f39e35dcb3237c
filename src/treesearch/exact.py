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
filled by length with no recursion and no memo dict, gives the same
values and witnesses as the general recursion.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import neg

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
    that exceeds the budget.
    """
    if limits is None:
        limits = SolveLimits()
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
