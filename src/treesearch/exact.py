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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import DecisionTree, TreeInstance, rooted_order
from .errors import InvalidParameters, NotConnected, StateLimitExceeded


@dataclass(frozen=True)
class SolveLimits:
    """Resource budget for one exact solve (number of memoised sets)."""

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
    interpreter stack.
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
