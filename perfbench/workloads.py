"""The four workloads: seeded inputs, the timed op, and the correctness gate.

A workload run is a sequence of *passes*.  A workload's inputs are a fixed
pool of ``pool`` passes, pool entry ``i`` being a list of instance specs
drawn from ``Random("<name>:<i>")``; pass ``p`` of a run with seed ``s``
is entry ``(s + p) % pool``.  Every pass has the same mix of shapes,
sizes and cost models, and only the random trees and costs differ
between entries.  A run makes at least ``pool`` passes, so it times every
entry whatever its seed, and two runs differ in the host's speed rather
than in how hard their random instances happened to be; the seed sets
where in the pool a run starts.  Within a run the first ``pool`` passes
are all different, so a cache keyed on instance content gains little.  The program
is driven only through the package's public functions.

Why each workload exists, which layers it exercises and which it bypasses
is written down in ``README.md`` beside this file.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from treesearch import (
    COST_MODELS,
    SHAPES,
    DecisionTree,
    SolveLimits,
    TreeInstance,
    create_decision_tree,
    evaluate_cost,
    generate_instance,
    opt_exact,
    parse_decision_tree,
    parse_instance,
    serialize_decision_tree,
    serialize_instance,
    validate_decision_tree,
)
from treesearch.bench import BenchConfig, plan_instances
from treesearch.errors import TreeSearchError

# One budget for every exact solve, builder and oracle alike.  It must stay
# the same on every commit the benchmark compares.
LIMITS = SolveLimits(max_states=1_000_000)


@dataclass(frozen=True)
class Spec:
    """Arguments of one ``generate_instance`` call."""

    shape: str
    cost_model: str
    n: int
    seed: int
    k: int | None = None
    eps: Fraction | None = None

    def generate(self) -> TreeInstance:
        return generate_instance(
            self.shape, self.cost_model, self.n, self.seed, k=self.k, eps=self.eps
        )


@dataclass
class Input:
    spec: Spec
    inst: TreeInstance
    text: str  # the serialized instance


@dataclass
class Outcome:
    """What one op produced, plus the builder's own time."""

    tree: DecisionTree | None = None
    depth_d: int = 0
    levels: int = 0
    max_aux_size: int = 0
    cost: Fraction | None = None
    opt: Fraction | None = None
    witness: DecisionTree | None = None
    strategy_text: str | None = None
    build_s: float = 0.0
    error: str | None = None


def plan_stream_small(rng: random.Random) -> list[Spec]:
    # One plan per (shape, cost model, n): the oracle's time grows as 2^n on
    # stars, so an unstratified draw lets the number of large stars set the
    # figures.  plan_instances turns every alternating plan into a path.
    specs = []
    for shape in SHAPES:
        for cost_model in COST_MODELS:
            for n in range(2, 15):
                config = BenchConfig(count=1, n_range=(n, n), shapes=(shape,),
                                     cost_models=(cost_model,), seed=rng.getrandbits(32))
                specs += [Spec(sh, model, m, s, k, eps)
                          for s, sh, model, m, k, eps in plan_instances(config)]
    return specs


def plan_build_path(rng: random.Random) -> list[Spec]:
    # A planted-k path contracts to the same path of 2k - 1 vertices on every
    # seed, so most of a pass is the same exact work each time; the random
    # paths (aux 45-61) and the alternating ones (ranking only) ride along.
    specs = [Spec("path", "planted-k", 110, rng.getrandbits(32), k=28) for _ in range(4)]
    specs += [Spec("path", "random", 110, rng.getrandbits(32)) for _ in range(2)]
    eps = Fraction(1, 2 ** rng.randint(1, 4))
    specs.append(Spec("path", "alternating", 160, rng.getrandbits(32), eps=eps))
    return specs


def plan_build_branchy(rng: random.Random) -> list[Spec]:
    # A planted-k star contracts to the same k-leaf star on every seed, so
    # its 2^k exact states are the same work each time; three of one k give
    # the class that sets most of a pass many samples.  Random costs on
    # stars and spiders are left out: about one in a thousand contracts to
    # a star of 18+ leaves and takes 10 s or more, which would set a run's
    # figures on its own.
    specs = [Spec("star", "planted-k", 44, rng.getrandbits(32), k=15) for _ in range(3)]
    specs += [Spec("spider", "planted-k", 40, rng.getrandbits(32), k=10) for _ in range(10)]
    specs += [Spec("random-tree", "random", rng.randint(16, 32), rng.getrandbits(32))
              for _ in range(40)]
    return specs


def plan_build_large(rng: random.Random) -> list[Spec]:
    # Two of the three ops per pass are planted-k n=20000, so the median op
    # is always one of them, whichever side of it the up-monotonic op lands.
    return [
        Spec("random-tree", "up-monotonic", 8000, rng.getrandbits(32)),
        Spec("random-tree", "planted-k", 20000, rng.getrandbits(32), k=3),
        Spec("random-tree", "planted-k", 20000, rng.getrandbits(32), k=3),
    ]


def _build(call, inst: TreeInstance, out: Outcome) -> None:
    started = perf_counter()
    tree, stats = call("approx.create_decision_tree", create_decision_tree, inst, limits=LIMITS)
    out.build_s = perf_counter() - started
    out.tree = tree
    out.depth_d = stats.depth_d
    out.levels = len(stats.records)
    out.max_aux_size = stats.max_aux_size


def op_stream_small(call, inp: Input, out: Outcome) -> None:
    _build(call, inp.inst, out)
    out.cost = call("core.evaluate_cost", evaluate_cost, inp.inst, out.tree)
    out.opt, out.witness = call(
        "exact.opt_exact", opt_exact, inp.inst, limits=LIMITS, _size=inp.inst.n
    )


def op_build(call, inp: Input, out: Outcome) -> None:
    _build(call, inp.inst, out)
    out.cost = call("core.evaluate_cost", evaluate_cost, inp.inst, out.tree)


def op_solve(call, inp: Input, out: Outcome) -> None:
    """What ``treesearch solve`` does: parse, build, price, serialize."""
    inst = call("serialize.parse_instance", parse_instance, inp.text)
    _build(call, inst, out)
    out.cost = call("core.evaluate_cost", evaluate_cost, inst, out.tree)
    out.strategy_text = call("serialize.serialize_decision_tree", serialize_decision_tree, out.tree)


@dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable[[random.Random], list[Spec]]
    op: Callable[..., None]  # (call, Input, Outcome): fills in the outcome
    pool: int  # passes in the input pool; no more than a run makes in its seconds

    def entry(self, seed: int, index: int) -> int:
        """The pool entry that pass ``index`` of a run with ``seed`` uses."""
        return (seed + index) % self.pool

    def specs(self, seed: int, index: int) -> list[Spec]:
        return self.plan(random.Random(f"{self.name}:{self.entry(seed, index)}"))

    def inputs(self, seed: int, index: int) -> tuple[list[Input], float]:
        """Generate and serialize one pass; also return the generation time."""
        gen_s = 0.0
        inputs = []
        for spec in self.specs(seed, index):
            started = perf_counter()
            inst = spec.generate()
            gen_s += perf_counter() - started
            inputs.append(Input(spec, inst, serialize_instance(inst)))
        return inputs, gen_s


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stream-small", plan_stream_small, op_stream_small, pool=6),
        Workload("build-path", plan_build_path, op_build, pool=6),
        Workload("build-branchy", plan_build_branchy, op_build, pool=5),
        Workload("build-large", plan_build_large, op_solve, pool=2),
    )
}


def run_op(workload: Workload, call, inp: Input) -> Outcome:
    """Run one op; a package error is recorded on the outcome, not raised."""
    out = Outcome()
    try:
        workload.op(call, inp, out)
    except TreeSearchError as exc:
        out.error = type(exc).__name__
    return out


def _path_cost(inst: TreeInstance, tree: DecisionTree) -> Fraction:
    """Worst root-to-leaf cost sum, computed without the package."""
    best = Fraction(0)
    stack = [(tree.root, Fraction(0))]
    while stack:
        v, acc = stack.pop()
        acc += inst.cost(v)
        best = max(best, acc)
        stack.extend((c, acc) for c in tree.children.get(v, ()))
    return best


def check(workload: Workload, inp: Input, out: Outcome) -> list[str]:
    """Problems with one op's outputs; an empty list means it is correct."""
    if out.error is not None:
        return []
    inst = inp.inst
    problems = []
    try:
        validate_decision_tree(inst, out.tree)
        cost = evaluate_cost(inst, out.tree)
    except TreeSearchError as exc:
        return [f"strategy rejected: {type(exc).__name__}: {exc}"]
    path_cost = _path_cost(inst, out.tree)
    if not out.cost == cost == path_cost:
        problems.append(f"cost mismatch: op {out.cost}, evaluate_cost {cost}, path sum {path_cost}")
    if out.opt is not None:
        try:
            witness_cost = evaluate_cost(inst, out.witness)
        except TreeSearchError as exc:
            return problems + [f"oracle witness rejected: {type(exc).__name__}: {exc}"]
        if witness_cost != out.opt:
            problems.append(f"oracle witness costs {witness_cost}, oracle said {out.opt}")
        if not out.opt <= cost <= (4 * out.depth_d + 2) * out.opt:
            problems.append(f"cost {cost} outside [OPT, (4d+2)OPT], OPT {out.opt}, d {out.depth_d}")
    if out.strategy_text is not None and parse_decision_tree(out.strategy_text) != out.tree:
        problems.append("serialized strategy does not parse back to the strategy")
    if workload.op is op_solve and parse_instance(inp.text) != inst:
        problems.append("serialized instance does not parse back to the instance")
    return [f"{inp.spec}: {p}" for p in problems]


def strategy_text(out: Outcome) -> str:
    if out.error is not None:
        return f"failed:{out.error}"
    return out.strategy_text or serialize_decision_tree(out.tree)
