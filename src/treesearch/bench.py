"""Benchmark harness: empirical quality of the level-recursion strategy.

Each row runs the full construction on one generated instance, which
checks and prices the result, and (for instances small enough to solve
exactly) records the exact optimum and the resulting approximation
ratio.  The build is timed apart from the exact oracle.  All cost
figures stay exact rationals; a row violates the quality bound when its
ratio exceeds ``4 * depth_d + 2``, and the aggregate counter of such rows
must be zero.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import dataclass, fields
from fractions import Fraction

from .approx import create_decision_tree
from .errors import InvalidParameters, StateLimitExceeded
from .exact import SolveLimits, opt_exact
from .generators import COST_MODELS, SHAPES, generate_instance
from .modularity import k_up_modularity


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class BenchConfig:
    count: int
    n_range: tuple[int, int] = (2, 14)
    shapes: tuple[str, ...] = SHAPES
    cost_models: tuple[str, ...] = COST_MODELS
    seed: int = 0
    exact_cap: int = 14
    state_limit: int = SolveLimits.max_states

    def __post_init__(self):
        pair = self.n_range
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(map(_is_int, pair))
                and 1 <= pair[0] <= pair[1]):
            raise InvalidParameters(
                f"n_range must be two integers with 1 <= n_min <= n_max, got {pair!r:.80}")
        if not _is_int(self.count):
            raise InvalidParameters(f"count must be an integer, got {self.count!r:.80}")
        if self.count < 0:
            raise InvalidParameters(f"count must be non-negative, got {self.count}")
        if not _is_int(self.exact_cap) or self.exact_cap < 0:
            raise InvalidParameters(
                f"exact_cap must be a non-negative integer, got {self.exact_cap!r:.80}")
        if not _is_int(self.seed):  # None would seed from the clock, unreproducibly
            raise InvalidParameters(f"seed must be an integer, got {self.seed!r:.80}")
        for name in ("shapes", "cost_models"):
            names = getattr(self, name)
            if not isinstance(names, (tuple, list)) or not names:
                raise InvalidParameters(
                    f"{name} must be a non-empty tuple of names, got {names!r:.80}")
        SolveLimits(self.state_limit)  # rejects a state budget that is not an int of at least 1


@dataclass(frozen=True)
class BenchRow:
    seed: int
    n: int
    shape: str
    cost_model: str
    k: int
    opt: Fraction | None
    approx_cost: Fraction | None
    ratio: Fraction | None
    depth_d: int
    max_aux_size: int
    approx_ms: float  # the build, which checks and prices the strategy
    oracle_ms: float  # the exact oracle; 0 when it did not run
    status: str  # "ok", "no-oracle", or "state-limit"
    stop_message: str = ""  # why the build or oracle ran out of states; "" if neither did

    @property
    def violates_bound(self) -> bool:
        if self.ratio is None:
            return False
        return self.ratio > 4 * self.depth_d + 2


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]

    @property
    def max_ratio(self) -> Fraction:
        ratios = [r.ratio for r in self.rows if r.ratio is not None]
        return max(ratios, default=Fraction(0))

    @property
    def mean_ratio(self) -> Fraction:
        ratios = [r.ratio for r in self.rows if r.ratio is not None]
        if not ratios:
            return Fraction(0)
        return sum(ratios, Fraction(0)) / len(ratios)

    @property
    def bound_violations(self) -> int:
        return sum(1 for r in self.rows if r.violates_bound)


def _pick_params(rng: random.Random, cost_model: str, n: int):
    if cost_model == "planted-k":
        return rng.randint(1, max(1, min(4, n // 2))), None
    if cost_model == "alternating":
        return None, Fraction(1, 2 ** rng.randint(1, 4))
    return None, None


def plan_instances(config: BenchConfig):
    """Deterministic instance stream for a config: (seed, shape, model, n, k, eps)."""
    rng = random.Random(config.seed)
    lo, hi = config.n_range
    plans = []
    for _ in range(config.count):
        shape = rng.choice(list(config.shapes))
        cost_model = rng.choice(list(config.cost_models))
        if cost_model == "alternating" and shape != "path":
            shape = "path"  # alternating costs are a path family
        n = rng.randint(lo, hi)
        inst_seed = rng.getrandbits(32)
        k, eps = _pick_params(rng, cost_model, n)
        plans.append((inst_seed, shape, cost_model, n, k, eps))
    return plans


def run_bench(config: BenchConfig) -> BenchReport:
    """Run the harness; per-row solver budget overruns are recorded, not fatal."""
    limits = SolveLimits(config.state_limit)
    rows = []
    for inst_seed, shape, cost_model, n, k, eps in plan_instances(config):
        inst = generate_instance(shape, cost_model, n, inst_seed, k=k, eps=eps)
        k_value, _ = k_up_modularity(inst)
        started = time.perf_counter()
        try:
            _dtree, stats = create_decision_tree(inst, limits=limits)
        except StateLimitExceeded as exc:
            rows.append(
                BenchRow(inst_seed, n, shape, cost_model, k_value, None, None, None,
                         0, 0, (time.perf_counter() - started) * 1000.0, 0.0, "state-limit",
                         str(exc))
            )
            continue
        approx_ms = (time.perf_counter() - started) * 1000.0
        opt = ratio = None
        oracle_ms = 0.0
        status = "no-oracle"
        stop_message = ""
        if n <= config.exact_cap:
            started = time.perf_counter()
            try:
                opt, _witness = opt_exact(inst, limits=limits)
                ratio = stats.cost / opt
                status = "ok"
            except StateLimitExceeded as exc:
                status, stop_message = "state-limit", f"oracle: {exc}"
            oracle_ms = (time.perf_counter() - started) * 1000.0
        rows.append(
            BenchRow(inst_seed, n, shape, cost_model, k_value, opt, stats.cost, ratio,
                     stats.depth_d, stats.max_aux_size, approx_ms, oracle_ms, status,
                     stop_message)
        )
    return BenchReport(tuple(rows))


def _fmt(value) -> str:
    return "" if value is None else str(value)


_ROW_FIELDS = tuple(f.name for f in fields(BenchRow))


def _report_row(r: BenchRow) -> dict:
    """The report columns of ``r``: missing figures empty, times to the microsecond."""
    row = {name: getattr(r, name) for name in _ROW_FIELDS}
    row.update(opt=_fmt(r.opt), approx_cost=_fmt(r.approx_cost), ratio=_fmt(r.ratio),
               approx_ms=round(r.approx_ms, 3), oracle_ms=round(r.oracle_ms, 3))
    return row


def report_to_json(report: BenchReport) -> str:
    doc = {
        "rows": [_report_row(r) for r in report.rows],
        "aggregates": {
            "count": len(report.rows),
            "max_ratio": str(report.max_ratio),
            "mean_ratio": str(report.mean_ratio),
            "bound_violations": report.bound_violations,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def report_to_csv(report: BenchReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_ROW_FIELDS)
    for r in report.rows:
        writer.writerow(_report_row(r).values())
    writer.writerow([])
    writer.writerow(["max_ratio", str(report.max_ratio)])
    writer.writerow(["mean_ratio", str(report.mean_ratio)])
    writer.writerow(["bound_violations", report.bound_violations])
    return buffer.getvalue()
