"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build-path --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each invocation is one fresh, single-threaded process running one
workload (``all`` runs every workload untraced and then traced, each in a
process of its own).  It imports ``treesearch`` from ``src/`` of the
checkout it sits in, generates its inputs from ``--seed``, and runs whole
passes of ops until about ``--seconds`` have been spent inside ops, and
at least the workload's pool of passes, re-checking every op's output
outside that time.  Its times are scaled to a reference speed of the
host, measured by ``perfbench/calibrate.py`` between ops.  It prints
every metric by name with its unit and direction, and as its last line
one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.

The traced run first runs untraced for half the time, then swaps the
layer boundaries for span-recording wrappers and replays the same passes;
the ratio of the two is ``trace.overhead_frac``.  Its spans are written to
``perfbench/out/<workload>.trace.json``.  The exit code is 1 when an output
is wrong, and 2 when the package cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import calibrate, quantiles  # noqa: E402
from perfbench.spans import Tracer, installed  # noqa: E402

SETUP_REPEATS = 9
SETUP_BUDGET_S = 2.0  # input generation stops repeating past this, after three repeats
CALIBRATE_EVERY_S = 0.1  # of time inside ops
TRACE_DIR = ROOT / "perfbench" / "out"

# The layer time metrics: self time of the spans of one boundary.
LAYER_TIMES = {
    "approx.self_s": "approx.create_decision_tree",
    "approx.separator_s": "approx.separator_sets",
    "approx.aux_tree_s": "approx.auxiliary_tree",
    "approx.graft_s": "approx.attach_subtree",
    "exact.solve_s": "exact.opt_exact",
    "modularity.heavy_s": "modularity.heavy_modules",
    "modularity.kmod_s": "modularity.k_up_modularity",
    "ranking.rank_s": "ranking.ranking_based_dt",
    "core.validate_s": "core.validate_decision_tree",
    "core.evaluate_s": "core.evaluate_cost",
    "core.split_s": "core.split_components",
    "serialize.parse_s": "serialize.parse_instance",
    "serialize.dump_s": "serialize.serialize_decision_tree",
}


@dataclass
class Record:
    entry: int  # the pool entry of the op's pass
    latency_s: float
    build_s: float
    n: int
    error: str | None
    norm_cost: Fraction | None
    ratio: Fraction | None
    levels: int
    max_aux_size: int


@dataclass
class Phase:
    passes: int = 0
    entries: list[int] = field(default_factory=list)  # pool entries, one per pass
    records: list[Record] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)  # strategies, one per pass
    calibration_s: list[float] = field(default_factory=list)  # kernel times, between ops
    problems: list[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(r.latency_s for r in self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.error is not None)


def import_package() -> list[float]:
    """Import ``treesearch`` from this checkout's ``src/`` afresh, several times.

    Returns the time of each import; the last one stays loaded.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "treesearch" or m.startswith("treesearch.")]:
            del sys.modules[name]
        started = perf_counter()
        try:
            package = importlib.import_module("treesearch")
        except ImportError as exc:
            print(f"perfbench: cannot import treesearch from {src}: {exc}", file=sys.stderr)
            raise SystemExit(2)
        times.append(perf_counter() - started)
        if Path(package.__file__).resolve().parent != (src / "treesearch").resolve():
            print(f"perfbench: treesearch was imported from {package.__file__}, not {src}",
                  file=sys.stderr)
            raise SystemExit(2)
    return times


def run_phase(workload, seed, tracer, *, budget_s=None, passes=None) -> Phase:
    """Run exactly ``passes`` whole passes, or as many as fit ``budget_s``.

    The budget counts time spent inside ops.  Another pass starts only
    while the budget left exceeds half the last pass, so on average a run
    overshoots by less than half a pass; but a timed run makes at least
    the workload's ``pool`` passes, so that it times every pool entry.
    """
    from perfbench.workloads import check, run_op, strategy_text

    phase = Phase()
    calibrated_at = 0.0
    while True:
        busy_before = phase.busy_s
        inputs = workload.inputs(seed, phase.passes)[0]
        texts = []
        for inp in inputs:
            tracer.current_op = len(phase.records)
            op_started = perf_counter()
            out = tracer.call("op", run_op, workload, tracer.call, inp)
            latency = perf_counter() - op_started
            tracer.current_op = -1
            # One kernel sample per CALIBRATE_EVERY_S inside ops, so the
            # kernel sees as much of a run made of long ops as of short ones.
            due = int((phase.busy_s + latency - calibrated_at) / CALIBRATE_EVERY_S)
            calibrated_at += due * CALIBRATE_EVERY_S
            phase.calibration_s += [calibrate.sample() for _ in range(due)]
            phase.problems += check(workload, inp, out)
            texts.append(strategy_text(out))
            ok = out.error is None
            phase.records.append(
                Record(
                    entry=workload.entry(seed, phase.passes),
                    latency_s=latency,
                    build_s=out.build_s,
                    n=inp.inst.n,
                    error=out.error,
                    norm_cost=out.cost / inp.inst.max_cost if ok else None,
                    ratio=out.cost / out.opt if ok and out.opt is not None else None,
                    levels=out.levels,
                    max_aux_size=out.max_aux_size,
                )
            )
        del inputs, inp, out  # keep one pass's instances alive at a time
        phase.digests.append(quantiles.digest(texts))
        phase.entries.append(workload.entry(seed, phase.passes))
        phase.passes += 1
        busy = phase.busy_s
        if passes is not None:
            if phase.passes >= passes:
                return phase
        elif busy + (busy - busy_before) / 2 >= budget_s and phase.passes >= workload.pool:
            return phase


def end_to_end(phase: Phase, setup_s: float, setup_calibration_s: list[float]
               ) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and report lines for those not in the JSON.

    ``setup_calibration_s`` are the kernel times taken during set-up, which
    scale ``setup_s``; the kernel times taken between ops scale the rest.
    """
    done = [r for r in phase.records if r.error is None]
    latencies_ms = [r.latency_s * 1000.0 for r in done]
    # Each pool entry weighs the same however many passes it got, so the
    # totals, the mean and the median are those of the pool, whichever
    # entry a run started at.
    visits = Counter(phase.entries)

    def total(value, start=0.0):
        return sum((value(r) / visits[r.entry] for r in done), start)

    norm = total(lambda r: r.norm_cost, Fraction(0)) / total(lambda r: Fraction(1), Fraction(0))
    unscaled = {
        "ops_per_s": total(lambda r: 1) / total(lambda r: r.latency_s),
        "vertices_per_s": total(lambda r: r.n) / total(lambda r: r.build_s),
        "latency_p50_ms": quantiles.weighted_median(
            (r.latency_s * 1000.0, Fraction(1, visits[r.entry])) for r in done
        ),
        "setup_s": setup_s,
    }
    # Times are scaled to the reference speed of the host: a run in a slow
    # minute reads as if the host had run the kernel in REFERENCE_S then.
    # The kernel's mean between ops takes in every slow moment, as the op
    # times do; set-up is timed by medians, and so is its kernel.
    calibration_s = phase.calibration_s or [calibrate.sample()]  # a run shorter than one period
    speed = calibrate.REFERENCE_S / fmean(calibration_s)
    setup_speed = calibrate.REFERENCE_S / median(setup_calibration_s)
    metrics = {
        "ops_per_s": unscaled["ops_per_s"] / speed,
        "vertices_per_s": unscaled["vertices_per_s"] / speed,
        "latency_p50_ms": unscaled["latency_p50_ms"] * speed,
        "setup_s": setup_s * setup_speed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "norm_cost_mean": float(norm),
    }
    extra = [f"host_speed {speed:.6g} ({len(calibration_s)} kernel samples), "
             f"{setup_speed:.6g} in set-up; reference {calibrate.REFERENCE_S * 1000:g} ms"]
    extra += [f"unscaled {name} {value:.6g}" for name, value in unscaled.items()]
    tail = quantiles.tail(latencies_ms)
    if tail is None:
        extra.append(f"latency_tail_ms omitted: {len(latencies_ms)} ops, a tail needs at least 20")
    else:
        p, value, count = tail
        extra.append(f"latency_tail_ms {value:.4f} ms (lower is better) p{p:g} of {count} ops")
    extra.append(f"failed_frac {phase.failed / len(phase.records):.6f} (lower is better)")
    ratios = [r.ratio for r in done if r.ratio is not None]
    if ratios:
        mean = sum(ratios, Fraction(0)) / len(ratios)
        extra.append(f"ratio_max {float(max(ratios)):.6f} (lower is better) approx_cost/OPT")
        extra.append(f"ratio_mean {float(mean):.6f} (lower is better) over {len(ratios)} ops")
    return metrics, extra


def per_layer(tracer, traced: Phase, untraced_busy_s: float, gen_s: float
              ) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes, per pass."""
    totals = tracer.totals()
    empty = {"calls": 0, "self_s": 0.0, "vertices": 0, "errors": 0}

    def row(name):
        return totals.get(name, empty)

    per_pass = 1.0 / traced.passes
    metrics = {name: row(span)["self_s"] * per_pass for name, span in LAYER_TIMES.items()}
    exact = row("exact.opt_exact")
    solve_ms = [d * 1000.0 for d in tracer.durations("exact.opt_exact")]
    tail = quantiles.tail(solve_ms)
    if tail is None:
        p, value, count = 100, max(solve_ms, default=0.0), len(solve_ms)
    else:
        p, value, count = tail
    done = [r for r in traced.records if r.error is None]
    metrics.update(
        {
            "exact.calls": exact["calls"] * per_pass,
            "exact.vertices": exact["vertices"] * per_pass,
            "exact.solve_tail_ms": value,
            "exact.limit_hits": exact["errors"] * per_pass,
            "approx.levels": sum(r.levels for r in done) * per_pass,
            "approx.max_aux_size": max((r.max_aux_size for r in done), default=0),
            "modularity.calls": (
                row("modularity.heavy_modules")["calls"]
                + row("modularity.k_up_modularity")["calls"]
            ) * per_pass,
            "ranking.calls": row("ranking.ranking_based_dt")["calls"] * per_pass,
            "ranking.vertices": row("ranking.ranking_based_dt")["vertices"] * per_pass,
            "core.split_calls": row("core.split_components")["calls"] * per_pass,
            "generators.gen_s": gen_s,
            "trace.overhead_frac": traced.busy_s / untraced_busy_s - 1.0,
        }
    )
    extra = [
        f"exact.solve_tail_ms is p{p:g} of {count} solves",
        f"traced passes {traced.passes}, spans {len(tracer)}",
    ]
    return metrics, extra


def print_metrics(metrics: dict, declared: list[dict]) -> dict:
    result = {}
    for m in declared:
        value = metrics[m["name"]]
        print(f"{m['name']} {value:.6g} {m['unit']} ({m['better']} is better)")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    return result


def run_all(bench: dict, args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {w['name']} trace={trace}: {w['why']}", flush=True)
            code = subprocess.run(cmd, check=False).returncode
            if code != 0:
                print(f"== {w['name']} trace={trace} exited with {code}", flush=True)
                status = 1
    return status


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(bench, args)

    import_times = import_package()
    from perfbench.workloads import WORKLOADS  # imports the package loaded last

    workload = WORKLOADS[args.workload]
    setups, setup_calibration = [], []
    while len(setups) < SETUP_REPEATS and (
        len(setups) < 3 or sum(s for s, _ in setups) < SETUP_BUDGET_S
    ):
        started = perf_counter()
        inputs, gen_s = workload.inputs(args.seed, 0)
        setups.append((perf_counter() - started, gen_s))
        setup_calibration.append(calibrate.sample())
    setup_s = median(import_times) + median([s for s, _ in setups])
    gen_s = median([g for _, g in setups])
    input_digest = quantiles.digest(i.text for i in inputs)
    del inputs

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_phase(workload, args.seed, Tracer(), budget_s=budget)
    phases = [untraced]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"passes={untraced.passes} ops={len(untraced.records)} failed={untraced.failed}")
    print(f"# digest of pass 0: inputs {input_digest} strategies {untraced.digests[0]}")
    if untraced.failed == len(untraced.records):
        print("perfbench: no op completed, so there is nothing to measure", file=sys.stderr)
        return 1

    if args.trace:
        tracer = Tracer()
        with installed(tracer):
            traced = run_phase(workload, args.seed, tracer, passes=untraced.passes)
        phases.append(traced)
        if traced.digests != untraced.digests:
            traced.problems.append("traced strategies differ from untraced ones on the same inputs")
        metrics, extra = per_layer(tracer, traced, untraced.busy_s, gen_s)
        declared = bench["per_layer"]
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        tracer.dump(TRACE_DIR / f"{args.workload}.trace.json")
    else:
        metrics, extra = end_to_end(untraced, setup_s, setup_calibration)
        declared = bench["end_to_end"]

    values = print_metrics(metrics, declared)
    for line in extra:
        print(line)
    problems = [p for phase in phases for p in phase.problems]
    for p in problems[:20]:
        print(f"perfbench: wrong output: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(len(p.records) for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": values,
    }
    print(json.dumps(result), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
