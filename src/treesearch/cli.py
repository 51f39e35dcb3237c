"""Command-line interface.

Subcommands: validate, solve, exact, eval, rank, kmod, gen, bench,
export-dot, trace.  Exit codes: 0 on success, 1 on invalid input, 2 when
a solver resource limit is hit.
"""

from __future__ import annotations

import argparse
import json
import sys

from .approx import create_decision_tree
from .bench import BenchConfig, report_to_csv, report_to_json, run_bench
from .core import evaluate_cost, query_sequence, validate_decision_tree
from .errors import InvalidCost, StateLimitExceeded, TreeSearchError
from .exact import SolveLimits, opt_exact
from .generators import COST_MODELS, SHAPES, generate_instance
from .modularity import is_up_monotonic, k_up_modularity
from .ranking import ranking_based_dt, vertex_ranking
from .serialize import (
    export_dot,
    load_decision_tree,
    load_instance,
    serialize_decision_tree,
    serialize_instance,
)


def _write(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, doc, tree=None) -> None:
    """Write ``doc`` as ``json.dumps(indent=2)``, with ``tree`` as a last ``"tree"`` key.

    The strategy's own canonical text is indented into place rather than
    decoded and encoded again.
    """
    text = json.dumps(doc, indent=2)
    if tree is not None:
        nested = serialize_decision_tree(tree).rstrip("\n").replace("\n", "\n  ")
        text = f'{text[:-2]},\n  "tree": {nested}\n}}'
    _write(args, text + "\n")


def _cost_text(cost) -> str:
    """``str(cost)``; :class:`InvalidCost` if it has too many digits to print."""
    try:
        return str(cost)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise InvalidCost(f"cost has more than {limit} digits, too many to print") from exc


def _cmd_validate(args) -> int:
    inst = load_instance(args.input)
    _emit_json(args, {"ok": True, "n": inst.n, "max_cost": _cost_text(inst.max_cost)})
    return 0


def _cmd_solve(args) -> int:
    inst = load_instance(args.input)
    dtree, stats = create_decision_tree(inst, limits=SolveLimits(args.state_limit))
    if args.format == "dot":
        _write(args, export_dot(inst=inst, strategy=dtree))
    else:
        _emit_json(
            args,
            {
                "cost": _cost_text(stats.cost),
                "depth_d": stats.depth_d,
                "max_aux_size": stats.max_aux_size,
            },
            dtree,
        )
    return 0


def _cmd_exact(args) -> int:
    inst = load_instance(args.input)
    opt, witness = opt_exact(inst, limits=SolveLimits(args.state_limit))
    if args.format == "dot":
        _write(args, export_dot(inst=inst, strategy=witness))
    else:
        _emit_json(args, {"opt": _cost_text(opt)}, witness)
    return 0


def _cmd_eval(args) -> int:
    inst = load_instance(args.input)
    dtree = load_decision_tree(args.tree)
    cost = evaluate_cost(inst, dtree)
    _emit_json(args, {"cost": _cost_text(cost)})
    return 0


def _cmd_rank(args) -> int:
    inst = load_instance(args.input)
    ranking = vertex_ranking(inst)
    dtree = ranking_based_dt(inst)
    cost = evaluate_cost(inst, dtree)
    _emit_json(
        args,
        {
            "labels": {str(v): ranking.labels[v] for v in sorted(ranking.labels)},
            "max_label": ranking.max_label,
            "cost": _cost_text(cost),
        },
        dtree,
    )
    return 0


def _cmd_kmod(args) -> int:
    inst = load_instance(args.input)
    k, witness = k_up_modularity(inst)
    _emit_json(
        args,
        {"k": k, "witness_threshold": _cost_text(witness), "up_monotonic": is_up_monotonic(inst)},
    )
    return 0


def _cmd_gen(args) -> int:
    inst = generate_instance(args.shape, args.cost_model, args.n, args.seed, k=args.k, eps=args.eps)
    _write(args, serialize_instance(inst))
    return 0


def _cmd_bench(args) -> int:
    config = BenchConfig(
        count=args.count,
        n_range=(args.n_min, args.n_max),
        shapes=tuple(args.shapes.split(",")) if args.shapes else SHAPES,
        cost_models=tuple(args.cost_models.split(",")) if args.cost_models else COST_MODELS,
        seed=args.seed,
        exact_cap=args.exact_cap,
        state_limit=args.state_limit,
    )
    report = run_bench(config)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(report_to_csv(report))
    _write(args, report_to_json(report))
    return 0


def _cmd_export_dot(args) -> int:
    inst = load_instance(args.input)
    strategy = load_decision_tree(args.tree) if args.tree else None
    if strategy is not None:
        validate_decision_tree(inst, strategy)
    _write(args, export_dot(inst=inst, strategy=strategy))
    return 0


def _cmd_trace(args) -> int:
    inst = load_instance(args.input)
    dtree = load_decision_tree(args.tree)
    validate_decision_tree(inst, dtree)
    seq = query_sequence(inst, dtree, args.target)
    _emit_json(args, {"queries": list(seq.vertices), "cost": _cost_text(seq.total_cost)})
    return 0


def _add_io(sub):
    sub.add_argument("--input", required=True, help="instance JSON file")
    sub.add_argument("--output", help="write result here instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Usage errors are invalid input, so they exit 1 rather than argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treesearch",
        description="Search strategies for trees with non-uniform query costs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check an instance file")
    _add_io(p)
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("solve", help="build the level-recursion strategy")
    _add_io(p)
    p.add_argument("--state-limit", type=int, default=SolveLimits.max_states)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("exact", help="solve a small instance exactly")
    _add_io(p)
    p.add_argument("--state-limit", type=int, default=SolveLimits.max_states)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_exact)

    p = subs.add_parser("eval", help="worst-case cost of a strategy file")
    _add_io(p)
    p.add_argument("--tree", required=True, help="strategy JSON file")
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("rank", help="vertex ranking and its strategy")
    _add_io(p)
    p.set_defaults(func=_cmd_rank)

    p = subs.add_parser("kmod", help="modularity parameter of the cost function")
    _add_io(p)
    p.set_defaults(func=_cmd_kmod)

    p = subs.add_parser("gen", help="generate a random instance")
    p.add_argument("--shape", choices=SHAPES, required=True)
    p.add_argument("--cost-model", choices=COST_MODELS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, help="number of planted expensive groups")
    p.add_argument("--eps", help="gap for the alternating model, e.g. 1/8")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_gen)

    p = subs.add_parser("bench", help="run the benchmark harness")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--n-min", type=int, default=BenchConfig.n_range[0])
    p.add_argument("--n-max", type=int, default=BenchConfig.n_range[1])
    p.add_argument("--shapes", help="comma-separated subset of shapes")
    p.add_argument("--cost-models", help="comma-separated subset of cost models")
    p.add_argument("--seed", type=int, default=BenchConfig.seed)
    p.add_argument("--exact-cap", type=int, default=BenchConfig.exact_cap)
    p.add_argument("--state-limit", type=int, default=SolveLimits.max_states)
    p.add_argument("--output")
    p.add_argument("--csv", help="also write a CSV report here")
    p.set_defaults(func=_cmd_bench)

    p = subs.add_parser("export-dot", help="Graphviz text for instance or strategy")
    _add_io(p)
    p.add_argument("--tree", help="strategy JSON file (emit the strategy instead)")
    p.set_defaults(func=_cmd_export_dot)

    p = subs.add_parser("trace", help="query sequence for one target")
    _add_io(p)
    p.add_argument("--tree", required=True, help="strategy JSON file")
    p.add_argument("--target", type=int, required=True)
    p.set_defaults(func=_cmd_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StateLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TreeSearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
