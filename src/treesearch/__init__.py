"""Search strategies for trees with non-uniform query costs.

Locating a hidden target vertex by querying vertices, where each query
reports either "found" or the component of the tree minus the queried
vertex that holds the target.  The package provides the exact optimum for
small instances, ranking-based strategies that are optimal under uniform
costs, a modularity analysis of the cost function, a level-recursion
construction with a provable quality bound, and a benchmark harness.
"""

from .approx import (
    ApproxStats,
    AuxiliaryTree,
    LevelRecord,
    SeparatorSets,
    attach_subtree,
    auxiliary_tree,
    cost_levels,
    create_decision_tree,
    separator_sets,
)
from .bench import BenchConfig, BenchReport, BenchRow, report_to_csv, report_to_json, run_bench
from .core import (
    DecisionTree,
    QuerySequence,
    TreeInstance,
    evaluate_cost,
    query_sequence,
    split_components,
    tree_instance,
    validate_decision_tree,
    validate_instance,
)
from .exact import SolveLimits, opt_exact
from .generators import COST_MODELS, SHAPES, generate_instance
from .modularity import heavy_modules, is_up_monotonic, k_up_modularity
from .ranking import Ranking, is_valid_ranking, ranking_based_dt, vertex_ranking
from .serialize import (
    export_dot,
    load_instance,
    parse_decision_tree,
    parse_instance,
    serialize_decision_tree,
    serialize_instance,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "ApproxStats",
    "AuxiliaryTree",
    "BenchConfig",
    "BenchReport",
    "BenchRow",
    "COST_MODELS",
    "DecisionTree",
    "LevelRecord",
    "QuerySequence",
    "Ranking",
    "SHAPES",
    "SeparatorSets",
    "SolveLimits",
    "TreeInstance",
    "attach_subtree",
    "auxiliary_tree",
    "cost_levels",
    "create_decision_tree",
    "errors",
    "evaluate_cost",
    "export_dot",
    "generate_instance",
    "heavy_modules",
    "is_up_monotonic",
    "is_valid_ranking",
    "k_up_modularity",
    "load_instance",
    "opt_exact",
    "parse_decision_tree",
    "parse_instance",
    "query_sequence",
    "ranking_based_dt",
    "report_to_csv",
    "report_to_json",
    "run_bench",
    "separator_sets",
    "serialize_decision_tree",
    "serialize_instance",
    "split_components",
    "tree_instance",
    "validate_decision_tree",
    "validate_instance",
    "vertex_ranking",
]
