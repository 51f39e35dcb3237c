"""Acceptance suite: one test per acceptance criterion, at full scale.

Every criterion prints a PASS line with its measured figures when it
succeeds; failures surface as ordinary assertion errors.  All cost
comparisons are exact rational comparisons, never float tolerances.
"""

import math
import random
import time
from fractions import Fraction

from treesearch import (
    BenchConfig,
    COST_MODELS,
    SHAPES,
    auxiliary_tree,
    cost_levels,
    create_decision_tree,
    evaluate_cost,
    generate_instance,
    is_up_monotonic,
    k_up_modularity,
    opt_exact,
    parse_decision_tree,
    parse_instance,
    ranking_based_dt,
    run_bench,
    separator_sets,
    serialize_decision_tree,
    serialize_instance,
    validate_decision_tree,
)

import oracles


def mixed_instance(rng, n_lo, n_hi, models=COST_MODELS):
    shape = rng.choice(list(SHAPES))
    model = rng.choice(list(models))
    if model == "alternating":
        shape = "path"
    n = rng.randint(n_lo, n_hi)
    k = rng.randint(1, max(1, min(4, n // 2))) if model == "planted-k" else None
    eps = Fraction(1, 2 ** rng.randint(1, 4)) if model == "alternating" else None
    return generate_instance(shape, model, n, seed=rng.getrandbits(32), k=k, eps=eps)


def test_criterion_01_figure_fixture(fix1, dfix2):
    """The worked example costs exactly 11/5 and validates, in under 1 ms."""
    validate_decision_tree(fix1, dfix2)
    assert evaluate_cost(fix1, dfix2) == Fraction(11, 5)
    best = min(
        _timed(lambda: (validate_decision_tree(fix1, dfix2), evaluate_cost(fix1, dfix2)))
        for _ in range(7)
    )
    assert best < 0.001, f"fixture evaluation took {best * 1000:.3f} ms"
    print(f"PASS criterion 1: fixture cost 11/5 validated in {best * 1000:.3f} ms")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_ranking_optimal_uniform():
    """500 uniform-cost random trees (n <= 14): ranking strategy is optimal."""
    rng = random.Random(20_002)
    start = time.perf_counter()
    for _ in range(500):
        n = rng.randint(1, 14)
        inst = generate_instance("random-tree", "uniform", n, seed=rng.getrandbits(32))
        d = ranking_based_dt(inst)
        opt, _ = opt_exact(inst)
        assert evaluate_cost(inst, d) == opt
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"PASS criterion 2: 500/500 uniform instances optimal in {elapsed:.1f} s")


def test_criterion_03_ranking_depth_bound():
    """1000 random connected subtrees (hosts up to n = 200): depth bound holds."""
    rng = random.Random(30_003)
    violations = 0
    for _ in range(1000):
        host_n = rng.randint(2, 200)
        host = oracles.random_attachment_tree(host_n, rng)
        size = rng.randint(1, host_n)
        sub = oracles.random_connected_subset(host, size, rng)
        d = ranking_based_dt(host, within=sub)
        if d.depth > math.floor(math.log2(len(sub))) + 1:
            violations += 1
    assert violations == 0
    print("PASS criterion 3: 1000/1000 subtree strategies within the depth bound")


def test_criterion_04_opt_bounds_normalized():
    """500 normalized random instances (n <= 14): 1 <= OPT <= floor(log2 n) + 1."""
    rng = random.Random(40_004)
    for _ in range(500):
        inst = mixed_instance(rng, 1, 14)
        norm, _ = oracles.normalize(inst)
        opt, _w = opt_exact(norm)
        assert 1 <= opt <= math.floor(math.log2(norm.n)) + 1
    print("PASS criterion 4: 500/500 normalized optima inside [1, floor(log n)+1]")


def test_criterion_05_modularity_equivalence(fix1):
    """500 mixed instances: modularity 1 iff monotone; fixture value is 4."""
    assert k_up_modularity(fix1)[0] == 4
    rng = random.Random(50_005)
    disagreements = 0
    ones = 0
    for _ in range(500):
        inst = mixed_instance(rng, 1, 24)
        k, _witness = k_up_modularity(inst)
        mono = is_up_monotonic(inst)
        if (k == 1) != mono:
            disagreements += 1
        if k == 1:
            ones += 1
    assert disagreements == 0
    assert 0 < ones < 500  # both sides of the equivalence were exercised
    print(f"PASS criterion 5: 0 disagreements over 500 instances ({ones} monotone)")


def test_criterion_06_separator_invariants():
    """1000 runs (n <= 50, all generators): separator size and isolation hold."""
    rng = random.Random(60_006)
    levels_checked = 0
    for _ in range(1000):
        inst = mixed_instance(rng, 1, 50)
        _d, stats = create_decision_tree(inst)
        for rec in stats.records:
            assert rec.aux_size <= 4 * rec.k_region - 3
            assert rec.max_modules_per_component <= 1
            levels_checked += 1
    print(f"PASS criterion 6: 0 violations across {levels_checked} separator levels")


def test_criterion_07_auxiliary_tree_cost():
    """300 contracted instances (n <= 14): OPT(contraction) <= OPT(instance)."""
    rng = random.Random(70_007)
    checked = 0
    while checked < 300:
        inst = mixed_instance(rng, 2, 14, models=("random", "planted-k", "alternating"))
        norm, _scale = oracles.normalize(inst)
        levels = cost_levels(norm.n)
        for level in range(len(levels) - 1, -1, -1):
            a, _b = levels[level]
            heavy = {v for v in norm.vertex_set if norm.cost(v) > a}
            if level == 0 or len(heavy) == len(norm.vertex_set):
                break  # base case: no separator on this instance
            if not heavy:
                continue
            seps = separator_sets(norm, norm.vertex_set, a)
            aux = auxiliary_tree(norm, seps)
            assert opt_exact(aux.instance)[0] <= opt_exact(norm)[0]
            checked += 1
            break
    print("PASS criterion 7: 300/300 contractions no harder than their instance")


def test_criterion_08_main_ratio_guarantee():
    """500 instances (n <= 14, all models): cost <= (4*depth+2)*OPT, depth small."""
    start = time.perf_counter()
    report = run_bench(BenchConfig(count=500, n_range=(2, 14), seed=80_008))
    elapsed = time.perf_counter() - start
    assert len(report.rows) == 500
    assert report.bound_violations == 0
    oracle_rows = [r for r in report.rows if r.ratio is not None]
    assert len(oracle_rows) == 500  # every row has its exact optimum
    for row in oracle_rows:
        assert row.ratio <= 4 * row.depth_d + 2
        bound = math.ceil(math.log2(math.log2(row.n))) + 1 if row.n > 2 else 1
        assert row.depth_d <= bound
    assert elapsed < 300
    print(
        f"PASS criterion 8: 500/500 rows within (4d+2)*OPT in {elapsed:.1f} s "
        f"(max ratio {report.max_ratio})"
    )


def test_criterion_09_universal_validity():
    """Every emitted strategy validates; grafting asserts the path property."""
    rng = random.Random(90_009)
    validated = 0
    for _ in range(100):
        inst = mixed_instance(rng, 1, 20)
        d_approx, _stats = create_decision_tree(inst)
        validate_decision_tree(inst, d_approx)
        d_rank = ranking_based_dt(inst)
        validate_decision_tree(inst, d_rank)
        validated += 2
        if inst.n <= 12:
            opt, witness = opt_exact(inst)
            validate_decision_tree(inst, witness)
            assert evaluate_cost(inst, witness) == opt
            validated += 1
    print(f"PASS criterion 9: {validated} emitted strategies all validate")


def test_criterion_10_subtree_monotonicity():
    """200 (instance, connected subset) pairs (n <= 12): OPT and k never grow."""
    rng = random.Random(100_010)
    for _ in range(200):
        inst = mixed_instance(rng, 2, 12)
        sub = oracles.random_connected_subset(inst, rng.randint(1, inst.n), rng)
        assert opt_exact(inst, within=sub)[0] <= opt_exact(inst)[0]
        assert k_up_modularity(inst, within=sub)[0] <= k_up_modularity(inst)[0]
    print("PASS criterion 10: 200/200 subsets keep OPT and modularity bounded")


def test_criterion_11_serialization_and_reproducibility():
    """Byte-stable round-trips; generators reproduce instances per seed."""
    rng = random.Random(110_011)
    for _ in range(60):
        inst = mixed_instance(rng, 1, 25)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text
        d, _ = create_decision_tree(inst)
        dtext = serialize_decision_tree(d)
        dagain = parse_decision_tree(dtext)
        assert dagain == d
        assert serialize_decision_tree(dagain) == dtext
    for seed in (0, 7, 123456789, 2**63 - 1):
        a = generate_instance("random-tree", "random", 31, seed=seed)
        b = generate_instance("random-tree", "random", 31, seed=seed)
        assert a == b
    print("PASS criterion 11: round-trips byte-stable, generators reproducible")
