"""Span recording, self-time arithmetic and the traced-run wrappers."""

import sys

import pytest

from perfbench.spans import BOUNDARIES, Tracer, installed, self_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds g [2, 3].
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_nested_calls_record_parents_ops_and_errors():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    def outer(x):
        return tracer.call("inner", inner, x) * 2

    tracer.current_op = 7
    assert tracer.call("outer", outer, 1) == 4
    with pytest.raises(ValueError):
        tracer.call("outer", outer, -1)
    assert list(tracer.parent) == [-1, 0, -1, 2]
    assert list(tracer.op) == [7, 7, 7, 7]
    assert tracer.errors == {2: "ValueError", 3: "ValueError"}
    totals = tracer.totals()
    assert totals["outer"]["calls"] == 2 and totals["inner"]["errors"] == 1
    outer_time = sum(tracer.durations("outer"))
    together = totals["outer"]["self_s"] + totals["inner"]["self_s"]
    assert together == pytest.approx(outer_time, rel=1e-9, abs=1e-12)


def _boundary_functions():
    return {
        name: getattr(sys.modules[home], attr) for name, (home, attr, _, _) in BOUNDARIES.items()
    }


def test_wrappers_go_into_importers_and_come_out_again():
    import treesearch
    from treesearch import approx, core, exact, modularity, ranking

    before = _boundary_functions()
    inst = treesearch.generate_instance("spider", "random", 30, 5)
    plain, _ = approx.create_decision_tree(inst)
    tracer = Tracer()
    with installed(tracer):
        assert approx.opt_exact is not exact.opt_exact
        assert approx.separator_sets is not before["approx.separator_sets"]
        assert ranking.split_components is not core.split_components
        # A module's calls to its own functions are not boundaries.
        assert modularity.heavy_modules is before["modularity.heavy_modules"]
        traced, _ = approx.create_decision_tree(inst)
    assert traced == plain
    assert _boundary_functions() == before
    assert approx.opt_exact is exact.opt_exact
    assert treesearch.split_components is core.split_components

    names = tracer.names
    seps = [i for i in range(len(tracer)) if names[tracer.name[i]] == "approx.separator_sets"]
    assert seps
    heavy_inside = [
        i for i in range(len(tracer))
        if names[tracer.name[i]] == "modularity.heavy_modules" and tracer.parent[i] in seps
    ]
    assert heavy_inside, "heavy_modules must nest inside separator_sets"
    solves = [i for i in range(len(tracer)) if names[tracer.name[i]] == "exact.opt_exact"]
    assert all(tracer.size[i] >= 1 for i in solves)
