"""The functions the traced benchmark run wraps still exist.

``perfbench/spans.py`` names each traced layer boundary by module and
function, and its ``installed`` looks each one up when a traced run
starts.  A rename or removal in the package would only show there, as a
crash of ``perfbench/run.py --trace 1``; this test shows it here instead.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BOUNDARIES


@pytest.mark.parametrize("name, boundary", sorted(_boundaries().items()))
def test_boundary_resolves_to_a_function(name, boundary):
    home, attr, counts_vertices, _inside = boundary
    fn = getattr(importlib.import_module(home), attr, None)
    assert callable(fn), f"{name}: {home}.{attr} is gone"
    if counts_vertices:  # the span sizes the call by its ``inst`` and ``within``
        assert {"inst", "within"} <= set(inspect.signature(fn).parameters), name
