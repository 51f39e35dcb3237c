"""In-memory span recording and the per-layer wrappers of the traced run.

A span is one call across a layer boundary: its name (``layer.function``),
start and end on ``time.perf_counter``, the span that was open when it
started, the op it belongs to, an optional vertex count, and the type of
the exception that ended it, if any.  Spans live in compact arrays so a
traced pass over large instances (hundreds of thousands of boundary
calls) stays small, and are written out as one JSON file at the end.

The traced run swaps every cross-module name listed in ``BOUNDARIES`` for a
recording wrapper in each ``treesearch`` module that imports it (plus the
approximation builder's own phase functions, which it calls through its
module globals).  Calls inside a module to its own functions are not
boundaries and stay unwrapped, so e.g. the component splits inside
``validate_decision_tree`` count towards validation, not towards
``core.split_components``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# span name -> (defining module, function, count vertices of the call,
#               also wrap inside the defining module)
BOUNDARIES = {
    "approx.separator_sets": ("treesearch.approx", "separator_sets", False, True),
    "approx.auxiliary_tree": ("treesearch.approx", "auxiliary_tree", False, True),
    "approx.attach_subtree": ("treesearch.approx", "attach_subtree", False, True),
    "exact.opt_exact": ("treesearch.exact", "opt_exact", True, False),
    "ranking.ranking_based_dt": ("treesearch.ranking", "ranking_based_dt", True, False),
    "modularity.heavy_modules": ("treesearch.modularity", "heavy_modules", False, False),
    "modularity.k_up_modularity": ("treesearch.modularity", "k_up_modularity", False, False),
    "core.split_components": ("treesearch.core", "split_components", False, False),
    "core.validate_decision_tree": ("treesearch.core", "validate_decision_tree", False, False),
}


def vertex_count(signature: inspect.Signature, args, kwargs) -> int:
    """Vertices a call works on: ``len(within)``, or the whole instance."""
    bound = signature.bind(*args, **kwargs).arguments
    within = bound.get("within")
    return len(within) if within is not None else bound["inst"].n


class Tracer:
    """Records spans of the calls made through :meth:`call` or a wrapper."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("i")
        self.errors: dict[int, str] = {}
        self.current_op = -1
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, _size: int = -1, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.current_op)
        self.size.append(_size)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self.errors[idx] = type(exc).__name__
            raise
        finally:
            self.end[idx] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, sized: bool):
        if sized:
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                size = vertex_count(signature, args, kwargs)
                return self.call(name, fn, *args, _size=size, **kwargs)
        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        return [self.end[i] - self.start[i] for i in range(len(self)) if self.name[i] == nid]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s``, ``vertices`` and ``errors``."""
        own = self_times(self.start, self.end, self.parent)
        out = {n: {"calls": 0, "self_s": 0.0, "vertices": 0, "errors": 0} for n in self.names}
        for i in range(len(self)):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["self_s"] += own[i]
            if self.size[i] > 0:
                row["vertices"] += self.size[i]
            if i in self.errors:
                row["errors"] += 1
        return out

    def dump(self, path) -> None:
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op", "size"],
            "spans": [
                [self.name[i], self.start[i], self.end[i], self.parent[i], self.op[i], self.size[i]]
                for i in range(len(self))
            ],
            "errors": {str(i): e for i, e in self.errors.items()},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread with a stack discipline, so a span's
    children are disjoint and lie inside it; grandchildren are already
    inside their own parent and are not subtracted twice.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


@contextmanager
def installed(tracer: Tracer):
    """Swap every boundary name for a wrapper, in each module importing it."""
    swapped = []
    try:
        for name, (home, attr, sized, wrap_home) in BOUNDARIES.items():
            original = getattr(sys.modules[home], attr)
            wrapper = tracer.wrap(name, original, sized)
            for mod_name, module in list(sys.modules.items()):
                in_package = mod_name == "treesearch" or mod_name.startswith("treesearch.")
                if module is None or not in_package or (mod_name == home and not wrap_home):
                    continue
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    swapped.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(swapped):
            setattr(module, attr, original)
