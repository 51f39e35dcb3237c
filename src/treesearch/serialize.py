"""JSON serialization for instances and strategies, plus Graphviz export.

Instance document: ``{"n": int, "edges": [[u, v], ...], "costs": [...]}``
with 1-based vertex ids and ``costs[i]`` belonging to vertex ``i + 1``.
Costs are written as exact rational strings ("2/5", "1").  On input a
cost is a JSON integer or a string, converted as
:func:`~treesearch.core.validate_instance` converts it: an integer,
``p/q``, or a decimal with an optional exponent ("0.25", "3e-2"), within
the interpreter's digit limit (:func:`sys.get_int_max_str_digits`) for
both the exponent and the value.

Strategy document: ``{"root": int, "children": {"<id>": [ids...]}}``,
each ``<id>`` an integer as ``str`` writes it.  In both documents no
object may repeat a key.  Serialization is canonical, so equal values
produce byte-identical text: the text ``json.dumps(doc, indent=2)``
gives, which both writers build directly, in one pass.  Every malformed
document, including text that is not UTF-8, nesting too deep for the
JSON decoder, JSON numbers past the interpreter's digit limit and a
document that is not text at all, raises :class:`ParseError`.
"""

from __future__ import annotations

import json

from .core import DecisionTree, TreeInstance, validate_instance
from .errors import InvalidCost, InvalidParameters, ParseError


def _load_json(text: str):
    if not isinstance(text, (str, bytes, bytearray)):
        raise ParseError(f"a document must be text, got {type(text).__name__}")
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # too many digits, too deeply nested
        raise ParseError(f"invalid JSON: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    """An object's pairs as a dict, refusing a key the object repeats."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"key {key!r} is repeated in one object")
        doc[key] = value
    return doc


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def parse_instance(text: str) -> TreeInstance:
    """Parse and validate an instance document."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    try:
        n = doc["n"]
        edges = doc["edges"]
        costs = doc["costs"]
    except KeyError as exc:
        raise ParseError(f"instance document is missing key {exc}") from exc
    if type(n) is not int:
        raise ParseError('"n" must be an integer')
    if not isinstance(edges, list):
        raise ParseError('"edges" must be a list of [u, v] integer pairs')
    pairs = []
    for edge in edges:
        if not (
            type(edge) is list and len(edge) == 2
            and type(edge[0]) is int and type(edge[1]) is int
        ):
            raise ParseError('"edges" must be a list of [u, v] integer pairs')
        pairs.append((edge[0], edge[1]))
    if not isinstance(costs, list):
        raise ParseError('"costs" must be a list')
    for position, token in enumerate(costs, 1):
        if type(token) is not int and type(token) is not str:
            raise ParseError(f"cost #{position} must be a rational string or integer")
    try:
        return validate_instance(TreeInstance(n, tuple(pairs), tuple(costs)))
    except InvalidCost as exc:
        raise ParseError(str(exc)) from exc


def load_instance(path) -> TreeInstance:
    return parse_instance(_read_text(path))


def _json_list(items: list[str]) -> str:
    """A top-level key's list of indented ``items``, as ``json.dumps(indent=2)`` writes it."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def serialize_instance(inst: TreeInstance) -> str:
    """The instance document as ``json.dumps(doc, indent=2) + "\\n"`` writes it.

    Each distinct cost object is written once, however many vertices share it.
    """
    edges = _json_list([f"    [\n      {u},\n      {v}\n    ]" for u, v in inst.edges])
    ids = list(map(id, inst.costs))
    text = {i: f'    "{c}"' for i, c in dict(zip(ids, inst.costs)).items()}
    costs = _json_list(list(map(text.__getitem__, ids)))
    return f'{{\n  "n": {inst.n},\n  "edges": {edges},\n  "costs": {costs}\n}}\n'


def parse_decision_tree(text: str) -> DecisionTree:
    """Parse a strategy document (no instance-level validation).

    A child key must be an integer written as ``str`` writes it (no sign
    but ``-``, no padding, underscores or leading zeros), and no object
    may repeat a key, so each query's child list is read exactly once.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("strategy document must be a JSON object")
    try:
        root = doc["root"]
        children = doc["children"]
    except KeyError as exc:
        raise ParseError(f"strategy document is missing key {exc}") from exc
    if not isinstance(root, int) or isinstance(root, bool):
        raise ParseError('"root" must be an integer')
    if not isinstance(children, dict):
        raise ParseError('"children" must be an object')
    parsed: dict[int, tuple[int, ...]] = {}
    for key, kids in children.items():
        try:
            q = int(key)
        except ValueError:
            q = None
        if str(q) != key:
            raise ParseError(f"child key {key!r} is not an integer as str() writes it")
        if not isinstance(kids, list) or not all(
            isinstance(k, int) and not isinstance(k, bool) for k in kids
        ):
            raise ParseError(f"children of {key} must be a list of integers")
        parsed[q] = tuple(kids)
    return DecisionTree(root, parsed)


def load_decision_tree(path) -> DecisionTree:
    return parse_decision_tree(_read_text(path))


def serialize_decision_tree(d: DecisionTree) -> str:
    """The strategy document as ``json.dumps(doc, indent=2) + "\\n"`` writes it."""
    if not d.children:
        return f'{{\n  "root": {d.root},\n  "children": {{}}\n}}\n'
    entries = ",\n".join(
        f'    "{q}": [\n      ' + ",\n      ".join(map(str, d.children[q])) + "\n    ]"
        for q in sorted(d.children)
    )
    return f'{{\n  "root": {d.root},\n  "children": {{\n{entries}\n  }}\n}}\n'


def export_dot(inst: TreeInstance | None = None, strategy: DecisionTree | None = None) -> str:
    """Graphviz text for an instance, a strategy, or a strategy with costs.

    With only an instance, emits the undirected tree; with a strategy,
    emits the rooted strategy as a digraph.  Node labels carry the vertex
    id and, when the instance is available, its cost.  Raises
    :class:`InvalidParameters` when neither is given.
    """
    if inst is None and strategy is None:
        raise InvalidParameters("need an instance or a strategy to export")

    def label(v: int) -> str:
        if inst is None:
            return f"v{v}"
        return f"v{v} (c={inst.cost(v)})"

    lines = []
    if strategy is None:
        lines.append("graph instance {")
        for v in range(1, inst.n + 1):
            lines.append(f'  v{v} [label="{label(v)}"];')
        for u, v in inst.edges:
            lines.append(f"  v{u} -- v{v};")
    else:
        lines.append("digraph strategy {")
        for v in sorted(strategy.vertex_set):
            lines.append(f'  v{v} [label="{label(v)}"];')
        for q in sorted(strategy.children):
            for child in strategy.children[q]:
                lines.append(f"  v{q} -> v{child};")
    lines.append("}")
    return "\n".join(lines) + "\n"
