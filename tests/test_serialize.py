"""Round-trips, parse errors, and DOT export."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesearch import (
    DecisionTree,
    export_dot,
    parse_decision_tree,
    parse_instance,
    serialize_decision_tree,
    serialize_instance,
    tree_instance,
)
from treesearch.errors import InvalidParameters, NonPositiveCost, NotATree, ParseError

import oracles
from strategies import any_tree_instances

FIX1_JSON = """
{
  "n": 11,
  "edges": [[1,2],[1,3],[1,4],[2,5],[2,6],[4,7],[4,8],[7,9],[9,10],[10,11]],
  "costs": ["1/5","2/5","1/5","1/5","3/5","4/5","1","2/5","3/5","1/5","4/5"]
}
"""


class TestInstanceRoundTrip:
    def test_parse_fixture(self, fix1):
        assert parse_instance(FIX1_JSON) == fix1

    def test_round_trip_field_exact(self, fix1):
        text = serialize_instance(fix1)
        again = parse_instance(text)
        assert again == fix1
        assert serialize_instance(again) == text  # byte-stable

    def test_single_vertex(self):
        inst = parse_instance('{"n": 1, "edges": [], "costs": [1]}')
        assert inst.n == 1
        assert inst.cost(1) == 1

    def test_single_vertex_written_with_empty_edges(self):
        text = serialize_instance(tree_instance(1, [], ["3/4"]))
        assert text == '{\n  "n": 1,\n  "edges": [],\n  "costs": [\n    "3/4"\n  ]\n}\n'

    @given(any_tree_instances(min_n=1, max_n=30))
    @settings(max_examples=200)
    def test_text_is_the_reference_text(self, inst):
        text = serialize_instance(inst)
        assert text == oracles.reference_serialize_instance(inst)
        assert parse_instance(text) == inst

    def test_integer_costs_accepted(self):
        inst = parse_instance('{"n": 2, "edges": [[1,2]], "costs": [2, "1/2"]}')
        assert inst.costs == (Fraction(2), Fraction(1, 2))

    def test_zero_cost_rejected(self):
        with pytest.raises(NonPositiveCost):
            parse_instance('{"n": 2, "edges": [[1,2]], "costs": ["0", 1]}')

    def test_not_a_tree_propagates(self):
        with pytest.raises(NotATree):
            parse_instance('{"n": 3, "edges": [[1,2],[1,2]], "costs": [1,1,1]}')

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1,2,3]",
            '{"n": 2, "edges": [[1,2]]}',
            '{"n": "2", "edges": [[1,2]], "costs": [1,1]}',
            '{"n": 2, "edges": [[1]], "costs": [1,1]}',
            '{"n": 2, "edges": [[1,2]], "costs": ["x/y", 1]}',
            '{"n": 2, "edges": [[1,2]], "costs": ["1/0", 1]}',
            '{"n": 2, "edges": [[1,2]], "costs": [1.5, 1]}',
            '{"n": 2, "edges": [[true,2]], "costs": [1,1]}',
            '{"n": 2, "edges": [[1,false]], "costs": [1,1]}',
            '{"n": 2, "edges": [[1,2]], "costs": [1, true]}',
            '{"n": 2, "edges": [[1,2]], "costs": [1, 1.0]}',
            '{"n": 2, "edges": [[1, 2]], "costs": [1, 1], "costs": [5, 7]}',
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ParseError):
            parse_instance(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2, "edges": [[1,2]], "costs": [1, 1%s]}' % ("0" * 5000),
            '{"n": 1%s, "edges": [], "costs": [1]}' % ("0" * 5000),
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=["long-cost", "long-n", "deep-nesting"],
    )
    def test_json_past_interpreter_limits_rejected(self, text):
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_huge_exponent_rejected(self):
        limit = sys.get_int_max_str_digits()
        for token in ["1e999999999", "1E-999999999", f"0e+{limit + 1}", "1e" + "9" * 5000]:
            with pytest.raises(ParseError):
                parse_instance('{"n": 1, "edges": [], "costs": ["%s"]}' % token)
        for token in [f"1e{limit}", f"-1e{limit}", f"1e-{limit}", f"0.{'0' * limit}1"]:
            with pytest.raises(ParseError):
                parse_instance('{"n": 1, "edges": [], "costs": ["%s"]}' % token)
        inst = parse_instance('{"n": 1, "edges": [], "costs": ["1e-%d"]}' % (limit - 1))
        assert inst.cost(1) == Fraction(1, 10 ** (limit - 1))
        with pytest.raises(NonPositiveCost):  # parsed: an exponent at the limit is allowed
            parse_instance('{"n": 1, "edges": [], "costs": ["0e%d"]}' % limit)


_DIGITS = st.sampled_from("0123456789")
_ODD_CHARS = st.sampled_from(["_", " ", "+", "-", ".", "e", "E", "/", "x", "\u0663", "\uff11", "\u00b2"])


@st.composite
def cost_tokens(draw):
    """JSON values a cost field might hold, mostly near-rational strings."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(st.one_of(st.integers(-10**30, 10**30), st.booleans(), st.floats()))
    digits = st.text(_DIGITS, min_size=0, max_size=6)
    if kind == 1:  # digits or digits/digits, with leading zeros and 0 denominators
        num = draw(digits)
        return num + ("/" + draw(digits) if draw(st.booleans()) else "")
    if kind == 2:  # signed decimals with small exponents and padding
        sign = draw(st.sampled_from(["", "+", "-"]))
        body = draw(digits) + draw(st.sampled_from(["", "."])) + draw(digits)
        exp = draw(st.sampled_from(["", "e", "E"]))
        if exp:
            limit = sys.get_int_max_str_digits()
            magnitude = st.one_of(st.integers(0, 40), st.sampled_from([limit, limit + 1, 10**6]))
            exp += draw(st.sampled_from(["", "+", "-"])) + str(draw(magnitude))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        return pad + sign + body + exp + pad
    # anything else built from digits and the characters Fraction cares about
    return "".join(draw(st.lists(st.one_of(_DIGITS, _ODD_CHARS), max_size=8)))


def _expected_cost(token, position):
    """The old parser's result, except that costs past the digit limit are refused."""
    limit = sys.get_int_max_str_digits()
    if isinstance(token, str) and "e" in token.lower():
        try:
            exponent = int(token.lower().rpartition("e")[2])
        except ValueError:
            exponent = 0
        if abs(exponent) > limit:
            raise ParseError(f"cost #{position} has a huge exponent")
    cost = oracles.reference_parse_cost(token, position)
    if max(abs(cost.numerator), cost.denominator) >= 10**limit:
        raise ParseError(f"cost #{position} has too many digits")
    return cost


class TestCostParsingAgainstReference:
    """Each cost is converted once, with Fraction's values and errors."""

    @given(st.lists(cost_tokens(), min_size=1, max_size=3), st.data())
    @settings(max_examples=1500)
    def test_same_costs_or_same_error(self, pool, data):
        tokens = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
        n = len(tokens)
        text = json.dumps({"n": n, "edges": [[i, i + 1] for i in range(1, n)], "costs": tokens})
        expected = oracles.outcome(
            lambda: [_expected_cost(t, i) for i, t in enumerate(tokens, 1)]
        )
        if isinstance(expected, list) and any(c <= 0 for c in expected):
            expected = NonPositiveCost
        got = oracles.outcome(parse_instance, text)
        if isinstance(expected, list):
            assert got.costs == tuple(expected)
            assert all(type(c) is Fraction for c in got.costs)
        else:
            assert got is expected


class TestStrategyRoundTrip:
    def test_round_trip_field_exact(self, dfix2):
        text = serialize_decision_tree(dfix2)
        again = parse_decision_tree(text)
        assert again == dfix2
        assert serialize_decision_tree(again) == text

    def test_single_vertex(self):
        d = DecisionTree(1, {})
        assert parse_decision_tree(serialize_decision_tree(d)) == d

    @given(
        st.integers(-10**6, 10**6),
        st.dictionaries(
            st.integers(-10**6, 10**6), st.lists(st.integers(-10**12, 10**12), max_size=4)
        ),
    )
    @settings(max_examples=300)
    def test_text_is_json_dumps(self, root, children):
        d = DecisionTree(root, children)
        doc = {"root": d.root, "children": {str(q): list(d.children[q]) for q in sorted(d.children)}}
        assert serialize_decision_tree(d) == json.dumps(doc, indent=2) + "\n"

    def test_children_keys_sorted_numerically(self, dfix2):
        doc = json.loads(serialize_decision_tree(dfix2))
        keys = [int(k) for k in doc["children"]]
        assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "text",
        [
            '{"root": 1}',
            '{"root": "1", "children": {}}',
            '{"root": 1, "children": {"a": [2]}}',
            '{"root": 1, "children": {"1": "2"}}',
            '{"root": 1, "children": {"1": [2], "01": [3]}}',
            '{"root": 1, "children": {"1": [2], "1": [3]}}',
            '{"root": 1, "root": 2, "children": {}}',
            '{"root": 1, "children": {"1": [2]}, "children": {"1": [3]}}',
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ParseError):
            parse_decision_tree(text)

    @pytest.mark.parametrize(
        "key",
        ["01", "1_0", " 1 ", "+1", "-0", "1.0", "\u0661", "1" * 5000],
        ids=["leading-zero", "underscore", "padded", "plus", "minus-zero", "decimal",
             "arabic-indic-digit", "past-digit-limit"],
    )
    def test_child_key_not_as_str_writes_it_rejected(self, key):
        doc = json.dumps({"root": 1, "children": {key: [2]}})
        with pytest.raises(ParseError, match="child key"):
            parse_decision_tree(doc)

    def test_negative_and_multi_digit_keys_accepted(self):
        d = parse_decision_tree('{"root": 10, "children": {"10": [-3], "-3": [120]}}')
        assert d == DecisionTree(10, {10: (-3,), -3: (120,)})

    @pytest.mark.parametrize(
        "text",
        [
            '{"root": 1%s, "children": {}}' % ("0" * 5000),
            '{"root": 1, "children": {"1": [2, 3%s]}}' % ("0" * 5000),
        ],
        ids=["long-root", "long-child"],
    )
    def test_json_past_interpreter_limits_rejected(self, text):
        with pytest.raises(ParseError):
            parse_decision_tree(text)


@pytest.mark.parametrize("parse", [parse_instance, parse_decision_tree])
@pytest.mark.parametrize("doc", [5, None, ["{}"]])
def test_document_that_is_not_text(parse, doc):
    with pytest.raises(ParseError):
        parse(doc)


class TestExportDot:
    def test_single_vertex_graph(self):
        inst = tree_instance(1, [], [1])
        text = export_dot(inst=inst)
        assert "graph instance {" in text
        assert 'v1 [label="v1 (c=1)"];' in text
        assert "--" not in text

    def test_instance_undirected_edges(self, fix1):
        text = export_dot(inst=fix1)
        assert text.count("--") == 10
        assert text.count("[label=") == 11
        assert 'v7 [label="v7 (c=1)"];' in text

    def test_strategy_directed_edges(self, fix1, dfix2):
        text = export_dot(inst=fix1, strategy=dfix2)
        assert text.startswith("digraph strategy {")
        assert text.count("->") == 10
        assert text.count("[label=") == 11
        assert "v4 -> v5;" in text
        assert 'v4 [label="v4 (c=1/5)"];' in text

    def test_strategy_without_costs(self, dfix2):
        text = export_dot(strategy=dfix2)
        assert 'v4 [label="v4"];' in text

    def test_deterministic(self, fix1, dfix2):
        assert export_dot(inst=fix1, strategy=dfix2) == export_dot(inst=fix1, strategy=dfix2)

    def test_requires_an_argument(self):
        with pytest.raises(InvalidParameters):
            export_dot()
