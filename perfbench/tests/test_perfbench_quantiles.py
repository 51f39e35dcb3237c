"""The tail-percentile rule, the weighted median and the digest helper."""

from fractions import Fraction
from statistics import median

from perfbench.quantiles import digest, tail, weighted_median


def test_tail_omitted_below_twenty_samples():
    assert tail([]) is None
    assert tail(range(19)) is None


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail(range(20)) == (50.0, 9, 20)
    assert tail(range(39)) == (50.0, 19, 39)
    assert tail(range(40)) == (75.0, 29, 40)
    assert tail(range(100)) == (90.0, 89, 100)
    assert tail(range(199)) == (90.0, 179, 199)
    assert tail(range(200)) == (95.0, 189, 200)
    assert tail(range(1000)) == (99.0, 989, 1000)
    assert tail(range(10000)) == (99.9, 9989, 10000)


def test_tail_ignores_input_order():
    values = [5, 1, 4, 2, 3] * 8
    assert tail(values) == tail(sorted(values))


def test_weighted_median_with_equal_weights_is_the_median():
    for values in ([3.0], [4.0, 1.0], [5.0, 1.0, 3.0], [2.0, 8.0, 1.0, 4.0]):
        assert weighted_median([(v, 1) for v in values]) == median(values)


def test_weighted_median_counts_a_value_by_its_weight():
    # An op whose pool entry ran twice weighs a half.
    half = Fraction(1, 2)
    assert weighted_median([(1.0, half), (5.0, 1), (9.0, half)]) == 5.0
    assert weighted_median([(1.0, half), (2.0, half), (3.0, 1)]) == 2.5
    assert weighted_median([(1.0, 1), (2.0, half), (3.0, half), (4.0, half)]) == 2.0


def test_digest_depends_on_order_and_boundaries():
    assert digest(["ab", "c"]) == digest(["ab", "c"])
    assert digest(["ab", "c"]) != digest(["c", "ab"])
    assert digest(["ab", "c"]) != digest(["a", "bc"])
