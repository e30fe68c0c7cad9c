"""Tests for the ECDF helper."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.ecdf import Ecdf


class TestEvaluate:
    def test_simple_fractions(self):
        ecdf = Ecdf([1, 2, 2, 3])
        assert ecdf.evaluate(0) == 0.0
        assert ecdf.evaluate(1) == 0.25
        assert ecdf.evaluate(2) == 0.75
        assert ecdf.evaluate(3) == 1.0
        assert ecdf.evaluate(100) == 1.0

    def test_empty_sample(self):
        assert Ecdf([]).evaluate(5) == 0.0
        assert len(Ecdf([])) == 0


class TestQuantiles:
    def test_median_odd(self):
        assert Ecdf([1, 5, 9]).median() == 5

    def test_median_even(self):
        assert Ecdf([1, 2, 3, 4]).median() == 2

    def test_quantile_bounds(self):
        ecdf = Ecdf([10, 20, 30, 40])
        assert ecdf.quantile(0.0) == 10
        assert ecdf.quantile(1.0) == 40

    def test_quantile_errors(self):
        with pytest.raises(ValueError):
            Ecdf([]).quantile(0.5)
        with pytest.raises(ValueError):
            Ecdf([1]).quantile(1.5)


class TestSeries:
    def test_series_is_staircase(self):
        ecdf = Ecdf([2, 2, 5])
        assert ecdf.series() == [(2, 2 / 3), (5, 1.0)]

    def test_series_custom_points(self):
        ecdf = Ecdf([1, 2, 3])
        assert ecdf.series([0, 2]) == [(0, 0.0), (2, 2 / 3)]


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=200))
def test_ecdf_properties(values):
    ecdf = Ecdf(values)
    # Monotone non-decreasing and bounded by [0, 1].
    points = ecdf.series()
    fractions = [fraction for _, fraction in points]
    assert all(0.0 <= fraction <= 1.0 for fraction in fractions)
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0
    assert ecdf.evaluate(min(values) - 1) == 0.0
    assert min(values) <= ecdf.median() <= max(values)
