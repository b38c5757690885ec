"""Unit tests for the fairness index."""

import pytest

from repro.analysis.stats import jains_index


class TestJainsIndex:
    def test_equal_shares(self):
        assert jains_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_hog(self):
        assert jains_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_moderate_skew(self):
        value = jains_index([4, 2, 2])
        assert 0.8 < value < 1.0

    def test_all_zero_is_fair(self):
        assert jains_index([0, 0]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            jains_index([])
        with pytest.raises(ValueError):
            jains_index([-1, 2])
