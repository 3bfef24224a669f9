"""Percentiles are refused unless ten samples lie beyond them."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from stats import QuantileRefused, quantile  # noqa: E402


def test_p75_needs_forty_samples():
    with pytest.raises(QuantileRefused):
        quantile(list(range(39)), 0.75)
    assert quantile(list(range(40)), 0.75) == 29


def test_p50_needs_twenty_samples():
    with pytest.raises(QuantileRefused):
        quantile(list(range(19)), 0.5)
    assert quantile([float(v) for v in range(20, 0, -1)], 0.5) == 10.0


def test_quantile_rejects_fractions_outside_the_open_interval():
    with pytest.raises(ValueError):
        quantile(list(range(100)), 1.0)
