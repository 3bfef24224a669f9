"""Tests for the append-only time series."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.tracing import TimeSeries
from repro.sim.units import US_PER_S


class TestTimeSeries:
    def test_append_and_len(self):
        series = TimeSeries()
        series.append(10, 1.0)
        series.append(20, 2.0)
        assert len(series) == 2

    def test_out_of_order_append_rejected(self):
        series = TimeSeries()
        series.append(10, 1.0)
        with pytest.raises(ValueError):
            series.append(5, 2.0)

    def test_equal_time_append_allowed(self):
        series = TimeSeries()
        series.append(10, 1.0)
        series.append(10, 2.0)
        assert len(series) == 2

    def test_iter_yields_pairs(self):
        series = TimeSeries()
        series.append(1, 10.0)
        series.append(2, 20.0)
        assert list(series) == [(1, 10.0), (2, 20.0)]

    def test_window_half_open(self):
        series = TimeSeries()
        for t in (0, 10, 20, 30):
            series.append(t, float(t))
        window = series.window(10, 30)
        assert window.times == [10, 20]

    def test_count_in(self):
        series = TimeSeries()
        for t in range(0, 100, 10):
            series.append(t, 1.0)
        assert series.count_in(0, 100) == 10
        assert series.count_in(25, 55) == 3

    def test_sum_in(self):
        series = TimeSeries()
        series.append(0, 5.0)
        series.append(10, 7.0)
        series.append(20, 9.0)
        assert series.sum_in(0, 15) == 12.0

    def test_mean_empty_is_zero(self):
        assert TimeSeries().mean() == 0.0

    def test_mean(self):
        series = TimeSeries()
        series.append(0, 2.0)
        series.append(1, 4.0)
        assert series.mean() == 3.0

    def test_last_value_before(self):
        series = TimeSeries()
        series.append(10, 1.0)
        series.append(20, 2.0)
        assert series.last_value_before(15) == 1.0
        assert series.last_value_before(20) == 2.0
        assert series.last_value_before(5, default=-1.0) == -1.0

    def test_time_average_piecewise_constant(self):
        series = TimeSeries()
        series.append(0, 0.0)
        series.append(50, 10.0)
        # signal is 0 on [0,50), 10 on [50,100) -> average 5
        assert series.time_average(0, 100) == pytest.approx(5.0)

    def test_time_average_with_initial_value(self):
        series = TimeSeries()
        series.append(50, 10.0)
        assert series.time_average(0, 100, initial=2.0) == pytest.approx(6.0)

    def test_time_average_empty_window(self):
        assert TimeSeries().time_average(10, 10) == 0.0

    def test_binned_rate_counts_per_second(self):
        series = TimeSeries()
        for t in range(0, US_PER_S, US_PER_S // 10):  # 10 events in 1 s
            series.append(t, 1.0)
        bins = series.binned_rate(0, US_PER_S, US_PER_S)
        assert len(bins) == 1
        center, rate = bins[0]
        assert rate == pytest.approx(10.0)
        assert center == pytest.approx(0.5)

    def test_binned_rate_respects_values_as_weights(self):
        series = TimeSeries()
        series.append(0, 8000.0)  # 8000 bits at t=0
        bins = series.binned_rate(0, US_PER_S, US_PER_S)
        assert bins[0][1] == pytest.approx(8000.0)

    def test_binned_rate_requires_positive_bin(self):
        with pytest.raises(ValueError):
            TimeSeries().binned_rate(0, 10, 0)

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=50))
    def test_property_window_plus_outside_equals_total(self, times):
        series = TimeSeries()
        for t in sorted(times):
            series.append(t, 1.0)
        mid = (min(times) + max(times)) // 2
        total = series.count_in(0, 10**6 + 1)
        assert series.count_in(0, mid) + series.count_in(mid, 10**6 + 1) == total

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.floats(0, 100)),
            min_size=1,
            max_size=30,
        )
    )
    def test_property_time_average_bounded_by_extremes(self, samples):
        series = TimeSeries()
        values = []
        for t, v in sorted(samples, key=lambda p: p[0]):
            series.append(t, v)
            values.append(v)
        average = series.time_average(0, 2000, initial=values[0])
        assert min(values) - 1e-9 <= average <= max(values) + 1e-9

