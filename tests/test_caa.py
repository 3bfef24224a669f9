"""Tests for the Channel Access Adaptation (Algorithm 1, CAA module)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.caa import ChannelAccessAdapter
from repro.core.config import EZFlowConfig


def make_caa(window=5, b_min=0.05, b_max=20.0, mincw=16, maxcw=32768, initial=None):
    applied = []
    config = EZFlowConfig(
        b_min=b_min, b_max=b_max, mincw=mincw, maxcw=maxcw, sample_window=window
    )
    caa = ChannelAccessAdapter(config, applied.append, initial_cw=initial)
    return caa, applied


def feed(caa, value, count):
    """Feed ``count`` identical samples; return the last decision."""
    decision = None
    for _ in range(count):
        decision = caa.on_sample(value) or decision
    return decision


class TestAveraging:
    def test_no_decision_before_window_full(self):
        caa, _ = make_caa(window=5)
        for _ in range(4):
            assert caa.on_sample(100) is None

    def test_decision_at_window_boundary(self):
        caa, _ = make_caa(window=5)
        decision = feed(caa, 100, 5)
        assert decision is not None
        assert decision.average == 100.0

    def test_samples_cleared_after_decision(self):
        caa, _ = make_caa(window=3)
        feed(caa, 100, 3)
        assert caa.on_sample(0) is None  # fresh window

    def test_average_of_mixed_samples(self):
        caa, _ = make_caa(window=4)
        for v in (0, 10, 20, 30):
            decision = caa.on_sample(v)
        assert decision.average == 15.0

    def test_paper_default_window_is_50(self):
        assert EZFlowConfig().sample_window == 50


class TestOverutilization:
    def test_cw_doubles_after_countup_threshold(self):
        # At cw=16, log2(cw)=4 -> four consecutive high averages needed.
        caa, applied = make_caa(window=1)
        for i in range(3):
            decision = caa.on_sample(50)
            assert decision.new_cw == 16
        decision = caa.on_sample(50)
        assert decision.new_cw == 32
        assert applied[-1] == 32

    def test_higher_cw_reacts_slower_to_congestion(self):
        caa, _ = make_caa(window=1, initial=256)  # log2 = 8
        for i in range(7):
            decision = caa.on_sample(50)
            assert decision.new_cw == 256
        assert caa.on_sample(50).new_cw == 512

    def test_countup_resets_after_doubling(self):
        caa, _ = make_caa(window=1)
        for _ in range(4):
            caa.on_sample(50)
        assert caa.countup == 0

    def test_cw_capped_at_maxcw(self):
        caa, _ = make_caa(window=1, maxcw=32, initial=32)
        for _ in range(20):
            caa.on_sample(50)
        assert caa.cw == 32


class TestUnderutilization:
    def test_cw_halves_after_countdown_threshold(self):
        # At cw=256 (log2=8): countdown threshold = 15 - 8 = 7.
        caa, applied = make_caa(window=1, initial=256)
        for i in range(6):
            decision = caa.on_sample(0)
            assert decision.new_cw == 256
        assert caa.on_sample(0).new_cw == 128

    def test_low_cw_reacts_slower_to_underutilization(self):
        # At cw=16 (log2=4): threshold = 11 consecutive low averages.
        caa, _ = make_caa(window=1, initial=32)
        for i in range(9):
            decision = caa.on_sample(0)
            assert decision.new_cw == 32
        assert caa.on_sample(0).new_cw == 16

    def test_cw_floored_at_mincw(self):
        caa, _ = make_caa(window=1)
        for _ in range(50):
            caa.on_sample(0)
        assert caa.cw == 16

    def test_countdown_resets_after_halving(self):
        caa, _ = make_caa(window=1, initial=256)
        for _ in range(7):
            caa.on_sample(0)
        assert caa.countdown == 0


class TestDesiredBand:
    def test_mid_band_keeps_cw_and_resets_counters(self):
        caa, _ = make_caa(window=1)
        caa.on_sample(50)  # countup = 1
        decision = caa.on_sample(10)  # mid band
        assert decision.new_cw == 16
        assert caa.countup == 0
        assert caa.countdown == 0

    def test_alternating_signals_never_adapt(self):
        caa, _ = make_caa(window=1, initial=64)
        for i in range(40):
            caa.on_sample(50 if i % 2 == 0 else 0)
        assert caa.cw == 64

    def test_fairness_asymmetry(self):
        """A high-cw node reacts faster to underutilization than a
        low-cw node, and slower to overutilization (Section 3.3)."""
        config = EZFlowConfig(sample_window=1)
        high = ChannelAccessAdapter(config, lambda cw: None, initial_cw=1024)
        low = ChannelAccessAdapter(config, lambda cw: None, initial_cw=16)

        def decisions_until_change(caa, value):
            for i in range(1, 100):
                if caa.on_sample(value).changed:
                    return i
            return 100

        assert decisions_until_change(high, 0) < decisions_until_change(low, 0)
        high2 = ChannelAccessAdapter(config, lambda cw: None, initial_cw=1024)
        low2 = ChannelAccessAdapter(config, lambda cw: None, initial_cw=16)
        assert decisions_until_change(high2, 99) > decisions_until_change(low2, 99)


class TestWiring:
    def test_set_cwmin_called_on_init(self):
        caa, applied = make_caa()
        assert applied == [16]

    def test_decision_callbacks(self):
        caa, _ = make_caa(window=1)
        seen = []
        caa.decision_callbacks.append(seen.append)
        caa.on_sample(10)
        assert len(seen) == 1

    def test_initial_cw_must_be_power_of_two(self):
        config = EZFlowConfig()
        with pytest.raises(ValueError):
            ChannelAccessAdapter(config, lambda cw: None, initial_cw=100)


class TestConfigValidation:
    def test_b_min_below_b_max(self):
        with pytest.raises(ValueError):
            EZFlowConfig(b_min=5.0, b_max=5.0)

    def test_power_of_two_windows(self):
        with pytest.raises(ValueError):
            EZFlowConfig(mincw=17)
        with pytest.raises(ValueError):
            EZFlowConfig(maxcw=1000)

    def test_maxcw_at_least_mincw(self):
        with pytest.raises(ValueError):
            EZFlowConfig(mincw=64, maxcw=32)

    def test_positive_window(self):
        with pytest.raises(ValueError):
            EZFlowConfig(sample_window=0)

    def test_paper_defaults(self):
        config = EZFlowConfig()
        assert config.b_min == 0.05
        assert config.b_max == 20.0
        assert config.mincw == 16
        assert config.maxcw == 32768
        assert config.history_size == 1000


class TestProperties:
    @given(st.lists(st.floats(0, 100), min_size=1, max_size=300))
    def test_property_cw_always_power_of_two_in_bounds(self, samples):
        caa, _ = make_caa(window=3)
        for value in samples:
            caa.on_sample(value)
        assert 16 <= caa.cw <= 32768
        assert caa.cw & (caa.cw - 1) == 0

    @given(st.integers(0, 11))
    def test_property_monotone_ratchet_up(self, rounds):
        """Persistent congestion only ever raises cw."""
        caa, _ = make_caa(window=1)
        previous = caa.cw
        for _ in range(rounds * 15):
            caa.on_sample(1000)
            assert caa.cw >= previous
            previous = caa.cw
