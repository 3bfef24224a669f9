"""Tests for the slotted random-walk model and cw rules."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.slotted import (
    EZFlowRule,
    FixedCwRule,
    ModelConfig,
    SlottedChainModel,
)
from repro.core.config import EZFlowConfig


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(hops=1)


class TestEZFlowRule:
    def test_doubles_above_bmax(self):
        config = ModelConfig()
        rule = EZFlowRule(config)
        cw = [16, 16, 16, 16]
        rule.update(cw, [float("inf"), 25.0, 0.0, 0.0])
        assert cw[0] == 32  # b1 > bmax -> source doubles

    def test_halves_below_bmin(self):
        config = ModelConfig()
        rule = EZFlowRule(config)
        cw = [64, 64, 64, 64]
        rule.update(cw, [float("inf"), 0.0, 0.0, 0.0])
        assert cw == [32, 32, 32, 32]

    def test_mid_band_untouched(self):
        config = ModelConfig()
        rule = EZFlowRule(config)
        cw = [64, 64, 64, 64]
        rule.update(cw, [float("inf"), 5.0, 5.0, 5.0])
        assert cw[:3] == [64, 64, 64]
        # cw3 reacts to the destination's (always empty) buffer
        assert cw[3] == 32

    def test_bounds_respected(self):
        ezflow = EZFlowConfig()
        rule = EZFlowRule(ModelConfig())
        cw = [ezflow.maxcw, ezflow.mincw, 16, 16]
        rule.update(cw, [float("inf"), 25.0, 0.0, 0.0])
        assert cw[0] == ezflow.maxcw
        assert cw[1] == ezflow.mincw

    def test_fixed_rule_never_changes(self):
        cw = [16, 32, 64, 128]
        FixedCwRule().update(cw, [float("inf"), 100.0, 0.0, 0.0])
        assert cw == [16, 32, 64, 128]


class TestSlottedChainModel:
    def test_initial_state(self):
        model = SlottedChainModel(ModelConfig(hops=4))
        assert model.relay_buffers == (0.0, 0.0, 0.0)
        assert model.buffers[0] == float("inf")
        assert model.cw == [16, 16, 16, 16]

    def test_custom_initial_state(self):
        model = SlottedChainModel(
            ModelConfig(hops=4),
            initial_buffers=[5, 0, 2],
            initial_cw=[32, 16, 16, 64],
        )
        assert model.relay_buffers == (5.0, 0.0, 2.0)
        assert model.cw == [32, 16, 16, 64]

    def test_initial_state_validated(self):
        with pytest.raises(ValueError):
            SlottedChainModel(ModelConfig(hops=4), initial_buffers=[1, 2])
        with pytest.raises(ValueError):
            SlottedChainModel(ModelConfig(hops=4), initial_cw=[16, 16])

    def test_step_conserves_packets(self):
        """Eq (3): every step, sum of relay buffers changes by z0 - z3."""
        model = SlottedChainModel(ModelConfig(hops=4), seed=1)
        for _ in range(2000):
            before = model.lyapunov()
            pattern = model.step()
            after = model.lyapunov()
            assert after - before == pattern[0] - pattern[3]

    def test_buffers_never_negative(self):
        model = SlottedChainModel(ModelConfig(hops=5), seed=2)
        for _ in range(5000):
            model.step()
            assert all(b >= 0 for b in model.relay_buffers)

    def test_delivered_counts_sink_arrivals(self):
        model = SlottedChainModel(ModelConfig(hops=4), seed=3)
        model.run(5000)
        assert model.delivered > 0

    def test_deterministic_given_seed(self):
        a = SlottedChainModel(ModelConfig(hops=4), seed=9)
        b = SlottedChainModel(ModelConfig(hops=4), seed=9)
        a.run(1000)
        b.run(1000)
        assert a.relay_buffers == b.relay_buffers
        assert a.cw == b.cw

    def test_record_every(self):
        model = SlottedChainModel(ModelConfig(hops=4), seed=5)
        trajectory = model.run(1000, record_every=100)
        assert len(trajectory) == 10

    def test_fixed_cw_4hop_unstable(self):
        """The [9] instability: b1 grows roughly linearly without EZ-flow."""
        model = SlottedChainModel(ModelConfig(hops=4), rule=FixedCwRule(), seed=7)
        model.run(100_000)
        assert model.relay_buffers[0] > 500

    def test_ezflow_4hop_stable(self):
        config = ModelConfig(hops=4)
        model = SlottedChainModel(config, rule=EZFlowRule(config), seed=7)
        model.run(100_000)
        assert model.relay_buffers[0] < 100

    def test_three_hop_stable_even_fixed(self):
        """K=3 is the stable boundary case of [9]."""
        model = SlottedChainModel(ModelConfig(hops=3), rule=FixedCwRule(), seed=7)
        model.run(100_000)
        assert model.relay_buffers[0] < 2000  # no linear blow-up

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_property_cw_stays_power_of_two(self, seed):
        ezflow = EZFlowConfig()
        model = SlottedChainModel(ModelConfig(hops=4), seed=seed)
        model.run(500)
        for cw in model.cw:
            assert ezflow.mincw <= cw <= ezflow.maxcw
            assert cw & (cw - 1) == 0
