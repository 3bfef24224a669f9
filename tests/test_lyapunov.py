"""Tests for the Foster-Lyapunov drift machinery (Theorem 1)."""

import pytest

from repro.analysis.lyapunov import (
    THEOREM1_K,
    DriftReport,
    exact_k_step_drift,
    k_step_drift,
    representative_state,
    sum_lyapunov,
    verify_theorem1,
)
from repro.analysis.regions import region_of


class TestLyapunovFunction:
    def test_sum_function(self):
        assert sum_lyapunov([1, 2, 3]) == 6.0

    def test_empty(self):
        assert sum_lyapunov([]) == 0.0


class TestRepresentativeStates:
    def test_states_land_in_their_regions(self):
        for region in THEOREM1_K:
            state = representative_state(region)
            assert region_of(*state) == region

    def test_high_must_exceed_bmax(self):
        with pytest.raises(ValueError):
            representative_state("B", high=10.0)


class TestDrift:
    def test_region_f_one_step_exact(self):
        """In F with the feeder window maxed the sink drains ~surely."""
        drift = exact_k_step_drift((60.0, 0.0, 60.0), k=1)
        assert drift == pytest.approx(-1.0, abs=0.01)

    def test_region_h_one_step_negative(self):
        drift = exact_k_step_drift((60.0, 60.0, 60.0), k=1)
        assert drift < -0.4

    def test_region_d_two_step(self):
        drift = exact_k_step_drift((0.0, 0.0, 60.0), k=2)
        assert drift == pytest.approx(-0.5, abs=0.01)

    def test_exact_matches_monte_carlo_where_large(self):
        exact = exact_k_step_drift((60.0, 0.0, 60.0), k=1)
        sampled = k_step_drift((60.0, 0.0, 60.0), k=1, trials=3000, seed=1)
        assert sampled == pytest.approx(exact, abs=0.05)

    def test_buffers_length_validated(self):
        with pytest.raises(ValueError):
            k_step_drift((1.0, 2.0), k=1)


class TestTheorem1:
    def test_all_regions_negative(self):
        reports = verify_theorem1(trials=300, seed=2)
        assert len(reports) == 7
        for report in reports:
            assert report.negative, f"region {report.region} drift {report.drift}"

    def test_paper_k_values(self):
        assert THEOREM1_K == {"B": 25, "C": 4, "D": 2, "E": 2, "F": 1, "G": 3, "H": 1}

    def test_report_fields(self):
        report = DriftReport("F", (60.0, 0.0, 60.0), 1, -0.9)
        assert report.negative
        assert not DriftReport("F", (60.0, 0.0, 60.0), 1, 0.1).negative
