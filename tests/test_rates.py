import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarelab.rates import (
    EXPONENT_TOL,
    exponent_ordering,
    fit_power_law,
    fit_window,
    log_linear_fit,
    verify_apriori,
    verify_main_theorem,
)

TIMES = np.linspace(0.1, 20.0, 60)


def power(exponent, c=2.0):
    return c * (1.0 + TIMES) ** exponent


class TestMainTheorem:
    def test_predicted_rate_passes_without_note(self):
        rep = verify_main_theorem(TIMES, power(-0.5))
        assert rep["status"] == "pass"
        assert rep["predicted"] == -0.5 and rep["tolerance"] == EXPONENT_TOL
        assert rep["fit"]["exponent"] == pytest.approx(-0.5, abs=1e-12)
        assert "note" not in rep

    def test_slower_decay_fails(self):
        rep = verify_main_theorem(TIMES, power(-0.2))
        assert rep["status"] == "fail"

    def test_one_sided_bound_edge(self):
        assert verify_main_theorem(TIMES, power(-0.5 + EXPONENT_TOL - 1e-6))["status"] == "pass"
        assert verify_main_theorem(TIMES, power(-0.5 + EXPONENT_TOL + 1e-6))["status"] == "fail"

    def test_faster_decay_passes_with_note(self):
        rep = verify_main_theorem(TIMES, power(-1.2))
        assert rep["status"] == "pass"
        assert "faster" in rep["note"]

    def test_noise_floor_is_degenerate(self):
        rep = verify_main_theorem(TIMES, np.full(TIMES.size, 1e-12))
        assert rep["status"] == "degenerate, skip"
        assert rep["floor"] == 1e-9 and rep["max_value"] == 1e-12


class TestApriori:
    def test_phi_l2_fit_against_its_prediction(self):
        assert verify_apriori(TIMES, power(-0.25), 2.0, "phi")["status"] == "pass"
        assert verify_apriori(TIMES, power(0.0), 2.0, "phi")["status"] == "fail"
        rep = verify_apriori(TIMES, power(-1.0), 2.0, "grad_phi")
        assert rep["status"] == "pass" and rep["predicted"] == -0.75
        assert "faster" in rep["note"]

    def test_p1_is_boundedness(self):
        rep = verify_apriori(TIMES, 1.0 + 0.5 * np.sin(TIMES), 1.0, "phi")
        assert rep["status"] == "pass"
        assert rep["predicted"] == 0.0
        assert rep["max_over_min"] <= 3.0
        assert "fit" not in rep

    def test_p1_growth_beyond_factor_three_fails(self):
        rep = verify_apriori(TIMES, 1.0 + TIMES, 1.0, "phi")
        assert rep["status"] == "fail"
        assert rep["max_over_min"] > 3.0

    def test_gradient_rates_need_p_at_least_two(self):
        with pytest.raises(ValueError):
            verify_apriori(TIMES, power(-0.5), 1.5, "grad_phi")


class TestWindow:
    def test_default_is_last_nine_tenths(self):
        assert fit_window(TIMES) == pytest.approx((2.0, 20.0))

    @pytest.mark.parametrize("verify", [
        lambda w: verify_main_theorem(TIMES, power(-0.5), w),
        lambda w: verify_apriori(TIMES, power(-0.25), 2.0, "phi", w),
        lambda w: verify_apriori(TIMES, power(0.0), 1.0, "phi", w),
    ])
    def test_both_checks_reject_a_transient_window(self, verify):
        with pytest.raises(ValueError, match="transient"):
            verify((1.0, 20.0))
        assert verify((2.0, 20.0))["status"] == "pass"


class TestOrdering:
    def test_predicted_ordering_passes(self):
        rep = exponent_ordering({1.0: -0.02, 2.0: -0.26, 4.0: -0.37, np.inf: -0.5})
        assert rep["status"] == "pass"
        assert [pair["steeper_p"] for pair in rep["pairs"]] == ["inf", 4.0, 2.0]
        assert [pair["shallower_p"] for pair in rep["pairs"]] == [4.0, 2.0, 1.0]

    def test_inversion_within_tolerance_passes(self):
        assert exponent_ordering({2.0: -0.3, np.inf: -0.25})["status"] == "pass"

    def test_inversion_beyond_tolerance_fails(self):
        rep = exponent_ordering({2.0: -0.6, np.inf: -0.3})
        assert rep["status"] == "fail"
        assert rep["pairs"][0]["gap"] == pytest.approx(-0.3)


class TestLogLinearFits:
    @settings(max_examples=50, deadline=None)
    @given(
        exponent=st.floats(-3.0, 1.0),
        scale=st.floats(0.1, 10.0),
        t_end=st.floats(1.0, 100.0),
        n=st.integers(4, 50),
    )
    def test_power_law_recovers_planted_exponent(self, exponent, scale, t_end, n):
        t = np.linspace(0.0, t_end, n)
        fit = fit_power_law(t, scale * (1.0 + t) ** exponent, (0.0, t_end))
        assert fit["exponent"] == pytest.approx(exponent, abs=1e-10)
        assert fit["n_points"] == n

    @settings(max_examples=50, deadline=None)
    @given(
        rate=st.floats(0.0, 5.0),
        scale=st.floats(0.1, 10.0),
        t_end=st.floats(0.5, 20.0),
        n=st.integers(4, 50),
    )
    def test_exponential_recovers_planted_rate(self, rate, scale, t_end, n):
        t = np.linspace(0.0, t_end, n)
        slope, *_ = log_linear_fit(t, t, scale * np.exp(-2.0 * rate * t), (0.0, t_end))
        assert -0.5 * slope == pytest.approx(rate, abs=1e-10)

    def test_power_law_window_checks(self):
        with pytest.raises(ValueError, match="need >= 4"):
            fit_power_law([0, 1, 2], [1, 0.5, 0.2], (0, 2))
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([0, 1, 2, 3], [1, 0.5, 0.0, 0.1], (0, 3))
