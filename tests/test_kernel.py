"""Kernel unit tests.

Frozen expected values were computed independently with mpmath at
50-digit precision from the closed-form density, then rounded to the
nearest float64.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massgraph import (
    KernelDomainError,
    KernelParams,
    ParameterError,
    log_cauchy_pdf,
    reinforcement,
    validate_kernel_params,
)

# independently computed reference points (mu=0, sigma=1 unless noted)
PDF_AT_2 = 0.10750421769257787
KERNEL_AT_2 = 0.80065139825252318
PDF_AT_E_MU1 = 0.11709966304863832  # closed form 1/(e*pi)
KERNEL_AT_E_MU1 = 1.1170996630486383
PDF_AT_E2_SIGMA2 = 0.010769639650924315  # closed form 1/(4*pi*e^2)

STANDARD = KernelParams(mu=0.0, sigma=1.0)


class TestParams:
    def test_defaults(self):
        assert KernelParams() == KernelParams(mu=0.0, sigma=1.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_nonpositive_sigma_rejected(self, sigma):
        with pytest.raises(ParameterError):
            KernelParams(sigma=sigma)

    @pytest.mark.parametrize("mu,sigma", [(math.nan, 1.0), (0.0, math.inf), (math.inf, 1.0)])
    def test_nonfinite_rejected(self, mu, sigma):
        with pytest.raises(ParameterError):
            KernelParams(mu=mu, sigma=sigma)


class TestLogCauchyPdf:
    def test_closed_form_at_e(self):
        # ln x = mu collapses the bracket to 1, leaving 1/(x*pi*sigma)
        value = log_cauchy_pdf(math.e, KernelParams(mu=1.0, sigma=1.0))
        assert value == pytest.approx(1.0 / (math.e * math.pi), abs=1e-15)
        assert value == pytest.approx(PDF_AT_E_MU1, abs=1e-15)

    def test_reference_point_at_2(self):
        assert log_cauchy_pdf(2.0, STANDARD) == pytest.approx(PDF_AT_2, abs=1e-15)

    def test_unit_bracket_at_e_squared(self):
        # (ln x - mu)/sigma = 1 forces the bracket to 2
        value = log_cauchy_pdf(math.e**2, KernelParams(mu=0.0, sigma=2.0))
        assert value == pytest.approx(PDF_AT_E2_SIGMA2, abs=1e-15)

    @pytest.mark.parametrize("x", [1.0, 0.5, 0.0, -3.0])
    def test_domain_errors(self, x):
        with pytest.raises(KernelDomainError):
            log_cauchy_pdf(x, STANDARD)

    @given(x=st.floats(min_value=1.0, max_value=1e9, exclude_min=True),
           mu=st.floats(-3, 3), sigma=st.floats(0.05, 4))
    def test_positive_and_finite(self, x, mu, sigma):
        value = log_cauchy_pdf(x, KernelParams(mu=mu, sigma=sigma))
        assert value > 0
        assert math.isfinite(value)

    @given(mu=st.floats(0.5, 3), d=st.floats(0.01, 2), sigma=st.floats(0.1, 3))
    def test_log_space_symmetry(self, mu, d, sigma):
        """x*g(x) depends on (ln x - mu)^2 only, so it matches at e^(mu +/- d)."""
        params = KernelParams(mu=mu, sigma=sigma)
        hi = math.exp(mu + d)
        lo = math.exp(mu - d)
        if lo <= 1.0:  # keep both sample points inside the domain
            return
        assert hi * log_cauchy_pdf(hi, params) == pytest.approx(
            lo * log_cauchy_pdf(lo, params), rel=1e-12)


class TestReinforcement:
    def test_zero_is_exactly_zero(self):
        assert reinforcement(0, STANDARD) == 0.0

    def test_reference_point_at_2(self):
        assert reinforcement(2.0, STANDARD) == pytest.approx(KERNEL_AT_2, abs=1e-15)

    def test_closed_form_at_e(self):
        value = reinforcement(math.e, KernelParams(mu=1.0, sigma=1.0))
        assert value == pytest.approx(1.0 + 1.0 / (math.e * math.pi), abs=1e-15)
        assert value == pytest.approx(KERNEL_AT_E_MU1, abs=1e-15)

    @pytest.mark.parametrize("x", [0.5, 1.0, -2.0])
    def test_domain_errors(self, x):
        with pytest.raises(KernelDomainError):
            reinforcement(x, STANDARD)

    @given(x=st.floats(min_value=1.0, max_value=1e9, exclude_min=True),
           mu=st.floats(-3, 3), sigma=st.floats(0.05, 4))
    def test_dominates_plain_logarithm(self, x, mu, sigma):
        assert reinforcement(x, KernelParams(mu=mu, sigma=sigma)) > math.log(x)

    @given(x=st.floats(min_value=1.0, max_value=1e9, exclude_min=True))
    def test_strictly_positive_above_one(self, x):
        assert reinforcement(x, STANDARD) > 0


class TestMonotonicityScan:
    def test_standard_params_are_monotone(self):
        report = validate_kernel_params(STANDARD, 1.001, 1000.0, 10000)
        assert report.monotone
        assert report.violation_x is None

    def test_sharp_spike_is_not_monotone(self):
        """A tight density spike near x = 1 decays faster than ln grows;
        the scan catches it at the second grid sample."""
        report = validate_kernel_params(KernelParams(mu=0.0, sigma=0.05),
                                        1.001, 1000.0, 10000)
        assert not report.monotone
        assert report.violation_x == pytest.approx(1.0016916742546273, abs=1e-9)

    @pytest.mark.parametrize("lo,hi,steps", [
        (2.0, 2.0, 100),    # empty range
        (5.0, 2.0, 100),    # inverted
        (1.0, 10.0, 100),   # lo not above 1
        (1.5, 10.0, 1),     # too few samples
        (1.5, 10.0, 2.5),   # steps not an integer
        (1.5, 10.0, "3"),
        (1.5, 10.0, None),
        (1.5, math.inf, 100),  # infinite bound
    ])
    def test_bad_grids_rejected(self, lo, hi, steps):
        with pytest.raises(ParameterError):
            validate_kernel_params(STANDARD, lo, hi, steps)

    @settings(max_examples=25)
    @given(sigma=st.floats(0.5, 3), mu=st.floats(-1, 1))
    def test_report_is_consistent(self, mu, sigma):
        report = validate_kernel_params(KernelParams(mu=mu, sigma=sigma),
                                        1.01, 100.0, 500)
        if report.monotone:
            assert report.violation_x is None
        else:
            assert 1.01 <= report.violation_x <= 100.0
