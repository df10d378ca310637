"""Edge-mean families: exact values, derivative identities, bounds."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dpgraph import estimator
from dpgraph import (
    DomainError,
    LOGIT,
    ModelBounds,
    PROBIT,
    bounds_for,
    get_model,
    probit_mu,
    probit_mu_prime,
    probit_mu_second,
)

GRID = np.arange(-6.0, 6.0 + 1e-9, 0.25)


def normal_cdf_quadrature(x: float) -> float:
    """Independent oracle: composite adaptive quadrature of the density.

    Integrates unit subintervals separately so the error estimate stays
    below 1e-13 even deep in the tail.
    """
    density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    ax = abs(x)
    cuts = np.r_[np.arange(0.0, ax), ax]
    total, total_err = 0.0, 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, err = quad(density, a, b, epsabs=1e-15, limit=200)
        total += val
        total_err += err
    assert total_err < 1e-13
    return 0.5 + math.copysign(total, x)


class TestProbitCdf:
    def test_against_quadrature_oracle(self):
        for x in GRID:
            assert abs(probit_mu(x) - normal_cdf_quadrature(x)) <= 1e-12

    def test_median(self):
        assert probit_mu(0.0) == 0.5

    def test_upper_975_quantile(self):
        # expected value computed by the quadrature oracle above
        assert abs(probit_mu(1.959963985) - 0.975) <= 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-8, 8, 5000)
        np.testing.assert_allclose(probit_mu(x) + probit_mu(-x), 1.0, atol=1e-12)

    def test_open_unit_range_and_monotone(self):
        vals = probit_mu(GRID)
        assert np.all(vals > 0) and np.all(vals < 1)
        assert np.all(np.diff(vals) > 0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            probit_mu(float("nan"))
        with pytest.raises(DomainError):
            probit_mu(np.array([0.0, np.inf]))


class TestProbitDensity:
    def test_known_values(self):
        np.testing.assert_allclose(probit_mu_prime(0.0), 0.3989422804014327, rtol=1e-12)
        np.testing.assert_allclose(probit_mu_prime(1.0), 0.24197072451914337, rtol=1e-12)

    def test_even(self):
        np.testing.assert_allclose(
            probit_mu_prime(GRID), probit_mu_prime(-GRID), rtol=1e-14
        )

    def test_matches_cdf_finite_difference(self):
        # differencing is done on the small-probability side (mirror of the
        # grid point), where float64 keeps full relative precision; the
        # density itself is even, so the comparison is exact either way
        h = 1e-5
        lo = -np.abs(GRID)
        fd = (probit_mu(lo + h) - probit_mu(lo - h)) / (2 * h)
        np.testing.assert_allclose(fd, probit_mu_prime(GRID), rtol=1e-6)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            probit_mu_prime(np.inf)


class TestProbitSecondDerivative:
    def test_odd_with_zero_at_origin(self):
        assert probit_mu_second(0.0) == 0.0
        np.testing.assert_allclose(
            probit_mu_second(GRID), -probit_mu_second(-GRID), atol=1e-15
        )

    def test_peak_at_minus_one(self):
        np.testing.assert_allclose(
            probit_mu_second(-1.0), 0.24197072451914337, rtol=1e-12
        )

    def test_global_bound(self):
        eta1 = 1.0 / math.sqrt(2 * math.pi * math.e)
        x = np.linspace(-10, 10, 20001)
        assert np.all(np.abs(probit_mu_second(x)) <= eta1 + 1e-15)

    def test_matches_density_finite_difference(self):
        h = 1e-5
        fd = (probit_mu_prime(GRID + h) - probit_mu_prime(GRID - h)) / (2 * h)
        np.testing.assert_allclose(fd, probit_mu_second(GRID), rtol=1e-6, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            probit_mu_second(np.array([0.0, np.nan]))


class TestLogit:
    def test_midpoint(self):
        assert LOGIT.mu(0.0) == 0.5
        np.testing.assert_allclose(LOGIT.mu_prime(0.0), 0.25, rtol=1e-14)

    def test_symmetry_and_range(self):
        x = np.linspace(-30, 30, 1001)
        vals = LOGIT.mu(x)
        assert np.all(vals > 0) and np.all(vals < 1)
        np.testing.assert_allclose(vals + LOGIT.mu(-x), 1.0, atol=1e-12)

    def test_derivative_consistency(self):
        h = 1e-5
        fd1 = (LOGIT.mu(GRID + h) - LOGIT.mu(GRID - h)) / (2 * h)
        np.testing.assert_allclose(fd1, LOGIT.mu_prime(GRID), rtol=1e-6)
        fd2 = (LOGIT.mu_prime(GRID + h) - LOGIT.mu_prime(GRID - h)) / (2 * h)
        np.testing.assert_allclose(fd2, LOGIT.mu_second(GRID), rtol=1e-6, atol=1e-12)


class TestBounds:
    def test_probit_degenerate_interval(self):
        b = bounds_for(PROBIT, 0.0)
        np.testing.assert_allclose(b.m, 0.3989422804014327, rtol=1e-12)
        np.testing.assert_allclose(b.M, 0.3989422804014327, rtol=1e-12)
        np.testing.assert_allclose(b.eta1, 0.24197072451914337, rtol=1e-12)

    def test_probit_radius_two(self):
        b = bounds_for(PROBIT, 2.0)
        np.testing.assert_allclose(b.m, 0.05399096651318806, rtol=1e-10)
        np.testing.assert_allclose(b.M, 0.3989422804014327, rtol=1e-12)

    def test_logit_grid_bounds(self):
        b = bounds_for(LOGIT, 0.0)
        np.testing.assert_allclose(b.m, 0.25, atol=1e-8)
        np.testing.assert_allclose(b.M, 0.25, atol=1e-8)

    def test_logit_grid_matches_closed_form(self):
        # logistic derivative peaks at 0 and is monotone away from it, so
        # the exact extrema over [-Q, Q] are available for comparison
        Q = 3.0
        b = bounds_for(LOGIT, Q)
        p_edge = 1.0 / (1.0 + math.exp(-Q))
        np.testing.assert_allclose(b.m, p_edge * (1 - p_edge), atol=1e-7)
        np.testing.assert_allclose(b.M, 0.25, atol=1e-8)
        # |mu''| maximum for the logistic family is at mu = (3 +- sqrt(3))/6
        p_star = (3 - math.sqrt(3)) / 6
        eta_exact = p_star * (1 - p_star) * (1 - 2 * p_star)
        np.testing.assert_allclose(b.eta1, eta_exact, atol=1e-6)

    @pytest.mark.parametrize("model,Q", [(PROBIT, 1.5), (PROBIT, 3.0), (LOGIT, 2.0)])
    def test_bounds_hold_on_random_points(self, model, Q):
        b = bounds_for(model, Q)
        rng = np.random.default_rng(11)
        x = rng.uniform(-Q, Q, 20000)
        d1 = np.asarray(model.mu_prime(x))
        assert np.all(d1 >= b.m - 1e-12) and np.all(d1 <= b.M + 1e-12)
        assert np.all(np.abs(model.mu_second(x)) <= b.eta1 + 1e-12)

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            bounds_for(PROBIT, -1.0)
        with pytest.raises(DomainError, match="0 < m <= M"):
            ModelBounds(Q=1.0, m=0.5, M=0.25, eta1=0.1)
        with pytest.raises(DomainError, match="eta1 must be >= 0"):
            ModelBounds(Q=1.0, m=0.25, M=0.5, eta1=-0.1)


@pytest.mark.parametrize("model", [PROBIT, LOGIT], ids=["probit", "logit"])
class TestModelContract:
    def test_eta1_is_the_peak_of_mu_second(self, model):
        x = np.linspace(-10.0, 10.0, 200001)  # step 1e-4
        assert abs(np.abs(model.mu_second(x)).max() - model.eta1) <= 1e-9

    def test_mu_prime_even_and_non_increasing_in_abs_x(self, model):
        x = np.linspace(0.0, 40.0, 40001)
        d1 = model.mu_prime(x)
        np.testing.assert_array_equal(model.mu_prime(-x), d1)
        assert np.all(np.diff(d1) <= 0.0)


def test_logit_mu_prime_positive_within_twice_the_divergence_guard():
    # Newton iterates stay within the guard, so their strength sums stay
    # within twice it; a zero mu' there would make the Jacobian singular
    q = 2.0 * estimator._DIVERGENCE_GUARD
    assert np.all(LOGIT.mu_prime(np.linspace(-q, q, 200001)) > 0.0)


class TestRegistry:
    def test_lookup(self):
        assert get_model("probit") is PROBIT
        assert get_model("logit") is LOGIT

    def test_unknown_name_lists_choices(self):
        with pytest.raises(DomainError, match="probit"):
            get_model("cauchit")
