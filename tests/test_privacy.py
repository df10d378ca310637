"""Noise law fidelity and the degree-release mechanism."""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from dpgraph import (
    DomainError,
    PROBIT,
    ParameterVector,
    PrivacyParams,
    degrees,
    deviation_bound,
    discrete_laplace_pmf,
    discrete_laplace_sample,
    expected_bidegree,
    privatize,
    sample_graph,
)


def gof_statistic(draws: np.ndarray, lam: float) -> tuple[float, float]:
    """Chi-square GOF against the two-sided geometric pmf.

    Symmetric tails are pooled at the first |x| whose expected count would
    drop below 10, keeping the statistic valid in the sparse region.
    """
    r = draws.size
    k = 0
    while r * lam ** (k + 1) / (1 + lam) >= 10:
        k += 1
    xs = np.arange(-k, k + 1)
    expected = discrete_laplace_pmf(xs, lam) * r
    tail = r * lam ** (k + 1) / (1 + lam)
    expected = np.concatenate([[tail], expected, [tail]])
    counts = np.concatenate(
        [
            [np.sum(draws < -k)],
            [np.sum(draws == x) for x in xs],
            [np.sum(draws > k)],
        ]
    )
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = expected.size - 1
    return stat, float(chi2.ppf(0.999, dof))


class TestPrivacyParams:
    @pytest.mark.parametrize("eps", [0.1, 0.46051701859880917, 1.0, 2.0, 10.0])
    def test_derived_constants(self, eps):
        p = PrivacyParams.from_epsilon(eps)
        assert abs(p.lam - math.exp(-eps / 2)) <= 1e-15
        assert abs(p.kappa - 4.0 / eps) <= 1e-12
        assert abs(p.kappa - 2.0 / (-math.log(p.lam))) <= 1e-12
        assert p.sensitivity == 2

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf"), 1e-30])
    def test_rejects_bad_epsilon(self, eps):
        with pytest.raises(DomainError):
            PrivacyParams.from_epsilon(eps)


class TestDiscreteLaplacePmf:
    def test_mass_at_zero(self):
        lam = math.exp(-1.0)
        np.testing.assert_allclose(
            discrete_laplace_pmf(0, lam), (1 - lam) / (1 + lam), rtol=1e-14
        )
        np.testing.assert_allclose(discrete_laplace_pmf(0, lam), 0.46211715726, atol=1e-10)

    def test_sums_to_one(self):
        for lam in (0.2, 0.5, 0.9):
            xs = np.arange(-400, 401)
            np.testing.assert_allclose(discrete_laplace_pmf(xs, lam).sum(), 1.0, atol=1e-12)

    def test_domain(self):
        for lam in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                discrete_laplace_pmf(0, lam)


class TestDiscreteLaplaceSampler:
    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, 1.3])
    def test_domain(self, lam):
        with pytest.raises(DomainError):
            discrete_laplace_sample(lam, np.random.default_rng(0))

    def test_scalar_and_vector_forms(self):
        rng = np.random.default_rng(0)
        assert isinstance(discrete_laplace_sample(0.5, rng), int)
        v = discrete_laplace_sample(0.5, rng, size=10)
        assert v.shape == (10,) and v.dtype == np.int64

    @pytest.mark.parametrize("lam", [0.2, math.exp(-1.0), 0.8])
    def test_goodness_of_fit(self, lam):
        rng = np.random.default_rng(1234)
        draws = discrete_laplace_sample(lam, rng, size=10**6)
        stat, crit = gof_statistic(draws, lam)
        assert stat < crit

    def test_empirical_mass_at_zero(self):
        lam = math.exp(-1.0)
        draws = discrete_laplace_sample(lam, np.random.default_rng(1234), size=10**6)
        target = (1 - lam) / (1 + lam)
        se = math.sqrt(target * (1 - target) / draws.size)
        assert abs(np.mean(draws == 0) - target) <= 4 * se

    def test_variance(self):
        lam = 0.5
        rng = np.random.default_rng(77)
        draws = discrete_laplace_sample(lam, rng, size=10**6)
        target = 2 * lam / (1 - lam) ** 2
        assert abs(draws.var() - target) / target < 0.01
        assert abs(draws.mean()) < 3 * math.sqrt(target / 10**6)

    def test_symmetry(self):
        lam = 0.6
        rng = np.random.default_rng(5)
        draws = discrete_laplace_sample(lam, rng, size=500000)
        for k in (1, 2, 4):
            p_pos = np.mean(draws == k)
            p_neg = np.mean(draws == -k)
            se = math.sqrt(2 * discrete_laplace_pmf(k, lam) / draws.size)
            assert abs(p_pos - p_neg) <= 4 * se

    def test_tiny_lambda_concentrates_at_zero(self):
        rng = np.random.default_rng(8)
        draws = discrete_laplace_sample(1e-6, rng, size=100000)
        assert np.all(draws == 0)


class TestPrivatize:
    def _degrees(self, n=50, seed=2):
        theta = ParameterVector.zeros(n)
        return degrees(sample_graph(theta, PROBIT, np.random.default_rng(seed)))

    def test_huge_epsilon_is_noiseless(self):
        d = self._degrees()
        z = privatize(d, 1e6, np.random.default_rng(0))
        np.testing.assert_array_equal(z.z_out, d.out_deg)
        np.testing.assert_array_equal(z.z_in, d.in_deg)

    def test_deterministic_given_seed(self):
        d = self._degrees()
        z1 = privatize(d, 1.0, np.random.default_rng(42))
        z2 = privatize(d, 1.0, np.random.default_rng(42))
        np.testing.assert_array_equal(z1.z_out, z2.z_out)
        np.testing.assert_array_equal(z1.z_in, z2.z_in)

    def test_noise_is_centered(self):
        d = self._degrees(n=100)
        rng = np.random.default_rng(11)
        reps = 10000
        acc = np.zeros(200)
        for _ in range(reps):
            z = privatize(d, 2.0, rng)
            acc += np.concatenate([z.z_out - d.out_deg, z.z_in - d.in_deg])
        lam = math.exp(-1.0)
        se = math.sqrt(2 * lam / (1 - lam) ** 2 / reps)
        assert np.abs(acc / reps).max() <= 3 * se

    def test_out_in_noise_uncorrelated(self):
        d = self._degrees(n=100)
        rng = np.random.default_rng(13)
        reps = 4000
        eo = np.empty((reps, 100))
        ei = np.empty((reps, 100))
        for r in range(reps):
            z = privatize(d, 2.0, rng)
            eo[r] = z.z_out - d.out_deg
            ei[r] = z.z_in - d.in_deg
        corr = np.mean(eo * ei, axis=0) / eo.std() / ei.std()
        assert np.abs(corr).max() < 5.0 / math.sqrt(reps)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(DomainError):
            privatize(self._degrees(), 0.0, np.random.default_rng(0))

    def test_json_schema(self):
        z = privatize(self._degrees(n=5, seed=3), 1.0, np.random.default_rng(1))
        doc = z.to_json_dict(seed=7)
        assert set(doc) == {"n", "epsilon", "z_out", "z_in", "seed"}
        assert doc["n"] == 5 and doc["seed"] == 7
        assert all(isinstance(v, int) for v in doc["z_out"])


class TestPrivacyRatio:
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_pmf_ratio_bounded_for_neighboring_degrees(self, eps):
        # one edge changes one out- and one in-degree by 1 each, so the
        # released vector moves by at most 2 in L1; the per-coordinate pmf
        # ratio then telescopes to at most e^eps
        lam = math.exp(-eps / 2)
        zs = np.arange(-30, 31)
        for d in (0, 3, 10):
            for dprime in (d - 2, d - 1, d, d + 1, d + 2):
                shift = abs(d - dprime)
                ratio = discrete_laplace_pmf(zs - d, lam) / discrete_laplace_pmf(
                    zs - dprime, lam
                )
                assert np.all(ratio <= math.exp(eps / 2 * shift) + 1e-12)


class TestDeviationBound:
    def test_reference_values(self):
        np.testing.assert_allclose(deviation_bound(100, 2.0), 25.751592315, atol=1e-6)
        np.testing.assert_allclose(
            deviation_bound(100, 0.46051701859880917), 40.099284334, atol=1e-6
        )

    def test_large_epsilon_limit(self):
        n = 100
        assert abs(deviation_bound(n, 1e12) - math.sqrt(n * math.log(n))) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            deviation_bound(1, 1.0)
        with pytest.raises(DomainError):
            deviation_bound(100, 0.0)

    def test_holds_with_high_probability(self):
        # smoke-scale version of the release-deviation envelope check
        n, eps, reps = 100, 2.0, 300
        theta = ParameterVector.zeros(n)
        exp_out, exp_in = expected_bidegree(theta, PROBIT)
        bound = deviation_bound(n, eps)
        rng = np.random.default_rng(101)
        ok = 0
        for _ in range(reps):
            z = privatize(degrees(sample_graph(theta, PROBIT, rng)), eps, rng)
            dev = max(
                np.abs(z.z_out - exp_out).max(), np.abs(z.z_in - exp_in).max()
            )
            ok += dev <= bound
        assert ok / reps >= 0.98
