"""The release law and edge-differentially-private degree release.

The released statistic is the bi-degree sequence.  Adding or removing one
directed edge moves one out-degree and one in-degree by one each, so the
global sensitivity of the release is 2.  Adding i.i.d. discrete Laplace
noise with parameter lambda to every coordinate therefore gives
epsilon-edge differential privacy with epsilon = -2 log(lambda), i.e.
lambda = exp(-epsilon/2).

PrivacyParams(epsilon) owns that law: lambda, the variance, the pmf

    P(X = x) = ((1 - lambda) / (1 + lambda)) * lambda^|x|,   x integer,

(mean 0, variance 2 lambda / (1 - lambda)^2) and the sampler.  A draw is
the difference of two independent geometric counts (failures before the
first success at success probability 1 - lambda), each by inversion:
floor(log(U) / log(lambda)) for U uniform on (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .graph import BiDegree, _int64_entries, _owned

SENSITIVITY = 2


@dataclass(frozen=True)
class PrivacyParams:
    """The release law at budget epsilon: discrete Laplace noise with
    lam = exp(-epsilon / SENSITIVITY) on every released degree.

    kappa = 2/(-log lam) = 4/epsilon is the scale entering the degree
    deviation bound.
    """

    epsilon: float

    def __post_init__(self):
        # a release made at epsilon = 2 writes "epsilon": 2.0
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise DomainError("epsilon must be a finite positive number")
        if self.lam >= 1.0:
            raise DomainError("epsilon too small: exp(-epsilon/2) rounds to 1")

    @property
    def lam(self) -> float:
        return math.exp(-self.epsilon / SENSITIVITY)

    @property
    def kappa(self) -> float:
        return 4.0 / self.epsilon

    @property
    def noise_variance(self) -> float:
        """Per-coordinate noise variance 2 lam / (1 - lam)^2."""
        return 2.0 * self.lam / (1.0 - self.lam) ** 2

    def pmf(self, x) -> np.ndarray:
        """P(X = x) = ((1-lam)/(1+lam)) * lam^|x| for integer x."""
        lam = self.lam
        return (1.0 - lam) / (1.0 + lam) * lam ** np.abs(np.asarray(x, dtype=float))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size i.i.d. int64 draws from 2 * size uniforms: those of every
        draw's first geometric count, then those of its second.  Where lam
        underflows to 0 the law is the point mass at 0 and no uniform is
        drawn."""
        if self.lam == 0.0:
            return np.zeros(size, dtype=np.int64)
        # 1 - random() lies in (0, 1], avoiding log(0)
        u = 1.0 - rng.random((2, size))
        g = np.floor(np.log(u) / math.log(self.lam)).astype(np.int64)
        return g[0] - g[1]


@dataclass(frozen=True, eq=False)
class NoisyBiDegree:
    """Released bi-degree sequence; entries are integers and may fall
    outside [0, n-1]."""

    z_out: np.ndarray
    z_in: np.ndarray
    params: PrivacyParams

    def __post_init__(self):
        zo = _owned(self, "z_out", _int64_entries(self.z_out), np.int64)
        zi = _owned(self, "z_in", _int64_entries(self.z_in), np.int64)
        if zo.ndim != 1 or zo.shape != zi.shape:
            raise DomainError("noisy degree vectors must be 1-D and equal length")

    @property
    def n(self) -> int:
        return self.z_out.shape[0]

    def to_json_dict(self, seed: int | None = None) -> dict:
        """The release JSON's fields, with z_out and z_in as int64 arrays."""
        out = {
            "n": self.n,
            "epsilon": self.params.epsilon,
            "z_out": self.z_out,
            "z_in": self.z_in,
        }
        if seed is not None:
            out["seed"] = int(seed)
        return out


def privatize(
    d: BiDegree, epsilon: float, rng: np.random.Generator
) -> NoisyBiDegree:
    """Release the bi-degree sequence under epsilon-edge differential privacy.

    Adds 2n independent discrete Laplace draws at lam = exp(-epsilon/2):
    first the n out-degree noises, then the n in-degree noises.  All n
    in-degrees are privatized even though downstream estimation drops one
    equation.
    """
    params = PrivacyParams(epsilon)
    e_plus, e_minus = params.sample(rng, d.n), params.sample(rng, d.n)
    z_out, z_in = d.out_deg + e_plus, d.in_deg + e_minus
    z_out.flags.writeable = z_in.flags.writeable = False  # fresh: kept uncopied
    return NoisyBiDegree(z_out=z_out, z_in=z_in, params=params)


def deviation_bound(n: int, epsilon: float) -> float:
    """High-probability envelope sqrt(n log n) + (4/epsilon) sqrt(log n)
    for the largest deviation of a released degree from its expectation.

    Natural logarithms throughout.  Used as a diagnostic threshold; the
    guarantee is asymptotic, so finite-sample violations are possible but
    should be rare.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    logn = math.log(n)
    return math.sqrt(n * logn) + PrivacyParams(epsilon).kappa * math.sqrt(logn)
