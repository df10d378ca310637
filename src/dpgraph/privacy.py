"""Discrete Laplace noise and edge-differentially-private degree release.

The released statistic is the bi-degree sequence.  Adding or removing one
directed edge moves one out-degree and one in-degree by one each, so the
global sensitivity of the release is 2.  Adding i.i.d. discrete Laplace
noise with parameter lambda to every coordinate therefore gives
epsilon-edge differential privacy with epsilon = -2 log(lambda), i.e.
lambda = exp(-epsilon/2).

The noise law is the two-sided geometric

    P(X = x) = ((1 - lambda) / (1 + lambda)) * lambda^|x|,   x integer,

with mean 0 and variance 2 lambda / (1 - lambda)^2.  It is sampled exactly
as the difference of two independent geometric counts (failures before the
first success at success probability 1 - lambda), each drawn by inversion:
floor(log(U) / log(lambda)) for U uniform on (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError
from .graph import BiDegree, _int64_entries

SENSITIVITY = 2


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget epsilon with its derived noise constants.

    lam = exp(-epsilon/2) is the discrete Laplace parameter and
    kappa = 2/(-log lam) = 4/epsilon is the scale entering the degree
    deviation bound.
    """

    epsilon: float
    sensitivity: ClassVar[int] = SENSITIVITY

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise DomainError("epsilon must be a finite positive number")
        if self.lam >= 1.0:
            raise DomainError("epsilon too small: exp(-epsilon/2) rounds to 1")

    @classmethod
    def from_epsilon(cls, epsilon: float) -> "PrivacyParams":
        return cls(float(epsilon))

    @property
    def lam(self) -> float:
        return math.exp(-self.epsilon / 2.0)

    @property
    def kappa(self) -> float:
        return 4.0 / self.epsilon

    @property
    def noise_variance(self) -> float:
        """Per-coordinate noise variance 2 lam / (1 - lam)^2."""
        return 2.0 * self.lam / (1.0 - self.lam) ** 2


@dataclass(frozen=True)
class NoisyBiDegree:
    """Released bi-degree sequence; entries are integers and may fall
    outside [0, n-1]."""

    z_out: np.ndarray
    z_in: np.ndarray
    params: PrivacyParams

    def __post_init__(self):
        zo = _int64_entries(self.z_out)
        zi = _int64_entries(self.z_in)
        if zo.ndim != 1 or zo.shape != zi.shape:
            raise DomainError("noisy degree vectors must be 1-D and equal length")
        zo.flags.writeable = False
        zi.flags.writeable = False
        object.__setattr__(self, "z_out", zo)
        object.__setattr__(self, "z_in", zi)

    @property
    def n(self) -> int:
        return self.z_out.shape[0]

    def to_json_dict(self, seed: int | None = None) -> dict:
        out = {
            "n": self.n,
            "epsilon": self.params.epsilon,
            "z_out": self.z_out.tolist(),
            "z_in": self.z_in.tolist(),
        }
        if seed is not None:
            out["seed"] = int(seed)
        return out


def discrete_laplace_pmf(x, lam: float) -> np.ndarray | float:
    """P(X = x) = ((1-lam)/(1+lam)) * lam^|x| for integer x."""
    if not (0.0 < lam < 1.0):
        raise DomainError("lambda must lie in (0, 1)")
    xa = np.abs(np.asarray(x, dtype=float))
    out = (1.0 - lam) / (1.0 + lam) * lam**xa
    return float(out) if np.ndim(x) == 0 else out


def _geometric(lam: float, size: int, rng: np.random.Generator) -> np.ndarray:
    # failures before first success at success prob 1-lam, by inversion;
    # 1 - random() lies in (0, 1], avoiding log(0)
    u = 1.0 - rng.random(size)
    return np.floor(np.log(u) / math.log(lam)).astype(np.int64)


def discrete_laplace_sample(
    lam: float, rng: np.random.Generator, size: int | None = None
) -> int | np.ndarray:
    """Draw from the discrete Laplace law with parameter lam in (0, 1).

    The difference of two i.i.d. geometric counts has exactly the target
    pmf; two uniforms per draw, no rejection.
    """
    if not (0.0 < lam < 1.0):
        raise DomainError("lambda must lie in (0, 1)")
    m = 1 if size is None else int(size)
    noise = _geometric(lam, m, rng) - _geometric(lam, m, rng)
    return int(noise[0]) if size is None else noise


def privatize(
    d: BiDegree, epsilon: float, rng: np.random.Generator
) -> NoisyBiDegree:
    """Release the bi-degree sequence under epsilon-edge differential privacy.

    Adds 2n independent discrete Laplace draws at lam = exp(-epsilon/2):
    first the n out-degree noises, then the n in-degree noises.  All n
    in-degrees are privatized even though downstream estimation drops one
    equation.  For epsilon so large that lam underflows to 0.0 the noise is
    exactly zero (the point-mass limit of the law).
    """
    params = PrivacyParams.from_epsilon(epsilon)
    n = d.n
    if params.lam == 0.0:
        e_plus = np.zeros(n, dtype=np.int64)
        e_minus = np.zeros(n, dtype=np.int64)
    else:
        e_plus = discrete_laplace_sample(params.lam, rng, size=n)
        e_minus = discrete_laplace_sample(params.lam, rng, size=n)
    return NoisyBiDegree(
        z_out=d.out_deg + e_plus,
        z_in=d.in_deg + e_minus,
        params=params,
    )


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
