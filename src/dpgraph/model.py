"""Edge-mean function families for directed random graphs.

A model is described by a single scalar function ``mu`` giving the expected
edge indicator as a function of the sum of the two node strengths,

    E(a_ij) = mu(alpha_i + beta_j),

together with its first two derivatives and the global bound eta1 on
|mu''|.  The probit family,

    mu(x)   = Phi(x)                    (standard normal CDF)
    mu'(x)  = phi(x) = exp(-x^2/2)/sqrt(2 pi)
    mu''(x) = -x phi(x),

is the primary instance; a logit instance (mu = expit) is shipped to keep
the interface honest about being model-agnostic.

Phi is evaluated by scipy.special.ndtr, which is accurate to well below
1e-12 in absolute error over the whole real line (the test suite checks it
against a quadrature oracle).

Model contract: mu is strictly increasing, mu' is even and non-increasing
in |x|, and mu, mu' and mu'' are plain vectorised functions of float
scalars or arrays that do not check their input.  Callers pass finite
values.  Outside data are checked where they enter: ParameterVector and
the CLI parsers reject non-finite values, the degree types hold int64
counts, and the exported probit_mu, probit_mu_prime and probit_mu_second
reject non-finite input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit, ndtr

from .errors import DomainError

__all__ = [
    "EdgeMeanModel",
    "ModelBounds",
    "PROBIT",
    "LOGIT",
    "get_model",
    "probit_mu",
    "probit_mu_prime",
    "probit_mu_second",
    "bounds_for",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _as_finite_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("x must be finite")
    return arr


def probit_mu(x) -> np.ndarray | float:
    """Standard normal CDF Phi(x); strictly inside (0, 1) for finite x."""
    return ndtr(_as_finite_array(x))


def probit_mu_prime(x) -> np.ndarray | float:
    """Standard normal density phi(x) = exp(-x^2/2)/sqrt(2 pi)."""
    return _phi(_as_finite_array(x))


def _phi(arr) -> np.ndarray | float:
    # exp(-0.5 x x) / sqrt(2 pi) in one buffer, updated in place
    out = np.multiply(-0.5, arr, out=np.empty_like(arr))
    out *= arr
    np.exp(out, out=out)
    out /= SQRT_2PI
    return out[()]


def probit_mu_second(x) -> np.ndarray | float:
    """Second derivative -x phi(x); |value| <= 1/sqrt(2 pi e), peak at |x| = 1."""
    return _phi_prime(_as_finite_array(x))


def _phi_prime(arr) -> np.ndarray | float:
    return -arr * np.exp(-0.5 * arr * arr) / SQRT_2PI


def _logit_mu_prime(x) -> np.ndarray | float:
    # from the smaller of p and 1 - p, so the value is exactly even and
    # stays positive wherever expit(-|x|) does not underflow (|x| < 745)
    p = expit(-np.abs(x))
    return p * (1.0 - p)


def _logit_mu_second(x) -> np.ndarray | float:
    return _logit_mu_prime(x) * (1.0 - 2.0 * expit(x))


@dataclass(frozen=True)
class ModelBounds:
    """Derivative bounds of an edge-mean function on [-Q, Q].

    m and M bracket mu' on the interval; eta1 dominates |mu''|.
    """

    Q: float
    m: float
    M: float
    eta1: float

    def __post_init__(self):
        if not (0.0 <= self.Q < math.inf):
            raise DomainError("Q must be finite and >= 0")
        if not (0.0 < self.m <= self.M):
            raise DomainError("bounds must satisfy 0 < m <= M")
        if self.eta1 < 0.0:
            raise DomainError("eta1 must be >= 0")


@dataclass(frozen=True)
class EdgeMeanModel:
    """An edge-mean family: mu maps a strength sum to a probability in (0, 1).

    mu_prime and mu_second are the exact first and second derivatives of
    mu, and eta1 is the global maximum of |mu_second|.  The three callables
    follow the model contract of this module: unchecked, vectorised, with
    mu_prime even and non-increasing in |x|.
    """

    name: str
    mu: Callable
    mu_prime: Callable
    mu_second: Callable
    eta1: float


PROBIT = EdgeMeanModel(
    name="probit",
    mu=ndtr,
    mu_prime=_phi,
    mu_second=_phi_prime,
    eta1=1.0 / math.sqrt(2.0 * math.pi * math.e),  # |mu''| peaks at |x| = 1
)

LOGIT = EdgeMeanModel(
    name="logit",
    mu=expit,
    mu_prime=_logit_mu_prime,
    mu_second=_logit_mu_second,
    eta1=math.sqrt(3.0) / 18.0,  # |mu''| peaks where mu = (3 +- sqrt 3)/6
)

_MODELS = {"probit": PROBIT, "logit": LOGIT}


def get_model(name: str) -> EdgeMeanModel:
    """Look up a shipped model by identifier ("probit" or "logit")."""
    try:
        return _MODELS[name]
    except KeyError:
        raise DomainError(
            f"unknown model {name!r}; available: {sorted(_MODELS)}"
        ) from None


def bounds_for(model: EdgeMeanModel, Q: float) -> ModelBounds:
    """Derivative bounds of ``model`` on [-Q, Q].

    mu' is even and non-increasing in |x| (the model contract), so it is
    smallest at +-Q and largest at 0; eta1 is the model's global bound.
    """
    return ModelBounds(
        Q=float(Q),
        m=float(model.mu_prime(float(Q))),
        M=float(model.mu_prime(0.0)),
        eta1=model.eta1,
    )
