"""Edge-mean function families for directed random graphs.

A model is described by a single scalar function ``mu`` giving the expected
edge indicator as a function of the sum of the two node strengths,

    E(a_ij) = mu(alpha_i + beta_j),

together with its first two derivatives and the bounds those derivatives
obey on a symmetric interval.  The probit family,

    mu(x)   = Phi(x)                    (standard normal CDF)
    mu'(x)  = phi(x) = exp(-x^2/2)/sqrt(2 pi)
    mu''(x) = -x phi(x),

is the primary instance; a logit instance is shipped to keep the interface
honest about being model-agnostic.

Phi is evaluated by scipy.special.ndtr, which is accurate to well below
1e-12 in absolute error over the whole real line (the test suite checks it
against a quadrature oracle).

The public callables reject non-finite input.  Each shipped model also
carries unchecked versions of mu and mu', for the Newton core, whose
arguments are finite by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

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
ETA1_PROBIT = 1.0 / math.sqrt(2.0 * math.pi * math.e)  # global max of |mu''|


def _as_finite_array(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def probit_mu(x) -> np.ndarray | float:
    """Standard normal CDF Phi(x); strictly inside (0, 1) for finite x."""
    return ndtr(_as_finite_array(x))


def probit_mu_prime(x) -> np.ndarray | float:
    """Standard normal density phi(x) = exp(-x^2/2)/sqrt(2 pi)."""
    return _phi(_as_finite_array(x))


def _phi(arr: np.ndarray) -> np.ndarray | float:
    # exp(-0.5 x x) / sqrt(2 pi) in one buffer, updated in place
    out = np.multiply(-0.5, arr, out=np.empty_like(arr))
    out *= arr
    np.exp(out, out=out)
    out /= SQRT_2PI
    return out[()]


def probit_mu_second(x) -> np.ndarray | float:
    """Second derivative -x phi(x); |value| <= 1/sqrt(2 pi e), peak at |x| = 1."""
    arr = _as_finite_array(x)
    return -arr * np.exp(-0.5 * arr * arr) / SQRT_2PI


def _logit_mu(x):
    return _logistic(_as_finite_array(x))


def _logistic(arr: np.ndarray) -> np.ndarray | float:
    flat = np.atleast_1d(arr).copy()
    pos = flat >= 0
    flat[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
    e = np.exp(flat[~pos])
    flat[~pos] = e / (1.0 + e)
    # [()] turns a 0-d result into a scalar and leaves arrays as they are
    return flat.reshape(arr.shape)[()]


def _logit_mu_prime(x):
    return _logistic_prime(_as_finite_array(x))


def _logistic_prime(arr: np.ndarray) -> np.ndarray | float:
    p = _logistic(arr)
    return p * (1.0 - p)


def _logit_mu_second(x):
    p = _logit_mu(x)
    return p * (1.0 - p) * (1.0 - 2.0 * p)


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
        if not (self.Q >= 0.0):
            raise DomainError("Q must be >= 0")
        if not (0.0 < self.m <= self.M):
            raise DomainError("bounds must satisfy 0 < m <= M")
        if self.eta1 < 0.0:
            raise DomainError("eta1 must be >= 0")


@dataclass(frozen=True)
class EdgeMeanModel:
    """An edge-mean family: mu maps a strength sum to a probability in (0, 1).

    mu must be strictly increasing; mu_prime and mu_second are its exact
    first and second derivatives.  All three callables accept scalars or
    numpy arrays.  ``analytic_bounds``, when present, returns closed-form
    derivative bounds for a given radius; models without it fall back to a
    dense-grid scan in :func:`bounds_for`.  ``mu_unchecked`` and
    ``mu_prime_unchecked``, when present, compute the same values as mu and
    mu_prime for a float array, without checking that it is finite.
    """

    name: str
    mu: Callable
    mu_prime: Callable
    mu_second: Callable
    analytic_bounds: Callable[[float], ModelBounds] | None = None
    mu_unchecked: Callable | None = None
    mu_prime_unchecked: Callable | None = None

    def inner(self) -> tuple[Callable, Callable]:
        """(mu, mu') for float arrays that are finite by construction."""
        return (self.mu_unchecked or self.mu, self.mu_prime_unchecked or self.mu_prime)


def _probit_bounds(Q: float) -> ModelBounds:
    # mu' = phi peaks at 0 and is smallest at the interval ends; the global
    # second-derivative bound 1/sqrt(2 pi e) is used for every Q.
    return ModelBounds(
        Q=Q,
        m=float(probit_mu_prime(Q)),
        M=float(probit_mu_prime(0.0)),
        eta1=ETA1_PROBIT,
    )


PROBIT = EdgeMeanModel(
    name="probit",
    mu=probit_mu,
    mu_prime=probit_mu_prime,
    mu_second=probit_mu_second,
    analytic_bounds=_probit_bounds,
    mu_unchecked=ndtr,
    mu_prime_unchecked=_phi,
)

LOGIT = EdgeMeanModel(
    name="logit",
    mu=_logit_mu,
    mu_prime=_logit_mu_prime,
    mu_second=_logit_mu_second,
    mu_unchecked=_logistic,
    mu_prime_unchecked=_logistic_prime,
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


GRID_STEP = 1e-3
OUTWARD_PAD = 1e-9


def bounds_for(model: EdgeMeanModel, Q: float) -> ModelBounds:
    """Derivative bounds of ``model`` on [-Q, Q].

    Uses the model's closed form when it has one; otherwise scans a grid of
    step <= 1e-3 and rounds the extrema outward so the returned interval is
    conservative.
    """
    if not (np.isfinite(Q) and Q >= 0.0):
        raise DomainError("Q must be finite and >= 0")
    if model.analytic_bounds is not None:
        return model.analytic_bounds(float(Q))
    if Q == 0.0:
        grid = np.array([0.0])
    else:
        npts = max(3, int(math.ceil(2.0 * Q / GRID_STEP)) + 1)
        grid = np.linspace(-Q, Q, npts)
    d1 = np.asarray(model.mu_prime(grid), dtype=float)
    d2 = np.abs(np.asarray(model.mu_second(grid), dtype=float))
    return ModelBounds(
        Q=float(Q),
        m=float(d1.min()) - OUTWARD_PAD,
        M=float(d1.max()) + OUTWARD_PAD,
        eta1=float(d2.max()) + OUTWARD_PAD,
    )
