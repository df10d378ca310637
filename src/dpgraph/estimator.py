"""Moment estimation of node strengths from (possibly noisy) bi-degrees.

The estimate solves the 2n-1 moment equations

    z_i^+ = sum_{k != i} mu(alpha_i + beta_k),   i = 1..n,
    z_j^- = sum_{k != j} mu(alpha_k + beta_j),   j = 1..n-1,

with beta_n pinned to 0 (the n-th in-degree equation is dropped and its
degree value never enters).  Writing F(theta) for the stacked residuals,
the iteration is full-step Newton,

    theta <- theta - [F'(theta)]^{-1} F(theta),

with an exact dense solve of the (2n-1)-dimensional system each step.

V = -F'(theta) is symmetric, nonnegative and diagonally dominant with a
special block form: both diagonal blocks are diagonal matrices and the
off-diagonal block holds the pairwise derivative weights
w[i, j] = mu'(alpha_i + beta_j).  That structure admits a closed-form
approximate inverse S built from the diagonal reciprocals 1/v_kk and one
shared boundary scalar 1/v_{2n,2n}; S is exposed for diagnostics (the
production path always factorizes V exactly).

The estimate "does not exist" (a statistical event, not an error) when a
used degree lies outside the open attainable range (0, n-1), when Newton
exceeds its iteration cap, when an iterate escapes the divergence guard,
or when the linear solve goes singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .errors import (
    DomainError,
    NonexistentFitError,
    NumericalFailure,
    SingularSystemError,
)
from .graph import BiDegree, ParameterVector, _pair_matrix
from .model import EdgeMeanModel, bounds_for
from .privacy import NoisyBiDegree, PrivacyParams

__all__ = [
    "SolveOptions",
    "JacobianMatrix",
    "SApprox",
    "FitResult",
    "VarianceInputs",
    "ConvergenceDiagnostics",
    "CiResult",
    "moment_residual",
    "jacobian",
    "build_s_approx",
    "s_approx_error",
    "newton_solve",
    "convergence_diagnostics",
    "variance_estimates",
    "standardized_stats",
    "confidence_interval",
]

STAT_KINDS = ("xi", "zeta", "eta")


def _degree_vectors(z) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Normalize degree input to (out, in) float vectors plus epsilon if any.

    Accepts BiDegree, NoisyBiDegree, or a bare (out, in) pair; the bare form
    admits real-valued entries (e.g. exact expected degrees in oracle tests).
    """
    if isinstance(z, NoisyBiDegree):
        return (
            z.z_out.astype(float),
            z.z_in.astype(float),
            z.params.epsilon,
        )
    if isinstance(z, BiDegree):
        return z.out_deg.astype(float), z.in_deg.astype(float), None
    zout, zin = z
    zout = np.asarray(zout, dtype=float)
    zin = np.asarray(zin, dtype=float)
    if zout.ndim != 1 or zout.shape != zin.shape:
        raise DomainError("degree vectors must be 1-D and equal length")
    return zout, zin, None


def moment_residual(theta: ParameterVector, z, model: EdgeMeanModel) -> np.ndarray:
    """Stacked residuals of the 2n-1 moment equations at theta.

    Components 1..n are z_i^+ minus the expected out-degree; components
    n+1..2n-1 are z_j^- minus the expected in-degree for j = 1..n-1.
    """
    zout, zin, _ = _degree_vectors(z)
    n = theta.n
    if zout.shape[0] != n:
        raise DomainError(
            f"degree vectors have length {zout.shape[0]}, parameters have n={n}"
        )
    p = _pair_matrix(theta, model.mu)
    return np.concatenate(
        [zout - p.sum(axis=1), (zin - p.sum(axis=0))[: n - 1]]
    )


@dataclass(frozen=True)
class JacobianMatrix:
    """V = -F'(theta): the structured (2n-1) x (2n-1) moment Jacobian.

    w holds the pairwise weights mu'(alpha_i + beta_j) with zero diagonal.
    Block layout of V: rows/cols 1..n are out-equations (diagonal block
    diag of row sums of w), rows/cols n+1..2n-1 are in-equations (diagonal
    block diag of column sums), and the cross block is w itself restricted
    to columns 1..n-1.
    """

    n: int
    w: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """Dense V, assembled on each access."""
        n, w = self.n, self.w
        v = np.diag(self.v_diag)
        cross = w[:, : n - 1]
        v[:n, n:] = cross
        v[n:, :n] = cross.T
        return v

    @property
    def v_diag(self) -> np.ndarray:
        return np.concatenate([self.w.sum(axis=1), self.w.sum(axis=0)[: self.n - 1]])

    @property
    def boundary(self) -> np.ndarray:
        """The derived boundary column v_{2n,i} = v_ii - sum_{j != i} v_ij.

        Equals w[i, n] for i <= n-1 and 0 for every other row.
        """
        n = self.n
        out = np.zeros(2 * n - 1)
        out[: n - 1] = self.w[: n - 1, n - 1]
        return out

    @property
    def v_2n_2n(self) -> float:
        return float(self.w[:, self.n - 1].sum())


def jacobian(theta: ParameterVector, model: EdgeMeanModel) -> JacobianMatrix:
    """V = -F'(theta) from the derivative weights."""
    return JacobianMatrix(n=theta.n, w=_pair_matrix(theta, model.mu_prime))


@dataclass(frozen=True)
class SApprox:
    """Closed-form approximation to V^{-1} for the structured Jacobian.

    s_ij = delta_ij / v_ii + sigma_ij / v_{2n,2n}, where sigma is +1 when
    i and j fall in the same equation block and -1 across blocks.
    """

    n: int
    diag: np.ndarray
    shared: float

    def materialize(self) -> np.ndarray:
        dim = 2 * self.n - 1
        sign = np.ones(dim)
        sign[self.n :] = -1.0
        s = np.outer(sign, sign) * self.shared
        s[np.arange(dim), np.arange(dim)] += self.diag
        return s


def build_s_approx(v: JacobianMatrix) -> SApprox:
    """S from the diagonal reciprocals and the boundary scalar of V."""
    vd = v.v_diag
    v2n = v.v_2n_2n
    if np.any(vd <= 0.0) or v2n <= 0.0:
        raise SingularSystemError("Jacobian has a nonpositive diagonal entry")
    return SApprox(n=v.n, diag=1.0 / vd, shared=1.0 / v2n)


def s_approx_error(v: JacobianMatrix) -> float:
    """Entrywise max |V^{-1} - S|, via exact inversion (diagnostic only)."""
    exact = np.linalg.inv(v.matrix)
    return float(np.abs(exact - build_s_approx(v).materialize()).max())


@dataclass(frozen=True)
class SolveOptions:
    """Newton controls; convergence and non-existence thresholds.

    The residual tolerance scales with n because each residual component is
    a sum of n-1 bounded terms.  Hitting max_iter signals a non-existent
    estimate rather than slowness: the iteration is quadratically
    convergent whenever a solution exists nearby.
    """

    max_iter: int = 200
    residual_tol_scale: float = 1e-8
    step_tol: float = 1e-10
    divergence_guard: float = 50.0


@dataclass(frozen=True)
class FitResult:
    """Outcome of a moment fit.

    exists=False carries a reason ("range", "max_iter", "diverged",
    "singular"); it is the statistical event that the realized degrees
    admit no solution, not a numerical bug.  Variance fields are attached
    by with_variance() after a successful fit.
    """

    theta: ParameterVector
    exists: bool
    reason: str | None
    iterations: int
    residual_norm: float
    model: str
    epsilon: float | None = None
    var_diag: np.ndarray | None = None
    shared_var: float | None = None
    privacy_var: float | None = None

    @property
    def n(self) -> int:
        return self.theta.n

    @property
    def converged(self) -> bool:
        return self.exists

    def with_variance(self, vi: "VarianceInputs") -> "FitResult":
        return replace(
            self,
            var_diag=vi.z_diag,
            shared_var=vi.shared_var,
            privacy_var=vi.privacy_var,
        )

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "model": self.model,
            "epsilon": self.epsilon,
            "converged": self.converged,
            "exists": self.exists,
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
        }
        if self.exists:
            out["alpha"] = self.theta.alpha.tolist()
            out["beta"] = self.theta.beta.tolist()
        else:
            out["reason"] = self.reason
            out["alpha"] = None
            out["beta"] = None
        if self.var_diag is not None:
            se = np.sqrt(self.var_diag)
            out["se_alpha"] = se[: self.n].tolist()
            # beta_n is pinned, so its reported std. error is 0
            out["se_beta"] = se[self.n :].tolist() + [0.0]
            out["shared_var"] = self.shared_var
            out["privacy_var"] = self.privacy_var
        else:
            out["se_alpha"] = None
            out["se_beta"] = None
        return out


def _nonexistent(
    reason: str,
    theta: ParameterVector,
    iterations: int,
    residual_norm: float,
    model: EdgeMeanModel,
    epsilon: float | None,
) -> FitResult:
    return FitResult(
        theta=theta,
        exists=False,
        reason=reason,
        iterations=iterations,
        residual_norm=residual_norm,
        model=model.name,
        epsilon=epsilon,
    )


def newton_solve(
    z,
    model: EdgeMeanModel,
    init: ParameterVector | None = None,
    opts: SolveOptions | None = None,
) -> FitResult:
    """Solve the moment equations by full Newton steps with exact solves.

    Convergence is declared when the residual sup-norm falls to
    residual_tol_scale * n or the step sup-norm to step_tol; the step
    triggering the declaration is still applied, so the returned iterate is
    one full Newton update past the threshold.  Non-existence is declared
    up front when a used degree is <= 0 or >= n-1 (each expected degree
    lies strictly inside (0, n-1), so such a value provably has no
    solution), or later via the iteration cap, the divergence guard on
    ||theta||_inf, or a singular solve.

    Raises NumericalFailure if a residual evaluates to a non-finite value.
    """
    zout, zin, epsilon = _degree_vectors(z)
    n = zout.shape[0]
    if n < 2:
        raise DomainError("need at least 2 nodes")
    opts = opts or SolveOptions()
    theta = init if init is not None else ParameterVector.zeros(n)
    if theta.n != n:
        raise DomainError("init has wrong dimension")

    def _initial_norm() -> float:
        return float(np.abs(moment_residual(theta, (zout, zin), model)).max())

    used = np.concatenate([zout, zin[: n - 1]])
    if not np.all(np.isfinite(used)):
        raise NumericalFailure("non-finite degree input")
    if np.any(used <= 0.0) or np.any(used >= n - 1.0):
        return _nonexistent("range", theta, 0, _initial_norm(), model, epsilon)
    # summing the out-equations minus the in-equations shows any solution
    # satisfies sum(z+) - sum(z-_{1..n-1}) = sum_{k != n} mu(alpha_k + beta_n),
    # i.e. the implied n-th in-degree must itself lie in (0, n-1)
    implied = float(zout.sum() - zin[: n - 1].sum())
    if implied <= 0.0 or implied >= n - 1.0:
        return _nonexistent("range", theta, 0, _initial_norm(), model, epsilon)

    res_tol = opts.residual_tol_scale * n
    free = theta.to_free()
    resid = moment_residual(theta, (zout, zin), model)
    if not np.all(np.isfinite(resid)):
        raise NumericalFailure("non-finite residual at initial point")

    for it in range(1, opts.max_iter + 1):
        v = jacobian(theta, model).matrix
        try:
            step = np.linalg.solve(v, resid)
        except np.linalg.LinAlgError:
            return _nonexistent(
                "singular", theta, it, float(np.abs(resid).max()), model, epsilon
            )
        if not np.all(np.isfinite(step)):
            return _nonexistent(
                "singular", theta, it, float(np.abs(resid).max()), model, epsilon
            )
        free = free + step
        theta = ParameterVector.from_free(free)
        if np.abs(free).max() > opts.divergence_guard:
            return _nonexistent(
                "diverged", theta, it, float(np.abs(resid).max()), model, epsilon
            )
        new_resid = moment_residual(theta, (zout, zin), model)
        if not np.all(np.isfinite(new_resid)):
            raise NumericalFailure(f"non-finite residual at iteration {it}")
        if np.abs(resid).max() <= res_tol or np.abs(step).max() <= opts.step_tol:
            return FitResult(
                theta=theta,
                exists=True,
                reason=None,
                iterations=it,
                residual_norm=float(np.abs(new_resid).max()),
                model=model.name,
                epsilon=epsilon,
            )
        resid = new_resid

    return _nonexistent(
        "max_iter", theta, opts.max_iter, float(np.abs(resid).max()), model, epsilon
    )


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    """Newton contraction certificate evaluated at the true parameters.

    r is the sup-norm of the first Newton correction at theta_star; rho is
    the Lipschitz-type contraction factor 2(2n-1)(n-1)M^2 eta1/(m^3 n^2)
    + 2 eta1/m with the unknown universal pre-constant taken as 1, so
    rho_r < 1/2 is a heuristic indicator rather than a guarantee.  K1 and
    K2 are the Jacobian Lipschitz constants 4 eta1 (n-1) and 2 eta1 (n-1).
    """

    r: float
    rho: float
    rho_r: float
    K1: float
    K2: float
    contraction_ok: bool


def convergence_diagnostics(
    z, theta_star: ParameterVector, model: EdgeMeanModel, Q: float
) -> ConvergenceDiagnostics:
    """Evaluate the contraction quantities at a known truth (simulation use)."""
    resid = moment_residual(theta_star, z, model)
    v = jacobian(theta_star, model).matrix
    r = float(np.abs(np.linalg.solve(v, resid)).max())
    b = bounds_for(model, Q)
    n = theta_star.n
    k1 = 4.0 * b.eta1 * (n - 1)
    k2 = 2.0 * b.eta1 * (n - 1)
    rho = (
        2.0 * (2 * n - 1) * (n - 1) * b.M**2 * b.eta1 / (b.m**3 * n**2)
        + 2.0 * b.eta1 / b.m
    )
    rho_r = rho * r
    return ConvergenceDiagnostics(
        r=r, rho=rho, rho_r=rho_r, K1=k1, K2=k2, contraction_ok=rho_r < 0.5
    )


@dataclass(frozen=True)
class VarianceInputs:
    """Plug-in variance components at the fitted parameters.

    u_diag holds the per-equation degree variances (row/column sums of the
    Bernoulli variances mu(1-mu)); z_diag = u_diag / v_diag^2 are the
    leading per-coordinate variances; shared_var and privacy_var are the
    common terms u_{2n,2n}/v_{2n,2n}^2 and s_n^2/v_{2n,2n}^2 added to every
    covariance entry (privacy_var is 0 when fitting raw degrees).
    """

    u_diag: np.ndarray
    u_2n_2n: float
    s_n_sq: float
    v_diag: np.ndarray
    v_2n_2n: float
    z_diag: np.ndarray
    shared_var: float
    privacy_var: float


def variance_estimates(
    theta_hat: ParameterVector,
    model: EdgeMeanModel,
    privacy: PrivacyParams | None = None,
) -> VarianceInputs:
    """Estimate the asymptotic-variance building blocks at theta_hat.

    The aggregate-noise variance is s_n^2 = (2n-1) * 2 lam / (1-lam)^2,
    counting the 2n-1 noise draws that enter the solved equations.
    """
    n = theta_hat.n
    p = _pair_matrix(theta_hat, model.mu)
    u = p * (1.0 - p)
    u_diag = np.concatenate([u.sum(axis=1), u.sum(axis=0)[: n - 1]])
    u_2n_2n = float(u[:, n - 1].sum())
    jac = jacobian(theta_hat, model)
    v_diag = jac.v_diag
    v_2n_2n = jac.v_2n_2n
    if np.any(v_diag <= 0.0) or v_2n_2n <= 0.0:
        raise SingularSystemError("zero diagonal in the fitted Jacobian")
    s_n_sq = (2 * n - 1) * privacy.noise_variance if privacy is not None else 0.0
    return VarianceInputs(
        u_diag=u_diag,
        u_2n_2n=u_2n_2n,
        s_n_sq=s_n_sq,
        v_diag=v_diag,
        v_2n_2n=v_2n_2n,
        z_diag=u_diag / v_diag**2,
        shared_var=u_2n_2n / v_2n_2n**2,
        privacy_var=s_n_sq / v_2n_2n**2,
    )


def _require_variance(fit: FitResult) -> np.ndarray:
    if not fit.exists:
        raise NonexistentFitError(
            f"estimate does not exist (reason: {fit.reason})"
        )
    if fit.var_diag is None:
        raise NonexistentFitError("fit carries no variance estimates")
    return fit.var_diag


def _stat_indices(kind: str, i: int, j: int, n: int) -> tuple[int, int]:
    """Map a 1-based node pair to 0-based variance indices for a statistic."""
    if kind not in STAT_KINDS:
        raise DomainError(f"kind must be one of {STAT_KINDS}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"pair ({i}, {j}) out of range for n={n}")
    if kind == "xi":
        return i - 1, j - 1
    # beta_n is pinned with zero variance, so beta indices stop at n-1
    if kind == "zeta":
        if j > n - 1:
            raise DomainError("zeta requires j <= n-1")
        return i - 1, n + j - 1
    if i > n - 1 or j > n - 1:
        raise DomainError("eta requires i, j <= n-1")
    return n + i - 1, n + j - 1


def _stat_center(theta: ParameterVector, kind: str, i: int, j: int) -> float:
    a, b = theta.alpha, theta.beta
    if kind == "xi":
        return float(a[i - 1] - a[j - 1])
    if kind == "zeta":
        return float(a[i - 1] + b[j - 1])
    return float(b[i - 1] - b[j - 1])


def _stat_variance(
    fit: FitResult, kind: str, i: int, j: int, include_shared: bool
) -> float:
    zd = _require_variance(fit)
    ki, kj = _stat_indices(kind, i, j, fit.n)
    var = float(zd[ki] + zd[kj])
    if include_shared:
        # sensitivity-analysis variant; the shared and privacy terms cancel
        # exactly in all three contrasts under the asymptotic covariance
        var += 2.0 * (float(fit.shared_var or 0.0) + float(fit.privacy_var or 0.0))
    return var


def standardized_stats(
    fit: FitResult,
    theta_star: ParameterVector,
    pairs,
    kind: str = "xi",
    include_shared: bool = False,
) -> np.ndarray:
    """Centered-and-scaled pair contrasts; asymptotically standard normal.

    kind "xi" contrasts alpha_i - alpha_j, "zeta" the sum alpha_i + beta_j,
    "eta" the contrast beta_i - beta_j.  Scaling uses the per-coordinate
    variances only (the default matches the asymptotic covariance of these
    contrasts; include_shared adds the common terms for sensitivity runs).
    """
    out = np.empty(len(pairs))
    for idx, (i, j) in enumerate(pairs):
        num = _stat_center(fit.theta, kind, i, j) - _stat_center(theta_star, kind, i, j)
        out[idx] = num / math.sqrt(_stat_variance(fit, kind, i, j, include_shared))
    return out


@dataclass(frozen=True)
class CiResult:
    lo: float
    hi: float
    length: float

    @property
    def half_length(self) -> float:
        return self.length / 2.0


def confidence_interval(
    fit: FitResult,
    pair: tuple[int, int],
    level: float = 0.95,
    kind: str = "xi",
    include_shared: bool = False,
) -> CiResult:
    """Normal-theory interval for a pair contrast at the given level."""
    if not (0.0 < level < 1.0):
        raise DomainError("level must lie in (0, 1)")
    i, j = pair
    se = math.sqrt(_stat_variance(fit, kind, i, j, include_shared))
    q = float(ndtri(0.5 + level / 2.0))
    center = _stat_center(fit.theta, kind, i, j)
    return CiResult(lo=center - q * se, hi=center + q * se, length=2.0 * q * se)
