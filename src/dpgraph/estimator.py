"""Moment estimation of node strengths from (possibly noisy) bi-degrees.

The estimate solves the 2n-1 moment equations

    z_i^+ = sum_{k != i} mu(alpha_i + beta_k),   i = 1..n,
    z_j^- = sum_{k != j} mu(alpha_k + beta_j),   j = 1..n-1,

with beta_n pinned to 0 (the n-th in-degree equation is dropped and its
degree value never enters).  Writing F(theta) for the stacked residuals,
the iteration is full-step Newton,

    theta <- theta - [F'(theta)]^{-1} F(theta).

V = -F'(theta) is symmetric, nonnegative and diagonally dominant with a
special block form: both diagonal blocks are diagonal matrices and the
off-diagonal block holds the pairwise derivative weights
w[i, j] = mu'(alpha_i + beta_j).  That structure admits a closed-form
approximate inverse S built from the diagonal reciprocals 1/v_kk and one
shared boundary scalar 1/v_{2n,2n}, with ||V^{-1} - S|| = O(n^{-2}).
Each Newton step eliminates the out-block, whose diagonal block is
diagonal, and solves the (n-1)-dimensional Schur complement by conjugate
gradients preconditioned with S's in-block part, using matrix-free
products with the cross block (a handful per step); dense V is only
assembled by the diagnostics s_approx_error and convergence_diagnostics.

Every O(n^2) quantity of a fit (the residual, the diagonal of V, the
products with its cross block, the variance sums) is a row sum, column
sum or product of a pair matrix f(alpha_i + beta_j).  One pair operator
(pairs._Pairs) serves them all, stacked over the rows of a block, from
the dense n x n matrices or a tensor Chebyshev interpolant of each row's
box; pairs.py states which backend and node count a row gets, and why.

One stacked solver fits R degree sequences at once (the simulation
harness's blocks of replications); newton_solve is its R = 1 case.  Its
stacked work is elementwise arithmetic, reductions within each row's own
arrays and one BLAS call per row, so a row's floats never depend on the
other rows.  The estimate and its plug-in variances are one result: every
fit that exists carries the variances, from the pair sums of its last
iterate, and the statistics and intervals read them from there.

The estimate "does not exist" (a statistical event, not an error) when a
used degree lies outside the open attainable range (0, n-1), when Newton
exceeds its iteration cap, when an iterate escapes the divergence guard,
or when the linear solve goes singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import (
    DomainError,
    NonexistentFitError,
    NumericalFailure,
    SingularSystemError,
)
from .graph import BiDegree, ParameterVector
from .model import EdgeMeanModel, bounds_for
from .pairs import _DensePairs, _pair_matrix, _Pairs, _pairs
from .privacy import NoisyBiDegree, PrivacyParams

STAT_KINDS = ("xi", "zeta", "eta")


def _degree_vectors(z) -> tuple[np.ndarray, np.ndarray, PrivacyParams | None]:
    """Normalize degree input to (out, in) float vectors plus the release
    law of a NoisyBiDegree (None for raw degrees).

    Accepts BiDegree, NoisyBiDegree, or a bare (out, in) pair; the bare form
    admits real-valued entries (e.g. exact expected degrees in oracle tests).
    """
    if isinstance(z, NoisyBiDegree):
        return z.z_out.astype(float), z.z_in.astype(float), z.params
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
    expected, _ = _pairs(theta.to_free()[None], model).mu().sums()
    return np.concatenate([zout, zin[: n - 1]]) - expected[0]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows of a and b, one BLAS dot per row."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


@dataclass(frozen=True, eq=False)
class JacobianMatrix:
    """V = -F'(theta): the structured (2n-1) x (2n-1) moment Jacobian.

    w holds the pairwise weights mu'(alpha_i + beta_j) with zero diagonal.
    Block layout of V: rows/cols 1..n are out-equations (diagonal block
    diag of row sums of w), rows/cols n+1..2n-1 are in-equations (diagonal
    block diag of column sums), and the cross block is w itself restricted
    to columns 1..n-1.
    """

    w: np.ndarray

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense V, assembled on each access (diagnostics only)."""
        n, w = self.n, self.w
        v = np.diag(self.v_diag)
        cross = w[:, : n - 1]
        v[:n, n:] = cross
        v[n:, :n] = cross.T
        return v

    @property
    def v_diag(self) -> np.ndarray:
        return _DensePairs(self.w).sums()[0]

    @property
    def v_2n_2n(self) -> float:
        return float(_DensePairs(self.w).sums()[1])


def jacobian(theta: ParameterVector, model: EdgeMeanModel) -> JacobianMatrix:
    """V = -F'(theta) from the derivative weights."""
    return JacobianMatrix(w=_pair_matrix(theta, model.mu_prime))


@dataclass(frozen=True, eq=False)
class SApprox:
    """Closed-form approximation to V^{-1} for the structured Jacobian.

    s_ij = delta_ij / v_ii + sigma_ij / v_{2n,2n}, where sigma is +1 when
    i and j fall in the same equation block and -1 across blocks.  diag
    (2n-1) holds the 1/v_ii and shared the 1/v_{2n,2n}; each Newton step's
    CG (_pcg_block) is preconditioned with its in-block part.
    """

    diag: np.ndarray
    shared: np.ndarray

    @property
    def n(self) -> int:
        return (self.diag.shape[-1] + 1) // 2

    def materialize(self) -> np.ndarray:
        # +1 on out-equations, -1 on in-equations
        sign = np.where(np.arange(self.diag.size) < self.n, 1.0, -1.0)
        s = np.outer(sign, sign) * self.shared
        s[np.diag_indices_from(s)] += self.diag
        return s


def build_s_approx(v: JacobianMatrix) -> SApprox:
    """S from the diagonal reciprocals and the boundary scalar of V."""
    vd = v.v_diag
    v2n = v.v_2n_2n
    if np.any(vd <= 0.0) or v2n <= 0.0:
        raise SingularSystemError("Jacobian has a nonpositive diagonal entry")
    return SApprox(diag=1.0 / vd, shared=np.asarray(1.0 / v2n))


def s_approx_error(v: JacobianMatrix) -> float:
    """Entrywise max |V^{-1} - S|, via exact inversion (diagnostic only)."""
    exact = np.linalg.inv(v.matrix)
    return float(np.abs(exact - build_s_approx(v).materialize()).max())


# Each Newton step's linear solve stops once the Schur system's recursive
# residual max|c - T x_b| falls to _CG_RTOL * max|b|: the full residual
# max|V x - b|, as its out-block is zero by construction.  S is within
# O(n^{-2}) of V^{-1}, so a few iterations suffice at every n; a solve still
# unconverged after _CG_MAX_ITER means V is numerically singular.
_CG_RTOL = 1e-12
_CG_MAX_ITER = 200

# Newton stops once the residual sup-norm falls to _RESIDUAL_TOL_SCALE * n
# (each residual component sums n-1 bounded terms) or the step sup-norm to
# _STEP_TOL.  Reaching _NEWTON_MAX_ITER signals a non-existent estimate
# rather than slowness, as the iteration converges quadratically whenever a
# solution exists nearby; so does an iterate beyond _DIVERGENCE_GUARD.
_NEWTON_MAX_ITER = 200
_RESIDUAL_TOL_SCALE = 1e-8
_STEP_TOL = 1e-10
_DIVERGENCE_GUARD = 50.0


def _pcg_block(
    v_diag: np.ndarray, v_2n_2n: np.ndarray, w: _Pairs, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve V_r x_r = b_r for every row r of b by CG on the in-block Schur
    complement, preconditioned with S_r restricted to the in-block.

    Row r's system has diagonal v_diag[r] = (D_a, D_b), boundary scalar
    v_2n_2n[r] and cross block W' = w_r[:, :n-1], with w the mu' pair
    operator; a leading axis of length 1 (one operator stack with one row)
    shares one system among all rows.  Both diagonal blocks of V are
    diagonal, so eliminating x_a leaves T x_b = c with T = D_b - W'^T
    D_a^{-1} W' and c = b_b - W'^T (b_a / D_a) (Reid 1972; Hageman and
    Young 1981, ch. 9): CG runs on the n-1 in-block entries, with the
    preconditioner S_bb = diag(1/D_b) + (1/v_2n_2n) 11^T, and x_a = (b_a -
    W' x_b) / D_a follows, so the full residual's out-block is zero up to
    rounding.  Returns (x, ok): ok[r] is False when S_r does not exist, an
    iterate turned non-finite, or the cap was reached, and x[r] is then 0.
    A row that converges or breaks is frozen: its x_b and r take no more
    updates.  Its p and q may turn non-finite, but each half-product is one
    BLAS call per row, so every row's arithmetic is that of a lone solve.
    """
    n = (b.shape[1] + 1) // 2
    ok = np.all(v_diag > 0.0, axis=-1) & (v_2n_2n > 0.0) & np.ones(len(b), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / v_diag
        inv_a, inv_b, shared = inv[:, :n], inv[:, n:], (1.0 / v_2n_2n)[:, None]
        tol = _CG_RTOL * np.abs(b).max(axis=1)
        x = np.zeros_like(b)
        x_b = x[:, n:]
        r = b[:, n:] - w.cross_t(b[:, :n] * inv_a)
        z = inv_b * r + shared * r.sum(axis=1, keepdims=True)
        p, rz = z, _rowdot(r, z)
        done = ~ok | (np.abs(r).max(axis=1) <= tol)
        for _ in range(_CG_MAX_ITER):
            if done.all():
                break
            live = ~done[:, None]
            q = v_diag[:, n:] * p - w.cross_t(w.cross(p) * inv_a)
            step = (rz / _rowdot(p, q))[:, None]
            np.add(x_b, step * p, out=x_b, where=live)
            np.subtract(r, step * q, out=r, where=live)
            z = inv_b * r + shared * r.sum(axis=1, keepdims=True)
            rz, rz_old = _rowdot(r, z), rz
            broke = ~done & ~np.isfinite(rz)
            ok &= ~broke
            p = z + (rz / rz_old)[:, None] * p
            done |= broke | (np.abs(r).max(axis=1) <= tol)
        # a row not done reached the cap
        ok &= np.abs(r).max(axis=1) <= tol
        x[:, :n] = (b[:, :n] - w.cross(x_b)) * inv_a
    x[~ok] = 0.0
    return x, ok


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a moment fit.

    A reason ("range", "max_iter", "diverged", "singular") means the
    estimate does not exist: the statistical event that the realized
    degrees admit no solution, not a numerical bug.  newton_solve attaches
    the plug-in variances (var_diag, shared_var, privacy_var) to every fit
    that exists; they are None otherwise.
    """

    theta: ParameterVector
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
    def exists(self) -> bool:
        return self.reason is None

    def to_json_dict(self) -> dict:
        """The fit JSON's fields, with the four vectors as numpy arrays."""
        out = {
            "n": self.n,
            "model": self.model,
            "epsilon": self.epsilon,
            "converged": self.exists,
            "exists": self.exists,
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
        }
        if not self.exists:
            out["reason"] = self.reason
            return out | dict.fromkeys(("alpha", "beta", "se_alpha", "se_beta"))
        se = np.sqrt(self.var_diag)
        return out | {
            "alpha": self.theta.alpha,
            "beta": self.theta.beta,
            "se_alpha": se[: self.n],
            # beta_n is pinned, so its reported std. error is 0
            "se_beta": np.append(se[self.n :], 0.0),
            "shared_var": self.shared_var,
            "privacy_var": self.privacy_var,
        }


@dataclass(frozen=True, eq=False)
class _BlockFit:
    """Per-row outcomes of one stacked Newton solve.

    reason[r] is None where row r's estimate exists.  sums holds the
    plug-in sums (u_diag, u_2n_2n, v_diag, v_2n_2n) at each existing row's
    estimate, NaN on the other rows: VarianceInputs(*sums, privacy) gives
    the stacked variances.
    """

    free: np.ndarray
    reason: list
    iterations: np.ndarray
    residual_norm: np.ndarray
    sums: tuple


def _plugin_sums(pairs: _Pairs) -> tuple[np.ndarray, tuple]:
    """The mu equation sums (expected degrees) of the operator's rows, and
    their plug-in sums (u_diag, u_2n_2n, v_diag, v_2n_2n): the equation and
    boundary sums of mu(1-mu) and, once the mu pair matrices go, of mu'."""
    mu = pairs.mu()
    expected, u = mu.sums()[0], mu.bernoulli().sums()
    mu = None
    return expected, (*u, *pairs.mu_prime().sums())


def _newton_block(
    zout: np.ndarray,
    zin: np.ndarray,
    model: EdgeMeanModel,
    init: np.ndarray,
) -> _BlockFit:
    """Fit the rows of (R, n) degree arrays by Newton, all rows at once.

    Every row follows the rules of newton_solve from the shared free-
    coordinate start init and keeps its own outcome.  Each iterate builds
    one pair operator (_pairs) over the rows still stepping: its mu gives
    the residual and its mu' the next step's system.  A row stops one way:
    it leaves the stacked arrays before the next operator is built.  Then
    one final operator over the converged rows' estimates gives their
    residual norms and the plug-in sums (_plugin_sums) that
    VarianceInputs turns into variances.  Row r's floats do not depend
    on the other rows.
    """
    R, n = zout.shape
    used = np.concatenate([zout, zin[:, : n - 1]], axis=1)
    if not np.all(np.isfinite(used)):
        raise NumericalFailure("non-finite degree input")
    free = np.repeat(init[None], R, axis=0)
    reason: list = [None] * R
    iterations = np.zeros(R, dtype=int)
    residual_norm = np.empty(R)
    sums = tuple(np.full(shape, np.nan) for shape in ((R, 2 * n - 1), R) * 2)

    def finish(rows, why, it, resid, free_rows):
        free[rows] = free_rows
        iterations[rows] = it
        residual_norm[rows] = np.abs(resid).max(axis=1)
        for row in rows:
            reason[row] = why

    # the start is shared, so one operator row serves every row
    pairs = _pairs(init[None], model)
    resid = used - pairs.mu().sums()[0]
    # each expected degree lies strictly inside (0, n-1), so a used degree
    # outside it admits no solution; summing the out-equations minus the
    # in-equations shows any solution also satisfies sum(z+) -
    # sum(z-_{1..n-1}) = sum_{k != n} mu(alpha_k + beta_n), so the implied
    # n-th in-degree must lie there too (sums of huge degrees may overflow
    # to inf or nan, which fall outside it as well)
    with np.errstate(over="ignore", invalid="ignore"):
        implied = zout.sum(axis=1) - zin[:, : n - 1].sum(axis=1)
    in_range = (
        np.all((used > 0.0) & (used < n - 1.0), axis=1)
        & (implied > 0.0)
        & (implied < n - 1.0)
    )
    finish(np.flatnonzero(~in_range), "range", 0, resid[~in_range], init)
    live = np.flatnonzero(in_range)
    resid, free_l = resid[live], free[live]
    if not np.all(np.isfinite(resid)):
        raise NumericalFailure("non-finite residual at initial point")
    w = pairs.mu_prime()
    v_diag, v_2n_2n = w.sums()
    res_tol = _RESIDUAL_TOL_SCALE * n

    for it in range(1, _NEWTON_MAX_ITER + 1):
        step, ok = _pcg_block(v_diag, v_2n_2n, w, resid)
        finish(live[~ok], "singular", it, resid[~ok], free_l[~ok])
        free_l = free_l + step
        diverged = ok & (np.abs(free_l).max(axis=1) > _DIVERGENCE_GUARD)
        finish(live[diverged], "diverged", it, resid[diverged], free_l[diverged])
        go = ok & ~diverged
        conv = go & ((np.abs(resid).max(axis=1) <= res_tol)
                     | (np.abs(step).max(axis=1) <= _STEP_TOL))
        # a converged row keeps this iterate; the final pass takes its sums
        free[live[conv]], iterations[live[conv]] = free_l[conv], it
        go &= ~conv
        live, free_l, resid = live[go], free_l[go], resid[go]
        if live.size == 0:
            break

        # the old operator goes before the next one is built, so the
        # allocator reuses its compressed L^T and a block holds one L^T stack
        # at a time (built first, the anchor block's traced peak read 127
        # against 85 KB a row); a dense stack's freed pages go back to the
        # system instead, which costs dense cells minor page faults (n = 63:
        # 34k to 55k per 1,000 fits); the final pass keeps this order
        w = None
        pairs = _pairs(free_l, model)
        resid = used[live] - pairs.mu().sums()[0]
        if not np.all(np.isfinite(resid)):
            raise NumericalFailure(f"non-finite residual at iteration {it}")
        w = pairs.mu_prime()
        v_diag, v_2n_2n = w.sums()
        pairs = None

    finish(live, "max_iter", _NEWTON_MAX_ITER, resid, free_l)
    # every other row has its reason by now
    done = np.flatnonzero([why is None for why in reason])
    if done.size:
        w = None
        pairs = _pairs(free[done], model)
        expected, done_sums = _plugin_sums(pairs)
        resid = used[done] - expected
        if not np.all(np.isfinite(resid)):
            it = iterations[done].max()
            raise NumericalFailure(f"non-finite residual at iteration {it}")
        residual_norm[done] = np.abs(resid).max(axis=1)
        for s, d in zip(sums, done_sums):
            s[done] = d
    return _BlockFit(free, reason, iterations, residual_norm, sums)


def newton_solve(
    z,
    model: EdgeMeanModel,
    init: ParameterVector | None = None,
) -> FitResult:
    """Solve the moment equations by full Newton steps.

    Each step solves V step = F(theta) by conjugate gradients on the
    in-block Schur complement, preconditioned with S's in-block part, to a
    relative residual of _CG_RTOL; a solve that fails to
    converge within _CG_MAX_ITER iterations, or turns non-finite, means V
    is numerically singular and ends the fit with reason "singular".

    Convergence is declared when the residual sup-norm falls to
    _RESIDUAL_TOL_SCALE * n or the step sup-norm to _STEP_TOL; the step
    triggering the declaration is still applied, so the returned iterate is
    one full Newton update past the threshold.  Non-existence is declared
    up front when a used degree is <= 0 or >= n-1 (each expected degree
    lies strictly inside (0, n-1), so such a value provably has no
    solution), or later via the iteration cap _NEWTON_MAX_ITER, the
    divergence guard _DIVERGENCE_GUARD on ||theta||_inf, or a singular
    solve.

    This is the one-row case of the stacked solver that also fits the
    simulation harness's blocks of replications.  An existing estimate
    carries its plug-in variances, equal to what variance_estimates gives
    at it (with the noise term of a NoisyBiDegree release's PrivacyParams),
    taken from the pair sums of the final pass at the estimate.

    Raises NumericalFailure if a residual evaluates to a non-finite value.
    """
    zout, zin, privacy = _degree_vectors(z)
    n = zout.shape[0]
    if n < 2:
        raise DomainError("need at least 2 nodes")
    theta = init if init is not None else ParameterVector.zeros(n)
    if theta.n != n:
        raise DomainError("init has wrong dimension")
    fit = _newton_block(zout[None], zin[None], model, theta.to_free())
    var = dict.fromkeys(("var_diag", "shared_var", "privacy_var"))
    if fit.reason[0] is None:
        vi = VarianceInputs(*(s[0] for s in fit.sums), privacy)
        var = {"var_diag": vi.z_diag, "shared_var": float(vi.shared_var),
               "privacy_var": float(vi.privacy_var)}
    return FitResult(
        theta=ParameterVector.from_free(fit.free[0]),
        reason=fit.reason[0],
        iterations=int(fit.iterations[0]),
        residual_norm=float(fit.residual_norm[0]),
        model=model.name,
        epsilon=privacy.epsilon if privacy is not None else None,
        **var,
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


@dataclass(frozen=True, eq=False)
class VarianceInputs:
    """Plug-in variance components at the fitted parameters.

    u_diag holds the per-equation degree variances (row/column sums of the
    Bernoulli variances mu(1-mu)) and privacy the release law of the fitted
    degrees (None for raw degrees); stacked sums (one row per fit) give
    stacked components.  z_diag = u_diag / v_diag^2 are the leading
    per-coordinate variances; shared_var and privacy_var are the common
    terms u_{2n,2n}/v_{2n,2n}^2 and s_n^2/v_{2n,2n}^2 added to every
    covariance entry (privacy_var is 0 when fitting raw degrees).
    """

    u_diag: np.ndarray
    u_2n_2n: float
    v_diag: np.ndarray
    v_2n_2n: float
    privacy: PrivacyParams | None

    def __post_init__(self):
        if np.any(self.v_diag <= 0.0) or np.any(self.v_2n_2n <= 0.0):
            raise SingularSystemError("zero diagonal in the fitted Jacobian")

    @property
    def z_diag(self) -> np.ndarray:
        return self.u_diag / self.v_diag**2

    @property
    def shared_var(self) -> float:
        return self.u_2n_2n / self.v_2n_2n**2

    @property
    def s_n_sq(self) -> float:
        """Variance of the sum of the 2n-1 noise draws in the solved
        equations (one per u_diag entry); 0 for raw degrees."""
        if self.privacy is None:
            return 0.0
        return self.u_diag.shape[-1] * self.privacy.noise_variance

    @property
    def privacy_var(self) -> float:
        return self.s_n_sq / self.v_2n_2n**2


def variance_estimates(
    theta_hat: ParameterVector,
    model: EdgeMeanModel,
    privacy: PrivacyParams | None = None,
) -> VarianceInputs:
    """Estimate the asymptotic-variance building blocks at theta_hat: the
    one-row case of the final pass of newton_solve, which takes the same
    sums (_plugin_sums) at its estimate."""
    _, sums = _plugin_sums(_pairs(theta_hat.to_free()[None], model))
    return VarianceInputs(*(s[0] for s in sums), privacy)


def _require_variance(fit: FitResult) -> np.ndarray:
    if not fit.exists:
        raise NonexistentFitError(
            f"estimate does not exist (reason: {fit.reason})"
        )
    if fit.var_diag is None:
        raise NonexistentFitError("fit carries no variance estimates")
    return fit.var_diag


def _is_node_index(k) -> bool:
    """An int or numpy integer, but not a bool, which would pass for 0 or 1."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def _stat_indices(kind: str, i: int, j: int, n: int) -> tuple[int, int]:
    """Map a 1-based node pair to 0-based variance indices for a statistic."""
    if kind not in STAT_KINDS:
        raise DomainError(f"kind must be one of {STAT_KINDS}")
    if not (_is_node_index(i) and _is_node_index(j)):
        raise DomainError(f"pair ({i!r}, {j!r}) must hold integer node indices")
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"pair ({i}, {j}) out of range for n={n}")
    if i == j and kind != "zeta":
        raise DomainError(f"{kind} needs i != j: its contrast at ({i}, {i}) is 0")
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


def _pair_indices(kind: str, pairs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Variance (and free-coordinate) indices of each pair's two terms."""
    ki, kj = zip(*(_stat_indices(kind, i, j, n) for i, j in pairs))
    return np.array(ki), np.array(kj)


def _contrast(free: np.ndarray, kind: str, ki: np.ndarray, kj: np.ndarray) -> np.ndarray:
    """alpha_i - alpha_j (xi), alpha_i + beta_j (zeta) or beta_i - beta_j
    (eta) of stacked free coordinates, at indices from _pair_indices."""
    if kind == "zeta":
        return free[..., ki] + free[..., kj]
    return free[..., ki] - free[..., kj]


def _contrast_se(z_diag: np.ndarray, ki: np.ndarray, kj: np.ndarray):
    """Standard errors of the contrasts from the per-coordinate variances:
    the shared and privacy terms cancel exactly in all three contrasts under
    the asymptotic covariance."""
    return np.sqrt(z_diag[..., ki] + z_diag[..., kj])


def _contrast_stats(free_hat, z_diag, free_star, kind: str, pairs):
    """Standardized contrasts of stacked fits against free_star, and their
    standard errors: one variance pass serves the statistic and the
    interval."""
    ki, kj = _pair_indices(kind, pairs, (free_hat.shape[-1] + 1) // 2)
    se = _contrast_se(z_diag, ki, kj)
    num = _contrast(free_hat, kind, ki, kj) - _contrast(free_star, kind, ki, kj)
    return num / se, se


def standardized_stats(
    fit: FitResult,
    theta_star: ParameterVector,
    pairs,
    kind: str = "xi",
) -> np.ndarray:
    """Centered-and-scaled pair contrasts; asymptotically standard normal.

    kind "xi" contrasts alpha_i - alpha_j, "zeta" the sum alpha_i + beta_j,
    "eta" the contrast beta_i - beta_j.  Scaling uses the per-coordinate
    variances only, which matches the asymptotic covariance of these
    contrasts.
    """
    if theta_star.n != fit.n:
        raise DomainError(f"truth has n={theta_star.n}, fit has n={fit.n}")
    if not len(pairs):
        return np.empty(0)
    zd = _require_variance(fit)
    return _contrast_stats(
        fit.theta.to_free(), zd, theta_star.to_free(), kind, pairs
    )[0]


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
) -> CiResult:
    """Normal-theory interval for a pair contrast at the given level."""
    q = _normal_quantile(level)
    zd = _require_variance(fit)
    ki, kj = _pair_indices(kind, [pair], fit.n)
    se = float(_contrast_se(zd, ki, kj)[0])
    center = float(_contrast(fit.theta.to_free(), kind, ki, kj)[0])
    return CiResult(lo=center - q * se, hi=center + q * se, length=2.0 * q * se)


def _normal_quantile(level: float) -> float:
    """The two-sided standard-normal quantile of a confidence level."""
    if not (0.0 < level < 1.0):
        raise DomainError("level must lie in (0, 1)")
    return float(ndtri(0.5 + level / 2.0))
