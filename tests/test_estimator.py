"""Moment system, structured Jacobian, Newton solver, and inference."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpgraph import estimator, pairs
from dpgraph import (
    LOGIT,
    DomainError,
    NoisyBiDegree,
    NonexistentFitError,
    NumericalFailure,
    PROBIT,
    ParameterVector,
    PrivacyParams,
    SingularSystemError,
    bounds_for,
    build_s_approx,
    confidence_interval,
    convergence_diagnostics,
    degrees,
    expected_bidegree,
    jacobian,
    moment_residual,
    newton_solve,
    privatize,
    s_approx_error,
    sample_graph,
    standardized_stats,
    variance_estimates,
)

PHI0 = 1.0 / math.sqrt(2 * math.pi)


def random_theta(n, scale, seed):
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-scale, scale, n)
    beta = rng.uniform(-scale, scale, n)
    beta[-1] = 0.0
    return ParameterVector(alpha=alpha, beta=beta)


def brute_force_residual(theta, z_out, z_in, model):
    """Independent oracle: residuals built term by term."""
    n = theta.n
    out = []
    for i in range(n):
        s = sum(
            model.mu(theta.alpha[i] + theta.beta[k]) for k in range(n) if k != i
        )
        out.append(z_out[i] - s)
    for j in range(n - 1):
        s = sum(
            model.mu(theta.alpha[k] + theta.beta[j]) for k in range(n) if k != j
        )
        out.append(z_in[j] - s)
    return np.array(out)


def linear_ramp_theta(n, height):
    i = np.arange(n)
    alpha = (n - 1 - i) * height / (n - 1)
    beta = alpha.copy()
    beta[-1] = 0.0
    return ParameterVector(alpha=alpha, beta=beta)


class TestMomentResidual:
    def test_fixed_point_at_uniform_half(self):
        theta = ParameterVector.zeros(3)
        r = moment_residual(theta, (np.ones(3), np.ones(3)), PROBIT)
        np.testing.assert_allclose(r, 0.0, atol=1e-15)

    def test_zero_degrees(self):
        theta = ParameterVector.zeros(3)
        r = moment_residual(theta, (np.zeros(3), np.zeros(3)), PROBIT)
        np.testing.assert_allclose(r, -np.ones(5), atol=1e-15)

    def test_matches_brute_force(self):
        theta = random_theta(8, 1.0, 3)
        rng = np.random.default_rng(4)
        z_out = rng.uniform(0, 7, 8)
        z_in = rng.uniform(0, 7, 8)
        r = moment_residual(theta, (z_out, z_in), PROBIT)
        np.testing.assert_allclose(
            r, brute_force_residual(theta, z_out, z_in, PROBIT), atol=1e-12
        )

    def test_zero_at_expected_degrees(self):
        theta = random_theta(12, 0.9, 6)
        r = moment_residual(theta, expected_bidegree(theta, PROBIT), PROBIT)
        np.testing.assert_allclose(r, 0.0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            moment_residual(
                ParameterVector.zeros(4), (np.zeros(3), np.zeros(3)), PROBIT
            )
        with pytest.raises(DomainError, match="must be 1-D and equal length"):
            moment_residual(
                ParameterVector.zeros(4), (np.zeros(4), np.zeros(3)), PROBIT
            )


class TestJacobian:
    def test_uniform_case_entries(self):
        j = jacobian(ParameterVector.zeros(3), PROBIT)
        v = j.matrix
        np.testing.assert_allclose(np.diagonal(v), 2 * PHI0, rtol=1e-12)
        np.testing.assert_allclose(v[0, 4], PHI0, rtol=1e-12)  # cross entry
        assert v[0, 3] == 0.0  # pinned cross diagonal
        np.testing.assert_allclose(j.v_2n_2n, 2 * PHI0, rtol=1e-12)

    def test_symmetric_nonnegative_diagonally_dominant(self):
        for seed in (1, 2, 3):
            v = jacobian(random_theta(9, 1.2, seed), PROBIT).matrix
            np.testing.assert_allclose(v, v.T, atol=1e-14)
            assert np.all(v >= 0)
            off = v.sum(axis=1) - np.diagonal(v)
            assert np.all(np.diagonal(v) >= off - 1e-12)

    @pytest.mark.parametrize("model_name", ["probit", "logit"])
    def test_matches_finite_differences(self, model_name):
        from dpgraph import get_model

        model = get_model(model_name)
        theta = random_theta(6, 1.0, 7)
        free = theta.to_free()
        z = (np.zeros(6), np.zeros(6))
        v = jacobian(theta, model).matrix
        h = 1e-6
        fd = np.zeros_like(v)
        for k in range(11):
            e = np.zeros(11)
            e[k] = h
            rp = moment_residual(ParameterVector.from_free(free + e), z, model)
            rm = moment_residual(ParameterVector.from_free(free - e), z, model)
            fd[:, k] = -(rp - rm) / (2 * h)
        np.testing.assert_allclose(fd, v, rtol=1e-5, atol=1e-9)

    def test_structured_class_membership(self):
        # the six structural conditions of the diagonally dominant block
        # class the moment Jacobian always lives in
        theta = random_theta(10, 1.1, 11)
        n = theta.n
        j = jacobian(theta, PROBIT)
        v = j.matrix
        assert np.array_equal(j.v_diag, np.diagonal(v))
        b = bounds_for(PROBIT, float(np.abs(
            theta.alpha[:, None] + theta.beta[None, :]).max()))
        # 1: row sums of the cross block bracket the boundary entries
        for i in range(n - 1):
            gap = v[i, i] - v[i, n:].sum()
            assert b.m - 1e-12 <= gap <= b.M + 1e-12
        np.testing.assert_allclose(v[n - 1, n - 1], v[n - 1, n:].sum(), rtol=1e-12)
        # 2, 3: both diagonal blocks are diagonal matrices
        assert np.all(v[:n, :n][~np.eye(n, dtype=bool)] == 0)
        assert np.all(v[n:, n:][~np.eye(n - 1, dtype=bool)] == 0)
        # 4: cross entries are symmetric and inside [m, M]
        cross = v[:n, n:]
        np.testing.assert_allclose(cross, v[n:, :n].T, atol=1e-14)
        mask = np.ones_like(cross, dtype=bool)
        mask[np.arange(n - 1), np.arange(n - 1)] = False
        assert np.all(cross[mask] >= b.m - 1e-12)
        assert np.all(cross[mask] <= b.M + 1e-12)
        # 5: pinned cross diagonal
        assert np.all(cross[np.arange(n - 1), np.arange(n - 1)] == 0)
        # 6: in-equation diagonals equal their cross-column sums
        np.testing.assert_allclose(
            np.diagonal(v)[n:], cross.sum(axis=0), rtol=1e-12
        )

    def test_boundary_scalar(self):
        theta = random_theta(7, 1.0, 13)
        j = jacobian(theta, PROBIT)
        n = theta.n
        np.testing.assert_allclose(j.v_2n_2n, j.w[:, n - 1].sum(), rtol=1e-12)


class TestSApprox:
    def test_uniform_closed_form(self):
        j = jacobian(ParameterVector.zeros(3), PROBIT)
        s = build_s_approx(j).materialize()
        # diagonal: 1/v_kk + 1/v_2n2n with v_kk = v_2n2n = 2 phi(0)
        np.testing.assert_allclose(s[0, 0], 1 / (2 * PHI0) + 1 / (2 * PHI0), rtol=1e-12)
        np.testing.assert_allclose(s[0, 0], 2.5066282746, atol=1e-9)
        # cross block carries the negated shared scalar
        np.testing.assert_allclose(s[0, 4], -1 / (2 * PHI0), rtol=1e-12)
        np.testing.assert_allclose(s[0, 1], 1 / (2 * PHI0), rtol=1e-12)

    def test_sign_pattern_and_symmetry(self):
        j = jacobian(random_theta(8, 0.9, 17), PROBIT)
        s = build_s_approx(j).materialize()
        n = j.n
        np.testing.assert_allclose(s, s.T, atol=1e-15)
        assert np.all(s[:n, n:] < 0)
        assert np.all(s[:n, :n] > 0)

    def test_approximates_inverse_with_quadratic_decay(self):
        errs = {}
        for n in (20, 40, 80):
            errs[n] = s_approx_error(jacobian(ParameterVector.zeros(n), PROBIT))
        assert 1 / 8 <= errs[40] / errs[20] <= 1 / 2
        assert 1 / 8 <= errs[80] / errs[40] <= 1 / 2

    def test_product_with_v_near_identity(self):
        gaps = []
        for n in (20, 40, 80):
            j = jacobian(ParameterVector.zeros(n), PROBIT)
            s = build_s_approx(j).materialize()
            gaps.append(np.abs(j.matrix @ s - np.eye(2 * n - 1)).max())
        assert gaps[0] < 0.2 and gaps[1] < gaps[0] and gaps[2] < gaps[1]

    def test_singularity_guard(self):
        theta = ParameterVector(alpha=np.full(4, -40.0), beta=np.zeros(4))
        with pytest.raises(SingularSystemError):
            build_s_approx(jacobian(theta, PROBIT))


class TestPcgSolve:
    @pytest.mark.parametrize("n", [10, 60, 200])
    @pytest.mark.parametrize("model_name", ["probit", "logit"])
    def test_matches_dense_solve(self, model_name, n):
        from dpgraph import get_model

        model = get_model(model_name)
        theta = random_theta(n, 1.0, 300 + n)
        # a Newton right-hand side: the residual at theta of the expected
        # degrees under another parameter vector
        b = moment_residual(theta, expected_bidegree(random_theta(n, 1.0, n), model),
                            model)
        jac = jacobian(theta, model)
        v = jac.matrix
        x, ok = estimator._pcg_block(
            jac.v_diag[None],
            np.array([jac.v_2n_2n]),
            pairs._Pairs([pairs._DensePairs(jac.w[None])]),
            b[None],
        )
        assert ok[0]
        step = x[0]
        # the stopping rule bounds the recursive residual by 1e-12 max|b|;
        # allow the true one a factor 2 for rounding
        tol = 2e-12 * np.abs(b).max()
        assert np.abs(v @ step - b).max() <= tol
        dense = np.linalg.solve(v, b)
        # |step - dense| <= ||V^{-1}||_inf |V step - b|, plus the dense
        # solve's own rounding
        v_inv_norm = np.abs(np.linalg.inv(v)).sum(axis=1).max()
        assert np.abs(step - dense).max() <= v_inv_norm * tol + 1e-14 * np.abs(dense).max()

    def test_finished_rows_are_frozen(self, monkeypatch):
        # row 0 converges before the first product (b = 0) and row 1 later:
        # row 0 stays frozen at 0, and row 1 solves as it would alone, in as
        # many products
        n = 60
        theta = random_theta(n, 1.0, 360)
        b = moment_residual(theta, expected_bidegree(random_theta(n, 1.0, 3), PROBIT),
                            PROBIT)
        jac = jacobian(theta, PROBIT)
        products = pairs._Pairs.products

        def solve(rhs):
            rows, seen = len(rhs), []
            monkeypatch.setattr(pairs._Pairs, "products", lambda self, p, out: (
                seen.append(len(p)), products(self, p, out)))
            op = pairs._Pairs([pairs._DensePairs(np.repeat(jac.w[None], rows, axis=0))])
            x, ok = estimator._pcg_block(np.repeat(jac.v_diag[None], rows, axis=0),
                                         np.full(rows, jac.v_2n_2n), op, rhs)
            return x, ok, seen

        x, ok, seen = solve(np.stack([np.zeros_like(b), b]))
        assert ok.all() and seen
        assert np.array_equal(x[0], np.zeros_like(b))
        x_alone, _, seen_alone = solve(b[None])
        assert np.array_equal(x[1], x_alone[0]) and len(seen) == len(seen_alone)

    def test_row_without_s_is_frozen_beside_a_normal_row(self):
        # row 0's diagonal holds a 0, so S_0 does not exist and its p is
        # non-finite from the start; row 1 must still solve as it would alone
        n = 60
        theta = random_theta(n, 1.0, 360)
        b = moment_residual(theta, expected_bidegree(random_theta(n, 1.0, 3), PROBIT),
                            PROBIT)
        jac = jacobian(theta, PROBIT)
        v_diag = np.stack([jac.v_diag, jac.v_diag])
        v_diag[0, 5] = 0.0

        def solve(diag, rhs):
            op = pairs._Pairs([pairs._DensePairs(np.repeat(jac.w[None], len(rhs), axis=0))])
            return estimator._pcg_block(diag, np.full(len(rhs), jac.v_2n_2n), op, rhs)

        x, ok = solve(v_diag, np.stack([b, b]))
        x_alone, ok_alone = solve(jac.v_diag[None], b[None])
        assert not ok[0] and np.array_equal(x[0], np.zeros_like(b))
        assert ok[1] and ok_alone[0] and np.array_equal(x[1], x_alone[0])

    def test_iteration_cap_reports_singular(self, monkeypatch):
        monkeypatch.setattr(estimator, "_CG_MAX_ITER", 1)
        theta = random_theta(30, 0.75, 7)
        fit = newton_solve(expected_bidegree(theta, PROBIT), PROBIT)
        assert not fit.exists and fit.reason == "singular"
        assert fit.iterations == 1

    def test_fit_path_never_builds_dense_v(self, monkeypatch):
        from dpgraph import ExperimentConfig, JacobianMatrix, run_experiment

        class DenseV(Exception):
            pass

        def refuse(self):
            raise DenseV

        monkeypatch.setattr(JacobianMatrix, "matrix", property(refuse))
        theta = random_theta(50, 0.75, 150)
        fit = newton_solve(expected_bidegree(theta, PROBIT), PROBIT)
        assert fit.exists
        assert np.abs(fit.theta.to_free() - theta.to_free()).max() <= 1e-8
        vi = variance_estimates(fit.theta, PROBIT, PrivacyParams(2.0))
        assert np.all(vi.z_diag > 0)
        res = run_experiment(ExperimentConfig(n=50, reps=1, seed=4))
        assert res.records[0].exists and np.all(np.isfinite(res.values))
        # the diagnostics are the only place dense V is built
        with pytest.raises(DenseV):
            s_approx_error(jacobian(theta, PROBIT))


def box_free(n, half_width, seed, center=0.0):
    """Free coordinates with alpha and beta drawn on [c - H, c + H]."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-half_width, half_width, n) + center
    beta = rng.uniform(-half_width, half_width, n - 1) + center
    return np.concatenate([alpha, beta])


def dense_backend(free, model):
    return pairs._Pairs([pairs._DenseIterate(free[None], (model.mu, model.mu_prime))])


def dense_oracle(free):
    """The sums of one row's dense probit mu, mu' and mu(1-mu) pair
    operators, and the math.fsum row and column sums of each matrix."""
    dense = dense_backend(free, PROBIT)
    sums, exact = [], []
    for op in (dense.mu(), dense.mu_prime(), dense.mu().bernoulli()):
        m = op.stacks[0].m[0]
        sums.append(op.sums())
        exact.append([math.fsum(v) for v in (*m, *m.T)])
    return sums, exact


@functools.lru_cache(maxsize=1)
def flat_oracle_at_n_2000():
    """dense_oracle at theta = 0, n = 2000, taken once for the start
    operator's test and the dense sums' test at half-width 0 (whose
    box_free is all zeros); it keeps only sums, no n x n matrix."""
    return dense_oracle(np.zeros(2 * 2000 - 1))


def compressed_backend(free, model, p):
    """The compressed operator of one row on p nodes, or None when its box
    is too wide for them."""
    n = (free.size + 1) // 2
    ab = np.zeros((1, 2, n))
    ab[0, 0], ab[0, 1, : n - 1] = free[:n], free[n:]
    resolved, stack = pairs._cheb_iterate(ab, (model.mu, model.mu_prime), p)
    return pairs._Pairs([stack]) if resolved[0] else None


def box_half_width(free):
    """The half-width of a row's box, beta_n = 0 included, as the gate of
    the 12-node rung reads it: the larger of its two axes'."""
    n = (free.size + 1) // 2
    return 0.5 * max(np.ptp(free[:n]), np.ptp(np.append(free[n:], 0.0)))


def rung(op):
    """The node count of each stack of an operator, or "dense"."""
    return ["dense" if isinstance(s, pairs._DenseIterate) else s[0].lt.shape[-2]
            for s in op.stacks]


def assert_backends_agree(got, want, n, rng):
    """Sums, Bernoulli sums and cross products of two backends at one row;
    the bound is a few times the compressed path's rounding floor, which
    is about 4e-15 n at n = 2000."""
    tol = 1e-14 * n
    for a, b in zip(got.mu().bernoulli().sums(), want.mu().bernoulli().sums()):
        np.testing.assert_allclose(a, b, rtol=0, atol=tol)
    for which in ("mu", "mu_prime"):
        g, w = getattr(got, which)(), getattr(want, which)()
        for a, b in zip(g.sums(), w.sums()):
            np.testing.assert_allclose(a, b, rtol=0, atol=tol)
        # three right-hand sides share the one-row operator
        p = rng.standard_normal((3, 2 * n - 1))
        qa, qb = np.empty_like(p), np.empty_like(p)
        g.products(p, qa)
        w.products(p, qb)
        np.testing.assert_allclose(qa, qb, rtol=0, atol=tol)


class TestPairOperator:
    """The compressed backend of the pair operator against the dense one."""

    @settings(max_examples=24, deadline=None, database=None, derandomize=True)
    # a logit box that 12 nodes resolve past the gate, a gated logit box at
    # n = 2000, and a box only 32 nodes resolve
    @example(half_width=0.2, n=100, model_name="logit", center=0.0, seed=0)
    @example(half_width=0.17, n=2000, model_name="logit", center=0.0, seed=1)
    @example(half_width=1.5, n=300, model_name="probit", center=0.5, seed=2)
    @given(
        half_width=st.sampled_from([0.05, 0.1, 0.17, 0.2, 1.0, 1.5, 2.2, 3.0]),
        n=st.sampled_from([100, 300, 2000]),
        model_name=st.sampled_from(["probit", "logit"]),
        center=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_compressed_matches_dense(self, half_width, n, model_name, center, seed):
        from dpgraph import get_model

        model = get_model(model_name)
        free = box_free(n, half_width, seed, center)
        dense = dense_backend(free, model)
        rows = {p: compressed_backend(free, model, p) for p in pairs._CHEB_LADDER}
        # 12 nodes resolve mu, mu' and mu(1-mu) on every box their gate lets
        # in here (the probit reach is 0.18 or more at the strength-sum
        # centres within +-0.34 that such a box has), 24 nodes up to
        # half-width 1.0, and 32 up to 1.5; at 3 the trailing coefficients
        # of mu(1-mu) reach 1e-11 to 1e-10 on every rung, so the row is dense
        narrow = box_half_width(free) <= pairs._NARROW_HALF_WIDTH
        if narrow:
            assert rows[12] is not None
        if half_width <= 1.0:
            assert rows[24] is not None
        if half_width <= 1.5:
            assert rows[32] is not None
        if half_width == 3.0:
            assert set(rows.values()) == {None}
        for row in rows.values():
            if row is not None:
                assert_backends_agree(row, dense, n, np.random.default_rng(seed))
        # the operator takes the first rung, within its reach, that resolves
        # the row: only a box inside the gate tries 12 nodes (a logit row at
        # half-width 0.2 resolves on 12 but takes 24)
        reach = [p for p in pairs._CHEB_LADDER if narrow or p != 12]
        first = next((p for p in reach if rows[p] is not None), "dense")
        assert rung(pairs._pairs(free[None], model)) == [first]

    @pytest.mark.parametrize("p", pairs._CHEB_LADDER)
    @pytest.mark.parametrize("which", ["both", "beta"])
    def test_zero_width_box_is_exact(self, which, p):
        n = 300
        free = np.zeros(2 * n - 1)
        if which == "beta":
            # an alpha axis within the rung's reach
            half_width = pairs._NARROW_HALF_WIDTH if p == 12 else 1.0
            free[:n] = np.linspace(-half_width, half_width, n)
        row = compressed_backend(free, PROBIT, p)
        stack = row.mu().stacks[0]
        la, lb = stack.lt[0].swapaxes(-1, -2)
        # a zero-width axis has p coincident nodes, and every point reads
        # the first one
        one_node = np.zeros((n, p))
        one_node[:, 0] = 1.0
        assert np.array_equal(lb, one_node)
        assert np.array_equal(la, one_node) == (which == "both")
        assert_backends_agree(row, dense_backend(free, PROBIT), n,
                              np.random.default_rng(0))

    @pytest.mark.parametrize("p", pairs._CHEB_LADDER)
    def test_mixed_stack_matches_each_axis_alone(self, p):
        # a zero-width axis, an axis with one point on a node and a generic
        # axis, stacked as _cheb_iterate stacks them: each axis's L^T and
        # nodes equal those of the axis built alone, bit for bit
        n = 300
        rng = np.random.default_rng(11)
        x = np.zeros((2, 2, n))
        x[0, 1] = x[1, 0] = rng.uniform(-1.0, 1.0, n)
        x[0, 1, 0], x[0, 1, -1] = -1.0, 1.0
        x[0, 1, 7] = pairs._CHEB[p][0][5]  # node 5 of the box [-1, 1]
        nodes, flat = pairs._cheb_nodes(x, p)
        lt = pairs._barycentric(x, nodes, flat)
        for r, a in np.ndindex(2, 2):
            nodes_alone, flat_alone = pairs._cheb_nodes(x[r, a][None], p)
            lt_alone = pairs._barycentric(x[r, a][None], nodes_alone, flat_alone)
            np.testing.assert_array_equal(lt[r, a], lt_alone[0])
            np.testing.assert_array_equal(nodes[r, a], nodes_alone[0])
        assert np.array_equal(lt[1, 1], np.eye(p)[[0] * n].T)
        np.testing.assert_array_equal(lt[0, 1, :, 7], np.eye(p)[5])
        assert np.all(np.isfinite(lt))

    def test_start_operator_matches_dense_at_n_2000(self):
        # theta = 0: both axes have zero width, so every L^T is one-hot;
        # the sums are checked against math.fsum of the dense rows and
        # columns
        n = 2000
        free = np.zeros(2 * n - 1)
        op = pairs._pairs(free[None], PROBIT)
        assert op.rows is None and isinstance(op.stacks[0][0], pairs._ChebPairs)
        _, exact = flat_oracle_at_n_2000()
        for got, want in zip((op.mu(), op.mu_prime(), op.mu().bernoulli()), exact):
            sides, last = got.sums()
            np.testing.assert_allclose(np.append(sides[0], last), want,
                                       rtol=0, atol=1e-14 * n)
        p = np.random.default_rng(2).standard_normal((3, 2 * n - 1))
        q_got, q_want = np.empty_like(p), np.empty_like(p)
        op.mu_prime().products(p, q_got)
        dense_backend(free, PROBIT).mu_prime().products(p, q_want)
        np.testing.assert_allclose(q_got, q_want, rtol=0, atol=1e-14 * n)

    @pytest.mark.parametrize("p", pairs._CHEB_LADDER)
    def test_strength_on_a_node_gets_a_one_hot_row(self, p):
        # a box within the rung's reach, and two of its nodes
        n = 300
        half_width, node = (0.15, 10) if p == 12 else (1.0, 20)
        free = box_free(n, half_width, 4)
        lo, hi = free[:n].min(), free[:n].max()
        nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * pairs._CHEB[p][0]
        free[7], free[8] = nodes[5], nodes[node]
        row = compressed_backend(free, PROBIT, p)
        la = row.mu().stacks[0].lt[0, 0].T
        assert np.all(np.isfinite(la))
        np.testing.assert_array_equal(la[7], np.eye(p)[5])
        np.testing.assert_array_equal(la[8], np.eye(p)[node])
        assert_backends_agree(row, dense_backend(free, PROBIT), n,
                              np.random.default_rng(1))

    @pytest.mark.parametrize("model_name", ["probit", "logit"])
    def test_too_wide_box_falls_back_to_dense(self, model_name):
        from dpgraph import get_model

        model = get_model(model_name)
        n = 300
        free = box_free(n, 5.0, 2)
        assert all(compressed_backend(free, model, p) is None for p in pairs._CHEB_LADDER)
        op = pairs._pairs(np.stack([free, box_free(n, 0.5, 3)]), model)
        cheb, dense = op.stacks
        assert isinstance(dense, pairs._DenseIterate)
        assert isinstance(cheb[0], pairs._ChebPairs)
        assert [r.tolist() for r in op.rows] == [[1], [0]]

    def test_unresolved_bernoulli_grid_alone_falls_back(self):
        # at half-width 2.5 the probit mu and mu' grids on 32 nodes are
        # resolved, but Phi(1 - Phi) is not, and the variance sums would be
        # off; no rung resolves the row, so it goes dense
        n = 300
        free = box_free(n, 2.5, 6)
        nodes_a, _ = pairs._cheb_nodes(free[None, :n], 32)
        nodes_b, _ = pairs._cheb_nodes(np.append(free[n:], 0.0)[None], 32)
        grid = nodes_a[0, :, None] + nodes_b[0, None, :]
        mu, mu_prime = PROBIT.mu(grid), PROBIT.mu_prime(grid)
        assert pairs._cheb_resolved(mu) and pairs._cheb_resolved(mu_prime)
        assert not pairs._cheb_resolved(mu * (1.0 - mu))
        assert all(compressed_backend(free, PROBIT, p) is None for p in pairs._CHEB_LADDER)
        assert rung(pairs._pairs(free[None], PROBIT)) == ["dense"]

    def test_stacked_rows_of_different_widths_match_dense(self):
        n = 100
        widths = (0.2, 0.8, 1.5, 2.2)
        free = np.stack([box_free(n, h, 10 + k) for k, h in enumerate(widths)])
        op = pairs._pairs(free, PROBIT)
        # the two narrow rows on 24 nodes, the two wider ones on 32
        assert rung(op) == [24, 32] and [r.tolist() for r in op.rows] == [[0, 1], [2, 3]]
        rng = np.random.default_rng(5)
        p = rng.standard_normal((len(widths), 2 * n - 1))
        tol = 1e-14 * n
        bernoulli = op.mu().bernoulli().sums()
        for which in ("mu", "mu_prime"):
            got = getattr(op, which)()
            sums, q = got.sums(), np.empty_like(p)
            got.products(p, q)
            for r in range(len(widths)):
                want = dense_backend(free[r], PROBIT)
                if which == "mu":
                    for a, b in zip(bernoulli, want.mu().bernoulli().sums()):
                        np.testing.assert_allclose(a[r], b[0], rtol=0, atol=tol)
                want = getattr(want, which)()
                for a, b in zip(sums, want.sums()):
                    np.testing.assert_allclose(a[r], b[0], rtol=0, atol=tol)
                qw = np.empty((1, 2 * n - 1))
                want.products(p[r : r + 1], qw)
                np.testing.assert_allclose(q[r], qw[0], rtol=0, atol=tol)

    def test_split_stacks_serve_each_row_as_if_alone(self):
        # rows 0 and 2 are compressed, rows 1 and 3 too wide and dense: each
        # row of the split operator equals its lone operator bit for bit
        n = 100
        widths = (0.5, 5.0, 1.0, 5.0)
        free = np.stack([box_free(n, h, 30 + k) for k, h in enumerate(widths)])
        op = pairs._pairs(free, PROBIT)
        assert [r.tolist() for r in op.rows] == [[0, 2], [1, 3]]
        lone = [pairs._pairs(free[r : r + 1], PROBIT) for r in range(4)]

        def same_row(got, k, alone):
            for a, b in zip(got, alone):
                assert np.array_equal(a[k], b[0])

        p = np.random.default_rng(6).standard_normal((4, 2 * n - 1))
        for which in ("mu", "mu_prime"):
            got = getattr(op, which)()
            q = np.empty_like(p)
            got.products(p, q)
            for r in range(4):
                alone = getattr(lone[r], which)()
                same_row(got.sums(), r, alone.sums())
                qa = np.empty((1, 2 * n - 1))
                alone.products(p[r : r + 1], qa)
                assert np.array_equal(q[r], qa[0])

    def test_one_block_with_every_rung_serves_each_row_as_if_alone(self):
        # row 5 on 12 nodes, rows 1 and 3 on 24, rows 0 and 4 on 32, row 2
        # dense: each row's sums, Bernoulli sums and products equal those of
        # its lone operator bit for bit, and the lone operator takes the
        # same rung
        n = 100
        widths = (1.5, 0.5, 5.0, 1.0, 2.0, 0.1)
        free = np.stack([box_free(n, h, 40 + k) for k, h in enumerate(widths)])
        op = pairs._pairs(free, PROBIT)
        assert rung(op) == [12, 24, 32, "dense"]
        assert [r.tolist() for r in op.rows] == [[5], [1, 3], [0, 4], [2]]
        p = np.random.default_rng(7).standard_normal((6, 2 * n - 1))
        q = {which: np.empty_like(p) for which in ("mu", "mu_prime")}
        for which in q:
            getattr(op, which)().products(p, q[which])
        got = {"mu": op.mu().sums(), "mu_prime": op.mu_prime().sums(),
               "bernoulli": op.mu().bernoulli().sums()}
        for r, stack in ((0, 2), (1, 1), (2, 3), (3, 1), (4, 2), (5, 0)):
            alone = pairs._pairs(free[r : r + 1], PROBIT)
            assert rung(alone) == [rung(op)[stack]]
            want = {"mu": alone.mu().sums(), "mu_prime": alone.mu_prime().sums(),
                    "bernoulli": alone.mu().bernoulli().sums()}
            for key in got:
                for a, b in zip(got[key], want[key]):
                    assert np.array_equal(a[r], b[0])
            for which in q:
                qa = np.empty((1, 2 * n - 1))
                getattr(alone, which)().products(p[r : r + 1], qa)
                assert np.array_equal(q[which][r], qa[0])

    @pytest.mark.parametrize("half_width", [0.0, 1.0])
    def test_dense_sums_match_fsum_at_n_2000(self, half_width):
        # summed down each column one term at a time, the column sums
        # drifted 3.0e-11 from math.fsum at theta = 0
        n = 2000
        free = box_free(n, half_width, 9)
        sums, exact = flat_oracle_at_n_2000() if half_width == 0.0 else dense_oracle(free)
        for (sides, last), want in zip(sums, exact):
            np.testing.assert_allclose(np.append(sides[0], last), want,
                                       rtol=0, atol=1e-14 * n)

    def test_gate_decides_who_tries_12_nodes(self, monkeypatch):
        # the gate reads the larger axis half-width, beta_n = 0 included: a
        # row just inside it tries 12 nodes, a row just past it starts on
        # 24, and an inside row that 12 nodes do not resolve (probit
        # strength sums near -6) climbs to 24
        n = 100
        gate = pairs._NARROW_HALF_WIDTH
        past = np.nextafter(gate, 1.0)
        attempt, calls = pairs._cheb_iterate, []

        def spy(ab, fns, p):
            calls.append((p, len(ab)))
            return attempt(ab, fns, p)

        monkeypatch.setattr(pairs, "_cheb_iterate", spy)
        spread = np.linspace(-1.0, 1.0, n)
        cases = [
            (np.concatenate([gate * spread, np.zeros(n - 1)]), [12]),
            (np.concatenate([past * spread, np.zeros(n - 1)]), [24]),
            # only beta_n = 0 widens the beta axis
            (np.concatenate([np.zeros(n), np.full(n - 1, 2 * gate)]), [12]),
            (np.concatenate([np.zeros(n), np.full(n - 1, 2 * past)]), [24]),
            (np.concatenate([0.15 * spread - 6.0, np.zeros(n - 1)]), [12, 24]),
        ]
        for free, tried in cases:
            calls.clear()
            assert rung(pairs._pairs(free[None], PROBIT)) == tried[-1:]
            assert calls == [(p, 1) for p in tried]
        # rows of one block try the rungs their own boxes reach
        calls.clear()
        op = pairs._pairs(np.stack([free for free, _ in cases]), PROBIT)
        assert rung(op) == [12, 24]
        assert [r.tolist() for r in op.rows] == [[0, 2], [1, 3, 4]]
        assert calls == [(12, 3), (24, 3)]

    def test_block_size_is_set_by_24_nodes(self):
        # the 12-node rung does not change the harness's blocks
        assert [pairs._block_size(n) for n in (64, 100, 200, 1000)] == [54, 40, 23, 5]

    def test_small_n_stays_dense(self):
        n = pairs._DENSE_BELOW - 1
        op = pairs._pairs(np.stack([box_free(n, 0.5, 1)] * 3), PROBIT)
        assert len(op.stacks) == 1
        assert isinstance(op.stacks[0], pairs._DenseIterate)

    def test_oracle_recovery_at_n_2000(self, monkeypatch):
        theta = random_theta(2000, 0.75, 2000)
        z = expected_bidegree(theta, PROBIT)

        def refuse(free):
            raise AssertionError("the fit built a dense n x n array")

        monkeypatch.setattr(pairs, "_strength_sums", refuse)
        fit = newton_solve(z, PROBIT)
        assert fit.exists
        assert np.abs(fit.theta.to_free() - theta.to_free()).max() <= 1e-8
        assert np.all(fit.var_diag > 0)

    def test_anchor_shaped_block_takes_the_compressed_path(self, monkeypatch):
        # a harness block at the anchor cell's shape: n = 100, flat truth,
        # releases at epsilon = 2, 13 rows
        n = 100
        rng = np.random.default_rng(8)
        zout, zin = np.empty((13, n)), np.empty((13, n))
        for r in range(13):
            g = sample_graph(ParameterVector.zeros(n), PROBIT, rng)
            noisy = privatize(degrees(g), 2.0, rng)
            zout[r], zin[r] = noisy.z_out, noisy.z_in

        def refuse(free):
            raise AssertionError("the fit built a dense n x n array")

        monkeypatch.setattr(pairs, "_strength_sums", refuse)
        block = estimator._newton_block(zout, zin, PROBIT, np.zeros(2 * n - 1))
        assert set(block.reason) <= {None, "range"} and None in block.reason

    def test_compressed_block_rows_equal_lone_fits(self):
        n = 200
        # the last truth is narrow enough for 12 nodes
        rows = [expected_bidegree(random_theta(n, scale, seed), PROBIT)
                for scale, seed in ((0.3, 1), (1.0, 2), (0.6, 3), (0.1, 4))]
        zout = np.array([r[0] for r in rows])
        zin = np.array([r[1] for r in rows])
        start = np.zeros(2 * n - 1)
        block = estimator._newton_block(zout, zin, PROBIT, start)
        assert rung(pairs._pairs(block.free[3:], PROBIT)) == [12]
        for k, z in enumerate(rows):
            alone = estimator._newton_block(zout[k : k + 1], zin[k : k + 1], PROBIT,
                                            start)
            fit = newton_solve(z, PROBIT)
            assert block.reason[k] is None and fit.exists
            assert block.iterations[k] == fit.iterations
            assert np.array_equal(block.free[k], fit.theta.to_free())
            assert block.residual_norm[k] == fit.residual_norm
            for got, want in zip(block.sums, alone.sums):
                assert np.array_equal(got[k], want[0])

    @pytest.mark.parametrize("n, lone_iterations", [(40, [3, 5, 7]), (100, [3, 6, 7])],
                             ids=["dense", "compressed"])
    def test_rows_converging_apart_cost_what_their_lone_fits_cost(
        self, monkeypatch, n, lone_iterations
    ):
        # a converged row leaves before the next operator, so it enters no
        # later CG solve or build; it is built once more, with every other
        # converged row, in the final pass.  A row done early within a CG
        # solve still rides along in that solve's products, so the CG work
        # is counted as the rows entering each solve
        work = {}
        build, solve = estimator._pairs, estimator._pcg_block

        def count_builds(free, model):
            work["builds"] += len(free)
            return build(free, model)

        def count_solves(v_diag, v_2n_2n, w, b):
            work["solved"] += len(b)
            return solve(v_diag, v_2n_2n, w, b)

        monkeypatch.setattr(estimator, "_pairs", count_builds)
        monkeypatch.setattr(estimator, "_pcg_block", count_solves)
        rows = [expected_bidegree(random_theta(n, scale, seed), PROBIT)
                for scale, seed in ((0.1, 1), (1.0, 2), (2.0, 3))]
        zout = np.array([r[0] for r in rows])
        zin = np.array([r[1] for r in rows])
        start = np.zeros(2 * n - 1)
        lone = []
        for k in range(3):
            work.update(builds=0, solved=0)
            fit = estimator._newton_block(zout[k : k + 1], zin[k : k + 1], PROBIT, start)
            lone.append((fit, dict(work)))
        work.update(builds=0, solved=0)
        block = estimator._newton_block(zout, zin, PROBIT, start)
        assert [int(fit.iterations[0]) for fit, _ in lone] == lone_iterations
        # the block builds the shared one-row start once, each lone fit once
        assert work["builds"] == sum(w["builds"] for _, w in lone) - 2
        assert work["solved"] == sum(w["solved"] for _, w in lone)
        assert block.reason == [None] * 3
        for k, (fit, _) in enumerate(lone):
            assert np.array_equal(block.free[k], fit.free[0])
            assert block.iterations[k] == fit.iterations[0]
            assert block.residual_norm[k] == fit.residual_norm[0]
            for got, want in zip(block.sums, fit.sums):
                assert np.array_equal(got[k], want[0])

    def test_fit_at_n_20000_stays_in_o_n_memory(self, monkeypatch):
        import tracemalloc

        # a truth with four strength levels, so that the expected degrees
        # are sums over the levels: n x 4 work instead of n x n
        n = 20_000
        levels = np.array([-0.4, 0.0, 0.3, 0.6])
        alpha = levels[np.arange(n) % 4]
        beta = levels[(np.arange(n) + 1) % 4]
        beta[-1] = 0.0
        theta = ParameterVector(alpha=alpha, beta=beta)
        counts = np.array([(beta == b).sum() for b in levels])
        z_out = PROBIT.mu(alpha[:, None] + levels) @ counts - PROBIT.mu(alpha + beta)
        z_in = PROBIT.mu(beta[:, None] + levels) @ np.array(
            [(alpha == a).sum() for a in levels]
        ) - PROBIT.mu(alpha + beta)

        def refuse(free):
            raise AssertionError("the fit built a dense n x n array")

        monkeypatch.setattr(pairs, "_strength_sums", refuse)
        tracemalloc.start()
        try:
            fit = newton_solve((z_out, z_in), PROBIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.exists
        assert np.abs(fit.theta.to_free() - theta.to_free()).max() <= 1e-8
        # one dense n x n float array alone would take 3.2 GB
        assert peak < 64 * 2**20


class TestNewtonSolve:
    def test_recovers_linear_ramp_from_expected_degrees(self):
        theta = linear_ramp_theta(30, 1.0)
        fit = newton_solve(expected_bidegree(theta, PROBIT), PROBIT)
        assert fit.exists
        assert np.abs(fit.theta.to_free() - theta.to_free()).max() <= 1e-8

    @pytest.mark.parametrize("n", [10, 30, 60])
    def test_oracle_recovery_random_instances(self, n):
        theta = random_theta(n, 0.75, 100 + n)
        fit = newton_solve(expected_bidegree(theta, PROBIT), PROBIT)
        assert fit.exists and fit.iterations <= 25
        assert np.abs(fit.theta.to_free() - theta.to_free()).max() <= 1e-8

    def test_zero_degree_is_out_of_range(self):
        n = 100
        z_out = np.full(n, 50.0)
        z_out[0] = 0.0
        fit = newton_solve((z_out, np.full(n, 50.0)), PROBIT)
        assert not fit.exists and fit.reason == "range"

    def test_full_degree_is_out_of_range(self):
        n = 50
        z_in = np.full(n, 20.0)
        z_in[2] = n - 1.0
        fit = newton_solve((np.full(n, 20.0), z_in), PROBIT)
        assert not fit.exists and fit.reason == "range"

    def test_unused_last_in_degree_cannot_block(self):
        # the moment system never consumes the last in-degree, so even a
        # wild value there must not trigger the range rule
        theta = linear_ramp_theta(20, 0.5)
        eo, ei = expected_bidegree(theta, PROBIT)
        ei = ei.copy()
        ei[-1] = -77.0
        fit = newton_solve((eo, ei), PROBIT)
        assert fit.exists

    def test_infeasible_degree_totals_are_out_of_range(self):
        # any solution forces sum(z+) - sum(z-_{1..n-1}) into (0, n-1)
        n = 40
        z_out = np.full(n, 30.0)
        z_in = np.full(n, 2.0)
        fit = newton_solve((z_out, z_in), PROBIT)
        assert not fit.exists and fit.reason == "range"

    def test_iteration_cap_reports_nonexistence(self, monkeypatch):
        monkeypatch.setattr(estimator, "_NEWTON_MAX_ITER", 1)
        theta = linear_ramp_theta(12, 0.8)
        eo, ei = expected_bidegree(theta, PROBIT)
        fit = newton_solve((eo + 0.4, ei + 0.4), PROBIT)
        assert not fit.exists and fit.reason == "max_iter"

    def test_nan_input_is_numerical_failure(self):
        z = np.full(10, 4.0)
        z_bad = z.copy()
        z_bad[3] = np.nan
        with pytest.raises(NumericalFailure):
            newton_solve((z_bad, z), PROBIT)
        with pytest.raises(DomainError, match="need at least 2 nodes"):
            newton_solve((z[:1], z[:1]), PROBIT)
        with pytest.raises(DomainError, match="init has wrong dimension"):
            newton_solve((z, z), PROBIT, init=ParameterVector.zeros(9))

    def test_shift_invariant_initialization(self):
        # moves along the near-null direction (alpha + c, beta - c) leave all
        # strength sums with j < n unchanged; Newton must come back to the
        # same pinned solution from any such start inside its basin
        theta = linear_ramp_theta(15, 0.7)
        z = expected_bidegree(theta, PROBIT)
        base = newton_solve(z, PROBIT).theta.to_free()
        for c in (-1.0, 0.75, 1.0):
            init = ParameterVector(
                alpha=np.full(15, c), beta=np.r_[np.full(14, -c), 0.0]
            )
            fit = newton_solve(z, PROBIT, init=init)
            assert fit.exists
            assert np.abs(fit.theta.to_free() - base).max() <= 1e-6

    def test_far_shifted_start_reports_divergence(self):
        theta = linear_ramp_theta(15, 0.7)
        z = expected_bidegree(theta, PROBIT)
        init = ParameterVector(
            alpha=np.full(15, -2.0), beta=np.r_[np.full(14, 2.0), 0.0]
        )
        fit = newton_solve(z, PROBIT, init=init)
        assert not fit.exists and fit.reason in ("diverged", "singular")

    def test_deterministic(self):
        theta = linear_ramp_theta(10, 0.4)
        z = expected_bidegree(theta, PROBIT)
        a = newton_solve(z, PROBIT)
        b = newton_solve(z, PROBIT)
        np.testing.assert_array_equal(a.theta.to_free(), b.theta.to_free())

    @pytest.mark.parametrize("model_name", ["probit", "logit"])
    def test_fuzz_perturbed_expected_degrees(self, model_name):
        # randomized hammering: expected degrees plus small perturbations
        # must either solve cleanly (tiny residual, modest iterations) or
        # report a classified non-existence; never crash
        from dpgraph import get_model

        model = get_model(model_name)
        rng = np.random.default_rng(2024)
        outcomes = {"exists": 0, "nonexistent": 0}
        for trial in range(60):
            n = int(rng.integers(5, 26))
            theta = random_theta(n, 1.0, int(rng.integers(1 << 30)))
            eo, ei = expected_bidegree(theta, model)
            scale = rng.choice([0.0, 0.05, 0.5])
            z = (eo + rng.normal(0, scale, n), ei + rng.normal(0, scale, n))
            fit = newton_solve(z, model)
            if fit.exists:
                outcomes["exists"] += 1
                assert fit.residual_norm <= 1e-6
                assert fit.iterations <= 50
            else:
                outcomes["nonexistent"] += 1
                assert fit.reason in ("range", "max_iter", "diverged", "singular")
        assert outcomes["exists"] >= 30  # unperturbed cases always solve

    def test_accepts_raw_bidegree(self):
        from dpgraph import BiDegree

        rng = np.random.default_rng(77)
        adj = rng.random((25, 25)) < 0.5
        np.fill_diagonal(adj, False)
        d = BiDegree(out_deg=adj.sum(1), in_deg=adj.sum(0))
        fit = newton_solve(d, PROBIT)
        assert fit.epsilon is None
        if fit.exists:
            resid = moment_residual(fit.theta, d, PROBIT)
            assert np.abs(resid).max() <= 1e-6

    def test_oracle_recovery_logit(self):
        theta = random_theta(20, 0.75, 55)
        fit = newton_solve(expected_bidegree(theta, LOGIT), LOGIT)
        assert fit.exists
        assert np.abs(fit.theta.to_free() - theta.to_free()).max() <= 1e-8

    def test_accepts_noisy_release_and_carries_epsilon(self):
        theta = ParameterVector.zeros(30)
        eo, ei = expected_bidegree(theta, PROBIT)
        z = NoisyBiDegree(
            z_out=np.rint(eo).astype(int),
            z_in=np.rint(ei).astype(int),
            params=PrivacyParams(2.0),
        )
        fit = newton_solve(z, PROBIT)
        assert fit.exists and fit.epsilon == 2.0


class TestConvergenceDiagnostics:
    def test_zero_residual_at_truth(self):
        theta = linear_ramp_theta(20, 0.6)
        d = convergence_diagnostics(
            expected_bidegree(theta, PROBIT), theta, PROBIT, Q=1.2
        )
        assert d.r <= 1e-12 and d.rho_r <= 1e-10 and d.contraction_ok

    def test_lipschitz_constants(self):
        theta = ParameterVector.zeros(100)
        d = convergence_diagnostics(
            expected_bidegree(theta, PROBIT), theta, PROBIT, Q=0.0
        )
        np.testing.assert_allclose(d.K1, 95.8204069096, atol=1e-6)
        np.testing.assert_allclose(d.K2, 47.9102034548, atol=1e-6)

    def test_contraction_factor_closed_form(self):
        # rho = 2(2n-1)(n-1) M^2 eta1 / (m^3 n^2) + 2 eta1 / m, here with
        # m = M = phi(0) and eta1 = phi(1)
        n = 100
        theta = ParameterVector.zeros(n)
        d = convergence_diagnostics(
            expected_bidegree(theta, PROBIT), theta, PROBIT, Q=0.0
        )
        eta1 = 0.24197072451914337
        rho = (
            2 * (2 * n - 1) * (n - 1) * eta1 / (PHI0 * n**2)
            + 2 * eta1 / PHI0
        )
        np.testing.assert_allclose(d.rho, rho, rtol=1e-12)
        np.testing.assert_allclose(d.rho, 3.6029134248, atol=1e-9)

    def test_finite_on_noisy_input(self):
        theta = ParameterVector.zeros(50)
        eo, ei = expected_bidegree(theta, PROBIT)
        d = convergence_diagnostics((eo + 1.0, ei - 1.0), theta, PROBIT, Q=0.0)
        assert np.isfinite(d.r) and np.isfinite(d.rho_r)


class TestVarianceEstimates:
    def test_uniform_closed_form(self):
        n = 100
        vi = variance_estimates(ParameterVector.zeros(n), PROBIT)
        # per-pair variance 1/4, derivative phi(0), all sums over n-1 pairs
        target = ((n - 1) * 0.25) / ((n - 1) * PHI0) ** 2
        np.testing.assert_allclose(vi.z_diag, target, rtol=1e-12)
        np.testing.assert_allclose(vi.z_diag[0], 0.0158666296, atol=1e-9)
        np.testing.assert_allclose(vi.shared_var, target, rtol=1e-12)
        assert vi.privacy_var == 0.0 and vi.s_n_sq == 0.0

    def test_aggregate_noise_variance(self):
        n = 100
        vi = variance_estimates(
            ParameterVector.zeros(n), PROBIT, PrivacyParams(2.0)
        )
        lam = math.exp(-1.0)
        np.testing.assert_allclose(
            vi.s_n_sq, (2 * n - 1) * 2 * lam / (1 - lam) ** 2, rtol=1e-12
        )
        np.testing.assert_allclose(vi.s_n_sq, 366.4280905, atol=1e-6)
        np.testing.assert_allclose(
            vi.privacy_var, vi.s_n_sq / vi.v_2n_2n**2, rtol=1e-12
        )

    def test_singular_guard(self):
        theta = ParameterVector(alpha=np.full(5, -40.0), beta=np.zeros(5))
        with pytest.raises(SingularSystemError):
            variance_estimates(theta, PROBIT)

    @pytest.mark.parametrize("model", [PROBIT, LOGIT], ids=["probit", "logit"])
    @pytest.mark.parametrize("n, scale", [(60, 0.5), (300, 0.5), (2000, 0.1)],
                             ids=["dense", "compressed", "narrow"])
    @pytest.mark.parametrize("release", [True, False], ids=["release", "raw"])
    def test_fit_carries_the_variances_at_its_estimate(self, model, n, scale, release):
        # the fit takes its sums from its last iterate; they must be those
        # of variance_estimates at the returned estimate, bit for bit
        z = expected_bidegree(random_theta(n, scale, n), model)
        privacy = PrivacyParams(2.0) if release else None
        if release:
            z = NoisyBiDegree(np.rint(z[0]), np.rint(z[1]), privacy)
        fit = newton_solve(z, model)
        assert fit.exists
        vi = variance_estimates(fit.theta, model, privacy)
        assert np.array_equal(fit.var_diag, vi.z_diag)
        assert fit.shared_var == vi.shared_var
        assert fit.privacy_var == vi.privacy_var
        assert (fit.privacy_var > 0.0) == release
        if n == 2000:
            # the large-n case: the estimate's box is on 12 nodes
            assert rung(pairs._pairs(fit.theta.to_free()[None], model)) == [12]

    @pytest.mark.parametrize("reason", ["range", "max_iter"])
    def test_nonexistent_fit_carries_no_variances(self, reason, monkeypatch):
        # a fit that does not exist has no estimate to take variances at
        eo, ei = expected_bidegree(linear_ramp_theta(12, 0.8), PROBIT)
        z_out, z_in = np.rint(eo + 0.4), np.rint(ei + 0.4)
        if reason == "range":
            z_out[0] = 0.0
        else:
            monkeypatch.setattr(estimator, "_NEWTON_MAX_ITER", 1)
        z = NoisyBiDegree(z_out, z_in, PrivacyParams(2.0))
        fit = newton_solve(z, PROBIT)
        assert fit.reason == reason
        assert fit.var_diag is None and fit.shared_var is None and fit.privacy_var is None


def _fitted(n=40, seed=19):
    theta = linear_ramp_theta(n, 0.5)
    return theta, newton_solve(expected_bidegree(theta, PROBIT), PROBIT)


class TestStandardizedStats:
    def test_zero_at_truth(self):
        theta, fit = _fitted()
        for kind in ("xi", "zeta", "eta"):
            vals = standardized_stats(fit, theta, [(1, 2), (5, 6)], kind=kind)
            np.testing.assert_allclose(vals, 0.0, atol=1e-6)

    def test_scaling_matches_variance_indices(self):
        theta, fit = _fitted()
        shifted = ParameterVector(
            alpha=theta.alpha + np.eye(theta.n)[0], beta=theta.beta
        )
        val = standardized_stats(fit, shifted, [(1, 2)], kind="xi")[0]
        se = math.sqrt(fit.var_diag[0] + fit.var_diag[1])
        np.testing.assert_allclose(val, -1.0 / se, rtol=1e-6)

    def test_beta_indices_are_offset(self):
        theta, fit = _fitted()
        shifted_beta = theta.beta.copy()
        shifted_beta[0] += 1.0
        shifted = ParameterVector(alpha=theta.alpha, beta=shifted_beta)
        val = standardized_stats(fit, shifted, [(1, 2)], kind="eta")[0]
        se = math.sqrt(fit.var_diag[fit.n] + fit.var_diag[fit.n + 1])
        np.testing.assert_allclose(val, -1.0 / se, rtol=1e-6)

    def test_last_beta_rejected_for_beta_kinds(self):
        theta, fit = _fitted()
        with pytest.raises(DomainError):
            standardized_stats(fit, theta, [(1, fit.n)], kind="zeta")
        with pytest.raises(DomainError):
            standardized_stats(fit, theta, [(fit.n - 1, fit.n)], kind="eta")
        # beyond the nodes, every kind
        for pair in ((0, 2), (1, fit.n + 1)):
            with pytest.raises(DomainError, match=f"out of range for n={fit.n}"):
                standardized_stats(fit, theta, [pair], kind="xi")

    def test_no_pairs_give_no_statistics(self):
        theta, fit = _fitted()
        for kind in ("xi", "zeta", "eta"):
            vals = standardized_stats(fit, theta, [], kind=kind)
            assert vals.shape == (0,) and vals.dtype == float

    def test_truth_of_another_size_rejected(self):
        _, fit = _fitted(n=20)
        truth = linear_ramp_theta(30, 0.5)
        with pytest.raises(DomainError, match="n=30"):
            standardized_stats(fit, truth, [(1, 2)], kind="zeta")

    def test_nonexistent_fit_is_contract_error(self):
        n = 30
        z = np.full(n, 10.0)
        z0 = z.copy()
        z0[0] = 0.0
        bad = newton_solve((z0, z), PROBIT)
        with pytest.raises(NonexistentFitError):
            standardized_stats(bad, ParameterVector.zeros(n), [(1, 2)])

    def test_missing_variance_is_contract_error(self):
        theta = linear_ramp_theta(10, 0.3)
        fit = dataclasses.replace(
            newton_solve(expected_bidegree(theta, PROBIT), PROBIT), var_diag=None
        )
        with pytest.raises(NonexistentFitError):
            standardized_stats(fit, theta, [(1, 2)])

    @pytest.mark.parametrize("pair", [(1.5, 2), (1, 2.0), (True, 2), (1, np.bool_(1))])
    def test_non_integer_pair_rejected(self, pair):
        theta, fit = _fitted()
        with pytest.raises(DomainError, match="integer"):
            standardized_stats(fit, theta, [pair])

    def test_numpy_integer_pair_accepted(self):
        theta, fit = _fitted()
        np.testing.assert_array_equal(
            standardized_stats(fit, theta, [(np.int64(1), np.int32(2))]),
            standardized_stats(fit, theta, [(1, 2)]),
        )


class TestConfidenceInterval:
    def test_uniform_closed_form(self):
        n = 100
        fit = newton_solve(
            expected_bidegree(ParameterVector.zeros(n), PROBIT), PROBIT
        )
        ci = confidence_interval(fit, (1, 2))
        np.testing.assert_allclose(ci.half_length, 0.3491446809, atol=1e-6)
        np.testing.assert_allclose(ci.length, 0.6982893618, atol=1e-6)
        assert abs(ci.half_length - 0.349) <= 0.001
        np.testing.assert_allclose(ci.lo, -ci.hi, atol=1e-9)

    def test_length_shrinks_with_n_at_known_rate(self):
        lengths = {}
        for n in (100, 200):
            fit = newton_solve(
                expected_bidegree(ParameterVector.zeros(n), PROBIT), PROBIT
            )
            lengths[n] = confidence_interval(fit, (1, 2)).length
        np.testing.assert_allclose(
            lengths[200] / lengths[100], math.sqrt(99.0 / 199.0), rtol=1e-6
        )

    def test_covers_iff_statistic_within_quantile(self):
        theta, fit = _fitted(n=30, seed=23)
        rng = np.random.default_rng(3)
        bumped = ParameterVector(
            alpha=theta.alpha + rng.normal(0, 0.2, 30), beta=theta.beta
        )
        for pair in ((1, 2), (7, 29)):
            stat = standardized_stats(fit, bumped, [pair], kind="xi")[0]
            ci = confidence_interval(fit, pair)
            truth = bumped.alpha[pair[0] - 1] - bumped.alpha[pair[1] - 1]
            assert (ci.lo <= truth <= ci.hi) == (abs(stat) <= 1.959963985)

    def test_equal_indices_rejected_for_contrasts(self):
        # alpha_3 - alpha_3 and beta_3 - beta_3 are identically 0;
        # alpha_3 + beta_3 is a genuine parameter
        _, fit = _fitted(n=10)
        for kind in ("xi", "eta"):
            with pytest.raises(DomainError, match="i != j"):
                confidence_interval(fit, (3, 3), kind=kind)
        assert confidence_interval(fit, (3, 3), kind="zeta").length > 0.0

    def test_level_validation(self):
        _, fit = _fitted(n=10)
        with pytest.raises(DomainError):
            confidence_interval(fit, (1, 2), level=1.2)

    @pytest.mark.parametrize("pair", [(1.5, 2), (True, 2), ("1", 2)])
    def test_non_integer_pair_rejected(self, pair):
        _, fit = _fitted(n=10)
        with pytest.raises(DomainError, match="integer"):
            confidence_interval(fit, pair)
        assert confidence_interval(fit, (np.int64(1), 2)) == confidence_interval(fit, (1, 2))

    def test_nonexistent_fit_is_contract_error(self):
        n = 30
        z = np.full(n, 10.0)
        z0 = z.copy()
        z0[0] = 0.0
        bad = newton_solve((z0, z), PROBIT)
        with pytest.raises(NonexistentFitError):
            confidence_interval(bad, (1, 2))
