"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  Every tolerance is fixed here; seeds are frozen so reruns are
bit-identical.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import binom, chi2, kstest, norm

import dpgraph as dg
from dpgraph.simulation import derive_stream_seed, resolve_epsilon

Q975 = 1.959963985


def _report(name: str, clauses: list[tuple[str, bool]], elapsed: float, budget: float):
    clauses = clauses + [(f"runtime {elapsed:.1f}s <= {budget:.0f}s", elapsed <= budget)]
    ok = all(passed for _, passed in clauses)
    detail = " | ".join(f"{text} [{'ok' if passed else 'FAIL'}]" for text, passed in clauses)
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def anchor_run():
    """(eps = 2, n = 100, flat truth): 1000 replications, shared by several
    criteria."""
    cfg = dg.ExperimentConfig(
        n=100, L_spec="zero", eps_spec="fixed:2", reps=1000,
        seed=20260808, pairs=((1, 2),),
    )
    start = time.perf_counter()
    result = dg.run_experiment(cfg)
    return result, time.perf_counter() - start


def test_criterion_1_oracle_recovery():
    start = time.perf_counter()
    clauses = []
    for n in (10, 30, 60):
        rng = np.random.default_rng(1000 + n)
        alpha = rng.uniform(-0.75, 0.75, n)
        beta = rng.uniform(-0.75, 0.75, n)
        beta[-1] = 0.0
        theta = dg.ParameterVector(alpha=alpha, beta=beta)
        fit = dg.newton_solve(dg.expected_bidegree(theta, dg.PROBIT), dg.PROBIT)
        err = float(np.abs(fit.theta.to_free() - theta.to_free()).max())
        clauses.append(
            (f"n={n}: err {err:.2e} <= 1e-8 in {fit.iterations} iters",
             fit.exists and err <= 1e-8 and fit.iterations <= 25)
        )
    _report("criterion 1 (oracle recovery)", clauses, time.perf_counter() - start, 5.0)


def test_criterion_2_discrete_laplace_fidelity():
    start = time.perf_counter()
    params = dg.PrivacyParams(2.0)
    lam = params.lam
    draws = params.sample(np.random.default_rng(42), 10**6)

    target_var = 2 * lam / (1 - lam) ** 2
    rel = abs(float(draws.var()) - target_var) / target_var

    k = 0
    while draws.size * lam ** (k + 1) / (1 + lam) >= 10:
        k += 1
    xs = np.arange(-k, k + 1)
    expected = params.pmf(xs) * draws.size
    tail = draws.size * lam ** (k + 1) / (1 + lam)
    expected = np.concatenate([[tail], expected, [tail]])
    counts = np.concatenate(
        [[np.sum(draws < -k)], [np.sum(draws == x) for x in xs], [np.sum(draws > k)]]
    )
    stat = float(((counts - expected) ** 2 / expected).sum())
    crit = float(chi2.ppf(0.999, expected.size - 1))

    _report(
        "criterion 2 (noise law fidelity)",
        [
            (f"chi2 {stat:.1f} < {crit:.1f} at sig 0.001", stat < crit),
            (f"variance rel err {rel:.4f} < 0.01 (target {target_var:.4f})", rel < 0.01),
        ],
        time.perf_counter() - start,
        5.0,
    )


def _range_probability(theta: dg.ParameterVector, lam: float) -> float:
    """Exact probability that the implied last in-degree falls outside
    (0, n-1): node n's true in-degree (Poisson-binomial with terms
    Phi(alpha_k + beta_n), k != n) plus 2n-1 independent discrete Laplace
    draws.  The noise pmf is built here in closed form, truncated at
    |k| <= K with dropped mass below 1e-20 per draw."""
    n = theta.n
    K = math.ceil(math.log(1e-20) / math.log(lam))
    step = (1 - lam) / (1 + lam) * lam ** np.abs(np.arange(-K, K + 1))
    law = np.ones(1)
    for _ in range(2 * n - 1):
        law = np.convolve(law, step)
    for q in norm.cdf(theta.alpha[:-1] + theta.beta[-1]):
        law = np.convolve(law, [1 - q, q])
    values = np.arange(law.size) - (2 * n - 1) * K
    return float(law[(values <= 0) | (values >= n - 1)].sum())


def test_criterion_3_anchor_cell(anchor_run):
    result, elapsed = anchor_run
    start = time.perf_counter()
    cfg = result.cfg
    coverage, half_length = result.coverage[0], result.ci_length[0] / 2
    # Summing the moment equations shows any solution needs the implied last
    # in-degree sum(z+) - sum(z-_{1..n-1}) in (0, n-1).  That value is node
    # n's true in-degree plus 2n-1 discrete Laplace draws, so it leaves the
    # range ("range" non-existence) with probability p > 0 at finite n; the
    # used degrees' own range events add under 1e-13 here.  Any other reason
    # would mean the solver gave up on data that admit a solution.
    reasons = [rec.reason for rec in result.records if not rec.exists]
    n_range = reasons.count("range")
    n_other = len(reasons) - n_range
    lam = math.exp(-resolve_epsilon(cfg.eps_spec, cfg.n) / 2)
    p = _range_probability(dg.make_true_params(cfg.n, cfg.L_spec), lam)
    lo, hi = (int(b) for b in binom.interval(0.999, cfg.reps, p))
    _report(
        "criterion 3 (anchor cell)",
        [
            (f"coverage {coverage:.4f} in [0.92, 0.96]",
             0.92 <= coverage <= 0.96),
            (f"non-range nonexist {n_other} == 0", n_other == 0),
            (f"range nonexist {n_range} in [{lo}, {hi}] (p {p:.4f}, {cfg.reps} reps)",
             lo <= n_range <= hi),
            (f"half length {half_length:.4f} within 0.03 of 0.349",
             abs(half_length - 0.349) <= 0.03),
        ],
        elapsed + time.perf_counter() - start,
        300.0,
    )


def test_criterion_4_privacy_degradation():
    start = time.perf_counter()
    flat = dg.ExperimentConfig(
        n=100, L_spec="zero", eps_spec="logn_n12", reps=1000,
        seed=20260808, pairs=((1, 2),),
    )
    cov = dg.run_experiment(flat).coverage[0]
    ramp = dg.ExperimentConfig(
        n=100, L_spec="sqrtlogn", eps_spec="logn_n12", reps=1000,
        seed=20260809, pairs=((1, 2),),
    )
    nonexist = dg.run_experiment(ramp).nonexist_freq
    _report(
        "criterion 4 (privacy degradation)",
        [
            (f"coverage {cov:.4f} <= 0.85 at eps=log n/sqrt n", cov <= 0.85),
            (f"nonexist {nonexist:.4f} >= 0.70 on the steep ramp", nonexist >= 0.70),
        ],
        time.perf_counter() - start,
        300.0,
    )


def test_criterion_5_normality():
    start = time.perf_counter()
    strong = dg.ExperimentConfig(
        n=100, L_spec="zero", eps_spec="fixed:2", reps=2000,
        seed=7, pairs=((1, 2),),
    )
    vals_strong = dg.run_experiment(strong).stat_values((1, 2))
    weak = dg.ExperimentConfig(
        n=100, L_spec="zero", eps_spec="logn_n12", reps=2000,
        seed=7, pairs=((1, 2),),
    )
    vals_weak = dg.run_experiment(weak).stat_values((1, 2))
    p_strong = float(kstest(vals_strong, "norm").pvalue)
    p_weak = float(kstest(vals_weak, "norm").pvalue)
    _report(
        "criterion 5 (normality)",
        [
            (f"KS p={p_strong:.4f} >= 0.01 at eps=2 ({vals_strong.size} stats)",
             p_strong >= 0.01),
            (f"KS p={p_weak:.2e} < 0.01 at eps=log n/sqrt n ({vals_weak.size} stats)",
             p_weak < 0.01),
        ],
        time.perf_counter() - start,
        600.0,
    )


def test_criterion_6_deviation_bound(anchor_run):
    result, elapsed = anchor_run
    freq = result.deviation_ok_freq
    _report(
        "criterion 6 (release deviation bound)",
        [(f"bound held in {freq:.4f} >= 0.99 of 1000 releases", freq >= 0.99)],
        elapsed,
        60.0,
    )


def test_criterion_7_inverse_approximation_decay():
    start = time.perf_counter()
    errs = {
        n: dg.s_approx_error(dg.jacobian(dg.ParameterVector.zeros(n), dg.PROBIT))
        for n in (20, 40, 80)
    }
    r1 = errs[40] / errs[20]
    r2 = errs[80] / errs[40]
    _report(
        "criterion 7 (approximate-inverse decay)",
        [
            (f"err(40)/err(20) = {r1:.3f} in [1/8, 1/2]", 0.125 <= r1 <= 0.5),
            (f"err(80)/err(40) = {r2:.3f} in [1/8, 1/2]", 0.125 <= r2 <= 0.5),
        ],
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_8_consistency_scaling():
    start = time.perf_counter()

    def median_sup_error(n: int) -> float:
        theta = dg.make_true_params(n, "zero")
        errs = []
        for rep in range(50):
            rng = np.random.default_rng(derive_stream_seed(99, rep))
            graph = dg.sample_graph(theta, dg.PROBIT, rng)
            z = dg.privatize(dg.degrees(graph), 2.0, rng)
            fit = dg.newton_solve(z, dg.PROBIT)
            if fit.exists:
                errs.append(
                    float(np.abs(fit.theta.to_free() - theta.to_free()).max())
                )
        return float(np.median(errs))

    ratio = median_sup_error(100) / median_sup_error(400)
    _report(
        "criterion 8 (consistency scaling)",
        [(f"median sup-error ratio 100->400 = {ratio:.3f} in [1.5, 3.0]",
          1.5 <= ratio <= 3.0)],
        time.perf_counter() - start,
        300.0,
    )
