"""Replication harness: determinism, aggregation, schedules, QQ export."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from dpgraph import (
    PROBIT,
    DomainError,
    ExperimentConfig,
    ExperimentResult,
    ParameterVector,
    RepRecord,
    VarianceInputs,
    build_s_approx,
    confidence_interval,
    default_pairs,
    degrees,
    derive_stream_seed,
    expected_bidegree,
    get_model,
    jacobian,
    make_true_params,
    newton_solve,
    privatize,
    qq_export,
    run_experiment,
    run_replication,
    sample_graph,
    standardized_stats,
    variance_estimates,
)
from dpgraph import estimator, pairs, simulation
from dpgraph.cli import main
from dpgraph.simulation import qq_csv, resolve_L, resolve_epsilon


class TestTrueParams:
    def test_zero(self):
        theta = make_true_params(100, "zero")
        assert np.all(theta.alpha == 0) and np.all(theta.beta == 0)

    def test_loglog_ramp(self):
        theta = make_true_params(100, "loglogn")
        np.testing.assert_allclose(theta.alpha[0], 1.5271796258, atol=1e-9)
        assert theta.alpha[-1] == 0.0
        np.testing.assert_allclose(theta.beta[:-1], theta.alpha[:-1], rtol=0)
        assert theta.beta[-1] == 0.0
        steps = np.diff(theta.alpha)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)

    def test_sqrtlog_height(self):
        theta = make_true_params(100, "sqrtlogn")
        np.testing.assert_allclose(theta.alpha[0], 2.1459660263, atol=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            make_true_params(1, "zero")
        with pytest.raises(DomainError):
            make_true_params(100, "linear")


class TestSchedules:
    def test_epsilon_values(self):
        assert resolve_epsilon("fixed:2", 100) == 2.0
        np.testing.assert_allclose(
            resolve_epsilon("logn_n12", 100), 0.4605170186, atol=1e-9
        )
        np.testing.assert_allclose(
            resolve_epsilon("logn_n14", 100), 1.4562826800, atol=1e-9
        )

    def test_bad_tokens_list_choices(self):
        with pytest.raises(DomainError, match="logn_n14"):
            resolve_epsilon("annual", 100)
        with pytest.raises(DomainError, match="sqrtlogn"):
            resolve_L("big", 100)
        with pytest.raises(DomainError):
            resolve_epsilon("fixed:-1", 100)
        with pytest.raises(DomainError, match="bad fixed epsilon in 'fixed:abc'"):
            resolve_epsilon("fixed:abc", 100)

    def test_default_pairs(self):
        assert default_pairs(100) == ((1, 2), (50, 51), (99, 100))

    def test_default_pairs_for_beta_kinds(self):
        # beta_n is pinned, so zeta and eta take (n-2, n-1) as the last pair
        assert default_pairs(100, ("xi", "eta")) == ((1, 2), (50, 51), (98, 99))
        assert default_pairs(4, ("zeta",)) == ((1, 2), (2, 3))


class TestStreamDerivation:
    def test_deterministic_and_distinct(self):
        seeds = {derive_stream_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_stream_seed(7, 3) == derive_stream_seed(7, 3)
        assert derive_stream_seed(7, 3) != derive_stream_seed(8, 3)

    def test_frozen_values(self):
        # the mixing function is part of the reproducibility contract;
        # these pins keep refactors from silently changing every stream
        assert derive_stream_seed(0, 0) == 12035550249420947055
        assert derive_stream_seed(7, 3) == 16753576447339095367
        assert derive_stream_seed(20260808, 999) == 10111414338463410037


class TestRunReplication:
    CFG = dict(n=50, L_spec="zero", eps_spec="fixed:2", reps=4, seed=99)

    def test_bit_reproducible(self):
        cfg = ExperimentConfig(**self.CFG)
        a = run_replication(cfg, 2)
        b = run_replication(cfg, 2)
        assert a == b

    def test_uses_scheduled_epsilon(self, monkeypatch):
        used = []

        def spy(bidegree, epsilon, rng):
            used.append(epsilon)
            return privatize(bidegree, epsilon, rng)

        monkeypatch.setattr(simulation, "privatize", spy)
        cfg = ExperimentConfig(n=100, L_spec="zero", eps_spec="logn_n12",
                               reps=1, seed=0)
        run_replication(cfg, 0)
        np.testing.assert_allclose(used, [0.4605170186], atol=1e-9)

    def test_records_statistics_for_each_pair_and_kind(self):
        cfg = ExperimentConfig(
            n=30, L_spec="zero", eps_spec="fixed:4", reps=1, seed=5,
            pairs=((1, 2), (3, 4)), stat_kinds=("xi", "zeta"),
        )
        res = run_experiment(cfg)
        assert res.records == (run_replication(cfg, 0),) and res.records[0].exists
        assert res.columns == ((1, 2, "xi"), (3, 4, "xi"), (1, 2, "zeta"), (3, 4, "zeta"))
        assert res.values.shape == res.lengths.shape == (1, 4)
        assert np.all(np.isfinite(res.values)) and np.all(res.lengths > 0)


class TestRunExperiment:
    def test_single_rep_equals_aggregation_identity(self):
        cfg = ExperimentConfig(n=30, L_spec="zero", eps_spec="fixed:2",
                               reps=1, seed=11, pairs=((1, 2),))
        res = run_experiment(cfg)
        rec = res.records[0]
        if rec.exists:
            assert res.coverage[0] == float(abs(res.values[0, 0]) <= ndtri(0.975))
            np.testing.assert_allclose(res.ci_length[0], res.lengths[0, 0])
        assert len(res.records) == res.cfg.reps == 1

    def test_parallel_matches_serial(self):
        cfg = ExperimentConfig(n=24, L_spec="zero", eps_spec="fixed:2",
                               reps=8, seed=3, pairs=((1, 2),))
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        assert serial.records == parallel.records
        assert serial.to_csv() == parallel.to_csv()
        assert np.array_equal(serial.values, parallel.values, equal_nan=True)
        assert np.array_equal(serial.lengths, parallel.lengths, equal_nan=True)

    def test_worker_count_capped_by_cpus_and_blocks(self, monkeypatch):
        # a fake pool records its size and maps serially: a huge worker count
        # must never ask for more processes than CPUs or blocks
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: 4)
        kw = dict(n=24, L_spec="zero", eps_spec="fixed:2", seed=3, pairs=((1, 2),))
        cfg = ExperimentConfig(reps=3, **kw)
        serial = run_experiment(cfg, workers=1)
        capped = run_experiment(cfg, workers=10**6)
        assert sizes == [3]  # 4 CPUs, but only 3 blocks of one rep
        assert serial.records == capped.records
        assert serial.to_csv() == capped.to_csv()
        assert np.array_equal(serial.values, capped.values, equal_nan=True)
        assert np.array_equal(serial.lengths, capped.lengths, equal_nan=True)
        sizes.clear()
        run_experiment(ExperimentConfig(reps=8, **kw), workers=10**6)
        assert sizes == [4]  # 4 blocks of two reps, one per CPU

    def test_values_are_nan_exactly_where_no_estimate_exists(self):
        res = run_experiment(ExperimentConfig(**MIXED))
        exists = np.array([r.exists for r in res.records])
        assert 0 < exists.sum() < len(exists)
        for stats in (res.values, res.lengths):
            assert np.array_equal(np.isnan(stats).all(axis=1), ~exists)
            assert np.array_equal(np.isnan(stats).any(axis=1), ~exists)

    def test_stat_values_select_one_column_over_existing_reps(self):
        res = run_experiment(ExperimentConfig(**MIXED))
        exists = [r.exists for r in res.records]
        got = res.stat_values([3, 4], kind="zeta")
        assert np.array_equal(got, res.values[exists, res.columns.index((3, 4, "zeta"))])
        assert got.size == sum(exists) and np.all(np.isfinite(got))
        for pair, kind in (((5, 6), "xi"), ((1, 2), "tau")):
            with pytest.raises(DomainError, match="no"):
                res.stat_values(pair, kind=kind)

    def test_stat_values_takes_integer_pairs_only(self):
        res = run_experiment(ExperimentConfig(**MIXED))
        np.testing.assert_array_equal(res.stat_values((np.int64(1), 2)), res.stat_values((1, 2)))
        for pair in ((1.0, 2.0), (True, 2)):
            with pytest.raises(DomainError, match="integer node indices"):
                res.stat_values(pair)

    def test_seeded_runs_give_equal_reports(self):
        # the wall time differs between runs and takes no part in the table
        cfg = ExperimentConfig(n=20, L_spec="zero", eps_spec="fixed:2",
                               reps=3, seed=4, pairs=((1, 2),))
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert a.records == b.records and a.to_csv() == b.to_csv()
        assert a.deviation_ok_freq == b.deviation_ok_freq

    def test_coverage_counts_only_existing_fits(self):
        # epsilon small enough that many replications have no estimate
        cfg = ExperimentConfig(n=100, L_spec="sqrtlogn", eps_spec="logn_n12",
                               reps=20, seed=21, pairs=((1, 2),))
        res = run_experiment(cfg)
        n_exist = sum(r.exists for r in res.records)
        assert res.nonexist_freq == (20 - n_exist) / 20
        if n_exist == 0:
            assert math.isnan(res.coverage[0])

    def test_csv_shape(self):
        cfg = ExperimentConfig(n=20, L_spec="zero", eps_spec="fixed:2",
                               reps=2, seed=1, stat_kinds=("xi", "eta"),
                               pairs=((1, 2), (5, 6)))
        csv = run_experiment(cfg).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0].startswith("n,L_spec,eps_spec,pair_i")
        assert len(lines) == 1 + 4  # header + kinds x pairs

    def test_coverage_degrades_as_privacy_tightens(self):
        base = ExperimentConfig(n=100, L_spec="zero", eps_spec="fixed:2",
                                reps=300, seed=31, pairs=((1, 2),))
        tight = ExperimentConfig(n=100, L_spec="zero", eps_spec="logn_n12",
                                 reps=300, seed=31, pairs=((1, 2),))
        cov_base = run_experiment(base).coverage[0]
        cov_tight = run_experiment(tight).coverage[0]
        assert cov_base >= cov_tight - 0.02

    def test_all_statistic_kinds_cover_at_easy_settings(self):
        # generous privacy budget, flat truth: every contrast kind should
        # reach near-nominal coverage, exercising the full variance indexing
        cfg = ExperimentConfig(
            n=60, L_spec="zero", eps_spec="fixed:6", reps=200, seed=61,
            pairs=((1, 2), (30, 31)), stat_kinds=("xi", "zeta", "eta"),
        )
        res = run_experiment(cfg)
        assert res.nonexist_freq <= 0.05
        for column, coverage in zip(res.columns, res.coverage):
            assert coverage >= 0.85, (column, coverage)

    def test_logit_model_harness_path(self):
        cfg = ExperimentConfig(n=40, L_spec="zero", eps_spec="fixed:6",
                               reps=50, seed=13, pairs=((1, 2),),
                               model="logit")
        res = run_experiment(cfg)
        assert res.nonexist_freq <= 0.2
        assert res.coverage[0] >= 0.8

    def test_interval_length_decreases_with_n(self):
        small = ExperimentConfig(n=100, L_spec="zero", eps_spec="fixed:2",
                                 reps=60, seed=41, pairs=((1, 2),))
        large = ExperimentConfig(n=200, L_spec="zero", eps_spec="fixed:2",
                                 reps=60, seed=41, pairs=((1, 2),))
        len_small = run_experiment(small).ci_length[0]
        len_large = run_experiment(large).ci_length[0]
        assert len_large < len_small


@pytest.mark.parametrize("eps_spec", ["fixed:2", "logn_n14", "logn_n12"])
@pytest.mark.parametrize("L_spec", ["loglogn", "sqrtlogn"])
@pytest.mark.parametrize("model", ["probit", "logit"])
def test_ramp_grid_nonexistence_is_range(model, L_spec, eps_spec):
    # Across the ramp grid at n = 100 every replication without an estimate
    # must be a "range" one: another reason would mean Newton gave up on
    # data that may admit a solution.  Under probit the ramps push the top
    # degrees to n - 1, so every replication is "range" before any fit;
    # under logit at eps = 2 some replications fit (93 and 32 of 100 at
    # loglogn and sqrtlogn), so Newton does run.  One seed (3), chosen
    # once for the whole grid.
    cfg = ExperimentConfig(n=100, L_spec=L_spec, eps_spec=eps_spec, reps=100,
                           seed=3, model=model)
    reasons = [rec.reason for rec in run_experiment(cfg).records]
    assert set(reasons) <= {None, "range"}
    if model == "logit" and eps_spec == "fixed:2":
        assert reasons.count(None) > 0


def test_nonexist_freq_is_correctly_rounded():
    # 1.0 - 4 / 5 would read 0.19999999999999996
    cfg = ExperimentConfig(n=10, reps=5, pairs=((1, 2),))
    records = tuple(RepRecord(k, "range" if k == 2 else None, 3, True) for k in range(5))
    res = ExperimentResult(cfg, records, np.zeros((5, 1)), np.ones((5, 1)), 0.0)
    assert res.nonexist_freq == 0.2
    assert res.to_csv().splitlines()[1].split(",")[9] == "0.2"


def test_array_holding_types_compare_by_identity():
    # a generated == would compare their arrays and raise
    theta = make_true_params(30, "loglogn")
    rng = np.random.default_rng(2)
    graph = sample_graph(theta, PROBIT, rng)
    release = privatize(degrees(graph), 2.0, rng)
    fit = newton_solve(release, PROBIT)
    v = jacobian(theta, PROBIT)
    block = estimator._newton_block(
        release.z_out[None] * 1.0, release.z_in[None] * 1.0, PROBIT, np.zeros(59)
    )
    cfg = ExperimentConfig(n=10, reps=2, seed=1, pairs=((1, 2),))
    values = (
        graph, degrees(graph), theta, release, v, build_s_approx(v), fit, block,
        VarianceInputs(*block.sums, None), run_experiment(cfg),
    )
    for value in values:
        twin = copy.copy(value)
        assert value == value and twin != value
        assert len({value, twin, value}) == 2
    # the scalar-only value types keep their field-wise ==
    assert ExperimentConfig(n=10) == ExperimentConfig(n=10)
    assert fit.theta.n == v.n == 30


class TestConfigValidation:
    def test_pairs_must_fit_kinds(self):
        with pytest.raises(DomainError):
            ExperimentConfig(n=20, pairs=((19, 20),), stat_kinds=("eta",))

    def test_rejects_bad_kind(self):
        with pytest.raises(DomainError):
            ExperimentConfig(n=20, stat_kinds=("tau",))

    @pytest.mark.parametrize("spec, message", [
        ("fixed:inf", "finite positive"), ("fixed:1e-300", "rounds to 1"),
    ], ids=["inf", "lambda-one"])
    def test_epsilon_without_a_noise_law_fails_at_construction(self, spec, message):
        # resolve_epsilon accepts both; the release law at them does not
        # exist, and the config must say so before any block draws a graph
        with pytest.raises(DomainError, match=message):
            ExperimentConfig(n=100, eps_spec=spec)

    def test_equal_indices_rejected_for_contrasts(self):
        for kind in ("xi", "eta"):
            with pytest.raises(DomainError, match="i != j"):
                ExperimentConfig(n=10, pairs=((3, 3),), stat_kinds=(kind,))
        ExperimentConfig(n=10, pairs=((3, 3),), stat_kinds=("zeta",))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(DomainError, match="seed"):
            ExperimentConfig(n=10, seed=seed)

    def test_rejects_tiny_n(self):
        with pytest.raises(DomainError):
            ExperimentConfig(n=3)
        with pytest.raises(DomainError, match="reps must be >= 1"):
            ExperimentConfig(n=10, reps=0)
        with pytest.raises(DomainError, match="at least one pair"):
            ExperimentConfig(n=10, pairs=())

    @pytest.mark.parametrize("pair", [(1.5, 2), (True, 2), (1, 2.0)])
    def test_rejects_non_integer_pairs(self, pair):
        with pytest.raises(DomainError, match="integer"):
            ExperimentConfig(n=10, reps=2, seed=1, pairs=(pair,))

    @pytest.mark.parametrize("pairs", [((1, 2), (1, 2)), ((1, 2), (3, 4), (1, 2)),
                                       ((np.int64(1), 2), (1, 2))])
    def test_rejects_repeated_pair(self, pairs):
        with pytest.raises(DomainError, match=r"probe pair \(1, 2\) is repeated"):
            ExperimentConfig(n=10, reps=3, pairs=pairs)

    @pytest.mark.parametrize("kinds", [("xi", "xi"), ("xi", "zeta", "xi")])
    def test_rejects_repeated_kind(self, kinds):
        with pytest.raises(DomainError, match="statistic kind 'xi' is repeated"):
            ExperimentConfig(n=10, reps=3, pairs=((1, 2),), stat_kinds=kinds)


# n = 24 at eps = 1.5 mixes fits with `range` non-existence (22 of the
# first 60 replications at seed 8)
MIXED = dict(n=24, L_spec="zero", eps_spec="fixed:1.5", reps=70, seed=8,
             pairs=((1, 2), (3, 4)), stat_kinds=("xi", "zeta", "eta"))
MIXED_ARGS = ["simulate", "--n", "24", "--eps", "fixed:1.5", "--reps", "70",
              "--seed", "8", "--pairs", "1,2", "--pairs", "3,4",
              "--stats", "xi,zeta,eta"]
# the anchor cell's shape, n = 100, which the compressed backend fits
ANCHOR_ARGS = ["simulate", "--n", "100", "--eps", "fixed:2", "--reps", "30",
               "--seed", "11", "--pairs", "1,2", "--pairs", "50,51",
               "--stats", "xi,zeta,eta"]

# eps = log n / sqrt n on the steep ramp: none of the 20 fits exists
NONE_EXIST = dict(n=100, L_spec="sqrtlogn", eps_spec="logn_n12", reps=20, seed=21)


class TestCoverageTable:
    """The coverage table derived by ExperimentResult, against a tally made
    here from its records, statistics, interval lengths and config."""

    @pytest.mark.parametrize("kw", [MIXED, NONE_EXIST], ids=["mixed", "none_exist"])
    def test_csv_fields_match_a_fresh_tally(self, kw):
        res = run_experiment(ExperimentConfig(**kw))
        cfg = res.cfg
        kept = [row for row, rec in enumerate(res.records) if rec.exists]
        if kw is MIXED:
            assert 0 < len(kept) < cfg.reps
        else:
            assert not kept
        nonexist = 1.0 - len(kept) / cfg.reps
        columns = [(i, j, kind) for kind in cfg.stat_kinds for i, j in cfg.pairs]
        lines = res.to_csv().splitlines()
        assert lines[0] == ("n,L_spec,eps_spec,pair_i,pair_j,stat_kind,coverage,"
                            "ci_length_full,ci_length_half,nonexist_freq,reps")
        assert len(lines) == 1 + len(columns)
        for col, ((i, j, kind), line) in enumerate(zip(columns, lines[1:])):
            fields = line.split(",")
            assert fields[:6] == [str(cfg.n), cfg.L_spec, cfg.eps_spec, str(i), str(j), kind]
            assert fields[9:] == [repr(nonexist), str(cfg.reps)]
            coverage, full, half = (float(f) for f in fields[6:9])
            if not kept:
                assert fields[6:9] == ["nan"] * 3
                continue
            covered = sum(abs(res.values[row, col]) <= ndtri(0.975) for row in kept)
            assert coverage == covered / len(kept)
            mean_length = sum(res.lengths[row, col] for row in kept) / len(kept)
            assert full == pytest.approx(mean_length, rel=1e-12)
            assert half == full / 2
        assert res.nonexist_freq == nonexist
        np.testing.assert_array_equal(res.coverage, [float(line.split(",")[6])
                                                     for line in lines[1:]])


def _theta(n, scale, seed):
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-scale, scale, n)
    beta = rng.uniform(-scale, scale, n)
    beta[-1] = 0.0
    return ParameterVector(alpha=alpha, beta=beta)


class TestBlockInvariance:
    """Replications are fitted in stacked blocks; no replication's output may
    depend on the block size, on its block-mates or on the worker count."""

    def _outputs(self, tmp_path, monkeypatch, tag, block, workers, args=MIXED_ARGS):
        monkeypatch.setattr(simulation, "_block_size", lambda n: block)
        monkeypatch.setenv("DPGRAPH_THREADS", str(workers))
        out, dump = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.stats"
        assert main(args + ["--out", str(out), "--dump-stats", str(dump)]) == 0
        return out.read_bytes(), dump.read_bytes()

    def test_block_size_and_workers_do_not_change_outputs(self, tmp_path, monkeypatch):
        first = self._outputs(tmp_path, monkeypatch, "b1", 1, 1)
        assert first == self._outputs(tmp_path, monkeypatch, "b64", 64, 1)
        assert first == self._outputs(tmp_path, monkeypatch, "b8w2", 8, 2)

    def test_compressed_cell_ignores_block_size_and_workers(self, tmp_path, monkeypatch):
        assert pairs._DENSE_BELOW <= 100
        default = simulation._block_size(100)
        first = self._outputs(tmp_path, monkeypatch, "c1", 1, 1, ANCHOR_ARGS)
        for tag, block, workers in (("c13", 13, 1), ("c64", 64, 1), ("c13w2", 13, 2),
                                    ("cdef", default, 1), ("cdefw2", default, 2)):
            assert first == self._outputs(tmp_path, monkeypatch, tag, block, workers,
                                          ANCHOR_ARGS)

    def test_wide_rows_in_several_dense_stacks(self, tmp_path, monkeypatch):
        # with no tail allowed every row's box counts as too wide, so the
        # anchor rows go dense, in stacks of 2^17 // n^2 = 13 rows at n = 100
        monkeypatch.setattr(pairs, "_CHEB_TAIL", 0.0)
        dense_stacks = []
        build = estimator._pairs

        def spy(free, model):
            op = build(free, model)
            dense = [s for s in op.stacks if isinstance(s, pairs._DenseIterate)]
            dense_stacks.append(len(dense))
            return op

        monkeypatch.setattr(estimator, "_pairs", spy)
        first = self._outputs(tmp_path, monkeypatch, "w1", 1, 1, ANCHOR_ARGS)
        assert max(dense_stacks) == 1
        dense_stacks.clear()
        assert first == self._outputs(tmp_path, monkeypatch, "w30", 30, 1, ANCHOR_ARGS)
        assert max(dense_stacks) == 3

    def test_each_replication_matches_a_lone_fit(self, monkeypatch):
        cfg = ExperimentConfig(**MIXED)
        monkeypatch.setattr(simulation, "_block_size", lambda n: 32)
        res = run_experiment(cfg)
        theta_star = make_true_params(cfg.n, cfg.L_spec)
        reasons = set()
        for row, rec in enumerate(res.records):
            assert rec.rep_index == row
            rng = np.random.default_rng(derive_stream_seed(cfg.seed, rec.rep_index))
            noisy = privatize(degrees(sample_graph(theta_star, PROBIT, rng)), 1.5, rng)
            fit = newton_solve(noisy, PROBIT)
            reasons.add(fit.reason)
            assert (rec.exists, rec.reason, rec.iterations) == (
                fit.exists, fit.reason, fit.iterations)
            if not fit.exists:
                assert np.isnan(res.values[row]).all() and np.isnan(res.lengths[row]).all()
                continue
            vi = variance_estimates(fit.theta, PROBIT, noisy.params)
            assert np.array_equal(fit.var_diag, vi.z_diag)
            expected = []
            for kind in cfg.stat_kinds:
                values = standardized_stats(fit, theta_star, cfg.pairs, kind=kind)
                for pair, value in zip(cfg.pairs, values):
                    ci = confidence_interval(fit, pair, kind=kind)
                    expected.append((*pair, kind, float(value), ci.length))
            got = [(i, j, kind, value, length) for (i, j, kind), value, length
                   in zip(res.columns, res.values[row].tolist(), res.lengths[row].tolist())]
            assert got == expected  # exact: the same floats, not merely close
        assert reasons == {None, "range"}

    def test_block_rows_equal_lone_newton_solves(self):
        n = 24
        rows = [expected_bidegree(_theta(n, scale, seed), PROBIT)
                for scale, seed in ((0.3, 1), (1.0, 2), (0.6, 3))]
        zout = np.array([r[0] for r in rows])
        zin = np.array([r[1] for r in rows])
        block = estimator._newton_block(zout, zin, PROBIT, np.zeros(2 * n - 1))
        for k, z in enumerate(rows):
            fit = newton_solve(z, PROBIT)
            assert block.reason[k] is None and fit.exists
            assert block.iterations[k] == fit.iterations
            assert np.array_equal(block.free[k], fit.theta.to_free())
            assert block.residual_norm[k] == fit.residual_norm

    def test_compressed_block_mixing_dense_and_range_rows(self, monkeypatch):
        # at n = 100 the narrow row stays compressed, the wide one (scale 3)
        # falls back to dense once its iterates spread, and the third row
        # has an empty node, so no solution exists
        n = 100
        narrow = expected_bidegree(_theta(n, 0.3, 21), PROBIT)
        wide = expected_bidegree(_theta(n, 3.0, 22), PROBIT)
        empty_out = narrow[0].copy()
        empty_out[7] = 0.0
        zout = np.array([narrow[0], empty_out, wide[0]])
        zin = np.array([narrow[1], narrow[1], wide[1]])
        split = []
        build = estimator._pairs

        def spy(free, model):
            op = build(free, model)
            split.append(op.rows is not None)  # a compressed and a dense stack
            return op

        monkeypatch.setattr(estimator, "_pairs", spy)
        start = np.zeros(2 * n - 1)
        block = estimator._newton_block(zout, zin, PROBIT, start)
        assert block.reason == [None, "range", None]
        assert any(split)
        for k in (0, 2):
            alone = estimator._newton_block(zout[k : k + 1], zin[k : k + 1], PROBIT,
                                            start)
            assert block.iterations[k] == alone.iterations[0]
            assert block.residual_norm[k] == alone.residual_norm[0]
            assert np.array_equal(block.free[k], alone.free[0])
            for got, want in zip(block.sums, alone.sums):
                assert np.array_equal(got[k], want[0])

    def test_failing_block_mates_leave_a_fit_unchanged(self, monkeypatch):
        # with the CG cap at 6, the mild row (scale 0.3) needs at most 4
        # iterations per step while the rough one (scale 3) needs 8
        monkeypatch.setattr(estimator, "_CG_MAX_ITER", 6)
        n = 30
        mild = expected_bidegree(_theta(n, 0.3, 5), PROBIT)
        rough = expected_bidegree(_theta(n, 3.0, 5), PROBIT)
        empty_out = mild[0].copy()
        empty_out[4] = 0.0  # a node with no out-edges: no solution exists
        zout = np.array([empty_out, mild[0], rough[0]])
        zin = np.array([mild[1], mild[1], rough[1]])
        start = np.zeros(2 * n - 1)
        mixed = estimator._newton_block(zout, zin, PROBIT, start)
        alone = estimator._newton_block(zout[1:2], zin[1:2], PROBIT, start)
        assert mixed.reason == ["range", None, "singular"]
        assert mixed.iterations[1] == alone.iterations[0]
        assert mixed.residual_norm[1] == alone.residual_norm[0]
        assert np.array_equal(mixed.free[1], alone.free[0])
        for got, want in zip(mixed.sums, alone.sums):
            assert np.array_equal(got[1], want[0])
        fit = newton_solve(mild, get_model("probit"))
        assert np.array_equal(mixed.free[1], fit.theta.to_free())


class TestBlockSizes:
    """Blocks are sized by what a block of the fit holds."""

    def test_dense_rows_keep_the_dense_budget(self):
        for n in (24, 48, pairs._DENSE_BELOW - 1):
            assert simulation._block_size(n) == pairs._DENSE_ELEMENTS // (n * n)
        assert simulation._block_size(48) == 56

    def test_compressed_rows_by_their_footprint(self):
        n_grid = (pairs._DENSE_BELOW, 100, 200, 1000)
        assert [simulation._block_size(n) for n in n_grid] == [54, 40, 23, 5]
        assert simulation._block_size(10**4) == 1

    def test_every_worker_gets_a_block(self):
        for reps, workers, blocks in ((30, 2, [range(0, 15), range(15, 30)]),
                                      (20, 2, [range(0, 10), range(10, 20)]),
                                      (45, 1, [range(0, 40), range(40, 45)]),
                                      (90, 2, [range(0, 40), range(40, 80),
                                               range(80, 90)])):
            cfg = ExperimentConfig(n=100, reps=reps)
            assert simulation._blocks(cfg, workers) == blocks

    def test_anchor_block_holds_one_lt_stack(self):
        # a compressed row's L^T on 32 nodes is 2 * 32 * 100 floats (50 KB)
        # and its three grids 24 KB (38 KB and 14 KB on 24 nodes): with one
        # operator's L^T at a time in a block, the traced peak of an anchor
        # block stays below three 32-node L^T stacks (150 KB) a row
        cfg = ExperimentConfig(n=100, eps_spec="fixed:2", reps=1000, seed=1)
        assert self._traced_peak_per_row(cfg, 500) <= 150 * 1024

    def test_ramp_block_frees_each_operator(self):
        # the logit sqrtlogn ramp at n = 200 climbs to 32 nodes, whose L^T
        # is 2 * 32 * 200 floats (100 KB) a row; its first block's traced
        # peak read 342 KB a row when each operator owns its arrays, and
        # 451 KB when a block kept one buffer per rung, regrown whenever a
        # rung's candidate rows outgrew it
        cfg = ExperimentConfig(n=200, L_spec="sqrtlogn", eps_spec="fixed:2", reps=100,
                               seed=1, model="logit")
        assert self._traced_peak_per_row(cfg, 0) <= 400 * 1024

    @staticmethod
    def _traced_peak_per_row(cfg, start):
        """The traced allocation peak per row of the block of the harness's
        size from rep start, after an untraced block warms up."""
        rows = simulation._block_size(cfg.n)
        simulation._run_block(cfg, range(rows))
        tracemalloc.start()
        try:
            simulation._run_block(cfg, range(start, start + rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / rows


class TestQqExport:
    def test_three_value_quantiles(self):
        rows = qq_export([1.0, -1.0, 0.0])
        assert [r[0] for r in rows] == [1, 2, 3]
        np.testing.assert_allclose([r[1] for r in rows], [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(
            [r[2] for r in rows],
            [-0.9674215661, 0.0, 0.9674215661],
            atol=1e-9,
        )

    def test_standard_normal_sample_stays_near_diagonal(self):
        rng = np.random.default_rng(3)
        rows = qq_export(rng.standard_normal(10000))
        gap = max(abs(emp - theo) for _, emp, theo in rows[50:-50])
        assert gap < 0.15

    def test_requires_two_finite_values(self):
        with pytest.raises(DomainError):
            qq_export([1.0])
        with pytest.raises(DomainError):
            qq_export([1.0, float("nan")])

    def test_csv_format(self):
        text = qq_csv(qq_export([0.5, -0.5]))
        lines = text.strip().split("\n")
        assert lines[0] == "rank,empirical,theoretical"
        assert lines[1].startswith("1,-0.5,")
