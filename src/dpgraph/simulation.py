"""Monte-Carlo harness: sample, privatize, fit, and tally coverage.

Each replication derives its own RNG stream from (master seed, rep_index)
through splitmix64, so replications are independent, order-insensitive,
and bit-reproducible under any degree of concurrency:

    stream_seed = splitmix64(master_seed XOR splitmix64(rep_index))

True parameters follow a linear ramp: alpha*_{i+1} = (n-1-i) L / (n-1),
so alpha*_1 = L down to alpha*_n = 0, with beta* = alpha* except the
pinned beta*_n = 0.  L and epsilon are named schedules resolved against n
(natural logarithms throughout).

Replications run in blocks of pairs._block_size(n) rows, sized in pairs.py
by what a block of the fit holds; with several workers a block has at most
ceil(reps / workers) rows, so each worker gets one.  Within a block each
replication still samples its graph and its noise on its own stream, in
the order a lone replication would; then the whole block is fitted by one
stacked Newton solve
(estimator._newton_block, of which newton_solve is the one-row case), and
the variances, statistics and intervals are vectorized over the block.
The stacked solve never mixes rows: its work is elementwise, reductions
within each row's own arrays and one BLAS call per row, and a stopped row
is frozen.  So a replication's output does not depend on the block size,
on its block-mates or on the worker count that ran its block.  The blocks
ascend in rep_index and the pool returns them in the order they went out,
so the records and the statistics' rows come back in rep_index order.

run_experiment returns one ExperimentResult, which stores the config, the
records and the statistics and interval lengths, and derives the coverage
table from them: per (pair, kind) column the coverage and mean interval
length, tallied only over replications where the estimate exists (NaN when
none does), and the non-existence frequency, reported separately.  The
intervals are 95 % ones throughout.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DomainError
from .estimator import (
    VarianceInputs,
    _contrast_stats,
    _is_node_index,
    _newton_block,
    _normal_quantile,
    _stat_indices,
)
from .graph import ParameterVector, _draw_graph, degrees
from .model import get_model
from .pairs import _block_size, _pair_matrix
from .privacy import PrivacyParams, deviation_bound, privatize

# The harness runs its own stacked path, but these names stay importable
# here: the benchmark's tracer (bench/tracing.py) wraps them in this module.
from .estimator import (  # noqa: F401  isort: skip
    confidence_interval,
    newton_solve,
    standardized_stats,
    variance_estimates,
)
from .graph import expected_bidegree, sample_graph  # noqa: F401  isort: skip

L_SPECS = ("zero", "loglogn", "sqrtlogn")
EPS_SPECS = ("fixed:<value>", "logn_n14", "logn_n12")

_MASK64 = (1 << 64) - 1

# the harness's one interval level: the two-sided 95 % normal quantile
_Z95 = _normal_quantile(0.95)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_stream_seed(master_seed: int, rep_index: int) -> int:
    """Per-replication stream seed: splitmix64(master XOR splitmix64(rep))."""
    return _splitmix64((master_seed ^ _splitmix64(rep_index)) & _MASK64)


def resolve_L(L_spec: str, n: int) -> float:
    if L_spec == "zero":
        return 0.0
    if L_spec == "loglogn":
        return math.log(math.log(n))
    if L_spec == "sqrtlogn":
        return math.sqrt(math.log(n))
    raise DomainError(f"unknown L spec {L_spec!r}; allowed: {L_SPECS}")


def resolve_epsilon(eps_spec: str, n: int) -> float:
    if eps_spec.startswith("fixed:"):
        try:
            value = float(eps_spec[6:])
        except ValueError:
            raise DomainError(f"bad fixed epsilon in {eps_spec!r}") from None
        if not (value > 0.0):
            raise DomainError("fixed epsilon must be positive")
        return value
    if eps_spec == "logn_n14":
        return math.log(n) / n**0.25
    if eps_spec == "logn_n12":
        return math.log(n) / math.sqrt(n)
    raise DomainError(f"unknown epsilon spec {eps_spec!r}; allowed: {EPS_SPECS}")


def default_pairs(n: int, kinds=("xi",)) -> tuple[tuple[int, int], ...]:
    """The probe pairs (1,2), (n/2, n/2+1), (n-1, n).  zeta and eta need
    j <= n-1 (beta_n is pinned), so with either among kinds (n-2, n-1)
    replaces (n-1, n); at n = 4 it repeats the middle pair and goes."""
    last = (n - 1, n) if set(kinds) <= {"xi"} else (n - 2, n - 1)
    return tuple(dict.fromkeys(((1, 2), (n // 2, n // 2 + 1), last)))


def make_true_params(n: int, L_spec: str) -> ParameterVector:
    """Linear ramp of true strengths from L down to 0; beta mirrors alpha."""
    if n < 2:
        raise DomainError("n must be >= 2")
    L = resolve_L(L_spec, n)
    i = np.arange(n)
    alpha = (n - 1 - i) * L / (n - 1)
    beta = alpha.copy()
    beta[-1] = 0.0
    return ParameterVector(alpha=alpha, beta=beta)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    L_spec: str = "zero"
    eps_spec: str = "fixed:2"
    reps: int = 1000
    seed: int = 0
    pairs: tuple[tuple[int, int], ...] | None = None
    model: str = "probit"
    stat_kinds: tuple[str, ...] = ("xi",)

    def __post_init__(self):
        if self.n < 4:
            raise DomainError("n must be >= 4")
        if self.reps < 1:
            raise DomainError("reps must be >= 1")
        # derive_stream_seed reads the seed modulo 2^64: outside [0, 2^64)
        # two seeds would alias to one stream
        if not 0 <= self.seed <= _MASK64:
            raise DomainError(f"seed must lie in [0, 2^64), got {self.seed}")
        resolve_L(self.L_spec, self.n)
        # the noise law must exist at the resolved epsilon before any draw
        PrivacyParams(resolve_epsilon(self.eps_spec, self.n))
        get_model(self.model)
        if self.pairs is None:
            object.__setattr__(self, "pairs", default_pairs(self.n, self.stat_kinds))
        if not self.pairs or not self.stat_kinds:
            raise DomainError("need at least one pair and one statistic kind")
        for kind in self.stat_kinds:
            for i, j in self.pairs:
                _stat_indices(kind, i, j, self.n)  # validates bounds per kind
        # a repeat would duplicate its columns in every output
        named = (("probe pair", self.pairs), ("statistic kind", self.stat_kinds))
        for name, items in named:
            for k, item in enumerate(items):
                if item in items[:k]:
                    raise DomainError(f"{name} {item!r} is repeated")


@dataclass(frozen=True)
class RepRecord:
    rep_index: int
    reason: str | None
    iterations: int
    deviation_ok: bool

    @property
    def exists(self) -> bool:
        return self.reason is None


def _blocks(cfg: ExperimentConfig, workers: int) -> list[range]:
    """The replications' blocks: of _block_size(n) rows, and with several
    workers at most ceil(reps / workers), so that every worker gets one."""
    size = _block_size(cfg.n)
    if workers > 1:
        size = min(size, -(-cfg.reps // workers))
    return [range(b, min(b + size, cfg.reps)) for b in range(0, cfg.reps, size)]


def _run_block(cfg: ExperimentConfig, rep_indices: range) -> tuple:
    """Sample, privatize, fit and test a block of replications.

    Each replication draws its graph and its noise from its own stream,
    exactly as a lone one would; the fits then run as one stacked Newton
    solve, whose arithmetic for a replication does not depend on the other
    replications.  Returns the records, then the statistics and the interval
    lengths as ExperimentResult.values and .lengths lay them out.
    """
    n = cfg.n
    model = get_model(cfg.model)
    theta_star = make_true_params(n, cfg.L_spec)
    eps = resolve_epsilon(cfg.eps_spec, n)
    p_star = _pair_matrix(theta_star, model.mu)
    exp_out, exp_in = p_star.sum(axis=1), p_star.sum(axis=0)

    zout = np.empty((len(rep_indices), n))
    zin = np.empty((len(rep_indices), n))
    for row, rep in enumerate(rep_indices):
        rng = np.random.default_rng(derive_stream_seed(cfg.seed, rep))
        noisy = privatize(degrees(_draw_graph(p_star, rng)), eps, rng)
        zout[row], zin[row] = noisy.z_out, noisy.z_in
    dev = np.maximum(
        np.abs(zout - exp_out).max(axis=1), np.abs(zin - exp_in).max(axis=1)
    )
    dev_ok = dev <= deviation_bound(n, eps)

    fit = _newton_block(zout, zin, model, np.zeros(2 * n - 1))
    # rows without an estimate carry NaN variances, hence NaN statistics
    z_diag = VarianceInputs(*fit.sums, PrivacyParams(eps)).z_diag
    free_star = theta_star.to_free()
    stats = [
        _contrast_stats(fit.free, z_diag, free_star, kind, cfg.pairs)
        for kind in cfg.stat_kinds
    ]
    values, se = (np.hstack(arrays) for arrays in zip(*stats))
    records = [
        RepRecord(rep, reason, int(iterations), bool(ok))
        for rep, reason, iterations, ok in zip(
            rep_indices, fit.reason, fit.iterations, dev_ok
        )
    ]
    return records, values, 2.0 * _Z95 * se


def run_replication(cfg: ExperimentConfig, rep_index: int) -> RepRecord:
    """One sample -> privatize -> fit -> test pass, on its own RNG stream."""
    return _run_block(cfg, range(rep_index, rep_index + 1))[0][0]


CSV_HEADER = (
    "n,L_spec,eps_spec,pair_i,pair_j,stat_kind,coverage,"
    "ci_length_full,ci_length_half,nonexist_freq,reps"
)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """One coverage run: its config, one record per replication, and the
    statistics and interval lengths (2 q se) with one row per record and one
    column per (pair_i, pair_j, kind) of columns, kinds outermost; a row is
    NaN where its estimate does not exist.  The coverage table is derived
    from these.  == is identity, as for every type holding arrays: compare
    results field by field."""

    cfg: ExperimentConfig
    records: tuple[RepRecord, ...]
    values: np.ndarray
    lengths: np.ndarray
    runtime_seconds: float

    @property
    def columns(self) -> tuple[tuple[int, int, str], ...]:
        return tuple((i, j, k) for k in self.cfg.stat_kinds for i, j in self.cfg.pairs)

    @property
    def _exists(self) -> np.ndarray:
        return np.array([r.exists for r in self.records], dtype=bool)

    def _column_means(self, table: np.ndarray) -> np.ndarray:
        """Per column, the mean over existing reps; NaN when none exists."""
        kept = table[self._exists].T
        return np.array([col.mean() if col.size else math.nan for col in kept])

    @property
    def coverage(self) -> np.ndarray:
        """Per column, the share of existing reps whose interval covers."""
        return self._column_means(np.abs(self.values) <= _Z95)

    @property
    def ci_length(self) -> np.ndarray:
        """Per column, the mean full interval length over existing reps."""
        return self._column_means(self.lengths)

    @property
    def nonexist_freq(self) -> float:
        return (self.cfg.reps - sum(r.exists for r in self.records)) / self.cfg.reps

    @property
    def deviation_ok_freq(self) -> float:
        return sum(r.deviation_ok for r in self.records) / self.cfg.reps

    def to_csv(self) -> str:
        """The coverage table, one line per column after CSV_HEADER."""
        cfg, nonexist = self.cfg, self.nonexist_freq
        lines = [CSV_HEADER]
        for (i, j, kind), cov, length in zip(
            self.columns, self.coverage.tolist(), self.ci_length.tolist()
        ):
            lines.append(
                f"{cfg.n},{cfg.L_spec},{cfg.eps_spec},{i},{j},{kind},{cov!r},"
                f"{length!r},{length / 2.0!r},{nonexist!r},{cfg.reps}"
            )
        return "\n".join(lines) + "\n"

    def stat_values(self, pair: tuple[int, int], kind: str = "xi") -> np.ndarray:
        """Pooled statistic values for one (pair, kind) over existing reps."""
        if not all(map(_is_node_index, pair)):
            raise DomainError(f"pair {tuple(pair)!r} must hold integer node indices")
        try:
            col = self.columns.index((*pair, kind))
        except ValueError:
            raise DomainError(f"the run holds no {kind} statistic for {pair}") from None
        return self.values[self._exists, col]


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run all replications and gather their records and statistics.

    Replications run in the blocks of _blocks; workers > 1 fans them out to
    a process pool of at most one worker per CPU and per block, and
    workers = 0 means one worker per CPU.  The blocks ascend in rep_index
    and pool.map keeps their order, so the result is bit-identical for any
    worker count and block size.
    """
    start = time.perf_counter()
    workers = min(workers or math.inf, os.cpu_count() or 1)
    blocks = _blocks(cfg, workers)
    if workers <= 1:
        done = [_run_block(cfg, block) for block in blocks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            done = list(pool.map(_run_block, [cfg] * len(blocks), blocks))
    records, values, lengths = zip(*done)
    return ExperimentResult(
        cfg,
        tuple(rec for block in records for rec in block),
        np.concatenate(values),
        np.concatenate(lengths),
        time.perf_counter() - start,
    )


def qq_export(values) -> list[tuple[int, float, float]]:
    """Pair sorted statistics with standard-normal plotting quantiles.

    Rank k (1-based) maps to the theoretical quantile at (k - 0.5)/R.
    """
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.ndim != 1 or vals.size < 2:
        raise DomainError("need at least 2 values for a QQ table")
    if not np.all(np.isfinite(vals)):
        raise DomainError("QQ input must be finite")
    r = vals.size
    theo = ndtri((np.arange(1, r + 1) - 0.5) / r)
    return [(k + 1, float(vals[k]), float(theo[k])) for k in range(r)]


def qq_csv(rows: list[tuple[int, float, float]]) -> str:
    lines = ["rank,empirical,theoretical"]
    for rank, emp, theo in rows:
        lines.append(f"{rank},{emp!r},{theo!r}")
    return "\n".join(lines) + "\n"
