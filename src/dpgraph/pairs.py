"""The pair operator behind every O(n^2) quantity of a moment fit.

Each such quantity is a row sum, column sum or cross-block product of a
pair matrix f(alpha_i + beta_j) with zero diagonal: f = mu for the
residual, mu' for the CG half-products and the diagonal of V, mu(1-mu)
and mu' for the variance sums.  _Pairs serves them for stacked rows from
stacks of two backends:

- dense: the n x n matrices themselves;
- compressed: tensor Chebyshev interpolation over each row's box
  [min alpha, max alpha] x [min beta, max beta] (Trefethen, Approximation
  Theory and Approximation Practice, 2013, ch. 5).  With barycentric
  matrices L_a, L_b (n x p) and grid values C = f(nodes_a + nodes_b)
  (p x p), the row sums are L_a (C (L_b^T 1)) minus the exact diagonal
  f(alpha_i + beta_i), and the column sums and products likewise: O(n p)
  time and memory, and p^2 evaluations of f, for all rows of the stack
  at once.

Below _DENSE_BELOW nodes every row is dense.  From there each row climbs
the node ladder _CHEB_LADDER (12, 24, then 32 nodes): it takes the first
rung within its reach on which the last two Chebyshev coefficients per
axis of its mu, mu' and mu(1-mu) grids lie within _CHEB_TAIL of the
largest coefficient, and a box too wide for every rung (such as an
iterate near the divergence guard) goes dense, in stacks of at most
_DENSE_ELEMENTS floats per array.  Only a box of half-width at most
_NARROW_HALF_WIDTH (the larger of (max alpha - min alpha)/2 and
(max beta - min beta)/2, beta_n = 0 included) reaches the 12-node rung.
The gate decides who tries that rung and the tail test whether it holds,
so a narrow row that 12 nodes do not resolve climbs to 24.
A rung evaluates and tests the grids first and builds L^T only for the
rows they pass (Aurentz and Trefethen, "Chopping a Chebyshev series",
2017, pick a degree from the tail likewise).  Resolved grids read 2e-15 to
1e-14, from rounding, and rows that pass lie within 1e-11 of the dense
sums at n = 2000.  A row's rung depends only on n and its own box, and a
stacked product is one BLAS call per row, so a row's floats do not depend
on the other rows.

The gate is the reach of 12 nodes, the largest half-width whose square
boxes pass at n = 200 (bisected on _cheb_iterate), by strength-sum centre:
probit 0.171 at +-3, 0.179 at +-2, 0.187 at +-1 and 0.183 at 0, but 0.08
at -6 and 0 from +4 on, where the mu(1-mu) grid loses relative precision
(such rows try 12 nodes, fail and climb); logit 0.242 at 0 to 0.298 at
+-3.  On flat-truth probit releases at epsilon = 2 the estimate's box
has half-width 0.41 to 0.63 at n = 100, 0.12 to 0.14 at n = 1000 and
about 0.1 at n = 2000, where every row-build of an estimate is on 12
nodes.  Ungated, 4,129 of the anchor cell's 4,154 row-builds failed the
12-node attempt, and the cell ran 8 to 14 % slower.

Where dense pays, measured on a 2-vCPU VM with 1 BLAS thread on
anchor-style releases (flat probit truth, epsilon = 2):
- on the harness's blocks (_block_size of each backend), the fastest of
  five passes over 120 releases took 0.41 ms a row dense and 0.37 ms on
  the ladder at n = 48, 0.55 and 0.70 at n = 56, 0.96 and 0.69 at n = 64,
  1.29 and 0.44 at n = 80, 1.23 and 0.49 at n = 96.  Below n = 64 the
  two lie within the machine's spread; from there the ladder leads, so
  _DENSE_BELOW = 64 (the logit n = 80 cell ran faster on the ladder than
  dense in 8 of 8 alternating process pairs);
- a lone fit (newton_solve, estimate; median of 48) took 2.1 ms dense and
  3.0 ms on the ladder at n = 64, 2.5 and 2.8 at n = 96, 2.5 and 2.7 at
  n = 112, 3.1 and 2.9 at n = 128, 4.2 and 3.1 at n = 160.  Lone fits
  below n = 128 would run faster dense, but a row's backend must not
  depend on how many rows share its block.

Each operator allocates the arrays it holds and frees them when it is
dropped.  A row whose fit stops is left out of the next operator; no
operator is ever cut down to some of its rows.
"""

from __future__ import annotations

import numpy as np

from .model import EdgeMeanModel

# the node counts a row tries, in order, before it goes dense; only a box
# of half-width at most _NARROW_HALF_WIDTH tries the first rung
_CHEB_LADDER = (12, 24, 32)
_NARROW_HALF_WIDTH = 0.17
_CHEB_TAIL = 1e-13
_DENSE_BELOW = 64
# a dense stack holds at most this many pair-matrix floats (1 MB) per array
_DENSE_ELEMENTS = 1 << 17


def _strength_sums(free: np.ndarray) -> np.ndarray:
    """x[..., i, j] = alpha_i + beta_j from stacked free coordinates."""
    n = (free.shape[-1] + 1) // 2
    beta = np.zeros(free.shape[:-1] + (n,))
    beta[..., : n - 1] = free[..., n:]
    return free[..., :n, None] + beta[..., None, :]


def _zero_diagonal(m: np.ndarray) -> np.ndarray:
    """Zero the diagonal of every stacked n x n matrix in m, in place."""
    i = np.arange(m.shape[-1])
    m[..., i, i] = 0.0
    return m


def _pair_matrix(theta, fn) -> np.ndarray:
    """fn at every strength sum alpha_i + beta_j of theta, zero diagonal."""
    x = _strength_sums(theta.to_free())
    return _zero_diagonal(np.asarray(fn(x), dtype=float))


def _cheb_tables(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The p first-kind Chebyshev nodes on [-1, 1], their barycentric
    weights, and the matrix that takes values at the nodes to Chebyshev
    coefficients."""
    angles = (2 * np.arange(p) + 1) * np.pi / (2 * p)
    dct = np.cos(np.outer(np.arange(p), angles)) * (2.0 / p)
    dct[0] /= 2.0
    return np.cos(angles), np.where(np.arange(p) % 2, -1.0, 1.0) * np.sin(angles), dct


_CHEB = {p: _cheb_tables(p) for p in _CHEB_LADDER}


def _cheb_nodes(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The p Chebyshev nodes over each [min x, max x] of stacked points x
    (..., n), as (..., p), and the mask of the axes of zero width."""
    lo, hi = x.min(axis=-1), x.max(axis=-1)
    nodes = 0.5 * (lo + hi)[..., None] + 0.5 * (hi - lo)[..., None] * _CHEB[p][0]
    return nodes, lo == hi


def _barycentric(x: np.ndarray, nodes: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """L^T (..., p, n) for stacked points x (..., n) and their nodes and
    zero-width mask from _cheb_nodes: column j holds the weights that
    interpolate values at the nodes to the point x[..., j].  A point on a
    node gets a one-hot column, 1 on that node.  An axis of zero width
    (every axis of the start theta = 0) has p coinciding nodes, and its L^T
    is written directly as one-hot on node 0 in every column, without the
    passes over its entries; the passes run only on stacks with an axis of
    nonzero width."""
    p = nodes.shape[-1]
    lt = np.empty(x.shape[:-1] + (p, x.shape[-1]))
    if not flat.all():
        with np.errstate(divide="ignore", invalid="ignore"):
            np.subtract(x[..., None, :], nodes[..., :, None], out=lt)
            np.divide(_CHEB[p][1][:, None], lt, out=lt)
            # the weights' sum is finite unless the point lies on a node
            total = lt.sum(axis=-2, keepdims=True)
            lt /= total
        *batch, point = np.nonzero(~np.isfinite(total[..., 0, :]) & ~flat[..., None])
        if point.size:
            lt[(*batch, slice(None), point)] = 0.0
            near = np.abs(x[(*batch, point)][:, None] - nodes[tuple(batch)]).argmin(axis=-1)
            lt[(*batch, near, point)] = 1.0
    if flat.any():
        lt[flat] = 0.0
        lt[flat, 0] = 1.0
    return lt


def _cheb_resolved(c: np.ndarray) -> np.ndarray:
    """Whether, along each axis, the last two Chebyshev coefficients of each
    stacked grid of node values c (..., p, p) lie within _CHEB_TAIL of the
    grid's largest coefficient.  The first and last two coefficient rows
    and columns decide most grids, as their largest entry bounds the largest
    coefficient from below; only the grids they leave open are transformed
    whole."""
    dct = _CHEB[c.shape[-1]][2]
    ends = dct[[0, -2, -1]]
    # coefficient rows and columns 0, p-2 and p-1, each as three rows
    rows = np.abs(ends @ c @ dct.T)
    edges = np.maximum(rows, np.abs(_t(dct @ (c @ ends.T))))
    tail = edges[..., 1:, :].max(axis=(-2, -1))
    resolved = np.asarray(tail <= _CHEB_TAIL * edges[..., 0, :].max(axis=-1))
    left = ~resolved
    if left.any():
        coef = np.abs(dct @ c[left] @ dct.T)
        resolved[left] = tail[left] <= _CHEB_TAIL * coef.max(axis=(-2, -1))
    return resolved


def _vecmat(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x[r] @ a[r] for stacked vectors and matrices, one BLAS call per row."""
    return np.matmul(x[..., None, :], a)[..., 0, :]


def _t(a: np.ndarray) -> np.ndarray:
    """The transposes of stacked matrices."""
    return a.swapaxes(-1, -2)


class _DensePairs:
    """Dense stack: n x n pair matrices with zero diagonal."""

    def __init__(self, m: np.ndarray):
        self.m = m

    def sums(self):
        """The n row sums and first n-1 column sums of each matrix (the
        sides of the 2n-1 used moment equations), and its last column sum.
        The column sums are one BLAS vector-matrix product per matrix, as
        the compressed backend takes them: numpy's sum down a column adds
        one term at a time (3.0e-11 off math.fsum at theta = 0, n = 2000,
        against 5.3e-12 this way), and its pairwise sum along the rows of a
        transposed copy paid 3 to 12 times the sum for the copy."""
        m, n = self.m, self.m.shape[-1]
        cols = _vecmat(np.ones(m.shape[:-1]), m)
        sides = np.concatenate([m.sum(axis=-1), cols[..., : n - 1]], axis=-1)
        return sides, cols[..., n - 1]

    def bernoulli(self) -> "_DensePairs":
        return _DensePairs(self.m * (1.0 - self.m))

    def cross(self, x: np.ndarray) -> np.ndarray:
        return np.matmul(self.m[..., :-1], x[:, :, None])[..., 0]

    def cross_t(self, y: np.ndarray) -> np.ndarray:
        return _vecmat(y, self.m[..., :-1])


class _DenseIterate:
    """Dense stack at one iterate: the strength sums x_ij of stacked rows of
    free coordinates.  [0] and [1] evaluate the mu and mu' pair matrices."""

    def __init__(self, free: np.ndarray, fns):
        self.fns = fns
        self.x = _strength_sums(free)

    def __getitem__(self, k: int) -> _DensePairs:
        return _DensePairs(_zero_diagonal(np.asarray(self.fns[k](self.x), dtype=float)))


class _ChebPairs:
    """Compressed stack: f(alpha_i + beta_j) of row r as
    L_a[r] C[r] L_b[r]^T - diag(d[r]), with d[r]_i = f(alpha_i + beta_i)
    exact.  lt[:, 0] holds L_a^T and lt[:, 1] L_b^T, and ones their row
    sums L_a^T 1 and L_b^T 1.  Every product is a stacked matmul, one BLAS
    call per row, so a row's floats do not depend on how many rows share
    the stack.  The mu and mu' stacks of one iterate share lt and ones."""

    def __init__(self, lt, ones, c, d):
        self.lt, self.ones, self.c, self.d = lt, ones, c, d

    def sums(self):
        n = self.d.shape[-1]
        rows = _vecmat(_vecmat(self.ones[:, 1], _t(self.c)), self.lt[:, 0]) - self.d
        cols = _vecmat(_vecmat(self.ones[:, 0], self.c), self.lt[:, 1]) - self.d
        return np.concatenate([rows, cols[:, : n - 1]], axis=1), cols[:, n - 1]

    def bernoulli(self) -> "_ChebPairs":
        c, d = self.c, self.d
        return _ChebPairs(self.lt, self.ones, c * (1.0 - c), d * (1.0 - d))

    def cross(self, x: np.ndarray) -> np.ndarray:
        out = (x[:, None] @ _t(self.lt[:, 1, :, :-1]) @ _t(self.c) @ self.lt[:, 0])[:, 0]
        out[:, :-1] -= self.d[:, :-1] * x
        return out

    def cross_t(self, y: np.ndarray) -> np.ndarray:
        out = (y[:, None] @ _t(self.lt[:, 0]) @ self.c @ self.lt[:, 1, :, :-1])[:, 0]
        out -= self.d[:, :-1] * y[:, :-1]
        return out


def _dense_rows(n: int) -> int:
    """Rows per dense stack, of at most _DENSE_ELEMENTS floats per array."""
    return max(1, _DENSE_ELEMENTS // (n * n))


# The harness fits its replications in blocks of _block_size(n) rows, sized
# by what a block of the Newton core holds, which bounds the harness's extra
# memory whatever n is.  Below _DENSE_BELOW a block is one dense stack.
# From there a row is compressed, and sized by 24 nodes, the first rung that
# every row reaches (p = _CHEB_LADDER[1]): its operator holds its L^T (2 p n
# floats) and its three p x p grids (_cheb_iterate), and a block at most
# _CHEB_BLOCK_FLOATS of those (2 MB: 54 rows at n = 64, 40 at n = 100, 23 at
# n = 200, 5 at n = 1000).  Rows on 12 nodes hold at most half those floats,
# rows on 32 nodes more, and rows whose box is too wide for every rung go
# dense (_dense_rows).
_CHEB_BLOCK_FLOATS = 1 << 18


def _block_size(n: int) -> int:
    if n < _DENSE_BELOW:
        return _dense_rows(n)
    p = _CHEB_LADDER[1]
    return max(1, _CHEB_BLOCK_FLOATS // (2 * p * n + 3 * p * p))


def _cheb_iterate(ab: np.ndarray, fns, p: int) -> tuple[np.ndarray, tuple]:
    """(resolved, (mu, mu')) for stacked boxes ab (R, 2, n), each row's alpha
    and beta (beta_n = 0): the mask of the rows whose mu, mu' and mu(1-mu)
    grids p nodes resolve, and the compressed stacks of those rows, which
    own their L^T (R', 2, p, n) and grids (3, R', p, p).  The grids are
    evaluated and tested first, and L^T is built only for the rows they
    pass."""
    nodes, flat = _cheb_nodes(ab, p)
    # the mu, mu' and mu(1-mu) grids, filled into one array for the tail
    # check; the third slot holds the node sums until mu and mu' are filled
    grids = np.empty((3, ab.shape[0], p, p))
    grid = np.add(nodes[:, 0, :, None], nodes[:, 1, None, :], out=grids[2])
    for k, fn in enumerate(fns):
        grids[k] = fn(grid)
    np.subtract(1.0, grids[0], out=grids[2])
    grids[2] *= grids[0]
    resolved = _cheb_resolved(grids).all(axis=0)
    if not resolved.all():
        grids = grids[:, resolved]
        ab, nodes, flat = ab[resolved], nodes[resolved], flat[resolved]
    lt = _barycentric(ab, nodes, flat)
    ones = lt.sum(axis=-1)
    diag = ab[:, 0] + ab[:, 1]
    return resolved, tuple(
        _ChebPairs(lt, ones, grids[k], np.asarray(fn(diag), dtype=float))
        for k, fn in enumerate(fns)
    )


class _Pairs:
    """Pair matrices with zero diagonal for stacked rows, held in at most
    one compressed stack per rung of _CHEB_LADDER and some dense ones.  A
    lone stack serves every row (and a stack with one row is shared by every
    row it is applied to); otherwise stack k serves the rows rows[k], in
    ascending order.

    At an iterate, mu() and mu_prime() give the pair matrices of mu and mu';
    those give sums() (equation sums and boundary sum), bernoulli() (the
    pair matrices of mu(1-mu), from those of mu), and cross(x) and
    cross_t(y) (the cross-block half-products W[:, :n-1] x and
    W[:, :n-1]^T y per row), always over all the rows the operator was
    built for.
    """

    def __init__(self, stacks: list, rows: list | None = None):
        self.stacks, self.rows = stacks, rows

    def mu(self) -> "_Pairs":
        return _Pairs([stack[0] for stack in self.stacks], self.rows)

    def mu_prime(self) -> "_Pairs":
        return _Pairs([stack[1] for stack in self.stacks], self.rows)

    def bernoulli(self) -> "_Pairs":
        return _Pairs([stack.bernoulli() for stack in self.stacks], self.rows)

    def sums(self) -> tuple[np.ndarray, np.ndarray]:
        results = [stack.sums() for stack in self.stacks]
        if self.rows is None:
            return results[0]
        # each stack's sums, placed at its rows
        order = np.argsort(np.concatenate(self.rows))
        return tuple(np.concatenate(arrays)[order] for arrays in zip(*results))

    def cross(self, x: np.ndarray) -> np.ndarray:
        return self._by_row("cross", x)

    def cross_t(self, y: np.ndarray) -> np.ndarray:
        return self._by_row("cross_t", y)

    def _by_row(self, name: str, v: np.ndarray) -> np.ndarray:
        """Each stack's half-product of its rows of v, placed at its rows."""
        if self.rows is None:
            return getattr(self.stacks[0], name)(v)
        parts = [getattr(stack, name)(v[r]) for stack, r in zip(self.stacks, self.rows)]
        return np.concatenate(parts)[np.argsort(np.concatenate(self.rows))]


def _pairs(free: np.ndarray, model: EdgeMeanModel) -> _Pairs:
    """The pair operator at stacked free coordinates: dense below
    _DENSE_BELOW nodes, else compressed on the first rung of _CHEB_LADDER
    within a row's reach whose nodes resolve its box, and dense on the rows
    no rung resolves, in stacks of _dense_rows(n) rows.  Every stack owns
    its arrays, which go when the operator is dropped."""
    fns = (model.mu, model.mu_prime)
    R, n = free.shape[0], (free.shape[-1] + 1) // 2
    if n < _DENSE_BELOW:
        return _Pairs([_DenseIterate(free, fns)])
    ab = np.zeros((R, 2, n))
    ab[:, 0] = free[:, :n]
    ab[:, 1, : n - 1] = free[:, n:]
    stacks, rows, left = [], [], np.ones(R, dtype=bool)
    # the half-width of each row's box, beta_n = 0 included
    half = 0.5 * (ab.max(axis=-1) - ab.min(axis=-1)).max(axis=-1)
    for p in _CHEB_LADDER:
        tries = np.flatnonzero(half <= _NARROW_HALF_WIDTH if p == _CHEB_LADDER[0] else left)
        if tries.size:
            resolved, cheb = _cheb_iterate(ab[tries], fns, p)
            if resolved.any():
                stacks.append(cheb)
                rows.append(tries[resolved])
                left[rows[-1]] = False
    left = np.flatnonzero(left)
    size = _dense_rows(n)
    for k in range(0, left.size, size):
        stacks.append(_DenseIterate(free[left[k : k + size]], fns))
        rows.append(left[k : k + size])
    return _Pairs(stacks, rows if len(stacks) > 1 else None)
