"""The pair operator behind every O(n^2) quantity of a moment fit.

Each such quantity is a row sum, column sum or cross-block product of a
pair matrix f(alpha_i + beta_j) with zero diagonal: f = mu for the
residual, mu' for the CG products and the diagonal of V, mu(1-mu) and mu'
for the variance sums.  _Pairs serves them for stacked rows from at most
two stacks, one per backend:

- dense: the n x n matrices themselves;
- compressed: tensor Chebyshev interpolation over each row's box
  [min alpha, max alpha] x [min beta, max beta] (Trefethen, Approximation
  Theory and Approximation Practice, 2013, ch. 5).  With barycentric
  matrices L_a, L_b (n x p) and grid values C = f(nodes_a + nodes_b)
  (p x p), the row sums are L_a (C (L_b^T 1)) minus the exact diagonal
  f(alpha_i + beta_i), and the column sums and products likewise: O(n p)
  time and memory, and p^2 evaluations of f, for all rows of the stack
  at once.

Below _DENSE_BELOW nodes every row is dense.  On the harness's blocks
(_block_size: 2^17 // n^2 dense rows, or as many compressed rows as its
footprint budget holds), on a 2-vCPU VM with 1 BLAS thread,
an anchor-style fit takes 0.72 ms a row dense and 0.68 ms compressed at
n = 64, 1.05 and 0.75 ms at n = 80, 1.40 and 0.78 ms at n = 96.  So the
compressed form would pay below 96 too, but moving _DENSE_BELOW changes
the floats of every cell it passes.  From there a row is compressed
unless the last two Chebyshev coefficients per axis of its mu, mu' or
mu(1-mu) grid exceed _CHEB_TAIL of the largest coefficient (a box too
wide for the nodes, such as an iterate near the divergence guard); such
rows go dense, in stacks of at most _DENSE_ELEMENTS floats per array.
Resolved grids read 2e-15 to 1e-14, from rounding, and rows that pass lie
within 1e-11 of the dense sums at n = 2000.  A row's backend depends only
on n and its own box, and a stacked product is one BLAS call per row, so
a row's floats do not depend on the other rows.

A block holds one compressed stack: each iterate's L^T and grids are
written into the buffers of the operator they replace (_Pairs.buf), and
rows whose fit stops leave by in-place compaction (_compact), which
copies whole rows and so keeps their floats.
"""

from __future__ import annotations

import numpy as np

from .model import EdgeMeanModel

_CHEB_NODES = 32
_CHEB_TAIL = 1e-13
_DENSE_BELOW = 3 * _CHEB_NODES
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


_CHEB_ANGLES = (2 * np.arange(_CHEB_NODES) + 1) * np.pi / (2 * _CHEB_NODES)
# first-kind nodes on [-1, 1] and their barycentric weights
_CHEB_T = np.cos(_CHEB_ANGLES)
_CHEB_W = np.where(np.arange(_CHEB_NODES) % 2, -1.0, 1.0) * np.sin(_CHEB_ANGLES)
# values at the nodes -> Chebyshev coefficients
_CHEB_DCT = np.cos(np.outer(np.arange(_CHEB_NODES), _CHEB_ANGLES)) * (2.0 / _CHEB_NODES)
_CHEB_DCT[0] /= 2.0


def _barycentric(
    x: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(L^T, nodes) for stacked points x (..., n): the Chebyshev nodes over
    each [min x, max x] (..., p), and L^T (..., p, n), whose column j holds
    the weights that interpolate values at the nodes to the point x[..., j],
    written into out when given.  A point on a node gets a one-hot column,
    1 on that node.  An axis of zero width (every axis of the start
    theta = 0) has p coinciding nodes, and its L^T is written directly as
    one-hot on node 0 in every column, without the passes over its entries;
    the passes run only on stacks with an axis of nonzero width."""
    lo, hi = x.min(axis=-1, keepdims=True), x.max(axis=-1, keepdims=True)
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _CHEB_T
    flat = lo[..., 0] == hi[..., 0]
    lt = np.empty(x.shape[:-1] + (_CHEB_NODES, x.shape[-1])) if out is None else out
    if not flat.all():
        with np.errstate(divide="ignore", invalid="ignore"):
            np.subtract(x[..., None, :], nodes[..., :, None], out=lt)
            np.divide(_CHEB_W[:, None], lt, out=lt)
            # the weights' sum is finite unless the point lies on a node
            total = lt.sum(axis=-2, keepdims=True)
            lt /= total
        *batch, point = np.nonzero(~np.isfinite(total[..., 0, :]) & ~flat[..., None])
        if point.size:
            lt[(*batch, slice(None), point)] = 0.0
            near = np.abs(x[(*batch, point)][:, None] - nodes[tuple(batch)]).argmin(axis=-1)
            lt[(*batch, near, point)] = 1.0
    lt[flat] = 0.0
    lt[flat, 0] = 1.0
    return lt, nodes


def _cheb_resolved(c: np.ndarray) -> np.ndarray:
    """Whether, along each axis, the last two Chebyshev coefficients of each
    stacked grid of node values c (..., p, p) lie within _CHEB_TAIL of the
    grid's largest coefficient.  The first and last two coefficient rows
    and columns decide most grids, as their largest entry bounds the largest
    coefficient from below; only the grids they leave open are transformed
    whole."""
    ends = _CHEB_DCT[[0, -2, -1]]
    # coefficient rows and columns 0, p-2 and p-1, each as three rows
    rows = np.abs(ends @ c @ _CHEB_DCT.T)
    edges = np.maximum(rows, np.abs(_t(_CHEB_DCT @ (c @ ends.T))))
    tail = edges[..., 1:, :].max(axis=(-2, -1))
    resolved = np.asarray(tail <= _CHEB_TAIL * edges[..., 0, :].max(axis=-1))
    left = ~resolved
    if left.any():
        coef = np.abs(_CHEB_DCT @ c[left] @ _CHEB_DCT.T)
        resolved[left] = tail[left] <= _CHEB_TAIL * coef.max(axis=(-2, -1))
    return resolved


def _compact(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a[rows] for ascending row indices, in place: row rows[d] moves to slot
    d <= rows[d] of a, and the first rows.size slots are returned as a view.
    Each row is copied whole, so its floats are unchanged."""
    for d, s in enumerate(rows):
        if d != s:
            a[d] = a[s]
    return a[: rows.size]


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
        sides of the 2n-1 used moment equations), and its last column sum."""
        m, n = self.m, self.m.shape[-1]
        sides = np.concatenate([m.sum(axis=-1), m.sum(axis=-2)[..., : n - 1]], axis=-1)
        return sides, m[..., :, -1].sum(axis=-1)

    def bernoulli(self) -> "_DensePairs":
        return _DensePairs(self.m * (1.0 - self.m))

    def products(self, p: np.ndarray, out: np.ndarray) -> None:
        n = self.m.shape[-1]
        cross = self.m[..., : n - 1]
        np.matmul(cross, p[:, n:, None], out=out[:, :n, None])
        np.matmul(p[:, None, :n], cross, out=out[:, None, n:])

    def take(self, rows: np.ndarray) -> "_DensePairs":
        return _DensePairs(_compact(self.m, rows))


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

    def products(self, p: np.ndarray, out: np.ndarray) -> None:
        n = self.d.shape[-1]
        lta, ltb = self.lt[:, 0], self.lt[:, 1, :, : n - 1]
        c, d = self.c, self.d[:, : n - 1]
        np.matmul(p[:, None, n:] @ _t(ltb) @ _t(c), lta, out=out[:, None, :n])
        np.matmul(p[:, None, :n] @ _t(lta) @ c, ltb, out=out[:, None, n:])
        out[:, : n - 1] -= d * p[:, n:]
        out[:, n:] -= d * p[:, : n - 1]

    def take(self, rows: np.ndarray) -> "_ChebPairs":
        arrays = (self.lt, self.ones, self.c, self.d)
        return _ChebPairs(*(_compact(a, rows) for a in arrays))


def _cheb_buffers(rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Room for the compressed stacks of the given number of rows: L^T
    (rows, 2, p, n) and the mu, mu' and mu(1-mu) grids (3, rows, p, p)."""
    p = _CHEB_NODES
    return np.empty((rows, 2, p, n)), np.empty((3, rows, p, p))


def _dense_rows(n: int) -> int:
    """Rows per dense stack, of at most _DENSE_ELEMENTS floats per array."""
    return max(1, _DENSE_ELEMENTS // (n * n))


# The harness fits its replications in blocks of _block_size(n) rows, sized
# by what a block of the Newton core holds, which bounds the harness's extra
# memory whatever n is.  Below _DENSE_BELOW a block is one dense stack.
# From there a row is compressed: it holds its L^T (2 p n floats, p =
# _CHEB_NODES) and its three p x p grids (_cheb_buffers), and a block at
# most _CHEB_BLOCK_FLOATS of those (2 MB: 27 rows at n = 100, 16 at n = 200,
# 3 at n = 1000); its rows whose box is too wide go dense (_dense_rows).
_CHEB_BLOCK_FLOATS = 1 << 18


def _block_size(n: int) -> int:
    if n < _DENSE_BELOW:
        return _dense_rows(n)
    p = _CHEB_NODES
    return max(1, _CHEB_BLOCK_FLOATS // (2 * p * n + 3 * p * p))


def _cheb_iterate(free: np.ndarray, fns, buf) -> tuple[np.ndarray, tuple]:
    """(resolved, (mu, mu')): the mask of the rows of stacked free
    coordinates whose mu, mu' and mu(1-mu) grids _CHEB_NODES nodes resolve,
    and the compressed stacks of those rows, written into the front of the
    buffers buf from _cheb_buffers.  Both stacks are built up front,
    because their grids' tails decide the backend."""
    R, n = free.shape[0], (free.shape[-1] + 1) // 2
    ab = np.zeros((R, 2, n))
    ab[:, 0] = free[:, :n]
    ab[:, 1, : n - 1] = free[:, n:]
    lt, nodes = _barycentric(ab, buf[0][:R])
    # the mu, mu' and mu(1-mu) grids, filled into one array for the tail
    # check; the third slot holds the node sums until mu and mu' are filled
    grids = buf[1][:, :R]
    grid = np.add(nodes[:, 0, :, None], nodes[:, 1, None, :], out=grids[2])
    for k, fn in enumerate(fns):
        grids[k] = fn(grid)
    np.subtract(1.0, grids[0], out=grids[2])
    grids[2] *= grids[0]
    resolved = _cheb_resolved(grids).all(axis=0)
    diag = ab[:, 0] + ab[:, 1]
    if not resolved.all():
        narrow = np.flatnonzero(resolved)
        lt, grids, diag = _compact(lt, narrow), grids[:, narrow], diag[narrow]
    ones = lt.sum(axis=-1)
    return resolved, tuple(
        _ChebPairs(lt, ones, grids[k], np.asarray(fn(diag), dtype=float))
        for k, fn in enumerate(fns)
    )


class _Pairs:
    """Pair matrices with zero diagonal for stacked rows, held in at most
    one compressed stack and some dense ones.  A lone stack serves every
    row (and a stack with one row is shared by every row it is applied to);
    otherwise stack k serves the rows rows[k], in ascending order.  buf holds
    the buffers the compressed stack lives in (None below _DENSE_BELOW),
    which the next iterate's operator may overwrite.

    At an iterate, mu() and mu_prime() give the pair matrices of mu and mu';
    those give sums() (equation sums and boundary sum), bernoulli() (the
    pair matrices of mu(1-mu), from those of mu), take(keep) (a subset of
    the rows, compacted in place, which spends the other operators of the
    iterate) and products(p, out) (the two cross-block products
    W[:, :n-1] p_b and p_a W[:, :n-1] per row).
    """

    def __init__(self, stacks: list, rows: list | None = None, buf=None):
        self.stacks, self.rows, self.buf = stacks, rows, buf

    def mu(self) -> "_Pairs":
        return _Pairs([stack[0] for stack in self.stacks], self.rows, self.buf)

    def mu_prime(self) -> "_Pairs":
        return _Pairs([stack[1] for stack in self.stacks], self.rows, self.buf)

    def take(self, keep: np.ndarray) -> "_Pairs":
        """The rows where the boolean mask keep holds."""
        if keep.all():
            return self
        if self.rows is None:
            return _Pairs([self.stacks[0].take(np.flatnonzero(keep))], None, self.buf)
        renumber = np.cumsum(keep) - 1
        stacks, rows = [], []
        for stack, r in zip(self.stacks, self.rows):
            mine = keep[r]
            if mine.any():
                stacks.append(stack.take(np.flatnonzero(mine)))
                rows.append(renumber[r[mine]])
        return _Pairs(stacks, rows if len(stacks) > 1 else None, self.buf)

    def bernoulli(self) -> "_Pairs":
        return _Pairs([stack.bernoulli() for stack in self.stacks], self.rows)

    def sums(self) -> tuple[np.ndarray, np.ndarray]:
        results = [stack.sums() for stack in self.stacks]
        if self.rows is None:
            return results[0]
        # each stack's sums, placed at its rows
        size = sum(r.size for r in self.rows)
        merged = []
        for arrays in zip(*results):
            out = np.empty((size,) + arrays[0].shape[1:])
            for a, r in zip(arrays, self.rows):
                out[r] = a
            merged.append(out)
        return tuple(merged)

    def products(self, p: np.ndarray, out: np.ndarray) -> None:
        if self.rows is None:
            self.stacks[0].products(p, out)
            return
        for stack, r in zip(self.stacks, self.rows):
            q = np.empty((r.size, p.shape[1]))
            stack.products(p[r], q)
            out[r] = q


def _pairs(free: np.ndarray, model: EdgeMeanModel, buf=None) -> _Pairs:
    """The pair operator at stacked free coordinates: dense below
    _DENSE_BELOW nodes, else compressed on the rows whose box allows it and
    dense on the others, in stacks of _dense_rows(n) rows.  The compressed
    stacks are written into the buffers buf if they have the rows."""
    fns = (model.mu, model.mu_prime)
    R, n = free.shape[0], (free.shape[-1] + 1) // 2
    if n < _DENSE_BELOW:
        return _Pairs([_DenseIterate(free, fns)])
    if buf is None or len(buf[0]) < R:
        buf = _cheb_buffers(R, n)
    resolved, cheb = _cheb_iterate(free, fns, buf)
    if resolved.all():
        return _Pairs([cheb], None, buf)
    wide = np.flatnonzero(~resolved)
    size = _dense_rows(n)
    rows = [wide[k : k + size] for k in range(0, wide.size, size)]
    stacks = [_DenseIterate(free[r], fns) for r in rows]
    if wide.size < R:
        stacks, rows = [cheb, *stacks], [np.flatnonzero(resolved), *rows]
    return _Pairs(stacks, rows if len(stacks) > 1 else None, buf)
