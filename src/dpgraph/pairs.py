"""The pair operator behind every O(n^2) quantity of a moment fit.

Each such quantity is a row sum, column sum or cross-block product of a
pair matrix f(alpha_i + beta_j) with zero diagonal: f = mu for the
residual, mu' for the CG products and the diagonal of V, mu(1-mu) and mu'
for the variance sums.  _Pairs serves them for stacked rows, each row from
one of two backends:

- dense: the n x n matrices themselves, stacked over the rows;
- compressed: tensor Chebyshev interpolation over the row's box
  [min alpha, max alpha] x [min beta, max beta] (Trefethen, Approximation
  Theory and Approximation Practice, 2013, ch. 5).  With barycentric
  matrices L_a, L_b (n x p) and grid values C = f(nodes_a + nodes_b)
  (p x p), the row sums are L_a (C (L_b^T 1)) minus the exact diagonal
  f(alpha_i + beta_i), and the column sums and products likewise: O(n p)
  time and memory, and p^2 evaluations of f.

Below _DENSE_BELOW nodes every row is dense: a whole fit costs about the
same on either backend at n = 128 (measured on a 2-vCPU VM: one fit 4.5 ms
dense and 3.8 ms compressed, a harness block of 8 fits 2.2 ms per fit on
both), and the dense one is faster below.  Above it a row is compressed
unless the last two Chebyshev coefficients per axis of its mu, mu' or
mu(1-mu) grid exceed _CHEB_TAIL of the largest coefficient (a box too wide
for the nodes, such as an iterate near the divergence guard).  Resolved
grids read 2e-15 to 1e-14 there, from rounding, and rows that pass lie
within 1e-11 of the dense sums at n = 2000.  Each row is compressed from
its own coordinates only, so a row's floats do not depend on the other
rows.
"""

from __future__ import annotations

import numpy as np

from .model import EdgeMeanModel

_CHEB_NODES = 32
_CHEB_TAIL = 1e-13
_DENSE_BELOW = 4 * _CHEB_NODES


def _equation_sums(m: np.ndarray) -> np.ndarray:
    """The n row sums and the first n-1 column sums of stacked n x n pair
    matrices: the sides of the 2n-1 used moment equations."""
    n = m.shape[-1]
    return np.concatenate([m.sum(axis=-1), m.sum(axis=-2)[..., : n - 1]], axis=-1)


def _boundary_sum(m: np.ndarray) -> np.ndarray:
    """Sum of the last column of stacked n x n pair matrices."""
    return m[..., :, -1].sum(axis=-1)


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


def _bernoulli_sums(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equation sums and boundary sum of the Bernoulli variances p(1-p)."""
    u = p * (1.0 - p)
    return _equation_sums(u), _boundary_sum(u)


_CHEB_ANGLES = (2 * np.arange(_CHEB_NODES) + 1) * np.pi / (2 * _CHEB_NODES)
# first-kind nodes on [-1, 1] and their barycentric weights
_CHEB_T = np.cos(_CHEB_ANGLES)
_CHEB_W = np.where(np.arange(_CHEB_NODES) % 2, -1.0, 1.0) * np.sin(_CHEB_ANGLES)
# values at the nodes -> Chebyshev coefficients
_CHEB_DCT = np.cos(np.outer(np.arange(_CHEB_NODES), _CHEB_ANGLES)) * (2.0 / _CHEB_NODES)
_CHEB_DCT[0] /= 2.0


def _barycentric(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, nodes): Chebyshev nodes over [min x, max x], and the matrix that
    interpolates values at the nodes to the points x.  A box of zero width
    has one node; a point on a node gets a one-hot row."""
    lo, hi = x.min(), x.max()
    if lo == hi:
        return np.ones((x.size, 1)), x[:1].copy()
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _CHEB_T
    with np.errstate(divide="ignore", invalid="ignore"):
        q = _CHEB_W / (x[:, None] - nodes)
        lmat = q / q.sum(axis=1, keepdims=True)
    hit = np.flatnonzero(~np.isfinite(lmat).all(axis=1))
    if hit.size:
        lmat[hit] = 0.0
        lmat[hit, np.abs(x[hit, None] - nodes).argmin(axis=1)] = 1.0
    return lmat, nodes


def _cheb_resolved(c: np.ndarray) -> bool:
    """Whether, along each axis with more than one node, the last two
    Chebyshev coefficients of the grid values c lie within _CHEB_TAIL of
    the largest coefficient."""
    pa, pb = c.shape
    coef = _CHEB_DCT @ c if pa > 1 else c
    coef = np.abs(coef @ _CHEB_DCT.T if pb > 1 else coef)
    tail = max(
        coef[-2:].max() if pa > 1 else 0.0, coef[:, -2:].max() if pb > 1 else 0.0
    )
    return tail <= _CHEB_TAIL * coef.max()


class _DensePairs:
    """Dense backend: stacked n x n pair matrices with zero diagonal."""

    def __init__(self, m: np.ndarray):
        self.m = m

    def sums(self):
        return _equation_sums(self.m), _boundary_sum(self.m)

    def bernoulli_sums(self, rows):
        # row by row, so the m(1-m) temporary stays n x n
        return _stack_sums(_bernoulli_sums(self.m[r]) for r in rows)

    def products(self, p: np.ndarray, out: np.ndarray) -> None:
        n = self.m.shape[-1]
        cross = self.m[..., : n - 1]
        np.matmul(cross, p[:, n:, None], out=out[:, :n, None])
        np.matmul(p[:, None, :n], cross, out=out[:, None, n:])

    def take(self, rows: np.ndarray) -> "_DensePairs":
        return _DensePairs(self.m[rows])


class _DenseIterate:
    """Dense backend at one iterate: the strength sums x_ij of stacked rows
    of free coordinates."""

    def __init__(self, free: np.ndarray, fns):
        self.fns = fns
        self.x = _strength_sums(free)

    def _eval(self, fn) -> _DensePairs:
        return _DensePairs(_zero_diagonal(np.asarray(fn(self.x), dtype=float)))

    def mu(self) -> _DensePairs:
        return self._eval(self.fns[0])

    def mu_prime(self) -> _DensePairs:
        return self._eval(self.fns[1])


class _ChebPairs:
    """Compressed backend for one row: f(alpha_i + beta_j) as
    L_a C L_b^T - diag(d), with d_i = f(alpha_i + beta_i) exact."""

    def __init__(self, la, lb, c, d):
        self.la, self.lb, self.c, self.d = la, lb, c, d

    def sums(self):
        n = self.d.size
        rows = self.la @ (self.c @ self.lb.sum(axis=0)) - self.d
        cols = self.lb @ (self.c.T @ self.la.sum(axis=0)) - self.d
        return np.concatenate([rows, cols[: n - 1]])[None], cols[None, n - 1]

    def bernoulli_sums(self, rows):
        # rows can only be [0]: this backend holds one row
        c, d = self.c, self.d
        return _ChebPairs(self.la, self.lb, c * (1.0 - c), d * (1.0 - d)).sums()

    def products(self, p: np.ndarray, out: np.ndarray) -> None:
        # one small matmul chain per row of p, so a row's floats do not
        # depend on how many rows share this operator
        n = self.d.size
        la, lb, c, d = self.la, self.lb[: n - 1], self.c, self.d[: n - 1]
        np.matmul(p[:, None, n:] @ lb @ c.T, la.T, out=out[:, None, :n])
        np.matmul(p[:, None, :n] @ la @ c, lb.T, out=out[:, None, n:])
        out[:, : n - 1] -= d * p[:, n:]
        out[:, n:] -= d * p[:, : n - 1]


class _ChebIterate:
    """Compressed backend at one iterate, for one row: mu and mu' are built
    up front, because their grids' tails decide the backend."""

    def __init__(self, mu: _ChebPairs, mu_prime: _ChebPairs):
        self._mu, self._mu_prime = mu, mu_prime

    def mu(self) -> _ChebPairs:
        return self._mu

    def mu_prime(self) -> _ChebPairs:
        return self._mu_prime


def _cheb_iterate(free: np.ndarray, fns) -> _ChebIterate | None:
    """The compressed backend of one row of free coordinates, or None when
    its box is too wide for _CHEB_NODES nodes."""
    n = (free.size + 1) // 2
    alpha, beta = free[:n], np.append(free[n:], 0.0)
    la, nodes_a = _barycentric(alpha)
    lb, nodes_b = _barycentric(beta)
    grid = nodes_a[:, None] + nodes_b[None, :]
    mu, mu_prime = (np.asarray(fn(grid), dtype=float) for fn in fns)
    if not all(_cheb_resolved(c) for c in (mu, mu_prime, mu * (1.0 - mu))):
        return None
    diag = alpha + beta
    return _ChebIterate(
        *(_ChebPairs(la, lb, c, np.asarray(fn(diag), dtype=float))
          for c, fn in zip((mu, mu_prime), fns))
    )


def _stack_sums(sums) -> tuple[np.ndarray, np.ndarray]:
    """Stack (equation sums, boundary sum) pairs row-wise."""
    eq, bd = zip(*sums)
    return np.vstack(eq), np.hstack(bd)


class _Pairs:
    """Pair matrices with zero diagonal for stacked rows, each held by its
    row's backend.  One part serves all rows (and a part with one row is
    shared by every row it is applied to), or parts[r] serves row r.

    At an iterate, mu() and mu_prime() give the pair matrices of mu and mu';
    those give sums() (equation sums and boundary sum), bernoulli_sums(rows)
    (the same of mu(1-mu), for the given rows) and products(p, out) (the
    two cross-block products W[:, :n-1] p_b and p_a W[:, :n-1] per row).
    """

    def __init__(self, parts: list):
        self.parts = parts

    def mu(self) -> "_Pairs":
        return _Pairs([part.mu() for part in self.parts])

    def mu_prime(self) -> "_Pairs":
        return _Pairs([part.mu_prime() for part in self.parts])

    def take(self, rows: np.ndarray) -> "_Pairs":
        """The rows where the boolean mask rows holds."""
        if rows.all():
            return self
        if not rows.any():
            return _Pairs([])
        if len(self.parts) == 1:  # a dense stack
            return _Pairs([self.parts[0].take(rows)])
        return _Pairs([part for part, keep in zip(self.parts, rows) if keep])

    def sums(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self.parts) == 1:
            return self.parts[0].sums()
        return _stack_sums(part.sums() for part in self.parts)

    def bernoulli_sums(self, rows) -> tuple[np.ndarray, np.ndarray]:
        if len(self.parts) == 1:
            return self.parts[0].bernoulli_sums(rows)
        return _stack_sums(self.parts[r].bernoulli_sums([0]) for r in rows)

    def products(self, p: np.ndarray, out: np.ndarray) -> None:
        if len(self.parts) == 1:
            self.parts[0].products(p, out)
            return
        for r, part in enumerate(self.parts):
            part.products(p[r : r + 1], out[r : r + 1])


def _pairs(free: np.ndarray, model: EdgeMeanModel) -> _Pairs:
    """The pair operator at stacked free coordinates: dense below
    _DENSE_BELOW nodes, else row by row compressed where the box allows."""
    fns = (model.mu, model.mu_prime)
    n = (free.shape[-1] + 1) // 2
    if n < _DENSE_BELOW:
        return _Pairs([_DenseIterate(free, fns)])
    return _Pairs(
        [_cheb_iterate(row, fns) or _DenseIterate(row[None], fns) for row in free]
    )
