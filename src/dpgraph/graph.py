"""Directed graphs, bi-degree sequences, sampling, and edge-list I/O.

Graphs are simple: binary adjacency, no self-loops, no multiplicity.
Node ids in edge-list files are 1-based.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EdgeListParseError
from .model import EdgeMeanModel
from .pairs import _pair_matrix

__all__ = [
    "DirectedGraph",
    "BiDegree",
    "ParameterVector",
    "sample_graph",
    "degrees",
    "expected_bidegree",
    "parse_edge_list",
    "to_edge_list_text",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DirectedGraph:
    """Dense adjacency on n >= 2 nodes; entry [i, j] is the edge i -> j."""

    adjacency: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.adjacency)
        if raw.dtype != bool and not np.isin(raw, (0, 1)).all():
            raise DomainError("adjacency entries must be 0/1 indicators")
        adj = raw.astype(bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise DomainError("adjacency must be a square matrix")
        if adj.shape[0] < 2:
            raise DomainError("graph needs at least 2 nodes")
        if adj.diagonal().any():
            raise DomainError("self-loops are not allowed")
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum())


def _int64_entries(values) -> np.ndarray:
    """values as int64; a non-finite or non-integer entry, or one of
    magnitude 2^63 or more, raises DomainError.  Integer and bool arrays
    pass unchecked."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "biu":
        x = np.asarray(raw, dtype=float)
        if not np.all((x == np.rint(x)) & (np.abs(x) < 2.0**63)):
            raise DomainError("degree entries must be finite integers below 2^63")
    return np.asarray(raw, dtype=np.int64)


@dataclass(frozen=True)
class BiDegree:
    """Out- and in-degree vectors of a directed graph."""

    out_deg: np.ndarray
    in_deg: np.ndarray

    def __post_init__(self):
        out = _int64_entries(self.out_deg)
        inn = _int64_entries(self.in_deg)
        if out.ndim != 1 or out.shape != inn.shape:
            raise DomainError("degree vectors must be 1-D and equal length")
        if out.sum() != inn.sum():
            raise DomainError("out- and in-degree totals must agree")
        out.flags.writeable = False
        inn.flags.writeable = False
        object.__setattr__(self, "out_deg", out)
        object.__setattr__(self, "in_deg", inn)

    @property
    def n(self) -> int:
        return self.out_deg.shape[0]


@dataclass(frozen=True)
class ParameterVector:
    """Node strengths (alpha_1..alpha_n, beta_1..beta_n) with beta_n pinned to 0.

    The pin removes the one flat direction of the unpinned family, where
    adding c to every alpha and subtracting it from every beta would leave
    all strength sums unchanged.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        b = np.asarray(self.beta, dtype=float)
        if a.ndim != 1 or a.shape != b.shape:
            raise DomainError("alpha and beta must be 1-D and equal length")
        if a.shape[0] < 2:
            raise DomainError("need at least 2 nodes")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise DomainError("parameters must be finite")
        if b[-1] != 0.0:
            raise DomainError("beta_n must be exactly 0")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    def to_free(self) -> np.ndarray:
        """Flatten to the free coordinates (alpha_1..alpha_n, beta_1..beta_{n-1})."""
        return np.concatenate([self.alpha, self.beta[:-1]])

    @classmethod
    def from_free(cls, free: np.ndarray) -> "ParameterVector":
        free = np.asarray(free, dtype=float)
        if free.ndim != 1 or free.shape[0] % 2 != 1:
            raise DomainError("free vector must have odd length 2n-1")
        n = (free.shape[0] + 1) // 2
        beta = np.zeros(n)
        beta[: n - 1] = free[n:]
        return cls(alpha=free[:n].copy(), beta=beta)

    @classmethod
    def zeros(cls, n: int) -> "ParameterVector":
        return cls(alpha=np.zeros(n), beta=np.zeros(n))


def _draw_graph(p: np.ndarray, rng: np.random.Generator) -> DirectedGraph:
    """One graph with independent edges i -> j of probability p[i, j].

    p must have a zero diagonal: random() < 0 never holds, so that alone
    excludes self-loops.
    """
    return DirectedGraph(adjacency=rng.random(p.shape) < p)


def sample_graph(
    theta: ParameterVector, model: EdgeMeanModel, rng: np.random.Generator
) -> DirectedGraph:
    """Draw each ordered pair (i, j), i != j, as an independent Bernoulli
    with success probability mu(alpha_i + beta_j)."""
    return _draw_graph(_pair_matrix(theta, model.mu), rng)


def degrees(g: DirectedGraph) -> BiDegree:
    """Row sums give out-degrees, column sums give in-degrees."""
    adj = g.adjacency
    return BiDegree(
        out_deg=adj.sum(axis=1, dtype=np.int64),
        in_deg=adj.sum(axis=0, dtype=np.int64),
    )


def expected_bidegree(
    theta: ParameterVector, model: EdgeMeanModel
) -> tuple[np.ndarray, np.ndarray]:
    """Expected (out, in) degree vectors: row/column sums of mu over all pairs."""
    p = _pair_matrix(theta, model.mu)
    return p.sum(axis=1), p.sum(axis=0)


def parse_edge_list(text: str) -> DirectedGraph:
    """Parse edge-list text into a graph.

    Format: one edge per line as "<src> <dst>" (whitespace separated,
    1-based ids); lines starting with '#' are comments; an optional first
    line "n=<count>" declares the node count (needed for isolated trailing
    nodes).  Duplicate edges collapse to one; a warning with the collapsed
    count is logged.  Self-loops and ids < 1 are rejected.
    """
    declared_n = None
    srcs: list[int] = []
    dsts: list[int] = []
    saw_content = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_content and line.startswith("n="):
            try:
                declared_n = int(line[2:])
            except ValueError:
                raise EdgeListParseError(f"bad node-count header {line!r}", line_no)
            if declared_n < 2:
                raise EdgeListParseError("declared n must be >= 2", line_no)
            saw_content = True
            continue
        saw_content = True
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"expected '<src> <dst>', got {line!r}", line_no)
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer node id in {line!r}", line_no)
        if src < 1 or dst < 1:
            raise EdgeListParseError("node ids must be >= 1", line_no)
        if src == dst:
            raise EdgeListParseError(f"self-loop at node {src}", line_no)
        srcs.append(src)
        dsts.append(dst)

    max_id = max(max(srcs, default=0), max(dsts, default=0))
    n = declared_n if declared_n is not None else max_id
    if n < 2:
        raise EdgeListParseError("edge list defines fewer than 2 nodes")
    if max_id > n:
        raise EdgeListParseError(f"node id {max_id} exceeds declared n={n}")

    adj = np.zeros((n, n), dtype=bool)
    rows = np.asarray(srcs, dtype=np.intp) - 1
    adj[rows, np.asarray(dsts, dtype=np.intp) - 1] = True
    duplicates = len(srcs) - int(adj.sum())
    if duplicates:
        logger.warning("collapsed %d duplicate edge(s)", duplicates)
    return DirectedGraph(adjacency=adj)


def to_edge_list_text(g: DirectedGraph) -> str:
    """Serialize a graph to the edge-list format accepted by parse_edge_list."""
    lines = [f"n={g.n}"]
    rows, cols = np.nonzero(g.adjacency)
    for i, j in zip(rows.tolist(), cols.tolist()):
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"
