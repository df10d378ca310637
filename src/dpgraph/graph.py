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

    The plain form -- leading blank, '#' and header lines, then only
    ASCII digits, spaces, tabs and LF or CRLF line ends, with two ids of
    at most 18 digits on each non-blank line -- is parsed in one
    vectorized pass.  Any other text is parsed line by line, which
    accepts the same format and raises the same errors with the same
    line numbers.
    """
    edges = _parse_plain(text)
    if edges is None:
        edges = _parse_lines(text)
    return _edge_graph(*edges)


# longest id in the plain form: 18 digits stay below 2^63
_PLAIN_DIGITS = 18
# the plain form's body is read in pieces of about this many characters,
# each ending at a line end, which bounds the pass's working memory
_PLAIN_CHUNK = 1 << 20


def _parse_plain(text: str) -> tuple[np.ndarray, np.ndarray, int | None] | None:
    """(srcs, dsts, declared n) of an edge list in the plain form, read in
    one vectorized pass over its bytes (in pieces of about 1 MiB); None
    for any other text, which `_parse_lines` then reads (and, if
    malformed, reports with its line number).

    The plain form is: leading blank, '#' and "n=<count>" header lines
    with LF or CRLF ends, then a body of ASCII digits, spaces, tabs, LF
    and CR (only directly before LF) where every non-blank line holds two
    ids of at most 18 digits, each id >= 1 and no self-loop.
    """
    declared_n = None
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        raw = text[pos:end].removesuffix("\r")
        if raw and raw.splitlines() != [raw]:
            return None  # a line break other than LF or CRLF
        line = raw.strip()
        if line and not line.startswith("#"):
            if declared_n is not None or not line.startswith("n="):
                break
            try:
                declared_n = int(line[2:])
            except ValueError:
                return None
            if declared_n < 2:
                return None
        pos = end + 1

    pieces = [np.empty(0, dtype=np.int64)]
    while pos < len(text):
        end = text.find("\n", pos + _PLAIN_CHUNK)
        end = len(text) if end < 0 else end + 1
        ids = _plain_ids(text[pos:end])
        if ids is None:
            return None
        pieces.append(ids)
        pos = end
    ids = np.concatenate(pieces)
    srcs, dsts = ids[0::2], ids[1::2]
    if srcs.size and (min(srcs.min(), dsts.min()) < 1 or (srcs == dsts).any()):
        return None
    return srcs, dsts, declared_n


def _plain_ids(lines: str) -> np.ndarray | None:
    """The ids of whole plain-form body lines, in order, or None if the
    lines are not in the plain form."""
    if not lines.isascii():
        return None
    b = np.frombuffer(lines.encode("ascii"), dtype=np.uint8)
    # run[1:-1] marks digits: every other plain byte lies below "0"
    run = np.zeros(b.size + 2, dtype=bool)
    run[1:-1] = b >= 0x30
    spaces = sum(np.count_nonzero(b == c) for c in b" \t\n\r")
    if b.max() > 0x39 or np.count_nonzero(run) + spaces != b.size:
        return None
    after_cr = np.flatnonzero(b == 0x0D) + 1
    if after_cr.size and (after_cr[-1] == b.size or (b[after_cr] != 0x0A).any()):
        return None

    # ids are the maximal runs of digits, bytes [starts, stops)
    bounds = np.flatnonzero(run[1:] != run[:-1])
    starts, stops = bounds[0::2], bounds[1::2]
    lengths = stops - starts
    longest = int(lengths.max(initial=0))
    if longest > _PLAIN_DIGITS or starts.size % 2:
        return None
    if starts.size:
        # breaks[j]: an LF lies between the ends of ids j and j + 1; each
        # line holds two ids when ids alternate in-line and across lines
        breaks = np.logical_or.reduceat(b[: stops[-1]] == 0x0A, stops[:-1])
        if breaks[0::2].any() or not breaks[1::2].all():
            return None

    digits = b - 0x30  # digit values; other bytes wrap and are never read
    ids = digits[starts].astype(np.int64)
    for k in range(1, longest):
        more = np.flatnonzero(lengths > k)
        ids[more] = ids[more] * 10 + digits[starts[more] + k]
    return ids


def _parse_lines(text: str) -> tuple[list[int], list[int], int | None]:
    """(srcs, dsts, declared n) of an edge list, read one line at a time.

    Accepts every form `parse_edge_list` documents and raises its
    per-line errors; the tests compare `_parse_plain` against it.
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
    return srcs, dsts, declared_n


def _edge_graph(srcs, dsts, declared_n: int | None) -> DirectedGraph:
    """The graph of parsed edges: checks the node count, collapses
    duplicates and logs how many collapsed."""
    max_id = int(max(np.max(srcs, initial=0), np.max(dsts, initial=0)))
    n = declared_n if declared_n is not None else max_id
    if n < 2:
        raise EdgeListParseError("edge list defines fewer than 2 nodes")
    if max_id > n:
        raise EdgeListParseError(f"node id {max_id} exceeds declared n={n}")

    adj = np.zeros((n, n), dtype=bool)
    rows = np.asarray(srcs, dtype=np.intp) - 1
    adj[rows, np.asarray(dsts, dtype=np.intp) - 1] = True
    duplicates = len(srcs) - np.count_nonzero(adj)
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
