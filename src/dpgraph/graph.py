"""Directed graphs, bi-degree sequences, sampling, and edge-list I/O.

Graphs are simple: binary adjacency, no self-loops, no multiplicity.
Node ids in edge-list files are 1-based.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EdgeListParseError, brief
from .model import EdgeMeanModel
from .pairs import _pair_matrix

logger = logging.getLogger(__name__)


def _owned(obj, name: str, values, dtype) -> np.ndarray:
    """Hold values as obj.name, a read-only array of dtype, and return it: a
    read-only array of that dtype as it is (its owner must not change it),
    anything else as a frozen copy, so a caller's array stays writeable."""
    arr = np.asarray(values)
    if arr.dtype != dtype or arr.flags.writeable:
        arr = np.array(arr, dtype=dtype)
        arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Dense adjacency on n >= 2 nodes; entry [i, j] is the edge i -> j.

    Like every value type it holds its array through `_owned`: a read-only
    bool array without a copy (an n x n adjacency may be most of a run's
    memory), any other input as a frozen copy.  == is identity.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.adjacency)
        if raw.dtype != bool and not np.isin(raw, (0, 1)).all():
            raise DomainError("adjacency entries must be 0/1 indicators")
        adj = _owned(self, "adjacency", raw, bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise DomainError("adjacency must be a square matrix")
        if adj.shape[0] < 2:
            raise DomainError("graph needs at least 2 nodes")
        if adj.diagonal().any():
            raise DomainError("self-loops are not allowed")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum())


def _int64_entries(values) -> np.ndarray:
    """values as an array, checked to fit int64: a non-finite or
    non-integer entry, or one of magnitude 2^63 or more, raises
    DomainError.  Integer and bool arrays pass unchecked."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "biu":
        x = np.asarray(raw, dtype=float)
        if not np.all((x == np.rint(x)) & (np.abs(x) < 2.0**63)):
            raise DomainError("degree entries must be finite integers below 2^63")
    return raw


@dataclass(frozen=True, eq=False)
class BiDegree:
    """Out- and in-degree vectors of a directed graph."""

    out_deg: np.ndarray
    in_deg: np.ndarray

    def __post_init__(self):
        out = _owned(self, "out_deg", _int64_entries(self.out_deg), np.int64)
        inn = _owned(self, "in_deg", _int64_entries(self.in_deg), np.int64)
        if out.ndim != 1 or out.shape != inn.shape:
            raise DomainError("degree vectors must be 1-D and equal length")
        if out.sum() != inn.sum():
            raise DomainError("out- and in-degree totals must agree")

    @property
    def n(self) -> int:
        return self.out_deg.shape[0]


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Node strengths (alpha_1..alpha_n, beta_1..beta_n) with beta_n pinned to 0.

    The pin removes the one flat direction of the unpinned family, where
    adding c to every alpha and subtracting it from every beta would leave
    all strength sums unchanged.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = _owned(self, "alpha", self.alpha, float)
        b = _owned(self, "beta", self.beta, float)
        if a.ndim != 1 or a.shape != b.shape:
            raise DomainError("alpha and beta must be 1-D and equal length")
        if a.shape[0] < 2:
            raise DomainError("need at least 2 nodes")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise DomainError("parameters must be finite")
        if b[-1] != 0.0:
            raise DomainError("beta_n must be exactly 0")

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
        full = np.append(free, 0.0)  # a fresh copy, which the vector keeps
        full.flags.writeable = False
        return cls(alpha=full[:n], beta=full[n:])

    @classmethod
    def zeros(cls, n: int) -> "ParameterVector":
        return cls(alpha=np.zeros(n), beta=np.zeros(n))


def _draw_graph(p: np.ndarray, rng: np.random.Generator) -> DirectedGraph:
    """One graph with independent edges i -> j of probability p[i, j].

    p must have a zero diagonal: random() < 0 never holds, so that alone
    excludes self-loops.
    """
    adj = rng.random(p.shape) < p
    adj.flags.writeable = False
    return DirectedGraph(adjacency=adj)


def sample_graph(
    theta: ParameterVector, model: EdgeMeanModel, rng: np.random.Generator
) -> DirectedGraph:
    """Draw each ordered pair (i, j), i != j, as an independent Bernoulli
    with success probability mu(alpha_i + beta_j)."""
    return _draw_graph(_pair_matrix(theta, model.mu), rng)


def degrees(g: DirectedGraph) -> BiDegree:
    """Row sums give out-degrees, column sums give in-degrees."""
    adj = g.adjacency
    out, inn = adj.sum(axis=1, dtype=np.int64), adj.sum(axis=0, dtype=np.int64)
    out.flags.writeable = inn.flags.writeable = False  # fresh: BiDegree keeps them
    return BiDegree(out_deg=out, in_deg=inn)


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

    The leading blank, '#' and header lines are read line by line.  A
    body in the plain form -- only ASCII digits, spaces, tabs and LF or
    CRLF line ends, with two ids of at most 18 digits on each non-blank
    line -- is then parsed vectorized, piece by piece: a piece of
    "<id><SP|TAB><id>\n" lines alone in one check of its separators, any
    other plain piece with its blank runs collapsed first.  Any other text
    is parsed line by line as a whole.  All paths accept the same format
    and raise the same errors with the same line numbers.
    """
    edges = _parse_plain(text)
    if edges is None:
        edges = _parse_lines(text)
    return _edge_graph(*edges)


# longest id in the plain form: 18 digits stay below 2^63
_PLAIN_DIGITS = 18
# the plain form's body is read in pieces of about this many characters,
# each ending at a line end, so that a piece's byte, separator and id
# arrays stay cache-sized: on a 3.9 MB list, pieces of 32 to 256 KiB ran
# about as fast as each other, and pieces of 8 KiB or 1 MiB slower.  Its
# privatize call read 37.8-43.9 ms with 256 KiB pieces and 44.3-54.3 ms
# with 64 KiB (medians of 25 calls in each of 4 processes a side); 2 of
# the 256 KiB processes took 5 minor page faults a call, the others and
# every 64 KiB one 400 to 2,000.  Those figures predate the one-separator
# check, which took `_parse_plain` on that list from 30 to 22 ms (min of
# 40 calls on a 2-vCPU VM); the size was not tuned again since
_PLAIN_CHUNK = 1 << 18
# the leading lines that are blank or start with '#' or 'n', each ended by
# LF or the end of the text: a loose scan, and `_parse_lines` decides what
# the lines it finds mean
_PREAMBLE = re.compile(r"(?:[ \t\r]*(?:[#n][^\n]*)?(?:\n|\Z))*")


def _parse_plain(text: str) -> tuple[np.ndarray, np.ndarray, int | None] | None:
    """(srcs, dsts, declared n) of an edge list whose body is in the plain
    form, read vectorized from its bytes in pieces of about 256 KiB;
    None for any other text, which `_parse_lines` then reads whole.

    The leading blank, '#' and header lines go to `_parse_lines`, which
    raises on a malformed header as it would on the whole text.  The plain
    body is ASCII digits, spaces, tabs, LF and CR (only directly before
    LF), where every non-blank line holds two ids of at most 18 digits,
    each id >= 1 and no self-loop.
    """
    pos = _PREAMBLE.match(text).end()
    srcs, _, declared_n = _parse_lines(text[:pos])
    if srcs:
        return None  # a line break other than LF or CRLF split off an edge

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
    return ids[0::2], ids[1::2], declared_n


def _plain_ids(lines: str) -> np.ndarray | None:
    """The ids of whole plain-form body lines, in order, or None if the
    lines are not in the plain form or hold an id < 1 or a self-loop.

    Lines that pass `_one_separator` take their ids straight from the
    separator positions; any other piece has its runs of blanks collapsed
    and its line ends checked first."""
    if not lines.isascii():
        return None
    b = np.frombuffer(lines.encode("ascii"), dtype=np.uint8)
    if b.max() > 0x39:
        return None
    # every other plain byte lies below "0": the separators, at sep; the
    # checks below read only them (s) and the digits are the bytes between:
    # gaps[j] digits before separator j, and gaps[-1] after the last one
    sep = np.flatnonzero(b < 0x30)
    s = b[sep]
    bounds = np.concatenate(([-1], sep, [b.size]))
    gaps = np.diff(bounds) - 1
    if _one_separator(s, gaps):
        # each separator ends the id before it
        last, lengths = sep - 1, gaps[:-1]
    else:
        if sum(np.count_nonzero(s == c) for c in b" \t\n\r") != s.size:
            return None
        after_cr = sep[s == 0x0D] + 1
        if after_cr.size and (after_cr[-1] == b.size or (b[after_cr] != 0x0A).any()):
            return None
        # ids are the maximal runs of digits: id j fills the gap at[j]
        # between separators and has lfs[at[j]] LFs before it
        at = np.flatnonzero(gaps > 0)
        if at.size % 2:
            return None
        lfs = np.zeros(s.size + 1, dtype=np.intp)
        np.cumsum(s == 0x0A, out=lfs[1:])
        # each line holds two ids when ids alternate in-line and across lines
        steps = np.diff(lfs[at])
        if steps[0::2].any() or not steps[1::2].all():
            return None
        last, lengths = bounds[1:][at] - 1, gaps[at]
    longest = int(lengths.max(initial=0))
    if longest > _PLAIN_DIGITS:
        return None

    # id j ends at byte last[j] and is the sum of digits[last - k] * 10^k
    # over k below its length lengths[j]; bytes before it (a separator, or
    # wrapped round a piece's start) are scaled by 0, and each term is
    # widened to int64 before it is scaled, as numpy 1's value-based
    # casting would keep uint8 * 10^k narrow
    digits = b - 0x30
    ids = digits[last].astype(np.int64)
    for k in range(1, longest):
        ids += digits[last - k].astype(np.int64) * (lengths > k) * 10**k
    if ids.size and (ids.min() < 1 or (ids[0::2] == ids[1::2]).any()):
        return None
    return ids


def _one_separator(s: np.ndarray, gaps: np.ndarray) -> bool:
    """Whether a piece with separators s and gaps (as in `_plain_ids`) is
    "<id><SP|TAB><id>\n" lines alone: every separator directly follows a
    digit, space or tab and LF alternate from the first, and the piece ends
    at its last LF.  Such a piece needs no run collapsing or line check."""
    inline = s[0::2]
    return bool(gaps[-1] == 0 and s.size % 2 == 0 and gaps[:-1].all()
                and (s[1::2] == 0x0A).all() and ((inline == 0x20) | (inline == 0x09)).all())


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
                raise EdgeListParseError(f"bad node-count header {brief(line)}", line_no)
            if declared_n < 2:
                raise EdgeListParseError("declared n must be >= 2", line_no)
            saw_content = True
            continue
        saw_content = True
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"expected '<src> <dst>', got {brief(line)}", line_no)
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer node id in {brief(line)}", line_no)
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

    try:
        adj = np.zeros((n, n), dtype=bool)
    except ValueError:
        # numpy refuses outright a shape whose byte count overflows
        raise MemoryError(f"a {n} x {n} adjacency matrix") from None
    # edge i -> j is entry (i - 1) * n + (j - 1) of the flat adjacency
    flat = np.asarray(srcs, dtype=np.intp) * n + np.asarray(dsts, dtype=np.intp) - (n + 1)
    adj.reshape(-1)[flat] = True
    duplicates = len(srcs) - np.count_nonzero(adj)
    if duplicates:
        logger.warning("collapsed %d duplicate edge(s)", duplicates)
    adj.flags.writeable = False
    return DirectedGraph(adjacency=adj)


def to_edge_list_text(g: DirectedGraph) -> str:
    """Serialize a graph to the edge-list format accepted by parse_edge_list."""
    lines = [f"n={g.n}"]
    rows, cols = np.nonzero(g.adjacency)
    for i, j in zip(rows.tolist(), cols.tolist()):
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"
