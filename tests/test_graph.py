"""Graphs, degrees, sampling, and edge-list round trips."""

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpgraph import graph
from dpgraph import (
    BiDegree,
    DirectedGraph,
    DomainError,
    EdgeListParseError,
    NoisyBiDegree,
    PROBIT,
    ParameterVector,
    PrivacyParams,
    degrees,
    expected_bidegree,
    parse_edge_list,
    sample_graph,
    to_edge_list_text,
)

from conftest import LAWYER_BIDEGREES

# Edge-list texts for the parser equivalence test.  Ids and node counts stay
# small (n is the side of the adjacency); their spellings vary.  Plain-form
# texts use ids 1..12, zero-padded to at most 18 digits, any mix of space
# and tab separators, blank and comment lines, LF or CRLF ends and an
# optional missing final newline.  A near miss adds one line that leaves
# the plain form or breaks a per-line rule.
_WIDTHS = st.sampled_from([1, 3, 18])
_PAD = st.sampled_from(["", " ", "\t"])
_EDGE_LINES = st.builds(
    lambda ids, widths, pads, sep: (
        f"{pads[0]}{str(ids[0]).zfill(widths[0])}{sep}"
        f"{str(ids[1]).zfill(widths[1])}{pads[1]}"
    ),
    st.lists(st.integers(1, 12), min_size=2, max_size=2, unique=True),
    st.tuples(_WIDTHS, _WIDTHS),
    st.tuples(_PAD, _PAD),
    st.sampled_from([" ", "\t", " \t "]),
)
_FILLER_LINES = st.sampled_from(["", " \t", "# comment", "#"])
_NEAR_MISSES = st.sampled_from([
    "0 3", "4 4", "99 2", "-1 2", "+3 2", "3 +2", "1 2 3", "1 2 3 4", "5",
    "# mid-body comment", "1 2 #c", "x 2", "1.0 2", "n=4", "n=1",
    "0000000000000000003 2", "2 0000000000000000000001", "99999999999999999999 2",
    "1\r2", "1\x0c2", "\u0661 2", "1\u00a02",
])


@st.composite
def _edge_list_texts(draw, near_miss: bool) -> str:
    lines = draw(st.lists(_FILLER_LINES, max_size=2))
    n = draw(st.none() | st.integers(2, 14))
    if n is not None:
        lines.append(f"n={n}")
    lines += draw(st.lists(_FILLER_LINES, max_size=2))
    lines += draw(st.lists(_EDGE_LINES | st.sampled_from(["", " \t"]), max_size=8))
    if near_miss:
        lines.insert(draw(st.integers(0, len(lines))), draw(_NEAR_MISSES))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def _reference_parse(text: str) -> DirectedGraph:
    """parse_edge_list through the line-by-line reader alone."""
    return graph._edge_graph(*graph._parse_lines(text))


def _parse_outcome(parse, text: str):
    """(n, adjacency bytes, log messages) of a parse, or the exception's
    (type, message)."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    log = logging.getLogger("dpgraph.graph")
    log.addHandler(handler)
    try:
        g = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    finally:
        log.removeHandler(handler)
    return g.n, g.adjacency.tobytes(), [r.getMessage() for r in records]


def _bench_shaped_text(n: int, seed: int) -> str:
    """A header and every edge of a half-dense random graph, one per line."""
    adj = np.random.default_rng(seed).random((n, n)) < 0.5
    np.fill_diagonal(adj, False)
    return to_edge_list_text(DirectedGraph(adjacency=adj))


def brute_force_expected_degrees(theta, model):
    """Independent oracle: expected degrees by explicit double loop."""
    n = theta.n
    out = np.zeros(n)
    inn = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if i != j:
                p = model.mu(theta.alpha[i] + theta.beta[j])
                out[i] += p
                inn[j] += p
    return out, inn


class TestDirectedGraph:
    def test_rejects_self_loops(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[1, 1] = True
        with pytest.raises(DomainError):
            DirectedGraph(adjacency=adj)

    def test_rejects_tiny(self):
        with pytest.raises(DomainError):
            DirectedGraph(adjacency=np.zeros((1, 1), dtype=bool))
        with pytest.raises(DomainError, match="adjacency must be a square matrix"):
            DirectedGraph(adjacency=np.zeros((3, 4), dtype=bool))

    def test_immutable(self):
        g = DirectedGraph(adjacency=np.zeros((3, 3), dtype=bool))
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = True

    def test_read_only_bool_input_is_held_without_copy(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj.flags.writeable = False
        assert np.shares_memory(DirectedGraph(adjacency=adj).adjacency, adj)

    def test_writeable_input_is_copied_and_stays_writeable(self):
        adj = np.zeros((4, 4), dtype=bool)
        g = DirectedGraph(adjacency=adj)
        assert not np.shares_memory(g.adjacency, adj)
        adj[0, 1] = True
        assert g.edge_count == 0


# each value type made from an array, and the array it then holds
_HOLDERS = {
    "BiDegree": (
        np.array([1, 1, 1, 0]),
        lambda a: BiDegree(out_deg=a, in_deg=[1, 1, 0, 1]).out_deg,
    ),
    "NoisyBiDegree": (
        np.array([3, -1, 0, 2]),
        lambda a: NoisyBiDegree(a, [0, 0, 0, 0], PrivacyParams(1.0)).z_out,
    ),
    "ParameterVector": (
        np.array([0.5, 0.0, -0.5]),
        lambda a: ParameterVector(alpha=a, beta=np.zeros(3)).alpha,
    ),
    "from_free": (
        np.array([0.5, 0.0, -0.5, 0.25, 0.1]),
        lambda a: ParameterVector.from_free(a).alpha,
    ),
}


class TestValueTypeArrays:
    """The rule DirectedGraph's tests above pin, for the other value types."""

    @pytest.mark.parametrize("name", _HOLDERS)
    def test_writeable_input_is_copied_and_stays_writeable(self, name):
        values, held_by = _HOLDERS[name]
        a = values.copy()
        held = held_by(a)
        assert a.flags.writeable and not np.shares_memory(held, a)
        a[0] += 1
        assert held[0] == values[0]
        with pytest.raises(ValueError):
            held[0] = 0

    @pytest.mark.parametrize("name", ["BiDegree", "NoisyBiDegree", "ParameterVector"])
    def test_read_only_input_of_its_dtype_is_held_without_copy(self, name):
        values, held_by = _HOLDERS[name]
        a = values.copy()
        a.flags.writeable = False
        assert np.shares_memory(held_by(a), a)


class TestDegrees:
    def test_empty(self):
        d = degrees(DirectedGraph(adjacency=np.zeros((5, 5), dtype=bool)))
        assert d.out_deg.tolist() == [0] * 5
        assert d.in_deg.tolist() == [0] * 5

    def test_complete(self):
        adj = ~np.eye(4, dtype=bool)
        d = degrees(DirectedGraph(adjacency=adj))
        assert d.out_deg.tolist() == [3, 3, 3, 3]
        assert d.in_deg.tolist() == [3, 3, 3, 3]

    def test_three_cycle(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 2] = adj[2, 0] = True
        d = degrees(DirectedGraph(adjacency=adj))
        assert d.out_deg.tolist() == [1, 1, 1]
        assert d.in_deg.tolist() == [1, 1, 1]

    def test_totals_always_match(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            adj = rng.random((8, 8)) < 0.4
            np.fill_diagonal(adj, False)
            d = degrees(DirectedGraph(adjacency=adj))
            assert d.out_deg.sum() == d.in_deg.sum()


class TestBiDegree:
    @pytest.mark.parametrize(
        "out_deg", [[1.7, 1.2, 0.9], [1.0, np.nan, 0.0]], ids=["fraction", "nan"]
    )
    def test_rejects_non_integer_entries(self, out_deg):
        with pytest.raises(DomainError):
            BiDegree(out_deg=out_deg, in_deg=[1, 1, 0])
        with pytest.raises(DomainError, match="must be 1-D and equal length"):
            BiDegree(out_deg=[1, 1], in_deg=[1, 1, 0])
        with pytest.raises(DomainError, match="totals must agree"):
            BiDegree(out_deg=[1, 1, 1], in_deg=[1, 1, 0])

    def test_integral_floats_become_counts(self):
        d = BiDegree(out_deg=[1.0, 1.0, 0.0], in_deg=np.array([True, True, False]))
        assert d.out_deg.dtype == d.in_deg.dtype == np.int64
        assert d.out_deg.tolist() == d.in_deg.tolist() == [1, 1, 0]


class TestParameterVector:
    def test_pins_last_beta(self):
        with pytest.raises(DomainError):
            ParameterVector(alpha=np.zeros(3), beta=np.array([0.0, 0.0, 0.1]))
        with pytest.raises(DomainError, match="must be 1-D and equal length"):
            ParameterVector(alpha=np.zeros(3), beta=np.zeros(2))
        with pytest.raises(DomainError, match="need at least 2 nodes"):
            ParameterVector(alpha=np.zeros(1), beta=np.zeros(1))
        with pytest.raises(DomainError, match="odd length 2n-1"):
            ParameterVector.from_free(np.zeros(4))

    def test_free_round_trip(self):
        rng = np.random.default_rng(1)
        free = rng.normal(size=9)
        theta = ParameterVector.from_free(free)
        np.testing.assert_array_equal(theta.to_free(), free)
        assert theta.beta[-1] == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ParameterVector(alpha=np.array([np.nan, 0.0]), beta=np.zeros(2))


class TestSampleGraph:
    def test_deterministic_given_seed(self):
        theta = ParameterVector.zeros(15)
        a = sample_graph(theta, PROBIT, np.random.default_rng(9)).adjacency
        b = sample_graph(theta, PROBIT, np.random.default_rng(9)).adjacency
        np.testing.assert_array_equal(a, b)

    def test_zero_parameters_give_half_density(self):
        theta = ParameterVector.zeros(40)
        rng = np.random.default_rng(2)
        edges = sum(
            sample_graph(theta, PROBIT, rng).edge_count for _ in range(60)
        )
        total = 60 * 40 * 39
        se = np.sqrt(total * 0.25)
        assert abs(edges - 0.5 * total) <= 3 * se

    def test_strongly_negative_parameters_give_empty_graph(self):
        theta = ParameterVector(alpha=np.full(20, -10.0), beta=np.zeros(20))
        g = sample_graph(theta, PROBIT, np.random.default_rng(3))
        assert g.edge_count == 0

    def test_mean_degrees_match_expectation(self):
        # Monte-Carlo check of the sampler against the expected-degree map
        rng = np.random.default_rng(17)
        n, reps = 20, 10000
        alpha = rng.uniform(-0.8, 0.8, n)
        beta = rng.uniform(-0.8, 0.8, n)
        beta[-1] = 0.0
        theta = ParameterVector(alpha=alpha, beta=beta)
        exp_out, exp_in = expected_bidegree(theta, PROBIT)
        sum_out = np.zeros(n)
        sum_in = np.zeros(n)
        for _ in range(reps):
            d = degrees(sample_graph(theta, PROBIT, rng))
            sum_out += d.out_deg
            sum_in += d.in_deg
        # each degree is a sum of n-1 Bernoullis; variance bounded by (n-1)/4
        se = np.sqrt((n - 1) / 4.0 / reps)
        assert np.all(np.abs(sum_out / reps - exp_out) <= 3 * se)
        assert np.all(np.abs(sum_in / reps - exp_in) <= 3 * se)


class TestRampDesignSampling:
    def test_top_node_mean_out_degree(self):
        # linear ramp truth at n = 100: the first node's average out-degree
        # over replications must match its expected-degree sum
        n = 100
        height = np.log(np.log(n))
        i = np.arange(n)
        alpha = (n - 1 - i) * height / (n - 1)
        beta = alpha.copy()
        beta[-1] = 0.0
        theta = ParameterVector(alpha=alpha, beta=beta)
        exp_out, _ = expected_bidegree(theta, PROBIT)
        x = alpha[0] + beta
        p = np.asarray(PROBIT.mu(x))
        p[0] = 0.0
        var_out = float((p * (1 - p)).sum())
        rng = np.random.default_rng(71)
        reps = 2000
        total = sum(
            int(degrees(sample_graph(theta, PROBIT, rng)).out_deg[0])
            for _ in range(reps)
        )
        se = np.sqrt(var_out / reps)
        assert abs(total / reps - exp_out[0]) <= 3 * se


class TestExpectedBidegree:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        alpha = rng.uniform(-1, 1, 7)
        beta = rng.uniform(-1, 1, 7)
        beta[-1] = 0.0
        theta = ParameterVector(alpha=alpha, beta=beta)
        exp_out, exp_in = expected_bidegree(theta, PROBIT)
        oracle_out, oracle_in = brute_force_expected_degrees(theta, PROBIT)
        np.testing.assert_allclose(exp_out, oracle_out, atol=1e-12)
        np.testing.assert_allclose(exp_in, oracle_in, atol=1e-12)


class TestEdgeListParsing:
    def test_basic(self):
        g = parse_edge_list("1 2\n2 3\n")
        assert g.n == 3
        d = degrees(g)
        assert d.out_deg.tolist() == [1, 1, 0]
        assert d.in_deg.tolist() == [0, 1, 1]

    def test_self_loop_reports_line(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            parse_edge_list("3 3\n")

    def test_bad_node_id(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse_edge_list("1 2\n0 2\n")

    def test_malformed_line(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            parse_edge_list("1 2\n2 3\n1 2 3\n")

    def test_comments_and_header(self):
        g = parse_edge_list("# a comment\nn=5\n1 2\n\n2 1\n")
        assert g.n == 5
        assert g.edge_count == 2

    def test_parse_holds_one_adjacency(self):
        # the parsed n x n bool matrix goes to the graph without a copy
        n = 3000
        tracemalloc.start()
        try:
            parse_edge_list(f"n={n}\n1 2\n2 3\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n

    def test_header_only_gives_isolated_nodes(self, caplog):
        with caplog.at_level(logging.WARNING, logger="dpgraph.graph"):
            g = parse_edge_list("n=3\n")
        assert g.n == 3 and g.edge_count == 0
        assert caplog.text == ""

    def test_header_must_cover_max_id(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("n=2\n1 3\n")

    def test_duplicates_collapse_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="dpgraph.graph"):
            g = parse_edge_list("1 2\n1 2\n2 1\n1 2\n")
        assert g.edge_count == 2
        assert "2 duplicate" in caplog.text

    def test_round_trip(self):
        rng = np.random.default_rng(31)
        adj = rng.random((12, 12)) < 0.3
        np.fill_diagonal(adj, False)
        g = DirectedGraph(adjacency=adj)
        g2 = parse_edge_list(to_edge_list_text(g))
        np.testing.assert_array_equal(g.adjacency, g2.adjacency)

    def test_crlf_and_tab_separators(self):
        g = parse_edge_list("n=3\r\n1\t2\r\n2 3\r\n")
        assert g.n == 3 and g.edge_count == 2

    @given(text=_edge_list_texts(near_miss=False) | _edge_list_texts(near_miss=True))
    # near misses that only show in one place: a second header, a huge id
    # after a header, a lone CR inside a comment, and lines of 1 and 3 or
    # of 4 ids, whose id count is still even
    @example(text="n=5\nn=4\n1 2\n")
    @example(text="n=5\n99999999999999999999 2\n")
    @example(text="# c\r5 6\n1 2\n")
    @example(text="1 2 3\n4\n")
    @example(text="1 2 3 4\n")
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    def test_matches_line_by_line_reference(self, text):
        assert _parse_outcome(parse_edge_list, text) == _parse_outcome(_reference_parse, text)

    @pytest.mark.parametrize("text", [
        _bench_shaped_text(40, seed=3),
        "# Directed graph: toy.txt\n# Nodes: 5 Edges: 4\n# FromNodeId\tToNodeId\n"
        "n=5\n1\t2\n2\t3\n3\t1\n4\t5\n",
        "\n# c\r\nn=4\r\n# c\r\n 001  2 \r\n\r\n3\t000000000000000004\r\n4 1",
        "1 2\n2 1\n1 2\n",
        "n=3\n",
    ], ids=["bench", "snap", "crlf-padding", "duplicates", "header-only"])
    def test_plain_form_takes_the_vectorized_path(self, text, monkeypatch):
        expected = _parse_outcome(_reference_parse, text)

        def line_loop(text):
            raise AssertionError("plain-form text fell back to the line loop")

        monkeypatch.setattr(graph, "_parse_lines", line_loop)
        assert _parse_outcome(parse_edge_list, text) == expected

    @pytest.mark.parametrize("bad, message", [
        ("x", "non-integer node id"),
        ("\r", "expected '<src> <dst>'"),
    ], ids=["letter", "lone-cr"])
    def test_non_plain_byte_in_last_piece_falls_back(self, bad, message, monkeypatch):
        text = _bench_shaped_text(200, seed=5)
        assert len(text) > 2 * graph._PLAIN_CHUNK  # several pieces
        head, last = text.rstrip("\n").rsplit("\n", 1)
        src, dst = last.split()
        text = f"{head}\n{src} {bad}{dst}\n"
        expected = _parse_outcome(_reference_parse, text)
        assert expected[0] is EdgeListParseError
        assert expected[1].startswith(f"line {text.count(chr(10))}: {message}")
        line_loop, calls = graph._parse_lines, []
        monkeypatch.setattr(graph, "_parse_lines", lambda t: calls.append(t) or line_loop(t))
        assert _parse_outcome(parse_edge_list, text) == expected
        assert calls == [text]

    @pytest.mark.parametrize("text", [
        "1\n2\n", "1\n2 3\n4\n", "1 2 3\n4\n", "1 2 3 4\n", "1 2\r", "1 2\r\r\n",
    ])
    def test_lines_not_of_two_ids_or_a_lone_cr_leave_the_plain_form(self, text):
        assert graph._plain_ids(text) is None
        assert _parse_outcome(parse_edge_list, text) == _parse_outcome(_reference_parse, text)

    def test_long_and_short_ids_in_one_piece(self):
        # from the third digit on, a digit times 10^k outgrows the byte it
        # is read from (345, 999): each term of the sum is taken in int64
        ids = [123456789012345678, 1, 7, 99999999999999999, 5, 10**17, 3, 2,
               345, 1, 1, 999, 25600, 9999, 4294967296, 18446744073]
        text = "".join(f"{a} {b}\n" for a, b in zip(ids[0::2], ids[1::2]))
        got = graph._plain_ids(text)
        assert got.dtype == np.int64 and got.tolist() == ids
        srcs, dsts, n = graph._parse_plain("n=4\n000000000000000001 2\n3\t000000000000000004\n")
        assert (srcs.tolist(), dsts.tolist(), n) == ([1, 3], [2, 4], 4)

    def test_integer_adjacency_accepted_multiplicity_rejected(self):
        g = DirectedGraph(adjacency=np.array([[0, 1], [0, 0]]))
        assert g.edge_count == 1
        with pytest.raises(DomainError):
            DirectedGraph(adjacency=np.array([[0, 2], [0, 0]]))


# a module-level function, not a method: parametrized over a class's
# instances, hypothesis sees one method called from several executors and
# fails its differing_executors health check when run without its pytest
# plugin
@pytest.mark.parametrize("chunk", [1, 8])
@given(text=_edge_list_texts(near_miss=False) | _edge_list_texts(near_miss=True))
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
def test_matches_reference_across_piece_boundaries(chunk, text):
    # pieces of one or a few lines: a piece boundary falls inside every text
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_PLAIN_CHUNK", chunk)
        got = _parse_outcome(parse_edge_list, text)
    assert got == _parse_outcome(_reference_parse, text)


class TestLawyerNetwork:
    def test_size_and_degrees(self, lawyer_graph):
        assert lawyer_graph.n == 71
        assert lawyer_graph.edge_count == 575
        d = degrees(lawyer_graph)
        assert d.out_deg[3] == 15 and d.in_deg[3] == 14  # vertex 4, 1-based
        expected = np.array(LAWYER_BIDEGREES)
        np.testing.assert_array_equal(d.out_deg, expected[:, 0])
        np.testing.assert_array_equal(d.in_deg, expected[:, 1])

    def test_file_round_trip(self, lawyer_edge_list, lawyer_graph):
        from pathlib import Path

        g = parse_edge_list(Path(lawyer_edge_list).read_text())
        np.testing.assert_array_equal(g.adjacency, lawyer_graph.adjacency)
