"""Command-line behavior: schemas, exit codes, reproducibility."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpgraph import (
    PROBIT,
    ParameterVector,
    PrivacyParams,
    degrees,
    expected_bidegree,
    sample_graph,
    to_edge_list_text,
)
from dpgraph.cli import STATS_DUMP_HEADER, _dump_json, build_parser, main

# any JSON value: scalars of every JSON type, and lists and objects of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# degree values for n = 4: numbers inside the attainable range (0, 3), so
# that many inputs reach the fit, and numbers at the edges of the int64 and
# float ranges
DEGREE_NUMBERS = st.one_of(
    st.integers(1, 2),
    st.floats(0.5, 2.5),
    st.sampled_from([2**63, -(2**63) - 1, 10**400, 1e308, -1e308, float("nan")]),
)
# edge-list and stats-dump lines: well-formed lines, and junk built from
# small integers and fixed bad tokens.  Free-form digit strings are never
# drawn: int() reads "1_000_000", and a node count that large asks for n^2
# bytes of adjacency.
SMALL_INTS = st.integers(-3, 64)
BAD_TOKENS = st.sampled_from(["x", "1.5", "1 2 3", "#c", "", "n=", "nan", "1e3"])
JUNK_LINES = st.builds(
    str.join, st.sampled_from([" ", ","]),
    st.lists(SMALL_INTS.map(str) | BAD_TOKENS, max_size=5),
)
EDGES = st.lists(st.tuples(SMALL_INTS, SMALL_INTS).map("{0[0]} {0[1]}".format),
                 max_size=6)
# mostly one series, so that many dumps reach the QQ table
DUMP_ROWS = st.lists(
    st.tuples(st.sampled_from([(1, "xi")] * 3 + [(2, "eta")]), st.floats()),
    min_size=2,
    max_size=5,
)
# lines and JSON values far longer than an error line may echo
HUGE_LINES = st.sampled_from(
    ["x" * 100_000, " ".join(["1"] * 50_000), "n=" + "x" * 100_000]
)
HUGE_JSON_VALUES = st.sampled_from([list(range(100_000)), "e" * 100_000, -(10**4000)])
JUNK = st.none() | st.tuples(st.integers(0, 6), JUNK_LINES | HUGE_LINES)
# the layout of every JSON document the CLI writes: a flat object whose
# values are scalars or lists of scalars, with the scalars' edge cases (and
# 1-D float64 or int64 arrays, which the array test below covers)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 10**400]),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
                     2.2250738585072e-308]),
    st.text(),
)
FLAT_DOCUMENTS = st.dictionaries(
    st.text(), JSON_SCALARS | st.lists(JSON_SCALARS, max_size=4), max_size=6
)
# list items on either side of the bounds of what orjson writes as
# json.dumps does: floats of magnitude in [1e-4, 1e16) or zero, ints in int64
ORJSON_FLOAT_BOUNDS = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0,
                       5e-324, -0.0, float("nan"), float("inf"), -float("inf")]
ORJSON_INT_BOUNDS = st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1,
                                     2**64])
# float64 array items on either side of those bounds, and the float range's
# extremes; int64 array items up to the int64 bounds
ARRAY_FLOAT_EDGES = [
    1e-4, -1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1),
    -np.nextafter(1e-4, 0), 1e16, -1e16, np.nextafter(1e16, 0),
    5e-324, -5e-324, 2.225073858507201e-308, 0.0, -0.0, float("nan"),
    float("inf"), -float("inf"), 1.7976931348623157e308, -1.7976931348623157e308,
]
INT64 = st.integers(-(2**63), 2**63 - 1)


def _with_junk(lines: list, junk) -> str:
    if junk is not None:
        lines.insert(junk[0], junk[1])
    return "\n".join(lines)


FUZZ_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def run_cli(*argv) -> int:
    return main(list(argv))


def assert_one_line_error(capsys, text: str) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and text in err and "Traceback" not in err
    return err


@pytest.fixture()
def small_edge_list(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text("n=6\n1 2\n2 3\n3 1\n4 5\n5 6\n6 4\n1 4\n4 1\n2 5\n5 2\n")
    return str(path)


@pytest.fixture()
def oracle_degrees_json(tmp_path):
    theta = ParameterVector.zeros(30)
    i = np.arange(30)
    alpha = (29 - i) / 29.0
    beta = alpha.copy()
    beta[-1] = 0.0
    theta = ParameterVector(alpha=alpha, beta=beta)
    eo, ei = expected_bidegree(theta, PROBIT)
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps({
        "n": 30, "epsilon": None,
        "z_out": eo.tolist(), "z_in": ei.tolist(),
    }))
    return str(path), theta


class TestPrivatize:
    def test_writes_schema_and_summary(self, small_edge_list, tmp_path, capsys):
        out = tmp_path / "noisy.json"
        code = run_cli("privatize", small_edge_list, "--epsilon", "1.0",
                       "--seed", "5", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"n", "epsilon", "z_out", "z_in", "seed"}
        assert doc["n"] == 6 and doc["seed"] == 5
        out, err = capsys.readouterr()
        assert "n=6" in out and "edges=10" in out
        assert err == "dpgraph: a seeded release is only as private as its seed is secret\n"

    @pytest.fixture()
    def edges60(self, tmp_path):
        graph = sample_graph(ParameterVector.zeros(60), PROBIT, np.random.default_rng(8))
        path = tmp_path / "edges60.txt"
        path.write_text(to_edge_list_text(graph))
        return str(path), degrees(graph)

    def _default_release(self, edges, out):
        assert run_cli("privatize", edges, "--epsilon", "1", "--out", str(out)) == 0
        return json.loads(out.read_text())

    def test_default_release_is_unseeded(self, edges60, tmp_path, capsys):
        a = self._default_release(edges60[0], tmp_path / "a.json")
        b = self._default_release(edges60[0], tmp_path / "b.json")
        assert set(a) == {"n", "epsilon", "z_out", "z_in"}
        assert (a["z_out"], a["z_in"]) != (b["z_out"], b["z_in"])
        assert capsys.readouterr().err == ""

    def test_default_release_resists_seed_recompute(self, edges60, tmp_path):
        # the attack on a seeded release: recompute the noise of every small
        # seed from the file alone and subtract it; with 120 noisy degrees a
        # chance match of the true ones is negligible
        doc = self._default_release(edges60[0], tmp_path / "r.json")
        truth = np.concatenate([edges60[1].out_deg, edges60[1].in_deg])
        params = PrivacyParams(doc["epsilon"])
        z = np.array(doc["z_out"] + doc["z_in"])
        for seed in range(1001):
            rng = np.random.default_rng(seed)
            noise = np.concatenate([params.sample(rng, doc["n"]), params.sample(rng, doc["n"])])
            assert not np.array_equal(z - noise, truth), seed

    def test_summary_counts_collapsed_edges(self, tmp_path, capsys):
        edges = tmp_path / "dup.txt"
        edges.write_text("1 2\n1 2\n2 3\n")
        assert run_cli("privatize", str(edges), "--epsilon", "1.0",
                       "--out", str(tmp_path / "noisy.json")) == 0
        assert "n=3 edges=2 " in capsys.readouterr().out

    def test_byte_reproducible(self, small_edge_list, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("privatize", small_edge_list, "--epsilon", "0.7",
                "--seed", "9", "--out", str(a))
        run_cli("privatize", small_edge_list, "--epsilon", "0.7",
                "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_huge_epsilon_keeps_raw_degrees(self, small_edge_list, tmp_path):
        out = tmp_path / "noisy.json"
        run_cli("privatize", small_edge_list, "--epsilon", "1e6",
                "--seed", "1", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["z_out"] == [2, 2, 1, 2, 2, 1]
        assert doc["z_in"] == [2, 2, 1, 2, 2, 1]

    def test_bad_epsilon_rejected_before_reading_input(self, tmp_path):
        # nonexistent input path: the epsilon check must fire first
        for eps in ("-2", "1e-30"):
            code = run_cli("privatize", str(tmp_path / "missing.txt"),
                           "--epsilon", eps, "--out", str(tmp_path / "o.json"))
            assert code == 64

    def test_missing_input_is_io_error(self, tmp_path):
        code = run_cli("privatize", str(tmp_path / "missing.txt"),
                       "--epsilon", "1", "--out", str(tmp_path / "o.json"))
        assert code == 1

    def test_parse_error_carries_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n2 2\n")
        code = run_cli("privatize", str(bad), "--epsilon", "1",
                       "--out", str(tmp_path / "o.json"))
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_bad_node_count_header_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("n=abc\n1 2\n")
        code = run_cli("privatize", str(bad), "--epsilon", "1",
                       "--out", str(tmp_path / "o.json"))
        assert code == 1
        assert_one_line_error(capsys, "line 1: bad node-count header")

    def test_node_count_too_large_to_hold_exits_1(self, tmp_path, capsys):
        # n = 10^8 asks for 10^16 adjacency bytes, more than a 64-bit
        # address space holds, so the allocation is refused at once
        edges = tmp_path / "huge.txt"
        edges.write_text("1 2\n3 100000000\n")
        code = run_cli("privatize", str(edges), "--epsilon", "1",
                       "--out", str(tmp_path / "o.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "too large" in err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("command", ["privatize", "estimate"])
    @pytest.mark.parametrize("text", ["1 2\n3 10000000000\n", "n=5000000000\n1 2\n"])
    def test_node_count_beyond_any_array_exits_1(self, tmp_path, capsys, command, text):
        # n^2 adjacency bytes above 2^63: numpy refuses the shape itself
        # instead of failing to allocate it
        edges = tmp_path / "huge.txt"
        edges.write_text(text)
        flags = ["--epsilon", "1"] if command == "privatize" else []
        code = run_cli(command, str(edges), *flags, "--out", str(tmp_path / "o.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "too large" in err and "Traceback" not in err
        assert not (tmp_path / "o.json").exists()

    def test_negative_seed_is_usage_error(self, small_edge_list, tmp_path, capsys):
        code = run_cli("privatize", small_edge_list, "--epsilon", "1",
                       "--seed", "-1", "--out", str(tmp_path / "o.json"))
        assert code == 64
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seed" in err

    @FUZZ_SETTINGS
    @given(
        header=st.none() | SMALL_INTS.map("n={}".format), edges=EDGES, junk=JUNK
    )
    def test_arbitrary_edge_lists_end_in_a_documented_exit(
        self, tmp_path, capsys, header, edges, junk
    ):
        path = tmp_path / "edges.txt"
        path.write_text(_with_junk([header] * (header is not None) + edges, junk))
        code = run_cli("privatize", str(path), "--epsilon", "1",
                       "--out", str(tmp_path / "o.json"))
        assert code in (0, 1, 64)
        err = capsys.readouterr().err
        assert err.count("\n") == (code != 0) and "Traceback" not in err
        assert len(err) <= 300 + len(str(path))  # a huge line is echoed clipped


class TestEstimate:
    def test_recovers_oracle_fixture(self, oracle_degrees_json, tmp_path):
        path, theta = oracle_degrees_json
        out = tmp_path / "fit.json"
        code = run_cli("estimate", path, "--raw", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["exists"] is True and doc["converged"] is True
        assert doc["beta"][-1] == 0.0 and len(doc["beta"]) == 30
        np.testing.assert_allclose(doc["alpha"], theta.alpha, atol=1e-8)
        np.testing.assert_allclose(doc["beta"], theta.beta, atol=1e-8)
        assert len(doc["se_alpha"]) == 30 and len(doc["se_beta"]) == 30
        assert doc["se_beta"][-1] == 0.0
        assert doc["privacy_var"] == 0.0

    def test_accepts_edge_list_input(self, small_edge_list, tmp_path):
        out = tmp_path / "fit.json"
        code = run_cli("estimate", small_edge_list, "--raw", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["exists"] is True and doc["epsilon"] is None
        # symmetric toy graph: nodes with equal degrees share estimates
        np.testing.assert_allclose(doc["alpha"][0], doc["alpha"][3], atol=1e-9)

    def test_out_of_range_degree_exits_2(self, tmp_path, capsys):
        n = 100
        z = [50.0] * n
        z0 = list(z)
        z0[0] = 0.0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": n, "z_out": z0, "z_in": z}))
        code = run_cli("estimate", str(path), "--raw",
                       "--out", str(tmp_path / "fit.json"))
        assert code == 2
        assert "range" in capsys.readouterr().err
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert doc["exists"] is False and doc["alpha"] is None

    def test_nan_degree_exits_3(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"n": 4, "z_out": [1, NaN, 1, 1], "z_in": [1, 1, 1, 1]}')
        code = run_cli("estimate", str(path), "--raw",
                       "--out", str(tmp_path / "fit.json"))
        assert code == 3
        # a release (it carries epsilon) is checked before it is fitted
        path.write_text('{"n": 4, "epsilon": 2.0, "z_out": [1, NaN, 1, 1], '
                        '"z_in": [1, 1, 1, 1]}')
        capsys.readouterr()
        code = run_cli("estimate", str(path), "--out", str(tmp_path / "fit.json"))
        assert code == 3
        assert_one_line_error(capsys, "numerical failure: non-finite degree input")

    def test_truncated_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "deg.json"
        path.write_text('{"n": 4, "z_out": [1, 1, 2')
        code = run_cli("estimate", str(path), "--out", str(tmp_path / "fit.json"))
        assert code == 1
        assert_one_line_error(capsys, "bad JSON input")
        assert not (tmp_path / "fit.json").exists()

    def test_deeply_nested_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "deg.json"
        path.write_text('{"n": ' + "[" * 200_000 + "]" * 200_000 + "}")
        code = run_cli("estimate", str(path), "--out", str(tmp_path / "fit.json"))
        assert code == 1
        assert_one_line_error(capsys, f"bad degrees JSON in {path}: nested too deeply")
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("doc", [
        '{"n": %s, "z_out": [1, 1, 1, 1], "z_in": [1, 1, 1, 1]}',
        '{"n": 4, "z_out": [1, 1, %s, 1], "z_in": [1, 1, 1, 1]}',
    ], ids=["n", "z_out"])
    def test_integer_past_the_int_string_limit_exits_1(self, tmp_path, capsys, doc):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for
        # an integer of more digits than Python reads (4,300 by default)
        path = tmp_path / "deg.json"
        path.write_text(doc % ("9" * 5000))
        code = run_cli("estimate", str(path), "--out", str(tmp_path / "fit.json"))
        assert code == 1
        err = assert_one_line_error(
            capsys, f"bad degrees JSON in {path}: an integer has too many digits"
        )
        assert len(err) <= 300 + len(str(path))
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("doc, message", [
        ('{"z_out": [1, 1, 1], "z_in": [1, 1, 1]}', "missing key 'n'"),
        ('{"n": 3, "z_in": [1, 1, 1]}', "missing key 'z_out'"),
        ('{"n": 3, "z_out": [1, 1, 1]}', "missing key 'z_in'"),
        ('{"n": 3, "z_out": [1, 1, 1%s], "z_in": [1, 1, 1]}' % ("0" * 400),
         "int too large to convert to float"),
    ], ids=["n", "z_out", "z_in", "beyond-float-range"])
    def test_missing_key_or_huge_degree_exits_1(self, tmp_path, capsys, doc, message):
        path = tmp_path / "deg.json"
        path.write_text(doc)
        code = run_cli("estimate", str(path), "--out", str(tmp_path / "fit.json"))
        assert code == 1
        assert_one_line_error(capsys, f"bad degrees JSON in {path}: {message}")
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_nodes_exit_1(self, tmp_path, capsys, n):
        # as an edge list that defines fewer than 2 nodes does
        path = tmp_path / "deg.json"
        path.write_text(json.dumps({"n": n, "z_out": [0] * n, "z_in": [0] * n}))
        code = run_cli("estimate", str(path), "--raw",
                       "--out", str(tmp_path / "fit.json"))
        assert code == 1
        assert_one_line_error(capsys, f"need at least 2 nodes, got n={n}")
        assert not (tmp_path / "fit.json").exists()

    def test_vectors_not_matching_n_exit_1(self, tmp_path, capsys):
        path = tmp_path / "deg.json"
        path.write_text(json.dumps({"n": 5, "z_out": [1, 1, 2, 1],
                                    "z_in": [1, 2, 1, 1]}))
        code = run_cli("estimate", str(path), "--raw",
                       "--out", str(tmp_path / "fit.json"))
        assert code == 1
        assert_one_line_error(capsys, "do not match n=5")
        assert not (tmp_path / "fit.json").exists()

    def test_non_integer_private_degrees_rejected(self, tmp_path, capsys):
        path = tmp_path / "deg.json"
        path.write_text(json.dumps({"n": 4, "epsilon": 2.0,
                                    "z_out": [1.4, 1, 2, 1],
                                    "z_in": [1, 2, 1, 1]}))
        code = run_cli("estimate", str(path), "--out", str(tmp_path / "fit.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be integers" in err
        assert not (tmp_path / "fit.json").exists()

    def test_epsilon_whose_lambda_rounds_to_one_exits_64(self, tmp_path, capsys):
        path = tmp_path / "deg.json"
        path.write_text(json.dumps({"n": 4, "epsilon": 1e-30,
                                    "z_out": [1, 1, 2, 1],
                                    "z_in": [1, 2, 1, 1]}))
        code = run_cli("estimate", str(path), "--out", str(tmp_path / "fit.json"))
        assert code == 64
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "rounds to 1" in err

    @pytest.mark.parametrize(
        "eps", ["abc", True, [2.0], float("inf"), 10**400],
        ids=["string", "bool", "list", "infinity", "huge-int"],
    )
    def test_non_numeric_epsilon_rejected(self, tmp_path, capsys, eps):
        path = tmp_path / "deg.json"
        path.write_text(json.dumps({"n": 4, "epsilon": eps,
                                    "z_out": [1, 1, 2, 1],
                                    "z_in": [1, 2, 1, 1]}))
        for mode in ([], ["--raw"]):
            code = run_cli("estimate", str(path), *mode,
                           "--out", str(tmp_path / "fit.json"))
            assert code == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "epsilon must be a finite number" in err
            assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize(
        "n", [3.7, 4.0, "4", True, None],
        ids=["fraction", "integral-float", "string", "bool", "null"],
    )
    def test_non_integer_n_rejected(self, tmp_path, capsys, n):
        # a JSON float or string was once truncated to an int, and true
        # read as n=1
        path = tmp_path / "deg.json"
        path.write_text(json.dumps({"n": n, "z_out": [1, 1, 2, 1],
                                    "z_in": [1, 2, 1, 1]}))
        code = run_cli("estimate", str(path), "--raw",
                       "--out", str(tmp_path / "fit.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "n must be an integer" in err
        assert not (tmp_path / "fit.json").exists()

    def test_non_numeric_degree_entries_rejected(self, tmp_path, capsys):
        # strings and booleans were once read as the numbers they spell
        path = tmp_path / "deg.json"
        path.write_text('{"n": 4, "z_out": ["1", true, 2, 1], "z_in": [1, 2, 1, 1]}')
        code = run_cli("estimate", str(path), "--raw",
                       "--out", str(tmp_path / "fit.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "z_out must be a list of numbers" in err
        assert not (tmp_path / "fit.json").exists()

    def test_long_list_with_one_bool_and_one_list_rejected(self, tmp_path, capsys):
        # the entry types are checked in one pass over the whole list
        n = 5000
        z_in = [1] * n
        z_in[n // 3], z_in[2 * n // 3] = True, [1]
        path = tmp_path / "deg.json"
        path.write_text(json.dumps({"n": n, "z_out": [1.5] * n, "z_in": z_in}))
        code = run_cli("estimate", str(path), "--raw",
                       "--out", str(tmp_path / "fit.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "z_in must be a list of numbers" in err
        assert not (tmp_path / "fit.json").exists()

    @settings(
        max_examples=80,
        deadline=None,
        database=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        degrees=st.lists(DEGREE_NUMBERS, min_size=8, max_size=8),
        junk=st.none() | st.tuples(st.integers(0, 7), JSON_VALUES),
        epsilon=st.sampled_from([None, 2.0]),
        mode=st.sampled_from([[], ["--raw"]]),
        huge=st.none() | st.tuples(st.sampled_from(["n", "epsilon"]), HUGE_JSON_VALUES),
    )
    def test_arbitrary_degree_entries_end_in_a_documented_exit(
        self, tmp_path, capsys, degrees, junk, epsilon, mode, huge
    ):
        if junk is not None:
            degrees[junk[0]] = junk[1]
        doc = {"n": 4, "epsilon": epsilon, "z_out": degrees[:4], "z_in": degrees[4:]}
        if huge is not None:
            doc[huge[0]] = huge[1]
        path = tmp_path / "deg.json"
        path.write_text(json.dumps(doc))
        code = run_cli("estimate", str(path), *mode,
                       "--out", str(tmp_path / "fit.json"))
        assert code in (0, 1, 2, 3, 64)
        err = capsys.readouterr().err
        assert err.count("\n") == (code != 0) and "Traceback" not in err
        assert len(err) <= 300 + len(str(path))  # a huge value is echoed clipped

    def test_private_fit_reports_noise_variance(self, tmp_path):
        theta = ParameterVector.zeros(40)
        eo, ei = expected_bidegree(theta, PROBIT)
        path = tmp_path / "deg.json"
        path.write_text(json.dumps({
            "n": 40, "epsilon": 2.0,
            "z_out": np.rint(eo).astype(int).tolist(),
            "z_in": np.rint(ei).astype(int).tolist(),
        }))
        out = tmp_path / "fit.json"
        code = run_cli("estimate", str(path), "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["epsilon"] == 2.0
        assert doc["privacy_var"] > 0

    def test_lawyer_pipeline_schema(self, lawyer_edge_list, tmp_path):
        noisy = tmp_path / "noisy.json"
        assert run_cli("privatize", lawyer_edge_list, "--epsilon", "1",
                       "--seed", "12", "--out", str(noisy)) == 0
        assert json.loads(noisy.read_text())["n"] == 71
        fit_path = tmp_path / "fit.json"
        code = run_cli("estimate", str(noisy), "--out", str(fit_path))
        # several raw degrees are 0, so a noisy release usually falls out of
        # the attainable range; both outcomes must still emit valid JSON
        assert code in (0, 2)
        doc = json.loads(fit_path.read_text())
        assert set(doc) >= {"n", "model", "epsilon", "alpha", "beta",
                            "se_alpha", "se_beta", "converged", "exists",
                            "iterations", "residual_norm"}
        assert doc["n"] == 71


class TestSimulate:
    def test_writes_csv_and_is_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        args = ["simulate", "--n", "30", "--L", "zero", "--eps", "fixed:2",
                "--reps", "5", "--seed", "7", "--pairs", "1,2"]
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == ("n,L_spec,eps_spec,pair_i,pair_j,stat_kind,"
                            "coverage,ci_length_full,ci_length_half,"
                            "nonexist_freq,reps")
        assert lines[1].startswith("30,zero,fixed:2,1,2,xi,")

    def test_anchor_cell_coverage(self, tmp_path):
        out = tmp_path / "anchor.csv"
        assert run_cli("simulate", "--n", "100", "--L", "zero",
                       "--eps", "fixed:2", "--reps", "1000", "--seed", "20260808",
                       "--pairs", "1,2", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        fields = lines[1].split(",")
        coverage = float(fields[6])
        assert 0.92 <= coverage <= 0.96

    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch):
        outs = []
        for tag, workers in (("a", "1"), ("b", "2")):
            monkeypatch.setenv("DPGRAPH_THREADS", workers)
            out = tmp_path / f"{tag}.csv"
            assert run_cli("simulate", "--n", "24", "--eps", "fixed:4",
                           "--reps", "8", "--seed", "3", "--pairs", "1,2",
                           "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_threads_0_matches_one_worker(self, tmp_path, monkeypatch):
        # 0 means one worker per CPU; two CPUs keep the pool small
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        outs = []
        for workers in ("1", "0"):
            monkeypatch.setenv("DPGRAPH_THREADS", workers)
            out = tmp_path / f"w{workers}.csv"
            assert run_cli("simulate", "--n", "24", "--eps", "fixed:4",
                           "--reps", "8", "--seed", "3", "--pairs", "1,2",
                           "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("workers", ["-2", "two"])
    def test_bad_worker_count_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                             workers):
        monkeypatch.setenv("DPGRAPH_THREADS", workers)
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--n", "10", "--reps", "3",
                       "--out", str(out)) == 64
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0 and "DPGRAPH_THREADS" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed, alias", [(1, 2**64 + 1), (2**64 - 1, -1)])
    def test_seed_aliases_modulo_2_64_are_usage_errors(self, tmp_path, capsys,
                                                      seed, alias):
        # the streams read the seed modulo 2^64, so the alias would repeat
        # the seed's output; it is refused instead
        args = ["simulate", "--n", "10", "--eps", "fixed:4", "--reps", "3",
                "--pairs", "1,2"]
        assert run_cli(*args, "--seed", str(seed),
                       "--out", str(tmp_path / "a.csv")) == 0
        capsys.readouterr()
        assert run_cli(*args, "--seed", str(alias),
                       "--out", str(tmp_path / "b.csv")) == 64
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0 and "seed" in err
        assert not (tmp_path / "b.csv").exists()

    def test_degenerate_pair_is_usage_error(self, tmp_path, capsys):
        args = ["simulate", "--n", "10", "--reps", "2", "--pairs", "3,3"]
        out = tmp_path / "r.csv"
        assert run_cli(*args, "--stats", "xi", "--out", str(out)) == 64
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0 and "i != j" in err
        assert not out.exists()
        assert run_cli(*args, "--stats", "zeta", "--out", str(out)) == 0

    @pytest.mark.parametrize("extra, repeated", [
        (["--pairs", "1,2", "--pairs", "1,2"], "probe pair (1, 2)"),
        (["--pairs", "1,2", "--stats", "xi,xi"], "statistic kind 'xi'"),
    ])
    def test_repeated_pair_or_kind_is_usage_error(self, tmp_path, capsys, extra,
                                                  repeated):
        # a repeat would write each of its statistics twice, to the CSV,
        # the dump and so to a qq table built from it
        out, dump = tmp_path / "r.csv", tmp_path / "d.txt"
        assert run_cli("simulate", "--n", "20", "--reps", "5", "--seed", "1", *extra,
                       "--out", str(out), "--dump-stats", str(dump)) == 64
        assert_one_line_error(capsys, f"{repeated} is repeated")
        assert not out.exists() and not dump.exists()

    def test_pair_without_comma_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--n", "10", "--reps", "2", "--pairs", "1",
                       "--out", str(out)) == 64
        assert_one_line_error(capsys, "pair must be 'i,j'")
        assert not out.exists()

    def test_default_pairs_serve_every_kind(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--n", "20", "--eps", "fixed:6", "--reps", "2",
                       "--seed", "9", "--stats", "xi,zeta,eta",
                       "--out", str(out)) == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 9

    def test_stat_kind_selection(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--n", "30", "--eps", "fixed:6",
                       "--reps", "3", "--seed", "4", "--pairs", "1,2",
                       "--stats", "xi,eta", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert ",xi," in lines[1] and ",eta," in lines[2]

    def test_stdout_when_no_out_path(self, capsys):
        assert run_cli("simulate", "--n", "20", "--eps", "fixed:6",
                       "--reps", "2", "--seed", "9", "--pairs", "1,2") == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("n,L_spec,eps_spec")

    def test_bad_eps_token_is_usage_error(self, tmp_path, capsys):
        code = run_cli("simulate", "--n", "30", "--eps", "weekly",
                       "--reps", "2", "--out", str(tmp_path / "r.csv"))
        assert code == 64
        assert "logn_n12" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ("fixed:inf", "epsilon must be a finite positive number"),
        ("fixed:1e-300", "epsilon too small: exp(-epsilon/2) rounds to 1"),
    ], ids=["inf", "lambda-one"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_epsilon_without_a_noise_law_is_usage_error(self, tmp_path, monkeypatch,
                                                        capsys, spec, message,
                                                        workers):
        monkeypatch.setenv("DPGRAPH_THREADS", workers)
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--n", "100", "--eps", spec, "--reps", "3",
                       "--out", str(out)) == 64
        assert capsys.readouterr().err == f"dpgraph: {message}\n"
        assert not out.exists()

    def test_stats_dump_feeds_qq(self, tmp_path):
        dump = tmp_path / "stats.csv"
        out = tmp_path / "qq.csv"
        assert run_cli("simulate", "--n", "30", "--eps", "fixed:6",
                       "--reps", "6", "--seed", "2",
                       "--pairs", "1,2", "--out", str(tmp_path / "r.csv"),
                       "--dump-stats", str(dump)) == 0
        assert dump.read_text().startswith("rep,pair_i,pair_j,kind,value")
        assert run_cli("qq", str(dump), "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "rank,empirical,theoretical"
        assert len(lines) == 7  # header + 6 replications

    def test_multiple_series_require_selection(self, tmp_path, capsys):
        dump = tmp_path / "stats.csv"
        assert run_cli("simulate", "--n", "30", "--eps", "fixed:6",
                       "--reps", "4", "--seed", "2",
                       "--pairs", "1,2", "--pairs", "3,4",
                       "--out", str(tmp_path / "r.csv"),
                       "--dump-stats", str(dump)) == 0
        code = run_cli("qq", str(dump), "--out", str(tmp_path / "qq.csv"))
        assert code == 64
        assert "--pair" in capsys.readouterr().err
        assert run_cli("qq", str(dump), "--pair", "3,4",
                       "--out", str(tmp_path / "qq.csv")) == 0

    @pytest.mark.parametrize("pairs, listed", [
        (2, "(1,2:xi, 2,3:xi)"),
        (10_000, "(1,2:xi, 2,3:xi, 3,4:xi, "),
    ], ids=["two", "ten-thousand"])
    def test_several_series_error_is_one_bounded_line(self, tmp_path, capsys,
                                                      pairs, listed):
        dump = tmp_path / "stats.csv"
        dump.write_text(STATS_DUMP_HEADER + "\n" + "".join(
            f"0,{i},{i + 1},xi,0.5\n" for i in range(1, pairs + 1)))
        code = run_cli("qq", str(dump), "--out", str(tmp_path / "qq.csv"))
        assert code == 64
        err = assert_one_line_error(capsys, f"stats file holds several series {listed}")
        assert len(err) <= 300 + len(str(dump))
        assert (f"... {pairs} in all); select one" in err) == (pairs > 2)

    def test_kind_only_selection(self, tmp_path):
        dump = tmp_path / "stats.csv"
        assert run_cli("simulate", "--n", "30", "--eps", "fixed:6",
                       "--reps", "4", "--seed", "2", "--pairs", "1,2",
                       "--stats", "xi,zeta",
                       "--out", str(tmp_path / "r.csv"),
                       "--dump-stats", str(dump)) == 0
        assert run_cli("qq", str(dump), "--kind", "zeta",
                       "--out", str(tmp_path / "qq.csv")) == 0
        lines = (tmp_path / "qq.csv").read_text().strip().split("\n")
        assert len(lines) == 5


class TestQq:
    def test_three_value_fixture(self, tmp_path):
        stats = tmp_path / "vals.txt"
        stats.write_text("1.0\n-1.0\n0.0\n")
        out = tmp_path / "qq.csv"
        assert run_cli("qq", str(stats), "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) == -1.0
        np.testing.assert_allclose(float(first[2]), -0.9674215661, atol=1e-9)

    def test_missing_file_reports_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert run_cli("qq", str(missing), "--out", str(tmp_path / "o.csv")) == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_short_dump_row_is_usage_error(self, tmp_path, capsys):
        dump = tmp_path / "dump.csv"
        dump.write_text("rep,pair_i,pair_j,kind,value\n0,1,2,xi,0.5\n1,1,2\n")
        assert run_cli("qq", str(dump), "--out", str(tmp_path / "o.csv")) == 64
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "dump.csv" in err and "line 3" in err

    def test_pair_absent_from_dump_is_usage_error(self, tmp_path, capsys):
        dump = tmp_path / "stats.csv"
        dump.write_text(f"{STATS_DUMP_HEADER}\n0,1,2,xi,0.5\n1,1,2,xi,-0.1\n")
        out = tmp_path / "qq.csv"
        assert run_cli("qq", str(dump), "--pair", "3,4", "--out", str(out)) == 64
        assert_one_line_error(capsys, "no statistics match")
        assert not out.exists()

    @pytest.mark.parametrize(
        "selection",
        [["--pair", "7,9", "--kind", "zeta"], ["--pair", "1,2"], ["--kind", "xi"]],
    )
    def test_selection_on_bare_file_is_usage_error(self, tmp_path, capsys,
                                                   selection):
        stats = tmp_path / "v.txt"
        stats.write_text("1.0\n-1.0\n0.0\n")
        out = tmp_path / "q.csv"
        assert run_cli("qq", str(stats), *selection, "--out", str(out)) == 64
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "v.txt" in err and "only from a stats dump" in err
        assert not out.exists()

    def test_empty_input_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run_cli("qq", str(empty), "--out", str(tmp_path / "o.csv")) == 64

    @FUZZ_SETTINGS
    @given(
        dump=st.booleans(),
        rows=DUMP_ROWS,
        junk=JUNK,
        selection=st.sampled_from(
            [[], ["--pair", "1,2", "--kind", "xi"], ["--kind", "xi"], ["--pair", "1,x"],
             ["--pair", "1," + "x" * 100_000], ["--pair", "1,2," * 50_000]]
        ),
    )
    def test_arbitrary_stats_dumps_end_in_a_documented_exit(
        self, tmp_path, capsys, dump, rows, junk, selection
    ):
        lines = [
            f"{rep},{i},{i + 1},{kind},{value!r}" if dump else repr(value)
            for rep, ((i, kind), value) in enumerate(rows)
        ]
        path = tmp_path / "dump.csv"
        path.write_text(_with_junk([STATS_DUMP_HEADER] * dump + lines, junk))
        code = run_cli("qq", str(path), *selection, "--out", str(tmp_path / "q.csv"))
        assert code in (0, 1, 64)
        err = capsys.readouterr().err
        assert err.count("\n") == (code != 0) and "Traceback" not in err
        assert len(err) <= 300 + len(str(path))  # a huge line or pair is echoed clipped


class TestJsonWriter:
    @FUZZ_SETTINGS
    @given(doc=FLAT_DOCUMENTS)
    def test_writes_the_bytes_of_json_dumps(self, doc, tmp_path):
        path = tmp_path / "doc.json"
        _dump_json(str(path), doc)
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    @FUZZ_SETTINGS
    @given(
        floats=st.lists(st.floats(), min_size=1, max_size=300),
        ints=st.lists(st.integers() | ORJSON_INT_BOUNDS, min_size=1, max_size=20),
        mixed=st.lists(JSON_SCALARS, max_size=20),
    )
    def test_long_lists_write_the_bytes_of_json_dumps(
        self, floats, ints, mixed, tmp_path
    ):
        # the lists of a fit are long, and most of their items take orjson's
        # path; the items it writes otherwise sit among them
        doc = {"floats": floats + ORJSON_FLOAT_BOUNDS, "ints": ints,
               "mixed": mixed + ["a,b", 1.5, "caf\u00e9, \u2603", None]}
        path = tmp_path / "doc.json"
        _dump_json(str(path), doc)
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    @FUZZ_SETTINGS
    @given(
        floats=st.lists(st.floats() | st.sampled_from(ARRAY_FLOAT_EDGES), max_size=300),
        ints=st.lists(INT64 | st.sampled_from([-(2**63), 2**63 - 1]), max_size=20),
        mixed=st.lists(JSON_SCALARS, max_size=4),
    )
    def test_arrays_write_the_bytes_of_json_dumps(self, floats, ints, mixed, tmp_path):
        # a fit's and a release's vectors come as arrays, read as their tolist()
        a = np.array(floats + ARRAY_FLOAT_EDGES)
        doc = {"floats": a, "reversed": a[::-2], "empty": np.array([]),
               "ints": np.array(ints, dtype=np.int64), "mixed": mixed, "n": 3}
        assert not doc["reversed"].flags.c_contiguous
        path = tmp_path / "doc.json"
        _dump_json(str(path), doc)
        listed = {k: v.tolist() if isinstance(v, np.ndarray) else v
                  for k, v in doc.items()}
        want = json.dumps(listed, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    def test_fit_with_an_estimate_below_1e_4_writes_json_dumps_bytes(self, tmp_path):
        # orjson writes 3e-05 as 0.00003, so alpha_2's item is rewritten
        alpha = np.linspace(0.5, -0.5, 20)
        alpha[1] = 3e-5
        beta = np.append(np.linspace(-0.3, 0.3, 19), 0.0)
        eo, ei = expected_bidegree(ParameterVector(alpha=alpha, beta=beta), PROBIT)
        path, out = tmp_path / "deg.json", tmp_path / "fit.json"
        path.write_text(json.dumps({"n": 20, "z_out": eo.tolist(), "z_in": ei.tolist()}))
        assert run_cli("estimate", str(path), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["alpha"][1] == pytest.approx(3e-5, abs=1e-9)
        # json.dumps writes every float as the shortest repr that reads back
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert out.read_bytes() == want.encode("utf-8")

    def test_simulate_does_not_import_orjson(self, tmp_path):
        # simulate writes no JSON, so the writer's module stays unloaded
        csv, doc = str(tmp_path / "cov.csv"), str(tmp_path / "doc.json")
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from dpgraph.cli import _dump_json, main\n"
            f"main(['simulate', '--n', '10', '--reps', '4', '--out', {csv!r}])\n"
            "assert 'orjson' not in sys.modules\n"
            f"_dump_json({doc!r}, {{'x': np.array([1.5])}})\n"
            "assert 'orjson' in sys.modules\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestImportCost:
    def test_import_loads_neither_scipy_stats_nor_orjson(self):
        # every CLI call and benchmark setup pays for the package import;
        # scipy.stats alone costs about twice the whole package
        code = (
            "import sys\n"
            "import dpgraph\n"
            "print(sorted({'scipy.stats', 'orjson'} & set(sys.modules)))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


class TestUsage:
    def test_unknown_flag_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--frobnicate")
        assert exc.value.code == 64

    @pytest.mark.parametrize("command", [
        ["privatize", "--epsilon", "1"], ["estimate"], ["qq"],
    ], ids=["privatize", "estimate", "qq"])
    def test_non_utf8_input_exits_1_naming_the_file(self, command, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"1 2\n\xff 3\n")
        out = tmp_path / "out"
        code = run_cli(command[0], str(bad), *command[1:], "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{bad} is not UTF-8 text" in err
        assert not out.exists()

    def test_parser_is_built_once_and_parses_afresh(self):
        parser = build_parser()
        assert parser is build_parser()
        argv = ["simulate", "--n", "10", "--pairs", "1,2"]
        # a repeatable flag starts from its default on every parse
        assert parser.parse_args(argv).pairs == ["1,2"]
        assert parser.parse_args(argv).pairs == ["1,2"]

    def test_readme_commands_parse(self):
        # a README that names a removed flag fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
        block = block.split("```", 1)[0].replace("\\\n", " ")
        commands = [shlex.split(line, comments=True)
                    for line in block.splitlines() if line.startswith("dpgraph ")]
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])
        assert {argv[1] for argv in commands} == {"privatize", "estimate",
                                                  "simulate", "qq"}

    def test_pipeline_end_to_end_reproducible(self, small_edge_list, tmp_path):
        fits = []
        for tag in ("x", "y"):
            noisy = tmp_path / f"n{tag}.json"
            fit = tmp_path / f"f{tag}.json"
            run_cli("privatize", small_edge_list, "--epsilon", "3",
                    "--seed", "31", "--out", str(noisy))
            run_cli("estimate", str(noisy), "--out", str(fit))
            fits.append(fit.read_bytes())
        assert fits[0] == fits[1]
