"""Command-line driver: privatize, estimate, simulate, qq.

Exit codes are stable: 0 success, 2 the estimate does not exist (a
statistical outcome scripts may count), 3 numerical failure, 64 usage
error; other I/O or input-format failures, and input too large to hold in
memory, exit 1.  Every run with an explicit seed is byte-reproducible on
its data outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (
    DomainError,
    DpGraphError,
    EdgeListParseError,
    NumericalFailure,
)
from .estimator import newton_solve
from .graph import degrees, parse_edge_list
from .model import get_model
from .privacy import NoisyBiDegree, PrivacyParams, privatize
from .simulation import (
    EPS_SPECS,
    L_SPECS,
    ExperimentConfig,
    qq_csv,
    qq_export,
    run_experiment,
)

# estimate takes its variances from the fit, but this name stays importable
# here: the benchmark's tracer (bench/tracing.py) wraps it in this module.
from .estimator import variance_estimates  # noqa: F401  isort: skip

EXIT_OK = 0
EXIT_IO = 1
EXIT_NONEXISTENT = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

STATS_DUMP_HEADER = "rep,pair_i,pair_j,kind,value"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; 2 is reserved for
    # non-existent estimates, so usage errors are remapped to 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    """The file at path as UTF-8 text; other bytes end in a one-line error
    that names the file, which UnicodeDecodeError itself does not."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DpGraphError(
            f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


# a list's items one per line, four spaces in, by the C encoder
_LIST_ITEMS = json.JSONEncoder(separators=(",\n    ", ": "))


def _dump_json(path: str, obj: dict) -> None:
    """Write obj as json.dumps(obj, indent=2, sort_keys=True) + "\\n" would,
    byte for byte, for the layout every output of this module has: a flat
    object whose values are scalars or lists of scalars.  json.dumps with an
    indent runs the pure-Python encoder, which takes about 1.7 times as long
    on an n = 2000 fit; here each value goes through the C encoder."""
    items = []
    for key, value in sorted(obj.items()):
        if isinstance(value, list) and value:
            text = "[\n    " + _LIST_ITEMS.encode(value)[1:-1] + "\n  ]"
        else:
            text = json.dumps(value)
        items.append(f"{json.dumps(key)}: {text}")
    _write_text(path, "{\n  " + ",\n  ".join(items) + "\n}\n" if items else "{}\n")


def cmd_privatize(args) -> int:
    params = PrivacyParams.from_epsilon(args.epsilon)  # before touching input
    if args.seed < 0:
        raise DomainError(f"--seed must be non-negative, got {args.seed}")
    text = _read_text(args.edge_list)
    graph = parse_edge_list(text)
    rng = np.random.default_rng(args.seed)
    bidegree = degrees(graph)
    noisy = privatize(bidegree, args.epsilon, rng)
    _dump_json(args.out, noisy.to_json_dict(seed=args.seed))
    print(
        f"n={graph.n} edges={int(bidegree.out_deg.sum())} "
        f"epsilon={params.epsilon} lambda={params.lam:.6g}"
    )
    return EXIT_OK


def _load_degree_input(path: str) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Read a degrees JSON ({n, z_out, z_in, epsilon?}) or an edge-list file."""
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        try:
            n = _json_n(doc["n"], path)
            z_out = _json_degrees(doc["z_out"], "z_out", path)
            z_in = _json_degrees(doc["z_in"], "z_in", path)
        except (KeyError, OverflowError) as exc:
            raise EdgeListParseError(f"bad degrees JSON in {path}: {exc}")
        if z_out.shape != (n,) or z_in.shape != (n,):
            raise EdgeListParseError(f"degree vectors in {path} do not match n={n}")
        return z_out, z_in, _json_epsilon(doc.get("epsilon"), path)
    d = degrees(parse_edge_list(text))
    return d.out_deg.astype(float), d.in_deg.astype(float), None


def _json_n(n, path: str) -> int:
    """A degrees JSON's n: a JSON integer (not a bool, string or float)."""
    if isinstance(n, int) and not isinstance(n, bool):
        return n
    raise EdgeListParseError(
        f"bad degrees JSON in {path}: n must be an integer, got {n!r}"
    )


def _json_degrees(values, key: str, path: str) -> np.ndarray:
    """A degrees JSON's z_out or z_in: a list of JSON numbers (not bools,
    strings, nulls or lists)."""
    if isinstance(values, list) and set(map(type, values)) <= {int, float}:
        return np.array(values, dtype=float)  # OverflowError beyond float range
    raise EdgeListParseError(
        f"bad degrees JSON in {path}: {key} must be a list of numbers"
    )


def _json_epsilon(eps, path: str) -> float | None:
    """A degrees JSON's epsilon: null or a finite number (not a bool)."""
    if eps is None:
        return None
    if isinstance(eps, (int, float)) and not isinstance(eps, bool):
        try:
            value = float(eps)
        except OverflowError:  # an integer literal beyond float range
            value = math.inf
        if math.isfinite(value):
            return value
    raise EdgeListParseError(
        f"bad degrees JSON in {path}: epsilon must be a finite number or "
        f"null, got {eps!r}"
    )


def cmd_estimate(args) -> int:
    model = get_model(args.model)
    z_out, z_in, epsilon = _load_degree_input(args.input)
    z = (z_out, z_in)
    if epsilon is not None and not args.raw:
        both = np.concatenate([z_out, z_in])
        if not np.all(np.isfinite(both)):
            raise NumericalFailure("non-finite degree input")
        if np.any(both != np.rint(both)) or np.any(np.abs(both) >= 2.0**63):
            raise EdgeListParseError(
                "private release degrees must be integers below 2**63 in "
                "magnitude; use --raw for real-valued degrees"
            )
        z = NoisyBiDegree(
            z_out.astype(np.int64),
            z_in.astype(np.int64),
            PrivacyParams.from_epsilon(epsilon),
        )
    fit = newton_solve(z, model)
    _dump_json(args.out, fit.to_json_dict())
    if fit.exists:
        print(
            f"n={fit.n} exists=true iterations={fit.iterations} "
            f"residual={fit.residual_norm:.3g}"
        )
        return EXIT_OK
    print(f"estimate does not exist: {fit.reason}", file=sys.stderr)
    return EXIT_NONEXISTENT


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"pair must be 'i,j', got {text!r}")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise DomainError(f"pair must hold integers, got {text!r}") from None
    return i, j


def cmd_simulate(args) -> int:
    pairs = tuple(_parse_pair(p) for p in args.pairs) if args.pairs else None
    kinds = tuple(args.stats.split(","))
    cfg = ExperimentConfig(
        n=args.n,
        L_spec=args.L,
        eps_spec=args.eps,
        reps=args.reps,
        seed=args.seed,
        pairs=pairs,
        model=args.model,
        stat_kinds=kinds,
    )
    raw_workers = os.environ.get("DPGRAPH_THREADS", "1")
    try:
        workers = int(raw_workers)
    except ValueError:
        workers = -1
    if workers < 0:
        raise DomainError(
            f"DPGRAPH_THREADS must be a non-negative integer, got {raw_workers!r}"
        )
    result = run_experiment(cfg, workers=workers)
    csv = result.to_csv()
    if args.out:
        _write_text(args.out, csv)
    else:
        sys.stdout.write(csv)
    if args.dump_stats:
        lines = [STATS_DUMP_HEADER]
        for rec, row in zip(result.records, result.values.tolist()):
            if rec.exists:
                lines.extend(
                    f"{rec.rep_index},{i},{j},{kind},{value!r}"
                    for (i, j, kind), value in zip(result.columns, row)
                )
        _write_text(args.dump_stats, "\n".join(lines) + "\n")
    print(
        f"reps={cfg.reps} nonexist_freq={result.nonexist_freq!r} "
        f"runtime={result.runtime_seconds:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK


def _read_stats_file(path: str, pair: str | None, kind: str | None) -> np.ndarray:
    text = _read_text(path)
    lines = [
        (line_no, ln.strip())
        for line_no, ln in enumerate(text.splitlines(), start=1)
        if ln.strip()
    ]
    if not lines:
        raise DomainError(f"stats file {path} is empty")
    if lines[0][1] == STATS_DUMP_HEADER:
        want_pair = _parse_pair(pair) if pair else None
        rows = []
        for line_no, ln in lines[1:]:
            try:
                _, i, j, k, value = ln.split(",")
                row = ((int(i), int(j)), k, float(value))
            except ValueError:
                raise DomainError(
                    f"{path}: line {line_no}: expected a "
                    f"'{STATS_DUMP_HEADER}' row, got {ln!r}"
                ) from None
            if (want_pair is None or row[0] == want_pair) and (
                kind is None or k == kind
            ):
                rows.append(row)
        if not rows:
            raise DomainError("no statistics match the requested series")
        distinct = sorted({(p, k) for p, k, _ in rows})
        if len(distinct) > 1:
            names = ", ".join(f"{p[0]},{p[1]}:{k}" for p, k in distinct)
            raise DomainError(
                f"stats file holds several series ({names}); select one "
                "with --pair and --kind"
            )
        return np.asarray([v for _, _, v in rows])
    if pair is not None or kind is not None:
        raise DomainError(
            f"{path} holds one value per line; --pair and --kind select a "
            "series only from a stats dump (simulate --dump-stats)"
        )
    try:
        return np.asarray([float(ln) for _, ln in lines])
    except ValueError:
        raise DomainError(
            f"{path}: expected either a '{STATS_DUMP_HEADER}' dump or one "
            "numeric value per line"
        ) from None


def cmd_qq(args) -> int:
    values = _read_stats_file(args.stats, args.pair, args.kind)
    _write_text(args.out, qq_csv(qq_export(values)))
    print(f"wrote {len(values)} quantile pairs to {args.out}")
    return EXIT_OK


@functools.cache  # main parses with one parser: a build costs some 18 parses
def build_parser() -> _Parser:
    parser = _Parser(
        prog="dpgraph",
        description=(
            "Release directed-graph bi-degree sequences under edge "
            "differential privacy, fit node strengths by moment equations, "
            "and run coverage experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser(
        "privatize",
        help="add discrete Laplace noise to the bi-degree sequence of an edge list",
        description=(
            "Read a 1-based edge list ('src dst' per line, '#' comments, "
            "optional 'n=<count>' header), compute its bi-degree sequence, "
            "and write the noisy release as JSON "
            '{"n", "epsilon", "z_out", "z_in", "seed"}.'
        ),
    )
    p.add_argument("edge_list", help="path to the edge-list file")
    p.add_argument("--epsilon", type=float, required=True, help="privacy budget > 0")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_privatize)

    p = sub.add_parser(
        "estimate",
        help="fit node strengths to degrees by Newton-solved moment equations",
        description=(
            "Input is either a degrees JSON (the privatize output schema; "
            "real-valued entries need --raw) or an edge-list file.  Output "
            'JSON: {"n", "model", "epsilon", "alpha", "beta" (length n, '
            'last 0), "se_alpha", "se_beta", "converged", "exists", '
            '"iterations", "residual_norm"} plus "shared_var"/"privacy_var". '
            "Exit 0 when the estimate exists, 2 when it does not, 3 on "
            "numerical failure."
        ),
    )
    p.add_argument("input", help="degrees JSON or edge-list path")
    p.add_argument("--model", default="probit", help="probit (default) or logit")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument(
        "--raw",
        action="store_true",
        help="treat input as raw degrees, even with an epsilon (no privacy "
        "variance term); without it an input epsilon selects private mode",
    )
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser(
        "simulate",
        help="Monte-Carlo coverage experiment",
        description=(
            "Writes a coverage CSV with columns n, L_spec, eps_spec, pair_i, "
            "pair_j, stat_kind, coverage, ci_length_full, ci_length_half, "
            "nonexist_freq, reps.  Coverage is tallied over replications "
            "where the estimate exists; non-existence is reported "
            "separately.  DPGRAPH_THREADS sets the worker processes, at "
            "most one per CPU and per block (0 = one per CPU; default 1)."
        ),
    )
    p.add_argument("--n", type=int, required=True, help="node count")
    p.add_argument(
        "--L",
        default="zero",
        choices=L_SPECS,
        help="true-parameter ramp height",
    )
    p.add_argument(
        "--eps",
        default="fixed:2",
        help=f"epsilon schedule: {', '.join(EPS_SPECS)}",
    )
    p.add_argument(
        "--reps",
        type=int,
        default=1000,
        help="replications (default 1000; the paper's tables use 10000)",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="master seed in [0, 2^64) (default 0)"
    )
    p.add_argument(
        "--pairs",
        action="append",
        metavar="I,J",
        help="probe pair, repeatable; default (1,2), (n/2,n/2+1), (n-1,n), "
        "with (n-2,n-1) in place of the last for zeta or eta",
    )
    p.add_argument(
        "--stats",
        default="xi",
        help="comma-separated statistic kinds from xi,zeta,eta (default xi)",
    )
    p.add_argument("--model", default="probit", help="probit (default) or logit")
    p.add_argument("--out", help="coverage CSV path (stdout when omitted)")
    p.add_argument(
        "--dump-stats",
        metavar="PATH",
        help=f"also dump per-replication statistics as '{STATS_DUMP_HEADER}'",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "qq",
        help="turn a statistics dump into a QQ table against the standard normal",
        description=(
            "Accepts a simulate --dump-stats file (use --pair/--kind to pick "
            "one series when several are present) or a bare one-value-per-"
            "line file, which takes neither flag.  Output CSV columns: rank, "
            "empirical, theoretical."
        ),
    )
    p.add_argument("stats", help="statistics dump path")
    p.add_argument("--pair", metavar="I,J", help="select one probe pair")
    p.add_argument("--kind", help="select one statistic kind (xi, zeta, eta)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_qq)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"dpgraph: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalFailure as exc:
        print(f"dpgraph: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"dpgraph: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"dpgraph: bad JSON input: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("dpgraph: input too large to hold in memory", file=sys.stderr)
        return EXIT_IO
    except DpGraphError as exc:
        print(f"dpgraph: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
