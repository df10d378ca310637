"""dpgraph benchmark: closed-loop calls of ``dpgraph.cli.main``, checked and timed.

Run from the repository root:

    python3 bench/run.py --workload anchor_sim --seed 1 --seconds 20 --trace 0

One process runs one workload.  It builds the workload's inputs from
``--seed``, makes untimed warm-up calls, then calls the CLI in-process,
one call after another, for ``--seconds`` seconds, checking every output.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 only when every check passed.  Spans and a report with
provenance go to ``bench/_work/``; nothing of the benchmark enters
dpgraph's data outputs.  See ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()

# One BLAS thread gives a single-threaded baseline that stays steady on a
# small shared machine.  It must be set before numpy loads OpenBLAS.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if not (SRC / "dpgraph" / "__init__.py").is_file():
    sys.exit(f"bench: no dpgraph package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import ndtr  # noqa: E402

import dpgraph  # noqa: E402
import dpgraph.cli  # noqa: E402

if not Path(dpgraph.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"bench: imported dpgraph from {dpgraph.__file__}, not from {SRC}")

import tracing  # noqa: E402  (bench/tracing.py, beside this script)

E2E_METRICS = {"setup_s": "s", "call_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 9  # this process plus eight fresh set-up probes
COVERAGE_HEADER = (
    "n,L_spec,eps_spec,pair_i,pair_j,stat_kind,coverage,"
    "ci_length_full,ci_length_half,nonexist_freq,reps"
)
RELEASE_KEYS = {"n", "epsilon", "z_out", "z_in", "seed"}


def _random_graph(n: int, rng: np.random.Generator) -> np.ndarray:
    # flat truth (L zero): under probit every edge has probability Phi(0) = 1/2
    adj = rng.random((n, n)) < 0.5
    np.fill_diagonal(adj, False)
    return adj


def _discrete_laplace(lam: float, size: int, rng: np.random.Generator) -> np.ndarray:
    # difference of two geometric counts; numpy's trial counts share the +1
    return rng.geometric(1.0 - lam, size) - rng.geometric(1.0 - lam, size)


def _write_release(path: Path, n: int, epsilon: float, seed: int) -> dict:
    """A private release in ``privatize``'s schema, made by the benchmark."""
    rng = np.random.default_rng(seed)
    adj = _random_graph(n, rng)
    lam = math.exp(-epsilon / 2.0)
    doc = {
        "n": n,
        "epsilon": epsilon,
        "z_out": (adj.sum(axis=1) + _discrete_laplace(lam, n, rng)).tolist(),
        "z_in": (adj.sum(axis=0) + _discrete_laplace(lam, n, rng)).tolist(),
        "seed": seed,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return doc


def _write_edge_list(path: Path, n: int, seed: int) -> np.ndarray:
    adj = _random_graph(n, np.random.default_rng(seed))
    rows, cols = np.nonzero(adj)
    lines = [f"n={n}"]
    lines += [f"{i + 1} {j + 1}" for i, j in zip(rows.tolist(), cols.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return adj


def call_cli(argv: list[str], tracer=None) -> tuple[object, float, str]:
    """One closed-loop call of ``dpgraph.cli.main``: (exit code, seconds, output)."""
    main = dpgraph.cli.main if tracer is None else tracer.wrap("cli.main", dpgraph.cli.main)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "uncaught exception"
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, elapsed, sink.getvalue()


class Workload:
    """Inputs, argv and output checks of one workload."""

    units_per_call = 1

    def __init__(self, seed: int, inputs: Path, tiny: bool):
        self.seed = seed
        self.inputs = inputs
        self.tiny = tiny
        self.reference: bytes | None = None

    def same_as_first(self, data: bytes, what: str) -> list[str]:
        if self.reference is None:
            self.reference = data
            return []
        return [] if data == self.reference else [f"{what} differs from the first call's"]

    def headline(self, call_s: float) -> dict:
        """The workload's own name for its per-call figure."""
        return {self.headline_name: call_s}

    def final_checks(self) -> tuple[int, list[str]]:
        """Untimed checks made once per invocation: (operations, failures)."""
        return 0, []


class AnchorSim(Workload):
    """The paper's anchor cell: simulate n=100, flat truth, eps=2, 1000 reps."""

    name = "anchor_sim"

    def __init__(self, seed, inputs, tiny):
        super().__init__(seed, inputs, tiny)
        self.n, self.reps = (20, 10) if tiny else (100, 1000)
        self.units_per_call = self.reps
        self.sizes = {"n": self.n, "reps": self.reps, "pairs": 3, "stats": "xi"}
        self.out = inputs / "coverage.csv"
        self.captured = None

    def headline(self, call_s):
        return {"sim_reps_per_s": self.reps / call_s}

    def _argv(self, reps: int, out: Path) -> list[str]:
        return [
            "simulate", "--n", str(self.n), "--L", "zero", "--eps", "fixed:2",
            "--reps", str(reps), "--stats", "xi", "--seed", str(self.seed),
            "--out", str(out),
        ]  # fmt: skip

    def prepare(self) -> None:
        os.environ["DPGRAPH_THREADS"] = "1"
        # keep each run's records so the fit outcomes can be checked; the
        # shim only forwards the call, it does not time anything
        run_experiment = dpgraph.cli.run_experiment

        def capture(cfg, workers=1):
            self.captured = run_experiment(cfg, workers=workers)
            return self.captured

        dpgraph.cli.run_experiment = capture

    def warmup(self) -> None:
        call_cli(self._argv(min(self.reps, 20), self.inputs / "warmup.csv"))

    def argv(self) -> list[str]:
        self.captured = None
        return self._argv(self.reps, self.out)

    def check(self, code) -> list[str]:
        if code != 0:
            return [f"simulate exited with {code}"]
        data = self.out.read_bytes()
        fails = self.same_as_first(data, "coverage CSV")
        records = self.captured.records
        if len(records) != self.reps:
            fails.append(f"{len(records)} replication records, expected {self.reps}")
        bad = sorted({r.reason for r in records if not r.exists and r.reason != "range"})
        if bad:
            fails.append(f"non-existent fits for reasons other than range: {bad}")
        lines = data.decode("utf-8").splitlines()
        if lines[:1] != [COVERAGE_HEADER] or len(lines) != 4:
            return fails + ["coverage CSV has the wrong header or row count"]
        nonexist = sum(1 for r in records if not r.exists) / self.reps
        for line in lines[1:]:
            cells = line.split(",")
            coverage, freq, reps = float(cells[6]), float(cells[9]), int(cells[10])
            if not (0.0 <= coverage <= 1.0 and abs(freq - nonexist) < 1e-12):
                fails.append(f"implausible coverage row {line!r}")
            if reps != self.reps:
                fails.append(f"coverage row reports {reps} reps")
        return fails

    def final_checks(self):
        # the reproducibility contract: the process pool writes the same bytes
        out = self.inputs / "coverage_2workers.csv"
        os.environ["DPGRAPH_THREADS"] = "2"
        try:
            code, _, _ = call_cli(self._argv(self.reps, out))
        finally:
            os.environ["DPGRAPH_THREADS"] = "1"
        if code != 0:
            return 1, [f"simulate with 2 workers exited with {code}"]
        if out.read_bytes() != self.reference:
            return 1, ["coverage CSV with 2 workers differs from 1 worker"]
        return 1, []


class FitLarge(Workload):
    """One private fit at n=2000: the dense (2n-1)^2 solve dominates."""

    name = "fit_large"
    headline_name = "fit_s"

    def __init__(self, seed, inputs, tiny):
        super().__init__(seed, inputs, tiny)
        self.n = 40 if tiny else 2000
        self.epsilon = 2.0
        self.release = inputs / "release.json"
        self.fit = inputs / "fit.json"

    def prepare(self) -> None:
        self.doc = _write_release(self.release, self.n, self.epsilon, self.seed)
        self.sizes = {
            "n": self.n,
            "epsilon": self.epsilon,
            "unknowns": 2 * self.n - 1,
            "release_bytes": self.release.stat().st_size,
        }
        _write_release(self.inputs / "warmup.json", 20 if self.tiny else 100, 2.0, self.seed)

    def warmup(self) -> None:
        call_cli(["estimate", str(self.inputs / "warmup.json"), "--out", str(self.fit)])

    def argv(self) -> list[str]:
        return ["estimate", str(self.release), "--out", str(self.fit)]

    def check(self, code) -> list[str]:
        if code != 0:
            return [f"estimate exited with {code}"]
        data = self.fit.read_bytes()
        fails = self.same_as_first(data, "fit JSON")
        fit = json.loads(data)
        if fit.get("exists") is not True:
            return fails + [f"estimate does not exist: {fit.get('reason')}"]
        alpha, beta = np.asarray(fit["alpha"]), np.asarray(fit["beta"])
        if fit["n"] != self.n or alpha.shape != (self.n,) or beta.shape != (self.n,):
            return fails + ["fit JSON has the wrong n"]
        # the moment equations recomputed here, independently of dpgraph
        p = ndtr(alpha[:, None] + beta[None, :])
        np.fill_diagonal(p, 0.0)
        resid = np.concatenate(
            [
                np.asarray(self.doc["z_out"]) - p.sum(axis=1),
                (np.asarray(self.doc["z_in"]) - p.sum(axis=0))[: self.n - 1],
            ]
        )
        sup = float(np.abs(resid).max())
        if not sup <= 1e-8 * self.n:
            fails.append(f"moment residual {sup:.3g} exceeds 1e-8 n")
        return fails


class ReleaseIO(Workload):
    """privatize on a 0.5M-edge list: parsing and I/O, no fit."""

    name = "release_io"
    headline_name = "release_s"

    def __init__(self, seed, inputs, tiny):
        super().__init__(seed, inputs, tiny)
        self.n = 30 if tiny else 1000
        self.edges = inputs / "edges.txt"
        self.out = inputs / "release.json"

    def prepare(self) -> None:
        adj = _write_edge_list(self.edges, self.n, self.seed)
        self.out_deg, self.in_deg = adj.sum(axis=1), adj.sum(axis=0)
        self.sizes = {
            "n": self.n,
            "edges": int(adj.sum()),
            "edge_list_bytes": self.edges.stat().st_size,
        }
        _write_edge_list(self.inputs / "warmup.txt", 20, self.seed)

    def warmup(self) -> None:
        call_cli(self._argv(self.inputs / "warmup.txt"))

    def _argv(self, edges: Path) -> list[str]:
        return [
            "privatize", str(edges), "--epsilon", "1", "--seed", str(self.seed),
            "--out", str(self.out),
        ]  # fmt: skip

    def argv(self) -> list[str]:
        return self._argv(self.edges)

    def check(self, code) -> list[str]:
        if code != 0:
            return [f"privatize exited with {code}"]
        data = self.out.read_bytes()
        fails = self.same_as_first(data, "release JSON")
        doc = json.loads(data)
        if set(doc) != RELEASE_KEYS:
            return fails + [f"release JSON keys {sorted(doc)}"]
        if (doc["n"], doc["epsilon"], doc["seed"]) != (self.n, 1.0, self.seed):
            return fails + ["release JSON has the wrong n, epsilon or seed"]
        z = [doc["z_out"], doc["z_in"]]
        if any(len(v) != self.n or not all(type(x) is int for x in v) for v in z):
            return fails + ["release degrees are not n integers"]
        # at eps=1 a noise draw beyond 80 has probability below 1e-17
        noise = np.concatenate([np.subtract(z[0], self.out_deg), np.subtract(z[1], self.in_deg)])
        if np.abs(noise).max() > 80:
            fails.append(f"noise draw {int(np.abs(noise).max())} is implausibly large")
        return fails


WORKLOADS = {w.name: w for w in (AnchorSim, FitLarge, ReleaseIO)}


def _openblas_threads() -> int | None:
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    try:
        fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    fn.restype = ctypes.c_int
    return fn()


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # a checkout without git metadata


def provenance(args, workload: Workload) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.sizes,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "dpgraph_threads": os.environ.get("DPGRAPH_THREADS", "1"),
        "dpgraph": dpgraph.__version__,
        "git_commit": _git_commit(),
    }


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def setup_probe(args) -> float:
    """Set up in a fresh process, as the timed run does, and report seconds."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--setup-probe",
    ] + (["--tiny"] if args.tiny else [])  # fmt: skip
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload: Workload, seconds: float, tracer, between_calls) -> dict:
    """Closed loop: one call at a time for ``seconds``.  With a tracer, calls
    alternate untraced and traced, so both see the same machine load.
    ``between_calls`` runs after each call; its time is not counted."""
    times = {"untraced": [], "traced": []}
    failures, counts = [], None
    start = time.perf_counter()
    paused = 0.0
    call_id = 0
    while True:
        traced = tracer is not None and call_id % 2 == 1
        argv = workload.argv()
        if traced:
            tracer.install(call_id)
        try:
            code, elapsed, output = call_cli(argv, tracer if traced else None)
        finally:
            if tracer is not None:
                tracer.uninstall()
        times["traced" if traced else "untraced"].append(elapsed)
        try:
            msgs = workload.check(code)
        except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            msgs = [f"output could not be checked: {exc!r}"]
        if traced:
            got = tracing.call_counts(tracer.spans_of(call_id))
            if counts is None:
                counts = got
            elif got != counts:
                msgs.append("exact counts differ between identical calls")
        if msgs:
            failures.append({"call": call_id, "failures": msgs, "output": output[-2000:]})
        call_id += 1
        pause_start = time.perf_counter()
        between_calls()
        paused += time.perf_counter() - pause_start
        if time.perf_counter() - start - paused >= seconds and (
            tracer is None or times["traced"]
        ):
            return {"times": times, "failures": failures, "attempted": call_id, "counts": counts}


def run(args) -> int:
    workload_cls = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.tiny:
        tag += "-tiny"
    if args.setup_probe:
        tag += f"-probe{os.getpid()}"
    workdir = BENCH_DIR / "_work" / tag
    inputs = workdir / "inputs"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs.mkdir(parents=True)
    try:
        workload = workload_cls(args.seed, inputs, args.tiny)
        workload.prepare()
        workload.warmup()
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(repr(setup_s))
            return 0

        tracer = tracing.Tracer() if args.trace else None
        # set-up probes run between timed calls, so that set-up and calls
        # sample the same spells of load on a shared machine
        setup_samples = [setup_s]
        probes = 1 if args.trace else SETUP_SAMPLES

        def between_calls():
            if len(setup_samples) < probes:
                setup_samples.append(setup_probe(args))

        result = measure(workload, args.seconds, tracer, between_calls)
        while len(setup_samples) < probes:
            between_calls()
        extra_ops, extra_fails = workload.final_checks()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = result["failures"]
        if extra_fails:
            failures.append({"call": "untimed", "failures": extra_fails})
        attempted = result["attempted"] + extra_ops
        failed = len(failures)
        untraced = result["times"]["untraced"]
        call_s = statistics.median(untraced)

        if args.trace:
            ratio = statistics.median(result["times"]["traced"]) / call_s - 1.0
            metrics = tracing.layer_metrics(tracer, workload.units_per_call, ratio)
            tracer.write_csv(workdir / "spans.csv")
        else:
            values = {
                "setup_s": statistics.median(setup_samples),
                "call_s": call_s,
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_METRICS.items()}

        prov = provenance(args, workload)
        hi = high_percentile(untraced)
        summary = {
            "calls": len(untraced),
            "call_s_median": call_s,
            "call_s_high_percentile": hi,
            "failed_share": failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        summary.update(workload.headline(call_s))
        report = {
            "provenance": prov,
            "summary": summary,
            "setup_samples_s": setup_samples,
            "call_times_s": result["times"],
            "exact_counts": result["counts"],
            "failures": failures,
            "metrics": metrics,
        }
        (workdir / "report.json").write_text(json.dumps(report, indent=1) + "\n")

        print("provenance " + json.dumps(prov, sort_keys=True))
        for key, value in summary.items():
            print(f"{workload.name} {key} = {value}")
        for msg in failures:
            print(f"FAILED {json.dumps(msg)}")
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": metrics,
                }
            )
        )
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        if args.setup_probe:
            shutil.rmtree(workdir, ignore_errors=True)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed phase length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for bench/selftest.py")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
