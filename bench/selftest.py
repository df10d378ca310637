"""Self-test of the benchmark on tiny inputs; takes about half a minute.

    python3 bench/selftest.py

Runs every workload with ``--tiny`` untraced and traced, and checks that
each run passes its correctness checks, that the printed metric names and
units are exactly those of BENCHMARK.json, that the traced counts repeat
for a repeated seed, and that the benchmark refuses to run where only
BENCHMARK.json and the benchmark's own files are present.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
COUNT_UNITS = {"count", "flop", "bytes"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [
        sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]  # fmt: skip
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.splitlines()


def check_result(workload: str, trace: int, spec: dict) -> dict:
    code, lines = run(workload, trace)
    if code != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace}: exit {code}, output {lines[-5:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace={trace}: {result}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        raise AssertionError(f"{workload} trace={trace}: metrics {got} != {wanted}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise AssertionError(f"{workload}: {name} is not a number")
    return result["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        check_result(name, 0, spec)
        first, second = (check_result(name, 1, spec) for _ in range(2))
        for metric, m in first.items():
            if m["unit"] in COUNT_UNITS and m["value"] != second[metric]["value"]:
                raise AssertionError(f"{name}: count {metric} differs between runs")
        print(f"ok {name}")

    # with only the benchmark's files present it must fail without a result
    bare = BENCH_DIR / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.*"):
        shutil.copy(path, bare / "bench")
    try:
        code, lines = run(spec["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        raise AssertionError(f"bare directory: exit {code}, output {lines}")
    print("ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
