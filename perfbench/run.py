"""Benchmark entry point for dht_rebalance.

    python3 perfbench/run.py --workload plan|scaleout|ring --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  The program is imported from the
checkout's src/; without it the benchmark exits 2 and prints no result.

Each run starts fresh child interpreters (perfbench/child.py), one at a time.
Set-up time is taken from child start to its READY line, which it prints
after importing dht_rebalance and generating the workload's inputs from the
seed; several set-up-only children give the median.  The measuring child runs
the workload closed-loop for --seconds.  The last line of output is one JSON
object: correct, attempted, failed and the metrics that BENCHMARK.json lists
(end_to_end with --trace 0, per_layer with --trace 1), each with its unit.

``correct`` is false if any check fails outside the known defects that
known_defects.json lists; those failures still count in ``failed`` and in
fail_frac.  --tiny shrinks every size for the smoke test; its numbers are
not comparable with full runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plan", "scaleout", "ring")
SETUP_SAMPLES = 7          # set-up-only children, plus the measuring child
TIME_LIMIT_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


class Child:
    """A child interpreter whose set-up ends at its READY line."""

    def __init__(self, argv: list[str], timeout: float):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *argv],
            stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
        self.watchdog = threading.Timer(timeout, self.proc.kill)
        self.watchdog.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - self.start
        self.ready = line.strip() == "READY"

    def finish(self) -> tuple[int, list[str]]:
        try:
            lines = self.proc.stdout.read().splitlines()
            code = self.proc.wait()
        finally:
            self.watchdog.cancel()
            self.proc.stdout.close()
        return code, lines


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dht_rebalance" / "__init__.py").is_file():
        return _fail(f"no program to measure: {ROOT / 'src' / 'dht_rebalance'} "
                     "is missing")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    work_dir = (ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}"
                f"-trace{args.trace}{'-tiny' if args.tiny else ''}")
    work_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + TIME_LIMIT_S
    child_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--work-dir", str(work_dir)] + (["--tiny"] if args.tiny else [])

    def setup_only(count: int) -> list[float]:
        out = []
        for _ in range(0 if args.trace else count):
            child = Child(child_argv + ["--setup-only"],
                          deadline - time.perf_counter())
            code, _ = child.finish()
            if not child.ready or code != 0:
                raise SystemExit(_fail(f"set-up child exited {code}"))
            out.append(child.setup_s)
        return out

    # set-up samples before and after the measuring child, so that they do
    # not all fall in one phase of the machine's speed
    setups = setup_only(SETUP_SAMPLES // 2)
    child = Child(child_argv, deadline - time.perf_counter())
    setups.append(child.setup_s)
    code, lines = child.finish()
    if not child.ready or code != 0 or not lines:
        return _fail(f"measuring child exited {code}")
    setups += setup_only(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(declared):
        return _fail("metrics differ from BENCHMARK.json: "
                     f"{sorted(set(metrics) ^ set(declared))}")
    (work_dir / "failures.json").write_text(json.dumps(
        {"failing_jobs": report["failing_jobs"],
         "unexpected": report["unexpected"]}, indent=1))
    for i, names in report["failing_jobs"]:
        print(f"failed job {i}: {', '.join(names)}")
    for i, names in report["unexpected"]:
        print(f"UNEXPECTED failure {i}: {names}")
    print(json.dumps({
        "correct": not report["unexpected"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": declared[name]}
                    for name in sorted(declared)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
