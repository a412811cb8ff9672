"""Smoke test of the benchmark at tiny sizes: schema, metric names, and the
same failing checks on a held-out seed.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KNOWN = json.loads((HERE / "known_defects.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED, HELD_OUT_SEED = 1, 90210


def run_bench(workload: str, seed: int, trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failures_of(workload: str, seed: int, trace: int) -> list:
    path = (ROOT / ".perfbench-out" / f"{workload}-seed{seed}-trace{trace}-tiny"
            / "failures.json")
    return json.loads(path.read_text())["failing_jobs"]


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == ["plan", "scaleout", "ring"]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "setup_s", "wall_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb",
        "fail_frac"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= SPEC["run_seconds"] <= 60


@pytest.mark.parametrize("workload", ["plan", "scaleout", "ring"])
def test_untraced_run_reports_end_to_end_metrics(workload):
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    results = {}
    for seed in (SEED, HELD_OUT_SEED):
        out = result_of(run_bench(workload, seed, 0))
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True
        assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
        assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
        assert all(v["value"] > 0 for k, v in out["metrics"].items()
                   if k != "fail_frac")
        results[seed] = out
    # a held-out seed fails the same checks of the same jobs
    assert failures_of(workload, SEED, 0) == failures_of(workload, HELD_OUT_SEED, 0)
    frac = [r["metrics"]["fail_frac"]["value"] for r in results.values()]
    assert frac[0] == frac[1]
    failing_checks = {name for _, names in failures_of(workload, SEED, 0)
                      for name in names}
    assert failing_checks == set(KNOWN[workload]["failing_checks"])


@pytest.mark.parametrize("workload", ["plan", "scaleout", "ring"])
def test_traced_run_reports_per_layer_metrics(workload):
    out = result_of(run_bench(workload, SEED, 1))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert out["correct"] is True
    assert out["metrics"]["trace.coverage_frac"]["value"] >= 0.9
    spans = ROOT / ".perfbench-out" / f"{workload}-seed{SEED}-trace1-tiny" / "spans.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"name", "start_ns", "end_ns", "job"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("plan", SEED, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
