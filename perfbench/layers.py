"""Rows of the traced run that stand outside the workload's job list.

* scaling rows: one layer call at two sizes, so growth shows and not only a
  constant factor (sim.run also with its tracemalloc peak);
* CLI rows: each of the six subcommands run once in-process through
  ``cli.main(argv)`` and once as a subprocess; the gap is interpreter
  start-up plus import.  An exit code other than the expected one is a
  failed row.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from dht_rebalance import cli, ring, sim
from dht_rebalance.bounds import ALL_SCENARIOS, ClusterParams, Scenario

SIM_CONFIG = {"n": 8, "bandwidth": "1Gbps", "value_size": 16.0, "mu": 0.5,
              "workload": "increasing", "mode": "concurrent",
              "rate": 100000.0, "n_target": 9, "initial_fill": 1.0}

# (subcommand, arguments, expected exit code); {config} is the config path
CLI_COMMANDS = (
    ("bounds", ["--n", "10", "--mu", "0.5", "--scenario", "stable-concurrent",
                "--json"], 0),
    ("sweep", ["--n-min", "2", "--n-max", "200", "--out", os.devnull], 0),
    ("simulate", ["--config", "{config}", "--trace", os.devnull], 0),
    ("validate", ["--n-list", "2,8", "--scenario-list", "all"], 0),
    ("case-study", [], 0),
    ("ring-stats", ["--nodes", "16", "--q", "4096", "--keys", "100000"], 0),
)


def _timed(fn, *args, **kwargs) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def largest_run_peak_mb(workload) -> float:
    """tracemalloc peak of the workload's largest stabilizing sim.run job."""
    if workload.name != "scaleout":
        return 0.0
    job = max((j for j in workload.jobs if j["role"] in ("below", "low")),
              key=lambda j: j["n_target"])
    params = ClusterParams(n=job["n0"], bandwidth=job["bandwidth"],
                           value_size=job["value_size"], mu=job["mu"],
                           storage=job["storage"])
    cfg = sim.SimConfig(params, workload.scenarios[job["scenario"]], job["rate"],
                        job["n_target"], initial_fill=job["initial_fill"])
    return _peak_mb(sim.run, cfg)


def scaling_rows(tiny: bool) -> dict:
    """Names carry the full sizes; --tiny divides every size by 10 (or by 4
    for the ring) and is for schema tests only."""
    div = 10 if tiny else 1
    m = {}
    sc = Scenario.parse("stable-concurrent")
    params = ClusterParams(n=2, bandwidth=1.25e8, value_size=16.0, mu=0.5)
    # stable-concurrent binds at B/n per node: a total rate of B/2 is half
    # the bound at every size
    rate = 0.5 * params.max_write_rate
    for n_target in (300, 3000):
        cfg = sim.SimConfig(params, sc, rate, n_target // div)
        m[f"sim.run.n{n_target}.s"] = _timed(sim.run, cfg)[0]
        m[f"sim.run.n{n_target}.peak_mb"] = _peak_mb(sim.run, cfg)
    for n_max in (2000, 20000):
        m[f"cli.sweep_rows.n{n_max}.s"] = _timed(
            cli.sweep_rows, 2, n_max // div, [0.3, 0.5, 0.7], ALL_SCENARIOS,
            1.25e8, 16.0)[0]
    rdiv = 4 if tiny else 1
    for q in (4096, 65536):
        state = ring.build_ring(16, ring.ManyTokenEqualPart(q // rdiv ** 2), 7)
        m[f"ring.join.q{q}.s"] = _timed(ring.join, state, 16, 11)[0]
    for t in (64, 256):
        state = ring.build_ring(t // rdiv, ring.LimitedTokenRandomPart(t // rdiv), 5)
        keys = range(50)
        elapsed, _ = _timed(lambda: [ring.lookup(state, k, 3) for k in keys])
        m[f"ring.lookup.t{t}.us"] = elapsed / len(keys) * 1e6
    return m


def cli_rows(work_dir, src: Path) -> tuple[dict, list[tuple[str, int, int, int]]]:
    """cli.<cmd>.inproc_s and cli.<cmd>.subprocess_s for the six
    subcommands, and per subcommand (name, expected, in-process, subprocess)
    exit codes."""
    config = Path(work_dir) / "simulate.json"
    config.write_text(json.dumps(SIM_CONFIG))
    env = dict(os.environ, PYTHONPATH=str(src))
    m = {}
    codes = []
    for name, args, expected in CLI_COMMANDS:
        argv = [name] + [a.replace("{config}", str(config)) for a in args]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            elapsed, code = _timed(cli.main, argv)
        m[f"cli.{name}.inproc_s"] = elapsed
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "dht_rebalance.cli", *argv],
                              env=env, cwd=work_dir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=120)
        m[f"cli.{name}.subprocess_s"] = time.perf_counter() - t0
        codes.append((name, expected, code, proc.returncode))
    return m, codes
