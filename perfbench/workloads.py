"""The three workloads: inputs made from the seed, and the jobs that run them.

Every workload is a fixed list of jobs, one pass.  A run repeats the pass, so
each pass does the same work and fails the same jobs.  Sizes sit on a fixed
grid and the seed draws everything else (rates, mu, bandwidth, value size,
nodes, keys), so another seed changes the inputs but hardly the amount of
work, and the known-defect jobs keep their places.

Jobs call dht_rebalance only through its public functions, each call wrapped
by ``Tracer.call`` so the traced run records a span around it.  A job that is
expected to hit a known defect carries the names of the checks the defect
fails in ``expect_fail``; see known_defects.json.

Why each workload exists:

* plan     -- capacity-planning queries.  bounds (min_feasible_n,
              bound_report) and cli.sweep_rows do most of the work; sim runs
              only single-expansion bisections of at most 5 events; ring is
              idle.  The large-N stable-clear queries form the latency tail.
* scaleout -- multi-expansion sim.run jobs with their JSONL trace and summary
              serialized to os.devnull.  sim and its O(n^2) stored tuples do
              most of the work; bounds only picks rates (at set-up, from the
              benchmark's own closed forms); ring is idle.
* ring     -- membership changes (join or leave) beside reads (lookups and
              balance_stats) on one ring per strategy; bounds and sim idle.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

from dht_rebalance import bounds, cli, ring, sim
from dht_rebalance.bounds import ALL_SCENARIOS, BoundKind, ClusterParams

import checks

LOOKUP_R = 3
STORAGE = 1e12


def _log_uniform(rnd: random.Random, lo: float, hi: float) -> float:
    return math.exp(rnd.uniform(math.log(lo), math.log(hi)))


def _link(rnd: random.Random) -> tuple[float, float]:
    """(bandwidth bytes/s, value size bytes)."""
    return _log_uniform(rnd, 1e7, 1e9), _log_uniform(rnd, 8.0, 1024.0)


def _scenario_fields(sc) -> dict:
    return {"scenario": sc.name,
            "increasing": sc.workload is bounds.WorkloadKind.INCREASING_PER_NODE,
            "concurrent": sc.mode is bounds.StabilizationMode.CONCURRENT}


# ---------------------------------------------------------------------------
# plan

def _plan_job(rnd, sc, *, mu, target_n=None, storage_only=False, window,
              expect_fail=()):
    """One planning query whose min_feasible_n answer is target_n (or 1 when
    target_n is None).  Rates sit strictly inside the interval that gives
    that answer, so float and 40-digit references agree on it."""
    bandwidth, value_size = _link(rnd)
    b_rate = bandwidth / value_size
    f = rnd.uniform(0.1, 0.9)
    job = _scenario_fields(sc)
    increasing = job["increasing"]
    if target_n is None:
        rate = f * float(checks.ref_binding(1, mu, b_rate, increasing,
                                            job["concurrent"]))
    elif storage_only:
        # storage alone: rate < (N + 1 - N*mu) * B
        lo, hi = (target_n - (target_n - 1) * mu), (target_n + 1 - target_n * mu)
        rate = (lo + f * (hi - lo)) * b_rate
    else:
        lo = checks.stable_clear_capacity(target_n - 1) if target_n > 1 else 0.0
        hi = checks.stable_clear_capacity(target_n)
        rate = (lo + f * (hi - lo)) * b_rate
    job.update(bandwidth=bandwidth, value_size=value_size, mu=mu, rate=rate,
               kinds=("storage",) if storage_only else None, window=window,
               mu_list=(mu, mu / 2, (1 + mu) / 2),
               expect_fail=tuple(expect_fail))
    return job


def make_plan(seed: int, tiny: bool) -> list[dict]:
    rnd = random.Random(f"plan-{seed}")
    groups = 5 if tiny else 25
    n_top = 1e3 if tiny else 1e5
    window = 10 if tiny else 100
    inc_conc, inc_clear, st_conc, st_clear = ALL_SCENARIOS
    jobs = []
    for g in range(groups):
        u = (g + 0.5) / groups                     # midpoint of a size stratum
        jobs.append(_plan_job(rnd, inc_conc, mu=rnd.uniform(0.05, 1.0),
                              window=window))
        jobs.append(_plan_job(rnd, inc_clear, mu=rnd.uniform(0.05, 0.7),
                              window=window))
        if g % 2:
            jobs.append(_plan_job(rnd, st_conc, mu=rnd.uniform(0.3, 0.98),
                                  target_n=max(2, round(2 * 2500 ** u)),
                                  storage_only=True, window=window))
        else:
            jobs.append(_plan_job(rnd, st_conc, mu=rnd.uniform(0.05, 1.0),
                                  window=window))
        jobs.append(_plan_job(rnd, st_clear, mu=rnd.uniform(0.05, 0.7),
                              target_n=max(2, round(2 * (n_top / 2) ** u)),
                              window=window))
    # known defects, kept in the data (known_defects.json)
    defects = []
    for _ in range(4):   # ROADMAP 2(a): stable-clear at N=1
        defects.append(_plan_job(rnd, st_clear, mu=rnd.uniform(0.05, 0.7),
                                 target_n=1, window=window,
                                 expect_fail=("threshold",)))
    for _ in range(2):   # ROADMAP 2(b): clear modes at mu >= 0.9
        defects.append(_plan_job(rnd, inc_clear, mu=rnd.uniform(0.9, 1.0),
                                 window=window, expect_fail=("threshold",)))
        defects.append(_plan_job(rnd, st_clear, mu=rnd.uniform(0.9, 1.0),
                                 target_n=rnd.randint(2, 9), window=window,
                                 expect_fail=("threshold",)))
    step = len(jobs) // len(defects)
    for i, job in enumerate(defects):
        jobs.insert(i * (step + 1) + step, job)
    return jobs


def run_plan_job(job, tr, scenarios) -> tuple:
    sc = scenarios[job["scenario"]]
    kinds = None if job["kinds"] is None else {BoundKind(k) for k in job["kinds"]}
    n = tr.call("bounds.min_feasible_n", bounds.min_feasible_n, sc, job["rate"],
                bandwidth=job["bandwidth"], value_size=job["value_size"],
                mu=job["mu"], kinds=kinds)
    if n is None:
        return None, None, None, None
    params = ClusterParams(n=n, bandwidth=job["bandwidth"],
                           value_size=job["value_size"], mu=job["mu"])
    report = tr.call("bounds.bound_report", bounds.bound_report, params, sc)
    threshold = tr.call("sim.feasibility_threshold", sim.feasibility_threshold,
                        params, sc)
    rows = tr.call("cli.sweep_rows", cli.sweep_rows, max(1, n - job["window"]),
                   n + job["window"], job["mu_list"], [sc], job["bandwidth"],
                   job["value_size"])
    return n, report, threshold, rows


# ---------------------------------------------------------------------------
# scaleout

# below: under the bound at every size; low: clear mode at about 1% of the
# bound; above: over the bound from the first expansion; starve: clear mode at
# 50-85% of the bound, where runs starve within 18 expansions (known defect,
# so every n_target is at least n0 + 25).
_ROLE_FRACTION = {"below": (0.2, 0.85), "low": (0.005, 0.015),
                  "above": (1.2, 2.0), "starve": (0.5, 0.85)}
SCALEOUT_N0 = 10


def _scaleout_job(rnd, sc, role, n_target) -> dict:
    job = _scenario_fields(sc)
    bandwidth, value_size = _link(rnd)
    job.update(role=role, bandwidth=bandwidth, value_size=value_size,
               mu=rnd.uniform(0.05, 0.7), n0=SCALEOUT_N0, n_target=n_target,
               initial_fill=1.0, storage=STORAGE, rate=1.0,
               expect_fail=("outcome",) if role == "starve" else ())
    sizes = np.arange(SCALEOUT_N0, SCALEOUT_N0 + 1 if role == "above" else n_target)
    # path_ratios is linear in the rate: scale the unit rate
    f = rnd.uniform(*_ROLE_FRACTION[role])
    job["rate"] = f / float(checks.path_ratios(job, sizes).max())
    return job


def scaleout_sizes(tiny: bool) -> list[tuple[int, int]]:
    """(n_target, scenario index) of the full runs, cheapest first.

    A run's cost grows with n_target squared and with its events per
    expansion (three concurrent, four clear), so sizes alone do not order
    the jobs.  The grid therefore has three parts: a low grid, dense in the
    tens, that holds p50; a plateau of equal-cost concurrent runs that holds
    p90, so that p90 is the middle of like jobs, not an edge between sizes
    whose order the machine's noise can swap; and a few large runs above it.
    """
    if tiny:
        low, plateau, top = 8, 3, [90, 120]
        n_low, n_plateau = 60, 80
    else:
        low, plateau, top = 44, 12, [280, 350, 420, 500]
        n_low, n_plateau = 140, 200
    grid = [(round(40 * (n_low / 40) ** ((i / (low - 1)) ** 3)), i % 4)
            for i in range(low)]
    grid += [(n_plateau, 2 * (i % 2)) for i in range(plateau)]  # concurrent
    grid += [(n, (low + i) % 4) for i, n in enumerate(top)]
    return grid


def make_scaleout(seed: int, tiny: bool) -> list[dict]:
    """Full runs (below or low) on the scaleout_sizes grid, plus short runs
    that break down (above, starve)."""
    rnd = random.Random(f"scaleout-{seed}")
    short = 4 if tiny else 20
    grid = scaleout_sizes(tiny)
    full = len(grid)
    sizes = [n for n, _ in grid]
    clear = [sc for sc in ALL_SCENARIOS
             if sc.mode is bounds.StabilizationMode.CLEAR]
    jobs = []
    for n_target, s in grid:
        sc = ALL_SCENARIOS[s]
        role = "below" if sc.mode is bounds.StabilizationMode.CONCURRENT else "low"
        jobs.append(_scaleout_job(rnd, sc, role, n_target))
    for i in range(short):
        n_target = sizes[i * full // short]
        jobs.append(_scaleout_job(rnd, ALL_SCENARIOS[i % 4], "above", n_target))
        jobs.append(_scaleout_job(rnd, clear[i % 2], "starve", n_target))
    # the same interleaving for every seed keeps each job class in its place
    random.Random(0).shuffle(jobs)
    return jobs


def run_scaleout_job(job, tr, scenarios, sink) -> tuple:
    sc = scenarios[job["scenario"]]
    params = ClusterParams(n=job["n0"], bandwidth=job["bandwidth"],
                           value_size=job["value_size"], mu=job["mu"],
                           storage=job["storage"])
    cfg = sim.SimConfig(params, sc, job["rate"], job["n_target"],
                        initial_fill=job["initial_fill"])
    events, outcome = tr.call("sim.run", sim.run, cfg)
    tr.call("sim.write_trace", sim.write_trace, events, os.devnull)
    summary = tr.call("sim.summary_dict", sim.summary_dict, events, outcome)
    sink.write(json.dumps(summary))
    return events, outcome, summary


# ---------------------------------------------------------------------------
# ring

# join, join, leave, leave: membership stays within N0..N0+2
_RING_OPS = ("join", "join", "leave", "leave")


def ring_strategies(tiny: bool) -> list[tuple[str, object, int]]:
    """(name, strategy, tokens per node or 0) per ring."""
    t = 8 if tiny else 64
    q = t * ring_nodes(tiny)
    return [("many-token-equal-part", ring.ManyTokenEqualPart(q), 0),
            ("limited-token-equal-part", ring.LimitedTokenEqualPart(t), t),
            ("limited-token-random-part", ring.LimitedTokenRandomPart(t), t)]


def ring_nodes(tiny: bool) -> int:
    return 8 if tiny else 32


def make_ring(seed: int, tiny: bool) -> dict:
    rnd = random.Random(f"ring-{seed}")
    per_strategy = 12 if tiny else 36
    keys = 2_000 if tiny else 20_000
    lookups = 8 if tiny else 32
    strategies = ring_strategies(tiny)
    n0 = ring_nodes(tiny)
    builds = [rnd.getrandbits(32) for _ in strategies]
    members = [set(range(n0)) for _ in strategies]
    next_id = [n0] * len(strategies)
    jobs = []
    for j in range(per_strategy):
        for s, (name, _strategy, t) in enumerate(strategies):
            op = _RING_OPS[j % len(_RING_OPS)]
            if op == "join":
                node = next_id[s]
                next_id[s] += 1
                members[s].add(node)
            else:
                node = rnd.choice(sorted(members[s]))
                members[s].remove(node)
            jobs.append({
                "ring": s, "strategy": name, "tokens_per_node": t, "op": op,
                "node": node, "op_seed": rnd.getrandbits(32),
                "key_sample": keys, "sample_seed": rnd.getrandbits(32),
                "lookup_keys": [rnd.getrandbits(64) for _ in range(lookups)],
                "r": LOOKUP_R, "balance_keys": keys,
                "balance_seed": rnd.getrandbits(32),
                "expect_fail": (("tokens_per_node",)
                                if name == "limited-token-equal-part" else ()),
            })
    return {"build_seeds": builds, "jobs": jobs}


def build_rings(spec, tr, tiny: bool) -> list:
    return [tr.call("ring.build_ring", ring.build_ring, ring_nodes(tiny),
                    strategy, seed)
            for (_, strategy, _), seed in zip(ring_strategies(tiny),
                                              spec["build_seeds"])]


def run_ring_job(job, tr, rings) -> tuple:
    state = rings[job["ring"]]
    op = ring.join if job["op"] == "join" else ring.leave
    after, report = tr.call(f"ring.{job['op']}", op, state, job["node"],
                            job["op_seed"], key_sample=job["key_sample"],
                            sample_seed=job["sample_seed"])
    owners = [tr.call("ring.lookup", ring.lookup, after, key, job["r"])
              for key in job["lookup_keys"]]
    stats = tr.call("ring.balance_stats", ring.balance_stats, after,
                    job["balance_keys"], job["r"], job["balance_seed"])
    rings[job["ring"]] = after
    return after, report, owners, stats
