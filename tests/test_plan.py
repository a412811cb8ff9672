"""The capacity-planning path end to end: min_feasible_n, then bound_report,
feasibility_threshold and sweep_rows at its answer, pinned by a digest."""

import hashlib
import random

from dht_rebalance.bounds import (
    ALL_SCENARIOS,
    BoundKind,
    ClusterParams,
    WorkloadKind,
    bound_report,
    min_feasible_n,
)
from dht_rebalance.cli import sweep_rows
from dht_rebalance.sim import feasibility_threshold

GOLDEN_PLAN_SHA256 = "8b8a9bc5d30f36f9fbe95dad34d3791bbf46e57334a63fe1ac5df60490f93ac9"


def _plan_queries():
    """240 seeded queries: all four scenarios, every enforced kind or
    storage alone, mu up to 1.0, random links, and rates that put the
    answer anywhere from N = 1 to past 10^5 (or nowhere).  Each carries the
    sweep window around its answer, a mu list whose labels may repeat, and
    whether the scenario is swept twice."""
    rnd = random.Random(20261022)
    queries = []
    for i in range(240):
        sc = ALL_SCENARIOS[i % 4]
        mu = rnd.choice((1.0, rnd.uniform(0.05, 1.0)))
        bandwidth = 10 ** rnd.uniform(6, 9)
        value_size = 10 ** rnd.uniform(0, 3)
        b_rate = bandwidth / value_size
        if sc.workload is WorkloadKind.STABLE_TOTAL:
            rate = b_rate * 10 ** rnd.uniform(-2, 2.8)
        else:
            rate = b_rate * 10 ** rnd.uniform(-2, 0.3)
        kinds = rnd.choice((None, None, None, {BoundKind.STORAGE}))
        mu_list = rnd.choice(((mu,), (mu, mu / 2, (1 + mu) / 2), (mu, mu)))
        queries.append((sc, rate, bandwidth, value_size, mu, kinds,
                        rnd.randint(1, 20), mu_list, rnd.random() < 0.2,
                        rnd.randint(1, 10 ** 5)))
    return queries


def test_plan_outputs_match_golden_digest():
    """sha256 over the repr of min_feasible_n, bound_report,
    feasibility_threshold and sweep_rows of every golden query, plus one
    sweep longer than a bound_table block.  A query with no answer is
    reported and swept at a seeded size instead.  The digest was recorded
    when the threshold bisection moved to the unit link b = v = 1: against
    the bisection in physical units only thresholds moved, 81 of the 240
    by at most 1e-12 relative and 2 at N <= 2, where one side sat exactly
    on the strict binding bound, by at most 1e-4."""
    h = hashlib.sha256()
    for (sc, rate, bandwidth, value_size, mu, kinds, window, mu_list, twice,
         fallback_n) in _plan_queries():
        n = min_feasible_n(sc, rate, bandwidth=bandwidth,
                           value_size=value_size, mu=mu, kinds=kinds)
        h.update(repr(n).encode() + b"\n")
        n = fallback_n if n is None else n
        params = ClusterParams(n=n, bandwidth=bandwidth,
                               value_size=value_size, mu=mu)
        h.update(repr(bound_report(params, sc)).encode() + b"\n")
        h.update(repr(feasibility_threshold(params, sc)).encode() + b"\n")
        rows = sweep_rows(max(1, n - window), n + window, list(mu_list),
                          [sc, sc] if twice else [sc], bandwidth, value_size)
        h.update(repr(rows).encode() + b"\n")
    stable_concurrent, increasing_clear = ALL_SCENARIOS[2], ALL_SCENARIOS[1]
    rows = sweep_rows(1, 65_540, [0.3, 0.3],
                      [stable_concurrent, increasing_clear, stable_concurrent],
                      3e7, 100.0)
    h.update(repr(rows).encode())
    assert h.hexdigest() == GOLDEN_PLAN_SHA256
