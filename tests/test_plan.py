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

GOLDEN_PLAN_SHA256 = "718f2e3939390cbc0feb713c273f27d4d7fbc0aa8aa7dd2cbbfa822d55f1fb97"


def _plan_queries():
    """240 seeded queries: all four scenarios, every enforced kind or
    storage alone, mu up to 1.0, random links, and rates that put the
    answer anywhere from N = 1 to past 10^5 (or nowhere).  Each carries the
    sweep window around its answer and a mu list with one value per
    label."""
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
        by_label = {}  # a sweep takes one mu per label: the first of each
        for m in mu_list:
            by_label.setdefault(f"{m:g}", m)
        mu_list = tuple(by_label.values())
        window = rnd.randint(1, 20)
        rnd.random()  # a draw that no query reads, so the later ones stay
        queries.append((sc, rate, bandwidth, value_size, mu, kinds, window,
                        mu_list, rnd.randint(1, 10 ** 5)))
    return queries


def test_plan_outputs_match_golden_digest():
    """sha256 over the repr of min_feasible_n, bound_report,
    feasibility_threshold and sweep_rows of every golden query, plus one
    sweep longer than a bound_table block.  A query with no answer is
    reported and swept at a seeded size instead.  The digest was recorded
    when the threshold bisection moved to the unit link b = v = 1: against
    the bisection in physical units only thresholds moved, 81 of the 240
    by at most 1e-12 relative and 2 at N <= 2, where one side sat exactly
    on the strict binding bound, by at most 1e-4.  It held when the probe
    link became b = v = S = 1.  It was recorded again when a sweep came to
    reject a repeated (scenario, bound_kind) key, on this query list, where
    each mu list keeps one value per label and each scenario is swept once:
    the sweep before that change gives the same digest on it."""
    h = hashlib.sha256()
    for (sc, rate, bandwidth, value_size, mu, kinds, window, mu_list,
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
                          [sc], bandwidth, value_size)
        h.update(repr(rows).encode() + b"\n")
    stable_concurrent, increasing_clear = ALL_SCENARIOS[2], ALL_SCENARIOS[1]
    rows = sweep_rows(1, 65_540, [0.3], [stable_concurrent, increasing_clear],
                      3e7, 100.0)
    h.update(repr(rows).encode())
    assert h.hexdigest() == GOLDEN_PLAN_SHA256
