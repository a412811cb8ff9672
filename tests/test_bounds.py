import itertools
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dht_rebalance.bounds import (
    ALL_SCENARIOS,
    AlphaOutOfRange,
    BoundKind,
    ClusterParams,
    InsufficientBandwidth,
    Scenario,
    StabilizationMode,
    WorkloadKind,
    accumulated_backlog,
    applicable_kinds,
    bandwidth_bound_increasing,
    bandwidth_bound_stable,
    bound_report,
    bound_table,
    catchup_time,
    inter_expansion_time,
    join_bandwidth,
    keys_capacity,
    min_feasible_n,
    stabilization_time,
    stable_increasing_storage_gap,
    storage_bound_increasing,
    storage_bound_stable,
    time_bound_clear_increasing,
    time_bound_clear_stable,
    time_to_first_expansion,
)

B = 1.25e8 / 16  # writes/s saturating one node at 1 Gbps, 16 B values


def params(n, mu=0.5, **kw):
    return ClusterParams(n=n, bandwidth=1.25e8, value_size=16.0, mu=mu, **kw)


# high-precision re-evaluations of the closed forms (independent oracle)

def _oracle(kind, n, mu):
    mpmath.mp.prec = 113
    n = mpmath.mpf(n)
    mu = mpmath.mpf(mu)
    b_over_v = mpmath.mpf(1.25e8) / 16
    forms = {
        "storage_increasing": (1 - n / (n + 1) * mu) * b_over_v,
        "bandwidth_increasing": b_over_v / (n + 1),
        "time_increasing": (mpmath.sqrt(4 * n + 1) - 1) / (2 * n) * b_over_v,
        "storage_stable": (1 + 1 / n - mu) * b_over_v,
        "bandwidth_stable": b_over_v / n,
        "time_stable": (n + 1) * (mpmath.sqrt(4 * n + 1) - 1) / (2 * n ** 2) * b_over_v,
    }
    return float(forms[kind])


def test_storage_increasing_values():
    assert storage_bound_increasing(params(10)) == pytest.approx(
        _oracle("storage_increasing", 10, 0.5), rel=1e-12)
    assert storage_bound_increasing(params(10)) == pytest.approx(
        6 / 11 * B, rel=1e-12)
    # mu -> 0 releases the whole bandwidth
    assert storage_bound_increasing(params(10, mu=1e-12)) == pytest.approx(B)
    # mu = 1 collapses onto the bandwidth bound
    p1 = params(10, mu=1.0)
    assert storage_bound_increasing(p1) == pytest.approx(
        bandwidth_bound_increasing(p1), rel=1e-12)


def test_bandwidth_increasing_values():
    assert bandwidth_bound_increasing(params(10)) == pytest.approx(
        710_227.27, rel=1e-6)
    assert bandwidth_bound_increasing(params(1)) == pytest.approx(B / 2)
    doubled = ClusterParams(n=10, bandwidth=2.5e8, value_size=16.0, mu=0.5)
    assert bandwidth_bound_increasing(doubled) == pytest.approx(
        2 * bandwidth_bound_increasing(params(10)))


def test_time_increasing_values():
    assert time_bound_clear_increasing(params(2)) == 3_906_250.0
    assert time_bound_clear_increasing(params(10)) == pytest.approx(
        _oracle("time_increasing", 10, 0.5), rel=1e-12)
    assert time_bound_clear_increasing(params(10)) == pytest.approx(
        2_110_595.0, rel=1e-6)


def test_time_increasing_monotone_in_n():
    prev = time_bound_clear_increasing(params(1))
    for n in [2, 3, 5, 10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6]:
        cur = time_bound_clear_increasing(params(n))
        assert cur < prev
        prev = cur


def test_storage_stable_values():
    assert storage_bound_stable(params(10)) == pytest.approx(4_687_500.0)
    p1 = params(10, mu=1.0)
    assert storage_bound_stable(p1) == pytest.approx(bandwidth_bound_stable(p1))
    gap = storage_bound_stable(params(10)) - storage_bound_increasing(params(10))
    assert gap == pytest.approx(stable_increasing_storage_gap(params(10)) * B,
                                rel=1e-9)
    assert stable_increasing_storage_gap(params(10)) > 0


def test_bandwidth_stable_values():
    assert bandwidth_bound_stable(params(10)) == pytest.approx(781_250.0)
    assert bandwidth_bound_stable(params(1)) == pytest.approx(B)
    for n in (1, 3, 17, 64):
        assert n * bandwidth_bound_stable(params(n)) == pytest.approx(B)


def test_time_stable_values():
    assert time_bound_clear_stable(params(2)) == pytest.approx(5_859_375.0)
    assert time_bound_clear_stable(params(10)) == pytest.approx(
        _oracle("time_stable", 10, 0.5), rel=1e-12)
    for n in (1, 2, 5, 10, 50):
        ratio = time_bound_clear_stable(params(n)) / time_bound_clear_increasing(params(n))
        assert ratio == pytest.approx((n + 1) / n, rel=1e-12)


def test_high_precision_cross_check_random_points():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 1000)
        mu = rng.uniform(0.01, 1.0)
        p = params(n, mu=mu)
        pairs = [
            (storage_bound_increasing(p), "storage_increasing"),
            (bandwidth_bound_increasing(p), "bandwidth_increasing"),
            (time_bound_clear_increasing(p), "time_increasing"),
            (storage_bound_stable(p), "storage_stable"),
            (bandwidth_bound_stable(p), "bandwidth_stable"),
            (time_bound_clear_stable(p), "time_stable"),
        ]
        for got, kind in pairs:
            assert got == pytest.approx(_oracle(kind, n, mu), rel=1e-12)


def test_storage_dominates_bandwidth_concurrent():
    for n in range(1, 60):
        for mu in [i / 20 for i in range(1, 21)]:
            p = params(n, mu=mu)
            assert storage_bound_increasing(p) >= bandwidth_bound_increasing(p) - 1e-9
            assert storage_bound_stable(p) >= bandwidth_bound_stable(p) - 1e-9
    p = params(7, mu=1.0)
    assert storage_bound_increasing(p) == pytest.approx(bandwidth_bound_increasing(p))


def test_stable_bounds_exceed_increasing_bounds():
    for n in range(1, 40):
        p = params(n, mu=0.7)
        assert storage_bound_stable(p) > storage_bound_increasing(p)
        assert bandwidth_bound_stable(p) > bandwidth_bound_increasing(p)
        assert time_bound_clear_stable(p) > time_bound_clear_increasing(p)


def test_storage_bounds_decrease_in_mu():
    for n in (1, 4, 16):
        values = [storage_bound_increasing(params(n, mu=m))
                  for m in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert values == sorted(values, reverse=True)


def test_bounds_homogeneous_in_b_over_v():
    base = params(12, mu=0.6)
    scaled = ClusterParams(n=12, bandwidth=2 * 1.25e8, value_size=32.0, mu=0.6)
    for fn in (storage_bound_increasing, bandwidth_bound_increasing,
               time_bound_clear_increasing, storage_bound_stable,
               bandwidth_bound_stable, time_bound_clear_stable):
        assert fn(base) == pytest.approx(fn(scaled), rel=1e-15)


def test_clear_inequality_chain_round_trip():
    # just below the time bound the published quadratic conditions hold
    for n in (1, 2, 5, 10, 50, 200):
        p = params(n)
        lam = 0.999 * time_bound_clear_increasing(p)
        alpha = p.value_size * lam / p.bandwidth
        assert 1.0 / n > alpha * alpha / (1.0 - alpha)
        lam = 0.999 * time_bound_clear_stable(p)
        alpha = p.value_size * lam / p.bandwidth
        assert alpha ** 2 + (n + 1) / n ** 2 * alpha < (n + 1) ** 2 / n ** 3
        # and just above, they fail
        lam = 1.001 * time_bound_clear_increasing(p)
        alpha = p.value_size * lam / p.bandwidth
        assert not (1.0 / n > alpha * alpha / (1.0 - alpha))


def test_bound_report_applicability():
    p = params(10)
    conc = bound_report(p, Scenario.parse("increasing-concurrent"))
    assert {e.kind for e in conc.entries if e.applicable} == {
        BoundKind.STORAGE, BoundKind.BANDWIDTH}
    assert conc.binding.kind is BoundKind.BANDWIDTH
    assert conc.binding.value == pytest.approx(710_227.27, rel=1e-6)

    clear = bound_report(p, Scenario.parse("stable-clear"))
    assert {e.kind for e in clear.entries if e.applicable} == {BoundKind.TIME}
    assert clear.binding.value == pytest.approx(2_321_655.0, rel=1e-6)

    mu1 = bound_report(params(10, mu=1.0), Scenario.parse("stable-concurrent"))
    assert mu1.binding.value == pytest.approx(B / 10)


def test_keys_capacity():
    p = ClusterParams(n=10, bandwidth=1.25e8, value_size=16.0, mu=0.5,
                      replication=3, storage=1e12)
    assert keys_capacity(p) == pytest.approx(5e12 / 48)
    unit = ClusterParams(n=1, bandwidth=1.0, value_size=1.0, mu=1.0,
                         replication=1, storage=1.0)
    assert keys_capacity(unit) == pytest.approx(1.0)
    p2 = ClusterParams(n=20, bandwidth=1.25e8, value_size=16.0, mu=0.5,
                       replication=3, storage=1e12)
    assert keys_capacity(p2) == pytest.approx(2 * keys_capacity(p))


def test_stabilization_time():
    p = params(10)
    clear = Scenario(WorkloadKind.INCREASING_PER_NODE, StabilizationMode.CLEAR)
    conc = Scenario(WorkloadKind.INCREASING_PER_NODE, StabilizationMode.CONCURRENT)
    assert stabilization_time(p, clear, 0.0) == pytest.approx(
        5e12 / 1.375e9, rel=1e-12)
    assert stabilization_time(p, conc, 1e-9) == pytest.approx(
        stabilization_time(p, clear, 0.0), rel=1e-6)
    with pytest.raises(InsufficientBandwidth):
        stabilization_time(p, conc, p.max_write_rate)
    assert join_bandwidth(p, clear, 1e6) == p.bandwidth


def test_catchup_time():
    p = params(10)
    incr = WorkloadKind.INCREASING_PER_NODE
    assert catchup_time(p, 0.0, incr) == 0.0
    assert catchup_time(p, 0.5, incr) == pytest.approx(
        5e12 * 0.5 / (11 * 0.5 * 1.25e8), rel=1e-12)
    # independent evaluation of the stable form: N^2 mu S alpha / ((N+1)(N+1-N alpha) b)
    expect = 100 * 0.5e12 * 0.5 / (11 * (11 - 5) * 1.25e8)
    assert catchup_time(p, 0.5, WorkloadKind.STABLE_TOTAL) == pytest.approx(
        expect, rel=1e-12)
    with pytest.raises(AlphaOutOfRange):
        catchup_time(p, 1.0, incr)


def test_accumulated_backlog():
    p = params(10)
    assert accumulated_backlog(p, 0.5, WorkloadKind.INCREASING_PER_NODE) == \
        pytest.approx(0.5e12 * 10 * 0.5)
    assert accumulated_backlog(p, 0.5, WorkloadKind.STABLE_TOTAL) == \
        pytest.approx(100 / 11 * 0.5e12 * 0.5)


def test_expansion_times():
    p = params(10)
    assert time_to_first_expansion(p, 0.5) == pytest.approx(8000.0)
    assert inter_expansion_time(p, 0.5, WorkloadKind.INCREASING_PER_NODE) == \
        pytest.approx(8000.0 / 11)
    assert inter_expansion_time(p, 0.5, WorkloadKind.STABLE_TOTAL) == \
        pytest.approx(800.0)
    with pytest.raises(AlphaOutOfRange):
        time_to_first_expansion(p, 0.0)


def test_min_feasible_n_case_study_numbers():
    stable_conc = Scenario(WorkloadKind.STABLE_TOTAL, StabilizationMode.CONCURRENT)
    common = dict(bandwidth=1.25e8, value_size=240.0, mu=0.5)
    # 4.8M writes/s exceeds what one node can ever receive
    assert min_feasible_n(stable_conc, 4_800_000.0, **common) is None
    # the storage bound alone admits N = 17 (brute-force oracle below)
    got = min_feasible_n(stable_conc, 4_800_000.0,
                         kinds={BoundKind.STORAGE}, **common)
    b_rate = 1.25e8 / 240.0
    brute = next(n for n in range(1, 1000)
                 if 4_800_000.0 / n < (1 + 1 / n - 0.5) * b_rate)
    assert got == brute == 17
    # a small stable workload fits on one node
    assert min_feasible_n(stable_conc, 500_000.0, bandwidth=1.25e8,
                          value_size=16.0, mu=0.5) == 1
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            min_feasible_n(stable_conc, bad, **common)
    # the link, storage and mu are checked before anything divides
    for key, bad in (("value_size", -240.0), ("value_size", 0.0),
                     ("value_size", math.nan), ("bandwidth", math.inf),
                     ("storage", 0.0), ("mu", 5.0), ("mu", 0.0),
                     ("mu", math.nan), ("replication", 0)):
        with pytest.raises(ValueError):
            min_feasible_n(stable_conc, 4_800_000.0, **{**common, key: bad})


def test_min_feasible_n_stable_storage_boundary():
    # mu = 0.3 as a double lies just below 3/10, so at N = 129 the rate sits
    # just under the stable storage bound (exactly on it for mu = 3/10).
    # min_feasible_n must agree with storage_bound_stable, which admits 129.
    stable_conc = Scenario(WorkloadKind.STABLE_TOTAL, StabilizationMode.CONCURRENT)
    rate = 713_281_250.0
    got = min_feasible_n(stable_conc, rate, bandwidth=1.25e8, value_size=16.0,
                         mu=0.3, kinds={BoundKind.STORAGE})
    assert got == 129
    assert rate / 129 < storage_bound_stable(params(129, mu=0.3))
    assert not rate / 128 < storage_bound_stable(params(128, mu=0.3))
    mpmath.mp.dps = 40
    exact = (1 + mpmath.mpf(1) / 129 - mpmath.mpf(0.3)) * mpmath.mpf(B)
    assert mpmath.mpf(rate) / 129 < exact


def _edge_rate(scenario, bandwidth, value_size, mu, kinds, edge_n):
    """The rate exactly on the lowest enforced bound at edge_n."""
    p = ClusterParams(n=edge_n, bandwidth=bandwidth, value_size=value_size, mu=mu)
    report = bound_report(p, scenario)
    rate = min((e.value for e in report.entries
                if e.applicable and (kinds is None or e.kind in kinds)),
               default=report.binding.value)
    return rate * edge_n if scenario.workload is WorkloadKind.STABLE_TOTAL else rate


def _brute_min_n(scenario, rate, bandwidth, value_size, mu, kinds, n_max):
    stable = scenario.workload is WorkloadKind.STABLE_TOTAL
    for n in range(1, n_max + 1):
        p = ClusterParams(n=n, bandwidth=bandwidth, value_size=value_size, mu=mu)
        lam = rate / n if stable else rate
        if all(lam < e.value for e in bound_report(p, scenario).entries
               if e.applicable and (kinds is None or e.kind in kinds)):
            return n
    return None


@settings(max_examples=100, deadline=None)
@given(scenario=st.sampled_from(ALL_SCENARIOS),
       bandwidth=st.floats(1e3, 1e10),
       value_size=st.floats(1.0, 1e4),
       mu=st.floats(0.01, 1.0),
       log_ratio=st.floats(-3.0, 3.0),
       edge_n=st.one_of(st.none(), st.integers(1, 2000)),
       kinds=st.sampled_from([None, {BoundKind.STORAGE}, {BoundKind.BANDWIDTH},
                              {BoundKind.TIME}, set(BoundKind)]),
       n_max=st.integers(1, 2000))
def test_min_feasible_n_matches_brute_force(scenario, bandwidth, value_size, mu,
                                            log_ratio, edge_n, kinds, n_max):
    """min_feasible_n is the smallest N whose applicable bound_report
    entries, restricted to kinds, all exceed lambda."""
    if edge_n is None:
        rate = 10.0 ** log_ratio * bandwidth / value_size
    else:
        rate = _edge_rate(scenario, bandwidth, value_size, mu, kinds, edge_n)
    got = min_feasible_n(scenario, rate, bandwidth=bandwidth,
                         value_size=value_size, mu=mu, kinds=kinds, n_max=n_max)
    assert got == _brute_min_n(scenario, rate, bandwidth, value_size, mu,
                               kinds, n_max)


def _scan_min_n(scenario, rate, bandwidth, value_size, mu, kinds, n_max):
    """min_feasible_n as a plain scan of every N from 1 in blocks of 4096:
    the oracle for the proven start, which skips sizes it shows infeasible."""
    b_rate = bandwidth / value_size
    stable = scenario.workload is WorkloadKind.STABLE_TOTAL
    enforced = [k for k in applicable_kinds(scenario)
                if kinds is None or k in kinds]
    if stable and BoundKind.BANDWIDTH in enforced and rate >= b_rate:
        return None
    top = n_max if stable else min(n_max, 1)
    for start in range(1, top + 1, 4096):
        n = np.arange(start, min(start + 4096, top + 1))
        table = bound_table(n, mu, b_rate, scenario.workload)
        lam = rate / n if stable else rate
        hits = np.flatnonzero(np.all([lam < table[k.value] for k in enforced], axis=0))
        if hits.size:
            return int(n[hits[0]])
    return None


_KIND_SUBSETS = [None] + [set(c) for r in range(4)
                          for c in itertools.combinations(BoundKind, r)]
_MU_EDGES = (1.0, 1 - 1e-12, 1 - 1e-15)


@settings(max_examples=200, deadline=None)
@given(scenario=st.sampled_from(ALL_SCENARIOS),
       bandwidth=st.floats(1e3, 1e10),
       value_size=st.floats(1.0, 1e4),
       mu=st.one_of(st.sampled_from(_MU_EDGES), st.floats(0.01, 1.0)),
       log_ratio=st.floats(-3.0, 3.0),
       edge_n=st.one_of(st.none(), st.integers(1, 2000), st.integers(1, 10 ** 6)),
       ulps=st.sampled_from((-1, 0, 1)),
       kinds=st.sampled_from(_KIND_SUBSETS),
       n_max=st.one_of(st.just(10 ** 6), st.integers(1, 10 ** 6)))
def test_min_feasible_n_matches_block_scan(scenario, bandwidth, value_size, mu,
                                           log_ratio, edge_n, ulps, kinds,
                                           n_max):
    if edge_n is None:
        rate = 10.0 ** log_ratio * bandwidth / value_size
    else:
        rate = _edge_rate(scenario, bandwidth, value_size, mu, kinds, edge_n)
        rate = math.nextafter(rate, ulps * math.inf) if ulps else rate
    got = min_feasible_n(scenario, rate, bandwidth=bandwidth,
                         value_size=value_size, mu=mu, kinds=kinds, n_max=n_max)
    assert got == _scan_min_n(scenario, rate, bandwidth, value_size, mu,
                              kinds, n_max)


@pytest.mark.parametrize("mu", _MU_EDGES + (0.3,))
@pytest.mark.parametrize("kinds", _KIND_SUBSETS)
@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.name)
def test_min_feasible_n_matches_block_scan_at_large_edges(scenario, kinds, mu):
    """Rates on a bound at large N, one ulp either side, and on a link so
    slow that B and the bounds are subnormal floats."""
    for bandwidth, value_size, edge_n, n_max in ((1.25e8, 240.0, 100_003, 200_000),
                                                 (1e-308, 1e8, 7, 400_000)):
        rate = _edge_rate(scenario, bandwidth, value_size, mu, kinds, edge_n)
        for r in (math.nextafter(rate, 0.0), rate, math.nextafter(rate, math.inf)):
            got = min_feasible_n(scenario, r, bandwidth=bandwidth,
                                 value_size=value_size, mu=mu, kinds=kinds,
                                 n_max=n_max)
            assert got == _scan_min_n(scenario, r, bandwidth, value_size, mu,
                                      kinds, n_max)


def test_cluster_params_validation():
    with pytest.raises(ValueError):
        ClusterParams(n=0, bandwidth=1.0, value_size=1.0, mu=0.5)
    with pytest.raises(ValueError):
        ClusterParams(n=1, bandwidth=1.0, value_size=1.0, mu=1.5)
    with pytest.raises(ValueError):
        ClusterParams(n=1, bandwidth=-1.0, value_size=1.0, mu=0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ClusterParams(n=1, bandwidth=bad, value_size=1.0, mu=0.5)
        with pytest.raises(ValueError):
            ClusterParams(n=1, bandwidth=1.0, value_size=bad, mu=0.5)
        with pytest.raises(ValueError):
            ClusterParams(n=1, bandwidth=1.0, value_size=1.0, mu=0.5,
                          storage=bad)


def test_scenario_parsing():
    assert Scenario.parse("stable-clear").name == "stable-clear"
    assert len(ALL_SCENARIOS) == 4
    with pytest.raises(ValueError):
        Scenario.parse("bogus")
