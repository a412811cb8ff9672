import itertools
import math
import pickle
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dht_rebalance import bounds
from dht_rebalance.bounds import (
    ALL_SCENARIOS,
    BoundKind,
    ClusterParams,
    Scenario,
    StabilizationMode,
    WorkloadKind,
    applicable_kinds,
    bound_report,
    bound_table,
    min_feasible_n,
)

B = 1.25e8 / 16  # writes/s saturating one node at 1 Gbps, 16 B values
INC, STB = WorkloadKind.INCREASING_PER_NODE, WorkloadKind.STABLE_TOTAL


def params(n, mu=0.5, **kw):
    return ClusterParams(n=n, bandwidth=1.25e8, value_size=16.0, mu=mu, **kw)


def bound(workload, kind, n, mu=0.5, b_rate=B):
    """One closed form at one N, as a float."""
    return float(bound_table(n, mu, b_rate, workload)[kind])


# high-precision re-evaluations of the closed forms (independent oracle)

def _oracle(workload, kind, n, mu):
    mpmath.mp.prec = 113
    n = mpmath.mpf(n)
    mu = mpmath.mpf(mu)
    b_over_v = mpmath.mpf(1.25e8) / 16
    forms = {
        (INC, "storage"): (1 - n / (n + 1) * mu) * b_over_v,
        (INC, "bandwidth"): b_over_v / (n + 1),
        (INC, "time"): (mpmath.sqrt(4 * n + 1) - 1) / (2 * n) * b_over_v,
        (STB, "storage"): (1 + 1 / n - mu) * b_over_v,
        (STB, "bandwidth"): b_over_v / n,
        (STB, "time"): (n + 1) * (mpmath.sqrt(4 * n + 1) - 1) / (2 * n ** 2) * b_over_v,
    }
    return float(forms[workload, kind])


def test_storage_increasing_values():
    assert bound(INC, "storage", 10) == pytest.approx(
        _oracle(INC, "storage", 10, 0.5), rel=1e-12)
    assert bound(INC, "storage", 10) == pytest.approx(6 / 11 * B, rel=1e-12)
    # mu -> 0 releases the whole bandwidth
    assert bound(INC, "storage", 10, mu=1e-12) == pytest.approx(B)
    # mu = 1 collapses onto the bandwidth bound
    assert bound(INC, "storage", 10, mu=1.0) == pytest.approx(
        bound(INC, "bandwidth", 10, mu=1.0), rel=1e-12)


def test_bandwidth_increasing_values():
    assert bound(INC, "bandwidth", 10) == pytest.approx(710_227.27, rel=1e-6)
    assert bound(INC, "bandwidth", 1) == pytest.approx(B / 2)
    assert bound(INC, "bandwidth", 10, b_rate=2.5e8 / 16) == pytest.approx(
        2 * bound(INC, "bandwidth", 10))


def test_time_increasing_values():
    assert bound(INC, "time", 2) == 3_906_250.0
    assert bound(INC, "time", 10) == pytest.approx(
        _oracle(INC, "time", 10, 0.5), rel=1e-12)
    assert bound(INC, "time", 10) == pytest.approx(2_110_595.0, rel=1e-6)


def test_time_increasing_monotone_in_n():
    prev = bound(INC, "time", 1)
    for n in [2, 3, 5, 10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6]:
        cur = bound(INC, "time", n)
        assert cur < prev
        prev = cur


def test_storage_stable_values():
    assert bound(STB, "storage", 10) == pytest.approx(4_687_500.0)
    assert bound(STB, "storage", 10, mu=1.0) == pytest.approx(
        bound(STB, "bandwidth", 10, mu=1.0))
    # the stable bound exceeds the increasing one by delta * B
    gap = bound(STB, "storage", 10) - bound(INC, "storage", 10)
    delta = 1 / 10 - 0.5 / 11
    assert delta > 0
    assert gap == pytest.approx(delta * B, rel=1e-9)


def test_bandwidth_stable_values():
    assert bound(STB, "bandwidth", 10) == pytest.approx(781_250.0)
    assert bound(STB, "bandwidth", 1) == pytest.approx(B)
    for n in (1, 3, 17, 64):
        assert n * bound(STB, "bandwidth", n) == pytest.approx(B)


def test_time_stable_values():
    assert bound(STB, "time", 2) == pytest.approx(5_859_375.0)
    assert bound(STB, "time", 10) == pytest.approx(
        _oracle(STB, "time", 10, 0.5), rel=1e-12)
    for n in (1, 2, 5, 10, 50):
        ratio = bound(STB, "time", n) / bound(INC, "time", n)
        assert ratio == pytest.approx((n + 1) / n, rel=1e-12)


def test_high_precision_cross_check_random_points():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 1000)
        mu = rng.uniform(0.01, 1.0)
        for workload in WorkloadKind:
            for kind in ("storage", "bandwidth", "time"):
                assert bound(workload, kind, n, mu) == pytest.approx(
                    _oracle(workload, kind, n, mu), rel=1e-12)


def test_storage_dominates_bandwidth_concurrent():
    for n in range(1, 60):
        for mu in [i / 20 for i in range(1, 21)]:
            for wl in WorkloadKind:
                assert bound(wl, "storage", n, mu) >= \
                    bound(wl, "bandwidth", n, mu) - 1e-9
    assert bound(INC, "storage", 7, mu=1.0) == pytest.approx(
        bound(INC, "bandwidth", 7, mu=1.0))


def test_stable_bounds_exceed_increasing_bounds():
    for n in range(1, 40):
        for kind in ("storage", "bandwidth", "time"):
            assert bound(STB, kind, n, mu=0.7) > bound(INC, kind, n, mu=0.7)


def test_storage_bounds_decrease_in_mu():
    for n in (1, 4, 16):
        values = [bound(INC, "storage", n, mu=m) for m in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert values == sorted(values, reverse=True)


def test_bounds_homogeneous_in_b_over_v():
    base = params(12, mu=0.6)
    scaled = ClusterParams(n=12, bandwidth=2 * 1.25e8, value_size=32.0, mu=0.6)
    for scenario in ALL_SCENARIOS:
        got = [e.value for e in bound_report(scaled, scenario).entries]
        want = [e.value for e in bound_report(base, scenario).entries]
        assert got == pytest.approx(want, rel=1e-15)


def test_clear_inequality_chain_round_trip():
    # just below the time bound the published quadratic conditions hold
    for n in (1, 2, 5, 10, 50, 200):
        lam = 0.999 * bound(INC, "time", n)
        alpha = 16.0 * lam / 1.25e8
        assert 1.0 / n > alpha * alpha / (1.0 - alpha)
        lam = 0.999 * bound(STB, "time", n)
        alpha = 16.0 * lam / 1.25e8
        assert alpha ** 2 + (n + 1) / n ** 2 * alpha < (n + 1) ** 2 / n ** 3
        # and just above, they fail
        lam = 1.001 * bound(INC, "time", n)
        alpha = 16.0 * lam / 1.25e8
        assert not (1.0 / n > alpha * alpha / (1.0 - alpha))


def _whole_table(n, mu, b_rate, workload):
    """The six closed forms as one function evaluating all three kinds, as
    bound_table was written before it assembled per-kind entries.  A scalar
    n takes math.sqrt, so its table holds floats."""
    sqrt = math.sqrt if isinstance(n, int) else np.sqrt
    root = sqrt(4.0 * n + 1.0) - 1.0
    if workload is INC:
        return {"storage": (1.0 - n / (n + 1.0) * mu) * b_rate,
                "bandwidth": b_rate / (n + 1.0),
                "time": root / (2.0 * n) * b_rate}
    return {"storage": (n + 1.0 - n * mu) / n * b_rate,
            "bandwidth": b_rate / n,
            "time": (n + 1.0) * root / (2.0 * n * n) * b_rate}


def test_per_kind_forms_assemble_the_whole_table():
    """bound_table evaluates only the kinds asked for, each with the bits of
    the whole table: a scalar n, an array of sizes, and sizes as a column
    against a row of mu values."""
    rnd = random.Random(20261022)
    sizes = np.array([1, 2, 3, 13, 17, 10 ** 6, 10 ** 9] +
                     [rnd.randint(1, 10 ** 7) for _ in range(40)])
    mus = np.array([1.0, 0.5, 1 - 2 ** -53, 1e-5] +
                   [rnd.uniform(0.01, 1.0) for _ in range(4)])
    subsets = [tuple(c) for r in range(1, 4)
               for c in itertools.combinations(BoundKind, r)]
    for workload in WorkloadKind:
        b_rate = 10 ** rnd.uniform(0, 9)
        cases = [(int(n), float(mu)) for n in sizes[:12] for mu in mus]
        cases += [(sizes, float(mu)) for mu in mus]
        cases.append((sizes[:, None], mus))
        for n, mu in cases:
            whole = _whole_table(n, mu, b_rate, workload)
            assert list(bound_table(n, mu, b_rate, workload)) == \
                [k.value for k in BoundKind]
            for kinds in subsets:
                table = bound_table(n, mu, b_rate, workload, kinds)
                assert list(table) == [k.value for k in kinds]
                for kind in kinds:
                    got, want = table[kind.value], whole[kind.value]
                    assert type(got) is type(want)
                    assert np.shape(got) == np.shape(want)
                    assert np.asarray(got).tobytes() == \
                        np.asarray(want).tobytes(), (workload, kind, n, mu)


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
    # the link and mu are checked before anything divides
    for key, bad in (("value_size", -240.0), ("value_size", 0.0),
                     ("value_size", math.nan), ("bandwidth", math.inf),
                     ("value_size", 1e-320), ("mu", 5.0), ("mu", 0.0),
                     ("mu", math.nan)):
        with pytest.raises(ValueError):
            min_feasible_n(stable_conc, 4_800_000.0, **{**common, key: bad})


def test_min_feasible_n_stable_storage_boundary():
    # mu = 0.3 as a double lies just below 3/10, so at N = 129 the rate sits
    # just under the stable storage bound (exactly on it for mu = 3/10).
    # min_feasible_n must agree with the stable storage form, which admits 129.
    stable_conc = Scenario(WorkloadKind.STABLE_TOTAL, StabilizationMode.CONCURRENT)
    rate = 713_281_250.0
    got = min_feasible_n(stable_conc, rate, bandwidth=1.25e8, value_size=16.0,
                         mu=0.3, kinds={BoundKind.STORAGE})
    assert got == 129
    assert rate / 129 < bound(STB, "storage", 129, mu=0.3)
    assert not rate / 128 < bound(STB, "storage", 128, mu=0.3)
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
# (mu, rate) of stable storage-only queries on a 1e5 B/s link with 1 B
# values, at rates just above B = 1e5 and mu at or within 1e-13 of 1, where
# no size up to 10^6 qualifies: the storage form's slope N(1 - mu) is at
# most 1e-7 there, so only a margin below it proves that without a scan
_NEAR_B_QUERIES = [(1.0, 1.000000001e5), (1.0, 1.0000005e5),
                   (1.0, 1.0000015e5), (1 - 1e-13, 1.0000005e5),
                   (1 - 1e-13, 1.0000015e5)]


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
@example(ALL_SCENARIOS[2], 1e5, 1.0, 1.0, math.log10(1 + 5e-7), None, 0,
         {BoundKind.STORAGE}, 10 ** 6)
@example(ALL_SCENARIOS[2], 1e5, 1.0, 1 - 1e-13, math.log10(1 + 5e-7), None, 0,
         {BoundKind.STORAGE}, 10 ** 6)
@example(ALL_SCENARIOS[2], 1e5, 1.0, 1 - 1e-13, math.log10(1 + 1e-9), None, 0,
         {BoundKind.STORAGE}, 10 ** 6)  # proven to N = 1 116, first N 9 993
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


def _bisect_min_n(scenario, rate, bandwidth, value_size, mu, kinds, n_max):
    """min_feasible_n with the proven start found by a bisection over N: the
    oracle for the inverted bounds, which must give the same answer."""
    b_rate = bandwidth / value_size
    stable = scenario.workload is WorkloadKind.STABLE_TOTAL
    enforced = [k for k in applicable_kinds(scenario)
                if kinds is None or k in kinds]
    if stable and BoundKind.BANDWIDTH in enforced and rate >= b_rate:
        return None
    top = n_max if stable else min(n_max, 1)

    def misses(n, slack):
        table = bound_table(n, mu, b_rate, scenario.workload)
        lam = rate / n if stable else rate
        return not all(lam < table[k.value] * slack for k in enforced)

    if not misses(1, 1.0):
        return 1
    lo = 1
    if min(rate, b_rate) / bounds._PROOF_N_MAX >= sys.float_info.min:
        hi = min(top, bounds._PROOF_N_MAX) + 1
        margin = bounds._proof_margin(hi - 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if misses(mid, 1.0 + margin):
                lo = mid
            else:
                hi = mid
    start, block = lo + 1, 64
    while start <= top:
        n = np.arange(start, min(start + block, top + 1))
        table = bound_table(n, mu, b_rate, scenario.workload)
        lam = rate / n if stable else rate
        hits = np.flatnonzero(np.all([lam < table[k.value] for k in enforced], axis=0))
        if hits.size:
            return int(n[hits[0]])
        start += block
        block = min(2 * block, 4096)
    return None


_N_MAX_EDGES = (1, 50, 10 ** 6, bounds._PROOF_N_MAX + 64)


def _scans_every_size(bandwidth, value_size, mu, rate, enforced):
    """Queries whose scan may run from N = 2 to n_max under either start:
    nothing is proven on subnormal floats, nor for storage at mu within
    1e-13 of 1 when rate is within 1e-5 of B (a superset of where the
    proof's margin hides the slope N(1 - mu))."""
    b_rate = bandwidth / value_size
    return (min(rate, b_rate) / bounds._PROOF_N_MAX < sys.float_info.min
            or (BoundKind.STORAGE in enforced and mu > 1 - 1e-13
                and rate < (1 + 1e-5) * b_rate))


@settings(max_examples=500, deadline=None)
@given(scenario=st.sampled_from(ALL_SCENARIOS),
       kinds=st.sampled_from(_KIND_SUBSETS),
       mu=st.one_of(st.sampled_from(_MU_EDGES), st.floats(0.01, 1.0)),
       link=st.one_of(st.tuples(st.floats(1e3, 1e10), st.floats(1.0, 1e4)),
                      st.tuples(st.floats(1e-310, 1e-307), st.floats(1.0, 1e8))),
       log_ratio=st.floats(-3.0, 6.0),
       edge_n=st.one_of(st.none(), st.integers(1, 100),
                        st.integers(100, 10 ** 6),
                        st.integers(10 ** 6, 2 * 10 ** 9)),
       ulps=st.sampled_from((-1, 0, 1)),
       n_max=st.sampled_from(_N_MAX_EDGES))
def test_min_feasible_n_matches_bisection(scenario, kinds, mu, link, log_ratio,
                                          edge_n, ulps, n_max):
    """The start proven from the inverted bounds gives the bisection's
    answer: rates on a bound and one ulp either side, mu at and just below
    1, n_max from 1 to past the proof's reach, and subnormal links."""
    bandwidth, value_size = link
    if edge_n is None:
        rate = 10.0 ** log_ratio * bandwidth / value_size
    else:
        rate = _edge_rate(scenario, bandwidth, value_size, mu, kinds, edge_n)
        rate = math.nextafter(rate, ulps * math.inf) if ulps else rate
    assume(0 < rate < math.inf)
    enforced = [k for k in applicable_kinds(scenario)
                if kinds is None or k in kinds]
    if _scans_every_size(bandwidth, value_size, mu, rate, enforced):
        n_max = min(n_max, 10 ** 6)  # the full scan is slow, not wrong
    got = min_feasible_n(scenario, rate, bandwidth=bandwidth,
                         value_size=value_size, mu=mu, kinds=kinds, n_max=n_max)
    assert got == _bisect_min_n(scenario, rate, bandwidth, value_size, mu,
                                kinds, n_max)


def test_min_feasible_n_matches_bisection_past_one():
    """Seeded stable queries on the storage or time bound at a size from 2
    to 2 * 10^9, and one ulp either side: the answer lies past N = 1, where
    the property above draws few cases."""
    rnd = random.Random(14)
    rising = [(sc, kinds) for sc in ALL_SCENARIOS[2:] for kinds in _KIND_SUBSETS
              if {BoundKind.STORAGE, BoundKind.TIME}
              & set(applicable_kinds(sc))
              & (set(BoundKind) if kinds is None else kinds)]
    for _ in range(1500):
        scenario, kinds = rnd.choice(rising)
        mu = rnd.choice(_MU_EDGES + (rnd.uniform(0.01, 1.0),) * 3)
        bandwidth, value_size = 10 ** rnd.uniform(3, 10), 10 ** rnd.uniform(0, 4)
        edge_n = int(10 ** rnd.uniform(0.3, 9.3))
        n_max = rnd.choice(_N_MAX_EDGES + (rnd.randint(2, 10 ** 7),))
        rate = _edge_rate(scenario, bandwidth, value_size, mu, kinds, edge_n)
        rate = math.nextafter(rate, rnd.choice((0.0, rate, math.inf)))
        enforced = [k for k in applicable_kinds(scenario)
                    if kinds is None or k in kinds]
        if _scans_every_size(bandwidth, value_size, mu, rate, enforced):
            n_max = min(n_max, 10 ** 6)
        got = min_feasible_n(scenario, rate, bandwidth=bandwidth,
                             value_size=value_size, mu=mu, kinds=kinds,
                             n_max=n_max)
        assert got == _bisect_min_n(scenario, rate, bandwidth, value_size, mu,
                                    kinds, n_max), (scenario, kinds, mu,
                                                    bandwidth, value_size,
                                                    rate, n_max)


def _on_bound_queries():
    """Stable queries on a bound and one ulp either side at sizes up to
    10^6."""
    stable_conc, stable_clear = ALL_SCENARIOS[2:]
    for edge_n in (2, 17, 93, 1_000, 65_537, 10 ** 6 - 7):
        for mu in (0.05, 0.5, 0.98):
            link = dict(bandwidth=3.3e8, value_size=77.0, mu=mu)
            for scenario, kinds in ((stable_conc, {BoundKind.STORAGE}),
                                    (stable_clear, None)):
                rate = _edge_rate(scenario, link["bandwidth"],
                                  link["value_size"], mu, kinds, edge_n)
                for r in (math.nextafter(rate, 0.0), rate,
                          math.nextafter(rate, math.inf)):
                    yield scenario, r, link, kinds


def test_min_feasible_n_bound_table_calls(monkeypatch):
    """A stable query makes a fixed handful of bound_table calls: N = 1,
    the proof at the inverted size, then scalar sizes, and an array block
    only once all the scalar sizes are tested."""
    calls = []

    def counting(n, *args):
        calls.append(np.ndim(n))
        return bound_table(n, *args)

    monkeypatch.setattr(bounds, "bound_table", counting)
    prefix = [0] * (2 + bounds._SCALAR_SCAN)
    for scenario, rate, link, kinds in _on_bound_queries():
        calls.clear()
        got = min_feasible_n(scenario, rate, kinds=kinds, **link)
        assert len(calls) <= 8, (scenario, rate, link, kinds)
        if 1 in calls:
            assert calls[:len(prefix)] == prefix
        assert got == _bisect_min_n(scenario, rate, link["bandwidth"],
                                    link["value_size"], link["mu"], kinds,
                                    10 ** 6)
    # the case study: N = 1 is infeasible and the answers 17 and 93 are each
    # the first size past the proven one
    case = dict(bandwidth=1.25e8, value_size=240.0, mu=0.5)
    for scenario, kinds, want in ((ALL_SCENARIOS[2], None, None),
                                  (ALL_SCENARIOS[2], {BoundKind.STORAGE}, 17),
                                  (ALL_SCENARIOS[3], None, 93)):
        calls.clear()
        assert min_feasible_n(scenario, 4_800_000.0, kinds=kinds, **case) == want
        assert calls == ([] if want is None else [0, 0, 0])
    # just above B near mu = 1: N = 1, then a proof at n_max and no scan
    storage = {BoundKind.STORAGE}
    for mu, rate in _NEAR_B_QUERIES:
        calls.clear()
        assert min_feasible_n(ALL_SCENARIOS[2], rate, bandwidth=1e5,
                              value_size=1.0, mu=mu, kinds=storage) is None
        assert calls == [0, 0], (mu, rate)
        assert _scan_min_n(ALL_SCENARIOS[2], rate, 1e5, 1.0, mu, storage,
                           10 ** 6) is None


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
    # B = bandwidth / value_size that underflows to 0 or overflows to inf
    for bandwidth, value_size in ((1e-300, 1e300), (1e300, 1e-300),
                                  (1.25e8, 1e-320)):
        with pytest.raises(ValueError, match="bandwidth / value_size"):
            ClusterParams(n=1, bandwidth=bandwidth, value_size=value_size,
                          mu=0.5)
    # a subnormal but positive B is a link
    assert 0 < ClusterParams(n=1, bandwidth=1e-300, value_size=1e18,
                             mu=0.5).max_write_rate < 1e-300


def test_scenario_parsing():
    assert Scenario.parse("stable-clear").name == "stable-clear"
    assert len(ALL_SCENARIOS) == 4
    with pytest.raises(ValueError):
        Scenario.parse("bogus")


def test_identity_hashing_keeps_enum_and_scenario_semantics():
    """The enums hash by identity and Scenario caches its name: a lookup by
    value gives the one member, a pickle round trip gives equal members,
    scenarios, hashes and names, and bound_table stays keyed by the value
    strings."""
    assert BoundKind("storage") is BoundKind.STORAGE
    assert WorkloadKind("stable") is STB
    assert StabilizationMode("clear") is StabilizationMode.CLEAR
    for member in (*BoundKind, *WorkloadKind, *StabilizationMode):
        copy = pickle.loads(pickle.dumps(member))
        assert copy is member and hash(copy) == hash(member)
    for sc in ALL_SCENARIOS:
        assert Scenario.parse(sc.name) == sc
        assert hash(Scenario.parse(sc.name)) == hash(sc)
        fresh = Scenario(sc.workload, sc.mode)
        cached = pickle.loads(pickle.dumps(sc))
        assert vars(cached)["name"] == sc.name  # the cache travels along
        for copy in (cached, pickle.loads(pickle.dumps(fresh))):
            assert copy == sc and hash(copy) == hash(sc)
            assert copy.name == sc.name
        assert {sc: 1}[fresh] == 1
    for workload in WorkloadKind:
        assert list(bound_table(4, 0.5, B, workload)) == [
            "storage", "bandwidth", "time"]
        assert list(bound_table(4, 0.5, B, workload, (BoundKind.TIME,))) == [
            "time"]
