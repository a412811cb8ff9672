"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single pass/fail line
(visible with ``pytest -s`` or in captured output).
"""

import json
import time
from contextlib import contextmanager

import mpmath
import pytest

from dht_rebalance.bounds import (
    ClusterParams,
    Scenario,
    StabilizationMode,
    WorkloadKind,
    bound_report,
    bound_table,
)
from dht_rebalance.cli import case_study, main, sweep_rows
from dht_rebalance.ring import (
    ManyTokenEqualPart,
    balance_stats,
    build_ring,
    join as ring_join,
    leave as ring_leave,
)
from dht_rebalance.sim import (
    BREAKDOWN,
    CATCHUP_STARVATION,
    EXPANSION_OVERLAP,
    STABILIZED,
    SimConfig,
    run,
)

BANDWIDTH = 1.25e8  # 1 Gbps in bytes/s
VALUE_SIZE = 16.0
B = BANDWIDTH / VALUE_SIZE

INCR_CONC = Scenario(WorkloadKind.INCREASING_PER_NODE, StabilizationMode.CONCURRENT)
INCR_CLEAR = Scenario(WorkloadKind.INCREASING_PER_NODE, StabilizationMode.CLEAR)
STAB_CONC = Scenario(WorkloadKind.STABLE_TOTAL, StabilizationMode.CONCURRENT)
STAB_CLEAR = Scenario(WorkloadKind.STABLE_TOTAL, StabilizationMode.CLEAR)
ALL = (INCR_CONC, INCR_CLEAR, STAB_CONC, STAB_CLEAR)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    print(f"criterion {num}: PASS - {desc}")


def _oracle_bounds(n, mu):
    """128-bit re-evaluation of all six closed forms."""
    mpmath.mp.prec = 128
    n = mpmath.mpf(n)
    mu = mpmath.mpf(mu)
    bb = mpmath.mpf(BANDWIDTH) / mpmath.mpf(VALUE_SIZE)
    root = mpmath.sqrt(4 * n + 1) - 1
    return {
        "storage_increasing": float((1 - n / (n + 1) * mu) * bb),
        "bandwidth_increasing": float(bb / (n + 1)),
        "time_increasing": float(root / (2 * n) * bb),
        "storage_stable": float((1 + 1 / n - mu) * bb),
        "bandwidth_stable": float(bb / n),
        "time_stable": float((n + 1) * root / (2 * n * n) * bb),
    }


def test_criterion_1_closed_form_fidelity():
    with criterion(1, "all six bounds match a 128-bit oracle to 1e-12 over "
                      "N in 1..64, mu in 0.1..1.0"):
        start = time.perf_counter()
        incr, stab = WorkloadKind.INCREASING_PER_NODE, WorkloadKind.STABLE_TOTAL
        workloads = {"increasing": incr, "stable": stab}
        for n in range(1, 65):
            for tenths in range(1, 11):
                mu = tenths / 10.0
                oracle = _oracle_bounds(n, mu)
                for name, want in oracle.items():
                    kind, workload = name.split("_")
                    got = bound_table(n, mu, B, workloads[workload])[kind]
                    assert got == pytest.approx(want, rel=1e-12), (n, mu, name)
        # exact spot values
        assert bound_table(10, 0.5, B, stab)["storage"] == 4_687_500.0
        assert bound_table(2, 0.5, B, incr)["time"] == 3_906_250.0
        assert bound_table(2, 0.5, B, stab)["time"] == 5_859_375.0
        assert time.perf_counter() - start < 1.0


def test_criterion_2_sweep_curve_shapes():
    with criterion(2, "sweep curves over N in [2,50]: mu ordering, "
                      "monotonicity, stable-increasing gap delta*B"):
        start = time.perf_counter()
        mus = [0.3, 0.5, 0.7]
        rows = sweep_rows(2, 50, mus, list(ALL), BANDWIDTH, VALUE_SIZE)
        curves = {}
        for n, scen, kind, value in rows:
            curves.setdefault((scen, kind), {})[n] = value
        ns = range(2, 51)
        # (a) smaller mu -> pointwise higher storage bound
        for scen in ("increasing-concurrent", "stable-concurrent"):
            for lo, hi in zip(mus, mus[1:]):
                a = curves[(scen, f"storage(mu={lo:g})")]
                b = curves[(scen, f"storage(mu={hi:g})")]
                assert all(a[n] > b[n] for n in ns)
        # (b) bandwidth and time bounds strictly decreasing in N
        for scen, kind in (("increasing-concurrent", "bandwidth"),
                           ("stable-concurrent", "bandwidth"),
                           ("increasing-clear", "time"),
                           ("stable-clear", "time")):
            c = curves[(scen, kind)]
            assert all(c[n] > c[n + 1] for n in range(2, 50))
        # (c) stable curve above the increasing one, gap delta*B for storage
        for n in ns:
            for mu in mus:
                incr = curves[("increasing-concurrent", f"storage(mu={mu:g})")][n]
                stab = curves[("stable-concurrent", f"storage(mu={mu:g})")][n]
                delta = 1 / n - mu / (n + 1)
                assert stab > incr
                assert stab - incr == pytest.approx(delta * B, rel=1e-12)
            assert curves[("stable-concurrent", "bandwidth")][n] > \
                curves[("increasing-concurrent", "bandwidth")][n]
            assert curves[("stable-clear", "time")][n] > \
                curves[("increasing-clear", "time")][n]
        assert time.perf_counter() - start < 1.0


def test_criterion_3_simulator_theory_equivalence(capsys):
    with criterion(3, "bisected thresholds within 2% of the binding bounds "
                      "for every scenario x N in {4,8,16,32}; validate exits 0"):
        start = time.perf_counter()
        rc = main(["validate", "--n-list", "4,8,16,32",
                   "--scenario-list", "all", "--tol", "0.02"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("pass") == 16
        assert "FAIL" not in out
        assert time.perf_counter() - start < 30.0


def test_criterion_4_breakdown_taxonomy():
    with criterion(4, "1.05x the binding bound breaks down with the "
                      "claim-matched kind; 0.95x stabilizes (N in {4,16})"):
        for n in (4, 16):
            for scenario in ALL:
                p = ClusterParams(n=n, bandwidth=BANDWIDTH,
                                  value_size=VALUE_SIZE, mu=0.5)
                binding = bound_report(p, scenario).binding.value
                for factor in (0.95, 1.05):
                    lam = factor * binding
                    rate = lam * n if scenario.workload is WorkloadKind.STABLE_TOTAL else lam
                    cfg = SimConfig(p, scenario, rate, n_target=n + 1,
                                    initial_fill=1.0)
                    _, outcome = run(cfg)
                    if factor < 1:
                        assert outcome.kind == STABILIZED, (n, scenario.name)
                    else:
                        assert outcome.kind == BREAKDOWN, (n, scenario.name)
                        if scenario.mode is StabilizationMode.CONCURRENT:
                            assert outcome.breakdown_kind == EXPANSION_OVERLAP
                        else:
                            assert outcome.breakdown_kind == CATCHUP_STARVATION


def test_criterion_5_exact_migration_accounting():
    with criterion(5, "zero-write clear join moves mu*S*N/(N+1) bytes in "
                      "mu*S*N/((N+1)*b) seconds to 1e-9 relative"):
        for n, mu, storage in ((10, 0.5, 1e12), (4, 0.3, 2e12), (32, 0.9, 1e12)):
            p = ClusterParams(n=n, bandwidth=BANDWIDTH, value_size=VALUE_SIZE,
                              mu=mu, storage=storage)
            cfg = SimConfig(p, STAB_CLEAR, 0.0, n_target=n + 1,
                            initial_fill=1.0)
            events, outcome = run(cfg)
            assert outcome.kind == STABILIZED
            jc = next(e for e in events if e.kind == "join_completed")
            mu_s = mu * storage
            assert jc.duration == pytest.approx(
                mu_s * n / ((n + 1) * BANDWIDTH), rel=1e-9)
            migrated = (mu_s - jc.stored[0]) * n
            assert migrated == pytest.approx(mu_s * n / (n + 1), rel=1e-9)
        # headline example: mu=0.5, S=1e12, N=10, b=1.25e8
        p = ClusterParams(n=10, bandwidth=BANDWIDTH, value_size=VALUE_SIZE,
                          mu=0.5)
        cfg = SimConfig(p, STAB_CLEAR, 0.0, n_target=11, initial_fill=1.0)
        _, outcome = run(cfg)
        assert outcome.total_time == pytest.approx(
            0.5e12 * 10 / (11 * 1.25e8), rel=1e-9)
        assert f"{outcome.total_time:.2f}" == "3636.36"


def test_criterion_6_ring_properties():
    with criterion(6, "1000 join/leave ops keep movement local and tokens "
                      "floor/ceil balanced; epsilon_hat <= 0.05 at "
                      "(Q=4096, N=16, K=1e6)"):
        start = time.perf_counter()
        import random
        rng = random.Random(424242)
        ring = build_ring(8, ManyTokenEqualPart(1024), 7)
        next_id = 8
        for _ in range(1000):
            if ring.n > 2 and rng.random() < 0.45:
                node = rng.choice(sorted(ring.nodes))
                ring, report = ring_leave(ring, node, rng.getrandbits(32))
                # locality: only the leaver gives partitions away
                assert all(frm == node
                           for _, frm, _ in report.moved_partitions)
            else:
                ring, report = ring_join(ring, next_id, rng.getrandbits(32))
                # locality: only the joiner receives partitions
                assert all(to == next_id
                           for _, _, to in report.moved_partitions)
                next_id += 1
            counts = list(ring.token_counts().values())
            assert sum(counts) == 1024
            assert max(counts) - min(counts) <= 1  # floor/ceil balance
        stats = balance_stats(build_ring(16, ManyTokenEqualPart(4096), 20240601),
                              1_000_000, seed=20240601)
        assert stats.epsilon_hat <= 0.05
        assert time.perf_counter() - start < 10.0


def test_criterion_7_case_study(capsys):
    with criterion(7, "case study reports B=520,833.3, concurrent-stable "
                      "infeasible, storage-only N=17, reference 13/17 echoed "
                      "with note"):
        data = case_study()
        assert data["max_write_rate_per_node"] == pytest.approx(
            520_833.333, rel=1e-6)
        assert not data["concurrent_stable_feasible"]
        assert data["min_n_all_bounds"] is None
        assert data["min_n_storage_only"] == 17
        assert data["reported_reference_nodes"] == {
            "concurrent_stable": 13, "clear_stable": 17}
        rc = main(["case-study"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "520,833.3" in out
        assert "infeasible at every N" in out
        assert "storage bound alone: 17" in out
        assert "about 13 nodes" in out and "about 17 nodes" in out
        assert "note:" in out
