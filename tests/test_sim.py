import json
import math
import tracemalloc

import pytest

from dht_rebalance.bounds import (
    ClusterParams,
    InsufficientBandwidth,
    Scenario,
    StabilizationMode,
    WorkloadKind,
    bound_report,
    stabilization_time,
)
from dht_rebalance.sim import (
    BREAKDOWN,
    CATCHUP_STARVATION,
    EXPANSION_OVERLAP,
    MAX_TIME_EXCEEDED,
    STABILIZED,
    STORAGE_OVERFLOW,
    EmptyRange,
    SimConfig,
    SimEvent,
    event_to_dict,
    feasibility_threshold,
    run,
    summary_dict,
    validate_against_bounds,
    write_trace,
)

INCR_CONC = Scenario(WorkloadKind.INCREASING_PER_NODE, StabilizationMode.CONCURRENT)
INCR_CLEAR = Scenario(WorkloadKind.INCREASING_PER_NODE, StabilizationMode.CLEAR)
STAB_CONC = Scenario(WorkloadKind.STABLE_TOTAL, StabilizationMode.CONCURRENT)
STAB_CLEAR = Scenario(WorkloadKind.STABLE_TOTAL, StabilizationMode.CLEAR)


def params(n, mu=0.5):
    return ClusterParams(n=n, bandwidth=1.25e8, value_size=16.0, mu=mu,
                         storage=1e12)


def test_zero_write_clear_join_exact_migration():
    p = params(10)
    cfg = SimConfig(p, STAB_CLEAR, 0.0, n_target=11, initial_fill=1.0)
    events, outcome = run(cfg)
    assert outcome.kind == STABILIZED
    jc = next(e for e in events if e.kind == "join_completed")
    expect_t = 0.5e12 * 10 / (11 * 1.25e8)
    assert jc.duration == pytest.approx(expect_t, rel=1e-9)
    # every node ends at mu*S*N/(N+1); the migrated volume is mu*S*N/(N+1)
    assert jc.stored == tuple([0.5e12 * 10 / 11] * 11)
    moved = 0.5e12 - jc.stored[0]
    assert moved * 10 == pytest.approx(0.5e12 * 10 / 11, rel=1e-9)
    assert outcome.total_time == pytest.approx(3636.3636363636, rel=1e-9)


def test_concurrent_join_duration_matches_formula():
    p = params(10)
    lam = 0.5 * bound_report(p, STAB_CONC).binding.value
    cfg = SimConfig(p, STAB_CONC, lam * 10, n_target=11, initial_fill=1.0)
    events, outcome = run(cfg)
    assert outcome.kind == STABILIZED
    jc = next(e for e in events if e.kind == "join_completed")
    assert jc.duration == pytest.approx(
        stabilization_time(p, STAB_CONC, lam), rel=1e-9)


def test_just_above_bandwidth_bound_overlaps():
    p = params(10)
    lam = 1.05 * bound_report(p, STAB_CONC).binding.value
    cfg = SimConfig(p, STAB_CONC, lam * 10, n_target=12, initial_fill=1.0)
    _, outcome = run(cfg)
    assert outcome.kind == BREAKDOWN
    assert outcome.breakdown_kind == EXPANSION_OVERLAP
    assert outcome.at_n == 10


def test_clear_backlog_matches_accumulation_formulas():
    p = params(8)
    lam = 0.5 * bound_report(p, INCR_CLEAR).binding.value
    alpha = lam * 16 / 1.25e8
    cfg = SimConfig(p, INCR_CLEAR, lam, n_target=9, initial_fill=1.0)
    events, outcome = run(cfg)
    assert outcome.kind == STABILIZED
    jc = next(e for e in events if e.kind == "join_completed")
    assert jc.backlog == pytest.approx(0.5e12 * 8 * alpha, rel=1e-9)

    rate = 8 * 0.5 * bound_report(p, STAB_CLEAR).binding.value
    alpha = rate / 8 * 16 / 1.25e8
    cfg = SimConfig(p, STAB_CLEAR, rate, n_target=9, initial_fill=1.0)
    events, outcome = run(cfg)
    assert outcome.kind == STABILIZED
    jc = next(e for e in events if e.kind == "join_completed")
    assert jc.backlog == pytest.approx(64 / 9 * 0.5e12 * alpha, rel=1e-9)


def test_clear_catchup_duration_matches_formula():
    from dht_rebalance.bounds import catchup_time
    p = params(8)
    lam = 0.5 * bound_report(p, INCR_CLEAR).binding.value
    alpha = lam * 16 / 1.25e8
    cfg = SimConfig(p, INCR_CLEAR, lam, n_target=9, initial_fill=1.0)
    events, _ = run(cfg)
    cc = next(e for e in events if e.kind == "catchup_completed")
    assert cc.duration == pytest.approx(
        catchup_time(p, alpha, WorkloadKind.INCREASING_PER_NODE), rel=1e-9)


def test_time_to_first_expansion_from_empty():
    p = params(4)
    lam = 100_000.0
    cfg = SimConfig(p, INCR_CONC, lam, n_target=5, initial_fill=0.0)
    events, _ = run(cfg)
    trig = next(e for e in events if e.kind == "expansion_triggered")
    assert trig.time == pytest.approx(0.5e12 / (lam * 16), rel=1e-12)


def test_events_strictly_ordered_and_symmetric():
    p = params(4)
    lam = 0.5 * bound_report(p, INCR_CONC).binding.value
    cfg = SimConfig(p, INCR_CONC, lam, n_target=8, initial_fill=0.3)
    events, outcome = run(cfg)
    assert outcome.kind == STABILIZED
    assert outcome.final_n == 8
    times = [e.time for e in events]
    assert times == sorted(times)
    for ev in events:
        if ev.kind == "join_started":
            # old nodes symmetric, joining node empty
            assert len(set(ev.stored[:-1])) == 1
            assert ev.stored[-1] == 0.0
        else:
            assert len(set(ev.stored)) == 1
        assert all(0.0 <= s <= p.storage + 1e-6 for s in ev.stored)


def test_byte_conservation_stable_workload():
    # with a stable total workload the write inflow is constant, so
    # stored + backlog must equal prefill + rate*v*t at every event
    # well below the bound: repeated clear joins start from above the trigger
    # level (drained backlog piles on top), so multi-join headroom is tighter
    # than the single-expansion bound suggests
    p = params(5)
    rate = 5 * 0.25 * bound_report(p, STAB_CLEAR).binding.value
    cfg = SimConfig(p, STAB_CLEAR, rate, n_target=8, initial_fill=0.4)
    events, outcome = run(cfg)
    assert outcome.kind == STABILIZED
    prefill = 5 * 0.4 * 0.5e12
    for ev in events:
        total = sum(ev.stored) + ev.backlog
        if ev.kind == "join_started":
            total = sum(ev.stored[:-1]) + ev.backlog
        expect = prefill + rate * 16.0 * ev.time
        assert total == pytest.approx(expect, rel=1e-9)


def test_byte_conservation_increasing_workload():
    # piecewise oracle: the system rate steps from n*lam to (n+1)*lam at
    # each join_started and stays there through the join
    p = params(3)
    lam = 0.5 * bound_report(p, INCR_CONC).binding.value
    cfg = SimConfig(p, INCR_CONC, lam, n_target=6, initial_fill=0.0)
    events, _ = run(cfg)
    written = 0.0
    t_prev = 0.0
    rate = 3 * lam * 16.0
    for ev in events:
        written += rate * (ev.time - t_prev)
        t_prev = ev.time
        if ev.kind == "join_started":
            rate = ev.n * lam * 16.0  # ev.n is the post-join size
        total = sum(ev.stored)
        if ev.kind == "join_started":
            total = sum(ev.stored[:-1])
        assert total == pytest.approx(written, rel=1e-9, abs=1e-3)


def test_migration_total_per_join():
    p = params(6)
    lam = 0.5 * bound_report(p, INCR_CONC).binding.value
    cfg = SimConfig(p, INCR_CONC, lam, n_target=7, initial_fill=1.0)
    events, _ = run(cfg)
    jc = next(e for e in events if e.kind == "join_completed")
    w_post = lam * 16.0
    migrated = (1.25e8 - w_post) * jc.duration
    assert migrated == pytest.approx(0.5e12 * 6 / 7, rel=1e-9)


def test_determinism():
    p = params(4)
    cfg = SimConfig(p, STAB_CLEAR, 1e6, n_target=6, initial_fill=0.2)
    assert run(cfg) == run(cfg)


def test_insufficient_bandwidth_raises():
    p = params(4)
    cfg = SimConfig(p, INCR_CONC, 1.25e8 / 16, n_target=5, initial_fill=1.0)
    with pytest.raises(InsufficientBandwidth):
        run(cfg)


def test_max_time_exceeded():
    p = params(4)
    cfg = SimConfig(p, INCR_CONC, 10.0, n_target=5, initial_fill=0.0,
                    max_sim_time=100.0)
    _, outcome = run(cfg)
    assert outcome.kind == MAX_TIME_EXCEEDED
    # zero writes never reach the trigger at all
    cfg = SimConfig(p, STAB_CLEAR, 0.0, n_target=5, initial_fill=0.0)
    _, outcome = run(cfg)
    assert outcome.kind == MAX_TIME_EXCEEDED


def test_config_validation():
    p = params(4)
    with pytest.raises(ValueError):
        SimConfig(p, INCR_CONC, 1.0, n_target=4)
    for bad_time in (0.0, math.nan):
        with pytest.raises(ValueError):
            SimConfig(p, INCR_CONC, 1.0, n_target=5, max_sim_time=bad_time)
    with pytest.raises(ValueError):
        SimConfig(p, INCR_CONC, -1.0, n_target=5)


def test_threshold_matches_bounds_spot():
    p = params(10)
    thr = feasibility_threshold(p, STAB_CONC, tol=1e-4)
    assert thr == pytest.approx(781_250.0, rel=0.02)
    p2 = params(2)
    thr = feasibility_threshold(p2, INCR_CLEAR, tol=1e-4)
    assert thr == pytest.approx(3_906_250.0, rel=0.02)
    p3 = params(10, mu=1.0)
    thr = feasibility_threshold(p3, INCR_CONC, tol=1e-4)
    assert thr == pytest.approx(1.25e8 / 16 / 11, rel=0.02)


def test_threshold_tol_precondition():
    for bad_tol in (1e-9, math.nan):
        with pytest.raises(ValueError):
            feasibility_threshold(params(4), STAB_CONC, tol=bad_tol)


def test_validate_report():
    base = params(1)
    report = validate_against_bounds([4, 8], INCR_CLEAR, base, tol=0.02)
    assert report.all_passed
    assert len(report.rows) == 2
    assert {r.n for r in report.rows} == {4, 8}
    with pytest.raises(EmptyRange):
        validate_against_bounds([], INCR_CLEAR, base)


def test_trace_and_summary_export(tmp_path):
    p = params(4)
    lam = 0.5 * bound_report(p, INCR_CONC).binding.value
    cfg = SimConfig(p, INCR_CONC, lam, n_target=5, initial_fill=1.0)
    events, outcome = run(cfg)
    path = tmp_path / "trace.jsonl"
    write_trace(events, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(events)
    first = json.loads(lines[0])
    assert {"time", "kind", "n", "stored", "backlog"} <= set(first)
    summary = summary_dict(events, outcome)
    assert summary["outcome"] == "stabilized"
    assert summary["final_n"] == 5
    assert len(summary["joins"]) == 1


def _run_at(n, mu, scenario, frac, n_target):
    """Events of a run at frac times the binding bound, prefilled to mu*S."""
    p = params(n, mu)
    lam = frac * bound_report(p, scenario).binding.value
    rate = lam if scenario.workload is WorkloadKind.INCREASING_PER_NODE else lam * n
    events, _ = run(SimConfig(p, scenario, rate, n_target, initial_fill=1.0))
    return events


def test_trace_lines_match_event_to_dict(tmp_path):
    events = (_run_at(4, 0.5, INCR_CONC, 0.5, 7)       # joins, stabilized
              + _run_at(1, 0.5, STAB_CLEAR, 0.5, 3)    # catch-up, n = 1
              + _run_at(4, 0.5, STAB_CONC, 1.05, 6)    # expansion_overlap
              + _run_at(4, 0.9, INCR_CLEAR, 0.5, 6)    # clear storage_overflow
              + _run_at(4, 0.5, STAB_CLEAR, 0.95, 6))  # catchup_starvation
    # with mu <= 1 the joining node passes S only at a write share above
    # b/(n+1), where run() has already reported expansion_overlap; so build
    # the concurrent overflow event: old nodes' level, joining node at S
    events.append(SimEvent(7.5, "breakdown", 5, 3.75e11, 1e12,
                           breakdown_kind=STORAGE_OVERFLOW))
    kinds = {(ev.kind, ev.breakdown_kind, ev.joining_level is not None)
             for ev in events}
    assert kinds == {
        ("expansion_triggered", None, False), ("join_started", None, True),
        ("join_completed", None, False), ("catchup_completed", None, False),
        ("breakdown", EXPANSION_OVERLAP, True),
        ("breakdown", STORAGE_OVERFLOW, True),
        ("breakdown", STORAGE_OVERFLOW, False),
        ("breakdown", CATCHUP_STARVATION, False)}
    path = tmp_path / "trace.jsonl"
    write_trace(events, str(path))
    lines = path.read_text().split("\n")
    assert lines.pop() == ""
    assert len(lines) == len(events)
    for ev, line in zip(events, lines):
        assert line == json.dumps(event_to_dict(ev))
        assert len(json.loads(line)["stored"]) == ev.n == len(ev.stored)


def test_run_memory_stays_linear():
    # each event holds O(1) state, so the peak grows with the event count
    # (O(n)), not with the per-node bytes of every event (O(n^2))
    p = ClusterParams(n=2, bandwidth=1.25e8, value_size=16.0, mu=0.5)
    cfg = SimConfig(p, STAB_CONC, 0.5 * p.max_write_rate, n_target=3000)
    tracemalloc.start()
    try:
        _, outcome = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.kind == STABILIZED
    assert peak < 10e6
