import hashlib
import json
import math
import os
import random
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dht_rebalance import sim as sim_mod
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
)
from dht_rebalance.sim import (
    BREAKDOWN,
    CATCHUP_STARVATION,
    EXPANSION_OVERLAP,
    MAX_TIME_EXCEEDED,
    STABILIZED,
    STORAGE_OVERFLOW,
    EventTable,
    SimConfig,
    event_to_dict,
    feasibility_threshold,
    run,
    summary_dict,
    summary_json,
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


def _share(p, scenario, rate):
    """The per-node write share (bytes/s) after an n -> n+1 join."""
    if scenario.workload is WorkloadKind.STABLE_TOTAL:
        return rate * p.value_size / (p.n + 1)
    return rate * p.value_size


def test_concurrent_join_duration_matches_formula():
    """Exact concurrent 10 -> 11 joins at half the bandwidth bound: with w
    the write share after the join, the join takes mu*S*N/((N+1)(b - w)),
    and every node ends it at mu*S*N/(N+1) * b/(b - w)."""
    p = _exact_link(10, Fraction(1, 2))
    b, mu_s, n = p.bandwidth, p.mu * p.storage, p.n
    for scenario, rate in ((INCR_CONC, p.max_write_rate / 22),
                           (STAB_CONC, p.max_write_rate / 2)):
        events, outcome = run(SimConfig(p, scenario, rate, n + 1,
                                        initial_fill=1))
        assert outcome.kind == STABILIZED
        w = _share(p, scenario, rate)
        jc = next(e for e in events if e.kind == "join_completed")
        assert jc.duration == mu_s * n / ((n + 1) * (b - w))
        assert jc.level == mu_s * n / (n + 1) * b / (b - w)


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
    """Exact clear 8 -> 9 joins below the time bound: with w the write share
    after the join, alpha = w/b and M = mu*S*N/(N+1), the backlog drains in
    alpha*M/((1 - alpha)*b) and the next trigger comes (mu*S - M)/(alpha*b)
    after the join completes."""
    p = _exact_link(8, Fraction(1, 2))
    b, mu_s, n = p.bandwidth, p.mu * p.storage, p.n
    m = mu_s * n / (n + 1)
    for scenario, rate in ((INCR_CLEAR, p.max_write_rate / 10),
                           (STAB_CLEAR, p.max_write_rate)):
        events, _ = run(SimConfig(p, scenario, rate, n + 2, initial_fill=1))
        alpha = _share(p, scenario, rate) / b
        jc = next(e for e in events if e.kind == "join_completed")
        cc = next(e for e in events if e.kind == "catchup_completed")
        trigger = [e for e in events if e.kind == "expansion_triggered"][1]
        assert cc.duration == alpha * m / ((1 - alpha) * b)
        assert trigger.time - jc.time == (mu_s - m) / (alpha * b)


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


def test_share_at_bandwidth_overlaps_at_the_first_trigger():
    """A concurrent write share at b leaves nothing to migrate with: the
    old nodes never drain, so the run breaks down in expansion_overlap at
    its first trigger, with no join time computed."""
    p = params(4)
    for rate in (1.25e8 / 16, 2 * 1.25e8 / 16):
        cfg = SimConfig(p, INCR_CONC, rate, n_target=5, initial_fill=1.0)
        events, outcome = run(cfg)
        assert [ev.kind for ev in events] == ["expansion_triggered",
                                              "join_started", "breakdown"]
        assert outcome == sim_mod.SimOutcome(BREAKDOWN, 4, 0.0,
                                             EXPANSION_OVERLAP, 4, 0.0)


def test_max_time_exceeded():
    """A run whose next expansion never comes: zero writes never reach the
    trigger, and at 1e-300 writes/s the time to reach it overflows.  No
    event is kept and ``total_time`` is inf."""
    p = params(4)
    for scenario in ALL_SCENARIOS:
        for rate in (0.0, 1e-300):
            events, outcome = run(SimConfig(p, scenario, rate, n_target=5))
            assert len(events) == 0
            assert outcome == sim_mod.SimOutcome(MAX_TIME_EXCEEDED, 4,
                                                 math.inf)


def test_config_validation():
    p = params(4)
    with pytest.raises(ValueError):
        SimConfig(p, INCR_CONC, 1.0, n_target=4)
    with pytest.raises(ValueError):
        SimConfig(p, INCR_CONC, -1.0, n_target=5)
    # a write inflow that overflows a float would turn the run into NaN
    big = replace(p, value_size=1e10)
    for scenario, rate, n_target in ((INCR_CLEAR, 1e300, 6),
                                     (STAB_CONC, 1e300, 6),
                                     (INCR_CONC, 1e290, 10**9)):
        with pytest.raises(ValueError, match="inflow"):
            SimConfig(big, scenario, rate, n_target=n_target)
    SimConfig(big, STAB_CONC, 1e290, n_target=10**9)  # finite system-wide


def test_config_rejects_byte_totals_that_overflow():
    """The kernel's largest byte totals are the migration n * S, and in
    clear mode a join's backlog, at most inflow * S / b, and its drain
    n * b.  A config where one overflows a float is rejected, naming
    storage or bandwidth: an overflowing backlog would write a NaN level,
    and an overflowing migration would leave the join never complete."""
    # stable-clear 31 -> 34 at mu = 1: the backlog would overflow to inf
    # and the starvation row's level would be inf - inf
    found = ClusterParams(n=31, bandwidth=1.391e300, value_size=3.83e11,
                          mu=1.0, storage=6.75e305)
    with pytest.raises(ValueError, match="storage"):
        SimConfig(found, STAB_CLEAR, 1.036e291, 34)
    # n * S: 4 * 1e308 overflows in every scenario
    huge_s = ClusterParams(n=3, bandwidth=1e6, value_size=1.0, mu=0.5,
                           storage=1e308)
    for scenario in ALL_SCENARIOS:
        with pytest.raises(ValueError, match="storage"):
            SimConfig(huge_s, scenario, 1.0, 4)
    # n * b: a clear join drains at 4 * 1e308 B/s; a concurrent one does not
    huge_b = ClusterParams(n=3, bandwidth=1e308, value_size=1.0, mu=0.5,
                           storage=1.0)
    with pytest.raises(ValueError, match="bandwidth"):
        SimConfig(huge_b, INCR_CLEAR, 1.0, 4)
    SimConfig(huge_b, INCR_CONC, 1.0, 4)


@settings(max_examples=300, deadline=None)
@given(scenario=st.sampled_from(ALL_SCENARIOS),
       n=st.integers(1, 40),
       joins=st.integers(1, 5),
       mu=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
       log_b=st.floats(-300, 308.25),
       log_v=st.floats(-10, 20),
       log_s=st.one_of(st.floats(0, 308.25), st.floats(290, 308.25)),
       log_frac=st.floats(-8, 8),
       fill=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))
def test_runs_on_extreme_links_hold_no_nan(scenario, n, joins, mu, log_b,
                                           log_v, log_s, log_frac, fill):
    """Links with b and S up to the float maximum and rates up to 1e8 B:
    every config SimConfig accepts runs to rows that hold no NaN."""
    try:
        p = ClusterParams(n=n, bandwidth=10 ** log_b, value_size=10 ** log_v,
                          mu=mu, storage=10 ** log_s)
        rate = 10 ** log_frac * p.max_write_rate
        if scenario.workload is WorkloadKind.STABLE_TOTAL:
            rate *= n
        cfg = SimConfig(p, scenario, rate, n + joins, fill)
    except ValueError:
        return  # a link or a config the checks reject
    events, _ = run(cfg)
    assert not any(x != x for row in events.rows for x in row), events


def test_threshold_matches_bounds_spot():
    p = params(10)
    thr = feasibility_threshold(p, STAB_CONC)
    assert thr == pytest.approx(781_250.0, rel=0.02)
    p2 = params(2)
    thr = feasibility_threshold(p2, INCR_CLEAR)
    assert thr == pytest.approx(3_906_250.0, rel=0.02)
    p3 = params(10, mu=1.0)
    thr = feasibility_threshold(p3, INCR_CONC)
    assert thr == pytest.approx(1.25e8 / 16 / 11, rel=0.02)


def test_validate_report():
    base = params(1)
    rows = validate_against_bounds([4, 8], INCR_CLEAR, base, tol=0.02)
    assert all(r.passed for r in rows)
    assert len(rows) == 2
    assert {r.n for r in rows} == {4, 8}
    assert {r.scenario for r in rows} == {INCR_CLEAR}
    assert {r.breakdown_above for r in rows} == {CATCHUP_STARVATION}
    with pytest.raises(ValueError, match="n-range is empty"):
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


@pytest.mark.parametrize("scenario, frac, kind, joins", [
    (INCR_CONC, 0.5, STABILIZED, 4),        # several joins
    (INCR_CONC, 1.5, BREAKDOWN, 0),         # the first join never completes
    (STAB_CLEAR, 0.25, STABILIZED, 4),      # clear mode
])
def test_summary_json_is_indented_json_dumps(scenario, frac, kind, joins):
    """The printed summary is ``json.dumps(summary, indent=2)`` byte for
    byte, written without running json's pure-Python encoder."""
    p = params(4)
    lam = frac * bound_report(p, scenario).binding.value
    rate = lam if scenario.workload is WorkloadKind.INCREASING_PER_NODE else lam * 4
    events, outcome = run(SimConfig(p, scenario, rate, n_target=8,
                                    initial_fill=1.0))
    summary = summary_dict(events, outcome)
    assert (outcome.kind, len(summary["joins"])) == (kind, joins)
    assert summary_json(summary) == json.dumps(summary, indent=2)


def _run_at(n, mu, scenario, frac, n_target):
    """Events of a run at frac times the binding bound, prefilled to mu*S."""
    p = params(n, mu)
    lam = frac * bound_report(p, scenario).binding.value
    rate = lam if scenario.workload is WorkloadKind.INCREASING_PER_NODE else lam * n
    events, _ = run(SimConfig(p, scenario, rate, n_target, initial_fill=1.0))
    return events


def _float_edge_config(rate=1132.185717735206, initial_fill=1.0):
    """increasing-concurrent at mu = 1, where the storage and bandwidth bounds
    meet.  In exact arithmetic the joining node ends below S whenever the
    join completes before the next expansion; in floating point, at this
    rate one ulp below the bound and down to ten ulps below it, the sum for
    its level rounds an ulp above S, and the kernel clamps it to mu*S."""
    p = ClusterParams(n=100, bandwidth=45669206.033838026,
                      value_size=399.37825542896167, mu=1.0,
                      storage=12101084162.998093)
    return SimConfig(p, INCR_CONC, rate, n_target=101,
                     initial_fill=initial_fill)


def _float_edge_configs():
    """The float-edge config at 12 ulp steps down from its rate, each with
    initial_fill 0 and 1."""
    configs = []
    rate = _float_edge_config().rate
    for _ in range(12):
        configs += [_float_edge_config(rate, fill) for fill in (0.0, 1.0)]
        rate = math.nextafter(rate, 0.0)
    return configs


def _exact_config(cfg, scale=1):
    """cfg on Fraction inputs, each the exact value of its float, with the
    rate times scale."""
    p = cfg.params
    exact_p = replace(p, bandwidth=Fraction(p.bandwidth),
                      value_size=Fraction(p.value_size), mu=Fraction(p.mu),
                      storage=Fraction(p.storage))
    return replace(cfg, params=exact_p, rate=Fraction(cfg.rate) * scale,
                   initial_fill=Fraction(cfg.initial_fill))


def _ending(outcome):
    """How a run ended: (kind, breakdown_kind, final_n)."""
    return outcome.kind, outcome.breakdown_kind, outcome.final_n


def test_float_edge_configs_end_as_their_exact_runs():
    """A concurrent run breaks down only in expansion_overlap: a float level
    an ulp above S at the bandwidth bound is rounding, not an overflow, so
    each float-edge run ends as its run on Fraction inputs, and its join
    completes at a level no higher than S."""
    p = _float_edge_config().params
    assert _float_edge_config().rate < bound_table(
        p.n, p.mu, p.max_write_rate,
        WorkloadKind.INCREASING_PER_NODE)["bandwidth"]
    for cfg in _float_edge_configs():
        events, outcome = run(cfg)
        assert _ending(outcome) == _ending(run(_exact_config(cfg))[1]), cfg
        assert events[-1].kind == "join_completed"
        assert events[-1].level <= p.storage, cfg


def test_trace_lines_match_event_to_dict(tmp_path):
    # 190 joins that stabilize (the CI trace config), where the writer reuses
    # texts: each join_started holds the time and level objects of the
    # expansion_triggered before it, and the mu*S level object recurs every
    # third row, in both rows of each later pair
    scale_out = run(SimConfig(params(10), INCR_CONC, 1000.0, 200,
                              initial_fill=1.0))[0]
    tables = (scale_out,
              _run_at(4, 0.5, INCR_CONC, 0.5, 7),      # joins, stabilized
              _run_at(1, 0.5, STAB_CLEAR, 0.5, 3),     # catch-up, n = 1
              _run_at(4, 0.5, STAB_CONC, 1.05, 6),     # expansion_overlap
              _run_at(4, 0.9, INCR_CLEAR, 0.5, 6),     # clear storage_overflow
              _run_at(4, 0.5, STAB_CLEAR, 0.95, 6))    # catchup_starvation
    rows = scale_out.rows
    assert len(rows) == 570
    for i in range(1, len(rows), 3):
        assert rows[i][1] == "join_started"
        assert rows[i][0] is rows[i - 1][0] and rows[i][3] is rows[i - 1][3]
    mu_s = rows[3][3]
    assert [i for i, row in enumerate(rows) if row[3] is mu_s] == [
        i for i in range(3, len(rows)) if i % 3 != 2]
    events = EventTable([row for table in tables for row in table.rows])
    kinds = {(ev.kind, ev.breakdown_kind, ev.joining_level is not None)
             for ev in events}
    assert kinds == {
        ("expansion_triggered", None, False), ("join_started", None, True),
        ("join_completed", None, False), ("catchup_completed", None, False),
        ("breakdown", EXPANSION_OVERLAP, True),
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


def test_event_table_is_a_list_of_rows():
    cfg = SimConfig(params(4), STAB_CLEAR, 1e6, n_target=6, initial_fill=0.2)
    events, _ = run(cfg)
    rows = list(events)
    assert len(events) == len(rows) > 4
    assert all(type(ev) is type(rows[0]) for ev in rows)
    assert events[0] == rows[0] and events[-1] == rows[-1]
    assert events[-len(rows)] == rows[0]
    with pytest.raises(IndexError):
        events[len(rows)]
    assert list(events[1:3]) == rows[1:3]
    assert list(reversed(events)) == rows[::-1]
    assert repr(events) == repr(rows)
    assert events == run(cfg)[0]
    other, _ = run(replace(cfg, n_target=5))
    assert events != other


def test_trace_lines_match_json_dumps_for_non_finite_and_int_values(tmp_path):
    # integer-valued inputs give integer levels, which json writes as ints;
    # a run keeps no non-finite value but a clear overflow's time past the
    # float range, so the hand-built rows below hold them
    p = ClusterParams(n=4, bandwidth=10**8, value_size=16, mu=1,
                      storage=10**12)
    rows = run(SimConfig(p, INCR_CLEAR, 1000, n_target=6,
                         initial_fill=1))[0].rows
    rows += [(math.inf, "join_completed", 5, 4e11, None, math.inf, math.inf,
              None),
             (-math.inf, "breakdown", 2, -0.0, math.nan, math.inf, None,
              STORAGE_OVERFLOW)]
    events = EventTable(rows)
    path = tmp_path / "trace.jsonl"
    write_trace(events, str(path))
    text = path.read_text()
    for token in ('"time": Infinity', '"time": -Infinity', '[-0.0, NaN]',
                  '"backlog": Infinity', '"stored": [1000000000000, '):
        assert token in text
    lines = text.split("\n")
    assert lines.pop() == ""
    assert len(lines) == len(events)
    for ev, line in zip(events, lines):
        assert line == json.dumps(event_to_dict(ev))


def test_trace_and_summary_of_an_exact_run(tmp_path):
    """An exact run writes each Fraction as the float nearest it: every line
    parses and equals its row with each Fraction made a float, and the
    summary serialises with ``default=float``."""
    p = _exact_link(4, Fraction(1, 2))
    rows = []
    for scenario in ALL_SCENARIOS:
        rate = p.max_write_rate / 9
        if scenario.workload is WorkloadKind.STABLE_TOTAL:
            rate *= 4
        table, outcome = run(SimConfig(p, scenario, rate, 7,
                                       initial_fill=Fraction(1, 3)))
        rows += table.rows
    events = EventTable(rows)
    assert "catchup_completed" in {ev.kind for ev in events}
    assert any(isinstance(ev.level, Fraction) and ev.level.denominator > 1
               for ev in events)
    path = tmp_path / "trace.jsonl"
    write_trace(events, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(events)

    def as_float(x):
        return float(x) if isinstance(x, Fraction) else x

    for ev, line in zip(events, lines):
        expect = {key: [as_float(x) for x in value] if key == "stored"
                  else as_float(value)
                  for key, value in event_to_dict(ev).items()}
        assert json.loads(line) == expect
    summary = summary_dict(table, outcome)
    assert isinstance(summary["total_time"], Fraction)
    assert json.loads(json.dumps(summary, default=float))["total_time"] == \
        float(summary["total_time"])


def test_trace_lines_match_json_dumps_where_texts_are_reused(tmp_path):
    """The writer keeps a number's text while the next row holds the same
    object: a time and level pair that two rows share, a level object that
    recurs every third row and one that returns after two other levels, a
    time or backlog that the next row holds too, and a joining level that
    is its row's backlog.  Each line is ``json.dumps``' text of its event,
    with ``default=float``, which only writes a Fraction as the float
    nearest it."""
    rnd = random.Random(19)
    # every type a trace may hold, each one fixed object; 0 and 0.0, 1, 1.0
    # and Fraction(1), and -0.0 and 0.0 are equal but print differently
    fixed = [math.inf, -math.inf, math.nan, -0.0, 0.0, 0, 1, 1.0, Fraction(1),
             7, 10**15, Fraction(1, 3), Fraction(-22, 7), 1e-300, 0.1]

    def number():
        return rnd.choice(fixed) if rnd.random() < 0.5 else rnd.uniform(0, 1e12)

    rows = []
    backlog = None
    for _ in range(600):
        a, b, c = number(), number(), number()
        levels = rnd.choice([[a, a], [a, a, b, a, a, c, a], [a, b, c, a]])
        shared = len(levels) == 2  # as expansion_triggered and join_started
        time = number()
        for level in levels:
            if not shared and rnd.random() < 0.5:
                time = number()
            if backlog is None or rnd.random() < 0.5:
                backlog = number()
            joining = rnd.choice([None, 0.0, backlog, number()])
            rows.append((time, "breakdown", 1 + len(rows) % 4, level,
                         joining, backlog, rnd.choice([None, number()]),
                         rnd.choice([None, STORAGE_OVERFLOW])))

    def recurs(i, gap):
        """Row i's level is row i - gap's, and no row between holds it."""
        level = rows[i][3]
        return (rows[i - gap][3] is level
                and all(row[3] is not level for row in rows[i - gap + 1:i]))

    inner = range(3, len(rows))
    assert sum(rows[i][0] is rows[i - 1][0] and rows[i][3] is rows[i - 1][3]
               for i in inner) > 100
    assert sum(recurs(i, 2) for i in inner) > 100
    assert sum(recurs(i, 3) and rows[i - 1][3] is not rows[i - 2][3]
               for i in inner) > 100
    assert sum(row[4] is row[5] for row in rows) > 100
    assert {type(x) for row in rows for x in row[3:7]} == {
        type(None), float, int, Fraction}
    events = EventTable(rows)
    path = tmp_path / "trace.jsonl"
    write_trace(events, str(path))
    lines = path.read_text().split("\n")
    assert lines.pop() == ""
    assert len(lines) == len(events)
    for ev, line in zip(events, lines):
        assert line == json.dumps(event_to_dict(ev), default=float)
    assert sum(isinstance(ev.level, Fraction) for ev in events) > 100


def test_trace_memory_stays_flat_in_the_row_count():
    # rows with four numbers of their own each: the writer holds one line
    # at a time, so its peak does not grow with the row count (6000 rows at
    # n = 2 and 3000 at n = 500: 0.09-0.10 MB, where 256-row blocks of
    # texts took about 0.34 MB)
    for n, count in ((2, 6000), (500, 3000)):
        events = EventTable([(i + 0.5, "join_completed", n, i * 1.1, None,
                              i * 0.3, i * 0.7, None) for i in range(count)])
        tracemalloc.start()
        try:
            write_trace(events, os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e5, (n, count, peak)


def test_join_whose_time_overflows_never_completes():
    """A join of 4e11 bytes over a 1e-300 B/s link would complete at time
    inf: it never completes, so the run stops in place of it with
    max_time_exceeded.  No row holds an inf time or a NaN, at a zero rate
    (0 * inf) either."""
    p = ClusterParams(n=4, bandwidth=1e-300, value_size=16.0, mu=0.5)
    for scenario in ALL_SCENARIOS:
        for rate in (0.0, 1e-320):
            events, outcome = run(SimConfig(p, scenario, rate, 6,
                                            initial_fill=1))
            assert [ev.kind for ev in events] == ["expansion_triggered",
                                                  "join_started"]
            assert outcome == sim_mod.SimOutcome(MAX_TIME_EXCEEDED, 4,
                                                 math.inf)
            for ev in events:
                values = [ev.time, ev.level, ev.joining_level, ev.backlog,
                          ev.duration]
                assert all(x is None or math.isfinite(x) for x in values), ev


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


def _exact_or_zero(x):
    """A computed Fraction, or the kernel's literal 0.0 for 'none'."""
    return isinstance(x, Fraction) or (type(x) is float and x == 0.0)


def test_kernel_runs_exactly_on_fractions():
    """The kernel uses only + - * / and comparisons, so on Fraction inputs
    every computed time and level is a Fraction; the float run of the same
    config ends the same way at the same times to 1e-12.  Each scenario runs
    one expansion well below and well above its binding bound, and a
    scale-out at 4/5 of it, where the clear modes' drained backlog lifts a
    post-join level to mu*S or above (no headroom left before the trigger)."""
    exact_p = ClusterParams(n=4, bandwidth=Fraction(125_000_000),
                            value_size=Fraction(16), mu=Fraction(1, 2),
                            storage=Fraction(10 ** 12))
    float_p = params(4)
    for scenario in ALL_SCENARIOS:
        binding = Fraction(bound_report(float_p, scenario).binding.value)
        for factor, n_target, kind in ((Fraction(1, 2), 5, STABILIZED),
                                       (Fraction(3, 2), 5, BREAKDOWN),
                                       (Fraction(4, 5), 16, None)):
            rate = factor * binding
            if scenario.workload is WorkloadKind.STABLE_TOTAL:
                rate *= 4
            exact_events, exact = run(SimConfig(
                exact_p, scenario, rate, n_target, initial_fill=Fraction(1, 2)))
            float_events, approx = run(SimConfig(
                float_p, scenario, float(rate), n_target, initial_fill=0.5))
            assert exact.kind == approx.kind == (kind or exact.kind)
            assert exact.breakdown_kind == approx.breakdown_kind
            assert exact.final_n == approx.final_n
            assert isinstance(exact.total_time, Fraction)
            for time, _, _, level, joining, backlog, duration, _ \
                    in exact_events.rows:
                assert isinstance(time, Fraction) and isinstance(level, Fraction)
                assert joining is None or _exact_or_zero(joining)
                assert _exact_or_zero(backlog)
                assert duration is None or isinstance(duration, Fraction)
            assert [r[1:3] for r in exact_events.rows] == \
                [r[1:3] for r in float_events.rows]
            for e, f in zip(exact_events.rows, float_events.rows):
                assert math.isclose(e[0], f[0], rel_tol=1e-12), (scenario.name, e, f)
        if scenario.mode is StabilizationMode.CLEAR:
            mu_s = exact_p.mu * exact_p.storage
            assert any(row[1] == "join_completed" and row[3] >= mu_s
                       for row in exact_events.rows)


def _exact_link(n, mu):
    """A 1 Gbps link with 16-byte values and 1 TB nodes, exact: B = 7 812 500
    writes/s."""
    return ClusterParams(n=n, bandwidth=Fraction(125_000_000),
                         value_size=Fraction(16), mu=Fraction(mu),
                         storage=Fraction(10 ** 12))


def test_clear_catchup_ending_at_the_trigger_starves():
    """At the clear time bound of a 2 -> 3 join at mu = 1/2 (B/2 per node,
    or 3B/2 system-wide) catch-up ends exactly at the next trigger.  A
    backlog that drains exactly then still counts as present: the run
    starves at t_trig with an empty backlog, as the strict bound says.  Just
    below the bound the run stabilizes."""
    p = _exact_link(2, Fraction(1, 2))
    B = p.max_write_rate
    for scenario, bound in ((INCR_CLEAR, B / 2), (STAB_CLEAR, 3 * B / 2)):
        events, outcome = run(SimConfig(p, scenario, bound, 3, initial_fill=1))
        jc = next(e for e in events if e.kind == "join_completed")
        # the 2/3 of mu*S left after the join refills at b/2 per node
        t_trig = jc.time + (p.mu * p.storage - jc.level) / (p.bandwidth / 2)
        assert (outcome.kind, outcome.breakdown_kind) == (BREAKDOWN,
                                                          CATCHUP_STARVATION)
        assert outcome.total_time == t_trig
        assert events[-1].backlog == 0
        assert "catchup_completed" not in [e.kind for e in events]
        below = (1 - Fraction(1, 10 ** 6)) * bound
        _, outcome = run(SimConfig(p, scenario, below, 3, initial_fill=1))
        assert outcome.kind == STABILIZED


def test_clear_level_reaching_storage_at_catchup_end_overflows():
    """increasing-clear at mu = 1 and B/3 per node: the level reaches S
    exactly when catch-up ends, at 8000 s, which is a storage overflow."""
    p = _exact_link(2, 1)
    cfg = SimConfig(p, INCR_CLEAR, p.max_write_rate / 3, 3, initial_fill=1)
    events, outcome = run(cfg)
    assert (outcome.kind, outcome.breakdown_kind) == (BREAKDOWN,
                                                      STORAGE_OVERFLOW)
    assert outcome.total_time == 8000
    assert events[-1].level == p.storage


def _single_expansion(p, scenario, lam, fill):
    """How one n -> n+1 expansion from fill*mu*S ends at per-node rate lam,
    as a ``run`` with the threshold probe's target: (outcome kind, breakdown
    kind)."""
    rate = lam * p.n if scenario.workload is WorkloadKind.STABLE_TOTAL else lam
    _, outcome = run(SimConfig(p, scenario, rate, p.n + 1, fill))
    return outcome.kind, outcome.breakdown_kind


def test_threshold_probe_is_exact_on_exact_inputs():
    """The threshold's probe starts from the exact trigger level, so on
    exact inputs it is an exact run: at exactly the increasing-clear time
    bound of a 2 -> 3 join at mu = 1/2, B/2 = 3 906 250 writes/s, it starves
    as ``run`` does."""
    p = _exact_link(2, Fraction(1, 2))
    bound = Fraction(3_906_250)
    assert _single_expansion(p, INCR_CLEAR, bound, 1) == (BREAKDOWN,
                                                          CATCHUP_STARVATION)
    assert sim_mod._probe(p, INCR_CLEAR, bound) == CATCHUP_STARVATION
    below = bound * (1 - Fraction(1, 2 ** 40))
    assert sim_mod._probe(p, INCR_CLEAR, below) == STABILIZED


# the lattice's trigger fill ratios: sixteenths, and 1 - 2**-j up to j = 9
LATTICE_MUS = sorted({Fraction(j, 16) for j in range(1, 17)}
                     | {1 - Fraction(1, 2 ** j) for j in range(1, 10)})


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda sc: sc.name)
def test_each_form_is_the_root_of_its_kernel_condition(scenario):
    """At N = k(k+1), k = 1..7, sqrt(4N + 1) = 2k + 1, so every form is
    rational.  Each condition of one expansion cycle, written in alpha = w/b
    with w the write share after the join and M = mu*S*N/(N+1), holds with
    equality at its exact root:

    * bandwidth: an old node's net rate w - (b - w)/N is 0;
    * storage: the joining node ends the join at M*b/(b - w) = S;
    * time: catch-up, alpha*M/((1 - alpha)*b), lasts the trigger interval
      (mu*S - M)/(alpha*b);
    * trigger (ROADMAP item 1b, clear modes): the level at the next
      trigger, mu*S + alpha*M, is S, at alpha = (1 - mu)(N + 1)/(mu*N).

    Each root but the trigger's (``bound_table`` holds no trigger form yet)
    is, as a per-node rate, its ``bound_table`` form to within 2**-44, the
    forms' rounding with a tenfold margin and 16 times below a 2**-40
    change.  An exact run at the binding root breaks down with the matching
    kind, and one at root * (1 - 2**-40) stabilizes; the threshold's probe
    says the same.  A clear scenario's binding root is min(time, trigger):
    storage_overflow where the trigger root is the smaller or ties, as at
    N = 2, mu = 3/4, since the storage test comes first, starvation
    elsewhere; its storage root never binds below it.  mu = 1, where the
    clear threshold is 0, is ``test_clear_thresholds_at_mu_1_are_zero``."""
    stable = scenario.workload is WorkloadKind.STABLE_TOTAL
    clear = scenario.mode is StabilizationMode.CLEAR
    mus = [mu for mu in LATTICE_MUS if mu < 1] if clear else LATTICE_MUS
    below = 1 - Fraction(1, 2 ** 40)
    for k in range(1, 8):
        n = k * (k + 1)
        for mu in mus:
            p = _exact_link(n, mu)
            b, mu_s = p.bandwidth, p.mu * p.storage
            m = mu_s * n / (n + 1)
            alpha = {BoundKind.BANDWIDTH: Fraction(1, n + 1),
                     BoundKind.STORAGE: 1 - mu * n / (n + 1),
                     BoundKind.TIME: Fraction(1, k + 1)}
            a = alpha[BoundKind.BANDWIDTH]
            assert a * b - (b - a * b) / n == 0
            a = alpha[BoundKind.STORAGE]
            assert m * b / (b - a * b) == p.storage
            a = alpha[BoundKind.TIME]
            assert a * m / ((1 - a) * b) == (mu_s - m) / (a * b)
            # w = lam * v, or lam * v * N/(N+1) for a stable workload
            scale = p.max_write_rate * (Fraction(n + 1, n) if stable else 1)
            roots = {kind: a * scale for kind, a in alpha.items()}
            table = bound_table(n, float(mu), float(p.max_write_rate),
                                scenario.workload)
            for kind, root in roots.items():
                assert abs(Fraction(float(table[kind.value])) - root) \
                    <= root * 2 ** -44, (scenario.name, n, mu, kind)
            lam = min(roots[kind] for kind in applicable_kinds(scenario))
            if clear:
                a = (1 - mu) * (n + 1) / (mu * n)
                assert a * m == (1 - mu) * p.storage
                trigger = a * scale
                assert roots[BoundKind.STORAGE] >= min(lam, trigger)
                breakdown = (STORAGE_OVERFLOW if trigger <= lam
                             else CATCHUP_STARVATION)
                lam = min(lam, trigger)
            else:
                assert lam == roots[BoundKind.BANDWIDTH], (scenario.name, n, mu)
                breakdown = EXPANSION_OVERLAP
            assert _single_expansion(p, scenario, lam, 1) == (BREAKDOWN,
                                                              breakdown)
            assert _single_expansion(p, scenario, lam * below, 1) == (
                STABILIZED, None), (scenario.name, n, mu)
            assert sim_mod._probe(p, scenario, lam) == breakdown
            assert sim_mod._probe(p, scenario, lam * below) == STABILIZED


def _exact_threshold_bracket(p, scenario):
    """(lo, hi) with lo feasible and hi infeasible (or b/v) for one exact
    expansion, bisected until hi - lo <= 1e-12 * lo, or (0, hi) if no rate
    above hi = 2**-200 b/v is feasible: an exact threshold of 0, as the
    clear modes have at mu = 1."""
    lo, hi = Fraction(0), p.max_write_rate
    for _ in range(200):
        if lo > 0 and hi - lo <= lo / 10 ** 12:
            return lo, hi
        mid = (lo + hi) / 2
        if _single_expansion(p, scenario, mid, 1)[0] == STABILIZED:
            lo = mid
        else:
            hi = mid
    assert lo == 0, "the bracket did not close"
    return lo, hi


def _float_and_exact_agree(scenario, n, mu, bandwidth, value_size, storage,
                           frac):
    """Does one expansion at frac times the exact threshold end the same way
    in float and in exact arithmetic?  None for a rate within 1e-9
    (relative) of the exact bracket, which is not tested."""
    float_p = ClusterParams(n=n, bandwidth=bandwidth, value_size=value_size,
                            mu=mu, storage=storage)
    exact_p = ClusterParams(n=n, bandwidth=Fraction(bandwidth),
                            value_size=Fraction(value_size), mu=Fraction(mu),
                            storage=Fraction(storage))
    lo, hi = _exact_threshold_bracket(exact_p, scenario)
    lam = frac * float(lo)
    if lo * (1 - 1e-9) < lam < hi * (1 + 1e-9):
        return None
    return (_single_expansion(float_p, scenario, lam, 1.0)
            == _single_expansion(exact_p, scenario, Fraction(lam), 1))


@settings(max_examples=60, deadline=None)
@given(scenario=st.sampled_from(ALL_SCENARIOS),
       n=st.integers(1, 40),
       mu=st.one_of(st.floats(0.05, 1.0, exclude_min=True),
                    st.floats(1 - 1e-5, 1.0)),
       bandwidth=st.floats(1e6, 1e9),
       value_size=st.floats(1.0, 1e3),
       storage=st.floats(1e9, 1e13),
       frac=st.one_of(st.floats(0.0, 2.0), st.floats(0.999, 1.001)))
def test_float_and_exact_runs_agree_away_from_the_threshold(
        scenario, n, mu, bandwidth, value_size, storage, frac):
    """One expansion ends the same way in float and in exact arithmetic at
    every rate 1e-9 or more outside the exact threshold's bracket, at every
    mu: the float kernel's rounding moves the threshold, not the physics.
    The clear storage test compares the drained backlog with the headroom
    (1 - mu) * S itself, so near mu = 1 the threshold moves no further than
    elsewhere, although mu * S rounds by as much as that headroom."""
    agree = _float_and_exact_agree(scenario, n, mu, bandwidth, value_size,
                                   storage, frac)
    assume(agree is not None)
    assert agree


def test_float_run_resolves_a_sub_ulp_storage_headroom():
    # mu = 1 - 2**-53 leaves 1.1e-7 bytes of headroom on a 1e9-byte node,
    # whose ulp is 1.2e-7: at 3/4 of the exact threshold the exact run
    # stabilizes, and so does the float run, whose storage test reads the
    # headroom, not a level near S
    assert _float_and_exact_agree(INCR_CLEAR, 10, 1 - 2 ** -53, 1e6, 1.0, 1e9,
                                  0.75)


# ---------------------------------------------------------------------------
# physics past 1e18 s: no cut in time decides an outcome

@pytest.mark.parametrize("storage", [1e9, 1e300, 1e306])
def test_clear_thresholds_at_mu_1_are_zero(storage):
    """At mu = 1 the level at the next trigger is S plus the drained
    backlog, so every positive rate overflows storage before it: the clear
    thresholds are exactly 0, however late the crossing comes, also past
    the float range on a node of 1e300 or 1e306 B.  The concurrent
    thresholds keep their bandwidth bound."""
    p = ClusterParams(n=10, bandwidth=1e6, value_size=1.0, mu=1.0,
                      storage=storage)
    assert feasibility_threshold(p, INCR_CLEAR) == 0.0
    assert feasibility_threshold(p, STAB_CLEAR) == 0.0
    for scenario in (INCR_CONC, STAB_CONC):
        assert feasibility_threshold(p, scenario) == pytest.approx(
            bound_report(p, scenario).binding.value, rel=1e-4)


@pytest.mark.parametrize("exact", [False, True])
def test_clear_run_at_mu_1_overflows_after_1e18_s(exact):
    """increasing-clear at mu = 1, 9.02e-11 writes/s, 10 -> 11 from a full
    trigger level: catch-up ends at 909 s, and the level crosses S at about
    1.0079e18 s, before the next trigger.  The run is a storage overflow
    there, with no catchup_completed row, in float and in exact
    arithmetic."""
    num = Fraction if exact else float
    p = ClusterParams(n=10, bandwidth=num(10 ** 6), value_size=num(1),
                      mu=num(1), storage=num(10 ** 9))
    events, outcome = run(SimConfig(p, INCR_CLEAR, num(9.02e-11), 11,
                                    initial_fill=1))
    assert [ev.kind for ev in events] == ["expansion_triggered",
                                          "join_started", "join_completed",
                                          "breakdown"]
    assert (outcome.kind, outcome.breakdown_kind, outcome.final_n) == (
        BREAKDOWN, STORAGE_OVERFLOW, 11)
    assert outcome.total_time == pytest.approx(1.0079e18, rel=1e-4)
    assert events[-1].level == p.storage


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("n_target", [11, 12])
def test_clear_run_at_mu_1_overflows_past_the_float_range(exact, n_target):
    """increasing-clear at mu = 1, 1e-301 writes/s, 10 -> 11 from a full
    trigger level: the headroom test decides the overflow before the next
    trigger, and the level crosses S at about 9e308 s, past the largest
    float.  The run is a storage overflow, at time inf in float, whatever
    its n_target, as in exact arithmetic."""
    num = Fraction if exact else float
    p = ClusterParams(n=10, bandwidth=num(10 ** 6), value_size=num(1),
                      mu=num(1), storage=num(10 ** 9))
    events, outcome = run(SimConfig(p, INCR_CLEAR, num(1e-301), n_target,
                                    initial_fill=1))
    assert [ev.kind for ev in events] == ["expansion_triggered",
                                          "join_started", "join_completed",
                                          "breakdown"]
    assert (outcome.kind, outcome.breakdown_kind, outcome.final_n) == (
        BREAKDOWN, STORAGE_OVERFLOW, 11)
    assert outcome.total_time > sys.float_info.max
    assert events[-1].level == p.storage


def test_slow_link_runs_stabilize_after_1e18_s():
    """A 1 B/s link with 16 B values and 1e20 B nodes: one join moves 4e19
    B, so a run's events fall far past 1e18 s.  Runs 4 -> 6 at half the
    binding bound at N = 5, the tighter of the two sizes, stabilize in all
    four scenarios."""
    p = ClusterParams(n=4, bandwidth=1.0, value_size=16.0, mu=0.5,
                      storage=1e20)
    for scenario in ALL_SCENARIOS:
        lam = 0.5 * bound_report(replace(p, n=5), scenario).binding.value
        rate = lam * 4 if scenario.workload is WorkloadKind.STABLE_TOTAL else lam
        events, outcome = run(SimConfig(p, scenario, rate, 6, initial_fill=1))
        assert (outcome.kind, outcome.final_n) == (STABILIZED, 6)
        assert 1e20 < outcome.total_time < 1e21
        assert [ev.n for ev in events if ev.kind == "join_completed"] == [5, 6]


def _ulps_from(x, k):
    """The float k ulps above x (below it for a negative k)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


_SWITCH = Fraction(1, 10 ** 9)  # the relative distance of a rate from a switch


@settings(max_examples=400, deadline=None)
@given(scenario=st.sampled_from(ALL_SCENARIOS),
       n=st.integers(1, 60),
       joins=st.integers(1, 25),
       mu=st.one_of(st.floats(0.01, 1.0), st.floats(1 - 1e-5, 1.0),
                    st.just(1.0),
                    st.integers(1, 64).map(lambda k: 1 - k * 2 ** -53)),
       log_b=st.floats(3, 10),
       log_v=st.floats(0, 3),
       log_s=st.floats(6, 14),
       fill=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
       frac_ulps=st.one_of(st.tuples(st.floats(0.0, 2.0), st.just(0)),
                           st.tuples(st.floats(0.99, 1.01), st.just(0)),
                           st.tuples(st.just(1.0), st.integers(-30, 30))))
def test_float_runs_end_as_their_exact_runs_away_from_a_switch(
        scenario, n, joins, mu, log_b, log_v, log_s, fill, frac_ulps):
    """A multi-expansion float run ends as its run on Fraction inputs, in
    the same (kind, breakdown_kind, final_n), at every mu up to 1 and rates
    up to 2x the binding bound, down to a few ulps from it.  Two rates are
    exempt.  One within 1e-9 of an exact switch, shown by the exact runs at
    rate * (1 +- 1e-9) ending differently: there rounding may pick either
    side.  And one so small that its exact run lasts past the largest
    float: the float run's time overflows, so it ends in max_time_exceeded,
    as the simulator documents."""
    p = ClusterParams(n=n, bandwidth=10 ** log_b, value_size=10 ** log_v,
                      mu=mu, storage=10 ** log_s)
    bound = bound_report(p, scenario).binding.value
    if scenario.workload is WorkloadKind.STABLE_TOTAL:
        bound *= n
    frac, ulps = frac_ulps
    cfg = SimConfig(p, scenario, _ulps_from(frac * bound, ulps), n + joins,
                    fill)
    exact = run(_exact_config(cfg))[1]
    got = _ending(run(cfg)[1])
    if got == _ending(exact):
        return
    # a time past the float range is inf in float: that expansion never comes
    if exact.total_time > sys.float_info.max:
        assert got[0] == MAX_TIME_EXCEEDED, (cfg, got)
        return
    below, above = (_ending(run(_exact_config(cfg, 1 + d))[1])
                    for d in (-_SWITCH, _SWITCH))
    assert below != above, (cfg, got, exact)


# ---------------------------------------------------------------------------
# outcome rule

def _rate_scale(p, scenario):
    """Per-node rate scale of a scenario: its binding bound for mu <= 1,
    the bandwidth form for concurrent modes and the time form for clear."""
    kind = "bandwidth" if scenario.mode is StabilizationMode.CONCURRENT else "time"
    return float(bound_table(p.n, p.mu, p.max_write_rate, scenario.workload)[kind])


GOLDEN_RUNS_SHA256 = "e579ad9b1146c3e66efbb551b576d5bad5356fe93f9bca767de3fcd50cfdfcb6"
# the bytes the digest holds for a _no_bandwidth_left config: the recording
# simulator raised an exception there and hashed the name of its class,
# since removed
_NO_BANDWIDTH_TOKEN = bytes.fromhex(
    "496e73756666696369656e7442616e647769647468")


def _no_bandwidth_left(cfg):
    """A concurrent run whose write share after the first join is b or
    more: it ends in expansion_overlap at its first trigger."""
    p = cfg.params
    share = cfg.rate * p.value_size
    if cfg.scenario.workload is WorkloadKind.STABLE_TOTAL:
        share /= p.n + 1
    return (cfg.scenario.mode is StabilizationMode.CONCURRENT
            and share >= p.bandwidth)


def _golden_configs():
    """624 seeded configs: all four scenarios, mu up to 1.0, initial_fill
    0, 1 or random, rates from 0 to 3x the scenario's bound, and the
    float-edge configs."""
    rnd = random.Random(20261018)
    bases = []
    for i in range(600):
        sc = ALL_SCENARIOS[i % 4]
        n = rnd.choice((1, 2, rnd.randint(1, 40)))
        p = ClusterParams(n=n, bandwidth=10 ** rnd.uniform(6, 9),
                          value_size=10 ** rnd.uniform(0, 3),
                          mu=rnd.choice((1.0, rnd.uniform(0.05, 1.0))),
                          storage=10 ** rnd.uniform(9, 13))
        lam = rnd.choice((0.0, rnd.uniform(0.0, 1.0), rnd.uniform(0.0, 3.0),
                          rnd.uniform(0.9, 1.1)))
        lam *= _rate_scale(p, sc)
        rate = lam if sc.workload is WorkloadKind.INCREASING_PER_NODE else lam * n
        fill = rnd.choice((0.0, 1.0, rnd.random()))
        bases.append(SimConfig(p, sc, rate, n + rnd.randint(1, 5), fill))
    return bases + _float_edge_configs()


def test_runs_match_golden_digest():
    """sha256 over repr((events, outcome)), or the exception name, of every
    golden config, which together reach every outcome kind.  The digest was
    recorded when the concurrent join's level was clamped to mu*S: against
    the kernel before, every run on Fraction inputs kept its rows and
    outcome bit for bit, and in float only the 20 float-edge runs within 10
    ulps of the bound moved, each in one row, its join_completed level from
    an ulp above S to S, with its outcome unchanged.  A config with no
    bandwidth left after its first join was recorded as the exception it
    raised before run() was split into an event stream and one outcome
    rule: it is hashed as that token, and its run must now end in
    expansion_overlap at its first trigger."""
    configs = _golden_configs()
    assert len(configs) == 624
    h = hashlib.sha256()
    no_bandwidth = 0
    for cfg in configs:
        events, outcome = run(cfg)
        if _no_bandwidth_left(cfg):
            no_bandwidth += 1
            assert len(events) == 3 and outcome.at_n == cfg.params.n
            assert outcome.breakdown_kind == EXPANSION_OVERLAP
            h.update(_NO_BANDWIDTH_TOKEN)
        else:
            h.update(repr((events, outcome)).encode())
    assert no_bandwidth == 6
    assert h.hexdigest() == GOLDEN_RUNS_SHA256


def test_kernel_returns_the_size_after_its_last_join():
    """The kernel's return, the final_n the outcome rule reads, is the n of
    its last join_completed row, or the initial size when it has none, on
    every golden config; both cases occur."""
    without_join = 0
    for cfg in _golden_configs():
        rows = []
        final_n = sim_mod._kernel(cfg.params, cfg.scenario, cfg.rate,
                                  cfg.n_target, cfg.initial_fill, rows)
        joins = [n for _, kind, n, *_ in rows if kind == "join_completed"]
        without_join += not joins
        assert final_n == (joins[-1] if joins else cfg.params.n)
    assert 0 < without_join < 624


@settings(max_examples=300, deadline=None)
@given(scenario=st.sampled_from(ALL_SCENARIOS),
       n=st.integers(1, 30),
       mu=st.floats(0.05, 1.0),
       bandwidth=st.floats(1e6, 1e9),
       value_size=st.floats(1.0, 1e3),
       storage=st.floats(1e9, 1e13),
       frac=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       fill=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
       joins=st.integers(1, 6))
# a storage overflow past the float range, at time inf
@example(scenario=INCR_CLEAR, n=10, mu=1.0, bandwidth=1e6, value_size=1.0,
         storage=1e13, frac=5e-324, fill=1.0, joins=2)
def test_outcome_rule(scenario, n, mu, bandwidth, value_size, storage, frac,
                      fill, joins):
    p = ClusterParams(n=n, bandwidth=bandwidth, value_size=value_size, mu=mu,
                      storage=storage)
    lam = frac * _rate_scale(p, scenario)
    rate = lam if scenario.workload is WorkloadKind.INCREASING_PER_NODE else lam * n
    cfg = SimConfig(p, scenario, rate, n + joins, fill)
    events, outcome = run(cfg)
    times = [ev.time for ev in events]
    assert times == sorted(times)
    # a clear overflow the headroom test decided is the one event whose
    # crossing time may pass the float range
    assert all(math.isfinite(t) for t in times[:-1])
    if times and not math.isfinite(times[-1]):
        assert scenario.mode is StabilizationMode.CLEAR
        assert events[-1].breakdown_kind == STORAGE_OVERFLOW
    # a completed concurrent join leaves every node at or below mu*S
    if scenario.mode is StabilizationMode.CONCURRENT:
        assert all(ev.level <= mu * storage for ev in events
                   if ev.kind == "join_completed")
    final_n = next((ev.n for ev in reversed(events)
                    if ev.kind == "join_completed"), n)
    assert outcome.final_n == final_n
    if outcome.kind == STABILIZED:
        assert final_n == cfg.n_target
        assert outcome.total_time == events[-1].time
    elif outcome.kind == BREAKDOWN:
        last = events[-1]
        assert last.kind == "breakdown"
        assert [ev.kind for ev in events].count("breakdown") == 1
        assert outcome.breakdown_kind == last.breakdown_kind
        assert outcome.total_time == outcome.at_time == last.time
        assert outcome.at_n == final_n
    else:
        # the next expansion never comes: zero writes, or a fill time that
        # overflows
        assert outcome.kind == MAX_TIME_EXCEEDED
        assert outcome.total_time == math.inf
        assert "breakdown" not in {ev.kind for ev in events}


# ---------------------------------------------------------------------------
# threshold search

GOLDEN_THRESHOLDS_SHA256 = (
    "e6e4e58889ec4d7d885bb02a9f637f987e9cda2b362ed08595295563191b2a7a")


def test_thresholds_match_golden_digest():
    """sha256 over the repr of feasibility_threshold, one line per config of
    a seeded grid: all four scenarios, N from 1 to 10^4, mu up to 1.0
    (the known-defect regions included) and random links.  The digest was
    recorded when the probe link became b = v = S = 1, from b = v = 1 with
    the node's S: 393 of the 400 thresholds kept their bits, and the 7
    that moved are clear modes at N = 2, each by at most 8.2e-5 relative,
    where a bisection midpoint can land exactly on the strict binding
    bound (five now sit on it, two sat on it before)."""
    rnd = random.Random(20261019)
    h = hashlib.sha256()
    for i in range(400):
        p = ClusterParams(n=rnd.choice((1, 2, rnd.randint(1, 40),
                                        rnd.randint(1, 10 ** 4))),
                          bandwidth=10 ** rnd.uniform(6, 9),
                          value_size=10 ** rnd.uniform(0, 3),
                          mu=rnd.choice((1.0, rnd.uniform(0.05, 1.0))),
                          storage=10 ** rnd.uniform(9, 13))
        thr = feasibility_threshold(p, ALL_SCENARIOS[i % 4])
        h.update(repr(thr).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_THRESHOLDS_SHA256


def _threshold_oracle(p, scenario):
    """feasibility_threshold as a blind bisection over alpha = lambda / B in
    (0, 1), one full run of a checked SimConfig per probe on the unit link
    b = v = S = 1 with p's mu, scaled by B."""
    unit = ClusterParams(p.n, 1, 1, p.mu, 1)

    def feasible(alpha):
        stable = scenario.workload is WorkloadKind.STABLE_TOTAL
        cfg = SimConfig(unit, scenario, alpha * p.n if stable else alpha,
                        n_target=p.n + 1, initial_fill=1)
        return run(cfg)[1].kind == STABILIZED

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
        if lo > 0 and (hi - lo) <= 1e-4 * lo:
            break
    return lo * p.max_write_rate


def test_threshold_matches_per_probe_config_bisection():
    """The threshold's probes run the kernel on inputs checked once; every
    threshold is the one a checked run per probe gives, bit for bit."""
    rnd = random.Random(20261020)
    configs = []
    for i in range(2000):
        p = ClusterParams(n=rnd.choice((1, 2, rnd.randint(1, 100),
                                        rnd.randint(1, 10 ** 5))),
                          bandwidth=10 ** rnd.uniform(6, 10),
                          value_size=10 ** rnd.uniform(0, 3),
                          mu=rnd.choice((1.0, rnd.uniform(0.01, 1.0))),
                          storage=10 ** rnd.uniform(9, 13))
        configs.append((p, ALL_SCENARIOS[i % 4]))
    for i in range(8):
        p = ClusterParams(n=rnd.randint(1, 50),
                          bandwidth=Fraction(rnd.randint(10 ** 6, 10 ** 9), 3),
                          value_size=Fraction(rnd.randint(1, 1000), 7),
                          mu=Fraction(rnd.randint(1, 10), 10),
                          storage=Fraction(10 ** 12))
        configs.append((p, ALL_SCENARIOS[i % 4]))
    for p, scenario in configs:
        assert repr(feasibility_threshold(p, scenario)) == \
            repr(_threshold_oracle(p, scenario)), (p, scenario)


def test_threshold_matches_the_bisection_where_the_seeds_are_wrong():
    """The seeds beside the binding bound are two wasted probes where the
    bound is not the threshold: clear modes near and at mu = 1 (item 1b, and
    a threshold of 0 at mu = 1), stable-clear at N = 1 (item 1a), and the
    float-edge link.  The threshold is still the blind bisection's, bit for bit."""
    rnd = random.Random(20261023)
    clear = [sc for sc in ALL_SCENARIOS if sc.mode is StabilizationMode.CLEAR]
    configs = []
    for i in range(160):
        p = ClusterParams(n=rnd.choice((1, 2, rnd.randint(1, 100),
                                        rnd.randint(1, 10 ** 4))),
                          bandwidth=10 ** rnd.uniform(6, 10),
                          value_size=10 ** rnd.uniform(0, 3),
                          mu=rnd.choice((1.0, 1 - 2 ** -53, 1 - 1e-9,
                                         rnd.uniform(0.9, 1.0))),
                          storage=10 ** rnd.uniform(9, 13))
        configs.append((p, clear[i % 2]))
    for _ in range(20):
        p = ClusterParams(n=1, bandwidth=10 ** rnd.uniform(6, 10),
                          value_size=10 ** rnd.uniform(0, 3),
                          mu=rnd.uniform(0.01, 1.0),
                          storage=10 ** rnd.uniform(9, 13))
        configs.append((p, STAB_CLEAR))
    configs += [(_float_edge_config().params, sc) for sc in ALL_SCENARIOS]
    for p, scenario in configs:
        assert repr(feasibility_threshold(p, scenario)) == \
            repr(_threshold_oracle(p, scenario)), (p, scenario)


def test_threshold_seeds_decide_the_bisection(monkeypatch):
    """Where the binding bound is the threshold, the two seed probes beside
    it decide almost every midpoint: at most three kernel probes in all."""
    probes = []
    probe = sim_mod._probe

    def counting(params, scenario, lam):
        probes.append(lam)
        return probe(params, scenario, lam)

    monkeypatch.setattr(sim_mod, "_probe", counting)
    for scenario in ALL_SCENARIOS:
        for n in (2, 4, 13, 100):
            p = params(n)
            probes.clear()
            thr = feasibility_threshold(p, scenario)
            assert 2 <= len(probes) <= 3, (scenario, n, probes)
            binding = bound_report(p, scenario).binding.value
            assert thr == pytest.approx(binding, rel=1e-4)


def test_validate_runs_the_kernel_only_inside_the_bisection(monkeypatch):
    """A validation row is one bisection: it runs the kernel exactly as
    often as the bisection's own probes, and no more."""
    calls = []
    kernel = sim_mod._kernel

    def counting(*args):
        calls.append(args[2])  # the rate
        return kernel(*args)

    monkeypatch.setattr(sim_mod, "_kernel", counting)
    for scenario in ALL_SCENARIOS:
        for n in (2, 4, 13):
            calls.clear()
            sim_mod._threshold_bracket(params(n), scenario)
            probes = len(calls)
            calls.clear()
            validate_against_bounds([n], scenario, params(1))
            assert len(calls) == probes, (scenario, n, probes, calls)


@settings(max_examples=150, deadline=None)
@given(scenario=st.sampled_from(ALL_SCENARIOS),
       log_n=st.floats(0, 4),
       mu=st.one_of(st.floats(0.05, 1.0), st.sampled_from((1.0, 1 - 2 ** -53))),
       links=st.lists(st.tuples(st.floats(-3, 11), st.floats(-1, 4),
                                st.floats(0, 300)), min_size=2, max_size=2))
@example(scenario=INCR_CONC, log_n=3.0, mu=0.5,
         links=[(9.0, 1.0, 300.0), (6.0, 0.0, 12.0)])
@example(scenario=INCR_CLEAR, log_n=3.0, mu=0.5,
         links=[(9.0, 1.0, 300.0), (6.0, 0.0, 12.0)])
@example(scenario=STAB_CONC, log_n=3.0, mu=0.5,
         links=[(9.0, 1.0, 300.0), (6.0, 0.0, 12.0)])
@example(scenario=STAB_CLEAR, log_n=3.0, mu=0.5,
         links=[(9.0, 1.0, 300.0), (6.0, 0.0, 12.0)])
# N = 2 in the clear modes, where a midpoint can land exactly on the strict
# bound, so a rounding that depends on S splits two links by 1e-4
@example(scenario=INCR_CLEAR, log_n=0.31, mu=0.5,
         links=[(4.0, 0.0, 300.0), (1.0, -1.0, 129.0)])
@example(scenario=STAB_CLEAR, log_n=0.31, mu=1 - 2 ** -53,
         links=[(-3.0, 4.0, 110.0), (1.0, 0.0, 12.0)])
def test_threshold_over_b_does_not_depend_on_the_link(scenario, log_n, mu,
                                                      links):
    """Every probe runs on the unit link b = v = S = 1, so threshold / B is
    a function of (scenario, N, mu) alone: two links, each with its own
    (b, v, S), agree to within 2 ulps, the roundings of scaling the result
    by B and of dividing it by B again, and S alone moves no bit.  That
    holds at mu = 1 too, where the clear modes' threshold is 0."""
    ratios = []
    for log_b, log_v, log_s in links:
        p = ClusterParams(n=int(10 ** log_n), bandwidth=10 ** log_b,
                          value_size=10 ** log_v, mu=mu, storage=10 ** log_s)
        thr = feasibility_threshold(p, scenario)
        ratios.append(thr / p.max_write_rate)
    assert abs(ratios[0] - ratios[1]) <= 2 * math.ulp(max(ratios)), ratios
    assert feasibility_threshold(replace(p, storage=10 ** links[0][2]),
                                 scenario) == thr


@settings(max_examples=100, deadline=None)
@given(scenario=st.sampled_from(ALL_SCENARIOS),
       log_n=st.floats(0, 4),
       mu=st.one_of(st.floats(0.05, 1.0), st.sampled_from((1.0, 1 - 2 ** -53))),
       log_b=st.floats(-3, 11),
       log_v=st.floats(-1, 4),
       storages=st.lists(st.one_of(st.floats(5e-324, 1.7e308),
                                   st.sampled_from((5e-324, 1.0, 1e308))),
                         min_size=2, max_size=2))
@example(scenario=INCR_CONC, log_n=math.log10(4), mu=0.5, log_b=6.0,
         log_v=0.0, storages=[1.0, 1e308])
def test_threshold_does_not_read_storage(scenario, log_n, mu, log_b, log_v,
                                         storages):
    """No probe reads S: the whole bracket, threshold, binding bound and the
    breakdown above, is bit-identical for any two storages, from a
    subnormal S to 1e308, where the byte total (n + 1) * S overflows."""
    p = ClusterParams(n=int(10 ** log_n), bandwidth=10 ** log_b,
                      value_size=10 ** log_v, mu=mu)
    first, second = (sim_mod._threshold_bracket(replace(p, storage=s),
                                                scenario) for s in storages)
    assert first == second, storages


def test_threshold_checks_the_top_of_its_range():
    """A bandwidth at the top of the float range is a link like any other:
    the probes run on the unit link, so no probe's inflow overflows, and
    each threshold is within a bracket width of its binding bound and
    within 2 ulps of a 1 B/s link's, scaled by B."""
    p = ClusterParams(n=2, bandwidth=1e308, value_size=1.0, mu=0.5)
    slow = replace(p, bandwidth=1.0)
    for scenario in ALL_SCENARIOS:
        thr = feasibility_threshold(p, scenario)
        assert thr == pytest.approx(bound_report(p, scenario).binding.value,
                                    rel=1e-4)
        ratio = feasibility_threshold(slow, scenario)
        assert abs(thr / 1e308 - ratio) <= 2 * math.ulp(ratio)


def test_threshold_rejects_a_binding_bound_that_underflows():
    """A subnormal b/v whose binding bound is 0 has no threshold to check
    against it: the bisection names the size, as validate does."""
    p = ClusterParams(n=1000, bandwidth=1e-300, value_size=1e23, mu=0.5)
    with pytest.raises(ValueError, match="the binding bound underflows to 0 "
                                         "at n = 1000: "):
        feasibility_threshold(p, INCR_CONC)


@settings(max_examples=200, deadline=None)
@given(scenario=st.sampled_from(ALL_SCENARIOS),
       n=st.integers(1, 40),
       mu=st.floats(0.05, 1.0),
       bandwidth=st.floats(1e6, 1e9),
       value_size=st.floats(1.0, 1e3),
       storage=st.floats(1e9, 1e13),
       frac=st.floats(0.0, 3.0))
def test_probe_ends_as_run_does(scenario, n, mu, bandwidth, value_size,
                                storage, frac):
    """The threshold's probe and ``run`` with the probe's target end one
    expansion the same way at every rate up to 3 B: the probe's ending is
    the run's breakdown kind, or its outcome kind.  A concurrent write share
    at or above b is an expansion_overlap row for both."""
    p = ClusterParams(n=n, bandwidth=bandwidth, value_size=value_size, mu=mu,
                      storage=storage)
    lam = frac * p.max_write_rate
    kind, breakdown_kind = _single_expansion(p, scenario, lam, 1)
    assert sim_mod._probe(p, scenario, lam) == (breakdown_kind or kind)


@settings(max_examples=300, deadline=None)
@given(scenario=st.sampled_from(ALL_SCENARIOS),
       n=st.integers(1, 10 ** 4),
       mu=st.floats(0.05, 1.0),
       bandwidth=st.floats(1e6, 1e9),
       value_size=st.floats(1.0, 1e3),
       storage=st.floats(1e9, 1e13),
       fracs=st.lists(st.one_of(st.floats(0.0, 2.0), st.floats(0.999, 1.001)),
                      min_size=2, max_size=12))
def test_threshold_probe_is_monotone_in_rate(scenario, n, mu, bandwidth,
                                            value_size, storage, fracs):
    """feasibility_threshold bisects on the rate with its probe: every rate
    below one the probe shows stabilizes must stabilize too."""
    p = ClusterParams(n=n, bandwidth=bandwidth, value_size=value_size, mu=mu,
                      storage=storage)
    lams = sorted(f * _rate_scale(p, scenario) for f in fracs)
    feasible = [sim_mod._probe(p, scenario, lam) == STABILIZED for lam in lams]
    assert feasible == sorted(feasible, reverse=True)
