import hashlib
import json
import math
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dht_rebalance.bounds import (
    ALL_SCENARIOS,
    ClusterParams,
    InsufficientBandwidth,
    Scenario,
    StabilizationMode,
    WorkloadKind,
    bandwidth_bound_increasing,
    bandwidth_bound_stable,
    bound_report,
    stabilization_time,
    time_bound_clear_increasing,
    time_bound_clear_stable,
)
from dht_rebalance.sim import (
    BREAKDOWN,
    CATCHUP_STARVATION,
    EXPANSION_OVERLAP,
    MAX_TIME_EXCEEDED,
    STABILIZED,
    STORAGE_OVERFLOW,
    EmptyRange,
    EventTable,
    SimConfig,
    event_to_dict,
    feasibility_threshold,
    run,
    single_expansion_feasible,
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
    # a write inflow that overflows a float would turn the run into NaN
    big = replace(p, value_size=1e10)
    for scenario, rate, n_target in ((INCR_CLEAR, 1e300, 6),
                                     (STAB_CONC, 1e300, 6),
                                     (INCR_CONC, 1e290, 10**9)):
        with pytest.raises(ValueError, match="inflow"):
            SimConfig(big, scenario, rate, n_target=n_target)
    SimConfig(big, STAB_CONC, 1e290, n_target=10**9)  # finite system-wide


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


def _float_edge_config(rate=1132.185717735206, initial_fill=1.0):
    """increasing-concurrent at mu = 1, where the storage and bandwidth bounds
    meet.  In exact arithmetic the joining node reaches S only above the
    bandwidth bound, where the join overlaps the next expansion; in floating
    point this rate, one ulp below the bound, fills it first."""
    p = ClusterParams(n=100, bandwidth=45669206.033838026,
                      value_size=399.37825542896167, mu=1.0,
                      storage=12101084162.998093)
    return SimConfig(p, INCR_CONC, rate, n_target=101,
                     initial_fill=initial_fill)


def test_float_edge_concurrent_storage_overflow():
    cfg = _float_edge_config()
    assert cfg.rate < bandwidth_bound_increasing(cfg.params)
    events, outcome = run(cfg)
    assert outcome.kind == BREAKDOWN
    assert outcome.breakdown_kind == STORAGE_OVERFLOW
    assert (outcome.at_n, outcome.final_n) == (100, 100)
    last = events[-1]
    assert (last.kind, last.n) == ("breakdown", 101)
    assert last.joining_level == cfg.params.storage
    assert outcome.total_time == last.time == pytest.approx(
        cfg.params.storage / cfg.params.bandwidth, rel=1e-12)


def test_trace_lines_match_event_to_dict(tmp_path):
    events = (_run_at(4, 0.5, INCR_CONC, 0.5, 7)       # joins, stabilized
              + _run_at(1, 0.5, STAB_CLEAR, 0.5, 3)    # catch-up, n = 1
              + _run_at(4, 0.5, STAB_CONC, 1.05, 6)    # expansion_overlap
              + _run_at(4, 0.9, INCR_CLEAR, 0.5, 6)    # clear storage_overflow
              + _run_at(4, 0.5, STAB_CLEAR, 0.95, 6))  # catchup_starvation
    # concurrent storage_overflow: old nodes' level, joining node at S
    events += run(_float_edge_config())[0]
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
    both = events + other
    assert isinstance(both, EventTable)
    assert list(both) == rows + list(other)
    assert repr(both) == repr(rows + list(other))


def test_trace_lines_match_json_dumps_for_non_finite_and_int_values(tmp_path):
    # rate 1e-300 puts every event at time inf; the hand-built row below
    # holds the NaN
    events = EventTable()
    for scenario in ALL_SCENARIOS:
        events += run(SimConfig(params(4), scenario, 1e-300, n_target=6,
                                max_sim_time=math.inf))[0]
    # integer-valued inputs give integer levels, which json writes as ints
    p = ClusterParams(n=4, bandwidth=10**8, value_size=16, mu=1,
                      storage=10**12)
    events += run(SimConfig(p, INCR_CLEAR, 1000, n_target=6,
                            initial_fill=1))[0]
    events += EventTable([-math.inf], ["breakdown"], [2], [-0.0], [math.nan],
                         [math.inf], [None], [STORAGE_OVERFLOW])
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


def test_clear_run_at_time_inf_holds_no_nan():
    # every event falls at time inf: the run cannot reach its next trigger
    # in finite time, so it is cut, not starved with a NaN level and backlog
    p = params(4)
    for scenario in (INCR_CLEAR, STAB_CLEAR):
        cfg = SimConfig(p, scenario, 1e-300, n_target=6, max_sim_time=math.inf)
        events, outcome = run(cfg)
        assert outcome.kind == MAX_TIME_EXCEEDED
        assert outcome.final_n == 5
        assert events[-1].kind == "join_completed"
        for ev in events:
            values = [ev.time, ev.level, ev.joining_level, ev.backlog,
                      ev.duration]
            assert not any(isinstance(x, float) and math.isnan(x)
                           for x in values), ev


def test_time_limit_stops_the_run():
    # the run stops at the first event past the limit: a target of 10**9
    # nodes with a limit of a few fills costs a handful of events
    p = params(4)
    lam = 0.5 * bound_report(p, STAB_CONC).binding.value
    fill = 0.5e12 / (lam * 16.0)  # one fill from empty at n = 4
    cfg = SimConfig(p, STAB_CONC, lam * 4, n_target=10**9,
                    max_sim_time=3 * fill)
    tracemalloc.start()
    try:
        events, outcome = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.kind == MAX_TIME_EXCEEDED
    assert 3 < len(events) < 100
    assert peak < 1e6
    # the write share saturates the joining node, but the limit comes first
    cfg = SimConfig(p, INCR_CONC, 1.25e8 / 16, n_target=5, max_sim_time=1.0)
    events, outcome = run(cfg)
    assert (len(events), outcome.kind) == (0, MAX_TIME_EXCEEDED)
    with pytest.raises(InsufficientBandwidth):
        run(replace(cfg, max_sim_time=1e18))


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


# ---------------------------------------------------------------------------
# outcome rule

# per-node rate scale of each scenario: its binding bound for mu <= 1
_RATE_SCALE = dict(zip(ALL_SCENARIOS, (
    bandwidth_bound_increasing, time_bound_clear_increasing,
    bandwidth_bound_stable, time_bound_clear_stable)))

GOLDEN_RUNS_SHA256 = "b97160117e9ff2bd180f9fc8dabafb86d4fda2200763f033c02a979e1fba470e"


def _golden_configs():
    """1994 seeded configs: all four scenarios, mu up to 1.0, initial_fill
    0, 1 or random, rates from 0 to 3x the scenario's bound, the float-edge
    overflow and ulp steps below it; each run is repeated with up to three
    time limits cut at its own event times or between two of them."""
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
        lam *= _RATE_SCALE[sc](p)
        rate = lam if sc.workload is WorkloadKind.INCREASING_PER_NODE else lam * n
        fill = rnd.choice((0.0, 1.0, rnd.random()))
        bases.append(SimConfig(p, sc, rate, n + rnd.randint(1, 5), fill))
    rate = _float_edge_config().rate
    for _ in range(12):
        bases += [_float_edge_config(rate, fill) for fill in (0.0, 1.0)]
        rate = math.nextafter(rate, 0.0)
    configs = []
    for cfg in bases:
        configs.append(cfg)
        try:
            times = [ev.time for ev in run(cfg)[0]]
        except InsufficientBandwidth:
            continue
        cuts = [t for t in times if t > 0]
        cuts += [(a + b) / 2 for a, b in zip(times, times[1:]) if b > a]
        for limit in rnd.sample(cuts, min(3, len(cuts))):
            configs.append(SimConfig(cfg.params, cfg.scenario, cfg.rate,
                                     cfg.n_target, cfg.initial_fill, limit))
    return configs


def test_runs_match_golden_digest():
    """sha256 over repr((events, outcome)), or the exception name, of every
    golden config.  The digest was recorded with the simulator that decided
    its outcome at each time-limit guard inside the physics loop, before
    run() was split into an event stream and one outcome rule; the configs
    reach every one of those guards and every outcome kind."""
    configs = _golden_configs()
    assert len(configs) == 1994
    h = hashlib.sha256()
    for cfg in configs:
        try:
            h.update(repr(run(cfg)).encode())
        except InsufficientBandwidth as exc:
            h.update(type(exc).__name__.encode())
    assert h.hexdigest() == GOLDEN_RUNS_SHA256


@settings(max_examples=300, deadline=None)
@given(scenario=st.sampled_from(ALL_SCENARIOS),
       n=st.integers(1, 30),
       mu=st.floats(0.05, 1.0),
       bandwidth=st.floats(1e6, 1e9),
       value_size=st.floats(1.0, 1e3),
       storage=st.floats(1e9, 1e13),
       frac=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       fill=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
       joins=st.integers(1, 6),
       limit_frac=st.one_of(st.none(), st.floats(1e-6, 1.0)))
def test_outcome_rule(scenario, n, mu, bandwidth, value_size, storage, frac,
                      fill, joins, limit_frac):
    p = ClusterParams(n=n, bandwidth=bandwidth, value_size=value_size, mu=mu,
                      storage=storage)
    lam = frac * _RATE_SCALE[scenario](p)
    rate = lam if scenario.workload is WorkloadKind.INCREASING_PER_NODE else lam * n
    cfg = SimConfig(p, scenario, rate, n + joins, fill)
    if limit_frac is not None:
        # a time limit inside the run's span: one fill of mu*S per join
        span = mu * storage / (lam * value_size) if lam > 0 else 1e6
        cfg = replace(cfg, max_sim_time=limit_frac * joins * span)
    try:
        events, outcome = run(cfg)
    except InsufficientBandwidth:
        return
    times = [ev.time for ev in events]
    assert times == sorted(times)
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
        assert outcome.kind == MAX_TIME_EXCEEDED
        assert outcome.total_time == cfg.max_sim_time
        assert all(t <= cfg.max_sim_time for t in times)
        assert "breakdown" not in {ev.kind for ev in events}


# ---------------------------------------------------------------------------
# threshold search

GOLDEN_THRESHOLDS_SHA256 = (
    "54c255ef71e4844b85a30f7cb547d72f1a8487e13c727ada9d2ee788b066e760")


def test_thresholds_match_golden_digest():
    """sha256 over the repr of feasibility_threshold, one line per config of
    a seeded grid: all four scenarios, N from 1 to 10^4, mu up to 1.0
    (the known-defect regions included) and random links."""
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


@settings(max_examples=300, deadline=None)
@given(scenario=st.sampled_from(ALL_SCENARIOS),
       n=st.integers(1, 10 ** 4),
       mu=st.floats(0.05, 1.0),
       bandwidth=st.floats(1e6, 1e9),
       value_size=st.floats(1.0, 1e3),
       storage=st.floats(1e9, 1e13),
       fracs=st.lists(st.one_of(st.floats(0.0, 2.0), st.floats(0.999, 1.001)),
                      min_size=2, max_size=12))
def test_single_expansion_feasible_is_monotone_in_rate(scenario, n, mu,
                                                       bandwidth, value_size,
                                                       storage, fracs):
    """feasibility_threshold bisects on the rate: every rate below a
    feasible one must be feasible too."""
    p = ClusterParams(n=n, bandwidth=bandwidth, value_size=value_size, mu=mu,
                      storage=storage)
    lams = sorted(f * _RATE_SCALE[scenario](p) for f in fracs)
    feasible = [single_expansion_feasible(p, scenario, lam) for lam in lams]
    assert feasible == sorted(feasible, reverse=True)
