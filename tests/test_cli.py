import csv
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

from dht_rebalance.bounds import (
    ALL_SCENARIOS,
    BoundKind,
    Scenario,
    StabilizationMode,
    WorkloadKind,
    applicable_kinds,
    bound_table,
)

from dht_rebalance.cli import (
    _UNIT_BYTES,
    EXIT_BREAKDOWN,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    case_study,
    main,
    parse_bandwidth,
    sweep_rows,
)
from dht_rebalance import sim as sim_mod
from dht_rebalance.sim import NO_BREAKDOWN

SRC = Path(__file__).resolve().parents[1] / "src"


HUGE = str(10 ** 400)  # parses as an int, overflows any float or C size


def write_config(tmp_path, **overrides):
    doc = {
        "n": 8, "bandwidth": "1Gbps", "value_size": 16.0, "mu": 0.5,
        "workload": "increasing", "mode": "concurrent",
        "rate": 100000.0, "n_target": 9, "initial_fill": 1.0,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# units

def test_parse_bandwidth_units():
    cases = {"1Gbps": 125_000_000.0, "2.5Gbps": 312_500_000.0,
             "800Mbps": 100_000_000.0, "3Kbps": 375.0, "8bps": 1.0,
             "2GB/s": 2e9, "1.5MB/s": 1.5e6, "2e3KB/s": 2e6,
             "125000000B/s": 125_000_000.0}
    for text, want in cases.items():
        assert parse_bandwidth(text) == want, text
    # at least one input per unit
    assert {re.sub(r"^[0-9.e]+", "", text) for text in cases} == set(_UNIT_BYTES)
    assert parse_bandwidth("1000") == 1000.0
    assert parse_bandwidth(250) == 250.0


def test_parse_bandwidth_rejects_garbage():
    for bad in ("fast", "1Tbps", "-1Gbps", "0"):
        with pytest.raises(ValueError):
            parse_bandwidth(bad)


# ---------------------------------------------------------------------------
# bounds

def test_bounds_json(capsys):
    rc = main(["bounds", "--n", "10", "--mu", "0.5",
               "--scenario", "stable-concurrent", "--json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "stable-concurrent"
    by_kind = {e["kind"]: e for e in doc["bounds"]}
    assert by_kind["bandwidth"]["writes_per_s_per_node"] == pytest.approx(781_250.0)
    assert by_kind["bandwidth"]["applicable"]
    assert not by_kind["time"]["applicable"]
    assert doc["binding"]["kind"] == "bandwidth"


def test_bounds_text(capsys):
    rc = main(["bounds", "--n", "4", "--mu", "0.5",
               "--scenario", "increasing-clear"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "increasing-clear" in out
    assert "binding" in out


def test_bounds_bad_mu(capsys):
    rc = main(["bounds", "--n", "4", "--mu", "1.5",
               "--scenario", "increasing-clear"])
    assert rc == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_bounds_non_finite_value_size(capsys):
    for bad in ("nan", "inf"):
        rc = main(["bounds", "--n", "4", "--mu", "0.5", "--value-size", bad,
                   "--scenario", "increasing-clear"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_bounds_huge_n(capsys):
    rc = main(["bounds", "--n", HUGE, "--mu", "0.5", "--scenario", "stable-clear"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_overflow_errors_name_the_field(tmp_path, capsys):
    # an integer too large for a float is bad input, and the one error line
    # says which size or rate it was
    for argv, named in (
            (["bounds", "--n", HUGE, "--mu", "0.5", "--scenario", "stable-clear"],
             "error: n must be >= 1"),
            (["validate", "--n-list", HUGE, "--scenario-list", "all"],
             "error: n must be >= 1"),
            (["simulate", "--config", write_config(tmp_path, rate=int(HUGE))],
             "error: bad config: rate: ")):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(named) and err.count("\n") == 1, err


def test_bounds_bad_scenario(capsys):
    rc = main(["bounds", "--n", "4", "--mu", "0.5", "--scenario", "bogus"])
    assert rc == EXIT_USAGE


# ---------------------------------------------------------------------------
# sweep

def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    rc = main(["sweep", "--n-min", "2", "--n-max", "5", "--mu-list", "0.3,0.5",
               "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "n,scenario,bound_kind,lambda_bound_writes_per_s"
    # 2 concurrent scenarios x (1 bandwidth + 2 storage) + 2 clear x 1 time,
    # each over 4 sizes
    assert len(lines) - 1 == (2 * 3 + 2) * 4
    assert any("storage(mu=0.3)" in ln for ln in lines)
    assert any("time" in ln for ln in lines)


def test_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--n-min", "2", "--n-max", "12"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rows_sorted_and_monotone():
    rows = sweep_rows(2, 30, [0.5], [], 1.25e8, 16.0)
    assert rows == []
    rows = sweep_rows(2, 30, [0.5], list(ALL_SCENARIOS), 1.25e8, 16.0)
    assert rows == sorted(rows, key=lambda r: (r[1], r[2], r[0]))
    # bandwidth bounds fall with n; concurrent storage bounds too
    for label in ("bandwidth", "storage(mu=0.5)"):
        vals = [r[3] for r in rows
                if r[1] == "stable-concurrent" and r[2] == label]
        assert vals == sorted(vals, reverse=True)
    # each row is exactly the bound_table value at its size
    b_rate = 1.25e8 / 16.0
    by_key = {r[:3]: r[3] for r in rows}
    assert by_key[(17, "stable-clear", "time")] == \
        bound_table(17, 0.5, b_rate, WorkloadKind.STABLE_TOTAL)["time"]
    assert by_key[(17, "increasing-concurrent", "storage(mu=0.5)")] == \
        bound_table(17, 0.5, b_rate, WorkloadKind.INCREASING_PER_NODE)["storage"]
    # a repeated scenario, and two mu values that share the label
    # storage(mu=0.5): the curves of one label alternate per n in input order
    mu_close = 0.5000001
    rows = sweep_rows(2, 30, [0.5, mu_close], list(ALL_SCENARIOS) * 2,
                      1.25e8, 16.0)
    assert rows == sorted(rows, key=lambda r: (r[1], r[2], r[0]))
    assert len(rows) == 2 * (2 * 3 + 2) * 29
    at_17 = [r[3] for r in rows
             if r[:3] == (17, "increasing-concurrent", "storage(mu=0.5)")]
    pair = [float(bound_table(17, mu, b_rate, WorkloadKind.INCREASING_PER_NODE)
                  ["storage"]) for mu in (0.5, mu_close)]
    assert pair[0] != pair[1] and at_17 == pair * 2


def _sweep_rows_oracle(n_min, n_max, mu_values, scenarios, bandwidth,
                      value_size):
    """sweep_rows with one bound_table call per curve, all rows in memory."""
    n = np.arange(n_min, n_max + 1)
    b_rate = bandwidth / value_size
    curves = defaultdict(list)
    for scenario in scenarios:
        for kind in applicable_kinds(scenario):
            labels = ([(f"storage(mu={mu:g})", mu) for mu in mu_values]
                      if kind is BoundKind.STORAGE else [(kind.value, 0.5)])
            for label, mu in labels:
                table = bound_table(n, mu, b_rate, scenario.workload)
                curves[scenario.name, label].append(table[kind.value])
    rows = []
    for name, label in sorted(curves):
        group = curves[name, label]
        rows.extend(zip(np.repeat(n, len(group)).tolist(), repeat(name),
                        repeat(label), np.stack(group, axis=1).ravel().tolist()))
    return rows


def _oracle_csv(rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["n", "scenario", "bound_kind", "lambda_bound_writes_per_s"])
    for n, scenario, kind, value in rows:
        writer.writerow([n, scenario, kind, f"{value:.6g}"])
    return buf.getvalue().encode()


def test_sweep_rows_match_per_curve_tables():
    """One bound_table call per scenario gives the rows of one call per
    curve, bit for bit: repeated scenarios, mu values that share a label,
    an empty mu list and both ends of the range included.  An empty mu list
    is rejected when a scenario applies the storage bound."""
    rnd = random.Random(20261021)
    cases = [(1, 2, [0.5], list(ALL_SCENARIOS)),
             (10 ** 6 - 1, 10 ** 6, [0.3, 0.5, 0.7], list(ALL_SCENARIOS)),
             (2, 40, [], list(ALL_SCENARIOS)),
             (2, 40, [0.5, 0.5000001, 0.5], list(ALL_SCENARIOS) * 2)]
    for _ in range(400):
        n_min = rnd.choice((1, rnd.randint(1, 1000), rnd.randint(1, 10 ** 6 - 1)))
        n_max = min(10 ** 6, n_min + rnd.choice((1, rnd.randint(1, 400))))
        mus = rnd.sample([0.5, 0.5000001, 1.0, 1e-5, 0.3, rnd.uniform(0.01, 1.0)],
                         rnd.randint(0, 4))
        scenarios = rnd.choices(ALL_SCENARIOS, k=rnd.randint(0, 5))
        cases.append((n_min, n_max, mus, scenarios))
    cases.append((2, 40, [], [sc for sc in ALL_SCENARIOS
                              if sc.mode is StabilizationMode.CLEAR]))
    for case in cases:
        link = (10 ** rnd.uniform(6, 10), 10 ** rnd.uniform(0, 3))
        if not case[2] and any(sc.mode is StabilizationMode.CONCURRENT
                               for sc in case[3]):
            with pytest.raises(ValueError, match="mu list is empty"):
                sweep_rows(*case, *link)
            continue
        assert repr(sweep_rows(*case, *link)) == \
            repr(_sweep_rows_oracle(*case, *link)), case


def test_sweep_csv_matches_rows(tmp_path):
    """The streamed CSV holds the rows as csv.writer writes them, across
    blocks of sizes too."""
    out = tmp_path / "sweep.csv"
    stable_clear, incr_conc = Scenario.parse("stable-clear"), ALL_SCENARIOS[0]
    for n_min, n_max, mus, scenarios in (
            (1, 66_000, [0.5], [stable_clear, incr_conc]),
            (5, 9_000, [0.5, 0.5000001], [stable_clear, incr_conc, stable_clear]),
            (2, 300, [], [sc for sc in ALL_SCENARIOS
                          if sc.mode is StabilizationMode.CLEAR])):
        argv = ["sweep", "--n-min", str(n_min), "--n-max", str(n_max),
                "--mu-list", ",".join(map(repr, mus)),
                "--scenario-list", ",".join(sc.name for sc in scenarios),
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        rows = _sweep_rows_oracle(n_min, n_max, mus, scenarios, 1.25e8, 16.0)
        assert out.read_bytes() == _oracle_csv(rows)


def test_sweep_streams_its_csv(tmp_path):
    """An in-process sweep keeps well under its CSV's size in memory."""
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        assert main(["sweep", "--n-min", "2", "--n-max", "40000",
                     "--out", str(out)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 2


def test_sweep_rows_checks_link_and_mu():
    for bad in (dict(mu_values=[0.5, 1.5]), dict(mu_values=[math.nan]),
                dict(bandwidth=math.inf), dict(value_size=0.0), dict(n_min=0),
                dict(n_min=5), dict(n_min=6),
                dict(n_min=1, n_max=10 ** 6 + 1, scenarios=[])):
        kwargs = dict(n_min=2, n_max=5, mu_values=[0.5],
                      scenarios=list(ALL_SCENARIOS), bandwidth=1.25e8,
                      value_size=16.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            sweep_rows(**kwargs)
    # the ends of the range 1 <= n_min < n_max <= 10**6: two curves, two sizes
    for n_min, n_max in ((1, 2), (10 ** 6 - 1, 10 ** 6)):
        assert len(sweep_rows(n_min, n_max, [0.5], ALL_SCENARIOS[:1],
                              1.25e8, 16.0)) == 4


def test_sweep_empty_mu_list(tmp_path, capsys):
    """Every storage curve needs a mu: an empty list is bad input when a
    scenario applies the storage bound, and a clear-only sweep needs none."""
    out = tmp_path / "x.csv"
    for scenarios in ("all", "increasing-clear,stable-concurrent"):
        rc = main(["sweep", "--n-min", "2", "--n-max", "5", "--mu-list", "",
                   "--scenario-list", scenarios, "--out", str(out)])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: mu list is empty")
        assert captured.err.count("\n") == 1
        assert not out.exists()
    rc = main(["sweep", "--n-min", "2", "--n-max", "5", "--mu-list", "",
               "--scenario-list", "increasing-clear,stable-clear",
               "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 4
    assert {ln.split(",")[2] for ln in lines[1:]} == {"time"}


def test_sweep_bad_range(tmp_path, capsys):
    rc = main(["sweep", "--n-min", "5", "--n-max", "5",
               "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE


def test_sweep_bad_mu(tmp_path):
    rc = main(["sweep", "--n-min", "2", "--n-max", "4", "--mu-list", "1.5",
               "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE


def test_sweep_bad_value_size(tmp_path, capsys):
    for bad in ("-1", "inf", "nan"):
        rc = main(["sweep", "--n-min", "2", "--n-max", "4", "--value-size", bad,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_sweep_unwritable_path(tmp_path, capsys):
    rc = main(["sweep", "--n-min", "2", "--n-max", "4",
               "--out", str(tmp_path / "no" / "such" / "dir.csv")])
    assert rc == EXIT_IO
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path)
    trace = tmp_path / "trace.jsonl"
    rc = main(["simulate", "--config", cfg, "--trace", str(trace)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    assert doc["outcome"] == "stabilized"
    assert doc["final_n"] == 9
    assert len(trace.read_text().splitlines()) >= 3


def test_simulate_breakdown_exit_code(tmp_path, capsys):
    # rate above the n=8 increasing-concurrent bandwidth bound b/(v*(N+1))
    cfg = write_config(tmp_path, rate=1.05 * 1.25e8 / (16 * 9))
    rc = main(["simulate", "--config", cfg])
    assert rc == EXIT_BREAKDOWN
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "breakdown"
    assert doc["breakdown_kind"] == "expansion_overlap"


def test_simulate_max_time_is_not_breakdown(tmp_path, capsys):
    # zero writes from empty never reach the first trigger
    cfg = write_config(tmp_path, initial_fill=0.0, rate=0.0)
    rc = main(["simulate", "--config", cfg])
    assert rc == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert (summary["outcome"], summary["total_time"]) == (
        "max_time_exceeded", math.inf)
    # the run has no event: the trace has no rows, and writing it still
    # empties a file that held text
    trace = tmp_path / "trace.jsonl"
    trace.write_text("stale\n")
    rc = main(["simulate", "--config", cfg, "--trace", str(trace)])
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().out)["outcome"] == "max_time_exceeded"
    assert trace.read_text() == ""


def test_simulate_missing_file(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json")])
    assert rc == EXIT_USAGE


def test_simulate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc = main(["simulate", "--config", str(path)])
    assert rc == EXIT_USAGE


def test_simulate_unknown_field(tmp_path, capsys):
    # replication is the ring's parameter: no simulated quantity reads it;
    # the simulator has no time limit
    for field in ("typo_field", "replication", "max_sim_time"):
        cfg = write_config(tmp_path, **{field: 1})
        rc = main(["simulate", "--config", cfg])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert field in err


def test_simulate_missing_field(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 4}))
    rc = main(["simulate", "--config", str(path)])
    assert rc == EXIT_USAGE


def test_simulate_bad_mu(tmp_path, capsys):
    # mu out of range, and the other values a config must not let through:
    # a non-finite rate, sizes that int() would truncate, integers too
    # large for a float, and a write inflow that overflows
    for bad in ({"mu": 1.5}, {"rate": math.nan}, {"rate": math.inf},
                {"n_target": 9.7}, {"n": 8.5}, {"initial_fill": math.nan},
                {"n": int(HUGE)}, {"bandwidth": int(HUGE)},
                {"rate": int(HUGE)}, {"replication": int(HUGE)},
                {"n": 4, "value_size": 1e10, "mode": "clear", "rate": 1e300,
                 "n_target": 6}):
        cfg = write_config(tmp_path, **bad)
        assert main(["simulate", "--config", cfg]) == EXIT_USAGE, bad
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_simulate_share_at_bandwidth_is_a_breakdown(tmp_path, capsys):
    """A write share of b per node is a breakdown at the first trigger,
    not bad input: exit 4, the summary names the overlap, no error line."""
    cfg = write_config(tmp_path, rate=1.25e8 / 16)
    assert main(["simulate", "--config", cfg]) == EXIT_BREAKDOWN
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert (summary["breakdown_kind"], summary["at_n"]) == (
        "expansion_overlap", 8)
    assert captured.err == ""


def test_simulate_rejects_a_backlog_that_overflows(tmp_path, capsys):
    """stable-clear 31 -> 34 at mu = 1 on a link near the float maximum: a
    join's backlog, up to inflow * S / b, overflows a float, so the config
    is bad input, not a run whose starvation row holds NaN."""
    cfg = write_config(tmp_path, n=31, bandwidth=1.391e300,
                       value_size=3.83e11, mu=1.0, storage=6.75e305,
                       workload="stable", mode="clear", rate=1.036e291,
                       n_target=34, initial_fill=0.0)
    assert main(["simulate", "--config", cfg]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad config: storage")
    assert captured.err.count("\n") == 1


def test_simulate_unwritable_trace(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["simulate", "--config", cfg,
               "--trace", str(tmp_path / "no" / "dir" / "t.jsonl")])
    assert rc == EXIT_IO


# ---------------------------------------------------------------------------
# validate

def test_validate_pass(capsys):
    rc = main(["validate", "--n-list", "4,8",
               "--scenario-list", "increasing-concurrent"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("pass") == 2
    assert "FAIL" not in out


def _breakdowns_above(argv, capsys):
    """{(n, scenario): breakdown_above} of one validate run, and its code."""
    rc = main(["validate", *argv])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-1] == "breakdown_above"
    return rc, {(int(ln.split()[0]), ln.split()[1]): ln.split()[-1]
                for ln in lines[1:]}


def test_validate_names_the_breakdown_above_each_threshold(capsys):
    """The last column names how one expansion ends just above the
    threshold: the binding bound's own breakdown where the bound holds, and
    the known defects where it does not (ROADMAP item 1)."""
    rc, kinds = _breakdowns_above(["--n-list", "4", "--mu", "0.5"], capsys)
    assert rc == EXIT_OK
    assert kinds == {(4, "increasing-concurrent"): "expansion_overlap",
                     (4, "stable-concurrent"): "expansion_overlap",
                     (4, "increasing-clear"): "catchup_starvation",
                     (4, "stable-clear"): "catchup_starvation"}
    # 1b: the clear modes overflow far below the time bound at mu = 0.9
    rc, kinds = _breakdowns_above(
        ["--n-list", "4", "--mu", "0.9",
         "--scenario-list", "increasing-clear,stable-clear"], capsys)
    assert rc == EXIT_VALIDATION
    assert kinds == {(4, "increasing-clear"): "storage_overflow",
                     (4, "stable-clear"): "storage_overflow"}
    # 1a: at N = 1 stable-clear stabilizes at every rate below b/v
    rc, kinds = _breakdowns_above(
        ["--n-list", "1", "--scenario-list", "stable-clear"], capsys)
    assert rc == EXIT_VALIDATION
    assert kinds == {(1, "stable-clear"): NO_BREAKDOWN}
    # the probes run in units of B, so a 1 B/s link is any link: every
    # row passes
    rc, kinds = _breakdowns_above(["--n-list", "4", "--bandwidth", "1B/s"],
                                  capsys)
    assert rc == EXIT_OK
    assert kinds == {(4, "increasing-concurrent"): "expansion_overlap",
                     (4, "stable-concurrent"): "expansion_overlap",
                     (4, "increasing-clear"): "catchup_starvation",
                     (4, "stable-clear"): "catchup_starvation"}


def test_validate_fail_with_tiny_tol(capsys):
    rc = main(["validate", "--n-list", "4",
               "--scenario-list", "increasing-concurrent", "--tol", "1e-6"])
    assert rc == EXIT_VALIDATION
    assert "FAIL" in capsys.readouterr().out


def test_validate_empty_n_list(tmp_path, capsys):
    rc = main(["validate", "--n-list", "", "--scenario-list", "all"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: n-range is empty\n"
    # an empty scenario list is bad input too, so nothing goes unchecked
    for argv in (["validate", "--n-list", "", "--scenario-list", " , "],
                 ["validate", "--n-list", "4", "--scenario-list", ""],
                 ["sweep", "--n-min", "2", "--n-max", "4", "--scenario-list", "",
                  "--out", str(tmp_path / "x.csv")]):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: scenario list is empty\n"


def test_validate_n_below_one(capsys):
    for bad in ("0,4", HUGE, f"4,{HUGE}"):
        rc = main(["validate", "--n-list", bad, "--scenario-list", "all"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""  # no table header before the error
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def _validate_rows(argv, capsys):
    """The exit code and the rows of one validate run, split on spaces."""
    rc = main(["validate", *argv])
    lines = capsys.readouterr().out.splitlines()
    return rc, [line.split() for line in lines[1:]]


def test_validate_bandwidth_too_large(capsys):
    """No bandwidth is too large: the threshold probes run in units of
    B = bandwidth / value_size, so a link at the top of the float range
    validates as any other, four rows that pass."""
    rc, rows = _validate_rows(["--n-list", "2", "--bandwidth", "1e308"],
                              capsys)
    assert rc == EXIT_OK
    assert [row[5] for row in rows] == ["pass"] * 4


def test_validate_on_a_subnormal_link(capsys):
    """A 3e-300 B/s link with 1e15 B values: B and every binding bound are
    subnormal, and a join's time M/b in physical units overflows.  In units
    of B every row passes, each threshold within a bracket width of its
    bound."""
    rc, rows = _validate_rows(["--n-list", "2", "--bandwidth", "3e-300",
                               "--value-size", "1e15"], capsys)
    assert rc == EXIT_OK
    assert [row[5] for row in rows] == ["pass"] * 4
    assert [float(row[3]) for row in rows] == pytest.approx(
        [1e-315, 1.5e-315, 1.5e-315, 2.25e-315], rel=1e-4)


def test_validate_has_no_storage_flag(capsys):
    """No threshold reads S, so validate takes no --storage: argparse
    rejects it as a usage error, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--n-list", "4", "--storage", "1e12"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --storage 1e12" in captured.err


def test_validate_rows_are_those_of_every_storage(capsys, monkeypatch):
    """validate loses nothing with --storage: the rows it prints are the
    rows of its link with any S, a subnormal one and the 1e308 B whose byte
    total at n = 4 once overflowed included."""
    real = sim_mod.validate_against_bounds
    calls = []

    def recording(n_values, scenario, base_params, tol):
        rows = real(n_values, scenario, base_params, tol=tol)
        calls.append((n_values, scenario, base_params, tol, rows))
        return rows

    monkeypatch.setattr(sim_mod, "validate_against_bounds", recording)
    assert main(["validate", "--n-list", "4,100"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 4
    assert [call[1] for call in calls] == list(ALL_SCENARIOS)
    for n_values, scenario, base_params, tol, rows in calls:
        for storage in (5e-324, 1.0, 1e308):
            assert real(n_values, scenario,
                        replace(base_params, storage=storage),
                        tol=tol) == rows, (scenario, storage)


def test_validate_binding_bound_underflow(capsys):
    """A subnormal B = bandwidth / value_size whose binding bound underflows
    to 0 at some n has no relative error there: that n is named before any
    row is printed, even when an earlier n has a bound above 0."""
    rc = main(["validate", "--n-list", "2,1000", "--bandwidth", "1e-300",
               "--value-size", "1e23",
               "--scenario-list", "increasing-concurrent"])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: the binding bound underflows to 0 at n = 1000:")
    assert captured.err.count("\n") == 1


def test_validate_nan_tol(capsys):
    rc = main(["validate", "--n-list", "4",
               "--scenario-list", "increasing-concurrent", "--tol", "nan"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# case study

def test_case_study_numbers():
    data = case_study()
    assert data["max_write_rate_per_node"] == pytest.approx(520_833.33, rel=1e-6)
    assert not data["concurrent_stable_feasible"]
    assert data["min_n_all_bounds"] is None
    assert data["min_n_storage_only"] == 17
    assert data["reported_reference_nodes"] == {"concurrent_stable": 13,
                                                "clear_stable": 17}


def test_case_study_cli(capsys):
    rc = main(["case-study"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "520,833.3" in out
    assert "infeasible at every N" in out
    assert "storage bound alone: 17" in out
    assert "about 13 nodes" in out and "about 17 nodes" in out
    assert "note:" in out


def test_case_study_non_finite_rate(capsys):
    for bad in ("nan", "inf"):
        assert main(["case-study", "--override-total-rate", bad]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_case_study_bad_link_and_mu(capsys):
    for flag, bad in (("--override-value-size", "-240"),
                      ("--override-value-size", "nan"),
                      ("--override-value-size", "0"),
                      ("--override-mu", "5"), ("--override-mu", "0"),
                      ("--override-mu", "nan"),
                      ("--override-bandwidth", "1e400")):
        assert main(["case-study", flag, bad]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_case_study_feasible_override(capsys):
    rc = main(["case-study", "--override-total-rate", "400000"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "feasible" in out and "infeasible at every N" not in out


# ---------------------------------------------------------------------------
# ring stats

def test_ring_stats_json(capsys):
    rc = main(["ring-stats", "--nodes", "8", "--q", "512",
               "--keys", "20000", "--seed", "1"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["balance"]["n"] == 8
    assert doc["balance"]["k_sampled"] == 20000
    assert sum(doc["balance"]["per_node_load"].values()) == 20000
    assert doc["join"]["moved_partition_count"] == 512 // 9


def test_ring_stats_random_strategy(capsys):
    rc = main(["ring-stats", "--nodes", "8",
               "--strategy", "limited-token-random-part", "--t", "2",
               "--keys", "10000"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["balance"]["epsilon_hat"] > 0


def test_ring_stats_replication_exceeds_nodes(capsys):
    rc = main(["ring-stats", "--nodes", "2", "--q", "64",
               "--replication", "3", "--keys", "1000"])
    assert rc == EXIT_USAGE


def test_ring_stats_missing_q(capsys):
    rc = main(["ring-stats", "--nodes", "4"])
    assert rc == EXIT_USAGE


def test_ring_stats_size_the_strategy_does_not_read(capsys):
    # --q with a token strategy, or --t with many-token-equal-part, is bad
    # input, not a flag silently dropped
    for args in (["--strategy", "limited-token-random-part", "--t", "8",
                  "--q", "4096"],
                 ["--strategy", "limited-token-equal-part", "--t", "8",
                  "--q", "64"],
                 ["--q", "64", "--t", "8"]):
        assert main(["ring-stats", "--nodes", "4", "--keys", "100",
                     *args]) == EXIT_USAGE, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("args, message", [
    ([], "many-token-equal-part needs --q"),
    (["--q", "64", "--t", "8"], "many-token-equal-part does not read --t"),
    (["--strategy", "limited-token-random-part"],
     "limited-token-random-part needs --t"),
    (["--strategy", "limited-token-random-part", "--t", "8", "--q", "4096"],
     "limited-token-random-part does not read --q"),
])
def test_ring_stats_size_errors_name_the_flags(capsys, args, message):
    """A missing or unread strategy size is named by the flag the user
    types, not by the strategy's field."""
    assert main(["ring-stats", "--nodes", "4", "--keys", "100",
                 *args]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_ring_stats_huge_q(capsys):
    # a slot count past the cap fails before anything is allocated
    for size in (["--q", HUGE],
                 ["--strategy", "limited-token-random-part", "--t", "100000000"],
                 ["--strategy", "limited-token-random-part", "--t", HUGE],
                 ["--strategy", "limited-token-equal-part", "--t", "100000000"]):
        assert main(["ring-stats", "--nodes", "4", *size]) == EXIT_USAGE, size
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_ring_stats_bad_replication(capsys):
    for bad in ("0", "-1"):
        rc = main(["ring-stats", "--strategy", "many-token-equal-part",
                   "--q", "64", "--nodes", "8", "--keys", "1000",
                   "--replication", bad])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# the error boundary

GOOD_SIMULATE = ["simulate", "--config", "config.json", "--trace", "trace.jsonl"]
GOOD_ARGVS = (
    ["bounds", "--n", "4", "--mu", "0.5", "--bandwidth", "1Gbps",
     "--value-size", "16", "--scenario", "stable-clear"],
    ["sweep", "--n-min", "2", "--n-max", "6", "--mu-list", "0.3,0.5",
     "--scenario-list", "all", "--bandwidth", "1Gbps", "--value-size", "16",
     "--out", "curves.csv"],
    GOOD_SIMULATE,
    ["validate", "--n-list", "4", "--scenario-list", "increasing-concurrent",
     "--tol", "0.02", "--mu", "0.5", "--bandwidth", "1Gbps",
     "--value-size", "16"],
    ["case-study", "--override-total-rate", "4800000",
     "--override-value-size", "240", "--override-bandwidth", "1Gbps",
     "--override-mu", "0.5"],
    ["ring-stats", "--nodes", "4", "--q", "64", "--keys", "1000",
     "--replication", "1", "--seed", "0"],
    ["ring-stats", "--nodes", "4", "--strategy", "limited-token-random-part",
     "--t", "2", "--keys", "1000", "--replication", "2", "--seed", "0"],
)
GOOD_CONFIG = {
    "n": 8, "bandwidth": "1Gbps", "value_size": 16.0, "mu": 0.5,
    "workload": "increasing", "mode": "concurrent", "rate": 100000.0,
    "n_target": 9, "initial_fill": 1.0, "storage": 1e12,
}


def test_main_never_lets_an_exception_out(tmp_path, monkeypatch, capsys):
    """One bad token at a time in place of one flag of a known-good argv, or
    of one field of a good simulate config: main returns a documented exit
    code with one error line on 2 or 3, and argparse rejects what it cannot
    convert with its usage and one error line.  No size flag gets a large
    valid value."""
    monkeypatch.chdir(tmp_path)
    # each known-good argv as it is: a stale one would make every case built
    # from it a usage error
    (tmp_path / "config.json").write_text(json.dumps(GOOD_CONFIG))
    for good in GOOD_ARGVS:
        assert main(good) == EXIT_OK, (good, capsys.readouterr().err)
    capsys.readouterr()
    cases = []
    for good in GOOD_ARGVS:
        for i in range(1, len(good), 2):
            for token in ("0", "-1", "nan", "inf", "x", HUGE):
                cases.append((good[:i + 1] + [token] + good[i + 2:], GOOD_CONFIG))
    for key in GOOD_CONFIG:
        for token in (0, -1, math.nan, math.inf, "x", int(HUGE)):
            cases.append((GOOD_SIMULATE, dict(GOOD_CONFIG, **{key: token})))
    codes = {EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_BREAKDOWN, EXIT_VALIDATION}
    for argv, doc in cases:
        (tmp_path / "config.json").write_text(json.dumps(doc))
        try:
            rc = main(argv)
        except SystemExit as exc:
            err = capsys.readouterr().err
            assert exc.code == EXIT_USAGE, (argv, err)
            assert [ln for ln in err.splitlines() if "error:" in ln] == \
                [err.splitlines()[-1]], (argv, err)
            continue
        except Exception as exc:
            pytest.fail(f"{argv} {doc}: {exc!r} escaped main")
        err = capsys.readouterr().err
        assert rc in codes, (argv, doc, rc)
        if rc in (EXIT_USAGE, EXIT_IO):
            assert err.startswith("error:") and err.count("\n") == 1, (argv, doc, err)


def _run_python(*args, stdout=subprocess.PIPE, cwd=None):
    """``python *args`` as its own process, with src first on the path."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=120, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path))


def _run_process(*argv, stdout=subprocess.PIPE, cwd=None):
    """The CLI as its own process: ``python -m dht_rebalance.cli``, so
    entry() and the __main__ guard are exercised."""
    return _run_python("-m", "dht_rebalance.cli", *argv, stdout=stdout, cwd=cwd)


# runs the light argvs, notes which array modules are loaded, then runs the
# rest; prints the exit codes and those modules as one JSON line
_IMPORT_PROBE = """
import contextlib, io, json, sys
from dht_rebalance.cli import main
light, rest = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in light]
    loaded = sorted({"numpy", "dht_rebalance.ring"} & set(sys.modules))
    codes += [main(argv) for argv in rest]
print(json.dumps([codes, loaded]))
"""


def test_only_sweep_and_ring_stats_import_numpy_or_the_ring(tmp_path):
    """bounds, simulate, validate and case-study, run through main in one
    process, leave numpy and the ring module unimported; sweep and
    ring-stats, which read arrays, still exit 0 after them."""
    (tmp_path / "config.json").write_text(json.dumps(GOOD_CONFIG))
    arrays = ("sweep", "ring-stats")
    light = [argv for argv in GOOD_ARGVS if argv[0] not in arrays]
    rest = [argv for argv in GOOD_ARGVS if argv[0] in arrays]
    assert sorted({argv[0] for argv in light}) == [
        "bounds", "case-study", "simulate", "validate"]
    proc = _run_python("-c", _IMPORT_PROBE, json.dumps([light, rest]),
                       cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert loaded == []
    assert codes == [EXIT_OK] * len(GOOD_ARGVS)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_closed_stdout_ends_by_sigpipe():
    """A reader that stops early is not a bad output file: the CLI ends by
    SIGPIPE with nothing on stderr, not with exit 3 and an error line."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_process("case-study", stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (-signal.SIGPIPE, "")


def test_process_exit_codes(tmp_path):
    proc = _run_process("bounds", "--n", "10", "--mu", "0.5",
                        "--scenario", "stable-concurrent", "--json")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["binding"]["kind"] == "bandwidth"

    proc = _run_process("bounds", "--n", "4", "--mu", "1.5",
                        "--scenario", "increasing-clear")
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    # above the n=8 increasing-concurrent bandwidth bound b/(v*(N+1))
    proc = _run_process("simulate", "--config",
                        write_config(tmp_path, rate=1.05 * 1.25e8 / (16 * 9)))
    assert proc.returncode == EXIT_BREAKDOWN, proc.stderr
    assert json.loads(proc.stdout)["breakdown_kind"] == "expansion_overlap"


@pytest.mark.parametrize("argv", [
    # B = bandwidth / value_size underflows to 0
    ["validate", "--n-list", "2", "--bandwidth", "1e-300",
     "--value-size", "1e300"],
    # B overflows to inf
    ["bounds", "--n", "3", "--mu", "0.5", "--scenario", "stable-clear",
     "--value-size", "1e-320", "--json"],
    ["sweep", "--n-min", "2", "--n-max", "4", "--value-size", "1e-320",
     "--out", "curves.csv"],
    ["case-study", "--override-value-size", "1e-320"],
    ["validate", "--n-list", "2", "--bandwidth", "1e300",
     "--value-size", "1e-300"],
    # 2**31 nodes on 3 partitions: rejected before a node tuple is built
    ["ring-stats", "--nodes", "2147483648", "--q", "3", "--keys", "10"],
    # a subnormal B whose binding bound B / 1001 underflows to 0
    ["validate", "--n-list", "1000", "--bandwidth", "1e-300",
     "--value-size", "1e23", "--scenario-list", "increasing-concurrent"],
], ids=["validate-b-zero", "bounds-b-inf", "sweep-b-inf", "case-study-b-inf",
        "validate-b-inf", "ring-stats-huge", "validate-binding-zero"])
def test_process_rejects_a_degenerate_link_or_ring(tmp_path, argv):
    """Exit 2 with one error line, no traceback and no output."""
    proc = _run_process(*argv, cwd=tmp_path)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    if argv[0] != "ring-stats":
        assert "bandwidth / value_size" in proc.stderr
    assert not (tmp_path / "curves.csv").exists()
