import json
import math

import pytest

from dht_rebalance.bounds import ALL_SCENARIOS

from dht_rebalance.cli import (
    EXIT_BREAKDOWN,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    case_study,
    format_bandwidth,
    main,
    parse_bandwidth,
    sweep_rows,
)


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
    assert parse_bandwidth("1Gbps") == 125_000_000.0
    assert parse_bandwidth("8bps") == 1.0
    assert parse_bandwidth("1.5MB/s") == 1.5e6
    assert parse_bandwidth("2e3KB/s") == 2e6
    assert parse_bandwidth("1000") == 1000.0
    assert parse_bandwidth(250) == 250.0


def test_parse_bandwidth_rejects_garbage():
    for bad in ("fast", "1Tbps", "-1Gbps", "0"):
        with pytest.raises(ValueError):
            parse_bandwidth(bad)


def test_format_round_trip_identity():
    for text in ("1Gbps", "2.5Gbps", "800Mbps", "125000000B/s", "1.5MB/s"):
        v = parse_bandwidth(text)
        for unit in ("bps", "Kbps", "Mbps", "Gbps", "B/s", "KB/s", "MB/s", "GB/s"):
            assert parse_bandwidth(format_bandwidth(v, unit)) == pytest.approx(
                v, rel=1e-12)


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
    # each row is exactly the scalar function's value
    from dht_rebalance.bounds import (
        ClusterParams, storage_bound_increasing, time_bound_clear_stable)
    by_key = {r[:3]: r[3] for r in rows}
    p = ClusterParams(n=17, bandwidth=1.25e8, value_size=16.0, mu=0.5)
    assert by_key[(17, "stable-clear", "time")] == time_bound_clear_stable(p)
    assert by_key[(17, "increasing-concurrent", "storage(mu=0.5)")] == \
        storage_bound_increasing(p)
    # a repeated scenario, and two mu values that share the label
    # storage(mu=0.5): the curves of one label alternate per n in input order
    mu_close = 0.5000001
    rows = sweep_rows(2, 30, [0.5, mu_close], list(ALL_SCENARIOS) * 2,
                      1.25e8, 16.0)
    assert rows == sorted(rows, key=lambda r: (r[1], r[2], r[0]))
    assert len(rows) == 2 * (2 * 3 + 2) * 29
    at_17 = [r[3] for r in rows
             if r[:3] == (17, "increasing-concurrent", "storage(mu=0.5)")]
    close = ClusterParams(n=17, bandwidth=1.25e8, value_size=16.0, mu=mu_close)
    pair = [storage_bound_increasing(p), storage_bound_increasing(close)]
    assert pair[0] != pair[1] and at_17 == pair * 2


def test_sweep_rows_checks_link_and_mu():
    for bad in (dict(mu_values=[0.5, 1.5]), dict(mu_values=[math.nan]),
                dict(bandwidth=math.inf), dict(value_size=0.0), dict(n_min=0)):
        kwargs = dict(n_min=2, n_max=5, mu_values=[0.5],
                      scenarios=list(ALL_SCENARIOS), bandwidth=1.25e8,
                      value_size=16.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            sweep_rows(**kwargs)


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
    doc = json.loads(capsys.readouterr().out)
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
    cfg = write_config(tmp_path, initial_fill=0.0, rate=1.0,
                       max_sim_time=10.0)
    rc = main(["simulate", "--config", cfg])
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().out)["outcome"] == "max_time_exceeded"


def test_simulate_missing_file(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json")])
    assert rc == EXIT_USAGE


def test_simulate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc = main(["simulate", "--config", str(path)])
    assert rc == EXIT_USAGE


def test_simulate_unknown_field(tmp_path, capsys):
    cfg = write_config(tmp_path, typo_field=1)
    rc = main(["simulate", "--config", cfg])
    assert rc == EXIT_USAGE
    assert "typo_field" in capsys.readouterr().err


def test_simulate_missing_field(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 4}))
    rc = main(["simulate", "--config", str(path)])
    assert rc == EXIT_USAGE


def test_simulate_bad_mu(tmp_path, capsys):
    # mu out of range, and the other values a config must not let through:
    # a non-finite rate, sizes that int() would truncate and a NaN time limit
    # and integers too large for a float
    for bad in ({"mu": 1.5}, {"rate": math.nan}, {"rate": math.inf},
                {"n_target": 9.7}, {"n": 8.5}, {"max_sim_time": math.nan},
                {"n": int(HUGE)}, {"bandwidth": int(HUGE)},
                {"rate": int(HUGE)}, {"replication": int(HUGE)}):
        cfg = write_config(tmp_path, **bad)
        assert main(["simulate", "--config", cfg]) == EXIT_USAGE, bad
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_simulate_insufficient_bandwidth(tmp_path, capsys):
    cfg = write_config(tmp_path, rate=1.25e8 / 16)
    assert main(["simulate", "--config", cfg]) == EXIT_USAGE


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


def test_validate_fail_with_tiny_tol(capsys):
    rc = main(["validate", "--n-list", "4",
               "--scenario-list", "increasing-concurrent", "--tol", "1e-6"])
    assert rc == EXIT_VALIDATION
    assert "FAIL" in capsys.readouterr().out


def test_validate_empty_n_list(capsys):
    rc = main(["validate", "--n-list", "", "--scenario-list", "all"])
    assert rc == EXIT_USAGE


def test_validate_n_below_one(capsys):
    for bad in ("0,4", HUGE):
        rc = main(["validate", "--n-list", bad, "--scenario-list", "all"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


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


def test_ring_stats_huge_q(capsys):
    assert main(["ring-stats", "--nodes", "4", "--q", HUGE]) == EXIT_USAGE
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
     "--value-size", "16", "--storage", "1e12"],
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
    "n_target": 9, "initial_fill": 1.0, "replication": 1, "storage": 1e12,
    "max_sim_time": 1e18,
}


def test_main_never_lets_an_exception_out(tmp_path, monkeypatch, capsys):
    """One bad token at a time in place of one flag of a known-good argv, or
    of one field of a good simulate config: main returns a documented exit
    code with one error line on 2 or 3, and argparse rejects what it cannot
    convert with its usage and one error line.  --t never gets HUGE (drawing
    that many random tokens exhausts memory), and no size flag gets a large
    valid value."""
    monkeypatch.chdir(tmp_path)
    cases = []
    for good in GOOD_ARGVS:
        for i in range(1, len(good), 2):
            for token in ("0", "-1", "nan", "inf", "x", HUGE):
                if not (good[i] == "--t" and token == HUGE):
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
