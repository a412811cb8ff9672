"""Command-line front end.

Commands: bounds, sweep, simulate, validate, case-study, ring-stats.

``main`` is the one error boundary: the commands raise, and it turns the
exception into an exit code and, for 2 and 3, one ``error:`` line on stderr.

* 0 ok, 4 simulated breakdown, 5 validation failure.  A simulated write
  share at or above the bandwidth is a breakdown (expansion_overlap), not
  bad input.
* 2 bad input: ``ValueError`` (which covers ``RingError`` and
  ``JSONDecodeError``) and ``OverflowError``.  A ``--config`` that cannot
  be read is bad input too: ``cmd_simulate`` raises it as a
  ``ValueError``.
* 3 an output file (``--out``, ``--trace``) could not be written:
  ``OSError``.
* Any other exception is a bug and propagates with its traceback.

A closed stdout, such as a reader that stops early in ``| head``, is not a bad
output file: ``entry`` restores the default ``SIGPIPE`` action where the
platform has one, so the process ends by that signal with nothing on stderr,
as other command-line tools do.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
from collections import defaultdict
from itertools import chain, repeat, starmap

import numpy as np

from . import bounds as bnd
from . import ring as rng_mod
from . import sim as sim_mod
from .bounds import (
    ALL_SCENARIOS,
    BoundKind,
    ClusterParams,
    Scenario,
    StabilizationMode,
    WorkloadKind,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BREAKDOWN = 4
EXIT_VALIDATION = 5

DEFAULT_BANDWIDTH = 125_000_000.0  # 1 Gbps in bytes/s

# decimal prefixes; bit units divide by 8
_UNIT_BYTES = {
    "bps": 0.125, "Kbps": 125.0, "Mbps": 125_000.0, "Gbps": 125_000_000.0,
    "B/s": 1.0, "KB/s": 1e3, "MB/s": 1e6, "GB/s": 1e9,
}
_RATE_RE = re.compile(r"^\s*([0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([A-Za-z/]+)?\s*$")


def parse_bandwidth(text) -> float:
    """'1Gbps' -> 125000000.0 bytes/s; a bare number is bytes/s."""
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        m = _RATE_RE.match(str(text))
        if not m:
            raise ValueError(f"cannot parse bandwidth: {text!r}")
        value = float(m.group(1))
        unit = m.group(2)
        if unit is not None:
            if unit not in _UNIT_BYTES:
                raise ValueError(f"unknown bandwidth unit: {unit!r}")
            value *= _UNIT_BYTES[unit]
    if value <= 0:
        raise ValueError("bandwidth must be positive")
    return value


def _parse_scenarios(text: str) -> list[Scenario]:
    if text == "all":
        return list(ALL_SCENARIOS)
    scenarios = [Scenario.parse(part.strip()) for part in text.split(",")
                 if part.strip()]
    if not scenarios:
        raise ValueError("scenario list is empty")
    return scenarios


# ---------------------------------------------------------------------------
# bounds

def cmd_bounds(args) -> int:
    params = ClusterParams(n=args.n, bandwidth=parse_bandwidth(args.bandwidth),
                           value_size=float(args.value_size), mu=args.mu)
    scenario = Scenario.parse(args.scenario)
    report = bnd.bound_report(params, scenario)
    if args.json:
        payload = {
            "scenario": scenario.name,
            "bounds": [
                {"kind": e.kind.value, "writes_per_s_per_node": e.value,
                 "applicable": e.applicable}
                for e in report.entries
            ],
            "binding": {"kind": report.binding.kind.value,
                        "writes_per_s_per_node": report.binding.value},
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"scenario: {scenario.name}")
        for e in report.entries:
            mark = "binding" if e == report.binding else (
                "applicable" if e.applicable else "n/a")
            print(f"  {e.kind.value:<10} {e.value:>16.6g} writes/s/node  [{mark}]")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

_BLOCK = 4_096  # sizes per bound_table call and per CSV write


def _sweep_groups(n_min: int, n_max: int, mu_values, scenarios,
                  bandwidth: float, value_size: float):
    """Check the sweep's inputs, then return an iterator over its curve
    groups, one block of sizes at a time: (scenario name, bound_kind, sizes,
    values) in (scenario, bound_kind, n) order, with sizes the block's n as
    a list of ints.  ``values`` holds the group's curves at those sizes: one
    per mu value with the group's label, for each copy of the scenario, in
    input order.  It is the curve itself when the group has one, and one
    column per curve otherwise.

    A range outside 1 <= n_min < n_max <= 10**6 is rejected, and so are a
    link and a mu that ClusterParams rejects and an empty mu list when a
    scenario applies the storage bound, before the first group."""
    if not 1 <= n_min < n_max <= 10 ** 6:
        raise ValueError("need 1 <= n-min < n-max <= 10^6")
    # the link once, at a mu it accepts; then each mu by the same rule
    b_rate = ClusterParams(n=n_min, bandwidth=bandwidth, value_size=value_size,
                           mu=1.0).max_write_rate
    for mu in mu_values:
        bnd.check_mu(mu)
    if not mu_values and any(BoundKind.STORAGE in bnd.applicable_kinds(sc)
                             for sc in scenarios):
        raise ValueError("mu list is empty: the storage bound of a "
                         "concurrent scenario needs at least one mu")
    n = np.arange(n_min, n_max + 1)
    blocks = [n[i:i + _BLOCK] for i in range(0, len(n), _BLOCK)]
    return _curve_groups(blocks, mu_values, scenarios, b_rate)


def _curve_groups(blocks, mu_values, scenarios, b_rate):
    names = [scenario.name for scenario in scenarios]
    # the first block's sizes as ints once, for every curve that reads them
    first_sizes = blocks[0].tolist()
    for name, scenario in sorted(dict(zip(names, scenarios)).items()):
        # a repeated scenario repeats its curves
        args = (scenario, mu_values, b_rate, names.count(name))
        first = _curves(blocks[0], *args)
        for label in sorted(first):
            yield name, label, first_sizes, first[label]
            # a later block's table is built again per label, so no more
            # than one block is held
            for block in blocks[1:]:
                yield name, label, block.tolist(), _curves(block, *args)[label]


def _curves(n, scenario: Scenario, mu_values, b_rate, copies: int) -> dict:
    """{label: values} for one scenario over the sizes n, from one
    bound_table call that evaluates the scenario's applicable kinds only."""
    curves = defaultdict(list)
    kinds = bnd.applicable_kinds(scenario)
    # N as a column and mu as a row: one call gives every storage curve; the
    # bandwidth and time forms do not read mu
    table = bnd.bound_table(n[:, None], np.array(mu_values, dtype=float),
                            b_rate, scenario.workload, kinds)
    for key, values in table.items():
        if key == "storage":
            for j, mu in enumerate(mu_values):
                curves[f"storage(mu={mu:g})"].append(values[:, j])
        else:
            curves[key].append(values.ravel())
    # a lone curve as it is; else the curves of one label as columns, each
    # scenario copy's in turn
    return {label: group[0] if len(group) * copies == 1
            else np.array(group * copies).T
            for label, group in curves.items()}


def _group_rows(name: str, label: str, sizes: list, values):
    """One group's rows (n, scenario, bound_kind, value), its curves
    alternating per n."""
    if values.ndim == 1:
        return zip(sizes, repeat(name), repeat(label), values.tolist())
    # each size once per curve: its n repeated values.shape[1] times
    return zip(chain.from_iterable(zip(*repeat(sizes, values.shape[1]))),
               repeat(name), repeat(label), values.ravel().tolist())


def sweep_rows(n_min: int, n_max: int, mu_values, scenarios,
               bandwidth: float, value_size: float):
    """CurveCSV rows: (n, scenario, bound_kind, lambda), in (scenario,
    bound_kind, n) order.  The storage bound depends on mu, so its kind column
    carries the mu value; the bandwidth and time bounds are mu-independent
    and appear once.  Curves that share a (scenario, bound_kind) pair -- a
    repeated scenario, or mu values with the same label -- alternate per n in
    input order.  A range outside 1 <= n_min < n_max <= 10**6 is rejected,
    so are a link or mu that ClusterParams rejects, and so is an empty mu
    list when a scenario applies the storage bound.

    ``sweep`` streams the same rows to its CSV a block of sizes at a time,
    so its memory does not grow with the range."""
    rows = []
    for group in _sweep_groups(n_min, n_max, mu_values, scenarios, bandwidth,
                               value_size):
        rows.extend(_group_rows(*group))
    return rows


# one CSV line as csv.writer writes it: no field holds a comma, a quote or a
# line break, so none is quoted
_CSV_LINE = "{},{},{},{:.6g}\r\n".format


def cmd_sweep(args) -> int:
    # every input is checked before the output file is opened
    groups = _sweep_groups(args.n_min, args.n_max,
                           [float(x) for x in args.mu_list.split(",") if x],
                           _parse_scenarios(args.scenario_list),
                           parse_bandwidth(args.bandwidth),
                           float(args.value_size))
    with open(args.out, "w", newline="") as fh:
        fh.write("n,scenario,bound_kind,lambda_bound_writes_per_s\r\n")
        for group in groups:
            fh.write("".join(starmap(_CSV_LINE, _group_rows(*group))))
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

_CONFIG_FIELDS = {
    "n", "bandwidth", "value_size", "mu", "storage",
    "workload", "rate", "mode", "n_target", "initial_fill",
}
_CONFIG_REQUIRED = {"n", "bandwidth", "value_size", "mu", "workload", "rate",
                    "mode", "n_target"}


def _given(doc: dict, *keys) -> dict:
    """The optional keys that doc has, as floats; the rest keep defaults."""
    return {key: float(doc[key]) for key in keys if key in doc}


def load_sim_config(doc: dict) -> sim_mod.SimConfig:
    unknown = set(doc) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    missing = _CONFIG_REQUIRED - set(doc)
    if missing:
        raise ValueError(f"missing config fields: {sorted(missing)}")
    try:
        for key in ("n", "n_target"):
            if not float(doc[key]).is_integer():
                raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
        params = ClusterParams(
            n=int(doc["n"]),
            bandwidth=parse_bandwidth(doc["bandwidth"]),
            value_size=float(doc["value_size"]),
            mu=float(doc["mu"]),
            **_given(doc, "storage"),
        )
        scenario = Scenario(WorkloadKind(doc["workload"]),
                            StabilizationMode(doc["mode"]))
        return sim_mod.SimConfig(
            params=params,
            scenario=scenario,
            rate=float(doc["rate"]),
            n_target=int(doc["n_target"]),
            **_given(doc, "initial_fill"),
        )
    except OverflowError as exc:
        # float() met an integer too large for a float: name its field
        fields = [key for key, value in doc.items()
                  if isinstance(value, int) and abs(value) > sys.float_info.max]
        raise ValueError(f"{', '.join(fields)}: {exc}") from None


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = load_sim_config(json.load(fh))
    except (OSError, TypeError, ValueError, OverflowError) as exc:
        # the config is input: reading it fails as bad input, not as I/O
        raise ValueError(f"bad config: {exc}") from exc
    events, outcome = sim_mod.run(cfg)
    if args.trace:
        sim_mod.write_trace(events, args.trace)
    print(sim_mod.summary_json(sim_mod.summary_dict(events, outcome)))
    return EXIT_BREAKDOWN if outcome.kind == sim_mod.BREAKDOWN else EXIT_OK


# ---------------------------------------------------------------------------
# validate

def cmd_validate(args) -> int:
    n_values = [int(x) for x in args.n_list.split(",") if x]
    scenarios = _parse_scenarios(args.scenario_list)
    base = ClusterParams(n=1, bandwidth=parse_bandwidth(args.bandwidth),
                         value_size=float(args.value_size), mu=args.mu,
                         storage=args.storage)
    # every row before any output, so bad input prints no partial table
    rows = [row for scenario in scenarios
            for row in sim_mod.validate_against_bounds(n_values, scenario, base,
                                                       tol=args.tol)]
    print(f"{'n':>4} {'scenario':<22} {'analytic':>14} {'simulated':>14} "
          f"{'rel_err':>10}  result  breakdown_above")
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        print(f"{row.n:>4} {row.scenario.name:<22} {row.analytic_bound:>14.6g} "
              f"{row.simulated_threshold:>14.6g} "
              f"{row.relative_error:>10.3e}  {status:<6}  "
              f"{row.breakdown_above}")
    return EXIT_OK if all(row.passed for row in rows) else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# case study

def case_study(total_rate: float = 4_800_000.0,
               value_size: float = 240.0,
               bandwidth: float = DEFAULT_BANDWIDTH,
               mu: float = 0.5) -> dict:
    """Metro-IoT sizing exercise: a stable 4.8M writes/s workload of 240 B
    values against 1 Gbps nodes, mu = 0.5."""
    b_rate = ClusterParams(n=1, bandwidth=bandwidth, value_size=value_size,
                           mu=mu).max_write_rate
    stable_concurrent = Scenario(WorkloadKind.STABLE_TOTAL,
                                 StabilizationMode.CONCURRENT)
    stable_clear = Scenario(WorkloadKind.STABLE_TOTAL, StabilizationMode.CLEAR)
    common = dict(bandwidth=bandwidth, value_size=value_size, mu=mu)
    return {
        "total_rate": total_rate,
        "value_size": value_size,
        "bandwidth": bandwidth,
        "mu": mu,
        "max_write_rate_per_node": b_rate,
        "concurrent_stable_feasible": total_rate < b_rate,
        "min_n_all_bounds": bnd.min_feasible_n(stable_concurrent, total_rate,
                                               **common),
        "min_n_storage_only": bnd.min_feasible_n(
            stable_concurrent, total_rate, kinds={BoundKind.STORAGE}, **common),
        "min_n_clear": bnd.min_feasible_n(stable_clear, total_rate, **common),
        "reported_reference_nodes": {"concurrent_stable": 13, "clear_stable": 17},
    }


def cmd_case_study(args) -> int:
    data = case_study(
        total_rate=args.override_total_rate,
        value_size=args.override_value_size,
        bandwidth=parse_bandwidth(args.override_bandwidth),
        mu=args.override_mu,
    )
    b_rate = data["max_write_rate_per_node"]
    print("Metro-IoT case study")
    print(f"  total write rate     : {data['total_rate']:,.0f} writes/s")
    print(f"  value size           : {data['value_size']:g} B")
    print(f"  node bandwidth       : {data['bandwidth']:,.0f} B/s")
    print(f"  (a) single-node write ceiling b/v = {b_rate:,.1f} writes/s")
    if data["concurrent_stable_feasible"]:
        print("  (b) concurrent stable rebalancing: feasible "
              f"(total rate < {b_rate:,.1f}); smallest qualifying size "
              f"N = {data['min_n_all_bounds']}")
    else:
        print("  (b) concurrent stable rebalancing: infeasible at every N — "
              "the system-wide rate meets or exceeds what one node can "
              "receive, so the bandwidth bound fails for all N")
    print(f"  (c) smallest N satisfying the storage bound alone: "
          f"{data['min_n_storage_only']}")
    print(f"  (d) smallest N satisfying the clear-mode time bound: "
          f"{data['min_n_clear']}")
    ref = data["reported_reference_nodes"]
    print(f"  reference values from the original study: about "
          f"{ref['concurrent_stable']} nodes (concurrent, stable writes) and "
          f"about {ref['clear_stable']} nodes (clear stabilization).")
    print("  note: those reference counts rest on a workload-to-curve "
          "transformation that is not fully specified, so they are echoed "
          "here as-is; the derived values above follow directly from the "
          "bound formulas.")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ring stats

# the ring-stats flag of each strategy size field, for its error messages
_SIZE_FLAGS = {"q": "--q", "tokens_per_node": "--t"}


def cmd_ring_stats(args) -> int:
    strategy = rng_mod.strategy_from_dict(
        {"kind": args.strategy, "q": args.q, "tokens_per_node": args.tokens_per_node},
        _SIZE_FLAGS)
    ring = rng_mod.build_ring(args.nodes, strategy, args.seed)
    stats = rng_mod.balance_stats(ring, args.keys, r=args.replication,
                                  seed=args.seed)
    _, report = rng_mod.join(ring, args.nodes, seed=args.seed,
                             key_sample=args.keys, sample_seed=args.seed,
                             replication=args.replication)
    payload = {
        "balance": {
            "n": stats.n,
            "k_sampled": stats.k_sampled,
            "max_load": stats.max_load,
            "mean_load": stats.mean_load,
            "epsilon_hat": stats.epsilon_hat,
            "per_node_load": {str(k): v for k, v in stats.per_node_load.items()},
        },
        "join": {
            "node": report.joined_or_left,
            "moved_partition_count": len(report.moved_partitions),
            "moved_key_estimate": report.moved_key_estimate,
        },
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dht-rebalance",
        description="DHT scale-out rebalancing: feasibility bounds, fluid "
                    "simulation and ring statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the link options of bounds, sweep and validate
    link = argparse.ArgumentParser(add_help=False)
    link.add_argument("--bandwidth", default=DEFAULT_BANDWIDTH)
    link.add_argument("--value-size", default=16.0)

    p = sub.add_parser("bounds", parents=[link],
                       help="evaluate the feasibility bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--scenario", required=True,
                   help="increasing-concurrent | increasing-clear | "
                        "stable-concurrent | stable-clear")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", parents=[link],
                       help="emit bound curves over N as CSV")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--mu-list", default="0.3,0.5,0.7")
    p.add_argument("--scenario-list", default="all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="run a scale-out simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--trace", default=None,
                   help="write a JSON-lines event trace here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", parents=[link],
                       help="cross-check simulated thresholds against the bounds")
    p.add_argument("--n-list", required=True)
    p.add_argument("--scenario-list", default="all")
    p.add_argument("--tol", type=float, default=0.02)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--storage", type=float, default=ClusterParams.storage)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("case-study", help="metro-IoT sizing analysis")
    p.add_argument("--override-total-rate", type=float, default=4_800_000.0)
    p.add_argument("--override-value-size", type=float, default=240.0)
    p.add_argument("--override-bandwidth", default="1Gbps")
    p.add_argument("--override-mu", type=float, default=0.5)
    p.set_defaults(func=cmd_case_study)

    p = sub.add_parser("ring-stats",
                       help="balance statistics and one-join movement report")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--strategy", default="many-token-equal-part")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--t", type=int, default=None, dest="tokens_per_node")
    p.add_argument("--keys", type=int, default=1_000_000)
    p.add_argument("--replication", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ring_stats)

    return parser


def main(argv=None) -> int:
    """Run one command; the module docstring gives the exception -> exit
    code map."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
