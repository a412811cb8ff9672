"""One benchmark run in a fresh interpreter: set up, run passes, report.

run.py starts this file and times it from start to the READY line (set-up).
With --setup-only it exits there.  Otherwise it runs whole passes of the
workload's job list, one job at a time (closed loop), until --seconds have
gone by, and prints one JSON object with the metrics by name, the job counts
and the failing jobs.

Each job is timed alone; its output is checked right after, outside the
timer.  Each CPU of a shared machine drops to about half speed at its own
times, for a fraction of a second to tens of seconds.  So before each job the
child moves to the allowed CPU that runs a short probe fastest, and each
job's latency is its fastest time over the passes: wall_s is the sum of those
(plus the fastest ring build), and the percentiles are taken over them.  With
--trace 1, untraced and traced passes alternate; per-layer numbers come from
the traced passes' spans and are given per pass.

workloads, checks and layers import dht_rebalance, so they are imported
only after _import_program() has put the checkout's src/ on the path.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    """Import dht_rebalance from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dht_rebalance
    where = Path(dht_rebalance.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"dht_rebalance imported from {where}, not {src}")


class CpuPicker:
    """Moves the process to the allowed CPU that runs a short probe fastest.

    The probe is not timed with the job.  With one allowed CPU it does
    nothing."""

    PROBE_LOOPS = 2000

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))

    def _probe_ns(self) -> int:
        best = None
        for _ in range(2):
            t0 = time.perf_counter_ns()
            s = 0.0
            for i in range(self.PROBE_LOOPS):
                s += i * 0.5
            t = time.perf_counter_ns() - t0
            best = t if best is None else min(best, t)
        return best

    def __call__(self) -> None:
        if len(self.cpus) < 2:
            return
        times = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times.append((self._probe_ns(), cpu))
        os.sched_setaffinity(0, {min(times)[1]})


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_values) * p // 100) - 1)
    return sorted_values[int(k)]


class Workload:
    """A workload's generated inputs and how to run and check one pass."""

    def __init__(self, name: str, seed: int, tiny: bool):
        import workloads
        from dht_rebalance.bounds import ALL_SCENARIOS
        self.name = name
        self.tiny = tiny
        self.scenarios = {sc.name: sc for sc in ALL_SCENARIOS}
        self.sink = open(os.devnull, "w")
        if name == "plan":
            self.jobs = workloads.make_plan(seed, tiny)
        elif name == "scaleout":
            self.jobs = workloads.make_scaleout(seed, tiny)
        else:
            self.spec = workloads.make_ring(seed, tiny)
            self.jobs = self.spec["jobs"]

    def close(self):
        self.sink.close()

    def run_pass(self, tr, observe=None, pick_cpu=None) -> dict:
        """Run every job once, calling pick_cpu before each job and ring
        build.  Returns the timed nanoseconds (jobs plus ring builds, checks
        excluded), the build time, per-job latencies and failed checks."""
        import checks
        import workloads as wl
        build = 0
        latencies = []
        failures = []
        rings = None
        if self.name == "ring":
            if pick_cpu is not None:
                pick_cpu()
            t0 = time.perf_counter_ns()
            rings = wl.build_rings(self.spec, tr, self.tiny)
            build = time.perf_counter_ns() - t0
        for i, job in enumerate(self.jobs):
            before = rings[job["ring"]] if rings is not None else None
            if pick_cpu is not None:
                pick_cpu()
            tr.job = i
            t0 = time.perf_counter_ns()
            try:
                if self.name == "plan":
                    out = wl.run_plan_job(job, tr, self.scenarios)
                elif self.name == "scaleout":
                    out = wl.run_scaleout_job(job, tr, self.scenarios, self.sink)
                else:
                    out = wl.run_ring_job(job, tr, rings)
                error = None
            except Exception as exc:  # a failed job is counted, not fatal
                out, error = None, exc
            t1 = time.perf_counter_ns()
            tr.job = -1
            tr.job_span(i, t0, t1)
            latencies.append(t1 - t0)
            if error is not None:
                failed = [f"exception:{type(error).__name__}"]
            elif self.name == "plan":
                failed = checks.check_plan(job, out)
            elif self.name == "scaleout":
                failed = checks.check_scaleout(job, out)
            else:
                failed = checks.check_ring(job, before, out)
            if failed:
                failures.append((i, failed))
            if observe is not None and error is None:
                observe(i, job, out, failed)
            del out
        return {"timed_ns": build + sum(latencies), "build_ns": build,
                "latencies_ns": latencies, "failures": failures}


class LayerCounters:
    """Per-layer counts taken from job outputs in the traced passes."""

    def __init__(self, workload: str):
        self.workload = workload
        self.sweep_rows = 0
        self.threshold_calls = 0
        self.threshold_pass = 0
        self.sim_events = 0
        self.trace_bytes = {}
        self.moved_fracs = []
        self.balance_keys = 0
        self.epsilon_max = 0.0

    def observe(self, i, job, out, failed):
        if self.workload == "plan":
            n, _report, _thr, rows = out
            if n is None:
                return
            self.sweep_rows += len(rows)
            self.threshold_calls += 1
            self.threshold_pass += "threshold" not in failed
        elif self.workload == "scaleout":
            from dht_rebalance.sim import event_to_dict
            events = out[0]
            self.sim_events += len(events)
            if i not in self.trace_bytes:               # passes are identical
                self.trace_bytes[i] = sum(
                    len(json.dumps(event_to_dict(ev))) + 1 for ev in events)
        else:
            after, report, _owners, stats = out
            if job["op"] == "join":
                ideal = job["key_sample"] / after.n     # k / (N + 1)
                self.moved_fracs.append(report.moved_key_estimate / ideal)
            self.balance_keys += job["balance_keys"]
            self.epsilon_max = max(self.epsilon_max, stats.epsilon_hat)


def measure(workload: Workload, seconds: float, trace: bool):
    """Run passes until the time is used, each job on the CPU that is
    fastest just before it."""
    from tracing import Tracer
    plain = Tracer(False)
    traced = Tracer(True)
    counters = LayerCounters(workload.name)
    passes = {False: [], True: []}
    pick_cpu = CpuPicker()
    start = time.perf_counter()
    kinds = (False, True) if trace else (False,)
    while True:
        for kind in kinds:
            gc.collect()
            t = time.perf_counter()
            passes[kind].append(workload.run_pass(
                traced if kind else plain,
                counters.observe if kind else None, pick_cpu))
            last = time.perf_counter() - t
        elapsed = time.perf_counter() - start
        if elapsed + last * len(kinds) > seconds:
            break
    return passes, traced, counters


def job_latencies(passes) -> list[int]:
    """Each job's fastest latency (ns) over the passes."""
    return [min(lat) for lat in zip(*(p["latencies_ns"] for p in passes))]


def pass_wall_ns(passes) -> int:
    """Time of one pass: fastest build plus each job's fastest latency."""
    return min(p["build_ns"] for p in passes) + sum(job_latencies(passes))


def end_to_end(passes) -> dict:
    lat = sorted(job_latencies(passes))
    attempted = sum(len(p["latencies_ns"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    return {
        "wall_s": pass_wall_ns(passes) / 1e9,
        "job_p50_ms": percentile(lat, 50) / 1e6,
        "job_p90_ms": percentile(lat, 90) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_frac": failed / attempted,
    }


def per_layer(workload, passes, traced, counters, work_dir) -> tuple[dict, list]:
    """Per-pass layer numbers from the traced passes, the tracing overhead,
    and the scaling and CLI rows.  Returns (metrics, CLI exit codes)."""
    import layers
    from tracing import layer_self_times
    k = len(passes[True])
    self_times = layer_self_times(traced.spans)

    def s(name):
        return self_times.get(name, (0.0, 0))[0] / k

    def calls(name):
        return self_times.get(name, (0.0, 0))[1] / k

    traced_ns = sum(p["timed_ns"] for p in passes[True])
    m = {}
    for name in ("bounds.min_feasible_n", "bounds.bound_report",
                 "sim.feasibility_threshold", "sim.run", "ring.join",
                 "ring.leave", "ring.lookup"):
        m[f"{name}.s"] = s(name)
        m[f"{name}.calls"] = calls(name)
    for name in ("cli.sweep_rows", "sim.write_trace", "sim.summary_dict",
                 "ring.build_ring", "ring.balance_stats"):
        m[f"{name}.s"] = s(name)
    rows = counters.sweep_rows / k
    m["cli.sweep_rows.rows"] = rows
    m["cli.sweep_rows.us_per_row"] = s("cli.sweep_rows") / rows * 1e6 if rows else 0.0
    m["sim.threshold.pass_frac"] = (counters.threshold_pass / counters.threshold_calls
                                    if counters.threshold_calls else 0.0)
    m["sim.run.events"] = counters.sim_events / k
    m["sim.run.peak_mb"] = layers.largest_run_peak_mb(workload)
    m["sim.write_trace.mb"] = sum(counters.trace_bytes.values()) / 1e6
    m["ring.join.moved_frac"] = (statistics.fmean(counters.moved_fracs)
                                 if counters.moved_fracs else 0.0)
    lookups = calls("ring.lookup")
    m["ring.lookup.us_per_call"] = s("ring.lookup") / lookups * 1e6 if lookups else 0.0
    m["ring.balance_stats.keys"] = counters.balance_keys / k
    m["ring.balance_stats.epsilon_hat_max"] = counters.epsilon_max
    m["trace.overhead_frac"] = (pass_wall_ns(passes[True])
                                / pass_wall_ns(passes[False]) - 1.0)
    m["trace.coverage_frac"] = sum(t for t, _ in self_times.values()) * 1e9 / traced_ns
    m.update(layers.scaling_rows(workload.tiny))
    cli_metrics, cli_codes = layers.cli_rows(work_dir, ROOT / "src")
    m.update(cli_metrics)
    return m, cli_codes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)

    _import_program()
    workload = Workload(args.workload, args.seed, args.tiny)
    print("READY", flush=True)
    if args.setup_only:
        workload.close()
        return 0

    passes, traced, counters = measure(workload, args.seconds, bool(args.trace))
    all_passes = passes[False] + passes[True]
    attempted = sum(len(p["latencies_ns"]) for p in all_passes)
    failures = sorted({(i, tuple(names)) for p in all_passes
                       for i, names in p["failures"]})
    unexpected = [(i, names) for i, names in failures
                  if not set(names) <= set(workload.jobs[i]["expect_fail"])]
    failed = sum(len(p["failures"]) for p in all_passes)
    if args.trace:
        metrics, cli_codes = per_layer(workload, passes, traced, counters,
                                       args.work_dir)
        for name, expected, inproc, sub in cli_codes:
            print(f"cli {name}: exit {inproc} in-process, {sub} as a "
                  f"subprocess, expected {expected}")
            attempted += 1
            if inproc != expected or sub != expected:
                failed += 1
                unexpected.append(("cli", [name]))
        traced.write(Path(args.work_dir) / "spans.jsonl")
    else:
        metrics = end_to_end(passes[False])
    workload.close()

    jobs = len(workload.jobs)
    print(f"{args.workload}: {len(passes[False])} untraced and "
          f"{len(passes[True])} traced passes of {jobs} jobs; percentiles "
          f"over {jobs} per-job fastest times, {jobs - -(-jobs * 9 // 10)} beyond p90",
          flush=True)
    for kind in (False, True):
        if passes[kind]:
            walls = sorted(p["timed_ns"] / 1e9 for p in passes[kind])
            print(f"{'traced' if kind else 'untraced'} pass time (s): min "
                  f"{walls[0]:.3f}, median {statistics.median(walls):.3f}, "
                  f"max {walls[-1]:.3f}")
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failing_jobs": [[i, list(names)] for i, names in failures],
        "unexpected": [[i, list(names)] for i, names in unexpected],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
