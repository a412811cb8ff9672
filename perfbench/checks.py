"""Reference answers and output checks for the benchmark jobs.

Nothing here is timed.  The references are written from the closed forms and
the ring's definition, not taken from the program: the bounds are evaluated
with mpmath at 40 digits, lookups walk the circle with a separate SplitMix64.
Each check returns the names of the checks a job failed; an empty list means
the job passed.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from mpmath import mp, mpf, sqrt

mp.dps = 40

BOUND_REL_TOL = 1e-12     # program float vs 40-digit closed form
THRESHOLD_TOL = 0.02      # validate_against_bounds' default tolerance
CONSERVATION_REL_TOL = 1e-9
OUTCOME_MARGIN = 0.10     # outcome checked only when rate is >10% off bound
MASK64 = (1 << 64) - 1
CIRCLE = 1 << 64


# ---------------------------------------------------------------------------
# closed-form bounds

def ref_bounds(n: int, mu: float, b_rate, increasing: bool) -> dict[str, mpf]:
    """The three bound kinds at size n, in writes/s per node, as mpf."""
    n = mpf(n)
    mu = mpf(mu)
    b_rate = mpf(b_rate)
    root = sqrt(4 * n + 1) - 1
    if increasing:
        return {"storage": (1 - n / (n + 1) * mu) * b_rate,
                "bandwidth": b_rate / (n + 1),
                "time": root / (2 * n) * b_rate}
    return {"storage": (1 + 1 / n - mu) * b_rate,
            "bandwidth": b_rate / n,
            "time": (n + 1) * root / (2 * n * n) * b_rate}


def applicable_kinds(concurrent: bool) -> tuple[str, ...]:
    return ("storage", "bandwidth") if concurrent else ("time",)


def ref_binding(n, mu, b_rate, increasing, concurrent) -> mpf:
    vals = ref_bounds(n, mu, b_rate, increasing)
    return min(vals[k] for k in applicable_kinds(concurrent))


def binding_array(n: np.ndarray, mu: float, b_rate: float, increasing: bool,
                  concurrent: bool) -> np.ndarray:
    """Float binding bound for every size in n (used to pick rates and to
    predict multi-expansion outcomes)."""
    n = n.astype(float)
    if concurrent:
        if increasing:
            return np.minimum((1 - n / (n + 1) * mu) * b_rate, b_rate / (n + 1))
        return np.minimum((1 + 1 / n - mu) * b_rate, b_rate / n)
    root = np.sqrt(4 * n + 1) - 1
    if increasing:
        return root / (2 * n) * b_rate
    return (n + 1) * root / (2 * n * n) * b_rate


def stable_clear_capacity(n: int) -> float:
    """(N+1)(sqrt(4N+1)-1)/(2N): the largest total rate, in units of B, a
    stable-clear cluster of N nodes sustains."""
    return (n + 1) * (math.sqrt(4 * n + 1) - 1) / (2 * n)


def _close(value: float, ref: mpf, rel: float) -> bool:
    return abs(mpf(value) - ref) <= rel * abs(ref)


# ---------------------------------------------------------------------------
# plan

def check_plan(job, out) -> list[str]:
    n, report, threshold, rows = out
    increasing = job["increasing"]
    concurrent = job["concurrent"]
    b_rate = job["bandwidth"] / job["value_size"]
    kinds = applicable_kinds(concurrent)
    if job["kinds"] is not None:
        kinds = tuple(k for k in kinds if k in job["kinds"])
    failed = []

    def feasible(m: int) -> bool:
        lam = mpf(job["rate"]) / m if not increasing else mpf(job["rate"])
        vals = ref_bounds(m, job["mu"], b_rate, increasing)
        return all(lam < vals[k] for k in kinds)

    if n is None or not feasible(n) or (n > 1 and feasible(n - 1)):
        return ["min_feasible_n"]

    ref = ref_bounds(n, job["mu"], b_rate, increasing)
    entries = {e.kind.value: e for e in report.entries}
    if set(entries) != set(ref) or not all(
            _close(entries[k].value, ref[k], BOUND_REL_TOL) for k in ref):
        failed.append("bound_report")
    binding = min(ref[k] for k in applicable_kinds(concurrent))
    if not _close(report.binding.value, binding, BOUND_REL_TOL):
        failed.append("bound_report")

    if abs(mpf(threshold) - binding) > THRESHOLD_TOL * binding:
        failed.append("threshold")

    if not _sweep_ok(job, n, rows, b_rate):
        failed.append("sweep_rows")
    return failed


def _sweep_labels(job) -> list[tuple[str, str, float]]:
    """(label, kind, mu) per sweep curve, in the program's label order."""
    if job["concurrent"]:
        labels = [("bandwidth", "bandwidth", 0.5)]
        labels += [(f"storage(mu={mu:g})", "storage", mu) for mu in job["mu_list"]]
    else:
        labels = [("time", "time", 0.5)]
    return sorted(labels)


def _sweep_ok(job, n: int, rows, b_rate) -> bool:
    n_min, n_max = max(1, n - job["window"]), n + job["window"]
    span = n_max - n_min + 1
    labels = _sweep_labels(job)
    if len(rows) != span * len(labels):
        return False
    for i, (label, kind, mu) in enumerate(labels):
        curve = rows[i * span:(i + 1) * span]
        if any(r[1] != job["scenario"] or r[2] != label for r in curve):
            return False
        if [r[0] for r in curve] != list(range(n_min, n_max + 1)):
            return False
        for r in (curve[0], curve[span // 2], curve[-1]):
            ref = ref_bounds(r[0], mu, b_rate, job["increasing"])[kind]
            if not _close(r[3], ref, BOUND_REL_TOL):
                return False
    return True


# ---------------------------------------------------------------------------
# scaleout

def check_scaleout(job, out) -> list[str]:
    events, outcome, summary = out
    failed = []
    times = [ev.time for ev in events]
    if not events or any(b < a for a, b in zip(times, times[1:])):
        failed.append("event_order")
    if not _bytes_conserved(job, events):
        failed.append("bytes_conserved")
    if not _outcome_agrees(job, outcome):
        failed.append("outcome")
    joins = sum(1 for ev in events if ev.kind == "join_completed")
    if (summary["outcome"] != outcome.kind or summary["final_n"] != outcome.final_n
            or len(summary["joins"]) != joins):
        failed.append("summary")
    return failed


def _system_write_bytes(job, n: int) -> float:
    if job["increasing"]:
        return n * job["rate"] * job["value_size"]
    return job["rate"] * job["value_size"]


def _bytes_conserved(job, events) -> bool:
    """Stored plus backlogged bytes equal the prefill plus every byte written
    so far.  The system write rate steps up at each join_started (ev.n is the
    post-join size).  Breakdown snapshots pin the overflowing node at S and
    are skipped."""
    written = job["n0"] * job["initial_fill"] * job["mu"] * job["storage"]
    rate = _system_write_bytes(job, job["n0"])
    t_prev = 0.0
    for ev in events:
        written += rate * (ev.time - t_prev)
        t_prev = ev.time
        if ev.kind == "join_started":
            rate = _system_write_bytes(job, ev.n)
        if ev.kind == "breakdown":
            continue
        total = sum(ev.stored) + ev.backlog
        if abs(total - written) > CONSERVATION_REL_TOL * written + 1e-3:
            return False
    return True


def path_ratios(job, sizes: np.ndarray) -> np.ndarray:
    """Per-node rate over the binding bound at each size."""
    bound = binding_array(sizes, job["mu"], job["bandwidth"] / job["value_size"],
                          job["increasing"], job["concurrent"])
    lam = job["rate"] if job["increasing"] else job["rate"] / sizes
    return lam / bound


def _outcome_agrees(job, outcome) -> bool:
    """Stabilized iff the rate is below the binding bound at every size the
    run passes; checked only where it is more than 10% from the bound at all
    of them.  A clear-mode breakdown reports the post-join size, so the run
    passes sizes n0..at_n."""
    last = job["n_target"] - 1
    if outcome.kind == "breakdown":
        last = min(outcome.at_n, last)
    elif outcome.kind != "stabilized":
        return False
    ratios = path_ratios(job, np.arange(job["n0"], last + 1))
    if np.any(np.abs(ratios - 1.0) <= OUTCOME_MARGIN):
        return True
    expect_stable = bool(np.all(ratios < 1.0))
    return expect_stable == (outcome.kind == "stabilized")


# ---------------------------------------------------------------------------
# ring

def _mix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def ring_slots(state) -> tuple[list[int] | None, list[int]]:
    """(sorted token points or None for equal-part rings, owner per slot)."""
    if state.owners is not None:
        return None, list(state.owners)
    return [t for t, _ in state.tokens], [o for _, o in state.tokens]


def ref_lookup(points, slots, key: int, r: int) -> list[int]:
    """First r distinct owners clockwise from the key's circle position."""
    h = _mix64(key & MASK64)
    if points is None:
        start = min(h // (CIRCLE // len(slots)), len(slots) - 1)
    else:
        start = bisect.bisect_left(points, h) % len(points)
    found: list[int] = []
    for i in range(len(slots)):
        owner = slots[(start + i) % len(slots)]
        if owner not in found:
            found.append(owner)
            if len(found) == r:
                break
    return found


def check_ring(job, before, out) -> list[str]:
    after, report, owners, stats = out
    failed = []
    old, new = set(before.nodes), set(after.nodes)
    node = job["node"]
    if job["op"] == "join":
        membership_ok = new == old | {node}
    else:
        membership_ok = new == old - {node}
    if not membership_ok or not _moves_ok(job, before, after, report):
        failed.append("membership")

    counts = after.token_counts()
    if after.owners is not None:
        q, n = len(after.owners), after.n
        if not set(counts.values()) <= {q // n, -(-q // n)}:
            failed.append("floor_ceil_balance")
    if job["strategy"] == "limited-token-equal-part":
        # Dynamo's strategy 2: every node holds T tokens at all times
        if set(counts.values()) != {job["tokens_per_node"]}:
            failed.append("tokens_per_node")

    points, slots = ring_slots(after)
    for key, got in zip(job["lookup_keys"], owners):
        if len(set(got)) != job["r"] or got != ref_lookup(points, slots, key,
                                                          job["r"]):
            failed.append("lookup")
            break

    loads = stats.per_node_load
    mean = job["r"] * job["balance_keys"] / after.n
    if (set(loads) != new or sum(loads.values()) != job["r"] * job["balance_keys"]
            or stats.max_load != max(loads.values())
            or not math.isclose(stats.epsilon_hat, stats.max_load / mean - 1.0,
                                rel_tol=1e-12, abs_tol=1e-12)):
        failed.append("balance_stats")
    return failed


def _moves_ok(job, before, after, report) -> bool:
    """Slots change owner only towards a joining node or away from a leaving
    one, and the report lists exactly those slots."""
    node = job["node"]
    if before.owners is not None:
        changed = {(p, a, b) for p, (a, b) in
                   enumerate(zip(before.owners, after.owners)) if a != b}
        if job["op"] == "join":
            ok = all(b == node for _, _, b in changed)
            ok = ok and len(changed) == len(before.owners) // after.n
        else:
            ok = all(a == node for _, a, _ in changed)
            ok = ok and len(changed) == sum(1 for o in before.owners if o == node)
        return ok and changed == set(report.moved_partitions)
    if job["op"] == "join":
        kept = set(before.tokens) <= set(after.tokens)
        added = [t for t in after.tokens if t[1] == node]
        return kept and len(added) == job["tokens_per_node"] \
            and len(after.tokens) == len(before.tokens) + len(added)
    return set(after.tokens) == {t for t in before.tokens if t[1] != node}
