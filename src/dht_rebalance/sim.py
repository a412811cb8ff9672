"""Event-driven fluid simulator of node-by-node DHT scale-out.

Writes and migration are continuous byte flows with piecewise-constant rates;
the next event time is always computed in closed form, so there is no time
step and no discretization error.  One expansion cycle:

* fill    -- every node ingests its write share until a node reaches mu*S,
             which triggers a one-node join (under symmetry all nodes trigger
             together, treated as a single event);
* join    -- concurrent mode: the joining node immediately takes its post-join
             write share and receives migration at b_join = b - share; clear
             mode: all writes divert to a backlog and migration uses the full
             bandwidth b;
* catchup -- clear mode only: after the join the backlog drains into storage
             with the bandwidth left over from resumed writes.

Three breakdown conditions are detected: a node exceeding its storage S
(storage_overflow), an old node hitting the expansion trigger again before
the join finishes (expansion_overlap), and a backlog still nonzero when the
next expansion fires (catchup_starvation).

Each size n has one per-node write share w: the per-node rate, or the
system-wide rate over n for a stable workload.  In clear mode the next-trigger
clock counts live write arrivals only: after a join the system triggers again
once new writes fill the mu*S headroom, while the drained backlog adds to
stored bytes without advancing that clock.  With M = mu*S*n/(n+1) migrated
per old node and alpha = w/b, the trigger interval after a clear join is
(mu*S - M)/(alpha*b) and catch-up takes alpha*M/((1-alpha)*b); the rate at
which they are equal is ``bounds._FORMS``' time entry.  A node's level rises
at b during catch-up and at w after it.  A level that reaches S at or
before the next trigger is a storage overflow.  A backlog still present at
the trigger is starvation, and that includes a backlog that drains exactly
then: at exactly the time bound the run starves, as the strict bounds say.

Under symmetry every old node holds the same bytes, so an event stores that
one ``level`` plus the joining node's ``joining_level`` while a join is in
progress.  ``run`` returns the events as an ``EventTable`` of plain rows,
which ``write_trace`` and ``summary_dict`` read directly.  ``write_trace``
formats the numbers of 256 rows at a time in one call to json's C encoder,
each distinct time and level object once, so its lines are ``json.dumps``'
text and its memory holds one block's texts whatever the row count: a peak
of about 0.3 MB, below what a long run's summary takes.
``summary_json`` gives a summary the text of ``json.dumps(..., indent=2)``,
but every value is formatted by the C encoder, so the CLI does not run
json's pure-Python indenting encoder.
``feasibility_threshold`` bisects to a fixed relative width of 1e-4, in
units of B = b/v: each probe runs the kernel, with no config or outcome
object, on one unit link b = v = 1 with the node's S and mu, whose largest
byte total (n + 1) * S one check covers.  A memo of monotone facts, the
largest rate a probe showed stabilizes and the smallest one a probe showed
does not, decides a midpoint without a probe when it can; two seed probes
1e-9 either side of the binding bound fill it first.  Where the bound holds
they decide almost every midpoint, and as each memo entry is a fact about
a monotone outcome, the result is the blind bisection's bit for bit; where
it does not (ROADMAP item 1) the seeds are two more probes.

The kernel's arithmetic is + - * / and comparisons only: no square root,
and no float literal enters a computed quantity.  So it runs on any numeric
type with those operations, and on ``fractions.Fraction`` inputs every
event time and level is exact.  The ``0.0`` backlog and ``joining_level``
of events that have none are the only float constants it stores.

A run ends by its physics alone, with no cut in time.  ``math.inf``
stands for an event that never comes, so the kernel stops in place of an
expansion trigger at time inf (a zero write share never reaches it, or its
time overflows) and of a join that would complete at time inf.  A clear
join looks for a storage crossing up to its next trigger.  One rule,
``_decide``, turns the rows into the outcome: a breakdown event gives
breakdown, a run that ends at ``n_target`` is stabilized, and a run whose
next expansion never comes is max_time_exceeded.  A concurrent write share
at or above b ends in expansion_overlap at the first trigger.  ``run``
builds its ``SimOutcome`` from that rule, and a threshold probe returns its
kind, or the breakdown kind.  At mu = 1 every positive rate ends a clear
run in storage_overflow before its next trigger, so the clear modes'
threshold there is 0.  A validation row is one bisection: its binding bound,
its threshold, and how its own probe at the smallest rate it showed
unstable ended.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import chain, starmap
from operator import itemgetter
from typing import Optional

from .bounds import (
    ClusterParams,
    Scenario,
    StabilizationMode,
    WorkloadKind,
    applicable_kinds,
    bound_table,
)

STORAGE_OVERFLOW = "storage_overflow"
EXPANSION_OVERLAP = "expansion_overlap"
CATCHUP_STARVATION = "catchup_starvation"

STABILIZED = "stabilized"
BREAKDOWN = "breakdown"
MAX_TIME_EXCEEDED = "max_time_exceeded"

# validate's breakdown column when no rate below b/v was shown unstable
NO_BREAKDOWN = "none_below_b/v"

_THRESHOLD_WIDTH = 1e-4  # relative width of the final bracket
_THRESHOLD_PROBES = 60
_SEED_OFFSET = 1e-9  # relative distance of the two seed probes from binding


@dataclass(frozen=True)
class SimConfig:
    """One scale-out run from params.n nodes to n_target nodes.

    ``rate`` is writes/s per node for an increasing workload and system-wide
    writes/s for a stable one.  ``initial_fill`` is the starting fraction of
    the mu*S trigger level on each node.
    """

    params: ClusterParams
    scenario: Scenario
    rate: float
    n_target: int
    initial_fill: float = 0.0

    def __post_init__(self):
        p = self.params
        if self.n_target <= p.n:
            raise ValueError("n_target must exceed the initial node count")
        if not 0 <= self.rate < math.inf:
            raise ValueError("rate must be finite and >= 0")
        # the largest system-wide write inflow (bytes/s) the run can reach
        inflow = self.rate * p.value_size
        if self.scenario.workload is WorkloadKind.INCREASING_PER_NODE:
            inflow = self.n_target * inflow
        if not inflow < math.inf:
            raise ValueError("write inflow rate * value_size (times n_target "
                             "for an increasing workload) must be finite")
        if not 0.0 <= self.initial_fill <= 1.0:
            raise ValueError("initial_fill must be in [0, 1]")
        # byte totals: n * S, a clear join's backlog (at most inflow * S / b)
        # and its drain n * b
        if not self.n_target * p.storage < math.inf:
            raise ValueError("storage * n_target overflows a float")
        if self.scenario.mode is StabilizationMode.CLEAR:
            if not inflow / p.bandwidth * p.storage < math.inf:
                raise ValueError("storage * inflow / bandwidth overflows")
            if not self.n_target * p.bandwidth < math.inf:
                raise ValueError("bandwidth * n_target overflows a float")


@dataclass(frozen=True, slots=True)
class SimEvent:
    """One simulator event with its per-node state under symmetry.

    The old nodes all hold ``level`` bytes.  ``joining_level`` is the joining
    node's bytes while a join is in progress, and ``None`` when every node
    holds ``level``.
    """

    time: float
    kind: str  # expansion_triggered | join_started | join_completed |
               # catchup_completed | breakdown
    n: int     # system size after the event
    level: float
    joining_level: Optional[float] = None
    backlog: float = 0.0
    duration: Optional[float] = None
    breakdown_kind: Optional[str] = None

    @property
    def stored(self) -> tuple[float, ...]:
        """Bytes per node, the joining node last; ``len(stored) == n``."""
        if self.joining_level is None:
            return (self.level,) * self.n
        return (self.level,) * (self.n - 1) + (self.joining_level,)


@dataclass(frozen=True, slots=True)
class SimOutcome:
    """How a run ended; ``final_n`` is the size after the last join_completed.

    ``total_time`` is inf for max_time_exceeded, whose next expansion never
    comes, and the last event's time otherwise; a breakdown sets
    ``at_n == final_n`` and ``at_time == total_time``.
    """

    kind: str  # stabilized | breakdown | max_time_exceeded
    final_n: int
    total_time: float
    breakdown_kind: Optional[str] = None
    at_n: Optional[int] = None
    at_time: Optional[float] = None


class EventTable(Sequence[SimEvent]):
    """A run's events as a list of plain rows, one tuple of the ``SimEvent``
    fields per event.

    A read-only ``Sequence[SimEvent]``: a ``SimEvent`` is built only when it
    is read, and ``repr`` is that of the list of them.  The table keeps the
    list it is given; tables compare row by row.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: list[tuple]):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return EventTable(self.rows[i])
        return SimEvent(*self.rows[i])

    def __iter__(self) -> Iterator[SimEvent]:
        return starmap(SimEvent, self.rows)

    def __eq__(self, other):
        if not isinstance(other, EventTable):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        return repr(list(self))


def _kernel(params: ClusterParams, scenario: Scenario, rate, n_target: int,
            initial_fill, rows: list[tuple]) -> None:
    """Append the run's events to ``rows`` in time order, one ``SimEvent``
    field tuple each.  The arguments are ``SimConfig``'s fields, checked by
    the caller.

    Returns at ``n_target``, after a breakdown, or in place of an expansion
    trigger or a join completion at time inf, which never comes.
    """
    add = rows.append

    b, s_cap = params.bandwidth, params.storage
    mu_s = params.mu * s_cap
    clear = scenario.mode is StabilizationMode.CLEAR
    # the per-node write share (bytes/s) at size n is inflow, or inflow / n
    # for a stable workload
    inflow = rate * params.value_size
    stable = scenario.workload is WorkloadKind.STABLE_TOTAL

    n = params.n
    w = inflow / n if stable else inflow
    t = 0 * mu_s
    stored = initial_fill * mu_s  # per node; old nodes stay symmetric

    while n < n_target:
        # ---- fill to the expansion trigger at size n ----
        if stored < mu_s:
            t += (mu_s - stored) / w if w > 0 else math.inf
            stored = mu_s
        if t == math.inf:
            return
        add((t, "expansion_triggered", n, stored, None, 0.0, None, None))

        # ---- join: n -> n + 1 ----
        add((t, "join_started", n + 1, stored, 0.0, 0.0, None, None))
        migration_total = stored * n / (n + 1)
        w = inflow / (n + 1) if stable else inflow

        if not clear:
            b_join = b - w
            old_rate = w - b_join / n  # net per old node during the join
            if old_rate >= 0:
                # the trigger level is never left behind: the next expansion
                # fires before this join completes (w >= b gives old_rate > 0)
                add((t, "breakdown", n + 1, stored, 0.0, 0.0, None,
                     EXPANSION_OVERLAP))
                return
            t_join = migration_total / b_join
            if t + t_join == math.inf:
                return  # the join never completes; 0 * inf would give NaN
            # all n+1 nodes end symmetric at this level: the joining node
            # holds the migrated share plus its writes, the old nodes drained
            # to the same level
            level = migration_total + w * t_join
            # joining node fills at the full b (writes + migration); in exact
            # arithmetic the overlap above always comes first, in floating
            # point this fires at mu = 1 a few ulps below the bandwidth bound
            if level > s_cap:
                t_full = t + s_cap / b
                add((t_full, "breakdown", n + 1,
                     stored + old_rate * (t_full - t), s_cap, 0.0, None,
                     STORAGE_OVERFLOW))
                return
            t += t_join
            stored = level
            n += 1
            add((t, "join_completed", n, stored, None, 0.0, t_join, None))
            continue

        # ---- clear join ----
        t_join = migration_total / b
        t0 = t + t_join
        if t0 == math.inf:
            return  # the join never completes; inf - inf would give NaN
        n += 1
        d_acc = n * w * t_join
        s_base = migration_total  # per-node stored right after the join
        add((t0, "join_completed", n, s_base, None, d_acc, t_join, None))

        drain_total = n * (b - w)
        catchup_end = (t0 + d_acc / drain_total if drain_total > 0
                       else math.inf if d_acc > 0 else t0)
        # next-trigger clock: live writes refilling the mu*S headroom
        t_trig = t0 + max(mu_s - s_base, 0 * mu_s) / w if w > 0 else math.inf
        s_at_catchup = s_base + d_acc / n + w * (catchup_end - t0)

        # storage crossing: the level rises at b during catch-up, then at w
        cross = t0 + (s_cap - s_base) / b
        if catchup_end > t0 and cross <= catchup_end:
            t_full = cross
        elif catchup_end >= t_trig:
            t_full = math.inf
        elif s_at_catchup >= s_cap:
            t_full = catchup_end
        else:
            t_full = (catchup_end + (s_cap - s_at_catchup) / w if w > 0
                      else math.inf)
        if t_full <= t_trig and t_full < math.inf:  # t_trig may be inf
            add((t_full, "breakdown", n, s_cap, None, 0.0, None,
                 STORAGE_OVERFLOW))
            return

        if t_trig <= catchup_end and d_acc > 0:
            remaining = (d_acc - drain_total * (t_trig - t0) if drain_total > 0
                         else d_acc)
            add((t_trig, "breakdown", n,
                 s_base + (d_acc - remaining) / n + w * (t_trig - t0),
                 None, remaining, None, CATCHUP_STARVATION))
            return
        if d_acc > 0:
            add((catchup_end, "catchup_completed", n, s_at_catchup, None, 0.0,
                 catchup_end - t0, None))

        # resume filling; drained bytes count towards stored, the trigger
        # clock keeps running on live writes from t0
        if t_trig == math.inf:
            return
        t = t_trig
        stored = s_base + d_acc / n + w * (t_trig - t0)


def _decide(rows: list[tuple], n0: int, n_target: int) -> tuple[str, int]:
    """The outcome rule: (outcome kind, final_n) of the kernel's rows, where
    ``n0`` is the initial size.  A run that ends neither in a breakdown nor
    at ``n_target`` stopped because its next expansion never comes: it is
    max_time_exceeded."""
    i = len(rows) - 1  # the last join_completed, a few rows from the end
    while i >= 0 and rows[i][1] != "join_completed":
        i -= 1
    final_n = rows[i][2] if i >= 0 else n0
    if rows and rows[-1][1] == "breakdown":
        return BREAKDOWN, final_n
    if final_n >= n_target:
        return STABILIZED, final_n
    return MAX_TIME_EXCEEDED, final_n


def run(cfg: SimConfig) -> tuple[EventTable, SimOutcome]:
    """Replay the scale-out and decide its outcome (see ``SimOutcome``)."""
    rows: list[tuple] = []
    _kernel(cfg.params, cfg.scenario, cfg.rate, cfg.n_target,
            cfg.initial_fill, rows)
    kind, final_n = _decide(rows, cfg.params.n, cfg.n_target)
    if kind == BREAKDOWN:
        time, *_, breakdown_kind = rows[-1]
        outcome = SimOutcome(kind, final_n, time, breakdown_kind,
                             at_n=final_n, at_time=time)
    elif kind == STABILIZED:
        outcome = SimOutcome(kind, final_n, rows[-1][0])
    else:
        outcome = SimOutcome(kind, final_n, math.inf)
    return EventTable(rows), outcome


# ---------------------------------------------------------------------------
# threshold search

def _probe(params: ClusterParams, scenario: Scenario, lam) -> str:
    """How one n -> n+1 expansion from a full trigger level ends at per-node
    rate lam, on inputs the bisection checked.  ``STABILIZED``, its breakdown
    kind, or ``MAX_TIME_EXCEEDED``."""
    rows: list[tuple] = []
    stable = scenario.workload is WorkloadKind.STABLE_TOTAL
    _kernel(params, scenario, lam * params.n if stable else lam,
            params.n + 1, 1, rows)
    kind = _decide(rows, params.n, params.n + 1)[0]
    return rows[-1][-1] if kind == BREAKDOWN else kind


def _threshold_bracket(params: ClusterParams, scenario: Scenario):
    """(threshold, binding bound, how the probe at the smallest rate shown
    unstable ended, or ``NO_BREAKDOWN`` if no rate below b/v was) of the
    bisection ``feasibility_threshold`` describes."""
    n, mu, storage = params.n, params.mu, params.storage
    if not (n + 1) * storage < math.inf:
        raise ValueError(f"storage {storage:g} B is too large at n = {n}: "
                         f"storage * (n + 1) overflows a float")
    kinds = applicable_kinds(scenario)
    top = params.max_write_rate
    binding = float(min(bound_table(n, mu, top, scenario.workload,
                                    kinds).values()))
    if not binding > 0:
        raise ValueError(
            f"the binding bound underflows to 0 at n = {n}: "
            f"bandwidth / value_size = {top:g} is too small")
    # on the unit link b = v = 1 a per-node rate is alpha = lambda / B
    unit = ClusterParams(n, 1, 1, mu, storage)
    seed = float(min(bound_table(n, mu, 1, scenario.workload,
                                 kinds).values()))
    # the memo: every rate up to stable_to stabilizes, none from
    # unstable_from up does (its probe ended as above); no probe has run yet
    stable_to, unstable_from, above = 0.0, math.inf, NO_BREAKDOWN
    for alpha in (seed * (1.0 - _SEED_OFFSET), seed * (1.0 + _SEED_OFFSET)):
        if alpha < 1:
            ending = _probe(unit, scenario, alpha)
            if ending == STABILIZED:
                stable_to = max(stable_to, alpha)
            elif alpha < unstable_from:
                unstable_from, above = alpha, ending
    lo, hi = 0.0, 1.0
    for _ in range(_THRESHOLD_PROBES):
        mid = 0.5 * (lo + hi)
        if mid <= stable_to:
            lo = mid
        elif mid >= unstable_from:
            hi = mid
        elif (ending := _probe(unit, scenario, mid)) == STABILIZED:
            lo = stable_to = mid
        else:
            hi = unstable_from = mid
            above = ending
        if lo > 0 and (hi - lo) <= _THRESHOLD_WIDTH * lo:
            break
    return lo * top, binding, above


def feasibility_threshold(params: ClusterParams, scenario: Scenario) -> float:
    """Bisect the largest feasible per-node write rate over (0, b/v), to a
    bracket 1e-4 wide relative to its feasible end or for 60 probes.

    The probes run on the unit link b = v = 1 with the node's S and mu, at
    alpha = lambda/B in (0, 1), and the feasible end is scaled by B.  A
    storage whose (n + 1) * S overflows is named, and so is a binding bound
    that underflows to 0 (a subnormal b/v).

    A memo of monotone facts, seeded by two probes 1e-9 either side of the
    binding bound, decides a midpoint without a probe where it can (see the
    module docstring): the midpoints, the stop rule and the result are the
    blind bisection's wherever stabilizing is monotone in the rate, which
    the bisection assumes anyway."""
    return _threshold_bracket(params, scenario)[0]


@dataclass(frozen=True)
class ValidationRow:
    """One size's bound against its simulated threshold.

    ``breakdown_above`` names how the bisection's own probe at the smallest
    rate it showed unstable ended: its breakdown kind, or max_time_exceeded.
    It is ``NO_BREAKDOWN`` when no rate below b/v was shown unstable.
    """

    n: int
    scenario: Scenario
    analytic_bound: float
    simulated_threshold: float
    relative_error: float
    passed: bool
    breakdown_above: str


def validate_against_bounds(n_values, scenario: Scenario,
                            base_params: ClusterParams,
                            tol: float = 0.02) -> tuple[ValidationRow, ...]:
    """Compare bisected thresholds to the analytic binding bound per size,
    and name the breakdown just above each threshold; one row per size.

    Rejects an empty n_values, an n that ClusterParams rejects and a tol
    below 1e-6 (or NaN) before any bisection, and at its bisection an n
    whose (n + 1) * S overflows or whose binding bound underflows to 0 (a
    subnormal b/v), against which no relative error exists."""
    if not tol >= 1e-6:
        raise ValueError("tol must be >= 1e-6")
    sizes = [replace(base_params, n=n) for n in n_values]
    if not sizes:
        raise ValueError("n-range is empty")
    rows = []
    for params in sizes:
        simulated, analytic, above = _threshold_bracket(params, scenario)
        rel = abs(simulated - analytic) / analytic
        rows.append(ValidationRow(params.n, scenario, analytic, simulated,
                                  rel, rel <= tol, above))
    return tuple(rows)


# ---------------------------------------------------------------------------
# export

def event_to_dict(ev: SimEvent) -> dict:
    d = {
        "time": ev.time,
        "kind": ev.kind,
        "n": ev.n,
        "stored": list(ev.stored),
        "backlog": ev.backlog,
    }
    if ev.duration is not None:
        d["duration"] = ev.duration
    if ev.breakdown_kind is not None:
        d["breakdown_kind"] = ev.breakdown_kind
    return d


# json's C encoder writes a list of numbers as their json.dumps texts joined
# by ", ": a float's repr, an int as an int, Infinity, -Infinity and NaN, and
# with default=float anything else (a Fraction) as the float nearest it
_encode_numbers = json.JSONEncoder(default=float, check_circular=False).encode
# rows formatted per encoder call: 256 rows keep the writer's peak near
# 0.3 MB whatever the row count, below what a long run's summary takes,
# where 1024 rows held about 1.1 MB; smaller blocks save little more
_TRACE_BLOCK = 256


def write_trace(events: EventTable, path: str) -> None:
    """JSON-lines trace, one event per line, streamed from the rows.

    A line is byte-identical to ``json.dumps(event_to_dict(ev))`` wherever
    that call succeeds; an exact run's ``Fraction``, which ``json.dumps``
    rejects, is written as the float nearest it.  The rows are formatted
    256 at a time: one encoder call writes every number of the block, and
    each line repeats its old nodes' text, so a line costs a few number
    texts, not n, and memory holds one block's texts whatever the row
    count, about 0.3 MB.  The file is written 64 KiB at a time.  Kinds
    are plain identifiers and need no JSON escaping.
    """
    rows = events.rows
    with open(path, "w", buffering=1 << 16) as fh:  # 64 KiB per write
        write = fh.write
        for start in range(0, len(rows), _TRACE_BLOCK):
            block = rows[start:start + _TRACE_BLOCK]
            m = len(block)
            times, kinds, ns, levels, joinings, backlogs, durations, \
                breakdowns = zip(*block)
            # The kernel puts one time and one level object in two rows
            # (expansion_triggered and join_started), so those columns are
            # formatted once per object (the block holds each object, so
            # its id is unique here); the rest are mostly None or the 0.0
            # constant, which cost little to format each time.
            shared = times + levels
            ids = list(map(id, shared))
            distinct = dict(zip(ids, shared))
            k = len(distinct)
            texts = _encode_numbers([*distinct.values(), *joinings, *backlogs,
                                     *durations])[1:-1].split(", ")
            shared_texts = list(map(dict(zip(distinct, texts)).__getitem__,
                                    ids))
            for time, kind, n, tok, last, backlog, duration, breakdown in zip(
                    shared_texts, kinds, ns, shared_texts[m:], texts[k:],
                    texts[k + m:], texts[k + 2 * m:], breakdowns):
                # "null" is the text of None, and of no number
                tail = "" if duration == "null" else f', "duration": {duration}'
                if breakdown is not None:
                    tail += f', "breakdown_kind": "{breakdown}"'
                write(f'{{"time": {time}, "kind": "{kind}", "n": {n}, '
                      f'"stored": [{(tok + ", ") * (n - 1)}'
                      f'{tok if last == "null" else last}], '
                      f'"backlog": {backlog}{tail}}}\n')


def summary_dict(events: EventTable, outcome: SimOutcome) -> dict:
    """The outcome and the completed joins, with an exact run's values kept
    exact: ``json.dumps(..., default=float)`` serialises them."""
    joins = [
        {"n_new": n, "completed_at": time, "duration": duration}
        for time, kind, n, _, _, _, duration, _ in events.rows
        if kind == "join_completed"
    ]
    d = {
        "outcome": outcome.kind,
        "final_n": outcome.final_n,
        "total_time": outcome.total_time,
        "joins": joins,
    }
    if outcome.kind == BREAKDOWN:
        d["breakdown_kind"] = outcome.breakdown_kind
        d["at_n"] = outcome.at_n
        d["at_time"] = outcome.at_time
    return d


_JOIN_TEXT = ('    {\n      "n_new": %s,\n      "completed_at": %s,\n'
              '      "duration": %s\n    }')
_join_values = itemgetter("n_new", "completed_at", "duration")


def summary_json(summary: dict) -> str:
    """``json.dumps(summary, indent=2)`` of a ``summary_dict``, byte for
    byte; the indent would run json's pure-Python encoder, so every value is
    formatted by the C encoder, the joins' numbers in one call, and each join
    is written from a fixed template."""
    joins = summary["joins"]
    if joins:
        texts = _encode_numbers(list(chain.from_iterable(
            map(_join_values, joins))))[1:-1].split(", ")
        joins_text = ("[\n" + (",\n".join([_JOIN_TEXT] * len(joins))
                                % tuple(texts)) + "\n  ]")
    else:
        joins_text = "[]"
    return "{\n" + ",\n".join(
        f'  "{key}": {joins_text if key == "joins" else _encode_numbers(value)}'
        for key, value in summary.items()) + "\n}"
