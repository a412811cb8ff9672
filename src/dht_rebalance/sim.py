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

In clear mode the next-trigger clock counts live write arrivals only: after a
join the system triggers again once new writes fill the mu*S headroom, while
the drained backlog adds to stored bytes without advancing that clock.  This
matches the closed-form inter-expansion times and makes the bisected
feasibility thresholds reproduce the time-oriented bounds.

Under symmetry every old node holds the same bytes, so an event stores that
one ``level`` plus the joining node's ``joining_level`` while a join is in
progress.

``run`` returns the events as an ``EventTable``: a list of plain rows, one
tuple of the ``SimEvent`` fields per event, which a scalar kernel appends as
the physics reaches each event.  The table is a read-only sequence of
``SimEvent`` rows, each built only when it is read; a row derives the
per-node ``stored`` tuple from its two levels.  ``write_trace`` and
``summary_dict`` read the plain rows directly, and the trace formats each
level once and repeats the token.

The physics has no time-limit guards.  The kernel stops at the first event
later than ``max_sim_time``, drops it and computes nothing after it; ``run``
alone decides the outcome.  A run cut by the limit is max_time_exceeded; a
breakdown event gives breakdown; a run that ends at ``n_target`` is
stabilized, and any other end is max_time_exceeded.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import starmap
from typing import Optional

from .bounds import (
    ClusterParams,
    InsufficientBandwidth,
    Scenario,
    StabilizationMode,
    WorkloadKind,
    bound_report,
)

STORAGE_OVERFLOW = "storage_overflow"
EXPANSION_OVERLAP = "expansion_overlap"
CATCHUP_STARVATION = "catchup_starvation"

STABILIZED = "stabilized"
BREAKDOWN = "breakdown"
MAX_TIME_EXCEEDED = "max_time_exceeded"


class EmptyRange(ValueError):
    pass


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
    max_sim_time: float = 1e18

    def __post_init__(self):
        if self.n_target <= self.params.n:
            raise ValueError("n_target must exceed the initial node count")
        if not self.max_sim_time > 0:
            raise ValueError("max_sim_time must be positive")
        if not 0 <= self.rate < math.inf:
            raise ValueError("rate must be finite and >= 0")
        # the largest system-wide write inflow (bytes/s) the run can reach
        inflow = self.rate * self.params.value_size
        if self.scenario.workload is WorkloadKind.INCREASING_PER_NODE:
            inflow = self.n_target * inflow
        if not inflow < math.inf:
            raise ValueError("write inflow rate * value_size (times n_target "
                             "for an increasing workload) must be finite")
        if not 0.0 <= self.initial_fill <= 1.0:
            raise ValueError("initial_fill must be in [0, 1]")


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

    ``total_time`` is ``max_sim_time`` for max_time_exceeded and the last
    kept event's time otherwise; a breakdown sets ``at_n == final_n`` and
    ``at_time == total_time``.
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
    is read, and ``repr`` is that of the list of them.  The constructor takes
    one list per field; tables compare and concatenate row by row.
    """

    __slots__ = ("rows",)

    def __init__(self, *columns: list):
        self.rows: list[tuple] = list(zip(*columns))

    @classmethod
    def _of(cls, rows: list[tuple]) -> "EventTable":
        table = cls.__new__(cls)
        table.rows = rows
        return table

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return EventTable._of(self.rows[i])
        return SimEvent(*self.rows[i])

    def __iter__(self) -> Iterator[SimEvent]:
        return starmap(SimEvent, self.rows)

    def __reversed__(self) -> Iterator[SimEvent]:
        return starmap(SimEvent, reversed(self.rows))

    def __eq__(self, other):
        if not isinstance(other, EventTable):
            return NotImplemented
        return self.rows == other.rows

    def __add__(self, other):
        if not isinstance(other, EventTable):
            return NotImplemented
        return EventTable._of(self.rows + other.rows)

    def __repr__(self) -> str:
        return repr(list(self))


class _PastLimit(Exception):
    """An event later than ``max_sim_time``: the run stops before it."""


def _kernel(cfg: SimConfig, rows: list[tuple]) -> None:
    """Append the run's events to ``rows`` in time order, one ``SimEvent``
    field tuple each.

    Returns at ``n_target``, after a breakdown, or when no further expansion
    can fire; raises ``_PastLimit`` in place of appending the first event
    later than ``max_sim_time``, which otherwise bounds only the clear-mode
    overflow search.
    """
    limit = cfg.max_sim_time
    add = rows.append

    p = cfg.params
    b, s_cap = p.bandwidth, p.storage
    mu_s = p.mu * s_cap
    clear = cfg.scenario.mode is StabilizationMode.CLEAR
    # live per-node write inflow (bytes/s) is inflow, or inflow / n for a
    # stable workload at size n
    inflow = cfg.rate * p.value_size
    stable = cfg.scenario.workload is WorkloadKind.STABLE_TOTAL

    n = p.n
    t = 0.0
    stored = cfg.initial_fill * mu_s  # per node; old nodes stay symmetric

    while n < cfg.n_target:
        # ---- fill to the expansion trigger at size n ----
        w = inflow / n if stable else inflow
        if stored < mu_s:
            if w <= 0:
                return
            t += (mu_s - stored) / w
            stored = mu_s
        if t > limit:
            raise _PastLimit
        add((t, "expansion_triggered", n, stored, None, 0.0, None, None))

        # ---- join: n -> n + 1 ----
        add((t, "join_started", n + 1, stored, 0.0, 0.0, None, None))
        migration_total = stored * n / (n + 1.0)

        if not clear:
            w_post = inflow / (n + 1) if stable else inflow
            if w_post >= b:
                raise InsufficientBandwidth(
                    "per-node write share meets or exceeds bandwidth")
            b_join = b - w_post
            t_join = migration_total / b_join
            old_rate = w_post - b_join / n  # net per old node during the join
            if old_rate >= 0:
                # the trigger level is never left behind: the next expansion
                # fires before this join completes
                add((t, "breakdown", n + 1, stored, 0.0, 0.0, None,
                     EXPANSION_OVERLAP))
                return
            # joining node fills at the full b (writes + migration); in exact
            # arithmetic the overlap above always comes first, in floating
            # point this fires at mu = 1 a few ulps below the bandwidth bound
            if (migration_total + w_post * t_join) > s_cap:
                t_full = t + s_cap / b
                if t_full > limit:
                    raise _PastLimit
                add((t_full, "breakdown", n + 1,
                     stored + old_rate * (t_full - t), s_cap, 0.0, None,
                     STORAGE_OVERFLOW))
                return
            t += t_join
            # all n+1 nodes end symmetric: the joining node holds the migrated
            # share plus its writes, the old nodes drained to the same level
            stored = migration_total + w_post * t_join
            n += 1
            if t > limit:
                raise _PastLimit
            add((t, "join_completed", n, stored, None, 0.0, t_join, None))
            continue

        # ---- clear join ----
        t_join = migration_total / b
        live_total = (n + 1) * (inflow / (n + 1) if stable else inflow)
        d_acc = live_total * t_join
        t0 = t + t_join
        s_base = migration_total  # per-node stored right after the join
        n += 1
        if t0 > limit:
            raise _PastLimit
        add((t0, "join_completed", n, s_base, None, d_acc, t_join, None))
        if t0 == math.inf:
            return  # no later event has a time; inf - inf would give NaN

        w_next = inflow / n if stable else inflow
        drain_total = n * (b - w_next)
        catchup_end = (t0 + d_acc / drain_total if drain_total > 0
                       else math.inf if d_acc > 0 else t0)
        # next-trigger clock: live writes refilling the mu*S headroom
        t_trig = t0 + max(mu_s - s_base, 0.0) / w_next if w_next > 0 else math.inf
        s_at_catchup = s_base + d_acc / n + w_next * (catchup_end - t0)

        # storage overflow while the backlog drains (per-node inflow is the
        # full b during catch-up, then w_next)
        horizon = min(t_trig, limit)
        t_full = math.inf
        if catchup_end > t0:
            cross = t0 + (s_cap - s_base) / b
            if cross <= min(catchup_end, horizon):
                t_full = cross
        if t_full == math.inf and catchup_end < horizon:
            if w_next > 0 and s_at_catchup < s_cap:
                cross = catchup_end + (s_cap - s_at_catchup) / w_next
                if cross <= horizon:
                    t_full = cross
            elif s_at_catchup >= s_cap:
                t_full = catchup_end
        if t_full < math.inf:
            if t_full > limit:
                raise _PastLimit
            add((t_full, "breakdown", n, s_cap, None, 0.0, None,
                 STORAGE_OVERFLOW))
            return

        if t_trig <= catchup_end and d_acc > 0:
            remaining = (d_acc - drain_total * (t_trig - t0) if drain_total > 0
                         else d_acc)
            if t_trig > limit:
                raise _PastLimit
            add((t_trig, "breakdown", n,
                 s_base + (d_acc - remaining) / n + w_next * (t_trig - t0),
                 None, remaining, None, CATCHUP_STARVATION))
            return
        if d_acc > 0:
            if catchup_end > limit:
                raise _PastLimit
            add((catchup_end, "catchup_completed", n, s_at_catchup, None, 0.0,
                 catchup_end - t0, None))

        # resume filling; drained bytes count towards stored, the trigger
        # clock keeps running on live writes from t0
        if t_trig == math.inf:
            return
        t = t_trig
        stored = s_base + d_acc / n + w_next * (t_trig - t0)


def run(cfg: SimConfig) -> tuple[EventTable, SimOutcome]:
    """Replay the scale-out and decide its outcome (see ``SimOutcome``)."""
    rows: list[tuple] = []
    table = EventTable._of(rows)
    try:
        _kernel(cfg, rows)
        cut = False
    except _PastLimit:
        cut = True
    i = len(rows) - 1  # the last join_completed, a few rows from the end
    while i >= 0 and rows[i][1] != "join_completed":
        i -= 1
    final_n = rows[i][2] if i >= 0 else cfg.params.n
    if cut:
        return table, SimOutcome(MAX_TIME_EXCEEDED, final_n, cfg.max_sim_time)
    if rows and rows[-1][1] == "breakdown":
        time, *_, breakdown_kind = rows[-1]
        return table, SimOutcome(BREAKDOWN, final_n, time, breakdown_kind,
                                 at_n=final_n, at_time=time)
    if final_n >= cfg.n_target:
        return table, SimOutcome(STABILIZED, final_n, rows[-1][0])
    return table, SimOutcome(MAX_TIME_EXCEEDED, final_n, cfg.max_sim_time)


# ---------------------------------------------------------------------------
# threshold search

def single_expansion_feasible(params: ClusterParams, scenario: Scenario,
                              lam: float) -> bool:
    """Does one n -> n+1 expansion stabilize at per-node rate lam?

    Nodes start prefilled to mu*S; in clear mode the run continues through
    catch-up and the follow-on fill so starvation can be observed.
    """
    rate = lam
    if scenario.workload is WorkloadKind.STABLE_TOTAL:
        rate = lam * params.n
    cfg = SimConfig(params, scenario, rate, n_target=params.n + 1,
                    initial_fill=1.0)
    try:
        _, outcome = run(cfg)
    except InsufficientBandwidth:
        return False
    return outcome.kind == STABILIZED


def feasibility_threshold(params: ClusterParams, scenario: Scenario,
                          tol: float = 1e-4, max_iter: int = 60) -> float:
    """Bisect the largest feasible per-node write rate over (0, b/v)."""
    if not tol >= 1e-6:
        raise ValueError("tol must be >= 1e-6")
    lo = 0.0
    hi = params.max_write_rate
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if single_expansion_feasible(params, scenario, mid):
            lo = mid
        else:
            hi = mid
        if lo > 0 and (hi - lo) <= tol * lo:
            break
    return lo


@dataclass(frozen=True)
class ValidationRow:
    n: int
    scenario: Scenario
    analytic_bound: float
    simulated_threshold: float
    relative_error: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[ValidationRow, ...]
    tol: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def validate_against_bounds(n_values, scenario: Scenario,
                            base_params: ClusterParams,
                            tol: float = 0.02) -> ValidationReport:
    """Compare bisected thresholds to the analytic binding bound per size."""
    n_values = list(n_values)
    if not n_values:
        raise EmptyRange("n-range is empty")
    rows = []
    for n in n_values:
        params = replace(base_params, n=n)
        analytic = bound_report(params, scenario).binding.value
        simulated = feasibility_threshold(params, scenario, tol=1e-4)
        rel = abs(simulated - analytic) / analytic
        rows.append(ValidationRow(n, scenario, analytic, simulated, rel,
                                  rel <= tol))
    return ValidationReport(tuple(rows), tol)


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


_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def write_trace(events: EventTable, path: str) -> None:
    """JSON-lines trace, one event per line, streamed from the rows.

    Each line is byte-identical to ``json.dumps(event_to_dict(ev))`` for its
    row.  Each level is formatted once and the old nodes' token repeated, so
    a line costs a few number formats, not n.  Kinds are plain identifiers
    and need no JSON escaping.
    """
    # The kernel puts one float object in several cells (a time shared by
    # two events, the trigger level mu*S, the 0.0 constants), so recent
    # objects keep their text.  The table holds every object, so an id
    # stays unique for the whole call.
    texts: dict[int, str] = {}

    def num(x) -> str:
        text = texts.get(id(x))
        if text is None:
            if len(texts) >= 256:
                texts.clear()
            try:
                text = float.__repr__(x)
            except TypeError:  # an int, from integer-valued inputs
                text = json.dumps(x)
            text = texts[id(x)] = _JSON_NON_FINITE.get(text, text)
        return text

    with open(path, "w") as fh:
        for time, kind, n, level, joining, backlog, duration, breakdown \
                in events.rows:
            tok = num(level)
            last = tok if joining is None else num(joining)
            tail = "" if duration is None else f', "duration": {num(duration)}'
            if breakdown is not None:
                tail += f', "breakdown_kind": "{breakdown}"'
            fh.write(f'{{"time": {num(time)}, "kind": "{kind}", "n": {n}, '
                     f'"stored": [{(tok + ", ") * (n - 1)}{last}], '
                     f'"backlog": {num(backlog)}{tail}}}\n')


def summary_dict(events: EventTable, outcome: SimOutcome) -> dict:
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
