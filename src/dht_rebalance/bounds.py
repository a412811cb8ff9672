"""Closed-form feasibility bounds for one-node-at-a-time DHT scale-out.

Six bounds constrain the per-node write rate lambda (writes/s) that a
symmetric N-node cluster can sustain while rebalancing onto a joining node.
Writing B = bandwidth / value_size for the write rate that saturates one
node's bandwidth:

=====================  ============================  =========================
scenario               storage / bandwidth bound     time bound (clear mode)
=====================  ============================  =========================
increasing per-node    (1 - N*mu/(N+1)) * B          (sqrt(4N+1)-1)/(2N) * B
writes                 B / (N+1)
stable total writes    (1 + 1/N - mu) * B            (N+1)(sqrt(4N+1)-1)
                       B / N                           / (2N^2) * B
=====================  ============================  =========================

Concurrent stabilization (writes served during the join) is governed by the
storage and bandwidth bounds; clear stabilization (writes backlogged during
the join) by the time bound alone.  All bounds are strict: feasibility means
lambda < bound.  Neither the storage S nor the replication factor enters
any bound: ClusterParams carries S for the simulator, and the ring model has
its own replication.

Each bound is the root in lambda of one condition of the expansion cycle
that ``sim._kernel`` runs.  With w the per-node write share after the join,
alpha = w/b and M = mu*S*N/(N+1) the bytes each old node migrates:

* bandwidth (overlap): an old node stops draining, w - (b - w)/N >= 0;
* storage: the joining node ends the join at M*b/(b - w) = S;
* time (starvation): catch-up, alpha*M/((1 - alpha)*b), lasts the trigger
  interval (mu*S - M)/(alpha*b).

``tests/test_sim.py`` runs the kernel exactly at each root where every form
is rational, N = k(k+1).

The six closed forms are written once, as one entry per workload and kind
(N an int or an ndarray).  A scalar N gives a ``float`` with the bits of an
ndarray element: the time forms take ``math.sqrt`` of a float and numpy's
sqrt of an ndarray, so numpy is imported only by ``min_feasible_n``'s block
scan.  A bound is read in one of two ways:
``bound_table(n, mu, B, workload, kinds)[kind]``, which evaluates only the
kinds asked for (all three by default), or ``bound_report`` for a
scenario's applicable kinds and the binding one.  ``min_feasible_n`` reads
the table for its enforced kinds only.

The table is keyed by each kind's value string.  ``_KEYS`` reads those
strings once at import, since ``Enum.value`` is a Python-level property, and
a table's values come in the order of the kinds asked for, so its readers
take them in order.  The three enums hash by identity: a member is a
singleton and ``==`` on members is already identity, so a dict or set
lookup means what it did, without enum's Python-level ``__hash__``.
``Scenario.name`` is formatted once per instance and cached.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Optional


class WorkloadKind(Enum):
    INCREASING_PER_NODE = "increasing"
    STABLE_TOTAL = "stable"

    __hash__ = object.__hash__  # identity: see the module docstring


class StabilizationMode(Enum):
    CONCURRENT = "concurrent"
    CLEAR = "clear"

    __hash__ = object.__hash__


@dataclass(frozen=True)
class Scenario:
    workload: WorkloadKind
    mode: StabilizationMode

    @cached_property
    def name(self) -> str:
        """'<workload>-<mode>', formatted once per instance."""
        return f"{self.workload.value}-{self.mode.value}"

    @classmethod
    def parse(cls, name: str) -> "Scenario":
        try:
            wl, mode = name.split("-", 1)
            return cls(WorkloadKind(wl), StabilizationMode(mode))
        except ValueError:
            raise ValueError(f"unknown scenario: {name!r}") from None


ALL_SCENARIOS = tuple(
    Scenario(wl, mode) for wl in WorkloadKind for mode in StabilizationMode
)


@dataclass(frozen=True)
class ClusterParams:
    """Static description of a symmetric cluster.

    bandwidth and storage are bytes/s and bytes per node; value_size is bytes
    per write; mu is the fill ratio triggering expansion.
    """

    n: int
    bandwidth: float
    value_size: float
    mu: float
    storage: float = 1e12

    def __post_init__(self):
        if not 1 <= self.n <= sys.float_info.max:
            raise ValueError(f"n must be >= 1 and at most {sys.float_info.max:.3g}")
        if not (0 < self.bandwidth < math.inf and 0 < self.value_size < math.inf
                and 0 < self.storage < math.inf):
            raise ValueError("bandwidth, value_size and storage must be finite and > 0")
        if not 0 < self.bandwidth / self.value_size < math.inf:
            raise ValueError("bandwidth / value_size must be finite and > 0")
        check_mu(self.mu)

    @property
    def max_write_rate(self) -> float:
        """B = bandwidth / value_size, writes/s saturating one node."""
        return self.bandwidth / self.value_size


def check_mu(mu) -> None:
    """Raise ``ValueError`` unless the trigger fill ratio mu is in (0, 1]."""
    if not 0 < mu <= 1:
        raise ValueError(f"mu={mu} outside (0, 1]")


class BoundKind(Enum):
    STORAGE = "storage"
    BANDWIDTH = "bandwidth"
    TIME = "time"

    __hash__ = object.__hash__


_KINDS = tuple(BoundKind)
# each kind's table key, read once here: Enum.value is a Python-level property
_KEYS = {kind: kind.value for kind in _KINDS}


@dataclass(frozen=True)
class BoundEntry:
    kind: BoundKind
    value: float
    applicable: bool


@dataclass(frozen=True)
class BoundReport:
    scenario: Scenario
    entries: tuple[BoundEntry, ...]
    binding: BoundEntry


# ---------------------------------------------------------------------------
# the six bounds

def _sqrt(x):
    """math.sqrt of a float; on an ndarray, ``** 0.5``, which numpy
    evaluates as its sqrt, bit for bit, so this module needs no numpy."""
    return math.sqrt(x) if isinstance(x, float) else x ** 0.5


# One entry per (workload, kind): f(n, mu, B) in writes/s per node.
_FORMS = {
    WorkloadKind.INCREASING_PER_NODE: {
        BoundKind.STORAGE: lambda n, mu, b_rate: (1.0 - n / (n + 1.0) * mu) * b_rate,
        BoundKind.BANDWIDTH: lambda n, mu, b_rate: b_rate / (n + 1.0),
        BoundKind.TIME: lambda n, mu, b_rate:
            (_sqrt(4.0 * n + 1.0) - 1.0) / (2.0 * n) * b_rate,
    },
    WorkloadKind.STABLE_TOTAL: {
        # (1 + 1/N - mu) * B, grouped so integer-valued cases stay exact
        BoundKind.STORAGE: lambda n, mu, b_rate: (n + 1.0 - n * mu) / n * b_rate,
        BoundKind.BANDWIDTH: lambda n, mu, b_rate: b_rate / n,
        BoundKind.TIME: lambda n, mu, b_rate:
            (n + 1.0) * (_sqrt(4.0 * n + 1.0) - 1.0) / (2.0 * n * n) * b_rate,
    },
}


def bound_table(n, mu, b_rate, workload: WorkloadKind,
                kinds=_KINDS) -> dict:
    """{BoundKind value: writes/s per node} for one workload at size n (an
    int or an integer ndarray), b_rate = B, holding the given kinds only.
    The only place the six closed forms are written; a scalar n gives a
    ``float`` with the bits of an ndarray element, and a form reads mu only
    for storage."""
    forms = _FORMS[workload]
    return {_KEYS[kind]: forms[kind](n, mu, b_rate) for kind in kinds}


def applicable_kinds(scenario: Scenario) -> tuple[BoundKind, ...]:
    """Concurrent scenarios apply the storage and bandwidth bounds; clear
    scenarios apply the time bound only."""
    if scenario.mode is StabilizationMode.CONCURRENT:
        return (BoundKind.STORAGE, BoundKind.BANDWIDTH)
    return (BoundKind.TIME,)


_entry_value = attrgetter("value")


def bound_report(params: ClusterParams, scenario: Scenario) -> BoundReport:
    """All three bound kinds for a scenario; binding = min over applicable.

    Non-applicable entries still carry the closed-form value from the other
    mode, for reference.
    """
    table = bound_table(params.n, params.mu, params.max_write_rate, scenario.workload)
    applicable = applicable_kinds(scenario)
    # the table holds every kind, in _KINDS order
    entries = tuple([BoundEntry(kind, float(value), kind in applicable)
                     for kind, value in zip(_KINDS, table.values())])
    binding = min([e for e in entries if e.applicable], key=_entry_value)
    return BoundReport(scenario, entries, binding)


# ---------------------------------------------------------------------------
# capacity planning

_SCAN_BLOCK = 4_096  # largest min_feasible_n scan block: keeps memory flat
_SCALAR_SCAN = 4     # sizes min_feasible_n tests one at a time before a block

# A stable workload that misses a bound at N by more than this relative
# margin misses it at every smaller N (see min_feasible_n).  At every N up
# to _PROOF_N_MAX the margin exceeds twice the closed forms' rounding error,
# which is about N * 2**-53 (from n * mu in the storage form).
_PROOF_MARGIN = 1e-6
_PROOF_N_MAX = 10 ** 9


def _stable_missed_size(x: float, mu: float, enforced) -> float:
    """The N (a float; inf for every N) up to which a stable workload of
    rate x * B misses an enforced bound in exact arithmetic; 0 if it misses
    none that rises with N.

    Solves rate = g(N) * B for the bounds that rise with N: storage
    g = 1 + N(1 - mu), time g = (s^2 + 3) / (2(s + 1)) with s = sqrt(4N + 1),
    so s = x + sqrt((x + 3)(x - 1)) and N = (s - 1)(s + 1) / 4."""
    size = 0.0
    if BoundKind.STORAGE in enforced:
        if mu < 1:
            size = max(size, (x - 1.0) / (1.0 - mu))
        elif x >= 1:
            size = math.inf
    if BoundKind.TIME in enforced and x > 1:
        r = math.sqrt((x + 3.0) * (x - 1.0))
        size = max(size, (x - 1.0 + r) * (x + 1.0 + r) / 4.0)
    return size


def min_feasible_n(
    scenario: Scenario,
    rate: float,
    *,
    bandwidth: float,
    value_size: float,
    mu: float,
    kinds: Optional[set[BoundKind]] = None,
    n_max: int = 10 ** 6,
) -> Optional[int]:
    """Smallest cluster size at which the workload satisfies every applicable
    bound, or None if no N <= n_max qualifies.

    ``rate`` is the system-wide writes/s for a stable workload and the
    per-node writes/s for an increasing one.  ``kinds`` optionally restricts
    which of the applicable bounds are enforced (capacity-planning what-ifs).

    The answer is the first N of an exact scan, which tests every size with
    the ``bound_table`` bits: the first few one at a time with a scalar n,
    then in blocks of 64 growing to 4096.  For a stable workload the scan
    starts past a size lo proven infeasible.  In exact arithmetic a stable
    workload is feasible iff rate < g(N) * B, with g nondecreasing in N for
    every bound: 1 + N(1 - mu) for storage, 1 for bandwidth (which fails
    outright when rate >= B) and (s^2 + 3) / (2(s + 1)) with s = sqrt(4N + 1)
    for time.  Inverting g at x = rate / B / (1 + 2 * margin) gives lo:
    N = (x - 1) / (1 - mu) for storage (every N when mu = 1 and x >= 1), and
    N = (s^2 - 1) / 4 with s = x + sqrt(x^2 + 2x - 3) for time, the largest
    over the enforced kinds.  One check that lo misses a bound by more than
    the margin, which exceeds its rounding error, then proves every smaller
    size infeasible.  If that check fails, or the floats are not normal, the
    scan starts at 2.
    """
    if not 0 < rate < math.inf:
        raise ValueError("rate must be positive and finite")
    # ClusterParams validates the link and mu before anything divides
    b_rate = ClusterParams(1, bandwidth, value_size, mu).max_write_rate
    stable = scenario.workload is WorkloadKind.STABLE_TOTAL
    enforced = [k for k in applicable_kinds(scenario)
                if kinds is None or k in kinds]
    # A stable workload under the bandwidth bound requires rate < B outright.
    if stable and BoundKind.BANDWIDTH in enforced and rate >= b_rate:
        return None
    # Increasing-workload bounds only fall with N: no N above 1 can work.
    top = n_max if stable else min(n_max, 1)
    if top < 1:
        return None

    def misses(n: int, slack: float) -> bool:
        """Does size n miss an enforced bound times slack?  A scalar n
        gives the bits of the scan's array element."""
        table = bound_table(n, mu, b_rate, scenario.workload, enforced)
        lam = rate / n  # an increasing query reads n = 1 only: lam is rate
        return not all(lam < bound * slack for bound in table.values())

    # all() of no enforced kind is True, and then N = 1 qualifies
    if not misses(1, 1.0):
        return 1
    # The proof needs normal floats: every bound and lambda is at least
    # min(rate, B) / N.
    lo = 1  # every size up to lo is infeasible
    if stable and min(rate, b_rate) / _PROOF_N_MAX >= sys.float_info.min:
        x = rate / b_rate / (1.0 + 2.0 * _PROOF_MARGIN)
        n = int(min(_stable_missed_size(x, mu, enforced), top, _PROOF_N_MAX))
        if n > 1 and misses(n, 1.0 + _PROOF_MARGIN):
            lo = n
    for n in range(lo + 1, lo + _SCALAR_SCAN + 1):
        if n > top:
            return None
        if not misses(n, 1.0):
            return n
    import numpy as np  # only a scan past the scalar sizes reads arrays

    start, block = lo + _SCALAR_SCAN + 1, 64
    while start <= top:
        n = np.arange(start, min(start + block, top + 1))
        table = bound_table(n, mu, b_rate, scenario.workload, enforced)
        lam = rate / n
        hits = np.flatnonzero(np.all([lam < bound for bound in table.values()],
                                     axis=0))
        if hits.size:
            return int(n[hits[0]])
        start += block
        block = min(2 * block, _SCAN_BLOCK)
    return None
