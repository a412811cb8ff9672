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
lambda < bound.  The replication factor cancels out of every bound; it is
kept in ClusterParams for capacity and simulator accounting.

The six closed forms are written once, in ``bound_table`` (N an int or an
ndarray).  A bound is read in one of two ways: ``bound_table(n, mu, B,
workload)[kind]`` for one form at one N, or ``bound_report`` for a
scenario's applicable kinds and the binding one.  ``min_feasible_n`` reads
the table too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np


class InsufficientBandwidth(RuntimeError):
    """The write share alone saturates the joining node's bandwidth."""


class AlphaOutOfRange(ValueError):
    pass


class WorkloadKind(Enum):
    INCREASING_PER_NODE = "increasing"
    STABLE_TOTAL = "stable"


class StabilizationMode(Enum):
    CONCURRENT = "concurrent"
    CLEAR = "clear"


@dataclass(frozen=True)
class Scenario:
    workload: WorkloadKind
    mode: StabilizationMode

    @property
    def name(self) -> str:
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
    replication: int = 1
    storage: float = 1e12

    def __post_init__(self):
        if not 1 <= self.n <= sys.float_info.max:
            raise ValueError(f"n must be >= 1 and at most {sys.float_info.max:.3g}")
        link = (self.bandwidth, self.value_size, self.storage)
        if not all(0 < x < math.inf for x in link):
            raise ValueError("bandwidth, value_size and storage must be finite and > 0")
        if not 0 < self.mu <= 1:
            raise ValueError(f"mu={self.mu} outside (0, 1]")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")

    @property
    def max_write_rate(self) -> float:
        """B = bandwidth / value_size, writes/s saturating one node."""
        return self.bandwidth / self.value_size


class BoundKind(Enum):
    STORAGE = "storage"
    BANDWIDTH = "bandwidth"
    TIME = "time"


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

def bound_table(n, mu, b_rate, workload: WorkloadKind) -> dict:
    """{BoundKind value: writes/s per node} for one workload at size n (an
    int or an integer ndarray), b_rate = B.  The only place the six closed
    forms are written; a scalar n gives the bits of an ndarray element."""
    root = np.sqrt(4.0 * n + 1.0) - 1.0
    if workload is WorkloadKind.INCREASING_PER_NODE:
        return {"storage": (1.0 - n / (n + 1.0) * mu) * b_rate,
                "bandwidth": b_rate / (n + 1.0),
                "time": root / (2.0 * n) * b_rate}
    # stable storage (1 + 1/N - mu) * B, grouped so integer-valued cases stay exact
    return {"storage": (n + 1.0 - n * mu) / n * b_rate,
            "bandwidth": b_rate / n,
            "time": (n + 1.0) * root / (2.0 * n * n) * b_rate}


def applicable_kinds(scenario: Scenario) -> tuple[BoundKind, ...]:
    """Concurrent scenarios apply the storage and bandwidth bounds; clear
    scenarios apply the time bound only."""
    if scenario.mode is StabilizationMode.CONCURRENT:
        return (BoundKind.STORAGE, BoundKind.BANDWIDTH)
    return (BoundKind.TIME,)


def bound_report(params: ClusterParams, scenario: Scenario) -> BoundReport:
    """All three bound kinds for a scenario; binding = min over applicable.

    Non-applicable entries still carry the closed-form value from the other
    mode, for reference.
    """
    table = bound_table(params.n, params.mu, params.max_write_rate, scenario.workload)
    applicable = applicable_kinds(scenario)
    entries = tuple(BoundEntry(kind, float(table[kind.value]), kind in applicable)
                    for kind in BoundKind)
    binding = min((e for e in entries if e.applicable), key=lambda e: e.value)
    return BoundReport(scenario, entries, binding)


# ---------------------------------------------------------------------------
# derived quantities

def keys_capacity(params: ClusterParams) -> float:
    """Keys held at the expansion trigger: K = mu*S*N / (r*v)."""
    return (params.mu * params.storage * params.n
            / (params.replication * params.value_size))


def join_bandwidth(params: ClusterParams, scenario: Scenario, lam: float) -> float:
    """Bandwidth left for migration at the joining node.

    Concurrent: b minus the joining node's write share (v*lambda for an
    increasing workload, N/(N+1)*v*lambda for a stable one).  Clear: the
    full b, writes being backlogged.
    """
    if scenario.mode is StabilizationMode.CLEAR:
        return params.bandwidth
    share = params.value_size * lam
    if scenario.workload is WorkloadKind.STABLE_TOTAL:
        share *= params.n / (params.n + 1.0)
    return params.bandwidth - share


def stabilization_time(params: ClusterParams, scenario: Scenario, lam: float) -> float:
    """Duration of a single join: mu*S*N / ((N+1) * b_join)."""
    b_join = join_bandwidth(params, scenario, lam)
    if b_join <= 0:
        raise InsufficientBandwidth(
            "write share meets or exceeds node bandwidth; the join cannot finish")
    n = params.n
    return params.mu * params.storage * n / ((n + 1.0) * b_join)


def accumulated_backlog(params: ClusterParams, alpha: float,
                        workload: WorkloadKind) -> float:
    """Bytes backlogged over a clear join when writes use alpha*b per node."""
    _check_alpha(alpha)
    n = params.n
    if workload is WorkloadKind.INCREASING_PER_NODE:
        return params.mu * params.storage * n * alpha
    return n * n / (n + 1.0) * params.mu * params.storage * alpha


def catchup_time(params: ClusterParams, alpha: float,
                 workload: WorkloadKind) -> float:
    """Time to drain the clear-join backlog after the join completes."""
    _check_alpha(alpha)
    if alpha == 0.0:
        return 0.0
    n = params.n
    mu_s = params.mu * params.storage
    if workload is WorkloadKind.INCREASING_PER_NODE:
        return mu_s * n * alpha / ((n + 1.0) * (1.0 - alpha) * params.bandwidth)
    return (n * n * mu_s * alpha
            / ((n + 1.0) * (n + 1.0 - n * alpha) * params.bandwidth))


def inter_expansion_time(params: ClusterParams, alpha: float,
                         workload: WorkloadKind) -> float:
    """Time between consecutive expansion triggers."""
    _check_alpha(alpha, strict=True)
    n = params.n
    mu_s = params.mu * params.storage
    if workload is WorkloadKind.INCREASING_PER_NODE:
        return mu_s / ((n + 1.0) * alpha * params.bandwidth)
    return mu_s / (n * alpha * params.bandwidth)


def time_to_first_expansion(params: ClusterParams, alpha: float) -> float:
    """Fill time from empty to the first trigger: mu*S / (alpha*b)."""
    _check_alpha(alpha, strict=True)
    return params.mu * params.storage / (alpha * params.bandwidth)


def _check_alpha(alpha: float, strict: bool = False) -> None:
    if strict:
        ok = 0.0 < alpha < 1.0
    else:
        ok = 0.0 <= alpha < 1.0
    if not ok:
        raise AlphaOutOfRange(f"alpha={alpha} outside (0, 1)")


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
    storage: float = 1e12,
    kinds: Optional[set[BoundKind]] = None,
    n_max: int = 10 ** 6,
) -> Optional[int]:
    """Smallest cluster size at which the workload satisfies every applicable
    bound, or None if no N <= n_max qualifies.

    ``rate`` is the system-wide writes/s for a stable workload and the
    per-node writes/s for an increasing one.  ``kinds`` optionally restricts
    which of the applicable bounds are enforced (capacity-planning what-ifs).
    ``storage`` is checked with the link and mu; no bound reads it yet.

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
    # ClusterParams validates the link, storage and mu before anything divides
    b_rate = ClusterParams(1, bandwidth, value_size, mu,
                           storage=storage).max_write_rate
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
        table = bound_table(n, mu, b_rate, scenario.workload)
        lam = rate / n if stable else rate
        return not all(lam < table[k.value] * slack for k in enforced)

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
    start, block = lo + _SCALAR_SCAN + 1, 64
    while start <= top:
        n = np.arange(start, min(start + block, top + 1))
        table = bound_table(n, mu, b_rate, scenario.workload)
        lam = rate / n if stable else rate
        hits = np.flatnonzero(np.all([lam < table[k.value] for k in enforced], axis=0))
        if hits.size:
            return int(n[hits[0]])
        start += block
        block = min(2 * block, _SCAN_BLOCK)
    return None
