"""Consistent-hashing ring: token ownership, join/leave rebalancing, balance statistics.

The key space is the wrapped 64-bit unsigned integer circle [0, 2**64).  Keys are
positioned on the circle with a fixed avalanche hash (the SplitMix64 finalizer);
sampling seeds are mixed into the hash input, never into the function itself.

Three load-distribution strategies are supported:

* ``LimitedTokenRandomPart`` -- each node holds T random token points; a key
  belongs to the first token clockwise from its position.
* ``LimitedTokenEqualPart``  -- T tokens per node over a partition grid of
  Q = T * N equal ranges, fixed at ring creation.  Implemented as the
  many-token strategy with that fixed Q (approximation, see ``build_ring``).
* ``ManyTokenEqualPart``     -- Q equal partitions, each node owns Q/N of them.

A *slot* is the unit a key maps to and that moves between nodes: a partition
for the equal-part strategies, a token for the random-part one.  A
``RingState`` holds numpy arrays: an ``int32`` owner node id per slot and,
for random-part rings, the sorted ``uint64`` token points.  The replica owner
table (the first r distinct nodes clockwise from every slot) is built with
numpy once per ring and replication factor and cached on the state;
``lookup``, ``lookup_many`` and ``balance_stats`` all read it.  Statistics
count sample keys per slot without searching the slots for each key: a
key's partition is arithmetic, and random-part rings sort the keys once and
search the token points in them.

All operations are purely functional: they return a new ``RingState``.
"""

from __future__ import annotations

import json
import operator
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

MASK64 = (1 << 64) - 1
CIRCLE = 1 << 64
NODE_DTYPE = np.int32
_NODE_ID_RANGE = (int(np.iinfo(NODE_DTYPE).min), int(np.iinfo(NODE_DTYPE).max))


class RingError(ValueError):
    pass


class ZeroNodes(RingError):
    pass


class QSmallerThanN(RingError):
    pass


class ReplicationExceedsNodes(RingError):
    pass


class DuplicateNode(RingError):
    pass


class UnknownNode(RingError):
    pass


class LastNode(RingError):
    pass


# ---------------------------------------------------------------------------
# hashing

def mix64(x: int) -> int:
    """SplitMix64 finalizer: fixed, platform-independent 64-bit avalanche hash."""
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def hash_key(key: int, seed: int = 0) -> int:
    """Circle position of a key; the seed perturbs the input word."""
    return mix64((key ^ seed) & MASK64)


_C_ADD = np.uint64(0x9E3779B97F4A7C15)
_C_M1 = np.uint64(0xBF58476D1CE4E5B9)
_C_M2 = np.uint64(0x94D049BB133111EB)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    z = x + _C_ADD
    z ^= z >> np.uint64(30)
    z *= _C_M1
    z ^= z >> np.uint64(27)
    z *= _C_M2
    z ^= z >> np.uint64(31)
    return z


def _hash_keys(k: int, seed: int) -> np.ndarray:
    keys = np.arange(k, dtype=np.uint64)
    keys ^= np.uint64(seed & MASK64)
    return _mix64_array(keys)


# ---------------------------------------------------------------------------
# strategies and state

@dataclass(frozen=True)
class LimitedTokenRandomPart:
    tokens_per_node: int


@dataclass(frozen=True)
class LimitedTokenEqualPart:
    tokens_per_node: int


@dataclass(frozen=True)
class ManyTokenEqualPart:
    q: int


Strategy = Union[LimitedTokenRandomPart, LimitedTokenEqualPart, ManyTokenEqualPart]


@dataclass(frozen=True, eq=False)
class RingState:
    """Token-to-node assignment, held in read-only numpy arrays.

    ``slot_owner[i]`` is the node id (``int32``) owning slot i.  For the
    equal-part strategies slot i is partition i, and Q = len(slot_owner) is
    fixed at creation.  For the random-part strategy ``points`` holds the
    sorted ``uint64`` token points and slot i is the token ``points[i]``.
    ``nodes`` is sorted, and every node owns at least one slot.

    ``owners`` (equal-part: the owner per partition) and ``tokens``
    (random-part: the sorted (token_point, owner) pairs) are tuple-of-int
    views, built on first access and never by the operations of this module.
    Derived arrays and the replica tables are cached on the state.
    """

    strategy: Strategy
    nodes: tuple[int, ...]
    seed: int
    slot_owner: np.ndarray
    points: Optional[np.ndarray] = None
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.slot_owner.flags.writeable = False
        if self.points is not None:
            self.points.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, RingState):
            return NotImplemented
        return (self.strategy == other.strategy and self.nodes == other.nodes
                and self.seed == other.seed
                and (self.points is None) == (other.points is None)
                and np.array_equal(self.slot_owner, other.slot_owner)
                and (self.points is None
                     or np.array_equal(self.points, other.points)))

    def __hash__(self):
        return hash((self.strategy, self.nodes, self.seed))

    def _cached(self, key, build):
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build()
            return value

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def is_equal_part(self) -> bool:
        return self.points is None

    @property
    def q(self) -> Optional[int]:
        return len(self.slot_owner) if self.is_equal_part else None

    @property
    def owners(self) -> Optional[tuple[int, ...]]:
        if not self.is_equal_part:
            return None
        return self._cached("owners", lambda: tuple(self.slot_owner.tolist()))

    @property
    def tokens(self) -> Optional[tuple[tuple[int, int], ...]]:
        if self.is_equal_part:
            return None
        return self._cached("tokens", lambda: tuple(
            zip(self.points.tolist(), self.slot_owner.tolist())))

    def _slot_index(self) -> np.ndarray:
        """Position in ``nodes`` of each slot's owner."""
        return self._cached("slot_index", lambda: np.searchsorted(
            np.asarray(self.nodes, dtype=np.int64), self.slot_owner))

    def _node_slot_counts(self) -> np.ndarray:
        """Slots owned by each node, in ``nodes`` order."""
        return self._cached("node_slot_counts", lambda: np.bincount(
            self._slot_index(), minlength=self.n))

    def token_counts(self) -> dict[int, int]:
        return dict(zip(self.nodes, self._node_slot_counts().tolist()))

    def _slot_counts(self, h: np.ndarray) -> np.ndarray:
        """Number of the circle positions h in each slot."""
        if self.is_equal_part:
            return np.bincount(_partition_of_array(h, self.q), minlength=self.q)
        return _interval_counts(np.sort(h), self.points)

    def replica_table(self, r: int) -> np.ndarray:
        """(slots, r) array: row i holds the positions in ``nodes`` of the
        first r distinct owners met walking clockwise from slot i."""
        return self._cached(("replicas", r),
                            lambda: _clockwise_distinct(self._slot_index(), r))


@dataclass(frozen=True)
class RebalanceReport:
    """Partition movements caused by a single join or leave."""

    joined_or_left: int
    kind: str  # "join" | "leave"
    moved_partitions: tuple[tuple[int, int, int], ...]  # (partition/token, from, to)
    moved_key_estimate: int
    moved_byte_estimate: float


@dataclass(frozen=True)
class BalanceStats:
    n: int
    k_sampled: int
    per_node_load: dict[int, int]
    max_load: int
    mean_load: float
    epsilon_hat: float


# ---------------------------------------------------------------------------
# partition geometry and slot counting

def partition_of(h: int, q: int) -> int:
    """Partition index of circle position h.

    Partitions are equal-width ranges of 2**64 // q positions; the last
    partition absorbs the division remainder.
    """
    if q == 1:
        return 0
    return min(h // (CIRCLE // q), q - 1)


def _partition_of_array(h: np.ndarray, q: int) -> np.ndarray:
    if q == 1:
        return np.zeros(len(h), dtype=np.intp)
    w = np.uint64(CIRCLE // q)
    return np.minimum(h // w, np.uint64(q - 1)).astype(np.intp)


def _interval_counts(h_sorted: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Positions per token: token i takes (points[i-1], points[i]], and
    token 0 also everything above the last point.  Searching the points in
    the sorted positions is several times cheaper than searching each
    position in the points."""
    upto = np.searchsorted(h_sorted, points, side="right")
    counts = np.diff(upto, prepend=0)
    counts[0] += len(h_sorted) - upto[-1]
    return counts


def _clockwise_distinct(seq: np.ndarray, r: int) -> np.ndarray:
    """Row i: the first r distinct values met walking seq circularly from i.

    Consecutive equal values form a run and share one answer, so the walk
    steps over runs.  Level j (the j-th distinct value) is found for every
    run at once: each walk resumes after the run where it found level j-1,
    and only the walks that meet an already-found value take another step.
    seq must hold at least r distinct values.
    """
    starts = seq != np.roll(seq, 1)
    runs = seq[starts]
    if len(runs) == 0:                      # one value in every slot
        return np.full((len(seq), r), seq[0])
    n_runs = len(runs)
    levels = [runs]
    at = np.arange(n_runs)                  # run where the last level was found
    for _ in range(1, r):
        at = at + 1
        value = runs[at % n_runs]
        walking = np.arange(n_runs)
        for _ in range(n_runs):             # a walk ends within one lap
            seen = levels[0][walking] == value[walking]
            for level in levels[1:]:
                seen |= level[walking] == value[walking]
            walking = walking[seen]
            if not len(walking):
                break
            at[walking] += 1
            value[walking] = runs[at[walking] % n_runs]
        levels.append(value)
    # slots before the first run start belong to the last (wrapping) run
    run_of_slot = np.cumsum(starts) - 1
    return np.stack([level[run_of_slot] for level in levels], axis=1)


# ---------------------------------------------------------------------------
# construction

def build_ring(n: int, strategy: Strategy, seed: int) -> RingState:
    """Build a ring over nodes 0..n-1 with a seed-deterministic token layout."""
    if n <= 0:
        raise ZeroNodes("node count must be >= 1")
    _check_node_id(n - 1)
    rng = random.Random(seed)
    nodes = tuple(range(n))

    if isinstance(strategy, LimitedTokenRandomPart):
        t = strategy.tokens_per_node
        if t <= 0:
            raise RingError("tokens_per_node must be >= 1")
        used: set[int] = set()
        points = np.array([_draw_tokens(rng, t, used) for _ in nodes],
                          dtype=np.uint64).ravel()
        order = np.argsort(points)
        owner = np.repeat(np.arange(n, dtype=NODE_DTYPE), t)
        return RingState(strategy, nodes, seed, owner[order], points[order])

    if isinstance(strategy, ManyTokenEqualPart):
        q = strategy.q
    else:
        if strategy.tokens_per_node <= 0:
            raise RingError("tokens_per_node must be >= 1")
        q = strategy.tokens_per_node * n
    if q < n:
        raise QSmallerThanN(f"q={q} < n={n}")

    parts = list(range(q))
    rng.shuffle(parts)
    base, rem = divmod(q, n)
    owner = np.empty(q, dtype=NODE_DTYPE)
    owner[parts] = np.repeat(np.arange(n, dtype=NODE_DTYPE),
                             [base + (1 if i < rem else 0) for i in nodes])
    return RingState(strategy, nodes, seed, owner)


def _draw_tokens(rng: random.Random, t: int, used: set[int]) -> list[int]:
    """t fresh 64-bit token points not in ``used``; adds them to it."""
    out = []
    for _ in range(t):
        tok = rng.getrandbits(64)
        while tok in used:
            tok = rng.getrandbits(64)
        used.add(tok)
        out.append(tok)
    return out


def _check_node_id(node: int) -> None:
    lo, hi = _NODE_ID_RANGE
    if not lo <= node <= hi:
        raise RingError(f"node id {node} outside the int32 range")


def _check_replication(r: int) -> None:
    if r < 1:
        raise RingError(f"replication must be >= 1, got {r}")


def _check_lookup_replication(ring: RingState, r: int) -> None:
    _check_replication(r)
    if r > ring.n:
        raise ReplicationExceedsNodes(f"r={r} > n={ring.n}")


# ---------------------------------------------------------------------------
# lookup

def lookup(ring: RingState, key: int, r: int = 1) -> list[int]:
    """First r distinct nodes met walking the circle clockwise from the key."""
    _check_lookup_replication(ring, r)
    h = hash_key(key)
    if ring.is_equal_part:
        slot = partition_of(h, ring.q)
    else:
        slot = int(np.searchsorted(ring.points, np.uint64(h))) % len(ring.points)
    nodes = ring.nodes
    return [nodes[i] for i in ring.replica_table(r)[slot].tolist()]


def lookup_many(ring: RingState, keys, r: int = 1) -> np.ndarray:
    """Replica owners of many keys: row i equals ``lookup(ring, keys[i], r)``.

    ``keys`` is a sequence or array of integers; returns an int64 array of
    shape (len(keys), r).
    """
    _check_lookup_replication(ring, r)
    if isinstance(keys, np.ndarray) and keys.dtype.kind in "iu":
        words = keys.astype(np.uint64)   # wraps as ``& MASK64`` does
    else:
        words = np.array([operator.index(k) & MASK64 for k in keys],
                         dtype=np.uint64)
    h = _mix64_array(words)
    if ring.is_equal_part:
        slots = _partition_of_array(h, ring.q)
    else:
        slots = np.searchsorted(ring.points, h) % len(ring.points)
    node_ids = np.asarray(ring.nodes, dtype=np.int64)
    return node_ids[ring.replica_table(r)[slots]]


# ---------------------------------------------------------------------------
# membership changes

def join(
    ring: RingState,
    new_node: int,
    seed: int,
    *,
    key_sample: int = 0,
    sample_seed: int = 0,
    replication: int = 1,
    value_size: float = 0.0,
) -> tuple[RingState, RebalanceReport]:
    """Add a node; tokens move only towards the joining node.

    For the equal-part strategies the joining node steals exactly
    floor(Q/(N+1)) partitions, one at a time from the currently most-loaded
    node (ties broken by the seeded PRNG), which preserves the floor/ceil
    balance invariant.  For the random-part strategy the joining node draws
    its own fresh tokens.

    ``key_sample`` > 0 estimates moved keys by hashing that many sample keys
    and counting ownership changes; the estimate is scaled by ``replication``
    and ``value_size`` for the byte figure.
    """
    if new_node in ring.nodes:
        raise DuplicateNode(f"node {new_node} already in ring")
    _check_node_id(new_node)
    _check_replication(replication)
    rng = random.Random(seed)
    nodes = tuple(sorted(ring.nodes + (new_node,)))

    if ring.is_equal_part:
        q = ring.q
        if q < len(nodes):
            raise QSmallerThanN(f"q={q} < n={len(nodes)}")
        parts = _parts_by_node(ring)
        moved = []
        top_nodes: list[int] = []
        for _ in range(q // len(nodes)):
            # the most-loaded nodes, ascending; each gives one partition
            # before the next-lower level is drawn from
            if not top_nodes:
                top = max(len(own) for own in parts.values())
                top_nodes = [nd for nd in ring.nodes if len(parts[nd]) == top]
            victim = rng.choice(top_nodes)
            top_nodes.remove(victim)
            own = parts[victim]
            part = rng.choice(own)
            del own[bisect_left(own, part)]
            moved.append((part, victim, new_node))
        owner = ring.slot_owner.copy()
        owner[[part for part, _, _ in moved]] = new_node
        new_ring = RingState(ring.strategy, nodes, ring.seed, owner)
    else:
        fresh = np.array(sorted(_draw_tokens(rng, ring.strategy.tokens_per_node,
                                             set(ring.points.tolist()))),
                         dtype=np.uint64)
        at = np.searchsorted(ring.points, fresh)
        prev = ring.slot_owner[at % len(ring.points)]
        moved = [(tok, frm, new_node)
                 for tok, frm in zip(fresh.tolist(), prev.tolist())]
        new_ring = RingState(ring.strategy, nodes, ring.seed,
                             np.insert(ring.slot_owner, at, new_node),
                             np.insert(ring.points, at, fresh))

    keys, bytes_ = _movement_estimate(ring, new_ring, key_sample, sample_seed,
                                      replication, value_size)
    report = RebalanceReport(new_node, "join", tuple(moved), keys, bytes_)
    return new_ring, report


def _parts_by_node(ring: RingState) -> dict[int, list[int]]:
    """Each node's partitions, ascending."""
    q = ring.q
    # one sort of (owner, partition) keys; cheaper than a stable argsort
    order = (np.sort(ring._slot_index() * q + np.arange(q)) % q).tolist()
    ends = np.cumsum(ring._node_slot_counts()).tolist()
    return {nd: order[a:b] for nd, a, b in zip(ring.nodes, [0] + ends[:-1], ends)}


def leave(
    ring: RingState,
    node: int,
    seed: int,
    *,
    key_sample: int = 0,
    sample_seed: int = 0,
    replication: int = 1,
    value_size: float = 0.0,
) -> tuple[RingState, RebalanceReport]:
    """Remove a node; its tokens go to the least-loaded survivors (seeded ties)."""
    if node not in ring.nodes:
        raise UnknownNode(f"node {node} not in ring")
    if ring.n == 1:
        raise LastNode("cannot remove the only node")
    _check_replication(replication)
    rng = random.Random(seed)
    nodes = tuple(nd for nd in ring.nodes if nd != node)
    leaving = ring.slot_owner == node

    if ring.is_equal_part:
        counts = dict(zip(ring.nodes, ring._node_slot_counts().tolist()))
        del counts[node]
        parts = np.flatnonzero(leaving)
        heirs = []
        low_nodes: list[int] = []
        for _ in range(len(parts)):
            # the least-loaded survivors, ascending; each takes one partition
            # before the next-higher level is drawn from
            if not low_nodes:
                low = min(counts.values())
                low_nodes = [nd for nd in nodes if counts[nd] == low]
            heir = rng.choice(low_nodes)
            low_nodes.remove(heir)
            counts[heir] += 1
            heirs.append(heir)
        owner = ring.slot_owner.copy()
        owner[parts] = heirs
        new_ring = RingState(ring.strategy, nodes, ring.seed, owner)
        moved = [(part, node, heir) for part, heir in zip(parts.tolist(), heirs)]
    else:
        points = ring.points[~leaving]
        owner = ring.slot_owner[~leaving]
        gone = ring.points[leaving]
        heirs = owner[np.searchsorted(points, gone) % len(points)]
        moved = [(tok, node, heir)
                 for tok, heir in zip(gone.tolist(), heirs.tolist())]
        new_ring = RingState(ring.strategy, nodes, ring.seed, owner, points)

    keys, bytes_ = _movement_estimate(ring, new_ring, key_sample, sample_seed,
                                      replication, value_size)
    report = RebalanceReport(node, "leave", tuple(moved), keys, bytes_)
    return new_ring, report


def _movement_estimate(before: RingState, after: RingState, k: int,
                       sample_seed: int, r: int, v: float) -> tuple[int, float]:
    """Sample keys whose primary owner differs between the rings, times r.

    Slots are compared, not keys: a key's owner is fixed by the interval it
    falls in, so the count is the number of keys in the intervals whose
    owner changed.  Random-part intervals are cut at the points of both
    rings; a point held by both gives an empty interval.
    """
    if k <= 0:
        return 0, 0.0
    h = _hash_keys(k, sample_seed)
    if before.is_equal_part:
        changed = before.slot_owner != after.slot_owner
        per_slot = before._slot_counts(h)
    else:
        points = np.sort(np.concatenate((before.points, after.points)))

        def owner_at(ring):
            return ring.slot_owner[np.searchsorted(ring.points, points)
                                   % len(ring.points)]

        changed = owner_at(before) != owner_at(after)
        per_slot = _interval_counts(np.sort(h), points)
    moved_keys = int(per_slot[changed].sum()) * r
    return moved_keys, moved_keys * v


# ---------------------------------------------------------------------------
# balance statistics

def balance_stats(ring: RingState, k: int, r: int = 1, seed: int = 0) -> BalanceStats:
    """Hash keys 0..k-1 (seed-mixed) and count per-node replica loads.

    With replication r each key is charged to its r replica owners, so the
    mean load is r*k/n.  epsilon_hat = max_load / mean_load - 1.
    """
    if k < 1:
        raise RingError("key sample count must be >= 1")
    _check_lookup_replication(ring, r)

    per_slot = ring._slot_counts(_hash_keys(k, seed))
    table = ring.replica_table(r)
    counts = np.zeros(ring.n, dtype=np.int64)
    for level in range(r):
        counts += np.bincount(table[:, level], weights=per_slot,
                              minlength=ring.n).astype(np.int64)

    mean = r * k / ring.n
    max_load = int(counts.max())
    return BalanceStats(
        n=ring.n,
        k_sampled=k,
        per_node_load=dict(zip(ring.nodes, counts.tolist())),
        max_load=max_load,
        mean_load=mean,
        epsilon_hat=max_load / mean - 1.0,
    )


# ---------------------------------------------------------------------------
# serialization

_STRATEGY_NAMES = {
    LimitedTokenRandomPart: "limited-token-random-part",
    LimitedTokenEqualPart: "limited-token-equal-part",
    ManyTokenEqualPart: "many-token-equal-part",
}


def _size_field(cls) -> str:
    return "q" if cls is ManyTokenEqualPart else "tokens_per_node"


def strategy_to_dict(strategy: Strategy) -> dict:
    field = _size_field(type(strategy))
    return {"kind": _STRATEGY_NAMES[type(strategy)], field: getattr(strategy, field)}


def strategy_from_dict(d: dict) -> Strategy:
    """Inverse of ``strategy_to_dict``; a size field that is missing or None
    is a ``RingError``."""
    kind = d["kind"]
    cls = next((c for c, name in _STRATEGY_NAMES.items() if name == kind), None)
    if cls is None:
        raise RingError(f"unknown strategy kind: {kind}")
    field = _size_field(cls)
    if d.get(field) is None:
        raise RingError(f"{kind} needs {field}")
    return cls(d[field])


def ring_to_dict(ring: RingState) -> dict:
    d = {
        "strategy": strategy_to_dict(ring.strategy),
        "nodes": list(ring.nodes),
        "seed": ring.seed,
    }
    owners = ring.slot_owner.tolist()
    if ring.is_equal_part:
        d["q"] = ring.q
        d["partition_owners"] = owners
    else:
        d["tokens"] = [[tok, owner] for tok, owner in zip(ring.points.tolist(), owners)]
    return d


def ring_from_dict(d: dict) -> RingState:
    """Inverse of ``ring_to_dict``; rejects a layout that breaks the
    ``RingState`` invariants."""
    strategy = strategy_from_dict(d["strategy"])
    nodes = tuple(d["nodes"])
    if "partition_owners" in d:
        owners, points = d["partition_owners"], None
        if len(owners) != d["q"]:
            raise RingError(f"{len(owners)} partition owners for q={d['q']}")
    else:
        owners = [owner for _, owner in d["tokens"]]
        points = np.array([tok for tok, _ in d["tokens"]], dtype=np.uint64)
        if np.any(points[1:] <= points[:-1]):
            raise RingError("token points must be strictly increasing")
    if list(nodes) != sorted(set(nodes)) or set(owners) != set(nodes):
        raise RingError("nodes must be sorted, distinct and each own a slot")
    for node in nodes:
        _check_node_id(node)
    return RingState(strategy, nodes, d["seed"],
                     np.array(owners, dtype=NODE_DTYPE), points)


def ring_to_json(ring: RingState) -> str:
    return json.dumps(ring_to_dict(ring))


def ring_from_json(s: str) -> RingState:
    return ring_from_dict(json.loads(s))
