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

All operations are purely functional: they return a new ``RingState``.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

MASK64 = (1 << 64) - 1
CIRCLE = 1 << 64


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
    z = (z ^ (z >> np.uint64(30))) * _C_M1
    z = (z ^ (z >> np.uint64(27))) * _C_M2
    return z ^ (z >> np.uint64(31))


def _hash_keys(k: int, seed: int) -> np.ndarray:
    keys = np.arange(k, dtype=np.uint64)
    return _mix64_array(keys ^ np.uint64(seed & MASK64))


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


@dataclass(frozen=True)
class RingState:
    """Token-to-node assignment.

    For the equal-part strategies ``owners[i]`` is the node owning partition i
    (Q fixed at creation).  For the random-part strategy ``tokens`` is the
    sorted tuple of (token_point, owner) pairs.
    """

    strategy: Strategy
    nodes: tuple[int, ...]
    seed: int
    q: Optional[int] = None
    owners: Optional[tuple[int, ...]] = None
    tokens: Optional[tuple[tuple[int, int], ...]] = None

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def is_equal_part(self) -> bool:
        return self.owners is not None

    def token_counts(self) -> dict[int, int]:
        counts = {node: 0 for node in self.nodes}
        if self.is_equal_part:
            for owner in self.owners:
                counts[owner] += 1
        else:
            for _, owner in self.tokens:
                counts[owner] += 1
        return counts


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
# partition geometry

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
        return np.zeros(len(h), dtype=np.uint64)
    w = np.uint64(CIRCLE // q)
    return np.minimum(h // w, np.uint64(q - 1))


# ---------------------------------------------------------------------------
# construction

def build_ring(n: int, strategy: Strategy, seed: int) -> RingState:
    """Build a ring over nodes 0..n-1 with a seed-deterministic token layout."""
    if n <= 0:
        raise ZeroNodes("node count must be >= 1")
    rng = random.Random(seed)
    nodes = tuple(range(n))

    if isinstance(strategy, LimitedTokenRandomPart):
        if strategy.tokens_per_node <= 0:
            raise RingError("tokens_per_node must be >= 1")
        tokens = _draw_tokens(rng, nodes, strategy.tokens_per_node, frozenset())
        return RingState(strategy, nodes, seed, tokens=tuple(sorted(tokens)))

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
    owners = [0] * q
    base, rem = divmod(q, n)
    pos = 0
    for i, node in enumerate(nodes):
        take = base + (1 if i < rem else 0)
        for p in parts[pos:pos + take]:
            owners[p] = node
        pos += take
    return RingState(strategy, nodes, seed, q=q, owners=tuple(owners))


def _draw_tokens(rng: random.Random, nodes, t: int, taken: frozenset) -> list[tuple[int, int]]:
    used = set(taken)
    out = []
    for node in nodes:
        for _ in range(t):
            tok = rng.getrandbits(64)
            while tok in used:
                tok = rng.getrandbits(64)
            used.add(tok)
            out.append((tok, node))
    return out


# ---------------------------------------------------------------------------
# lookup

def lookup(ring: RingState, key: int, r: int = 1) -> list[int]:
    """First r distinct nodes met walking the circle clockwise from the key."""
    if r > ring.n:
        raise ReplicationExceedsNodes(f"r={r} > n={ring.n}")
    h = hash_key(key)
    found: list[int] = []
    if ring.is_equal_part:
        q = ring.q
        p = partition_of(h, q)
        for i in range(q):
            owner = ring.owners[(p + i) % q]
            if owner not in found:
                found.append(owner)
                if len(found) == r:
                    return found
    else:
        toks = ring.tokens
        points = [t for t, _ in toks]
        import bisect
        idx = bisect.bisect_left(points, h)
        for i in range(len(toks)):
            owner = toks[(idx + i) % len(toks)][1]
            if owner not in found:
                found.append(owner)
                if len(found) == r:
                    return found
    return found


def _primary_owner_array(ring: RingState, h: np.ndarray) -> np.ndarray:
    """Primary owner node id for each circle position in h."""
    if ring.is_equal_part:
        owners = np.asarray(ring.owners, dtype=np.int64)
        return owners[_partition_of_array(h, ring.q).astype(np.int64)]
    points = np.asarray([t for t, _ in ring.tokens], dtype=np.uint64)
    owners = np.asarray([o for _, o in ring.tokens], dtype=np.int64)
    idx = np.searchsorted(points, h, side="left")
    idx[idx == len(points)] = 0
    return owners[idx]


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
    rng = random.Random(seed)
    nodes = tuple(sorted(ring.nodes + (new_node,)))

    if ring.is_equal_part:
        q = ring.q
        if q < len(nodes):
            raise QSmallerThanN(f"q={q} < n={len(nodes)}")
        owners = list(ring.owners)
        parts_by_node: dict[int, set] = defaultdict(set)
        for p, owner in enumerate(owners):
            parts_by_node[owner].add(p)
        counts = {node: len(parts_by_node[node]) for node in ring.nodes}
        moved = []
        for _ in range(q // len(nodes)):
            top = max(counts.values())
            victim = rng.choice(sorted(nd for nd, c in counts.items() if c == top))
            part = rng.choice(sorted(parts_by_node[victim]))
            parts_by_node[victim].remove(part)
            counts[victim] -= 1
            owners[part] = new_node
            moved.append((part, victim, new_node))
        new_ring = RingState(ring.strategy, nodes, ring.seed, q=q, owners=tuple(owners))
    else:
        t = ring.strategy.tokens_per_node
        taken = frozenset(tok for tok, _ in ring.tokens)
        fresh = _draw_tokens(rng, (new_node,), t, taken)
        old_points = [tok for tok, _ in ring.tokens]
        old_owners = [o for _, o in ring.tokens]
        import bisect
        moved = []
        for tok, _ in sorted(fresh):
            idx = bisect.bisect_left(old_points, tok)
            moved.append((tok, old_owners[idx % len(old_points)], new_node))
        new_ring = RingState(
            ring.strategy, nodes, ring.seed,
            tokens=tuple(sorted(ring.tokens + tuple(fresh))),
        )

    keys, bytes_ = _movement_estimate(ring, new_ring, key_sample, sample_seed,
                                      replication, value_size)
    report = RebalanceReport(new_node, "join", tuple(moved), keys, bytes_)
    return new_ring, report


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
    rng = random.Random(seed)
    nodes = tuple(nd for nd in ring.nodes if nd != node)

    if ring.is_equal_part:
        owners = list(ring.owners)
        counts = {nd: 0 for nd in nodes}
        leaving = []
        for p, owner in enumerate(owners):
            if owner == node:
                leaving.append(p)
            else:
                counts[owner] += 1
        moved = []
        for part in leaving:
            low = min(counts.values())
            heir = rng.choice(sorted(nd for nd, c in counts.items() if c == low))
            counts[heir] += 1
            owners[part] = heir
            moved.append((part, node, heir))
        new_ring = RingState(ring.strategy, nodes, ring.seed, q=ring.q,
                             owners=tuple(owners))
    else:
        kept = tuple(tp for tp in ring.tokens if tp[1] != node)
        new_points = [tok for tok, _ in kept]
        new_owners = [o for _, o in kept]
        import bisect
        moved = []
        for tok, owner in ring.tokens:
            if owner != node:
                continue
            idx = bisect.bisect_left(new_points, tok)
            moved.append((tok, node, new_owners[idx % len(kept)]))
        new_ring = RingState(ring.strategy, nodes, ring.seed, tokens=kept)

    keys, bytes_ = _movement_estimate(ring, new_ring, key_sample, sample_seed,
                                      replication, value_size)
    report = RebalanceReport(node, "leave", tuple(moved), keys, bytes_)
    return new_ring, report


def _movement_estimate(before: RingState, after: RingState, k: int,
                       sample_seed: int, r: int, v: float) -> tuple[int, float]:
    if k <= 0:
        return 0, 0.0
    h = _hash_keys(k, sample_seed)
    changed = int(np.count_nonzero(
        _primary_owner_array(before, h) != _primary_owner_array(after, h)))
    moved_keys = changed * r
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
    if r > ring.n:
        raise ReplicationExceedsNodes(f"r={r} > n={ring.n}")

    h = _hash_keys(k, seed)
    node_ids = sorted(ring.nodes)
    idx_of = {nd: i for i, nd in enumerate(node_ids)}

    if ring.is_equal_part:
        slot = _partition_of_array(h, ring.q).astype(np.int64)
        slot_owner_ids = list(ring.owners)
    else:
        points = np.asarray([t for t, _ in ring.tokens], dtype=np.uint64)
        slot = np.searchsorted(points, h, side="left").astype(np.int64)
        slot[slot == len(points)] = 0
        slot_owner_ids = [o for _, o in ring.tokens]

    replica_tables = _replica_owner_tables(slot_owner_ids, idx_of, r)
    counts = np.zeros(len(node_ids), dtype=np.int64)
    for table in replica_tables:
        counts += np.bincount(table[slot], minlength=len(node_ids))

    per_node = {nd: int(counts[idx_of[nd]]) for nd in node_ids}
    mean = r * k / ring.n
    max_load = int(counts.max())
    return BalanceStats(
        n=ring.n,
        k_sampled=k,
        per_node_load=per_node,
        max_load=max_load,
        mean_load=mean,
        epsilon_hat=max_load / mean - 1.0,
    )


def _replica_owner_tables(slot_owner_ids: list[int], idx_of: dict[int, int],
                          r: int) -> list[np.ndarray]:
    """For each replica level 0..r-1, the owner index per slot (clockwise walk)."""
    q = len(slot_owner_ids)
    tables = [np.empty(q, dtype=np.int64) for _ in range(r)]
    for p in range(q):
        seen: list[int] = []
        i = 0
        while len(seen) < r:
            owner = slot_owner_ids[(p + i) % q]
            if owner not in seen:
                seen.append(owner)
            i += 1
        for level, owner in enumerate(seen):
            tables[level][p] = idx_of[owner]
    return tables


# ---------------------------------------------------------------------------
# serialization

_STRATEGY_NAMES = {
    LimitedTokenRandomPart: "limited-token-random-part",
    LimitedTokenEqualPart: "limited-token-equal-part",
    ManyTokenEqualPart: "many-token-equal-part",
}


def strategy_to_dict(strategy: Strategy) -> dict:
    d = {"kind": _STRATEGY_NAMES[type(strategy)]}
    if isinstance(strategy, ManyTokenEqualPart):
        d["q"] = strategy.q
    else:
        d["tokens_per_node"] = strategy.tokens_per_node
    return d


def strategy_from_dict(d: dict) -> Strategy:
    kind = d["kind"]
    if kind == "many-token-equal-part":
        return ManyTokenEqualPart(q=d["q"])
    if kind == "limited-token-equal-part":
        return LimitedTokenEqualPart(tokens_per_node=d["tokens_per_node"])
    if kind == "limited-token-random-part":
        return LimitedTokenRandomPart(tokens_per_node=d["tokens_per_node"])
    raise RingError(f"unknown strategy kind: {kind}")


def ring_to_dict(ring: RingState) -> dict:
    d = {
        "strategy": strategy_to_dict(ring.strategy),
        "nodes": list(ring.nodes),
        "seed": ring.seed,
    }
    if ring.is_equal_part:
        d["q"] = ring.q
        d["partition_owners"] = list(ring.owners)
    else:
        d["tokens"] = [[tok, owner] for tok, owner in ring.tokens]
    return d


def ring_from_dict(d: dict) -> RingState:
    strategy = strategy_from_dict(d["strategy"])
    nodes = tuple(d["nodes"])
    if "partition_owners" in d:
        return RingState(strategy, nodes, d["seed"], q=d["q"],
                         owners=tuple(d["partition_owners"]))
    return RingState(strategy, nodes, d["seed"],
                     tokens=tuple((tok, owner) for tok, owner in d["tokens"]))


def ring_to_json(ring: RingState) -> str:
    return json.dumps(ring_to_dict(ring))


def ring_from_json(s: str) -> RingState:
    return ring_from_dict(json.loads(s))

