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
for random-part rings, the sorted ``uint64`` token points.  The owners'
positions in ``nodes`` are cached too, and ``join`` and ``leave`` carry them
forward from the parent ring.  The replica owner table (the first r
distinct nodes clockwise from every slot) is built from them with numpy
once per ring and replication factor, level-major, and cached on the state;
``lookup`` and ``balance_stats`` both read it.  ``lookup`` checks r once per
ring and r and caches a resolver holding the table, the nodes and the slot
finder: the key's top bits on a ring of 2**b equal partitions, arithmetic on
other equal-part rings, a bisection of a memoryview of the points on a
random-part ring.  A key sample is hashed,
placed and counted in the one array that hashing allocates: a key's
partition is arithmetic (for Q = 2**b, b <= 31, the top b bits of the hash
taken before SplitMix64's last step, which does not change them), and
random-part rings sort the sample in place and search the token points in
it.  Moved keys are counted on one ring, the side of a join or leave that
holds every slot boundary: on an equal-part ring in the changed partitions,
and on a random-part ring by searching the sorted sample at the changed
node's range ends only, at a cost independent of Q.

All operations are purely functional: they return a new ``RingState``.
"""

from __future__ import annotations

import json
import operator
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

MASK64 = (1 << 64) - 1
CIRCLE = 1 << 64
NODE_DTYPE = np.int32
_NODE_ID_RANGE = (int(np.iinfo(NODE_DTYPE).min), int(np.iinfo(NODE_DTYPE).max))
# most slots (partitions or tokens) build_ring makes: far above the 65 536 of
# the largest rings in use; an equal-part build at this cap peaks at about
# 260 MiB of Python allocations (tracemalloc, 16 nodes)
MAX_SLOTS = 1 << 24


class RingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# hashing

def mix64(x: int) -> int:
    """SplitMix64 finalizer: fixed, platform-independent 64-bit avalanche hash."""
    z = _premix64(x)
    return z ^ (z >> 31)


def _premix64(x: int) -> int:
    """``mix64`` up to its last step, ``z ^= z >> 31``, which leaves the top
    31 bits as they are: a partition of 2**b equal ones (b <= 31) is the
    top b bits of either value."""
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    return ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64


def hash_key(key: int) -> int:
    """Circle position of a key, any integer (numpy ones too) taken modulo
    2**64."""
    return mix64(operator.index(key) & MASK64)


_C_ADD = np.uint64(0x9E3779B97F4A7C15)
_C_M1 = np.uint64(0xBF58476D1CE4E5B9)
_C_M2 = np.uint64(0x94D049BB133111EB)


# words _mix64_array hashes per step: its temporary (64 KiB) stays under
# glibc's 128 KiB mmap threshold, where one as long as a 20 000-key sample
# was mapped and page-faulted afresh on most calls
_MIX_BLOCK = 8192


def _mix64_array(z: np.ndarray, finish: bool = True) -> np.ndarray:
    """``mix64`` of every word of the ``uint64`` array z, in place; returns z.
    With ``finish`` false it stops where ``_premix64`` does."""
    t = np.empty(min(len(z), _MIX_BLOCK), dtype=np.uint64)
    for start in range(0, len(z), _MIX_BLOCK):
        zb = z[start:start + _MIX_BLOCK]
        tb = t[:len(zb)]
        zb += _C_ADD
        zb ^= np.right_shift(zb, np.uint64(30), out=tb)
        zb *= _C_M1
        zb ^= np.right_shift(zb, np.uint64(27), out=tb)
        zb *= _C_M2
        if finish:
            zb ^= np.right_shift(zb, np.uint64(31), out=tb)
    return z


def _key_words(k: int, seed: int) -> np.ndarray:
    """The hash inputs of keys 0..k-1 under seed, in one new array."""
    words = np.arange(k, dtype=np.uint64)
    words ^= np.uint64(seed & MASK64)
    return words


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
    Derived arrays, the replica tables and ``lookup``'s resolver per r are
    cached on the state.
    """

    strategy: Strategy
    nodes: tuple[int, ...]
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
                and (self.points is None) == (other.points is None)
                and np.array_equal(self.slot_owner, other.slot_owner)
                and (self.points is None
                     or np.array_equal(self.points, other.points)))

    def __hash__(self):
        return hash((self.strategy, self.nodes))

    def __getstate__(self):
        # the cache is derived, and its lookup closures (which hold a
        # memoryview of the points) cannot be pickled or deep-copied
        return {**self.__dict__, "_cache": {}}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()            # unpickled arrays come back writeable

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
        """Position in ``nodes`` of each slot's owner: set by the operations
        of this module, searched for on a ring built by hand."""
        return self._cached("slot_index", lambda: np.searchsorted(
            np.asarray(self.nodes, dtype=np.int64), self.slot_owner))

    def _node_slot_counts(self) -> np.ndarray:
        """Slots owned by each node, in ``nodes`` order."""
        return self._cached("node_slot_counts", lambda: np.bincount(
            self._slot_index(), minlength=self.n))

    def token_counts(self) -> dict[int, int]:
        return dict(zip(self.nodes, self._node_slot_counts().tolist()))

    def _sample_counts(self, k: int, seed: int) -> np.ndarray:
        """Number of the keys i < k, hashed as ``hash_key(i ^ seed)``, in
        each slot."""
        words = _key_words(k, seed)
        if self.is_equal_part:
            return np.bincount(_partitions_of_words(words, self.q),
                               minlength=self.q)
        h = _mix64_array(words)
        h.sort()
        return _interval_counts(h, self.points)

    def replica_table(self, r: int) -> np.ndarray:
        """(slots, r) array: row i holds the positions in ``nodes`` of the
        first r distinct owners met walking clockwise from slot i.  It is
        the transpose of a level-major array, so each column is contiguous."""
        return self._cached(("replicas", r),
                            lambda: _clockwise_distinct(self._slot_index(), r))


@dataclass(frozen=True)
class RebalanceReport:
    """Partition movements caused by a single join or leave."""

    joined_or_left: int
    kind: str  # "join" | "leave"
    moved_partitions: tuple[tuple[int, int, int], ...]  # (partition/token, from, to)
    moved_key_estimate: int


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
    return min(h // (CIRCLE // q), q - 1)


def _top_bits(q: int) -> Optional[int]:
    """b where q = 2**b and 1 <= b <= 31, else None: then ``partition_of``
    is ``h >> (64 - b)``, and ``_premix64`` gives those bits."""
    b = q.bit_length() - 1
    return b if q == 1 << b and 1 <= b <= 31 else None


def _partitions_of_words(z: np.ndarray, q: int) -> np.ndarray:
    """``partition_of(mix64(w), q)`` for every word w of the ``uint64``
    array z, computed in z in place; returns an ``int64`` view of z."""
    b = _top_bits(q)
    if b is not None:
        z = _mix64_array(z, finish=False)
        z >>= np.uint64(64 - b)
        return z.view(np.int64)
    h = _mix64_array(z)
    if q == 1:
        h.fill(0)
    else:
        h //= np.uint64(CIRCLE // q)
        np.minimum(h, np.uint64(q - 1), out=h)
    return h.view(np.int64)


def _interval_counts(h_sorted: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Positions per token: token i takes (points[i-1], points[i]], and
    token 0 also everything above the last point.  Searching the points in
    the sorted positions is several times cheaper than searching each
    position in the points."""
    upto = np.searchsorted(h_sorted, points, side="right")
    counts = np.diff(upto, prepend=0)
    counts[0] += len(h_sorted) - upto[-1]
    return counts


def _count_in_tokens(h: np.ndarray, points: np.ndarray,
                     slots: np.ndarray) -> int:
    """Number of the circle positions h in the tokens ``slots``, ascending
    indices into ``points``; sorts h.  Token i takes (points[i-1], points[i]],
    so the sorted positions are searched at the 2 * len(slots) range ends
    only, at a cost independent of len(points).  Token 0's range wraps past
    2**64 and also takes every position above the last point; on a one-token
    ring that range is the whole circle."""
    h.sort()
    upto = np.searchsorted(h, points[slots], side="right")
    after = np.searchsorted(h, points[slots - 1], side="right")
    wrap = len(h) if slots[0] == 0 else 0
    return int((upto - after).sum()) + wrap


def _clockwise_distinct(seq: np.ndarray, r: int) -> np.ndarray:
    """Row i: the first r distinct values met walking seq circularly from i,
    as the (len(seq), r) transpose of a level-major array.

    Consecutive equal values form a run and share one answer, so the walk
    steps over runs, and level 1 is the next run.  Level j > 1 is found for
    every run at once: each walk resumes after the run where it found level
    j-1, and only the walks that meet an already-found value take another
    step.  seq must hold at least r distinct values.
    """
    starts = np.empty(len(seq), dtype=bool)
    starts[0] = seq[0] != seq[-1]
    np.not_equal(seq[1:], seq[:-1], out=starts[1:])
    runs = seq[starts]
    n_runs = len(runs)
    if n_runs == 0:                         # one value in every slot
        return np.full((r, len(seq)), seq[0]).T
    # the runs twice over: a walk ends within one lap, so it never reads
    # past them, and needs no modulo
    laps = np.concatenate((runs, runs))
    levels = np.empty((r, n_runs), dtype=seq.dtype)
    levels[0] = laps[:n_runs]
    if r > 1:                               # circularly adjacent runs differ
        levels[1] = laps[1:n_runs + 1]
    at = np.arange(1, n_runs + 1)           # run where the last level was found
    for j in range(2, r):
        at += 1
        levels[j] = laps[at]
        value = levels[j]
        # the first step of every walk on whole arrays, then only the walks
        # that met an already-found value
        seen = levels[0] == value
        for level in levels[1:j]:
            seen |= level == value
        walking = np.flatnonzero(seen)
        while len(walking):
            at[walking] += 1
            value[walking] = laps[at[walking]]
            seen = levels[0, walking] == value[walking]
            for level in levels[1:j]:
                seen |= level[walking] == value[walking]
            walking = walking[seen]
    # slots before the first run start belong to the last (wrapping) run
    run_of_slot = np.cumsum(starts) - 1
    return np.take(levels, run_of_slot, axis=1).T


# ---------------------------------------------------------------------------
# construction

def build_ring(n: int, strategy: Strategy, seed: int) -> RingState:
    """Build a ring over nodes 0..n-1 with a seed-deterministic token layout.

    The slot count is checked before anything of size n is allocated."""
    if n <= 0:
        raise RingError("node count must be >= 1")
    _check_node_id(n - 1)
    if isinstance(strategy, ManyTokenEqualPart):
        q = strategy.q
    else:
        if strategy.tokens_per_node <= 0:
            raise RingError("tokens_per_node must be >= 1")
        q = strategy.tokens_per_node * n
    if q < n:
        raise RingError(f"q={q} < n={n}")
    if q > MAX_SLOTS:
        raise RingError(f"{q} slots exceed the cap of {MAX_SLOTS}")
    rng = random.Random(seed)
    nodes = tuple(range(n))

    if isinstance(strategy, LimitedTokenRandomPart):
        t = strategy.tokens_per_node
        used: set[int] = set()
        points = np.concatenate([_draw_tokens(rng, t, used) for _ in nodes])
        order = np.argsort(points)
        owner = np.repeat(np.arange(n, dtype=NODE_DTYPE), t)[order]
        # node ids are 0..n-1, so an owner's position equals its id
        return _ring(strategy, nodes, owner, owner.astype(np.intp),
                     points[order])

    # 4 bytes a slot; random.shuffle makes the same swaps as on a list
    parts = array("i", range(q))
    rng.shuffle(parts)
    base, rem = divmod(q, n)
    owner = np.empty(q, dtype=NODE_DTYPE)
    owner[parts] = np.repeat(np.arange(n, dtype=NODE_DTYPE),
                             [base + (1 if i < rem else 0) for i in nodes])
    return _ring(strategy, nodes, owner, owner.astype(np.intp))


def _ring(strategy: Strategy, nodes: tuple[int, ...], owner: np.ndarray,
          index: np.ndarray, points: Optional[np.ndarray] = None) -> RingState:
    """A ``RingState`` whose owner positions in ``nodes`` are ``index``."""
    ring = RingState(strategy, nodes, owner, points)
    ring._cache["slot_index"] = index
    return ring


def _shifted_index(ring: RingState, at: int, step: int) -> np.ndarray:
    """ring's owner positions with each one from ``at`` up moved by step:
    the positions after a node joins at ``at`` (step 1) or leaves from it
    (step -1), up to the slots the change gives a new owner."""
    remap = np.arange(ring.n)
    remap[at:] += step
    return np.take(remap, ring._slot_index())


def _draw_tokens(rng: random.Random, t: int, used: set[int]) -> np.ndarray:
    """t fresh 64-bit token points not in ``used``, in an array; adds them
    to it."""
    out = []
    for _ in range(t):
        tok = rng.getrandbits(64)
        while tok in used:
            tok = rng.getrandbits(64)
        used.add(tok)
        out.append(tok)
    return np.array(out, dtype=np.uint64)


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
        raise RingError(f"r={r} > n={ring.n}")


# ---------------------------------------------------------------------------
# lookup

def lookup(ring: RingState, key: int, r: int = 1) -> list[int]:
    """First r distinct nodes met walking the circle clockwise from the key.

    r is checked once per ring; the resolver cached for it then costs one
    hash, one slot and one replica table row per key."""
    try:
        resolve = ring._cache["lookup", r]
    except KeyError:
        _check_lookup_replication(ring, r)
        resolve = ring._cache["lookup", r] = _lookup_resolver(ring, r)
    return resolve(key)


def _lookup_resolver(ring: RingState, r: int):
    """``lookup(ring, ·, r)`` for an r already checked, with ``hash_key``
    inlined: the slot is the key's top bits on a ring of 2**b equal
    partitions, arithmetic on other equal-part rings, and a bisection of the
    points on a random-part ring.  The points are bisected as a memoryview:
    its items read as Python ints, so ``bisect`` searches it for one key
    several times faster than numpy does, and it copies nothing."""
    table, nodes = ring.replica_table(r), ring.nodes
    if not ring.is_equal_part:
        points = memoryview(ring.points)
        n_points = len(points)

        def resolve(key):
            z = _premix64(operator.index(key) & MASK64)
            slot = bisect_left(points, z ^ (z >> 31))
            row = table[slot if slot < n_points else 0]
            return [nodes[i] for i in row.tolist()]
        return resolve
    q = ring.q
    b = _top_bits(q)
    if b is not None:
        shift = 64 - b

        def resolve(key):
            z = _premix64(operator.index(key) & MASK64)
            return [nodes[i] for i in table[z >> shift].tolist()]
        return resolve

    def resolve(key):
        return [nodes[i] for i in
                table[partition_of(hash_key(key), q)].tolist()]
    return resolve


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
) -> tuple[RingState, RebalanceReport]:
    """Add a node; tokens move only towards the joining node.

    For the equal-part strategies the joining node steals exactly
    floor(Q/(N+1)) partitions, one at a time from the currently most-loaded
    node (ties broken by the seeded PRNG), which preserves the floor/ceil
    balance invariant.  For the random-part strategy the joining node draws
    its own fresh tokens.

    ``key_sample`` > 0 estimates moved keys by hashing that many sample keys
    and counting ownership changes, times ``replication``.
    """
    if new_node in ring.nodes:
        raise RingError(f"node {new_node} already in ring")
    _check_node_id(new_node)
    _check_replication(replication)
    rng = random.Random(seed)
    pos = bisect_left(ring.nodes, new_node)
    nodes = ring.nodes[:pos] + (new_node,) + ring.nodes[pos:]
    index = _shifted_index(ring, pos, 1)

    if ring.is_equal_part:
        q = ring.q
        if q < len(nodes):
            raise RingError(f"q={q} < n={len(nodes)}")
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
        slots = np.array([part for part, _, _ in moved])
        owner[slots] = new_node
        index[slots] = pos
        new_ring = _ring(ring.strategy, nodes, owner, index)
    else:
        t, points = ring.strategy.tokens_per_node, ring.points
        fresh = np.sort(_draw_tokens(rng, t, set()))
        at = np.searchsorted(points, fresh)
        if np.any(points[at % len(points)] == fresh):
            # a draw hit an existing point: replay the draws avoiding them all
            fresh = np.sort(_draw_tokens(random.Random(seed), t,
                                         set(points.tolist())))
            at = np.searchsorted(points, fresh)
        prev = ring.slot_owner[at % len(points)]
        moved = [(tok, frm, new_node)
                 for tok, frm in zip(fresh.tolist(), prev.tolist())]
        # at is ascending, so fresh token j lands at at[j] + j
        slots = at + np.arange(t)
        kept = np.ones(len(points) + t, dtype=bool)
        kept[slots] = False
        new_ring = _ring(ring.strategy, nodes,
                         _spliced(ring.slot_owner, kept, slots, new_node),
                         _spliced(index, kept, slots, pos),
                         _spliced(points, kept, slots, fresh))

    keys = _movement_estimate(new_ring, slots, key_sample, sample_seed,
                              replication)
    return new_ring, RebalanceReport(new_node, "join", tuple(moved), keys)


def _spliced(a: np.ndarray, kept: np.ndarray, slots: np.ndarray,
             values) -> np.ndarray:
    """a's items at the true places of kept, and values at slots."""
    out = np.empty(len(kept), dtype=a.dtype)
    out[kept] = a
    out[slots] = values
    return out


def _parts_by_node(ring: RingState) -> dict[int, list[int]]:
    """Each node's partitions, ascending."""
    # a stable sort of the owner positions in their narrowest unsigned type:
    # numpy radix-sorts up to 16 bits, that is up to 65 536 nodes
    index = ring._slot_index().astype(np.min_scalar_type(ring.n - 1))
    order = np.argsort(index, kind="stable").tolist()
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
) -> tuple[RingState, RebalanceReport]:
    """Remove a node; its tokens go to the least-loaded survivors (seeded ties)."""
    if node not in ring.nodes:
        raise RingError(f"node {node} not in ring")
    if ring.n == 1:
        raise RingError("cannot remove the only node")
    _check_replication(replication)
    rng = random.Random(seed)
    pos = ring.nodes.index(node)
    nodes = ring.nodes[:pos] + ring.nodes[pos + 1:]
    leaving = ring.slot_owner == node
    slots = np.flatnonzero(leaving)
    index = _shifted_index(ring, pos, -1)

    if ring.is_equal_part:
        counts = dict(zip(ring.nodes, ring._node_slot_counts().tolist()))
        del counts[node]
        heirs = []
        low_nodes: list[int] = []
        for _ in range(len(slots)):
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
        owner[slots] = heirs
        index[slots] = np.searchsorted(np.asarray(nodes), heirs)
        new_ring = _ring(ring.strategy, nodes, owner, index)
        moved = [(part, node, heir) for part, heir in zip(slots.tolist(), heirs)]
    else:
        points = ring.points[~leaving]
        owner = ring.slot_owner[~leaving]
        gone = ring.points[leaving]
        heirs = owner[np.searchsorted(points, gone) % len(points)]
        moved = [(tok, node, heir)
                 for tok, heir in zip(gone.tolist(), heirs.tolist())]
        new_ring = _ring(ring.strategy, nodes, owner, index[~leaving], points)

    keys = _movement_estimate(ring, slots, key_sample, sample_seed,
                              replication)
    return new_ring, RebalanceReport(node, "leave", tuple(moved), keys)


def _movement_estimate(ring: RingState, slots: np.ndarray, k: int,
                       sample_seed: int, r: int) -> int:
    """Sample keys whose primary owner changed, times r.

    ``ring`` is the side of the change that holds every slot boundary: the
    ring after a join, the ring before a leave.  Its slots whose owner
    changed are exactly ``slots``, those of the joining or leaving node
    (ascending on a random-part ring), and a key's owner is fixed by the slot
    it falls in, so the count is the number of sample keys in ``slots``.
    """
    if k <= 0:
        return 0
    if ring.is_equal_part:
        in_slots = int(ring._sample_counts(k, sample_seed)[slots].sum())
    else:
        in_slots = _count_in_tokens(_mix64_array(_key_words(k, sample_seed)),
                                    ring.points, slots)
    return in_slots * r


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

    per_slot = ring._sample_counts(k, seed)
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


def strategy_from_dict(d: dict, names: Optional[dict] = None) -> Strategy:
    """Inverse of ``strategy_to_dict``; a size field that is missing or None,
    or the other kind's size field set, is a ``RingError``.  Its message
    calls a field by its entry in ``names`` if it has one (a CLI flag)."""
    kind = d["kind"]
    cls = next((c for c, name in _STRATEGY_NAMES.items() if name == kind), None)
    if cls is None:
        raise RingError(f"unknown strategy kind: {kind}")
    field = _size_field(cls)
    name = (names or {}).get
    if d.get(field) is None:
        raise RingError(f"{kind} needs {name(field, field)}")
    unread = "tokens_per_node" if field == "q" else "q"
    if d.get(unread) is not None:
        raise RingError(f"{kind} does not read {name(unread, unread)}")
    return cls(d[field])


def ring_to_dict(ring: RingState) -> dict:
    d = {
        "strategy": strategy_to_dict(ring.strategy),
        "nodes": list(ring.nodes),
    }
    owners = ring.slot_owner.tolist()
    if ring.is_equal_part:
        d["q"] = ring.q
        d["partition_owners"] = owners
    else:
        d["tokens"] = [[tok, owner] for tok, owner in zip(ring.points.tolist(), owners)]
    return d


def ring_to_json(ring: RingState) -> str:
    return json.dumps(ring_to_dict(ring))
