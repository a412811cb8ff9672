import bisect
import copy
import dataclasses
import hashlib
import json
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dht_rebalance.ring import (
    CIRCLE,
    LimitedTokenEqualPart,
    LimitedTokenRandomPart,
    MASK64,
    MAX_SLOTS,
    ManyTokenEqualPart,
    NODE_DTYPE,
    RingError,
    RingState,
    balance_stats,
    build_ring,
    hash_key,
    join,
    leave,
    lookup,
    mix64,
    partition_of,
    ring_to_json,
    strategy_from_dict,
    strategy_to_dict,
    _key_words,
    _mix64_array,
    _partitions_of_words,
)


def test_mix64_is_a_64_bit_permutation_sample():
    seen = {mix64(x) for x in range(10000)}
    assert len(seen) == 10000
    assert all(0 <= h < CIRCLE for h in seen)


def test_partition_ranges_cover_circle():
    q = 7
    w = CIRCLE // q
    assert partition_of(0, q) == 0
    assert partition_of(w - 1, q) == 0
    assert partition_of(w, q) == 1
    # the last partition absorbs the remainder
    assert partition_of(CIRCLE - 1, q) == q - 1
    assert partition_of(q * w, q) == q - 1
    # one partition takes the whole circle
    assert partition_of(CIRCLE - 1, 1) == 0


def test_build_single_node_owns_everything():
    ring = build_ring(1, ManyTokenEqualPart(128), 1234)
    assert ring.token_counts() == {0: 128}


def test_build_even_split():
    ring = build_ring(4, ManyTokenEqualPart(120), 42)
    assert all(c == 30 for c in ring.token_counts().values())


def test_build_uneven_split_within_one():
    ring = build_ring(5, ManyTokenEqualPart(128), 3)
    counts = ring.token_counts().values()
    assert sorted(counts) == [25, 25, 26, 26, 26]


def test_build_q_smaller_than_n():
    with pytest.raises(RingError, match="q=3 < n=4"):
        build_ring(4, ManyTokenEqualPart(3), 0)


def test_build_zero_nodes():
    with pytest.raises(RingError, match="node count must be >= 1"):
        build_ring(0, ManyTokenEqualPart(8), 0)


def test_build_checks_its_slot_count_before_allocating():
    """Too few partitions for the nodes, or more than MAX_SLOTS tokens, is
    rejected before anything of size n is built: a tuple of these 2**22 + 1
    nodes alone would take about 150 MB."""
    n = 2**22 + 1
    assert 4 * n > MAX_SLOTS
    for strategy, message in ((ManyTokenEqualPart(3), f"q=3 < n={n}"),
                              (LimitedTokenRandomPart(4), "exceed the cap"),
                              (LimitedTokenEqualPart(4), "exceed the cap")):
        tracemalloc.start()
        try:
            with pytest.raises(RingError, match=message):
                build_ring(n, strategy, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, (strategy, peak)


def test_build_shuffles_its_partitions_in_an_int32_array():
    """An equal-part build of 2**16 partitions over 16 nodes peaks under
    2 MiB: the shuffled permutation takes 4 bytes a partition, where a list
    of Python ints took 36, about 3.5 MiB in all."""
    tracemalloc.start()
    try:
        build_ring(16, ManyTokenEqualPart(1 << 16), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_build_deterministic():
    a = build_ring(6, ManyTokenEqualPart(96), 99)
    b = build_ring(6, ManyTokenEqualPart(96), 99)
    assert a == b
    c = build_ring(6, LimitedTokenRandomPart(4), 99)
    d = build_ring(6, LimitedTokenRandomPart(4), 99)
    assert c == d


def test_limited_token_equal_part_fixes_q_at_creation():
    ring = build_ring(4, LimitedTokenEqualPart(8), 5)
    assert ring.q == 32
    ring2, _ = join(ring, 4, 17)
    assert ring2.q == 32  # Q never changes after creation


def test_lookup_single_node():
    ring = build_ring(1, ManyTokenEqualPart(16), 0)
    assert lookup(ring, 777, 1) == [0]


def test_lookup_matches_linear_scan():
    ring = build_ring(4, ManyTokenEqualPart(120), 42)
    for key in range(50):
        got = lookup(ring, key, 3)
        assert len(got) == len(set(got)) == 3
        # linear-scan oracle over the token table
        h = hash_key(key)
        p = partition_of(h, ring.q)
        expect = []
        for i in range(ring.q):
            owner = ring.owners[(p + i) % ring.q]
            if owner not in expect:
                expect.append(owner)
            if len(expect) == 3:
                break
        assert got == expect


def test_lookup_replication_exceeds_nodes():
    ring = build_ring(2, ManyTokenEqualPart(16), 0)
    with pytest.raises(RingError, match="r=3 > n=2"):
        lookup(ring, 1, 3)


def test_lookup_stable_under_reinvocation():
    ring = build_ring(5, LimitedTokenRandomPart(3), 8)
    assert lookup(ring, 42, 2) == lookup(ring, 42, 2)


def test_join_even_steal():
    ring = build_ring(4, ManyTokenEqualPart(120), 42)
    ring2, report = join(ring, 4, 7)
    assert ring2.token_counts() == {nd: 24 for nd in range(5)}
    assert len(report.moved_partitions) == 24
    assert all(to == 4 for _, _, to in report.moved_partitions)


def test_join_two_way_split():
    ring = build_ring(1, ManyTokenEqualPart(128), 0)
    ring2, _ = join(ring, 1, 3)
    assert sorted(ring2.token_counts().values()) == [64, 64]


def test_join_duplicate_node():
    ring = build_ring(3, ManyTokenEqualPart(30), 0)
    with pytest.raises(RingError, match="node 2 already in ring"):
        join(ring, 2, 1)


def test_leave_redistributes_evenly():
    ring = build_ring(5, ManyTokenEqualPart(120), 11)
    ring2, report = leave(ring, 3, 4)
    assert all(c == 30 for c in ring2.token_counts().values())
    assert len(report.moved_partitions) == 24
    assert all(frm == 3 for _, frm, _ in report.moved_partitions)


def test_leave_unknown_and_last_node():
    ring = build_ring(1, ManyTokenEqualPart(8), 0)
    with pytest.raises(RingError, match="cannot remove the only node"):
        leave(ring, 0, 0)
    ring2 = build_ring(2, ManyTokenEqualPart(8), 0)
    with pytest.raises(RingError, match="node 9 not in ring"):
        leave(ring2, 9, 0)


def test_leave_deterministic_report():
    ring = build_ring(5, ManyTokenEqualPart(100), 2)
    _, a = leave(ring, 1, 77)
    _, b = leave(ring, 1, 77)
    assert a == b


def test_movement_locality_random_sequences():
    rng = random.Random(2024)
    ring = build_ring(4, ManyTokenEqualPart(128), 1)
    next_id = 4
    for _ in range(300):
        if ring.n > 2 and rng.random() < 0.4:
            node = rng.choice(sorted(ring.nodes))
            ring, report = leave(ring, node, rng.getrandbits(32))
            assert all(frm == node for _, frm, _ in report.moved_partitions)
        else:
            ring, report = join(ring, next_id, rng.getrandbits(32))
            assert all(to == next_id for _, _, to in report.moved_partitions)
            next_id += 1
        counts = list(ring.token_counts().values())
        assert sum(counts) == 128  # partition conservation
        assert max(counts) - min(counts) <= 1


def test_join_moved_fraction_matches_binomial():
    # Q divisible by N+1, so the moved circle fraction is exactly 1/(N+1)
    ring = build_ring(4, ManyTokenEqualPart(120), 42)
    k = 200_000
    r = 3
    _, report = join(ring, 4, 9, key_sample=k, sample_seed=5, replication=r)
    frac = report.moved_key_estimate / (k * r)
    p = 1.0 / 5.0
    sigma = (p * (1 - p) / k) ** 0.5
    assert abs(frac - p) <= 3 * sigma


def test_balance_stats_single_node():
    ring = build_ring(1, ManyTokenEqualPart(64), 0)
    stats = balance_stats(ring, 10_000, seed=3)
    assert stats.epsilon_hat == 0.0


def test_balance_stats_equal_part_is_tight():
    ring = build_ring(16, ManyTokenEqualPart(4096), 7)
    stats = balance_stats(ring, 1_000_000, r=1, seed=7)
    assert sum(stats.per_node_load.values()) == stats.k_sampled
    assert stats.mean_load == pytest.approx(1_000_000 / 16)
    assert stats.epsilon_hat <= 0.05


def test_balance_stats_random_part_is_worse():
    equal = balance_stats(build_ring(16, ManyTokenEqualPart(4096), 7),
                          1_000_000, seed=7)
    rand = balance_stats(build_ring(16, LimitedTokenRandomPart(1), 7),
                         1_000_000, seed=7)
    assert rand.epsilon_hat > 5 * equal.epsilon_hat
    assert rand.epsilon_hat > 0.2


def test_balance_stats_replicated_mean():
    ring = build_ring(8, ManyTokenEqualPart(256), 1)
    stats = balance_stats(ring, 50_000, r=3, seed=2)
    assert sum(stats.per_node_load.values()) == 3 * 50_000
    assert stats.mean_load == pytest.approx(3 * 50_000 / 8)


ALL_STRATEGIES = (ManyTokenEqualPart(96), LimitedTokenEqualPart(8),
                  LimitedTokenRandomPart(8))


def test_replication_below_one_rejected():
    for strategy in ALL_STRATEGIES:
        ring = build_ring(4, strategy, 3)
        for bad in (0, -1):
            with pytest.raises(RingError):
                lookup(ring, 5, bad)
            with pytest.raises(RingError):
                balance_stats(ring, 100, r=bad)
            with pytest.raises(RingError):
                join(ring, 4, 1, key_sample=100, replication=bad)
            with pytest.raises(RingError):
                leave(ring, 2, 1, key_sample=100, replication=bad)


def _reference_walk(slots, start, r):
    """First r distinct owners met walking slots clockwise from start."""
    found = []
    for i in range(len(slots)):
        owner = slots[(start + i) % len(slots)]
        if owner not in found:
            found.append(owner)
            if len(found) == r:
                break
    return found


@st.composite
def owner_layouts(draw):
    """(ring, owner per slot, r): runs of one owner up to 40 slots long,
    every node owning a slot, non-contiguous node ids; q = n when there are
    no extra runs."""
    n = draw(st.integers(1, 6))
    ids = [7 * i + 3 for i in range(n)]
    runs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 40)),
                         max_size=10))
    seq = [ids[i] for i, length in runs for _ in range(length)]
    seq += [ids[i] for i in draw(st.permutations(range(n)))]
    cut = draw(st.integers(0, len(seq) - 1))
    seq = seq[cut:] + seq[:cut]
    r = draw(st.one_of(st.just(n), st.integers(1, n)))
    owners = np.array(seq, dtype=NODE_DTYPE)
    if draw(st.booleans()):
        ring = RingState(ManyTokenEqualPart(len(seq)), tuple(ids), owners)
    else:
        points = sorted(draw(st.sets(st.integers(0, CIRCLE - 1),
                                     min_size=len(seq), max_size=len(seq))))
        ring = RingState(LimitedTokenRandomPart(1), tuple(ids), owners,
                         np.array(points, dtype=np.uint64))
    return ring, seq, r


@settings(max_examples=200, deadline=None)
@given(layout=owner_layouts(), keys=st.lists(st.integers(0, CIRCLE - 1),
                                             min_size=1, max_size=8))
def test_replica_tables_match_reference_walk(layout, keys):
    ring, seq, r = layout
    table = [[ring.nodes[i] for i in row] for row in ring.replica_table(r).tolist()]
    assert table == [_reference_walk(seq, p, r) for p in range(len(seq))]
    expect = []
    for key in keys:
        h = hash_key(key)
        if ring.is_equal_part:
            start = partition_of(h, ring.q)
        else:
            start = bisect.bisect_left([t for t, _ in ring.tokens], h) % len(seq)
        expect.append(_reference_walk(seq, start, r))
    assert [lookup(ring, key, r) for key in keys] == expect


def test_sample_hash_matches_mix64_in_every_block():
    # 20 000 keys are hashed in three blocks, the last one short
    for seed in (0, 5, 2**64 - 1, -3):
        h = _mix64_array(_key_words(20_000, seed))
        for i in (0, 1, 17, 1234, 8191, 8192, 16383, 16384, 19999):
            assert int(h[i]) == mix64((i ^ seed) & MASK64)


# equal-part partition counts: powers of two, read from the hash's top bits,
# and others
EQUAL_PART_QS = (1, 2, 2048, 3, 2049, 3000)


@st.composite
def membership_histories(draw):
    """A ring reached from ``build_ring`` by 1-6 random joins and leaves, of
    each strategy; an equal-part ring has Q from ``EQUAL_PART_QS``."""
    kind = draw(st.sampled_from(["many", "limited", "random"]))
    if kind == "random":
        n = draw(st.integers(1, 6))
        strategy = LimitedTokenRandomPart(draw(st.integers(1, 8)))
    else:
        q = draw(st.sampled_from(EQUAL_PART_QS))
        n = draw(st.sampled_from([d for d in range(1, 7) if q % d == 0]))
        strategy = (ManyTokenEqualPart(q) if kind == "many"
                    else LimitedTokenEqualPart(q // n))
    ring = build_ring(n, strategy, draw(st.integers(0, 2**32)))
    next_id = n
    for is_join, op_seed in draw(st.lists(st.tuples(st.booleans(),
                                                    st.integers(0, 2**32)),
                                          min_size=1, max_size=6)):
        if is_join and (ring.q is None or ring.q > ring.n):
            ring, _ = join(ring, next_id, op_seed)
            next_id += 1
        elif ring.n > 1:
            ring, _ = leave(ring, ring.nodes[op_seed % ring.n], op_seed)
    return ring


@settings(max_examples=80, deadline=None)
@given(ring=membership_histories(),
       keys=st.lists(st.integers(-2**63, CIRCLE - 1), min_size=1, max_size=6),
       k=st.integers(0, 300), seed=st.integers(0, MASK64))
def test_cached_lookup_matches_reference_walk(ring, keys, k, seed):
    """lookup caches a resolver per (ring, r); every r's answers equal a
    walk of the owners, a bad r still raises once a good one is cached, and
    the sample counts equal a key-by-key count."""
    seq = ring.slot_owner.tolist()
    if ring.is_equal_part:
        def slot_of(h):
            return partition_of(h, ring.q)
    else:
        points = ring.points.tolist()

        def slot_of(h):
            return bisect.bisect_left(points, h) % len(points)
    starts = [slot_of(hash_key(key)) for key in keys]
    for r in range(1, ring.n + 1):
        for key, start in zip(keys, starts):
            assert lookup(ring, key, r) == _reference_walk(seq, start, r)
    for bad in (0, ring.n + 1):
        with pytest.raises(RingError):
            lookup(ring, keys[0], bad)
    want = [0] * len(seq)
    for i in range(k):
        want[slot_of(mix64((i ^ seed) & MASK64))] += 1
    assert ring._sample_counts(k, seed).tolist() == want


def _unmix64(h):
    """The word that ``mix64`` maps to h."""
    def unshift(y, s):                      # inverse of y = x ^ (x >> s)
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x
    z = unshift(h, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, CIRCLE) & MASK64, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, CIRCLE) & MASK64, 30)
    return (z - 0x9E3779B97F4A7C15) & MASK64


@pytest.mark.parametrize("q", [2, 2**11, 2**24, 2**32, 3, 3000])
def test_partitions_of_words_at_partition_boundaries(q):
    """Hashes either side of partition boundaries.  For q = 2**b, b <= 31,
    the partition is the top b bits of the hash before mix64's last step;
    2**32 is past that and takes the division, as other q do."""
    width = CIRCLE // q
    edges = (0, width, 2 * width, q // 2 * width, (q - 1) * width, CIRCLE)
    hashes = sorted({h for e in edges for h in (e - 1, e, e + 1)
                     if 0 <= h < CIRCLE})
    words = [_unmix64(h) for h in hashes]
    assert [mix64(w) for w in words] == hashes
    want = [partition_of(h, q) for h in hashes]
    got = _partitions_of_words(np.array(words, dtype=np.uint64), q)
    assert got.tolist() == want
    if q <= 4096:
        ring = build_ring(2, ManyTokenEqualPart(q), 1)
        owners = [ring.owners[p] for p in want]
        assert [lookup(ring, w) for w in words] == [[o] for o in owners]


def test_lookup_and_hash_key_take_numpy_integers():
    """A key is any integer taken modulo 2**64: numpy integers give the
    owners of the Python int (no OverflowError, and no overflow
    RuntimeWarning, an error under the test settings); a float is a
    TypeError."""
    for strategy in ALL_STRATEGIES:
        ring = build_ring(4, strategy, 3)
        for key in (5, -5, 2**63 - 1, 2**63, CIRCLE - 1):
            want, h = lookup(ring, key, 2), hash_key(key)
            typed = [np.uint64(key & MASK64)]
            if key < 2**63:
                typed.append(np.int64(key))
            for k in typed:
                assert lookup(ring, k, 2) == want
                assert hash_key(k) == h
        for bad in (5.0, np.float64(5.0)):
            with pytest.raises(TypeError):
                lookup(ring, bad, 2)
            with pytest.raises(TypeError):
                hash_key(bad)


def _strategies_and_sizes():
    return st.one_of(
        st.builds(ManyTokenEqualPart, st.integers(8, 64)),
        st.builds(LimitedTokenEqualPart, st.integers(2, 8)),
        st.builds(LimitedTokenRandomPart, st.integers(1, 8)))


# Random-part scripts whose first op changes the token at points[0], the
# range that wraps past 2**64: (strategy, n, seed, ops).
WRAP_JOIN = (LimitedTokenRandomPart(4), 3, 9, [True])
WRAP_LEAVE = (LimitedTokenRandomPart(4), 3, 2, [False])
WRAP_ONE_TOKEN = (LimitedTokenRandomPart(1), 1, 2, [True, False])
WRAP_BENCH_SIZE = (LimitedTokenRandomPart(64), 32, 52, [True, False])


def _wrap_example(script):
    strategy, n, seed, ops = script
    return example(strategy=strategy, n=n, seed=seed, ops=ops, key_sample=5000,
                   sample_seed=7, r=3)


@pytest.mark.parametrize("script", [WRAP_JOIN, WRAP_LEAVE, WRAP_ONE_TOKEN,
                                    WRAP_BENCH_SIZE])
def test_wrap_examples_change_the_first_token(script):
    strategy, n, seed, ops = script
    ring = build_ring(n, strategy, seed)
    if ops[0]:
        after, _ = join(ring, n, seed)
        assert after.slot_owner[0] == n
    else:
        assert ring.slot_owner[0] == sorted(ring.nodes)[seed % n]
    if script is WRAP_ONE_TOKEN:
        assert len(ring.points) == 1


@settings(max_examples=150, deadline=None)
@given(strategy=_strategies_and_sizes(), n=st.integers(2, 6),
       seed=st.integers(0, 2**32), ops=st.lists(st.booleans(), min_size=1,
                                                max_size=4),
       key_sample=st.sampled_from([0, 1, 5000]),
       sample_seed=st.integers(0, MASK64), r=st.integers(1, 3))
@_wrap_example(WRAP_JOIN)
@_wrap_example(WRAP_LEAVE)
@_wrap_example(WRAP_ONE_TOKEN)
@_wrap_example(WRAP_BENCH_SIZE)
def test_movement_estimate_matches_key_by_key_count(
        strategy, n, seed, ops, key_sample, sample_seed, r):
    ring = build_ring(n, strategy, seed)
    words = np.arange(key_sample, dtype=np.uint64) ^ np.uint64(sample_seed)
    next_id = n
    for i, is_join in enumerate(ops):
        if is_join and (ring.q is None or ring.q > ring.n):
            after, report = join(ring, next_id, seed + i, key_sample=key_sample,
                                 sample_seed=sample_seed, replication=r)
            next_id += 1
        elif ring.n > 1:
            node = sorted(ring.nodes)[(seed + i) % ring.n]
            after, report = leave(ring, node, seed + i, key_sample=key_sample,
                                  sample_seed=sample_seed, replication=r)
        else:
            continue
        moved = sum(lookup(ring, w) != lookup(after, w) for w in words.tolist())
        assert report.moved_key_estimate == r * moved
        ring = after


@settings(max_examples=150, deadline=None)
@given(strategy=_strategies_and_sizes(), n=st.integers(1, 6),
       seed=st.integers(0, 2**32),
       ops=st.lists(st.tuples(st.sampled_from(["below", "between", "above",
                                               "leave"]),
                              st.integers(0, 2**32)), min_size=1, max_size=6))
def test_carried_positions_equal_a_fresh_ring(strategy, n, seed, ops):
    """join and leave carry each owner's position in ``nodes`` forward from
    the parent ring; a ring built from the same arrays has no cache and
    searches for them."""
    ring = build_ring(n, strategy, seed)
    for where, op_seed in ops:
        nodes = ring.nodes
        gaps = [x for x in range(nodes[0], nodes[-1]) if x not in nodes]
        if where == "leave":
            if ring.n == 1:
                continue
            ring, _ = leave(ring, nodes[op_seed % ring.n], op_seed)
        elif ring.q is None or ring.q > ring.n:
            if where == "below":
                node = nodes[0] - 1 - op_seed % 3
            elif where == "above":
                node = nodes[-1] + 1 + op_seed % 3
            elif gaps:
                node = gaps[op_seed % len(gaps)]
            else:
                continue
            ring, _ = join(ring, node, op_seed)
        fresh = RingState(ring.strategy, ring.nodes, ring.slot_owner,
                          ring.points)
        assert "slot_index" not in fresh._cache
        assert ring._slot_index().tolist() == fresh._slot_index().tolist()
        assert ring.token_counts() == fresh.token_counts()
        for r in range(1, min(ring.n, 4) + 1):
            assert np.array_equal(ring.replica_table(r), fresh.replica_table(r))


def test_join_draw_that_hits_an_existing_point():
    """A random-part join draws each token again while it hits a point of
    the ring.  Here the first draw of seed 7 is a point of the ring, so the
    join's tokens are the second and third draws."""
    hit = 17485029721327973432
    assert random.Random(7).getrandbits(64) == hit
    ring = RingState(LimitedTokenRandomPart(2), (0, 1),
                     np.array([0, 1, 0], dtype=NODE_DTYPE),
                     np.array([1 << 62, 3 << 62, hit], dtype=np.uint64))
    after, report = join(ring, 5, 7, key_sample=1000, sample_seed=3)
    assert report.moved_partitions == ((890727360438182992, 0, 5),
                                       (7283207964119141687, 1, 5))
    assert report.moved_key_estimate == 239
    assert after.tokens == ((890727360438182992, 5), (1 << 62, 0),
                            (7283207964119141687, 5), (3 << 62, 1), (hit, 0))


def test_views_hold_python_ints():
    for strategy in ALL_STRATEGIES:
        ring = build_ring(5, strategy, 4)
        ring2, report = join(ring, 5, 8)
        values = ring2.owners if ring2.is_equal_part else [
            x for pair in ring2.tokens for x in pair]
        assert all(type(x) is int for x in values)
        assert all(type(x) is int for x in ring2.token_counts().values())
        assert all(type(x) is int for move in report.moved_partitions for x in move)
        assert all(type(x) is int for x in lookup(ring2, 9, 3))


def test_pickle_and_deepcopy_after_lookup():
    for strategy in ALL_STRATEGIES:
        ring = build_ring(5, strategy, 4)
        want = [lookup(ring, k, 3) for k in range(20)]
        for restored in (pickle.loads(pickle.dumps(ring)), copy.deepcopy(ring)):
            assert restored == ring
            assert not restored.slot_owner.flags.writeable
            assert ring.is_equal_part or not restored.points.flags.writeable
            assert [lookup(restored, k, 3) for k in range(20)] == want


def test_strategy_dict_round_trip_and_rejects():
    for strategy in ALL_STRATEGIES:
        d = strategy_to_dict(strategy)
        assert strategy_from_dict(d) == strategy
        field = "q" if isinstance(strategy, ManyTokenEqualPart) else "tokens_per_node"
        for bad in ({"kind": d["kind"]}, dict(d, **{field: None})):
            with pytest.raises(RingError, match=field):
                strategy_from_dict(bad)
        # the other kind's size field is not read, so it is not accepted
        unread = "tokens_per_node" if field == "q" else "q"
        assert strategy_from_dict(dict(d, **{unread: None})) == strategy
        with pytest.raises(RingError, match=f"does not read {unread}"):
            strategy_from_dict(dict(d, **{unread: 8}))
    with pytest.raises(RingError, match="unknown strategy"):
        strategy_from_dict({"kind": "bogus", "q": 8})


def test_join_rejects_node_id_outside_int32():
    ring = build_ring(3, ManyTokenEqualPart(12), 1)
    for node in (2**31, -2**31 - 1):
        with pytest.raises(RingError):
            join(ring, node, 1)
    ring2, _ = join(ring, 2**31 - 1, 1)
    assert ring2.token_counts()[2**31 - 1] == 3


# Recorded with the tuple-based ring (one Python tuple per token) that the
# array-backed RingState replaced, before ring.py was changed; the arrays
# must reproduce its seeded output exactly.
GOLDEN_SCRIPT_SHA256 = "d091f3ebaca5377fe6a422bbd3a5c2dad2848b2936b72f1756c3f19e9699967a"
GOLDEN_Q65536_JOIN_SHA256 = "ad07736d2e6356c3d827adbf96d103618a12e739e1744824c7fdd895d905e6ae"
GOLDEN_Q65536_LEAVE_SHA256 = "258b5a0bc19ef3be17691c3391551f45527c6d86e412bbe837ef46077ce1e43f"


def _sha256(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()


def test_seeded_output_matches_golden_digest():
    """A fixed script of 20 joins and leaves per strategy, each with a key
    sample, followed by balance_stats and four lookups, hashed over
    ring_to_json, the reports, the stats and the lookups.  The digest was
    recorded at the commit before the rings became arrays, with the tuple
    implementation; any change to RNG use, move order or counting shows
    here.  It was recorded again when the ring's unread seed and the
    reports' byte estimate were deleted: it is the digest of the texts
    before, with the "seed" and "moved_byte_estimate" keys stripped."""
    parts = []
    for s, strategy in enumerate(ALL_STRATEGIES):
        rnd = random.Random(1000 + s)
        ring = build_ring(6, strategy, 31 + s)
        parts.append(ring_to_json(ring))
        next_id = 6
        for step in range(20):
            if step % 3 == 2:
                node = rnd.choice(sorted(ring.nodes))
                ring, report = leave(ring, node, rnd.getrandbits(32),
                                     key_sample=5000,
                                     sample_seed=rnd.getrandbits(32),
                                     replication=2)
            else:
                ring, report = join(ring, next_id, rnd.getrandbits(32),
                                    key_sample=5000,
                                    sample_seed=rnd.getrandbits(32),
                                    replication=2)
                next_id += 1
            stats = balance_stats(ring, 4000, r=min(3, ring.n), seed=step)
            owners = [lookup(ring, rnd.getrandbits(64), min(3, ring.n))
                      for _ in range(4)]
            parts += [ring_to_json(ring), json.dumps(dataclasses.asdict(report)),
                      json.dumps(dataclasses.asdict(stats)), json.dumps(owners)]
    assert _sha256(*parts) == GOLDEN_SCRIPT_SHA256


def test_large_q_join_then_leave():
    """q = 65536 over 16 nodes: the join moves floor(q/17) partitions, all
    to the new node, the leave moves only the leaver's partitions, both keep
    the floor/ceil balance, and the moves equal those of the tuple
    implementation (digests recorded before the rings became arrays)."""
    q = 65536
    ring = build_ring(16, ManyTokenEqualPart(q), 7)
    ring2, joined = join(ring, 16, 11)
    assert len(joined.moved_partitions) == q // 17
    assert all(to == 16 for _, _, to in joined.moved_partitions)
    assert set(ring2.token_counts().values()) <= {q // 17, -(-q // 17)}
    ring3, left = leave(ring2, 5, 13)
    assert len(left.moved_partitions) == ring2.token_counts()[5]
    assert all(frm == 5 for _, frm, _ in left.moved_partitions)
    assert set(ring3.token_counts().values()) <= {q // 16, -(-q // 16)}
    changed = [(p, a, b) for p, (a, b) in
               enumerate(zip(ring2.owners, ring3.owners)) if a != b]
    assert changed == list(left.moved_partitions)
    assert _sha256(json.dumps(joined.moved_partitions)) == GOLDEN_Q65536_JOIN_SHA256
    assert _sha256(json.dumps(left.moved_partitions)) == GOLDEN_Q65536_LEAVE_SHA256
