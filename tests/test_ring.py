import bisect
import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dht_rebalance import lookup_many
from dht_rebalance.ring import (
    CIRCLE,
    DuplicateNode,
    LastNode,
    LimitedTokenEqualPart,
    LimitedTokenRandomPart,
    ManyTokenEqualPart,
    QSmallerThanN,
    ReplicationExceedsNodes,
    RingError,
    UnknownNode,
    ZeroNodes,
    balance_stats,
    build_ring,
    hash_key,
    join,
    leave,
    lookup,
    mix64,
    partition_of,
    ring_from_dict,
    ring_from_json,
    ring_to_dict,
    ring_to_json,
    strategy_from_dict,
    strategy_to_dict,
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
    with pytest.raises(QSmallerThanN):
        build_ring(4, ManyTokenEqualPart(3), 0)


def test_build_zero_nodes():
    with pytest.raises(ZeroNodes):
        build_ring(0, ManyTokenEqualPart(8), 0)


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
    with pytest.raises(ReplicationExceedsNodes):
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
    with pytest.raises(DuplicateNode):
        join(ring, 2, 1)


def test_leave_redistributes_evenly():
    ring = build_ring(5, ManyTokenEqualPart(120), 11)
    ring2, report = leave(ring, 3, 4)
    assert all(c == 30 for c in ring2.token_counts().values())
    assert len(report.moved_partitions) == 24
    assert all(frm == 3 for _, frm, _ in report.moved_partitions)


def test_leave_unknown_and_last_node():
    ring = build_ring(1, ManyTokenEqualPart(8), 0)
    with pytest.raises(LastNode):
        leave(ring, 0, 0)
    ring2 = build_ring(2, ManyTokenEqualPart(8), 0)
    with pytest.raises(UnknownNode):
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


def test_moved_byte_estimate_scales_with_value_size():
    ring = build_ring(4, ManyTokenEqualPart(120), 42)
    _, report = join(ring, 4, 9, key_sample=10_000, value_size=16.0)
    assert report.moved_byte_estimate == report.moved_key_estimate * 16.0


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


def test_serialization_round_trip():
    for strategy in (ManyTokenEqualPart(96), LimitedTokenRandomPart(3)):
        ring = build_ring(5, strategy, 12)
        assert ring_from_json(ring_to_json(ring)) == ring


ALL_STRATEGIES = (ManyTokenEqualPart(96), LimitedTokenEqualPart(8),
                  LimitedTokenRandomPart(8))


def test_replication_below_one_rejected():
    for strategy in ALL_STRATEGIES:
        ring = build_ring(4, strategy, 3)
        for bad in (0, -1):
            with pytest.raises(RingError):
                lookup(ring, 5, bad)
            with pytest.raises(RingError):
                lookup_many(ring, [5], bad)
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
    d = {"nodes": ids, "seed": 0}
    if draw(st.booleans()):
        d.update(strategy={"kind": "many-token-equal-part", "q": len(seq)},
                 q=len(seq), partition_owners=seq)
    else:
        points = sorted(draw(st.sets(st.integers(0, CIRCLE - 1),
                                     min_size=len(seq), max_size=len(seq))))
        d.update(strategy={"kind": "limited-token-random-part",
                           "tokens_per_node": 1},
                 tokens=[[p, o] for p, o in zip(points, seq)])
    return ring_from_dict(d), seq, r


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
    assert lookup_many(ring, keys, r).tolist() == expect


def test_lookup_many_matches_lookup():
    keys = [0, 1, 2**63, CIRCLE - 1, -5] + list(range(100, 160))
    for strategy in ALL_STRATEGIES:
        ring = build_ring(6, strategy, 21)
        for r in (1, 3, 6):
            expect = [lookup(ring, k, r) for k in keys]
            got = lookup_many(ring, keys, r)
            assert got.shape == (len(keys), r)
            assert got.tolist() == expect
            as_array = lookup_many(ring, np.array(keys[5:], dtype=np.uint64), r)
            assert as_array.tolist() == expect[5:]
            assert lookup_many(ring, np.array([-5]), r).tolist() == [expect[4]]
        assert lookup_many(ring, [], 2).shape == (0, 2)


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


def test_ring_from_dict_rejects_broken_layouts():
    ring = build_ring(3, ManyTokenEqualPart(12), 1)
    rand = build_ring(3, LimitedTokenRandomPart(2), 1)
    bad = []
    for change in (lambda d: d.update(nodes=[2, 1, 0]),           # unsorted
                   lambda d: d.update(nodes=[0, 1, 2, 3]),        # 3 owns nothing
                   lambda d: d["partition_owners"].__setitem__(0, 9),
                   lambda d: d.update(q=13)):
        d = ring_to_dict(ring)
        change(d)
        bad.append(d)
    d = ring_to_dict(rand)
    d["tokens"][0], d["tokens"][1] = d["tokens"][1], d["tokens"][0]
    bad.append(d)
    for d in bad:
        with pytest.raises(RingError):
            ring_from_dict(d)


def test_strategy_dict_round_trip_and_rejects():
    for strategy in ALL_STRATEGIES:
        d = strategy_to_dict(strategy)
        assert strategy_from_dict(d) == strategy
        field = "q" if isinstance(strategy, ManyTokenEqualPart) else "tokens_per_node"
        for bad in ({"kind": d["kind"]}, dict(d, **{field: None})):
            with pytest.raises(RingError, match=field):
                strategy_from_dict(bad)
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
GOLDEN_SCRIPT_SHA256 = "ff93db9094eb40848bc1743da9c67b18a3a7c3ab0f59a20ab7d17337abd724c7"
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
    here."""
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
                                     replication=2, value_size=8.0)
            else:
                ring, report = join(ring, next_id, rnd.getrandbits(32),
                                    key_sample=5000,
                                    sample_seed=rnd.getrandbits(32),
                                    replication=2, value_size=8.0)
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
