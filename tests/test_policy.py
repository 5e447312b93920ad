"""Action selection rules and the exploration wrapper."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_mdp_walks
from highway_rl.highway_graph import HighwayGraph
from highway_rl.policy import (PolicySnapshot, _randbelow, epsilon_greedy, greedy_action,
                               select_action)
from highway_rl.value_iteration import ValueTables, bellman_sweep, value_update_loop


def _two_action_graph():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 1, [0], [0.5])
    g.add_highway(0, 2, [1], [0.9])
    tables = ValueTables(v={0: 0.9, 1: 0.0, 2: 0.0},
                         q={(0, 0): 0.5, (0, 1): 0.9})
    return g, tables


def test_select_argmax_at_intersection():
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4, rng_seed=0)
    assert select_action(snap, 0) == 1


def test_select_tie_breaks_to_lowest_action():
    g, tables = _two_action_graph()
    tables.q[(0, 0)] = 0.9
    snap = PolicySnapshot(g, tables, action_count=4, rng_seed=0)
    assert select_action(snap, 0) == 0


def test_select_recorded_action_on_highway():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 9, [3, 0, 2, 1], [0.0] * 4, interior=[5, 6, 7])
    tables = value_update_loop(g, max_iter=50, delta=1e-15)
    snap = PolicySnapshot(g, tables, action_count=4, rng_seed=0)
    # state 6 sits at offset 2; the recorded action there is the third one
    assert select_action(snap, 6) == 2


def test_select_uniform_on_unknown_state():
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4, rng_seed=99)
    counts = Counter(select_action(snap, 12345) for _ in range(10_000))
    for a in range(4):
        assert counts[a] / 10_000 == pytest.approx(0.25, abs=0.02)


def test_select_deterministic_for_known_states():
    g, tables = _two_action_graph()
    a = PolicySnapshot(g, tables, action_count=4, rng_seed=0)
    b = PolicySnapshot(g, tables, action_count=4, rng_seed=1)
    assert select_action(a, 0) == select_action(b, 0)


def test_unknown_state_stream_fixed_by_seed():
    g, tables = _two_action_graph()
    a = PolicySnapshot(g, tables, action_count=4, rng_seed=7)
    b = PolicySnapshot(g, tables, action_count=4, rng_seed=7)
    seq_a = [select_action(a, 999) for _ in range(50)]
    seq_b = [select_action(b, 999) for _ in range(50)]
    assert seq_a == seq_b


def test_epsilon_zero_equals_greedy():
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4, rng_seed=0)
    for s in (0, 777):
        rng1, rng2 = random.Random(3), random.Random(3)
        assert (epsilon_greedy(snap, s, 0.0, rng=rng1)
                == select_action(snap, s, rng=rng2))
        assert rng1.getstate() == rng2.getstate()


def test_epsilon_one_is_uniform():
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4, rng_seed=5)
    counts = Counter(epsilon_greedy(snap, 0, 1.0) for _ in range(10_000))
    for a in range(4):
        assert counts[a] / 10_000 == pytest.approx(0.25, abs=0.02)


def test_epsilon_half_frequency():
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4, rng_seed=11)
    counts = Counter(epsilon_greedy(snap, 0, 0.5) for _ in range(10_000))
    expected = 0.5 + 0.5 / 4  # greedy half plus its share of the uniform half
    assert counts[1] / 10_000 == pytest.approx(expected, abs=0.02)


def test_epsilon_range_validated():
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4)
    with pytest.raises(ValueError):
        epsilon_greedy(snap, 0, 1.5)


def test_value_shift_leaves_greedy_actions_unchanged():
    # A constant shift of V moves every single-step Q by the same gamma * c,
    # so decisions are unchanged wherever the outgoing edges discount over the
    # same horizon.  (With mixed highway lengths the shift is gamma^len * c,
    # which is genuinely non-uniform, so the property is scoped to the
    # classic one-step case.)
    for seed in range(10):
        rng = random.Random(seed)
        g = HighwayGraph(gamma=0.99)
        nodes = [rng.getrandbits(40) for _ in range(12)]
        for s in nodes:
            for a in range(3):
                g.add_highway(s, nodes[rng.randrange(len(nodes))], [a],
                              [round(rng.uniform(-1, 1), 6)])
        tables = value_update_loop(g, max_iter=5000, delta=1e-13)
        _v, q_shifted = bellman_sweep(g, {s: val + 3.7 for s, val in tables.v.items()})
        _v0, q_base = bellman_sweep(g, tables.v)
        shifted = ValueTables(v=tables.v, q=q_shifted)
        base = ValueTables(v=tables.v, q=q_base)
        for s in g.intersections:
            if g.out_edges.get(s):
                assert greedy_action(g, base, s) == greedy_action(g, shifted, s)


def test_action_mask_hook():
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4, rng_seed=0,
                          action_mask=lambda s: [2, 3])
    actions = {select_action(snap, 424242) for _ in range(100)}
    assert actions <= {2, 3}


def test_empty_action_mask_raises():
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4, rng_seed=0,
                          action_mask=lambda s: [])
    with pytest.raises(ValueError):
        select_action(snap, 424242)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_randbelow_keeps_the_randrange_stream(seed):
    ours, ref = random.Random(seed), random.Random(seed)
    for n in list(range(1, 10)) * 20:
        assert _randbelow(ours, n) == ref.randrange(n)
    assert ours.getstate() == ref.getstate()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 8), min_size=1, max_size=9))
def test_random_actions_keep_the_randrange_stream(seed, valid):
    g, tables = _two_action_graph()
    masked = PolicySnapshot(g, tables, action_count=9, action_mask=lambda s: valid)
    plain = PolicySnapshot(g, tables, action_count=9)
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(50):
        assert select_action(masked, -1, rng) == valid[ref.randrange(len(valid))]
        ref.random()   # the exploration coin
        assert epsilon_greedy(plain, 0, 1.0, rng) == ref.randrange(9)
    assert rng.getstate() == ref.getstate()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 24))
def test_snapshot_is_unaffected_by_later_assemble(seed, episodes, max_len):
    rng = random.Random(seed)
    _table, action_count, trajs = random_mdp_walks(rng, 2 * episodes, max_len)
    g = HighwayGraph(gamma=0.95).assemble(trajs[:episodes])
    tables = value_update_loop(g, max_iter=10_000, delta=1e-12)
    snap = PolicySnapshot(g, tables, action_count=action_count, rng_seed=0)
    # the compiled table holds exactly the choices the graph records
    expected = {s: g.highways[hid].actions[offset] for s, (hid, offset) in g.membership.items()}
    for s in g.intersections:
        if g.out_edges.get(s):
            expected[s] = greedy_action(g, tables, s)
    assert snap.greedy == expected
    probe = sorted(g.states()) + [-1]
    before = [select_action(snap, s, random.Random(s)) for s in probe]
    g.assemble(trajs[episodes:])
    assert [select_action(snap, s, random.Random(s)) for s in probe] == before
    assert snap.greedy == expected
