"""Action selection rules and the exploration wrapper."""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_sweep, random_mdp_walks
from highway_rl.highway_graph import HighwayGraph
from highway_rl.policy import PolicySnapshot, chooser, epsilon_greedy, greedy_action
from highway_rl.value_iteration import ValueTables, value_update_loop


def _two_action_graph():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 1, [0], [0.5])
    g.add_highway(0, 2, [1], [0.9])
    tables = ValueTables(v={0: 0.9, 1: 0.0, 2: 0.0},
                         q={(0, 0): 0.5, (0, 1): 0.9})
    return g, tables


def _greedy(snap, s, rng=None):
    """The epsilon = 0 choice at s, drawing from rng (a fresh one by default)."""
    return epsilon_greedy(snap, s, 0.0, rng if rng is not None else random.Random(0))


def test_select_argmax_at_intersection():
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4)
    assert _greedy(snap, 0) == 1


def test_select_tie_breaks_to_lowest_action():
    g, tables = _two_action_graph()
    tables.q[(0, 0)] = 0.9
    snap = PolicySnapshot(g, tables, action_count=4)
    assert _greedy(snap, 0) == 0


def test_select_recorded_action_on_highway():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 9, [3, 0, 2, 1], [0.0] * 4, interior=[5, 6, 7])
    tables = value_update_loop(g, max_iter=50, delta=1e-15)
    snap = PolicySnapshot(g, tables, action_count=4)
    # state 6 sits at offset 2; the recorded action there is the third one
    assert _greedy(snap, 6) == 2


def test_select_uniform_on_unknown_state():
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4)
    rng = random.Random(99)
    counts = Counter(_greedy(snap, 12345, rng) for _ in range(10_000))
    for a in range(4):
        assert counts[a] / 10_000 == pytest.approx(0.25, abs=0.02)


def test_select_deterministic_for_known_states():
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4)
    assert _greedy(snap, 0, random.Random(0)) == _greedy(snap, 0, random.Random(1))


def test_unknown_state_stream_fixed_by_seed():
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4)
    rng_a, rng_b = random.Random(7), random.Random(7)
    seq_a = [_greedy(snap, 999, rng_a) for _ in range(50)]
    seq_b = [_greedy(snap, 999, rng_b) for _ in range(50)]
    assert seq_a == seq_b


def test_epsilon_zero_equals_greedy():
    # epsilon 0 draws no exploration coin: a known state draws nothing, an
    # unknown one exactly the uniform action
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4)
    rng, ref = random.Random(3), random.Random(3)
    assert epsilon_greedy(snap, 0, 0.0, rng=rng) == greedy_action(g, tables, 0)
    assert rng.getstate() == ref.getstate()
    assert epsilon_greedy(snap, 777, 0.0, rng=rng) == ref.randrange(4)
    assert rng.getstate() == ref.getstate()


def test_epsilon_one_is_uniform():
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4)
    rng = random.Random(5)
    counts = Counter(epsilon_greedy(snap, 0, 1.0, rng) for _ in range(10_000))
    for a in range(4):
        assert counts[a] / 10_000 == pytest.approx(0.25, abs=0.02)


def test_epsilon_half_frequency():
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4)
    rng = random.Random(11)
    counts = Counter(epsilon_greedy(snap, 0, 0.5, rng) for _ in range(10_000))
    expected = 0.5 + 0.5 / 4  # greedy half plus its share of the uniform half
    assert counts[1] / 10_000 == pytest.approx(expected, abs=0.02)


def test_epsilon_range_validated():
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4)
    with pytest.raises(ValueError):
        epsilon_greedy(snap, 0, 1.5, random.Random(0))


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
        _v, q_shifted = one_sweep(g, {s: val + 3.7 for s, val in tables.v.items()})
        _v0, q_base = one_sweep(g, tables.v)
        shifted = ValueTables(v=tables.v, q=q_shifted)
        base = ValueTables(v=tables.v, q=q_base)
        for s in g.intersections:
            if g.out_edges.get(s):
                assert greedy_action(g, base, s) == greedy_action(g, shifted, s)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_random_actions_keep_the_randrange_stream(seed, action_count):
    # the inlined getrandbits loop draws what rng.randrange would, both for
    # unknown states and for exploration, and leaves the same generator state
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=action_count)
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(50):
        assert epsilon_greedy(snap, -1, 0.0, rng) == ref.randrange(action_count)
        ref.random()   # the exploration coin
        assert epsilon_greedy(snap, 0, 1.0, rng) == ref.randrange(action_count)
    assert rng.getstate() == ref.getstate()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 24))
def test_snapshot_is_unaffected_by_later_assemble(seed, episodes, max_len):
    rng = random.Random(seed)
    _table, action_count, trajs = random_mdp_walks(rng, 2 * episodes, max_len)
    g = HighwayGraph(gamma=0.95).assemble(trajs[:episodes])
    tables = value_update_loop(g, max_iter=10_000, delta=1e-12)
    snap = PolicySnapshot(g, tables, action_count=action_count)
    # the compiled table holds exactly the choices the graph records
    expected = {s: g.highways[hid].actions[offset] for s, (hid, offset) in g.membership.items()}
    for s in g.intersections:
        if g.out_edges.get(s):
            expected[s] = greedy_action(g, tables, s)
    assert snap.greedy == expected
    probe = sorted(g.states()) + [-1]
    before = [_greedy(snap, s, random.Random(s)) for s in probe]
    g.assemble(trajs[episodes:])
    assert [_greedy(snap, s, random.Random(s)) for s in probe] == before
    assert snap.greedy == expected


def test_snapshot_holds_only_the_greedy_table():
    # every random choice draws from the caller's generator; none is kept
    g, tables = _two_action_graph()
    snap = PolicySnapshot(g, tables, action_count=4)
    assert [f.name for f in dataclasses.fields(snap)] == ["action_count", "greedy"]
    with pytest.raises(TypeError):
        chooser(snap, 0.0)
