"""Action selection rules and the exploration wrapper."""

import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_sweep, random_highway_graph, random_mdp_walks
from highway_rl.errors import KeyMismatch
from highway_rl.highway_graph import HighwayGraph
from highway_rl.policy import compile_greedy, epsilon_greedy, greedy_action
from highway_rl.value_iteration import ValueTables, value_update_loop


def _two_action_graph(q_first=0.5):
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 1, [0], [0.5])
    g.add_highway(0, 2, [1], [0.9])
    tables = ValueTables.from_dicts({0: 0.9, 1: 0.0, 2: 0.0},
                                    {(0, 0): q_first, (0, 1): 0.9})
    return g, tables


def _q_tables(q):
    """Tables holding Q, with V 0.0 at each of its states."""
    return ValueTables.from_dicts(dict.fromkeys([s for s, _a in q], 0.0), q)


def _greedy(snap, s, rng=None, action_count=4):
    """The epsilon = 0 choice at s, drawing from rng (a fresh one by default)."""
    return epsilon_greedy(snap, s, 0.0, rng if rng is not None else random.Random(0),
                          action_count)


def test_select_argmax_at_intersection():
    g, tables = _two_action_graph()
    snap = compile_greedy(g, tables)
    assert _greedy(snap, 0) == 1


def test_select_tie_breaks_to_lowest_action():
    g, tables = _two_action_graph(q_first=0.9)
    snap = compile_greedy(g, tables)
    assert _greedy(snap, 0) == 0


def _one_state_tables(qs):
    """Intersection 0 with one highway per action, Q from qs in action order."""
    g = HighwayGraph(gamma=0.99)
    for a in range(len(qs)):
        g.add_highway(0, a + 1, [a], [0.0])
    return g, _q_tables({(0, a): q for a, q in enumerate(qs)})


@pytest.mark.parametrize("qs, want", [
    # a 1-ulp gap is a tie, whichever side is larger
    ([1.0, math.nextafter(1.0, 2.0)], 0),
    ([math.nextafter(-3.0, 0.0), -3.0, -3.0], 0),
    # the tolerance scales with |best| above 1 and is absolute below
    ([1000.0, 1000.0 + 0.9e-6], 0),
    ([1000.0, 1000.0 + 1.1e-6], 1),
    ([0.0, 0.9e-9], 0),
    ([0.0, 1.1e-9], 1),
    ([0.5, 0.5 + 1.1e-9, 0.5 + 1.5e-9], 1),
    # a NaN first stays chosen; a NaN later never ties
    ([math.nan, 1.0], 0),
    ([1.0, math.nan, 1.0], 0),
    ([0.0, math.nan, 1.0], 2),
])
def test_greedy_action_ties_within_the_tolerance(qs, want):
    g, tables = _one_state_tables(qs)
    assert greedy_action(g, tables, 0) == want
    assert compile_greedy(g, tables)[0] == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([1.0, math.nextafter(1.0, 2.0), 1.0 - 5e-10, 1.0 + 8e-10,
                                 1.0 - 2e-9, 1.0 + 3e-9, -1.0]),
                min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_greedy_action_is_the_lowest_action_near_the_best_in_any_q_order(qs, rng):
    best = max(qs)
    want = min(a for a, q in enumerate(qs) if best - q <= 1e-9 * max(1.0, abs(best)))
    g, tables = _one_state_tables(qs)
    keys = list(tables.q)
    rng.shuffle(keys)
    tables = _q_tables({k: tables.q[k] for k in keys})
    assert greedy_action(g, tables, 0) == want
    assert compile_greedy(g, tables)[0] == want


def test_select_recorded_action_on_highway():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 9, [3, 0, 2, 1], [0.0] * 4, interior=[5, 6, 7])
    tables = value_update_loop(g, delta=1e-15)
    snap = compile_greedy(g, tables)
    # state 6 sits at offset 2; the recorded action there is the third one
    assert _greedy(snap, 6) == 2


def test_select_uniform_on_unknown_state():
    g, tables = _two_action_graph()
    snap = compile_greedy(g, tables)
    rng = random.Random(99)
    counts = Counter(_greedy(snap, 12345, rng) for _ in range(10_000))
    for a in range(4):
        assert counts[a] / 10_000 == pytest.approx(0.25, abs=0.02)


def test_select_deterministic_for_known_states():
    g, tables = _two_action_graph()
    snap = compile_greedy(g, tables)
    assert _greedy(snap, 0, random.Random(0)) == _greedy(snap, 0, random.Random(1))


def test_unknown_state_stream_fixed_by_seed():
    g, tables = _two_action_graph()
    snap = compile_greedy(g, tables)
    rng_a, rng_b = random.Random(7), random.Random(7)
    seq_a = [_greedy(snap, 999, rng_a) for _ in range(50)]
    seq_b = [_greedy(snap, 999, rng_b) for _ in range(50)]
    assert seq_a == seq_b


def test_epsilon_zero_equals_greedy():
    # epsilon 0 draws no exploration coin: a known state draws nothing, an
    # unknown one exactly the uniform action
    g, tables = _two_action_graph()
    snap = compile_greedy(g, tables)
    rng, ref = random.Random(3), random.Random(3)
    assert epsilon_greedy(snap, 0, 0.0, rng=rng, action_count=4) == greedy_action(g, tables, 0)
    assert rng.getstate() == ref.getstate()
    assert epsilon_greedy(snap, 777, 0.0, rng=rng, action_count=4) == ref.randrange(4)
    assert rng.getstate() == ref.getstate()


def test_epsilon_one_is_uniform():
    g, tables = _two_action_graph()
    snap = compile_greedy(g, tables)
    rng = random.Random(5)
    counts = Counter(epsilon_greedy(snap, 0, 1.0, rng, 4) for _ in range(10_000))
    for a in range(4):
        assert counts[a] / 10_000 == pytest.approx(0.25, abs=0.02)


def test_epsilon_half_frequency():
    g, tables = _two_action_graph()
    snap = compile_greedy(g, tables)
    rng = random.Random(11)
    counts = Counter(epsilon_greedy(snap, 0, 0.5, rng, 4) for _ in range(10_000))
    expected = 0.5 + 0.5 / 4  # greedy half plus its share of the uniform half
    assert counts[1] / 10_000 == pytest.approx(expected, abs=0.02)


def test_epsilon_range_validated():
    g, tables = _two_action_graph()
    snap = compile_greedy(g, tables)
    with pytest.raises(ValueError):
        epsilon_greedy(snap, 0, 1.5, random.Random(0), 4)


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
        tables = value_update_loop(g, delta=1e-13)
        _v, q_shifted = one_sweep(g, {s: val + 3.7 for s, val in tables.v.items()})
        _v0, q_base = one_sweep(g, tables.v)
        shifted = ValueTables.from_dicts(tables.v, q_shifted)
        base = ValueTables.from_dicts(tables.v, q_base)
        for s in g.intersections:
            if g.out_edges.get(s):
                assert greedy_action(g, base, s) == greedy_action(g, shifted, s)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_random_actions_keep_the_randrange_stream(seed, action_count):
    # the inlined getrandbits loop draws what rng.randrange would, both for
    # unknown states and for exploration, and leaves the same generator state
    g, tables = _two_action_graph()
    snap = compile_greedy(g, tables)
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(50):
        assert epsilon_greedy(snap, -1, 0.0, rng, action_count) == ref.randrange(action_count)
        ref.random()   # the exploration coin
        assert epsilon_greedy(snap, 0, 1.0, rng, action_count) == ref.randrange(action_count)
    assert rng.getstate() == ref.getstate()

def _expected_greedy(g, tables):
    """The table a snapshot must compile: the recorded action at each interior
    state, and greedy_action at each intersection with an outgoing highway."""
    expected = {s: g.highways[hid].actions[k] for s, (hid, k) in g.membership.items()}
    for s in g.intersections:
        a = greedy_action(g, tables, s)
        if a is not None:
            expected[s] = a
    return expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 24))
def test_snapshot_is_unaffected_by_later_assemble(seed, episodes, max_len):
    rng = random.Random(seed)
    _table, action_count, trajs = random_mdp_walks(rng, 2 * episodes, max_len)
    g = HighwayGraph(gamma=0.95).assemble(trajs[:episodes])
    tables = value_update_loop(g, delta=1e-12)
    snap = compile_greedy(g, tables)
    # the compiled table holds exactly the choices the graph records
    expected = _expected_greedy(g, tables)
    assert snap == expected
    probe = sorted(g.states()) + [-1]
    before = [_greedy(snap, s, random.Random(s), action_count) for s in probe]
    g.assemble(trajs[episodes:])
    assert [_greedy(snap, s, random.Random(s), action_count) for s in probe] == before
    assert snap == expected


def test_snapshot_holds_only_the_greedy_table():
    # every random choice draws from the caller's generator; none is kept
    g, tables = _two_action_graph()
    snap = compile_greedy(g, tables)
    assert type(snap) is dict
    with pytest.raises(TypeError):
        epsilon_greedy(snap, 0, 0.0)


def test_a_ready_table_is_a_policy_as_it_stands():
    # a distilled net's table needs no compiling: epsilon_greedy acts from it
    table = {5: 2, 6: 0}
    assert [epsilon_greedy(table, s, 0.0, random.Random(0), 3) for s in (5, 6)] == [2, 0]
    with pytest.raises(ValueError, match="action_count"):
        epsilon_greedy({5: 0}, 6, 0.0, random.Random(0), 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000),
       st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, math.nan, math.inf, -math.inf,
                                 math.nextafter(1.0, 2.0), 1.0 - 5e-10, 1.0 - 2e-9]),
                min_size=1, max_size=4),
       st.sampled_from(["dicts", "solve"]))
def test_snapshot_compiles_greedy_action_on_ties_and_nan(seed, pool, made_by):
    # Q drawn from a small pool forces ties, near-ties, infinities and NaNs.
    # Tables from dicts see their insertion order shuffled, so only the key
    # order may decide; a solve's tables share the graph's key arrays, and
    # take the pool's values in place of the solved ones
    rng = random.Random(seed)
    g = random_highway_graph(rng, max_intersections=12, action_count=4, max_out_degree=4)
    keys = [(h.from_state, h.first_action) for h in g.highways.values()]
    rng.shuffle(keys)
    q = {k: rng.choice(pool) for k in keys}
    if made_by == "dicts":
        tables = _q_tables(q)
    else:
        solved = value_update_loop(g, delta=1e-6)
        tables = dataclasses.replace(solved, q_values=np.array([q[k] for k in solved.q]))
    snap = compile_greedy(g, tables)
    assert snap == _expected_greedy(g, tables)


def test_snapshot_rejects_tables_of_another_topology():
    g, tables = _two_action_graph()
    missing = _q_tables({(0, 1): 0.9})
    with pytest.raises(KeyMismatch):
        compile_greedy(g, missing)
    extra = _q_tables({**tables.q, (1, 0): 0.0})
    with pytest.raises(KeyMismatch):
        compile_greedy(g, extra)
    # as many entries as highways, but one pair is not a highway's
    swapped = _q_tables({(0, 0): 0.5, (0, 2): 0.9})
    with pytest.raises(KeyMismatch):
        compile_greedy(g, swapped)
    stray = _q_tables({(0, 0): 0.5, (7, 1): 0.9})
    with pytest.raises(KeyMismatch):
        compile_greedy(g, stray)
