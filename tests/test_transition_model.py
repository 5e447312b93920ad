"""Empirical graph bookkeeping and the vanilla value-iteration oracle."""

import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mk_traj
from highway_rl.errors import DeterminismViolation
from highway_rl.transition_model import (EmpiricalGraph, Trajectory, TransitionSample, to_dot,
                                         vanilla_value_iteration)


def record(graph: EmpiricalGraph, *steps):
    """Add each (state, action, next_state, reward) step to graph."""
    for step in steps:
        graph.add_sample(*step)


def test_record_single_step():
    g = EmpiricalGraph(gamma=0.99)
    record(g, (0, 0, 1, 1.0))
    assert g.nodes == {0, 1}
    assert g.num_edges() == 1
    assert g.edges[(0, 0)] == (1, 1.0)


def test_record_twice_keeps_one_edge():
    g = EmpiricalGraph()
    record(g, (0, 0, 1, 1.0), (0, 0, 1, 1.0))
    assert g.nodes == {0, 1}
    assert g.edges == {(0, 0): (1, 1.0)}


def test_conflicting_next_state_raises():
    g = EmpiricalGraph()
    record(g, (0, 0, 1, 1.0))
    with pytest.raises(DeterminismViolation):
        record(g, (0, 0, 2, 1.0))


def test_conflicting_reward_raises():
    g = EmpiricalGraph()
    record(g, (0, 0, 1, 1.0))
    with pytest.raises(DeterminismViolation):
        record(g, (0, 0, 1, 0.5))


def test_trajectory_must_chain():
    with pytest.raises(ValueError):
        mk_traj((0, 0, 1, 0.0), (2, 0, 3, 0.0))


def test_trajectory_must_be_nonempty():
    with pytest.raises(ValueError):
        Trajectory(samples=[])


def test_trajectory_columns_match_samples():
    traj = mk_traj((0, 1, 2, -1.0), (2, 3, 2, 0.5), (2, 0, 4, 1.0), terminal=True)
    same = Trajectory.from_columns([0, 2, 2], [1, 3, 0], [2, 2, 4], [-1.0, 0.5, 1.0],
                                   terminal=True)
    for t in (traj, same):
        assert len(t) == len(t.samples) == 3
        assert list(t.samples) == [TransitionSample(0, 1, 2, -1.0), TransitionSample(2, 3, 2, 0.5),
                                   TransitionSample(2, 0, 4, 1.0)]
        assert t.samples[-1] == TransitionSample(2, 0, 4, 1.0)
        assert t.samples[:1] == [TransitionSample(0, 1, 2, -1.0)]
        assert list(t.transitions()) == [(0, 1, 2, -1.0), (2, 3, 2, 0.5), (2, 0, 4, 1.0)]


@pytest.mark.parametrize("columns", [
    ([], [], [], []),                                   # empty
    ([0, 2], [0, 0], [1, 3], [0.0, 0.0]),               # does not chain
    ([0, 1], [0], [1, 2], [0.0, 0.0]),                  # ragged
    ([0], [0], [1], [float("nan")]),                    # non-finite reward
    ([0], [0], [1], [float("-inf")]),
])
def test_trajectory_columns_validated(columns):
    with pytest.raises(ValueError):
        Trajectory.from_columns(*columns)


def test_vanilla_vi_one_step_to_terminal():
    g = EmpiricalGraph(gamma=0.99)
    record(g, (0, 0, 1, 1.0))
    res = vanilla_value_iteration(g)
    assert res.values[0] == pytest.approx(1.0, abs=1e-12)
    assert res.values[1] == 0.0
    assert res.converged


def test_vanilla_vi_chain():
    g = EmpiricalGraph(gamma=0.99)
    record(g, (0, 0, 1, 0.0), (1, 0, 2, 1.0))
    res = vanilla_value_iteration(g)
    assert res.values[1] == pytest.approx(1.0, abs=1e-12)
    assert res.values[0] == pytest.approx(0.99, abs=1e-12)


def _oracle_fixed_point(graph: EmpiricalGraph, sweeps: int = 6000) -> dict:
    """Independent brute-force Bellman fixed point by long synchronous iteration."""
    v = {s: 0.0 for s in graph.nodes}
    for _ in range(sweeps):
        nxt = {}
        for s in graph.nodes:
            candidates = [r + graph.gamma * v[n]
                          for (src, _a), (n, r) in graph.edges.items() if src == s]
            nxt[s] = max(candidates) if candidates else 0.0
        v = nxt
    return v


def test_vanilla_vi_matches_bruteforce_on_random_graph():
    rng = random.Random(7)
    g = EmpiricalGraph(gamma=0.95)
    for s in range(20):
        for a in range(3):
            g.add_sample(s, a, rng.randrange(20), round(rng.uniform(-1, 1), 6))
    expected = _oracle_fixed_point(g)
    res = vanilla_value_iteration(g, max_iter=20_000, delta=1e-13)
    assert res.converged
    for s in g.nodes:
        assert res.values[s] == pytest.approx(expected[s], abs=1e-9)


def test_vanilla_vi_monotone_with_nonnegative_rewards():
    rng = random.Random(3)
    g = EmpiricalGraph(gamma=0.9)
    for s in range(12):
        for a in range(2):
            g.add_sample(s, a, rng.randrange(12), round(rng.uniform(0, 1), 6))
    prev = {s: 0.0 for s in g.nodes}
    # re-run with growing budgets; values never decrease sweep over sweep
    for k in range(1, 12):
        res = vanilla_value_iteration(g, max_iter=k, delta=0.0)
        for s in g.nodes:
            assert res.values[s] >= prev[s] - 1e-12
        prev = res.values


def test_vanilla_vi_contracts_toward_fixed_point():
    rng = random.Random(11)
    g = EmpiricalGraph(gamma=0.9)
    for s in range(10):
        for a in range(2):
            g.add_sample(s, a, rng.randrange(10), round(rng.uniform(-1, 1), 6))
    star = vanilla_value_iteration(g, max_iter=30_000, delta=1e-14).values
    prev_dist = None
    for k in range(1, 25):
        res = vanilla_value_iteration(g, max_iter=k, delta=0.0)
        dist = max(abs(res.values[s] - star[s]) for s in g.nodes)
        if prev_dist is not None:
            assert dist <= g.gamma * prev_dist + 1e-12
        prev_dist = dist


def test_vanilla_vi_reports_non_convergence():
    g = EmpiricalGraph(gamma=0.99)
    record(g, (0, 0, 1, 1.0), (1, 0, 0, 1.0))
    res = vanilla_value_iteration(g, max_iter=3, delta=1e-12)
    assert not res.converged
    assert res.iterations_run == 3
    assert res.final_delta > 1e-12


def _edge_list_loop(graph: EmpiricalGraph, max_iter: int, delta: float):
    """The per-state edge-list loop that the grouped sweep replaced: the bitwise reference."""
    states = sorted(graph.nodes)
    index = {s: i for i, s in enumerate(states)}
    outgoing = [[] for _ in states]
    for (s, _a), (nxt, r) in graph.edges.items():
        outgoing[index[s]].append((index[nxt], r))
    gamma = graph.gamma
    v = [0.0] * len(states)
    final_delta = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        v_next = [0.0] * len(states)
        worst = 0.0
        for i, edges in enumerate(outgoing):
            if not edges:
                continue
            best = max(r + gamma * v[j] for j, r in edges)
            v_next[i] = best
            change = abs(best - v[i])
            if change > worst:
                worst = change
        v = v_next
        final_delta = worst
        if worst < delta:
            converged = True
            break
    return {s: v[index[s]] for s in states}, iterations, final_delta, converged


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       budget=st.sampled_from([(20_000, 1e-13), (7, 0.0), (1, 1e-6)]))
@example(seed=3, budget=(7, 0.0))
def test_vanilla_vi_is_bitwise_equal_to_the_edge_list_loop(seed, budget):
    rng = random.Random(seed)
    g = EmpiricalGraph(gamma=rng.choice([0.0, 0.5, 0.9, 0.99]))
    n = rng.randint(1, 25)
    g.nodes.update(range(n))  # some states never get an edge and keep 0.0
    rewards = [-1.0, -0.0, 0.0, 0.5, 1.0]  # repeated rewards make tied backups
    for _ in range(rng.randint(0, 3 * n)):
        reward = rng.choice(rewards) if rng.random() < 0.5 else rng.uniform(-1, 1)
        g.edges.setdefault((rng.randrange(n), rng.randrange(6)),
                           (rng.randrange(n), reward))
    max_iter, delta = budget
    res = vanilla_value_iteration(g, max_iter=max_iter, delta=delta)
    values, iterations, final_delta, converged = _edge_list_loop(g, max_iter, delta)
    assert list(res.values) == list(values)
    assert (struct.pack(f"<{n}d", *res.values.values())
            == struct.pack(f"<{n}d", *values.values()))
    assert (res.iterations_run, res.converged) == (iterations, converged)
    assert struct.pack("<d", res.final_delta) == struct.pack("<d", final_delta)


@pytest.mark.parametrize("first", [-0.0, 0.0])
def test_vanilla_vi_keeps_the_first_of_tied_backups(first):
    # gamma 0 and V(1) = -1 make the two backups of state 0 -0.0 and 0.0 in
    # the second sweep; equal values, so only the tie rule picks the sign
    g = EmpiricalGraph(gamma=0.0)
    g.add_sample(0, 0, 1, first)
    g.add_sample(0, 1, 1, -first)
    g.add_sample(1, 0, 2, -1.0)
    res = vanilla_value_iteration(g, max_iter=2, delta=0.0)
    values, _iterations, _delta, _converged = _edge_list_loop(g, 2, 0.0)
    assert struct.pack("<d", res.values[0]) == struct.pack("<d", values[0])
    assert struct.pack("<d", res.values[0]) == struct.pack("<d", first)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5),
                          st.sampled_from([-1.0, 0.0, 0.5, 1.0])),
                min_size=1, max_size=40))
def test_determinism_invariant_under_adversarial_streams(samples):
    """After any sequence of recorded samples, each (s, a) has one outcome."""
    g = EmpiricalGraph()
    for s, a, nxt, r in samples:
        try:
            g.add_sample(s, a, nxt, r)
        except DeterminismViolation:
            pass
    # every pair keeps the outcome it was first recorded with
    first = {}
    for s, a, nxt, r in samples:
        first.setdefault((s, a), (nxt, r))
    assert g.edges == first
    assert g.nodes == {x for (s, _a), (nxt, _r) in first.items() for x in (s, nxt)}


def test_dot_export_mentions_all_edges():
    g = EmpiricalGraph()
    record(g, (0, 0, 1, 0.5), (1, 1, 2, -1.0))
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert dot.count("->") == 2
    assert '"0/0.5"' in dot and '"1/-1"' in dot
