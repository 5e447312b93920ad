"""Empirical graph bookkeeping and the vanilla value-iteration oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_traj
from highway_rl.errors import DeterminismViolation
from highway_rl.transition_model import (EmpiricalGraph, Trajectory, TransitionSample,
                                         empirical_reward, empirical_transition,
                                         record_trajectory, to_dot,
                                         vanilla_value_iteration)


def test_record_single_step():
    g = EmpiricalGraph(gamma=0.99)
    record_trajectory(g, mk_traj((0, 0, 1, 1.0)))
    assert g.num_nodes() == 2
    assert g.num_edges() == 1
    assert g.edges[(0, 0)] == [1, 1.0, 1]


def test_record_twice_increments_count_only():
    g = EmpiricalGraph()
    traj = mk_traj((0, 0, 1, 1.0))
    record_trajectory(g, traj)
    record_trajectory(g, traj)
    assert g.num_nodes() == 2
    assert g.num_edges() == 1
    assert g.edges[(0, 0)][2] == 2


def test_conflicting_next_state_raises():
    g = EmpiricalGraph()
    record_trajectory(g, mk_traj((0, 0, 1, 1.0)))
    with pytest.raises(DeterminismViolation):
        record_trajectory(g, mk_traj((0, 0, 2, 1.0)))


def test_conflicting_reward_raises():
    g = EmpiricalGraph()
    record_trajectory(g, mk_traj((0, 0, 1, 1.0)))
    with pytest.raises(DeterminismViolation):
        record_trajectory(g, mk_traj((0, 0, 1, 0.5)))


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
        assert t.states == [0, 2, 2, 4]
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


def test_empirical_transition_binary():
    g = EmpiricalGraph()
    record_trajectory(g, mk_traj((0, 0, 1, 1.0)))
    assert empirical_transition(g, 1, 0, 0) == 1.0
    assert empirical_transition(g, 1, 3, 0) == 0.0   # unseen pair
    assert empirical_transition(g, 2, 0, 0) == 0.0   # wrong next state


def test_empirical_reward_defaults_to_zero():
    g = EmpiricalGraph()
    record_trajectory(g, mk_traj((0, 0, 1, -0.04)))
    record_trajectory(g, mk_traj((1, 2, 3, 1.0), terminal=True))
    assert empirical_reward(g, 0, 0) == -0.04
    assert empirical_reward(g, 1, 2) == 1.0
    assert empirical_reward(g, 5, 1) == 0.0


def test_vanilla_vi_one_step_to_terminal():
    g = EmpiricalGraph(gamma=0.99)
    record_trajectory(g, mk_traj((0, 0, 1, 1.0), terminal=True))
    res = vanilla_value_iteration(g)
    assert res.values[0] == pytest.approx(1.0, abs=1e-12)
    assert res.values[1] == 0.0
    assert res.converged


def test_vanilla_vi_chain():
    g = EmpiricalGraph(gamma=0.99)
    record_trajectory(g, mk_traj((0, 0, 1, 0.0), (1, 0, 2, 1.0), terminal=True))
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
                          for (src, _a), (n, r, _c) in graph.edges.items() if src == s]
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
    record_trajectory(g, mk_traj((0, 0, 1, 1.0), (1, 0, 0, 1.0)))
    res = vanilla_value_iteration(g, max_iter=3, delta=1e-12)
    assert not res.converged
    assert res.iterations_run == 3
    assert res.final_delta > 1e-12


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
    seen = {}
    for (s, a), (nxt, r, _c) in g.edges.items():
        assert (s, a) not in seen
        seen[(s, a)] = (nxt, r)
    # queries stay binary
    for (s, a), (nxt, _r, _c) in g.edges.items():
        assert empirical_transition(g, nxt, a, s) == 1.0
        assert empirical_transition(g, nxt + 1000, a, s) == 0.0


def test_dot_export_mentions_all_edges():
    g = EmpiricalGraph()
    record_trajectory(g, mk_traj((0, 0, 1, 0.5), (1, 1, 2, -1.0)))
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert dot.count("->") == 2
    assert '"0/0.5"' in dot and '"1/-1"' in dot
