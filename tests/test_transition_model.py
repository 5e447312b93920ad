"""Empirical graph bookkeeping and the vanilla value-iteration oracle."""

import math
import random
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import contraction_cap, mk_traj
from highway_rl.bellman import _SweepEngine
from highway_rl.errors import DeterminismViolation
from highway_rl.highway_graph import HighwayGraph, expand_to_empirical
from highway_rl.transition_model import (EmpiricalGraph, Trajectory, TransitionSample, to_dot,
                                         vanilla_value_iteration)
from highway_rl.value_iteration import value_update_loop


def empirical(gamma: float, *steps) -> EmpiricalGraph:
    """The graph of the given (state, action, next_state, reward) steps."""
    return EmpiricalGraph(gamma, {x for s, _a, nxt, _r in steps for x in (s, nxt)},
                          {(s, a): (nxt, r) for s, a, nxt, r in steps})


def record(*steps) -> HighwayGraph:
    """A highway graph that ingested each step as a one-step episode."""
    return HighwayGraph(gamma=0.99).assemble(mk_traj(step) for step in steps)


# The samples are stored once, in the highway graph's `observed`; the
# empirical graph is read off it.

def test_record_single_step():
    g = expand_to_empirical(record((0, 0, 1, 1.0)))
    assert g.nodes == {0, 1}
    assert g.num_edges() == 1
    assert g.edges[(0, 0)] == (1, 1.0)


def test_record_twice_keeps_one_edge():
    g = expand_to_empirical(record((0, 0, 1, 1.0), (0, 0, 1, 1.0)))
    assert g.nodes == {0, 1}
    assert g.edges == {(0, 0): (1, 1.0)}


def test_conflicting_next_state_raises():
    g = record((0, 0, 1, 1.0))
    with pytest.raises(DeterminismViolation):
        g.assemble([mk_traj((0, 0, 2, 1.0))])
    assert expand_to_empirical(g).edges == {(0, 0): (1, 1.0)}


def test_conflicting_reward_raises():
    g = record((0, 0, 1, 1.0))
    with pytest.raises(DeterminismViolation):
        g.assemble([mk_traj((0, 0, 1, 0.5))])
    assert expand_to_empirical(g).edges == {(0, 0): (1, 1.0)}


@pytest.mark.parametrize("nodes, missing", [({0}, 1), ({1}, 0)], ids=["next-state", "state"])
def test_vanilla_vi_names_an_edge_state_that_is_not_a_node(nodes, missing):
    g = EmpiricalGraph(0.99, nodes, {(0, 0): (1, 1.0)})
    with pytest.raises(ValueError, match=f"^edge state {missing:#x} is not in the graph's nodes$"):
        vanilla_value_iteration(g)


def test_trajectory_must_chain():
    with pytest.raises(ValueError):
        mk_traj((0, 0, 1, 0.0), (2, 0, 3, 0.0))


def test_trajectory_must_be_nonempty():
    with pytest.raises(ValueError):
        Trajectory(samples=[])


def test_trajectory_columns_match_samples():
    traj = Trajectory([TransitionSample(0, 1, 2, -1.0), TransitionSample(2, 3, 2, 0.5),
                       TransitionSample(2, 0, 4, 1.0)], terminal=True)
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


@pytest.mark.parametrize("rewards, accepted", [
    ([float("nan")], False),
    ([float("inf")], False),
    ([float("inf"), float("-inf")], False),      # the sum is NaN
    ([float("nan"), 10**400], False),            # the sum raises OverflowError
    ([1e308, 1e308], True),                      # the sum overflows, every reward is finite
    ([1.0, -2, 0.5], True),
])
def test_reward_finiteness_is_judged_reward_by_reward(rewards, accepted):
    n = len(rewards)
    columns = (list(range(n)), [0] * n, list(range(1, n + 1)), rewards)
    assert all(map(math.isfinite, rewards)) == accepted
    if accepted:
        assert Trajectory.from_columns(*columns).rewards == rewards
    else:
        with pytest.raises(ValueError, match="^reward must be finite$"):
            Trajectory.from_columns(*columns)


@pytest.mark.parametrize("reward", [10**400, "1.0", 1j])
def test_a_reward_that_is_not_a_real_float_raises_as_the_per_reward_check(reward):
    with pytest.raises((OverflowError, TypeError)) as expected:
        math.isfinite(reward)
    with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
        Trajectory.from_columns([0, 1], [0, 0], [1, 2], [0.5, reward])


def test_vanilla_vi_one_step_to_terminal():
    g = empirical(0.99, (0, 0, 1, 1.0))
    res = vanilla_value_iteration(g)
    assert res.values[0] == pytest.approx(1.0, abs=1e-12)
    assert res.values[1] == 0.0
    assert res.converged


def test_vanilla_vi_chain():
    g = empirical(0.99, (0, 0, 1, 0.0), (1, 0, 2, 1.0))
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
    g = empirical(0.95, *[(s, a, rng.randrange(20), round(rng.uniform(-1, 1), 6))
                          for s in range(20) for a in range(3)])
    expected = _oracle_fixed_point(g)
    res = vanilla_value_iteration(g, delta=1e-13)
    assert res.converged
    for s in g.nodes:
        assert res.values[s] == pytest.approx(expected[s], abs=1e-9)


def _sweeps_from_zero(graph: EmpiricalGraph, k: int) -> list[dict]:
    """V after each of k synchronous sweeps from zero, on the solvers' engine."""
    states = sorted(graph.nodes)
    index = {s: i for i, s in enumerate(states)}
    edges = sorted((index[s], index[nxt], r) for (s, _a), (nxt, r) in graph.edges.items())
    src, dst, reward = zip(*edges)
    eng = _SweepEngine(len(states), np.array(src, np.intp), np.array(dst, np.intp),
                       np.array(reward), np.full(len(edges), graph.gamma))
    v, out = np.zeros(eng.n), []
    for _ in range(k):
        v, _q = eng.sweep(v)
        out.append(dict(zip(states, v[eng._v_perm].tolist())))
    return out


def test_vanilla_vi_monotone_with_nonnegative_rewards():
    rng = random.Random(3)
    g = empirical(0.9, *[(s, a, rng.randrange(12), round(rng.uniform(0, 1), 6))
                         for s in range(12) for a in range(2)])
    prev = {s: 0.0 for s in g.nodes}
    # values never decrease sweep over sweep
    for values in _sweeps_from_zero(g, 11):
        for s in g.nodes:
            assert values[s] >= prev[s] - 1e-12
        prev = values


def test_vanilla_vi_contracts_toward_fixed_point():
    rng = random.Random(11)
    g = empirical(0.9, *[(s, a, rng.randrange(10), round(rng.uniform(-1, 1), 6))
                         for s in range(10) for a in range(2)])
    star = vanilla_value_iteration(g, delta=1e-14).values
    prev_dist = None
    for values in _sweeps_from_zero(g, 24):
        dist = max(abs(values[s] - star[s]) for s in g.nodes)
        if prev_dist is not None:
            assert dist <= g.gamma * prev_dist + 1e-12
        prev_dist = dist


def test_vanilla_vi_converges_on_a_slow_cycle():
    # the fixed point is V(0) = 1 / (1 - gamma^2); at gamma 0.999 delta
    # needs 25,318 sweeps
    g = empirical(0.999, (0, 0, 1, 1.0), (1, 0, 0, 0.0))
    res = vanilla_value_iteration(g, delta=1e-11)
    assert res.converged and res.iterations_run == 25_318
    assert res.values[0] == pytest.approx(1 / (1 - 0.999 ** 2), abs=1e-8)


def test_vanilla_vi_reports_non_convergence():
    # rounding keeps max |dV| at 2.0e-15, above delta: the loop stops at the
    # cap that the first change (0.36) and gamma give, 2 * 3336 sweeps
    g = empirical(0.99, (0, 0, 1, 0.36), (1, 0, 0, -0.36))
    res = vanilla_value_iteration(g, delta=1e-15)
    assert not res.converged
    assert res.iterations_run == 6672
    assert res.final_delta >= 1e-15


def test_vanilla_vi_stops_at_once_on_a_nan_value():
    g = empirical(0.99, (0, 0, 1, 1.0), (1, 0, 0, float("nan")))
    res = vanilla_value_iteration(g, delta=1e-6)
    assert (res.iterations_run, res.converged) == (1, False)
    assert math.isnan(res.final_delta)


@pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
def test_solvers_reject_a_delta_they_cannot_stop_on(delta):
    # with delta <= 0 the loop would never stop; both solvers check alike
    g = empirical(0.99, (0, 0, 1, 1.0))
    with pytest.raises(ValueError, match="delta must be > 0"):
        vanilla_value_iteration(g, delta=delta)
    with pytest.raises(ValueError, match="delta must be > 0"):
        value_update_loop(HighwayGraph(gamma=0.99), delta=delta)


def _edge_list_loop(graph: EmpiricalGraph, delta: float):
    """A plain per-state loop over edge lists: the bitwise reference for vanilla
    VI, capped as the solver caps itself."""
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
    cap = 1
    while iterations < cap:
        iterations += 1
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
        if iterations == 1:
            cap = contraction_cap(worst, delta, gamma if graph.edges else 0.0)
    return {s: v[index[s]] for s in states}, iterations, final_delta, converged


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       delta=st.sampled_from([1e-13, 1e-6, 0.5]))
@example(seed=3, delta=0.5)
def test_vanilla_vi_is_bitwise_equal_to_the_edge_list_loop(seed, delta):
    rng = random.Random(seed)
    gamma = rng.choice([0.0, 0.5, 0.9, 0.99])
    n = rng.randint(1, 25)
    g = EmpiricalGraph(gamma, set(range(n)), {})  # some states never get an edge and keep 0.0
    rewards = [-1.0, -0.0, 0.0, 0.5, 1.0]  # repeated rewards make tied backups
    for _ in range(rng.randint(0, 3 * n)):
        reward = rng.choice(rewards) if rng.random() < 0.5 else rng.uniform(-1, 1)
        g.edges.setdefault((rng.randrange(n), rng.randrange(6)),
                           (rng.randrange(n), reward))
    res = vanilla_value_iteration(g, delta=delta)
    values, iterations, final_delta, converged = _edge_list_loop(g, delta)
    assert list(res.values) == list(values)
    assert (struct.pack(f"<{n}d", *res.values.values())
            == struct.pack(f"<{n}d", *values.values()))
    assert (res.iterations_run, res.converged) == (iterations, converged)
    assert struct.pack("<d", res.final_delta) == struct.pack("<d", final_delta)


@pytest.mark.parametrize("first, actions", [(-0.0, (0, 1)), (0.0, (0, 1)),
                                             (-0.0, (1, 0)), (0.0, (1, 0))],
                         ids=["-0.0", "0.0", "-0.0-descending", "0.0-descending"])
def test_vanilla_vi_keeps_the_first_of_tied_backups(first, actions):
    # gamma 0 and V(1) = -1 make the two backups of state 0 -0.0 and 0.0 in
    # the second sweep; equal values, so only the tie rule picks the sign.
    # The first recorded edge wins, whether or not it has the lower action.
    g = empirical(0.0, (0, actions[0], 1, first), (0, actions[1], 1, -first), (1, 0, 2, -1.0))
    res = vanilla_value_iteration(g, delta=1e-12)
    values, _iterations, _delta, _converged = _edge_list_loop(g, 1e-12)
    assert struct.pack("<d", res.values[0]) == struct.pack("<d", values[0])
    assert struct.pack("<d", res.values[0]) == struct.pack("<d", first)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5),
                          st.sampled_from([-1.0, 0.0, 0.5, 1.0])),
                min_size=1, max_size=40))
def test_determinism_invariant_under_adversarial_streams(samples):
    """After any sequence of recorded samples, each (s, a) has one outcome,
    and the empirical graph holds every pair that is no self-loop."""
    g = HighwayGraph(gamma=0.99)
    for step in samples:
        try:
            g.assemble([mk_traj(step)])
        except DeterminismViolation:
            pass
    # every pair keeps the outcome it was first recorded with
    first = {}
    for s, a, nxt, r in samples:
        first.setdefault((s, a), (nxt, r))
    assert g.observed == first
    emp = expand_to_empirical(g)
    assert emp.edges == {(s, a): out for (s, a), out in first.items() if out[0] != s}
    assert emp.nodes == {x for (s, _a), (nxt, _r) in first.items() for x in (s, nxt)}


def test_dot_export_mentions_all_edges():
    g = empirical(0.99, (0, 0, 1, 0.5), (1, 1, 2, -1.0))
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert dot.count("->") == 2
    assert '"0/0.5"' in dot and '"1/-1"' in dot
