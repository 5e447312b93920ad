"""Shared fixtures: trajectory builders, random graphs, invariant checks."""

from __future__ import annotations

import random

import pytest

from highway_rl.highway_graph import HighwayGraph, highway_reward
from highway_rl.transition_model import Trajectory, TransitionSample


def mk_traj(*steps, terminal=False, episode_seed=0) -> Trajectory:
    """Build a trajectory from (state, action, next_state, reward) tuples."""
    return Trajectory([TransitionSample(*s) for s in steps],
                      terminal=terminal, episode_seed=episode_seed)


def random_highway_graph(rng: random.Random, max_intersections: int = 50,
                         action_count: int = 4, gamma: float = 0.99,
                         allow_self_loops: bool = True) -> HighwayGraph:
    """Random deterministic highway graph with cycles and self-loop highways."""
    n = rng.randint(2, max_intersections)
    graph = HighwayGraph(gamma=gamma)
    inter = [rng.getrandbits(63) for _ in range(n)]
    for s in inter:
        graph.make_intersection(s)
    next_interior = iter(range(10 ** 12, 10 ** 13))
    for i, s in enumerate(inter):
        if rng.random() < 0.15:
            continue  # leave some terminals with no outgoing highways
        for a in rng.sample(range(action_count), rng.randint(1, min(3, action_count))):
            if allow_self_loops and rng.random() < 0.1:
                to = s
            else:
                to = inter[rng.randrange(n)]
            length = rng.randint(1, 6)
            interior = [next(next_interior) for _ in range(length - 1)]
            rewards = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(length)]
            actions = [a] + [rng.randrange(action_count) for _ in range(length - 1)]
            graph.add_highway(s, to, actions, rewards, interior)
    return graph


def random_deterministic_mdp(rng: random.Random, n_states: int = 12,
                             action_count: int = 3):
    """Random deterministic MDP as a dict (state, action) -> (next, reward)."""
    table = {}
    for s in range(n_states):
        for a in range(action_count):
            table[(s, a)] = (rng.randrange(n_states), round(rng.uniform(-1, 1), 6))
    return table


def random_walk_trajectories(rng: random.Random, table, n_states: int,
                             action_count: int, episodes: int,
                             max_len: int = 30) -> list[Trajectory]:
    """Trajectories from random walks over a deterministic MDP table."""
    out = []
    for e in range(episodes):
        s = rng.randrange(n_states)
        samples = []
        for _ in range(rng.randint(1, max_len)):
            a = rng.randrange(action_count)
            nxt, r = table[(s, a)]
            samples.append(TransitionSample(s + 10 ** 6, a, nxt + 10 ** 6, r))
            s = nxt
        out.append(Trajectory(samples, terminal=False, episode_seed=e))
    return out


def random_mdp_walks(rng: random.Random, episodes: int, max_len: int):
    """A random MDP of 3-12 states and 1-4 actions, plus random walks over it.

    Returns (table, action_count, trajectories).
    """
    table = random_deterministic_mdp(rng, n_states=rng.randint(3, 12),
                                     action_count=rng.randint(1, 4))
    n_states = max(s for s, _ in table) + 1
    action_count = max(a for _, a in table) + 1
    trajs = random_walk_trajectories(rng, table, n_states, action_count,
                                     episodes=episodes, max_len=max_len)
    return table, action_count, trajs


def check_graph_invariants(graph: HighwayGraph):
    """Structural invariants that must hold after any construction sequence."""
    seen_interior = {}
    for hid, h in graph.highways.items():
        assert h.length >= 1
        assert len(h.interior) == h.length - 1
        assert h.step_states[-1] == h.to_state
        assert h.from_state in graph.intersections
        assert h.to_state in graph.intersections
        assert abs(h.cached_reward - highway_reward(h.step_rewards, graph.gamma)) <= 1e-12
        for offset, st in enumerate(h.interior, start=1):
            assert st not in graph.intersections, "interior state is an intersection"
            assert st not in seen_interior, "interior state in two highways"
            seen_interior[st] = (hid, offset)
            assert graph.membership[st] == (hid, offset)
    assert seen_interior.keys() == graph.membership.keys()
    # outgoing first actions are unique per intersection by construction
    for s, slots in graph.out_edges.items():
        for a, hid in slots.items():
            h = graph.highways[hid]
            assert h.from_state == s and h.first_action == a
    # interior states have at most one in and one out edge in the expanded graph
    in_deg: dict = {}
    out_deg: dict = {}
    for (s, _a), (nxt, _r) in graph.edge_index.items():
        out_deg[s] = out_deg.get(s, 0) + 1
        in_deg[nxt] = in_deg.get(nxt, 0) + 1
    for st in graph.membership:
        assert out_deg.get(st, 0) <= 1
        assert in_deg.get(st, 0) <= 1


@pytest.fixture
def rng():
    return random.Random(12345)
