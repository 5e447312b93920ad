"""Shared fixtures: trajectory builders, random graphs, invariant checks,
and the step-by-step reference ingest."""

from __future__ import annotations

import random

import pytest

from highway_rl.errors import DeterminismViolation
from highway_rl.highway_graph import HighwayGraph, highway_reward
from highway_rl.trainer import _topology_signature
from highway_rl.transition_model import Trajectory, TransitionSample
from highway_rl.value_iteration import value_update_loop


def mk_traj(*steps, terminal=False) -> Trajectory:
    """Build a trajectory from (state, action, next_state, reward) tuples."""
    return Trajectory([TransitionSample(*s) for s in steps], terminal=terminal)


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
    for _ in range(episodes):
        s = rng.randrange(n_states)
        samples = []
        for _ in range(rng.randint(1, max_len)):
            a = rng.randrange(action_count)
            nxt, r = table[(s, a)]
            samples.append(TransitionSample(s + 10 ** 6, a, nxt + 10 ** 6, r))
            s = nxt
        out.append(Trajectory(samples, terminal=False))
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
    # each (state, action) is one step of one highway, and interior states
    # have at most one in and one out edge in the expanded graph
    steps = list(graph.transitions())
    assert len({(s, a) for s, a, _nxt, _r in steps}) == len(steps)
    in_deg: dict = {}
    out_deg: dict = {}
    for s, _a, nxt, _r in steps:
        out_deg[s] = out_deg.get(s, 0) + 1
        in_deg[nxt] = in_deg.get(nxt, 0) + 1
    for st in graph.membership:
        assert out_deg.get(st, 0) <= 1
        assert in_deg.get(st, 0) <= 1


def one_sweep(graph: HighwayGraph, v_prev: dict):
    """One synchronous sweep from v_prev; returns its (V, Q) maps."""
    tables = value_update_loop(graph, max_iter=1, delta=0.0, v_init=v_prev)
    return tables.v, tables.q


# --------------------------------------------------- step-by-step reference ingest
#
# HighwayGraph._ingest visits only the steps that bring a new (state, action)
# pair.  The functions below are the rules it must agree with, applied to
# every step of an episode: the tests compare the two graph for graph.

def detect_within(steps) -> set:
    """Intersection candidates from a trajectory's own forks, merges, crossings.

    The scan keeps the visited prefix strictly before the current step, so a
    state that merely walks into previously seen territory (a dead-end bounce,
    a loop closure) does not itself get flagged; only genuinely branching
    states do.  The crossing case needs both endpoints already visited and a
    transition that was never traversed.
    """
    visited, seen, flags = set(), set(), set()
    for s, a, nxt, _r in steps:
        if s in visited and nxt not in visited:
            flags.add(s)            # forking off a revisited state
        if s not in visited and nxt in visited:
            flags.add(nxt)          # merging into a revisited state
        if s in visited and nxt in visited and (nxt, a, s) not in seen:
            flags.add(s)            # crossing: new transition between seen states
            flags.add(nxt)
        visited.add(s)
        seen.add((nxt, a, s))
    return flags


def detect_against(steps, graph: HighwayGraph) -> set:
    """Intersection candidates where a trajectory meets the existing graph."""
    flags = set()
    for s, a, nxt, _r in steps:
        s_on = graph.contains_state(s)
        n_on = graph.contains_state(nxt)
        if s_on and not n_on:
            flags.add(s)            # exit point out of the graph
        if not s_on and n_on:
            flags.add(nxt)          # entry point into the graph
        if s_on and n_on and not graph.has_transition(s, a, nxt):
            flags.add(s)            # both on graph, connecting edge missing
            flags.add(nxt)
    return flags


def reference_ingest(graph: HighwayGraph, traj: Trajectory):
    """Fold one episode into graph by scanning every step.

    A conflicting step raises before the graph changes, with the pairs this
    episode added to `observed` taken out again.
    """
    observed = graph.observed
    added = []
    for s, a, nxt, r in traj.transitions():
        outcome = (nxt, r)
        prev = observed.setdefault((s, a), outcome)
        if prev is outcome:
            added.append((s, a))
        elif prev != outcome:
            for key in added:
                del observed[key]
            raise DeterminismViolation(s, a, prev, outcome)
    steps = [step for step in traj.transitions() if step[0] != step[2]]
    if not steps:
        graph.make_intersection(traj.from_states[0])
        return
    flags = detect_within(steps) | detect_against(steps, graph)
    flags.add(steps[0][0])
    flags.add(steps[-1][2])
    cuts = [0]
    cuts.extend(pos for pos in range(1, len(steps))
                if steps[pos][0] in flags or steps[pos][0] in graph.intersections)
    cuts.append(len(steps))
    graph.make_intersection(steps[0][0])
    graph.make_intersection(steps[-1][2])
    for pos in cuts[1:-1]:
        graph.make_intersection(steps[pos][0])
    for p, q in zip(cuts, cuts[1:]):
        _reference_add_segment(graph, steps[p:q])


def _reference_add_segment(graph: HighwayGraph, seg):
    """Add one cut of an episode as a highway, unless an equal one exists."""
    from_state, first = seg[0][0], seg[0][1]
    to_state = seg[-1][2]
    _states, actions, step_states, rewards = zip(*seg)
    existing = graph.out_edges.get(from_state, {}).get(first)
    if existing is not None:
        h = graph.highways[existing]
        same = (h.to_state == to_state and h.actions == actions
                and h.step_states == step_states and h.step_rewards == rewards)
        if not same:
            raise DeterminismViolation(from_state, first,
                                       (h.to_state, h.actions), (to_state, actions))
        return
    graph._insert_highway(from_state, to_state, actions, rewards, step_states)


def reference_assemble(graph: HighwayGraph, trajs) -> HighwayGraph:
    """HighwayGraph.assemble with reference_ingest in place of _ingest."""
    for traj in trajs:
        traj.validate()
        reference_ingest(graph, traj)
    return graph


def graph_state(g: HighwayGraph):
    """Everything ingestion writes, with `observed` in insertion order."""
    return (set(g.intersections), dict(g.highways), dict(g.membership),
            {s: dict(slots) for s, slots in g.out_edges.items()},
            list(g.observed.items()), g._next_hid, _topology_signature(g))


@pytest.fixture
def rng():
    return random.Random(12345)
