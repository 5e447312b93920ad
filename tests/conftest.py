"""Shared fixtures: trajectory builders, random graphs, invariant checks,
and the step-by-step reference ingest."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from highway_rl.bellman import _SweepEngine
from highway_rl.errors import DeterminismViolation
from highway_rl.highway_graph import HighwayGraph
from highway_rl.transition_model import Trajectory


def mk_traj(*steps, terminal=False) -> Trajectory:
    """Build a trajectory from (state, action, next_state, reward) tuples."""
    return Trajectory.from_columns(*map(list, zip(*steps)), terminal=terminal)


def highway_steps(graph: HighwayGraph):
    """(state, action, next_state, reward) for every step of every highway,
    walked from the highways' step sequences."""
    for h in graph.highways.values():
        yield from zip((h.from_state,) + h.interior, h.actions, h.step_states,
                       h.step_rewards)


def random_highway_graph(rng: random.Random, max_intersections: int = 50,
                         action_count: int = 4, gamma: float = 0.99,
                         allow_self_loops: bool = True,
                         max_out_degree: int = 3) -> HighwayGraph:
    """Random deterministic highway graph with cycles and self-loop highways.

    Each intersection gets no out-highway (about 15%) or 1 to
    min(max_out_degree, action_count) of them.
    """
    n = rng.randint(2, max_intersections)
    graph = HighwayGraph(gamma=gamma)
    inter = [rng.getrandbits(63) for _ in range(n)]
    for s in inter:
        graph.make_intersection(s)
    next_interior = iter(range(10 ** 12, 10 ** 13))
    for i, s in enumerate(inter):
        if rng.random() < 0.15:
            continue  # leave some terminals with no outgoing highways
        degree = rng.randint(1, min(max_out_degree, action_count))
        for a in rng.sample(range(action_count), degree):
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


def corridor_highway_graph(rng: random.Random, gamma: float = 0.9) -> HighwayGraph:
    """Random hubs joined by two-way corridor chains.

    A chain runs between two hubs or back to its own hub (then through at
    least two cells), and up to two rings of corridor intersections stand
    alone, with no hub to keep (a graph may have no hub at all).  Some hubs also get one-way highways
    between them, and some graphs a terminal that a hub leads into.  Steps
    cost, but in half of the graphs a fifth of the two-way links pay both
    ways, enough that going back and forth beats going through.
    """
    g = HighwayGraph(gamma=gamma)
    ids = iter(range(1, 10 ** 9))
    actions: dict = {}
    paying_share = rng.choice([0.0, 0.2])

    def link(s, to, paying=False):
        a = actions[s] = actions.get(s, -1) + 1
        length = rng.randint(1, 3)
        rewards = [rng.uniform(0.5, 1.0) if paying else round(rng.uniform(-1.0, -0.05), 3)
                   for _ in range(length)]
        g.add_highway(s, to, [a] + [0] * (length - 1), rewards,
                      [next(ids) for _ in range(length - 1)])

    def two_way(path):
        for x, y in zip(path, path[1:]):
            paying = rng.random() < paying_share
            link(x, y, paying)
            link(y, x, paying)

    hubs = [next(ids) for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(1, 4) if hubs else 0):
        start = rng.choice(hubs)
        cells = [next(ids) for _ in range(rng.randint(1, 8))]
        end = rng.choice(hubs)
        if end == start and len(cells) == 1:
            # a lone cell would lead only to the hub, so it is no corridor;
            # the second cell takes no rng draw, so other seeds are unchanged
            cells.append(next(ids))
        two_way([start, *cells, end])
    for _ in range(rng.randint(0 if hubs else 1, 2)):
        ring = [next(ids) for _ in range(rng.randint(3, 6))]
        two_way(ring + ring[:1])
    for _ in range(rng.randint(0, 3) if hubs else 0):
        link(rng.choice(hubs), rng.choice(hubs))
    if hubs and rng.random() < 0.5:
        link(rng.choice(hubs), next(ids))
    return g


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
        froms, actions, nexts, rewards = [], [], [], []
        for _ in range(rng.randint(1, max_len)):
            a = rng.randrange(action_count)
            nxt, r = table[(s, a)]
            froms.append(s + 10 ** 6)
            actions.append(a)
            nexts.append(nxt + 10 ** 6)
            rewards.append(r)
            s = nxt
        out.append(Trajectory.from_columns(froms, actions, nexts, rewards))
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
        cached = sum(r * graph.gamma ** t for t, r in enumerate(h.step_rewards, start=1))
        assert abs(h.cached_reward - cached) <= 1e-12
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
    steps = list(highway_steps(graph))
    assert len({(s, a) for s, a, _nxt, _r in steps}) == len(steps)
    # ingestion's premise: every step of the graph is in the determinism memory
    assert all(graph.observed.get((s, a)) == (nxt, r) for s, a, nxt, r in steps)
    in_deg: dict = {}
    out_deg: dict = {}
    for s, _a, nxt, _r in steps:
        out_deg[s] = out_deg.get(s, 0) + 1
        in_deg[nxt] = in_deg.get(nxt, 0) + 1
    for st in graph.membership:
        assert out_deg.get(st, 0) <= 1
        assert in_deg.get(st, 0) <= 1


def contraction_cap(first_delta: float, delta: float, c: float) -> int:
    """The sweep cap a solver derives from its first sweep's change.

    Twice K = 1 + ceil(log(delta / first_delta) / log c), where c is the
    largest edge discount, and K = 2 when c = 0; one sweep when the first
    change is not finite.
    """
    if not math.isfinite(first_delta):
        return 1
    if c == 0.0:
        return 4
    return 2 * (1 + int(np.ceil((np.log(delta) - np.log(first_delta)) / np.log(c))))


def one_sweep(graph: HighwayGraph, v_prev: dict):
    """One synchronous sweep from v_prev (missing states at 0.0); returns
    its (V, Q) maps."""
    ids, src, dst, first, path_return, gamma_pow_len = graph.edge_columns()
    eng = _SweepEngine(len(ids), src, dst, path_return, gamma_pow_len)
    states = ids.tolist()
    v0 = np.array([v_prev.get(s, 0.0) for s in states], np.float64)
    v, q = eng.sweep(v0[eng.order])
    return (dict(zip(states, v[eng._v_perm].tolist())),
            dict(zip(zip(ids[src].tolist(), first.tolist()), q[eng._q_perm].tolist())))


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
    next_of = {(s, a): nxt for s, a, nxt, _r in highway_steps(graph)}
    for s, a, nxt, _r in steps:
        s_on = graph.contains_state(s)
        n_on = graph.contains_state(nxt)
        if s_on and not n_on:
            flags.add(s)            # exit point out of the graph
        if not s_on and n_on:
            flags.add(nxt)          # entry point into the graph
        if s_on and n_on and next_of.get((s, a)) != nxt:
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
    if traj.terminal:
        graph.terminals.add(traj.next_states[-1])
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
    graph._insert_highway(from_state, actions, rewards, step_states)


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
            list(g.observed.items()), set(g.terminals), g._next_hid)


@pytest.fixture
def rng():
    return random.Random(12345)
