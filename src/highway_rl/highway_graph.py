"""Compressed highway graph: intersection states joined by non-branching paths.

A highway is a maximal run of single-successor transitions between two
intersection states, stored as one edge with its full action/reward step
sequence and a cached discounted reward.  The graph is grown incrementally
from trajectories: new intersections are detected against the trajectory
itself and against the existing graph, existing highways are split when one
of their interior states is promoted, and the remaining sub-trajectories
become highways.  An episode that brings nothing new (every step already
observed with the same outcome, both endpoints already intersections) is
recognised after one dictionary lookup per step and skipped: ingesting it in
full would leave the graph exactly as it is.

The single-step transitions behind the highways are not stored a second
time: `transitions()` yields them from the highways' step sequences, and
`has_transition` finds one through the out-edge and membership indexes.

Single-step self-loop samples (wall bumps, illegal no-op actions) are kept
in the determinism memory but excluded from the graph structure: embedding
them would force every bumped state to become an intersection and would
break the one-location-per-interior-state index.  Their rewards are
strictly suboptimal in every supported environment, so dropping them leaves
optimal values untouched.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

from .errors import DeterminismViolation, NotInterior
from .transition_model import EmpiricalGraph, StateId, ActionId, Trajectory

INTERSECTION = "intersection"
ON_HIGHWAY = "on_highway"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Location:
    """Where a state lives: an intersection, inside a highway, or unseen."""

    kind: str
    highway: int | None = None
    offset: int | None = None


def highway_reward(step_rewards, gamma: float) -> float:
    """Cached aggregate reward of a highway: sum of r_t * gamma^t, t from 1."""
    if not step_rewards:
        raise ValueError("step_rewards must be non-empty")
    total = 0.0
    g = gamma
    for r in step_rewards:
        total += r * g
        g *= gamma
    return total


def path_return(step_rewards, gamma: float) -> float:
    """Discounted return along the steps with the first reward undiscounted."""
    total = 0.0
    g = 1.0
    for r in step_rewards:
        total += r * g
        g *= gamma
    return total


@dataclass(frozen=True)
class Highway:
    """One compressed non-branching path between two intersections."""

    hid: int
    from_state: StateId
    to_state: StateId
    actions: tuple[ActionId, ...]
    step_rewards: tuple[float, ...]
    step_states: tuple[StateId, ...]   # state reached after each step; last == to_state
    cached_reward: float               # discount exponent starts at 1
    path_return: float                 # discount exponent starts at 0
    gamma_pow_len: float

    @property
    def length(self) -> int:
        return len(self.actions)

    @property
    def first_action(self) -> ActionId:
        return self.actions[0]

    @property
    def interior(self) -> tuple[StateId, ...]:
        """States strictly between the endpoints (length - 1 entries)."""
        return self.step_states[:-1]


class HighwayGraph:
    """Incrementally maintained highway graph over sampled transitions."""

    def __init__(self, gamma: float = 0.99):
        if not (0.0 <= gamma < 1.0):
            raise ValueError("gamma must be in [0, 1)")
        self.gamma = gamma
        self.intersections: set[StateId] = set()
        self.highways: dict[int, Highway] = {}
        # intersection -> {first_action: highway id}; uniqueness is forced by determinism
        self.out_edges: dict[StateId, dict[ActionId, int]] = {}
        # interior state -> (highway id, offset in [1, length-1])
        self.membership: dict[StateId, tuple[int, int]] = {}
        # every sample ever ingested, self-loops included (determinism guardrail)
        self.observed: dict[tuple[StateId, ActionId], tuple[StateId, float]] = {}
        self._next_hid = 0

    # ------------------------------------------------------------------ queries

    def contains_state(self, s: StateId) -> bool:
        return s in self.intersections or s in self.membership

    def states(self) -> set[StateId]:
        return self.intersections | self.membership.keys()

    def transitions(self):
        """(state, action, next_state, reward) for every step of every highway."""
        for h in self.highways.values():
            yield from zip((h.from_state,) + h.interior, h.actions, h.step_states,
                           h.step_rewards)

    def has_transition(self, s: StateId, action: ActionId, nxt: StateId) -> bool:
        """True when some highway steps from s by action to nxt."""
        hid, k = self.membership.get(s) or (self.out_edges.get(s, {}).get(action), 0)
        if hid is None:
            return False
        h = self.highways[hid]
        return h.actions[k] == action and h.step_states[k] == nxt

    # ------------------------------------------------------------- construction

    def _new_hid(self) -> int:
        hid = self._next_hid
        self._next_hid += 1
        return hid

    def make_intersection(self, s: StateId):
        """Promote a state to an intersection, splitting its highway if interior."""
        if s in self.intersections:
            return
        loc = self.membership.get(s)
        if loc is not None:
            self.split_highway(loc[0], s)
        else:
            self.intersections.add(s)

    def _insert_highway(self, from_state: StateId, to_state: StateId,
                        actions: tuple, step_rewards: tuple, step_states: tuple) -> int:
        if not actions:
            raise ValueError("highway must have length >= 1")
        if from_state not in self.intersections:
            raise ValueError(f"highway source {from_state:#x} is not an intersection")
        first = actions[0]
        slot = self.out_edges.setdefault(from_state, {})
        if first in slot:
            raise ValueError("outgoing first action already taken")
        hid = self._new_hid()
        h = Highway(
            hid=hid, from_state=from_state, to_state=to_state,
            actions=tuple(actions), step_rewards=tuple(step_rewards),
            step_states=tuple(step_states),
            cached_reward=highway_reward(step_rewards, self.gamma),
            path_return=path_return(step_rewards, self.gamma),
            gamma_pow_len=self.gamma ** len(actions),
        )
        for offset, st in enumerate(h.interior, start=1):
            if st in self.intersections or st in self.membership:
                raise RuntimeError(f"internal: interior state {st:#x} already placed")
            self.membership[st] = (hid, offset)
        slot[first] = hid
        self.highways[hid] = h
        return hid

    def add_highway(self, from_state: StateId, to_state: StateId, actions,
                    rewards, interior=()) -> int:
        """Directly add a highway (fixture/builder path, not trajectory ingestion).

        interior must list the length-1 states strictly between the endpoints.
        Both endpoints are promoted to intersections.
        """
        actions = tuple(actions)
        rewards = tuple(float(r) for r in rewards)
        interior = tuple(interior)
        if len(rewards) != len(actions):
            raise ValueError("rewards and actions must have equal length")
        if len(interior) != len(actions) - 1:
            raise ValueError("interior must have length - 1 states")
        self.make_intersection(from_state)
        self.make_intersection(to_state)
        step_states = interior + (to_state,)
        return self._insert_highway(from_state, to_state, actions, rewards, step_states)

    def split_highway(self, hid: int, at: StateId) -> tuple[int, int]:
        """Split a highway at one of its interior states, promoting it.

        Returns the two replacement highway ids (upstream, downstream); the
        original id is retired.
        """
        h = self.highways.get(hid)
        if h is None:
            raise KeyError(f"no highway with id {hid}")
        loc = self.membership.get(at)
        if loc is None or loc[0] != hid:
            raise NotInterior(f"state {at:#x} is not interior to highway {hid}")
        k = loc[1]
        for st in h.interior:
            del self.membership[st]
        del self.highways[hid]
        del self.out_edges[h.from_state][h.first_action]
        self.intersections.add(at)
        h1 = self._insert_highway(h.from_state, at, h.actions[:k],
                                  h.step_rewards[:k], h.step_states[:k])
        h2 = self._insert_highway(at, h.to_state, h.actions[k:],
                                  h.step_rewards[k:], h.step_states[k:])
        return h1, h2

    # --------------------------------------------------------------- ingestion

    def assemble(self, trajs) -> "HighwayGraph":
        """Ingest trajectories, updating intersections and highways in place."""
        for traj in trajs:
            traj.validate()
            self._ingest(traj)
        return self

    def _nothing_new(self, traj: Trajectory) -> bool:
        """True when ingesting traj would leave the graph exactly as it is.

        Every step must already be observed with the same outcome, and the
        episode's endpoints (the source of its first move and the target of
        its last, or its start state if it never moves) must already be
        intersections.  Then every step lies on an existing highway, and
        every state the episode forks, merges or crosses at is its start or
        has two distinct successors or predecessors in the graph, so it is an
        intersection already: there is nothing to promote, split or insert.
        """
        observed = self.observed
        froms, nexts = traj.from_states, traj.next_states
        if not all(map(operator.eq, map(observed.get, zip(froms, traj.actions)),
                       zip(nexts, traj.rewards))):
            return False
        first = next((s for s, nxt in zip(froms, nexts) if s != nxt), None)
        if first is None:
            return froms[0] in self.intersections
        last = next(nxt for s, nxt in zip(reversed(froms), reversed(nexts)) if s != nxt)
        return first in self.intersections and last in self.intersections

    def _ingest(self, traj: Trajectory):
        if self._nothing_new(traj):
            return
        observed = self.observed
        for s, a, nxt, r in traj.transitions():
            prev = observed.setdefault((s, a), (nxt, r))
            if prev != (nxt, r):
                raise DeterminismViolation(s, a, prev, (nxt, r))
        steps = [step for step in traj.transitions() if step[0] != step[2]]
        if not steps:
            # the episode never left its start state; keep it as a value node
            self.make_intersection(traj.from_states[0])
            return
        flags = _detect_within(steps) | _detect_against(steps, self)
        # episode endpoints always become intersections, so every occurrence
        # of their states must be a cut position as well
        flags.add(steps[0][0])
        flags.add(steps[-1][2])
        n = len(steps)
        cuts = [0]
        for pos in range(1, n):
            st = steps[pos][0]
            if st in flags or st in self.intersections:
                cuts.append(pos)
        cuts.append(n)
        self.make_intersection(steps[0][0])
        self.make_intersection(steps[-1][2])
        for pos in cuts[1:-1]:
            self.make_intersection(steps[pos][0])
        for p, q in zip(cuts, cuts[1:]):
            self._add_segment(steps[p:q])

    def _add_segment(self, seg):
        """Add one cut of an episode, a list of (s, a, next, r) steps, as a highway."""
        from_state, first = seg[0][0], seg[0][1]
        to_state = seg[-1][2]
        _states, actions, step_states, rewards = zip(*seg)
        existing = self.out_edges.get(from_state, {}).get(first)
        if existing is not None:
            h = self.highways[existing]
            same = (h.to_state == to_state and h.actions == actions
                    and h.step_states == step_states and h.step_rewards == rewards)
            if not same:
                raise DeterminismViolation(from_state, first,
                                           (h.to_state, h.actions), (to_state, actions))
            return existing
        return self._insert_highway(from_state, to_state, actions, rewards, step_states)

    # ------------------------------------------------------------------- misc

    def set_gamma(self, gamma: float):
        """Change the discount factor, recomputing every cached highway reward."""
        if not (0.0 <= gamma < 1.0):
            raise ValueError("gamma must be in [0, 1)")
        self.gamma = gamma
        for hid, h in list(self.highways.items()):
            self.highways[hid] = replace(
                h,
                cached_reward=highway_reward(h.step_rewards, gamma),
                path_return=path_return(h.step_rewards, gamma),
                gamma_pow_len=gamma ** h.length,
            )


# ------------------------------------------------------------ intersection detection

def _detect_within(steps) -> set[StateId]:
    """Intersection candidates from the trajectory's own forks, merges, crossings.

    The scan keeps the visited prefix strictly before the current step, so a
    state that merely walks into previously seen territory (a dead-end bounce,
    a loop closure) does not itself get flagged; only genuinely branching
    states do.  The crossing case needs both endpoints already visited and a
    transition that was never traversed.
    """
    visited: set[StateId] = set()
    seen: set[tuple[StateId, ActionId, StateId]] = set()
    flags: set[StateId] = set()
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


def _detect_against(steps, graph: HighwayGraph) -> set[StateId]:
    """Intersection candidates where the trajectory meets the existing graph."""
    flags: set[StateId] = set()
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


def detect_intersections_within(traj: Trajectory) -> set[StateId]:
    """States of one trajectory that fork, merge, or cross its own visited prefix."""
    traj.validate()
    return _detect_within(traj.transitions())


def detect_intersections_against(traj: Trajectory, graph: HighwayGraph) -> set[StateId]:
    """States where a trajectory enters, exits, or crosses the existing graph."""
    traj.validate()
    return _detect_against(traj.transitions(), graph)


# ------------------------------------------------------------------- derived views

def locate(graph: HighwayGraph, s: StateId) -> Location:
    """Classify a state as intersection, highway interior (with offset), or unknown."""
    if s in graph.intersections:
        return Location(INTERSECTION)
    loc = graph.membership.get(s)
    if loc is not None:
        return Location(ON_HIGHWAY, highway=loc[0], offset=loc[1])
    return Location(UNKNOWN)


def expand_to_empirical(graph: HighwayGraph) -> EmpiricalGraph:
    """Unroll every highway back into its single-step empirical transitions."""
    out = EmpiricalGraph(gamma=graph.gamma)
    out.nodes.update(graph.states())
    for s, a, nxt, r in graph.transitions():
        out.add_sample(s, a, nxt, r)
    return out


def graph_stats(graph: HighwayGraph) -> dict:
    """Size counters plus the compression ratio z = intersections / expanded states."""
    expanded_states = len(graph.intersections) + len(graph.membership)
    z = len(graph.intersections) / expanded_states if expanded_states else 0.0
    return {
        "intersections": len(graph.intersections),
        "highways": len(graph.highways),
        "expanded_states": expanded_states,
        "expanded_edges": sum(h.length for h in graph.highways.values()),
        "z": z,
    }


def to_dot(graph: HighwayGraph, values: dict | None = None, label_of=None) -> str:
    """DOT rendering: intersections as circles, highways as bold labeled edges."""
    label_of = label_of or (lambda s: f"{s:#x}")
    lines = ["digraph highway {", "  node [shape=circle];"]
    for s in sorted(graph.intersections):
        label = label_of(s)
        if values is not None and s in values:
            label = f"{label}\\nV={values[s]:.4g}"
        lines.append(f'  n{s} [label="{label}"];')
    for hid in sorted(graph.highways):
        h = graph.highways[hid]
        lines.append(
            f'  n{h.from_state} -> n{h.to_state} '
            f'[style=bold, label="{h.first_action} | {h.length} | {h.cached_reward:.6g}"];'
        )
    lines.append("}")
    return "\n".join(lines)
