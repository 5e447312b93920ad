"""Compressed highway graph: intersection states joined by non-branching paths.

A highway is a maximal run of single-successor transitions between two
intersection states, stored as one edge with its full action/reward step
sequence and a cached discounted reward.  The graph is grown incrementally
from trajectories: new intersections are detected against the trajectory
itself and against the existing graph, existing highways are split when one
of their interior states is promoted, and the remaining sub-trajectories
become highways.  Per step, ingestion pays only for passes in C: a lookup
in the determinism memory and, when the episode brings something new, each
state's first departure.  The Python-level work is per step that brings a
new (state, action) pair, so an episode that brings nothing new costs one
lookup pass and two endpoint checks.

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

import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, islice
from operator import ne

from .errors import DeterminismViolation, NotInterior
from .transition_model import EmpiricalGraph, StateId, ActionId, Trajectory


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

    @cached_property
    def signature(self) -> bytes:
        """The bytes this highway adds to a topology signature, built once."""
        return (struct.pack("<QQq", self.from_state, self.to_state, self.first_action)
                + repr((self.actions, self.step_states, self.step_rewards)).encode())


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
        """Ingest trajectories, updating intersections and highways in place.

        Trajectories are checked when they are built, so they are not
        checked again here.  A DeterminismViolation leaves the graph as the
        episodes before the conflicting one left it.
        """
        for traj in trajs:
            self._ingest(traj)
        return self

    def _ingest(self, traj: Trajectory):
        """Fold one episode in; Python-level work is per new pair, not per step.

        One lazy pass in C compares every step with `observed`; only absent
        or conflicting steps reach the loop body.  A step whose pair it
        inserts, and that is not a self-loop, is a *first step*.  Only first
        steps flag states, by the fork, merge and crossing rules against the
        visited prefix (`first_dep[x] < j`) and the exit, entry and crossing
        rules against the graph (`contains_state`).  Every other step lies
        on a highway or repeats a first step of this episode, and flags only
        states that are intersections already, the episode's endpoints, or
        states a first step flags: an interior state has exactly one in-step
        and one out-step in the graph.  For the same reason every segment of
        known or repeated steps equals a highway that exists once the
        flagged states are promoted, so only first steps make new highways.
        This relies on every step of the graph being in `observed`, as it is
        for graphs grown by `assemble` or loaded from disk.

        A conflicting step raises before the graph structure changes; the
        pairs this episode inserted are the newest entries of `observed`,
        and are dropped first.
        """
        froms, acts, nexts, rews = traj.from_states, traj.actions, traj.next_states, traj.rewards
        n = len(froms)
        observed = self.observed
        known = len(observed)
        setdefault = observed.setdefault
        contains = self.contains_state
        first_dep = None
        firsts: list[int] = []
        flags: set[StateId] = set()
        for j in compress(range(n), map(ne, map(observed.get, zip(froms, acts)),
                                        zip(nexts, rews))):
            s, a, nxt = froms[j], acts[j], nexts[j]
            outcome = (nxt, rews[j])
            prev = setdefault((s, a), outcome)
            if prev is not outcome:        # the pair was there with another outcome
                for key in list(islice(reversed(observed), len(observed) - known)):
                    del observed[key]
                raise DeterminismViolation(s, a, prev, outcome)
            if s == nxt:
                continue                   # a self-loop is remembered, never embedded
            if first_dep is None:
                first_dep = _first_departures(froms, nexts)
            if first_dep[s] < j or contains(s):
                flags.add(s)
            if first_dep.get(nxt, n) < j or contains(nxt):
                flags.add(nxt)
            firsts.append(j)
        first = next(compress(froms, map(ne, froms, nexts)), None)
        if first is None:
            # the episode never left its start state; keep it as a value node
            self.make_intersection(froms[0])
            return
        last = next(compress(reversed(nexts), map(ne, reversed(froms), reversed(nexts))))
        # the episode's endpoints always become intersections; the flagged
        # states follow in the order the episode first leaves them, so the
        # splits, and with them the highway ids, keep the order of a
        # step-by-step scan
        self.make_intersection(first)
        self.make_intersection(last)
        if not firsts:
            return
        for s in sorted(flags, key=lambda x: first_dep.get(x, n)):
            self.make_intersection(s)
        intersections = self.intersections
        cuts = [0]
        cuts.extend(i for i in range(1, len(firsts)) if froms[firsts[i]] in intersections)
        cuts.append(len(firsts))
        for p, q in zip(cuts, cuts[1:]):
            seg = firsts[p:q]
            self._insert_highway(froms[seg[0]], nexts[seg[-1]],
                                 tuple(map(acts.__getitem__, seg)),
                                 tuple(map(rews.__getitem__, seg)),
                                 tuple(map(nexts.__getitem__, seg)))


def _first_departures(froms, nexts) -> dict[StateId, int]:
    """Each state's first step index that leaves it (self-loops skipped).

    Built in C from the reversed columns, so the earliest index is written last.
    """
    n = len(froms)
    return dict(compress(zip(reversed(froms), range(n - 1, -1, -1)),
                         map(ne, reversed(froms), reversed(nexts))))


# ------------------------------------------------------------------- derived views

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
