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

Each intersection gets the next index when it is created; none is ever
removed, so an index never changes.  Beside the `Highway` records the graph
keeps numpy columns by highway id, grown by doubling: source and target
index, first action, `path_return`, `gamma_pow_len` and an alive flag.  A
solve reads them through `edge_columns`, a gather plus one sort, made once
per change of the graph: the solve and the greedy table of one update share
it.

The single-step transitions are stored once, in `observed` (on disk too:
`serialize` saves a highway as its start and its actions), and the
expanded graph (`expand_to_empirical`) is read off it.  Beside them the
graph keeps the states its episodes terminated in, `terminals`, so that
`untried_pairs` can tell an unexplored action from a state with none.

Single-step self-loop samples (wall bumps, illegal no-op actions) are kept
in the determinism memory but excluded from the graph structure: embedding
them would force every bumped state to become an intersection and would
break the one-location-per-interior-state index.  Their rewards are
strictly suboptimal in every supported environment (r < (1 - gamma) V*(s),
checked over each environment's step table in the tests), so dropping them
leaves optimal values untouched.
"""

from __future__ import annotations

from itertools import compress, islice
from operator import ne
from typing import NamedTuple

import numpy as np

from .errors import DeterminismViolation, NotInterior
from .transition_model import EmpiricalGraph, StateId, ActionId, Trajectory


def path_return(step_rewards, gamma: float) -> float:
    """Discounted return along the steps with the first reward undiscounted."""
    total = 0.0
    g = 1.0
    for r in step_rewards:
        total += r * g
        g *= gamma
    return total


class Highway(NamedTuple):
    """One compressed non-branching path between two intersections.

    An immutable record.  A named tuple, not a frozen dataclass, because
    ingestion builds one per new highway and a tuple sets no field one by one.
    """

    from_state: StateId
    to_state: StateId
    actions: tuple[ActionId, ...]
    step_rewards: tuple[float, ...]
    step_states: tuple[StateId, ...]   # state reached after each step; last == to_state
    cached_reward: float               # gamma * path_return: exponent starts at 1
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
        # intersection -> its index, in insertion order
        self._index: dict[StateId, int] = {}
        self.intersections = self._index.keys()     # a live set-like view
        self.highways: dict[int, Highway] = {}
        # intersection -> {first_action: highway id}; uniqueness is forced by determinism
        self.out_edges: dict[StateId, dict[ActionId, int]] = {}
        # interior state -> (highway id, offset in [1, length-1])
        self.membership: dict[StateId, tuple[int, int]] = {}
        # every sample ever ingested, self-loops included (determinism guardrail)
        self.observed: dict[tuple[StateId, ActionId], tuple[StateId, float]] = {}
        # the states accepted episodes ended in by termination, not truncation
        self.terminals: set[StateId] = set()
        self._next_hid = 0
        # rows by highway id: source index, target index, first action and
        # alive (a split retires its highway); path_return and gamma_pow_len
        self._edge_ints = np.zeros((16, 4), np.int64)
        self._edge_floats = np.zeros((16, 2))
        # edge_columns' arrays, until an intersection or highway is added
        self._columns = None

    # ------------------------------------------------------------------ queries

    def contains_state(self, s: StateId) -> bool:
        return s in self.intersections or s in self.membership

    def states(self) -> set[StateId]:
        return self.intersections | self.membership.keys()

    def untried_pairs(self, action_count: int) -> int:
        """How many (state, action) pairs of the held non-terminal states
        `observed` lacks; 0 means the graph is *closed*.

        O(1), and exact for a graph grown by `assemble` from an environment
        that never steps out of a state it ended an episode in: then every
        observed pair starts at a held, non-terminal state.  A graph built by
        `add_highway` or loaded from disk records no terminals, so its dead
        ends count all their actions as untried: it never reads closed while
        it has one.
        """
        held = len(self._index) + len(self.membership)
        return action_count * (held - len(self.terminals)) - len(self.observed)

    def edge_columns(self):
        """(states, src, dst, first, path_return, gamma_pow_len) from the columns.

        states lists the intersections ascending, as an object array of the
        graph's own ids, so that tables keyed from it share them; the others
        list the live highways by (from_state, first action), src and dst
        indexing states.  The arrays are read-only and gathered once per
        change of the graph; the solve and the greedy table read them.
        """
        if self._columns is None:
            self._columns = self._gather_columns()
        return self._columns

    def _gather_columns(self):
        n = len(self._index)
        states = np.fromiter(self._index, object, n)
        by_id = np.argsort(states.astype(np.uint64))
        rank = np.empty(n, np.int64)
        rank[by_id] = np.arange(n)
        live = np.flatnonzero(self._edge_ints[:self._next_hid, 3])
        src, dst, first, _alive = self._edge_ints[live].T
        src = rank[src]
        # rank follows state order and keys are distinct: this orders by key
        lo = first.min(initial=0)
        order = np.argsort(src * (first.max(initial=0) - lo + 1) + (first - lo))
        path_return, gamma_pow_len = self._edge_floats[live[order]].T
        columns = (states[by_id], src[order], rank[dst[order]], first[order], path_return,
                   gamma_pow_len)
        for col in columns:
            col.flags.writeable = False
        return columns

    # ------------------------------------------------------------- construction

    def _add_intersection(self, s: StateId):
        """The one place an intersection is created: it takes the next index."""
        self._index[s] = len(self._index)
        self._columns = None

    def make_intersection(self, s: StateId):
        """Promote a state to an intersection, splitting its highway if interior."""
        if s in self.intersections:
            return
        loc = self.membership.get(s)
        if loc is not None:
            self.split_highway(loc[0], s)
        else:
            self._add_intersection(s)

    def _insert_highway(self, from_state: StateId, actions: tuple, step_rewards: tuple,
                        step_states: tuple) -> int:
        if not actions:
            raise ValueError("highway must have length >= 1")
        to_state = step_states[-1]
        index = self._index
        if not (from_state in index and to_state in index):
            raise ValueError(f"an end of {from_state:#x} -> {to_state:#x} is not an intersection")
        first = actions[0]
        slot = self.out_edges.setdefault(from_state, {})
        if first in slot:
            raise ValueError("outgoing first action already taken")
        hid = self._next_hid
        self._next_hid += 1
        ret = path_return(step_rewards, self.gamma)
        h = Highway(from_state=from_state, to_state=to_state, actions=tuple(actions),
                    step_rewards=tuple(step_rewards), step_states=tuple(step_states),
                    cached_reward=self.gamma * ret, path_return=ret,
                    gamma_pow_len=self.gamma ** len(actions))
        for offset, st in enumerate(h.interior, start=1):
            if st in index or st in self.membership:
                raise ValueError(f"interior state {st:#x} is already placed")
            self.membership[st] = (hid, offset)
        slot[first] = hid
        self.highways[hid] = h
        if hid == len(self._edge_ints):
            self._edge_ints = np.concatenate([self._edge_ints, np.zeros_like(self._edge_ints)])
            self._edge_floats = np.concatenate([self._edge_floats,
                                                np.zeros_like(self._edge_floats)])
        self._edge_ints[hid] = index[from_state], index[to_state], first, 1
        self._edge_floats[hid] = ret, h.gamma_pow_len
        self._columns = None
        return hid

    def add_highway(self, from_state: StateId, to_state: StateId, actions,
                    rewards, interior=()) -> int:
        """Directly add a highway (fixture/builder path, not trajectory ingestion).

        interior must list the length-1 states strictly between the endpoints,
        each distinct and new to the graph.  Both endpoints are promoted to
        intersections, and the steps are recorded in `observed`, as ingestion
        expects of every step of the graph.  Bad input raises ValueError, and a
        step that `observed` holds with another outcome DeterminismViolation,
        before anything is written.
        """
        actions = tuple(actions)
        rewards = tuple(float(r) for r in rewards)
        interior = tuple(interior)
        if len(rewards) != len(actions):
            raise ValueError("rewards and actions must have equal length")
        if len(interior) != len(actions) - 1:
            raise ValueError("interior must have length - 1 states")
        if not np.isfinite(rewards).all():
            raise ValueError("rewards must be finite")
        if len(set(interior) - {from_state, to_state}) < len(interior) or any(
                map(self.contains_state, interior)):
            raise ValueError("interior states must be distinct, new and not endpoints")
        loc = self.membership.get(from_state)
        taken = self.out_edges.get(from_state, ()) if loc is None else (
            self.highways[loc[0]].actions[loc[1]],)
        if actions[0] in taken:
            raise ValueError("outgoing first action already taken")
        step_states = interior + (to_state,)
        steps = dict(zip(zip((from_state,) + interior, actions), zip(step_states, rewards)))
        for (s, a), outcome in steps.items():
            prev = self.observed.get((s, a), outcome)
            if prev != outcome:
                raise DeterminismViolation(s, a, prev, outcome)
        self.make_intersection(from_state)
        self.make_intersection(to_state)
        hid = self._insert_highway(from_state, actions, rewards, step_states)
        self.observed.update(steps)
        return hid

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
        self._edge_ints[hid, 3] = 0
        del self.out_edges[h.from_state][h.first_action]
        self._add_intersection(at)
        h1 = self._insert_highway(h.from_state, h.actions[:k], h.step_rewards[:k],
                                  h.step_states[:k])
        h2 = self._insert_highway(at, h.actions[k:], h.step_rewards[k:], h.step_states[k:])
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
        and are dropped first.  An accepted episode that ended in a terminal
        state adds that state to `terminals`.
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
        if traj.terminal:
            self.terminals.add(nexts[-1])  # no step conflicted: the episode is accepted
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
            self._insert_highway(froms[seg[0]], tuple(map(acts.__getitem__, seg)),
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
    """The single-step graph behind the highways, read off `observed`: every
    pair that is no self-loop, and the self-loops that are length-1 highways."""
    return EmpiricalGraph(graph.gamma, graph.states(), {
        (s, a): (nxt, r) for (s, a), (nxt, r) in graph.observed.items()
        if s != nxt or a in graph.out_edges.get(s, ())})


def graph_stats(graph: HighwayGraph) -> dict:
    """Size counters plus the compression ratio z = intersections / expanded states."""
    expanded_states = len(graph.intersections) + len(graph.membership)
    z = len(graph.intersections) / expanded_states if expanded_states else 0.0
    return {
        "intersections": len(graph.intersections),
        "highways": len(graph.highways),
        "expanded_states": expanded_states,
        "expanded_edges": len(graph.highways) + len(graph.membership),  # summed lengths
        "z": z,
    }


def to_dot(graph: HighwayGraph, values: dict | None = None) -> str:
    """DOT rendering: intersections as circles, highways as bold labeled edges."""
    lines = ["digraph highway {", "  node [shape=circle];"]
    for s in sorted(graph.intersections):
        label = f"{s:#x}"
        if values is not None and s in values:
            label = f"{label}\\nV={values[s]:.4g}"
        lines.append(f'  n{s} [label="{label}"];')
    for hid in sorted(graph.highways):
        h = graph.highways[hid]
        lines.append(
            f'  n{h.from_state} -> n{h.to_state} '
            f'[style=bold, label="{h.first_action} | {h.length} | {h.path_return:.6g}"];'
        )
    lines.append("}")
    return "\n".join(lines)
