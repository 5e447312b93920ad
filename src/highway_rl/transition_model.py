"""Empirical state-transition graph and the vanilla value-iteration oracle.

The graph stores exactly what was sampled: one deterministic
(state, action) -> (next state, reward) edge per observed pair, with a
sample count.  Vanilla value iteration sweeps the whole graph with
synchronous (Jacobi) backups and serves as the uncompressed reference
solver that the highway machinery is checked against.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .errors import DeterminismViolation

StateId = int
ActionId = int


@dataclass(frozen=True)
class TransitionSample:
    """One (state, action) -> (next_state, reward) observation."""

    state: StateId
    action: ActionId
    next_state: StateId
    reward: float

    def __post_init__(self):
        if not (self.reward == self.reward and abs(self.reward) != float("inf")):
            raise ValueError("reward must be finite")


class Trajectory:
    """An ordered episode, stored as four parallel columns.

    from_states[i], actions[i], next_states[i] and rewards[i] make up step i.
    terminal is True when the episode ended in a terminal state (as opposed
    to being truncated by a step cap).  `samples` views the steps as
    TransitionSample objects, built on access.
    """

    def __init__(self, samples: Iterable[TransitionSample], terminal: bool = False,
                 episode_seed: int = 0):
        samples = list(samples)
        self._fill([s.state for s in samples], [s.action for s in samples],
                   [s.next_state for s in samples], [s.reward for s in samples],
                   terminal, episode_seed)

    @classmethod
    def from_columns(cls, from_states: list[StateId], actions: list[ActionId],
                     next_states: list[StateId], rewards: list[float],
                     terminal: bool = False, episode_seed: int = 0) -> "Trajectory":
        """Build from the four columns directly, with no per-step objects."""
        traj = cls.__new__(cls)
        traj._fill(from_states, actions, next_states, rewards, terminal, episode_seed)
        return traj

    def _fill(self, from_states, actions, next_states, rewards, terminal, episode_seed):
        self.from_states = from_states
        self.actions = actions
        self.next_states = next_states
        self.rewards = rewards
        self.terminal = terminal
        self.episode_seed = episode_seed
        self.validate()

    def validate(self):
        n = len(self.from_states)
        if not n:
            raise ValueError("trajectory must contain at least one sample")
        if not len(self.actions) == len(self.next_states) == len(self.rewards) == n:
            raise ValueError("trajectory columns differ in length")
        if self.next_states[:-1] != self.from_states[1:]:
            raise ValueError("trajectory samples do not chain")
        if not all(map(math.isfinite, self.rewards)):
            raise ValueError("reward must be finite")

    def __len__(self):
        return len(self.from_states)

    def transitions(self):
        """(state, action, next_state, reward) tuples, in order."""
        return zip(self.from_states, self.actions, self.next_states, self.rewards)

    @property
    def samples(self) -> Sequence[TransitionSample]:
        return _SampleView(self)

    @property
    def states(self) -> list[StateId]:
        """All visited states in order (length len(samples) + 1)."""
        return self.from_states[:1] + self.next_states


class _SampleView(Sequence):
    """Read-only sequence of a trajectory's steps as TransitionSample objects."""

    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self):
        return len(self._traj)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        t = self._traj
        return TransitionSample(t.from_states[i], t.actions[i], t.next_states[i], t.rewards[i])

    def __iter__(self):
        t = self._traj
        return map(TransitionSample, t.from_states, t.actions, t.next_states, t.rewards)


@dataclass
class EmpiricalGraph:
    """Deterministic empirical state-transition graph with sample counts."""

    gamma: float = 0.99
    nodes: set[StateId] = field(default_factory=set)
    # (state, action) -> [next_state, reward, count]
    edges: dict[tuple[StateId, ActionId], list] = field(default_factory=dict)

    def num_nodes(self) -> int:
        return len(self.nodes)

    def num_edges(self) -> int:
        return len(self.edges)

    def add_sample(self, state: StateId, action: ActionId, next_state: StateId, reward: float):
        key = (state, action)
        entry = self.edges.get(key)
        if entry is None:
            self.edges[key] = [next_state, reward, 1]
            self.nodes.add(state)
            self.nodes.add(next_state)
        else:
            if entry[0] != next_state or entry[1] != reward:
                raise DeterminismViolation(state, action, (entry[0], entry[1]), (next_state, reward))
            entry[2] += 1


def record_trajectory(graph: EmpiricalGraph, traj: Trajectory) -> EmpiricalGraph:
    """Store every sample of the trajectory, incrementing edge counts.

    Raises DeterminismViolation if any (state, action) pair was already
    recorded with a different next state or a different reward.
    """
    traj.validate()
    for s, a, nxt, r in traj.transitions():
        graph.add_sample(s, a, nxt, r)
    return graph


def empirical_transition(graph: EmpiricalGraph, next_state: StateId,
                         action: ActionId, state: StateId) -> float:
    """1.0 if the sampled edge (state, action) -> next_state exists, else 0.0."""
    entry = graph.edges.get((state, action))
    if entry is not None and entry[0] == next_state:
        return 1.0
    return 0.0


def empirical_reward(graph: EmpiricalGraph, state: StateId, action: ActionId) -> float:
    """Stored reward for a sampled pair, 0.0 for a pair never sampled."""
    entry = graph.edges.get((state, action))
    return entry[1] if entry is not None else 0.0


@dataclass
class VanillaVIResult:
    """Converged (or budget-capped) state values plus loop metadata."""

    values: dict[StateId, float]
    iterations_run: int
    final_delta: float
    converged: bool


def vanilla_value_iteration(graph: EmpiricalGraph, max_iter: int = 10_000,
                            delta: float = 1e-6) -> VanillaVIResult:
    """Synchronous value iteration over the empirical graph.

    Every sweep reads only the previous sweep's values (Jacobi style) and
    replaces each state's value with the best one-step backup
    max_a [r(s, a) + gamma * V(next)].  States with no outgoing edges keep
    value 0.  Stops when the max-norm change drops below delta; hitting
    max_iter first is reported in the result, not raised.
    """
    if not graph.nodes:
        raise ValueError("graph is empty")
    if not (0.0 <= graph.gamma < 1.0):
        raise ValueError("gamma must be in [0, 1)")
    states = sorted(graph.nodes)
    index = {s: i for i, s in enumerate(states)}
    # per-state edge lists as (next_index, reward)
    outgoing: list[list[tuple[int, float]]] = [[] for _ in states]
    for (s, _a), (nxt, r, _c) in graph.edges.items():
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
    values = {s: v[index[s]] for s in states}
    return VanillaVIResult(values=values, iterations_run=iterations,
                           final_delta=final_delta, converged=converged)


def to_dot(graph: EmpiricalGraph, label_of=None) -> str:
    """Render the empirical graph as DOT; edge labels are "action/reward"."""
    label_of = label_of or (lambda s: f"{s:#x}")
    lines = ["digraph empirical {"]
    for s in sorted(graph.nodes):
        lines.append(f'  n{s} [label="{label_of(s)}"];')
    for (s, a) in sorted(graph.edges):
        nxt, r, _count = graph.edges[(s, a)]
        lines.append(f'  n{s} -> n{nxt} [label="{a}/{r:g}"];')
    lines.append("}")
    return "\n".join(lines)
