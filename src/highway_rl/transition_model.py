"""Empirical state-transition graph and the vanilla value-iteration oracle.

The graph stores exactly what was sampled: one deterministic
(state, action) -> (next state, reward) edge per observed pair.  Vanilla
value iteration sweeps the whole graph with synchronous (Jacobi) backups
and serves as the uncompressed reference solver that the highway machinery
is checked against.
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

    def __init__(self, samples: Iterable[TransitionSample], terminal: bool = False):
        samples = list(samples)
        self._fill([s.state for s in samples], [s.action for s in samples],
                   [s.next_state for s in samples], [s.reward for s in samples],
                   terminal)

    @classmethod
    def from_columns(cls, from_states: list[StateId], actions: list[ActionId],
                     next_states: list[StateId], rewards: list[float],
                     terminal: bool = False) -> "Trajectory":
        """Build from the four columns directly, with no per-step objects."""
        traj = cls.__new__(cls)
        traj._fill(from_states, actions, next_states, rewards, terminal)
        return traj

    def _fill(self, from_states, actions, next_states, rewards, terminal):
        self.from_states = from_states
        self.actions = actions
        self.next_states = next_states
        self.rewards = rewards
        self.terminal = terminal
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
    """Deterministic empirical state-transition graph."""

    gamma: float = 0.99
    nodes: set[StateId] = field(default_factory=set)
    # (state, action) -> (next_state, reward)
    edges: dict[tuple[StateId, ActionId], tuple[StateId, float]] = field(default_factory=dict)

    def num_edges(self) -> int:
        return len(self.edges)

    def add_sample(self, state: StateId, action: ActionId, next_state: StateId, reward: float):
        """Store one sample; raises DeterminismViolation if the pair was
        stored before with a different next state or reward."""
        outcome = (next_state, reward)
        prev = self.edges.setdefault((state, action), outcome)
        if prev is outcome:
            self.nodes.add(state)
            self.nodes.add(next_state)
        elif prev[0] != next_state or prev[1] != reward:
            raise DeterminismViolation(state, action, prev, outcome)


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
    outgoing: dict[StateId, list[tuple[StateId, float]]] = {s: [] for s in states}
    for (s, _a), (nxt, r) in graph.edges.items():
        outgoing[s].append((nxt, r))
    # Internally the states are grouped by out-degree, states with no edge
    # last, so that a sweep runs one comprehension per degree and per edge
    # rank: column k of a group lists the k-th edge of each of its states,
    # as next-state indices and rewards.
    by_degree: dict[int, list[StateId]] = {}
    for s in states:
        by_degree.setdefault(len(outgoing[s]), []).append(s)
    degrees = sorted(by_degree, reverse=True)
    index = {s: i for i, s in enumerate(s for d in degrees for s in by_degree[d])}
    plan = [[([index[outgoing[s][k][0]] for s in by_degree[d]],
              [outgoing[s][k][1] for s in by_degree[d]]) for k in range(d)]
            for d in degrees if d]
    idle = [0.0] * len(by_degree.get(0, ()))
    del outgoing, by_degree  # the sweeps need only the plan

    gamma = graph.gamma
    v = [0.0] * len(states)
    final_delta = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        v_next = []
        for first, *rest in plan:
            best = [r + gamma * v[j] for j, r in zip(*first)]
            for column in rest:
                # `>` keeps the earlier edge on a tie, as max() does
                best = [c if c > b else b
                        for b, c in zip(best, [r + gamma * v[j] for j, r in zip(*column)])]
            v_next += best
        v_next += idle
        worst = max(map(abs, map(float.__sub__, v_next, v)), default=0.0)
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
        nxt, r = graph.edges[(s, a)]
        lines.append(f'  n{s} -> n{nxt} [label="{a}/{r:g}"];')
    lines.append("}")
    return "\n".join(lines)
