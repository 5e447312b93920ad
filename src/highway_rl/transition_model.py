"""Empirical state-transition graph and the vanilla value-iteration oracle.

The graph is a plain record: one deterministic (state, action) -> (next
state, reward) edge per pair, read off a highway graph's `observed` pairs or
an environment's step table.  Vanilla value iteration sweeps the whole graph
with synchronous (Jacobi) backups, one edge per pair on the highway solve's
engine (`bellman`), and serves as the uncompressed reference solver that the
highway machinery is checked against.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .bellman import _SweepEngine, check_delta, sweep_values

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
        # one float sum is finite only if every reward is; a sum that is not,
        # or that cannot be formed (a huge int, a non-float type), falls back
        # to the per-reward check, which accepts and raises as it always has
        try:
            finite = math.isfinite(sum(self.rewards, 0.0))
        except (OverflowError, TypeError):
            finite = False
        if not finite and not all(map(math.isfinite, self.rewards)):
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
    """Deterministic empirical state-transition graph; edges join nodes."""

    gamma: float
    nodes: set[StateId]
    # (state, action) -> (next_state, reward)
    edges: dict[tuple[StateId, ActionId], tuple[StateId, float]]

    def num_edges(self) -> int:
        return len(self.edges)


@dataclass
class VanillaVIResult:
    """Converged (or capped) state values plus loop metadata."""

    values: dict[StateId, float]
    iterations_run: int
    final_delta: float
    converged: bool


def vanilla_value_iteration(graph: EmpiricalGraph, delta: float = 1e-6) -> VanillaVIResult:
    """Synchronous value iteration over the empirical graph.

    Every sweep reads only the previous sweep's values (Jacobi style) and
    replaces each state's value with the best one-step backup
    max_a [r(s, a) + gamma * V(next)], the first recorded edge winning a
    tie.  States with no outgoing edges keep value 0.  Stops when the
    max-norm change drops below delta (> 0); stopping short of it (at the
    cap `bellman.sweep_values` works out) is reported, not raised.  An edge
    whose state or next state is not a node raises ValueError.
    """
    if not graph.nodes:
        raise ValueError("graph is empty")
    if not (0.0 <= graph.gamma < 1.0):
        raise ValueError("gamma must be in [0, 1)")
    check_delta(delta)
    states = sorted(graph.nodes)
    index = {s: i for i, s in enumerate(states)}
    try:
        src = np.array([index[s] for s, _a in graph.edges], np.intp)
        dst = np.array([index[nxt] for nxt, _r in graph.edges.values()], np.intp)
    except KeyError as err:
        raise ValueError(f"edge state {err.args[0]:#x} is not in the graph's nodes") from None
    reward = np.array([r for _nxt, r in graph.edges.values()], np.float64)
    # by source, each source's edges in the order they were recorded
    order = np.argsort(src, kind="stable")
    eng = _SweepEngine(len(states), src[order], dst[order], reward[order],
                       np.full(len(src), graph.gamma))
    v, _q, iterations, final_delta = sweep_values(eng, delta)
    return VanillaVIResult(values=dict(zip(states, v.tolist())), iterations_run=iterations,
                           final_delta=final_delta, converged=final_delta < delta)


def to_dot(graph: EmpiricalGraph) -> str:
    """Render the empirical graph as DOT; edge labels are "action/reward"."""
    lines = ["digraph empirical {"]
    for s in sorted(graph.nodes):
        lines.append(f'  n{s} [label="{s:#x}"];')
    for (s, a) in sorted(graph.edges):
        nxt, r = graph.edges[(s, a)]
        lines.append(f'  n{s} -> n{nxt} [label="{a}/{r:g}"];')
    lines.append("}")
    return "\n".join(lines)
