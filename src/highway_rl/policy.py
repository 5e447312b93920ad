"""Action selection from a highway graph plus converged value tables.

A snapshot compiles the graph and its tables once, when it is built, into a
single greedy table: known intersections map to their argmax-Q first
action, states inside a highway to the recorded action at their offset.
Acting is then one dictionary lookup; states absent from the table (unseen
states, and intersections with no outgoing highway) fall back to a uniform
random valid action.  An epsilon-greedy wrapper adds exploration on top.
"""

from __future__ import annotations

import random
from dataclasses import InitVar, dataclass, field
from typing import Callable, Optional

from .highway_graph import HighwayGraph
from .transition_model import StateId, ActionId
from .value_iteration import ValueTables


@dataclass
class PolicySnapshot:
    """Immutable bundle of everything action selection needs.

    The tables must have been produced from exactly this graph topology.
    Neither is kept: the snapshot holds only the greedy table compiled from
    them, so later changes to the graph do not change its actions.
    Randomness (unknown states, exploration) is fully determined by rng_seed
    unless the caller supplies its own generator per call.
    """

    graph: InitVar[HighwayGraph]
    tables: InitVar[ValueTables]
    action_count: int
    rng_seed: int = 0
    # optional hook: state -> iterable of valid actions (unused by the
    # bundled environments, which have no state-dependent masks)
    action_mask: Optional[Callable] = None
    # state -> greedy action, for every state with a recorded choice
    greedy: dict[StateId, ActionId] = field(init=False, repr=False)
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self, graph: HighwayGraph, tables: ValueTables):
        if self.action_count < 1:
            raise ValueError("action_count must be >= 1")
        greedy = {}
        for h in graph.highways.values():
            greedy.update(zip(h.interior, h.actions[1:]))
        for s in graph.intersections:
            a = greedy_action(graph, tables, s)
            if a is not None:
                greedy[s] = a
        self.greedy = greedy
        self._rng = random.Random(self.rng_seed)


def greedy_action(graph: HighwayGraph, tables: ValueTables, s: StateId) -> ActionId | None:
    """Argmax-Q first action at an intersection; ties go to the lowest action.

    Returns None when the intersection has no outgoing highways.
    """
    best_a = None
    best_q = None
    for a in sorted(graph.out_edges.get(s, {})):
        q = tables.q[(s, a)]
        if best_q is None or q > best_q:
            best_a, best_q = a, q
    return best_a


def _randbelow(rng: random.Random, n: int) -> int:
    """rng.randrange(n) for n >= 1: the same getrandbits rejection loop, so
    the same draws and the same generator state, without randrange's
    argument handling."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _random_action(snapshot: PolicySnapshot, s: StateId, rng: random.Random) -> ActionId:
    if snapshot.action_mask is not None:
        valid = list(snapshot.action_mask(s))
        if not valid:
            raise ValueError(f"action_mask gives no valid action at state {s}")
        return valid[_randbelow(rng, len(valid))]
    return _randbelow(rng, snapshot.action_count)


def select_action(snapshot: PolicySnapshot, s: StateId,
                  rng: random.Random | None = None) -> ActionId:
    """Greedy policy: argmax Q at intersections, recorded action on highways,
    uniform random for unknown states."""
    a = snapshot.greedy.get(s)
    if a is not None:
        return a
    return _random_action(snapshot, s, rng if rng is not None else snapshot._rng)


def epsilon_greedy(snapshot: PolicySnapshot, s: StateId, epsilon: float,
                   rng: random.Random | None = None) -> ActionId:
    """With probability epsilon take a uniform random action, else be greedy."""
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must be in [0, 1]")
    rng = rng if rng is not None else snapshot._rng
    if epsilon > 0.0 and rng.random() < epsilon:
        return _random_action(snapshot, s, rng)
    return select_action(snapshot, s, rng)
