"""Action selection from a highway graph plus converged value tables.

A snapshot compiles the graph and its tables once, when it is built, into a
single greedy table: known intersections map to their argmax-Q first
action, states inside a highway to the recorded action at their offset.
Acting is then one dictionary lookup; states absent from the table (unseen
states, and intersections with no outgoing highway) fall back to a uniform
random action, with exploration on top.  The snapshot holds no generator:
every random choice draws from the one the caller passes in.  `chooser`
compiles this once per episode into one function of the state, which binds
the generator, the table and the action count; `epsilon_greedy` is a
one-call wrapper over it.
"""

from __future__ import annotations

import random
from dataclasses import InitVar, dataclass, field
from typing import Callable

from .highway_graph import HighwayGraph
from .transition_model import StateId, ActionId
from .value_iteration import ValueTables


@dataclass
class PolicySnapshot:
    """Immutable bundle of everything action selection needs.

    The tables must have been produced from exactly this graph topology.
    Neither is kept: the snapshot holds only the greedy table compiled from
    them, so later changes to the graph do not change its actions.
    """

    graph: InitVar[HighwayGraph]
    tables: InitVar[ValueTables]
    action_count: int
    # state -> greedy action, for every state with a recorded choice
    greedy: dict[StateId, ActionId] = field(init=False, repr=False)

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


def chooser(snapshot: PolicySnapshot, epsilon: float,
            rng: random.Random) -> Callable[[StateId], ActionId]:
    """Compile epsilon-greedy action choice into one function of the state.

    With probability epsilon the choice is a uniform random action, else the
    snapshot's greedy action, or a uniform random one for states with none.
    Epsilon is checked once, and the generator's methods, the greedy table
    and the action count are bound once, so a call costs one draw and one
    lookup.  The random stream is fixed: one `rng.random()` per call when
    epsilon > 0 (none when it is 0), then, for a random action,
    `rng.randrange` over the actions (its getrandbits rejection loop,
    inlined).
    """
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must be in [0, 1]")
    draw = rng.random
    greedy = snapshot.greedy.get
    n = snapshot.action_count
    k = n.bit_length()
    getrandbits = rng.getrandbits

    def choose(s: StateId) -> ActionId:
        if not epsilon or draw() >= epsilon:
            a = greedy(s)
            if a is not None:
                return a
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r
    return choose


def epsilon_greedy(snapshot: PolicySnapshot, s: StateId, epsilon: float,
                   rng: random.Random) -> ActionId:
    """With probability epsilon take a uniform random action, else be greedy."""
    return chooser(snapshot, epsilon, rng)(s)
