"""Action selection from a highway graph plus converged value tables.

A snapshot compiles the graph and its tables once, when it is built, into a
single greedy table: known intersections map to their argmax-Q first
action, states inside a highway to the recorded action at their offset.
Acting is then one dictionary lookup; states absent from the table (unseen
states, and intersections with no outgoing highway) fall back to a uniform
random valid action, with exploration on top.  `chooser` compiles this once
per episode into one function of the state, which binds the generator, the
table and the action count; `select_action` and `epsilon_greedy` are
one-call wrappers over it.
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


def chooser(snapshot: PolicySnapshot, epsilon: float,
            rng: random.Random | None = None) -> Callable[[StateId], ActionId]:
    """Compile epsilon-greedy action choice into one function of the state.

    With probability epsilon the choice is a uniform random action, else the
    snapshot's greedy action, or a uniform random one for states with none.
    Epsilon is checked once, and the generator's methods, the greedy table
    and the action count are bound once, so a call costs one draw and one
    lookup.  The random stream is fixed: one `rng.random()` per call when
    epsilon > 0 (none when it is 0), then, for a random action,
    `rng.randrange` over the actions (its getrandbits rejection loop,
    inlined).  rng defaults to the snapshot's own generator.
    """
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must be in [0, 1]")
    rng = rng if rng is not None else snapshot._rng
    draw = rng.random
    greedy = snapshot.greedy.get
    mask = snapshot.action_mask
    if mask is not None:
        def choose_masked(s: StateId) -> ActionId:
            if not epsilon or draw() >= epsilon:
                a = greedy(s)
                if a is not None:
                    return a
            valid = list(mask(s))
            if not valid:
                raise ValueError(f"action_mask gives no valid action at state {s}")
            return valid[_randbelow(rng, len(valid))]
        return choose_masked
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


def select_action(snapshot: PolicySnapshot, s: StateId,
                  rng: random.Random | None = None) -> ActionId:
    """Greedy policy: argmax Q at intersections, recorded action on highways,
    uniform random for unknown states."""
    return chooser(snapshot, 0.0, rng)(s)


def epsilon_greedy(snapshot: PolicySnapshot, s: StateId, epsilon: float,
                   rng: random.Random | None = None) -> ActionId:
    """With probability epsilon take a uniform random action, else be greedy."""
    return chooser(snapshot, epsilon, rng)(s)
