"""Action selection from a highway graph plus converged value tables.

A snapshot compiles the graph and its tables once, when it is built, into a
single greedy table: states inside a highway map to the recorded action at
their offset, read from the graph's membership index, and intersections to
their greedy first action, from one pass over Q in key order.  Acting is
then one dictionary lookup; states absent from the table (unseen states, and
intersections with no outgoing highway) fall back to a uniform random
action, with exploration on top.  The snapshot holds no generator: every
random choice draws from the one the caller passes in.  `epsilon_greedy`
makes one choice; the trainer's actor loop applies the same rule inline.
"""

from __future__ import annotations

import random
from dataclasses import InitVar, dataclass, field

from .errors import KeyMismatch
from .highway_graph import HighwayGraph
from .transition_model import StateId, ActionId
from .value_iteration import ValueTables

# two Q values tie when they differ by at most this share of max(1, |best Q|),
# so rounding noise in the solve never decides between equal choices
TIE_RTOL = 1e-9


@dataclass
class PolicySnapshot:
    """Immutable bundle of everything action selection needs.

    The tables' Q keys must be exactly the graph's (from_state, first_action)
    pairs, or KeyMismatch is raised.  Neither is kept: the snapshot holds only
    the greedy table compiled from them, so later changes to the graph do not
    change its actions.
    """

    graph: InitVar[HighwayGraph]
    tables: InitVar[ValueTables]
    action_count: int
    # state -> greedy action, for every state with a recorded choice
    greedy: dict[StateId, ActionId] = field(init=False, repr=False)

    def __post_init__(self, graph: HighwayGraph, tables: ValueTables):
        if self.action_count < 1:
            raise ValueError("action_count must be >= 1")
        greedy = {s: graph.highways[hid].actions[k] for s, (hid, k) in graph.membership.items()}
        if len(tables.q) != len(graph.highways):
            raise KeyMismatch(f"{len(tables.q)} Q entries for {len(graph.highways)} highways")
        # one pass over Q in key order finds each intersection's first largest
        # Q, as a strict `>` scan; near is the largest Q of the lower actions
        last = best = near = None
        outranked = []
        for (s, a), q in sorted(tables.q.items()):
            if s != last:
                if near is not None:
                    outranked.append((last, near, best))
                last, best, near, greedy[s], slots = s, q, None, a, graph.out_edges.get(s, ())
            elif q > best:
                best, near, greedy[s] = q, best, a
            if a not in slots:
                raise KeyMismatch(f"Q entry ({s:#x}, {a}) is not a highway of the graph")
        if near is not None:
            outranked.append((last, near, best))
        # where a lower action's Q is within the tie tolerance of the largest,
        # greedy_action's rule picks among them
        for s, near, best in outranked:
            if near >= best - TIE_RTOL * max(1.0, abs(best)):
                greedy[s] = greedy_action(graph, tables, s)
        self.greedy = greedy

    @classmethod
    def from_table(cls, greedy: dict[StateId, ActionId], action_count: int) -> "PolicySnapshot":
        """A snapshot that acts from a ready greedy table, such as a distilled net's."""
        snapshot = cls(HighwayGraph(), ValueTables(), action_count)
        snapshot.greedy = dict(greedy)
        return snapshot


def greedy_action(graph: HighwayGraph, tables: ValueTables, s: StateId) -> ActionId | None:
    """The lowest first action at an intersection whose Q ties the largest:
    q >= best - TIE_RTOL * max(1, |best|), or q == best.

    best is the first largest Q in action order by a strict `>` scan, so a
    NaN is best only when it comes first; then no Q ties and the first
    action wins.  A NaN after the first never ties.  Returns None when the
    intersection has no outgoing highways.
    """
    run = [(a, tables.q[(s, a)]) for a in sorted(graph.out_edges.get(s, {}))]
    if not run:
        return None
    best = max(q for _a, q in run)
    floor = best - TIE_RTOL * max(1.0, abs(best))
    for a, q in run:
        if q >= floor or q == best:
            return a
    return run[0][0]


def epsilon_greedy(snapshot: PolicySnapshot, s: StateId, epsilon: float,
                   rng: random.Random) -> ActionId:
    """With probability epsilon take a uniform random action, else be greedy.

    States with no greedy action get a uniform random action too.  The random
    stream is fixed: one `rng.random()` when epsilon > 0 (none when it is 0),
    then, for a random action, one `rng.randrange` over the actions.
    `trainer.run_episode` applies this rule inline and draws the same stream.
    """
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must be in [0, 1]")
    if not epsilon or rng.random() >= epsilon:
        a = snapshot.greedy.get(s)
        if a is not None:
            return a
    return rng.randrange(snapshot.action_count)
