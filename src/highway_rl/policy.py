"""Action selection from a highway graph plus converged value tables.

A policy is its greedy table, a plain dict from state id to action.
`compile_greedy` builds it once from a graph and its tables: states inside a
highway map to the recorded action at their offset, read from the graph's
membership index, and intersections to their greedy first action, found for
all of them at once by numpy passes over the tables' Q array in the order of
the graph's edge columns.  A distilled net's table (`reparam.greedy_table`)
acts the same way.  Acting is one dictionary lookup; states absent from the
table (unseen states, and intersections with no outgoing highway) get a
uniform random action over the environment's `action_count`, drawn from the
caller's generator, with exploration on top.  `epsilon_greedy` makes one
choice; the trainer's actor loop applies the same rule inline.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import KeyMismatch
from .highway_graph import HighwayGraph
from .transition_model import StateId, ActionId
from .value_iteration import ValueTables

# two Q values tie when they differ by at most this share of max(1, |best Q|),
# so rounding noise in the solve never decides between equal choices
TIE_RTOL = 1e-9


def compile_greedy(graph: HighwayGraph, tables: ValueTables) -> dict[StateId, ActionId]:
    """The greedy action of every state with a recorded choice.

    The tables' Q keys must be exactly the graph's (from_state, first_action)
    pairs, or KeyMismatch is raised.  The table is a new dict that keeps
    neither the graph nor the tables, so later changes to the graph do not
    change its actions.
    """
    greedy = {s: graph.highways[hid].actions[k] for s, (hid, k) in graph.membership.items()}
    states, src, _dst, first, _ret, _disc = graph.edge_columns()
    if len(tables.q_values) != len(first):
        raise KeyMismatch(f"{len(tables.q_values)} Q entries for {len(first)} highways")
    # both list their keys in (state, action) order, so they hold the same
    # keys exactly when they agree entry by entry
    q_states = tables.states[tables.q_src]
    wrong = np.flatnonzero((q_states != states[src]) | (tables.q_actions != first))
    if wrong.size:
        j = wrong[0]
        raise KeyMismatch(f"Q entry ({q_states[j]:#x}, {tables.q_actions[j]}) "
                          "is not a highway of the graph")
    starts, chosen = _greedy_entries(src, tables.q_values)
    greedy.update(zip(states[src[starts]].tolist(), first[chosen].tolist()))
    return greedy


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


def _greedy_entries(src, q):
    """greedy_action's choice at every intersection, from Q in key order.

    src gives each entry's intersection, ascending.  Returns the index of
    each intersection's first entry and of its chosen entry.  A strict `>`
    scan's best is NaN when the first Q is, and otherwise the largest Q
    that is not NaN, which np.fmax finds; entries that tie it by the rule
    are marked, and the lowest action wins (the first, when none ties).
    """
    m = len(q)
    starts = np.flatnonzero(np.diff(src, prepend=-1))
    best = np.fmax.reduceat(q, starts)
    best[np.isnan(q[starts])] = np.nan
    best = np.repeat(best, np.diff(starts, append=m))
    with np.errstate(invalid="ignore"):      # inf - inf: the floor is NaN
        ties = (q >= best - TIE_RTOL * np.maximum(1.0, np.abs(best))) | (q == best)
    chosen = np.minimum.reduceat(np.where(ties, np.arange(m), m), starts)
    return starts, np.where(chosen < m, chosen, starts)


def epsilon_greedy(greedy: dict[StateId, ActionId], s: StateId, epsilon: float,
                   rng: random.Random, action_count: int) -> ActionId:
    """With probability epsilon take a uniform random action, else greedy[s].

    States with no greedy action get a uniform random action too.  The random
    stream is fixed: one `rng.random()` when epsilon > 0 (none when it is 0),
    then, for a random action, one `rng.randrange(action_count)`.
    `trainer.run_episode` applies this rule inline and draws the same stream.
    """
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must be in [0, 1]")
    if action_count < 1:
        raise ValueError("action_count must be >= 1")
    if not epsilon or rng.random() >= epsilon:
        a = greedy.get(s)
        if a is not None:
            return a
    return rng.randrange(action_count)
