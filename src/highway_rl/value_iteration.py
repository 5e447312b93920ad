"""Value updating on the highway graph.

Each synchronous sweep backs every highway up in one operation:
q(s, a) = path_return(h) + gamma^len(h) * V_prev(to(h)), and V(s) is the max
over the outgoing highways.  All reads come from the previous sweep's buffer,
so a sweep is a max-norm gamma-contraction and the loop converges to the
unique fixed point regardless of initialization.  The loop is
`bellman.sweep_values`, the one vanilla value iteration runs: it stops when
no intersection value moves by delta.

A cold solve (no v_init) first finds its starting values on a smaller
graph.  A corridor intersection has exactly two out-highways, to two
distinct other intersections, and those two as its only predecessors, like
a two-way maze corridor cell.  Entered from one of them, its only way on
that does not turn back leads to the other.  So each maximal chain of
corridor intersections, entered from the intersection at one end, composes
into one edge to the intersection at the other end: (R1 + G1 R2, G1 G2)
for each pair of steps, found by pointer jumping in about log2(chain
length) numpy passes.  The same loop solves the graph of the other
intersections joined by the composed edges (only the values are used), and
each corridor intersection starts at the larger of its two chain exits.  A
ring of corridor intersections has no exit and starts at zero.  The start
is wrong there, and where a corridor holds a loop worth going round, since
that graph leaves out turning back.
The full-graph loop then runs from the start, and it alone decides the
result: it converges to the unique fixed point from any start, and from a
right one it stops after one sweep.  A warm-started solve, or a graph with
no corridor intersection, sweeps the full graph only, from v_init or zero.

A solve reads the graph only as the arrays `HighwayGraph.edge_columns`
gathers from the graph's columns, never the Highway objects, and keeps
nothing between calls.  It hands back arrays too: `ValueTables` holds V and
Q in key order, sharing the gather's states and keys, and builds its V and
Q dicts only when they are read.  A warm start maps the previous tables'
V onto the new states with one binary search.

The per-sweep work is one update per highway plus one reduction per
intersection; it does not grow with the expanded number of states covered
by the highways.  The sweep is `bellman`'s, over the highways.  Its max is
exact, so from the same starting values V, Q, the sweep count and the
final delta are identical to a per-highway Python loop bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bellman import _SweepEngine, check_delta, sweep_values
from .errors import KeyMismatch
from .highway_graph import HighwayGraph
from .transition_model import StateId, ActionId


@dataclass(eq=False)
class ValueTables:
    """V over intersections and Q over (intersection, first action) pairs.

    The tables are arrays in key order: `states` lists the intersections
    ascending (the ids themselves, in an object array) and `v_values` their
    V; Q entry j is (states[q_src[j]], q_actions[j]) with value q_values[j],
    listed by state, then action.  `v` and `q` are dicts of the same
    entries, built when first read; the arrays must not change after that.
    `from_dicts` builds tables from dicts.
    """

    states: np.ndarray = field(default_factory=lambda: np.empty(0, object))
    v_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    q_src: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    q_actions: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    q_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    iterations_run: int = 0
    final_delta: float = 0.0

    @classmethod
    def from_dicts(cls, v: dict[StateId, float], q: dict[tuple[StateId, ActionId], float],
                   iterations_run: int = 0, final_delta: float = 0.0) -> "ValueTables":
        """Tables of the entries of V and Q maps; every Q state needs a V entry."""
        states = sorted(v)
        index = {s: i for i, s in enumerate(states)}
        keys = sorted(q)
        try:
            src = [index[s] for s, _a in keys]
        except KeyError as exc:
            raise ValueError(f"Q entry for state {exc} has no V entry") from None
        return cls(np.fromiter(states, object, len(states)),
                   np.array([v[s] for s in states], np.float64),
                   np.array(src, np.int64), np.array([a for _s, a in keys], np.int64),
                   np.array([q[k] for k in keys], np.float64), iterations_run, final_delta)

    @cached_property
    def v(self) -> dict[StateId, float]:
        return dict(zip(self.states.tolist(), self.v_values.tolist()))

    @cached_property
    def q(self) -> dict[tuple[StateId, ActionId], float]:
        keys = zip(self.states[self.q_src].tolist(), self.q_actions.tolist())
        return dict(zip(keys, self.q_values.tolist()))


def _corridor_start(n: int, src, dst, path_return, gamma_pow_len, delta: float):
    """Starting values for a cold solve from the corridor-contracted graph.

    Takes the graph as key-order arrays and returns (v0, counts): v0 in key
    order and the counts `solve` reports; None when no state is a corridor
    intersection.
    """
    out_degree = np.bincount(src, minlength=n)
    first = np.cumsum(out_degree) - out_degree
    # two out-edges, to two distinct states other than itself
    cand = np.flatnonzero(out_degree == 2)
    one, two = dst[first[cand]], dst[first[cand] + 1]
    cand = cand[(one != two) & (one != cand) & (two != cand)]
    if not cand.size:
        return None
    neighbour, other = np.full(n, -1), np.full(n, -1)
    neighbour[cand], other[cand] = dst[first[cand]], dst[first[cand] + 1]
    # and those two as its only predecessors
    from_one, from_other = src == neighbour[dst], src == other[dst]
    corridor = np.zeros(n, bool)
    corridor[dst[from_one]] = True
    reached = np.zeros(n, bool)
    reached[dst[from_other]] = True
    corridor &= reached
    corridor[dst[~(from_one | from_other)]] = False
    if not corridor.any():
        return None
    # An edge into a corridor state goes on along that state's out-edge to
    # the neighbour it did not come from.  Pointer jumping composes each
    # edge with the edges after it until it reaches a kept state: `end` is
    # the state the composed edge reaches so far, `after` the edge that
    # follows it, and each round doubles the length of every open chain.
    # Chains entered from a kept state always end (a chain that came back
    # to a corridor state would have to turn back); only rings of corridor
    # states stay open, and then a round closes nothing.
    ret, disc, end = path_return.copy(), gamma_pow_len.copy(), dst.copy()
    open_ = np.flatnonzero(corridor[dst])
    after = np.arange(len(src))
    into = dst[open_]
    after[open_] = first[into] + (src[open_] == neighbour[into])
    while open_.size:
        nxt = after[open_]
        ret[open_] = ret[open_] + disc[open_] * ret[nxt]
        disc[open_] = disc[open_] * disc[nxt]
        end[open_] = end[nxt]
        after[open_] = after[nxt]
        still = corridor[end[open_]]
        if still.all():
            break
        open_ = open_[still]
    kept = np.flatnonzero(~corridor)
    renumber = np.empty(n, np.intp)
    renumber[kept] = np.arange(kept.size)
    edges = np.flatnonzero(~corridor[src])
    reduced = _SweepEngine(kept.size, renumber[src[edges]], renumber[end[edges]],
                           ret[edges], disc[edges])
    v, _q, sweeps, _ = sweep_values(reduced, delta)
    v0 = np.zeros(n)
    v0[kept] = v
    # each corridor state takes the larger of its two chain exits; a ring
    # of corridor states has no exit and starts at zero
    inner = np.flatnonzero(corridor)
    inner = inner[~corridor[end[first[inner]]]]
    exits = ret + disc * v0[end]
    v0[inner] = np.maximum(exits[first[inner]], exits[first[inner] + 1])
    return v0, {"contracted": n - kept.size, "reduced_intersections": int(kept.size),
                "reduced_highways": int(edges.size), "reduced_sweeps": sweeps}


def value_update_loop(graph: HighwayGraph, delta: float = 1e-6,
                      v_init: ValueTables | None = None) -> ValueTables:
    """Sweep until no intersection value moves by delta (> 0).

    final_delta is the last sweep's max |dV|, as in every solver.  Values
    warm-start from v_init's V where intersections persist (missing ones
    start at zero); without it, or when it holds no state, from the
    corridor-contracted solve.  Q is the last sweep's.  The full-graph loop
    and the contracted graph's each work out their own sweep cap
    (`bellman.sweep_values`); iterations_run counts both.  Stopping short
    of delta is recorded in the result, not raised.
    """
    return solve(graph, delta, v_init)[0]


def interior_values(graph: HighwayGraph, tables: ValueTables) -> dict[StateId, float]:
    """Values for every expanded state, walking each highway backward.

    Interior states get the discounted backup over their remaining steps;
    intersections their V, read in key order from the tables' arrays.
    """
    out = dict(zip(tables.states.tolist(), tables.v_values.tolist()))
    gamma = graph.gamma
    for h in graph.highways.values():
        val = out[h.to_state]
        for k in range(h.length - 1, 0, -1):
            val = h.step_rewards[k] + gamma * val
            out[h.step_states[k - 1]] = val
    return out


def completeness_report(values: dict[StateId, float], ground_truth: dict[StateId, float],
                        tol: float) -> dict:
    """Per-state distances to the reference values plus the fraction within tol."""
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if set(values.keys()) != set(ground_truth.keys()):
        missing = set(ground_truth) - set(values)
        extra = set(values) - set(ground_truth)
        raise KeyMismatch(f"key sets differ: {len(missing)} missing, {len(extra)} extra")
    if not values:
        raise ValueError("no states to compare: both value maps are empty")
    dists = [abs(values[s] - ground_truth[s]) for s in values]
    within = sum(1 for d in dists if d <= tol)
    return {
        "min_dist": min(dists),
        "max_dist": max(dists),
        "avg_dist": sum(dists) / len(dists),
        "completeness_pct": 100.0 * within / len(dists),
    }


def contraction_probe(graph: HighwayGraph, w: dict[StateId, float],
                      v: dict[StateId, float]) -> dict:
    """One-sweep contraction measurement: lhs = d(Gw, Gv), rhs = gamma * d(w, v)."""
    states, src, dst, _first, path_return, gamma_pow_len = graph.edge_columns()
    eng = _SweepEngine(len(states), src, dst, path_return, gamma_pow_len)
    try:
        wa, va = (np.array([x[s] for s in states.tolist()], dtype=np.float64) for x in (w, v))
    except KeyError as exc:
        raise ValueError(f"missing value entry for intersection {exc}") from exc
    gw, _ = eng.sweep(wa[eng.order])
    gv, _ = eng.sweep(va[eng.order])
    lhs = float(np.max(np.abs(gw - gv), initial=0.0))
    rhs = graph.gamma * float(np.max(np.abs(wa - va), initial=0.0))
    return {"lhs": lhs, "rhs": rhs}


def _warm_start(states, prev: ValueTables):
    """prev's V laid over the states (ascending), 0.0 where prev has none."""
    new, old = states.astype(np.uint64), prev.states.astype(np.uint64)
    at = np.searchsorted(new, old)
    hit = at < len(new)
    hit[hit] = new[at[hit]] == old[hit]
    v0 = np.zeros(len(new))
    v0[at[hit]] = prev.v_values[hit]
    return v0


def solve(graph: HighwayGraph, delta: float = 1e-6, v_init: ValueTables | None = None):
    """Converged tables plus benchmark counters for one solve.

    Returns (tables, stats).  stats carries the sweep count (contracted
    plus full, as iterations_run), the per-sweep highway update count,
    the highway updates actually made, the covered-transition operation
    count (every sweep counts each transition the highways cover once),
    wall time, and whether the loop reached delta before its cap.  It
    also carries how many intersections the contracted start folded into
    corridor edges, the contracted graph's intersections and edges, and
    its sweeps apart from the full-graph ones (all 0 when nothing was
    contracted).
    """
    start = time.perf_counter()
    check_delta(delta)
    states, src, dst, first, path_return, gamma_pow_len = graph.edge_columns()
    n = len(states)
    warm = v_init is not None and len(v_init.states)
    found = None if warm else _corridor_start(n, src, dst, path_return, gamma_pow_len, delta)
    v0, counts = found or (None, dict.fromkeys(
        ("contracted", "reduced_intersections", "reduced_highways", "reduced_sweeps"), 0))
    if warm:
        v0 = _warm_start(states, v_init)
    eng = _SweepEngine(n, src, dst, path_return, gamma_pow_len)
    v, q, sweeps, final_delta = sweep_values(eng, delta, v0)
    tables = ValueTables(states, v, src, first, q[eng._q_perm],
                         counts["reduced_sweeps"] + sweeps, final_delta)
    elapsed = time.perf_counter() - start
    updates = len(graph.highways)
    stats = {
        "sweeps": tables.iterations_run,
        "per_sweep_updates": updates,
        "total_updates": sweeps * updates + counts["reduced_sweeps"] * counts["reduced_highways"],
        # each highway covers its length in transitions
        "covered_ops": tables.iterations_run * (updates + len(graph.membership)),
        "wall_seconds": elapsed,
        "converged": final_delta < delta,
        **counts,
        "full_sweeps": sweeps,
    }
    return tables, stats


def values_to_csv(tables: ValueTables) -> str:
    """CSV export of the V table, in key order: state_id,value."""
    lines = ["state_id,value"]
    lines.extend(f"{s},{x!r}" for s, x in zip(tables.states.tolist(), tables.v_values.tolist()))
    return "\n".join(lines) + "\n"


def q_to_csv(tables: ValueTables) -> str:
    """CSV export of the Q table, in key order: state_id,action,q."""
    lines = ["state_id,action,q"]
    lines.extend(f"{s},{a},{x!r}" for s, a, x in zip(tables.states[tables.q_src].tolist(),
                                                       tables.q_actions.tolist(),
                                                       tables.q_values.tolist()))
    return "\n".join(lines) + "\n"
