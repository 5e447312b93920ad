"""Value updating on the highway graph.

Each synchronous sweep backs every highway up in one operation:
q(s, a) = path_return(h) + gamma^len(h) * V_prev(to(h)), and V(s) is the max
over the outgoing highways.  All reads come from the previous sweep's buffer,
so a sweep is a max-norm gamma-contraction and the loop converges to the
unique fixed point regardless of initialization.  The loop stops when the
summed absolute Q change drops below delta.

The per-sweep work is one update per highway plus one reduction per
intersection; it does not grow with the expanded number of states covered
by the highways.  A sweep is vectorised: one numpy gather, multiply and add
over arrays of the highways, then a segmented max per intersection.  It
does the same rounded operations in the same order as a per-highway Python
backup, so V, Q, the sweep count and the final delta are identical to it
bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import KeyMismatch
from .highway_graph import HighwayGraph
from .transition_model import StateId, ActionId


@dataclass
class ValueTables:
    """V over intersections and Q over (intersection, first action) pairs."""

    v: dict[StateId, float] = field(default_factory=dict)
    q: dict[tuple[StateId, ActionId], float] = field(default_factory=dict)
    iterations_run: int = 0
    final_delta: float = 0.0


class _SweepEngine:
    """Edge arrays of one graph snapshot for repeated synchronous sweeps.

    Highways are ordered by (from_state, first_action), the order of `edge_keys`
    and of every Q array.  For the max, each highway also has a slot in a
    (width, intersections) table, one column per intersection and one row
    per rank of the highway among its source's out-highways; width is the
    largest out-degree.  Slots no highway fills hold -inf, except row 0 of
    an intersection with no out-highway, which holds its value 0.0.
    """

    def __init__(self, graph: HighwayGraph):
        self.states = sorted(graph.intersections)
        index = {s: i for i, s in enumerate(self.states)}
        hws = list(graph.highways.values())
        n, m = len(self.states), len(hws)
        src = np.array([index[h.from_state] for h in hws], np.intp)
        # indices follow state order, so this sorts by (from_state, first_action)
        order = np.lexsort((np.array([h.actions[0] for h in hws], np.int64), src))
        hws = [hws[i] for i in order.tolist()]
        src = src[order]
        self.edge_keys = [(h.from_state, h.actions[0]) for h in hws]
        self.dst = np.array([index[h.to_state] for h in hws], np.intp)
        self.gamma_pow_len = np.array([h.gamma_pow_len for h in hws], np.float64)
        self.path_return = np.array([h.path_return for h in hws], np.float64)
        self.covered_transitions = sum([len(h.actions) for h in hws])
        starts = np.flatnonzero(np.diff(src, prepend=-1))
        rank = np.arange(m) - np.repeat(starts, np.diff(starts, append=m))
        self._table = np.full((int(rank.max(initial=0)) + 1, n), -np.inf)
        no_out = np.ones(n, bool)
        no_out[src] = False
        self._table[0, no_out] = 0.0
        self._flat_table = self._table.reshape(-1)
        self._slots = rank * n + src

    def sweep(self, v, v_out=None, q_out=None) -> tuple[np.ndarray, np.ndarray]:
        """One synchronous sweep from v (in `states` order); returns (v_next, q).

        q = path_return + gamma^len * v[to] as two rounded operations, the
        same arithmetic as Python floats.  v_next is the max of q over each
        intersection's out-highways, and 0.0 where none starts.  The max is
        exact, and q is never -0.0 (path_return sums from +0.0), so it has
        the bits a `>` scan over the highways would pick.  v_out and q_out
        are reused when given; v_out may be v, since q is complete before
        v_out is written.
        """
        if v_out is None:
            v_out = np.empty(len(self.states))
        if q_out is None:
            q_out = np.empty(len(self.edge_keys))
        # the indices are valid; mode="raise" would copy through a buffer
        np.take(v, self.dst, out=q_out, mode="clip")
        np.multiply(self.gamma_pow_len, q_out, out=q_out)
        np.add(self.path_return, q_out, out=q_out)
        self._flat_table[self._slots] = q_out
        np.copyto(v_out, self._table[0])
        for row in self._table[1:]:
            np.maximum(v_out, row, out=v_out)
        return v_out, q_out

    def v_array(self, v_map: dict[StateId, float]) -> np.ndarray:
        try:
            return np.array([v_map[s] for s in self.states], dtype=np.float64)
        except KeyError as exc:
            raise ValueError(f"missing value entry for intersection {exc}") from exc


def bellman_sweep(graph: HighwayGraph, v_prev: dict[StateId, float]):
    """One synchronous sweep; returns (v_next, q_next) maps.

    v_prev must contain an entry for every intersection.
    """
    eng = _SweepEngine(graph)
    v_next, q = eng.sweep(eng.v_array(v_prev))
    v_map = dict(zip(eng.states, v_next.tolist()))
    q_map = dict(zip(eng.edge_keys, q.tolist()))
    return v_map, q_map


def value_update_loop(graph: HighwayGraph, max_iter: int | None = None,
                      delta: float = 1e-6, v_init: dict[StateId, float] | None = None
                      ) -> ValueTables:
    """Sweep until the summed absolute Q change falls below delta.

    Values start at zero (or warm-start from v_init where intersections
    persist); Q entries are rebuilt from scratch.  Hitting max_iter without
    reaching delta is recorded in the result, not raised.
    """
    return _sweep_until(_SweepEngine(graph), max_iter, delta, v_init)


def _sweep_until(eng: _SweepEngine, max_iter: int | None, delta: float,
                 v_init: dict[StateId, float] | None) -> ValueTables:
    if max_iter is None:
        max_iter = 10 * max(1, len(eng.states))
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    n, m = len(eng.states), len(eng.edge_keys)
    if v_init:
        v = np.array([v_init.get(s, 0.0) for s in eng.states], dtype=np.float64)
    else:
        v = np.zeros(n)
    q, q_prev, change = np.empty(m), np.zeros(m), np.empty(m)
    iterations = 0
    final_delta = 0
    for iterations in range(1, max_iter + 1):
        v, q = eng.sweep(v, v, q)
        if m:
            np.subtract(q, q_prev, out=change)
            np.abs(change, out=change)
            # a running sum adds left to right, as a plain loop would;
            # np.sum adds pairwise and rounds differently
            np.cumsum(change, out=change)
            final_delta = float(change[-1])
        q, q_prev = q_prev, q
        if final_delta < delta:
            break
    if not n:
        iterations = 0
    return ValueTables(
        v=dict(zip(eng.states, v.tolist())),
        q=dict(zip(eng.edge_keys, q_prev.tolist())),
        iterations_run=iterations,
        final_delta=final_delta,
    )


def interior_values(graph: HighwayGraph, tables: ValueTables) -> dict[StateId, float]:
    """Values for every expanded state, walking each highway backward.

    Interior states get the discounted backup over their remaining steps;
    intersections map to their converged V entry.
    """
    out = dict(tables.v)
    gamma = graph.gamma
    for h in graph.highways.values():
        val = tables.v[h.to_state]
        for k in range(h.length - 1, 0, -1):
            val = h.step_rewards[k] + gamma * val
            out[h.step_states[k - 1]] = val
    return out


def completeness_report(values: dict[StateId, float], ground_truth: dict[StateId, float],
                        tol: float) -> dict:
    """Per-state distances to the reference values plus the fraction within tol."""
    if set(values.keys()) != set(ground_truth.keys()):
        missing = set(ground_truth) - set(values)
        extra = set(values) - set(ground_truth)
        raise KeyMismatch(f"key sets differ: {len(missing)} missing, {len(extra)} extra")
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
    eng = _SweepEngine(graph)
    wa, va = eng.v_array(w), eng.v_array(v)
    gw, _ = eng.sweep(wa)
    gv, _ = eng.sweep(va)
    lhs = float(np.max(np.abs(gw - gv), initial=0.0))
    rhs = graph.gamma * float(np.max(np.abs(wa - va), initial=0.0))
    return {"lhs": lhs, "rhs": rhs}


def solve(graph: HighwayGraph, delta: float = 1e-6, max_iter: int | None = None,
          v_init: dict[StateId, float] | None = None):
    """Converged tables plus benchmark counters for one solve.

    Returns (tables, stats) where stats carries the per-sweep highway update
    count, total updates, covered-transition operation count, wall time, and
    whether the loop reached delta before max_iter.
    """
    start = time.perf_counter()
    eng = _SweepEngine(graph)
    tables = _sweep_until(eng, max_iter, delta, v_init)
    elapsed = time.perf_counter() - start
    updates = len(eng.edge_keys)
    stats = {
        "sweeps": tables.iterations_run,
        "per_sweep_updates": updates,
        "total_updates": tables.iterations_run * updates,
        "covered_ops": tables.iterations_run * eng.covered_transitions,
        "wall_seconds": elapsed,
        "converged": tables.final_delta < delta,
    }
    return tables, stats


def values_to_csv(tables: ValueTables) -> str:
    """CSV export of the V table: state_id,value."""
    lines = ["state_id,value"]
    for s in sorted(tables.v):
        lines.append(f"{s},{tables.v[s]!r}")
    return "\n".join(lines) + "\n"


def q_to_csv(tables: ValueTables) -> str:
    """CSV export of the Q table: state_id,action,q."""
    lines = ["state_id,action,q"]
    for (s, a) in sorted(tables.q):
        lines.append(f"{s},{a},{tables.q[(s, a)]!r}")
    return "\n".join(lines) + "\n"
