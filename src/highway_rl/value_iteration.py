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
over the highways, then one elementwise max per rank of a highway among
its source's out-highways, over leading slices of the intersections,
which are laid out by out-degree.  The summed |dQ| is a sequential pass,
taken only once the largest |dQ| is below delta: the sum is never below
its largest term, so until then it cannot be either.  The sweep does the
same rounded operations as a per-highway Python backup and the sum adds in
the same order, so V, Q, the sweep count and the final delta are identical
to it bit for bit.
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

    `states` lists the intersections by out-degree, largest first, and by
    state id among equal degrees, so those with no out-highway come last.
    A highway's rank is its place among its source's out-highways in
    first-action order.  The edge arrays list the rank-0 highways, then
    the rank-1 ones, and so on, each block in `states` order of its
    source, so the rank-r block backs up the first c_r intersections,
    where c_r is its length.  `edge_keys` stays in (from_state,
    first_action) order, the order of the result's Q: q[_q_perm] is an edge
    array in that order, and v[_v_perm] a V array in sorted-state order.
    """

    def __init__(self, graph: HighwayGraph):
        states = sorted(graph.intersections)
        index = {s: i for i, s in enumerate(states)}
        hws = graph.highways.values()
        n, m = len(states), len(hws)
        # the highways are read in the graph's own order, which is cheaper
        # than in key order, and the arrays permuted afterwards
        sources = [h.from_state for h in hws]
        firsts = [h.actions[0] for h in hws]
        src = np.array([index[s] for s in sources], np.intp)
        # indices follow state order, so this sorts by (from_state, first_action)
        order = np.lexsort((np.array(firsts, np.int64), src))
        self.edge_keys = [(sources[i], firsts[i]) for i in order.tolist()]
        src = src[order]
        out_degree = np.bincount(src, minlength=n)
        # lexsort is stable: equal degrees stay in state order
        by_degree = np.lexsort((-out_degree,))
        self.states = [states[i] for i in by_degree.tolist()]
        self._state_keys = states
        self._v_perm = np.empty(n, np.intp)
        self._v_perm[by_degree] = np.arange(n)
        rank = np.arange(m) - np.repeat(np.cumsum(out_degree) - out_degree, out_degree)
        # the rank-r block is as long as the number of rank-r highways
        heads = np.bincount(rank).tolist()
        offsets = np.cumsum([0] + heads)
        self._head = heads[0] if heads else 0
        self._blocks = [(c, slice(o, o + c)) for c, o in zip(heads[1:], offsets[1:].tolist())]
        self._q_perm = offsets[rank] + self._v_perm[src]
        slot = np.empty(m, np.intp)
        slot[order] = self._q_perm
        self.dst = np.empty(m, np.intp)
        self.dst[slot] = self._v_perm[np.array([index[h.to_state] for h in hws], np.intp)]
        self.gamma_pow_len = np.empty(m)
        self.gamma_pow_len[slot] = [h.gamma_pow_len for h in hws]
        self.path_return = np.empty(m)
        self.path_return[slot] = [h.path_return for h in hws]
        self.covered_transitions = m + len(graph.membership)  # the highways' summed lengths

    def sweep(self, v, v_out=None, q_out=None) -> tuple[np.ndarray, np.ndarray]:
        """One synchronous sweep from v (in `states` order); returns (v_next, q).

        q, in edge-array order, is path_return + gamma^len * v[to] as two
        rounded operations, the same arithmetic as Python floats.  v_next
        is the max of q over each intersection's out-highways, taken rank
        by rank, and 0.0 where none starts.  The max is exact, and q is
        never -0.0 (path_return sums from +0.0), so it has the bits a `>`
        scan over the highways would pick.  v_out and q_out are reused
        when given; v_out may be v, since q is complete before v_out is
        written.
        """
        if v_out is None:
            v_out = np.empty(len(self.states))
        if q_out is None:
            q_out = np.empty(len(self.edge_keys))
        # the indices are valid; mode="raise" would copy through a buffer
        np.take(v, self.dst, out=q_out, mode="clip")
        np.multiply(self.gamma_pow_len, q_out, out=q_out)
        np.add(self.path_return, q_out, out=q_out)
        head = self._head
        v_out[:head] = q_out[:head]
        v_out[head:] = 0.0
        for c, block in self._blocks:
            np.maximum(v_out[:c], q_out[block], out=v_out[:c])
        return v_out, q_out

    def v_array(self, v_map: dict[StateId, float]) -> np.ndarray:
        try:
            return np.array([v_map[s] for s in self.states], dtype=np.float64)
        except KeyError as exc:
            raise ValueError(f"missing value entry for intersection {exc}") from exc


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
    q, q_prev, change, summed = np.empty(m), np.zeros(m), np.empty(m), np.empty(m)
    iterations = 0
    final_delta = 0
    for iterations in range(1, max_iter + 1):
        v, q = eng.sweep(v, v, q)
        q, q_prev = q_prev, q
        if m:
            np.subtract(q_prev, q, out=change)
            np.abs(change, out=change)
            # A left-to-right sum of non-negative terms is never below its
            # largest term (rounding is monotone), so while that term is
            # >= delta the loop cannot stop and the sum is not needed.  A
            # NaN term fails the test, and the last sweep always sums, so
            # final_delta is exact whenever the loop ends.
            if np.maximum.reduce(change) >= delta and iterations < max_iter:
                continue
            # a running sum in (from_state, first_action) order adds left
            # to right, as a plain loop would; np.sum adds pairwise and
            # rounds differently
            np.take(change, eng._q_perm, out=summed, mode="clip")
            np.cumsum(summed, out=summed)
            final_delta = float(summed[-1])
        if final_delta < delta:
            break
    if not n:
        iterations = 0
    return ValueTables(
        v=dict(zip(eng._state_keys, v[eng._v_perm].tolist())),
        q=dict(zip(eng.edge_keys, q_prev[eng._q_perm].tolist())),
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
