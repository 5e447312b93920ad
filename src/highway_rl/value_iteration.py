"""Value updating on the highway graph.

Each synchronous sweep backs every highway up in one operation:
q(s, a) = path_return(h) + gamma^len(h) * V_prev(to(h)), and V(s) is the max
over the outgoing highways.  All reads come from the previous sweep's buffer,
so a sweep is a max-norm gamma-contraction and the loop converges to the
unique fixed point regardless of initialization.  The loop stops when the
summed absolute Q change drops below delta.

The per-sweep work is one update per highway plus one reduction per
intersection; it does not grow with the expanded number of states covered
by the highways.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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
    """Flat index of one graph snapshot for repeated synchronous sweeps."""

    def __init__(self, graph: HighwayGraph):
        self.states = sorted(graph.intersections)
        self.index = {s: i for i, s in enumerate(self.states)}
        hws = sorted(graph.highways.values(), key=lambda h: (h.from_state, h.first_action))
        self.edges = [
            (self.index[h.from_state], self.index[h.to_state],
             h.gamma_pow_len, h.path_return)
            for h in hws
        ]
        self.edge_keys = [(h.from_state, h.first_action) for h in hws]
        self.covered_transitions = sum(h.length for h in hws)
        self.gamma = graph.gamma

    def sweep(self, v: list[float]) -> tuple[list[float], list[float]]:
        n = len(self.states)
        v_next = [None] * n
        q = [0.0] * len(self.edges)
        for j, (f, t, g_len, ret) in enumerate(self.edges):
            val = ret + g_len * v[t]
            q[j] = val
            cur = v_next[f]
            if cur is None or val > cur:
                v_next[f] = val
        # intersections with no outgoing highway keep value 0
        return [x if x is not None else 0.0 for x in v_next], q

    def v_list(self, v_map: dict[StateId, float]) -> list[float]:
        try:
            return [v_map[s] for s in self.states]
        except KeyError as exc:
            raise ValueError(f"missing value entry for intersection {exc}") from exc


def bellman_sweep(graph: HighwayGraph, v_prev: dict[StateId, float]):
    """One synchronous sweep; returns (v_next, q_next) maps.

    v_prev must contain an entry for every intersection.
    """
    eng = _SweepEngine(graph)
    v_next, q = eng.sweep(eng.v_list(v_prev))
    v_map = dict(zip(eng.states, v_next))
    q_map = dict(zip(eng.edge_keys, q))
    return v_map, q_map


def value_update_loop(graph: HighwayGraph, max_iter: int | None = None,
                      delta: float = 1e-6, v_init: dict[StateId, float] | None = None
                      ) -> ValueTables:
    """Sweep until the summed absolute Q change falls below delta.

    Values start at zero (or warm-start from v_init where intersections
    persist); Q entries are rebuilt from scratch.  Hitting max_iter without
    reaching delta is recorded in the result, not raised.
    """
    eng = _SweepEngine(graph)
    if max_iter is None:
        max_iter = 10 * max(1, len(eng.states))
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if v_init:
        v = [v_init.get(s, 0.0) for s in eng.states]
    else:
        v = [0.0] * len(eng.states)
    q_prev = [0.0] * len(eng.edges)
    iterations = 0
    final_delta = 0.0
    for iterations in range(1, max_iter + 1):
        v, q = eng.sweep(v)
        final_delta = sum(abs(a - b) for a, b in zip(q, q_prev))
        q_prev = q
        if final_delta < delta:
            break
    if not eng.states:
        iterations = 0
    return ValueTables(
        v=dict(zip(eng.states, v)),
        q=dict(zip(eng.edge_keys, q_prev)),
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
    gw, _ = eng.sweep(eng.v_list(w))
    gv, _ = eng.sweep(eng.v_list(v))
    wl, vl = eng.v_list(w), eng.v_list(v)
    lhs = max((abs(a - b) for a, b in zip(gw, gv)), default=0.0)
    rhs = graph.gamma * max((abs(a - b) for a, b in zip(wl, vl)), default=0.0)
    return {"lhs": lhs, "rhs": rhs}


def ops_per_second_benchmark(graph: HighwayGraph, sweeps: int) -> float:
    """Value-propagation throughput in expanded single-step operations per second.

    Each highway Q update counts as one operation per expanded transition it
    covers, so throughput is comparable with sweeping the uncompressed graph.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    eng = _SweepEngine(graph)
    v = [0.0] * len(eng.states)
    start = time.perf_counter()
    for _ in range(sweeps):
        v, _q = eng.sweep(v)
    elapsed = max(time.perf_counter() - start, 1e-12)
    return sweeps * eng.covered_transitions / elapsed


def solve(graph: HighwayGraph, delta: float = 1e-6, max_iter: int | None = None,
          v_init: dict[StateId, float] | None = None):
    """Converged tables plus benchmark counters for one solve.

    Returns (tables, stats) where stats carries the per-sweep highway update
    count, total updates, covered-transition operation count, wall time, and
    whether the loop reached delta before max_iter.
    """
    eng = _SweepEngine(graph)
    start = time.perf_counter()
    tables = value_update_loop(graph, max_iter=max_iter, delta=delta, v_init=v_init)
    elapsed = time.perf_counter() - start
    stats = {
        "sweeps": tables.iterations_run,
        "per_sweep_updates": len(eng.edges),
        "total_updates": tables.iterations_run * len(eng.edges),
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
