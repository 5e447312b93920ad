"""Graph Bellman sweeps, the update loop, interior values, and probes."""

import math
import random
import struct
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (contraction_cap, corridor_highway_graph, one_sweep, random_highway_graph,
                      random_mdp_walks)
from highway_rl.bellman import _SweepEngine
from highway_rl.environments import EnvSpec, make_env
from highway_rl.errors import KeyMismatch
from highway_rl.highway_graph import HighwayGraph, expand_to_empirical
from highway_rl.serialize import load_highway_graph, save_highway_graph
from highway_rl.transition_model import Trajectory, vanilla_value_iteration
from highway_rl.value_iteration import (ValueTables, _corridor_start, _warm_start,
                                        completeness_report, contraction_probe, interior_values,
                                        q_to_csv, solve, value_update_loop, values_to_csv)


def test_sweep_takes_max_over_outgoing():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 1, [0], [0.0])
    g.add_highway(0, 2, [1], [0.5])
    v_prev = {0: 0.0, 1: 1.0, 2: 0.0}
    v_next, q_next = one_sweep(g, v_prev)
    assert q_next[(0, 0)] == pytest.approx(0.99)
    assert v_next[0] == pytest.approx(max(0.99, 0.5))


def test_sweep_terminal_intersection_keeps_zero():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 1, [0], [0.0])
    v_next, _ = one_sweep(g, {0: 5.0, 1: 5.0})
    assert v_next[1] == 0.0


def test_sweep_self_loop_contracts_to_zero():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 0, [0], [0.0])
    tables = value_update_loop(g, delta=1e-15)
    assert tables.v[0] == 0.0


def test_sweep_reads_previous_buffer_only():
    # chain 0 -> 1 -> 2; a synchronous sweep must not cascade within itself
    g = HighwayGraph(gamma=0.5)
    g.add_highway(0, 1, [0], [0.0])
    g.add_highway(1, 2, [0], [1.0])
    v_next, _ = one_sweep(g, {0: 0.0, 1: 0.0, 2: 0.0})
    assert v_next[1] == pytest.approx(1.0)
    assert v_next[0] == 0.0  # sees the old value of state 1


def test_sweep_q_formula_consistency():
    g = random_highway_graph(random.Random(4), max_intersections=15)
    v_prev = {s: random.Random(s).uniform(-1, 1) for s in g.intersections}
    _v, q = one_sweep(g, v_prev)
    for h in g.highways.values():
        expected = v_prev[h.to_state] * g.gamma ** h.length + h.path_return
        assert q[(h.from_state, h.first_action)] == pytest.approx(expected, abs=1e-12)


def test_loop_single_highway_converges_in_two_sweeps():
    g = HighwayGraph(gamma=0.5)
    g.add_highway(0, 3, [0, 0, 0], [0.0, 0.0, 1.0], interior=[1, 2])
    tables = value_update_loop(g, delta=1e-15)
    # terminal value 0 downstream: V(start) is the discounted path return
    assert tables.v[0] == pytest.approx(0.25)
    assert tables.iterations_run == 2
    oracle = vanilla_value_iteration(expand_to_empirical(g), delta=1e-14)
    assert tables.v[0] == pytest.approx(oracle.values[0], abs=1e-12)


def test_loop_dag_depth_bound():
    rng = random.Random(9)
    for _ in range(10):
        g = HighwayGraph(gamma=0.9)
        layers = [[rng.getrandbits(40) for _ in range(rng.randint(1, 3))]
                  for _ in range(rng.randint(2, 5))]
        interior = iter(range(10 ** 9, 10 ** 9 + 10_000))
        for depth in range(len(layers) - 1):
            for s in layers[depth]:
                for a, target in enumerate(layers[depth + 1]):
                    if rng.random() < 0.7:
                        length = rng.randint(1, 3)
                        g.add_highway(s, target, [a] + [0] * (length - 1),
                                      [round(rng.uniform(-1, 1), 6)] * length,
                                      [next(interior) for _ in range(length - 1)])
        if not g.highways:
            continue
        tables = value_update_loop(g, delta=1e-300)
        assert tables.iterations_run <= len(layers) + 1


def test_loop_matches_vanilla_on_random_cyclic_graph():
    g = random_highway_graph(random.Random(21), max_intersections=20)
    tables = value_update_loop(g, delta=1e-13)
    oracle = vanilla_value_iteration(expand_to_empirical(g), delta=1e-14)
    for s in g.intersections:
        assert tables.v[s] == pytest.approx(oracle.values[s], abs=1e-9)


def test_loop_records_metadata():
    # V after k sweeps is 1 + 0.99 + ... + 0.99^(k-1), so sweep k moves it
    # by 0.99^(k-1), first below 0.5 at k = 70
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 0, [0], [1.0])
    tables = value_update_loop(g, delta=0.5)
    assert tables.iterations_run == 70
    assert tables.final_delta == pytest.approx(0.99 ** 69)


def _per_highway_loop(graph, delta, v_init):
    """The per-highway Python backup loop that the numpy sweep replaced.

    It is the bitwise reference: q from the previous sweep's V, V the first
    largest q per intersection, 0.0 where no highway starts, and the loop
    stops once the largest |dV|, taken from 0.0, is below delta, or at the
    cap that the first sweep's change gives.
    """
    states = sorted(graph.intersections)
    index = {s: i for i, s in enumerate(states)}
    hws = sorted(graph.highways.values(), key=lambda h: (h.from_state, h.first_action))
    edges = [(index[h.from_state], index[h.to_state], h.gamma_pow_len, h.path_return)
             for h in hws]
    v = [v_init.get(s, 0.0) for s in states] if v_init else [0.0] * len(states)
    q = [0.0] * len(edges)
    iterations = 0
    cap = 1 if states else 0
    final_delta = 0.0
    while iterations < cap:
        iterations += 1
        v_next = [None] * len(states)
        for j, (f, t, g_len, ret) in enumerate(edges):
            val = ret + g_len * v[t]
            q[j] = val
            if v_next[f] is None or val > v_next[f]:
                v_next[f] = val
        v_next = [x if x is not None else 0.0 for x in v_next]
        final_delta = 0.0
        for a, b in zip(v_next, v):
            final_delta = max(final_delta, abs(a - b))
        v = v_next
        if final_delta < delta:
            break
        if iterations == 1:
            cap = contraction_cap(final_delta, delta, max((e[2] for e in edges), default=0.0))
    return (dict(zip(states, v)), dict(zip([(h.from_state, h.first_action) for h in hws], q)),
            iterations, final_delta)


def _bits(table):
    return list(table), struct.pack(f"<{len(table)}d", *table.values())


def _table_bits(tables):
    """Every array of the tables (keys as lists, values as bytes) and both counts."""
    return (tables.states.tolist(), tables.v_values.tobytes(), tables.q_src.tolist(),
            tables.q_actions.tolist(), tables.q_values.tobytes(), tables.iterations_run,
            struct.pack("<d", tables.final_delta))


def _contracted_start(graph, delta):
    """A cold solve's starting values, as a map, and its contracted sweeps
    (None and 0 when no intersection is a corridor)."""
    states, src, dst, _first, path_return, gamma_pow_len = graph.edge_columns()
    found = _corridor_start(len(states), src, dst, path_return, gamma_pow_len, delta)
    if found is None:
        return None, 0
    v0, counts = found
    return dict(zip(states.tolist(), v0.tolist())), counts["reduced_sweeps"]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(["random", "no_highways", "empty", "wide", "corridors"]),
       delta=st.sampled_from([1e-13, 1e-6, 0.5]),
       warm=st.booleans())
@example(seed=0, shape="empty", delta=0.5, warm=False)
@example(seed=0, shape="empty", delta=1e-6, warm=False)
@example(seed=1, shape="no_highways", delta=0.5, warm=True)
@example(seed=1, shape="no_highways", delta=1e-6, warm=False)
@example(seed=5, shape="random", delta=0.5, warm=True)
@example(seed=3, shape="wide", delta=1e-13, warm=False)
@example(seed=2, shape="corridors", delta=0.5, warm=False)
@example(seed=4, shape="corridors", delta=1e-13, warm=False)
def test_loop_is_bitwise_equal_to_the_per_highway_loop(seed, shape, delta, warm):
    # a cold solve sweeps the full graph from the contracted start, which is
    # zero (today's cold start) when no intersection is a corridor
    rng = random.Random(seed)
    if shape == "random":
        g = random_highway_graph(rng, max_intersections=15)
    elif shape == "wide":
        # out-degrees up to 6, as on taxi: every rank block is filled
        g = random_highway_graph(rng, max_intersections=15, action_count=6, max_out_degree=6)
    elif shape == "corridors":
        g = corridor_highway_graph(rng)
    else:
        g = HighwayGraph(gamma=0.9)
        for s in range(rng.randint(1, 4) if shape == "no_highways" else 0):
            g.make_intersection(s)
    if warm:
        # some intersections missing (they start at 0.0) and one stray key
        start = {s: rng.uniform(-5, 5) for s in g.intersections if rng.random() < 0.8}
        start[2 ** 64 - 1] = 3.0
        v_init, contracted_sweeps = ValueTables.from_dicts(start, {}), 0
    else:
        v_init = None
        start, contracted_sweeps = _contracted_start(g, delta)
    tables = value_update_loop(g, delta=delta, v_init=v_init)
    v, q, iterations, final_delta = _per_highway_loop(g, delta, start)
    assert _bits(tables.v) == _bits(v)
    assert _bits(tables.q) == _bits(q)
    assert all(type(x) is float for x in [*tables.v.values(), *tables.q.values()])
    assert tables.iterations_run == contracted_sweeps + iterations
    assert type(tables.final_delta) is float
    assert struct.pack("<d", tables.final_delta) == struct.pack("<d", final_delta)


def _rebuilt(graph, order, rng):
    """graph rebuilt by add_highway calls in the given order of its highway
    ids, after making the intersections that start no highway, shuffled."""
    out = HighwayGraph(gamma=graph.gamma)
    lone = [s for s in graph.intersections if s not in graph.out_edges]
    rng.shuffle(lone)
    for s in lone:
        out.make_intersection(s)
    for hid in order:
        h = graph.highways[hid]
        out.add_highway(h.from_state, h.to_state, h.actions, h.step_rewards, h.interior)
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(["random", "corridors"]))
@example(seed=45087, shape="corridors")     # every chain ran from a hub back to itself
def test_results_do_not_depend_on_how_the_states_are_numbered(seed, shape, tmp_path_factory):
    rng = random.Random(seed)
    g = (random_highway_graph(rng, max_intersections=15) if shape == "random"
         else corridor_highway_graph(rng))
    hids = sorted(g.highways)
    built = [_rebuilt(g, rng.sample(hids, len(hids)), rng) for _ in range(2)]
    path = tmp_path_factory.mktemp("graph") / "graph.npz"
    save_highway_graph(path, built[0])
    built.append(load_highway_graph(path))      # intersections made in sorted order
    assert sorted(built[2].intersections) == list(built[2].intersections)
    if shape == "corridors":
        assert solve(g, delta=1e-10)[1]["contracted"]      # the contracted start runs
    v_init = {s: rng.uniform(-5, 5) for s in g.intersections if rng.random() < 0.8}
    for warm in (None, ValueTables.from_dicts(v_init, {})):
        want = value_update_loop(g, delta=1e-10, v_init=warm)
        for other in built:
            got = value_update_loop(other, delta=1e-10, v_init=warm)
            assert _bits(got.v) == _bits(want.v) and _bits(got.q) == _bits(want.q)
            assert got.iterations_run == want.iterations_run
            assert struct.pack("<d", got.final_delta) == struct.pack("<d", want.final_delta)


class _LenOnly(Mapping):
    """A stand-in for graph.highways that has a length and nothing else."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, hid):
        raise AssertionError("the solve looked a highway up")

    def __iter__(self):
        raise AssertionError("the solve iterated graph.highways")

    def values(self):
        raise AssertionError("the solve read graph.highways.values()")


@pytest.mark.parametrize("make", [lambda: corridor_highway_graph(random.Random(7)),
                                  lambda: random_highway_graph(random.Random(8), 15)],
                         ids=["corridors", "random"])
def test_the_solve_reads_columns_not_highway_objects(make):
    g = make()
    v_init = ValueTables.from_dicts(dict.fromkeys(g.intersections, 1.0), {})
    cold, warm = value_update_loop(g, 1e-10), value_update_loop(g, 1e-6, v_init)
    g.highways = _LenOnly(len(g.highways))
    assert _table_bits(solve(g, delta=1e-10)[0]) == _table_bits(cold)
    assert _table_bits(value_update_loop(g, 1e-6, v_init)) == _table_bits(warm)


def test_tables_key_on_the_graphs_own_state_objects():
    # the solve's V and Q keys are the graph's id objects, not copies, so a
    # kept table costs no second int per state
    g = random_highway_graph(random.Random(8), 15)
    own = {s: s for s in g.intersections}
    assert min(own) > 2 ** 30                       # beyond the small-int cache
    tables = value_update_loop(g, 1e-10)
    assert all(own[s] is s for s in tables.v)
    assert all(own[s] is s for s, _a in tables.q)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_cold_solve_matches_vanilla_on_corridor_graphs(seed):
    g = corridor_highway_graph(random.Random(seed))
    tables = value_update_loop(g, delta=1e-13)
    oracle = vanilla_value_iteration(expand_to_empirical(g), delta=1e-14)
    assert oracle.converged and tables.final_delta < 1e-13
    for s in g.intersections:
        assert tables.v[s] == pytest.approx(oracle.values[s], abs=1e-9)


def test_corridor_graphs_cover_every_kind_of_start():
    # over these seeds the corridor shape keeps no state at all (rings
    # only), gives an exact start (the full loop confirms it in one sweep),
    # and gives starts the full loop has to correct (a corridor ring starts
    # at zero, and a two-cycle worth going round is left out)
    stats = [solve(corridor_highway_graph(random.Random(seed)), delta=1e-13)[1]
             for seed in range(40)]
    assert all(st["contracted"] for st in stats)
    assert any(st["reduced_intersections"] == 0 for st in stats)
    # a contracted graph with no state left takes no sweep
    assert all(st["reduced_sweeps"] == 0 for st in stats if not st["reduced_intersections"])
    assert any(st["full_sweeps"] == 1 for st in stats)
    assert any(st["reduced_intersections"] and st["full_sweeps"] > 10 for st in stats)


def test_a_long_two_way_chain_solves_cold_in_a_few_sweeps():
    # 200 cells, each stepping to both neighbours; the last one also steps
    # into a terminal goal.  The sweep loop alone needs about 200 sweeps.
    g = HighwayGraph(gamma=0.99)
    cells = list(range(200))
    for a, b in zip(cells, cells[1:]):
        g.add_highway(a, b, [0], [-0.01])
        g.add_highway(b, a, [1], [-0.01])
    g.add_highway(cells[-1], 999, [2], [1.0])
    tables, stats = solve(g, delta=1e-10)
    assert stats["contracted"] == 198 and stats["reduced_intersections"] == 3
    assert tables.iterations_run <= 5 and stats["full_sweeps"] == 1
    oracle = vanilla_value_iteration(expand_to_empirical(g), delta=1e-12)
    for s in g.intersections:
        assert tables.v[s] == pytest.approx(oracle.values[s], abs=1e-9)


def _uneven_graph():
    """Four intersections of out-degree 3, 2, 1 and 0, with one-step highways."""
    g = HighwayGraph(gamma=0.5)
    for s in (10, 20, 30, 40):
        g.make_intersection(s)
    for s, a, to, r in [(10, 0, 10, 0.7), (10, 1, 20, 0.1), (20, 0, 20, 0.3),
                        (30, 2, 30, 0.9), (30, 0, 40, 0.2), (30, 1, 10, 0.6)]:
        g.add_highway(s, to, [a], [r])
    return g


def _assert_same_as_the_per_highway_loop(g, delta, v_init=None):
    tables = value_update_loop(g, delta=delta, v_init=v_init)
    v, q, iterations, final_delta = _per_highway_loop(g, delta, v_init)
    assert _bits(tables.v) == _bits(v)
    assert _bits(tables.q) == _bits(q)
    assert tables.iterations_run == iterations
    assert struct.pack("<d", tables.final_delta) == struct.pack("<d", final_delta)
    return tables


def test_loop_stops_once_the_largest_value_change_is_below_delta():
    g = _uneven_graph()
    # max |dV| after sweeps 3 and 4: 0.225 and 0.1125, so sweep 4 stops at
    # delta 0.2, though its Q moved by 0.3625 in sum
    v, qs = {}, []
    for _ in range(4):
        v, q = one_sweep(g, v)
        qs.append(q)
    q3, q4 = qs[2:]
    assert sum(abs(q4[k] - q3[k]) for k in q4) > 0.2
    tables = _assert_same_as_the_per_highway_loop(g, 0.2)
    assert tables.iterations_run == 4
    assert tables.final_delta == pytest.approx(0.1125)


def _two_intersection_cycle(gamma, there, back):
    """Intersections 0 and 1 with one highway each way, paying there and back."""
    g = HighwayGraph(gamma=gamma)
    g.add_highway(0, 1, [0], [there])
    g.add_highway(1, 0, [0], [back])
    return g


def test_a_cycle_converges_with_the_default_cap():
    # the fixed point is V(0) = 1 / (1 - gamma^2); the solve needs 2,293
    # sweeps, far more than 10 per intersection
    tables, stats = solve(_two_intersection_cycle(0.99, 1.0, 0.0), delta=1e-10)
    assert stats["converged"] and tables.iterations_run == 2293
    assert tables.v[0] == pytest.approx(1 / (1 - 0.99 ** 2), abs=1e-8)


def test_loop_takes_the_change_exactly_on_the_capped_sweep():
    # rounding keeps max |dV| at 2.0e-15, above delta 1e-15, so the loop
    # stops at the cap: the first change is 0.36, and 0.36 * 0.99^3335 is
    # below 1e-15, so K = 3336 and the cap 6672.  The last sweep's max |dV|
    # is the reference's bit for bit.
    g = _two_intersection_cycle(0.99, 0.36, -0.36)
    tables = _assert_same_as_the_per_highway_loop(g, 1e-15)
    assert tables.iterations_run == 6672 and tables.final_delta >= 1e-15


def test_a_nan_warm_start_ends_the_solve_after_one_sweep():
    g = _uneven_graph()
    tables, stats = solve(g, delta=1e-6, v_init=ValueTables.from_dicts({10: math.nan}, {}))
    assert tables.iterations_run == 1 and not stats["converged"]
    assert math.isnan(tables.final_delta)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 24),
       st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.5, math.nan, math.inf, 5e-324]),
                min_size=1, max_size=6))
def test_the_warm_start_lays_the_previous_v_over_the_grown_graph(seed, episodes, max_len,
                                                                 pool):
    # the previous tables hold some of the graph's states, and states it
    # lacks; the graph then grows new intersections.  The warm start must
    # hold, bit for bit, what one dict lookup per state gave
    rng = random.Random(seed)
    _table, _actions, trajs = random_mdp_walks(rng, 2 * episodes, max_len)
    g = HighwayGraph(gamma=0.95).assemble(trajs[:episodes])
    before = {s: rng.choice(pool) for s in g.intersections if rng.random() < 0.8}
    ids = [*range(16), 2 ** 64 - 1]       # states here are 0-11; interior ones too
    before.update({rng.choice(ids): rng.choice(pool) for _ in range(rng.randint(0, 3))})
    g.assemble(trajs[episodes:])
    states = g.edge_columns()[0]
    want = np.array([before.get(s, 0.0) for s in states.tolist()], np.float64)
    got = _warm_start(states, ValueTables.from_dicts(before, {}))
    assert got.tobytes() == want.tobytes()


def test_loop_warm_start_reaches_same_fixed_point():
    g = random_highway_graph(random.Random(33), max_intersections=25)
    cold = value_update_loop(g, delta=1e-13)
    rng = random.Random(1)
    warm_init = {s: rng.uniform(-5, 5) for s in g.intersections}
    warm = value_update_loop(g, delta=1e-13, v_init=ValueTables.from_dicts(warm_init, {}))
    for s in g.intersections:
        assert warm.v[s] == pytest.approx(cold.v[s], abs=1e-7)


# ------------------------------------------------------------- interior values

def test_interior_value_last_offset_zero_rewards():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 4, [0] * 4, [0.0] * 4, interior=[1, 2, 3])
    tables = value_update_loop(g, delta=1e-15)
    tables = ValueTables.from_dicts({**tables.v, 4: 2.0}, tables.q)  # pretend downstream value
    iv = interior_values(g, tables)
    assert iv[3] == pytest.approx(0.99 * 2.0)


def test_interior_value_intersection_identity():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 1, [0], [1.0])
    tables = value_update_loop(g, delta=1e-15)
    iv = interior_values(g, tables)
    assert iv[0] == tables.v[0]
    assert iv[1] == tables.v[1]


def test_interior_values_match_ground_truth_on_covered_maze():
    spec = EnvSpec(kind="maze", width=5, height=5, seed=2)
    env = make_env(spec)
    g = HighwayGraph(gamma=0.99)
    trajs = []
    for obs in env.enumerate_states():
        if env.is_terminal(obs):
            continue
        for a in range(env.action_count):
            res = env.step(obs, a)
            trajs.append(Trajectory.from_columns([env.state_id(obs)], [a],
                                                 [env.state_id(res.next_obs)], [res.reward]))
    g.assemble(trajs)
    tables = value_update_loop(g, delta=1e-12)
    learned = interior_values(g, tables)
    truth = env.ground_truth_values(0.99)
    report = completeness_report({s: learned[s] for s in truth}, truth, tol=1e-6)
    assert report["completeness_pct"] == 100.0
    assert report["max_dist"] <= 1e-8


# ---------------------------------------------------------------- completeness

def test_completeness_identical_maps():
    vals = {1: 0.5, 2: -0.25}
    report = completeness_report(vals, dict(vals), tol=1e-9)
    assert report == {"min_dist": 0.0, "max_dist": 0.0, "avg_dist": 0.0,
                      "completeness_pct": 100.0}


def test_completeness_counts_misses():
    truth = {i: 0.0 for i in range(10)}
    vals = dict(truth)
    vals[3] = 0.5
    report = completeness_report(vals, truth, tol=1e-9)
    assert report["completeness_pct"] == pytest.approx(90.0)
    assert report["max_dist"] == pytest.approx(0.5)
    assert report["avg_dist"] == pytest.approx(0.05)


def test_completeness_requires_same_keys():
    with pytest.raises(KeyMismatch):
        completeness_report({1: 0.0}, {1: 0.0, 2: 0.0}, tol=1e-9)


def test_completeness_rejects_empty_maps():
    with pytest.raises(ValueError, match="no states to compare"):
        completeness_report({}, {}, tol=1e-9)


@pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan")])
def test_completeness_rejects_a_negative_or_nan_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        completeness_report({1: 0.0}, {1: 0.0}, tol=tol)


def test_completeness_tolerance_boundary():
    report = completeness_report({1: 0.1}, {1: 0.0}, tol=0.1)
    assert report["completeness_pct"] == 100.0


# --------------------------------------------------------------------- probes

def test_contraction_probe_identical_inputs():
    g = random_highway_graph(random.Random(2), max_intersections=10)
    w = {s: 1.25 for s in g.intersections}
    probe = contraction_probe(g, w, dict(w))
    assert probe["lhs"] == 0.0


def test_contraction_probe_random_draws():
    for seed in range(200):
        rng = random.Random(seed)
        g = random_highway_graph(rng, max_intersections=12)
        w = {s: rng.uniform(-3, 3) for s in g.intersections}
        v = {s: rng.uniform(-3, 3) for s in g.intersections}
        probe = contraction_probe(g, w, v)
        assert probe["lhs"] <= probe["rhs"] + 1e-12


def test_contraction_probe_constant_shift_on_unit_highways():
    rng = random.Random(8)
    g = HighwayGraph(gamma=0.9)
    nodes = list(range(6))
    for s in nodes:
        g.add_highway(s, (s + 1) % 6, [0], [rng.uniform(-1, 1)])
    v = {s: rng.uniform(-1, 1) for s in nodes}
    w = {s: v[s] + 0.75 for s in nodes}
    probe = contraction_probe(g, w, v)
    assert probe["lhs"] == pytest.approx(0.9 * 0.75, abs=1e-12)
    assert probe["rhs"] == pytest.approx(0.9 * 0.75, abs=1e-12)


# ------------------------------------------------------------------ benchmarks

def test_ops_counting_rule():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 100, [0] * 100, [1.0] * 100, interior=list(range(1, 100)))
    _tables, stats = solve(g, delta=1e-9)
    # the second sweep finds the fixed point
    assert stats["sweeps"] == 2
    assert stats["covered_ops"] == 2 * 100
    assert stats["per_sweep_updates"] == 1


def test_per_sweep_update_count_independent_of_highway_length():
    short = HighwayGraph(gamma=0.99)
    short.add_highway(0, 1, [0] * 3, [0.1] * 3, interior=[10, 11])
    long = HighwayGraph(gamma=0.99)
    long.add_highway(0, 1, [0] * 6, [0.1] * 6, interior=[10, 11, 12, 13, 14])
    assert solve(short)[1]["per_sweep_updates"] == solve(long)[1]["per_sweep_updates"] == 1


def test_monotone_convergence_from_zero_with_nonnegative_rewards():
    rng = random.Random(14)
    g = HighwayGraph(gamma=0.95)
    nodes = [rng.getrandbits(40) for _ in range(8)]
    interior = iter(range(10 ** 9, 10 ** 9 + 1000))
    for s in nodes:
        for a in range(2):
            length = rng.randint(1, 3)
            g.add_highway(s, nodes[rng.randrange(len(nodes))],
                          [a] + [0] * (length - 1),
                          [round(rng.uniform(0, 1), 6)] * length,
                          [next(interior) for _ in range(length - 1)])
    states, src, dst, _first, path_return, gamma_pow_len = g.edge_columns()
    eng = _SweepEngine(len(states), src, dst, path_return, gamma_pow_len)
    v = [0.0] * eng.n
    for _ in range(50):
        v_next, _ = eng.sweep(v)
        assert all(b >= a - 1e-12 for a, b in zip(v, v_next))
        v = v_next


def test_csv_exports():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(5, 6, [2], [1.0])
    tables = value_update_loop(g, delta=1e-15)
    vals = values_to_csv(tables)
    qs = q_to_csv(tables)
    assert vals.splitlines()[0] == "state_id,value"
    assert any(line.startswith("5,") for line in vals.splitlines())
    assert qs.splitlines()[0] == "state_id,action,q"
    assert any(line.startswith("5,2,") for line in qs.splitlines())
