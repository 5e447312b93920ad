"""Graph Bellman sweeps, the update loop, interior values, and probes."""

import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import one_sweep, random_highway_graph
from highway_rl.environments import EnvSpec, make_env
from highway_rl.errors import KeyMismatch
from highway_rl.highway_graph import HighwayGraph, expand_to_empirical
from highway_rl.transition_model import Trajectory, TransitionSample, vanilla_value_iteration
from highway_rl.value_iteration import (_SweepEngine, completeness_report, contraction_probe,
                                        interior_values, q_to_csv, solve, value_update_loop,
                                        values_to_csv)


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
    tables = value_update_loop(g, max_iter=500, delta=1e-15)
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
    tables = value_update_loop(g, max_iter=100, delta=1e-15)
    # terminal value 0 downstream: V(start) is the discounted path return
    assert tables.v[0] == pytest.approx(0.25)
    assert tables.iterations_run == 2
    oracle = vanilla_value_iteration(expand_to_empirical(g), max_iter=1000, delta=1e-14)
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
        tables = value_update_loop(g, max_iter=1000, delta=1e-300)
        assert tables.iterations_run <= len(layers) + 1


def test_loop_matches_vanilla_on_random_cyclic_graph():
    g = random_highway_graph(random.Random(21), max_intersections=20)
    tables = value_update_loop(g, max_iter=20_000, delta=1e-13)
    oracle = vanilla_value_iteration(expand_to_empirical(g), max_iter=100_000, delta=1e-14)
    for s in g.intersections:
        assert tables.v[s] == pytest.approx(oracle.values[s], abs=1e-9)


def test_loop_records_metadata():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 0, [0], [1.0])
    tables = value_update_loop(g, max_iter=7, delta=0.0)
    assert tables.iterations_run == 7
    assert tables.final_delta > 0.0


def _per_highway_loop(graph, max_iter, delta, v_init):
    """The per-highway Python backup loop that the numpy sweep replaced.

    It is the bitwise reference: q from the previous sweep's V, V the first
    largest q per intersection, 0.0 where no highway starts, and the summed
    |dQ| added left to right from the int 0, as `sum` does on Python 3.11.
    """
    states = sorted(graph.intersections)
    index = {s: i for i, s in enumerate(states)}
    hws = sorted(graph.highways.values(), key=lambda h: (h.from_state, h.first_action))
    edges = [(index[h.from_state], index[h.to_state], h.gamma_pow_len, h.path_return)
             for h in hws]
    if max_iter is None:
        max_iter = 10 * max(1, len(states))
    v = [v_init.get(s, 0.0) for s in states] if v_init else [0.0] * len(states)
    q_prev = [0.0] * len(edges)
    iterations = 0
    final_delta = 0.0
    for iterations in range(1, max_iter + 1):
        v_next = [None] * len(states)
        q = [0.0] * len(edges)
        for j, (f, t, g_len, ret) in enumerate(edges):
            val = ret + g_len * v[t]
            q[j] = val
            if v_next[f] is None or val > v_next[f]:
                v_next[f] = val
        v = [x if x is not None else 0.0 for x in v_next]
        final_delta = 0
        for a, b in zip(q, q_prev):
            final_delta += abs(a - b)
        q_prev = q
        if final_delta < delta:
            break
    if not states:
        iterations = 0
    return (dict(zip(states, v)), dict(zip([(h.from_state, h.first_action) for h in hws], q_prev)),
            iterations, final_delta)


def _bits(table):
    return list(table), struct.pack(f"<{len(table)}d", *table.values())


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(["random", "no_highways", "empty"]),
       budget=st.sampled_from([(20_000, 1e-13), (7, 0.0), (None, 1e-6)]),
       warm=st.booleans())
@example(seed=0, shape="empty", budget=(7, 0.0), warm=False)
@example(seed=0, shape="empty", budget=(None, 1e-6), warm=False)
@example(seed=1, shape="no_highways", budget=(7, 0.0), warm=True)
@example(seed=1, shape="no_highways", budget=(None, 1e-6), warm=False)
@example(seed=5, shape="random", budget=(7, 0.0), warm=True)
def test_loop_is_bitwise_equal_to_the_per_highway_loop(seed, shape, budget, warm):
    rng = random.Random(seed)
    if shape == "random":
        g = random_highway_graph(rng, max_intersections=15)
    else:
        g = HighwayGraph(gamma=0.9)
        for s in range(rng.randint(1, 4) if shape == "no_highways" else 0):
            g.make_intersection(s)
    v_init = None
    if warm:
        # some intersections missing (they start at 0.0) and one stray key
        v_init = {s: rng.uniform(-5, 5) for s in g.intersections if rng.random() < 0.8}
        v_init[-1] = 3.0
    max_iter, delta = budget
    tables = value_update_loop(g, max_iter=max_iter, delta=delta, v_init=v_init)
    v, q, iterations, final_delta = _per_highway_loop(g, max_iter, delta, v_init)
    assert _bits(tables.v) == _bits(v)
    assert _bits(tables.q) == _bits(q)
    assert all(type(x) is float for x in [*tables.v.values(), *tables.q.values()])
    assert tables.iterations_run == iterations
    assert type(tables.final_delta) is type(final_delta)
    assert struct.pack("<d", tables.final_delta) == struct.pack("<d", final_delta)


def test_loop_warm_start_reaches_same_fixed_point():
    g = random_highway_graph(random.Random(33), max_intersections=25)
    cold = value_update_loop(g, max_iter=20_000, delta=1e-13)
    rng = random.Random(1)
    warm_init = {s: rng.uniform(-5, 5) for s in g.intersections}
    warm = value_update_loop(g, max_iter=20_000, delta=1e-13, v_init=warm_init)
    for s in g.intersections:
        assert warm.v[s] == pytest.approx(cold.v[s], abs=1e-7)


# ------------------------------------------------------------- interior values

def test_interior_value_last_offset_zero_rewards():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 4, [0] * 4, [0.0] * 4, interior=[1, 2, 3])
    tables = value_update_loop(g, max_iter=100, delta=1e-15)
    tables.v[4] = 2.0  # pretend downstream value
    iv = interior_values(g, tables)
    assert iv[3] == pytest.approx(0.99 * 2.0)


def test_interior_value_intersection_identity():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(0, 1, [0], [1.0])
    tables = value_update_loop(g, max_iter=100, delta=1e-15)
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
            trajs.append(Trajectory([TransitionSample(
                env.state_id(obs), a, env.state_id(res.next_obs), res.reward)]))
    g.assemble(trajs)
    tables = value_update_loop(g, max_iter=100_000, delta=1e-12)
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
    g.add_highway(0, 100, [0] * 100, [0.0] * 100, interior=list(range(1, 100)))
    eng = _SweepEngine(g)
    assert eng.covered_transitions == 100
    _tables, stats = solve(g, delta=0.0, max_iter=10)
    assert stats["covered_ops"] == 10 * 100
    assert stats["per_sweep_updates"] == 1


def test_per_sweep_update_count_independent_of_highway_length():
    short = HighwayGraph(gamma=0.99)
    short.add_highway(0, 1, [0] * 3, [0.1] * 3, interior=[10, 11])
    long = HighwayGraph(gamma=0.99)
    long.add_highway(0, 1, [0] * 6, [0.1] * 6, interior=[10, 11, 12, 13, 14])
    assert len(_SweepEngine(short).edge_keys) == len(_SweepEngine(long).edge_keys) == 1


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
    eng = _SweepEngine(g)
    v = [0.0] * len(eng.states)
    for _ in range(50):
        v_next, _ = eng.sweep(v)
        assert all(b >= a - 1e-12 for a, b in zip(v, v_next))
        v = v_next


def test_csv_exports():
    g = HighwayGraph(gamma=0.99)
    g.add_highway(5, 6, [2], [1.0])
    tables = value_update_loop(g, max_iter=100, delta=1e-15)
    vals = values_to_csv(tables)
    qs = q_to_csv(tables)
    assert vals.splitlines()[0] == "state_id,value"
    assert any(line.startswith("5,") for line in vals.splitlines())
    assert qs.splitlines()[0] == "state_id,action,q"
    assert any(line.startswith("5,2,") for line in qs.splitlines())
