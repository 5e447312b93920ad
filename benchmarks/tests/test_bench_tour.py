"""The benchmark's full-coverage tour graph, and its tracer."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from highway_rl import EnvSpec, TrainConfig, make_env, train  # noqa: E402
from highway_rl.highway_graph import HighwayGraph  # noqa: E402
import highway_rl.trainer as trainer  # noqa: E402

from tour import tour_graph, tour_trajectory  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Instrumentation  # noqa: E402


def _shape(graph):
    return (set(graph.intersections),
            {(h.from_state, h.to_state, h.actions) for h in graph.highways.values()})


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_tour_graph_equals_trained_graph(seed):
    spec = EnvSpec(kind="maze", width=15, height=15, seed=seed)
    trained = train(TrainConfig(env=spec, run_seed=seed)).graph
    assert _shape(tour_graph(make_env(spec))) == _shape(trained)


def test_tour_never_steps_out_of_the_goal():
    env = make_env(EnvSpec(kind="maze", width=15, height=15, seed=0))
    traj = tour_trajectory(env)
    goal = env.state_id(env.goal)
    assert traj.terminal
    assert traj.samples[-1].next_state == goal
    assert all(s.state != goal for s in traj.samples)
    # every passage reachable without passing the goal is walked both ways
    steps = {(s.state, s.next_state) for s in traj.samples if s.state != s.next_state}
    assert all((b, a) in steps for a, b in steps if goal not in (a, b))


def test_self_time_subtracts_children_and_folded_calls():
    t = Tracer()
    t.active = True
    ticks = iter([0.0, 1.0, 1.5, 2.0, 3.0, 10.0])
    t.clock = lambda: next(ticks)
    leaf = t.leaf("leaf", lambda: None)
    t.call("outer", lambda: (t.call("inner", lambda: None), leaf()))
    totals = t.totals()
    # outer 0..10, inner 1..1.5, leaf 2..3
    assert totals["outer"]["total_s"] == 10.0
    assert totals["outer"]["self_s"] == 10.0 - 0.5 - 1.0
    assert totals["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert t.spans[1][3] == 0 and t.spans[1][4] == 0


def test_instrumentation_restores_the_library():
    originals = (trainer.run_episode, trainer.epsilon_greedy, trainer.value_update_loop,
                 trainer.evaluate, HighwayGraph.assemble, HighwayGraph.split_highway)
    env = make_env(EnvSpec(kind="maze", width=3, height=3, seed=0))
    tracer = Tracer()
    instr = Instrumentation(tracer)
    instr.install()
    instr.track_env(env)
    tracer.active = True
    try:
        train(TrainConfig(env=env.spec, run_seed=0))
    finally:
        tracer.active = False
        instr.uninstall()
    frames = tracer.totals()["trainer.run_episode"]["frames"]
    steps_in_rollouts = sum(calls for (parent, name), (calls, _s) in tracer.leaves.items()
                            if name == "environments.step"
                            and tracer.spans[parent][0] == "trainer.run_episode")
    assert frames == steps_in_rollouts > 0
    assert (trainer.run_episode, trainer.epsilon_greedy, trainer.value_update_loop,
            trainer.evaluate, HighwayGraph.assemble, HighwayGraph.split_highway) == originals
    assert "step" not in vars(env)
