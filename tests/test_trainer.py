"""Actor/learner loop: ladders, convergence detection, reproducibility."""

import dataclasses
import hashlib
import math
import random
import struct
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_mdp_walks
from highway_rl.environments import EnvSpec, StepResult, make_env
from highway_rl.errors import DeterminismViolation
from highway_rl.highway_graph import HighwayGraph
from highway_rl.policy import compile_greedy
from highway_rl.trainer import (RunMetrics, TrainConfig, UpdateRow, _policy_signature,
                                _topology_signature, detect_convergence, epsilon_ladder,
                                evaluate, run_episode, train)
from highway_rl.value_iteration import ValueTables, value_update_loop


def _maze_cfg(**overrides):
    base = dict(env=EnvSpec(kind="maze", width=3, height=3, seed=7), run_seed=1)
    base.update(overrides)
    return TrainConfig(**base)


def test_epsilon_ladder_spacing():
    eps = [epsilon_ladder(k, 10) for k in range(10)]
    assert eps[0] == pytest.approx(0.1)
    assert eps[-1] == pytest.approx(1.0)
    diffs = {round(b - a, 12) for a, b in zip(eps, eps[1:])}
    assert len(diffs) == 1  # equally spaced


def test_epsilon_ladder_single_actor():
    assert epsilon_ladder(0, 1) == 0.1


@pytest.mark.parametrize("setting", [
    {"actors": 0}, {"frame_budget": -1}, {"convergence_patience": 0},
    {"convergence_patience": -1}, {"episodes_per_update": 0}, {"episode_step_cap": 0},
    {"delta": 0.0}, {"delta": -1e-6}, {"delta": float("nan")}, {"gamma": 1.0}, {"gamma": -0.5}],
    ids=lambda setting: "=".join(map(str, *setting.items())))
def test_config_rejects_settings_a_run_cannot_use(setting):
    # patience 0 would converge at update 1, no episodes per update would run
    # on no frames, a cap of 0 steps records no sample, and delta <= 0 would
    # never stop a solve
    with pytest.raises(ValueError):
        _maze_cfg(**setting)


def test_cold_start_zero_budget():
    res = train(_maze_cfg(frame_budget=0))
    assert res.metrics.rows == []
    assert res.metrics.converged_at_update is None and res.metrics.stopped_by is None
    assert not res.graph.intersections
    # the published policy acts uniformly at random on the unseen start state
    from collections import Counter

    from highway_rl.policy import epsilon_greedy
    env = make_env(res.config.env)
    sid = env.state_id(env.reset())
    rng = random.Random(0)
    actions = Counter(epsilon_greedy(res.snapshot, sid, 0.0, rng, env.action_count)
                      for _ in range(4000))
    for a in range(4):
        assert actions[a] / 4000 == pytest.approx(0.25, abs=0.05)


def test_maze3x3_converges_at_first_update():
    # the first update's graph is closed, so the run stops on it with no
    # confirming updates
    res = train(_maze_cfg())
    assert res.metrics.converged_at_update == 1
    assert res.metrics.stopped_by == "certificate"
    assert res.graph.untried_pairs(4) == 0
    rows = res.metrics.rows
    assert len(rows) == 1
    assert rows[0].frames_so_far < 10_000


def test_frames_accounting():
    res = train(_maze_cfg())
    rows = res.metrics.rows
    frames = [r.frames_so_far for r in rows]
    assert all(b > a for a, b in zip(frames, frames[1:]))
    # re-collect the episodes with the same seeds and count their lengths
    env = make_env(res.config.env)
    cfg = res.config
    from highway_rl.trainer import _mix_seed
    empty = train(dataclasses.replace(cfg, frame_budget=0)).snapshot
    total = 0
    for episode_index in range(cfg.resolved_episodes_per_update()):
        actor = episode_index % cfg.actors
        traj = run_episode(env, empty, epsilon_ladder(actor, cfg.actors),
                           _mix_seed(cfg.run_seed, actor, episode_index),
                           cfg.resolved_step_cap())
        total += len(traj)
    assert total == rows[0].frames_so_far


def test_reproducible_runs_modulo_wall_clock():
    a = train(_maze_cfg())
    b = train(_maze_cfg())
    strip = lambda r: {k: v for k, v in dataclasses.asdict(r).items() if k != "wall_ms"}
    assert [strip(r) for r in a.metrics.rows] == [strip(r) for r in b.metrics.rows]
    assert a.metrics.converged_at_update == b.metrics.converged_at_update
    assert a.graph.intersections == b.graph.intersections
    assert a.graph.observed == b.graph.observed
    assert a.tables.v == b.tables.v
    assert a.tables.q == b.tables.q


def test_different_seed_changes_exploration():
    a = train(_maze_cfg(run_seed=1))
    b = train(_maze_cfg(run_seed=2))
    assert ([r.frames_so_far for r in a.metrics.rows]
            != [r.frames_so_far for r in b.metrics.rows])


def test_greedy_return_non_decreasing_on_maze():
    # a maze whose graph never closes, so that the run makes several updates
    res = train(TrainConfig(env=EnvSpec(kind="maze", width=15, height=15, seed=1), run_seed=1,
                            convergence_patience=5))
    rows = res.metrics.rows
    assert len(rows) > 5
    returns = [r.expected_discounted_return for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(returns, returns[1:]))


def test_detect_convergence_cases():
    def row(update, tsig, psig):
        return UpdateRow(update=update, frames_so_far=update, wall_ms=0.0,
                         expected_discounted_return=0.0, total_reward=0.0,
                         intersections=0, highways=0, z=0.0, vi_sweeps=0,
                         topology_sig=tsig, policy_sig=psig)

    frozen = RunMetrics(rows=[row(1, "a", "x"), row(2, "a", "x"),
                              row(3, "a", "x"), row(4, "a", "x")])
    assert detect_convergence(frozen, patience=3) == 1
    growing = RunMetrics(rows=[row(1, "a", "x"), row(2, "b", "x"),
                               row(3, "c", "x"), row(4, "d", "x")])
    assert detect_convergence(growing, patience=3) is None
    late = RunMetrics(rows=[row(1, "a", "x"), row(2, "b", "x"),
                            row(3, "b", "x"), row(4, "b", "x"), row(5, "b", "x")])
    assert detect_convergence(late, patience=3) == 2
    policy_flip = RunMetrics(rows=[row(1, "a", "x"), row(2, "a", "y"),
                                   row(3, "a", "y"), row(4, "a", "y")])
    assert detect_convergence(policy_flip, patience=3) is None


def test_evaluate_deterministic():
    res = train(_maze_cfg())
    env = make_env(res.config.env)
    a = evaluate(res.snapshot, env, episodes=3, gamma=0.99, seed=42)
    b = evaluate(res.snapshot, env, episodes=3, gamma=0.99, seed=42)
    assert a.mean_total_reward == b.mean_total_reward
    assert a.mean_discounted_return == b.mean_discounted_return
    assert [e.total_reward for e in a.episodes] == [e.total_reward for e in b.episodes]


def test_untrained_snapshot_walks_cliff_badly():
    cfg = TrainConfig(env=EnvSpec(kind="cliffwalking", seed=0), frame_budget=0)
    res = train(cfg)
    env = make_env(cfg.env)
    ev = evaluate(res.snapshot, env, episodes=2, gamma=0.99, step_cap=2000, seed=0)
    assert ev.mean_total_reward < -100.0


def test_metrics_streaming_callback():
    seen = []
    res = train(_maze_cfg(), on_update=seen.append)
    assert seen == res.metrics.rows


class _LoopEnv:
    """A two-state table: action 0 ends the episode for reward 0, action 1
    stays in the start state for `loop_reward`."""

    class _Spec:
        kind = "maze"

    spec = _Spec()
    action_count = 2

    def __init__(self, loop_reward):
        self.table = {0: {0: StepResult(1, 0.0, True, 1001),
                          1: StepResult(0, loop_reward, False, 1000)}}

    def reset(self, episode_seed=None):
        return 0

    def state_id(self, obs):
        return obs + 1000

    def step(self, obs, action):
        return self.table[obs][action]


@pytest.mark.parametrize("loop_reward, stopped_by, rows", [(-0.5, "certificate", 1),
                                                           (0.5, "patience", 4)])
def test_a_self_loop_worth_more_than_the_values_blocks_the_certificate(
        monkeypatch, loop_reward, stopped_by, rows):
    # the graph leaves the loop out, so V(start) = 0; a loop paying more than
    # (1 - gamma) * 0 would beat it, and the run falls back to patience
    import highway_rl.trainer as trainer_module

    monkeypatch.setattr(trainer_module, "make_env", lambda spec: _LoopEnv(loop_reward))
    res = train(_maze_cfg())
    assert res.graph.untried_pairs(2) == 0 and res.graph.terminals == {1001}
    assert res.tables.final_delta < res.config.delta
    assert res.metrics.converged_at_update == 1
    assert (res.metrics.stopped_by, len(res.metrics.rows)) == (stopped_by, rows)


class _StochasticEnv:
    """Minimal environment double: repeating a pair yields a new outcome."""

    class _Spec:
        kind = "maze"

    spec = _Spec()
    action_count = 2

    def __init__(self):
        self.seen = {}

    def reset(self, episode_seed=None):
        return 0

    def state_id(self, obs):
        return obs + 1000

    def step(self, obs, action):
        if obs == 0:
            hits = self.seen.get(action, 0)
            self.seen[action] = hits + 1
            return StepResult(1 + hits, 0.0, False, 1001 + hits)  # drifts every revisit
        return StepResult(0, 0.0, True, 1000)


@pytest.mark.parametrize("spec", [EnvSpec(kind="maze", width=5, height=5, seed=2),
                                  EnvSpec(kind="taxi", seed=0)], ids=["maze5-2", "taxi-0"])
def test_no_trajectory_outlives_its_ingestion(monkeypatch, spec):
    # each episode is folded into the graph as soon as it ends and then
    # dropped: no rollout starts while an earlier trajectory is alive
    import highway_rl.trainer as trainer_module

    refs = []
    ingested = 0
    rollout = trainer_module.run_episode

    def tracked(*args):
        assert [ref() for ref in refs] == [None] * len(refs)
        traj = rollout(*args)
        refs.append(weakref.ref(traj))
        return traj

    assemble = HighwayGraph.assemble

    def one_episode(graph, trajs):
        nonlocal ingested
        # a list holding the episode just rolled out, once: rollout order
        assert type(trajs) is list and len(trajs) == 1
        assert trajs[0] is refs[-1]() and ingested == len(refs) - 1
        ingested += 1
        return assemble(graph, trajs)

    monkeypatch.setattr(trainer_module, "run_episode", tracked)
    monkeypatch.setattr(HighwayGraph, "assemble", one_episode)
    res = train(TrainConfig(env=spec, run_seed=0))
    assert ingested == len(refs) == len(res.metrics.rows) * res.config.resolved_episodes_per_update()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_stochastic_stream_aborts_with_violation(monkeypatch):
    import highway_rl.trainer as trainer_module

    fake = _StochasticEnv()
    monkeypatch.setattr(trainer_module, "make_env", lambda spec: fake)
    cfg = _maze_cfg(episode_step_cap=4, episodes_per_update=6, frame_budget=100)
    with pytest.raises(DeterminismViolation) as err:
        train(cfg)
    assert err.value.state == 1000
    assert err.value.action in (0, 1)


def test_metrics_csv_schema():
    res = train(_maze_cfg())
    csv = res.metrics.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "# hgrl-metrics-v1"
    assert lines[1].startswith("update,frames_so_far,wall_ms,")
    assert len(lines) == 2 + len(res.metrics.rows)


@pytest.mark.parametrize("spec, run_seed, digest", [
    (EnvSpec(kind="maze", width=15, height=15, seed=1), 1, "ee44b9153b5245ef"),
    (EnvSpec(kind="taxi", seed=0), 8, "7f6469f6d00c0f2f"),
])
def test_metrics_csv_golden(spec, run_seed, digest):
    # metrics.csv minus its wall-clock column is fixed bit for bit by the
    # config; these digests pin it across changes to the training code
    lines = train(TrainConfig(env=spec, run_seed=run_seed)).metrics.to_csv().splitlines()
    wall = lines[1].split(",").index("wall_ms")
    stripped = "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != wall)
                         for line in lines)
    assert hashlib.sha256(stripped.encode()).hexdigest()[:16] == digest


class _TableEnv:
    """A random deterministic MDP over integer states, some of them terminal."""

    def __init__(self, rng: random.Random, n_states: int, action_count: int):
        self.n_states = n_states
        self.action_count = action_count
        self.table = {}
        for s in range(n_states):
            for a in range(action_count):
                nxt = rng.randrange(n_states)
                self.table[(s, a)] = StepResult(nxt, round(rng.uniform(-1.0, 1.0), 3),
                                                rng.random() < 0.03, self.state_id(nxt))

    def reset(self, episode_seed=None):
        return episode_seed % self.n_states

    def state_id(self, obs):
        return obs + 1000

    def step(self, obs, action):
        return self.table[(obs, action)]


def _per_frame_episode(env, snapshot, epsilon, episode_seed, step_cap):
    """A rollout that makes the epsilon-greedy choice step by step: an
    exploration coin when epsilon > 0, else the greedy table, with a uniform
    random action for exploration and for states not in the table."""
    rng = random.Random(episode_seed)
    obs = env.reset(episode_seed)
    sid = env.state_id(obs)
    columns = ([], [], [], [])
    terminal = False
    for _ in range(step_cap):
        if epsilon > 0.0 and rng.random() < epsilon:
            action = rng.randrange(env.action_count)
        else:
            action = snapshot.get(sid)
            if action is None:
                action = rng.randrange(env.action_count)
        res = env.step(obs, action)
        nxt = env.state_id(res.next_obs)
        for column, value in zip(columns, (sid, action, nxt, res.reward)):
            column.append(value)
        obs, sid = res.next_obs, nxt
        if res.done:
            terminal = True
            break
    return columns, terminal


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6),
       st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       st.integers(1, 300))
def test_run_episode_keeps_the_per_frame_choices(seed, action_count, epsilon, step_cap):
    rng = random.Random(seed)
    env = _TableEnv(rng, rng.randint(2, 30), action_count)
    # a greedy table that covers some states and not others
    snap = {sid: rng.randrange(action_count) for sid in range(1000, 1000 + env.n_states)
            if rng.random() < 0.5}
    episode_seed = rng.getrandbits(62)
    traj = run_episode(env, snap, epsilon, episode_seed, step_cap)
    columns, terminal = _per_frame_episode(env, snap, epsilon, episode_seed, step_cap)
    assert (traj.from_states, traj.actions, traj.next_states, traj.rewards) == columns
    assert traj.terminal == terminal


class _CountingEnv(_TableEnv):
    def __init__(self):
        super().__init__(random.Random(0), 4, 2)
        self.steps = 0

    def step(self, obs, action):
        self.steps += 1
        return super().step(obs, action)


@pytest.mark.parametrize("epsilon", [-0.1, 1.5, math.nan])
def test_run_episode_rejects_epsilon_outside_unit_interval_before_stepping(epsilon):
    env = _CountingEnv()
    snap = {}
    with pytest.raises(ValueError, match="epsilon"):
        run_episode(env, snap, epsilon, 0, 10)
    assert env.steps == 0
    assert len(run_episode(env, snap, 1.0, 0, 10)) == env.steps > 0


@pytest.mark.parametrize("step_cap", [0, -5])
def test_run_episode_rejects_a_step_cap_below_one_before_stepping(step_cap):
    env = _CountingEnv()
    snap = {}
    with pytest.raises(ValueError, match="step_cap"):
        run_episode(env, snap, 0.5, 0, step_cap)
    assert env.steps == 0


@pytest.mark.parametrize("setting", [{"step_cap": 0}, {"step_cap": -5}, {"gamma": 1.5},
                                     {"gamma": 1.0}, {"gamma": -0.1}, {"gamma": math.nan}])
def test_evaluate_rejects_a_step_cap_below_one_or_a_gamma_outside_unit_interval(setting):
    env = _CountingEnv()
    snap = {}
    with pytest.raises(ValueError, match=next(iter(setting))):
        evaluate(snap, env, 1, **{"gamma": 0.99, "step_cap": 10, **setting})
    assert env.steps == 0
    assert evaluate(snap, env, 1, gamma=0.99, step_cap=1).episodes[0].steps == env.steps == 1


# ------------------------------------------------------------- signatures

def _reference_topology_signature(graph):
    """The topology digest built from the Highway objects, one value at a time."""
    states = sorted(graph.intersections)
    index = {s: i for i, s in enumerate(states)}
    hws = sorted(graph.highways.values(), key=lambda hw: (hw.from_state, hw.first_action))
    columns = [("Q", states), ("Q", sorted(graph.membership)),
               ("q", [index[hw.from_state] for hw in hws]),
               ("q", [index[hw.to_state] for hw in hws]),
               ("q", [hw.first_action for hw in hws]),
               ("d", [hw.path_return for hw in hws]),
               ("d", [hw.gamma_pow_len for hw in hws])]
    h = hashlib.blake2b(digest_size=16)
    for fmt, values in columns:
        h.update(struct.pack("<Q", len(values)))
        for x in values:
            h.update(struct.pack("<" + fmt, x))
    return h.hexdigest()


def _reference_policy_signature(graph, snapshot):
    """The per-item digest the policy signature must equal."""
    h = hashlib.blake2b(digest_size=16)
    for s in sorted(graph.intersections):
        h.update(struct.pack("<Qq", s, snapshot.get(s, -1)))
    return h.hexdigest()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 24))
def test_signatures_equal_the_per_item_digests(seed, episodes, max_len):
    rng = random.Random(seed)
    _table, action_count, trajs = random_mdp_walks(rng, episodes, max_len)
    g = HighwayGraph(gamma=0.95)
    for traj in trajs:
        g.assemble([traj])
        states = sorted(g.intersections)
        assert _topology_signature(g) == _reference_topology_signature(g)
        snap = compile_greedy(g, value_update_loop(g, delta=1e-9))
        assert _policy_signature(states, snap) == _reference_policy_signature(g, snap)


def test_every_update_signs_the_graph_it_trained(monkeypatch):
    # every row signs the graph as it stands at that update
    graphs = []
    assemble = HighwayGraph.assemble

    def capture(graph, trajs):
        graphs.append(graph)
        return assemble(graph, trajs)

    monkeypatch.setattr(HighwayGraph, "assemble", capture)
    seen = []

    def check(row):
        graph = graphs[-1]
        seen.append(row.topology_sig)
        assert row.topology_sig == _topology_signature(graph)

    res = train(TrainConfig(env=EnvSpec(kind="taxi", seed=0), run_seed=0), on_update=check)
    assert len(seen) == len(res.metrics.rows) > 1
    assert {id(g) for g in graphs} == {id(res.graph)}
    # some updates leave the topology as it was, and some move it
    assert 1 < len(set(seen)) < len(seen)


def test_one_value_solve_per_update_on_the_trained_graph(monkeypatch):
    # the benchmark traces every training solve through this module-level
    # name: train must call it once per update, with its own graph
    import highway_rl.trainer as trainer_module

    calls = []
    solve = trainer_module.value_update_loop

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(trainer_module, "value_update_loop", counting)
    # taxi run seed 8 never closes its graph, so it runs several updates
    res = train(TrainConfig(env=EnvSpec(kind="taxi", seed=0), run_seed=8))
    assert len(calls) == len(res.metrics.rows) > 1
    assert all(args[0] is res.graph for args in calls)


def test_an_update_gathers_the_columns_once_and_builds_no_value_dict(monkeypatch):
    # the solve, compile_greedy's key check and the topology signature share
    # one gather, made in an update only when it changed the graph; no V or
    # Q dict is built until the result is read
    gathers, views = [], []
    gather = HighwayGraph._gather_columns
    monkeypatch.setattr(HighwayGraph, "_gather_columns",
                        lambda graph: gathers.append(graph) or gather(graph))
    for name in ("v", "q"):
        build = getattr(ValueTables, name).func
        monkeypatch.setattr(ValueTables, name, property(
            lambda tables, name=name, build=build: views.append(name) or build(tables)))
    per_update = []
    res = train(TrainConfig(env=EnvSpec(kind="taxi", seed=0), run_seed=0),
                on_update=lambda row: per_update.append(len(gathers) - sum(per_update)))
    sigs = [row.topology_sig for row in res.metrics.rows]
    # the empty graph's first policy is the empty table, which gathers nothing
    assert per_update[0] == 1
    assert per_update[1:] == [int(a != b) for a, b in zip(sigs, sigs[1:])]
    assert 0 in per_update and all(graph is res.graph for graph in gathers)
    assert views == []
    assert res.tables.v and res.tables.q and views == ["v", "q"]
