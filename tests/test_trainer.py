"""Actor/learner loop: ladders, convergence detection, reproducibility."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from highway_rl.environments import EnvSpec, StepResult, make_env
from highway_rl.errors import DeterminismViolation
from highway_rl.highway_graph import HighwayGraph
from highway_rl.policy import PolicySnapshot
from highway_rl.trainer import (RunMetrics, TrainConfig, UpdateRow, detect_convergence,
                                epsilon_ladder, evaluate, run_episode, train)
from highway_rl.value_iteration import ValueTables


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


def test_cold_start_zero_budget():
    res = train(_maze_cfg(frame_budget=0))
    assert res.metrics.rows == []
    assert not res.graph.intersections
    # the published policy acts uniformly at random on the unseen start state
    from collections import Counter

    from highway_rl.policy import epsilon_greedy
    env = make_env(res.config.env)
    sid = env.state_id(env.reset())
    rng = random.Random(0)
    actions = Counter(epsilon_greedy(res.snapshot, sid, 0.0, rng) for _ in range(4000))
    for a in range(4):
        assert actions[a] / 4000 == pytest.approx(0.25, abs=0.05)


def test_maze3x3_converges_at_first_update():
    res = train(_maze_cfg())
    assert res.metrics.converged_at_update == 1
    rows = res.metrics.rows
    assert len(rows) == 1 + res.config.convergence_patience
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
        total += len(traj.samples)
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
    res = train(_maze_cfg(convergence_patience=5))
    rows = res.metrics.rows
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
            return StepResult(1 + hits, 0.0, False)  # drifts every revisit
        return StepResult(0, 0.0, True)


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
    (EnvSpec(kind="maze", width=15, height=15, seed=1), 1, "f06b93dd5a7d23ae"),
    (EnvSpec(kind="taxi", seed=0), 8, "0543146e207c5496"),
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
        self.table = {(s, a): StepResult(rng.randrange(n_states),
                                         round(rng.uniform(-1.0, 1.0), 3),
                                         rng.random() < 0.03)
                      for s in range(n_states) for a in range(action_count)}

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
            action = rng.randrange(snapshot.action_count)
        else:
            action = snapshot.greedy.get(sid)
            if action is None:
                action = rng.randrange(snapshot.action_count)
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
    snap = PolicySnapshot(HighwayGraph(), ValueTables(), action_count)
    # a greedy table that covers some states and not others
    snap.greedy = {sid: rng.randrange(action_count) for sid in range(1000, 1000 + env.n_states)
                   if rng.random() < 0.5}
    episode_seed = rng.getrandbits(62)
    traj = run_episode(env, snap, epsilon, episode_seed, step_cap)
    columns, terminal = _per_frame_episode(env, snap, epsilon, episode_seed, step_cap)
    assert (traj.from_states, traj.actions, traj.next_states, traj.rewards) == columns
    assert traj.terminal == terminal
