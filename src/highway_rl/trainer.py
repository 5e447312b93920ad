"""Actor/learner training loop over the highway graph.

A ladder of epsilon-greedy actors collects whole episodes against the most
recent policy snapshot; the learner folds each batch into the highway graph,
re-runs value updating, and publishes a fresh snapshot.  Everything is
seeded: episode seeds derive from (run_seed, actor, episode index), so the
run is reproducible regardless of actor scheduling.

An episode costs, per frame, one call of the episode's compiled action
chooser (an exploration draw and one lookup in the snapshot's greedy table),
one environment step and one state id, appended to the trajectory's four
columns; no per-step objects are built.  The chooser and the environment's
`step` and `state_id` are bound once per episode.

Convergence is declared at the first update after which a configured number
of consecutive updates changed neither the graph topology nor any greedy
action at any intersection.
"""

from __future__ import annotations

import hashlib
import random
import struct
import time
from dataclasses import dataclass, field

from .environments import (DEFAULT_EPISODES_PER_UPDATE, DEFAULT_EVAL_STEP_CAP,
                           DEFAULT_STEP_CAP, EnvSpec, make_env)
from .highway_graph import HighwayGraph, graph_stats
from .policy import PolicySnapshot, chooser, epsilon_greedy
from .transition_model import Trajectory
from .value_iteration import ValueTables, value_update_loop

METRICS_SCHEMA = "hgrl-metrics-v1"
# sweep cap of each update's value solve
SOLVE_MAX_ITER = 100_000
# greedy evaluation episodes after each update
EVAL_EPISODES = 1


@dataclass(frozen=True)
class TrainConfig:
    env: EnvSpec
    actors: int = 10
    episodes_per_update: int | None = None   # None: per-environment default
    frame_budget: int = 1_000_000
    gamma: float = 0.99
    delta: float = 1e-10
    convergence_patience: int = 3
    run_seed: int = 0
    episode_step_cap: int | None = None      # None: per-environment default

    def __post_init__(self):
        if self.actors < 1:
            raise ValueError("actors must be >= 1")
        if self.frame_budget < 0:
            raise ValueError("frame_budget must be >= 0")

    def resolved_episodes_per_update(self) -> int:
        if self.episodes_per_update is not None:
            return self.episodes_per_update
        return DEFAULT_EPISODES_PER_UPDATE[self.env.kind]

    def resolved_step_cap(self) -> int | None:
        if self.episode_step_cap is not None:
            return self.episode_step_cap
        return DEFAULT_STEP_CAP[self.env.kind]


@dataclass
class UpdateRow:
    update: int
    frames_so_far: int
    wall_ms: float
    expected_discounted_return: float
    total_reward: float
    intersections: int
    highways: int
    z: float
    vi_sweeps: int
    topology_sig: str
    policy_sig: str


METRICS_HEADER = ("update,frames_so_far,wall_ms,expected_discounted_return,"
                  "total_reward,intersections,highways,z,vi_sweeps,"
                  "topology_sig,policy_sig")


def metrics_row_line(r: "UpdateRow") -> str:
    return (f"{r.update},{r.frames_so_far},{r.wall_ms:.3f},"
            f"{r.expected_discounted_return!r},{r.total_reward!r},"
            f"{r.intersections},{r.highways},{r.z!r},{r.vi_sweeps},"
            f"{r.topology_sig},{r.policy_sig}")


@dataclass
class RunMetrics:
    rows: list[UpdateRow] = field(default_factory=list)
    converged_at_update: int | None = None

    def to_csv(self) -> str:
        lines = [f"# {METRICS_SCHEMA}", METRICS_HEADER]
        lines.extend(metrics_row_line(r) for r in self.rows)
        return "\n".join(lines) + "\n"


@dataclass
class TrainResult:
    config: TrainConfig
    metrics: RunMetrics
    graph: HighwayGraph
    tables: ValueTables
    snapshot: PolicySnapshot


def epsilon_ladder(actor: int, actors: int) -> float:
    """Equally spaced exploration rates from 0.1 up to 1.0 across the actors."""
    if actors == 1:
        return 0.1
    return 0.1 + 0.9 * actor / (actors - 1)


def _mix_seed(*parts) -> int:
    buf = b"".join(struct.pack("<q", int(p)) for p in parts)
    return int.from_bytes(hashlib.blake2b(buf, digest_size=8).digest(), "little") >> 1


def _topology_signature(graph: HighwayGraph) -> str:
    h = hashlib.blake2b(digest_size=16)
    for s in sorted(graph.intersections):
        h.update(struct.pack("<Q", s))
    highways = graph.highways
    for hid in sorted(highways):
        h.update(highways[hid].signature)
    return h.hexdigest()


def _policy_signature(graph: HighwayGraph, snapshot: PolicySnapshot) -> str:
    h = hashlib.blake2b(digest_size=16)
    for s in sorted(graph.intersections):
        h.update(struct.pack("<Qq", s, snapshot.greedy.get(s, -1)))
    return h.hexdigest()


def run_episode(env, snapshot: PolicySnapshot, epsilon: float, episode_seed: int,
                step_cap: int | None) -> Trajectory:
    """One full episode under the epsilon-greedy policy; truncates at step_cap."""
    choose = chooser(snapshot, epsilon, random.Random(episode_seed))
    step, state_id = env.step, env.state_id
    obs = env.reset(episode_seed)
    sid = state_id(obs)
    states, actions, next_states, rewards = [], [], [], []
    terminal = False
    for _ in range(step_cap if step_cap is not None else 1 << 40):
        action = choose(sid)
        res = step(obs, action)
        nxt = state_id(res.next_obs)
        states.append(sid)
        actions.append(action)
        next_states.append(nxt)
        rewards.append(res.reward)
        obs, sid = res.next_obs, nxt
        if res.done:
            terminal = True
            break
    return Trajectory.from_columns(states, actions, next_states, rewards, terminal=terminal)


@dataclass
class EpisodeEval:
    episode_seed: int
    start_obs: object
    total_reward: float
    discounted_return: float
    steps: int
    terminal: bool


@dataclass
class EvalResult:
    mean_total_reward: float
    mean_discounted_return: float
    episodes: list[EpisodeEval]


def rollout(env, obs, act, gamma: float, cap: int) -> tuple[float, float, int, bool]:
    """Step from obs with act(obs) until a terminal state or cap steps.

    Returns (total reward, discounted return, steps, terminal); the discount
    exponent is the step index.
    """
    total = 0.0
    disc = 0.0
    g = 1.0
    steps = 0
    while steps < cap:
        res = env.step(obs, act(obs))
        total += res.reward
        disc += g * res.reward
        g *= gamma
        steps += 1
        obs = res.next_obs
        if res.done:
            return total, disc, steps, True
    return total, disc, steps, False


def evaluate(snapshot: PolicySnapshot, env, episodes: int, gamma: float = 0.99,
             step_cap: int | None = None, seed: int = 0) -> EvalResult:
    """Greedy (epsilon = 0) rollouts, each with a generator seeded per episode."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    cap = step_cap if step_cap is not None else DEFAULT_EVAL_STEP_CAP[env.spec.kind]
    out = []
    for k in range(episodes):
        episode_seed = _mix_seed(seed, 7_777, k)
        rng = random.Random(episode_seed)
        start = env.reset(episode_seed)

        def act(obs):
            # the module's epsilon_greedy is looked up per frame, so a wrapper
            # installed on it sees every choice
            return epsilon_greedy(snapshot, env.state_id(obs), 0.0, rng=rng)

        out.append(EpisodeEval(episode_seed, start, *rollout(env, start, act, gamma, cap)))
    return EvalResult(
        mean_total_reward=sum(e.total_reward for e in out) / len(out),
        mean_discounted_return=sum(e.discounted_return for e in out) / len(out),
        episodes=out,
    )


def detect_convergence(metrics: RunMetrics, patience: int) -> int | None:
    """First update index after which `patience` consecutive updates changed
    neither topology nor any greedy action."""
    rows = metrics.rows
    for i in range(len(rows) - patience):
        sig = (rows[i].topology_sig, rows[i].policy_sig)
        if all((rows[i + j].topology_sig, rows[i + j].policy_sig) == sig
               for j in range(1, patience + 1)):
            return rows[i].update
    return None


def train(config: TrainConfig, on_update=None) -> TrainResult:
    """Run the actor/learner loop until the frame budget or convergence.

    on_update, when given, receives each UpdateRow as soon as it is recorded
    (metrics streaming).  A DeterminismViolation from any ingested transition
    aborts the run; the exception names the conflicting (state, action) pair.
    """
    env = make_env(config.env)
    episodes_per_update = config.resolved_episodes_per_update()
    step_cap = config.resolved_step_cap()
    graph = HighwayGraph(gamma=config.gamma)
    tables = ValueTables()
    snapshot = PolicySnapshot(graph, tables, env.action_count)
    metrics = RunMetrics()
    frames = 0
    episode_index = 0
    update = 0
    started = time.perf_counter()
    while frames < config.frame_budget:
        update += 1
        batch = []
        for _ in range(episodes_per_update):
            actor = episode_index % config.actors
            eps = epsilon_ladder(actor, config.actors)
            traj = run_episode(env, snapshot, eps,
                               _mix_seed(config.run_seed, actor, episode_index),
                               step_cap)
            episode_index += 1
            frames += len(traj)
            batch.append(traj)
        graph.assemble(batch)
        tables = value_update_loop(graph, max_iter=SOLVE_MAX_ITER,
                                   delta=config.delta, v_init=tables.v)
        snapshot = PolicySnapshot(graph, tables, env.action_count)
        ev = evaluate(snapshot, env, EVAL_EPISODES, gamma=config.gamma,
                      step_cap=step_cap, seed=_mix_seed(config.run_seed, 31, update))
        stats = graph_stats(graph)
        row = UpdateRow(
            update=update,
            frames_so_far=frames,
            wall_ms=(time.perf_counter() - started) * 1e3,
            expected_discounted_return=ev.mean_discounted_return,
            total_reward=ev.mean_total_reward,
            intersections=stats["intersections"],
            highways=stats["highways"],
            z=stats["z"],
            vi_sweeps=tables.iterations_run,
            topology_sig=_topology_signature(graph),
            policy_sig=_policy_signature(graph, snapshot),
        )
        metrics.rows.append(row)
        if on_update is not None:
            on_update(row)
        converged = detect_convergence(metrics, config.convergence_patience)
        if converged is not None:
            metrics.converged_at_update = converged
            break
    return TrainResult(config=config, metrics=metrics, graph=graph,
                       tables=tables, snapshot=snapshot)
