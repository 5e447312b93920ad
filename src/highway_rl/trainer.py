"""Actor/learner training loop over the highway graph.

A ladder of epsilon-greedy actors collects whole episodes against the most
recent policy, a greedy table (`policy.compile_greedy`); the learner folds
each episode into the highway graph as soon as it ends and drops it, so
training holds one episode at a time.  After an update's episodes it re-runs
value updating and publishes a freshly compiled table.  Everything is
seeded: episode seeds derive from (run_seed, actor, episode index), so the
run is reproducible regardless of actor scheduling.

An episode makes one Python-level call per frame, the environment's `step`,
whose result carries the next state's id.  Around it the epsilon-greedy rule
runs inline (an exploration draw and one lookup in the greedy table), and
four appends fill the trajectory's columns; `step`, the generator's methods
and the table are bound once per episode.

An update stays in arrays from the solve to the policy signature.  The graph
gathers its edge columns once; the solve and the greedy table's key check
read that one gather.  The solve warm-starts from the previous tables' V
array, the greedy table picks every intersection's action from the Q array,
and the policy signature packs its records from arrays.  No V or Q dict is
built, and no signature is cached.

A run stops on a proof when it can.  The graph is *closed* when every
non-terminal state it holds has every action in `observed`
(`HighwayGraph.untried_pairs` is 0).  In a deterministic environment a closed
graph is the true model of the states it holds, so once its solve reached
delta and no observed self-loop beats the solved values (r <= (1 - gamma) V(s),
the premise of leaving self-loops out of the graph), its greedy policy is
optimal there: the run stops at that update, `stopped_by` "certificate".
Until then convergence is declared at the first update after which a
configured number of consecutive updates changed neither the graph topology
nor any greedy action at any intersection (`stopped_by` "patience"); a run
that meets neither rule stops at its frame budget (`stopped_by` None).
The topology is read off the `intersections` and `highways` counts, which
move exactly when it does: the graph only grows, and every structural edit
adds an intersection or a highway (a split retires one and inserts two).
"""

from __future__ import annotations

import hashlib
import random
import struct
import time
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from .bellman import check_delta
from .environments import (DEFAULT_EPISODES_PER_UPDATE, DEFAULT_EVAL_STEP_CAP,
                           DEFAULT_STEP_CAP, EnvSpec, make_env)
from .highway_graph import HighwayGraph, graph_stats
from .policy import compile_greedy, epsilon_greedy
from .transition_model import ActionId, StateId, Trajectory
from .value_iteration import ValueTables, interior_values, value_update_loop

METRICS_SCHEMA = "hgrl-metrics-v2"
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
        for name in ("actors", "convergence_patience", "episodes_per_update", "episode_step_cap"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.frame_budget < 0:
            raise ValueError("frame_budget must be >= 0")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        check_delta(self.delta)

    def resolved_episodes_per_update(self) -> int:
        return self.episodes_per_update or DEFAULT_EPISODES_PER_UPDATE[self.env.kind]

    def resolved_step_cap(self) -> int | None:
        return self.episode_step_cap or DEFAULT_STEP_CAP[self.env.kind]


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
    policy_sig: str


METRICS_HEADER = ",".join(f.name for f in fields(UpdateRow))


def metrics_row_line(r: "UpdateRow") -> str:
    return (f"{r.update},{r.frames_so_far},{r.wall_ms:.3f},"
            f"{r.expected_discounted_return!r},{r.total_reward!r},"
            f"{r.intersections},{r.highways},{r.z!r},{r.vi_sweeps},{r.policy_sig}")


@dataclass
class RunMetrics:
    rows: list[UpdateRow] = field(default_factory=list)
    converged_at_update: int | None = None
    stopped_by: str | None = None     # "certificate", "patience" or None (frame budget)

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
    snapshot: dict[StateId, ActionId]   # the greedy table of the last update


def epsilon_ladder(actor: int, actors: int) -> float:
    """Equally spaced exploration rates from 0.1 up to 1.0 across the actors."""
    if actors == 1:
        return 0.1
    return 0.1 + 0.9 * actor / (actors - 1)


def _mix_seed(*parts) -> int:
    buf = b"".join(struct.pack("<q", int(p)) for p in parts)
    return int.from_bytes(hashlib.blake2b(buf, digest_size=8).digest(), "little") >> 1


def _policy_signature(states, greedy: dict[StateId, ActionId]) -> str:
    """Digest of each sorted intersection's greedy action (-1 for none), as <Qq."""
    records = np.empty(len(states), [("s", "<u8"), ("a", "<i8")])
    records["s"] = states
    records["a"] = list(map(greedy.get, states, repeat(-1)))
    return hashlib.blake2b(records.tobytes(), digest_size=16).hexdigest()


def run_episode(env, greedy: dict[StateId, ActionId], epsilon: float, episode_seed: int,
                step_cap: int | None) -> Trajectory:
    """One full episode under the epsilon-greedy policy; truncates at step_cap.

    Actions follow `epsilon_greedy`'s rule and random stream over the
    environment's `action_count`, applied inline; its `rng.randrange` is
    written out as randrange's getrandbits rejection loop.  An epsilon outside
    [0, 1] or a step cap below 1 raises ValueError before the first step.
    """
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must be in [0, 1]")
    if step_cap is not None and step_cap < 1:
        raise ValueError("step_cap must be >= 1")
    rng = random.Random(episode_seed)
    draw, getrandbits = rng.random, rng.getrandbits
    greedy = greedy.get
    n = env.action_count
    k = n.bit_length()
    step = env.step
    obs = env.reset(episode_seed)
    sid = env.state_id(obs)
    states, actions, next_states, rewards = [], [], [], []
    terminal = False
    for _ in range(step_cap if step_cap is not None else 1 << 40):
        action = greedy(sid) if not epsilon or draw() >= epsilon else None
        if action is None:
            action = getrandbits(k)
            while action >= n:
                action = getrandbits(k)
        res = step(obs, action)
        states.append(sid)
        actions.append(action)
        obs, sid = res.next_obs, res.next_id
        next_states.append(sid)
        rewards.append(res.reward)
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


def evaluate(greedy: dict[StateId, ActionId], env, episodes: int, gamma: float = 0.99,
             step_cap: int | None = None, seed: int = 0) -> EvalResult:
    """Greedy (epsilon = 0) episodes, each with a generator seeded per episode.

    An episode steps until a terminal state or the cap; the discount exponent
    is the step index.  The module's epsilon_greedy is looked up per frame, so
    a wrapper installed on it sees every choice.  The table may be a graph's
    (`compile_greedy`) or a net's (`reparam.greedy_table`).  Fewer than one
    episode, a step cap below 1 or a gamma outside [0, 1) raises ValueError.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    cap = step_cap if step_cap is not None else DEFAULT_EVAL_STEP_CAP[env.spec.kind]
    if cap < 1:
        raise ValueError("step_cap must be >= 1")
    out = []
    for k in range(episodes):
        episode_seed = _mix_seed(seed, 7_777, k)   # picks the start state
        rng = random.Random(episode_seed)
        obs = start = env.reset(episode_seed)
        sid = env.state_id(start)
        total = disc = 0.0
        g = 1.0
        steps = 0
        terminal = False
        while steps < cap and not terminal:
            res = env.step(obs, epsilon_greedy(greedy, sid, 0.0, rng, env.action_count))
            total += res.reward
            disc += g * res.reward
            g *= gamma
            steps += 1
            obs, sid, terminal = res.next_obs, res.next_id, res.done
        out.append(EpisodeEval(episode_seed, start, total, disc, steps, terminal))
    return EvalResult(
        mean_total_reward=sum(e.total_reward for e in out) / len(out),
        mean_discounted_return=sum(e.discounted_return for e in out) / len(out),
        episodes=out,
    )


def detect_convergence(metrics: RunMetrics, patience: int) -> int | None:
    """First update index after which `patience` consecutive updates changed
    neither topology (the intersection and highway counts) nor any greedy action."""
    sigs = [(r.intersections, r.highways, r.policy_sig) for r in metrics.rows]
    for i in range(len(sigs) - patience):
        if all(sig == sigs[i] for sig in sigs[i + 1:i + patience + 1]):
            return metrics.rows[i].update
    return None


def _self_loops_hold(graph: HighwayGraph, tables: ValueTables) -> bool:
    """Whether every observed self-loop (s, a) -> (s, r) has r <= (1 - gamma) V(s).

    Then going round the loop never beats the solved V(s), so leaving it out
    of the graph left the values optimal.  V(s) comes from `interior_values`.
    """
    values = interior_values(graph, tables)
    return all(r <= (1 - graph.gamma) * values[s]
               for (s, _a), (nxt, r) in graph.observed.items() if s == nxt)


def train(config: TrainConfig, on_update=None) -> TrainResult:
    """Run the actor/learner loop until the frame budget or convergence.

    After each update's solve the run stops on the certificate of a closed
    graph (see the module docstring), else on the patience rule.

    on_update, when given, receives each UpdateRow as soon as it is recorded
    (metrics streaming).  Each episode is ingested as soon as it ends; its
    rollout read the greedy table the previous update published, so ingesting
    early changes no result.  A DeterminismViolation from any ingested
    transition aborts the run before the update's later episodes are rolled
    out; the exception names the conflicting (state, action) pair.
    """
    env = make_env(config.env)
    episodes_per_update = config.resolved_episodes_per_update()
    step_cap = config.resolved_step_cap()
    graph = HighwayGraph(gamma=config.gamma)
    tables = ValueTables()
    snapshot = {}
    metrics = RunMetrics()
    frames = 0
    episode_index = 0
    update = 0
    started = time.perf_counter()
    while frames < config.frame_budget:
        update += 1
        for _ in range(episodes_per_update):
            actor = episode_index % config.actors
            eps = epsilon_ladder(actor, config.actors)
            traj = run_episode(env, snapshot, eps,
                               _mix_seed(config.run_seed, actor, episode_index),
                               step_cap)
            episode_index += 1
            frames += len(traj)
            graph.assemble([traj])
            del traj                   # the next rollout starts with no episode held
        tables = value_update_loop(graph, delta=config.delta, v_init=tables)
        snapshot = compile_greedy(graph, tables)
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
            policy_sig=_policy_signature(tables.states, snapshot),
        )
        metrics.rows.append(row)
        if on_update is not None:
            on_update(row)
        if (graph.untried_pairs(env.action_count) == 0 and tables.final_delta < config.delta
                and _self_loops_hold(graph, tables)):
            metrics.converged_at_update, metrics.stopped_by = update, "certificate"
            break
        converged = detect_convergence(metrics, config.convergence_patience)
        if converged is not None:
            metrics.converged_at_update, metrics.stopped_by = converged, "patience"
            break
    return TrainResult(config=config, metrics=metrics, graph=graph,
                       tables=tables, snapshot=snapshot)
