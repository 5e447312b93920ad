"""Actor/learner training loop over the highway graph.

Instead of the paper's epsilon-greedy actors, the actors explore until the
graph is known, as R-MAX (Brafman & Tennenholtz, 2002) and E3 (Kearns &
Singh, 2002) do: in a deterministic environment one try of an action makes
it known.  Per frame an actor takes (1) the state's lowest untried action,
else (2) the next step of a shortest known path to the nearest state that
has one (breadth-first over the tried steps, lowest action first, never
through a terminal state), else (3) the action of the latest published
greedy table (`policy.compile_greedy`), uniformly random where it has none.
What the actors tried is `Known`, per-state rows of next states that the
episodes grow one pair at a time, so planning never copies the graph.  A
search that finds no untried pair is remembered for the rest of the run
(`Known.dead`), so a run searches each closed region once.

The learner folds each episode into the highway graph as soon as it ends
and drops it.  An episode that changed the graph is followed by a
warm-started value update and a freshly compiled table.  An update is a
fixed number of episodes, after which the greedy policy is evaluated and
the stopping rules are checked.  Everything is seeded: episode seeds derive
from (run_seed, actor, episode index), and rule 3's random actions come
from a generator seeded with the episode seed.

An episode makes one Python-level call per frame, the environment's `step`,
whose result carries the next state's id; around it the rule costs a lookup
of the state's row and a scan of it.  The graph gathers its edge columns
once per change, the solve and the greedy table's key check share that
gather, and no V or Q dict is built.

A run stops on a proof when it can.  The graph is *closed* when every
non-terminal state it holds has every action in `observed`
(`HighwayGraph.untried_pairs` is 0).  In a deterministic environment a closed
graph is the true model of the states it holds, so once its solve reached
delta and no observed self-loop beats the solved values (r <= (1 - gamma) V(s),
the premise of leaving self-loops out of the graph), its greedy policy is
optimal there.  A closed graph proves nothing about a start it never drew,
so the certificate also needs every episode of the update to have started
at a state the graph held before that episode (the *start guard*); the
first update's first episode never does.  The run stops at the first update
that meets all of it, `stopped_by` "certificate", and `converged_at_update`
names the first update at whose end the graph was closed and as it is at the
stop.  Until then convergence is declared at the first update after which a
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
from .environments import DEFAULT_EPISODES_PER_UPDATE, DEFAULT_STEP_CAP, EnvSpec, make_env
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
    actors: int = 10                         # mixed into the episode seeds
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

    def resolved_step_cap(self) -> int:
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
    snapshot: dict[StateId, ActionId]   # the last greedy table published


@dataclass
class Known:
    """What the actors have tried: the explorer's model of the environment.

    `rows` maps every state an actor acted in to a list over the actions,
    the next state of each tried action and None for an untried one;
    `terminals` holds the states episodes terminated in.  `run_episode`
    grows both one new pair at a time, and `train` hands the same object to
    every episode, so it holds the pairs and terminals of the graph.

    `dead` holds the states every failed search reached: from none of them
    is an untried pair reachable through tried steps, and that stays true
    for the rest of the run.  Each of them has a full row, which never
    changes; each of their successors is dead or terminal; new tries happen
    only at states with an untried pair, so outside `dead`; and terminals
    only grow.
    """

    rows: dict[StateId, list] = field(default_factory=dict)
    terminals: set[StateId] = field(default_factory=set)
    dead: set[StateId] = field(default_factory=set)


def _path_to_untried(known: Known, start: StateId):
    """The actions of a shortest known path from start (a state with every
    action tried) to the nearest state with an untried one, last action first.

    Breadth-first over the tried steps, lowest action first, so the path is
    the least in action order among the shortest.  Terminal states are never
    entered, and a self-loop leads back to a state already reached.  Returns
    (path, ()), or ([], reached) when no such state is reachable: from none
    of the states reached is one reachable for the rest of the run (see
    `Known.dead`).
    """
    rows, terminals = known.rows, known.terminals
    parent = {start: None}
    layer = [start]
    while layer:
        reached = []
        for s in layer:
            for a, nxt in enumerate(rows[s]):
                if nxt in parent or nxt in terminals:
                    continue
                parent[nxt] = s, a
                row = rows.get(nxt)
                if row is None or None in row:
                    path = []
                    while nxt != start:
                        nxt, a = parent[nxt]
                        path.append(a)
                    return path, ()
                reached.append(nxt)
        layer = reached
    return [], parent


def _mix_seed(*parts) -> int:
    buf = b"".join(struct.pack("<q", int(p)) for p in parts)
    return int.from_bytes(hashlib.blake2b(buf, digest_size=8).digest(), "little") >> 1


def _policy_signature(states, greedy: dict[StateId, ActionId]) -> str:
    """Digest of each sorted intersection's greedy action (-1 for none), as <Qq."""
    records = np.empty(len(states), [("s", "<u8"), ("a", "<i8")])
    records["s"] = states
    records["a"] = list(map(greedy.get, states, repeat(-1)))
    return hashlib.blake2b(records.tobytes(), digest_size=16).hexdigest()


def run_episode(env, greedy: dict[StateId, ActionId], known: Known, episode_seed: int,
                step_cap: int) -> Trajectory:
    """One episode under the explorer's rule (see the module docstring),
    truncated at step_cap; every step it takes is recorded in `known`.

    A path to an untried action is searched when the episode reaches a state
    with none, and followed to its end.  A search that finds none adds every
    state it reached to `known.dead`, and every later episode of the run acts
    greedily there without searching again.  The random action of a state the
    table lacks is `rng.randrange(action_count)`, written out as randrange's
    getrandbits rejection loop.  A step cap below 1 raises ValueError before
    the first step.
    """
    if step_cap < 1:
        raise ValueError("step_cap must be >= 1")
    getrandbits = random.Random(episode_seed).getrandbits
    greedy = greedy.get
    rows, terminals, dead = known.rows, known.terminals, known.dead
    n = env.action_count
    k = n.bit_length()
    step = env.step
    obs = env.reset(episode_seed)
    sid = env.state_id(obs)
    states, actions, next_states, rewards = [], [], [], []
    plan = []                          # the actions of the path walked, last first
    terminal = False
    for _ in range(step_cap):
        row = rows.get(sid)
        if row is None:
            row = rows[sid] = [None] * n
        if None in row:
            action = row.index(None)
            plan = []
        else:
            if not plan and sid not in dead:
                plan, reached = _path_to_untried(known, sid)
                dead.update(reached)
            if plan:
                action = plan.pop()
            else:
                action = greedy(sid)
                if action is None:
                    action = getrandbits(k)
                    while action >= n:
                        action = getrandbits(k)
        res = step(obs, action)
        states.append(sid)
        actions.append(action)
        obs, sid = res.next_obs, res.next_id
        if row[action] is None:
            row[action] = sid
        next_states.append(sid)
        rewards.append(res.reward)
        if res.done:
            terminals.add(sid)
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
    cap = step_cap if step_cap is not None else DEFAULT_STEP_CAP[env.spec.kind]
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
    """Run the actor/learner loop until a stopping rule or the frame budget.

    After each update's episodes the run stops on the certificate, start
    guard included (see the module docstring), else on the patience rule.

    on_update, when given, receives each UpdateRow as soon as it is recorded
    (metrics streaming).  Each episode is ingested as soon as it ends, and
    when that changed the graph the tables are re-solved and the greedy table
    republished before the next episode; a row's vi_sweeps sums the update's
    solves.  A DeterminismViolation from any ingested transition aborts the
    run before the update's later episodes are rolled out; the exception
    names the conflicting (state, action) pair.
    """
    env = make_env(config.env)
    episodes_per_update = config.resolved_episodes_per_update()
    step_cap = config.resolved_step_cap()
    graph = HighwayGraph(gamma=config.gamma)
    tables = ValueTables()
    snapshot = {}
    known = Known()
    metrics = RunMetrics()
    frames = 0
    episode_index = 0
    update = 0
    closed_since = None                # the first update of the closed stretch
    started = time.perf_counter()
    while frames < config.frame_budget:
        update += 1
        starts_held = True
        sweeps = 0
        size_at_update = len(graph.intersections), len(graph.highways)
        for _ in range(episodes_per_update):
            actor = episode_index % config.actors
            traj = run_episode(env, snapshot, known,
                               _mix_seed(config.run_seed, actor, episode_index), step_cap)
            episode_index += 1
            frames += len(traj)
            starts_held = starts_held and graph.contains_state(traj.from_states[0])
            size = len(graph.intersections), len(graph.highways)
            graph.assemble([traj])
            del traj                   # the next rollout starts with no episode held
            if (len(graph.intersections), len(graph.highways)) != size:
                tables = value_update_loop(graph, delta=config.delta, v_init=tables)
                snapshot = compile_greedy(graph, tables)
                sweeps += tables.iterations_run
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
            vi_sweeps=sweeps,
            policy_sig=_policy_signature(tables.states, snapshot),
        )
        metrics.rows.append(row)
        if on_update is not None:
            on_update(row)
        if graph.untried_pairs(env.action_count):
            closed_since = None
        elif closed_since is None or (row.intersections, row.highways) != size_at_update:
            closed_since = update
        if (closed_since is not None and starts_held and tables.final_delta < config.delta
                and _self_loops_hold(graph, tables)):
            metrics.converged_at_update, metrics.stopped_by = closed_since, "certificate"
            break
        converged = detect_convergence(metrics, config.convergence_patience)
        if converged is not None:
            metrics.converged_at_update, metrics.stopped_by = converged, "patience"
            break
    return TrainResult(config=config, metrics=metrics, graph=graph,
                       tables=tables, snapshot=snapshot)
