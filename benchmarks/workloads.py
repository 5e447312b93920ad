"""The benchmark's workloads: inputs, the timed work, and the output checks.

Each workload holds a fixed pool of inputs.  The workload seed sets the
order the pool runs in, so every run times the same work and runs stay
comparable across seeds.  `setup` builds the inputs from nothing (cold environment
caches), `run` does the timed library calls for one input, and `check`
verifies that input's outputs and returns its determinism record: values
that must come out bit-identical on every run of the same code.

Each main call is also timed against a reference task run just before and
just after it.  The reference is fixed benchmark code of the same kind as
the call (interpreted Python for training and solving, BLAS for the fit),
so both slow down together when the shared machine is busy and their ratio
stays put.
"""

from __future__ import annotations

import functools
import hashlib
import os
import random
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import highway_rl.environments as environments
import highway_rl.trainer as trainer
from highway_rl.environments import EnvSpec, make_env
from highway_rl.highway_graph import HighwayGraph, expand_to_empirical
from highway_rl.policy import greedy_action
from highway_rl.reparam import ApproxConfig, act, extract_dataset, fit, policy_agreement
from highway_rl.serialize import (load_approximator, load_highway_graph, load_value_tables,
                                  save_approximator, save_highway_graph, save_value_tables,
                                  verify_manifest, write_manifest)
from highway_rl.trainer import TrainConfig, evaluate, train
from highway_rl.transition_model import vanilla_value_iteration
from highway_rl.value_iteration import interior_values, value_update_loop

from tour import tour_graph
from tracer import Tracer

GAMMA = 0.99
SOLVE_DELTA = 1e-10
TOL = 1e-9
# the greedy episodes each trained policy is checked on, as the acceptance
# test of taxi plays them
EVAL_EPISODES = 100
EVAL_SEED = 9


def python_reference() -> float:
    """Seconds for a fixed interpreted task: integer arithmetic, then dict
    inserts of small tuples and a pass over them, the kind of work training
    and solving do.  It holds about 1 MB at a time, so it adds next to
    nothing to peak memory; a larger table allocates fresh pages and times
    the kernel as well."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(250_000):
        acc += i * i % 7
    for _ in range(20):
        table = {}
        for i in range(5_000):
            table[i * 7919 % 10_007] = (i, i + 1, float(i))
        total = 0.0
        for row in table.values():
            total += row[2]
    return time.perf_counter() - t0


@functools.cache
def _blas_operands():
    rng = np.random.default_rng(0)
    return rng.standard_normal((44, 512)), rng.standard_normal((512, 512))


def blas_reference() -> float:
    """Seconds for a fixed BLAS task shaped like one layer of the acceptance
    fit: 44 rows through a 512x512 layer, 100 times."""
    x, w = _blas_operands()
    t0 = time.perf_counter()
    for _ in range(100):
        np.tanh(x @ w)
    return time.perf_counter() - t0


class Checks:
    """Output checks attempted and failed; the first few failures by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class Output:
    call_s: list[float]            # the workload's main call, once or more
    ref_s: list[float]             # the reference task around each main call
    data: dict = field(default_factory=dict)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:32]


# ------------------------------------------------------------- instrumentation

class Instrumentation:
    """The traced pass's wrappers, installed from outside the library.

    `train` looks up run_episode, epsilon_greedy, value_update_loop and
    evaluate in the trainer module's namespace, so they are replaced there.
    assemble and split_highway are replaced on HighwayGraph, and `step` on
    each environment instance the workload builds (make_env caches it, so
    `train` sees the same instance).
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []
        self._envs: list = []
        self.installed = False

    def _patch(self, owner, attr: str, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        t = self.tracer

        def episode_counts(_state, _args, _kwargs, traj):
            return {"frames": len(traj.samples)}

        def before_assemble(args, _kwargs):
            graph, trajs = args[0], args[1]
            return len(graph.observed), sum(len(tr.samples) for tr in trajs)

        def assemble_counts(state, args, _kwargs, _out):
            observed_before, samples_in = state
            return {"samples_in": samples_in,
                    "novel_pairs": len(args[0].observed) - observed_before}

        self._patch(trainer, "run_episode",
                    t.wrap("trainer.run_episode", trainer.run_episode, after=episode_counts))
        self._patch(trainer, "evaluate", t.wrap("trainer.evaluate", trainer.evaluate))
        self._patch(trainer, "epsilon_greedy",
                    t.leaf("policy.epsilon_greedy", trainer.epsilon_greedy))
        self._patch(trainer, "value_update_loop",
                    t.wrap("value_iteration.value_update_loop", trainer.value_update_loop,
                           after=_solve_counts))
        self._patch(HighwayGraph, "assemble",
                    t.wrap("highway_graph.assemble", HighwayGraph.assemble,
                           before=before_assemble, after=assemble_counts))
        self._patch(HighwayGraph, "split_highway",
                    t.leaf("highway_graph.split_highway", HighwayGraph.split_highway))
        self.installed = True

    def track_env(self, env):
        """Count and time this environment's `step` while installed."""
        if self.installed:
            env.step = self.tracer.leaf("environments.step", env.step)
            self._envs.append(env)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        for env in self._envs:
            del env.step
        self._undo.clear()
        self._envs.clear()
        self.installed = False


def _solve_counts(_state, args, _kwargs, tables) -> dict:
    graph = args[0]
    covered = sum(h.length for h in graph.highways.values())
    return {"sweeps": tables.iterations_run,
            "highway_updates": tables.iterations_run * len(graph.highways),
            "covered_ops": tables.iterations_run * covered}


def _vanilla_counts(_state, args, _kwargs, result) -> dict:
    return {"sweeps": result.iterations_run,
            "edge_updates": result.iterations_run * args[0].num_edges()}


def _saved_bytes(_state, args, _kwargs, _out) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _manifest(run_dir, config: dict) -> bool:
    write_manifest(run_dir, config)
    return verify_manifest(run_dir)


def _cold_oracle():
    """Drop the oracle's cache so the next ground_truth_values call computes."""
    cached = getattr(environments, "_ground_truth", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


def _graph_content(graph: HighwayGraph):
    highways = sorted((h.from_state, h.first_action, h.to_state, h.actions, h.step_rewards,
                       h.step_states, h.cached_reward, h.path_return, h.gamma_pow_len)
                      for h in graph.highways.values())
    return (graph.gamma, sorted(graph.intersections), highways, sorted(graph.observed.items()))


def _graph_record(graph: HighwayGraph) -> dict:
    return {"intersections": len(graph.intersections),
            "highways": len(graph.highways),
            "expanded_states": len(graph.intersections) + len(graph.membership)}


class Workload:
    """Shared plumbing: the pool in seed order, cold setup, tracing hooks,
    and the main call timed against the reference task."""

    name = ""
    reference = staticmethod(python_reference)
    # reference runs on each side of a main call; their median is used
    reference_runs = 3

    def __init__(self, seed: int, tracer: Tracer, instr: Instrumentation, out_dir: str):
        self.seed = seed
        self.tracer = tracer
        self.instr = instr
        self.out_dir = out_dir
        self.items: list = []

    def _order(self, pool: list) -> list:
        pool = list(pool)
        random.Random(self.seed).shuffle(pool)
        return pool

    def _main(self, out: Output, name: str, fn, *args, **kwargs):
        """Call fn inside a span and time it, with the reference task timed
        on either side; the call's and the reference's seconds go into `out`."""
        before = statistics.median(self.reference() for _ in range(self.reference_runs))
        t0 = self.tracer.clock()
        result = self.tracer.call(name, fn, *args, **kwargs)
        out.call_s.append(self.tracer.clock() - t0)
        after = statistics.median(self.reference() for _ in range(self.reference_runs))
        out.ref_s.append((before + after) / 2)
        return result

    def _env(self, spec: EnvSpec):
        env = self.tracer.call("environments.make_env", make_env, spec)
        self.instr.track_env(env)
        return env

    def _train(self, config: TrainConfig, out: Output | None = None):
        counts = {"_after": lambda _s, _a, _k, res: {"updates": len(res.metrics.rows)}}
        if out is None:
            return self.tracer.call("trainer.train", train, config, **counts)
        return self._main(out, "trainer.train", train, config, **counts)


# ---------------------------------------------------------------------- train

@dataclass(frozen=True)
class TrainItem:
    key: str
    config: TrainConfig


class TrainWorkload(Workload):
    """`train` with default settings over a fixed pool of (env, run seed)."""

    pool: list[tuple[EnvSpec, int]] = []

    def setup(self):
        make_env.cache_clear()
        for spec in dict.fromkeys(spec for spec, _rs in self.pool):
            self._env(spec)
        self.items = [TrainItem(f"{spec.kind}{spec.width or ''}-seed{spec.seed}-run{run_seed}",
                                TrainConfig(env=spec, run_seed=run_seed))
                      for spec, run_seed in self._order(self.pool)]

    def run(self, item: TrainItem) -> Output:
        out = Output([], [])
        out.data["result"] = self._train(item.config, out)
        return out

    def check(self, item: TrainItem, out: Output, checks: Checks) -> dict:
        result = out.data["result"]
        metrics = result.metrics
        env = make_env(item.config.env)
        converged = metrics.converged_at_update
        checks.check(converged is not None, f"{item.key}: no convergence")
        ev = evaluate(result.snapshot, env, EVAL_EPISODES, gamma=GAMMA, seed=EVAL_SEED)
        for episode in ev.episodes:
            gap = episode.total_reward - env.optimal_total_reward(episode.start_obs)
            checks.check(episode.terminal and abs(gap) <= TOL,
                         f"{item.key}: greedy episode from {episode.start_obs} misses the "
                         f"optimum by {gap!r}")
        lines = metrics.to_csv().splitlines()
        wall = lines[1].split(",").index("wall_ms")
        rows = [",".join(c for i, c in enumerate(line.split(",")) if i != wall)
                for line in lines]
        return {
            "metrics_digest": _digest("\n".join(rows)),
            "frames": metrics.rows[-1].frames_so_far,
            "frames_to_converge": (metrics.rows[converged - 1].frames_so_far
                                   if converged is not None else None),
            "updates": len(metrics.rows),
            "sweeps": sum(r.vi_sweeps for r in metrics.rows),
            "highway_updates": sum(r.vi_sweeps * r.highways for r in metrics.rows),
            "novel_pairs": len(result.graph.observed),
            **_graph_record(result.graph),
        }

    def named(self, calls, records, passes) -> dict:
        per_pass = list(records.values())
        frames = sum(r["frames"] for r in per_pass)
        return {"train_s": statistics.median(calls),
                "frames_per_s": frames * len(passes) / sum(calls),
                "frames_to_converge": sum(r["frames_to_converge"] or 0 for r in per_pass)}


class Maze15(TrainWorkload):
    name = "train-maze15"
    # 15x15 inputs of the acceptance fixture (maze seed k, run seed k): the
    # three cheapest, 0.18-0.21M frames each, so that a run times each of
    # them several times
    pool = [(EnvSpec(kind="maze", width=15, height=15, seed=k), k) for k in (1, 4, 7)]


class Taxi(TrainWorkload):
    name = "train-taxi"
    # run seeds spanning 5 to 19 updates; 8 is the one that declares
    # convergence early (see README.md)
    pool = [(EnvSpec(kind="taxi", seed=0), k) for k in (0, 1, 3, 8, 9, 13)]


# ---------------------------------------------------------------------- solve

@dataclass
class SolveItem:
    key: str
    env: object
    graph: HighwayGraph


class Maze41Solve(Workload):
    """Offline solves of full-coverage 41x41 maze graphs."""

    name = "solve-maze41"
    # two graphs keep a pass well inside a run; the solve is repeated
    # within the pass instead
    maze_seeds = (0, 1)
    solve_repeats = 8

    def setup(self):
        make_env.cache_clear()
        self.items = []
        for k in self._order(self.maze_seeds):
            env = self._env(EnvSpec(kind="maze", width=41, height=41, seed=k))
            self.items.append(SolveItem(f"maze41-seed{k}", env, tour_graph(env, GAMMA)))

    def run(self, item: SolveItem) -> Output:
        t = self.tracer
        run_dir = os.path.join(self.out_dir, "artifacts", item.key)
        os.makedirs(run_dir, exist_ok=True)
        graph_path = os.path.join(run_dir, "graph.npz")
        tables_path = os.path.join(run_dir, "tables.npz")
        t.call("serialize.save", save_highway_graph, graph_path, item.graph, _after=_saved_bytes)
        graph = t.call("serialize.load", load_highway_graph, graph_path)
        out = Output([], [])
        solved = [self._main(out, "value_iteration.value_update_loop", value_update_loop, graph,
                             delta=SOLVE_DELTA, _after=_solve_counts)
                  for _ in range(self.solve_repeats)]
        tables = solved[0]
        values = t.call("value_iteration.interior_values", interior_values, graph, tables)
        t.call("serialize.save", save_value_tables, tables_path, tables, _after=_saved_bytes)
        loaded_tables = t.call("serialize.load", load_value_tables, tables_path)
        manifest_ok = t.call("serialize.manifest", _manifest, run_dir, {"input": item.key})
        empirical = t.call("highway_graph.expand_to_empirical", expand_to_empirical, graph)
        vanilla = t.call("transition_model.vanilla_value_iteration", vanilla_value_iteration,
                         empirical, delta=SOLVE_DELTA, _after=_vanilla_counts)
        _cold_oracle()
        truth = t.call("environments.ground_truth_values", item.env.ground_truth_values, GAMMA)
        out.data.update(graph=graph, solved=solved, values=values, loaded_tables=loaded_tables,
                        manifest_ok=manifest_ok, vanilla=vanilla, truth=truth)
        return out

    def check(self, item: SolveItem, out: Output, checks: Checks) -> dict:
        d = out.data
        graph, tables, values = d["graph"], d["solved"][0], d["values"]
        vanilla, truth = d["vanilla"], d["truth"]
        key = item.key
        checks.check(_graph_content(graph) == _graph_content(item.graph),
                     f"{key}: graph changed in the save/load round trip")
        loaded = d["loaded_tables"]
        checks.check((loaded.v, loaded.q, loaded.iterations_run, loaded.final_delta)
                     == (tables.v, tables.q, tables.iterations_run, tables.final_delta),
                     f"{key}: tables changed in the save/load round trip")
        checks.check(d["manifest_ok"], f"{key}: manifest does not verify")
        checks.check(all((s.v, s.q, s.iterations_run) == (tables.v, tables.q,
                                                          tables.iterations_run)
                         for s in d["solved"]),
                     f"{key}: repeated cold solves disagree")
        checks.check(tables.final_delta < SOLVE_DELTA and vanilla.converged,
                     f"{key}: a solver stopped before reaching delta")
        checks.check(all(s in truth and abs(v - truth[s]) <= TOL for s, v in values.items()),
                     f"{key}: highway values differ from the oracle")
        checks.check(set(vanilla.values) == set(values)
                     and all(abs(vanilla.values[s] - v) <= TOL for s, v in values.items()),
                     f"{key}: vanilla and highway values differ")
        covered = sum(h.length for h in graph.highways.values())
        return {
            "values_digest": _digest(sorted(values.items())),
            "sweeps": tables.iterations_run,
            "vanilla_sweeps": vanilla.iterations_run,
            "highway_updates": tables.iterations_run * len(graph.highways),
            "covered_ops": tables.iterations_run * covered,
            "covered_states": len(values),
            **_graph_record(graph),
        }

    def named(self, calls, records, passes) -> dict:
        return {"solve_s": statistics.median(calls)}


# -------------------------------------------------------------------- distill

@dataclass
class DistillItem:
    key: str
    env: object
    graph: HighwayGraph
    tables: object
    starts: list


class Maze5Distill(Workload):
    """Distil the graph trained on maze 5x5 seed 2, then act with the net."""

    name = "distill-maze5"
    spec = EnvSpec(kind="maze", width=5, height=5, seed=2)
    min_agreement = 0.95
    # the fit is one long BLAS-bound call: a BLAS reference over about a
    # second on each side tracks it; a few runs do not
    reference = staticmethod(blas_reference)
    reference_runs = 24

    def setup(self):
        make_env.cache_clear()
        env = self._env(self.spec)
        result = self._train(TrainConfig(env=self.spec, run_seed=self.spec.seed))
        starts = sorted(env.obs_of_id(s) for s in result.graph.states())
        starts = [obs for obs in starts if not env.is_terminal(obs)]
        self._act = self.tracer.leaf("reparam.act", act)
        self.items = [DistillItem("maze5-seed2", env, result.graph, result.tables,
                                  self._order(starts))]

    def _features(self, env):
        return lambda sid: env.state_features(env.obs_of_id(sid))

    def run(self, item: DistillItem) -> Output:
        t, env = self.tracer, item.env
        dataset = t.call("reparam.extract_dataset", extract_dataset, item.graph, item.tables,
                         self._features(env),
                         _after=lambda _s, _a, _k, ds: {"rows": len(ds)})
        out = Output([], [])
        approx = self._main(out, "reparam.fit", fit, dataset, ApproxConfig(),
                            action_count=env.action_count, _after=_fit_counts)
        path = os.path.join(self.out_dir, "artifacts", item.key, "approximator.npz")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t.call("serialize.save", save_approximator, path, approx, _after=_saved_bytes)
        loaded = t.call("serialize.load", load_approximator, path)
        cap = 4 * len(item.starts) + 4
        rollouts = []
        for obs in item.starts:
            start, total, steps = obs, 0.0, 0
            while not env.is_terminal(obs) and steps < cap:
                res = env.step(obs, self._act(approx, env.state_features(obs)))
                total += res.reward
                obs = res.next_obs
                steps += 1
            rollouts.append((start, total, steps, env.is_terminal(obs)))
        out.data.update(approx=approx, loaded=loaded, rollouts=rollouts)
        return out

    def check(self, item: DistillItem, out: Output, checks: Checks) -> dict:
        approx, loaded, env = out.data["approx"], out.data["loaded"], item.env
        scored = sorted(s for s in item.graph.intersections if item.graph.out_edges.get(s))
        agreement = policy_agreement(approx, scored, self._features(env),
                                     {s: greedy_action(item.graph, item.tables, s)
                                      for s in scored})
        checks.check(agreement >= self.min_agreement,
                     f"{item.key}: greedy agreement {agreement} < {self.min_agreement}")
        same = (len(loaded.weights) == len(approx.weights)
                and all(np.array_equal(a, b) and a.dtype == b.dtype
                        for a, b in zip(approx.weights, loaded.weights))
                and (loaded.config, loaded.target_mean, loaded.target_scale,
                     loaded.loss_history)
                == (approx.config, approx.target_mean, approx.target_scale,
                    approx.loss_history))
        checks.check(same, f"{item.key}: approximator changed in the save/load round trip")
        # the net is fitted on intersections only: rollouts that start there
        # must be optimal, the ones from highway-interior states are reported
        scored_starts = set(scored)
        interior = interior_optimal = 0
        for start, total, steps, reached in out.data["rollouts"]:
            optimal = reached and abs(total - env.optimal_total_reward(start)) <= TOL
            if env.state_id(start) in scored_starts:
                checks.check(optimal, f"{item.key}: act rollout from {start} took {steps} "
                                      f"steps for {total!r}")
            else:
                interior += 1
                interior_optimal += optimal
        return {
            "weights_digest": _digest(*(w.tobytes() for w in approx.weights)),
            "final_loss": approx.loss_history[-1],
            "agreement": agreement,
            "rollout_steps": sum(r[2] for r in out.data["rollouts"]),
            "interior_rollouts": interior,
            "interior_rollouts_optimal": interior_optimal,
            **_graph_record(item.graph),
        }

    def named(self, calls, records, passes) -> dict:
        (record,) = records.values()
        return {"distill_s": statistics.median(calls),
                "distill_agreement": record["agreement"]}


def _fit_counts(_state, args, _kwargs, approx) -> dict:
    """Epochs, and the floating-point work of the fit computed from array
    shapes: each epoch is one descent pass and one full-set loss, each a
    forward and backward pass over every row left after absent-action
    anchoring."""
    dataset, cfg = args[0], args[1]
    d, h, a = approx.feature_dim, cfg.hidden_units, approx.action_count
    rows = len(dataset)
    if cfg.absent_action_anchor is not None:
        rows = len({f.tobytes() for f in dataset.features}) * a
    per_row = 2 * (2 * d * h + 3 * h * h + 3 * h * a)
    return {"epochs": cfg.epochs, "flops": cfg.epochs * 2 * rows * per_row}


WORKLOADS = {w.name: w for w in (Maze15, Taxi, Maze41Solve, Maze5Distill)}
