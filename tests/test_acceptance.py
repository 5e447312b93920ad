"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they happen.  The suite trains real agents (30 maze runs, CliffWalking,
Taxi), so it is the slow part of the test tree; everything is seeded and
deterministic.
"""

import hashlib
import json
import random
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import mk_traj, random_highway_graph
from highway_rl import cli
from highway_rl.environments import EnvSpec, StepResult, make_env
from highway_rl.highway_graph import HighwayGraph, expand_to_empirical, graph_stats
from highway_rl.policy import greedy_action
from highway_rl.reparam import ApproxConfig, extract_dataset, fit, loss_and_gradients, policy_agreement
from highway_rl.serialize import save_approximator, save_highway_graph
from highway_rl.trainer import TrainConfig, train, evaluate
from highway_rl.transition_model import EmpiricalGraph, vanilla_value_iteration
from highway_rl.value_iteration import (ValueTables, completeness_report, contraction_probe,
                                        interior_values, solve, value_update_loop)

MAZE_SIZES = (3, 5, 15)
SEEDS = tuple(range(10))
FRAME_BOUNDS = {3: 200_000, 5: 300_000, 15: 800_000}
TABLE1_DISCOUNTED = {3: 0.93, 5: 0.82, 15: 0.37}
TABLE2_TAXI_MEAN, TABLE2_TAXI_BAND = 7.54, 6.33


def _verdict(num, name, ok, detail=""):
    print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
          + (f"  ({detail})" if detail else ""))
    return ok


# ------------------------------------------------------------ shared training

def train_run(spec: EnvSpec, run_seed: int):
    return train(TrainConfig(env=spec, run_seed=run_seed))


def train_maze_runs() -> dict:
    """The 30 maze runs, keyed by (size, seed); maze seed k trains with run seed k."""
    return {(size, seed): train_run(EnvSpec(kind="maze", width=size, height=size,
                                            seed=seed), seed)
            for size in MAZE_SIZES for seed in SEEDS}


CLIFF_SPEC = EnvSpec(kind="cliffwalking", seed=0)
TAXI_SPEC = EnvSpec(kind="taxi", seed=0)


@pytest.fixture(scope="module")
def maze_runs():
    started = time.perf_counter()
    runs = train_maze_runs()
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def cliff_run():
    return train_run(CLIFF_SPEC, 0)


@pytest.fixture(scope="module")
def taxi_run():
    return train_run(TAXI_SPEC, 0)


@pytest.fixture(scope="module")
def taxi_extra_run():
    return train_run(TAXI_SPEC, TAXI_EXTRA_RUN_SEED)


def _frames_at_convergence(result):
    c = result.metrics.converged_at_update
    if c is None:
        return None
    return result.metrics.rows[c - 1].frames_so_far


# ------------------------------------------------------------------- criteria

def test_01_maze_convergence(maze_runs):
    runs, wall = maze_runs
    ok = True
    details = []
    for size in MAZE_SIZES:
        converged_first = sum(1 for seed in SEEDS
                              if runs[(size, seed)].metrics.converged_at_update == 1)
        frames = [_frames_at_convergence(runs[(size, seed)]) for seed in SEEDS]
        size_ok = (converged_first >= 9
                   and all(f is not None and f <= FRAME_BOUNDS[size] for f in frames))
        ok &= size_ok
        details.append(f"{size}x{size}: conv@1 {converged_first}/10, "
                       f"max frames {max(frames)}<=?{FRAME_BOUNDS[size]}")
    ok &= wall < 300.0
    details.append(f"trained 30 runs in {wall:.0f}s")
    assert _verdict(1, "maze convergence in one learning iteration", ok,
                    "; ".join(details))


def test_02_maze_optimality(maze_runs):
    runs, _wall = maze_runs
    ok = True
    details = []
    for size in MAZE_SIZES:
        discs = []
        worst_gap = 0.0
        for seed in SEEDS:
            res = runs[(size, seed)]
            env = make_env(res.config.env)
            ev = evaluate(res.snapshot, env, episodes=1, gamma=0.99, seed=3)
            truth = env.ground_truth_values(0.99)
            optimal = truth[env.state_id(env.reset())]
            worst_gap = max(worst_gap, abs(ev.mean_discounted_return - optimal))
            discs.append(ev.mean_discounted_return)
        aggregate = sum(discs) / len(discs)
        size_ok = worst_gap <= 1e-9 and abs(aggregate - TABLE1_DISCOUNTED[size]) <= 0.1
        ok &= size_ok
        details.append(f"{size}x{size}: gap {worst_gap:.1e}, agg {aggregate:.3f} "
                       f"(target {TABLE1_DISCOUNTED[size]}±0.1)")
    assert _verdict(2, "greedy returns equal the per-instance optimum", ok,
                    "; ".join(details))


def test_03_cliffwalking_exact(cliff_run):
    env = make_env(cliff_run.config.env)
    ev = evaluate(cliff_run.snapshot, env, episodes=5, gamma=0.99, seed=3)
    frames = _frames_at_convergence(cliff_run)
    converged = cliff_run.metrics.converged_at_update
    ok = (ev.mean_total_reward == -13.0
          and all(e.total_reward == -13.0 for e in ev.episodes)
          and frames is not None and frames <= 300_000
          and converged == 1)
    assert _verdict(3, "cliffwalking reaches -13 exactly", ok,
                    f"total {ev.mean_total_reward}, frames {frames}, "
                    f"converged@{converged}")


def test_04_taxi_exact_per_configuration(taxi_run):
    env = make_env(taxi_run.config.env)
    ev = evaluate(taxi_run.snapshot, env, episodes=100, gamma=0.99, seed=9)
    exact = sum(1 for e in ev.episodes
                if e.total_reward == env.optimal_total_reward(e.start_obs))
    mean_ok = abs(ev.mean_total_reward - TABLE2_TAXI_MEAN) <= TABLE2_TAXI_BAND
    ok = exact == len(ev.episodes) and mean_ok
    assert _verdict(4, "taxi optimal per seeded configuration", ok,
                    f"exact {exact}/{len(ev.episodes)}, mean {ev.mean_total_reward:.2f} "
                    f"(target {TABLE2_TAXI_MEAN}±{TABLE2_TAXI_BAND})")


def test_05_value_completeness(maze_runs):
    runs, _wall = maze_runs
    res = runs[(15, 0)]
    env = make_env(res.config.env)
    truth = env.ground_truth_values(0.99)
    learned = interior_values(res.graph, res.tables)
    covered = all(sid in learned for sid in truth)
    if covered:
        report = completeness_report({sid: learned[sid] for sid in truth}, truth,
                                     tol=1e-6)
    else:
        report = {"completeness_pct": 0.0, "avg_dist": float("nan")}
    ok = (covered and report["completeness_pct"] == 100.0
          and report["avg_dist"] < 0.005)
    assert _verdict(5, "trained 15x15 values match ground truth everywhere", ok,
                    f"covered={covered}, completeness "
                    f"{report['completeness_pct']:.2f}%, avg {report['avg_dist']:.2e}")


def test_06_oracle_equivalence_on_random_graphs():
    started = time.perf_counter()
    worst = 0.0
    graphs = 0
    for seed in range(100):
        g = random_highway_graph(random.Random(seed), max_intersections=50)
        tables = value_update_loop(g, delta=1e-13)
        oracle = vanilla_value_iteration(expand_to_empirical(g), delta=1e-14)
        for s in g.intersections:
            worst = max(worst, abs(tables.v[s] - oracle.values[s]))
        graphs += 1
    wall = time.perf_counter() - started
    ok = worst <= 1e-9 and graphs >= 100 and wall < 60.0
    assert _verdict(6, "highway values equal vanilla values on the expanded graph",
                    ok, f"{graphs} graphs, worst gap {worst:.2e}, {wall:.1f}s")


def test_07_contraction_and_uniqueness():
    violations = 0
    for seed in range(1000):
        rng = random.Random(seed)
        g = random_highway_graph(rng, max_intersections=12)
        w = {s: rng.uniform(-5, 5) for s in g.intersections}
        v = {s: rng.uniform(-5, 5) for s in g.intersections}
        probe = contraction_probe(g, w, v)
        if probe["lhs"] > probe["rhs"] + 1e-12:
            violations += 1
    worst_disagreement = 0.0
    for seed in range(20):
        rng = random.Random(1000 + seed)
        g = random_highway_graph(rng, max_intersections=25)
        a = value_update_loop(g, delta=1e-12, v_init=ValueTables.from_dicts(
            {s: rng.uniform(-10, 10) for s in g.intersections}, {}))
        b = value_update_loop(g, delta=1e-12, v_init=ValueTables.from_dicts(
            {s: rng.uniform(-10, 10) for s in g.intersections}, {}))
        for s in g.intersections:
            worst_disagreement = max(worst_disagreement, abs(a.v[s] - b.v[s]))
    ok = violations == 0 and worst_disagreement <= 1e-7
    assert _verdict(7, "sweeps contract and the fixed point is unique", ok,
                    f"0 of 1000 probes violated: {violations == 0}, "
                    f"init disagreement {worst_disagreement:.2e}")


def _single_path_fixture(n_states):
    g = HighwayGraph(gamma=0.99)
    g.assemble([mk_traj(*[(i, 0, i + 1, -0.25) for i in range(n_states - 1)])])
    return g


def _dense_fixture(k, reward):
    g = HighwayGraph(gamma=0.99)
    for s in range(k):
        for a, nxt in enumerate(x for x in range(k) if x != s):
            g.add_highway(s, nxt, [a], [reward])
    return g


def _ring_fixture(intersections, length):
    g = HighwayGraph(gamma=0.99)
    interior = iter(range(10 ** 7, 10 ** 8))
    for i in range(intersections):
        g.add_highway(i, (i + 1) % intersections, [0] * length, [0.5] * length,
                      [next(interior) for _ in range(length - 1)])
    return g


def test_08a_compression_and_work_ratio(maze_runs):
    runs, _wall = maze_runs
    details = []
    maze_z = graph_stats(runs[(15, 0)].graph)["z"]
    maze_ok = maze_z < 1.0
    details.append(f"trained maze15 z {maze_z:.3f}")

    n = 51
    path = _single_path_fixture(n)
    stats = graph_stats(path)
    _tables, hstats = solve(path, delta=1e-12)
    oracle = vanilla_value_iteration(expand_to_empirical(path), delta=1e-12)
    case1_ok = (stats["z"] == 2 / n
                and hstats["per_sweep_updates"] == 1
                and stats["expanded_edges"] == n - 1
                and hstats["sweeps"] == 2
                and oracle.iterations_run == n
                and hstats["per_sweep_updates"] < stats["expanded_edges"])
    details.append(f"single path: z=2/{n}, sweeps {hstats['sweeps']} vs "
                   f"{oracle.iterations_run}, per-sweep 1 vs {n - 1}")

    dense = _dense_fixture(5, reward=0.0)
    dstats = graph_stats(dense)
    _tables, dh = solve(dense, delta=1e-12)
    doracle = vanilla_value_iteration(expand_to_empirical(dense), delta=1e-12)
    case2_ok = (dstats["z"] == 1.0
                and dh["per_sweep_updates"] == dstats["expanded_edges"]
                and dh["sweeps"] == doracle.iterations_run == 1
                and graph_stats(_dense_fixture(5, reward=0.3))["z"] == 1.0)
    details.append(f"dense: z=1, per-sweep {dh['per_sweep_updates']}=="
                   f"{dstats['expanded_edges']}")

    # as highways lengthen, total update counts must track z^2 within a
    # constant factor while z^2 itself drops by orders of magnitude
    ratios = []
    z_squares = []
    for length in (2, 8, 32):
        ring = _ring_fixture(6, length)
        z = graph_stats(ring)["z"]
        _t, hs = solve(ring, delta=1e-9)
        vres = vanilla_value_iteration(expand_to_empirical(ring), delta=1e-9)
        counted = (hs["sweeps"] * hs["per_sweep_updates"]) / (
            vres.iterations_run * graph_stats(ring)["expanded_edges"])
        ratios.append(counted / (z * z))
        z_squares.append(z * z)
    lengthening_ok = (all(0.4 <= r <= 2.0 for r in ratios)
                      and max(ratios) / min(ratios) <= 2.0
                      and max(z_squares) / min(z_squares) >= 64)
    details.append("counted/z^2 over lengths: "
                   + ", ".join(f"{r:.2f}" for r in ratios))

    ok = maze_ok and case1_ok and case2_ok and lengthening_ok
    assert _verdict(8, "compression ratio and work ratio behave as claimed", ok,
                    "; ".join(details))


def test_08b_cliffwalking_compression(cliff_run):
    # Every reachable CliffWalking cell ends up with at least two distinct
    # successors (or predecessors) once exploration saturates the 4x12 grid,
    # so the trained graph's compression ratio is exactly 1.0.  The strict
    # z < 1 assertion is kept as stated; see the decisions ledger.
    cliff_z = graph_stats(cliff_run.graph)["z"]
    ok = cliff_z < 1.0
    assert _verdict(8, "trained cliffwalking graph compresses (z < 1)", ok,
                    f"cliff z {cliff_z:.3f}")


def test_09_speed_ratio(maze_runs):
    runs, _wall = maze_runs
    graph = runs[(15, 0)].graph
    expanded = expand_to_empirical(graph)
    delta = 1e-9

    def best_of(fn, repeats=7):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    highway_time = best_of(lambda: value_update_loop(graph, delta=delta))
    vanilla_time = best_of(lambda: vanilla_value_iteration(expanded, delta=delta))
    ratio = highway_time / vanilla_time
    ok = ratio < 1.0
    assert _verdict(9, "highway solve is faster than vanilla at identical delta", ok,
                    f"ratio {ratio:.3f} ({highway_time * 1e3:.1f}ms vs "
                    f"{vanilla_time * 1e3:.1f}ms)")


def distill(res):
    """Fit the default approximator to a trained run's tables."""
    env = make_env(res.config.env)

    def features_of(sid):
        return env.state_features(env.obs_of_id(sid))

    dataset = extract_dataset(res.graph, res.tables, features_of)
    approx = fit(dataset, ApproxConfig(), action_count=env.action_count)
    return res, env, features_of, approx


@pytest.fixture(scope="module")
def distilled_approximator(maze_runs):
    runs, _wall = maze_runs
    return distill(runs[(5, 2)])


def test_10a_reparam_gradients_and_agreement(distilled_approximator):
    details = []
    from highway_rl.reparam import QDataset

    rng = np.random.default_rng(0)
    probe_features = rng.uniform(0, 1, size=(12, 2))
    probe_actions = rng.integers(0, 4, size=12)
    probe_targets = rng.normal(size=12)
    probe = fit(QDataset(probe_features, probe_actions, probe_targets),
                ApproxConfig(epochs=1, init_seed=5), action_count=4)
    _loss, grads = loss_and_gradients(probe, probe_features, probe_actions,
                                      probe_targets)
    probe_rng = np.random.default_rng(1)
    worst_rel = 0.0
    checked = 0
    for w, g in zip(probe.weights, grads):
        flat_w, flat_g = w.reshape(-1), g.reshape(-1)
        for _ in range(2):
            i = probe_rng.integers(len(flat_w))
            h = 1e-6
            old = flat_w[i]
            flat_w[i] = old + h
            lp, _ = loss_and_gradients(probe, probe_features, probe_actions,
                                       probe_targets)
            flat_w[i] = old - h
            lm, _ = loss_and_gradients(probe, probe_features, probe_actions,
                                       probe_targets)
            flat_w[i] = old
            numeric = (lp - lm) / (2 * h)
            denom = max(abs(numeric), abs(flat_g[i]), 1e-8)
            worst_rel = max(worst_rel, abs(numeric - flat_g[i]) / denom)
            checked += 1
    grad_ok = worst_rel <= 1e-4 and checked >= 10
    details.append(f"gradient rel err {worst_rel:.1e} over {checked} probes")

    res, _env, features_of, approx = distilled_approximator
    scored = [s for s in res.graph.intersections if res.graph.out_edges.get(s)]
    agreement = policy_agreement(
        approx, scored, features_of,
        {s: greedy_action(res.graph, res.tables, s) for s in scored})
    agreement_ok = agreement >= 0.95
    details.append(f"maze 5x5 agreement {agreement:.3f}")

    ok = grad_ok and agreement_ok
    assert _verdict(10, "distillation gradients and policy agreement", ok,
                    "; ".join(details))


def test_10b_reparam_storage(distilled_approximator, maze_runs, tmp_path):
    # The approximator's parameter count is fixed (two 512-unit layers, about
    # 2 MB serialized) while the desk-scale 15x15 graph serializes to tens of
    # kilobytes, so the smaller-than-the-graph assertion cannot hold at this
    # scale.  Kept as stated; see the decisions ledger.
    runs, _wall = maze_runs
    _res, _env, _features_of, approx = distilled_approximator
    approx_path = tmp_path / "approximator.npz"
    graph_path = tmp_path / "maze15.npz"
    save_approximator(approx_path, approx)
    save_highway_graph(graph_path, runs[(15, 0)].graph)
    approx_size = approx_path.stat().st_size
    graph_size = graph_path.stat().st_size
    ok = approx_size < graph_size
    assert _verdict(10, "approximator serializes smaller than the 15x15 graph", ok,
                    f"approximator {approx_size} vs graph {graph_size} bytes")


class _StochasticStream:
    """Hand-built stream: the same (state, action) leads to two next states."""

    class _Spec:
        kind = "maze"

    spec = _Spec()
    action_count = 2

    def __init__(self):
        self.seen = {}

    def reset(self, episode_seed=None):
        return 0

    def state_id(self, obs):
        return obs + 500

    def step(self, obs, action):
        if obs == 0:
            hits = self.seen.get(action, 0)
            self.seen[action] = hits + 1
            return StepResult(1 + hits, 0.0, False, 501 + hits)
        return StepResult(0, 0.0, True, 500)


def test_11_determinism_guardrail(tmp_path, monkeypatch, capsys):
    import highway_rl.trainer as trainer_module

    monkeypatch.setattr(trainer_module, "make_env", lambda spec: _StochasticStream())
    code = cli.main(["train", "--env", "maze", "--size", "3x3", "--step-cap", "4",
                     "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    ok = code == 3 and "determinism violation" in err and "state=" in err
    assert _verdict(11, "stochastic stream aborts with exit code 3", ok,
                    f"exit {code}")


# ------------------------------------------------------------- results ledger
#
# tests/golden/acceptance.json pins the results of every acceptance run bit
# for bit.  It is rewritten only by tests/repin_acceptance.py, and every
# re-pin is logged in CHANGES.md with its reason.

LEDGER_PATH = Path(__file__).parent / "golden" / "acceptance.json"
# taxi run seed 8, which the epsilon-greedy actors stopped on patience before
# its policy was optimal from every start, is pinned beside the taxi
# fixture's run seed 0
TAXI_EXTRA_RUN_SEED = 8


def ledger_key(res) -> str:
    spec = res.config.env
    return f"{spec.kind}/{spec.width}x{spec.height}/seed{spec.seed}/run{res.config.run_seed}"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def metrics_without(res, dropped) -> str:
    """metrics.csv with the named columns left out."""
    lines = res.metrics.to_csv().splitlines()
    header = lines[1].split(",")
    gone = {header.index(name) for name in dropped}
    return "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i not in gone)
                     for line in lines)


def _graph_arrays_digest(graph, path) -> str:
    """sha256 over the arrays save_highway_graph writes (name, dtype, shape,
    bytes, in name order); the npz file itself carries zip timestamps."""
    save_highway_graph(path, graph)
    h = hashlib.sha256()
    with np.load(path, allow_pickle=False) as npz:
        for name in sorted(npz.files):
            arr = npz[name]
            h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def ledger_record(res, scratch_dir) -> dict:
    tables = res.tables
    v = np.array([tables.v[k] for k in sorted(tables.v)], dtype="<f8")
    q = np.array([tables.q[k] for k in sorted(tables.q)], dtype="<f8")
    return {
        # the solver's sweep counts are listed on their own, so a re-pin for a
        # solver change shows that nothing else in metrics.csv moved
        "metrics_csv": _sha256(metrics_without(res, ("wall_ms", "vi_sweeps")).encode()),
        "vi_sweeps": [row.vi_sweeps for row in res.metrics.rows],
        # so are the stop decisions, so a re-pin shows whether a run stops
        # elsewhere or on another rule
        "stopped_by": res.metrics.stopped_by,
        "converged_at_update": res.metrics.converged_at_update,
        "v": _sha256(v.tobytes()),
        "q": _sha256(q.tobytes()),
        "iterations_run": tables.iterations_run,
        "final_delta": struct.pack("<d", tables.final_delta).hex(),
        "graph_arrays": _graph_arrays_digest(res.graph, Path(scratch_dir) / "graph.npz"),
    }


def weights_digest(approx) -> str:
    h = hashlib.sha256()
    for w in approx.weights:
        h.update(np.ascontiguousarray(w, dtype="<f8").tobytes())
    return h.hexdigest()


def oracle_digest(res) -> str:
    """sha256 of the ground-truth V of a run's environment, as little-endian
    float64 in sorted key order."""
    truth = make_env(res.config.env).ground_truth_values(res.config.gamma)
    return _sha256(np.array([truth[s] for s in sorted(truth)], dtype="<f8").tobytes())


def build_ledger(runs, approx, scratch_dir) -> dict:
    """The ledger of the given trained runs, of the ground truth of their
    environments (keyed like the runs, without the run seed) and of the
    approximator the distillation fixture fits (to maze 5x5 seed 2)."""
    return {"runs": {ledger_key(res): ledger_record(res, scratch_dir) for res in runs},
            "oracle_v": {ledger_key(res).rsplit("/", 1)[0]: oracle_digest(res) for res in runs},
            "distilled_weights": weights_digest(approx)}


def ledger_moves(want, got) -> list[str]:
    """What differs between two ledgers: "<run> <field>", "<env> oracle_v"
    and "distilled weights" entries, in key order."""
    keys = sorted(want["runs"].keys() | got["runs"].keys())
    fields = sorted({f for r in (*want["runs"].values(), *got["runs"].values()) for f in r})
    moved = [f"{key} {field}" for key in keys for field in fields
             if want["runs"].get(key, {}).get(field) != got["runs"].get(key, {}).get(field)]
    moved += [f"{env} oracle_v" for env in sorted(want["oracle_v"].keys() | got["oracle_v"].keys())
              if want["oracle_v"].get(env) != got["oracle_v"].get(env)]
    if got["distilled_weights"] != want["distilled_weights"]:
        moved.append("distilled weights")
    return moved


def test_results_ledger(maze_runs, cliff_run, taxi_run, taxi_extra_run, distilled_approximator,
                        tmp_path):
    runs, _wall = maze_runs
    trained = [*runs.values(), cliff_run, taxi_run, taxi_extra_run]
    got = build_ledger(trained, distilled_approximator[3], tmp_path)
    want = json.loads(LEDGER_PATH.read_text())
    moved = ledger_moves(want, got)
    ok = got == want
    assert _verdict(12, "every acceptance run matches its pinned results bit for bit", ok,
                    f"{len(got['runs'])} runs; moved: {', '.join(moved[:8]) or 'none'}")


def test_13_dropped_self_loops_leave_the_values_unchanged(maze_runs, cliff_run, taxi_run,
                                                          taxi_extra_run):
    # The graph leaves its sampled self-loops (wall bumps, illegal actions)
    # out of the highways on the premise that they never beat an optimal
    # action.  Solving every observed pair, self-loops included, must then
    # give every expanded state the value the highway solve gave it.
    runs, _wall = maze_runs
    worst = 0.0
    loops = 0
    keys_ok = True
    trained = [*runs.values(), cliff_run, taxi_run, taxi_extra_run]
    for res in trained:
        graph = res.graph
        full = vanilla_value_iteration(
            EmpiricalGraph(graph.gamma, graph.states(), dict(graph.observed)), delta=1e-12)
        learned = interior_values(graph, res.tables)
        keys_ok &= full.values.keys() == learned.keys()
        worst = max(worst, *(abs(full.values[s] - v) for s, v in learned.items()))
        loops += sum(s == nxt for (s, _a), (nxt, _r) in graph.observed.items())
    ok = keys_ok and worst <= 1e-9
    assert _verdict(13, "solving the dropped self-loops too leaves every value unchanged", ok,
                    f"{len(trained)} runs, {loops} self-loops, same states: {keys_ok}, "
                    f"worst gap {worst:.1e}")


def test_14_certified_runs_hold_the_true_values(maze_runs, cliff_run, taxi_run, taxi_extra_run):
    # A run that stopped on the certificate solved a closed graph, the true
    # model of every state it holds: its values there must be the optimal
    # ones, not only on the one run test_05 compares.  The explorer closes
    # the graph of every run.
    runs, _wall = maze_runs
    trained = [*runs.values(), cliff_run, taxi_run, taxi_extra_run]
    certified = [res for res in trained if res.metrics.stopped_by == "certificate"]
    worst = 0.0
    for res in certified:
        truth = make_env(res.config.env).ground_truth_values(res.config.gamma)
        learned = interior_values(res.graph, res.tables)
        worst = max(worst, *(abs(truth[s] - v) for s, v in learned.items()))
    ok = len(certified) == 33 and worst <= 1e-9
    assert _verdict(14, "runs stopped on the certificate hold the optimal values", ok,
                    f"{len(certified)} of {len(trained)} runs certified, worst gap {worst:.1e}")


def test_15_taxi_run_seed_8_is_optimal_from_every_start(taxi_extra_run):
    # the epsilon-greedy actors stopped this run on patience, with its policy
    # one start short of optimal; the explorer certifies it, and its greedy
    # table must then reach the optimum from every one of taxi's starts
    env = make_env(taxi_extra_run.config.env)
    # a start has the passenger waiting (location < 4) for another destination;
    # an observation packs ((row * 5 + col) * 5 + location) * 4 + destination
    starts = [obs for obs in env.enumerate_states()
              if obs // 4 % 5 < 4 and obs // 4 % 5 != obs % 4]
    exact = 0
    for start in starts:
        obs, total, done = start, 0.0, False
        for _ in range(200):
            res = env.step(obs, taxi_extra_run.snapshot[env.state_id(obs)])
            total, obs, done = total + res.reward, res.next_obs, res.done
            if done:
                break
        exact += done and total == env.optimal_total_reward(start)
    ok = (taxi_extra_run.metrics.stopped_by == "certificate" and len(starts) == 300
          and exact == len(starts))
    assert _verdict(15, "taxi run seed 8 is optimal from every start", ok,
                    f"exact {exact}/{len(starts)}, stopped by "
                    f"{taxi_extra_run.metrics.stopped_by}")

