"""Command-line surface: exit codes, run directories, exports."""

import dataclasses
import json
import os
import re
import shutil

import numpy as np
import pytest

from highway_rl import cli
from highway_rl.environments import DEFAULT_EVAL_STEP_CAP, EnvSpec, StepResult, make_env
from highway_rl.reparam import ApproxConfig, QDataset, act, fit
from highway_rl.serialize import (load_approximator, load_value_tables, read_manifest,
                                  save_approximator, save_value_tables, verify_manifest,
                                  write_manifest)
from highway_rl.trainer import TrainConfig, _mix_seed


@pytest.fixture()
def run_dir(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["train", "--env", "maze", "--size", "3x3", "--seed", "7",
                     "--run-seed", "1", "--out", str(out)])
    assert code == 0
    return out


def test_train_writes_run_directory(run_dir):
    names = set(os.listdir(run_dir))
    assert {"manifest.json", "metrics.csv", "graph.npz", "tables.npz",
            "values.csv", "q.csv", "config.txt"} <= names
    assert verify_manifest(run_dir)
    manifest = read_manifest(run_dir)
    assert manifest["converged_at_update"] == 1
    assert manifest["stopped_by"] == "certificate" and manifest["untried_pairs"] == 0
    assert manifest["frames_used"] > 0
    metrics = (run_dir / "metrics.csv").read_text()
    assert len(metrics.splitlines()) > 2


def test_train_cliffwalking_default_budget(tmp_path):
    out = tmp_path / "cliff"
    assert cli.main(["train", "--env", "cliffwalking", "--run-seed", "0",
                     "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["converged_at_update"] is not None
    assert manifest["frames_at_convergence"] <= manifest["frames_used"]


def test_train_reports_how_the_run_stopped(tmp_path, capsys):
    # taxi run seed 8 never closes its graph: it stops on patience with 8
    # untried (state, action) pairs, and says so on stdout and in the manifest
    out = tmp_path / "taxi"
    assert cli.main(["train", "--env", "taxi", "--run-seed", "8", "--out", str(out)]) == 0
    assert "stopped_by: patience  untried_pairs: 8" in capsys.readouterr().out
    manifest = read_manifest(out)
    assert (manifest["stopped_by"], manifest["untried_pairs"]) == ("patience", 8)


def test_train_unknown_env_exits_2(tmp_path, capsys):
    assert cli.main(["train", "--env", "pinball", "--out", str(tmp_path / "x")]) == 2


def test_train_maze_without_size_exits_2(tmp_path):
    assert cli.main(["train", "--env", "maze", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("flag, value", [
    ("--patience", "0"), ("--episodes-per-update", "0"), ("--step-cap", "0"),
    ("--delta", "0"), ("--gamma", "1")])
def test_train_bad_setting_exits_2(tmp_path, capsys, flag, value):
    out = tmp_path / "x"
    assert cli.main(["train", "--env", "maze", "--size", "3x3", flag, value,
                     "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("env=maze\nsize=3x3\nseed=7\nrun_seed=1\nframes=1000000\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["config"]["env_seed"] == 7
    out2 = tmp_path / "run2"
    assert cli.main(["train", "--config", str(cfg), "--seed", "9",
                     "--out", str(out2)]) == 0
    assert read_manifest(out2)["config"]["env_seed"] == 9


@pytest.mark.parametrize("text, named", [("env=maze\nsize=3x3\nframe_budget=1000\n",
                                          "frame_budget"),
                                         ("env=taxi\nactors=x\n", "actors")],
                         ids=["unknown-key", "bad-value"])
def test_config_file_errors_exit_2_and_name_the_key(tmp_path, capsys, text, named):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["absent.cfg", ""], ids=["missing-file", "directory"])
def test_an_unreadable_config_file_exits_2_and_names_the_path(tmp_path, capsys, name):
    path = tmp_path / name
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


def test_a_runs_config_txt_is_not_a_config_file(run_dir, tmp_path, capsys):
    # config.txt records TrainConfig's field names; --config takes the flags'
    out = tmp_path / "again"
    assert cli.main(["train", "--config", str(run_dir / "config.txt"), "--out", str(out)]) == 2
    assert "env_kind" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_values_are_converted_as_the_flags_are(tmp_path, monkeypatch):
    seen = []

    def record(config, on_update=None):
        seen.append(config)
        raise ValueError("recorded")

    monkeypatch.setattr(cli.trainer, "train", record)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("env=taxi\ngamma=0.9\n")
    for flags in ([], ["--gamma", "0.5"]):
        assert cli.main(["train", "--config", str(cfg), *flags,
                         "--out", str(tmp_path / "x")]) == 2
    assert [config.gamma for config in seen] == [0.9, 0.5]
    assert type(seen[0].gamma) is float


def test_run_dir_defaults_to_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("HG_RUN_DIR", str(tmp_path / "root"))
    assert cli.main(["train", "--env", "maze", "--size", "3x3", "--seed", "7",
                     "--run-seed", "1"]) == 0
    assert (tmp_path / "root" / "maze-3x3-s7-r1" / "manifest.json").exists()


def test_eval_command(run_dir, capsys):
    assert cli.main(["eval", "--run", str(run_dir), "--episodes", "3"]) == 0
    out = capsys.readouterr().out
    assert "mean_total_reward:" in out
    assert "mean_discounted_return:" in out


def test_bench_command(run_dir, capsys):
    assert cli.main(["bench", "--run", str(run_dir)]) == 0
    out = capsys.readouterr().out
    header, highway, vanilla = out.splitlines()[:3]
    assert header.startswith("engine,sweeps,per_sweep_updates,")
    assert highway.startswith("highway,")
    assert vanilla.startswith("vanilla,")
    assert "# z=" in out and "# z_squared=" in out
    assert "# contracted=" in out and "# reduced_highways=" in out


def test_bench_not_converged_exits_5(run_dir, capsys):
    # a NaN step reward, under a manifest rewritten to match, makes both
    # solvers' first sweep change NaN, and each stops after that sweep; the
    # file holds the step once, as the observed pair of the first highway's
    # first action
    path = run_dir / "graph.npz"
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays["obs_reward"][(arrays["obs_state"] == arrays["h_from"][0])
                         & (arrays["obs_action"] == arrays["flat_actions"][0])] = np.nan
    np.savez_compressed(path, **arrays)
    write_manifest(run_dir, read_manifest(run_dir)["config"])
    assert cli.main(["bench", "--run", str(run_dir)]) == 5
    captured = capsys.readouterr()
    reduced = int(re.search(r"^# reduced_sweeps=(\d+)$", captured.out, re.M).group(1))
    assert "\n# full_sweeps=1\n" in captured.out
    assert captured.out.splitlines()[1].startswith(f"highway,{reduced + 1},")
    assert captured.out.splitlines()[2].startswith("vanilla,1,")
    assert "not converged: highway and vanilla" in captured.err


def test_bench_takes_no_sweep_cap(run_dir, capsys):
    # each solver works out its own cap; a budget flag is a usage error
    assert cli.main(["bench", "--run", str(run_dir), "--max-iter", "1"]) == 2
    assert "--max-iter" in capsys.readouterr().err


def test_bench_missing_artifact_exits_4(tmp_path):
    assert cli.main(["bench", "--run", str(tmp_path / "ghost")]) == 4


def test_an_unmarked_artifact_exits_4(run_dir, capsys):
    # a plain npz file, under a manifest rewritten to match
    np.savez(run_dir / "graph.npz", gamma=np.array(0.9))
    write_manifest(run_dir, read_manifest(run_dir)["config"])
    assert cli.main(["eval", "--run", str(run_dir)]) == 4
    err = capsys.readouterr().err
    assert f"missing artifact: {run_dir / 'graph.npz'} has no" in err


def test_an_approximator_for_another_environment_exits_2(run_dir, capsys):
    # a net fitted on taxi's 4 features cannot act on the maze's 2
    rng = np.random.default_rng(0)
    ds = QDataset(features=rng.uniform(size=(6, 4)), actions=rng.integers(0, 4, 6),
                  targets=rng.normal(size=6))
    save_approximator(run_dir / "approximator.npz",
                      fit(ds, ApproxConfig(hidden_units=4, epochs=1), action_count=4))
    manifest = read_manifest(run_dir)
    write_manifest(run_dir, manifest["config"], extra=manifest)
    assert cli.main(["eval-hgq", "--run", str(run_dir)]) == 2
    assert "config error: feature dim 2 != expected 4" in capsys.readouterr().err


def test_a_cut_artifact_exits_4(run_dir, capsys):
    # graph.npz cut to half its length, under a manifest rewritten to match:
    # np.load cannot read it, and the error names the path
    path = run_dir / "graph.npz"
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    write_manifest(run_dir, read_manifest(run_dir)["config"])
    assert cli.main(["eval", "--run", str(run_dir)]) == 4
    assert f"missing artifact: {path} cannot be read" in capsys.readouterr().err


@pytest.mark.parametrize("file, name, value, code, message", [
    ("graph", "format_version", np.array([1, 1]), 4,
     "missing artifact: {path} has format version [1 1]"),
    ("graph", "gamma", np.array([0.9, 0.9]), 2, "config error: {path}: gamma has shape (2,), not ()"),
    ("graph", "h_ptr", None, 2, "config error: {path}: the array h_ptr is missing"),
    ("graph", "h_ptr", np.array(3), 2, "config error: {path}: h_ptr has shape (), not 1-d"),
    ("graph", "h_from", np.array(3), 2, "config error: {path}: h_from has shape (), not 1-d"),
    ("graph", "obs_state", np.array(3), 2,
     "config error: {path}: obs_state has shape (), not 1-d"),
    ("tables", "v_state", np.array(3), 2, "config error: {path}: v_state has shape (), not 1-d"),
    ("tables", "q_value", np.array(0.5), 2,
     "config error: {path}: q_value has shape (), not 1-d"),
    ("tables", "v_state", np.zeros((2, 2), np.uint64), 2,
     "config error: {path}: v_state has shape (2, 2), not 1-d"),
], ids=["vector-marker", "vector-gamma", "no-h_ptr", "0-d-h_ptr", "0-d-h_from", "0-d-obs_state",
        "0-d-v_state", "0-d-q_value", "2-d-v_state"])
def test_a_non_scalar_or_missing_array_exits_4_for_a_marker_and_2_for_a_payload(
        run_dir, capsys, file, name, value, code, message):
    # graph.npz or tables.npz with one array replaced or dropped, under a
    # manifest rewritten to match
    path = run_dir / f"{file}.npz"
    with np.load(path) as npz:
        data = {key: npz[key] for key in npz.files}
    data[name] = value
    np.savez_compressed(path, **{key: a for key, a in data.items() if a is not None})
    write_manifest(run_dir, read_manifest(run_dir)["config"])
    assert cli.main(["eval", "--run", str(run_dir)]) == code
    assert message.format(path=path) in capsys.readouterr().err


def test_a_manifest_whose_files_is_a_list_exits_4(run_dir, capsys):
    manifest = read_manifest(run_dir)
    manifest["files"] = sorted(manifest["files"])
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    assert cli.main(["eval", "--run", str(run_dir)]) == 4
    assert f"missing artifact: {run_dir}: manifest.json" in capsys.readouterr().err


def test_a_manifest_that_is_no_json_exits_4(run_dir, capsys):
    (run_dir / "manifest.json").write_text("{files: {}}")
    assert cli.main(["eval", "--run", str(run_dir)]) == 4
    assert f"missing artifact: {run_dir}: manifest.json is not JSON" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["env_kind", "gamma"])
def test_a_manifest_config_without_a_key_exits_4(run_dir, capsys, key):
    config = read_manifest(run_dir)["config"]
    del config[key]
    write_manifest(run_dir, config)
    assert cli.main(["eval", "--run", str(run_dir)]) == 4
    assert (f"missing artifact: {run_dir}: manifest.json's config lacks {key}"
            in capsys.readouterr().err)


def test_tampered_artifact_exits_4(run_dir, capsys):
    with open(run_dir / "tables.npz", "ab") as f:
        f.write(b"\0")
    assert cli.main(["eval", "--run", str(run_dir)]) == 4
    assert str(run_dir) in capsys.readouterr().err


def test_completeness_command(run_dir, capsys):
    assert cli.main(["completeness", "--run", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"completeness: \d+\.\d\d%", out)
    assert "avg_dist:" in out


def test_completeness_refuses_an_unconverged_solve(run_dir, tmp_path, capsys):
    stalled = tmp_path / "stalled"
    shutil.copytree(run_dir, stalled)
    tables = load_value_tables(stalled / "tables.npz")
    save_value_tables(stalled / "tables.npz", dataclasses.replace(tables, final_delta=1.0))
    manifest = read_manifest(stalled)
    # re-list the digests, so only the convergence check can refuse the run
    write_manifest(stalled, manifest["config"], extra=manifest)
    assert cli.main(["completeness", "--run", str(stalled)]) == 5
    err = capsys.readouterr().err
    assert "1.0" in err and repr(manifest["config"]["delta"]) in err
    assert cli.main(["completeness", "--run", str(run_dir)]) == 0


def _parse_dot(text):
    """Tiny DOT reader: returns (node count, edge count) or fails loudly."""
    assert text.startswith("digraph")
    assert text.rstrip().endswith("}")
    nodes = re.findall(r'^\s+n\d+ \[label=.*\];$', text, flags=re.M)
    edges = re.findall(r'^\s+n\d+ -> n\d+ \[.*\];$', text, flags=re.M)
    return len(nodes), len(edges)


def test_export_command(run_dir, tmp_path):
    prefix = str(tmp_path / "export")
    assert cli.main(["export", "--run", str(run_dir), "--out-prefix", prefix,
                     "--expanded"]) == 0
    highway_nodes, highway_edges = _parse_dot(open(prefix + ".highway.dot").read())
    expanded_nodes, expanded_edges = _parse_dot(open(prefix + ".expanded.dot").read())
    assert expanded_nodes >= highway_nodes
    assert expanded_edges >= highway_edges
    assert "V=" in open(prefix + ".highway.dot").read()


def test_export_node_count_matches_intersections(run_dir, tmp_path):
    from highway_rl.serialize import load_highway_graph
    graph = load_highway_graph(run_dir / "graph.npz")
    prefix = str(tmp_path / "g")
    assert cli.main(["export", "--run", str(run_dir), "--out-prefix", prefix]) == 0
    nodes, edges = _parse_dot(open(prefix + ".highway.dot").read())
    assert nodes == len(graph.intersections)
    assert edges == len(graph.highways)


def test_distill_and_eval_hgq(run_dir, capsys):
    assert cli.main(["distill", "--run", str(run_dir), "--epochs", "300",
                     "--learning-rate", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "greedy_agreement:" in out
    epochs_run = re.search(r"final_loss: \S+  epochs_run: (\d+) of 300\n", out)
    approx = load_approximator(run_dir / "approximator.npz")
    assert epochs_run and int(epochs_run.group(1)) == len(approx.loss_history) <= 300
    assert verify_manifest(run_dir)
    assert cli.main(["eval-hgq", "--run", str(run_dir), "--episodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "mean_total_reward:" in out


def test_distill_keeps_every_manifest_field(run_dir):
    manifest = read_manifest(run_dir)
    write_manifest(run_dir, manifest["config"], extra={**manifest, "certified": True})
    assert cli.main(["distill", "--run", str(run_dir), "--epochs", "2"]) == 0
    after = read_manifest(run_dir)
    assert after.pop("certified") is True
    assert after.pop("files").keys() == manifest.pop("files").keys() | {"approximator.npz"}
    assert after == manifest
    assert verify_manifest(run_dir)


@pytest.mark.parametrize("command", ["eval", "eval-hgq"])
@pytest.mark.parametrize("episodes", ["0", "-2"])
def test_eval_commands_reject_non_positive_episodes(run_dir, capsys, command, episodes):
    assert cli.main(["distill", "--run", str(run_dir), "--epochs", "2"]) == 0
    capsys.readouterr()
    assert cli.main([command, "--run", str(run_dir), "--episodes", episodes]) == 2
    captured = capsys.readouterr()
    assert "config error: episodes must be >= 1" in captured.err
    assert "mean_total_reward" not in captured.out


def test_eval_hgq_without_distill_exits_4(run_dir):
    os.remove(run_dir / "approximator.npz") if (run_dir / "approximator.npz").exists() else None
    assert cli.main(["eval-hgq", "--run", str(run_dir)]) == 4


def test_determinism_violation_exits_3(tmp_path, monkeypatch, capsys):
    import highway_rl.trainer as trainer_module

    class _Flaky:
        class _Spec:
            kind = "maze"

        spec = _Spec()
        action_count = 2

        def __init__(self):
            self.seen = {}

        def reset(self, episode_seed=None):
            return 0

        def state_id(self, obs):
            return obs + 50

        def step(self, obs, action):
            if obs == 0:
                hits = self.seen.get(action, 0)
                self.seen[action] = hits + 1
                return StepResult(1 + hits, 0.0, False, 51 + hits)
            return StepResult(0, 0.0, True, 50)

    monkeypatch.setattr(trainer_module, "make_env", lambda spec: _Flaky())
    code = cli.main(["train", "--env", "maze", "--size", "3x3", "--step-cap", "4",
                     "--out", str(tmp_path / "x")])
    assert code == 3
    assert "determinism violation" in capsys.readouterr().err


def test_distill_rejects_non_positive_epochs(run_dir, capsys):
    assert cli.main(["distill", "--run", str(run_dir), "--epochs", "0"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (run_dir / "approximator.npz").exists()


def test_distill_flag_defaults_are_the_library_defaults():
    args = cli.build_parser().parse_args(["distill", "--run", "x"])
    want = ApproxConfig()
    assert (args.epochs, args.learning_rate, args.seed) == (want.epochs, want.learning_rate,
                                                            want.init_seed)


def test_train_flag_defaults_are_the_library_defaults(tmp_path, monkeypatch):
    seen = []

    def record(config, on_update=None):
        seen.append(config)
        raise ValueError("recorded")

    monkeypatch.setattr(cli.trainer, "train", record)
    assert cli.main(["train", "--env", "taxi", "--out", str(tmp_path / "x")]) == 2
    assert seen == [TrainConfig(env=EnvSpec(kind="taxi"))]


def _recording_evaluate(monkeypatch):
    """Results of every trainer.evaluate call the CLI makes from now on."""
    from highway_rl import trainer
    real, results = trainer.evaluate, []

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(trainer, "evaluate", recording)
    return results


def test_eval_and_eval_hgq_start_from_the_same_states(tmp_path, monkeypatch, capsys):
    run = tmp_path / "taxi"
    assert cli.main(["train", "--env", "taxi", "--seed", "0", "--run-seed", "0",
                     "--out", str(run)]) == 0
    assert cli.main(["distill", "--run", str(run), "--epochs", "1"]) == 0
    results = _recording_evaluate(monkeypatch)
    for command in ("eval", "eval-hgq"):
        assert cli.main([command, "--run", str(run), "--episodes", "6",
                         "--seed", "3"]) == 0
    capsys.readouterr()
    by_command = [[(e.episode_seed, e.start_obs) for e in r.episodes] for r in results]
    assert len(by_command) == 2 and by_command[0] == by_command[1]
    assert len({start for _seed, start in by_command[0]}) > 1   # taxi resets do vary


@pytest.mark.parametrize("step_cap, want", [(["--step-cap", "37"], 37),
                                             ([], DEFAULT_EVAL_STEP_CAP["maze"])],
                         ids=["run-cap", "default"])
def test_eval_and_eval_hgq_cap_episodes_as_training_evaluates(tmp_path, monkeypatch, capsys,
                                                               step_cap, want):
    # the run's episode_step_cap, else the environment's evaluation default
    from highway_rl import trainer
    run = tmp_path / "maze"
    assert cli.main(["train", "--env", "maze", "--size", "3x3", "--seed", "7", *step_cap,
                     "--out", str(run)]) == 0
    assert cli.main(["distill", "--run", str(run), "--epochs", "1"]) == 0
    results = _recording_evaluate(monkeypatch)
    # every choice is north, a wall at the start, so each episode runs to its cap
    monkeypatch.setattr(trainer, "epsilon_greedy", lambda greedy, s, epsilon, rng, action_count: 0)
    for command in ("eval", "eval-hgq"):
        assert cli.main([command, "--run", str(run), "--episodes", "2"]) == 0
    capsys.readouterr()
    assert [(e.steps, e.terminal) for r in results for e in r.episodes] == [(want, False)] * 4


def _act_loop_lines(run, episodes: int, seed: int) -> str:
    """What eval-hgq printed when it ran its own loop: `act` on each frame's
    features, from evaluation's seed-derived starts, to a terminal state or
    the run's cap (else the environment's evaluation default)."""
    config = read_manifest(run)["config"]
    env = make_env(EnvSpec(config["env_kind"], config["env_width"], config["env_height"],
                           config["env_seed"]))
    approx = load_approximator(run / "approximator.npz")
    cap = config["episode_step_cap"] or DEFAULT_EVAL_STEP_CAP[env.spec.kind]
    totals, discs = [], []
    for k in range(episodes):
        obs = env.reset(_mix_seed(seed, 7_777, k))
        total = disc = 0.0
        g = 1.0
        for _ in range(cap):
            res = env.step(obs, act(approx, env.state_features(obs)))
            total += res.reward
            disc += g * res.reward
            g *= config["gamma"]
            obs = res.next_obs
            if res.done:
                break
        totals.append(total)
        discs.append(disc)
    return (f"episodes: {episodes}\nmean_total_reward: {sum(totals) / len(totals):.6f}\n"
            f"mean_discounted_return: {sum(discs) / len(discs):.6f}\n")


@pytest.mark.parametrize("train, distill", [
    (["--env", "maze", "--size", "3x3", "--seed", "7", "--run-seed", "1"],
     ["--epochs", "300", "--learning-rate", "0.01"]),
    (["--env", "taxi", "--seed", "0", "--run-seed", "1", "--step-cap", "200"],
     ["--epochs", "30"]),
], ids=["maze", "taxi"])
def test_eval_hgq_prints_what_a_per_frame_act_loop_computes(tmp_path, capsys, train, distill):
    run = tmp_path / "run"
    assert cli.main(["train", *train, "--out", str(run)]) == 0
    assert cli.main(["distill", "--run", str(run), *distill]) == 0
    capsys.readouterr()
    assert cli.main(["eval-hgq", "--run", str(run), "--episodes", "4", "--seed", "3"]) == 0
    assert capsys.readouterr().out == _act_loop_lines(run, 4, 3)


@pytest.mark.parametrize("command", [
    ["distill", "--learning-rate", "0"], ["distill", "--learning-rate", "nan"],
    ["completeness", "--tol", "-1"], ["completeness", "--tol", "nan"]],
    ids=["learning-rate-0", "learning-rate-nan", "tol-negative", "tol-nan"])
def test_out_of_range_numbers_exit_2(run_dir, capsys, command):
    assert cli.main([command[0], "--run", str(run_dir), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and not captured.out
    assert not (run_dir / "approximator.npz").exists()
