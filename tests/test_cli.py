"""Command-line surface: exit codes, run directories, exports."""

import dataclasses
import json
import os
import re
import shutil

import pytest

from highway_rl import cli
from highway_rl.environments import StepResult
from highway_rl.serialize import (load_value_tables, read_manifest, save_value_tables,
                                  verify_manifest, write_manifest)


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


def test_train_unknown_env_exits_2(tmp_path, capsys):
    assert cli.main(["train", "--env", "pinball", "--out", str(tmp_path / "x")]) == 2


def test_train_maze_without_size_exits_2(tmp_path):
    assert cli.main(["train", "--env", "maze", "--out", str(tmp_path / "x")]) == 2


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


def test_bench_not_converged_exits_5(run_dir, capsys):
    assert cli.main(["bench", "--run", str(run_dir), "--max-iter", "1"]) == 5
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].startswith("highway,1,")
    assert captured.out.splitlines()[2].startswith("vanilla,1,")
    assert "not converged: highway and vanilla" in captured.err


def test_bench_missing_artifact_exits_4(tmp_path):
    assert cli.main(["bench", "--run", str(tmp_path / "ghost")]) == 4


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
    write_manifest(stalled, manifest["config"], extra={
        k: v for k, v in manifest.items()
        if k not in ("tool_version", "format_version", "config", "files")})
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
    assert (run_dir / "approximator.npz").exists()
    assert verify_manifest(run_dir)
    assert cli.main(["eval-hgq", "--run", str(run_dir), "--episodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "mean_total_reward:" in out


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
                return StepResult(1 + hits, 0.0, False)
            return StepResult(0, 0.0, True)

    monkeypatch.setattr(trainer_module, "make_env", lambda spec: _Flaky())
    code = cli.main(["train", "--env", "maze", "--size", "3x3", "--step-cap", "4",
                     "--out", str(tmp_path / "x")])
    assert code == 3
    assert "determinism violation" in capsys.readouterr().err
