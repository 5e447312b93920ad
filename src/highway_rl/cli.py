"""Command-line entry point.

Subcommands: train, eval, eval-hgq, bench, completeness, export, distill.
Exit codes: 0 ok, 2 usage/config error (also a malformed artifact and any
other package error, e.g. a feature dimension mismatch), 3 determinism
violation, 4 missing, unmarked or altered artifact (every command that reads
a run checks its manifest digests first), 5 a solve stopped short of delta,
on NaN values or at its own sweep cap (a `bench` solver, or the run's own
solve that `completeness` reads).  HG_RUN_DIR overrides the default output root.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import serialize, trainer
from .environments import EnvSpec, make_env
from .errors import DeterminismViolation, HighwayRLError, MissingArtifact
from .highway_graph import expand_to_empirical, graph_stats
from .highway_graph import to_dot as highway_dot
from .policy import compile_greedy
from .reparam import ApproxConfig, extract_dataset, fit, greedy_table, policy_agreement
from .transition_model import to_dot as empirical_dot
from .transition_model import vanilla_value_iteration
from .value_iteration import (completeness_report, interior_values, q_to_csv, solve,
                              values_to_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DETERMINISM = 3
EXIT_MISSING = 4
EXIT_NOT_CONVERGED = 5


def _run_root() -> str:
    return os.environ.get("HG_RUN_DIR", "runs")


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except Exception as exc:
        raise ValueError(f"bad --size {text!r}, expected WxH") from exc


def _read_config_file(path: str) -> dict:
    """The key=value lines of a --config file; blank and # lines are skipped."""
    try:
        with open(path) as f:
            lines = [line.strip() for line in f]
    except OSError as e:
        raise argparse.ArgumentTypeError(f"cannot read {path}: {e.strerror}") from None
    out = {}
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise argparse.ArgumentTypeError(f"bad config line: {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _env_spec_from_args(kind, size, seed) -> EnvSpec:
    if kind == "maze":
        if not size:
            raise ValueError("--size WxH is required for maze")
        w, h = _parse_size(size)
        return EnvSpec(kind="maze", width=w, height=h, seed=seed)
    return EnvSpec(kind=kind, seed=seed)


def _env_spec_from_manifest(manifest: dict) -> EnvSpec:
    cfg = manifest["config"]
    return EnvSpec(kind=cfg["env_kind"], width=cfg.get("env_width", 0),
                   height=cfg.get("env_height", 0), seed=cfg["env_seed"])


# the manifest config keys that the commands reading a run look up
_RUN_CONFIG_KEYS = ("env_kind", "env_seed", "gamma", "delta", "episode_step_cap")


def _load_run(run_dir):
    manifest = serialize.read_manifest(run_dir)
    missing = [key for key in _RUN_CONFIG_KEYS if key not in manifest["config"]]
    if missing:
        raise MissingArtifact(f"{run_dir}: manifest.json's config lacks {', '.join(missing)}")
    if not serialize.verify_manifest(run_dir):
        raise MissingArtifact(f"{run_dir}: files differ from the digests in manifest.json")
    graph = serialize.load_highway_graph(os.path.join(run_dir, "graph.npz"))
    tables = serialize.load_value_tables(os.path.join(run_dir, "tables.npz"))
    return manifest, graph, tables


# ------------------------------------------------------------------- commands

def cmd_train(args) -> int:
    if args.env is None:
        print("error: --env is required", file=sys.stderr)
        return EXIT_CONFIG
    spec = _env_spec_from_args(args.env, args.size, args.seed)
    config = trainer.TrainConfig(
        env=spec, actors=args.actors, episodes_per_update=args.episodes_per_update,
        frame_budget=args.frames, gamma=args.gamma, delta=args.delta,
        convergence_patience=args.patience, run_seed=args.run_seed,
        episode_step_cap=args.step_cap)
    run_dir = args.out
    if run_dir is None:
        name = spec.kind
        if spec.kind == "maze":
            name += f"-{spec.width}x{spec.height}"
        name += f"-s{spec.seed}-r{config.run_seed}"
        run_dir = os.path.join(_run_root(), name)
    os.makedirs(run_dir, exist_ok=True)

    # metrics are streamed row by row while the run progresses
    with open(os.path.join(run_dir, "metrics.csv"), "w") as metrics_file:
        metrics_file.write(trainer.RunMetrics().to_csv())
        metrics_file.flush()

        def stream_row(row):
            metrics_file.write(trainer.metrics_row_line(row) + "\n")
            metrics_file.flush()

        result = trainer.train(config, on_update=stream_row)

    serialize.save_highway_graph(os.path.join(run_dir, "graph.npz"), result.graph)
    serialize.save_value_tables(os.path.join(run_dir, "tables.npz"), result.tables)
    with open(os.path.join(run_dir, "values.csv"), "w") as f:
        f.write(values_to_csv(result.tables))
    with open(os.path.join(run_dir, "q.csv"), "w") as f:
        f.write(q_to_csv(result.tables))
    config_snapshot = {
        "env_kind": spec.kind, "env_width": spec.width, "env_height": spec.height,
        "env_seed": spec.seed, "actors": config.actors,
        "episodes_per_update": config.resolved_episodes_per_update(),
        "frame_budget": config.frame_budget, "gamma": config.gamma,
        "delta": config.delta, "convergence_patience": config.convergence_patience,
        "run_seed": config.run_seed, "episode_step_cap": config.resolved_step_cap(),
    }
    with open(os.path.join(run_dir, "config.txt"), "w") as f:
        for key, value in sorted(config_snapshot.items()):
            f.write(f"{key}={value}\n")
    rows = result.metrics.rows
    untried = result.graph.untried_pairs(spec.action_count)
    serialize.write_manifest(run_dir, config_snapshot, extra={
        "converged_at_update": result.metrics.converged_at_update,
        "stopped_by": result.metrics.stopped_by,
        "untried_pairs": untried,
        "updates_run": len(rows),
        "frames_used": rows[-1].frames_so_far if rows else 0,
        "frames_at_convergence": (
            rows[result.metrics.converged_at_update - 1].frames_so_far
            if result.metrics.converged_at_update else None),
    })
    stats = graph_stats(result.graph)
    print(f"run dir: {run_dir}")
    print(f"updates: {len(rows)}  frames: {rows[-1].frames_so_far if rows else 0}")
    print(f"converged_at_update: {result.metrics.converged_at_update}  "
          f"stopped_by: {result.metrics.stopped_by}  untried_pairs: {untried}")
    print(f"intersections: {stats['intersections']}  highways: {stats['highways']}  "
          f"z: {stats['z']:.4f}")
    if rows:
        print(f"greedy total reward: {rows[-1].total_reward:.4f}  "
              f"discounted return: {rows[-1].expected_discounted_return:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    """Greedy episodes of the run's graph policy; eval-hgq acts with its distilled net."""
    manifest, graph, tables = _load_run(args.run)
    env = make_env(_env_spec_from_manifest(manifest))
    if args.command == "eval-hgq":
        approx = serialize.load_approximator(os.path.join(args.run, "approximator.npz"))
        greedy = greedy_table(approx, env)
    else:
        greedy = compile_greedy(graph, tables)
    # a None step cap (maze runs) falls back to the evaluation default, as in training
    config = manifest["config"]
    ev = trainer.evaluate(greedy, env, args.episodes, gamma=config["gamma"],
                          step_cap=config["episode_step_cap"], seed=args.seed)
    print(f"episodes: {args.episodes}")
    print(f"mean_total_reward: {ev.mean_total_reward:.6f}")
    print(f"mean_discounted_return: {ev.mean_discounted_return:.6f}")
    return EXIT_OK


def cmd_bench(args) -> int:
    manifest, graph, tables = _load_run(args.run)
    stats = graph_stats(graph)
    expanded = expand_to_empirical(graph)
    _tables, hstats = solve(graph, delta=args.delta)
    start = time.perf_counter()
    vres = vanilla_value_iteration(expanded, delta=args.delta)
    v_wall = time.perf_counter() - start
    v_per_sweep = len(expanded.edges)
    lines = ["engine,sweeps,per_sweep_updates,total_updates,covered_ops,"
             "wall_seconds,ops_per_second"]
    h_ops = hstats["covered_ops"]
    lines.append(
        f"highway,{hstats['sweeps']},{hstats['per_sweep_updates']},"
        f"{hstats['total_updates']},{h_ops},{hstats['wall_seconds']:.6f},"
        f"{h_ops / max(hstats['wall_seconds'], 1e-12):.1f}")
    v_ops = vres.iterations_run * v_per_sweep
    lines.append(
        f"vanilla,{vres.iterations_run},{v_per_sweep},{v_ops},{v_ops},"
        f"{v_wall:.6f},{v_ops / max(v_wall, 1e-12):.1f}")
    z = stats["z"]
    counted = (hstats["total_updates"] / v_ops) if v_ops else float("nan")
    lines.append(f"# z={z!r}")
    lines.append(f"# z_squared={z * z!r}")
    lines.append(f"# counted_work_ratio={counted!r}")
    lines.append(f"# wall_ratio={hstats['wall_seconds'] / max(v_wall, 1e-12)!r}")
    # the highway sweeps split into the corridor-contracted start's and the
    # full graph's
    for name in ("contracted", "reduced_intersections", "reduced_highways",
                 "reduced_sweeps", "full_sweeps"):
        lines.append(f"# {name}={hstats[name]}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    print(text, end="")
    stalled = [name for name, converged in
               (("highway", hstats["converged"]), ("vanilla", vres.converged))
               if not converged]
    if stalled:
        print(f"not converged: {' and '.join(stalled)} stopped on NaN values or at the "
              f"sweep cap before reaching --delta {args.delta}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_completeness(args) -> int:
    manifest, graph, tables = _load_run(args.run)
    delta = manifest["config"]["delta"]
    if not tables.final_delta < delta:
        print(f"not converged: the run's solve stopped at final_delta "
              f"{tables.final_delta!r}, not below delta {delta!r}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    spec = _env_spec_from_manifest(manifest)
    env = make_env(spec)
    gamma = manifest["config"]["gamma"]
    truth = env.ground_truth_values(gamma)
    learned = interior_values(graph, tables)
    merged = {sid: learned.get(sid, 0.0) for sid in truth}
    report = completeness_report(merged, truth, args.tol)
    covered = sum(1 for sid in truth if sid in learned)
    print(f"states: {len(truth)}  covered: {covered}")
    print(f"min_dist: {report['min_dist']:.2f}")
    print(f"max_dist: {report['max_dist']:.2f}")
    print(f"avg_dist: {report['avg_dist']:.2f}")
    print(f"completeness: {report['completeness_pct']:.2f}%")
    return EXIT_OK


def cmd_export(args) -> int:
    manifest, graph, tables = _load_run(args.run)
    values = tables.v if tables.v else None
    prefix = args.out_prefix or os.path.join(args.run, "graph")
    highway_path = prefix + ".highway.dot"
    with open(highway_path, "w") as f:
        f.write(highway_dot(graph, values=values) + "\n")
    written = [highway_path]
    if args.expanded:
        expanded_path = prefix + ".expanded.dot"
        with open(expanded_path, "w") as f:
            f.write(empirical_dot(expand_to_empirical(graph)) + "\n")
        written.append(expanded_path)
    spec = _env_spec_from_manifest(manifest)
    if spec.kind == "maze":
        art_path = prefix + ".maze.txt"
        with open(art_path, "w") as f:
            f.write(make_env(spec).ascii_art() + "\n")
        written.append(art_path)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_distill(args) -> int:
    manifest, graph, tables = _load_run(args.run)
    spec = _env_spec_from_manifest(manifest)
    env = make_env(spec)

    def features_of(sid):
        return env.state_features(env.obs_of_id(sid))

    dataset = extract_dataset(graph, tables, features_of)
    cfg = ApproxConfig(learning_rate=args.learning_rate, epochs=args.epochs,
                       init_seed=args.seed)
    approx = fit(dataset, cfg, action_count=env.action_count)
    path = os.path.join(args.run, "approximator.npz")
    serialize.save_approximator(path, approx)
    serialize.write_manifest(args.run, manifest["config"], extra=manifest)
    scored = [s for s in graph.intersections if graph.out_edges.get(s)]
    agreement = policy_agreement(approx, scored, features_of, compile_greedy(graph, tables))
    print(f"rows: {len(dataset)}  final_loss: {approx.loss_history[-1]:.6g}  "
          f"epochs_run: {len(approx.loss_history)} of {cfg.epochs}")
    print(f"greedy_agreement: {agreement:.4f}")
    print(path)
    return EXIT_OK


# --------------------------------------------------------------------- parser

def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The hgrl parser; config (key=value pairs of a --config file) becomes
    the defaults of the train flags with those names, so argparse converts
    each value as it converts the flag, and an explicit flag still wins."""
    parser = argparse.ArgumentParser(prog="hgrl",
                                     description="highway-graph reinforcement learning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an agent and write a run directory")
    defaults = trainer.TrainConfig
    settings = [
        p.add_argument("--env", choices=["maze", "cliffwalking", "taxi"]),
        p.add_argument("--size", help="maze size as WxH"),
        p.add_argument("--seed", type=int, default=EnvSpec.seed),
        p.add_argument("--frames", type=int, default=defaults.frame_budget),
        p.add_argument("--actors", type=int, default=defaults.actors),
        p.add_argument("--episodes-per-update", type=int, dest="episodes_per_update",
                       default=defaults.episodes_per_update),
        p.add_argument("--gamma", type=float, default=defaults.gamma),
        p.add_argument("--delta", type=float, default=defaults.delta),
        p.add_argument("--patience", type=int, default=defaults.convergence_patience),
        p.add_argument("--run-seed", type=int, dest="run_seed", default=defaults.run_seed),
        p.add_argument("--step-cap", type=int, dest="step_cap",
                       default=defaults.episode_step_cap),
    ]
    p.add_argument("--config", type=_read_config_file,
                   help="key=value file; keys are the flags above, flags override")
    p.add_argument("--out", help="run directory (default under HG_RUN_DIR or ./runs)")
    p.set_defaults(func=cmd_train)
    if config:
        unknown = sorted(set(config) - {action.dest for action in settings})
        if unknown:
            p.error(f"unknown --config key(s): {', '.join(unknown)}")
        p.set_defaults(**config)

    for name, text in (("eval", "greedy evaluation of a trained artifact"),
                       ("eval-hgq", "greedy evaluation of the distilled approximator")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--run", required=True)
        p.add_argument("--episodes", type=int, default=10)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="value-iteration benchmark on a trained graph")
    p.add_argument("--run", required=True)
    p.add_argument("--delta", type=float, default=1e-9)
    p.add_argument("--out", help="also write the CSV here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("completeness", help="compare learned values to ground truth")
    p.add_argument("--run", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_completeness)

    p = sub.add_parser("export", help="write DOT renderings of a trained graph")
    p.add_argument("--run", required=True)
    p.add_argument("--out-prefix", dest="out_prefix")
    p.add_argument("--expanded", action="store_true",
                   help="also export the expanded empirical graph")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("distill", help="fit the Q approximator from a trained graph")
    p.add_argument("--run", required=True)
    p.add_argument("--epochs", type=int, default=ApproxConfig.epochs,
                   help="at most this many epochs")
    p.add_argument("--learning-rate", type=float, default=ApproxConfig.learning_rate,
                   dest="learning_rate")
    p.add_argument("--seed", type=int, default=ApproxConfig.init_seed)
    p.set_defaults(func=cmd_distill)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "config", None):
            args = build_parser(args.config).parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize its code to the config exit
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except DeterminismViolation as exc:
        print(f"determinism violation: {exc}", file=sys.stderr)
        return EXIT_DETERMINISM
    except MissingArtifact as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (ValueError, KeyError, HighwayRLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
