"""Benchmark for highway-rl: one workload per run, outputs checked.

    python3 benchmarks/run.py --workload train-maze15 --seed 0 --seconds 25 --trace 0

Run from a checkout of the repository; the library is imported from its
`src/`.  The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` (output checks) and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones, measured with no tracing installed; with
`--trace 1` the run makes one untraced pass and then one traced pass over
the same inputs and reports the per-layer metrics.  The line before it is a
fuller report (the metric names later work uses, quartiles, the determinism
record, the run environment), also written with the trace under
`.bench_out/`.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# set-up is timed again and again and reported as a median: at least
# SETUP_MIN_SAMPLES times, and while cheap, until SETUP_MIN_S seconds of it
SETUP_MIN_SAMPLES = 5
SETUP_MIN_S = 3.0
SETUP_MAX_SAMPLES = 40
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import highway_rl, highway_rl.serialize; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Library import time in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_pass(workload, checks, tracer, records: dict, least: dict,
             splits: dict | None) -> tuple[list, float]:
    """Every input once; returns the main-call times and the pass's timed seconds.

    `least` keeps, per input, the least ratio of a main call to the reference
    task around it, and the least main-call time, seen so far.  Checks run
    untraced and untimed after each input.  An input whose determinism
    record differs from an earlier pass's counts as a failed check.
    """
    calls: list[float] = []
    timed = 0.0
    traced = tracer.active
    for item in workload.items:
        root = len(tracer.spans)
        t0 = tracer.clock()
        out = tracer.call("bench.item", workload.run, item)
        timed += tracer.clock() - t0
        calls.extend(out.call_s)
        ratio, call = least.get(item.key, (math.inf, math.inf))
        least[item.key] = (min(ratio, *(c / r for c, r in zip(out.call_s, out.ref_s))),
                           min(call, *out.call_s))
        tracer.active = False
        record = workload.check(item, out, checks)
        tracer.active = traced
        del out
        first = records.setdefault(item.key, record)
        checks.check(first == record, f"{item.key}: outputs differ between passes")
        if splits is not None:
            splits[item.key] = tracer.leaf_calls_under(root, "highway_graph.split_highway")
    return calls, timed


def layer_metrics(totals: dict, records: dict, overhead_s: float) -> dict:
    def get(name, key="total_s"):
        return totals.get(name, {}).get(key, 0)

    samples_in = get("highway_graph.assemble", "samples_in")
    novel = get("highway_graph.assemble", "novel_pairs")
    intersections = sum(r["intersections"] for r in records.values())
    expanded = sum(r["expanded_states"] for r in records.values())
    counts = {
        "trainer.rollout_s": (get("trainer.run_episode"), "s"),
        "trainer.episodes": (get("trainer.run_episode", "calls"), "count"),
        "trainer.frames": (get("trainer.run_episode", "frames"), "count"),
        "trainer.updates": (get("trainer.train", "updates"), "count"),
        "trainer.evaluate_s": (get("trainer.evaluate"), "s"),
        "trainer.other_s": (get("trainer.train", "self_s"), "s"),
        "policy.select_s": (get("policy.epsilon_greedy"), "s"),
        "policy.calls": (get("policy.epsilon_greedy", "calls"), "count"),
        "environments.step_s": (get("environments.step"), "s"),
        "environments.steps": (get("environments.step", "calls"), "count"),
        "environments.oracle_s": (get("environments.ground_truth_values"), "s"),
        "environments.make_env_s": (get("environments.make_env"), "s"),
        "highway_graph.assemble_s": (get("highway_graph.assemble"), "s"),
        "highway_graph.samples_in": (samples_in, "count"),
        "highway_graph.novel_pairs": (novel, "count"),
        "highway_graph.novel_ratio": (novel / samples_in if samples_in else 0.0, "ratio"),
        "highway_graph.splits": (get("highway_graph.split_highway", "calls"), "count"),
        "highway_graph.intersections": (intersections, "count"),
        "highway_graph.highways": (sum(r["highways"] for r in records.values()), "count"),
        "highway_graph.z": (intersections / expanded if expanded else 0.0, "ratio"),
        "highway_graph.expand_s": (get("highway_graph.expand_to_empirical"), "s"),
        "value_iteration.solve_s": (get("value_iteration.value_update_loop"), "s"),
        "value_iteration.solves": (get("value_iteration.value_update_loop", "calls"), "count"),
        "value_iteration.sweeps": (get("value_iteration.value_update_loop", "sweeps"), "count"),
        "value_iteration.highway_updates": (
            get("value_iteration.value_update_loop", "highway_updates"), "count"),
        "value_iteration.covered_ops": (
            get("value_iteration.value_update_loop", "covered_ops"), "count"),
        "value_iteration.interior_values_s": (get("value_iteration.interior_values"), "s"),
        "transition_model.vanilla_solve_s": (
            get("transition_model.vanilla_value_iteration"), "s"),
        "transition_model.vanilla_sweeps": (
            get("transition_model.vanilla_value_iteration", "sweeps"), "count"),
        "transition_model.edge_updates": (
            get("transition_model.vanilla_value_iteration", "edge_updates"), "count"),
        "serialize.save_s": (get("serialize.save"), "s"),
        "serialize.load_s": (get("serialize.load"), "s"),
        "serialize.bytes": (get("serialize.save", "bytes"), "B"),
        "serialize.manifest_s": (get("serialize.manifest"), "s"),
        "reparam.extract_s": (get("reparam.extract_dataset"), "s"),
        "reparam.fit_s": (get("reparam.fit"), "s"),
        "reparam.rows": (get("reparam.extract_dataset", "rows"), "count"),
        "reparam.epochs": (get("reparam.fit", "epochs"), "count"),
        "reparam.flops": (get("reparam.fit", "flops"), "flop"),
        "reparam.act_s": (get("reparam.act"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in counts.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "highway_rl" / "__init__.py").is_file():
        print(f"benchmark: no library sources at {SRC}; run it from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from runenv import run_environment
    from tracer import Tracer
    from workloads import WORKLOADS, Checks, Instrumentation

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    instr = Instrumentation(tracer)
    workload = WORKLOADS[args.workload](args.seed, tracer, instr, str(OUT_DIR))
    checks = Checks()
    records: dict = {}

    setup_samples: list[float] = []
    while (len(setup_samples) < SETUP_MIN_SAMPLES
           or (sum(setup_samples) < SETUP_MIN_S and len(setup_samples) < SETUP_MAX_SAMPLES)):
        imported = import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        setup_samples.append(imported + time.perf_counter() - t0)

    calls, passes, call_means = [], [], []
    least: dict = {}
    started = time.perf_counter()
    while True:
        pass_calls, timed = run_pass(workload, checks, tracer, records, least, None)
        calls.extend(pass_calls)
        passes.append(timed)
        call_means.append(sum(pass_calls) / len(pass_calls))
        elapsed = time.perf_counter() - started
        if args.trace or elapsed * (1 + 1 / len(passes)) > args.seconds:
            break

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": run_environment(ROOT)}
    named = {"setup_s": statistics.median(setup_samples),
             **workload.named(calls, records, passes),
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    if args.trace:
        splits: dict = {}
        instr.install()
        tracer.active = True
        try:
            tracer.call("bench.setup", workload.setup)
            traced_calls, _timed = run_pass(workload, checks, tracer, records, {}, splits)
        finally:
            tracer.active = False
            instr.uninstall()
        overhead = sum(traced_calls) / len(traced_calls) - call_means[0]
        totals = tracer.totals()
        for key, n in splits.items():
            records[key]["splits"] = n
        metrics = layer_metrics(totals, records, overhead)
        train_span = totals.get("trainer.train", {}).get("total_s", 0.0)
        report["trace"] = {
            "untraced_call_s": call_means[0],
            "traced_call_s": sum(traced_calls) / len(traced_calls),
            "overhead_s": overhead,
            "rollout_plus_assemble_share_of_train": (
                (metrics["trainer.rollout_s"]["value"]
                 + metrics["highway_graph.assemble_s"]["value"]) / train_span
                if train_span else None),
            "summary": dict(sorted(totals.items())),
        }
        with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w") as f:
            json.dump(tracer.dump(), f)
    else:
        metrics = {
            "setup_s": {"value": named["setup_s"], "unit": "s"},
            "call_rel": {"value": statistics.mean(r for r, _ in least.values()),
                         "unit": "ratio"},
            "peak_rss_mb": {"value": named["peak_rss_mb"], "unit": "MB"},
        }

    named["failed_frac"] = checks.failed / checks.attempted
    report.update({
        "named": named,
        "call_s_quartiles": quartiles(calls),
        "calls": len(calls),
        "passes": passes,
        "least": least,
        "setup_samples": setup_samples,
        "determinism": records,
        "failures": checks.failures,
    })
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(report))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
