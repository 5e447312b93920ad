"""Versioned binary artifacts (npz containers) and run manifests.

Every artifact is a compressed npz archive carrying a format marker, a
version number, and exact float64 / uint64 payload arrays, so graphs,
tables, projectors, and approximators round-trip bit-for-bit.  A run
directory additionally gets a manifest.json listing each file with its
sha256 digest.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .encoder import RandomProjector
from .errors import MissingArtifact
from .highway_graph import HighwayGraph
from .reparam import ApproxConfig, QApproximator
from .transition_model import EmpiricalGraph
from .value_iteration import ValueTables

FORMAT_VERSION = 1
TOOL_VERSION = "0.1.0"


def _save(path, kind: str, payload: dict):
    payload = dict(payload)
    payload["artifact_kind"] = np.array(kind)
    payload["format_version"] = np.array(FORMAT_VERSION, dtype=np.int64)
    np.savez_compressed(path, **payload)


def _load(path, kind: str) -> dict:
    """Every array of the artifact, each decompressed once, by name."""
    if not os.path.exists(path):
        raise MissingArtifact(f"no artifact at {path}")
    with np.load(path, allow_pickle=False) as npz:
        data = {name: npz[name] for name in npz.files}
    found = str(data["artifact_kind"])
    if found != kind:
        raise MissingArtifact(f"{path} holds a {found!r} artifact, expected {kind!r}")
    version = int(data["format_version"])
    if version != FORMAT_VERSION:
        raise MissingArtifact(f"{path} has format version {version}, expected {FORMAT_VERSION}")
    return data


# --------------------------------------------------------------- highway graph

def save_highway_graph(path, graph: HighwayGraph):
    hids = sorted(graph.highways)
    lengths = [graph.highways[h].length for h in hids]
    ptr = np.zeros(len(hids) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    flat_states = np.zeros(int(ptr[-1]), dtype=np.uint64)
    flat_actions = np.zeros(int(ptr[-1]), dtype=np.int64)
    flat_rewards = np.zeros(int(ptr[-1]), dtype=np.float64)
    for i, hid in enumerate(hids):
        h = graph.highways[hid]
        flat_states[ptr[i]:ptr[i + 1]] = np.array(h.step_states, dtype=np.uint64)
        flat_actions[ptr[i]:ptr[i + 1]] = h.actions
        flat_rewards[ptr[i]:ptr[i + 1]] = h.step_rewards
    obs_keys = sorted(graph.observed)
    _save(path, "highway_graph", {
        "gamma": np.array(graph.gamma, dtype=np.float64),
        "intersections": np.array(sorted(graph.intersections), dtype=np.uint64),
        "h_from": np.array([graph.highways[h].from_state for h in hids], dtype=np.uint64),
        "h_to": np.array([graph.highways[h].to_state for h in hids], dtype=np.uint64),
        "h_ptr": ptr,
        "flat_states": flat_states,
        "flat_actions": flat_actions,
        "flat_rewards": flat_rewards,
        "obs_state": np.array([k[0] for k in obs_keys], dtype=np.uint64),
        "obs_action": np.array([k[1] for k in obs_keys], dtype=np.int64),
        "obs_next": np.array([graph.observed[k][0] for k in obs_keys], dtype=np.uint64),
        "obs_reward": np.array([graph.observed[k][1] for k in obs_keys], dtype=np.float64),
    })


def load_highway_graph(path) -> HighwayGraph:
    data = _load(path, "highway_graph")
    graph = HighwayGraph(gamma=float(data["gamma"]))
    graph.intersections.update(data["intersections"].tolist())
    ptr = data["h_ptr"].tolist()
    flat_states = data["flat_states"].tolist()
    flat_actions = data["flat_actions"].tolist()
    flat_rewards = data["flat_rewards"].tolist()
    for lo, hi, h_from, h_to in zip(ptr, ptr[1:], data["h_from"].tolist(),
                                    data["h_to"].tolist()):
        graph._insert_highway(h_from, h_to, tuple(flat_actions[lo:hi]),
                              tuple(flat_rewards[lo:hi]), tuple(flat_states[lo:hi]))
    for s, a, nxt, r in zip(data["obs_state"].tolist(), data["obs_action"].tolist(),
                            data["obs_next"].tolist(), data["obs_reward"].tolist()):
        graph.observed[(s, a)] = (nxt, r)
    return graph


# ------------------------------------------------------------- empirical graph

def save_empirical_graph(path, graph: EmpiricalGraph):
    keys = sorted(graph.edges)
    _save(path, "empirical_graph", {
        "gamma": np.array(graph.gamma, dtype=np.float64),
        "nodes": np.array(sorted(graph.nodes), dtype=np.uint64),
        "e_state": np.array([k[0] for k in keys], dtype=np.uint64),
        "e_action": np.array([k[1] for k in keys], dtype=np.int64),
        "e_next": np.array([graph.edges[k][0] for k in keys], dtype=np.uint64),
        "e_reward": np.array([graph.edges[k][1] for k in keys], dtype=np.float64),
        "e_count": np.array([graph.edges[k][2] for k in keys], dtype=np.int64),
    })


def load_empirical_graph(path) -> EmpiricalGraph:
    data = _load(path, "empirical_graph")
    graph = EmpiricalGraph(gamma=float(data["gamma"]))
    graph.nodes.update(int(s) for s in data["nodes"])
    for s, a, nxt, r, c in zip(data["e_state"], data["e_action"], data["e_next"],
                               data["e_reward"], data["e_count"]):
        graph.edges[(int(s), int(a))] = [int(nxt), float(r), int(c)]
    return graph


# -------------------------------------------------------------------- tables

def save_value_tables(path, tables: ValueTables):
    v_keys = sorted(tables.v)
    q_keys = sorted(tables.q)
    _save(path, "value_tables", {
        "v_state": np.array(v_keys, dtype=np.uint64),
        "v_value": np.array([tables.v[k] for k in v_keys], dtype=np.float64),
        "q_state": np.array([k[0] for k in q_keys], dtype=np.uint64),
        "q_action": np.array([k[1] for k in q_keys], dtype=np.int64),
        "q_value": np.array([tables.q[k] for k in q_keys], dtype=np.float64),
        "iterations_run": np.array(tables.iterations_run, dtype=np.int64),
        "final_delta": np.array(tables.final_delta, dtype=np.float64),
    })


def load_value_tables(path) -> ValueTables:
    data = _load(path, "value_tables")
    v = {int(s): float(x) for s, x in zip(data["v_state"], data["v_value"])}
    q = {(int(s), int(a)): float(x)
         for s, a, x in zip(data["q_state"], data["q_action"], data["q_value"])}
    return ValueTables(v=v, q=q, iterations_run=int(data["iterations_run"]),
                       final_delta=float(data["final_delta"]))


# ------------------------------------------------------------------ projector

def save_projector(path, p: RandomProjector):
    _save(path, "projector", {
        "weight": p.weight, "bias": p.bias, "initial_hidden": p.initial_hidden,
        "obs_dim": np.array(p.obs_dim, dtype=np.int64),
        "output_dim": np.array(p.output_dim, dtype=np.int64),
        "hidden_dim": np.array(p.hidden_dim, dtype=np.int64),
        "init_seed": np.array(p.init_seed, dtype=np.int64),
        "quantization_scale": np.array(p.quantization_scale, dtype=np.float64),
    })


def load_projector(path) -> RandomProjector:
    data = _load(path, "projector")
    return RandomProjector(
        weight=data["weight"], bias=data["bias"], initial_hidden=data["initial_hidden"],
        obs_dim=int(data["obs_dim"]), output_dim=int(data["output_dim"]),
        hidden_dim=int(data["hidden_dim"]), init_seed=int(data["init_seed"]),
        quantization_scale=float(data["quantization_scale"]),
    )


# --------------------------------------------------------------- approximator

def save_approximator(path, approx: QApproximator):
    cfg = approx.config
    payload = {
        "feature_dim": np.array(approx.feature_dim, dtype=np.int64),
        "action_count": np.array(approx.action_count, dtype=np.int64),
        "target_mean": np.array(approx.target_mean, dtype=np.float64),
        "target_scale": np.array(approx.target_scale, dtype=np.float64),
        "loss_history": np.array(approx.loss_history, dtype=np.float64),
        "cfg_learning_rate": np.array(cfg.learning_rate, dtype=np.float64),
        "cfg_momentum": np.array(cfg.momentum, dtype=np.float64),
        "cfg_epochs": np.array(cfg.epochs, dtype=np.int64),
        "cfg_batch_size": np.array(-1 if cfg.batch_size is None else cfg.batch_size,
                                   dtype=np.int64),
        "cfg_init_seed": np.array(cfg.init_seed, dtype=np.int64),
        "cfg_hidden_units": np.array(cfg.hidden_units, dtype=np.int64),
        "cfg_anchor": np.array(cfg.absent_action_anchor or ""),
    }
    for i, w in enumerate(approx.weights):
        payload[f"w{i}"] = w
    _save(path, "approximator", payload)


def load_approximator(path) -> QApproximator:
    data = _load(path, "approximator")
    batch = int(data["cfg_batch_size"])
    anchor = str(data["cfg_anchor"])
    cfg = ApproxConfig(
        learning_rate=float(data["cfg_learning_rate"]),
        momentum=float(data["cfg_momentum"]),
        epochs=int(data["cfg_epochs"]),
        batch_size=None if batch < 0 else batch,
        init_seed=int(data["cfg_init_seed"]),
        hidden_units=int(data["cfg_hidden_units"]),
        absent_action_anchor=anchor or None,
    )
    weights = [data[f"w{i}"] for i in range(6)]
    return QApproximator(weights=weights, feature_dim=int(data["feature_dim"]),
                         action_count=int(data["action_count"]), config=cfg,
                         target_mean=float(data["target_mean"]),
                         target_scale=float(data["target_scale"]),
                         loss_history=list(data["loss_history"]))


# ------------------------------------------------------------------- manifest

def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(run_dir, config: dict, extra: dict | None = None):
    """List every artifact in the run directory with its digest."""
    files = {}
    for name in sorted(os.listdir(run_dir)):
        if name == "manifest.json":
            continue
        full = os.path.join(run_dir, name)
        if os.path.isfile(full):
            files[name] = _sha256(full)
    manifest = {
        "tool_version": TOOL_VERSION,
        "format_version": FORMAT_VERSION,
        "config": config,
        "files": files,
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(run_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return manifest


def read_manifest(run_dir) -> dict:
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(path):
        raise MissingArtifact(f"no manifest.json under {run_dir}")
    with open(path) as f:
        return json.load(f)


def verify_manifest(run_dir) -> bool:
    """True when every listed file still matches its recorded digest."""
    manifest = read_manifest(run_dir)
    for name, digest in manifest["files"].items():
        full = os.path.join(run_dir, name)
        if not os.path.exists(full) or _sha256(full) != digest:
            return False
    return True
